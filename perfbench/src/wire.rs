//! Minimal protocol clients, independent of the program's own client code:
//! one request line per call over line-JSON TCP or HTTP keep-alive.

use crate::spec::Transport;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::time::Duration;

pub struct Conn {
    transport: Transport,
    stream: BufReader<TcpStream>,
    buf: String,
}

impl Conn {
    pub fn connect(addr: &str, transport: Transport) -> std::io::Result<Conn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(Duration::from_secs(60)))?;
        Ok(Conn {
            transport,
            stream: BufReader::new(stream),
            buf: String::new(),
        })
    }

    /// Sends one request line; returns the response line without its
    /// trailing newline (for HTTP, the body, which is the same line).
    pub fn call(&mut self, line: &str) -> std::io::Result<String> {
        match self.transport {
            Transport::Tcp => {
                let w = self.stream.get_mut();
                w.write_all(line.as_bytes())?;
                w.write_all(b"\n")?;
                self.read_line()?;
                Ok(self.buf.trim_end_matches('\n').to_owned())
            }
            Transport::Http => {
                let head = format!(
                    "POST /v1/line HTTP/1.1\r\nHost: bench\r\nContent-Type: application/json\r\nContent-Length: {}\r\n\r\n",
                    line.len()
                );
                let w = self.stream.get_mut();
                w.write_all(head.as_bytes())?;
                w.write_all(line.as_bytes())?;
                self.read_line()?;
                let status: u16 = self
                    .buf
                    .split_whitespace()
                    .nth(1)
                    .and_then(|s| s.parse().ok())
                    .ok_or_else(|| {
                        std::io::Error::other(format!("bad status line {:?}", self.buf))
                    })?;
                let mut length = None;
                loop {
                    self.read_line()?;
                    let h = self.buf.trim_end();
                    if h.is_empty() {
                        break;
                    }
                    if let Some((k, v)) = h.split_once(':') {
                        if k.eq_ignore_ascii_case("content-length") {
                            length = v.trim().parse::<usize>().ok();
                        }
                    }
                }
                let length = length
                    .ok_or_else(|| std::io::Error::other("response without Content-Length"))?;
                let mut body = vec![0u8; length];
                self.stream.read_exact(&mut body)?;
                let body = String::from_utf8(body)
                    .map_err(|_| std::io::Error::other("response body is not UTF-8"))?;
                // 200/400 mirror the body's own "ok"; anything else is a
                // refusal (auth, shedding, framing), not an answer.
                if status != 200 && status != 400 {
                    return Err(std::io::Error::other(format!("HTTP {status}: {body}")));
                }
                body.strip_suffix('\n')
                    .map(str::to_owned)
                    .ok_or_else(|| std::io::Error::other("body without trailing newline"))
            }
        }
    }

    fn read_line(&mut self) -> std::io::Result<()> {
        self.buf.clear();
        if self.stream.read_line(&mut self.buf)? == 0 {
            return Err(std::io::Error::new(
                std::io::ErrorKind::UnexpectedEof,
                "server closed the connection",
            ));
        }
        Ok(())
    }
}
