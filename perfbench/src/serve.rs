//! Starts `sdd serve` the way an operator does and watches the process.

use crate::spec::Transport;
use crate::wire::Conn;
use std::io::{BufRead, BufReader};
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::sync::mpsc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

pub struct Served {
    child: Child,
    addr: String,
    drain: Option<JoinHandle<()>>,
}

impl Served {
    /// Spawns `sdd serve --addr 127.0.0.1:0 --open <csv> <flags>` and waits
    /// for its first successful reply. Returns the server and the time from
    /// spawning to that reply.
    pub fn start(
        sdd: &Path,
        csv: &Path,
        flags: &[String],
        transport: Transport,
        log: &Path,
    ) -> std::io::Result<(Served, Duration)> {
        let log = std::fs::File::create(log)?;
        let spawned = Instant::now();
        let mut child = Command::new(sdd)
            .args(["serve", "--addr", "127.0.0.1:0", "--open"])
            .arg(csv)
            .args(flags)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(log)
            .spawn()?;
        let stdout = child.stdout.take().expect("stdout is piped");
        let (tx, rx) = mpsc::channel();
        // The banner is the first line; the rest is drained so the server
        // never blocks on a full pipe.
        let drain = std::thread::spawn(move || {
            let mut lines = BufReader::new(stdout).lines();
            if let Some(Ok(first)) = lines.next() {
                let _ = tx.send(first);
            }
            for _ in lines {}
        });
        let mut served = Served {
            child,
            addr: String::new(),
            drain: Some(drain),
        };
        let banner = rx
            .recv_timeout(Duration::from_secs(150))
            .map_err(|_| std::io::Error::other("sdd serve printed no banner"))?;
        served.addr = banner_addr(&banner, transport)
            .ok_or_else(|| std::io::Error::other(format!("unrecognised banner {banner:?}")))?;
        let reply = Conn::connect(&served.addr, transport)?.call("{\"op\":\"ping\"}")?;
        if reply != "{\"ok\":true,\"op\":\"pong\"}" {
            return Err(std::io::Error::other(format!("bad ping reply {reply:?}")));
        }
        Ok((served, spawned.elapsed()))
    }

    pub fn addr(&self) -> &str {
        &self.addr
    }

    pub fn pid(&self) -> u32 {
        self.child.id()
    }
}

impl Drop for Served {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
        if let Some(d) = self.drain.take() {
            let _ = d.join();
        }
    }
}

/// `serving … on 127.0.0.1:P — connect with `sdd connect 127.0.0.1:P``,
/// with `, http on 127.0.0.1:Q` before ` on` when HTTP is enabled.
fn banner_addr(banner: &str, transport: Transport) -> Option<String> {
    match transport {
        Transport::Tcp => {
            let rest = banner.split("sdd connect ").nth(1)?;
            Some(rest.trim_end_matches('`').trim().to_owned())
        }
        Transport::Http => {
            let rest = banner.split("http on ").nth(1)?;
            let end = rest.find([' ', ',', ')'])?;
            Some(rest[..end].to_owned())
        }
    }
}
