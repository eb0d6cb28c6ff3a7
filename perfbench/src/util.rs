//! Small self-contained helpers: a seeded RNG, exact percentiles, a JSON
//! writer and `/proc` readers. Kept free of the program's own crates so
//! the load generator and the statistics do not move when the program does.

use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::time::Duration;

/// SplitMix64: a tiny, fully deterministic generator for workload choices.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`; the modulo bias is below 2^-50 here).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// Derives an independent stream seed from a base seed and a tag.
pub fn mix(seed: u64, tag: u64) -> u64 {
    Rng::new(seed ^ tag.wrapping_mul(0xD6E8_FEB8_6659_FD93)).next_u64()
}

/// Zipf(`s`) over `0..n`, drawn by inverting the cumulative weights.
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    pub fn new(n: usize, s: f64) -> Self {
        let mut acc = 0.0;
        let mut cdf: Vec<f64> = (1..=n)
            .map(|k| {
                acc += 1.0 / (k as f64).powf(s);
                acc
            })
            .collect();
        for c in &mut cdf {
            *c /= acc;
        }
        Zipf { cdf }
    }

    pub fn sample(&self, rng: &mut Rng) -> usize {
        let u = rng.unit();
        self.cdf
            .iter()
            .position(|&c| u < c)
            .unwrap_or(self.cdf.len() - 1)
    }
}

/// Every recorded sample of one quantity, sorted, for exact percentiles.
#[derive(Debug, Clone, Default)]
pub struct Dist {
    sorted: Vec<f64>,
}

/// A percentile is reported only with at least this many samples above it.
pub const MIN_BEYOND: usize = 10;

impl Dist {
    pub fn new(mut values: Vec<f64>) -> Self {
        values.sort_by(f64::total_cmp);
        Dist { sorted: values }
    }

    pub fn n(&self) -> usize {
        self.sorted.len()
    }

    pub fn sorted(&self) -> &[f64] {
        &self.sorted
    }

    /// The nearest-rank `p`-quantile and the number of samples above it, or
    /// `None` when fewer than [`MIN_BEYOND`] samples lie above it.
    pub fn pct(&self, p: f64) -> Option<(f64, usize)> {
        let n = self.sorted.len();
        let rank = ((p * n as f64).ceil() as usize).max(1);
        if rank > n || n - rank < MIN_BEYOND {
            return None;
        }
        Some((self.sorted[rank - 1], n - rank))
    }

    pub fn mean(&self) -> Option<f64> {
        (!self.sorted.is_empty()).then(|| self.sorted.iter().sum::<f64>() / self.n() as f64)
    }
}

pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

pub fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

/// A JSON value, written with every digit a number has.
#[derive(Debug, Clone)]
pub enum J {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<J>),
    Obj(Vec<(String, J)>),
}

impl J {
    pub fn obj(fields: Vec<(&str, J)>) -> J {
        J::Obj(fields.into_iter().map(|(k, v)| (k.to_owned(), v)).collect())
    }

    pub fn str(s: impl Into<String>) -> J {
        J::Str(s.into())
    }

    pub fn num(v: impl Into<f64>) -> J {
        J::Num(v.into())
    }

    pub fn opt(v: Option<f64>) -> J {
        v.map_or(J::Null, J::Num)
    }

    fn write(&self, out: &mut String) {
        match self {
            J::Null => out.push_str("null"),
            J::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            J::Num(v) if v.is_finite() => {
                let _ = write!(out, "{v}");
            }
            J::Num(_) => out.push_str("null"),
            J::Str(s) => write_str(out, s),
            J::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push_str(", ");
                    }
                    item.write(out);
                }
                out.push(']');
            }
            J::Obj(fields) => {
                out.push('{');
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push_str(", ");
                    }
                    write_str(out, k);
                    out.push_str(": ");
                    v.write(out);
                }
                out.push('}');
            }
        }
    }
}

impl std::fmt::Display for J {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let mut s = String::new();
        self.write(&mut s);
        f.write_str(&s)
    }
}

pub fn write_str(out: &mut String, s: &str) {
    out.push('"');
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// User plus system CPU time of process `pid`, in clock ticks.
pub fn cpu_ticks(pid: u32) -> std::io::Result<u64> {
    let stat = std::fs::read_to_string(format!("/proc/{pid}/stat"))?;
    // Fields after the parenthesised command name: state is the first,
    // utime and stime are the 12th and 13th.
    let rest = stat
        .rsplit_once(')')
        .map(|(_, r)| r)
        .ok_or_else(|| std::io::Error::other("malformed /proc stat"))?;
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let field = |i: usize| -> std::io::Result<u64> {
        fields
            .get(i)
            .and_then(|f| f.parse().ok())
            .ok_or_else(|| std::io::Error::other("malformed /proc stat"))
    };
    Ok(field(11)? + field(12)?)
}

/// Host-wide `(idle, steal)` CPU time from `/proc/stat`, in clock ticks
/// summed over all CPUs. Steal is time the hypervisor ran something else
/// on this machine's virtual CPUs.
pub fn host_idle_steal_ticks() -> std::io::Result<(u64, u64)> {
    let stat = std::fs::read_to_string("/proc/stat")?;
    let fields: Vec<u64> = stat
        .lines()
        .next()
        .and_then(|l| l.strip_prefix("cpu "))
        .map(|l| {
            l.split_whitespace()
                .filter_map(|f| f.parse().ok())
                .collect()
        })
        .unwrap_or_default();
    // user nice system idle iowait irq softirq steal ...
    match (fields.get(3), fields.get(7)) {
        (Some(&idle), Some(&steal)) => Ok((idle, steal)),
        _ => Err(std::io::Error::other("malformed /proc/stat")),
    }
}

/// Peak resident set (`VmHWM`) of process `pid`, in KiB.
pub fn vm_hwm_kib(pid: u32) -> std::io::Result<u64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or_else(|| std::io::Error::other("no VmHWM in /proc status"))
}

/// Clock ticks per second for [`cpu_ticks`].
pub fn clock_ticks_per_sec() -> u64 {
    std::process::Command::new("getconf")
        .arg("CLK_TCK")
        .output()
        .ok()
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.trim().parse().ok())
        .unwrap_or(100)
}

/// FNV-1a over the program's sources, so a result names the code it
/// measured even where the checkout is not a git repository.
pub fn source_digest() -> u64 {
    fn walk(dir: &Path, out: &mut Vec<PathBuf>) {
        let Ok(entries) = std::fs::read_dir(dir) else {
            return;
        };
        for e in entries.flatten() {
            let p = e.path();
            let name = e.file_name();
            if p.is_dir() {
                if name != "target" && name != ".git" {
                    walk(&p, out);
                }
            } else {
                out.push(p);
            }
        }
    }
    let mut files = vec![PathBuf::from("Cargo.toml"), PathBuf::from("Cargo.lock")];
    for d in ["crates", "src", "vendor"] {
        walk(Path::new(d), &mut files);
    }
    files.sort();
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut feed = |bytes: &[u8]| {
        for &b in bytes {
            h ^= b as u64;
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
    };
    for f in files {
        if let Ok(bytes) = std::fs::read(&f) {
            feed(f.to_string_lossy().as_bytes());
            feed(&bytes);
        }
    }
    h
}
