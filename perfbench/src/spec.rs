//! The three workloads and the inputs each one generates.

use crate::util::J;
use std::path::{Path, PathBuf};
use std::time::Duration;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Transport {
    /// Line-delimited JSON over TCP.
    Tcp,
    /// `POST /v1/line` over HTTP/1.1 keep-alive.
    Http,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Data {
    /// The census generator's first 7 columns.
    Census { rows: usize },
    /// The marketing generator's first 7 columns (9 409 rows).
    Marketing,
}

/// How each analyst picks its next visit.
#[derive(Debug, Clone, Copy)]
pub enum Visits {
    /// A fresh sampling seed and a fresh random path on every visit.
    Fresh,
    /// One of `profiles` fixed (seed, path) visits, drawn Zipf(`s`).
    Profiles { profiles: usize, s: f64 },
}

/// The open-loop appender of the live workload.
#[derive(Debug, Clone, Copy)]
pub struct Writer {
    pub batch_rows: usize,
    pub period: Duration,
    /// In the single-threaded traced replay, one batch is appended after
    /// every this many analyst requests (about the served run's ratio).
    pub replay_every: usize,
}

/// Live serving flags: `--tail <rows> --resident <segments> --spill <dir>`.
#[derive(Debug, Clone, Copy)]
pub struct Live {
    pub rows_per_segment: usize,
    pub resident: usize,
}

/// Options every analyst session is opened with.
#[derive(Debug, Clone, Copy)]
pub struct OpenParams {
    pub k: usize,
    pub capacity: usize,
    pub min_ss: usize,
}

#[derive(Debug, Clone)]
pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
    pub data: Data,
    pub transport: Transport,
    pub analysts: usize,
    pub think: Duration,
    pub visits: Visits,
    pub live: Option<Live>,
    pub writer: Option<Writer>,
    pub open: OpenParams,
}

/// The paper's §5 settings: `M = 50 000`, `minSS = 5 000`, `k = 4`.
const PAPER: OpenParams = OpenParams {
    k: 4,
    capacity: 50_000,
    min_ss: 5_000,
};

pub fn workloads() -> Vec<Workload> {
    vec![
        Workload {
            name: "census-explore",
            why: "500k-row census table, 10x the sample memory M: Create/prefetch scans and BRS over 50k-tuple samples dominate; the result cache almost never hits",
            data: Data::Census { rows: 500_000 },
            transport: Transport::Tcp,
            analysts: 2,
            think: Duration::from_millis(20),
            visits: Visits::Fresh,
            live: None,
            writer: None,
            open: PAPER,
        },
        Workload {
            name: "marketing-zipf-http",
            why: "9409-row table under M, 64 Zipf(1.1) profiles over HTTP, 1 analyst: nearly every drill hits the result cache, so transport, registry and cache dominate",
            data: Data::Marketing,
            transport: Transport::Http,
            analysts: 1,
            think: Duration::from_millis(10),
            visits: Visits::Profiles {
                profiles: 64,
                s: 1.1,
            },
            live: None,
            writer: None,
            open: PAPER,
        },
        Workload {
            name: "census-live-spill",
            why: "250k census rows served live and spilling beside a 2048-row appender: epoch turnover, incremental reservoirs and segment loads",
            data: Data::Census { rows: 250_000 },
            transport: Transport::Tcp,
            analysts: 1,
            think: Duration::from_millis(20),
            visits: Visits::Fresh,
            live: Some(Live {
                rows_per_segment: 16_384,
                resident: 4,
            }),
            writer: Some(Writer {
                batch_rows: 2_048,
                period: Duration::from_millis(250),
                replay_every: 6,
            }),
            open: PAPER,
        },
    ]
}

impl Workload {
    /// The size parameters recorded with every result.
    pub fn describe(&self) -> J {
        let rows = match self.data {
            Data::Census { rows } => rows,
            Data::Marketing => sdd_datagen::marketing::N_ROWS,
        };
        let table = match self.data {
            Data::Census { .. } => "census",
            Data::Marketing => "marketing",
        };
        let data_seed = match self.data {
            Data::Census { .. } => DATA_SEEDS.0,
            Data::Marketing => DATA_SEEDS.1,
        };
        J::obj(vec![
            ("table", J::str(table)),
            ("data_seed", J::num(data_seed as f64)),
            ("rows", J::num(rows as f64)),
            ("columns", J::num(COLUMNS as f64)),
            (
                "transport",
                J::str(match self.transport {
                    Transport::Tcp => "tcp",
                    Transport::Http => "http",
                }),
            ),
            ("analysts", J::num(self.analysts as f64)),
            ("think_ms", J::num(self.think.as_secs_f64() * 1e3)),
            (
                "visits",
                match self.visits {
                    Visits::Fresh => J::str("fresh"),
                    Visits::Profiles { profiles, s } => J::obj(vec![
                        ("profiles", J::num(profiles as f64)),
                        ("zipf_s", J::num(s)),
                    ]),
                },
            ),
            ("k", J::num(self.open.k as f64)),
            ("capacity_m", J::num(self.open.capacity as f64)),
            ("min_ss", J::num(self.open.min_ss as f64)),
            (
                "live",
                self.live.map_or(J::Null, |l| {
                    J::obj(vec![
                        ("rows_per_segment", J::num(l.rows_per_segment as f64)),
                        ("resident_segments", J::num(l.resident as f64)),
                    ])
                }),
            ),
            (
                "writer",
                self.writer.map_or(J::Null, |w| {
                    J::obj(vec![
                        ("batch_rows", J::num(w.batch_rows as f64)),
                        ("period_ms", J::num(w.period.as_secs_f64() * 1e3)),
                        ("replay_every", J::num(w.replay_every as f64)),
                    ])
                }),
            ),
        ])
    }

    /// Extra `sdd serve` flags this workload is served with.
    pub fn serve_flags(&self, spill_dir: &Path) -> Vec<String> {
        let mut flags = Vec::new();
        if self.transport == Transport::Http {
            flags.extend(["--http".to_owned(), "0".to_owned()]);
        }
        if let Some(live) = self.live {
            flags.extend([
                "--tail".to_owned(),
                live.rows_per_segment.to_string(),
                "--resident".to_owned(),
                live.resident.to_string(),
                "--spill".to_owned(),
                spill_dir.display().to_string(),
            ]);
        }
        flags
    }

    /// Append batches the writer may send in one run of `measured` seconds
    /// (plus warm-up).
    pub fn max_batches(&self, measured: Duration) -> usize {
        self.writer.map_or(0, |w| {
            ((WARMUP + measured).as_secs_f64() / w.period.as_secs_f64()).ceil() as usize + 1
        })
    }
}

/// Columns every generated table keeps.
pub const COLUMNS: usize = 7;

/// Requests in the first second are sent but not timed.
pub const WARMUP: Duration = Duration::from_secs(1);

/// The generated inputs of one run: the CSV the server opens, and the
/// rows the writer appends.
pub struct Inputs {
    pub csv_path: PathBuf,
    pub columns: Vec<String>,
    pub rows: usize,
    /// Pre-built `append` request lines, one per batch.
    pub append_lines: Vec<String>,
    /// The same batches as rows, for the in-process replays.
    pub append_rows: Vec<Vec<Vec<String>>>,
}

/// The tables are fixed datasets, as the paper's are: the generators'
/// own default seeds. The benchmark seed drives the traffic — sessions,
/// sampling seeds, drill paths, profile draws — so seeds vary what the
/// analysts do, not the data they explore.
const DATA_SEEDS: (u64, u64) = (1990, 2016);

pub fn generate(w: &Workload, measured: Duration) -> std::io::Result<Inputs> {
    let batch_rows = w.writer.map_or(0, |wr| wr.batch_rows);
    let extra = w.max_batches(measured) * batch_rows;
    let (csv_path, extra_path) = dataset(w, extra)?;
    let text = std::fs::read_to_string(&csv_path)?;
    let mut lines = text.lines();
    let columns: Vec<String> = lines
        .next()
        .unwrap_or_default()
        .split(',')
        .map(str::to_owned)
        .collect();
    let rows = lines.count();
    let extra_text = std::fs::read_to_string(&extra_path)?;
    let extra_rows: Vec<Vec<String>> = extra_text
        .lines()
        .map(|l| l.split(',').map(str::to_owned).collect())
        .collect();
    let mut append_lines = Vec::new();
    let mut append_rows = Vec::new();
    for batch in extra_rows
        .chunks(batch_rows.max(1))
        .filter(|b| b.len() == batch_rows)
    {
        let mut line = String::from("{\"op\":\"append\",\"rows\":[");
        for (i, r) in batch.iter().enumerate() {
            if i > 0 {
                line.push(',');
            }
            line.push('[');
            for (j, v) in r.iter().enumerate() {
                if j > 0 {
                    line.push(',');
                }
                crate::util::write_str(&mut line, v);
            }
            line.push(']');
        }
        line.push_str("]}");
        append_lines.push(line);
        append_rows.push(batch.to_vec());
    }
    Ok(Inputs {
        csv_path,
        columns,
        rows,
        append_lines,
        append_rows,
    })
}

/// Writes the workload's table to `<name>.csv` and the `extra` rows the
/// writer appends to `<name>.append.csv`, once per generator source: the
/// files are reused by later runs (the data does not depend on the seed),
/// and regenerated when the program's sources change.
fn dataset(w: &Workload, extra: usize) -> std::io::Result<(PathBuf, PathBuf)> {
    let (kind, initial, data_seed) = match w.data {
        Data::Census { rows } => ("census", rows, DATA_SEEDS.0),
        Data::Marketing => ("marketing", sdd_datagen::marketing::N_ROWS, DATA_SEEDS.1),
    };
    let dir = Path::new(DATA_DIR);
    let stem = format!(
        "{kind}-{initial}+{extra}-s{data_seed}-{:016x}",
        crate::util::source_digest()
    );
    let csv_path = dir.join(format!("{stem}.csv"));
    let extra_path = dir.join(format!("{stem}.append.csv"));
    if csv_path.exists() && extra_path.exists() {
        return Ok((csv_path, extra_path));
    }
    let table = match w.data {
        Data::Census { .. } => sdd_datagen::census(initial + extra, data_seed),
        Data::Marketing => sdd_datagen::marketing(data_seed),
    }
    .project_first_columns(COLUMNS);
    let write_rows = |rows: std::ops::Range<usize>, header: bool| -> std::io::Result<String> {
        let mut out = String::new();
        if header {
            let names: Vec<&str> = (0..COLUMNS)
                .map(|c| table.schema().column_name(c))
                .collect();
            out.push_str(&names.join(","));
            out.push('\n');
        }
        for r in rows {
            for c in 0..COLUMNS {
                let v = table.value(r as u32, c);
                if v.contains([',', '"', '\n', '\r']) {
                    return Err(std::io::Error::other("generated value needs CSV quoting"));
                }
                if c > 0 {
                    out.push(',');
                }
                out.push_str(v);
            }
            out.push('\n');
        }
        Ok(out)
    };
    let initial = initial.min(table.n_rows());
    std::fs::create_dir_all(dir)?;
    // Write under temporary names, then rename: a cut run never leaves a
    // truncated file behind for the next one.
    for (path, text) in [
        (&csv_path, write_rows(0..initial, true)?),
        (&extra_path, write_rows(initial..table.n_rows(), false)?),
    ] {
        let tmp = path.with_extension(format!("tmp{}", std::process::id()));
        std::fs::write(&tmp, text)?;
        std::fs::rename(&tmp, path)?;
    }
    Ok((csv_path, extra_path))
}

/// Generated datasets, kept between runs.
const DATA_DIR: &str = "perfbench/work/data";
