//! The served smart drill-down benchmark.
//!
//! ```sh
//! bash perfbench/run.sh --workload census-explore --seed 1 --seconds 24 --trace 0
//! ```
//!
//! `--trace 0` serves the workload from a spawned `sdd serve` and reports
//! the end-to-end metrics; `--trace 1` replays the same seeded request
//! stream in-process with spans around each layer and reports the
//! per-layer metrics. Either way the last stdout line is one JSON object
//! `{"correct", "attempted", "failed", "metrics"}`, and the full result
//! with provenance is written to `perfbench/results/`.

mod e2e;
mod plan;
mod replay;
mod serve;
mod spec;
mod trace;
mod util;
mod wire;

use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Duration;
use util::J;

const USAGE: &str =
    "usage: sdd-perfbench --sdd <path> --workload <name> --seed <n> --seconds <s> --trace <0|1>";

struct Args {
    sdd: PathBuf,
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let get = |flag: &str| -> Result<&str, String> {
        let i = argv
            .iter()
            .position(|a| a == flag)
            .ok_or_else(|| format!("missing {flag}\n{USAGE}"))?;
        argv.get(i + 1)
            .map(String::as_str)
            .ok_or_else(|| format!("{flag} needs a value\n{USAGE}"))
    };
    let num = |flag: &str| -> Result<u64, String> {
        get(flag)?
            .parse()
            .map_err(|_| format!("bad {flag}\n{USAGE}"))
    };
    let trace = match get("--trace")? {
        "0" => false,
        "1" => true,
        other => return Err(format!("bad --trace {other:?}\n{USAGE}")),
    };
    let seconds = num("--seconds")?;
    if seconds == 0 {
        return Err("--seconds must be positive".to_owned());
    }
    Ok(Args {
        sdd: PathBuf::from(get("--sdd")?),
        workload: get("--workload")?.to_owned(),
        seed: num("--seed")?,
        seconds,
        trace,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };
    let workloads = spec::workloads();
    let Some(w) = workloads.iter().find(|w| w.name == args.workload) else {
        let names: Vec<&str> = workloads.iter().map(|w| w.name).collect();
        eprintln!(
            "unknown workload {:?} (one of {})",
            args.workload,
            names.join(", ")
        );
        return ExitCode::from(2);
    };
    let work = Path::new("perfbench/work").join(format!("{}-{}", w.name, std::process::id()));
    let _ = std::fs::remove_dir_all(&work);
    if let Err(e) = std::fs::create_dir_all(&work) {
        eprintln!("cannot create {work:?}: {e}");
        return ExitCode::from(2);
    }
    let measured = Duration::from_secs(args.seconds);
    let result = if args.trace {
        trace::run(w, args.seed, measured, &args.sdd, &work)
            .map(|o| (o.correct, o.attempted, o.failed, None, o.metrics, o.detail))
    } else {
        e2e::run(w, args.seed, measured, &args.sdd, &work).map(|o| {
            (
                o.correct,
                o.attempted,
                o.failed,
                o.invalid,
                o.metrics,
                o.detail,
            )
        })
    };
    let _ = std::fs::remove_dir_all(&work);
    let (correct, attempted, failed, invalid, metrics, detail) = match result {
        Ok(r) => r,
        Err(e) => {
            eprintln!("{}: {e}", w.name);
            return ExitCode::from(1);
        }
    };

    for (name, unit, value, samples) in &metrics {
        println!("{name:<40} {value:>14.6} {unit:<10} (n={samples})");
    }
    let record = J::obj(vec![
        ("workload", J::str(w.name)),
        ("why", J::str(w.why)),
        ("trace", J::Bool(args.trace)),
        ("seed", J::num(args.seed as f64)),
        ("seconds", J::num(args.seconds as f64)),
        ("sizes", w.describe()),
        ("provenance", provenance(&args.sdd)),
        ("correct", J::Bool(correct)),
        ("invalid", invalid.clone().map_or(J::Null, J::Str)),
        ("attempted", J::num(attempted as f64)),
        ("failed", J::num(failed as f64)),
        (
            "metrics",
            J::Obj(
                metrics
                    .iter()
                    .map(|(name, unit, value, samples)| {
                        (
                            name.to_string(),
                            J::obj(vec![
                                ("value", J::num(*value)),
                                ("unit", J::str(*unit)),
                                ("samples", J::num(*samples as f64)),
                            ]),
                        )
                    })
                    .collect(),
            ),
        ),
        ("detail", detail),
    ]);
    let out_dir = Path::new("perfbench/results").join(w.name);
    let out = out_dir.join(format!(
        "seed{}-trace{}.json",
        args.seed,
        u8::from(args.trace)
    ));
    if let Err(e) =
        std::fs::create_dir_all(&out_dir).and_then(|()| std::fs::write(&out, format!("{record}\n")))
    {
        eprintln!("cannot write {out:?}: {e}");
    } else {
        eprintln!("results written to {}", out.display());
    }

    if let Some(why) = invalid {
        eprintln!("{}: invalid run, no result reported: {why}", w.name);
        return ExitCode::from(3);
    }
    // A correctness failure reports no numbers.
    let reported = if correct {
        J::Obj(
            metrics
                .iter()
                .map(|(name, unit, value, _)| {
                    (
                        name.to_string(),
                        J::obj(vec![("value", J::num(*value)), ("unit", J::str(*unit))]),
                    )
                })
                .collect(),
        )
    } else {
        J::Obj(Vec::new())
    };
    println!(
        "{}",
        J::obj(vec![
            ("correct", J::Bool(correct)),
            ("attempted", J::num(attempted as f64)),
            ("failed", J::num(failed as f64)),
            ("metrics", reported),
        ])
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        eprintln!("{}: correctness gate failed; see {}", w.name, out.display());
        ExitCode::from(1)
    }
}

/// Where a result came from: source revision, host, SIMD level and build.
fn provenance(sdd: &Path) -> J {
    let cmd = |prog: &str, args: &[&str]| -> Option<String> {
        let out = std::process::Command::new(prog)
            .args(args)
            // Keeps `git status` from rewriting the index.
            .env("GIT_OPTIONAL_LOCKS", "0")
            .output()
            .ok()?;
        out.status
            .success()
            .then(|| String::from_utf8_lossy(&out.stdout).trim().to_owned())
    };
    let rev = cmd("git", &["rev-parse", "HEAD"]);
    let dirty = rev
        .as_ref()
        .and_then(|_| cmd("git", &["status", "--porcelain", "--untracked-files=no"]))
        .map(|s| !s.is_empty());
    let cpu = std::fs::read_to_string("/proc/cpuinfo").ok().and_then(|s| {
        s.lines()
            .find_map(|l| l.strip_prefix("model name"))
            .map(|l| l.trim_start_matches([' ', '\t', ':']).to_owned())
    });
    J::obj(vec![
        ("git_rev", rev.map_or(J::Null, J::Str)),
        ("git_dirty", dirty.map_or(J::Null, J::Bool)),
        (
            "source_digest",
            J::str(format!("{:016x}", util::source_digest())),
        ),
        (
            "host_parallelism",
            J::num(std::thread::available_parallelism().map_or(0, |n| n.get()) as f64),
        ),
        ("cpu", cpu.map_or(J::Null, J::Str)),
        (
            "kernel",
            std::fs::read_to_string("/proc/sys/kernel/osrelease")
                .map_or(J::Null, |s| J::str(s.trim())),
        ),
        ("simd", J::str(sdd_core::accel::feature_level())),
        (
            "build_profile",
            J::str(if cfg!(debug_assertions) {
                "debug"
            } else {
                "release"
            }),
        ),
        (
            "rustc",
            cmd("rustc", &["--version"]).map_or(J::Null, J::Str),
        ),
        ("sdd_binary", J::str(sdd.display().to_string())),
    ])
}
