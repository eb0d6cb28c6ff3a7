//! The served run: `sdd serve` in its own process, analysts in a closed
//! loop with think time, the live workload's writer in an open loop, then
//! the correctness gate against an in-process replay.

use crate::plan::{
    final_visit, parse_reply, priming_visits, run_visit, thinks_before, Analyst, Class,
};
use crate::replay::{self, Transcript};
use crate::serve::Served;
use crate::spec::{self, Inputs, Workload, WARMUP};
use crate::util::{
    clock_ticks_per_sec, cpu_ticks, host_idle_steal_ticks, ms, vm_hwm_kib, Dist, J, MIN_BEYOND,
};
use crate::wire::Conn;
use sdd_table::TableStore;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Server start-ups per run, `setup_s` being their median: at least
/// `MIN_SETUPS`, more while they add up to under `SETUP_BUDGET`. A census
/// start takes either about 0.33 s or about 0.47 s, depending on what else
/// the host runs, so a median of a few starts flips between the two.
const MIN_SETUPS: usize = 7;
const MAX_SETUPS: usize = 50;
const SETUP_BUDGET: Duration = Duration::from_secs(2);

/// A run whose generator woke or sent later than this at its 95th
/// percentile measured the generator, not the server: it is invalid.
pub const GEN_LAG_BOUND_MS: f64 = 10.0;

/// Independent single-threaded engines the transcript check runs on.
const REPLAY_ENGINES: usize = 2;

/// Timing of one request started inside the measured window.
struct Rec {
    class: Class,
    op: String,
    latency: Duration,
}

#[derive(Default)]
struct ClientOut {
    recs: Vec<Rec>,
    transcripts: Vec<Transcript>,
    /// Think-time wake-ups: how late each one ran, in ms.
    wake_lag_ms: Vec<f64>,
    attempted: usize,
    failed: usize,
    errors: Vec<String>,
}

#[derive(Default)]
struct WriterOut {
    /// Append latency from each batch's due time, in ms.
    latency_ms: Vec<f64>,
    /// How late each batch was sent while the writer was idle, in ms.
    lag_ms: Vec<f64>,
    /// Indices of batches the server accepted, in send order.
    accepted: Vec<usize>,
    attempted: usize,
    failed: usize,
    errors: Vec<String>,
}

pub struct Outcome {
    pub correct: bool,
    pub attempted: usize,
    pub failed: usize,
    /// Why the run is invalid (too few samples, late generator), if it is.
    pub invalid: Option<String>,
    /// `(name, unit, value, samples)` for every end-to-end metric.
    pub metrics: Vec<(&'static str, &'static str, f64, usize)>,
    /// Everything else the results file records.
    pub detail: J,
}

fn sleep_until(t: Instant) {
    let now = Instant::now();
    if t > now {
        std::thread::sleep(t - now);
    }
}

pub fn run(
    w: &Workload,
    seed: u64,
    measured: Duration,
    sdd: &Path,
    work: &Path,
) -> Result<Outcome, String> {
    let started = Instant::now();
    let inputs = spec::generate(w, measured).map_err(|e| format!("generating inputs: {e}"))?;
    eprintln!(
        "[{:6.1}s] inputs generated",
        started.elapsed().as_secs_f64()
    );
    let log = work.join("serve.log");

    let mut setups: Vec<f64> = Vec::new();
    let spill = work.join("spill");
    let server = loop {
        let _ = std::fs::remove_dir_all(&spill);
        std::fs::create_dir_all(&spill).map_err(|e| e.to_string())?;
        let (s, took) = Served::start(
            sdd,
            &inputs.csv_path,
            &w.serve_flags(&spill),
            w.transport,
            &log,
        )
        .map_err(|e| format!("starting sdd serve: {e}"))?;
        setups.push(took.as_secs_f64());
        let total: f64 = setups.iter().sum();
        if setups.len() >= MAX_SETUPS
            || (setups.len() >= MIN_SETUPS && total >= SETUP_BUDGET.as_secs_f64())
        {
            break s;
        }
    };
    eprintln!(
        "[{:6.1}s] {} server start-ups",
        started.elapsed().as_secs_f64(),
        setups.len()
    );
    let pid = server.pid();
    let addr = server.addr().to_owned();
    let primed = prime(w, &addr, &inputs);

    let t0 = Instant::now();
    let t_warm = t0 + WARMUP;
    let t_end = t_warm + measured;
    let (clients, writer, cpu_ticks_window, host_ticks) = std::thread::scope(|sc| {
        let analysts: Vec<_> = (0..w.analysts)
            .map(|c| {
                let addr = addr.clone();
                let inputs = &inputs;
                sc.spawn(move || analyst(w, seed, c, &addr, inputs, t_warm, t_end))
            })
            .collect();
        let writer = w.writer.map(|wr| {
            let addr = addr.clone();
            let inputs = &inputs;
            sc.spawn(move || writer(w, wr.period, &addr, inputs, t0, t_warm, t_end))
        });
        sleep_until(t_warm);
        let cpu0 = cpu_ticks(pid);
        let host0 = host_idle_steal_ticks();
        sleep_until(t_end);
        let cpu1 = cpu_ticks(pid);
        let host1 = host_idle_steal_ticks();
        let clients: Vec<ClientOut> = analysts
            .into_iter()
            .map(|h| h.join().expect("analyst thread panicked"))
            .collect();
        let writer = writer.map(|h| h.join().expect("writer thread panicked"));
        let cpu = match (cpu0, cpu1) {
            (Ok(a), Ok(b)) => Ok(b.saturating_sub(a)),
            (Err(e), _) | (_, Err(e)) => Err(e),
        };
        let host = match (host0, host1) {
            (Ok(a), Ok(b)) => Some((b.0.saturating_sub(a.0), b.1.saturating_sub(a.1))),
            _ => None,
        };
        (clients, writer, cpu, host)
    });
    let cpu_ticks_window = cpu_ticks_window.map_err(|e| format!("reading server CPU: {e}"))?;
    let mut clients = clients;
    clients.push(primed);

    // The live workload: one visit once the writer has stopped, and the
    // row count the server reports.
    let mut final_transcript = Transcript::new();
    let mut final_rows = None;
    let mut errors: Vec<String> = clients.iter().flat_map(|c| c.errors.clone()).collect();
    if let Some(wr) = &writer {
        errors.extend(wr.errors.clone());
        let mut conn = Conn::connect(&addr, w.transport).map_err(|e| e.to_string())?;
        let visit = final_visit(seed);
        let res = run_visit(&visit, &w.open, &inputs.columns, &mut |line: &str, _| {
            let resp = conn.call(line)?;
            let reply = parse_reply(&resp);
            final_transcript.push((line.to_owned(), resp));
            Ok::<_, std::io::Error>(reply)
        });
        if let Err(e) = res {
            errors.push(format!("final visit: {e}"));
        }
        let table = conn.call("{\"op\":\"table\"}").map_err(|e| e.to_string())?;
        final_rows = table
            .split("\"rows\":")
            .nth(1)
            .and_then(|r| r.split([',', '}']).next())
            .and_then(|r| r.parse::<usize>().ok());
    }
    let hwm_kib = vm_hwm_kib(pid).map_err(|e| format!("reading server memory: {e}"))?;
    drop(server);
    let _ = std::fs::remove_dir_all(&spill);

    eprintln!("[{:6.1}s] load finished", started.elapsed().as_secs_f64());

    // Correctness gate.
    let mut problems = errors;
    let (table, _) = replay::parse_csv(&inputs.csv_path)?;
    let replay_spill = work.join("replay-spill");
    let _ = std::fs::remove_dir_all(&replay_spill);
    let table = Arc::new(table);
    match &writer {
        None => {
            // Each session is replayed alone, single-threaded; sessions
            // are split over two independent engines to halve the wait.
            let transcripts: Vec<&Transcript> =
                clients.iter().flat_map(|c| c.transcripts.iter()).collect();
            let halves: Vec<Vec<&Transcript>> = (0..REPLAY_ENGINES)
                .map(|k| {
                    transcripts
                        .iter()
                        .skip(k)
                        .step_by(REPLAY_ENGINES)
                        .copied()
                        .collect()
                })
                .collect();
            let found: Vec<Vec<String>> = std::thread::scope(|sc| {
                let handles: Vec<_> = halves
                    .iter()
                    .map(|half| {
                        let table = Arc::clone(&table);
                        sc.spawn(move || {
                            replay::check(&replay::engine(w, TableStore::Whole(table)), half)
                        })
                    })
                    .collect();
                handles
                    .into_iter()
                    .map(|h| h.join().expect("replay thread panicked"))
                    .collect()
            });
            problems.extend(found.into_iter().flatten());
        }
        Some(wr) => {
            let store = replay::build_store(w, Arc::clone(&table), &replay_spill)?;
            let engine = replay::engine(w, store);
            let expected = inputs.rows + wr.accepted.len() * w.writer.map_or(0, |x| x.batch_rows);
            if final_rows != Some(expected) {
                problems.push(format!(
                    "table reports {final_rows:?} rows after the writer stopped, expected {expected}"
                ));
            }
            for &b in &wr.accepted {
                let reply = replay::call(&engine, &inputs.append_lines[b]);
                if !reply.starts_with("{\"ok\":true") {
                    problems.push(format!("replayed append {b} failed: {reply}"));
                }
            }
            problems.extend(replay::check(&engine, &[&final_transcript]));
        }
    }
    let _ = std::fs::remove_dir_all(&replay_spill);

    eprintln!(
        "[{:6.1}s] transcripts replayed",
        started.elapsed().as_secs_f64()
    );

    // Metrics.
    let class_ms = |class: Class| -> Dist {
        Dist::new(
            clients
                .iter()
                .flat_map(|c| c.recs.iter())
                .filter(|r| r.class == class)
                .map(|r| ms(r.latency))
                .collect(),
        )
    };
    let drills = class_ms(Class::Drill);
    let lights = class_ms(Class::Light);
    let appends = Dist::new(
        writer
            .as_ref()
            .map_or(Vec::new(), |wr| wr.latency_ms.clone()),
    );
    let wake_lag = Dist::new(
        clients
            .iter()
            .flat_map(|c| c.wake_lag_ms.iter().copied())
            .collect(),
    );
    let send_lag = Dist::new(writer.as_ref().map_or(Vec::new(), |wr| wr.lag_ms.clone()));
    let attempted: usize = clients.iter().map(|c| c.attempted).sum::<usize>()
        + writer.as_ref().map_or(0, |wr| wr.attempted);
    let failed: usize =
        clients.iter().map(|c| c.failed).sum::<usize>() + writer.as_ref().map_or(0, |wr| wr.failed);
    let completed_in_window = drills.n() + lights.n() + appends.n();
    let tick_ms = |t: u64| t as f64 * 1e3 / clock_ticks_per_sec() as f64;
    let cpu_ms = tick_ms(cpu_ticks_window);
    let setup = Dist::new(setups.clone());

    // Per-verb latency (expand split by depth): the light metric is built
    // from it, and the results file keeps it whole.
    let mut ops: Vec<(Class, &str)> = clients
        .iter()
        .flat_map(|c| c.recs.iter().map(|r| (r.class, r.op.as_str())))
        .collect();
    ops.sort_unstable_by_key(|&(_, op)| op);
    ops.dedup();
    let by_op: Vec<(Class, &str, Dist)> = ops
        .iter()
        .map(|&(class, op)| {
            let d = Dist::new(
                clients
                    .iter()
                    .flat_map(|c| c.recs.iter())
                    .filter(|r| r.op == op)
                    .map(|r| ms(r.latency))
                    .collect(),
            );
            (class, op, d)
        })
        .collect();

    let mut invalid = Vec::new();
    let mut pct = |name: &str, d: &Dist, p: f64| -> (f64, usize) {
        match d.pct(p) {
            Some((v, _)) => (v, d.n()),
            None => {
                invalid.push(format!(
                    "{name}: {} samples leave fewer than 10 beyond the {p} quantile",
                    d.n()
                ));
                (f64::NAN, d.n())
            }
        }
    };
    let drill_p50 = pct("drill_p50_ms", &drills, 0.5);
    let drill_p95 = pct("drill_p95_ms", &drills, 0.95);
    // Each visit sends one `open`, `rules`, `stats` and `close`, and the
    // four verbs take distinct times: a pooled median would fall on the
    // edge between the second and third verb. The geometric mean of the
    // per-verb medians is a typical light request instead, and it moves
    // when any one verb does.
    let light_logs: Vec<f64> = by_op
        .iter()
        .filter(|(class, _, _)| *class == Class::Light)
        .map(|(_, op, d)| pct(&format!("light_p50_ms ({op})"), d, 0.5).0.ln())
        .collect();
    let light_p50 = (
        (light_logs.iter().sum::<f64>() / light_logs.len().max(1) as f64).exp(),
        lights.n(),
    );
    let wake_p95 = pct("gen_lag_ms (think wake-ups)", &wake_lag, 0.95);
    let _append_p50 = writer.as_ref().map(|_| pct("append_p50_ms", &appends, 0.5));
    // The writer sends a few batches a second: check the highest
    // percentile its sample supports when that is below the 95th.
    let send_p = (1.0 - MIN_BEYOND as f64 / send_lag.n().max(1) as f64).min(0.95);
    let send_p95 = writer
        .as_ref()
        .map(|_| pct("gen_lag_ms (writer sends)", &send_lag, send_p));
    for (what, lag) in [
        ("think wake-ups", Some(wake_p95)),
        ("writer sends", send_p95),
    ] {
        if let Some((v, _)) = lag {
            if v > GEN_LAG_BOUND_MS {
                invalid.push(format!(
                    "generator ran late: {what} p95 {v:.3} ms exceeds the {GEN_LAG_BOUND_MS} ms bound"
                ));
            }
        }
    }
    let setup_s = quantile(&setup, 0.5).unwrap_or(f64::NAN);
    let metrics = vec![
        ("setup_s", "s", setup_s, setups.len()),
        ("drill_p50_ms", "ms", drill_p50.0, drill_p50.1),
        ("drill_p95_ms", "ms", drill_p95.0, drill_p95.1),
        ("light_p50_ms", "ms", light_p50.0, light_p50.1),
        (
            "cpu_ms_per_request",
            "ms",
            cpu_ms / completed_in_window.max(1) as f64,
            completed_in_window,
        ),
        ("peak_rss_mib", "MiB", hwm_kib as f64 / 1024.0, 1),
        (
            "ok_ratio",
            "ratio",
            (attempted - failed) as f64 / attempted.max(1) as f64,
            attempted,
        ),
    ];

    let sample = |d: &Dist, p: f64| -> J {
        match d.pct(p) {
            Some((v, beyond)) => J::obj(vec![
                ("value", J::num(v)),
                ("samples", J::num(d.n() as f64)),
                ("beyond", J::num(beyond as f64)),
            ]),
            None => J::obj(vec![("value", J::Null), ("samples", J::num(d.n() as f64))]),
        }
    };
    let by_op: Vec<(&str, J)> = by_op
        .iter()
        .map(|(_, op, d)| {
            (
                *op,
                J::obj(vec![
                    ("p50", sample(d, 0.5)),
                    ("p90", sample(d, 0.9)),
                    ("p95", sample(d, 0.95)),
                ]),
            )
        })
        .collect();
    let detail = J::obj(vec![
        (
            "setup_runs_s",
            J::Arr(setups.iter().map(|&s| J::num(s)).collect()),
        ),
        (
            "setup_quartiles_s",
            J::Arr(
                [0.25, 0.5, 0.75]
                    .iter()
                    .map(|&p| J::opt(quantile(&setup, p)))
                    .collect(),
            ),
        ),
        (
            "drill_ms",
            J::obj(vec![
                ("p50", sample(&drills, 0.5)),
                ("p95", sample(&drills, 0.95)),
                ("p99", sample(&drills, 0.99)),
            ]),
        ),
        (
            "light_ms",
            J::obj(vec![
                ("p50", sample(&lights, 0.5)),
                ("p95", sample(&lights, 0.95)),
            ]),
        ),
        ("by_op_ms", J::obj(by_op)),
        (
            "append_ms",
            if writer.is_some() {
                J::obj(vec![
                    ("p50", sample(&appends, 0.5)),
                    ("p95", sample(&appends, 0.95)),
                ])
            } else {
                J::Null
            },
        ),
        (
            "gen_lag_ms",
            J::obj(vec![
                ("bound_p95", J::num(GEN_LAG_BOUND_MS)),
                (
                    "think_wake",
                    J::obj(vec![
                        ("p50", sample(&wake_lag, 0.5)),
                        ("p95", sample(&wake_lag, 0.95)),
                    ]),
                ),
                (
                    "writer_send",
                    if writer.is_some() {
                        J::obj(vec![
                            ("p50", sample(&send_lag, 0.5)),
                            ("checked_quantile", J::num(send_p)),
                            ("checked", sample(&send_lag, send_p)),
                        ])
                    } else {
                        J::Null
                    },
                ),
            ]),
        ),
        (
            "failed_ratio",
            J::num(failed as f64 / attempted.max(1) as f64),
        ),
        ("server_cpu_ms_window", J::num(cpu_ms)),
        // Host-wide, all CPUs: what else the machine ran during the window.
        (
            "host_idle_ms_window",
            J::opt(host_ticks.map(|(idle, _)| tick_ms(idle))),
        ),
        (
            "host_steal_ms_window",
            J::opt(host_ticks.map(|(_, steal)| tick_ms(steal))),
        ),
        ("requests_in_window", J::num(completed_in_window as f64)),
        (
            "sessions_checked",
            J::num(if writer.is_some() {
                1.0
            } else {
                clients.iter().map(|c| c.transcripts.len()).sum::<usize>() as f64
            }),
        ),
        ("final_rows", J::opt(final_rows.map(|r| r as f64))),
        (
            "appends_accepted",
            J::opt(writer.as_ref().map(|wr| wr.accepted.len() as f64)),
        ),
        (
            "problems",
            J::Arr(
                problems
                    .iter()
                    .take(20)
                    .map(|p| J::str(p.clone()))
                    .collect(),
            ),
        ),
    ]);
    Ok(Outcome {
        correct: problems.is_empty(),
        attempted,
        failed,
        invalid: (!invalid.is_empty()).then(|| invalid.join("; ")),
        metrics,
        detail,
    })
}

/// Linear-interpolation quantile (Python's `statistics.quantiles` "exclusive"
/// method differs only at the ends); used for small repeated-run sets where
/// the 10-beyond rule does not apply.
pub fn quantile(d: &Dist, p: f64) -> Option<f64> {
    let v = d.sorted();
    match v.len() {
        0 => None,
        1 => Some(v[0]),
        n => {
            let pos = p * (n - 1) as f64;
            let lo = pos.floor() as usize;
            let hi = pos.ceil() as usize;
            Some(v[lo] + (v[hi] - v[lo]) * (pos - lo as f64))
        }
    }
}

/// The request's verb, with the depth for `expand` (`expand0` is the root).
fn op_of(line: &str) -> String {
    let op = line
        .strip_prefix("{\"op\":\"")
        .and_then(|r| r.split('"').next())
        .unwrap_or("?");
    if op == "expand" {
        let depth = line.split("\"path\":[").nth(1).map_or(0, |p| {
            p.split(']')
                .next()
                .unwrap_or("")
                .split(',')
                .filter(|x| !x.is_empty())
                .count()
        });
        format!("expand{depth}")
    } else {
        op.to_owned()
    }
}

fn analyst(
    w: &Workload,
    seed: u64,
    client: usize,
    addr: &str,
    inputs: &Inputs,
    t_warm: Instant,
    t_end: Instant,
) -> ClientOut {
    let mut out = ClientOut::default();
    let mut conn = match Conn::connect(addr, w.transport) {
        Ok(c) => c,
        Err(e) => {
            out.errors.push(format!("client {client} connect: {e}"));
            return out;
        }
    };
    let mut plan = Analyst::new(w, seed, client);
    let mut last_reply: Option<Instant> = None;
    while Instant::now() < t_end {
        let visit = plan.next_visit();
        let mut transcript = Transcript::new();
        let res = run_visit(
            &visit,
            &w.open,
            &inputs.columns,
            &mut |line: &str, class| {
                if let (Some(t), true) = (last_reply, thinks_before(line, class)) {
                    let target = t + w.think;
                    sleep_until(target);
                    if target >= t_warm && target < t_end {
                        out.wake_lag_ms
                            .push(ms(Instant::now().saturating_duration_since(target)));
                    }
                }
                let start = Instant::now();
                out.attempted += 1;
                let resp = conn.call(line);
                let done = Instant::now();
                last_reply = Some(done);
                let resp = resp.inspect_err(|_| out.failed += 1)?;
                let reply = parse_reply(&resp);
                if !reply.ok {
                    out.failed += 1;
                }
                if start >= t_warm && start < t_end {
                    out.recs.push(Rec {
                        class,
                        op: op_of(line),
                        latency: done - start,
                    });
                }
                transcript.push((line.to_owned(), resp));
                Ok::<_, std::io::Error>(reply)
            },
        );
        match res {
            Ok(()) => out.transcripts.push(transcript),
            Err(e) => {
                out.errors
                    .push(format!("client {client}, session {}: {e}", visit.session));
                break;
            }
        }
    }
    out
}

/// Runs the workload's priming visits back to back on one connection.
/// They are checked like every other session but never timed.
fn prime(w: &Workload, addr: &str, inputs: &Inputs) -> ClientOut {
    let mut out = ClientOut::default();
    let visits = priming_visits(w);
    if visits.is_empty() {
        return out;
    }
    let mut conn = match Conn::connect(addr, w.transport) {
        Ok(c) => c,
        Err(e) => {
            out.errors.push(format!("priming connect: {e}"));
            return out;
        }
    };
    for visit in visits {
        let mut transcript = Transcript::new();
        let res = run_visit(&visit, &w.open, &inputs.columns, &mut |line: &str, _| {
            out.attempted += 1;
            let resp = conn.call(line).inspect_err(|_| out.failed += 1)?;
            let reply = parse_reply(&resp);
            if !reply.ok {
                out.failed += 1;
            }
            transcript.push((line.to_owned(), resp));
            Ok::<_, std::io::Error>(reply)
        });
        match res {
            Ok(()) => out.transcripts.push(transcript),
            Err(e) => {
                out.errors
                    .push(format!("priming, session {}: {e}", visit.session));
                break;
            }
        }
    }
    out
}

fn writer(
    w: &Workload,
    period: Duration,
    addr: &str,
    inputs: &Inputs,
    t0: Instant,
    t_warm: Instant,
    t_end: Instant,
) -> WriterOut {
    let mut out = WriterOut::default();
    let mut conn = match Conn::connect(addr, w.transport) {
        Ok(c) => c,
        Err(e) => {
            out.errors.push(format!("writer connect: {e}"));
            return out;
        }
    };
    let mut idle_since = t0;
    for (b, line) in inputs.append_lines.iter().enumerate() {
        let due = t0 + period * b as u32;
        if due >= t_end {
            break;
        }
        sleep_until(due);
        let sent = Instant::now();
        out.attempted += 1;
        let resp = conn.call(line);
        let done = Instant::now();
        if due >= t_warm {
            out.latency_ms.push(ms(done - due));
            out.lag_ms
                .push(ms(sent.saturating_duration_since(due.max(idle_since))));
        }
        idle_since = done;
        match resp {
            Ok(r) if r.starts_with("{\"ok\":true,\"op\":\"append\"") => out.accepted.push(b),
            Ok(r) => {
                out.failed += 1;
                out.errors.push(format!("append {b} refused: {r}"));
            }
            Err(e) => {
                out.failed += 1;
                out.errors.push(format!("append {b}: {e}"));
                break;
            }
        }
    }
    out
}
