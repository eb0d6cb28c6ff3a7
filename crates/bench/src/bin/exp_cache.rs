//! Emits `BENCH_cache.json`: effect of the shared cross-session result
//! cache on a Zipf-distributed session mix. Run with:
//!
//! ```sh
//! cargo run --release -p sdd-bench --bin exp_cache
//! ```
//!
//! A population of analyst *profiles* (sampling seed + drill script) is
//! sampled with a Zipf law — the realistic serve-path shape where a few
//! dashboards/questions dominate traffic — and the resulting session
//! sequence is driven over a real TCP server three times: cache disabled
//! (`cache_bytes = 0`), cache at the default budget, and an eviction leg
//! with the budget squeezed to half the resident working set measured on
//! the default leg, so every insert past the squeeze forces a real (LRU)
//! eviction decision. All legs record per-request latency; cached legs
//! additionally report hit/miss/insert/eviction counters.
//!
//! **Bit-parity is asserted at runtime, per session**: the transcript of
//! every session on every cached leg must equal its uncached twin byte
//! for byte, or the bench aborts — cache and eviction may change when
//! work happens, never what is answered.
//!
//! Environment knobs: `SDD_CACHE_SESSIONS` (default 32),
//! `SDD_CACHE_PROFILES` (default 8), `SDD_CACHE_CLIENTS` (concurrent
//! client threads, default 4). `SDD_NO_CACHE=1` turns every cached leg
//! into an uncached run (recorded in the provenance field).

use sdd_server::{Client, EngineConfig, OpenOptions, Request, Server, ServerConfig};
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;

fn env_usize(name: &str, default: usize) -> usize {
    std::env::var(name)
        .ok()
        .and_then(|v| v.parse().ok())
        .filter(|&n| n > 0)
        .unwrap_or(default)
}

fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    let idx = ((sorted.len() - 1) as f64 * p).round() as usize;
    sorted[idx]
}

/// SplitMix64 — deterministic mix generation, independent of process state.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn unit(&mut self) -> f64 {
        (self.next() >> 11) as f64 / (1u64 << 53) as f64
    }
}

const ZIPF_S: f64 = 1.1;

/// Draws `sessions` profile ranks from Zipf(`ZIPF_S`) over `profiles`.
fn zipf_mix(profiles: usize, sessions: usize, rng: &mut Rng) -> Vec<usize> {
    let weights: Vec<f64> = (1..=profiles)
        .map(|r| 1.0 / (r as f64).powf(ZIPF_S))
        .collect();
    let total: f64 = weights.iter().sum();
    (0..sessions)
        .map(|_| {
            let mut u = rng.unit() * total;
            for (rank, w) in weights.iter().enumerate() {
                u -= w;
                if u <= 0.0 {
                    return rank;
                }
            }
            profiles - 1
        })
        .collect()
}

/// One analyst visit for a profile: the drill script depends only on the
/// profile rank, so repeat sessions of a popular profile are exact
/// replicas — the work the cache is built to absorb.
fn script(session: &str, profile: usize) -> Vec<Request> {
    let s = || session.to_owned();
    let mut reqs = vec![
        Request::Open {
            session: s(),
            options: OpenOptions {
                k: Some(3),
                max_weight: Some(3.0),
                weight: Some("size".to_owned()),
                seed: Some(100 + profile as u64),
                capacity: Some(20_000),
                min_ss: Some(1_000),
            },
        },
        Request::Expand {
            session: s(),
            path: vec![],
        },
        // Every profile drills into child 0 — the dominant transition the
        // predictive prefetcher should learn.
        Request::Expand {
            session: s(),
            path: vec![0],
        },
    ];
    if profile % 2 == 1 {
        reqs.push(Request::Expand {
            session: s(),
            path: vec![1],
        });
    }
    reqs.extend([
        Request::Rules { session: s() },
        Request::Stats { session: s() },
        Request::Close { session: s() },
    ]);
    reqs
}

struct LegResult {
    latencies: Vec<f64>,
    wall_s: f64,
    /// session name → response transcript, for cross-leg parity.
    transcripts: BTreeMap<String, Vec<String>>,
    counters: Option<sdd_server::CacheCounters>,
    predict: sdd_server::PredictCounters,
}

/// Runs the whole session mix over a fresh server and returns latencies +
/// per-session transcripts.
fn run_leg(
    table: &Arc<sdd_table::Table>,
    mix: &[usize],
    clients: usize,
    engine: EngineConfig,
) -> LegResult {
    let server = Server::bind(
        table.clone(),
        ServerConfig {
            engine,
            threads: clients + 2,
            ..ServerConfig::default()
        },
        "127.0.0.1:0",
    )
    .expect("bind ephemeral port")
    .spawn()
    .expect("spawn server");
    let addr = server.addr();

    // Deal sessions round-robin to client threads; session names encode
    // (mix index, profile) so both legs produce the same name set.
    let wall = Instant::now();
    let handles: Vec<_> = (0..clients)
        .map(|c| {
            let share: Vec<(usize, usize)> = mix
                .iter()
                .copied()
                .enumerate()
                .filter(|(i, _)| i % clients == c)
                .collect();
            std::thread::spawn(move || {
                let mut client = Client::connect(addr).expect("connect");
                let mut latencies = Vec::new();
                let mut transcripts = BTreeMap::new();
                for (i, profile) in share {
                    let name = format!("mix-{i}-p{profile}");
                    let mut transcript = Vec::new();
                    for req in script(&name, profile) {
                        let t = Instant::now();
                        let line = client
                            .call_line(&req.to_json().to_string())
                            .expect("request");
                        latencies.push(t.elapsed().as_secs_f64());
                        transcript.push(line);
                    }
                    transcripts.insert(name, transcript);
                }
                (latencies, transcripts)
            })
        })
        .collect();
    let mut latencies = Vec::new();
    let mut transcripts = BTreeMap::new();
    for h in handles {
        let (lat, tr) = h.join().expect("bench client");
        latencies.extend(lat);
        transcripts.extend(tr);
    }
    let wall_s = wall.elapsed().as_secs_f64();
    let counters = server.engine().cache_counters();
    let predict = server.engine().predict_counters();
    server.shutdown();
    latencies.sort_by(|a, b| a.total_cmp(b));
    LegResult {
        latencies,
        wall_s,
        transcripts,
        counters,
        predict,
    }
}

fn leg_json(name: &str, leg: &LegResult, cache_bytes: usize) -> String {
    let n = leg.latencies.len();
    let mean = leg.latencies.iter().sum::<f64>() / n as f64;
    let (p50, p95) = (
        percentile(&leg.latencies, 0.50),
        percentile(&leg.latencies, 0.95),
    );
    let cache = match &leg.counters {
        Some(c) => {
            let lookups = c.hits + c.misses;
            let hit_rate = if lookups > 0 {
                c.hits as f64 / lookups as f64
            } else {
                0.0
            };
            format!(
                "{{ \"hits\": {}, \"misses\": {}, \"inserts\": {}, \
                 \"evictions\": {}, \"bytes\": {}, \"hit_rate\": {hit_rate:.3} }}",
                c.hits, c.misses, c.inserts, c.evictions, c.bytes
            )
        }
        None => "null".to_owned(),
    };
    format!(
        "    {{ \"leg\": \"{name}\", \"cache_bytes\": {cache_bytes}, \
         \"requests\": {n}, \"mean_us\": {:.1}, \
         \"p50_us\": {:.1}, \"p95_us\": {:.1}, \"throughput_rps\": {:.1}, \
         \"cache\": {cache} }}",
        mean * 1e6,
        p50 * 1e6,
        p95 * 1e6,
        n as f64 / leg.wall_s,
    )
}

fn main() {
    let sessions = env_usize("SDD_CACHE_SESSIONS", 32);
    let profiles = env_usize("SDD_CACHE_PROFILES", 8);
    let clients = env_usize("SDD_CACHE_CLIENTS", 4);
    let host_threads = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let no_cache_env = std::env::var("SDD_NO_CACHE").unwrap_or_default();

    let table = Arc::new(sdd_datagen::retail(42));
    let mix = zipf_mix(profiles, sessions, &mut Rng(0xCAC4E));
    println!(
        "cache bench on retail ({} rows × {} columns): {sessions} sessions \
         over {profiles} Zipf(s={ZIPF_S}) profiles, {clients} client(s), \
         host parallelism {host_threads}",
        table.n_rows(),
        table.n_columns()
    );

    let cfg = |cache_bytes: usize| EngineConfig {
        cache_bytes,
        ..EngineConfig::default()
    };
    let off = run_leg(&table, &mix, clients, cfg(0));
    let on = run_leg(&table, &mix, clients, cfg(64 << 20));

    // Eviction leg: squeeze the budget to half the resident working set of
    // the default leg, so every insert past the squeeze forces a real
    // eviction decision. One stripe so the whole budget is a single LRU
    // pool (striping affects contention, never results).
    let resident = on.counters.map(|c| c.bytes).unwrap_or(2 << 20);
    let tight = ((resident / 2).max(1)) as usize;
    let lru = run_leg(
        &table,
        &mix,
        clients,
        EngineConfig {
            stripes: 1,
            ..cfg(tight)
        },
    );

    // Runtime bit-parity, per session: neither the cache nor eviction may
    // move a byte.
    for (name, leg) in [("cache-on", &on), ("evict-lru", &lru)] {
        assert_eq!(
            off.transcripts.keys().collect::<Vec<_>>(),
            leg.transcripts.keys().collect::<Vec<_>>(),
            "{name}: served a different session set than cache-off"
        );
        for (session, off_lines) in &off.transcripts {
            assert_eq!(
                off_lines, &leg.transcripts[session],
                "session {session}: {name} transcript differs from uncached"
            );
        }
    }
    println!(
        "  bit-parity: all {} session transcripts identical across 3 legs",
        off.transcripts.len()
    );

    for (name, leg) in [("cache-off", &off), ("cache-on", &on), ("evict-lru", &lru)] {
        let n = leg.latencies.len();
        let mean = leg.latencies.iter().sum::<f64>() / n as f64 * 1e6;
        match &leg.counters {
            Some(c) => println!(
                "  {name:>11}: mean {mean:>7.1} µs | hits {} / lookups {} | evictions {}",
                c.hits,
                c.hits + c.misses,
                c.evictions
            ),
            None => println!("  {name:>11}: mean {mean:>7.1} µs"),
        }
    }
    let p = &on.predict;
    println!(
        "  prediction: {} transitions recorded, {} predictions, {} speculative expansions",
        p.records, p.predictions, p.speculations
    );

    let json = format!(
        concat!(
            "{{\n",
            "  \"benchmark\": \"sdd_server/shared_result_cache_zipf_mix\",\n",
            "  \"dataset\": \"retail (6000 rows x 3 columns)\",\n",
            "  \"session_mix\": {{ \"sessions\": {sessions}, \"profiles\": {profiles}, \"zipf_s\": {zipf} }},\n",
            "  \"clients\": {clients},\n",
            "  \"host_parallelism\": {host},\n",
            "  \"simd\": \"{simd}\",\n",
            "  \"sdd_no_cache_env\": \"{no_cache}\",\n",
            "  \"parity\": \"per-session transcripts byte-identical across legs (asserted at runtime)\",\n",
            "  \"predict\": {{ \"records\": {records}, \"predictions\": {predictions}, \"speculations\": {speculations} }},\n",
            "  \"legs\": [\n{off_leg},\n{on_leg},\n{lru_leg}\n  ]\n",
            "}}\n"
        ),
        sessions = sessions,
        profiles = profiles,
        zipf = ZIPF_S,
        clients = clients,
        host = host_threads,
        simd = sdd_bench::simd_level(),
        no_cache = no_cache_env,
        records = p.records,
        predictions = p.predictions,
        speculations = p.speculations,
        off_leg = leg_json("cache-off", &off, 0),
        on_leg = leg_json("cache-on", &on, 64 << 20),
        lru_leg = leg_json("evict-lru", &lru, tight),
    );
    std::fs::write("BENCH_cache.json", &json).expect("write BENCH_cache.json");
    println!("wrote BENCH_cache.json");
}
