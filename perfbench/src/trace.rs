//! The traced run: the workload's seeded request stream replayed
//! single-threaded in-process, with spans around the calls into each
//! layer's public functions, recorded from this file only.
//!
//! Three passes over one stream:
//!
//! 1. **Layer pass** — generates the stream (the same analyst model the
//!    served run uses) while replaying every drill's base rule through the
//!    sampling handler, the BRS search and, on the live workload, the live
//!    table's append and incremental sync, with the session's config.
//! 2. **Engine pass** — replays the stream through two fresh engines, in
//!    short chunks taken in ABBA order: one bare (`Engine::handle_line`
//!    plus the worker's `run_pending_prefetch`), one with spans around
//!    protocol parse, `Engine::handle`, serialization and prefetch and
//!    counters read at the same boundaries. Their bytes must match; the
//!    median chunk's time ratio is the tracing overhead.
//! 3. **Served pass** — replays the stream through a spawned `sdd serve`
//!    on one connection, so client-observed time minus the engine span
//!    gives the transport overhead per verb class.

use crate::plan::{parse_reply, priming_visits, run_visit, Analyst, Class, Reply};
use crate::replay;
use crate::serve::Served;
use crate::spec::{self, Workload};
use crate::util::{ms, us, Dist, J};
use crate::wire::Conn;
use sdd_core::{drill_down_with, star_drill_down_with, Brs, Rule, SizeWeight};
use sdd_explorer::ClickModel;
use sdd_sampling::{
    FetchMechanism, PrefetchEntry, PrefetchJob, SampleHandler, SampleHandlerConfig,
};
use sdd_server::protocol::{parse_request_line, Response};
use sdd_server::Engine;
use sdd_table::TableStore;
use std::collections::HashMap;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The stream is long enough for a supported 95th percentile of drills.
const MIN_DRILLS: usize = 220;

/// Requests per chunk of the engine pass.
const CHUNK: usize = 16;

pub struct Outcome {
    pub correct: bool,
    pub attempted: usize,
    pub failed: usize,
    pub metrics: Vec<(&'static str, &'static str, f64, usize)>,
    pub detail: J,
}

/// One recorded span. Spans of one request share `req`; `parent` indexes
/// the enclosing span.
struct Span {
    name: &'static str,
    req: usize,
    parent: Option<usize>,
    start: Duration,
    end: Duration,
}

/// Spans kept in memory and written out when the run ends.
struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    fn begin(&mut self, name: &'static str, req: usize, parent: Option<usize>) -> usize {
        let start = self.origin.elapsed();
        self.spans.push(Span {
            name,
            req,
            parent,
            start,
            end: start,
        });
        self.spans.len() - 1
    }

    fn end(&mut self, span: usize) -> Duration {
        let s = &mut self.spans[span];
        s.end = self.origin.elapsed();
        s.end - s.start
    }

    /// Total self time (duration minus the time children cover) per name.
    fn self_times(&self) -> Vec<(&'static str, Duration, usize)> {
        let mut child_time = vec![Duration::ZERO; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_time[p] += s.end - s.start;
            }
        }
        let mut by_name: Vec<(&'static str, Duration, usize)> = Vec::new();
        for (i, s) in self.spans.iter().enumerate() {
            let own = (s.end - s.start).saturating_sub(child_time[i]);
            match by_name.iter_mut().find(|(n, _, _)| *n == s.name) {
                Some(e) => {
                    e.1 += own;
                    e.2 += 1;
                }
                None => by_name.push((s.name, own, 1)),
            }
        }
        by_name
    }

    fn write(&self, path: &Path) -> std::io::Result<()> {
        let mut out = String::new();
        for (i, s) in self.spans.iter().enumerate() {
            out.push_str(&format!(
                "{{\"id\":{i},\"name\":\"{}\",\"req\":{},\"parent\":{},\"start_ns\":{},\"end_ns\":{}}}\n",
                s.name,
                s.req,
                s.parent.map_or("null".to_owned(), |p| p.to_string()),
                s.start.as_nanos(),
                s.end.as_nanos()
            ));
        }
        std::fs::write(path, out)
    }
}

/// One request of the stream, with what the layer pass saw of it.
struct Item {
    line: String,
    class: Class,
    /// Rule strings the layer pass displayed (drills only).
    rules: Vec<String>,
}

/// What the layer pass measured for one drill.
#[derive(Default, Clone, Copy)]
struct LayerDrill {
    sync: Duration,
    get_sample: Duration,
    brs: Duration,
}

struct LNode {
    rule: Rule,
    count: f64,
    children: Vec<LNode>,
}

/// A session as the layers see it: the handler, the click model and the
/// displayed tree, kept exactly as the explorer keeps them.
struct LayerSession {
    handler: SampleHandler,
    click: ClickModel,
    root: LNode,
}

fn node_mut<'a>(root: &'a mut LNode, path: &[usize]) -> Option<&'a mut LNode> {
    let mut cur = root;
    for &i in path {
        cur = cur.children.get_mut(i)?;
    }
    Some(cur)
}

/// Minimal field readers for the request lines this harness writes.
fn field<'a>(line: &'a str, key: &str) -> Option<&'a str> {
    let pat = format!("\"{key}\":");
    let rest = &line[line.find(&pat)? + pat.len()..];
    if let Some(s) = rest.strip_prefix('"') {
        s.split('"').next()
    } else if rest.starts_with('[') {
        rest.split(']').next().map(|s| &s[1..])
    } else {
        rest.split([',', '}']).next()
    }
}

fn path_of(line: &str) -> Vec<usize> {
    field(line, "path")
        .unwrap_or("")
        .split(',')
        .filter_map(|p| p.parse().ok())
        .collect()
}

struct LayerStats {
    drills: HashMap<usize, LayerDrill>,
    mech: Vec<(FetchMechanism, f64)>,
    brs_ms: Vec<f64>,
    counted: usize,
    pruned: usize,
    generated: usize,
    sync_ms: Vec<f64>,
    append_ms: Vec<f64>,
    jobs: usize,
}

/// Pass 1: generate the stream and replay each drill through the layers.
fn layer_pass(
    w: &Workload,
    seed: u64,
    inputs: &spec::Inputs,
    store: &TableStore,
    budget: Duration,
    tracer: &mut Tracer,
) -> Result<(Vec<Item>, LayerStats), String> {
    let mut items: Vec<Item> = Vec::new();
    let mut st = LayerStats {
        drills: HashMap::new(),
        mech: Vec::new(),
        brs_ms: Vec::new(),
        counted: 0,
        pruned: 0,
        generated: 0,
        sync_ms: Vec::new(),
        append_ms: Vec::new(),
        jobs: 0,
    };
    let mut sessions: HashMap<String, LayerSession> = HashMap::new();
    let mut planners: Vec<Analyst> = (0..w.analysts).map(|c| Analyst::new(w, seed, c)).collect();
    let live = store.as_live().map(|l| Arc::clone(l.live()));
    let mut next_batch = 0;
    let mut since_append = 0;
    let weight = SizeWeight;
    let started = Instant::now();
    let mut error: Option<String> = None;
    // The priming visits first, then the analysts' visits in turn.
    let mut priming = priming_visits(w).into_iter();
    let mut turn = 0;
    loop {
        let visit = match priming.next() {
            Some(v) => v,
            None => {
                if started.elapsed() >= budget
                    && st.brs_ms.len() >= MIN_DRILLS
                    && st.jobs >= MIN_DRILLS
                {
                    break;
                }
                let client = turn % w.analysts;
                turn += 1;
                planners[client].next_visit()
            }
        };
        let mut call = |line: &str, class: Class| -> Result<Reply, String> {
            let req = items.len();
            let op = field(line, "op").unwrap_or("");
            let name = field(line, "session").map(str::to_owned);
            let mut reply = Reply {
                ok: true,
                rules: Vec::new(),
            };
            let root = tracer.begin(
                if class == Class::Drill {
                    "layer.drill"
                } else {
                    "layer.request"
                },
                req,
                None,
            );
            let mut drill = LayerDrill::default();
            if op == "open" {
                let config = SampleHandlerConfig {
                    capacity: w.open.capacity,
                    min_sample_size: w.open.min_ss,
                    seed: field(line, "seed")
                        .and_then(|s| s.parse().ok())
                        .unwrap_or_default(),
                    ..SampleHandlerConfig::default()
                };
                let handler = SampleHandler::with_store(store.clone(), config);
                let n = store.n_rows() as f64;
                sessions.insert(
                    name.clone().unwrap_or_default(),
                    LayerSession {
                        handler,
                        click: ClickModel::new(store.n_columns(), 1.0),
                        root: LNode {
                            rule: Rule::trivial(store.n_columns()),
                            count: n,
                            children: Vec::new(),
                        },
                    },
                );
            } else if op == "close" {
                sessions.remove(name.as_deref().unwrap_or(""));
            } else if let Some(s) = name.as_deref().and_then(|n| sessions.get_mut(n)) {
                // The operation prologue: advance to the newest epoch.
                if let Some(lt) = &live {
                    if s.handler.pinned_epoch() < lt.epoch() {
                        let snap = lt.snapshot();
                        let span = tracer.begin("sampling.sync", req, Some(root));
                        s.handler
                            .try_sync_to_snapshot(&snap)
                            .map_err(|e| e.to_string())?;
                        drill.sync = tracer.end(span);
                        st.sync_ms.push(ms(drill.sync));
                        s.root.count = snap.table.n_rows() as f64;
                    }
                }
                if class == Class::Drill {
                    let path = path_of(line);
                    let star = field(line, "column")
                        .map(|c| {
                            s.handler
                                .table()
                                .schema()
                                .index_of(c)
                                .map_err(|e| e.to_string())
                        })
                        .transpose()?;
                    let node = node_mut(&mut s.root, &path).ok_or("drill at a missing path")?;
                    let base = node.rule.clone();
                    let base_count = node.count;
                    if !base.is_trivial() {
                        s.click.record(&base);
                    }
                    let span = tracer.begin("sampling.get_sample", req, Some(root));
                    let sample = s.handler.try_get_sample(&base).map_err(|e| e.to_string())?;
                    drill.get_sample = tracer.end(span);
                    st.mech.push((sample.mechanism, ms(drill.get_sample)));
                    let view = sample.view.as_view();
                    let brs = Brs::new(&weight);
                    let span = tracer.begin("brs.search", req, Some(root));
                    let result = match star {
                        None => drill_down_with(&brs, &view, &base, w.open.k),
                        Some(c) => star_drill_down_with(&brs, &view, &base, c, w.open.k),
                    };
                    drill.brs = tracer.end(span);
                    st.brs_ms.push(ms(drill.brs));
                    st.counted += result.stats.counted;
                    st.pruned += result.stats.pruned;
                    st.generated += result.stats.generated;
                    let header = s.handler.table().clone();
                    reply.rules = result
                        .rules
                        .iter()
                        .map(|r| r.rule.display(&header))
                        .collect();
                    let children: Vec<LNode> = result
                        .rules
                        .iter()
                        .map(|r| LNode {
                            rule: r.rule.clone(),
                            count: r.count,
                            children: Vec::new(),
                        })
                        .collect();
                    if !children.is_empty() {
                        let rules: Vec<Rule> = children.iter().map(|c| c.rule.clone()).collect();
                        let probs = s.click.probabilities(&rules);
                        let job = PrefetchJob {
                            parent: base,
                            entries: children
                                .iter()
                                .zip(probs)
                                .map(|(c, probability)| PrefetchEntry {
                                    rule: c.rule.clone(),
                                    probability,
                                    selectivity: (c.count / base_count.max(1.0)).clamp(0.0, 1.0),
                                })
                                .collect(),
                        };
                        let span = tracer.begin("sampling.prefetch", req, Some(root));
                        s.handler
                            .try_run_prefetch_job(&job)
                            .map_err(|e| e.to_string())?;
                        tracer.end(span);
                        st.jobs += 1;
                    }
                    node_mut(&mut s.root, &path)
                        .ok_or("drill at a missing path")?
                        .children = children;
                    st.drills.insert(req, drill);
                }
            }
            tracer.end(root);
            items.push(Item {
                line: line.to_owned(),
                class,
                rules: reply.rules.clone(),
            });
            // The writer's batches land between analyst requests.
            if let (Some(lt), Some(wr)) = (&live, w.writer) {
                since_append += 1;
                if since_append >= wr.replay_every && next_batch < inputs.append_rows.len() {
                    since_append = 0;
                    let req = items.len();
                    let span = tracer.begin("table.append", req, None);
                    let rows = &inputs.append_rows[next_batch];
                    lt.try_append(rows, &vec![Vec::new(); rows.len()])
                        .map_err(|e| e.to_string())?;
                    st.append_ms.push(ms(tracer.end(span)));
                    items.push(Item {
                        line: inputs.append_lines[next_batch].clone(),
                        class: Class::Append,
                        rules: Vec::new(),
                    });
                    next_batch += 1;
                }
            }
            Ok(reply)
        };
        if let Err(e) = run_visit(&visit, &w.open, &inputs.columns, &mut call) {
            error = Some(e);
            break;
        }
    }
    match error {
        Some(e) => Err(format!("layer pass: {e}")),
        None => Ok((items, st)),
    }
}

/// Boundary counters of the traced engine.
#[derive(Default, Clone, Copy)]
struct Counters {
    hits: u64,
    misses: u64,
    evictions: u64,
    speculations: u64,
    loads: u64,
    seg_evictions: u64,
}

fn counters(e: &Engine) -> Counters {
    let cache = e.cache_counters().unwrap_or_default();
    let storage = e.storage_counters().unwrap_or_default();
    Counters {
        hits: cache.hits,
        misses: cache.misses,
        evictions: cache.evictions,
        speculations: e.predict_counters().speculations,
        loads: storage.0,
        seg_evictions: storage.1,
    }
}

/// What the traced engine measured for one request.
#[derive(Default, Clone)]
struct EngineReq {
    parse: Duration,
    handle: Duration,
    serialize: Duration,
    prefetch: Option<Duration>,
    hit: bool,
    response: String,
}

/// One request through the traced engine: spans around protocol parse,
/// `Engine::handle`, serialization and the worker's prefetch, counters
/// read before and after.
fn traced_request(engine: &Engine, line: &str, i: usize, tracer: &mut Tracer) -> EngineReq {
    let mut er = EngineReq::default();
    let root = tracer.begin("request", i, None);
    let c0 = counters(engine);
    let span = tracer.begin("transport.parse", i, Some(root));
    let parsed = parse_request_line(line);
    er.parse = tracer.end(span);
    let span = tracer.begin("engine.handle", i, Some(root));
    let (response, hint) = match &parsed {
        Ok(req) => engine.handle(req),
        Err(e) => (Response::error(e), None),
    };
    er.handle = tracer.end(span);
    let span = tracer.begin("transport.serialize", i, Some(root));
    er.response = response.to_json().to_string();
    er.serialize = tracer.end(span);
    if let Some(session) = hint {
        let span = tracer.begin("engine.prefetch", i, Some(root));
        engine.run_pending_prefetch(&session);
        er.prefetch = Some(tracer.end(span));
    }
    er.hit = counters(engine).hits > c0.hits;
    tracer.end(root);
    er
}

pub fn run(
    w: &Workload,
    seed: u64,
    measured: Duration,
    sdd: &Path,
    work: &Path,
) -> Result<Outcome, String> {
    let inputs = spec::generate(w, measured).map_err(|e| format!("generating inputs: {e}"))?;
    let mut tracer = Tracer {
        origin: Instant::now(),
        spans: Vec::new(),
    };

    // Ingest: the parse and the store build `sdd serve` performs.
    let span = tracer.begin("ingest.parse", 0, None);
    let (table, _) = replay::parse_csv(&inputs.csv_path)?;
    let parse = tracer.end(span);
    let table = Arc::new(table);
    let mut builds = Vec::new();
    let mut stores = Vec::new();
    for side in ["layer", "bare", "traced"] {
        let span = tracer.begin("ingest.build", 0, None);
        stores.push(replay::build_store(
            w,
            Arc::clone(&table),
            &work.join(format!("spill-{side}")),
        )?);
        builds.push(tracer.end(span).as_secs_f64());
    }
    let traced_store = stores.pop().expect("three stores");
    let bare_store = stores.pop().expect("three stores");
    let layer_store = stores.pop().expect("three stores");

    // Pass 1.
    let (items, layer) = layer_pass(w, seed, &inputs, &layer_store, measured / 2, &mut tracer)?;
    drop(layer_store);

    // Pass 2, in chunks run in ABBA order: drift cancels out, and neither
    // engine's working set is flushed by the other's on every request.
    let bare = replay::engine(w, bare_store);
    let traced = replay::engine(w, traced_store);
    let mut problems: Vec<String> = Vec::new();
    let mut reqs: Vec<EngineReq> = vec![EngineReq::default(); items.len()];
    let mut bare_responses: Vec<String> = vec![String::new(); items.len()];
    let (mut bare_time, mut traced_time) = (Duration::ZERO, Duration::ZERO);
    // Traced over bare time of each chunk, minus one.
    let mut chunk_overhead: Vec<f64> = Vec::new();
    let c_start = counters(&traced);
    let order: Vec<usize> = (0..items.len()).collect();
    for (k, chunk) in order.chunks(CHUNK).enumerate() {
        let (mut bare_chunk, mut traced_chunk) = (Duration::ZERO, Duration::ZERO);
        let sides = if k % 2 == 0 {
            [false, true]
        } else {
            [true, false]
        };
        for traced_side in sides {
            for &i in chunk {
                let t = Instant::now();
                if traced_side {
                    reqs[i] = traced_request(&traced, &items[i].line, i, &mut tracer);
                    traced_chunk += t.elapsed();
                } else {
                    bare_responses[i] = replay::call(&bare, &items[i].line);
                    bare_chunk += t.elapsed();
                }
            }
        }
        chunk_overhead.push(traced_chunk.as_secs_f64() / bare_chunk.as_secs_f64() - 1.0);
        bare_time += bare_chunk;
        traced_time += traced_chunk;
    }
    let mut full_scans = 0u64;
    let mut failed = 0usize;
    for (i, (item, er)) in items.iter().zip(&reqs).enumerate() {
        if bare_responses[i] != er.response {
            problems.push(format!(
                "bare and traced engines differ on request {i}: {}",
                item.line
            ));
        }
        let reply = parse_reply(&er.response);
        if !reply.ok {
            failed += 1;
            problems.push(format!("request {i} failed: {}", er.response));
        }
        if item.class == Class::Drill && reply.rules != item.rules {
            problems.push(format!(
                "layer replay displayed {:?}, the engine {:?} for {}",
                item.rules, reply.rules, item.line
            ));
        }
        if let Some(n) = field(&er.response, "full_scans").and_then(|v| v.parse::<u64>().ok()) {
            full_scans += n;
        }
    }
    let c_end = counters(&traced);
    drop(bare);
    drop(traced);

    // Pass 3.
    let spill = work.join("spill-served");
    std::fs::create_dir_all(&spill).map_err(|e| e.to_string())?;
    let (server, _) = Served::start(
        sdd,
        &inputs.csv_path,
        &w.serve_flags(&spill),
        w.transport,
        &work.join("serve.log"),
    )
    .map_err(|e| format!("starting sdd serve: {e}"))?;
    let mut conn = Conn::connect(server.addr(), w.transport).map_err(|e| e.to_string())?;
    let mut overhead: [Vec<f64>; 2] = [Vec::new(), Vec::new()];
    let mut pause = Duration::ZERO;
    for (i, item) in items.iter().enumerate() {
        std::thread::sleep(pause);
        let t = Instant::now();
        let response = conn
            .call(&item.line)
            .map_err(|e| format!("served pass: {e}"))?;
        let client = t.elapsed();
        if response != reqs[i].response {
            problems.push(format!(
                "served and in-process replies differ on request {i}: {}",
                item.line
            ));
        }
        match item.class {
            Class::Drill => overhead[0].push(ms(client) - ms(reqs[i].handle)),
            Class::Light => overhead[1].push(ms(client) - ms(reqs[i].handle)),
            Class::Append => {}
        }
        // Leave the server's worker time to finish the prefetch this
        // request scheduled, so the next request's time is not the drain
        // of that job.
        pause = reqs[i]
            .prefetch
            .map_or(Duration::ZERO, |p| p * 2 + Duration::from_millis(1));
    }
    drop(conn);
    drop(server);

    // Metrics.
    let class_of = |c: Class| {
        items
            .iter()
            .enumerate()
            .filter(move |(_, it)| it.class == c)
            .map(|(i, _)| i)
    };
    let drills: Vec<usize> = class_of(Class::Drill).collect();
    let lights: Vec<usize> = class_of(Class::Light).collect();
    let n_drills = drills.len();
    let engine_drill = Dist::new(drills.iter().map(|&i| ms(reqs[i].handle)).collect());
    let engine_light = Dist::new(lights.iter().map(|&i| us(reqs[i].handle)).collect());
    let unattributed = Dist::new(
        drills
            .iter()
            .filter_map(|&i| {
                let l = layer.drills.get(&i)?;
                let search = if reqs[i].hit { Duration::ZERO } else { l.brs };
                Some(ms(reqs[i].handle) - ms(l.sync + l.get_sample + search))
            })
            .collect(),
    );
    let parse_us = Dist::new(reqs.iter().map(|r| us(r.parse)).collect());
    let serialize_us = Dist::new(reqs.iter().map(|r| us(r.serialize)).collect());
    let prefetch = Dist::new(reqs.iter().filter_map(|r| r.prefetch.map(ms)).collect());
    let mech = |m: FetchMechanism| {
        Dist::new(
            layer
                .mech
                .iter()
                .filter(|(k, _)| *k == m)
                .map(|(_, v)| *v)
                .collect(),
        )
    };
    let (finds, combines, creates) = (
        mech(FetchMechanism::Find),
        mech(FetchMechanism::Combine),
        mech(FetchMechanism::Create),
    );
    let brs = Dist::new(layer.brs_ms.clone());
    let sync = Dist::new(layer.sync_ms.clone());
    let append = Dist::new(layer.append_ms.clone());
    let lookups = (c_end.hits - c_start.hits) + (c_end.misses - c_start.misses);
    let per_drill = |v: f64| v / n_drills.max(1) as f64;
    let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
    // The median chunk is robust to the host stalling one side of a pair.
    let overhead_ratio =
        crate::e2e::quantile(&Dist::new(chunk_overhead.clone()), 0.5).unwrap_or(0.0);

    let mut refused = Vec::new();
    let mut pct = |name: &'static str, d: &Dist, p: f64| -> f64 {
        d.pct(p).map_or_else(
            || {
                refused.push(name);
                f64::NAN
            },
            |(v, _)| v,
        )
    };
    let mean = |d: &Dist| d.mean().unwrap_or(0.0);
    let metrics: Vec<(&'static str, &'static str, f64, usize)> = vec![
        (
            "transport.parse_us",
            "us",
            pct("transport.parse_us", &parse_us, 0.5),
            parse_us.n(),
        ),
        (
            "transport.serialize_us",
            "us",
            pct("transport.serialize_us", &serialize_us, 0.5),
            serialize_us.n(),
        ),
        (
            "transport.overhead_ms.drill",
            "ms",
            pct(
                "transport.overhead_ms.drill",
                &Dist::new(overhead[0].clone()),
                0.5,
            ),
            overhead[0].len(),
        ),
        (
            "transport.overhead_ms.light",
            "ms",
            pct(
                "transport.overhead_ms.light",
                &Dist::new(overhead[1].clone()),
                0.5,
            ),
            overhead[1].len(),
        ),
        (
            "engine.drill_ms.p50",
            "ms",
            pct("engine.drill_ms.p50", &engine_drill, 0.5),
            n_drills,
        ),
        (
            "engine.drill_ms.p95",
            "ms",
            pct("engine.drill_ms.p95", &engine_drill, 0.95),
            n_drills,
        ),
        (
            "engine.light_us.p50",
            "us",
            pct("engine.light_us.p50", &engine_light, 0.5),
            engine_light.n(),
        ),
        (
            "engine.unattributed_ms.p50",
            "ms",
            pct("engine.unattributed_ms.p50", &unattributed, 0.5),
            unattributed.n(),
        ),
        ("engine.requests", "count", items.len() as f64, items.len()),
        ("engine.drills", "count", n_drills as f64, n_drills),
        (
            "cache.hit_ratio",
            "ratio",
            ratio((c_end.hits - c_start.hits) as f64, lookups as f64),
            lookups as usize,
        ),
        ("cache.lookups", "count", lookups as f64, lookups as usize),
        (
            "cache.evictions",
            "count",
            (c_end.evictions - c_start.evictions) as f64,
            lookups as usize,
        ),
        (
            "predict.speculations",
            "count",
            (c_end.speculations - c_start.speculations) as f64,
            prefetch.n(),
        ),
        (
            "prefetch.ms.p50",
            "ms",
            pct("prefetch.ms.p50", &prefetch, 0.5),
            prefetch.n(),
        ),
        (
            "prefetch.ms.p95",
            "ms",
            pct("prefetch.ms.p95", &prefetch, 0.95),
            prefetch.n(),
        ),
        ("prefetch.runs", "count", prefetch.n() as f64, prefetch.n()),
        ("sampling.get_sample_ms.find", "ms", mean(&finds), finds.n()),
        (
            "sampling.get_sample_ms.combine",
            "ms",
            mean(&combines),
            combines.n(),
        ),
        (
            "sampling.get_sample_ms.create",
            "ms",
            mean(&creates),
            creates.n(),
        ),
        ("sampling.finds", "count", finds.n() as f64, n_drills),
        ("sampling.combines", "count", combines.n() as f64, n_drills),
        ("sampling.creates", "count", creates.n() as f64, n_drills),
        (
            "sampling.served_from_memory_ratio",
            "ratio",
            ratio((finds.n() + combines.n()) as f64, layer.mech.len() as f64),
            layer.mech.len(),
        ),
        (
            "sampling.full_scans_per_drill",
            "scans/drill",
            per_drill(full_scans as f64),
            n_drills,
        ),
        ("sampling.sync_ms", "ms", mean(&sync), sync.n()),
        ("sampling.syncs", "count", sync.n() as f64, sync.n()),
        ("brs.ms", "ms", pct("brs.ms", &brs, 0.5), brs.n()),
        (
            "brs.counted_per_drill",
            "count/drill",
            ratio(layer.counted as f64, brs.n() as f64),
            brs.n(),
        ),
        (
            "brs.pruned_ratio",
            "ratio",
            ratio(layer.pruned as f64, layer.generated as f64),
            layer.generated,
        ),
        ("brs.generated", "count", layer.generated as f64, brs.n()),
        (
            "table.segment_loads_per_drill",
            "loads/drill",
            per_drill((c_end.loads - c_start.loads) as f64),
            n_drills,
        ),
        (
            "table.segment_evictions_per_drill",
            "evictions/drill",
            per_drill((c_end.seg_evictions - c_start.seg_evictions) as f64),
            n_drills,
        ),
        ("table.append_ms", "ms", mean(&append), append.n()),
        ("table.appends", "count", append.n() as f64, append.n()),
        ("ingest.parse_s", "s", parse.as_secs_f64(), 1),
        (
            "ingest.build_s",
            "s",
            crate::e2e::quantile(&Dist::new(builds.clone()), 0.5).unwrap_or(0.0),
            builds.len(),
        ),
        (
            "trace.overhead_ratio",
            "ratio",
            overhead_ratio,
            chunk_overhead.len(),
        ),
        (
            "trace.spans",
            "count",
            tracer.spans.len() as f64,
            items.len(),
        ),
    ];
    for name in refused {
        problems.push(format!(
            "{name}: too few samples for a percentile with 10 beyond it"
        ));
    }

    let spans_path = Path::new("perfbench/results")
        .join(w.name)
        .join(format!("seed{seed}-spans.jsonl"));
    if let Some(dir) = spans_path.parent() {
        let _ = std::fs::create_dir_all(dir);
    }
    if let Err(e) = tracer.write(&spans_path) {
        eprintln!("cannot write {spans_path:?}: {e}");
    }
    let self_times = J::Obj(
        tracer
            .self_times()
            .into_iter()
            .map(|(name, total, n)| {
                (
                    name.to_owned(),
                    J::obj(vec![
                        ("self_ms_total", J::num(ms(total))),
                        ("spans", J::num(n as f64)),
                    ]),
                )
            })
            .collect(),
    );
    let detail = J::obj(vec![
        ("stream_requests", J::num(items.len() as f64)),
        ("bare_engine_s", J::num(bare_time.as_secs_f64())),
        ("traced_engine_s", J::num(traced_time.as_secs_f64())),
        (
            "trace_overhead_of_sums",
            J::num(traced_time.as_secs_f64() / bare_time.as_secs_f64() - 1.0),
        ),
        ("self_time_by_span", self_times),
        ("spans_file", J::str(spans_path.display().to_string())),
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
        attempted: items.len(),
        failed,
        metrics,
        detail,
    })
}
