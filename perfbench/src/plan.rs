//! The analyst model: which visits each client makes and which requests a
//! visit sends. One model drives the served run and the traced replay, so
//! both see the same request lines for the same seed.

use crate::spec::{OpenParams, Visits, Workload};
use crate::util::{mix, Rng, Zipf};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Class {
    /// `expand` or `star`.
    Drill,
    /// `open`, `close`, `stats`, `rules`, `table`.
    Light,
    /// The writer's `append`.
    Append,
}

/// The analyst thinks before each action — opening a session, each
/// drill — after looking at the previous reply. The bookkeeping that ends a
/// visit (`rules`, `stats`, `close`) follows without a pause.
pub fn thinks_before(line: &str, class: Class) -> bool {
    class == Class::Drill || line.starts_with("{\"op\":\"open\"")
}

/// One visit: a session opened with a sampling seed, a seeded path.
#[derive(Debug, Clone)]
pub struct VisitSpec {
    pub session: String,
    pub sample_seed: u64,
    pub path_seed: u64,
}

/// What a visit needs to know about a reply: success, and the rule
/// strings of an `expand`/`star` answer in display order.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Reply {
    pub ok: bool,
    pub rules: Vec<String>,
}

/// Reads a protocol response line without the program's JSON parser.
/// Rule strings never contain quotes (`(v3, ?, ...)`), so a field scan is
/// exact.
pub fn parse_reply(line: &str) -> Reply {
    let ok = line.starts_with("{\"ok\":true");
    let mut rules = Vec::new();
    let mut rest = line;
    while let Some(i) = rest.find("\"rule\":\"") {
        let after = &rest[i + 8..];
        let Some(end) = after.find('"') else { break };
        rules.push(after[..end].to_owned());
        rest = &after[end..];
    }
    Reply { ok, rules }
}

/// Defines the profiles of a profile-based workload.
const PROFILE_SEED: u64 = 2016;

/// Yields each client's visits in order.
pub struct Analyst {
    client: usize,
    rng: Rng,
    visits: Visits,
    zipf: Option<Zipf>,
    n: usize,
}

impl Analyst {
    pub fn new(w: &Workload, seed: u64, client: usize) -> Self {
        let zipf = match w.visits {
            Visits::Profiles { profiles, s } => Some(Zipf::new(profiles, s)),
            Visits::Fresh => None,
        };
        Analyst {
            client,
            rng: Rng::new(mix(seed, 0xC11E_0000 + client as u64)),
            visits: w.visits,
            zipf,
            n: 0,
        }
    }

    pub fn next_visit(&mut self) -> VisitSpec {
        let session = format!("c{}v{}", self.client, self.n);
        self.n += 1;
        match (&self.visits, &self.zipf) {
            // The profiles themselves are part of the workload, like the
            // table: the seed decides which profile each visit replays.
            (Visits::Profiles { .. }, Some(z)) => {
                profile_visit(session, z.sample(&mut self.rng) as u64)
            }
            _ => VisitSpec {
                session,
                sample_seed: self.rng.next_u64(),
                path_seed: self.rng.next_u64(),
            },
        }
    }
}

fn profile_visit(session: String, p: u64) -> VisitSpec {
    VisitSpec {
        session,
        sample_seed: mix(PROFILE_SEED, 0x5EED_0000 + p),
        path_seed: mix(PROFILE_SEED, 0xA7A7_0000 + p),
    }
}

/// Visits that fill the result cache before anything is timed: every
/// profile of a profile workload once, in order (none for fresh visits).
/// Without them the first visit of each path is a miss inside the window,
/// and those misses are about one drill in twenty: the 95th percentile
/// would sit on the edge between misses and hits.
pub fn priming_visits(w: &Workload) -> Vec<VisitSpec> {
    match w.visits {
        Visits::Profiles { profiles, .. } => (0..profiles as u64)
            .map(|p| profile_visit(format!("prime{p}"), p))
            .collect(),
        Visits::Fresh => Vec::new(),
    }
}

/// The visit after the writer stops in the live workload.
pub fn final_visit(seed: u64) -> VisitSpec {
    VisitSpec {
        session: "final".to_owned(),
        sample_seed: mix(seed, 0xF1A1),
        path_seed: mix(seed, 0xF1A2),
    }
}

pub fn open_line(v: &VisitSpec, o: &OpenParams) -> String {
    format!(
        "{{\"op\":\"open\",\"session\":\"{}\",\"k\":{},\"seed\":\"{}\",\"capacity\":{},\"min_ss\":{}}}",
        v.session, o.k, v.sample_seed, o.capacity, o.min_ss
    )
}

fn path_json(path: &[usize]) -> String {
    let items: Vec<String> = path.iter().map(usize::to_string).collect();
    format!("[{}]", items.join(","))
}

/// Runs one visit: open, drill root → child → grandchild, a star drill on
/// about half of visits, then `rules`, `stats`, `close`. `call` sends one
/// request line and returns its reply; an `Err` aborts the visit.
pub fn run_visit<E>(
    v: &VisitSpec,
    open: &OpenParams,
    columns: &[String],
    call: &mut impl FnMut(&str, Class) -> Result<Reply, E>,
) -> Result<(), E> {
    let s = &v.session;
    let mut rng = Rng::new(v.path_seed);
    if !call(&open_line(v, open), Class::Light)?.ok {
        return Ok(());
    }
    let mut path: Vec<usize> = Vec::new();
    let mut shown: Option<String> = None;
    for _ in 0..3 {
        let line = format!(
            "{{\"op\":\"expand\",\"session\":\"{s}\",\"path\":{}}}",
            path_json(&path)
        );
        let reply = call(&line, Class::Drill)?;
        if !reply.ok || reply.rules.is_empty() {
            break;
        }
        let i = rng.below(reply.rules.len());
        path.push(i);
        shown = Some(reply.rules[i].clone());
    }
    // `path` now ends one level below the deepest expansion; star the rule
    // shown there on one of its `?` columns.
    if let (true, Some(rule)) = (rng.unit() < 0.5, shown) {
        let values: Vec<&str> = rule
            .trim_start_matches('(')
            .trim_end_matches(')')
            .split(", ")
            .collect();
        let open_cols: Vec<usize> = (0..values.len()).filter(|&c| values[c] == "?").collect();
        if values.len() == columns.len() && !open_cols.is_empty() {
            let col = open_cols[rng.below(open_cols.len())];
            let line = format!(
                "{{\"op\":\"star\",\"session\":\"{s}\",\"path\":{},\"column\":\"{}\"}}",
                path_json(&path),
                columns[col]
            );
            call(&line, Class::Drill)?;
        }
    }
    for op in ["rules", "stats", "close"] {
        call(
            &format!("{{\"op\":\"{op}\",\"session\":\"{s}\"}}"),
            Class::Light,
        )?;
    }
    Ok(())
}
