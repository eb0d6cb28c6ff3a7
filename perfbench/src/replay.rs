//! In-process engines over the same inputs the server opens: the reference
//! every served transcript is checked against, and the traced replay's
//! subject.

use crate::spec::Workload;
use sdd_server::{Engine, EngineConfig, TailConfig};
use sdd_table::{LiveTable, LiveTableConfig, Residency, TableStore};
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Parses the CSV exactly as `sdd serve --open` does.
pub fn parse_csv(path: &Path) -> Result<(sdd_table::Table, Duration), String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path:?}: {e}"))?;
    let t = Instant::now();
    let table = sdd_table::csv::read_csv(&text).map_err(|e| e.to_string())?;
    Ok((table, t.elapsed()))
}

/// Builds the store `sdd serve` builds for this workload: the monolithic
/// table, or a live spilling store whose epoch 1 holds every loaded row.
pub fn build_store(
    w: &Workload,
    table: Arc<sdd_table::Table>,
    spill: &Path,
) -> Result<TableStore, String> {
    let Some(live) = w.live else {
        return Ok(TableStore::Whole(table));
    };
    std::fs::create_dir_all(spill).map_err(|e| e.to_string())?;
    let config = LiveTableConfig {
        rows_per_segment: live.rows_per_segment,
        resident: live.resident,
        spill_dir: Some(spill.to_path_buf()),
        residency: Residency::Lru,
    };
    let lt =
        LiveTable::new(table.schema().clone(), Vec::new(), &config).map_err(|e| e.to_string())?;
    let cats: Vec<Vec<&str>> = (0..table.n_rows())
        .map(|r| {
            (0..table.n_columns())
                .map(|c| table.value(r as u32, c))
                .collect()
        })
        .collect();
    let no_measures: Vec<Vec<f64>> = vec![Vec::new(); cats.len()];
    lt.try_append(&cats, &no_measures)
        .map_err(|e| e.to_string())?;
    Ok(TableStore::from(Arc::new(lt)))
}

/// An engine configured like the server's (result cache on, deferred
/// prefetch, appends accepted on live stores).
pub fn engine(w: &Workload, store: TableStore) -> Engine {
    let config = EngineConfig {
        tail: w.live.map(|_| TailConfig::default()),
        ..EngineConfig::default()
    };
    Engine::with_store(store, config)
}

/// One request through the engine, then the prefetch job it left behind,
/// exactly as a server's background worker would run it.
pub fn call(engine: &Engine, line: &str) -> String {
    let (response, hint) = engine.handle_line(line);
    if let Some(session) = hint {
        engine.run_pending_prefetch(&session);
    }
    response
}

/// A request/response exchange of one session.
pub type Transcript = Vec<(String, String)>;

/// Replays each transcript single-threaded and returns a description of
/// every exchange whose response differs from the recorded one.
pub fn check(engine: &Engine, transcripts: &[&Transcript]) -> Vec<String> {
    let mut mismatches = Vec::new();
    for t in transcripts {
        for (line, recorded) in t.iter() {
            let replayed = call(engine, line);
            if &replayed != recorded {
                mismatches.push(format!(
                    "request {line}\n  served:   {}\n  replayed: {}",
                    clip(recorded),
                    clip(&replayed)
                ));
            }
        }
    }
    mismatches
}

fn clip(s: &str) -> &str {
    match s.char_indices().nth(300) {
        Some((i, _)) => &s[..i],
        None => s,
    }
}
