//! Sharded coverage and count scans over [`ShardedTable`] storage (see
//! `sdd_table::shard` for the substrate).
//!
//! BRS itself always runs on an in-memory sample (paper §4); the full-table
//! scans that feed the sample store and the explorer's exact-count refresh
//! are the only drill-down work that touches segmented storage. Each scan
//! here is a **bit-compatible twin** of its monolithic counterpart:
//!
//! * [`try_covered_rows_sharded`] ⇔ [`crate::covered_rows`] (the sampling
//!   layer's Create and prefetch scans), plus the ranged form
//!   [`try_covered_rows_sharded_range`] that incremental sample maintenance
//!   uses to offer one epoch's appended rows;
//! * [`try_count_rules_sharded`] ⇔ [`crate::count_rules`] (the explorer's
//!   `refresh`).
//!
//! The contract rests on one fact: the shard layout partitions the row
//! range in order, so iterating shards in index order visits rows in
//! exactly the monolithic order, and the outputs — ascending row ids and
//! exact integer counts — carry no float operation order at all.
//!
//! ## Spill-tier predicate pushdown
//!
//! Scans never force a shard's local→global decode. A shard the residency
//! cache holds is scanned in place over its decoded global codes; a miss
//! range-reads **only the rule's columns** ([`ShardedTable::read_columns`])
//! and leaves residency undisturbed. Those transient columns stay in the
//! spill coding: each rule predicate is translated into the shard's local
//! code space through the column's `remap`, and the packed 1/2/4-byte
//! local codes are scanned directly — a predicate value absent from
//! `remap` covers zero rows, so the whole shard is skipped without touching
//! a single row. A local-code equality scan hits exactly the rows the
//! global-code scan hits, so positions and counts are identical.
//!
//! The equality-compare inner loops dispatch through [`crate::accel`]
//! (AVX2 with scalar fallback); SIMD changes neither positions nor order.
//!
//! Consequently every scan is **bit-identical to the monolithic path for
//! any shard count, any resident budget, any eviction policy and either
//! build** (`ShardedTable::from_table` or the streaming `ShardBuilder`):
//! eviction and reload only change when bytes are in memory, never which
//! bytes. `tests/shard_parity.rs` asserts this end to end (sample stores,
//! explorer sessions, server transcripts) across shard counts 1..=8,
//! including budgets that force spill.
//!
//! ## Fallibility
//!
//! Every scan returns `Result<_, TableError>`: a damaged spill file
//! surfaces as [`TableError::Corrupt`]/[`TableError::Io`], so a served
//! session gets an error response instead of a crash. This file is
//! panic-free (lint rule P001).

use crate::accel;
use crate::Rule;
use sdd_table::{LocalCodes, RawColumn, RowId, ShardSegment, ShardedTable, TableError};
use std::ops::Range;
use std::sync::Arc;

/// The columns one scan obtained for one shard, in whichever form was
/// cheapest to get.
enum ShardCols {
    /// The cached decoded segment (global codes, every column).
    Decoded(Arc<ShardSegment>),
    /// A transient range read of just the requested columns, each paired
    /// with its column index, in request order — never enters the
    /// residency cache.
    Raw(Vec<(usize, RawColumn)>),
}

/// Fetches `cols` of one shard: the cached decoded segment if resident,
/// else a transient range read of only those columns (residency
/// undisturbed).
fn fetch_cols(st: &ShardedTable, shard: usize, cols: &[usize]) -> Result<ShardCols, TableError> {
    if let Some(seg) = st.cached_data(shard) {
        return Ok(ShardCols::Decoded(seg));
    }
    if st.spill_path(shard).is_some() {
        let raw = st.read_columns(shard, cols)?;
        return Ok(ShardCols::Raw(cols.iter().copied().zip(raw).collect()));
    }
    // Fully-resident tables always hit the cache; kept total anyway.
    Ok(ShardCols::Decoded(st.try_segment(shard)?))
}

/// Translates `rule`'s predicates into the shard's local code space, one
/// per fetched column the rule instantiates (the fetch covers every such
/// column by construction). `None` ⇒ some predicate value never occurs in
/// this shard (absent from the column's `remap`): the rule covers zero
/// rows here and the caller skips the shard without touching its rows.
fn local_predicates<'a>(
    raw: &'a [(usize, RawColumn)],
    rule: &Rule,
) -> Option<Vec<(&'a LocalCodes, u32)>> {
    raw.iter()
        .filter(|(c, _)| !rule.is_star(*c))
        .map(|(c, rc)| rc.local_of_global(rule.code(*c)).map(|l| (rc.codes(), l)))
        .collect()
}

/// Width-dispatched equality position scan over packed local codes.
fn positions_eq_local(codes: &LocalCodes, want: u32, base: u32, out: &mut Vec<u32>) {
    match codes {
        // Local codes were validated against `remap`, so a 1-byte column's
        // codes — and any `want` produced by `local_of_global` — fit u8/u16.
        LocalCodes::W1(v) => accel::positions_eq_u8(v, want as u8, base, out),
        LocalCodes::W2(v) => accel::positions_eq_u16(v, want as u16, base, out),
        LocalCodes::W4(v) => accel::positions_eq_u32(v, want, base, out),
    }
}

/// Width-dispatched equality count over packed local codes.
fn count_eq_local(codes: &LocalCodes, want: u32) -> usize {
    match codes {
        LocalCodes::W1(v) => accel::count_eq_u8(v, want as u8),
        LocalCodes::W2(v) => accel::count_eq_u16(v, want as u16),
        LocalCodes::W4(v) => accel::count_eq_u32(v, want),
    }
}

/// The shard-local indices (offset by `base`) of the rows of one shard
/// matching every predicate, ascending: the first predicate via the SIMD
/// equality scan, the rest by survivor filtering. No predicates cover all
/// `n_rows` rows.
fn positions_matching_decoded(
    seg: &ShardSegment,
    rule: &Rule,
    cols: &[usize],
    base: u32,
    n_rows: usize,
) -> Vec<u32> {
    let mut hits: Vec<u32> = Vec::new();
    let [first, rest @ ..] = cols else {
        return (base..base + n_rows as u32).collect();
    };
    accel::positions_eq_u32(seg.col(*first), rule.code(*first), base, &mut hits);
    for &c in rest {
        let codes = seg.col(c);
        let want = rule.code(c);
        hits.retain(|&r| codes[(r - base) as usize] == want);
    }
    hits
}

/// [`positions_matching_decoded`] over translated local-code predicates.
fn positions_matching_local(preds: &[(&LocalCodes, u32)], base: u32, n_rows: usize) -> Vec<u32> {
    let mut hits: Vec<u32> = Vec::new();
    let [(first_codes, first_want), rest @ ..] = preds else {
        return (base..base + n_rows as u32).collect();
    };
    positions_eq_local(first_codes, *first_want, base, &mut hits);
    for &(codes, want) in rest {
        hits.retain(|&r| codes.at((r - base) as usize) == want);
    }
    hits
}

// ---------------------------------------------------------------------------
// Coverage scans
// ---------------------------------------------------------------------------

/// All row ids of `table` covered by `rule` (ascending) — the sharded twin
/// of [`crate::covered_rows`]: shards are filtered in index order and the
/// per-shard hit lists concatenate, so the output is byte-identical to the
/// monolithic scan on any shard count. Cached shards are scanned in place;
/// misses range-read only the rule's columns.
pub fn try_covered_rows_sharded(
    table: &ShardedTable,
    rule: &Rule,
) -> Result<Vec<RowId>, TableError> {
    try_covered_rows_sharded_range(table, rule, 0..table.n_rows())
}

/// All row ids in `range` covered by `rule` (ascending): the ranged form
/// of [`try_covered_rows_sharded`], scanning only the shards that overlap
/// the range. This is what incremental sample maintenance uses to offer
/// exactly one epoch's appended rows (`epoch_rows[e-1]..epoch_rows[e]`)
/// without rescanning the table. Out-of-bounds ranges clamp to the table.
pub fn try_covered_rows_sharded_range(
    table: &ShardedTable,
    rule: &Rule,
    range: Range<usize>,
) -> Result<Vec<RowId>, TableError> {
    let lo = range.start.min(table.n_rows());
    let hi = range.end.min(table.n_rows());
    if lo >= hi {
        return Ok(Vec::new());
    }
    let cols: Vec<usize> = rule.instantiated_columns().collect();
    if cols.is_empty() {
        return Ok((lo as RowId..hi as RowId).collect());
    }
    let mut out: Vec<RowId> = Vec::new();
    for (i, span) in table.spans().iter().enumerate() {
        if span.is_empty() || span.end <= lo || span.start >= hi {
            continue;
        }
        let base = span.start as RowId;
        let hits = match fetch_cols(table, i, &cols)? {
            ShardCols::Decoded(seg) => {
                positions_matching_decoded(&seg, rule, &cols, base, span.len())
            }
            ShardCols::Raw(raw) => match local_predicates(&raw, rule) {
                Some(preds) => positions_matching_local(&preds, base, span.len()),
                // Zero-count shard: a predicate value absent from remap.
                None => continue,
            },
        };
        if span.start < lo || span.end > hi {
            // Boundary shard: keep only the in-range hits.
            let window = lo as RowId..hi as RowId;
            out.extend(hits.into_iter().filter(|r| window.contains(r)));
        } else {
            out.extend(hits);
        }
    }
    Ok(out)
}

/// Exact counts of every rule in one pass over the sharded table — the
/// sharded twin of [`crate::count_rules`] and the scan behind the
/// explorer's `refresh` on segmented storage.
///
/// det-order: counts are exact integers (a sum of `k` unit additions is
/// exactly `k` in f64 for `k < 2^53`), so per-shard `u64` subtotals
/// reproduce the monolithic unit-accumulation bitwise — which frees each
/// shard to use the SIMD count kernels over whichever form it holds.
pub fn try_count_rules_sharded(
    table: &ShardedTable,
    rules: &[Rule],
) -> Result<Vec<f64>, TableError> {
    let mut counts = vec![0u64; rules.len()];
    let mut needed: Vec<usize> = rules
        .iter()
        .flat_map(|r| r.instantiated_columns())
        .collect();
    needed.sort_unstable();
    needed.dedup();
    for (i, span) in table.spans().iter().enumerate() {
        if span.is_empty() {
            continue;
        }
        if needed.is_empty() {
            // Only trivial rules: every rule covers the whole shard.
            for c in counts.iter_mut() {
                *c += span.len() as u64;
            }
            continue;
        }
        let f = fetch_cols(table, i, &needed)?;
        for (ri, rule) in rules.iter().enumerate() {
            counts[ri] += count_rule_in_shard(&f, rule, span.len());
        }
    }
    Ok(counts.into_iter().map(|c| c as f64).collect())
}

/// One rule's covered-row count in one shard. Single-column rules use the
/// vectorized count kernel directly; wider rules filter survivors.
fn count_rule_in_shard(f: &ShardCols, rule: &Rule, n_rows: usize) -> u64 {
    match f {
        ShardCols::Decoded(seg) => {
            let cols: Vec<usize> = rule.instantiated_columns().collect();
            if let [c] = cols[..] {
                return accel::count_eq_u32(seg.col(c), rule.code(c)) as u64;
            }
            positions_matching_decoded(seg, rule, &cols, 0, n_rows).len() as u64
        }
        ShardCols::Raw(raw) => {
            let Some(preds) = local_predicates(raw, rule) else {
                return 0; // zero-count shard
            };
            if let [(codes, want)] = preds[..] {
                return count_eq_local(codes, want) as u64;
            }
            positions_matching_local(&preds, 0, n_rows).len() as u64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::covered_rows;
    use sdd_table::{Schema, ShardConfig, Table};

    fn t() -> Table {
        let mut rows: Vec<[&str; 3]> = Vec::new();
        rows.extend(std::iter::repeat_n(["a", "x", "0"], 4));
        rows.extend(std::iter::repeat_n(["a", "y", "1"], 3));
        rows.extend(std::iter::repeat_n(["b", "x", "0"], 2));
        rows.push(["c", "z", "1"]);
        Table::from_rows(Schema::new(["A", "B", "C"]).unwrap(), &rows).unwrap()
    }

    fn sharded(table: &Table, shards: usize) -> Arc<ShardedTable> {
        Arc::new(ShardedTable::from_table(table, &ShardConfig::in_memory(shards)).unwrap())
    }

    /// A spilling layout with a budget of 1: every scan runs against the
    /// transient (pushdown) path, since nothing loads a segment into the
    /// cache.
    fn spilled(table: &Table, shards: usize) -> Arc<ShardedTable> {
        Arc::new(
            ShardedTable::from_table(
                table,
                &ShardConfig::spilling(shards, 1, std::env::temp_dir()),
            )
            .unwrap(),
        )
    }

    #[test]
    fn covered_rows_matches_monolithic_for_every_shard_count() {
        let table = t();
        for rule in [
            Rule::trivial(3),
            Rule::from_pairs(&table, &[("A", "a")]).unwrap(),
            Rule::from_pairs(&table, &[("A", "a"), ("B", "x")]).unwrap(),
        ] {
            let expect = covered_rows(&table, &rule);
            for shards in 1..=5 {
                let st = sharded(&table, shards);
                assert_eq!(
                    try_covered_rows_sharded(&st, &rule).unwrap(),
                    expect,
                    "{shards} shards"
                );
            }
        }
    }

    #[test]
    fn pushdown_covered_rows_matches_monolithic_on_spilled_storage() {
        let table = t();
        for rule in [
            Rule::trivial(3),
            Rule::from_pairs(&table, &[("A", "a")]).unwrap(),
            Rule::from_pairs(&table, &[("A", "a"), ("B", "x")]).unwrap(),
            // "c"/"z" occur only in the last row: every earlier shard takes
            // the remap-absence skip.
            Rule::from_pairs(&table, &[("A", "c")]).unwrap(),
            Rule::from_pairs(&table, &[("A", "c"), ("B", "z")]).unwrap(),
        ] {
            let expect = covered_rows(&table, &rule);
            for shards in 1..=6 {
                let st = spilled(&table, shards);
                assert_eq!(
                    try_covered_rows_sharded(&st, &rule).unwrap(),
                    expect,
                    "{shards} spilled shards"
                );
                if shards > 1 && rule.instantiated_columns().next().is_some() {
                    assert!(st.loads() > 0, "spilled scan must read spill files");
                }
            }
        }
    }

    #[test]
    fn covered_rows_range_matches_filtered_full_scan() {
        let table = t();
        let n = table.n_rows();
        for rule in [
            Rule::trivial(3),
            Rule::from_pairs(&table, &[("A", "a")]).unwrap(),
            Rule::from_pairs(&table, &[("A", "c"), ("B", "z")]).unwrap(),
        ] {
            let full = covered_rows(&table, &rule);
            for shards in [1, 3, 5] {
                for st in [sharded(&table, shards), spilled(&table, shards)] {
                    // Every (lo, hi) window — boundary and interior alike.
                    for lo in 0..=n {
                        for hi in lo..=n {
                            let want: Vec<RowId> = full
                                .iter()
                                .copied()
                                .filter(|&r| (lo as RowId..hi as RowId).contains(&r))
                                .collect();
                            let got = try_covered_rows_sharded_range(&st, &rule, lo..hi).unwrap();
                            assert_eq!(got, want, "rule {rule:?} range {lo}..{hi}");
                        }
                    }
                    // Out-of-bounds ranges clamp instead of panicking.
                    assert_eq!(
                        try_covered_rows_sharded_range(&st, &rule, 0..n + 7).unwrap(),
                        full
                    );
                    assert!(try_covered_rows_sharded_range(&st, &rule, n + 1..n + 5)
                        .unwrap()
                        .is_empty());
                }
            }
        }
    }

    #[test]
    fn count_rules_matches_refresh_semantics() {
        let table = t();
        for st in [sharded(&table, 3), spilled(&table, 3)] {
            let rules = vec![
                Rule::trivial(3),
                Rule::from_pairs(&table, &[("A", "a")]).unwrap(),
                Rule::from_pairs(&table, &[("B", "x")]).unwrap(),
                Rule::from_pairs(&table, &[("A", "c"), ("B", "z")]).unwrap(),
            ];
            let counts = try_count_rules_sharded(&st, &rules).unwrap();
            for (rule, &count) in rules.iter().zip(&counts) {
                assert_eq!(count, crate::rule_count(&table.view(), rule), "{rule:?}");
            }
        }
    }

    #[test]
    fn corrupt_spill_surfaces_through_try_variants() {
        let table = t();
        let st = spilled(&table, 3);
        let rule = Rule::from_pairs(&table, &[("A", "a")]).unwrap();
        let path = st.spill_path(0).unwrap().to_path_buf();
        let bytes = std::fs::read(&path).unwrap();
        std::fs::write(&path, &bytes[..10]).unwrap();
        assert!(matches!(
            try_covered_rows_sharded(&st, &rule),
            Err(TableError::Corrupt(_))
        ));
        assert!(try_count_rules_sharded(&st, std::slice::from_ref(&rule)).is_err());
        // Restore: scans recover (errors are not sticky).
        std::fs::write(&path, &bytes).unwrap();
        assert_eq!(
            try_covered_rows_sharded(&st, &rule).unwrap(),
            covered_rows(&table, &rule)
        );
    }
}
