//! Emits `BENCH_shard.json`: a shard-count × resident-budget sweep of the
//! full-table scans that run over sharded storage, on a census-shaped
//! table. Run with:
//!
//! ```sh
//! cargo run --release -p sdd-bench --bin exp_shard
//! ```
//!
//! BRS always runs on an in-memory sample; what touches the sharded
//! storage are two scans, both timed here against their monolithic twins:
//!
//! * **covered** — `try_covered_rows_sharded`, one rule-coverage scan (the
//!   sampling layer's Create and prefetch path),
//! * **count** — `try_count_rules_sharded`, exact counts of a displayed
//!   rule list (the explorer's `refresh`).
//!
//! Before timing, each cell gathers a strided row sample through the
//! residency cache (as a served session's sample build does), so up to
//! `resident` shards sit decoded in the cache and the rest are range-read
//! from their spill coding on every scan. `resident = 0` means fully
//! resident. Both scans are timed with the SIMD kernels **on and off**
//! (the runtime kill switch the CLI's `--no-simd` flag throws), and every
//! cell asserts **bit-identity** with `covered_rows` / `count_rules` at
//! run time — the sweep doubles as a parity check at realistic sizes.
//!
//! Environment knobs: `SDD_SHARD_ROWS` (default 100 000), `SDD_REPS`
//! (default 3).

use sdd_core::accel;
use sdd_core::{
    count_rules, covered_rows, try_count_rules_sharded, try_covered_rows_sharded, Rule,
};
use sdd_table::{RowId, ShardConfig, ShardedTable};
use std::time::Instant;

fn best_of(reps: usize, mut run: impl FnMut()) -> f64 {
    run(); // warmup
    let mut best = f64::INFINITY;
    for _ in 0..reps {
        let start = Instant::now();
        run();
        best = best.min(start.elapsed().as_secs_f64());
    }
    best
}

fn bits(vals: &[f64]) -> Vec<u64> {
    vals.iter().map(|v| v.to_bits()).collect()
}

fn main() {
    let rows: usize = std::env::var("SDD_SHARD_ROWS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(100_000);
    let reps: usize = std::env::var("SDD_REPS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(3);

    let table = sdd_bench::datasets::census3(rows);
    let n_cols = table.n_columns();
    let trivial = Rule::trivial(n_cols);
    let scan_rule = trivial.with_value(0, table.code(0, 0));
    // A refresh-shaped rule list: the trivial rule, one size-1 rule per
    // column, and a size-2 rule (survivor filtering).
    let mut count_list: Vec<Rule> = vec![trivial.clone()];
    count_list.extend((0..n_cols).map(|c| trivial.with_value(c, table.code(0, c))));
    count_list.push(scan_rule.with_value(1, table.code(0, 1)));

    let mono_rows = covered_rows(&table, &scan_rule);
    let mono_counts = count_rules(&table, &count_list);
    let t_mono_covered = best_of(reps, || {
        let _ = covered_rows(&table, &scan_rule);
    });
    let t_mono_count = best_of(reps, || {
        let _ = count_rules(&table, &count_list);
    });
    let sample: Vec<RowId> = (0..rows as RowId).step_by(97).collect();

    println!(
        "sharded scan sweep on census3({rows}), reps={reps} (monolithic: covered {:.2} ms, \
         count {:.2} ms; host {} threads, simd {}):",
        t_mono_covered * 1e3,
        t_mono_count * 1e3,
        sdd_bench::host_parallelism(),
        sdd_bench::simd_level(),
    );
    let mut entries = String::new();
    for &shards in &[1usize, 2, 4, 8] {
        let mut budgets = vec![0usize, shards.div_ceil(2), 1];
        budgets.dedup();
        budgets.retain(|&r| r == 0 || r < shards); // budget ≥ shards never spills
        for resident in budgets {
            let cfg = if resident == 0 {
                ShardConfig::in_memory(shards)
            } else {
                ShardConfig::spilling(shards, resident, std::env::temp_dir())
            };
            let st = ShardedTable::from_table(&table, &cfg).expect("shard build");
            let _ = st.try_gather_rows(&sample).expect("spill files readable");
            let (cached, _) = st.resident_and_pinned();

            let mut cell = [0.0f64; 4]; // covered on/off, count on/off
            for (slot, simd_on) in [(0usize, true), (1usize, false)] {
                accel::set_simd_enabled(simd_on);
                assert_eq!(
                    try_covered_rows_sharded(&st, &scan_rule).expect("spill files readable"),
                    mono_rows,
                    "{shards}×{resident}, simd={simd_on}: coverage scan diverged"
                );
                assert_eq!(
                    bits(&try_count_rules_sharded(&st, &count_list).expect("spill files readable")),
                    bits(&mono_counts),
                    "{shards}×{resident}, simd={simd_on}: counts diverged"
                );
                cell[slot] = best_of(reps, || {
                    let _ = try_covered_rows_sharded(&st, &scan_rule);
                });
                cell[slot + 2] = best_of(reps, || {
                    let _ = try_count_rules_sharded(&st, &count_list);
                });
            }
            accel::set_simd_enabled(true); // restore the detected level

            let loads_before = st.loads();
            let _ = try_covered_rows_sharded(&st, &scan_rule);
            let loads_per_scan = st.loads() - loads_before;
            let [t_covered, t_covered_scalar, t_count, t_count_scalar] = cell;
            println!(
                "  {shards} shard(s), resident {resident:>2} ({cached} cached): \
                 covered {:>6.3} ms ({:.2}x mono; scalar {:>6.3} ms) | \
                 count {:>6.3} ms ({:.2}x mono; scalar {:>6.3} ms) | loads/scan {loads_per_scan}",
                t_covered * 1e3,
                t_covered / t_mono_covered,
                t_covered_scalar * 1e3,
                t_count * 1e3,
                t_count / t_mono_count,
                t_count_scalar * 1e3,
            );
            entries.push_str(&format!(
                "    {{ \"shards\": {shards}, \"resident\": {resident}, \
                 \"cached_segments\": {cached}, \
                 \"covered_seconds\": {t_covered:.6}, \
                 \"covered_scalar_seconds\": {t_covered_scalar:.6}, \
                 \"count_seconds\": {t_count:.6}, \
                 \"count_scalar_seconds\": {t_count_scalar:.6}, \
                 \"covered_vs_monolithic\": {:.3}, \"count_vs_monolithic\": {:.3}, \
                 \"spill_loads_per_scan\": {loads_per_scan} }},\n",
                t_covered / t_mono_covered,
                t_count / t_mono_count,
            ));
        }
    }
    let entries = entries.trim_end().trim_end_matches(',');

    let json = format!(
        concat!(
            "{{\n",
            "  \"benchmark\": \"sharded_scans/census3_shard_sweep\",\n",
            "{host_fields}\n",
            "  \"rows\": {rows},\n",
            "  \"reps\": {reps},\n",
            "  \"count_rules\": {n_rules},\n",
            "  \"monolithic_covered_seconds\": {mono_covered:.6},\n",
            "  \"monolithic_count_seconds\": {mono_count:.6},\n",
            "  \"determinism\": \"every cell's covered-row list and rule counts are bit-identical to covered_rows / count_rules, SIMD on and off (asserted at run time); resident budgets change only spill traffic\",\n",
            "  \"sweep\": [\n{entries}\n  ]\n",
            "}}\n"
        ),
        host_fields = sdd_bench::host_json_fields(),
        rows = rows,
        reps = reps,
        n_rules = count_list.len(),
        mono_covered = t_mono_covered,
        mono_count = t_mono_count,
        entries = entries,
    );
    std::fs::write("BENCH_shard.json", &json).expect("write BENCH_shard.json");
    println!("wrote BENCH_shard.json");
}
