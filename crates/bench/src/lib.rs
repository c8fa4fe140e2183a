//! Experiment harness: regenerates every table of the paper's evaluation
//! section (Sect. 5) over the synthetic datasets.
//!
//! * [`run_table2`] — SPARQLSIM vs. Ma et al. runtimes on the BGP cores
//!   of B0–B19 (Table 2);
//! * [`run_table3`] — result counts, required triples, pruning time and
//!   triples after pruning for all 32 queries (Table 3);
//! * [`run_table45`] — full vs. pruned query times per engine (Table 4
//!   with the hash-join/RDFox stand-in, Table 5 with the
//!   nested-loop/Virtuoso stand-in);
//! * [`run_iterations`] — the §5.3 iteration-count narrative (L1 in two
//!   iterations, L0 in many).
//!
//! Dataset sizes are configurable through `DUALSIM_LUBM_UNIS` and
//! `DUALSIM_DBPEDIA_ENTITIES`; the defaults keep a full `experiments all`
//! run in the minutes range on a laptop.

#![warn(missing_docs)]

use dualsim_bitmatrix::kernels::with_backend;
use dualsim_core::baseline::dual_simulation_ma;
use dualsim_core::{
    build_sois, prune, solve, ChiBackend, EvalStrategy, FixpointMode, IncrementalDualSim,
    IneqOrdering, InitMode, KernelBackend, QuotientIndex, SlabBackend, SolveStats, SolverConfig,
};
use dualsim_datagen::workloads::{adversarial_queries, all_queries, BenchQuery, Dataset};
use dualsim_datagen::{generate_dbpedia, generate_lubm, DbpediaConfig, LubmConfig};
use dualsim_engine::{required_triples, Engine};
use dualsim_graph::GraphDb;
use dualsim_query::Query;
use std::time::{Duration, Instant};

/// The pair of benchmark databases.
pub struct Datasets {
    /// LUBM-style database.
    pub lubm: GraphDb,
    /// DBpedia-style database.
    pub dbpedia: GraphDb,
}

impl Datasets {
    /// Database a workload query runs against.
    pub fn for_query(&self, q: &BenchQuery) -> &GraphDb {
        match q.dataset {
            Dataset::Lubm => &self.lubm,
            Dataset::Dbpedia => &self.dbpedia,
        }
    }
}

fn env_usize(name: &str, default: usize) -> usize {
    std::env::var(name)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

/// Generates the benchmark databases (sizes overridable via environment,
/// see the crate docs).
pub fn default_datasets() -> Datasets {
    let unis = env_usize("DUALSIM_LUBM_UNIS", 15);
    let entities = env_usize("DUALSIM_DBPEDIA_ENTITIES", 20_000);
    Datasets {
        lubm: generate_lubm(&LubmConfig {
            universities: unis,
            seed: 7,
        }),
        dbpedia: generate_dbpedia(&DbpediaConfig {
            entities,
            ..DbpediaConfig::default()
        }),
    }
}

/// Moderate datasets for the Criterion benches: large enough that the
/// asymptotic behaviour shows, small enough that a full `cargo bench`
/// stays in the minutes range (the naive Ma et al. baseline is part of
/// the suite).
pub fn bench_datasets() -> Datasets {
    Datasets {
        lubm: generate_lubm(&LubmConfig {
            universities: 6,
            seed: 7,
        }),
        dbpedia: generate_dbpedia(&DbpediaConfig {
            entities: 8_000,
            ..DbpediaConfig::default()
        }),
    }
}

/// Small datasets for unit tests of the harness itself.
pub fn tiny_datasets() -> Datasets {
    Datasets {
        lubm: generate_lubm(&LubmConfig {
            universities: 2,
            seed: 7,
        }),
        dbpedia: generate_dbpedia(&DbpediaConfig {
            entities: 2_000,
            relation_labels: 40,
            attribute_labels: 10,
            classes: 15,
            avg_degree: 3.0,
            seed: 11,
        }),
    }
}

/// Runs `f` `reps` times and returns (last result, median duration).
pub fn time_median<R>(reps: usize, mut f: impl FnMut() -> R) -> (R, Duration) {
    assert!(reps > 0);
    let mut times = Vec::with_capacity(reps);
    let mut result = None;
    for _ in 0..reps {
        let start = Instant::now();
        result = Some(f());
        times.push(start.elapsed());
    }
    times.sort_unstable();
    (result.expect("reps > 0"), times[times.len() / 2])
}

/// One row of Table 2.
#[derive(Debug, Clone)]
pub struct Table2Row {
    /// Query id (B0–B19).
    pub id: &'static str,
    /// SPARQLSIM (SOI solver) runtime on the BGP core.
    pub t_sparqlsim: Duration,
    /// Ma et al. runtime on the same core.
    pub t_ma: Duration,
}

/// Table 2: SPARQLSIM vs. Ma et al. on the BGP cores of B0–B19 (the
/// paper strips OPTIONAL for this comparison; `mandatory_core` does the
/// same).
pub fn run_table2(dbpedia: &GraphDb, reps: usize) -> Vec<Table2Row> {
    let cfg = SolverConfig::default();
    all_queries()
        .iter()
        .filter(|b| b.id.starts_with('B'))
        .map(|bench| {
            let core = Query::Bgp(bench.query.mandatory_core());
            let (_, t_sparqlsim) = time_median(reps, || {
                let sois = build_sois(dbpedia, &core);
                sois.iter()
                    .map(|s| solve(dbpedia, s, &cfg))
                    .collect::<Vec<_>>()
            });
            let (_, t_ma) = time_median(reps, || {
                build_sois(dbpedia, &core)
                    .iter()
                    .map(|s| dual_simulation_ma(dbpedia, s))
                    .collect::<Vec<_>>()
            });
            Table2Row {
                id: bench.id,
                t_sparqlsim,
                t_ma,
            }
        })
        .collect()
}

/// One row of Table 3.
#[derive(Debug, Clone)]
pub struct Table3Row {
    /// Query id.
    pub id: &'static str,
    /// Result-set size (`Result No.`).
    pub results: usize,
    /// Triples used by some match (`No. Req. Triples`).
    pub required: usize,
    /// Pruning time (`t_SPARQLSIM`).
    pub t_sparqlsim: Duration,
    /// Triples surviving the pruning (`Tripl. aft. Pruning`).
    pub kept: usize,
    /// Solver iterations summed over union-free branches (§5.3).
    pub iterations: usize,
}

/// Table 3: pruning effectiveness for all 32 queries. Result sets are
/// computed on the pruned database (sound by Thm. 2, and much faster),
/// using the given engine.
pub fn run_table3(data: &Datasets, engine: &dyn Engine) -> Vec<Table3Row> {
    let cfg = SolverConfig::default();
    all_queries()
        .iter()
        .map(|bench| {
            let db = data.for_query(bench);
            let (report, t_sparqlsim) = time_median(1, || prune(db, &bench.query, &cfg));
            let pruned = report.pruned_db(db);
            let results = engine.evaluate(&pruned, &bench.query);
            // Provenance-exact accounting runs on the pruned database:
            // sound by Thm. 2 and identical to the full-database count.
            let required = required_triples(&pruned, &bench.query).len();
            Table3Row {
                id: bench.id,
                results: results.len(),
                required,
                t_sparqlsim,
                kept: report.num_kept(),
                iterations: report.iterations(),
            }
        })
        .collect()
}

/// One row of Table 4/5.
#[derive(Debug, Clone)]
pub struct Table45Row {
    /// Query id.
    pub id: &'static str,
    /// Query time on the full database (`t_DB`).
    pub t_db: Duration,
    /// Query time on the pruned database (`t_DB pruned`).
    pub t_pruned: Duration,
    /// Pruned query time plus pruning time
    /// (`t_DB pruned + t_SPARQLSIM`).
    pub t_total: Duration,
    /// Result count (sanity: must agree between full and pruned).
    pub results: usize,
}

/// Tables 4 and 5: full vs. pruned evaluation times for one engine.
/// Panics if pruning changes a result set — that would falsify the
/// soundness theorem, and the harness doubles as an end-to-end check.
pub fn run_table45(data: &Datasets, engine: &dyn Engine, reps: usize) -> Vec<Table45Row> {
    let cfg = SolverConfig::default();
    all_queries()
        .iter()
        .map(|bench| {
            let db = data.for_query(bench);
            let (full, t_db) = time_median(reps, || engine.evaluate(db, &bench.query));
            let report = prune(db, &bench.query, &cfg);
            let pruned_db = report.pruned_db(db);
            let (pruned, t_pruned) =
                time_median(reps, || engine.evaluate(&pruned_db, &bench.query));
            assert_eq!(
                full, pruned,
                "{}: pruning changed the result set — soundness violated",
                bench.id
            );
            Table45Row {
                id: bench.id,
                t_db,
                t_pruned,
                t_total: t_pruned + report.total_time(),
                results: full.len(),
            }
        })
        .collect()
}

/// One row of the dual-vs-forward pruning-power ablation.
#[derive(Debug, Clone)]
pub struct PruningPowerRow {
    /// Query id.
    pub id: &'static str,
    /// Triples kept by dual-simulation pruning.
    pub dual_kept: usize,
    /// Triples kept by plain forward-simulation pruning (the Panda
    /// notion) — always ≥ `dual_kept`.
    pub forward_kept: usize,
}

/// The Sect.-6 claim "we rely on dual simulation being more effective in
/// pruning unnecessary triples \[than plain simulation\]", measured per
/// workload query.
pub fn run_pruning_power(data: &Datasets) -> Vec<PruningPowerRow> {
    use dualsim_core::{prune_with, SimulationKind};
    let cfg = SolverConfig::default();
    all_queries()
        .iter()
        .map(|bench| {
            let db = data.for_query(bench);
            let dual = prune(db, &bench.query, &cfg);
            let forward = prune_with(db, &bench.query, &cfg, SimulationKind::Forward, 1);
            assert!(
                forward.num_kept() >= dual.num_kept(),
                "{}: forward simulation must be the weaker notion",
                bench.id
            );
            PruningPowerRow {
                id: bench.id,
                dual_kept: dual.num_kept(),
                forward_kept: forward.num_kept(),
            }
        })
        .collect()
}

/// One row of the simulation-spectrum quality report.
#[derive(Debug, Clone)]
pub struct SpectrumRow {
    /// Query id (BGP core).
    pub id: &'static str,
    /// Total candidates Σ|χ(v)| under strong simulation.
    pub strong: usize,
    /// Total candidates under dual simulation.
    pub dual: usize,
    /// Total candidates under plain forward simulation.
    pub forward: usize,
}

/// Quality comparison across the simulation spectrum (Sect. 6: dual
/// simulation trades topology for speed; strong simulation restores it):
/// candidate counts per notion on the connected BGP cores of the
/// workload. Invariant `strong ≤ dual ≤ forward` is asserted.
pub fn run_simulation_spectrum(data: &Datasets) -> Vec<SpectrumRow> {
    use dualsim_core::{build_sois_with, strong_simulation, SimulationKind};
    let cfg = SolverConfig::default();
    let mut rows = Vec::new();
    for bench in all_queries() {
        let db = data.for_query(&bench);
        let core = Query::Bgp(bench.query.mandatory_core());
        let soi = match build_sois(db, &core).pop() {
            Some(soi) if soi.pattern_is_connected() => soi,
            _ => continue,
        };
        let dual_sol = solve(db, &soi, &cfg);
        // Strong simulation inspects one ball per candidate of its center
        // variable; bound the per-row cost so the report stays in the
        // seconds range on the high-volume rows.
        let center_candidates = dual_sol
            .chi
            .iter()
            .map(|c| c.count_ones())
            .min()
            .unwrap_or(0);
        if center_candidates > 300 {
            continue;
        }
        let dual: usize = dual_sol.chi.iter().map(|c| c.count_ones()).sum();
        let strong_sim = strong_simulation(db, &soi, &cfg);
        let strong: usize = strong_sim.chi.iter().map(|c| c.count_ones()).sum();
        let fsoi = build_sois_with(db, &core, SimulationKind::Forward).remove(0);
        let fwd_sol = solve(db, &fsoi, &cfg);
        let forward: usize = fwd_sol.chi.iter().map(|c| c.count_ones()).sum();
        assert!(strong <= dual && dual <= forward, "{}", bench.id);
        rows.push(SpectrumRow {
            id: bench.id,
            strong,
            dual,
            forward,
        });
    }
    rows
}

/// One row of the §5.3 iteration report.
#[derive(Debug, Clone)]
pub struct IterationRow {
    /// Query id.
    pub id: &'static str,
    /// Solver iterations (stabilization passes).
    pub iterations: usize,
    /// χ updates.
    pub updates: usize,
    /// Triples after pruning vs. required triples — the
    /// over-approximation factor discussed for L1.
    pub kept: usize,
}

/// The §5.3 narrative: iteration counts per LUBM query.
pub fn run_iterations(data: &Datasets) -> Vec<IterationRow> {
    let cfg = SolverConfig::default();
    all_queries()
        .iter()
        .filter(|b| b.dataset == Dataset::Lubm)
        .map(|bench| {
            let db = data.for_query(bench);
            let report = prune(db, &bench.query, &cfg);
            IterationRow {
                id: bench.id,
                iterations: report.iterations(),
                updates: report.branch_stats.iter().map(|s| s.updates).sum(),
                kept: report.num_kept(),
            }
        })
        .collect()
}

/// The two fixpoint engines as (display name, mode) pairs.
pub const FIXPOINT_MODES: [(&str, FixpointMode); 2] = [
    ("reevaluate", FixpointMode::Reevaluate),
    ("delta", FixpointMode::DeltaCounting),
];

/// One (workload, engine) measurement of the fixpoint ablation.
#[derive(Debug, Clone)]
pub struct FixpointRow {
    /// Query id (`L0` … `B19`) or scenario id.
    pub id: String,
    /// Engine name (`reevaluate` / `delta`).
    pub mode: &'static str,
    /// Median wall time over the measured repetitions.
    pub wall: Duration,
    /// Solver iterations (stabilization passes / worklist drains).
    pub iterations: usize,
    /// Inequality evaluations (delta mode: one-time seeding passes).
    pub evaluations: usize,
    /// Matrix rows OR-ed (re-evaluation row-wise work).
    pub rows_ored: usize,
    /// Candidate rows probed (re-evaluation column-wise work).
    pub bits_probed: usize,
    /// Support-counter increments (delta seeding work).
    pub counter_inits: usize,
    /// Support-counter decrements (delta propagation work).
    pub counter_decrements: usize,
    /// Edge inequalities whose counter seeding was deferred at
    /// initialization (delta lazy seeding).
    pub seeds_deferred: usize,
    /// Deferred inequalities seeded on first touch.
    pub lazy_seeds: usize,
    /// Removal-propagation rounds of the delta drain (χ handoff
    /// points).
    pub drain_rounds: usize,
    /// Unified work measure ([`SolveStats::work_ops`]).
    pub ops: usize,
}

fn fixpoint_row(id: String, mode: &'static str, wall: Duration, stats: &SolveStats) -> FixpointRow {
    FixpointRow {
        id,
        mode,
        wall,
        iterations: stats.iterations,
        evaluations: stats.evaluations,
        rows_ored: stats.rows_ored,
        bits_probed: stats.bits_probed,
        counter_inits: stats.counter_inits,
        counter_decrements: stats.counter_decrements,
        seeds_deferred: stats.seeds_deferred,
        lazy_seeds: stats.lazy_seeds,
        drain_rounds: stats.drain_rounds,
        ops: stats.work_ops(),
    }
}

fn sum_branch_stats(branches: &[(dualsim_core::Soi, dualsim_core::Solution)]) -> SolveStats {
    let mut total = SolveStats::default();
    for (_, solution) in branches {
        let s = &solution.stats;
        total.iterations += s.iterations;
        total.evaluations += s.evaluations;
        total.updates += s.updates;
        total.rows_ored += s.rows_ored;
        total.bits_probed += s.bits_probed;
        total.counter_inits += s.counter_inits;
        total.counter_decrements += s.counter_decrements;
        total.row_lookups += s.row_lookups;
        total.delta_removals += s.delta_removals;
        total.drain_rounds += s.drain_rounds;
        total.shard_units += s.shard_units;
        total.seeds_deferred += s.seeds_deferred;
        total.lazy_seeds += s.lazy_seeds;
        total.initial_candidates += s.initial_candidates;
        total.final_candidates += s.final_candidates;
        // Branch solutions coexist, so total χ storage is the sum of
        // the per-branch peaks (an upper bound on the true joint peak);
        // likewise for the per-branch counter-slab peaks.
        total.chi_peak_words += s.chi_peak_words;
        total.slab_peak_words += s.slab_peak_words;
        total.emptied_mandatory |= s.emptied_mandatory;
    }
    total
}

/// Cold-solve comparison of the two fixpoint engines over the full
/// workload. Asserts
/// along the way that both engines converge to bit-identical χ fixpoints
/// (the delta engine's correctness criterion).
pub fn run_fixpoint_solve(data: &Datasets, reps: usize) -> Vec<FixpointRow> {
    let mut rows = Vec::new();
    for bench in all_queries() {
        let db = data.for_query(&bench);
        let mut per_mode = Vec::new();
        for (name, fixpoint) in FIXPOINT_MODES {
            let cfg = SolverConfig {
                fixpoint,
                ..SolverConfig::default()
            };
            let (branches, wall) =
                time_median(reps, || dualsim_core::solve_query(db, &bench.query, &cfg));
            rows.push(fixpoint_row(
                bench.id.to_owned(),
                name,
                wall,
                &sum_branch_stats(&branches),
            ));
            per_mode.push(branches);
        }
        let reference: Vec<_> = per_mode[0].iter().map(|(_, s)| &s.chi).collect();
        for other in &per_mode[1..] {
            let chis: Vec<_> = other.iter().map(|(_, s)| &s.chi).collect();
            assert_eq!(reference, chis, "{}: engines disagree on χ", bench.id);
        }
    }
    rows
}

/// One engine's cumulative cost over an incremental-deletion scenario.
#[derive(Debug, Clone)]
pub struct IncrementalFixpointRow {
    /// Scenario id (`<query>-deletions`).
    pub id: String,
    /// Engine name (`reevaluate` / `delta`).
    pub mode: &'static str,
    /// Deletion batches applied.
    pub batches: usize,
    /// Triples deleted in total.
    pub deleted: usize,
    /// Wall time summed over all `apply_deletions` calls (database
    /// materialization excluded — it is identical for both engines).
    pub wall: Duration,
    /// Work operations summed over all updates
    /// ([`SolveStats::work_ops`], initial solve excluded).
    pub ops: usize,
    /// Candidates dropped over the whole scenario.
    pub dropped: usize,
}

/// The incremental-deletion scenario: solve once, then delete every
/// `stride`-th triple of the query-relevant labels in `batches` equal
/// batches, maintaining the solution after each batch. Measures only the
/// maintenance work (`apply_deletions`), which is where the delta
/// engine's persistent counters pay off. Both engines are asserted to
/// agree with each other after every batch.
pub fn run_fixpoint_incremental(
    data: &Datasets,
    ids: &[&str],
    batches: usize,
    stride: usize,
) -> Vec<IncrementalFixpointRow> {
    let mut rows = Vec::new();
    for bench in all_queries().iter().filter(|b| ids.contains(&b.id)) {
        let db = data.for_query(bench);
        let soi = match build_sois(db, &bench.query).pop() {
            Some(soi) => soi,
            None => continue,
        };
        let all: Vec<dualsim_graph::Triple> = db.triples().collect();
        let victims: Vec<dualsim_graph::Triple> =
            all.iter().copied().step_by(stride.max(1)).collect();
        let chunk = victims.len().div_ceil(batches.max(1)).max(1);

        let mut per_mode: Vec<(Vec<_>, IncrementalFixpointRow)> = Vec::new();
        for (name, fixpoint) in FIXPOINT_MODES {
            let cfg = SolverConfig {
                fixpoint,
                early_exit: false,
                ..SolverConfig::default()
            };
            let mut inc = IncrementalDualSim::new(db, soi.clone(), cfg);
            let mut remaining = all.clone();
            let mut wall = Duration::ZERO;
            let mut ops = 0usize;
            let mut dropped = 0usize;
            let mut n_batches = 0usize;
            let mut snapshots = Vec::new();
            for batch in victims.chunks(chunk) {
                let batch_set: std::collections::HashSet<dualsim_graph::Triple> =
                    batch.iter().copied().collect();
                remaining.retain(|t| !batch_set.contains(t));
                let db_after = db.with_triples(&remaining).unwrap();
                let before_ops = inc.solution().stats.work_ops();
                let start = Instant::now();
                dropped += inc.apply_deletions(&db_after, batch).unwrap();
                wall += start.elapsed();
                let after = inc.solution();
                // Re-evaluation reports per-call stats, the persistent
                // delta engine cumulative ones; normalize to per-call by
                // diffing against the pre-call snapshot (zero for the
                // re-evaluation engine, whose solve_from starts fresh).
                ops += match fixpoint {
                    FixpointMode::Reevaluate => after.stats.work_ops(),
                    FixpointMode::DeltaCounting => after.stats.work_ops() - before_ops,
                };
                n_batches += 1;
                snapshots.push(after.chi.clone());
            }
            per_mode.push((
                snapshots,
                IncrementalFixpointRow {
                    id: format!("{}-deletions", bench.id),
                    mode: name,
                    batches: n_batches,
                    deleted: victims.len(),
                    wall,
                    ops,
                    dropped,
                },
            ));
        }
        let (ref_snapshots, _) = &per_mode[0];
        for (snapshots, row) in &per_mode[1..] {
            assert_eq!(
                ref_snapshots, snapshots,
                "{}: engines disagree during incremental maintenance",
                row.id
            );
        }
        rows.extend(per_mode.into_iter().map(|(_, row)| row));
    }
    rows
}

fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Renders the dataset-shape header object shared by every
/// machine-readable `BENCH_*.json` report.
fn datasets_json(data: &Datasets) -> String {
    format!(
        "  \"datasets\": {{\"lubm_triples\": {}, \"lubm_nodes\": {}, \"dbpedia_triples\": {}, \"dbpedia_nodes\": {}}},\n",
        data.lubm.num_triples(),
        data.lubm.num_nodes(),
        data.dbpedia.num_triples(),
        data.dbpedia.num_nodes()
    )
}

/// Renders the fixpoint ablation as the machine-readable
/// `BENCH_fixpoint.json` document tracking the repo's perf trajectory
/// (schema `dualsim-fixpoint-v3`; hand-rolled writer — the workspace has
/// no serde). v2 added the lazy-seeding counters (`seeds_deferred`,
/// `lazy_seeds`, `drain_rounds`) per solve row; v3 dropped the drain
/// thread budget along with the sharded drain.
pub fn fixpoint_report_json(
    data: &Datasets,
    solve_rows: &[FixpointRow],
    inc_rows: &[IncrementalFixpointRow],
) -> String {
    let mut out = String::new();
    out.push_str("{\n  \"schema\": \"dualsim-fixpoint-v3\",\n");
    out.push_str(&datasets_json(data));
    out.push_str("  \"solve\": [\n");
    for (i, r) in solve_rows.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"id\": {}, \"mode\": {}, \"wall_s\": {:.6}, \"iterations\": {}, \
             \"evaluations\": {}, \"rows_ored\": {}, \"bits_probed\": {}, \
             \"counter_inits\": {}, \"counter_decrements\": {}, \"seeds_deferred\": {}, \
             \"lazy_seeds\": {}, \"drain_rounds\": {}, \"ops\": {}}}{}\n",
            json_str(&r.id),
            json_str(r.mode),
            r.wall.as_secs_f64(),
            r.iterations,
            r.evaluations,
            r.rows_ored,
            r.bits_probed,
            r.counter_inits,
            r.counter_decrements,
            r.seeds_deferred,
            r.lazy_seeds,
            r.drain_rounds,
            r.ops,
            if i + 1 == solve_rows.len() { "" } else { "," }
        ));
    }
    out.push_str("  ],\n  \"incremental\": [\n");
    for (i, r) in inc_rows.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"id\": {}, \"mode\": {}, \"batches\": {}, \"deleted\": {}, \
             \"wall_s\": {:.6}, \"ops\": {}, \"dropped\": {}}}{}\n",
            json_str(&r.id),
            json_str(r.mode),
            r.batches,
            r.deleted,
            r.wall.as_secs_f64(),
            r.ops,
            r.dropped,
            if i + 1 == inc_rows.len() { "" } else { "," }
        ));
    }
    out.push_str("  ]\n}\n");
    out
}

/// One engine's cumulative cost over an insertion/deletion churn
/// scenario of [`run_incremental_churn`].
#[derive(Debug, Clone)]
pub struct IncrementalChurnRow {
    /// Scenario id (`<query>-inserts` / `<query>-deletes` /
    /// `<query>-mixed`).
    pub id: String,
    /// Engine name (`reevaluate` / `delta`).
    pub mode: &'static str,
    /// Update batches applied.
    pub batches: usize,
    /// Triples inserted over the whole scenario.
    pub inserted: usize,
    /// Triples deleted over the whole scenario.
    pub deleted: usize,
    /// Wall time summed over all maintenance calls (database
    /// materialization excluded — it is identical for both engines).
    pub wall: Duration,
    /// Work operations summed over all updates
    /// ([`SolveStats::work_ops`], initial solve excluded).
    pub ops: usize,
    /// Candidate bits optimistically re-admitted by the insertion
    /// frontier ([`SolveStats::reactivations`]; zero for the
    /// re-evaluation engine).
    pub reactivations: usize,
    /// Batches maintained in place, without a cold re-solve.
    pub warm_batches: usize,
}

/// The churn scenarios: solve once against a reduced database, then
/// stream insertion/deletion batches of every `stride`-th triple while
/// maintaining the solution. Three streams per query — `inserts` grows
/// the reduced database back to full size, `deletes` shrinks the full
/// database, and `mixed` alternates inserting a chunk with deleting it
/// again. Measures only the maintenance work, which is where the
/// counter-driven re-activation frontier pays off against per-batch cold
/// re-solves. Both engines are asserted to agree bit for bit after every
/// batch.
pub fn run_incremental_churn(
    data: &Datasets,
    ids: &[&str],
    batches: usize,
    stride: usize,
) -> Vec<IncrementalChurnRow> {
    use dualsim_graph::Triple;
    // A churn script: (insert?, batch) steps over the victim chunks.
    type Script = Vec<(bool, Vec<dualsim_graph::Triple>)>;
    let mut rows = Vec::new();
    for bench in all_queries().iter().filter(|b| ids.contains(&b.id)) {
        let db = data.for_query(bench);
        let soi = match build_sois(db, &bench.query).pop() {
            Some(soi) => soi,
            None => continue,
        };
        let all: Vec<Triple> = db.triples().collect();
        let victims: Vec<Triple> = all.iter().copied().step_by(stride.max(1)).collect();
        let victim_set: std::collections::HashSet<Triple> = victims.iter().copied().collect();
        let without: Vec<Triple> = all
            .iter()
            .copied()
            .filter(|t| !victim_set.contains(t))
            .collect();
        let chunk = victims.len().div_ceil(batches.max(1)).max(1);

        let chunks: Vec<Vec<Triple>> = victims.chunks(chunk).map(<[Triple]>::to_vec).collect();
        let insert_script: Script = chunks.iter().map(|c| (true, c.clone())).collect();
        let delete_script: Script = chunks.iter().map(|c| (false, c.clone())).collect();
        let mixed_script: Script = chunks
            .iter()
            .flat_map(|c| [(true, c.clone()), (false, c.clone())])
            .collect();
        let scenarios: [(&str, &[Triple], Script); 3] = [
            ("inserts", &without, insert_script),
            ("deletes", &all, delete_script),
            ("mixed", &without, mixed_script),
        ];

        for (scenario, start, script) in scenarios {
            let mut per_mode: Vec<(Vec<_>, IncrementalChurnRow)> = Vec::new();
            for (name, fixpoint) in FIXPOINT_MODES {
                let cfg = SolverConfig {
                    fixpoint,
                    early_exit: false,
                    ..SolverConfig::default()
                };
                let db_start = db.with_triples(start).unwrap();
                let mut inc = IncrementalDualSim::new(&db_start, soi.clone(), cfg);
                let mut present: Vec<Triple> = start.to_vec();
                let mut wall = Duration::ZERO;
                let (mut ops, mut reactivations) = (0usize, 0usize);
                let (mut inserted, mut deleted, mut warm_batches) = (0usize, 0usize, 0usize);
                let mut snapshots = Vec::new();
                for (insert, batch) in &script {
                    if *insert {
                        present.extend(batch.iter().copied());
                        inserted += batch.len();
                    } else {
                        let batch_set: std::collections::HashSet<Triple> =
                            batch.iter().copied().collect();
                        present.retain(|t| !batch_set.contains(t));
                        deleted += batch.len();
                    }
                    let db_after = db.with_triples(&present).unwrap();
                    let before = inc.solution().stats.clone();
                    let start_t = Instant::now();
                    if *insert {
                        inc.apply_insertions(&db_after, batch).unwrap();
                    } else {
                        inc.apply_deletions(&db_after, batch).unwrap();
                    }
                    wall += start_t.elapsed();
                    let after = &inc.solution().stats;
                    // Re-evaluation reports per-call stats, the
                    // persistent delta engine cumulative ones; normalize
                    // to per-call by diffing against the pre-call
                    // snapshot. A cold re-solve (an insertion the warm
                    // path could not absorb) also starts fresh and is
                    // charged in full.
                    let warm = inc.last_update_was_warm();
                    let (ops_base, react_base) = if warm && fixpoint == FixpointMode::DeltaCounting
                    {
                        (before.work_ops(), before.reactivations)
                    } else {
                        (0, 0)
                    };
                    ops += after.work_ops() - ops_base;
                    reactivations += after.reactivations - react_base;
                    warm_batches += warm as usize;
                    snapshots.push(inc.solution().chi.clone());
                }
                per_mode.push((
                    snapshots,
                    IncrementalChurnRow {
                        id: format!("{}-{}", bench.id, scenario),
                        mode: name,
                        batches: script.len(),
                        inserted,
                        deleted,
                        wall,
                        ops,
                        reactivations,
                        warm_batches,
                    },
                ));
            }
            let (ref_snapshots, _) = &per_mode[0];
            for (snapshots, row) in &per_mode[1..] {
                assert_eq!(
                    ref_snapshots, snapshots,
                    "{}: engines disagree during churn maintenance",
                    row.id
                );
            }
            rows.extend(per_mode.into_iter().map(|(_, row)| row));
        }
    }
    rows
}

/// One chaos-churn measurement of [`run_incremental_chaos`]: a mixed
/// churn stream with a failpoint killing maintenance mid-batch, the
/// rollback absorbed and the batch retried.
#[derive(Debug, Clone)]
pub struct ChaosChurnRow {
    /// Scenario id (`<query>-chaos`).
    pub id: String,
    /// Failpoint site the kills were injected at.
    pub site: &'static str,
    /// Update batches in the stream.
    pub batches: usize,
    /// Batches killed by the failpoint (each rolled back, then retried).
    pub killed: usize,
    /// Rollbacks the engine recorded ([`SolveStats::rollbacks`]).
    pub rollbacks: usize,
    /// Wall time spent inside the killed maintenance calls (injection
    /// up to the completed rollback).
    pub rollback_wall: Duration,
    /// Wall time of the retries that re-applied the killed batches.
    pub recovery_wall: Duration,
    /// Wall time of the undisturbed maintenance calls.
    pub maintain_wall: Duration,
    /// `true` iff the final maintained χ matches a cold solve of the
    /// final database bit for bit.
    pub recovered: bool,
}

/// The chaos churn: a mixed insertion/deletion stream where every other
/// batch is killed mid-maintenance by a deterministic failpoint. The
/// epoch journal rolls each killed batch back; the harness then retries
/// it with the failpoint disarmed and, at the end of the stream, checks
/// the maintained solution against a cold solve. Measures what a
/// mid-flight fault costs (rollback wall time) and what recovery costs
/// (retry wall time) next to the undisturbed batches.
pub fn run_incremental_chaos(
    data: &Datasets,
    ids: &[&str],
    batches: usize,
    stride: usize,
) -> Vec<ChaosChurnRow> {
    use dualsim_core::{failpoints, MaintainError};
    use dualsim_graph::Triple;
    let mut rows = Vec::new();
    for bench in all_queries().iter().filter(|b| ids.contains(&b.id)) {
        let db = data.for_query(bench);
        let soi = match build_sois(db, &bench.query).pop() {
            Some(soi) => soi,
            None => continue,
        };
        let all: Vec<Triple> = db.triples().collect();
        let victims: Vec<Triple> = all.iter().copied().step_by(stride.max(1)).collect();
        let victim_set: std::collections::HashSet<Triple> = victims.iter().copied().collect();
        let without: Vec<Triple> = all
            .iter()
            .copied()
            .filter(|t| !victim_set.contains(t))
            .collect();
        let chunk = victims.len().div_ceil(batches.max(1)).max(1);
        let chunks: Vec<Vec<Triple>> = victims.chunks(chunk).map(<[Triple]>::to_vec).collect();
        let script: Vec<(bool, Vec<Triple>)> = chunks
            .iter()
            .flat_map(|c| [(true, c.clone()), (false, c.clone())])
            .collect();

        for site in ["counter-increment", "pre-drain"] {
            let cfg = SolverConfig {
                fixpoint: FixpointMode::DeltaCounting,
                early_exit: false,
                ..SolverConfig::default()
            };
            let db_start = db.with_triples(&without).unwrap();
            let mut inc = IncrementalDualSim::new(&db_start, soi.clone(), cfg.clone());
            let mut present: Vec<Triple> = without.clone();
            let (mut killed, mut rollback_wall) = (0usize, Duration::ZERO);
            let (mut recovery_wall, mut maintain_wall) = (Duration::ZERO, Duration::ZERO);
            for (k, (insert, batch)) in script.iter().enumerate() {
                if *insert {
                    present.extend(batch.iter().copied());
                } else {
                    let batch_set: std::collections::HashSet<Triple> =
                        batch.iter().copied().collect();
                    present.retain(|t| !batch_set.contains(t));
                }
                let db_after = db.with_triples(&present).unwrap();
                // Kill every other batch on its first pass through the
                // site; the countdown keeps the schedule deterministic.
                let inject = k % 2 == 0;
                if inject {
                    failpoints::arm(site, 0);
                }
                let start_t = Instant::now();
                let first = if *insert {
                    inc.apply_insertions(&db_after, batch).map(|_| ())
                } else {
                    inc.apply_deletions(&db_after, batch).map(|_| ())
                };
                match first {
                    Ok(()) => {
                        maintain_wall += start_t.elapsed();
                        assert!(!inject, "armed failpoint {site} did not fire on batch {k}");
                    }
                    Err(MaintainError::Failpoint { .. }) => {
                        rollback_wall += start_t.elapsed();
                        killed += 1;
                        failpoints::disarm_all();
                        let retry_t = Instant::now();
                        let retried = if *insert {
                            inc.apply_insertions(&db_after, batch).map(|_| ())
                        } else {
                            inc.apply_deletions(&db_after, batch).map(|_| ())
                        };
                        retried.unwrap();
                        recovery_wall += retry_t.elapsed();
                    }
                    Err(e) => panic!("{}-chaos/{site}: unexpected error {e}", bench.id),
                }
            }
            failpoints::disarm_all();
            let db_final = db.with_triples(&present).unwrap();
            let cold = solve(&db_final, &soi, &cfg);
            let recovered = inc.solution().chi == cold.chi;
            rows.push(ChaosChurnRow {
                id: format!("{}-chaos", bench.id),
                site,
                batches: script.len(),
                killed,
                rollbacks: inc.maintenance_stats().rollbacks,
                rollback_wall,
                recovery_wall,
                maintain_wall,
                recovered,
            });
        }
    }
    rows
}

/// Renders the churn ablation as the machine-readable
/// `BENCH_incremental.json` document (schema `dualsim-incremental-v3`;
/// hand-rolled writer — the workspace has no serde). Tracks per scenario
/// and engine the maintenance work, the re-activation frontier size and
/// how many batches stayed warm; the optional `chaos` section (populated
/// by `experiments incremental --chaos`) records the measured
/// rollback/recovery overhead under injected faults. v3 dropped the
/// drain thread budget and the journal on/off section.
pub fn incremental_report_json(
    data: &Datasets,
    rows: &[IncrementalChurnRow],
    chaos_rows: &[ChaosChurnRow],
) -> String {
    let mut out = String::new();
    out.push_str("{\n  \"schema\": \"dualsim-incremental-v3\",\n");
    out.push_str(&datasets_json(data));
    out.push_str("  \"churn\": [\n");
    for (i, r) in rows.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"id\": {}, \"mode\": {}, \"batches\": {}, \"inserted\": {}, \
             \"deleted\": {}, \"wall_s\": {:.6}, \"ops\": {}, \"reactivations\": {}, \
             \"warm_batches\": {}}}{}\n",
            json_str(&r.id),
            json_str(r.mode),
            r.batches,
            r.inserted,
            r.deleted,
            r.wall.as_secs_f64(),
            r.ops,
            r.reactivations,
            r.warm_batches,
            if i + 1 == rows.len() { "" } else { "," }
        ));
    }
    out.push_str("  ],\n  \"chaos\": [\n");
    for (i, r) in chaos_rows.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"id\": {}, \"site\": {}, \"batches\": {}, \"killed\": {}, \
             \"rollbacks\": {}, \"rollback_wall_s\": {:.6}, \"recovery_wall_s\": {:.6}, \
             \"maintain_wall_s\": {:.6}, \"recovered\": {}}}{}\n",
            json_str(&r.id),
            json_str(r.site),
            r.batches,
            r.killed,
            r.rollbacks,
            r.rollback_wall.as_secs_f64(),
            r.recovery_wall.as_secs_f64(),
            r.maintain_wall.as_secs_f64(),
            r.recovered,
            if i + 1 == chaos_rows.len() { "" } else { "," }
        ));
    }
    out.push_str("  ]\n}\n");
    out
}

/// A fresh scratch directory for a durability run, unique per process
/// and call.
fn scratch_dir(tag: &str) -> std::path::PathBuf {
    use std::sync::atomic::{AtomicU64, Ordering};
    static NEXT: AtomicU64 = AtomicU64::new(0);
    let dir = std::env::temp_dir().join(format!(
        "dualsim-bench-{tag}-{}-{}",
        std::process::id(),
        NEXT.fetch_add(1, Ordering::Relaxed)
    ));
    std::fs::create_dir_all(&dir).expect("scratch dir");
    dir
}

/// The newest `snapshot-*.snap` file in a durability directory, with
/// its size (epoch-padded names sort chronologically).
fn newest_snapshot(dir: &std::path::Path) -> Option<(std::path::PathBuf, u64)> {
    let mut best: Option<(std::ffi::OsString, u64)> = None;
    if let Ok(entries) = std::fs::read_dir(dir) {
        for entry in entries.flatten() {
            let name = entry.file_name();
            let is_snap = name
                .to_str()
                .is_some_and(|n| n.starts_with("snapshot-") && n.ends_with(".snap"));
            if !is_snap {
                continue;
            }
            let len = entry.metadata().map(|m| m.len()).unwrap_or(0);
            if best.as_ref().is_none_or(|(b, _)| name > *b) {
                best = Some((name, len));
            }
        }
    }
    best.map(|(name, len)| (dir.join(name), len))
}

/// One (query, mode) measurement of the durability ablation
/// ([`run_durability`]): the same deletion churn maintained without
/// durability, with the write-ahead log fsynced per batch, and with
/// the fsync disabled (isolating serialization from disk flushes).
#[derive(Debug, Clone)]
pub struct DurabilityRow {
    /// Scenario id (`<query>-durability`).
    pub id: String,
    /// `plain` / `durable` / `durable-nosync`.
    pub mode: &'static str,
    /// Update batches applied.
    pub batches: usize,
    /// Wall time summed over all maintenance calls.
    pub wall: Duration,
    /// Logical work operations summed over all updates — asserted
    /// bit-identical across the three modes: like the journal, the WAL
    /// is pure bookkeeping with zero logical-op overhead.
    pub ops: usize,
    /// Final write-ahead log size in bytes (0 without durability).
    pub wal_bytes: u64,
    /// Size of a full-state snapshot of the final database (0 without
    /// durability) — the "snapshot size vs. graph size" axis.
    pub snapshot_bytes: u64,
    /// Triples in the final database the snapshot serializes.
    pub db_triples: usize,
}

/// One restart measurement of [`run_durability`]: warm recovery
/// (epoch-0 snapshot + full WAL tail replay) next to a cold rebuild of
/// the same final state.
#[derive(Debug, Clone)]
pub struct RecoveryRow {
    /// Scenario id (`<query>-recovery`).
    pub id: String,
    /// Epoch of the snapshot recovery started from.
    pub snapshot_epoch: u64,
    /// WAL records replayed past the snapshot.
    pub records_replayed: usize,
    /// Wall time of `IncrementalDualSim::recover`.
    pub recovery_wall: Duration,
    /// Wall time of a cold solve of the same final database.
    pub cold_wall: Duration,
    /// `true` iff the recovered χ and logical work counters are
    /// bit-identical to the uninterrupted plain run.
    pub recovered: bool,
}

/// One crash-kill measurement of [`run_durability_crash`]: maintenance
/// killed at one registered failpoint site, the process "dies" (the
/// resident instance is dropped), and recovery restarts from disk.
#[derive(Debug, Clone)]
pub struct CrashKillRow {
    /// Scenario id (`<query>-crash`).
    pub id: String,
    /// Failpoint site the kill was injected at.
    pub site: &'static str,
    /// `true` iff the armed site actually fired during the stream.
    pub killed: bool,
    /// Batches the recovered instance reports as committed.
    pub committed: u64,
    /// Wall time of the post-kill recovery.
    pub recovery_wall: Duration,
    /// `true` iff the recovered χ and logical work counters are
    /// bit-identical to an uninterrupted run over the committed prefix.
    pub recovered: bool,
}

/// The durability ablation: the same deletion churn stream maintained
/// three ways — plain, durable (WAL fsynced per batch, the default
/// crash-consistency setting), and durable without fsync. Asserts the
/// logical work counters and per-batch χ are bit-identical across all
/// three (the WAL, like the journal, must cost zero logical ops), then
/// measures the restart axis: warm recovery from the epoch-0 snapshot
/// plus the full WAL tail against a cold rebuild of the final state.
pub fn run_durability(
    data: &Datasets,
    ids: &[&str],
    batches: usize,
    stride: usize,
) -> (Vec<DurabilityRow>, Vec<RecoveryRow>) {
    use dualsim_core::DurabilityOptions;
    use dualsim_graph::Triple;
    let (mut rows, mut recoveries) = (Vec::new(), Vec::new());
    for bench in all_queries().iter().filter(|b| ids.contains(&b.id)) {
        let db = data.for_query(bench);
        let soi = match build_sois(db, &bench.query).pop() {
            Some(soi) => soi,
            None => continue,
        };
        let all: Vec<Triple> = db.triples().collect();
        let victims: Vec<Triple> = all.iter().copied().step_by(stride.max(1)).collect();
        let chunk = victims.len().div_ceil(batches.max(1)).max(1);
        let chunks: Vec<Vec<Triple>> = victims.chunks(chunk).map(<[Triple]>::to_vec).collect();
        let cfg = SolverConfig {
            fixpoint: FixpointMode::DeltaCounting,
            early_exit: false,
            ..SolverConfig::default()
        };

        let mut per_mode: Vec<(Vec<_>, DurabilityRow)> = Vec::new();
        let mut durable_dir: Option<std::path::PathBuf> = None;
        for (mode, durable, fsync) in [
            ("plain", false, false),
            ("durable", true, true),
            ("durable-nosync", true, false),
        ] {
            let dir = if durable {
                scratch_dir("durability")
            } else {
                std::path::PathBuf::new()
            };
            let mut inc = if durable {
                let mut opts = DurabilityOptions::new(&dir);
                opts.fsync = fsync;
                IncrementalDualSim::new_durable(db, soi.clone(), cfg.clone(), &opts)
                    .expect("durable construction")
            } else {
                IncrementalDualSim::new(db, soi.clone(), cfg.clone())
            };
            let mut present: Vec<Triple> = all.clone();
            let mut wall = Duration::ZERO;
            let mut snapshots = Vec::new();
            for batch in &chunks {
                let batch_set: std::collections::HashSet<Triple> =
                    batch.iter().copied().collect();
                present.retain(|t| !batch_set.contains(t));
                let db_after = db.with_triples(&present).unwrap();
                let start_t = Instant::now();
                inc.apply_deletions(&db_after, batch).unwrap();
                wall += start_t.elapsed();
                snapshots.push(inc.solution().chi.clone());
            }
            let wal_bytes = if durable {
                std::fs::metadata(dir.join("wal.log")).map(|m| m.len()).unwrap_or(0)
            } else {
                0
            };
            // The snapshot-size axis: serialize the *final* resident
            // state once, after the stream (off the maintenance clock).
            let snapshot_bytes = if durable {
                let db_final = db.with_triples(&present).unwrap();
                inc.snapshot_now(&db_final).expect("final snapshot");
                newest_snapshot(&dir).map_or(0, |(_, len)| len)
            } else {
                0
            };
            per_mode.push((
                snapshots,
                DurabilityRow {
                    id: format!("{}-durability", bench.id),
                    mode,
                    batches: chunks.len(),
                    wall,
                    ops: inc.maintenance_stats().work_ops(),
                    wal_bytes,
                    snapshot_bytes,
                    db_triples: present.len(),
                },
            ));
            if durable && fsync {
                durable_dir = Some(dir);
            } else if durable {
                let _ = std::fs::remove_dir_all(&dir);
            }
        }
        let (ref_snapshots, ref_row) = &per_mode[0];
        for (snapshots, row) in &per_mode[1..] {
            assert_eq!(
                ref_snapshots, snapshots,
                "{} ({}): durable maintenance diverged from the plain run",
                row.id, row.mode
            );
            assert_eq!(
                ref_row.ops, row.ops,
                "{} ({}): the WAL changed the logical work",
                row.id, row.mode
            );
        }

        // Restart axis: recover from the fsynced run's directory —
        // epoch-0 snapshot plus every WAL record — and race a cold
        // rebuild of the same final database.
        let dir = durable_dir.expect("fsynced durable run ran");
        let plain = {
            // Reference for bit-identical recovery: the uninterrupted
            // plain run is per_mode[0], but its instance is gone; redo
            // cheaply via chi snapshots? χ is in ref_snapshots; logical
            // stats need a live instance, so rebuild one.
            let mut inc = IncrementalDualSim::new(db, soi.clone(), cfg.clone());
            let mut present: Vec<Triple> = all.clone();
            for batch in &chunks {
                let batch_set: std::collections::HashSet<Triple> =
                    batch.iter().copied().collect();
                present.retain(|t| !batch_set.contains(t));
                let db_after = db.with_triples(&present).unwrap();
                inc.apply_deletions(&db_after, batch).unwrap();
            }
            (inc, present)
        };
        // The final sizing snapshot would make recovery trivial (zero
        // records replayed); drop it so the measured restart is the
        // realistic one — epoch-0 snapshot load plus full WAL tail.
        if let Some((path, _)) = newest_snapshot(&dir) {
            let _ = std::fs::remove_file(path);
        }
        let opts = DurabilityOptions::new(&dir);
        let start_t = Instant::now();
        let rec = IncrementalDualSim::recover(&opts).expect("recovery");
        let recovery_wall = start_t.elapsed();
        let db_final = db.with_triples(&plain.1).unwrap();
        let start_t = Instant::now();
        let cold = solve(&db_final, &soi, &cfg);
        let cold_wall = start_t.elapsed();
        let recovered = rec.sim.solution().chi == plain.0.solution().chi
            && rec.sim.maintenance_stats().logical() == plain.0.maintenance_stats().logical()
            && cold.chi == rec.sim.solution().chi;
        recoveries.push(RecoveryRow {
            id: format!("{}-recovery", bench.id),
            snapshot_epoch: rec.report.snapshot_epoch,
            records_replayed: rec.report.records_replayed,
            recovery_wall,
            cold_wall,
            recovered,
        });
        let _ = std::fs::remove_dir_all(&dir);
        rows.extend(per_mode.into_iter().map(|(_, row)| row));
    }
    (rows, recoveries)
}

/// The crash-recovery sweep: for every registered failpoint site, a
/// durable deletion churn is killed at that site (the armed failpoint
/// makes the maintenance call fail exactly as a crash would interrupt
/// it), the resident instance is dropped — the "process death" — and
/// [`IncrementalDualSim::recover`] restarts from the snapshot and the
/// WAL. The recovered χ and logical work counters must be bit-identical
/// to an uninterrupted run over the committed prefix the report names.
pub fn run_durability_crash(data: &Datasets, ids: &[&str]) -> Vec<CrashKillRow> {
    use dualsim_core::{failpoints, DurabilityOptions};
    use dualsim_graph::Triple;
    let mut rows = Vec::new();
    for bench in all_queries().iter().filter(|b| ids.contains(&b.id)) {
        let db = data.for_query(bench);
        let soi = match build_sois(db, &bench.query).pop() {
            Some(soi) => soi,
            None => continue,
        };
        let all: Vec<Triple> = db.triples().collect();
        let victims: Vec<Triple> = all.iter().copied().step_by(3).collect();
        let chunk = victims.len().div_ceil(2).max(1);
        // A mixed script — delete a chunk, insert it back — so both the
        // decrement/drain sites and the insertion frontier's increment
        // sites lie on the stream's path.
        let script: Vec<(bool, Vec<Triple>)> = victims
            .chunks(chunk)
            .flat_map(|c| [(false, c.to_vec()), (true, c.to_vec())])
            .collect();
        let cfg = SolverConfig {
            fixpoint: FixpointMode::DeltaCounting,
            early_exit: false,
            ..SolverConfig::default()
        };
        for site in failpoints::registered_sites() {
            let dir = scratch_dir("crash");
            let mut opts = DurabilityOptions::new(&dir);
            // Snapshot on every even epoch so the kill window (armed
            // from the second batch on) exercises the snapshot path too.
            opts.snapshot_every = Some(2);
            let mut inc = IncrementalDualSim::new_durable(db, soi.clone(), cfg.clone(), &opts)
                .expect("durable construction");
            let mut present: Vec<Triple> = all.clone();
            let mut killed = false;
            for (k, (insert, batch)) in script.iter().enumerate() {
                let batch_set: std::collections::HashSet<Triple> =
                    batch.iter().copied().collect();
                let mut next = present.clone();
                if *insert {
                    next.extend(batch.iter().copied());
                    next.sort_unstable();
                } else {
                    next.retain(|t| !batch_set.contains(t));
                }
                let db_after = db.with_triples(&next).unwrap();
                if k == 1 {
                    failpoints::arm(site, 0);
                    if site == "rollback" {
                        // The rollback site is only reached while a
                        // rollback is in flight; trigger one.
                        failpoints::arm("pre-drain", 0);
                    }
                }
                let applied = if *insert {
                    inc.apply_insertions(&db_after, batch).map(|_| ())
                } else {
                    inc.apply_deletions(&db_after, batch).map(|_| ())
                };
                match applied {
                    Ok(()) => present = next,
                    Err(_) => {
                        // The kill: drop the resident instance with the
                        // failure un-handled, exactly like a dying
                        // process would.
                        killed = true;
                        break;
                    }
                }
            }
            failpoints::disarm_all();
            drop(inc);
            let start_t = Instant::now();
            let rec = IncrementalDualSim::recover(&DurabilityOptions::new(&dir))
                .expect("post-kill recovery");
            let recovery_wall = start_t.elapsed();
            let committed = rec.report.epoch;
            // Uninterrupted reference over the committed prefix.
            let mut reference = IncrementalDualSim::new(db, soi.clone(), cfg.clone());
            let mut present: Vec<Triple> = all.clone();
            for (insert, batch) in script.iter().take(committed as usize) {
                let batch_set: std::collections::HashSet<Triple> =
                    batch.iter().copied().collect();
                if *insert {
                    present.extend(batch.iter().copied());
                    present.sort_unstable();
                } else {
                    present.retain(|t| !batch_set.contains(t));
                }
                let db_after = db.with_triples(&present).unwrap();
                if *insert {
                    reference.apply_insertions(&db_after, batch).unwrap();
                } else {
                    reference.apply_deletions(&db_after, batch).unwrap();
                }
            }
            let recovered = rec.sim.solution().chi == reference.solution().chi
                && rec.sim.maintenance_stats().logical() == reference.maintenance_stats().logical();
            rows.push(CrashKillRow {
                id: format!("{}-crash", bench.id),
                site,
                killed,
                committed,
                recovery_wall,
                recovered,
            });
            let _ = std::fs::remove_dir_all(&dir);
        }
    }
    rows
}

/// Renders the durability ablation as the machine-readable
/// `BENCH_durability.json` document (schema `dualsim-durability-v1`;
/// hand-rolled writer — the workspace has no serde): the WAL append
/// overhead per batch at asserted-zero logical-op cost, snapshot size
/// against graph size, warm recovery against a cold rebuild, and the
/// kill-at-every-failpoint crash sweep.
pub fn durability_report_json(
    data: &Datasets,
    rows: &[DurabilityRow],
    recoveries: &[RecoveryRow],
    crashes: &[CrashKillRow],
) -> String {
    let mut out = String::new();
    out.push_str("{\n  \"schema\": \"dualsim-durability-v1\",\n");
    out.push_str(&datasets_json(data));
    out.push_str("  \"churn\": [\n");
    for (i, r) in rows.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"id\": {}, \"mode\": {}, \"batches\": {}, \"wall_s\": {:.6}, \
             \"ops\": {}, \"wal_bytes\": {}, \"snapshot_bytes\": {}, \"db_triples\": {}}}{}\n",
            json_str(&r.id),
            json_str(r.mode),
            r.batches,
            r.wall.as_secs_f64(),
            r.ops,
            r.wal_bytes,
            r.snapshot_bytes,
            r.db_triples,
            if i + 1 == rows.len() { "" } else { "," }
        ));
    }
    out.push_str("  ],\n  \"recovery\": [\n");
    for (i, r) in recoveries.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"id\": {}, \"snapshot_epoch\": {}, \"records_replayed\": {}, \
             \"recovery_wall_s\": {:.6}, \"cold_wall_s\": {:.6}, \"recovered\": {}}}{}\n",
            json_str(&r.id),
            r.snapshot_epoch,
            r.records_replayed,
            r.recovery_wall.as_secs_f64(),
            r.cold_wall.as_secs_f64(),
            r.recovered,
            if i + 1 == recoveries.len() { "" } else { "," }
        ));
    }
    out.push_str("  ],\n  \"crash\": [\n");
    for (i, r) in crashes.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"id\": {}, \"site\": {}, \"killed\": {}, \"committed\": {}, \
             \"recovery_wall_s\": {:.6}, \"recovered\": {}}}{}\n",
            json_str(&r.id),
            json_str(r.site),
            r.killed,
            r.committed,
            r.recovery_wall.as_secs_f64(),
            r.recovered,
            if i + 1 == crashes.len() { "" } else { "," }
        ));
    }
    out.push_str("  ]\n}\n");
    out
}

/// Fleet sizes of the resident-session ablation: a lone standing query,
/// a working set, and a fan-out-heavy registry.
pub const SESSION_FLEETS: [usize; 3] = [1, 8, 32];

/// One (fleet size, mode) measurement of the resident-session ablation
/// ([`run_session`]).
#[derive(Debug, Clone)]
pub struct SessionRow {
    /// Scenario id (`lubm-<N>q`).
    pub id: String,
    /// `session` (one shared-batch fan-out), `independent` (N separate
    /// maintenance loops) or `session-chaos` (same session with one
    /// fan-out kill injected).
    pub mode: &'static str,
    /// Standing queries in the fleet.
    pub queries: usize,
    /// Update batches applied.
    pub batches: usize,
    /// Wall time registering the fleet (the initial cold solves).
    pub register_wall: Duration,
    /// Wall time summed over all update batches.
    pub wall: Duration,
    /// Triple validations performed across the stream — the session
    /// validates each batch once, the independent loops once per query.
    pub validations: usize,
    /// Logical work operations summed over every query's branches.
    pub ops: usize,
    /// Failed per-query batch applications.
    pub failures: usize,
    /// Queries healed by backlog replay.
    pub replay_heals: usize,
    /// Queries healed by a cold rebuild.
    pub rebuild_heals: usize,
    /// Queries quarantined (must stay zero under the chaos scenario —
    /// a single kill heals without escalation).
    pub quarantines: usize,
}

/// The standing-query fleet for a session scenario: the LUBM workload
/// queries cycled up to `n`, each under a distinct registry name.
fn session_fleet(n: usize) -> Vec<(String, &'static str)> {
    let lubm: Vec<BenchQuery> = all_queries()
        .into_iter()
        .filter(|b| b.dataset == Dataset::Lubm)
        .collect();
    (0..n)
        .map(|i| {
            let bench = &lubm[i % lubm.len()];
            (format!("q{:02}-{}", i, bench.id), bench.text)
        })
        .collect()
}

/// The resident-session ablation: for each fleet size, the same mixed
/// churn stream (delete a chunk, insert it back) is maintained three
/// ways — by one [`QuerySession`](dualsim_core::QuerySession) that
/// validates each batch once and fans it out, by N independent
/// maintenance loops that each validate, dedup and materialize the
/// batch themselves, and by a session with one `session-fanout` kill
/// injected (measuring the degrade → backlog-replay heal cycle).
///
/// Correctness is asserted inside the run: every session query must
/// finish bit-identical (χ and logical work counters) to its
/// independent loop, and the chaos session must converge back to the
/// unharmed session's state with zero quarantines.
pub fn run_session(data: &Datasets, fleets: &[usize], batches: usize, stride: usize) -> Vec<SessionRow> {
    use dualsim_core::{failpoints, QueryOutcome, QuerySession, SessionOptions};
    use dualsim_graph::Triple;
    let db = &data.lubm;
    let all: Vec<Triple> = db.triples().collect();
    let victims: Vec<Triple> = all.iter().copied().step_by(stride.max(1)).collect();
    let nchunks = (batches / 2).max(1);
    let chunk = victims.len().div_ceil(nchunks).max(1);
    let script: Vec<(bool, Vec<Triple>)> = victims
        .chunks(chunk)
        .flat_map(|c| [(false, c.to_vec()), (true, c.to_vec())])
        .collect();
    let cfg = SolverConfig {
        fixpoint: FixpointMode::DeltaCounting,
        early_exit: false,
        ..SolverConfig::default()
    };

    let mut rows = Vec::new();
    for &n in fleets {
        let fleet = session_fleet(n);
        let id = format!("lubm-{n}q");

        // Mode 1: the shared-batch session.
        let start_t = Instant::now();
        let mut session = QuerySession::new(db.clone(), SessionOptions::default());
        for (name, text) in &fleet {
            session
                .register(name, text, cfg.clone())
                .expect("session registration");
        }
        let register_wall = start_t.elapsed();
        let mut wall = Duration::ZERO;
        for (insert, batch) in &script {
            let start_t = Instant::now();
            let report = session.apply_batch(*insert, batch).expect("session batch");
            wall += start_t.elapsed();
            for (name, outcome) in &report.outcomes {
                assert!(
                    matches!(outcome, QueryOutcome::Committed { .. }),
                    "{id}: `{name}` did not commit a fault-free batch"
                );
            }
        }
        let ops: usize = fleet
            .iter()
            .map(|(name, _)| {
                session
                    .maintenance_stats(name)
                    .expect("registered query")
                    .iter()
                    .map(|s| s.work_ops())
                    .sum::<usize>()
            })
            .sum();
        let s = session.stats().clone();
        rows.push(SessionRow {
            id: id.clone(),
            mode: "session",
            queries: n,
            batches: script.len(),
            register_wall,
            wall,
            validations: s.triples_validated,
            ops,
            failures: s.failures,
            replay_heals: s.replay_heals,
            rebuild_heals: s.rebuild_heals,
            quarantines: s.quarantines,
        });

        // Mode 2: N independent maintenance loops — every query
        // validates, dedups and materializes every batch on its own.
        let start_t = Instant::now();
        let mut loops: Vec<(String, Vec<IncrementalDualSim>)> = fleet
            .iter()
            .map(|(name, text)| {
                let query = dualsim_query::parse(text).expect("workload query");
                let sims = build_sois(db, &query)
                    .into_iter()
                    .map(|soi| IncrementalDualSim::new(db, soi, cfg.clone()))
                    .collect();
                (name.clone(), sims)
            })
            .collect();
        let register_wall = start_t.elapsed();
        let mut wall = Duration::ZERO;
        let mut validations = 0usize;
        let mut presents: Vec<std::collections::BTreeSet<Triple>> =
            vec![all.iter().copied().collect(); fleet.len()];
        for (insert, batch) in &script {
            for ((_, sims), present) in loops.iter_mut().zip(presents.iter_mut()) {
                let start_t = Instant::now();
                // The per-loop copy of the validation work the session
                // performs once: dedup the batch, drop no-ops against
                // this loop's own resident set, materialize its own
                // post-batch database.
                validations += batch.len();
                let effective: Vec<Triple> = batch
                    .iter()
                    .copied()
                    .collect::<std::collections::BTreeSet<Triple>>()
                    .into_iter()
                    .filter(|t| *insert != present.contains(t))
                    .collect();
                if effective.is_empty() {
                    continue;
                }
                if *insert {
                    present.extend(effective.iter().copied());
                } else {
                    for t in &effective {
                        present.remove(t);
                    }
                }
                let present_vec: Vec<Triple> = present.iter().copied().collect();
                let db_after = db.with_triples(&present_vec).expect("vocabulary-closed batch");
                for sim in sims.iter_mut() {
                    if *insert {
                        sim.apply_insertions(&db_after, &effective).expect("insertion");
                    } else {
                        sim.apply_deletions(&db_after, &effective).expect("deletion");
                    }
                }
                wall += start_t.elapsed();
            }
        }
        let mut ops = 0usize;
        for (name, sims) in &loops {
            let solutions = session.solutions(name).expect("registered query");
            assert_eq!(solutions.len(), sims.len(), "{id}: branch count diverged");
            for (b, (sim, solution)) in sims.iter().zip(&solutions).enumerate() {
                assert_eq!(
                    sim.solution().chi,
                    solution.chi,
                    "{id}: `{name}` branch {b} diverged from its independent loop"
                );
                assert_eq!(
                    sim.maintenance_stats().logical(),
                    session.maintenance_stats(name).expect("registered query")[b].logical(),
                    "{id}: `{name}` branch {b} did different logical work"
                );
                ops += sim.maintenance_stats().work_ops();
            }
        }
        rows.push(SessionRow {
            id: id.clone(),
            mode: "independent",
            queries: n,
            batches: script.len(),
            register_wall,
            wall,
            validations,
            ops,
            failures: 0,
            replay_heals: 0,
            rebuild_heals: 0,
            quarantines: 0,
        });

        // Mode 3: the same session with one fan-out kill injected on
        // the second batch — the first query in registry order degrades
        // alone, serves its stale match set, and heals by backlog
        // replay one batch later. The healing cost is inside `wall`.
        let start_t = Instant::now();
        let mut chaotic = QuerySession::new(db.clone(), SessionOptions::default());
        for (name, text) in &fleet {
            chaotic
                .register(name, text, cfg.clone())
                .expect("session registration");
        }
        let register_wall = start_t.elapsed();
        let mut wall = Duration::ZERO;
        for (k, (insert, batch)) in script.iter().enumerate() {
            if k == 1 {
                failpoints::arm("session-fanout", 0);
            }
            let start_t = Instant::now();
            chaotic.apply_batch(*insert, batch).expect("session batch");
            wall += start_t.elapsed();
        }
        failpoints::disarm_all();
        let mut ops = 0usize;
        for (name, _) in &fleet {
            assert!(
                chaotic.health(name).expect("registered query").is_healthy(),
                "{id}: `{name}` did not heal before the stream ended"
            );
            let healed = chaotic.solutions(name).expect("registered query");
            let reference = session.solutions(name).expect("registered query");
            for (b, (h, r)) in healed.iter().zip(&reference).enumerate() {
                assert_eq!(
                    h.chi, r.chi,
                    "{id}: `{name}` branch {b} healed to a different solution"
                );
            }
            ops += chaotic
                .maintenance_stats(name)
                .expect("registered query")
                .iter()
                .map(|s| s.work_ops())
                .sum::<usize>();
        }
        let s = chaotic.stats().clone();
        rows.push(SessionRow {
            id,
            mode: "session-chaos",
            queries: n,
            batches: script.len(),
            register_wall,
            wall,
            validations: s.triples_validated,
            ops,
            failures: s.failures,
            replay_heals: s.replay_heals,
            rebuild_heals: s.rebuild_heals,
            quarantines: s.quarantines,
        });
    }
    rows
}

/// Renders the resident-session ablation as the machine-readable
/// `BENCH_session.json` document (schema `dualsim-session-v1`;
/// hand-rolled writer — the workspace has no serde): per fleet size the
/// shared-batch session against N independent maintenance loops
/// (validation amortization at asserted work parity) and the chaos
/// session's degrade → replay-heal cycle.
pub fn session_report_json(data: &Datasets, rows: &[SessionRow]) -> String {
    let mut out = String::new();
    out.push_str("{\n  \"schema\": \"dualsim-session-v1\",\n");
    out.push_str(&datasets_json(data));
    out.push_str("  \"fleets\": [\n");
    for (i, r) in rows.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"id\": {}, \"mode\": {}, \"queries\": {}, \"batches\": {}, \
             \"register_wall_s\": {:.6}, \"wall_s\": {:.6}, \"validations\": {}, \
             \"ops\": {}, \"failures\": {}, \"replay_heals\": {}, \"rebuild_heals\": {}, \
             \"quarantines\": {}}}{}\n",
            json_str(&r.id),
            json_str(r.mode),
            r.queries,
            r.batches,
            r.register_wall.as_secs_f64(),
            r.wall.as_secs_f64(),
            r.validations,
            r.ops,
            r.failures,
            r.replay_heals,
            r.rebuild_heals,
            r.quarantines,
            if i + 1 == rows.len() { "" } else { "," }
        ));
    }
    out.push_str("  ]\n}\n");
    out
}

/// The queries of the §3.3 heuristics ablation: the two Fig. 6 queries,
/// the other cyclic LUBM query, and two DBpedia shapes (the same slice
/// the `ablation_strategies` criterion bench measures).
pub const STRATEGY_ABLATION_QUERIES: [&str; 6] = ["L0", "L1", "L2", "D4", "B2", "B14"];

/// One (query, configuration) measurement of the §3.3 heuristics
/// ablation: evaluation strategy × inequality ordering × initialization,
/// with deterministic work counts so CI can diff `BENCH_strategies.json`
/// instead of timing.
#[derive(Debug, Clone)]
pub struct StrategyRow {
    /// Query id.
    pub id: String,
    /// Evaluation strategy name (`rowwise` / `colwise` / `adaptive`).
    pub strategy: &'static str,
    /// Inequality ordering name (`query-order` / `sparsity`).
    pub ordering: &'static str,
    /// Initialization name (`eq12` / `eq13`).
    pub init: &'static str,
    /// Median wall time over the measured repetitions.
    pub wall: Duration,
    /// Stabilization passes.
    pub iterations: usize,
    /// Inequality evaluations.
    pub evaluations: usize,
    /// χ updates.
    pub updates: usize,
    /// Matrix rows OR-ed.
    pub rows_ored: usize,
    /// Candidate rows probed.
    pub bits_probed: usize,
    /// Unified work measure ([`SolveStats::work_ops`]).
    pub ops: usize,
}

/// The §3.3 heuristics ablation over [`STRATEGY_ABLATION_QUERIES`]:
/// every strategy × ordering × initialization combination of the
/// re-evaluation engine, with an internal assertion that all
/// configurations converge to bit-identical χ per query.
pub fn run_strategies_ablation(data: &Datasets, reps: usize) -> Vec<StrategyRow> {
    let strategies = [
        ("rowwise", EvalStrategy::RowWise),
        ("colwise", EvalStrategy::ColumnWise),
        ("adaptive", EvalStrategy::Adaptive),
    ];
    let orderings = [
        ("query-order", IneqOrdering::QueryOrder),
        ("sparsity", IneqOrdering::SparsityFirst),
    ];
    let inits = [("eq12", InitMode::AllOnes), ("eq13", InitMode::Summaries)];
    let mut rows = Vec::new();
    for bench in all_queries()
        .iter()
        .filter(|b| STRATEGY_ABLATION_QUERIES.contains(&b.id))
    {
        let db = data.for_query(bench);
        let mut reference: Option<Vec<_>> = None;
        for (sname, strategy) in strategies {
            for (oname, ordering) in orderings {
                for (iname, init) in inits {
                    let cfg = SolverConfig {
                        strategy,
                        ordering,
                        init,
                        ..SolverConfig::default()
                    };
                    let (branches, wall) =
                        time_median(reps, || dualsim_core::solve_query(db, &bench.query, &cfg));
                    let stats = sum_branch_stats(&branches);
                    let chis: Vec<_> = branches.into_iter().map(|(_, s)| s.chi).collect();
                    match &reference {
                        None => reference = Some(chis),
                        Some(r) => assert_eq!(
                            r, &chis,
                            "{}: {sname}/{oname}/{iname} disagrees on χ",
                            bench.id
                        ),
                    }
                    rows.push(StrategyRow {
                        id: bench.id.to_owned(),
                        strategy: sname,
                        ordering: oname,
                        init: iname,
                        wall,
                        iterations: stats.iterations,
                        evaluations: stats.evaluations,
                        updates: stats.updates,
                        rows_ored: stats.rows_ored,
                        bits_probed: stats.bits_probed,
                        ops: stats.work_ops(),
                    });
                }
            }
        }
    }
    rows
}

/// Renders the strategies ablation as the machine-readable
/// `BENCH_strategies.json` document (schema `dualsim-strategies-v1`).
pub fn strategies_report_json(data: &Datasets, rows: &[StrategyRow]) -> String {
    let mut out = String::new();
    out.push_str("{\n  \"schema\": \"dualsim-strategies-v1\",\n");
    out.push_str(&datasets_json(data));
    out.push_str("  \"solve\": [\n");
    for (i, r) in rows.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"id\": {}, \"strategy\": {}, \"ordering\": {}, \"init\": {}, \
             \"wall_s\": {:.6}, \"iterations\": {}, \"evaluations\": {}, \"updates\": {}, \
             \"rows_ored\": {}, \"bits_probed\": {}, \"ops\": {}}}{}\n",
            json_str(&r.id),
            json_str(r.strategy),
            json_str(r.ordering),
            json_str(r.init),
            r.wall.as_secs_f64(),
            r.iterations,
            r.evaluations,
            r.updates,
            r.rows_ored,
            r.bits_probed,
            r.ops,
            if i + 1 == rows.len() { "" } else { "," }
        ));
    }
    out.push_str("  ]\n}\n");
    out
}

/// The two concrete χ storage backends as (display name, backend)
/// pairs (`Auto` resolves to one of these per solve and is not a
/// separate measurement).
pub const CHI_BACKENDS: [(&str, ChiBackend); 2] = [
    ("dense", ChiBackend::Dense),
    ("rle", ChiBackend::Rle),
];

/// One (workload, engine, backend) measurement of the χ-storage
/// ablation: deterministic work counters plus the backend-dependent
/// peak χ storage, the evidence `BENCH_chi.json` tracks.
#[derive(Debug, Clone)]
pub struct ChiBackendRow {
    /// Query id.
    pub id: String,
    /// Fixpoint engine name (`reevaluate` / `delta`).
    pub mode: &'static str,
    /// χ backend name (`dense` / `rle`).
    pub backend: &'static str,
    /// Median wall time over the measured repetitions.
    pub wall: Duration,
    /// Peak χ storage in `u64`-equivalent words, summed over branches
    /// ([`SolveStats::chi_peak_words`]).
    pub chi_peak_words: usize,
    /// Candidates after initialization.
    pub initial_candidates: usize,
    /// Candidates at the fixpoint.
    pub final_candidates: usize,
    /// Matrix rows OR-ed.
    pub rows_ored: usize,
    /// Candidate rows probed.
    pub bits_probed: usize,
    /// Support-counter increments.
    pub counter_inits: usize,
    /// Support-counter decrements.
    pub counter_decrements: usize,
    /// Unified work measure ([`SolveStats::work_ops`]) — must be
    /// identical across backends for fixed (query, engine).
    pub ops: usize,
}

/// Sparse-candidate scenarios of the χ-storage ablation, on top of the
/// paper workload: queries over *rare* predicates (`ub:headOf` — one
/// edge per department), whose seeded candidate sets stay in the tens
/// while |V| grows with the database — exactly the tiny-but-wide χ
/// shape run-length encoding is for. The L/D/B rows seed thousands of
/// interleaved candidate ids (the generators alternate entity and
/// literal interning), so they document where dense wins; these rows
/// document where RLE does.
pub const CHI_SPARSE_SCENARIOS: [(&str, &str); 2] = [
    ("S0-heads", "{ ?h ub:headOf ?d . ?d ub:subOrganizationOf ?u }"),
    ("S1-org-chart", "{ ?d ub:subOrganizationOf ?u . ?h ub:headOf ?d }"),
];

/// The χ-storage ablation: cold solves of every workload query — plus
/// the [`CHI_SPARSE_SCENARIOS`] rare-predicate rows on the LUBM
/// database — under both fixpoint engines × both concrete χ backends.
/// Asserts the backend-parity discipline along the way — per (query,
/// engine), the dense and RLE backends must produce bit-identical χ
/// and identical *logical* work counters ([`SolveStats::logical`]);
/// only the χ storage metric may (and should, on the sparse-candidate
/// rows) differ.
pub fn run_chi_backend_ablation(data: &Datasets, reps: usize) -> Vec<ChiBackendRow> {
    let mut scenarios: Vec<(String, &GraphDb, Query)> = all_queries()
        .into_iter()
        .map(|bench| {
            (
                bench.id.to_owned(),
                data.for_query(&bench),
                bench.query.clone(),
            )
        })
        .collect();
    for (id, text) in CHI_SPARSE_SCENARIOS {
        let query = dualsim_query::parse(text).expect("sparse scenario parses");
        scenarios.push((id.to_owned(), &data.lubm, query));
    }
    let mut rows = Vec::new();
    for (id, db, query) in &scenarios {
        for (mode, fixpoint) in FIXPOINT_MODES {
            let mut per_backend = Vec::new();
            for (bname, chi_backend) in CHI_BACKENDS {
                let cfg = SolverConfig {
                    fixpoint,
                    chi_backend,
                    ..SolverConfig::default()
                };
                let (branches, wall) =
                    time_median(reps, || dualsim_core::solve_query(db, query, &cfg));
                let stats = sum_branch_stats(&branches);
                rows.push(ChiBackendRow {
                    id: id.clone(),
                    mode,
                    backend: bname,
                    wall,
                    chi_peak_words: stats.chi_peak_words,
                    initial_candidates: stats.initial_candidates,
                    final_candidates: stats.final_candidates,
                    rows_ored: stats.rows_ored,
                    bits_probed: stats.bits_probed,
                    counter_inits: stats.counter_inits,
                    counter_decrements: stats.counter_decrements,
                    ops: stats.work_ops(),
                });
                per_backend.push(branches);
            }
            let (dense, rle) = (&per_backend[0], &per_backend[1]);
            assert_eq!(dense.len(), rle.len(), "{id}");
            for ((_, d), (_, r)) in dense.iter().zip(rle.iter()) {
                assert_eq!(
                    d.chi, r.chi,
                    "{id} ({mode}): χ differs between chi backends"
                );
                assert_eq!(
                    d.stats.logical(),
                    r.stats.logical(),
                    "{id} ({mode}): logical work differs between chi backends"
                );
            }
        }
    }
    rows
}

/// Renders the χ-storage ablation as the machine-readable
/// `BENCH_chi.json` document (schema `dualsim-chi-v1`).
pub fn chi_report_json(data: &Datasets, rows: &[ChiBackendRow]) -> String {
    let mut out = String::new();
    out.push_str("{\n  \"schema\": \"dualsim-chi-v1\",\n");
    out.push_str(&datasets_json(data));
    out.push_str("  \"solve\": [\n");
    for (i, r) in rows.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"id\": {}, \"mode\": {}, \"backend\": {}, \"wall_s\": {:.6}, \
             \"chi_peak_words\": {}, \"initial_candidates\": {}, \"final_candidates\": {}, \
             \"rows_ored\": {}, \"bits_probed\": {}, \"counter_inits\": {}, \
             \"counter_decrements\": {}, \"ops\": {}}}{}\n",
            json_str(&r.id),
            json_str(r.mode),
            json_str(r.backend),
            r.wall.as_secs_f64(),
            r.chi_peak_words,
            r.initial_candidates,
            r.final_candidates,
            r.rows_ored,
            r.bits_probed,
            r.counter_inits,
            r.counter_decrements,
            r.ops,
            if i + 1 == rows.len() { "" } else { "," }
        ));
    }
    out.push_str("  ]\n}\n");
    out
}

/// The three counter-slab storage backends as (display name, backend)
/// pairs — unlike the χ ablation, `auto` is measured as its own row,
/// because the gate asserts it resolves to the cheaper concrete backend
/// on the sparse scenarios.
pub const SLAB_BACKENDS: [(&str, SlabBackend); 3] = [
    ("dense", SlabBackend::Dense),
    ("sparse", SlabBackend::Sparse),
    ("auto", SlabBackend::Auto),
];

/// Counter-seeding sparse scenarios of the slab ablation, on top of the
/// paper workload and the [`CHI_SPARSE_SCENARIOS`] (which defer every
/// seed — their slabs stay at zero words, the laziness showcase):
///
/// * `S2-uni0-chain` pins a constant university, so the seeded χ
///   *violates* the rare-predicate inequalities: `B^subOrganizationOf`
///   seeds eagerly from a one-node selector, `F^worksFor` from the
///   ~|departments| head set, and the cross-university cascade lazily
///   seeds the rest — tiny supported-column populations against a dense
///   cost of ⌈|V|/2⌉ words per slab, the ≥4× sparse-storage gate.
/// * `S3-head-pubs` removes every publication without a head author in
///   one round: publication ids are interned contiguously per
///   department, so the removals coalesce into runs and the run-aware
///   RLE-χ drain pays one CSR segment lookup per run where the dense-χ
///   drain pays one row lookup per removed node — the `row_lookups`
///   gate.
pub const SLAB_SPARSE_SCENARIOS: [(&str, &str); 2] = [
    (
        "S2-uni0-chain",
        "{ ?h ub:headOf ?d . ?d ub:subOrganizationOf <uni0> . ?h ub:worksFor ?d }",
    ),
    (
        "S3-head-pubs",
        "{ ?p rdf:type <ub:Publication> . ?p ub:publicationAuthor ?h . ?h ub:headOf ?d }",
    ),
];

/// One (workload, χ backend, slab backend) measurement of the
/// counter-slab ablation: the delta engine's logical work counters
/// (identical across the whole grid, asserted) plus the two
/// backend-dependent gauges — counter storage (`slab_peak_words`, the
/// slab-backend axis) and drain row-pointer loads (`row_lookups`, the
/// χ-backend axis).
#[derive(Debug, Clone)]
pub struct SlabRow {
    /// Query id.
    pub id: String,
    /// χ backend name (`dense` / `rle`).
    pub chi: &'static str,
    /// Slab backend name (`dense` / `sparse` / `auto`).
    pub slab: &'static str,
    /// Median wall time over the measured repetitions.
    pub wall: Duration,
    /// Peak counter storage in `u64`-equivalent words
    /// ([`SolveStats::slab_peak_words`], summed over branches).
    pub slab_peak_words: usize,
    /// Peak χ storage ([`SolveStats::chi_peak_words`]).
    pub chi_peak_words: usize,
    /// Drain CSR row/segment lookups ([`SolveStats::row_lookups`]).
    pub row_lookups: usize,
    /// Support-counter increments (identical across the grid).
    pub counter_inits: usize,
    /// Support-counter decrements (identical across the grid).
    pub counter_decrements: usize,
    /// Worklist removal events (identical across the grid).
    pub delta_removals: usize,
    /// Seeds deferred at initialization (identical across the grid).
    pub seeds_deferred: usize,
    /// Deferred seeds triggered later (identical across the grid).
    pub lazy_seeds: usize,
    /// Unified work measure ([`SolveStats::work_ops`]).
    pub ops: usize,
}

/// The counter-slab ablation: cold delta-engine solves of every
/// workload query plus the [`CHI_SPARSE_SCENARIOS`] and
/// [`SLAB_SPARSE_SCENARIOS`] rare-predicate rows, across χ backend
/// {dense, rle} × slab backend {dense, sparse, auto}. Asserts the
/// parity discipline along the way — the entire six-way grid must
/// produce bit-identical χ and identical logical work counters per
/// query; only `slab_peak_words` (per slab backend) and `row_lookups`
/// (per χ backend) may differ — plus the sparse spill guarantee
/// (`sparse ≤ dense` words everywhere) and the run-aware lookup bound
/// (`rle ≤ dense` lookups everywhere).
pub fn run_slab_ablation(data: &Datasets, reps: usize) -> Vec<SlabRow> {
    let mut scenarios: Vec<(String, &GraphDb, Query)> = all_queries()
        .into_iter()
        .map(|bench| {
            (
                bench.id.to_owned(),
                data.for_query(&bench),
                bench.query.clone(),
            )
        })
        .collect();
    for (id, text) in CHI_SPARSE_SCENARIOS.iter().chain(&SLAB_SPARSE_SCENARIOS) {
        let query = dualsim_query::parse(text).expect("sparse scenario parses");
        scenarios.push(((*id).to_owned(), &data.lubm, query));
    }
    let mut rows = Vec::new();
    for (id, db, query) in &scenarios {
        let mut grid = Vec::new();
        for (chi_name, chi_backend) in CHI_BACKENDS {
            for (slab_name, slab_backend) in SLAB_BACKENDS {
                let cfg = SolverConfig {
                    fixpoint: FixpointMode::DeltaCounting,
                    chi_backend,
                    slab_backend,
                    ..SolverConfig::default()
                };
                let (branches, wall) =
                    time_median(reps, || dualsim_core::solve_query(db, query, &cfg));
                let stats = sum_branch_stats(&branches);
                rows.push(SlabRow {
                    id: id.clone(),
                    chi: chi_name,
                    slab: slab_name,
                    wall,
                    slab_peak_words: stats.slab_peak_words,
                    chi_peak_words: stats.chi_peak_words,
                    row_lookups: stats.row_lookups,
                    counter_inits: stats.counter_inits,
                    counter_decrements: stats.counter_decrements,
                    delta_removals: stats.delta_removals,
                    seeds_deferred: stats.seeds_deferred,
                    lazy_seeds: stats.lazy_seeds,
                    ops: stats.work_ops(),
                });
                grid.push((chi_name, slab_name, branches, stats));
            }
        }
        let (_, _, ref_branches, _) = &grid[0];
        let reference: Vec<_> = ref_branches.iter().map(|(_, s)| &s.chi).collect();
        let ref_logical = sum_branch_stats(ref_branches).logical();
        for (chi_name, slab_name, branches, stats) in &grid {
            let chis: Vec<_> = branches.iter().map(|(_, s)| &s.chi).collect();
            assert_eq!(
                reference, chis,
                "{id} ({chi_name} χ, {slab_name} slab): χ diverged"
            );
            assert_eq!(
                ref_logical,
                sum_branch_stats(branches).logical(),
                "{id} ({chi_name} χ, {slab_name} slab): logical work diverged"
            );
            // The gauges obey their hard bounds: sparse slabs never
            // exceed dense storage, run-aware drains never perform more
            // lookups than per-bit drains.
            let dense_slab = grid
                .iter()
                .find(|(c, s, _, _)| c == chi_name && *s == "dense")
                .expect("dense slab row");
            assert!(
                stats.slab_peak_words <= dense_slab.3.slab_peak_words || *slab_name == "dense",
                "{id} ({chi_name} χ, {slab_name} slab): slab storage exceeds dense"
            );
            let dense_chi = grid
                .iter()
                .find(|(c, s, _, _)| *c == "dense" && s == slab_name)
                .expect("dense chi row");
            assert!(
                stats.row_lookups <= dense_chi.3.row_lookups || *chi_name == "dense",
                "{id} ({chi_name} χ, {slab_name} slab): run-aware drain did extra lookups"
            );
        }
    }
    rows
}

/// Renders the counter-slab ablation as the machine-readable
/// `BENCH_slab.json` document (schema `dualsim-slab-v1`).
pub fn slab_report_json(data: &Datasets, rows: &[SlabRow]) -> String {
    let mut out = String::new();
    out.push_str("{\n  \"schema\": \"dualsim-slab-v1\",\n");
    out.push_str(&datasets_json(data));
    out.push_str("  \"solve\": [\n");
    for (i, r) in rows.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"id\": {}, \"chi\": {}, \"slab\": {}, \"wall_s\": {:.6}, \
             \"slab_peak_words\": {}, \"chi_peak_words\": {}, \"row_lookups\": {}, \
             \"counter_inits\": {}, \"counter_decrements\": {}, \"delta_removals\": {}, \
             \"seeds_deferred\": {}, \"lazy_seeds\": {}, \"ops\": {}}}{}\n",
            json_str(&r.id),
            json_str(r.chi),
            json_str(r.slab),
            r.wall.as_secs_f64(),
            r.slab_peak_words,
            r.chi_peak_words,
            r.row_lookups,
            r.counter_inits,
            r.counter_decrements,
            r.delta_removals,
            r.seeds_deferred,
            r.lazy_seeds,
            r.ops,
            if i + 1 == rows.len() { "" } else { "," }
        ));
    }
    out.push_str("  ]\n}\n");
    out
}

/// The two word-kernel instantiations as (display name, backend) pairs.
/// Both are measured: `simd` on a host without AVX2 runs the scalar
/// fallback (still a valid parity row — the report records what each
/// selection *resolved to*).
pub const KERNEL_BACKENDS: [(&str, KernelBackend); 2] =
    [("scalar", KernelBackend::Scalar), ("simd", KernelBackend::Simd)];

/// One (workload, engine, kernel) measurement of the word-kernel
/// ablation: wall time plus the logical work counters that must be
/// bit-identical across kernels — a kernel moves the same words faster,
/// it never changes *which* words move. The evidence
/// `BENCH_kernels.json` tracks.
#[derive(Debug, Clone)]
pub struct KernelRow {
    /// Query id (workload rows, the S0–S3 sparse scenarios, and the
    /// S4 dense-saturation adversary).
    pub id: String,
    /// Fixpoint engine name (`reevaluate` / `delta`).
    pub mode: &'static str,
    /// Requested kernel selection (`scalar` / `simd`).
    pub backend: &'static str,
    /// Concrete kernel the selection resolved to on this host.
    pub resolved: &'static str,
    /// Median wall time over the measured repetitions.
    pub wall: Duration,
    /// Candidates after initialization.
    pub initial_candidates: usize,
    /// Candidates at the fixpoint.
    pub final_candidates: usize,
    /// Matrix rows OR-ed.
    pub rows_ored: usize,
    /// Candidate rows probed.
    pub bits_probed: usize,
    /// Support-counter increments.
    pub counter_inits: usize,
    /// Support-counter decrements.
    pub counter_decrements: usize,
    /// Unified work measure ([`SolveStats::work_ops`]) — must be
    /// identical across kernels for fixed (query, engine).
    pub ops: usize,
}

/// The word-kernel ablation: cold solves of every workload query — plus
/// the S0–S3 sparse scenarios and the S4 dense-saturation adversary on
/// the LUBM database — under both fixpoint engines × every kernel
/// selection, each run under a scoped per-thread kernel override.
/// Asserts the kernel work-neutrality discipline along the way: per (query, engine), every kernel must produce bit-identical χ
/// and identical *logical* work counters ([`SolveStats::logical`]) to
/// the scalar reference; only wall time may differ.
pub fn run_kernels_ablation(data: &Datasets, reps: usize) -> Vec<KernelRow> {
    let mut scenarios: Vec<(String, &GraphDb, Query)> = all_queries()
        .into_iter()
        .map(|bench| {
            (
                bench.id.to_owned(),
                data.for_query(&bench),
                bench.query.clone(),
            )
        })
        .collect();
    for (id, text) in CHI_SPARSE_SCENARIOS.iter().chain(&SLAB_SPARSE_SCENARIOS) {
        let query = dualsim_query::parse(text).expect("sparse scenario parses");
        scenarios.push(((*id).to_owned(), &data.lubm, query));
    }
    for bench in adversarial_queries() {
        scenarios.push((bench.id.to_owned(), data.for_query(&bench), bench.query));
    }
    let mut rows = Vec::new();
    for (id, db, query) in &scenarios {
        for (mode, fixpoint) in FIXPOINT_MODES {
            let mut reference: Option<Vec<(dualsim_core::Soi, dualsim_core::Solution)>> = None;
            for (bname, kernel) in KERNEL_BACKENDS {
                let cfg = SolverConfig {
                    fixpoint,
                    ..SolverConfig::default()
                };
                let (branches, wall) = with_backend(kernel, || {
                    time_median(reps, || dualsim_core::solve_query(db, query, &cfg))
                });
                let stats = sum_branch_stats(&branches);
                rows.push(KernelRow {
                    id: id.clone(),
                    mode,
                    backend: bname,
                    resolved: kernel.resolve().name(),
                    wall,
                    initial_candidates: stats.initial_candidates,
                    final_candidates: stats.final_candidates,
                    rows_ored: stats.rows_ored,
                    bits_probed: stats.bits_probed,
                    counter_inits: stats.counter_inits,
                    counter_decrements: stats.counter_decrements,
                    ops: stats.work_ops(),
                });
                match &reference {
                    None => reference = Some(branches),
                    Some(scalar) => {
                        assert_eq!(scalar.len(), branches.len(), "{id} ({mode})");
                        for ((_, s), (_, k)) in scalar.iter().zip(branches.iter()) {
                            assert_eq!(
                                s.chi, k.chi,
                                "{id} ({mode}): χ differs between scalar and {bname} kernels"
                            );
                            assert_eq!(
                                s.stats.logical(),
                                k.stats.logical(),
                                "{id} ({mode}): logical work differs between scalar and \
                                 {bname} kernels"
                            );
                        }
                    }
                }
            }
        }
    }
    rows
}

/// Renders the word-kernel ablation as the machine-readable
/// `BENCH_kernels.json` document (schema `dualsim-kernels-v2`). The
/// top-level `simd_available` flag records whether the measuring host
/// had AVX2, which is what the committed `simd` rows resolved against.
/// v2 dropped the `unrolled` and `auto` selections.
pub fn kernels_report_json(data: &Datasets, rows: &[KernelRow]) -> String {
    let mut out = String::new();
    out.push_str("{\n  \"schema\": \"dualsim-kernels-v2\",\n");
    out.push_str(&format!(
        "  \"simd_available\": {},\n",
        dualsim_bitmatrix::kernels::simd_available()
    ));
    out.push_str(&datasets_json(data));
    out.push_str("  \"solve\": [\n");
    for (i, r) in rows.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"id\": {}, \"mode\": {}, \"backend\": {}, \"resolved\": {}, \
             \"wall_s\": {:.6}, \"initial_candidates\": {}, \"final_candidates\": {}, \
             \"rows_ored\": {}, \"bits_probed\": {}, \"counter_inits\": {}, \
             \"counter_decrements\": {}, \"ops\": {}}}{}\n",
            json_str(&r.id),
            json_str(r.mode),
            json_str(r.backend),
            json_str(r.resolved),
            r.wall.as_secs_f64(),
            r.initial_candidates,
            r.final_candidates,
            r.rows_ored,
            r.bits_probed,
            r.counter_inits,
            r.counter_decrements,
            r.ops,
            if i + 1 == rows.len() { "" } else { "," }
        ));
    }
    out.push_str("  ]\n}\n");
    out
}

/// Construction-side statistics of the Sect.-6 fingerprint ablation.
#[derive(Debug, Clone)]
pub struct QuotientBuildStats {
    /// Nodes of the original (LUBM) database.
    pub original_nodes: usize,
    /// Triples of the original database.
    pub original_triples: usize,
    /// Equivalence classes of the fingerprint.
    pub blocks: usize,
    /// Triples of the quotient database.
    pub quotient_triples: usize,
    /// Signature-refinement rounds until the partition stabilized.
    pub rounds: usize,
    /// Node compression factor (original / blocks).
    pub node_compression: f64,
    /// One-off construction time.
    pub wall: Duration,
}

/// One query of the quotient ablation: solving on the original database
/// vs. on the quotient, with deterministic work counts and the
/// full-abstraction check (expanded quotient candidates == direct
/// candidates for constant-free queries over fingerprinted labels).
#[derive(Debug, Clone)]
pub struct QuotientSolveRow {
    /// Query id.
    pub id: &'static str,
    /// Work operations solving on the original database.
    pub direct_ops: usize,
    /// Work operations solving on the quotient.
    pub quotient_ops: usize,
    /// Median wall time on the original database.
    pub direct_wall: Duration,
    /// Median wall time on the quotient.
    pub quotient_wall: Duration,
    /// Total candidates Σ|χ(v)| of the direct solution.
    pub direct_candidates: usize,
    /// Total candidates of the quotient solution expanded back to
    /// original nodes (must equal `direct_candidates`).
    pub expanded_candidates: usize,
}

/// LUBM attribute predicates excluded from the fingerprint (unique
/// literals carry no structure worth indexing).
const LUBM_ATTRIBUTE_LABELS: [&str; 5] = [
    "ub:name",
    "ub:emailAddress",
    "ub:telephone",
    "ub:researchInterest",
    "ub:title",
];

/// The Sect.-6 fingerprint ablation on the LUBM database: build the
/// relational-label quotient once, then compare direct vs. quotient
/// solves on constant-free L-cores. Asserts full abstraction (the
/// expanded quotient solution equals the direct one) per query.
pub fn run_quotient_ablation(
    lubm: &GraphDb,
    reps: usize,
) -> (QuotientBuildStats, Vec<QuotientSolveRow>) {
    let relational: Vec<u32> = (0..lubm.num_labels() as u32)
        .filter(|&l| !LUBM_ATTRIBUTE_LABELS.contains(&lubm.label_name(l)))
        .collect();
    let (index, build_wall) =
        time_median(reps, || QuotientIndex::build_for_labels(lubm, &relational));
    let build = QuotientBuildStats {
        original_nodes: lubm.num_nodes(),
        original_triples: lubm.num_triples(),
        blocks: index.num_blocks(),
        quotient_triples: index.quotient().num_triples(),
        rounds: index.rounds,
        node_compression: index.node_compression(),
        wall: build_wall,
    };
    let cfg = SolverConfig {
        early_exit: false,
        ..SolverConfig::default()
    };
    let queries = [
        (
            "L0",
            "{ ?s ub:advisor ?p . ?p ub:teacherOf ?c . ?s ub:takesCourse ?c }",
        ),
        (
            "L2",
            "{ ?x ub:memberOf ?d . ?x ub:takesCourse ?c . \
              ?t ub:teacherOf ?c . ?t ub:worksFor ?d }",
        ),
    ];
    let mut rows = Vec::new();
    for (id, text) in queries {
        let query = dualsim_query::parse(text).expect("ablation query parses");
        let soi = build_sois(lubm, &query).remove(0);
        let (direct, direct_wall) = time_median(reps, || solve(lubm, &soi, &cfg));
        let qdb = index.quotient();
        let qsoi = build_sois(qdb, &query).remove(0);
        let (quotient, quotient_wall) = time_median(reps, || solve(qdb, &qsoi, &cfg));
        let direct_candidates: usize = direct.chi.iter().map(|c| c.count_ones()).sum();
        let expanded_candidates: usize = quotient
            .chi
            .iter()
            .map(|c| index.expand(&c.to_bitvec()).count_ones())
            .sum();
        assert_eq!(
            direct_candidates, expanded_candidates,
            "{id}: quotient solution is not fully abstract"
        );
        rows.push(QuotientSolveRow {
            id,
            direct_ops: direct.stats.work_ops(),
            quotient_ops: quotient.stats.work_ops(),
            direct_wall,
            quotient_wall,
            direct_candidates,
            expanded_candidates,
        });
    }
    (build, rows)
}

/// Renders the quotient ablation as the machine-readable
/// `BENCH_quotient.json` document (schema `dualsim-quotient-v1`).
pub fn quotient_report_json(
    data: &Datasets,
    build: &QuotientBuildStats,
    rows: &[QuotientSolveRow],
) -> String {
    let mut out = String::new();
    out.push_str("{\n  \"schema\": \"dualsim-quotient-v1\",\n");
    out.push_str(&datasets_json(data));
    out.push_str(&format!(
        "  \"build\": {{\"original_nodes\": {}, \"original_triples\": {}, \"blocks\": {}, \
         \"quotient_triples\": {}, \"rounds\": {}, \"node_compression\": {:.4}, \
         \"wall_s\": {:.6}}},\n",
        build.original_nodes,
        build.original_triples,
        build.blocks,
        build.quotient_triples,
        build.rounds,
        build.node_compression,
        build.wall.as_secs_f64()
    ));
    out.push_str("  \"solve\": [\n");
    for (i, r) in rows.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"id\": {}, \"direct_ops\": {}, \"quotient_ops\": {}, \
             \"direct_wall_s\": {:.6}, \"quotient_wall_s\": {:.6}, \
             \"direct_candidates\": {}, \"expanded_candidates\": {}}}{}\n",
            json_str(r.id),
            r.direct_ops,
            r.quotient_ops,
            r.direct_wall.as_secs_f64(),
            r.quotient_wall.as_secs_f64(),
            r.direct_candidates,
            r.expanded_candidates,
            if i + 1 == rows.len() { "" } else { "," }
        ));
    }
    out.push_str("  ]\n}\n");
    out
}

/// Formats a duration in seconds with µs resolution, like the paper's
/// tables.
pub fn secs(d: Duration) -> String {
    format!("{:.6}", d.as_secs_f64())
}

/// Renders an aligned text table.
pub fn render_table(headers: &[&str], rows: &[Vec<String>]) -> String {
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            widths[i] = widths[i].max(cell.len());
        }
    }
    let mut out = String::new();
    let fmt_row = |cells: &[String], widths: &[usize]| -> String {
        let mut line = String::new();
        for (i, cell) in cells.iter().enumerate() {
            if i > 0 {
                line.push_str("  ");
            }
            line.push_str(&format!("{:>width$}", cell, width = widths[i]));
        }
        line
    };
    let headers: Vec<String> = headers.iter().map(|s| s.to_string()).collect();
    out.push_str(&fmt_row(&headers, &widths));
    out.push('\n');
    out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * (widths.len() - 1)));
    out.push('\n');
    for row in rows {
        out.push_str(&fmt_row(row, &widths));
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use dualsim_engine::{HashJoinEngine, NestedLoopEngine};

    #[test]
    fn table2_covers_all_b_queries() {
        let data = tiny_datasets();
        let rows = run_table2(&data.dbpedia, 1);
        assert_eq!(rows.len(), 20);
    }

    #[test]
    fn table3_rows_are_consistent() {
        let data = tiny_datasets();
        let rows = run_table3(&data, &NestedLoopEngine);
        assert_eq!(rows.len(), 32);
        for row in &rows {
            assert!(
                row.required <= row.kept,
                "{}: required {} must be covered by kept {} (Thm. 2)",
                row.id,
                row.required,
                row.kept
            );
            if row.results == 0 {
                assert_eq!(row.required, 0, "{}", row.id);
            }
        }
    }

    #[test]
    fn table45_soundness_holds_for_both_engines() {
        let data = tiny_datasets();
        // run_table45 asserts result-set equality internally.
        let rows_hash = run_table45(&data, &HashJoinEngine, 1);
        let rows_nested = run_table45(&data, &NestedLoopEngine, 1);
        assert_eq!(rows_hash.len(), 32);
        for (h, n) in rows_hash.iter().zip(rows_nested.iter()) {
            assert_eq!(h.results, n.results, "{}: engines disagree", h.id);
        }
    }

    #[test]
    fn iteration_report_shows_l0_l1_contrast() {
        let data = tiny_datasets();
        let rows = run_iterations(&data);
        let l0 = rows.iter().find(|r| r.id == "L0").unwrap();
        let l1 = rows.iter().find(|r| r.id == "L1").unwrap();
        assert!(
            l0.iterations >= l1.iterations,
            "L0 ({}) should need at least as many iterations as L1 ({})",
            l0.iterations,
            l1.iterations
        );
    }

    #[test]
    fn fixpoint_rows_cover_both_engines_and_agree() {
        let data = tiny_datasets();
        let rows = run_fixpoint_solve(&data, 1);
        assert_eq!(
            rows.len(),
            2 * all_queries().len(),
            "two engines per workload query"
        );
        for pair in rows.chunks(2) {
            assert_eq!(pair[0].id, pair[1].id);
            assert_eq!(pair[0].mode, "reevaluate");
            assert_eq!(pair[1].mode, "delta");
            // The engines' work shows up in the right buckets.
            assert_eq!(pair[1].rows_ored, 0, "{}", pair[1].id);
            assert_eq!(pair[1].bits_probed, 0, "{}", pair[1].id);
            assert_eq!(pair[0].counter_inits, 0, "{}", pair[0].id);
            assert_eq!(pair[0].counter_decrements, 0, "{}", pair[0].id);
        }
    }

    #[test]
    fn incremental_scenario_shows_the_delta_win() {
        let data = tiny_datasets();
        let rows = run_fixpoint_incremental(&data, &["L0", "L1"], 4, 40);
        assert_eq!(rows.len(), 4);
        for pair in rows.chunks(2) {
            let (reev, delta) = (&pair[0], &pair[1]);
            assert_eq!(reev.id, delta.id);
            assert_eq!(reev.dropped, delta.dropped, "{}", reev.id);
            // The acceptance criterion: the delta engine performs at
            // least 2× fewer row-OR/probe operations on the incremental
            // path. (Counts are deterministic, so this is a stable
            // regression gate, not a flaky timing assertion.)
            assert!(
                2 * delta.ops <= reev.ops,
                "{}: delta {} ops vs reevaluate {} ops",
                reev.id,
                delta.ops,
                reev.ops
            );
        }
    }

    #[test]
    fn fixpoint_json_is_well_formed() {
        let data = tiny_datasets();
        let solve_rows = run_fixpoint_solve(&data, 1);
        let inc_rows = run_fixpoint_incremental(&data, &["L0"], 2, 50);
        let json = fixpoint_report_json(&data, &solve_rows, &inc_rows);
        assert!(json.starts_with("{\n  \"schema\": \"dualsim-fixpoint-v3\""));
        assert!(json.contains("\"seeds_deferred\":"));
        assert_eq!(json.matches("\"id\":").count(), solve_rows.len() + inc_rows.len());
        // Crude balance check (the workspace has no JSON parser).
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert_eq!(json.matches('[').count(), json.matches(']').count());
        assert!(!json.contains("NaN") && !json.contains("inf"));
    }

    #[test]
    fn lazy_seeding_defers_some_cold_solve_work() {
        let data = tiny_datasets();
        let rows = run_fixpoint_solve(&data, 1);
        // At least one workload defers at least one inequality without
        // ever touching it (deferred strictly exceeds later lazy seeds).
        assert!(
            rows.iter()
                .filter(|r| r.mode == "delta")
                .any(|r| r.seeds_deferred > r.lazy_seeds),
            "no workload kept a deferred seed"
        );
    }

    #[test]
    fn strategies_report_covers_the_grid_and_is_well_formed() {
        let data = tiny_datasets();
        let rows = run_strategies_ablation(&data, 1);
        assert_eq!(rows.len(), STRATEGY_ABLATION_QUERIES.len() * 3 * 2 * 2);
        let json = strategies_report_json(&data, &rows);
        assert!(json.starts_with("{\n  \"schema\": \"dualsim-strategies-v1\""));
        assert_eq!(json.matches("\"id\":").count(), rows.len());
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert_eq!(json.matches('[').count(), json.matches(']').count());
    }

    #[test]
    fn chi_backend_ablation_gates_parity_and_shows_the_rle_win() {
        let data = tiny_datasets();
        // run_chi_backend_ablation asserts χ and logical-stats parity
        // per (query, engine) internally.
        let rows = run_chi_backend_ablation(&data, 1);
        assert_eq!(
            rows.len(),
            2 * 2 * (all_queries().len() + CHI_SPARSE_SCENARIOS.len())
        );
        for pair in rows.chunks(2) {
            let (dense, rle) = (&pair[0], &pair[1]);
            assert_eq!((dense.backend, rle.backend), ("dense", "rle"));
            assert_eq!((&dense.id, dense.mode), (&rle.id, rle.mode));
            assert_eq!(dense.ops, rle.ops, "{} ({})", dense.id, dense.mode);
            assert_eq!(
                (dense.initial_candidates, dense.final_candidates),
                (rle.initial_candidates, rle.final_candidates),
                "{} ({})",
                dense.id,
                dense.mode
            );
        }
        // The point of the RLE backend: on at least one sparse-candidate
        // workload its peak χ storage is strictly below dense.
        assert!(
            rows.chunks(2)
                .any(|pair| pair[1].chi_peak_words < pair[0].chi_peak_words),
            "no workload benefits from RLE χ storage"
        );
        let json = chi_report_json(&data, &rows);
        assert!(json.starts_with("{\n  \"schema\": \"dualsim-chi-v1\""));
        assert_eq!(json.matches("\"id\":").count(), rows.len());
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert_eq!(json.matches('[').count(), json.matches(']').count());
    }

    #[test]
    fn slab_ablation_gates_parity_and_shows_the_sparse_win() {
        let data = tiny_datasets();
        // run_slab_ablation asserts χ + logical-stats parity across the
        // six-way (χ backend × slab backend) grid internally, plus the
        // storage and lookup bounds.
        let rows = run_slab_ablation(&data, 1);
        assert_eq!(
            rows.len(),
            6 * (all_queries().len()
                + CHI_SPARSE_SCENARIOS.len()
                + SLAB_SPARSE_SCENARIOS.len())
        );
        let find = |id: &str, chi: &str, slab: &str| {
            rows.iter()
                .find(|r| r.id == id && r.chi == chi && r.slab == slab)
                .unwrap_or_else(|| panic!("missing row {id}/{chi}/{slab}"))
        };
        // S2 seeds eagerly on rare predicates: the sparse slab stores
        // the same counters in ≥4× fewer words, and Auto resolves to
        // sparse there (the same density bound as the χ Auto).
        let s2_dense = find("S2-uni0-chain", "dense", "dense");
        let s2_sparse = find("S2-uni0-chain", "dense", "sparse");
        let s2_auto = find("S2-uni0-chain", "dense", "auto");
        assert!(s2_dense.counter_inits > 0, "S2 must seed counters");
        assert!(s2_dense.counter_decrements > 0, "S2 must drain removals");
        assert!(
            4 * s2_sparse.slab_peak_words <= s2_dense.slab_peak_words,
            "sparse slabs lost the ≥4× win on S2: {} vs {}",
            s2_sparse.slab_peak_words,
            s2_dense.slab_peak_words
        );
        assert_eq!(s2_auto.slab_peak_words, s2_sparse.slab_peak_words);
        // S3's contiguous publication removals: the run-aware RLE-χ
        // drain does strictly fewer row lookups at identical logical
        // work.
        let s3_dense = find("S3-head-pubs", "dense", "dense");
        let s3_rle = find("S3-head-pubs", "rle", "dense");
        assert!(s3_dense.row_lookups > 0, "S3 must drain removals");
        assert!(
            s3_rle.row_lookups < s3_dense.row_lookups,
            "run-aware drain lost its lookup win on S3: {} vs {}",
            s3_rle.row_lookups,
            s3_dense.row_lookups
        );
        assert_eq!(
            (s3_rle.counter_decrements, s3_rle.delta_removals, s3_rle.ops),
            (s3_dense.counter_decrements, s3_dense.delta_removals, s3_dense.ops)
        );
        // The fully-deferred sparse scenarios keep every slab empty.
        for id in ["S0-heads", "S1-org-chart"] {
            assert_eq!(find(id, "dense", "dense").slab_peak_words, 0, "{id}");
        }
        let json = slab_report_json(&data, &rows);
        assert!(json.starts_with("{\n  \"schema\": \"dualsim-slab-v1\""));
        assert_eq!(json.matches("\"id\":").count(), rows.len());
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert_eq!(json.matches('[').count(), json.matches(']').count());
    }

    #[test]
    fn kernels_report_is_work_neutral_and_well_formed() {
        let data = tiny_datasets();
        let rows = run_kernels_ablation(&data, 1);
        // Every scenario × engine × kernel selection is measured (the
        // harness itself asserts χ + logical-stats parity per solve).
        assert_eq!(
            rows.len(),
            2 * KERNEL_BACKENDS.len()
                * (all_queries().len()
                    + CHI_SPARSE_SCENARIOS.len()
                    + SLAB_SPARSE_SCENARIOS.len()
                    + adversarial_queries().len())
        );
        // Rows come in per-(query, engine) groups of two kernel
        // selections, scalar first: the emitted logical counters must be
        // identical within each group — the zero-logical-delta gate the
        // committed report is held to.
        for group in rows.chunks(KERNEL_BACKENDS.len()) {
            let scalar = &group[0];
            assert_eq!(scalar.backend, "scalar");
            assert_eq!(scalar.resolved, "scalar");
            for r in &group[1..] {
                assert_eq!(
                    (scalar.id.as_str(), scalar.mode, scalar.ops, scalar.rows_ored),
                    (r.id.as_str(), r.mode, r.ops, r.rows_ored),
                    "kernel {} broke work neutrality on {} ({})",
                    r.backend,
                    r.id,
                    r.mode
                );
                assert_eq!(scalar.final_candidates, r.final_candidates, "{}", r.id);
            }
        }
        // The S4 adversary is present and genuinely dense: it seeds
        // (and keeps) more candidates than the sparse S0 scenario.
        let s4 = rows
            .iter()
            .find(|r| r.id == "S4-dense-saturated")
            .expect("S4 measured");
        let s0 = rows.iter().find(|r| r.id == "S0-heads").expect("S0 measured");
        assert!(
            s4.initial_candidates > 10 * s0.initial_candidates,
            "S4 is not dense: {} vs {} seeded candidates",
            s4.initial_candidates,
            s0.initial_candidates
        );
        let json = kernels_report_json(&data, &rows);
        assert!(json.starts_with("{\n  \"schema\": \"dualsim-kernels-v2\""));
        assert!(json.contains("\"simd_available\": "));
        assert_eq!(json.matches("\"id\":").count(), rows.len());
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert_eq!(json.matches('[').count(), json.matches(']').count());
    }

    #[test]
    fn quotient_report_shows_compression_and_is_well_formed() {
        let data = tiny_datasets();
        let (build, rows) = run_quotient_ablation(&data.lubm, 1);
        assert!(build.blocks > 0 && build.blocks <= build.original_nodes);
        assert!(build.node_compression >= 1.0);
        assert_eq!(rows.len(), 2);
        for r in &rows {
            // run_quotient_ablation asserts full abstraction internally.
            assert_eq!(r.direct_candidates, r.expanded_candidates, "{}", r.id);
        }
        let json = quotient_report_json(&data, &build, &rows);
        assert!(json.starts_with("{\n  \"schema\": \"dualsim-quotient-v1\""));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert_eq!(json.matches('[').count(), json.matches(']').count());
    }

    #[test]
    fn render_table_aligns_columns() {
        let s = render_table(
            &["a", "bb"],
            &[vec!["1".into(), "2".into()], vec!["333".into(), "4".into()]],
        );
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].contains("bb"));
    }
}
