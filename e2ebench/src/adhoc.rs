//! `adhoc`: the paper's 32 queries, cycled, each through the paper's
//! pipeline `parse → prune → pruned_db → NestedLoopEngine::evaluate`.
//!
//! Solver, pruning, graph materialization and the engine do all the
//! work; session, incremental maintenance and durability do none.

use crate::trace::Tracer;
use crate::{
    ms, per_op, percentile, sub_seed, timed_setup, traced_op, Cycles, Params, Report, TraceSplit,
};
use dualsim_core::{build_sois, prune, solve, SolverConfig};
use dualsim_datagen::workloads::{all_queries, Dataset};
use dualsim_datagen::{generate_dbpedia, generate_lubm, DbpediaConfig, LubmConfig};
use dualsim_engine::{required_triples, Engine, NestedLoopEngine, ResultSet};
use dualsim_graph::GraphDb;
use dualsim_query::parse;
use std::time::Instant;

/// Runs the workload.
pub fn run(p: &Params) -> Report {
    let mut report = Report::default();
    let mut tracer = Tracer::new(p.trace);
    let lubm_cfg = LubmConfig {
        universities: p.scale.lubm_large,
        seed: sub_seed(p.seed, 1),
    };
    let dbpedia_cfg = DbpediaConfig {
        entities: p.scale.dbpedia_entities,
        seed: sub_seed(p.seed, 2),
        ..DbpediaConfig::default()
    };
    let mut generate = Vec::new();
    let ((lubm, dbpedia), setup_s) = timed_setup(p.scale.setup_reps, || {
        let t0 = Instant::now();
        let dbs = (generate_lubm(&lubm_cfg), generate_dbpedia(&dbpedia_cfg));
        generate.push(t0.elapsed().as_secs_f64());
        dbs
    });
    let db_for = |d: Dataset| -> &GraphDb {
        match d {
            Dataset::Lubm => &lubm,
            Dataset::Dbpedia => &dbpedia,
        }
    };

    // Reference answers on the full databases, outside every timed span.
    let queries = all_queries();
    let references: Vec<ResultSet> = queries
        .iter()
        .map(|q| NestedLoopEngine.evaluate(db_for(q.dataset), &q.query))
        .collect();
    let required: u64 = queries
        .iter()
        .map(|q| required_triples(db_for(q.dataset), &q.query).len() as u64)
        .sum();

    let cfg = SolverConfig::default();
    let mut latencies = Vec::new();
    let mut prune_latencies = Vec::new();
    let mut split = TraceSplit::default();
    let mut kept_total = 0u64;
    let mut rows_total = 0u64;
    let mut work_ops = 0u64;
    let mut iterations = 0u64;
    let mut db_triples = 0u64;
    let mut cycles = Cycles::new(p.seconds);
    let mut op = 0u64;
    loop {
        let cycle = cycles.index();
        for (i, bq) in queries.iter().enumerate() {
            let db = db_for(bq.dataset);
            let traced = cycles.measuring() && traced_op(p.trace, cycle, i);
            tracer.set_enabled(traced);
            tracer.set_op(op);
            op += 1;

            let t0 = Instant::now();
            let root = tracer.open("adhoc.query", None);
            let parsed = tracer.span("query.parse", root, || parse(bq.text));
            let Ok(query) = parsed else {
                tracer.close(root);
                report.check(false, || format!("{}: query text failed to parse", bq.id));
                continue;
            };
            let prune_span = tracer.open("core.prune", root);
            let pruned = prune(db, &query, &cfg);
            tracer.close(prune_span);
            let t_pruned = t0.elapsed();
            let pdb = tracer.span("graph.with_triples", root, || pruned.pruned_db(db));
            let answer = tracer.span("engine.evaluate", root, || {
                NestedLoopEngine.evaluate(&pdb, &query)
            });
            let pdb_triples = pdb.num_triples();
            drop(pdb);
            tracer.close(root);
            let latency = t0.elapsed();

            // Thm. 1/2 soundness: the pruned answer is the full answer.
            report.check(answer == references[i], || {
                format!(
                    "{}: pruned answer differs from the full-database answer",
                    bq.id
                )
            });
            if cycles.measuring() {
                cycles.record(latency);
                latencies.push(ms(latency));
                prune_latencies.push(ms(t_pruned));
                split.push(traced, ms(latency));
            }
            if traced {
                // Re-drive the layers inside `prune` through their own
                // public functions; they count against its self time.
                let sois = tracer.span("soi.build_sois", prune_span, || build_sois(db, &query));
                for soi in &sois {
                    tracer.span("solver.solve", prune_span, || solve(db, soi, &cfg));
                }
            }
            if cycle == 0 {
                kept_total += pruned.num_kept() as u64;
                rows_total += answer.len() as u64;
                work_ops += pruned
                    .branch_stats
                    .iter()
                    .map(|s| s.work_ops() as u64)
                    .sum::<u64>();
                iterations += pruned.iterations() as u64;
                db_triples += db.num_triples() as u64;
                debug_assert_eq!(pdb_triples, pruned.num_kept());
            }
        }
        if !cycles.end_cycle() {
            break;
        }
    }

    let n = queries.len() as u64;
    report.counts.insert("adhoc.queries_per_cycle", n);
    report.counts.insert("adhoc.kept_triples", kept_total);
    report.counts.insert("adhoc.required_triples", required);
    report.counts.insert("adhoc.database_triples", db_triples);
    report.counts.insert("adhoc.result_rows", rows_total);
    report.counts.insert("solver.work_ops", work_ops);
    report.counts.insert("solver.iterations", iterations);

    report.e2e.insert("setup_s", setup_s);
    report.e2e.insert("peak_rss_mb", crate::peak_rss_mb());
    report.e2e.insert("op_p50_ms", percentile(&latencies, 50.0));
    report.e2e.insert("op_p90_ms", percentile(&latencies, 90.0));
    report.e2e.insert("ops_per_s", cycles.rate());
    report.cycle_rates = cycles.rates().to_vec();
    report
        .e2e
        .insert("side_p50_ms", percentile(&prune_latencies, 50.0));
    report.samples.insert("op", latencies.len());
    report.samples.insert("side", prune_latencies.len());
    report
        .info
        .insert("measured_cycles", (cycles.index() - 1) as f64);
    report
        .info
        .insert("measured_s", cycles.measured().as_secs_f64());
    report
        .info
        .insert("lubm_triples", lubm.num_triples() as f64);
    report
        .info
        .insert("dbpedia_triples", dbpedia.num_triples() as f64);
    report
        .info
        .insert("dbpedia_labels", dbpedia.num_labels() as f64);

    if p.trace {
        let by = tracer.by_name();
        let ops = split.traced.len();
        let per = |k: &str, own: bool, scale: f64| per_op(&by, k, own, ops, scale);
        let l = &mut report.layers;
        l.insert("datagen.generate_s", percentile(&generate, 50.0));
        l.insert("query.parse_us", per("query.parse", false, 1e6));
        l.insert("soi.build_us", per("soi.build_sois", false, 1e6));
        l.insert("solver.solve_ms", per("solver.solve", false, 1e3));
        l.insert("solver.work_ops", work_ops as f64 / n as f64);
        l.insert("solver.iterations", iterations as f64 / n as f64);
        l.insert("pruning.extract_ms", per("core.prune", true, 1e3));
        l.insert("pruning.kept_ratio", kept_total as f64 / db_triples as f64);
        l.insert(
            "pruning.precision",
            required as f64 / kept_total.max(1) as f64,
        );
        l.insert(
            "graph.with_triples_ms",
            per("graph.with_triples", false, 1e3),
        );
        l.insert("graph.triples", kept_total as f64 / n as f64);
        l.insert("engine.evaluate_ms", per("engine.evaluate", false, 1e3));
        l.insert("engine.rows", rows_total as f64 / n as f64);
        l.insert("tracing.overhead_ms", split.overhead_ms());
        crate::dump_spans(&tracer, p, "adhoc", &mut report);
    }
    report
}
