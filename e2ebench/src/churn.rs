//! `churn`: an in-memory `QuerySession` at LUBM-200 with 8 standing
//! queries. Batches of `batch_triples` triples alternate delete and
//! re-insert; each batch is followed by a read: an ad-hoc `prune` of each
//! LUBM query (L0–L5) over `session.db()`.
//!
//! Graph rebuild, session and incremental engines do the write work;
//! the read shows whether a faster write path slows solving over the
//! graph it produces. Cold solves happen only in set-up.

use crate::trace::Tracer;
use crate::{
    ms, per_op, percentile, standing_queries, sub_seed, timed_setup, traced_op, update_script,
    Cycles, Params, Report, TraceSplit,
};
use dualsim_core::{
    build_sois, prune, solve, FixpointMode, IncrementalDualSim, QueryOutcome, QuerySession,
    SessionOptions, SolverConfig,
};
use dualsim_datagen::workloads::lubm_queries;
use dualsim_datagen::{generate_lubm, LubmConfig};
use dualsim_graph::{GraphDb, Triple};
use dualsim_query::parse;
use std::collections::BTreeSet;
use std::time::Instant;

/// The solver configuration of the standing queries: the delta engine
/// that maintains χ incrementally in both update directions.
pub fn standing_config() -> SolverConfig {
    SolverConfig {
        fixpoint: FixpointMode::DeltaCounting,
        early_exit: false,
        ..SolverConfig::default()
    }
}

/// Sum of the logical work counters over every branch of every query.
pub fn session_work_ops(session: &QuerySession) -> u64 {
    session
        .query_names()
        .iter()
        .flat_map(|n| session.maintenance_stats(n).unwrap_or_default())
        .map(|s| s.work_ops() as u64)
        .sum()
}

/// One in-memory engine per branch of every standing query, built from
/// the session's own SOIs: the traced run re-drives each batch through
/// them to time the incremental layer on its own.
pub fn shadow_engines(session: &QuerySession, cfg: &SolverConfig) -> Vec<IncrementalDualSim> {
    session
        .query_names()
        .iter()
        .flat_map(|n| session.sois(n).unwrap_or_default())
        .map(|soi| IncrementalDualSim::new(session.db(), soi.clone(), cfg.clone()))
        .collect()
}

/// Applies one batch to every shadow engine; `false` if any failed.
pub fn apply_shadows(
    shadows: &mut [IncrementalDualSim],
    db_after: &GraphDb,
    insert: bool,
    batch: &[Triple],
) -> bool {
    shadows.iter_mut().all(|s| {
        if insert {
            s.apply_insertions(db_after, batch).is_ok()
        } else {
            s.apply_deletions(db_after, batch).is_ok()
        }
    })
}

/// Applies a signed batch to a mirrored triple set and returns the
/// post-batch triples, sorted.
pub fn mirror(present: &mut BTreeSet<Triple>, insert: bool, batch: &[Triple]) -> Vec<Triple> {
    for t in batch {
        if insert {
            present.insert(*t);
        } else {
            present.remove(t);
        }
    }
    present.iter().copied().collect()
}

/// Whether every query of a batch committed.
pub fn all_committed<'a>(outcomes: impl IntoIterator<Item = &'a QueryOutcome>) -> bool {
    outcomes
        .into_iter()
        .all(|o| matches!(o, QueryOutcome::Committed { .. }))
}

/// Runs the workload.
pub fn run(p: &Params) -> Report {
    let mut report = Report::default();
    let mut tracer = Tracer::new(p.trace);
    let cfg = standing_config();
    let read_cfg = SolverConfig::default();
    let lubm_cfg = LubmConfig {
        universities: p.scale.lubm_large,
        seed: sub_seed(p.seed, 1),
    };
    let standing = standing_queries();
    let mut generate = Vec::new();
    let (mut session, setup_s) = timed_setup(p.scale.setup_reps, || {
        let t0 = Instant::now();
        let db = generate_lubm(&lubm_cfg);
        generate.push(t0.elapsed().as_secs_f64());
        let mut session = QuerySession::new(db, SessionOptions::default());
        for (name, q) in &standing {
            let registered = session.register(name, q.text, cfg.clone());
            report.check(registered.is_ok(), || {
                format!("register {name}: {registered:?}")
            });
        }
        session
    });

    let script = update_script(
        session.db(),
        sub_seed(p.seed, 3),
        p.scale.chunks,
        p.scale.batch_triples,
    );
    // A read prunes each LUBM query once: one query's cost depends on
    // the seed far more than the sum over all six does.
    let reads = lubm_queries();
    let mut present: BTreeSet<Triple> = session.db().triples().collect();
    let mut shadows = if p.trace {
        shadow_engines(&session, &cfg)
    } else {
        Vec::new()
    };
    let work_before = session_work_ops(&session);
    let stats_before = session.stats().clone();

    let mut batch_lat = Vec::new();
    let mut read_lat = Vec::new();
    let mut split = TraceSplit::default();
    let mut graph_triples = 0u64;
    let mut traced_batches = 0usize;
    let mut traced_reads = 0usize;
    let (mut read_work, mut read_iters, mut read_kept, mut read_db) = (0u64, 0u64, 0u64, 0u64);
    let mut cycles = Cycles::new(p.seconds);
    let mut op = 0u64;
    loop {
        let pass = cycles.index();
        for (i, (insert, batch)) in script.iter().enumerate() {
            let traced = cycles.measuring() && traced_op(p.trace, pass, i);
            tracer.set_enabled(traced);
            tracer.set_op(op);
            op += 1;

            // The write: one shared batch through the whole registry.
            let t0 = Instant::now();
            let apply_span = tracer.open("session.apply_batch", None);
            let outcome = session.apply_batch(*insert, batch);
            tracer.close(apply_span);
            let latency = t0.elapsed();
            if cycles.measuring() {
                cycles.record(latency);
                batch_lat.push(ms(latency));
                split.push(traced, ms(latency));
            }
            let committed = matches!(&outcome, Ok(r) if all_committed(r.outcomes.values()));
            report.check(committed, || {
                format!("batch {i} of pass {pass} did not commit: {outcome:?}")
            });

            if p.trace {
                // Re-drive the layers inside `apply_batch`: the graph
                // rebuild on the post-batch triple set, then every
                // branch engine on the rebuilt graph.
                let after = mirror(&mut present, *insert, batch);
                let db_after = tracer.span("graph.with_triples", apply_span, || {
                    session.db().with_triples(&after)
                });
                let shadowed = match db_after {
                    Ok(db_after) => tracer.span("incremental.apply", apply_span, || {
                        apply_shadows(&mut shadows, &db_after, *insert, batch)
                    }),
                    Err(_) => false,
                };
                report.check(shadowed, || format!("shadow engines failed batch {i}"));
                if traced {
                    traced_batches += 1;
                }
            }
            if pass == 0 {
                graph_triples += session.db().num_triples() as u64;
            }

            // The read: ad-hoc prunes over the graph the write produced.
            let t0 = Instant::now();
            let read_span = tracer.open("churn.read", None);
            let mut pruned_reads = Vec::with_capacity(reads.len());
            for read in &reads {
                let parsed = tracer.span("query.parse", read_span, || parse(read.text));
                let Ok(query) = parsed else {
                    report.check(false, || format!("{}: read text failed to parse", read.id));
                    continue;
                };
                let prune_span = tracer.open("core.prune", read_span);
                let pruned = prune(session.db(), &query, &read_cfg);
                tracer.close(prune_span);
                pruned_reads.push((query, prune_span, pruned));
            }
            tracer.close(read_span);
            if cycles.measuring() {
                read_lat.push(ms(t0.elapsed()));
            }
            if traced {
                traced_reads += 1;
                let db = session.db();
                for (query, prune_span, _) in &pruned_reads {
                    let sois = tracer.span("soi.build_sois", *prune_span, || build_sois(db, query));
                    for soi in &sois {
                        tracer.span("solver.solve", *prune_span, || solve(db, soi, &read_cfg));
                    }
                }
            }
            if pass == 0 {
                for (_, _, pruned) in &pruned_reads {
                    read_work += pruned
                        .branch_stats
                        .iter()
                        .map(|s| s.work_ops() as u64)
                        .sum::<u64>();
                    read_iters += pruned.iterations() as u64;
                    read_kept += pruned.num_kept() as u64;
                    read_db += session.db().num_triples() as u64;
                }
            }
        }
        if pass == 0 {
            let s = session.stats();
            report
                .counts
                .insert("churn.batches_per_pass", script.len() as u64);
            report.counts.insert(
                "incremental.work_ops",
                session_work_ops(&session) - work_before,
            );
            report
                .counts
                .insert("session.batches", (s.batches - stats_before.batches) as u64);
            report.counts.insert(
                "session.triples_validated",
                (s.triples_validated - stats_before.triples_validated) as u64,
            );
            report.counts.insert(
                "session.fanout_applications",
                (s.fanout_applications - stats_before.fanout_applications) as u64,
            );
            report.counts.insert("graph.triples", graph_triples);
            report.counts.insert("solver.work_ops", read_work);
            report.counts.insert("solver.iterations", read_iters);
            report.counts.insert("pruning.kept_triples", read_kept);
            report.counts.insert("pruning.database_triples", read_db);
        }
        if !cycles.end_cycle() {
            break;
        }
    }

    // Every standing query's χ must equal a cold solve over the final
    // graph, and every query must still be healthy.
    for (name, _) in &standing {
        let healthy = session.health(name).is_ok_and(|h| h.is_healthy());
        let sois = session.sois(name).unwrap_or_default();
        let sols = session.solutions(name).unwrap_or_default();
        let same = sois.len() == sols.len()
            && sois
                .iter()
                .zip(&sols)
                .all(|(soi, sol)| solve(session.db(), soi, &cfg).chi == sol.chi);
        report.check(healthy && same, || {
            format!("{name}: maintained χ differs from a cold solve (healthy: {healthy})")
        });
    }

    report.e2e.insert("setup_s", setup_s);
    report.e2e.insert("peak_rss_mb", crate::peak_rss_mb());
    report.e2e.insert("op_p50_ms", percentile(&batch_lat, 50.0));
    report.e2e.insert("op_p90_ms", percentile(&batch_lat, 90.0));
    report.e2e.insert("ops_per_s", cycles.rate());
    report.cycle_rates = cycles.rates().to_vec();
    report
        .e2e
        .insert("side_p50_ms", percentile(&read_lat, 50.0));
    report.samples.insert("op", batch_lat.len());
    report.samples.insert("side", read_lat.len());
    report
        .info
        .insert("measured_cycles", (cycles.index() - 1) as f64);
    report
        .info
        .insert("measured_s", cycles.measured().as_secs_f64());
    report
        .info
        .insert("lubm_triples", session.db().num_triples() as f64);

    if p.trace {
        let by = tracer.by_name();
        let nb = script.len() as f64;
        let c = &report.counts;
        let batch = |k: &str, own: bool| per_op(&by, k, own, traced_batches, 1e3);
        let read = |k: &str, own: bool, scale: f64| per_op(&by, k, own, traced_reads, scale);
        let apply = batch("session.apply_batch", false);
        let graph = batch("graph.with_triples", false);
        let layers = [
            ("datagen.generate_s", percentile(&generate, 50.0)),
            ("query.parse_us", read("query.parse", false, 1e6)),
            ("soi.build_us", read("soi.build_sois", false, 1e6)),
            ("solver.solve_ms", read("solver.solve", false, 1e3)),
            ("solver.work_ops", c["solver.work_ops"] as f64 / nb),
            ("solver.iterations", c["solver.iterations"] as f64 / nb),
            ("pruning.extract_ms", read("core.prune", true, 1e3)),
            (
                "pruning.kept_ratio",
                c["pruning.kept_triples"] as f64 / c["pruning.database_triples"] as f64,
            ),
            ("graph.with_triples_ms", graph),
            ("graph.triples", c["graph.triples"] as f64 / nb),
            ("graph.batch_share", graph / apply),
            ("incremental.apply_ms", batch("incremental.apply", false)),
            (
                "incremental.work_ops",
                c["incremental.work_ops"] as f64 / nb,
            ),
            ("session.apply_batch_ms", apply),
            ("session.self_ms", batch("session.apply_batch", true)),
            (
                "session.triples_validated",
                c["session.triples_validated"] as f64 / nb,
            ),
            (
                "session.fanout_applications",
                c["session.fanout_applications"] as f64 / nb,
            ),
            ("tracing.overhead_ms", split.overhead_ms()),
        ];
        report.layers.extend(layers);
        crate::dump_spans(&tracer, p, "churn", &mut report);
    }
    report
}
