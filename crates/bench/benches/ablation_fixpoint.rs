//! Ablation of the two fixpoint engines (ISSUE 2): whole-inequality
//! re-evaluation vs. delta-counting removal propagation, on cold solves
//! over representative workload shapes, on warm restarts after a
//! deletion, and on the fully incremental maintenance path where the
//! delta engine's persistent support counters shine.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use dualsim_bench::{bench_datasets, FIXPOINT_MODES};
use dualsim_core::{build_sois, solve, solve_from, IncrementalDualSim, SolverConfig};
use dualsim_datagen::workloads::all_queries;
use dualsim_graph::Triple;
use std::hint::black_box;

fn cold_solves(c: &mut Criterion) {
    let data = bench_datasets();
    let mut group = c.benchmark_group("fixpoint_cold");
    group.sample_size(10);
    group.warm_up_time(std::time::Duration::from_millis(300));
    group.measurement_time(std::time::Duration::from_millis(1200));
    // The Fig. 6 queries (many vs. few iterations) plus a cyclic and a
    // high-volume DBpedia shape.
    for bench in all_queries()
        .into_iter()
        .filter(|b| matches!(b.id, "L0" | "L1" | "L2" | "D4" | "B14"))
    {
        let db = data.for_query(&bench);
        let sois = build_sois(db, &bench.query);
        for (name, fixpoint) in FIXPOINT_MODES {
            let cfg = SolverConfig {
                fixpoint,
                ..SolverConfig::default()
            };
            group.bench_with_input(BenchmarkId::new(name, bench.id), &sois, |b, sois| {
                b.iter(|| {
                    for soi in sois {
                        black_box(solve(db, soi, &cfg));
                    }
                })
            });
        }
    }
    group.finish();
}

fn incremental_deletions(c: &mut Criterion) {
    let data = bench_datasets();
    let mut group = c.benchmark_group("fixpoint_incremental");
    group.sample_size(10);
    group.warm_up_time(std::time::Duration::from_millis(300));
    group.measurement_time(std::time::Duration::from_millis(1500));
    for bench in all_queries()
        .into_iter()
        .filter(|b| matches!(b.id, "L0" | "L1"))
    {
        let db = data.for_query(&bench);
        let soi = build_sois(db, &bench.query).remove(0);
        // Delete every 25th triple in one batch.
        let deleted: Vec<Triple> = db.triples().step_by(25).collect();
        let db_after = db.apply(false, &deleted).unwrap();
        for (name, fixpoint) in FIXPOINT_MODES {
            let cfg = SolverConfig {
                fixpoint,
                early_exit: false,
                ..SolverConfig::default()
            };
            // Warm restart: re-converge from the previous χ (stateless,
            // both engines re-seed their bookkeeping).
            let prev = solve(db, &soi, &cfg);
            group.bench_with_input(
                BenchmarkId::new(format!("{name}/warm-restart"), bench.id),
                &prev.chi,
                |b, chi| {
                    b.iter(|| black_box(solve_from(&db_after, &soi, &cfg, chi.clone())))
                },
            );
            // Maintenance: IncrementalDualSim routes deletions into the
            // persistent delta queue (delta mode) or a solve_from
            // (re-evaluation mode). The per-iteration clone is the price
            // of repeatability and is identical across engines.
            let template = IncrementalDualSim::new(db, soi.clone(), cfg);
            group.bench_with_input(
                BenchmarkId::new(format!("{name}/maintain"), bench.id),
                &template,
                |b, template| {
                    b.iter(|| {
                        let mut inc = template.clone();
                        black_box(inc.apply_deletions(&db_after, &deleted).unwrap());
                    })
                },
            );
        }
    }
    group.finish();
}

criterion_group!(benches, cold_solves, incremental_deletions);
criterion_main!(benches);
