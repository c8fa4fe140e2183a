//! Property-based equivalence tests for the two fixpoint engines and
//! every storage/execution axis: on random graphs × random queries,
//! [`FixpointMode::DeltaCounting`] and [`FixpointMode::Reevaluate`]
//! must produce bit-identical χ fixpoints and agree on emptiness — for
//! dual and forward-only simulation, with and without early exit, and
//! along incremental deletion chains and interleaved
//! insertion/deletion churn — and the χ backends
//! ([`ChiBackend::Dense`] / [`ChiBackend::Rle`]), the counter-slab
//! backends (`SlabBackend::{Dense, Sparse, Auto}`) and the word-level
//! kernel instantiations (`KernelBackend::{Scalar, Simd}`) must
//! additionally agree on every *logical* work counter
//! ([`crate::SolveStats::logical`] — everything except the storage
//! gauges and the run-aware drain's `row_lookups`).
//!
//! [`FixpointMode::DeltaCounting`]: crate::FixpointMode::DeltaCounting
//! [`FixpointMode::Reevaluate`]: crate::FixpointMode::Reevaluate
//! [`ChiBackend::Dense`]: crate::ChiBackend::Dense
//! [`ChiBackend::Rle`]: crate::ChiBackend::Rle

use crate::{
    build_sois_with, solve, solve_from, ChiBackend, FixpointMode, IncrementalDualSim,
    KernelBackend, SimulationKind, SlabBackend, SolverConfig,
};
use dualsim_bitmatrix::kernels::with_backend;
use dualsim_graph::{GraphDb, GraphDbBuilder, NodeKind, Triple};
use dualsim_query::{parse, Query};
use proptest::prelude::*;

const NODES: u8 = 10;
const LABELS: u8 = 3;

fn arb_db() -> impl Strategy<Value = GraphDb> {
    proptest::collection::vec((0..NODES, 0..LABELS, 0..NODES), 1..36).prop_map(|triples| {
        let mut b = GraphDbBuilder::new();
        // Intern all nodes first so identifiers are stable across
        // databases generated from different triple lists.
        for i in 0..NODES {
            b.add_node(&format!("n{i}"), NodeKind::Iri).unwrap();
        }
        for l in 0..LABELS {
            b.intern_label(&format!("p{l}"));
        }
        for (s, p, o) in triples {
            b.add_triple(&format!("n{s}"), &format!("p{p}"), &format!("n{o}"))
                .unwrap();
        }
        b.finish()
    })
}

/// One triple pattern as concrete syntax; label index `LABELS` denotes a
/// predicate absent from every generated database, and a few objects are
/// constants (sometimes absent ones).
fn arb_pattern() -> impl Strategy<Value = String> {
    (0u8..4, 0..=LABELS, prop_oneof![
        6 => (0u8..4).prop_map(|o| format!("?v{o}")),
        1 => (0..NODES).prop_map(|o| format!("<n{o}>")),
        1 => Just("<unknown_node>".to_owned()),
    ])
        .prop_map(|(s, p, o)| format!("?v{s} p{p} {o}"))
}

fn arb_query() -> impl Strategy<Value = Query> {
    (
        proptest::collection::vec(arb_pattern(), 1..4),
        proptest::collection::vec(arb_pattern(), 0..3),
    )
        .prop_map(|(mandatory, optional)| {
            let text = if optional.is_empty() {
                format!("{{ {} }}", mandatory.join(" . "))
            } else {
                format!(
                    "{{ {} OPTIONAL {{ {} }} }}",
                    mandatory.join(" . "),
                    optional.join(" . ")
                )
            };
            parse(&text).unwrap_or_else(|e| panic!("{text}: {e}"))
        })
}

fn cfg(fixpoint: FixpointMode, early_exit: bool) -> SolverConfig {
    SolverConfig {
        fixpoint,
        early_exit,
        ..SolverConfig::default()
    }
}

/// A unique scratch directory per call for durability tests (the
/// container has no tempfile crate).
fn scratch_dir() -> std::path::PathBuf {
    use std::sync::atomic::{AtomicU64, Ordering};
    static NEXT: AtomicU64 = AtomicU64::new(0);
    let dir = std::env::temp_dir().join(format!(
        "dualsim-proptest-{}-{}",
        std::process::id(),
        NEXT.fetch_add(1, Ordering::Relaxed)
    ));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Both engines converge to the identical largest solution on every
    /// union-free branch, for every (kind × early-exit) combination.
    #[test]
    fn delta_and_reevaluate_compute_the_same_fixpoint(db in arb_db(), q in arb_query()) {
        for kind in [SimulationKind::Dual, SimulationKind::Forward] {
            for soi in build_sois_with(&db, &q, kind) {
                for early_exit in [false, true] {
                    let reev = solve(&db, &soi, &cfg(FixpointMode::Reevaluate, early_exit));
                    let delta = solve(&db, &soi, &cfg(FixpointMode::DeltaCounting, early_exit));
                    prop_assert_eq!(
                        &reev.chi, &delta.chi,
                        "{} ({:?}, early_exit={})", q, kind, early_exit
                    );
                    prop_assert_eq!(
                        reev.is_certainly_empty(), delta.is_certainly_empty(),
                        "{} ({:?}, early_exit={})", q, kind, early_exit
                    );
                }
            }
        }
    }

    /// The delta engine's warm start (`solve_from` on a previous, larger
    /// solution after deletions) matches the re-evaluation warm start
    /// and the cold solve.
    #[test]
    fn delta_warm_start_matches_cold(db in arb_db(), q in arb_query(), keep_every in 2usize..5) {
        let remaining: Vec<Triple> = db
            .triples()
            .enumerate()
            .filter(|(i, _)| i % keep_every != 0)
            .map(|(_, t)| t)
            .collect();
        let db_after = db.with_triples(&remaining).unwrap();
        for soi in build_sois_with(&db, &q, SimulationKind::Dual) {
            for fixpoint in [FixpointMode::Reevaluate, FixpointMode::DeltaCounting] {
                let config = cfg(fixpoint, false);
                let old = solve(&db, &soi, &config);
                let warm = solve_from(&db_after, &soi, &config, old.chi.clone());
                let cold = solve(&db_after, &soi, &config);
                prop_assert_eq!(&warm.chi, &cold.chi, "{} ({:?})", q, fixpoint);
            }
        }
    }

    /// The χ storage backend is a *pure representation choice*: for
    /// every engine × kind × early-exit combination, the dense and RLE
    /// backends (and the per-solve `Auto` resolution) converge to
    /// bit-identical χ and identical logical work counters — every
    /// field of `SolveStats` except the backend-dependent
    /// `chi_peak_words` storage metric.
    #[test]
    fn chi_backends_are_equivalent(db in arb_db(), q in arb_query()) {
        for kind in [SimulationKind::Dual, SimulationKind::Forward] {
            for soi in build_sois_with(&db, &q, kind) {
                for fixpoint in [FixpointMode::Reevaluate, FixpointMode::DeltaCounting] {
                    for early_exit in [false, true] {
                        let cfg = |chi_backend| SolverConfig {
                            chi_backend,
                            ..cfg(fixpoint, early_exit)
                        };
                        let dense = solve(&db, &soi, &cfg(ChiBackend::Dense));
                        let rle = solve(&db, &soi, &cfg(ChiBackend::Rle));
                        let auto = solve(&db, &soi, &cfg(ChiBackend::Auto));
                        let ctx = format!("{q} ({kind:?}, {fixpoint:?}, early_exit={early_exit})");
                        prop_assert_eq!(&dense.chi, &rle.chi, "dense vs rle on {}", ctx);
                        prop_assert_eq!(&dense.chi, &auto.chi, "dense vs auto on {}", ctx);
                        prop_assert_eq!(
                            dense.stats.logical(), rle.stats.logical(),
                            "logical stats diverge on {}", ctx
                        );
                        prop_assert_eq!(
                            dense.stats.logical(), auto.stats.logical(),
                            "auto logical stats diverge on {}", ctx
                        );
                    }
                }
            }
        }
    }

    /// Incremental deletion chains through the RLE backend track the
    /// dense backend bit for bit — χ *and* logical work counters after
    /// every batch — and both track a cold dense solve.
    #[test]
    fn chi_backends_agree_along_incremental_deletion_chains(db in arb_db(), q in arb_query()) {
        let cfg = |chi_backend| SolverConfig {
            chi_backend,
            ..cfg(FixpointMode::DeltaCounting, false)
        };
        for soi in build_sois_with(&db, &q, SimulationKind::Dual) {
            let mut dense = IncrementalDualSim::new(&db, soi.clone(), cfg(ChiBackend::Dense));
            let mut rle = IncrementalDualSim::new(&db, soi.clone(), cfg(ChiBackend::Rle));
            let mut triples: Vec<Triple> = db.triples().collect();
            while triples.len() > 1 {
                let batch: Vec<Triple> = triples.split_off(triples.len().saturating_sub(2));
                let db_after = db.with_triples(&triples).unwrap();
                dense.apply_deletions(&db_after, &batch).unwrap();
                rle.apply_deletions(&db_after, &batch).unwrap();
                prop_assert_eq!(&dense.solution().chi, &rle.solution().chi, "{}", q);
                prop_assert_eq!(
                    dense.solution().stats.logical(),
                    rle.solution().stats.logical(),
                    "{}", q
                );
                let cold = solve(&db_after, &soi, &cfg(ChiBackend::Dense));
                prop_assert_eq!(&rle.solution().chi, &cold.chi, "{} vs cold", q);
            }
        }
    }

    /// The counter-slab backend and the χ backend are both *pure
    /// representation choices*: every combination of slab backend
    /// {Dense, Sparse, Auto} × χ backend {Dense, Rle} converges to
    /// bit-identical χ and identical *logical* work counters
    /// ([`crate::SolveStats::logical`] — everything except the storage
    /// gauges and the run-aware drain's `row_lookups`) — for dual and
    /// forward-only systems, with and without early exit.
    #[test]
    fn slab_and_chi_backends_are_equivalent(db in arb_db(), q in arb_query()) {
        for kind in [SimulationKind::Dual, SimulationKind::Forward] {
            for soi in build_sois_with(&db, &q, kind) {
                for early_exit in [false, true] {
                    let reference = solve(&db, &soi, &cfg(FixpointMode::DeltaCounting, early_exit));
                    for slab_backend in [SlabBackend::Dense, SlabBackend::Sparse, SlabBackend::Auto] {
                        for chi_backend in [ChiBackend::Dense, ChiBackend::Rle] {
                            let config = SolverConfig {
                                slab_backend,
                                chi_backend,
                                ..cfg(FixpointMode::DeltaCounting, early_exit)
                            };
                            let sol = solve(&db, &soi, &config);
                            let ctx = format!(
                                "{q} ({kind:?}, {slab_backend:?}, {chi_backend:?}, \
                                 early_exit={early_exit})"
                            );
                            prop_assert_eq!(&reference.chi, &sol.chi, "χ diverged on {}", ctx);
                            prop_assert_eq!(
                                reference.stats.logical(), sol.stats.logical(),
                                "logical stats diverged on {}", ctx
                            );
                        }
                    }
                }
            }
        }
    }

    /// Incremental deletion chains stay bit-identical across slab
    /// backends and χ backends — χ and logical work counters after
    /// every batch — and track a cold solve.
    #[test]
    fn slab_backends_agree_along_incremental_deletion_chains(db in arb_db(), q in arb_query()) {
        let config = |slab_backend, chi_backend| SolverConfig {
            slab_backend,
            chi_backend,
            ..cfg(FixpointMode::DeltaCounting, false)
        };
        for soi in build_sois_with(&db, &q, SimulationKind::Dual) {
            let mut engines: Vec<IncrementalDualSim> = [
                config(SlabBackend::Dense, ChiBackend::Dense),
                config(SlabBackend::Sparse, ChiBackend::Dense),
                config(SlabBackend::Sparse, ChiBackend::Rle),
                config(SlabBackend::Auto, ChiBackend::Rle),
            ]
            .into_iter()
            .map(|c| IncrementalDualSim::new(&db, soi.clone(), c))
            .collect();
            let mut triples: Vec<Triple> = db.triples().collect();
            while triples.len() > 1 {
                let batch: Vec<Triple> = triples.split_off(triples.len().saturating_sub(2));
                let db_after = db.with_triples(&triples).unwrap();
                for inc in engines.iter_mut() {
                    inc.apply_deletions(&db_after, &batch).unwrap();
                }
                let (reference, others) = engines.split_first().unwrap();
                for inc in others {
                    prop_assert_eq!(&reference.solution().chi, &inc.solution().chi, "{}", q);
                    prop_assert_eq!(
                        reference.solution().stats.logical(),
                        inc.solution().stats.logical(),
                        "{}", q
                    );
                }
                let cold = solve(&db_after, &soi, &cfg(FixpointMode::Reevaluate, false));
                prop_assert_eq!(&reference.solution().chi, &cold.chi, "{} vs cold", q);
            }
        }
    }

    /// Interleaved insertion/deletion churn stays bit-identical to cold
    /// solves in both fixpoint modes, across both slab backends and both
    /// χ backends — the delta engines serving
    /// *both* update directions from their persistent counters (the
    /// insertion side through the 0→1 re-activation frontier) and
    /// agreeing with each other on every logical work counter.
    #[test]
    fn interleaved_updates_agree_with_cold_solves(
        db in arb_db(),
        q in arb_query(),
        script in proptest::collection::vec((any::<bool>(), any::<u32>()), 1..10),
    ) {
        let reev_cfg = cfg(FixpointMode::Reevaluate, false);
        let delta_cfgs = [
            cfg(FixpointMode::DeltaCounting, false),
            SolverConfig {
                slab_backend: SlabBackend::Sparse,
                ..cfg(FixpointMode::DeltaCounting, false)
            },
            SolverConfig {
                chi_backend: ChiBackend::Rle,
                slab_backend: SlabBackend::Sparse,
                ..cfg(FixpointMode::DeltaCounting, false)
            },
        ];
        for soi in build_sois_with(&db, &q, SimulationKind::Dual) {
            let mut reev = IncrementalDualSim::new(&db, soi.clone(), reev_cfg.clone());
            let mut deltas: Vec<IncrementalDualSim> = delta_cfgs
                .iter()
                .map(|c| IncrementalDualSim::new(&db, soi.clone(), c.clone()))
                .collect();
            let mut present: Vec<Triple> = db.triples().collect();
            let mut absent: Vec<Triple> = Vec::new();
            for &(insert, pick) in &script {
                let (from, to) = if insert {
                    (&mut absent, &mut present)
                } else {
                    (&mut present, &mut absent)
                };
                if from.is_empty() {
                    continue;
                }
                // Move one or two triples between the present and
                // absent pools, chosen by the script.
                let mut batch: Vec<Triple> = Vec::new();
                for round in 0..=(pick as usize % 2) {
                    if from.is_empty() {
                        break;
                    }
                    let idx = (pick as usize + round) % from.len();
                    batch.push(from.swap_remove(idx));
                }
                to.extend(&batch);
                let db_after = db.with_triples(&present).unwrap();
                if insert {
                    reev.apply_insertions(&db_after, &batch).unwrap();
                    for inc in deltas.iter_mut() {
                        inc.apply_insertions(&db_after, &batch).unwrap();
                    }
                } else {
                    reev.apply_deletions(&db_after, &batch).unwrap();
                    for inc in deltas.iter_mut() {
                        inc.apply_deletions(&db_after, &batch).unwrap();
                    }
                }
                let cold = solve(&db_after, &soi, &reev_cfg);
                let op = if insert { "insert" } else { "delete" };
                prop_assert_eq!(
                    &reev.solution().chi, &cold.chi,
                    "{} reevaluate vs cold after {} {:?}", q, op, batch
                );
                let (reference, others) = deltas.split_first().unwrap();
                prop_assert_eq!(
                    &reference.solution().chi, &cold.chi,
                    "{} delta vs cold after {} {:?}", q, op, batch
                );
                for inc in others {
                    prop_assert_eq!(&reference.solution().chi, &inc.solution().chi, "{}", q);
                    prop_assert_eq!(
                        reference.solution().stats.logical(),
                        inc.solution().stats.logical(),
                        "{} logical stats diverged after {} {:?}", q, op, batch
                    );
                }
            }
        }
    }

    /// Incremental deletion maintenance stays bit-identical to cold
    /// solves in both modes, across a whole random deletion chain — the
    /// delta mode routing deletions through its persistent counters.
    #[test]
    fn incremental_deletions_agree_across_modes(db in arb_db(), q in arb_query()) {
        for soi in build_sois_with(&db, &q, SimulationKind::Dual) {
            let mut reev = IncrementalDualSim::new(
                &db, soi.clone(), cfg(FixpointMode::Reevaluate, false));
            let mut delta = IncrementalDualSim::new(
                &db, soi.clone(), cfg(FixpointMode::DeltaCounting, false));
            prop_assert_eq!(&reev.solution().chi, &delta.solution().chi, "{}", q);

            let mut triples: Vec<Triple> = db.triples().collect();
            while triples.len() > 1 {
                // Delete two triples per batch to exercise multi-triple
                // retraction.
                let batch: Vec<Triple> = triples.split_off(triples.len().saturating_sub(2));
                let db_after = db.with_triples(&triples).unwrap();
                reev.apply_deletions(&db_after, &batch).unwrap();
                delta.apply_deletions(&db_after, &batch).unwrap();
                prop_assert_eq!(
                    &reev.solution().chi, &delta.solution().chi,
                    "{} after deleting {:?}", q, batch
                );
                let cold = solve(&db_after, &soi, &cfg(FixpointMode::Reevaluate, false));
                prop_assert_eq!(&delta.solution().chi, &cold.chi, "{} vs cold", q);
            }
        }
    }

    /// Chaos: kill maintenance at **every registered failpoint site**
    /// (the engine's and the durability layer's —
    /// `failpoints::registered_sites()`, so a site added to either
    /// layer is covered automatically) across random
    /// insert/delete/mixed churn on a *durable* instance. A batch
    /// crashed before its WAL record was committed must roll back to
    /// the exact pre-batch solution; a batch crashed in the *snapshot*
    /// path after its record committed stays applied (the documented
    /// exception). Either way the instance must then converge to the
    /// cold solve. The `rollback` site is exercised as a *failing
    /// rollback* (armed together with a crash point), which must poison
    /// and then heal.
    #[test]
    fn chaos_killed_maintenance_recovers_to_cold_solves(
        db in arb_db(),
        q in arb_query(),
        script in proptest::collection::vec((any::<bool>(), 0u8..250), 1..7),
        countdown in 0u32..3,
    ) {
        use crate::{failpoints, DurabilityOptions, MaintainError};
        let config = cfg(FixpointMode::DeltaCounting, false);
        let sites = failpoints::registered_sites();
        for (branch, soi) in build_sois_with(&db, &q, SimulationKind::Dual).into_iter().enumerate() {
            let dir = scratch_dir();
            let mut opts = DurabilityOptions::new(&dir);
            // Snapshot every batch so the snapshot sites are reachable.
            opts.snapshot_every = Some(1);
            opts.meta = format!("branch {branch}");
            let mut inc =
                IncrementalDualSim::new_durable(&db, soi.clone(), config.clone(), &opts).unwrap();
            let mut present: Vec<Triple> = db.triples().collect();
            let mut absent: Vec<Triple> = Vec::new();
            for (step, &(insert, pick)) in script.iter().enumerate() {
                let (from, to) = if insert {
                    (&mut absent, &mut present)
                } else {
                    (&mut present, &mut absent)
                };
                if from.is_empty() {
                    continue;
                }
                let mut batch: Vec<Triple> = Vec::new();
                for round in 0..=(pick as usize % 2) {
                    if from.is_empty() {
                        break;
                    }
                    let idx = (pick as usize + round) % from.len();
                    batch.push(from.swap_remove(idx));
                }
                to.extend(&batch);
                let db_after = db.with_triples(&present).unwrap();
                let pre_chi = inc.solution().chi.clone();

                // Rotate the crash site through every registered
                // failpoint; the `rollback` site additionally arms
                // `pre-drain` so there is an abort whose rollback can
                // fail.
                let point = sites[(step + pick as usize) % sites.len()];
                failpoints::disarm_all();
                failpoints::arm(point, countdown);
                if point == "rollback" {
                    failpoints::arm("pre-drain", 0);
                }
                let crashed = if insert {
                    inc.apply_insertions(&db_after, &batch).map(|_| ())
                } else {
                    inc.apply_deletions(&db_after, &batch).map(|_| ())
                };
                failpoints::disarm_all();

                match crashed {
                    // A crash in the snapshot path happens *after* the
                    // batch committed (WAL record on disk, epoch
                    // advanced): the solution is the post-batch one and
                    // no retry is due.
                    Err(MaintainError::Failpoint { point })
                        if point.starts_with("snapshot-") => {}
                    Err(MaintainError::Failpoint { .. }) => {
                        // The batch rolled back (or poisoned): the
                        // published solution must be the untouched
                        // pre-batch one either way.
                        prop_assert_eq!(
                            &inc.solution().chi, &pre_chi,
                            "{} crash at {} left a half-applied batch", q, point
                        );
                        // Re-apply without faults: a warm engine
                        // continues, a poisoned one heals by rebuild.
                        let healed = if insert {
                            inc.apply_insertions(&db_after, &batch).map(|_| ())
                        } else {
                            inc.apply_deletions(&db_after, &batch).map(|_| ())
                        };
                        prop_assert!(healed.is_ok(), "{} retry after {}: {:?}", q, point, healed);
                        prop_assert!(!inc.engine_is_poisoned(), "{} still poisoned", q);
                    }
                    Err(e) => prop_assert!(false, "{} unexpected error {:?}", q, e),
                    // The armed site was not reached (or its countdown
                    // did not elapse): the batch applied normally.
                    Ok(()) => {}
                }
                let cold = solve(&db_after, &soi, &config);
                prop_assert_eq!(
                    &inc.solution().chi, &cold.chi,
                    "{} diverged from cold after {} crash at {} ({:?})",
                    q, if insert { "insert" } else { "delete" }, point, batch
                );
            }
            std::fs::remove_dir_all(&dir).ok();
        }
    }

    /// Durable chaos: kill a durable resident at every registered
    /// failpoint site mid-script, abandon the in-memory instance (the
    /// "process died"), and [`IncrementalDualSim::recover`] from disk.
    /// The recovered χ and logical `SolveStats` must be bit-identical
    /// to an uninterrupted plain run over the committed batch prefix —
    /// across χ {Dense, Rle} × slab {Dense, Sparse}, and in
    /// re-evaluation mode.
    #[test]
    fn chaos_durable_kills_recover_bit_identical(
        db in arb_db(),
        q in arb_query(),
        script in proptest::collection::vec((any::<bool>(), 0u8..250), 1..6),
        site_pick in 0usize..12,
        countdown in 0u32..2,
    ) {
        use crate::{failpoints, DurabilityOptions, MaintainError};
        let configs = [
            cfg(FixpointMode::DeltaCounting, false),
            SolverConfig {
                chi_backend: ChiBackend::Rle,
                slab_backend: SlabBackend::Sparse,
                ..cfg(FixpointMode::DeltaCounting, false)
            },
            SolverConfig {
                slab_backend: SlabBackend::Sparse,
                ..cfg(FixpointMode::DeltaCounting, false)
            },
            cfg(FixpointMode::Reevaluate, false),
        ];
        let sites = failpoints::registered_sites();
        let Some(soi) = build_sois_with(&db, &q, SimulationKind::Dual).into_iter().next() else {
            return Ok(());
        };
        for config in &configs {
            let dir = scratch_dir();
            let mut opts = DurabilityOptions::new(&dir);
            opts.snapshot_every = Some(2);
            let mut durable =
                IncrementalDualSim::new_durable(&db, soi.clone(), config.clone(), &opts).unwrap();
            let mut present: Vec<Triple> = db.triples().collect();
            let mut absent: Vec<Triple> = Vec::new();
            // Every batch attempted, in order — WAL epoch e holds batch
            // `history[e - 1]`.
            let mut history: Vec<(bool, Vec<Triple>)> = Vec::new();
            for (step, &(insert, pick)) in script.iter().enumerate() {
                let (from, to) = if insert {
                    (&mut absent, &mut present)
                } else {
                    (&mut present, &mut absent)
                };
                if from.is_empty() {
                    continue;
                }
                let mut batch: Vec<Triple> = Vec::new();
                for round in 0..=(pick as usize % 2) {
                    if from.is_empty() {
                        break;
                    }
                    let idx = (pick as usize + round) % from.len();
                    batch.push(from.swap_remove(idx));
                }
                to.extend(&batch);
                let db_after = db.with_triples(&present).unwrap();
                let point = sites[(step + site_pick) % sites.len()];
                failpoints::disarm_all();
                failpoints::arm(point, countdown);
                if point == "rollback" {
                    failpoints::arm("pre-drain", 0);
                }
                let res = if insert {
                    durable.apply_insertions(&db_after, &batch).map(|_| ())
                } else {
                    durable.apply_deletions(&db_after, &batch).map(|_| ())
                };
                failpoints::disarm_all();
                history.push((insert, batch));
                match res {
                    Ok(()) => {}
                    // The "process dies" at the injected fault: stop
                    // driving the instance mid-script.
                    Err(MaintainError::Failpoint { .. }) => break,
                    Err(e) => prop_assert!(false, "{} unexpected error {:?}", q, e),
                }
            }
            drop(durable); // crash: only the durability directory survives

            let rec = IncrementalDualSim::recover(&opts).unwrap();
            let committed = rec.report.epoch as usize;
            // Recovery lands on a committed prefix of the attempted
            // history: everything the run acknowledged, plus possibly
            // the killed batch itself iff its WAL record hit the disk
            // before the crash (a torn or unwritten record drops it, a
            // fully framed one — e.g. a crash between write and fsync
            // acknowledgment, or in the snapshot path — keeps it).
            prop_assert!(
                committed <= history.len(),
                "{} recovered {} epochs from {} attempts", q, committed, history.len()
            );
            // Reference: an uninterrupted plain run over that prefix.
            let mut reference = IncrementalDualSim::new(&db, soi.clone(), config.clone());
            let mut ref_present: Vec<Triple> = db.triples().collect();
            for (insert, batch) in &history[..committed] {
                if *insert {
                    ref_present.extend(batch.iter().copied());
                } else {
                    ref_present.retain(|t| !batch.contains(t));
                }
                let db_i = db.with_triples(&ref_present).unwrap();
                if *insert {
                    reference.apply_insertions(&db_i, batch).unwrap();
                } else {
                    reference.apply_deletions(&db_i, batch).unwrap();
                }
            }
            prop_assert_eq!(
                &rec.sim.solution().chi, &reference.solution().chi,
                "{} recovered χ diverged over {} committed epochs ({:?})",
                q, committed, config
            );
            prop_assert_eq!(
                rec.sim.maintenance_stats().logical(),
                reference.maintenance_stats().logical(),
                "{} recovered logical stats diverged ({:?})", q, config
            );
            prop_assert_eq!(rec.db.num_triples(), db.with_triples(&ref_present).unwrap().num_triples());
            std::fs::remove_dir_all(&dir).ok();
        }
    }

    /// Recovery fuzzing: truncate the WAL at **every record boundary**
    /// and at a random intra-record offset, from the tail downwards.
    /// Each recovery must land exactly on the longest committed prefix
    /// — χ and logical stats bit-identical to an uninterrupted run of
    /// that prefix — reporting the torn bytes it discarded.
    #[test]
    fn fuzzed_wal_truncation_recovers_every_committed_prefix(
        db in arb_db(),
        q in arb_query(),
        intra in 1usize..64,
    ) {
        use crate::DurabilityOptions;
        let config = cfg(FixpointMode::DeltaCounting, false);
        let Some(soi) = build_sois_with(&db, &q, SimulationKind::Dual).into_iter().next() else {
            return Ok(());
        };
        let dir = scratch_dir();
        let opts = DurabilityOptions::new(&dir);
        let mut durable =
            IncrementalDualSim::new_durable(&db, soi.clone(), config.clone(), &opts).unwrap();
        // One deletion batch per triple, up to 4 batches; record the
        // expected solution after every prefix.
        let mut triples: Vec<Triple> = db.triples().collect();
        let mut reference = IncrementalDualSim::new(&db, soi.clone(), config.clone());
        let mut expected = vec![(
            reference.solution().chi.clone(),
            reference.maintenance_stats().logical(),
        )];
        let batches = triples.len().min(4);
        for _ in 0..batches {
            let victim = triples.pop().unwrap();
            let db_after = db.with_triples(&triples).unwrap();
            durable.apply_deletions(&db_after, &[victim]).unwrap();
            reference.apply_deletions(&db_after, &[victim]).unwrap();
            expected.push((
                reference.solution().chi.clone(),
                reference.maintenance_stats().logical(),
            ));
        }
        drop(durable);
        drop(reference);

        // Parse the WAL frames to find every record boundary: 8-byte
        // header, then per record a 4-byte length + 4-byte CRC + body.
        let wal_path = dir.join("wal.log");
        let bytes = std::fs::read(&wal_path).unwrap();
        let mut boundaries = vec![8usize];
        let mut pos = 8usize;
        while pos + 8 <= bytes.len() {
            let len = u32::from_le_bytes([bytes[pos], bytes[pos+1], bytes[pos+2], bytes[pos+3]]) as usize;
            pos += 8 + len;
            prop_assert!(pos <= bytes.len(), "clean WAL has no torn frame");
            boundaries.push(pos);
        }
        prop_assert_eq!(boundaries.len(), batches + 1, "one record per batch");

        // Truncate from the tail downwards: first mid-record (a torn
        // final record), then exactly at the boundary below it.
        for i in (0..batches).rev() {
            let record_len = boundaries[i + 1] - boundaries[i];
            let cut = boundaries[i] + 1 + (intra % (record_len - 1));
            for (offset, expect_epoch) in [(cut, i), (boundaries[i], i)] {
                let f = std::fs::OpenOptions::new().write(true).open(&wal_path).unwrap();
                f.set_len(offset as u64).unwrap();
                drop(f);
                let rec = IncrementalDualSim::recover(&opts).unwrap();
                prop_assert_eq!(
                    rec.report.epoch as usize, expect_epoch,
                    "{} truncated at byte {} (boundary {})", q, offset, boundaries[i]
                );
                let (chi, logical) = &expected[expect_epoch];
                prop_assert_eq!(&rec.sim.solution().chi, chi, "{} prefix {}", q, expect_epoch);
                prop_assert_eq!(
                    &rec.sim.maintenance_stats().logical(), logical,
                    "{} prefix {} logical stats", q, expect_epoch
                );
            }
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Recovery fuzzing: flip a random byte in the WAL body (the CRC
    /// must detect it — recovery lands on the prefix before the damaged
    /// record) and in the newest snapshot (recovery must skip it and
    /// fall back to an older snapshot plus a longer WAL replay),
    /// asserting parity with an uninterrupted run in both cases.
    #[test]
    fn fuzzed_bit_flips_are_detected_by_checksums(
        db in arb_db(),
        q in arb_query(),
        flip_pos in any::<u64>(),
        flip_bit in 0u8..8,
    ) {
        use crate::DurabilityOptions;
        let config = cfg(FixpointMode::DeltaCounting, false);
        let Some(soi) = build_sois_with(&db, &q, SimulationKind::Dual).into_iter().next() else {
            return Ok(());
        };

        // Run with snapshots disabled: only the epoch-0 snapshot, all
        // batches in the WAL. Flip one byte of the WAL.
        let dir = scratch_dir();
        let opts = DurabilityOptions::new(&dir);
        let mut durable =
            IncrementalDualSim::new_durable(&db, soi.clone(), config.clone(), &opts).unwrap();
        let mut reference = IncrementalDualSim::new(&db, soi.clone(), config.clone());
        let mut expected = vec![(
            reference.solution().chi.clone(),
            reference.maintenance_stats().logical(),
        )];
        let mut triples: Vec<Triple> = db.triples().collect();
        let batches = triples.len().min(3);
        for _ in 0..batches {
            let victim = triples.pop().unwrap();
            let db_after = db.with_triples(&triples).unwrap();
            durable.apply_deletions(&db_after, &[victim]).unwrap();
            reference.apply_deletions(&db_after, &[victim]).unwrap();
            expected.push((
                reference.solution().chi.clone(),
                reference.maintenance_stats().logical(),
            ));
        }
        drop(durable);

        let wal_path = dir.join("wal.log");
        let mut bytes = std::fs::read(&wal_path).unwrap();
        let pos = (flip_pos as usize) % bytes.len();
        bytes[pos] ^= 1 << flip_bit;
        std::fs::write(&wal_path, &bytes).unwrap();
        let rec = IncrementalDualSim::recover(&opts).unwrap();
        let committed = rec.report.epoch as usize;
        prop_assert!(committed <= batches, "{} flip at byte {} bit {}", q, pos, flip_bit);
        let (chi, logical) = &expected[committed];
        prop_assert_eq!(
            &rec.sim.solution().chi, chi,
            "{} flip at byte {} bit {} recovered a damaged prefix", q, pos, flip_bit
        );
        prop_assert_eq!(&rec.sim.maintenance_stats().logical(), logical, "{}", q);
        std::fs::remove_dir_all(&dir).ok();

        // Run with a snapshot per batch; flip one byte of the *newest*
        // snapshot. Recovery must skip it for an older one and replay
        // the WAL tail to full parity.
        let dir = scratch_dir();
        let mut opts = DurabilityOptions::new(&dir);
        opts.snapshot_every = Some(1);
        let mut durable =
            IncrementalDualSim::new_durable(&db, soi.clone(), config.clone(), &opts).unwrap();
        let mut triples: Vec<Triple> = db.triples().collect();
        for _ in 0..batches {
            let victim = triples.pop().unwrap();
            let db_after = db.with_triples(&triples).unwrap();
            durable.apply_deletions(&db_after, &[victim]).unwrap();
        }
        drop(durable);
        let mut snaps: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().path())
            .filter(|p| p.extension().is_some_and(|x| x == "snap"))
            .collect();
        snaps.sort();
        let newest = snaps.last().unwrap();
        let mut bytes = std::fs::read(newest).unwrap();
        let pos = (flip_pos as usize) % bytes.len();
        bytes[pos] ^= 1 << flip_bit;
        std::fs::write(newest, &bytes).unwrap();
        let rec = IncrementalDualSim::recover(&opts).unwrap();
        prop_assert!(
            rec.report.snapshots_skipped >= 1,
            "{} damaged snapshot was not skipped", q
        );
        prop_assert_eq!(rec.report.epoch as usize, batches, "{}", q);
        let (chi, logical) = &expected[batches];
        prop_assert_eq!(&rec.sim.solution().chi, chi, "{}", q);
        prop_assert_eq!(&rec.sim.maintenance_stats().logical(), logical, "{}", q);
        std::fs::remove_dir_all(&dir).ok();
    }

    /// The word-level kernel is a *pure instruction-selection choice*:
    /// every kernel instantiation {Scalar, Simd} × χ backend {Dense,
    /// Rle} × slab backend {Dense, Sparse} converges to bit-identical χ
    /// and identical logical work counters, in both fixpoint engines —
    /// a kernel moves the same words faster, it never changes *which*
    /// words move. (`Simd` on a host without AVX2 runs the scalar
    /// fallback, which is itself a valid parity case.) The kernel is
    /// overridden per thread, so parallel test threads never switch
    /// each other's kernel mid-solve.
    #[test]
    fn kernel_backends_are_equivalent(db in arb_db(), q in arb_query()) {
        for soi in build_sois_with(&db, &q, SimulationKind::Dual) {
            for fixpoint in [FixpointMode::Reevaluate, FixpointMode::DeltaCounting] {
                let reference = with_backend(KernelBackend::Scalar, || {
                    solve(&db, &soi, &cfg(fixpoint, false))
                });
                for kernel in [KernelBackend::Scalar, KernelBackend::Simd] {
                    for chi_backend in [ChiBackend::Dense, ChiBackend::Rle] {
                        for slab_backend in [SlabBackend::Dense, SlabBackend::Sparse] {
                            let config = SolverConfig {
                                chi_backend,
                                slab_backend,
                                ..cfg(fixpoint, false)
                            };
                            let sol = with_backend(kernel, || solve(&db, &soi, &config));
                            let ctx = format!(
                                "{q} ({fixpoint:?}, {kernel:?}, {chi_backend:?}, {slab_backend:?})"
                            );
                            prop_assert_eq!(&reference.chi, &sol.chi, "χ diverged on {}", ctx);
                            prop_assert_eq!(
                                reference.stats.logical(), sol.stats.logical(),
                                "logical stats diverged on {}", ctx
                            );
                        }
                    }
                }
            }
        }
    }

    /// The drain budget is a sound degradation, never a wrong answer:
    /// under an absurdly tight budget every update still produces the
    /// cold-solve solution (served by rollback + transparent rebuild),
    /// and the robustness counters record how often that ladder was
    /// taken.
    #[test]
    fn chaos_tight_budgets_never_change_solutions(db in arb_db(), q in arb_query()) {
        let config = SolverConfig {
            drain_budget: Some(1),
            ..cfg(FixpointMode::DeltaCounting, false)
        };
        for soi in build_sois_with(&db, &q, SimulationKind::Dual) {
            let mut inc = IncrementalDualSim::new(&db, soi.clone(), config.clone());
            let mut triples: Vec<Triple> = db.triples().collect();
            while triples.len() > 1 {
                let batch: Vec<Triple> = triples.split_off(triples.len().saturating_sub(2));
                let db_after = db.with_triples(&triples).unwrap();
                let res = inc.apply_deletions(&db_after, &batch);
                prop_assert!(res.is_ok(), "{}: budget aborts are transparent, got {:?}", q, res);
                let cold = solve(&db_after, &soi, &config);
                prop_assert_eq!(
                    &inc.solution().chi, &cold.chi,
                    "{} diverged from cold under budget after deleting {:?}", q, batch
                );
            }
        }
    }
}

/// A query-text generator for the session tests ([`crate::QuerySession`]
/// registers by text, not by parsed [`Query`]). Same shape as
/// [`arb_query`].
fn arb_query_text() -> impl Strategy<Value = String> {
    (
        proptest::collection::vec(arb_pattern(), 1..4),
        proptest::collection::vec(arb_pattern(), 0..3),
    )
        .prop_map(|(mandatory, optional)| {
            if optional.is_empty() {
                format!("{{ {} }}", mandatory.join(" . "))
            } else {
                format!(
                    "{{ {} OPTIONAL {{ {} }} }}",
                    mandatory.join(" . "),
                    optional.join(" . ")
                )
            }
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Session chaos isolation: drive a durable multi-query session and
    /// an uninterrupted memory-only reference session through the same
    /// churn script, arming one registered failpoint site per batch.
    /// A kill must degrade at most the one query it fired in — every
    /// query that committed a batch stays bit-identical (χ *and*
    /// logical `SolveStats`, per branch) to the reference throughout,
    /// and once healing has run its ladder every query converges back
    /// to the reference's χ. Queries are spread across
    /// χ {Dense, Rle} × slab {Dense, Sparse} so isolation holds on
    /// every backend.
    #[test]
    fn chaos_session_kills_isolate_to_one_query(
        db in arb_db(),
        texts in proptest::collection::vec(arb_query_text(), 3..5),
        script in proptest::collection::vec((any::<bool>(), 0u8..250), 2..7),
        site_pick in 0usize..16,
        countdown in 0u32..3,
    ) {
        use crate::{
            failpoints, QueryOutcome, QuerySession, SessionDurability, SessionOptions,
        };
        use std::collections::BTreeSet;

        let configs = [
            cfg(FixpointMode::DeltaCounting, false),
            SolverConfig {
                chi_backend: ChiBackend::Rle,
                slab_backend: SlabBackend::Sparse,
                ..cfg(FixpointMode::DeltaCounting, false)
            },
            SolverConfig {
                slab_backend: SlabBackend::Sparse,
                ..cfg(FixpointMode::DeltaCounting, false)
            },
        ];
        let sites = failpoints::registered_sites();
        let dir = scratch_dir();
        let opts = SessionOptions {
            durability: Some(SessionDurability {
                root: dir.clone(),
                snapshot_every: Some(2),
                fsync: true,
                keep_snapshots: 2,
            }),
            ..SessionOptions::default()
        };
        failpoints::disarm_all();
        let mut chaotic = QuerySession::new(db.clone(), opts);
        let mut reference = QuerySession::new(db.clone(), SessionOptions::default());
        let mut names: Vec<String> = Vec::new();
        for (i, text) in texts.iter().enumerate() {
            let name = format!("q{i}");
            let config = configs[i % configs.len()].clone();
            chaotic.register(&name, text, config.clone()).unwrap();
            reference.register(&name, text, config).unwrap();
            names.push(name);
        }

        // Names that ever saw a non-Committed outcome: their engines may
        // have been rolled back, replayed, or rebuilt, so only their χ
        // (not their physical work counters) must converge.
        let mut tainted: BTreeSet<String> = BTreeSet::new();
        let mut present: Vec<Triple> = db.triples().collect();
        let mut absent: Vec<Triple> = Vec::new();
        let drive = |chaotic: &mut QuerySession,
                         reference: &mut QuerySession,
                         tainted: &mut BTreeSet<String>,
                         insert: bool,
                         batch: &[Triple],
                         point: Option<&'static str>|
         -> Result<(), proptest::test_runner::TestCaseError> {
            failpoints::disarm_all();
            if let Some(point) = point {
                failpoints::arm(point, countdown);
                if point == "rollback" {
                    failpoints::arm("pre-drain", 0);
                }
            }
            let report = chaotic.apply_batch(insert, batch).unwrap();
            failpoints::disarm_all();
            let ref_report = reference.apply_batch(insert, batch).unwrap();
            prop_assert_eq!(report.applied, ref_report.applied);
            for (name, outcome) in &report.outcomes {
                if !matches!(outcome, QueryOutcome::Committed { .. }) {
                    tainted.insert(name.clone());
                    continue;
                }
                if tainted.contains(name) {
                    continue;
                }
                // The isolation invariant: a query untouched by every
                // kill so far is bit-identical to the uninterrupted
                // reference after each committed batch.
                let mine = chaotic.solutions(name).unwrap();
                let theirs = reference.solutions(name).unwrap();
                prop_assert_eq!(mine.len(), theirs.len());
                for (m, t) in mine.iter().zip(&theirs) {
                    prop_assert_eq!(&m.chi, &t.chi, "{} diverged", name);
                }
                let mine = chaotic.maintenance_stats(name).unwrap();
                let theirs = reference.maintenance_stats(name).unwrap();
                for (m, t) in mine.iter().zip(&theirs) {
                    prop_assert_eq!(
                        m.logical(), t.logical(),
                        "{} logical stats diverged", name
                    );
                }
            }
            Ok(())
        };

        for (step, &(insert, pick)) in script.iter().enumerate() {
            let (from, to) = if insert {
                (&mut absent, &mut present)
            } else {
                (&mut present, &mut absent)
            };
            if from.is_empty() {
                continue;
            }
            let mut batch: Vec<Triple> = Vec::new();
            for round in 0..=(pick as usize % 2) {
                if from.is_empty() {
                    break;
                }
                let idx = (pick as usize + round) % from.len();
                batch.push(from.swap_remove(idx));
            }
            to.extend(&batch);
            let point = sites[(step + site_pick) % sites.len()];
            drive(
                &mut chaotic,
                &mut reference,
                &mut tainted,
                insert,
                &batch,
                Some(point),
            )?;
        }

        // Aftermath: fault-free churn lets due replays heal; anything
        // still degraded or quarantined after that is healed explicitly.
        for _ in 0..6 {
            if names.iter().all(|n| chaotic.health(n).unwrap().is_healthy()) {
                break;
            }
            let insert = present.is_empty() || (!absent.is_empty() && absent.len() > present.len());
            let (from, to) = if insert {
                (&mut absent, &mut present)
            } else {
                (&mut present, &mut absent)
            };
            if from.is_empty() {
                break;
            }
            let batch = vec![from.swap_remove(0)];
            to.extend(&batch);
            drive(
                &mut chaotic,
                &mut reference,
                &mut tainted,
                insert,
                &batch,
                None,
            )?;
        }
        for name in &names {
            if !chaotic.health(name).unwrap().is_healthy() {
                chaotic.heal(name).unwrap();
            }
        }

        // Convergence: every query — killed, healed, rebuilt, or never
        // touched — serves the reference's χ; untouched queries match
        // its logical work counters too.
        for name in &names {
            prop_assert!(chaotic.health(name).unwrap().is_healthy(), "{} not healed", name);
            let mine = chaotic.solutions(name).unwrap();
            let theirs = reference.solutions(name).unwrap();
            prop_assert_eq!(mine.len(), theirs.len());
            for (m, t) in mine.iter().zip(&theirs) {
                prop_assert_eq!(
                    &m.chi, &t.chi,
                    "{} did not converge back to the reference", name
                );
            }
            if !tainted.contains(name) {
                let mine = chaotic.maintenance_stats(name).unwrap();
                let theirs = reference.maintenance_stats(name).unwrap();
                for (m, t) in mine.iter().zip(&theirs) {
                    prop_assert_eq!(m.logical(), t.logical(), "{}", name);
                }
            }
        }
        std::fs::remove_dir_all(&dir).ok();
    }
}
