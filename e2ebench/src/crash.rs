//! `crash-recover`: durable `QuerySession`s at LUBM-15 with 8 standing
//! queries, fsync on (the library default) and automatic snapshots every
//! `snapshot_every` batches. `stores` independent stores, each generated
//! from its own seed, are served round-robin: each is recovered with
//! `QuerySession::recover`, takes `snapshot_every` batches and then
//! "crashes" (the session is dropped). The first round runs half a
//! cadence longer, so every crash lands mid-cadence and recovery replays
//! the same number of WAL records each time.
//!
//! Several stores, because one LUBM-15 graph's size moves by ±10% with
//! its seed and every figure here scales with it; the stores average
//! that out. WAL appends, snapshots and recovery do most of the work;
//! the graphs are small, so the rebuild does little.

use crate::churn::{all_committed, apply_shadows, mirror, session_work_ops, standing_config};
use crate::trace::Tracer;
use crate::{
    ms, per_op, percentile, standing_queries, sub_seed, timed_setup, traced_op, update_script,
    Cycles, Params, Report, TraceSplit,
};
use dualsim_core::{
    DurabilityOptions, IncrementalDualSim, QueryRecovery, QuerySession, SessionDurability,
    SessionOptions, Solution,
};
use dualsim_datagen::{generate_lubm, LubmConfig};
use dualsim_graph::{GraphDb, Triple};
use std::collections::{BTreeMap, BTreeSet};
use std::fs;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Every regular file under `dir`, recursively.
fn files(dir: &Path) -> Vec<PathBuf> {
    let mut out = Vec::new();
    let mut stack = vec![dir.to_path_buf()];
    while let Some(d) = stack.pop() {
        for entry in fs::read_dir(&d).into_iter().flatten().flatten() {
            let path = entry.path();
            if path.is_dir() {
                stack.push(path);
            } else {
                out.push(path);
            }
        }
    }
    out.sort();
    out
}

/// Total bytes of the files under `dir` whose name satisfies `keep`.
fn bytes(dir: &Path, keep: impl Fn(&str) -> bool) -> u64 {
    files(dir)
        .iter()
        .filter(|f| f.file_name().is_some_and(|n| keep(&n.to_string_lossy())))
        .filter_map(|f| fs::metadata(f).ok())
        .map(|m| m.len())
        .sum()
}

fn is_snapshot(name: &str) -> bool {
    name.starts_with("snapshot-") && name.ends_with(".snap")
}

/// The directories holding a WAL, i.e. one per query branch.
fn branch_dirs(root: &Path) -> Vec<PathBuf> {
    files(root)
        .into_iter()
        .filter(|f| f.file_name().is_some_and(|n| n == "wal.log"))
        .filter_map(|f| f.parent().map(Path::to_path_buf))
        .collect()
}

/// Copies every branch directory under `root` to `<to>/<i>`.
fn copy_branches(root: &Path, to: &Path) -> std::io::Result<Vec<PathBuf>> {
    let mut copies = Vec::new();
    for (i, dir) in branch_dirs(root).iter().enumerate() {
        let dst = to.join(i.to_string());
        fs::create_dir_all(&dst)?;
        for f in files(dir) {
            if let Some(name) = f.file_name() {
                fs::copy(&f, dst.join(name))?;
            }
        }
        copies.push(dst);
    }
    Ok(copies)
}

/// What recovery must reproduce: the graph and every query's solutions.
type Expected = (Vec<Triple>, BTreeMap<String, Vec<Solution>>);

fn capture(session: &QuerySession) -> Expected {
    let mut triples: Vec<Triple> = session.db().triples().collect();
    triples.sort_unstable();
    let sols = session
        .query_names()
        .iter()
        .map(|n| {
            let s = session.solutions(n).unwrap_or_default();
            (n.to_string(), s.into_iter().cloned().collect())
        })
        .collect();
    (triples, sols)
}

fn matches_expected(session: &QuerySession, expected: &Expected) -> bool {
    let (triples, sols) = capture(session);
    let same_chi = sols.len() == expected.1.len()
        && sols.iter().zip(&expected.1).all(|((n, a), (m, b))| {
            n == m && a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.chi == y.chi)
        });
    let healthy = session
        .query_names()
        .iter()
        .all(|n| session.health(n).is_ok_and(|h| h.is_healthy()));
    triples == expected.0 && same_chi && healthy
}

/// One durable store: its on-disk session, update script and, in the
/// traced run, its shadow engines.
struct Store {
    opts: SessionOptions,
    root: PathBuf,
    script: Vec<(bool, Vec<Triple>)>,
    pos: usize,
    /// The graph and solutions recovery must reproduce.
    expected: Expected,
    /// Mirror of the store's triple set (traced run).
    present: BTreeSet<Triple>,
    /// In-memory shadow engines, one per branch (traced run).
    plain: Vec<IncrementalDualSim>,
    /// Durable shadow engines, one per branch (traced run).
    durable: Vec<IncrementalDualSim>,
}

/// Sums the first round's counts over every store.
fn add(counts: &mut BTreeMap<&'static str, u64>, key: &'static str, v: u64) {
    *counts.entry(key).or_default() += v;
}

/// Runs the workload.
pub fn run(p: &Params) -> Report {
    let mut report = Report::default();
    let mut tracer = Tracer::new(p.trace);
    let cfg = standing_config();
    let work = p.workdir.join("crash-recover");
    let every = p.scale.snapshot_every;
    let standing = standing_queries();
    let store_opts = |k: usize| SessionOptions {
        durability: Some(SessionDurability {
            snapshot_every: Some(every),
            ..SessionDurability::new(work.join(format!("store-{k}")))
        }),
        ..SessionOptions::default()
    };
    let lubm_cfg = |k: usize| LubmConfig {
        universities: p.scale.lubm_small,
        seed: sub_seed(p.seed, 10 + k as u64),
    };
    let mut generate = Vec::new();
    let (sessions, setup_s) = timed_setup(p.scale.setup_reps, || {
        let mut generate_s = 0.0;
        let sessions = (0..p.scale.stores)
            .map(|k| {
                let _ = fs::remove_dir_all(work.join(format!("store-{k}")));
                let t0 = Instant::now();
                let db = generate_lubm(&lubm_cfg(k));
                generate_s += t0.elapsed().as_secs_f64();
                let mut session = QuerySession::new(db, store_opts(k));
                for (name, q) in &standing {
                    let registered = session.register(name, q.text, cfg.clone());
                    report.check(registered.is_ok(), || {
                        format!("register {name}: {registered:?}")
                    });
                }
                session
            })
            .collect::<Vec<_>>();
        generate.push(generate_s);
        sessions
    });

    // Each store crashes right after set-up; every round then recovers
    // it, applies its batches and crashes it again.
    let mut graph_triples_total = 0u64;
    let mut stores: Vec<Store> = Vec::new();
    for (k, session) in sessions.into_iter().enumerate() {
        let db = session.db().clone();
        graph_triples_total += db.num_triples() as u64;
        let script = update_script(
            &db,
            sub_seed(p.seed, 20 + k as u64),
            p.scale.chunks,
            p.scale.batch_triples,
        );
        let (mut plain, mut durable) = (Vec::new(), Vec::new());
        if p.trace {
            // The durable shadows snapshot only on demand, so their
            // apply time minus the in-memory one is the WAL's share.
            for (name, q) in &standing {
                for (b, soi) in session
                    .sois(name)
                    .unwrap_or_default()
                    .into_iter()
                    .enumerate()
                {
                    plain.push(IncrementalDualSim::new(&db, soi.clone(), cfg.clone()));
                    let dopts = DurabilityOptions {
                        snapshot_every: None,
                        meta: q.text.to_string(),
                        ..DurabilityOptions::new(work.join(format!("shadow-{k}/{name}-{b}")))
                    };
                    match IncrementalDualSim::new_durable(&db, soi.clone(), cfg.clone(), &dopts) {
                        Ok(d) => durable.push(d),
                        Err(e) => {
                            report.check(false, || format!("durable shadow {k}/{name}-{b}: {e}"))
                        }
                    }
                }
            }
        }
        stores.push(Store {
            opts: store_opts(k),
            root: work.join(format!("store-{k}")),
            script,
            pos: 0,
            expected: capture(&session),
            present: db.triples().collect(),
            plain,
            durable,
        });
    }

    let mut batch_lat = Vec::new();
    let mut recover_lat = Vec::new();
    let mut split = TraceSplit::default();
    let mut traced_batches = 0usize;
    let mut branch_recoveries = 0usize;
    let mut triples_applied = 0u64;
    let mut committed = 0u64;
    let mut epoch_after_recover = 0u64;
    let mut cycles = Cycles::new(p.seconds);
    let mut op = 0u64;
    'rounds: loop {
        let round = cycles.index();
        // The first round runs half a cadence longer, so every later
        // crash lands mid-cadence.
        let batches = if round == 0 { every + every / 2 } else { every };
        for (k, store) in stores.iter_mut().enumerate() {
            // Recover the crashed store from disk.
            let traced = cycles.measuring() && traced_op(p.trace, round, k);
            tracer.set_enabled(traced);
            tracer.set_op(op);
            op += 1;
            let copies = if traced {
                copy_branches(&store.root, &work.join("copies")).unwrap_or_default()
            } else {
                Vec::new()
            };
            let t0 = Instant::now();
            let recover_span = tracer.open("session.recover", None);
            let recovered = QuerySession::recover(store.opts.clone());
            tracer.close(recover_span);
            let recover_time = t0.elapsed();
            cycles.record_other(recover_time);
            if cycles.measuring() {
                recover_lat.push(ms(recover_time));
            }
            for dir in &copies {
                let bopts = DurabilityOptions {
                    snapshot_every: Some(every),
                    ..DurabilityOptions::new(dir)
                };
                let r = tracer.span("durability.recover_branch", recover_span, || {
                    IncrementalDualSim::recover(&bopts)
                });
                report.check(r.is_ok(), || {
                    format!("branch copy {} failed to recover", dir.display())
                });
                branch_recoveries += 1;
            }
            let _ = fs::remove_dir_all(work.join("copies"));
            let mut s = match recovered {
                Ok(rec) => {
                    let all_recovered = rec
                        .reports
                        .values()
                        .all(|r| matches!(r, QueryRecovery::Recovered { .. }));
                    let same = matches_expected(&rec.session, &store.expected);
                    report.check(all_recovered && same, || {
                        format!("store {k}, round {round}: recovery differs from the pre-crash session: {:?}", rec.reports)
                    });
                    epoch_after_recover = rec.session.epoch();
                    rec.session
                }
                Err(e) => {
                    report.check(false, || {
                        format!("store {k}, round {round}: recovery failed: {e}")
                    });
                    break 'rounds;
                }
            };

            let work_before = session_work_ops(&s);
            let stats_before = s.stats().clone();
            let wal_before = bytes(&store.root, |n| n == "wal.log");
            for i in 0..batches as usize {
                let (insert, batch) = &store.script[store.pos % store.script.len()];
                store.pos += 1;
                let traced = cycles.measuring() && traced_op(p.trace, round + k, i);
                tracer.set_enabled(traced);
                tracer.set_op(op);
                op += 1;

                let t0 = Instant::now();
                let apply_span = tracer.open("session.apply_batch", None);
                let outcome = s.apply_batch(*insert, batch);
                tracer.close(apply_span);
                let latency = t0.elapsed();
                if cycles.measuring() {
                    cycles.record(latency);
                    batch_lat.push(ms(latency));
                    split.push(traced, ms(latency));
                }
                let ok = matches!(&outcome, Ok(r) if all_committed(r.outcomes.values()));
                report.check(ok, || {
                    format!("store {k}, round {round}: batch {i} did not commit: {outcome:?}")
                });
                if let Ok(r) = &outcome {
                    committed += 1;
                    if cycles.measuring() {
                        triples_applied += r.applied as u64;
                    }
                }
                if round == 0 {
                    add(
                        &mut report.counts,
                        "graph.triples",
                        s.db().num_triples() as u64,
                    );
                }

                if p.trace {
                    let after = mirror(&mut store.present, *insert, batch);
                    let db_after = tracer.span("graph.with_triples", apply_span, || {
                        s.db().with_triples(&after)
                    });
                    let shadowed = match db_after {
                        Ok(db_after) => redrive_durable(
                            &mut tracer,
                            apply_span,
                            &mut store.plain,
                            &mut store.durable,
                            &db_after,
                            *insert,
                            batch,
                            every,
                        ),
                        Err(_) => false,
                    };
                    report.check(shadowed, || {
                        format!("store {k}: shadow engines failed batch {i}")
                    });
                    if traced {
                        traced_batches += 1;
                    }
                }
            }
            if round == 0 {
                let st = s.stats();
                let c = &mut report.counts;
                add(c, "crash.batches_first_round", batches);
                add(
                    c,
                    "incremental.work_ops",
                    session_work_ops(&s) - work_before,
                );
                add(
                    c,
                    "session.triples_validated",
                    (st.triples_validated - stats_before.triples_validated) as u64,
                );
                add(
                    c,
                    "session.fanout_applications",
                    (st.fanout_applications - stats_before.fanout_applications) as u64,
                );
                add(
                    c,
                    "durability.wal_bytes",
                    bytes(&store.root, |n| n == "wal.log") - wal_before,
                );
                add(
                    c,
                    "durability.snapshot_bytes",
                    bytes(&store.root, is_snapshot),
                );
                let snapshots = files(&store.root)
                    .iter()
                    .filter(|f| {
                        f.file_name()
                            .is_some_and(|n| is_snapshot(&n.to_string_lossy()))
                    })
                    .count();
                add(c, "durability.snapshots", snapshots as u64);
                add(c, "durability.disk_bytes", bytes(&store.root, |_| true));
                add(c, "durability.graph_triples", s.db().num_triples() as u64);
            }

            // Crash: drop the session; the next round recovers it.
            store.expected = capture(&s);
            drop(s);
        }
        if !cycles.end_cycle() {
            break;
        }
    }

    let batch_time: f64 = batch_lat.iter().sum::<f64>() / 1e3;
    report.e2e.insert("setup_s", setup_s);
    report.e2e.insert("peak_rss_mb", crate::peak_rss_mb());
    report.e2e.insert("op_p50_ms", percentile(&batch_lat, 50.0));
    report.e2e.insert("op_p90_ms", percentile(&batch_lat, 90.0));
    report.e2e.insert("ops_per_s", cycles.rate());
    report.cycle_rates = cycles.rates().to_vec();
    report
        .e2e
        .insert("side_p50_ms", percentile(&recover_lat, 50.0));
    report.samples.insert("op", batch_lat.len());
    report.samples.insert("side", recover_lat.len());
    report
        .info
        .insert("measured_cycles", (cycles.index() - 1) as f64);
    report
        .info
        .insert("measured_s", cycles.measured().as_secs_f64());
    report
        .info
        .insert("durable_triples_per_s", triples_applied as f64 / batch_time);
    report.info.insert("batches_committed", committed as f64);
    // `QuerySession::epoch()` restarts at 0 after `recover` although the
    // batches above were committed; recovery is checked by graph and
    // match sets instead.
    report
        .info
        .insert("epoch_after_recover", epoch_after_recover as f64);
    report
        .info
        .insert("lubm_triples", graph_triples_total as f64);

    if p.trace {
        let by = tracer.by_name();
        let c = &report.counts;
        let nb = c["crash.batches_first_round"] as f64;
        let batch = |k: &str, own: bool| per_op(&by, k, own, traced_batches, 1e3);
        let apply = batch("session.apply_batch", false);
        let graph = batch("graph.with_triples", false);
        let layers = [
            ("datagen.generate_s", percentile(&generate, 50.0)),
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
            ("durability.wal_ms", batch("durability.durable_apply", true)),
            (
                "durability.snapshot_ms",
                batch("durability.snapshot", false),
            ),
            (
                "durability.wal_bytes_per_batch",
                c["durability.wal_bytes"] as f64 / nb,
            ),
            (
                "durability.snapshot_bytes",
                c["durability.snapshot_bytes"] as f64 / c["durability.snapshots"].max(1) as f64,
            ),
            (
                "durability.recover_branch_ms",
                per_op(
                    &by,
                    "durability.recover_branch",
                    false,
                    branch_recoveries,
                    1e3,
                ),
            ),
            (
                "durability.disk_bytes_per_triple",
                c["durability.disk_bytes"] as f64 / c["durability.graph_triples"] as f64,
            ),
            ("tracing.overhead_ms", split.overhead_ms()),
        ];
        report.layers.extend(layers);
        crate::dump_spans(&tracer, p, "crash-recover", &mut report);
    }
    let _ = fs::remove_dir_all(&work);
    report
}

/// Re-drives one durable batch through the shadow engines: the
/// in-memory engines (incremental layer), the durable ones (incremental
/// plus WAL append), and, when the session's snapshot cadence is due,
/// an explicit snapshot of every durable shadow. The in-memory apply is
/// recorded as a child of the durable apply, whose self time is then the
/// WAL's share.
#[allow(clippy::too_many_arguments)]
fn redrive_durable(
    tracer: &mut Tracer,
    apply_span: crate::trace::SpanId,
    plain: &mut [IncrementalDualSim],
    durable: &mut [IncrementalDualSim],
    db_after: &GraphDb,
    insert: bool,
    batch: &[Triple],
    every: u64,
) -> bool {
    let durable_span = tracer.open("durability.durable_apply", apply_span);
    let mut ok = apply_shadows(durable, db_after, insert, batch);
    tracer.close(durable_span);
    ok &= tracer.span("incremental.apply", durable_span, || {
        apply_shadows(plain, db_after, insert, batch)
    });
    if durable
        .first()
        .is_some_and(|d| d.epoch() % every.max(1) == 0)
    {
        let snap_span = tracer.open("durability.snapshot", apply_span);
        ok &= durable.iter_mut().all(|d| d.snapshot_now(db_after).is_ok());
        tracer.close(snap_span);
    }
    ok
}
