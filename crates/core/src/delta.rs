//! The delta-counting fixpoint engine ([`FixpointMode::DeltaCounting`]).
//!
//! The Sect. 3.2 algorithm re-evaluates an *entire* inequality whenever
//! its right-hand-side variable shrank: `×b` re-ORs every CSR row
//! selected by χ(source), even when only a handful of bits were just
//! cleared. This engine instead maintains, for every edge inequality
//! `target ≤ source ×b M`, a **support counter** per candidate node —
//!
//! ```text
//! support[i][w] = |column w of M ∩ χ(source)|
//!               = |{u ∈ χ(source) : M(u, w) = 1}|
//! ```
//!
//! — held in a [`CounterSlab`]. The inequality is satisfied for `w` iff
//! `support[i][w] > 0`, so when bit `u` is cleared from χ(source) the
//! engine walks only `M.row(u)`, decrements the counters of the affected
//! targets, and enqueues every node whose support hits zero for removal
//! from χ(target). Removals cascade through a worklist of
//! `(variable, node)` deltas until it drains: O(degree of the removed
//! node) per removal instead of a whole-inequality re-evaluation. This
//! is the counting bookkeeping of HHK-style simulation algorithms (cf.
//! [`crate::baseline::dual_simulation_hhk`]) lifted to the general SOI
//! setting — subset inequalities, surrogates, constants, forward-only
//! systems and warm starts included.
//!
//! Engineering twists on top of the PR-2 engine:
//!
//! * **Lazy counter seeding.** An edge inequality whose seeded χ
//!   *provably* satisfies it — χ(source) covers every non-empty row of
//!   `M` (so the product is the full column summary) and χ(target) lies
//!   within that summary — defers its `count_into` seeding entirely.
//!   The slab is seeded on *first touch*: the first removal of a source
//!   candidate, or the first retraction reaching the inequality. Cold
//!   solves that never violate an inequality never pay its
//!   `counter_inits` (`seeds_deferred` / `lazy_seeds` in
//!   [`SolveStats`]).
//! * **Round-based draining.** The worklist is drained in *rounds*:
//!   each round freezes χ, shards the pending removals by inequality
//!   (the counter slabs are disjoint per inequality), computes every
//!   shard's decrements and removal proposals against the frozen χ,
//!   and merges the proposals into χ in inequality order. The round
//!   structure fixes the decrement and proposal order, so χ **and
//!   every work counter** are bit-identical across χ/slab backends and
//!   word kernels (pinned by `crate::proptests`).
//! * **Pluggable slab storage.** Support counters go through
//!   `SolverConfig::slab_backend` the way χ goes through
//!   `chi_backend`: dense `u32` arrays or sparse hash counters (one
//!   word per supported column, spilling to dense so they never cost
//!   more), with `Auto` resolved from the same seeded-density bound.
//!   `SolveStats::slab_peak_words` gauges the difference.
//! * **Run-aware draining.** Every drain bucket is sorted into
//!   ascending node order (the canonical order all backends share);
//!   under RLE χ a shard then walks the bucket as maximal runs and
//!   resolves one CSR segment (`BitMatrix::rows_segment`) per run
//!   instead of one `M.row(u)` per bit — the identical decrement
//!   sequence with fewer row-pointer loads
//!   (`SolveStats::row_lookups`).
//!
//! Every removal is *forced* (the cleared node violates some inequality
//! in every solution below the current assignment), and the worklist
//! only drains when all counters of kept candidates are positive, i.e.
//! all inequalities hold. The result is therefore the same unique
//! largest solution (Prop. 2) the re-evaluation engine computes.
//!
//! [`DeltaSolver`] keeps its counters alive after convergence, which is
//! what makes truly incremental **two-sided** maintenance possible:
//! [`DeltaSolver::retract_triples`] feeds deleted triples straight into
//! the delta queue (one counter decrement per affected inequality), and
//! [`DeltaSolver::insert_triples`] walks inserted triples the other way
//! — one counter increment per affected inequality, with candidates
//! whose support went 0→1 (plus the inserted endpoints) optimistically
//! re-admitted and the over-approximation culled by the same drain.
//! Neither direction re-runs any per-inequality evaluation — see
//! [`crate::IncrementalDualSim`].
//!
//! [`FixpointMode::DeltaCounting`]: crate::FixpointMode::DeltaCounting
//! [`CounterSlab`]: dualsim_bitmatrix::CounterSlab
//! [`SolveStats`]: crate::SolveStats

use crate::errors::MaintainError;
use crate::failpoints;
use crate::plan::SolvePlan;
use crate::solver::{apply_summary_init, chi_words, evaluation_order, seed_chi, split_pair};
use crate::{InitMode, Inequality, SimulationKind, Soi, Solution, SolveStats, SolverConfig};
use dualsim_bitmatrix::{BitMatrix, ChiVec, CounterSlab, SeededSlabState, SlabBackend};
use dualsim_graph::{GraphDb, Triple};

/// One undo record of the epoch rollback journal. Records are appended
/// as the mutation happens and replayed in reverse by
/// [`DeltaSolver::abort_epoch`]; each op's undo is its exact inverse,
/// so a reverse replay restores the pre-epoch χ and counters bit for
/// bit. `counts`, `stats` and the liveness flag are snapshot-restored
/// wholesale instead of op-by-op (they are small and epoch-begin
/// captures them in O(#vars)).
#[derive(Debug, Clone)]
enum JournalOp {
    /// χ\[v\] gained bit w (insertion re-admission); undo: clear it.
    ChiSet { v: u32, w: u32 },
    /// χ\[v\] lost bit w (cull, drain, retraction); undo: set it.
    ChiClear { v: u32, w: u32 },
    /// `support[i][w]` was incremented; undo: decrement. (A sparse slab
    /// that spilled to dense on the increment stays spilled — the spill
    /// is a storage representation, counts and all future logical work
    /// are identical, and the storage gauges are snapshot-restored.)
    SlabInc { i: u32, w: u32 },
    /// `support[i][w]` was decremented; undo: increment.
    SlabDec { i: u32, w: u32 },
    /// `support[i]` was lazily seeded this epoch; undo:
    /// [`CounterSlab::unseed`] (the deferral certificate held before
    /// the batch, so it holds again once the batch is rolled back).
    SlabSeeded { i: u32 },
    /// [`DeltaSolver::kill`] ran (early exit mid-epoch): χ was bulk
    /// cleared, so the undo restores this pre-kill snapshot and the
    /// remaining journal unwinds from there.
    Killed { chi: Vec<ChiVec> },
}

/// The undo state captured by [`DeltaSolver::begin_epoch`].
#[derive(Debug, Clone)]
struct Journal {
    ops: Vec<JournalOp>,
    /// Pre-epoch work counters, restored wholesale on abort (the
    /// robustness counters are then re-bumped on top, so degradations
    /// stay observable across their own rollback).
    stats: SolveStats,
    /// Pre-epoch per-variable candidate counts.
    counts: Vec<usize>,
    /// Pre-epoch liveness.
    dead: bool,
}

/// One in-flight maintenance epoch: every `retract_triples` /
/// `insert_triples` batch runs inside one, so a mid-flight error
/// (failpoint, budget exhaustion) rolls the engine back to the exact
/// pre-batch state instead of leaving half-applied counters.
#[derive(Debug, Clone)]
struct Epoch {
    journal: Journal,
    /// [`SolveStats::work_ops`] at epoch begin: the drain budget bounds
    /// the work *of this batch*, not the engine's lifetime total.
    work_at_begin: usize,
}

/// One-shot entry point used by [`crate::solve_from`] for
/// [`crate::FixpointMode::DeltaCounting`].
pub(crate) fn solve_delta(
    db: &GraphDb,
    soi: &Soi,
    config: &SolverConfig,
    initial_chi: Vec<ChiVec>,
) -> Solution {
    DeltaSolver::from_chi(db, soi, config, initial_chi).solution()
}

#[inline]
fn multiply_matrix(db: &GraphDb, label: u32, forward: bool) -> &BitMatrix {
    if forward {
        db.forward(label)
    } else {
        db.backward(label)
    }
}

/// The deferred-enforcement scan shared by eager seeding, lazy seeding
/// in the drain and lazy seeding during retractions: the candidates of
/// `chi` whose support in `slab` is zero, i.e. the removals a
/// freshly-seeded inequality forces.
fn unsupported<'a>(slab: &'a CounterSlab, chi: &'a ChiVec) -> impl Iterator<Item = u32> + 'a {
    chi.iter_ones()
        .filter(|&w| slab.count(w) == 0)
        .map(|w| w as u32)
}

/// One drain-round work unit: a labeled edge inequality whose source
/// variable shrank this round. Units are processed against a frozen χ
/// (each touching only its own inequality's counter slab) and report
/// their proposed target removals plus work counters back to the merge
/// step.
#[derive(Debug, Clone)]
struct ShardUnit {
    ineq: u32,
    source: u32,
    target: u32,
    label: u32,
    forward: bool,
    /// Walk the removals as runs of consecutive node ids, one CSR
    /// segment lookup per run ([`BitMatrix::rows_segment`]) — enabled
    /// when χ is RLE, where one round's removals routinely coalesce.
    run_aware: bool,
    /// Target nodes whose support hit zero (candidates to remove).
    proposals: Vec<u32>,
    decrements: usize,
    /// CSR row/segment lookups performed (`SolveStats::row_lookups`).
    row_lookups: usize,
    inits: usize,
    lazy_seeded: bool,
    /// Columns decremented this round, recorded for the rollback
    /// journal (`Some` iff the drain runs inside an epoch); the merge
    /// step folds them into the epoch's undo log.
    journal: Option<Vec<u32>>,
}

impl ShardUnit {
    /// `removals` are this round's cleared nodes of `self.source`, in
    /// ascending node order (the drain sorts every bucket into this
    /// canonical order, so the per-bit and run-aware walks perform the
    /// *identical* decrement sequence — a run's CSR segment is exactly
    /// the concatenation of its rows in ascending order — and every
    /// logical counter stays bit-identical across χ backends).
    fn process(&mut self, db: &GraphDb, removals: &[u32], slab: &mut CounterSlab, chi: &[ChiVec]) {
        let matrix = multiply_matrix(db, self.label, self.forward);
        if !slab.is_seeded() {
            // First touch of a deferred inequality. χ(source) already
            // excludes this round's removals (bits are cleared before
            // they are enqueued), so the seed absorbs the whole batch
            // and no per-removal decrement may run this round. The
            // deferred enforcement happens here instead: every target
            // candidate without support is proposed for removal.
            self.inits = slab.seed(matrix, &chi[self.source as usize]);
            self.lazy_seeded = true;
            self.proposals
                .extend(unsupported(slab, &chi[self.target as usize]));
            return;
        }
        let target = &chi[self.target as usize];
        let run_aware = self.run_aware;
        // Split borrows for the fused drain: the zero-support callback
        // appends proposals while the slab is exclusively borrowed by
        // `decrement_collect`.
        let ShardUnit {
            proposals,
            decrements,
            row_lookups,
            journal,
            ..
        } = self;
        // Fused decrement + zero-test: `decrement_collect` hoists the
        // slab-representation dispatch out of the per-column loop and
        // reports zero-support columns during the same walk — same
        // decrement sequence, same journal order, same proposal order
        // as the former per-entry `decrement(w) == 0` form.
        let mut drain = |segment: &[u32]| {
            *decrements += segment.len();
            if let Some(log) = journal.as_mut() {
                log.extend_from_slice(segment);
            }
            slab.decrement_collect(segment, |w| {
                if target.get(w as usize) {
                    proposals.push(w);
                }
            });
        };
        if run_aware {
            // One offset-pair lookup per maximal run of consecutive
            // removed nodes, instead of one row lookup per node.
            let mut i = 0usize;
            while i < removals.len() {
                let mut j = i + 1;
                while j < removals.len() && removals[j] == removals[j - 1] + 1 {
                    j += 1;
                }
                *row_lookups += 1;
                drain(matrix.rows_segment(removals[i] as usize, removals[j - 1] as usize + 1));
                i = j;
            }
        } else {
            for &u in removals {
                *row_lookups += 1;
                drain(matrix.row(u as usize));
            }
        }
    }
}

/// The delta-counting engine with persistent state: the current χ, the
/// per-(inequality, candidate) support-counter slabs, and the removal
/// worklist. Constructed through [`DeltaSolver::new`] (cold solve) or
/// [`DeltaSolver::from_chi`] (warm start from a superset of the largest
/// solution); after convergence the state stays valid, so
/// [`DeltaSolver::retract_triples`] can maintain the solution under
/// triple deletions without ever re-seeding.
#[derive(Debug, Clone)]
pub(crate) struct DeltaSolver {
    chi: Vec<ChiVec>,
    counts: Vec<usize>,
    /// `support[i]` for edge inequality `i` with a known label; unseeded
    /// (and for subset / absent-label inequalities: permanently so)
    /// until the inequality is enforced or first touched.
    support: Vec<CounterSlab>,
    /// Pending `(variable, node)` removal deltas (the next drain round's
    /// batch; the bits are already cleared from χ).
    queue: Vec<(u32, u32)>,
    /// Labeled-edge inequality ids per *source* variable: the inverse
    /// index that lets a drain round assemble its shard units in
    /// O(touched variables) instead of scanning every inequality.
    edge_ineqs_by_source: Vec<Vec<u32>>,
    /// Edge inequality ids (absent-label ones included) per *target*
    /// variable: insertion maintenance gates admissions and culls the
    /// optimistic frontier through the constraints that *restrict* a
    /// variable, the mirror view of `edge_ineqs_by_source`.
    edge_ineqs_by_target: Vec<Vec<u32>>,
    /// Subset inequality ids per *sup* variable (the merge step resolves
    /// these inline at their inequality-order position).
    subset_ineqs_by_sup: Vec<Vec<u32>>,
    /// Subset inequality ids per *sub* variable (the cull checks an
    /// admitted candidate against the sup sides it must stay inside).
    subset_ineqs_by_sub: Vec<Vec<u32>>,
    /// Per-round removals grouped by source variable. Persistent
    /// scratch: only the entries of `touched_vars` are ever non-empty,
    /// and they are cleared again at the end of the round, so deep
    /// cascades that clear one candidate per round stop paying
    /// O(#vars) allocations per round.
    by_var: Vec<Vec<u32>>,
    /// The variables whose `by_var` bucket is non-empty this round.
    touched_vars: Vec<u32>,
    /// The round's touched inequality ids, in inequality order.
    agenda: Vec<u32>,
    /// Reusable shard-unit storage (empty between rounds, capacity
    /// kept).
    units: Vec<ShardUnit>,
    /// Recycled proposal buffers handed to new shard units.
    proposal_pool: Vec<Vec<u32>>,
    /// Running Σ `storage_words()` over all χ vectors, maintained
    /// incrementally at every bit clear (an O(1) length read per side),
    /// so the per-round peak sample stays O(1) instead of re-scanning
    /// all variables — deep cascades keep their O(touched)-per-round
    /// cost.
    chi_word_total: usize,
    /// Running Σ `storage_words()` over all counter slabs, updated at
    /// every seed event (eager, lazy in the drain, lazy in a
    /// retraction) — slab storage never changes otherwise, so the peak
    /// sample is O(1) like the χ one.
    slab_word_total: usize,
    /// Drain shards walk removal runs against the matrix CSR instead of
    /// single rows (set when the resolved χ backend is RLE — the
    /// backend under which one round's removals coalesce into runs).
    run_aware: bool,
    /// Cumulative work counters (across the initial solve and every
    /// later retraction).
    stats: SolveStats,
    /// Set once an early exit emptied everything; the state is final and
    /// the counters are no longer meaningful.
    dead: bool,
    /// The in-flight maintenance epoch (`Some` between `begin_epoch`
    /// and commit/abort); cold solves never open one.
    epoch: Option<Epoch>,
    /// Set when a batch was aborted without a trustworthy rollback
    /// (budget exhaustion, rollback failure): the state
    /// may be inconsistent, so every further maintenance call refuses
    /// with [`MaintainError::Poisoned`] until the owner rebuilds from a
    /// cold solve.
    poisoned: bool,
}

/// A commit-time callback threaded into a maintenance epoch (see
/// [`DeltaSolver::retract_triples_durable`]): the durability layer's
/// WAL append, run between a successful batch body and the epoch
/// commit so a failed append aborts and rolls back the batch.
pub(crate) type CommitHook<'a> = &'a mut dyn FnMut() -> Result<(), MaintainError>;

/// Serializable state of one support-counter slab: its backend and —
/// once seeded — the counter dimension, sparse-spill status and
/// non-zero entries (the `CounterSlab::export_state` view).
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct SlabState {
    pub(crate) backend: SlabBackend,
    pub(crate) seeded: Option<SeededSlabState>,
}

/// The full serializable resident state of a [`DeltaSolver`]: what a
/// durability snapshot stores and [`DeltaSolver::from_state`] restores.
/// Scratch buffers, the (always empty between batches) removal queue
/// and the inequality indexes are excluded — the indexes are a pure
/// function of the SOI and are rebuilt on restore.
#[derive(Debug, Clone)]
pub(crate) struct EngineState {
    pub(crate) chi: Vec<ChiVec>,
    pub(crate) slabs: Vec<SlabState>,
    pub(crate) run_aware: bool,
    pub(crate) stats: SolveStats,
    pub(crate) dead: bool,
    pub(crate) poisoned: bool,
}

/// Builds the per-variable inequality indexes from the SOI — shared by
/// the cold-solve constructor and the snapshot restore path.
#[allow(clippy::type_complexity)]
fn build_ineq_indexes(soi: &Soi) -> (Vec<Vec<u32>>, Vec<Vec<u32>>, Vec<Vec<u32>>, Vec<Vec<u32>>) {
    let nv = soi.vars.len();
    let mut edge_ineqs_by_source: Vec<Vec<u32>> = vec![Vec::new(); nv];
    let mut edge_ineqs_by_target: Vec<Vec<u32>> = vec![Vec::new(); nv];
    let mut subset_ineqs_by_sup: Vec<Vec<u32>> = vec![Vec::new(); nv];
    let mut subset_ineqs_by_sub: Vec<Vec<u32>> = vec![Vec::new(); nv];
    for (i, ineq) in soi.ineqs.iter().enumerate() {
        match *ineq {
            Inequality::Edge {
                target,
                source,
                label,
                ..
            } => {
                // The target index drives insertion maintenance (the
                // admission gate and the cull); absent-label edges
                // belong there too — they block their target forever
                // — but never react to source removals, so only
                // labeled edges enter the source index.
                edge_ineqs_by_target[target].push(i as u32);
                if label.is_some() {
                    edge_ineqs_by_source[source].push(i as u32);
                }
            }
            Inequality::Subset { sub, sup } => {
                subset_ineqs_by_sup[sup].push(i as u32);
                subset_ineqs_by_sub[sub].push(i as u32);
            }
        }
    }
    (
        edge_ineqs_by_source,
        edge_ineqs_by_target,
        subset_ineqs_by_sup,
        subset_ineqs_by_sub,
    )
}

impl DeltaSolver {
    /// Cold solve: seeds χ from Eq. (12) plus constant pinning.
    pub(crate) fn new(db: &GraphDb, soi: &Soi, config: &SolverConfig) -> Self {
        Self::from_chi(db, soi, config, seed_chi(db, soi, config))
    }

    /// The engine's serializable resident state, for durability
    /// snapshots. Must not be called mid-epoch (the queue would be
    /// non-empty and the journal un-serialized); between batches both
    /// are structurally empty.
    pub(crate) fn export_state(&self) -> EngineState {
        debug_assert!(self.epoch.is_none(), "no snapshot mid-epoch");
        debug_assert!(self.queue.is_empty(), "worklist drained between batches");
        EngineState {
            chi: self.chi.clone(),
            slabs: self
                .support
                .iter()
                .map(|slab| SlabState {
                    backend: slab.backend(),
                    seeded: slab.export_state(),
                })
                .collect(),
            run_aware: self.run_aware,
            stats: self.stats.clone(),
            dead: self.dead,
            poisoned: self.poisoned,
        }
    }

    /// Rebuilds an engine from a snapshot's [`EngineState`]: χ and the
    /// slabs are restored bit-identically (backend included — `Auto`
    /// was resolved before the original engine existed, so no
    /// re-resolution happens here), the inequality indexes are rebuilt
    /// from the SOI, candidate counts are recomputed from χ, and the
    /// scratch state starts empty exactly as it is between batches.
    pub(crate) fn from_state(soi: &Soi, state: EngineState) -> Result<Self, MaintainError> {
        let nv = soi.vars.len();
        if state.chi.len() != nv {
            return Err(MaintainError::Corrupt {
                detail: format!(
                    "engine state has {} χ vectors for {} SOI variables",
                    state.chi.len(),
                    nv
                ),
            });
        }
        if state.slabs.len() != soi.ineqs.len() {
            return Err(MaintainError::Corrupt {
                detail: format!(
                    "engine state has {} slabs for {} inequalities",
                    state.slabs.len(),
                    soi.ineqs.len()
                ),
            });
        }
        let support: Vec<CounterSlab> = state
            .slabs
            .into_iter()
            .map(|s| match s.seeded {
                Some((dim, spilled, entries)) => {
                    CounterSlab::restore(s.backend, dim, spilled, &entries)
                }
                None => CounterSlab::unseeded(s.backend),
            })
            .collect();
        let counts: Vec<usize> = state.chi.iter().map(ChiVec::count_ones).collect();
        let chi_word_total = chi_words(&state.chi);
        let slab_word_total = support.iter().map(CounterSlab::storage_words).sum();
        let (edge_ineqs_by_source, edge_ineqs_by_target, subset_ineqs_by_sup, subset_ineqs_by_sub) =
            build_ineq_indexes(soi);
        Ok(DeltaSolver {
            chi: state.chi,
            counts,
            support,
            queue: Vec::new(),
            edge_ineqs_by_source,
            edge_ineqs_by_target,
            subset_ineqs_by_sup,
            subset_ineqs_by_sub,
            by_var: vec![Vec::new(); nv],
            touched_vars: Vec::new(),
            agenda: Vec::new(),
            units: Vec::new(),
            proposal_pool: Vec::new(),
            chi_word_total,
            slab_word_total,
            run_aware: state.run_aware,
            stats: state.stats,
            dead: state.dead,
            epoch: None,
            poisoned: state.poisoned,
        })
    }

    /// Warm start: converges from a caller-provided superset of the
    /// largest solution (same contract as [`crate::solve_from`]).
    pub(crate) fn from_chi(
        db: &GraphDb,
        soi: &Soi,
        config: &SolverConfig,
        mut chi: Vec<ChiVec>,
    ) -> Self {
        let nv = soi.vars.len();
        assert_eq!(chi.len(), nv, "one χ per SOI variable");
        apply_summary_init(db, soi, config, &mut chi);
        let counts: Vec<usize> = chi.iter().map(ChiVec::count_ones).collect();
        let mut stats = SolveStats {
            initial_candidates: counts.iter().sum(),
            ..SolveStats::default()
        };
        // One plan resolution pins the χ and slab backends for the
        // whole engine lifetime; the hot loops below never re-decide.
        let plan = SolvePlan::resolve(config, stats.initial_candidates, nv, db.num_nodes());
        plan.apply_chi(&mut chi);
        let chi_word_total = chi_words(&chi);
        stats.observe_chi_words(chi_word_total);

        let (edge_ineqs_by_source, edge_ineqs_by_target, subset_ineqs_by_sup, subset_ineqs_by_sub) =
            build_ineq_indexes(soi);

        let mut solver = DeltaSolver {
            chi,
            counts,
            support: vec![CounterSlab::unseeded(plan.slab); soi.ineqs.len()],
            queue: Vec::new(),
            edge_ineqs_by_source,
            edge_ineqs_by_target,
            subset_ineqs_by_sup,
            subset_ineqs_by_sub,
            by_var: vec![Vec::new(); nv],
            touched_vars: Vec::new(),
            agenda: Vec::new(),
            units: Vec::new(),
            proposal_pool: Vec::new(),
            chi_word_total,
            slab_word_total: 0,
            run_aware: plan.run_aware,
            stats,
            dead: false,
            epoch: None,
            poisoned: false,
        };

        // A mandatory variable may be empty straight after initialization
        // (unknown constant, missing predicate support).
        for (v, var) in soi.vars.iter().enumerate() {
            if solver.counts[v] == 0 && var.mandatory {
                solver.stats.emptied_mandatory = true;
                if config.early_exit {
                    solver.kill();
                    return solver;
                }
            }
        }

        // Counter slabs for the inequalities that need them, seeded from
        // the initial χ — *before* any enforcement clears a bit, so
        // every later removal reaches the counters exclusively through
        // the worklist and the invariant
        // `support[i][w] = |column w ∩ (χ(source) ∪ pending removals)|`
        // holds. An edge inequality that the seeded χ provably satisfies
        // — χ(source) covers every non-empty matrix row, so the product
        // is the whole column summary, and χ(target) lies within it —
        // defers both its seeding and its enforcement to the first touch
        // by a removal (the deferral stays sound because any later
        // shrink of χ(source) goes through the worklist and seeds it).
        let mut deferred = vec![false; soi.ineqs.len()];
        for (i, ineq) in soi.ineqs.iter().enumerate() {
            let Inequality::Edge {
                target,
                source,
                label: Some(a),
                forward,
            } = *ineq
            else {
                continue;
            };
            let matrix = multiply_matrix(db, a, forward);
            let column_summary = multiply_matrix(db, a, !forward).row_summary();
            if solver.chi[source].covers_dense(matrix.row_summary())
                && solver.chi[target].is_subset_of_dense(column_summary)
            {
                solver.stats.seeds_deferred += 1;
                deferred[i] = true;
            } else {
                solver.stats.counter_inits += solver.support[i].seed(matrix, &solver.chi[source]);
                solver.slab_word_total += solver.support[i].storage_words();
            }
        }
        solver.stats.observe_slab_words(solver.slab_word_total);

        // Enforce every non-deferred inequality once (the seeded χ may
        // violate them), turning each violation into queued removal
        // deltas.
        let mut removed: Vec<u32> = Vec::new();
        let mut early = false;
        'seed: for &i in &evaluation_order(db, soi, config) {
            if deferred[i as usize] {
                continue;
            }
            solver.stats.evaluations += 1;
            removed.clear();
            let target = match soi.ineqs[i as usize] {
                Inequality::Edge {
                    target, label: None, ..
                } => {
                    // Empty matrix: the product is the zero vector.
                    removed.extend(solver.chi[target].iter_ones().map(|w| w as u32));
                    target
                }
                Inequality::Edge {
                    target,
                    label: Some(_),
                    ..
                } => {
                    removed.extend(unsupported(
                        &solver.support[i as usize],
                        &solver.chi[target],
                    ));
                    target
                }
                Inequality::Subset { sub, sup } => {
                    let words_before = solver.chi[sub].storage_words();
                    let (sup_chi, sub_chi) = split_pair(&mut solver.chi, sup, sub);
                    sub_chi.drain_cleared(sup_chi, &mut removed);
                    solver.chi_word_total =
                        solver.chi_word_total - words_before + solver.chi[sub].storage_words();
                    // drain_cleared already cleared the bits; enqueue
                    // without re-clearing.
                    for &w in &removed {
                        if solver.remove_cleared_bit(soi, config, sub, w) {
                            early = true;
                            break 'seed;
                        }
                    }
                    continue;
                }
            };
            for &w in &removed {
                solver.clear_chi_bit(target, w as usize);
                if solver.remove_cleared_bit(soi, config, target, w) {
                    early = true;
                    break 'seed;
                }
            }
        }

        // Seed enforcement can split RLE runs; sample before draining.
        solver.stats.observe_chi_words(solver.chi_word_total);
        // A cold solve runs outside any epoch, so the drain can neither
        // hit the budget nor a failpoint — the Err arm is unreachable.
        if early || solver.drain(db, soi, config).unwrap_or(false) {
            solver.kill();
        } else if !soi.ineqs.is_empty() {
            // The worklist-drain equivalent of one stabilization pass.
            solver.stats.iterations = 1;
        }
        solver.stats.final_candidates = solver.counts.iter().sum();
        solver
    }

    /// Snapshot of the current (converged) state.
    pub(crate) fn solution(&self) -> Solution {
        Solution {
            chi: self.chi.clone(),
            stats: self.stats.clone(),
        }
    }

    /// Maintains the largest solution after the given triples were
    /// **deleted**: `db_after` must be the previous database minus
    /// `deleted` (duplicates within the batch are ignored — a triple can
    /// only leave the edge relation once). Every deleted triple
    /// decrements the support counters of the inequalities it fed —
    /// O(#inequalities) per triple — and nodes whose support hits zero
    /// cascade through the regular delta worklist. No inequality is ever
    /// re-evaluated wholesale; a still-deferred inequality is seeded on
    /// this first touch, against the post-deletion matrices.
    ///
    /// The batch runs inside an update epoch: on any mid-flight error
    /// (failpoint, drain-budget exhaustion) the rollback journal
    /// restores the exact pre-batch state and the error is returned —
    /// χ, counters and the logical stats are bit-identical to before
    /// the call. Out-of-vocabulary triples are rejected up front, state
    /// untouched. A poisoned engine refuses immediately.
    #[cfg(test)]
    pub(crate) fn retract_triples(
        &mut self,
        db_after: &GraphDb,
        soi: &Soi,
        config: &SolverConfig,
        deleted: &[Triple],
    ) -> Result<(), MaintainError> {
        self.retract_triples_durable(db_after, soi, config, deleted, None)
    }

    /// [`Self::retract_triples`] with a commit hook threaded into the
    /// epoch: the hook (the WAL append of the durability layer) runs
    /// after the batch body succeeded but *before* the epoch commits,
    /// so a failing hook aborts the epoch and the in-memory batch rolls
    /// back with it — a batch is committed iff its log record is.
    pub(crate) fn retract_triples_durable(
        &mut self,
        db_after: &GraphDb,
        soi: &Soi,
        config: &SolverConfig,
        deleted: &[Triple],
        hook: Option<CommitHook<'_>>,
    ) -> Result<(), MaintainError> {
        if self.poisoned {
            return Err(MaintainError::Poisoned);
        }
        if self.dead {
            // Early-exited: the empty solution is final. The database
            // still evolved, though, so a durable caller logs the batch
            // — recovery must replay the same triple history.
            return match hook {
                Some(h) => h(),
                None => Ok(()),
            };
        }
        validate_batch(db_after, deleted)?;
        self.begin_epoch();
        let result = self.retract_inner(db_after, soi, config, deleted);
        self.finish_epoch(result, hook)
    }

    /// The epoch body of [`Self::retract_triples`]; every `?` inside is
    /// an abort point the wrapper rolls back.
    fn retract_inner(
        &mut self,
        db_after: &GraphDb,
        soi: &Soi,
        config: &SolverConfig,
        deleted: &[Triple],
    ) -> Result<(), MaintainError> {
        // A duplicated triple must not decrement twice: the edge
        // relation is a set, so the matrix lost the entry exactly once.
        let mut batch: Vec<Triple> = deleted.to_vec();
        batch.sort_unstable();
        batch.dedup();
        self.stats.iterations += 1;
        // Phase 1: take back the deleted entries' counter contributions.
        // No χ bit is cleared in this phase, so "u is still a source
        // candidate" is exactly "u's +1 is still in the counter" (a node
        // removed *earlier* had its contribution walked out against the
        // then-current matrices, which still contained this batch's
        // entries). Clearing eagerly here would break that equivalence
        // for inequalities visited later in the same batch.
        //
        // A deferred (unseeded) inequality is seeded here against the
        // *post-deletion* matrix, which already excludes the entire
        // batch — so none of this batch's triples may decrement it
        // (tracked by `seeded_this_batch`), and the deferred enforcement
        // runs instead: target candidates without support are zeroed.
        let mut zeroed: Vec<(usize, u32)> = Vec::new();
        let mut seeded_this_batch = vec![false; soi.ineqs.len()];
        for t in &batch {
            failpoints::check("counter-increment")?;
            for (i, ineq) in soi.ineqs.iter().enumerate() {
                let Inequality::Edge {
                    target,
                    source,
                    label: Some(a),
                    forward,
                } = *ineq
                else {
                    continue;
                };
                if a != t.p || seeded_this_batch[i] {
                    continue;
                }
                if !self.support[i].is_seeded() {
                    let matrix = multiply_matrix(db_after, a, forward);
                    let inits = self.support[i].seed(matrix, &self.chi[source]);
                    self.stats.counter_inits += inits;
                    self.stats.lazy_seeds += 1;
                    self.slab_word_total += self.support[i].storage_words();
                    self.journal_op(JournalOp::SlabSeeded { i: i as u32 });
                    seeded_this_batch[i] = true;
                    zeroed.extend(
                        unsupported(&self.support[i], &self.chi[target]).map(|w| (target, w)),
                    );
                    continue;
                }
                // The multiply matrix M lost entry (u, w).
                let (u, w) = if forward { (t.s, t.o) } else { (t.o, t.s) };
                if !self.chi[source].get(u as usize) {
                    continue;
                }
                self.stats.counter_decrements += 1;
                self.journal_op(JournalOp::SlabDec {
                    i: i as u32,
                    w,
                });
                if self.support[i].decrement(w as usize) == 0 {
                    zeroed.push((target, w));
                }
            }
        }
        // Phase 2: the zero-support candidates are forced removals;
        // cascade them through the worklist against the post-deletion
        // matrices.
        let mut early = false;
        for (target, w) in zeroed {
            if self.chi[target].get(w as usize) {
                self.clear_chi_bit(target, w as usize);
                if self.remove_cleared_bit(soi, config, target, w) {
                    early = true;
                    break;
                }
            }
        }
        failpoints::check("pre-drain")?;
        if early || self.drain(db_after, soi, config)? {
            self.kill();
        }
        self.stats.observe_chi_words(self.chi_word_total);
        self.stats.observe_slab_words(self.slab_word_total);
        self.stats.final_candidates = self.counts.iter().sum();
        Ok(())
    }

    /// Maintains the largest solution after the given triples were
    /// **inserted**: `db_after` must be the previous database plus
    /// `inserted` (triples not previously present; duplicates within the
    /// batch are ignored). Two phases, the mirror image of
    /// [`Self::retract_triples`]:
    ///
    /// 1. **Counter walk.** Every inserted triple increments the support
    ///    counters of the inequalities it feeds — O(#inequalities) per
    ///    triple, *before* any χ change, so the counter invariant is
    ///    restored against the post-insertion matrices first. A
    ///    still-deferred inequality is seeded on this first touch
    ///    against `db_after`, which already contains the whole batch —
    ///    so none of this batch's entries may increment it again
    ///    (`seeded_this_batch`, the discipline retraction established);
    ///    their 0→1 signals were absorbed by the seed, so each batch
    ///    entry instead gets a direct frontier check. No deferred
    ///    enforcement is needed here: the matrix only *grew*, so the
    ///    deferral certificate still holds.
    /// 2. **Re-activation frontier.** A candidate whose support went
    ///    0→1, and every endpoint of an inserted triple, *may* have
    ///    joined the solution. Each is optimistically re-admitted into
    ///    χ — gated by the exact Eq.-(12)/(13) seed predicate against
    ///    `db_after` — and admissions cascade: an admitted source
    ///    candidate supports new columns (walking one CSR row per
    ///    seeded inequality, like a removal in reverse), an admitted
    ///    `sup` candidate may re-admit its `sub` twin. Unseeded slabs
    ///    are skipped: their covers certificate says every non-empty
    ///    column is already supported, so no 0→1 can happen there. The
    ///    closure over-approximates the new largest solution; a cull
    ///    pass removes admitted candidates that violate an inequality
    ///    (zero support, absent label, outside their `sup`) and the
    ///    standard removal drain — unchanged — cascades the rest out.
    ///    Pre-existing candidates are never removed: their support only
    ///    grew, so the drain cannot reach them, and the result is
    ///    exactly the largest solution under `db_after` at cost
    ///    proportional to the inserted triples' neighbourhood instead
    ///    of a cold re-solve.
    ///
    /// Returns `Ok(false)` iff the engine is dead (a previous early exit
    /// emptied the state for good; insertions can revive a legitimately
    /// empty solution, but a killed engine discarded the counters the
    /// revival would need) — the caller must then fall back to a cold
    /// solve. The state is untouched in that case.
    ///
    /// Like [`Self::retract_triples`], the batch runs inside an update
    /// epoch: any mid-flight error rolls back to the exact pre-batch
    /// state before the error is returned, out-of-vocabulary triples
    /// are rejected up front, and a poisoned engine refuses
    /// immediately.
    #[cfg(test)]
    pub(crate) fn insert_triples(
        &mut self,
        db_after: &GraphDb,
        soi: &Soi,
        config: &SolverConfig,
        inserted: &[Triple],
    ) -> Result<bool, MaintainError> {
        self.insert_triples_durable(db_after, soi, config, inserted, None)
    }

    /// [`Self::insert_triples`] with a commit hook threaded into the
    /// epoch — same contract as [`Self::retract_triples_durable`]. The
    /// dead-engine fallback (`Ok(false)`) runs **no** hook: the caller
    /// serves that batch by a cold rebuild and logs it there.
    pub(crate) fn insert_triples_durable(
        &mut self,
        db_after: &GraphDb,
        soi: &Soi,
        config: &SolverConfig,
        inserted: &[Triple],
        hook: Option<CommitHook<'_>>,
    ) -> Result<bool, MaintainError> {
        if self.poisoned {
            return Err(MaintainError::Poisoned);
        }
        if self.dead {
            return Ok(false);
        }
        if inserted.is_empty() {
            // Nothing to do in memory, but the batch still occupies an
            // epoch id in the log — record it so recovery replays the
            // identical (empty) step sequence.
            return match hook {
                Some(h) => h(),
                None => Ok(()),
            }
            .map(|()| true);
        }
        validate_batch(db_after, inserted)?;
        self.begin_epoch();
        let result = self.insert_inner(db_after, soi, config, inserted);
        self.finish_epoch(result, hook)?;
        Ok(true)
    }

    /// The epoch body of [`Self::insert_triples`]; every `?` inside is
    /// an abort point the wrapper rolls back.
    fn insert_inner(
        &mut self,
        db_after: &GraphDb,
        soi: &Soi,
        config: &SolverConfig,
        inserted: &[Triple],
    ) -> Result<(), MaintainError> {
        // The edge relation is a set: a duplicated triple entered the
        // matrix once and must count once.
        let mut batch: Vec<Triple> = inserted.to_vec();
        batch.sort_unstable();
        batch.dedup();
        debug_assert!(
            batch.iter().all(|&t| db_after.contains_triple(t)),
            "inserted triples must be present in db_after"
        );
        self.stats.iterations += 1;

        // Phase 1: credit the inserted entries to the counters. No χ
        // bit changes in this phase, so "u is a source candidate" is
        // exactly "u's +1 belongs in the counter", for every inequality
        // uniformly — the same freeze retraction relies on.
        let mut attempts: Vec<(usize, u32)> = Vec::new();
        let mut seeded_this_batch = vec![false; soi.ineqs.len()];
        for t in &batch {
            failpoints::check("counter-increment")?;
            for (i, ineq) in soi.ineqs.iter().enumerate() {
                let Inequality::Edge {
                    target,
                    source,
                    label: Some(a),
                    forward,
                } = *ineq
                else {
                    continue;
                };
                if a != t.p {
                    continue;
                }
                // The multiply matrix M gained entry (u, w).
                let (u, w) = if forward { (t.s, t.o) } else { (t.o, t.s) };
                if !self.support[i].is_seeded() && !seeded_this_batch[i] {
                    // First touch of a deferred inequality: seed against
                    // the post-insertion matrix, which contains the
                    // whole batch already. M only grew since the
                    // deferral, so the covers certificate still holds
                    // and no deferred enforcement is due.
                    let matrix = multiply_matrix(db_after, a, forward);
                    let inits = self.support[i].seed(matrix, &self.chi[source]);
                    self.stats.counter_inits += inits;
                    self.stats.lazy_seeds += 1;
                    self.slab_word_total += self.support[i].storage_words();
                    self.journal_op(JournalOp::SlabSeeded { i: i as u32 });
                    seeded_this_batch[i] = true;
                }
                if seeded_this_batch[i] {
                    // The seed absorbed this entry's +1 — and with it
                    // the 0→1 signal, so check the frontier directly.
                    // (Harmless over-approximation: the cull keeps only
                    // genuinely supported admissions.)
                    if self.chi[source].get(u as usize) && !self.chi[target].get(w as usize) {
                        attempts.push((target, w));
                    }
                    continue;
                }
                if !self.chi[source].get(u as usize) {
                    continue;
                }
                if self.bump_support(i, w as usize) == 1 && !self.chi[target].get(w as usize) {
                    attempts.push((target, w));
                }
            }
        }

        // Every endpoint of an inserted triple joins the frontier
        // unconditionally: a set of candidates that re-enters the
        // solution *only by supporting each other through inserted
        // edges* produces no 0→1 transition from the outside, but any
        // such mutual support is witnessed by an inserted edge between
        // its members — whose endpoints land here. (Forward simulation
        // leaves objects unconstrained by incoming edges, so only the
        // dual kind re-admits the object side — mirroring
        // `apply_summary_init`.)
        let dual = soi.kind == SimulationKind::Dual;
        for t in &batch {
            for e in &soi.edges {
                if e.label == Some(t.p) {
                    attempts.push((e.src, t.s));
                    if dual {
                        attempts.push((e.dst, t.o));
                    }
                }
            }
        }

        // The admission gate: exactly the Eq.-(12)/(13) seed predicate
        // of `seed_chi` + `apply_summary_init`, evaluated against
        // `db_after` — the new largest solution lies inside the new
        // seed, so gating never rejects a true member.
        let mut incident: Vec<Vec<(Option<u32>, bool)>> = vec![Vec::new(); soi.vars.len()];
        for e in &soi.edges {
            incident[e.src].push((e.label, true));
            if dual {
                incident[e.dst].push((e.label, false));
            }
        }
        let admissible = |v: usize, w: u32| -> bool {
            match soi.vars[v].pinned {
                Some(Some(node)) => w == node,
                Some(None) => false,
                None => {
                    config.init != InitMode::Summaries
                        || incident[v].iter().all(|&(label, is_src)| match label {
                            None => false,
                            Some(a) if is_src => db_after.f_summary(a).get(w as usize),
                            Some(a) => db_after.b_summary(a).get(w as usize),
                        })
                }
            }
        };

        // Phase 2: cascade the optimistic re-admissions to closure.
        let mut admitted: Vec<(usize, u32)> = Vec::new();
        while let Some((v, w)) = attempts.pop() {
            if self.chi[v].get(w as usize) || !admissible(v, w) {
                continue;
            }
            self.set_chi_bit(v, w as usize);
            self.counts[v] += 1;
            self.stats.reactivations += 1;
            admitted.push((v, w));
            // The new candidate supports one more row of every seeded
            // inequality sourced at v; walk it like a removal in
            // reverse. Unseeded slabs stay untouched: covers means
            // every non-empty column is supported already, so no 0→1
            // transition is possible there.
            for idx in 0..self.edge_ineqs_by_source[v].len() {
                let i = self.edge_ineqs_by_source[v][idx] as usize;
                if !self.support[i].is_seeded() {
                    continue;
                }
                let Inequality::Edge {
                    target,
                    label: Some(a),
                    forward,
                    ..
                } = soi.ineqs[i]
                else {
                    unreachable!("edge_ineqs_by_source holds labeled edges only");
                };
                self.stats.row_lookups += 1;
                let matrix = multiply_matrix(db_after, a, forward);
                for &c in matrix.row(w as usize) {
                    if self.bump_support(i, c as usize) == 1 && !self.chi[target].get(c as usize) {
                        attempts.push((target, c));
                    }
                }
            }
            // An admitted sup candidate may free its optional twin.
            for idx in 0..self.subset_ineqs_by_sup[v].len() {
                let i = self.subset_ineqs_by_sup[v][idx] as usize;
                let Inequality::Subset { sub, .. } = soi.ineqs[i] else {
                    unreachable!("subset_ineqs_by_sup holds subset inequalities only");
                };
                if !self.chi[sub].get(w as usize) {
                    attempts.push((sub, w));
                }
            }
        }
        debug_assert_eq!(
            self.chi_word_total,
            chi_words(&self.chi),
            "incremental χ-word accounting drifted across re-admission"
        );
        // The cascade's peak is the insertion high-water mark: the cull
        // and drain only shrink χ from here.
        self.stats.observe_chi_words(self.chi_word_total);
        self.stats.observe_slab_words(self.slab_word_total);

        // Cull: remove admitted candidates that violate an inequality
        // through the target-side indexes. Counters still include the
        // contributions of already-culled bits — the drain's queue
        // discipline ("bits cleared, decrements pending") — so a
        // survivor leaning on a culled bit is cascaded out by the drain
        // below, never kept.
        let mut early = false;
        'cull: for &(v, w) in &admitted {
            if !self.chi[v].get(w as usize) {
                continue; // culled already via a subset sup side
            }
            let mut violated = false;
            for idx in 0..self.edge_ineqs_by_target[v].len() {
                let i = self.edge_ineqs_by_target[v][idx] as usize;
                match soi.ineqs[i] {
                    Inequality::Edge { label: None, .. } => violated = true,
                    Inequality::Edge {
                        label: Some(a),
                        forward,
                        ..
                    } => {
                        if self.support[i].is_seeded() {
                            violated = self.support[i].count(w as usize) == 0;
                        } else {
                            // Covers certificate: the unseeded slab's
                            // source χ covers every non-empty row, so
                            // column w is supported iff it is non-empty
                            // (= row w of the transposed matrix).
                            self.stats.row_lookups += 1;
                            violated = multiply_matrix(db_after, a, !forward)
                                .row(w as usize)
                                .is_empty();
                        }
                    }
                    Inequality::Subset { .. } => {
                        unreachable!("edge_ineqs_by_target holds edge inequalities only")
                    }
                }
                if violated {
                    break;
                }
            }
            if !violated {
                for idx in 0..self.subset_ineqs_by_sub[v].len() {
                    let i = self.subset_ineqs_by_sub[v][idx] as usize;
                    let Inequality::Subset { sup, .. } = soi.ineqs[i] else {
                        unreachable!("subset_ineqs_by_sub holds subset inequalities only");
                    };
                    if !self.chi[sup].get(w as usize) {
                        violated = true;
                        break;
                    }
                }
            }
            if violated {
                self.clear_chi_bit(v, w as usize);
                if self.remove_cleared_bit(soi, config, v, w) {
                    // Unreachable in practice: the cull never drops a
                    // count below its pre-batch value, and a live
                    // early-exit engine keeps every mandatory variable
                    // non-empty. Kept as defense in depth.
                    early = true;
                    break 'cull;
                }
            }
        }
        failpoints::check("post-cull")?;
        failpoints::check("pre-drain")?;
        if early || self.drain(db_after, soi, config)? {
            self.kill();
        }
        // `emptied_mandatory` is sticky across retractions by design
        // (the solve *became* empty), but an insertion can revive a
        // legitimately empty solution under `early_exit: false` —
        // recompute it from the live counts.
        self.stats.emptied_mandatory = soi
            .vars
            .iter()
            .enumerate()
            .any(|(v, var)| var.mandatory && self.counts[v] == 0);
        self.stats.observe_chi_words(self.chi_word_total);
        self.stats.observe_slab_words(self.slab_word_total);
        self.stats.final_candidates = self.counts.iter().sum();
        Ok(())
    }

    /// Clears bit `w` of `chi[v]` and folds the storage-word delta into
    /// the running total (an RLE clear can split a run, +1 word, or
    /// drop one, −1; dense never changes).
    fn clear_chi_bit(&mut self, v: usize, w: usize) {
        let before = self.chi[v].storage_words();
        self.chi[v].clear(w);
        self.chi_word_total = self.chi_word_total - before + self.chi[v].storage_words();
        self.journal_op(JournalOp::ChiClear {
            v: v as u32,
            w: w as u32,
        });
    }

    /// Sets bit `w` of `chi[v]` and folds the storage-word delta into
    /// the running total (an RLE set can bridge two runs, −1 word,
    /// extend one, ±0, or open a new one, +1; dense never changes) —
    /// the mirror of [`Self::clear_chi_bit`].
    fn set_chi_bit(&mut self, v: usize, w: usize) {
        let before = self.chi[v].storage_words();
        self.chi[v].set(w);
        self.chi_word_total = self.chi_word_total - before + self.chi[v].storage_words();
        self.journal_op(JournalOp::ChiSet {
            v: v as u32,
            w: w as u32,
        });
    }

    /// Increments `support[i][w]` (the slab must be seeded) and folds
    /// the storage-word delta into the running slab total — a sparse
    /// slab may add a tracked column or spill to dense. Returns the new
    /// count, so the caller can react to the 0→1 frontier signal.
    fn bump_support(&mut self, i: usize, w: usize) -> u32 {
        self.stats.counter_increments += 1;
        let before = self.support[i].storage_words();
        let count = self.support[i].increment(w);
        self.slab_word_total = self.slab_word_total - before + self.support[i].storage_words();
        self.journal_op(JournalOp::SlabInc {
            i: i as u32,
            w: w as u32,
        });
        count
    }

    /// Appends one undo record to the epoch journal. Outside an epoch
    /// this is a branch and nothing else, so cold solves pay (almost)
    /// nothing for passing through the journaled mutation helpers.
    #[inline]
    fn journal_op(&mut self, op: JournalOp) {
        if let Some(epoch) = &mut self.epoch {
            epoch.journal.ops.push(op);
            self.stats.journal_entries += 1;
        }
    }

    /// Bookkeeping for a bit that the caller just cleared from `chi[v]`:
    /// counts, stats, worklist, mandatory-emptiness. Returns `true` iff
    /// the solve must early-exit (the caller then invokes [`Self::kill`]).
    fn remove_cleared_bit(&mut self, soi: &Soi, config: &SolverConfig, v: usize, w: u32) -> bool {
        self.counts[v] -= 1;
        self.stats.updates += 1;
        self.queue.push((v as u32, w));
        if self.counts[v] == 0 && soi.vars[v].mandatory {
            self.stats.emptied_mandatory = true;
            if config.early_exit {
                return true;
            }
        }
        false
    }

    /// Drains the removal worklist in rounds. Each round freezes χ,
    /// shards the pending removals by inequality, runs every shard
    /// against the frozen χ, and merges the proposed removals back into
    /// χ in inequality order. Returns
    /// `Ok(true)` iff an early exit triggered (the state must then be
    /// killed).
    ///
    /// Inside a maintenance epoch every round boundary is a cooperative
    /// cancellation point: the epoch's work budget
    /// ([`SolverConfig::drain_budget`]) is checked before the round's
    /// removals are taken, and the `mid-round` failpoint fires there
    /// too. Outside an epoch (cold solves) neither check runs and the
    /// `Err` arm is unreachable.
    ///
    /// **O(touched) round assembly.** The round's shard units and merge
    /// agenda are looked up through the `edge_ineqs_by_source` /
    /// `subset_ineqs_by_sup` indexes and the per-round buffers (`by_var`,
    /// `touched_vars`, `agenda`, `units`, proposal pool) are persistent
    /// scratch, so a deep cascade that clears one candidate per round
    /// costs O(its own work), not O(#vars + #ineqs) per round.
    fn drain(
        &mut self,
        db: &GraphDb,
        soi: &Soi,
        config: &SolverConfig,
    ) -> Result<bool, MaintainError> {
        let journaling = self.epoch.is_some();
        while !self.queue.is_empty() {
            // Cooperative cancellation at the round boundary: the queue
            // is intact and the scratch buffers are clean, so an Err
            // here leaves nothing half-merged for the rollback to chase.
            if let Some(epoch) = &self.epoch {
                if let Some(budget) = config.drain_budget {
                    let spent = self.stats.work_ops().saturating_sub(epoch.work_at_begin);
                    if spent > budget {
                        return Err(MaintainError::BudgetExceeded { budget, spent });
                    }
                }
                failpoints::check("mid-round")?;
            }
            let batch = std::mem::take(&mut self.queue);
            self.stats.drain_rounds += 1;
            self.stats.delta_removals += batch.len();

            // Group the round's removals by source variable, so every
            // shard walks only its own removals. `by_var` is persistent
            // scratch: only the touched buckets are written, and they
            // are cleared again below. Every bucket is sorted into
            // ascending node order — the canonical order shared by the
            // per-bit and run-aware walks (a run's CSR segment is the
            // concatenation of its rows in exactly this order), so the
            // decrement/proposal sequences are bit-identical across χ
            // backends.
            let mut by_var = std::mem::take(&mut self.by_var);
            let mut touched = std::mem::take(&mut self.touched_vars);
            for &(v, u) in &batch {
                let bucket = &mut by_var[v as usize];
                if bucket.is_empty() {
                    touched.push(v);
                }
                bucket.push(u);
            }
            for &v in &touched {
                by_var[v as usize].sort_unstable();
            }

            // The round's agenda: every inequality that can react to
            // this batch, in inequality order (the χ-merge order). Each
            // inequality has exactly one source/sup variable, so the
            // concatenation is duplicate-free and one sort suffices.
            let mut agenda = std::mem::take(&mut self.agenda);
            for &v in &touched {
                agenda.extend_from_slice(&self.edge_ineqs_by_source[v as usize]);
                agenda.extend_from_slice(&self.subset_ineqs_by_sup[v as usize]);
            }
            agenda.sort_unstable();

            // One shard per labeled edge inequality whose source shrank,
            // in inequality order.
            let mut units = std::mem::take(&mut self.units);
            for &i in &agenda {
                if let Inequality::Edge {
                    target,
                    source,
                    label: Some(label),
                    forward,
                } = soi.ineqs[i as usize]
                {
                    units.push(ShardUnit {
                        ineq: i,
                        source: source as u32,
                        target: target as u32,
                        label,
                        forward,
                        run_aware: self.run_aware,
                        proposals: self.proposal_pool.pop().unwrap_or_default(),
                        journal: journaling.then(Vec::new),
                        decrements: 0,
                        row_lookups: 0,
                        inits: 0,
                        lazy_seeded: false,
                    });
                }
            }
            self.stats.shard_units += units.len();

            for unit in &mut units {
                let slab = &mut self.support[unit.ineq as usize];
                unit.process(db, &by_var[unit.source as usize], slab, &self.chi);
            }

            // Merge: fold the per-shard work counters and apply the
            // proposals in inequality order.
            // Subset inequalities carry no counters and are resolved
            // inline at their position in the same order.
            let mut early = false;
            let mut unit_iter = units.drain(..).peekable();
            for &i in &agenda {
                if unit_iter.peek().map(|u| u.ineq) == Some(i) {
                    // Structural invariant: peek just returned Some.
                    #[allow(clippy::expect_used)]
                    let mut unit = unit_iter.next().expect("peeked");
                    self.stats.counter_decrements += unit.decrements;
                    self.stats.counter_inits += unit.inits;
                    self.stats.row_lookups += unit.row_lookups;
                    if unit.lazy_seeded {
                        self.stats.lazy_seeds += 1;
                        self.slab_word_total += self.support[i as usize].storage_words();
                        self.journal_op(JournalOp::SlabSeeded { i });
                    }
                    // Fold the shard's decrement log into the epoch
                    // journal (seed first: reverse replay then undoes
                    // the decrements before dropping the seed).
                    if let Some(log) = unit.journal.take() {
                        for &w in &log {
                            self.journal_op(JournalOp::SlabDec { i, w });
                        }
                    }
                    let target = unit.target as usize;
                    let mut proposals = unit.proposals;
                    if !early {
                        for &w in &proposals {
                            if self.chi[target].get(w as usize) {
                                self.clear_chi_bit(target, w as usize);
                                if self.remove_cleared_bit(soi, config, target, w) {
                                    early = true;
                                    break;
                                }
                            }
                        }
                    }
                    proposals.clear();
                    self.proposal_pool.push(proposals);
                } else if !early {
                    if let Inequality::Subset { sub, sup } = soi.ineqs[i as usize] {
                        for &u in &by_var[sup] {
                            if !self.chi[sub].get(u as usize) {
                                continue;
                            }
                            self.clear_chi_bit(sub, u as usize);
                            if self.remove_cleared_bit(soi, config, sub, u) {
                                early = true;
                                break;
                            }
                        }
                    }
                }
            }

            // Recycle the round's scratch (clearing only what was
            // touched) before any early return.
            drop(unit_iter);
            for &v in &touched {
                by_var[v as usize].clear();
            }
            touched.clear();
            agenda.clear();
            self.by_var = by_var;
            self.touched_vars = touched;
            self.agenda = agenda;
            self.units = units;
            debug_assert_eq!(
                self.chi_word_total,
                chi_words(&self.chi),
                "incremental χ-word accounting drifted"
            );
            self.stats.observe_chi_words(self.chi_word_total);
            self.stats.observe_slab_words(self.slab_word_total);
            if early {
                return Ok(true);
            }
        }
        Ok(false)
    }

    /// Early exit: empties every variable (the convention shared with the
    /// re-evaluation engine's `empty_solution`) and freezes the state.
    fn kill(&mut self) {
        // Wholesale clears are not per-bit ops; journal the pre-kill χ
        // snapshot instead (only when an epoch is open — the clone is
        // not free).
        if self.epoch.is_some() {
            let snapshot = self.chi.clone();
            self.journal_op(JournalOp::Killed { chi: snapshot });
        }
        for c in self.chi.iter_mut() {
            c.clear_all();
        }
        self.chi_word_total = chi_words(&self.chi);
        self.counts.iter_mut().for_each(|c| *c = 0);
        self.stats.final_candidates = 0;
        self.queue.clear();
        self.dead = true;
    }

    /// `true` iff an aborted batch left the engine without a trustworthy
    /// rollback; the owner must rebuild from a cold solve.
    pub(crate) fn is_poisoned(&self) -> bool {
        self.poisoned
    }

    /// The engine's cumulative work counters (no χ clone, unlike
    /// [`Self::solution`]).
    pub(crate) fn stats(&self) -> &SolveStats {
        &self.stats
    }

    /// Folds the robustness counters of a previous engine's stats into
    /// this one — used by [`crate::IncrementalDualSim`] when a poisoned
    /// engine is replaced by a cold rebuild, so `rollbacks`/`poisonings`
    /// /`budget_aborts`/`journal_entries` keep counting across the
    /// engine's lifetimes.
    pub(crate) fn carry_robustness_from(&mut self, prev: &SolveStats) {
        self.stats.rollbacks += prev.rollbacks;
        self.stats.poisonings += prev.poisonings;
        self.stats.budget_aborts += prev.budget_aborts;
        self.stats.journal_entries += prev.journal_entries;
    }

    /// Opens the update epoch for one maintenance batch: snapshots the
    /// cheap scalar state (stats, counts, liveness) and starts an empty
    /// journal. The work-ops watermark anchors the drain-budget
    /// accounting.
    fn begin_epoch(&mut self) {
        debug_assert!(self.epoch.is_none(), "maintenance epochs never nest");
        debug_assert!(self.queue.is_empty(), "worklist drained between batches");
        self.epoch = Some(Epoch {
            journal: Journal {
                ops: Vec::new(),
                stats: self.stats.clone(),
                counts: self.counts.clone(),
                dead: self.dead,
            },
            work_at_begin: self.stats.work_ops(),
        });
    }

    /// Commits the epoch: the batch applied fully, so the journal is
    /// simply dropped.
    fn commit_epoch(&mut self) {
        self.epoch = None;
    }

    /// Routes the epoch body's outcome: commit on success, roll back on
    /// error (applying the poison policy), and hand the original error
    /// back to the caller. A commit hook, when present, is the last
    /// abort point: it runs after the body succeeded, and its error
    /// rolls the batch back exactly like a mid-body fault — the
    /// ordering that makes "committed in memory" imply "recorded in
    /// the write-ahead log".
    fn finish_epoch(
        &mut self,
        result: Result<(), MaintainError>,
        hook: Option<CommitHook<'_>>,
    ) -> Result<(), MaintainError> {
        let result = result.and_then(|()| match hook {
            Some(h) => h(),
            None => Ok(()),
        });
        match result {
            Ok(()) => {
                self.commit_epoch();
                Ok(())
            }
            Err(cause) => {
                self.handle_abort(&cause);
                Err(cause)
            }
        }
    }

    /// The degradation ladder for an aborted batch. A successful
    /// rollback restores the pre-batch state and counts in `rollbacks`;
    /// budget exhaustion additionally poisons the engine (the batch was
    /// too expensive to maintain incrementally — retrying would burn the
    /// same budget again, so the owner should fall back to a cold
    /// solve). A failed rollback poisons without restoring: the state
    /// cannot be trusted in either direction.
    fn handle_abort(&mut self, cause: &MaintainError) {
        let budget_abort = matches!(cause, MaintainError::BudgetExceeded { .. });
        match self.abort_epoch() {
            Ok(()) => {
                self.stats.rollbacks += 1;
                if budget_abort {
                    self.stats.budget_aborts += 1;
                    self.poison();
                }
            }
            Err(_) => {
                if budget_abort {
                    self.stats.budget_aborts += 1;
                }
                self.poison();
            }
        }
    }

    /// Marks the engine unusable until a cold rebuild.
    fn poison(&mut self) {
        self.poisoned = true;
        self.stats.poisonings += 1;
    }

    /// Replays the journal in reverse, restoring the exact pre-batch
    /// state: χ bit flips are inverted, counter increments/decrements
    /// undone, lazy-seed promotions unseeded, and a kill's χ snapshot
    /// restored wholesale; the scalar snapshots (stats, counts,
    /// liveness) are then copied back and the storage-word gauges
    /// recomputed. Fails when the `rollback` failpoint models a
    /// crashing rollback, in which case the state is left as-is for the
    /// caller to poison.
    fn abort_epoch(&mut self) -> Result<(), MaintainError> {
        debug_assert!(self.epoch.is_some(), "abort_epoch outside an epoch");
        let Some(Epoch { mut journal, .. }) = self.epoch.take() else {
            return Err(MaintainError::Poisoned);
        };
        failpoints::check("rollback")?;
        while let Some(op) = journal.ops.pop() {
            match op {
                JournalOp::ChiSet { v, w } => self.chi[v as usize].clear(w as usize),
                JournalOp::ChiClear { v, w } => self.chi[v as usize].set(w as usize),
                JournalOp::SlabInc { i, w } => {
                    self.support[i as usize].decrement(w as usize);
                }
                JournalOp::SlabDec { i, w } => {
                    self.support[i as usize].increment(w as usize);
                }
                JournalOp::SlabSeeded { i } => self.support[i as usize].unseed(),
                JournalOp::Killed { chi } => self.chi = chi,
            }
        }
        self.stats = journal.stats;
        self.counts = journal.counts;
        self.dead = journal.dead;
        self.queue.clear();
        self.chi_word_total = chi_words(&self.chi);
        self.slab_word_total = self.support.iter().map(CounterSlab::storage_words).sum();
        Ok(())
    }
}

/// Rejects updates that name nodes or labels outside the database's
/// interned vocabulary *before* any epoch opens — an invalid batch
/// leaves the engine untouched without needing a rollback.
fn validate_batch(db: &GraphDb, batch: &[Triple]) -> Result<(), MaintainError> {
    let nodes = db.num_nodes() as u32;
    let labels = db.num_labels() as u32;
    for &triple in batch {
        if triple.s >= nodes || triple.o >= nodes || triple.p >= labels {
            return Err(MaintainError::OutOfVocabulary { triple });
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{build_sois, solve, FixpointMode};
    use dualsim_bitmatrix::kernels::with_backend;
    use dualsim_bitmatrix::{ChiBackend, KernelBackend};
    use dualsim_graph::GraphDbBuilder;
    use dualsim_query::parse;

    fn delta_cfg(early_exit: bool) -> SolverConfig {
        SolverConfig {
            fixpoint: FixpointMode::DeltaCounting,
            early_exit,
            ..SolverConfig::default()
        }
    }

    fn sample_db() -> GraphDb {
        let mut b = GraphDbBuilder::new();
        b.add_triple("a", "p", "b").unwrap();
        b.add_triple("b", "p", "c").unwrap();
        b.add_triple("c", "p", "a").unwrap();
        b.add_triple("a", "q", "c").unwrap();
        b.add_triple("d", "p", "d").unwrap();
        b.add_triple("e", "q", "a").unwrap();
        b.finish()
    }

    #[test]
    fn delta_matches_reevaluate_on_fixtures() {
        let db = sample_db();
        for text in [
            "{ ?x p ?y }",
            "{ ?x p ?y . ?y p ?z . ?x q ?z }",
            "{ ?x p ?x }",
            "{ ?x q ?y . ?y p ?z }",
            "{ ?x nolabel ?y . ?x p ?z }",
            "{ ?x p ?y OPTIONAL { ?x q ?z } }",
            "{ ?x p <d> }",
        ] {
            let q = parse(text).unwrap();
            for soi in build_sois(&db, &q) {
                for early_exit in [false, true] {
                    let reev = solve(
                        &db,
                        &soi,
                        &SolverConfig {
                            early_exit,
                            ..SolverConfig::default()
                        },
                    );
                    let delta = solve(&db, &soi, &delta_cfg(early_exit));
                    assert_eq!(reev.chi, delta.chi, "{text} (early_exit={early_exit})");
                    assert_eq!(
                        reev.is_certainly_empty(),
                        delta.is_certainly_empty(),
                        "{text}"
                    );
                }
            }
        }
    }

    #[test]
    fn delta_counts_its_work() {
        let db = sample_db();
        let q = parse("{ ?x p ?y . ?y q ?z }").unwrap();
        let soi = build_sois(&db, &q).remove(0);
        let sol = solve(&db, &soi, &delta_cfg(false));
        assert!(sol.stats.counter_inits > 0, "support seeding happened");
        assert_eq!(sol.stats.rowwise, 0, "no whole-inequality multiplies");
        assert_eq!(sol.stats.rows_ored, 0);
        assert_eq!(sol.stats.bits_probed, 0);
        assert!(sol.stats.work_ops() > 0);
    }

    #[test]
    fn provably_satisfied_inequalities_defer_their_seeding() {
        // A single-edge query: after summary initialization, χ(x) is
        // exactly the non-empty rows of F^p and χ(y) exactly the column
        // summary, so both inequalities are provably satisfied and no
        // counter is ever seeded.
        let db = sample_db();
        let q = parse("{ ?x p ?y }").unwrap();
        let soi = build_sois(&db, &q).remove(0);
        let sol = solve(&db, &soi, &delta_cfg(false));
        assert_eq!(sol.stats.counter_inits, 0, "no seeding work");
        assert_eq!(sol.stats.seeds_deferred, soi.ineqs.len());
        assert_eq!(sol.stats.lazy_seeds, 0, "never touched, never seeded");
        let reev = solve(&db, &soi, &SolverConfig::default());
        assert_eq!(sol.chi, reev.chi);
    }

    #[test]
    fn slab_backends_match_on_fixtures() {
        use crate::SlabBackend;
        let db = sample_db();
        for text in [
            "{ ?x p ?y . ?y p ?z . ?x q ?z }",
            "{ ?x q ?y . ?y p ?z }",
            "{ ?x p ?y OPTIONAL { ?x q ?z } }",
        ] {
            let q = parse(text).unwrap();
            for soi in build_sois(&db, &q) {
                for early_exit in [false, true] {
                    let dense = solve(
                        &db,
                        &soi,
                        &SolverConfig {
                            slab_backend: SlabBackend::Dense,
                            ..delta_cfg(early_exit)
                        },
                    );
                    for slab_backend in [SlabBackend::Sparse, SlabBackend::Auto] {
                        let other = solve(
                            &db,
                            &soi,
                            &SolverConfig {
                                slab_backend,
                                ..delta_cfg(early_exit)
                            },
                        );
                        assert_eq!(dense.chi, other.chi, "{text} ({slab_backend:?})");
                        assert_eq!(
                            dense.stats.logical(),
                            other.stats.logical(),
                            "{text} ({slab_backend:?})"
                        );
                        // The spill guarantee: sparse storage never
                        // exceeds dense storage.
                        assert!(
                            other.stats.slab_peak_words <= dense.stats.slab_peak_words,
                            "{text}: {} > {} ({slab_backend:?})",
                            other.stats.slab_peak_words,
                            dense.stats.slab_peak_words
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn slab_peak_words_gauges_only_seeded_slabs() {
        let db = sample_db();
        // Seeding happens here (see delta_counts_its_work) …
        let q = parse("{ ?x p ?y . ?y q ?z }").unwrap();
        let soi = build_sois(&db, &q).remove(0);
        let sol = solve(&db, &soi, &delta_cfg(false));
        assert!(sol.stats.counter_inits > 0);
        assert!(sol.stats.slab_peak_words > 0, "seeded slabs have storage");
        // … while a fully-deferred solve keeps every slab at zero words.
        let q = parse("{ ?x p ?y }").unwrap();
        let soi = build_sois(&db, &q).remove(0);
        let deferred = solve(&db, &soi, &delta_cfg(false));
        assert_eq!(deferred.stats.counter_inits, 0);
        assert_eq!(deferred.stats.slab_peak_words, 0);
        // The re-evaluation engine has no slabs at all.
        let reev = solve(&db, &soi, &SolverConfig::default());
        assert_eq!(reev.stats.slab_peak_words, 0);
        assert_eq!(reev.stats.row_lookups, 0);
    }

    /// A publications-style fixture whose forced removals form one
    /// contiguous id run: p1..p9 are interned back to back and all lose
    /// their candidacy in one round, so the run-aware drain under RLE χ
    /// resolves them with one CSR segment lookup where the dense-χ
    /// drain pays one row lookup per node.
    fn contiguous_removals_db() -> GraphDb {
        let mut b = GraphDbBuilder::new();
        for i in 0..10 {
            b.add_triple(&format!("p{i}"), "type", "Pub").unwrap();
        }
        b.add_triple("p0", "author", "head").unwrap();
        for i in 1..10 {
            b.add_triple(&format!("p{i}"), "author", &format!("other{i}"))
                .unwrap();
        }
        b.add_triple("head", "leads", "d").unwrap();
        for i in 1..10 {
            b.add_triple(&format!("other{i}"), "type", "Person").unwrap();
        }
        b.finish()
    }

    #[test]
    fn run_aware_drain_saves_row_lookups_at_identical_logical_work() {
        let db = contiguous_removals_db();
        let q = parse("{ ?p type <Pub> . ?p author ?h . ?h leads ?d }").unwrap();
        let soi = build_sois(&db, &q).remove(0);
        let cfg = |chi_backend| SolverConfig {
            chi_backend,
            ..delta_cfg(false)
        };
        let dense = solve(&db, &soi, &cfg(ChiBackend::Dense));
        let rle = solve(&db, &soi, &cfg(ChiBackend::Rle));
        assert_eq!(dense.chi, rle.chi);
        assert_eq!(dense.stats.logical(), rle.stats.logical());
        assert!(dense.stats.delta_removals > 0, "the fixture must cascade");
        assert!(dense.stats.row_lookups > 0);
        assert!(
            rle.stats.row_lookups < dense.stats.row_lookups,
            "run-aware drain must coalesce the contiguous removals: {} vs {}",
            rle.stats.row_lookups,
            dense.stats.row_lookups
        );
    }

    #[test]
    fn retraction_tracks_cold_solves_triple_by_triple() {
        let db = sample_db();
        let q = parse("{ ?x p ?y . ?y q ?z }").unwrap();
        let soi = build_sois(&db, &q).remove(0);
        let cfg = delta_cfg(false);
        let mut engine = DeltaSolver::new(&db, &soi, &cfg);
        let mut triples: Vec<Triple> = db.triples().collect();
        while let Some(victim) = triples.pop() {
            let db_after = db.with_triples(&triples).unwrap();
            engine.retract_triples(&db_after, &soi, &cfg, &[victim]).unwrap();
            let cold = solve(&db_after, &soi, &cfg);
            assert_eq!(engine.solution().chi, cold.chi, "after {victim:?}");
        }
    }

    #[test]
    fn retraction_lazily_seeds_deferred_inequalities() {
        // "{ ?x p ?y }" defers both inequalities (see above); deleting a
        // p-triple must seed them on first touch — against the
        // post-deletion matrix — and still track the cold solve.
        let db = sample_db();
        let q = parse("{ ?x p ?y }").unwrap();
        let soi = build_sois(&db, &q).remove(0);
        let cfg = delta_cfg(false);
        let mut engine = DeltaSolver::new(&db, &soi, &cfg);
        assert_eq!(engine.solution().stats.counter_inits, 0);
        let p = db.label_id("p").unwrap();
        let victim: Triple = db.triples().find(|t| t.p == p).unwrap();
        let rest: Vec<Triple> = db.triples().filter(|&t| t != victim).collect();
        let db_after = db.with_triples(&rest).unwrap();
        engine
            .retract_triples(&db_after, &soi, &cfg, &[victim])
            .unwrap();
        let after = engine.solution().stats.clone();
        assert!(after.lazy_seeds > 0, "first touch seeded lazily");
        assert!(after.counter_inits > 0);
        assert_eq!(after.rows_ored, 0, "still no wholesale re-evaluation");
        let cold = solve(&db_after, &soi, &cfg);
        assert_eq!(engine.solution().chi, cold.chi);
    }

    #[test]
    fn insertion_tracks_cold_solves_triple_by_triple() {
        // Grow the database one triple at a time from an empty edge
        // relation; the engine must match a cold solve at every step.
        let db = sample_db();
        for text in [
            "{ ?x p ?y . ?y q ?z }",
            "{ ?x p ?y . ?y p ?z . ?x q ?z }",
            "{ ?x p ?x }",
            "{ ?x p ?y OPTIONAL { ?x q ?z } }",
            "{ ?x p <d> }",
        ] {
            let q = parse(text).unwrap();
            for soi in build_sois(&db, &q) {
                let cfg = delta_cfg(false);
                let all: Vec<Triple> = db.triples().collect();
                let empty = db.with_triples(&[]).unwrap();
                let mut engine = DeltaSolver::new(&empty, &soi, &cfg);
                for i in 0..all.len() {
                    let db_after = db.with_triples(&all[..=i]).unwrap();
                    assert!(engine
                        .insert_triples(&db_after, &soi, &cfg, &[all[i]])
                        .unwrap());
                    let cold = solve(&db_after, &soi, &cfg);
                    assert_eq!(
                        engine.solution().chi,
                        cold.chi,
                        "{text} after inserting {:?}",
                        all[i]
                    );
                }
            }
        }
    }

    #[test]
    fn insertion_batches_track_cold_solves() {
        // Same growth, but in one batch per label — exercising the
        // seeded-this-batch discipline and multi-triple frontiers.
        let db = sample_db();
        let q = parse("{ ?x p ?y . ?y q ?z }").unwrap();
        let soi = build_sois(&db, &q).remove(0);
        let cfg = delta_cfg(false);
        let p = db.label_id("p").unwrap();
        let (ps, qs): (Vec<Triple>, Vec<Triple>) = db.triples().partition(|t| t.p == p);
        let empty = db.with_triples(&[]).unwrap();
        let mut engine = DeltaSolver::new(&empty, &soi, &cfg);
        let db_mid = db.with_triples(&ps).unwrap();
        assert!(engine.insert_triples(&db_mid, &soi, &cfg, &ps).unwrap());
        assert_eq!(engine.solution().chi, solve(&db_mid, &soi, &cfg).chi);
        assert!(engine.insert_triples(&db, &soi, &cfg, &qs).unwrap());
        assert_eq!(engine.solution().chi, solve(&db, &soi, &cfg).chi);
    }

    #[test]
    fn insertion_lazily_seeds_deferred_inequalities() {
        // "{ ?x p ?y }" defers both inequalities on the full database;
        // the first inserted p-triple must seed them — against the
        // post-insertion matrix, without double-counting the batch.
        let db = sample_db();
        let q = parse("{ ?x p ?y }").unwrap();
        let soi = build_sois(&db, &q).remove(0);
        let cfg = delta_cfg(false);
        let all: Vec<Triple> = db.triples().collect();
        let p = db.label_id("p").unwrap();
        let victim = all.iter().position(|t| t.p == p).unwrap();
        let rest: Vec<Triple> = all
            .iter()
            .enumerate()
            .filter_map(|(i, &t)| (i != victim).then_some(t))
            .collect();
        let db_before = db.with_triples(&rest).unwrap();
        let mut engine = DeltaSolver::new(&db_before, &soi, &cfg);
        assert_eq!(engine.solution().stats.counter_inits, 0, "all deferred");
        assert!(engine
            .insert_triples(&db, &soi, &cfg, &[all[victim]])
            .unwrap());
        let stats = engine.solution().stats.clone();
        assert!(stats.lazy_seeds > 0, "first touch seeded lazily");
        assert!(stats.counter_inits > 0);
        assert_eq!(stats.rows_ored, 0, "still no wholesale re-evaluation");
        assert_eq!(engine.solution().chi, solve(&db, &soi, &cfg).chi);
    }

    #[test]
    fn insertion_counts_increments_not_evaluations() {
        let db = sample_db();
        let q = parse("{ ?x p ?y . ?y q ?z }").unwrap();
        let soi = build_sois(&db, &q).remove(0);
        let cfg = delta_cfg(false);
        let all: Vec<Triple> = db.triples().collect();
        let (rest, last) = all.split_at(all.len() - 1);
        let db_before = db.with_triples(rest).unwrap();
        let mut engine = DeltaSolver::new(&db_before, &soi, &cfg);
        let evals_before = engine.solution().stats.evaluations;
        assert!(engine.insert_triples(&db, &soi, &cfg, last).unwrap());
        let stats = engine.solution().stats.clone();
        assert_eq!(stats.rows_ored, 0);
        assert_eq!(stats.bits_probed, 0);
        assert_eq!(
            stats.evaluations, evals_before,
            "insertion maintenance evaluates no inequality wholesale"
        );
        assert!(
            stats.counter_increments > 0 || stats.counter_inits > 0,
            "the inserted entries were credited to the counters"
        );
        assert_eq!(engine.solution().chi, solve(&db, &soi, &cfg).chi);
    }

    #[test]
    fn insertion_deduplicates_its_batch() {
        let db = sample_db();
        let q = parse("{ ?x p ?y . ?y q ?z }").unwrap();
        let soi = build_sois(&db, &q).remove(0);
        let cfg = delta_cfg(false);
        let all: Vec<Triple> = db.triples().collect();
        let (rest, last) = all.split_at(all.len() - 1);
        let db_before = db.with_triples(rest).unwrap();
        let mut engine = DeltaSolver::new(&db_before, &soi, &cfg);
        // The same triple listed three times must increment once; a
        // phantom double increment would leave counters too high and
        // mask later deletions.
        assert!(engine
            .insert_triples(&db, &soi, &cfg, &[last[0], last[0], last[0]])
            .unwrap());
        assert_eq!(engine.solution().chi, solve(&db, &soi, &cfg).chi);
        engine.retract_triples(&db_before, &soi, &cfg, last).unwrap();
        assert_eq!(engine.solution().chi, solve(&db_before, &soi, &cfg).chi);
    }

    #[test]
    fn insertion_into_a_dead_engine_reports_failure() {
        let db = sample_db();
        let q = parse("{ ?x nolabel ?y }").unwrap();
        let soi = build_sois(&db, &q).remove(0);
        let cfg = delta_cfg(true);
        let mut engine = DeltaSolver::new(&db, &soi, &cfg);
        assert!(engine.solution().is_certainly_empty());
        // An early-exited engine threw its counters away; it must
        // refuse instead of producing an unsound update.
        let t: Triple = db.triples().next().unwrap();
        assert_eq!(engine.insert_triples(&db, &soi, &cfg, &[t]), Ok(false));
        assert!(engine.solution().is_certainly_empty());
    }

    #[test]
    fn insertion_revives_an_emptied_mandatory_variable() {
        // Delete every q-triple (the query dies), then insert them
        // back: the solution must return and `emptied_mandatory` must
        // clear — it is a statement about the *current* counts, not a
        // ratchet, once insertions exist.
        let db = sample_db();
        let q = parse("{ ?x p ?y . ?y q ?z }").unwrap();
        let soi = build_sois(&db, &q).remove(0);
        let cfg = delta_cfg(false);
        let qlabel = db.label_id("q").unwrap();
        let (qs, ps): (Vec<Triple>, Vec<Triple>) = db.triples().partition(|t| t.p == qlabel);
        let mut engine = DeltaSolver::new(&db, &soi, &cfg);
        assert!(!engine.solution().stats.emptied_mandatory);
        let db_ps = db.with_triples(&ps).unwrap();
        engine.retract_triples(&db_ps, &soi, &cfg, &qs).unwrap();
        assert!(engine.solution().stats.emptied_mandatory, "the query died");
        assert!(engine.solution().is_certainly_empty());
        assert!(engine.insert_triples(&db, &soi, &cfg, &qs).unwrap());
        assert!(
            !engine.solution().stats.emptied_mandatory,
            "the insertion revived the mandatory variables"
        );
        assert_eq!(engine.solution().chi, solve(&db, &soi, &cfg).chi);
    }

    /// Runs `f` on a fresh thread pinned to the scalar kernel.
    fn on_scalar_thread<T: Send + 'static>(
        f: impl FnOnce() -> T + Send + 'static,
    ) -> std::thread::JoinHandle<T> {
        std::thread::spawn(move || with_backend(KernelBackend::Scalar, f))
    }

    /// Insert the sample graph's last two triples, retract them, and
    /// insert them again, starting from a cold solve without them.
    fn insertion_churn(cfg: &SolverConfig) -> Solution {
        let db = sample_db();
        let q = parse("{ ?x p ?y . ?y q ?z }").unwrap();
        let soi = build_sois(&db, &q).remove(0);
        let all: Vec<Triple> = db.triples().collect();
        let (rest, last) = all.split_at(all.len() - 2);
        let db_before = db.with_triples(rest).unwrap();
        let mut engine = DeltaSolver::new(&db_before, &soi, cfg);
        assert!(engine.insert_triples(&db, &soi, cfg, last).unwrap());
        engine.retract_triples(&db_before, &soi, cfg, last).unwrap();
        assert!(engine.insert_triples(&db, &soi, cfg, last).unwrap());
        engine.solution()
    }

    #[test]
    fn insertion_maintenance_is_backend_and_thread_invariant() {
        use crate::SlabBackend;
        let db = sample_db();
        let q = parse("{ ?x p ?y . ?y q ?z }").unwrap();
        let soi = build_sois(&db, &q).remove(0);
        let base = insertion_churn(&delta_cfg(false));
        assert_eq!(base.chi, solve(&db, &soi, &delta_cfg(false)).chi);
        for chi_backend in [ChiBackend::Dense, ChiBackend::Rle] {
            for slab_backend in [SlabBackend::Dense, SlabBackend::Sparse] {
                let cfg = SolverConfig {
                    chi_backend,
                    slab_backend,
                    ..delta_cfg(false)
                };
                // The same maintenance on this thread and, concurrently,
                // on a second thread pinned to the scalar kernel.
                let there = on_scalar_thread({
                    let cfg = cfg.clone();
                    move || insertion_churn(&cfg)
                });
                let here = insertion_churn(&cfg);
                for sol in [here, there.join().unwrap()] {
                    assert_eq!(base.chi, sol.chi, "({chi_backend:?}, {slab_backend:?})");
                    assert_eq!(
                        base.stats.logical(),
                        sol.stats.logical(),
                        "({chi_backend:?}, {slab_backend:?})"
                    );
                }
            }
        }
    }

    #[test]
    fn retraction_after_early_exit_stays_empty() {
        let db = sample_db();
        let q = parse("{ ?x nolabel ?y }").unwrap();
        let soi = build_sois(&db, &q).remove(0);
        let cfg = delta_cfg(true);
        let mut engine = DeltaSolver::new(&db, &soi, &cfg);
        assert!(engine.solution().is_certainly_empty());
        let victim: Triple = db.triples().next().unwrap();
        let rest: Vec<Triple> = db.triples().skip(1).collect();
        engine
            .retract_triples(&db.with_triples(&rest).unwrap(), &soi, &cfg, &[victim])
            .unwrap();
        let sol = engine.solution();
        assert!(sol.is_certainly_empty());
        assert!(sol.chi.iter().all(|c| c.none_set()));
    }

    use crate::{failpoints, MaintainError};

    /// A fixture with a real deletion cascade: engine on the full
    /// database, plus the deletion batch (all q-triples) and the
    /// post-deletion database.
    fn retraction_fixture(cfg: &SolverConfig) -> (GraphDb, Soi, DeltaSolver, GraphDb, Vec<Triple>) {
        let db = sample_db();
        let q = parse("{ ?x p ?y . ?y q ?z }").unwrap();
        let soi = build_sois(&db, &q).remove(0);
        let engine = DeltaSolver::new(&db, &soi, cfg);
        let qlabel = db.label_id("q").unwrap();
        let (qs, ps): (Vec<Triple>, Vec<Triple>) = db.triples().partition(|t| t.p == qlabel);
        let db_after = db.with_triples(&ps).unwrap();
        (db, soi, engine, db_after, qs)
    }

    #[test]
    fn out_of_vocabulary_batches_are_rejected_before_the_epoch() {
        let cfg = delta_cfg(false);
        let (db, soi, mut engine, db_after, qs) = retraction_fixture(&cfg);
        let pre = engine.solution();
        let alien = Triple::new(db.num_nodes() as u32, 0, 0);
        assert_eq!(
            engine.retract_triples(&db_after, &soi, &cfg, &[alien]),
            Err(MaintainError::OutOfVocabulary { triple: alien })
        );
        assert_eq!(
            engine.insert_triples(&db, &soi, &cfg, &[Triple::new(0, db.num_labels() as u32, 0)]),
            Err(MaintainError::OutOfVocabulary {
                triple: Triple::new(0, db.num_labels() as u32, 0)
            })
        );
        // No epoch ever opened: the state is untouched — not even a
        // rollback was needed or counted.
        let post = engine.solution();
        assert_eq!(pre.chi, post.chi);
        assert_eq!(pre.stats, post.stats);
        assert_eq!(post.stats.rollbacks, 0);
        // …and the engine is still warm.
        engine.retract_triples(&db_after, &soi, &cfg, &qs).unwrap();
        assert_eq!(engine.solution().chi, solve(&db_after, &soi, &cfg).chi);
    }

    #[test]
    fn failpoint_aborts_restore_the_exact_pre_batch_state() {
        for point in ["counter-increment", "pre-drain", "mid-round"] {
            let cfg = delta_cfg(false);
            let (_db, soi, mut engine, db_after, qs) = retraction_fixture(&cfg);
            let pre = engine.solution();
            failpoints::disarm_all();
            failpoints::arm(point, 0);
            assert_eq!(
                engine.retract_triples(&db_after, &soi, &cfg, &qs),
                Err(MaintainError::Failpoint { point }),
                "{point} must be reached by a cascading retraction"
            );
            failpoints::disarm_all();
            let post = engine.solution();
            assert_eq!(pre.chi, post.chi, "χ bit-identical after {point} abort");
            assert_eq!(
                pre.stats.logical(),
                post.stats.logical(),
                "logical stats bit-identical after {point} abort"
            );
            assert_eq!(post.stats.rollbacks, 1);
            assert_eq!(post.stats.poisonings, 0, "a clean rollback never poisons");
            assert!(!engine.is_poisoned());
            // The rolled-back engine stays warm: the same batch applies
            // cleanly and matches a cold solve.
            engine.retract_triples(&db_after, &soi, &cfg, &qs).unwrap();
            assert_eq!(engine.solution().chi, solve(&db_after, &soi, &cfg).chi);
        }
    }

    #[test]
    fn insertion_failpoint_aborts_restore_the_pre_batch_state() {
        for point in ["counter-increment", "post-cull", "pre-drain"] {
            let cfg = delta_cfg(false);
            let db = sample_db();
            let q = parse("{ ?x p ?y . ?y q ?z }").unwrap();
            let soi = build_sois(&db, &q).remove(0);
            let all: Vec<Triple> = db.triples().collect();
            let (rest, last) = all.split_at(all.len() - 2);
            let db_before = db.with_triples(rest).unwrap();
            let mut engine = DeltaSolver::new(&db_before, &soi, &cfg);
            let pre = engine.solution();
            failpoints::disarm_all();
            failpoints::arm(point, 0);
            assert_eq!(
                engine.insert_triples(&db, &soi, &cfg, last),
                Err(MaintainError::Failpoint { point }),
                "{point} must be reached by an insertion batch"
            );
            failpoints::disarm_all();
            let post = engine.solution();
            assert_eq!(pre.chi, post.chi, "χ bit-identical after {point} abort");
            assert_eq!(pre.stats.logical(), post.stats.logical(), "{point}");
            assert_eq!(post.stats.rollbacks, 1);
            assert!(!engine.is_poisoned());
            assert!(engine.insert_triples(&db, &soi, &cfg, last).unwrap());
            assert_eq!(engine.solution().chi, solve(&db, &soi, &cfg).chi);
        }
    }

    #[test]
    fn budget_exhaustion_rolls_back_and_poisons() {
        let cfg = SolverConfig {
            drain_budget: Some(0),
            ..delta_cfg(false)
        };
        let (_db, soi, mut engine, db_after, qs) = retraction_fixture(&cfg);
        let pre = engine.solution();
        let err = engine
            .retract_triples(&db_after, &soi, &cfg, &qs)
            .unwrap_err();
        assert!(
            matches!(err, MaintainError::BudgetExceeded { budget: 0, spent } if spent > 0),
            "{err:?}"
        );
        // The rollback succeeded — the state is pristine — but the
        // batch is too expensive to maintain within budget, so the
        // engine degrades.
        let post = engine.solution();
        assert_eq!(pre.chi, post.chi);
        assert_eq!(pre.stats.logical(), post.stats.logical());
        assert_eq!(post.stats.rollbacks, 1);
        assert_eq!(post.stats.budget_aborts, 1);
        assert_eq!(post.stats.poisonings, 1);
        assert!(engine.is_poisoned());
        assert_eq!(
            engine.retract_triples(&db_after, &soi, &cfg, &qs),
            Err(MaintainError::Poisoned)
        );
        assert_eq!(
            engine.insert_triples(&db_after, &soi, &cfg, &qs),
            Err(MaintainError::Poisoned)
        );
    }

    #[test]
    fn failing_rollback_poisons_without_restoring() {
        let cfg = delta_cfg(false);
        let (_db, soi, mut engine, db_after, qs) = retraction_fixture(&cfg);
        failpoints::disarm_all();
        failpoints::arm("pre-drain", 0);
        failpoints::arm("rollback", 0);
        assert_eq!(
            engine.retract_triples(&db_after, &soi, &cfg, &qs),
            Err(MaintainError::Failpoint { point: "pre-drain" }),
            "the original cause propagates, not the rollback failure"
        );
        failpoints::disarm_all();
        let stats = engine.stats().clone();
        assert_eq!(stats.rollbacks, 0, "the rollback never completed");
        assert_eq!(stats.poisonings, 1);
        assert!(engine.is_poisoned());
    }

    #[test]
    fn journal_records_the_happy_path_without_logical_work() {
        let cfg = delta_cfg(false);
        let (_db, soi, mut engine, db_after, qs) = retraction_fixture(&cfg);
        let before = engine.stats().clone();
        assert_eq!(
            before.journal_entries, 0,
            "cold solves run outside any epoch"
        );
        engine.retract_triples(&db_after, &soi, &cfg, &qs).unwrap();
        let after = engine.solution();
        assert_eq!(after.chi, solve(&db_after, &soi, &cfg).chi);
        // Every undo record shadows a mutation the logical counters
        // already count: one per cleared χ bit, one per counter
        // decrement, one per lazy seed.
        let entries = after.stats.journal_entries;
        assert!(entries > 0, "the epoch was recorded");
        assert_eq!(
            entries,
            (after.stats.updates - before.updates)
                + (after.stats.counter_decrements - before.counter_decrements)
                + (after.stats.lazy_seeds - before.lazy_seeds)
        );
        assert_eq!(
            after.stats.logical(),
            SolveStats {
                journal_entries: 0,
                ..after.stats.clone()
            }
            .logical(),
            "the journal gauge is not logical work"
        );
    }

    /// Aborts a retraction at the `mid-round` failpoint, checks the
    /// bit-identical rollback, then applies the batch for real and
    /// returns the resulting logical stats.
    fn rollback_then_retract(cfg: &SolverConfig) -> SolveStats {
        let label = format!("({:?}, {:?})", cfg.chi_backend, cfg.slab_backend);
        let (_db, soi, mut engine, db_after, qs) = retraction_fixture(cfg);
        let pre = engine.solution();
        failpoints::disarm_all();
        failpoints::arm("mid-round", 0);
        assert_eq!(
            engine.retract_triples(&db_after, &soi, cfg, &qs),
            Err(MaintainError::Failpoint { point: "mid-round" }),
            "{label}"
        );
        failpoints::disarm_all();
        let post = engine.solution();
        assert_eq!(pre.chi, post.chi, "{label}");
        assert_eq!(pre.stats.logical(), post.stats.logical(), "{label}");
        assert_eq!(post.stats.rollbacks, 1, "{label}");
        assert!(!engine.is_poisoned(), "{label}");
        // The next batch applies as if the abort never happened.
        engine.retract_triples(&db_after, &soi, cfg, &qs).unwrap();
        assert_eq!(
            engine.solution().chi,
            solve(&db_after, &soi, cfg).chi,
            "{label}"
        );
        engine.solution().stats.logical()
    }

    #[test]
    fn rollback_is_invariant_across_backends_and_threads() {
        use crate::SlabBackend;
        // chi {dense,rle} × slab {dense,sparse}, each run on this thread
        // and on a second thread pinned to the scalar kernel (failpoints
        // and kernel overrides are both thread-local). Every combination
        // must abort back to its own bit-identical pre-batch snapshot,
        // and the logical outcome must also agree *across* the matrix.
        let mut logical_reference: Option<SolveStats> = None;
        for chi_backend in [ChiBackend::Dense, ChiBackend::Rle] {
            for slab_backend in [SlabBackend::Dense, SlabBackend::Sparse] {
                let cfg = SolverConfig {
                    chi_backend,
                    slab_backend,
                    ..delta_cfg(false)
                };
                let there = on_scalar_thread({
                    let cfg = cfg.clone();
                    move || rollback_then_retract(&cfg)
                });
                let here = rollback_then_retract(&cfg);
                for logical in [here, there.join().unwrap()] {
                    match &logical_reference {
                        None => logical_reference = Some(logical),
                        Some(reference) => {
                            assert_eq!(reference, &logical, "({chi_backend:?}, {slab_backend:?})")
                        }
                    }
                }
            }
        }
    }
}
