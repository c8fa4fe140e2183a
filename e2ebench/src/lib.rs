//! End-to-end, layer-attributed benchmark of the dualsim library.
//!
//! Three closed-loop, single-client, single-thread workloads (see
//! `README.md` in this directory for why each was chosen):
//!
//! * [`adhoc`] — the paper's 32 queries, each run through
//!   `parse → prune → pruned_db → NestedLoopEngine::evaluate`;
//! * [`churn`] — an in-memory `QuerySession` with 8 standing queries
//!   under delete/re-insert batches, each followed by an ad-hoc read;
//! * [`crash`] — a durable `QuerySession` that is dropped and recovered
//!   every fixed number of batches.
//!
//! Every workload checks its outputs outside the timed spans and counts
//! mismatches as failed operations instead of panicking.

pub mod adhoc;
pub mod churn;
pub mod crash;
pub mod trace;

use dualsim_datagen::workloads::{lubm_queries, BenchQuery};
use dualsim_graph::{GraphDb, Triple};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// End-to-end metrics every workload reports, with their units. The
/// same names carry each workload's own operations:
///
/// | metric | adhoc | churn | crash-recover |
/// |---|---|---|---|
/// | `op_p50_ms`, `op_p90_ms` | query | `apply_batch` | durable `apply_batch` |
/// | `ops_per_s` | queries | batches | batches, over batch + recovery time |
/// | `side_p50_ms` | prune (parse → kept triples) | read (prunes of L0–L5) | `recover` |
pub const END_TO_END: [(&str, &str); 6] = [
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("op_p50_ms", "ms"),
    ("op_p90_ms", "ms"),
    ("ops_per_s", "1/s"),
    ("side_p50_ms", "ms"),
];

/// Per-layer metrics of the traced run, with their units. A layer a
/// workload does not exercise reports 0.
pub const PER_LAYER: [(&str, &str); 27] = [
    ("datagen.generate_s", "s"),
    ("query.parse_us", "us"),
    ("soi.build_us", "us"),
    ("solver.solve_ms", "ms"),
    ("solver.work_ops", "count"),
    ("solver.iterations", "count"),
    ("pruning.extract_ms", "ms"),
    ("pruning.kept_ratio", "ratio"),
    ("pruning.precision", "ratio"),
    ("graph.with_triples_ms", "ms"),
    ("graph.triples", "count"),
    ("graph.batch_share", "ratio"),
    ("engine.evaluate_ms", "ms"),
    ("engine.rows", "count"),
    ("incremental.apply_ms", "ms"),
    ("incremental.work_ops", "count"),
    ("session.apply_batch_ms", "ms"),
    ("session.self_ms", "ms"),
    ("session.triples_validated", "count"),
    ("session.fanout_applications", "count"),
    ("durability.wal_ms", "ms"),
    ("durability.snapshot_ms", "ms"),
    ("durability.wal_bytes_per_batch", "bytes"),
    ("durability.snapshot_bytes", "bytes"),
    ("durability.recover_branch_ms", "ms"),
    ("durability.disk_bytes_per_triple", "bytes"),
    ("tracing.overhead_ms", "ms"),
];

/// Input sizes and cadences of the workloads.
#[derive(Debug, Clone)]
pub struct Scale {
    /// LUBM universities for `adhoc` and `churn` (LUBM-200: 600k triples).
    pub lubm_large: usize,
    /// LUBM universities for `crash-recover` (LUBM-15: 44k triples).
    pub lubm_small: usize,
    /// DBpedia-shaped entities for `adhoc`.
    pub dbpedia_entities: usize,
    /// Triples per update batch.
    pub batch_triples: usize,
    /// Distinct delete/re-insert chunks in the update script.
    pub chunks: usize,
    /// Automatic snapshot cadence of the durable session, in batches;
    /// also the number of batches between two crashes.
    pub snapshot_every: u64,
    /// Durable stores `crash-recover` serves round-robin.
    pub stores: usize,
    /// Set-up repetitions whose median is `setup_s`.
    pub setup_reps: usize,
}

impl Scale {
    /// The sizes the benchmark command runs.
    pub fn full() -> Self {
        Scale {
            lubm_large: 200,
            lubm_small: 15,
            dbpedia_entities: 20_000,
            batch_triples: 50,
            chunks: 16,
            snapshot_every: 8,
            stores: 8,
            setup_reps: 5,
        }
    }

    /// Small sizes for the benchmark's own tests.
    pub fn tiny() -> Self {
        Scale {
            lubm_large: 2,
            lubm_small: 1,
            dbpedia_entities: 500,
            batch_triples: 10,
            chunks: 3,
            snapshot_every: 4,
            stores: 2,
            setup_reps: 1,
        }
    }
}

/// One benchmark invocation.
#[derive(Debug, Clone)]
pub struct Params {
    /// Workload seed: drives every generator seed and the batch sampling.
    pub seed: u64,
    /// Measuring time; whole cycles run until it has passed (at least one).
    pub seconds: f64,
    /// Record spans and report per-layer metrics.
    pub trace: bool,
    /// Input sizes.
    pub scale: Scale,
    /// Scratch directory for durable state and the span dump.
    pub workdir: PathBuf,
}

/// What one workload run measured.
#[derive(Debug, Default)]
pub struct Report {
    /// Operations attempted (timed operations plus correctness checks).
    pub attempted: u64,
    /// Operations whose output was wrong or that returned an error.
    pub failed: u64,
    /// The first few failure descriptions.
    pub failures: Vec<String>,
    /// End-to-end metrics ([`END_TO_END`]).
    pub e2e: BTreeMap<&'static str, f64>,
    /// Sample count behind each timing.
    pub samples: BTreeMap<&'static str, usize>,
    /// Deterministic counts over the first cycle: equal for equal seeds.
    pub counts: BTreeMap<&'static str, u64>,
    /// Per-layer metrics ([`PER_LAYER`]); empty unless traced.
    pub layers: BTreeMap<&'static str, f64>,
    /// Further figures printed beside the metrics.
    pub info: BTreeMap<&'static str, f64>,
    /// Ops per second of op time in each measured cycle, in order.
    pub cycle_rates: Vec<f64>,
}

impl Report {
    /// Records the outcome of one checked operation.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.failures.len() < 8 {
                self.failures.push(what());
            }
        }
    }
}

/// Derives the seed of one input generator from the workload seed.
pub fn sub_seed(seed: u64, stream: u64) -> u64 {
    SplitMix(seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F)).next_u64()
}

/// SplitMix64: a tiny, well-mixed deterministic generator.
pub struct SplitMix(pub u64);

impl SplitMix {
    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// The delete/re-insert update script: `chunks` disjoint batches of
/// `batch` distinct triples sampled from `db`, each deleted and then
/// inserted back, so one pass leaves the graph as it found it.
pub fn update_script(
    db: &GraphDb,
    seed: u64,
    chunks: usize,
    batch: usize,
) -> Vec<(bool, Vec<Triple>)> {
    let mut all: Vec<Triple> = db.triples().collect();
    all.sort_unstable();
    let want = (chunks * batch).min(all.len());
    let mut rng = SplitMix(seed);
    // Partial Fisher-Yates: the first `want` slots become the sample.
    for i in 0..want {
        let j = i + rng.below(all.len() - i);
        all.swap(i, j);
    }
    all[..want]
        .chunks(batch.max(1))
        .flat_map(|c| [(false, c.to_vec()), (true, c.to_vec())])
        .collect()
}

/// The 8 standing queries of the session workloads: the LUBM queries
/// L0–L5 cycled, each under its own registry name.
pub fn standing_queries() -> Vec<(String, BenchQuery)> {
    let lubm = lubm_queries();
    (0..8)
        .map(|i| {
            let q = lubm[i % lubm.len()].clone();
            (format!("q{i:02}-{}", q.id), q)
        })
        .collect()
}

/// Percentile `p` (0–100) of `xs` by linear interpolation between
/// closest ranks.
pub fn percentile(xs: &[f64], p: f64) -> f64 {
    assert!(!xs.is_empty(), "percentile of no samples");
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = p / 100.0 * (v.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (rank - lo as f64)
}

/// Milliseconds of a duration.
pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Runs `reps` set-ups and returns the last one's result with the
/// median set-up time.
pub fn timed_setup<T>(reps: usize, mut setup: impl FnMut() -> T) -> (T, f64) {
    let mut times = Vec::new();
    let mut last = None;
    for _ in 0..reps.max(1) {
        // Drop the previous set-up first so repetitions do not stack up
        // in memory.
        drop(last.take());
        let t0 = Instant::now();
        let out = setup();
        times.push(t0.elapsed().as_secs_f64());
        last = Some(out);
    }
    let out = last.expect("at least one set-up repetition");
    (out, percentile(&times, 50.0))
}

/// Peak resident set size of this process, in MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The measuring loop's clock. Cycle 0 warms up caches and the
/// allocator and is checked and counted but not timed; measured cycles
/// then run whole until `seconds` have passed, at least one.
#[derive(Debug)]
pub struct Cycles {
    seconds: f64,
    start: Instant,
    index: usize,
    ops: usize,
    op_time: f64,
    total_ops: usize,
    total_time: f64,
    rates: Vec<f64>,
}

impl Cycles {
    /// A clock measuring for `seconds` after the warm-up cycle.
    pub fn new(seconds: f64) -> Self {
        Cycles {
            seconds,
            start: Instant::now(),
            index: 0,
            ops: 0,
            op_time: 0.0,
            total_ops: 0,
            total_time: 0.0,
            rates: Vec::new(),
        }
    }

    /// The current cycle; 0 is the warm-up.
    pub fn index(&self) -> usize {
        self.index
    }

    /// Whether the current cycle's ops are timed.
    pub fn measuring(&self) -> bool {
        self.index > 0
    }

    /// Adds one op's latency to the current cycle's throughput.
    pub fn record(&mut self, latency: Duration) {
        if self.measuring() {
            self.ops += 1;
            self.op_time += latency.as_secs_f64();
        }
    }

    /// Adds time the current cycle spent on other work than its ops
    /// (`crash-recover` counts its recoveries against its batches).
    pub fn record_other(&mut self, elapsed: Duration) {
        if self.measuring() {
            self.op_time += elapsed.as_secs_f64();
        }
    }

    /// Ends the current cycle; returns whether another one runs.
    pub fn end_cycle(&mut self) -> bool {
        if self.measuring() {
            self.rates.push(self.ops as f64 / self.op_time);
            self.total_ops += self.ops;
            self.total_time += self.op_time;
        } else {
            self.start = Instant::now();
        }
        self.ops = 0;
        self.op_time = 0.0;
        self.index += 1;
        self.index == 1 || self.start.elapsed().as_secs_f64() < self.seconds
    }

    /// Wall time of the measured cycles.
    pub fn measured(&self) -> Duration {
        self.start.elapsed()
    }

    /// Ops per second of op time over all measured cycles.
    pub fn rate(&self) -> f64 {
        self.total_ops as f64 / self.total_time
    }

    /// Ops per second of op time in each measured cycle.
    pub fn rates(&self) -> &[f64] {
        &self.rates
    }
}

/// Whether `i`, the index of an op within cycle `cycle`, is traced. The
/// traced run alternates traced and untraced ops, flipping the parity
/// every cycle so both halves see every op of the cycle.
pub fn traced_op(trace: bool, cycle: usize, i: usize) -> bool {
    trace && (cycle + i).is_multiple_of(2)
}

/// Per-layer bookkeeping shared by the workloads: latencies of traced
/// and untraced ops (the difference of their medians is the tracing
/// overhead) and the traced-op count per-layer means divide by.
#[derive(Debug, Default)]
pub struct TraceSplit {
    /// Latencies (ms) of traced ops.
    pub traced: Vec<f64>,
    /// Latencies (ms) of untraced ops.
    pub untraced: Vec<f64>,
}

impl TraceSplit {
    /// Files one op latency under its half.
    pub fn push(&mut self, traced: bool, latency_ms: f64) {
        if traced {
            self.traced.push(latency_ms);
        } else {
            self.untraced.push(latency_ms);
        }
    }

    /// Median traced minus median untraced latency, in ms.
    pub fn overhead_ms(&self) -> f64 {
        if self.traced.is_empty() || self.untraced.is_empty() {
            return 0.0;
        }
        percentile(&self.traced, 50.0) - percentile(&self.untraced, 50.0)
    }
}

/// Mean per op of one span name's total (or self) time, in `unit_scale`
/// units per second (1e3 for ms, 1e6 for µs).
pub fn per_op(
    by: &BTreeMap<&'static str, trace::SpanTotals>,
    name: &str,
    own: bool,
    ops: usize,
    unit_scale: f64,
) -> f64 {
    let Some(t) = by.get(name) else {
        return 0.0;
    };
    let secs = if own { t.self_s } else { t.total_s };
    secs * unit_scale / ops.max(1) as f64
}

/// Runs the named workload.
pub fn run(workload: &str, p: &Params) -> Option<Report> {
    match workload {
        "adhoc" => Some(adhoc::run(p)),
        "churn" => Some(churn::run(p)),
        "crash-recover" => Some(crash::run(p)),
        _ => None,
    }
}

/// Writes the recorded spans to `<workdir>/spans-<workload>-<seed>.jsonl`
/// once the run has ended.
pub fn dump_spans(tracer: &trace::Tracer, p: &Params, workload: &str, report: &mut Report) {
    let path = p.workdir.join(format!("spans-{workload}-{}.jsonl", p.seed));
    let written = std::fs::create_dir_all(&p.workdir).and_then(|()| tracer.write_jsonl(&path));
    report.check(written.is_ok(), || {
        format!("span dump to {} failed", path.display())
    });
    report.info.insert("spans", tracer.spans().len() as f64);
}
