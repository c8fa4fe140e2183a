//! The benchmark's own checks, on tiny inputs: deterministic counts
//! repeat exactly for the same seed (traced or not), every correctness
//! check passes, and the churn trace accounts for a whole batch.

use dualsim_e2ebench::{run, Params, Report, Scale};
use std::path::PathBuf;

fn params(workload: &str, seed: u64, trace: bool) -> Params {
    Params {
        seed,
        // Zero seconds: the warm-up cycle, which the counts cover, and
        // one measured cycle.
        seconds: 0.0,
        trace,
        scale: Scale::tiny(),
        workdir: PathBuf::from(env!("CARGO_TARGET_TMPDIR"))
            .join(format!("{workload}-{seed}-{trace}")),
    }
}

fn run_ok(workload: &str, seed: u64, trace: bool) -> Report {
    let report = run(workload, &params(workload, seed, trace)).expect("known workload");
    assert_eq!(report.failed, 0, "{workload}: {:?}", report.failures);
    assert!(report.attempted > 0);
    report
}

fn counts_repeat(workload: &str) {
    let a = run_ok(workload, 5, false);
    let b = run_ok(workload, 5, true);
    assert!(!a.counts.is_empty());
    assert_eq!(
        a.counts, b.counts,
        "{workload}: counts differ between two runs of seed 5"
    );
    let c = run_ok(workload, 6, false);
    assert_ne!(
        a.counts, c.counts,
        "{workload}: the seed does not reach the inputs"
    );
}

#[test]
fn adhoc_counts_repeat_for_the_same_seed() {
    counts_repeat("adhoc");
}

#[test]
fn churn_counts_repeat_for_the_same_seed() {
    counts_repeat("churn");
}

#[test]
fn crash_recover_counts_repeat_for_the_same_seed() {
    counts_repeat("crash-recover");
}

#[test]
fn churn_layers_account_for_the_batch() {
    let r = run_ok("churn", 5, true);
    let l = &r.layers;
    let parts = l["graph.with_triples_ms"] + l["incremental.apply_ms"] + l["session.self_ms"];
    let whole = l["session.apply_batch_ms"];
    assert!(whole > 0.0);
    assert!(
        (parts - whole).abs() <= 1e-9 * whole.max(1.0),
        "{parts} vs {whole}"
    );
}

#[test]
fn unknown_workload_is_refused() {
    assert!(run("nope", &params("nope", 1, false)).is_none());
}
