//! Benchmark command:
//!
//! ```text
//! e2ebench --workload <adhoc|churn|crash-recover> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Prints one detail line (seed, sample counts, deterministic counts,
//! failures) and, as the last line of standard output, the result object
//! `{"correct", "attempted", "failed", "metrics"}`: the end-to-end
//! metrics untraced, the per-layer metrics traced.

use dualsim_e2ebench::{run, Params, Report, Scale, END_TO_END, PER_LAYER};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::PathBuf;
use std::process::ExitCode;

const USAGE: &str =
    "usage: e2ebench --workload <adhoc|churn|crash-recover> --seed <n> --seconds <s> --trace <0|1>";

/// Fixes glibc's allocator thresholds before any allocation-heavy work:
/// the mmap threshold at 32 MiB (the dynamic threshold no longer moves)
/// and heap trimming off. Memory freed by one graph rebuild is then
/// reused by the next instead of being unmapped and faulted in again,
/// whose cost swings widely from run to run on a shared machine.
#[cfg(all(target_os = "linux", target_env = "gnu"))]
fn fix_allocator() {
    const M_TRIM_THRESHOLD: i32 = -1;
    const M_MMAP_THRESHOLD: i32 = -3;
    extern "C" {
        fn mallopt(param: i32, value: i32) -> i32;
    }
    // SAFETY: `mallopt` only sets allocator parameters; it is called
    // once, before this process starts any other thread, with
    // parameter/value pairs documented for glibc's malloc.
    unsafe {
        mallopt(M_MMAP_THRESHOLD, 32 << 20);
        mallopt(M_TRIM_THRESHOLD, i32::MAX);
    }
}

#[cfg(not(all(target_os = "linux", target_env = "gnu")))]
fn fix_allocator() {}

fn main() -> ExitCode {
    fix_allocator();
    let args: Vec<String> = std::env::args().skip(1).collect();
    let parsed = match parse_args(&args) {
        Ok(p) => p,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let (workload, params) = parsed;
    // Durable state from an earlier, interrupted run of this workload.
    let _ = std::fs::remove_dir_all(params.workdir.join(&workload));
    let Some(report) = run(&workload, &params) else {
        eprintln!("error: unknown workload {workload:?}\n{USAGE}");
        return ExitCode::from(2);
    };
    let _ = std::fs::remove_dir_all(params.workdir.join(&workload));
    println!("{}", detail_line(&workload, &params, &report));
    println!("{}", result_line(&params, &report));
    ExitCode::SUCCESS
}

fn parse_args(args: &[String]) -> Result<(String, Params), String> {
    let mut flags: BTreeMap<&str, &str> = BTreeMap::new();
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let name = flag
            .strip_prefix("--")
            .filter(|n| ["workload", "seed", "seconds", "trace"].contains(n))
            .ok_or_else(|| format!("unexpected argument {flag:?}"))?;
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        flags.insert(name, value);
    }
    let get = |k: &str| {
        flags
            .get(k)
            .copied()
            .ok_or_else(|| format!("--{k} is required"))
    };
    let workload = get("workload")?.to_string();
    let seed: u64 = get("seed")?.parse().map_err(|e| format!("--seed: {e}"))?;
    let seconds: f64 = get("seconds")?
        .parse()
        .map_err(|e| format!("--seconds: {e}"))?;
    if !(seconds.is_finite() && seconds >= 0.0) {
        return Err("--seconds must be a non-negative number".into());
    }
    let trace = match get("trace")? {
        "0" => false,
        "1" => true,
        v => return Err(format!("--trace must be 0 or 1, not {v:?}")),
    };
    Ok((
        workload,
        Params {
            seed,
            seconds,
            trace,
            scale: Scale::full(),
            workdir: PathBuf::from(".e2ebench-work"),
        },
    ))
}

fn number(v: f64) -> String {
    assert!(v.is_finite(), "metric value {v} is not finite");
    format!("{v}")
}

fn detail_line(workload: &str, p: &Params, r: &Report) -> String {
    let mut s = format!(
        "{{\"workload\": \"{workload}\", \"seed\": {}, \"trace\": {}, \"error_rate\": {}",
        p.seed,
        p.trace,
        number(r.failed as f64 / r.attempted.max(1) as f64)
    );
    let _ = write!(s, ", \"samples\": {{");
    for (i, (k, v)) in r.samples.iter().enumerate() {
        let _ = write!(s, "{}\"{k}\": {v}", if i > 0 { ", " } else { "" });
    }
    let _ = write!(s, "}}, \"counts\": {{");
    for (i, (k, v)) in r.counts.iter().enumerate() {
        let _ = write!(s, "{}\"{k}\": {v}", if i > 0 { ", " } else { "" });
    }
    let _ = write!(s, "}}, \"info\": {{");
    for (i, (k, v)) in r.info.iter().enumerate() {
        let _ = write!(
            s,
            "{}\"{k}\": {}",
            if i > 0 { ", " } else { "" },
            number(*v)
        );
    }
    let _ = write!(s, "}}, \"cycle_ops_per_s\": [");
    for (i, v) in r.cycle_rates.iter().enumerate() {
        let _ = write!(s, "{}{}", if i > 0 { ", " } else { "" }, number(*v));
    }
    let _ = write!(s, "], \"failures\": [");
    for (i, f) in r.failures.iter().enumerate() {
        let _ = write!(s, "{}{f:?}", if i > 0 { ", " } else { "" });
    }
    s.push_str("]}");
    s
}

fn result_line(p: &Params, r: &Report) -> String {
    let (names, values): (&[(&str, &str)], &BTreeMap<&str, f64>) = if p.trace {
        (&PER_LAYER, &r.layers)
    } else {
        (&END_TO_END, &r.e2e)
    };
    let mut s = format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        r.failed == 0,
        r.attempted,
        r.failed
    );
    for (i, (name, unit)) in names.iter().enumerate() {
        // A layer the workload does not exercise did no work: 0.
        let v = values.get(name).copied().unwrap_or(0.0);
        let _ = write!(
            s,
            "{}\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
            if i > 0 { ", " } else { "" },
            number(v)
        );
    }
    s.push_str("}}");
    s
}
