//! End-to-end tests of the `sparqlsim` command-line tool: the binary is
//! driven exactly as a user would, over a temporary N-Triples file.

use std::path::PathBuf;
use std::process::{Command, Output};

fn movie_nt() -> &'static str {
    "<B. De Palma> <directed> <Mission: Impossible> .\n\
     <B. De Palma> <worked_with> <D. Koepp> .\n\
     <G. Hamilton> <directed> <Goldfinger> .\n\
     <G. Hamilton> <worked_with> <H. Saltzman> .\n\
     <T. Young> <directed> <Thunderball> .\n\
     <Saint John> <population> \"70063\" .\n"
}

fn write_db(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("dualsim-cli-tests");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join(name);
    std::fs::write(&path, movie_nt()).unwrap();
    path
}

fn sparqlsim(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_sparqlsim"))
        .args(args)
        .output()
        .expect("binary runs")
}

#[test]
fn stats_reports_database_shape() {
    let db = write_db("stats.nt");
    let out = sparqlsim(&["stats", "--data", db.to_str().unwrap()]);
    assert!(out.status.success());
    let text = String::from_utf8(out.stdout).unwrap();
    assert!(text.contains("triples   : 6"), "{text}");
    assert!(text.contains("predicates: 3"), "{text}");
    assert!(text.contains("directed"), "{text}");
}

#[test]
fn solve_prints_candidates_per_variable() {
    let db = write_db("solve.nt");
    let out = sparqlsim(&[
        "solve",
        "--data",
        db.to_str().unwrap(),
        "--query-text",
        "{ ?d directed ?m . ?d worked_with ?c }",
    ]);
    assert!(out.status.success());
    let text = String::from_utf8(out.stdout).unwrap();
    assert!(text.contains("?d: 2 candidates"), "{text}");
    assert!(text.contains("B. De Palma"), "{text}");
    assert!(!text.contains("T. Young"), "no worked_with edge: {text}");
}

#[test]
fn solve_with_delta_fixpoint_agrees_and_reports_counters() {
    let db = write_db("solve_delta.nt");
    let query = "{ ?d directed ?m . ?d worked_with ?c }";
    let reev = sparqlsim(&["solve", "--data", db.to_str().unwrap(), "--query-text", query]);
    let delta = sparqlsim(&[
        "solve",
        "--data",
        db.to_str().unwrap(),
        "--query-text",
        query,
        "--fixpoint",
        "delta",
    ]);
    assert!(reev.status.success() && delta.status.success());
    let reev = String::from_utf8(reev.stdout).unwrap();
    let delta = String::from_utf8(delta.stdout).unwrap();
    // Identical candidates from both engines.
    for text in [&reev, &delta] {
        assert!(text.contains("?d: 2 candidates"), "{text}");
    }
    // The delta engine reports counter work instead of row ORs.
    assert!(delta.contains("counter_inits="), "{delta}");
    assert!(!delta.contains("counter_inits=0"), "{delta}");
    assert!(reev.contains("counter_inits=0"), "{reev}");
}

#[test]
fn chi_backends_report_identical_candidates_and_work() {
    let db = write_db("solve_chi_backend.nt");
    let query = "{ ?d directed ?m . ?d worked_with ?c }";
    let mut reports = Vec::new();
    for backend in ["dense", "rle", "auto"] {
        for fixpoint in ["reeval", "delta"] {
            let out = sparqlsim(&[
                "solve",
                "--data",
                db.to_str().unwrap(),
                "--query-text",
                query,
                "--fixpoint",
                fixpoint,
                "--chi-backend",
                backend,
            ]);
            assert!(out.status.success(), "{backend}/{fixpoint}");
            let text = String::from_utf8(out.stdout).unwrap();
            assert!(text.contains("?d: 2 candidates"), "{backend}: {text}");
            // Candidate and work-counter lines must be bit-identical
            // across χ backends (per engine) — storage is invisible to
            // the logical outcome.
            let stable: Vec<&str> = text
                .lines()
                .filter(|l| l.contains("candidates") || l.contains("work:"))
                .collect();
            reports.push((fixpoint, stable.join("\n")));
        }
    }
    for (fixpoint, report) in &reports[2..] {
        let reference = reports
            .iter()
            .find(|(f, _)| f == fixpoint)
            .expect("dense reference");
        assert_eq!(report, &reference.1, "{fixpoint}");
    }
}

#[test]
fn slab_backends_report_identical_candidates_and_work() {
    let db = write_db("solve_slab_backend.nt");
    let query = "{ ?d directed ?m . ?d worked_with ?c }";
    let mut reports = Vec::new();
    for slab in ["dense", "sparse", "auto"] {
        let out = sparqlsim(&[
            "solve",
            "--data",
            db.to_str().unwrap(),
            "--query-text",
            query,
            "--fixpoint",
            "delta",
            "--slab-backend",
            slab,
        ]);
        assert!(out.status.success(), "{slab}");
        let text = String::from_utf8(out.stdout).unwrap();
        assert!(text.contains("?d: 2 candidates"), "{slab}: {text}");
        assert!(text.contains("slab_peak_words="), "{slab}: {text}");
        // Candidate and work-counter lines must be bit-identical across
        // slab backends; only the storage gauge line may differ.
        let stable: Vec<&str> = text
            .lines()
            .filter(|l| l.contains("candidates") || l.contains("work:"))
            .collect();
        reports.push(stable.join("\n"));
    }
    for report in &reports[1..] {
        assert_eq!(report, &reports[0]);
    }
}

#[test]
fn prune_writes_a_loadable_pruned_database() {
    let db = write_db("prune.nt");
    let out_path = std::env::temp_dir().join("dualsim-cli-tests/pruned.nt");
    let out = sparqlsim(&[
        "prune",
        "--data",
        db.to_str().unwrap(),
        "--query-text",
        "{ ?d directed ?m . ?d worked_with ?c }",
        "--output",
        out_path.to_str().unwrap(),
    ]);
    assert!(out.status.success());
    let text = String::from_utf8(out.stdout).unwrap();
    assert!(text.contains("kept 4 of 6 triples"), "{text}");
    let pruned_text = std::fs::read_to_string(&out_path).unwrap();
    let pruned = dualsim::graph::parse_ntriples(&pruned_text).unwrap();
    assert_eq!(pruned.num_triples(), 4);
}

#[test]
fn eval_prints_matches_with_and_without_pruning() {
    let db = write_db("eval.nt");
    for extra in [&[][..], &["--pruned"][..]] {
        let mut args = vec![
            "eval",
            "--data",
            db.to_str().unwrap(),
            "--query-text",
            "{ ?d directed ?m . ?d worked_with ?c }",
            "--engine",
            "hash",
        ];
        args.extend_from_slice(extra);
        let out = sparqlsim(&args);
        assert!(out.status.success());
        let text = String::from_utf8(out.stdout).unwrap();
        assert!(text.contains("2 matches"), "{text}");
        assert!(text.contains("?d=B. De Palma"), "{text}");
    }
}

#[test]
fn rowwise_and_colwise_strategies_agree() {
    let db = write_db("strategies.nt");
    let mut outputs = Vec::new();
    for strategy in ["rowwise", "colwise"] {
        let out = sparqlsim(&[
            "solve",
            "--data",
            db.to_str().unwrap(),
            "--query-text",
            "{ ?d directed ?m }",
            "--strategy",
            strategy,
        ]);
        assert!(out.status.success());
        let text = String::from_utf8(out.stdout).unwrap();
        let counts: Vec<&str> = text.lines().filter(|l| l.contains("candidates")).collect();
        outputs.push(counts.join("\n"));
    }
    assert_eq!(outputs[0], outputs[1]);
}

#[test]
fn fingerprint_reports_compression() {
    let db = write_db("fingerprint.nt");
    let out = sparqlsim(&[
        "fingerprint",
        "--data",
        db.to_str().unwrap(),
        "--exclude-labels",
        "population",
    ]);
    assert!(out.status.success());
    let text = String::from_utf8(out.stdout).unwrap();
    assert!(
        text.contains("fingerprint over 2 of 3 predicates"),
        "{text}"
    );
    assert!(text.contains("blocks"), "{text}");
}

#[test]
fn durable_maintain_resumes_from_the_wal_directory() {
    let db = write_db("maintain_durable.nt");
    let dir = std::env::temp_dir().join("dualsim-cli-tests/maintain-durable");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let wal = dir.join("state.d");
    let first = dir.join("first.txt");
    let second = dir.join("second.txt");
    std::fs::write(&first, "- <T. Young> <directed> <Thunderball> .\n").unwrap();
    std::fs::write(
        &second,
        "- <G. Hamilton> <worked_with> <H. Saltzman> .\n+ <G. Hamilton> <worked_with> <H. Saltzman> .\n",
    )
    .unwrap();
    let query = "{ ?d directed ?m . ?d worked_with ?c }";

    // Leg 1: cold durable start, one deletion batch committed to the WAL.
    let out = sparqlsim(&[
        "maintain",
        "--data",
        db.to_str().unwrap(),
        "--query-text",
        query,
        "--fixpoint",
        "delta",
        "--updates",
        first.to_str().unwrap(),
        "--wal",
        wal.to_str().unwrap(),
        "--snapshot-every",
        "8",
    ]);
    let text = String::from_utf8(out.stdout.clone()).unwrap();
    assert!(out.status.success(), "{text}{}", String::from_utf8_lossy(&out.stderr));
    assert!(text.contains("durable"), "{text}");
    assert!(text.contains("?d: 2 candidates"), "{text}");
    assert!(wal.join("branch-0/wal.log").is_file());

    // Leg 2: a fresh process resumes from disk — no --data/--query —
    // and applies the remaining stream on top of the recovered state.
    let out = sparqlsim(&[
        "maintain",
        "--resume",
        "--wal",
        wal.to_str().unwrap(),
        "--updates",
        second.to_str().unwrap(),
    ]);
    let text = String::from_utf8(out.stdout.clone()).unwrap();
    assert!(out.status.success(), "{text}{}", String::from_utf8_lossy(&out.stderr));
    assert!(
        text.contains("branch 0: recovered at epoch 1 (snapshot epoch 0, 1 WAL record(s) replayed)"),
        "{text}"
    );
    assert!(text.contains("?d: 2 candidates"), "{text}");
    assert!(text.contains("B. De Palma"), "{text}");

    // Leg 3: resuming with no further updates just reprints the
    // recovered solution, now from epoch 3.
    let out = sparqlsim(&["maintain", "--resume", "--wal", wal.to_str().unwrap()]);
    let text = String::from_utf8(out.stdout.clone()).unwrap();
    assert!(out.status.success(), "{text}{}", String::from_utf8_lossy(&out.stderr));
    assert!(text.contains("recovered at epoch 3"), "{text}");
    assert!(text.contains("?d: 2 candidates"), "{text}");
}

#[test]
fn unknown_flags_fail_with_usage() {
    let out = sparqlsim(&["solve", "--bogus"]);
    assert!(!out.status.success());
    let text = String::from_utf8(out.stderr).unwrap();
    assert!(text.contains("usage"), "{text}");
}

#[test]
fn removed_solver_knob_flags_exit_2_with_usage() {
    let db = write_db("removed_flags.nt");
    let query = "{ ?d directed ?m }";
    for flags in [
        &["--fixpoint-threads", "4"][..],
        &["--seed-threads", "4"][..],
        &["--kernel-backend", "simd"][..],
        &["--no-journal"][..],
    ] {
        let mut args = vec![
            "solve",
            "--data",
            db.to_str().unwrap(),
            "--query-text",
            query,
        ];
        args.extend_from_slice(flags);
        let out = sparqlsim(&args);
        assert_eq!(out.status.code(), Some(2), "{flags:?}");
        let text = String::from_utf8(out.stderr).unwrap();
        assert!(
            text.contains("unknown flag") && text.contains("usage"),
            "{flags:?}: {text}"
        );
    }
}

#[test]
fn missing_data_file_is_reported() {
    let out = sparqlsim(&["stats", "--data", "/nonexistent/definitely-not-here.nt"]);
    assert!(!out.status.success());
    let text = String::from_utf8(out.stderr).unwrap();
    assert!(text.contains("reading"), "{text}");
}
