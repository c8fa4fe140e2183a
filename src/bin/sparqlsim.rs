//! `sparqlsim` — command-line dual simulation processing, mirroring the
//! paper's prototype of the same name.
//!
//! ```text
//! sparqlsim stats    --data DB.nt
//! sparqlsim solve    --data DB.nt (--query Q.rq | --query-text '…') [--strategy S] [--no-early-exit]
//! sparqlsim prune    --data DB.nt (--query Q.rq | --query-text '…') [--output PRUNED.nt]
//! sparqlsim eval     --data DB.nt (--query Q.rq | --query-text '…') [--engine nested|hash] [--limit N] [--pruned]
//! sparqlsim maintain --data DB.nt (--query Q.rq | --query-text '…') --updates U.txt [--fixpoint delta] [--wal DIR [--snapshot-every N]]
//! sparqlsim serve    --data DB.nt --queries DIR --updates U.txt [--wal DIR] [--on-error P]
//! sparqlsim (maintain|serve) --resume --wal DIR [--updates MORE.txt]
//! ```
//!
//! `solve` prints the largest dual simulation per query variable,
//! `prune` writes/reports the per-query pruning (Sect. 5.2), and `eval`
//! runs one of the reference engines, optionally on the pruned
//! database.
//!
//! `maintain` and `serve` run one resident session over one shared
//! database and a signed update stream (N-Triples lines prefixed
//! `+`/`-`; consecutive same-sign lines form a batch). `serve` registers
//! every `.rq` file under `--queries DIR` as a standing query; `maintain`
//! is the same session with one query, named `query`. Each batch is
//! validated and deduplicated once and fanned out to every query, and a
//! failure in one query degrades only that query (it keeps serving its
//! last committed match set, marked stale, and heals by deterministic
//! retry/backoff escalating to a cold rebuild). With `--wal DIR` every
//! query is durable under `DIR/query-<name>/branch-<i>/`, and a later
//! `--resume` run recovers the database, the queries and their warm
//! solutions from disk instead of `--data`/`--query`.

use dualsim::core::{
    prune, solve_query, ChiBackend, EvalStrategy, FixpointMode, HealPath, QueryOutcome,
    QueryRecovery, QuerySession, SessionDurability, SessionOptions, SlabBackend, Soi, Solution,
    SolverConfig,
};
use dualsim::engine::{Engine, HashJoinEngine, NestedLoopEngine};
use dualsim::graph::{parse_ntriples, write_ntriples, GraphDb};
use dualsim::query::{parse, Query};
use std::process::ExitCode;

/// Restores the default `SIGPIPE` disposition so `sparqlsim … | head`
/// terminates quietly instead of panicking on a closed stdout.
#[cfg(unix)]
fn restore_sigpipe() {
    extern "C" {
        fn signal(signum: i32, handler: usize) -> usize;
    }
    const SIGPIPE: i32 = 13;
    const SIG_DFL: usize = 0;
    unsafe {
        signal(SIGPIPE, SIG_DFL);
    }
}

#[cfg(not(unix))]
fn restore_sigpipe() {}

fn main() -> ExitCode {
    restore_sigpipe();
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("error: {msg}");
            eprintln!("{USAGE}");
            ExitCode::from(2)
        }
    }
}

const USAGE: &str = "\
usage: sparqlsim <command> --data FILE.nt [options]

commands:
  stats        print database statistics
  solve        compute the largest dual simulation for a query
  prune        prune the database for a query (Sect. 5.2)
  eval         evaluate a query with a reference engine
  maintain     maintain one query across a +/- update stream (a session
               with one standing query, named `query`)
  serve        maintain many standing queries across one shared stream
  fingerprint  build the simulation-quotient index (Sect. 6 extension)

options:
  --data FILE.nt        N-Triples database (required)
  --query FILE.rq       query file (SPARQL-S concrete syntax)
  --query-text 'Q'      query given inline
  --strategy S          rowwise | colwise | adaptive   (default adaptive)
  --fixpoint F          reeval | delta                 (default reeval)
  --chi-backend B       dense | rle | auto             (default dense)
                        χ storage: dense bit vectors, run-length encoded
                        ones, or a per-solve choice from the seeded
                        candidate density — identical solution and work
                        counts for every backend
  --slab-backend B      dense | sparse | auto          (default dense)
                        delta: support-counter storage — dense u32 arrays,
                        sparse hash counters, or a per-solve choice from
                        the same density bound the χ auto uses; identical
                        solution and logical work counts for every backend
  --no-early-exit       keep solving after a mandatory variable empties
  --updates FILE        maintain, serve: signed update stream — N-Triples
                        lines prefixed '+' (insert) or '-' (delete); terms
                        must come from the database's fixed vocabulary
  --on-error P          maintain, serve: skip | abort | rollback
                        (default abort) — skip: drop unparsable update
                        lines; a query that fails a batch serves its last
                        committed match set (stale) and heals by
                        retry/backoff. abort: stop with a non-zero exit
                        at the first bad line or failed query, after
                        reporting its batch. rollback: a query that fails
                        a batch is rolled back and quarantined, serving
                        its last committed match set without retries
  --wal DIR             maintain, serve: durable mode — every query logs
                        its committed batches to a checksummed
                        write-ahead log and keeps full-state snapshots
                        under DIR/query-<name>/branch-<i>/ (maintain's
                        one query is named `query`)
  --snapshot-every N    with --wal, also write a snapshot after every N
                        committed batches (default: only the initial
                        post-solve snapshot; N must be > 0)
  --keep-snapshots N    with --wal, retain only the newest N snapshots
                        per branch, pruning older ones after each
                        successful write (default 2 so recovery can fall
                        back across one corrupted newest; 0 keeps all)
  --queries DIR         serve: register every .rq file under DIR as a
                        standing query (named by file stem) over the
                        shared database
  --resume              maintain, serve: recover the database, the
                        queries and their solutions from --wal DIR
                        (newest snapshot whose checksum verifies, plus
                        the WAL tail; a torn final record is truncated)
                        instead of loading --data/--query/--queries, then
                        apply --updates (optional here) on top
  --drain-budget N      delta: cancel any maintenance drain that exceeds
                        N logical ops in one batch; the engine rolls the
                        batch back and the next update falls back to a
                        cold re-solve (default unlimited)
  --output FILE.nt      prune: write the pruned database as N-Triples
  --engine E            eval: nested | hash            (default nested)
  --limit N             eval: print at most N rows     (default 20)
  --pruned              eval: evaluate on the pruned database
  --exclude-labels L,M  fingerprint: predicates to leave out of the index";

/// What `maintain` and `serve` do when an update line fails to parse
/// or a query fails a batch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum OnError {
    /// Drop the bad line; the failed query degrades and heals by
    /// retry/backoff while the stream continues.
    Skip,
    /// Stop with a non-zero exit once the failure is reported (default).
    Abort,
    /// Quarantine the failed query at once: it keeps serving its
    /// rolled-back match set and is never retried automatically.
    Rollback,
}

/// Parsed command line.
struct Opts {
    command: String,
    data: Option<String>,
    query: Option<String>,
    query_text: Option<String>,
    strategy: EvalStrategy,
    fixpoint: FixpointMode,
    chi_backend: ChiBackend,
    slab_backend: SlabBackend,
    early_exit: bool,
    updates: Option<String>,
    wal: Option<String>,
    snapshot_every: Option<u64>,
    keep_snapshots: usize,
    queries_dir: Option<String>,
    resume: bool,
    on_error: OnError,
    drain_budget: Option<usize>,
    output: Option<String>,
    engine: String,
    limit: usize,
    pruned: bool,
    exclude_labels: Vec<String>,
}

fn parse_args(args: &[String]) -> Result<Opts, String> {
    let mut opts = Opts {
        command: args.first().cloned().ok_or("missing command")?,
        data: None,
        query: None,
        query_text: None,
        strategy: EvalStrategy::Adaptive,
        fixpoint: FixpointMode::Reevaluate,
        chi_backend: ChiBackend::Dense,
        slab_backend: SlabBackend::Dense,
        early_exit: true,
        updates: None,
        wal: None,
        snapshot_every: None,
        keep_snapshots: 2,
        queries_dir: None,
        resume: false,
        on_error: OnError::Abort,
        drain_budget: None,
        output: None,
        engine: "nested".to_owned(),
        limit: 20,
        pruned: false,
        exclude_labels: Vec::new(),
    };
    let mut it = args[1..].iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .cloned()
                .ok_or_else(|| format!("flag {flag} needs a value"))
        };
        match flag.as_str() {
            "--data" => opts.data = Some(value()?),
            "--updates" => opts.updates = Some(value()?),
            "--wal" => opts.wal = Some(value()?),
            "--snapshot-every" => {
                let n: u64 = value()?
                    .parse()
                    .map_err(|e| format!("--snapshot-every: {e}"))?;
                if n == 0 {
                    return Err("--snapshot-every must be at least 1".into());
                }
                opts.snapshot_every = Some(n);
            }
            "--keep-snapshots" => {
                opts.keep_snapshots = value()?
                    .parse()
                    .map_err(|e| format!("--keep-snapshots: {e}"))?;
            }
            "--queries" => opts.queries_dir = Some(value()?),
            "--resume" => opts.resume = true,
            "--on-error" => {
                opts.on_error = match value()?.as_str() {
                    "skip" => OnError::Skip,
                    "abort" => OnError::Abort,
                    "rollback" => OnError::Rollback,
                    other => return Err(format!("unknown on-error policy {other:?}")),
                };
            }
            "--drain-budget" => {
                opts.drain_budget = Some(
                    value()?
                        .parse()
                        .map_err(|e| format!("--drain-budget: {e}"))?,
                );
            }
            "--query" => opts.query = Some(value()?),
            "--query-text" => opts.query_text = Some(value()?),
            "--output" => opts.output = Some(value()?),
            "--engine" => opts.engine = value()?,
            "--limit" => {
                opts.limit = value()?.parse().map_err(|e| format!("--limit: {e}"))?;
            }
            "--strategy" => {
                opts.strategy = match value()?.as_str() {
                    "rowwise" => EvalStrategy::RowWise,
                    "colwise" => EvalStrategy::ColumnWise,
                    "adaptive" => EvalStrategy::Adaptive,
                    other => return Err(format!("unknown strategy {other:?}")),
                };
            }
            "--fixpoint" => {
                opts.fixpoint = match value()?.as_str() {
                    "reeval" | "reevaluate" => FixpointMode::Reevaluate,
                    "delta" => FixpointMode::DeltaCounting,
                    other => return Err(format!("unknown fixpoint engine {other:?}")),
                };
            }
            "--chi-backend" => {
                let name = value()?;
                opts.chi_backend = ChiBackend::from_name(&name)
                    .ok_or_else(|| format!("unknown chi backend {name:?}"))?;
            }
            "--slab-backend" => {
                let name = value()?;
                opts.slab_backend = SlabBackend::from_name(&name)
                    .ok_or_else(|| format!("unknown slab backend {name:?}"))?;
            }
            "--no-early-exit" => opts.early_exit = false,
            "--pruned" => opts.pruned = true,
            "--exclude-labels" => {
                opts.exclude_labels = value()?
                    .split(',')
                    .map(|s| s.trim().to_owned())
                    .filter(|s| !s.is_empty())
                    .collect();
            }
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    Ok(opts)
}

fn run(args: &[String]) -> Result<(), String> {
    let opts = parse_args(args)?;
    if opts.resume {
        // The database, the queries and their solutions all come from
        // the durability directory — no --data/--query cold load.
        return cmd_resume(&opts);
    }
    if opts.snapshot_every.is_some() && opts.wal.is_none() {
        return Err("--snapshot-every requires --wal DIR".into());
    }
    let data_path = opts.data.as_deref().ok_or("--data is required")?;
    let text =
        std::fs::read_to_string(data_path).map_err(|e| format!("reading {data_path}: {e}"))?;
    let db = parse_ntriples(&text).map_err(|e| e.to_string())?;

    match opts.command.as_str() {
        "stats" => cmd_stats(&db),
        "solve" => cmd_solve(&db, &load_query(&opts)?, &config(&opts)),
        "prune" => cmd_prune(
            &db,
            &load_query(&opts)?,
            &config(&opts),
            opts.output.as_deref(),
        ),
        "eval" => cmd_eval(&db, &load_query(&opts)?, &opts),
        "maintain" => cmd_maintain(db, &opts),
        "serve" => cmd_serve(db, &opts),
        "fingerprint" => cmd_fingerprint(&db, &opts),
        other => Err(format!("unknown command {other:?}")),
    }
}

/// One update batch: the sign (`true` = insert) and its triples.
type UpdateBatch = (bool, Vec<dualsim::graph::Triple>);

/// Parses one signed update line (`+`/`-` sign, three IRI terms, `.`).
fn parse_update_line(
    line: &str,
    line_no: usize,
    db: &GraphDb,
) -> Result<(bool, dualsim::graph::Triple), String> {
    use dualsim::graph::Triple;
    let (insert, mut rest) = if let Some(r) = line.strip_prefix('+') {
        (true, r)
    } else if let Some(r) = line.strip_prefix('-') {
        (false, r)
    } else {
        return Err(format!(
            "updates line {line_no}: expected a '+' or '-' sign before the triple"
        ));
    };
    let mut term = |what: &str| -> Result<String, String> {
        let t = rest
            .trim_start()
            .strip_prefix('<')
            .ok_or_else(|| format!("updates line {line_no}: expected '<' opening the {what}"))?;
        let end = t
            .find('>')
            .ok_or_else(|| format!("updates line {line_no}: unterminated {what}"))?;
        rest = &t[end + 1..];
        Ok(t[..end].to_owned())
    };
    let (s, p, o) = (term("subject")?, term("predicate")?, term("object")?);
    if rest.trim() != "." {
        return Err(format!("updates line {line_no}: expected terminating '.'"));
    }
    let node = |name: &str| {
        db.node_id(name).ok_or_else(|| {
            format!(
                "updates line {line_no}: node <{name}> is outside the database's \
                 vocabulary (fixed at load time)"
            )
        })
    };
    let label = db.label_id(&p).ok_or_else(|| {
        format!(
            "updates line {line_no}: predicate <{p}> is outside the database's \
             vocabulary (fixed at load time)"
        )
    })?;
    Ok((insert, Triple::new(node(&s)?, label, node(&o)?)))
}

/// Parses a signed update stream: N-Triples lines (IRI terms only)
/// prefixed `+` or `-`; consecutive lines with the same sign form one
/// batch. Every term must resolve in `db`'s fixed vocabulary.
///
/// With `skip_bad_lines` each unparsable line is collected (with its
/// 1-based line number) instead of failing the whole stream; otherwise
/// the first bad line aborts parsing. The returned `Vec<String>` holds
/// the reports for the skipped lines, in stream order.
fn parse_update_batches(
    text: &str,
    db: &GraphDb,
    skip_bad_lines: bool,
) -> Result<(Vec<UpdateBatch>, Vec<String>), String> {
    let mut batches: Vec<UpdateBatch> = Vec::new();
    let mut skipped: Vec<String> = Vec::new();
    for (idx, raw) in text.lines().enumerate() {
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let (insert, t) = match parse_update_line(line, idx + 1, db) {
            Ok(parsed) => parsed,
            Err(msg) if skip_bad_lines => {
                skipped.push(msg);
                continue;
            }
            Err(msg) => return Err(msg),
        };
        match batches.last_mut() {
            Some((sign, batch)) if *sign == insert => batch.push(t),
            _ => batches.push((insert, vec![t])),
        }
    }
    Ok((batches, skipped))
}

/// Reads `--updates` and parses it against `db`'s vocabulary; under
/// `--on-error skip` unparsable lines are reported and dropped.
fn read_updates(path: &str, db: &GraphDb, on_error: OnError) -> Result<Vec<UpdateBatch>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
    let (batches, bad_lines) = parse_update_batches(&text, db, on_error == OnError::Skip)?;
    for msg in &bad_lines {
        eprintln!("warning: {msg} — line skipped");
    }
    Ok(batches)
}

/// The session policy both maintenance commands run under: `rollback`
/// quarantines a failed query at once (it keeps serving its rolled-back
/// match set, never retried automatically), `skip` and `abort` use the
/// degrade/retry ladder, and `--wal DIR` makes every query durable
/// under `DIR/query-<name>/branch-<i>/`.
fn session_options(opts: &Opts) -> SessionOptions {
    SessionOptions {
        auto_heal: opts.on_error != OnError::Rollback,
        durability: opts.wal.as_deref().map(|wal| SessionDurability {
            snapshot_every: opts.snapshot_every,
            keep_snapshots: opts.keep_snapshots,
            ..SessionDurability::new(wal)
        }),
        ..SessionOptions::default()
    }
}

/// `maintain`: a session with one standing query, named `query`. Under
/// `--fixpoint delta` insertions ride the counter-driven re-activation
/// frontier and deletions the support countdown, so no batch triggers a
/// cold re-solve; under the default re-evaluation engine insertions
/// fall back to a cold solve — the per-batch `warm`/`cold` tag shows
/// which.
fn cmd_maintain(db: GraphDb, opts: &Opts) -> Result<(), String> {
    let text = query_source_text(opts)?;
    cmd_session(db, vec![("query".to_owned(), text)], opts)
}

/// `serve`: every `.rq` file under `--queries DIR` becomes a standing
/// query named by its file stem.
fn cmd_serve(db: GraphDb, opts: &Opts) -> Result<(), String> {
    let dir = opts
        .queries_dir
        .as_deref()
        .ok_or("serve requires --queries DIR")?;
    let mut files: Vec<std::path::PathBuf> = std::fs::read_dir(dir)
        .map_err(|e| format!("reading {dir}: {e}"))?
        .filter_map(|entry| entry.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|x| x == "rq"))
        .collect();
    files.sort();
    if files.is_empty() {
        return Err(format!("no .rq query files under {dir}"));
    }
    let queries = files
        .iter()
        .map(|path| {
            let name = path
                .file_stem()
                .map(|s| s.to_string_lossy().into_owned())
                .unwrap_or_default();
            let text = std::fs::read_to_string(path)
                .map_err(|e| format!("reading {}: {e}", path.display()))?;
            Ok((name, text))
        })
        .collect::<Result<Vec<_>, String>>()?;
    cmd_session(db, queries, opts)
}

/// Registers `(name, text)` standing queries in a new session over `db`
/// and runs the `--updates` stream through it.
fn cmd_session(db: GraphDb, queries: Vec<(String, String)>, opts: &Opts) -> Result<(), String> {
    let path = opts.updates.as_deref().ok_or("--updates is required")?;
    let batches = read_updates(path, &db, opts.on_error)?;
    let cfg = config(opts);
    let started = std::time::Instant::now();
    let mut session = QuerySession::new(db, session_options(opts));
    for (name, text) in &queries {
        let branches = session
            .register(name, text, cfg.clone())
            .map_err(|e| e.to_string())?;
        println!(
            "registered `{name}` ({branches} union branch(es), {} candidate(s))",
            session.candidates(name).map_err(|e| e.to_string())?
        );
    }
    println!(
        "session of {} quer(ies) solved in {:?}{}",
        session.len(),
        started.elapsed(),
        if opts.wal.is_some() { ", durable" } else { "" }
    );
    stream_and_report(&mut session, &batches, opts.on_error)
}

/// `maintain --resume` / `serve --resume`: recovers the session under
/// `--wal DIR` — the database, every query's text and its warm
/// solution — then applies the optional `--updates` stream on top.
fn cmd_resume(opts: &Opts) -> Result<(), String> {
    if opts.command != "maintain" && opts.command != "serve" {
        return Err("--resume only applies to the maintain and serve commands".into());
    }
    if opts.wal.is_none() {
        return Err("--resume requires --wal DIR".into());
    }
    if opts.data.is_some()
        || opts.query.is_some()
        || opts.query_text.is_some()
        || opts.queries_dir.is_some()
    {
        return Err(
            "--resume restores the database and the queries from the snapshots; \
             drop --data/--query/--query-text/--queries"
                .into(),
        );
    }
    let rec = QuerySession::recover(session_options(opts)).map_err(|e| e.to_string())?;
    for (name, report) in &rec.reports {
        match report {
            QueryRecovery::Recovered {
                records_replayed,
                snapshots_skipped,
            } => println!(
                "recovered `{name}`: {records_replayed} WAL record(s) replayed, \
                 {snapshots_skipped} corrupt snapshot(s) skipped"
            ),
            QueryRecovery::Stale => {
                println!("recovered `{name}` behind the session graph: serving stale");
            }
            QueryRecovery::Quarantined { detail } => {
                eprintln!("warning: `{name}` quarantined on recovery: {detail}");
            }
        }
    }
    let mut session = rec.session;
    let batches = match opts.updates.as_deref() {
        Some(path) => read_updates(path, session.db(), opts.on_error)?,
        None => Vec::new(),
    };
    stream_and_report(&mut session, &batches, opts.on_error)
}

/// The one maintenance loop of the CLI: each batch is validated once
/// and fanned out to every registered query, its per-query outcome is
/// reported, and a final summary prints each query's health,
/// per-variable candidates and maintenance work. Under
/// `--on-error abort` a failed query ends the run with an error once
/// its batch is reported.
fn stream_and_report(
    session: &mut QuerySession,
    batches: &[UpdateBatch],
    on_error: OnError,
) -> Result<(), String> {
    for (i, (insert, batch)) in batches.iter().enumerate() {
        let started = std::time::Instant::now();
        let report = session
            .apply_batch(*insert, batch)
            .map_err(|e| format!("update batch {}: {e}", i + 1))?;
        println!(
            "batch {}: {}{} triple(s) applied ({} duplicate(s), {} no-op(s) dropped) in {:?}",
            i + 1,
            if *insert { "+" } else { "-" },
            report.applied,
            report.deduped,
            report.noops,
            started.elapsed()
        );
        let mut failure = None;
        for (name, outcome) in &report.outcomes {
            match outcome {
                QueryOutcome::Committed {
                    gained,
                    dropped,
                    warm,
                } => println!(
                    "  `{name}`: committed, +{gained}/-{dropped} candidate(s), {}",
                    if *warm { "warm maintenance" } else { "cold re-solve" }
                ),
                QueryOutcome::Healed {
                    via,
                    gained,
                    dropped,
                } => println!(
                    "  `{name}`: healed by {}, +{gained}/-{dropped} candidate(s) vs stale set",
                    match via {
                        HealPath::Replay => "backlog replay",
                        HealPath::Rebuild => "cold rebuild",
                    }
                ),
                QueryOutcome::Failed { error, health } => {
                    eprintln!("warning: `{name}` failed batch {}: {error} — now {health}", i + 1);
                    failure
                        .get_or_insert(format!("update batch {}: `{name}` failed: {error}", i + 1));
                }
                QueryOutcome::Stale { health } => {
                    println!("  `{name}`: serving stale — {health}");
                }
            }
        }
        if let Some(msg) = failure.filter(|_| on_error == OnError::Abort) {
            return Err(msg);
        }
    }

    let db = session.db();
    for name in session.query_names() {
        let err = |e: dualsim::core::SessionError| e.to_string();
        println!("— query `{name}`: {} —", session.health(name).map_err(err)?);
        // A query quarantined on recovery may have no text left to show.
        let Ok(query) = parse(session.query_text(name).map_err(err)?) else {
            continue;
        };
        let sois = session.sois(name).map_err(err)?;
        let solutions = session.solutions(name).map_err(err)?;
        let stats = session.maintenance_stats(name).map_err(err)?;
        for (b, ((soi, solution), s)) in sois.iter().zip(&solutions).zip(stats).enumerate() {
            if solutions.len() > 1 {
                println!("  — union branch {b} —");
            }
            print_candidates(db, &query, soi, solution, "  ");
            println!(
                "  maintenance: counter_increments={} reactivations={} counter_decrements={} \
                 delta_removals={} ops={} rollbacks={} budget_aborts={}",
                s.counter_increments,
                s.reactivations,
                s.counter_decrements,
                s.delta_removals,
                s.work_ops(),
                s.rollbacks,
                s.budget_aborts
            );
        }
    }
    let s = session.stats();
    println!(
        "session: {} batch(es), {} triple(s) validated once, {} duplicate(s) + {} no-op(s) \
         dropped, {} fan-out application(s)",
        s.batches, s.triples_validated, s.duplicates_dropped, s.noops_dropped,
        s.fanout_applications
    );
    println!(
        "healing: {} failure(s), {} replay heal(s), {} rebuild heal(s), {} failed retr(ies), \
         {} quarantine(s)",
        s.failures, s.replay_heals, s.rebuild_heals, s.failed_retries, s.quarantines
    );
    Ok(())
}

/// Prints each query variable's candidate count and its first five
/// candidates.
fn print_candidates(db: &GraphDb, query: &Query, soi: &Soi, solution: &Solution, indent: &str) {
    for var in query.vars() {
        let chi = solution.var_solution(soi, var);
        let count = chi.count_ones();
        let preview: Vec<&str> = chi
            .iter_ones()
            .take(5)
            .map(|n| db.node_name(n as u32))
            .collect();
        let ellipsis = if count > 5 { ", …" } else { "" };
        println!("{indent}?{var}: {count} candidates [{}{ellipsis}]", preview.join(", "));
    }
}

fn cmd_fingerprint(db: &GraphDb, opts: &Opts) -> Result<(), String> {
    use dualsim::core::QuotientIndex;
    let labels: Vec<u32> = (0..db.num_labels() as u32)
        .filter(|&l| !opts.exclude_labels.iter().any(|x| x == db.label_name(l)))
        .collect();
    let started = std::time::Instant::now();
    let index = QuotientIndex::build_for_labels(db, &labels);
    println!(
        "fingerprint over {} of {} predicates:",
        labels.len(),
        db.num_labels()
    );
    println!(
        "  {} blocks for {} nodes ({:.2}x compression)",
        index.num_blocks(),
        db.num_nodes(),
        index.node_compression()
    );
    println!(
        "  quotient: {} triples (original {})",
        index.quotient().num_triples(),
        db.num_triples()
    );
    println!(
        "  {} refinement rounds in {:?}",
        index.rounds,
        started.elapsed()
    );
    Ok(())
}

fn config(opts: &Opts) -> SolverConfig {
    SolverConfig {
        strategy: opts.strategy,
        fixpoint: opts.fixpoint,
        chi_backend: opts.chi_backend,
        slab_backend: opts.slab_backend,
        early_exit: opts.early_exit,
        drain_budget: opts.drain_budget,
        ..SolverConfig::default()
    }
}

/// The query's concrete text, from `--query FILE` or `--query-text`.
fn query_source_text(opts: &Opts) -> Result<String, String> {
    match (&opts.query, &opts.query_text) {
        (Some(path), None) => {
            std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))
        }
        (None, Some(text)) => Ok(text.clone()),
        _ => Err("exactly one of --query / --query-text is required".into()),
    }
}

fn load_query(opts: &Opts) -> Result<Query, String> {
    parse(&query_source_text(opts)?).map_err(|e| e.to_string())
}

fn cmd_stats(db: &GraphDb) -> Result<(), String> {
    println!("nodes     : {}", db.num_nodes());
    println!("triples   : {}", db.num_triples());
    println!("predicates: {}", db.num_labels());
    println!(
        "matrices  : {:.1} KiB (forward + backward adjacency)",
        db.memory_footprint() as f64 / 1024.0
    );
    let mut labels: Vec<(usize, String)> = (0..db.num_labels() as u32)
        .map(|l| (db.num_label_triples(l), db.label_name(l).to_owned()))
        .collect();
    labels.sort_by_key(|&(count, _)| std::cmp::Reverse(count));
    println!("top predicates:");
    for (count, name) in labels.into_iter().take(10) {
        println!("  {count:>9}  {name}");
    }
    Ok(())
}

fn cmd_solve(db: &GraphDb, query: &Query, cfg: &SolverConfig) -> Result<(), String> {
    let started = std::time::Instant::now();
    let branches = solve_query(db, query, cfg);
    let elapsed = started.elapsed();
    for (i, (soi, solution)) in branches.iter().enumerate() {
        if branches.len() > 1 {
            println!("— union branch {i} —");
        }
        print_candidates(db, query, soi, solution, "");
        let s = &solution.stats;
        println!(
            "iterations={} updates={} rowwise={} colwise={} empty={}",
            s.iterations, s.updates, s.rowwise, s.colwise, s.emptied_mandatory
        );
        println!(
            "work: rows_ored={} bits_probed={} counter_inits={} counter_decrements={} \
             delta_removals={} ops={}",
            s.rows_ored,
            s.bits_probed,
            s.counter_inits,
            s.counter_decrements,
            s.delta_removals,
            s.work_ops()
        );
        // The backend-dependent gauges, on their own line: the work
        // counters above are bit-identical across χ/slab backends, but
        // peak storage and the drain's row-pointer loads legitimately
        // differ per backend.
        println!(
            "storage: chi_peak_words={} slab_peak_words={} row_lookups={}",
            s.chi_peak_words, s.slab_peak_words, s.row_lookups
        );
    }
    println!("solved in {elapsed:?}");
    Ok(())
}

fn cmd_prune(
    db: &GraphDb,
    query: &Query,
    cfg: &SolverConfig,
    output: Option<&str>,
) -> Result<(), String> {
    let report = prune(db, query, cfg);
    println!(
        "kept {} of {} triples ({:.2}% pruned) in {:?} ({} iterations)",
        report.num_kept(),
        db.num_triples(),
        100.0 * report.prune_ratio(db),
        report.total_time(),
        report.iterations()
    );
    if let Some(path) = output {
        let pruned = report.pruned_db(db);
        std::fs::write(path, write_ntriples(&pruned))
            .map_err(|e| format!("writing {path}: {e}"))?;
        println!("pruned database written to {path}");
    }
    Ok(())
}

fn cmd_eval(db: &GraphDb, query: &Query, opts: &Opts) -> Result<(), String> {
    let engine: Box<dyn Engine> = match opts.engine.as_str() {
        "nested" => Box::new(NestedLoopEngine),
        "hash" => Box::new(HashJoinEngine),
        other => return Err(format!("unknown engine {other:?}")),
    };
    let cfg = config(opts);
    let target;
    let db = if opts.pruned {
        let report = prune(db, query, &cfg);
        println!(
            "pruning kept {} of {} triples in {:?}",
            report.num_kept(),
            db.num_triples(),
            report.total_time()
        );
        target = report.pruned_db(db);
        &target
    } else {
        db
    };
    let started = std::time::Instant::now();
    let results = engine.evaluate(db, query);
    println!(
        "{} matches in {:?} ({} engine)",
        results.len(),
        started.elapsed(),
        engine.name()
    );
    for row in results.to_named_rows(db).into_iter().take(opts.limit) {
        let rendered: Vec<String> = row.iter().map(|(v, n)| format!("?{v}={n}")).collect();
        println!("  {}", rendered.join("  "));
    }
    if results.len() > opts.limit {
        println!("  … ({} more rows)", results.len() - opts.limit);
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// Pieces the no-panic fuzz strings are assembled from: term
    /// delimiters, quotes, escapes, `@`/`^^` annotations, update signs,
    /// query syntax, multi-byte chars, and a filler that puts the next
    /// piece across the 12-byte cut of the N-Triples error excerpt.
    #[rustfmt::skip]
    const FUZZ_PIECES: &[&str] = &[
        "<", ">", "\"", "\\", "\\n", "\\u00e9", "\\\"", "@", "@en", "@en-GB", "^^", "^^<x>",
        " ", "\t", "\n", ".", "+", "-", "#", "_:", "é", "中", "𝕏", "'", "a", "p", "<a>", "<p>",
        "<b>", "\"lit\"", "?x", "?y", "{", "}", "OPTIONAL", "UNION", "AND", "0123456789a",
    ];

    proptest! {
        /// No malformed input reaches a panic: the N-Triples parser, the
        /// query parser and the update-line parser each return a typed
        /// error (or `Ok`) on random strings over [`FUZZ_PIECES`]. A
        /// failing case prints the input, which replays it directly.
        #[test]
        fn no_malformed_input_panics_a_parser(
            picks in proptest::collection::vec(0usize..FUZZ_PIECES.len(), 0..24),
        ) {
            let text: String = picks.iter().map(|&i| FUZZ_PIECES[i]).collect();
            let db = parse_ntriples("<a> <p> <b> .\n").unwrap();
            let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                let _ = parse_ntriples(&text);
                let _ = parse(&text);
                let _ = parse_update_line(&text, 1, &db);
            }));
            prop_assert!(outcome.is_ok(), "a parser panicked on {:?}", text);
        }
    }

    #[test]
    fn parse_args_reads_flags() {
        let args: Vec<String> = [
            "prune",
            "--data",
            "db.nt",
            "--query-text",
            "{ ?a p ?b }",
            "--strategy",
            "rowwise",
            "--fixpoint",
            "delta",
            "--chi-backend",
            "rle",
            "--slab-backend",
            "sparse",
            "--no-early-exit",
            "--limit",
            "7",
        ]
        .iter()
        .map(|s| s.to_string())
        .collect();
        let opts = parse_args(&args).unwrap();
        assert_eq!(opts.command, "prune");
        assert_eq!(opts.data.as_deref(), Some("db.nt"));
        assert_eq!(opts.strategy, EvalStrategy::RowWise);
        assert_eq!(opts.fixpoint, FixpointMode::DeltaCounting);
        assert_eq!(opts.chi_backend, ChiBackend::Rle);
        assert_eq!(opts.slab_backend, SlabBackend::Sparse);
        assert!(!opts.early_exit);
        assert_eq!(opts.limit, 7);
    }

    #[test]
    fn parse_args_accepts_every_slab_backend_and_rejects_bad_values() {
        for (name, expected) in [
            ("dense", SlabBackend::Dense),
            ("sparse", SlabBackend::Sparse),
            ("auto", SlabBackend::Auto),
        ] {
            let args: Vec<String> = ["solve", "--slab-backend", name]
                .iter()
                .map(|s| s.to_string())
                .collect();
            assert_eq!(parse_args(&args).unwrap().slab_backend, expected);
        }
        for bad in [
            &["solve", "--slab-backend", "rle"][..],
            &["solve", "--slab-backend"][..],
        ] {
            let args: Vec<String> = bad.iter().map(|s| s.to_string()).collect();
            assert!(parse_args(&args).is_err(), "{bad:?}");
        }
    }

    #[test]
    fn parse_args_accepts_every_chi_backend_and_rejects_unknown_ones() {
        for (name, expected) in [
            ("dense", ChiBackend::Dense),
            ("rle", ChiBackend::Rle),
            ("auto", ChiBackend::Auto),
        ] {
            let args: Vec<String> = ["solve", "--chi-backend", name]
                .iter()
                .map(|s| s.to_string())
                .collect();
            assert_eq!(parse_args(&args).unwrap().chi_backend, expected);
        }
        let args: Vec<String> = ["solve", "--chi-backend", "sparse"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        assert!(parse_args(&args).is_err());
    }

    #[test]
    fn parse_args_reads_serve_flags() {
        let args: Vec<String> = [
            "serve",
            "--data",
            "db.nt",
            "--queries",
            "queries/",
            "--updates",
            "u.txt",
            "--wal",
            "wal/",
            "--keep-snapshots",
            "5",
            "--on-error",
            "rollback",
        ]
        .iter()
        .map(|s| s.to_string())
        .collect();
        let opts = parse_args(&args).unwrap();
        assert_eq!(opts.command, "serve");
        assert_eq!(opts.queries_dir.as_deref(), Some("queries/"));
        assert_eq!(opts.updates.as_deref(), Some("u.txt"));
        assert_eq!(opts.wal.as_deref(), Some("wal/"));
        assert_eq!(opts.keep_snapshots, 5);
        assert_eq!(opts.on_error, OnError::Rollback);
    }

    #[test]
    fn parse_args_defaults_snapshot_retention_to_two() {
        let args: Vec<String> = ["maintain"].iter().map(|s| s.to_string()).collect();
        let opts = parse_args(&args).unwrap();
        assert_eq!(opts.keep_snapshots, 2);
        assert!(opts.queries_dir.is_none());
    }

    #[test]
    fn parse_args_rejects_bad_snapshot_retention() {
        let args: Vec<String> = ["serve", "--keep-snapshots", "many"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        assert!(parse_args(&args).is_err());
    }

    #[test]
    fn parse_args_rejects_zero_fixpoint_threads() {
        let args: Vec<String> = ["solve", "--fixpoint-threads", "0"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        assert!(parse_args(&args).is_err());
    }

    #[test]
    fn parse_args_rejects_unknown_fixpoint_engine() {
        let args: Vec<String> = ["solve", "--fixpoint", "magic"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        assert!(parse_args(&args).is_err());
    }

    #[test]
    fn parse_args_rejects_unknown_flags() {
        let args: Vec<String> = ["solve", "--nope"].iter().map(|s| s.to_string()).collect();
        assert!(parse_args(&args).is_err());
    }

    #[test]
    fn update_streams_parse_into_signed_batches() {
        use dualsim::graph::parse_ntriples;
        let db = parse_ntriples("<a> <p> <b> .\n<b> <p> <c> .\n").unwrap();
        let (batches, skipped) = parse_update_batches(
            "# churn\n- <a> <p> <b> .\n- <b> <p> <c> .\n+ <a> <p> <b> .\n",
            &db,
            false,
        )
        .unwrap();
        assert!(skipped.is_empty());
        let shape: Vec<(bool, usize)> = batches.iter().map(|(s, b)| (*s, b.len())).collect();
        assert_eq!(shape, vec![(false, 2), (true, 1)]);

        let unsigned = parse_update_batches("<a> <p> <b> .\n", &db, false).unwrap_err();
        assert!(unsigned.contains("'+' or '-'"), "{unsigned}");
        let foreign = parse_update_batches("+ <zz> <p> <b> .\n", &db, false).unwrap_err();
        assert!(foreign.contains("outside the database's"), "{foreign}");
        let unterminated = parse_update_batches("+ <a> <p> <b>\n", &db, false).unwrap_err();
        assert!(unterminated.contains("terminating '.'"), "{unterminated}");
    }

    #[test]
    fn skipping_bad_update_lines_keeps_the_rest_and_reports_line_numbers() {
        use dualsim::graph::parse_ntriples;
        let db = parse_ntriples("<a> <p> <b> .\n<b> <p> <c> .\n").unwrap();
        // Line 2 is unsigned, line 4 mentions a foreign node; both are
        // skipped, the surviving lines still group into signed batches.
        let (batches, skipped) = parse_update_batches(
            "- <a> <p> <b> .\n<b> <p> <c> .\n- <b> <p> <c> .\n+ <zz> <p> <b> .\n+ <a> <p> <b> .\n",
            &db,
            true,
        )
        .unwrap();
        let shape: Vec<(bool, usize)> = batches.iter().map(|(s, b)| (*s, b.len())).collect();
        assert_eq!(shape, vec![(false, 2), (true, 1)]);
        assert_eq!(skipped.len(), 2);
        assert!(skipped[0].contains("line 2"), "{}", skipped[0]);
        assert!(skipped[1].contains("line 4"), "{}", skipped[1]);
    }

    #[test]
    fn parse_args_reads_the_robustness_flags() {
        let args: Vec<String> = [
            "maintain",
            "--on-error",
            "rollback",
            "--drain-budget",
            "5000",
        ]
        .iter()
        .map(|s| s.to_string())
        .collect();
        let opts = parse_args(&args).unwrap();
        assert_eq!(opts.on_error, OnError::Rollback);
        assert_eq!(opts.drain_budget, Some(5000));

        for (name, expected) in [("skip", OnError::Skip), ("abort", OnError::Abort)] {
            let args: Vec<String> = ["maintain", "--on-error", name]
                .iter()
                .map(|s| s.to_string())
                .collect();
            assert_eq!(parse_args(&args).unwrap().on_error, expected);
        }
        let bad: Vec<String> = ["maintain", "--on-error", "retry"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        assert!(parse_args(&bad).is_err());
    }

    #[test]
    fn parse_args_reads_the_durability_flags() {
        let args: Vec<String> = [
            "maintain",
            "--wal",
            "state.d",
            "--snapshot-every",
            "16",
            "--resume",
        ]
        .iter()
        .map(|s| s.to_string())
        .collect();
        let opts = parse_args(&args).unwrap();
        assert_eq!(opts.wal.as_deref(), Some("state.d"));
        assert_eq!(opts.snapshot_every, Some(16));
        assert!(opts.resume);

        let defaults = parse_args(&["maintain".to_string()]).unwrap();
        assert_eq!(defaults.wal, None);
        assert_eq!(defaults.snapshot_every, None);
        assert!(!defaults.resume);

        for bad in [
            &["maintain", "--snapshot-every", "0"][..],
            &["maintain", "--snapshot-every", "soon"][..],
            &["maintain", "--wal"][..],
        ] {
            let args: Vec<String> = bad.iter().map(|s| s.to_string()).collect();
            assert!(parse_args(&args).is_err(), "{bad:?}");
        }
    }

    #[test]
    fn resume_is_rejected_outside_maintain_and_needs_a_wal_dir() {
        let solve: Vec<String> = ["solve", "--resume", "--wal", "d"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        assert!(run(&solve).unwrap_err().contains("maintain"));
        for command in ["maintain", "serve"] {
            let no_wal: Vec<String> = [command, "--resume"]
                .iter()
                .map(|s| s.to_string())
                .collect();
            assert!(run(&no_wal).unwrap_err().contains("--wal"), "{command}");
        }
        let with_data: Vec<String> = ["maintain", "--resume", "--wal", "d", "--data", "x.nt"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        assert!(run(&with_data).unwrap_err().contains("snapshot"));
        let snap_only: Vec<String> = ["maintain", "--snapshot-every", "4", "--data", "x.nt"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        assert!(run(&snap_only).unwrap_err().contains("--wal"));
    }

    /// `--on-error abort` fails the run once a query fails a batch;
    /// `skip` keeps streaming, and the degraded query heals by replay
    /// on the next batch.
    #[test]
    fn a_failed_query_aborts_the_stream_only_under_abort() {
        use dualsim::core::failpoints;
        let db = parse_ntriples("<a> <p> <b> .\n<b> <q> <c> .\n").unwrap();
        let (batches, _) =
            parse_update_batches("- <b> <q> <c> .\n+ <b> <q> <c> .\n", &db, false).unwrap();
        for on_error in [OnError::Abort, OnError::Skip] {
            let mut session = QuerySession::new(db.clone(), SessionOptions::default());
            session
                .register("query", "{ ?x p ?y . ?y q ?z }", SolverConfig::default())
                .unwrap();
            failpoints::arm("session-fanout", 0);
            let result = stream_and_report(&mut session, &batches, on_error);
            failpoints::disarm_all();
            let s = session.stats();
            if on_error == OnError::Abort {
                assert!(result.unwrap_err().contains("update batch 1"));
                assert_eq!((s.batches, s.failures), (1, 1));
            } else {
                result.unwrap();
                assert_eq!((s.batches, s.failures, s.replay_heals), (2, 1, 1));
                assert!(session.health("query").unwrap().is_healthy());
            }
        }
    }

    #[test]
    fn parse_args_reads_the_updates_flag() {
        let args: Vec<String> = ["maintain", "--data", "db.nt", "--updates", "u.txt"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        let opts = parse_args(&args).unwrap();
        assert_eq!(opts.command, "maintain");
        assert_eq!(opts.updates.as_deref(), Some("u.txt"));
    }

    #[test]
    fn query_source_must_be_unambiguous() {
        let both: Vec<String> = ["solve", "--data", "x", "--query", "a", "--query-text", "b"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        let opts = parse_args(&both).unwrap();
        assert!(load_query(&opts).is_err());
    }
}
