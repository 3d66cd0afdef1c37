//! Cross-commit perf regression gate over the `BENCH_*.json` artifacts.
//!
//! ```text
//! dns-perfdb ingest --db target/perfdb.jsonl --commit $SHA BENCH_*.json
//! dns-perfdb check  --db target/perfdb.jsonl --report PERFDB_report.json
//! dns-perfdb report --db target/perfdb.jsonl
//! ```
//!
//! `check` exits 1 when the newest commit regresses any directional
//! metric past its tolerance against the rolling-median baseline
//! (window: 5 prior commits); see [`dns_scaling::perfdb`] and
//! BENCHMARKS.md for the policy.

use std::path::PathBuf;

use dns_core::flags::{on, parsed, put, Command, Flag};
use dns_scaling::perfdb::{self, ingest_bench_file, PerfDb, DEFAULT_WINDOW};

struct Opts {
    cmd: String,
    db: PathBuf,
    commit: Option<String>,
    window: usize,
    report: PathBuf,
    files: Vec<PathBuf>,
    check: bool,
}

#[rustfmt::skip] // a table: one row per flag, not one line per field
const FLAGS: &[Flag<Opts>] = &[
    Flag("COMMAND", "[BENCH.json ...]",
        "ingest, check or report; the words after it are ingest's artifacts",
        |o, v| {
            match o.cmd.is_empty() {
                true => o.cmd = v.into(),
                false => o.files.push(v.into()),
            }
            Ok(())
        }),
    Flag("--db", "FILE", "store path (default target/perfdb.jsonl)",
        |o, v| put(&mut o.db, v)),
    Flag("--commit", "SHA", "commit key (ingest: required; check: default newest)",
        |o, v| parsed(v).map(|sha| o.commit = Some(sha))),
    Flag("--window", "N", "rolling baseline width in prior commits (default 5)",
        |o, v| put(&mut o.window, v)),
    Flag("--report", "FILE", "where to write the JSON report (default PERFDB_report.json)",
        |o, v| put(&mut o.report, v)),
    Flag("--check", "", "with report: exit nonzero on a regression, as check does",
        |o, _| on(&mut o.check)),
];

const COMMAND: Command<Opts> = Command {
    name: "dns-perfdb",
    about: "\
append-only cross-commit perf store over BENCH_*.json

usage:
  dns-perfdb ingest --commit SHA [--db FILE] BENCH.json [BENCH.json ...]
  dns-perfdb check  [--db FILE] [--commit SHA] [--window N] [--report FILE]
  dns-perfdb report [--db FILE] [--commit SHA] [--window N] [--report FILE]

`check` is `report` plus a nonzero exit when any metric regressed.

flags:
",
    flags: FLAGS,
    spec: None,
};

fn finish(o: Opts) -> Result<Opts, String> {
    match (o.cmd.as_str(), o.files.first()) {
        ("", _) => Err("missing command: ingest, check or report".into()),
        ("ingest", _) if o.commit.is_none() => Err("ingest requires --commit".into()),
        ("ingest", None) => Err("ingest requires at least one BENCH_*.json".into()),
        ("check" | "report", Some(f)) => Err(format!("unexpected argument {}", f.display())),
        ("ingest" | "check" | "report", _) => Ok(o),
        (other, _) => Err(format!("unknown command {other}")),
    }
}

fn main() {
    let opts = Opts {
        cmd: String::new(),
        db: PathBuf::from("target/perfdb.jsonl"),
        commit: None,
        window: DEFAULT_WINDOW,
        report: PathBuf::from("PERFDB_report.json"),
        files: Vec::new(),
        check: false,
    };
    let opts = COMMAND.parse(opts, finish);
    match opts.cmd.as_str() {
        "ingest" => ingest(opts),
        _ => {
            let force = opts.check || opts.cmd == "check";
            gate(opts, force)
        }
    }
}

fn ingest(opts: Opts) {
    let commit = opts.commit.expect("finish requires --commit for ingest");
    let mut db = PerfDb::load(&opts.db).unwrap_or_else(die);
    for f in &opts.files {
        let rec = ingest_bench_file(&commit, f).unwrap_or_else(die);
        println!(
            "dns-perfdb: {} @ {commit}: {} metrics from {}",
            rec.bench,
            rec.metrics.len(),
            f.display()
        );
        db.append(rec).unwrap_or_else(die);
    }
    println!(
        "dns-perfdb: store {} now holds {} records over {} commits",
        opts.db.display(),
        db.records().len(),
        db.commits().len()
    );
}

fn gate(opts: Opts, fail_on_regression: bool) {
    let db = PerfDb::load(&opts.db).unwrap_or_else(die);
    let Some(rep) = perfdb::check(&db, opts.commit.as_deref(), opts.window) else {
        eprintln!(
            "dns-perfdb: nothing to check in {} (empty store or unknown commit)",
            opts.db.display()
        );
        std::process::exit(if fail_on_regression { 1 } else { 0 });
    };
    let text = perfdb::report_json(&rep, opts.window);
    std::fs::write(&opts.report, &text).unwrap_or_else(die);
    println!(
        "dns-perfdb: {} vs median of {} prior commit(s): {} metrics checked, {} regression(s) -> {}",
        rep.commit,
        rep.baseline_commits.len(),
        rep.deltas.len(),
        rep.regressions.len(),
        opts.report.display()
    );
    for d in &rep.regressions {
        println!(
            "  REGRESSION {}: {} vs baseline {} ({:+.1}%, tolerance {:.0}%)",
            d.metric,
            d.value,
            d.baseline,
            d.rel_change * 100.0,
            d.tolerance * 100.0
        );
    }
    if fail_on_regression && !rep.regressions.is_empty() {
        std::process::exit(1);
    }
}

fn die<T>(e: std::io::Error) -> T {
    eprintln!("dns-perfdb: {e}");
    std::process::exit(1);
}
