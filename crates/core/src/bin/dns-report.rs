//! Replay a flight-recorder JSONL file into a human run report.
//!
//! ```text
//! dns-report RUN.health.jsonl            render the full report
//! dns-report --check RUN.health.jsonl    validate only: every line must
//!                                        parse against the schema
//! ```
//!
//! Exit codes: 0 ok (and `--help`), 1 unreadable or malformed input,
//! 2 usage error.

use dns_core::flags::{on, Command, Flag};
use dns_health::report::Replay;
use dns_health::schema::parse_jsonl;

#[derive(Default)]
struct Opts {
    check: bool,
    path: Option<String>,
}

#[rustfmt::skip] // a table: one row per flag, not one line per field
const FLAGS: &[Flag<Opts>] = &[
    Flag("--check", "", "validate every JSONL line against the schema and exit",
        |o, _| on(&mut o.check)),
    Flag("FILE.jsonl", "", "the flight-recorder file (dns-run --health-log) to read",
        |o, v| match o.path.replace(v.into()) {
            None => Ok(()),
            Some(_) => Err("more than one input file".into()),
        }),
];

const COMMAND: Command<Opts> = Command {
    name: "dns-report",
    about: "render a dns-health flight-recorder file\n\nusage: dns-report [--check] FILE.jsonl\n\nflags:\n",
    flags: FLAGS,
    spec: None,
};

fn main() -> std::process::ExitCode {
    let (path, check) = COMMAND.parse(Opts::default(), |o| match o.path {
        Some(path) => Ok((path, o.check)),
        None => Err("missing FILE.jsonl".into()),
    });
    let events = std::fs::read_to_string(&path)
        .map_err(|e| format!("cannot read {path}: {e}"))
        .and_then(|text| parse_jsonl(&text).map_err(|e| format!("{path}: {e}")));
    let events = match events {
        Ok(events) => events,
        Err(e) => {
            eprintln!("dns-report: {e}");
            return std::process::ExitCode::FAILURE;
        }
    };
    if check {
        println!(
            "{path}: {} event(s) ok (schema {})",
            events.len(),
            dns_health::SCHEMA_VERSION
        );
    } else {
        print!("{}", Replay::new(events).render());
    }
    std::process::ExitCode::SUCCESS
}
