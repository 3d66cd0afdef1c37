//! The command lines of `dns-scaling`, `dns-validate` and `dns-perfdb`,
//! driven through the built binaries: each help is its flag table, every
//! argument error is a `NAME:` line with exit code 2 (never a panic, and
//! nothing started), and the documents pass only flags the help lists.

#[path = "../../core/tests/common/cli.rs"]
mod cli;

const SCALING: &str = env!("CARGO_BIN_EXE_dns-scaling");
const VALIDATE: &str = env!("CARGO_BIN_EXE_dns-validate");
const PERFDB: &str = env!("CARGO_BIN_EXE_dns-perfdb");

#[test]
fn each_help_lists_its_rows() {
    for (bin, rows) in [
        (SCALING, &["smoke", "check", "out-dir", "help"][..]),
        (
            VALIDATE,
            &[
                "smoke",
                "check",
                "laminar",
                "steps",
                "warmup",
                "sample-every",
                "out",
                "help",
            ],
        ),
        (
            PERFDB,
            &["db", "commit", "window", "report", "check", "help"],
        ),
    ] {
        assert_eq!(cli::rows(&cli::help(bin)), rows, "{bin}");
    }
}

#[test]
fn documented_command_lines_only_use_table_rows() {
    let (readme, bench, exper) = ("README.md", "BENCHMARKS.md", "EXPERIMENTS.md");
    // `perfdb` is a shell wrapper around dns-perfdb in ci.yml
    for (bin, program, showing) in [
        (
            SCALING,
            "dns-scaling",
            &[readme, bench, exper, "DESIGN.md", "ci.yml", "SKILL.md"][..],
        ),
        (
            VALIDATE,
            "dns-validate",
            &[readme, bench, exper, "ci.yml", "SKILL.md"],
        ),
        (PERFDB, "dns-perfdb", &[bench, "ci.yml"]),
        (PERFDB, "perfdb", &["ci.yml"]),
    ] {
        cli::documented_lines_use_rows(program, &cli::help(bin), showing);
    }
}

#[test]
fn argument_errors_exit_2_with_a_message_and_never_panic() {
    let cases: [(&str, &str, &[&str], &str); 14] = [
        (
            SCALING,
            "dns-scaling",
            &["--bogus"],
            "unknown argument --bogus",
        ),
        (
            SCALING,
            "dns-scaling",
            &["--out-dir"],
            "--out-dir needs a value",
        ),
        (SCALING, "dns-scaling", &["smoke"], "unknown argument smoke"),
        (
            VALIDATE,
            "dns-validate",
            &["--steps", "x"],
            "--steps: cannot parse \"x\"",
        ),
        (
            VALIDATE,
            "dns-validate",
            &["--smoke", "--warmup", "4500"],
            "--warmup must be smaller",
        ),
        (
            VALIDATE,
            "dns-validate",
            &["--sample-every", "0"],
            "--sample-every must be positive",
        ),
        (VALIDATE, "dns-validate", &["--out"], "--out needs a value"),
        (PERFDB, "dns-perfdb", &[], "missing command"),
        (
            PERFDB,
            "dns-perfdb",
            &["compact"],
            "unknown command compact",
        ),
        (
            PERFDB,
            "dns-perfdb",
            &["check", "--window", "x"],
            "--window: cannot parse",
        ),
        (
            PERFDB,
            "dns-perfdb",
            &["ingest", "BENCH_x.json"],
            "ingest requires --commit",
        ),
        (
            PERFDB,
            "dns-perfdb",
            &["ingest", "--commit", "c0"],
            "at least one BENCH_*.json",
        ),
        (
            PERFDB,
            "dns-perfdb",
            &["report", "--bogus"],
            "unknown argument --bogus",
        ),
        (
            PERFDB,
            "dns-perfdb",
            &["check", "BENCH_x.json"],
            "unexpected argument BENCH_x.json",
        ),
    ];
    for (bin, name, args, message) in cases {
        cli::refused(bin, name, args, message);
    }
}
