//! The `dns-report` command line, driven through the built binary: the
//! help is its flag table, a usage error exits 2 with a `dns-report:`
//! line (never a panic), unreadable or malformed input exits 1, and the
//! documents pass only real flags.

mod common {
    pub mod cli;
}
use common::cli;

const BIN: &str = env!("CARGO_BIN_EXE_dns-report");
const GOLDEN: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/../health/tests/golden/flight.jsonl"
);

#[test]
fn help_lists_both_rows() {
    let help = cli::help(BIN);
    assert_eq!(cli::rows(&help), ["check", "help"]);
    assert!(help.contains("\n  FILE.jsonl "), "{help}");
}

#[test]
fn check_accepts_the_golden_recording() {
    let out = cli::run(BIN, &["--check", GOLDEN]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(out.status.code(), Some(0), "{stdout}");
    assert!(stdout.contains("9 event(s) ok"), "{stdout}");
    // and the full report renders the same file
    let out = cli::run(BIN, &[GOLDEN]);
    assert_eq!(out.status.code(), Some(0));
    assert!(String::from_utf8_lossy(&out.stdout).contains("== dns-report: run health =="));
}

#[test]
fn unreadable_or_malformed_input_exits_1() {
    let dir = std::env::temp_dir().join(format!("dnsreport_cli-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let truncated = dir.join("truncated.jsonl");
    let text = std::fs::read_to_string(GOLDEN).unwrap();
    std::fs::write(&truncated, &text[..text.len() - 10]).unwrap();
    let missing = dir.join("missing.jsonl");
    for (path, message) in [(&truncated, "line 9:"), (&missing, "cannot read")] {
        let out = cli::run(BIN, &["--check", path.to_str().unwrap()]);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{stderr}");
        assert!(stderr.starts_with("dns-report: "), "{stderr}");
        assert!(stderr.contains(message), "{stderr}");
        assert!(!stderr.contains("panicked at"), "{stderr}");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn usage_errors_exit_2() {
    cli::refused(BIN, "dns-report", &["--bogus"], "unknown argument --bogus");
    cli::refused(BIN, "dns-report", &[], "missing FILE.jsonl");
    cli::refused(
        BIN,
        "dns-report",
        &["a.jsonl", "b.jsonl"],
        "more than one input file",
    );
}

#[test]
fn documented_command_lines_only_use_table_rows() {
    cli::documented_lines_use_rows("dns-report", &cli::help(BIN), &["README.md", "ci.yml"]);
}
