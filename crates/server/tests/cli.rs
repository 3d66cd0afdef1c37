//! The command lines of `dns-server` and `dns-cli`, driven through the
//! built binaries: each help is its flag table, every argument error is a
//! `NAME:` line with exit code 2 (never a panic, and no socket opened),
//! and the documents pass only flags the help lists.

#[path = "../../core/tests/common/cli.rs"]
mod cli;

const SERVER: &str = env!("CARGO_BIN_EXE_dns-server");
const CLIENT: &str = env!("CARGO_BIN_EXE_dns-cli");

#[test]
fn each_help_lists_its_rows() {
    let server = cli::help(SERVER);
    assert_eq!(
        cli::rows(&server),
        [
            "addr",
            "http-addr",
            "data-dir",
            "cores",
            "tenant-quota",
            "help"
        ]
    );
    let client = cli::help(CLIENT);
    let rows = cli::rows(&client);
    // the run-description rows first, then the client's own
    assert_eq!(rows[0], "spec");
    assert_eq!(
        rows[rows.len() - 6..],
        ["name", "tenant", "priority", "server", "data-dir", "help"]
    );
}

#[test]
fn documented_command_lines_only_use_table_rows() {
    let showing = ["README.md", "ci.yml", "SKILL.md"];
    cli::documented_lines_use_rows("dns-server", &cli::help(SERVER), &showing);
    // `cli` is the documents' shell wrapper around dns-cli
    for program in ["dns-cli", "cli"] {
        cli::documented_lines_use_rows(program, &cli::help(CLIENT), &showing);
    }
}

#[test]
fn readme_flag_table_is_the_help_text() {
    let block = format!(
        "<!-- dns-cli --help -->\n```text\n{}```\n",
        cli::help(CLIENT)
    );
    assert!(
        cli::DOCS[0].1.contains(&block),
        "README.md's dns-cli flag table is stale; it should read:\n{block}"
    );
}

#[test]
fn argument_errors_exit_2_with_a_message_and_never_panic() {
    let cases: [(&str, &str, &[&str], &str); 13] = [
        (
            SERVER,
            "dns-server",
            &["--bogus"],
            "unknown argument --bogus",
        ),
        (SERVER, "dns-server", &["--cores"], "--cores needs a value"),
        (
            SERVER,
            "dns-server",
            &["--cores", "0"],
            "--cores must be positive",
        ),
        (CLIENT, "dns-cli", &[], "missing command"),
        (CLIENT, "dns-cli", &["launch"], "unknown command launch"),
        (CLIENT, "dns-cli", &["watch"], "watch needs a job id"),
        (CLIENT, "dns-cli", &["cancel", "x"], "cancel: bad job id"),
        (CLIENT, "dns-cli", &["status", "7"], "unexpected argument 7"),
        (
            CLIENT,
            "dns-cli",
            &["status", "--bogus"],
            "unknown argument --bogus",
        ),
        (
            CLIENT,
            "dns-cli",
            &["status", "--nx", "32"],
            "status takes none of submit's flags",
        ),
        (
            CLIENT,
            "dns-cli",
            &["--tenant", "acme", "watch", "1"],
            "watch takes none of submit's flags",
        ),
        (
            CLIENT,
            "dns-cli",
            &["submit", "--priority", "300"],
            "--priority: cannot parse",
        ),
        (
            CLIENT,
            "dns-cli",
            &["submit", "--nx", "30"],
            "must be multiples of 4",
        ),
    ];
    for (bin, name, args, message) in cases {
        cli::refused(bin, name, args, message);
    }
}
