//! What every binary's command-line test checks, shared (through
//! `#[path]`) by the crates that ship binaries: `--help` is the flag
//! table, an argument error is a `NAME:` line with exit code 2 and never
//! a panic, and every command line the documents show passes only flags
//! the binary lists.

use std::process::{Command, Output};

/// The documents whose shell examples name the binaries.
pub const DOCS: [(&str, &str); 7] = [
    ("README.md", include_str!("../../../../README.md")),
    ("BENCHMARKS.md", include_str!("../../../../BENCHMARKS.md")),
    ("EXPERIMENTS.md", include_str!("../../../../EXPERIMENTS.md")),
    ("DESIGN.md", include_str!("../../../../DESIGN.md")),
    (
        "ARCHITECTURE.md",
        include_str!("../../../../ARCHITECTURE.md"),
    ),
    (
        "ci.yml",
        include_str!("../../../../.github/workflows/ci.yml"),
    ),
    (
        "SKILL.md",
        include_str!("../../../../.claude/skills/verify/SKILL.md"),
    ),
];

/// Run the binary at `bin` with `args`.
pub fn run(bin: &str, args: &[&str]) -> Output {
    Command::new(bin)
        .args(args)
        .output()
        .unwrap_or_else(|e| panic!("spawn {bin}: {e}"))
}

/// The help, asserted to be what both `--help` and `-h` print with exit 0.
pub fn help(bin: &str) -> String {
    let out = run(bin, &["--help"]);
    assert_eq!(out.status.code(), Some(0), "{bin} --help");
    assert_eq!(run(bin, &["-h"]).stdout, out.stdout, "{bin} -h");
    String::from_utf8(out.stdout).unwrap()
}

/// The flag names of the help's rows (`  --name ...`), in order.
pub fn rows(help: &str) -> Vec<&str> {
    help.lines()
        .filter_map(|l| l.strip_prefix("  --"))
        .map(|l| &l[..l.find(' ').unwrap_or(l.len())])
        .collect()
}

/// `args` is refused: exit code 2, stderr a `name:` line containing
/// `message` plus the pointer to `--help`, no panic, nothing on stdout.
pub fn refused(bin: &str, name: &str, args: &[&str], message: &str) {
    let out = run(bin, args);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
    assert!(
        stderr.starts_with(&format!("{name}: ")),
        "{args:?}: {stderr}"
    );
    assert!(stderr.contains(message), "{args:?}: {stderr}");
    assert!(
        stderr.contains(&format!("(run {name} --help")),
        "{args:?}: {stderr}"
    );
    assert!(!stderr.contains("panicked at"), "{args:?}: {stderr}");
    assert!(out.stdout.is_empty(), "{args:?} printed {:?}", out.stdout);
}

/// The `--flags` passed on every shell line of `doc` after the word
/// `program` or a path to it (backslash continuations joined, cut at `#`,
/// `|`, `;`, `&&`). After `-p program` or `--bin program` the flags up to cargo's
/// `--` are cargo's; the rest are the program's only on a `cargo run`
/// line that names no other `--bin`.
pub fn documented_flags(doc: &str, program: &str) -> Vec<String> {
    let joined = doc.replace("\\\n", " ");
    let mut flags = Vec::new();
    for line in joined.lines() {
        let words: Vec<&str> = line.split_whitespace().collect();
        let named = |w: &str| {
            let w = w.trim_start_matches('`');
            w == program || w.ends_with(&format!("/{program}"))
        };
        for (i, _) in words.iter().enumerate().filter(|w| named(w.1)) {
            let mut rest = words[i + 1..]
                .iter()
                .take_while(|w| !["#", "|", ";", "&&"].contains(w));
            if i > 0 && ["-p", "--bin"].contains(&words[i - 1]) {
                let cargo: Vec<_> = rest.by_ref().take_while(|w| **w != "--").collect();
                if words[i - 1] == "-p" && (!words.contains(&"run") || cargo.contains(&&"--bin")) {
                    continue;
                }
            }
            flags.extend(
                rest.map(|w| w.trim_end_matches(|c: char| !c.is_ascii_alphanumeric()))
                    .filter(|w| w.starts_with("--") && w.len() > 2)
                    .map(String::from),
            );
        }
    }
    flags
}

/// Every flag a documented `program` command line passes is a row of
/// `help` (or an alias it names), and each document of `showing` yields
/// at least one such flag, so a scan that loses a file's examples fails.
pub fn documented_lines_use_rows(program: &str, help: &str, showing: &[&str]) {
    for name in showing {
        assert!(
            DOCS.iter().any(|(doc, _)| doc == name),
            "{name} is not a scanned document"
        );
    }
    for (doc, text) in DOCS {
        let flags = documented_flags(text, program);
        assert!(
            !flags.is_empty() || !showing.contains(&doc),
            "the scan lost {doc}'s {program} examples"
        );
        for flag in flags {
            assert!(
                help.contains(&format!("  {flag} ")) || help.contains(&format!("(also {flag})")),
                "{doc}: a {program} command line passes {flag}, which is not a row of its help"
            );
        }
    }
}
