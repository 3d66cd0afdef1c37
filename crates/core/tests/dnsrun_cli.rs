//! The `dns-run` command line, driven through the built binary: the help
//! is the flag tables, every argument error is a `dns-run:` line with
//! exit code 2 (never a panic), and `--spec` loads the whole spec.

use std::path::PathBuf;
use std::process::{Command, Output};

use dns_core::spec::{InitialCondition, RunSpec, SPEC_FLAGS};
use dns_core::Params;

fn dns_run(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_dns-run"))
        .args(args)
        .output()
        .expect("spawn dns-run")
}

fn fresh_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// The command-line surface, pinned: a flag added or dropped shows up here.
const FLAGS: [&str; 36] = [
    "--checkpoint-every",
    "--ckpt",
    "--crash-at-step",
    "--crash-rank",
    "--dt",
    "--flux",
    "--gradient",
    "--grid",
    "--health-every",
    "--health-log",
    "--help",
    "--laminar-ic",
    "--lx",
    "--lz",
    "--max-restarts",
    "--metrics-every",
    "--nx",
    "--ny",
    "--nz",
    "--out",
    "--re",
    "--recovery-log",
    "--resume",
    "--slow-ms",
    "--slow-rank",
    "--spec",
    "--stats-every",
    "--stats-sample-every",
    "--stats-warmup",
    "--steps",
    "--straggler-factor",
    "--straggler-steps",
    "--stretch",
    "--threads",
    "--trace",
    "--turbulent-ic",
];

#[test]
fn help_lists_every_row_of_both_tables_once() {
    for spelling in ["--help", "-h"] {
        let out = dns_run(&[spelling]);
        assert_eq!(out.status.code(), Some(0));
        let help = String::from_utf8(out.stdout).unwrap();
        let mut listed: Vec<&str> = help
            .lines()
            .filter_map(|l| l.strip_prefix("  --"))
            .map(|l| &l[..l.find(' ').unwrap_or(l.len())])
            .collect();
        // the shared rows come first, in table order
        for (row, name) in SPEC_FLAGS.iter().zip(&listed) {
            assert_eq!(row.0, format!("--{name}"));
        }
        listed.sort_unstable();
        let want: Vec<&str> = FLAGS.iter().map(|f| &f[2..]).collect();
        assert_eq!(listed, want);
    }
}

#[test]
fn argument_errors_exit_2_with_a_message_and_never_panic() {
    let cases: [(&[&str], &str); 14] = [
        (&["--bogus"], "unknown argument --bogus"),
        (&["--nx"], "--nx needs a value"),
        (&["--steps", "many"], "--steps: cannot parse \"many\""),
        (&["--grid", "2"], "--grid: expected PAxPB"),
        (&["--spec", "/no/such/spec.json"], "--spec: cannot read"),
        (
            &["--nx", "30"],
            "nx (30) and nz (32) must be multiples of 4",
        ),
        (&["--ny", "8"], "ny too small"),
        (&["--dt", "0"], "must all be positive"),
        (&["--lz", "-1"], "must all be positive"),
        (&["--grid", "0x1"], "degenerate 0x1 process grid"),
        (&["--threads", "99999999999"], "fit in 32 bits"),
        (&["--stats-every", "0"], "--stats-every must be positive"),
        (
            &["--grid", "2x1", "--crash-rank", "2"],
            "outside the 2x1 grid",
        ),
        (
            &["--straggler-factor", "1"],
            "--straggler-factor must be > 1",
        ),
    ];
    for (args, message) in cases {
        let out = dns_run(args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(stderr.starts_with("dns-run: "), "{args:?}: {stderr}");
        assert!(stderr.contains(message), "{args:?}: {stderr}");
        assert!(stderr.contains("(run dns-run --help"), "{args:?}: {stderr}");
        assert!(!stderr.contains("panicked at"), "{args:?}: {stderr}");
        assert!(out.stdout.is_empty(), "{args:?} started a run");
    }
}

#[test]
fn spec_file_keeps_its_name_and_later_flags_override_it() {
    let dir = fresh_dir("dnsrun-cli-spec");
    let spec = RunSpec {
        name: "from-file".into(),
        params: Params::channel(16, 25, 16, 50.0).with_dt(1e-3),
        steps: 400,
        ckpt_every: 0,
        ic: InitialCondition::Laminar { scale: 1.0 },
    };
    let file = dir.join("spec.json");
    std::fs::write(&file, spec.to_json()).unwrap();
    let out = dns_run(&[
        "--spec",
        file.to_str().unwrap(),
        "--steps",
        "2",
        "--out",
        dir.to_str().unwrap(),
    ]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let banner = stdout.lines().next().unwrap();
    assert!(
        banner.starts_with("channel DNS: 16 x 25 x 16 modes"),
        "{banner}"
    );
    assert!(
        banner.ends_with("2 steps, checkpoint cadence 0, as \"from-file\""),
        "{banner}"
    );
    assert!(stdout.contains("\n2 steps in "), "{stdout}");
    assert!(dir.join("profiles.csv").exists());
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_zero_step_budget_still_runs() {
    let dir = fresh_dir("dnsrun-cli-zero");
    let out = dns_run(&[
        "--nx",
        "16",
        "--ny",
        "25",
        "--nz",
        "16",
        "--laminar-ic",
        "--steps",
        "0",
        "--out",
        dir.to_str().unwrap(),
    ]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(dir.join("profiles.csv").exists());
    let _ = std::fs::remove_dir_all(&dir);
}
