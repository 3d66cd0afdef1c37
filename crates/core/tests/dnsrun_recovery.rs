//! End-to-end recovery through the `dns-run` binary: an injected rank
//! crash at a fixed step must recover via checkpoint restart and leave a
//! final state byte-for-byte identical to an uninterrupted run's.

use std::path::{Path, PathBuf};
use std::process::Command;

fn dns_run() -> &'static str {
    env!("CARGO_BIN_EXE_dns-run")
}

fn fresh_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(name);
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn base_args(out: &Path) -> Vec<String> {
    [
        "--nx",
        "16",
        "--ny",
        "25",
        "--nz",
        "16",
        "--re",
        "80",
        "--dt",
        "1e-3",
        "--steps",
        "8",
        "--stats-every",
        "4",
        "--checkpoint-every",
        "3",
    ]
    .iter()
    .map(|s| s.to_string())
    .chain(["--out".to_string(), out.display().to_string()])
    .collect()
}

#[test]
fn injected_crash_recovers_bitwise_identical_final_state() {
    let ref_dir = fresh_dir("dnsrun_recovery_ref");
    let chaos_dir = fresh_dir("dnsrun_recovery_chaos");
    let log = chaos_dir.join("recovery.json");

    let status = Command::new(dns_run())
        .args(base_args(&ref_dir))
        .output()
        .expect("spawn dns-run");
    assert!(
        status.status.success(),
        "reference run failed:\n{}",
        String::from_utf8_lossy(&status.stderr)
    );

    let output = Command::new(dns_run())
        .args(base_args(&chaos_dir))
        .args([
            "--crash-at-step",
            "5",
            "--max-restarts",
            "2",
            "--recovery-log",
            log.to_str().unwrap(),
        ])
        .output()
        .expect("spawn dns-run");
    assert!(
        output.status.success(),
        "chaos run failed:\nstdout: {}\nstderr: {}",
        String::from_utf8_lossy(&output.stdout),
        String::from_utf8_lossy(&output.stderr)
    );
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert!(
        stdout.contains("1 restart(s) issued, run recovered"),
        "expected a supervised recovery in:\n{stdout}"
    );

    // the committed final generation (steps=8 -> state.s8) must be
    // byte-for-byte identical between the two runs
    let a = std::fs::read(ref_dir.join("state.s8.r0x0.ckpt")).expect("reference checkpoint");
    let b = std::fs::read(chaos_dir.join("state.s8.r0x0.ckpt")).expect("recovered checkpoint");
    assert_eq!(a, b, "recovered final state differs from uninterrupted run");

    // recovery log records the injected crash and the converged retry
    let events = std::fs::read_to_string(&log).expect("recovery log");
    assert!(events.contains("\"kind\":\"world_failed\""), "{events}");
    assert!(
        events.contains("injected fault: rank 0 crashed at step 5"),
        "{events}"
    );
    assert!(events.contains("\"kind\":\"converged\""), "{events}");
}

/// The crash lands after the samples of steps 2, 4 and 6 and the restart
/// checkpoint (step 6) is past them: the recovered run's time average
/// must still hold all four samples, not only the post-restart one.
#[test]
fn recovered_run_writes_the_same_profiles_csv() {
    let cadence = ["--stats-every", "2", "--checkpoint-every", "6"];
    let ref_dir = fresh_dir("dnsrun_recovery_stats_ref");
    let chaos_dir = fresh_dir("dnsrun_recovery_stats_chaos");
    let control = Command::new(dns_run())
        .args(base_args(&ref_dir))
        .args(cadence)
        .output()
        .expect("spawn dns-run");
    assert!(control.status.success(), "control run failed");
    let chaos = Command::new(dns_run())
        .args(base_args(&chaos_dir))
        .args(cadence)
        .args(["--crash-at-step", "7", "--max-restarts", "1"])
        .output()
        .expect("spawn dns-run");
    let stdout = String::from_utf8_lossy(&chaos.stdout);
    assert!(
        chaos.status.success() && stdout.contains("resumed from step 6"),
        "expected a recovery from the step-6 checkpoint in:\n{stdout}"
    );
    let a = std::fs::read(ref_dir.join("profiles.csv")).expect("control profiles");
    let b = std::fs::read(chaos_dir.join("profiles.csv")).expect("recovered profiles");
    assert_eq!(a, b, "recovered time average differs from the control's");
}

#[test]
fn crash_without_restart_budget_exits_nonzero() {
    let dir = fresh_dir("dnsrun_recovery_fail");
    let log = dir.join("recovery.json");
    let output = Command::new(dns_run())
        .args(base_args(&dir))
        .args([
            "--crash-at-step",
            "5",
            "--recovery-log",
            log.to_str().unwrap(),
        ])
        .output()
        .expect("spawn dns-run");
    assert!(
        !output.status.success(),
        "run with an unrecovered crash must fail"
    );
    let events = std::fs::read_to_string(&log).expect("recovery log");
    assert!(events.contains("\"kind\":\"gave_up\""), "{events}");
}
