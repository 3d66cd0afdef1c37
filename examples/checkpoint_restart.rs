//! Checkpoint/restart: run, save, reload into a fresh solver, continue —
//! and verify the restarted trajectory is bit-identical to an unbroken
//! run (the restart discipline any 650,000-step production campaign
//! depends on).
//!
//! ```text
//! cargo run --release --example checkpoint_restart
//! ```

use channel_dns::core_solver::stats::profiles;
use channel_dns::core_solver::{checkpoint, run_serial, Params};

fn main() {
    let dir = std::env::temp_dir().join("channel_dns_example_ckpt");
    std::fs::create_dir_all(&dir).expect("mkdir");
    let stem = dir.join("state");
    let params = Params::channel(16, 25, 16, 80.0).with_dt(1e-3);

    // reference: 10 uninterrupted steps
    let p1 = params.clone();
    let reference = run_serial(p1, |dns| {
        dns.set_laminar(0.5);
        dns.add_perturbation(0.3, 99);
        for _ in 0..10 {
            dns.step();
        }
        profiles(dns).u_mean
    });

    // part 1: 5 steps, checkpoint
    let p2 = params.clone();
    let stem2 = stem.clone();
    run_serial(p2, move |dns| {
        dns.set_laminar(0.5);
        dns.add_perturbation(0.3, 99);
        for _ in 0..5 {
            dns.step();
        }
        let manifest = checkpoint::save_with_manifest(dns, &stem2).expect("save");
        println!(
            "checkpointed at step {} -> {}",
            dns.state().steps,
            manifest.expect("rank (0,0) writes the manifest").display()
        );
    });

    // part 2: fresh solver, resume, 5 more steps
    let stem3 = stem.clone();
    let restarted = run_serial(params, move |dns| {
        checkpoint::load_latest(dns, &stem3).expect("load");
        println!(
            "resumed at step {} (t = {:.4})",
            dns.state().steps,
            dns.state().time
        );
        for _ in 0..5 {
            dns.step();
        }
        profiles(dns).u_mean
    });

    let worst = reference
        .iter()
        .zip(&restarted)
        .map(|(a, b)| (a - b).abs())
        .fold(0.0, f64::max);
    println!("max |u_restarted - u_reference| = {worst:.2e}");
    assert!(worst < 1e-13, "restart must be bit-faithful");
    println!("PASS: restart reproduces the uninterrupted trajectory");
}
