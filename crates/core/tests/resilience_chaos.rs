//! Resilience integration tests: bitwise-exact checkpoint restart and a
//! seeded chaos matrix driving the supervisor over a 2x2 process grid.
//!
//! "Bitwise" is meant literally — the restarted trajectory must produce
//! the *same f64 bit patterns* as the uninterrupted one, because any
//! drift at restart compounds over the hundreds of thousands of steps a
//! production campaign takes (and makes recovered runs scientifically
//! unreproducible).

use std::path::PathBuf;
use std::time::Duration;

use dns_core::solver::ChannelDns;
use dns_core::{checkpoint, run_parallel, Forcing, Params};
use dns_minimpi::FaultPlan;
use dns_resilience::{supervise, EventKind, SupervisorConfig};

fn test_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(name);
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Flux-driven parameters: exercises the mass-flux controller whose
/// internal state must survive the restart for bitwise equality.
fn chaos_params() -> Params {
    let mut p = Params::channel(16, 25, 16, 80.0)
        .with_dt(1e-3)
        .with_grid(2, 2);
    p.forcing = Forcing::ConstantMassFlux { bulk: 0.5 };
    p
}

/// Every f64 bit of the per-rank solver trajectory state.
fn state_bits(dns: &ChannelDns) -> Vec<u64> {
    let s = dns.state();
    let mut bits = vec![s.steps, s.time.to_bits()];
    let (dyn_force, flux_integral) = dns.controller_state();
    bits.push(dyn_force.to_bits());
    bits.push(flux_integral.to_bits());
    for f in [s.u(), s.v(), s.w(), s.omega_y(), s.phi()] {
        for c in f {
            bits.push(c.re.to_bits());
            bits.push(c.im.to_bits());
        }
    }
    bits
}

fn seed_ic(dns: &mut ChannelDns) {
    dns.set_laminar(0.5);
    dns.add_perturbation(0.3, 21);
}

#[test]
fn restart_from_manifest_is_bitwise_identical() {
    let stem = test_dir("dns_chaos_bitwise").join("state");

    // uninterrupted: 6 steps straight through
    let reference = run_parallel(chaos_params(), |dns| {
        seed_ic(dns);
        for _ in 0..6 {
            dns.step();
        }
        state_bits(dns)
    });

    // interrupted: 3 steps, committed checkpoint, fresh world resumes
    let stem2 = stem.clone();
    run_parallel(chaos_params(), move |dns| {
        seed_ic(dns);
        for _ in 0..3 {
            dns.step();
        }
        checkpoint::save_with_manifest(dns, &stem2).unwrap();
    });
    let stem3 = stem.clone();
    let resumed = run_parallel(chaos_params(), move |dns| {
        let step = checkpoint::load_latest(dns, &stem3).unwrap();
        assert_eq!(step, 3);
        for _ in 0..3 {
            dns.step();
        }
        state_bits(dns)
    });

    assert_eq!(reference.len(), resumed.len());
    for (rank, (a, b)) in reference.iter().zip(&resumed).enumerate() {
        assert_eq!(a, b, "rank {rank}: restarted state diverged bitwise");
    }
}

/// Shared supervised body: restore from the manifest when restarting,
/// otherwise seed the deterministic IC; run to `total` steps with a
/// checkpoint every `every`.
fn supervised_body(
    dns: &mut ChannelDns,
    ctl: &dns_minimpi::Communicator,
    restarting: bool,
    stem: &std::path::Path,
    total: u64,
    every: u64,
) -> Vec<u64> {
    let restored = if restarting {
        match checkpoint::load_latest(dns, stem) {
            Ok(step) => Some(step),
            Err(checkpoint::CheckpointError::NoManifest { .. }) => None,
            Err(e) => panic!("restore failed: {e}"),
        }
    } else {
        None
    };
    if restored.is_none() {
        seed_ic(dns);
    }
    while dns.state().steps < total {
        dns.step();
        let s = dns.state().steps;
        if s.is_multiple_of(every) {
            checkpoint::save_with_manifest(dns, stem).unwrap();
        }
        ctl.poll_step_faults(s);
    }
    state_bits(dns)
}

#[test]
fn chaos_matrix_converges_bitwise_or_fails_clean() {
    let total = 6u64;
    let every = 2u64;

    let reference = run_parallel(chaos_params(), move |dns| {
        seed_ic(dns);
        for _ in 0..total {
            dns.step();
        }
        state_bits(dns)
    });

    // several seeds x the 2x2 grid: each seed picks a crash (rank, step)
    // pair for the first launch; restarts run clean
    for seed in [1u64, 7, 42, 1234] {
        let dir = test_dir(&format!("dns_chaos_seed{seed}"));
        let stem = dir.join("state");
        let crash_rank = (seed % 4) as usize;
        let crash_step = 2 + seed % (total - 2); // in [2, total)
        let plan = FaultPlan::none().crash_at_step(crash_rank, crash_step);

        let report = supervise(
            SupervisorConfig {
                ranks: 4,
                max_restarts: 2,
                recv_timeout: Duration::from_secs(5),
            },
            move |attempt| {
                if attempt == 0 {
                    plan.clone()
                } else {
                    FaultPlan::none()
                }
            },
            move |world, attempt| {
                let ctl = world.dup();
                let mut dns = ChannelDns::new(world, chaos_params());
                supervised_body(&mut dns, &ctl, attempt.index > 0, &stem, total, every)
            },
        );

        assert!(
            report.succeeded(),
            "seed {seed}: supervisor failed to recover:\n{}",
            report.events_json()
        );
        assert_eq!(report.restarts, 1, "seed {seed}");
        let results = report.results.unwrap();
        assert_eq!(results.len(), 4);
        for (rank, bits) in results.iter().enumerate() {
            assert_eq!(
                bits, &reference[rank],
                "seed {seed} rank {rank}: recovered state diverged bitwise"
            );
        }
        // the timeline records the injected crash and the recovery
        assert!(report.events.iter().any(|e| matches!(
            &e.kind,
            EventKind::WorldFailed { failures }
                if failures.iter().any(|(r, m)| *r == crash_rank && m.contains("injected fault"))
        )));
        assert!(matches!(
            report.events.last().unwrap().kind,
            EventKind::Converged
        ));
    }
}

/// Supervise a run of `OP_TOTAL` steps whose first launch runs under
/// `plan`: it must take exactly one restart and land on `reference`, the
/// uninterrupted trajectory, bit for bit.
fn assert_op_fault_recovers_bitwise(reference: &[Vec<u64>], plan: FaultPlan, label: &str) {
    let stem = test_dir(&format!("dns_chaos_op_{label}")).join("state");
    let report = supervise(
        SupervisorConfig {
            ranks: 4,
            max_restarts: 2,
            recv_timeout: Duration::from_secs(5),
        },
        move |attempt| {
            if attempt == 0 {
                plan.clone()
            } else {
                FaultPlan::none()
            }
        },
        move |world, attempt| {
            let ctl = world.dup();
            let mut dns = ChannelDns::new(world, chaos_params());
            supervised_body(&mut dns, &ctl, attempt.index > 0, &stem, OP_TOTAL, 2)
        },
    );
    assert!(
        report.succeeded(),
        "{label}: supervisor failed to recover:\n{}",
        report.events_json()
    );
    // a crash op past the end of the run would pass everything below
    // without testing anything
    assert_eq!(
        report.restarts, 1,
        "{label}: the injected crash never fired"
    );
    for (rank, bits) in report.results.unwrap().iter().enumerate() {
        assert_eq!(
            bits, &reference[rank],
            "{label} rank {rank}: recovered state diverged bitwise"
        );
    }
}

/// Steps of the operation-level chaos runs. On the 2x2 grid every rank
/// consumes between 200 and 300 transport ops over them (about 34 to
/// plan, 36 per step — 12 transposes — and three checkpoints).
const OP_TOTAL: u64 = 6;

fn op_reference() -> Vec<Vec<u64>> {
    run_parallel(chaos_params(), |dns| {
        seed_ic(dns);
        for _ in 0..OP_TOTAL {
            dns.step();
        }
        state_bits(dns)
    })
}

#[test]
fn transport_level_chaos_recovers_bitwise() {
    // seeded *operation-level* crash: fires mid-step inside the transform
    // pipeline, not at a polite step boundary — the restart must still
    // recover from whatever generation was last committed
    let reference = op_reference();
    for seed in [3u64, 11] {
        // horizon 200: the crash lands on an op in [50, 150), which every
        // rank reaches
        let plan = FaultPlan::seeded(seed, 4, 200);
        assert_op_fault_recovers_bitwise(&reference, plan, &format!("seed{seed}"));
    }
}

#[test]
fn crash_inside_the_x_stage_exchange_recovers_bitwise() {
    // One substep's transposes are CommB, CommA, CommA, CommB — the middle
    // pair is the x-stage — at 2 (pairwise) or 4 (all-to-all) transport
    // ops each on a 2-rank sub-communicator, so 24 consecutive crash ops
    // span a whole substep whichever schedule the planner picked: some
    // land on the x-stage's sends, some on its receives, with the peer's
    // blocks already queued.
    let reference = op_reference();
    for op in 100..124 {
        let plan = FaultPlan::none().crash_at_op(2, op);
        assert_op_fault_recovers_bitwise(&reference, plan, &format!("rank2_op{op}"));
    }
}

#[test]
fn unrecoverable_chaos_reports_clean_failure() {
    let dir = test_dir("dns_chaos_unrecoverable");
    let stem = dir.join("state");
    // every launch crashes rank 2 immediately after step 1 — the
    // supervisor must exhaust its budget and give up in bounded time,
    // not hang
    let report = supervise(
        SupervisorConfig {
            ranks: 4,
            max_restarts: 1,
            recv_timeout: Duration::from_secs(2),
        },
        |_| FaultPlan::none().crash_at_step(2, 1),
        move |world, attempt| {
            let ctl = world.dup();
            let mut dns = ChannelDns::new(world, chaos_params());
            supervised_body(&mut dns, &ctl, attempt.index > 0, &stem, 6, 2)
        },
    );
    assert!(!report.succeeded());
    assert_eq!(report.restarts, 1);
    assert!(matches!(
        report.events.last().unwrap().kind,
        EventKind::GaveUp
    ));
    let json = report.events_json();
    assert!(json.contains("\"kind\":\"gave_up\""));
    assert!(json.contains("injected fault: rank 2"));
}
