//! The execute-driven RK3 probe measures the same work as a bare step
//! loop.
//!
//! `dns_scaling::probe::probe_rk3` owns no loop: its measurement window
//! is a `RunObserver` on `dns_core::run::execute`. The bare-loop protocol
//! it replaced (warmup, barrier, level on, N steps, barrier, level off)
//! lives on here as the oracle: on the same grid, rank layout and seeded
//! field both must harvest exactly the same per-phase counter totals —
//! the counts are exact integers and repeat bit for bit, so the engine's
//! per-step control traffic (which lands in `Phase::Other`) must not
//! leak into the three phases the cost model is calibrated on.

use dns_core::params::Params;
use dns_core::solver::run_parallel;
use dns_scaling::probe::probe_rk3;
use dns_telemetry::{self as telemetry, Counter, Phase, Snapshot};

/// The bare-loop window: returns the snapshot of exactly `steps` steps.
fn bare_loop_snapshot(params: Params, warmup: usize, steps: usize) -> Snapshot {
    telemetry::set_level(telemetry::Level::Off);
    telemetry::reset();
    run_parallel(params, move |dns| {
        dns.set_laminar(1.0);
        dns.add_perturbation(1e-3, 42);
        for _ in 0..warmup {
            dns.step();
        }
        let root = dns.pfft().comm_a().rank() == 0 && dns.pfft().comm_b().rank() == 0;
        dns.pfft().comm_b().barrier();
        dns.pfft().comm_a().barrier();
        if root {
            telemetry::set_level(telemetry::Level::Phases);
        }
        dns.pfft().comm_a().barrier();
        dns.pfft().comm_b().barrier();
        for _ in 0..steps {
            dns.step();
        }
        dns.pfft().comm_b().barrier();
        dns.pfft().comm_a().barrier();
        if root {
            telemetry::set_level(telemetry::Level::Off);
        }
    });
    telemetry::snapshot()
}

fn model_counters(snap: &Snapshot) -> Vec<u64> {
    let by_phase = snap.total_counters_by_phase();
    let mut out = Vec::new();
    for phase in [Phase::Fft, Phase::NsAdvance, Phase::Transpose] {
        for counter in [Counter::Flops, Counter::DdrBytes, Counter::SolveRhs] {
            out.push(by_phase[phase as usize].get(counter));
        }
    }
    out
}

// one test, two layouts in sequence: the telemetry level and registry are
// process-wide, so two windows must never be open at once in this binary
#[test]
fn execute_driven_probe_counts_exactly_what_the_bare_loop_counts() {
    for (pa, pb, warmup) in [(1, 1, 1), (2, 1, 1), (2, 1, 0)] {
        let params = Params::channel(16, 17, 16, 180.0)
            .with_dt(1e-4)
            .with_grid(pa, pb);
        let steps = 2;
        let oracle = model_counters(&bare_loop_snapshot(params.clone(), warmup, steps));
        let probe = probe_rk3(params, warmup, steps);
        assert_eq!(
            (probe.ranks, probe.threads, probe.steps),
            (pa * pb, 1, steps)
        );
        let measured = model_counters(&probe.snapshot);
        assert_eq!(
            measured, oracle,
            "{pa}x{pb}, warmup {warmup}: (fft, ns_advance, transpose) x (flops, ddr_bytes, solve_rhs)"
        );
        // flops in the transforms and the advance, bytes in the reorders,
        // solves in the advance: the window is not empty
        assert!(measured[0] > 0 && measured[3] > 0 && measured[5] > 0 && measured[7] > 0);
        assert!(probe.wall_s_per_step > 0.0);
        let s = probe.seconds_per_step;
        assert!(s.fft > 0.0 && s.ns_advance > 0.0 && s.transpose > 0.0);
        // one rank: the phase clocks tick inside the steps the wall sums
        if probe.ranks == 1 {
            assert!(s.fft + s.ns_advance + s.transpose <= probe.wall_s_per_step);
        }
    }
}
