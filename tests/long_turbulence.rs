//! Long-running turbulence validation (ignored by default — several
//! minutes of compute). Run explicitly with:
//!
//! ```text
//! cargo test --release --test long_turbulence -- --ignored
//! ```

use channel_dns::core_solver::stats::{profiles, reichardt_u_plus, StatsAccumulator, StatsConfig};
use channel_dns::core_solver::{run_serial, Params};

fn minimal_params() -> Params {
    let mut p = Params::channel(32, 65, 32, 180.0).with_dt(5e-4);
    p.lx = 2.4;
    p.lz = 1.0;
    p.grid_stretch = 1.9;
    p
}

/// The minimal channel transitions and *sustains* turbulence: after the
/// transient, the fluctuation level stays within a physical band for
/// thousands of steps and never blows up.
#[test]
#[ignore = "several minutes: run with -- --ignored"]
fn minimal_channel_sustains_turbulence() {
    let history = run_serial(minimal_params(), |dns| {
        dns.set_laminar(0.3);
        dns.add_perturbation(0.5, 2024);
        let mut hist = Vec::new();
        for s in 1..=6000 {
            dns.step();
            if s % 200 == 0 {
                let p = profiles(dns);
                let peak = p.uu.iter().cloned().fold(0.0f64, f64::max);
                assert!(peak.is_finite(), "blow-up at step {s}");
                hist.push((s, peak, p.u_tau));
            }
        }
        hist
    });
    // after the transient (step 3000+): turbulent fluctuation band
    for &(s, peak, u_tau) in history.iter().filter(|(s, ..)| *s >= 3000) {
        assert!(
            (1.0..200.0).contains(&peak),
            "step {s}: peak u'u' = {peak} outside the turbulent band"
        );
        assert!(u_tau > 0.4, "step {s}: u_tau = {u_tau} (relaminarised?)");
    }
}

/// With long averaging, the mean profile tracks the law of the wall to
/// a few wall units through the buffer layer.
#[test]
#[ignore = "several minutes: run with -- --ignored"]
fn mean_profile_approaches_the_law_of_the_wall() {
    let mean = run_serial(minimal_params(), |dns| {
        dns.set_laminar(0.3);
        dns.add_perturbation(0.5, 7);
        // transient
        for _ in 0..4000 {
            dns.step();
        }
        let mut acc = StatsAccumulator::new(StatsConfig {
            every: 20,
            warmup: 4000,
        });
        for s in 0..4000 {
            dns.step();
            if s % 20 == 0 {
                acc.sample(dns);
            }
        }
        acc.mean().expect("200 samples")
    });
    let yp = mean.y_plus();
    let up = mean.u_plus();
    for (j, (&y, &u)) in yp.iter().zip(&up).enumerate() {
        if !(1.0..=30.0).contains(&y) || j > mean.y.len() / 2 {
            continue;
        }
        let want = reichardt_u_plus(y);
        assert!(
            (u - want).abs() < 0.35 * want.max(2.0),
            "y+ = {y:.1}: u+ = {u:.2} vs law-of-wall {want:.2}"
        );
    }
}
