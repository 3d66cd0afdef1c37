//! Closed-loop calibration: fit host rates from *measured* telemetry
//! counts and per-phase seconds, predict phase times back from the same
//! counts, and report per-point relative errors plus a per-curve
//! residual.
//!
//! This is the layer that turns the machine model from an open-loop
//! estimate into a verified instrument: the campaign harvests
//! `(counts, seconds)` pairs from live minimpi runs, fits one
//! [`Calibration`] for the host, and then checks — point by point — that
//! the fitted model reproduces every measured point within a stated
//! bound.

use crate::model::dnscost::StepCounts;
use dns_telemetry::PhaseSeconds;

/// `|modelled - measured| / measured`, zero when nothing was measured.
fn rel_err(measured: f64, modelled: f64) -> f64 {
    if measured <= 0.0 {
        return 0.0;
    }
    (modelled - measured).abs() / measured
}

/// Effective host rates fitted from measured observations: the single
/// set of throughputs that best explains every `(counts, seconds)` pair
/// at once. Fitting pools all observations (total counts over total
/// seconds per phase), so no point can be reproduced exactly by
/// construction — the per-point error is a real consistency check.
#[derive(Clone, Copy, Debug)]
pub struct Calibration {
    /// Achieved FFT flop rate (flops/s, all ranks and threads pooled).
    pub fft_flop_rate: f64,
    /// Achieved N-S-advance flop rate (flops/s).
    pub ns_flop_rate: f64,
    /// Achieved transpose streaming bandwidth (bytes/s).
    pub stream_bw: f64,
}

impl Calibration {
    /// Fit pooled host rates from one or more measured `(counts,
    /// seconds)` pairs. Returns `None` when no phase has both nonzero
    /// counts and nonzero measured time (nothing to fit).
    pub fn fit(obs: &[(StepCounts, PhaseSeconds)]) -> Option<Calibration> {
        let mut flops_fft = 0.0;
        let mut s_fft = 0.0;
        let mut flops_ns = 0.0;
        let mut s_ns = 0.0;
        let mut bytes_tr = 0.0;
        let mut s_tr = 0.0;
        for (counts, seconds) in obs {
            flops_fft += counts.fft_flops;
            s_fft += seconds.fft;
            flops_ns += counts.ns_flops;
            s_ns += seconds.ns_advance;
            bytes_tr += counts.transpose_bytes;
            s_tr += seconds.transpose;
        }
        let rate = |work: f64, secs: f64| {
            if work > 0.0 && secs > 0.0 {
                work / secs
            } else {
                0.0
            }
        };
        let cal = Calibration {
            fft_flop_rate: rate(flops_fft, s_fft),
            ns_flop_rate: rate(flops_ns, s_ns),
            stream_bw: rate(bytes_tr, s_tr),
        };
        if cal.fft_flop_rate == 0.0 && cal.ns_flop_rate == 0.0 && cal.stream_bw == 0.0 {
            None
        } else {
            Some(cal)
        }
    }

    /// Predict per-phase seconds for a workload with the given counts.
    /// A phase whose rate could not be fitted (zero) predicts zero
    /// seconds for it.
    pub fn predict(&self, counts: &StepCounts) -> PhaseSeconds {
        let over = |work: f64, rate: f64| if rate > 0.0 { work / rate } else { 0.0 };
        PhaseSeconds {
            transpose: over(counts.transpose_bytes, self.stream_bw),
            fft: over(counts.fft_flops, self.fft_flop_rate),
            ns_advance: over(counts.ns_flops, self.ns_flop_rate),
            other: 0.0,
        }
    }

    /// Relative error of the predicted total time at one measured point
    /// — the quantity the `--check` gate bounds.
    pub fn err_rel(&self, counts: &StepCounts, seconds: &PhaseSeconds) -> f64 {
        rel_err(seconds.total(), self.predict(counts).total())
    }

    /// Root-mean-square of [`Calibration::err_rel`] over a curve's
    /// points — the per-curve calibration residual reported in
    /// `BENCH_scalinglab.json`.
    pub fn residual(&self, obs: &[(StepCounts, PhaseSeconds)]) -> f64 {
        if obs.is_empty() {
            return 0.0;
        }
        let ss: f64 = obs
            .iter()
            .map(|(counts, seconds)| {
                let e = self.err_rel(counts, seconds);
                e * e
            })
            .sum();
        (ss / obs.len() as f64).sqrt()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn obs(scale: f64, noise: f64) -> (StepCounts, PhaseSeconds) {
        // synthetic host: 1 Gflop/s fft, 0.5 Gflop/s ns, 4 GB/s stream
        let counts = StepCounts {
            fft_flops: 2.0e8 * scale,
            ns_flops: 1.0e8 * scale,
            transpose_bytes: 8.0e8 * scale,
        };
        let seconds = PhaseSeconds {
            transpose: counts.transpose_bytes / 4.0e9 * noise,
            fft: counts.fft_flops / 1.0e9 * noise,
            ns_advance: counts.ns_flops / 0.5e9 * noise,
            other: 0.0,
        };
        (counts, seconds)
    }

    #[test]
    fn fit_recovers_exact_rates_from_clean_data() {
        let points = vec![obs(1.0, 1.0), obs(2.0, 1.0), obs(4.0, 1.0)];
        let cal = Calibration::fit(&points).unwrap();
        assert!((cal.fft_flop_rate - 1.0e9).abs() / 1.0e9 < 1e-12);
        assert!((cal.ns_flop_rate - 0.5e9).abs() / 0.5e9 < 1e-12);
        assert!((cal.stream_bw - 4.0e9).abs() / 4.0e9 < 1e-12);
        for (counts, seconds) in &points {
            assert!(cal.err_rel(counts, seconds) < 1e-12);
        }
        assert!(cal.residual(&points) < 1e-12);
    }

    #[test]
    fn noisy_points_produce_bounded_errors_and_residual() {
        // one point 10% slow, one 10% fast: pooled fit splits the
        // difference, each point lands within ~10%, residual ~10%
        let points = vec![obs(1.0, 1.1), obs(1.0, 0.9)];
        let cal = Calibration::fit(&points).unwrap();
        for (counts, seconds) in &points {
            let e = cal.err_rel(counts, seconds);
            assert!(e > 0.05 && e < 0.15, "{e}");
        }
        let r = cal.residual(&points);
        assert!(r > 0.05 && r < 0.15, "{r}");
    }

    #[test]
    fn predict_matches_counts_over_rate() {
        let cal = Calibration {
            fft_flop_rate: 2.0e9,
            ns_flop_rate: 1.0e9,
            stream_bw: 8.0e9,
        };
        let s = cal.predict(&StepCounts {
            fft_flops: 4.0e9,
            ns_flops: 3.0e9,
            transpose_bytes: 16.0e9,
        });
        assert!((s.fft - 2.0).abs() < 1e-12);
        assert!((s.ns_advance - 3.0).abs() < 1e-12);
        assert!((s.transpose - 2.0).abs() < 1e-12);
        assert!((s.total() - 7.0).abs() < 1e-12);
    }

    #[test]
    fn degenerate_inputs_are_graceful() {
        assert!(Calibration::fit(&[]).is_none());
        assert!(Calibration::fit(&[Default::default()]).is_none());
        assert_eq!(rel_err(0.0, 1.0), 0.0);
        assert!((rel_err(2.0, 1.0) - 0.5).abs() < 1e-12);
    }
}
