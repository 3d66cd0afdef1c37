//! The science-gate logic behind `dns-validate`: compare measured
//! wall-unit turbulence statistics against the embedded Moser Re_tau=180
//! reference ([`dns_core::moser`]) within documented per-region
//! tolerances.
//!
//! The comparisons operate on the wall-folded rows of
//! [`dns_core::moser::wall_folded`] — `(y+, U+, u'+, v'+, w'+, -uv+)`
//! per collocation point of the lower half-channel — and produce one
//! [`Check`] per (quantity, region) pair plus global turbulence-structure
//! checks. Every check carries its measured relative error under the
//! `err_rel` name, which the `dns-perfdb` regression store classifies as
//! higher-is-worse, so gate errors join the cross-commit history
//! automatically once `BENCH_validation.json` is ingested.
//!
//! # Error metric and tolerance policy
//!
//! A region's error is the RMS over its collocation points of
//! `|measured - reference| / max(|reference|, floor)`; the floor (1.0
//! wall unit for the mean velocity, 0.5 for the fluctuation
//! intensities) keeps near-wall points, where the reference tends to
//! zero, from dominating an otherwise-fine profile. Structure checks
//! (Re_tau, peak `u'+`, peak `-<u'v'>+`) compare scalars the same way.
//!
//! Two tolerance sets exist ([`Tolerances::smoke`] /
//! [`Tolerances::full`]): the smoke gate bounds a short CI window (a
//! ~1700-step average right after the transition transient clears, on
//! a single minimal-flow-unit box — the finite-window wander of a
//! *correct* run at this scale is several percent in the mean and
//! tens of percent in the variances near their peaks, and the
//! post-transition friction overshoot is still decaying through the
//! window), while the full gate expects a longer, better-settled
//! average (~4000 steps). Both are far wider than the
//! reference reconstruction's own ~2-3% accuracy, so the tables are
//! never the limiting factor; see EXPERIMENTS.md "Figures 5-8" for the
//! calibration runs behind the numbers. A laminar (or relaminarised)
//! field fails both sets structurally: its fluctuations vanish, so the
//! peak checks sit at `err_rel ≈ 1`, and its wall-unit mean profile is
//! a parabola reaching `U+ = Re_tau/2` at the centreline instead of
//! the turbulent ~18.3.

use dns_core::{moser, Params};

/// Parameters of the minimal channel behind figures 5-8 — the
/// laptop-scale stand-in for the paper's `Re_tau = 5200` production run
/// on the same code path: `Re_tau = 180`, box `2.4 x 1.0` half-heights
/// in x/z (430 x 180 wall units — comfortably above the minimal flow
/// unit of Jimenez & Moin 1991), 32 x 65 x 32 modes. Verified to
/// sustain turbulence for thousands of steps; the wall-normal
/// resolution (65 points, mild stretching) is what keeps the turbulent
/// state stable — 49 points is too coarse in the channel core at this
/// Reynolds number, and boxes under ~100 wall units in z intermittently
/// relaminarise.
pub fn minimal_channel_params() -> Params {
    let mut p = Params::channel(32, 65, 32, 180.0);
    p.lx = 2.4;
    p.lz = 1.0;
    p.dt = 5.0e-4;
    p.grid_stretch = 1.9;
    p
}

/// One gate comparison: a named quantity over a named region.
#[derive(Clone, Debug)]
pub struct Check {
    /// Quantity compared (`mean_velocity`, `urms`, `re_tau`, ...).
    pub name: &'static str,
    /// Wall-normal region (`sublayer`, `buffer`, `outer`, `global`).
    pub region: &'static str,
    /// Measured relative error (RMS over the region, or scalar).
    pub err_rel: f64,
    /// Documented bound for this check.
    pub tolerance: f64,
    /// `err_rel <= tolerance`.
    pub pass: bool,
}

impl Check {
    fn new(name: &'static str, region: &'static str, err_rel: f64, tolerance: f64) -> Check {
        Check {
            name,
            region,
            err_rel,
            tolerance,
            pass: err_rel <= tolerance,
        }
    }
}

/// Per-region bounds for one gate strictness level.
#[derive(Clone, Copy, Debug)]
pub struct Tolerances {
    /// Mean velocity, viscous sublayer (`y+ < 5`).
    pub mean_sublayer: f64,
    /// Mean velocity, buffer layer (`5 <= y+ < 30`).
    pub mean_buffer: f64,
    /// Mean velocity, log/outer region (`y+ >= 30`).
    pub mean_outer: f64,
    /// Fluctuation-intensity profiles (`u'+, v'+, w'+, -uv+`) over
    /// `y+ >= 5`.
    pub variance: f64,
    /// Scalar structure checks: measured Re_tau vs 180, peak `u'+` vs
    /// 2.65, peak `-<u'v'>+` vs 0.72.
    pub structure: f64,
}

impl Tolerances {
    /// Bounds for the CI smoke window (a short average taken right
    /// after transition; the friction overshoot is still decaying).
    pub fn smoke() -> Tolerances {
        Tolerances {
            mean_sublayer: 0.10,
            mean_buffer: 0.20,
            mean_outer: 0.15,
            variance: 0.45,
            structure: 0.30,
        }
    }

    /// Bounds for a longer settled average (the default `dns-validate`
    /// window: ~4000 averaged steps starting well past transition).
    pub fn full() -> Tolerances {
        Tolerances {
            mean_sublayer: 0.06,
            mean_buffer: 0.12,
            mean_outer: 0.10,
            variance: 0.30,
            structure: 0.20,
        }
    }
}

/// RMS of `|measured - reference| / max(|reference|, floor)` over the
/// rows selected by `region`; `None` when the region holds no points.
fn region_err(
    rows: &[[f64; 6]],
    region: impl Fn(f64) -> bool,
    measured: impl Fn(&[f64; 6]) -> f64,
    reference: impl Fn(f64) -> f64,
    floor: f64,
) -> Option<f64> {
    let mut sum = 0.0;
    let mut n = 0usize;
    for r in rows {
        let yp = r[0];
        if !region(yp) {
            continue;
        }
        let e = (measured(r) - reference(yp)) / reference(yp).abs().max(floor);
        sum += e * e;
        n += 1;
    }
    (n > 0).then(|| (sum / n as f64).sqrt())
}

/// Evaluate every gate check on wall-folded measured rows (from
/// [`moser::wall_folded`]) with measured friction Reynolds number
/// `re_tau`. Rows outside the reference range (`y+ > 180`) are excluded
/// from profile regions — at smoke scale the box's instantaneous
/// `Re_tau` wanders above the nominal value and the reference table has
/// nothing to compare those points against.
pub fn evaluate(rows: &[[f64; 6]], re_tau: f64, tol: &Tolerances) -> Vec<Check> {
    let mut checks = Vec::new();
    let in_range = |lo: f64, hi: f64| move |yp: f64| yp >= lo && yp < hi && yp <= 180.0;

    let mean = |r: &[f64; 6]| r[1];
    for (region, range, bound) in [
        ("sublayer", in_range(0.0, 5.0), tol.mean_sublayer),
        ("buffer", in_range(5.0, 30.0), tol.mean_buffer),
        ("outer", in_range(30.0, f64::INFINITY), tol.mean_outer),
    ] {
        let err = region_err(rows, range, mean, moser::ref_u_plus, 1.0).unwrap_or(f64::INFINITY);
        checks.push(Check::new("mean_velocity", region, err, bound));
    }

    type Col = fn(&[f64; 6]) -> f64;
    type Ref = fn(f64) -> f64;
    let fluct: [(&'static str, Col, Ref); 4] = [
        ("urms", |r| r[2], moser::ref_urms_plus),
        ("vrms", |r| r[3], moser::ref_vrms_plus),
        ("wrms", |r| r[4], moser::ref_wrms_plus),
        ("reynolds_stress", |r| r[5], moser::ref_uv_plus),
    ];
    for (name, col, reference) in fluct {
        let err = region_err(rows, in_range(5.0, f64::INFINITY), col, reference, 0.5)
            .unwrap_or(f64::INFINITY);
        checks.push(Check::new(name, "profile", err, tol.variance));
    }

    // structure: the flow must actually be turbulent at the right Re_tau
    checks.push(Check::new(
        "re_tau",
        "global",
        (re_tau - moser::REF_RE_TAU).abs() / moser::REF_RE_TAU,
        tol.structure,
    ));
    let peak_in = |col: fn(&[f64; 6]) -> f64, lo: f64, hi: f64| {
        rows.iter()
            .filter(|r| r[0] >= lo && r[0] <= hi)
            .map(col)
            .fold(0.0f64, f64::max)
    };
    let urms_peak = peak_in(|r| r[2], 1.0, 60.0);
    checks.push(Check::new(
        "urms_peak",
        "global",
        (urms_peak - 2.65).abs() / 2.65,
        tol.structure,
    ));
    let uv_peak = peak_in(|r| r[5], 1.0, 120.0);
    checks.push(Check::new(
        "reynolds_stress_peak",
        "global",
        (uv_peak - 0.72).abs() / 0.72,
        tol.structure,
    ));
    checks
}

/// `true` when every check passed.
pub fn all_pass(checks: &[Check]) -> bool {
    checks.iter().all(|c| c.pass)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Rows sampled straight off the reference tables: the gate's "own
    /// oracle" must pass with near-zero error.
    fn reference_rows() -> Vec<[f64; 6]> {
        moser::MEAN_VELOCITY_180
            .iter()
            .zip(moser::FLUCTUATIONS_180)
            .map(|(&(yp, up), &(_, uu, vv, ww, uv))| [yp, up, uu, vv, ww, uv])
            .collect()
    }

    /// A decayed/laminar field in wall units: `U+ = y+ (1 - y+/(2 Re))`
    /// with no fluctuations at all.
    fn laminar_rows(re_tau: f64) -> Vec<[f64; 6]> {
        (0..40)
            .map(|i| {
                let yp = re_tau * (i as f64 + 0.5) / 40.0;
                [yp, yp * (1.0 - yp / (2.0 * re_tau)), 0.0, 0.0, 0.0, 0.0]
            })
            .collect()
    }

    #[test]
    fn reference_passes_both_tolerance_sets() {
        for tol in [Tolerances::smoke(), Tolerances::full()] {
            let checks = evaluate(&reference_rows(), 180.0, &tol);
            assert_eq!(checks.len(), 10);
            assert!(all_pass(&checks), "{checks:?}");
            for c in &checks {
                assert!(c.err_rel < 0.01, "{c:?}");
            }
        }
    }

    #[test]
    fn laminar_field_fails_structurally() {
        // even at the nominal Re_tau, a laminar parabola must fail: the
        // buffer/outer mean profile overshoots and the fluctuation
        // checks collapse to err_rel = 1
        let checks = evaluate(&laminar_rows(180.0), 180.0, &Tolerances::smoke());
        assert!(!all_pass(&checks));
        let by = |n: &str| checks.iter().find(|c| c.name == n).unwrap();
        assert!(!by("urms_peak").pass);
        assert!(!by("reynolds_stress_peak").pass);
        assert!((by("urms_peak").err_rel - 1.0).abs() < 1e-12);
        assert!(!by("mean_velocity").pass || !checks[2].pass); // outer blows up
                                                               // and a *decayed* run also misses the Re_tau target
        let checks = evaluate(&laminar_rows(60.0), 60.0, &Tolerances::smoke());
        assert!(!by_name(&checks, "re_tau").pass);
    }

    fn by_name<'a>(checks: &'a [Check], n: &str) -> &'a Check {
        checks.iter().find(|c| c.name == n).unwrap()
    }

    #[test]
    fn small_perturbations_stay_within_smoke_tolerance() {
        // a few-percent wobble on the reference — the size of real
        // finite-window noise — must NOT trip the gate
        let mut rows = reference_rows();
        for (i, r) in rows.iter_mut().enumerate() {
            let s = if i % 2 == 0 { 1.04 } else { 0.97 };
            for v in r[1..].iter_mut() {
                *v *= s;
            }
        }
        let checks = evaluate(&rows, 171.0, &Tolerances::smoke());
        assert!(all_pass(&checks), "{checks:?}");
    }

    #[test]
    fn gross_mean_profile_error_fails() {
        // 40% low everywhere (e.g. wrong u_tau normalisation)
        let mut rows = reference_rows();
        for r in rows.iter_mut() {
            r[1] *= 0.6;
        }
        let checks = evaluate(&rows, 180.0, &Tolerances::smoke());
        assert!(!by_name(&checks, "mean_velocity").pass);
    }
}
