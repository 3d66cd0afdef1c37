//! Order statistics for timing samples. Every summary carries its sample
//! count, because a median of 5 and a median of 500 are not the same
//! claim.
//!
//! The gated timings are **fastest deciles** ([`fast`]), not medians. The
//! host shares its last-level cache and memory with neighbours whose load
//! comes and goes within seconds; that only ever adds time, so over runs
//! of the same code the median of a run's step walls spreads by 8-20 %,
//! its 10th percentile by 3-7 %, and the latter sits on the quiet-host
//! figure. The median and the tail are printed beside it, ungated.

/// The percentile the gated timings report.
pub const FAST_PERCENTILE: f64 = 10.0;

/// Fastest decile, median, the highest percentile with at least ten
/// samples beyond it, and the sample count.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Summary {
    pub n: usize,
    pub fast: f64,
    pub median: f64,
    /// `(percentile, value)`; `None` when `n` is too small for any
    /// percentile above the median to have ten samples beyond it.
    pub tail: Option<(u32, f64)>,
}

/// Linear-interpolated percentile `p` in `[0, 100]` of `xs` (sorted
/// copy; `NaN` for an empty slice).
pub fn percentile(xs: &[f64], p: f64) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = p.clamp(0.0, 100.0) / 100.0 * (v.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

pub fn median(xs: &[f64]) -> f64 {
    percentile(xs, 50.0)
}

/// The 10th percentile: what the operation costs while the host's
/// neighbours are quiet.
pub fn fast(xs: &[f64]) -> f64 {
    percentile(xs, FAST_PERCENTILE)
}

/// [`fast`] of a series whose samples fall into classes of different
/// cost (a plain loop iteration, one that samples statistics, one that
/// follows a checkpoint): each class at its own fastest decile, weighted
/// by its share of the samples, so the rare expensive iterations keep
/// their weight instead of falling off the slow end.
pub fn classed_fast(xs: &[f64], class_of: impl Fn(usize) -> usize) -> f64 {
    let mut classes: Vec<Vec<f64>> = Vec::new();
    for (i, &x) in xs.iter().enumerate() {
        let c = class_of(i);
        if classes.len() <= c {
            classes.resize(c + 1, Vec::new());
        }
        classes[c].push(x);
    }
    let weighted: f64 = classes
        .iter()
        .filter(|c| !c.is_empty())
        .map(|c| c.len() as f64 * fast(c))
        .sum();
    weighted / xs.len() as f64
}

/// Summarise `xs`: p99 needs n >= 1000, p90 needs n >= 100 — at n = 120
/// the p90 has 12 samples beyond it, the p99 barely one.
pub fn summarize(xs: &[f64]) -> Summary {
    let n = xs.len();
    let tail = [99u32, 95, 90, 75]
        .into_iter()
        .find(|&p| n as f64 * (100 - p) as f64 / 100.0 >= 10.0)
        .map(|p| (p, percentile(xs, p as f64)));
    Summary {
        n,
        fast: fast(xs),
        median: median(xs),
        tail,
    }
}

/// Interquartile range over the median, with the quartiles of Python's
/// `statistics.quantiles(xs, n=4)` (exclusive method) — the spread the
/// driver holds each end-to-end metric to.
pub fn iqr_over_median(xs: &[f64]) -> f64 {
    let n = xs.len();
    if n < 2 {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let q = |k: usize| {
        let pos = k as f64 * (n + 1) as f64 / 4.0;
        let j = (pos.floor() as usize).clamp(1, n - 1);
        let frac = pos - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * frac
    };
    (q(3) - q(1)) / median(&v)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_percentiles_interpolate() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        let xs: Vec<f64> = (1..=101).map(f64::from).collect();
        assert_eq!(percentile(&xs, 90.0), 91.0);
        assert_eq!(percentile(&xs, 0.0), 1.0);
        assert_eq!(percentile(&xs, 100.0), 101.0);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn the_fast_decile_ignores_one_sided_noise_and_keeps_each_class_its_weight() {
        // a quiet cost of 1.0 with a third of the samples disturbed upwards
        let xs: Vec<f64> = (0..90)
            .map(|i| if i % 3 == 0 { 1.5 } else { 1.0 })
            .collect();
        assert_eq!(fast(&xs), 1.0);
        assert_eq!(median(&xs), 1.0);
        assert_eq!(summarize(&xs).fast, 1.0);
        // every 5th iteration costs 2.0: the plain decile drops it, the
        // classed one keeps its 1-in-5 weight
        let xs: Vec<f64> = (0..50)
            .map(|i| if i % 5 == 4 { 2.0 } else { 1.0 })
            .collect();
        assert_eq!(fast(&xs), 1.0);
        assert!((classed_fast(&xs, |i| usize::from(i % 5 == 4)) - 1.2).abs() < 1e-12);
        assert_eq!(classed_fast(&xs, |_| 0), fast(&xs));
    }

    #[test]
    fn tail_percentile_needs_ten_samples_beyond_it() {
        let xs: Vec<f64> = (0..120).map(f64::from).collect();
        let s = summarize(&xs);
        assert_eq!(s.n, 120);
        assert_eq!(s.tail.map(|t| t.0), Some(90)); // 12 beyond p90, 1.2 beyond p99
        assert_eq!(summarize(&xs[..30]).tail, None); // 7.5 beyond p75
        assert_eq!(summarize(&xs[..40]).tail.map(|t| t.0), Some(75));
    }

    #[test]
    fn iqr_matches_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((iqr_over_median(&xs) - (8.25 - 2.75) / 5.5).abs() < 1e-12);
        assert_eq!(iqr_over_median(&[7.0]), 0.0);
    }
}
