//! The collocation operators' band is the one the basis has: across
//! spline orders 4-10, every size from `2 * order - 1` to 200 and tanh
//! stretches 0.5-3 or uniform breakpoints, every nonzero of `B0`, `B1`,
//! `B2` and `deriv_matrix(d)` lies in its row's corner-anchored window,
//! no smaller half-bandwidth would hold them, the corner rows stay within
//! the unpivoted solver's bound, and matvecs and `CornerLu` solves in that
//! band agree with dense references.

use dns_banded::{CornerBanded, CornerLu};
use dns_bspline::{tanh_breakpoints, uniform_breakpoints, BsplineBasis, CollocationOps};
use proptest::prelude::*;

/// Order-`order` basis of `n` functions: uniform breakpoints when
/// `stretch` is `None`, else tanh-stretched.
fn basis(order: usize, n: usize, stretch: Option<f64>) -> BsplineBasis {
    let m = n + 1 - order;
    let breaks = match stretch {
        Some(s) => tanh_breakpoints(m, s),
        None => uniform_breakpoints(m),
    };
    BsplineBasis::new(order, &breaks)
}

/// Per row, the first and last column any derivative of the basis is
/// nonzero in at that row's Greville point.
fn spans(b: &BsplineBasis) -> Vec<(usize, usize)> {
    b.greville()
        .iter()
        .map(|&x| {
            let (first, ders) = b.eval_derivs(x, b.degree());
            let cols: Vec<usize> = (0..=b.degree())
                .filter(|&j| ders.iter().any(|d| d[j] != 0.0))
                .collect();
            (first + cols[0], first + cols[cols.len() - 1])
        })
        .collect()
}

/// Whether half-bandwidth `k` holds `spans` in corner-anchored windows
/// with at most `k` wide rows at each end.
fn holds(spans: &[(usize, usize)], k: usize) -> bool {
    let (n, w) = (spans.len(), 2 * k + 1);
    if n < w {
        return false;
    }
    let mut wide_top = 0;
    let mut wide_bot = 0;
    for (i, &(lo, hi)) in spans.iter().enumerate() {
        let ci = i.saturating_sub(k).min(n - w);
        if lo < ci || hi >= ci + w {
            return false;
        }
        if hi > i + k {
            wide_top = i + 1;
        }
        if lo + k < i {
            wide_bot = wide_bot.max(n - i);
        }
    }
    wide_top <= k && wide_bot <= k
}

fn dense_matvec(n: usize, a: &[f64], x: &[f64]) -> Vec<f64> {
    (0..n)
        .map(|i| (0..n).map(|j| a[i * n + j] * x[j]).sum())
        .collect()
}

/// `|got - want| <= 1e-12 * scale` entry by entry, the scale of row `i`
/// being `sum_j |a_ij x_j|` (at least 1).
fn assert_close(n: usize, a: &[f64], x: &[f64], got: &[f64], want: &[f64], what: &str) {
    for i in 0..n {
        let scale: f64 = (0..n).map(|j| (a[i * n + j] * x[j]).abs()).sum();
        let err = (got[i] - want[i]).abs();
        assert!(err <= 1e-12 * scale.max(1.0), "{what} row {i}: err {err:e}");
    }
}

/// The operator checks of one basis.
fn check(order: usize, n: usize, stretch: Option<f64>) {
    let b = basis(order, n, stretch);
    let ops = CollocationOps::new(&b);
    let (p, geo) = (b.degree(), ops.b0());
    let k = geo.kl();
    let spans = spans(&b);
    let case = format!("order {order} n {n} stretch {stretch:?}");
    // one symmetric band for every operator
    assert_eq!(geo.ku(), k, "{case}");
    assert!(geo.nc_top() <= k && geo.nc_bot() <= k, "{case}");
    let mut ops_d: Vec<CornerBanded> = (0..=p).map(|d| ops.deriv_matrix(d)).collect();
    ops_d.extend([ops.b0().clone(), ops.b1().clone(), ops.b2().clone()]);
    for m in &ops_d {
        let shape = (m.kl(), m.ku(), m.nc_top(), m.nc_bot());
        assert_eq!(shape, (k, k, geo.nc_top(), geo.nc_bot()), "{case}");
    }
    // every nonzero in its row's window, the wide ones in corner rows
    for (i, &(lo, hi)) in spans.iter().enumerate() {
        assert!(
            geo.in_window(i, lo) && geo.in_window(i, hi),
            "{case} row {i}"
        );
        let wide = lo + k < i || hi > i + k;
        let corner = i < geo.nc_top() || i + geo.nc_bot() >= n;
        assert!(!wide || corner, "{case}: row {i} is wide but no corner row");
    }
    // the smallest band that does
    assert!(holds(&spans, k), "{case}");
    let smallest = (p.div_ceil(2)..=p).find(|&k| holds(&spans, k));
    assert_eq!(k, smallest.unwrap_or(p), "{case}");
    // matvecs against the dense operators
    let x: Vec<f64> = (0..n).map(|i| (0.7 * i as f64).sin() + 0.2).collect();
    for m in &ops_d {
        let dense = m.to_dense();
        let mut y = vec![0.0; n];
        m.matvec(&x, &mut y);
        let want = dense_matvec(n, &dense, &x);
        assert_close(n, &dense, &x, &y, &want, &format!("{case} matvec"));
    }
    // solves of B0 and of a Helmholtz operator with Dirichlet rows: the
    // dense operator maps the solution back onto the right-hand side
    let mut helm = ops.combine(1.0 + 0.02 * 9.0, 0.0, -0.02);
    ops.set_boundary_row(&mut helm, 0, -1.0, 0);
    ops.set_boundary_row(&mut helm, n - 1, 1.0, 0);
    for (name, m) in [("B0", ops.b0().clone()), ("Helmholtz", helm)] {
        let dense = m.to_dense();
        let rhs: Vec<f64> = (0..n).map(|i| (1.3 * i as f64).cos()).collect();
        let mut sol = rhs.clone();
        CornerLu::factor(m)
            .expect("collocation operator factors")
            .solve(&mut sol);
        let back = dense_matvec(n, &dense, &sol);
        assert_close(n, &dense, &sol, &back, &rhs, &format!("{case} {name}"));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn the_band_is_the_smallest_that_holds_every_row(
        order in 4usize..11,
        extra in 0usize..201,
        stretch in 0.5f64..3.0,
        uniform in 0usize..5,
    ) {
        let n = (2 * order - 1 + extra).min(200);
        check(order, n, (uniform != 0).then_some(stretch));
    }
}

#[test]
fn the_smallest_sizes_and_the_extreme_stretches_hold() {
    for order in 4..=10 {
        for n in [2 * order - 1, 2 * order, 2 * order + 1, 200] {
            for stretch in [Some(0.5), Some(3.0), None] {
                check(order, n, stretch);
            }
        }
    }
}

#[test]
fn order_8_channel_grids_fold_into_nine_or_eleven_slots() {
    // the channel's tanh grid (stretch 2): k = 4 from ny = 25 up, k = 5
    // at ny = 17
    for (ny, k) in [(17, 5), (25, 4), (33, 4), (49, 4)] {
        let b0 = CollocationOps::new(&basis(8, ny, Some(2.0))).b0().clone();
        assert_eq!((b0.kl(), b0.ku()), (k, k), "ny = {ny}");
    }
}
