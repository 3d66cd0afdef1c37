//! Property tests: batched panel solves agree with the scalar corner
//! solver across random bandwidths, corner structures and panel widths
//! (ISSUE: 1..64, corner and corner-free operators, 1e-12), the
//! threaded panel path is bitwise identical to the serial one, the
//! shared-operator panel sweeps equal the scalar kernels bit for bit, and
//! lane-assembled, lane-factored operators solve to the bits of the
//! scalar assemble -> factor -> solve route.
//!
//! Seeds are derived deterministically from the vendored proptest
//! `TestRng` — no wall clock anywhere, so failures replay exactly.

use dns_banded::{BatchedFactor, CornerBanded, CornerLu, LaneBand, RhsPanel, C64, LANES};
use proptest::prelude::*;

/// Splitmix-style deterministic stream in [-0.5, 0.5).
fn rng_stream(seed: u64) -> impl FnMut() -> f64 {
    let mut state = seed.wrapping_mul(0x9E3779B97F4A7C15) | 1;
    move || {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (state >> 11) as f64 / (1u64 << 53) as f64 - 0.5
    }
}

/// Diagonally dominant corner-banded matrix with `nc` wide rows at each
/// end (zero for a corner-free band), entries drawn from `seed`.
fn random_operator(n: usize, kl: usize, ku: usize, nc: usize, seed: u64) -> CornerBanded {
    let mut next = rng_stream(seed);
    let nc_top = nc.min(kl);
    let nc_bot = nc.min(ku);
    let mut m = CornerBanded::zeros(n, kl, ku, nc_top, nc_bot);
    let w = kl + ku + 1;
    for i in 0..n {
        let ci = m.col_start(i);
        let wide = i < nc_top || i + nc_bot >= n;
        for j in ci..ci + w {
            let in_band = j + kl >= i && j <= i + ku;
            if in_band || wide {
                let v = if i == j {
                    6.0 + w as f64 + next()
                } else {
                    next()
                };
                m.set(i, j, v);
            }
        }
    }
    m
}

fn random_rhs(n: usize, seed: u64) -> Vec<C64> {
    let mut next = rng_stream(seed);
    (0..n).map(|_| C64::new(next(), next())).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn batched_panel_matches_scalar_solver(
        n in 18usize..80,
        kl in 1usize..8,
        ku in 1usize..8,
        nc in 0usize..3,
        width in 1usize..65,
        seed in 0u64..(1u64 << 48),
    ) {
        // the corner fold anchors the last `w` rows; keep them clear of
        // the top corners so the shape stays well-posed
        prop_assume!(n >= 2 * (kl + ku + 1));

        // one distinct operator and RHS per panel column
        let mats: Vec<CornerBanded> = (0..width)
            .map(|m| random_operator(n, kl, ku, nc, seed ^ (m as u64)))
            .collect();
        let lus: Vec<CornerLu> = mats
            .iter()
            .map(|m| CornerLu::factor(m.clone()).expect("dominant operator factors"))
            .collect();
        let batch = BatchedFactor::factor(mats).expect("batch factors");

        let rhs: Vec<Vec<C64>> = (0..width)
            .map(|m| random_rhs(n, seed.rotate_left(17) ^ (m as u64)))
            .collect();
        let mut panel = RhsPanel::new(n, width);
        for (m, col) in rhs.iter().enumerate() {
            panel.load_col(m, col);
        }
        let mut threaded = panel.clone();
        batch.solve_panel(&mut panel);
        batch.solve_panel_threaded(&mut threaded, 2);

        for (m, col) in rhs.iter().enumerate() {
            let mut x = col.clone();
            lus[m].solve_complex(&mut x);
            for (j, xs) in x.iter().enumerate() {
                let rel = (panel.at(j, m) - xs).norm() / (1.0 + xs.norm());
                prop_assert!(
                    rel < 1e-12,
                    "batched/scalar drift {rel:.3e} at n={n} kl={kl} ku={ku} \
                     nc={nc} width={width} col={m} row={j}"
                );
                // same kernel, different work distribution: bitwise
                prop_assert_eq!(panel.at(j, m), threaded.at(j, m));
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn shared_operator_panels_equal_the_scalar_kernels_bitwise(
        n in 18usize..80,
        kl in 1usize..8,
        ku in 1usize..8,
        nc in 0usize..3,
        width in 1usize..34,
        seed in 0u64..(1u64 << 48),
    ) {
        prop_assume!(n >= 2 * (kl + ku + 1));
        let a = random_operator(n, kl, ku, nc, seed);
        let lu = CornerLu::factor(a.clone()).expect("dominant operator factors");
        let cols: Vec<Vec<C64>> = (0..width)
            .map(|m| random_rhs(n, seed.rotate_left(23) ^ (m as u64)))
            .collect();
        let mut x = RhsPanel::new(n, width);
        for (m, col) in cols.iter().enumerate() {
            x.load_col(m, col);
        }
        let mut y = RhsPanel::new(n, width);
        a.matvec_panel(&x, &mut y);
        lu.solve_panel(&mut x);
        for (m, col) in cols.into_iter().enumerate() {
            let mut ax = vec![C64::new(0.0, 0.0); n];
            a.matvec_complex(&col, &mut ax);
            prop_assert_eq!(y.col_to_vec(m), ax);
            let mut sol = col;
            lu.solve_complex(&mut sol);
            prop_assert_eq!(x.col_to_vec(m), sol);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn lane_built_operators_solve_to_the_scalar_bits(
        n in 18usize..80,
        kl in 1usize..8,
        ku in 1usize..8,
        nc in 0usize..3,
        width in 1usize..34,
        seed in 0u64..(1u64 << 48),
    ) {
        prop_assume!(n >= 2 * (kl + ku + 1));
        let w = kl + ku + 1;
        let b0 = random_operator(n, kl, ku, nc, seed);
        let b2 = random_operator(n, kl, ku, nc, seed.rotate_left(7));
        let mut next = rng_stream(seed.rotate_left(29));
        let c = next();
        // in-band wall rows: the diagonal and one neighbour
        let (mut top, mut bot) = (vec![0.0; w], vec![0.0; w]);
        (top[0], top[1]) = (4.0 + next(), next());
        (bot[w - 1], bot[w - 2]) = (4.0 + next(), next());
        let a: Vec<f64> = (0..width.div_ceil(LANES) * LANES).map(|_| 1.5 + next()).collect();

        let mut batch = BatchedFactor::zeros(n, kl, ku, width);
        let mut band = LaneBand::new(n, kl, ku);
        let rhs: Vec<Vec<C64>> = (0..width)
            .map(|m| random_rhs(n, seed.rotate_left(13) ^ (m as u64)))
            .collect();
        let mut panel = RhsPanel::new(n, width);
        for (m, col) in rhs.iter().enumerate() {
            panel.load_col(m, col);
        }
        let mut divided = panel.clone();
        for (blk, lanes) in a.chunks_exact(LANES).enumerate() {
            let lanes: &[f64; LANES] = lanes.try_into().expect("whole blocks");
            band.assemble(&b0, &b2, lanes, c, [&top, &bot]);
            band.factor().expect("dominant operators factor");
            batch.set_block(blk, &band);
            band.solve(divided.block_mut(blk));
        }
        batch.solve_panel(&mut panel);

        for (m, col) in rhs.into_iter().enumerate() {
            // the scalar route, entry by entry
            let mut op = CornerBanded::zeros(n, kl, ku, nc.min(kl), nc.min(ku));
            for i in 0..n {
                let ci = op.col_start(i);
                for j in ci..ci + w {
                    let v = match i {
                        0 => top[j - ci],
                        i if i == n - 1 => bot[j - ci],
                        _ => a[m] * b0.get(i, j) + c * b2.get(i, j),
                    };
                    op.set(i, j, v);
                }
            }
            let lu = CornerLu::factor(op).expect("dominant operator factors");
            let (mut re, mut im): (Vec<f64>, Vec<f64>) = col.iter().map(|v| (v.re, v.im)).unzip();
            lu.solve(&mut re);
            lu.solve(&mut im);
            let mut sol = col;
            lu.solve_complex(&mut sol);
            prop_assert_eq!(panel.col_to_vec(m), sol);
            let want: Vec<C64> = re.iter().zip(&im).map(|(&r, &i)| C64::new(r, i)).collect();
            prop_assert_eq!(divided.col_to_vec(m), want);
        }
    }
}
