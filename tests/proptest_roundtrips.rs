//! Property-based tests of the core numerical invariants, across crates.

use channel_dns::banded::testmat::CollocationLike;
use channel_dns::banded::{BandedLu, BandedMatrix, CornerBanded, CornerLu, DenseLu};
use channel_dns::bspline::{tanh_breakpoints, BsplineBasis, CollocationOps};
use channel_dns::fft::dealias::{pad_full, pad_half, truncate_full, truncate_half};
use channel_dns::fft::{CfftPlan, Direction, Lanes, RealLayout, RfftPlan, C64, LANES};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// forward + unnormalised inverse = n * identity, any length
    #[test]
    fn cfft_roundtrip(n in 1usize..200, seed in any::<u64>()) {
        let data = rand_complex(n, seed);
        let fwd = CfftPlan::new(n, Direction::Forward);
        let inv = CfftPlan::new(n, Direction::Inverse);
        let mut x = data.clone();
        let mut scratch = fwd.make_scratch();
        fwd.execute(&mut x, &mut scratch);
        inv.execute(&mut x, &mut scratch);
        for (a, b) in x.iter().zip(&data) {
            prop_assert!((a / n as f64 - b).norm() < 1e-9);
        }
    }

    /// Parseval for every length
    #[test]
    fn cfft_parseval(n in 1usize..160, seed in any::<u64>()) {
        let data = rand_complex(n, seed);
        let time: f64 = data.iter().map(|v| v.norm_sqr()).sum();
        let plan = CfftPlan::new(n, Direction::Forward);
        let mut x = data;
        let mut scratch = plan.make_scratch();
        plan.execute(&mut x, &mut scratch);
        let freq: f64 = x.iter().map(|v| v.norm_sqr()).sum::<f64>() / n as f64;
        prop_assert!((time - freq).abs() < 1e-8 * time.max(1.0));
    }

    /// real transform roundtrip for every even length
    #[test]
    fn rfft_roundtrip(h in 1usize..100, seed in any::<u64>()) {
        let n = 2 * h;
        let data: Vec<f64> = rand_complex(n, seed).into_iter().map(|c| c.re).collect();
        let plan = RfftPlan::new(n, RealLayout::WithNyquist);
        let mut spec = vec![C64::new(0.0, 0.0); plan.spectrum_len()];
        let mut back = vec![0.0; n];
        let mut scratch = plan.make_scratch();
        plan.forward(&data, &mut spec, &mut scratch);
        plan.inverse(&spec, &mut back, &mut scratch);
        for (a, b) in back.iter().zip(&data) {
            prop_assert!((a / n as f64 - b).abs() < 1e-10);
        }
    }

    /// lane-blocked multi-line transforms equal the single-line transform
    /// bit for bit: any length (smooth, odd-prime radix, Bluestein), any
    /// line count (partial last block), both directions
    #[test]
    fn cfft_lanes_equal_single_lines_bitwise(
        n in 1usize..150,
        lines in 1usize..(3 * LANES + 2),
        inverse in any::<bool>(),
        seed in any::<u64>(),
    ) {
        let dir = if inverse { Direction::Inverse } else { Direction::Forward };
        let plan = CfftPlan::new(n, dir);
        let mut scratch = plan.make_scratch();
        let mut many = rand_complex(lines * n, seed);
        let mut single = many.clone();
        for line in single.chunks_exact_mut(n) {
            plan.execute(line, &mut scratch);
        }
        plan.execute_many(&mut many, &mut scratch);
        prop_assert!(same_bits(&many, &single), "execute_many n={} lines={}", n, lines);
    }

    /// ... and so does the entry with the 3/2-rule pad / truncate + scale
    /// fused into its gather and scatter, with padding and without
    #[test]
    fn cfft_dealiased_lanes_equal_single_lines_bitwise(
        half in 1usize..70,
        lines in 1usize..(3 * LANES + 2),
        inverse in any::<bool>(),
        padded in any::<bool>(),
        seed in any::<u64>(),
    ) {
        let modes = 2 * half;
        let n = if padded { 2 * (3 * half).div_ceil(2) } else { modes };
        let scale = if inverse { 1.0 } else { 1.0 / n as f64 };
        let mut line = vec![C64::new(0.0, 0.0); n];
        let mut want = Vec::new();
        let (plan, src) = if inverse {
            let plan = CfftPlan::new(n, Direction::Inverse);
            let mut scratch = plan.make_scratch();
            let src = rand_complex(lines * modes, seed);
            for s in src.chunks_exact(modes) {
                pad_full(s, &mut line);
                plan.execute(&mut line, &mut scratch);
                want.extend_from_slice(&line);
            }
            (plan, src)
        } else {
            let plan = CfftPlan::new(n, Direction::Forward);
            let mut scratch = plan.make_scratch();
            let src = rand_complex(lines * n, seed);
            let mut kept = vec![C64::new(0.0, 0.0); modes];
            for s in src.chunks_exact(n) {
                line.copy_from_slice(s);
                plan.execute(&mut line, &mut scratch);
                for v in line.iter_mut() {
                    *v *= scale;
                }
                truncate_full(&line, &mut kept);
                want.extend_from_slice(&kept);
            }
            (plan, src)
        };
        let mut got = vec![C64::new(9.0, 9.0); want.len()];
        plan.execute_dealiased(&src, modes, &mut got, scale, &mut plan.make_scratch());
        prop_assert!(same_bits(&got, &want), "n={} modes={} lines={} inverse={}", n, modes, lines, inverse);
    }

    /// the lane-blocked real transforms (pad_half / truncate_half + scale
    /// fused) on interleaved lines (coefficient k of line l at
    /// k * stride + l) equal the single-line ones bit for bit, both layouts
    #[test]
    fn rfft_lanes_equal_single_lines_bitwise(
        h in 1usize..80,
        lines in 1usize..(LANES + 1),
        gap in 0usize..4,
        elide in any::<bool>(),
        padded in any::<bool>(),
        seed in any::<u64>(),
    ) {
        let n = 2 * h;
        let layout = if elide { RealLayout::ElideNyquist } else { RealLayout::WithNyquist };
        let plan = RfftPlan::new(n, layout);
        let full = plan.spectrum_len();
        let modes = if padded { (2 * full / 3).max(1) } else { full };
        let stride = lines + gap;
        let slots = (modes - 1) * stride + lines;
        let mut scratch = plan.make_scratch();
        // synthesis: line l is coefficient k at src[k * stride + l]
        let src = rand_complex(slots, seed);
        let mut phys = vec![Lanes([3.0; LANES]); n];
        plan.inverse_lanes(&src, modes, stride, &mut phys, &mut scratch);
        let mut spec = vec![C64::new(0.0, 0.0); full];
        let mut line = vec![C64::new(0.0, 0.0); modes];
        let mut real = vec![0.0; n];
        for l in 0..lines {
            for (k, c) in line.iter_mut().enumerate() {
                *c = src[k * stride + l];
            }
            pad_half(&line, &mut spec);
            plan.inverse(&spec, &mut real, &mut scratch);
            for j in 0..n {
                prop_assert!(phys[j].0[l].to_bits() == real[j].to_bits(), "inverse n={} l={} j={}", n, l, j);
            }
        }
        // analysis of what came out (lanes past `lines` are zero)
        let scale = 1.0 / n as f64;
        let mut got = vec![C64::new(9.0, 9.0); slots];
        plan.forward_lanes(&phys, &mut got, modes, stride, scale, &mut scratch);
        for l in 0..lines {
            for j in 0..n {
                real[j] = phys[j].0[l];
            }
            plan.forward(&real, &mut spec, &mut scratch);
            truncate_half(&spec, &mut line);
            let g: Vec<C64> = (0..modes).map(|k| got[k * stride + l]).collect();
            let want: Vec<C64> = line.iter().map(|v| v * scale).collect();
            prop_assert!(same_bits(&g, &want), "forward n={} l={}", n, l);
        }
    }

    /// 3/2-rule pad then truncate is the identity on dealiased spectra
    #[test]
    fn dealias_pad_truncate_identity(quarter in 1usize..25, seed in any::<u64>()) {
        // grids are multiples of 4 so the 3/2-padded size stays even,
        // exactly as the solver requires
        let n = 4 * quarter;
        let half = n / 2;
        let mut spec = rand_complex(n, seed);
        spec[half] = C64::new(0.0, 0.0); // no Nyquist in the solution basis
        let m = 3 * n / 2;
        let mut padded = vec![C64::new(0.0, 0.0); m];
        pad_full(&spec, &mut padded);
        let mut back = vec![C64::new(0.0, 0.0); n];
        truncate_full(&padded, &mut back);
        for (a, b) in back.iter().zip(&spec) {
            prop_assert!((a - b).norm() < 1e-15);
        }
    }

    /// corner-folded custom LU equals dense LU on random diagonally
    /// dominant corner matrices
    #[test]
    fn corner_lu_matches_dense(
        n in 8usize..40,
        kl in 1usize..5,
        ku in 1usize..5,
        seed in any::<u64>(),
    ) {
        prop_assume!(n > kl + ku);
        let m = random_corner(n, kl, ku, seed);
        let dense = DenseLu::factor(n, &m.to_dense()).unwrap();
        let rhs: Vec<f64> = rand_complex(n, seed ^ 0xABCD).into_iter().map(|c| c.re).collect();
        let lu = CornerLu::factor(m).unwrap();
        let mut x1 = rhs.clone();
        let mut x2 = rhs;
        lu.solve(&mut x1);
        dense.solve(&mut x2);
        for (a, b) in x1.iter().zip(&x2) {
            prop_assert!((a - b).abs() < 1e-7);
        }
    }

    /// general pivoted banded LU equals dense LU on arbitrary random
    /// band shapes (no dominance needed: pivoting)
    #[test]
    fn general_banded_matches_dense(
        n in 5usize..30,
        kl in 0usize..4,
        ku in 0usize..4,
        seed in any::<u64>(),
    ) {
        let mut a = BandedMatrix::<f64>::zeros(n, kl, ku);
        let vals = rand_complex(n * (kl + ku + 1), seed);
        let mut idx = 0;
        for i in 0..n {
            for j in i.saturating_sub(kl)..=(i + ku).min(n - 1) {
                let mut v = vals[idx].re;
                idx += 1;
                if i == j {
                    // keep comfortably invertible
                    v += if v >= 0.0 { 2.0 } else { -2.0 };
                }
                a.set(i, j, v);
            }
        }
        let dense = DenseLu::factor(n, &a.to_dense());
        let banded = BandedLu::factor(&a);
        prop_assume!(dense.is_ok() && banded.is_ok());
        let rhs: Vec<f64> = rand_complex(n, seed ^ 0x1234).into_iter().map(|c| c.im).collect();
        let mut x1 = rhs.clone();
        let mut x2 = rhs;
        banded.unwrap().solve(&mut x1);
        dense.unwrap().solve(&mut x2);
        for (a, b) in x1.iter().zip(&x2) {
            prop_assert!((a - b).abs() < 1e-6 * (1.0 + b.abs()));
        }
    }

    /// the three Table 1 solvers agree on the collocation-like matrix
    /// for every odd bandwidth
    #[test]
    fn table1_solvers_agree(p in 1usize..8, seed in any::<u64>()) {
        let bw = 2 * p + 1;
        let mut cfg = CollocationLike::table1(bw);
        cfg.n = 64; // keep the property fast
        cfg.seed = seed;
        let rhs = cfg.rhs();
        let lu_c = CornerLu::factor(cfg.corner()).unwrap();
        let lu_z = BandedLu::factor(&cfg.general::<C64>()).unwrap();
        let mut a = rhs.clone();
        let mut b = rhs;
        lu_c.solve_complex(&mut a);
        lu_z.solve(&mut b);
        for (x, y) in a.iter().zip(&b) {
            prop_assert!((x - y).norm() < 1e-7);
        }
    }

    /// spline interpolation reproduces any polynomial below the order
    #[test]
    fn spline_interpolates_polynomials(
        order in 4usize..9,
        m in 4usize..16,
        coeffs in prop::collection::vec(-2.0f64..2.0, 1..8),
    ) {
        prop_assume!(coeffs.len() < order);
        prop_assume!(m >= order); // basis must cover the collocation bandwidth
        let basis = BsplineBasis::new(order, &tanh_breakpoints(m, 1.5));
        let ops = CollocationOps::new(&basis);
        let poly = |y: f64| coeffs.iter().rev().fold(0.0, |acc, c| acc * y + c);
        let vals: Vec<f64> = ops.points().iter().map(|&y| poly(y)).collect();
        let c = ops.interpolate(&vals);
        for &y in &[-0.97, -0.5, 0.03, 0.61, 0.98] {
            prop_assert!((basis.eval(&c, y) - poly(y)).abs() < 1e-8);
        }
    }

    /// partition of unity at arbitrary evaluation points
    #[test]
    fn spline_partition_of_unity(
        order in 2usize..9,
        m in 2usize..20,
        x in -1.0f64..1.0,
    ) {
        let basis = BsplineBasis::new(order, &tanh_breakpoints(m, 2.0));
        let (_, vals) = basis.eval_nonzero(x);
        let s: f64 = vals.iter().sum();
        prop_assert!((s - 1.0).abs() < 1e-12);
    }
}

fn same_bits(a: &[C64], b: &[C64]) -> bool {
    a.len() == b.len()
        && a.iter()
            .zip(b)
            .all(|(x, y)| x.re.to_bits() == y.re.to_bits() && x.im.to_bits() == y.im.to_bits())
}

fn rand_complex(n: usize, seed: u64) -> Vec<C64> {
    let mut state = seed | 1;
    (0..n)
        .map(|_| {
            let mut next = || {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                (state >> 11) as f64 / (1u64 << 53) as f64 - 0.5
            };
            C64::new(next(), next())
        })
        .collect()
}

fn random_corner(n: usize, kl: usize, ku: usize, seed: u64) -> CornerBanded {
    let nc_top = 1.min(kl);
    let nc_bot = 1.min(ku);
    let mut m = CornerBanded::zeros(n, kl, ku, nc_top, nc_bot);
    let w = kl + ku + 1;
    let vals = rand_complex(n * w, seed);
    let mut idx = 0;
    for i in 0..n {
        let ci = m.col_start(i);
        let wide = i < nc_top || i + nc_bot >= n;
        for j in ci..ci + w {
            let in_band = j + kl >= i && j <= i + ku;
            if in_band || wide {
                let v = if i == j {
                    5.0 + w as f64 + vals[idx].re
                } else {
                    vals[idx].re
                };
                m.set(i, j, v);
            }
            idx += 1;
        }
    }
    m
}
