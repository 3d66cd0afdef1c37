//! The wall-normal stages' per-lane loops as lane kernels, one
//! [`LANES`]-wide panel block at a time: each body is the per-mode `C64`
//! expression per lane, so the operations and their order are the scalar
//! loop's (no FMA, divides kept), under [`isa_fn!`] for the build target
//! and AVX2 alike.

use dns_fft::isa_fn;
use dns_fft::lanes::{LaneRow, LANES};

use crate::C64;

/// `[kx, kz]` of a panel block's lanes (zero in lanes without a mode).
pub(crate) type Waves = [[f64; LANES]; 2];

/// `h_g = kx kz (A - B) + (kz^2 - kx^2) uw - ikz D(uv) + ikx D(vw)` and
/// `G = kx^2 A + kz^2 B + 2 kx kz uw - ikx D(uv) - ikz D(vw)` of a block.
#[inline(always)]
fn assemble_g_body(
    [kx, kz]: &Waves,
    [a, uw, b, d1, d2]: [&[LaneRow]; 5],
    h_g: &mut [LaneRow],
    g: &mut [LaneRow],
) {
    let n = h_g.len();
    let (g, a, uw, b, d1, d2) = (&mut g[..n], &a[..n], &uw[..n], &b[..n], &d1[..n], &d2[..n]);
    for j in 0..n {
        for l in 0..LANES {
            let (kx, kz) = (kx[l], kz[l]);
            let (ikx, ikz) = (C64::new(0.0, kx), C64::new(0.0, kz));
            let (a, uw, bb) = (a[j].get(l), uw[j].get(l), b[j].get(l));
            let (d1, d2) = (d1[j].get(l), d2[j].get(l));
            let h = kx * kz * (a - bb) + (kz * kz - kx * kx) * uw - ikz * d1 + ikx * d2;
            h_g[j].set(l, h);
            g[j].set(
                l,
                kx * kx * a + kz * kz * bb + 2.0 * kx * kz * uw - ikx * d1 - ikz * d2,
            );
        }
    }
}

/// `h_v = -D(G) + k^2 (ikx uv + ikz vw)` of a block.
#[inline(always)]
fn assemble_v_body([kx, kz]: &Waves, [dg, uv, vw]: [&[LaneRow]; 3], h_v: &mut [LaneRow]) {
    let n = h_v.len();
    let (dg, uv, vw) = (&dg[..n], &uv[..n], &vw[..n]);
    for j in 0..n {
        for l in 0..LANES {
            let (kx, kz) = (kx[l], kz[l]);
            let (ikx, ikz, k2) = (C64::new(0.0, kx), C64::new(0.0, kz), kx * kx + kz * kz);
            let (uv, vw) = (uv[j].get(l), vw[j].get(l));
            h_v[j].set(l, -dg[j].get(l) + k2 * (ikx * uv + ikz * vw));
        }
    }
}

/// `u = (ikx v' - ikz omega_y) / k^2`, `w = (ikz v' + ikx omega_y) / k^2`
/// of a block from `v' = dv/dy` and `omega_y`.
#[inline(always)]
fn recover_uw_body(
    [kx, kz]: &Waves,
    k2: &[f64; LANES],
    [vy, om]: [&[LaneRow]; 2],
    u: &mut [LaneRow],
    w: &mut [LaneRow],
) {
    let n = u.len();
    let (w, vy, om) = (&mut w[..n], &vy[..n], &om[..n]);
    for j in 0..n {
        for l in 0..LANES {
            let (ikx, ikz) = (C64::new(0.0, kx[l]), C64::new(0.0, kz[l]));
            let (vy, om) = (vy[j].get(l), om[j].get(l));
            u[j].set(l, (ikx * vy - ikz * om) / k2[l]);
            w[j].set(l, (ikz * vy + ikx * om) / k2[l]);
        }
    }
}

isa_fn! {
    /// [`assemble_g_body`] under `isa`.
    fn assemble_g(waves: &Waves, products: [&[LaneRow]; 5], h_g: &mut [LaneRow], g: &mut [LaneRow]) = assemble_g_body
}

isa_fn! {
    /// [`assemble_v_body`] under `isa`.
    fn assemble_v(waves: &Waves, terms: [&[LaneRow]; 3], h_v: &mut [LaneRow]) = assemble_v_body
}

isa_fn! {
    /// [`recover_uw_body`] under `isa`.
    fn recover_uw(waves: &Waves, k2: &[f64; LANES], vy_om: [&[LaneRow]; 2], u: &mut [LaneRow], w: &mut [LaneRow]) = recover_uw_body
}

#[cfg(test)]
mod tests {
    use super::*;
    use dns_fft::lanes::Isa;

    /// `n` rows of pseudo-random lanes, zero in lanes `from..`.
    fn block(n: usize, seed: u64, from: usize) -> Vec<LaneRow> {
        let mut s = seed;
        let mut next = move || {
            s = s
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (s >> 11) as f64 / (1u64 << 53) as f64 - 0.5
        };
        let mut rows = vec![LaneRow::ZERO; n];
        for row in &mut rows {
            for l in 0..from {
                row.set(l, C64::new(next(), next()));
            }
        }
        rows
    }

    fn bits(blocks: &[&[LaneRow]]) -> Vec<u64> {
        let parts = blocks
            .iter()
            .flat_map(|b| b.iter().flat_map(|r| r.re.0.iter().chain(&r.im.0)));
        parts.map(|v| v.to_bits()).collect()
    }

    /// Every kernel's output bits under `isa`: lane 0 a mean-like mode
    /// (`kx = kz = 0`, `k^2 = 0`), lanes 1..6 regular, lanes 6 and 7 pads
    /// (zero data, zero wavenumbers, the dummy `k^2 = 1`).
    fn run(isa: Isa) -> Vec<u64> {
        let n = 33;
        let kx = [0.0, 1.0, 2.0, 0.0, 3.0, 5.0, 0.0, 0.0];
        let kz = [0.0, 0.0, -2.0, 4.0, 6.0, -6.0, 0.0, 0.0];
        let k2 = std::array::from_fn(|l| {
            if l >= 6 {
                1.0
            } else {
                kx[l] * kx[l] + kz[l] * kz[l]
            }
        });
        let waves = [kx, kz];
        let ins: Vec<Vec<LaneRow>> = (0..5).map(|s| block(n, 11 + s, 6)).collect();
        let ins: [&[LaneRow]; 5] = std::array::from_fn(|i| &ins[i][..]);
        let (mut h_g, mut g, mut h_v) = (block(n, 1, 8), block(n, 2, 8), block(n, 3, 8));
        let (mut u, mut w) = (block(n, 4, 8), block(n, 5, 8));
        assemble_g(isa, &waves, ins, &mut h_g, &mut g);
        assemble_v(isa, &waves, [&g, ins[1], ins[3]], &mut h_v);
        recover_uw(isa, &waves, &k2, [ins[0], ins[2]], &mut u, &mut w);
        for j in 0..n {
            for l in 0..LANES {
                let (ikx, ikz, k2) = (C64::new(0.0, kx[l]), C64::new(0.0, kz[l]), k2[l]);
                let (vy, om) = (ins[0][j].get(l), ins[2][j].get(l));
                let want = [(ikx * vy - ikz * om) / k2, (ikz * vy + ikx * om) / k2];
                let got = [u[j].get(l), w[j].get(l)];
                let as_bits = |c: [C64; 2]| c.map(|c| [c.re.to_bits(), c.im.to_bits()]);
                assert_eq!(
                    as_bits(got),
                    as_bits(want),
                    "{isa:?} recovery row {j} lane {l}"
                );
            }
        }
        assert!(
            u[0].re[0].is_nan(),
            "0 / 0 in the zero-k^2 lane, as the scalar divide"
        );
        bits(&[&h_g, &g, &h_v, &u, &w])
    }

    #[test]
    fn lane_kernels_agree_across_instruction_sets() {
        let want = run(Isa::detect());
        assert_eq!(run(Isa::BASELINE), want);
        // the pad lanes of zero data stay zero through the assembly
        let n = 33 * LANES * 2;
        let pads = (0..3 * n).filter(|i| i % LANES >= 6).map(|i| want[i]);
        assert!(pads.clone().count() > 0 && pads.map(f64::from_bits).all(|v| v == 0.0));
    }
}
