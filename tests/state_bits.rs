//! Golden bits of the transform pipeline and of the solver state: the
//! fused nonlinear products on four process grids and FNV-1a digests
//! of the prognostic state — after five RK3 steps at 32x33x32 on two
//! grids, and on one rank at the wall-normal sizes 17, 25 and 49 — each
//! rank's output pinned bit for bit (`golden/state_bits.txt`, one
//! `name = digest` line per rank). A layout or kernel change that only
//! moves data must leave every line unedited.

use channel_dns::core_solver::{run_parallel, Params};
use channel_dns::minimpi;
use channel_dns::pfft::{ParallelFft, PfftConfig, Workspace, C64, NL_FIELDS};

/// 64-bit FNV-1a over the little-endian bit patterns of `values`.
fn fnv(values: impl IntoIterator<Item = f64>) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for v in values {
        for b in v.to_bits().to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

fn parts(c: &[C64]) -> impl Iterator<Item = f64> + '_ {
    c.iter().flat_map(|c| [c.re, c.im])
}

/// Per-rank digests of `nonlinear_products` on a `pa x pb` grid: 3/2
/// dealiased, `ny = 7` split unevenly over `pb = 2`, and `pz = 30`
/// physical z lines (15 per rank over `pa = 2`), never a whole number of
/// lane blocks. The input is a fixed function of the global indices.
fn products(pa: usize, pb: usize) -> Vec<u64> {
    minimpi::run(pa * pb, move |world| {
        let p = ParallelFft::new(
            world,
            PfftConfig::customized(16, 7, 20, pa, pb).with_dealias(),
        );
        let (kxb, kzb, ny) = (p.kx_block(), p.kz_block(), p.config().ny);
        let mut uvw = Vec::with_capacity(NL_FIELDS * p.y_pencil_len());
        for kz in kzb.start..kzb.end() {
            for f in 0..NL_FIELDS {
                for kx in kxb.start..kxb.end() {
                    for y in 0..ny {
                        let a = (kz * 7 + kx * 13 + y * 3 + f * 29) as f64 * 0.37;
                        uvw.push(C64::new(a.sin(), 0.5 * (1.3 * a).cos()));
                    }
                }
            }
        }
        let (mut out, mut ws) = (Vec::new(), Workspace::new());
        p.nonlinear_products(&uvw, &mut out, &mut ws);
        fnv(parts(&out))
    })
}

/// Per-rank digests of `u, v, w, omega_y, phi` after `steps` steps from
/// a perturbed laminar profile at `nx x ny x nz` on a `pa x pb` grid.
fn state([nx, ny, nz]: [usize; 3], steps: usize, pa: usize, pb: usize) -> Vec<u64> {
    let params = Params::channel(nx, ny, nz, 180.0).with_grid(pa, pb);
    run_parallel(params, move |dns| {
        dns.set_laminar(1.0);
        dns.add_perturbation(0.3, 9);
        for _ in 0..steps {
            dns.step();
        }
        let s = dns.state();
        let fields = [s.u(), s.v(), s.w(), s.omega_y(), s.phi()];
        fnv(fields.into_iter().flat_map(parts))
    })
}

#[test]
fn products_and_state_equal_the_golden_bits() {
    let mut got = Vec::new();
    for (pa, pb) in [(1, 1), (2, 1), (1, 2), (2, 2)] {
        for (rank, h) in products(pa, pb).into_iter().enumerate() {
            got.push(format!(
                "nonlinear_products {pa}x{pb} rank {rank} = {h:016x}"
            ));
        }
    }
    // 32x33x32 on two grids; then one rank at ny = 17, 25 and 49, the
    // wall-normal sizes whose collocation bands differ
    let cases = [
        ([32, 33, 32], 5, 1, 1),
        ([32, 33, 32], 5, 2, 1),
        ([16, 17, 16], 5, 1, 1),
        ([16, 25, 16], 5, 1, 1),
        ([48, 49, 48], 2, 1, 1),
    ];
    for (size, steps, pa, pb) in cases {
        let [nx, ny, nz] = size;
        for (rank, h) in state(size, steps, pa, pb).into_iter().enumerate() {
            got.push(format!(
                "state {nx}x{ny}x{nz} {steps} steps {pa}x{pb} rank {rank} = {h:016x}"
            ));
        }
    }
    let want: Vec<&str> = include_str!("golden/state_bits.txt").lines().collect();
    assert_eq!(got, want, "got:\n{}", got.join("\n"));
}
