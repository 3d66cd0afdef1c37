//! Grid-invariant bits: the prognostic state gathered by global
//! `(kz, kx, y)` is the same bit pattern on every process grid and every
//! on-node thread count. One FNV-1a digest per step count, pinned; a
//! change to how the pencils are split, exchanged or threaded must leave
//! both unedited.

use channel_dns::core_solver::{run_parallel, Params};
use channel_dns::pfft::C64;

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

/// Digest of `u, v, w, omega_y, phi` after `steps` RK3 steps from a
/// perturbed laminar profile at 32x33x32 on a `pa x pb` grid with
/// `threads` transform threads, gathered by global mode: for every
/// `(kz, kx)` in order, the five fields' `y` lines.
fn digest(pa: usize, pb: usize, threads: usize, steps: usize) -> u64 {
    const FIELDS: usize = 5;
    let (nz, sx, ny) = (32, 16, 33); // sx = nx / 2: the Nyquist mode is elided
    let params = Params::channel(32, ny, nz, 180.0)
        .with_grid(pa, pb)
        .with_fft_threads(threads);
    let owned = run_parallel(params, move |dns| {
        dns.set_laminar(1.0);
        dns.add_perturbation(0.3, 9);
        for _ in 0..steps {
            dns.step();
        }
        let (kzb, kxb) = (dns.pfft().kz_block(), dns.pfft().kx_block());
        let s = dns.state();
        let mut at = Vec::new();
        for (f, field) in [s.u(), s.v(), s.w(), s.omega_y(), s.phi()]
            .into_iter()
            .enumerate()
        {
            // y-pencil layout [kz_loc][kx_loc][y]
            for (i, &c) in field.iter().enumerate() {
                let (y, line) = (i % ny, i / ny);
                let (kx, kz) = (kxb.start + line % kxb.len, kzb.start + line / kxb.len);
                at.push((((kz * sx + kx) * FIELDS + f) * ny + y, c));
            }
        }
        at
    });
    let mut global: Vec<Option<C64>> = vec![None; FIELDS * nz * sx * ny];
    for (g, c) in owned.into_iter().flatten() {
        assert!(global[g].replace(c).is_none(), "mode {g} owned twice");
    }
    fnv(global.into_iter().flat_map(|c| {
        let c = c.expect("every mode is owned by one rank");
        [c.re, c.im]
    }))
}

#[test]
fn the_state_is_one_bit_pattern_on_every_grid_and_thread_count() {
    for (steps, want) in [(1, 0xa01e_9ccf_dfb3_8b19u64), (5, 0x484b_9a0d_04d5_4268)] {
        for (pa, pb, threads) in [
            (1, 1, 1),
            (2, 1, 1),
            (1, 2, 1),
            (2, 2, 1),
            (4, 1, 1),
            (1, 1, 2),
        ] {
            let got = digest(pa, pb, threads, steps);
            assert_eq!(
                got, want,
                "{pa}x{pb}, {threads} thread(s), {steps} step(s): {got:016x}"
            );
        }
    }
}
