//! Golden bits of the batch transforms: per-rank FNV-1a digests of
//! `forward_batch` / `inverse_batch` over three fields, `forward` /
//! `inverse` over one and the Table 6 `cycle`, on four customized grids
//! and the P3DFFT-like baseline (`golden/transform_bits.txt`, one
//! `name = digest` line per rank). A change that only moves data between
//! the same kernels must leave every line unedited.

use channel_dns::minimpi;
use channel_dns::pfft::{ParallelFft, PfftConfig, C64};

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

/// Physical x-pencil field `f` (`[y_loc][z_loc][px]`), a fixed function
/// of the global indices.
fn physical(p: &ParallelFft, f: usize) -> Vec<f64> {
    let (yb, zb, px) = (p.y_block(), p.zphys_block(), p.config().px());
    let mut data = Vec::with_capacity(p.x_pencil_len());
    for y in yb.start..yb.end() {
        for z in zb.start..zb.end() {
            for x in 0..px {
                let a = (x * 5 + y * 11 + z * 3 + f * 17) as f64 * 0.41;
                data.push(a.sin() + 0.3 * (0.7 * a).cos());
            }
        }
    }
    data
}

/// Spectral y-pencil field `f` (`[kz_loc][kx_loc][ny]`), a fixed function
/// of the global indices.
fn spectral(p: &ParallelFft, f: usize) -> Vec<C64> {
    let (kxb, kzb, ny) = (p.kx_block(), p.kz_block(), p.config().ny);
    let mut data = Vec::with_capacity(p.y_pencil_len());
    for kz in kzb.start..kzb.end() {
        for kx in kxb.start..kxb.end() {
            for y in 0..ny {
                let a = (kz * 7 + kx * 13 + y * 3 + f * 29) as f64 * 0.37;
                data.push(C64::new(a.sin(), 0.5 * (1.3 * a).cos()));
            }
        }
    }
    data
}

/// `(name, per-rank digests)` of every transform entry point on `cfg`.
fn digests(label: &str, cfg: PfftConfig) -> Vec<String> {
    let ranks = minimpi::run(cfg.pa * cfg.pb, move |world| {
        let p = ParallelFft::new(world, cfg);
        let phys: Vec<Vec<f64>> = (0..3).map(|f| physical(&p, f)).collect();
        let spec: Vec<Vec<C64>> = (0..3).map(|f| spectral(&p, f)).collect();
        let phys_refs: Vec<&[f64]> = phys.iter().map(|v| v.as_slice()).collect();
        let spec_refs: Vec<&[C64]> = spec.iter().map(|v| v.as_slice()).collect();
        let fwd = p.forward_batch(&phys_refs);
        let inv = p.inverse_batch(&spec_refs);
        [
            ("forward_batch", fnv(fwd.iter().flat_map(|s| parts(s)))),
            ("inverse_batch", fnv(inv.iter().flatten().copied())),
            ("forward", fnv(parts(&p.forward(&phys[0])))),
            ("inverse", fnv(p.inverse(&spec[0]))),
            ("cycle", fnv(p.cycle(&phys[1]))),
        ]
    });
    let mut lines = Vec::new();
    for (name, _) in ranks[0] {
        for (rank, row) in ranks.iter().enumerate() {
            let h = row.iter().find(|(n, _)| *n == name).expect("digest").1;
            lines.push(format!("{name} {label} rank {rank} = {h:016x}"));
        }
    }
    lines
}

#[test]
fn batch_transforms_equal_the_golden_bits() {
    let mut got = Vec::new();
    for (pa, pb) in [(1, 1), (2, 1), (1, 2), (2, 2)] {
        let cfg = PfftConfig::customized(16, 7, 20, pa, pb).with_dealias();
        got.extend(digests(&format!("customized {pa}x{pb}"), cfg));
    }
    let baseline = PfftConfig::p3dfft_baseline(16, 7, 20, 2, 2);
    got.extend(digests("baseline 2x2", baseline));
    let want: Vec<&str> = include_str!("golden/transform_bits.txt").lines().collect();
    assert_eq!(got, want, "got:\n{}", got.join("\n"));
}
