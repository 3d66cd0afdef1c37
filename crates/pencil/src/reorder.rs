//! On-node data reordering: the `A(i,j,k) -> A(j,k,i)` transpose of the
//! paper's section 4.2.
//!
//! This kernel moves every element exactly once and performs no
//! arithmetic, so it runs at memory bandwidth; the paper improves DDR
//! utilisation by splitting it into independent pieces (here: cache
//! blocks). [`reorder_blocked`] is the one kernel every pencil transpose
//! that swaps two axes runs ([`crate::TransposePlan`]'s single-rank
//! route and its multi-rank unpack); [`reorder_naive`] is the textbook
//! loop it is checked and timed against.

/// Naive triple loop: `out[(j*nk + k)*ni + i] = a[(i*nj + j)*nk + k]`.
pub fn reorder_naive<T: Copy>(a: &[T], ni: usize, nj: usize, nk: usize, out: &mut [T]) {
    assert_eq!(a.len(), ni * nj * nk);
    assert_eq!(out.len(), ni * nj * nk);
    for i in 0..ni {
        for j in 0..nj {
            for k in 0..nk {
                out[(j * nk + k) * ni + i] = a[(i * nj + j) * nk + k];
            }
        }
    }
}

/// Edge of the square cache blocks of [`reorder_blocked`], chosen by
/// timing the two z<->y reorders inside one 48x49x48 dealiased
/// `nonlinear_products` call (2.7 and 4.5 MB; 2-core Xeon, median of 600
/// calls): 2.6 ms with 32, 3.3 with 64, 3.7 with 16, 3.9 with 8.
pub const TILE: usize = 32;

/// A batch of `nr` plane transposes,
/// `dst[t*dt + r*dr + f] = src[f*sf + r*sr + t]` for `f < nf`, `r < nr`,
/// `t < nt` — the source strides are `[sf, sr]` (`t` contiguous), the
/// destination's `[dt, dr]` (`f` contiguous). Each plane is moved in
/// [`TILE`] x [`TILE`] blocks of its `(f, t)` plane, so a block's source
/// rows and destination rows stay in cache while it is copied. The
/// paper's `A(i,j,k) -> A(j,k,i)` of [`reorder_naive`] is one plane with
/// `f = i`, `t = (j, k)`: `sf = nt = nj*nk`, `dt = ni`.
pub fn reorder_blocked<T: Copy>(
    src: &[T],
    [sf, sr]: [usize; 2],
    dst: &mut [T],
    [dt, dr]: [usize; 2],
    [nf, nr, nt]: [usize; 3],
) {
    for r in 0..nr {
        for f0 in (0..nf).step_by(TILE) {
            for t0 in (0..nt).step_by(TILE) {
                let tl = TILE.min(nt - t0);
                for f in f0..nf.min(f0 + TILE) {
                    let row = &src[f * sf + r * sr + t0..][..tl];
                    let base = t0 * dt + r * dr + f;
                    for (t, &v) in row.iter().enumerate() {
                        dst[base + t * dt] = v;
                    }
                }
            }
        }
    }
}

/// Bytes moved by one reorder of `n` elements of size `sz` (read + write),
/// the quantity the DDR-traffic model in `dns_scaling::model` consumes.
pub fn reorder_bytes(n_elems: usize, sz: usize) -> u64 {
    2 * (n_elems as u64) * (sz as u64)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn index_tensor(ni: usize, nj: usize, nk: usize) -> Vec<u64> {
        (0..ni * nj * nk).map(|x| x as u64).collect()
    }

    #[test]
    fn naive_matches_definition() {
        let (ni, nj, nk) = (3, 4, 5);
        let a = index_tensor(ni, nj, nk);
        let mut out = vec![0u64; a.len()];
        reorder_naive(&a, ni, nj, nk, &mut out);
        for i in 0..ni {
            for j in 0..nj {
                for k in 0..nk {
                    assert_eq!(out[(j * nk + k) * ni + i], a[(i * nj + j) * nk + k]);
                }
            }
        }
    }

    /// Shapes around the tile edge: one element, one tile, a tile and
    /// one, several tiles with a remainder, and a single row or column.
    const EDGES: [usize; 6] = [1, 5, TILE, TILE + 1, 2 * TILE + 3, 3];

    #[test]
    fn blocked_equals_naive_on_one_plane_across_tile_edges() {
        for ni in EDGES {
            for (nj, nk) in [(1, 1), (2, TILE + 1), (3, 7), (1, 2 * TILE + 3)] {
                let a = index_tensor(ni, nj, nk);
                let mut want = vec![0u64; a.len()];
                reorder_naive(&a, ni, nj, nk, &mut want);
                let mut got = vec![u64::MAX; a.len()];
                reorder_blocked(&a, [nj * nk, 0], &mut got, [ni, 0], [ni, 1, nj * nk]);
                assert_eq!(got, want, "shape=({ni},{nj},{nk})");
            }
        }
    }

    #[test]
    fn blocked_batches_match_their_definition_in_both_row_positions() {
        for nf in EDGES {
            for nt in EDGES {
                for nr in [1, 3] {
                    let a = index_tensor(nf, nr, nt);
                    // rows outermost (`[r][f][t]` -> `[r][t][f]`) and rows
                    // in the middle (`[f][r][t]` -> `[t][r][f]`)
                    for (s, d) in [
                        ([nt, nf * nt], [nf, nt * nf]),
                        ([nr * nt, nt], [nr * nf, nf]),
                    ] {
                        let mut got = vec![u64::MAX; a.len()];
                        reorder_blocked(&a, s, &mut got, d, [nf, nr, nt]);
                        for f in 0..nf {
                            for r in 0..nr {
                                for t in 0..nt {
                                    assert_eq!(
                                        got[t * d[0] + r * d[1] + f],
                                        a[f * s[0] + r * s[1] + t],
                                        "nf={nf} nr={nr} nt={nt} f={f} r={r} t={t}"
                                    );
                                }
                            }
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn three_applications_form_the_identity() {
        // (i,j,k)->(j,k,i) is a 3-cycle of the axes
        let (ni, nj, nk) = (4, 6, 5);
        let a = index_tensor(ni, nj, nk);
        let mut b = vec![0u64; a.len()];
        let mut c = vec![0u64; a.len()];
        let mut d = vec![0u64; a.len()];
        reorder_naive(&a, ni, nj, nk, &mut b);
        reorder_naive(&b, nj, nk, ni, &mut c);
        reorder_naive(&c, nk, ni, nj, &mut d);
        assert_eq!(a, d);
    }

    #[test]
    fn byte_accounting() {
        assert_eq!(reorder_bytes(1000, 16), 32_000);
    }
}
