//! On-node data reordering: the `A(i,j,k) -> A(j,k,i)` transpose of the
//! paper's section 4.2.
//!
//! This kernel moves every element exactly once and performs no
//! arithmetic, so it runs at memory bandwidth; the paper improves DDR
//! utilisation by splitting it into independent pieces (here: cache
//! blocks, optionally threaded by the caller over the `i` dimension).

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

/// Cache-blocked variant: tiles of `bs x bs` in the (i, k) plane so both
/// the gather and scatter sides stay within cache lines. Called by the
/// Table 4 probe (`dns-scaling`) only: the solver's single-rank
/// route (`TransposePlan::try_run_with`, `p == 1`) is its own strided
/// triple loop, the naive form of this reorder.
pub fn reorder_blocked<T: Copy>(
    a: &[T],
    ni: usize,
    nj: usize,
    nk: usize,
    out: &mut [T],
    bs: usize,
) {
    assert_eq!(a.len(), ni * nj * nk);
    assert_eq!(out.len(), ni * nj * nk);
    assert!(bs >= 1);
    for i0 in (0..ni).step_by(bs) {
        let i1 = (i0 + bs).min(ni);
        for k0 in (0..nk).step_by(bs) {
            let k1 = (k0 + bs).min(nk);
            for j in 0..nj {
                for i in i0..i1 {
                    let src = (i * nj + j) * nk;
                    let dst_base = j * nk * ni + i;
                    for k in k0..k1 {
                        out[dst_base + k * ni] = a[src + k];
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

    #[test]
    fn blocked_matches_naive_across_shapes_and_block_sizes() {
        for (ni, nj, nk) in [
            (4usize, 4usize, 4usize),
            (7, 3, 9),
            (1, 8, 5),
            (16, 1, 16),
            (5, 5, 1),
        ] {
            let a = index_tensor(ni, nj, nk);
            let mut want = vec![0u64; a.len()];
            reorder_naive(&a, ni, nj, nk, &mut want);
            for bs in [1usize, 2, 3, 8, 64] {
                let mut got = vec![0u64; a.len()];
                reorder_blocked(&a, ni, nj, nk, &mut got, bs);
                assert_eq!(got, want, "shape=({ni},{nj},{nk}) bs={bs}");
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
