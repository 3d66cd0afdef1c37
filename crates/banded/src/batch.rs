//! Batched multi-RHS solves against packed corner-banded factors.
//!
//! The paper's Table 1 speedup comes from *amortisation*: each implicit
//! wall-normal solve of the channel DNS applies one banded operator per
//! Fourier mode `(kx, kz)`, and every operator on a rank shares the same
//! band structure (same `n`, `kl`, `ku` — only the Helmholtz shift
//! `1 + c k²` differs). Sweeping the modes one at a time, as
//! [`CornerLu::solve_complex`] does, makes the backward substitution a
//! serial dependence chain of length `n` with a handful of flops per
//! step — latency-bound. This module restructures the solve so the mode
//! index is the *innermost*, stride-1 loop:
//!
//! * [`RhsPanel`] — a structure-of-arrays panel of `width` complex
//!   right-hand sides, stored in blocks of [`LANES`] modes so each
//!   row/part slab is exactly one cache line of `f64`s;
//! * [`BatchedFactor`] — `width` factored operators packed in the same
//!   lane layout (factor once per operator, reciprocal diagonals
//!   precomputed), swept by [`solve_panel`](BatchedFactor::solve_panel);
//! * [`CornerLu::solve_panel`] / [`CornerBanded::matvec_panel`] — the
//!   *shared-operator* variants (one real operator broadcast over every
//!   lane), used for the B-spline interpolation (`B0`) solves and
//!   banded matvecs that surround the implicit solves.
//!
//! The three block sweeps are one kernel family: per output row the
//! [`LANES`] real and [`LANES`] imaginary lanes live in registers across
//! the whole band and are stored once, each sweep written as one body
//! compiled for the build target and for AVX (selected at run time). Per
//! lane the arithmetic sequence is identical to the scalar kernels (same
//! sweep order, multiply then add/subtract, never fused, same
//! reciprocal-multiply division), so the shared-operator sweeps equal
//! [`CornerLu::solve_complex`] / [`CornerBanded::matvec_complex`] bit for
//! bit (unit tests here, a seeded property in `tests/batch_property.rs`),
//! and the per-lane-factor solve agrees with per-mode `solve_complex`
//! calls to round-off, pinned there at 1e-12 across random bandwidths
//! and corner structures.
//!
//! # Example
//!
//! ```
//! use dns_banded::{BatchedFactor, CornerBanded, CornerLu, RhsPanel, C64};
//!
//! // four tridiagonal Helmholtz-like operators differing by a shift,
//! // as the per-mode viscous operators of the DNS do
//! let n = 16;
//! let ops: Vec<CornerBanded> = (0..4)
//!     .map(|m| {
//!         let mut a = CornerBanded::zeros(n, 1, 1, 0, 0);
//!         for i in 0..n {
//!             a.set(i, i, 3.0 + m as f64);
//!             if i > 0 {
//!                 a.set(i, i - 1, 1.0);
//!             }
//!             if i + 1 < n {
//!                 a.set(i, i + 1, 1.0);
//!             }
//!         }
//!         a
//!     })
//!     .collect();
//!
//! // factor each once, pack, and sweep all four RHS in one panel
//! let batch = BatchedFactor::factor(ops.clone()).unwrap();
//! let mut panel = RhsPanel::new(n, 4);
//! for r in 0..4 {
//!     let rhs: Vec<C64> = (0..n).map(|j| C64::new(j as f64, 1.0)).collect();
//!     panel.load_col(r, &rhs);
//! }
//! batch.solve_panel(&mut panel);
//!
//! // each lane matches the scalar per-mode solve
//! for (r, op) in ops.into_iter().enumerate() {
//!     let lu = CornerLu::factor(op).unwrap();
//!     let mut want: Vec<C64> = (0..n).map(|j| C64::new(j as f64, 1.0)).collect();
//!     lu.solve_complex(&mut want);
//!     let mut got = vec![C64::new(0.0, 0.0); n];
//!     panel.store_col(r, &mut got);
//!     for (g, w) in got.iter().zip(&want) {
//!         assert!((g - w).norm() < 1e-12);
//!     }
//! }
//! ```

use crate::corner::{CornerBanded, CornerLu};
use crate::laneband::LaneBand;
use crate::{LinalgError, C64};

/// Number of right-hand sides per panel block: one cache line of `f64`s,
/// and the natural vector width for the lane-wise inner loops (AVX-512
/// fills one register, AVX2/NEON unroll by two/four with no remainder).
pub const LANES: usize = 8;

/// One row of a lane block: element `j` of [`LANES`] complex columns,
/// real parts then imaginary parts, two cache lines.
#[derive(Clone, Copy, Debug, PartialEq)]
#[repr(C, align(64))]
pub struct LaneRow {
    /// Real parts, one per lane.
    pub re: [f64; LANES],
    /// Imaginary parts, one per lane.
    pub im: [f64; LANES],
}

impl LaneRow {
    /// All lanes zero.
    pub const ZERO: LaneRow = LaneRow {
        re: [0.0; LANES],
        im: [0.0; LANES],
    };

    /// Lane `l` as a complex number.
    #[inline(always)]
    pub fn get(&self, l: usize) -> C64 {
        C64::new(self.re[l], self.im[l])
    }

    /// Store `v` in lane `l`.
    #[inline(always)]
    pub fn set(&mut self, l: usize, v: C64) {
        self.re[l] = v.re;
        self.im[l] = v.im;
    }

    /// `self -= f * x` with one real factor per lane: multiply, then
    /// subtract (never fused), the scalar kernels' rounding.
    #[inline(always)]
    fn sub_mul(&mut self, f: &[f64; LANES], x: &LaneRow) {
        for l in 0..LANES {
            self.re[l] -= f[l] * x.re[l];
            self.im[l] -= f[l] * x.im[l];
        }
    }

    /// `self *= f`, lane by lane.
    #[inline(always)]
    fn scale(&mut self, f: &[f64; LANES]) {
        for l in 0..LANES {
            self.re[l] *= f[l];
            self.im[l] *= f[l];
        }
    }
}

/// A structure-of-arrays panel of complex right-hand sides.
///
/// The `width` columns are grouped into blocks of [`LANES`]; a block is
/// `n` consecutive [`LaneRow`]s, so every elementwise operation of a
/// banded sweep touches whole `f64` cache lines with stride 1. Columns
/// beyond `width` in the last block are zero-padded and solved against
/// identity factors, so they stay finite and are never read back.
///
/// Buffers grow monotonically: [`RhsPanel::reset`] only reallocates when
/// the requested shape exceeds the current capacity, which is what lets
/// the DNS keep panels inside its zero-allocation steady state.
#[derive(Clone, Debug, Default)]
pub struct RhsPanel {
    n: usize,
    width: usize,
    data: Vec<LaneRow>,
}

impl RhsPanel {
    /// Create a zeroed panel of `width` length-`n` complex columns.
    pub fn new(n: usize, width: usize) -> Self {
        let mut p = RhsPanel::default();
        p.reset(n, width);
        p
    }

    /// Resize to `width` columns of length `n` and zero the contents.
    /// Grow-only: shrinking or same-size reshapes reuse the allocation.
    pub fn reset(&mut self, n: usize, width: usize) {
        let len = width.div_ceil(LANES) * n;
        if len > self.data.len() {
            self.data.resize(len, LaneRow::ZERO);
        }
        self.data[..len].fill(LaneRow::ZERO);
        self.n = n;
        self.width = width;
    }

    /// Column length (matrix dimension of the solves).
    pub fn n(&self) -> usize {
        self.n
    }
    /// Number of active right-hand-side columns.
    pub fn width(&self) -> usize {
        self.width
    }
    /// Number of [`LANES`]-wide blocks covering the active columns.
    pub fn blocks(&self) -> usize {
        self.width.div_ceil(LANES)
    }

    /// The `n` rows of block `b`.
    #[inline]
    pub fn block(&self, b: usize) -> &[LaneRow] {
        &self.data[b * self.n..(b + 1) * self.n]
    }

    /// Mutable rows of block `b`.
    #[inline]
    pub fn block_mut(&mut self, b: usize) -> &mut [LaneRow] {
        &mut self.data[b * self.n..(b + 1) * self.n]
    }

    /// The active rows, block after block.
    fn rows_mut(&mut self) -> &mut [LaneRow] {
        let len = self.blocks() * self.n;
        &mut self.data[..len]
    }

    /// Read element `(j, r)` — row `j` of column `r`.
    pub fn at(&self, j: usize, r: usize) -> C64 {
        self.block(r / LANES)[j].get(r % LANES)
    }

    /// Write element `(j, r)`.
    pub fn set(&mut self, j: usize, r: usize, v: C64) {
        self.block_mut(r / LANES)[j].set(r % LANES, v);
    }

    /// Scatter a length-`n` complex vector into column `r`.
    pub fn load_col(&mut self, r: usize, src: &[C64]) {
        assert_eq!(src.len(), self.n);
        for (row, &v) in self.block_mut(r / LANES).iter_mut().zip(src) {
            row.set(r % LANES, v);
        }
    }

    /// Gather column `r` back into a length-`n` complex vector.
    pub fn store_col(&self, r: usize, dst: &mut [C64]) {
        assert_eq!(dst.len(), self.n);
        for (row, v) in self.block(r / LANES).iter().zip(dst) {
            *v = row.get(r % LANES);
        }
    }

    /// Column `r` as a fresh vector (tests/diagnostics).
    pub fn col_to_vec(&self, r: usize) -> Vec<C64> {
        let mut v = vec![C64::new(0.0, 0.0); self.n];
        self.store_col(r, &mut v);
        v
    }
}

/// Gather the `blk.len()`-long line of `src` that starts at `start(m)`
/// into lane `l` of a block, for each `m = modes[l]`. The remaining lanes
/// become zero, so whatever a sweep computes in them stays zero (never
/// merely finite).
pub fn gather_lanes(
    blk: &mut [LaneRow],
    src: &[C64],
    modes: &[usize],
    start: impl Fn(usize) -> usize,
) {
    for l in 0..LANES {
        let line = modes.get(l).map(|&m| &src[start(m)..][..blk.len()]);
        for (j, row) in blk.iter_mut().enumerate() {
            row.set(l, line.map_or(C64::new(0.0, 0.0), |x| x[j]));
        }
    }
}

/// Scatter lane `l` of a block to the line of `dst` that starts at
/// `start(m)`, for each `m = modes[l]`.
pub fn scatter_lanes(
    blk: &[LaneRow],
    dst: &mut [C64],
    modes: &[usize],
    start: impl Fn(usize) -> usize,
) {
    for (l, &m) in modes.iter().enumerate() {
        for (row, v) in blk.iter().zip(&mut dst[start(m)..][..blk.len()]) {
            *v = row.get(l);
        }
    }
}

/// Define `$name(args..)` as the runtime-selected instantiation of the
/// `#[inline(always)]` block sweep `$body`: the same body compiled once
/// for the build target and once with AVX enabled. FMA is deliberately
/// not enabled (and Rust never contracts `a * b + c` on its own), so both
/// instantiations round identically, and identically to the scalar
/// kernels whose operations they repeat lane by lane.
macro_rules! isa_fn {
    ($(#[$doc:meta])* fn $name:ident($($arg:ident: $ty:ty),* $(,)?) = $body:path) => {
        $(#[$doc])*
        fn $name($($arg: $ty),*) {
            #[cfg(target_arch = "x86_64")]
            if std::arch::is_x86_feature_detected!("avx") {
                #[target_feature(enable = "avx")]
                unsafe fn wide($($arg: $ty),*) {
                    $body($($arg),*)
                }
                // SAFETY: AVX support was just detected on this CPU.
                return unsafe { wide($($arg),*) };
            }
            $body($($arg),*)
        }
    };
}

/// `width` corner-banded LU factorisations packed lane-wise for
/// multi-RHS sweeps.
///
/// All packed operators must share `n`, `kl` and `ku`; their corner
/// structures may differ (the sweeps only walk the stored windows, and
/// slots that were never filled by elimination hold structural zeros).
///
/// Each factor is split into three streams laid out in the exact order
/// the sweeps consume them, so every cache line fetched is fully used
/// exactly once per solve (the row-window layout of [`CornerBanded`]
/// interleaves L and U slots, which would stream the whole factor twice
/// with half of every line wasted):
///
/// * `ldata` — elimination multipliers, rows ascending, `i - col_start(i)`
///   slots per row, each slot [`LANES`] wide (the forward sweep's order);
/// * `udata` — upper-triangle slots, rows *descending*, `jend(i) - i`
///   slots per row (the backward sweep walks this stream forward);
/// * `idata` — reciprocal diagonals `1/U[i][i]`, so the backward
///   substitution multiplies instead of divides — the same `1/d` trick
///   the scalar complex kernel uses, so per-lane results match it
///   bitwise.
///
/// Lanes past `width` in the final block hold well-posed factors too
/// (the identity, or whatever the builder put in its spare lanes):
/// sweeping them is arithmetic on zero data that is never read back, and
/// keeps the kernels free of per-lane bounds logic.
#[derive(Clone, Debug)]
pub struct BatchedFactor {
    n: usize,
    kl: usize,
    ku: usize,
    width: usize,
    /// Per-block slots in `ldata` (`sum_i (i - col_start(i))`).
    lstride: usize,
    /// Per-block slots in `udata` (`sum_i (jend(i) - i)`).
    ustride: usize,
    /// Forward-sweep multipliers, `blocks * lstride` slots.
    ldata: Vec<[f64; LANES]>,
    /// Backward-sweep upper slots, `blocks * ustride` slots.
    udata: Vec<[f64; LANES]>,
    /// Packed reciprocal diagonals, `blocks * n` slots.
    idata: Vec<[f64; LANES]>,
}

/// One block's three factor streams.
#[derive(Clone, Copy)]
struct FactorBlock<'a> {
    kl: usize,
    ku: usize,
    l: &'a [[f64; LANES]],
    u: &'a [[f64; LANES]],
    inv: &'a [[f64; LANES]],
}

/// One block's forward/backward sweep against its own lane-packed
/// factors. The forward sweep is the row-accumulation form of the scalar
/// kernel: every stored slot of row `i` left of the diagonal (columns
/// `col_start(i) .. i`) is either an elimination multiplier or a
/// structural zero, for corner and regular rows alike, so one
/// unconditional dot product per row applies exactly the updates the
/// scalar kernel applies — in the same column order, the row's lanes
/// held in registers across the band and stored once.
#[inline(always)]
fn solve_lanes_body(f: FactorBlock<'_>, rhs: &mut [LaneRow]) {
    let n = rhs.len();
    let w = f.kl + f.ku + 1;
    let anchor = n - w;
    assert_eq!(f.inv.len(), n, "block slab length");
    // forward: b_i -= sum_{k=ci..i} L[i][k] * b_k, streaming `l` front
    // to back
    let mut l = f.l;
    for i in 1..n {
        let ci = i.saturating_sub(f.kl).min(anchor);
        let (fs, rest) = l.split_at(i - ci);
        l = rest;
        let mut a = rhs[i];
        for (fk, xk) in fs.iter().zip(&rhs[ci..i]) {
            a.sub_mul(fk, xk);
        }
        rhs[i] = a;
    }
    // backward: b_i = (b_i - sum_{j>i} U[i][j] * b_j) / U[i][i]; `u`
    // holds rows in descending order, so this streams front to back too
    let mut u = f.u;
    for i in (0..n).rev() {
        let ci = i.saturating_sub(f.kl).min(anchor);
        let jend = (ci + w - 1).min(n - 1);
        let (fs, rest) = u.split_at(jend - i);
        u = rest;
        let mut a = rhs[i];
        for (fj, xj) in fs.iter().zip(&rhs[i + 1..=jend]) {
            a.sub_mul(fj, xj);
        }
        a.scale(&f.inv[i]);
        rhs[i] = a;
    }
}

isa_fn! {
    /// [`solve_lanes_body`] under the widest instruction set of this CPU.
    fn solve_lanes(f: FactorBlock<'_>, rhs: &mut [LaneRow]) = solve_lanes_body
}

impl BatchedFactor {
    /// `width` identity operators of shape `(n, kl, ku)`: the streams
    /// allocated once, their blocks then filled by
    /// [`set_block`](Self::set_block). Zero width is a valid, empty batch.
    pub fn zeros(n: usize, kl: usize, ku: usize, width: usize) -> Self {
        let w = kl + ku + 1;
        let blocks = width.div_ceil(LANES);
        // stream lengths: row i contributes its sub-diagonal window to L
        // and its super-diagonal window to U
        let (mut lstride, mut ustride) = (0, 0);
        assert!(width == 0 || n >= w, "matrix smaller than its bandwidth");
        for i in 0..n {
            let ci = i.saturating_sub(kl).min(n.saturating_sub(w));
            lstride += i - ci;
            ustride += (ci + w - 1).min(n - 1) - i;
        }
        BatchedFactor {
            n,
            kl,
            ku,
            width,
            lstride,
            ustride,
            ldata: vec![[0.0; LANES]; blocks * lstride],
            udata: vec![[0.0; LANES]; blocks * ustride],
            idata: vec![[1.0; LANES]; blocks * n],
        }
    }

    /// Split the factored `band` into block `blk`'s three streams.
    ///
    /// # Panics
    /// If the shape of `band` is not this batch's.
    pub fn set_block(&mut self, blk: usize, band: &LaneBand) {
        let shape = (self.n, self.kl, self.ku);
        assert_eq!((band.n, band.kl, band.ku), shape, "block shape");
        let (n, w) = (self.n, self.kl + self.ku + 1);
        let mut l = &mut self.ldata[blk * self.lstride..][..self.lstride];
        let mut u = &mut self.udata[blk * self.ustride..][..self.ustride];
        let inv = &mut self.idata[blk * n..][..n];
        for i in 0..n {
            let ci = i.saturating_sub(self.kl).min(n - w);
            let (head, rest) = l.split_at_mut(i - ci);
            head.copy_from_slice(&band.row(i)[..i - ci]);
            l = rest;
            inv[i] = band.row(i)[i - ci].map(|d| 1.0 / d);
        }
        for i in (0..n).rev() {
            let ci = i.saturating_sub(self.kl).min(n - w);
            let (head, rest) = u.split_at_mut((ci + w - 1).min(n - 1) - i);
            head.copy_from_slice(&band.row(i)[i - ci + 1..][..head.len()]);
            u = rest;
        }
    }

    /// Factor the matrices [`LANES`] at a time ([`LaneBand::factor`]:
    /// per lane the elimination of [`CornerLu::factor`]) into the sweep
    /// streams. An empty `mats` gives the empty batch.
    ///
    /// # Panics
    /// If the operators disagree on `n`, `kl` or `ku`.
    pub fn factor(mats: Vec<CornerBanded>) -> Result<Self, LinalgError> {
        let Some(m) = mats.first() else {
            return Ok(BatchedFactor::zeros(0, 0, 0, 0));
        };
        let mut out = BatchedFactor::zeros(m.n(), m.kl(), m.ku(), mats.len());
        let mut band = LaneBand::new(m.n(), m.kl(), m.ku());
        for (blk, chunk) in mats.chunks(LANES).enumerate() {
            band.load(chunk);
            band.factor()?;
            out.set_block(blk, &band);
        }
        Ok(out)
    }

    /// Matrix dimension shared by the packed operators.
    pub fn n(&self) -> usize {
        self.n
    }
    /// Number of packed operators (= required panel width).
    pub fn width(&self) -> usize {
        self.width
    }
    /// Number of [`LANES`]-wide blocks.
    pub fn blocks(&self) -> usize {
        self.width.div_ceil(LANES)
    }

    /// Solve `A_r x_r = b_r` in place for every column `r` of the panel,
    /// one forward/backward sweep per block with the lane index
    /// innermost.
    ///
    /// # Panics
    /// If the panel shape does not match (`p.n() != n` or
    /// `p.width() != width`).
    pub fn solve_panel(&self, p: &mut RhsPanel) {
        self.check_panel(p);
        self.count_solves(self.width, 1);
        // (`max`: the empty batch has no rows to chunk by)
        for (blk, rhs) in p.rows_mut().chunks_exact_mut(self.n.max(1)).enumerate() {
            self.solve_block(blk, rhs);
        }
    }

    /// [`solve_panel`](Self::solve_panel) on the `n` rows of block `blk`,
    /// uncounted: a caller that walks blocks itself reports each stage
    /// once through [`count_solves`](Self::count_solves).
    pub fn solve_block(&self, blk: usize, rhs: &mut [LaneRow]) {
        solve_lanes(self.block(blk), rhs);
    }

    /// Telemetry of `stages` stages of `width` solves each (the panel's
    /// width: blocks may be swept more than once per stage).
    pub fn count_solves(&self, width: usize, stages: usize) {
        count_solves(self.n, self.kl, self.ku, width, stages);
    }

    /// Bytes held by the three streams.
    pub fn bytes(&self) -> usize {
        (self.ldata.len() + self.udata.len() + self.idata.len()) * size_of::<[f64; LANES]>()
    }

    /// [`BatchedFactor::solve_panel`] with the blocks fanned out over a
    /// rayon pool. Falls back to the serial sweep for `None`.
    pub fn solve_panel_threaded(&self, p: &mut RhsPanel, pool: Option<&rayon::ThreadPool>) {
        let Some(pool) = pool else {
            return self.solve_panel(p);
        };
        self.check_panel(p);
        self.count_solves(self.width, 1);
        pool.install(|| {
            use rayon::prelude::*;
            p.rows_mut()
                .par_chunks_exact_mut(self.n.max(1))
                .enumerate()
                .for_each(|(blk, rhs)| self.solve_block(blk, rhs));
        });
    }

    fn check_panel(&self, p: &RhsPanel) {
        assert_eq!(p.width(), self.width, "panel width must match the batch");
        // the empty batch fits a zero-width panel of any height
        assert!(
            self.width == 0 || p.n() == self.n,
            "panel rows must match the operators"
        );
    }

    fn block(&self, blk: usize) -> FactorBlock<'_> {
        FactorBlock {
            kl: self.kl,
            ku: self.ku,
            l: &self.ldata[blk * self.lstride..][..self.lstride],
            u: &self.udata[blk * self.ustride..][..self.ustride],
            inv: &self.idata[blk * self.n..][..self.n],
        }
    }
}

/// Telemetry of `stages` stages of `width` complex solves each against
/// real `(n, kl, ku)` factors: counted per stage, never per block.
fn count_solves(n: usize, kl: usize, ku: usize, width: usize, stages: usize) {
    // (a zero-width stage is no panel: an empty batch counts nothing)
    if dns_telemetry::enabled() && width > 0 {
        use dns_telemetry::{count_phase, Counter, Phase};
        let per_row = 2 * kl + 2 * (kl + ku) + 1;
        count_phase(Phase::NsAdvance, Counter::SolvePanels, stages as u64);
        count_phase(Phase::NsAdvance, Counter::SolveRhs, (stages * width) as u64);
        // complex RHS against real factors: two real solves per column
        count_phase(
            Phase::NsAdvance,
            Counter::Flops,
            2 * (stages * n * per_row * width) as u64,
        );
    }
}

/// One block's sweep against one real factorisation shared by every
/// lane: the operations of [`CornerLu::solve_complex`], in its order —
/// the in-band multipliers of each row (the whole window of a bottom
/// corner row) forward, the stored upper window backward, then the
/// reciprocal diagonal — with the row's lanes held in registers across
/// the band and stored once.
#[inline(always)]
fn solve_shared_body(m: &CornerBanded, rhs: &mut [LaneRow]) {
    let n = m.n();
    let w = m.width();
    let d = m.raw_data();
    assert_eq!(rhs.len(), n, "block rows must match the operator");
    for i in 1..n {
        let ci = m.col_start(i);
        let k0 = if i + m.nc_bot() >= n {
            ci
        } else {
            i.saturating_sub(m.kl())
        };
        let fs = &d[i * w..][k0 - ci..i - ci];
        let mut a = rhs[i];
        for (&f, xk) in fs.iter().zip(&rhs[k0..i]) {
            a.sub_mul(&[f; LANES], xk);
        }
        rhs[i] = a;
    }
    for i in (0..n).rev() {
        let ci = m.col_start(i);
        let jend = (ci + w - 1).min(n - 1);
        let row = &d[i * w..][..w];
        let mut a = rhs[i];
        for (&f, xj) in row[i - ci + 1..].iter().zip(&rhs[i + 1..=jend]) {
            a.sub_mul(&[f; LANES], xj);
        }
        a.scale(&[1.0 / row[i - ci]; LANES]);
        rhs[i] = a;
    }
}

isa_fn! {
    /// [`solve_shared_body`] under the widest instruction set of this CPU.
    fn solve_shared(m: &CornerBanded, rhs: &mut [LaneRow]) = solve_shared_body
}

/// One block of `y = A x` for a real operator shared by every lane, the
/// output row accumulated in registers in [`CornerBanded::matvec_complex`]'s
/// column order. Exactly-zero entries are skipped: a sum that starts at
/// `+0` never holds `-0`, so the `±0` product skipped cannot change a bit
/// of it.
#[inline(always)]
fn matvec_shared_body(m: &CornerBanded, x: &[LaneRow], y: &mut [LaneRow]) {
    let n = m.n();
    let w = m.width();
    assert_eq!(x.len(), n, "input block rows must match the operator");
    assert_eq!(y.len(), n, "output block rows must match the operator");
    for (i, (row, yi)) in m.raw_data().chunks_exact(w).zip(y).enumerate() {
        let xs = &x[m.col_start(i)..][..w];
        let mut s = LaneRow::ZERO;
        for (&a, xj) in row.iter().zip(xs) {
            if a != 0.0 {
                for l in 0..LANES {
                    s.re[l] += a * xj.re[l];
                    s.im[l] += a * xj.im[l];
                }
            }
        }
        *yi = s;
    }
}

isa_fn! {
    /// [`matvec_shared_body`] under the widest instruction set of this CPU.
    fn matvec_shared(m: &CornerBanded, x: &[LaneRow], y: &mut [LaneRow]) = matvec_shared_body
}

impl CornerLu {
    /// Shared-operator panel solve: apply *this* factorisation to every
    /// column of the panel (the B-spline `B0` interpolation solve is the
    /// same real operator for all modes). Each lane equals
    /// [`CornerLu::solve_complex`] of its column bit for bit.
    pub fn solve_panel(&self, p: &mut RhsPanel) {
        assert_eq!(p.n(), self.n(), "panel rows must match the operator");
        self.count_solves(p.width(), 1);
        for rhs in p.rows_mut().chunks_exact_mut(self.n()) {
            self.solve_block(rhs);
        }
    }

    /// [`solve_panel`](Self::solve_panel) on the `n` rows of one block,
    /// uncounted: a caller that walks blocks itself reports each stage
    /// once through [`count_solves`](Self::count_solves).
    pub fn solve_block(&self, rhs: &mut [LaneRow]) {
        solve_shared(self.factors(), rhs);
    }

    /// Telemetry of `stages` stages of `width` shared-operator solves.
    pub fn count_solves(&self, width: usize, stages: usize) {
        let m = self.factors();
        count_solves(m.n(), m.kl(), m.ku(), width, stages);
    }
}

impl CornerBanded {
    /// Shared-operator panel matvec: `y_r = A x_r` for every column,
    /// each lane equal to [`CornerBanded::matvec_complex`] of its column
    /// bit for bit. `x` and `y` must share the panel shape.
    pub fn matvec_panel(&self, x: &RhsPanel, y: &mut RhsPanel) {
        assert_eq!(x.n(), y.n(), "panels must share the row count");
        assert_eq!(x.width(), y.width(), "panels must share the width");
        for b in 0..x.blocks() {
            self.matvec_block(x.block(b), y.block_mut(b));
        }
    }

    /// [`matvec_panel`](Self::matvec_panel) on the `n` rows of one block.
    pub fn matvec_block(&self, x: &[LaneRow], y: &mut [LaneRow]) {
        matvec_shared(self, x, y);
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::testmat::CollocationLike;

    /// The route [`BatchedFactor::factor`] replaced, kept as its oracle:
    /// copy scalar factors into the streams slot by slot (identity in the
    /// lanes past `lus.len()`).
    pub(crate) fn pack(lus: &[&CornerLu]) -> BatchedFactor {
        let f0 = lus[0].factors();
        let (n, w) = (f0.n(), f0.width());
        let mut out = BatchedFactor::zeros(n, f0.kl(), f0.ku(), lus.len());
        for (r, lu) in lus.iter().enumerate() {
            let (b, l) = (r / LANES, r % LANES);
            let (f, raw) = (lu.factors(), lu.factors().raw_data());
            let mut loff = b * out.lstride;
            for i in 0..n {
                let ci = f.col_start(i);
                for t in 0..i - ci {
                    out.ldata[loff + t][l] = raw[i * w + t];
                }
                loff += i - ci;
                out.idata[b * n + i][l] = 1.0 / raw[i * w + (i - ci)];
            }
            let mut uoff = b * out.ustride;
            for i in (0..n).rev() {
                let ci = f.col_start(i);
                let jend = (ci + w - 1).min(n - 1);
                for t in 0..jend - i {
                    out.udata[uoff + t][l] = raw[i * w + (i - ci) + 1 + t];
                }
                uoff += jend - i;
            }
        }
        out
    }

    impl BatchedFactor {
        /// Whether the three streams hold the same bits.
        pub(crate) fn same_streams(&self, other: &BatchedFactor) -> bool {
            let bits = |s: &[[f64; LANES]]| -> Vec<u64> {
                s.iter().flatten().map(|v| v.to_bits()).collect()
            };
            [
                (&self.ldata, &other.ldata),
                (&self.udata, &other.udata),
                (&self.idata, &other.idata),
            ]
            .iter()
            .all(|(a, b)| bits(a) == bits(b))
        }
    }

    fn rhs_col(n: usize, r: usize) -> Vec<C64> {
        (0..n)
            .map(|j| {
                let x = (j * 37 + r * 101) % 97;
                C64::new(x as f64 / 97.0 - 0.5, ((x * 31) % 89) as f64 / 89.0 - 0.5)
            })
            .collect()
    }

    fn shifted_ops(base: &CollocationLike, count: usize) -> Vec<CornerBanded> {
        let proto = base.corner();
        let n = proto.n();
        (0..count)
            .map(|m| {
                let mut a = proto.clone();
                // diagonal Helmholtz-like shift, distinct per operator
                for i in 0..n {
                    a.set(i, i, a.get(i, i) + 1.0 + m as f64 * 0.37);
                }
                a
            })
            .collect()
    }

    #[test]
    fn an_empty_batch_solves_a_zero_width_panel() {
        let batch = BatchedFactor::factor(vec![]).unwrap();
        assert_eq!((batch.width(), batch.blocks(), batch.bytes()), (0, 0, 0));
        // a zero-width panel of any height fits it
        let mut p = RhsPanel::new(9, 0);
        batch.solve_panel(&mut p);
        batch.solve_panel_threaded(&mut p, None);
        assert_eq!(BatchedFactor::zeros(9, 1, 1, 0).bytes(), 0);
    }

    #[test]
    fn batched_matches_scalar_across_shapes() {
        for &(bw, nc) in &[(2usize, 0usize), (6, 2), (14, 2)] {
            let base = CollocationLike {
                n: 64,
                p: bw / 2,
                nc,
                seed: 7 + bw as u64,
            };
            for &width in &[1usize, 3, 8, 13, 32] {
                let ops = shifted_ops(&base, width);
                let lus: Vec<CornerLu> = ops
                    .iter()
                    .map(|m| CornerLu::factor(m.clone()).unwrap())
                    .collect();
                let batch = BatchedFactor::factor(ops).unwrap();
                let mut panel = RhsPanel::new(base.n, width);
                for r in 0..width {
                    panel.load_col(r, &rhs_col(base.n, r));
                }
                batch.solve_panel(&mut panel);
                for (r, lu) in lus.iter().enumerate() {
                    let mut want = rhs_col(base.n, r);
                    lu.solve_complex(&mut want);
                    let got = panel.col_to_vec(r);
                    for (g, w) in got.iter().zip(&want) {
                        assert!(
                            (g - w).norm() < 1e-12,
                            "bw={bw} nc={nc} width={width} col={r}: {g} vs {w}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn threaded_panel_matches_serial() {
        let base = CollocationLike {
            n: 96,
            p: 3,
            nc: 2,
            seed: 11,
        };
        let width = 29;
        let ops = shifted_ops(&base, width);
        let batch = BatchedFactor::factor(ops).unwrap();
        let mut serial = RhsPanel::new(base.n, width);
        for r in 0..width {
            serial.load_col(r, &rhs_col(base.n, r));
        }
        let mut threaded = serial.clone();
        batch.solve_panel(&mut serial);
        let pool = rayon::ThreadPoolBuilder::new()
            .num_threads(3)
            .build()
            .unwrap();
        batch.solve_panel_threaded(&mut threaded, Some(&pool));
        for r in 0..width {
            for (a, b) in serial.col_to_vec(r).iter().zip(threaded.col_to_vec(r)) {
                assert_eq!(*a, b, "threaded sweep must be bitwise identical");
            }
        }
    }

    /// `width` columns as a panel, with their plain-vector twins.
    fn panel_of(n: usize, width: usize) -> (RhsPanel, Vec<Vec<C64>>) {
        let cols: Vec<Vec<C64>> = (0..width).map(|r| rhs_col(n, r)).collect();
        let mut panel = RhsPanel::new(n, width);
        for (r, col) in cols.iter().enumerate() {
            panel.load_col(r, col);
        }
        (panel, cols)
    }

    /// Every (band, corner, width) case of the shared-operator tests:
    /// widths through a partial fourth block.
    fn shared_cases(mut f: impl FnMut(CornerBanded, usize)) {
        for &p in &[1usize, 3, 7] {
            for &nc in &[0usize, 1] {
                let base = CollocationLike {
                    n: 40,
                    p,
                    nc,
                    seed: 3 + p as u64,
                };
                for width in 1..=3 * LANES + 1 {
                    f(base.corner(), width);
                }
            }
        }
    }

    #[test]
    fn shared_operator_panel_solve_matches_scalar() {
        shared_cases(|a, width| {
            let lu = CornerLu::factor(a).unwrap();
            let (mut panel, cols) = panel_of(lu.n(), width);
            // the build-target body, then the detected-ISA one through
            // the public entry
            let mut plain = panel.clone();
            for rhs in plain.rows_mut().chunks_exact_mut(lu.n()) {
                solve_shared_body(lu.factors(), rhs);
            }
            lu.solve_panel(&mut panel);
            for (r, col) in cols.into_iter().enumerate() {
                let mut want = col;
                lu.solve_complex(&mut want);
                assert_eq!(plain.col_to_vec(r), want, "build-target col {r}");
                assert_eq!(panel.col_to_vec(r), want, "dispatched col {r}");
            }
        });
    }

    #[test]
    fn matvec_panel_matches_scalar() {
        shared_cases(|a, width| {
            let n = a.n();
            let (x, cols) = panel_of(n, width);
            let mut plain = RhsPanel::new(n, width);
            let mut y = RhsPanel::new(n, width);
            for b in 0..x.blocks() {
                matvec_shared_body(&a, x.block(b), plain.block_mut(b));
            }
            a.matvec_panel(&x, &mut y);
            for (r, col) in cols.iter().enumerate() {
                let mut want = vec![C64::new(0.0, 0.0); n];
                a.matvec_complex(col, &mut want);
                assert_eq!(plain.col_to_vec(r), want, "build-target col {r}");
                assert_eq!(y.col_to_vec(r), want, "dispatched col {r}");
            }
        });
    }

    #[test]
    fn per_lane_bodies_agree_across_instruction_sets() {
        let base = CollocationLike {
            n: 64,
            p: 7,
            nc: 2,
            seed: 21,
        };
        let width = 2 * LANES + 3;
        let batch = BatchedFactor::factor(shifted_ops(&base, width)).unwrap();
        let (mut panel, _) = panel_of(base.n, width);
        let mut plain = panel.clone();
        for (blk, rhs) in plain.rows_mut().chunks_exact_mut(base.n).enumerate() {
            solve_lanes_body(batch.block(blk), rhs);
        }
        batch.solve_panel(&mut panel);
        assert_eq!(plain.data, panel.data);
    }

    #[test]
    fn reset_is_grow_only() {
        let mut p = RhsPanel::new(32, 24);
        let cap = p.data.capacity();
        p.set(3, 5, C64::new(1.0, 2.0));
        p.reset(32, 16);
        assert_eq!(p.at(3, 5), C64::new(0.0, 0.0), "reset must zero");
        assert_eq!(p.data.capacity(), cap, "shrink must not reallocate");
        assert_eq!(p.blocks(), 2);
        p.reset(32, 17);
        assert_eq!(p.blocks(), 3);
    }
}
