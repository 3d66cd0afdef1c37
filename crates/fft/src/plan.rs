//! Complex FFT plans: factorisation, twiddle precomputation, execution.

use crate::bluestein::Bluestein;
use crate::isa_fn;
use crate::lanes::{gather, lane_blocks, scatter, Isa, LaneRow, LANES, SCRATCH_SLACK};
use crate::radix::{factorize, scale, stockham, Stage};
use crate::C64;

/// Transform direction. Forward uses the `exp(-2*pi*i*jk/n)` kernel;
/// Inverse uses `exp(+2*pi*i*jk/n)` and is **unnormalised** (a
/// forward+inverse roundtrip scales the data by `n`), matching FFTW's
/// convention, which the DNS absorbs into its quadrature weights.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Direction {
    /// Physical space to spectral space (sign = -1).
    Forward,
    /// Spectral space to physical space (sign = +1), unnormalised.
    Inverse,
}

impl Direction {
    pub(crate) fn sign(self) -> f64 {
        match self {
            Direction::Forward => -1.0,
            Direction::Inverse => 1.0,
        }
    }
}

enum Algorithm {
    /// Trivial length-0/1 transform.
    Identity,
    /// Recursive Stockham autosort over the given stages.
    Stockham(Vec<Stage>),
    /// Chirp-z fallback for lengths with large prime factors.
    Bluestein(Box<Bluestein>),
}

/// A reusable plan for a one-dimensional complex-to-complex FFT of a fixed
/// length and direction. Immutable after construction (`Send + Sync`).
pub struct CfftPlan {
    n: usize,
    direction: Direction,
    alg: Algorithm,
    /// Instruction set of the multi-line kernels, detected once here.
    pub(crate) isa: Isa,
}

isa_fn! {
    /// [`stockham`] on lane blocks under the plan's instruction set.
    fn stockham_lanes(stages: &[Stage], first: &mut [LaneRow], second: &mut [LaneRow]) = stockham::<LaneRow>
}

impl CfftPlan {
    /// Plan a transform of length `n`. Any `n` is supported.
    pub fn new(n: usize, direction: Direction) -> Self {
        let alg = if n <= 1 {
            Algorithm::Identity
        } else if let Some(radices) = factorize(n) {
            let mut stages = Vec::with_capacity(radices.len());
            let mut n_cur = n;
            for &r in &radices {
                let m = n_cur / r;
                stages.push(Stage::new(r, m, direction.sign()));
                n_cur = m;
            }
            Algorithm::Stockham(stages)
        } else {
            Algorithm::Bluestein(Box::new(Bluestein::new(n, direction.sign())))
        };
        CfftPlan {
            n,
            direction,
            alg,
            isa: Isa::detect(),
        }
    }

    /// Transform length.
    pub fn len(&self) -> usize {
        self.n
    }

    /// True for the degenerate zero-length plan.
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Planned direction.
    pub fn direction(&self) -> Direction {
        self.direction
    }

    /// Number of scratch elements any entry point of this plan requires:
    /// two lane blocks for the multi-line entries (whose front doubles as
    /// the line of [`CfftPlan::execute`]), plus, where the length has no
    /// blocked kernel, the staging line and scratch that take each lane
    /// through the single-line transform.
    pub fn scratch_len(&self) -> usize {
        self.lanes_scratch_len(self.n)
    }

    /// [`CfftPlan::scratch_len`] with lane blocks of `len >= n` entries.
    pub(crate) fn lanes_scratch_len(&self, len: usize) -> usize {
        let per_lane = match &self.alg {
            Algorithm::Bluestein(b) => self.n + b.scratch_len(),
            _ => 0,
        };
        2 * len * LANES + SCRATCH_SLACK + per_lane
    }

    /// Allocate a correctly-sized scratch buffer for this plan.
    pub fn make_scratch(&self) -> Vec<C64> {
        vec![C64::new(0.0, 0.0); self.scratch_len()]
    }

    /// Execute the transform in place on one line of `n` values.
    ///
    /// # Panics
    /// If `data.len() != n` or `scratch.len() < scratch_len()`.
    pub fn execute(&self, data: &mut [C64], scratch: &mut [C64]) {
        self.count_flops(1);
        self.execute_inner(data, scratch);
    }

    /// Add the nominal flops of `lines` transforms to the FFT phase.
    fn count_flops(&self, lines: usize) {
        if dns_telemetry::enabled() {
            dns_telemetry::count_phase(
                dns_telemetry::Phase::Fft,
                dns_telemetry::Counter::Flops,
                lines as u64 * crate::cfft_flops(self.n) as u64,
            );
        }
    }

    /// The single-line kernel (the `f64` instantiation of the
    /// butterflies) with no telemetry at all.
    pub(crate) fn execute_inner(&self, data: &mut [C64], scratch: &mut [C64]) {
        assert_eq!(data.len(), self.n, "data length mismatch");
        match &self.alg {
            Algorithm::Identity => {}
            Algorithm::Stockham(stages) => {
                let scratch = &mut scratch[..self.n];
                stockham(stages, data, scratch);
                if stages.len() % 2 == 1 {
                    data.copy_from_slice(scratch);
                }
            }
            Algorithm::Bluestein(b) => b.execute(data, scratch),
        }
    }

    /// Execute over `count` contiguous lines of length `n` stored
    /// back-to-back in `data` (the batched layout produced by the pencil
    /// reorder, where the transform direction is the fastest index),
    /// [`LANES`] lines per pass.
    ///
    /// Telemetry is recorded once for the whole batch (one span, one flop
    /// increment), not per line.
    pub fn execute_many(&self, data: &mut [C64], scratch: &mut [C64]) {
        assert!(
            self.n == 0 || data.len().is_multiple_of(self.n),
            "batched data must be a whole number of lines"
        );
        if self.n == 0 {
            return;
        }
        self.count_flops(data.len() / self.n);
        let n = self.n;
        let (a, b, rest) = self.lane_work(scratch, n);
        for block in data.chunks_mut(LANES * n) {
            for (k, v) in a.iter_mut().enumerate() {
                *v = gather(block, n, k);
            }
            for (k, &v) in self.transform_block(a, b, rest).0.iter().enumerate() {
                scatter(v, 1.0, block, n, k);
            }
        }
    }

    /// Two lane blocks of `len >= n` entries each inside `scratch`, and
    /// the rest of it.
    pub(crate) fn lane_work<'a>(
        &self,
        scratch: &'a mut [C64],
        len: usize,
    ) -> (&'a mut [LaneRow], &'a mut [LaneRow], &'a mut [C64]) {
        let (blocks, rest) = lane_blocks(scratch, 2 * len);
        let (a, b) = blocks.split_at_mut(len);
        (a, b, rest)
    }

    /// Transform the lane block in `a[..n]`, with `b[..n]` as the other
    /// half of the Stockham ping-pong; returns the `n` result entries,
    /// then the whole of the other buffer, free for reuse. A length with
    /// no blocked kernel takes each lane through the single-line
    /// transform in `rest` — the same operations, so the same bits.
    pub(crate) fn transform_block<'a>(
        &self,
        a: &'a mut [LaneRow],
        b: &'a mut [LaneRow],
        rest: &mut [C64],
    ) -> (&'a [LaneRow], &'a mut [LaneRow]) {
        let n = self.n;
        match &self.alg {
            Algorithm::Identity => (&a[..n], b),
            Algorithm::Stockham(stages) => {
                stockham_lanes(self.isa, stages, &mut a[..n], &mut b[..n]);
                if stages.len() % 2 == 0 {
                    (&a[..n], b)
                } else {
                    (&b[..n], a)
                }
            }
            Algorithm::Bluestein(_) => {
                let (line, inner) = rest.split_at_mut(n);
                for l in 0..LANES {
                    for (v, x) in line.iter_mut().zip(a.iter()) {
                        *v = x.get(l);
                    }
                    self.execute_inner(line, inner);
                    for (v, x) in line.iter().zip(a.iter_mut()) {
                        x.set(l, *v);
                    }
                }
                (&a[..n], b)
            }
        }
    }

    /// Multi-line transform of lane-blocked lines in place, with the
    /// 3/2-rule spectrum handling fused into the copies in and out of the
    /// lane scratch, no telemetry (callers account for their whole batch).
    ///
    /// `lines` holds whole lines of `n` [`LaneRow`]s, entry `k` of a line
    /// holding element `k` of [`LANES`] independent lines. `modes` is the
    /// dealiased spectrum length (`modes <= n`, both even). An **inverse**
    /// plan reads the first `modes` slots of each line as coefficients,
    /// zero-pads them to `n` exactly as [`crate::dealias::pad_full`] does
    /// and overwrites the whole line; the slots past `modes` are never
    /// read. A **forward** plan reads the whole line and writes the `modes`
    /// coefficients [`crate::dealias::truncate_full`] keeps into its first
    /// `modes` slots, leaving the rest as they were. Every stored value is
    /// multiplied by `by` (`1.0` is exact).
    pub fn execute_dealiased(
        &self,
        lines: &mut [LaneRow],
        modes: usize,
        by: f64,
        scratch: &mut [C64],
    ) {
        let n = self.n;
        assert!(
            (2..=n).contains(&modes) && modes.is_multiple_of(2) && n.is_multiple_of(2),
            "bad dealiased sizes {modes} / {n}"
        );
        assert_eq!(lines.len() % n, 0, "lines must be whole");
        let pad = self.direction == Direction::Inverse;
        // dealiased coefficient `j != modes / 2` sits at `j` in the
        // length-`n` spectrum when `j < half`, at `j + n - modes` past it:
        // non-negative wavenumbers in front, negative ones at the tail
        let half = modes / 2;
        let (a, b, rest) = self.lane_work(scratch, n);
        for line in lines.chunks_exact_mut(n) {
            if pad {
                // pad_full: zeros between the two halves, source Nyquist dropped
                a[..half].copy_from_slice(&line[..half]);
                a[half..=n - half].fill(LaneRow::ZERO);
                a[n - half + 1..n].copy_from_slice(&line[half + 1..modes]);
            } else {
                a[..n].copy_from_slice(line);
            }
            let (out, _) = self.transform_block(a, b, rest);
            if pad {
                for (d, &v) in line.iter_mut().zip(out) {
                    *d = scale(v, by);
                }
            } else {
                // truncate_full: the destination Nyquist slot is zero
                let (front, back) = line[..modes].split_at_mut(half);
                back[0] = LaneRow::ZERO;
                let kept = front.iter_mut().chain(&mut back[1..]);
                for (d, &v) in kept.zip(out[..half].iter().chain(&out[n - half + 1..])) {
                    *d = scale(v, by);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dealias::{pad_full, truncate_full};
    use crate::dft::dft;
    use crate::lanes::Lanes;

    fn max_err(a: &[C64], b: &[C64]) -> f64 {
        a.iter()
            .zip(b)
            .map(|(x, y)| (x - y).norm())
            .fold(0.0, f64::max)
    }

    fn random_signal(n: usize, seed: u64) -> Vec<C64> {
        // Tiny deterministic LCG; no rand dependency needed in-unit.
        let mut state = seed.wrapping_mul(6364136223846793005).wrapping_add(1);
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

    #[test]
    fn matches_naive_dft_for_many_lengths() {
        for n in [
            1usize, 2, 3, 4, 5, 6, 8, 9, 12, 15, 16, 20, 24, 27, 30, 32, 45, 48, 49, 60, 64, 96,
            100, 128,
        ] {
            let x = random_signal(n, n as u64);
            let want = dft(&x, -1.0);
            let plan = CfftPlan::new(n, Direction::Forward);
            let mut got = x.clone();
            let mut scratch = plan.make_scratch();
            plan.execute(&mut got, &mut scratch);
            let tol = 1e-9 * (n as f64).max(1.0);
            assert!(
                max_err(&got, &want) < tol,
                "n={n} err={}",
                max_err(&got, &want)
            );
        }
    }

    #[test]
    fn inverse_matches_naive_inverse() {
        for n in [4usize, 6, 10, 36, 50] {
            let x = random_signal(n, 7 + n as u64);
            let want = dft(&x, 1.0);
            let plan = CfftPlan::new(n, Direction::Inverse);
            let mut got = x.clone();
            let mut scratch = plan.make_scratch();
            plan.execute(&mut got, &mut scratch);
            assert!(max_err(&got, &want) < 1e-9 * n as f64, "n={n}");
        }
    }

    #[test]
    fn prime_lengths_use_bluestein_and_agree() {
        for n in [67usize, 97, 101, 257] {
            let x = random_signal(n, n as u64);
            let want = dft(&x, -1.0);
            let plan = CfftPlan::new(n, Direction::Forward);
            assert!(matches!(plan.alg, Algorithm::Bluestein(_)));
            let mut got = x.clone();
            let mut scratch = plan.make_scratch();
            plan.execute(&mut got, &mut scratch);
            assert!(max_err(&got, &want) < 1e-8 * n as f64, "n={n}");
        }
    }

    #[test]
    fn roundtrip_scales_by_n() {
        let n = 96;
        let x = random_signal(n, 3);
        let fwd = CfftPlan::new(n, Direction::Forward);
        let inv = CfftPlan::new(n, Direction::Inverse);
        let mut data = x.clone();
        let mut scratch = fwd.make_scratch();
        fwd.execute(&mut data, &mut scratch);
        inv.execute(&mut data, &mut scratch);
        for (a, b) in data.iter().zip(&x) {
            assert!((a / n as f64 - b).norm() < 1e-12);
        }
    }

    #[test]
    fn parseval_holds() {
        let n = 60;
        let x = random_signal(n, 11);
        let time_energy: f64 = x.iter().map(|v| v.norm_sqr()).sum();
        let plan = CfftPlan::new(n, Direction::Forward);
        let mut spec = x;
        let mut scratch = plan.make_scratch();
        plan.execute(&mut spec, &mut scratch);
        let freq_energy: f64 = spec.iter().map(|v| v.norm_sqr()).sum::<f64>() / n as f64;
        assert!((time_energy - freq_energy).abs() < 1e-9 * time_energy.max(1.0));
    }

    #[test]
    fn execute_many_transforms_each_line_independently() {
        let n = 16;
        let lines = 5;
        let plan = CfftPlan::new(n, Direction::Forward);
        let mut scratch = plan.make_scratch();
        let mut batch = Vec::new();
        let mut singles = Vec::new();
        for l in 0..lines {
            let x = random_signal(n, 100 + l as u64);
            let mut y = x.clone();
            plan.execute(&mut y, &mut scratch);
            singles.extend(y);
            batch.extend(x);
        }
        plan.execute_many(&mut batch, &mut scratch);
        assert!(max_err(&batch, &singles) < 1e-12);
    }

    /// Smooth, odd-prime-radix (7, 49) and Bluestein (67, 2*67) lengths.
    const LANE_LENGTHS: [usize; 11] = [2, 8, 36, 72, 96, 7, 14, 49, 98, 67, 134];

    fn bits(v: &[C64]) -> Vec<(u64, u64)> {
        v.iter().map(|c| (c.re.to_bits(), c.im.to_bits())).collect()
    }

    fn row_bits(v: &[LaneRow]) -> Vec<(u64, u64)> {
        let lanes = v.iter().flat_map(|r| (0..LANES).map(|l| r.get(l)));
        bits(&lanes.collect::<Vec<_>>())
    }

    #[test]
    fn execute_many_equals_single_lines_bitwise() {
        for n in LANE_LENGTHS {
            for dir in [Direction::Forward, Direction::Inverse] {
                let plan = CfftPlan::new(n, dir);
                let mut scratch = plan.make_scratch();
                // every partial last block up to three full ones and one over
                for lines in 1..=3 * LANES + 1 {
                    let mut many = random_signal(lines * n, (n * 131 + lines) as u64);
                    let mut single = many.clone();
                    for line in single.chunks_exact_mut(n) {
                        plan.execute(line, &mut scratch);
                    }
                    plan.execute_many(&mut many, &mut scratch);
                    assert_eq!(bits(&many), bits(&single), "n={n} {dir:?} lines={lines}");
                }
            }
        }
    }

    /// Per-line reference for [`CfftPlan::execute_dealiased`] from the
    /// single-line API: pad, transform, scale, truncate.
    fn dealiased_reference(plan: &CfftPlan, src: &[C64], modes: usize, scale: f64) -> Vec<C64> {
        let n = plan.len();
        let mut scratch = plan.make_scratch();
        let mut line = vec![C64::new(0.0, 0.0); n];
        let mut out = Vec::new();
        if plan.direction() == Direction::Inverse {
            for s in src.chunks_exact(modes) {
                pad_full(s, &mut line);
                plan.execute(&mut line, &mut scratch);
                out.extend(line.iter().map(|v| v * scale));
            }
        } else {
            let mut kept = vec![C64::new(0.0, 0.0); modes];
            for s in src.chunks_exact(n) {
                line.copy_from_slice(s);
                plan.execute(&mut line, &mut scratch);
                for v in line.iter_mut() {
                    *v *= scale;
                }
                truncate_full(&line, &mut kept);
                out.extend_from_slice(&kept);
            }
        }
        out
    }

    /// `lines` back-to-back lines of `len` values as lane-blocked lines:
    /// lane `l` of blocked line `b` is line `LANES * b + l`, pad lanes zero.
    fn block_lines(src: &[C64], len: usize) -> Vec<LaneRow> {
        let lines = src.len() / len;
        let mut out = vec![LaneRow::ZERO; lines.div_ceil(LANES) * len];
        for (i, line) in src.chunks_exact(len).enumerate() {
            let (b, l) = (i / LANES, i % LANES);
            for (v, &c) in out[b * len..(b + 1) * len].iter_mut().zip(line) {
                v.set(l, c);
            }
        }
        out
    }

    #[test]
    fn execute_dealiased_equals_pad_transform_truncate_bitwise() {
        for n in LANE_LENGTHS.into_iter().filter(|n| n % 2 == 0) {
            // the 3/2-rule size where it exists, and no padding at all
            // (which still drops the Nyquist slot)
            for modes in [n, 2 * (n / 3)] {
                if modes < 2 {
                    continue;
                }
                for (dir, scale) in [
                    (Direction::Inverse, 1.0),
                    (Direction::Forward, 1.0 / n as f64),
                ] {
                    let plan = CfftPlan::new(n, dir);
                    let mut scratch = plan.make_scratch();
                    let (src_len, dst_len) = match dir {
                        Direction::Inverse => (modes, n),
                        Direction::Forward => (n, modes),
                    };
                    for lines in 1..=3 * LANES + 1 {
                        // the pad lanes of the last block hold zero lines
                        let mut src = random_signal(lines * src_len, (n * 977 + lines) as u64);
                        src.resize(lines.div_ceil(LANES) * LANES * src_len, C64::new(0.0, 0.0));
                        let want = dealiased_reference(&plan, &src, modes, scale);
                        let (src, want) = (block_lines(&src, src_len), block_lines(&want, dst_len));
                        // each source line at the front of a whole line,
                        // the slots past it NaN: they must never be read
                        let nan = LaneRow {
                            re: Lanes([f64::NAN; LANES]),
                            im: Lanes([f64::NAN; LANES]),
                        };
                        let mut buf = vec![nan; src.len() / src_len * n];
                        for (line, s) in buf.chunks_exact_mut(n).zip(src.chunks_exact(src_len)) {
                            line[..src_len].copy_from_slice(s);
                        }
                        plan.execute_dealiased(&mut buf, modes, scale, &mut scratch);
                        let dst: Vec<LaneRow> = buf
                            .chunks_exact(n)
                            .flat_map(|l| &l[..dst_len])
                            .copied()
                            .collect();
                        assert_eq!(
                            row_bits(&dst),
                            row_bits(&want),
                            "n={n} modes={modes} {dir:?} lines={lines}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn baseline_and_detected_instantiations_agree_bitwise() {
        if !Isa::detect().avx2() {
            eprintln!("no AVX2 on this host: only the baseline instantiation exists");
        }
        for n in [8usize, 36, 72, 96, 98, 120] {
            for dir in [Direction::Forward, Direction::Inverse] {
                let wide = CfftPlan::new(n, dir);
                let mut base = CfftPlan::new(n, dir);
                base.isa = Isa::BASELINE;
                let mut scratch = wide.make_scratch();
                let data = random_signal(19 * n, n as u64);
                let (mut a, mut b) = (data.clone(), data);
                wide.execute_many(&mut a, &mut scratch);
                base.execute_many(&mut b, &mut scratch);
                assert_eq!(bits(&a), bits(&b), "n={n} {dir:?}");
            }
        }
    }
}
