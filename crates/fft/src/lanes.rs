//! The on-node kernel substrate: lane-blocked (SoA) storage, the
//! instruction-set switch, and the thread fan-out.
//!
//! A block holds element `i` of [`LANES`] independent lines side by side
//! (`re[0..LANES]`, then `im[0..LANES]`), so one butterfly on a block is
//! the same scalar butterfly applied to every lane: the compiler turns
//! the fixed-width lane loops into vector instructions even at Stockham
//! stride 1, where a single line offers nothing to vectorise. Each lane
//! sees exactly the operations, in exactly the order, of the single-line
//! kernel, so blocked results equal per-line results bit for bit.

use std::ops::{Add, Index, IndexMut, Mul, Neg, Sub};

use crate::C64;

/// Lines carried through one pass of the multi-line kernels: one cache
/// line of `f64`s, and the natural vector width of the lane loops
/// (AVX-512 fills one register, AVX2/NEON unroll by two/four with no
/// remainder).
pub const LANES: usize = 8;

/// One real value from each of [`LANES`] lines (one cache line).
#[derive(Clone, Copy, Debug, Default, PartialEq)]
#[repr(C, align(64))]
pub struct Lanes(pub [f64; LANES]);

/// One complex element from each of [`LANES`] lines: the real parts, then
/// the imaginary parts (two cache lines).
#[derive(Clone, Copy, Debug, Default, PartialEq)]
#[repr(C)]
pub struct LaneRow {
    /// Real parts, one per lane.
    pub re: Lanes,
    /// Imaginary parts, one per lane.
    pub im: Lanes,
}

impl LaneRow {
    /// All lanes zero.
    pub const ZERO: LaneRow = LaneRow {
        re: Lanes([0.0; LANES]),
        im: Lanes([0.0; LANES]),
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
}

impl Index<usize> for Lanes {
    type Output = f64;
    #[inline(always)]
    fn index(&self, l: usize) -> &f64 {
        &self.0[l]
    }
}

impl IndexMut<usize> for Lanes {
    #[inline(always)]
    fn index_mut(&mut self, l: usize) -> &mut f64 {
        &mut self.0[l]
    }
}

impl Add for Lanes {
    type Output = Lanes;
    #[inline(always)]
    fn add(self, o: Lanes) -> Lanes {
        Lanes(std::array::from_fn(|l| self.0[l] + o.0[l]))
    }
}

impl Sub for Lanes {
    type Output = Lanes;
    #[inline(always)]
    fn sub(self, o: Lanes) -> Lanes {
        Lanes(std::array::from_fn(|l| self.0[l] - o.0[l]))
    }
}

impl Neg for Lanes {
    type Output = Lanes;
    #[inline(always)]
    fn neg(self) -> Lanes {
        Lanes(self.0.map(|v| -v))
    }
}

impl Mul<f64> for Lanes {
    type Output = Lanes;
    #[inline(always)]
    fn mul(self, s: f64) -> Lanes {
        Lanes(self.0.map(|v| v * s))
    }
}

/// What the butterflies need of a complex value: [`C64`] is the
/// single-line instantiation, [`LaneRow`] the blocked one. Twiddles and
/// DFT constants are shared by all lanes, so the only product of a part
/// is by an `f64`.
pub(crate) trait Cx: Copy {
    /// The type of each part.
    type V: Copy
        + Add<Output = Self::V>
        + Sub<Output = Self::V>
        + Neg<Output = Self::V>
        + Mul<f64, Output = Self::V>;
    const ZERO: Self;
    fn new(re: Self::V, im: Self::V) -> Self;
    fn re(self) -> Self::V;
    fn im(self) -> Self::V;
}

impl Cx for C64 {
    type V = f64;
    const ZERO: C64 = C64 { re: 0.0, im: 0.0 };
    fn new(re: f64, im: f64) -> C64 {
        C64 { re, im }
    }
    fn re(self) -> f64 {
        self.re
    }
    fn im(self) -> f64 {
        self.im
    }
}

impl Cx for LaneRow {
    type V = Lanes;
    const ZERO: LaneRow = LaneRow::ZERO;
    fn new(re: Lanes, im: Lanes) -> LaneRow {
        LaneRow { re, im }
    }
    fn re(self) -> Lanes {
        self.re
    }
    fn im(self) -> Lanes {
        self.im
    }
}

/// Instruction set the blocked kernels run under, fixed when the object
/// that owns them is built. The field is private so a `true` can only
/// come from [`Isa::detect`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Isa {
    avx2: bool,
}

impl Isa {
    /// Build-target baseline: what the blocked kernels compile to with no
    /// runtime detection (tests compare it against [`Isa::detect`]).
    pub const BASELINE: Isa = Isa { avx2: false };

    /// The widest instantiation the running CPU supports.
    pub fn detect() -> Isa {
        #[cfg(target_arch = "x86_64")]
        let avx2 = std::arch::is_x86_feature_detected!("avx2");
        #[cfg(not(target_arch = "x86_64"))]
        let avx2 = false;
        Isa { avx2 }
    }

    /// Whether the AVX2 instantiation runs.
    #[inline(always)]
    pub fn avx2(self) -> bool {
        self.avx2
    }
}

/// Define `$name(isa, args..)` as the runtime-selected instantiation of
/// the `#[inline(always)]` function `$body`, taking `args`: the same body
/// compiled once for the build target and once with AVX2 enabled. FMA is
/// deliberately not enabled (and Rust never contracts `a * b + c` on its
/// own), so both instantiations round identically.
#[macro_export]
macro_rules! isa_fn {
    ($(#[$doc:meta])* fn $name:ident($($arg:ident: $ty:ty),* $(,)?) = $body:expr) => {
        $(#[$doc])*
        pub(crate) fn $name(isa: $crate::lanes::Isa, $($arg: $ty),*) {
            #[cfg(target_arch = "x86_64")]
            if isa.avx2() {
                #[target_feature(enable = "avx2")]
                unsafe fn wide($($arg: $ty),*) {
                    $body($($arg),*)
                }
                // SAFETY: `Isa::avx2` is only true when `Isa::detect`
                // found AVX2 on the running CPU.
                return unsafe { wide($($arg),*) };
            }
            let _ = isa;
            $body($($arg),*)
        }
    };
}

/// Run `f(state, i, chunk)` on every `chunk`-long chunk `i` of `data`
/// over `threads` scoped workers. Each worker takes an equal contiguous
/// share of the chunks in order and builds its `state` once with `init`.
/// A trailing partial chunk is not visited. A single share runs on the
/// calling thread.
///
/// # Panics
/// If `chunk` is zero, or if `f` panics on any worker.
pub fn fan_out<T: Send, S>(
    threads: usize,
    data: &mut [T],
    chunk: usize,
    init: impl Fn() -> S + Sync,
    f: impl Fn(&mut S, usize, &mut [T]) + Sync,
) {
    assert!(chunk != 0, "chunk size must be non-zero");
    let items = data.len() / chunk;
    let run = &|first: usize, share: &mut [T]| {
        let mut state = init();
        for (i, c) in share.chunks_exact_mut(chunk).enumerate() {
            f(&mut state, first + i, c);
        }
    };
    let per = items.div_ceil(threads.max(1));
    if per == items {
        return run(0, data);
    }
    std::thread::scope(|s| {
        for (w, share) in data[..items * chunk].chunks_mut(per * chunk).enumerate() {
            s.spawn(move || run(w * per, share));
        }
    });
}

/// Carve `blocks` lane blocks off the front of plan scratch; returns them
/// and the untouched rest. The `C64` prefix that does not reach the block
/// alignment is skipped, which is what [`SCRATCH_SLACK`] pays for.
pub(crate) fn lane_blocks(scratch: &mut [C64], blocks: usize) -> (&mut [LaneRow], &mut [C64]) {
    let (head, rest) = scratch.split_at_mut(blocks * LANES + SCRATCH_SLACK);
    // SAFETY: `C64` is `repr(C)` of two `f64`; `LaneRow` is `repr(C)` of
    // two `repr(C)` `[f64; LANES]` with no padding (size 128, alignment
    // 64). Every bit pattern is a valid `f64`, so reinterpreting the
    // aligned middle of the slice is sound in both directions.
    let (_, mid, _) = unsafe { head.align_to_mut::<LaneRow>() };
    (&mut mid[..blocks], rest)
}

/// `C64` elements [`lane_blocks`] may skip to reach a 64-byte boundary.
pub(crate) const SCRATCH_SLACK: usize = 4;

/// Element `k` of each of the `src.len() / len` back-to-back lines in
/// `src` (at most [`LANES`]); the remaining lanes are zero.
#[inline(always)]
pub(crate) fn gather(src: &[C64], len: usize, k: usize) -> LaneRow {
    let mut v = LaneRow::ZERO;
    for (l, line) in src.chunks_exact(len).enumerate() {
        v.set(l, line[k]);
    }
    v
}

/// Store `v * scale` as element `k` of each of the `dst.len() / len`
/// lines in `dst`.
#[inline(always)]
pub(crate) fn scatter(v: LaneRow, scale: f64, dst: &mut [C64], len: usize, k: usize) {
    for (l, line) in dst.chunks_exact_mut(len).enumerate() {
        line[k] = C64::new(v.re[l] * scale, v.im[l] * scale);
    }
}

/// Up to [`LANES`] lines' spectra stored lane-blocked over the
/// coefficient index, the layout the pencil transposes leave: the
/// coefficients come in consecutive runs of lengths `runs`, each run
/// stored as whole blocks (a run of `len` takes `len.div_ceil(LANES)` of
/// them; the pad lanes of its last one are written zero, never read), and
/// lane `l` of a run's
/// block `b` is the run's coefficient `LANES * b + l`. Line `i`'s entry of
/// block `b` (counted over all runs) is at `b * stride + i`, for
/// `i < lines`.
#[derive(Clone, Copy, Debug)]
pub struct LaneSpectra<'a> {
    runs: &'a [usize],
    stride: usize,
    lines: usize,
}

impl<'a> LaneSpectra<'a> {
    /// `lines` lines whose blocks sit `stride` entries apart, holding the
    /// coefficient runs `runs`.
    ///
    /// # Panics
    /// Unless `1 <= lines <= min(LANES, stride)` and every run is
    /// non-empty.
    pub fn new(runs: &'a [usize], stride: usize, lines: usize) -> LaneSpectra<'a> {
        assert!(
            (1..=LANES.min(stride)).contains(&lines),
            "1 to min(LANES, stride) lines"
        );
        assert!(runs.iter().all(|&len| len > 0), "empty coefficient run");
        LaneSpectra {
            runs,
            stride,
            lines,
        }
    }

    /// Coefficients per line: the sum of the runs.
    pub(crate) fn modes(&self) -> usize {
        self.runs.iter().sum()
    }

    /// Entries a slice must hold for the last block's last line.
    pub(crate) fn span(&self) -> usize {
        let blocks: usize = self.runs.iter().map(|len| len.div_ceil(LANES)).sum();
        (blocks - 1) * self.stride + self.lines
    }

    /// `f(first entry, first coefficient, coefficients)` for every block.
    #[inline(always)]
    pub(crate) fn each_block(self, mut f: impl FnMut(usize, usize, usize)) {
        let (mut block, mut first) = (0, 0);
        for &len in self.runs {
            for c in (0..len).step_by(LANES) {
                f(block * self.stride, first + c, LANES.min(len - c));
                block += 1;
            }
            first += len;
        }
    }

    /// Lines per block.
    #[inline(always)]
    pub(crate) fn lines(&self) -> usize {
        self.lines
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn fan_out_visits_every_chunk_once_with_its_index() {
        for threads in [1, 2, 3, 4, 7] {
            let mut data = vec![0usize; 4 * 17];
            fan_out(
                threads,
                &mut data,
                4,
                || (),
                |(), i, c| {
                    for v in c.iter_mut() {
                        *v += i + 1;
                    }
                },
            );
            for (i, c) in data.chunks_exact(4).enumerate() {
                assert!(c.iter().all(|&v| v == i + 1), "threads={threads} chunk {i}");
            }
        }
    }

    #[test]
    fn fan_out_runs_init_at_most_once_per_thread() {
        for (threads, chunks) in [(3, 12), (3, 2), (4, 1), (2, 0)] {
            let inits = AtomicUsize::new(0);
            let mut data = vec![0usize; 2 * chunks];
            fan_out(
                threads,
                &mut data,
                2,
                || {
                    inits.fetch_add(1, Ordering::Relaxed);
                    0usize // per-worker count of chunks
                },
                |seen, i, c| {
                    *seen += 1;
                    c.fill(i + 1);
                },
            );
            let n = inits.load(Ordering::Relaxed);
            assert!(
                (1..=threads.min(chunks.max(1))).contains(&n),
                "init ran {n} times"
            );
            for (i, c) in data.chunks_exact(2).enumerate() {
                assert!(c.iter().all(|&v| v == i + 1));
            }
        }
    }

    #[test]
    fn fan_out_leaves_the_remainder_untouched() {
        for threads in [1, 3] {
            let mut data = [7u8; 10];
            fan_out(threads, &mut data, 4, || (), |(), _, c| c.fill(0));
            assert_eq!(data, [0, 0, 0, 0, 0, 0, 0, 0, 7, 7], "threads={threads}");
        }
    }

    #[test]
    fn lane_rows_read_and_write_single_lanes() {
        let mut row = LaneRow::ZERO;
        row.set(3, C64::new(1.5, -2.0));
        assert_eq!(row.get(3), C64::new(1.5, -2.0));
        assert_eq!((row.re[3], row.im[3]), (1.5, -2.0));
        assert_eq!(row.get(2), C64::new(0.0, 0.0));
        assert_eq!((size_of::<LaneRow>(), align_of::<LaneRow>()), (128, 64));
    }
}
