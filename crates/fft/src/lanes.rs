//! Lane-blocked (SoA) storage for the multi-line kernels.
//!
//! A block holds element `i` of [`LANES`] independent lines side by side
//! (`re[0..LANES]`, then `im[0..LANES]`), so one butterfly on a block is
//! the same scalar butterfly applied to every lane: the compiler turns
//! the fixed-width lane loops into vector instructions even at Stockham
//! stride 1, where a single line offers nothing to vectorise. Each lane
//! sees exactly the operations, in exactly the order, of the single-line
//! kernel, so blocked results equal per-line results bit for bit.

use std::ops::{Add, Mul, Neg, Sub};

use num_complex::Complex;

use crate::C64;

/// Lines carried through one pass of the multi-line kernels.
pub const LANES: usize = 8;

/// One real value from each of [`LANES`] lines (one cache line).
#[derive(Clone, Copy, Debug, Default, PartialEq)]
#[repr(C, align(64))]
pub struct Lanes(pub [f64; LANES]);

/// One complex element from each of [`LANES`] lines.
pub(crate) type LaneC = Complex<Lanes>;

pub(crate) const ZERO: LaneC = Complex {
    re: Lanes([0.0; LANES]),
    im: Lanes([0.0; LANES]),
};

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

/// What the butterflies need of a value: `f64` is the single-line
/// instantiation, [`Lanes`] the blocked one. Twiddles and DFT constants
/// are shared by all lanes, so the only product is by an `f64`.
pub(crate) trait Lane:
    Copy + Add<Output = Self> + Sub<Output = Self> + Neg<Output = Self> + Mul<f64, Output = Self>
{
    const ZERO: Self;
}

impl Lane for f64 {
    const ZERO: f64 = 0.0;
}

impl Lane for Lanes {
    const ZERO: Lanes = Lanes([0.0; LANES]);
}

/// Instruction set the blocked kernels run under, fixed at plan
/// construction. The field is private so a `true` can only come from
/// [`Isa::detect`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct Isa {
    avx2: bool,
}

impl Isa {
    /// Build-target baseline: what the blocked kernels compile to with no
    /// runtime detection (tests compare it against [`Isa::detect`]).
    #[cfg(test)]
    pub const BASELINE: Isa = Isa { avx2: false };

    pub fn detect() -> Isa {
        #[cfg(target_arch = "x86_64")]
        let avx2 = std::arch::is_x86_feature_detected!("avx2");
        #[cfg(not(target_arch = "x86_64"))]
        let avx2 = false;
        Isa { avx2 }
    }

    #[inline(always)]
    pub fn avx2(self) -> bool {
        self.avx2
    }
}

/// Define `$name(isa, args..)` as the runtime-selected instantiation of
/// the `#[inline(always)]` function `$body`, taking `args`: the same body compiled once
/// for the build target and once with AVX2 enabled. FMA is deliberately
/// not enabled (and Rust never contracts `a * b + c` on its own), so both
/// instantiations round identically.
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
pub(crate) use isa_fn;

/// Carve `blocks` lane blocks off the front of plan scratch; returns them
/// and the untouched rest. The `C64` prefix that does not reach the block
/// alignment is skipped, which is what [`SCRATCH_SLACK`] pays for.
pub(crate) fn lane_blocks(scratch: &mut [C64], blocks: usize) -> (&mut [LaneC], &mut [C64]) {
    let (head, rest) = scratch.split_at_mut(blocks * LANES + SCRATCH_SLACK);
    // SAFETY: `C64` is `repr(C)` of two `f64`; `LaneC` is `repr(C)` of two
    // `repr(C)` `[f64; LANES]` with no padding (size 128, alignment 64).
    // Every bit pattern is a valid `f64`, so reinterpreting the aligned
    // middle of the slice is sound in both directions.
    let (_, mid, _) = unsafe { head.align_to_mut::<LaneC>() };
    (&mut mid[..blocks], rest)
}

/// `C64` elements [`lane_blocks`] may skip to reach a 64-byte boundary.
pub(crate) const SCRATCH_SLACK: usize = 4;

/// Element `k` of each of the `src.len() / len` back-to-back lines in
/// `src` (at most [`LANES`]); the remaining lanes are zero.
#[inline(always)]
pub(crate) fn gather(src: &[C64], len: usize, k: usize) -> LaneC {
    let mut v = ZERO;
    for (l, line) in src.chunks_exact(len).enumerate() {
        v.re.0[l] = line[k].re;
        v.im.0[l] = line[k].im;
    }
    v
}

/// Store `v * scale` as element `k` of each of the `dst.len() / len`
/// lines in `dst`.
#[inline(always)]
pub(crate) fn scatter(v: LaneC, scale: f64, dst: &mut [C64], len: usize, k: usize) {
    for (l, line) in dst.chunks_exact_mut(len).enumerate() {
        line[k] = C64::new(v.re.0[l] * scale, v.im.0[l] * scale);
    }
}

/// Where up to [`LANES`] interleaved lines sit in a slice: element `k` of
/// line `l` at `k * stride + l`, for `l < lines`.
#[derive(Clone, Copy)]
pub(crate) struct Interleaved {
    stride: usize,
    lines: usize,
}

impl Interleaved {
    /// The lines of a `len`-long slice holding `modes` elements of each at
    /// `stride`: the first `len - (modes - 1) * stride` of them.
    pub fn of(len: usize, modes: usize, stride: usize) -> Interleaved {
        let lines = len.wrapping_sub((modes - 1) * stride);
        assert!(
            (1..=LANES.min(stride)).contains(&lines),
            "1 to min(LANES, stride) lines"
        );
        Interleaved { stride, lines }
    }

    /// Element `k` of every line; the lanes past the last line are zero.
    #[inline(always)]
    pub fn gather(self, src: &[C64], k: usize) -> LaneC {
        let mut v = ZERO;
        for (l, c) in src[k * self.stride..][..self.lines].iter().enumerate() {
            v.re.0[l] = c.re;
            v.im.0[l] = c.im;
        }
        v
    }

    /// Store `v * scale` as element `k` of every line.
    #[inline(always)]
    pub fn scatter(self, v: LaneC, scale: f64, dst: &mut [C64], k: usize) {
        for (l, c) in dst[k * self.stride..][..self.lines].iter_mut().enumerate() {
            *c = C64::new(v.re.0[l] * scale, v.im.0[l] * scale);
        }
    }
}
