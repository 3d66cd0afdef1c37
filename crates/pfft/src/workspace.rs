//! Reusable buffers for the pencil pipeline.
//!
//! Every transform of [`crate::ParallelFft`] runs the same two legs on a
//! [`Workspace`], and every stage past the CommB transpose runs in place
//! on one lane-row ([`LaneRow`]) pencil buffer. Its z view is
//! `[y_loc][C][kx_block][pz]`: lane `l` of block `b` is local kx `8b + l`
//! (pad lanes zero), `C` is the call's larger field count (5 for the
//! fused cycle, `k` for a `k`-field batch) and every z line has the padded
//! length `pz`, of which the spectral stages use the first `nz`. The
//! y-pencil stacks the transforms start from and end in are lane-blocked
//! the same way, `[kz_loc][C][kx_block][ny]`, so the CommB transposes move
//! whole lane rows. Its x view is the z-fastest x-pencil
//! `[y_loc][C][kx_block][z_loc]` (one run of blocks per CommA rank): on one
//! CommA rank the two views coincide, and across CommA ranks the hops
//! move the buffer between them in place, so the buffer has the length of
//! the larger view. It starts empty and only ever grows, so the fused
//! path ([`crate::ParallelFft::nonlinear_lanes`]), which reuses the
//! caller's workspace, fills it once, when it grows; from the second
//! call on no `resize` runs and a steady-state RK3 substep is
//! allocation-free on a single rank (across ranks the exchanges reuse
//! their message buffers, and only the message layer's envelopes
//! allocate). The batch transforms use a fresh one per call.

use dns_fft::{LaneRow, Lanes};

use crate::C64;

/// The pipeline's pencil buffer plus the serial-path line scratch.
///
/// One `Workspace` belongs to one [`crate::ParallelFft`]-shaped problem;
/// it can be shared across calls and across differently-sized transforms
/// (buffers only ever grow, and a call reads only what it wrote).
#[derive(Default)]
pub struct Workspace {
    /// The pencil, as the z-pencil `[y_loc][C][kx_block][pz]` (the CommB
    /// transpose writes the first `nz` values of its lines, the z-stages
    /// transform them in place) or the x-pencil
    /// `[y_loc][C][kx_block][z_loc]` (the x-stage reads and writes it),
    /// which the CommA hops move it between.
    pub(crate) pencil: Vec<LaneRow>,
    /// Message buffers of the exchanges, all in lane rows: the CommB
    /// transposes and the CommA hops (unused on a single rank).
    pub(crate) send: Vec<Vec<LaneRow>>,
    /// The lane-blocked y-pencil stack the line-order
    /// [`crate::ParallelFft::nonlinear_products`] converts through (empty
    /// while only [`crate::ParallelFft::nonlinear_lanes`] runs).
    pub(crate) staging: Vec<LaneRow>,
    /// Per-line scratch for the serial (no thread pool) path.
    pub(crate) serial: LineScratch,
    /// Courant weights `(1/dx, 1/dy per local y row, 1/dz)`: with rows set, the
    /// fused x-stage folds the largest `|u|/dx + |v|/dy + |w|/dz` into `courant_rate`.
    pub courant_weights: (f64, Vec<f64>, f64),
    /// This rank's largest advective rate since the caller zeroed it.
    pub courant_rate: f64,
}

impl Workspace {
    /// A workspace with no buffers allocated yet.
    pub fn new() -> Workspace {
        Workspace::default()
    }

    /// Bytes of the pencil buffer this workspace holds
    /// ([`crate::ParallelFft::workspace_bytes`] is what the fused cycle
    /// grows it to). The line-order staging is not a pencil and not
    /// counted.
    pub fn bytes(&self) -> usize {
        self.pencil.capacity() * std::mem::size_of::<LaneRow>()
    }
}

/// The first `len` rows of `buf`, grown (never shrunk) to hold them: only
/// the growth is zero-filled, so a warm buffer is handed out untouched.
pub(crate) fn grown(buf: &mut Vec<LaneRow>, len: usize) -> &mut [LaneRow] {
    if buf.len() < len {
        buf.resize(len, LaneRow::ZERO);
    }
    &mut buf[..len]
}

/// The cache-resident buffers of one line-loop worker (the serial path
/// keeps a persistent copy inside [`Workspace`]; threaded workers build
/// one each via `for_each_init`). Physical x data lives here as lane
/// blocks: entry `x` holds value `x` of [`dns_fft::LANES`] lines.
#[derive(Default)]
pub(crate) struct LineScratch {
    /// FFT plan scratch (max over the plans used).
    pub fft: Vec<C64>,
    /// Physical x-line blocks of the stage's fields, stacked
    /// (`fields * px`).
    pub phys: Vec<Lanes>,
    /// One physical product x-line block (`px`).
    pub prod: Vec<Lanes>,
}

impl LineScratch {
    /// Grow every buffer to the sizes a stage over `fields` fields needs.
    pub fn ensure(&mut self, fields: usize, px: usize, fft_len: usize) {
        if self.fft.len() < fft_len {
            self.fft.resize(fft_len, C64::new(0.0, 0.0));
        }
        if self.phys.len() < fields * px {
            self.phys.resize(fields * px, Lanes::default());
        }
        if self.prod.len() < px {
            self.prod.resize(px, Lanes::default());
        }
    }

    /// A fresh, fully sized scratch (threaded workers).
    pub fn sized(fields: usize, px: usize, fft_len: usize) -> LineScratch {
        let mut s = LineScratch::default();
        s.ensure(fields, px, fft_len);
        s
    }
}
