//! Reusable buffers for the pencil pipeline.
//!
//! Every transform of [`crate::ParallelFft`] runs the same two legs on a
//! [`Workspace`]. Every buffer past the CommB transpose holds lane rows
//! ([`LaneRow`]): the z-pencil `[y_loc][field][kx_block][z]`, lane `l` of
//! block `b` local kx `8b + l`, pad lanes zero; the x-pencil spectra
//! `[y_loc][field][kx_block][z_loc]`, one run of blocks per CommA rank.
//! The fused path ([`crate::ParallelFft::nonlinear_products`]) reuses the
//! caller's, whose buffers start empty and are sized on first use, so from
//! the second call on no `resize` allocates and a steady-state RK3 substep
//! is allocation-free on a single rank (across ranks the exchanges reuse
//! their message buffers, and only the message layer's envelopes
//! allocate). The batch transforms use a fresh one per call.

use dns_fft::{LaneRow, Lanes};

use crate::C64;

/// Intermediate full-pencil buffers plus the serial-path line scratch.
///
/// One `Workspace` belongs to one [`crate::ParallelFft`]-shaped problem;
/// it can be shared across calls and across differently-sized transforms
/// (buffers only ever grow).
#[derive(Default)]
pub struct Workspace {
    /// z-pencil spectral lines (after the y->z transpose); across CommA
    /// ranks also the x-pencil spectra after the z->x hop.
    pub(crate) zp_spec: Vec<LaneRow>,
    /// z-pencil padded lines (physical z), which on one CommA rank are the
    /// x-pencil spectra the x-stage reads; across CommA ranks also the
    /// x-pencil spectra the x-stage writes, before the x->z hop.
    pub(crate) zp: Vec<LaneRow>,
    /// z-pencil padded lines, the forward z-stage's input: written by the
    /// x-stage on one CommA rank, by the x->z hop across them.
    pub(crate) zp_prod: Vec<LaneRow>,
    /// z-pencil truncated lines (after the forward z FFT).
    pub(crate) out_z: Vec<LaneRow>,
    /// Message buffers of the lane-row exchanges: the z->y transpose and
    /// the CommA hops (unused on a single rank).
    pub(crate) send: Vec<Vec<LaneRow>>,
    /// Message buffers of the y->z transpose, which carries the
    /// y-pencil's `C64` lines (unused on a single rank).
    pub(crate) send_lines: Vec<Vec<C64>>,
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
