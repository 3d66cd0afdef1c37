//! The pencil-FFT pipeline implementation.

use std::sync::atomic::{AtomicU64, Ordering};

use dns_fft::{CfftPlan, Direction, Lanes, RealLayout, RfftPlan, LANES};
use dns_minimpi::{CartComm, Communicator};
use dns_pencil::{Block, ExchangeStrategy, RowsPlacement, TransposePlan};

use dns_telemetry as telemetry;
use dns_telemetry::{Phase, PhaseClock, PhaseSeconds};

use crate::workspace::{LineScratch, Workspace};
use crate::C64;

/// Velocity fields entering the fused nonlinear pipeline (u, v, w).
pub const NL_FIELDS: usize = 3;

/// Quadratic products leaving the fused pipeline. The paper's
/// five-product accounting: `vv` only ever appears under `d/dy`, where it
/// cancels against the pressure-free projection, so the forward hop
/// carries `uu - vv`, `uv`, `uw`, `vw`, `ww - vv` — one sixth less
/// transpose and FFT volume than the naive six products.
pub const NL_PRODUCTS: usize = 5;

/// Product table: `(left field, right field, subtract vv)` with fields
/// indexed u=0, v=1, w=2, in the order the stacked output stores them.
const PRODUCTS: [(usize, usize, bool); NL_PRODUCTS] = [
    (0, 0, true),  // A  = uu - vv
    (0, 1, false), // uv
    (0, 2, false), // uw
    (1, 2, false), // vw
    (2, 2, true),  // B  = ww - vv
];

/// Configuration of a parallel FFT instance.
#[derive(Clone, Copy, Debug)]
pub struct PfftConfig {
    /// Solution modes in x (streamwise, real direction). Multiple of 4
    /// when `dealias` is set, even otherwise.
    pub nx: usize,
    /// Wall-normal points (carried through untransformed).
    pub ny: usize,
    /// Solution modes in z (spanwise). Multiple of 4 when `dealias` is
    /// set, even otherwise.
    pub nz: usize,
    /// Process-grid extent of CommA (x<->z exchanges).
    pub pa: usize,
    /// Process-grid extent of CommB (z<->y exchanges).
    pub pb: usize,
    /// Apply the 3/2 rule: physical grids are `3nx/2 x 3nz/2`.
    pub dealias: bool,
    /// Drop the Nyquist mode of the x spectrum (customized kernel: true;
    /// P3DFFT-like baseline: false).
    pub elide_nyquist: bool,
    /// Fixed exchange schedule, or `None` to measure both at plan time
    /// (FFTW-style planning; the baseline uses `Some(AllToAll)`).
    pub strategy: Option<ExchangeStrategy>,
    /// On-node worker threads for the serial-FFT line loops (the paper's
    /// OpenMP threading, section 4.2). 1 = serial; P3DFFT has none.
    pub threads: usize,
}

impl PfftConfig {
    /// The customized kernel of the paper (planned transposes, Nyquist
    /// elision, dealiasing as requested).
    pub fn customized(nx: usize, ny: usize, nz: usize, pa: usize, pb: usize) -> Self {
        PfftConfig {
            nx,
            ny,
            nz,
            pa,
            pb,
            dealias: false,
            elide_nyquist: true,
            strategy: None,
            threads: 1,
        }
    }

    /// The P3DFFT-equivalent baseline of section 4.4: Nyquist kept, fixed
    /// alltoall, no dealiasing support (P3DFFT 2.5.1 has none), no
    /// threading.
    pub fn p3dfft_baseline(nx: usize, ny: usize, nz: usize, pa: usize, pb: usize) -> Self {
        PfftConfig {
            nx,
            ny,
            nz,
            pa,
            pb,
            dealias: false,
            elide_nyquist: false,
            strategy: Some(ExchangeStrategy::AllToAll),
            threads: 1,
        }
    }

    /// Enable 3/2 dealiasing (the DNS production configuration).
    pub fn with_dealias(mut self) -> Self {
        self.dealias = true;
        self
    }

    /// Use `n` on-node threads for the transform line loops.
    pub fn with_threads(mut self, n: usize) -> Self {
        self.threads = n.max(1);
        self
    }

    /// Physical grid length in x.
    pub fn px(&self) -> usize {
        if self.dealias {
            3 * self.nx / 2
        } else {
            self.nx
        }
    }

    /// Physical grid length in z.
    pub fn pz(&self) -> usize {
        if self.dealias {
            3 * self.nz / 2
        } else {
            self.nz
        }
    }

    /// Stored x-spectrum length.
    pub fn sx(&self) -> usize {
        self.nx / 2 + usize::from(!self.elide_nyquist)
    }
}

/// A planned parallel FFT bound to a `pa x pb` Cartesian process grid.
pub struct ParallelFft {
    cfg: PfftConfig,
    comm_a: Communicator,
    comm_b: Communicator,
    /// Blocks this rank owns in each decomposed axis.
    y_block: Block,
    zphys_block: Block,
    kx_block: Block,
    kz_block: Block,
    rfft_x: RfftPlan,
    zfwd: CfftPlan,
    zinv: CfftPlan,
    /// Exchange schedules chosen (or measured) at construction for the
    /// CommA and CommB hops; every batch width inherits them.
    strategy_a: ExchangeStrategy,
    strategy_b: ExchangeStrategy,
    pool: Option<rayon::ThreadPool>,
    /// This rank's phase clock: every timed region of the transform
    /// pipeline, and of the solver built on it, is closed here.
    clock: PhaseClock,
}

/// Transpose plans sized for a `k`-field batch.
struct BatchPlans {
    t_xz: TransposePlan,
    t_zx: TransposePlan,
    t_zy: TransposePlan,
    t_yz: TransposePlan,
}

/// Where an x-stage's physical lines come from.
#[derive(Clone, Copy)]
enum XIn<'a> {
    /// The z-fastest x-pencil spectra `[y][field][kx][z_loc]`: pad + c2r.
    Spectra(&'a [C64]),
    /// Physical fields, each `[y][z][px]`.
    Fields(&'a [&'a [f64]]),
}

/// One flop increment for a whole batch of `lines` transforms of nominal
/// cost `per_line` (truncated per line, as the single-line entries count).
fn count_flops(lines: usize, per_line: f64) {
    if telemetry::enabled() {
        let flops = lines as u64 * per_line as u64;
        telemetry::count_phase(Phase::Fft, telemetry::Counter::Flops, flops);
    }
}

/// The slots of `cnt` interleaved x-pencil spectra of `sx` modes in rows
/// of `zpl` z values (coefficient `k` of line `l` at `first + k*zpl + l`).
fn interleaved(first: usize, sx: usize, zpl: usize, cnt: usize) -> std::ops::Range<usize> {
    first..first + (sx - 1) * zpl + cnt
}

impl ParallelFft {
    /// Collectively construct the pipeline on `world` (all ranks must
    /// call with identical `cfg`; `world.size()` must equal `pa * pb`).
    pub fn new(world: Communicator, cfg: PfftConfig) -> Self {
        assert_eq!(world.size(), cfg.pa * cfg.pb, "world size != pa*pb");
        assert!(
            cfg.nx.is_multiple_of(2) && cfg.nz.is_multiple_of(2),
            "grid sizes must be even"
        );
        if cfg.dealias {
            assert!(
                cfg.nx.is_multiple_of(4) && cfg.nz.is_multiple_of(4),
                "3/2-rule grids must keep the padded sizes even"
            );
        }
        let cart = CartComm::new(world, &[cfg.pa, cfg.pb]);
        let comm_a = cart.sub(0);
        let comm_b = cart.sub(1);
        let (px, pz, sx) = (cfg.px(), cfg.pz(), cfg.sx());
        let y_block = Block::of(cfg.ny, cfg.pb, comm_b.rank());
        let zphys_block = Block::of(pz, cfg.pa, comm_a.rank());
        let kx_block = Block::of(sx, cfg.pa, comm_a.rank());
        let kz_block = Block::of(cfg.nz, cfg.pb, comm_b.rank());

        let make = |comm: &Communicator, rows, nf, nt, placement| match cfg.strategy {
            Some(s) => TransposePlan::with_placement(comm, rows, nf, nt, s, placement),
            None => TransposePlan::plan(comm, rows, nf, nt, placement),
        };
        // z->x: CommA, rows = local y, f = kx spectrum, t = physical z,
        // memory order kept (the x-pencil spectra are z-fastest)
        let strategy_a = make(&comm_a, y_block.len, sx, pz, RowsPlacement::SplitFast).strategy();
        // z->y: CommB, rows = local kx, f = y, t = kz spectrum
        let strategy_b =
            make(&comm_b, kx_block.len, cfg.ny, cfg.nz, RowsPlacement::Middle).strategy();

        let pool = if cfg.threads > 1 {
            Some(
                rayon::ThreadPoolBuilder::new()
                    .num_threads(cfg.threads)
                    .build()
                    .expect("build FFT thread pool"),
            )
        } else {
            None
        };
        ParallelFft {
            cfg,
            comm_a,
            comm_b,
            y_block,
            zphys_block,
            kx_block,
            kz_block,
            pool,
            rfft_x: RfftPlan::new(px, RealLayout::WithNyquist),
            zfwd: CfftPlan::new(pz, Direction::Forward),
            zinv: CfftPlan::new(pz, Direction::Inverse),
            strategy_a,
            strategy_b,
            clock: PhaseClock::default(),
        }
    }

    /// Transpose plans for a `k`-field batch. They inherit the strategies
    /// chosen at construction, so building them is a few integer
    /// operations: no collective, no heap.
    fn batch_plans(&self, k: usize) -> BatchPlans {
        let (cfg, ry, rx) = (&self.cfg, self.y_block.len * k, self.kx_block.len * k);
        let (a, b) = (self.strategy_a, self.strategy_b);
        let (split, middle) = (RowsPlacement::SplitFast, RowsPlacement::Middle);
        let t_zx = TransposePlan::with_placement(&self.comm_a, ry, cfg.sx(), cfg.pz(), a, split);
        let t_zy = TransposePlan::with_placement(&self.comm_b, rx, cfg.ny, cfg.nz, b, middle);
        BatchPlans {
            t_xz: t_zx.inverse(&self.comm_a),
            t_zx,
            t_yz: t_zy.inverse(&self.comm_b),
            t_zy,
        }
    }

    /// The configuration this instance was planned for.
    pub fn config(&self) -> &PfftConfig {
        &self.cfg
    }

    /// The CommA sub-communicator (x<->z exchanges).
    pub fn comm_a(&self) -> &Communicator {
        &self.comm_a
    }

    /// The CommB sub-communicator (z<->y exchanges).
    pub fn comm_b(&self) -> &Communicator {
        &self.comm_b
    }

    /// This rank's y block (x- and z-pencil layouts).
    pub fn y_block(&self) -> Block {
        self.y_block
    }
    /// This rank's physical-z block (x-pencil layout).
    pub fn zphys_block(&self) -> Block {
        self.zphys_block
    }
    /// This rank's kx block (z- and y-pencil layouts).
    pub fn kx_block(&self) -> Block {
        self.kx_block
    }
    /// This rank's kz block (y-pencil layout).
    pub fn kz_block(&self) -> Block {
        self.kz_block
    }

    /// Local length of a real x-pencil field.
    pub fn x_pencil_len(&self) -> usize {
        self.y_block.len * self.zphys_block.len * self.cfg.px()
    }

    /// Local length of a spectral y-pencil field.
    pub fn y_pencil_len(&self) -> usize {
        self.kz_block.len * self.kx_block.len * self.cfg.ny
    }

    /// The rank's phase clock, on which callers close their own regions
    /// ([`telemetry::region`]).
    pub fn clock(&self) -> &PhaseClock {
        &self.clock
    }

    /// Seconds per phase booked on [`ParallelFft::clock`] since
    /// construction or the last [`ParallelFft::reset_timers`]: this
    /// pipeline's transposes and transforms (the field (un)stacking
    /// copies count as FFT), plus whatever the caller booked there.
    pub fn timers(&self) -> PhaseSeconds {
        self.clock.get()
    }

    /// Zero the phase clock.
    pub fn reset_timers(&self) {
        self.clock.set(PhaseSeconds::default());
    }

    /// Peak communication-buffer bytes per call, the memory figure behind
    /// the "N/A: inadequate memory" entries of Table 6: P3DFFT keeps a 3x
    /// input-size buffer, the customized kernel 1x.
    pub fn buffer_bytes(&self) -> usize {
        let base = self.x_pencil_len() * std::mem::size_of::<f64>()
            + self.y_pencil_len() * std::mem::size_of::<C64>();
        if self.cfg.elide_nyquist {
            base
        } else {
            3 * base
        }
    }

    /// Physical x-pencil (real `[y_loc][z_loc][px]`) to spectral y-pencil
    /// (complex `[kz_loc][kx_loc][ny]`), normalised so coefficients are
    /// true Fourier coefficients (roundtrip with [`ParallelFft::inverse`]
    /// is the identity for band-limited data). A batch of one.
    pub fn forward(&self, xp: &[f64]) -> Vec<C64> {
        self.forward_batch(&[xp]).pop().expect("one field out")
    }

    /// Spectral y-pencil back to the physical x-pencil (unnormalised
    /// synthesis; see [`ParallelFft::forward`]). A batch of one.
    pub fn inverse(&self, yp: &[C64]) -> Vec<f64> {
        self.inverse_batch(&[yp]).pop().expect("one field out")
    }

    /// One full benchmark cycle (Table 6 protocol): physical -> spectral
    /// -> physical, i.e. four transposes (two on one CommA rank, where the
    /// x<->z hops move nothing) and four transform passes, no y transform.
    pub fn cycle(&self, xp: &[f64]) -> Vec<f64> {
        let spec = self.forward(xp);
        self.inverse(&spec)
    }

    /// Apply `f(state, row_index, row)` to every `chunk`-sized output row,
    /// serially or on the configured thread pool (the OpenMP-style
    /// threading of section 4.2: rows are independent). The serial path
    /// reuses the caller's persistent `serial` scratch (zero
    /// allocations); threaded workers each build their own via `init`
    /// (rayon `for_each_init` semantics — once per worker, not per row).
    fn for_lines_init<S: Send, T: Send>(
        &self,
        data: &mut [T],
        chunk: usize,
        serial: &mut S,
        init: impl Fn() -> S + Send + Sync,
        f: impl Fn(&mut S, usize, &mut [T]) + Send + Sync,
    ) {
        match &self.pool {
            None => {
                for (l, line) in data.chunks_exact_mut(chunk).enumerate() {
                    f(serial, l, line);
                }
            }
            Some(pool) => pool.install(|| {
                use rayon::prelude::*;
                data.par_chunks_exact_mut(chunk)
                    .enumerate()
                    .for_each_init(&init, |s, (l, line)| f(s, l, line));
            }),
        }
    }

    /// The CommA hop between the z-pencil spectra and the z-fastest
    /// x-pencil spectra. On one CommA rank both are `[y][field][kx][z]`,
    /// one layout, and the data stays where it is.
    fn hop_a(&self, name: &'static str, plan: &TransposePlan, spectra: Vec<C64>) -> Vec<C64> {
        if self.cfg.pa == 1 {
            return spectra;
        }
        let region = telemetry::region(name, Phase::Transpose);
        let out = plan.run(&self.comm_a, &spectra);
        region.close(&self.clock);
        out
    }

    /// Interleave `fields` block-wise for a batched transpose, an FFT
    /// region: block `o` (`block` values) of field `f` lands at block
    /// `o * k + f`.
    fn stack(&self, fields: &[&[C64]], block: usize) -> Vec<C64> {
        let region = telemetry::region("stack_fields", Phase::Fft);
        let mut out = Vec::with_capacity(fields.len() * fields[0].len());
        for o in 0..fields[0].len() / block.max(1) {
            for field in fields {
                out.extend_from_slice(&field[o * block..(o + 1) * block]);
            }
        }
        region.close(&self.clock);
        out
    }

    /// Undo [`ParallelFft::stack`] for `k` fields, an FFT region.
    fn unstack<T: Copy>(&self, stacked: Vec<T>, k: usize, block: usize) -> Vec<Vec<T>> {
        let region = telemetry::region("unstack_fields", Phase::Fft);
        let out = if k == 1 {
            vec![stacked]
        } else {
            let mut out = vec![Vec::with_capacity(stacked.len() / k); k];
            for (i, chunk) in stacked.chunks_exact(block.max(1)).enumerate() {
                out[i % k].extend_from_slice(chunk);
            }
            out
        };
        region.close(&self.clock);
        out
    }

    /// Plan scratch one line-loop worker needs (max over the plans).
    fn fft_len(&self) -> usize {
        self.rfft_x
            .scratch_len()
            .max(self.zinv.scratch_len())
            .max(self.zfwd.scratch_len())
    }

    /// The z-stage: every z line of `src` through `plan` into `dst`,
    /// [`LANES`] lines per transform pass, one y row per work item. An
    /// inverse plan zero-pads `nz -> pz`; a forward plan truncates
    /// `pz -> nz` and normalises by `pz`. Flops are counted once for the
    /// whole stage.
    fn z_stage(&self, plan: &CfftPlan, src: &[C64], dst: &mut [C64], serial: &mut LineScratch) {
        let (nz, pz, nyl) = (self.cfg.nz, self.cfg.pz(), self.y_block.len);
        let (name, src_len, dst_len, scale) = match plan.direction() {
            Direction::Inverse => ("fft_z_inv", nz, pz, 1.0),
            Direction::Forward => ("fft_z_fwd", pz, nz, 1.0 / pz as f64),
        };
        if dst.is_empty() {
            return;
        }
        let region = telemetry::region(name, Phase::Fft);
        let lines = src.len() / src_len;
        assert_eq!(dst.len(), lines * dst_len);
        count_flops(lines, dns_fft::cfft_flops(pz));
        let (src_row, dst_row) = (lines / nyl * src_len, lines / nyl * dst_len);
        let fft_len = self.fft_len();
        self.for_lines_init(
            dst,
            dst_row,
            serial,
            || LineScratch::sized(0, 0, fft_len),
            |sc, y, row| {
                let from = &src[y * src_row..(y + 1) * src_row];
                plan.execute_dealiased(from, nz, row, scale, &mut sc.fft);
            },
        );
        region.close(&self.clock);
    }

    /// The x-stage: for each y row of `dst` and each block of up to
    /// [`LANES`] consecutive z, bring the x lines of the row's `k` fields
    /// to physical space as lane blocks in `sc.phys` — padded and c2r
    /// transformed from spectra, or gathered from physical fields — and
    /// hand the block to `emit(sc, y, z0, count, row)`, which writes its
    /// part of row `y`. `input` and `dst` are y-aligned (same first row).
    /// `transforms` real transforms per (y, z) line are counted, once for
    /// the whole stage.
    #[allow(clippy::too_many_arguments)]
    fn x_stage<T: Send>(
        &self,
        name: &'static str,
        k: usize,
        transforms: usize,
        input: XIn<'_>,
        dst: &mut [T],
        row_len: usize,
        serial: &mut LineScratch,
        emit: impl Fn(&mut LineScratch, usize, usize, usize, &mut [T]) + Send + Sync,
    ) {
        if dst.is_empty() {
            return;
        }
        let region = telemetry::region(name, Phase::Fft);
        let (px, sx, zpl) = (self.cfg.px(), self.cfg.sx(), self.zphys_block.len);
        count_flops(
            dst.len() / row_len * zpl * transforms,
            dns_fft::rfft_flops(px),
        );
        let (rfft, fft_len) = (&self.rfft_x, self.fft_len());
        self.for_lines_init(
            dst,
            row_len,
            serial,
            || LineScratch::sized(k, px, fft_len),
            |sc, y, row| {
                for z0 in (0..zpl).step_by(LANES) {
                    let cnt = LANES.min(zpl - z0);
                    for (f, phys) in sc.phys.chunks_exact_mut(px).take(k).enumerate() {
                        match input {
                            XIn::Spectra(spec) => {
                                let s = interleaved((y * k + f) * sx * zpl + z0, sx, zpl, cnt);
                                rfft.inverse_lanes(&spec[s], sx, zpl, phys, &mut sc.fft);
                            }
                            XIn::Fields(fields) => {
                                let s = (y * zpl + z0) * px;
                                let lines = &fields[f][s..s + cnt * px];
                                for (x, v) in phys.iter_mut().enumerate() {
                                    *v = Lanes::default();
                                    for (l, line) in lines.chunks_exact(px).enumerate() {
                                        v.0[l] = line[x];
                                    }
                                }
                            }
                        }
                    }
                    emit(sc, y, z0, cnt, row);
                }
            },
        );
        region.close(&self.clock);
    }

    /// The fused nonlinear cycle (section 4.1, Tables 2-4): inverse
    /// transforms of u/v/w, quadratic products, and forward transforms of
    /// the products, with the x-stage fused per cache-sized line group so
    /// product fields never make a full-field round trip through DDR.
    ///
    /// `uvw` holds the three spectral velocity fields stacked as
    /// `[kz_loc][3][kx_loc][ny]` (values at the collocation points);
    /// `out` receives the five dealiased spectral products stacked as
    /// `[kz_loc][5][kx_loc][ny]` in the order of the five-product
    /// accounting: `uu - vv`, `uv`, `uw`, `vw`, `ww - vv`
    /// (see [`NL_PRODUCTS`]).
    ///
    /// Per x-line group the kernel pads + c2r-inverses the three velocity
    /// lines, forms each product in cache, and immediately r2c-forwards +
    /// truncates it — three lines of `px` reals live in L1/L2 the whole
    /// time. The spectra it reads and writes are the z-fastest x-pencil,
    /// which on one CommA rank is the z-pencil itself: the x-stage then
    /// reads the inverse z-stage's output and writes the forward
    /// z-stage's input, and only the two CommB reorders move data. Line
    /// groups are threaded over the configured pool with per-worker
    /// scratch; the serial path runs entirely out of `ws` and performs
    /// zero heap allocations once warm (single rank).
    ///
    /// # Example
    ///
    /// Constant velocities make every product a known constant, so the
    /// fused pipeline can be checked against forward transforms of those
    /// constants:
    ///
    /// ```
    /// use dns_pfft::{ParallelFft, PfftConfig, Workspace, C64, NL_FIELDS, NL_PRODUCTS};
    ///
    /// let worst = dns_minimpi::run(1, |world| {
    ///     let p = ParallelFft::new(world, PfftConfig::customized(8, 5, 8, 1, 1));
    ///     // u = 2, v = 1, w = 0 everywhere
    ///     let fields = [2.0, 1.0, 0.0].map(|c| p.forward(&vec![c; p.x_pencil_len()]));
    ///     // stack the three spectra as [kz][field][kx][ny]
    ///     let (sxl, nzl) = (p.kx_block().len, p.kz_block().len);
    ///     let ny = p.config().ny;
    ///     let mut uvw = vec![C64::new(0.0, 0.0); NL_FIELDS * p.y_pencil_len()];
    ///     for kz in 0..nzl {
    ///         for (fi, f) in fields.iter().enumerate() {
    ///             let (src, dst) = (kz * sxl * ny, (kz * NL_FIELDS + fi) * sxl * ny);
    ///             uvw[dst..dst + sxl * ny].copy_from_slice(&f[src..src + sxl * ny]);
    ///         }
    ///     }
    ///
    ///     let (mut out, mut ws) = (Vec::new(), Workspace::new());
    ///     p.nonlinear_products(&uvw, &mut out, &mut ws);
    ///
    ///     // uu - vv = 3, uv = 2, uw = 0, vw = 0, ww - vv = -1
    ///     let expect: Vec<Vec<f64>> = [3.0, 2.0, 0.0, 0.0, -1.0]
    ///         .iter()
    ///         .map(|&c| vec![c; p.x_pencil_len()])
    ///         .collect();
    ///     let refs: Vec<&[f64]> = expect.iter().map(|e| e.as_slice()).collect();
    ///     let oracle = p.forward_batch(&refs);
    ///     let mut worst = 0.0f64;
    ///     for kz in 0..nzl {
    ///         for (f, spec) in oracle.iter().enumerate() {
    ///             for i in 0..sxl * ny {
    ///                 let got = out[((kz * NL_PRODUCTS + f) * sxl) * ny + i];
    ///                 worst = worst.max((got - spec[kz * sxl * ny + i]).norm());
    ///             }
    ///         }
    ///     }
    ///     worst
    /// });
    /// assert!(worst[0] < 1e-12);
    /// ```
    pub fn nonlinear_products(&self, uvw: &[C64], out: &mut Vec<C64>, ws: &mut Workspace) {
        assert_eq!(uvw.len(), NL_FIELDS * self.y_pencil_len());
        let _fused = telemetry::span("nonlinear_products", Phase::Other);
        let cfg = &self.cfg;
        let (px, pz, sx) = (cfg.px(), cfg.pz(), cfg.sx());
        let (sxl, nyl, zpl) = (self.kx_block.len, self.y_block.len, self.zphys_block.len);
        let zero = C64::new(0.0, 0.0);
        let Workspace {
            zp_spec,
            zp,
            zp_prod,
            out_z,
            send,
            serial,
            courant_weights: (inv_dx, inv_dy, inv_dz),
            courant_rate,
        } = ws;
        assert!(inv_dy.is_empty() || inv_dy.len() == nyl);
        let (wx, inv_dy, wz) = (*inv_dx, &inv_dy[..], *inv_dz);
        serial.ensure(NL_FIELDS, px, self.fft_len());

        // --- inverse leg: 3 velocity fields to the z-pencil ---
        {
            let plans = self.batch_plans(NL_FIELDS);
            let region = telemetry::region("transpose_yz", Phase::Transpose);
            plans.t_yz.run_with(&self.comm_b, uvw, send, zp_spec);
            region.close(&self.clock);
            zp.resize(nyl * NL_FIELDS * sxl * pz, zero);
            self.z_stage(&self.zinv, zp_spec, zp, serial);
        }

        // The fused x-stage body, per block of up to LANES x-lines held
        // as lane blocks: form each of the five products from the three
        // physical velocity blocks, forward transform it, and scatter the
        // truncated, normalised spectra. With Courant weights set, the `uu - vv`
        // pass also folds the block's largest advective rate into `peak`
        // (non-negative f64s order as their bits do; lanes past `cnt` are zero).
        let rfft = &self.rfft_x;
        let inv_px = 1.0 / px as f64;
        let peak = AtomicU64::new(courant_rate.to_bits());
        let fused = |sc: &mut LineScratch, y: usize, z0: usize, cnt: usize, row: &mut [C64]| {
            for (f, &(i, j, sub_vv)) in PRODUCTS.iter().enumerate() {
                if let ((0, 0, true), Some(&wy)) = ((i, j, sub_vv), inv_dy.get(y)) {
                    // uu - vv with the rate folded in, hidden under the pass's loads
                    let (u, vw) = sc.phys[..NL_FIELDS * px].split_at(px);
                    let mut worst = [0.0f64; LANES];
                    let uvw = u.iter().zip(&vw[..px]).zip(&vw[px..]);
                    for (p, ((u, v), w)) in sc.prod[..px].iter_mut().zip(uvw) {
                        for l in 0..LANES {
                            let c = u.0[l].abs() * wx + v.0[l].abs() * wy + w.0[l].abs() * wz;
                            worst[l] = if c > worst[l] { c } else { worst[l] };
                        }
                        p.0 = std::array::from_fn(|l| u.0[l] * u.0[l] - v.0[l] * v.0[l]);
                    }
                    let worst = worst.into_iter().fold(0.0, f64::max);
                    peak.fetch_max(worst.to_bits(), Ordering::Relaxed);
                } else {
                    for x in 0..px {
                        let (a, b, v) = (sc.phys[i * px + x], sc.phys[j * px + x], sc.phys[px + x]);
                        for l in 0..LANES {
                            let mut p = a.0[l] * b.0[l];
                            if sub_vv {
                                p -= v.0[l] * v.0[l];
                            }
                            sc.prod[x].0[l] = p;
                        }
                    }
                }
                let d = interleaved(f * sx * zpl + z0, sx, zpl, cnt);
                rfft.forward_lanes(&sc.prod[..px], &mut row[d], sx, zpl, inv_px, &mut sc.fft);
            }
        };
        const FUSED_TRANSFORMS: usize = NL_FIELDS + NL_PRODUCTS;

        // --- x-stage between the CommA hops: on one CommA rank the z-fastest
        // x-pencil is the z-pencil, so it reads `zp`, writes the forward
        // z-stage's input, and no hop runs ---
        let split = cfg.pa > 1;
        if split {
            let plans = self.batch_plans(NL_FIELDS);
            let region = telemetry::region("transpose_zx", Phase::Transpose);
            plans.t_zx.run_with(&self.comm_a, zp, send, zp_spec);
            region.close(&self.clock);
        }
        let (spec, products) = if split {
            (&*zp_spec, &mut *zp)
        } else {
            (&*zp, &mut *zp_prod)
        };
        products.resize(nyl * NL_PRODUCTS * sx * zpl, zero);
        self.x_stage(
            "fused_products",
            NL_FIELDS,
            FUSED_TRANSFORMS,
            XIn::Spectra(spec),
            products,
            NL_PRODUCTS * sx * zpl,
            serial,
            fused,
        );
        *courant_rate = f64::from_bits(peak.into_inner());
        if split {
            let plans = self.batch_plans(NL_PRODUCTS);
            let region = telemetry::region("transpose_xz", Phase::Transpose);
            plans.t_xz.run_with(&self.comm_a, zp, send, zp_prod);
            region.close(&self.clock);
        }

        // --- forward leg: 5 product fields back to the y-pencil ---
        {
            let plans = self.batch_plans(NL_PRODUCTS);
            out_z.resize(nyl * NL_PRODUCTS * sxl * cfg.nz, zero);
            self.z_stage(&self.zfwd, zp_prod, out_z, serial);
            let region = telemetry::region("transpose_zy", Phase::Transpose);
            plans.t_zy.run_with(&self.comm_b, out_z, send, out);
            region.close(&self.clock);
        }
    }

    /// Batched inverse: transform `k` spectral fields to physical space
    /// with the fields aggregated into the *same* exchanges — `k` times
    /// larger messages, `k` times fewer of them (the paper's hybrid-mode
    /// message economics applied at the field level).
    pub fn inverse_batch(&self, fields: &[&[C64]]) -> Vec<Vec<f64>> {
        let k = fields.len();
        if k == 0 {
            return Vec::new();
        }
        for f in fields {
            assert_eq!(f.len(), self.y_pencil_len());
        }
        let _pfft = telemetry::span("pfft_inverse_batch", Phase::Other);
        let (px, pz, ny) = (self.cfg.px(), self.cfg.pz(), self.cfg.ny);
        let (sxl, nyl, zpl) = (self.kx_block.len, self.y_block.len, self.zphys_block.len);
        let plans = self.batch_plans(k);
        let mut serial = LineScratch::sized(k, px, self.fft_len());

        // stack as [kz_loc][field][kx_loc][ny] so the Middle transpose
        // sees rows = k * kx_loc
        let stacked = self.stack(fields, sxl * ny);
        let region = telemetry::region("transpose_yz", Phase::Transpose);
        let zp_spec = plans.t_yz.run(&self.comm_b, &stacked);
        region.close(&self.clock);

        // [y_loc][field][kx_loc][nz] -> pad+inverse FFT in z
        let mut zp = vec![C64::new(0.0, 0.0); nyl * k * sxl * pz];
        self.z_stage(&self.zinv, &zp_spec, &mut zp, &mut serial);

        // to the z-fastest x-pencil [y_loc][field][kx][z_loc]
        let spec_x = self.hop_a("transpose_zx", &plans.t_zx, zp);

        // pad + c2r in x, then unstack
        let mut phys = vec![0.0f64; nyl * k * zpl * px];
        self.x_stage(
            "fft_x_inv",
            k,
            k,
            XIn::Spectra(&spec_x),
            &mut phys,
            k * zpl * px,
            &mut serial,
            |sc, _, z0, cnt, row: &mut [f64]| {
                for (f, block) in sc.phys.chunks_exact(px).take(k).enumerate() {
                    let lines = &mut row[(f * zpl + z0) * px..][..cnt * px];
                    for (l, line) in lines.chunks_exact_mut(px).enumerate() {
                        for (v, lanes) in line.iter_mut().zip(block) {
                            *v = lanes.0[l];
                        }
                    }
                }
            },
        );
        self.unstack(phys, k, zpl * px)
    }

    /// Batched forward: `k` physical fields to spectral space through
    /// shared exchanges (see [`ParallelFft::inverse_batch`]).
    pub fn forward_batch(&self, fields: &[&[f64]]) -> Vec<Vec<C64>> {
        let k = fields.len();
        if k == 0 {
            return Vec::new();
        }
        for f in fields {
            assert_eq!(f.len(), self.x_pencil_len());
        }
        let _pfft = telemetry::span("pfft_forward_batch", Phase::Other);
        let (px, sx, ny, nz) = (self.cfg.px(), self.cfg.sx(), self.cfg.ny, self.cfg.nz);
        let (sxl, nyl, zpl) = (self.kx_block.len, self.y_block.len, self.zphys_block.len);
        let plans = self.batch_plans(k);
        let mut serial = LineScratch::sized(k, px, self.fft_len());

        // r2c in x straight from the fields into the z-fastest x-pencil
        // [y_loc][field][kx][z_loc], truncated to the solution modes and
        // normalised by px
        let mut spec_x = vec![C64::new(0.0, 0.0); nyl * k * sx * zpl];
        let (rfft, inv_px) = (&self.rfft_x, 1.0 / px as f64);
        self.x_stage(
            "fft_x_fwd",
            k,
            k,
            XIn::Fields(fields),
            &mut spec_x,
            k * sx * zpl,
            &mut serial,
            |sc, _, z0, cnt, row: &mut [C64]| {
                for (f, block) in sc.phys.chunks_exact(px).take(k).enumerate() {
                    let d = interleaved(f * sx * zpl + z0, sx, zpl, cnt);
                    rfft.forward_lanes(block, &mut row[d], sx, zpl, inv_px, &mut sc.fft);
                }
            },
        );
        let zp = self.hop_a("transpose_xz", &plans.t_xz, spec_x);

        // [y_loc][field][kx_loc][pz]: forward z-FFT + truncate + normalise
        let mut out_z = vec![C64::new(0.0, 0.0); nyl * k * sxl * nz];
        self.z_stage(&self.zfwd, &zp, &mut out_z, &mut serial);
        let region = telemetry::region("transpose_zy", Phase::Transpose);
        let yp = plans.t_zy.run(&self.comm_b, &out_z);
        region.close(&self.clock);

        // [kz_loc][field][kx_loc][ny] -> unstack
        self.unstack(yp, k, sxl * ny)
    }

    /// Signed spanwise wavenumber of global kz index `g` (FFT ordering;
    /// the structurally-zero Nyquist slot maps to 0).
    pub fn kz_signed(&self, g: usize) -> i64 {
        let nz = self.cfg.nz;
        debug_assert!(g < nz);
        if g < nz / 2 {
            g as i64
        } else if g == nz / 2 {
            0
        } else {
            g as i64 - nz as i64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dns_minimpi as mpi;
    use std::f64::consts::TAU;

    /// Evaluate a small band-limited test field on the physical grid.
    fn field(x: f64, y: usize, z: f64) -> f64 {
        1.0 + (x).cos() + 0.5 * (2.0 * x + z).sin() + 0.25 * (3.0 * z).cos() + 0.1 * y as f64
    }

    fn fill_x_pencil(p: &ParallelFft) -> Vec<f64> {
        let cfg = *p.config();
        let (px, pz) = (cfg.px(), cfg.pz());
        let mut data = Vec::with_capacity(p.x_pencil_len());
        for yl in 0..p.y_block().len {
            let y = p.y_block().global(yl);
            for zl in 0..p.zphys_block().len {
                let z = TAU * p.zphys_block().global(zl) as f64 / pz as f64;
                for xi in 0..px {
                    let x = TAU * xi as f64 / px as f64;
                    data.push(field(x, y, z));
                }
            }
        }
        data
    }

    fn roundtrip_case(
        nproc: usize,
        cfg_of: impl Fn(usize, usize) -> PfftConfig + Send + Sync + 'static,
    ) {
        let results = mpi::run(nproc, move |world| {
            let size = world.size();
            // choose a pa x pb factorisation
            let pa = (1..=size)
                .rev()
                .find(|d| size % d == 0 && *d * *d <= size * 2)
                .unwrap_or(1);
            let pb = size / pa;
            let p = ParallelFft::new(world, cfg_of(pa, pb));
            let input = fill_x_pencil(&p);
            let output = p.cycle(&input);
            let err = input
                .iter()
                .zip(&output)
                .map(|(a, b)| (a - b).abs())
                .fold(0.0, f64::max);
            err
        });
        for err in results {
            assert!(err < 1e-10, "roundtrip err = {err}");
        }
    }

    #[test]
    fn roundtrip_customized_no_dealias() {
        roundtrip_case(4, |pa, pb| PfftConfig::customized(16, 6, 8, pa, pb));
    }

    #[test]
    fn roundtrip_customized_with_dealias() {
        roundtrip_case(4, |pa, pb| {
            PfftConfig::customized(16, 6, 8, pa, pb).with_dealias()
        });
    }

    #[test]
    fn roundtrip_baseline() {
        roundtrip_case(4, |pa, pb| PfftConfig::p3dfft_baseline(16, 6, 8, pa, pb));
    }

    #[test]
    fn roundtrip_single_rank() {
        roundtrip_case(1, |pa, pb| {
            PfftConfig::customized(8, 3, 8, pa, pb).with_dealias()
        });
    }

    #[test]
    fn roundtrip_uneven_blocks() {
        // ny = 7 over pb does not divide evenly; nz = 12 over pa = 3 etc.
        roundtrip_case(6, |pa, pb| {
            PfftConfig::customized(24, 7, 12, pa, pb).with_dealias()
        });
    }

    #[test]
    fn forward_finds_the_right_coefficients() {
        // field = 1 + cos(x) + 0.5 sin(2x + z) + 0.25 cos(3z) + 0.1*y
        // coefficients (kx, kz): (0,0): 1 + 0.1 y; (1,0): 0.5;
        // (2,1): 0.25*(-i)... check a couple of peaks.
        let results = mpi::run(4, |world| {
            let p = ParallelFft::new(world, PfftConfig::customized(16, 4, 8, 2, 2).with_dealias());
            let input = fill_x_pencil(&p);
            let spec = p.forward(&input);
            let mut found = Vec::new();
            let (kxb, kzb) = (p.kx_block(), p.kz_block());
            let ny = p.config().ny;
            for kzl in 0..kzb.len {
                let kz = p.kz_signed(kzb.global(kzl));
                for kxl in 0..kxb.len {
                    let kx = kxb.global(kxl) as i64;
                    for y in 0..ny {
                        let c = spec[(kzl * kxb.len + kxl) * ny + y];
                        if c.norm() > 1e-12 {
                            found.push((kx, kz, y, c));
                        }
                    }
                }
            }
            found
        });
        let all: Vec<_> = results.into_iter().flatten().collect();
        // mean mode (0,0) at every y: 1 + 0.1y
        for y in 0..4 {
            let c = all
                .iter()
                .find(|&&(kx, kz, yy, _)| kx == 0 && kz == 0 && yy == y)
                .expect("mean mode present");
            assert!((c.3.re - (1.0 + 0.1 * y as f64)).abs() < 1e-12);
        }
        // cos(x): coefficient 1/2 at (1, 0)
        let c = all
            .iter()
            .find(|&&(kx, kz, yy, _)| kx == 1 && kz == 0 && yy == 0)
            .expect("(1,0) mode present");
        assert!((c.3 - C64::new(0.5, 0.0)).norm() < 1e-12, "{:?}", c.3);
        // 0.5 sin(2x+z) = 0.25/i e^{i(2x+z)} + c.c.: coefficient at
        // (2, +1) is 0.25 * -i
        let c = all
            .iter()
            .find(|&&(kx, kz, yy, _)| kx == 2 && kz == 1 && yy == 0)
            .expect("(2,1) mode present");
        assert!((c.3 - C64::new(0.0, -0.25)).norm() < 1e-12, "{:?}", c.3);
        // 0.25 cos(3z): half-spectrum x rep carries kx=0 with both kz=+-3,
        // each 0.125
        let c = all
            .iter()
            .find(|&&(kx, kz, yy, _)| kx == 0 && kz == 3 && yy == 0)
            .expect("(0,3) mode present");
        assert!((c.3 - C64::new(0.125, 0.0)).norm() < 1e-12, "{:?}", c.3);
    }

    #[test]
    fn dealiased_product_is_alias_free() {
        // Multiply two band-limited fields on the padded grid and verify
        // the forward transform returns the exact convolution (no
        // aliasing onto low modes). f = cos(k1 x), g = cos(k2 x) with
        // k1 + k2 beyond the unpadded grid's Nyquist.
        let results = mpi::run(2, |world| {
            let nx = 16usize;
            let p = ParallelFft::new(world, PfftConfig::customized(nx, 2, 8, 1, 2).with_dealias());
            let px = p.config().px();
            let (k1, k2) = (5.0, 6.0);
            let mut prod = Vec::with_capacity(p.x_pencil_len());
            for _yl in 0..p.y_block().len {
                for _zl in 0..p.zphys_block().len {
                    for xi in 0..px {
                        let x = TAU * xi as f64 / px as f64;
                        prod.push((k1 * x).cos() * (k2 * x).cos());
                    }
                }
            }
            let spec = p.forward(&prod);
            // cos5x*cos6x = (cos x + cos 11x)/2; mode 11 > nx/2-1=7 is
            // truncated; mode 1 coefficient must be exactly 1/4 and mode
            // |5-6|=1 the only survivor below Nyquist... check kx=1 and
            // confirm no spurious energy elsewhere below the cutoff.
            let (kxb, kzb) = (p.kx_block(), p.kz_block());
            let ny = p.config().ny;
            let mut bad = 0.0f64;
            let mut c1 = None;
            for kzl in 0..kzb.len {
                let kz_index = kzb.global(kzl);
                for kxl in 0..kxb.len {
                    let kx = kxb.global(kxl);
                    let c = spec[(kzl * kxb.len + kxl) * ny];
                    if kx == 1 && kz_index == 0 {
                        c1 = Some(c);
                    } else if c.norm() > bad {
                        bad = c.norm();
                    }
                }
            }
            (c1, bad)
        });
        let mut saw_mode = false;
        for (c1, bad) in results {
            assert!(bad < 1e-12, "aliased energy {bad}");
            if let Some(c) = c1 {
                assert!((c - C64::new(0.25, 0.0)).norm() < 1e-12, "{c}");
                saw_mode = true;
            }
        }
        assert!(saw_mode);
    }

    #[test]
    fn baseline_and_customized_agree_on_shared_modes() {
        let run = |baseline: bool| {
            mpi::run(2, move |world| {
                let cfg = if baseline {
                    PfftConfig::p3dfft_baseline(8, 3, 8, 2, 1)
                } else {
                    PfftConfig::customized(8, 3, 8, 2, 1)
                };
                let p = ParallelFft::new(world, cfg);
                let input = fill_x_pencil(&p);
                let spec = p.forward(&input);
                // strip layout differences: collect (kz, kx, y) -> coeff
                let (kxb, kzb) = (p.kx_block(), p.kz_block());
                let ny = p.config().ny;
                let mut flat = Vec::new();
                for kzl in 0..kzb.len {
                    for kxl in 0..kxb.len {
                        let kx = kxb.global(kxl);
                        if kx >= 4 {
                            continue; // baseline's extra Nyquist slot
                        }
                        for y in 0..ny {
                            flat.push((
                                kzb.global(kzl),
                                kx,
                                y,
                                spec[(kzl * kxb.len + kxl) * ny + y],
                            ));
                        }
                    }
                }
                flat
            })
        };
        let mut a: Vec<_> = run(false).into_iter().flatten().collect();
        let mut b: Vec<_> = run(true).into_iter().flatten().collect();
        let key = |t: &(usize, usize, usize, C64)| (t.0, t.1, t.2);
        a.sort_by_key(key);
        b.sort_by_key(key);
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(key(x), key(y));
            assert!((x.3 - y.3).norm() < 1e-12);
        }
    }

    #[test]
    fn buffer_accounting_shows_3x_for_baseline() {
        let results = mpi::run(2, |world| {
            let p = ParallelFft::new(world, PfftConfig::p3dfft_baseline(8, 4, 8, 2, 1));
            p.buffer_bytes()
        });
        let results_custom = mpi::run(2, |world| {
            let p = ParallelFft::new(world, PfftConfig::customized(8, 4, 8, 2, 1));
            p.buffer_bytes()
        });
        assert!(results[0] > 2 * results_custom[0]);
    }

    #[test]
    fn threaded_transforms_match_serial() {
        let run = |threads: usize| {
            mpi::run(2, move |world| {
                let cfg = PfftConfig::customized(16, 5, 8, 2, 1)
                    .with_dealias()
                    .with_threads(threads);
                let p = ParallelFft::new(world, cfg);
                let input = fill_x_pencil(&p);
                p.forward(&input)
            })
        };
        let serial = run(1);
        let threaded = run(3);
        for (a, b) in serial.iter().zip(&threaded) {
            assert_eq!(a.len(), b.len());
            for (x, y) in a.iter().zip(b) {
                assert!((x - y).norm() < 1e-15);
            }
        }
    }

    #[test]
    fn batched_transforms_match_individual_transforms() {
        let results = mpi::run(4, |world| {
            let p = ParallelFft::new(world, PfftConfig::customized(16, 6, 8, 2, 2).with_dealias());
            // three distinct physical fields
            let base = fill_x_pencil(&p);
            let f1: Vec<f64> = base.iter().map(|v| v * 1.0).collect();
            let f2: Vec<f64> = base.iter().map(|v| v * v).collect();
            let f3: Vec<f64> = base.iter().map(|v| 0.5 - v).collect();
            // individual
            let s1 = p.forward(&f1);
            let s2 = p.forward(&f2);
            let s3 = p.forward(&f3);
            // batched
            let batch = p.forward_batch(&[&f1, &f2, &f3]);
            let mut worst = 0.0f64;
            for (a, b) in [(&s1, &batch[0]), (&s2, &batch[1]), (&s3, &batch[2])] {
                for (x, y) in a.iter().zip(b.iter()) {
                    worst = worst.max((x - y).norm());
                }
            }
            // inverse_batch must agree with the individual inverses
            // (the originals are not band-limited, so compare against
            // what the dealiased single-field path produces)
            let back = p.inverse_batch(&[&batch[0], &batch[1], &batch[2]]);
            let singles = [p.inverse(&s1), p.inverse(&s2), p.inverse(&s3)];
            let mut worst_rt = 0.0f64;
            for (a, b) in singles.iter().zip(&back) {
                for (x, y) in a.iter().zip(b.iter()) {
                    worst_rt = worst_rt.max((x - y).abs());
                }
            }
            (worst, worst_rt)
        });
        for (w, wr) in results {
            assert!(w < 1e-12, "batched forward mismatch {w}");
            assert!(wr < 1e-10, "batched roundtrip error {wr}");
        }
    }

    #[test]
    fn batching_cuts_the_message_count() {
        let results = mpi::run(4, |world| {
            let p = ParallelFft::new(world, PfftConfig::customized(16, 6, 8, 2, 2));
            let f = fill_x_pencil(&p);
            // warm the batch plans so their construction traffic is
            // excluded
            let _ = p.forward_batch(&[&f, &f, &f]);
            p.comm_a().reset_stats();
            p.comm_b().reset_stats();
            let _ = p.forward(&f);
            let _ = p.forward(&f);
            let _ = p.forward(&f);
            let individual = p.comm_a().stats().messages_sent + p.comm_b().stats().messages_sent;
            p.comm_a().reset_stats();
            p.comm_b().reset_stats();
            let _ = p.forward_batch(&[&f, &f, &f]);
            let batched = p.comm_a().stats().messages_sent + p.comm_b().stats().messages_sent;
            (individual, batched)
        });
        for (individual, batched) in results {
            assert_eq!(
                individual,
                3 * batched,
                "batching must send one third of the messages"
            );
        }
    }

    /// Three spectral fields stacked `[kz_loc][3][kx_loc][ny]`, the input
    /// layout of [`ParallelFft::nonlinear_products`].
    fn stack_uvw(p: &ParallelFft, fields: [&[C64]; NL_FIELDS]) -> Vec<C64> {
        let line = p.kx_block().len * p.config().ny;
        let mut uvw = vec![C64::new(0.0, 0.0); NL_FIELDS * p.y_pencil_len()];
        for kz in 0..p.kz_block().len {
            for (fi, field) in fields.iter().enumerate() {
                let (src, dst) = (kz * line, (kz * NL_FIELDS + fi) * line);
                uvw[dst..dst + line].copy_from_slice(&field[src..src + line]);
            }
        }
        uvw
    }

    /// Unfused oracle for [`ParallelFft::nonlinear_products`]: separate
    /// batched transforms and full-field product formation, with the
    /// five-product combination applied afterwards.
    fn unfused_products(p: &ParallelFft, u: &[C64], v: &[C64], w: &[C64]) -> Vec<Vec<f64>> {
        let phys = p.inverse_batch(&[u, v, w]);
        let (pu, pv, pw) = (&phys[0], &phys[1], &phys[2]);
        let n = pu.len();
        let mut prods = vec![vec![0.0f64; n]; NL_PRODUCTS];
        for i in 0..n {
            prods[0][i] = pu[i] * pu[i] - pv[i] * pv[i];
            prods[1][i] = pu[i] * pv[i];
            prods[2][i] = pu[i] * pw[i];
            prods[3][i] = pv[i] * pw[i];
            prods[4][i] = pw[i] * pw[i] - pv[i] * pv[i];
        }
        prods
    }

    fn fused_case(threads: usize, dealias: bool, ny: usize, pa: usize, pb: usize) {
        let results = mpi::run(pa * pb, move |world| {
            let mut cfg = PfftConfig::customized(16, ny, 8, pa, pb).with_threads(threads);
            if dealias {
                cfg = cfg.with_dealias();
            }
            let p = ParallelFft::new(world, cfg);
            // three distinct band-limited spectral fields
            let base = fill_x_pencil(&p);
            let f2: Vec<f64> = base.iter().map(|v| 0.3 * v + 0.1).collect();
            let f3: Vec<f64> = base.iter().map(|v| 0.5 - 0.2 * v).collect();
            let u = p.forward(&base);
            let v = p.forward(&f2);
            let w = p.forward(&f3);

            // oracle: unfused transforms + full-field products
            let prods = unfused_products(&p, &u, &v, &w);
            let refs: Vec<&[f64]> = prods.iter().map(|x| x.as_slice()).collect();
            let spec_ref = p.forward_batch(&refs);

            // fused path (twice: the second call runs on warm buffers)
            let (sxl, nzl) = (p.kx_block().len, p.kz_block().len);
            let ny = p.config().ny;
            let uvw = stack_uvw(&p, [&u, &v, &w]);
            let mut ws = Workspace::new();
            let mut fused = Vec::new();
            p.nonlinear_products(&uvw, &mut fused, &mut ws);
            p.nonlinear_products(&uvw, &mut fused, &mut ws);

            let mut worst = 0.0f64;
            for kz in 0..nzl {
                for (f, spec) in spec_ref.iter().enumerate() {
                    for kx in 0..sxl {
                        for y in 0..ny {
                            let a = spec[(kz * sxl + kx) * ny + y];
                            let b = fused[((kz * NL_PRODUCTS + f) * sxl + kx) * ny + y];
                            worst = worst.max((a - b).norm());
                        }
                    }
                }
            }
            worst
        });
        for worst in results {
            assert!(
                worst < 1e-12,
                "fused/unfused mismatch {worst} (threads={threads} dealias={dealias} {pa}x{pb} ny={ny})"
            );
        }
    }

    #[test]
    fn fused_products_match_unfused_serial() {
        fused_case(1, true, 6, 1, 1);
        fused_case(1, false, 6, 1, 1);
    }

    #[test]
    fn fused_products_match_unfused_threaded() {
        for threads in [2, 4] {
            fused_case(threads, true, 6, 1, 1);
            fused_case(threads, false, 6, 1, 1);
        }
    }

    #[test]
    fn fused_products_match_unfused_multirank() {
        fused_case(1, true, 6, 2, 2);
        fused_case(2, false, 6, 2, 2);
        // one decomposed axis at a time, y count not divisible by the ranks
        fused_case(1, true, 7, 2, 1);
        fused_case(1, true, 7, 1, 2);
    }

    #[test]
    fn fused_cycle_shares_exchange_economics_with_batches() {
        // the fused path must send exactly the batched message count — one
        // 3-field exchange per inverse hop, one 5-field exchange per
        // forward hop (4 transposes, each one message per off-rank peer on
        // a 2-rank sub-communicator), never per-field
        let counts = mpi::run(4, |world| {
            let p = ParallelFft::new(world, PfftConfig::customized(16, 6, 8, 2, 2));
            let f = fill_x_pencil(&p);
            let u = p.forward(&f);
            let uvw = stack_uvw(&p, [&u, &u, &u]);
            let mut ws = Workspace::new();
            let mut out = Vec::new();
            p.nonlinear_products(&uvw, &mut out, &mut ws); // warm plans
            p.comm_a().reset_stats();
            p.comm_b().reset_stats();
            p.nonlinear_products(&uvw, &mut out, &mut ws);
            (
                p.comm_a().stats().messages_sent,
                p.comm_b().stats().messages_sent,
            )
        });
        for (a, b) in counts {
            assert_eq!((a, b), (2, 2), "the fused cycle must batch each exchange");
        }
    }

    /// Per-line reference for [`ParallelFft::nonlinear_products`]: the
    /// same schedule with every line loop written out on the single-line
    /// transform API.
    fn products_per_line(p: &ParallelFft, uvw: &[C64]) -> Vec<C64> {
        use dns_fft::dealias::{pad_full, pad_half, truncate_full, truncate_half};
        let cfg = &p.cfg;
        let (px, pz, sx, nz) = (cfg.px(), cfg.pz(), cfg.sx(), cfg.nz);
        let (nyl, zpl) = (p.y_block.len, p.zphys_block.len);
        let zero = C64::new(0.0, 0.0);
        let mut zscratch = p.zinv.make_scratch();
        let mut xscratch = p.rfft_x.make_scratch();

        let zp_spec = p.batch_plans(NL_FIELDS).t_yz.run(&p.comm_b, uvw);
        let mut zp = vec![zero; zp_spec.len() / nz * pz];
        for (src, dst) in zp_spec.chunks_exact(nz).zip(zp.chunks_exact_mut(pz)) {
            pad_full(src, dst);
            p.zinv.execute(dst, &mut zscratch);
        }
        // the z-fastest x-pencil: coefficient kx of line (y, field, z) at
        // ((y * fields + field) * sx + kx) * zpl + z
        let spec_x = p.hop_a("transpose_zx", &p.batch_plans(NL_FIELDS).t_zx, zp);
        let at =
            |y: usize, f: usize, nf: usize, kx: usize, z: usize| ((y * nf + f) * sx + kx) * zpl + z;

        let mut spec_px = vec![zero; nyl * NL_PRODUCTS * sx * zpl];
        let mut line = vec![zero; sx];
        let mut cline = vec![zero; px / 2 + 1];
        let mut phys = vec![0.0; NL_FIELDS * px];
        let mut prod = vec![0.0; px];
        for y in 0..nyl {
            for z in 0..zpl {
                for fi in 0..NL_FIELDS {
                    for (kx, c) in line.iter_mut().enumerate() {
                        *c = spec_x[at(y, fi, NL_FIELDS, kx, z)];
                    }
                    pad_half(&line, &mut cline);
                    let line = &mut phys[fi * px..(fi + 1) * px];
                    p.rfft_x.inverse(&cline, line, &mut xscratch);
                }
                for (f, &(i, j, sub_vv)) in PRODUCTS.iter().enumerate() {
                    for x in 0..px {
                        prod[x] = phys[i * px + x] * phys[j * px + x];
                        if sub_vv {
                            prod[x] -= phys[px + x] * phys[px + x];
                        }
                    }
                    p.rfft_x.forward(&prod, &mut cline, &mut xscratch);
                    truncate_half(&cline, &mut line);
                    for (kx, c) in line.iter().enumerate() {
                        spec_px[at(y, f, NL_PRODUCTS, kx, z)] = c * (1.0 / px as f64);
                    }
                }
            }
        }

        let zp = p.hop_a("transpose_xz", &p.batch_plans(NL_PRODUCTS).t_xz, spec_px);
        let mut out_z = vec![zero; zp.len() / pz * nz];
        let mut zline = vec![zero; pz];
        for (src, dst) in zp.chunks_exact(pz).zip(out_z.chunks_exact_mut(nz)) {
            zline.copy_from_slice(src);
            p.zfwd.execute(&mut zline, &mut zscratch);
            for v in zline.iter_mut() {
                *v *= 1.0 / pz as f64;
            }
            truncate_full(&zline, dst);
        }
        p.batch_plans(NL_PRODUCTS).t_zy.run(&p.comm_b, &out_z)
    }

    #[test]
    fn lane_blocked_products_equal_the_per_line_loop_bitwise() {
        // pz = 36 over pa = 2 leaves zpl = 18 (two full lane blocks and a
        // partial one per row), over pa = 1 it leaves 36 (four and a
        // partial one); ny = 7 does not divide over pb = 2
        let run = |threads: usize, pa: usize, pb: usize| {
            mpi::run(pa * pb, move |world| {
                let cfg = PfftConfig::customized(16, 7, 24, pa, pb)
                    .with_dealias()
                    .with_threads(threads);
                let p = ParallelFft::new(world, cfg);
                assert!(!p.zphys_block().len.is_multiple_of(LANES));
                let base = fill_x_pencil(&p);
                let fields = [1.0, 0.3, -0.2].map(|c| {
                    let f: Vec<f64> = base.iter().map(|v| c * v + 0.1 * c * c).collect();
                    p.forward(&f)
                });
                let uvw = stack_uvw(&p, [&fields[0], &fields[1], &fields[2]]);
                let (mut out, mut ws) = (Vec::new(), Workspace::new());
                p.nonlinear_products(&uvw, &mut out, &mut ws);
                p.nonlinear_products(&uvw, &mut out, &mut ws); // warm buffers
                (out, products_per_line(&p, &uvw))
            })
        };
        let bits = |v: &[C64]| -> Vec<(u64, u64)> {
            v.iter().map(|c| (c.re.to_bits(), c.im.to_bits())).collect()
        };
        for threads in [1, 2, 3] {
            for (pa, pb) in [(2, 1), (1, 2)] {
                for (rank, (got, want)) in run(threads, pa, pb).iter().enumerate() {
                    assert!(got.iter().any(|c| c.norm() > 1e-3), "trivial test field");
                    assert_eq!(
                        bits(got),
                        bits(want),
                        "threads={threads} {pa}x{pb} rank={rank}"
                    );
                }
            }
        }
    }

    #[test]
    fn x_stage_courant_rate_equals_the_triple_inverse_oracle_bitwise() {
        // nz = 20 pads to pz = 30: 30 (1x1) and 15 (2x2) local z lines,
        // neither a multiple of the lane count; uneven 1/dy per row
        let run = |threads: usize, pa: usize, pb: usize| {
            mpi::run(pa * pb, move |world| {
                let cfg = PfftConfig::customized(16, 7, 20, pa, pb)
                    .with_dealias()
                    .with_threads(threads);
                let p = ParallelFft::new(world, cfg);
                assert!(!p.zphys_block().len.is_multiple_of(LANES));
                let base = fill_x_pencil(&p);
                let fields = [1.0, -0.3, 0.2].map(|c| {
                    let f: Vec<f64> = base.iter().map(|v| c * v - 0.4 * c * c).collect();
                    p.forward(&f)
                });
                let uvw = stack_uvw(&p, [&fields[0], &fields[1], &fields[2]]);
                let (inv_dx, inv_dz) = (1.0 / 0.13, 1.0 / 0.07);
                let inv_dy: Vec<f64> = (0..p.y_block().len)
                    .map(|yl| 1.0 / (0.01 + 0.03 * p.y_block().global(yl) as f64))
                    .collect();
                let (mut out, mut ws) = (Vec::new(), Workspace::new());
                p.nonlinear_products(&uvw, &mut out, &mut ws);
                assert_eq!(ws.courant_rate, 0.0, "no weights: no reduction");
                ws.courant_weights = (inv_dx, inv_dy.clone(), inv_dz);
                p.nonlinear_products(&uvw, &mut out, &mut ws);
                let got = ws.courant_rate;
                // the maximum is kept across calls until it is zeroed
                ws.courant_weights = (0.5 * inv_dx, inv_dy.clone(), 0.5 * inv_dz);
                p.nonlinear_products(&uvw, &mut out, &mut ws);
                assert_eq!(ws.courant_rate, got);

                let phys = fields.map(|f| p.inverse(&f));
                let row = p.zphys_block().len * p.config().px();
                let mut want = 0.0f64;
                for (i, ((u, v), w)) in phys[0].iter().zip(&phys[1]).zip(&phys[2]).enumerate() {
                    let c = u.abs() * inv_dx + v.abs() * inv_dy[i / row] + w.abs() * inv_dz;
                    want = want.max(c);
                }
                (got, want)
            })
        };
        let serial = run(1, 1, 1);
        for (threads, pa, pb) in [(1, 1, 1), (2, 1, 1), (1, 2, 2), (2, 2, 2)] {
            for (rank, (got, want)) in run(threads, pa, pb).into_iter().enumerate() {
                assert!(want > 1.0, "trivial test field");
                let case = format!("threads={threads} {pa}x{pb} rank={rank}");
                assert_eq!(got.to_bits(), want.to_bits(), "{case}");
                if pa * pb == 1 {
                    assert_eq!(got.to_bits(), serial[0].0.to_bits(), "{case}");
                }
            }
        }
    }

    #[test]
    fn timers_accumulate() {
        let results = mpi::run(2, |world| {
            let p = ParallelFft::new(world, PfftConfig::customized(8, 4, 8, 2, 1));
            let input = fill_x_pencil(&p);
            let _ = p.cycle(&input);
            let t = p.timers();
            p.reset_timers();
            (t, p.timers())
        });
        for (t, reset) in results {
            assert!(t.transpose > 0.0 && t.fft > 0.0);
            assert_eq!(reset.transpose, 0.0);
        }
    }

    #[test]
    fn parseval_across_ranks() {
        let results = mpi::run(4, |world| {
            let p = ParallelFft::new(world, PfftConfig::customized(16, 4, 8, 2, 2));
            let input = fill_x_pencil(&p);
            // physical energy sum over the global grid (y-dependent planes)
            let phys: f64 = input.iter().map(|v| v * v).sum();
            let phys_tot = p.comm_a().allreduce_sum(phys);
            let phys_tot = p.comm_b().allreduce_sum(phys_tot);
            let spec = p.forward(&input);
            // spectral energy: |c|^2 with kx>0 doubled (half-spectrum)
            let (kxb, kzb) = (p.kx_block(), p.kz_block());
            let ny = p.config().ny;
            let mut e = 0.0;
            for kzl in 0..kzb.len {
                for kxl in 0..kxb.len {
                    let w = if kxb.global(kxl) == 0 { 1.0 } else { 2.0 };
                    for y in 0..ny {
                        e += w * spec[(kzl * kxb.len + kxl) * ny + y].norm_sqr();
                    }
                }
            }
            let e_tot = p.comm_a().allreduce_sum(e);
            let e_tot = p.comm_b().allreduce_sum(e_tot);
            // Parseval: sum|f|^2 = N * sum|c|^2 with N = px*pz points per plane
            let n = (p.config().px() * p.config().pz()) as f64;
            (phys_tot, n * e_tot)
        });
        for (a, b) in results {
            assert!((a - b).abs() < 1e-9 * a.abs().max(1.0), "{a} vs {b}");
        }
    }
}
