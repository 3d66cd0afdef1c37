//! The channel-flow DNS driver: state, mode bookkeeping and the RK3
//! timestep (section 2.3's steps (a)-(j)).

use std::ops::Range;

use dns_bspline::{integration_weights, tanh_breakpoints, BsplineBasis, CollocationOps};
use dns_fft::lanes::Isa;
use dns_minimpi::Communicator;
use dns_pencil::reorder::reorder_into_lanes;
use dns_pfft::{ParallelFft, PfftConfig, NL_FIELDS};
use dns_telemetry as telemetry;

use crate::lanes::{recover_uw, Waves};
use crate::nonlinear::{self, stack_block, NlTerms, NlWorkspace};
use crate::params::Params;
use crate::rk3;
use crate::wallnormal::{dy_coefficients, dy_coefficients_block, BatchNormalSolver, MeanSolver};
use crate::C64;
use dns_banded::{LaneRow, LANES};

/// Prognostic and derived spectral fields, stored as B-spline
/// *coefficients* in the y-pencil layout `[kz_loc][kx_loc][ny]`.
/// Mode `(0,0)` of `u`/`w` carries the mean flow; `omega_y`/`phi` are
/// unused there.
pub struct State {
    u: Vec<C64>,
    v: Vec<C64>,
    w: Vec<C64>,
    omega_y: Vec<C64>,
    phi: Vec<C64>,
    /// Simulated time.
    pub time: f64,
    /// Completed timesteps.
    pub steps: u64,
}

impl State {
    /// Streamwise velocity coefficients.
    pub fn u(&self) -> &[C64] {
        &self.u
    }
    /// Wall-normal velocity coefficients.
    pub fn v(&self) -> &[C64] {
        &self.v
    }
    /// Spanwise velocity coefficients.
    pub fn w(&self) -> &[C64] {
        &self.w
    }
    /// Wall-normal vorticity coefficients.
    pub fn omega_y(&self) -> &[C64] {
        &self.omega_y
    }
    /// `phi = laplacian(v)` coefficients.
    pub fn phi(&self) -> &[C64] {
        &self.phi
    }
}

/// The seconds type of [`ChannelDns::timers`], under the name its
/// callers know it by.
pub use dns_telemetry::PhaseSeconds as PhaseTimers;

/// Reusable per-substep buffers for `advance_substep` (mean-profile
/// staging and the wall-normal lane blocks) — after the first step these
/// never reallocate.
#[derive(Default)]
struct StepScratch {
    r0: Vec<f64>,
    r1: Vec<f64>,
    r2: Vec<f64>,
    r3: Vec<f64>,
    r4: Vec<f64>,
    /// One-block panels of `ny` rows (together L1-sized): the `omega_y`
    /// and `phi` columns, `B0 c`/`B2 c` matvec scratch, and the recovered
    /// `v` columns. The nonlinear terms arrive as panels ([`NlTerms`]).
    blocks: [Vec<LaneRow>; 5],
}

/// A distributed channel DNS bound to one rank of a `pa x pb` grid.
pub struct ChannelDns {
    params: Params,
    pfft: ParallelFft,
    ops: CollocationOps,
    /// The rank-wide batched wall-normal solver (zero blocks on a rank
    /// that owns no regular mode, e.g. just the spanwise Nyquist slot).
    batch: BatchNormalSolver,
    /// The local kz rows of `batch`'s panel blocks, all but the Nyquist
    /// one: block `b` is row `panel_rows[b / nb]`, kx lane block `b % nb`.
    panel_rows: Vec<usize>,
    /// Instruction set of the wall-normal lane kernels.
    isa: Isa,
    /// Seconds [`BatchNormalSolver::new`] took.
    batch_build_s: f64,
    mean: MeanSolver,
    state: State,
    /// Quadrature weights for y integrals (flux control, diagnostics).
    y_weights: Vec<f64>,
    /// Body force currently applied by the mass-flux controller.
    dyn_force: f64,
    /// Integral term of the flux controller (the learned steady drag).
    flux_integral: f64,
    /// Persistent nonlinear-pipeline workspace (taken out of `self` for
    /// the duration of each step, so the hot path never allocates).
    nl_ws: NlWorkspace,
    /// Ping-pong nonlinear-term buffers (current / previous substep).
    nl_terms: NlTerms,
    nl_terms_old: NlTerms,
    scratch: StepScratch,
    /// Optional time-averaged statistics accumulator, sampled at the end
    /// of [`step`](Self::step) on its own cadence (`None` costs one
    /// branch per step).
    stats: Option<crate::stats::StatsAccumulator>,
}

impl ChannelDns {
    /// Collectively construct the solver (all ranks of `world` call this
    /// with identical parameters; `world.size() == pa * pb`).
    pub fn new(world: Communicator, params: Params) -> ChannelDns {
        params.validate();
        let cfg = PfftConfig::customized(params.nx, params.ny, params.nz, params.pa, params.pb)
            .with_dealias()
            .with_threads(params.fft_threads);
        let pfft = ParallelFft::new(world, cfg);
        let breaks = tanh_breakpoints(params.ny - params.spline_order + 1, params.grid_stretch);
        let basis = BsplineBasis::new(params.spline_order, &breaks);
        let ops = CollocationOps::new(&basis);
        assert_eq!(ops.n(), params.ny, "basis size must equal ny");

        // one panel block per (kz row, kx block) of the lane-blocked
        // y-pencil, the Nyquist row skipped; a +kz block and its -kz twin
        // share a factor block. The mean lane (local mode 0 on its owner)
        // and the pad lanes get a dummy k^2 = 1
        let (kxb, kzb, nb) = (pfft.kx_block(), pfft.kz_block(), pfft.kx_lanes());
        let is_nyquist = |kz: usize| kzb.global(kz) == params.nz / 2;
        let panel_rows: Vec<usize> = (0..kzb.len).filter(|&kz| !is_nyquist(kz)).collect();
        let mean_mode = (kxb.start == 0 && kzb.start == 0).then_some(0);
        let mut batch_k2 = Vec::with_capacity(panel_rows.len() * nb * LANES);
        for &kz in &panel_rows {
            for xb in 0..nb {
                let ([kx, kzs], first) = (
                    block_waves(&params, &pfft, kz, xb),
                    kz * kxb.len + xb * LANES,
                );
                batch_k2.extend((0..LANES).map(|l| {
                    let regular = l < kxb.len - xb * LANES && mean_mode != Some(first + l);
                    if regular {
                        kx[l] * kx[l] + kzs[l] * kzs[l]
                    } else {
                        1.0
                    }
                }));
            }
        }
        let t0 = std::time::Instant::now();
        let batch = BatchNormalSolver::new(&ops, &batch_k2, params.nu, params.dt);
        let batch_build_s = t0.elapsed().as_secs_f64();
        let mean = MeanSolver::new(&ops, params.nu, params.dt);
        let y_weights = integration_weights(&ops);
        let dyn_force = match params.forcing {
            crate::params::Forcing::ConstantMassFlux { .. } => 1.0,
            _ => params.pressure_gradient(),
        };
        let len = kxb.len * kzb.len * params.ny;
        let zero = vec![C64::new(0.0, 0.0); len];
        // Courant weights: reciprocal spacings of the dealiased grid (`dy`
        // the smaller one next to a row's point)
        let pts = ops.points();
        let spacing = |j: usize| pts[j] - pts[j - 1];
        let inv_dy = (pfft.y_block().start..pfft.y_block().end())
            .map(|j| 1.0 / spacing(j.max(1)).min(spacing((j + 1).min(pts.len() - 1))))
            .collect();
        let mut nl_ws = NlWorkspace::default();
        let (dx, dz) = (params.lx / cfg.px() as f64, params.lz / cfg.pz() as f64);
        nl_ws.pfft.courant_weights = (1.0 / dx, inv_dy, 1.0 / dz);
        let dns = ChannelDns {
            params,
            pfft,
            ops,
            batch,
            panel_rows,
            isa: Isa::detect(),
            batch_build_s,
            mean,
            state: State {
                u: zero.clone(),
                v: zero.clone(),
                w: zero.clone(),
                omega_y: zero.clone(),
                phi: zero,
                time: 0.0,
                steps: 0,
            },
            y_weights,
            dyn_force,
            flux_integral: dyn_force,
            nl_ws,
            nl_terms: NlTerms::default(),
            nl_terms_old: NlTerms::default(),
            scratch: StepScratch::default(),
            stats: None,
        };
        telemetry::decision("wallnormal.plan", || dns.wallnormal_plan());
        telemetry::decision("pfft.workspace", || dns.pfft.workspace_plan());
        dns
    }

    /// What the wall-normal set-up built and cost on this rank: panel
    /// blocks, the distinct factor blocks behind them, their resident
    /// bytes, the band they were factored in (`kl`, `ku` and the corner
    /// rows at the top and bottom) and the build seconds (also the
    /// `wallnormal.plan` telemetry decision record).
    pub fn wallnormal_plan(&self) -> String {
        let band = self.ops.b0();
        format!(
            "{} panel blocks on {} factor blocks, {:.1} MB of factors + Green's \
             (band kl {} ku {}, {} + {} corner rows), built in {:.3e} s",
            self.batch.blocks(),
            self.batch.factor_blocks(),
            self.batch.factor_bytes() as f64 / 1e6,
            band.kl(),
            band.ku(),
            band.nc_top(),
            band.nc_bot(),
            self.batch_build_s,
        )
    }

    /// The body force currently driving the mean flow (the configured
    /// pressure gradient, or the mass-flux controller's output).
    pub fn current_force(&self) -> f64 {
        self.dyn_force
    }

    /// The mass-flux controller's internal state `(dyn_force,
    /// flux_integral)`. Part of the checkpointed trajectory: under
    /// `Forcing::ConstantMassFlux` a restart that resets the controller
    /// would diverge from the uninterrupted run.
    pub fn controller_state(&self) -> (f64, f64) {
        (self.dyn_force, self.flux_integral)
    }

    /// Restore the mass-flux controller state captured by
    /// [`controller_state`](Self::controller_state) (checkpoint restart).
    pub fn restore_controller(&mut self, dyn_force: f64, flux_integral: f64) {
        self.dyn_force = dyn_force;
        self.flux_integral = flux_integral;
    }

    /// Turn on time-averaged statistics collection with the given
    /// sampling policy (fresh accumulator). A restored accumulator
    /// installed by [`restore_stats`](Self::restore_stats) should be
    /// kept instead — see the resume-continuity contract there.
    pub fn enable_stats(&mut self, cfg: crate::stats::StatsConfig) {
        self.stats = Some(crate::stats::StatsAccumulator::new(cfg));
    }

    /// The statistics accumulator, when collection is enabled.
    pub fn stats(&self) -> Option<&crate::stats::StatsAccumulator> {
        self.stats.as_ref()
    }

    /// Install an accumulator restored from a checkpoint, replacing any
    /// current one. Checkpoint restore uses this so a resumed run
    /// continues averaging bit-exactly where the crashed run stopped —
    /// the accumulator is part of the checkpointed trajectory, like the
    /// mass-flux controller.
    pub fn restore_stats(&mut self, acc: crate::stats::StatsAccumulator) {
        self.stats = Some(acc);
    }

    /// Simulation parameters.
    pub fn params(&self) -> &Params {
        &self.params
    }
    /// The wall-normal collocation apparatus.
    pub fn ops(&self) -> &CollocationOps {
        &self.ops
    }
    /// The parallel transform pipeline.
    pub fn pfft(&self) -> &ParallelFft {
        &self.pfft
    }
    /// Current state.
    pub fn state(&self) -> &State {
        &self.state
    }

    /// Quadrature weights of the collocation points (`int f dy` on `[-1, 1]`).
    pub(crate) fn y_weights(&self) -> &[f64] {
        &self.y_weights
    }

    /// Length of one spectral field on this rank.
    pub fn field_len(&self) -> usize {
        self.state.u.len()
    }

    /// Number of locally-owned horizontal wavenumbers.
    pub fn local_modes(&self) -> usize {
        self.pfft.kx_block().len * self.pfft.kz_block().len
    }

    /// The regular local modes, ascending.
    pub(crate) fn regular(&self) -> impl Iterator<Item = usize> + '_ {
        (0..self.local_modes()).filter(|&m| !self.is_nyquist(m) && !self.is_mean(m))
    }

    /// Number of regular local modes: the columns the panels solve for.
    pub(crate) fn regular_modes(&self) -> usize {
        self.regular().count()
    }

    /// Columns of the wall-normal panels (the batched solver's, and
    /// [`NlTerms`]'s): [`LANES`] per panel block.
    pub(crate) fn panel_width(&self) -> usize {
        self.batch.width()
    }

    /// The panel blocks `(kz row, kx block)` in panel order: every local
    /// kz row but the Nyquist one, each kx lane block of it. Block `b`'s
    /// lane `l` is local mode `kz * kx_loc + LANES * xb + l`.
    pub(crate) fn panel_blocks(&self) -> impl Iterator<Item = (usize, usize)> + '_ {
        let nb = self.pfft.kx_lanes();
        (self.panel_rows.iter()).flat_map(move |&kz| (0..nb).map(move |xb| (kz, xb)))
    }

    /// The mean mode, local mode 0 on the rank owning it: also the panel
    /// block holding it (in its lane 0).
    pub(crate) fn mean_mode(&self) -> Option<usize> {
        let owner = self.pfft.kx_block().start == 0 && self.pfft.kz_block().start == 0;
        owner.then_some(0)
    }

    /// Panel column of local mode `m` (not the Nyquist slot).
    pub(crate) fn panel_col(&self, m: usize) -> usize {
        let (kxl, nb) = (self.pfft.kx_block().len, self.pfft.kx_lanes());
        let row = self.panel_rows.iter().position(|&kz| kz == m / kxl);
        let row = row.expect("the Nyquist slot has no panel column");
        row * nb * LANES + m % kxl
    }

    /// `[kx, kz]` of the lanes of panel block `(kz, xb)`.
    pub(crate) fn block_waves(&self, kz: usize, xb: usize) -> Waves {
        block_waves(&self.params, &self.pfft, kz, xb)
    }

    /// `(first line, lanes)` of panel block `(kz, xb)`: its modes' y-lines
    /// are consecutive in a field, one per lane from its first.
    pub(crate) fn block_lines(&self, kz: usize, xb: usize) -> (usize, usize) {
        let kxl = self.pfft.kx_block().len;
        (kz * kxl + xb * LANES, LANES.min(kxl - xb * LANES))
    }

    /// Panel block `(kz, xb)` of the y-lines of `field`, one mode per lane
    /// and zero past the row's last kx.
    pub(crate) fn load_block(&self, blk: &mut [LaneRow], field: &[C64], kz: usize, xb: usize) {
        let (first, n) = self.block_lines(kz, xb);
        load_lanes(blk, field, first, n);
    }

    /// Instruction set of the wall-normal lane kernels.
    pub(crate) fn isa(&self) -> Isa {
        self.isa
    }

    /// Index range of mode `m`'s y-line within a spectral field.
    pub fn line_range(&self, m: usize) -> Range<usize> {
        let ny = self.params.ny;
        m * ny..(m + 1) * ny
    }

    /// `(i kx, i kz, k^2)` of local mode `m`.
    pub fn mode_wavenumbers(&self, m: usize) -> (C64, C64, f64) {
        let [kx, kz] = wavenumbers(&self.params, &self.pfft, m);
        (C64::new(0.0, kx), C64::new(0.0, kz), kx * kx + kz * kz)
    }

    /// Whether local mode `m` is the spanwise Nyquist slot.
    pub fn is_nyquist(&self, m: usize) -> bool {
        let kz_g = self.pfft.kz_block().global(m / self.pfft.kx_block().len);
        kz_g == self.params.nz / 2
    }

    /// Whether local mode `m` is the mean mode (0,0).
    pub fn is_mean(&self, m: usize) -> bool {
        self.mean_mode() == Some(m)
    }

    /// Weight of mode `m` in statistics sums (2 for `kx > 0`, whose
    /// conjugate partner is not stored; 1 on the `kx = 0` plane).
    pub fn mode_weight(&self, m: usize) -> f64 {
        let kxlen = self.pfft.kx_block().len;
        if self.pfft.kx_block().global(m % kxlen) > 0 {
            2.0
        } else {
            1.0
        }
    }

    /// Evaluate a coefficient field at the collocation points, line by
    /// line (`B0 c`).
    pub fn field_values(&self, coef: &[C64]) -> Vec<C64> {
        let ny = self.params.ny;
        let mut out = vec![C64::new(0.0, 0.0); coef.len()];
        for (cl, ol) in coef.chunks_exact(ny).zip(out.chunks_exact_mut(ny)) {
            self.ops.b0().matvec_complex(cl, ol);
        }
        out
    }

    /// Set the mean flow to the laminar Poiseuille equilibrium of the
    /// configured pressure gradient: `u = F (1 - y^2) / (2 nu)` scaled by
    /// `scale` (1.0 = exact balance).
    pub fn set_laminar(&mut self, scale: f64) {
        let f = self.params.pressure_gradient();
        let nu = self.params.nu;
        let prof: Vec<f64> = self
            .ops
            .points()
            .iter()
            .map(|&y| scale * f * (1.0 - y * y) / (2.0 * nu))
            .collect();
        self.set_mean_u(&prof);
    }

    /// Set the mean flow to the Reichardt composite turbulent profile
    /// with friction velocity `u_tau` at the configured `1/nu` friction
    /// Reynolds number — the right starting mean for turbulent runs
    /// (the laminar equilibrium at the same pressure gradient is ~6x
    /// faster and violates any practical CFL limit).
    pub fn set_turbulent_mean(&mut self, u_tau: f64) {
        let re_tau = u_tau / self.params.nu;
        let prof: Vec<f64> = self
            .ops
            .points()
            .iter()
            .map(|&y| {
                let y_plus = (1.0 - y.abs()) * re_tau;
                u_tau * crate::stats::reichardt_u_plus(y_plus)
            })
            .collect();
        self.set_mean_u(&prof);
    }

    /// Add divergence-free perturbations in the low wavenumbers:
    /// per mode, `v ~ (1-y^2)^2` and `omega_y ~ (1-y^2)` with
    /// deterministic pseudo-random complex amplitudes (conjugate-
    /// symmetric on the `kx = 0` plane so physical fields stay real).
    pub fn add_perturbation(&mut self, amplitude: f64, seed: u64) {
        let shape_v: Vec<f64> = self
            .ops
            .points()
            .iter()
            .map(|&y| (1.0 - y * y).powi(2))
            .collect();
        let shape_o: Vec<f64> = self.ops.points().iter().map(|&y| 1.0 - y * y).collect();
        let cv_shape = self.ops.interpolate(&shape_v);
        let co_shape = self.ops.interpolate(&shape_o);
        self.nl_ws.staged = false;
        let kxlen = self.pfft.kx_block().len;
        for m in 0..self.local_modes() {
            if self.is_nyquist(m) || self.is_mean(m) {
                continue;
            }
            let kx_g = self.pfft.kx_block().global(m % kxlen);
            let kz_g = self.pfft.kz_block().global(m / kxlen);
            let kzs = self.pfft.kz_signed(kz_g);
            if kx_g > 3 || kzs.unsigned_abs() as usize > 3 {
                continue;
            }
            // conjugate symmetry on the kx=0 plane: derive both partners
            // from the same key, conjugating the negative-kz one
            let (key_kz, flip) = if kx_g == 0 && kzs < 0 {
                (-kzs, true)
            } else {
                (kzs, false)
            };
            let mut rv = rand_c(seed, kx_g as u64, key_kz as u64, 0);
            let mut ro = rand_c(seed, kx_g as u64, key_kz as u64, 1);
            if flip {
                rv = rv.conj();
                // omega_y of a real field obeys the same conjugate rule
                ro = ro.conj();
            }
            let r = self.line_range(m);
            let ny = self.params.ny;
            for j in 0..ny {
                self.state.v[r.start + j] += amplitude * rv * cv_shape[j];
                self.state.omega_y[r.start + j] += amplitude * ro * co_shape[j];
            }
            self.derive_phi_uw(m);
        }
    }

    /// Seed one horizontal mode `(kx, kz_signed)` with prescribed
    /// wall-normal velocity and vorticity spline coefficients (adding to
    /// whatever is there): `phi` is derived from `v`, and `u`, `w` are
    /// recovered from continuity — the entry point for eigenfunction
    /// initial conditions. Ranks not owning the mode do nothing.
    pub fn seed_mode(&mut self, kx: usize, kz_signed: i64, c_v: &[C64], c_omega: &[C64]) {
        let ny = self.params.ny;
        assert_eq!(c_v.len(), ny);
        assert_eq!(c_omega.len(), ny);
        self.nl_ws.staged = false;
        let kxlen = self.pfft.kx_block().len;
        for m in 0..self.local_modes() {
            if self.is_nyquist(m) || self.is_mean(m) {
                continue;
            }
            let kx_g = self.pfft.kx_block().global(m % kxlen);
            let kz_g = self.pfft.kz_block().global(m / kxlen);
            if kx_g != kx || self.pfft.kz_signed(kz_g) != kz_signed {
                continue;
            }
            let r = self.line_range(m);
            for j in 0..ny {
                self.state.v[r.start + j] += c_v[j];
                self.state.omega_y[r.start + j] += c_omega[j];
            }
            self.derive_phi_uw(m);
        }
    }

    /// Set the mean-flow line of `u` (on the rank owning kx = kz = 0) to
    /// the interpolant of `prof` at the collocation points.
    fn set_mean_u(&mut self, prof: &[f64]) {
        self.nl_ws.staged = false;
        let coef = self.ops.interpolate(prof);
        for m in 0..self.local_modes() {
            if self.is_mean(m) {
                let r = self.line_range(m);
                for (slot, &c) in self.state.u[r].iter_mut().zip(&coef) {
                    *slot = C64::new(c, 0.0);
                }
            }
        }
    }

    /// Derive mode `m`'s `phi = (D2 - k^2) v` from its `v`, interpolated
    /// back to coefficients, then recover its `u`, `w`.
    fn derive_phi_uw(&mut self, m: usize) {
        let ny = self.params.ny;
        let r = self.line_range(m);
        let (_, _, k2) = self.mode_wavenumbers(m);
        let cv = &self.state.v[r.clone()];
        let mut vals = vec![C64::new(0.0, 0.0); ny];
        let mut b0v = vec![C64::new(0.0, 0.0); ny];
        self.ops.b2().matvec_complex(cv, &mut vals);
        self.ops.b0().matvec_complex(cv, &mut b0v);
        for j in 0..ny {
            vals[j] -= k2 * b0v[j];
        }
        let cphi = self.ops.interpolate_complex(&vals);
        self.state.phi[r].copy_from_slice(&cphi);
        self.recover_uw(m);
    }

    /// Recompute `u`, `w` of mode `m` from `v` and `omega_y` (continuity
    /// plus the vorticity definition).
    fn recover_uw(&mut self, m: usize) {
        let (ikx, ikz, k2) = self.mode_wavenumbers(m);
        let r = self.line_range(m);
        let c_vy = dy_coefficients(&self.ops, &self.state.v[r.clone()]);
        let ny = self.params.ny;
        for j in 0..ny {
            let vy = c_vy[j];
            let om = self.state.omega_y[r.start + j];
            self.state.u[r.start + j] = (ikx * vy - ikz * om) / k2;
            self.state.w[r.start + j] = (ikz * vy + ikx * om) / k2;
        }
    }

    /// Advance one full RK3 timestep. The nonlinear terms run through
    /// the fused pipeline into persistent buffers; at steady state a
    /// single-rank serial substep performs no heap allocation. Each
    /// substep's advance writes the next one's velocity values into the
    /// pipeline's lane-blocked stack, so the `b0_staging` pass runs only
    /// on the first step after set-up or a state write.
    pub fn step(&mut self) {
        let _step = telemetry::span("rk3_step", telemetry::Phase::Other);
        let dt = self.params.dt;
        // lift the persistent buffers out of `self` for the step (the
        // taken-from slots hold empty Vecs: no allocation either way)
        let mut ws = std::mem::take(&mut self.nl_ws);
        let mut nl = std::mem::take(&mut self.nl_terms);
        let mut n_old = std::mem::take(&mut self.nl_terms_old);
        let mut scratch = std::mem::take(&mut self.scratch);
        ws.pfft.courant_rate = 0.0;
        n_old.reset(self); // zeta_0 = 0: first substep ignores it anyway
        for i in 0..3 {
            let _substep = telemetry::span("rk3_substep", telemetry::Phase::Other);
            nonlinear::compute_staged(self, &mut nl, &mut ws);
            let region = telemetry::region("ns_advance", telemetry::Phase::NsAdvance);
            let uvw = self.params.nonlinear.then_some(&mut ws.uvw[..]);
            self.advance_substep(i, &nl, &n_old, &mut scratch, uvw);
            region.close(self.pfft.clock());
            std::mem::swap(&mut nl, &mut n_old);
            self.state.time += (rk3::ALPHA[i] + rk3::BETA[i]) * dt;
        }
        self.nl_ws = ws;
        self.nl_terms = nl;
        self.nl_terms_old = n_old;
        self.scratch = scratch;
        self.state.steps += 1;
        // statistics hook: sampling is collective, but `due` is a pure
        // function of the (replicated) step counter, so every rank takes
        // the branch identically; disabled, this is one Option check
        let steps = self.state.steps;
        if let Some(mut acc) = self.stats.take_if(|acc| acc.due(steps)) {
            acc.sample(self);
            self.stats = Some(acc);
        }
    }

    fn advance_substep(
        &mut self,
        i: usize,
        nl: &NlTerms,
        n_old: &NlTerms,
        sc: &mut StepScratch,
        uvw: Option<&mut [LaneRow]>,
    ) {
        self.advance_mean(i, nl, n_old, sc);
        self.advance_blocks(i, nl, n_old, sc, uvw);
    }

    /// The `(0, 0)` mode: mass-flux feedback, then the `<u>`, `<w>`
    /// Helmholtz advances. Touches only the mean mode's lines.
    fn advance_mean(&mut self, i: usize, nl: &NlTerms, n_old: &NlTerms, sc: &mut StepScratch) {
        let ny = self.params.ny;
        let nu = self.params.nu;
        let dt = self.params.dt;
        // mass-flux feedback: only the rank owning the mean mode uses the
        // force, so the controller needs no communication
        if let crate::params::Forcing::ConstantMassFlux { bulk } = self.params.forcing {
            if let Some(m) = self.mean_mode() {
                let r = m * ny..(m + 1) * ny;
                sc.r0.clear();
                sc.r0.extend(self.state.u[r].iter().map(|c| c.re));
                sc.r1.clear();
                sc.r1.resize(ny, 0.0);
                self.ops.b0().matvec(&sc.r0, &mut sc.r1);
                let current: f64 = sc
                    .r1
                    .iter()
                    .zip(&self.y_weights)
                    .map(|(u, w)| u * w)
                    .sum::<f64>()
                    / 2.0;
                // PI controller: the proportional part closes most
                // of the gap within a step; the small integral part
                // learns the steady drag without overshoot
                let gap = (bulk - current) / dt;
                self.flux_integral = (self.flux_integral + 0.02 * gap).clamp(-100.0, 100.0);
                self.dyn_force = (self.flux_integral + 0.4 * gap).clamp(-100.0, 100.0);
            }
        }
        let f = self.dyn_force;
        let (ops, mean) = (&self.ops, self.mean_mode());
        let state = &mut self.state;
        if let Some(m) = mean {
            let r = m * ny..(m + 1) * ny;
            // <u>: forced by the pressure gradient and -d<uv>/dy
            sc.r0.clear();
            sc.r0.extend(state.u[r.clone()].iter().map(|c| c.re));
            sc.r1.clear();
            sc.r1.extend(nl.mean_hx.iter().map(|h| h + f));
            sc.r2.clear();
            sc.r2.extend(n_old.mean_hx.iter().map(|h| h + f));
            sc.r3.resize(ny, 0.0);
            sc.r4.resize(ny, 0.0);
            self.mean.advance_in(
                ops, i, &mut sc.r0, &sc.r1, &sc.r2, nu, dt, &mut sc.r3, &mut sc.r4,
            );
            for (slot, &c) in state.u[r.clone()].iter_mut().zip(&sc.r0) {
                *slot = C64::new(c, 0.0);
            }
            // <w>: unforced
            sc.r0.clear();
            sc.r0.extend(state.w[r.clone()].iter().map(|c| c.re));
            self.mean.advance_in(
                ops,
                i,
                &mut sc.r0,
                &nl.mean_hz,
                &n_old.mean_hz,
                nu,
                dt,
                &mut sc.r3,
                &mut sc.r4,
            );
            for (slot, &c) in state.w[r].iter_mut().zip(&sc.r0) {
                *slot = C64::new(c, 0.0);
            }
        }
    }

    /// Every panel block, twins back to back: load its state lines, sweep
    /// the substep's banded systems across its lanes, recover `u`, `w` and
    /// store the regular lanes, one block in cache throughout. With `uvw`
    /// the block then leaves `B0 u`, `B0 v`, `B0 w` of its new state there
    /// (the mean lane's from [`advance_mean`](Self::advance_mean)).
    fn advance_blocks(
        &mut self,
        i: usize,
        nl: &NlTerms,
        n_old: &NlTerms,
        sc: &mut StepScratch,
        mut uvw: Option<&mut [LaneRow]>,
    ) {
        let (ny, nu, dt) = (self.params.ny, self.params.nu, self.params.dt);
        for blk in sc.blocks.iter_mut() {
            blk.resize(ny, LaneRow::ZERO);
        }
        let [om, c, b0c, b2c, v] = &mut sc.blocks;
        let (batch, ops, nb) = (&self.batch, &self.ops, self.pfft.kx_lanes());
        let shape = [NL_FIELDS, nb, ny];
        for &b in batch.walk() {
            let (kz, xb) = (self.panel_rows[b / nb], b % nb);
            let (first, n) = self.block_lines(kz, xb);
            // the mean mode (lane 0 of its block) is never stored
            let live = usize::from(self.mean_mode() == Some(b))..n;
            let waves = self.block_waves(kz, xb);
            let state = &mut self.state;
            // omega_y: advance through the substep's Helmholtz solve
            let (hg, hg_old) = (nl.h_g.block(b), n_old.h_g.block(b));
            load_lanes(om, &state.omega_y, first, n);
            batch.advance_block(ops, i, b, om, hg, hg_old, nu, dt, b0c, b2c);
            store_lanes(om, &mut state.omega_y, first, live.clone());
            // phi: advance, then recover v with the influence correction
            let (hv, hv_old) = (nl.h_v.block(b), n_old.h_v.block(b));
            load_lanes(c, &state.phi, first, n);
            batch.advance_block(ops, i, b, c, hv, hv_old, nu, dt, b0c, b2c);
            batch.solve_v_block(ops, i, b, c, v);
            store_lanes(c, &mut state.phi, first, live.clone());
            store_lanes(v, &mut state.v, first, live.clone());
            // u, w recovery from dv/dy and omega_y, into `c` and `b2c`
            dy_coefficients_block(ops, v, b0c);
            recover_uw(self.isa, &waves, batch.k2(b), [b0c, om], c, b2c);
            store_lanes(c, &mut state.u, first, live.clone());
            store_lanes(b2c, &mut state.w, first, live.clone());
            if let Some(uvw) = uvw.as_deref_mut() {
                if live.start > 0 {
                    for (blk, field) in [
                        (&mut *c, &state.u),
                        (&mut *v, &state.v),
                        (&mut *b2c, &state.w),
                    ] {
                        load_lanes(blk, field, first, n);
                    }
                }
                for (f, blk) in [&*c, &*v, &*b2c].into_iter().enumerate() {
                    ops.b0()
                        .matvec_block(blk, &mut uvw[stack_block(shape, kz, f, xb)]);
                }
            }
        }
        // two Helmholtz solves, the Poisson solve and the dv/dy
        // interpolation solve per mode, reported per stage
        batch.count_solves(self.regular_modes(), 3);
        ops.b0_lu().count_solves(self.regular_modes(), 1);
    }

    /// Seconds per phase this rank has spent stepping: the transposes and
    /// transforms of the pipeline, and the implicit advance plus the
    /// nonlinear evaluation's wall-normal stages as N-S advance — all
    /// booked on the one [`ParallelFft::clock`] since construction (or
    /// its last [`ParallelFft::reset_timers`]).
    pub fn timers(&self) -> PhaseTimers {
        self.pfft.timers()
    }

    /// Replace the spectral state wholesale (checkpoint restart).
    ///
    /// # Panics
    /// If any field length differs from this rank's layout.
    #[allow(clippy::too_many_arguments)]
    pub fn restore_state(
        &mut self,
        u: Vec<C64>,
        v: Vec<C64>,
        w: Vec<C64>,
        omega_y: Vec<C64>,
        phi: Vec<C64>,
        time: f64,
        steps: u64,
    ) {
        let len = self.field_len();
        for f in [&u, &v, &w, &omega_y, &phi] {
            assert_eq!(f.len(), len, "restored field length mismatch");
        }
        self.nl_ws.staged = false;
        self.state.u = u;
        self.state.v = v;
        self.state.w = w;
        self.state.omega_y = omega_y;
        self.state.phi = phi;
        self.state.time = time;
        self.state.steps = steps;
    }

    /// The largest Courant number `dt * max(|u|/dx + |v|/dy + |w|/dz)` the last
    /// [`step`](Self::step) advected with (collective): over the dealiased grid
    /// and the states entering its three substeps, reduced inside the fused
    /// x-stage; 0 before the first step and on a linearised run. Keep it well
    /// below ~1.7, the RK3 stability limit on the imaginary axis.
    pub fn courant(&self) -> f64 {
        let (a, b) = (self.pfft.comm_a(), self.pfft.comm_b());
        b.allreduce_max(a.allreduce_max(self.nl_ws.pfft.courant_rate)) * self.params.dt
    }
}

/// Signed `[kx, kz]` of local mode `m` (`[kz_loc][kx_loc]` order).
fn wavenumbers(params: &Params, pfft: &ParallelFft, m: usize) -> [f64; 2] {
    let kxlen = pfft.kx_block().len;
    let kx_g = pfft.kx_block().global(m % kxlen);
    let kz_g = pfft.kz_block().global(m / kxlen);
    let kx = params.alpha() * kx_g as f64;
    [kx, params.beta() * pfft.kz_signed(kz_g) as f64]
}

/// `[kx, kz]` of the lanes of panel block `(kz, xb)`: each lane's mode's,
/// zero in the pad lanes past the row's last kx.
fn block_waves(params: &Params, pfft: &ParallelFft, kz: usize, xb: usize) -> Waves {
    let kxl = pfft.kx_block().len;
    let mut waves = [[0.0; LANES]; 2];
    for l in 0..LANES.min(kxl - xb * LANES) {
        [waves[0][l], waves[1][l]] = wavenumbers(params, pfft, kz * kxl + xb * LANES + l);
    }
    waves
}

/// Lanes `0..n` of a block from the `n` consecutive y-lines of `field`
/// that start at line `first`, one per lane; the lanes past them zero.
fn load_lanes(blk: &mut [LaneRow], field: &[C64], first: usize, n: usize) {
    let ny = blk.len();
    reorder_into_lanes(&field[first * ny..][..n * ny], ny, n, blk);
}

/// Lanes `lanes` of a block to their y-lines of `field`, lane `l` to line
/// `first + l`.
fn store_lanes(blk: &[LaneRow], field: &mut [C64], first: usize, lanes: Range<usize>) {
    let ny = blk.len();
    for l in lanes {
        for (v, row) in field[(first + l) * ny..][..ny].iter_mut().zip(blk) {
            *v = row.get(l);
        }
    }
}

/// Deterministic unit-magnitude-ish complex amplitude from a hash.
fn rand_c(seed: u64, a: u64, b: u64, c: u64) -> C64 {
    let mut s = seed
        ^ a.wrapping_mul(0x9E3779B97F4A7C15)
        ^ b.wrapping_mul(0xC2B2AE3D27D4EB4F)
        ^ c.wrapping_mul(0x165667B19E3779F9);
    let mut next = move || {
        s = s
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (s >> 11) as f64 / (1u64 << 53) as f64 - 0.5
    };
    C64::new(next(), next())
}

/// Run a function on a freshly built DNS on `pa * pb` rank threads;
/// returns the per-rank results.
pub fn run_parallel<F, R>(params: Params, f: F) -> Vec<R>
where
    F: Fn(&mut ChannelDns) -> R + Send + Sync + 'static,
    R: Send + 'static,
{
    let n = params.pa * params.pb;
    dns_minimpi::run(n, move |world| {
        let mut dns = ChannelDns::new(world, params.clone());
        f(&mut dns)
    })
}

/// Single-rank convenience wrapper around [`run_parallel`].
pub fn run_serial<F, R>(params: Params, f: F) -> R
where
    F: Fn(&mut ChannelDns) -> R + Send + Sync + 'static,
    R: Send + 'static,
{
    assert_eq!(params.pa * params.pb, 1, "run_serial needs a 1x1 grid");
    run_parallel(params, f).pop().expect("one rank")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats;
    use crate::wallnormal::ModeSolver;

    fn tiny_params() -> Params {
        Params::channel(16, 25, 16, 50.0).with_dt(2e-3)
    }

    #[test]
    fn a_step_grows_the_pencil_buffer_to_one_pencil_of_the_larger_view() {
        for (pa, pb) in [(1, 1), (2, 1), (1, 2), (2, 2)] {
            let params = tiny_params().with_grid(pa, pb);
            for (rank, (before, after, planned, pencil)) in run_parallel(params, |dns| {
                let before = dns.nl_ws.pfft.bytes();
                dns.set_laminar(1.0);
                dns.step();
                // the five products' z view [y][5][kx_block][pz] and x view
                // [y][5][kx blocks of every CommA rank][z_loc]
                let (p, cfg) = (&dns.pfft, dns.pfft.config());
                let blocks = |r| {
                    dns_pencil::Block::of(cfg.sx(), cfg.pa, r)
                        .len
                        .div_ceil(LANES)
                };
                let z_view = p.kx_lanes() * cfg.pz();
                let x_view = (0..cfg.pa).map(blocks).sum::<usize>() * p.zphys_block().len;
                let rows = dns_pfft::NL_PRODUCTS * p.y_block().len * z_view.max(x_view);
                let pencil = rows * std::mem::size_of::<LaneRow>();
                (before, dns.nl_ws.pfft.bytes(), p.workspace_bytes(), pencil)
            })
            .into_iter()
            .enumerate()
            {
                let case = format!("{pa}x{pb} rank {rank}");
                assert_eq!(before, 0, "{case}: nothing allocated at set-up");
                assert_eq!(after, planned, "{case}");
                assert_eq!(after, pencil, "{case}: one pencil of the larger view");
            }
        }
    }

    #[test]
    fn laminar_poiseuille_is_a_steady_state_of_the_full_solver() {
        let prof = run_serial(tiny_params(), |dns| {
            dns.set_laminar(1.0);
            let before = stats::profiles(dns);
            for _ in 0..5 {
                dns.step();
            }
            let after = stats::profiles(dns);
            (before, after)
        });
        let (before, after) = prof;
        for (a, b) in before.u_mean.iter().zip(&after.u_mean) {
            assert!(
                (a - b).abs() < 1e-8 * before.u_mean[12].abs().max(1.0),
                "{a} vs {b}"
            );
        }
        // fluctuations remain zero
        assert!(after.uu.iter().all(|&x| x.abs() < 1e-16));
    }

    #[test]
    fn perturbed_field_is_divergence_free_and_stays_so() {
        use crate::stats::max_divergence;
        let max_div = run_serial(tiny_params(), |dns| {
            dns.set_laminar(1.0);
            dns.add_perturbation(0.05, 7);
            let d0 = max_divergence(dns);
            for _ in 0..3 {
                dns.step();
            }
            (d0, max_divergence(dns))
        });
        assert!(max_div.0 < 1e-10, "initial divergence {}", max_div.0);
        assert!(max_div.1 < 1e-8, "evolved divergence {}", max_div.1);
    }

    #[test]
    fn no_slip_walls_hold_for_all_velocity_components() {
        let worst = run_serial(tiny_params(), |dns| {
            dns.set_laminar(1.0);
            dns.add_perturbation(0.05, 3);
            for _ in 0..3 {
                dns.step();
            }
            let mut worst = 0.0f64;
            let basis = dns.ops().basis().clone();
            for m in 0..dns.local_modes() {
                if dns.is_nyquist(m) {
                    continue;
                }
                let r = dns.line_range(m);
                for field in [dns.state().u(), dns.state().v(), dns.state().w()] {
                    let line = &field[r.clone()];
                    for part in [
                        line.iter().map(|c| c.re).collect::<Vec<_>>(),
                        line.iter().map(|c| c.im).collect::<Vec<_>>(),
                    ] {
                        worst = worst.max(basis.eval(&part, -1.0).abs());
                        worst = worst.max(basis.eval(&part, 1.0).abs());
                    }
                }
            }
            worst
        });
        assert!(worst < 1e-9, "wall velocity {worst}");
    }

    #[test]
    fn mean_momentum_grows_at_the_forced_rate_from_rest() {
        // from rest, d(bulk u)/dt = F exactly until shear develops
        let (u0, u1, dtn) = run_serial(tiny_params().with_dt(1e-3), |dns| {
            let b0 = stats::profiles(dns).bulk_velocity;
            for _ in 0..5 {
                dns.step();
            }
            (b0, stats::profiles(dns).bulk_velocity, dns.state().time)
        });
        // the wall shear reduces the growth slightly; allow 10%
        let want = dtn * 1.0;
        assert!(u0.abs() < 1e-14);
        assert!((u1 - want).abs() < 0.1 * want, "{u1} vs {want}");
    }

    #[test]
    fn inviscid_energy_is_conserved_by_the_nonlinear_terms() {
        // nu tiny, no forcing: the dealiased divergence-form convection
        // must not create energy; drift per step should be tiny.
        let mut p = tiny_params().with_dt(5e-4);
        p.nu = 1e-8;
        p.forcing = crate::params::Forcing::None;
        let (e0, e1) = run_serial(p, |dns| {
            dns.add_perturbation(0.2, 11);
            let e0 = stats::kinetic_energy(dns);
            for _ in 0..10 {
                dns.step();
            }
            (e0, stats::kinetic_energy(dns))
        });
        let drift = (e1 - e0).abs() / e0;
        assert!(drift < 2e-3, "energy drift {drift} (e0={e0}, e1={e1})");
    }

    /// One RK3 step with every regular mode advanced by its own scalar
    /// [`ModeSolver`] sweeps instead of the panels — the per-mode
    /// reference route (the mean mode shares `advance_mean`).
    fn step_scalar(dns: &mut ChannelDns, solvers: &[(usize, ModeSolver)]) {
        let (ny, nu, dt) = (dns.params.ny, dns.params.nu, dns.params.dt);
        let (mut ws, mut sc) = (NlWorkspace::default(), StepScratch::default());
        let (mut nl, mut n_old) = (NlTerms::default(), NlTerms::default());
        n_old.reset(dns);
        for i in 0..3 {
            nonlinear::compute_into(dns, &mut nl, &mut ws);
            dns.advance_mean(i, &nl, &n_old, &mut sc);
            for (m, ms) in solvers {
                let (col, r) = (dns.panel_col(*m), dns.line_range(*m));
                let (ikx, ikz, k2) = dns.mode_wavenumbers(*m);
                let (ops, state) = (&dns.ops, &mut dns.state);
                let (hg, hg_old) = (nl.h_g.col_to_vec(col), n_old.h_g.col_to_vec(col));
                ms.advance(ops, i, &mut state.omega_y[r.clone()], &hg, &hg_old, nu, dt);
                let (hv, hv_old) = (nl.h_v.col_to_vec(col), n_old.h_v.col_to_vec(col));
                ms.advance(ops, i, &mut state.phi[r.clone()], &hv, &hv_old, nu, dt);
                let v = ms.solve_v(ops, i, &mut state.phi[r.clone()]);
                state.v[r.clone()].copy_from_slice(&v);
                let vy = dy_coefficients(ops, &v);
                for j in 0..ny {
                    let om = state.omega_y[r.start + j];
                    state.u[r.start + j] = (ikx * vy[j] - ikz * om) / k2;
                    state.w[r.start + j] = (ikz * vy[j] + ikx * om) / k2;
                }
            }
            std::mem::swap(&mut nl, &mut n_old);
            dns.state.time += (rk3::ALPHA[i] + rk3::BETA[i]) * dt;
        }
        dns.state.steps += 1;
    }

    #[test]
    fn batched_step_matches_scalar_oracle() {
        // the batched panels and the per-mode scalar sweeps must produce
        // the same trajectory to round-off (they differ only in memory
        // layout and division-vs-reciprocal rounding)
        let run = |batched: bool| {
            run_serial(tiny_params(), move |dns| {
                dns.set_laminar(1.0);
                dns.add_perturbation(0.05, 9);
                let solvers: Vec<(usize, ModeSolver)> = dns
                    .regular()
                    .map(|m| {
                        let k2 = dns.mode_wavenumbers(m).2;
                        let p = &dns.params;
                        (m, ModeSolver::new(&dns.ops, k2, p.nu, p.dt))
                    })
                    .collect();
                for _ in 0..3 {
                    if batched {
                        dns.step();
                    } else {
                        step_scalar(dns, &solvers);
                    }
                }
                let s = dns.state();
                [
                    s.u().to_vec(),
                    s.v().to_vec(),
                    s.w().to_vec(),
                    s.omega_y().to_vec(),
                    s.phi().to_vec(),
                ]
            })
        };
        let batched = run(true);
        let scalar = run(false);
        assert!(scalar[1].iter().any(|c| c.norm() > 1e-6), "oracle ran");
        for (f, (bf, sf)) in batched.iter().zip(&scalar).enumerate() {
            for (j, (b, s)) in bf.iter().zip(sf).enumerate() {
                assert!(
                    (b - s).norm() < 1e-12 * (1.0 + s.norm()),
                    "field {f} slot {j}: batched {b} vs scalar {s}"
                );
            }
        }
    }

    #[test]
    fn a_rank_that_owns_only_the_nyquist_row_steps() {
        // 1 x nz grid: one kz row per rank, so one rank's batch is empty
        let p = Params::channel(8, 17, 8, 50.0)
            .with_dt(2e-3)
            .with_grid(1, 8);
        let blocks = run_parallel(p, |dns| {
            dns.set_laminar(1.0);
            dns.add_perturbation(0.05, 13);
            dns.step();
            dns.step();
            assert!(dns.state().u().iter().all(|c| c.re.is_finite()));
            let nyquist_only = (0..dns.local_modes()).all(|m| dns.is_nyquist(m));
            assert_eq!(nyquist_only, dns.batch.blocks() == 0);
            dns.batch.blocks()
        });
        assert_eq!(blocks.iter().filter(|&&b| b == 0).count(), 1);
    }

    #[test]
    fn natural_block_order_shares_the_twin_factor_blocks() {
        // (nx, nz, pa, pb, per-rank (panel blocks, factor blocks)): a +kz
        // row's blocks and its -kz twin's have the same k^2 lanes; pb = 2
        // splits kz at the Nyquist slot, leaving every twin remote; nx =
        // 20 leaves two kx blocks per row, the second with two pad lanes
        for (nx, nz, pa, pb, want) in [
            (16, 16, 1, 1, vec![(15, 8)]),
            (16, 16, 2, 1, vec![(15, 8); 2]),
            (16, 16, 1, 2, vec![(8, 8), (7, 7)]),
            (16, 16, 2, 2, vec![(8, 8), (7, 7), (8, 8), (7, 7)]),
            (20, 12, 1, 1, vec![(22, 12)]),
        ] {
            let p = Params::channel(nx, 25, nz, 50.0).with_grid(pa, pb);
            let got = run_parallel(p, |dns| (dns.batch.blocks(), dns.batch.factor_blocks()));
            assert_eq!(got, want, "{nx}x{nz} on {pa}x{pb}");
        }
    }

    /// The five state fields, the time and the step count as bits.
    fn state_bits(dns: &ChannelDns) -> Vec<u64> {
        let s = dns.state();
        let fields = [s.u(), s.v(), s.w(), s.omega_y(), s.phi()];
        let parts = fields.into_iter().flatten().flat_map(|c| [c.re, c.im]);
        let parts = parts.chain([s.time]).map(f64::to_bits);
        parts.chain([s.steps]).collect()
    }

    /// The state as [`ChannelDns::restore_state`] takes it.
    fn state_parts(dns: &ChannelDns) -> ([Vec<C64>; 5], f64, u64) {
        let s = dns.state();
        let fields = [s.u(), s.v(), s.w(), s.omega_y(), s.phi()].map(<[C64]>::to_vec);
        (fields, s.time, s.steps)
    }

    fn restore(dns: &mut ChannelDns, ([u, v, w, om, phi], time, steps): ([Vec<C64>; 5], f64, u64)) {
        dns.restore_state(u, v, w, om, phi, time, steps);
    }

    #[test]
    fn every_state_writer_restages_the_velocity_values() {
        // after a step the pipeline's stack holds the advance's values;
        // each writer must make the next step stage its own state afresh,
        // so it steps to the bits of a freshly built solver given the
        // same state
        for (pa, pb) in [(1, 1), (2, 2)] {
            let params = tiny_params().with_grid(pa, pb);
            for writer in 0..4 {
                let outs = run_parallel(params.clone(), move |dns| {
                    dns.set_laminar(1.0);
                    dns.add_perturbation(0.05, 3);
                    let start = state_parts(dns);
                    dns.step();
                    match writer {
                        0 => restore(dns, start),
                        1 => dns.set_laminar(0.5),
                        2 => dns.add_perturbation(0.05, 8),
                        _ => {
                            let c: Vec<C64> = (0..dns.params.ny)
                                .map(|j| C64::new(1e-3 * j as f64, 0.0))
                                .collect();
                            dns.seed_mode(1, -1, &c, &c);
                        }
                    }
                    let written = state_parts(dns);
                    dns.step();
                    (written, state_bits(dns))
                });
                // the same states through freshly built solvers
                let written: Vec<_> = outs.iter().map(|o| o.0.clone()).collect();
                let params = params.clone();
                let fresh = dns_minimpi::run(pa * pb, move |world| {
                    let state = written[world.rank()].clone();
                    let mut dns = ChannelDns::new(world, params.clone());
                    restore(&mut dns, state);
                    dns.step();
                    state_bits(&dns)
                });
                for (rank, (o, f)) in outs.iter().zip(&fresh).enumerate() {
                    assert!(
                        o.1 == *f,
                        "{pa}x{pb} writer {writer} rank {rank}: stale values stepped"
                    );
                }
            }
        }
    }

    #[test]
    fn parallel_run_matches_serial_run() {
        let run = |pa: usize, pb: usize| -> Vec<f64> {
            let p = tiny_params().with_grid(pa, pb);
            let mut outs = run_parallel(p, |dns| {
                dns.set_laminar(1.0);
                dns.add_perturbation(0.05, 5);
                for _ in 0..2 {
                    dns.step();
                }
                stats::profiles(dns).uu
            });
            outs.pop().unwrap()
        };
        let serial = run(1, 1);
        let par = run(2, 2);
        assert_eq!(serial.len(), par.len());
        for (a, b) in serial.iter().zip(&par) {
            assert!((a - b).abs() < 1e-12 * (1.0 + a.abs()), "{a} vs {b}");
        }
    }

    #[test]
    fn mass_flux_controller_reaches_and_holds_the_target() {
        let mut p = tiny_params().with_dt(2e-3);
        p.forcing = crate::params::Forcing::ConstantMassFlux { bulk: 1.5 };
        let history = run_serial(p, |dns| {
            let mut hist = Vec::new();
            for _ in 0..60 {
                dns.step();
                hist.push(stats::profiles(dns).bulk_velocity);
            }
            (hist, dns.current_force())
        });
        let (hist, force) = history;
        let last = *hist.last().unwrap();
        assert!((last - 1.5).abs() < 0.01, "bulk = {last}");
        // held, not just crossed: the last 10 samples all near target
        for &b in &hist[hist.len() - 10..] {
            assert!((b - 1.5).abs() < 0.02, "bulk wanders: {b}");
        }
        // the controller found a positive driving force
        assert!(force > 0.0);
    }

    #[test]
    fn turbulent_like_run_stays_finite_and_produces_fluctuations() {
        let prof = run_serial(Params::channel(16, 25, 16, 100.0).with_dt(1e-3), |dns| {
            dns.set_laminar(1.0);
            dns.add_perturbation(0.5, 42);
            for _ in 0..20 {
                dns.step();
            }
            stats::profiles(dns)
        });
        assert!(prof.u_mean.iter().all(|x| x.is_finite()));
        let peak_uu = prof.uu.iter().cloned().fold(0.0, f64::max);
        assert!(peak_uu > 0.0 && peak_uu.is_finite());
        assert!(prof.u_tau > 0.0);
    }
}
