//! The channel-flow DNS driver: state, mode bookkeeping and the RK3
//! timestep (section 2.3's steps (a)-(j)).

use std::ops::Range;

use dns_bspline::{integration_weights, tanh_breakpoints, BsplineBasis, CollocationOps};
use dns_minimpi::Communicator;
use dns_pfft::{ParallelFft, PfftConfig};
use dns_telemetry as telemetry;

use crate::nonlinear::{self, NlTerms, NlWorkspace};
use crate::params::Params;
use crate::rk3;
use crate::wallnormal::{dy_coefficients, dy_coefficients_block, BatchNormalSolver, MeanSolver};
use crate::C64;
use dns_banded::{gather_lanes, scatter_lanes, LaneRow, LANES};

/// Classification of a locally-owned horizontal wavenumber.
enum ModeKind {
    /// `(kx, kz) = (0, 0)`: the mean flow.
    Mean,
    /// The structurally-zero spanwise Nyquist slot.
    NyquistZ,
    /// A regular mode; its solves run through the rank-wide
    /// [`BatchNormalSolver`] panels.
    Batched,
}

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
    /// One-block panels of `ny` rows (together L1-sized): prognostic
    /// columns, `B0 c`/`B2 c` matvec scratch, and the recovered `v`
    /// columns. The nonlinear terms arrive as panels ([`NlTerms`]).
    blocks: [Vec<LaneRow>; 4],
}

/// A distributed channel DNS bound to one rank of a `pa x pb` grid.
pub struct ChannelDns {
    params: Params,
    pfft: ParallelFft,
    ops: CollocationOps,
    modes: Vec<ModeKind>,
    /// The rank-wide batched wall-normal solver (zero blocks on a rank
    /// that owns no regular mode, e.g. just the spanwise Nyquist slot).
    batch: BatchNormalSolver,
    /// Local mode indices behind `batch`, in panel-column order
    /// ([`batch_order`]).
    batch_modes: Vec<usize>,
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

        let kxb = pfft.kx_block();
        let kzb = pfft.kz_block();
        let mut modes = Vec::with_capacity(kxb.len * kzb.len);
        for kzl in 0..kzb.len {
            let kz_g = kzb.global(kzl);
            for kxl in 0..kxb.len {
                modes.push(if kz_g == params.nz / 2 {
                    ModeKind::NyquistZ
                } else if kxb.global(kxl) == 0 && kz_g == 0 {
                    ModeKind::Mean
                } else {
                    ModeKind::Batched
                });
            }
        }
        let batch_modes = batch_order(&modes, kxb.len, kzb.start, params.nz);
        let batch_k2: Vec<f64> = batch_modes
            .iter()
            .map(|&m| {
                let kx = params.alpha() * kxb.global(m % kxb.len) as f64;
                let kz = params.beta() * signed(kzb.global(m / kxb.len), params.nz) as f64;
                kx * kx + kz * kz
            })
            .collect();
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
            modes,
            batch,
            batch_modes,
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
        if telemetry::enabled() {
            telemetry::decision("wallnormal.plan", dns.wallnormal_plan());
        }
        dns
    }

    /// What the wall-normal set-up built and cost on this rank: panel
    /// blocks, the distinct factor blocks behind them, their resident
    /// bytes and the build seconds (also the `wallnormal.plan` telemetry
    /// decision record).
    pub fn wallnormal_plan(&self) -> String {
        format!(
            "{} panel blocks on {} factor blocks, {:.1} MB of factors + Green's, built in {:.3e} s",
            self.batch.blocks(),
            self.batch.factor_blocks(),
            self.batch.factor_bytes() as f64 / 1e6,
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
        self.modes.len()
    }

    /// The regular local modes in the column order of the wall-normal
    /// panels (the batched solver's, and [`NlTerms`]'s).
    pub(crate) fn batch_modes(&self) -> &[usize] {
        &self.batch_modes
    }

    /// Index range of mode `m`'s y-line within a spectral field.
    pub fn line_range(&self, m: usize) -> Range<usize> {
        let ny = self.params.ny;
        m * ny..(m + 1) * ny
    }

    /// `(i kx, i kz, k^2)` of local mode `m`.
    pub fn mode_wavenumbers(&self, m: usize) -> (C64, C64, f64) {
        let kxlen = self.pfft.kx_block().len;
        let kx_g = self.pfft.kx_block().global(m % kxlen);
        let kz_g = self.pfft.kz_block().global(m / kxlen);
        let kx = self.params.alpha() * kx_g as f64;
        let kz = self.params.beta() * signed(kz_g, self.params.nz) as f64;
        (C64::new(0.0, kx), C64::new(0.0, kz), kx * kx + kz * kz)
    }

    /// Whether local mode `m` is the spanwise Nyquist slot.
    pub fn is_nyquist(&self, m: usize) -> bool {
        matches!(self.modes[m], ModeKind::NyquistZ)
    }

    /// Whether local mode `m` is the mean mode (0,0).
    pub fn is_mean(&self, m: usize) -> bool {
        matches!(self.modes[m], ModeKind::Mean)
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
        let coef = self.ops.interpolate(&prof);
        for m in 0..self.local_modes() {
            if self.is_mean(m) {
                let r = self.line_range(m);
                for (slot, &c) in self.state.u[r].iter_mut().zip(&coef) {
                    *slot = C64::new(c, 0.0);
                }
            }
        }
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
        let coef = self.ops.interpolate(&prof);
        for m in 0..self.local_modes() {
            if self.is_mean(m) {
                let r = self.line_range(m);
                for (slot, &c) in self.state.u[r].iter_mut().zip(&coef) {
                    *slot = C64::new(c, 0.0);
                }
            }
        }
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
        let nz = self.params.nz;
        let kxlen = self.pfft.kx_block().len;
        for m in 0..self.local_modes() {
            if !matches!(self.modes[m], ModeKind::Batched) {
                continue;
            }
            let kx_g = self.pfft.kx_block().global(m % kxlen);
            let kz_g = self.pfft.kz_block().global(m / kxlen);
            let kzs = signed(kz_g, nz);
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
            // phi = (D2 - k^2) v, interpolated back to coefficients
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
            self.state.phi[r.clone()].copy_from_slice(&cphi);
            self.recover_uw(m);
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
        let kxlen = self.pfft.kx_block().len;
        let nz = self.params.nz;
        for m in 0..self.local_modes() {
            if !matches!(self.modes[m], ModeKind::Batched) {
                continue;
            }
            let kx_g = self.pfft.kx_block().global(m % kxlen);
            let kz_g = self.pfft.kz_block().global(m / kxlen);
            if kx_g != kx || signed(kz_g, nz) != kz_signed {
                continue;
            }
            let r = self.line_range(m);
            for j in 0..ny {
                self.state.v[r.start + j] += c_v[j];
                self.state.omega_y[r.start + j] += c_omega[j];
            }
            // phi = (D2 - k^2) v, interpolated back to coefficients
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
            self.state.phi[r.clone()].copy_from_slice(&cphi);
            self.recover_uw(m);
        }
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
    /// single-rank serial substep performs no heap allocation.
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
            nonlinear::compute_into(self, &mut nl, &mut ws);
            let region = telemetry::region("ns_advance", telemetry::Phase::NsAdvance);
            self.advance_substep(i, &nl, &n_old, &mut scratch);
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

    fn advance_substep(&mut self, i: usize, nl: &NlTerms, n_old: &NlTerms, sc: &mut StepScratch) {
        self.advance_mean(i, nl, n_old, sc);
        self.advance_blocks(i, nl, n_old, sc);
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
            for (m, kind) in self.modes.iter().enumerate() {
                if matches!(kind, ModeKind::Mean) {
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
        }
        let f = self.dyn_force;
        let ops = &self.ops;
        let state = &mut self.state;
        for (m, kind) in self.modes.iter().enumerate() {
            if !matches!(kind, ModeKind::Mean) {
                continue;
            }
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

    /// Every regular mode, [`LANES`] at a time in the batched solver's
    /// column order: gather the block's y-lines from the state, sweep
    /// each banded system of the substep across its lanes against the
    /// nonlinear-term panels, scatter back — one block's working set
    /// stays in cache from the first sweep to the last.
    fn advance_blocks(&mut self, i: usize, nl: &NlTerms, n_old: &NlTerms, sc: &mut StepScratch) {
        let ny = self.params.ny;
        let nu = self.params.nu;
        let dt = self.params.dt;
        let batch = &self.batch;
        for blk in sc.blocks.iter_mut() {
            blk.resize(ny, LaneRow::ZERO);
        }
        let [c, b0c, b2c, v] = &mut sc.blocks;
        let (ops, start) = (&self.ops, |m: usize| m * ny);
        for (b, modes) in self.batch_modes.chunks(LANES).enumerate() {
            // omega_y: advance through the substep's Helmholtz solve
            let (hg, hg_old) = (nl.h_g.block(b), n_old.h_g.block(b));
            gather_lanes(c, &self.state.omega_y, modes, start);
            batch.advance_block(ops, i, b, c, hg, hg_old, nu, dt, b0c, b2c);
            scatter_lanes(c, &mut self.state.omega_y, modes, start);
            // phi: advance, then recover v with the influence correction
            let (hv, hv_old) = (nl.h_v.block(b), n_old.h_v.block(b));
            gather_lanes(c, &self.state.phi, modes, start);
            batch.advance_block(ops, i, b, c, hv, hv_old, nu, dt, b0c, b2c);
            batch.solve_v_block(ops, i, b, c, v);
            scatter_lanes(c, &mut self.state.phi, modes, start);
            scatter_lanes(v, &mut self.state.v, modes, start);
            // u, w recovery: dv/dy of the block, then per-mode
            // combination with omega_y
            dy_coefficients_block(ops, v, b0c);
            for (l, &m) in modes.iter().enumerate() {
                let (ikx, ikz, k2) = self.mode_wavenumbers(m);
                let (base, state) = (m * ny, &mut self.state);
                for j in 0..ny {
                    let vy = b0c[j].get(l);
                    let om = state.omega_y[base + j];
                    state.u[base + j] = (ikx * vy - ikz * om) / k2;
                    state.w[base + j] = (ikz * vy + ikx * om) / k2;
                }
            }
        }
        // two Helmholtz solves, the Poisson solve and the dv/dy
        // interpolation solve per mode, reported per stage
        batch.count_solves(3);
        ops.b0_lu().count_solves(batch.width(), 1);
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

/// Column order of the wall-normal panels over the local modes
/// (`[kz_loc][kx_loc]`, `kxlen` per row, the rows from global `kz_start`):
/// first the `(kx, |kz|)` pairs whose `+kz` and `-kz` modes are both
/// local, [`LANES`] pairs at a time — a full block of `+kz` modes, then
/// the block of their `-kz` partners, which has the same eight `k^2` and
/// so shares its factor block (and finds it in cache) — then everything
/// else in mode order: the `kz = 0` row, modes whose partner lives on
/// another rank, and the pairs left over from the last chunk.
fn batch_order(modes: &[ModeKind], kxlen: usize, kz_start: usize, nz: usize) -> Vec<usize> {
    let regular = |m: usize| matches!(modes[m], ModeKind::Batched);
    // local index of the -kz partner of local mode m, for 0 < kz < nz/2
    let partner = |m: usize| {
        let kz_g = kz_start + m / kxlen;
        let row = (nz - kz_g).checked_sub(kz_start)?;
        let twin = row * kxlen + m % kxlen;
        (0 < kz_g && kz_g < nz / 2 && twin < modes.len() && regular(m)).then_some(twin)
    };
    let pairs: Vec<(usize, usize)> = (0..modes.len())
        .filter_map(|m| Some((m, partner(m)?)))
        .collect();
    let mut order = Vec::with_capacity(modes.len());
    let mut placed = vec![false; modes.len()];
    for chunk in pairs.chunks_exact(LANES) {
        order.extend(chunk.iter().map(|p| p.0));
        order.extend(chunk.iter().map(|p| p.1));
    }
    order.iter().for_each(|&m| placed[m] = true);
    order.extend((0..modes.len()).filter(|&m| regular(m) && !placed[m]));
    order
}

/// Signed spanwise wavenumber index of FFT-ordered slot `g`.
fn signed(g: usize, nz: usize) -> i64 {
    if g < nz / 2 {
        g as i64
    } else if g == nz / 2 {
        0
    } else {
        g as i64 - nz as i64
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
            for (col, (m, ms)) in solvers.iter().enumerate() {
                let r = dns.line_range(*m);
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
                    .batch_modes
                    .iter()
                    .map(|&m| {
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
    fn paired_column_order_advances_to_the_bits_of_plain_mode_order() {
        // a column permutation only moves independent lanes, and shared
        // factor blocks hold the bits unshared ones would
        let run = |p: Params, plain: bool| {
            run_parallel(p, move |dns| {
                if plain {
                    dns.batch_modes = (0..dns.modes.len())
                        .filter(|&m| matches!(dns.modes[m], ModeKind::Batched))
                        .collect();
                    let k2: Vec<f64> = dns
                        .batch_modes
                        .iter()
                        .map(|&m| dns.mode_wavenumbers(m).2)
                        .collect();
                    dns.batch = BatchNormalSolver::new(&dns.ops, &k2, dns.params.nu, dns.params.dt);
                }
                dns.set_laminar(1.0);
                dns.add_perturbation(0.05, 13);
                for _ in 0..3 {
                    dns.step();
                }
                let s = dns.state();
                let bits: Vec<u64> = [s.u(), s.v(), s.w(), s.omega_y(), s.phi()]
                    .iter()
                    .flat_map(|f| f.iter().flat_map(|c| [c.re.to_bits(), c.im.to_bits()]))
                    .collect();
                (bits, dns.batch.blocks(), dns.batch.factor_blocks())
            })
        };
        // (nx, nz, pa, pb, factor blocks shared on every rank); pb splits
        // kz at the Nyquist slot, leaving every -kz partner remote;
        // 20 x 12 has 50 pairs on one rank: six chunks and a remainder
        for (nx, nz, pa, pb, shared) in [
            (16, 16, 1, 1, true),
            (16, 16, 2, 1, true),
            (16, 16, 1, 2, false),
            (16, 16, 2, 2, false),
            (20, 12, 1, 1, true),
        ] {
            let p = Params::channel(nx, 25, nz, 50.0)
                .with_dt(2e-3)
                .with_grid(pa, pb);
            let (paired, plain) = (run(p.clone(), false), run(p, true));
            for (rank, (a, b)) in paired.iter().zip(&plain).enumerate() {
                let case = format!("{nx}x{nz} on {pa}x{pb}, rank {rank}");
                assert!(a.0.iter().any(|&x| x != 0), "{case}: ran");
                assert!(a.0 == b.0, "{case}: trajectories differ");
                assert_eq!(a.1, b.1, "{case}: same panel blocks");
                assert_eq!(b.2, b.1, "{case}: plain mode order shares nothing");
                assert_eq!(a.2 < a.1, shared, "{case}: {} of {} shared", a.2, a.1);
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
