//! Simulation parameters.

/// How the mean flow is driven.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Forcing {
    /// Constant streamwise pressure gradient `-dP/dx` (in friction units
    /// `-dP/dx = 1` gives `u_tau = 1`).
    PressureGradient(f64),
    /// Constant mass flux: a feedback-controlled body force keeps the
    /// bulk velocity at the target (the other standard way to drive
    /// channel DNS; the friction velocity becomes an output).
    ConstantMassFlux {
        /// Target bulk (volume-averaged) streamwise velocity.
        bulk: f64,
    },
    /// No forcing (decaying flow; used by validation tests).
    None,
}

/// One round of the bijective finalizer both digests
/// ([`Params::state_hash`], `RunSpec::spec_hash`) fold their fields with.
pub(crate) fn mix(h: u64, v: u64) -> u64 {
    let mut z = h.wrapping_add(v).wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Physical and numerical configuration of a channel DNS.
#[derive(Clone, Debug, PartialEq)]
pub struct Params {
    /// Streamwise Fourier modes (multiple of 4: the 3/2-rule grid must
    /// stay even).
    pub nx: usize,
    /// Wall-normal B-spline collocation points.
    pub ny: usize,
    /// Spanwise Fourier modes (multiple of 4).
    pub nz: usize,
    /// Streamwise domain length (the paper's boxes are `O(10 pi)` long).
    pub lx: f64,
    /// Spanwise domain length.
    pub lz: f64,
    /// Kinematic viscosity. With `Forcing::PressureGradient(1.0)` and
    /// half-height 1 the friction Reynolds number is `1 / nu`.
    pub nu: f64,
    /// Time step.
    pub dt: f64,
    /// Mean-flow driving.
    pub forcing: Forcing,
    /// Spline order (8 in the paper: 7th-degree B-splines).
    pub spline_order: usize,
    /// Wall-clustering strength of the tanh breakpoint grid.
    pub grid_stretch: f64,
    /// Evaluate the nonlinear terms (false linearises about rest, used by
    /// the Stokes validation tests).
    pub nonlinear: bool,
    /// Process grid (CommA x CommB); `pa * pb` ranks are required.
    pub pa: usize,
    /// Second process-grid extent.
    pub pb: usize,
    /// On-node worker threads for the transform line loops (the paper's
    /// OpenMP threading, section 4.2). 1 = serial.
    pub fft_threads: usize,
}

impl Params {
    /// A small, fully-resolved laptop-scale configuration at friction
    /// Reynolds number `re_tau` (the paper's production run is the same
    /// code at `Re_tau = 5200` on 10240 x 1536 x 7680 modes).
    pub fn channel(nx: usize, ny: usize, nz: usize, re_tau: f64) -> Params {
        Params {
            nx,
            ny,
            nz,
            lx: 2.0 * std::f64::consts::PI,
            lz: std::f64::consts::PI,
            nu: 1.0 / re_tau,
            dt: 1e-3,
            forcing: Forcing::PressureGradient(1.0),
            spline_order: 8,
            grid_stretch: 2.0,
            nonlinear: true,
            pa: 1,
            pb: 1,
            fft_threads: 1,
        }
    }

    /// Use `n` on-node threads for the transform line loops.
    pub fn with_fft_threads(mut self, n: usize) -> Params {
        self.fft_threads = n.max(1);
        self
    }

    /// Set the time step.
    pub fn with_dt(mut self, dt: f64) -> Params {
        self.dt = dt;
        self
    }

    /// Set the process grid.
    pub fn with_grid(mut self, pa: usize, pb: usize) -> Params {
        self.pa = pa;
        self.pb = pb;
        self
    }

    /// The one list of parameter rules; `Err` names the rule broken.
    pub fn check(&self) -> Result<(), String> {
        if !self.nx.is_multiple_of(4) || !self.nz.is_multiple_of(4) {
            return Err(format!(
                "nx ({}) and nz ({}) must be multiples of 4",
                self.nx, self.nz
            ));
        }
        if self.spline_order < 4 {
            return Err(format!("spline order {} < 4", self.spline_order));
        }
        if self.ny < self.spline_order.saturating_add(2) {
            return Err(format!(
                "ny too small: {} < spline order {} + 2",
                self.ny, self.spline_order
            ));
        }
        if !(self.nu > 0.0 && self.dt > 0.0 && self.lx > 0.0 && self.lz > 0.0) {
            return Err("nu, dt, lx, lz must all be positive".into());
        }
        if self.pa == 0 || self.pb == 0 {
            return Err(format!("degenerate {}x{} process grid", self.pa, self.pb));
        }
        // the spec codec writes every count as a 32-bit integer
        let counts = [
            self.nx,
            self.ny,
            self.nz,
            self.pa,
            self.pb,
            self.fft_threads,
        ];
        if counts.iter().any(|&n| n > u32::MAX as usize) {
            return Err("modes, process grid and threads must each fit in 32 bits".into());
        }
        Ok(())
    }

    /// [`check`](Self::check) for callers that cannot go on.
    ///
    /// # Panics
    /// With the broken rule as the message.
    pub fn validate(&self) {
        if let Err(rule) = self.check() {
            panic!("{rule}");
        }
    }

    /// Pressure-gradient magnitude (0 when unforced or flux-driven —
    /// the flux controller supplies its own force).
    pub fn pressure_gradient(&self) -> f64 {
        match self.forcing {
            Forcing::PressureGradient(g) => g,
            Forcing::ConstantMassFlux { .. } | Forcing::None => 0.0,
        }
    }

    /// Fundamental streamwise wavenumber `2 pi / Lx`.
    pub fn alpha(&self) -> f64 {
        2.0 * std::f64::consts::PI / self.lx
    }

    /// Fundamental spanwise wavenumber `2 pi / Lz`.
    pub fn beta(&self) -> f64 {
        2.0 * std::f64::consts::PI / self.lz
    }

    /// Degrees of freedom as counted by the paper.
    pub fn dof(&self) -> f64 {
        2.0 * self.nx as f64 * self.ny as f64 * self.nz as f64
    }

    /// A 64-bit digest of every parameter that affects the *numerical
    /// trajectory* — grid, domain, viscosity, time step, forcing, spline
    /// basis, nonlinearity. Checkpoints store it so a restart under
    /// different physics is rejected instead of silently continuing a
    /// different simulation. Pure execution knobs (`pa`, `pb`,
    /// `fft_threads`) are excluded: the decomposition is validated
    /// separately, and results are layout-independent.
    pub fn state_hash(&self) -> u64 {
        let mut h = 0x434E_4453_0000_0000u64; // "CNDS" salt
        for v in [self.nx, self.ny, self.nz, self.spline_order] {
            h = mix(h, v as u64);
        }
        for v in [self.lx, self.lz, self.nu, self.dt, self.grid_stretch] {
            h = mix(h, v.to_bits());
        }
        let (tag, value) = match self.forcing {
            Forcing::PressureGradient(g) => (1u64, g.to_bits()),
            Forcing::ConstantMassFlux { bulk } => (2, bulk.to_bits()),
            Forcing::None => (3, 0),
        };
        h = mix(h, tag);
        h = mix(h, value);
        mix(h, self.nonlinear as u64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn channel_preset_is_valid() {
        let p = Params::channel(32, 33, 32, 180.0);
        p.validate();
        assert!((p.nu - 1.0 / 180.0).abs() < 1e-15);
        assert_eq!(p.pressure_gradient(), 1.0);
    }

    #[test]
    #[should_panic(expected = "multiples of 4")]
    fn odd_grids_rejected() {
        Params::channel(30, 33, 32, 180.0).validate();
    }

    #[test]
    fn state_hash_tracks_physics_not_layout() {
        let p = Params::channel(32, 33, 32, 180.0);
        assert_eq!(p.state_hash(), p.clone().state_hash());
        // execution knobs don't change the hash
        assert_eq!(
            p.state_hash(),
            p.clone().with_grid(2, 2).with_fft_threads(4).state_hash()
        );
        // physics does
        assert_ne!(p.state_hash(), p.clone().with_dt(2e-3).state_hash());
        assert_ne!(
            p.state_hash(),
            Params::channel(32, 33, 32, 181.0).state_hash()
        );
        let mut flux = p.clone();
        flux.forcing = Forcing::ConstantMassFlux { bulk: 1.0 };
        assert_ne!(p.state_hash(), flux.state_hash());
    }

    #[test]
    fn wavenumber_fundamentals() {
        let p = Params::channel(32, 33, 32, 180.0);
        assert!((p.alpha() - 1.0).abs() < 1e-15);
        assert!((p.beta() - 2.0).abs() < 1e-15);
    }
}
