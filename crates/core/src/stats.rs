//! Turbulence statistics (the content of the paper's figures 5 and 6) and
//! the law-of-the-wall reference curves they are compared against.
//!
//! Channel flow is statistically stationary and homogeneous in x and z,
//! so one-point statistics are functions of `y` alone and are computed as
//! plane averages directly from the spectral representation:
//! `<a'b'>(y) = sum_k w_k Re(a_k(y) conj(b_k(y)))` with `w_k = 2` for the
//! modes whose conjugate partners are not stored.

use crate::solver::ChannelDns;
use dns_banded::LaneRow;
use dns_telemetry as telemetry;

/// One-point profiles at the collocation points.
#[derive(Clone, Debug)]
pub struct Profiles {
    /// Collocation points in `[-1, 1]`.
    pub y: Vec<f64>,
    /// Mean streamwise velocity `<u>(y)`.
    pub u_mean: Vec<f64>,
    /// Streamwise velocity variance `<u'u'>`.
    pub uu: Vec<f64>,
    /// Wall-normal variance `<v'v'>`.
    pub vv: Vec<f64>,
    /// Spanwise variance `<w'w'>`.
    pub ww: Vec<f64>,
    /// Reynolds shear stress `<u'v'>`.
    pub uv: Vec<f64>,
    /// Friction velocity from the lower-wall mean shear.
    pub u_tau: f64,
    /// Friction Reynolds number `u_tau / nu` (half-height 1).
    pub re_tau: f64,
    /// Bulk (volume-averaged) streamwise velocity.
    pub bulk_velocity: f64,
}

impl Profiles {
    /// `y+` coordinate of each collocation point measured from the lower
    /// wall.
    pub fn y_plus(&self) -> Vec<f64> {
        self.y.iter().map(|&y| (1.0 + y) * self.re_tau).collect()
    }

    /// Mean velocity in wall units.
    pub fn u_plus(&self) -> Vec<f64> {
        self.u_mean
            .iter()
            .map(|&u| u / self.u_tau.max(1e-300))
            .collect()
    }

    /// Profiles out of flat sums `[u_mean | uu | vv | ww | uv]` over `y`,
    /// times `scale`, and `wall = [u_tau, re_tau, bulk_velocity]`.
    fn from_sums(y: &[f64], sums: &[f64], scale: f64, wall: [f64; 3]) -> Profiles {
        let mut rows = sums
            .chunks_exact(y.len())
            .map(|row| row.iter().map(|x| x * scale).collect::<Vec<_>>());
        let mut row = || rows.next().expect("five rows of sums");
        Profiles {
            y: y.to_vec(),
            u_mean: row(),
            uu: row(),
            vv: row(),
            ww: row(),
            uv: row(),
            u_tau: wall[0],
            re_tau: wall[1],
            bulk_velocity: wall[2],
        }
    }
}

/// One blockwise pass over the velocity state on reused buffers: the
/// wall-normal panel blocks go through `B0` (`B1` for `dv/dy`) block
/// matvecs and their regular modes fold into the plane sums lane by lane,
/// in the per-mode loop's order; the mean mode's lane gives `<u>`.
#[derive(Default)]
pub(crate) struct PlaneSweep {
    /// One-block panels: loaded coefficients, `B0 u`, `B0 v`, `B0 w`, `B1 v`.
    blocks: [Vec<LaneRow>; 5],
    /// Plane sums `[u_mean | uu | vv | ww | uv]`; `reduce` makes them the grid's.
    sums: Vec<f64>,
    /// This rank's largest `|ikx u + dv/dy + ikz w|` over modes and points.
    pub(crate) max_div: f64,
}

impl PlaneSweep {
    /// Fill this rank's plane sums and largest divergence.
    pub(crate) fn run(&mut self, dns: &ChannelDns) -> &mut Self {
        let (ops, ny, state) = (dns.ops(), dns.params().ny, dns.state());
        let sums = &mut self.sums;
        for block in &mut self.blocks {
            block.resize(ny, LaneRow::ZERO);
        }
        let [coef, u, v, w, vy] = &mut self.blocks;
        sums.clear();
        sums.resize(5 * ny, 0.0);
        let mut worst = 0.0f64;
        for (b, (kz, xb)) in dns.panel_blocks().enumerate() {
            for (field, vals) in [(state.u(), &mut *u), (state.w(), w), (state.v(), v)] {
                dns.load_block(coef, field, kz, xb);
                ops.b0().matvec_block(coef, vals);
            }
            ops.b1().matvec_block(coef, vy); // of v, loaded last
            let (first, n) = dns.block_lines(kz, xb);
            for (l, m) in (0..n)
                .map(|l| (l, first + l))
                .filter(|&(_, m)| !dns.is_mean(m))
            {
                let ((ikx, ikz, _), wt) = (dns.mode_wavenumbers(m), dns.mode_weight(m));
                for j in 0..ny {
                    let (uj, vj, wj) = (u[j].get(l), v[j].get(l), w[j].get(l));
                    sums[ny + j] += wt * uj.norm_sqr();
                    sums[2 * ny + j] += wt * vj.norm_sqr();
                    sums[3 * ny + j] += wt * wj.norm_sqr();
                    sums[4 * ny + j] += wt * (uj * vj.conj()).re;
                    worst = worst.max((ikx * uj + vy[j].get(l) + ikz * wj).norm_sqr());
                }
            }
            if dns.mean_mode() == Some(b) {
                sums.iter_mut()
                    .zip(&*u)
                    .for_each(|(sum, u)| *sum += u.re[0]);
            }
        }
        self.max_div = worst.sqrt(); // of the largest squared modulus
        self
    }

    /// Sum the plane sums over the process grid (collective).
    pub(crate) fn reduce(&mut self, dns: &ChannelDns) -> &Self {
        let sums = dns.pfft().comm_a().allreduce(&self.sums, |a, b| a + b);
        self.sums = dns.pfft().comm_b().allreduce(&sums, |a, b| a + b);
        self
    }

    /// `(1/2) int (u^2 + v^2 + w^2) dV / (Lx Lz)` of the reduced sums.
    pub(crate) fn energy(&self, dns: &ChannelDns) -> f64 {
        let (ny, s) = (dns.params().ny, &self.sums);
        let point = |j: usize| s[j] * s[j] + s[ny + j] + s[2 * ny + j] + s[3 * ny + j];
        let weights = dns.y_weights().iter().enumerate();
        weights.fold(0.0, |e, (j, wt)| e + 0.5 * wt * point(j))
    }

    /// The reduced sums as profiles, wall quantities from the mean line.
    fn profiles(&self, dns: &ChannelDns) -> Profiles {
        let (ops, nu, u_mean) = (dns.ops(), dns.params().nu, &self.sums[..dns.params().ny]);
        let dudy_wall = ops.basis().eval_deriv(&ops.interpolate(u_mean), -1.0, 1);
        let u_tau = (nu * dudy_wall.abs()).sqrt();
        let weighted = u_mean.iter().zip(dns.y_weights()).map(|(&u, &w)| u * w);
        let bulk = weighted.sum::<f64>() / 2.0;
        Profiles::from_sums(ops.points(), &self.sums, 1.0, [u_tau, u_tau / nu, bulk])
    }
}

/// Compute instantaneous profiles (collective: all ranks must call).
pub fn profiles(dns: &ChannelDns) -> Profiles {
    PlaneSweep::default().run(dns).reduce(dns).profiles(dns)
}

/// Maximum pointwise spectral divergence `|ikx u + dv/dy + ikz w|` over
/// all locally-owned modes and collocation points — the continuity
/// check; the solver's construction keeps this at rounding level.
pub fn max_divergence(dns: &ChannelDns) -> f64 {
    PlaneSweep::default().run(dns).max_div
}

/// Total kinetic energy `(1/2) int (u^2 + v^2 + w^2) dV / (Lx Lz)`
/// (collective).
pub fn kinetic_energy(dns: &ChannelDns) -> f64 {
    PlaneSweep::default().run(dns).reduce(dns).energy(dns)
}

/// `true` when every locally-owned spectral coefficient of every state
/// field is finite — the cheapest possible "has the run blown up" scan,
/// used by the run-health sentinels before trusting any derived
/// quantity. Local; combine across ranks with an `allreduce_max` on
/// `!finite as f64`.
pub fn local_finite(dns: &ChannelDns) -> bool {
    let s = dns.state();
    [s.u(), s.v(), s.w(), s.omega_y(), s.phi()]
        .into_iter()
        .flatten()
        .all(|c| c.re.is_finite() && c.im.is_finite())
}

/// Sampling policy for [`StatsAccumulator`].
///
/// ```
/// use dns_core::stats::StatsConfig;
/// let cfg = StatsConfig { every: 5, warmup: 100 };
/// assert!(!cfg.due(100)); // still warming up
/// assert!(cfg.due(105)); // first sample after warmup
/// assert!(!cfg.due(107));
/// assert!(cfg.due(110));
/// ```
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct StatsConfig {
    /// Sample the plane statistics every `every` completed steps.
    pub every: u64,
    /// Steps to discard before the first sample (transient washout).
    pub warmup: u64,
}

impl StatsConfig {
    /// Whether statistics should be sampled after completing `step`.
    pub fn due(&self, step: u64) -> bool {
        let every = self.every.max(1);
        step > self.warmup && (step - self.warmup).is_multiple_of(every)
    }
}

/// One entry of the accumulator's per-sample time series.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct HistorySample {
    /// Completed timesteps at the sample.
    pub step: u64,
    /// Simulated time at the sample.
    pub time: f64,
    /// Instantaneous friction velocity.
    pub u_tau: f64,
    /// Instantaneous friction Reynolds number.
    pub re_tau: f64,
    /// Instantaneous bulk velocity.
    pub bulk_velocity: f64,
}

/// Magic tag opening a serialized stats section (see
/// [`StatsAccumulator::encode`]); spells `"DNSSTAT1"` in LE bytes.
pub const STATS_SECTION_MAGIC: u64 = u64::from_le_bytes(*b"DNSSTAT1");

/// Time-and-plane-averaged turbulence statistics (the content of the
/// paper's figures 5-8), accumulated over a run.
///
/// Each [`sample`](Self::sample) is a *collective* call: it computes
/// [`profiles`] (which allreduces the plane sums over both communicator
/// axes), so after every sample the accumulator holds identical bits on
/// every rank — the reduction *is* the rank merge. The accumulator
/// serializes to a byte-exact section ([`encode`](Self::encode) /
/// [`decode`](Self::decode)) that the v2 checkpoint carries, so a
/// crashed-and-resumed run continues averaging exactly where it
/// stopped instead of restarting from zero.
///
/// ```
/// use dns_core::stats::{StatsAccumulator, StatsConfig};
/// use dns_core::{run_serial, Params};
///
/// let params = Params::channel(16, 25, 16, 20.0).with_dt(1e-3);
/// let acc = run_serial(params, |dns| {
///     dns.enable_stats(StatsConfig { every: 1, warmup: 1 });
///     dns.set_laminar(1.0);
///     for _ in 0..3 {
///         dns.step(); // samples itself after warmup
///     }
///     dns.stats().cloned().unwrap()
/// });
/// assert_eq!(acc.count(), 2); // steps 2 and 3
/// let mean = acc.mean().unwrap();
/// assert!((mean.u_tau - 1.0).abs() < 1e-6); // laminar balance
/// // bitwise checkpoint round trip
/// let restored = StatsAccumulator::decode(&acc.encode()).unwrap();
/// assert_eq!(restored.encode(), acc.encode());
/// ```
#[derive(Clone, Debug, PartialEq)]
pub struct StatsAccumulator {
    cfg: StatsConfig,
    n: u64,
    ny: usize,
    y: Vec<f64>,
    /// Flat sums `[u_mean | uu | vv | ww | uv]`, each `ny` long.
    sums: Vec<f64>,
    u_tau_sum: f64,
    re_tau_sum: f64,
    bulk_sum: f64,
    history: Vec<HistorySample>,
}

impl StatsAccumulator {
    /// Empty accumulator with the given sampling policy.
    pub fn new(cfg: StatsConfig) -> Self {
        Self {
            cfg,
            n: 0,
            ny: 0,
            y: Vec::new(),
            sums: Vec::new(),
            u_tau_sum: 0.0,
            re_tau_sum: 0.0,
            bulk_sum: 0.0,
            history: Vec::new(),
        }
    }

    /// The sampling policy.
    pub fn config(&self) -> StatsConfig {
        self.cfg
    }

    /// Whether the accumulator wants a sample after completing `step`.
    pub fn due(&self, step: u64) -> bool {
        self.cfg.due(step)
    }

    /// Number of accumulated samples.
    pub fn count(&self) -> u64 {
        self.n
    }

    /// Wall-normal points of the accumulated samples, or `None` before
    /// the first sample (the next one then sets the grid).
    pub(crate) fn sample_ny(&self) -> Option<usize> {
        (self.n > 0).then_some(self.ny)
    }

    /// The per-sample `(step, u_tau, Re_tau, bulk)` time series, in
    /// sampling order across all resume boundaries.
    pub fn history(&self) -> &[HistorySample] {
        &self.history
    }

    /// Take one plane-statistics sample (collective: every rank must
    /// call, and afterwards every rank holds identical accumulator
    /// bits).
    pub fn sample(&mut self, dns: &ChannelDns) {
        let p = profiles(dns);
        self.add_profiles(&p, dns.state().steps, dns.state().time);
        telemetry::count(telemetry::Counter::StatsSamples, 1);
    }

    /// Fold one already-reduced snapshot into the sums (non-collective
    /// core of [`sample`](Self::sample), also used by tests).
    pub fn add_profiles(&mut self, p: &Profiles, step: u64, time: f64) {
        let ny = p.y.len();
        if self.n == 0 {
            self.ny = ny;
            self.y = p.y.clone();
            self.sums = vec![0.0; 5 * ny];
        }
        assert_eq!(self.ny, ny, "stats sample grid changed mid-run");
        self.n += 1;
        let rows = [&p.u_mean, &p.uu, &p.vv, &p.ww, &p.uv];
        for (sum, x) in self.sums.iter_mut().zip(rows.into_iter().flatten()) {
            *sum += x;
        }
        self.u_tau_sum += p.u_tau;
        self.re_tau_sum += p.re_tau;
        self.bulk_sum += p.bulk_velocity;
        self.history.push(HistorySample {
            step,
            time,
            u_tau: p.u_tau,
            re_tau: p.re_tau,
            bulk_velocity: p.bulk_velocity,
        });
    }

    /// The time-averaged profiles, or `None` before the first sample.
    pub fn mean(&self) -> Option<Profiles> {
        let inv = 1.0 / self.n as f64;
        let wall = [self.u_tau_sum, self.re_tau_sum, self.bulk_sum].map(|sum| sum * inv);
        (self.n > 0).then(|| Profiles::from_sums(&self.y, &self.sums, inv, wall))
    }

    /// Serialize to the byte-exact stats section carried by the v2
    /// checkpoint: every `f64` as IEEE-754 bits, little-endian, so a
    /// decode/encode round trip reproduces the input byte-for-byte.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(8 * (7 + self.y.len() + self.sums.len()));
        let w64 = |v: u64, out: &mut Vec<u8>| out.extend_from_slice(&v.to_le_bytes());
        let wf = |v: f64, out: &mut Vec<u8>| out.extend_from_slice(&v.to_bits().to_le_bytes());
        w64(STATS_SECTION_MAGIC, &mut out);
        w64(self.cfg.every, &mut out);
        w64(self.cfg.warmup, &mut out);
        w64(self.n, &mut out);
        w64(self.ny as u64, &mut out);
        w64(self.history.len() as u64, &mut out);
        for &v in self.y.iter().chain(&self.sums) {
            wf(v, &mut out);
        }
        wf(self.u_tau_sum, &mut out);
        wf(self.re_tau_sum, &mut out);
        wf(self.bulk_sum, &mut out);
        for h in &self.history {
            w64(h.step, &mut out);
            wf(h.time, &mut out);
            wf(h.u_tau, &mut out);
            wf(h.re_tau, &mut out);
            wf(h.bulk_velocity, &mut out);
        }
        out
    }

    /// Decode a section produced by [`encode`](Self::encode); `None` on
    /// any structural mismatch (bad magic, truncation, trailing bytes).
    pub fn decode(bytes: &[u8]) -> Option<Self> {
        let mut pos = 0usize;
        let r64 = |bytes: &[u8], pos: &mut usize| -> Option<u64> {
            let b = bytes.get(*pos..*pos + 8)?;
            *pos += 8;
            Some(u64::from_le_bytes(b.try_into().unwrap()))
        };
        if r64(bytes, &mut pos)? != STATS_SECTION_MAGIC {
            return None;
        }
        let every = r64(bytes, &mut pos)?;
        let warmup = r64(bytes, &mut pos)?;
        let n = r64(bytes, &mut pos)?;
        let ny = usize::try_from(r64(bytes, &mut pos)?).ok()?;
        let hist_len = usize::try_from(r64(bytes, &mut pos)?).ok()?;
        if ny > (1 << 24) || hist_len > (1 << 32) {
            return None;
        }
        let expect = 8 * (6 + 6 * ny + 3 + 5 * hist_len);
        if bytes.len() != expect {
            return None;
        }
        let rf = |bytes: &[u8], pos: &mut usize| -> Option<f64> {
            Some(f64::from_bits(r64(bytes, pos)?))
        };
        let mut floats = |n: usize| {
            (0..n)
                .map(|_| rf(bytes, &mut pos))
                .collect::<Option<Vec<_>>>()
        };
        let (y, sums) = (floats(ny)?, floats(5 * ny)?);
        let u_tau_sum = rf(bytes, &mut pos)?;
        let re_tau_sum = rf(bytes, &mut pos)?;
        let bulk_sum = rf(bytes, &mut pos)?;
        let mut history = Vec::with_capacity(hist_len);
        for _ in 0..hist_len {
            let step = r64(bytes, &mut pos)?;
            history.push(HistorySample {
                step,
                time: f64::from_bits(r64(bytes, &mut pos)?),
                u_tau: f64::from_bits(r64(bytes, &mut pos)?),
                re_tau: f64::from_bits(r64(bytes, &mut pos)?),
                bulk_velocity: f64::from_bits(r64(bytes, &mut pos)?),
            });
        }
        Some(Self {
            cfg: StatsConfig { every, warmup },
            n,
            ny,
            y,
            sums,
            u_tau_sum,
            re_tau_sum,
            bulk_sum,
            history,
        })
    }
}

/// The Reichardt composite law-of-the-wall profile, the standard
/// reference shape for figure 5's mean velocity:
/// viscous sublayer `u+ = y+`, log region `u+ = ln(y+)/kappa + B`.
///
/// ```
/// use dns_core::stats::reichardt_u_plus;
/// // sublayer: u+ ≈ y+;  log region: u+ ≈ ln(y+)/0.41 + 5.2
/// assert!((reichardt_u_plus(0.5) - 0.5).abs() < 0.05);
/// assert!((reichardt_u_plus(150.0) - (150.0f64.ln() / 0.41 + 5.2)).abs() < 0.6);
/// ```
pub fn reichardt_u_plus(y_plus: f64) -> f64 {
    const KAPPA: f64 = 0.41;
    (1.0 + KAPPA * y_plus).ln() / KAPPA
        + 7.8 * (1.0 - (-y_plus / 11.0).exp() - (y_plus / 11.0) * (-y_plus / 3.0).exp())
}

/// The logarithmic law `u+ = ln(y+)/0.41 + 5.2` (overlap region).
pub fn log_law_u_plus(y_plus: f64) -> f64 {
    y_plus.ln() / 0.41 + 5.2
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::C64;

    #[test]
    fn reichardt_limits() {
        // viscous sublayer: u+ ~ y+
        for yp in [0.1, 0.5, 1.0] {
            let r = reichardt_u_plus(yp);
            assert!((r - yp).abs() < 0.12 * yp.max(0.3), "y+={yp}: {r}");
        }
        // log region: close to the log law
        for yp in [100.0, 300.0] {
            let r = reichardt_u_plus(yp);
            let l = log_law_u_plus(yp);
            assert!((r - l).abs() < 0.6, "y+={yp}: {r} vs {l}");
        }
    }

    fn toy_profiles(scale: f64) -> Profiles {
        Profiles {
            y: vec![-1.0, 0.0, 1.0],
            u_mean: vec![0.0, scale, 0.0],
            uu: vec![0.1 * scale; 3],
            vv: vec![0.02 * scale; 3],
            ww: vec![0.03 * scale; 3],
            uv: vec![-0.05 * scale; 3],
            u_tau: scale,
            re_tau: 180.0 * scale,
            bulk_velocity: 0.66 * scale,
        }
    }

    #[test]
    fn accumulator_averages_and_history() {
        let mut acc = StatsAccumulator::new(StatsConfig {
            every: 2,
            warmup: 4,
        });
        assert!(acc.mean().is_none());
        acc.add_profiles(&toy_profiles(1.0), 6, 0.6);
        acc.add_profiles(&toy_profiles(3.0), 8, 0.8);
        assert_eq!(acc.count(), 2);
        let m = acc.mean().unwrap();
        assert!((m.u_mean[1] - 2.0).abs() < 1e-15);
        assert!((m.u_tau - 2.0).abs() < 1e-15);
        assert!((m.uv[0] + 0.1).abs() < 1e-15);
        assert_eq!(acc.history().len(), 2);
        assert_eq!(acc.history()[1].step, 8);
        assert!((acc.history()[1].u_tau - 3.0).abs() < 1e-15);
    }

    #[test]
    fn accumulator_encode_decode_bitwise() {
        let mut acc = StatsAccumulator::new(StatsConfig {
            every: 3,
            warmup: 10,
        });
        acc.add_profiles(&toy_profiles(1.234567890123), 13, 1.3e-2);
        acc.add_profiles(&toy_profiles(0.987654321), 16, 1.6e-2);
        let bytes = acc.encode();
        let back = StatsAccumulator::decode(&bytes).expect("decodes");
        assert_eq!(back, acc);
        assert_eq!(back.encode(), bytes);
        // structural corruption is rejected, not misparsed
        assert!(StatsAccumulator::decode(&bytes[..bytes.len() - 1]).is_none());
        let mut bad_magic = bytes.clone();
        bad_magic[0] ^= 0xff;
        assert!(StatsAccumulator::decode(&bad_magic).is_none());
        let mut trailing = bytes.clone();
        trailing.push(0);
        assert!(StatsAccumulator::decode(&trailing).is_none());
        // empty accumulator round trips too
        let empty = StatsAccumulator::new(StatsConfig {
            every: 1,
            warmup: 0,
        });
        assert_eq!(
            StatsAccumulator::decode(&empty.encode()).unwrap().encode(),
            empty.encode()
        );
    }

    #[test]
    fn stats_config_due_schedule() {
        let cfg = StatsConfig {
            every: 5,
            warmup: 20,
        };
        assert!(!cfg.due(0));
        assert!(!cfg.due(20));
        assert!(!cfg.due(24));
        assert!(cfg.due(25));
        assert!(!cfg.due(26));
        assert!(cfg.due(30));
        // every = 0 is clamped to 1 rather than dividing by zero
        let dense = StatsConfig {
            every: 0,
            warmup: 0,
        };
        assert!(dense.due(1) && dense.due(2));
    }

    /// The mode-by-mode evaluation [`PlaneSweep::run`] replaced: three
    /// scalar `B0` matvecs per mode, folded in mode order. Returns the
    /// local plane sums `[u_mean | uu | vv | ww | uv]`.
    fn plane_sums_per_mode(dns: &ChannelDns) -> Vec<f64> {
        let ny = dns.params().ny;
        let ops = dns.ops();
        let mut acc = vec![0.0f64; 5 * ny];
        let mut vals_u = vec![C64::new(0.0, 0.0); ny];
        let mut vals_v = vec![C64::new(0.0, 0.0); ny];
        let mut vals_w = vec![C64::new(0.0, 0.0); ny];
        for m in 0..dns.local_modes() {
            if dns.is_nyquist(m) {
                continue;
            }
            let r = dns.line_range(m);
            ops.b0()
                .matvec_complex(&dns.state().u()[r.clone()], &mut vals_u);
            ops.b0()
                .matvec_complex(&dns.state().v()[r.clone()], &mut vals_v);
            ops.b0().matvec_complex(&dns.state().w()[r], &mut vals_w);
            if dns.is_mean(m) {
                for j in 0..ny {
                    acc[j] += vals_u[j].re;
                }
                continue;
            }
            let w = dns.mode_weight(m);
            for j in 0..ny {
                acc[ny + j] += w * vals_u[j].norm_sqr();
                acc[2 * ny + j] += w * vals_v[j].norm_sqr();
                acc[3 * ny + j] += w * vals_w[j].norm_sqr();
                acc[4 * ny + j] += w * (vals_u[j] * vals_v[j].conj()).re;
            }
        }
        acc
    }

    /// The per-mode divergence [`PlaneSweep::run`] replaced: `dv/dy`
    /// interpolated back to spline coefficients, then evaluated again.
    fn max_divergence_per_mode(dns: &ChannelDns) -> f64 {
        use crate::wallnormal::dy_coefficients;
        let ny = dns.params().ny;
        let ops = dns.ops();
        let mut worst = 0.0f64;
        let mut vals_u = vec![C64::new(0.0, 0.0); ny];
        let mut vals_w = vec![C64::new(0.0, 0.0); ny];
        let mut vals_vy = vec![C64::new(0.0, 0.0); ny];
        for m in 0..dns.local_modes() {
            if dns.is_nyquist(m) || dns.is_mean(m) {
                continue;
            }
            let (ikx, ikz, _) = dns.mode_wavenumbers(m);
            let r = dns.line_range(m);
            let cvy = dy_coefficients(ops, &dns.state().v()[r.clone()]);
            ops.b0()
                .matvec_complex(&dns.state().u()[r.clone()], &mut vals_u);
            ops.b0()
                .matvec_complex(&dns.state().w()[r.clone()], &mut vals_w);
            ops.b0().matvec_complex(&cvy, &mut vals_vy);
            for j in 0..ny {
                let div = ikx * vals_u[j] + vals_vy[j] + ikz * vals_w[j];
                worst = worst.max(div.norm());
            }
        }
        worst
    }

    #[test]
    fn blockwise_sweep_equals_the_per_mode_oracle() {
        use crate::params::Params;
        use crate::solver::run_parallel;
        // 1x1, a 2x2 grid, and a local kx count (nx = 20: 10) that leaves
        // the last lane block partial; stretched collocation points
        for params in [
            Params::channel(16, 25, 16, 100.0),
            Params::channel(16, 25, 16, 100.0).with_grid(2, 2),
            Params::channel(20, 25, 12, 100.0),
        ] {
            let cfg = StatsConfig {
                every: 1,
                warmup: 0,
            };
            let outs = run_parallel(params.with_dt(1e-3), move |dns| {
                dns.set_laminar(1.0);
                dns.add_perturbation(0.3, 9);
                dns.enable_stats(cfg);
                let mut oracle = StatsAccumulator::new(cfg);
                // one scratch across the steps: a reused sweep leaks nothing
                let mut sweep = PlaneSweep::default();
                for _ in 0..3 {
                    dns.step();
                    let want = plane_sums_per_mode(dns);
                    let div = sweep.run(dns).max_div;
                    let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                    assert_eq!(bits(&sweep.sums), bits(&want));
                    assert!(want[dns.params().ny..].iter().any(|&x| x != 0.0));
                    let div_want = max_divergence_per_mode(dns);
                    assert!((div - div_want).abs() < 1e-13, "{div} vs {div_want}");
                    assert_eq!(div.to_bits(), max_divergence(dns).to_bits());

                    // the oracle's route to a sample: its sums, reduced
                    sweep.sums = want;
                    sweep.reduce(dns);
                    let energy = sweep.energy(dns);
                    assert_eq!(energy.to_bits(), kinetic_energy(dns).to_bits());
                    let (p, got) = (sweep.profiles(dns), profiles(dns));
                    for (a, b) in [
                        (&p.u_mean, &got.u_mean),
                        (&p.uu, &got.uu),
                        (&p.vv, &got.vv),
                        (&p.ww, &got.ww),
                        (&p.uv, &got.uv),
                    ] {
                        assert_eq!(bits(a), bits(b));
                    }
                    assert_eq!(p.u_tau.to_bits(), got.u_tau.to_bits());
                    assert_eq!(p.bulk_velocity.to_bits(), got.bulk_velocity.to_bits());
                    oracle.add_profiles(&p, dns.state().steps, dns.state().time);
                }
                let acc = dns.stats().expect("stats on");
                assert_eq!(acc.count(), 3);
                assert_eq!(acc.encode(), oracle.encode());
                let p = profiles(dns);
                (p.u_tau, p.bulk_velocity)
            });
            assert!(outs.iter().all(|&o| o == outs[0] && o.0 > 0.0 && o.1 > 0.0));
        }
    }

    #[test]
    fn laminar_profile_statistics() {
        use crate::params::Params;
        use crate::solver::run_serial;
        // Poiseuille: u = (1-y^2)/(2 nu) * F; u_tau = sqrt(nu * |u'(-1)|)
        // with u'(-1) = 1/nu -> u_tau = 1; bulk = (2/3) u_max.
        let p = Params::channel(16, 25, 16, 20.0);
        let prof = run_serial(p, |dns| {
            dns.set_laminar(1.0);
            profiles(dns)
        });
        assert!((prof.u_tau - 1.0).abs() < 1e-8, "u_tau {}", prof.u_tau);
        assert!((prof.re_tau - 20.0).abs() < 1e-5);
        let u_max = 20.0 / 2.0;
        assert!((prof.bulk_velocity - 2.0 / 3.0 * u_max).abs() < 1e-8);
        assert!(prof.uv.iter().all(|&x| x.abs() < 1e-18));
    }
}
