//! Per-layer probes: stopwatch spans around calls into each layer's
//! public functions, made on the live solver (or transform) of a traced
//! run so shapes, communicators and thread pools are the workload's own.
//!
//! Every rank of the run calls every probe (they contain collectives);
//! each measurement is barrier-fenced, repeated, reduced to its median
//! and then to the maximum over ranks. Only the grid root records spans.

use std::path::Path;
use std::time::Instant;

use dns_banded::{BatchedFactor, CornerBanded, RhsPanel};
use dns_core::nonlinear::{self, NlTerms, NlWorkspace};
use dns_core::run::RunSpec;
use dns_core::stats::{StatsAccumulator, StatsConfig};
use dns_core::wallnormal::BatchNormalSolver;
use dns_core::{checkpoint, rk3, ChannelDns};
use dns_fft::{CfftPlan, Direction, RealLayout, RfftPlan};
use dns_minimpi::Communicator;
use dns_pencil::{RowsPlacement, TransposePlan};
use dns_pfft::{ParallelFft, Workspace, NL_FIELDS};
use num_complex::Complex64 as C64;

use crate::spans::{Recorder, SpanId};
use crate::stats::median;

/// Repetitions of a fenced measurement (the issue's floor is 7).
const REPS: usize = 7;
/// Repetitions of the probes that rebuild plans or whole solvers.
const REPS_HEAVY: usize = 3;

pub type Findings = Vec<(&'static str, f64)>;

/// splitmix64: deterministic probe inputs of magnitude ~1.
pub struct Rng(pub u64);

impl Rng {
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
    /// Uniform in `[-1, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 52) as f64 - 1.0
    }
    pub fn c64(&mut self) -> C64 {
        C64::new(self.unit(), self.unit())
    }
}

/// The fencing protocol shared by every probe of one run.
pub struct Fence<'a> {
    pub pfft: &'a ParallelFft,
    pub rec: &'a Recorder,
    pub parent: Option<SpanId>,
}

impl Fence<'_> {
    pub fn root(&self) -> bool {
        self.pfft.comm_a().rank() == 0 && self.pfft.comm_b().rank() == 0
    }

    pub fn barrier(&self) {
        self.pfft.comm_b().barrier();
        self.pfft.comm_a().barrier();
    }

    pub fn grid_max(&self, x: f64) -> f64 {
        let x = self.pfft.comm_a().allreduce_max(x);
        self.pfft.comm_b().allreduce_max(x)
    }

    /// The communicator spanning every rank of the run. All benchmark
    /// grids are `p x 1` or `1 x p`, so one of the two sub-communicators
    /// is the world.
    pub fn world(&self) -> Communicator {
        let cfg = self.pfft.config();
        assert!(cfg.pa == 1 || cfg.pb == 1, "benchmark grids are 1-D");
        if cfg.pb == 1 {
            self.pfft.comm_a().dup()
        } else {
            self.pfft.comm_b().dup()
        }
    }

    /// Median over `reps` fenced calls of `f` (seconds), max over ranks.
    /// `prepare` runs outside the clock before each call.
    pub fn timed_with<S>(
        &self,
        name: &str,
        reps: usize,
        mut prepare: impl FnMut() -> S,
        mut f: impl FnMut(S),
    ) -> f64 {
        let span_start = Instant::now();
        let mut xs = Vec::with_capacity(reps);
        for _ in 0..reps {
            let input = prepare();
            self.barrier();
            let t0 = Instant::now();
            f(input);
            xs.push(t0.elapsed().as_secs_f64());
        }
        if self.root() {
            self.rec.record(
                format!("probe.{name}"),
                self.parent,
                span_start,
                Instant::now(),
            );
        }
        self.grid_max(median(&xs))
    }

    pub fn timed(&self, name: &str, reps: usize, mut f: impl FnMut()) -> f64 {
        self.timed_with(name, reps, || (), |()| f())
    }
}

/// fft: one real line pair (forward + inverse) in x and one complex line
/// in z at the workload's padded lengths.
pub fn fft_lines(fence: &Fence, seed: u64) -> Findings {
    const LINES: usize = 512;
    let cfg = fence.pfft.config();
    let mut rng = Rng(seed);
    let rplan = RfftPlan::new(cfg.px(), RealLayout::WithNyquist);
    let mut scratch = rplan.make_scratch();
    let mut real: Vec<f64> = (0..cfg.px()).map(|_| rng.unit()).collect();
    let mut spec = vec![C64::new(0.0, 0.0); rplan.spectrum_len()];
    let rfft = fence.timed("fft.rfft_line_ns", REPS, || {
        for _ in 0..LINES {
            rplan.forward(&real, &mut spec, &mut scratch);
            rplan.inverse(&spec, &mut real, &mut scratch);
        }
        std::hint::black_box(&real);
    });
    let cplan = CfftPlan::new(cfg.pz(), Direction::Forward);
    let mut cscratch = cplan.make_scratch();
    let mut lines: Vec<C64> = (0..LINES * cfg.pz()).map(|_| rng.c64()).collect();
    let cfft = fence.timed("fft.cfft_line_ns", REPS, || {
        cplan.execute_many(&mut lines, &mut cscratch);
        std::hint::black_box(&lines);
    });
    vec![
        ("fft.rfft_line_ns", rfft / LINES as f64 * 1e9),
        ("fft.cfft_line_ns", cfft / LINES as f64 * 1e9),
    ]
}

/// pencil + minimpi: the two single-field transposes of the transform at
/// the workload's shapes on the live CommA / CommB, and a bare alltoall at
/// the per-peer message size of the multi-rank one.
pub fn transposes(fence: &Fence, seed: u64) -> Findings {
    let p = fence.pfft;
    let cfg = p.config();
    let mut rng = Rng(seed ^ 0x7A);
    let mut run = |name: &str, comm: &Communicator, plan: &TransposePlan| {
        let input: Vec<C64> = (0..plan.input_len()).map(|_| rng.c64()).collect();
        let (mut send, mut out) = (Vec::new(), Vec::new());
        plan.run_with(comm, &input, &mut send, &mut out);
        fence.timed(name, REPS, || {
            plan.run_with(comm, &input, &mut send, &mut out)
        })
    };
    let plan_a = TransposePlan::plan(
        p.comm_a(),
        p.y_block().len,
        cfg.pz(),
        cfg.sx(),
        RowsPlacement::Outer,
    );
    let a = run("pencil.transpose_a_s", p.comm_a(), &plan_a);
    let plan_b = TransposePlan::plan(
        p.comm_b(),
        p.kx_block().len,
        cfg.ny,
        cfg.nz,
        RowsPlacement::Middle,
    );
    let b = run("pencil.transpose_b_s", p.comm_b(), &plan_b);

    let (comm, plan) = if cfg.pa > 1 {
        (p.comm_a(), &plan_a)
    } else {
        (p.comm_b(), &plan_b)
    };
    let per_peer = plan.input_len() / comm.size();
    let alltoall = fence.timed_with(
        "minimpi.alltoall_s",
        REPS,
        || vec![vec![C64::new(1.0, 0.0); per_peer]; comm.size()],
        |send| {
            std::hint::black_box(comm.alltoall(send));
        },
    );
    vec![
        ("pencil.transpose_a_s", a),
        ("pencil.transpose_b_s", b),
        ("minimpi.alltoall_s", alltoall),
    ]
}

/// pfft: the fused nonlinear-product pipeline (3 calls per RK3 step), the
/// unfused forward+inverse cycle, planning, and the buffer footprint.
pub fn pfft_layer(fence: &Fence, seed: u64) -> Findings {
    let p = fence.pfft;
    let mut rng = Rng(seed ^ 0x9F);
    let uvw: Vec<C64> = (0..NL_FIELDS * p.y_pencil_len())
        .map(|_| rng.c64())
        .collect();
    let (mut out, mut ws) = (Vec::new(), Workspace::new());
    p.nonlinear_products(&uvw, &mut out, &mut ws);
    let products = fence.timed("pfft.nonlinear_products_s", REPS, || {
        p.nonlinear_products(&uvw, &mut out, &mut ws)
    });
    let x: Vec<f64> = (0..p.x_pencil_len()).map(|_| rng.unit()).collect();
    let cycle = fence.timed("pfft.cycle_s", REPS, || {
        std::hint::black_box(p.cycle(&x));
    });
    let plan = fence.timed_with(
        "pfft.plan_s",
        REPS_HEAVY,
        || fence.world(),
        |world| {
            std::hint::black_box(ParallelFft::new(world, *p.config()));
        },
    );
    vec![
        ("pfft.nonlinear_products_s", products),
        ("pfft.cycle_s", cycle),
        ("pfft.plan_s", plan),
        ("pfft.buffer_bytes", p.buffer_bytes() as f64),
    ]
}

fn fill_panel(p: &mut RhsPanel, rng: &mut Rng) {
    for r in 0..p.width() {
        for j in 0..p.n() {
            p.set(j, r, rng.c64());
        }
    }
}

/// banded + core::wallnormal: one multi-RHS panel solve and one full
/// implicit panel advance over this rank's normal modes.
fn wall_normal(fence: &Fence, dns: &ChannelDns, seed: u64) -> Findings {
    let ops = dns.ops();
    let (n, nu, dt) = (ops.n(), dns.params().nu, dns.params().dt);
    let k2s: Vec<f64> = (0..dns.local_modes())
        .filter(|&m| !dns.is_mean(m) && !dns.is_nyquist(m))
        .map(|m| dns.mode_wavenumbers(m).2)
        .collect();
    let width = k2s.len();
    let mut rng = Rng(seed ^ 0x3C);

    // the substep-0 Helmholtz operators, as `ModeSolver::new` builds them
    let c = rk3::BETA[0] * nu * dt;
    let mats: Vec<CornerBanded> = k2s
        .iter()
        .map(|&k2| {
            let mut m = ops.combine(1.0 + c * k2, 0.0, -c);
            ops.set_boundary_row(&mut m, 0, -1.0, 0);
            ops.set_boundary_row(&mut m, n - 1, 1.0, 0);
            m
        })
        .collect();
    let factor = BatchedFactor::factor(mats).expect("Helmholtz operators are nonsingular");
    let mut rhs = RhsPanel::new(n, width);
    fill_panel(&mut rhs, &mut rng);
    let solve = fence.timed_with(
        "banded.solve_panel_s",
        REPS,
        || rhs.clone(),
        |mut p| {
            factor.solve_panel(&mut p);
            std::hint::black_box(&p);
        },
    );

    let solver = BatchNormalSolver::new(ops, &k2s, nu, dt);
    let (mut n_new, mut n_old) = (RhsPanel::new(n, width), RhsPanel::new(n, width));
    fill_panel(&mut n_new, &mut rng);
    fill_panel(&mut n_old, &mut rng);
    let (mut b0c, mut b2c) = (RhsPanel::new(n, width), RhsPanel::new(n, width));
    let advance = fence.timed_with(
        "core.wallnormal.advance_panel_s",
        REPS,
        || rhs.clone(),
        |mut c| {
            solver.advance_panel(ops, 0, &mut c, &n_new, &n_old, nu, dt, &mut b0c, &mut b2c);
            std::hint::black_box(&c);
        },
    );
    vec![
        ("banded.solve_panel_s", solve),
        ("core.wallnormal.advance_panel_s", advance),
    ]
}

fn dir_bytes(dir: &Path) -> u64 {
    std::fs::read_dir(dir)
        .map(|rd| {
            rd.flatten()
                .filter_map(|e| e.metadata().ok())
                .filter(|m| m.is_file())
                .map(|m| m.len())
                .sum()
        })
        .unwrap_or(0)
}

/// Every solver-level probe, on the live solver of a finished run.
/// `scratch` is a directory of this run's own for checkpoint files.
pub fn live_solver(
    fence: &Fence,
    dns: &ChannelDns,
    spec: &RunSpec,
    scratch: &Path,
    seed: u64,
) -> Findings {
    let mut found = fft_lines(fence, seed);
    found.extend(transposes(fence, seed));
    found.extend(pfft_layer(fence, seed));
    found.extend(wall_normal(fence, dns, seed));

    let (mut out, mut ws) = (NlTerms::default(), NlWorkspace::default());
    nonlinear::compute_into(dns, &mut out, &mut ws);
    let nl = fence.timed("core.nonlinear_s", REPS, || {
        nonlinear::compute_into(dns, &mut out, &mut ws)
    });
    found.push(("core.nonlinear_s", nl));

    let mut acc = StatsAccumulator::new(StatsConfig {
        every: 1,
        warmup: 0,
    });
    let sample = fence.timed("core.stats.sample_s", REPS, || acc.sample(dns));
    found.push(("core.stats.sample_s", sample));

    let ckpt_dir = scratch.join("probe-ckpt");
    if fence.root() {
        std::fs::create_dir_all(&ckpt_dir).expect("create probe checkpoint dir");
    }
    fence.barrier();
    let stem = ckpt_dir.join("state");
    let write = fence.timed("core.checkpoint.write_s", REPS_HEAVY, || {
        checkpoint::save_with_manifest(dns, &stem).expect("probe checkpoint");
    });
    fence.barrier();
    found.push(("core.checkpoint.write_s", write));
    // every repetition rewrites the same generation, so the directory
    // holds exactly one
    found.push(("core.checkpoint.bytes", dir_bytes(&ckpt_dir) as f64));

    let mut fresh = ChannelDns::new(fence.world(), dns.params().clone());
    let restore = fence.timed("core.checkpoint.restore_s", REPS_HEAVY, || {
        checkpoint::load_latest(&mut fresh, &stem).expect("restore the probe checkpoint");
    });
    found.push(("core.checkpoint.restore_s", restore));

    let new = fence.timed_with(
        "core.solver.new_s",
        REPS_HEAVY,
        || fence.world(),
        |world| {
            std::hint::black_box(ChannelDns::new(world, dns.params().clone()));
        },
    );
    found.push(("core.solver.new_s", new));

    const ROUND_TRIPS: usize = 200;
    let rt = fence.timed("core.run.spec_roundtrip_us", REPS, || {
        for _ in 0..ROUND_TRIPS {
            let back = RunSpec::from_json(&spec.to_json()).expect("spec round-trips");
            std::hint::black_box(back);
        }
    });
    found.push(("core.run.spec_roundtrip_us", rt / ROUND_TRIPS as f64 * 1e6));
    found
}
