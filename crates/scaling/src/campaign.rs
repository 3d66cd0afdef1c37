//! Campaign execution: probe the real stack at every configuration the
//! host can hold, harvest counts, fit the host calibration, and
//! cross-check the network model with the event simulator.

use crate::model::calibration::Calibration;
use crate::model::dnscost::{self, Grid, StepCounts};
use crate::model::eventsim::simulate_alltoall;
use crate::model::machines::Machine;
use crate::model::network::{alltoall_time, comm_pair};
use crate::paper;
use crate::probe::{
    probe_fusion, probe_pfft_cycle, probe_reorder, probe_rk3, probe_split_sweep, probe_table1,
    FusionRow, Probe, Table1,
};
use crate::report::nproc;
use dns_core::params::Params;
use dns_telemetry::{counts_json, Counter, CountsMeta, Phase, PhaseSeconds};
use std::path::PathBuf;

/// Which workload family a campaign point belongs to.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Bench {
    /// Full RK3 step, fixed grid, rank sweep (strong-scaling analogue).
    Rk3Strong,
    /// Full RK3 step, grid growing with ranks (weak-scaling analogue).
    Rk3Weak,
    /// Full RK3 step, one rank, threaded FFT (hybrid-mode analogue).
    Rk3Hybrid,
    /// pfft forward+inverse cycle, customized kernel.
    PfftCustom,
    /// pfft forward+inverse cycle, P3DFFT-style baseline.
    PfftBaseline,
}

impl Bench {
    /// Stable label used in counts filenames and JSON rows.
    pub fn label(self) -> &'static str {
        match self {
            Bench::Rk3Strong => "rk3_strong",
            Bench::Rk3Weak => "rk3_weak",
            Bench::Rk3Hybrid => "rk3_hybrid",
            Bench::PfftCustom => "pfft_custom",
            Bench::PfftBaseline => "pfft_baseline",
        }
    }

    /// True for the RK3 families (which exercise the N-S advance).
    pub fn is_rk3(self) -> bool {
        matches!(self, Bench::Rk3Strong | Bench::Rk3Weak | Bench::Rk3Hybrid)
    }
}

/// One measured campaign point: a workload run at one configuration,
/// with its per-step counts (summed over ranks), per-step phase seconds
/// (max over ranks), and the counts-export file it was archived to.
#[derive(Clone, Debug)]
pub struct Point {
    /// Workload family.
    pub bench: Bench,
    /// Spectral grid the point ran.
    pub grid: Grid,
    /// minimpi ranks.
    pub ranks: usize,
    /// FFT threads per rank.
    pub threads: usize,
    /// Timed steps (or cycles).
    pub steps: usize,
    /// Host "cores" the point stands in for (`ranks * threads`).
    pub cores: usize,
    /// Measured per-step phase seconds (critical path over ranks).
    pub seconds: PhaseSeconds,
    /// Measured wall seconds per step.
    pub wall_s: f64,
    /// Harvested per-step counts (summed over ranks and threads).
    pub counts: StepCounts,
    /// Filename (within the out dir) of the full counts export.
    pub counts_file: String,
}

impl Point {
    /// `rk3_strong_r2_t1`: family, ranks, threads — unique in a campaign.
    pub fn name(&self) -> String {
        format!("{}_r{}_t{}", self.bench.label(), self.ranks, self.threads)
    }

    /// More busy threads than host cores: the point's timings measure
    /// the scheduler, not the kernels. Such a point keeps its exact
    /// counts (they feed [`CountRatios`]) and drops its timings: it is
    /// neither fitted nor gated.
    pub fn oversubscribed(&self) -> bool {
        self.cores > nproc()
    }

    /// The point's measured `(counts, seconds)` pair, as calibration reads it.
    fn measured(&self) -> (StepCounts, PhaseSeconds) {
        (self.counts, self.seconds)
    }
}

/// Measured-vs-analytic count ratios: how the harvested counters relate
/// to [`dnscost::step_workload`] / [`dnscost::pfft_cycle_workload`].
/// These feed the extrapolations, so the paper-scale predictions are
/// driven by what the kernels actually did, not what the closed-form
/// accounting says they should have done.
#[derive(Clone, Copy, Debug)]
pub struct CountRatios {
    /// RK3 FFT flops, measured / analytic.
    pub rk3_fft: f64,
    /// RK3 N-S-advance flops, measured / analytic.
    pub rk3_ns: f64,
    /// RK3 transpose DRAM bytes, measured / analytic.
    pub rk3_transpose: f64,
    /// pfft-cycle FFT flops, measured / analytic.
    pub pfft_fft: f64,
    /// pfft-cycle transpose DRAM bytes, measured / analytic.
    pub pfft_transpose: f64,
}

/// One eventsim cross-check row: the closed-form all-to-all model vs
/// the discrete-event simulator at a moderate core count.
#[derive(Clone, Copy, Debug)]
pub struct EventsimCheck {
    /// Ranks of the simulated exchange (MPI mode, one rank per core).
    pub cores: usize,
    /// CommA width of the simulated exchange.
    pub comm_size: usize,
    /// Closed-form model seconds.
    pub analytic_s: f64,
    /// Discrete-event simulator seconds.
    pub sim_s: f64,
}

/// Overlap-region gate: every gated point's total-time relative model
/// error must stay within this for `--check` to pass.
pub const BOUND: f64 = 0.5;

/// Campaign knobs.
#[derive(Clone, Debug)]
pub struct CampaignConfig {
    /// Small grids, few ranks, few steps (CI mode).
    pub smoke: bool,
    /// Directory receiving BENCH_*.json and counts_*.json.
    pub out_dir: PathBuf,
}

/// Everything a campaign produced: the measured points, the fitted host
/// calibrations, the count ratios for extrapolation, and the eventsim
/// cross-checks.
pub struct Campaign {
    /// Configuration the campaign ran with.
    pub cfg: CampaignConfig,
    /// All measured points.
    pub points: Vec<Point>,
    /// Host calibration fitted from the RK3 points.
    pub cal_rk3: Calibration,
    /// Host calibration fitted from the pfft points.
    pub cal_pfft: Calibration,
    /// Measured-vs-analytic count ratios.
    pub ratios: CountRatios,
    /// Event-simulator cross-checks of the network model.
    pub eventsim: Vec<EventsimCheck>,
    /// Table 1's host rows; its bandwidth-15 corner solve is Table 2's.
    pub table1: Table1,
    /// The fusion ablation's grid.
    pub fusion_grid: Grid,
    /// The fusion ablation, one row per thread count.
    pub fusion: Vec<FusionRow>,
    /// Table 4's host rows: `(kernel, shape, seconds)` of the on-node
    /// reorders at the strong grid.
    pub reorder: Vec<(&'static str, [usize; 3], f64)>,
    /// Table 5's host rows: `(CommA, CommB, seconds)` of the functional
    /// sweep.
    pub splits: Vec<(usize, usize, f64)>,
    /// Table 5's event-simulated cycle seconds, one list per
    /// [`split_sweeps`] entry in its row order.
    pub split_sim: Vec<Vec<f64>>,
}

impl Campaign {
    /// The calibration that applies to a point's family.
    pub fn calibration_for(&self, bench: Bench) -> &Calibration {
        if bench.is_rk3() {
            &self.cal_rk3
        } else {
            &self.cal_pfft
        }
    }

    /// Modelled per-step seconds for a point, predicted from its own
    /// measured counts by the fitted host calibration.
    pub fn modelled(&self, p: &Point) -> PhaseSeconds {
        self.calibration_for(p.bench).predict(&p.counts)
    }

    /// Total-time relative model error at a point.
    pub fn err_rel(&self, p: &Point) -> f64 {
        self.calibration_for(p.bench).err_rel(&p.counts, &p.seconds)
    }

    /// The worst total-time error over the gated points (`cores <=
    /// nproc`; the `--check` gate quantity) — `(err, point index)`.
    pub fn worst_err(&self) -> (f64, usize) {
        let mut worst = (0.0, 0);
        for (i, p) in self.points.iter().enumerate() {
            let e = self.err_rel(p);
            if !p.oversubscribed() && e > worst.0 {
                worst = (e, i);
            }
        }
        worst
    }

    /// Families whose every point is oversubscribed on this host: the
    /// gate has nothing to say about them, which is a failure, not a pass.
    pub fn ungated_families(&self) -> Vec<Bench> {
        // points come family by family
        let mut ungated: Vec<Bench> = self.points.iter().map(|p| p.bench).collect();
        ungated.dedup();
        ungated.retain(|&b| self.family(b).iter().all(|p| p.oversubscribed()));
        ungated
    }

    /// True when every family has a gated point and every gated point's
    /// model error is within [`BOUND`].
    pub fn check_passes(&self) -> bool {
        self.ungated_families().is_empty() && self.worst_err().0 <= BOUND
    }

    /// RMS calibration residual over one family's gated points.
    pub fn residual(&self, bench: Bench) -> f64 {
        let obs: Vec<_> = self
            .points
            .iter()
            .filter(|p| p.bench == bench && !p.oversubscribed())
            .map(Point::measured)
            .collect();
        self.calibration_for(bench).residual(&obs)
    }

    /// Points of one family, in campaign order.
    pub fn family(&self, bench: Bench) -> Vec<&Point> {
        self.points.iter().filter(|p| p.bench == bench).collect()
    }
}

/// `(pa, pb)` factorisation used for a host rank count.
fn host_grid(ranks: usize) -> (usize, usize) {
    match ranks {
        1 => (1, 1),
        2 => (2, 1),
        4 => (2, 2),
        8 => (4, 2),
        _ => (ranks, 1),
    }
}

fn per_step_counts(probe: &Probe) -> StepCounts {
    let by = probe.snapshot.total_counters_by_phase();
    let n = probe.steps as f64;
    StepCounts {
        fft_flops: by[Phase::Fft as usize].get(Counter::Flops) as f64 / n,
        ns_flops: by[Phase::NsAdvance as usize].get(Counter::Flops) as f64 / n,
        transpose_bytes: by[Phase::Transpose as usize].get(Counter::DdrBytes) as f64 / n,
    }
}

/// Archive a probe's counts export and build its campaign [`Point`].
fn record(cfg: &CampaignConfig, bench: Bench, grid: Grid, probe: &Probe) -> std::io::Result<Point> {
    let meta = CountsMeta {
        bench: bench.label().to_string(),
        nx: grid.nx,
        ny: grid.ny,
        nz: grid.nz,
        ranks: probe.ranks,
        threads: probe.threads,
        steps: probe.steps,
    };
    let mut point = Point {
        bench,
        grid,
        ranks: probe.ranks,
        threads: probe.threads,
        steps: probe.steps,
        cores: probe.ranks * probe.threads,
        seconds: probe.seconds_per_step,
        wall_s: probe.wall_s_per_step,
        counts: per_step_counts(probe),
        counts_file: String::new(),
    };
    point.counts_file = format!("counts_{}.json", point.name());
    let export = counts_json(&probe.snapshot, &meta);
    std::fs::write(cfg.out_dir.join(&point.counts_file), export)?;
    Ok(point)
}

/// One RK3 campaign point on the host grid for `ranks`.
fn rk3_point(
    cfg: &CampaignConfig,
    bench: Bench,
    grid: Grid,
    (ranks, threads): (usize, usize),
    (warmup, steps): (usize, usize),
) -> std::io::Result<Point> {
    let (pa, pb) = host_grid(ranks);
    let params = Params::channel(grid.nx, grid.ny, grid.nz, 180.0)
        .with_dt(1e-4)
        .with_grid(pa, pb)
        .with_fft_threads(threads);
    let probe = probe_rk3(params, warmup, steps);
    record(cfg, bench, grid, &probe)
}

/// One single-threaded pfft-cycle campaign point on the host grid for
/// `ranks`.
fn pfft_point(
    cfg: &CampaignConfig,
    bench: Bench,
    g: Grid,
    ranks: usize,
    (warmup, cycles): (usize, usize),
) -> std::io::Result<Point> {
    let (pa, pb) = host_grid(ranks);
    let custom = bench == Bench::PfftCustom;
    let probe = probe_pfft_cycle(g.nx, g.ny, g.nz, pa, pb, 1, custom, warmup, cycles);
    record(cfg, bench, g, &probe)
}

/// Per count, the mean over a family's points of measured / analytic
/// (pairs with a zero side are skipped; no pair at all reads 1).
fn count_ratios(points: &[Point]) -> CountRatios {
    let mean = |rk3: bool, count: fn(&StepCounts) -> f64| {
        let family = points.iter().filter(|p| p.bench.is_rk3() == rk3);
        let ratios: Vec<f64> = family
            .filter_map(|p| {
                let analytic = if rk3 {
                    dnscost::step_workload(&p.grid)
                } else {
                    dnscost::pfft_cycle_workload(&p.grid, p.bench == Bench::PfftCustom)
                };
                let (m, a) = (count(&p.counts), count(&analytic));
                (m > 0.0 && a > 0.0).then(|| m / a)
            })
            .collect();
        if ratios.is_empty() {
            1.0
        } else {
            ratios.iter().sum::<f64>() / ratios.len() as f64
        }
    };
    CountRatios {
        rk3_fft: mean(true, |c| c.fft_flops),
        rk3_ns: mean(true, |c| c.ns_flops),
        rk3_transpose: mean(true, |c| c.transpose_bytes),
        pfft_fft: mean(false, |c| c.fft_flops),
        pfft_transpose: mean(false, |c| c.transpose_bytes),
    }
}

/// A [`Grid`] from its three sizes.
pub const fn grid(nx: usize, ny: usize, nz: usize) -> Grid {
    Grid { nx, ny, nz }
}

/// The Table 9 grid on Mira (also Tables 7, 8, 11 and section 7).
pub const MIRA_GRID: Grid = grid(18432, 1536, 12288);

/// Cross-check the closed-form all-to-all model against the
/// discrete-event simulator for the paper's Table 9 Mira grid at
/// moderate rank counts (the simulator generates one event per message,
/// so paper-scale rank counts are out of reach by design).
fn eventsim_checks(cores_list: &[usize]) -> Vec<EventsimCheck> {
    let (m, g) = (Machine::mira(), MIRA_GRID);
    let check = |&cores: &usize| {
        let (pa, pb) = dnscost::choose_grid(cores, m.cores_per_node);
        // the CommA exchange of the padded z<->x transpose
        let e_a = (g.sx() * g.pz() * g.ny) as f64 / cores as f64;
        let [comm_a, _] = comm_pair(pa, pb, [e_a; 2], m.cores_per_node, cores);
        EventsimCheck {
            cores,
            comm_size: pa,
            analytic_s: alltoall_time(&m, &comm_a).total(),
            sim_s: simulate_alltoall(&m, &comm_a),
        }
    };
    cores_list.iter().map(check).collect()
}

/// One Table 5 sweep: section name, machine, grid, cores, and the
/// paper's `(CommA, CommB, seconds)` rows.
pub type SplitSweep = (
    &'static str,
    Machine,
    Grid,
    usize,
    &'static [(usize, usize, f64)],
);

/// Table 5's two communicator-split sweeps.
pub fn split_sweeps() -> [SplitSweep; 2] {
    let (mira, lonestar) = (grid(2048, 1024, 1024), grid(1536, 384, 1024));
    [
        ("mira", Machine::mira(), mira, 8192, paper::TABLE5_MIRA),
        (
            "lonestar",
            Machine::lonestar(),
            lonestar,
            384,
            paper::TABLE5_LONESTAR,
        ),
    ]
}

/// Event-simulated transpose cycle (2 CommA + 2 CommB exchanges of
/// `elems` complex values per rank) — the message-level cross-check of
/// the analytic model's ordering over the splits.
fn des_cycle(m: &Machine, pa: usize, pb: usize, elems: f64, total: usize) -> f64 {
    let [a, b] = comm_pair(pa, pb, [elems; 2], m.cores_per_node, total);
    2.0 * (simulate_alltoall(m, &a) + simulate_alltoall(m, &b))
}

/// The sizes of one campaign mode.
struct Sizes {
    /// Rank counts of the RK3 and pfft sweeps.
    ranks: &'static [usize],
    /// RK3 strong grid (also Tables 3 and 4's), pfft grid.
    strong: Grid,
    pfft: Grid,
    /// `(warmup, timed)` RK3 steps, pfft cycles.
    steps: (usize, usize),
    cycles: (usize, usize),
    /// FFT threads of the hybrid point, at most the host's cores.
    hybrid_threads: usize,
    /// Rank counts of the eventsim cross-checks.
    sim_cores: &'static [usize],
    /// Calls a kernel probe takes the fastest of.
    reps: usize,
    /// Table 1: batched-sweep sizes and widths, `(ny, width)` set-ups.
    sweep_sizes: &'static [usize],
    sweep_widths: &'static [usize],
    setups: &'static [(usize, usize)],
    /// The fusion ablation: grid, thread counts, calls per timing.
    fusion: (Grid, &'static [usize], usize),
}

/// CI-sized: seconds, not minutes, but the same code paths.
const SMOKE: Sizes = Sizes {
    ranks: &[1, 2, 4],
    strong: grid(32, 33, 32),
    pfft: grid(32, 17, 32),
    steps: (1, 2),
    cycles: (1, 3),
    hybrid_threads: 2,
    sim_cores: &[512, 1024],
    reps: 20,
    sweep_sizes: &[128],
    sweep_widths: &[1, 8, 32],
    setups: &[(25, 119)],
    fusion: (grid(32, 33, 32), &[1, 2], 10),
};

const FULL: Sizes = Sizes {
    ranks: &[1, 2, 4, 8],
    strong: grid(48, 49, 48),
    pfft: grid(64, 33, 64),
    steps: (1, 3),
    cycles: (1, 5),
    hybrid_threads: 4,
    sim_cores: &[512, 1024, 2048],
    reps: 200,
    sweep_sizes: &[256, 1024],
    sweep_widths: &[1, 2, 4, 8, 16, 32, 64],
    // the 48 x 49 x 48 reference box, and a taller channel
    setups: &[(49, 1127), (129, 1127)],
    fusion: (grid(128, 129, 128), &[1, 2, 4], 3),
};

/// Run the full campaign: probe every configuration, archive the counts
/// exports, fit the host calibrations, run the eventsim cross-checks and
/// the host kernel probes. Prints one progress line per probe on stderr.
pub fn run(cfg: CampaignConfig) -> std::io::Result<Campaign> {
    std::fs::create_dir_all(&cfg.out_dir)?;
    let s = if cfg.smoke { &SMOKE } else { &FULL };
    let (strong, steps) = (s.strong, s.steps);

    let mut points = Vec::new();
    for &r in s.ranks {
        eprintln!("[dns-scaling] rk3 strong: {r} ranks");
        points.push(rk3_point(&cfg, Bench::Rk3Strong, strong, (r, 1), steps)?);
    }
    for &r in s.ranks {
        let g = grid(16 * r, 17, 16);
        eprintln!("[dns-scaling] rk3 weak: {r} ranks, nx {}", g.nx);
        points.push(rk3_point(&cfg, Bench::Rk3Weak, g, (r, 1), steps)?);
    }
    let hybrid = (1, s.hybrid_threads.min(nproc()));
    eprintln!("[dns-scaling] rk3 hybrid: 1 rank x {} threads", hybrid.1);
    points.push(rk3_point(&cfg, Bench::Rk3Hybrid, strong, hybrid, steps)?);
    for (bench, kernel) in [
        (Bench::PfftCustom, "customized"),
        (Bench::PfftBaseline, "p3dfft baseline"),
    ] {
        for &r in s.ranks {
            eprintln!("[dns-scaling] pfft {kernel}: {r} ranks");
            points.push(pfft_point(&cfg, bench, s.pfft, r, s.cycles)?);
        }
    }

    // oversubscribed timings measure the scheduler: they are not fitted
    let fit = |rk3: bool| {
        let gated = points.iter().filter(|p| !p.oversubscribed());
        let family = gated.filter(|p| p.bench.is_rk3() == rk3);
        Calibration::fit(&family.map(Point::measured).collect::<Vec<_>>())
    };
    let cal_rk3 = fit(true).expect("rk3 campaign produced no usable counts");
    let cal_pfft = fit(false).expect("pfft campaign produced no usable counts");
    let ratios = count_ratios(&points);
    let eventsim = eventsim_checks(s.sim_cores);

    eprintln!("[dns-scaling] host kernels: banded solvers, reorders, split sweep, fusion");
    let table1 = probe_table1(s.sweep_sizes, s.sweep_widths, s.setups, s.reps);
    let reorder = probe_reorder(strong, s.reps);
    let splits = probe_split_sweep(s.reps);
    let (fusion_grid, threads, fusion_reps) = s.fusion;
    let fusion = probe_fusion(fusion_grid, threads, fusion_reps);
    eprintln!("[dns-scaling] eventsim: Table 5 split sweeps");
    let sweep_sim = |(_, m, g, cores, rows): &SplitSweep| {
        let elems = (g.sx() * g.nz * g.ny) as f64 / *cores as f64;
        let sim = |&(pa, pb, _): &(usize, usize, f64)| des_cycle(m, pa, pb, elems, *cores);
        rows.iter().map(sim).collect()
    };
    let split_sim = split_sweeps().iter().map(sweep_sim).collect();

    Ok(Campaign {
        cfg,
        points,
        cal_rk3,
        cal_pfft,
        ratios,
        eventsim,
        table1,
        reorder,
        splits,
        split_sim,
        fusion_grid,
        fusion,
    })
}
