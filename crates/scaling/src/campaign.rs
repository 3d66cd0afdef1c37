//! Campaign execution: probe the real stack at every configuration the
//! host can hold, harvest counts, fit the host calibration, and
//! cross-check the network model with the event simulator.

use crate::probe::{probe_pfft_cycle, probe_rk3, Probe};
use dns_core::params::Params;
use dns_netmodel::calibration::{Calibration, Observation, StepCounts, StepSeconds};
use dns_netmodel::dnscost::{self, Grid};
use dns_netmodel::eventsim::{simulate_alltoall, SimExchange};
use dns_netmodel::machines::Machine;
use dns_netmodel::network::{alltoall_time, AlltoallSpec};
use dns_telemetry::{counts_json, Counter, CountsMeta, Phase};
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
    pub seconds: StepSeconds,
    /// Measured wall seconds per step.
    pub wall_s: f64,
    /// Harvested per-step counts (summed over ranks and threads).
    pub counts: StepCounts,
    /// Filename (within the out dir) of the full counts export.
    pub counts_file: String,
}

impl Point {
    /// More busy threads than host cores: the point's timings measure
    /// the scheduler, not the kernels.
    pub fn oversubscribed(&self) -> bool {
        self.cores > dns_bench::report::nproc()
    }

    /// The point as a calibration observation.
    pub fn observation(&self) -> Observation {
        Observation {
            ranks: self.ranks,
            threads: self.threads,
            counts: self.counts,
            seconds: self.seconds,
        }
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

/// Campaign knobs.
#[derive(Clone, Debug)]
pub struct CampaignConfig {
    /// Small grids, few ranks, few steps (CI mode).
    pub smoke: bool,
    /// Overlap-region gate: every point's total-time relative model
    /// error must stay below this for `--check` to pass.
    pub bound: f64,
    /// Directory receiving BENCH_*.json and counts_*.json.
    pub out_dir: PathBuf,
}

impl CampaignConfig {
    /// Default configuration (`smoke = false`, bound 0.5, current dir).
    pub fn new() -> CampaignConfig {
        CampaignConfig {
            smoke: false,
            bound: 0.5,
            out_dir: PathBuf::from("."),
        }
    }
}

impl Default for CampaignConfig {
    fn default() -> Self {
        CampaignConfig::new()
    }
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
    pub fn modelled(&self, p: &Point) -> StepSeconds {
        self.calibration_for(p.bench).predict(&p.counts)
    }

    /// Total-time relative model error at a point.
    pub fn err_rel(&self, p: &Point) -> f64 {
        self.calibration_for(p.bench).errors(&p.observation()).total
    }

    /// The worst total-time error over all points (the `--check` gate
    /// quantity) — `(err, point index)`.
    pub fn worst_err(&self) -> (f64, usize) {
        let mut worst = (0.0, 0);
        for (i, p) in self.points.iter().enumerate() {
            let e = self.err_rel(p);
            if e > worst.0 {
                worst = (e, i);
            }
        }
        worst
    }

    /// True when every overlap point's model error is within the bound.
    pub fn check_passes(&self) -> bool {
        self.worst_err().0 <= self.cfg.bound
    }

    /// RMS calibration residual over one workload family.
    pub fn residual(&self, bench: Bench) -> f64 {
        let obs: Vec<Observation> = self
            .points
            .iter()
            .filter(|p| p.bench == bench)
            .map(|p| p.observation())
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

fn step_seconds(probe: &Probe) -> StepSeconds {
    StepSeconds {
        transpose: probe.seconds_per_step.transpose,
        fft: probe.seconds_per_step.fft,
        ns_advance: probe.seconds_per_step.ns_advance,
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
    let file = format!(
        "counts_{}_r{}_t{}.json",
        bench.label(),
        probe.ranks,
        probe.threads
    );
    std::fs::write(cfg.out_dir.join(&file), counts_json(&probe.snapshot, &meta))?;
    Ok(Point {
        bench,
        grid,
        ranks: probe.ranks,
        threads: probe.threads,
        steps: probe.steps,
        cores: probe.ranks * probe.threads,
        seconds: step_seconds(probe),
        wall_s: probe.wall_s_per_step,
        counts: per_step_counts(probe),
        counts_file: file,
    })
}

fn rk3_point(
    cfg: &CampaignConfig,
    bench: Bench,
    grid: Grid,
    ranks: usize,
    threads: usize,
    warmup: usize,
    steps: usize,
) -> std::io::Result<Point> {
    let (pa, pb) = host_grid(ranks);
    let params = Params::channel(grid.nx, grid.ny, grid.nz, 180.0)
        .with_dt(1e-4)
        .with_grid(pa, pb)
        .with_fft_threads(threads);
    let probe = probe_rk3(params, warmup, steps);
    record(cfg, bench, grid, &probe)
}

fn pfft_point(
    cfg: &CampaignConfig,
    bench: Bench,
    grid: Grid,
    ranks: usize,
    warmup: usize,
    cycles: usize,
) -> std::io::Result<Point> {
    let (pa, pb) = host_grid(ranks);
    let probe = probe_pfft_cycle(
        grid.nx,
        grid.ny,
        grid.nz,
        pa,
        pb,
        1,
        bench == Bench::PfftCustom,
        warmup,
        cycles,
    );
    record(cfg, bench, grid, &probe)
}

fn mean_ratio(pairs: &[(f64, f64)]) -> f64 {
    let valid: Vec<f64> = pairs
        .iter()
        .filter(|(m, a)| *m > 0.0 && *a > 0.0)
        .map(|(m, a)| m / a)
        .collect();
    if valid.is_empty() {
        1.0
    } else {
        valid.iter().sum::<f64>() / valid.len() as f64
    }
}

fn count_ratios(points: &[Point]) -> CountRatios {
    let mut rk3_fft = Vec::new();
    let mut rk3_ns = Vec::new();
    let mut rk3_tr = Vec::new();
    let mut pfft_fft = Vec::new();
    let mut pfft_tr = Vec::new();
    for p in points {
        if p.bench.is_rk3() {
            let w = dnscost::step_workload(&p.grid);
            rk3_fft.push((p.counts.fft_flops, w.fft_flops));
            rk3_ns.push((p.counts.ns_flops, w.ns_flops));
            rk3_tr.push((p.counts.transpose_bytes, w.transpose_bytes));
        } else {
            let w = dnscost::pfft_cycle_workload(&p.grid, p.bench == Bench::PfftCustom);
            pfft_fft.push((p.counts.fft_flops, w.fft_flops));
            pfft_tr.push((p.counts.transpose_bytes, w.transpose_bytes));
        }
    }
    CountRatios {
        rk3_fft: mean_ratio(&rk3_fft),
        rk3_ns: mean_ratio(&rk3_ns),
        rk3_transpose: mean_ratio(&rk3_tr),
        pfft_fft: mean_ratio(&pfft_fft),
        pfft_transpose: mean_ratio(&pfft_tr),
    }
}

/// Cross-check the closed-form all-to-all model against the
/// discrete-event simulator for the paper's Table 9 Mira grid at
/// moderate rank counts (the simulator generates one event per message,
/// so paper-scale rank counts are out of reach by design).
fn eventsim_checks(cores_list: &[usize]) -> Vec<EventsimCheck> {
    let m = Machine::mira();
    let g = Grid {
        nx: 18432,
        ny: 1536,
        nz: 12288,
    };
    cores_list
        .iter()
        .map(|&cores| {
            let (pa, pb) = dnscost::choose_grid(cores, m.cores_per_node);
            let e_a = (g.sx() * g.pz() * g.ny) as f64 / cores as f64;
            let spec = AlltoallSpec {
                comm_size: pa,
                msg_bytes: 16.0 * e_a / pa as f64,
                rank_stride: pb,
                tasks_per_node: m.cores_per_node,
                total_ranks: cores,
            };
            let analytic = alltoall_time(&m, &spec).total();
            let sim = simulate_alltoall(
                &m,
                &SimExchange {
                    comm_size: spec.comm_size,
                    msg_bytes: spec.msg_bytes,
                    rank_stride: spec.rank_stride,
                    tasks_per_node: spec.tasks_per_node,
                    total_ranks: spec.total_ranks,
                },
            );
            EventsimCheck {
                cores,
                comm_size: pa,
                analytic_s: analytic,
                sim_s: sim,
            }
        })
        .collect()
}

/// Run the full campaign: probe every configuration, archive the counts
/// exports, fit the host calibrations, and run the eventsim
/// cross-checks. Prints one progress line per probe on stderr.
pub fn run(cfg: CampaignConfig) -> std::io::Result<Campaign> {
    std::fs::create_dir_all(&cfg.out_dir)?;
    let (rank_sweep, strong, pfft_grid, warmup, steps, cycles, hybrid_threads): (
        &[usize],
        Grid,
        Grid,
        usize,
        usize,
        usize,
        usize,
    ) = if cfg.smoke {
        (
            &[1, 2, 4],
            Grid {
                nx: 32,
                ny: 33,
                nz: 32,
            },
            Grid {
                nx: 32,
                ny: 17,
                nz: 32,
            },
            1,
            2,
            3,
            2,
        )
    } else {
        (
            &[1, 2, 4, 8],
            Grid {
                nx: 48,
                ny: 49,
                nz: 48,
            },
            Grid {
                nx: 64,
                ny: 33,
                nz: 64,
            },
            1,
            3,
            5,
            4,
        )
    };

    let mut points = Vec::new();
    for &r in rank_sweep {
        eprintln!("[dns-scaling] rk3 strong: {} ranks", r);
        points.push(rk3_point(
            &cfg,
            Bench::Rk3Strong,
            strong,
            r,
            1,
            warmup,
            steps,
        )?);
    }
    for &r in rank_sweep {
        let g = Grid {
            nx: 16 * r,
            ny: 17,
            nz: 16,
        };
        eprintln!("[dns-scaling] rk3 weak: {} ranks, nx {}", r, g.nx);
        points.push(rk3_point(&cfg, Bench::Rk3Weak, g, r, 1, warmup, steps)?);
    }
    eprintln!(
        "[dns-scaling] rk3 hybrid: 1 rank x {} threads",
        hybrid_threads
    );
    points.push(rk3_point(
        &cfg,
        Bench::Rk3Hybrid,
        strong,
        1,
        hybrid_threads,
        warmup,
        steps,
    )?);
    for &r in rank_sweep {
        eprintln!("[dns-scaling] pfft customized: {} ranks", r);
        points.push(pfft_point(
            &cfg,
            Bench::PfftCustom,
            pfft_grid,
            r,
            warmup,
            cycles,
        )?);
    }
    for &r in rank_sweep {
        eprintln!("[dns-scaling] pfft p3dfft baseline: {} ranks", r);
        points.push(pfft_point(
            &cfg,
            Bench::PfftBaseline,
            pfft_grid,
            r,
            warmup,
            cycles,
        )?);
    }

    let rk3_obs: Vec<Observation> = points
        .iter()
        .filter(|p| p.bench.is_rk3())
        .map(|p| p.observation())
        .collect();
    let pfft_obs: Vec<Observation> = points
        .iter()
        .filter(|p| !p.bench.is_rk3())
        .map(|p| p.observation())
        .collect();
    let cal_rk3 = Calibration::fit(&rk3_obs).expect("rk3 campaign produced no usable counts");
    let cal_pfft = Calibration::fit(&pfft_obs).expect("pfft campaign produced no usable counts");
    let ratios = count_ratios(&points);

    let sim_cores: &[usize] = if cfg.smoke {
        &[512, 1024]
    } else {
        &[512, 1024, 2048]
    };
    let eventsim = eventsim_checks(sim_cores);

    Ok(Campaign {
        cfg,
        points,
        cal_rk3,
        cal_pfft,
        ratios,
        eventsim,
    })
}
