//! The `box_*` workloads: the production `run::execute` path on the
//! 48x49x48 reference channel (`Params::channel` box: Lx = 2 pi, Ly = 2,
//! Lz = pi; Re_tau 180, dt 5e-4), observed through `RunObserver` only.

use std::path::{Path, PathBuf};
use std::sync::{Arc, Barrier, Mutex};
use std::time::{Duration, Instant};

use dns_core::health::MonitorConfig;
use dns_core::run::{
    self, InitialCondition, RunConfig, RunControl, RunObserver, RunOutcome, RunSpec, RunStatus,
    RunSummary, StepCtx,
};
use dns_core::solver::PhaseTimers;
use dns_core::stats::{self, StatsConfig};
use dns_core::{ChannelDns, Params};
use dns_minimpi::FaultPlan;
use dns_telemetry as telemetry;
use telemetry::Level;

use crate::probes::{self, Fence, Findings};
use crate::report::Report;
use crate::spans::{Recorder, SpanId};
use crate::stats::{classed_fast, fast, median, percentile, summarize};
use crate::traced::{self, telemetry_on, TOGGLE_BLOCK};
use crate::{alloc, host, Args};

/// Untimed steps at the head of the measured launch (plans, scratch and
/// thread pools reach their steady state).
const WARMUP: u64 = 4;
/// Launches whose `execute()` -> `on_start` time is sampled for `setup_s`:
/// the short ones, the measured one, and set-up-only ones for the rest,
/// half of them on either side of the timed window.
const SETUP_LAUNCHES: usize = 12;
/// Short launches ahead of the measured one (window sizing, digests).
const SHORT_LAUNCHES: usize = 2;
/// Steps of each short launch: the first pays for cold caches, the other
/// two size the timed window.
const SHORT_STEPS: u64 = 3;
const STATS_EVERY: u64 = TOGGLE_BLOCK;
const CKPT_EVERY: u64 = 30;

#[derive(Clone, Copy)]
pub struct BoxCase {
    pub name: &'static str,
    /// Ranks: a `pa x 1` grid (CommA split).
    pub pa: usize,
    pub threads: usize,
    /// Switch on what a production job does: statistics, health
    /// monitoring with a flight recorder, periodic and final checkpoints.
    pub prod: bool,
}

const fn case(name: &'static str, pa: usize, threads: usize, prod: bool) -> BoxCase {
    BoxCase {
        name,
        pa,
        threads,
        prod,
    }
}

/// `CASES[0]` is the plain baseline the others are checked against.
pub const CASES: [BoxCase; 4] = [
    case("box_1x1", 1, 1, false),
    case("box_2x1", 2, 1, false),
    case("box_1x1_t2", 1, 2, false),
    case("box_prod", 1, 1, true),
];

impl BoxCase {
    pub fn cores(&self) -> usize {
        self.pa * self.threads
    }

    /// Cost class of the loop iteration that ends with absolute step
    /// `step`: 0 plain, 1 the step samples statistics, 2 the iteration
    /// opens with the previous step's checkpoint write.
    fn iteration_class(&self, step: u64) -> usize {
        if !self.prod {
            0
        } else if step.is_multiple_of(STATS_EVERY) {
            1
        } else if (step - 1).is_multiple_of(CKPT_EVERY) {
            2
        } else {
            0
        }
    }

    fn is_baseline(&self) -> bool {
        self.name == CASES[0].name
    }

    fn spec(&self, seed: u64, steps: u64) -> RunSpec {
        RunSpec {
            name: self.name.into(),
            params: Params::channel(48, 49, 48, 180.0)
                .with_dt(5e-4)
                .with_grid(self.pa, 1)
                .with_fft_threads(self.threads),
            steps,
            ckpt_every: if self.prod { CKPT_EVERY } else { 0 },
            ic: InitialCondition::Turbulent {
                amplitude: 0.5,
                seed,
            },
        }
    }

    fn config(&self, dir: &Path) -> RunConfig {
        RunConfig {
            health: self.prod.then(|| MonitorConfig {
                log: Some(dir.join("health.jsonl")),
                ..MonitorConfig::default()
            }),
            stats: self.prod.then_some(StatsConfig {
                every: STATS_EVERY,
                warmup: 0,
            }),
            final_checkpoint: self.prod,
            ..RunConfig::in_dir(dir)
        }
    }
}

/// What the traced launch asks of its observer beyond keeping clocks.
struct Traced {
    /// Directory for the probes' own checkpoint files.
    scratch: PathBuf,
    seed: u64,
    /// The open `execute` span the probes' spans hang under.
    span: SpanId,
}

#[derive(Default)]
struct Seen {
    /// `execute()` call -> `on_start`, max over ranks.
    setup_s: f64,
    /// `[rank][step - 1]` wall seconds of `dns.step()`.
    walls: Vec<Vec<f64>>,
    /// Root's clock after each completed step.
    stamps: Vec<Instant>,
    /// Root's solver phase timers at the start and end of the timed
    /// window.
    timers: [PhaseTimers; 2],
    /// The process allocation counter at root's clock readings.
    allocs: Vec<(u64, u64)>,
    energy: f64,
    divergence: f64,
    finite: bool,
    stats_samples: u64,
    /// `[rank]` digest of the final state bits.
    digest: Vec<u64>,
    /// Planner's exchange pick for this launch (traced launch only).
    strategy: f64,
    findings: Findings,
}

struct Observer {
    t_call: Instant,
    /// Set for a set-up-only launch: root cancels the run from `on_start`,
    /// so the world winds down at its first step boundary.
    cancel_at_start: Option<Arc<RunControl>>,
    spec: RunSpec,
    /// First timed step is `warm + 1`.
    warm: u64,
    traced: Option<Traced>,
    /// Where the rank threads meet to flip the program's telemetry.
    ranks: Barrier,
    rec: Arc<Recorder>,
    seen: Mutex<Seen>,
}

fn state_digest(dns: &ChannelDns) -> u64 {
    let s = dns.state();
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for field in [s.u(), s.v(), s.w(), s.omega_y(), s.phi()] {
        for c in field {
            for bits in [c.re.to_bits(), c.im.to_bits()] {
                h = (h ^ bits).wrapping_mul(0x0000_0100_0000_01B3);
            }
        }
    }
    h
}

impl Observer {
    fn seen(&self) -> std::sync::MutexGuard<'_, Seen> {
        self.seen.lock().expect("observer state poisoned")
    }

    fn fence<'a>(&'a self, dns: &'a ChannelDns) -> Fence<'a> {
        Fence {
            pfft: dns.pfft(),
            rec: &self.rec,
            parent: self.traced.as_ref().map(|t| t.span),
        }
    }

    fn n_ranks(&self) -> usize {
        self.spec.params.pa * self.spec.params.pb
    }

    fn grid_rank(&self, dns: &ChannelDns) -> usize {
        dns.pfft().comm_a().rank() * self.spec.params.pb + dns.pfft().comm_b().rank()
    }

    /// Whether the program's telemetry records during absolute step
    /// `step` of the traced launch.
    fn records_during(&self, step: u64) -> bool {
        self.traced.is_some()
            && step > self.warm
            && step <= self.spec.steps
            && telemetry_on(step - self.warm)
    }
}

impl RunObserver for Observer {
    fn on_start(&self, dns: &ChannelDns, _resumed_from: Option<u64>, _attempt: usize) {
        let dt = self.t_call.elapsed().as_secs_f64();
        if let Some(control) = self
            .cancel_at_start
            .as_ref()
            .filter(|_| self.grid_rank(dns) == 0)
        {
            control.request_cancel();
        }
        {
            let mut seen = self.seen();
            seen.setup_s = seen.setup_s.max(dt);
        }
        if self.traced.is_some() {
            let strategy = traced::close_setup(&self.ranks, self.n_ranks());
            let mut seen = self.seen();
            seen.strategy = seen.strategy.max(strategy);
        }
    }

    fn on_step(&self, dns: &ChannelDns, ctx: StepCtx) {
        let now = Instant::now();
        {
            let mut seen = self.seen();
            let rank = self.grid_rank(dns);
            seen.walls[rank].push(ctx.wall_s);
            if ctx.root {
                seen.stamps.push(now);
                seen.allocs.push(alloc::snapshot());
                for (slot, at) in [(0, self.warm), (1, self.spec.steps)] {
                    if ctx.step == at {
                        seen.timers[slot] = dns.timers();
                    }
                }
            }
        }
        let next = self.records_during(ctx.step + 1);
        if next != self.records_during(ctx.step) {
            traced::switch(&self.ranks, next);
        }
    }

    fn on_finish(&self, dns: &ChannelDns, _summary: RunSummary) {
        let f = self.fence(dns);
        // collectives first, on every rank
        let energy = stats::kinetic_energy(dns);
        let divergence = f.grid_max(stats::max_divergence(dns));
        let finite = f.grid_max(f64::from(!stats::local_finite(dns))) == 0.0;
        {
            let mut seen = self.seen();
            let rank = self.grid_rank(dns);
            seen.digest[rank] = state_digest(dns);
            if f.root() {
                seen.energy = energy;
                seen.divergence = divergence;
                seen.finite = finite;
                seen.stats_samples = dns.stats().map_or(0, |a| a.count());
            }
        }
        if let Some(t) = &self.traced {
            let found = probes::live_solver(&f, dns, &self.spec, &t.scratch, t.seed);
            if f.root() {
                self.seen().findings = found;
            }
        }
    }
}

struct Launch {
    outcome: RunOutcome,
    seen: Seen,
    /// When `execute()` was called.
    t_call: Instant,
}

/// How far a launch goes.
enum Extent {
    /// `warm` untimed steps, then the rest timed.
    Steps { warm: u64 },
    /// Cancelled from `on_start`: set-up and nothing else.
    SetupOnly,
}

fn launch(
    spec: &RunSpec,
    cfg: &RunConfig,
    extent: Extent,
    traced: Option<Traced>,
    rec: &Arc<Recorder>,
) -> Launch {
    let ranks = spec.params.pa * spec.params.pb;
    let steps = spec.steps as usize;
    let control = Arc::new(RunControl::new());
    let (warm, cancel_at_start) = match extent {
        Extent::Steps { warm } => (warm, None),
        Extent::SetupOnly => (0, Some(Arc::clone(&control))),
    };
    let observer = Arc::new(Observer {
        t_call: Instant::now(),
        cancel_at_start,
        spec: spec.clone(),
        warm,
        traced,
        ranks: Barrier::new(ranks),
        rec: Arc::clone(rec),
        seen: Mutex::new(Seen {
            // reserved up front: the observer must not allocate inside
            // the window whose allocations it counts
            walls: (0..ranks).map(|_| Vec::with_capacity(steps)).collect(),
            stamps: Vec::with_capacity(steps),
            allocs: Vec::with_capacity(steps),
            digest: vec![0; ranks],
            ..Seen::default()
        }),
    });
    let t_call = observer.t_call;
    let outcome = run::execute(
        spec,
        cfg,
        control,
        Arc::clone(&observer) as Arc<dyn RunObserver>,
        |_| FaultPlan::none(),
    );
    let observer = Arc::into_inner(observer).expect("the run dropped its observer handle");
    Launch {
        outcome,
        seen: observer.seen.into_inner().expect("observer state poisoned"),
        t_call,
    }
}

fn short_launch(
    case: BoxCase,
    seed: u64,
    steps: u64,
    cfg: &RunConfig,
    rec: &Arc<Recorder>,
) -> Launch {
    launch(
        &case.spec(seed, steps),
        cfg,
        Extent::Steps { warm: 0 },
        None,
        rec,
    )
}

/// `execute()` -> `on_start` of one more launch that stops there.
fn setup_only(
    case: BoxCase,
    seed: u64,
    tmp: &Path,
    rec: &Arc<Recorder>,
    report: &mut Report,
) -> f64 {
    let dir = fresh_dir(tmp, "setup");
    let spec = case.spec(seed, SHORT_STEPS);
    let l = launch(&spec, &case.config(&dir), Extent::SetupOnly, None, rec);
    report.check(
        l.outcome.status == RunStatus::Cancelled && l.outcome.steps_done == 0,
        || {
            format!(
                "set-up-only launch: status {:?} after {} steps",
                l.outcome.status, l.outcome.steps_done
            )
        },
    );
    l.seen.setup_s
}

/// Per-step wall seconds, max over ranks, of steps `from + 1 ..`.
fn step_walls(seen: &Seen, from: u64) -> Vec<f64> {
    let n = seen.walls.iter().map(Vec::len).min().unwrap_or(0);
    (from as usize..n)
        .map(|i| seen.walls.iter().map(|w| w[i]).fold(0.0, f64::max))
        .collect()
}

fn fresh_dir(base: &Path, name: &str) -> PathBuf {
    let dir = base.join(name);
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create run directory");
    dir
}

fn check_launch(report: &mut Report, what: &str, l: &Launch, steps: u64) {
    report.check(
        l.outcome.status == RunStatus::Done && l.outcome.steps_done == steps,
        || {
            format!(
                "{what}: status {:?} after {} of {steps} steps",
                l.outcome.status, l.outcome.steps_done
            )
        },
    );
    report.check(l.seen.divergence < 1e-8 && l.seen.finite, || {
        format!(
            "{what}: divergence {:e}, finite {}",
            l.seen.divergence, l.seen.finite
        )
    });
}

/// What a production job leaves behind, beyond finishing.
fn check_prod_artifacts(report: &mut Report, dir: &Path, l: &Launch, steps: u64) {
    report.check(dir.join("state.latest").exists(), || {
        "box_prod: no committed checkpoint generation".into()
    });
    let log_lines =
        std::fs::read_to_string(dir.join("health.jsonl")).map_or(0, |t| t.lines().count() as u64);
    report.check(log_lines >= steps, || {
        format!("box_prod: flight recorder has {log_lines} lines for {steps} steps")
    });
    report.check(l.seen.stats_samples == steps / STATS_EVERY, || {
        format!(
            "box_prod: {} statistics samples in {steps} steps",
            l.seen.stats_samples
        )
    });
}

/// Timed steps that fit `seconds`, given one loop iteration's estimate
/// (0 when the short launches failed): whole multiples of `multiple_of`,
/// at least one.
fn timed_steps(seconds: f64, per_step: f64, multiple_of: u64) -> u64 {
    let n = if per_step > 0.0 {
        (seconds / per_step) as u64
    } else {
        0
    };
    (n.min(100_000) / multiple_of).max(1) * multiple_of
}

/// Findings of the short launches that precede the measured one.
struct Shorts {
    setups: Vec<f64>,
    /// Mean loop iteration after a launch's first: sizes the timed window
    /// for the host as it is now, so a run ends on time on a busy host too.
    per_step: f64,
    digest: Vec<u64>,
    energy: f64,
}

/// `count` short launches of the workload's own configuration: set-up
/// samples, the window-sizing estimate, and the check that the same seed
/// ends in the same state bits every time.
fn short_launches(
    case: BoxCase,
    args: &Args,
    tmp: &Path,
    rec: &Arc<Recorder>,
    report: &mut Report,
    count: usize,
) -> Shorts {
    let mut s = Shorts {
        setups: Vec::new(),
        per_step: 0.0,
        digest: Vec::new(),
        energy: 0.0,
    };
    for i in 0..count {
        let dir = fresh_dir(tmp, "short");
        let l = short_launch(case, args.seed, SHORT_STEPS, &case.config(&dir), rec);
        check_launch(report, "short launch", &l, SHORT_STEPS);
        s.setups.push(l.seen.setup_s);
        if let [first, .., last] = l.seen.stamps[..] {
            let later = (last - first).as_secs_f64() / (SHORT_STEPS - 1) as f64;
            s.per_step += later / count as f64;
        }
        if i > 0 {
            report.check(s.digest == l.seen.digest, || {
                "same seed, different final state bits between two launches".into()
            });
        }
        s.digest = l.seen.digest;
        s.energy = l.seen.energy;
    }
    s
}

/// Every other box workload must land on the kinetic energy of the plain
/// single-rank, single-thread, overhead-free run of the same spec.
fn check_against_baseline(
    case: BoxCase,
    energy: f64,
    args: &Args,
    tmp: &Path,
    rec: &Arc<Recorder>,
    report: &mut Report,
) {
    if case.is_baseline() {
        return;
    }
    let dir = fresh_dir(tmp, "reference");
    let l = short_launch(
        CASES[0],
        args.seed,
        SHORT_STEPS,
        &CASES[0].config(&dir),
        rec,
    );
    check_launch(report, "reference launch", &l, SHORT_STEPS);
    let reference = l.seen.energy;
    let rel = ((energy - reference) / reference).abs();
    report.check(rel < 1e-8, || {
        format!(
            "{}: kinetic energy {energy:e} vs box_1x1 {reference:e} (rel {rel:e})",
            case.name
        )
    });
}

pub fn run(case: BoxCase, args: &Args, tmp: &Path, rec: &Arc<Recorder>, report: &mut Report) {
    telemetry::set_level(Level::Off);
    telemetry::reset();
    if report.is_trace() {
        traced(case, args, tmp, rec, report);
    } else {
        end_to_end(case, args, tmp, rec, report);
    }
}

fn end_to_end(case: BoxCase, args: &Args, tmp: &Path, rec: &Arc<Recorder>, report: &mut Report) {
    let shorts = short_launches(case, args, tmp, rec, report, SHORT_LAUNCHES);
    check_against_baseline(case, shorts.energy, args, tmp, rec, report);
    // half of the set-up samples before the window, half after it: two
    // moments of the host, so one busy spell does not colour them all
    let mut setups = shorts.setups;
    while setups.len() < SETUP_LAUNCHES / 2 {
        setups.push(setup_only(case, args.seed, tmp, rec, report));
    }

    // a production window holds whole checkpoint periods
    let period = if case.prod { CKPT_EVERY } else { 1 };
    let n = timed_steps(args.window_s(), shorts.per_step, period);
    let steps = WARMUP + n;
    let dir = fresh_dir(tmp, "main");
    let l = launch(
        &case.spec(args.seed, steps),
        &case.config(&dir),
        Extent::Steps { warm: WARMUP },
        None,
        rec,
    );
    check_launch(report, "timed launch", &l, steps);
    if case.prod {
        check_prod_artifacts(report, &dir, &l, steps);
    }
    setups.push(l.seen.setup_s);
    while setups.len() < SETUP_LAUNCHES {
        setups.push(setup_only(case, args.seed, tmp, rec, report));
    }

    let walls = step_walls(&l.seen, WARMUP);
    report.ops(
        n,
        n.saturating_sub(walls.len() as u64),
        "timed steps not completed",
    );
    // timed sample `i` is absolute step `WARMUP + 1 + i`
    let class_of = |i: usize| case.iteration_class(WARMUP + 1 + i as u64);
    let s = summarize(&walls);
    report.set_n("op_s", classed_fast(&walls, class_of), s.n);
    report.extra("op_median_s", s.median, "s");
    if let Some((p, v)) = s.tail {
        report.extra(format!("op_p{p}_s"), v, "s");
    }
    let stamps = &l.seen.stamps;
    if stamps.len() as u64 == steps {
        let iterations: Vec<f64> = (WARMUP as usize..stamps.len())
            .map(|i| (stamps[i] - stamps[i - 1]).as_secs_f64())
            .collect();
        report.set_n(
            "wall_per_op_s",
            classed_fast(&iterations, class_of),
            iterations.len(),
        );
        let window = stamps[steps as usize - 1] - stamps[WARMUP as usize - 1];
        report.extra("wall_per_op_mean_s", window.as_secs_f64() / n as f64, "s");
    }
    report.set_n("setup_s", fast(&setups), setups.len());
    report.extra("setup_median_s", median(&setups), "s");
    report.set("peak_rss_mb", host::peak_rss_mb());
}

fn traced(case: BoxCase, args: &Args, tmp: &Path, rec: &Arc<Recorder>, report: &mut Report) {
    // tracing must not perturb results: the same short run with the
    // program's telemetry off and on ends in the same state bits
    let off = short_launches(case, args, tmp, rec, report, 1);
    telemetry::set_level(Level::Phases);
    let on = short_launches(case, args, tmp, rec, report, 1);
    telemetry::set_level(Level::Off);
    report.check(off.digest == on.digest, || {
        "final state bits differ between telemetry Off and Phases".into()
    });
    check_against_baseline(case, off.energy, args, tmp, rec, report);

    // stepping takes half of the budget, the probes on the live solver
    // the rest
    let n = timed_steps(0.5 * args.seconds, off.per_step, 2 * TOGGLE_BLOCK);
    let steps = WARMUP + n;
    let dir = fresh_dir(tmp, "main");
    let exec = rec.begin("execute", rec.run());
    let probes = Traced {
        scratch: dir.clone(),
        seed: args.seed,
        span: exec,
    };
    telemetry::reset();
    // set-up plans the transposes: record it, `on_start` reads the pick
    telemetry::set_level(Level::Phases);
    let l = launch(
        &case.spec(args.seed, steps),
        &case.config(&dir),
        Extent::Steps { warm: WARMUP },
        Some(probes),
        rec,
    );
    rec.end(exec);
    telemetry::set_level(Level::Off);
    check_launch(report, "traced launch", &l, steps);
    if case.prod {
        check_prod_artifacts(report, &dir, &l, steps);
    }
    let (snap, snap_s) = rec.time(
        "probe.telemetry.snapshot_us",
        rec.run(),
        telemetry::snapshot,
    );
    report.set("telemetry.snapshot_us", snap_s * 1e6);
    report.set("pencil.strategy", l.seen.strategy);

    let walls = step_walls(&l.seen, WARMUP);
    report.ops(
        n,
        n.saturating_sub(walls.len() as u64),
        "timed steps not completed",
    );
    let (on_walls, off_walls) = traced::split(&walls);
    traced::counters_per_step(report, &snap, on_walls.len());
    let step_s = median(&off_walls);
    let overhead = median(&on_walls) / step_s - 1.0;
    report.set_n("telemetry.overhead_frac", overhead, on_walls.len());
    report.set_n("core.step_p90_s", percentile(&walls, 90.0), walls.len());
    report.extra("step_s.telemetry_off", step_s, "s");

    // the solver's own phase clocks over the window, root rank
    let [t0, t1] = l.seen.timers;
    let root_walls = &l.seen.walls[0];
    let window_s: f64 = root_walls[WARMUP as usize..].iter().sum();
    let (tr, fft, ns) = (
        t1.transpose - t0.transpose,
        t1.fft - t0.fft,
        t1.ns_advance - t0.ns_advance,
    );
    report.set("pfft.timers.transpose_s_per_step", tr / n as f64);
    report.set("pfft.timers.fft_s_per_step", fft / n as f64);
    report.set("core.timers.ns_advance_s_per_step", ns / n as f64);
    let residual = traced::unattributed_frac(window_s, &[tr, fft, ns]);
    report.set("core.step.unattributed_frac", residual);
    // heap traffic of one steady-state loop iteration, on the steps the
    // program's telemetry (which buffers its records on the heap) is off
    let a = &l.seen.allocs;
    let iterations = (WARMUP as usize..a.len()).filter(|&i| !telemetry_on(i as u64 + 1 - WARMUP));
    let (counts, bytes): (Vec<f64>, Vec<f64>) = iterations
        .map(|i| ((a[i].0 - a[i - 1].0) as f64, (a[i].1 - a[i - 1].1) as f64))
        .unzip();
    report.set_n("core.step.allocs", median(&counts), counts.len());
    report.set_n("core.step.alloc_bytes", median(&bytes), bytes.len());

    // loop iteration minus the step itself, on steps that follow no
    // checkpoint: health monitor, verdict broadcast, observer
    let stamps = &l.seen.stamps;
    let between: Vec<f64> = (WARMUP as usize..stamps.len())
        .filter(|&i| !(case.prod && (i as u64).is_multiple_of(CKPT_EVERY)))
        .map(|i| (stamps[i] - stamps[i - 1]).as_secs_f64() - root_walls[i])
        .collect();
    report.set_n(
        "core.health.between_steps_s",
        median(&between),
        between.len(),
    );

    for (name, v) in &l.seen.findings {
        report.set(name, *v);
    }
    let nl = report.get("core.nonlinear_s").unwrap_or(0.0);
    let products = report.get("pfft.nonlinear_products_s").unwrap_or(0.0);
    report.set("core.nonlinear.self_s", nl - products);
    let stats_share = if case.prod {
        report.get("core.stats.sample_s").unwrap_or(0.0) / STATS_EVERY as f64
    } else {
        0.0
    };
    report.set("core.advance_s", step_s - 3.0 * nl - stats_share);

    // `run` -> `execute` -> `setup`, `step[i]`, `between_steps[i]` for
    // the traced launch, from the clocks the observer kept
    let t0 = l.t_call;
    let mut prev = t0 + Duration::from_secs_f64(l.seen.setup_s);
    rec.record("setup", Some(exec), t0, prev);
    for (i, (&stamp, &wall)) in stamps.iter().zip(root_walls).enumerate() {
        let start = stamp - Duration::from_secs_f64(wall);
        rec.record(format!("between_steps[{i}]"), Some(exec), prev, start);
        rec.record(format!("step[{i}]"), Some(exec), start, stamp);
        prev = stamp;
    }
}
