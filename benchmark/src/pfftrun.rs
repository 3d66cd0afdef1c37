//! The `pfft_1x2` workload: the bare transform layer through its unfused
//! `forward` / `inverse` entry (the paper's Table 6 protocol) on a CommB
//! split — transposes dominate, no banded solve or N-S work exists.

use std::sync::{Arc, Barrier};
use std::time::Instant;

use dns_pfft::{ParallelFft, PfftConfig};
use dns_telemetry as telemetry;
use telemetry::Level;

use crate::probes::{self, Fence, Findings, Rng};
use crate::report::Report;
use crate::spans::Recorder;
use crate::stats::{fast, median, percentile, summarize};
use crate::traced::{self, telemetry_on, TOGGLE_BLOCK};
use crate::{alloc, host, Args};

pub const RANKS: usize = 2;
const WARMUP: usize = 3;
/// `ParallelFft::new` takes milliseconds, so many samples are cheap.
const SETUP_LAUNCHES: usize = 21;

fn config() -> PfftConfig {
    PfftConfig::customized(96, 97, 96, 1, RANKS).with_dealias()
}

/// What one rank of the measured world brings back.
struct RankOut {
    setup_s: f64,
    walls: Vec<f64>,
    /// This rank's clock, from the start of the timed loop, after each
    /// cycle.
    ends: Vec<f64>,
    /// Worst `|cycle(x) - x|` over this rank's points, relative to the
    /// field's largest magnitude.
    round_trip_err: f64,
    /// The transform's own phase clocks over the window: transpose, fft.
    timers: (f64, f64),
    /// The process allocation counter before the window and after each
    /// cycle.
    allocs: Vec<(u64, u64)>,
    strategy: f64,
    findings: Findings,
}

/// `ParallelFft::new` on a fresh world, max over ranks.
fn setup_once() -> f64 {
    dns_minimpi::run(RANKS, |world| {
        let t0 = Instant::now();
        std::hint::black_box(ParallelFft::new(world, config()));
        t0.elapsed().as_secs_f64()
    })
    .into_iter()
    .fold(0.0, f64::max)
}

fn measured_world(args: &Args, trace: bool, rec: &Arc<Recorder>) -> Vec<RankOut> {
    let seed = args.seed;
    let budget = if trace {
        0.5 * args.seconds
    } else {
        args.window_s()
    };
    let exec = rec.begin("world", rec.run());
    let shared = Arc::clone(rec);
    let meet = Barrier::new(RANKS);
    let out = dns_minimpi::run(RANKS, move |world| {
        let rec = &shared;
        let rank = world.rank();
        let t0 = Instant::now();
        let p = ParallelFft::new(world, config());
        let setup_s = t0.elapsed().as_secs_f64();
        let f = Fence {
            pfft: &p,
            rec,
            parent: Some(exec),
        };
        let strategy = if trace {
            traced::close_setup(&meet, RANKS)
        } else {
            0.0
        };

        // a cycle projects its input onto the dealiased band; from then
        // on it must reproduce it
        let mut rng = Rng(seed.wrapping_mul(RANKS as u64).wrapping_add(rank as u64));
        let raw: Vec<f64> = (0..p.x_pencil_len()).map(|_| rng.unit()).collect();
        let x = p.cycle(&raw);

        let t = Instant::now();
        for _ in 0..WARMUP {
            std::hint::black_box(p.cycle(&x));
        }
        // every rank must run the same count: size it from a shared
        // estimate, the warm-up's mean, so a run ends on time on a busy
        // host too
        let est = f.grid_max(t.elapsed().as_secs_f64() / WARMUP as f64);
        let multiple = if trace { 2 * TOGGLE_BLOCK } else { 1 };
        let n = (((budget / est) as u64).min(100_000) / multiple).max(1) * multiple;

        let mut walls = Vec::with_capacity(n as usize);
        let mut ends = Vec::with_capacity(n as usize);
        let mut y = Vec::new();
        p.reset_timers();
        f.barrier();
        let mut allocs = Vec::with_capacity(n as usize + 1);
        allocs.push(alloc::snapshot());
        let w0 = Instant::now();
        for k in 1..=n {
            if trace {
                let on = telemetry_on(k);
                if on != (k > 1 && telemetry_on(k - 1)) {
                    traced::switch(&meet, on);
                }
            }
            let t = Instant::now();
            y = p.cycle(&x);
            walls.push(t.elapsed().as_secs_f64());
            ends.push(w0.elapsed().as_secs_f64());
            allocs.push(alloc::snapshot());
        }
        if trace {
            traced::switch(&meet, false);
        }
        let timers = p.timers();

        let scale = x.iter().fold(0.0f64, |m, v| m.max(v.abs()));
        let worst = x
            .iter()
            .zip(&y)
            .fold(0.0f64, |m, (a, b)| m.max((a - b).abs()));
        let findings = if trace {
            let mut found = probes::fft_lines(&f, seed);
            found.extend(probes::transposes(&f, seed));
            found.extend(probes::pfft_layer(&f, seed));
            found
        } else {
            Vec::new()
        };
        RankOut {
            setup_s,
            walls,
            ends,
            round_trip_err: worst / scale,
            timers: (timers.transpose, timers.fft),
            allocs,
            strategy,
            findings,
        }
    });
    rec.end(exec);
    out
}

pub fn run(args: &Args, rec: &Arc<Recorder>, report: &mut Report) {
    let trace = report.is_trace();
    telemetry::reset();
    // the traced world plans with telemetry on, so the planner's pick is
    // on record; `close_setup` switches it off again
    telemetry::set_level(if trace { Level::Phases } else { Level::Off });
    let ranks = measured_world(args, trace, rec);
    telemetry::set_level(Level::Off);

    let n = ranks[0].walls.len();
    let walls: Vec<f64> = (0..n)
        .map(|i| ranks.iter().map(|r| r.walls[i]).fold(0.0, f64::max))
        .collect();
    let err = ranks.iter().map(|r| r.round_trip_err).fold(0.0, f64::max);
    report.ops(n as u64, 0, "cycles");
    report.check(err < 1e-10, || {
        format!("cycle does not reproduce its band-limited input: rel err {err:e}")
    });

    if !trace {
        let mut setups: Vec<f64> = (1..SETUP_LAUNCHES).map(|_| setup_once()).collect();
        setups.push(ranks.iter().map(|r| r.setup_s).fold(0.0, f64::max));
        let s = summarize(&walls);
        report.set_n("op_s", s.fast, s.n);
        report.extra("op_median_s", s.median, "s");
        if let Some((p, v)) = s.tail {
            report.extra(format!("op_p{p}_s"), v, "s");
        }
        // loop iterations on rank 0's clock: the cycle and what the loop
        // does between two
        let ends = &ranks[0].ends;
        let iterations: Vec<f64> = (0..n)
            .map(|i| ends[i] - if i == 0 { 0.0 } else { ends[i - 1] })
            .collect();
        report.set_n("wall_per_op_s", fast(&iterations), n);
        report.extra("wall_per_op_mean_s", ends[n - 1] / n as f64, "s");
        report.set_n("setup_s", fast(&setups), setups.len());
        report.extra("setup_median_s", median(&setups), "s");
        report.set("peak_rss_mb", host::peak_rss_mb());
        return;
    }

    let (snap, snap_s) = rec.time(
        "probe.telemetry.snapshot_us",
        rec.run(),
        telemetry::snapshot,
    );
    report.set("telemetry.snapshot_us", snap_s * 1e6);
    let strategy = ranks.iter().map(|r| r.strategy).fold(0.0, f64::max);
    report.set("pencil.strategy", strategy);
    let (on, off) = traced::split(&walls);
    traced::counters_per_step(report, &snap, on.len());
    let cycle_s = median(&off);
    report.set_n(
        "telemetry.overhead_frac",
        median(&on) / cycle_s - 1.0,
        on.len(),
    );
    report.set_n("core.step_p90_s", percentile(&walls, 90.0), n);
    report.extra("cycle_s.telemetry_off", cycle_s, "s");

    let (tr, fft) = ranks[0].timers;
    let busy: f64 = ranks[0].walls.iter().sum();
    report.set("pfft.timers.transpose_s_per_step", tr / n as f64);
    report.set("pfft.timers.fft_s_per_step", fft / n as f64);
    let residual = traced::unattributed_frac(busy, &[tr, fft]);
    report.set("core.step.unattributed_frac", residual);
    // heap traffic of one cycle (both ranks: the counter is the
    // process's), on the cycles the program's telemetry is off
    let a = &ranks[0].allocs;
    let (counts, bytes): (Vec<f64>, Vec<f64>) = (1..a.len())
        .filter(|&k| !telemetry_on(k as u64))
        .map(|k| ((a[k].0 - a[k - 1].0) as f64, (a[k].1 - a[k - 1].1) as f64))
        .unzip();
    report.set_n("core.step.allocs", median(&counts), counts.len());
    report.set_n("core.step.alloc_bytes", median(&bytes), bytes.len());
    for (name, v) in &ranks[0].findings {
        report.set(name, *v);
    }
}
