//! Production-style command-line driver for the channel DNS.
//!
//! Run `dns-run --help` for the full flag reference. Typical use:
//!
//! ```text
//! dns-run --nx 32 --ny 65 --nz 32 --steps 1000 --stats-every 100
//! dns-run --steps 20 --trace target/trace.json   # Perfetto timeline
//! dns-run --spec campaign.json --out target/run7 # serialized RunSpec
//! ```
//!
//! Runs the simulation, prints live statistics, writes profile/spectra
//! CSVs and (optionally) checkpoints and a Chrome trace of the run.
//!
//! The binary is a thin front end over [`dns_core::run`]: its
//! [`Command`] (the run-description rows
//! [`SPEC_FLAGS`](dns_core::spec::SPEC_FLAGS), shared with `dns-cli
//! submit`, then [`RUN_FLAGS`]) parses straight onto [`Cli`] — a
//! [`RunSpec`], a [`RunConfig`] and what only this front end reads —
//! which also hooks the engine's step loop
//! for live statistics and data products ([`RunObserver`]), and
//! [`dns_core::run::execute`] drives the supervised RK3 loop — the same
//! engine the `dns-server` campaign scheduler runs jobs through.
//!
//! With `--checkpoint-every N --max-restarts K` an injected (or real)
//! rank crash is caught, the world is relaunched, and the run resumes
//! from the last committed checkpoint manifest. `--crash-at-step S`
//! injects a deterministic crash for chaos demos:
//!
//! ```text
//! dns-run --steps 12 --checkpoint-every 4 --max-restarts 2 \
//!         --crash-at-step 6 --recovery-log target/recovery.json
//! ```

use std::path::PathBuf;
use std::sync::Arc;

use dns_core::flags::{parsed, put, Command, Flag};
use dns_core::health::MonitorConfig;
use dns_core::run::{
    execute, ResumePolicy, RunConfig, RunControl, RunObserver, RunSpec, RunStatus, RunSummary,
    StepCtx,
};
use dns_core::solver::ChannelDns;
use dns_core::stats::{profiles, StatsConfig};
use dns_core::{io, spectra};
use dns_minimpi::FaultPlan;
use dns_resilience::events_to_json;
use dns_telemetry as telemetry;

/// What the command line decides: the run, how the engine executes it,
/// and the values only this front end reads.
struct Cli {
    spec: RunSpec,
    cfg: RunConfig,
    /// Becomes `cfg.health` when `--health-log` names a file.
    monitor: MonitorConfig,
    /// `every == 0`: sample on the `--stats-every` cadence.
    stats: StatsConfig,
    out: PathBuf,
    stats_every: u64,
    metrics_every: u64,
    trace: Option<PathBuf>,
    recovery_log: Option<PathBuf>,
    crash_at_step: Option<u64>,
    crash_rank: usize,
    slow_rank: Option<usize>,
    slow_ms: u64,
}

/// The flags that are not part of the run description (those are
/// [`SPEC_FLAGS`](dns_core::spec::SPEC_FLAGS)); parsing and `--help` both
/// read this table.
#[rustfmt::skip] // a table: one row per flag, not one line per field
const RUN_FLAGS: &[Flag<Cli>] = &[
    Flag("--stats-every", "N", "print running statistics every N steps (default 100)",
        |c, v| put(&mut c.stats_every, v)),
    Flag("--stats-sample-every", "N",
        "sample the checkpointed time-averaged turbulence statistics every N steps (default: the \
         --stats-every cadence; survives --resume and crash recovery bit-exactly)",
        |c, v| put(&mut c.stats.every, v)),
    Flag("--stats-warmup", "S", "steps to discard before the first statistics sample (default 0)",
        |c, v| put(&mut c.stats.warmup, v)),
    Flag("--ckpt", "STEM", "checkpoint file stem (default OUT/state)",
        |c, v| put(&mut c.cfg.ckpt_stem, v)),
    Flag("--resume", "STEM", "resume from a checkpoint stem",
        |c, v| parsed(v).map(|stem| c.cfg.resume = ResumePolicy::Require(stem))),
    Flag("--out", "DIR", "output directory (default target/channel-dns)",
        |c, v| put(&mut c.out, v)),
    Flag("--max-restarts", "K",
        "relaunch after rank crashes up to K times, resuming from the last checkpoint manifest \
         (default 0)",
        |c, v| put(&mut c.cfg.max_restarts, v)),
    Flag("--crash-at-step", "S",
        "chaos demo: crash a rank after completing step S (first launch only)",
        |c, v| parsed(v).map(|step| c.crash_at_step = Some(step))),
    Flag("--crash-rank", "R", "world rank that --crash-at-step kills (default 0)",
        |c, v| put(&mut c.crash_rank, v)),
    Flag("--recovery-log", "FILE.json", "write the supervisor's recovery-event timeline as JSON",
        |c, v| parsed(v).map(|path| c.recovery_log = Some(path))),
    Flag("--trace", "FILE.json",
        "write a Chrome trace-event timeline of the run (open in Perfetto)",
        |c, v| parsed(v).map(|path| c.trace = Some(path))),
    Flag("--health-log", "FILE.jsonl",
        "enable run-health monitoring and write the flight recorder here (render with dns-report)",
        |c, v| parsed(v).map(|path| c.monitor.log = Some(path))),
    Flag("--health-every", "N",
        "evaluate the physics sentinels every N steps (default 1; 0 disables sentinels)",
        |c, v| put(&mut c.monitor.sentinel_every, v)),
    Flag("--straggler-factor", "F",
        "flag a rank whose busy time exceeds F x the median (default 1.5)",
        |c, v| put(&mut c.monitor.straggler.factor, v)),
    Flag("--straggler-steps", "K", "consecutive slow steps before a rank is flagged (default 3)",
        |c, v| put(&mut c.monitor.straggler.consecutive, v)),
    Flag("--slow-rank", "R",
        "chaos demo: periodically delay world rank R's transport ops (first launch only)",
        |c, v| parsed(v).map(|rank| c.slow_rank = Some(rank))),
    Flag("--slow-ms", "MS", "delay injected per slowed transport op of --slow-rank (default 2)",
        |c, v| put(&mut c.slow_ms, v)),
    Flag("--metrics-every", "N", "print a telemetry phase/counter report every N steps",
        |c, v| put(&mut c.metrics_every, v)),
];

const COMMAND: Command<Cli> = Command {
    name: "dns-run",
    about: "spectral DNS of turbulent channel flow (Kim-Moin-Moser box by default)\n\n\
            usage: dns-run [flags]\n\nflags:\n",
    flags: RUN_FLAGS,
    spec: Some(|c| &mut c.spec),
};

/// `dns-run`'s defaults, which the flags then edit.
fn defaults() -> Cli {
    let mut c = Cli {
        spec: RunSpec {
            name: "dns-run".into(),
            ..RunSpec::default()
        },
        cfg: RunConfig {
            // empty until --ckpt names one: OUT/state once --out is known
            ckpt_stem: PathBuf::new(),
            ..RunConfig::in_dir("".as_ref())
        },
        monitor: MonitorConfig::default(),
        stats: StatsConfig {
            every: 0,
            warmup: 0,
        },
        out: PathBuf::from("target/channel-dns"),
        stats_every: 100,
        metrics_every: 0,
        trace: None,
        recovery_log: None,
        crash_at_step: None,
        crash_rank: 0,
        slow_rank: None,
        slow_ms: 2,
    };
    c.spec.params.lx = 2.0;
    c.spec.params.lz = 0.8;
    c.spec.params.grid_stretch = 1.9;
    c
}

/// Check the parsed flags together and derive what several decide.
fn finish(mut c: Cli) -> Result<Cli, String> {
    let p = &c.spec.params;
    p.check()?;
    if c.stats_every == 0 {
        return Err("--stats-every must be positive".into());
    }
    let ranks = p.pa.saturating_mul(p.pb);
    for (flag, rank) in [
        ("--crash-rank", Some(c.crash_rank)),
        ("--slow-rank", c.slow_rank),
    ] {
        if let Some(r) = rank.filter(|&r| r >= ranks) {
            return Err(format!("{flag} {r} is outside the {}x{} grid", p.pa, p.pb));
        }
    }
    if c.monitor.straggler.factor <= 1.0 {
        return Err("--straggler-factor must be > 1".into());
    }
    if c.monitor.straggler.consecutive == 0 {
        return Err("--straggler-steps must be positive".into());
    }
    if c.cfg.ckpt_stem.as_os_str().is_empty() {
        c.cfg.ckpt_stem = c.out.join("state");
    }
    c.cfg.final_checkpoint = c.spec.ckpt_every > 0;
    c.cfg.health = c.monitor.log.is_some().then(|| c.monitor.clone());
    if c.stats.every == 0 {
        c.stats.every = c.stats_every;
    }
    c.cfg.stats = Some(c.stats);
    Ok(c)
}

/// The engine hooks that make `dns-run` feel like `dns-run`: live
/// statistics lines, windowed telemetry reports, and the final
/// profile/spectra/slice data products. Runs on every rank; printing is
/// root-gated.
impl RunObserver for Cli {
    fn on_start(&self, dns: &ChannelDns, resumed_from: Option<u64>, attempt: usize) {
        if dns.pfft().comm_a().rank() == 0 && dns.pfft().comm_b().rank() == 0 {
            if let Some(step) = resumed_from {
                println!(
                    "resumed from step {step} (t = {:.3}){}",
                    dns.state().time,
                    if attempt > 0 {
                        format!(" after crash, attempt {}", attempt + 1)
                    } else {
                        String::new()
                    }
                );
            }
            println!("wall-normal set-up: {}", dns.wallnormal_plan());
            println!("pencil buffer: {}", dns.pfft().workspace_plan());
        }
    }

    fn on_step(&self, dns: &ChannelDns, ctx: StepCtx) {
        if ctx.step.is_multiple_of(self.stats_every) {
            // the engine's sample for this step when it took one (the
            // accumulator is rank-replicated, so every rank agrees on the
            // branch); a print step off the sampling cadence reduces its own
            let sampled = dns.stats().and_then(|acc| acc.history().last().copied());
            let (u_tau, re_tau, bulk) = match sampled.filter(|h| h.step == ctx.step) {
                Some(h) => (h.u_tau, h.re_tau, h.bulk_velocity),
                None => {
                    let p = profiles(dns);
                    (p.u_tau, p.re_tau, p.bulk_velocity)
                }
            };
            let cfl = dns.courant();
            if ctx.root {
                println!(
                    "step {:6}  t = {:7.3}  u_tau = {u_tau:.3}  Re_tau = {re_tau:6.1}  bulk = {bulk:6.2}  CFL = {cfl:.2}",
                    ctx.step,
                    dns.state().time,
                );
            }
        }
        if ctx.root {
            if let Some((w0, w1)) =
                dns_health::metrics_window(ctx.step, self.metrics_every, ctx.first_step)
            {
                if self.trace.is_none() {
                    // windowed report: flush this rank's buffers, print,
                    // and clear so each report covers only its own window
                    // (clipped at the resume point on a restarted run).
                    // With --trace the registry must keep the whole run,
                    // so the reports are cumulative instead.
                    telemetry::flush_thread();
                    println!("\n-- telemetry, steps {w0}..{w1} --");
                    print!("{}", telemetry::snapshot().phase_table());
                    telemetry::reset();
                } else {
                    telemetry::flush_thread();
                    println!("\n-- telemetry, steps 1..{w1} (cumulative) --");
                    print!("{}", telemetry::snapshot().phase_table());
                }
            }
        }
    }

    fn on_finish(&self, dns: &ChannelDns, summary: RunSummary) {
        if summary.root && summary.steps_ran > 0 {
            println!(
                "\n{} steps in {:.1} s ({:.0} ms/step)",
                summary.steps_ran,
                summary.wall_s,
                summary.wall_s / summary.steps_ran as f64 * 1e3
            );
        }
        // final data products; the profile CSV is the checkpointed
        // (restart-proof) time average, or one instantaneous snapshot
        // when the run took no sample. The snapshot is collective; the
        // accumulator is rank-replicated, so all ranks take one branch
        let p = dns.stats().and_then(|acc| acc.mean());
        let p = p.unwrap_or_else(|| profiles(dns));
        let sp = spectra::spectra(dns);
        let phys = io::gather_physical(dns, dns.state().u());
        if summary.root {
            let yp = p.y_plus();
            let up = p.u_plus();
            io::write_csv(
                &self.out.join("profiles.csv"),
                &[
                    ("y", &p.y[..]),
                    ("y_plus", &yp[..]),
                    ("u_mean", &p.u_mean[..]),
                    ("u_plus", &up[..]),
                    ("uu", &p.uu[..]),
                    ("vv", &p.vv[..]),
                    ("ww", &p.ww[..]),
                    ("uv", &p.uv[..]),
                ],
            )
            .expect("write profiles");
            let kx: Vec<f64> = sp.kx.iter().map(|&k| k as f64).collect();
            io::write_csv(
                &self.out.join("spectra_kx.csv"),
                &[
                    ("kx", &kx[..]),
                    ("euu", &sp.euu_kx[..]),
                    ("evv", &sp.evv_kx[..]),
                    ("eww", &sp.eww_kx[..]),
                ],
            )
            .expect("write spectra");
        }
        if let Some(f) = phys {
            let (w, h, slice) = f.slice_xy(f.nz / 2);
            io::write_pgm(&self.out.join("u_slice.pgm"), w, h, &slice).expect("write slice");
        }
        if summary.root {
            println!(
                "wrote {}/profiles.csv, spectra_kx.csv, u_slice.pgm",
                self.out.display()
            );
        }
    }
}

fn main() {
    let c = Arc::new(COMMAND.parse(defaults(), finish));
    if let Err(e) = std::fs::create_dir_all(&c.out) {
        eprintln!(
            "dns-run: cannot create output directory {}: {e}",
            c.out.display()
        );
        std::process::exit(1);
    }
    if c.trace.is_some() || c.metrics_every > 0 {
        telemetry::set_level(telemetry::Level::Phases);
    }
    println!("channel DNS: {}", c.spec);
    let mut crash_plan = match c.crash_at_step {
        Some(step) => FaultPlan::none().crash_at_step(c.crash_rank, step),
        None => FaultPlan::none(),
    };
    if let Some(r) = c.slow_rank {
        // a persistent one-rank slowdown: every 32nd transport op on the
        // victim sleeps, which the health monitor must attribute to that
        // rank's busy time and flag as a straggler. The plan materializes
        // its events, so budget enough for the whole run (64 delayed ops
        // per step is far above the real op rate at stride 32) without
        // letting a huge --steps allocate unboundedly.
        let count = c.spec.steps.saturating_mul(64).min(1_000_000);
        crash_plan =
            crash_plan.delay_every(r, 0, 32, count, std::time::Duration::from_millis(c.slow_ms));
    }

    let outcome = execute(
        &c.spec,
        &c.cfg,
        Arc::new(RunControl::new()),
        c.clone(),
        // chaos only on the first launch; restarts run clean
        move |attempt| {
            if attempt == 0 {
                crash_plan.clone()
            } else {
                FaultPlan::none()
            }
        },
    );

    if outcome.restarts > 0 {
        println!(
            "supervisor: {} restart(s) issued, run {}",
            outcome.restarts,
            if outcome.status == RunStatus::Done {
                "recovered"
            } else {
                "abandoned"
            }
        );
    }
    if let Some(path) = &c.recovery_log {
        if let Err(e) = std::fs::write(path, events_to_json(&outcome.events).dump() + "\n") {
            eprintln!("dns-run: cannot write recovery log {}: {e}", path.display());
        } else {
            println!("wrote recovery log {}", path.display());
        }
    }
    if let Some(path) = &c.monitor.log {
        // the engine has already folded the supervisor's recovery
        // timeline into the JSONL artifact; report where it went
        println!(
            "wrote health log {} (render it with `dns-report {}`)",
            path.display(),
            path.display()
        );
    }
    if outcome.status != RunStatus::Done {
        eprintln!(
            "dns-run: run failed after {} restart(s); see recovery events",
            outcome.restarts
        );
        std::process::exit(1);
    }
    // export after the rank threads have flushed (their RankScopes drop
    // when the supervised world winds down), so the trace holds the
    // complete timeline
    if let Some(path) = &c.trace {
        let snap = telemetry::snapshot();
        if let Err(e) = std::fs::write(path, snap.chrome_trace()) {
            eprintln!("dns-run: cannot write trace {}: {e}", path.display());
            std::process::exit(1);
        }
        println!("\ntelemetry summary");
        print!("{}", snap.phase_table());
        println!(
            "wrote {} ({} spans; load it in https://ui.perfetto.dev)",
            path.display(),
            snap.span_count()
        );
    }
}
