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
//! The binary is a thin front end over [`dns_core::run`]: flags build a
//! [`RunSpec`] + [`RunConfig`], a [`CliObserver`] hooks the engine's
//! step loop for live statistics and data products, and
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

use dns_core::health::MonitorConfig;
use dns_core::run::{
    execute, InitialCondition, ResumePolicy, RunConfig, RunControl, RunObserver, RunSpec,
    RunStatus, RunSummary, StepCtx,
};
use dns_core::solver::ChannelDns;
use dns_core::stats::{profiles, StatsConfig};
use dns_core::{io, spectra, Forcing, Params};
use dns_health::{SentinelConfig, StragglerConfig};
use dns_minimpi::FaultPlan;
use dns_resilience::events_to_json;
use dns_telemetry as telemetry;

struct Args {
    params: Params,
    steps: usize,
    stats_every: usize,
    stats_sample_every: usize,
    stats_warmup: usize,
    ckpt_every: usize,
    ckpt: Option<PathBuf>,
    resume: Option<PathBuf>,
    out: PathBuf,
    ic: InitialCondition,
    trace: Option<PathBuf>,
    metrics_every: usize,
    max_restarts: usize,
    crash_at_step: Option<u64>,
    crash_rank: usize,
    recovery_log: Option<PathBuf>,
    health_log: Option<PathBuf>,
    health_every: u64,
    straggler_factor: f64,
    straggler_steps: u32,
    slow_rank: Option<usize>,
    slow_ms: u64,
}

/// One command-line flag: name, value placeholder (`None` for flags that
/// take no value), and help text. `--help` is generated from this table,
/// so the usage message can't drift from what the parser accepts.
struct Flag {
    name: &'static str,
    value: Option<&'static str>,
    help: &'static str,
}

const FLAGS: &[Flag] = &[
    Flag {
        name: "--spec",
        value: Some("FILE.json"),
        help: "load a serialized run spec (params, steps, ic); later flags override",
    },
    Flag {
        name: "--nx",
        value: Some("N"),
        help: "streamwise solution modes (default 32)",
    },
    Flag {
        name: "--ny",
        value: Some("N"),
        help: "wall-normal B-spline points (default 65)",
    },
    Flag {
        name: "--nz",
        value: Some("N"),
        help: "spanwise solution modes (default 32)",
    },
    Flag {
        name: "--re",
        value: Some("RE"),
        help: "target friction Reynolds number (default 180)",
    },
    Flag {
        name: "--lx",
        value: Some("L"),
        help: "streamwise box length / pi (default 2)",
    },
    Flag {
        name: "--lz",
        value: Some("L"),
        help: "spanwise box length / pi (default 0.8)",
    },
    Flag {
        name: "--threads",
        value: Some("N"),
        help: "on-node worker threads for the transform line loops (default 1)",
    },
    Flag {
        name: "--dt",
        value: Some("DT"),
        help: "timestep (default 5e-4)",
    },
    Flag {
        name: "--stretch",
        value: Some("S"),
        help: "tanh grid stretching factor (default 1.9)",
    },
    Flag {
        name: "--steps",
        value: Some("N"),
        help: "timesteps to run (default 1000)",
    },
    Flag {
        name: "--stats-every",
        value: Some("N"),
        help: "print running statistics every N steps (default 100)",
    },
    Flag {
        name: "--stats-sample-every",
        value: Some("N"),
        help: "sample the checkpointed time-averaged turbulence statistics every N \
               steps (default: the --stats-every cadence; survives --resume and \
               crash recovery bit-exactly)",
    },
    Flag {
        name: "--stats-warmup",
        value: Some("S"),
        help: "steps to discard before the first statistics sample (default 0)",
    },
    Flag {
        name: "--checkpoint-every",
        value: Some("N"),
        help: "write a checkpoint every N steps (default off)",
    },
    Flag {
        name: "--ckpt",
        value: Some("STEM"),
        help: "checkpoint file stem (default OUT/state)",
    },
    Flag {
        name: "--resume",
        value: Some("STEM"),
        help: "resume from a checkpoint stem",
    },
    Flag {
        name: "--out",
        value: Some("DIR"),
        help: "output directory (default target/channel-dns)",
    },
    Flag {
        name: "--flux",
        value: Some("BULK"),
        help: "constant-mass-flux forcing at the given bulk velocity",
    },
    Flag {
        name: "--gradient",
        value: Some("G"),
        help: "constant-pressure-gradient forcing",
    },
    Flag {
        name: "--turbulent-ic",
        value: Some("AMP"),
        help: "perturbed turbulent initial condition of amplitude AMP (default 0.5)",
    },
    Flag {
        name: "--laminar-ic",
        value: None,
        help: "start from the laminar profile instead",
    },
    Flag {
        name: "--grid",
        value: Some("PAxPB"),
        help: "process grid, e.g. 2x2 (default 1x1; ranks are threads)",
    },
    Flag {
        name: "--max-restarts",
        value: Some("K"),
        help: "relaunch after rank crashes up to K times, resuming from the last checkpoint manifest (default 0)",
    },
    Flag {
        name: "--crash-at-step",
        value: Some("S"),
        help: "chaos demo: crash a rank after completing step S (first launch only)",
    },
    Flag {
        name: "--crash-rank",
        value: Some("R"),
        help: "world rank that --crash-at-step kills (default 0)",
    },
    Flag {
        name: "--recovery-log",
        value: Some("FILE.json"),
        help: "write the supervisor's recovery-event timeline as JSON",
    },
    Flag {
        name: "--trace",
        value: Some("FILE.json"),
        help: "write a Chrome trace-event timeline of the run (open in Perfetto)",
    },
    Flag {
        name: "--health-log",
        value: Some("FILE.jsonl"),
        help: "enable run-health monitoring and write the flight recorder here (render with dns-report)",
    },
    Flag {
        name: "--health-every",
        value: Some("N"),
        help: "evaluate the physics sentinels every N steps (default 1; 0 disables sentinels)",
    },
    Flag {
        name: "--straggler-factor",
        value: Some("F"),
        help: "flag a rank whose busy time exceeds F x the median (default 1.5)",
    },
    Flag {
        name: "--straggler-steps",
        value: Some("K"),
        help: "consecutive slow steps before a rank is flagged (default 3)",
    },
    Flag {
        name: "--slow-rank",
        value: Some("R"),
        help: "chaos demo: periodically delay world rank R's transport ops (first launch only)",
    },
    Flag {
        name: "--slow-ms",
        value: Some("MS"),
        help: "delay injected per slowed transport op of --slow-rank (default 2)",
    },
    Flag {
        name: "--metrics-every",
        value: Some("N"),
        help: "print a telemetry phase/counter report every N steps",
    },
    Flag {
        name: "--help",
        value: None,
        help: "print this help and exit",
    },
];

fn usage() -> String {
    let mut out = String::from(
        "dns-run: spectral DNS of turbulent channel flow (Kim-Moin-Moser box by default)\n\n\
         usage: dns-run [flags]\n\nflags:\n",
    );
    for f in FLAGS {
        let left = match f.value {
            Some(v) => format!("{} {v}", f.name),
            None => f.name.to_string(),
        };
        out.push_str(&format!("  {left:<24} {}\n", f.help));
    }
    out
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut params = Params::channel(32, 65, 32, 180.0).with_dt(5e-4);
    params.lx = 2.0;
    params.lz = 0.8;
    params.grid_stretch = 1.9;
    let mut args = Args {
        params,
        steps: 1000,
        stats_every: 100,
        stats_sample_every: 0,
        stats_warmup: 0,
        ckpt_every: 0,
        ckpt: None,
        resume: None,
        out: PathBuf::from("target/channel-dns"),
        ic: InitialCondition::Turbulent {
            amplitude: 0.5,
            seed: 2024,
        },
        trace: None,
        metrics_every: 0,
        max_restarts: 0,
        crash_at_step: None,
        crash_rank: 0,
        recovery_log: None,
        health_log: None,
        health_every: 1,
        straggler_factor: 1.5,
        straggler_steps: 3,
        slow_rank: None,
        slow_ms: 2,
    };
    let mut i = 1;
    let take = |i: &mut usize| -> Result<String, String> {
        *i += 1;
        argv.get(*i)
            .cloned()
            .ok_or_else(|| format!("{} needs a value", argv[*i - 1]))
    };
    fn num<T: std::str::FromStr>(flag: &str, v: String) -> Result<T, String> {
        v.parse().map_err(|_| format!("{flag}: cannot parse {v:?}"))
    }
    while i < argv.len() {
        let flag = argv[i].clone();
        match flag.as_str() {
            "--spec" => {
                let path = take(&mut i)?;
                let text = std::fs::read_to_string(&path)
                    .map_err(|e| format!("--spec: cannot read {path}: {e}"))?;
                let spec = RunSpec::from_json(&text).map_err(|e| format!("--spec {path}: {e}"))?;
                args.params = spec.params;
                args.steps = spec.steps as usize;
                args.ckpt_every = spec.ckpt_every as usize;
                args.ic = spec.ic;
            }
            "--nx" => args.params.nx = num(&flag, take(&mut i)?)?,
            "--ny" => args.params.ny = num(&flag, take(&mut i)?)?,
            "--nz" => args.params.nz = num(&flag, take(&mut i)?)?,
            "--re" => args.params.nu = 1.0 / num::<f64>(&flag, take(&mut i)?)?,
            "--lx" => args.params.lx = num(&flag, take(&mut i)?)?,
            "--lz" => args.params.lz = num(&flag, take(&mut i)?)?,
            "--dt" => args.params.dt = num(&flag, take(&mut i)?)?,
            "--threads" => args.params.fft_threads = num::<usize>(&flag, take(&mut i)?)?.max(1),
            "--stretch" => args.params.grid_stretch = num(&flag, take(&mut i)?)?,
            "--steps" => args.steps = num(&flag, take(&mut i)?)?,
            "--stats-every" => args.stats_every = num(&flag, take(&mut i)?)?,
            "--stats-sample-every" => args.stats_sample_every = num(&flag, take(&mut i)?)?,
            "--stats-warmup" => args.stats_warmup = num(&flag, take(&mut i)?)?,
            "--checkpoint-every" => args.ckpt_every = num(&flag, take(&mut i)?)?,
            "--ckpt" => args.ckpt = Some(PathBuf::from(take(&mut i)?)),
            "--resume" => args.resume = Some(PathBuf::from(take(&mut i)?)),
            "--out" => args.out = PathBuf::from(take(&mut i)?),
            "--flux" => {
                args.params.forcing = Forcing::ConstantMassFlux {
                    bulk: num(&flag, take(&mut i)?)?,
                }
            }
            "--gradient" => {
                args.params.forcing = Forcing::PressureGradient(num(&flag, take(&mut i)?)?)
            }
            "--turbulent-ic" => {
                args.ic = InitialCondition::Turbulent {
                    amplitude: num(&flag, take(&mut i)?)?,
                    seed: 2024,
                }
            }
            "--laminar-ic" => args.ic = InitialCondition::Laminar { scale: 1.0 },
            "--grid" => {
                let v = take(&mut i)?;
                let (pa, pb) = v
                    .split_once('x')
                    .ok_or_else(|| format!("--grid: expected PAxPB, got {v:?}"))?;
                args.params.pa = num(&flag, pa.to_string())?;
                args.params.pb = num(&flag, pb.to_string())?;
            }
            "--max-restarts" => args.max_restarts = num(&flag, take(&mut i)?)?,
            "--crash-at-step" => args.crash_at_step = Some(num(&flag, take(&mut i)?)?),
            "--crash-rank" => args.crash_rank = num(&flag, take(&mut i)?)?,
            "--recovery-log" => args.recovery_log = Some(PathBuf::from(take(&mut i)?)),
            "--trace" => args.trace = Some(PathBuf::from(take(&mut i)?)),
            "--health-log" => args.health_log = Some(PathBuf::from(take(&mut i)?)),
            "--health-every" => args.health_every = num(&flag, take(&mut i)?)?,
            "--straggler-factor" => args.straggler_factor = num(&flag, take(&mut i)?)?,
            "--straggler-steps" => args.straggler_steps = num(&flag, take(&mut i)?)?,
            "--slow-rank" => args.slow_rank = Some(num(&flag, take(&mut i)?)?),
            "--slow-ms" => args.slow_ms = num(&flag, take(&mut i)?)?,
            "--metrics-every" => args.metrics_every = num(&flag, take(&mut i)?)?,
            "--help" | "-h" => {
                print!("{}", usage());
                std::process::exit(0);
            }
            other => return Err(format!("unknown argument {other}")),
        }
        i += 1;
    }
    if args.stats_every == 0 {
        return Err("--stats-every must be positive".into());
    }
    if args.crash_rank >= args.params.pa * args.params.pb {
        return Err(format!(
            "--crash-rank {} is outside the {}x{} grid",
            args.crash_rank, args.params.pa, args.params.pb
        ));
    }
    if let Some(r) = args.slow_rank {
        if r >= args.params.pa * args.params.pb {
            return Err(format!(
                "--slow-rank {r} is outside the {}x{} grid",
                args.params.pa, args.params.pb
            ));
        }
    }
    if args.straggler_factor <= 1.0 {
        return Err("--straggler-factor must be > 1".into());
    }
    if args.straggler_steps == 0 {
        return Err("--straggler-steps must be positive".into());
    }
    Ok(args)
}

/// The engine hooks that make `dns-run` feel like `dns-run`: live
/// statistics lines, windowed telemetry reports, and the final
/// profile/spectra/slice data products. Runs on every rank; printing is
/// root-gated.
struct CliObserver {
    stats_every: u64,
    metrics_every: u64,
    /// With `--trace` the telemetry registry must keep the whole run, so
    /// windowed reports become cumulative instead of flush-and-reset.
    cumulative_metrics: bool,
    out: PathBuf,
}

impl RunObserver for CliObserver {
    fn on_start(&self, dns: &ChannelDns, resumed_from: Option<u64>, attempt: usize) {
        let root = dns.pfft().comm_a().rank() == 0 && dns.pfft().comm_b().rank() == 0;
        if let Some(step) = resumed_from {
            if root {
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
        }
        let cfl = dns.cfl();
        if root {
            println!("wall-normal set-up: {}", dns.wallnormal_plan());
            println!("initial CFL = {cfl:.3}");
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
            let cfl = dns.cfl();
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
                if !self.cumulative_metrics {
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
    let argv: Vec<String> = std::env::args().collect();
    let a = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("dns-run: {e}\n(run dns-run --help for the flag reference)");
            std::process::exit(2);
        }
    };
    a.params.validate();
    if let Err(e) = std::fs::create_dir_all(&a.out) {
        eprintln!(
            "dns-run: cannot create output directory {}: {e}",
            a.out.display()
        );
        std::process::exit(1);
    }
    if a.trace.is_some() || a.metrics_every > 0 {
        telemetry::set_level(telemetry::Level::Phases);
    }
    println!(
        "channel DNS: {} x {} x {} modes, box {:.2} x 2 x {:.2}, Re_tau target {:.0}, dt {}",
        a.params.nx,
        a.params.ny,
        a.params.nz,
        a.params.lx,
        a.params.lz,
        1.0 / a.params.nu,
        a.params.dt
    );
    let mut crash_plan = match a.crash_at_step {
        Some(step) => FaultPlan::none().crash_at_step(a.crash_rank, step),
        None => FaultPlan::none(),
    };
    if let Some(r) = a.slow_rank {
        // a persistent one-rank slowdown: every 32nd transport op on the
        // victim sleeps, which the health monitor must attribute to that
        // rank's busy time and flag as a straggler. The plan materializes
        // its events, so budget enough for the whole run (64 delayed ops
        // per step is far above the real op rate at stride 32) without
        // letting a huge --steps allocate unboundedly.
        let count = (a.steps as u64).saturating_mul(64).min(1_000_000);
        crash_plan =
            crash_plan.delay_every(r, 0, 32, count, std::time::Duration::from_millis(a.slow_ms));
    }

    let spec = RunSpec {
        name: "dns-run".into(),
        params: a.params.clone(),
        steps: a.steps as u64,
        ckpt_every: a.ckpt_every as u64,
        ic: a.ic,
    };
    let cfg = RunConfig {
        ckpt_stem: a.ckpt.clone().unwrap_or_else(|| a.out.join("state")),
        resume: match &a.resume {
            Some(stem) => ResumePolicy::Require(stem.clone()),
            None => ResumePolicy::Fresh,
        },
        final_checkpoint: a.ckpt_every > 0,
        max_restarts: a.max_restarts,
        recv_timeout: dns_minimpi::RECV_TIMEOUT,
        health: a.health_log.as_ref().map(|log| MonitorConfig {
            log: Some(log.clone()),
            sentinel_every: a.health_every,
            straggler: StragglerConfig {
                factor: a.straggler_factor,
                consecutive: a.straggler_steps,
            },
            sentinels: SentinelConfig::default(),
        }),
        health_attempt_base: 0,
        stats: Some(StatsConfig {
            every: if a.stats_sample_every > 0 {
                a.stats_sample_every as u64
            } else {
                a.stats_every as u64
            },
            warmup: a.stats_warmup as u64,
        }),
    };
    let observer = Arc::new(CliObserver {
        stats_every: a.stats_every as u64,
        metrics_every: a.metrics_every as u64,
        cumulative_metrics: a.trace.is_some(),
        out: a.out.clone(),
    });
    let outcome = execute(
        &spec,
        &cfg,
        Arc::new(RunControl::new()),
        observer,
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
    if let Some(path) = &a.recovery_log {
        if let Err(e) = std::fs::write(path, events_to_json(&outcome.events)) {
            eprintln!("dns-run: cannot write recovery log {}: {e}", path.display());
        } else {
            println!("wrote recovery log {}", path.display());
        }
    }
    if let Some(path) = &a.health_log {
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
    if let Some(path) = &a.trace {
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

#[cfg(test)]
mod flag_drift {
    //! The `--help` text is generated from [`FLAGS`], so help and table
    //! cannot drift — but the parser's `match` arms still could. These
    //! tests pin all three views of the flag set (parser, table/help,
    //! README examples) to each other.
    use super::{usage, FLAGS};

    const SRC: &str = include_str!("dns-run.rs");
    const README: &str = include_str!("../../../../README.md");

    /// Flags the parser actually matches: string literals opening a
    /// `match` arm (`"--foo" => ...` or `"--help" | "-h" => ...`).
    fn parser_arm_flags() -> Vec<&'static str> {
        let mut v = Vec::new();
        for line in SRC.lines() {
            let t = line.trim_start();
            if !t.starts_with("\"--") || !t.contains("=>") {
                continue;
            }
            let rest = &t[1..];
            if let Some(end) = rest.find('"') {
                v.push(&rest[..end]);
            }
        }
        v
    }

    /// Flags passed to `dns-run` in the README's command examples
    /// (joining backslash-continued shell lines first).
    fn readme_dns_run_flags() -> Vec<String> {
        let mut commands = Vec::new();
        let mut cur = String::new();
        for line in README.lines() {
            let t = line.trim();
            if let Some(stem) = t.strip_suffix('\\') {
                cur.push_str(stem);
                cur.push(' ');
            } else {
                cur.push_str(t);
                commands.push(std::mem::take(&mut cur));
            }
        }
        let mut flags = Vec::new();
        for cmd in commands {
            if !cmd.contains("--bin dns-run") {
                continue;
            }
            let Some((_, tail)) = cmd.split_once(" -- ") else {
                continue;
            };
            for tok in tail.split_whitespace() {
                if tok.starts_with("--") {
                    flags.push(tok.to_string());
                }
            }
        }
        flags
    }

    #[test]
    fn every_parsed_flag_is_documented_in_help() {
        let arms = parser_arm_flags();
        assert!(arms.len() >= 30, "arm scan looks broken: {arms:?}");
        let help = usage();
        for flag in &arms {
            assert!(
                FLAGS.iter().any(|f| f.name == *flag),
                "parser accepts {flag} but the FLAGS table does not list it"
            );
            assert!(
                help.contains(&format!("{flag} ")) || help.contains(&format!("{flag}\n")),
                "parser accepts {flag} but --help does not mention it"
            );
        }
    }

    #[test]
    fn every_documented_flag_has_a_parser_arm() {
        let arms = parser_arm_flags();
        for f in FLAGS {
            assert!(
                arms.contains(&f.name),
                "--help documents {} but the parser has no arm for it",
                f.name
            );
        }
    }

    #[test]
    fn stats_flags_are_wired() {
        // the checkpointed-statistics flags must stay in all three views
        // (parser, FLAGS/help, and this scan) — they are the CLI surface
        // of the science-gate accumulator
        let arms = parser_arm_flags();
        for flag in ["--stats-every", "--stats-sample-every", "--stats-warmup"] {
            assert!(arms.contains(&flag), "no parser arm for {flag}");
            assert!(
                FLAGS.iter().any(|f| f.name == flag),
                "FLAGS table lost {flag}"
            );
        }
    }

    #[test]
    fn readme_examples_only_use_real_flags() {
        let flags = readme_dns_run_flags();
        assert!(
            !flags.is_empty(),
            "README no longer shows any dns-run invocations — update this scan"
        );
        for flag in &flags {
            assert!(
                FLAGS.iter().any(|f| f.name == flag),
                "README example passes {flag}, which dns-run does not accept"
            );
        }
    }
}
