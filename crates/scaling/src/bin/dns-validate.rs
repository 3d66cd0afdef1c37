//! `dns-validate` — the science gate for the paper's figures 5-8.
//!
//! Runs the minimal turbulent channel (`Re_tau = 180`) through the
//! production run engine with the checkpointable statistics accumulator
//! enabled, folds the time-averaged profiles into wall units, and
//! compares them against the embedded Moser reference tables
//! ([`dns_core::moser`]) within the documented per-region tolerances of
//! [`dns_scaling::validation`]. Writes `BENCH_validation.json` with the
//! measured-vs-reference curves and, from the same run, the figure
//! artefacts under `target/figures/` (`fig5_mean_velocity.csv`,
//! `fig6_variances.csv`, `fig7_streamwise_velocity.pgm`,
//! `fig8_spanwise_vorticity.pgm`); with `--check` a failed comparison
//! exits nonzero, which is the CI contract:
//!
//! ```text
//! dns-validate --smoke --check            # CI-sized gate, ~1 min
//! dns-validate --check                    # full window, ~10 min
//! dns-validate --smoke --laminar; echo $? # forcing off: gate must FAIL
//! ```
//!
//! `--laminar` is the negative control: it turns the forcing off and
//! starts from the laminar profile, so the flow cannot be turbulent and
//! every structure check must fail — proving the gate actually
//! discriminates, not just that the tolerances are wide.

use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};

use dns_core::flags::{on, parsed, put, Command, Flag};
use dns_core::run::{
    execute, InitialCondition, ResumePolicy, RunConfig, RunControl, RunObserver, RunSpec,
    RunStatus, RunSummary,
};
use dns_core::solver::ChannelDns;
use dns_core::stats::{reichardt_u_plus, HistorySample, Profiles, StatsConfig};
use dns_core::{io, moser, spectra, Forcing};
use dns_json::Json;
use dns_minimpi::FaultPlan;
use dns_scaling::report::Table;
use dns_scaling::validation::{all_pass, evaluate, minimal_channel_params, Check, Tolerances};

struct Args {
    steps: usize,
    warmup: usize,
    sample_every: usize,
    smoke: bool,
    check: bool,
    laminar: bool,
    out: PathBuf,
}

/// The flags as given: the window sizes default by `--smoke`, which may
/// come after them.
struct Given {
    args: Args,
    steps: Option<usize>,
    warmup: Option<usize>,
    sample_every: Option<usize>,
}

#[rustfmt::skip] // a table: one row per flag, not one line per field
const FLAGS: &[Flag<Given>] = &[
    Flag("--smoke", "", "CI-sized averaging window with the smoke tolerance set (~5 min)",
        |g, _| on(&mut g.args.smoke)),
    Flag("--check", "", "exit nonzero when any profile check fails the gate",
        |g, _| on(&mut g.args.check)),
    Flag("--laminar", "",
        "negative control: forcing off, fluctuation-free start — the gate must fail",
        |g, _| on(&mut g.args.laminar)),
    Flag("--steps", "N", "total timesteps (default 9000; 4500 with --smoke)",
        |g, v| parsed(v).map(|n| g.steps = Some(n))),
    Flag("--warmup", "N", "steps discarded before averaging (default 5000; 2800 with --smoke)",
        |g, v| parsed(v).map(|n| g.warmup = Some(n))),
    Flag("--sample-every", "N",
        "statistics sampling cadence in steps (default 10; 5 with --smoke)",
        |g, v| parsed(v).map(|n| g.sample_every = Some(n))),
    Flag("--out", "FILE", "result artifact path (default BENCH_validation.json)",
        |g, v| put(&mut g.args.out, v)),
];

const COMMAND: Command<Given> = Command {
    name: "dns-validate",
    about: "turbulence-statistics validation gate (figures 5-8)\n\n\
            usage: dns-validate [flags]\n\nflags:\n",
    flags: FLAGS,
    spec: None,
};

fn finish(g: Given) -> Result<Args, String> {
    let mut args = g.args;
    // The minimal channel transitions between steps ~1800 and ~2600
    // (see the u_tau history in BENCH_validation.json): the warmup must
    // clear both the laminar spin-up and the post-transition overshoot,
    // or the window averages a transient instead of turbulence.
    args.steps = g.steps.unwrap_or(if args.smoke { 4500 } else { 9000 });
    args.warmup = g.warmup.unwrap_or(if args.smoke { 2800 } else { 5000 });
    args.sample_every = g.sample_every.unwrap_or(if args.smoke { 5 } else { 10 });
    if args.warmup >= args.steps {
        return Err("--warmup must be smaller than --steps".into());
    }
    if args.sample_every == 0 {
        return Err("--sample-every must be positive".into());
    }
    Ok(args)
}

/// Captures the engine's final statistics accumulator: `on_finish` runs
/// on every rank with the (rank-replicated) accumulator in place.
struct CaptureStats {
    mean: Mutex<Option<Profiles>>,
    samples: Mutex<u64>,
    history: Mutex<Vec<HistorySample>>,
}

impl RunObserver for CaptureStats {
    fn on_finish(&self, dns: &ChannelDns, summary: RunSummary) {
        if let Some(acc) = dns.stats() {
            *self.samples.lock().unwrap() = acc.count();
            let mean = acc.mean();
            if let Some(p) = &mean {
                write_figures(dns, p).expect("write figure artefacts");
            }
            *self.mean.lock().unwrap() = mean;
            *self.history.lock().unwrap() = acc.history().to_vec();
        }
        if summary.root && summary.steps_ran > 0 {
            println!(
                "  {} steps in {:.1} s ({:.0} ms/step)",
                summary.steps_ran,
                summary.wall_s,
                summary.wall_s / summary.steps_ran as f64 * 1e3
            );
        }
    }
}

/// The figure artefacts, from the gate run itself: the time-averaged
/// profiles in wall units (figures 5 and 6) and the final instantaneous
/// field (figure 7: `u(x, y)` at mid-span; figure 8: `omega_z(x, z)` at
/// `y+ ~ 10`, plus the streak spacing read off the premultiplied
/// spanwise spectrum of `u` at that height).
fn write_figures(dns: &ChannelDns, mean: &Profiles) -> std::io::Result<()> {
    let dir = Path::new("target/figures");
    std::fs::create_dir_all(dir)?;
    let (yp, up) = (mean.y_plus(), mean.u_plus());
    let reich: Vec<f64> = yp.iter().map(|&y| reichardt_u_plus(y)).collect();
    io::write_csv(
        &dir.join("fig5_mean_velocity.csv"),
        &[("y_plus", &yp), ("u_plus", &up), ("reichardt", &reich)],
    )?;
    let ut2 = (mean.u_tau * mean.u_tau).max(1e-300);
    let plus = |v: &[f64], sign: f64| -> Vec<f64> { v.iter().map(|x| sign * x / ut2).collect() };
    let (uu, vv) = (plus(&mean.uu, 1.0), plus(&mean.vv, 1.0));
    let (ww, uv) = (plus(&mean.ww, 1.0), plus(&mean.uv, -1.0));
    io::write_csv(
        &dir.join("fig6_variances.csv"),
        &[
            ("y_plus", &yp),
            ("uu_plus", &uu),
            ("vv_plus", &vv),
            ("ww_plus", &ww),
            ("minus_uv_plus", &uv),
        ],
    )?;
    let u = io::gather_physical(dns, dns.state().u()).expect("single rank gathers");
    let (w, h, slice) = u.slice_xy(u.nz / 2);
    io::write_pgm(&dir.join("fig7_streamwise_velocity.pgm"), w, h, &slice)?;
    let oz = io::gather_physical(dns, &io::omega_z_coefficients(dns)).expect("single rank");
    let nominal_re_tau = 1.0 / dns.params().nu;
    let yj = (0..oz.ny)
        .find(|&j| (1.0 + dns.ops().points()[j]) * nominal_re_tau > 10.0)
        .unwrap_or(3);
    let (w, h, slice) = oz.slice_xz(yj);
    io::write_pgm(&dir.join("fig8_spanwise_vorticity.pgm"), w, h, &slice)?;
    let (mut best_k, mut best) = (1usize, 0.0f64);
    for (k, &e) in spectra::spanwise_u_spectrum_at(dns, yj)
        .iter()
        .enumerate()
        .skip(1)
    {
        if k as f64 * e > best {
            (best_k, best) = (k, k as f64 * e);
        }
    }
    println!(
        "  wrote {}/fig5..fig8; streak spacing lambda_z+ ~ {:.0} at y+ ~ 10 (canonical: ~100)",
        dir.display(),
        dns.params().lz * mean.re_tau / best_k as f64
    );
    Ok(())
}

/// The validation run: the minimal channel, driven through the
/// production engine from a fresh state in its own directory (gate runs
/// must be reproducible, so nothing is resumed).
fn run_window(a: &Args) -> (Profiles, u64, Vec<HistorySample>) {
    let mut params = minimal_channel_params();
    let ic = if a.laminar {
        // negative control: forcing off and no perturbation — the
        // near-wall cycle never forms, the mean shear slowly decays,
        // and every fluctuation statistic is exactly zero. (The
        // `Laminar` IC is the equilibrium of the *configured* pressure
        // gradient, which is zero with forcing off — the turbulent
        // mean at amplitude 0 gives the control a realistic profile.)
        params.forcing = Forcing::None;
        InitialCondition::Turbulent {
            amplitude: 0.0,
            seed: 0,
        }
    } else {
        // scaled-down laminar mean + finite perturbation: the most
        // reliable transition for this box
        InitialCondition::SeededTransition {
            scale: 0.3,
            amplitude: 0.5,
            seed: 2024,
        }
    };
    let spec = RunSpec {
        name: "dns-validate".into(),
        params,
        steps: a.steps as u64,
        ckpt_every: 0,
        ic,
    };
    let dir = PathBuf::from("target/validate");
    let _ = std::fs::remove_dir_all(&dir);
    let mut cfg = RunConfig::in_dir(&dir);
    cfg.resume = ResumePolicy::Fresh;
    cfg.final_checkpoint = false;
    cfg.stats = Some(StatsConfig {
        every: a.sample_every as u64,
        warmup: a.warmup as u64,
    });
    let observer = Arc::new(CaptureStats {
        mean: Mutex::new(None),
        samples: Mutex::new(0),
        history: Mutex::new(Vec::new()),
    });
    let outcome = execute(
        &spec,
        &cfg,
        Arc::new(RunControl::new()),
        Arc::clone(&observer) as Arc<dyn RunObserver>,
        |_| FaultPlan::none(),
    );
    assert_eq!(outcome.status, RunStatus::Done, "validation run failed");
    let samples = *observer.samples.lock().unwrap();
    let mean = observer
        .mean
        .lock()
        .unwrap()
        .take()
        .expect("averaging window produced no samples");
    let history = std::mem::take(&mut *observer.history.lock().unwrap());
    (mean, samples, history)
}

fn checks_json(checks: &[Check]) -> Json {
    Json::Arr(
        checks
            .iter()
            .map(|c| {
                Json::obj()
                    .put("name", Json::str(c.name))
                    .put("region", Json::str(c.region))
                    .put("err_rel", Json::num(c.err_rel))
                    .put("tolerance", Json::num(c.tolerance))
                    .put("pass", Json::Bool(c.pass))
                    .build()
            })
            .collect(),
    )
}

fn rows_json(rows: &[[f64; 6]]) -> Json {
    Json::Arr(
        rows.iter()
            .map(|r| Json::Arr(r.iter().map(|&v| Json::num(v)).collect()))
            .collect(),
    )
}

fn main() {
    let given = Given {
        args: Args {
            steps: 0,
            warmup: 0,
            sample_every: 0,
            smoke: false,
            check: false,
            laminar: false,
            out: PathBuf::from("BENCH_validation.json"),
        },
        steps: None,
        warmup: None,
        sample_every: None,
    };
    let a = COMMAND.parse(given, finish);

    println!(
        "dns-validate: minimal channel, {} steps (warmup {}, sample every {}){}",
        a.steps,
        a.warmup,
        a.sample_every,
        if a.laminar {
            " — LAMINAR NEGATIVE CONTROL"
        } else {
            ""
        }
    );
    let (mean, samples, history) = run_window(&a);
    let rows = moser::wall_folded(&mean);
    let tol = if a.smoke {
        Tolerances::smoke()
    } else {
        Tolerances::full()
    };
    let checks = evaluate(&rows, mean.re_tau, &tol);
    let ok = all_pass(&checks);

    println!(
        "\nmeasured over {samples} samples: u_tau = {:.4}, Re_tau = {:.1}, bulk = {:.3}",
        mean.u_tau, mean.re_tau, mean.bulk_velocity
    );
    let mut table = Table::new(vec!["check", "region", "err_rel", "tolerance", "verdict"]);
    for c in &checks {
        table.row(vec![
            c.name.to_string(),
            c.region.to_string(),
            format!("{:.3}", c.err_rel),
            format!("{:.3}", c.tolerance),
            if c.pass { "pass" } else { "FAIL" }.to_string(),
        ]);
    }
    table.print();

    let reference: Vec<[f64; 6]> = moser::MEAN_VELOCITY_180
        .iter()
        .zip(moser::FLUCTUATIONS_180)
        .map(|(&(yp, up), &(_, uu, vv, ww, uv))| [yp, up, uu, vv, ww, uv])
        .collect();
    let doc = Json::obj()
        .put("schema", Json::num(1))
        .put("kind", Json::str("validation"))
        .put("bench", Json::str("validation"))
        .put("reference_version", Json::num(moser::REFERENCE_VERSION))
        .put(
            "config",
            Json::obj()
                .put("steps", Json::num(a.steps as u32))
                .put("warmup", Json::num(a.warmup as u32))
                .put("sample_every", Json::num(a.sample_every as u32))
                .put("smoke", Json::Bool(a.smoke))
                .put("laminar", Json::Bool(a.laminar))
                .build(),
        )
        .put(
            "measured",
            Json::obj()
                .put("samples", Json::num(samples as u32))
                .put("u_tau", Json::num(mean.u_tau))
                .put("re_tau", Json::num(mean.re_tau))
                .put("bulk_velocity", Json::num(mean.bulk_velocity))
                .build(),
        )
        .put("checks", checks_json(&checks))
        .put("profile_columns", {
            Json::Arr(
                ["y_plus", "u_plus", "urms", "vrms", "wrms", "minus_uv"]
                    .iter()
                    .map(|s| Json::str(*s))
                    .collect(),
            )
        })
        .put("profiles", rows_json(&rows))
        .put("reference", rows_json(&reference))
        .put("history_columns", {
            Json::Arr(
                ["step", "time", "u_tau", "re_tau", "bulk_velocity"]
                    .iter()
                    .map(|s| Json::str(*s))
                    .collect(),
            )
        })
        .put(
            "history",
            Json::Arr(
                history
                    .iter()
                    .map(|h| {
                        Json::Arr(vec![
                            Json::num(h.step as f64),
                            Json::num(h.time),
                            Json::num(h.u_tau),
                            Json::num(h.re_tau),
                            Json::num(h.bulk_velocity),
                        ])
                    })
                    .collect(),
            ),
        )
        .put("ok", Json::Bool(ok))
        .build();
    std::fs::write(&a.out, doc.dump() + "\n").expect("write artifact");
    println!("\nwrote {}", a.out.display());

    if ok {
        println!("validation gate: PASS");
    } else {
        println!("validation gate: FAIL");
        if a.check {
            std::process::exit(1);
        }
    }
}
