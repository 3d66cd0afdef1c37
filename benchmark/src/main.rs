//! Step-time and campaign-latency benchmark of the channel DNS stack.
//!
//! `--workload W --seed N --seconds S --trace 0|1` runs one workload in
//! one mode and ends its standard output with one JSON result line (the
//! driver's contract, `BENCHMARK.json`). Without `--workload` it runs the
//! whole set, each (workload, mode) in a child process of its own, prints
//! a side-by-side table and writes `benchmark/out/BENCH_step.json`;
//! `--selfcheck` does that twice and fails when the two sets disagree;
//! `--spread N` repeats the end-to-end runs over N seeds and prints each
//! metric's run-to-run spread against its bound.
//! See README.md for what every workload and metric means.

mod alloc;
mod boxrun;
mod campaign;
mod host;
mod pfftrun;
mod probes;
mod report;
mod spans;
mod stats;
mod suite;
mod traced;

use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::Arc;

use report::Report;
use spans::Recorder;

#[global_allocator]
static ALLOC: alloc::Counting = alloc::Counting;

/// Every workload the program runs.
pub const WORKLOADS: [&str; 8] = [
    "box_1x1",
    "box_2x1",
    "box_1x1_t2",
    "box_prod",
    "pfft_1x2",
    "campaign_launch",
    "campaign_preempt",
    "campaign_queue",
];

/// The workloads `BENCHMARK.json` lists, in its order: the ones that keep
/// one thread busy, whose timings hold still on a shared 2-core host
/// (README.md, "Which workloads the driver runs"). The others run by name
/// and in the whole set.
pub const LISTED: [&str; 4] = ["box_1x1", "box_prod", "campaign_preempt", "campaign_queue"];

pub struct Args {
    pub workload: Option<String>,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub selfcheck: bool,
    /// Runs per workload of the spread study (0: not asked for).
    pub spread: u64,
}

impl Args {
    /// Seconds of the timed window of an end-to-end run: four fifths of
    /// `--seconds`; set-up sampling and the correctness checks take the
    /// rest, so a run ends about `--seconds` after it began.
    pub fn window_s(&self) -> f64 {
        0.8 * self.seconds
    }
}

const USAGE: &str = "usage: dns-benchmark [--workload NAME] [--seed N] [--seconds S] \
                     [--trace 0|1] [--selfcheck | --spread RUNS]";

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 1,
        seconds: 8.0,
        trace: false,
        selfcheck: false,
        spread: 0,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = Some(value()?),
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(args.seconds > 0.0 && args.seconds <= 60.0) {
                    return Err("--seconds must be in (0, 60]".into());
                }
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--selfcheck" => args.selfcheck = true,
            "--spread" => args.spread = value()?.parse().map_err(|e| format!("--spread: {e}"))?,
            "--help" | "-h" => return Err(USAGE.into()),
            other => return Err(format!("unknown flag {other}\n{USAGE}")),
        }
    }
    if let Some(w) = &args.workload {
        if !WORKLOADS.contains(&w.as_str()) {
            return Err(format!("unknown workload {w}; one of {WORKLOADS:?}"));
        }
    }
    Ok(args)
}

/// `benchmark/out`, next to this package's manifest.
pub fn out_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// Busy threads the workload needs at once (ranks x threads; the
/// campaign daemon schedules one core and the client mostly sleeps).
fn cores_needed(workload: &str) -> usize {
    match boxrun::CASES.iter().find(|c| c.name == workload) {
        Some(case) => case.cores(),
        None if workload == "pfft_1x2" => pfftrun::RANKS,
        None => 1,
    }
}

fn run_one(workload: &str, args: &Args) -> std::io::Result<()> {
    let host = host::Host::detect();
    let mode = if args.trace { "layers" } else { "e2e" };
    println!(
        "# {workload} ({mode}) seed {} seconds {} | nproc {} | {} | {} | commit {}",
        args.seed, args.seconds, host.nproc, host.cpu, host.rustc, host.commit
    );
    let oversubscribed = cores_needed(workload) > host.nproc;
    if oversubscribed {
        println!(
            "# OVERSUBSCRIBED: {workload} keeps {} threads busy on {} cores; \
             its timings are scheduler noise, only its counts mean anything",
            cores_needed(workload),
            host.nproc
        );
    }

    let out = out_dir();
    let tmp = out.join(format!("tmp-{workload}-{}", std::process::id()));
    std::fs::create_dir_all(&tmp)?;
    let rec = Arc::new(Recorder::new());
    let mut report = Report::new(args.trace);
    match workload {
        "pfft_1x2" => pfftrun::run(args, &rec, &mut report),
        "campaign_launch" => campaign::launch(args, &tmp, &rec, &mut report),
        "campaign_preempt" => campaign::preempt(args, &tmp, &rec, &mut report),
        "campaign_queue" => campaign::queue(args, &tmp, &rec, &mut report),
        name => {
            let case = boxrun::CASES
                .into_iter()
                .find(|c| c.name == name)
                .expect("workload names were validated");
            boxrun::run(case, args, &tmp, &rec, &mut report);
        }
    }
    let _ = std::fs::remove_dir_all(&tmp);
    if !args.trace {
        // a user-visible metric that is zero or not a number was not measured
        for (def, v, _) in report.metrics() {
            report.check(v.is_finite() && v > 0.0, || format!("{} = {v}", def.name));
        }
    }
    report.extra("oversubscribed", f64::from(oversubscribed), "bool");

    print!("{}", report.table());
    let flat = report.flat_json(workload, host.to_json(args.seed));
    std::fs::write(
        out.join(format!("{workload}.{mode}.json")),
        flat.dump() + "\n",
    )?;
    if args.trace {
        let trace = spans::chrome_trace(&rec.finish());
        std::fs::write(out.join(format!("trace_{workload}.json")), trace + "\n")?;
    }
    println!("{}", report.result_line());
    Ok(())
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("dns-benchmark: {e}");
            return ExitCode::from(2);
        }
    };
    let done = match &args.workload {
        _ if args.spread > 0 => suite::spread(&args),
        Some(w) => run_one(w, &args).map(|()| true),
        None => suite::run(&args),
    };
    match done {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("dns-benchmark: {e}");
            ExitCode::FAILURE
        }
    }
}
