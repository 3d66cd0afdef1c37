//! `dns-scaling` — the reproduction driver: one measured-vs-modelled
//! campaign, every table of the paper.
//!
//! Runs the real stack (full RK3 steps and bare pfft cycles on minimpi)
//! at every rank/thread configuration the host holds plus the host
//! kernel probes, harvests the telemetry counter export per point, fits
//! the host calibration from the measured counts, extrapolates every
//! curve to the paper's core counts through the machine models, and
//! writes `BENCH_table1.json` … `BENCH_table11.json`, `BENCH_fusion.json`
//! and `BENCH_scalinglab.json` (section 7 is its `conclusions`),
//! printing each table as text.
//!
//! Usage: `dns-scaling [--smoke] [--check] [--out-dir DIR]`
//!
//! Under `--check` the process exits non-zero if any gated point's
//! total-time model error exceeds the bound, or a family has no gated
//! point (every one of its points used more cores than the host has).

use dns_scaling::campaign::BOUND;
use dns_scaling::tables::{rows_text, table_text, write_all};
use dns_scaling::{run, CampaignConfig};
use std::path::PathBuf;
use std::process::ExitCode;

fn main() -> ExitCode {
    let (mut smoke, mut check, mut out_dir) = (false, false, PathBuf::from("."));
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--smoke" => smoke = true,
            "--check" => check = true,
            "--out-dir" => out_dir = PathBuf::from(args.next().expect("--out-dir needs a path")),
            other => {
                eprintln!("unknown flag: {other}");
                eprintln!("usage: dns-scaling [--smoke] [--check] [--out-dir DIR]");
                return ExitCode::from(2);
            }
        }
    }

    println!(
        "== dns-scaling: measured-vs-modelled campaign ({} mode) ==",
        if smoke { "smoke" } else { "full" }
    );
    let c = run(CampaignConfig { smoke, out_dir }).expect("campaign failed");
    let files = write_all(&c).expect("write BENCH tables");
    for (_, value) in &files {
        if value.get("sections").is_some() {
            println!("\n{}", table_text(value));
            continue;
        }
        let block = |key| value.get(key).expect("scalinglab block");
        println!("\n== Section 7: conclusions, quantified ==");
        for key in ["aggregate", "sensitivity", "hybrid_vs_mpi"] {
            let rows = block("conclusions").get(key).expect("conclusions block");
            print!("\n{key}\n{}", rows_text(rows));
        }
        println!("\n== host calibration (points with cores <= nproc) and count ratios ==");
        for key in ["rk3", "pfft"] {
            let rates = block("calibration").get(key).expect("calibration block");
            print!("\n{key}\n{}", rows_text(rates));
        }
        print!(
            "\nmeasured / analytic\n{}",
            rows_text(block("count_ratios"))
        );
    }

    println!("\nwrote:");
    for (path, _) in &files {
        println!("  {}", path.display());
    }

    let (worst, i) = c.worst_err();
    let gated = c.points.iter().filter(|p| !p.oversubscribed()).count();
    println!(
        "\noverlap check: worst err_rel {:.1}% at {} (bound {:.1}%, {gated} of {} points gated)",
        worst * 100.0,
        c.points[i].name(),
        BOUND * 100.0,
        c.points.len()
    );
    for b in c.ungated_families() {
        eprintln!(
            "UNGATED: every {} point is oversubscribed on this host; the gate cannot speak for it",
            b.label()
        );
    }
    if check && !c.check_passes() {
        eprintln!("CHECK FAILED: model error exceeds the bound, or a family is ungated");
        return ExitCode::FAILURE;
    }
    if check {
        println!("CHECK PASSED");
    }
    ExitCode::SUCCESS
}
