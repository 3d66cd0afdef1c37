//! Run every table reproduction in sequence and write the reports to
//! `target/reports/` — the one-command regeneration of the paper's
//! quantitative artefacts (figures 5-8 come from `dns-validate`, which
//! runs the real DNS for minutes).
//!
//! The sequence ends with the `dns-scaling` campaign harness, which
//! probes the real stack, calibrates the machine model from harvested
//! counts, and writes `BENCH_table6.json` … `BENCH_table11.json` plus
//! `BENCH_scalinglab.json` into the report directory (failing the whole
//! reproduction if any overlap-region model error exceeds the bound).
//!
//! It launches its sibling binaries (including `dns-scaling` from another
//! package), so build the whole workspace first:
//!
//! ```text
//! cargo build --release --workspace && target/release/reproduce_all
//! ```

use std::path::Path;
use std::process::Command;

fn main() {
    let out_dir = Path::new("target/reports");
    let campaign_args = vec![
        "--smoke".to_string(),
        "--check".to_string(),
        "--out-dir".to_string(),
        out_dir.display().to_string(),
    ];
    let bins: Vec<(&str, Vec<String>)> = vec![
        ("table1", vec![]),
        ("table2", vec![]),
        ("table3", vec![]),
        ("table4", vec![]),
        ("table5", vec![]),
        ("conclusions", vec![]),
        ("dns-scaling", campaign_args),
    ];
    // locate sibling binaries next to this executable
    let me = std::env::current_exe().expect("current exe");
    let bin_dir = me.parent().expect("bin dir");
    if let Some(missing) = bins
        .iter()
        .map(|(b, _)| bin_dir.join(b))
        .find(|p| !p.exists())
    {
        eprintln!(
            "reproduce_all: {} is not built; run `cargo build --release --workspace` first",
            missing.display()
        );
        std::process::exit(2);
    }
    std::fs::create_dir_all(out_dir).expect("create report directory");
    let mut failed = Vec::new();
    for (b, args) in &bins {
        print!("running {b:>12} ... ");
        use std::io::Write;
        std::io::stdout().flush().ok();
        let exe = bin_dir.join(b);
        let output = Command::new(&exe)
            .args(args)
            .output()
            .unwrap_or_else(|e| panic!("launch {}: {e}", exe.display()));
        let path = out_dir.join(format!("{b}.txt"));
        std::fs::write(&path, &output.stdout).expect("write report");
        if output.status.success() {
            println!("ok -> {}", path.display());
        } else {
            println!("FAILED (exit {:?})", output.status.code());
            failed.push(*b);
        }
    }
    // the campaign must have produced every table's JSON artefact
    for t in [6, 7, 8, 9, 10, 11] {
        let f = out_dir.join(format!("BENCH_table{t}.json"));
        if !f.exists() {
            println!("missing campaign artefact: {}", f.display());
            failed.push("BENCH_table json");
        }
    }
    if !out_dir.join("BENCH_scalinglab.json").exists() {
        println!("missing campaign artefact: BENCH_scalinglab.json");
        failed.push("BENCH_scalinglab.json");
    }
    if failed.is_empty() {
        println!("\nall table reproductions complete (campaign included); see");
        println!("EXPERIMENTS.md for the paper-vs-model commentary, target/reports/");
        println!("for the raw rows and the BENCH_table*.json campaign artefacts.");
    } else {
        panic!("failed: {failed:?}");
    }
}
