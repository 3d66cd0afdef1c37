//! The whole set in one command: every workload in both modes, each in a
//! child process of its own (clean `VmHWM`, telemetry registry and
//! allocation counter), run one after the other. Writes
//! `out/BENCH_step.json`; `--selfcheck` runs two sets and compares them.

use std::collections::BTreeMap;
use std::process::Command;

use dns_json::Json;

use crate::report::{END_TO_END, EXACT_COUNTS, PER_LAYER};
use crate::stats::{iqr_over_median, median};
use crate::{cores_needed, host, out_dir, Args, LISTED, WORKLOADS};

/// `"<workload>.<metric>"` -> value, for one full set.
type Set = BTreeMap<String, f64>;

fn io_err(msg: String) -> std::io::Error {
    std::io::Error::other(msg)
}

/// Run one (workload, mode) child; its metrics, and whether it was
/// correct.
fn child(
    workload: &str,
    trace: bool,
    seed: u64,
    args: &Args,
) -> std::io::Result<(Vec<(String, f64)>, bool)> {
    let out = Command::new(std::env::current_exe()?)
        .args(["--workload", workload])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .output()?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    let last = stdout.lines().last().unwrap_or("");
    let parsed = dns_json::parse(last).ok().filter(|_| out.status.success());
    let Some(Json::Obj(top)) = parsed else {
        let stderr = String::from_utf8_lossy(&out.stderr);
        return Err(io_err(format!(
            "{workload} (trace {trace}) printed no result ({}):\n{stdout}{stderr}",
            out.status
        )));
    };
    for line in stdout
        .lines()
        .filter(|l| l.contains("FAILED") || l.starts_with("# OVER"))
    {
        println!("    {line}");
    }
    let Some(Json::Obj(metrics)) = top.get("metrics") else {
        return Err(io_err(format!("{workload}: result line has no metrics")));
    };
    let values = metrics
        .iter()
        .filter_map(|(k, v)| Some((k.clone(), v.get("value")?.as_f64()?)))
        .collect();
    let correct = top.get("correct").and_then(Json::as_bool) == Some(true);
    Ok((values, correct))
}

fn run_set(args: &Args, nproc: usize) -> std::io::Result<(Set, bool)> {
    let mut set = Set::new();
    let mut all_correct = true;
    for workload in WORKLOADS {
        let oversubscribed = cores_needed(workload) > nproc;
        for trace in [false, true] {
            println!(
                "  running {workload} ({})",
                if trace { "layers" } else { "e2e" }
            );
            let (values, correct) = child(workload, trace, args.seed, args)?;
            all_correct &= correct;
            for (name, v) in values {
                // never silently timed: an oversubscribed workload keeps
                // its exact counts and nothing else
                if !oversubscribed || EXACT_COUNTS.contains(&name.as_str()) {
                    set.insert(format!("{workload}.{name}"), v);
                }
            }
        }
        set.insert(
            format!("{workload}.oversubscribed"),
            f64::from(oversubscribed),
        );
    }
    // derived, printed but never gated
    let ratio = |set: &Set, a: &str, b: &str| Some(set.get(a)? / set.get(b)?);
    let derived = [
        (
            "strong_eff_2x1",
            ratio(&set, "box_1x1.op_s", "box_2x1.op_s").map(|r| r / 2.0),
        ),
        (
            "thread_eff_t2",
            ratio(&set, "box_1x1.op_s", "box_1x1_t2.op_s").map(|r| r / 2.0),
        ),
        (
            "prod_overhead_frac",
            ratio(&set, "box_prod.wall_per_op_s", "box_1x1.wall_per_op_s").map(|r| r - 1.0),
        ),
    ];
    for (name, v) in derived {
        if let Some(v) = v {
            set.insert(format!("derived.{name}"), v);
        }
    }
    Ok((set, all_correct))
}

fn unit_of(key: &str) -> &'static str {
    END_TO_END
        .iter()
        .chain(PER_LAYER)
        .find(|d| key.ends_with(&format!(".{}", d.name)))
        .map_or("", |d| d.unit)
}

fn print_sets(sets: &[Set]) {
    // a layer that is not on a workload's path reads 0 there: not shown
    let on_path = |key: &&String| sets.iter().any(|s| s.get(*key).is_some_and(|v| *v != 0.0));
    for key in sets[0].keys().filter(on_path) {
        let cells: Vec<String> = sets
            .iter()
            .map(|s| s.get(key).map_or("-".into(), |v| format!("{v:>14.6e}")))
            .collect();
        println!("  {key:<58} {} {}", cells.join(" "), unit_of(key));
    }
}

/// `(metric, bound)` of every end-to-end metric, from `BENCHMARK.json`.
fn bounds() -> std::io::Result<Vec<(String, f64)>> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let v = dns_json::parse(&std::fs::read_to_string(path)?)
        .map_err(|e| io_err(format!("BENCHMARK.json: {e}")))?;
    let listed = v.get("end_to_end").and_then(Json::as_arr).unwrap_or(&[]);
    Ok(listed
        .iter()
        .filter_map(|m| {
            Some((
                m.get("name")?.as_str()?.to_string(),
                m.get("bound")?.as_f64()?,
            ))
        })
        .collect())
}

/// Two sets of the same code must agree: every end-to-end metric of a
/// listed workload within its bound, every exact count bit for bit. (The
/// unlisted workloads keep both cores busy; on a 2-core host their
/// timings are shown, not held.)
fn disagreements(a: &Set, b: &Set) -> std::io::Result<Vec<String>> {
    let mut bad = Vec::new();
    let bounds = bounds()?;
    for (key, &va) in a {
        let Some(&vb) = b.get(key) else { continue };
        let (workload, metric) = key.split_once('.').unwrap_or(("", ""));
        if let Some((_, bound)) = bounds.iter().find(|(name, _)| name == metric) {
            let rel = (vb - va).abs() / va.abs();
            if rel > *bound && LISTED.contains(&workload) {
                bad.push(format!(
                    "{key}: {va:e} vs {vb:e} differ by {rel:.3} > {bound}"
                ));
            }
        } else if EXACT_COUNTS.contains(&metric) && va.to_bits() != vb.to_bits() {
            bad.push(format!("{key}: exact count {va} vs {vb}"));
        }
    }
    Ok(bad)
}

pub fn run(args: &Args) -> std::io::Result<bool> {
    let host = host::Host::detect();
    println!(
        "# dns-benchmark suite | seed {} | {} s per run | nproc {} | {} | {} | commit {}",
        args.seed, args.seconds, host.nproc, host.cpu, host.rustc, host.commit
    );
    let mut sets = Vec::new();
    let mut ok = true;
    for i in 0..if args.selfcheck { 2 } else { 1 } {
        println!("set {i}:");
        let (set, correct) = run_set(args, host.nproc)?;
        ok &= correct;
        sets.push(set);
    }
    print_sets(&sets);
    if !ok {
        println!("FAILED: some operations failed (see above); failed_frac must be 0");
    }
    if let [a, b] = &sets[..] {
        let bad = disagreements(a, b)?;
        for line in &bad {
            println!("SELFCHECK FAILED: {line}");
        }
        ok &= bad.is_empty();
        if bad.is_empty() {
            println!("selfcheck: the two sets agree within the benchmark's bounds");
        }
    }

    // flat numeric leaves, so `dns-perfdb ingest` reads it unchanged; no
    // gain is claimed, and the summary says so last
    let mut b = Json::obj()
        .put("kind", Json::str("bench_step"))
        .put("host", host.to_json(args.seed))
        .put("run_seconds", Json::Num(args.seconds));
    for (key, v) in &sets[0] {
        b = b.put(key.as_str(), Json::Num(*v));
    }
    let mut text = b.build().dump();
    text.truncate(text.len() - 1);
    text += ",\"claim\":null}\n";
    std::fs::create_dir_all(out_dir())?;
    let path = out_dir().join("BENCH_step.json");
    std::fs::write(&path, text)?;
    println!("wrote {}", path.display());
    Ok(ok)
}

/// The study the driver repeats before it accepts the benchmark: run the
/// end-to-end mode `args.spread` times per workload (the listed ones,
/// unless one is named), each on another seed, and hold every metric's
/// interquartile range over its median against a third of its bound
/// (`setup_s` is reported, not held).
pub fn spread(args: &Args) -> std::io::Result<bool> {
    let bounds = bounds()?;
    let workloads: Vec<&str> = match &args.workload {
        Some(w) => vec![w.as_str()],
        None => LISTED.to_vec(),
    };
    let mut ok = true;
    for workload in workloads {
        let mut runs: BTreeMap<String, Vec<f64>> = BTreeMap::new();
        for i in 0..args.spread {
            let (values, correct) = child(workload, false, args.seed + i, args)?;
            ok &= correct;
            for (name, v) in values {
                runs.entry(name).or_default().push(v);
            }
        }
        for (name, bound) in &bounds {
            let xs = &runs[name];
            let spread = iqr_over_median(xs);
            let held = name != "setup_s";
            let steady = !held || spread <= bound / 3.0;
            ok &= !held || spread <= *bound;
            println!(
                "  {workload:<18} {name:<14} median {:>12.6e}  spread {spread:.4}  bound {bound}  {}",
                median(xs),
                if steady { "ok" } else { "above a third of the bound" }
            );
            let runs: Vec<String> = xs.iter().map(|x| format!("{x:.4e}")).collect();
            println!("    runs: {}", runs.join(" "));
        }
    }
    Ok(ok)
}
