//! Fused vs unfused nonlinear-pipeline benchmark (DESIGN.md section 4.1).
//!
//! Times one full nonlinear-term evaluation both ways on a single rank:
//! the pre-fusion reference (`compute_unfused`: six products through the
//! batched full-field transforms) against the production fused pipeline
//! (`compute_into`: five products formed in-cache between the x-inverse
//! and x-forward passes, zero steady-state allocations), across on-node
//! thread counts. DDR traffic per evaluation comes from the telemetry
//! `DdrBytes` counter. Results land in `BENCH_fusion.json`, stamped with
//! the host they were taken on; a row with more threads than the host has
//! cores is marked `oversubscribed` (its timings measure the scheduler).
//!
//! ```text
//! cargo run -p dns-bench --release --bin fusion
//! cargo run -p dns-bench --release --bin fusion -- --smoke
//! cargo run -p dns-bench --release --bin fusion -- --nx 64 --threads 1,2
//! ```

use dns_bench::report::{host_json, nproc, secs, Table};
use dns_bench::time_it;
use dns_core::nonlinear::{self, NlTerms, NlWorkspace};
use dns_core::{run_serial, Params};
use dns_telemetry as telemetry;

struct Opts {
    nx: usize,
    ny: usize,
    nz: usize,
    threads: Vec<usize>,
    min_time: f64,
    out: String,
}

fn parse(argv: &[String]) -> Result<Opts, String> {
    let mut o = Opts {
        nx: 128,
        ny: 129,
        nz: 128,
        threads: vec![1, 2, 4],
        min_time: 0.5,
        out: "BENCH_fusion.json".to_string(),
    };
    let mut i = 1;
    while i < argv.len() {
        let val = |i: &mut usize| -> Result<String, String> {
            *i += 1;
            let flag = &argv[*i - 1];
            argv.get(*i)
                .cloned()
                .ok_or_else(|| format!("{flag} needs a value"))
        };
        let num = |i: &mut usize| -> Result<usize, String> {
            let s = val(i)?;
            s.parse().map_err(|_| format!("cannot parse {s:?}"))
        };
        match argv[i].as_str() {
            "--nx" => o.nx = num(&mut i)?,
            "--ny" => o.ny = num(&mut i)?,
            "--nz" => o.nz = num(&mut i)?,
            "--out" => o.out = val(&mut i)?,
            "--threads" => {
                o.threads = val(&mut i)?
                    .split(',')
                    .map(|s| s.parse().map_err(|_| format!("bad thread count {s:?}")))
                    .collect::<Result<_, _>>()?;
            }
            "--smoke" => {
                // CI-sized: seconds, not minutes, but the same code paths
                o.nx = 32;
                o.ny = 33;
                o.nz = 32;
                o.threads = vec![1, 2];
                o.min_time = 0.1;
            }
            "--help" | "-h" => {
                println!(
                    "fusion: fused vs unfused nonlinear pipeline benchmark\n\n\
                     usage: fusion [--nx N] [--ny N] [--nz N] [--threads 1,2,4]\n\
                     \x20              [--out FILE] [--smoke]"
                );
                std::process::exit(0);
            }
            other => return Err(format!("unknown argument {other}")),
        }
        i += 1;
    }
    Ok(o)
}

/// Per-thread-count measurements (seconds per evaluation, DDR bytes per
/// evaluation from the telemetry counter).
struct Row {
    threads: usize,
    unfused_s: f64,
    fused_s: f64,
    unfused_ddr: u64,
    fused_ddr: u64,
}

/// DDR bytes of one closure invocation, per the transpose-layer counter.
fn ddr_of(f: impl FnOnce()) -> u64 {
    telemetry::set_level(telemetry::Level::Phases);
    telemetry::flush_thread();
    telemetry::reset();
    f();
    telemetry::flush_thread();
    let bytes = telemetry::snapshot()
        .total_counters()
        .get(telemetry::Counter::DdrBytes);
    telemetry::set_level(telemetry::Level::Off);
    bytes
}

fn measure(base: &Params, threads: usize, min_time: f64) -> Row {
    let params = base.clone().with_fft_threads(threads);
    let (unfused_s, fused_s, unfused_ddr, fused_ddr) = run_serial(params, move |dns| {
        dns.set_turbulent_mean(1.0);
        dns.add_perturbation(0.5, 2024);
        let mut out = NlTerms::default();
        let mut ws = NlWorkspace::default();
        nonlinear::compute_into(dns, &mut out, &mut ws); // warm buffers
        let fused_s = time_it(min_time, 3, || {
            nonlinear::compute_into(dns, &mut out, &mut ws);
            std::hint::black_box(&out);
        });
        let unfused_s = time_it(min_time, 3, || {
            std::hint::black_box(nonlinear::compute_unfused(dns));
        });
        let fused_ddr = ddr_of(|| nonlinear::compute_into(dns, &mut out, &mut ws));
        let unfused_ddr = ddr_of(|| {
            std::hint::black_box(nonlinear::compute_unfused(dns));
        });
        (unfused_s, fused_s, unfused_ddr, fused_ddr)
    });
    Row {
        threads,
        unfused_s,
        fused_s,
        unfused_ddr,
        fused_ddr,
    }
}

fn main() {
    let argv: Vec<String> = std::env::args().collect();
    let o = match parse(&argv) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("fusion: {e}\n(run with --help for usage)");
            std::process::exit(2);
        }
    };
    println!(
        "fused vs unfused nonlinear evaluation: {} x {} x {} modes, 1 rank",
        o.nx, o.ny, o.nz
    );

    let mut base = Params::channel(o.nx, o.ny, o.nz, 180.0).with_dt(5e-4);
    base.lx = 2.0;
    base.lz = 0.8;
    base.grid_stretch = 1.9;

    let rows: Vec<Row> = o
        .threads
        .iter()
        .map(|&t| measure(&base, t, o.min_time))
        .collect();

    let mut table = Table::new(vec![
        "threads",
        "unfused/eval",
        "fused/eval",
        "speedup",
        "unfused DDR",
        "fused DDR",
    ]);
    for r in &rows {
        table.row(vec![
            r.threads.to_string(),
            secs(r.unfused_s),
            secs(r.fused_s),
            format!("{:.2}x", r.unfused_s / r.fused_s),
            format!("{:.1} MB", r.unfused_ddr as f64 / 1e6),
            format!("{:.1} MB", r.fused_ddr as f64 / 1e6),
        ]);
    }
    table.print();
    println!(
        "\nnotes: unfused = six products, full-field DDR round trip between the\n\
         inverse and forward transforms, allocating; fused = five products formed\n\
         per cache-sized x-line batch, persistent workspace (zero steady-state\n\
         allocations). DDR bytes are the transpose-layer counter only."
    );

    let nproc = nproc();
    let json_rows: Vec<String> = rows
        .iter()
        .map(|r| {
            format!(
                "    {{\"threads\": {}, \"oversubscribed\": {}, \"unfused_s\": {:.6e}, \
                 \"fused_s\": {:.6e}, \"speedup\": {:.4}, \"unfused_ddr_bytes\": {}, \
                 \"fused_ddr_bytes\": {}}}",
                r.threads,
                r.threads > nproc,
                r.unfused_s,
                r.fused_s,
                r.unfused_s / r.fused_s,
                r.unfused_ddr,
                r.fused_ddr
            )
        })
        .collect();
    let json = format!(
        "{{\n  \"bench\": \"fusion\",\n  \"host\": {},\n  \
         \"grid\": {{\"nx\": {}, \"ny\": {}, \"nz\": {}}},\n  \"rows\": [\n{}\n  ]\n}}\n",
        host_json().dump(),
        o.nx,
        o.ny,
        o.nz,
        json_rows.join(",\n")
    );
    std::fs::write(&o.out, json).expect("write benchmark JSON");
    println!("\nwrote {}", o.out);
}
