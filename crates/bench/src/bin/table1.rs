//! Table 1 — elapsed time for solving the collocation-like banded system
//! (N = 1024, complex right-hand side), custom corner-folded solver vs
//! general banded LU with partial pivoting — plus the batched multi-RHS
//! sweep behind DESIGN.md section 4.2.
//!
//! The classic table is *measured for real on this host* (it is pure
//! single-core linear algebra); the paper's Lonestar/Mira numbers are
//! printed alongside. All times are normalised by the general
//! complex-storage solve (the `ZGBTRF/ZGBTRS` Netlib route), matching
//! the paper's normalisation.
//!
//! The sweep then times W independent scalar `CornerLu::solve_complex`
//! calls against one `BatchedFactor::solve_panel` over the same W
//! right-hand sides, across panel widths and matrix sizes — and, for one
//! operator shared by all W (the `B0`/`B1`/`B2` case of the DNS), the
//! scalar `solve_complex` / `matvec_complex` calls against
//! `CornerLu::solve_panel` / `CornerBanded::matvec_panel`. Last come the
//! set-up rows: one Helmholtz family of the DNS built per mode
//! (`combine` -> `set_boundary_row` -> `CornerLu::factor`) against the
//! lane-blocked construction (`LaneBand` assemble -> factor ->
//! `BatchedFactor::set_block`), solutions pinned bit-equal. Everything
//! is written to `BENCH_table1.json`.
//!
//! ```text
//! cargo run -p dns-bench --release --bin table1
//! cargo run -p dns-bench --release --bin table1 -- --smoke
//! cargo run -p dns-bench --release --bin table1 -- --widths 8,32 --sizes 1024
//! ```

use dns_banded::testmat::CollocationLike;
use dns_banded::{BandedLu, BatchedFactor, CornerLu, LaneBand, RhsPanel, C64, LANES};
use dns_bench::report::{host_json, nproc, secs, Table};
use dns_bench::{paper, time_it};
use dns_bspline::{tanh_breakpoints, BsplineBasis, CollocationOps};

struct Opts {
    widths: Vec<usize>,
    sizes: Vec<usize>,
    bandwidth: usize,
    threads: usize,
    min_time: f64,
    out: String,
    classic: bool,
    /// `(ny, width)` of the set-up rows.
    setups: Vec<(usize, usize)>,
}

fn parse(argv: &[String]) -> Result<Opts, String> {
    let mut o = Opts {
        widths: vec![1, 2, 4, 8, 16, 32, 64],
        sizes: vec![256, 1024],
        bandwidth: 15,
        threads: 2,
        min_time: 0.2,
        out: "BENCH_table1.json".to_string(),
        classic: true,
        // the 48 x 49 x 48 reference box, and a taller channel
        setups: vec![(49, 1127), (129, 1127)],
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
        let list = |i: &mut usize| -> Result<Vec<usize>, String> {
            val(i)?
                .split(',')
                .map(|s| s.parse().map_err(|_| format!("bad list entry {s:?}")))
                .collect()
        };
        match argv[i].as_str() {
            "--widths" => o.widths = list(&mut i)?,
            "--sizes" => o.sizes = list(&mut i)?,
            "--bandwidth" => o.bandwidth = num(&mut i)?,
            "--threads" => o.threads = num(&mut i)?,
            "--out" => o.out = val(&mut i)?,
            "--no-classic" => o.classic = false,
            "--smoke" => {
                // CI-sized: seconds, not minutes, but the same code paths
                o.widths = vec![1, 8, 32];
                o.sizes = vec![128];
                o.min_time = 0.05;
                o.setups = vec![(25, 119)];
            }
            "--help" | "-h" => {
                println!(
                    "table1: banded solve benchmark (paper Table 1 + batched multi-RHS sweep)\n\n\
                     usage: table1 [--widths 1,8,32] [--sizes 256,1024] [--bandwidth B]\n\
                     \x20              [--threads N] [--out FILE] [--no-classic] [--smoke]"
                );
                std::process::exit(0);
            }
            other => return Err(format!("unknown argument {other}")),
        }
        i += 1;
    }
    if o.bandwidth.is_multiple_of(2) || o.bandwidth < 3 {
        return Err("--bandwidth must be odd and >= 3".into());
    }
    Ok(o)
}

/// Classic Table 1: per-bandwidth scalar solver comparison against the
/// paper's published normalised times.
fn classic_table(min_time: f64) -> Vec<(usize, f64, f64)> {
    println!("== Table 1: banded solve, N = 1024, complex RHS ==");
    println!(
        "(normalised by the general complex-banded solve; paper normalises by Netlib ZGBTRS)\n"
    );
    let mut t = Table::new(vec![
        "bandwidth",
        "general^R (here)",
        "general^C (here)",
        "custom (here)",
        "custom/general^C",
        "MKL^R (paper)",
        "MKL^C (paper)",
        "custom (paper,Lonestar)",
        "ESSL (paper)",
        "custom (paper,Mira)",
    ]);
    let mut rows = Vec::new();
    for &(bw, p_mkl_r, p_mkl_c, p_cust_l, p_essl, p_cust_m) in paper::TABLE1 {
        let cfg = CollocationLike::table1(bw);
        let rhs = cfg.rhs();

        // factor once (as the DNS does: operators factored at start-up),
        // time the repeated solves which dominate the timestep
        let lu_r = BandedLu::factor(&cfg.general::<f64>()).unwrap();
        let lu_z = BandedLu::factor(&cfg.general::<C64>()).unwrap();
        let lu_c = CornerLu::factor(cfg.corner()).unwrap();

        let mut buf = rhs.clone();
        let mut scratch = vec![0.0; 2 * cfg.n];
        let t_r = time_it(min_time, 10, || {
            buf.copy_from_slice(&rhs);
            lu_r.solve_complex_split(&mut buf, &mut scratch);
            std::hint::black_box(&buf);
        });
        let t_z = time_it(min_time, 10, || {
            buf.copy_from_slice(&rhs);
            lu_z.solve(&mut buf);
            std::hint::black_box(&buf);
        });
        let t_c = time_it(min_time, 10, || {
            buf.copy_from_slice(&rhs);
            lu_c.solve_complex(&mut buf);
            std::hint::black_box(&buf);
        });
        t.row(vec![
            format!("{bw}"),
            format!("{:.3}", t_r / t_z),
            "1.000".to_string(), // t_z / t_z: the normalisation column
            format!("{:.3}", t_c / t_z),
            format!("{:.2}x faster", t_z / t_c),
            format!("{p_mkl_r}"),
            format!("{p_mkl_c}"),
            format!("{p_cust_l}"),
            format!("{p_essl}"),
            format!("{p_cust_m}"),
        ]);
        rows.push((bw, t_z, t_c));
    }
    t.print();
    rows
}

/// One point of the batched sweep: W distinct operators (same band
/// structure, different entries — as the per-(kx,kz) Helmholtz operators
/// in the DNS), solved scalar one-by-one vs as one SoA panel.
struct SweepRow {
    n: usize,
    width: usize,
    scalar_s: f64,
    batched_s: f64,
    threaded_s: f64,
    max_rel_err: f64,
    /// Shared-operator rows: `[scalar, panel]` seconds for W solves and
    /// for W matvecs against one operator.
    shared_solve_s: [f64; 2],
    shared_matvec_s: [f64; 2],
}

fn sweep_point(
    n: usize,
    width: usize,
    bandwidth: usize,
    min_time: f64,
    pool: &rayon::ThreadPool,
) -> SweepRow {
    let p = bandwidth / 2;
    let mats: Vec<_> = (0..width)
        .map(|m| {
            CollocationLike {
                n,
                p,
                nc: 2.min(p),
                seed: 1 + m as u64,
            }
            .corner()
        })
        .collect();
    let lus: Vec<_> = mats
        .iter()
        .map(|m| CornerLu::factor(m.clone()).unwrap())
        .collect();
    let a = mats[0].clone();
    let batch = BatchedFactor::factor(mats).unwrap();

    // one distinct complex RHS per operator, as in the DNS (each mode
    // carries its own right-hand side)
    let rhs: Vec<Vec<C64>> = (0..width)
        .map(|m| {
            (0..n)
                .map(|i| {
                    let x = i as f64 / n as f64 + m as f64;
                    C64::new((13.0 * x).sin() + 0.3, (7.0 * x).cos() - 0.1)
                })
                .collect()
        })
        .collect();

    // correctness pin before timing: batched == scalar to 1e-12
    let mut panel = RhsPanel::new(n, width);
    let refill = |panel: &mut RhsPanel| {
        for (m, col) in rhs.iter().enumerate() {
            panel.load_col(m, col);
        }
    };
    refill(&mut panel);
    batch.solve_panel(&mut panel);
    let mut max_rel_err = 0.0f64;
    for (m, col) in rhs.iter().enumerate() {
        let mut x = col.clone();
        lus[m].solve_complex(&mut x);
        for (j, xs) in x.iter().enumerate() {
            let rel = (panel.at(j, m) - xs).norm() / (1.0 + xs.norm());
            max_rel_err = max_rel_err.max(rel);
        }
    }
    assert!(
        max_rel_err < 1e-12,
        "batched/scalar drift {max_rel_err:.3e} at n={n} width={width}"
    );

    // timings include the per-iteration RHS refill on both sides, so the
    // comparison is copy-for-copy fair
    let mut buf = vec![C64::new(0.0, 0.0); n];
    let scalar_s = time_it(min_time, 10, || {
        for m in 0..width {
            buf.copy_from_slice(&rhs[m]);
            lus[m].solve_complex(&mut buf);
            std::hint::black_box(&buf);
        }
    });
    let batched_s = time_it(min_time, 10, || {
        refill(&mut panel);
        batch.solve_panel(&mut panel);
        std::hint::black_box(&panel);
    });
    let threaded_s = time_it(min_time, 10, || {
        refill(&mut panel);
        batch.solve_panel_threaded(&mut panel, Some(pool));
        std::hint::black_box(&panel);
    });

    // one operator shared by every column: the panel sweeps are pinned
    // bitwise to the scalar kernels before timing
    let lu = &lus[0];
    refill(&mut panel);
    let mut y = RhsPanel::new(n, width);
    a.matvec_panel(&panel, &mut y);
    lu.solve_panel(&mut panel);
    let mut want = buf.clone();
    for (m, col) in rhs.iter().enumerate() {
        a.matvec_complex(col, &mut want);
        assert_eq!(y.col_to_vec(m), want, "shared matvec, n={n} col {m}");
        want.copy_from_slice(col);
        lu.solve_complex(&mut want);
        assert_eq!(panel.col_to_vec(m), want, "shared solve, n={n} col {m}");
    }
    let shared_solve_s = [
        time_it(min_time, 10, || {
            for col in &rhs {
                buf.copy_from_slice(col);
                lu.solve_complex(&mut buf);
                std::hint::black_box(&buf);
            }
        }),
        time_it(min_time, 10, || {
            refill(&mut panel);
            lu.solve_panel(&mut panel);
            std::hint::black_box(&panel);
        }),
    ];
    refill(&mut panel);
    let shared_matvec_s = [
        time_it(min_time, 10, || {
            for col in &rhs {
                a.matvec_complex(col, &mut buf);
                std::hint::black_box(&buf);
            }
        }),
        time_it(min_time, 10, || {
            a.matvec_panel(&panel, &mut y);
            std::hint::black_box(&y);
        }),
    ];

    SweepRow {
        n,
        width,
        scalar_s,
        batched_s,
        threaded_s,
        max_rel_err,
        shared_solve_s,
        shared_matvec_s,
    }
}

/// One set-up row, `(ny, width, scalar_s, lane_s)`: the substep-0
/// Helmholtz operators `(1 + c k^2) B0 - c B2` with Dirichlet wall rows
/// for `width` wavenumbers on an order-8 basis of `ny` functions,
/// assembled and factored per mode vs [`LANES`] modes at a time.
fn setup_point(ny: usize, width: usize, min_time: f64) -> (usize, usize, f64, f64) {
    let ops = CollocationOps::new(&BsplineBasis::new(8, &tanh_breakpoints(ny - 7, 1.9)));
    let (n, p, c) = (ops.n(), ops.b0().kl(), 0.4 * 5e-4 / 180.0);
    // a 24-wide kx row per kz, as the reference box owns them
    let k2s: Vec<f64> = (1..=width)
        .map(|m| ((m % 24) as f64).powi(2) + (2.5 * (m / 24) as f64).powi(2))
        .collect();
    let scalar = || -> Vec<CornerLu> {
        let factor = |&k2: &f64| {
            let mut m = ops.combine(1.0 + c * k2, 0.0, -c);
            ops.set_boundary_row(&mut m, 0, -1.0, 0);
            ops.set_boundary_row(&mut m, n - 1, 1.0, 0);
            CornerLu::factor(m).unwrap()
        };
        k2s.iter().map(factor).collect()
    };
    let lane = || -> BatchedFactor {
        let mut out = BatchedFactor::zeros(n, p, p, width);
        let mut band = LaneBand::new(n, p, p);
        for (blk, chunk) in k2s.chunks(LANES).enumerate() {
            let a = std::array::from_fn(|l| 1.0 + c * chunk.get(l).unwrap_or(&1.0));
            band.assemble(ops.b0(), ops.b2(), &a, -c, ops.wall_rows());
            band.factor().unwrap();
            out.set_block(blk, &band);
        }
        out
    };
    // same factors: one solve per mode through both must agree exactly
    let (lus, batch) = (scalar(), lane());
    let rhs: Vec<C64> = (0..n)
        .map(|j| C64::new((0.7 * j as f64).sin() + 0.3, (0.3 * j as f64).cos()))
        .collect();
    let mut panel = RhsPanel::new(n, width);
    (0..width).for_each(|m| panel.load_col(m, &rhs));
    batch.solve_panel(&mut panel);
    for (m, lu) in lus.iter().enumerate() {
        let mut x = rhs.clone();
        lu.solve_complex(&mut x);
        assert_eq!(
            panel.col_to_vec(m),
            x,
            "lane-built factors, ny={ny} col {m}"
        );
    }
    let scalar_s = time_it(min_time, 3, || drop(std::hint::black_box(scalar())));
    let lane_s = time_it(min_time, 3, || drop(std::hint::black_box(lane())));
    (ny, width, scalar_s, lane_s)
}

fn main() {
    let argv: Vec<String> = std::env::args().collect();
    let o = match parse(&argv) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("table1: {e}\n(run with --help for usage)");
            std::process::exit(2);
        }
    };

    let classic = if o.classic {
        classic_table(o.min_time)
    } else {
        Vec::new()
    };

    println!(
        "\n== batched multi-RHS sweep: bandwidth {}, {} threads for the threaded panel ==",
        o.bandwidth, o.threads
    );
    println!(
        "(scalar = W independent CornerLu::solve_complex calls; batched = one\n\
         BatchedFactor::solve_panel over the same W right-hand sides)\n"
    );
    let pool = rayon::ThreadPoolBuilder::new()
        .num_threads(o.threads)
        .build()
        .unwrap();
    let mut sweep = Vec::new();
    let mut t = Table::new(vec![
        "N",
        "width",
        "scalar/rhs",
        "batched/rhs",
        "speedup",
        "threaded/rhs",
        "thr speedup",
    ]);
    for &n in &o.sizes {
        for &w in &o.widths {
            let r = sweep_point(n, w, o.bandwidth, o.min_time, &pool);
            t.row(vec![
                r.n.to_string(),
                r.width.to_string(),
                secs(r.scalar_s / r.width as f64),
                secs(r.batched_s / r.width as f64),
                format!("{:.2}x", r.scalar_s / r.batched_s),
                secs(r.threaded_s / r.width as f64),
                format!("{:.2}x", r.scalar_s / r.threaded_s),
            ]);
            sweep.push(r);
        }
    }
    t.print();
    println!("\n(one real operator shared by all W columns: scalar calls vs one panel sweep)\n");
    let mut t = Table::new(vec![
        "N",
        "width",
        "solve scalar/rhs",
        "solve panel/rhs",
        "matvec scalar/rhs",
        "matvec panel/rhs",
    ]);
    for r in &sweep {
        let w = r.width as f64;
        let ([ss, sp], [ms, mp]) = (r.shared_solve_s, r.shared_matvec_s);
        t.row(vec![
            r.n.to_string(),
            r.width.to_string(),
            secs(ss / w),
            format!("{} ({:.2}x)", secs(sp / w), ss / sp),
            secs(ms / w),
            format!("{} ({:.2}x)", secs(mp / w), ms / mp),
        ]);
    }
    t.print();
    println!(
        "\nnotes: all solves hit the same factored operators; the batched path\n\
         amortises factor-row loads over LANES right-hand sides held stride-1\n\
         in an SoA panel (DESIGN.md section 4.2). Agreement with the scalar\n\
         oracle is asserted at 1e-12 before timing."
    );
    let wide = sweep
        .iter()
        .filter(|r| r.width >= 32)
        .map(|r| r.scalar_s / r.batched_s)
        .fold(f64::NAN, f64::max);
    if wide.is_finite() {
        println!("shape check (target: batched >= 2x scalar at width >= 32): {wide:.2}x here");
    }

    println!("\n== set-up: one Helmholtz family, factored per mode vs {LANES} modes at a time ==");
    println!(
        "(scalar = combine -> set_boundary_row -> CornerLu::factor, not yet copied into lanes)\n"
    );
    let mut t = Table::new(vec!["ny", "width", "scalar", "lane-blocked", "speedup"]);
    let mut setup_json = Vec::new();
    for &(ny, width) in &o.setups {
        let (ny, width, scalar_s, lane_s) = setup_point(ny, width, o.min_time);
        let speedup = scalar_s / lane_s;
        t.row(vec![
            ny.to_string(),
            width.to_string(),
            secs(scalar_s),
            secs(lane_s),
            format!("{speedup:.2}x"),
        ]);
        setup_json.push(format!(
            "    {{\"ny\": {ny}, \"width\": {width}, \"scalar_s\": {scalar_s:.6e}, \
             \"lane_s\": {lane_s:.6e}, \"speedup\": {speedup:.4}, \"max_rel_err\": 0.0}}"
        ));
    }
    t.print();

    let classic_json: Vec<String> = classic
        .iter()
        .map(|(bw, t_z, t_c)| {
            format!(
                "    {{\"bandwidth\": {bw}, \"general_complex_s\": {t_z:.6e}, \
                 \"custom_s\": {t_c:.6e}, \"speedup\": {:.4}}}",
                t_z / t_c
            )
        })
        .collect();
    let sweep_json: Vec<String> = sweep
        .iter()
        .map(|r| {
            format!(
                "    {{\"n\": {}, \"width\": {}, \"scalar_s\": {:.6e}, \
                 \"batched_s\": {:.6e}, \"threaded_s\": {:.6e}, \"speedup\": {:.4}, \
                 \"threaded_speedup\": {:.4}, \"max_rel_err\": {:.3e}, \
                 \"shared_solve_scalar_s\": {:.6e}, \"shared_solve_panel_s\": {:.6e}, \
                 \"shared_matvec_scalar_s\": {:.6e}, \"shared_matvec_panel_s\": {:.6e}, \
                 \"oversubscribed\": {}}}",
                r.n,
                r.width,
                r.scalar_s,
                r.batched_s,
                r.threaded_s,
                r.scalar_s / r.batched_s,
                r.scalar_s / r.threaded_s,
                r.max_rel_err,
                r.shared_solve_s[0],
                r.shared_solve_s[1],
                r.shared_matvec_s[0],
                r.shared_matvec_s[1],
                o.threads > nproc()
            )
        })
        .collect();
    let json = format!(
        "{{\n  \"bench\": \"table1\",\n  \"host\": {},\n  \"bandwidth\": {},\n  \
         \"threads\": {},\n  \"classic\": [\n{}\n  ],\n  \"batched_sweep\": [\n{}\n  ],\n  \
         \"setup\": [\n{}\n  ]\n}}\n",
        host_json().dump(),
        o.bandwidth,
        o.threads,
        classic_json.join(",\n"),
        sweep_json.join(",\n"),
        setup_json.join(",\n")
    );
    std::fs::write(&o.out, json).expect("write benchmark JSON");
    println!("\nwrote {}", o.out);
}
