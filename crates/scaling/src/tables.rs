//! BENCH table emitters: serialize a finished [`Campaign`] into the
//! paper's Tables 6–11 as machine-readable JSON.
//!
//! Every table mixes row sources: `both` rows ran on the host (they
//! carry `measured_s`, `modelled_s` — the host calibration's prediction
//! from the point's own measured counts — and `err_rel`); `modelled`
//! rows are machine-model extrapolations to the paper's core counts
//! (Mira's 786,432 included), scaled by the campaign's measured count
//! ratios and carrying the paper transcription as `paper_s` where one
//! exists.

use crate::campaign::{Bench, Campaign, Point};
use dns_bench::paper;
use dns_bench::report::host_json;
use dns_netmodel::dnscost::{pfft_cycle_parts, timestep_phases, Grid, Parallelism, PhaseTimes};
use dns_netmodel::machines::Machine;
use std::io;
use std::path::PathBuf;

fn num(x: f64) -> String {
    format!("{:.6e}", x)
}

fn opt(x: Option<f64>) -> String {
    x.map(num).unwrap_or_else(|| "null".to_string())
}

fn grid_json(g: &Grid) -> String {
    format!("{{\"nx\": {}, \"ny\": {}, \"nz\": {}}}", g.nx, g.ny, g.nz)
}

fn mode_str(mode: Parallelism) -> &'static str {
    match mode {
        Parallelism::Mpi => "mpi",
        Parallelism::Hybrid => "hybrid",
    }
}

fn section(name: &str, machine: &str, grid: &Grid, mode: &str, rows: Vec<String>) -> String {
    format!(
        "    {{\"name\": \"{}\", \"machine\": \"{}\", \"grid\": {}, \"mode\": \"{}\", \"rows\": [\n{}\n    ]}}",
        name,
        machine,
        grid_json(grid),
        mode,
        rows.join(",\n")
    )
}

fn table_json(table: usize, title: &str, sections: Vec<String>) -> String {
    format!(
        "{{\n  \"schema\": 1,\n  \"kind\": \"scaling_table\",\n  \"table\": {},\n  \"title\": \"{}\",\n  \"host\": {},\n  \"sections\": [\n{}\n  ]\n}}\n",
        table,
        title,
        host_json(),
        sections.join(",\n")
    )
}

/// Machine-model RK3 phase prediction scaled by the campaign's measured
/// count ratios: the transpose scales with the measured-vs-analytic
/// byte ratio, the FFT and N-S phases with their flop ratios.
fn scaled_step(c: &Campaign, m: &Machine, g: &Grid, cores: usize, mode: Parallelism) -> PhaseTimes {
    let p = timestep_phases(m, g, cores, mode);
    PhaseTimes {
        transpose: p.transpose * c.ratios.rk3_transpose,
        fft: p.fft * c.ratios.rk3_fft,
        ns_advance: p.ns_advance * c.ratios.rk3_ns,
    }
}

/// Machine-model pfft cycle prediction scaled by measured count ratios:
/// the network part is count-free, the node FFT part scales with the
/// measured flop ratio, the reorder part with the byte ratio. `None`
/// when the kernel cannot fit (P3DFFT's 3x buffers at scale).
fn scaled_pfft(c: &Campaign, m: &Machine, g: &Grid, cores: usize, customized: bool) -> Option<f64> {
    pfft_cycle_parts(m, g, cores, customized)
        .map(|p| p.comm + p.node * c.ratios.pfft_fft + p.reorder * c.ratios.pfft_transpose)
}

/// Host overlap row with the measured/modelled total and the gate error.
fn host_total_row(c: &Campaign, p: &Point) -> String {
    let modelled = c.modelled(p);
    format!(
        "      {{\"source\": \"both\", \"cores\": {}, \"ranks\": {}, \"threads\": {}, \"oversubscribed\": {}, \"measured_s\": {}, \"modelled_s\": {}, \"err_rel\": {:.4}}}",
        p.cores,
        p.ranks,
        p.threads,
        p.oversubscribed(),
        num(p.seconds.total()),
        num(modelled.total()),
        c.err_rel(p)
    )
}

/// Host overlap row with the full per-phase breakdown (Tables 9/10).
fn host_phase_row(c: &Campaign, p: &Point) -> String {
    let m = c.modelled(p);
    format!(
        "      {{\"source\": \"both\", \"cores\": {}, \"ranks\": {}, \"threads\": {}, \"nx\": {}, \
         \"oversubscribed\": {}, \
         \"measured_transpose_s\": {}, \"measured_fft_s\": {}, \"measured_ns_s\": {}, \"measured_s\": {}, \
         \"modelled_transpose_s\": {}, \"modelled_fft_s\": {}, \"modelled_ns_s\": {}, \"modelled_s\": {}, \
         \"err_rel\": {:.4}}}",
        p.cores,
        p.ranks,
        p.threads,
        p.grid.nx,
        p.oversubscribed(),
        num(p.seconds.transpose),
        num(p.seconds.fft),
        num(p.seconds.ns_advance),
        num(p.seconds.total()),
        num(m.transpose),
        num(m.fft),
        num(m.ns_advance),
        num(m.total()),
        c.err_rel(p)
    )
}

fn host_section_total(c: &Campaign, name: &str, bench: Bench) -> String {
    let pts = c.family(bench);
    let grid = pts[0].grid;
    let rows = pts.iter().map(|p| host_total_row(c, p)).collect();
    section(name, "host", &grid, "mpi", rows)
}

fn host_section_phases(c: &Campaign, name: &str, bench: Bench) -> String {
    let pts = c.family(bench);
    let grid = pts[0].grid;
    let rows = pts.iter().map(|p| host_phase_row(c, p)).collect();
    section(name, "host", &grid, "mpi", rows)
}

/// `BENCH_table6.json` — parallel-FFT strong scaling, customized kernel
/// vs the P3DFFT baseline, host overlap plus all four machines.
pub fn table6_json(c: &Campaign) -> String {
    let mut sections = vec![
        host_section_total(c, "host_customized", Bench::PfftCustom),
        host_section_total(c, "host_p3dfft_baseline", Bench::PfftBaseline),
    ];
    let machines: [(&str, Machine, Grid, &[paper::T6Row]); 4] = [
        (
            "mira_small",
            Machine::mira(),
            Grid {
                nx: 2048,
                ny: 1024,
                nz: 1024,
            },
            paper::TABLE6_MIRA1,
        ),
        (
            "mira_large",
            Machine::mira(),
            Grid {
                nx: 18432,
                ny: 12288,
                nz: 12288,
            },
            paper::TABLE6_MIRA2,
        ),
        (
            "lonestar",
            Machine::lonestar(),
            Grid {
                nx: 768,
                ny: 768,
                nz: 768,
            },
            paper::TABLE6_LONESTAR,
        ),
        (
            "stampede",
            Machine::stampede(),
            Grid {
                nx: 1024,
                ny: 1024,
                nz: 1024,
            },
            paper::TABLE6_STAMPEDE,
        ),
    ];
    for (name, m, g, rows) in machines {
        let body = rows
            .iter()
            .map(|&(cores, paper_p3d, paper_custom)| {
                format!(
                    "      {{\"source\": \"modelled\", \"cores\": {}, \
                     \"modelled_custom_s\": {}, \"paper_custom_s\": {}, \
                     \"modelled_p3dfft_s\": {}, \"paper_p3dfft_s\": {}}}",
                    cores,
                    opt(scaled_pfft(c, &m, &g, cores, true)),
                    opt(paper_custom),
                    opt(scaled_pfft(c, &m, &g, cores, false)),
                    opt(paper_p3d),
                )
            })
            .collect();
        sections.push(section(
            name,
            name.split('_').next().unwrap(),
            &g,
            "mpi",
            body,
        ));
    }
    table_json(
        6,
        "Parallel FFT strong scaling: customized kernel vs P3DFFT baseline",
        sections,
    )
}

/// The strong/weak machine curve set shared by Tables 7/9 (strong) —
/// `(name, machine, grid, mode, paper rows)`.
fn strong_curves() -> [(
    &'static str,
    Machine,
    Grid,
    Parallelism,
    &'static [paper::T9Row],
); 5] {
    [
        (
            "mira_mpi",
            Machine::mira(),
            Grid {
                nx: 18432,
                ny: 1536,
                nz: 12288,
            },
            Parallelism::Mpi,
            paper::TABLE9_MIRA_MPI,
        ),
        (
            "mira_hybrid",
            Machine::mira(),
            Grid {
                nx: 18432,
                ny: 1536,
                nz: 12288,
            },
            Parallelism::Hybrid,
            paper::TABLE9_MIRA_HYBRID,
        ),
        (
            "lonestar",
            Machine::lonestar(),
            Grid {
                nx: 1024,
                ny: 384,
                nz: 1536,
            },
            Parallelism::Mpi,
            paper::TABLE9_LONESTAR,
        ),
        (
            "stampede",
            Machine::stampede(),
            Grid {
                nx: 2048,
                ny: 512,
                nz: 4096,
            },
            Parallelism::Mpi,
            paper::TABLE9_STAMPEDE,
        ),
        (
            "blue_waters",
            Machine::blue_waters(),
            Grid {
                nx: 2048,
                ny: 1024,
                nz: 2048,
            },
            Parallelism::Mpi,
            paper::TABLE9_BLUEWATERS,
        ),
    ]
}

/// The weak machine curve set shared by Tables 8/10 —
/// `(name, machine, ny, nz, mode, paper rows)` with Nx per row.
type WeakRow = (usize, usize, f64, f64, f64, f64);
type WeakCurve = (
    &'static str,
    Machine,
    usize,
    usize,
    Parallelism,
    &'static [WeakRow],
);
fn weak_curves() -> [WeakCurve; 5] {
    [
        (
            "mira_mpi",
            Machine::mira(),
            1536,
            12288,
            Parallelism::Mpi,
            paper::TABLE10_MIRA_MPI,
        ),
        (
            "mira_hybrid",
            Machine::mira(),
            1536,
            12288,
            Parallelism::Hybrid,
            paper::TABLE10_MIRA_HYBRID,
        ),
        (
            "lonestar",
            Machine::lonestar(),
            384,
            1536,
            Parallelism::Mpi,
            paper::TABLE10_LONESTAR,
        ),
        (
            "stampede",
            Machine::stampede(),
            512,
            4096,
            Parallelism::Mpi,
            paper::TABLE10_STAMPEDE,
        ),
        (
            "blue_waters",
            Machine::blue_waters(),
            1024,
            2048,
            Parallelism::Mpi,
            paper::TABLE10_BLUEWATERS,
        ),
    ]
}

/// `BENCH_table7.json` — the strong-scaling campaign configurations:
/// the host rank sweep that was actually run, plus each machine curve's
/// configuration with its count-scaled modelled total per step.
pub fn table7_json(c: &Campaign) -> String {
    let mut sections = vec![host_section_total(c, "host_strong", Bench::Rk3Strong)];
    for (name, m, g, mode, rows) in strong_curves() {
        let body = rows
            .iter()
            .map(|&(cores, _, _, _, paper_tot)| {
                format!(
                    "      {{\"source\": \"modelled\", \"cores\": {}, \"modelled_s\": {}, \"paper_s\": {}}}",
                    cores,
                    num(scaled_step(c, &m, &g, cores, mode).total()),
                    num(paper_tot),
                )
            })
            .collect();
        sections.push(section(
            name,
            name.split('_').next().unwrap(),
            &g,
            mode_str(mode),
            body,
        ));
    }
    table_json(
        7,
        "Strong-scaling configurations: host campaign and machine curves",
        sections,
    )
}

/// `BENCH_table8.json` — the weak-scaling campaign configurations: the
/// host grid-grows-with-ranks sweep, the machine weak curves, and the
/// event-simulator cross-check of the all-to-all network model.
pub fn table8_json(c: &Campaign) -> String {
    let weak_pts = c.family(Bench::Rk3Weak);
    let host_rows = weak_pts.iter().map(|p| host_phase_row(c, p)).collect();
    let mut sections = vec![section(
        "host_weak",
        "host",
        &weak_pts[0].grid,
        "mpi",
        host_rows,
    )];
    for (name, m, ny, nz, mode, rows) in weak_curves() {
        let body = rows
            .iter()
            .map(|&(cores, nx, _, _, _, paper_tot)| {
                let g = Grid { nx, ny, nz };
                format!(
                    "      {{\"source\": \"modelled\", \"cores\": {}, \"nx\": {}, \"modelled_s\": {}, \"paper_s\": {}}}",
                    cores,
                    nx,
                    num(scaled_step(c, &m, &g, cores, mode).total()),
                    num(paper_tot),
                )
            })
            .collect();
        let g0 = Grid {
            nx: rows[0].1,
            ny,
            nz,
        };
        sections.push(section(
            name,
            name.split('_').next().unwrap(),
            &g0,
            mode_str(mode),
            body,
        ));
    }
    let sim_rows = c
        .eventsim
        .iter()
        .map(|e| {
            format!(
                "      {{\"source\": \"eventsim\", \"cores\": {}, \"comm_size\": {}, \
                 \"analytic_s\": {}, \"sim_s\": {}, \"ratio\": {:.4}}}",
                e.cores,
                e.comm_size,
                num(e.analytic_s),
                num(e.sim_s),
                if e.analytic_s > 0.0 {
                    e.sim_s / e.analytic_s
                } else {
                    0.0
                }
            )
        })
        .collect();
    sections.push(section(
        "eventsim_alltoall",
        "mira",
        &Grid {
            nx: 18432,
            ny: 1536,
            nz: 12288,
        },
        "mpi",
        sim_rows,
    ));
    table_json(
        8,
        "Weak-scaling configurations: host campaign, machine curves, eventsim cross-check",
        sections,
    )
}

/// `BENCH_table9.json` — strong scaling of a full RK3 timestep with the
/// per-phase breakdown, host overlap plus all five machine curves.
pub fn table9_json(c: &Campaign) -> String {
    let mut sections = vec![host_section_phases(c, "host_strong", Bench::Rk3Strong)];
    for (name, m, g, mode, rows) in strong_curves() {
        let body = rows
            .iter()
            .map(|&(cores, p_tr, p_fft, p_ns, p_tot)| {
                let t = scaled_step(c, &m, &g, cores, mode);
                format!(
                    "      {{\"source\": \"modelled\", \"cores\": {}, \
                     \"modelled_transpose_s\": {}, \"paper_transpose_s\": {}, \
                     \"modelled_fft_s\": {}, \"paper_fft_s\": {}, \
                     \"modelled_ns_s\": {}, \"paper_ns_s\": {}, \
                     \"modelled_s\": {}, \"paper_s\": {}}}",
                    cores,
                    num(t.transpose),
                    num(p_tr),
                    num(t.fft),
                    num(p_fft),
                    num(t.ns_advance),
                    num(p_ns),
                    num(t.total()),
                    num(p_tot),
                )
            })
            .collect();
        sections.push(section(
            name,
            name.split('_').next().unwrap(),
            &g,
            mode_str(mode),
            body,
        ));
    }
    table_json(
        9,
        "Strong scaling of a full RK3 timestep (per-phase breakdown)",
        sections,
    )
}

/// `BENCH_table10.json` — weak scaling of a full RK3 timestep with the
/// per-phase breakdown, host overlap plus all five machine curves.
pub fn table10_json(c: &Campaign) -> String {
    let mut sections = vec![host_section_phases(c, "host_weak", Bench::Rk3Weak)];
    for (name, m, ny, nz, mode, rows) in weak_curves() {
        let body = rows
            .iter()
            .map(|&(cores, nx, p_tr, p_fft, p_ns, p_tot)| {
                let g = Grid { nx, ny, nz };
                let t = scaled_step(c, &m, &g, cores, mode);
                format!(
                    "      {{\"source\": \"modelled\", \"cores\": {}, \"nx\": {}, \
                     \"modelled_transpose_s\": {}, \"paper_transpose_s\": {}, \
                     \"modelled_fft_s\": {}, \"paper_fft_s\": {}, \
                     \"modelled_ns_s\": {}, \"paper_ns_s\": {}, \
                     \"modelled_s\": {}, \"paper_s\": {}}}",
                    cores,
                    nx,
                    num(t.transpose),
                    num(p_tr),
                    num(t.fft),
                    num(p_fft),
                    num(t.ns_advance),
                    num(p_ns),
                    num(t.total()),
                    num(p_tot),
                )
            })
            .collect();
        let g0 = Grid {
            nx: rows[0].1,
            ny,
            nz,
        };
        sections.push(section(
            name,
            name.split('_').next().unwrap(),
            &g0,
            mode_str(mode),
            body,
        ));
    }
    table_json(
        10,
        "Weak scaling of a full RK3 timestep (per-phase breakdown)",
        sections,
    )
}

/// `BENCH_table11.json` — MPI vs hybrid totals: the host MPI sweep and
/// hybrid point, plus Mira's strong and weak curves in both modes.
pub fn table11_json(c: &Campaign) -> String {
    let strong_pts = c.family(Bench::Rk3Strong);
    let hybrid_pts = c.family(Bench::Rk3Hybrid);
    let host_rows = strong_pts
        .iter()
        .chain(hybrid_pts.iter())
        .map(|p| {
            let modelled = c.modelled(p);
            format!(
                "      {{\"source\": \"both\", \"cores\": {}, \"ranks\": {}, \"threads\": {}, \
                 \"mode\": \"{}\", \"oversubscribed\": {}, \"measured_s\": {}, \
                 \"modelled_s\": {}, \"err_rel\": {:.4}}}",
                p.cores,
                p.ranks,
                p.threads,
                if p.bench == Bench::Rk3Hybrid {
                    "hybrid"
                } else {
                    "mpi"
                },
                p.oversubscribed(),
                num(p.seconds.total()),
                num(modelled.total()),
                c.err_rel(p)
            )
        })
        .collect();
    let mut sections = vec![section(
        "host_mpi_vs_hybrid",
        "host",
        &strong_pts[0].grid,
        "both",
        host_rows,
    )];

    let m = Machine::mira();
    let g_strong = Grid {
        nx: 18432,
        ny: 1536,
        nz: 12288,
    };
    let strong_body = paper::TABLE11_STRONG
        .iter()
        .map(|&(cores, paper_mpi, paper_hyb)| {
            format!(
                "      {{\"source\": \"modelled\", \"cores\": {}, \
                 \"modelled_mpi_s\": {}, \"paper_mpi_s\": {}, \
                 \"modelled_hybrid_s\": {}, \"paper_hybrid_s\": {}}}",
                cores,
                num(scaled_step(c, &m, &g_strong, cores, Parallelism::Mpi).total()),
                opt(paper_mpi),
                num(scaled_step(c, &m, &g_strong, cores, Parallelism::Hybrid).total()),
                num(paper_hyb),
            )
        })
        .collect();
    sections.push(section(
        "mira_strong",
        "mira",
        &g_strong,
        "both",
        strong_body,
    ));

    let weak_body = paper::TABLE11_WEAK
        .iter()
        .map(|&(cores, paper_mpi, paper_hyb)| {
            // Table 11's weak block uses the Table-10 grids: Nx grows
            // with the core count at fixed Ny, Nz.
            let nx = paper::TABLE10_MIRA_MPI
                .iter()
                .find(|r| r.0 == cores)
                .map(|r| r.1)
                .unwrap_or(18_432);
            let g = Grid {
                nx,
                ny: 1536,
                nz: 12288,
            };
            format!(
                "      {{\"source\": \"modelled\", \"cores\": {}, \"nx\": {}, \
                 \"modelled_mpi_s\": {}, \"paper_mpi_s\": {}, \
                 \"modelled_hybrid_s\": {}, \"paper_hybrid_s\": {}}}",
                cores,
                nx,
                num(scaled_step(c, &m, &g, cores, Parallelism::Mpi).total()),
                num(paper_mpi),
                num(scaled_step(c, &m, &g, cores, Parallelism::Hybrid).total()),
                num(paper_hyb),
            )
        })
        .collect();
    sections.push(section(
        "mira_weak",
        "mira",
        &Grid {
            nx: 4608,
            ny: 1536,
            nz: 12288,
        },
        "both",
        weak_body,
    ));
    table_json(11, "MPI vs hybrid: strong and weak totals", sections)
}

/// `BENCH_scalinglab.json` — the campaign summary: fitted calibrations,
/// count ratios, every measured point with its model error, the
/// eventsim cross-checks, and the `--check` verdict.
pub fn scalinglab_json(c: &Campaign) -> String {
    let (worst, worst_i) = c.worst_err();
    let points = c
        .points
        .iter()
        .map(|p| {
            let m = c.modelled(p);
            format!(
                "    {{\"bench\": \"{}\", \"grid\": {}, \"ranks\": {}, \"threads\": {}, \
                 \"cores\": {}, \"oversubscribed\": {}, \"steps\": {}, \"wall_s\": {}, \
                 \"measured\": {{\"transpose_s\": {}, \"fft_s\": {}, \"ns_s\": {}, \"total_s\": {}}}, \
                 \"modelled\": {{\"transpose_s\": {}, \"fft_s\": {}, \"ns_s\": {}, \"total_s\": {}}}, \
                 \"counts\": {{\"fft_flops\": {}, \"ns_flops\": {}, \"transpose_bytes\": {}}}, \
                 \"err_rel\": {:.4}, \"counts_file\": \"{}\"}}",
                p.bench.label(),
                grid_json(&p.grid),
                p.ranks,
                p.threads,
                p.cores,
                p.oversubscribed(),
                p.steps,
                num(p.wall_s),
                num(p.seconds.transpose),
                num(p.seconds.fft),
                num(p.seconds.ns_advance),
                num(p.seconds.total()),
                num(m.transpose),
                num(m.fft),
                num(m.ns_advance),
                num(m.total()),
                num(p.counts.fft_flops),
                num(p.counts.ns_flops),
                num(p.counts.transpose_bytes),
                c.err_rel(p),
                p.counts_file,
            )
        })
        .collect::<Vec<_>>()
        .join(",\n");
    let eventsim = c
        .eventsim
        .iter()
        .map(|e| {
            format!(
                "    {{\"cores\": {}, \"comm_size\": {}, \"analytic_s\": {}, \"sim_s\": {}}}",
                e.cores,
                e.comm_size,
                num(e.analytic_s),
                num(e.sim_s)
            )
        })
        .collect::<Vec<_>>()
        .join(",\n");
    let rk3_res = c.residual(Bench::Rk3Strong).max(c.residual(Bench::Rk3Weak));
    format!(
        "{{\n  \"schema\": 1,\n  \"kind\": \"scalinglab\",\n  \"host\": {},\n  \"smoke\": {},\n  \"bound\": {:.4},\n  \
         \"check\": {{\"pass\": {}, \"worst_err_rel\": {:.4}, \"worst_point\": \"{}_r{}_t{}\"}},\n  \
         \"calibration\": {{\n    \"rk3\": {{\"fft_flop_rate\": {}, \"ns_flop_rate\": {}, \"stream_bw\": {}, \"residual\": {:.4}}},\n    \
         \"pfft\": {{\"fft_flop_rate\": {}, \"ns_flop_rate\": {}, \"stream_bw\": {}, \"residual\": {:.4}}}\n  }},\n  \
         \"count_ratios\": {{\"rk3_fft\": {:.4}, \"rk3_ns\": {:.4}, \"rk3_transpose\": {:.4}, \"pfft_fft\": {:.4}, \"pfft_transpose\": {:.4}}},\n  \
         \"points\": [\n{}\n  ],\n  \"eventsim\": [\n{}\n  ]\n}}\n",
        host_json(),
        c.cfg.smoke,
        c.cfg.bound,
        c.check_passes(),
        worst,
        c.points[worst_i].bench.label(),
        c.points[worst_i].ranks,
        c.points[worst_i].threads,
        num(c.cal_rk3.fft_flop_rate),
        num(c.cal_rk3.ns_flop_rate),
        num(c.cal_rk3.stream_bw),
        rk3_res,
        num(c.cal_pfft.fft_flop_rate),
        num(c.cal_pfft.ns_flop_rate),
        num(c.cal_pfft.stream_bw),
        c.residual(Bench::PfftCustom)
            .max(c.residual(Bench::PfftBaseline)),
        c.ratios.rk3_fft,
        c.ratios.rk3_ns,
        c.ratios.rk3_transpose,
        c.ratios.pfft_fft,
        c.ratios.pfft_transpose,
        points,
        eventsim,
    )
}

/// Write all seven BENCH files into the campaign's out dir and return
/// the written paths.
pub fn write_all(c: &Campaign) -> io::Result<Vec<PathBuf>> {
    let files: [(&str, String); 7] = [
        ("BENCH_table6.json", table6_json(c)),
        ("BENCH_table7.json", table7_json(c)),
        ("BENCH_table8.json", table8_json(c)),
        ("BENCH_table9.json", table9_json(c)),
        ("BENCH_table10.json", table10_json(c)),
        ("BENCH_table11.json", table11_json(c)),
        ("BENCH_scalinglab.json", scalinglab_json(c)),
    ];
    let mut written = Vec::new();
    for (name, body) in files {
        let path = c.cfg.out_dir.join(name);
        std::fs::write(&path, body)?;
        written.push(path);
    }
    Ok(written)
}
