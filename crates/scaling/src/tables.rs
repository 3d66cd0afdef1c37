//! BENCH table emitters: serialize a finished [`Campaign`] into the
//! paper's Tables 1–11, the fusion ablation and section 7 as
//! machine-readable JSON.
//!
//! Every table mixes row sources: `both` rows ran on the host (they
//! carry `measured_s`, `modelled_s` — the host calibration's prediction
//! from the point's own measured counts — and `err_rel`); `measured`
//! rows are host kernel probes with no model beside them; `modelled`
//! rows are machine-model values at the paper's configurations (Mira's
//! 786,432 cores included) carrying the paper transcription as `paper_*`
//! where one exists — in Tables 6–11 scaled by the campaign's measured
//! count ratios.
//!
//! Every row, section and table is a [`Json`] value built through the
//! private `Fields` puts; [`layout`] only decides where the line breaks
//! go.

use crate::campaign::{grid, split_sweeps, Bench, Campaign, Point, BOUND, MIRA_GRID};
use crate::model::dnscost::{
    aggregate_rates, pfft_cycle_parts, timestep_phases, Grid, Parallelism,
};
use crate::model::machines::Machine;
use crate::model::network::{comm_pair, pair_time};
use crate::model::node::{hpm_single_core, KernelCounts};
use crate::model::sensitivity::sensitivity;
use crate::paper;
use crate::probe::{PANEL_THREADS, SPLIT_GRID, SPLIT_RANKS, SWEEP_BANDWIDTH};
use crate::report::{host_json, nproc, Table};
use dns_json::{Json, ObjBuilder};
use dns_pencil::reorder::reorder_bytes;
use dns_telemetry::PhaseSeconds;
use std::io;
use std::path::PathBuf;

/// The typed `put`s of the one row builder.
trait Fields {
    fn int(self, key: &str, v: usize) -> Self;
    /// A number; `None` (a paper cell that is N/A) is `null`.
    fn real(self, key: &str, v: impl Into<Option<f64>>) -> Self;
    fn flag(self, key: &str, v: bool) -> Self;
    fn text(self, key: &str, v: &str) -> Self;
    /// `t` as `{prefix}_transpose_s / _fft_s / _ns_s` and the total `{prefix}_s`.
    fn phases(self, prefix: &str, t: PhaseSeconds) -> Self;
    /// `modelled_{what}` with the paper's value beside it as `paper_{what}`.
    fn pair(
        self,
        what: &str,
        modelled: impl Into<Option<f64>>,
        paper: impl Into<Option<f64>>,
    ) -> Self;
}

impl Fields for ObjBuilder {
    fn int(self, key: &str, v: usize) -> Self {
        self.put(key, Json::num(v as f64))
    }
    fn real(self, key: &str, v: impl Into<Option<f64>>) -> Self {
        self.put(key, v.into().map_or(Json::Null, Json::Num))
    }
    fn flag(self, key: &str, v: bool) -> Self {
        self.put(key, Json::Bool(v))
    }
    fn text(self, key: &str, v: &str) -> Self {
        self.put(key, Json::str(v))
    }
    fn phases(self, prefix: &str, t: PhaseSeconds) -> Self {
        self.real(&format!("{prefix}_transpose_s"), t.transpose)
            .real(&format!("{prefix}_fft_s"), t.fft)
            .real(&format!("{prefix}_ns_s"), t.ns_advance)
            .real(&format!("{prefix}_s"), t.total())
    }
    fn pair(
        self,
        what: &str,
        modelled: impl Into<Option<f64>>,
        paper: impl Into<Option<f64>>,
    ) -> Self {
        self.real(&format!("modelled_{what}"), modelled)
            .real(&format!("paper_{what}"), paper)
    }
}

/// A row starts from where its numbers come from.
fn row(source: &str) -> ObjBuilder {
    Json::obj().text("source", source)
}

/// A host kernel probe that kept `cores` threads busy, under the rule
/// [`Point::oversubscribed`] applies to campaign points.
fn measured_row(cores: usize) -> ObjBuilder {
    row("measured")
        .int("cores", cores)
        .flag("oversubscribed", cores > nproc())
}

fn grid_obj(g: &Grid) -> Json {
    let dims = Json::obj().int("nx", g.nx).int("ny", g.ny).int("nz", g.nz);
    dims.build()
}

fn mode_str(mode: Parallelism) -> &'static str {
    match mode {
        Parallelism::Mpi => "mpi",
        Parallelism::Hybrid => "hybrid",
    }
}

/// `mira`, `lonestar`, `stampede`, `blue_waters`.
fn machine_key(m: &Machine) -> String {
    m.name.to_lowercase().replace(' ', "_")
}

fn section(
    name: &str,
    machine: &str,
    grid: impl Into<Option<Grid>>,
    mode: &str,
    rows: impl Iterator<Item = Json>,
) -> Json {
    let grid = grid.into().map(|g| grid_obj(&g));
    Json::obj()
        .text("name", name)
        .text("machine", machine)
        .put_opt("grid", grid)
        .text("mode", mode)
        .put("rows", Json::Arr(rows.collect()))
        .build()
}

/// Titles of Tables 1-11.
const TITLES: [&str; 11] = [
    "Banded solve, N = 1024, complex RHS: general LU vs the corner-folded solver; batched panels",
    "Single-core N-S time-advance counters on Mira: SIMD vs no-SIMD",
    "Single-node thread scaling of the FFT and N-S advance kernels",
    "On-node reorder: Mira thread scaling (model) and the host's kernels",
    "Transpose cycle vs CommA x CommB communicator split",
    "Parallel FFT strong scaling: customized kernel vs P3DFFT baseline",
    "Strong-scaling configurations: host campaign and machine curves",
    "Weak-scaling configurations: host campaign, machine curves, eventsim cross-check",
    "Strong scaling of a full RK3 timestep (per-phase breakdown)",
    "Weak scaling of a full RK3 timestep (per-phase breakdown)",
    "MPI vs hybrid: strong and weak totals",
];

fn table(n: usize, sections: Vec<Json>) -> Json {
    artifact(Json::num(n as f64), TITLES[n - 1], sections)
}

/// A table artifact; `id` is the paper's table number, or a name for a
/// measurement the paper argues without a table.
fn artifact(id: Json, title: &str, sections: Vec<Json>) -> Json {
    Json::obj()
        .int("schema", 1)
        .text("kind", "scaling_table")
        .put("table", id)
        .text("title", title)
        .put("host", host_json())
        .put("sections", Json::Arr(sections))
        .build()
}

/// Machine-model RK3 phase prediction scaled by the campaign's measured
/// count ratios: the transpose scales with the measured-vs-analytic
/// byte ratio, the FFT and N-S phases with their flop ratios.
fn scaled_step(
    c: &Campaign,
    m: &Machine,
    g: &Grid,
    cores: usize,
    mode: Parallelism,
) -> PhaseSeconds {
    let p = timestep_phases(m, g, cores, mode);
    PhaseSeconds {
        transpose: p.transpose * c.ratios.rk3_transpose,
        fft: p.fft * c.ratios.rk3_fft,
        ns_advance: p.ns_advance * c.ratios.rk3_ns,
        ..p
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

/// What every host overlap row says about its point.
fn host_row(c: &Campaign, p: &Point) -> ObjBuilder {
    row("both")
        .int("cores", p.cores)
        .int("ranks", p.ranks)
        .int("threads", p.threads)
        .flag("oversubscribed", p.oversubscribed())
        .real("err_rel", c.err_rel(p))
}

/// Host overlap row with the measured/modelled total and the gate error.
fn host_total_row(c: &Campaign, p: &Point) -> ObjBuilder {
    host_row(c, p)
        .real("measured_s", p.seconds.total())
        .real("modelled_s", c.modelled(p).total())
}

/// Host overlap row with the full per-phase breakdown (Tables 9/10).
fn host_phase_row(c: &Campaign, p: &Point) -> ObjBuilder {
    host_row(c, p)
        .int("nx", p.grid.nx)
        .phases("measured", p.seconds)
        .phases("modelled", c.modelled(p))
}

/// The host section of one family: `row_of` each point.
fn host_section(
    c: &Campaign,
    name: &str,
    bench: Bench,
    row_of: fn(&Campaign, &Point) -> ObjBuilder,
) -> Json {
    let pts = c.family(bench);
    let rows = pts.iter().map(|p| row_of(c, p).build());
    section(name, "host", pts[0].grid, "mpi", rows)
}

/// `BENCH_table1.json` — the paper's Table 1 on the host: one N = 1024
/// solve per bandwidth through the general banded LU (real factors over
/// split complex data, and complex factors) and the corner-folded
/// solver, beside the paper's five columns (normalised by Netlib
/// `ZGBTRS`); then the batched multi-RHS sweep (DESIGN.md section 4.2)
/// and the lane-blocked set-up.
pub fn table1_json(c: &Campaign) -> Json {
    let t = &c.table1;
    let classic = t.classic.iter().map(|&(bw, [real, complex, corner])| {
        let p = paper::TABLE1.iter().find(|p| p.0 == bw);
        let p = p.expect("a bandwidth of the paper's Table 1");
        measured_row(1)
            .int("bandwidth", bw)
            .int("n", t.n)
            .real("general_real_s", real)
            .real("general_complex_s", complex)
            .real("custom_s", corner)
            .real("speedup", complex / corner)
            .real("paper_mkl_real", p.1)
            .real("paper_mkl_complex", p.2)
            .real("paper_custom_lonestar", p.3)
            .real("paper_essl", p.4)
            .real("paper_custom_mira", p.5)
            .build()
    });
    let sweep = t.sweep.iter().map(|r| {
        let [scalar, batched, threaded] = r.seconds;
        let ([solve, solve_panel], [matvec, matvec_panel]) = (r.shared_solve_s, r.shared_matvec_s);
        measured_row(PANEL_THREADS)
            .int("bandwidth", SWEEP_BANDWIDTH)
            .int("n", r.n)
            .int("width", r.width)
            .real("scalar_s", scalar)
            .real("batched_s", batched)
            .real("threaded_s", threaded)
            .real("speedup", scalar / batched)
            .real("threaded_speedup", scalar / threaded)
            .real("max_rel_err", r.max_rel_err)
            .real("shared_solve_scalar_s", solve)
            .real("shared_solve_panel_s", solve_panel)
            .real("shared_matvec_scalar_s", matvec)
            .real("shared_matvec_panel_s", matvec_panel)
            .build()
    });
    let setup = t.setup.iter().map(|&(ny, width, [scalar, lane])| {
        measured_row(1)
            .int("ny", ny)
            .int("width", width)
            .real("scalar_s", scalar)
            .real("lane_s", lane)
            .real("speedup", scalar / lane)
            .build()
    });
    let sections = vec![
        section("classic", "host", None, "serial", classic),
        section("batched_sweep", "host", None, "threads", sweep),
        section("setup", "host", None, "serial", setup),
    ];
    table(1, sections)
}

/// `BENCH_fusion.json` — DESIGN.md section 4.1's ablation: seconds and
/// DDR bytes of one nonlinear evaluation through the unfused reference
/// and the fused production pipeline, per thread count of one rank.
pub fn fusion_json(c: &Campaign) -> Json {
    let rows = c.fusion.iter().map(|r| {
        let ([unfused, fused], [unfused_ddr, fused_ddr]) = (r.seconds, r.ddr_bytes);
        measured_row(r.threads)
            .int("threads", r.threads)
            .real("unfused_s", unfused)
            .real("fused_s", fused)
            .real("speedup", unfused / fused)
            .int("unfused_ddr_bytes", unfused_ddr as usize)
            .int("fused_ddr_bytes", fused_ddr as usize)
            .build()
    });
    let title = "Fused vs unfused nonlinear evaluation, one rank";
    let rows = section("fusion", "host", c.fusion_grid, "threads", rows);
    artifact(Json::str("fusion"), title, vec![rows])
}

/// `BENCH_table2.json` — single-core counters of the N-S time advance on
/// Mira, SIMD vs no-SIMD: the BG/Q node model's emulation of the HPM
/// report beside the paper's, plus the host's sustained rate on the
/// kernel's building block, one bandwidth-15 banded solve (Table 1's
/// corner row).
pub fn table2_json(c: &Campaign) -> Json {
    // The Table 2 workload at node level (16 kernel instances): counts
    // derived from the banded-solve sweep's arithmetic (three bandwidth-15
    // solves per wavenumber on complex data; ~0.7 flops per DRAM byte).
    let counts = KernelCounts {
        flops: 62.0e9,
        dram_bytes: 90.0e9,
    };
    let m = Machine::mira();
    let builds = [
        ("simd", true, paper::TABLE2_SIMD),
        ("no_simd", false, paper::TABLE2_NOSIMD),
    ];
    let hpm = builds.into_iter().map(|(build, simd, p)| {
        let r = hpm_single_core(&m, &counts, simd);
        let ddr_peak_pct = |bytes_per_cycle: f64| 100.0 * bytes_per_cycle / 18.0;
        row("modelled")
            .text("build", build)
            .pair("gflops", r.gflops, p.0)
            .pair("peak_pct", 100.0 * r.peak_fraction, p.1)
            .pair("l1_pct", r.l1_pct, p.3)
            .pair("l2_pct", r.l2_pct, p.4)
            .pair("ddr_pct", r.ddr_pct, p.5)
            .pair("ddr_bytes_per_cycle", r.ddr_bytes_per_cycle, p.6)
            .pair(
                "ddr_peak_pct",
                ddr_peak_pct(r.ddr_bytes_per_cycle),
                ddr_peak_pct(p.6),
            )
            .pair("s", r.elapsed, p.7)
            .build()
    });
    // one solve: forward+back substitution over n rows x width w, complex
    // rhs against real factors: ~4 flops per stored scalar per sweep
    let (n, w) = (c.table1.n, SWEEP_BANDWIDTH);
    let flops = 2.0 * n as f64 * w as f64 * 4.0;
    let corner = c.table1.classic.iter().find(|r| r.0 == w);
    let solve_s = corner.expect("Table 1 probes bandwidth 15").1[2];
    let solve = measured_row(1)
        .text("kernel", "corner_lu_solve_complex")
        .int("n", n)
        .int("bandwidth", w)
        .real("flops", flops)
        .real("measured_s", solve_s)
        .real("measured_gflops", flops / solve_s / 1e9)
        .build();
    let solve = std::iter::once(solve);
    let host = section("host_banded_solve", "host", None, "serial", solve);
    table(
        2,
        vec![section("mira_hpm", "mira", None, "model", hpm), host],
    )
}

/// `BENCH_table3.json` — single-node thread scaling of the FFT and N-S
/// advance kernels. Both are embarrassingly parallel across data lines,
/// so the modelled speedup is the node model's effective flop rate
/// (BG/Q's hardware-thread IPC boost is how per-core efficiency passes
/// 200 % at 16x4); the host section is the campaign's own one-rank
/// points, single-threaded and threaded.
pub fn table3_json(c: &Campaign) -> Json {
    let curves = [
        (Machine::lonestar(), paper::TABLE3_LONESTAR),
        (Machine::mira(), paper::TABLE3_MIRA),
    ];
    let model = curves.iter().map(|(m, rows)| {
        let body = rows.iter().map(|&(n, p_fft, p_ns)| {
            let s = (m.node_flop_rate(n) / m.node_flop_rate(1)).min(n as f64);
            row("modelled")
                .int("threads", n)
                .real("modelled_speedup", s)
                .real("modelled_efficiency", s / n.min(m.cores_per_node) as f64)
                .real("paper_fft_speedup", p_fft)
                .real("paper_ns_speedup", p_ns)
                .build()
        });
        section(&machine_key(m), &machine_key(m), None, "threads", body)
    });
    let (strong, hybrid) = (c.family(Bench::Rk3Strong), c.family(Bench::Rk3Hybrid));
    let one_rank = strong.iter().filter(|p| p.ranks == 1).chain(&hybrid);
    let host = one_rank.map(|p| host_phase_row(c, p).build());
    let host = section("host_threads", "host", strong[0].grid, "threads", host);
    table(3, model.chain([host]).collect())
}

/// `BENCH_table4.json` — the on-node reorder `A(i,j,k) -> A(j,k,i)`. It
/// does no arithmetic, so the Mira rows follow the node model's
/// bandwidth curve: linear rise, saturation near the 18 bytes/cycle DDR
/// peak at 16 threads, a slow decline beyond. The host rows time the
/// reorder kernels the solver runs on one rank beside the naive and
/// cache-blocked free functions.
pub fn table4_json(c: &Campaign) -> Json {
    let m = Machine::mira();
    let bw1 = m.node_stream_bw(1);
    let model = paper::TABLE4.iter().map(|&(n, p_bpc, p_speed)| {
        let bw = m.node_stream_bw(n);
        row("modelled")
            .int("threads", n)
            .pair("ddr_bytes_per_cycle", bw / m.clock_hz, p_bpc)
            .pair("speedup", bw / bw1, p_speed)
            .real("modelled_efficiency", bw / bw1 / n as f64)
            .build()
    });
    let host = c.reorder.iter().map(|&(kernel, shape, seconds)| {
        let bytes = reorder_bytes(shape.iter().product(), 16) as f64;
        let shape = shape.map(|d| Json::num(d as f64)).to_vec();
        measured_row(1)
            .text("kernel", kernel)
            .put("shape", Json::Arr(shape))
            .real("bytes", bytes)
            .real("measured_s", seconds)
            .real("measured_gb_per_s", bytes / seconds / 1e9)
            .build()
    });
    let strong = c.family(Bench::Rk3Strong)[0].grid;
    let host = section("host_reorder", "host", strong, "serial", host);
    table(
        4,
        vec![section("mira", "mira", None, "threads", model), host],
    )
}

fn min_of(xs: impl Iterator<Item = f64>) -> f64 {
    xs.fold(f64::INFINITY, f64::min)
}

/// `BENCH_table5.json` — transpose-cycle time versus the CommA x CommB
/// factorisation. The paper's finding — fastest with CommB local to a
/// node, degrading as CommB spreads across nodes — comes from the
/// interconnect model, cross-checked per split by the campaign's
/// message-level event simulation; the host rows run the same sweep on
/// minimpi.
pub fn table5_json(c: &Campaign) -> Json {
    let sweeps = split_sweeps();
    let model = sweeps.iter().zip(&c.split_sim);
    let model = model.map(|((name, m, g, total, rows), sim)| {
        let elems = (g.sx() * g.nz * g.ny) as f64 / *total as f64;
        // two CommA + two CommB exchanges
        let cycle = |pa: usize, pb: usize| {
            let pair = comm_pair(pa, pb, [elems; 2], m.cores_per_node, *total);
            pair_time(m, &pair).scaled(2.0).total()
        };
        let modelled: Vec<f64> = rows.iter().map(|r| cycle(r.0, r.1)).collect();
        let best_model = min_of(modelled.iter().copied());
        let best_paper = min_of(rows.iter().map(|r| r.2));
        let splits = rows.iter().zip(modelled).zip(sim);
        let body = splits.map(|((&(pa, pb, p), modelled_s), &sim_s)| {
            row("modelled")
                .int("cores", *total)
                .int("comm_a", pa)
                .int("comm_b", pb)
                .pair("s", modelled_s, p)
                .real("eventsim_s", sim_s)
                .pair("vs_best", modelled_s / best_model, p / best_paper)
                .build()
        });
        section(name, name, *g, "mpi", body)
    });
    let host = c.splits.iter().map(|&(pa, pb, seconds)| {
        measured_row(SPLIT_RANKS)
            .int("comm_a", pa)
            .int("comm_b", pb)
            .real("measured_s", seconds)
            .build()
    });
    let host = section("host_functional", "host", SPLIT_GRID, "mpi", host);
    table(5, model.chain([host]).collect())
}

/// `BENCH_table6.json` — parallel-FFT strong scaling, customized kernel
/// vs the P3DFFT baseline, host overlap plus all four machines.
pub fn table6_json(c: &Campaign) -> Json {
    let mut sections = vec![
        host_section(c, "host_customized", Bench::PfftCustom, host_total_row),
        host_section(
            c,
            "host_p3dfft_baseline",
            Bench::PfftBaseline,
            host_total_row,
        ),
    ];
    let machines: [(&str, Machine, Grid, &[paper::T6Row]); 4] = [
        (
            "mira_small",
            Machine::mira(),
            grid(2048, 1024, 1024),
            paper::TABLE6_MIRA1,
        ),
        (
            "mira_large",
            Machine::mira(),
            grid(18432, 12288, 12288),
            paper::TABLE6_MIRA2,
        ),
        (
            "lonestar",
            Machine::lonestar(),
            grid(768, 768, 768),
            paper::TABLE6_LONESTAR,
        ),
        (
            "stampede",
            Machine::stampede(),
            grid(1024, 1024, 1024),
            paper::TABLE6_STAMPEDE,
        ),
    ];
    for (name, m, g, rows) in machines {
        let body = rows.iter().map(|&(cores, paper_p3d, paper_custom)| {
            row("modelled")
                .int("cores", cores)
                .pair(
                    "custom_s",
                    scaled_pfft(c, &m, &g, cores, true),
                    paper_custom,
                )
                .pair("p3dfft_s", scaled_pfft(c, &m, &g, cores, false), paper_p3d)
                .build()
        });
        sections.push(section(name, &machine_key(&m), g, "mpi", body));
    }
    table(6, sections)
}

/// One row of the paper's Table 10: cores, Nx, transpose, fft, ns, total.
type WeakRow = (usize, usize, f64, f64, f64, f64);

/// The machine curves of Tables 7-10 — `(name, machine, strong grid,
/// mode, Table 9 rows, Table 10 rows)`; a weak row runs the strong grid's
/// Ny and Nz at its own Nx.
type Curve = (
    &'static str,
    Machine,
    Grid,
    Parallelism,
    &'static [paper::T9Row],
    &'static [WeakRow],
);
fn curves() -> [Curve; 5] {
    use paper::*;
    use Parallelism::{Hybrid, Mpi};
    [
        (
            "mira_mpi",
            Machine::mira(),
            MIRA_GRID,
            Mpi,
            TABLE9_MIRA_MPI,
            TABLE10_MIRA_MPI,
        ),
        (
            "mira_hybrid",
            Machine::mira(),
            MIRA_GRID,
            Hybrid,
            TABLE9_MIRA_HYBRID,
            TABLE10_MIRA_HYBRID,
        ),
        (
            "lonestar",
            Machine::lonestar(),
            grid(1024, 384, 1536),
            Mpi,
            TABLE9_LONESTAR,
            TABLE10_LONESTAR,
        ),
        (
            "stampede",
            Machine::stampede(),
            grid(2048, 512, 4096),
            Mpi,
            TABLE9_STAMPEDE,
            TABLE10_STAMPEDE,
        ),
        (
            "blue_waters",
            Machine::blue_waters(),
            grid(2048, 1024, 2048),
            Mpi,
            TABLE9_BLUEWATERS,
            TABLE10_BLUEWATERS,
        ),
    ]
}

/// `host`, then one section per machine curve, strong (Tables 7/9) or
/// weak (8/10); `cells` fills a row from its count-scaled modelled
/// phases and the paper's `[transpose, fft, ns, total]`.
fn curve_sections(
    c: &Campaign,
    host: Json,
    weak: bool,
    cells: fn(ObjBuilder, PhaseSeconds, [f64; 4]) -> ObjBuilder,
) -> Vec<Json> {
    let sections = curves().into_iter().map(|(name, m, g, mode, t9, t10)| {
        // a strong row is a weak row at the curve's own Nx
        let at_own_nx = |r: &paper::T9Row| (r.0, g.nx, r.1, r.2, r.3, r.4);
        let rows: Vec<WeakRow> = if weak {
            t10.to_vec()
        } else {
            t9.iter().map(at_own_nx).collect()
        };
        let first = grid(rows[0].1, g.ny, g.nz);
        let body = rows.into_iter().map(|(cores, nx, tr, fft, ns, tot)| {
            let modelled = scaled_step(c, &m, &grid(nx, g.ny, g.nz), cores, mode);
            let cfg = row("modelled").int("cores", cores);
            let cfg = if weak { cfg.int("nx", nx) } else { cfg };
            cells(cfg, modelled, [tr, fft, ns, tot]).build()
        });
        section(name, &machine_key(&m), first, mode_str(mode), body)
    });
    [host].into_iter().chain(sections).collect()
}

/// Tables 7/8: the modelled and the paper's total per step.
fn totals(row: ObjBuilder, modelled: PhaseSeconds, paper: [f64; 4]) -> ObjBuilder {
    row.pair("s", modelled.total(), paper[3])
}

/// Tables 9/10: the modelled and the paper's per-phase breakdown (the
/// paper's total is its own column, not the sum of its rounded phases).
fn breakdown(row: ObjBuilder, modelled: PhaseSeconds, paper: [f64; 4]) -> ObjBuilder {
    row.pair("transpose_s", modelled.transpose, paper[0])
        .pair("fft_s", modelled.fft, paper[1])
        .pair("ns_s", modelled.ns_advance, paper[2])
        .pair("s", modelled.total(), paper[3])
}

/// `BENCH_table7.json` — the strong-scaling campaign configurations:
/// the host rank sweep that was actually run, plus each machine curve's
/// configuration with its count-scaled modelled total per step.
pub fn table7_json(c: &Campaign) -> Json {
    let host = host_section(c, "host_strong", Bench::Rk3Strong, host_total_row);
    table(7, curve_sections(c, host, false, totals))
}

/// `BENCH_table8.json` — the weak-scaling campaign configurations: the
/// host grid-grows-with-ranks sweep, the machine weak curves, and the
/// event-simulator cross-check of the all-to-all network model.
pub fn table8_json(c: &Campaign) -> Json {
    let host = host_section(c, "host_weak", Bench::Rk3Weak, host_phase_row);
    let sim_rows = c.eventsim.iter().map(|e| {
        let ratio = if e.analytic_s > 0.0 {
            e.sim_s / e.analytic_s
        } else {
            0.0
        };
        row("eventsim")
            .int("cores", e.cores)
            .int("comm_size", e.comm_size)
            .real("analytic_s", e.analytic_s)
            .real("sim_s", e.sim_s)
            .real("ratio", ratio)
            .build()
    });
    let mut sections = curve_sections(c, host, true, totals);
    sections.push(section(
        "eventsim_alltoall",
        "mira",
        MIRA_GRID,
        "mpi",
        sim_rows,
    ));
    table(8, sections)
}

/// `BENCH_table9.json` — strong scaling of a full RK3 timestep with the
/// per-phase breakdown, host overlap plus all five machine curves.
pub fn table9_json(c: &Campaign) -> Json {
    let host = host_section(c, "host_strong", Bench::Rk3Strong, host_phase_row);
    table(9, curve_sections(c, host, false, breakdown))
}

/// `BENCH_table10.json` — weak scaling of a full RK3 timestep with the
/// per-phase breakdown, host overlap plus all five machine curves.
pub fn table10_json(c: &Campaign) -> Json {
    let host = host_section(c, "host_weak", Bench::Rk3Weak, host_phase_row);
    table(10, curve_sections(c, host, true, breakdown))
}

/// `BENCH_table11.json` — MPI vs hybrid totals: the host MPI sweep and
/// hybrid point, plus Mira's strong and weak curves in both modes.
pub fn table11_json(c: &Campaign) -> Json {
    let (strong_pts, hybrid_pts) = (c.family(Bench::Rk3Strong), c.family(Bench::Rk3Hybrid));
    let host_rows = strong_pts.iter().chain(&hybrid_pts).map(|p| {
        let hybrid = p.bench == Bench::Rk3Hybrid;
        let mode = if hybrid { "hybrid" } else { "mpi" };
        host_total_row(c, p).text("mode", mode).build()
    });
    let host = section(
        "host_mpi_vs_hybrid",
        "host",
        strong_pts[0].grid,
        "both",
        host_rows,
    );

    let m = Machine::mira();
    let both_modes = |cfg: ObjBuilder, nx, cores, paper_mpi, paper_hybrid: f64| {
        let g = grid(nx, MIRA_GRID.ny, MIRA_GRID.nz);
        let step = |mode| scaled_step(c, &m, &g, cores, mode).total();
        cfg.pair("mpi_s", step(Parallelism::Mpi), paper_mpi)
            .pair("hybrid_s", step(Parallelism::Hybrid), paper_hybrid)
            .build()
    };
    let strong_body = paper::TABLE11_STRONG.iter().map(|&(cores, mpi, hybrid)| {
        let cfg = row("modelled").int("cores", cores);
        both_modes(cfg, MIRA_GRID.nx, cores, mpi, hybrid)
    });
    let strong = section("mira_strong", "mira", MIRA_GRID, "both", strong_body);
    let weak_body = paper::TABLE11_WEAK.iter().map(|&(cores, mpi, hybrid)| {
        // Table 11's weak block uses the Table-10 grids: Nx grows
        // with the core count at fixed Ny, Nz.
        let t10 = paper::TABLE10_MIRA_MPI.iter().find(|r| r.0 == cores);
        let nx = t10.map_or(MIRA_GRID.nx, |r| r.1);
        let cfg = row("modelled").int("cores", cores).int("nx", nx);
        both_modes(cfg, nx, cores, Some(mpi), hybrid)
    });
    let weak_grid = grid(4608, MIRA_GRID.ny, MIRA_GRID.nz);
    let weak = section("mira_weak", "mira", weak_grid, "both", weak_body);
    table(11, vec![host, strong, weak])
}

/// Section 7, quantified with the machine models (unscaled, as the
/// paper states them): the aggregate rates at 786,432 Mira cores, what
/// doubling one machine resource buys a timestep at three
/// configurations, and the hybrid-vs-MPI saving at the 524,288-core
/// production scale.
fn conclusions() -> Json {
    let m = Machine::mira();
    let r = aggregate_rates(&m, &MIRA_GRID, 786_432, Parallelism::Mpi);
    let p = paper::SECTION7_RATES;
    let aggregate = row("modelled")
        .int("cores", 786_432)
        .pair("tflops", r.total_rate / 1e12, p.0)
        .pair("peak_frac", r.total_peak_fraction, p.1)
        .pair("compute_tflops", r.compute_rate / 1e12, p.2)
        .pair("compute_peak_frac", r.compute_peak_fraction, p.3);
    let configs = [
        ("mira_mpi_131k", Machine::mira(), MIRA_GRID, 131_072),
        ("mira_mpi_786k", Machine::mira(), MIRA_GRID, 786_432),
        (
            "blue_waters_16k",
            Machine::blue_waters(),
            grid(2048, 1024, 2048),
            16_384,
        ),
    ];
    let doubled = configs.map(|(name, machine, g, cores)| {
        let s = sensitivity(&machine, &g, cores, Parallelism::Mpi, 2.0);
        row("modelled")
            .text("config", name)
            .int("cores", cores)
            .real("injection_speedup", s.injection)
            .real("bisection_speedup", s.bisection)
            .real("dram_speedup", s.dram)
            .real("flops_speedup", s.flops)
            .build()
    });
    let step = |mode| timestep_phases(&m, &MIRA_GRID, 524_288, mode).total();
    let (mpi, hybrid) = (step(Parallelism::Mpi), step(Parallelism::Hybrid));
    let threading = row("modelled")
        .int("cores", 524_288)
        .real("modelled_mpi_s", mpi)
        .real("modelled_hybrid_s", hybrid)
        .real("modelled_saving_frac", 1.0 - hybrid / mpi);
    Json::obj()
        .put("aggregate", aggregate.build())
        .put("sensitivity", Json::Arr(doubled.to_vec()))
        .put("hybrid_vs_mpi", threading.build())
        .build()
}

/// `BENCH_scalinglab.json` — the campaign summary: fitted calibrations,
/// count ratios, every measured point with its model error and whether
/// the gate read it, the eventsim cross-checks, the `--check` verdict,
/// and section 7's `conclusions`.
pub fn scalinglab_json(c: &Campaign) -> Json {
    let (worst, worst_i) = c.worst_err();
    let seconds = |s: PhaseSeconds| {
        Json::obj()
            .real("transpose_s", s.transpose)
            .real("fft_s", s.fft)
            .real("ns_s", s.ns_advance)
            .real("total_s", s.total())
            .build()
    };
    let points = c.points.iter().map(|p| {
        let counts = Json::obj()
            .real("fft_flops", p.counts.fft_flops)
            .real("ns_flops", p.counts.ns_flops)
            .real("transpose_bytes", p.counts.transpose_bytes);
        Json::obj()
            .text("bench", p.bench.label())
            .put("grid", grid_obj(&p.grid))
            .int("ranks", p.ranks)
            .int("threads", p.threads)
            .int("cores", p.cores)
            .flag("oversubscribed", p.oversubscribed())
            .flag("gated", !p.oversubscribed())
            .int("steps", p.steps)
            .real("wall_s", p.wall_s)
            .put("measured", seconds(p.seconds))
            .put("modelled", seconds(c.modelled(p)))
            .put("counts", counts.build())
            .real("err_rel", c.err_rel(p))
            .text("counts_file", &p.counts_file)
            .build()
    });
    let eventsim = c.eventsim.iter().map(|e| {
        Json::obj()
            .int("cores", e.cores)
            .int("comm_size", e.comm_size)
            .real("analytic_s", e.analytic_s)
            .real("sim_s", e.sim_s)
            .build()
    });
    let calibration = |bench: Bench, residual: f64| {
        let cal = c.calibration_for(bench);
        Json::obj()
            .real("fft_flop_rate", cal.fft_flop_rate)
            .real("ns_flop_rate", cal.ns_flop_rate)
            .real("stream_bw", cal.stream_bw)
            .real("residual", residual)
            .build()
    };
    let check = Json::obj()
        .flag("pass", c.check_passes())
        .real("worst_err_rel", worst)
        .text("worst_point", &c.points[worst_i].name());
    let rk3_res = c.residual(Bench::Rk3Strong).max(c.residual(Bench::Rk3Weak));
    let pfft_res = c
        .residual(Bench::PfftCustom)
        .max(c.residual(Bench::PfftBaseline));
    let ratios = Json::obj()
        .real("rk3_fft", c.ratios.rk3_fft)
        .real("rk3_ns", c.ratios.rk3_ns)
        .real("rk3_transpose", c.ratios.rk3_transpose)
        .real("pfft_fft", c.ratios.pfft_fft)
        .real("pfft_transpose", c.ratios.pfft_transpose);
    Json::obj()
        .int("schema", 1)
        .text("kind", "scalinglab")
        .put("host", host_json())
        .flag("smoke", c.cfg.smoke)
        .real("bound", BOUND)
        .put("check", check.build())
        .put(
            "calibration",
            Json::obj()
                .put("rk3", calibration(Bench::Rk3Strong, rk3_res))
                .put("pfft", calibration(Bench::PfftCustom, pfft_res))
                .build(),
        )
        .put("count_ratios", ratios.build())
        .put("points", Json::Arr(points.collect()))
        .put("eventsim", Json::Arr(eventsim.collect()))
        .put("conclusions", conclusions())
        .build()
}

/// True for a value that holds a list of objects, at any depth.
fn holds_rows(v: &Json) -> bool {
    match v {
        Json::Arr(items) => items.iter().any(|i| matches!(i, Json::Obj(_))),
        Json::Obj(map) => map.values().any(holds_rows),
        _ => false,
    }
}

/// The artifact text of `v`: whatever holds a list of objects opens up, one member
/// per line, so that a row is a line and an artifact diff reads row by
/// row; everything else is [`Json::dump`]'s compact form.
pub fn layout(v: &Json, pad: usize, out: &mut String) {
    let (members, close): (Vec<(Option<&String>, &Json)>, char) = match v {
        Json::Obj(map) if holds_rows(v) => (map.iter().map(|(k, v)| (Some(k), v)).collect(), '}'),
        Json::Arr(items) if holds_rows(v) => (items.iter().map(|v| (None, v)).collect(), ']'),
        _ => return out.push_str(&v.dump()),
    };
    out.push(if close == '}' { '{' } else { '[' });
    for (i, (key, child)) in members.into_iter().enumerate() {
        out.push_str(if i == 0 { "\n" } else { ",\n" });
        out.push_str(&" ".repeat(pad + 2));
        if let Some(key) = key {
            out.push_str(&Json::str(key.as_str()).dump());
            out.push_str(": ");
        }
        layout(child, pad + 2, out);
    }
    out.push('\n');
    out.push_str(&" ".repeat(pad));
    out.push(close);
}

fn cell(v: &Json) -> String {
    match v {
        Json::Str(s) => s.clone(),
        // four significant digits
        Json::Num(n) if n.fract() != 0.0 => match n.abs().log10().floor() as i32 {
            mag @ -2..=3 => format!("{:.*}", (3 - mag) as usize, n),
            _ => format!("{n:.3e}"),
        },
        other => other.dump(),
    }
}

/// Text view of a list of rows (or of one row): the columns are the
/// keys of the first row, and every row is one line.
pub fn rows_text(rows: &Json) -> String {
    let rows = rows.as_arr().unwrap_or(std::slice::from_ref(rows));
    let Some(Json::Obj(first)) = rows.first() else {
        return String::new();
    };
    let cols: Vec<&String> = first.keys().collect();
    let mut t = Table::new(cols.clone());
    for r in rows {
        let cells = cols
            .iter()
            .map(|k| r.get(k.as_str()).map_or("-".into(), cell));
        t.row(cells.collect());
    }
    t.render()
}

/// Text view of one table artifact: a heading per section, then
/// [`rows_text`] of its rows.
pub fn table_text(table: &Json) -> String {
    let get = |v: &Json, key: &str| v.get(key).map_or(String::new(), cell);
    let mut out = format!(
        "== Table {}: {} ==\n",
        get(table, "table"),
        get(table, "title")
    );
    let sections = table.get("sections").and_then(Json::as_arr);
    for s in sections.unwrap_or_default() {
        let grid = s.get("grid").map_or(String::new(), |g| {
            format!(", {} x {} x {}", get(g, "nx"), get(g, "ny"), get(g, "nz"))
        });
        out += &format!(
            "\n{} ({}, {}{grid})\n",
            get(s, "name"),
            get(s, "machine"),
            get(s, "mode")
        );
        out += &rows_text(s.get("rows").unwrap_or(&Json::Null));
    }
    out
}

/// Every artifact of the campaign, `(file name, value)`.
pub fn all(c: &Campaign) -> Vec<(String, Json)> {
    let tables: [fn(&Campaign) -> Json; 11] = [
        table1_json,
        table2_json,
        table3_json,
        table4_json,
        table5_json,
        table6_json,
        table7_json,
        table8_json,
        table9_json,
        table10_json,
        table11_json,
    ];
    let named = (tables.iter().zip(1..)).map(|(f, n)| (format!("BENCH_table{n}.json"), f(c)));
    let fusion = ("BENCH_fusion.json".to_string(), fusion_json(c));
    let lab = ("BENCH_scalinglab.json".to_string(), scalinglab_json(c));
    named.chain([fusion, lab]).collect()
}

/// Write every artifact into the campaign's out dir and return the
/// written paths with their values.
pub fn write_all(c: &Campaign) -> io::Result<Vec<(PathBuf, Json)>> {
    let mut written = Vec::new();
    for (name, value) in all(c) {
        let path = c.cfg.out_dir.join(name);
        let mut text = String::new();
        layout(&value, 0, &mut text);
        std::fs::write(&path, text + "\n")?;
        written.push((path, value));
    }
    Ok(written)
}
