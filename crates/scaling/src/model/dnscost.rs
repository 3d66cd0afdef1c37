//! Grid-driven workload counts and end-to-end predictors for the paper's
//! scaling tables.
//!
//! Everything here is derived from the algorithm of section 2.3: per RK3
//! substep, three velocity fields travel spectral -> physical (CommB then
//! CommA exchanges, z then x inverse transforms), five nonlinear-product
//! fields travel back, and every retained wavenumber pays three banded
//! solves in y. The predictors combine those counts with the node
//! roofline ([`crate::model::node`]) and the interconnect model
//! ([`crate::model::network`]).

use crate::model::machines::Machine;
use crate::model::network::{comm_pair, pair_time, CommCost};
use crate::model::node::{kernel_time, stream_time, KernelCounts};
use dns_fft::{cfft_flops, rfft_flops};
use dns_telemetry::PhaseSeconds;

/// Solution grid (Fourier modes in x/z, B-spline points in y).
#[derive(Clone, Copy, Debug)]
pub struct Grid {
    /// Streamwise Fourier modes.
    pub nx: usize,
    /// Wall-normal B-spline collocation points.
    pub ny: usize,
    /// Spanwise Fourier modes.
    pub nz: usize,
}

impl Grid {
    /// Dealiased physical grid in x (3/2 rule).
    pub fn px(&self) -> usize {
        3 * self.nx / 2
    }
    /// Dealiased physical grid in z.
    pub fn pz(&self) -> usize {
        3 * self.nz / 2
    }
    /// Stored x-spectrum length (Nyquist elided).
    pub fn sx(&self) -> usize {
        self.nx / 2
    }
}

/// Velocity fields inverse-transformed per substep (u, v, w).
pub const FIELDS_DOWN: f64 = 3.0;
/// Nonlinear-product fields forward-transformed per substep (the paper's
/// five quadratic products; our solver carries a sixth, see DESIGN.md).
pub const FIELDS_UP: f64 = 5.0;
/// Runge-Kutta substeps per timestep.
pub const RK_SUBSTEPS: f64 = 3.0;
/// Modelled flops per mode per y-point per substep of the Navier-Stokes
/// advance: three corner-banded solves of bandwidth 15 on complex data,
/// right-hand-side assembly of h_g/h_v from the transformed products
/// (spectral derivatives over five fields), the influence-matrix
/// correction, and u,w recovery. Calibrated once against Table 9's
/// N-S column at 131,072 cores.
pub const NS_FLOPS_PER_POINT: f64 = 2000.0;
/// Nominal streaming bytes per mode per y-point per substep (factored
/// matrices + state vectors); multiplied by the machine's
/// `ns_cache_discount` for the DRAM roof.
pub const NS_BYTES_PER_POINT: f64 = 2800.0;

/// Rank-per-core ("MPI") or rank-per-node ("Hybrid") execution.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Parallelism {
    /// One MPI rank per core; OpenMP only via hardware threads.
    Mpi,
    /// One MPI rank per node; all on-node parallelism via threads.
    Hybrid,
}

/// Per-phase operation counts of one workload unit (one RK3 timestep or
/// one pfft cycle, whole machine): the closed form of [`step_workload`]
/// / [`pfft_cycle_workload`], or its measured counterpart harvested from
/// a `dns-telemetry` counts snapshot. The campaign divides the measured
/// by the closed form (its count ratios) and scales the model's at-scale
/// predictions by the quotients.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct StepCounts {
    /// FFT flops (all fields, both directions).
    pub fft_flops: f64,
    /// Navier-Stokes advance flops (the closed form is the calibrated
    /// [`NS_FLOPS_PER_POINT`] accounting).
    pub ns_flops: f64,
    /// DRAM bytes the transposes stream (pack/unpack/reorder).
    pub transpose_bytes: f64,
}

/// Choose the CommA x CommB factorisation the way the production code
/// does: CommB pinned to the node (or its best divisor).
pub fn choose_grid(ranks: usize, tasks_per_node: usize) -> (usize, usize) {
    let mut pb = tasks_per_node.min(ranks).max(1);
    while !ranks.is_multiple_of(pb) {
        pb -= 1;
    }
    // hybrid runs (1 task/node) still want a 2D grid: use up to 16 on
    // the B axis, matching the paper's localisation to torus boundaries
    if pb == 1 && ranks >= 16 {
        pb = 16;
        while !ranks.is_multiple_of(pb) {
            pb /= 2;
        }
    }
    (ranks / pb, pb)
}

/// Total FFT flops for one field making one trip through both transform
/// directions (one z pass + one x pass), machine-wide.
fn field_fft_flops(g: &Grid) -> f64 {
    let z_lines = (g.sx() * g.ny) as f64;
    let x_lines = (g.pz() * g.ny) as f64;
    z_lines * cfft_flops(g.pz()) + x_lines * rfft_flops(g.px())
}

/// Nominal DRAM bytes for one field's trip through both transform
/// directions: each pass reads and writes the line data plus the
/// pad/truncate staging (z: complex, 3 effective passes; x: mixed
/// real/complex). Multiplied by the machine cache discount downstream.
fn field_fft_bytes(g: &Grid) -> f64 {
    let z_elems = (g.sx() * g.ny * g.pz()) as f64;
    let x_elems = (g.pz() * g.ny * g.px()) as f64;
    48.0 * z_elems + 30.0 * x_elems
}

/// Workload counts of one RK3 timestep on grid `g` (whole machine; divide
/// by ranks for per-rank shares).
pub fn step_workload(g: &Grid) -> StepCounts {
    let fields = FIELDS_DOWN + FIELDS_UP;
    let modes = (g.sx() * g.nz) as f64;
    // elements crossing the two exchange points (spectral y<->z, padded
    // z<->x); each exchange packs and unpacks, and each pass reads and
    // writes every 16-byte element
    let e_b = (g.sx() * g.nz * g.ny) as f64;
    let e_a = (g.sx() * g.pz() * g.ny) as f64;
    StepCounts {
        fft_flops: fields * RK_SUBSTEPS * field_fft_flops(g),
        ns_flops: RK_SUBSTEPS * modes * g.ny as f64 * NS_FLOPS_PER_POINT,
        transpose_bytes: fields * RK_SUBSTEPS * 4.0 * 16.0 * (e_a + e_b),
    }
}

/// Transpose cost of one full RK3 timestep.
pub fn timestep_transpose(m: &Machine, g: &Grid, cores: usize, mode: Parallelism) -> CommCost {
    let (ranks, tasks) = match mode {
        Parallelism::Mpi => (cores, m.cores_per_node.min(cores)),
        Parallelism::Hybrid => (m.nodes(cores), 1),
    };
    let (pa, pb) = choose_grid(ranks, tasks);
    let fields = FIELDS_DOWN + FIELDS_UP;
    // per-rank elements at the two exchange points
    let e_a = (g.sx() * g.pz() * g.ny) as f64 / ranks as f64; // z<->x (z padded)
    let e_b = (g.sx() * g.nz * g.ny) as f64 / ranks as f64; // y<->z (spectral)
    let pair = comm_pair(pa, pb, [e_a, e_b], tasks, ranks);
    pair_time(m, &pair).scaled(fields * RK_SUBSTEPS)
}

/// On-node kernel times of one timestep (FFT+products, and the N-S
/// advance), identical for MPI and hybrid modes (section 5.3).
pub fn timestep_node(m: &Machine, g: &Grid, cores: usize) -> (f64, f64) {
    let nodes = m.nodes(cores) as f64;
    let threads = m.cores_per_node * m.hw_threads_per_core;
    let fields = FIELDS_DOWN + FIELDS_UP;
    let w = step_workload(g);

    // FFT phase, including a cache-capacity penalty when x-lines outgrow
    // the on-chip cache (the weak-scaling FFT degradation of Table 10)
    let fft_counts = KernelCounts {
        flops: w.fft_flops / nodes,
        dram_bytes: fields * RK_SUBSTEPS * field_fft_bytes(g) * m.ns_cache_discount / nodes,
    };
    let line_bytes = 16.0 * g.px() as f64;
    // per-core cache share an x-line competes for; beyond it, the fused
    // pad+FFT+product block loses residency (Table 10's FFT decline)
    let cache_per_core = 64.0e3;
    let cache_penalty = 1.0 + 0.25 * (line_bytes / cache_per_core).max(1.0).log2();
    let t_fft = kernel_time(m, &fft_counts, threads, m.fft_efficiency) * cache_penalty;

    let modes = (g.sx() * g.nz) as f64;
    let ns_counts = KernelCounts {
        flops: w.ns_flops / nodes,
        dram_bytes: RK_SUBSTEPS * modes * g.ny as f64 * NS_BYTES_PER_POINT * m.ns_cache_discount
            / nodes,
    };
    let t_ns = kernel_time(m, &ns_counts, threads, m.flop_efficiency);
    (t_fft, t_ns)
}

/// Full prediction of one RK3 timestep (a row of Table 9/10).
pub fn timestep_phases(m: &Machine, g: &Grid, cores: usize, mode: Parallelism) -> PhaseSeconds {
    let (t_fft, t_ns) = timestep_node(m, g, cores);
    let transpose = timestep_transpose(m, g, cores, mode);
    PhaseSeconds {
        transpose: transpose.total(),
        fft: t_fft,
        ns_advance: t_ns,
        other: 0.0,
    }
}

/// Decomposed pfft-cycle prediction: the three independently scalable
/// parts of one cycle. The scaling lab multiplies `node` and `reorder`
/// by measured-vs-analytic count ratios before summing, so
/// extrapolations are driven by harvested counts rather than purely
/// analytic ones.
#[derive(Clone, Copy, Debug)]
pub struct PfftParts {
    /// Network time of the four all-to-all exchanges.
    pub comm: f64,
    /// Transform arithmetic (x pass + z pass, forward and inverse).
    pub node: f64,
    /// DRAM streaming of the transpose reorder (pack/unpack).
    pub reorder: f64,
}

impl PfftParts {
    /// Total cycle time.
    pub fn total(&self) -> f64 {
        self.comm + self.node + self.reorder
    }
}

/// Workload counts of one pfft forward+inverse cycle (whole machine):
/// transform flops and nominal reorder DRAM traffic, no N-S advance. The
/// measured counterpart is a pfft-cycle probe's telemetry snapshot;
/// their ratio calibrates [`pfft_cycle_parts`] extrapolations.
pub fn pfft_cycle_workload(g: &Grid, customized: bool) -> StepCounts {
    let sx = g.nx / 2 + usize::from(!customized);
    let elems = (sx * g.ny * g.nz) as f64;
    StepCounts {
        fft_flops: 2.0
            * ((sx * g.ny) as f64 * cfft_flops(g.nz) + (g.nz * g.ny) as f64 * rfft_flops(g.nx)),
        ns_flops: 0.0,
        // four transposes, each packing and unpacking every 16-byte
        // element with a read and a write on both sides
        transpose_bytes: 4.0 * 4.0 * 16.0 * elems,
    }
}

/// Parallel-FFT cycle prediction for Table 6 (four transposes + four
/// transform passes, no dealiasing, no y transform), decomposed into
/// its comm/node/reorder parts. Returns `None` when the kernel does not
/// fit in memory ("N/A" in the paper's table).
pub fn pfft_cycle_parts(
    m: &Machine,
    g: &Grid,
    cores: usize,
    customized: bool,
) -> Option<PfftParts> {
    let nodes = m.nodes(cores);
    let sx = g.nx / 2 + usize::from(!customized);
    // Memory gate (the paper's "N/A denotes inadequate memory"): the
    // customized kernel needs the field plus one exchange buffer
    // (~2.4x with plan metadata); P3DFFT stages through a buffer three
    // times the input arrays (~6x total). The multipliers are anchored
    // to exactly which Table 6 rows the paper marks N/A.
    let field_bytes = 16.0 * sx as f64 * g.ny as f64 * g.nz as f64 / nodes as f64;
    let buffers = if customized { 2.4 } else { 6.0 };
    if field_bytes * buffers > m.mem_per_node * 0.85 {
        return None;
    }

    let (ranks, tasks) = if customized {
        (nodes, 1)
    } else {
        (cores, m.cores_per_node.min(cores))
    };
    let (pa, pb) = choose_grid(ranks, tasks);
    let elems = (sx * g.nz * g.ny) as f64 / ranks as f64;
    // four transposes per cycle: 2 x CommA + 2 x CommB; P3DFFT's fixed
    // schedule pays the machine's baseline penalty
    let sched = if customized {
        1.0
    } else {
        m.baseline_comm_penalty
    };
    let comm = pair_time(m, &comm_pair(pa, pb, [elems; 2], tasks, ranks)).scaled(2.0 * sched);

    // transform arithmetic: x pass + z pass, forward and inverse
    let counts = KernelCounts {
        flops: pfft_cycle_workload(g, customized).fft_flops / nodes as f64,
        dram_bytes: 2.0 * 2.0 * 16.0 * (sx * g.ny * g.nz) as f64 / nodes as f64,
    };
    let threads = if customized {
        m.cores_per_node * m.hw_threads_per_core
    } else {
        m.cores_per_node // one single-threaded rank per core: no HT boost
    };
    let mut t_node = kernel_time(m, &counts, threads, m.fft_efficiency);
    if customized {
        // one threaded rank spans the whole node: thread-sync overhead
        // plus the cross-socket penalty on NUMA nodes (section 4.2.1)
        t_node *= (1.0 + m.thread_overhead) * m.numa_thread_penalty();
    }
    // the reorder part of each transpose also streams through DRAM
    let reorder_bytes = 4.0 * 2.0 * 16.0 * (sx * g.ny * g.nz) as f64 / nodes as f64;
    let t_reorder = stream_time(m, reorder_bytes, threads.min(m.cores_per_node));

    Some(PfftParts {
        comm: comm.total(),
        node: t_node,
        reorder: t_reorder,
    })
}

/// Aggregate sustained flop rates of the full timestep (section 5.3's
/// closing numbers: ~271 Tflops total, ~2.7% of peak, vs ~906 Tflops /
/// ~9% counting only the on-node compute time).
pub struct AggregateRates {
    /// Sustained rate over the whole timestep (flops / total time).
    pub total_rate: f64,
    /// Fraction of the partition's theoretical peak.
    pub total_peak_fraction: f64,
    /// Rate counting only the on-node compute time.
    pub compute_rate: f64,
    /// Its fraction of peak.
    pub compute_peak_fraction: f64,
}

/// Compute the aggregate-rate summary for a configuration.
pub fn aggregate_rates(m: &Machine, g: &Grid, cores: usize, mode: Parallelism) -> AggregateRates {
    let p = timestep_phases(m, g, cores, mode);
    let w = step_workload(g);
    let flops = w.fft_flops + w.ns_flops;
    let peak = cores as f64 * m.peak_flops_per_core;
    let compute_time = p.fft + p.ns_advance;
    AggregateRates {
        total_rate: flops / p.total(),
        total_peak_fraction: flops / p.total() / peak,
        compute_rate: flops / compute_time,
        compute_peak_fraction: flops / compute_time / peak,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cycle_s(m: &Machine, g: &Grid, cores: usize, customized: bool) -> Option<f64> {
        pfft_cycle_parts(m, g, cores, customized).map(|p| p.total())
    }

    fn mira_grid() -> Grid {
        Grid {
            nx: 18432,
            ny: 1536,
            nz: 12288,
        }
    }

    #[test]
    fn choose_grid_keeps_commb_on_node() {
        assert_eq!(choose_grid(8192, 16), (512, 16));
        assert_eq!(choose_grid(131072, 16), (8192, 16));
        // hybrid: 4096 nodes, 1 task each
        assert_eq!(choose_grid(4096, 1), (256, 16));
    }

    #[test]
    fn strong_scaling_transpose_on_mira_stays_efficient() {
        // Table 9, Mira MPI: near-perfect transpose scaling 131k -> 786k
        let m = Machine::mira();
        let g = mira_grid();
        let t1 = timestep_transpose(&m, &g, 131_072, Parallelism::Mpi).total();
        let t6 = timestep_transpose(&m, &g, 786_432, Parallelism::Mpi).total();
        let eff = t1 / (6.0 * t6);
        assert!(eff > 0.75, "Mira MPI transpose efficiency {eff}");
    }

    #[test]
    fn ns_advance_scales_perfectly() {
        let m = Machine::mira();
        let g = mira_grid();
        let (_, ns1) = timestep_node(&m, &g, 131_072);
        let (_, ns6) = timestep_node(&m, &g, 786_432);
        let eff = ns1 / (6.0 * ns6);
        assert!((eff - 1.0).abs() < 0.05, "{eff}");
    }

    #[test]
    fn mira_mpi_total_is_in_the_table9_ballpark() {
        // Table 9: 131,072 cores -> 41.2 s total (26.9 transpose, 7.3
        // FFT, 7.0 N-S). Within 2x counts as the right ballpark for a
        // model with no per-row tuning.
        let m = Machine::mira();
        let g = mira_grid();
        let p = timestep_phases(&m, &g, 131_072, Parallelism::Mpi);
        assert!(p.transpose > 10.0 && p.transpose < 60.0, "{p:?}");
        assert!(p.fft > 3.0 && p.fft < 16.0, "{p:?}");
        assert!(p.ns_advance > 3.0 && p.ns_advance < 16.0, "{p:?}");
    }

    #[test]
    fn hybrid_beats_mpi_at_mid_scale() {
        let m = Machine::mira();
        let g = mira_grid();
        let mpi = timestep_phases(&m, &g, 262_144, Parallelism::Mpi).total();
        let hyb = timestep_phases(&m, &g, 262_144, Parallelism::Hybrid).total();
        assert!(hyb < mpi, "hybrid {hyb} vs mpi {mpi}");
    }

    #[test]
    fn weak_scaling_fft_degrades_with_nx() {
        // Table 10: FFT efficiency falls as Nx grows (cache capacity)
        let m = Machine::mira();
        let small = Grid {
            nx: 4608,
            ny: 1536,
            nz: 12288,
        };
        let large = Grid {
            nx: 55296,
            ny: 1536,
            nz: 12288,
        };
        let (f_small, _) = timestep_node(&m, &small, 65_536);
        let (f_large, _) = timestep_node(&m, &large, 786_432);
        // perfect weak scaling would keep f constant up to the log(N)
        // factor; require measurable degradation beyond it
        let logratio = rfft_flops(large.px()) / rfft_flops(small.px()) / 12.0;
        assert!(f_large > f_small * logratio * 1.1, "{f_small} {f_large}");
    }

    #[test]
    fn pfft_crossover_on_stampede() {
        // Table 6 Stampede: P3DFFT faster at 64 cores (ratio < 1),
        // customized faster at 4096 (ratio > 1).
        let m = Machine::stampede();
        let g = Grid {
            nx: 1024,
            ny: 1024,
            nz: 1024,
        };
        let small_c = cycle_s(&m, &g, 64, true).unwrap();
        let small_p = cycle_s(&m, &g, 64, false).unwrap();
        let big_c = cycle_s(&m, &g, 4096, true).unwrap();
        let big_p = cycle_s(&m, &g, 4096, false).unwrap();
        assert!(
            small_p < small_c,
            "P3DFFT wins small: {small_p} vs {small_c}"
        );
        assert!(big_c < big_p, "customized wins big: {big_c} vs {big_p}");
    }

    #[test]
    fn pfft_customized_wins_everywhere_on_mira() {
        // Table 6 Mira^1: ratio 2.1-2.6 at every core count
        let m = Machine::mira();
        let g = Grid {
            nx: 2048,
            ny: 1024,
            nz: 1024,
        };
        for cores in [128usize, 1024, 8192] {
            let c = cycle_s(&m, &g, cores, true).unwrap();
            let p = cycle_s(&m, &g, cores, false).unwrap();
            let ratio = p / c;
            assert!(ratio > 1.1, "cores={cores} ratio={ratio}");
        }
    }

    #[test]
    fn aggregate_rates_match_section_5_3() {
        // paper: 271 Tflops (2.7% of peak) overall, ~906 Tflops (~9.0%)
        // on-node, at 786,432 cores on the strong-scaling grid
        let m = Machine::mira();
        let g = Grid {
            nx: 18432,
            ny: 1536,
            nz: 12288,
        };
        let r = aggregate_rates(&m, &g, 786_432, Parallelism::Mpi);
        assert!(
            r.total_peak_fraction > 0.015 && r.total_peak_fraction < 0.045,
            "total fraction {}",
            r.total_peak_fraction
        );
        assert!(
            r.compute_peak_fraction > 0.06 && r.compute_peak_fraction < 0.13,
            "compute fraction {}",
            r.compute_peak_fraction
        );
        assert!(r.compute_rate > 2.0 * r.total_rate);
    }

    #[test]
    fn pfft_memory_gate_reproduces_na_entries() {
        // Table 6 Mira^2: P3DFFT N/A below 262,144 cores for the
        // 18432 x 12288 x 12288 grid; customized runs from 65,536.
        let m = Machine::mira();
        let g = Grid {
            nx: 18432,
            ny: 12288,
            nz: 12288,
        };
        assert!(cycle_s(&m, &g, 65_536, true).is_some());
        assert!(cycle_s(&m, &g, 131_072, false).is_none());
        assert!(cycle_s(&m, &g, 262_144, false).is_some());
    }
}
