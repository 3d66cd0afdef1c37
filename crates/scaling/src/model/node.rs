//! Node-level roofline model and the Table 2 hardware-counter emulation.

use crate::model::machines::Machine;

/// Operation counts of one kernel invocation (per node).
#[derive(Clone, Copy, Debug, Default)]
pub struct KernelCounts {
    /// Floating-point operations.
    pub flops: f64,
    /// Compulsory DRAM traffic in bytes (read + write).
    pub dram_bytes: f64,
}

/// Time for `counts` on one node of `m` with `threads` hardware threads
/// active at flop efficiency `eff` — whichever of the flop roof and the
/// DRAM roof binds.
pub(crate) fn kernel_time(m: &Machine, counts: &KernelCounts, threads: usize, eff: f64) -> f64 {
    let t_flop = counts.flops / m.node_flop_rate_with(eff, threads);
    let t_mem = counts.dram_bytes / m.node_stream_bw(threads);
    t_flop.max(t_mem)
}

/// Pure-streaming time (the on-node reorder of Table 4: no arithmetic,
/// only DRAM traffic).
pub(crate) fn stream_time(m: &Machine, bytes: f64, threads: usize) -> f64 {
    bytes / m.node_stream_bw(threads)
}

/// Emulated single-core hardware-counter report (the content of Table 2).
#[derive(Clone, Copy, Debug)]
pub struct HpmReport {
    /// Achieved Gflops (and fraction of the 12.8 Gflops peak).
    pub gflops: f64,
    /// Fraction of theoretical peak.
    pub peak_fraction: f64,
    /// Instructions per cycle (estimated: flop + load/store mix).
    pub ipc: f64,
    /// Percent of loads served by L1 (incl. prefetch).
    pub l1_pct: f64,
    /// Percent of loads served by L2.
    pub l2_pct: f64,
    /// Percent of loads served by DRAM.
    pub ddr_pct: f64,
    /// DRAM traffic in bytes per cycle (peak is 18 on Mira).
    pub ddr_bytes_per_cycle: f64,
    /// Elapsed seconds for the counted work.
    pub elapsed: f64,
}

/// Emulate the per-core HPM measurement of the Navier-Stokes time
/// advance (Table 2). The counters are read on a fully loaded node (the
/// only physically consistent reading of the paper's "93% of the 18
/// bytes/cycle DDR peak" next to near-perfect 16-way thread scaling);
/// per-core figures divide the node totals by the core count. `simd`
/// reproduces the paper's pathological SIMD build: the compiler emits
/// ~4.3x the flops (vectorised but wasteful) and the kernel runs ~19%
/// *slower*; we model that observation rather than a compiler.
pub fn hpm_single_core(m: &Machine, counts_per_node: &KernelCounts, simd: bool) -> HpmReport {
    let counts = counts_per_node;
    let base_elapsed = kernel_time(m, counts, m.cores_per_node, m.flop_efficiency);
    let (flops, elapsed) = if simd {
        (counts.flops * 4.28, base_elapsed * 1.186)
    } else {
        (counts.flops, base_elapsed)
    };
    let gflops = flops / m.cores_per_node as f64 / elapsed / 1e9;
    let peak_fraction = gflops * 1e9 / m.peak_flops_per_core;
    let cycles = elapsed * m.clock_hz;
    let ddr_bytes_per_cycle = counts.dram_bytes / cycles;
    // loads: roughly one 8-byte load per 1.4 flops in the banded solves.
    // Most DRAM traffic arrives via the prefetch engines, so only a small
    // fraction of it is visible as demand-load misses (which is how 93%
    // DDR utilisation coexists with a 98% L1 hit rate in Table 2).
    let loads = counts.flops * 0.7;
    let visible_miss_fraction = 0.07;
    let ddr_loads = counts.dram_bytes / 2.0 / 8.0 * visible_miss_fraction;
    let ddr_pct = 100.0 * ddr_loads / loads;
    let l2_pct = ddr_pct * if simd { 2.7 } else { 1.05 }; // small L2 share
    let l1_pct = 100.0 - ddr_pct - l2_pct;
    // IPC: flops plus address/loop instructions at the achieved rate
    let instr = flops * 2.5;
    let ipc = instr / cycles * if simd { 0.55 } else { 1.0 };
    HpmReport {
        gflops,
        peak_fraction,
        ipc,
        l1_pct,
        l2_pct,
        ddr_pct,
        ddr_bytes_per_cycle,
        elapsed,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ns_advance_counts() -> KernelCounts {
        // Table 2's workload at node level: 16 cores x 1.16 Gflops for
        // 3.34 s of flops, streaming ~90 GB (16.8 bytes/cycle) — the
        // banded-solve sweep's real arithmetic intensity (~0.7
        // flops/byte, DRAM-bound on BG/Q).
        KernelCounts {
            flops: 62.0e9,
            dram_bytes: 90.0e9,
        }
    }

    #[test]
    fn roofline_picks_the_binding_resource() {
        let m = Machine::mira();
        let compute_bound = KernelCounts {
            flops: 1e12,
            dram_bytes: 1e6,
        };
        let mem_bound = KernelCounts {
            flops: 1e6,
            dram_bytes: 1e11,
        };
        let t_c = kernel_time(&m, &compute_bound, 16, m.flop_efficiency);
        let t_m = kernel_time(&m, &mem_bound, 16, m.flop_efficiency);
        assert!((t_c - 1e12 / m.node_flop_rate(16)).abs() / t_c < 1e-12);
        assert!((t_m - 1e11 / m.node_stream_bw(16)).abs() / t_m < 1e-12);
    }

    #[test]
    fn table2_shape_no_simd() {
        // Table 2 (no SIMD): 1.16 GF (9.05%), ~16.8 B/cycle (93%),
        // L1 ~98%, DDR ~0.9%.
        let r = hpm_single_core(&Machine::mira(), &ns_advance_counts(), false);
        assert!(r.peak_fraction > 0.07 && r.peak_fraction < 0.11, "{r:?}");
        assert!(
            r.ddr_bytes_per_cycle > 14.0 && r.ddr_bytes_per_cycle <= 18.0,
            "{r:?}"
        );
        assert!(r.l1_pct > 96.0 && r.l1_pct < 99.5, "{r:?}");
        assert!(r.ddr_pct < 2.5, "{r:?}");
    }

    #[test]
    fn table2_shape_simd() {
        // SIMD build: more flops, more elapsed time
        let m = Machine::mira();
        let c = ns_advance_counts();
        let plain = hpm_single_core(&m, &c, false);
        let simd = hpm_single_core(&m, &c, true);
        assert!(simd.gflops > 3.0 * plain.gflops);
        assert!(simd.elapsed > plain.elapsed);
        assert!(simd.ddr_bytes_per_cycle < plain.ddr_bytes_per_cycle);
    }

    #[test]
    fn stream_time_matches_bandwidth_curve() {
        let m = Machine::mira();
        let t16 = stream_time(&m, 1e9, 16);
        let t64 = stream_time(&m, 1e9, 64);
        assert!(t64 > t16, "reorder slows past DDR saturation (Table 4)");
    }
}
