//! Descriptors of the four benchmark systems (section 3 of the paper).
//!
//! Hardware numbers come from public system documentation; the few
//! effective-performance parameters (flop efficiency of the DNS kernels,
//! hardware-thread boost, threading overhead) are anchored to specific
//! paper tables as noted per field.

/// Interconnect families with their bisection-scaling exponents.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Topology {
    /// BG/Q 5D torus: bisection grows like `N^(4/5)`.
    Torus5D,
    /// Cray Gemini 3D torus: bisection grows like `N^(2/3)`; NIC shared
    /// between node pairs.
    Torus3D,
    /// Fat tree with the given oversubscription factor at the core level
    /// (1 = full bisection).
    FatTree {
        /// Core-level oversubscription (2 means half bisection).
        oversubscription: f64,
    },
}

/// One benchmark machine.
#[derive(Clone, Debug)]
pub struct Machine {
    /// Display name.
    pub name: &'static str,
    /// Physical cores per node.
    pub cores_per_node: usize,
    /// Hardware threads per core usable by the kernels.
    pub hw_threads_per_core: usize,
    /// Core clock (Hz).
    pub clock_hz: f64,
    /// Theoretical peak flops per core.
    pub peak_flops_per_core: f64,
    /// Sustainable DRAM bandwidth per node, bytes/s (STREAM-like).
    pub dram_bw: f64,
    /// Fraction of `dram_bw` a single streaming core can draw (Table 4:
    /// one Mira core reaches 1.92 of 18 bytes/cycle).
    pub core_bw_fraction: f64,
    /// Network injection bandwidth per node, bytes/s.
    pub injection_bw: f64,
    /// Per-message latency (s).
    pub latency: f64,
    /// Per-node message-processing overhead (s per message).
    pub msg_overhead: f64,
    /// Small-message bandwidth penalty: effective injection time is
    /// multiplied by `1 + amp / (1 + msg/half)`. Drives the MPI-vs-hybrid
    /// gap of Table 11 (256x smaller messages pay the penalty) while
    /// large hybrid messages ride at full rate.
    pub msg_half_size: f64,
    /// Amplitude of the small-message penalty (0 disables it).
    pub msg_penalty_amp: f64,
    /// Link bandwidth for bisection estimates, bytes/s.
    pub link_bw: f64,
    /// Interconnect family.
    pub topology: Topology,
    /// Usable memory per node (bytes) — drives the "N/A: inadequate
    /// memory" entries of Table 6.
    pub mem_per_node: f64,
    /// Fraction of peak flops the DNS time-advance kernel sustains
    /// (anchored to Table 2: 9.05% on Mira without SIMD; higher on the
    /// Xeons where the compiler vectorises usefully).
    pub flop_efficiency: f64,
    /// Fraction of peak flops the FFT kernels sustain (FFTW reaches
    /// ~20-30% on the x86 systems; ~10% on BG/Q without SIMD).
    pub fft_efficiency: f64,
    /// Fraction of the streamed kernel bytes (N-S advance and FFT
    /// passes) that reach DRAM: large Xeon L3 caches keep most of the
    /// working set resident; BG/Q's small L2 streams nearly everything.
    pub ns_cache_discount: f64,
    /// Aggregate IPC boost from using all hardware threads of a core
    /// (anchored to Table 3: 16x4 threads reach ~210% per-core efficiency
    /// on Mira).
    pub ht_boost: f64,
    /// Fractional overhead of the threaded (hybrid) on-node path versus
    /// rank-per-core (anchored to the small-core-count rows of Table 6 on
    /// Lonestar/Stampede where P3DFFT wins).
    pub thread_overhead: f64,
    /// CPU sockets per node. Threading across sockets degrades the
    /// threaded kernels (section 4.2.1: "threading performance
    /// significantly degrades across sockets" on Lonestar).
    pub sockets: usize,
    /// Slowdown of P3DFFT's fixed, unplanned exchange schedule relative
    /// to the FFTW-planned transposes on this network (1 = none).
    /// Anchored to Table 6's Mira ratios; the fat-tree systems show no
    /// such gap.
    pub baseline_comm_penalty: f64,
}

impl Machine {
    /// Mira: BG/Q, PowerPC A2, 16 cores @ 1.6 GHz, 4 HW threads/core,
    /// 12.8 GF/core peak, 16 GB/node, 5D torus with 2 GB/s links,
    /// DDR peak 18 bytes/cycle (Table 2's normalisation).
    pub fn mira() -> Machine {
        Machine {
            name: "Mira",
            cores_per_node: 16,
            hw_threads_per_core: 4,
            clock_hz: 1.6e9,
            peak_flops_per_core: 12.8e9,
            dram_bw: 18.0 * 1.6e9,   // 18 B/cycle * 1.6 GHz = 28.8 GB/s
            core_bw_fraction: 0.107, // Table 4: 1.92 of 18 bytes/cycle on one core
            // Effective per-node all-to-all injection including the MPI
            // software path, calibrated once to Table 9 (131,072 cores:
            // ~0.5 s per CommA exchange moving ~0.5 GB/node). The raw
            // hardware (10 links x 2 GB/s) is never reached by small
            // sub-communicator all-to-alls.
            injection_bw: 1.0e9,
            latency: 2.5e-6,
            msg_overhead: 20.0e-9,
            msg_half_size: 30.0e3,
            msg_penalty_amp: 1.25,
            link_bw: 2.0e9,
            topology: Topology::Torus5D,
            mem_per_node: 16.0e9,
            flop_efficiency: 0.0905, // Table 2, no-SIMD build
            fft_efficiency: 0.12,
            ns_cache_discount: 0.87,
            ht_boost: 2.1, // Table 3: 16x4 = 204-216% per core
            thread_overhead: 0.05,
            sockets: 1,
            baseline_comm_penalty: 1.9,
        }
    }

    /// Lonestar (TACC): dual-socket Xeon 5680 (Westmere), 12 cores @
    /// 3.33 GHz, QDR InfiniBand fat tree.
    pub fn lonestar() -> Machine {
        Machine {
            name: "Lonestar",
            cores_per_node: 12,
            hw_threads_per_core: 1,
            clock_hz: 3.33e9,
            peak_flops_per_core: 13.3e9, // 4 flops/cycle SSE
            dram_bw: 32.0e9,
            core_bw_fraction: 0.10,
            injection_bw: 1.15e9, // QDR effective for alltoall (Table 9 anchor)
            latency: 1.8e-6,
            msg_overhead: 40.0e-9,
            msg_half_size: 12.0e3,
            msg_penalty_amp: 3.0,
            link_bw: 3.2e9,
            topology: Topology::FatTree {
                oversubscription: 1.0,
            },
            mem_per_node: 24.0e9,
            flop_efficiency: 0.24,
            fft_efficiency: 0.30,
            ns_cache_discount: 0.25,
            ht_boost: 1.0,
            thread_overhead: 0.35,
            sockets: 2,
            baseline_comm_penalty: 1.0,
        }
    }

    /// Stampede (TACC): dual-socket Xeon E5-2680 (Sandy Bridge), 16 cores
    /// @ 2.7 GHz, FDR InfiniBand fat tree (accelerators unused, as in the
    /// paper).
    pub fn stampede() -> Machine {
        Machine {
            name: "Stampede",
            cores_per_node: 16,
            hw_threads_per_core: 1,
            clock_hz: 2.7e9,
            peak_flops_per_core: 21.6e9, // AVX 8 flops/cycle
            dram_bw: 51.2e9,
            core_bw_fraction: 0.0875,
            injection_bw: 2.0e9, // FDR effective for alltoall (Table 9 anchor)
            latency: 1.5e-6,
            msg_overhead: 30.0e-9,
            msg_half_size: 12.0e3,
            msg_penalty_amp: 3.0,
            link_bw: 6.8e9,
            topology: Topology::FatTree {
                oversubscription: 4.5,
            },
            mem_per_node: 32.0e9,
            flop_efficiency: 0.17,
            fft_efficiency: 0.21,
            ns_cache_discount: 0.25,
            ht_boost: 1.0,
            thread_overhead: 0.30,
            sockets: 2,
            baseline_comm_penalty: 1.0,
        }
    }

    /// Blue Waters (NCSA): Cray XE6, dual AMD 6276 Interlagos @ 2.3 GHz
    /// (32 integer cores/node), Gemini 3D torus with a NIC shared per
    /// node pair — the configuration whose transpose scaling collapses in
    /// Table 9.
    pub fn blue_waters() -> Machine {
        Machine {
            name: "Blue Waters",
            cores_per_node: 32,
            hw_threads_per_core: 1,
            clock_hz: 2.3e9,
            peak_flops_per_core: 9.2e9,
            dram_bw: 102.4e9,
            core_bw_fraction: 0.05,
            injection_bw: 1.1e9, // Gemini effective per node (shared NIC)
            latency: 1.6e-6,
            msg_overhead: 40.0e-9,
            msg_half_size: 12.0e3,
            msg_penalty_amp: 1.0,
            link_bw: 4.7e9, // per-direction Gemini link, effective
            topology: Topology::Torus3D,
            mem_per_node: 64.0e9,
            flop_efficiency: 0.19,
            fft_efficiency: 0.23,
            ns_cache_discount: 0.30,
            ht_boost: 1.0,
            thread_overhead: 0.25,
            sockets: 2,
            baseline_comm_penalty: 1.0,
        }
    }

    /// Cross-socket penalty paid by one threaded rank spanning the whole
    /// node (1.0 on single-socket nodes).
    pub fn numa_thread_penalty(&self) -> f64 {
        if self.sockets > 1 {
            1.8
        } else {
            1.0
        }
    }

    /// Nodes needed for `cores` cores.
    pub fn nodes(&self, cores: usize) -> usize {
        cores.div_ceil(self.cores_per_node)
    }

    /// Effective bisection bandwidth (bytes/s) of a partition of `nodes`
    /// nodes.
    pub fn bisection_bw(&self, nodes: usize) -> f64 {
        let n = nodes as f64;
        match self.topology {
            // Geometric 5D-torus bisection grows like n^{4/5}; the
            // *achievable* all-to-all cross-section degrades with hop
            // count and link contention, flattening the effective
            // exponent. 0.65 reproduces Table 10's weak-scaling
            // transpose decline while keeping Table 9's strong scaling
            // near-perfect.
            Topology::Torus5D => 7.0 * n.powf(0.65) * self.link_bw,
            // Gemini's all-to-all cross-section is notoriously poor: an
            // effective n^{1/3} growth reproduces the Table 9 Blue
            // Waters transpose collapse (55% -> 23% efficiency over 8x).
            Topology::Torus3D => 1.7 * n.cbrt() * self.link_bw,
            Topology::FatTree { oversubscription } => {
                // full bisection divided by oversubscription
                n * self.link_bw / (2.0 * oversubscription)
            }
        }
    }

    /// Effective flop rate of `threads` workers on one node running the
    /// DNS kernels (embarrassingly parallel across data lines, Table 3).
    /// `threads` counts hardware threads; the boost beyond one thread per
    /// core saturates at [`Machine::ht_boost`].
    pub fn node_flop_rate(&self, threads: usize) -> f64 {
        self.node_flop_rate_with(self.flop_efficiency, threads)
    }

    /// Same, with an explicit kernel efficiency (the FFT kernels sustain
    /// a different fraction of peak than the banded solves).
    pub fn node_flop_rate_with(&self, efficiency: f64, threads: usize) -> f64 {
        let cores_used = threads.min(self.cores_per_node) as f64;
        let ht = (threads as f64 / cores_used).clamp(1.0, self.hw_threads_per_core as f64);
        // linear interpolation of the hardware-thread boost in log2(ht)
        let boost = 1.0
            + (self.ht_boost - 1.0) * ht.log2()
                / (self.hw_threads_per_core as f64).log2().max(1e-9);
        let boost = if self.hw_threads_per_core == 1 {
            1.0
        } else {
            boost
        };
        cores_used * self.peak_flops_per_core * efficiency * boost
    }

    /// Effective DRAM bandwidth drawn by `threads` concurrent streaming
    /// workers (Table 4's rise-saturate-decline curve): linear rise at
    /// the single-core rate, saturation at 92% of peak, and a slow
    /// contention decline once more threads than cores fight for it.
    pub fn node_stream_bw(&self, threads: usize) -> f64 {
        let t = threads as f64;
        let linear = t * self.core_bw_fraction * self.dram_bw;
        let saturated = linear.min(self.dram_bw * 0.92);
        let knee = self.cores_per_node as f64;
        if t > knee {
            saturated / (1.0 + 0.004 * (t - knee))
        } else {
            saturated
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_are_self_consistent() {
        let all = [
            Machine::mira(),
            Machine::lonestar(),
            Machine::stampede(),
            Machine::blue_waters(),
        ];
        for m in all {
            assert!(m.cores_per_node >= 12);
            assert!(m.dram_bw > 1e9);
            assert!(m.injection_bw > 1e8);
            assert!(m.flop_efficiency > 0.0 && m.flop_efficiency < 1.0);
        }
    }

    #[test]
    fn mira_peak_matches_paper_numbers() {
        let m = Machine::mira();
        // 12.8 GF/core, 18 bytes/cycle at 1.6 GHz (Table 2 framing)
        assert_eq!(m.peak_flops_per_core, 12.8e9);
        assert!((m.dram_bw - 28.8e9).abs() < 1e6);
        // single-core effective rate ~ 1.16 GF (Table 2)
        let rate1 = m.node_flop_rate(1);
        assert!((rate1 - 1.16e9).abs() / 1.16e9 < 0.01, "{rate1:e}");
    }

    #[test]
    fn nodes_round_up() {
        let m = Machine::mira();
        assert_eq!(m.nodes(16), 1);
        assert_eq!(m.nodes(17), 2);
        assert_eq!(m.nodes(786_432), 49_152);
    }

    #[test]
    fn bisection_grows_sublinearly_on_tori() {
        let m = Machine::mira();
        let b1 = m.bisection_bw(1024);
        let b2 = m.bisection_bw(2048);
        assert!(b2 > b1);
        assert!(b2 / b1 < 2.0, "torus bisection must grow sublinearly");
        let ft = Machine::stampede();
        let f1 = ft.bisection_bw(64);
        let f2 = ft.bisection_bw(128);
        assert!((f2 / f1 - 2.0).abs() < 1e-9, "fat tree grows linearly");
    }

    #[test]
    fn blue_waters_network_is_weakest_per_core() {
        // the paper's transpose collapse on Blue Waters: injection per
        // core is far below Mira's
        let bw = Machine::blue_waters();
        let mira = Machine::mira();
        let per_core_bw = bw.injection_bw / bw.cores_per_node as f64;
        let per_core_mira = mira.injection_bw / mira.cores_per_node as f64;
        assert!(per_core_bw < 0.6 * per_core_mira);
    }

    #[test]
    fn stream_bandwidth_rises_then_saturates_then_declines() {
        let m = Machine::mira();
        let b2 = m.node_stream_bw(2);
        let b4 = m.node_stream_bw(4);
        let b16 = m.node_stream_bw(16);
        let b64 = m.node_stream_bw(64);
        assert!((b4 / b2 - 2.0).abs() < 0.05, "linear regime");
        assert!(b16 <= m.dram_bw);
        assert!(b64 < b16, "contention beyond saturation (Table 4)");
    }

    #[test]
    fn hardware_threads_boost_mira_but_not_xeons() {
        let mira = Machine::mira();
        assert!(mira.node_flop_rate(64) > 1.8 * mira.node_flop_rate(16));
        let stampede = Machine::stampede();
        assert_eq!(stampede.node_flop_rate(16), stampede.node_flop_rate(32));
    }
}
