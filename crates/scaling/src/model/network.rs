//! Interconnect cost model for the all-to-all exchanges of the global
//! transposes.
//!
//! One transpose is an all-to-all inside a sub-communicator; `G`
//! disjoint sub-communicators run their all-to-alls concurrently, which
//! is what loads the network. The model charges three resources:
//!
//! * **memory** — messages between ranks on the same node never touch
//!   the wire; they cost two DRAM passes (send + receive buffer);
//! * **wire** — off-node bytes are limited by per-node injection
//!   bandwidth and, machine-wide, by the partition's bisection bandwidth
//!   (this is where the 5D torus, 3D torus and fat trees diverge);
//! * **messages** — each rank exchanges with `P-1` peers; per-message
//!   latency and per-node message-processing overheads grow linearly in
//!   the rank count per node, which is exactly why the paper's hybrid
//!   (1 rank/node) mode beats MPI mode (section 5.3: "sixteen times more
//!   MPI tasks that issue 256 times more messages that are 256 times
//!   smaller").

use crate::model::machines::Machine;

/// One concurrent all-to-all pattern, as placed on the machine.
#[derive(Clone, Copy, Debug)]
pub struct AlltoallSpec {
    /// Ranks in the sub-communicator (the paper's CommA or CommB size).
    pub comm_size: usize,
    /// Payload bytes each rank sends to each peer.
    pub msg_bytes: f64,
    /// Stride between consecutive members in world-rank order (CommB is
    /// contiguous: stride 1; CommA hops over CommB: stride = |CommB|).
    pub rank_stride: usize,
    /// MPI ranks resident per node (cores/node in MPI mode, 1 in hybrid).
    pub tasks_per_node: usize,
    /// Total ranks machine-wide (all concurrent all-to-alls together).
    pub total_ranks: usize,
}

impl AlltoallSpec {
    /// Number of this communicator's members co-resident on one node
    /// (including the caller).
    pub fn members_per_node(&self) -> usize {
        if self.tasks_per_node <= 1 {
            return 1;
        }
        // members sit at world ranks r0 + i*stride; a node hosts
        // `tasks_per_node` consecutive world ranks
        let span = self.tasks_per_node;
        if self.rank_stride >= span {
            1
        } else {
            ((span - 1) / self.rank_stride + 1).min(self.comm_size)
        }
    }
}

/// Cost breakdown of one communication phase (seconds).
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct CommCost {
    /// On-node (DRAM) message traffic.
    pub mem: f64,
    /// Off-node serialisation: max of injection and bisection limits.
    pub wire: f64,
    /// Latency / message-rate term.
    pub messages: f64,
}

impl CommCost {
    /// Total modelled time.
    pub fn total(&self) -> f64 {
        self.mem + self.wire + self.messages
    }

    /// Element-wise sum.
    pub fn plus(&self, o: &CommCost) -> CommCost {
        CommCost {
            mem: self.mem + o.mem,
            wire: self.wire + o.wire,
            messages: self.messages + o.messages,
        }
    }

    /// Scale all components (e.g. per-field cost times field count).
    pub fn scaled(&self, s: f64) -> CommCost {
        CommCost {
            mem: self.mem * s,
            wire: self.wire * s,
            messages: self.messages * s,
        }
    }
}

/// Modelled time of one all-to-all under `spec` on machine `m`.
pub fn alltoall_time(m: &Machine, spec: &AlltoallSpec) -> CommCost {
    let p = spec.comm_size;
    if p <= 1 {
        return CommCost::default();
    }
    let local = spec.members_per_node();
    let n_on = (local - 1) as f64;
    let n_off = (p - local) as f64;
    let t = spec.tasks_per_node as f64;
    let msg = spec.msg_bytes;

    // on-node exchanges: all resident ranks move their on-node messages
    // through memory (one read + one write each)
    let mem = 2.0 * t * msg * n_on / m.dram_bw;

    // off-node bytes; small messages pay a bandwidth-efficiency penalty
    // (the paper's "256 times more messages that are 256 times smaller")
    let node_off = t * msg * n_off;
    // quadratic roll-off: sub-half-size messages pay the full penalty,
    // messages a few times larger escape it quickly
    let q = msg / m.msg_half_size;
    let penalty = 1.0 + m.msg_penalty_amp / (1.0 + q * q);
    let t_inj = node_off * penalty / m.injection_bw;
    let nodes = spec.total_ranks.div_ceil(spec.tasks_per_node.max(1)).max(1);
    // Half of all off-node traffic crosses the bisection on average.
    let total_off = spec.total_ranks as f64 * msg * n_off;
    let t_bis = 0.5 * total_off / m.bisection_bw(nodes);
    let wire = t_inj.max(t_bis);

    // message handling: each resident rank exchanges with p-1 peers; the
    // node's NIC/software stack processes send+receive for all of them.
    // A small pipelined share of the per-message latency remains visible.
    let messages = (p as f64 - 1.0) * (t * m.msg_overhead + 0.05 * m.latency);

    CommCost {
        mem,
        wire,
        messages,
    }
}

/// The two exchanges of a `pa x pb` process grid, each rank moving
/// `elems_a` / `elems_b` complex (16-byte) values through CommA / CommB:
/// CommA strided by |CommB|, CommB contiguous.
pub(crate) fn comm_pair(
    pa: usize,
    pb: usize,
    [elems_a, elems_b]: [f64; 2],
    tasks_per_node: usize,
    total_ranks: usize,
) -> [AlltoallSpec; 2] {
    let spec = |comm_size: usize, elems: f64, rank_stride| AlltoallSpec {
        comm_size,
        msg_bytes: 16.0 * elems / comm_size as f64,
        rank_stride,
        tasks_per_node,
        total_ranks,
    };
    [spec(pa, elems_a, pb), spec(pb, elems_b, 1)]
}

/// Modelled time of one CommA plus one CommB all-to-all.
pub(crate) fn pair_time(m: &Machine, [a, b]: &[AlltoallSpec; 2]) -> CommCost {
    alltoall_time(m, a).plus(&alltoall_time(m, b))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mira() -> Machine {
        Machine::mira()
    }

    #[test]
    fn empty_and_singleton_communicators_are_free() {
        let c = alltoall_time(
            &mira(),
            &AlltoallSpec {
                comm_size: 1,
                msg_bytes: 1e6,
                rank_stride: 1,
                tasks_per_node: 16,
                total_ranks: 1024,
            },
        );
        assert_eq!(c.total(), 0.0);
    }

    #[test]
    fn members_per_node_geometry() {
        // CommB contiguous, 16 tasks/node, |CommB| = 16 -> all local
        let s = AlltoallSpec {
            comm_size: 16,
            msg_bytes: 1.0,
            rank_stride: 1,
            tasks_per_node: 16,
            total_ranks: 8192,
        };
        assert_eq!(s.members_per_node(), 16);
        // CommA with stride 16 on 16-task nodes -> every peer off-node
        let s = AlltoallSpec {
            comm_size: 512,
            msg_bytes: 1.0,
            rank_stride: 16,
            tasks_per_node: 16,
            total_ranks: 8192,
        };
        assert_eq!(s.members_per_node(), 1);
        // CommB of 32 with 16 tasks/node -> half local
        let s = AlltoallSpec {
            comm_size: 32,
            msg_bytes: 1.0,
            rank_stride: 1,
            tasks_per_node: 16,
            total_ranks: 8192,
        };
        assert_eq!(s.members_per_node(), 16);
    }

    #[test]
    fn node_local_commb_is_fastest_split() {
        // Table 5 on Mira: 8192 cores, best at CommA x CommB = 512 x 16.
        // Model the sweep and require monotone degradation as CommB
        // spreads past the node boundary.
        let m = mira();
        let total = 8192usize;
        // field of ~2048*1024*1024/8192 complex elements per rank moves
        // through each exchange; per-pair bytes = 16 * E / P.
        let elems_per_rank = 2048.0 * 1024.0 * 1024.0 / total as f64;
        let mut times = Vec::new();
        for (pa, pb) in [
            (512, 16),
            (256, 32),
            (128, 64),
            (64, 128),
            (32, 256),
            (16, 512),
        ] {
            let pair = comm_pair(pa, pb, [elems_per_rank; 2], 16, total);
            times.push(pair_time(&m, &pair).scaled(2.0).total());
        }
        for w in times.windows(2) {
            assert!(w[1] >= w[0] * 0.98, "{times:?}");
        }
        assert!(times[times.len() - 1] > 1.3 * times[0], "{times:?}");
    }

    #[test]
    fn hybrid_beats_mpi_at_mid_scale_on_mira() {
        // Table 11: one rank/node with 256x larger messages beats 16
        // ranks/node at mid core counts and converges at 786K.
        use crate::model::dnscost::{timestep_transpose, Grid, Parallelism};
        let m = mira();
        let g = Grid {
            nx: 18432,
            ny: 1536,
            nz: 12288,
        };
        let mid_mpi = timestep_transpose(&m, &g, 262_144, Parallelism::Mpi).total();
        let mid_hyb = timestep_transpose(&m, &g, 262_144, Parallelism::Hybrid).total();
        assert!(mid_hyb < mid_mpi, "hybrid {mid_hyb:.2} vs mpi {mid_mpi:.2}");
        let big_mpi = timestep_transpose(&m, &g, 786_432, Parallelism::Mpi).total();
        let big_hyb = timestep_transpose(&m, &g, 786_432, Parallelism::Hybrid).total();
        let ratio = big_mpi / big_hyb;
        assert!(
            (0.8..1.25).contains(&ratio),
            "modes must converge at 786K, ratio {ratio}"
        );
    }

    #[test]
    fn blue_waters_transpose_scales_worse_than_mira() {
        // Table 9: Blue Waters transpose efficiency collapses to ~23%
        // over 8x cores while Mira stays near 100%.
        let strong = |m: &Machine, cores: usize, nx: f64, ny: f64, nz: f64| {
            let elems = nx * ny * nz / cores as f64;
            let pb = m.cores_per_node;
            let pair = comm_pair(cores / pb, pb, [elems; 2], pb, cores);
            pair_time(m, &pair).scaled(2.0).total()
        };
        let bw = Machine::blue_waters();
        let t1 = strong(&bw, 2048, 2048.0, 1024.0, 2048.0);
        let t8 = strong(&bw, 16384, 2048.0, 1024.0, 2048.0);
        let eff_bw = t1 / (8.0 * t8);
        let mira = Machine::mira();
        let m1 = strong(&mira, 131_072, 18432.0, 1536.0, 12288.0);
        let m6 = strong(&mira, 786_432, 18432.0, 1536.0, 12288.0);
        let eff_mira = m1 / (6.0 * m6);
        assert!(eff_mira > 0.7, "Mira strong-scaling efficiency {eff_mira}");
        assert!(
            eff_bw < 0.6,
            "Blue Waters efficiency should collapse, got {eff_bw}"
        );
        assert!(eff_mira > eff_bw + 0.2);
    }

    #[test]
    fn cost_components_scale_sensibly() {
        let m = mira();
        let base = AlltoallSpec {
            comm_size: 64,
            msg_bytes: 1e5,
            rank_stride: 16,
            tasks_per_node: 16,
            total_ranks: 4096,
        };
        let c1 = alltoall_time(&m, &base);
        // doubling message size doubles wire+mem, leaves messages alone
        let mut big = base;
        big.msg_bytes *= 2.0;
        let c2 = alltoall_time(&m, &big);
        // doubling bytes slightly less than doubles wire time because
        // bigger messages are more bandwidth-efficient
        let ratio = c2.wire / c1.wire;
        assert!((1.5..=2.0).contains(&ratio), "{ratio}");
        assert_eq!(c2.messages, c1.messages);
    }
}
