//! Discrete-event simulation of the all-to-all exchanges — an
//! independent, mechanism-level cross-check of the closed-form model in
//! [`crate::model::network`].
//!
//! The simulator moves every message of an all-to-all through three
//! store-and-forward resources: the source node's injection link, the
//! bisection (only for messages crossing the machine's two halves,
//! modelling the torus cross-section), and the destination node's
//! ejection link. Each resource is a FIFO server with a byte rate and a
//! per-message overhead; messages become available at their source in
//! round-robin order, like a real pairwise-scheduled all-to-all.
//!
//! This is deliberately simpler than the analytic model (no
//! message-size bandwidth penalty, no on-node memory phase) — the point
//! is that both approaches produce the same *orderings*: node-local
//! CommB beats spread CommB, fewer bigger messages beat many small
//! ones, and bisection-limited machines stop strong-scaling.

use crate::model::machines::Machine;
use crate::model::network::AlltoallSpec;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// One message in flight.
#[derive(Clone, Copy, Debug)]
struct Msg {
    src_node: usize,
    dst_node: usize,
    bytes: f64,
    /// Time the message is handed to the injection queue.
    ready: f64,
}

/// A FIFO store-and-forward resource.
struct Server {
    /// Time the server becomes free.
    free_at: f64,
    rate: f64,
    overhead: f64,
}

impl Server {
    fn new(rate: f64, overhead: f64) -> Server {
        Server {
            free_at: 0.0,
            rate,
            overhead,
        }
    }

    /// Serve a message that arrives at `t`; returns its completion time.
    fn serve(&mut self, t: f64, bytes: f64) -> f64 {
        let start = t.max(self.free_at);
        let done = start + self.overhead + bytes / self.rate;
        self.free_at = done;
        done
    }
}

/// Simulate the exchange on machine `m`; returns the makespan in
/// seconds. All `total_ranks / comm_size` disjoint all-to-alls run
/// concurrently, loading the shared links.
pub fn simulate_alltoall(m: &Machine, ex: &AlltoallSpec) -> f64 {
    let t = ex.tasks_per_node.max(1);
    let nodes = ex.total_ranks.div_ceil(t).max(1);
    // Generate the messages: rank r sends to every peer of its
    // communicator. Communicators partition world ranks: member i of
    // group g has world rank base(g) + i*stride within the group span.
    let groups = (ex.total_ranks / ex.comm_size).max(1);
    let span = ex.comm_size * ex.rank_stride;
    debug_assert!(
        span <= ex.total_ranks || groups == 1,
        "inconsistent communicator tiling: stride {} x size {} > {} ranks",
        ex.rank_stride,
        ex.comm_size,
        ex.total_ranks
    );
    let mut msgs: Vec<Msg> = Vec::new();
    for g in 0..groups {
        // groups tile the world ranks: group g covers offset block
        let base = (g / ex.rank_stride) * span + (g % ex.rank_stride);
        for i in 0..ex.comm_size {
            let src = base + i * ex.rank_stride;
            if src >= ex.total_ranks {
                continue;
            }
            for round in 1..ex.comm_size {
                // pairwise schedule: round k partner = (i + k) mod P
                let j = (i + round) % ex.comm_size;
                let dst = base + j * ex.rank_stride;
                if dst >= ex.total_ranks {
                    continue;
                }
                let (sn, dn) = (src / t, dst / t);
                if sn == dn {
                    continue; // node-local: handled at memory speed, not simulated
                }
                msgs.push(Msg {
                    src_node: sn,
                    dst_node: dn,
                    bytes: ex.msg_bytes,
                    // each rank injects its rounds in order
                    ready: round as f64 * 1e-9,
                });
            }
        }
    }
    if msgs.is_empty() {
        return 0.0;
    }

    let mut inject: Vec<Server> = (0..nodes)
        .map(|_| Server::new(m.injection_bw, m.msg_overhead))
        .collect();
    let mut eject: Vec<Server> = (0..nodes)
        .map(|_| Server::new(m.injection_bw, m.msg_overhead))
        .collect();
    let mut bisection = Server::new(m.bisection_bw(nodes), 0.0);

    // process in ready order (heap by ready time, then src for fairness)
    let mut heap: BinaryHeap<Reverse<(u64, usize)>> = msgs
        .iter()
        .enumerate()
        .map(|(i, msg)| Reverse(((msg.ready * 1e12) as u64, i)))
        .collect();
    let mut makespan = 0.0f64;
    while let Some(Reverse((_, i))) = heap.pop() {
        let msg = msgs[i];
        let t1 = inject[msg.src_node].serve(msg.ready, msg.bytes);
        // bisection: only messages crossing the machine's two halves
        let crosses = (msg.src_node < nodes / 2) != (msg.dst_node < nodes / 2);
        let t2 = if crosses && nodes > 1 {
            bisection.serve(t1, msg.bytes)
        } else {
            t1
        };
        let t3 = eject[msg.dst_node].serve(t2, msg.bytes) + m.latency;
        makespan = makespan.max(t3);
    }
    makespan
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mira() -> Machine {
        Machine::mira()
    }

    #[test]
    fn single_pair_is_latency_plus_serialisation() {
        // 2 ranks on 2 nodes exchanging one message each way
        let m = mira();
        let ex = AlltoallSpec {
            comm_size: 2,
            msg_bytes: 1e6,
            rank_stride: 1,
            tasks_per_node: 1,
            total_ranks: 2,
        };
        let t = simulate_alltoall(&m, &ex);
        let serial = 2.0 * (1e6 / m.injection_bw + m.msg_overhead) + m.latency;
        assert!(t > 0.9 * serial && t < 2.2 * serial, "t={t} vs {serial}");
    }

    #[test]
    fn node_local_communicator_is_free() {
        let m = mira();
        let ex = AlltoallSpec {
            comm_size: 16,
            msg_bytes: 1e6,
            rank_stride: 1,
            tasks_per_node: 16,
            total_ranks: 256,
        };
        // contiguous 16-wide communicators on 16-task nodes never leave
        // the node
        assert_eq!(simulate_alltoall(&m, &ex), 0.0);
    }

    #[test]
    fn spread_commb_costs_more_than_local_commb() {
        // the Table 5 ordering, reproduced by the event simulator
        let m = mira();
        let total = 512usize;
        let elems = 16.0 * (1024.0 * 1024.0 * 64.0) / total as f64;
        let time_for = |pa: usize, pb: usize| {
            let a = simulate_alltoall(
                &m,
                &AlltoallSpec {
                    comm_size: pa,
                    msg_bytes: elems / pa as f64,
                    rank_stride: pb,
                    tasks_per_node: 16,
                    total_ranks: total,
                },
            );
            let b = simulate_alltoall(
                &m,
                &AlltoallSpec {
                    comm_size: pb,
                    msg_bytes: elems / pb as f64,
                    rank_stride: 1,
                    tasks_per_node: 16,
                    total_ranks: total,
                },
            );
            a + b
        };
        let local = time_for(32, 16); // CommB node-local
        let spread = time_for(16, 32); // CommB spans two nodes
        assert!(
            spread > 1.1 * local,
            "spread {spread} vs local {local} (Table 5 ordering)"
        );
    }

    #[test]
    fn equal_bytes_complete_in_bandwidth_time_regardless_of_split() {
        // hybrid (1 task/node, big messages) and MPI (16 tasks/node,
        // small messages) move the same bytes per node: without the
        // small-message bandwidth penalty (deliberately omitted here,
        // see module docs) both finish in ~bytes/injection_bw
        let m = mira();
        let mpi = simulate_alltoall(
            &m,
            &AlltoallSpec {
                comm_size: 64,
                msg_bytes: 1e4,
                rank_stride: 16,
                tasks_per_node: 16,
                total_ranks: 1024,
            },
        );
        let hybrid = simulate_alltoall(
            &m,
            &AlltoallSpec {
                comm_size: 64,
                msg_bytes: 16.0 * 1e4,
                rank_stride: 1,
                tasks_per_node: 1,
                total_ranks: 64,
            },
        );
        let expected = 16.0 * 63.0 * 1e4 / m.injection_bw;
        for t in [mpi, hybrid] {
            assert!(
                (t - expected).abs() < 0.25 * expected,
                "t = {t}, bandwidth bound = {expected}"
            );
        }
        assert!((mpi - hybrid).abs() < 0.1 * expected);
    }

    #[test]
    fn message_overhead_dominates_for_tiny_messages() {
        // with 1024-wide communicators of 64-byte messages, the per-node
        // message rate (not bytes) sets the makespan
        let m = mira();
        let ex = AlltoallSpec {
            comm_size: 64,
            msg_bytes: 4.0,
            rank_stride: 16,
            tasks_per_node: 16,
            total_ranks: 1024,
        };
        let t = simulate_alltoall(&m, &ex);
        let byte_time = 16.0 * 63.0 * 4.0 / m.injection_bw;
        let ovh_time = 16.0 * 63.0 * m.msg_overhead;
        assert!(ovh_time > 2.0 * byte_time, "test premise");
        assert!(
            t > ovh_time,
            "t = {t} must include the overhead floor {ovh_time}"
        );
    }

    #[test]
    fn gemini_bisection_limits_strong_scaling() {
        // fixed total data over more Blue Waters nodes: the event
        // simulator also shows saturating returns
        let bw = Machine::blue_waters();
        let total_bytes = 64.0 * 1e9;
        let time_at = |ranks: usize| {
            let per_rank = total_bytes / ranks as f64;
            simulate_alltoall(
                &bw,
                &AlltoallSpec {
                    comm_size: 32,
                    msg_bytes: per_rank / 32.0,
                    // spread each communicator across the whole machine
                    // (stride x size = total ranks keeps the tiling exact)
                    rank_stride: ranks / 32,
                    tasks_per_node: 32,
                    total_ranks: ranks,
                },
            )
        };
        let t1 = time_at(512);
        let t2 = time_at(4096); // 8x the cores
        let speedup = t1 / t2;
        assert!(
            speedup < 6.0,
            "Gemini should not strong-scale perfectly: speedup {speedup}"
        );
    }

    #[test]
    fn makespan_scales_linearly_with_message_size_when_bandwidth_bound() {
        let m = mira();
        let base = AlltoallSpec {
            comm_size: 32,
            msg_bytes: 1e6,
            rank_stride: 16,
            tasks_per_node: 16,
            total_ranks: 512,
        };
        let t1 = simulate_alltoall(&m, &base);
        let mut big = base;
        big.msg_bytes *= 4.0;
        let t4 = simulate_alltoall(&m, &big);
        let ratio = t4 / t1;
        assert!(ratio > 3.0 && ratio < 4.5, "ratio {ratio}");
    }
}
