//! Distributed pencil transposes over a (sub-)communicator.
//!
//! One transpose re-orients pencils along one axis pair: the input holds
//! `rows` independent planes of `[f_loc][t]` (axis `f` distributed, axis
//! `t` full); the output holds `[t_loc][f]` (axis `t` distributed, axis
//! `f` full). Pack/exchange/unpack — the exchange is all-to-all within
//! the sub-communicator, and the unpack is the strided on-node reorder.
//!
//! Two exchange schedules are provided, mirroring the strategies the
//! FFTW 3.3 transpose planner measures (section 4.3): a single
//! `alltoallv` and a pairwise `sendrecv` rotation. [`TransposePlan::plan`]
//! times both on the live communicator and keeps the winner, exactly like
//! FFTW's planning stage.

use crate::decomp::Block;
use dns_minimpi::Communicator;
use dns_telemetry as telemetry;
use dns_telemetry::{Counter, Phase};

/// Message schedule for the exchange phase.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ExchangeStrategy {
    /// One `alltoallv` (what FFTW usually picks for CommB on Mira).
    AllToAll,
    /// `p - 1` rounds of pairwise `sendrecv` with rotating partner.
    Pairwise,
}

/// Where the untouched `rows` dimension sits in the local layout.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RowsPlacement {
    /// Input `[rows][f_loc][t]`, output `[rows][t_loc][f]` — the x<->z
    /// transpose layout (rows = local y count).
    Outer,
    /// Input `[f_loc][rows][t]`, output `[t_loc][rows][f]` — the z<->y
    /// transpose layout (rows = local kx count).
    Middle,
}

/// A planned transpose for fixed sizes and communicator shape.
#[derive(Clone, Debug)]
pub struct TransposePlan {
    rows: usize,
    nf: usize,
    nt: usize,
    p: usize,
    f_block: Block,
    t_block: Block,
    strategy: ExchangeStrategy,
    placement: RowsPlacement,
}

impl TransposePlan {
    /// Create a plan with an explicit strategy and rows-outer layout.
    ///
    /// * `rows` — slow, untouched local dimension (product of everything
    ///   not taking part in this transpose);
    /// * `nf` — global length of the input-distributed axis;
    /// * `nt` — global length of the input-full axis.
    ///
    /// # Example
    ///
    /// A 4x4 plane distributed over two ranks, transposed and brought
    /// back by the inverse plan:
    ///
    /// ```
    /// use dns_pencil::{ExchangeStrategy, TransposePlan};
    ///
    /// let ok = dns_minimpi::run(2, |world| {
    ///     let plan = TransposePlan::new(&world, 1, 4, 4, ExchangeStrategy::AllToAll);
    ///     // input [f_loc][t]: entry (f, t) holds f*4 + t
    ///     let f0 = plan.f_block().start;
    ///     let input: Vec<f64> = (0..plan.input_len())
    ///         .map(|i| ((f0 + i / 4) * 4 + i % 4) as f64)
    ///         .collect();
    ///     let out = plan.run(&world, &input); // out [t_loc][f]
    ///     let t0 = plan.t_block().start;
    ///     for (i, &v) in out.iter().enumerate() {
    ///         assert_eq!(v, ((i % 4) * 4 + t0 + i / 4) as f64);
    ///     }
    ///     plan.inverse(&world).run(&world, &out) == input
    /// });
    /// assert!(ok.into_iter().all(|b| b));
    /// ```
    pub fn new(
        comm: &Communicator,
        rows: usize,
        nf: usize,
        nt: usize,
        strategy: ExchangeStrategy,
    ) -> Self {
        Self::with_placement(comm, rows, nf, nt, strategy, RowsPlacement::Outer)
    }

    /// Create a plan with an explicit layout placement.
    pub fn with_placement(
        comm: &Communicator,
        rows: usize,
        nf: usize,
        nt: usize,
        strategy: ExchangeStrategy,
        placement: RowsPlacement,
    ) -> Self {
        let p = comm.size();
        let rank = comm.rank();
        assert!(
            nf >= p && nt >= p,
            "axes must be at least the communicator size (nf={nf}, nt={nt}, p={p})"
        );
        TransposePlan {
            rows,
            nf,
            nt,
            p,
            f_block: Block::of(nf, p, rank),
            t_block: Block::of(nt, p, rank),
            strategy,
            placement,
        }
    }

    /// FFTW-style planning: run both strategies on a synthetic buffer,
    /// keep the faster (collectively agreed through an all-reduce so all
    /// ranks pick the same winner).
    pub fn plan(
        comm: &Communicator,
        rows: usize,
        nf: usize,
        nt: usize,
        placement: RowsPlacement,
    ) -> Self {
        let mut best = ExchangeStrategy::AllToAll;
        let mut best_time = f64::INFINITY;
        let mut timings = [0.0f64; 2];
        for (i, strategy) in [ExchangeStrategy::AllToAll, ExchangeStrategy::Pairwise]
            .into_iter()
            .enumerate()
        {
            let plan = TransposePlan::with_placement(comm, rows, nf, nt, strategy, placement);
            let input = vec![0.0f64; plan.input_len()];
            comm.barrier();
            let t0 = std::time::Instant::now();
            let _ = plan.run(comm, &input);
            let dt = comm.allreduce_max(t0.elapsed().as_secs_f64());
            timings[i] = dt;
            if dt < best_time {
                best_time = dt;
                best = strategy;
            }
        }
        if comm.rank() == 0 && telemetry::enabled() {
            let (win, lose) = match best {
                ExchangeStrategy::AllToAll => (timings[0], timings[1]),
                ExchangeStrategy::Pairwise => (timings[1], timings[0]),
            };
            telemetry::decision(
                "transpose.plan",
                format!(
                    "{best:?} won for rows={rows} nf={nf} nt={nt} p={}: \
                     {win:.3e} s vs {lose:.3e} s ({:.2}x)",
                    comm.size(),
                    lose / win.max(1e-12),
                ),
            );
        }
        TransposePlan::with_placement(comm, rows, nf, nt, best, placement)
    }

    /// The strategy this plan uses.
    pub fn strategy(&self) -> ExchangeStrategy {
        self.strategy
    }

    /// Expected input length: `rows * f_block.len * nt`.
    pub fn input_len(&self) -> usize {
        self.rows * self.f_block.len * self.nt
    }

    /// Output length: `rows * t_block.len * nf`.
    pub fn output_len(&self) -> usize {
        self.rows * self.t_block.len * self.nf
    }

    /// The local block of the input-distributed axis.
    pub fn f_block(&self) -> Block {
        self.f_block
    }

    /// The local block of the output-distributed axis.
    pub fn t_block(&self) -> Block {
        self.t_block
    }

    /// The inverse plan (same strategy and placement, axes swapped).
    pub fn inverse(&self, comm: &Communicator) -> TransposePlan {
        TransposePlan::with_placement(
            comm,
            self.rows,
            self.nt,
            self.nf,
            self.strategy,
            self.placement,
        )
    }

    /// Execute the transpose. Layouts by placement:
    /// `Outer`: `[rows][f_loc][t]` -> `[rows][t_loc][f]`;
    /// `Middle`: `[f_loc][rows][t]` -> `[t_loc][rows][f]`.
    pub fn run<T: Copy + Default + Send + 'static>(
        &self,
        comm: &Communicator,
        input: &[T],
    ) -> Vec<T> {
        let mut send = Vec::new();
        let mut out = Vec::new();
        self.run_with(comm, input, &mut send, &mut out);
        out
    }

    /// [`TransposePlan::run`] with caller-owned pack (`send`) and result
    /// (`out`) buffers so steady-state callers re-run without heap
    /// allocation. On a single-rank communicator the exchange degenerates
    /// to a pure local reorder: `input` is scattered straight into `out`
    /// and the pack buffer and communicator are never touched.
    ///
    /// # Panics
    /// If the exchange fails (peer rank dead, receive timeout) — the
    /// solver hot path cannot continue past a half-completed transpose.
    /// Callers that want to observe the failure instead use
    /// [`try_run_with`](Self::try_run_with).
    pub fn run_with<T: Copy + Default + Send + 'static>(
        &self,
        comm: &Communicator,
        input: &[T],
        send: &mut Vec<T>,
        out: &mut Vec<T>,
    ) {
        if let Err(e) = self.try_run_with(comm, input, send, out) {
            panic!(
                "transpose exchange failed ({:?} over {} ranks): {e}",
                self.strategy, self.p
            );
        }
    }

    /// [`run_with`](Self::run_with) with typed failure reporting: a dead
    /// peer or exchange timeout surfaces as a
    /// [`CommError`](dns_minimpi::CommError) instead of a panic, so
    /// supervised callers can abandon the attempt cleanly. On error the
    /// contents of `out` are unspecified.
    pub fn try_run_with<T: Copy + Default + Send + 'static>(
        &self,
        comm: &Communicator,
        input: &[T],
        send: &mut Vec<T>,
        out: &mut Vec<T>,
    ) -> Result<(), dns_minimpi::CommError> {
        assert_eq!(input.len(), self.input_len(), "input length mismatch");
        assert_eq!(comm.size(), self.p);
        let _transpose = telemetry::span("transpose", Phase::Transpose);
        let rows = self.rows;
        let nt = self.nt;
        // sized, not cleared: both routes below store every output element
        // (the reorder is a bijection of the index space), so nothing
        // stale can be read and a buffer of the right length needs no fill
        if out.len() != self.output_len() {
            out.clear();
            out.resize(self.output_len(), T::default());
        }

        if self.p == 1 {
            // Single rank: no exchange, no pack copy — one strided pass.
            let nf = self.nf;
            match self.placement {
                RowsPlacement::Outer => {
                    for r in 0..rows {
                        for f in 0..nf {
                            let src = (r * nf + f) * nt;
                            for t in 0..nt {
                                out[(r * nt + t) * nf + f] = input[src + t];
                            }
                        }
                    }
                }
                RowsPlacement::Middle => {
                    for f in 0..nf {
                        for r in 0..rows {
                            let src = (f * rows + r) * nt;
                            for t in 0..nt {
                                out[(t * rows + r) * nf + f] = input[src + t];
                            }
                        }
                    }
                }
            }
            // one read of the input, one scattered write of the output
            telemetry::count(Counter::DdrBytes, 2 * std::mem::size_of_val(input) as u64);
            return Ok(());
        }

        // Multi-rank: pack -> sends in destination order -> receives in
        // source order -> unpack in source order.
        let p = self.p;
        let me = comm.rank();
        let nfl = self.f_block.len;

        // pack: destination-major; block of `t` for dest d is contiguous.
        // Both placements share the property that (slow1, slow2) iterate
        // over rows x f_loc in layout order with t fastest.
        send.clear();
        send.reserve(input.len());
        let mut offsets = Vec::with_capacity(p + 1);
        let (s1, s2) = match self.placement {
            RowsPlacement::Outer => (rows, nfl),
            RowsPlacement::Middle => (nfl, rows),
        };
        {
            let _pack = telemetry::span("pack", Phase::Transpose);
            for d in 0..p {
                let tb = Block::of(nt, p, d);
                offsets.push(send.len());
                for a in 0..s1 {
                    for b in 0..s2 {
                        let base = (a * s2 + b) * nt + tb.start;
                        send.extend_from_slice(&input[base..base + tb.len]);
                    }
                }
            }
            offsets.push(send.len());
            // the pack streams the input once and writes it once
            telemetry::count(Counter::DdrBytes, 2 * std::mem::size_of_val(input) as u64);
        }
        let block = |d: usize| send[offsets[d]..offsets[d + 1]].to_vec();

        let mut parts: Vec<Vec<T>> = Vec::with_capacity(p);
        {
            let _exchange = telemetry::span("exchange", Phase::Transpose);
            match self.strategy {
                // the schedule of `Communicator::alltoall`: every block,
                // self included, goes through the transport
                ExchangeStrategy::AllToAll => {
                    for d in 0..p {
                        comm.send(d, A2A_TAG, block(d));
                    }
                }
                // rotating partners, one tag per round; all rounds are sent
                // up front (the buffering transport makes that safe) and
                // the self block never touches the wire
                ExchangeStrategy::Pairwise => {
                    for round in 1..p {
                        let to = (me + round) % p;
                        comm.send(to, PAIRWISE_TAG + round as u64, block(to));
                    }
                }
            }
            // the rank thread's wait clock is monotone, so its delta across
            // the receive loop is exactly this exchange's blocked share
            let wait0 = comm.recv_wait_seconds();
            for s in 0..p {
                parts.push(match self.strategy {
                    ExchangeStrategy::AllToAll => comm.recv_checked(s, A2A_TAG)?,
                    ExchangeStrategy::Pairwise if s == me => block(me),
                    ExchangeStrategy::Pairwise => {
                        comm.recv_checked(s, PAIRWISE_TAG + ((me + p - s) % p) as u64)?
                    }
                });
            }
            telemetry::count_phase(
                Phase::Transpose,
                Counter::ExchangeWaitUs,
                ((comm.recv_wait_seconds() - wait0) * 1e6) as u64,
            );
        }

        let _unpack = telemetry::span("unpack", Phase::Transpose);
        let ntl = self.t_block.len;
        let nf = self.nf;
        for (s, chunk) in parts.iter().enumerate() {
            let fb = Block::of(nf, p, s);
            debug_assert_eq!(chunk.len(), rows * fb.len * ntl);
            match self.placement {
                RowsPlacement::Outer => {
                    // chunk [rows][f_s][t_loc] -> out[(r*ntl + t)*nf + f]
                    for r in 0..rows {
                        for f in 0..fb.len {
                            let src = (r * fb.len + f) * ntl;
                            let dst_col = fb.start + f;
                            // strided scatter over t — the on-node reorder
                            for t in 0..ntl {
                                out[(r * ntl + t) * nf + dst_col] = chunk[src + t];
                            }
                        }
                    }
                }
                RowsPlacement::Middle => {
                    // chunk [f_s][rows][t_loc] -> out[(t*rows + r)*nf + f]
                    for f in 0..fb.len {
                        for r in 0..rows {
                            let src = (f * rows + r) * ntl;
                            let dst_col = fb.start + f;
                            for t in 0..ntl {
                                out[(t * rows + r) * nf + dst_col] = chunk[src + t];
                            }
                        }
                    }
                }
            }
        }
        // the unpack reads the receive chunks once and scatters them once
        telemetry::count(
            Counter::DdrBytes,
            2 * std::mem::size_of_val(out.as_slice()) as u64,
        );
        Ok(())
    }
}

/// Tag of the all-to-all schedule's messages. One tag for every exchange:
/// matching is FIFO per `(source, communicator, tag)`, and a rank finishes
/// one exchange before it starts the next.
const A2A_TAG: u64 = 0x7051_0000;
/// Tag base of the pairwise schedule: `PAIRWISE_TAG + round`.
const PAIRWISE_TAG: u64 = 0x7052_0000;

#[cfg(test)]
mod tests {
    use super::*;
    use dns_minimpi as mpi;

    /// Build the global `[rows][f][t]` tensor with recognisable entries.
    fn global(rows: usize, nf: usize, nt: usize) -> Vec<u64> {
        (0..rows * nf * nt).map(|x| x as u64).collect()
    }

    /// This rank's `[rows][f_loc][t]` block of the global tensor `g`.
    fn scatter(plan: &TransposePlan, g: &[u64]) -> Vec<u64> {
        let (nf, nt, fb) = (plan.nf, plan.nt, plan.f_block());
        let mut input = Vec::with_capacity(plan.input_len());
        for r in 0..plan.rows {
            for f in fb.start..fb.end() {
                input.extend_from_slice(&g[(r * nf + f) * nt..][..nt]);
            }
        }
        input
    }

    /// The definition: `out[r][t_loc][f] == g[r][f][t]`.
    fn assert_transposed(plan: &TransposePlan, out: &[u64], g: &[u64]) {
        let (nf, nt, tb) = (plan.nf, plan.nt, plan.t_block());
        for r in 0..plan.rows {
            for (tl, t) in (tb.start..tb.end()).enumerate() {
                for f in 0..nf {
                    assert_eq!(
                        out[(r * tb.len + tl) * nf + f],
                        g[(r * nf + f) * nt + t],
                        "p={} r={r} t={t} f={f}",
                        plan.p
                    );
                }
            }
        }
    }

    fn check_transpose(p: usize, rows: usize, nf: usize, nt: usize, strategy: ExchangeStrategy) {
        mpi::run(p, move |comm| {
            let plan = TransposePlan::new(&comm, rows, nf, nt, strategy);
            let g = global(rows, nf, nt);
            let out = plan.run(&comm, &scatter(&plan, &g));
            assert_transposed(&plan, &out, &g);
        });
    }

    #[test]
    fn alltoall_transpose_even_sizes() {
        check_transpose(4, 2, 8, 12, ExchangeStrategy::AllToAll);
    }

    #[test]
    fn alltoall_transpose_uneven_sizes() {
        check_transpose(3, 2, 7, 11, ExchangeStrategy::AllToAll);
        check_transpose(5, 1, 9, 13, ExchangeStrategy::AllToAll);
    }

    #[test]
    fn pairwise_transpose_matches_definition() {
        check_transpose(4, 2, 8, 12, ExchangeStrategy::Pairwise);
        check_transpose(3, 3, 10, 5, ExchangeStrategy::Pairwise);
    }

    #[test]
    fn single_rank_transpose_is_local_reorder() {
        check_transpose(1, 4, 6, 5, ExchangeStrategy::AllToAll);
    }

    #[test]
    fn roundtrip_restores_input() {
        let results = mpi::run(4, |comm| {
            let fwd = TransposePlan::new(&comm, 3, 8, 10, ExchangeStrategy::AllToAll);
            let inv = fwd.inverse(&comm);
            let input: Vec<u64> = (0..fwd.input_len())
                .map(|x| (x as u64) * 1000 + comm.rank() as u64)
                .collect();
            let mid = fwd.run(&comm, &input);
            let back = inv.run(&comm, &mid);
            back == input
        });
        assert!(results.into_iter().all(|ok| ok));
    }

    #[test]
    fn planner_selects_a_strategy_and_runs() {
        let results = mpi::run(2, |comm| {
            let plan = TransposePlan::plan(&comm, 2, 4, 6, RowsPlacement::Outer);
            let input = vec![1.5f64; plan.input_len()];
            let out = plan.run(&comm, &input);
            out.len() == plan.output_len() && out.iter().all(|&v| v == 1.5)
        });
        assert!(results.into_iter().all(|ok| ok));
    }

    fn check_transpose_middle(p: usize, rows: usize, nf: usize, nt: usize) {
        let results = mpi::run(p, move |comm| {
            let plan = TransposePlan::with_placement(
                &comm,
                rows,
                nf,
                nt,
                ExchangeStrategy::AllToAll,
                RowsPlacement::Middle,
            );
            let g = global(rows, nf, nt); // logical [f][r][t] here
            let fb = plan.f_block();
            let mut input = Vec::with_capacity(plan.input_len());
            for f in fb.start..fb.end() {
                for r in 0..rows {
                    for t in 0..nt {
                        input.push(g[(f * rows + r) * nt + t]);
                    }
                }
            }
            let out = plan.run(&comm, &input);
            let tb = plan.t_block();
            for (tl, t) in (tb.start..tb.end()).enumerate() {
                for r in 0..rows {
                    for f in 0..nf {
                        assert_eq!(
                            out[(tl * rows + r) * nf + f],
                            g[(f * rows + r) * nt + t],
                            "middle p={p} r={r} t={t} f={f}"
                        );
                    }
                }
            }
            true
        });
        assert!(results.into_iter().all(|ok| ok));
    }

    #[test]
    fn middle_placement_matches_definition() {
        check_transpose_middle(4, 2, 8, 12);
        check_transpose_middle(3, 2, 7, 11);
        check_transpose_middle(1, 3, 5, 4);
    }

    #[test]
    fn middle_placement_roundtrip() {
        let results = mpi::run(3, |comm| {
            let fwd = TransposePlan::with_placement(
                &comm,
                4,
                9,
                7,
                ExchangeStrategy::Pairwise,
                RowsPlacement::Middle,
            );
            let inv = fwd.inverse(&comm);
            let input: Vec<u64> = (0..fwd.input_len()).map(|x| x as u64 + 17).collect();
            let back = inv.run(&comm, &fwd.run(&comm, &input));
            back == input
        });
        assert!(results.into_iter().all(|ok| ok));
    }

    #[test]
    fn dead_rank_surfaces_as_typed_error_not_hang() {
        // rank 1 dies on its very first transport operation, or on one
        // that falls into its second exchange (the first then delivers)
        for (strategy, crash_op) in [
            (ExchangeStrategy::AllToAll, 0),
            (ExchangeStrategy::Pairwise, 0),
            (ExchangeStrategy::AllToAll, 4),
            (ExchangeStrategy::Pairwise, 2),
        ] {
            let out = mpi::run_result(
                2,
                mpi::RunOptions {
                    recv_timeout: std::time::Duration::from_secs(5),
                    fault_plan: mpi::FaultPlan::none().crash_at_op(1, crash_op),
                },
                move |comm| {
                    let plan = TransposePlan::new(&comm, 1, 4, 4, strategy);
                    let input = vec![0.0f64; plan.input_len()];
                    let (mut send, mut result) = (Vec::new(), Vec::new());
                    let first = plan.try_run_with(&comm, &input, &mut send, &mut result);
                    let failed = if crash_op == 0 {
                        first
                    } else {
                        first.expect("the first exchange completes on both ranks");
                        plan.try_run_with(&comm, &input, &mut send, &mut result)
                    };
                    // rank 1 crashes inside the exchange before it returns
                    match failed {
                        Err(mpi::CommError::RankDead { .. }) => (),
                        other => panic!("expected RankDead, got {other:?}"),
                    }
                },
            );
            // only the injected crash dies; rank 0 observed it cleanly
            let failure = out.expect_err("rank 1 should have crashed");
            assert_eq!(
                failure.ranks(),
                vec![1],
                "{strategy:?} op {crash_op}: {:?}",
                failure.messages()
            );
        }
    }

    #[test]
    fn back_to_back_exchanges_on_one_communicator_do_not_cross_match() {
        // Every exchange uses the same tags, so two consecutive ones are
        // kept apart by FIFO matching per (source, tag) alone. Rank 0 is
        // delayed on its first receive of exchange A, so its peers have
        // finished A and queued their B blocks behind their A blocks by
        // the time it starts receiving.
        for strategy in [ExchangeStrategy::AllToAll, ExchangeStrategy::Pairwise] {
            let p = 3;
            let first_recv_op = match strategy {
                ExchangeStrategy::AllToAll => p,
                ExchangeStrategy::Pairwise => p - 1,
            } as u64;
            let opts = mpi::RunOptions {
                recv_timeout: std::time::Duration::from_secs(5),
                fault_plan: mpi::FaultPlan::none().delay_at_op(
                    0,
                    first_recv_op,
                    std::time::Duration::from_millis(30),
                ),
            };
            mpi::run_result(p, opts, move |comm| {
                let (rows, nf, nt) = (2, 6, 9);
                let plan = TransposePlan::new(&comm, rows, nf, nt, strategy);
                let ga = global(rows, nf, nt);
                let gb: Vec<u64> = ga.iter().map(|x| x + 1_000_000).collect();
                let (mut send, mut got_a, mut got_b) = (Vec::new(), Vec::new(), Vec::new());
                plan.run_with(&comm, &scatter(&plan, &ga), &mut send, &mut got_a);
                plan.run_with(&comm, &scatter(&plan, &gb), &mut send, &mut got_b);
                assert_transposed(&plan, &got_a, &ga);
                assert_transposed(&plan, &got_b, &gb);
            })
            .unwrap_or_else(|f| panic!("{strategy:?}: {:?}", f.messages()));
        }
    }

    #[test]
    fn traffic_counters_reflect_off_rank_bytes() {
        let results = mpi::run(2, |comm| {
            comm.reset_stats();
            let plan = TransposePlan::new(&comm, 1, 4, 4, ExchangeStrategy::AllToAll);
            let input = vec![0.0f64; plan.input_len()];
            let _ = plan.run(&comm, &input);
            comm.stats()
        });
        for s in results {
            // each rank sends one off-rank message: rows*nfl*(nt/2) = 1*2*2
            // f64s = 32 bytes
            assert_eq!(s.messages_sent, 1);
            assert_eq!(s.bytes_sent, 32);
        }
    }
}
