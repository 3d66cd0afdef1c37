//! Distributed pencil transposes over a (sub-)communicator.
//!
//! One transpose re-orients pencils along one axis pair: the input holds
//! `rows` independent planes with axis `f` distributed and axis `t` full;
//! the output holds them with `t` distributed and `f` full. Pack /
//! exchange / unpack: the exchange is all-to-all within the
//! sub-communicator, and the unpack places every received block — through
//! the cache-blocked reorder ([`reorder_blocked`]) where the two axes
//! swap in memory, as contiguous runs where the placement keeps memory
//! order ([`RowsPlacement::SplitFast`], [`RowsPlacement::SplitSlow`]). On
//! one rank the unpack of the input itself is the whole transpose.
//!
//! Two exchange schedules are provided, mirroring the strategies the
//! FFTW 3.3 transpose planner measures (section 4.3): a single
//! `alltoallv` and a pairwise `sendrecv` rotation. [`TransposePlan::plan`]
//! times both on the live communicator and keeps the winner, exactly like
//! FFTW's planning stage.

use crate::decomp::Block;
use crate::reorder::reorder_blocked;
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

/// Where the untouched `rows` dimension sits in the local layout, and
/// whether the two transposed axes swap places in memory.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RowsPlacement {
    /// Input `[rows][f_loc][t]`, output `[rows][t_loc][f]`: a batch of
    /// plane transposes (one row is the paper's `A(i,j,k) -> A(j,k,i)`
    /// with `f = i`, `t = (j, k)`).
    Outer,
    /// Input `[f_loc][rows][t]`, output `[t_loc][rows][f]` — the z<->y
    /// transpose layout (rows = local kx count).
    Middle,
    /// Input `[rows][f_loc][t]`, output `[rows][f][t_loc]`: memory order
    /// is kept and only the split moves, from the slow axis to the fast
    /// one — the z->x hop into the z-fastest x-pencil (rows = local y
    /// count, `f` = kx, `t` = physical z). The inverse is `SplitSlow`.
    SplitFast,
    /// Input `[rows][t][f_loc]`, output `[rows][t_loc][f]`: the split
    /// moves from the fast axis to the slow one — the x->z hop (`f` =
    /// physical z, `t` = kx). The inverse is `SplitFast`.
    SplitSlow,
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

    /// The inverse plan (same strategy, axes swapped).
    pub fn inverse(&self, comm: &Communicator) -> TransposePlan {
        let placement = match self.placement {
            RowsPlacement::SplitFast => RowsPlacement::SplitSlow,
            RowsPlacement::SplitSlow => RowsPlacement::SplitFast,
            same => same,
        };
        let (rows, nf, nt, strategy) = (self.rows, self.nt, self.nf, self.strategy);
        TransposePlan::with_placement(comm, rows, nf, nt, strategy, placement)
    }

    /// Execute the transpose; the layouts are the placement's
    /// ([`RowsPlacement`]).
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
    /// to a pure local reorder: `input` is unpacked straight into `out`
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
        let nt = self.nt;
        // resized, never cleared: both routes below store every output
        // element (the transpose is a bijection of the index space), so
        // nothing stale can be read and only a growing buffer is filled
        out.resize(self.output_len(), T::default());

        if self.p == 1 {
            // Single rank: no exchange, no pack copy — the input is the one
            // block there is to unpack
            self.unpack(input, Block::of(self.nf, 1, 0), out);
            // one read of the input, one write of the output
            telemetry::count(Counter::DdrBytes, 2 * std::mem::size_of_val(input) as u64);
            return Ok(());
        }

        // Multi-rank: pack -> sends in destination order -> receives in
        // source order -> unpack in source order.
        let p = self.p;
        let me = comm.rank();
        let nfl = self.f_block.len;

        // pack: destination-major; dest d's block is every input line's
        // slice of d's `t` range. A line is `nt` values, except where `t`
        // is the slow axis (SplitSlow): there a row is one line of `nt`
        // runs of `f_loc` values.
        send.clear();
        send.reserve(input.len());
        let mut offsets = Vec::with_capacity(p + 1);
        let unit = if self.placement == RowsPlacement::SplitSlow {
            nfl
        } else {
            1
        };
        {
            let _pack = telemetry::span("pack", Phase::Transpose);
            for d in 0..p {
                let tb = Block::of(nt, p, d);
                offsets.push(send.len());
                for line in input.chunks_exact(nt * unit) {
                    send.extend_from_slice(&line[tb.start * unit..tb.end() * unit]);
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
        for (s, chunk) in parts.iter().enumerate() {
            self.unpack(chunk, Block::of(self.nf, p, s), out);
        }
        // the unpack reads the receive chunks once and writes them once
        telemetry::count(
            Counter::DdrBytes,
            2 * std::mem::size_of_val(&out[..]) as u64,
        );
        Ok(())
    }

    /// Place the block from the owner of `fb` of the `f` axis into `out`:
    /// its `f` values for this rank's `t` range, in the input's axis order.
    fn unpack<T: Copy>(&self, chunk: &[T], fb: Block, out: &mut [T]) {
        let (rows, ntl, nf) = (self.rows, self.t_block.len, self.nf);
        debug_assert_eq!(chunk.len(), rows * fb.len * ntl);
        if chunk.is_empty() {
            return;
        }
        let shape = [fb.len, rows, ntl];
        let dst = &mut out[fb.start..];
        match self.placement {
            RowsPlacement::Outer => {
                reorder_blocked(chunk, [ntl, fb.len * ntl], dst, [nf, ntl * nf], shape);
            }
            RowsPlacement::Middle => {
                reorder_blocked(chunk, [rows * ntl, ntl], dst, [rows * nf, nf], shape);
            }
            // memory order kept: every row (SplitFast) or every (row, t)
            // pair (SplitSlow) is one contiguous run of the output
            RowsPlacement::SplitFast => {
                place_runs(chunk, fb.len * ntl, out, fb.start * ntl, nf * ntl)
            }
            RowsPlacement::SplitSlow => place_runs(chunk, fb.len, out, fb.start, nf),
        }
    }
}

/// Copy the consecutive `len`-long runs of `chunk` to `out`, run `i` at
/// `start + i * stride`.
fn place_runs<T: Copy>(chunk: &[T], len: usize, out: &mut [T], start: usize, stride: usize) {
    for (i, run) in chunk.chunks_exact(len).enumerate() {
        out[start + i * stride..][..len].copy_from_slice(run);
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

    #[test]
    fn alltoall_transpose_even_sizes() {
        check_placement(
            4,
            RowsPlacement::Outer,
            ExchangeStrategy::AllToAll,
            [2, 8, 12],
        );
    }

    #[test]
    fn alltoall_transpose_uneven_sizes() {
        check_placement(
            3,
            RowsPlacement::Outer,
            ExchangeStrategy::AllToAll,
            [2, 7, 11],
        );
        check_placement(
            5,
            RowsPlacement::Outer,
            ExchangeStrategy::AllToAll,
            [1, 9, 13],
        );
    }

    #[test]
    fn pairwise_transpose_matches_definition() {
        check_placement(
            4,
            RowsPlacement::Outer,
            ExchangeStrategy::Pairwise,
            [2, 8, 12],
        );
        check_placement(
            3,
            RowsPlacement::Outer,
            ExchangeStrategy::Pairwise,
            [3, 10, 5],
        );
    }

    #[test]
    fn single_rank_transpose_is_local_reorder() {
        check_placement(
            1,
            RowsPlacement::Outer,
            ExchangeStrategy::AllToAll,
            [4, 6, 5],
        );
    }

    #[test]
    fn roundtrip_restores_input() {
        check_placement(
            4,
            RowsPlacement::Outer,
            ExchangeStrategy::AllToAll,
            [3, 8, 10],
        );
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

    /// Offset of global element `(r, f, t)` in the input of a rank owning
    /// `fb` of the `f` axis, per [`RowsPlacement`].
    fn input_at(
        pl: RowsPlacement,
        rows: usize,
        nt: usize,
        fb: Block,
        [r, f, t]: [usize; 3],
    ) -> usize {
        let (fl, nfl) = (f - fb.start, fb.len);
        match pl {
            RowsPlacement::Outer | RowsPlacement::SplitFast => (r * nfl + fl) * nt + t,
            RowsPlacement::Middle => (fl * rows + r) * nt + t,
            RowsPlacement::SplitSlow => (r * nt + t) * nfl + fl,
        }
    }

    /// Offset of `(r, f, t)` in the output of a rank owning `tb` of `t`.
    fn output_at(
        pl: RowsPlacement,
        rows: usize,
        nf: usize,
        tb: Block,
        [r, f, t]: [usize; 3],
    ) -> usize {
        let (tl, ntl) = (t - tb.start, tb.len);
        match pl {
            RowsPlacement::Outer | RowsPlacement::SplitSlow => (r * ntl + tl) * nf + f,
            RowsPlacement::Middle => (tl * rows + r) * nf + f,
            RowsPlacement::SplitFast => (r * nf + f) * ntl + tl,
        }
    }

    /// Every rank's output against the placement's definition, then the
    /// inverse plan back to the input.
    fn check_placement(
        p: usize,
        pl: RowsPlacement,
        strategy: ExchangeStrategy,
        [rows, nf, nt]: [usize; 3],
    ) {
        mpi::run(p, move |comm| {
            let plan = TransposePlan::with_placement(&comm, rows, nf, nt, strategy, pl);
            let (fb, tb) = (plan.f_block(), plan.t_block());
            let value = |r: usize, f: usize, t: usize| ((r * nf + f) * nt + t) as u64;
            let mut input = vec![u64::MAX; plan.input_len()];
            for r in 0..rows {
                for f in fb.start..fb.end() {
                    for t in 0..nt {
                        input[input_at(pl, rows, nt, fb, [r, f, t])] = value(r, f, t);
                    }
                }
            }
            assert!(
                !input.contains(&u64::MAX),
                "the input layout is a bijection"
            );
            let out = plan.run(&comm, &input);
            for r in 0..rows {
                for f in 0..nf {
                    for t in tb.start..tb.end() {
                        assert_eq!(
                            out[output_at(pl, rows, nf, tb, [r, f, t])],
                            value(r, f, t),
                            "{pl:?} {strategy:?} p={p} r={r} f={f} t={t}"
                        );
                    }
                }
            }
            let back = plan.inverse(&comm).run(&comm, &out);
            assert_eq!(back, input, "{pl:?} {strategy:?} p={p}: round trip");
        });
    }

    #[test]
    fn middle_placement_matches_definition() {
        let all = ExchangeStrategy::AllToAll;
        for (p, shape) in [(4, [2, 8, 12]), (3, [2, 7, 11]), (1, [3, 5, 4])] {
            check_placement(p, RowsPlacement::Middle, all, shape);
        }
    }

    #[test]
    fn split_placements_match_their_definition_and_round_trip() {
        // 11 and 13 split unevenly over 2, 3 and 5 ranks
        for p in [1, 2, 3, 5] {
            for strategy in [ExchangeStrategy::AllToAll, ExchangeStrategy::Pairwise] {
                for pl in [RowsPlacement::SplitFast, RowsPlacement::SplitSlow] {
                    check_placement(p, pl, strategy, [3, 11, 13]);
                    check_placement(p, pl, strategy, [1, 13, 5]);
                }
            }
        }
    }

    #[test]
    fn blocked_unpack_matches_the_definition_across_tile_edges() {
        // partial tiles in f, in t and in both; on one rank the whole
        // transpose is one unpack, on three every received block is one
        use crate::reorder::TILE;
        for p in [1, 3] {
            for pl in [RowsPlacement::Outer, RowsPlacement::Middle] {
                for (nf, nt) in [
                    (TILE + 3, 2 * TILE + 1),
                    (2 * TILE + 5, TILE - 1),
                    (5, TILE),
                ] {
                    check_placement(p, pl, ExchangeStrategy::AllToAll, [2, nf, nt]);
                }
            }
        }
    }

    #[test]
    fn middle_placement_roundtrip() {
        check_placement(
            3,
            RowsPlacement::Middle,
            ExchangeStrategy::Pairwise,
            [4, 9, 7],
        );
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
