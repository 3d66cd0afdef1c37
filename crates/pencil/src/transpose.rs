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

        // Multi-rank: the blocking entry point is a thin wrapper over the
        // nonblocking protocol — post the whole exchange, then complete it
        // immediately. The pack loop, message schedule, and unpack order
        // are byte-for-byte those of the pipelined path, so blocking and
        // overlapped callers produce bitwise-identical results.
        self.post(comm, input, send, 0).complete_into(comm, out)
    }

    /// Post the exchange for this transpose and return the in-flight
    /// state: pack `input` destination-major into the caller-owned `send`
    /// buffer, issue the nonblocking sends, and register a receive
    /// request per peer. The caller overlaps computation with the
    /// exchange and finishes via [`InflightTranspose::complete`] (or
    /// polls with [`InflightTranspose::progress`]).
    ///
    /// `seq` disambiguates concurrently in-flight exchanges on the same
    /// communicator (message matching is per `(src, tag)`, and FIFO order
    /// only protects identically-tagged traffic): give every exchange
    /// that may be in flight simultaneously a distinct sequence number.
    /// The transport buffers sends eagerly, so `send` may be reused as
    /// soon as this returns; a zero-copy transport would require it to
    /// stay untouched until completion.
    ///
    /// # Panics
    /// On a single-rank communicator (no exchange exists to overlap —
    /// use [`run_with`](Self::run_with), whose single-rank path is a pure
    /// local reorder).
    pub fn post<T: Copy + Default + Send + 'static>(
        &self,
        comm: &Communicator,
        input: &[T],
        send: &mut Vec<T>,
        seq: u64,
    ) -> InflightTranspose<T> {
        assert_eq!(input.len(), self.input_len(), "input length mismatch");
        assert_eq!(comm.size(), self.p);
        assert!(
            self.p > 1,
            "post() needs a multi-rank communicator; single-rank transposes are local reorders"
        );
        let rows = self.rows;
        let nfl = self.f_block.len;
        let nt = self.nt;
        let wait0 = comm.recv_wait_seconds();

        // pack: destination-major; block of `t` for dest d is contiguous.
        // Both placements share the property that (slow1, slow2) iterate
        // over rows x f_loc in layout order with t fastest.
        send.clear();
        send.reserve(input.len());
        let mut send_counts = Vec::with_capacity(self.p);
        let (s1, s2) = match self.placement {
            RowsPlacement::Outer => (rows, nfl),
            RowsPlacement::Middle => (nfl, rows),
        };
        {
            let _pack = telemetry::span("pack", Phase::Transpose);
            for d in 0..self.p {
                let tb = Block::of(self.nt, self.p, d);
                for a in 0..s1 {
                    for b in 0..s2 {
                        let base = (a * s2 + b) * nt + tb.start;
                        send.extend_from_slice(&input[base..base + tb.len]);
                    }
                }
                send_counts.push(rows * nfl * tb.len);
            }
            // the pack streams the input once and writes it once
            telemetry::count(Counter::DdrBytes, 2 * std::mem::size_of_val(input) as u64);
        }

        let p = self.p;
        let me = comm.rank();
        let offsets: Vec<usize> = send_counts
            .iter()
            .scan(0usize, |acc, &c| {
                let o = *acc;
                *acc += c;
                Some(o)
            })
            .collect();
        let mut parts: Vec<Option<Vec<T>>> = (0..p).map(|_| None).collect();
        let mut reqs: Vec<Option<dns_minimpi::RecvRequest<T>>> = (0..p).map(|_| None).collect();
        let mut outstanding = 0usize;
        let (posted, retired_sends) = match self.strategy {
            ExchangeStrategy::AllToAll => {
                // the nonblocking mirror of `alltoallv_checked`: all sends
                // in destination order (self included), then one posted
                // receive per source — the same transport-op schedule the
                // blocking collective consumes from the fault plan
                let tag = NB_TAG + seq;
                for d in 0..p {
                    comm.isend(
                        d,
                        tag,
                        send[offsets[d]..offsets[d] + send_counts[d]].to_vec(),
                    )
                    .wait(); // eager transport: complete at post
                }
                for s in 0..p {
                    reqs[s] = Some(comm.irecv::<T>(s, tag));
                    outstanding += 1;
                }
                (2 * p as u64, p as u64)
            }
            ExchangeStrategy::Pairwise => {
                // rotation partners as in `pairwise_exchange`, but all
                // rounds posted up front (the buffering transport makes
                // that safe); the self block never touches the wire
                parts[me] = Some(send[offsets[me]..offsets[me] + send_counts[me]].to_vec());
                for round in 1..p {
                    let to = (me + round) % p;
                    let tag = NB_PW_TAG + seq * p as u64 + round as u64;
                    comm.isend(
                        to,
                        tag,
                        send[offsets[to]..offsets[to] + send_counts[to]].to_vec(),
                    )
                    .wait();
                }
                for round in 1..p {
                    let from = (me + p - round) % p;
                    let tag = NB_PW_TAG + seq * p as u64 + round as u64;
                    reqs[from] = Some(comm.irecv::<T>(from, tag));
                    outstanding += 1;
                }
                (2 * (p as u64 - 1), p as u64 - 1)
            }
        };
        telemetry::count_phase(Phase::Transpose, Counter::RequestsPosted, posted);
        // sends retire at post under the eager transport
        telemetry::count_phase(Phase::Transpose, Counter::RequestsCompleted, retired_sends);
        InflightTranspose {
            plan: self.clone(),
            parts,
            reqs,
            outstanding,
            posted_at: std::time::Instant::now(),
            wait_at_post: wait0,
        }
    }
}

/// Tag base for nonblocking all-to-all transpose exchanges; the posting
/// sequence number is added so overlapping exchanges match separately.
const NB_TAG: u64 = 0x7051_0000;
/// Tag base for nonblocking pairwise rounds: `NB_PW_TAG + seq*p + round`.
const NB_PW_TAG: u64 = 0x7052_0000;

/// An exchange in flight: the state between [`TransposePlan::post`] and
/// [`InflightTranspose::complete`]. Receive requests are retired as their
/// messages arrive (eagerly via [`progress`](Self::progress), lazily in
/// [`complete`](Self::complete)); the unpack happens only at completion,
/// in source-rank order, so the output is bitwise identical to the
/// blocking path no matter in which order the network delivered.
#[must_use = "an abandoned in-flight transpose leaves peers' messages queued forever"]
pub struct InflightTranspose<T> {
    plan: TransposePlan,
    /// Received chunk per source rank (the self block is pre-filled for
    /// the pairwise schedule).
    parts: Vec<Option<Vec<T>>>,
    /// Open receive request per source rank.
    reqs: Vec<Option<dns_minimpi::RecvRequest<T>>>,
    outstanding: usize,
    posted_at: std::time::Instant,
    /// The rank's monotone recv-wait clock at post time — the overlap
    /// window accounting in `complete` diffs against it.
    wait_at_post: f64,
}

impl<T: Copy + Default + Send + 'static> InflightTranspose<T> {
    /// Poll every open receive request once, without blocking, retiring
    /// those whose message has arrived. Returns `Ok(true)` once all
    /// peers' chunks are in (a following [`complete`](Self::complete)
    /// will not block at all), and surfaces a dead peer as
    /// [`CommError::RankDead`](dns_minimpi::CommError::RankDead)
    /// immediately instead of hanging.
    pub fn progress(&mut self, comm: &Communicator) -> Result<bool, dns_minimpi::CommError> {
        for s in 0..self.plan.p {
            if let Some(req) = self.reqs[s].as_mut() {
                if req.test(comm)? {
                    let req = self.reqs[s].take().expect("request present");
                    // the payload is already held: this wait is immediate
                    // and accrues no recv-wait time
                    self.parts[s] = Some(req.wait(comm)?);
                    self.outstanding -= 1;
                    telemetry::count_phase(Phase::Transpose, Counter::RequestsCompleted, 1);
                }
            }
        }
        Ok(self.outstanding == 0)
    }

    /// Finish the exchange: block on the remaining receive requests (in
    /// source order), then unpack every chunk — also in source order, with
    /// the same strided scatter as the blocking path — into `out`, which
    /// is cleared and resized to the plan's output length.
    ///
    /// Wait time accrued here lands on `ExchangeWaitUs`; the in-flight
    /// wall time *not* spent blocked since the post lands on
    /// `ExchangeOverlapUs` — the communication the pipeline actually hid
    /// behind computation.
    pub fn complete(
        self,
        comm: &Communicator,
        out: &mut Vec<T>,
    ) -> Result<(), dns_minimpi::CommError> {
        out.clear();
        out.resize(self.plan.output_len(), T::default());
        self.complete_into(comm, out.as_mut_slice())
    }

    /// [`complete`](Self::complete) into a caller-owned slice of exactly
    /// the plan's output length — the pipelined callers' form, writing one
    /// batch's worth of output into its offset region of a larger buffer.
    /// Every element of `out` is overwritten.
    pub fn complete_into(
        mut self,
        comm: &Communicator,
        out: &mut [T],
    ) -> Result<(), dns_minimpi::CommError> {
        let plan = &self.plan;
        assert_eq!(out.len(), plan.output_len(), "output length mismatch");
        {
            let _exchange = telemetry::span("exchange", Phase::Transpose);
            // attribute blocked-receive time inside the completion to its
            // own counter: the rank thread's wait clock is monotone, so
            // the delta across the wait loop is exactly this exchange's
            // blocking share
            let wait0 = comm.recv_wait_seconds();
            for s in 0..plan.p {
                if let Some(req) = self.reqs[s].take() {
                    self.parts[s] = Some(req.wait(comm)?);
                    telemetry::count_phase(Phase::Transpose, Counter::RequestsCompleted, 1);
                }
            }
            let now = comm.recv_wait_seconds();
            telemetry::count_phase(
                Phase::Transpose,
                Counter::ExchangeWaitUs,
                ((now - wait0) * 1e6) as u64,
            );
            // overlap window: wall time this exchange spent in flight
            // minus every second the rank was blocked in receives over
            // that window (its own waits and any sibling exchange's) —
            // i.e. communication genuinely hidden behind computation
            let in_flight = self.posted_at.elapsed().as_secs_f64();
            let blocked = now - self.wait_at_post;
            let hidden = (in_flight - blocked).max(0.0);
            telemetry::count_phase(
                Phase::Transpose,
                Counter::ExchangeOverlapUs,
                (hidden * 1e6) as u64,
            );
            // also credit the rank's always-on overlap clock, so the
            // run-health layer can report per-step overlap fractions
            // without telemetry enabled
            comm.add_overlap_seconds(hidden);
        }

        let _unpack = telemetry::span("unpack", Phase::Transpose);
        let rows = plan.rows;
        let ntl = plan.t_block.len;
        let nf = plan.nf;
        for s in 0..plan.p {
            let fb = Block::of(plan.nf, plan.p, s);
            let chunk = self.parts[s].as_deref().expect("all parts received");
            debug_assert_eq!(chunk.len(), rows * fb.len * ntl);
            match plan.placement {
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
        telemetry::count(Counter::DdrBytes, 2 * std::mem::size_of_val(out) as u64);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dns_minimpi as mpi;

    /// Build the global `[rows][f][t]` tensor with recognisable entries.
    fn global(rows: usize, nf: usize, nt: usize) -> Vec<u64> {
        (0..rows * nf * nt).map(|x| x as u64).collect()
    }

    fn check_transpose(p: usize, rows: usize, nf: usize, nt: usize, strategy: ExchangeStrategy) {
        let results = mpi::run(p, move |comm| {
            let plan = TransposePlan::new(&comm, rows, nf, nt, strategy);
            let g = global(rows, nf, nt);
            // scatter my f-block
            let fb = plan.f_block();
            let mut input = Vec::with_capacity(plan.input_len());
            for r in 0..rows {
                for f in fb.start..fb.end() {
                    for t in 0..nt {
                        input.push(g[(r * nf + f) * nt + t]);
                    }
                }
            }
            let out = plan.run(&comm, &input);
            // verify against the definition: out[r][t_loc][f] == g[r][f][t]
            let tb = plan.t_block();
            for r in 0..rows {
                for (tl, t) in (tb.start..tb.end()).enumerate() {
                    for f in 0..nf {
                        assert_eq!(
                            out[(r * tb.len + tl) * nf + f],
                            g[(r * nf + f) * nt + t],
                            "p={p} r={r} t={t} f={f}"
                        );
                    }
                }
            }
            true
        });
        assert!(results.into_iter().all(|ok| ok));
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
        for strategy in [ExchangeStrategy::AllToAll, ExchangeStrategy::Pairwise] {
            let out = mpi::run_result(
                2,
                mpi::RunOptions {
                    recv_timeout: std::time::Duration::from_secs(5),
                    // rank 1 dies on its very first transport operation
                    fault_plan: mpi::FaultPlan::none().crash_at_op(1, 0),
                },
                move |comm| {
                    let plan = TransposePlan::new(&comm, 1, 4, 4, strategy);
                    let input = vec![0.0f64; plan.input_len()];
                    let (mut send, mut result) = (Vec::new(), Vec::new());
                    if comm.rank() == 0 {
                        match plan.try_run_with(&comm, &input, &mut send, &mut result) {
                            Err(mpi::CommError::RankDead { .. }) => (),
                            other => panic!("expected RankDead, got {other:?}"),
                        }
                    } else {
                        // crashes inside the exchange before this returns
                        let _ = plan.try_run_with(&comm, &input, &mut send, &mut result);
                    }
                },
            );
            // only the injected crash dies; rank 0 observed it cleanly
            let failure = out.expect_err("rank 1 should have crashed");
            assert_eq!(failure.ranks(), vec![1], "strategy {strategy:?}");
        }
    }

    #[test]
    fn posted_exchange_completes_bitwise_identical_to_blocking() {
        for strategy in [ExchangeStrategy::AllToAll, ExchangeStrategy::Pairwise] {
            for placement in [RowsPlacement::Outer, RowsPlacement::Middle] {
                let results = mpi::run(4, move |comm| {
                    let plan = TransposePlan::with_placement(&comm, 3, 8, 12, strategy, placement);
                    let input: Vec<u64> = (0..plan.input_len())
                        .map(|x| x as u64 * 31 + comm.rank() as u64)
                        .collect();
                    let blocking = plan.run(&comm, &input);
                    let mut send = Vec::new();
                    let mut out = vec![0u64; plan.output_len()];
                    let mut inflight = plan.post(&comm, &input, &mut send, 1);
                    // drive the exchange by polling until everything is
                    // in, then complete without blocking
                    while !inflight.progress(&comm).unwrap() {
                        std::thread::yield_now();
                    }
                    inflight.complete_into(&comm, &mut out).unwrap();
                    out == blocking
                });
                assert!(
                    results.into_iter().all(|ok| ok),
                    "{strategy:?}/{placement:?}"
                );
            }
        }
    }

    #[test]
    fn overlapping_exchanges_with_distinct_seq_do_not_cross_match() {
        // two exchanges in flight on the same communicator at once — the
        // double-buffered pipeline's steady state; distinct sequence
        // numbers keep their messages apart
        for strategy in [ExchangeStrategy::AllToAll, ExchangeStrategy::Pairwise] {
            let results = mpi::run(3, move |comm| {
                let plan = TransposePlan::new(&comm, 2, 6, 9, strategy);
                let a: Vec<u64> = (0..plan.input_len()).map(|x| x as u64).collect();
                let b: Vec<u64> = (0..plan.input_len())
                    .map(|x| x as u64 + 1_000_000)
                    .collect();
                let want_a = plan.run(&comm, &a);
                let want_b = plan.run(&comm, &b);
                let (mut send_a, mut send_b) = (Vec::new(), Vec::new());
                let fly_a = plan.post(&comm, &a, &mut send_a, 0);
                let fly_b = plan.post(&comm, &b, &mut send_b, 1);
                // complete in reverse posting order to stress matching
                let (mut got_a, mut got_b) = (Vec::new(), Vec::new());
                fly_b.complete(&comm, &mut got_b).unwrap();
                fly_a.complete(&comm, &mut got_a).unwrap();
                got_a == want_a && got_b == want_b
            });
            assert!(results.into_iter().all(|ok| ok), "{strategy:?}");
        }
    }

    #[test]
    fn crash_with_transpose_in_flight_surfaces_rank_dead() {
        // rank 1 dies *after* the exchange is posted (its sends are ops
        // 0..p-1; the crash lands on a later op), so the survivor holds an
        // InflightTranspose whose peer will never deliver — both progress
        // and complete must fail fast with the typed error, not hang
        for strategy in [ExchangeStrategy::AllToAll, ExchangeStrategy::Pairwise] {
            let out = mpi::run_result(
                2,
                mpi::RunOptions {
                    recv_timeout: std::time::Duration::from_secs(5),
                    // op 0 is rank 1's first send of the *second* exchange:
                    // its first exchange delivers, the second never does
                    fault_plan: mpi::FaultPlan::none().crash_at_op(1, 2),
                },
                move |comm| {
                    let plan = TransposePlan::new(&comm, 1, 4, 4, strategy);
                    let input = vec![1.0f64; plan.input_len()];
                    let mut send = Vec::new();
                    if comm.rank() == 0 {
                        let mut first = plan.post(&comm, &input, &mut send, 0);
                        while !first.progress(&comm).unwrap() {
                            std::thread::yield_now();
                        }
                        let mut done = Vec::new();
                        first.complete(&comm, &mut done).unwrap();
                        let second = plan.post(&comm, &input, &mut send, 1);
                        match second.complete(&comm, &mut Vec::new()) {
                            Err(mpi::CommError::RankDead { .. }) => (),
                            other => panic!("expected RankDead, got {other:?}"),
                        }
                    } else {
                        // crashes part-way through posting the second
                        // exchange
                        let first = plan.post(&comm, &input, &mut send, 0);
                        let _ = first.complete(&comm, &mut Vec::new());
                        let _ = plan.post(&comm, &input, &mut send, 1);
                    }
                },
            );
            let failure = out.expect_err("rank 1 should have crashed");
            assert_eq!(
                failure.ranks(),
                vec![1],
                "strategy {strategy:?}: {:?}",
                failure.messages()
            );
        }
    }

    #[test]
    fn request_counters_balance_and_overlap_is_counted() {
        telemetry::set_level(telemetry::Level::Phases);
        telemetry::reset();
        let results = mpi::run(2, |comm| {
            let plan = TransposePlan::new(&comm, 2, 4, 6, ExchangeStrategy::AllToAll);
            let input = vec![0.5f64; plan.input_len()];
            let mut send = Vec::new();
            let inflight = plan.post(&comm, &input, &mut send, 0);
            // do some "compute" while the exchange is in flight so a
            // nonzero overlap window exists
            std::thread::sleep(std::time::Duration::from_millis(2));
            let mut out = Vec::new();
            inflight.complete(&comm, &mut out).unwrap();
            true
        });
        let totals = telemetry::snapshot().total_counters();
        telemetry::set_level(telemetry::Level::Off);
        telemetry::reset();
        assert!(results.into_iter().all(|ok| ok));
        let posted = totals.get(Counter::RequestsPosted);
        let completed = totals.get(Counter::RequestsCompleted);
        // 2 ranks x (2 isends + 2 irecvs) = 8 requests, all retired
        assert_eq!(posted, 8);
        assert_eq!(
            completed, posted,
            "a quiesced exchange retires all requests"
        );
        assert!(
            totals.get(Counter::ExchangeOverlapUs) >= 2_000,
            "the 2 ms in-flight compute window must land on ExchangeOverlapUs"
        );
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
