//! Distributed pencil transposes over a (sub-)communicator.
//!
//! One transpose re-orients pencils along one axis pair: the input holds
//! `rows` independent planes with axis `f` distributed and axis `t` full;
//! the output holds them with `t` distributed and `f` full. Pack /
//! exchange / unpack: the exchange is one all-to-all within the
//! sub-communicator ([`Communicator::alltoall_checked`]), and the unpack
//! places every received block — through the cache-blocked reorder
//! ([`reorder_blocked`]) where the two axes swap in memory, also where one
//! side lies in a larger buffer ([`TransposePlan::run_into_room`],
//! [`TransposePlan::run_from_room`]), or as contiguous runs where the
//! placement keeps memory order ([`RowsPlacement::SplitFast`],
//! [`RowsPlacement::SplitSlow`]). On one rank the unpack of the input
//! itself is the whole transpose.
//!
//! There is one exchange schedule: on the eager transport every block is
//! queued when it is posted, so any other (FFTW's pairwise `sendrecv`
//! rotation, section 4.3) would post the same messages. What a fixed
//! schedule costs on a real wire is the machine model's to price.

use crate::decomp::Block;
use crate::reorder::reorder_blocked;
use dns_minimpi::Communicator;
use dns_telemetry as telemetry;
use dns_telemetry::{Counter, Phase};

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
    placement: RowsPlacement,
}

impl TransposePlan {
    /// Plan a transpose on `comm`: a few integer operations, no message.
    ///
    /// * `rows` — slow, untouched local dimension (product of everything
    ///   not taking part in this transpose);
    /// * `nf` — global length of the input-distributed axis;
    /// * `nt` — global length of the input-full axis;
    /// * `placement` — where `rows` sits in the local layouts.
    ///
    /// # Panics
    /// If `nf` or `nt` is shorter than the communicator: some rank would
    /// own an empty block of it.
    ///
    /// # Example
    ///
    /// A 4x4 plane distributed over two ranks, transposed and brought
    /// back by the inverse plan:
    ///
    /// ```
    /// use dns_pencil::{RowsPlacement, TransposePlan};
    ///
    /// let ok = dns_minimpi::run(2, |world| {
    ///     let plan = TransposePlan::plan(&world, 1, 4, 4, RowsPlacement::Outer);
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
    pub fn plan(
        comm: &Communicator,
        rows: usize,
        nf: usize,
        nt: usize,
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
            placement,
        }
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

    /// The inverse plan (axes swapped).
    pub fn inverse(&self, comm: &Communicator) -> TransposePlan {
        let placement = match self.placement {
            RowsPlacement::SplitFast => RowsPlacement::SplitSlow,
            RowsPlacement::SplitSlow => RowsPlacement::SplitFast,
            same => same,
        };
        TransposePlan::plan(comm, self.rows, self.nt, self.nf, placement)
    }

    /// Execute the transpose; the layouts are the placement's
    /// ([`RowsPlacement`]).
    pub fn run<T: Copy + Default + Send + 'static>(
        &self,
        comm: &Communicator,
        input: &[T],
    ) -> Vec<T> {
        let (mut send, mut out) = (Vec::new(), Vec::new());
        self.run_with(comm, input, &mut send, &mut out);
        out
    }

    /// [`TransposePlan::run`] with caller-owned message (`send`) and
    /// result (`out`) buffers so steady-state callers re-run without
    /// allocating them: each destination's block is packed straight into
    /// one of the `send` buffers, and the blocks the exchange receives are
    /// kept there for the next call. On a single-rank communicator the
    /// exchange degenerates to a pure local reorder: `input` is unpacked
    /// straight into `out` and `send` and the communicator are never
    /// touched.
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
        send: &mut Vec<Vec<T>>,
        out: &mut Vec<T>,
    ) {
        self.checked(self.try_run_with(comm, input, send, out));
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
        send: &mut Vec<Vec<T>>,
        out: &mut Vec<T>,
    ) -> Result<(), dns_minimpi::CommError> {
        // resized, never cleared: every unpack stores every output element
        // (the transpose is a bijection of the index space), so nothing
        // stale can be read and only a growing buffer is filled
        out.resize(self.output_len(), T::default());
        self.exchange(comm, input, self.sides(), send, out)
    }

    /// [`run_with`](Self::run_with) of a split placement in place: the
    /// plan's rows are planes of `k` rows, and in both views of `pencil`
    /// (`dns-pfft`'s z- and x-pencils, `[y][cap fields][...]`, carrying `k`
    /// fields) every plane has room for `cap` rows. Only the plan's rows are
    /// read and written. The pack copies every input value before the
    /// unpack writes any; on one rank the two views coincide.
    ///
    /// # Panics
    /// As [`run_with`](Self::run_with), or if the placement does not keep
    /// memory order, `k` does not divide the rows or exceeds `cap`.
    pub fn run_in_planes<T: Copy + Send + 'static>(
        &self,
        comm: &Communicator,
        [k, cap]: [usize; 2],
        pencil: &mut [T],
        send: &mut Vec<Vec<T>>,
    ) {
        let split = matches!(
            self.placement,
            RowsPlacement::SplitFast | RowsPlacement::SplitSlow
        );
        let whole = k > 0 && self.rows.is_multiple_of(k) && k <= cap;
        assert!(
            split && whole,
            "planes need a split placement, whole planes"
        );
        let planes = |s: Side| Side {
            planes: self.rows / k,
            lines: k,
            plane: cap * s.len,
            ..s
        };
        let [inp, outp] = self.sides().map(planes);
        assert_eq!(comm.size(), self.p);
        if self.p == 1 {
            return;
        }
        let _transpose = telemetry::span("transpose", Phase::Transpose);
        self.pack(&pencil[..inp.buffer()], inp, send);
        let out = &mut pencil[..outp.buffer()];
        self.checked(self.deliver(comm, [inp, outp], send, out));
    }

    /// The [`RowsPlacement::Middle`] transpose into a buffer with room,
    /// the y->z transpose into the z-pencil: the plan's `rows` are whole
    /// fields of `group` rows each (`dns-pfft`'s kx lane blocks), the
    /// input is `[f_loc][rows][t]` and the output
    /// `[t_loc][room.fields][group][room.line]`, of which the plan's fields
    /// and the first `f` values of their lines are written. Nothing else of
    /// the caller-sized `out` is.
    ///
    /// # Panics
    /// As [`run_with`](Self::run_with), or if the plan is not `Middle`,
    /// its rows are not whole fields, or they do not fit `room`.
    pub fn run_into_room<T: Copy + Send + 'static>(
        &self,
        comm: &Communicator,
        group: usize,
        input: &[T],
        send: &mut Vec<Vec<T>>,
        out: &mut [T],
        room: Room,
    ) {
        let mut sides = self.sides();
        sides[1] = room.hold(self, sides[1], group);
        self.checked(self.exchange(comm, input, sides, send, out));
    }

    /// The inverse of [`run_into_room`](Self::run_into_room) on the same
    /// kind of plan, the z->y transpose out of the z-pencil: the input is
    /// `[f_loc][room.fields][group][room.line]`, of which the plan's
    /// fields and the first `t` values of their lines are read, the output
    /// `[t_loc][rows][f]`.
    ///
    /// # Panics
    /// As [`run_into_room`](Self::run_into_room).
    pub fn run_from_room<T: Copy + Default + Send + 'static>(
        &self,
        comm: &Communicator,
        group: usize,
        input: &[T],
        room: Room,
        send: &mut Vec<Vec<T>>,
        out: &mut Vec<T>,
    ) {
        let mut sides = self.sides();
        sides[0] = room.hold(self, sides[0], group);
        out.resize(sides[1].buffer(), T::default());
        self.checked(self.exchange(comm, input, sides, send, out));
    }

    /// Panic on a failed exchange (see [`run_with`](Self::run_with)).
    fn checked(&self, result: Result<(), dns_minimpi::CommError>) {
        if let Err(e) = result {
            panic!("transpose exchange failed over {} ranks: {e}", self.p);
        }
    }

    /// One side of this plan, compact: `rows` rows (in the side's own
    /// unit), `split` values of the distributed axis and `full` of the
    /// other, laid out as the placement says ([`RowsPlacement`]). A side's
    /// lines are what the pack cuts: their fastest axis is `t` on the
    /// input, whole rows where memory order is kept.
    fn side(&self, rows: usize, split: usize, full: usize) -> Side {
        match self.placement {
            RowsPlacement::Outer => Side::compact(rows, split, full),
            RowsPlacement::Middle => Side::compact(split, rows, full),
            RowsPlacement::SplitFast | RowsPlacement::SplitSlow => {
                Side::compact(1, rows, split * full)
            }
        }
    }

    /// This rank's compact input and output sides.
    fn sides(&self) -> [Side; 2] {
        [
            self.side(self.rows, self.f_block.len, self.nt),
            self.side(self.rows, self.t_block.len, self.nf),
        ]
    }

    /// Pack -> all-to-all -> unpack from `input` (laid out as `inp`) into
    /// `out` (as `outp`); on one rank the input itself is the one block to
    /// unpack. Only the values of the two sides are read, written and
    /// counted.
    fn exchange<T: Copy + Send + 'static>(
        &self,
        comm: &Communicator,
        input: &[T],
        [inp, outp]: [Side; 2],
        send: &mut Vec<Vec<T>>,
        out: &mut [T],
    ) -> Result<(), dns_minimpi::CommError> {
        assert_eq!(comm.size(), self.p);
        assert_eq!(input.len(), inp.buffer(), "input length mismatch");
        let _transpose = telemetry::span("transpose", Phase::Transpose);
        if self.p > 1 {
            self.pack(input, inp, send);
            return self.deliver(comm, [inp, outp], send, out);
        }
        assert_eq!(out.len(), outp.buffer(), "output length mismatch");
        self.unpack(input, inp, Block::of(self.nf, 1, 0), out, outp);
        let moved = (inp.values() + outp.values()) * std::mem::size_of::<T>();
        telemetry::count(Counter::DdrBytes, moved as u64);
        Ok(())
    }

    /// The first half of a multi-rank exchange: every value of `input`
    /// (laid out as `inp`) into the messages, dest `d`'s block (every input
    /// line's slice of `d`'s `t` range) straight into a buffer the previous
    /// exchange received. A line is `nt` values, except where `t` is the
    /// slow axis (SplitSlow): there a row is one line of `nt` runs of
    /// `f_loc` values.
    fn pack<T: Copy>(&self, input: &[T], inp: Side, send: &mut Vec<Vec<T>>) {
        let _pack = telemetry::span("pack", Phase::Transpose);
        let (nt, p) = (self.nt, self.p);
        let unit = if self.placement == RowsPlacement::SplitSlow {
            self.f_block.len
        } else {
            1
        };
        send.resize_with(p, Vec::new);
        for (d, block) in send.iter_mut().enumerate() {
            let tb = Block::of(nt, p, d);
            block.clear();
            for at in inp.starts() {
                for line in input[at..at + inp.len].chunks_exact(nt * unit) {
                    block.extend_from_slice(&line[tb.start * unit..tb.end() * unit]);
                }
            }
        }
        // the pack streams the input once and writes it once
        let values = inp.values() * std::mem::size_of::<T>();
        telemetry::count(Counter::DdrBytes, 2 * values as u64);
    }

    /// The second half: the all-to-all of the messages [`Self::pack`]
    /// filled, then every received block unpacked into `out` (laid out as
    /// `outp`) in source order. The received blocks carry the next
    /// exchange's messages.
    fn deliver<T: Copy + Send + 'static>(
        &self,
        comm: &Communicator,
        [inp, outp]: [Side; 2],
        send: &mut Vec<Vec<T>>,
        out: &mut [T],
    ) -> Result<(), dns_minimpi::CommError> {
        assert_eq!(out.len(), outp.buffer(), "output length mismatch");
        let parts = {
            let _exchange = telemetry::span("exchange", Phase::Transpose);
            // the rank thread's wait clock is monotone, so its delta across
            // the exchange is exactly its blocked share
            let wait0 = comm.recv_wait_seconds();
            let parts = comm.alltoall_checked(std::mem::take(send))?;
            telemetry::count_phase(
                Phase::Transpose,
                Counter::ExchangeWaitUs,
                ((comm.recv_wait_seconds() - wait0) * 1e6) as u64,
            );
            parts
        };

        let _unpack = telemetry::span("unpack", Phase::Transpose);
        // one write of the output's values (their size differs from the
        // input's by the pad lanes where one side is lane-blocked)
        let mut moved = outp.values() * std::mem::size_of::<T>();
        // a block holds its source's input lines cut to this rank's `t`
        // range, back to back: the compact side of the same rows
        let rows = match self.placement {
            RowsPlacement::Outer => inp.planes,
            RowsPlacement::Middle => inp.lines,
            RowsPlacement::SplitFast | RowsPlacement::SplitSlow => inp.planes * inp.lines,
        };
        for (s, chunk) in parts.iter().enumerate() {
            let fb = Block::of(self.nf, self.p, s);
            let src = self.side(rows, fb.len, self.t_block.len);
            self.unpack(chunk, src, fb, out, outp);
            moved += std::mem::size_of_val(&chunk[..]);
        }
        // the unpack reads the receive chunks once and writes the output
        // once
        telemetry::count(Counter::DdrBytes, moved as u64);
        *send = parts;
        Ok(())
    }

    /// Place the block from the owner of `fb` of the `f` axis, laid out as
    /// `src`, into `out` (laid out as `dst`): its `f` values for this
    /// rank's `t` range, in the input's axis order.
    fn unpack<T: Copy>(&self, chunk: &[T], src: Side, fb: Block, out: &mut [T], dst: Side) {
        let (rows, ntl, nf) = (self.rows, self.t_block.len, self.nf);
        debug_assert_eq!(chunk.len(), src.buffer());
        if chunk.is_empty() {
            return;
        }
        let shape = [fb.len, rows, ntl];
        match self.placement {
            RowsPlacement::Outer => {
                let (from, to) = ([src.line, src.plane], [dst.line, dst.plane]);
                reorder_blocked(chunk, from, &mut out[fb.start..], to, shape);
            }
            RowsPlacement::Middle => {
                let (from, to) = ([src.plane, src.line], [dst.plane, dst.line]);
                reorder_blocked(chunk, from, &mut out[fb.start..], to, shape);
            }
            // memory order kept: every row (SplitFast) or every (row, t)
            // pair (SplitSlow) is one contiguous run of the output
            RowsPlacement::SplitFast => {
                for (s, d) in src.starts().zip(dst.starts()) {
                    out[d + fb.start * ntl..][..src.len].copy_from_slice(&chunk[s..][..src.len]);
                }
            }
            RowsPlacement::SplitSlow => {
                for (s, d) in src.starts().zip(dst.starts()) {
                    for (t, run) in chunk[s..s + src.len].chunks_exact(fb.len).enumerate() {
                        out[d + t * nf + fb.start..][..fb.len].copy_from_slice(run);
                    }
                }
            }
        }
    }
}

/// Room a pencil buffer keeps past what one transpose carries, so that
/// one buffer serves transforms of different field counts (`dns-pfft`'s
/// z-pencil `[y][fields][kx_block][pz]`, holding 3 or 5 fields of `nz`
/// coefficients): every plane (one local y row) has room for `fields`
/// fields, every line for `line` values. A transpose in a room reads or
/// writes only the fields it carries and the leading values of their
/// lines.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Room {
    /// Fields a plane has room for.
    pub fields: usize,
    /// Values a line has room for.
    pub line: usize,
}

impl Room {
    /// The `Middle` side `side` of `plan` (planes of whole fields of
    /// `group` lines) inside this room.
    fn hold(self, plan: &TransposePlan, side: Side, group: usize) -> Side {
        let middle = plan.placement == RowsPlacement::Middle;
        let whole = group > 0 && side.lines.is_multiple_of(group);
        assert!(middle && whole, "a room needs Middle, whole fields");
        let fields = side.lines / group;
        assert!(
            fields <= self.fields && side.len <= self.line,
            "{fields} fields of {}-value lines in room for {} of {}",
            side.len,
            self.fields,
            self.line
        );
        Side {
            plane: self.fields * group * self.line,
            line: self.line,
            ..side
        }
    }
}

/// Where one side of a transpose lies in its buffer: `planes` planes
/// `plane` apart, each of `lines` lines `line` apart, of which the first
/// `len` values are the side's. The rest of a plane and of a line is
/// neither read nor written.
#[derive(Clone, Copy, Debug)]
struct Side {
    planes: usize,
    lines: usize,
    plane: usize,
    line: usize,
    len: usize,
}

impl Side {
    /// `planes` planes of `lines` lines of `len` values, back to back.
    fn compact(planes: usize, lines: usize, len: usize) -> Side {
        Side {
            planes,
            lines,
            plane: lines * len,
            line: len,
            len,
        }
    }

    /// The first value of every line, in order.
    fn starts(self) -> impl Iterator<Item = usize> {
        (0..self.planes)
            .flat_map(move |p| (0..self.lines).map(move |l| p * self.plane + l * self.line))
    }

    /// Values of the side.
    fn values(self) -> usize {
        self.planes * self.lines * self.len
    }

    /// Length of the buffer the side lies in.
    fn buffer(self) -> usize {
        self.planes * self.plane
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
        check_placement(4, RowsPlacement::Outer, [2, 8, 12]);
    }

    #[test]
    fn alltoall_transpose_uneven_sizes() {
        check_placement(3, RowsPlacement::Outer, [2, 7, 11]);
        check_placement(5, RowsPlacement::Outer, [1, 9, 13]);
        check_placement(3, RowsPlacement::Outer, [3, 10, 5]);
    }

    #[test]
    fn single_rank_transpose_is_local_reorder() {
        check_placement(1, RowsPlacement::Outer, [4, 6, 5]);
    }

    #[test]
    fn roundtrip_restores_input() {
        check_placement(4, RowsPlacement::Outer, [3, 8, 10]);
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
    fn check_placement(p: usize, pl: RowsPlacement, [rows, nf, nt]: [usize; 3]) {
        mpi::run(p, move |comm| {
            let plan = TransposePlan::plan(&comm, rows, nf, nt, pl);
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
                            "{pl:?} p={p} r={r} f={f} t={t}"
                        );
                    }
                }
            }
            let back = plan.inverse(&comm).run(&comm, &out);
            assert_eq!(back, input, "{pl:?} p={p}: round trip");
        });
    }

    #[test]
    fn middle_placement_matches_definition() {
        for (p, shape) in [(4, [2, 8, 12]), (3, [2, 7, 11]), (1, [3, 5, 4])] {
            check_placement(p, RowsPlacement::Middle, shape);
        }
    }

    #[test]
    fn split_placements_match_their_definition_and_round_trip() {
        // 11 and 13 split unevenly over 2, 3 and 5 ranks
        for p in [1, 2, 3, 5] {
            for pl in [RowsPlacement::SplitFast, RowsPlacement::SplitSlow] {
                check_placement(p, pl, [3, 11, 13]);
                check_placement(p, pl, [1, 13, 5]);
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
                    check_placement(p, pl, [2, nf, nt]);
                }
            }
        }
    }

    #[test]
    fn room_transposes_match_their_definition_and_round_trip() {
        // fields of 1 and 3 rows; nf and nt split unevenly; the room side
        // lies in a buffer with room for one more field and two more values
        // per line, and that room holds u64::MAX: it must be neither
        // written by the transpose nor read by its inverse
        for p in [1, 2, 3] {
            for group in [1, 3] {
                mpi::run(p, move |comm| {
                    let (fields, nf, nt) = (2, 7, 5);
                    let rows = fields * group;
                    let plan = TransposePlan::plan(&comm, rows, nf, nt, RowsPlacement::Middle);
                    let (fb, tb) = (plan.f_block(), plan.t_block());
                    let value = |r: usize, f: usize, t: usize| ((r * nf + f) * nt + t) as u64;
                    // input `[f_loc][rows][t]`
                    let mut input = Vec::with_capacity(plan.input_len());
                    for f in fb.start..fb.end() {
                        for r in 0..rows {
                            input.extend((0..nt).map(|t| value(r, f, t)));
                        }
                    }
                    let room = Room {
                        fields: fields + 1,
                        line: nf + 2,
                    };
                    let plane = room.fields * group * room.line;
                    let mut out = vec![u64::MAX; tb.len * plane];
                    let mut send = Vec::new();
                    plan.run_into_room(&comm, group, &input, &mut send, &mut out, room);
                    // output `[t_loc][fields][group][line]`, row `r` of the
                    // plan in the first `nf` values of line `r`
                    for (i, &got) in out.iter().enumerate() {
                        let (tl, r, f) = (i / plane, i % plane / room.line, i % room.line);
                        if r >= rows || f >= nf {
                            assert_eq!(got, u64::MAX, "p={p} group={group}: room written");
                        } else {
                            let want = value(r, f, tb.global(tl));
                            assert_eq!(got, want, "p={p} group={group}");
                        }
                    }
                    let inverse = plan.inverse(&comm);
                    let (mut send, mut back) = (Vec::new(), Vec::new());
                    inverse.run_from_room(&comm, group, &out, room, &mut send, &mut back);
                    assert_eq!(back, input, "p={p} group={group}: round trip");
                });
            }
        }
    }

    #[test]
    fn split_hops_in_planes_touch_only_their_rows() {
        // three planes of two rows each, in place in a buffer with room
        // for three rows per plane in either view, every other slot a
        // distinct sentinel: the output view's rows must be the compact
        // transpose's, placed plane by plane, and every other slot keep
        // what it held (input rows the unpack does not overwrite included)
        let (planes, k, cap, nf, nt) = (3, 2, 3, 11, 13);
        for p in [1, 2, 3] {
            for pl in [RowsPlacement::SplitFast, RowsPlacement::SplitSlow] {
                mpi::run(p, move |comm| {
                    let plan = TransposePlan::plan(&comm, planes * k, nf, nt, pl);
                    let rank = comm.rank() as u64;
                    let compact: Vec<u64> = (0..plan.input_len() as u64)
                        .map(|i| i + 1000 * rank)
                        .collect();
                    let want = plan.run(&comm, &compact);
                    let place = |buf: &mut [u64], v: &[u64]| {
                        let row = v.len() / (planes * k);
                        for (r, run) in v.chunks_exact(row).enumerate() {
                            buf[(r / k * cap + r % k) * row..][..row].copy_from_slice(run);
                        }
                    };
                    let len = plan.input_len().max(plan.output_len()) / k * cap;
                    let mut pencil: Vec<u64> = (0..len as u64).map(|i| u64::MAX - i).collect();
                    place(&mut pencil, &compact);
                    let mut expect = pencil.clone();
                    place(&mut expect, &want);
                    plan.run_in_planes(&comm, [k, cap], &mut pencil, &mut Vec::new());
                    assert_eq!(pencil, expect, "{pl:?} p={p}");
                });
            }
        }
    }

    #[test]
    fn middle_placement_roundtrip() {
        check_placement(3, RowsPlacement::Middle, [4, 9, 7]);
    }

    #[test]
    fn dead_rank_surfaces_as_typed_error_not_hang() {
        // rank 1 dies on its very first transport operation, or on one
        // that falls into its second exchange (the first then delivers)
        for crash_op in [0, 4] {
            let out = mpi::run_result(
                2,
                mpi::RunOptions {
                    recv_timeout: std::time::Duration::from_secs(5),
                    fault_plan: mpi::FaultPlan::none().crash_at_op(1, crash_op),
                },
                move |comm| {
                    let plan = TransposePlan::plan(&comm, 1, 4, 4, RowsPlacement::Outer);
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
                "op {crash_op}: {:?}",
                failure.messages()
            );
        }
    }

    #[test]
    fn back_to_back_exchanges_on_one_communicator_do_not_cross_match() {
        // Every exchange uses the same tag, so two consecutive ones are
        // kept apart by FIFO matching per (source, tag) alone. Rank 0 is
        // delayed on its first receive of exchange A (after its `p`
        // sends), so its peers have finished A and queued their B blocks
        // behind their A blocks by the time it starts receiving.
        let p = 3;
        let opts = mpi::RunOptions {
            recv_timeout: std::time::Duration::from_secs(5),
            fault_plan: mpi::FaultPlan::none().delay_at_op(
                0,
                p as u64,
                std::time::Duration::from_millis(30),
            ),
        };
        mpi::run_result(p, opts, move |comm| {
            let (rows, nf, nt) = (2, 6, 9);
            let plan = TransposePlan::plan(&comm, rows, nf, nt, RowsPlacement::Outer);
            let ga = global(rows, nf, nt);
            let gb: Vec<u64> = ga.iter().map(|x| x + 1_000_000).collect();
            let (mut send, mut got_a, mut got_b) = (Vec::new(), Vec::new(), Vec::new());
            plan.run_with(&comm, &scatter(&plan, &ga), &mut send, &mut got_a);
            plan.run_with(&comm, &scatter(&plan, &gb), &mut send, &mut got_b);
            assert_transposed(&plan, &got_a, &ga);
            assert_transposed(&plan, &got_b, &gb);
        })
        .unwrap_or_else(|f| panic!("{:?}", f.messages()));
    }

    #[test]
    fn traffic_counters_reflect_off_rank_bytes() {
        let results = mpi::run(2, |comm| {
            comm.reset_stats();
            let plan = TransposePlan::plan(&comm, 1, 4, 4, RowsPlacement::Outer);
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
