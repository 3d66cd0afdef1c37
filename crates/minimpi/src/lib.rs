//! A thread-backed message-passing runtime with MPI semantics.
//!
//! The paper's communication layer is MPI: two sub-communicators created
//! with `MPI_cart_create`/`MPI_cart_sub` (CommA and CommB, section 4.3)
//! carry the all-to-all traffic of the global transposes. No MPI is
//! available here, so this crate reproduces the *semantics* on OS threads:
//! each rank is a thread, point-to-point messages travel over crossbeam
//! channels, and the collectives (barrier, bcast, gather, allgather,
//! allreduce, alltoall) are built on the point-to-point layer exactly as
//! a textbook MPI would build them.
//!
//! The crate also counts every message and byte per communicator
//! ([`Communicator::stats`]); the network performance model in
//! `dns_scaling::model` consumes those counts to predict timings at core counts
//! no laptop can host.
//!
//! Deadlock hygiene: receives time out after [`RECV_TIMEOUT`] and panic
//! with a diagnostic instead of hanging the test suite; sends are
//! buffered (unbounded channels), so the usual "send then receive"
//! collective patterns cannot deadlock.
//!
//! # Fault plane
//!
//! Production DNS campaigns live inside the machine's MTBF, so the
//! runtime carries a first-class fault plane (the [`fault`] module):
//!
//! * [`run_result`] executes ranks under a [`FaultPlan`] and returns
//!   rank panics as a typed [`RunFailure`] instead of propagating them,
//!   which is what a restart supervisor (`dns-resilience`) builds on.
//! * A crashed rank is *detected*: every blocking receive polls with
//!   exponential backoff and surfaces a dead peer as
//!   [`CommError::RankDead`] within milliseconds instead of hanging
//!   until the timeout. [`Communicator::recv_checked`] returns the
//!   typed error; the classic [`Communicator::recv`] keeps its panicking
//!   contract for infallible callers.
//! * Retries and injected faults land on the telemetry counters
//!   (`recv_retries`, `faults_injected`, `restarts`).
//!
//! # Example
//!
//! ```
//! // four ranks on a 2x2 Cartesian grid, as the paper's CommA x CommB
//! let sums = dns_minimpi::run(4, |world| {
//!     let cart = dns_minimpi::CartComm::new(world, &[2, 2]);
//!     let comm_a = cart.sub(0);
//!     comm_a.allreduce_sum(cart.coords[1] as f64)
//! });
//! // each CommA couples the two ranks sharing a B coordinate
//! assert_eq!(sums, vec![0.0, 2.0, 0.0, 2.0]);
//! ```

#![deny(missing_docs)]
// Indexed loops mirror the textbook statements of the numerical
// algorithms (banded elimination, butterflies, stencils); iterator
// rewrites of these kernels obscure the maths without helping codegen.
#![allow(clippy::needless_range_loop)]
#![allow(clippy::type_complexity)]

pub mod fault;

pub use fault::{FaultEvent, FaultKind, FaultPlan};

use std::any::Any;
use std::cell::{Cell, RefCell};
use std::collections::{HashMap, VecDeque};
use std::rc::Rc;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Once};
use std::time::{Duration, Instant};

use crossbeam::channel::{unbounded, Receiver, RecvTimeoutError, Sender};
use dns_telemetry as telemetry;

use fault::RankFaults;

/// How long a blocking receive waits before declaring a deadlock.
pub const RECV_TIMEOUT: Duration = Duration::from_secs(60);

/// First backoff slice of the receive poll loop; doubles up to
/// [`BACKOFF_MAX`] between polls so an idle wait costs little CPU while a
/// dead peer is still noticed within milliseconds.
const BACKOFF_START: Duration = Duration::from_micros(200);
const BACKOFF_MAX: Duration = Duration::from_millis(20);

/// Typed communication failure surfaced by the checked receive variants.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CommError {
    /// No matching message arrived within the receive budget.
    Timeout {
        /// Communicator rank of the awaited sender.
        src: usize,
        /// User tag of the awaited message.
        tag: u64,
        /// How long the receive waited in total.
        waited: Duration,
    },
    /// The awaited sender's rank thread has died (panicked), so the
    /// message can never arrive.
    RankDead {
        /// Communicator rank of the dead sender.
        src: usize,
        /// World rank of the dead sender.
        world_rank: usize,
    },
}

impl std::fmt::Display for CommError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CommError::Timeout { src, tag, waited } => write!(
                f,
                "receive from rank {src} (tag {tag}) timed out after {:.3} s",
                waited.as_secs_f64()
            ),
            CommError::RankDead { src, world_rank } => {
                write!(f, "rank {src} (world rank {world_rank}) is dead")
            }
        }
    }
}

impl std::error::Error for CommError {}

type Payload = Box<dyn Any + Send>;

struct Envelope {
    src: usize,
    comm: u64,
    tag: u64,
    bytes: usize,
    payload: Payload,
}

/// Shared transport: one inbound channel per rank, senders cloned to all,
/// plus one liveness flag per rank (cleared when a rank thread panics, so
/// peers fail fast instead of waiting out the timeout).
struct Mesh {
    senders: Vec<Sender<Envelope>>,
    alive: Vec<AtomicBool>,
}

/// Per-rank context: this thread's identity, its inbound channel, the
/// out-of-order message buffer, the effective receive budget, and this
/// rank's share of the run's fault plan.
struct RankCtx {
    me: usize,
    mesh: Arc<Mesh>,
    inbox: Receiver<Envelope>,
    pending: RefCell<HashMap<(usize, u64, u64), VecDeque<(usize, Payload)>>>,
    recv_timeout: Duration,
    faults: RankFaults,
    /// Cumulative seconds this rank thread has spent blocked inside
    /// [`RankCtx::fetch_deadline`] waiting for messages, across all of
    /// its communicators. The run-health layer diffs this per step to
    /// split wall time into busy vs wait — the signal that separates a
    /// genuine straggler (busy) from its victims (waiting on it).
    recv_wait: Cell<f64>,
}

impl RankCtx {
    fn post(&self, dest: usize, env: Envelope) {
        // A dead destination has dropped its inbox receiver; the message
        // is undeliverable and silently lost, exactly as on a real
        // network. The sender learns of the death through the liveness
        // flag on its next receive involving that rank — never by
        // crashing here, which would cascade one injected failure across
        // the whole world.
        let _ = self.mesh.senders[dest].send(env);
    }

    /// Consult the fault plan for the transport operation about to run;
    /// delays and crashes are applied here, a pending `Drop` is returned
    /// to the caller (only a send can honour it).
    fn next_op_fault(&self) -> Option<FaultKind> {
        match self.faults.on_op() {
            Some(FaultKind::Delay(d)) => {
                telemetry::count(telemetry::Counter::FaultsInjected, 1);
                std::thread::sleep(d);
                None
            }
            Some(FaultKind::Crash) => {
                telemetry::count(telemetry::Counter::FaultsInjected, 1);
                panic!(
                    "injected fault: rank {} crashed at transport op {}",
                    self.me,
                    self.faults.ops_seen().saturating_sub(1)
                );
            }
            other => other,
        }
    }

    /// Blocking receive with a deadline: polls the inbox in growing
    /// backoff slices, stashing mismatched messages, and gives up early
    /// with [`CommError::RankDead`] if the awaited sender's thread died.
    /// `src` is the communicator rank (for the error), `src_world` the
    /// world rank (for the liveness flag).
    fn fetch_deadline(
        &self,
        src: usize,
        src_world: usize,
        comm: u64,
        tag: u64,
    ) -> Result<(usize, Payload), CommError> {
        let key = (src, comm, tag);
        if let Some(q) = self.pending.borrow_mut().get_mut(&key) {
            if let Some(p) = q.pop_front() {
                return Ok(p);
            }
        }
        let start = Instant::now();
        let out = self.fetch_loop(src, src_world, comm, tag, start, start + self.recv_timeout);
        self.recv_wait
            .set(self.recv_wait.get() + start.elapsed().as_secs_f64());
        out
    }

    fn fetch_loop(
        &self,
        src: usize,
        src_world: usize,
        comm: u64,
        tag: u64,
        start: Instant,
        deadline: Instant,
    ) -> Result<(usize, Payload), CommError> {
        let mut slice = BACKOFF_START;
        loop {
            match self.inbox.recv_timeout(slice) {
                Ok(env) => {
                    if env.src == src && env.comm == comm && env.tag == tag {
                        return Ok((env.bytes, env.payload));
                    }
                    self.pending
                        .borrow_mut()
                        .entry((env.src, env.comm, env.tag))
                        .or_default()
                        .push_back((env.bytes, env.payload));
                }
                Err(RecvTimeoutError::Timeout) | Err(RecvTimeoutError::Disconnected) => {
                    // The inbox is drained: any message the peer sent
                    // before dying has been seen, so a cleared liveness
                    // flag means the wait can never be satisfied.
                    if src_world != self.me && !self.mesh.alive[src_world].load(Ordering::Acquire) {
                        return Err(CommError::RankDead {
                            src,
                            world_rank: src_world,
                        });
                    }
                    let now = Instant::now();
                    if now >= deadline {
                        return Err(CommError::Timeout {
                            src,
                            tag,
                            waited: now - start,
                        });
                    }
                    telemetry::count(telemetry::Counter::RecvRetries, 1);
                    slice = (slice * 2).min(BACKOFF_MAX).min(deadline - now);
                }
            }
        }
    }
}

/// Traffic counters for one communicator (local rank's contribution).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CommStats {
    /// Messages this rank sent on the communicator (self-sends excluded).
    pub messages_sent: u64,
    /// Payload bytes this rank sent (self-sends excluded).
    pub bytes_sent: u64,
    /// Messages this rank received on the communicator (self-sends
    /// excluded, matching the send-side convention).
    pub messages_recvd: u64,
    /// Payload bytes this rank received (self-sends excluded).
    pub bytes_recvd: u64,
}

/// An MPI-like communicator: an ordered group of ranks with isolated
/// message matching and its own traffic counters.
pub struct Communicator {
    ctx: Rc<RankCtx>,
    id: u64,
    /// Global (world) rank of each member, indexed by communicator rank.
    members: Arc<Vec<usize>>,
    /// This rank's index within `members`.
    rank: usize,
    /// Deterministic per-communicator split counter (collective calls
    /// happen in the same order on every member, so derived communicator
    /// ids agree without global coordination).
    splits: Cell<u64>,
    stats: Cell<CommStats>,
}

fn mix(a: u64, b: u64) -> u64 {
    // splitmix-style mixing for derived communicator ids
    let mut z = a ^ b.wrapping_mul(0x9E3779B97F4A7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
    z ^ (z >> 31)
}

impl Communicator {
    /// Rank of the calling thread within this communicator.
    pub fn rank(&self) -> usize {
        self.rank
    }

    /// Number of ranks in this communicator.
    pub fn size(&self) -> usize {
        self.members.len()
    }

    /// World rank of communicator rank `r`.
    pub fn world_rank(&self, r: usize) -> usize {
        self.members[r]
    }

    /// Local traffic counters.
    pub fn stats(&self) -> CommStats {
        self.stats.get()
    }

    /// Reset the local traffic counters.
    pub fn reset_stats(&self) {
        self.stats.set(CommStats::default());
    }

    /// Cumulative seconds this rank's thread has spent blocked in
    /// receives since the rank started, across *all* communicators of
    /// the rank (the accumulator lives on the shared rank context, not
    /// on this communicator). Monotone; callers diff successive reads
    /// to attribute wait time to an interval.
    pub fn recv_wait_seconds(&self) -> f64 {
        self.ctx.recv_wait.get()
    }

    fn note_send(&self, bytes: usize) {
        let mut s = self.stats.get();
        s.messages_sent += 1;
        s.bytes_sent += bytes as u64;
        self.stats.set(s);
        telemetry::count(telemetry::Counter::MessagesSent, 1);
        telemetry::count(telemetry::Counter::CommBytes, bytes as u64);
    }

    fn note_recv(&self, bytes: usize) {
        let mut s = self.stats.get();
        s.messages_recvd += 1;
        s.bytes_recvd += bytes as u64;
        self.stats.set(s);
        telemetry::count(telemetry::Counter::MessagesRecvd, 1);
        telemetry::count(telemetry::Counter::BytesRecvd, bytes as u64);
    }

    /// Send a vector to communicator rank `dest` with a user tag.
    /// Buffered: returns immediately.
    pub fn send<T: Send + 'static>(&self, dest: usize, tag: u64, data: Vec<T>) {
        if let Some(FaultKind::Drop) = self.ctx.next_op_fault() {
            // the message is lost in transit: neither delivered nor
            // counted as sent
            telemetry::count(telemetry::Counter::FaultsInjected, 1);
            return;
        }
        let bytes = data.len() * std::mem::size_of::<T>();
        if dest == self.rank {
            // self-delivery goes straight to the pending buffer
            self.ctx
                .pending
                .borrow_mut()
                .entry((self.rank, self.id, tag))
                .or_default()
                .push_back((bytes, Box::new(data)));
            return;
        }
        self.note_send(bytes);
        self.ctx.post(
            self.members[dest],
            Envelope {
                src: self.rank,
                comm: self.id,
                tag,
                bytes,
                payload: Box::new(data),
            },
        );
    }

    /// Blocking receive of a vector from communicator rank `src`.
    ///
    /// # Panics
    /// On element-type mismatch with the matching send, on timeout, or if
    /// the sender's rank thread has died.
    pub fn recv<T: Send + 'static>(&self, src: usize, tag: u64) -> Vec<T> {
        self.recv_checked(src, tag).unwrap_or_else(|e| {
            panic!(
                "rank {}: receive (src={src}, comm={:#x}, tag={tag}) failed: {e} — deadlock?",
                self.ctx.me, self.id
            )
        })
    }

    /// Blocking receive returning a typed [`CommError`] instead of
    /// panicking: polls with exponential backoff, fails fast with
    /// [`CommError::RankDead`] if the sender's thread has died, and
    /// returns [`CommError::Timeout`] once the run's configured receive
    /// budget ([`RunOptions::recv_timeout`]) has elapsed without a
    /// matching message.
    pub fn recv_checked<T: Send + 'static>(
        &self,
        src: usize,
        tag: u64,
    ) -> Result<Vec<T>, CommError> {
        // a blocking receive is a transport operation (drops degenerate
        // to no-ops here; delays and crashes apply)
        let _ = self.ctx.next_op_fault();
        let (bytes, payload) = self
            .ctx
            .fetch_deadline(src, self.members[src], self.id, tag)?;
        if src != self.rank {
            self.note_recv(bytes);
        }
        Ok(*payload
            .downcast::<Vec<T>>()
            .expect("message element type mismatch"))
    }

    /// Fire any application-level faults scheduled for this rank at
    /// `step` (see [`FaultPlan::crash_at_step`]). Call once per timestep
    /// from the run loop; a no-op without an active plan.
    ///
    /// # Panics
    /// With an `"injected fault"` message when the plan crashes this rank
    /// at this step.
    pub fn poll_step_faults(&self, step: u64) {
        if self.ctx.faults.crashes_at_step(step) {
            telemetry::count(telemetry::Counter::FaultsInjected, 1);
            panic!(
                "injected fault: rank {} crashed at step {step}",
                self.ctx.me
            );
        }
    }

    /// Synchronise all ranks of this communicator (gather-then-release).
    pub fn barrier(&self) {
        const TAG: u64 = u64::MAX - 1;
        if self.rank == 0 {
            for r in 1..self.size() {
                let _: Vec<u8> = self.recv(r, TAG);
            }
            for r in 1..self.size() {
                self.send::<u8>(r, TAG, Vec::new());
            }
        } else {
            self.send::<u8>(0, TAG, Vec::new());
            let _: Vec<u8> = self.recv(0, TAG);
        }
    }

    /// Broadcast `data` from `root` to every rank; returns the payload on
    /// all ranks.
    pub fn bcast<T: Clone + Send + 'static>(&self, root: usize, data: Option<Vec<T>>) -> Vec<T> {
        const TAG: u64 = u64::MAX - 2;
        if self.rank == root {
            let data = data.expect("root must supply the broadcast payload");
            for r in 0..self.size() {
                if r != root {
                    self.send(r, TAG, data.clone());
                }
            }
            data
        } else {
            self.recv(root, TAG)
        }
    }

    /// Gather one vector per rank at `root` (None elsewhere).
    pub fn gather<T: Send + 'static>(&self, root: usize, data: Vec<T>) -> Option<Vec<Vec<T>>> {
        const TAG: u64 = u64::MAX - 3;
        if self.rank == root {
            let mut out: Vec<Option<Vec<T>>> = (0..self.size()).map(|_| None).collect();
            out[root] = Some(data);
            for r in 0..self.size() {
                if r != root {
                    out[r] = Some(self.recv(r, TAG));
                }
            }
            Some(out.into_iter().map(Option::unwrap).collect())
        } else {
            self.send(root, TAG, data);
            None
        }
    }

    /// All-reduce a slice of f64 element-wise with `op` (gather at rank 0,
    /// reduce, broadcast; a world of one has nothing to combine).
    pub fn allreduce(&self, data: &[f64], op: fn(f64, f64) -> f64) -> Vec<f64> {
        if self.size() == 1 {
            return data.to_vec();
        }
        let gathered = self.gather(0, data.to_vec());
        if self.rank == 0 {
            let parts = gathered.unwrap();
            let mut acc = parts[0].clone();
            for part in &parts[1..] {
                for (a, &b) in acc.iter_mut().zip(part) {
                    *a = op(*a, b);
                }
            }
            self.bcast(0, Some(acc))
        } else {
            self.bcast::<f64>(0, None)
        }
    }

    /// Sum-all-reduce of a single scalar.
    pub fn allreduce_sum(&self, x: f64) -> f64 {
        self.allreduce(&[x], |a, b| a + b)[0]
    }

    /// Max-all-reduce of a single scalar.
    pub fn allreduce_max(&self, x: f64) -> f64 {
        self.allreduce(&[x], f64::max)[0]
    }

    /// All-gather: every rank contributes one vector and receives all of
    /// them, ordered by rank (`MPI_Allgather`).
    pub fn allgather<T: Clone + Send + 'static>(&self, data: Vec<T>) -> Vec<Vec<T>> {
        if self.size() == 1 {
            return vec![data];
        }
        let gathered = self.gather(0, data);
        if self.rank == 0 {
            let parts = gathered.unwrap();
            let flat: Vec<T> = parts.iter().flat_map(|p| p.iter().cloned()).collect();
            let counts: Vec<usize> = parts.iter().map(|p| p.len()).collect();
            let lens = self.bcast(
                0,
                Some(counts.iter().map(|&c| c as u64).collect::<Vec<u64>>()),
            );
            let flat = self.bcast(0, Some(flat));
            split_by(&flat, &lens)
        } else {
            let lens = self.bcast::<u64>(0, None);
            let flat = self.bcast::<T>(0, None);
            split_by(&flat, &lens)
        }
    }

    /// All-to-all: rank `i` sends `send[j]` to rank `j`; returns the
    /// vector received from each rank. This is the pattern of the global
    /// transpose (`MPI_alltoall`).
    ///
    /// # Panics
    /// If a receive fails, as [`recv`](Self::recv) does.
    pub fn alltoall<T: Send + 'static>(&self, send: Vec<Vec<T>>) -> Vec<Vec<T>> {
        self.alltoall_checked(send)
            .unwrap_or_else(|e| panic!("rank {}: alltoall failed: {e}", self.ctx.me))
    }

    /// [`alltoall`](Self::alltoall) returning the first failed receive as
    /// a typed [`CommError`]; the receives after it are not attempted.
    pub fn alltoall_checked<T: Send + 'static>(
        &self,
        send: Vec<Vec<T>>,
    ) -> Result<Vec<Vec<T>>, CommError> {
        const TAG: u64 = u64::MAX - 4;
        assert_eq!(send.len(), self.size());
        for (dest, data) in send.into_iter().enumerate() {
            self.send(dest, TAG, data);
        }
        (0..self.size())
            .map(|src| self.recv_checked::<T>(src, TAG))
            .collect()
    }

    /// Split into disjoint sub-communicators by `color`, ordered by `key`
    /// (ties broken by parent rank) — `MPI_Comm_split`.
    pub fn split(&self, color: u64, key: u64) -> Communicator {
        // collective metadata exchange through rank 0
        let my = vec![(color, key, self.rank as u64)];
        let gathered = self.gather(0, my);
        let table: Vec<(u64, u64, u64)> = if self.rank == 0 {
            let mut t: Vec<(u64, u64, u64)> = gathered.unwrap().into_iter().flatten().collect();
            t.sort();
            self.bcast(0, Some(t))
        } else {
            self.bcast(0, None)
        };
        let split_seq = self.splits.get();
        self.splits.set(split_seq + 1);
        let members: Vec<usize> = table
            .iter()
            .filter(|&&(c, _, _)| c == color)
            .map(|&(_, _, r)| self.members[r as usize])
            .collect();
        let rank = members
            .iter()
            .position(|&w| w == self.ctx.me)
            .expect("caller must belong to its own split");
        Communicator {
            ctx: Rc::clone(&self.ctx),
            id: mix(mix(self.id, split_seq), color),
            members: Arc::new(members),
            rank,
            splits: Cell::new(0),
            stats: Cell::new(CommStats::default()),
        }
    }

    /// Duplicate this communicator with an independent message space.
    pub fn dup(&self) -> Communicator {
        self.split(0, self.rank as u64)
    }
}

/// A Cartesian process grid over a communicator —
/// `MPI_cart_create` + `MPI_cart_sub` for the two-axis pencil grids.
pub struct CartComm {
    /// Grid extents (row-major; the paper's CommA x CommB is `[pa, pb]`).
    pub dims: Vec<usize>,
    /// This rank's coordinates.
    pub coords: Vec<usize>,
    comm: Communicator,
}

impl CartComm {
    /// Create a Cartesian topology; `dims` must multiply to `comm.size()`.
    pub fn new(comm: Communicator, dims: &[usize]) -> Self {
        assert_eq!(
            dims.iter().product::<usize>(),
            comm.size(),
            "grid {dims:?} does not tile {} ranks",
            comm.size()
        );
        let mut rem = comm.rank();
        let mut coords = vec![0; dims.len()];
        for ax in (0..dims.len()).rev() {
            coords[ax] = rem % dims[ax];
            rem /= dims[ax];
        }
        CartComm {
            dims: dims.to_vec(),
            coords,
            comm,
        }
    }

    /// The full communicator of the grid.
    pub fn comm(&self) -> &Communicator {
        &self.comm
    }

    /// Sub-communicator keeping `axis` free and fixing all other
    /// coordinates (`MPI_cart_sub` with one retained dimension). Ranks are
    /// ordered by their coordinate along `axis`.
    pub fn sub(&self, axis: usize) -> Communicator {
        let mut color = 0u64;
        for (ax, (&c, &d)) in self.coords.iter().zip(&self.dims).enumerate() {
            if ax != axis {
                color = color * d as u64 + c as u64;
            }
        }
        self.comm.split(color, self.coords[axis] as u64)
    }
}

/// Per-run transport configuration: the receive budget and the fault
/// plan the run executes under.
#[derive(Clone, Debug)]
pub struct RunOptions {
    /// Budget of every blocking receive before it reports
    /// [`CommError::Timeout`] (panicking callers turn it into a panic).
    pub recv_timeout: Duration,
    /// Faults to inject (empty by default).
    pub fault_plan: FaultPlan,
}

impl Default for RunOptions {
    fn default() -> Self {
        RunOptions {
            recv_timeout: RECV_TIMEOUT,
            fault_plan: FaultPlan::none(),
        }
    }
}

/// One or more ranks panicked during a [`run_result`] execution. Holds
/// the original panic payloads in rank order.
pub struct RunFailure {
    failures: Vec<(usize, Box<dyn Any + Send>)>,
}

impl RunFailure {
    /// World ranks that panicked, in ascending order.
    pub fn ranks(&self) -> Vec<usize> {
        self.failures.iter().map(|&(r, _)| r).collect()
    }

    /// `(rank, panic message)` pairs; non-string payloads are reported
    /// as `"<non-string panic payload>"`.
    pub fn messages(&self) -> Vec<(usize, String)> {
        self.failures
            .iter()
            .map(|(r, p)| {
                let msg = p
                    .downcast_ref::<&'static str>()
                    .map(|s| s.to_string())
                    .or_else(|| p.downcast_ref::<String>().cloned())
                    .unwrap_or_else(|| "<non-string panic payload>".to_string());
                (*r, msg)
            })
            .collect()
    }

    /// Re-raise the first rank's original panic payload.
    pub fn resume(mut self) -> ! {
        let (_, payload) = self.failures.remove(0);
        std::panic::resume_unwind(payload)
    }
}

impl std::fmt::Debug for RunFailure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RunFailure")
            .field("failures", &self.messages())
            .finish()
    }
}

impl std::fmt::Display for RunFailure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{} rank(s) died:", self.failures.len())?;
        for (r, m) in self.messages() {
            write!(f, " [rank {r}: {m}]")?;
        }
        Ok(())
    }
}

/// Panic output from rank threads running under an active fault plan is
/// suppressed (injected crashes are expected, and their messages are
/// reported through [`RunFailure`] anyway). The hook is installed once,
/// process-wide, and delegates to the previous hook for every other
/// thread.
static QUIET_HOOK: Once = Once::new();
thread_local! {
    static QUIET_PANICS: Cell<bool> = const { Cell::new(false) };
}

fn install_quiet_hook() {
    QUIET_HOOK.call_once(|| {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            if !QUIET_PANICS.with(|q| q.get()) {
                prev(info);
            }
        }));
    });
}

/// The world: spawns `n` rank threads running `f` and collects their
/// return values in rank order.
///
/// # Panics
/// Propagates the first rank panic after all threads finish.
pub fn run<R, F>(n: usize, f: F) -> Vec<R>
where
    R: Send + 'static,
    F: Fn(Communicator) -> R + Send + Sync + 'static,
{
    match run_result(n, RunOptions::default(), f) {
        Ok(results) => results,
        Err(failure) => failure.resume(),
    }
}

/// [`run`] with explicit [`RunOptions`] and typed failure reporting: rank
/// panics (a fault plan's injected crashes, or real bugs) are caught,
/// recorded per rank, and returned as a [`RunFailure`] after every
/// thread has finished — the primitive a restart supervisor loops over.
///
/// When a rank dies, peers blocked on it observe [`CommError::RankDead`]
/// within milliseconds (panicking in turn unless they use the checked
/// receives), so a single injected crash winds down the whole world
/// quickly instead of serialising timeouts.
pub fn run_result<R, F>(n: usize, opts: RunOptions, f: F) -> Result<Vec<R>, RunFailure>
where
    R: Send + 'static,
    F: Fn(Communicator) -> R + Send + Sync + 'static,
{
    assert!(n >= 1);
    let quiet = !opts.fault_plan.is_empty();
    if quiet {
        install_quiet_hook();
    }
    let mut senders = Vec::with_capacity(n);
    let mut receivers = Vec::with_capacity(n);
    for _ in 0..n {
        let (s, r) = unbounded();
        senders.push(s);
        receivers.push(r);
    }
    let mesh = Arc::new(Mesh {
        senders,
        alive: (0..n).map(|_| AtomicBool::new(true)).collect(),
    });
    let f = Arc::new(f);
    let members: Arc<Vec<usize>> = Arc::new((0..n).collect());
    let mut handles = Vec::with_capacity(n);
    for (me, inbox) in receivers.into_iter().enumerate() {
        let mesh = Arc::clone(&mesh);
        let f = Arc::clone(&f);
        let members = Arc::clone(&members);
        let faults = opts.fault_plan.for_rank(me);
        let recv_timeout = opts.recv_timeout;
        handles.push(
            std::thread::Builder::new()
                .name(format!("rank-{me}"))
                .stack_size(8 * 1024 * 1024)
                .spawn(move || {
                    QUIET_PANICS.with(|q| q.set(quiet));
                    // Bind this thread to its rank's telemetry timeline;
                    // the guard flushes the thread's spans/counters into
                    // the global registry when the rank closure returns.
                    let _telemetry = telemetry::rank_scope(me);
                    let liveness = Arc::clone(&mesh);
                    let ctx = Rc::new(RankCtx {
                        me,
                        mesh,
                        inbox,
                        pending: RefCell::new(HashMap::new()),
                        recv_timeout,
                        faults,
                        recv_wait: Cell::new(0.0),
                    });
                    let world = Communicator {
                        ctx,
                        id: 0,
                        members,
                        rank: me,
                        splits: Cell::new(0),
                        stats: Cell::new(CommStats::default()),
                    };
                    let out = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| f(world)));
                    if out.is_err() {
                        // publish the death before the payload travels
                        // back, so peers polling the flag fail fast
                        liveness.alive[me].store(false, Ordering::Release);
                    }
                    out
                })
                .expect("spawn rank thread"),
        );
    }
    let mut results = Vec::with_capacity(n);
    let mut failures: Vec<(usize, Box<dyn Any + Send>)> = Vec::new();
    for (rank, h) in handles.into_iter().enumerate() {
        match h.join() {
            Ok(Ok(r)) => results.push(r),
            Ok(Err(payload)) => failures.push((rank, payload)),
            // the thread died outside catch_unwind (e.g. stack overflow
            // aborts don't reach here; a join error still must not hang)
            Err(payload) => failures.push((rank, payload)),
        }
    }
    if failures.is_empty() {
        Ok(results)
    } else {
        Err(RunFailure { failures })
    }
}

fn split_by<T: Clone>(flat: &[T], lens: &[u64]) -> Vec<Vec<T>> {
    let mut out = Vec::with_capacity(lens.len());
    let mut off = 0usize;
    for &l in lens {
        let l = l as usize;
        out.push(flat[off..off + l].to_vec());
        off += l;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ranks_and_sizes() {
        let got = run(4, |comm| (comm.rank(), comm.size()));
        assert_eq!(got, vec![(0, 4), (1, 4), (2, 4), (3, 4)]);
    }

    #[test]
    fn point_to_point_ring() {
        let got = run(5, |comm| {
            let next = (comm.rank() + 1) % comm.size();
            let prev = (comm.rank() + comm.size() - 1) % comm.size();
            comm.send(next, 7, vec![comm.rank() as u64]);
            comm.recv::<u64>(prev, 7)[0]
        });
        assert_eq!(got, vec![4, 0, 1, 2, 3]);
    }

    #[test]
    fn self_send_is_delivered() {
        let got = run(2, |comm| {
            comm.send(comm.rank(), 1, vec![41.0_f64, 1.0]);
            let v: Vec<f64> = comm.recv(comm.rank(), 1);
            v.iter().sum::<f64>()
        });
        assert_eq!(got, vec![42.0, 42.0]);
    }

    #[test]
    fn tags_demultiplex_out_of_order() {
        let got = run(2, |comm| {
            if comm.rank() == 0 {
                comm.send(1, 10, vec![1u32]);
                comm.send(1, 20, vec![2u32]);
                0
            } else {
                // receive in the opposite order of sending
                let b: Vec<u32> = comm.recv(0, 20);
                let a: Vec<u32> = comm.recv(0, 10);
                (b[0] * 10 + a[0]) as i32
            }
        });
        assert_eq!(got[1], 21);
    }

    #[test]
    fn barrier_and_allreduce() {
        let got = run(6, |comm| {
            comm.barrier();
            comm.allreduce_sum(comm.rank() as f64)
        });
        assert!(got.iter().all(|&s| s == 15.0));
        // a world of one returns its own data and sends nothing
        let alone = run(1, |comm| {
            let reduced = comm.allreduce(&[2.5, -1.0], f64::max);
            (reduced, comm.stats().messages_sent)
        });
        assert_eq!(alone, [(vec![2.5, -1.0], 0)]);
    }

    #[test]
    fn bcast_and_gather() {
        let got = run(3, |comm| {
            let data = if comm.rank() == 1 {
                Some(vec![3.5f64, 4.5])
            } else {
                None
            };
            let v = comm.bcast(1, data);
            let g = comm.gather(0, vec![comm.rank() as u64]);
            (v[1], g.map(|rows| rows.concat()))
        });
        assert_eq!(got[0].0, 4.5);
        assert_eq!(got[0].1, Some(vec![0, 1, 2]));
        assert_eq!(got[2].1, None);
    }

    #[test]
    fn alltoall_transposes_rank_data() {
        let got = run(4, |comm| {
            let send: Vec<Vec<u64>> = (0..4)
                .map(|dest| vec![(comm.rank() * 10 + dest) as u64])
                .collect();
            let recv = comm.alltoall(send);
            recv.into_iter().map(|v| v[0]).collect::<Vec<_>>()
        });
        // rank r receives src*10 + r from each src
        for (r, row) in got.iter().enumerate() {
            let want: Vec<u64> = (0..4).map(|src| (src * 10 + r) as u64).collect();
            assert_eq!(row, &want);
        }
    }

    #[test]
    fn split_forms_disjoint_groups() {
        let got = run(6, |comm| {
            let color = (comm.rank() % 2) as u64;
            let sub = comm.split(color, comm.rank() as u64);
            let total = sub.allreduce_sum(comm.rank() as f64);
            (sub.size(), total)
        });
        // evens: 0+2+4 = 6; odds: 1+3+5 = 9
        for (r, &(sz, total)) in got.iter().enumerate() {
            assert_eq!(sz, 3);
            assert_eq!(total, if r % 2 == 0 { 6.0 } else { 9.0 });
        }
    }

    #[test]
    fn cartesian_sub_communicators_match_paper_topology() {
        // 8 ranks as a 4 x 2 grid: CommA spans axis 0 (size 4),
        // CommB spans axis 1 (size 2) — figure 4's pattern.
        let got = run(8, |comm| {
            let cart = CartComm::new(comm, &[4, 2]);
            let comm_a = cart.sub(0);
            let comm_b = cart.sub(1);
            (
                cart.coords.clone(),
                comm_a.size(),
                comm_b.size(),
                comm_a.allreduce_sum(1.0),
                comm_b.allreduce_sum(1.0),
            )
        });
        for (r, (coords, sa, sb, na, nb)) in got.iter().enumerate() {
            assert_eq!(coords, &vec![r / 2, r % 2]);
            assert_eq!((*sa, *sb), (4, 2));
            assert_eq!((*na, *nb), (4.0, 2.0));
        }
    }

    #[test]
    fn allgather_orders_by_rank() {
        let got = run(4, |comm| {
            comm.allgather(vec![comm.rank() as u8; comm.rank() + 1])
        });
        for rows in got {
            assert_eq!(rows.len(), 4);
            for (r, row) in rows.iter().enumerate() {
                assert_eq!(row, &vec![r as u8; r + 1]);
            }
        }
        // a world of one gets its own row back and sends nothing
        let alone = run(1, |comm| {
            (comm.allgather(vec![7u8, 9]), comm.stats().messages_sent)
        });
        assert_eq!(alone, [(vec![vec![7, 9]], 0)]);
    }

    #[test]
    fn stats_count_messages_and_bytes() {
        let got = run(2, |comm| {
            comm.send(1 - comm.rank(), 3, vec![0f64; 100]);
            let _: Vec<f64> = comm.recv(1 - comm.rank(), 3);
            comm.stats()
        });
        for s in got {
            assert_eq!(s.messages_sent, 1);
            assert_eq!(s.bytes_sent, 800);
            assert_eq!(s.messages_recvd, 1);
            assert_eq!(s.bytes_recvd, 800);
        }
    }

    #[test]
    fn self_sends_stay_out_of_stats() {
        let got = run(2, |comm| {
            comm.send(comm.rank(), 11, vec![1u64; 50]);
            let _: Vec<u64> = comm.recv(comm.rank(), 11);
            comm.stats()
        });
        for s in got {
            assert_eq!(s, CommStats::default());
        }
    }

    #[test]
    fn send_recv_ring_counts_both_directions() {
        let got = run(4, |comm| {
            let next = (comm.rank() + 1) % comm.size();
            let prev = (comm.rank() + comm.size() - 1) % comm.size();
            comm.send(next, 5, vec![0u32; 16]);
            let _: Vec<u32> = comm.recv(prev, 5);
            comm.stats()
        });
        for s in got {
            assert_eq!((s.messages_sent, s.bytes_sent), (1, 64));
            assert_eq!((s.messages_recvd, s.bytes_recvd), (1, 64));
        }
    }

    #[test]
    fn alltoall_counts_exclude_the_self_block() {
        let got = run(3, |comm| {
            // rank r sends `d + 1` one-byte elements to each dest d
            let send: Vec<Vec<u8>> = (0..3).map(|d| vec![comm.rank() as u8; d + 1]).collect();
            let _ = comm.alltoall(send);
            comm.stats()
        });
        for (r, s) in got.iter().enumerate() {
            // two remote destinations and two remote sources
            assert_eq!(s.messages_sent, 2);
            assert_eq!(s.messages_recvd, 2);
            let sent: usize = (0..3).filter(|&d| d != r).map(|d| d + 1).sum();
            assert_eq!(s.bytes_sent, sent as u64);
            assert_eq!(s.bytes_recvd, (2 * (r + 1)) as u64);
        }
    }

    #[test]
    fn gather_counts_land_at_the_root() {
        let got = run(4, |comm| {
            let r = comm.rank();
            let _ = comm.gather(0, vec![0u64; r + 1]);
            comm.stats()
        });
        // root sends nothing, receives ranks 1..=3 (8*(2+3+4) bytes)
        assert_eq!(got[0].messages_sent, 0);
        assert_eq!(got[0].messages_recvd, 3);
        assert_eq!(got[0].bytes_recvd, 8 * (2 + 3 + 4));
        for (r, s) in got.iter().enumerate().skip(1) {
            assert_eq!((s.messages_sent, s.messages_recvd), (1, 0));
            assert_eq!(s.bytes_sent, 8 * (r as u64 + 1));
        }
    }

    #[test]
    fn rank_threads_register_telemetry_tracks() {
        telemetry::set_level(telemetry::Level::Phases);
        let _ = run(4, |comm| {
            let _s = telemetry::span("minimpi_itest_span", telemetry::Phase::Other);
            comm.barrier();
        });
        telemetry::set_level(telemetry::Level::Off);
        let snap = telemetry::snapshot();
        // other tests may run concurrently while the level is on, so only
        // assert on spans this test created (nothing else names them)
        let tracks_with_span: Vec<usize> = snap
            .ranks
            .iter()
            .filter(|t| t.spans.iter().any(|s| s.name == "minimpi_itest_span"))
            .map(|t| t.rank.expect("span must be on a ranked track"))
            .collect();
        for r in 0..4 {
            assert!(tracks_with_span.contains(&r), "missing rank {r} track");
        }
        // barrier traffic lands on the typed counters
        let totals = snap.total_counters();
        assert!(totals.get(telemetry::Counter::MessagesSent) > 0);
        assert!(totals.get(telemetry::Counter::MessagesRecvd) > 0);
    }

    #[test]
    fn message_storm_is_delivered_in_order_per_channel() {
        // every rank fires 200 messages at every other rank across 4
        // interleaved tags; ordering must hold per (src, tag) stream
        let got = run(4, |comm| {
            let p = comm.size();
            for dest in 0..p {
                if dest == comm.rank() {
                    continue;
                }
                for i in 0..200u64 {
                    comm.send(dest, i % 4, vec![i]);
                }
            }
            let mut ok = true;
            for src in 0..p {
                if src == comm.rank() {
                    continue;
                }
                for tag in 0..4u64 {
                    let mut expect = tag;
                    for _ in 0..50 {
                        let v: Vec<u64> = comm.recv(src, tag);
                        if v[0] != expect {
                            ok = false;
                        }
                        expect += 4;
                    }
                }
            }
            ok
        });
        assert!(got.into_iter().all(|x| x));
    }

    #[test]
    fn nested_splits_stay_isolated() {
        // split twice and verify message spaces do not collide
        let got = run(8, |comm| {
            let half = comm.split((comm.rank() / 4) as u64, comm.rank() as u64);
            let quarter = half.split((half.rank() / 2) as u64, half.rank() as u64);
            // identical tags on all three communicators simultaneously
            let t = 5u64;
            comm.send(comm.rank(), t, vec![1u8]);
            half.send(half.rank(), t, vec![2u8]);
            quarter.send(quarter.rank(), t, vec![3u8]);
            let a: Vec<u8> = comm.recv(comm.rank(), t);
            let b: Vec<u8> = half.recv(half.rank(), t);
            let c: Vec<u8> = quarter.recv(quarter.rank(), t);
            (a[0], b[0], c[0]) == (1, 2, 3)
        });
        assert!(got.into_iter().all(|x| x));
    }

    #[test]
    fn recv_wait_accumulates_blocked_time() {
        let got = run(2, |comm| {
            if comm.rank() == 0 {
                let before = comm.recv_wait_seconds();
                assert_eq!(before, 0.0);
                // rank 1 sends only after ~30 ms, so this receive blocks
                let _: Vec<u8> = comm.recv(1, 4);
                comm.recv_wait_seconds()
            } else {
                std::thread::sleep(Duration::from_millis(30));
                comm.send(0, 4, vec![1u8]);
                // sends never block: no wait accumulates
                comm.recv_wait_seconds()
            }
        });
        assert!(
            got[0] > 0.02,
            "rank 0 blocked ~30ms but recorded {} s of wait",
            got[0]
        );
        assert_eq!(got[1], 0.0, "sender must not accumulate recv wait");
    }

    #[test]
    fn recv_checked_times_out_with_typed_error() {
        let opts = RunOptions {
            recv_timeout: Duration::from_millis(50),
            fault_plan: FaultPlan::none(),
        };
        let got = run_result(2, opts, |comm| {
            if comm.rank() == 0 {
                // nobody ever sends on this tag
                match comm.recv_checked::<u8>(1, 99) {
                    Err(CommError::Timeout {
                        src: 1, tag: 99, ..
                    }) => true,
                    other => panic!("expected timeout, got {other:?}"),
                }
            } else {
                true
            }
        })
        .expect("no crash scheduled");
        assert!(got.into_iter().all(|x| x));
    }

    #[test]
    fn injected_crash_is_reported_not_hung() {
        let opts = RunOptions {
            recv_timeout: Duration::from_secs(5),
            fault_plan: FaultPlan::none().crash_at_op(1, 0),
        };
        let out = run_result(3, opts, |comm| {
            // rank 1 crashes on its first transport op; everyone else
            // should finish (rank 0's recv from 1 fails fast as RankDead)
            if comm.rank() == 0 {
                match comm.recv_checked::<u8>(1, 7) {
                    Err(CommError::RankDead { src: 1, .. }) => (),
                    other => panic!("expected RankDead, got {other:?}"),
                }
            } else {
                comm.send(0, 7, vec![comm.rank() as u8]);
            }
            comm.rank()
        });
        let failure = out.expect_err("rank 1 should have died");
        assert_eq!(failure.ranks(), vec![1]);
        let msgs = failure.messages();
        assert!(
            msgs[0].1.contains("injected fault: rank 1"),
            "unexpected panic message: {}",
            msgs[0].1
        );
    }

    #[test]
    fn dropped_message_never_arrives_but_later_sends_do() {
        // rank 1's first send (op 0) is dropped; its second send on a
        // different tag gets through
        let opts = RunOptions {
            recv_timeout: Duration::from_millis(250),
            fault_plan: FaultPlan::none().drop_at_op(1, 0),
        };
        let got = run_result(2, opts, |comm| {
            if comm.rank() == 1 {
                comm.send(0, 1, vec![11u8]); // dropped
                comm.send(0, 2, vec![22u8]); // delivered
                true
            } else {
                let second: Vec<u8> = comm.recv(1, 2);
                let first = comm.recv_checked::<u8>(1, 1);
                second == vec![22] && matches!(first, Err(CommError::Timeout { .. }))
            }
        })
        .expect("no crash scheduled");
        assert!(got.into_iter().all(|x| x));
    }

    #[test]
    fn delays_preserve_semantics() {
        let opts = RunOptions {
            recv_timeout: Duration::from_secs(5),
            fault_plan: FaultPlan::seeded(3, 4, 64)
                .op_events()
                .iter()
                .filter(|e| e.kind != FaultKind::Crash)
                .fold(FaultPlan::none(), |p, e| match e.kind {
                    FaultKind::Delay(d) => p.delay_at_op(e.rank, e.op, d),
                    _ => p,
                }),
        };
        let got = run_result(4, opts, |comm| {
            let all = comm.gather(0, vec![comm.rank() as u64]);
            let total = all.map(|chunks| chunks.into_iter().flatten().sum::<u64>());
            let sum: Vec<u64> = comm.bcast(0, total.map(|t| vec![t]));
            sum[0]
        })
        .expect("delays must not kill ranks");
        assert_eq!(got, vec![6, 6, 6, 6]);
    }

    #[test]
    fn step_crash_fires_via_poll() {
        let opts = RunOptions {
            recv_timeout: Duration::from_secs(5),
            fault_plan: FaultPlan::none().crash_at_step(2, 4),
        };
        let out = run_result(3, opts, |comm| {
            for step in 0..8u64 {
                comm.poll_step_faults(step);
            }
            comm.rank()
        });
        let failure = out.expect_err("rank 2 should crash at step 4");
        assert_eq!(failure.ranks(), vec![2]);
        assert!(failure.messages()[0].1.contains("crashed at step 4"));
    }

    #[test]
    fn retries_and_faults_are_counted() {
        telemetry::set_level(telemetry::Level::Phases);
        telemetry::reset();
        let opts = RunOptions {
            recv_timeout: Duration::from_secs(5),
            fault_plan: FaultPlan::none().delay_at_op(0, 0, Duration::from_micros(1)),
        };
        run_result(2, opts, |comm| {
            if comm.rank() == 0 {
                comm.send(1, 3, vec![1u8]); // delayed (fault injected)
            } else {
                let _: Vec<u8> = comm.recv(0, 3);
            }
        })
        .unwrap();
        let faults = telemetry::snapshot()
            .total_counters()
            .get(telemetry::Counter::FaultsInjected);
        telemetry::set_level(telemetry::Level::Off);
        telemetry::reset();
        assert!(faults >= 1, "expected at least one injected fault counted");
    }
}
