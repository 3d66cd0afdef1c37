//! Unified span/counter telemetry for the DNS stack.
//!
//! The paper's argument (Tables 2–11) rests on per-phase accounting of the
//! RK3 timestep: transpose, FFT, and wall-normal N-S advance. This crate is
//! the shared measurement substrate for that accounting across every crate
//! in the workspace:
//!
//! * **RAII scoped spans** ([`span`]) tagged with a [`Phase`], recorded
//!   per thread and merged into a global registry keyed by minimpi rank.
//! * **One phase clock**: a [`region`] closed on a rank's [`PhaseClock`]
//!   books its seconds into one [`PhaseSeconds`] at every level and, at
//!   [`Level::Phases`], is also the span of the same duration.
//! * **Typed counters** ([`Counter`], [`count`]) for flops, DDR traffic,
//!   and message/byte totals — the software analogue of the HPM counters
//!   behind the paper's Table 2.
//! * **Exporters** ([`Snapshot`]): a human phase table, CSV, JSON, and the
//!   Chrome trace-event format (loadable in Perfetto / `chrome://tracing`)
//!   with one timeline track per rank.
//!
//! Collection is off by default. The fast path when disabled is a single
//! relaxed atomic load per call site, so instrumented hot loops cost
//! effectively nothing until [`set_level`] switches collection on:
//!
//! ```
//! use dns_telemetry as telemetry;
//!
//! telemetry::reset();
//! telemetry::set_level(telemetry::Level::Phases);
//! {
//!     let _s = telemetry::span("transpose_xz", telemetry::Phase::Transpose);
//!     telemetry::count(telemetry::Counter::CommBytes, 4096);
//! }
//! let snap = telemetry::snapshot();
//! assert_eq!(snap.total_counters().get(telemetry::Counter::CommBytes), 4096);
//! telemetry::set_level(telemetry::Level::Off);
//! ```

mod export;
mod hist;
pub mod prom;

pub use export::{counts_json, CountsMeta, PhaseSeconds, COUNTS_SCHEMA_VERSION};
pub use hist::{fmt_seconds, Histogram};

use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::{LazyLock, Mutex, OnceLock};
use std::time::{Duration, Instant};

/// How much the stack records.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
#[repr(u8)]
pub enum Level {
    /// Record nothing; instrumented call sites cost one atomic load.
    Off = 0,
    /// Record counters only: what a long-lived host (the campaign daemon)
    /// can leave on for ever, since counters are fixed-size while spans and
    /// decisions grow with every step and launch of every job. With no
    /// span open, [`count`] attributes to [`Phase::Other`].
    Counters = 1,
    /// Record spans, decisions and counters (the default when profiling).
    Phases = 2,
}

/// Phase taxonomy of the RK3 substep: the columns of the paper's
/// Tables 9-10, measured and modelled alike ([`PhaseSeconds`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
#[repr(usize)]
pub enum Phase {
    /// Global transposes: pack + exchange + unpack.
    Transpose = 0,
    /// On-node Fourier transforms (and their fused dealiasing passes).
    Fft = 1,
    /// Wall-normal Navier-Stokes advance: banded solves, influence matrix.
    NsAdvance = 2,
    /// Everything else (setup, statistics, I/O).
    Other = 3,
}

/// Number of [`Phase`] variants (array-table sizing).
pub const NUM_PHASES: usize = 4;

impl Phase {
    pub const ALL: [Phase; NUM_PHASES] =
        [Phase::Transpose, Phase::Fft, Phase::NsAdvance, Phase::Other];

    pub fn label(self) -> &'static str {
        match self {
            Phase::Transpose => "transpose",
            Phase::Fft => "fft",
            Phase::NsAdvance => "ns_advance",
            Phase::Other => "other",
        }
    }
}

/// Typed event counters, unifying `minimpi::CommStats` and the pencil
/// byte/message accounting under one merge-able set.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
#[repr(usize)]
pub enum Counter {
    /// Floating-point operations executed (FFT butterflies, solves).
    Flops = 0,
    /// Bytes moved through main memory by pack/unpack/reorder loops.
    DdrBytes = 1,
    /// Point-to-point messages sent (self-sends excluded, as in minimpi).
    MessagesSent = 2,
    /// Payload bytes sent.
    CommBytes = 3,
    /// Point-to-point messages received.
    MessagesRecvd = 4,
    /// Payload bytes received.
    BytesRecvd = 5,
    /// Receive polls that timed out a backoff slice and retried
    /// (transport-hardening visibility: a healthy run stays near zero).
    RecvRetries = 6,
    /// Faults injected by an active `minimpi` fault plan (delays, drops,
    /// crashes).
    FaultsInjected = 7,
    /// Supervisor-level restarts after a rank failure.
    Restarts = 8,
    /// Microseconds spent blocked in transpose exchange receives —
    /// the per-rank wait share that the run-health imbalance report
    /// splits out from busy time.
    ExchangeWaitUs = 9,
    /// Right-hand sides carried through banded solves, counting each
    /// column of a multi-RHS panel once (scalar solves count 1), so the
    /// batched and scalar implicit paths are directly comparable.
    SolveRhs = 10,
    /// Multi-RHS panel sweeps executed by the batched banded solver; the
    /// ratio `SolveRhs / SolvePanels` is the achieved mean panel width.
    SolvePanels = 11,
    /// Retired with the pipelined x-stage and the request layer: this
    /// and the next two have no producer and read 0; the names stay until
    /// the next counts-schema bump because v5 exports carry them.
    ExchangeOverlapUs = 12,
    /// Retired, see [`Counter::ExchangeOverlapUs`].
    RequestsPosted = 13,
    /// Retired, see [`Counter::ExchangeOverlapUs`].
    RequestsCompleted = 14,
    /// Simulation jobs accepted into the campaign server's queue.
    JobsSubmitted = 15,
    /// Running jobs checkpointed and descheduled to free cores for a
    /// higher-priority submission (or a drain).
    JobsPreempted = 16,
    /// Preempted jobs relaunched from their checkpoint manifest.
    JobsResumed = 17,
    /// Microseconds jobs spent queued (or parked preempted) before a
    /// launch handed them cores — the campaign server's analogue of the
    /// per-rank `ExchangeWaitUs` blocked time.
    QueueWaitUs = 18,
    /// Plane-statistics samples folded into a run's time-averaged
    /// turbulence-statistics accumulator (each is one collective
    /// `profiles` reduction; the validation gate checks the window was
    /// actually collected, not silently skipped).
    StatsSamples = 19,
}

/// Number of [`Counter`] variants (array-table sizing).
pub const NUM_COUNTERS: usize = 20;

impl Counter {
    pub const ALL: [Counter; NUM_COUNTERS] = [
        Counter::Flops,
        Counter::DdrBytes,
        Counter::MessagesSent,
        Counter::CommBytes,
        Counter::MessagesRecvd,
        Counter::BytesRecvd,
        Counter::RecvRetries,
        Counter::FaultsInjected,
        Counter::Restarts,
        Counter::ExchangeWaitUs,
        Counter::SolveRhs,
        Counter::SolvePanels,
        Counter::ExchangeOverlapUs,
        Counter::RequestsPosted,
        Counter::RequestsCompleted,
        Counter::JobsSubmitted,
        Counter::JobsPreempted,
        Counter::JobsResumed,
        Counter::QueueWaitUs,
        Counter::StatsSamples,
    ];

    pub fn label(self) -> &'static str {
        match self {
            Counter::Flops => "flops",
            Counter::DdrBytes => "ddr_bytes",
            Counter::MessagesSent => "messages_sent",
            Counter::CommBytes => "comm_bytes",
            Counter::MessagesRecvd => "messages_recvd",
            Counter::BytesRecvd => "bytes_recvd",
            Counter::RecvRetries => "recv_retries",
            Counter::FaultsInjected => "faults_injected",
            Counter::Restarts => "restarts",
            Counter::ExchangeWaitUs => "exchange_wait_us",
            Counter::SolveRhs => "solve_rhs",
            Counter::SolvePanels => "solve_panels",
            Counter::ExchangeOverlapUs => "exchange_overlap_us",
            Counter::RequestsPosted => "requests_posted",
            Counter::RequestsCompleted => "requests_completed",
            Counter::JobsSubmitted => "jobs_submitted",
            Counter::JobsPreempted => "jobs_preempted",
            Counter::JobsResumed => "jobs_resumed",
            Counter::QueueWaitUs => "queue_wait_us",
            Counter::StatsSamples => "stats_samples",
        }
    }
}

/// A fixed table of counter totals. Merging is element-wise addition, so
/// it is associative and commutative — rank-local sets can be combined in
/// any order and grouping without changing the result.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CounterSet {
    vals: [u64; NUM_COUNTERS],
}

impl CounterSet {
    pub fn new() -> Self {
        Self::default()
    }

    pub fn add(&mut self, counter: Counter, n: u64) {
        self.vals[counter as usize] = self.vals[counter as usize].wrapping_add(n);
    }

    pub fn get(&self, counter: Counter) -> u64 {
        self.vals[counter as usize]
    }

    /// Element-wise sum with `other`.
    pub fn merge(&mut self, other: &CounterSet) {
        for (a, b) in self.vals.iter_mut().zip(&other.vals) {
            *a = a.wrapping_add(*b);
        }
    }

    pub fn is_zero(&self) -> bool {
        self.vals.iter().all(|&v| v == 0)
    }
}

/// One completed span, in microseconds relative to the process epoch.
#[derive(Clone, Debug)]
pub struct SpanRecord {
    pub name: &'static str,
    pub phase: Phase,
    /// Start, µs since the telemetry epoch.
    pub start_us: f64,
    /// Duration in µs.
    pub dur_us: f64,
    /// Nesting depth at which this span ran (0 = top level on its thread).
    pub depth: u16,
}

/// One planning decision worth surfacing in reports, e.g. how many
/// factor blocks the wall-normal set-up built and what they cost.
#[derive(Clone, Debug)]
pub struct Decision {
    pub topic: &'static str,
    pub text: String,
}

/// Per-thread buffers are capped so a forgotten `Phases`-level run cannot
/// grow without bound; drops beyond the cap are counted, not silent.
const SPAN_CAP: usize = 1 << 20;

// ---------------------------------------------------------------------------
// global state
// ---------------------------------------------------------------------------

static LEVEL: AtomicU8 = AtomicU8::new(Level::Off as u8);
static EPOCH: OnceLock<Instant> = OnceLock::new();

/// Rank key for threads that never registered a rank (the driver thread
/// in serial runs).
const UNRANKED: i64 = -1;

#[derive(Clone, Default)]
struct RankData {
    spans: Vec<SpanRecord>,
    counters: CounterSet,
    /// Counter totals keyed by the phase they were attributed to
    /// ([`count`] uses the innermost open span's phase; [`count_phase`]
    /// names it explicitly). Element-wise `counters == sum(by_phase)`.
    by_phase: [CounterSet; NUM_PHASES],
    decisions: Vec<Decision>,
    dropped: u64,
}

static REGISTRY: LazyLock<Mutex<BTreeMap<i64, RankData>>> =
    LazyLock::new(|| Mutex::new(BTreeMap::new()));

/// Tenant-keyed counter totals. Unlike the rank registry this is written
/// directly (no thread-local buffering): tenant attribution happens at
/// campaign-server cadence (job submits, starts, preemptions), not in
/// numerical hot loops, so a mutex per event is fine.
static TENANTS: LazyLock<Mutex<BTreeMap<String, CounterSet>>> =
    LazyLock::new(|| Mutex::new(BTreeMap::new()));

struct ThreadBuf {
    rank: Option<usize>,
    depth: u16,
    /// Phases of the currently open spans on this thread, innermost
    /// last; [`count`] attributes counters to the top of this stack.
    phase_stack: Vec<Phase>,
    data: RankData,
}

impl Drop for ThreadBuf {
    // Short-lived worker threads (the on-node FFT line pools) record
    // counters without ever entering a rank scope; deposit whatever they
    // buffered when the thread exits so nothing is silently lost.
    fn drop(&mut self) {
        let key = self.rank.map(|r| r as i64).unwrap_or(UNRANKED);
        deposit(key, std::mem::take(&mut self.data));
    }
}

thread_local! {
    static BUF: RefCell<ThreadBuf> = RefCell::new(ThreadBuf {
        rank: None,
        depth: 0,
        phase_stack: Vec::new(),
        data: RankData::default(),
    });
}

fn epoch() -> Instant {
    *EPOCH.get_or_init(Instant::now)
}

/// Switch collection on or off. Setting any level other than `Off` also
/// pins the epoch, so timestamps in a session share one origin.
pub fn set_level(level: Level) {
    if level != Level::Off {
        let _ = epoch();
    }
    LEVEL.store(level as u8, Ordering::Relaxed);
}

pub fn level() -> Level {
    match LEVEL.load(Ordering::Relaxed) {
        0 => Level::Off,
        1 => Level::Counters,
        _ => Level::Phases,
    }
}

/// Cheapest possible "is anything recording?" check — the disabled fast
/// path of every instrumented call site.
#[inline(always)]
pub fn enabled() -> bool {
    LEVEL.load(Ordering::Relaxed) != Level::Off as u8
}

// ---------------------------------------------------------------------------
// spans
// ---------------------------------------------------------------------------

/// RAII guard for a scoped span; records itself on drop.
#[must_use = "a span guard measures the scope it is bound to"]
pub struct Span {
    name: &'static str,
    phase: Phase,
    /// `None` while collection is below [`Level::Phases`].
    start: Option<Instant>,
}

/// Open a phase-level span. Near-free when collection is [`Level::Off`].
#[inline]
pub fn span(name: &'static str, phase: Phase) -> Span {
    if LEVEL.load(Ordering::Relaxed) < Level::Phases as u8 {
        return Span {
            name,
            phase,
            start: None,
        };
    }
    open_span(name, phase)
}

#[cold]
fn open_span(name: &'static str, phase: Phase) -> Span {
    BUF.with(|b| {
        let mut b = b.borrow_mut();
        b.depth += 1;
        b.phase_stack.push(phase);
    });
    Span {
        name,
        phase,
        start: Some(Instant::now()),
    }
}

impl Span {
    /// Record the span as lasting `dur` from its start (once).
    fn finish(&mut self, dur: Duration) {
        let Some(start) = self.start.take() else {
            return;
        };
        let start_us = start.saturating_duration_since(epoch()).as_secs_f64() * 1e6;
        BUF.with(|b| {
            let mut b = b.borrow_mut();
            b.depth = b.depth.saturating_sub(1);
            b.phase_stack.pop();
            let depth = b.depth;
            if b.data.spans.len() < SPAN_CAP {
                b.data.spans.push(SpanRecord {
                    name: self.name,
                    phase: self.phase,
                    start_us,
                    dur_us: dur.as_secs_f64() * 1e6,
                    depth,
                });
            } else {
                b.data.dropped += 1;
            }
        });
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        if let Some(start) = self.start {
            self.finish(start.elapsed());
        }
    }
}

// ---------------------------------------------------------------------------
// the phase clock
// ---------------------------------------------------------------------------

/// A rank's always-on phase accumulator: the seconds of every [`Region`]
/// closed on it, per phase.
pub type PhaseClock = Cell<PhaseSeconds>;

/// An open phase region: one [`Instant`] read at [`region`], one at
/// [`Region::close`]. It holds no borrow, so a region can enclose calls
/// that take the clock's owner by `&mut`.
#[must_use = "a region is booked only when closed on a PhaseClock"]
pub struct Region {
    span: Span,
    start: Instant,
}

/// Open a region of `phase`; see [`Region::close`].
#[inline]
pub fn region(name: &'static str, phase: Phase) -> Region {
    let span = span(name, phase);
    Region {
        start: span.start.unwrap_or_else(Instant::now),
        span,
    }
}

impl Region {
    /// Book the region's seconds on `clock`, at every level; at
    /// [`Level::Phases`] it is also the span of exactly those seconds.
    pub fn close(mut self, clock: &PhaseClock) {
        let dur = self.start.elapsed();
        let mut s = clock.get();
        s[self.span.phase] += dur.as_secs_f64();
        clock.set(s);
        self.span.finish(dur);
    }
}

// ---------------------------------------------------------------------------
// counters and decisions
// ---------------------------------------------------------------------------

/// Accumulate `n` onto a typed counter for the current thread,
/// attributed to the phase of the innermost open span (or
/// [`Phase::Other`] when no span is open — e.g. thread-pool workers,
/// which should prefer [`count_phase`]).
#[inline]
pub fn count(counter: Counter, n: u64) {
    if !enabled() {
        return;
    }
    BUF.with(|b| {
        let mut b = b.borrow_mut();
        let phase = b.phase_stack.last().copied().unwrap_or(Phase::Other);
        b.data.counters.add(counter, n);
        b.data.by_phase[phase as usize].add(counter, n);
    });
}

/// Accumulate `n` onto a typed counter with an explicit phase
/// attribution. Kernel crates whose work can run on pool threads with
/// no span open (FFT lines, banded panel blocks) use this so their
/// counts land on the right phase regardless of which thread executes
/// them.
#[inline]
pub fn count_phase(phase: Phase, counter: Counter, n: u64) {
    if !enabled() {
        return;
    }
    BUF.with(|b| {
        let mut b = b.borrow_mut();
        b.data.counters.add(counter, n);
        b.data.by_phase[phase as usize].add(counter, n);
    });
}

/// Accumulate `n` onto a typed counter attributed to a **tenant** (the
/// campaign server's per-owner accounting axis, orthogonal to the rank
/// axis). Tenant counters appear in [`Snapshot::tenants`], in the
/// [`counts_json`] `"tenants"` block (schema v4), and as
/// `tenant="…"`-labelled series in the Prometheus rendering.
pub fn count_tenant(tenant: &str, counter: Counter, n: u64) {
    if !enabled() {
        return;
    }
    let mut map = TENANTS.lock().unwrap();
    map.entry(tenant.to_string()).or_default().add(counter, n);
}

/// Record a planning decision (e.g. `wallnormal.plan`: "62 panel blocks
/// on 32 factor blocks, ..."). Recorded at [`Level::Phases`] only, as
/// spans are; below it `text` is not even called.
pub fn decision(topic: &'static str, text: impl FnOnce() -> String) {
    if level() != Level::Phases {
        return;
    }
    BUF.with(|b| {
        b.borrow_mut().data.decisions.push(Decision {
            topic,
            text: text(),
        })
    });
}

// ---------------------------------------------------------------------------
// rank registration and flushing
// ---------------------------------------------------------------------------

/// RAII guard binding the current thread to a minimpi rank; flushes the
/// thread's buffers into the global registry when dropped.
pub struct RankScope {
    prev: Option<usize>,
}

/// Associate the current thread with `rank` for the lifetime of the
/// returned guard. `minimpi::run` installs one per rank thread, so every
/// span recorded inside a rank closure lands on that rank's timeline
/// without user code.
pub fn rank_scope(rank: usize) -> RankScope {
    let prev = BUF.with(|b| {
        let mut b = b.borrow_mut();
        let prev = b.rank;
        b.rank = Some(rank);
        prev
    });
    RankScope { prev }
}

impl Drop for RankScope {
    fn drop(&mut self) {
        flush_thread();
        BUF.with(|b| b.borrow_mut().rank = self.prev);
    }
}

/// Move the current thread's buffered records into the global registry.
/// Threads inside a [`rank_scope`] flush automatically on scope exit;
/// long-lived driver threads should flush before exporting.
pub fn flush_thread() {
    let (key, data) = BUF.with(|b| {
        let mut b = b.borrow_mut();
        let key = b.rank.map(|r| r as i64).unwrap_or(UNRANKED);
        (key, std::mem::take(&mut b.data))
    });
    deposit(key, data);
}

fn deposit(key: i64, data: RankData) {
    if data.spans.is_empty()
        && data.counters.is_zero()
        && data.decisions.is_empty()
        && data.dropped == 0
    {
        return;
    }
    let mut reg = REGISTRY.lock().unwrap();
    let slot = reg.entry(key).or_default();
    slot.spans.extend(data.spans);
    slot.counters.merge(&data.counters);
    for (a, b) in slot.by_phase.iter_mut().zip(&data.by_phase) {
        a.merge(b);
    }
    slot.decisions.extend(data.decisions);
    slot.dropped += data.dropped;
}

/// Clear the global registry and the current thread's buffer. Other
/// threads' unflushed buffers are untouched (they drain on their next
/// flush). Intended for test isolation and `--metrics-every` windows.
pub fn reset() {
    BUF.with(|b| {
        let mut b = b.borrow_mut();
        b.data = RankData::default();
    });
    REGISTRY.lock().unwrap().clear();
    TENANTS.lock().unwrap().clear();
}

// ---------------------------------------------------------------------------
// snapshots
// ---------------------------------------------------------------------------

/// All records of one rank timeline in a [`Snapshot`].
#[derive(Clone)]
pub struct RankSnapshot {
    /// `None` for the unranked driver thread.
    pub rank: Option<usize>,
    /// Spans sorted by start time.
    pub spans: Vec<SpanRecord>,
    pub counters: CounterSet,
    /// Counter totals split by attributed [`Phase`], indexed by
    /// `phase as usize`; sums element-wise to `counters`.
    pub by_phase: [CounterSet; NUM_PHASES],
    pub decisions: Vec<Decision>,
    /// Spans discarded after the per-thread cap was hit.
    pub dropped: u64,
}

/// A consistent copy of everything recorded so far. All exporters hang
/// off this type, so one snapshot can serve several output formats.
#[derive(Clone)]
pub struct Snapshot {
    pub ranks: Vec<RankSnapshot>,
    /// Tenant-attributed counter totals recorded through
    /// [`count_tenant`], sorted by tenant name (the campaign server's
    /// per-owner axis). Empty outside server contexts.
    pub tenants: Vec<(String, CounterSet)>,
}

/// Flush the current thread, then copy the global registry.
pub fn snapshot() -> Snapshot {
    flush_thread();
    let reg = REGISTRY.lock().unwrap();
    let ranks = reg
        .iter()
        .map(|(&key, data)| {
            let mut spans = data.spans.clone();
            spans.sort_by(|a, b| a.start_us.total_cmp(&b.start_us));
            RankSnapshot {
                rank: (key >= 0).then_some(key as usize),
                spans,
                counters: data.counters,
                by_phase: data.by_phase,
                decisions: data.decisions.clone(),
                dropped: data.dropped,
            }
        })
        .collect();
    Snapshot {
        ranks,
        tenants: tenant_sets(),
    }
}

/// The counter axes of [`snapshot`] alone: every rank's totals and phase
/// split and the tenant axis, with no spans and no decisions. What a
/// scrape of a long-lived host renders; a whole [`snapshot`] would copy
/// every decision record of every job the host ever ran, so each scrape
/// would cost more than the one before.
pub fn counter_snapshot() -> Snapshot {
    flush_thread();
    let reg = REGISTRY.lock().unwrap();
    let ranks = reg
        .iter()
        .map(|(&key, data)| RankSnapshot {
            rank: (key >= 0).then_some(key as usize),
            spans: Vec::new(),
            counters: data.counters,
            by_phase: data.by_phase,
            decisions: Vec::new(),
            dropped: data.dropped,
        })
        .collect();
    Snapshot {
        ranks,
        tenants: tenant_sets(),
    }
}

fn tenant_sets() -> Vec<(String, CounterSet)> {
    TENANTS
        .lock()
        .unwrap()
        .iter()
        .map(|(name, set)| (name.clone(), *set))
        .collect()
}

impl Snapshot {
    /// Counter totals merged across every rank.
    pub fn total_counters(&self) -> CounterSet {
        let mut total = CounterSet::new();
        for r in &self.ranks {
            total.merge(&r.counters);
        }
        total
    }

    /// Per-phase counter totals merged across every rank, indexed by
    /// `phase as usize`.
    pub fn total_counters_by_phase(&self) -> [CounterSet; NUM_PHASES] {
        let mut total = [CounterSet::new(); NUM_PHASES];
        for r in &self.ranks {
            for (a, b) in total.iter_mut().zip(&r.by_phase) {
                a.merge(b);
            }
        }
        total
    }

    /// Total spans across every rank.
    pub fn span_count(&self) -> usize {
        self.ranks.iter().map(|r| r.spans.len()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::MutexGuard;

    /// Process-global state means tests must serialise; share one lock.
    static TEST_LOCK: Mutex<()> = Mutex::new(());

    fn exclusive() -> MutexGuard<'static, ()> {
        TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner())
    }

    #[test]
    fn disabled_records_nothing() {
        let _x = exclusive();
        reset();
        set_level(Level::Off);
        {
            let _s = span("dead", Phase::Fft);
            count(Counter::Flops, 1000);
            decision("planner", || unreachable!("formatted while off"));
        }
        let snap = snapshot();
        assert_eq!(snap.span_count(), 0);
        assert!(snap.total_counters().is_zero());
    }

    #[test]
    fn nesting_depths_and_order() {
        let _x = exclusive();
        reset();
        set_level(Level::Phases);
        {
            let _outer = span("outer", Phase::Transpose);
            {
                let _inner = span("inner", Phase::Transpose);
            }
            let _inner2 = span("inner2", Phase::Fft);
        }
        set_level(Level::Off);
        let snap = snapshot();
        assert_eq!(snap.span_count(), 3);
        let spans = &snap.ranks[0].spans;
        let by_name = |n: &str| spans.iter().find(|s| s.name == n).unwrap();
        assert_eq!(by_name("outer").depth, 0);
        assert_eq!(by_name("inner").depth, 1);
        assert_eq!(by_name("inner2").depth, 1);
        // sorted by start: outer opened first
        assert_eq!(spans[0].name, "outer");
        assert!(by_name("outer").dur_us >= by_name("inner").dur_us);
    }

    #[test]
    fn counters_level_counts_without_recording_spans() {
        let _x = exclusive();
        reset();
        set_level(Level::Counters);
        {
            let _s = span("step", Phase::Fft);
            count(Counter::Flops, 7);
            decision("plan", || unreachable!("formatted at Counters"));
        }
        set_level(Level::Off);
        flush_thread();
        let snap = snapshot();
        assert_eq!(snap.span_count(), 0);
        assert_eq!(snap.total_counters().get(Counter::Flops), 7);
        let by_phase = snap.total_counters_by_phase();
        assert_eq!(by_phase[Phase::Other as usize].get(Counter::Flops), 7);
        assert_eq!(snap.ranks[0].decisions.len(), 0);
    }

    #[test]
    fn counter_snapshot_carries_the_counters_without_the_records() {
        let _x = exclusive();
        reset();
        set_level(Level::Phases);
        for k in 0..50 {
            let _s = span("step", Phase::Fft);
            count(Counter::Flops, 3);
            count_tenant("acme", Counter::Flops, 1);
            decision("plan", || format!("job {k}"));
        }
        set_level(Level::Off);
        let (full, counters) = (snapshot(), counter_snapshot());
        assert_eq!(full.span_count(), 50);
        assert_eq!(full.ranks[0].decisions.len(), 50);
        // the scrape's copy: same counter axes, none of the growing records
        assert_eq!(counters.span_count(), 0);
        assert!(counters.ranks.iter().all(|r| r.decisions.is_empty()));
        assert_eq!(counters.total_counters(), full.total_counters());
        assert_eq!(
            counters.total_counters_by_phase(),
            full.total_counters_by_phase()
        );
        assert_eq!(counters.tenants, full.tenants);
    }

    #[test]
    fn counters_attribute_to_innermost_span_phase() {
        let _x = exclusive();
        reset();
        set_level(Level::Phases);
        {
            let _t = span("transpose", Phase::Transpose);
            count(Counter::DdrBytes, 100);
            {
                let _f = span("fft_x", Phase::Fft);
                count(Counter::Flops, 40);
                count_phase(Phase::NsAdvance, Counter::Flops, 2);
            }
            count(Counter::DdrBytes, 11);
        }
        count(Counter::CommBytes, 7); // no open span: lands on Other
        set_level(Level::Off);
        let snap = snapshot();
        let by_phase = snap.total_counters_by_phase();
        assert_eq!(
            by_phase[Phase::Transpose as usize].get(Counter::DdrBytes),
            111
        );
        assert_eq!(by_phase[Phase::Fft as usize].get(Counter::Flops), 40);
        assert_eq!(by_phase[Phase::NsAdvance as usize].get(Counter::Flops), 2);
        assert_eq!(by_phase[Phase::Other as usize].get(Counter::CommBytes), 7);
        // phase split sums to the untyped totals
        let total = snap.total_counters();
        for c in Counter::ALL {
            let split: u64 = by_phase.iter().map(|s| s.get(c)).sum();
            assert_eq!(split, total.get(c), "{}", c.label());
        }
    }

    #[test]
    fn tenant_counters_accumulate_and_reset() {
        let _x = exclusive();
        reset();
        set_level(Level::Phases);
        count_tenant("acme", Counter::JobsSubmitted, 2);
        count_tenant("acme", Counter::QueueWaitUs, 1500);
        count_tenant("globex", Counter::JobsSubmitted, 1);
        set_level(Level::Off);
        // off: recorded nothing
        count_tenant("acme", Counter::JobsSubmitted, 99);
        let snap = snapshot();
        assert_eq!(snap.tenants.len(), 2);
        assert_eq!(snap.tenants[0].0, "acme");
        assert_eq!(snap.tenants[0].1.get(Counter::JobsSubmitted), 2);
        assert_eq!(snap.tenants[0].1.get(Counter::QueueWaitUs), 1500);
        assert_eq!(snap.tenants[1].0, "globex");
        reset();
        assert!(snapshot().tenants.is_empty());
    }

    #[test]
    fn counter_merge_is_associative_and_commutative() {
        let mk = |f, d, m| {
            let mut c = CounterSet::new();
            c.add(Counter::Flops, f);
            c.add(Counter::DdrBytes, d);
            c.add(Counter::MessagesSent, m);
            c
        };
        let (a, b, c) = (mk(1, 2, 3), mk(10, 20, 30), mk(100, 200, 300));
        // (a+b)+c
        let mut ab = a;
        ab.merge(&b);
        let mut ab_c = ab;
        ab_c.merge(&c);
        // a+(b+c)
        let mut bc = b;
        bc.merge(&c);
        let mut a_bc = a;
        a_bc.merge(&bc);
        assert_eq!(ab_c, a_bc);
        // b+a == a+b
        let mut ba = b;
        ba.merge(&a);
        assert_eq!(ab, ba);
    }

    #[test]
    fn concurrent_rank_threads_land_on_their_tracks() {
        let _x = exclusive();
        reset();
        set_level(Level::Phases);
        std::thread::scope(|s| {
            for rank in 0..4usize {
                s.spawn(move || {
                    let _scope = rank_scope(rank);
                    for _ in 0..3 {
                        let _sp = span("work", Phase::NsAdvance);
                        count(Counter::CommBytes, 100 * (rank as u64 + 1));
                    }
                });
            }
        });
        set_level(Level::Off);
        let snap = snapshot();
        let ranked: Vec<_> = snap.ranks.iter().filter(|r| r.rank.is_some()).collect();
        assert_eq!(ranked.len(), 4);
        for r in &ranked {
            assert_eq!(r.spans.len(), 3);
            let want = 100 * (r.rank.unwrap() as u64 + 1) * 3;
            assert_eq!(r.counters.get(Counter::CommBytes), want);
        }
    }

    #[test]
    fn disabled_overhead_is_small() {
        let _x = exclusive();
        reset();
        set_level(Level::Off);
        // Warm the thread-local; then time a tight instrumented loop.
        {
            let _s = span("warm", Phase::Other);
        }
        let n = 1_000_000u64;
        let t0 = Instant::now();
        for i in 0..n {
            let _s = span("hot", Phase::Fft);
            count(Counter::Flops, i);
        }
        let per_call = t0.elapsed().as_secs_f64() / n as f64;
        // An atomic load + branch is single-digit ns; 150 ns leaves lots
        // of headroom for slow CI machines while still catching an
        // accidentally-unconditional slow path.
        assert!(
            per_call < 150e-9,
            "disabled span+count cost {per_call:.2e} s/call"
        );
    }
}
