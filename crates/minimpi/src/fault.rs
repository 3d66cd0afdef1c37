//! Deterministic fault injection for the message-passing runtime.
//!
//! At 786K cores the paper's production campaigns run inside the
//! machine's MTBF, so the DNS only completes because failures are
//! routine events the stack is engineered around. This module gives the
//! thread-backed runtime the same adversary: a [`FaultPlan`] describes,
//! ahead of a run, exactly which transport operations misbehave —
//! message delays, message drops, and rank crashes — keyed by a per-rank
//! *operation count* (every send and every blocking receive increments
//! it), plus application-visible crashes keyed by timestep
//! ([`Communicator::poll_step_faults`](crate::Communicator::poll_step_faults)).
//!
//! Plans are plain data: the same plan replays the same faults at the
//! same operations every run, which is what makes chaos tests assertable
//! (a seeded matrix either converges bitwise or fails identically).
//!
//! Semantics of each fault kind at the operation that triggers it:
//!
//! * [`FaultKind::Delay`] — the operation sleeps first, then proceeds
//!   normally. Pure timing perturbation; numerics are unaffected.
//! * [`FaultKind::Drop`] — a *send* is silently discarded (the matching
//!   receive will time out); on a receive operation it degenerates to a
//!   no-op. Note that dropping a message under a tag that is reused
//!   later (e.g. repeated barriers) can desynchronise the pair rather
//!   than hang it — drops model unreliable transport honestly, so
//!   seeded plans built by [`FaultPlan::seeded`] inject only delays and
//!   crashes, and drops are opt-in via [`FaultPlan::drop_at_op`].
//! * [`FaultKind::Crash`] — the rank thread panics with an
//!   `"injected fault"` message; [`run_result`](crate::run_result)
//!   reports it as a typed failure, and surviving ranks observe the
//!   death as [`CommError::RankDead`](crate::CommError::RankDead)
//!   instead of hanging.

use std::cell::Cell;
use std::time::Duration;

/// What happens at a triggered operation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FaultKind {
    /// Sleep for the duration, then carry on.
    Delay(Duration),
    /// Discard the message being sent (no-op on a receive).
    Drop,
    /// Panic the rank thread.
    Crash,
}

/// One scheduled transport fault.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FaultEvent {
    /// World rank the fault applies to.
    pub rank: usize,
    /// Zero-based transport operation count at which it fires.
    pub op: u64,
    /// What happens.
    pub kind: FaultKind,
}

/// One scheduled application-level crash, fired when the rank calls
/// [`poll_step_faults`](crate::Communicator::poll_step_faults) with the
/// matching step.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct StepCrash {
    /// World rank that crashes.
    rank: usize,
    /// Timestep at which the poll panics.
    step: u64,
}

/// A deterministic schedule of faults for one run.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct FaultPlan {
    ops: Vec<FaultEvent>,
    steps: Vec<StepCrash>,
}

impl FaultPlan {
    /// The empty plan (no faults; the default).
    pub fn none() -> FaultPlan {
        FaultPlan::default()
    }

    /// Whether the plan schedules anything at all.
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty() && self.steps.is_empty()
    }

    /// Delay `rank`'s transport operation number `op` by `delay`.
    pub fn delay_at_op(mut self, rank: usize, op: u64, delay: Duration) -> FaultPlan {
        self.ops.push(FaultEvent {
            rank,
            op,
            kind: FaultKind::Delay(delay),
        });
        self
    }

    /// Drop the message `rank` sends at transport operation `op`.
    pub fn drop_at_op(mut self, rank: usize, op: u64) -> FaultPlan {
        self.ops.push(FaultEvent {
            rank,
            op,
            kind: FaultKind::Drop,
        });
        self
    }

    /// Delay every `stride`-th of `rank`'s transport operations starting
    /// at `first_op`, `count` times — a persistent one-rank slowdown (a
    /// flaky link or a thermally-throttled node) rather than a single
    /// hiccup. This is the deterministic straggler the run-health
    /// detector is verified against.
    pub fn delay_every(
        mut self,
        rank: usize,
        first_op: u64,
        stride: u64,
        count: u64,
        delay: Duration,
    ) -> FaultPlan {
        assert!(stride >= 1, "stride must be at least 1");
        for i in 0..count {
            self = self.delay_at_op(rank, first_op + i * stride, delay);
        }
        self
    }

    /// Crash `rank` at transport operation `op`.
    pub fn crash_at_op(mut self, rank: usize, op: u64) -> FaultPlan {
        self.ops.push(FaultEvent {
            rank,
            op,
            kind: FaultKind::Crash,
        });
        self
    }

    /// Crash `rank` when it polls step `step` (see
    /// [`poll_step_faults`](crate::Communicator::poll_step_faults)).
    pub fn crash_at_step(mut self, rank: usize, step: u64) -> FaultPlan {
        self.steps.push(StepCrash { rank, step });
        self
    }

    /// A seeded chaos schedule over `ranks` ranks and roughly
    /// `horizon_ops` transport operations: a handful of delays spread
    /// over the horizon and exactly one crash in its middle half, all
    /// derived deterministically from `seed`. Drops are deliberately
    /// excluded (see the module docs) — add them explicitly if a test
    /// controls the tag space.
    pub fn seeded(seed: u64, ranks: usize, horizon_ops: u64) -> FaultPlan {
        assert!(ranks >= 1 && horizon_ops >= 4);
        let mut s = Splitmix(seed);
        let mut plan = FaultPlan::none();
        for _ in 0..3 {
            let rank = (s.next() % ranks as u64) as usize;
            let op = s.next() % horizon_ops;
            let micros = 50 + s.next() % 450;
            plan = plan.delay_at_op(rank, op, Duration::from_micros(micros));
        }
        let crash_rank = (s.next() % ranks as u64) as usize;
        let crash_op = horizon_ops / 4 + s.next() % (horizon_ops / 2);
        plan.crash_at_op(crash_rank, crash_op)
    }

    /// The scheduled transport faults (diagnostics / logging).
    pub fn op_events(&self) -> &[FaultEvent] {
        &self.ops
    }

    /// Extract rank `rank`'s share of the plan, ready to consult from
    /// the transport hot path.
    pub(crate) fn for_rank(&self, rank: usize) -> RankFaults {
        let mut ops: Vec<(u64, FaultKind)> = self
            .ops
            .iter()
            .filter(|e| e.rank == rank)
            .map(|e| (e.op, e.kind))
            .collect();
        ops.sort_by_key(|&(op, _)| op);
        let steps = self
            .steps
            .iter()
            .filter(|c| c.rank == rank)
            .map(|c| c.step)
            .collect();
        RankFaults {
            ops,
            cursor: Cell::new(0),
            op_count: Cell::new(0),
            steps,
        }
    }
}

/// One rank's runtime view of the plan: an op counter and a cursor over
/// its sorted events. Consulting it when the plan is empty is two cell
/// accesses — negligible against a channel operation.
pub(crate) struct RankFaults {
    ops: Vec<(u64, FaultKind)>,
    cursor: Cell<usize>,
    op_count: Cell<u64>,
    steps: Vec<u64>,
}

impl RankFaults {
    /// Count one transport operation; return the fault scheduled for it,
    /// if any. When several events share an op, the first wins and the
    /// rest fire on subsequent operations.
    pub(crate) fn on_op(&self) -> Option<FaultKind> {
        let n = self.op_count.get();
        self.op_count.set(n + 1);
        let c = self.cursor.get();
        if c < self.ops.len() && self.ops[c].0 <= n {
            self.cursor.set(c + 1);
            return Some(self.ops[c].1);
        }
        None
    }

    /// Whether a crash is scheduled at this application step.
    pub(crate) fn crashes_at_step(&self, step: u64) -> bool {
        self.steps.contains(&step)
    }

    /// Operations counted so far (diagnostics).
    pub(crate) fn ops_seen(&self) -> u64 {
        self.op_count.get()
    }
}

/// splitmix64: the same mixing used for communicator ids, here as a
/// deterministic stream for seeded plans.
struct Splitmix(u64);

impl Splitmix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E3779B97F4A7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
        z ^ (z >> 31)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seeded_plans_are_deterministic_and_seed_sensitive() {
        let a = FaultPlan::seeded(7, 4, 1000);
        let b = FaultPlan::seeded(7, 4, 1000);
        let c = FaultPlan::seeded(8, 4, 1000);
        assert_eq!(a, b);
        assert_ne!(a, c);
        // exactly one crash, in the middle half of the horizon
        let crashes: Vec<_> = a
            .op_events()
            .iter()
            .filter(|e| e.kind == FaultKind::Crash)
            .collect();
        assert_eq!(crashes.len(), 1);
        assert!(crashes[0].op >= 250 && crashes[0].op < 750);
        assert!(a.op_events().iter().all(|e| e.kind != FaultKind::Drop));
    }

    #[test]
    fn rank_faults_fire_in_op_order() {
        let plan = FaultPlan::none()
            .delay_at_op(0, 2, Duration::from_micros(1))
            .crash_at_op(0, 4)
            .delay_at_op(1, 0, Duration::from_micros(1));
        let rf = plan.for_rank(0);
        assert_eq!(rf.on_op(), None); // op 0
        assert_eq!(rf.on_op(), None); // op 1
        assert_eq!(rf.on_op(), Some(FaultKind::Delay(Duration::from_micros(1))));
        assert_eq!(rf.on_op(), None); // op 3
        assert_eq!(rf.on_op(), Some(FaultKind::Crash));
        assert_eq!(rf.on_op(), None);
        assert_eq!(rf.ops_seen(), 6);
    }

    #[test]
    fn delay_every_schedules_a_persistent_slowdown() {
        let d = Duration::from_millis(2);
        let plan = FaultPlan::none().delay_every(1, 10, 5, 3, d);
        let want: Vec<u64> = vec![10, 15, 20];
        let got: Vec<u64> = plan.op_events().iter().map(|e| e.op).collect();
        assert_eq!(got, want);
        assert!(plan
            .op_events()
            .iter()
            .all(|e| e.rank == 1 && e.kind == FaultKind::Delay(d)));
        // and the per-rank view fires each one exactly once, in order
        let rf = plan.for_rank(1);
        let mut fired = 0;
        for _ in 0..25 {
            if rf.on_op() == Some(FaultKind::Delay(d)) {
                fired += 1;
            }
        }
        assert_eq!(fired, 3);
    }

    #[test]
    fn step_crashes_are_per_rank() {
        let plan = FaultPlan::none().crash_at_step(1, 10);
        assert!(plan.for_rank(1).crashes_at_step(10));
        assert!(!plan.for_rank(1).crashes_at_step(9));
        assert!(!plan.for_rank(0).crashes_at_step(10));
    }
}
