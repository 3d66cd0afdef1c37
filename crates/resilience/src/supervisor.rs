//! The restart supervisor: a loop over [`minimpi::run_result`] that
//! re-launches the world after rank failures until the body converges or
//! the restart budget runs out.
//!
//! The supervisor is deliberately ignorant of *what* the body computes —
//! resumability is the body's contract: each attempt receives its
//! [`Attempt`] index and must itself restore from the latest durable
//! state (e.g. a checkpoint manifest) before continuing. The supervisor
//! owns only the control loop: launch, observe failure, record a
//! [`RecoveryEvent`], decide to retry or give up.
//!
//! State machine per run:
//!
//! ```text
//!   Launch(attempt) ──ok──────────────▶ Converged
//!        │ rank panic(s)
//!        ▼
//!   WorldFailed ──attempt < budget──▶ RestartIssued ──▶ Launch(attempt+1)
//!        │ budget exhausted
//!        ▼
//!      GaveUp
//! ```

use std::sync::Arc;
use std::time::Duration;

use dns_minimpi as minimpi;
use dns_telemetry as telemetry;
use minimpi::{run_result, Communicator, FaultPlan, RunOptions};

use crate::events::{events_to_json, EventKind, RecoveryEvent};

/// How the supervisor launches each attempt.
#[derive(Clone, Debug)]
pub struct SupervisorConfig {
    /// World size of every attempt.
    pub ranks: usize,
    /// Restart budget: the body is launched at most `max_restarts + 1`
    /// times.
    pub max_restarts: usize,
    /// Receive budget handed to the transport
    /// ([`minimpi::RunOptions::recv_timeout`]). Chaos tests shrink this
    /// so a genuinely wedged world fails in seconds, not minutes.
    pub recv_timeout: Duration,
}

impl Default for SupervisorConfig {
    fn default() -> Self {
        SupervisorConfig {
            ranks: 1,
            max_restarts: 2,
            recv_timeout: minimpi::RECV_TIMEOUT,
        }
    }
}

/// Handed to the body so it knows whether it is a fresh start
/// (`index == 0`) or a restart that must restore durable state.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Attempt {
    /// Zero-based launch counter.
    pub index: usize,
}

/// The supervisor's verdict plus its full event timeline.
#[derive(Debug)]
pub struct Report<R> {
    /// Per-rank results of the successful attempt, `None` if every
    /// attempt failed.
    pub results: Option<Vec<R>>,
    /// Restarts actually issued (0 on a clean first run).
    pub restarts: usize,
    /// The recovery timeline, in order.
    pub events: Vec<RecoveryEvent>,
}

impl<R> Report<R> {
    /// Whether some attempt converged.
    pub fn succeeded(&self) -> bool {
        self.results.is_some()
    }

    /// The timeline as a JSON document (see [`events_to_json`]).
    pub fn events_json(&self) -> String {
        events_to_json(&self.events).dump()
    }
}

/// Run `body` under supervision: launch a `cfg.ranks`-rank world, and if
/// ranks die, relaunch up to `cfg.max_restarts` times. `plan_for(i)`
/// supplies the fault plan for attempt `i` — chaos tests inject faults
/// on attempt 0 and return [`FaultPlan::none`] afterwards, production
/// callers return `none` always.
///
/// The body must be resumable: on `attempt.index > 0` it is responsible
/// for restoring from its own durable state. Each launch is a fresh set
/// of rank threads and a fresh world communicator.
pub fn supervise<R, F, P>(cfg: SupervisorConfig, mut plan_for: P, body: F) -> Report<R>
where
    R: Send + 'static,
    F: Fn(Communicator, Attempt) -> R + Send + Sync + 'static,
    P: FnMut(usize) -> FaultPlan,
{
    let body = Arc::new(body);
    let mut events = Vec::new();
    let mut restarts = 0usize;
    for attempt in 0..=cfg.max_restarts {
        let from = if attempt == 0 {
            "fresh".to_string()
        } else {
            format!("restart {attempt}")
        };
        events.push(RecoveryEvent {
            attempt,
            kind: EventKind::AttemptStarted { from },
        });
        let opts = RunOptions {
            recv_timeout: cfg.recv_timeout,
            fault_plan: plan_for(attempt),
        };
        let body = Arc::clone(&body);
        let outcome = run_result(cfg.ranks, opts, move |comm| {
            body(comm, Attempt { index: attempt })
        });
        match outcome {
            Ok(results) => {
                events.push(RecoveryEvent {
                    attempt,
                    kind: EventKind::Converged,
                });
                return Report {
                    results: Some(results),
                    restarts,
                    events,
                };
            }
            Err(failure) => {
                events.push(RecoveryEvent {
                    attempt,
                    kind: EventKind::WorldFailed {
                        failures: failure.messages(),
                    },
                });
                if attempt < cfg.max_restarts {
                    restarts += 1;
                    telemetry::count(telemetry::Counter::Restarts, 1);
                    events.push(RecoveryEvent {
                        attempt,
                        kind: EventKind::RestartIssued,
                    });
                }
            }
        }
    }
    events.push(RecoveryEvent {
        attempt: cfg.max_restarts,
        kind: EventKind::GaveUp,
    });
    Report {
        results: None,
        restarts,
        events,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn clean_run_converges_without_restarts() {
        let report = supervise(
            SupervisorConfig {
                ranks: 2,
                max_restarts: 2,
                recv_timeout: Duration::from_secs(5),
            },
            |_| FaultPlan::none(),
            |comm, attempt| {
                assert_eq!(attempt.index, 0);
                comm.barrier();
                comm.rank()
            },
        );
        assert!(report.succeeded());
        assert_eq!(report.restarts, 0);
        assert_eq!(report.results.unwrap(), vec![0, 1]);
        assert!(matches!(
            report.events.last().unwrap().kind,
            EventKind::Converged
        ));
    }

    #[test]
    fn injected_crash_triggers_one_restart() {
        let report = supervise(
            SupervisorConfig {
                ranks: 2,
                max_restarts: 2,
                recv_timeout: Duration::from_secs(2),
            },
            |attempt| {
                if attempt == 0 {
                    FaultPlan::none().crash_at_op(1, 0)
                } else {
                    FaultPlan::none()
                }
            },
            |comm, _attempt| {
                comm.barrier();
                comm.rank() * 10
            },
        );
        assert!(report.succeeded());
        assert_eq!(report.restarts, 1);
        assert_eq!(report.results.unwrap(), vec![0, 10]);
        let kinds: Vec<_> = report
            .events
            .iter()
            .map(|e| std::mem::discriminant(&e.kind))
            .collect();
        // started, failed, restart, started, converged
        assert_eq!(kinds.len(), 5);
        // rank 1's injected crash is recorded; rank 0 may appear too
        // (its receive from the dead rank fails fast and panics in turn)
        assert!(report
            .events
            .iter()
            .any(|e| matches!(&e.kind, EventKind::WorldFailed { failures }
                if failures.iter().any(|(r, m)| *r == 1 && m.contains("injected fault")))));
    }

    #[test]
    fn budget_exhaustion_reports_gave_up() {
        let launches = Arc::new(AtomicUsize::new(0));
        let seen = Arc::clone(&launches);
        let report = supervise(
            SupervisorConfig {
                ranks: 2,
                max_restarts: 1,
                recv_timeout: Duration::from_secs(2),
            },
            // every attempt crashes rank 0 immediately
            |_| FaultPlan::none().crash_at_op(0, 0),
            move |comm, _attempt| {
                if comm.rank() == 0 {
                    seen.fetch_add(1, Ordering::SeqCst);
                }
                comm.barrier();
            },
        );
        assert!(!report.succeeded());
        assert_eq!(report.restarts, 1);
        assert_eq!(launches.load(Ordering::SeqCst), 2);
        assert!(matches!(
            report.events.last().unwrap().kind,
            EventKind::GaveUp
        ));
        let json = report.events_json();
        assert!(json.contains("\"kind\":\"gave_up\""));
    }
}
