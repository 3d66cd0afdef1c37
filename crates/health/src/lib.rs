//! Run-health monitoring for the DNS stack.
//!
//! `dns-telemetry` (PR 1) answers *where did the time go* after a run;
//! `dns-resilience` (PR 3) answers *did it survive*. This crate watches
//! a run **while it executes** and leaves one machine-readable artifact
//! that tells the whole story:
//!
//! * a versioned **JSONL flight recorder** ([`FlightRecorder`],
//!   [`FlightEvent`]) — one event per step per rank with wall time,
//!   per-phase seconds, busy/wait split and comm traffic, interleaved
//!   with checkpoint, sentinel, and supervisor recovery events;
//! * an online **straggler detector** ([`StragglerDetector`]) flagging
//!   ranks whose busy time exceeds the cross-rank median by a factor
//!   for K consecutive steps;
//! * **physics sentinels** ([`Sentinels`]) with warn/abort thresholds
//!   on CFL, divergence, energy, and finiteness, failing a diverging
//!   run fast with a typed [`SentinelAbort`];
//! * an offline **replay/report** ([`report::Replay`], which `dns-core`'s
//!   `dns-report` binary prints) rendering histograms, imbalance heat
//!   rows and the health timeline.
//!
//! The JSON it writes and reads goes through `dns-json`, like every
//! other file of the stack.
//!
//! The crate holds no process-global state: everything a run records
//! lives on that run's monitor and in its JSONL file, so concurrent
//! runs in one process (the campaign daemon) never share a counter.

pub mod recorder;
pub mod report;
pub mod schema;
pub mod sentinel;
pub mod sse;
pub mod straggler;
pub mod window;

pub use recorder::FlightRecorder;
pub use schema::{
    parse_jsonl, FlightEvent, HealthEvent, SentinelAbort, SentinelKind, SCHEMA_VERSION,
};
pub use sentinel::{SentinelConfig, SentinelValues, Sentinels};
pub use straggler::{StragglerConfig, StragglerDetector};
pub use window::metrics_window;

use dns_resilience::{EventKind, RecoveryEvent};

/// Fold supervisor recovery events into flight-recorder form, so one
/// JSONL file interleaves restart markers with step records.
pub fn recovery_to_flight(events: &[RecoveryEvent]) -> Vec<FlightEvent> {
    events
        .iter()
        .map(|e| {
            let (kind, detail) = match &e.kind {
                EventKind::AttemptStarted { from } => ("attempt_started", from.clone()),
                EventKind::WorldFailed { failures } => (
                    "world_failed",
                    failures
                        .iter()
                        .map(|(r, m)| format!("rank {r}: {m}"))
                        .collect::<Vec<_>>()
                        .join("; "),
                ),
                EventKind::RestartIssued => ("restart_issued", String::new()),
                EventKind::Converged => ("converged", String::new()),
                EventKind::GaveUp => ("gave_up", String::new()),
            };
            FlightEvent::Recovery {
                attempt: e.attempt,
                kind: kind.to_string(),
                detail,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn recovery_events_fold_into_the_timeline() {
        let events = vec![
            RecoveryEvent {
                attempt: 0,
                kind: EventKind::AttemptStarted {
                    from: "fresh".into(),
                },
            },
            RecoveryEvent {
                attempt: 0,
                kind: EventKind::WorldFailed {
                    failures: vec![(2, "injected fault".into()), (3, "collateral".into())],
                },
            },
            RecoveryEvent {
                attempt: 1,
                kind: EventKind::Converged,
            },
        ];
        let flight = recovery_to_flight(&events);
        assert_eq!(flight.len(), 3);
        match &flight[1] {
            FlightEvent::Recovery {
                attempt,
                kind,
                detail,
            } => {
                assert_eq!(*attempt, 0);
                assert_eq!(kind, "world_failed");
                assert_eq!(detail, "rank 2: injected fault; rank 3: collateral");
            }
            other => panic!("{other:?}"),
        }
        // and each folds through the JSONL round trip
        for f in &flight {
            let line = f.to_json_line();
            assert_eq!(&FlightEvent::parse_line(&line).unwrap(), f);
        }
    }
}
