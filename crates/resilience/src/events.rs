//! Recovery-event log: a machine-readable record of what the supervisor
//! did — attempts started, crashes observed, restarts issued, the final
//! outcome. Exported as JSON so CI can archive it as an artifact and a
//! human can reconstruct the failure timeline without re-running.
//!
//! The document is a [`dns_json::Json`] value; the schema is deliberately
//! flat: `{"events": [{"attempt": n, "kind": "...", ...}, ...]}` with
//! per-kind fields inlined.

use dns_json::Json;

/// What happened, attached to the attempt during which it happened.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum EventKind {
    /// An attempt began (fresh start or restart from a checkpoint).
    AttemptStarted {
        /// Human description of the starting state, e.g.
        /// `"fresh"` or `"restored step 40"`.
        from: String,
    },
    /// The world died: one or more ranks panicked.
    WorldFailed {
        /// `(rank, panic message)` for each dead rank.
        failures: Vec<(usize, String)>,
    },
    /// The supervisor decided to restart.
    RestartIssued,
    /// The run completed successfully.
    Converged,
    /// The restart budget was exhausted; the run is abandoned.
    GaveUp,
}

/// One timeline entry.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RecoveryEvent {
    /// Zero-based attempt index the event belongs to.
    pub attempt: usize,
    pub kind: EventKind,
}

impl RecoveryEvent {
    fn to_json(&self) -> Json {
        let obj = Json::obj().put("attempt", Json::num(self.attempt as f64));
        let (kind, obj) = match &self.kind {
            EventKind::AttemptStarted { from } => {
                ("attempt_started", obj.put("from", Json::str(from)))
            }
            EventKind::WorldFailed { failures } => {
                let failures = failures.iter().map(|(rank, msg)| {
                    Json::obj()
                        .put("rank", Json::num(*rank as f64))
                        .put("message", Json::str(msg))
                        .build()
                });
                (
                    "world_failed",
                    obj.put("failures", Json::Arr(failures.collect())),
                )
            }
            EventKind::RestartIssued => ("restart_issued", obj),
            EventKind::Converged => ("converged", obj),
            EventKind::GaveUp => ("gave_up", obj),
        };
        obj.put("kind", Json::str(kind)).build()
    }
}

/// The timeline as a JSON document, `{"events":[...]}`.
pub fn events_to_json(events: &[RecoveryEvent]) -> Json {
    let events = events.iter().map(RecoveryEvent::to_json).collect();
    Json::obj().put("events", Json::Arr(events)).build()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_shape_and_escaping() {
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
                    failures: vec![(2, "injected fault: rank 2 \"crashed\"\nat op 7".into())],
                },
            },
            RecoveryEvent {
                attempt: 1,
                kind: EventKind::Converged,
            },
        ];
        let json = events_to_json(&events).dump();
        assert_eq!(
            json,
            "{\"events\":[{\"attempt\":0,\"from\":\"fresh\",\"kind\":\"attempt_started\"},\
             {\"attempt\":0,\"failures\":[{\"message\":\"injected fault: rank 2 \\\"crashed\\\"\\nat op 7\",\
             \"rank\":2}],\"kind\":\"world_failed\"},{\"attempt\":1,\"kind\":\"converged\"}]}"
        );
        assert_eq!(dns_json::parse(&json).unwrap(), events_to_json(&events));
    }
}
