//! The append-only campaign journal: every scheduling transition is a
//! one-line JSON record, CRC-sealed, flushed before the transition is
//! acted on. After a crash (SIGKILL included) the server replays the
//! journal and recovers every in-flight job — the chaos test in
//! `tests/server_chaos.rs` kills the daemon mid-campaign and proves it.
//!
//! ## Line format
//!
//! ```text
//! {"crc":3735928559,"rec":{"event":"submitted","id":1,...}}
//! ```
//!
//! `crc` is CRC-32/ISO-HDLC (the same [`dns_resilience::crc32`] the
//! checkpoint manifests use) over the canonical serialized bytes of
//! `rec`. Replay stops at the first line that is truncated, unparsable,
//! or CRC-mismatched: a torn tail write loses at most the final record,
//! never the history before it.

use std::path::Path;

use dns_core::run::RunSpec;
use dns_json::Json;
use dns_resilience::{append_line, frame, open_journal, read_journal, unframe};

use crate::scheduler::{Job, JobId, JobState};

/// One journaled scheduling transition.
// a Submitted record carries the whole spec by design — journal records
// are transient values, never stored in bulk
#[allow(clippy::large_enum_variant)]
#[derive(Clone, Debug, PartialEq)]
pub enum Record {
    /// A job entered the queue (spec serialized inline so recovery can
    /// rebuild it without any other file surviving).
    Submitted {
        /// Stable job id.
        id: JobId,
        /// Owning tenant.
        tenant: String,
        /// Scheduling priority.
        priority: u8,
        /// Cores the job occupies while running.
        cores: usize,
        /// FIFO sequence number.
        seq: u64,
        /// The full run spec.
        spec: RunSpec,
    },
    /// The job launched.
    Started {
        /// Job id.
        id: JobId,
    },
    /// The job's preemption checkpoint committed and its world wound
    /// down.
    Preempted {
        /// Job id.
        id: JobId,
        /// Step the checkpoint captured.
        step: u64,
    },
    /// The job relaunched from its checkpoint.
    Resumed {
        /// Job id.
        id: JobId,
    },
    /// Terminal: completed its step budget.
    Done {
        /// Job id.
        id: JobId,
    },
    /// Terminal: all supervised attempts failed.
    Failed {
        /// Job id.
        id: JobId,
    },
    /// Terminal: cancelled by the owner.
    Cancelled {
        /// Job id.
        id: JobId,
    },
    /// A drain began: everything running is being checkpointed.
    Drain,
    /// The drain was lifted.
    Undrain,
}

impl Record {
    fn to_json(&self) -> Json {
        let ev = |event: &str| Json::obj().put("event", Json::str(event));
        let with_id = |event: &str, id: JobId| ev(event).put("id", Json::num(id as f64)).build();
        match self {
            Record::Submitted {
                id,
                tenant,
                priority,
                cores,
                seq,
                spec,
            } => ev("submitted")
                .put("id", Json::num(*id as f64))
                .put("tenant", Json::str(tenant))
                .put("priority", Json::num(*priority as u32))
                .put("cores", Json::num(*cores as u32))
                .put("seq", Json::num(*seq as f64))
                .put(
                    "spec",
                    dns_json::parse(&spec.to_json()).expect("spec serializes"),
                )
                .build(),
            Record::Started { id } => with_id("started", *id),
            Record::Preempted { id, step } => ev("preempted")
                .put("id", Json::num(*id as f64))
                .put("step", Json::num(*step as f64))
                .build(),
            Record::Resumed { id } => with_id("resumed", *id),
            Record::Done { id } => with_id("done", *id),
            Record::Failed { id } => with_id("failed", *id),
            Record::Cancelled { id } => with_id("cancelled", *id),
            Record::Drain => ev("drain").build(),
            Record::Undrain => ev("undrain").build(),
        }
    }

    fn from_json(v: &Json) -> Option<Record> {
        let id = || v.get("id").and_then(Json::as_u64);
        Some(match v.get("event")?.as_str()? {
            "submitted" => Record::Submitted {
                id: id()?,
                tenant: v.get("tenant")?.as_str()?.to_string(),
                priority: u8::try_from(v.get("priority")?.as_u64()?).ok()?,
                cores: v.get("cores")?.as_u64()? as usize,
                seq: v.get("seq")?.as_u64()?,
                spec: RunSpec::from_json(&v.get("spec")?.dump()).ok()?,
            },
            "started" => Record::Started { id: id()? },
            "preempted" => Record::Preempted {
                id: id()?,
                step: v.get("step")?.as_u64()?,
            },
            "resumed" => Record::Resumed { id: id()? },
            "done" => Record::Done { id: id()? },
            "failed" => Record::Failed { id: id()? },
            "cancelled" => Record::Cancelled { id: id()? },
            "drain" => Record::Drain,
            "undrain" => Record::Undrain,
            _ => return None,
        })
    }

    /// The CRC-sealed journal line (no trailing newline).
    pub fn to_line(&self) -> String {
        frame(&self.to_json().dump())
    }

    /// Decode and verify one journal line. `None` for truncated,
    /// unparsable, or corrupted lines.
    pub fn from_line(line: &str) -> Option<Record> {
        Record::from_json(&unframe(line)?)
    }
}

/// Append-only journal writer. Every [`Journal::append`] flushes to the
/// OS before returning, so a killed process never acts on a transition
/// it did not persist.
pub struct Journal {
    file: std::fs::File,
}

impl Journal {
    /// Open (or create) the journal at `path` for appending.
    pub fn open(path: &Path) -> std::io::Result<Journal> {
        open_journal(path).map(|file| Journal { file })
    }

    /// Seal, append, and flush one record.
    pub fn append(&mut self, rec: &Record) -> std::io::Result<()> {
        append_line(&mut self.file, &rec.to_line())
    }
}

/// A job rebuilt from the journal, with the spec it was submitted with.
#[derive(Clone, Debug)]
pub struct RecoveredJob {
    /// Scheduler-facing shape (id, tenant, priority, cores, seq, state).
    pub job: Job,
    /// The spec to run it with.
    pub spec: RunSpec,
    /// Whether the job was live (Running/Preempting) when the journal
    /// ended — its world died with the old process, so recovery
    /// re-admits it as Preempted and it resumes from whatever checkpoint
    /// generation it last committed (or from its initial condition).
    pub interrupted: bool,
    /// Last step a journaled preemption checkpoint captured (0 if the
    /// job never checkpointed through a confirmed preemption).
    pub last_step: u64,
}

/// Everything replay reconstructs.
#[derive(Debug, Default)]
pub struct Replay {
    /// All journaled jobs in submit order, with their final states.
    pub jobs: Vec<RecoveredJob>,
    /// Whether a drain was in effect at the end of the journal.
    pub draining: bool,
    /// Journal lines read successfully.
    pub lines_ok: usize,
    /// Whether replay stopped early at a corrupt/truncated line.
    pub truncated: bool,
}

/// Replay a journal file. A missing file is an empty (fresh) state.
/// Replay is total: it never fails, it just stops at the first bad line.
pub fn replay(path: &Path) -> std::io::Result<Replay> {
    let (records, truncated) = read_journal(path, Record::from_line)?;
    let mut out = Replay {
        lines_ok: records.len(),
        truncated,
        ..Replay::default()
    };
    let mut jobs: Vec<RecoveredJob> = Vec::new();
    for rec in records {
        fn by_id(jobs: &mut [RecoveredJob], id: JobId) -> Option<&mut Job> {
            jobs.iter_mut().find(|r| r.job.id == id).map(|r| &mut r.job)
        }
        match rec {
            Record::Submitted {
                id,
                tenant,
                priority,
                cores,
                seq,
                spec,
            } => jobs.push(RecoveredJob {
                job: Job {
                    id,
                    tenant,
                    priority,
                    cores,
                    seq,
                    state: JobState::Queued,
                },
                spec,
                interrupted: false,
                last_step: 0,
            }),
            Record::Started { id } | Record::Resumed { id } => {
                if let Some(j) = by_id(&mut jobs, id) {
                    j.state = JobState::Running;
                }
            }
            Record::Preempted { id, step } => {
                if let Some(r) = jobs.iter_mut().find(|r| r.job.id == id) {
                    r.job.state = JobState::Preempted;
                    r.last_step = r.last_step.max(step);
                }
            }
            Record::Done { id } => {
                if let Some(j) = by_id(&mut jobs, id) {
                    j.state = JobState::Done;
                }
            }
            Record::Failed { id } => {
                if let Some(j) = by_id(&mut jobs, id) {
                    j.state = JobState::Failed;
                }
            }
            Record::Cancelled { id } => {
                if let Some(j) = by_id(&mut jobs, id) {
                    j.state = JobState::Cancelled;
                }
            }
            Record::Drain => out.draining = true,
            Record::Undrain => out.draining = false,
        }
    }
    // jobs live at the kill resume from their checkpoints
    for r in &mut jobs {
        if matches!(r.job.state, JobState::Running | JobState::Preempting) {
            r.job.state = JobState::Preempted;
            r.interrupted = true;
        }
    }
    out.jobs = jobs;
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dns_core::run::InitialCondition;
    use dns_core::Params;

    fn spec() -> RunSpec {
        RunSpec {
            name: "j".into(),
            params: Params::channel(16, 25, 16, 50.0).with_dt(1e-3),
            steps: 8,
            ckpt_every: 4,
            ic: InitialCondition::Laminar { scale: 1.0 },
        }
    }

    fn submitted(id: JobId) -> Record {
        Record::Submitted {
            id,
            tenant: "t".into(),
            priority: 5,
            cores: 1,
            seq: id - 1,
            spec: spec(),
        }
    }

    #[test]
    fn records_round_trip_through_sealed_lines() {
        let recs = [
            submitted(1),
            Record::Started { id: 1 },
            Record::Preempted { id: 1, step: 4 },
            Record::Resumed { id: 1 },
            Record::Done { id: 1 },
            Record::Failed { id: 2 },
            Record::Cancelled { id: 3 },
            Record::Drain,
            Record::Undrain,
        ];
        for r in &recs {
            let line = r.to_line();
            assert_eq!(Record::from_line(&line).as_ref(), Some(r), "line: {line}");
        }
    }

    #[test]
    fn corrupt_line_is_rejected() {
        let line = submitted(1).to_line();
        // flip a byte inside the record payload
        let bad = line.replace("\"tenant\":\"t\"", "\"tenant\":\"x\"");
        assert_ne!(bad, line);
        assert_eq!(Record::from_line(&bad), None);
        assert_eq!(Record::from_line(&line[..line.len() - 3]), None);
    }

    #[test]
    fn replay_recovers_live_jobs_and_stops_at_torn_tail() {
        let dir = std::env::temp_dir().join(format!("dns-journal-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("queue.jsonl");
        {
            let mut j = Journal::open(&path).unwrap();
            j.append(&submitted(1)).unwrap();
            j.append(&submitted(2)).unwrap();
            j.append(&Record::Started { id: 1 }).unwrap();
            j.append(&Record::Started { id: 2 }).unwrap();
            j.append(&Record::Preempted { id: 2, step: 3 }).unwrap();
            j.append(&Record::Done { id: 1 }).unwrap();
        }
        // simulate a torn final write
        {
            use std::io::Write;
            let mut f = std::fs::OpenOptions::new()
                .append(true)
                .open(&path)
                .unwrap();
            write!(f, "{{\"crc\":1,\"rec\":{{\"event\":\"sta").unwrap();
        }
        let rep = replay(&path).unwrap();
        assert!(rep.truncated);
        assert_eq!(rep.lines_ok, 6);
        assert_eq!(rep.jobs.len(), 2);
        assert_eq!(rep.jobs[0].job.state, JobState::Done);
        assert!(!rep.jobs[0].interrupted);
        // job 2 was preempted (not live) at the kill: it resumes, but
        // was cleanly checkpointed, so not marked interrupted
        assert_eq!(rep.jobs[1].job.state, JobState::Preempted);
        assert!(!rep.jobs[1].interrupted);
        assert_eq!(rep.jobs[1].spec, spec());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn replay_marks_jobs_live_at_kill_as_interrupted() {
        let dir = std::env::temp_dir().join(format!("dns-journal-live-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("queue.jsonl");
        {
            let mut j = Journal::open(&path).unwrap();
            j.append(&submitted(1)).unwrap();
            j.append(&Record::Started { id: 1 }).unwrap();
        }
        let rep = replay(&path).unwrap();
        assert!(!rep.truncated);
        assert_eq!(rep.jobs[0].job.state, JobState::Preempted);
        assert!(rep.jobs[0].interrupted);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn journal_written_before_the_pipeline_knob_was_removed_replays() {
        // `queue.jsonl` of a `dns-server` built at commit dec9e3b, cut
        // while job 1 was running again after a preemption: every
        // `submitted` record carries a spec with `"pipeline":4`
        const PARENT: &str = r#"{"crc":941936393,"rec":{"cores":1,"event":"submitted","id":1,"priority":2,"seq":0,"spec":{"ckpt_every":100,"dt":0.001,"forcing":{"kind":"pressure_gradient","value":1},"hash":"9fb5e6b435be9eaf","ic":{"kind":"laminar","scale":1},"kind":"run_spec","lx":6.283185307179586,"lz":3.141592653589793,"name":"bulk","nonlinear":true,"nu":0.0125,"nx":16,"ny":25,"nz":16,"pa":1,"pb":1,"pipeline":4,"spline_order":8,"steps":3000,"stretch":2,"threads":1,"version":1},"tenant":"acme"}}
{"crc":1590405486,"rec":{"event":"started","id":1}}
{"crc":4042718957,"rec":{"cores":1,"event":"submitted","id":2,"priority":9,"seq":1,"spec":{"ckpt_every":25,"dt":0.001,"forcing":{"kind":"pressure_gradient","value":1},"hash":"8f7283b57debcef7","ic":{"kind":"laminar","scale":1},"kind":"run_spec","lx":6.283185307179586,"lz":3.141592653589793,"name":"urgent","nonlinear":true,"nu":0.0125,"nx":16,"ny":25,"nz":16,"pa":1,"pb":1,"pipeline":4,"spline_order":8,"steps":10,"stretch":2,"threads":1,"version":1},"tenant":"ops"}}
{"crc":559838150,"rec":{"event":"preempted","id":1,"step":269}}
{"crc":1978071725,"rec":{"event":"started","id":2}}
{"crc":4071796856,"rec":{"event":"done","id":2}}
{"crc":1713657260,"rec":{"event":"resumed","id":1}}
"#;
        let dir = std::env::temp_dir().join(format!("dns-journal-parent-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("queue.jsonl");
        std::fs::write(&path, PARENT).unwrap();
        let rep = replay(&path).unwrap();
        assert!(!rep.truncated);
        assert_eq!(rep.lines_ok, 7);
        let [bulk, urgent] = &rep.jobs[..] else {
            panic!("expected two jobs, got {:?}", rep.jobs);
        };
        assert_eq!((bulk.spec.name.as_str(), bulk.spec.steps), ("bulk", 3000));
        assert_eq!(bulk.job.state, JobState::Preempted);
        assert!(bulk.interrupted);
        assert_eq!(bulk.last_step, 269);
        assert_eq!(
            (urgent.spec.name.as_str(), urgent.spec.steps),
            ("urgent", 10)
        );
        assert_eq!(urgent.job.state, JobState::Done);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn missing_journal_is_a_fresh_state() {
        let rep = replay(std::path::Path::new("/nonexistent/queue.jsonl")).unwrap();
        assert!(rep.jobs.is_empty() && !rep.truncated && rep.lines_ok == 0);
    }
}
