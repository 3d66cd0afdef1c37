//! The newline-delimited JSON protocol between `dns-cli` and the
//! campaign daemon: one request object per line in, one (or, for
//! `watch`, a stream of) response line(s) out. The grammar is specified
//! in DESIGN.md §9; both sides share these encode/decode helpers, so
//! client and server cannot drift.

use dns_core::run::RunSpec;
use dns_json::Json;

use crate::scheduler::JobId;

/// Refuse a request line longer than this (newline excluded) with a
/// typed `{"ok":false}` and close the connection: the bound on what one
/// client can make the daemon buffer.
pub const MAX_LINE_BYTES: usize = 1 << 20;

/// One client request.
// Submit carries the whole spec inline by design — requests are decoded,
// handled, and dropped, never stored in bulk
#[allow(clippy::large_enum_variant)]
#[derive(Clone, Debug, PartialEq)]
pub enum Request {
    /// Liveness probe.
    Ping,
    /// Queue a run under `tenant` at `priority`.
    Submit {
        /// The run to schedule.
        spec: RunSpec,
        /// Owning tenant.
        tenant: String,
        /// Higher runs first.
        priority: u8,
    },
    /// Snapshot of the whole queue.
    Status,
    /// Per-tenant fairness ledger: histograms and the Jain index.
    Tenants,
    /// Stream a job's health JSONL (and completion marker).
    Watch {
        /// Job to follow.
        id: JobId,
    },
    /// Cancel a job.
    Cancel {
        /// Job to cancel.
        id: JobId,
    },
    /// Checkpoint everything running and stop scheduling.
    Drain,
    /// Lift a drain.
    Undrain,
    /// Stop the daemon (it finishes journal writes and exits).
    Shutdown,
}

impl Request {
    /// Encode as one protocol line (no trailing newline).
    pub fn to_line(&self) -> String {
        let cmd = |c: &str| Json::obj().put("cmd", Json::str(c));
        match self {
            Request::Ping => cmd("ping").build(),
            Request::Submit {
                spec,
                tenant,
                priority,
            } => cmd("submit")
                .put(
                    "spec",
                    dns_json::parse(&spec.to_json()).expect("spec serializes"),
                )
                .put("tenant", Json::str(tenant))
                .put("priority", Json::num(*priority as u32))
                .build(),
            Request::Status => cmd("status").build(),
            Request::Tenants => cmd("tenants").build(),
            Request::Watch { id } => cmd("watch").put("id", Json::num(*id as f64)).build(),
            Request::Cancel { id } => cmd("cancel").put("id", Json::num(*id as f64)).build(),
            Request::Drain => cmd("drain").build(),
            Request::Undrain => cmd("undrain").build(),
            Request::Shutdown => cmd("shutdown").build(),
        }
        .dump()
    }

    /// Decode one protocol line. `Err` carries the refusal message the
    /// server sends back.
    pub fn from_line(line: &str) -> Result<Request, String> {
        let v = dns_json::parse(line).map_err(|e| format!("bad request JSON: {e}"))?;
        let id = || {
            v.get("id")
                .and_then(Json::as_u64)
                .ok_or_else(|| "missing job id".to_string())
        };
        match v.get("cmd").and_then(Json::as_str) {
            Some("ping") => Ok(Request::Ping),
            Some("submit") => {
                let spec_v = v.get("spec").ok_or("submit: missing spec")?;
                let spec =
                    RunSpec::from_json(&spec_v.dump()).map_err(|e| format!("submit: {e}"))?;
                // an absent key takes the default; a present one must be valid
                let tenant = v.get("tenant").map_or(Some("default"), Json::as_str);
                let priority = v
                    .get("priority")
                    .map_or(Some(10), |p| u8::try_from(p.as_u64()?).ok());
                Ok(Request::Submit {
                    spec,
                    tenant: tenant.ok_or("submit: tenant must be a string")?.to_string(),
                    priority: priority.ok_or("submit: priority must be an integer in 0..=255")?,
                })
            }
            Some("status") => Ok(Request::Status),
            Some("tenants") => Ok(Request::Tenants),
            Some("watch") => Ok(Request::Watch { id: id()? }),
            Some("cancel") => Ok(Request::Cancel { id: id()? }),
            Some("drain") => Ok(Request::Drain),
            Some("undrain") => Ok(Request::Undrain),
            Some("shutdown") => Ok(Request::Shutdown),
            Some(other) => Err(format!("unknown command {other:?}")),
            None => Err("missing cmd".into()),
        }
    }
}

/// `{"ok":true,...}` response line with optional extra fields, moved
/// into the reply.
pub fn ok_line<K: Into<String>>(extra: impl IntoIterator<Item = (K, Json)>) -> String {
    let mut b = Json::obj().put("ok", Json::Bool(true));
    for (k, v) in extra {
        b = b.put(k, v);
    }
    b.build().dump()
}

/// `{"ok":false,"error":...}` response line.
pub fn err_line(msg: &str) -> String {
    Json::obj()
        .put("ok", Json::Bool(false))
        .put("error", Json::str(msg))
        .build()
        .dump()
}

/// One job row in a `status` response.
#[derive(Clone, Debug, PartialEq)]
pub struct JobRow {
    /// Stable id.
    pub id: JobId,
    /// Spec display name.
    pub name: String,
    /// Owning tenant.
    pub tenant: String,
    /// Scheduling priority.
    pub priority: u8,
    /// Cores occupied while running.
    pub cores: usize,
    /// Lifecycle label (see [`crate::scheduler::JobState::label`]).
    pub state: String,
    /// Last completed step.
    pub step: u64,
    /// Step budget.
    pub steps: u64,
}

impl JobRow {
    /// Decode one row from a status response (the daemon writes it
    /// without a tree: `daemon::Server::job_table`).
    pub fn from_json(v: &Json) -> Option<JobRow> {
        Some(JobRow {
            id: v.get("id")?.as_u64()?,
            name: v.get("name")?.as_str()?.to_string(),
            tenant: v.get("tenant")?.as_str()?.to_string(),
            priority: u8::try_from(v.get("priority")?.as_u64()?).ok()?,
            cores: v.get("cores")?.as_u64()? as usize,
            state: v.get("state")?.as_str()?.to_string(),
            step: v.get("step")?.as_u64()?,
            steps: v.get("steps")?.as_u64()?,
        })
    }
}

/// One tenant row in a `tenants` response (the fairness ledger as the
/// CLI table sees it; histograms are summarized to quantiles).
#[derive(Clone, Debug, PartialEq)]
pub struct TenantRow {
    /// Tenant name.
    pub tenant: String,
    /// Jobs accepted into the queue.
    pub submitted: u64,
    /// Launches (fresh starts + resumes).
    pub launches: u64,
    /// Preemptions suffered.
    pub preemptions: u64,
    /// Jobs that reached a terminal state.
    pub finished: u64,
    /// CPU-seconds delivered.
    pub core_seconds: f64,
    /// Queue-wait samples recorded.
    pub wait_count: u64,
    /// Queue-wait p50, seconds.
    pub wait_p50: f64,
    /// Queue-wait p99, seconds.
    pub wait_p99: f64,
}

impl TenantRow {
    /// Decode one row from a `tenants` response array element.
    pub fn from_json(v: &Json) -> Option<TenantRow> {
        let qw = v.get("queue_wait")?;
        Some(TenantRow {
            tenant: v.get("tenant")?.as_str()?.to_string(),
            submitted: v.get("submitted")?.as_u64()?,
            launches: v.get("launches")?.as_u64()?,
            preemptions: v.get("preemptions")?.as_u64()?,
            finished: v.get("finished")?.as_u64()?,
            core_seconds: v.get("core_seconds")?.as_f64()?,
            wait_count: qw.get("count")?.as_u64()?,
            wait_p50: qw.get("p50")?.as_f64()?,
            wait_p99: qw.get("p99")?.as_f64()?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dns_core::run::InitialCondition;
    use dns_core::Params;

    fn spec() -> RunSpec {
        RunSpec {
            name: "rt".into(),
            params: Params::channel(16, 25, 16, 50.0).with_dt(1e-3),
            steps: 8,
            ckpt_every: 2,
            ic: InitialCondition::Laminar { scale: 1.0 },
        }
    }

    impl JobRow {
        /// A row as a `Json` tree: the oracle of the daemon's row
        /// writer.
        pub(crate) fn to_json(&self) -> Json {
            Json::obj()
                .put("id", Json::num(self.id as f64))
                .put("name", Json::str(&self.name))
                .put("tenant", Json::str(&self.tenant))
                .put("priority", Json::num(self.priority as u32))
                .put("cores", Json::num(self.cores as u32))
                .put("state", Json::str(&self.state))
                .put("step", Json::num(self.step as f64))
                .put("steps", Json::num(self.steps as f64))
                .build()
        }
    }

    /// A submit line for `spec()` with `extra` appended after the spec.
    fn submit_line(extra: &str) -> String {
        format!(
            "{{\"cmd\":\"submit\",\"spec\":{}{extra}}}",
            spec().to_json()
        )
    }

    #[test]
    fn requests_round_trip() {
        let reqs = [
            Request::Ping,
            Request::Submit {
                spec: spec(),
                tenant: "acme".into(),
                priority: 7,
            },
            Request::Status,
            Request::Tenants,
            Request::Watch { id: 3 },
            Request::Cancel { id: 9 },
            Request::Drain,
            Request::Undrain,
            Request::Shutdown,
        ];
        for r in &reqs {
            assert_eq!(Request::from_line(&r.to_line()).as_ref(), Ok(r));
        }
    }

    #[test]
    fn malformed_requests_are_typed_refusals() {
        assert!(Request::from_line("not json").is_err());
        assert!(Request::from_line("{\"cmd\":\"frobnicate\"}").is_err());
        assert!(Request::from_line("{\"cmd\":\"watch\"}").is_err());
        // a submit whose spec fails validation is refused at the
        // protocol layer, before it ever reaches the scheduler
        let bad = "{\"cmd\":\"submit\",\"spec\":{\"kind\":\"run_spec\"}}";
        assert!(Request::from_line(bad).is_err());
    }

    #[test]
    fn submit_refuses_a_present_but_invalid_priority_or_tenant() {
        for (extra, error) in [
            (",\"priority\":300", "priority"),
            (",\"priority\":-1", "priority"),
            (",\"priority\":2.5", "priority"),
            (",\"priority\":\"high\"", "priority"),
            (",\"priority\":null", "priority"),
            (",\"tenant\":7", "tenant"),
            (",\"tenant\":null", "tenant"),
        ] {
            let got = Request::from_line(&submit_line(extra));
            assert!(
                got.as_ref().is_err_and(|e| e.contains(error)),
                "{extra}: {got:?}"
            );
        }
    }

    #[test]
    fn submit_keeps_the_defaults_for_absent_keys() {
        let want = |tenant: &str, priority| Request::Submit {
            spec: spec(),
            tenant: tenant.into(),
            priority,
        };
        let cases = [
            ("", want("default", 10)),
            (",\"priority\":255", want("default", 255)),
            (",\"tenant\":\"ops\",\"priority\":0", want("ops", 0)),
        ];
        for (extra, want) in cases {
            assert_eq!(Request::from_line(&submit_line(extra)), Ok(want), "{extra}");
        }
    }

    #[test]
    fn rows_refuse_a_priority_past_u8() {
        let row = JobRow {
            id: 4,
            name: "n".into(),
            tenant: "t".into(),
            priority: 3,
            cores: 2,
            state: "running".into(),
            step: 17,
            steps: 40,
        };
        let line = row
            .to_json()
            .dump()
            .replace("\"priority\":3", "\"priority\":259");
        assert_eq!(JobRow::from_json(&dns_json::parse(&line).unwrap()), None);
    }

    #[test]
    fn job_rows_round_trip() {
        let row = JobRow {
            id: 4,
            name: "n".into(),
            tenant: "t".into(),
            priority: 3,
            cores: 2,
            state: "running".into(),
            step: 17,
            steps: 40,
        };
        assert_eq!(JobRow::from_json(&row.to_json()), Some(row));
    }
}
