//! The campaign daemon: a single-threaded nonblocking poll loop that
//! accepts newline-delimited JSON requests on a local TCP socket,
//! journals every scheduling transition before acting on it, and drives
//! jobs through [`dns_core::run::RunHandle`] worlds in-process.
//!
//! One tick of the loop:
//!
//! 1. accept new connections (nonblocking),
//! 2. read and answer complete request lines,
//! 3. pump job lifecycles — confirm settled pauses as preemptions,
//!    settle completions/failures/cancellations, then ask the scheduler
//!    to [`plan`](crate::scheduler::Scheduler::plan) and execute the
//!    resulting starts/preempts/resumes,
//! 4. pump `watch` subscriptions with freshly appended health JSONL,
//! 5. flush pending response bytes.
//!
//! On startup the daemon replays its journal: every job that was queued,
//! running, or checkpointing when the last process died is re-admitted
//! (live jobs as Preempted, resuming from their last committed
//! checkpoint generation — or their initial condition if none landed)
//! and a `recovery.json` artifact records what was recovered.

use std::collections::BTreeMap;
use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use dns_core::health::MonitorConfig;
use dns_core::run::{ResumePolicy, RunConfig, RunHandle, RunSpec, RunStatus};
use dns_health::sse;
use dns_health::{SentinelConfig, StragglerConfig};
use dns_json::Json;
use dns_telemetry::{count, count_tenant, Counter};

use crate::http::{self, HttpConn, Parse, Route};
use crate::journal::{replay, Journal, Record};
use crate::metrics::{self, MetricsView};
use crate::proto::{err_line, ok_line, JobRow, Request};
use crate::scheduler::{Action, JobId, JobState, Scheduler, SchedulerConfig};
use crate::tenants::{hist_json, TenantTable};

/// Daemon configuration (see `dns-server --help` for the flag view).
#[derive(Clone, Debug)]
pub struct ServerConfig {
    /// Listen address; port 0 picks a free port, announced on stdout
    /// and in `data_dir/addr`.
    pub addr: String,
    /// HTTP facade listen address (`/metrics`, `/api/v1/*`); port 0
    /// picks a free port, announced in `data_dir/http_addr`.
    pub http_addr: String,
    /// Root of all server state: the journal, the addr file, one
    /// `job-N/` directory per job.
    pub data_dir: PathBuf,
    /// Total cores jobs may occupy at once.
    pub total_cores: usize,
    /// Max cores one tenant may occupy at once.
    pub tenant_quota: Option<usize>,
    /// Poll-loop tick.
    pub tick: Duration,
}

impl ServerConfig {
    /// Defaults: any free port, `target/dns-server`, 4 cores, no quota.
    pub fn new(data_dir: impl Into<PathBuf>) -> ServerConfig {
        ServerConfig {
            addr: "127.0.0.1:0".into(),
            http_addr: "127.0.0.1:0".into(),
            data_dir: data_dir.into(),
            total_cores: 4,
            tenant_quota: None,
            tick: Duration::from_millis(3),
        }
    }
}

/// What the daemon last asked a job's world to do, so a settled handle
/// is interpreted correctly.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Pending {
    None,
    Preempt,
    Cancel,
}

/// Daemon-side state of one job (the scheduler holds the shape; this
/// holds the spec and the world).
struct JobRun {
    spec: RunSpec,
    handle: Option<RunHandle>,
    /// When the job last entered a waiting state (submission, or the
    /// moment a preemption was confirmed); launches measure queue wait
    /// from here.
    waiting_since: Instant,
    /// First time cores were handed over — terminal states record the
    /// wall duration from here into the tenant run-duration histogram.
    first_launch: Option<Instant>,
    pending: Pending,
    /// Times this job has been launched in this process (controls
    /// whether a fresh spawn appends to the health log).
    launches: usize,
    last_step: u64,
}

struct Conn {
    stream: TcpStream,
    inbuf: Vec<u8>,
    outbuf: Vec<u8>,
    watch: Option<JobId>,
    watch_offset: u64,
    /// Scheduler state of the watched job at the last pump, so state
    /// transitions surface as typed `watch_event` lines instead of the
    /// stream silently going quiet across a preemption.
    watch_state: Option<JobState>,
    /// Close once the outbuf drains.
    closing: bool,
}

struct Server {
    cfg: ServerConfig,
    scheduler: Scheduler,
    journal: Journal,
    jobs: BTreeMap<JobId, JobRun>,
    tenants: TenantTable,
    shutdown: bool,
}

impl Server {
    fn job_dir(&self, id: JobId) -> PathBuf {
        self.cfg.data_dir.join(format!("job-{id}"))
    }

    fn health_log(&self, id: JobId) -> PathBuf {
        self.job_dir(id).join("health.jsonl")
    }

    fn run_config(&self, id: JobId, resume: ResumePolicy, attempt_base: usize) -> RunConfig {
        let dir = self.job_dir(id);
        RunConfig {
            ckpt_stem: dir.join("state"),
            resume,
            final_checkpoint: true,
            max_restarts: 2,
            recv_timeout: dns_minimpi::RECV_TIMEOUT,
            health: Some(MonitorConfig {
                log: Some(self.health_log(id)),
                sentinel_every: 1,
                straggler: StragglerConfig {
                    factor: 1.5,
                    consecutive: 3,
                },
                sentinels: SentinelConfig::default(),
            }),
            health_attempt_base: attempt_base,
            stats: None,
        }
    }

    fn handle_request(&mut self, req: Request, conn: &mut Conn) {
        match req {
            Request::Ping => conn.push_line(&ok_line(&[])),
            Request::Submit {
                spec,
                tenant,
                priority,
            } => {
                if let Err(e) = spec.validate() {
                    conn.push_line(&err_line(&format!("invalid spec: {e}")));
                    return;
                }
                let cores = spec.cores();
                match self.scheduler.submit(&tenant, priority, cores) {
                    Ok(id) => {
                        let job = self.scheduler.job(id).unwrap();
                        let rec = Record::Submitted {
                            id,
                            tenant: tenant.clone(),
                            priority,
                            cores,
                            seq: job.seq,
                            spec: spec.clone(),
                        };
                        if let Err(e) = self.journal.append(&rec) {
                            conn.push_line(&err_line(&format!("journal write failed: {e}")));
                            self.scheduler.cancelled(id);
                            return;
                        }
                        self.jobs.insert(
                            id,
                            JobRun {
                                spec,
                                handle: None,
                                waiting_since: Instant::now(),
                                first_launch: None,
                                pending: Pending::None,
                                launches: 0,
                                last_step: 0,
                            },
                        );
                        count(Counter::JobsSubmitted, 1);
                        count_tenant(&tenant, Counter::JobsSubmitted, 1);
                        self.tenants.entry(&tenant).submitted += 1;
                        conn.push_line(&ok_line(&[("id", Json::num(id as f64))]));
                    }
                    Err(e) => conn.push_line(&err_line(&e.to_string())),
                }
            }
            Request::Status => {
                let pairs = self.status_pairs();
                conn.push_line(&ok_line(&pairs));
            }
            Request::Tenants => {
                let v = self.tenants.to_json();
                conn.push_line(&ok_line(&[
                    (
                        "tenants",
                        v.get("tenants").cloned().unwrap_or(Json::Arr(vec![])),
                    ),
                    (
                        "jain_fairness",
                        v.get("jain_fairness").cloned().unwrap_or(Json::num(1.0)),
                    ),
                ]));
            }
            Request::Watch { id } => match self.scheduler.job(id) {
                Some(_) => {
                    conn.push_line(&ok_line(&[("watching", Json::num(id as f64))]));
                    conn.watch = Some(id);
                    conn.watch_offset = 0;
                }
                None => conn.push_line(&err_line(&format!("no job {id}"))),
            },
            Request::Cancel { id } => {
                let Some(job) = self.scheduler.job(id) else {
                    conn.push_line(&err_line(&format!("no job {id}")));
                    return;
                };
                if job.state.is_terminal() {
                    conn.push_line(&err_line(&format!(
                        "job {id} is already {}",
                        job.state.label()
                    )));
                    return;
                }
                match job.state {
                    JobState::Queued | JobState::Preempted => {
                        self.scheduler.cancelled(id);
                        let _ = self.journal.append(&Record::Cancelled { id });
                        if let Some(run) = self.jobs.get_mut(&id) {
                            // a preempted world has already wound down
                            run.handle = None;
                        }
                        self.note_terminal(id);
                        conn.push_line(&ok_line(&[("cancelled", Json::num(id as f64))]));
                    }
                    _ => {
                        // Running or Preempting: stop the world first;
                        // the pump confirms and frees the cores when it
                        // settles
                        if let Some(run) = self.jobs.get_mut(&id) {
                            if let Some(h) = run.handle.as_mut() {
                                h.cancel();
                            }
                            run.pending = Pending::Cancel;
                        }
                        conn.push_line(&ok_line(&[("cancelling", Json::num(id as f64))]));
                    }
                }
            }
            Request::Drain => {
                self.scheduler.drain();
                let _ = self.journal.append(&Record::Drain);
                conn.push_line(&ok_line(&[("draining", Json::Bool(true))]));
            }
            Request::Undrain => {
                self.scheduler.resume_scheduling();
                let _ = self.journal.append(&Record::Undrain);
                conn.push_line(&ok_line(&[("draining", Json::Bool(false))]));
            }
            Request::Shutdown => {
                self.shutdown = true;
                conn.push_line(&ok_line(&[("shutting_down", Json::Bool(true))]));
            }
        }
    }

    /// Settle any worlds that have wound down, then plan and execute.
    fn pump_jobs(&mut self) {
        // 1. interpret settled handles
        let ids: Vec<JobId> = self.jobs.keys().copied().collect();
        for id in ids {
            let (status, settled, step) = {
                let run = self.jobs.get_mut(&id).unwrap();
                let Some(h) = run.handle.as_mut() else {
                    continue;
                };
                run.last_step = run.last_step.max(h.current_step());
                (h.status(), h.settle(), h.current_step())
            };
            if !settled {
                continue;
            }
            match status {
                RunStatus::Running => {}
                RunStatus::Paused => {
                    // the preemption (or drain) checkpoint committed
                    if self.scheduler.job(id).map(|j| j.state) == Some(JobState::Preempting) {
                        self.scheduler.preempted(id);
                        let _ = self.journal.append(&Record::Preempted { id, step });
                        count(Counter::JobsPreempted, 1);
                        let tenant = self.tenant_of(id);
                        count_tenant(&tenant, Counter::JobsPreempted, 1);
                        self.tenants.entry(&tenant).preemptions += 1;
                        let run = self.jobs.get_mut(&id).unwrap();
                        run.pending = Pending::None;
                        // the re-queue wait clock starts now
                        run.waiting_since = Instant::now();
                    }
                }
                RunStatus::Done | RunStatus::Failed => {
                    let ok = status == RunStatus::Done;
                    let outcome = {
                        let run = self.jobs.get_mut(&id).unwrap();
                        run.pending = Pending::None;
                        run.handle.take().unwrap().join()
                    };
                    self.jobs.get_mut(&id).unwrap().last_step = step.max(outcome.steps_done);
                    self.scheduler.finished(id, ok);
                    let rec = if ok {
                        Record::Done { id }
                    } else {
                        Record::Failed { id }
                    };
                    let _ = self.journal.append(&rec);
                    self.note_terminal(id);
                    self.write_outcome(id, &outcome);
                }
                RunStatus::Cancelled => {
                    let outcome = {
                        let run = self.jobs.get_mut(&id).unwrap();
                        run.pending = Pending::None;
                        run.handle.take().unwrap().join()
                    };
                    self.jobs.get_mut(&id).unwrap().last_step = step.max(outcome.steps_done);
                    self.scheduler.cancelled(id);
                    let _ = self.journal.append(&Record::Cancelled { id });
                    self.note_terminal(id);
                    self.write_outcome(id, &outcome);
                }
            }
        }
        // 2. plan and execute
        for action in self.scheduler.plan() {
            match action {
                Action::Start(id) => self.launch(id, false),
                Action::Resume(id) => self.launch(id, true),
                Action::Preempt(id) => {
                    if let Some(run) = self.jobs.get_mut(&id) {
                        if run.pending != Pending::Cancel {
                            if let Some(h) = run.handle.as_ref() {
                                h.pause();
                            }
                            run.pending = Pending::Preempt;
                        }
                    }
                }
            }
        }
    }

    /// Execute a Start or Resume action for `id`.
    fn launch(&mut self, id: JobId, resume: bool) {
        let dir = self.job_dir(id);
        let _ = std::fs::create_dir_all(&dir);
        let tenant = self.tenant_of(id);
        let run = self.jobs.get_mut(&id).expect("launch: unknown job");
        // queue wait: submission (fresh start) or preemption (resume)
        // until this handover — the satellite the ROADMAP flagged:
        // recorded globally *and* attributed to the owning tenant
        let waited = run.waiting_since.elapsed();
        let waited_us = waited.as_micros() as u64;
        if resume {
            let _ = self.journal.append(&Record::Resumed { id });
            count(Counter::JobsResumed, 1);
            count_tenant(&tenant, Counter::JobsResumed, 1);
        } else {
            let _ = self.journal.append(&Record::Started { id });
            count(Counter::QueueWaitUs, waited_us);
        }
        count_tenant(&tenant, Counter::QueueWaitUs, waited_us);
        let stats = self.tenants.entry(&tenant);
        stats.launches += 1;
        stats.queue_wait.record(waited.as_secs_f64());
        let run = self.jobs.get_mut(&id).unwrap();
        if run.first_launch.is_none() {
            run.first_launch = Some(Instant::now());
        }
        if resume {
            if let Some(h) = run.handle.as_mut() {
                // the paused world is still in-process; relaunch it
                h.resume().expect("resume a paused handle");
                run.launches += 1;
                return;
            }
        }
        // fresh spawn: first start, or a resume recovered from the
        // journal (the old process's world is gone; restore from the
        // last committed generation if one landed)
        let policy = if resume {
            ResumePolicy::IfPresent
        } else {
            ResumePolicy::Fresh
        };
        let attempt_base = if run.launches > 0 || resume { 1 } else { 0 };
        let cfg = self.run_config(id, policy, attempt_base);
        let run = self.jobs.get_mut(&id).unwrap();
        run.handle = Some(RunHandle::spawn(run.spec.clone(), cfg));
        run.launches += 1;
        run.pending = Pending::None;
    }

    /// `job-N/outcome.json`: final status, steps, restarts, and the
    /// supervisor's recovery timeline.
    fn write_outcome(&self, id: JobId, outcome: &dns_core::run::RunOutcome) {
        let path = self.job_dir(id).join("outcome.json");
        let status = match outcome.status {
            RunStatus::Done => "done",
            RunStatus::Failed => "failed",
            RunStatus::Cancelled => "cancelled",
            RunStatus::Paused => "paused",
            RunStatus::Running => "running",
        };
        let text = Json::obj()
            .put("kind", Json::str("job_outcome"))
            .put("id", Json::num(id as f64))
            .put("status", Json::str(status))
            .put("steps_done", Json::num(outcome.steps_done as f64))
            .put("restarts", Json::num(outcome.restarts as u32))
            .put(
                "recovery_events",
                dns_json::parse(&dns_resilience::events_to_json(&outcome.events))
                    .unwrap_or(Json::Arr(vec![])),
            )
            .build()
            .dump();
        let _ = std::fs::write(path, text + "\n");
    }

    /// Owning tenant of a job (empty for unknown ids, which only happens
    /// on internal logic errors — the scheduler never forgets a job).
    fn tenant_of(&self, id: JobId) -> String {
        self.scheduler
            .job(id)
            .map(|j| j.tenant.clone())
            .unwrap_or_default()
    }

    /// Per-tenant bookkeeping when a job reaches a terminal state: count
    /// it finished and, if it ever held cores, record its wall duration.
    fn note_terminal(&mut self, id: JobId) {
        let tenant = self.tenant_of(id);
        let first_launch = self.jobs.get(&id).and_then(|r| r.first_launch);
        let stats = self.tenants.entry(&tenant);
        stats.finished += 1;
        if let Some(t0) = first_launch {
            stats.run_duration.record(t0.elapsed().as_secs_f64());
        }
    }

    /// Integrate delivered core-seconds over one tick: every job holding
    /// cores (running or still checkpointing out) bills its tenant.
    fn account_cores(&mut self, dt_secs: f64) {
        if dt_secs <= 0.0 {
            return;
        }
        let held: Vec<(String, usize)> = self
            .scheduler
            .jobs()
            .filter(|j| matches!(j.state, JobState::Running | JobState::Preempting))
            .map(|j| (j.tenant.clone(), j.cores))
            .collect();
        for (tenant, cores) in held {
            self.tenants.entry(&tenant).core_seconds += cores as f64 * dt_secs;
        }
    }

    /// The `status` response fields, shared verbatim between the line
    /// protocol (`ok_line`) and `GET /api/v1/jobs`.
    fn status_pairs(&self) -> Vec<(&'static str, Json)> {
        let rows: Vec<Json> = self
            .scheduler
            .jobs()
            .map(|j| {
                let run = self.jobs.get(&j.id);
                JobRow {
                    id: j.id,
                    name: run.map(|r| r.spec.name.clone()).unwrap_or_default(),
                    tenant: j.tenant.clone(),
                    priority: j.priority,
                    cores: j.cores,
                    state: j.state.label().to_string(),
                    step: run.map(|r| r.last_step).unwrap_or(0),
                    steps: run.map(|r| r.spec.steps).unwrap_or(0),
                }
                .to_json()
            })
            .collect();
        vec![
            ("jobs", Json::Arr(rows)),
            ("free_cores", Json::num(self.scheduler.free_cores() as u32)),
            ("total_cores", Json::num(self.cfg.total_cores as u32)),
            ("draining", Json::Bool(self.scheduler.draining())),
            ("queue_wait", hist_json(&self.tenants.queue_wait_all())),
        ]
    }

    fn pairs_to_json(pairs: Vec<(&'static str, Json)>) -> Json {
        let mut b = Json::obj();
        for (k, v) in pairs {
            b = b.put(k, v);
        }
        b.build()
    }

    /// `GET /api/v1/queue`: jobs waiting for cores, in scheduler order.
    fn queue_json(&self) -> Json {
        let waiting: Vec<Json> = self
            .scheduler
            .jobs()
            .filter(|j| matches!(j.state, JobState::Queued | JobState::Preempted))
            .map(|j| {
                Json::obj()
                    .put("id", Json::num(j.id as f64))
                    .put("tenant", Json::str(&j.tenant))
                    .put("priority", Json::num(j.priority as u32))
                    .put("cores", Json::num(j.cores as u32))
                    .put("state", Json::str(j.state.label()))
                    .build()
            })
            .collect();
        Json::obj()
            .put("queue", Json::Arr(waiting))
            .put("free_cores", Json::num(self.scheduler.free_cores() as u32))
            .put("total_cores", Json::num(self.cfg.total_cores as u32))
            .put("draining", Json::Bool(self.scheduler.draining()))
            .build()
    }

    /// Assemble the `/metrics` body from live state via the pure
    /// renderer in [`crate::metrics`].
    fn metrics_body(&self) -> String {
        let mut by_state = [
            ("queued", 0usize),
            ("running", 0),
            ("preempting", 0),
            ("preempted", 0),
            ("done", 0),
            ("failed", 0),
            ("cancelled", 0),
        ];
        for j in self.scheduler.jobs() {
            if let Some(slot) = by_state.iter_mut().find(|(l, _)| *l == j.state.label()) {
                slot.1 += 1;
            }
        }
        let snapshot = dns_telemetry::snapshot();
        metrics::render(&MetricsView {
            total_cores: self.cfg.total_cores,
            free_cores: self.scheduler.free_cores(),
            draining: self.scheduler.draining(),
            jobs_by_state: &by_state,
            tenants: &self.tenants,
            snapshot: &snapshot,
        })
    }

    /// Answer a browser/scraper connection once its request head is
    /// complete. Never blocks: partial heads simply stay buffered.
    fn handle_http(&mut self, conn: &mut HttpConn) {
        if conn.responded {
            return;
        }
        let commit = |conn: &mut HttpConn, bytes: Vec<u8>| {
            conn.outbuf.extend_from_slice(&bytes);
            conn.responded = true;
            conn.closing = true;
        };
        match http::parse_request(&conn.inbuf) {
            Parse::Incomplete => {}
            Parse::TooLarge => commit(
                conn,
                http::error_response(431, "Request Header Fields Too Large"),
            ),
            Parse::Bad => commit(conn, http::error_response(400, "Bad Request")),
            Parse::NotGet => commit(conn, http::error_response(405, "Method Not Allowed")),
            Parse::Get { path } => match http::route(&path) {
                Route::Metrics => commit(
                    conn,
                    http::response(
                        200,
                        "OK",
                        "text/plain; version=0.0.4; charset=utf-8",
                        &self.metrics_body(),
                    ),
                ),
                Route::Jobs => {
                    let body = Self::pairs_to_json(self.status_pairs()).dump() + "\n";
                    commit(conn, http::response(200, "OK", "application/json", &body));
                }
                Route::Tenants => {
                    let body = self.tenants.to_json().dump() + "\n";
                    commit(conn, http::response(200, "OK", "application/json", &body));
                }
                Route::Queue => {
                    let body = self.queue_json().dump() + "\n";
                    commit(conn, http::response(200, "OK", "application/json", &body));
                }
                Route::JobHealth(id) => {
                    if self.scheduler.job(id).is_none() {
                        commit(conn, http::error_response(404, "Not Found"));
                    } else {
                        // stream: head now, events as the log grows
                        conn.outbuf.extend_from_slice(&http::sse_head());
                        conn.responded = true;
                        conn.sse = Some((id, 0));
                    }
                }
                Route::NotFound => commit(conn, http::error_response(404, "Not Found")),
            },
        }
    }

    /// Follow a health log for an SSE subscriber: frame freshly appended
    /// complete lines as `data:` events; emit a named `done` event and
    /// close once the job is terminal.
    fn pump_http_sse(&mut self, conn: &mut HttpConn) {
        let Some((id, offset)) = conn.sse else { return };
        let path = self.health_log(id);
        let mut new_offset = offset;
        if let Ok(bytes) = std::fs::read(&path) {
            if bytes.len() as u64 > offset {
                let new = &bytes[offset as usize..];
                if let Some(last_nl) = new.iter().rposition(|&b| b == b'\n') {
                    let chunk = String::from_utf8_lossy(&new[..=last_nl]);
                    conn.outbuf
                        .extend_from_slice(sse::sse_data(&chunk).as_bytes());
                    new_offset = offset + last_nl as u64 + 1;
                }
            }
        }
        conn.sse = Some((id, new_offset));
        if let Some(s) = self.scheduler.job(id).map(|j| j.state) {
            if s.is_terminal() {
                let payload = Json::obj()
                    .put("state", Json::str(s.label()))
                    .build()
                    .dump();
                conn.outbuf
                    .extend_from_slice(sse::sse_event("done", &payload).as_bytes());
                conn.sse = None;
                conn.closing = true;
            }
        }
    }

    /// Send a watcher any freshly appended complete health-log lines;
    /// close the stream with a `done` marker once the job is terminal
    /// and fully drained.
    fn pump_watch(&mut self, conn: &mut Conn) {
        let Some(id) = conn.watch else { return };
        let path = self.health_log(id);
        if let Ok(bytes) = std::fs::read(&path) {
            let len = bytes.len() as u64;
            if len > conn.watch_offset {
                let new = &bytes[conn.watch_offset as usize..];
                // forward only complete lines; a torn tail waits for the
                // next tick
                if let Some(last_nl) = new.iter().rposition(|&b| b == b'\n') {
                    conn.outbuf.extend_from_slice(&new[..=last_nl]);
                    conn.watch_offset += last_nl as u64 + 1;
                }
            }
        }
        let state = self.scheduler.job(id).map(|j| j.state);
        if let Some(s) = state {
            // surface scheduler transitions as typed events so a watcher
            // can tell "preempted, will resume" from "stream went quiet"
            let prev = conn.watch_state.replace(s);
            if prev.is_some() && prev != Some(s) {
                let event = match s {
                    JobState::Preempting => Some("preempting"),
                    JobState::Preempted => Some("preempted"),
                    JobState::Running if prev == Some(JobState::Preempted) => Some("resumed"),
                    _ => None,
                };
                if let Some(ev) = event {
                    let line = Json::obj()
                        .put("watch_event", Json::str(ev))
                        .put("id", Json::num(id as f64))
                        .put("state", Json::str(s.label()))
                        .build()
                        .dump();
                    conn.push_line(&line);
                }
            }
            if s.is_terminal() {
                let done = Json::obj()
                    .put("done", Json::Bool(true))
                    .put("state", Json::str(s.label()))
                    .build()
                    .dump();
                conn.push_line(&done);
                conn.watch = None;
                conn.closing = true;
            }
        }
    }
}

impl Conn {
    fn push_line(&mut self, line: &str) {
        self.outbuf.extend_from_slice(line.as_bytes());
        self.outbuf.push(b'\n');
    }

    /// Read what's available; returns false when the peer hung up.
    fn pump_read(&mut self) -> bool {
        let mut buf = [0u8; 4096];
        loop {
            match self.stream.read(&mut buf) {
                Ok(0) => return false,
                Ok(n) => self.inbuf.extend_from_slice(&buf[..n]),
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => return true,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(_) => return false,
            }
        }
    }

    /// Pop one complete request line from the input buffer.
    fn next_line(&mut self) -> Option<String> {
        let nl = self.inbuf.iter().position(|&b| b == b'\n')?;
        let line: Vec<u8> = self.inbuf.drain(..=nl).collect();
        Some(String::from_utf8_lossy(&line[..nl]).into_owned())
    }

    /// Write what the socket will take; returns false on a dead peer.
    fn pump_write(&mut self) -> bool {
        while !self.outbuf.is_empty() {
            match self.stream.write(&self.outbuf) {
                Ok(0) => return false,
                Ok(n) => {
                    self.outbuf.drain(..n);
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => return true,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(_) => return false,
            }
        }
        true
    }
}

/// Write the post-replay recovery artifact (only when something was
/// actually recovered): which jobs came back, in what state, and
/// whether the journal had a torn tail.
fn write_recovery_artifact(dir: &Path, rep: &crate::journal::Replay) {
    let recovered: Vec<Json> = rep
        .jobs
        .iter()
        .filter(|r| !r.job.state.is_terminal())
        .map(|r| {
            Json::obj()
                .put("id", Json::num(r.job.id as f64))
                .put("tenant", Json::str(&r.job.tenant))
                .put("state", Json::str(r.job.state.label()))
                .put("interrupted", Json::Bool(r.interrupted))
                .put("name", Json::str(&r.spec.name))
                .build()
        })
        .collect();
    if recovered.is_empty() {
        return;
    }
    let text = Json::obj()
        .put("kind", Json::str("server_recovery"))
        .put("recovered", Json::Arr(recovered))
        .put("journal_lines", Json::num(rep.lines_ok as f64))
        .put("journal_truncated", Json::Bool(rep.truncated))
        .build()
        .dump();
    let _ = std::fs::write(dir.join("recovery.json"), text + "\n");
}

/// Run the daemon until a `shutdown` request. Blocks the calling
/// thread; returns after the final response bytes flush.
pub fn serve(cfg: ServerConfig) -> std::io::Result<()> {
    std::fs::create_dir_all(&cfg.data_dir)?;
    let journal_path = cfg.data_dir.join("queue.jsonl");

    // replay first, then reopen for appending: recovery is read-only
    let rep = replay(&journal_path)?;
    let mut scheduler = Scheduler::new(SchedulerConfig {
        total_cores: cfg.total_cores,
        tenant_quota: cfg.tenant_quota,
    });
    let mut jobs: BTreeMap<JobId, JobRun> = BTreeMap::new();
    for r in &rep.jobs {
        scheduler.restore(r.job.clone());
        jobs.insert(
            r.job.id,
            JobRun {
                spec: r.spec.clone(),
                handle: None,
                waiting_since: Instant::now(),
                first_launch: None,
                pending: Pending::None,
                launches: 0,
                last_step: r.last_step,
            },
        );
    }
    if rep.draining {
        scheduler.drain();
    }
    write_recovery_artifact(&cfg.data_dir, &rep);
    let recovered_live = rep.jobs.iter().filter(|r| r.interrupted).count();
    if recovered_live > 0 {
        println!("dns-server: recovered {recovered_live} interrupted job(s) from the journal");
    }

    // the facade's per-tenant counters flow through dns-telemetry; make
    // sure the substrate is counting (a host embedding serve() may have
    // already picked a deeper level — leave that alone). Counters only:
    // nothing here reads span timelines, and at `Phases` every step of
    // every job would add to them for as long as the daemon lives
    if !dns_telemetry::enabled() {
        dns_telemetry::set_level(dns_telemetry::Level::Counters);
    }

    let listener = TcpListener::bind(&cfg.addr)?;
    listener.set_nonblocking(true)?;
    let local = listener.local_addr()?;
    let http_listener = TcpListener::bind(&cfg.http_addr)?;
    http_listener.set_nonblocking(true)?;
    let http_local = http_listener.local_addr()?;
    // announce the ports (port 0 resolves here) on stdout and on disk
    println!("dns-server: listening on {local}");
    println!("dns-server: http facade on {http_local}");
    std::io::stdout().flush()?;
    let addr_tmp = cfg.data_dir.join("addr.tmp");
    std::fs::write(&addr_tmp, format!("{local}\n"))?;
    std::fs::rename(&addr_tmp, cfg.data_dir.join("addr"))?;
    let http_tmp = cfg.data_dir.join("http_addr.tmp");
    std::fs::write(&http_tmp, format!("{http_local}\n"))?;
    std::fs::rename(&http_tmp, cfg.data_dir.join("http_addr"))?;

    let mut server = Server {
        scheduler,
        journal: Journal::open(&journal_path)?,
        jobs,
        tenants: TenantTable::new(),
        shutdown: false,
        cfg,
    };
    let mut conns: Vec<Conn> = Vec::new();
    let mut hconns: Vec<HttpConn> = Vec::new();
    let mut last_tick = Instant::now();
    loop {
        // 1. accept
        if !server.shutdown {
            loop {
                match listener.accept() {
                    Ok((stream, _)) => {
                        stream.set_nonblocking(true)?;
                        conns.push(Conn {
                            stream,
                            inbuf: Vec::new(),
                            outbuf: Vec::new(),
                            watch: None,
                            watch_offset: 0,
                            watch_state: None,
                            closing: false,
                        });
                    }
                    Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                    Err(e) => return Err(e),
                }
            }
            loop {
                match http_listener.accept() {
                    Ok((stream, _)) => {
                        stream.set_nonblocking(true)?;
                        hconns.push(HttpConn::new(stream));
                    }
                    Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                    Err(e) => return Err(e),
                }
            }
        }
        // 2. read + answer
        for conn in conns.iter_mut() {
            if conn.closing {
                continue;
            }
            if !conn.pump_read() {
                conn.closing = true;
            }
            while let Some(line) = conn.next_line() {
                if line.trim().is_empty() {
                    continue;
                }
                match Request::from_line(&line) {
                    Ok(req) => server.handle_request(req, conn),
                    Err(e) => conn.push_line(&err_line(&e)),
                }
            }
        }
        // 2b. http: read, answer complete requests (never blocks on a
        // partial head — the slowloris case just stays buffered)
        for hc in hconns.iter_mut() {
            if hc.closing {
                continue;
            }
            if !hc.pump_read() {
                hc.closing = true;
            }
            server.handle_http(hc);
        }
        // 3. jobs
        server.pump_jobs();
        // 3b. fairness ledger: bill this tick's core-seconds
        let now = Instant::now();
        server.account_cores(now.duration_since(last_tick).as_secs_f64());
        last_tick = now;
        // 4. watchers (line-protocol and SSE)
        for conn in conns.iter_mut() {
            server.pump_watch(conn);
        }
        for hc in hconns.iter_mut() {
            server.pump_http_sse(hc);
        }
        // 5. flush, reap dead connections
        conns.retain_mut(|c| {
            let alive = c.pump_write();
            alive && !(c.closing && c.outbuf.is_empty())
        });
        hconns.retain_mut(|c| {
            let alive = c.pump_write();
            alive && !(c.closing && c.outbuf.is_empty())
        });
        if server.shutdown && conns.iter().all(|c| c.outbuf.is_empty()) {
            break;
        }
        std::thread::sleep(server.cfg.tick);
    }
    Ok(())
}
