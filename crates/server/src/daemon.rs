//! The campaign daemon: one event loop that answers newline-delimited
//! JSON requests on a local TCP socket, journals every scheduling
//! transition before acting on it, and drives jobs through
//! [`dns_core::run::RunHandle`] worlds in-process.
//!
//! All daemon state lives on the thread that calls [`serve`], which
//! blocks on one channel of events and never wakes on a timer:
//!
//! * one thread per listener blocks in `accept` and gives each new
//!   connection a thread of its own;
//! * a connection thread does that connection's blocking I/O and nothing
//!   else: it reads a request line (or an HTTP head), sends it to the
//!   loop with a reply channel, and writes whatever comes back. A
//!   `watch` or SSE stream keeps writing until the loop drops its end,
//!   so a slow or stalled client blocks only its own thread;
//! * each job's world reports every root-rank step, and its own exit,
//!   through a [`RunObserver`].
//!
//! One pass of the loop, per wake-up:
//!
//! 1. bill delivered core-seconds up to now, so `/metrics` and
//!    `/api/v1/tenants` see them;
//! 2. handle the event and drain the rest: answer requests, and confirm
//!    the worlds that exited — a settled pause becomes a preemption,
//!    completions, failures and cancellations become terminal;
//! 3. ask the scheduler to [`plan`](crate::scheduler::Scheduler::plan)
//!    and execute the resulting starts/preempts/resumes;
//! 4. send the `watch` and SSE followers of every job that stepped,
//!    exited or changed state its freshly appended health JSONL.
//!
//! On startup the daemon replays its journal: every job that was queued,
//! running, or checkpointing when the last process died is re-admitted
//! (live jobs as Preempted, resuming from their last committed
//! checkpoint generation — or their initial condition if none landed)
//! and a `recovery.json` artifact records what was recovered.

use std::collections::{BTreeMap, BTreeSet};
use std::fmt::Write as _;
use std::io::{BufRead, BufReader, ErrorKind, Read, Seek, SeekFrom, Write};
use std::net::{Ipv4Addr, Ipv6Addr, Shutdown, SocketAddr, TcpListener, TcpStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{self, Receiver, Sender};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Instant;

use dns_core::health::MonitorConfig;
use dns_core::run::{ResumePolicy, RunConfig, RunHandle, RunObserver, RunSpec, RunStatus, StepCtx};
use dns_core::ChannelDns;
use dns_health::sse;
use dns_health::{SentinelConfig, StragglerConfig};
use dns_json::{Json, Num, Quoted};
use dns_telemetry::{count, count_tenant, Counter};

use crate::http::{self, Route};
use crate::journal::{replay, Journal, Record};
use crate::metrics::{self, MetricsView};
use crate::proto::{err_line, ok_line, Request, MAX_LINE_BYTES};
use crate::scheduler::{Action, Job, JobId, JobState, Scheduler, SchedulerConfig};
use crate::tenants::TenantTable;

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
        }
    }
}

/// What wakes the serve loop.
enum Event {
    /// A line-protocol request; its reply lines go back on the sender.
    Line(Box<Request>, Sender<Vec<u8>>),
    /// A routed HTTP GET; the response bytes go back on the sender.
    Http(Route, Sender<Vec<u8>>),
    /// A listener handed a new connection to its own thread.
    Opened(Conn),
    /// A listener's `accept` failed: the daemon stops with this error.
    AcceptFailed(std::io::Error),
    /// A job's root rank completed a step.
    Stepped(JobId),
    /// A job's run thread is past its last act.
    Exited(JobId),
}

/// A connection thread as the loop keeps it: a handle on its socket, to
/// unblock the thread's read at shutdown, and the thread to join.
struct Conn {
    stream: TcpStream,
    thread: JoinHandle<()>,
}

/// A `watch` (line protocol) or SSE (facade) subscriber following one
/// job's health log.
struct Follower {
    id: JobId,
    sse: bool,
    /// Bytes of the health log already sent.
    offset: u64,
    /// Scheduler state of the job at the last pump, so state transitions
    /// surface as typed `watch_event` lines instead of the stream
    /// silently going quiet across a preemption.
    state: Option<JobState>,
    out: Sender<Vec<u8>>,
}

/// The documents of the job table, written by [`Server::job_table`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Table {
    /// The `status` reply: `draining`, `free_cores`, every job's row
    /// under `jobs`, `ok`, the cluster-wide `queue_wait` summary and
    /// `total_cores`.
    Status,
    /// `GET /api/v1/jobs`: the `status` reply without its `ok`.
    Jobs,
    /// `GET /api/v1/queue`: the jobs waiting for cores, in scheduler
    /// order, with the core counts and the drain flag.
    Queue,
}

/// Wakes the serve loop from inside job `id`'s world.
struct JobWake {
    id: JobId,
    events: Sender<Event>,
}

impl RunObserver for JobWake {
    fn on_step(&self, _: &ChannelDns, ctx: StepCtx) {
        if ctx.root {
            let _ = self.events.send(Event::Stepped(self.id));
        }
    }

    fn on_exit(&self, _: RunStatus) {
        let _ = self.events.send(Event::Exited(self.id));
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

impl JobRun {
    fn new(spec: RunSpec, last_step: u64) -> JobRun {
        JobRun {
            spec,
            handle: None,
            waiting_since: Instant::now(),
            first_launch: None,
            pending: Pending::None,
            launches: 0,
            last_step,
        }
    }
}

struct Server {
    cfg: ServerConfig,
    scheduler: Scheduler,
    journal: Journal,
    jobs: BTreeMap<JobId, JobRun>,
    tenants: TenantTable,
    /// The loop's own channel, cloned into every job's [`JobWake`].
    events: Sender<Event>,
    followers: Vec<Follower>,
    conns: Vec<Conn>,
    /// Jobs whose followers have news this pass: they stepped, exited or
    /// gained a follower.
    touched: BTreeSet<JobId>,
    shutdown: bool,
    /// Why the daemon stops, when it was not asked to.
    failed: Option<std::io::Error>,
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

    /// The observer that wakes this loop from job `id`'s world.
    fn wake(&self, id: JobId) -> Arc<dyn RunObserver> {
        Arc::new(JobWake {
            id,
            events: self.events.clone(),
        })
    }

    fn handle(&mut self, event: Event) {
        match event {
            Event::Line(req, reply) => self.handle_request(*req, reply),
            Event::Http(Route::JobHealth(id), reply) if self.scheduler.job(id).is_some() => {
                // stream: head now, events as the log grows
                let _ = reply.send(http::sse_head());
                self.follow(id, true, reply);
            }
            Event::Http(route, reply) => {
                let _ = reply.send(self.http_response(route));
            }
            Event::Opened(conn) => {
                for ended in self.conns.extract_if(.., |c| c.thread.is_finished()) {
                    let _ = ended.thread.join();
                }
                self.conns.push(conn);
            }
            Event::AcceptFailed(e) => {
                self.failed = Some(e);
                self.shutdown = true;
            }
            Event::Stepped(id) => {
                if let Some(run) = self.jobs.get_mut(&id) {
                    if let Some(h) = run.handle.as_ref() {
                        run.last_step = run.last_step.max(h.current_step());
                    }
                }
                self.touched.insert(id);
            }
            Event::Exited(id) => {
                self.exited(id);
                self.touched.insert(id);
            }
        }
    }

    fn follow(&mut self, id: JobId, sse: bool, out: Sender<Vec<u8>>) {
        self.followers.push(Follower {
            id,
            sse,
            offset: 0,
            state: None,
            out,
        });
        self.touched.insert(id);
    }

    fn handle_request(&mut self, req: Request, reply: Sender<Vec<u8>>) {
        let answer = match req {
            Request::Ping => ok_line::<&str>([]),
            Request::Submit {
                spec,
                tenant,
                priority,
            } => self.submit(spec, tenant, priority),
            Request::Status => self.job_table(Table::Status),
            Request::Tenants => match self.tenants.to_json() {
                Json::Obj(fields) => ok_line(fields),
                _ => unreachable!("the tenant ledger is an object"),
            },
            Request::Watch { id } => {
                if self.scheduler.job(id).is_none() {
                    err_line(&format!("no job {id}"))
                } else {
                    let ok = ok_line([("watching", Json::num(id as f64))]);
                    let _ = reply.send(line(&ok));
                    self.follow(id, false, reply);
                    return;
                }
            }
            Request::Cancel { id } => self.cancel(id),
            Request::Drain => {
                self.scheduler.drain();
                let _ = self.journal.append(&Record::Drain);
                ok_line([("draining", Json::Bool(true))])
            }
            Request::Undrain => {
                self.scheduler.resume_scheduling();
                let _ = self.journal.append(&Record::Undrain);
                ok_line([("draining", Json::Bool(false))])
            }
            Request::Shutdown => {
                self.shutdown = true;
                ok_line([("shutting_down", Json::Bool(true))])
            }
        };
        let _ = reply.send(line(&answer));
    }

    fn submit(&mut self, spec: RunSpec, tenant: String, priority: u8) -> String {
        if let Err(e) = spec.validate() {
            return err_line(&format!("invalid spec: {e}"));
        }
        let cores = spec.cores();
        let id = match self.scheduler.submit(&tenant, priority, cores) {
            Ok(id) => id,
            Err(e) => return err_line(&e.to_string()),
        };
        let rec = Record::Submitted {
            id,
            tenant: tenant.clone(),
            priority,
            cores,
            seq: self.scheduler.job(id).unwrap().seq,
            spec: spec.clone(),
        };
        if let Err(e) = self.journal.append(&rec) {
            self.scheduler.cancelled(id);
            return err_line(&format!("journal write failed: {e}"));
        }
        self.jobs.insert(id, JobRun::new(spec, 0));
        count(Counter::JobsSubmitted, 1);
        count_tenant(&tenant, Counter::JobsSubmitted, 1);
        self.tenants.entry(&tenant).submitted += 1;
        ok_line([("id", Json::num(id as f64))])
    }

    fn cancel(&mut self, id: JobId) -> String {
        let Some(job) = self.scheduler.job(id) else {
            return err_line(&format!("no job {id}"));
        };
        if job.state.is_terminal() {
            return err_line(&format!("job {id} is already {}", job.state.label()));
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
                ok_line([("cancelled", Json::num(id as f64))])
            }
            _ => {
                // Running or Preempting: stop the world first; its exit
                // confirms and frees the cores
                if let Some(run) = self.jobs.get_mut(&id) {
                    if let Some(h) = run.handle.as_mut() {
                        h.cancel();
                    }
                    run.pending = Pending::Cancel;
                }
                ok_line([("cancelling", Json::num(id as f64))])
            }
        }
    }

    /// Job `id`'s world wound down: join its thread (before anything
    /// else launches — DESIGN.md §10.2) and confirm how it ended.
    fn exited(&mut self, id: JobId) {
        let (status, step) = {
            let Some(run) = self.jobs.get_mut(&id) else {
                return;
            };
            let Some(h) = run.handle.as_mut() else {
                return;
            };
            h.settle();
            if run.pending == Pending::Cancel && h.status() == RunStatus::Paused {
                // the cancel arrived while the pause checkpoint was being
                // written: honour it rather than park the job
                h.cancel();
            }
            run.pending = Pending::None;
            run.last_step = run.last_step.max(h.current_step());
            (h.status(), run.last_step)
        };
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
                    // the re-queue wait clock starts now
                    self.jobs.get_mut(&id).unwrap().waiting_since = Instant::now();
                }
            }
            RunStatus::Done | RunStatus::Failed | RunStatus::Cancelled => {
                let run = self.jobs.get_mut(&id).unwrap();
                let outcome = run.handle.take().unwrap().join();
                run.last_step = step.max(outcome.steps_done);
                let rec = match status {
                    RunStatus::Done => {
                        self.scheduler.finished(id, true);
                        Record::Done { id }
                    }
                    RunStatus::Failed => {
                        self.scheduler.finished(id, false);
                        Record::Failed { id }
                    }
                    _ => {
                        self.scheduler.cancelled(id);
                        Record::Cancelled { id }
                    }
                };
                let _ = self.journal.append(&rec);
                self.note_terminal(id);
                self.write_outcome(id, &outcome);
            }
        }
    }

    /// Ask the scheduler what to do now and do it.
    fn plan(&mut self) {
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
        let wake = self.wake(id);
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
                h.resume_observed(wake).expect("resume a paused handle");
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
        run.handle = Some(RunHandle::spawn_observed(run.spec.clone(), cfg, wake));
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
                dns_resilience::events_to_json(&outcome.events),
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

    /// Bill `dt_secs` of delivered core-seconds, the time since the last
    /// pass: every job holding cores (running or still checkpointing out)
    /// bills its tenant. Between passes the scheduler state is constant.
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

    /// `table` as one JSON object, keys in sorted order (`Json::dump`'s),
    /// written straight into one string, each row borrowing its name,
    /// tenant and state label: no tree is built.
    fn job_table(&self, table: Table) -> String {
        let queue = table == Table::Queue;
        let mut out = String::new();
        let _ = write!(
            out,
            "{{\"draining\":{},\"free_cores\":{},\"{}\":[",
            self.scheduler.draining(),
            Num(self.scheduler.free_cores() as f64),
            if queue { "queue" } else { "jobs" },
        );
        let rows = self
            .scheduler
            .jobs()
            .filter(|j| !queue || matches!(j.state, JobState::Queued | JobState::Preempted));
        for (i, j) in rows.enumerate() {
            if i > 0 {
                out.push(',');
            }
            self.write_row(&mut out, j, !queue);
        }
        out.push(']');
        if !queue {
            if table == Table::Status {
                out.push_str(",\"ok\":true");
            }
            let h = self.tenants.queue_wait_all();
            let _ = write!(
                out,
                ",\"queue_wait\":{{\"count\":{},\"max\":{},\"p50\":{},\"p90\":{},\"p99\":{}}}",
                Num(h.count() as f64),
                Num(h.max()),
                Num(h.quantile(0.50)),
                Num(h.quantile(0.90)),
                Num(h.quantile(0.99)),
            );
        }
        let _ = write!(
            out,
            ",\"total_cores\":{}}}",
            Num(self.cfg.total_cores as f64)
        );
        out
    }

    /// One job-table row: `cores`, `id`, `priority`, `state` and
    /// `tenant`, and with `full` (the `jobs` rows, not the `queue` ones)
    /// `name`, `step` and `steps` from the daemon's side of the job.
    fn write_row(&self, out: &mut String, j: &Job, full: bool) {
        let run = self.jobs.get(&j.id);
        let _ = write!(
            out,
            "{{\"cores\":{},\"id\":{}",
            Num(j.cores as f64),
            Num(j.id as f64)
        );
        if full {
            let name = run.map_or("", |r| r.spec.name.as_str());
            let _ = write!(out, ",\"name\":{}", Quoted(name));
        }
        let _ = write!(
            out,
            ",\"priority\":{},\"state\":{}",
            Num(j.priority.into()),
            Quoted(j.state.label())
        );
        if full {
            let _ = write!(
                out,
                ",\"step\":{},\"steps\":{}",
                Num(run.map_or(0, |r| r.last_step) as f64),
                Num(run.map_or(0, |r| r.spec.steps) as f64)
            );
        }
        let _ = write!(out, ",\"tenant\":{}}}", Quoted(&j.tenant));
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
        let snapshot = dns_telemetry::counter_snapshot();
        metrics::render(&MetricsView {
            total_cores: self.cfg.total_cores,
            free_cores: self.scheduler.free_cores(),
            draining: self.scheduler.draining(),
            jobs_by_state: &by_state,
            tenants: &self.tenants,
            snapshot: &snapshot,
        })
    }

    /// The whole response to a routed GET (the SSE route of a known job
    /// is a stream, set up in [`Server::handle`]).
    fn http_response(&self, route: Route) -> Vec<u8> {
        let json = |body: String| http::response(200, "OK", "application/json", &(body + "\n"));
        match route {
            Route::Metrics => http::response(
                200,
                "OK",
                "text/plain; version=0.0.4; charset=utf-8",
                &self.metrics_body(),
            ),
            Route::Jobs => json(self.job_table(Table::Jobs)),
            Route::Tenants => json(self.tenants.to_json().dump()),
            Route::Queue => json(self.job_table(Table::Queue)),
            Route::JobHealth(_) | Route::NotFound => http::error_response(404, "Not Found"),
        }
    }

    /// Pump the followers of the jobs this pass touched or moved; drop
    /// the streams that ended.
    fn pump_followers(&mut self) {
        let mut followers = std::mem::take(&mut self.followers);
        followers.retain_mut(|f| self.pump_follower(f));
        self.followers = followers;
        self.touched.clear();
    }

    /// One follower's news: freshly appended complete health-log lines
    /// (framed as SSE `data:` events on the facade), a typed
    /// `watch_event` line when the scheduler moved the job, and the
    /// `done` marker once it is terminal. False once the stream ended or
    /// its connection is gone.
    fn pump_follower(&self, f: &mut Follower) -> bool {
        let Some(state) = self.scheduler.job(f.id).map(|j| j.state) else {
            return false;
        };
        let prev = f.state.replace(state);
        if prev == Some(state) && !self.touched.contains(&f.id) {
            return true;
        }
        let mut out = Vec::new();
        if let Some(lines) = tail_lines(&self.health_log(f.id), &mut f.offset) {
            if f.sse {
                out.extend_from_slice(sse::sse_data(&String::from_utf8_lossy(&lines)).as_bytes());
            } else {
                out.extend(lines);
            }
        }
        // surface scheduler transitions as typed events so a watcher can
        // tell "preempted, will resume" from "stream went quiet"
        let event = match state {
            _ if f.sse || prev.is_none() || prev == Some(state) => None,
            JobState::Preempting => Some("preempting"),
            JobState::Preempted => Some("preempted"),
            JobState::Running if prev == Some(JobState::Preempted) => Some("resumed"),
            _ => None,
        };
        if let Some(ev) = event {
            let watch_event = Json::obj()
                .put("watch_event", Json::str(ev))
                .put("id", Json::num(f.id as f64))
                .put("state", Json::str(state.label()))
                .build();
            out.extend(line(&watch_event.dump()));
        }
        if state.is_terminal() {
            let done = Json::obj().put("state", Json::str(state.label()));
            if f.sse {
                let payload = done.build().dump();
                out.extend_from_slice(sse::sse_event("done", &payload).as_bytes());
            } else {
                out.extend(line(&done.put("done", Json::Bool(true)).build().dump()));
            }
        }
        (out.is_empty() || f.out.send(out).is_ok()) && !state.is_terminal()
    }

    /// Wind down after the loop: stop the worlds still stepping, wake
    /// and join the acceptors, then unblock and join every connection
    /// thread. A world stopped here leaves no journal record: the journal
    /// still shows it live, so a restart resumes it from its last
    /// committed checkpoint, exactly as after a crash.
    fn stop(
        mut self,
        events: Receiver<Event>,
        acceptors: Vec<JoinHandle<()>>,
        stopping: &AtomicBool,
        addrs: [SocketAddr; 2],
    ) -> std::io::Result<()> {
        for run in self.jobs.values_mut() {
            if let Some(mut h) = run.handle.take() {
                h.cancel();
                h.join();
            }
        }
        stopping.store(true, Ordering::SeqCst);
        for mut addr in addrs {
            if addr.ip().is_unspecified() {
                addr.set_ip(match addr {
                    SocketAddr::V4(_) => Ipv4Addr::LOCALHOST.into(),
                    SocketAddr::V6(_) => Ipv6Addr::LOCALHOST.into(),
                });
            }
            let _ = TcpStream::connect(addr);
        }
        for acceptor in acceptors {
            let _ = acceptor.join();
        }
        // the acceptors' last connections; requests still queued are
        // dropped with the channel, which ends their reply streams
        for event in events.try_iter() {
            if let Event::Opened(conn) = event {
                self.conns.push(conn);
            }
        }
        drop(events);
        self.followers.clear();
        for conn in &self.conns {
            let _ = conn.stream.shutdown(Shutdown::Read);
        }
        for conn in self.conns.drain(..) {
            let _ = conn.thread.join();
        }
        self.failed.map_or(Ok(()), Err)
    }
}

fn line(text: &str) -> Vec<u8> {
    format!("{text}\n").into_bytes()
}

/// The complete lines appended to the file at `path` past `*offset`,
/// advancing the offset over them. Reads only the new bytes; a torn
/// last line waits for the next call.
fn tail_lines(path: &Path, offset: &mut u64) -> Option<Vec<u8>> {
    let mut file = std::fs::File::open(path).ok()?;
    file.seek(SeekFrom::Start(*offset)).ok()?;
    let mut new = Vec::new();
    file.read_to_end(&mut new).ok()?;
    let complete = new.iter().rposition(|&b| b == b'\n')? + 1;
    new.truncate(complete);
    *offset += complete as u64;
    Some(new)
}

/// Hand the loop one request and write everything it sends back, until
/// it drops its end; false once the loop or the peer is gone.
fn ask(
    events: &Sender<Event>,
    stream: &mut TcpStream,
    event: impl FnOnce(Sender<Vec<u8>>) -> Event,
) -> bool {
    let (reply, replies) = mpsc::channel();
    events.send(event(reply)).is_ok() && replies.iter().all(|b| stream.write_all(&b).is_ok())
}

/// A line-protocol connection's thread: one request line at a time,
/// parsed here, answered by the loop. A `watch` stream ends the
/// connection when it ends; a line over [`MAX_LINE_BYTES`] is refused
/// and ends it too.
fn serve_lines(mut stream: TcpStream, events: Sender<Event>) {
    let Ok(read_half) = stream.try_clone() else {
        return;
    };
    let mut reader = BufReader::new(read_half);
    let cap = MAX_LINE_BYTES as u64 + 1;
    loop {
        let mut bytes = Vec::new();
        match (&mut reader).take(cap).read_until(b'\n', &mut bytes) {
            Ok(n) if n > 0 && bytes.ends_with(b"\n") => {}
            Ok(n) if n as u64 == cap => {
                let refusal = err_line(&format!("request line over {MAX_LINE_BYTES} bytes"));
                let _ = stream.write_all(&line(&refusal));
                // the refusal, then FIN; what the client still sends is
                // read and dropped until it closes
                let _ = stream.shutdown(Shutdown::Write);
                let _ = std::io::copy(&mut reader, &mut std::io::sink());
                return;
            }
            // the peer hung up, possibly mid-line
            _ => return,
        }
        let text = String::from_utf8_lossy(&bytes);
        if text.trim().is_empty() {
            continue;
        }
        let req = match Request::from_line(&text) {
            Ok(req) => req,
            Err(e) => {
                if stream.write_all(&line(&err_line(&e))).is_err() {
                    return;
                }
                continue;
            }
        };
        let watch = matches!(req, Request::Watch { .. });
        if !ask(&events, &mut stream, |reply| {
            Event::Line(Box::new(req), reply)
        }) || watch
        {
            return;
        }
    }
}

/// An HTTP connection's thread: one request head, answered by the loop
/// (an SSE stream until the loop drops its end), then close.
fn serve_http(mut stream: TcpStream, events: Sender<Event>) {
    if let Some(route) = http::read_request(&mut stream) {
        ask(&events, &mut stream, |reply| Event::Http(route, reply));
    }
    http::close(stream);
}

/// Accept connections on `listener` until the daemon stops, giving each
/// one a thread running `serve_conn`.
fn spawn_acceptor(
    listener: TcpListener,
    serve_conn: fn(TcpStream, Sender<Event>),
    events: Sender<Event>,
    stopping: Arc<AtomicBool>,
) -> std::io::Result<JoinHandle<()>> {
    std::thread::Builder::new()
        .name("dns-server-accept".into())
        .spawn(move || loop {
            let stream = match listener.accept() {
                Ok((stream, _)) => stream,
                Err(e)
                    if matches!(
                        e.kind(),
                        ErrorKind::Interrupted | ErrorKind::ConnectionAborted
                    ) =>
                {
                    continue
                }
                Err(e) => {
                    let _ = events.send(Event::AcceptFailed(e));
                    return;
                }
            };
            if stopping.load(Ordering::SeqCst) {
                return;
            }
            let Ok(handle) = stream.try_clone() else {
                continue;
            };
            let conn_events = events.clone();
            let thread = std::thread::Builder::new()
                .name("dns-server-conn".into())
                .spawn(move || serve_conn(stream, conn_events));
            if let Ok(thread) = thread {
                let _ = events.send(Event::Opened(Conn {
                    stream: handle,
                    thread,
                }));
            }
        })
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
/// thread; returns once every thread it started has exited. Worlds
/// still stepping at shutdown are stopped without a journal record, so
/// a restart resumes them from their last committed checkpoint.
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
        jobs.insert(r.job.id, JobRun::new(r.spec.clone(), r.last_step));
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
    let local = listener.local_addr()?;
    let http_listener = TcpListener::bind(&cfg.http_addr)?;
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

    let (events, inbox) = mpsc::channel();
    let stopping = Arc::new(AtomicBool::new(false));
    let mut server = Server {
        scheduler,
        journal: Journal::open(&journal_path)?,
        jobs,
        tenants: TenantTable::new(),
        events: events.clone(),
        followers: Vec::new(),
        conns: Vec::new(),
        touched: BTreeSet::new(),
        shutdown: false,
        failed: None,
        cfg,
    };
    let acceptors = vec![
        spawn_acceptor(listener, serve_lines, events.clone(), Arc::clone(&stopping))?,
        spawn_acceptor(http_listener, serve_http, events, Arc::clone(&stopping))?,
    ];
    // recovered jobs start without waiting for a request
    server.plan();
    let mut billed = Instant::now();
    while !server.shutdown {
        let Ok(event) = inbox.recv() else { break };
        let now = Instant::now();
        server.account_cores(now.duration_since(billed).as_secs_f64());
        billed = now;
        server.handle(event);
        while let Ok(event) = inbox.try_recv() {
            server.handle(event);
        }
        if !server.shutdown {
            server.plan();
        }
        server.pump_followers();
    }
    server.stop(inbox, acceptors, &stopping, [local, http_local])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::proto::JobRow;
    use crate::tenants::hist_json;
    use dns_core::run::InitialCondition;
    use dns_core::Params;

    /// The job table as a `Json` tree: the byte-equality oracle of
    /// [`Server::job_table`].
    fn status_pairs(s: &Server) -> Vec<(&'static str, Json)> {
        let rows: Vec<Json> = s
            .scheduler
            .jobs()
            .map(|j| {
                let run = s.jobs.get(&j.id);
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
            ("free_cores", Json::num(s.scheduler.free_cores() as u32)),
            ("total_cores", Json::num(s.cfg.total_cores as u32)),
            ("draining", Json::Bool(s.scheduler.draining())),
            ("queue_wait", hist_json(&s.tenants.queue_wait_all())),
        ]
    }

    fn pairs_to_json(pairs: Vec<(&'static str, Json)>) -> Json {
        let mut b = Json::obj();
        for (k, v) in pairs {
            b = b.put(k, v);
        }
        b.build()
    }

    /// `GET /api/v1/queue` as a tree (oracle, as above).
    fn queue_json(s: &Server) -> Json {
        let waiting: Vec<Json> = s
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
            .put("free_cores", Json::num(s.scheduler.free_cores() as u32))
            .put("total_cores", Json::num(s.cfg.total_cores as u32))
            .put("draining", Json::Bool(s.scheduler.draining()))
            .build()
    }

    fn spec(name: &str, steps: u64) -> RunSpec {
        RunSpec {
            name: name.into(),
            params: Params::channel(16, 25, 16, 50.0).with_dt(1e-3),
            steps,
            ckpt_every: 0,
            ic: InitialCondition::Laminar { scale: 1.0 },
        }
    }

    /// A server over a table holding every job state, ids above 2^32,
    /// names that need escaping and one job the daemon has no run for.
    fn every_state_server(dir: &Path) -> Server {
        let mut scheduler = Scheduler::new(SchedulerConfig {
            total_cores: 4,
            tenant_quota: None,
        });
        let mut jobs = BTreeMap::new();
        let a = scheduler.submit("acme", 1, 2).unwrap();
        let b = scheduler.submit("beta", 1, 2).unwrap();
        scheduler.plan();
        let c = scheduler.submit("acme", 9, 2).unwrap();
        scheduler.plan();
        jobs.insert(a, JobRun::new(spec("a \"quoted\" run", 40), 17));
        jobs.insert(
            b,
            JobRun::new(spec("back\\slash\ttab", 1 << 40), (1 << 33) + 5),
        );
        jobs.insert(c, JobRun::new(spec("ünï 日本 \u{1}", 8), 0));
        let states = [
            JobState::Queued,
            JobState::Preempted,
            JobState::Done,
            JobState::Failed,
            JobState::Cancelled,
        ];
        for (k, state) in states.into_iter().enumerate() {
            let id = (1u64 << 33) + 3 * k as u64;
            scheduler.restore(Job {
                id,
                tenant: ["gamma", "dé\"lta"][k % 2].into(),
                priority: 250 - k as u8,
                cores: k + 1,
                seq: 100 + k as u64,
                state,
            });
            // the last restored job has no run on the daemon's side
            if k + 1 < states.len() {
                jobs.insert(
                    id,
                    JobRun::new(spec(&format!("r{k}"), 30 + k as u64), 7 * k as u64),
                );
            }
        }
        let mut cfg = ServerConfig::new(dir);
        cfg.total_cores = 4;
        Server {
            scheduler,
            journal: Journal::open(&dir.join("queue.jsonl")).unwrap(),
            jobs,
            tenants: TenantTable::new(),
            events: mpsc::channel().0,
            followers: Vec::new(),
            conns: Vec::new(),
            touched: BTreeSet::new(),
            shutdown: false,
            failed: None,
            cfg,
        }
    }

    #[test]
    fn streamed_job_table_equals_the_tree_oracle() {
        let dir = std::env::temp_dir().join(format!("dns-table-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut s = every_state_server(&dir);
        let labels: BTreeSet<&str> = s.scheduler.jobs().map(|j| j.state.label()).collect();
        assert_eq!(labels.len(), 7, "every state is covered: {labels:?}");
        assert!(s.scheduler.jobs().any(|j| j.id > u64::from(u32::MAX)));
        for waits in [&[][..], &[0.0123, 1.5, 0.25, 7e-4, 3.0][..]] {
            for &w in waits {
                s.tenants.entry("acme").queue_wait.record(w);
            }
            for draining in [false, true] {
                if draining {
                    s.scheduler.drain();
                } else {
                    s.scheduler.resume_scheduling();
                }
                assert_eq!(s.job_table(Table::Status), ok_line(status_pairs(&s)));
                assert_eq!(
                    s.job_table(Table::Jobs),
                    pairs_to_json(status_pairs(&s)).dump()
                );
                assert_eq!(s.job_table(Table::Queue), queue_json(&s).dump());
            }
        }
        let h = s.tenants.queue_wait_all();
        assert!(
            h.count() == 5 && h.quantile(0.5).fract() != 0.0,
            "non-integer quantiles"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn tail_forwards_complete_lines_and_holds_a_torn_tail() {
        let dir = std::env::temp_dir().join(format!("dns-tail-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("health.jsonl");
        let mut offset = 0;
        assert_eq!(tail_lines(&path, &mut offset), None, "no file yet");
        std::fs::write(&path, "{\"a\":1}\n{\"b\":2}\n{\"c\":").unwrap();
        assert_eq!(
            tail_lines(&path, &mut offset).as_deref(),
            Some(&b"{\"a\":1}\n{\"b\":2}\n"[..])
        );
        assert_eq!(offset, 16);
        assert_eq!(tail_lines(&path, &mut offset), None, "the torn line waits");
        let mut f = std::fs::OpenOptions::new()
            .append(true)
            .open(&path)
            .unwrap();
        f.write_all(b"3}\n{\"d\"").unwrap();
        assert_eq!(
            tail_lines(&path, &mut offset).as_deref(),
            Some(&b"{\"c\":3}\n"[..])
        );
        assert_eq!(offset, 24);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
