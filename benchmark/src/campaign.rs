//! The `campaign_*` workloads: `daemon::serve` on a thread, driven over
//! its real TCP line protocol and HTTP facade by one closed-loop client
//! (the next request goes out when the previous reply is in; `status` is
//! polled at 1 ms). Scheduler, journal, HTTP, `RunHandle` launches,
//! checkpoint save/restore and dns-json do the work here; the FFT and
//! banded kernels almost none — the mirror image of the box workloads.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use dns_core::run::{InitialCondition, RunConfig, RunHandle, RunSpec, RunStatus};
use dns_core::Params;
use dns_json::Json;
use dns_server::daemon::{serve, ServerConfig};
use dns_server::http::{self, Parse};
use dns_server::journal::{self, Journal, Record};
use dns_server::metrics::{self, MetricsView};
use dns_server::proto::{JobRow, Request};
use dns_server::scheduler::{Scheduler, SchedulerConfig};
use dns_server::tenants::TenantTable;

use crate::report::Report;
use crate::spans::Recorder;
use crate::stats::{fast, median, summarize};
use crate::{host, Args};

const SETUP_LAUNCHES: usize = 12;
const POLL: Duration = Duration::from_millis(1);
const DRAIN_POLL: Duration = Duration::from_millis(20);
/// No single wait of a healthy run comes near this; past it the
/// operation counts as failed and the workload winds down.
const PATIENCE: Duration = Duration::from_secs(30);

/// Jobs and scrapes of one `campaign_queue` round.
const QUEUE_DEPTH: usize = 100;
const SCRAPES: usize = 100;
const TENANTS: [&str; 4] = ["acme", "beta", "gamma", "delta"];
/// Steps of a `campaign_launch` job: few, so the window holds many
/// launches and the launch path, not the stepping, decides the job's wall.
const LAUNCH_STEPS: u64 = 3;
/// Steps of a preemption victim: long enough to be preempted many times,
/// short enough that the last one finishes soon after the window closes.
const VICTIM_STEPS: u64 = 40;

fn job(
    name: &str,
    n: (usize, usize, usize),
    re_tau: f64,
    dt: f64,
    steps: u64,
    seed: u64,
) -> RunSpec {
    RunSpec {
        name: name.into(),
        params: Params::channel(n.0, n.1, n.2, re_tau).with_dt(dt),
        steps,
        ckpt_every: 0,
        ic: InitialCondition::Turbulent {
            amplitude: 0.1,
            seed,
        },
    }
}

fn launch_job(seed: u64) -> RunSpec {
    job("launch", (32, 33, 32), 180.0, 5e-4, LAUNCH_STEPS, seed)
}

fn victim_job(seed: u64) -> RunSpec {
    job("victim", (32, 33, 32), 180.0, 5e-4, VICTIM_STEPS, seed)
}

fn small_job(name: &str, steps: u64, seed: u64) -> RunSpec {
    job(name, (16, 25, 16), 50.0, 1e-3, steps, seed)
}

/// Line-protocol client that counts what it attempts and what fails.
struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
    attempted: u64,
    failed: u64,
}

impl Client {
    fn connect(addr: &str) -> std::io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(PATIENCE))?;
        Ok(Client {
            writer: stream.try_clone()?,
            reader: BufReader::new(stream),
            attempted: 0,
            failed: 0,
        })
    }

    /// One request, one reply; a refusal or a broken socket is a failed
    /// operation and reads as `None`.
    fn call(&mut self, req: &Request) -> Option<Json> {
        self.attempted += 1;
        let reply = self
            .writer
            .write_all(format!("{}\n", req.to_line()).as_bytes())
            .ok()
            .and_then(|()| {
                let mut line = String::new();
                self.reader.read_line(&mut line).ok()?;
                dns_json::parse(line.trim_end()).ok()
            })
            .filter(|v| v.get("ok").and_then(Json::as_bool) == Some(true));
        if reply.is_none() {
            self.failed += 1;
        }
        reply
    }

    fn submit(&mut self, spec: RunSpec, tenant: &str, priority: u8) -> Option<u64> {
        let req = Request::Submit {
            spec,
            tenant: tenant.into(),
            priority,
        };
        self.call(&req)?.get("id").and_then(Json::as_u64)
    }

    fn status(&mut self) -> Vec<JobRow> {
        self.call(&Request::Status)
            .and_then(|v| {
                let rows = v.get("jobs")?.as_arr()?;
                Some(rows.iter().filter_map(JobRow::from_json).collect())
            })
            .unwrap_or_default()
    }

    fn row(&mut self, id: u64) -> Option<JobRow> {
        self.status().into_iter().find(|r| r.id == id)
    }

    /// Poll `status` every millisecond until `pred` holds for job `id`;
    /// the row that satisfied it, or `None` (a failed operation) once
    /// patience runs out.
    fn wait_for(&mut self, id: u64, pred: impl FnMut(&JobRow) -> bool) -> Option<JobRow> {
        self.wait_polling(POLL, id, pred)
    }

    fn wait_polling(
        &mut self,
        every: Duration,
        id: u64,
        mut pred: impl FnMut(&JobRow) -> bool,
    ) -> Option<JobRow> {
        let deadline = Instant::now() + PATIENCE;
        self.attempted += 1;
        while Instant::now() < deadline {
            match self.row(id) {
                Some(r) if pred(&r) => return Some(r),
                _ => std::thread::sleep(every),
            }
        }
        self.failed += 1;
        None
    }
}

/// One `GET` against the HTTP facade: connect -> full body. `None` unless
/// the reply is a 200.
fn http_get(addr: &str, path: &str) -> Option<(String, f64)> {
    let t0 = Instant::now();
    let mut stream = TcpStream::connect(addr).ok()?;
    stream.set_read_timeout(Some(PATIENCE)).ok()?;
    stream
        .write_all(format!("GET {path} HTTP/1.1\r\nHost: bench\r\n\r\n").as_bytes())
        .ok()?;
    let mut reply = String::new();
    stream.read_to_string(&mut reply).ok()?;
    let wall = t0.elapsed().as_secs_f64();
    let (head, body) = reply.split_once("\r\n\r\n")?;
    head.starts_with("HTTP/1.1 200")
        .then(|| (body.to_string(), wall))
}

struct Daemon {
    thread: JoinHandle<std::io::Result<()>>,
    client: Client,
    http_addr: String,
    dir: PathBuf,
    /// `serve()` call -> first `ping` reply.
    setup_s: f64,
}

fn read_addr(path: &Path) -> Option<String> {
    let deadline = Instant::now() + PATIENCE;
    while Instant::now() < deadline {
        if let Ok(text) = std::fs::read_to_string(path) {
            return Some(text.trim().to_string());
        }
        std::thread::sleep(POLL);
    }
    None
}

impl Daemon {
    /// One core, default tick, free ports, a fresh data directory.
    fn start(dir: PathBuf) -> Daemon {
        let _ = std::fs::remove_dir_all(&dir);
        let mut cfg = ServerConfig::new(&dir);
        cfg.total_cores = 1;
        let t0 = Instant::now();
        let thread = std::thread::spawn(move || serve(cfg));
        let addr = read_addr(&dir.join("addr")).expect("daemon announces its address");
        let http_addr = read_addr(&dir.join("http_addr")).expect("daemon announces its facade");
        let mut client = Client::connect(&addr).expect("connect to the daemon");
        client.call(&Request::Ping);
        Daemon {
            thread,
            client,
            http_addr,
            dir,
            setup_s: t0.elapsed().as_secs_f64(),
        }
    }

    /// Shut the daemon down, wait for its thread, fold the client's
    /// operation counts into the report, remove the data directory.
    fn stop(mut self, report: &mut Report) {
        self.client.call(&Request::Shutdown);
        let served = self.thread.join().is_ok_and(|r| r.is_ok());
        report.check(served, || "daemon thread did not exit cleanly".into());
        report.ops(
            self.client.attempted,
            self.client.failed,
            "daemon requests refused, failed or timed out",
        );
        let _ = std::fs::remove_dir_all(&self.dir);
    }

    /// Every job in `ids` ended `done` and left an `outcome.json`.
    fn check_done(&mut self, ids: &[u64], report: &mut Report) {
        let rows = self.client.status();
        let not_done = ids
            .iter()
            .filter(|id| {
                let done = rows.iter().any(|r| r.id == **id && r.state == "done");
                let outcome = self.dir.join(format!("job-{id}")).join("outcome.json");
                !(done && outcome.exists())
            })
            .count();
        report.ops(
            ids.len() as u64,
            not_done as u64,
            "jobs not done with an outcome.json",
        );
    }
}

/// `op`: walls of the workload's operation; `whole`: walls of the whole
/// loop iteration each operation sits in.
fn set_end_to_end(report: &mut Report, op: &[f64], whole: &[f64], setups: &[f64]) {
    let s = summarize(op);
    report.set_n("op_s", s.fast, s.n);
    report.extra("op_median_s", s.median, "s");
    if let Some((p, v)) = s.tail {
        report.extra(format!("op_p{p}_s"), v, "s");
    }
    report.set_n("wall_per_op_s", fast(whole), whole.len());
    let mean = whole.iter().sum::<f64>() / whole.len().max(1) as f64;
    report.extra("wall_per_op_mean_s", mean, "s");
    report.set_n("setup_s", fast(setups), setups.len());
    report.extra("setup_median_s", median(setups), "s");
    report.set("peak_rss_mb", host::peak_rss_mb());
}

/// Shared tail of a workload: a traced run reads the daemon's own view
/// and probes the server's pure layers; the daemon is shut down; an
/// end-to-end run then samples set-up on fresh daemons. Returns the
/// set-up samples, the measured daemon's first.
fn wind_down(
    mut d: Daemon,
    args: &Args,
    tmp: &Path,
    rec: &Recorder,
    report: &mut Report,
) -> Vec<f64> {
    let mut setups = vec![d.setup_s];
    if report.is_trace() {
        daemon_views(&mut d, rec, report);
        server_probes(args, tmp, rec, report);
    }
    d.stop(report);
    if !report.is_trace() {
        while setups.len() < SETUP_LAUNCHES {
            let d = Daemon::start(tmp.join("setup"));
            setups.push(d.setup_s);
            d.stop(report);
        }
    }
    setups
}

/// **launch**: sequential 32x33x32 3-step jobs on an idle daemon; the
/// operation is `submit` sent -> `status` shows step >= 1.
pub fn launch(args: &Args, tmp: &Path, rec: &Recorder, report: &mut Report) {
    let mut d = Daemon::start(tmp.join("daemon"));
    let window = Instant::now();
    let (mut first_step, mut job_walls, mut ids) = (Vec::new(), Vec::new(), Vec::new());
    while window.elapsed().as_secs_f64() < args.window_s() {
        let i = ids.len() as u64;
        let span = rec.begin(format!("job[{i}]"), rec.run());
        let t0 = Instant::now();
        let Some(id) = d.client.submit(launch_job(args.seed + i), "acme", 5) else {
            break;
        };
        ids.push(id);
        let (stepping, _) = rec.time("submit_to_first_step", Some(span), || {
            d.client.wait_for(id, |r| r.step >= 1 || r.state == "done")
        });
        first_step.push(t0.elapsed().as_secs_f64());
        let (done, _) = rec.time("first_step_to_done", Some(span), || {
            d.client.wait_for(id, |r| r.state == "done")
        });
        rec.end(span);
        if stepping.is_none() || done.is_none() {
            break;
        }
        job_walls.push(t0.elapsed().as_secs_f64());
    }
    d.check_done(&ids, report);
    let n = first_step.len();
    report.set_n("server.submit_to_first_step_s", median(&first_step), n);
    let setups = wind_down(d, args, tmp, rec, report);
    set_end_to_end(report, &first_step, &job_walls, &setups);
}

/// **preempt**: a long priority-0 32x33x32 victim is preempted by a
/// priority-10 16x25x16 5-step job, then resumed, over and over. The
/// operation is the scheduling overhead of one round trip: urgent
/// `submit` sent -> victim `preempted`, plus urgent `done` -> victim's
/// step counter passes its paused step.
pub fn preempt(args: &Args, tmp: &Path, rec: &Recorder, report: &mut Report) {
    let mut d = Daemon::start(tmp.join("daemon"));
    let (mut to_paused, mut to_resumed, mut cycle_walls) = (Vec::new(), Vec::new(), Vec::new());
    let (mut ids, mut victims) = (Vec::new(), Vec::new());
    // (id, step the victim must pass before the next urgent job arrives)
    let mut victim: Option<(u64, u64)> = None;
    let window = Instant::now();
    while window.elapsed().as_secs_f64() < args.window_s() {
        let (vid, after) = match victim {
            Some(v) => v,
            None => {
                let seed = args.seed + victims.len() as u64;
                let Some(id) = d.client.submit(victim_job(seed), "bulk", 0) else {
                    break;
                };
                victims.push(id);
                ids.push(id);
                (id, 0)
            }
        };
        // the victim must be stepping again before it is preempted again
        let Some(row) = d
            .client
            .wait_for(vid, |r| r.step > after || r.state == "done")
        else {
            break;
        };
        if row.state == "done" {
            victim = None;
            continue;
        }
        let span = rec.begin(format!("cycle[{}]", cycle_walls.len()), rec.run());
        let t0 = Instant::now();
        let seed = args.seed + ids.len() as u64;
        let Some(uid) = d.client.submit(small_job("urgent", 5, seed), "ops", 10) else {
            break;
        };
        ids.push(uid);
        let (paused, _) = rec.time("preempt_to_paused", Some(span), || {
            d.client
                .wait_for(vid, |r| r.state == "preempted" || r.state == "done")
        });
        let a = t0.elapsed().as_secs_f64();
        let (urgent_done, _) = rec.time("urgent_run", Some(span), || {
            d.client.wait_for(uid, |r| r.state == "done")
        });
        let (Some(paused), Some(_)) = (paused, urgent_done) else {
            break;
        };
        if paused.state == "done" {
            // the victim finished under the preemption request: there is
            // no round trip to time
            rec.end(span);
            victim = None;
            continue;
        }
        let (resumed, b) = rec.time("resume_to_first_step", Some(span), || {
            d.client
                .wait_for(vid, |r| r.step > paused.step || r.state == "done")
        });
        rec.end(span);
        let Some(resumed) = resumed else { break };
        to_paused.push(a);
        to_resumed.push(b);
        cycle_walls.push(t0.elapsed().as_secs_f64());
        victim = (resumed.state != "done").then_some((vid, resumed.step));
    }
    // let the last victim run out, then compare the first one's final
    // checkpoint with an uninterrupted control of the same spec
    if let Some((vid, _)) = victim {
        d.client.wait_for(vid, |r| r.state == "done");
    }
    d.check_done(&ids, report);
    if let Some(first) = victims.first() {
        let control_dir = tmp.join("control");
        let outcome =
            RunHandle::spawn(victim_job(args.seed), RunConfig::in_dir(&control_dir)).join();
        let file = format!("state.s{VICTIM_STEPS}.r0x0.ckpt");
        let control = std::fs::read(control_dir.join(&file)).ok();
        let preempted = std::fs::read(d.dir.join(format!("job-{first}")).join(&file)).ok();
        report.check(
            outcome.status == RunStatus::Done && control.is_some() && control == preempted,
            || {
                "a preempted victim's final checkpoint differs from an uninterrupted control's"
                    .into()
            },
        );
    }
    let cycles = cycle_walls.len();
    report.set_n("server.preempt_to_paused_s", median(&to_paused), cycles);
    report.set_n("server.resume_to_first_step_s", median(&to_resumed), cycles);
    report.extra("preempt_cycles", cycles as f64, "count");
    let overhead: Vec<f64> = to_paused
        .iter()
        .zip(&to_resumed)
        .map(|(a, b)| a + b)
        .collect();
    let setups = wind_down(d, args, tmp, rec, report);
    if report.is_trace() {
        // every timed round trip is one preemption and one resume in the
        // daemon's own books (a victim that finished under the request
        // was never paused)
        for name in ["server.daemon.jobs_preempted", "server.daemon.jobs_resumed"] {
            let counted = report.get(name).unwrap_or(0.0);
            report.check(counted == cycles as f64, || {
                format!("{name} = {counted}, the client timed {cycles} round trips")
            });
        }
    }
    set_end_to_end(report, &overhead, &cycle_walls, &setups);
}

/// **queue**: rounds of `drain`, 100 16x25x16 3-step jobs over 4 tenants,
/// 100 scrapes each of `/metrics` and `/api/v1/jobs` at queue depth 100,
/// `undrain`, wait for all done — a fresh daemon per round, so the depth
/// means the same every round. The operation is one scrape of both
/// endpoints (connect -> full body, twice): the daemon answers on its
/// next tick and the closed loop locks onto that tick, so how a sweep's
/// wall splits between its requests is an accident of phase, while the
/// pair's sum is steady. `wall_per_op_s` is the wall of a whole
/// monitoring sweep (both scrapes and one `status`). Queue throughput is
/// reported per layer (`server.jobs_per_s`), not end to end: 40 ms jobs
/// that are mostly thread launches spread by 25 % between runs on a busy
/// 2-core host.
pub fn queue(args: &Args, tmp: &Path, rec: &Recorder, report: &mut Report) {
    let (mut scrapes, mut metrics_scrapes, mut jobs_scrapes) = (Vec::new(), Vec::new(), Vec::new());
    let (mut submit_rtt, mut status_rtt) = (Vec::new(), Vec::new());
    let (mut drain_wall, mut jobs_run, mut setups) = (0.0, 0usize, Vec::new());
    let mut sweeps = Vec::new();
    // the process's peak after its first round: later rounds raise it a
    // little each (allocator arenas of a fresh daemon's job threads), and
    // how many rounds fit the window is the host's doing
    let mut first_round_rss = 0.0;
    let window = Instant::now();
    for round in 0.. {
        let round_start = Instant::now();
        let mut d = Daemon::start(tmp.join("daemon"));
        let span = rec.begin(format!("round[{round}]"), rec.run());
        d.client.call(&Request::Drain);
        let mut ids = Vec::new();
        rec.time("submit_100", Some(span), || {
            for i in 0..QUEUE_DEPTH {
                let spec = small_job("queued", 3, args.seed + i as u64);
                let t0 = Instant::now();
                ids.extend(d.client.submit(spec, TENANTS[i % TENANTS.len()], 5));
                submit_rtt.push(t0.elapsed().as_secs_f64());
            }
        });
        report.check(ids.len() == QUEUE_DEPTH, || {
            format!("only {} of {QUEUE_DEPTH} submissions accepted", ids.len())
        });
        let mut refused = 0;
        rec.time("scrapes", Some(span), || {
            for _ in 0..SCRAPES {
                let sweep = Instant::now();
                let jobs = http_get(&d.http_addr, "/api/v1/jobs");
                let metrics = http_get(&d.http_addr, "/metrics");
                refused += u64::from(jobs.is_none()) + u64::from(metrics.is_none());
                if let (Some((_, j)), Some((_, m))) = (jobs, metrics) {
                    jobs_scrapes.push(j);
                    metrics_scrapes.push(m);
                    scrapes.push(j + m);
                }
                let t0 = Instant::now();
                d.client.status();
                status_rtt.push(t0.elapsed().as_secs_f64());
                sweeps.push(sweep.elapsed().as_secs_f64());
            }
        });
        report.ops(
            2 * SCRAPES as u64,
            refused,
            "HTTP scrapes refused or not 200",
        );
        let t0 = Instant::now();
        d.client.call(&Request::Undrain);
        rec.time("drain_queue", Some(span), || {
            // one core, one priority, FIFO: the last id finishes last. A
            // coarse poll: the drain takes seconds, and every `status` at
            // depth 100 takes the daemon's time from the jobs
            if let Some(&last) = ids.last() {
                d.client
                    .wait_polling(DRAIN_POLL, last, |r| r.state == "done");
            }
        });
        drain_wall += t0.elapsed().as_secs_f64();
        jobs_run += ids.len();
        rec.end(span);
        d.check_done(&ids, report);
        if round == 0 {
            first_round_rss = host::peak_rss_mb();
        }
        // another round only if it fits the window
        let another = window.elapsed() + round_start.elapsed();
        if another.as_secs_f64() < args.window_s() {
            setups.push(d.setup_s);
            d.stop(report);
        } else {
            setups.extend(wind_down(d, args, tmp, rec, report));
            break;
        }
    }
    let per_job = drain_wall / jobs_run.max(1) as f64;
    report.set_n("server.jobs_per_s", 1.0 / per_job, jobs_run);
    report.set_n(
        "server.metrics_scrape_s",
        median(&metrics_scrapes),
        metrics_scrapes.len(),
    );
    report.set_n(
        "server.jobs_scrape_s",
        median(&jobs_scrapes),
        jobs_scrapes.len(),
    );
    report.set_n(
        "server.proto.submit_rtt_s",
        median(&submit_rtt),
        submit_rtt.len(),
    );
    report.set_n(
        "server.proto.status_rtt_s",
        median(&status_rtt),
        status_rtt.len(),
    );
    set_end_to_end(report, &scrapes, &sweeps, &setups);
    report.set("peak_rss_mb", first_round_rss);
}

/// Median seconds of `reps` calls of `f`, under one span.
fn time_median(rec: &Recorder, name: &str, reps: usize, mut f: impl FnMut()) -> f64 {
    let span = rec.begin(name, rec.run());
    let xs: Vec<f64> = (0..reps)
        .map(|_| {
            let t0 = Instant::now();
            f();
            t0.elapsed().as_secs_f64()
        })
        .collect();
    rec.end(span);
    median(&xs)
}

/// What the daemon says about itself, read over its facade: its
/// preemption counters cross-check the client-side clocks, and its job
/// listing is the document the JSON parser is timed on.
fn daemon_views(d: &mut Daemon, rec: &Recorder, report: &mut Report) {
    let counter = |body: &str, name: &str| {
        let key = format!("dns_counter_total{{counter=\"{name}\"}} ");
        body.lines()
            .find_map(|l| l.strip_prefix(&key))
            .and_then(|v| v.trim().parse::<f64>().ok())
            .unwrap_or(0.0)
    };
    if let Some((body, _)) = http_get(&d.http_addr, "/metrics") {
        report.set(
            "server.daemon.jobs_preempted",
            counter(&body, "jobs_preempted"),
        );
        report.set("server.daemon.jobs_resumed", counter(&body, "jobs_resumed"));
    }
    let p50 = d
        .client
        .call(&Request::Status)
        .and_then(|v| v.get("queue_wait")?.get("p50")?.as_f64());
    report.set("server.daemon.queue_wait_p50_s", p50.unwrap_or(0.0));
    if let Some((body, _)) = http_get(&d.http_addr, "/api/v1/jobs") {
        let parse_s = time_median(rec, "probe.json.parse_mb_per_s", 7, || {
            std::hint::black_box(dns_json::parse(&body).is_ok());
        });
        report.set("json.parse_mb_per_s", body.len() as f64 / 1e6 / parse_s);
    }
}

/// Stand-alone calls into the server's pure layers at the campaign's
/// sizes: 100 queued jobs, 4 tenants, a 1000-record journal.
fn server_probes(args: &Args, tmp: &Path, rec: &Recorder, report: &mut Report) {
    let queued = || {
        let mut s = Scheduler::new(SchedulerConfig {
            total_cores: 1,
            tenant_quota: None,
        });
        for i in 0..QUEUE_DEPTH {
            std::hint::black_box(s.submit(TENANTS[i % TENANTS.len()], 5, 1).is_ok());
        }
        s
    };
    let submit_s = time_median(rec, "probe.server.scheduler.submit_us", 7, || {
        std::hint::black_box(queued());
    });
    report.set(
        "server.scheduler.submit_us",
        submit_s / QUEUE_DEPTH as f64 * 1e6,
    );
    let mut s = queued();
    let plan_s = time_median(rec, "probe.server.scheduler.plan_us", 7, || {
        std::hint::black_box(s.plan());
    });
    report.set("server.scheduler.plan_us", plan_s * 1e6);

    const RECORDS: u64 = 1000;
    let path = tmp.join("probe-journal.jsonl");
    let _ = std::fs::remove_file(&path);
    let mut journal = Journal::open(&path).expect("open probe journal");
    let spec = small_job("queued", 3, args.seed);
    let append_s = time_median(rec, "probe.server.journal.append_us", 1, || {
        for id in 1..=RECORDS / 2 {
            let submitted = Record::Submitted {
                id,
                tenant: TENANTS[id as usize % TENANTS.len()].into(),
                priority: 5,
                cores: 1,
                seq: id,
                spec: spec.clone(),
            };
            journal.append(&submitted).expect("append to probe journal");
            journal
                .append(&Record::Started { id })
                .expect("append to probe journal");
        }
    });
    report.set("server.journal.append_us", append_s / RECORDS as f64 * 1e6);
    let replay_s = time_median(rec, "probe.server.journal.replay_ms", 3, || {
        let rep = journal::replay(&path).expect("replay probe journal");
        assert_eq!(rep.lines_ok as u64, RECORDS);
    });
    report.set("server.journal.replay_ms", replay_s * 1e3);

    let mut tenants = TenantTable::new();
    for (i, t) in TENANTS.iter().enumerate() {
        let s = tenants.entry(t);
        s.submitted = (QUEUE_DEPTH / TENANTS.len()) as u64;
        s.launches = s.submitted;
        s.finished = s.submitted;
        s.core_seconds = 1.0 + i as f64;
        for k in 0..s.submitted {
            s.queue_wait.record(1e-3 * (k + 1) as f64);
            s.run_duration.record(2e-2 * (k + 1) as f64);
        }
    }
    let snapshot = dns_telemetry::snapshot();
    let by_state = [("queued", QUEUE_DEPTH), ("running", 0), ("done", 0)];
    let render_s = time_median(rec, "probe.server.metrics.render_us", 7, || {
        std::hint::black_box(metrics::render(&MetricsView {
            total_cores: 1,
            free_cores: 1,
            draining: true,
            jobs_by_state: &by_state,
            tenants: &tenants,
            snapshot: &snapshot,
        }));
    });
    report.set("server.metrics.render_us", render_s * 1e6);

    const PARSES: usize = 1000;
    let head = b"GET /api/v1/jobs HTTP/1.1\r\nHost: bench\r\nAccept: */*\r\n\r\n";
    let parse_s = time_median(rec, "probe.server.http.parse_us", 7, || {
        for _ in 0..PARSES {
            let parsed = http::parse_request(std::hint::black_box(head));
            assert!(matches!(parsed, Parse::Get { .. }));
        }
    });
    report.set("server.http.parse_us", parse_s / PARSES as f64 * 1e6);
}
