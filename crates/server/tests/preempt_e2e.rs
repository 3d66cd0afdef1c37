//! End-to-end preemption through the full daemon: a high-priority
//! submission checkpoints a running low-priority job over the real TCP
//! protocol, takes its core, and the victim later resumes and completes
//! — with a final state **bitwise identical** to the same spec run
//! uninterrupted. Also exercises `watch` streaming and the journal's
//! record of the preemption round trip.
//!
//! The daemon has no timer: it acts only when a request, a step or a
//! world's exit wakes it, so a wake-up it misses is a hang, not a delay.
//! The storm below drives every job transition through one daemon and
//! must reach terminal states within its patience; a client streaming an
//! endless request line is refused while another is served.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use dns_core::run::{InitialCondition, RunConfig, RunHandle, RunSpec, RunStatus};
use dns_core::Params;
use dns_json::Json;
use dns_server::daemon::{serve, ServerConfig};
use dns_server::proto::Request;

const VICTIM_STEPS: u64 = 30;

fn victim_spec() -> RunSpec {
    RunSpec {
        name: "victim".into(),
        params: Params::channel(16, 25, 16, 50.0).with_dt(1e-3),
        steps: VICTIM_STEPS,
        ckpt_every: 0,
        ic: InitialCondition::Turbulent {
            amplitude: 0.3,
            seed: 11,
        },
    }
}

fn urgent_spec() -> RunSpec {
    RunSpec {
        name: "urgent".into(),
        params: Params::channel(16, 25, 16, 50.0).with_dt(1e-3),
        steps: 5,
        ckpt_every: 0,
        ic: InitialCondition::Laminar { scale: 1.0 },
    }
}

struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Client {
    fn connect(addr: &str) -> Client {
        let stream = TcpStream::connect(addr).expect("connect");
        let writer = stream.try_clone().unwrap();
        Client {
            reader: BufReader::new(stream),
            writer,
        }
    }

    fn call(&mut self, req: &Request) -> Json {
        self.writer
            .write_all(format!("{}\n", req.to_line()).as_bytes())
            .expect("send");
        let mut line = String::new();
        self.reader.read_line(&mut line).expect("recv");
        let v = dns_json::parse(line.trim_end()).expect("response JSON");
        assert_eq!(
            v.get("ok").and_then(Json::as_bool),
            Some(true),
            "request {:?} refused: {line}",
            req
        );
        v
    }
}

fn job_state(status: &Json, id: u64) -> (String, u64) {
    let jobs = status
        .get("jobs")
        .and_then(Json::as_arr)
        .expect("jobs array");
    for j in jobs {
        if j.get("id").and_then(Json::as_u64) == Some(id) {
            return (
                j.get("state").and_then(Json::as_str).unwrap().to_string(),
                j.get("step").and_then(Json::as_u64).unwrap(),
            );
        }
    }
    panic!("job {id} not in status");
}

fn wait_for<F: FnMut() -> bool>(what: &str, timeout: Duration, mut f: F) {
    let deadline = Instant::now() + timeout;
    while !f() {
        assert!(Instant::now() < deadline, "timed out waiting for {what}");
        std::thread::sleep(Duration::from_millis(10));
    }
}

fn final_generation(dir: &Path) -> (Vec<u8>, Vec<u8>) {
    let ckpt = std::fs::read(dir.join(format!("state.s{VICTIM_STEPS}.r0x0.ckpt"))).unwrap();
    let manifest = std::fs::read(dir.join(format!("state.s{VICTIM_STEPS}.manifest"))).unwrap();
    (ckpt, manifest)
}

#[test]
fn preemption_round_trip_is_bitwise_lossless() {
    let base = std::env::temp_dir().join(format!("dns-preempt-e2e-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&base);
    let data_dir = base.join("server");
    let control_dir = base.join("control");
    std::fs::create_dir_all(&control_dir).unwrap();

    // the daemon: ONE core, so the urgent job can only run by preempting
    let mut cfg = ServerConfig::new(&data_dir);
    cfg.total_cores = 1;
    let server_dir = data_dir.clone();
    let server = std::thread::spawn(move || {
        let mut cfg = cfg;
        cfg.data_dir = server_dir;
        serve(cfg).expect("serve");
    });
    let addr_file = data_dir.join("addr");
    wait_for("server addr file", Duration::from_secs(10), || {
        addr_file.exists()
    });
    let addr = std::fs::read_to_string(&addr_file)
        .unwrap()
        .trim()
        .to_string();

    // control: the victim spec, never interrupted, via the library API
    let control = RunHandle::spawn(victim_spec(), RunConfig::in_dir(&control_dir));

    let mut c = Client::connect(&addr);
    let v = c.call(&Request::Submit {
        spec: victim_spec(),
        tenant: "bulk".into(),
        priority: 1,
    });
    let victim_id = v.get("id").and_then(Json::as_u64).unwrap();
    wait_for("victim to start stepping", Duration::from_secs(30), || {
        let s = c.call(&Request::Status);
        let (state, step) = job_state(&s, victim_id);
        state == "running" && step >= 3
    });

    // a watcher follows the victim's health stream on its own connection
    let mut watcher = Client::connect(&addr);
    watcher.call(&Request::Watch { id: victim_id });

    // the urgent job arrives: strictly higher priority, same tenant pool
    let v = c.call(&Request::Submit {
        spec: urgent_spec(),
        tenant: "urgent".into(),
        priority: 9,
    });
    let urgent_id = v.get("id").and_then(Json::as_u64).unwrap();

    // the victim is checkpointed out, the urgent job runs to completion
    wait_for("urgent job to finish", Duration::from_secs(60), || {
        let s = c.call(&Request::Status);
        job_state(&s, urgent_id).0 == "done"
    });
    // while the urgent job ran, the victim was preempted (not running)
    let s = c.call(&Request::Status);
    let (victim_state, preempted_step) = job_state(&s, victim_id);
    assert!(
        matches!(
            victim_state.as_str(),
            "preempted" | "preempting" | "queued" | "running"
        ),
        "victim in unexpected state {victim_state}"
    );
    assert!(
        preempted_step < VICTIM_STEPS,
        "victim should not have finished while preempted"
    );

    // the victim resumes from its checkpoint and completes
    wait_for("victim to finish", Duration::from_secs(120), || {
        let s = c.call(&Request::Status);
        job_state(&s, victim_id).0 == "done"
    });

    // the journal recorded the whole round trip
    let journal = std::fs::read_to_string(data_dir.join("queue.jsonl")).unwrap();
    assert!(
        journal.contains("\"event\":\"preempted\""),
        "journal: {journal}"
    );
    assert!(
        journal.contains("\"event\":\"resumed\""),
        "journal: {journal}"
    );

    // the watcher saw health events and the done marker
    let mut saw_event = false;
    let mut saw_done = false;
    loop {
        let mut line = String::new();
        if watcher.reader.read_line(&mut line).unwrap_or(0) == 0 {
            break;
        }
        if let Ok(v) = dns_json::parse(line.trim_end()) {
            if v.get("done").and_then(Json::as_bool) == Some(true) {
                saw_done = true;
                break;
            }
            if v.get("kind").is_some() {
                saw_event = true;
            }
        }
    }
    assert!(saw_event, "watch stream carried no health JSONL lines");
    assert!(saw_done, "watch stream never sent the done marker");

    c.call(&Request::Shutdown);
    server.join().unwrap();

    // the headline guarantee: preempted-and-resumed == uninterrupted,
    // byte for byte
    let outcome = control.join();
    assert_eq!(outcome.status, RunStatus::Done);
    let (ckpt_a, manifest_a) = final_generation(&control_dir);
    let (ckpt_b, manifest_b) = final_generation(&data_dir.join(format!("job-{victim_id}")));
    assert_eq!(
        ckpt_a, ckpt_b,
        "preempted final checkpoint diverged bitwise"
    );
    assert_eq!(manifest_a, manifest_b, "preempted final manifest diverged");

    let _ = std::fs::remove_dir_all(&base);
}

#[test]
fn quota_and_rejection_paths_over_the_wire() {
    let base = std::env::temp_dir().join(format!("dns-quota-e2e-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&base);
    let data_dir: PathBuf = base.join("server");
    let mut cfg = ServerConfig::new(&data_dir);
    cfg.total_cores = 2;
    cfg.tenant_quota = Some(1);
    let server = std::thread::spawn(move || serve(cfg).expect("serve"));
    let addr_file = data_dir.join("addr");
    wait_for("server addr file", Duration::from_secs(10), || {
        addr_file.exists()
    });
    let addr = std::fs::read_to_string(&addr_file)
        .unwrap()
        .trim()
        .to_string();
    let mut c = Client::connect(&addr);

    // a 2-core spec under a 1-core quota: typed refusal over the wire
    let mut wide = urgent_spec();
    wide.params.pa = 2;
    c.writer
        .write_all(
            format!(
                "{}\n",
                Request::Submit {
                    spec: wide,
                    tenant: "acme".into(),
                    priority: 5,
                }
                .to_line()
            )
            .as_bytes(),
        )
        .unwrap();
    let mut line = String::new();
    c.reader.read_line(&mut line).unwrap();
    let v = dns_json::parse(line.trim_end()).unwrap();
    assert_eq!(v.get("ok").and_then(Json::as_bool), Some(false));
    assert!(
        v.get("error")
            .and_then(Json::as_str)
            .unwrap()
            .contains("quota"),
        "expected a quota refusal: {line}"
    );

    // garbage on the wire gets a typed refusal, not a hangup
    c.writer.write_all(b"this is not json\n").unwrap();
    let mut line = String::new();
    c.reader.read_line(&mut line).unwrap();
    let v = dns_json::parse(line.trim_end()).unwrap();
    assert_eq!(v.get("ok").and_then(Json::as_bool), Some(false));

    c.call(&Request::Ping);
    c.call(&Request::Shutdown);
    server.join().unwrap();
    let _ = std::fs::remove_dir_all(&base);
}

// ------------------------------------------------------------ the storm

fn boot(data_dir: &Path, cores: usize) -> (std::thread::JoinHandle<()>, String) {
    let mut cfg = ServerConfig::new(data_dir);
    cfg.total_cores = cores;
    let server = std::thread::spawn(move || serve(cfg).expect("serve"));
    let addr_file = data_dir.join("addr");
    wait_for("server addr file", Duration::from_secs(10), || {
        addr_file.exists()
    });
    let addr = std::fs::read_to_string(&addr_file).unwrap();
    (server, addr.trim().to_string())
}

/// A laminar `steps`-step job on the 16x25x16 grid, or with `slow` the
/// 32x33x32 one.
fn small_spec(name: &str, slow: bool, steps: u64) -> RunSpec {
    let (n, ny) = if slow { (32, 33) } else { (16, 25) };
    RunSpec {
        name: name.into(),
        params: Params::channel(n, ny, n, 50.0).with_dt(1e-3),
        steps,
        ckpt_every: 0,
        ic: InitialCondition::Laminar { scale: 1.0 },
    }
}

fn submit(c: &mut Client, spec: RunSpec, tenant: &str, priority: u8) -> u64 {
    let v = c.call(&Request::Submit {
        spec,
        tenant: tenant.into(),
        priority,
    });
    v.get("id").and_then(Json::as_u64).unwrap()
}

fn state_of(c: &mut Client, id: u64) -> (String, u64) {
    let s = c.call(&Request::Status);
    job_state(&s, id)
}

/// Journal records of `event` for job `id`.
fn journaled(data_dir: &Path, event: &str, id: u64) -> usize {
    let journal = std::fs::read_to_string(data_dir.join("queue.jsonl")).unwrap();
    journal
        .matches(&format!("\"event\":\"{event}\",\"id\":{id},"))
        .count()
        + journal
            .matches(&format!("\"event\":\"{event}\",\"id\":{id}}}"))
            .count()
}

#[test]
fn event_storm_reaches_terminal_states_without_a_timer() {
    const PATIENCE: Duration = Duration::from_secs(120);
    let base = std::env::temp_dir().join(format!("dns-storm-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&base);
    let data_dir = base.join("server");
    let (server, addr) = boot(&data_dir, 1);
    let mut c = Client::connect(&addr);

    // 20 preempt/resume round trips of one long victim, which is then
    // cancelled while it runs
    let victim = submit(
        &mut c,
        small_spec("storm-victim", false, 1_000_000),
        "bulk",
        1,
    );
    let mut after = 0;
    for _ in 0..20 {
        wait_for("the victim to step again", PATIENCE, || {
            let (state, step) = state_of(&mut c, victim);
            state == "running" && step > after
        });
        let urgent = submit(&mut c, small_spec("storm-urgent", false, 2), "ops", 9);
        wait_for("an urgent job to finish", PATIENCE, || {
            state_of(&mut c, urgent).0 == "done"
        });
        after = state_of(&mut c, victim).1;
    }
    assert_eq!(journaled(&data_dir, "preempted", victim), 20);
    assert_eq!(journaled(&data_dir, "resumed", victim), 20);
    c.call(&Request::Cancel { id: victim });
    wait_for("the running victim to cancel", PATIENCE, || {
        state_of(&mut c, victim).0 == "cancelled"
    });

    // a job parked by a preemption is cancelled where it waits; the
    // job that parked it is cancelled while it runs
    let parked = submit(
        &mut c,
        small_spec("storm-parked", false, 1_000_000),
        "bulk",
        1,
    );
    wait_for("the parked job to step", PATIENCE, || {
        state_of(&mut c, parked).1 >= 1
    });
    let hog = submit(&mut c, small_spec("storm-hog", false, 1_000_000), "ops", 9);
    wait_for("the preemption to park it", PATIENCE, || {
        state_of(&mut c, parked).0 == "preempted" && state_of(&mut c, hog).0 == "running"
    });
    c.call(&Request::Cancel { id: parked });
    assert_eq!(state_of(&mut c, parked).0, "cancelled");
    c.call(&Request::Cancel { id: hog });
    wait_for("the hog to cancel", PATIENCE, || {
        state_of(&mut c, hog).0 == "cancelled"
    });

    // a victim on its last step finishes under the preemption request:
    // its exit, not a pause, hands the core over. Asked for while its
    // last step runs, which a slower grid makes a wide window; a watcher
    // tells whether the request landed in time
    let finished_under_request = (0..5).any(|_| {
        let last = submit(&mut c, small_spec("storm-last", true, 3), "bulk", 1);
        let deadline = Instant::now() + PATIENCE;
        while state_of(&mut c, last) != ("running".into(), 2) {
            assert!(Instant::now() < deadline, "the last victim never stepped");
        }
        let mut watcher = Client::connect(&addr);
        watcher.writer.set_read_timeout(Some(PATIENCE)).unwrap();
        watcher.call(&Request::Watch { id: last });
        let urgent = submit(&mut c, small_spec("storm-urgent", false, 2), "ops", 9);
        let mut events = Vec::new();
        loop {
            let mut line = String::new();
            assert!(
                watcher.reader.read_line(&mut line).unwrap() > 0,
                "watch ended early"
            );
            let v = dns_json::parse(line.trim_end()).unwrap();
            if let Some(ev) = v.get("watch_event").and_then(Json::as_str) {
                events.push(ev.to_string());
            }
            if v.get("done").is_some() {
                events.push(v.get("state").and_then(Json::as_str).unwrap().into());
                break;
            }
        }
        wait_for("the urgent job to finish", PATIENCE, || {
            state_of(&mut c, urgent).0 == "done"
        });
        events == ["preempting", "done"]
    });
    assert!(
        finished_under_request,
        "five victims were all paused before their last step"
    );

    // fifty queued three-step jobs drain through the one core
    let queued: Vec<u64> = (0..50)
        .map(|i| {
            let tenant = ["acme", "beta", "gamma", "delta"][i % 4];
            submit(&mut c, small_spec("storm-queued", false, 3), tenant, 5)
        })
        .collect();
    wait_for("fifty queued jobs to finish", PATIENCE, || {
        let s = c.call(&Request::Status);
        queued.iter().all(|&id| job_state(&s, id).0 == "done")
    });

    c.call(&Request::Shutdown);
    server.join().unwrap();
    let _ = std::fs::remove_dir_all(&base);
}

#[test]
fn an_endless_request_line_is_refused_while_others_are_served() {
    let base = std::env::temp_dir().join(format!("dns-line-cap-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&base);
    let (server, addr) = boot(&base.join("server"), 1);

    // 2 MiB with no newline, streamed from its own thread
    let hog = TcpStream::connect(&addr).unwrap();
    hog.set_read_timeout(Some(Duration::from_secs(60))).unwrap();
    let mut flood = hog.try_clone().unwrap();
    let flooding = std::thread::spawn(move || {
        let chunk = vec![b'x'; 64 * 1024];
        for _ in 0..32 {
            flood.write_all(&chunk).expect("the daemon keeps reading");
        }
    });
    // a second client is served throughout
    let mut c = Client::connect(&addr);
    for _ in 0..20 {
        c.call(&Request::Ping);
    }
    flooding.join().unwrap();

    // the hog gets a typed refusal, then the daemon closes on it
    let mut reader = BufReader::new(hog);
    let mut line = String::new();
    reader.read_line(&mut line).unwrap();
    let v = dns_json::parse(line.trim_end()).unwrap();
    assert_eq!(v.get("ok").and_then(Json::as_bool), Some(false), "{line}");
    assert!(line.contains("request line over"), "{line}");
    line.clear();
    assert_eq!(
        reader.read_line(&mut line).unwrap(),
        0,
        "closed after refusal"
    );

    c.call(&Request::Ping);
    c.call(&Request::Shutdown);
    server.join().unwrap();
    let _ = std::fs::remove_dir_all(&base);
}
