//! Chaos test: SIGKILL the real `dns-server` binary in the middle of a
//! multi-tenant campaign, restart it on the same data directory, and
//! prove that every journaled run is recovered — interrupted jobs resume
//! from their last committed checkpoint generation, queued jobs start
//! fresh, and the whole campaign runs to completion. This is the
//! append-only, CRC-checked journal earning its keep.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use dns_core::run::{InitialCondition, RunSpec};
use dns_core::Params;
use dns_json::Json;
use dns_server::proto::Request;

const STEPS: u64 = 20;
const TENANTS: [&str; 4] = ["acme", "globex", "initech", "umbrella"];

fn spec(name: &str) -> RunSpec {
    RunSpec {
        name: name.into(),
        params: Params::channel(16, 25, 16, 50.0).with_dt(1e-3),
        steps: STEPS,
        ckpt_every: 2,
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
            "request refused: {line}"
        );
        v
    }
}

fn wait_for<F: FnMut() -> bool>(what: &str, timeout: Duration, mut f: F) {
    let deadline = Instant::now() + timeout;
    while !f() {
        assert!(Instant::now() < deadline, "timed out waiting for {what}");
        std::thread::sleep(Duration::from_millis(20));
    }
}

fn start_server(data_dir: &Path) -> (Child, String) {
    // a stale addr file from a killed predecessor must not be mistaken
    // for the new server's socket
    let addr_file = data_dir.join("addr");
    let _ = std::fs::remove_file(&addr_file);
    let child = Command::new(env!("CARGO_BIN_EXE_dns-server"))
        .args(["--data-dir", data_dir.to_str().unwrap(), "--cores", "2"])
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn dns-server");
    wait_for("server addr file", Duration::from_secs(20), || {
        addr_file.exists()
    });
    let addr = std::fs::read_to_string(&addr_file)
        .unwrap()
        .trim()
        .to_string();
    (child, addr)
}

fn states(c: &mut Client) -> Vec<(u64, String, u64)> {
    let s = c.call(&Request::Status);
    s.get("jobs")
        .and_then(Json::as_arr)
        .map(|a| {
            a.iter()
                .map(|j| {
                    (
                        j.get("id").and_then(Json::as_u64).unwrap(),
                        j.get("state").and_then(Json::as_str).unwrap().to_string(),
                        j.get("step").and_then(Json::as_u64).unwrap(),
                    )
                })
                .collect()
        })
        .unwrap_or_default()
}

#[test]
fn sigkilled_server_recovers_every_run_from_the_journal() {
    let base: PathBuf =
        std::env::temp_dir().join(format!("dns-server-chaos-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&base);
    let data_dir = base.join("server");
    std::fs::create_dir_all(&data_dir).unwrap();

    // ---- act 1: a four-tenant campaign on a two-core budget ----
    let (mut child, addr) = start_server(&data_dir);
    let mut c = Client::connect(&addr);
    let mut ids = Vec::new();
    for t in TENANTS {
        let v = c.call(&Request::Submit {
            spec: spec(&format!("{t}-run")),
            tenant: t.into(),
            priority: 10,
        });
        ids.push(v.get("id").and_then(Json::as_u64).unwrap());
    }
    assert_eq!(ids.len(), 4);

    // wait until the campaign is genuinely mid-flight: two jobs running
    // (the budget is full) and at least one past a checkpoint cadence
    wait_for(
        "two running, one checkpointed",
        Duration::from_secs(60),
        || {
            let st = states(&mut c);
            let running = st.iter().filter(|(_, s, _)| s == "running").count();
            running == 2 && st.iter().any(|(_, s, step)| s == "running" && *step >= 2)
        },
    );

    // ---- act 2: SIGKILL, no goodbye ----
    child.kill().expect("kill server");
    child.wait().expect("reap server");
    drop(c);

    // ---- act 3: restart on the same data_dir, recover, finish ----
    let (mut child2, addr2) = start_server(&data_dir);
    let mut c = Client::connect(&addr2);

    // the recovery artifact names what came back from the journal
    let rec_text = std::fs::read_to_string(data_dir.join("recovery.json"))
        .expect("recovery.json written on restart");
    let rec = dns_json::parse(rec_text.trim()).unwrap();
    assert_eq!(
        rec.get("kind").and_then(Json::as_str),
        Some("server_recovery")
    );
    let recovered = rec.get("recovered").and_then(Json::as_arr).unwrap();
    assert_eq!(
        recovered.len(),
        4,
        "all four in-flight jobs should be recovered: {rec_text}"
    );
    assert!(
        recovered
            .iter()
            .any(|r| r.get("interrupted").and_then(Json::as_bool) == Some(true)),
        "the running jobs should be flagged interrupted: {rec_text}"
    );
    assert_eq!(
        rec.get("journal_truncated").and_then(Json::as_bool),
        Some(false)
    );

    // every journaled run completes
    wait_for("all four jobs done", Duration::from_secs(300), || {
        let st = states(&mut c);
        st.iter().all(|(_, s, _)| s == "done")
            && st.iter().map(|(id, _, _)| *id).collect::<Vec<_>>() == ids
    });
    let st = states(&mut c);
    for (id, _, step) in &st {
        assert_eq!(*step, STEPS, "job {id} stopped short");
        let manifest = data_dir.join(format!("job-{id}/state.s{STEPS}.manifest"));
        assert!(
            manifest.exists(),
            "job {id} has no final checkpoint manifest"
        );
        let outcome = data_dir.join(format!("job-{id}/outcome.json"));
        let v = dns_json::parse(std::fs::read_to_string(outcome).unwrap().trim()).unwrap();
        assert_eq!(v.get("status").and_then(Json::as_str), Some("done"));
    }

    // the journal itself tells the recovery story
    let journal = std::fs::read_to_string(data_dir.join("queue.jsonl")).unwrap();
    assert_eq!(
        journal.matches("\"event\":\"submitted\"").count(),
        4,
        "submissions are journaled exactly once"
    );
    assert_eq!(
        journal.matches("\"event\":\"done\"").count(),
        4,
        "every run completed after the crash"
    );
    assert!(
        journal.contains("\"event\":\"resumed\""),
        "interrupted jobs came back via resume records"
    );

    c.call(&Request::Shutdown);
    let deadline = Instant::now() + Duration::from_secs(20);
    loop {
        match child2.try_wait().expect("try_wait") {
            Some(status) => {
                assert!(status.success(), "server exited with {status}");
                break;
            }
            None if Instant::now() > deadline => {
                child2.kill().ok();
                panic!("server did not exit after shutdown");
            }
            None => std::thread::sleep(Duration::from_millis(20)),
        }
    }
    let _ = std::fs::remove_dir_all(&base);
}

/// A request line nested 100 000 deep gets a typed refusal, and the
/// daemon answers the next request: parsing it must not run the
/// connection thread out of stack, which aborts the whole process.
#[test]
fn a_deeply_nested_request_line_is_refused_and_the_daemon_lives_on() {
    let base: PathBuf =
        std::env::temp_dir().join(format!("dns-server-nested-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&base);
    let data_dir = base.join("server");
    std::fs::create_dir_all(&data_dir).unwrap();
    let (mut child, addr) = start_server(&data_dir);
    let mut c = Client::connect(&addr);
    let depth = 100_000;
    let nested = "[".repeat(depth) + &"]".repeat(depth) + "\n";
    c.writer.write_all(nested.as_bytes()).expect("send");
    let mut line = String::new();
    c.reader.read_line(&mut line).expect("recv");
    let v = dns_json::parse(line.trim_end()).expect("a reply line");
    assert_eq!(v.get("ok").and_then(Json::as_bool), Some(false), "{line}");
    c.call(&Request::Ping);
    c.call(&Request::Shutdown);
    assert!(child.wait().expect("reap server").success());
    let _ = std::fs::remove_dir_all(&base);
}
