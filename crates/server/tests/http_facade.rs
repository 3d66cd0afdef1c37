//! The HTTP observability facade, end to end.
//!
//! Three layers of proof:
//!
//! * **Golden byte-lock** — `/metrics` is a pure function of a
//!   [`MetricsView`], so a fixed view must render byte-identically to
//!   `tests/golden/metrics.prom` (regenerate with `UPDATE_GOLDEN=1`);
//!   the job-table replies of a fixed, drained daemon (`status`,
//!   `/api/v1/jobs`, `/api/v1/queue`) are locked the same way in
//!   `tests/golden/job_table.txt`.
//! * **Protocol robustness** — garbage, wrong methods, unknown routes,
//!   oversized headers, and a slowloris client that trickles its request
//!   one byte at a time: none of them may stall the single-threaded poll
//!   loop, which keeps answering other sockets throughout.
//! * **Live streaming** — `GET /api/v1/jobs/{id}/health` replays a real
//!   job's health JSONL as Server-Sent Events while the job runs, and
//!   terminates with a named `done` event carrying the final state.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use dns_core::run::{InitialCondition, RunSpec};
use dns_core::Params;
use dns_json::Json;
use dns_server::daemon::{serve, ServerConfig};
use dns_server::metrics::{render, MetricsView};
use dns_server::proto::Request;
use dns_server::tenants::TenantTable;
use dns_telemetry::{Counter, CounterSet, Snapshot};

// ---------------------------------------------------------------- golden

fn golden(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(name)
}

/// `body` must equal the golden file `name` byte for byte
/// (`UPDATE_GOLDEN=1` rewrites it instead).
fn assert_golden(name: &str, body: &str) {
    let path = golden(name);
    if std::env::var("UPDATE_GOLDEN").is_ok() {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, body).unwrap();
        return;
    }
    let golden = std::fs::read_to_string(&path)
        .expect("golden file missing: run with UPDATE_GOLDEN=1 to create");
    assert_eq!(
        body, golden,
        "reply drifted from tests/golden/{name}; \
         if intentional, regenerate with UPDATE_GOLDEN=1"
    );
}

/// A fixed, fully-populated view: two tenants with different delivery,
/// one queue-wait histogram, one finished run, and tenant-attributed
/// telemetry counters.
fn fixture_body() -> String {
    let mut tenants = TenantTable::new();
    {
        let s = tenants.entry("acme");
        s.submitted = 3;
        s.launches = 4;
        s.preemptions = 1;
        s.finished = 2;
        s.core_seconds = 96.5;
        s.queue_wait.record(0.002);
        s.queue_wait.record(0.004);
        s.queue_wait.record(1.5);
        s.run_duration.record(12.0);
        s.run_duration.record(14.0);
    }
    {
        let s = tenants.entry("beta");
        s.submitted = 1;
        s.launches = 1;
        s.finished = 1;
        s.core_seconds = 32.0;
        s.queue_wait.record(0.25);
        s.run_duration.record(3.0);
    }
    let mut acme = CounterSet::new();
    acme.add(Counter::JobsSubmitted, 3);
    acme.add(Counter::QueueWaitUs, 1_506_000);
    let mut beta = CounterSet::new();
    beta.add(Counter::JobsSubmitted, 1);
    beta.add(Counter::QueueWaitUs, 250_000);
    let snapshot = Snapshot {
        ranks: vec![],
        tenants: vec![("acme".into(), acme), ("beta".into(), beta)],
    };
    render(&MetricsView {
        total_cores: 8,
        free_cores: 5,
        draining: false,
        jobs_by_state: &[
            ("queued", 1),
            ("starting", 0),
            ("running", 2),
            ("preempting", 0),
            ("preempted", 1),
            ("done", 3),
            ("failed", 0),
        ],
        tenants: &tenants,
        snapshot: &snapshot,
    })
}

#[test]
fn metrics_body_is_byte_locked_against_golden() {
    let body = fixture_body();
    assert_eq!(body, fixture_body(), "render must be deterministic");
    assert_golden("metrics.prom", &body);
}

// ------------------------------------------------------------- e2e rig

struct Client {
    reader: std::io::BufReader<TcpStream>,
    writer: TcpStream,
}

impl Client {
    fn connect(addr: &str) -> Client {
        let stream = TcpStream::connect(addr).expect("connect");
        let writer = stream.try_clone().unwrap();
        Client {
            reader: std::io::BufReader::new(stream),
            writer,
        }
    }

    fn call(&mut self, req: &Request) -> Json {
        use std::io::BufRead;
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
        std::thread::sleep(Duration::from_millis(10));
    }
}

/// Boot the daemon in a thread; returns (line-protocol addr, http addr).
fn boot(data_dir: &Path, cores: usize) -> (String, String) {
    let mut cfg = ServerConfig::new(data_dir);
    cfg.total_cores = cores;
    std::thread::spawn(move || {
        serve(cfg).expect("serve");
    });
    let addr_file = data_dir.join("addr");
    let http_file = data_dir.join("http_addr");
    wait_for("server addr files", Duration::from_secs(10), || {
        addr_file.exists() && http_file.exists()
    });
    let read = |p: &Path| std::fs::read_to_string(p).unwrap().trim().to_string();
    (read(&addr_file), read(&http_file))
}

/// One blocking HTTP request; returns (status-line, headers, body).
fn http_get(addr: &str, raw_request: &str) -> (String, String, Vec<u8>) {
    let mut s = TcpStream::connect(addr).expect("http connect");
    s.write_all(raw_request.as_bytes()).unwrap();
    let mut buf = Vec::new();
    s.set_read_timeout(Some(Duration::from_secs(20))).unwrap();
    s.read_to_end(&mut buf).expect("read response");
    let head_end = buf
        .windows(4)
        .position(|w| w == b"\r\n\r\n")
        .expect("response has a header block");
    let head = String::from_utf8_lossy(&buf[..head_end]).to_string();
    let body = buf[head_end + 4..].to_vec();
    let (status, headers) = head.split_once("\r\n").unwrap_or((head.as_str(), ""));
    (status.to_string(), headers.to_string(), body)
}

fn get(addr: &str, path: &str) -> (String, String, Vec<u8>) {
    http_get(addr, &format!("GET {path} HTTP/1.1\r\nHost: x\r\n\r\n"))
}

fn tiny_spec(name: &str, steps: u64) -> RunSpec {
    RunSpec {
        name: name.into(),
        params: Params::channel(16, 25, 16, 50.0).with_dt(1e-3),
        steps,
        ckpt_every: 0,
        ic: InitialCondition::Laminar { scale: 1.0 },
    }
}

// ---------------------------------------------------------------- tests

/// A drained daemon holds still: six jobs over three tenants (one name
/// with a quote, a backslash, a control character and non-ASCII text),
/// one of them cancelled, none launched, so every byte of its job-table
/// replies is fixed. They are locked in `tests/golden/job_table.txt`,
/// one per line: the `status` reply, the `/api/v1/jobs` body, the
/// `/api/v1/queue` body and the `tenants` reply.
#[test]
fn job_table_replies_are_byte_locked_against_golden() {
    let base = std::env::temp_dir().join(format!("dns-http-golden-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&base);
    let (addr, http) = boot(&base.join("server"), 3);
    let mut c = Client::connect(&addr);
    c.call(&Request::Drain);
    let names = [
        "alpha",
        "q\"uote\\slash\u{7}bell ünï 日本",
        "gamma",
        "delta",
        "eps",
        "zeta",
    ];
    let tenants = ["acme", "beta", "gamma"];
    for (i, name) in names.iter().enumerate() {
        c.call(&Request::Submit {
            spec: tiny_spec(name, 10 + i as u64),
            tenant: tenants[i % 3].into(),
            priority: (3 * i % 7) as u8,
        });
    }
    c.call(&Request::Cancel { id: 4 });

    let mut raw = TcpStream::connect(&addr).unwrap();
    let mut reader = std::io::BufReader::new(raw.try_clone().unwrap());
    let mut ask = |req: Request| {
        raw.write_all(format!("{}\n", req.to_line()).as_bytes())
            .unwrap();
        let mut line = String::new();
        std::io::BufRead::read_line(&mut reader, &mut line).unwrap();
        line
    };
    let (status, tenants) = (ask(Request::Status), ask(Request::Tenants));
    let body = |path| {
        let (head, _, body) = get(&http, path);
        assert_eq!(head, "HTTP/1.1 200 OK");
        String::from_utf8(body).unwrap()
    };
    let (jobs, queue) = (body("/api/v1/jobs"), body("/api/v1/queue"));
    // the facade's job table is the status line without its `ok` key
    assert_eq!(jobs, status.replacen("\"ok\":true,", "", 1));
    assert_golden("job_table.txt", &format!("{status}{jobs}{queue}{tenants}"));
    c.call(&Request::Shutdown);
    let _ = std::fs::remove_dir_all(&base);
}

#[test]
fn facade_routes_malformed_requests_and_slowloris() {
    let base = std::env::temp_dir().join(format!("dns-http-facade-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&base);
    let (addr, http) = boot(&base.join("server"), 2);

    // a slowloris client opens first and trickles one byte per write;
    // everything below must be answered while it holds its socket open
    let mut slow = TcpStream::connect(&http).unwrap();
    slow.write_all(b"GET /metr").unwrap();

    // live campaign state so /metrics and /api/v1/* have content
    let mut c = Client::connect(&addr);
    let v = c.call(&Request::Submit {
        spec: tiny_spec("obs-a", 10),
        tenant: "acme".into(),
        priority: 5,
    });
    let id_a = v.get("id").and_then(Json::as_u64).unwrap();
    c.call(&Request::Submit {
        spec: tiny_spec("obs-b", 10),
        tenant: "beta".into(),
        priority: 5,
    });
    wait_for("first job to finish", Duration::from_secs(60), || {
        let s = c.call(&Request::Status);
        s.get("jobs")
            .and_then(Json::as_arr)
            .unwrap()
            .iter()
            .any(|j| {
                j.get("id").and_then(Json::as_u64) == Some(id_a)
                    && j.get("state").and_then(Json::as_str) == Some("done")
            })
    });

    // /metrics: prometheus content type, tenant labels, fairness gauge
    let (status, headers, body) = get(&http, "/metrics");
    assert_eq!(status, "HTTP/1.1 200 OK");
    assert!(
        headers.contains("Content-Type: text/plain; version=0.0.4"),
        "{headers}"
    );
    let text = String::from_utf8(body).unwrap();
    assert!(text.contains("dns_tenant_jobs_total{tenant=\"acme\",event=\"submitted\"} 1\n"));
    assert!(text.contains("dns_tenant_jobs_total{tenant=\"beta\",event=\"submitted\"} 1\n"));
    assert!(text.contains("# TYPE dns_server_jain_fairness gauge"));
    assert!(text.contains("dns_tenant_queue_wait_seconds_count{tenant=\"acme\"}"));

    // /api/v1/tenants: canonical JSON with both tenants + fairness
    let (status, headers, body) = get(&http, "/api/v1/tenants");
    assert_eq!(status, "HTTP/1.1 200 OK");
    assert!(
        headers.contains("Content-Type: application/json"),
        "{headers}"
    );
    let v = dns_json::parse(String::from_utf8(body).unwrap().trim()).unwrap();
    let rows = v.get("tenants").and_then(Json::as_arr).unwrap();
    let names: Vec<&str> = rows
        .iter()
        .map(|r| r.get("tenant").and_then(Json::as_str).unwrap())
        .collect();
    assert_eq!(names, ["acme", "beta"]);
    let jain = v.get("jain_fairness").and_then(Json::as_f64).unwrap();
    assert!((0.0..=1.0).contains(&jain), "jain={jain}");

    // /api/v1/jobs and /api/v1/queue parse and agree with the line protocol
    let (status, _, body) = get(&http, "/api/v1/jobs");
    assert_eq!(status, "HTTP/1.1 200 OK");
    let v = dns_json::parse(String::from_utf8(body).unwrap().trim()).unwrap();
    assert!(v.get("jobs").and_then(Json::as_arr).unwrap().len() >= 2);
    let (status, _, _) = get(&http, "/api/v1/queue");
    assert_eq!(status, "HTTP/1.1 200 OK");

    // malformed / unsupported requests get typed errors, not hangs
    let (status, _, _) = http_get(&http, "complete nonsense\r\n\r\n");
    assert_eq!(status, "HTTP/1.1 400 Bad Request");
    let (status, _, _) = http_get(&http, "POST /metrics HTTP/1.1\r\nHost: x\r\n\r\n");
    assert_eq!(status, "HTTP/1.1 405 Method Not Allowed");
    let (status, _, _) = get(&http, "/nope");
    assert_eq!(status, "HTTP/1.1 404 Not Found");
    let (status, _, _) = get(&http, "/api/v1/jobs/999999/health");
    assert_eq!(status, "HTTP/1.1 404 Not Found");
    let huge = format!(
        "GET /metrics HTTP/1.1\r\nX-Pad: {}\r\n\r\n",
        "a".repeat(9000)
    );
    let (status, _, _) = http_get(&http, &huge);
    assert_eq!(status, "HTTP/1.1 431 Request Header Fields Too Large");

    // the slowloris socket was held open through all of the above; let it
    // trickle the rest of its request and it still gets a real answer
    slow.write_all(b"ics HTTP/1.1\r\n").unwrap();
    std::thread::sleep(Duration::from_millis(20));
    slow.write_all(b"Host: x\r\n\r\n").unwrap();
    let mut buf = Vec::new();
    slow.set_read_timeout(Some(Duration::from_secs(20)))
        .unwrap();
    slow.read_to_end(&mut buf).expect("slowloris response");
    let head = String::from_utf8_lossy(&buf);
    assert!(
        head.starts_with("HTTP/1.1 200 OK"),
        "slowloris finally got its metrics: {}",
        &head[..head.len().min(120)]
    );

    let _ = std::fs::remove_dir_all(&base);
}

#[test]
fn sse_health_stream_follows_a_live_job_to_done() {
    let base = std::env::temp_dir().join(format!("dns-http-sse-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&base);
    let (addr, http) = boot(&base.join("server"), 2);

    let mut c = Client::connect(&addr);
    let v = c.call(&Request::Submit {
        spec: tiny_spec("sse-job", 25),
        tenant: "acme".into(),
        priority: 5,
    });
    let id = v.get("id").and_then(Json::as_u64).unwrap();
    wait_for("job to start", Duration::from_secs(30), || {
        let s = c.call(&Request::Status);
        s.get("jobs")
            .and_then(Json::as_arr)
            .unwrap()
            .iter()
            .any(|j| {
                j.get("id").and_then(Json::as_u64) == Some(id)
                    && j.get("state").and_then(Json::as_str) == Some("running")
            })
    });

    // subscribe mid-run and read the stream until the server closes it
    let mut s = TcpStream::connect(&http).unwrap();
    s.write_all(format!("GET /api/v1/jobs/{id}/health HTTP/1.1\r\nHost: x\r\n\r\n").as_bytes())
        .unwrap();
    s.set_read_timeout(Some(Duration::from_secs(120))).unwrap();
    let mut raw = Vec::new();
    s.read_to_end(&mut raw).expect("SSE stream to completion");
    let text = String::from_utf8_lossy(&raw);

    let (head, stream) = text.split_once("\r\n\r\n").expect("SSE header block");
    assert!(head.starts_with("HTTP/1.1 200 OK"), "{head}");
    assert!(head.contains("Content-Type: text/event-stream"), "{head}");
    assert!(
        !head.contains("Content-Length"),
        "SSE must not be length-delimited"
    );

    // every data: line is one valid health JSONL record
    let mut health_events = 0;
    for line in stream.lines() {
        if let Some(payload) = line.strip_prefix("data: ") {
            if payload.starts_with('{') {
                let v = dns_json::parse(payload).expect("health record parses");
                if v.get("event").is_some() || v.get("step").is_some() {
                    health_events += 1;
                }
            }
        }
    }
    assert!(
        health_events > 0,
        "stream carried live health records:\n{stream}"
    );
    // and the stream ends with the named done event carrying final state
    assert!(
        stream.contains("event: done\n"),
        "terminal event present:\n{stream}"
    );
    let done_payload = stream
        .split("event: done\n")
        .nth(1)
        .and_then(|rest| rest.strip_prefix("data: "))
        .map(|rest| rest.lines().next().unwrap())
        .expect("done event has a data line");
    let v = dns_json::parse(done_payload).unwrap();
    assert_eq!(v.get("state").and_then(Json::as_str), Some("done"));

    let _ = std::fs::remove_dir_all(&base);
}
