//! The campaign client: submit runs to a `dns-server` daemon, inspect
//! the queue, stream a job's health telemetry, cancel, and drain.
//!
//! ```text
//! dns-cli submit --nx 16 --ny 25 --nz 16 --re 80 --steps 200 \
//!                --ckpt-every 50 --tenant acme --priority 20
//! dns-cli status
//! dns-cli watch 1
//! dns-cli drain
//! ```
//!
//! The server address comes from `--server HOST:PORT`, or is read from
//! `DATA_DIR/addr` (`--data-dir`, default `target/dns-server`) — the
//! file the daemon writes as soon as its socket is bound.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::PathBuf;
use std::time::Duration;

use dns_core::flags::{parsed, put, Command, Flag};
use dns_core::spec::RunSpec;
use dns_core::Params;
use dns_json::Json;
use dns_server::proto::{JobRow, Request, TenantRow};
use dns_telemetry::fmt_seconds;

fn fail(msg: &str) -> ! {
    eprintln!("dns-cli: {msg}");
    std::process::exit(1);
}

struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Client {
    fn connect(addr: &str) -> Client {
        let stream = TcpStream::connect(addr)
            .unwrap_or_else(|e| fail(&format!("cannot connect to {addr}: {e}")));
        let writer = stream.try_clone().expect("clone stream");
        Client {
            reader: BufReader::new(stream),
            writer,
        }
    }

    fn send(&mut self, req: &Request) {
        let line = req.to_line();
        self.writer
            .write_all(format!("{line}\n").as_bytes())
            .unwrap_or_else(|e| fail(&format!("send failed: {e}")));
    }

    fn recv(&mut self) -> Json {
        let mut line = String::new();
        let n = self
            .reader
            .read_line(&mut line)
            .unwrap_or_else(|e| fail(&format!("recv failed: {e}")));
        if n == 0 {
            fail("server closed the connection");
        }
        dns_json::parse(line.trim_end())
            .unwrap_or_else(|e| fail(&format!("bad response {line:?}: {e}")))
    }

    /// Send, receive one response, and die loudly on `{"ok":false}`.
    fn call(&mut self, req: &Request) -> Json {
        self.send(req);
        let v = self.recv();
        if v.get("ok").and_then(Json::as_bool) != Some(true) {
            let msg = v
                .get("error")
                .and_then(Json::as_str)
                .unwrap_or("unknown error");
            fail(msg);
        }
        v
    }
}

/// What the command line decides: the connection, the command with its
/// job id, and what `submit` sends.
struct Cli {
    server: Option<String>,
    data_dir: PathBuf,
    words: Vec<String>,
    spec: RunSpec,
    tenant: String,
    priority: u8,
    submit_rows: bool,
}

/// `c`, noted as given a row only `submit` reads (`submit_rows`).
fn submitting(c: &mut Cli) -> &mut Cli {
    c.submit_rows = true;
    c
}

/// The rows besides the run description (those are
/// [`SPEC_FLAGS`](dns_core::spec::SPEC_FLAGS), read by `submit`).
#[rustfmt::skip] // a table: one row per flag, not one line per field
const FLAGS: &[Flag<Cli>] = &[
    Flag("--name", "NAME", "display name (default cli-run)",
        |c, v| put(&mut submitting(c).spec.name, v)),
    Flag("--tenant", "T", "owning tenant (default 'default')",
        |c, v| put(&mut submitting(c).tenant, v)),
    Flag("--priority", "P", "higher runs first (default 10)",
        |c, v| put(&mut submitting(c).priority, v)),
    Flag("--server", "HOST:PORT", "daemon address, any command (default: read DATA_DIR/addr)",
        |c, v| parsed(v).map(|addr| c.server = Some(addr))),
    Flag("--data-dir", "DIR",
        "where the daemon keeps its addr file, any command (default target/dns-server)",
        |c, v| put(&mut c.data_dir, v)),
    Flag("COMMAND", "[ID]", "one of the commands above; watch and cancel take a job ID",
        |c, v| {
            c.words.push(v.into());
            Ok(())
        }),
];

fn base() -> Cli {
    Cli {
        server: None,
        data_dir: PathBuf::from("target/dns-server"),
        words: Vec::new(),
        spec: RunSpec {
            name: "cli-run".into(),
            params: Params::channel(16, 25, 16, 80.0).with_dt(1e-3),
            steps: 100,
            ckpt_every: 25,
            ..RunSpec::default()
        },
        tenant: "default".into(),
        priority: 10,
        submit_rows: false,
    }
}

/// What `--help` prints above the rows: the commands, then the base spec
/// `submit` starts from in its own words.
fn about() -> String {
    format!(
        "\
client for the dns-server campaign daemon

usage: dns-cli COMMAND [ID] [flags]

commands:
  submit                   queue a run (from --spec FILE.json or inline flags)
  status                   show the queue (and the queue-wait percentiles)
  tenants                  per-tenant fairness table: waits, core-seconds, Jain index
  watch ID                 stream a job's health JSONL until it finishes
                           (typed preemption/resume events; auto-resubscribes)
  cancel ID                cancel a job
  drain                    checkpoint everything running, stop scheduling
  undrain                  lift a drain
  ping                     liveness probe
  shutdown                 stop the daemon

flags (the run-description rows and --name/--tenant/--priority are submit's;
where a default quoted below is dns-run's, submit starts from
{}):
",
        base().spec
    )
}

/// The request the command words and flags ask for.
fn request(c: &mut Cli) -> Result<Request, String> {
    let (cmd, rest) = c.words.split_first().ok_or("missing command")?;
    let id = || -> Result<u64, String> {
        let id = rest.first().ok_or(format!("{cmd} needs a job id"))?;
        id.parse().map_err(|_| format!("{cmd}: bad job id {id:?}"))
    };
    let req = match cmd.as_str() {
        "submit" => {
            c.spec.validate().map_err(|e| e.to_string())?;
            Request::Submit {
                spec: c.spec.clone(),
                tenant: c.tenant.clone(),
                priority: c.priority,
            }
        }
        "status" => Request::Status,
        "tenants" => Request::Tenants,
        "watch" => Request::Watch { id: id()? },
        "cancel" => Request::Cancel { id: id()? },
        "drain" => Request::Drain,
        "undrain" => Request::Undrain,
        "ping" => Request::Ping,
        "shutdown" => Request::Shutdown,
        other => return Err(format!("unknown command {other}")),
    };
    if c.submit_rows && !matches!(req, Request::Submit { .. }) {
        return Err(format!("{cmd} takes none of submit's flags"));
    }
    let words = 1 + matches!(req, Request::Watch { .. } | Request::Cancel { .. }) as usize;
    match c.words.get(words) {
        Some(extra) => Err(format!("unexpected argument {extra}")),
        None => Ok(req),
    }
}

/// The daemon's address: `--server`, else the file it wrote on start-up.
fn address(c: &Cli) -> String {
    c.server.clone().unwrap_or_else(|| {
        let addr_file = c.data_dir.join("addr");
        std::fs::read_to_string(&addr_file)
            .map(|s| s.trim().to_string())
            .unwrap_or_else(|e| {
                fail(&format!(
                    "no --server given and cannot read {}: {e} (is the daemon running?)",
                    addr_file.display()
                ))
            })
    })
}

fn print_status(v: &Json) {
    let rows: Vec<JobRow> = v
        .get("jobs")
        .and_then(Json::as_arr)
        .map(|a| a.iter().filter_map(JobRow::from_json).collect())
        .unwrap_or_default();
    println!(
        "{:>4}  {:<16} {:<10} {:>4} {:>6}  {:<11} {:>11}",
        "ID", "NAME", "TENANT", "PRI", "CORES", "STATE", "STEP"
    );
    for r in rows {
        println!(
            "{:>4}  {:<16} {:<10} {:>4} {:>6}  {:<11} {:>5}/{}",
            r.id, r.name, r.tenant, r.priority, r.cores, r.state, r.step, r.steps
        );
    }
    let free = v.get("free_cores").and_then(Json::as_u64).unwrap_or(0);
    let total = v.get("total_cores").and_then(Json::as_u64).unwrap_or(0);
    let draining = v.get("draining").and_then(Json::as_bool).unwrap_or(false);
    println!(
        "free cores {free}/{total}{}",
        if draining { ", draining" } else { "" }
    );
    if let Some(qw) = v.get("queue_wait") {
        let count = qw.get("count").and_then(Json::as_u64).unwrap_or(0);
        if count > 0 {
            let q = |k: &str| qw.get(k).and_then(Json::as_f64).unwrap_or(0.0);
            println!(
                "queue wait (n={count})  p50={}  p90={}  p99={}",
                fmt_seconds(q("p50")),
                fmt_seconds(q("p90")),
                fmt_seconds(q("p99"))
            );
        }
    }
}

fn print_tenants(v: &Json) {
    let rows: Vec<TenantRow> = v
        .get("tenants")
        .and_then(Json::as_arr)
        .map(|a| a.iter().filter_map(TenantRow::from_json).collect())
        .unwrap_or_default();
    println!(
        "{:<12} {:>4} {:>7} {:>8} {:>4} {:>10}  {:>5} {:>9} {:>9}",
        "TENANT", "SUB", "LAUNCH", "PREEMPT", "FIN", "CORE-SEC", "WAITS", "WAIT-P50", "WAIT-P99"
    );
    for r in rows {
        println!(
            "{:<12} {:>4} {:>7} {:>8} {:>4} {:>10.1}  {:>5} {:>9} {:>9}",
            r.tenant,
            r.submitted,
            r.launches,
            r.preemptions,
            r.finished,
            r.core_seconds,
            r.wait_count,
            fmt_seconds(r.wait_p50),
            fmt_seconds(r.wait_p99)
        );
    }
    let jain = v.get("jain_fairness").and_then(Json::as_f64).unwrap_or(1.0);
    println!("jain fairness over core-seconds: {jain:.4}");
}

/// How one pass of streaming a watch subscription ended.
enum WatchEnd {
    /// The server sent the `done` marker: the job is terminal.
    Done,
    /// The stream dropped without a marker (server restart, network);
    /// the caller should resubscribe.
    Dropped,
}

/// Forward one subscription's lines until the done marker or EOF,
/// rendering typed `watch_event` lines (preemption/resume) instead of
/// letting the stream go silently quiet.
fn stream_watch(client: &mut Client, id: u64) -> WatchEnd {
    loop {
        let mut line = String::new();
        let n = client.reader.read_line(&mut line).unwrap_or(0);
        if n == 0 {
            return WatchEnd::Dropped;
        }
        let line = line.trim_end();
        if let Ok(v) = dns_json::parse(line) {
            if v.get("done").and_then(Json::as_bool) == Some(true) {
                let state = v.get("state").and_then(Json::as_str).unwrap_or("?");
                println!("job {id}: {state}");
                return WatchEnd::Done;
            }
            if let Some(ev) = v.get("watch_event").and_then(Json::as_str) {
                match ev {
                    "preempting" => eprintln!(
                        "dns-cli: job {id} is being preempted (checkpointing; stream stays open)"
                    ),
                    "preempted" => eprintln!(
                        "dns-cli: job {id} preempted — parked on its checkpoint, waiting for cores"
                    ),
                    "resumed" => eprintln!("dns-cli: job {id} resumed"),
                    other => eprintln!("dns-cli: job {id}: {other}"),
                }
                continue;
            }
        }
        println!("{line}");
    }
}

fn main() {
    let about = about();
    let command = Command {
        name: "dns-cli",
        about: &about,
        flags: FLAGS,
        spec: Some(|c| &mut submitting(c).spec),
    };
    let (c, req) = command.parse(base(), |mut c| {
        let req = request(&mut c)?;
        Ok((c, req))
    });
    let addr = address(&c);
    let mut client = Client::connect(&addr);
    if let Request::Watch { id } = req {
        // from here the server streams health JSONL lines (plus typed
        // watch_event lines), then a done marker, then closes. A drop
        // without the marker is NOT the end of the job — resubscribe
        // until the server reports a terminal state.
        let mut session = Some(client);
        loop {
            let mut c = session.take().unwrap_or_else(|| Client::connect(&addr));
            c.call(&req);
            match stream_watch(&mut c, id) {
                WatchEnd::Done => return,
                WatchEnd::Dropped => {
                    eprintln!("dns-cli: watch stream for job {id} dropped; resubscribing");
                    std::thread::sleep(Duration::from_millis(300));
                }
            }
        }
    }
    let v = client.call(&req);
    match req {
        Request::Submit { .. } => {
            let id = v.get("id").and_then(Json::as_u64).unwrap_or(0);
            println!("submitted job {id}");
        }
        Request::Status => print_status(&v),
        Request::Tenants => print_tenants(&v),
        Request::Cancel { id } => println!("cancel requested for job {id}"),
        Request::Drain => println!("draining: running jobs are checkpointing"),
        Request::Undrain => println!("scheduling resumed"),
        Request::Ping => println!("ok"),
        Request::Shutdown => println!("server shutting down"),
        Request::Watch { .. } => unreachable!("watch streams above"),
    }
}
