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

use dns_core::spec::{self, put, Flag, RunSpec};
use dns_core::Params;
use dns_json::Json;
use dns_server::proto::{JobRow, Request, TenantRow};
use dns_telemetry::fmt_seconds;

const USAGE: &str = "\
dns-cli: client for the dns-server campaign daemon

usage: dns-cli <command> [flags]

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

connection flags (all commands):
  --server HOST:PORT       daemon address (default: read DATA_DIR/addr)
  --data-dir DIR           where the daemon keeps its addr file (default target/dns-server)
";

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

/// Shared connection flags, stripped out of the argument list before the
/// per-command parsing sees it.
fn split_conn_flags(args: &mut Vec<String>) -> String {
    // every `flag VALUE` pair leaves the list; the last one given wins
    let mut take = |flag: &str| {
        let mut value = None;
        while let Some(i) = args.iter().position(|a| a == flag) {
            args.remove(i);
            if i >= args.len() {
                fail(&format!("{flag} needs a value"));
            }
            value = Some(args.remove(i));
        }
        value
    };
    let server = take("--server");
    let data_dir = PathBuf::from(take("--data-dir").unwrap_or("target/dns-server".into()));
    server.unwrap_or_else(|| {
        let addr_file = data_dir.join("addr");
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

/// What `dns-cli submit` sends: the run and who queues it how urgently.
struct Submit {
    spec: RunSpec,
    tenant: String,
    priority: u8,
}

/// The submit flags that are not part of the run description (those are
/// [`spec::SPEC_FLAGS`]).
#[rustfmt::skip] // a table: one row per flag, not one line per field
const SUBMIT_FLAGS: &[Flag<Submit>] = &[
    Flag("--name", "NAME", "display name (default cli-run)", |s, v| put(&mut s.spec.name, v)),
    Flag("--tenant", "T", "owning tenant (default 'default')", |s, v| put(&mut s.tenant, v)),
    Flag("--priority", "P", "higher runs first (default 10)", |s, v| put(&mut s.priority, v)),
];

fn submit_base() -> Submit {
    Submit {
        spec: RunSpec {
            name: "cli-run".into(),
            params: Params::channel(16, 25, 16, 80.0).with_dt(1e-3),
            steps: 100,
            ckpt_every: 25,
            ..RunSpec::default()
        },
        tenant: "default".into(),
        priority: 10,
    }
}

/// The submit section of `--help`: the base spec in its own words, then
/// the shared flag rows and the three above.
fn submit_usage() -> String {
    format!(
        "\nsubmit flags (where a default quoted below is dns-run's, submit starts from\n\
         {}):\n{}",
        submit_base().spec,
        spec::usage(SUBMIT_FLAGS)
    )
}

fn parse_submit(args: &[String]) -> Submit {
    let mut submit = submit_base();
    spec::apply(args, &mut submit, SUBMIT_FLAGS, |s| &mut s.spec)
        .unwrap_or_else(|e| fail(&format!("submit: {e}")));
    if let Err(e) = submit.spec.validate() {
        fail(&e.to_string());
    }
    submit
}

fn take_id(args: &[String], cmd: &str) -> u64 {
    let id = args
        .first()
        .unwrap_or_else(|| fail(&format!("{cmd} needs a job id")));
    id.parse()
        .unwrap_or_else(|_| fail(&format!("{cmd}: bad job id {id:?}")))
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
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    if args.is_empty() || args[0] == "--help" || args[0] == "-h" {
        print!("{USAGE}{}", submit_usage());
        return;
    }
    // strip connection flags before taking the command, so
    // `dns-cli --data-dir DIR status` and `dns-cli status --data-dir DIR`
    // both work
    let addr = split_conn_flags(&mut args);
    if args.is_empty() {
        fail("missing command (run dns-cli --help)");
    }
    let cmd = args.remove(0);
    let mut client = Client::connect(&addr);
    match cmd.as_str() {
        "submit" => {
            let Submit {
                spec,
                tenant,
                priority,
            } = parse_submit(&args);
            let v = client.call(&Request::Submit {
                spec,
                tenant,
                priority,
            });
            let id = v.get("id").and_then(Json::as_u64).unwrap_or(0);
            println!("submitted job {id}");
        }
        "status" => {
            let v = client.call(&Request::Status);
            print_status(&v);
        }
        "tenants" => {
            let v = client.call(&Request::Tenants);
            print_tenants(&v);
        }
        "watch" => {
            let id = take_id(&args, "watch");
            // from here the server streams health JSONL lines (plus
            // typed watch_event lines), then a done marker, then closes.
            // A drop without the marker is NOT the end of the job —
            // resubscribe until the server reports a terminal state.
            let mut session = Some(client);
            loop {
                let mut c = session.take().unwrap_or_else(|| Client::connect(&addr));
                c.call(&Request::Watch { id });
                match stream_watch(&mut c, id) {
                    WatchEnd::Done => break,
                    WatchEnd::Dropped => {
                        eprintln!("dns-cli: watch stream for job {id} dropped; resubscribing");
                        std::thread::sleep(Duration::from_millis(300));
                    }
                }
            }
        }
        "cancel" => {
            let id = take_id(&args, "cancel");
            client.call(&Request::Cancel { id });
            println!("cancel requested for job {id}");
        }
        "drain" => {
            client.call(&Request::Drain);
            println!("draining: running jobs are checkpointing");
        }
        "undrain" => {
            client.call(&Request::Undrain);
            println!("scheduling resumed");
        }
        "ping" => {
            client.call(&Request::Ping);
            println!("ok");
        }
        "shutdown" => {
            client.call(&Request::Shutdown);
            println!("server shutting down");
        }
        other => fail(&format!("unknown command {other}\n\n{USAGE}")),
    }
}

#[cfg(test)]
mod docs {
    //! `submit` parses and prints its help from the flag tables; what can
    //! still drift is the prose that quotes them.
    use super::{submit_usage, USAGE};

    const README: &str = include_str!("../../../../README.md");
    const CI: &str = include_str!("../../../../.github/workflows/ci.yml");
    const SKILL: &str = include_str!("../../../../.claude/skills/verify/SKILL.md");

    /// The `--flags` following the word `submit` on every shell line of
    /// `doc` (backslash continuations joined, cut at `#`, `|`, `;`).
    fn submit_flags(doc: &str) -> Vec<String> {
        let joined = doc.replace("\\\n", " ");
        let mut flags = Vec::new();
        for line in joined.lines() {
            let mut words = line.split_whitespace().skip_while(|w| *w != "submit");
            words.next();
            flags.extend(
                words
                    .take_while(|w| !["#", "|", ";", "&&"].contains(w))
                    .map(|w| w.trim_end_matches(|c: char| !c.is_ascii_alphanumeric()))
                    .filter(|w| w.starts_with("--") && w.len() > 2)
                    .map(String::from),
            );
        }
        flags
    }

    #[test]
    fn documented_submit_lines_only_use_table_rows() {
        let help = format!("{USAGE}{}", submit_usage());
        for doc in [README, CI, SKILL] {
            let flags = submit_flags(doc);
            assert!(!flags.is_empty(), "the scan lost a file's submit examples");
            for flag in flags {
                assert!(
                    help.contains(&format!("  {flag} "))
                        || help.contains(&format!("(also {flag})")),
                    "a documented command passes {flag}, which dns-cli submit does not accept"
                );
            }
        }
    }

    #[test]
    fn readme_submit_flag_table_is_the_help_text() {
        let block = format!(
            "<!-- dns-cli submit flags -->\n```text{}```\n",
            submit_usage()
        );
        assert!(
            README.contains(&block),
            "README.md's dns-cli submit flag table is stale; it should read:\n{block}"
        );
    }
}
