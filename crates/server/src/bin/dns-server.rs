//! The campaign daemon binary: a flag table over
//! [`dns_server::daemon::serve`].
//!
//! ```text
//! dns-server --data-dir target/campaign --cores 4 --tenant-quota 2
//! ```
//!
//! The daemon prints `listening on 127.0.0.1:PORT` once the socket is
//! bound (port 0 — the default — picks a free port) and also writes the
//! address to `DATA_DIR/addr`, which is where `dns-cli` finds it. The
//! HTTP observability facade binds a second socket (`--http-addr`),
//! announced in `DATA_DIR/http_addr` — point a browser or Prometheus
//! scraper at it.

use dns_core::flags::{parsed, put, Command, Flag};
use dns_server::daemon::{serve, ServerConfig};

#[rustfmt::skip] // a table: one row per flag, not one line per field
const FLAGS: &[Flag<ServerConfig>] = &[
    Flag("--addr", "HOST:PORT", "listen address (default 127.0.0.1:0 = any free port)",
        |c, v| put(&mut c.addr, v)),
    Flag("--http-addr", "HOST:PORT",
        "HTTP facade address: /metrics, /api/v1/* (default 127.0.0.1:0)",
        |c, v| put(&mut c.http_addr, v)),
    Flag("--data-dir", "DIR", "journal, addr file, and job state root (default target/dns-server)",
        |c, v| put(&mut c.data_dir, v)),
    Flag("--cores", "N", "total cores jobs may occupy at once (default 4)",
        |c, v| put(&mut c.total_cores, v)),
    Flag("--tenant-quota", "N", "max cores one tenant may occupy at once (default: no quota)",
        |c, v| parsed(v).map(|n| c.tenant_quota = Some(n))),
];

const COMMAND: Command<ServerConfig> = Command {
    name: "dns-server",
    about: "multi-tenant campaign server for the channel DNS\n\n\
            usage: dns-server [flags]\n\nflags:\n",
    flags: FLAGS,
    spec: None,
};

fn main() {
    let cfg = COMMAND.parse(ServerConfig::new("target/dns-server"), |cfg| {
        match cfg.total_cores {
            0 => Err("--cores must be positive".into()),
            _ => Ok(cfg),
        }
    });
    if let Err(e) = serve(cfg) {
        eprintln!("dns-server: {e}");
        std::process::exit(1);
    }
}
