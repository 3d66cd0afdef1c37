//! `serve()` cleans up after itself: twenty daemons started and stopped
//! in one process leave no thread behind and free both of their ports.
//! Each is stopped with a line-protocol client still connected and a
//! half-sent HTTP request still open, the two reads `serve()` must
//! unblock before it can join their threads. Its own test binary,
//! because it counts the whole process's threads.
#![cfg(target_os = "linux")]

use std::io::{BufRead, BufReader, Write};
use std::net::{TcpListener, TcpStream};
use std::time::{Duration, Instant};

use dns_server::daemon::{serve, ServerConfig};
use dns_server::proto::Request;

/// `Threads:` of `/proc/self/status`.
fn threads() -> usize {
    let status = std::fs::read_to_string("/proc/self/status").unwrap();
    status
        .lines()
        .find_map(|l| l.strip_prefix("Threads:"))
        .and_then(|n| n.trim().parse().ok())
        .expect("Threads: line")
}

fn call(reader: &mut BufReader<TcpStream>, req: &Request) -> String {
    let mut writer = reader.get_ref();
    writer
        .write_all(format!("{}\n", req.to_line()).as_bytes())
        .unwrap();
    let mut line = String::new();
    reader.read_line(&mut line).unwrap();
    line
}

fn wait_for_file(path: &std::path::Path) -> String {
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        if let Ok(text) = std::fs::read_to_string(path) {
            return text.trim().to_string();
        }
        assert!(Instant::now() < deadline, "no {}", path.display());
        std::thread::sleep(Duration::from_millis(5));
    }
}

#[test]
fn stopped_daemons_leave_no_threads_and_free_their_ports() {
    let base = std::env::temp_dir().join(format!("dns-threads-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&base);
    let before = threads();
    for i in 0..20 {
        let dir = base.join(format!("daemon-{i}"));
        let cfg = ServerConfig::new(&dir);
        let server = std::thread::spawn(move || serve(cfg));
        let addr = wait_for_file(&dir.join("addr"));
        let http = wait_for_file(&dir.join("http_addr"));

        let mut client = BufReader::new(TcpStream::connect(&addr).unwrap());
        assert!(call(&mut client, &Request::Ping).contains("\"ok\":true"));
        let mut slow = TcpStream::connect(&http).unwrap();
        slow.write_all(b"GET /metr").unwrap();
        assert!(call(&mut client, &Request::Shutdown).contains("shutting_down"));
        server.join().unwrap().expect("serve returns cleanly");

        TcpListener::bind(&addr).expect("the line-protocol port is free again");
        TcpListener::bind(&http).expect("the facade port is free again");
    }
    // a joined thread can stay listed for a moment after its join
    let deadline = Instant::now() + Duration::from_secs(10);
    while threads() != before && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(10));
    }
    assert_eq!(threads(), before, "threads left behind by stopped daemons");
    let _ = std::fs::remove_dir_all(&base);
}
