//! An idle `dns-server` sleeps: with nothing to do, the real binary uses
//! under 2 ms of CPU in 2 s. The daemon wakes only on a request, a
//! connection or a job's step or exit; this guards against a busy or
//! timed poll creeping back into its loop. On a 2-core Xeon this loop
//! uses 0 ms, the same loop woken by a 3 ms timeout 16 ms, and the 3 ms
//! sleep-polled loop it replaced 26 ms.
#![cfg(target_os = "linux")]

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

use dns_server::proto::Request;

/// Nanoseconds process `pid` has run, summed over its threads: the
/// scheduler's own clock (`/proc/PID/task/*/schedstat`), which unlike
/// `utime + stime` does not round to 10 ms ticks.
fn cpu_ns(pid: u32) -> u64 {
    std::fs::read_dir(format!("/proc/{pid}/task"))
        .unwrap()
        .map(|task| {
            let stat = std::fs::read_to_string(task.unwrap().path().join("schedstat")).unwrap();
            stat.split_whitespace()
                .next()
                .unwrap()
                .parse::<u64>()
                .unwrap()
        })
        .sum()
}

#[test]
fn an_idle_daemon_uses_no_cpu() {
    let dir = std::env::temp_dir().join(format!("dns-idle-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let mut child = Command::new(env!("CARGO_BIN_EXE_dns-server"))
        .args(["--data-dir", dir.to_str().unwrap(), "--cores", "1"])
        .stdout(Stdio::null())
        .spawn()
        .expect("spawn dns-server");
    let addr_file = dir.join("addr");
    let deadline = Instant::now() + Duration::from_secs(20);
    while !addr_file.exists() {
        assert!(
            Instant::now() < deadline,
            "the daemon never announced itself"
        );
        std::thread::sleep(Duration::from_millis(10));
    }

    // the announcement comes just before the loop starts
    std::thread::sleep(Duration::from_millis(200));
    let before = cpu_ns(child.id());
    std::thread::sleep(Duration::from_secs(2));
    let used_ms = (cpu_ns(child.id()) - before) as f64 * 1e-6;

    let addr = std::fs::read_to_string(&addr_file).unwrap();
    let stream = TcpStream::connect(addr.trim()).unwrap();
    let mut writer = stream.try_clone().unwrap();
    writer
        .write_all(format!("{}\n", Request::Shutdown.to_line()).as_bytes())
        .unwrap();
    let mut reply = String::new();
    BufReader::new(stream).read_line(&mut reply).unwrap();
    assert!(child.wait().unwrap().success(), "shutdown exits 0");
    assert!(
        used_ms < 2.0,
        "an idle daemon used {used_ms:.1} ms of CPU in 2 s"
    );
    let _ = std::fs::remove_dir_all(&dir);
}
