//! Incremental JSONL flight recorder with bounded buffering.
//!
//! The recorder appends one [`FlightEvent`] line at a time into an
//! in-memory buffer and writes the buffer through whenever it crosses
//! a byte bound (default 16 KiB), on [`FlightRecorder::flush`], and on
//! drop — so a crash loses at most the last unflushed window, never the
//! whole log. Checkpoint and recovery events force a flush immediately:
//! they are exactly the lines a post-mortem needs to be durable.

use crate::schema::FlightEvent;
use std::fmt::Write as _;
use std::fs::{File, OpenOptions};
use std::io::{self, Write};
use std::path::{Path, PathBuf};

/// Default buffered-bytes bound before a write-through.
pub const DEFAULT_FLUSH_BYTES: usize = 16 * 1024;

/// An append-only JSONL writer for [`FlightEvent`]s.
pub struct FlightRecorder {
    file: File,
    path: PathBuf,
    buf: String,
    flush_bytes: usize,
    lines: u64,
}

impl FlightRecorder {
    /// Start a fresh log at `path`, truncating any previous file.
    pub fn create(path: impl AsRef<Path>) -> io::Result<FlightRecorder> {
        Self::open(path, false)
    }

    /// Continue an existing log (a restarted attempt appends to the
    /// first attempt's timeline rather than erasing it).
    pub fn append(path: impl AsRef<Path>) -> io::Result<FlightRecorder> {
        Self::open(path, true)
    }

    fn open(path: impl AsRef<Path>, append: bool) -> io::Result<FlightRecorder> {
        let path = path.as_ref().to_path_buf();
        if let Some(dir) = path.parent() {
            if !dir.as_os_str().is_empty() {
                std::fs::create_dir_all(dir)?;
            }
        }
        let file = OpenOptions::new()
            .create(true)
            .append(append)
            .write(true)
            .truncate(!append)
            .open(&path)?;
        Ok(FlightRecorder {
            file,
            path,
            buf: String::new(),
            flush_bytes: DEFAULT_FLUSH_BYTES,
            lines: 0,
        })
    }

    /// Override the buffered-bytes bound (tests use tiny bounds to
    /// exercise incremental write-through).
    pub fn with_flush_bytes(mut self, bytes: usize) -> FlightRecorder {
        self.flush_bytes = bytes.max(1);
        self
    }

    /// Path the recorder writes to.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Lines recorded (buffered or written) since opening.
    pub fn lines(&self) -> u64 {
        self.lines
    }

    /// Record one event. Durability-critical kinds (checkpoints and
    /// recovery markers) flush through immediately; everything else is
    /// buffered up to the byte bound.
    pub fn record(&mut self, event: &FlightEvent) -> io::Result<()> {
        writeln!(self.buf, "{event}").expect("a String takes every write");
        self.lines += 1;
        let force = matches!(
            event,
            FlightEvent::Checkpoint { .. } | FlightEvent::Recovery { .. }
        );
        if force || self.buf.len() >= self.flush_bytes {
            self.flush()?;
        }
        Ok(())
    }

    /// Write the buffer through to the file.
    pub fn flush(&mut self) -> io::Result<()> {
        if !self.buf.is_empty() {
            self.file.write_all(self.buf.as_bytes())?;
            self.buf.clear();
        }
        self.file.flush()
    }
}

impl Drop for FlightRecorder {
    fn drop(&mut self) {
        // Best-effort: a panic unwinding through the run loop still
        // lands the buffered tail on disk.
        let _ = self.flush();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::parse_jsonl;

    fn tmp(name: &str) -> PathBuf {
        let p = std::env::temp_dir().join(format!("dns_health_{name}.jsonl"));
        let _ = std::fs::remove_file(&p);
        p
    }

    fn step(step: u64) -> FlightEvent {
        FlightEvent::Step {
            step,
            rank: 0,
            wall_s: 0.01,
            transpose_s: 0.004,
            fft_s: 0.003,
            ns_s: 0.002,
            recv_wait_s: 0.001,
            overlap_s: 0.0005,
            busy_s: 0.009,
            msgs: 4,
            bytes: 1024,
        }
    }

    #[test]
    fn buffers_until_bound_then_writes_through() {
        let path = tmp("bound");
        let mut rec = FlightRecorder::create(&path).unwrap().with_flush_bytes(400);
        rec.record(&step(0)).unwrap();
        // one ~150-byte line: still buffered
        assert_eq!(std::fs::read_to_string(&path).unwrap(), "");
        for s in 1..4 {
            rec.record(&step(s)).unwrap();
        }
        // bound crossed: earlier lines are on disk without an explicit flush
        let on_disk = std::fs::read_to_string(&path).unwrap();
        assert!(!on_disk.is_empty(), "bound crossed but nothing written");
        drop(rec);
        let all = parse_jsonl(&std::fs::read_to_string(&path).unwrap()).unwrap();
        assert_eq!(all.len(), 4, "drop must flush the tail");
    }

    #[test]
    fn checkpoints_flush_immediately() {
        let path = tmp("ckpt");
        let mut rec = FlightRecorder::create(&path).unwrap();
        rec.record(&step(0)).unwrap();
        rec.record(&FlightEvent::Checkpoint {
            step: 0,
            attempt: 0,
        })
        .unwrap();
        // both the step and the checkpoint are durable before drop
        let events = parse_jsonl(&std::fs::read_to_string(&path).unwrap()).unwrap();
        assert_eq!(events.len(), 2);
        assert!(matches!(events[1], FlightEvent::Checkpoint { .. }));
        drop(rec);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn append_mode_extends_the_timeline() {
        let path = tmp("append");
        {
            let mut rec = FlightRecorder::create(&path).unwrap();
            rec.record(&step(0)).unwrap();
        }
        {
            let mut rec = FlightRecorder::append(&path).unwrap();
            rec.record(&step(1)).unwrap();
            assert_eq!(rec.lines(), 1);
        }
        let events = parse_jsonl(&std::fs::read_to_string(&path).unwrap()).unwrap();
        assert_eq!(events.len(), 2);
        // create() truncates
        {
            let mut rec = FlightRecorder::create(&path).unwrap();
            rec.record(&step(2)).unwrap();
        }
        let events = parse_jsonl(&std::fs::read_to_string(&path).unwrap()).unwrap();
        assert_eq!(events.len(), 1);
        let _ = std::fs::remove_file(&path);
    }
}
