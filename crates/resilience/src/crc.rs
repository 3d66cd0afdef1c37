//! CRC-32 (IEEE 802.3, the zlib/`cksum -o3` polynomial) over byte
//! slices. Checkpoint records carry this as their integrity check: it is
//! cheap relative to the solver (a few GB/s on one core, while fields
//! are written at most once per checkpoint interval) and catches the
//! torn-write / truncation corruption modes that matter for restart
//! safety. Not a cryptographic hash — a resilience subsystem guards
//! against accidents, not adversaries.

use std::fs::File;
use std::io::{self, BufRead, Write};
use std::path::Path;

/// Reflected polynomial for CRC-32/ISO-HDLC.
const POLY: u32 = 0xEDB8_8320;

/// 256-entry lookup table, built at compile time.
const TABLE: [u32; 256] = {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 { POLY ^ (c >> 1) } else { c >> 1 };
            k += 1;
        }
        table[i] = c;
        i += 1;
    }
    table
};

/// Incremental CRC-32 state.
#[derive(Clone, Copy, Debug)]
pub struct Crc32 {
    state: u32,
}

impl Default for Crc32 {
    fn default() -> Self {
        Self::new()
    }
}

impl Crc32 {
    pub fn new() -> Crc32 {
        Crc32 { state: 0xFFFF_FFFF }
    }

    /// Fold `bytes` into the running checksum.
    pub fn update(&mut self, bytes: &[u8]) {
        let mut c = self.state;
        for &b in bytes {
            c = TABLE[((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
        }
        self.state = c;
    }

    /// Finish and return the checksum (the state survives, so this can
    /// be sampled mid-stream).
    pub fn finish(&self) -> u32 {
        self.state ^ 0xFFFF_FFFF
    }
}

/// One-shot CRC-32 of a byte slice.
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut c = Crc32::new();
    c.update(bytes);
    c.finish()
}

/// Seal one serialized record as an append-only journal line
/// `{"crc":C,"rec":R}` (no trailing newline), `C` the CRC-32 of `rec`'s
/// bytes. `rec` must be canonical `dns_json` output so that
/// [`unframe`] can re-derive the same bytes.
pub fn frame(rec: &str) -> String {
    format!("{{\"crc\":{},\"rec\":{rec}}}", crc32(rec.as_bytes()))
}

/// Verify one [`frame`]d line and return its record; `None` for a
/// truncated, unparsable or corrupted line (the torn tail of a killed
/// writer).
pub fn unframe(line: &str) -> Option<dns_json::Json> {
    let dns_json::Json::Obj(mut v) = dns_json::parse(line).ok()? else {
        return None;
    };
    let crc = v.get("crc")?.as_u64()?;
    let rec = v.remove("rec")?;
    (u64::from(crc32(rec.dump().as_bytes())) == crc).then_some(rec)
}

/// Open (or create, parent directories included) the journal at `path`
/// for appending.
pub fn open_journal(path: &Path) -> io::Result<File> {
    if let Some(parent) = path.parent() {
        std::fs::create_dir_all(parent)?;
    }
    let mut how = File::options();
    how.create(true).append(true).open(path)
}

/// Append one sealed line and flush it before returning, so a killed
/// process never acts on a record it did not persist.
pub fn append_line(journal: &mut File, line: &str) -> io::Result<()> {
    writeln!(journal, "{line}")?;
    journal.flush()
}

/// Decode the journal at `path` up to the first line `decode` refuses
/// (the torn or corrupted tail of a killed writer); the flag says
/// whether there was one. A missing file is an empty journal.
pub fn read_journal<T>(
    path: &Path,
    decode: impl Fn(&str) -> Option<T>,
) -> io::Result<(Vec<T>, bool)> {
    let file = match File::open(path) {
        Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok((Vec::new(), false)),
        other => other?,
    };
    let mut records = Vec::new();
    for line in io::BufReader::new(file).lines() {
        let line = line?;
        match decode(&line) {
            Some(rec) => records.push(rec),
            None if line.trim().is_empty() => {}
            None => return Ok((records, true)),
        }
    }
    Ok((records, false))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frame_round_trips_and_rejects_damage() {
        let line = frame(r#"{"a":1,"b":"x"}"#);
        assert_eq!(line, r#"{"crc":4068419412,"rec":{"a":1,"b":"x"}}"#);
        assert_eq!(unframe(&line).unwrap().dump(), r#"{"a":1,"b":"x"}"#);
        assert!(unframe(&line[..line.len() - 3]).is_none(), "torn tail");
        assert!(
            unframe(&line.replace("\"x\"", "\"y\"")).is_none(),
            "bit rot"
        );
        assert!(unframe("[1]").is_none());
    }

    #[test]
    fn matches_the_standard_check_value() {
        // the canonical CRC-32/ISO-HDLC test vector
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
    }

    #[test]
    fn incremental_equals_oneshot() {
        let data: Vec<u8> = (0..=255u8).cycle().take(10_000).collect();
        let mut inc = Crc32::new();
        for chunk in data.chunks(37) {
            inc.update(chunk);
        }
        assert_eq!(inc.finish(), crc32(&data));
    }

    #[test]
    fn detects_single_bit_flips() {
        let mut data = vec![0u8; 4096];
        data[17] = 0xA5;
        let base = crc32(&data);
        data[2048] ^= 0x01;
        assert_ne!(crc32(&data), base);
    }

    #[test]
    fn empty_input() {
        assert_eq!(crc32(b""), 0);
    }
}
