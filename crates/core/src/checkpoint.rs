//! Checkpoint/restart: binary snapshots of the spectral state, one file
//! per rank — the restart capability any 650,000-step production run
//! (section 6 of the paper) depends on.
//!
//! # Format (version 2, little-endian)
//!
//! Per-rank record:
//!
//! ```text
//! magic        u64   "CNDSKPT2"
//! version      u64   2
//! params_hash  u64   Params::state_hash() — physics digest
//! pa, pb       u64   process grid the run was decomposed on
//! a, b         u64   this rank's grid coordinates
//! nx, ny, nz   u64   spectral grid
//! step         u64   completed timesteps
//! time         f64   simulation time
//! dyn_force    f64   mass-flux controller output
//! flux_int     f64   mass-flux controller integral state
//! field_len    u64   complex coefficients per field on this rank
//! 5 fields     field_len x (re f64, im f64) — u, v, w, omega_y, phi
//! [stats]      optional statistics section (see below)
//! crc          u32   CRC-32 of every preceding byte
//! ```
//!
//! When the run collects time-averaged turbulence statistics
//! ([`ChannelDns::stats`]), the accumulator's byte-exact serialization
//! ([`crate::stats::StatsAccumulator::encode`], opening with its own
//! `"DNSSTAT1"` magic) rides between the fields and the CRC, so a
//! restart resumes averaging exactly where the crashed run stopped.
//! Records without the section (all pre-statistics files, and runs with
//! stats off) load unchanged — the section is strictly additive and the
//! version word stays 2.
//!
//! Every header field the running solver can disagree with is validated
//! on load and surfaced as a typed [`CheckpointError`]; the trailing CRC
//! catches truncation and bit rot before any of that parsing is trusted.
//! Writes go to a `.tmp` sibling and are renamed into place, so a crash
//! mid-write can never leave a half-written file under the real name.
//!
//! # Manifest layer
//!
//! A single rank file is not a checkpoint — a restartable state is *all*
//! `pa x pb` files from the same step. [`save_with_manifest`] writes
//! per-rank records under generation stems (`<stem>.s<step>.r<a>x<b>.ckpt`),
//! gathers every rank's CRC to grid rank (0,0), writes
//! `<stem>.s<step>.manifest` listing them, and atomically flips a
//! `<stem>.latest` pointer — which is the commit point: a crash at any
//! earlier moment leaves the previous generation intact and pointed-to.
//! [`load_latest`] follows the pointer and validates this rank's record
//! against the manifest entry. The last two generations are kept (the
//! newest may be the one a crash interrupted mid-gather; the one before
//! is then still complete).

use std::io::Write;
use std::path::{Path, PathBuf};

use dns_resilience::{crc32, Crc32};

use crate::solver::ChannelDns;
use crate::C64;

const MAGIC: u64 = 0x434E_4453_4B50_5432; // "CNDSKPT2"
const VERSION: u64 = 2;
/// Header words before the fields: magic..field_len inclusive
/// (magic, version, params_hash, pa, pb, a, b, nx, ny, nz, step, time,
/// dyn_force, flux_integral, field_len).
const HEADER_U64S: usize = 15;

/// Why a checkpoint could not be written or restored.
#[derive(Debug)]
pub enum CheckpointError {
    /// Underlying filesystem failure.
    Io(std::io::Error),
    /// The file exists but does not carry the checkpoint magic.
    NotACheckpoint {
        /// Offending file.
        path: PathBuf,
    },
    /// A checkpoint, but from an incompatible format version.
    Version {
        /// Offending file.
        path: PathBuf,
        /// Version word found in the file.
        found: u64,
    },
    /// Header field disagrees with the running configuration.
    Mismatch {
        /// Which header field disagreed.
        what: &'static str,
        /// Value in the file.
        found: u64,
        /// Value the running solver expects.
        expected: u64,
    },
    /// The stored CRC does not match the bytes (truncation / bit rot).
    Corrupt {
        /// Offending file.
        path: PathBuf,
        /// CRC recorded in the file (or manifest entry).
        stored: u32,
        /// CRC computed over the bytes actually read.
        computed: u32,
    },
    /// The manifest exists but is malformed or fails its own CRC.
    Manifest {
        /// Offending manifest.
        path: PathBuf,
        /// What was wrong with it.
        reason: String,
    },
    /// No `<stem>.latest` pointer — nothing to restart from.
    NoManifest {
        /// The checkpoint stem that has no committed generation.
        stem: PathBuf,
    },
}

impl std::fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CheckpointError::Io(e) => write!(f, "checkpoint I/O error: {e}"),
            CheckpointError::NotACheckpoint { path } => {
                write!(f, "{} is not a channel-dns checkpoint", path.display())
            }
            CheckpointError::Version { path, found } => write!(
                f,
                "{}: unsupported checkpoint version {found} (expected {VERSION})",
                path.display()
            ),
            CheckpointError::Mismatch {
                what,
                found,
                expected,
            } => write!(
                f,
                "checkpoint {what} mismatch: file has {found:#x}, run expects {expected:#x}"
            ),
            CheckpointError::Corrupt {
                path,
                stored,
                computed,
            } => write!(
                f,
                "{} is corrupt: stored CRC {stored:#010x}, computed {computed:#010x}",
                path.display()
            ),
            CheckpointError::Manifest { path, reason } => {
                write!(f, "bad manifest {}: {reason}", path.display())
            }
            CheckpointError::NoManifest { stem } => write!(
                f,
                "no checkpoint manifest found for stem {}",
                stem.display()
            ),
        }
    }
}

impl std::error::Error for CheckpointError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CheckpointError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for CheckpointError {
    fn from(e: std::io::Error) -> Self {
        CheckpointError::Io(e)
    }
}

/// Receipt for one written rank record.
#[derive(Clone, Debug)]
pub struct RankCkpt {
    /// Final (renamed) path of the record.
    pub path: PathBuf,
    /// CRC-32 sealed into the record (also the manifest entry).
    pub crc: u32,
    /// Total file size in bytes.
    pub bytes: u64,
}

/// `stem` with `suffix` appended to its whole file name, so a dot in the
/// stem (`run.a`, `run.b`) never reads as an extension to replace.
fn suffixed(stem: &Path, suffix: &str) -> PathBuf {
    let mut name = stem.as_os_str().to_owned();
    name.push(suffix);
    name.into()
}

fn gen_rank_path(stem: &Path, step: u64, a: usize, b: usize) -> PathBuf {
    suffixed(stem, &format!(".s{step}.r{a}x{b}.ckpt"))
}

fn manifest_path(stem: &Path, step: u64) -> PathBuf {
    suffixed(stem, &format!(".s{step}.manifest"))
}

fn latest_path(stem: &Path) -> PathBuf {
    suffixed(stem, ".latest")
}

/// Bytes a record is staged in on its way to the file: the record
/// streams through one buffer of this size rather than being built whole.
const CHUNK: usize = 256 * 1024;

/// `out` with a running CRC-32 and count of the bytes written through it.
struct Sealed<W> {
    out: W,
    crc: Crc32,
    bytes: u64,
}

impl<W: Write> Write for Sealed<W> {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        let n = self.out.write(buf)?;
        self.crc.update(&buf[..n]);
        self.bytes += n as u64;
        Ok(n)
    }

    fn flush(&mut self) -> std::io::Result<()> {
        self.out.flush()
    }
}

/// Stream this rank's full record (header + fields + trailing CRC) into
/// `out` through one [`CHUNK`]-sized buffer: `(crc, bytes)`.
fn encode(dns: &ChannelDns, out: impl Write) -> std::io::Result<(u32, u64)> {
    let sealed = Sealed {
        out,
        crc: Crc32::new(),
        bytes: 0,
    };
    let mut w = std::io::BufWriter::with_capacity(CHUNK, sealed);
    let (p, pfft, state) = (dns.params(), dns.pfft(), dns.state());
    let (dyn_force, flux_integral) = dns.controller_state();
    let header: [u64; HEADER_U64S] = [
        MAGIC,
        VERSION,
        p.state_hash(),
        p.pa as u64,
        p.pb as u64,
        pfft.comm_a().rank() as u64,
        pfft.comm_b().rank() as u64,
        p.nx as u64,
        p.ny as u64,
        p.nz as u64,
        state.steps,
        state.time.to_bits(),
        dyn_force.to_bits(),
        flux_integral.to_bits(),
        dns.field_len() as u64,
    ];
    for v in header {
        w.write_all(&v.to_le_bytes())?;
    }
    let mut staged = [0u8; 4096];
    for f in [
        state.u(),
        state.v(),
        state.w(),
        state.omega_y(),
        state.phi(),
    ] {
        // re then im of every value: on a little-endian host the copy of
        // the values' own bytes
        for part in f.chunks(staged.len() / 16) {
            for (d, c) in staged.chunks_exact_mut(16).zip(part) {
                d[..8].copy_from_slice(&c.re.to_le_bytes());
                d[8..].copy_from_slice(&c.im.to_le_bytes());
            }
            w.write_all(&staged[..16 * part.len()])?;
        }
    }
    if let Some(acc) = dns.stats() {
        w.write_all(&acc.encode())?;
    }
    let mut sealed = w.into_inner().map_err(|e| e.into_error())?;
    let crc = sealed.crc.finish();
    sealed.out.write_all(&crc.to_le_bytes())?;
    Ok((crc, sealed.bytes + 4))
}

/// Write `bytes` to `path` atomically: a `.tmp` sibling first, then a
/// rename. A crash between the two leaves only the sibling behind; the
/// real name either holds the previous complete file or the new one.
/// Neither is synced to disk: atomic against process death, not power
/// loss (see [`save_with_manifest`]).
fn write_atomic(path: &Path, bytes: &[u8]) -> std::io::Result<()> {
    let tmp = path.with_extension("tmp");
    std::fs::write(&tmp, bytes)?;
    std::fs::rename(&tmp, path)
}

/// Write this rank's state to `path`, as [`write_atomic`] does but
/// streamed, and return its receipt.
fn save_to(dns: &ChannelDns, path: &Path) -> Result<RankCkpt, CheckpointError> {
    let tmp = path.with_extension("tmp");
    let (crc, bytes) = encode(dns, std::fs::File::create(&tmp)?)?;
    std::fs::rename(&tmp, path)?;
    Ok(RankCkpt {
        path: path.to_path_buf(),
        crc,
        bytes,
    })
}

struct Cursor<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl Cursor<'_> {
    fn u64(&mut self) -> u64 {
        let v = u64::from_le_bytes(self.buf[self.pos..self.pos + 8].try_into().unwrap());
        self.pos += 8;
        v
    }
    fn f64(&mut self) -> f64 {
        f64::from_bits(self.u64())
    }
}

/// Validate and apply a serialised record to the running solver.
fn decode(dns: &mut ChannelDns, path: &Path, buf: &[u8]) -> Result<(), CheckpointError> {
    // integrity first: nothing in the file is trusted until the CRC holds
    if buf.len() < HEADER_U64S * 8 + 4 {
        return Err(CheckpointError::NotACheckpoint {
            path: path.to_path_buf(),
        });
    }
    let (body, tail) = buf.split_at(buf.len() - 4);
    let stored = u32::from_le_bytes(tail.try_into().unwrap());
    let computed = crc32(body);
    if stored != computed {
        return Err(CheckpointError::Corrupt {
            path: path.to_path_buf(),
            stored,
            computed,
        });
    }
    let mut c = Cursor { buf: body, pos: 0 };
    if c.u64() != MAGIC {
        return Err(CheckpointError::NotACheckpoint {
            path: path.to_path_buf(),
        });
    }
    let version = c.u64();
    if version != VERSION {
        return Err(CheckpointError::Version {
            path: path.to_path_buf(),
            found: version,
        });
    }
    let p = dns.params().clone();
    let expect_hash = p.state_hash();
    let found_hash = c.u64();
    if found_hash != expect_hash {
        return Err(CheckpointError::Mismatch {
            what: "params hash",
            found: found_hash,
            expected: expect_hash,
        });
    }
    let checks: [(&'static str, usize); 7] = [
        ("process grid pa", p.pa),
        ("process grid pb", p.pb),
        ("rank coordinate a", dns.pfft().comm_a().rank()),
        ("rank coordinate b", dns.pfft().comm_b().rank()),
        ("grid nx", p.nx),
        ("grid ny", p.ny),
        ("grid nz", p.nz),
    ];
    for (what, expected) in checks {
        let found = c.u64();
        if found != expected as u64 {
            return Err(CheckpointError::Mismatch {
                what,
                found,
                expected: expected as u64,
            });
        }
    }
    let steps = c.u64();
    let time = c.f64();
    let dyn_force = c.f64();
    let flux_integral = c.f64();
    let len = c.u64() as usize;
    let expect_len = dns.field_len();
    if len != expect_len {
        return Err(CheckpointError::Mismatch {
            what: "field length",
            found: len as u64,
            expected: expect_len as u64,
        });
    }
    let base = HEADER_U64S * 8 + 5 * len * 16;
    if body.len() < base {
        return Err(CheckpointError::Corrupt {
            path: path.to_path_buf(),
            stored,
            computed: stored ^ 1, // length lies even though CRC held: impossible unless crafted
        });
    }
    // anything past the fields must be a well-formed stats section
    // (records without one are the pre-statistics layout and load as-is)
    let stats = match &body[base..] {
        [] => None,
        rest => Some(crate::stats::StatsAccumulator::decode(rest).ok_or_else(|| {
            CheckpointError::Corrupt {
                path: path.to_path_buf(),
                stored,
                computed: stored ^ 1,
            }
        })?),
    };
    // a section with samples must be on the run's grid, or the next
    // sample would panic instead of this restore failing typed
    if let Some(ny) = stats.as_ref().and_then(|acc| acc.sample_ny()) {
        if ny != p.ny {
            return Err(CheckpointError::Mismatch {
                what: "stats grid ny",
                found: ny as u64,
                expected: p.ny as u64,
            });
        }
    }
    let mut fields = Vec::with_capacity(5);
    for _ in 0..5 {
        let mut f = Vec::with_capacity(len);
        for _ in 0..len {
            let re = c.f64();
            let im = c.f64();
            f.push(C64::new(re, im));
        }
        fields.push(f);
    }
    let phi = fields.pop().unwrap();
    let omega_y = fields.pop().unwrap();
    let w = fields.pop().unwrap();
    let v = fields.pop().unwrap();
    let u = fields.pop().unwrap();
    dns.restore_state(u, v, w, omega_y, phi, time, steps);
    dns.restore_controller(dyn_force, flux_integral);
    if let Some(acc) = stats {
        dns.restore_stats(acc);
    }
    Ok(())
}

/// How many checkpoint generations [`save_with_manifest`] retains.
const KEEP_GENERATIONS: usize = 2;

/// Collective checkpoint over the whole process grid: every rank writes
/// its generation record, rank (0,0) gathers all CRCs, writes the
/// manifest, and flips the `<stem>.latest` pointer (the commit point).
/// Returns the manifest path on grid rank (0,0), `None` elsewhere.
///
/// No rank returns before the pointer flip has been written, so a crash
/// *after* this call can always restart from the generation it wrote; a
/// crash *during* it leaves the previous `.latest` target intact.
///
/// The crash this covers is process death (a panic, `SIGKILL`): every
/// file is complete in the page cache before its rename, and the kernel
/// writes it out after the process is gone. Nothing is `fsync`ed, so
/// durability against power loss or a kernel crash is not claimed.
pub fn save_with_manifest(
    dns: &ChannelDns,
    stem: &Path,
) -> Result<Option<PathBuf>, CheckpointError> {
    let step = dns.state().steps;
    let comm_a = dns.pfft().comm_a();
    let comm_b = dns.pfft().comm_b();
    let (a, b) = (comm_a.rank(), comm_b.rank());
    let receipt = save_to(dns, &gen_rank_path(stem, step, a, b))?;

    // two-stage gather of (a, b, crc, bytes) onto grid rank (0,0):
    // along comm_a to each (0, b), then along comm_b to (0, 0)
    let entry = vec![a as u64, b as u64, receipt.crc as u64, receipt.bytes];
    let column = comm_a.gather(0, entry);
    let mut manifest = None;
    if a == 0 {
        let flat: Vec<u64> = column.expect("comm_a root").into_iter().flatten().collect();
        let rows = comm_b.gather(0, flat);
        if b == 0 {
            let entries: Vec<u64> = rows.expect("comm_b root").into_iter().flatten().collect();
            let path = write_manifest(dns, stem, step, &entries)?;
            write_atomic(
                &latest_path(stem),
                path.file_name()
                    .expect("manifest has a file name")
                    .to_string_lossy()
                    .as_bytes(),
            )?;
            prune_generations(stem, step);
            manifest = Some(path);
        }
        // holds the a == 0 row until the pointer flip is written
        comm_b.barrier();
    }
    // holds every column until its a == 0 member has passed the flip
    comm_a.barrier();
    Ok(manifest)
}

/// Write `<stem>.s<step>.manifest` (atomic). `entries` is a flat
/// `[a, b, crc, bytes]` quadruple per rank.
fn write_manifest(
    dns: &ChannelDns,
    stem: &Path,
    step: u64,
    entries: &[u64],
) -> Result<PathBuf, CheckpointError> {
    let p = dns.params();
    let mut text = String::new();
    text.push_str("channel-dns manifest v2\n");
    text.push_str(&format!("params_hash {:016x}\n", p.state_hash()));
    text.push_str(&format!("step {step}\n"));
    text.push_str(&format!("time_bits {:016x}\n", dns.state().time.to_bits()));
    text.push_str(&format!("grid {} {} {}\n", p.nx, p.ny, p.nz));
    text.push_str(&format!("layout {} {}\n", p.pa, p.pb));
    let mut quads: Vec<&[u64]> = entries.chunks_exact(4).collect();
    quads.sort_by_key(|q| (q[0], q[1]));
    if quads.len() != p.pa * p.pb {
        return Err(CheckpointError::Manifest {
            path: manifest_path(stem, step),
            reason: format!(
                "gathered {} rank entries, expected {}",
                quads.len(),
                p.pa * p.pb
            ),
        });
    }
    for q in quads {
        text.push_str(&format!(
            "rank {} {} {:08x} {}\n",
            q[0], q[1], q[2] as u32, q[3]
        ));
    }
    text.push_str(&format!("crc {:08x}\n", crc32(text.as_bytes())));
    let path = manifest_path(stem, step);
    write_atomic(&path, text.as_bytes())?;
    Ok(path)
}

/// Best-effort removal of generations older than the `KEEP_GENERATIONS`
/// newest. Failures are ignored: pruning is hygiene, not correctness.
fn prune_generations(stem: &Path, current_step: u64) {
    let Some(dir) = stem.parent() else { return };
    let Some(base) = stem.file_name().and_then(|s| s.to_str()) else {
        return;
    };
    let Ok(listing) = std::fs::read_dir(dir) else {
        return;
    };
    let mut steps: Vec<u64> = Vec::new();
    for entry in listing.flatten() {
        if let Some(step) =
            parse_generation(&entry.file_name().to_string_lossy(), base, ".manifest")
        {
            steps.push(step);
        }
    }
    steps.sort_unstable();
    steps.dedup();
    let cutoff_index = steps.len().saturating_sub(KEEP_GENERATIONS);
    let stale: Vec<u64> = steps[..cutoff_index]
        .iter()
        .copied()
        .filter(|&s| s != current_step)
        .collect();
    if stale.is_empty() {
        return;
    }
    let Ok(listing) = std::fs::read_dir(dir) else {
        return;
    };
    for entry in listing.flatten() {
        let name = entry.file_name().to_string_lossy().to_string();
        let step = parse_generation(&name, base, ".manifest")
            .or_else(|| parse_generation_ckpt(&name, base));
        if let Some(s) = step {
            if stale.contains(&s) {
                let _ = std::fs::remove_file(entry.path());
            }
        }
    }
}

/// Parse `<base>.s<step><suffix>` → step.
fn parse_generation(name: &str, base: &str, suffix: &str) -> Option<u64> {
    let rest = name.strip_prefix(base)?.strip_prefix(".s")?;
    rest.strip_suffix(suffix)?.parse().ok()
}

/// Parse `<base>.s<step>.r<a>x<b>.ckpt` → step.
fn parse_generation_ckpt(name: &str, base: &str) -> Option<u64> {
    let rest = name.strip_prefix(base)?.strip_prefix(".s")?;
    let (step, tail) = rest.split_once(".r")?;
    if !tail.ends_with(".ckpt") {
        return None;
    }
    step.parse().ok()
}

/// Restore this rank from the newest committed generation: follow
/// `<stem>.latest` to the manifest, validate the manifest's own CRC and
/// headers, then load this rank's record and cross-check its CRC against
/// the manifest entry. Purely local — every rank reads independently, so
/// it is safe on restart paths where collective order is not yet
/// re-established. Returns the restored step.
pub fn load_latest(dns: &mut ChannelDns, stem: &Path) -> Result<u64, CheckpointError> {
    let pointer = latest_path(stem);
    let name = match std::fs::read_to_string(&pointer) {
        Ok(s) => s.trim().to_string(),
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
            return Err(CheckpointError::NoManifest {
                stem: stem.to_path_buf(),
            })
        }
        Err(e) => return Err(e.into()),
    };
    let dir = stem.parent().unwrap_or_else(|| Path::new("."));
    let mpath = dir.join(&name);
    let text = std::fs::read_to_string(&mpath)?;
    let bad = |reason: &str| CheckpointError::Manifest {
        path: mpath.clone(),
        reason: reason.to_string(),
    };

    // validate the manifest's own trailing CRC line
    let body_end = text
        .trim_end_matches('\n')
        .rfind('\n')
        .ok_or_else(|| bad("too short"))?
        + 1;
    let (body, crc_line) = text.split_at(body_end);
    let stored = crc_line
        .trim()
        .strip_prefix("crc ")
        .and_then(|h| u32::from_str_radix(h, 16).ok())
        .ok_or_else(|| bad("missing crc line"))?;
    let computed = crc32(body.as_bytes());
    if stored != computed {
        return Err(CheckpointError::Corrupt {
            path: mpath,
            stored,
            computed,
        });
    }

    let mut lines = body.lines();
    if lines.next() != Some("channel-dns manifest v2") {
        return Err(bad("bad header line"));
    }
    let mut params_hash = None;
    let mut step = None;
    let mut rank_entries: Vec<(u64, u64, u32, u64)> = Vec::new();
    for line in lines {
        let mut parts = line.split_whitespace();
        match parts.next() {
            Some("params_hash") => {
                params_hash = parts.next().and_then(|h| u64::from_str_radix(h, 16).ok());
            }
            Some("step") => step = parts.next().and_then(|s| s.parse().ok()),
            Some("rank") => {
                let vals: Vec<&str> = parts.collect();
                if vals.len() != 4 {
                    return Err(bad("malformed rank line"));
                }
                let a = vals[0].parse().map_err(|_| bad("bad rank a"))?;
                let b = vals[1].parse().map_err(|_| bad("bad rank b"))?;
                let crc = u32::from_str_radix(vals[2], 16).map_err(|_| bad("bad rank crc"))?;
                let bytes = vals[3].parse().map_err(|_| bad("bad rank size"))?;
                rank_entries.push((a, b, crc, bytes));
            }
            _ => {} // time_bits / grid / layout are informational here
        }
    }
    let params_hash = params_hash.ok_or_else(|| bad("missing params_hash"))?;
    let step = step.ok_or_else(|| bad("missing step"))?;
    let expect_hash = dns.params().state_hash();
    if params_hash != expect_hash {
        return Err(CheckpointError::Mismatch {
            what: "params hash",
            found: params_hash,
            expected: expect_hash,
        });
    }
    let (a, b) = (
        dns.pfft().comm_a().rank() as u64,
        dns.pfft().comm_b().rank() as u64,
    );
    let &(_, _, want_crc, want_bytes) = rank_entries
        .iter()
        .find(|&&(ea, eb, _, _)| ea == a && eb == b)
        .ok_or_else(|| bad("no entry for this rank"))?;

    let rpath = gen_rank_path(stem, step, a as usize, b as usize);
    let buf = std::fs::read(&rpath)?;
    if buf.len() < 4 {
        return Err(CheckpointError::NotACheckpoint { path: rpath });
    }
    if buf.len() as u64 != want_bytes {
        return Err(CheckpointError::Corrupt {
            path: rpath,
            stored: want_crc,
            computed: crc32(&buf[..buf.len() - 4]),
        });
    }
    let record_crc = u32::from_le_bytes(buf[buf.len() - 4..].try_into().unwrap());
    if record_crc != want_crc {
        return Err(CheckpointError::Corrupt {
            path: rpath,
            stored: want_crc,
            computed: record_crc,
        });
    }
    decode(dns, &rpath, &buf)?;
    if dns.state().steps != step {
        return Err(CheckpointError::Mismatch {
            what: "manifest step",
            found: dns.state().steps,
            expected: step,
        });
    }
    Ok(step)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::{Forcing, Params};
    use crate::solver::run_parallel;
    use crate::stats::profiles;

    fn test_dir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(name);
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    /// This rank's record under `stem`, outside the manifest layer: the
    /// codec tests write and read single records.
    fn record(stem: &Path, dns: &ChannelDns) -> PathBuf {
        let (a, b) = (dns.pfft().comm_a().rank(), dns.pfft().comm_b().rank());
        stem.with_extension(format!("r{a}x{b}.ckpt"))
    }

    fn save(dns: &ChannelDns, stem: &Path) -> Result<RankCkpt, CheckpointError> {
        save_to(dns, &record(stem, dns))
    }

    fn load(dns: &mut ChannelDns, stem: &Path) -> Result<(), CheckpointError> {
        let path = record(stem, dns);
        decode(dns, &path, &std::fs::read(&path)?)
    }

    #[test]
    fn checkpoint_roundtrip_resumes_bit_identically() {
        let stem = test_dir("dns_ckpt_test").join("state");
        let p = Params::channel(16, 25, 16, 80.0)
            .with_dt(1e-3)
            .with_grid(2, 2);

        // run 6 steps straight through
        let reference = run_parallel(p.clone(), |dns| {
            dns.set_laminar(0.5);
            dns.add_perturbation(0.3, 21);
            for _ in 0..6 {
                dns.step();
            }
            profiles(dns).u_mean
        });

        // run 3 steps, checkpoint, reload into a fresh solver, run 3 more
        let stem2 = stem.clone();
        let p2 = p.clone();
        let resumed = run_parallel(p, move |dns| {
            dns.set_laminar(0.5);
            dns.add_perturbation(0.3, 21);
            for _ in 0..3 {
                dns.step();
            }
            save(dns, &stem2).unwrap();
        });
        drop(resumed);
        let stem3 = stem.clone();
        let resumed = run_parallel(p2, move |dns| {
            load(dns, &stem3).unwrap();
            assert_eq!(dns.state().steps, 3);
            for _ in 0..3 {
                dns.step();
            }
            profiles(dns).u_mean
        });

        for (a, b) in reference[0].iter().zip(&resumed[0]) {
            assert!((a - b).abs() < 1e-14, "{a} vs {b}");
        }
    }

    #[test]
    fn stats_section_rides_the_checkpoint_bitwise() {
        use crate::stats::{StatsAccumulator, StatsConfig};
        let stem = test_dir("dns_ckpt_stats").join("state");
        let p = Params::channel(16, 25, 16, 80.0).with_dt(1e-3);

        // run with statistics on, checkpoint mid-window
        let stem2 = stem.clone();
        let encoded = crate::solver::run_serial(p.clone(), move |dns| {
            dns.set_laminar(0.5);
            dns.add_perturbation(0.3, 21);
            dns.enable_stats(StatsConfig {
                every: 2,
                warmup: 1,
            });
            for _ in 0..5 {
                dns.step();
            }
            save(dns, &stem2).unwrap();
            dns.stats().unwrap().encode()
        });
        let acc = StatsAccumulator::decode(&encoded).unwrap();
        assert_eq!(acc.count(), 2); // steps 3 and 5

        // a fresh solver without stats enabled restores the accumulator
        // from the file alone, bit-for-bit — this is the fix for the old
        // "averaging silently restarts from zero on resume" behavior
        let stem3 = stem.clone();
        let restored = crate::solver::run_serial(p.clone(), move |dns| {
            assert!(dns.stats().is_none());
            load(dns, &stem3).unwrap();
            dns.stats().unwrap().encode()
        });
        assert_eq!(restored, encoded);

        // a record without the section (stats off) still loads, and
        // leaves the solver's stats state untouched
        let stem4 = test_dir("dns_ckpt_stats_legacy").join("state");
        let stem5 = stem4.clone();
        crate::solver::run_serial(p.clone(), move |dns| {
            save(dns, &stem5).unwrap();
        });
        let stem6 = stem4.clone();
        crate::solver::run_serial(p, move |dns| {
            load(dns, &stem6).unwrap();
            assert!(dns.stats().is_none());
        });
    }

    #[test]
    fn grid_mismatch_is_rejected_with_typed_error() {
        let stem = test_dir("dns_ckpt_test2").join("state");
        let stem2 = stem.clone();
        crate::solver::run_serial(Params::channel(16, 25, 16, 80.0), move |dns| {
            save(dns, &stem2).unwrap();
        });
        let stem3 = stem.clone();
        crate::solver::run_serial(Params::channel(32, 25, 16, 80.0), move |dns| {
            // nx differs → params hash differs, caught before the grid words
            match load(dns, &stem3).unwrap_err() {
                CheckpointError::Mismatch { what, .. } => assert_eq!(what, "params hash"),
                other => panic!("expected Mismatch, got {other}"),
            }
        });
    }

    #[test]
    fn physics_change_is_rejected_even_on_same_grid() {
        let stem = test_dir("dns_ckpt_test3").join("state");
        let stem2 = stem.clone();
        crate::solver::run_serial(Params::channel(16, 25, 16, 80.0), move |dns| {
            save(dns, &stem2).unwrap();
        });
        let stem3 = stem.clone();
        let mut p = Params::channel(16, 25, 16, 80.0);
        p.forcing = Forcing::ConstantMassFlux { bulk: 0.5 };
        crate::solver::run_serial(p, move |dns| match load(dns, &stem3).unwrap_err() {
            CheckpointError::Mismatch { what, .. } => assert_eq!(what, "params hash"),
            other => panic!("expected Mismatch, got {other}"),
        });
    }

    #[test]
    fn corruption_is_detected_before_any_state_is_trusted() {
        let stem = test_dir("dns_ckpt_test4").join("state");
        let stem2 = stem.clone();
        crate::solver::run_serial(Params::channel(16, 25, 16, 80.0), move |dns| {
            let receipt = save(dns, &stem2).unwrap();
            // flip one byte in the middle of a field
            let mut bytes = std::fs::read(&receipt.path).unwrap();
            let mid = bytes.len() / 2;
            bytes[mid] ^= 0x40;
            std::fs::write(&receipt.path, &bytes).unwrap();
        });
        let stem3 = stem.clone();
        crate::solver::run_serial(Params::channel(16, 25, 16, 80.0), move |dns| {
            match load(dns, &stem3).unwrap_err() {
                CheckpointError::Corrupt { .. } => {}
                other => panic!("expected Corrupt, got {other}"),
            }
        });
        // truncation likewise
        let stem4 = stem.clone();
        crate::solver::run_serial(Params::channel(16, 25, 16, 80.0), move |dns| {
            let path = record(&stem4, dns);
            let bytes = std::fs::read(&path).unwrap();
            std::fs::write(&path, &bytes[..bytes.len() - 100]).unwrap();
            match load(dns, &stem4).unwrap_err() {
                CheckpointError::Corrupt { .. } => {}
                other => panic!("expected Corrupt, got {other}"),
            }
        });
    }

    #[test]
    fn saves_are_atomic_no_tmp_left_behind() {
        let dir = test_dir("dns_ckpt_test5");
        let stem = dir.join("state");
        let stem2 = stem.clone();
        crate::solver::run_serial(Params::channel(16, 25, 16, 80.0), move |dns| {
            save(dns, &stem2).unwrap();
        });
        let names: Vec<String> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().to_string_lossy().to_string())
            .collect();
        assert!(
            names.iter().all(|n| !n.ends_with(".tmp")),
            "tmp sibling left behind: {names:?}"
        );
        assert!(names.iter().any(|n| n.ends_with(".ckpt")));
    }

    #[test]
    fn manifest_roundtrip_and_pruning() {
        let dir = test_dir("dns_ckpt_test6");
        let stem = dir.join("state");
        let p = Params::channel(16, 25, 16, 80.0)
            .with_dt(1e-3)
            .with_grid(2, 2);

        let stem2 = stem.clone();
        run_parallel(p.clone(), move |dns| {
            dns.set_laminar(0.5);
            dns.add_perturbation(0.3, 21);
            // three generations: steps 1, 2, 3
            for _ in 0..3 {
                dns.step();
                save_with_manifest(dns, &stem2).unwrap();
            }
        });

        // oldest generation pruned, last two kept
        let names: Vec<String> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().to_string_lossy().to_string())
            .collect();
        assert!(
            !names.iter().any(|n| n.contains(".s1.")),
            "generation 1 should be pruned: {names:?}"
        );
        assert!(names.iter().any(|n| n.contains(".s2.manifest")));
        assert!(names.iter().any(|n| n.contains(".s3.manifest")));
        assert!(names.iter().any(|n| n == "state.latest"));

        // restore from the pointer and verify it lands on step 3
        let stem3 = stem.clone();
        let steps = run_parallel(p, move |dns| {
            let step = load_latest(dns, &stem3).unwrap();
            assert_eq!(step, 3);
            dns.state().steps
        });
        assert!(steps.iter().all(|&s| s == 3));
    }

    #[test]
    fn stems_with_a_dot_keep_their_own_generations() {
        let dir = test_dir("dns_ckpt_dotted");
        let p = Params::channel(16, 25, 16, 80.0).with_dt(1e-3);
        // run.a commits steps 1-3, then run.b steps 1-4 (pruning its own)
        for (name, steps) in [("run.a", 3), ("run.b", 4)] {
            let stem = dir.join(name);
            crate::solver::run_serial(p.clone(), move |dns| {
                dns.set_laminar(0.5);
                for _ in 0..steps {
                    dns.step();
                    save_with_manifest(dns, &stem).unwrap();
                }
            });
        }
        for (name, steps) in [("run.a", 3), ("run.b", 4)] {
            let stem = dir.join(name);
            let restored =
                crate::solver::run_serial(p.clone(), move |dns| load_latest(dns, &stem).unwrap());
            assert_eq!(restored, steps, "{name}");
        }
    }

    #[test]
    fn a_record_shorter_than_its_crc_is_typed() {
        let stem = test_dir("dns_ckpt_short").join("state");
        crate::solver::run_serial(Params::channel(16, 25, 16, 80.0), move |dns| {
            let mpath = save_with_manifest(dns, &stem).unwrap().unwrap();
            std::fs::write(gen_rank_path(&stem, 0, 0, 0), [0u8; 2]).unwrap();
            // the manifest's entry claims those 2 bytes under a valid crc
            let mut text = String::new();
            for line in std::fs::read_to_string(&mpath).unwrap().lines() {
                match line.strip_prefix("rank ") {
                    Some(entry) => {
                        let (head, _) = entry.rsplit_once(' ').unwrap();
                        text.push_str(&format!("rank {head} 2\n"));
                    }
                    None if line.starts_with("crc ") => {}
                    None => text.push_str(&format!("{line}\n")),
                }
            }
            text.push_str(&format!("crc {:08x}\n", crc32(text.as_bytes())));
            std::fs::write(&mpath, text).unwrap();
            match load_latest(dns, &stem).unwrap_err() {
                CheckpointError::NotACheckpoint { .. } => {}
                other => panic!("expected NotACheckpoint, got {other}"),
            }
        });
    }

    #[test]
    fn stats_on_another_grid_are_rejected_with_typed_error() {
        use crate::stats::{Profiles, StatsAccumulator, StatsConfig};
        // one sample on a 3-point grid, spliced into a 25-point record
        let mut acc = StatsAccumulator::new(StatsConfig {
            every: 1,
            warmup: 0,
        });
        let line = vec![0.0; 3];
        let profiles = Profiles {
            y: line.clone(),
            u_mean: line.clone(),
            uu: line.clone(),
            vv: line.clone(),
            ww: line.clone(),
            uv: line,
            u_tau: 1.0,
            re_tau: 80.0,
            bulk_velocity: 1.0,
        };
        acc.add_profiles(&profiles, 1, 1e-3);
        let section = acc.encode();
        let stem = test_dir("dns_ckpt_stats_grid").join("state");
        crate::solver::run_serial(Params::channel(16, 25, 16, 80.0), move |dns| {
            let receipt = save(dns, &stem).unwrap();
            let mut bytes = std::fs::read(&receipt.path).unwrap();
            bytes.truncate(bytes.len() - 4);
            bytes.extend_from_slice(&section);
            let crc = crc32(&bytes);
            bytes.extend_from_slice(&crc.to_le_bytes());
            std::fs::write(&receipt.path, &bytes).unwrap();
            match load(dns, &stem).unwrap_err() {
                CheckpointError::Mismatch {
                    what,
                    found,
                    expected,
                } => assert_eq!((what, found, expected), ("stats grid ny", 3, 25)),
                other => panic!("expected Mismatch, got {other}"),
            }
        });
    }

    #[test]
    fn load_latest_without_pointer_is_typed() {
        let dir = test_dir("dns_ckpt_test7");
        let stem = dir.join("state");
        crate::solver::run_serial(
            Params::channel(16, 25, 16, 80.0),
            move |dns| match load_latest(dns, &stem).unwrap_err() {
                CheckpointError::NoManifest { .. } => {}
                other => panic!("expected NoManifest, got {other}"),
            },
        );
    }
}
