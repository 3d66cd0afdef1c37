//! The reusable run API extracted from `dns-run`'s flag soup: a
//! serializable, validated [`RunSpec`] describing *what* to simulate, a
//! supervised [`execute`] engine that runs it (restore → step loop →
//! checkpoints → data products) under the `dns-resilience` restart
//! supervisor, and a [`RunHandle`] that runs the engine on a background
//! thread with pause / resume / cancel / status control — the primitive
//! the `dns-server` campaign scheduler preempts jobs with.
//!
//! Control is collective: every rank of a run polls the shared
//! [`RunControl`] between steps, but only world rank 0's reading counts —
//! it is broadcast to the other ranks so the whole world takes the same
//! branch on the same step (a rank pausing one step before its peers
//! would deadlock the checkpoint collectives).
//!
//! Pausing writes a v2 checkpoint generation through the existing
//! manifest path and returns; resuming spawns a fresh supervised world
//! that restores from that manifest — bitwise-identically, as the
//! checkpoint format guarantees and `core/tests/run_handle.rs` asserts.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};
use std::sync::Arc;
use std::time::Duration;

use dns_minimpi::{Communicator, FaultPlan};
use dns_resilience::{supervise, RecoveryEvent, SupervisorConfig};

use crate::checkpoint;
use crate::health::{MonitorConfig, StepMonitor};
use crate::params::{Forcing, Params};
use crate::solver::ChannelDns;
use dns_json::Json;

// ---------------------------------------------------------------------------
// RunSpec
// ---------------------------------------------------------------------------

/// How the velocity field is initialised when a run starts from scratch
/// (a resumed run restores its fields from the checkpoint instead).
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum InitialCondition {
    /// Turbulent mean profile plus a seeded random perturbation.
    Turbulent {
        /// Perturbation amplitude.
        amplitude: f64,
        /// Deterministic perturbation seed.
        seed: u64,
    },
    /// Exact laminar (Poiseuille) equilibrium at the given centreline
    /// scale.
    Laminar {
        /// Profile scale factor.
        scale: f64,
    },
    /// Scaled-down laminar profile plus a seeded perturbation — the
    /// transition recipe the figure harnesses use for the minimal
    /// channel (the excess shear feeds the instability far more
    /// reliably than starting from the turbulent mean; see
    /// `dns_bench::validation::minimal_channel_params`). Used by the
    /// `dns-validate` science gate.
    SeededTransition {
        /// Laminar profile scale factor.
        scale: f64,
        /// Perturbation amplitude.
        amplitude: f64,
        /// Deterministic perturbation seed.
        seed: u64,
    },
}

/// Digest-slot value of a spec without the legacy `"pipeline"` key (the
/// default depth while the key was written), so every digest ever
/// embedded still verifies.
const LEGACY_PIPELINE: u64 = 4;

/// A complete, serializable description of one simulation run: the
/// physics and decomposition ([`Params`]), the step budget, the
/// checkpoint cadence, and the initial condition.
///
/// The JSON form embeds a digest of every field (`"hash"`); loading a
/// spec whose digest disagrees with its contents is a typed error, so a
/// corrupted or hand-mangled spec file is rejected before it burns core
/// hours. [`RunSpec::validate`] performs the same consistency checks as
/// [`Params::validate`] but returns typed errors instead of panicking —
/// the campaign server rejects bad submissions, it does not crash.
#[derive(Clone, Debug, PartialEq)]
pub struct RunSpec {
    /// Display name (free-form; shows up in queue listings).
    pub name: String,
    /// Physics and decomposition.
    pub params: Params,
    /// Total timesteps the run must complete.
    pub steps: u64,
    /// Write a checkpoint generation every N steps (0 = only on pause).
    pub ckpt_every: u64,
    /// How the fields are initialised on a fresh start.
    pub ic: InitialCondition,
}

/// Why a [`RunSpec`] could not be validated or decoded.
#[derive(Clone, Debug, PartialEq)]
pub enum SpecError {
    /// The JSON text did not parse.
    Parse(String),
    /// A required field is missing or has the wrong type.
    Field(&'static str),
    /// The embedded digest disagrees with the decoded fields.
    HashMismatch {
        /// Digest stored in the file.
        stored: u64,
        /// Digest recomputed from the decoded fields.
        computed: u64,
    },
    /// A field value is out of range; the message names it.
    Invalid(String),
}

impl std::fmt::Display for SpecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SpecError::Parse(e) => write!(f, "spec does not parse: {e}"),
            SpecError::Field(name) => write!(f, "spec field {name} missing or mistyped"),
            SpecError::HashMismatch { stored, computed } => write!(
                f,
                "spec hash mismatch: file says {stored:016x}, contents hash to {computed:016x}"
            ),
            SpecError::Invalid(m) => write!(f, "invalid spec: {m}"),
        }
    }
}

impl std::error::Error for SpecError {}

impl Default for RunSpec {
    fn default() -> Self {
        RunSpec {
            name: "run".into(),
            params: Params::channel(32, 65, 32, 180.0).with_dt(5e-4),
            steps: 1000,
            ckpt_every: 0,
            ic: InitialCondition::Turbulent {
                amplitude: 0.5,
                seed: 2024,
            },
        }
    }
}

impl RunSpec {
    /// Cores this run occupies while scheduled: one per rank thread,
    /// times the on-node worker threads each rank drives.
    pub fn cores(&self) -> usize {
        self.params.pa * self.params.pb * self.params.fft_threads.max(1)
    }

    /// Typed validation (the non-panicking sibling of
    /// [`Params::validate`], plus run-level checks).
    pub fn validate(&self) -> Result<(), SpecError> {
        let p = &self.params;
        let bad = |m: String| Err(SpecError::Invalid(m));
        if !p.nx.is_multiple_of(4) || !p.nz.is_multiple_of(4) {
            return bad(format!(
                "nx ({}) and nz ({}) must be multiples of 4",
                p.nx, p.nz
            ));
        }
        if p.spline_order < 4 {
            return bad(format!("spline order {} < 4", p.spline_order));
        }
        if p.ny < p.spline_order + 2 {
            return bad(format!(
                "ny {} too small for spline order {}",
                p.ny, p.spline_order
            ));
        }
        if !(p.nu > 0.0 && p.dt > 0.0 && p.lx > 0.0 && p.lz > 0.0) {
            return bad("nu, dt, lx, lz must all be positive".into());
        }
        if p.pa == 0 || p.pb == 0 {
            return bad(format!("degenerate {}x{} process grid", p.pa, p.pb));
        }
        if self.steps == 0 {
            return bad("steps must be at least 1".into());
        }
        if let InitialCondition::Turbulent { amplitude, .. }
        | InitialCondition::SeededTransition { amplitude, .. } = self.ic
        {
            if !amplitude.is_finite() || amplitude < 0.0 {
                return bad(format!(
                    "perturbation amplitude {amplitude} must be finite and >= 0"
                ));
            }
        }
        Ok(())
    }

    /// Digest of every field, mixed with the same bijective finalizer as
    /// [`Params::state_hash`]. Serialized specs embed it; decoding
    /// verifies it.
    pub fn spec_hash(&self) -> u64 {
        self.digest(LEGACY_PIPELINE)
    }

    /// [`spec_hash`](Self::spec_hash) with an explicit value in the slot
    /// the removed `"pipeline"` key occupied.
    fn digest(&self, pipeline: u64) -> u64 {
        fn mix(h: u64, v: u64) -> u64 {
            let mut z = h.wrapping_add(v).wrapping_add(0x9E37_79B9_7F4A_7C15);
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }
        let p = &self.params;
        let mut h = 0x4A4F_4253_0000_0000u64; // "JOBS" salt
        for b in self.name.bytes() {
            h = mix(h, b as u64);
        }
        h = mix(h, p.state_hash());
        for v in [p.pa as u64, p.pb as u64, p.fft_threads as u64, pipeline] {
            h = mix(h, v);
        }
        // the slot `Params::batched` occupied while the scalar wall-normal
        // route was selectable: always 1 now, so digests embedded in specs
        // written before its removal still verify
        h = mix(h, 1);
        h = mix(h, self.steps);
        h = mix(h, self.ckpt_every);
        match self.ic {
            InitialCondition::Turbulent { amplitude, seed } => {
                h = mix(h, 1);
                h = mix(h, amplitude.to_bits());
                h = mix(h, seed);
            }
            InitialCondition::Laminar { scale } => {
                h = mix(h, 2);
                h = mix(h, scale.to_bits());
            }
            InitialCondition::SeededTransition {
                scale,
                amplitude,
                seed,
            } => {
                h = mix(h, 3);
                h = mix(h, scale.to_bits());
                h = mix(h, amplitude.to_bits());
                h = mix(h, seed);
            }
        }
        h
    }

    /// Serialize to the canonical JSON form (single line, sorted keys,
    /// digest embedded).
    pub fn to_json(&self) -> String {
        let p = &self.params;
        let forcing = match p.forcing {
            Forcing::PressureGradient(g) => Json::obj()
                .put("kind", Json::str("pressure_gradient"))
                .put("value", Json::Num(g))
                .build(),
            Forcing::ConstantMassFlux { bulk } => Json::obj()
                .put("kind", Json::str("mass_flux"))
                .put("bulk", Json::Num(bulk))
                .build(),
            Forcing::None => Json::obj().put("kind", Json::str("none")).build(),
        };
        let ic = match self.ic {
            InitialCondition::Turbulent { amplitude, seed } => Json::obj()
                .put("kind", Json::str("turbulent"))
                .put("amplitude", Json::Num(amplitude))
                .put("seed", Json::Num(seed as f64))
                .build(),
            InitialCondition::Laminar { scale } => Json::obj()
                .put("kind", Json::str("laminar"))
                .put("scale", Json::Num(scale))
                .build(),
            InitialCondition::SeededTransition {
                scale,
                amplitude,
                seed,
            } => Json::obj()
                .put("kind", Json::str("seeded_transition"))
                .put("scale", Json::Num(scale))
                .put("amplitude", Json::Num(amplitude))
                .put("seed", Json::Num(seed as f64))
                .build(),
        };
        Json::obj()
            .put("kind", Json::str("run_spec"))
            .put("version", Json::num(1))
            .put("name", Json::str(&self.name))
            .put("nx", Json::num(p.nx as u32))
            .put("ny", Json::num(p.ny as u32))
            .put("nz", Json::num(p.nz as u32))
            .put("lx", Json::Num(p.lx))
            .put("lz", Json::Num(p.lz))
            .put("nu", Json::Num(p.nu))
            .put("dt", Json::Num(p.dt))
            .put("spline_order", Json::num(p.spline_order as u32))
            .put("stretch", Json::Num(p.grid_stretch))
            .put("nonlinear", Json::Bool(p.nonlinear))
            .put("forcing", forcing)
            .put("pa", Json::num(p.pa as u32))
            .put("pb", Json::num(p.pb as u32))
            .put("threads", Json::num(p.fft_threads as u32))
            .put("steps", Json::Num(self.steps as f64))
            .put("ckpt_every", Json::Num(self.ckpt_every as f64))
            .put("ic", ic)
            .put("hash", Json::str(format!("{:016x}", self.spec_hash())))
            .build()
            .dump()
    }

    /// Decode a spec from its JSON form, verifying the embedded digest
    /// (a spec without a `"hash"` field — e.g. hand-written — is
    /// accepted) and validating the result.
    pub fn from_json(text: &str) -> Result<RunSpec, SpecError> {
        let v = dns_json::parse(text).map_err(|e| SpecError::Parse(e.to_string()))?;
        fn u(v: &Json, k: &'static str) -> Result<u64, SpecError> {
            v.get(k).and_then(Json::as_u64).ok_or(SpecError::Field(k))
        }
        fn f(v: &Json, k: &'static str) -> Result<f64, SpecError> {
            v.get(k).and_then(Json::as_f64).ok_or(SpecError::Field(k))
        }
        fn b(v: &Json, k: &'static str) -> Result<bool, SpecError> {
            v.get(k).and_then(Json::as_bool).ok_or(SpecError::Field(k))
        }
        fn s<'a>(v: &'a Json, k: &'static str) -> Result<&'a str, SpecError> {
            v.get(k).and_then(Json::as_str).ok_or(SpecError::Field(k))
        }
        if s(&v, "kind")? != "run_spec" {
            return Err(SpecError::Field("kind"));
        }
        let forcing_v = v.get("forcing").ok_or(SpecError::Field("forcing"))?;
        let forcing = match s(forcing_v, "kind")? {
            "pressure_gradient" => Forcing::PressureGradient(f(forcing_v, "value")?),
            "mass_flux" => Forcing::ConstantMassFlux {
                bulk: f(forcing_v, "bulk")?,
            },
            "none" => Forcing::None,
            _ => return Err(SpecError::Field("forcing.kind")),
        };
        let ic_v = v.get("ic").ok_or(SpecError::Field("ic"))?;
        let ic = match s(ic_v, "kind")? {
            "turbulent" => InitialCondition::Turbulent {
                amplitude: f(ic_v, "amplitude")?,
                seed: u(ic_v, "seed")?,
            },
            "laminar" => InitialCondition::Laminar {
                scale: f(ic_v, "scale")?,
            },
            "seeded_transition" => InitialCondition::SeededTransition {
                scale: f(ic_v, "scale")?,
                amplitude: f(ic_v, "amplitude")?,
                seed: u(ic_v, "seed")?,
            },
            _ => return Err(SpecError::Field("ic.kind")),
        };
        let mut params = Params::channel(32, 65, 32, 180.0);
        params.nx = u(&v, "nx")? as usize;
        params.ny = u(&v, "ny")? as usize;
        params.nz = u(&v, "nz")? as usize;
        params.lx = f(&v, "lx")?;
        params.lz = f(&v, "lz")?;
        params.nu = f(&v, "nu")?;
        params.dt = f(&v, "dt")?;
        params.spline_order = u(&v, "spline_order")? as usize;
        params.grid_stretch = f(&v, "stretch")?;
        params.nonlinear = b(&v, "nonlinear")?;
        params.forcing = forcing;
        params.pa = u(&v, "pa")? as usize;
        params.pb = u(&v, "pb")? as usize;
        params.fft_threads = u(&v, "threads")? as usize;
        // accepted from older writers; asking for the removed scalar
        // route must not silently run another
        if v.get("batched").is_some() && !b(&v, "batched")? {
            return Err(SpecError::Field("batched"));
        }
        // the depth of the removed pipelined x-stage: results never
        // depended on it, so it selects nothing, but specs that carry the
        // key mixed its value into their digest
        let pipeline = match v.get("pipeline") {
            Some(_) => u(&v, "pipeline")?,
            None => LEGACY_PIPELINE,
        };
        let spec = RunSpec {
            name: s(&v, "name")?.to_string(),
            params,
            steps: u(&v, "steps")?,
            ckpt_every: u(&v, "ckpt_every")?,
            ic,
        };
        if let Some(stored_hex) = v.get("hash").and_then(Json::as_str) {
            let stored =
                u64::from_str_radix(stored_hex, 16).map_err(|_| SpecError::Field("hash"))?;
            let computed = spec.digest(pipeline);
            if stored != computed {
                return Err(SpecError::HashMismatch { stored, computed });
            }
        }
        spec.validate()?;
        Ok(spec)
    }
}

// ---------------------------------------------------------------------------
// RunConfig / control plane
// ---------------------------------------------------------------------------

/// Where a run restores its state from when it starts.
#[derive(Clone, Debug, PartialEq)]
pub enum ResumePolicy {
    /// Start from the spec's initial condition. Supervisor restarts
    /// after a crash still restore from the run's own checkpoint stem.
    Fresh,
    /// Restore from the run's own checkpoint stem when a committed
    /// generation exists there, else fall back to the initial condition
    /// — how a preempted or recovered job comes back.
    IfPresent,
    /// Restore from an explicit stem; a missing checkpoint is fatal
    /// (`dns-run --resume` semantics).
    Require(PathBuf),
}

/// Everything about *how* a run executes that is not part of its
/// [`RunSpec`]: filesystem layout, restart budget, health monitoring.
#[derive(Clone, Debug)]
pub struct RunConfig {
    /// Checkpoint stem this run writes (and restores) its generations
    /// under.
    pub ckpt_stem: PathBuf,
    /// Restore source on the first attempt.
    pub resume: ResumePolicy,
    /// Always commit a final checkpoint generation when the run
    /// completes, even with `ckpt_every == 0` (the campaign server
    /// compares and archives final states through these).
    pub final_checkpoint: bool,
    /// Supervisor restart budget after rank crashes.
    pub max_restarts: usize,
    /// Transport receive budget (see [`dns_minimpi::RECV_TIMEOUT`]).
    pub recv_timeout: Duration,
    /// Run-health monitoring; `log` inside points at this run's JSONL
    /// flight recorder.
    pub health: Option<MonitorConfig>,
    /// Offset added to the supervisor attempt index when opening the
    /// flight recorder: segment 2 of a paused-and-resumed run passes a
    /// positive base so the recorder appends to the same JSONL story
    /// instead of truncating it.
    pub health_attempt_base: usize,
    /// Time-averaged turbulence-statistics collection
    /// ([`crate::stats::StatsAccumulator`]). `Some` enables sampling on
    /// a fresh start; an accumulator restored from a checkpoint always
    /// takes precedence (with *its* checkpointed policy), so a resumed
    /// run continues the same averaging window bit-exactly.
    pub stats: Option<crate::stats::StatsConfig>,
}

impl RunConfig {
    /// A config writing checkpoints (and nothing else) under `dir/state`.
    pub fn in_dir(dir: &Path) -> RunConfig {
        RunConfig {
            ckpt_stem: dir.join("state"),
            resume: ResumePolicy::Fresh,
            final_checkpoint: true,
            max_restarts: 0,
            recv_timeout: dns_minimpi::RECV_TIMEOUT,
            health: None,
            health_attempt_base: 0,
            stats: None,
        }
    }
}

/// Lifecycle of a controlled run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RunStatus {
    /// The world is stepping.
    Running,
    /// Checkpointed and descheduled by a pause request; resumable.
    Paused,
    /// Ran to its step budget.
    Done,
    /// Every supervised attempt failed.
    Failed,
    /// Stopped by a cancel request; not resumable.
    Cancelled,
}

const CMD_NONE: u8 = 0;
const CMD_PAUSE: u8 = 1;
const CMD_CANCEL: u8 = 2;

/// Shared control block between a run's world and its owner. Commands
/// are requests: the world honours them at the next step boundary, with
/// rank 0's observation broadcast so every rank acts on the same step.
#[derive(Debug)]
pub struct RunControl {
    cmd: AtomicU8,
    status: AtomicU8,
    step: AtomicU64,
}

impl Default for RunControl {
    fn default() -> Self {
        Self::new()
    }
}

impl RunControl {
    /// Fresh control block in the `Running` state.
    pub fn new() -> RunControl {
        RunControl {
            cmd: AtomicU8::new(CMD_NONE),
            status: AtomicU8::new(RunStatus::Running as u8),
            step: AtomicU64::new(0),
        }
    }

    /// Ask the run to checkpoint and stop at the next step boundary.
    pub fn request_pause(&self) {
        self.cmd.store(CMD_PAUSE, Ordering::SeqCst);
    }

    /// Ask the run to stop (without checkpointing) at the next boundary.
    pub fn request_cancel(&self) {
        self.cmd.store(CMD_CANCEL, Ordering::SeqCst);
    }

    /// Current lifecycle state.
    pub fn status(&self) -> RunStatus {
        match self.status.load(Ordering::SeqCst) {
            x if x == RunStatus::Paused as u8 => RunStatus::Paused,
            x if x == RunStatus::Done as u8 => RunStatus::Done,
            x if x == RunStatus::Failed as u8 => RunStatus::Failed,
            x if x == RunStatus::Cancelled as u8 => RunStatus::Cancelled,
            _ => RunStatus::Running,
        }
    }

    /// Last step the run reported completing.
    pub fn current_step(&self) -> u64 {
        self.step.load(Ordering::SeqCst)
    }

    fn set_status(&self, s: RunStatus) {
        self.status.store(s as u8, Ordering::SeqCst);
    }
}

/// Per-step context handed to a [`RunObserver`].
#[derive(Clone, Copy, Debug)]
pub struct StepCtx {
    /// Steps completed (this one included).
    pub step: u64,
    /// First step of this supervised attempt (resume point).
    pub first_step: u64,
    /// Wall seconds the step took on this rank.
    pub wall_s: f64,
    /// Whether this rank is the grid root (the conventional printer).
    pub root: bool,
}

/// End-of-run summary handed to [`RunObserver::on_finish`].
#[derive(Clone, Copy, Debug)]
pub struct RunSummary {
    /// Steps this attempt executed (excluding restored ones).
    pub steps_ran: u64,
    /// Wall seconds this attempt spent stepping.
    pub wall_s: f64,
    /// Whether this rank is the grid root.
    pub root: bool,
}

/// Caller hooks into the engine's step loop — how `dns-run` keeps its
/// live statistics, telemetry windows, and CSV data products without the
/// engine knowing about any of them. Hooks run on **every rank** (so
/// collective reductions inside them are safe); implementations gate
/// printing on the `root` flag. All methods default to no-ops; `()` is
/// the silent observer the campaign server uses.
pub trait RunObserver: Send + Sync {
    /// After state restore / initial conditions, before the first step.
    fn on_start(&self, dns: &ChannelDns, resumed_from: Option<u64>, attempt: usize) {
        let _ = (dns, resumed_from, attempt);
    }
    /// After every completed step.
    fn on_step(&self, dns: &ChannelDns, ctx: StepCtx) {
        let _ = (dns, ctx);
    }
    /// After the run completed its full step budget (not on pause or
    /// cancel), while the world is still alive — collective data
    /// products happen here.
    fn on_finish(&self, dns: &ChannelDns, summary: RunSummary) {
        let _ = (dns, summary);
    }
}

impl RunObserver for () {}

/// What [`execute`] reports when its supervised world winds down.
#[derive(Debug)]
pub struct RunOutcome {
    /// Final lifecycle state (`Done`, `Paused`, `Failed`, `Cancelled`).
    pub status: RunStatus,
    /// Last completed step.
    pub steps_done: u64,
    /// Supervisor restarts consumed.
    pub restarts: usize,
    /// Supervisor recovery timeline.
    pub events: Vec<RecoveryEvent>,
}

// ---------------------------------------------------------------------------
// engine
// ---------------------------------------------------------------------------

/// How each per-rank body run ended (collective: every rank returns the
/// same variant because the verdict that produced it was broadcast).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum BodyExit {
    Completed,
    Paused,
    Cancelled,
}

/// Restore from `stem`'s newest committed manifest, falling back to a
/// plain (manifest-less) per-rank checkpoint. `None` when there is
/// nothing to restore — the caller starts from initial conditions.
fn try_restore(dns: &mut ChannelDns, stem: &Path) -> Option<u64> {
    match checkpoint::load_latest(dns, stem) {
        Ok(step) => Some(step),
        Err(checkpoint::CheckpointError::NoManifest { .. }) => match checkpoint::load(dns, stem) {
            Ok(()) => Some(dns.state().steps),
            Err(checkpoint::CheckpointError::Io(e)) if e.kind() == std::io::ErrorKind::NotFound => {
                None
            }
            Err(e) => panic!("cannot resume from {}: {e}", stem.display()),
        },
        Err(e) => panic!("cannot resume from {}: {e}", stem.display()),
    }
}

/// Run `spec` to completion (or pause/cancel) under the restart
/// supervisor, blocking the calling thread until the world winds down.
///
/// `plan_for(attempt)` supplies the fault plan per attempt (chaos tests
/// inject on attempt 0; production passes [`FaultPlan::none`] always).
/// The shared `ctl` block carries pause/cancel requests in and status /
/// progress out; `observer` hooks run on every rank as described on
/// [`RunObserver`].
pub fn execute<P>(
    spec: &RunSpec,
    cfg: &RunConfig,
    ctl: Arc<RunControl>,
    observer: Arc<dyn RunObserver>,
    plan_for: P,
) -> RunOutcome
where
    P: FnMut(usize) -> FaultPlan,
{
    if let Some(parent) = cfg.ckpt_stem.parent() {
        let _ = std::fs::create_dir_all(parent);
    }
    let ranks = spec.params.pa * spec.params.pb;
    let spec = spec.clone();
    let body_cfg = cfg.clone();
    let body_ctl = Arc::clone(&ctl);
    let report = supervise(
        SupervisorConfig {
            ranks,
            max_restarts: cfg.max_restarts,
            recv_timeout: cfg.recv_timeout,
        },
        plan_for,
        move |world, attempt| attempt_body(world, attempt, &spec, &body_cfg, &body_ctl, &*observer),
    );
    let status = match &report.results {
        Some(exits) => match exits[0] {
            BodyExit::Completed => RunStatus::Done,
            BodyExit::Paused => RunStatus::Paused,
            BodyExit::Cancelled => RunStatus::Cancelled,
        },
        None => RunStatus::Failed,
    };
    ctl.set_status(status);
    // fold the supervisor's recovery timeline into the run's flight
    // recorder, so one JSONL file interleaves steps, checkpoints, and
    // crash-recovery markers
    if let Some(log) = cfg.health.as_ref().and_then(|h| h.log.as_ref()) {
        if !report.events.is_empty() {
            use std::io::Write;
            if let Ok(mut f) = std::fs::OpenOptions::new()
                .create(true)
                .append(true)
                .open(log)
            {
                for e in dns_health::recovery_to_flight(&report.events) {
                    let _ = writeln!(f, "{}", e.to_json_line());
                }
            }
        }
    }
    RunOutcome {
        status,
        steps_done: ctl.current_step(),
        restarts: report.restarts,
        events: report.events,
    }
}

/// One supervised attempt: build the solver, restore state per the
/// resume policy, run the controlled step loop, write checkpoints.
fn attempt_body(
    world: Communicator,
    attempt: dns_resilience::Attempt,
    spec: &RunSpec,
    cfg: &RunConfig,
    ctl: &Arc<RunControl>,
    observer: &dyn RunObserver,
) -> BodyExit {
    // control handles: fault polling + the pause/cancel verdict
    // broadcast; the health monitor allgathers on its own world-wide
    // communicator so its traffic never mixes with the solver's
    let fault_ctl = world.dup();
    let verdict_comm = world.dup();
    let health_comm = world.dup();
    let world_rank = world.rank();
    let mut dns = ChannelDns::new(world, spec.params.clone());
    let root = dns.pfft().comm_a().rank() == 0 && dns.pfft().comm_b().rank() == 0;

    let restored = match &cfg.resume {
        ResumePolicy::Require(stem) => {
            let r = try_restore(&mut dns, stem);
            if attempt.index == 0 && r.is_none() {
                panic!("resume required but no checkpoint at {}", stem.display());
            }
            r
        }
        ResumePolicy::IfPresent => try_restore(&mut dns, &cfg.ckpt_stem),
        ResumePolicy::Fresh => {
            if attempt.index > 0 {
                try_restore(&mut dns, &cfg.ckpt_stem)
            } else {
                None
            }
        }
    };
    if restored.is_none() {
        match spec.ic {
            InitialCondition::Turbulent { amplitude, seed } => {
                dns.set_turbulent_mean(1.0);
                dns.add_perturbation(amplitude, seed);
            }
            InitialCondition::Laminar { scale } => dns.set_laminar(scale),
            InitialCondition::SeededTransition {
                scale,
                amplitude,
                seed,
            } => {
                dns.set_laminar(scale);
                dns.add_perturbation(amplitude, seed);
            }
        }
    }
    // statistics: a checkpointed accumulator (installed by the restore
    // above) wins — resume continuity. Only a start without one gets a
    // fresh accumulator from the config.
    if let (Some(stats_cfg), None) = (cfg.stats, dns.stats()) {
        dns.enable_stats(stats_cfg);
    }
    observer.on_start(&dns, restored, attempt.index);

    let mut monitor = cfg.health.as_ref().map(|mon_cfg| {
        StepMonitor::new(
            health_comm,
            &dns,
            mon_cfg.clone(),
            cfg.health_attempt_base + attempt.index,
            spec.steps,
        )
        .expect("open flight recorder")
    });

    let t0 = std::time::Instant::now();
    let first_step = dns.state().steps;
    if world_rank == 0 {
        ctl.step.store(first_step, Ordering::SeqCst);
    }
    let exit = loop {
        if dns.state().steps >= spec.steps {
            break BodyExit::Completed;
        }
        // the pause/cancel verdict: rank 0 reads the shared command and
        // every rank takes the branch it broadcasts, so the whole world
        // checkpoints (or stops) on the same step boundary
        let local = if world_rank == 0 {
            Some(vec![ctl.cmd.load(Ordering::SeqCst)])
        } else {
            None
        };
        let verdict = verdict_comm.bcast(0, local)[0];
        if verdict == CMD_CANCEL {
            if world_rank == 0 {
                ctl.cmd.store(CMD_NONE, Ordering::SeqCst);
                ctl.set_status(RunStatus::Cancelled);
            }
            break BodyExit::Cancelled;
        }
        if verdict == CMD_PAUSE {
            checkpoint::save_with_manifest(&dns, &cfg.ckpt_stem).expect("write pause checkpoint");
            if let Some(mon) = monitor.as_mut() {
                mon.record_checkpoint(dns.state().steps);
            }
            if world_rank == 0 {
                ctl.cmd.store(CMD_NONE, Ordering::SeqCst);
                ctl.set_status(RunStatus::Paused);
            }
            break BodyExit::Paused;
        }

        let t_step = std::time::Instant::now();
        dns.step();
        let step_wall = t_step.elapsed().as_secs_f64();
        let s = dns.state().steps;
        if world_rank == 0 {
            ctl.step.store(s, Ordering::SeqCst);
        }
        if let Some(mon) = monitor.as_mut() {
            if let Err(abort) = mon.observe_step(&dns, step_wall) {
                // collective verdict: every rank panics identically and
                // the supervisor reports the reason instead of retrying
                // a run that physics has already lost
                panic!("{abort}");
            }
        }
        observer.on_step(
            &dns,
            StepCtx {
                step: s,
                first_step,
                wall_s: step_wall,
                root,
            },
        );
        if spec.ckpt_every > 0 && s.is_multiple_of(spec.ckpt_every) {
            checkpoint::save_with_manifest(&dns, &cfg.ckpt_stem).expect("write checkpoint");
            if let Some(mon) = monitor.as_mut() {
                mon.record_checkpoint(s);
            }
        }
        // injected chaos fires only after the step (and any checkpoint)
        // committed, modelling a crash between iterations
        fault_ctl.poll_step_faults(s);
    };

    if exit == BodyExit::Completed {
        // commit the final state so a recovered or preempted run leaves
        // the same last generation as an uninterrupted one
        let already = spec.ckpt_every > 0 && spec.steps.is_multiple_of(spec.ckpt_every);
        if cfg.final_checkpoint && !already {
            checkpoint::save_with_manifest(&dns, &cfg.ckpt_stem).expect("write final checkpoint");
            if let Some(mon) = monitor.as_mut() {
                mon.record_checkpoint(dns.state().steps);
            }
        }
    }
    let wall = t0.elapsed().as_secs_f64();
    let ran = dns.state().steps - first_step;
    if let Some(mon) = monitor.as_mut() {
        mon.finish(ran, wall);
    }
    if exit == BodyExit::Completed {
        observer.on_finish(
            &dns,
            RunSummary {
                steps_ran: ran,
                wall_s: wall,
                root,
            },
        );
    }
    exit
}

// ---------------------------------------------------------------------------
// RunHandle
// ---------------------------------------------------------------------------

/// Why a [`RunHandle`] control operation was refused.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum HandleError {
    /// The operation needs the run in a different state.
    NotPaused(RunStatus),
}

impl std::fmt::Display for HandleError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            HandleError::NotPaused(s) => write!(f, "run is {s:?}, not Paused"),
        }
    }
}

impl std::error::Error for HandleError {}

/// A run executing on a background thread, with pause / resume / cancel
/// / status control — the schedulable unit of the campaign server.
///
/// Pausing checkpoints the run (v2 manifest path) and winds its world
/// down; resuming spawns a fresh world that restores from that
/// checkpoint. The round trip is bitwise-lossless.
///
/// ```no_run
/// use dns_core::run::{RunConfig, RunHandle, RunSpec, RunStatus};
/// let spec = RunSpec { steps: 100, ..RunSpec::default() };
/// let mut h = RunHandle::spawn(spec, RunConfig::in_dir("target/demo".as_ref()));
/// h.pause();
/// h.wait_not_running();
/// if h.status() == RunStatus::Paused {
///     h.resume().unwrap();
/// }
/// let outcome = h.join();
/// assert_eq!(outcome.status, RunStatus::Done);
/// ```
pub struct RunHandle {
    spec: RunSpec,
    cfg: RunConfig,
    ctl: Arc<RunControl>,
    thread: Option<std::thread::JoinHandle<RunOutcome>>,
    /// Outcomes of earlier pause/resume segments, merged at `join`.
    segments: Vec<RunOutcome>,
}

impl RunHandle {
    /// Launch `spec` on a background thread under `cfg`.
    pub fn spawn(spec: RunSpec, cfg: RunConfig) -> RunHandle {
        Self::spawn_observed(spec, cfg, Arc::new(()))
    }

    /// [`RunHandle::spawn`] with caller hooks into the step loop.
    pub fn spawn_observed(
        spec: RunSpec,
        cfg: RunConfig,
        observer: Arc<dyn RunObserver + 'static>,
    ) -> RunHandle {
        let ctl = Arc::new(RunControl::new());
        let thread = Self::launch(&spec, &cfg, &ctl, observer);
        RunHandle {
            spec,
            cfg,
            ctl,
            thread: Some(thread),
            segments: Vec::new(),
        }
    }

    fn launch(
        spec: &RunSpec,
        cfg: &RunConfig,
        ctl: &Arc<RunControl>,
        observer: Arc<dyn RunObserver>,
    ) -> std::thread::JoinHandle<RunOutcome> {
        let spec = spec.clone();
        let cfg = cfg.clone();
        let ctl = Arc::clone(ctl);
        std::thread::Builder::new()
            .name(format!("run-{}", spec.name))
            .spawn(move || execute(&spec, &cfg, ctl, observer, |_| FaultPlan::none()))
            .expect("spawn run thread")
    }

    /// The spec this handle is running.
    pub fn spec(&self) -> &RunSpec {
        &self.spec
    }

    /// The checkpoint stem the run writes under.
    pub fn ckpt_stem(&self) -> &Path {
        &self.cfg.ckpt_stem
    }

    /// Current lifecycle state.
    pub fn status(&self) -> RunStatus {
        self.ctl.status()
    }

    /// Last step the run reported completing.
    pub fn current_step(&self) -> u64 {
        self.ctl.current_step()
    }

    /// Whether the background thread has wound down (the run is paused,
    /// done, failed, or cancelled — not stepping). A finished thread is
    /// joined here: `is_finished` turns true before the OS thread exits,
    /// and a run launched in that gap is handed the wrong allocator
    /// arena and strands the exiting run's heap (+7 MB of peak RSS).
    pub fn settle(&mut self) -> bool {
        if self.thread.as_ref().is_some_and(|t| t.is_finished()) {
            self.reap();
        }
        self.thread.is_none()
    }

    /// Join the background thread and keep its outcome as a segment.
    fn reap(&mut self) {
        if let Some(t) = self.thread.take() {
            let outcome = t.join().expect("run thread never panics");
            self.segments.push(outcome);
        }
    }

    /// Request a checkpoint-and-stop at the next step boundary. The run
    /// may instead complete if it was already on its last step; poll
    /// [`RunHandle::status`] (or [`RunHandle::wait_not_running`]) for
    /// the verdict.
    pub fn pause(&self) {
        self.ctl.request_pause();
    }

    /// Request a stop without checkpoint at the next step boundary.
    pub fn cancel(&mut self) {
        match self.status() {
            RunStatus::Running => self.ctl.request_cancel(),
            // a paused world has no thread to honour the request —
            // cancelling it is a pure bookkeeping transition
            RunStatus::Paused => self.ctl.set_status(RunStatus::Cancelled),
            _ => {}
        }
    }

    /// Block until the run leaves the `Running` state (pause/cancel
    /// honoured, completion, or failure).
    pub fn wait_not_running(&self) {
        while self.status() == RunStatus::Running {
            std::thread::sleep(Duration::from_millis(2));
        }
    }

    /// Relaunch a paused run from its checkpoint. The new world restores
    /// the paused generation and continues to the spec's step budget.
    pub fn resume(&mut self) -> Result<(), HandleError> {
        self.resume_observed(Arc::new(()))
    }

    /// [`RunHandle::resume`] with caller hooks.
    pub fn resume_observed(
        &mut self,
        observer: Arc<dyn RunObserver + 'static>,
    ) -> Result<(), HandleError> {
        if self.status() != RunStatus::Paused {
            return Err(HandleError::NotPaused(self.status()));
        }
        self.reap();
        let mut cfg = self.cfg.clone();
        cfg.resume = ResumePolicy::IfPresent;
        // later flight-recorder segments append to the same JSONL story
        cfg.health_attempt_base = self.cfg.health_attempt_base
            + self.segments.iter().map(|o| o.restarts + 1).sum::<usize>();
        self.ctl.cmd.store(CMD_NONE, Ordering::SeqCst);
        self.ctl.set_status(RunStatus::Running);
        self.thread = Some(Self::launch(&self.spec, &cfg, &self.ctl, observer));
        Ok(())
    }

    /// Wind down and report: joins the background thread and merges the
    /// outcomes of every pause/resume segment (restarts summed, events
    /// concatenated, final status from the last segment).
    pub fn join(mut self) -> RunOutcome {
        let mut merged = RunOutcome {
            status: self.status(),
            steps_done: self.current_step(),
            restarts: 0,
            events: Vec::new(),
        };
        self.reap();
        for seg in self.segments.drain(..) {
            merged.restarts += seg.restarts;
            merged.events.extend(seg.events);
            merged.status = seg.status;
            merged.steps_done = seg.steps_done;
        }
        // a cancel applied to an already-paused run never reaches a
        // segment; the control block is the source of truth for it
        if self.ctl.status() == RunStatus::Cancelled {
            merged.status = RunStatus::Cancelled;
        }
        merged
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_spec() -> RunSpec {
        RunSpec {
            name: "tiny".into(),
            params: Params::channel(16, 25, 16, 50.0).with_dt(1e-3),
            steps: 4,
            ckpt_every: 2,
            ic: InitialCondition::Laminar { scale: 1.0 },
        }
    }

    #[test]
    fn spec_json_round_trips() {
        let mut spec = tiny_spec();
        spec.params.forcing = Forcing::ConstantMassFlux { bulk: 0.9 };
        spec.params.pa = 2;
        spec.params.pb = 2;
        spec.ic = InitialCondition::Turbulent {
            amplitude: 0.25,
            seed: 7,
        };
        let text = spec.to_json();
        let back = RunSpec::from_json(&text).unwrap();
        assert_eq!(back, spec);
        assert_eq!(back.to_json(), text);
        assert_eq!(back.cores(), 4);
    }

    #[test]
    fn tampered_spec_is_rejected_by_its_hash() {
        let text = tiny_spec().to_json();
        let tampered = text.replace("\"steps\":4", "\"steps\":400");
        match RunSpec::from_json(&tampered) {
            Err(SpecError::HashMismatch { .. }) => {}
            other => panic!("expected hash mismatch, got {other:?}"),
        }
    }

    #[test]
    fn handwritten_spec_without_hash_is_accepted() {
        let text = tiny_spec().to_json();
        let v = dns_json::parse(&text).unwrap();
        let Json::Obj(mut m) = v else { unreachable!() };
        m.remove("hash");
        let spec = RunSpec::from_json(&Json::Obj(m).dump()).unwrap();
        assert_eq!(spec, tiny_spec());
    }

    #[test]
    fn specs_written_before_the_batched_knob_was_removed_still_decode() {
        // `tiny_spec().to_json()` as emitted at commit 5558978
        const OLD: &str = r#"{"batched":true,"ckpt_every":2,"dt":0.001,"forcing":{"kind":"pressure_gradient","value":1},"hash":"389b938e81e50c5f","ic":{"kind":"laminar","scale":1},"kind":"run_spec","lx":6.283185307179586,"lz":3.141592653589793,"name":"tiny","nonlinear":true,"nu":0.02,"nx":16,"ny":25,"nz":16,"pa":1,"pb":1,"pipeline":4,"spline_order":8,"steps":4,"stretch":2,"threads":1,"version":1}"#;
        // the embedded digest verifies, and the key is not written back
        assert_eq!(RunSpec::from_json(OLD).unwrap(), tiny_spec());
        let written = OLD
            .replace(r#""batched":true,"#, "")
            .replace(r#""pipeline":4,"#, "");
        assert_eq!(tiny_spec().to_json(), written);
        // a spec that asked for the removed scalar route is refused
        let scalar = OLD.replace(r#""batched":true"#, r#""batched":false"#);
        assert_eq!(
            RunSpec::from_json(&scalar),
            Err(SpecError::Field("batched"))
        );
    }

    #[test]
    fn specs_written_before_the_pipeline_knob_was_removed_still_decode() {
        // `tiny_spec().to_json()` as emitted at commit dec9e3b, at the
        // default depth and with `with_pipeline(0)`
        const P4: &str = r#"{"ckpt_every":2,"dt":0.001,"forcing":{"kind":"pressure_gradient","value":1},"hash":"389b938e81e50c5f","ic":{"kind":"laminar","scale":1},"kind":"run_spec","lx":6.283185307179586,"lz":3.141592653589793,"name":"tiny","nonlinear":true,"nu":0.02,"nx":16,"ny":25,"nz":16,"pa":1,"pb":1,"pipeline":4,"spline_order":8,"steps":4,"stretch":2,"threads":1,"version":1}"#;
        const P0: &str = r#"{"ckpt_every":2,"dt":0.001,"forcing":{"kind":"pressure_gradient","value":1},"hash":"897e1781610c669e","ic":{"kind":"laminar","scale":1},"kind":"run_spec","lx":6.283185307179586,"lz":3.141592653589793,"name":"tiny","nonlinear":true,"nu":0.02,"nx":16,"ny":25,"nz":16,"pa":1,"pb":1,"pipeline":0,"spline_order":8,"steps":4,"stretch":2,"threads":1,"version":1}"#;
        // both embedded digests verify and both are the same run
        assert_eq!(RunSpec::from_json(P4).unwrap(), tiny_spec());
        assert_eq!(RunSpec::from_json(P0).unwrap(), tiny_spec());
        // the key is not written back; the digest is the default depth's
        assert_eq!(tiny_spec().to_json(), P4.replace(r#""pipeline":4,"#, ""));
        // the key still takes part in the digest it was written under
        let swapped = P0.replace(r#""pipeline":0"#, r#""pipeline":4"#);
        assert!(matches!(
            RunSpec::from_json(&swapped),
            Err(SpecError::HashMismatch { .. })
        ));
        // and a value the old decoder refused is still refused
        for bad in [
            r#""pipeline":"deep""#,
            r#""pipeline":-1"#,
            r#""pipeline":2.5"#,
        ] {
            assert_eq!(
                RunSpec::from_json(&P4.replace(r#""pipeline":4"#, bad)),
                Err(SpecError::Field("pipeline")),
                "{bad}"
            );
        }
    }

    #[test]
    fn validation_is_typed_not_panicking() {
        let mut spec = tiny_spec();
        spec.params.nx = 30;
        assert!(matches!(spec.validate(), Err(SpecError::Invalid(_))));
        let mut spec = tiny_spec();
        spec.steps = 0;
        assert!(matches!(spec.validate(), Err(SpecError::Invalid(_))));
        let mut spec = tiny_spec();
        spec.params.ny = 8;
        assert!(spec.validate().is_err());
        assert!(tiny_spec().validate().is_ok());
    }

    #[test]
    fn handle_runs_to_done() {
        let dir = std::env::temp_dir().join(format!("dns-run-handle-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let h = RunHandle::spawn(tiny_spec(), RunConfig::in_dir(&dir));
        let outcome = h.join();
        assert_eq!(outcome.status, RunStatus::Done);
        assert_eq!(outcome.steps_done, 4);
        assert_eq!(outcome.restarts, 0);
        // the final generation is committed
        assert!(dir.join("state.latest").exists());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn cancel_stops_early_without_final_checkpoint() {
        let dir = std::env::temp_dir().join(format!("dns-run-cancel-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let mut spec = tiny_spec();
        spec.steps = 100_000; // far beyond what the test waits for
        spec.ckpt_every = 0;
        let mut h = RunHandle::spawn(spec, RunConfig::in_dir(&dir));
        while h.current_step() < 1 {
            std::thread::sleep(Duration::from_millis(2));
        }
        h.cancel();
        h.wait_not_running();
        let outcome = h.join();
        assert_eq!(outcome.status, RunStatus::Cancelled);
        assert!(outcome.steps_done < 100_000);
        assert!(!dir.join("state.latest").exists());
        let _ = std::fs::remove_dir_all(&dir);
    }
}
