//! The reusable run API: a supervised [`execute`] engine that runs a
//! [`RunSpec`] (restore → step loop → checkpoints → data products) under
//! the `dns-resilience` restart supervisor, and a [`RunHandle`] that runs the engine on a background
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
use crate::solver::ChannelDns;
pub use crate::spec::{InitialCondition, RunSpec, SpecError};

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
    /// Once per [`execute`], on the run thread, as its last act: the
    /// world has wound down, `status` is final and every file the run
    /// writes is complete. The campaign daemon wakes on it.
    fn on_exit(&self, status: RunStatus) {
        let _ = status;
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

/// Restore from `stem`'s newest committed manifest. `None` when there is
/// none — the caller starts from initial conditions.
fn try_restore(dns: &mut ChannelDns, stem: &Path) -> Option<u64> {
    match checkpoint::load_latest(dns, stem) {
        Ok(step) => Some(step),
        Err(checkpoint::CheckpointError::NoManifest { .. }) => None,
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
    let body_observer = Arc::clone(&observer);
    let report = supervise(
        SupervisorConfig {
            ranks,
            max_restarts: cfg.max_restarts,
            recv_timeout: cfg.recv_timeout,
        },
        plan_for,
        move |world, attempt| {
            attempt_body(world, attempt, &spec, &body_cfg, &body_ctl, &*body_observer)
        },
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
    let outcome = RunOutcome {
        status,
        steps_done: ctl.current_step(),
        restarts: report.restarts,
        events: report.events,
    };
    observer.on_exit(status);
    outcome
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

    /// Join the background thread once its observer has seen
    /// [`RunObserver::on_exit`]: the thread is past its last act, so
    /// this waits only for the OS thread to go. An owner that launches
    /// runs one after another settles the exited one first — a run
    /// launched while the old thread is still exiting is handed the
    /// wrong allocator arena and strands the exiting run's heap (+7 MB
    /// of peak RSS).
    pub fn settle(&mut self) {
        self.reap();
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
    use crate::Params;

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
