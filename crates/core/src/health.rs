//! Solver-side run-health glue: the [`StepMonitor`] that feeds the
//! `dns-health` flight recorder, straggler detector, and physics
//! sentinels from a live [`ChannelDns`].
//!
//! The `dns-health` crate itself is deliberately solver-free (it knows
//! JSONL events and detector state machines, not spectral fields); this
//! module owns the other half of the contract — what to measure each
//! step and how to combine it across ranks:
//!
//! * **per-step deltas** against a baseline snapshot of the solver's
//!   phase timers, the rank thread's cumulative receive-wait clock, and
//!   the transform communicators' traffic counters;
//! * the **busy/wait split** `busy = wall - Δrecv_wait`: injected or
//!   real slowness on a rank shows up as *busy* time on that rank and
//!   as *wait* time on every rank blocked receiving from it, so busy is
//!   the column the straggler detector consumes;
//! * **collective sentinels** — CFL, divergence, energy, and finiteness
//!   are reduced over all ranks before the thresholds are applied, so
//!   every rank reaches the identical warn/abort verdict. `cfl` is
//!   [`ChannelDns::courant`], what the step's three nonlinear evaluations
//!   advected with; divergence and energy come from one blockwise sweep;
//! * one **allgather** of an 8-number row per step onto the monitor's
//!   own communicator, after which all baselines are re-snapshotted so
//!   the monitor's own traffic never pollutes the next step's deltas.
//!
//! Rank 0 of the monitor communicator is the only writer: it folds the
//! gathered rows into `FlightEvent::Step` records and appends health
//! events as the detectors fire.

use std::path::PathBuf;

use crate::solver::ChannelDns;
use crate::stats;
use dns_health::{
    FlightEvent, FlightRecorder, SentinelAbort, SentinelConfig, SentinelValues, Sentinels,
    StragglerConfig, StragglerDetector,
};
use dns_minimpi::Communicator;
use dns_telemetry::PhaseSeconds;

/// What the [`StepMonitor`] watches and where it writes.
#[derive(Clone, Debug)]
pub struct MonitorConfig {
    /// Flight-recorder JSONL path (rank 0 writes; `None` keeps the
    /// detectors running without an on-disk artifact).
    pub log: Option<PathBuf>,
    /// Evaluate the physics sentinels every N steps (a finiteness scan, one
    /// blockwise sweep, four small reductions; 0 disables them entirely).
    pub sentinel_every: u64,
    /// Straggler-detector thresholds.
    pub straggler: StragglerConfig,
    /// Physics-sentinel thresholds.
    pub sentinels: SentinelConfig,
}

impl Default for MonitorConfig {
    fn default() -> Self {
        MonitorConfig {
            log: None,
            sentinel_every: 1,
            straggler: StragglerConfig::default(),
            sentinels: SentinelConfig::default(),
        }
    }
}

/// Baseline snapshot the per-step deltas are measured against.
struct Baselines {
    timers: PhaseSeconds,
    recv_wait: f64,
    msgs: u64,
    bytes: u64,
}

impl Baselines {
    fn snapshot(dns: &ChannelDns, comm: &Communicator) -> Baselines {
        let a = dns.pfft().comm_a().stats();
        let b = dns.pfft().comm_b().stats();
        Baselines {
            timers: dns.timers(),
            // the wait clock lives on the rank thread, shared by every
            // communicator of the rank — any handle reads the same value
            recv_wait: comm.recv_wait_seconds(),
            // sends only: counting both directions would double the traffic
            msgs: a.messages_sent + b.messages_sent,
            bytes: a.bytes_sent + b.bytes_sent,
        }
    }
}

/// Per-rank run-health monitor driven once per completed RK3 step.
///
/// Collective: every rank of the run must construct one and call
/// [`observe_step`](StepMonitor::observe_step) in lockstep.
pub struct StepMonitor {
    comm: Communicator,
    cfg: MonitorConfig,
    recorder: Option<FlightRecorder>,
    straggler: StragglerDetector,
    sentinels: Sentinels,
    sweep: stats::PlaneSweep,
    prev: Baselines,
    attempt: usize,
}

impl StepMonitor {
    /// Build the monitor for one supervised attempt. Rank 0 opens the
    /// flight-recorder file — truncating on a fresh run (`attempt == 0`),
    /// appending on a restart so one file holds the whole story — and
    /// writes the `run_start` event. `total_steps` is the run's target
    /// step count; the resume point is read from the solver state.
    pub fn new(
        comm: Communicator,
        dns: &ChannelDns,
        cfg: MonitorConfig,
        attempt: usize,
        total_steps: u64,
    ) -> std::io::Result<StepMonitor> {
        let recorder = match (&cfg.log, comm.rank()) {
            (Some(path), 0) => {
                let mut rec = if attempt == 0 {
                    FlightRecorder::create(path)?
                } else {
                    FlightRecorder::append(path)?
                };
                let p = dns.params();
                rec.record(&FlightEvent::RunStart {
                    attempt,
                    nx: p.nx,
                    ny: p.ny,
                    nz: p.nz,
                    pa: p.pa,
                    pb: p.pb,
                    dt: p.dt,
                    steps: total_steps,
                    resumed_from: dns.state().steps,
                })?;
                Some(rec)
            }
            _ => None,
        };
        Ok(StepMonitor {
            straggler: StragglerDetector::new(cfg.straggler, comm.size()),
            sentinels: Sentinels::new(cfg.sentinels),
            sweep: stats::PlaneSweep::default(),
            prev: Baselines::snapshot(dns, &comm),
            recorder,
            comm,
            cfg,
            attempt,
        })
    }

    /// Ingest one completed step (collective). `wall_s` is the caller's
    /// wall-clock measurement around `dns.step()`. Runs the sentinels on
    /// their cadence, allgathers the per-rank rows, lets rank 0 write
    /// the step records and any health events, and re-baselines.
    ///
    /// Every rank returns the identical `Err(SentinelAbort)` when a
    /// physics sentinel crosses its abort threshold — the inputs to the
    /// verdict are reduced collectively first.
    pub fn observe_step(&mut self, dns: &ChannelDns, wall_s: f64) -> Result<(), SentinelAbort> {
        let step = dns.state().steps;
        let (now, prev) = (Baselines::snapshot(dns, &self.comm), &self.prev);
        let (wait, phases) = (now.recv_wait - prev.recv_wait, now.timers - prev.timers);
        // one 8-number row per rank onto the monitor's communicator
        let row = [
            wall_s,
            phases.transpose,
            phases.fft,
            phases.ns_advance,
            wait,
            (wall_s - wait).max(0.0),
            (now.msgs - prev.msgs) as f64,
            (now.bytes - prev.bytes) as f64,
        ];

        // physics sentinels on their cadence, from collectively-reduced
        // values so the verdict below is identical on every rank
        let verdict = if self.cfg.sentinel_every > 0 && step.is_multiple_of(self.cfg.sentinel_every)
        {
            let bad = f64::from(!stats::local_finite(dns));
            let finite = self.comm.allreduce_max(bad) == 0.0;
            // on a non-finite state skip the derived quantities (they
            // would only launder the NaNs); finite=false already aborts
            let mut values = SentinelValues {
                finite,
                ..Default::default()
            };
            if finite {
                let div = self.sweep.run(dns).max_div;
                values.cfl = dns.courant();
                values.max_div = self.comm.allreduce_max(div);
                values.energy = self.sweep.reduce(dns).energy(dns);
            }
            Some((values, self.sentinels.check(step, &values)))
        } else {
            None
        };

        let rows = self.comm.allgather(row.to_vec());

        if self.comm.rank() == 0 {
            let mut write = |event: &FlightEvent| {
                if let Some(rec) = self.recorder.as_mut() {
                    rec.record(event).expect("write flight recorder");
                }
            };
            for (rank, row) in rows.iter().enumerate() {
                write(&FlightEvent::Step {
                    step,
                    rank,
                    wall_s: row[0],
                    transpose_s: row[1],
                    fft_s: row[2],
                    ns_s: row[3],
                    recv_wait_s: row[4],
                    // the exchange is blocking: nothing is hidden
                    overlap_s: 0.0,
                    busy_s: row[5],
                    msgs: row[6] as u64,
                    bytes: row[7] as u64,
                });
            }
            if let Some((values, result)) = &verdict {
                write(&FlightEvent::Sentinel {
                    step,
                    cfl: values.cfl,
                    max_div: values.max_div,
                    energy: values.energy,
                    finite: values.finite,
                });
                if let Ok(warns) = result {
                    for w in warns {
                        write(&FlightEvent::Health(w.clone()));
                    }
                }
            }
            let busy_col: Vec<f64> = rows.iter().map(|r| r[5]).collect();
            for event in self.straggler.observe(step, &busy_col) {
                write(&FlightEvent::Health(event));
            }
        }

        // re-baseline last, so the monitor's own collectives (sentinel
        // reductions, the allgather above) stay out of the next delta
        self.prev = Baselines::snapshot(dns, &self.comm);

        match verdict {
            Some((_, Err(abort))) => {
                if let Some(rec) = self.recorder.as_mut() {
                    rec.flush().expect("flush flight recorder");
                }
                Err(abort)
            }
            _ => Ok(()),
        }
    }

    /// Note a committed checkpoint in the timeline (rank 0; the recorder
    /// flushes checkpoint events through immediately for durability).
    pub fn record_checkpoint(&mut self, step: u64) {
        if let Some(rec) = self.recorder.as_mut() {
            rec.record(&FlightEvent::Checkpoint {
                step,
                attempt: self.attempt,
            })
            .expect("write flight recorder");
        }
    }

    /// Close out the attempt: write `run_end` and flush.
    pub fn finish(&mut self, steps_run: u64, wall_s: f64) {
        if let Some(rec) = self.recorder.as_mut() {
            rec.record(&FlightEvent::RunEnd { steps_run, wall_s })
                .expect("write flight recorder");
            rec.flush().expect("flush flight recorder");
        }
    }
}
