//! Replay a flight-recorder timeline into a human run report.
//!
//! Three sections, one artifact: latency histograms (per phase and
//! whole step, with the measured comm payload per step), per-rank
//! imbalance heat rows and the health-event timeline — the offline half
//! of the run-health layer, consumed by the `dns-report` binary and the
//! e2e tests. Comparing a run against the `dnscost` model is
//! `dns-scaling`'s job, which fits one calibration over many runs.

use crate::schema::{FlightEvent, HealthEvent};
use dns_telemetry::{fmt_seconds, Histogram};
use std::collections::BTreeMap;

/// Aggregated view of one flight-recorder file.
pub struct Replay {
    events: Vec<FlightEvent>,
    /// Grid/topology from the first run_start, if any.
    run: Option<([usize; 3], usize, usize, u64)>, // nx/ny/nz, pa, pb, steps
    attempts: usize,
    /// Per-phase latency histograms over per-rank step records.
    pub wall: Histogram,
    pub transpose: Histogram,
    pub fft: Histogram,
    pub ns: Histogram,
    /// Whole-step critical path: max wall over ranks, per step.
    pub step_critical: Histogram,
    /// Per-rank running totals over every step record.
    per_rank: BTreeMap<usize, RankTotals>,
    distinct_steps: usize,
    total_bytes: u64,
}

/// Sums of one rank's step records, for the imbalance heat rows.
#[derive(Default)]
struct RankTotals {
    steps: u64,
    busy_s: f64,
    wait_s: f64,
    wall_s: f64,
    msgs: u64,
    bytes: u64,
}

impl Replay {
    /// Fold a parsed timeline into histograms and per-rank totals.
    pub fn new(events: Vec<FlightEvent>) -> Replay {
        let mut r = Replay {
            events: Vec::new(),
            run: None,
            attempts: 0,
            wall: Histogram::new(),
            transpose: Histogram::new(),
            fft: Histogram::new(),
            ns: Histogram::new(),
            step_critical: Histogram::new(),
            per_rank: BTreeMap::new(),
            distinct_steps: 0,
            total_bytes: 0,
        };
        let mut critical: BTreeMap<u64, f64> = BTreeMap::new();
        for ev in &events {
            match ev {
                FlightEvent::RunStart {
                    nx,
                    ny,
                    nz,
                    pa,
                    pb,
                    steps,
                    ..
                } => {
                    r.attempts += 1;
                    if r.run.is_none() {
                        r.run = Some(([*nx, *ny, *nz], *pa, *pb, *steps));
                    }
                }
                FlightEvent::Step {
                    step,
                    rank,
                    wall_s,
                    transpose_s,
                    fft_s,
                    ns_s,
                    recv_wait_s,
                    busy_s,
                    msgs,
                    bytes,
                    ..
                } => {
                    r.wall.record(*wall_s);
                    r.transpose.record(*transpose_s);
                    r.fft.record(*fft_s);
                    r.ns.record(*ns_s);
                    let worst = critical.entry(*step).or_insert(0.0);
                    *worst = worst.max(*wall_s);
                    let slot = r.per_rank.entry(*rank).or_default();
                    slot.steps += 1;
                    slot.busy_s += *busy_s;
                    slot.wait_s += *recv_wait_s;
                    slot.wall_s += *wall_s;
                    slot.msgs += *msgs;
                    slot.bytes += *bytes;
                    r.total_bytes += *bytes;
                }
                _ => {}
            }
        }
        for (_, w) in critical.iter() {
            r.step_critical.record(*w);
        }
        r.distinct_steps = critical.len();
        r.events = events;
        r
    }

    /// Ranks that were ever flagged as stragglers, ascending.
    pub fn flagged_stragglers(&self) -> Vec<usize> {
        let mut ranks: Vec<usize> = self
            .events
            .iter()
            .filter_map(|e| match e {
                FlightEvent::Health(HealthEvent::Straggler { rank, .. }) => Some(*rank),
                _ => None,
            })
            .collect();
        ranks.sort_unstable();
        ranks.dedup();
        ranks
    }

    /// Render the full report.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.header(&mut out);
        self.latency_table(&mut out);
        self.heat_rows(&mut out);
        self.timeline(&mut out);
        out
    }

    fn header(&self, out: &mut String) {
        out.push_str("== dns-report: run health ==\n");
        match &self.run {
            Some(([nx, ny, nz], pa, pb, steps)) => out.push_str(&format!(
                "grid {nx}x{ny}x{nz} on {pa}x{pb} ranks, {steps} steps planned, \
                 {} attempt(s), {} step(s) recorded\n",
                self.attempts, self.distinct_steps
            )),
            None => out.push_str("no run_start event found\n"),
        }
    }

    fn latency_table(&self, out: &mut String) {
        out.push_str("\n-- step latency (per rank-step) --\n");
        out.push_str(&format!(
            "{:<14} {:>7} {:>11} {:>11} {:>11} {:>11} {:>11}\n",
            "phase", "n", "p50", "p90", "p99", "max", "mean"
        ));
        let rows: [(&str, &Histogram); 5] = [
            ("step wall", &self.wall),
            ("transpose", &self.transpose),
            ("fft", &self.fft),
            ("ns_advance", &self.ns),
            ("step critical", &self.step_critical),
        ];
        for (name, h) in rows {
            out.push_str(&format!(
                "{:<14} {:>7} {:>11} {:>11} {:>11} {:>11} {:>11}\n",
                name,
                h.count(),
                fmt_seconds(h.quantile(0.50)),
                fmt_seconds(h.quantile(0.90)),
                fmt_seconds(h.quantile(0.99)),
                fmt_seconds(h.max()),
                fmt_seconds(h.mean()),
            ));
        }
        if self.distinct_steps > 0 {
            out.push_str(&format!(
                "measured comm payload: {:.3e} bytes/step across all ranks\n",
                self.total_bytes as f64 / self.distinct_steps as f64
            ));
        }
    }

    fn heat_rows(&self, out: &mut String) {
        if self.per_rank.is_empty() {
            return;
        }
        out.push_str("\n-- per-rank imbalance (busy = wall - recv wait) --\n");
        let means: BTreeMap<usize, f64> = self
            .per_rank
            .iter()
            .map(|(&r, t)| {
                let n = t.steps;
                (r, if n > 0 { t.busy_s / n as f64 } else { 0.0 })
            })
            .collect();
        let grand = means.values().sum::<f64>() / means.len() as f64;
        let peak = means.values().cloned().fold(0.0, f64::max);
        const WIDTH: usize = 24;
        for (&rank, t) in &self.per_rank {
            let (n, wait, wall) = (t.steps, t.wait_s, t.wall_s);
            let (msgs, bytes) = (t.msgs, t.bytes);
            let mean_busy = means[&rank];
            let bar_len = if peak > 0.0 {
                ((mean_busy / peak) * WIDTH as f64).round() as usize
            } else {
                0
            };
            let bar: String = "#".repeat(bar_len) + &".".repeat(WIDTH - bar_len.min(WIDTH));
            let wait_share = if wall > 0.0 { wait / wall * 100.0 } else { 0.0 };
            let vs_mean = if grand > 0.0 { mean_busy / grand } else { 0.0 };
            out.push_str(&format!(
                "rank {rank:>3} |{bar}| busy {}/step ({vs_mean:.2}x mean)  wait {wait_share:>4.1}%  \
                 {msgs} msgs {bytes} B over {n} steps\n",
                fmt_seconds(mean_busy)
            ));
        }
    }

    fn timeline(&self, out: &mut String) {
        let mut lines = Vec::new();
        for ev in &self.events {
            match ev {
                FlightEvent::Health(HealthEvent::Straggler {
                    step,
                    rank,
                    ratio,
                    factor,
                    consecutive,
                }) => lines.push(format!(
                    "step {step:>6}  STRAGGLER rank {rank}: busy {ratio:.2}x median \
                     (factor {factor}, {consecutive} consecutive)"
                )),
                FlightEvent::Health(HealthEvent::SentinelWarn {
                    step,
                    sentinel,
                    value,
                    limit,
                }) => lines.push(format!(
                    "step {step:>6}  WARN {}: {value:.4e} over limit {limit:.4e}",
                    sentinel.label()
                )),
                FlightEvent::Checkpoint { step, attempt } => lines.push(format!(
                    "step {step:>6}  checkpoint committed (attempt {attempt})"
                )),
                FlightEvent::Recovery {
                    attempt,
                    kind,
                    detail,
                } => {
                    let detail = if detail.is_empty() {
                        String::new()
                    } else {
                        format!(": {detail}")
                    };
                    lines.push(format!("attempt {attempt}  recovery {kind}{detail}"))
                }
                FlightEvent::RunStart {
                    attempt,
                    resumed_from,
                    ..
                } => lines.push(format!(
                    "attempt {attempt}  run start (resumed from step {resumed_from})"
                )),
                FlightEvent::RunEnd { steps_run, wall_s } => lines.push(format!(
                    "run end: {steps_run} steps in {}",
                    fmt_seconds(*wall_s)
                )),
                _ => {}
            }
        }
        if !lines.is_empty() {
            out.push_str("\n-- health-event timeline --\n");
            for l in lines {
                out.push_str(&l);
                out.push('\n');
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::SentinelKind;

    fn synthetic_events() -> Vec<FlightEvent> {
        let mut ev = vec![FlightEvent::RunStart {
            attempt: 0,
            nx: 16,
            ny: 25,
            nz: 16,
            pa: 2,
            pb: 2,
            dt: 1e-3,
            steps: 4,
            resumed_from: 0,
        }];
        for step in 1..=4u64 {
            for rank in 0..4usize {
                // rank 3 is 4x busier than the others
                let busy = if rank == 3 { 0.040 } else { 0.010 };
                ev.push(FlightEvent::Step {
                    step,
                    rank,
                    wall_s: 0.042,
                    transpose_s: 0.004,
                    fft_s: 0.003,
                    ns_s: 0.002,
                    recv_wait_s: 0.042 - busy,
                    busy_s: busy,
                    msgs: 12,
                    bytes: 4096,
                });
            }
        }
        ev.push(FlightEvent::Health(HealthEvent::Straggler {
            step: 3,
            rank: 3,
            ratio: 4.0,
            factor: 1.5,
            consecutive: 3,
        }));
        ev.push(FlightEvent::Health(HealthEvent::SentinelWarn {
            step: 4,
            sentinel: SentinelKind::Cfl,
            value: 1.1,
            limit: 1.0,
        }));
        ev.push(FlightEvent::Checkpoint {
            step: 3,
            attempt: 0,
        });
        ev.push(FlightEvent::Recovery {
            attempt: 0,
            kind: "converged".into(),
            detail: String::new(),
        });
        ev.push(FlightEvent::RunEnd {
            steps_run: 4,
            wall_s: 0.2,
        });
        ev
    }

    #[test]
    fn replay_aggregates_and_flags() {
        let r = Replay::new(synthetic_events());
        assert_eq!(r.flagged_stragglers(), vec![3]);
        assert_eq!(r.wall.count(), 16); // 4 steps x 4 ranks
        assert_eq!(r.step_critical.count(), 4);
        assert!(r.step_critical.quantile(0.5) > 0.0);
    }

    #[test]
    fn report_contains_every_section() {
        let text = Replay::new(synthetic_events()).render();
        for needle in [
            "grid 16x25x16 on 2x2 ranks",
            "step latency",
            "p99",
            "per-rank imbalance",
            "STRAGGLER rank 3",
            "WARN cfl",
            "checkpoint committed",
            "recovery converged",
            "bytes/step",
        ] {
            assert!(text.contains(needle), "missing {needle:?} in:\n{text}");
        }
        // rank 3's heat row must show it well above the mean
        let row = text
            .lines()
            .find(|l| l.starts_with("rank   3"))
            .expect("rank 3 heat row");
        assert!(row.contains("x mean"), "{row}");
    }

    #[test]
    fn empty_timeline_renders_gracefully() {
        let text = Replay::new(Vec::new()).render();
        assert!(text.contains("no run_start event found"));
    }
}
