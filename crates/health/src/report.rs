//! Replay a flight-recorder timeline into a human run report.
//!
//! Four sections, one artifact: latency histograms (per phase and whole
//! step), per-rank imbalance heat rows, the health-event timeline, and
//! a measured-vs-`dnscost`-model comparison — the offline half of the
//! run-health layer, consumed by the `dns-report` binary and the e2e
//! tests.

use crate::schema::{FlightEvent, HealthEvent};
use dns_netmodel::calibration::{rel_err, Calibration, Observation, StepCounts, StepSeconds};
use dns_netmodel::dnscost::{step_workload, Grid};
use dns_telemetry::{fmt_seconds, Histogram};
use std::collections::BTreeMap;

/// Aggregated view of one flight-recorder file.
pub struct Replay {
    events: Vec<FlightEvent>,
    /// Grid/topology from the first run_start, if any.
    run: Option<(Grid, usize, usize, u64)>, // grid, pa, pb, steps
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
                        r.run = Some((
                            Grid {
                                nx: *nx,
                                ny: *ny,
                                nz: *nz,
                            },
                            *pa,
                            *pb,
                            *steps,
                        ));
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
        self.model_comparison(&mut out);
        out
    }

    fn header(&self, out: &mut String) {
        out.push_str("== dns-report: run health ==\n");
        match &self.run {
            Some((g, pa, pb, steps)) => out.push_str(&format!(
                "grid {}x{}x{} on {pa}x{pb} ranks, {steps} steps planned, \
                 {} attempt(s), {} step(s) recorded\n",
                g.nx, g.ny, g.nz, self.attempts, self.distinct_steps
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

    fn model_comparison(&self, out: &mut String) {
        let Some((grid, pa, pb, _)) = &self.run else {
            return;
        };
        if self.step_critical.is_empty() {
            return;
        }
        let w = step_workload(grid);
        let mean_step = self.step_critical.mean();
        let attained = w.total_flops() / mean_step;
        let measured_bytes = self.total_bytes as f64 / self.distinct_steps.max(1) as f64;
        out.push_str("\n-- measured vs dnscost model --\n");
        out.push_str(&format!(
            "workload/step: {:.3e} flops ({:.3e} fft + {:.3e} ns), {:.3e} transpose DDR bytes\n",
            w.total_flops(),
            w.fft_flops,
            w.ns_flops,
            w.transpose_bytes
        ));
        out.push_str(&format!(
            "measured: mean critical-path step {} -> {:.3} Gflop/s attained\n",
            fmt_seconds(mean_step),
            attained / 1e9
        ));
        // Fit the run's own calibration (dns-netmodel's measured-counts
        // layer): analytic workload counts over the recorded per-phase
        // seconds, one observation per flight-recorder file.
        let obs = Observation {
            ranks: pa * pb,
            threads: 1,
            counts: StepCounts::from_workload(&w),
            seconds: StepSeconds {
                transpose: self.transpose.mean(),
                fft: self.fft.mean(),
                ns_advance: self.ns.mean(),
            },
        };
        if let Some(cal) = Calibration::fit(std::slice::from_ref(&obs)) {
            out.push_str(&format!(
                "calibration fit: fft {:.3} Gflop/s, ns {:.3} Gflop/s, transpose {:.3} GB/s\n",
                cal.fft_flop_rate / 1e9,
                cal.ns_flop_rate / 1e9,
                cal.stream_bw / 1e9
            ));
            let predicted = cal.predict(&obs.counts).total();
            out.push_str(&format!(
                "phase-sum vs critical path: predicted {} per step, rel err {:.1}% (untimed work + waits)\n",
                fmt_seconds(predicted),
                rel_err(mean_step, predicted) * 100.0
            ));
        }
        out.push_str(&format!(
            "measured comm payload: {:.3e} bytes/step across all ranks\n",
            measured_bytes
        ));
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
                    overlap_s: 0.0,
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
            "measured vs dnscost model",
            "Gflop/s",
            "calibration fit",
            "phase-sum vs critical path",
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
