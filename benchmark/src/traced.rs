//! The traced-run protocol shared by the step and the cycle workloads:
//! the program's telemetry is flipped between `Off` and `Phases` on
//! alternating blocks of operations inside one process, so the exact
//! counts come from the `Phases` blocks and the tracing overhead is the
//! ratio of the two blocks' medians on interleaved, otherwise identical
//! work.

use std::sync::Barrier;

use dns_telemetry as telemetry;
use telemetry::{Counter, Level, Phase};

use crate::report::Report;

/// Operations per block. Equal to the statistics cadence of `box_prod`,
/// so every block holds exactly one statistics sample.
pub const TOGGLE_BLOCK: u64 = 5;

/// Whether timed operation `k` (1-based) runs with telemetry on: the odd
/// blocks.
pub fn telemetry_on(k: u64) -> bool {
    ((k - 1) / TOGGLE_BLOCK) % 2 == 1
}

/// Switch the program's telemetry on an operation boundary. Collective
/// over the run's rank threads, which meet at `ranks` — a barrier of the
/// benchmark's own, because a minimpi barrier would itself be counted as
/// messages of the window. Every rank stores the level (the store is
/// idempotent), fenced on both sides so no rank records a partial
/// operation.
pub fn switch(ranks: &Barrier, on: bool) {
    ranks.wait();
    telemetry::set_level(if on { Level::Phases } else { Level::Off });
    ranks.wait();
}

/// The exchange strategy the transform's planner picked for the
/// multi-rank transposes whose planning `snap` recorded (0 alltoall,
/// 1 pairwise; 0 on a single rank, where there is no exchange).
fn planned_strategy(snap: &telemetry::Snapshot, ranks: usize) -> f64 {
    let needle = format!(" p={ranks}:");
    let pairwise = ranks > 1
        && snap
            .ranks
            .iter()
            .flat_map(|r| &r.decisions)
            .filter(|d| d.topic == "transpose.plan" && d.text.contains(&needle))
            .any(|d| d.text.starts_with("Pairwise"));
    f64::from(pairwise)
}

/// End of a traced launch's set-up, which ran with telemetry on so the
/// planner's pick is on record: read the pick (one rank's return value;
/// 0 on the others), switch telemetry off, and drop every set-up
/// record so the counters cover timed operations only. Collective over
/// the `n_ranks` threads meeting at `ranks`.
pub fn close_setup(ranks: &Barrier, n_ranks: usize) -> f64 {
    // the pick sits in the planning rank's thread buffer until flushed
    telemetry::flush_thread();
    let mut strategy = 0.0;
    if ranks.wait().is_leader() {
        strategy = planned_strategy(&telemetry::snapshot(), n_ranks);
        telemetry::set_level(Level::Off);
    }
    ranks.wait();
    telemetry::reset();
    ranks.wait();
    strategy
}

/// Closure residual of a time ledger: the share of `wall` that none of
/// the `parts` accounts for.
pub fn unattributed_frac(wall: f64, parts: &[f64]) -> f64 {
    1.0 - parts.iter().sum::<f64>() / wall
}

/// `(telemetry-on, telemetry-off)` walls of a timed window.
pub fn split(walls: &[f64]) -> (Vec<f64>, Vec<f64>) {
    let (mut on, mut off) = (Vec::new(), Vec::new());
    for (i, &w) in walls.iter().enumerate() {
        if telemetry_on(i as u64 + 1) {
            on.push(w);
        } else {
            off.push(w);
        }
    }
    (on, off)
}

/// Per-operation totals of the program's counters over the window's
/// `on_ops` telemetry-on operations.
pub fn counters_per_step(report: &mut Report, snap: &telemetry::Snapshot, on_ops: usize) {
    let per = |x: u64| x as f64 / on_ops.max(1) as f64;
    let total = snap.total_counters();
    let by_phase = snap.total_counters_by_phase();
    let fft = by_phase[Phase::Fft as usize].get(Counter::Flops);
    let ddr = by_phase[Phase::Transpose as usize].get(Counter::DdrBytes);
    report.set("fft.flops_per_step", per(fft));
    report.set("pencil.ddr_bytes_per_step", per(ddr));
    report.set(
        "banded.solve_rhs_per_step",
        per(total.get(Counter::SolveRhs)),
    );
    report.set(
        "minimpi.messages_per_step",
        per(total.get(Counter::MessagesSent)),
    );
    report.set(
        "minimpi.comm_bytes_per_step",
        per(total.get(Counter::CommBytes)),
    );
    report.set(
        "minimpi.recv_retries",
        total.get(Counter::RecvRetries) as f64,
    );
    // the wait and overlap clocks are summed over ranks; the critical
    // path sees the per-rank mean
    let ranks = snap
        .ranks
        .iter()
        .filter(|r| r.rank.is_some())
        .count()
        .max(1) as f64;
    let wait = per(total.get(Counter::ExchangeWaitUs)) * 1e-6 / ranks;
    let overlap = per(total.get(Counter::ExchangeOverlapUs)) * 1e-6 / ranks;
    report.set("minimpi.exchange_wait_s_per_step", wait);
    report.set("minimpi.exchange_overlap_s_per_step", overlap);
}

#[cfg(test)]
mod tests {
    use super::*;
    use telemetry::{CounterSet, Decision, RankSnapshot, Snapshot, NUM_PHASES};

    #[test]
    fn closure_residual_is_the_unaccounted_share() {
        assert!((unattributed_frac(0.2, &[0.05, 0.1, 0.03]) - 0.1).abs() < 1e-12);
        assert_eq!(unattributed_frac(1.0, &[0.25, 0.75]), 0.0);
        // clocks that overlap can over-attribute; the residual says so
        assert!(unattributed_frac(1.0, &[0.8, 0.4]) < 0.0);
    }

    #[test]
    fn the_multi_rank_plan_decides_the_reported_strategy() {
        let decided = |text: &str| RankSnapshot {
            rank: Some(0),
            spans: Vec::new(),
            counters: CounterSet::new(),
            by_phase: [CounterSet::new(); NUM_PHASES],
            decisions: vec![Decision {
                topic: "transpose.plan",
                text: text.into(),
            }],
            dropped: 0,
        };
        let snap = Snapshot {
            ranks: vec![
                decided("Pairwise won for rows=49 nf=72 nt=24 p=1: 1e-4 s vs 2e-4 s (2.00x)"),
                decided("AllToAll won for rows=24 nf=49 nt=48 p=2: 1e-4 s vs 2e-4 s (2.00x)"),
            ],
            tenants: Vec::new(),
        };
        assert_eq!(planned_strategy(&snap, 2), 0.0);
        assert_eq!(
            planned_strategy(&snap, 1),
            0.0,
            "one rank exchanges nothing"
        );
        let snap = Snapshot {
            ranks: vec![decided(
                "Pairwise won for rows=24 nf=49 nt=48 p=2: 1e-4 s vs 2e-4 s (2.00x)",
            )],
            tenants: Vec::new(),
        };
        assert_eq!(planned_strategy(&snap, 2), 1.0);
    }

    #[test]
    fn blocks_alternate_starting_off() {
        let on: Vec<u64> = (1..=20).filter(|&k| telemetry_on(k)).collect();
        assert_eq!(on, [6, 7, 8, 9, 10, 16, 17, 18, 19, 20]);
        let walls: Vec<f64> = (1..=20).map(f64::from).collect();
        let (on, off) = split(&walls);
        assert_eq!(on.len(), 10);
        assert_eq!(off[..6], [1.0, 2.0, 3.0, 4.0, 5.0, 11.0]);
    }
}
