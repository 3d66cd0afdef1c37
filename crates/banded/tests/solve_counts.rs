//! The N-S flop counter charges what the sweeps execute: per real solve,
//! a multiply and a subtract for every stored slot of the forward and
//! backward streams, and one reciprocal multiply per row. Its own test
//! binary: the telemetry level is process-wide.

use dns_banded::{BatchedFactor, CornerBanded, CornerLu, RhsPanel};
use dns_telemetry::{self as telemetry, Counter, Level, Phase};

/// A diagonally dominant `(n, kl, ku)` band, every window slot set.
fn band(n: usize, kl: usize, ku: usize) -> CornerBanded {
    let mut m = CornerBanded::zeros(n, kl, ku, 0, 0);
    for i in 0..n {
        for j in i.saturating_sub(kl)..=(i + ku).min(n - 1) {
            let v = if i == j {
                10.0
            } else {
                1.0 / (1 + i + j) as f64
            };
            m.set(i, j, v);
        }
    }
    m
}

/// N-S flops counted while `f` runs.
fn ns_flops(f: impl FnOnce()) -> u64 {
    telemetry::reset();
    telemetry::set_level(Level::Counters);
    f();
    telemetry::set_level(Level::Off);
    telemetry::snapshot().total_counters_by_phase()[Phase::NsAdvance as usize].get(Counter::Flops)
}

#[test]
fn solve_flops_count_the_stream_slots() {
    // n = 7, kl = ku = 2: windows start at 0,0,0,1,2,2,2, so the forward
    // stream holds 0+1+2+2+2+3+4 = 14 multipliers, the backward stream
    // 4+3+2+2+2+1+0 = 14 upper entries: 2*(14 + 14) + 7 = 63 flops per
    // real solve, two real solves per complex column
    let (n, width) = (7, 3);
    let per_col = 2 * 63;
    let batch = BatchedFactor::factor(vec![band(n, 2, 2); width]).unwrap();
    let mut panel = RhsPanel::new(n, width);
    assert_eq!(
        ns_flops(|| batch.solve_panel(&mut panel)),
        per_col * width as u64
    );
    let lu = CornerLu::factor(band(n, 2, 2)).unwrap();
    assert_eq!(
        ns_flops(|| lu.solve_panel(&mut panel)),
        per_col * width as u64
    );
    assert_eq!(ns_flops(|| lu.solve(&mut [1.0; 7])), 63);
    // tridiagonal, n = 6: 6 multipliers, 6 upper entries
    let lu = CornerLu::factor(band(6, 1, 1)).unwrap();
    assert_eq!(ns_flops(|| lu.solve(&mut [1.0; 6])), 2 * (6 + 6) + 6);
}
