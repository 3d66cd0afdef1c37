//! Round-trip validation of the counts export (satellite of the scaling
//! lab): run a real seeded RK3 probe, serialize its counters through
//! [`dns_telemetry::counts_json`], parse the JSON back, and check the
//! harvested per-step counts against the [`dnscost::step_workload`]
//! closed-form accounting within stated tolerances.
//!
//! The tolerances encode what the instrumentation actually measures:
//!
//! * FFT flops use the same `5 N log2 N` accounting as the model, so
//!   the measured/analytic ratio should be very close to 1 (the model
//!   counts the dealiased 3/2-size transforms of the nonlinear term
//!   slightly differently, hence a few percent of slack).
//! * N-S flops only count the banded solves (`dgbtrs`-style panel
//!   sweeps); the analytic `NS_FLOPS_PER_POINT` is an all-inclusive
//!   calibrated constant that also covers RHS assembly, so the measured
//!   ratio sits well below 1 but must stay positive and bounded.
//! * Transpose bytes count actual pack/unpack DRAM traffic, which lands
//!   in the same decade as the model's `4 passes x 16 B` accounting but
//!   not exactly on it.

use dns_core::params::Params;
use dns_json::parse;
use dns_scaling::model::dnscost::{step_workload, Grid};
use dns_scaling::probe::probe_rk3;
use dns_telemetry::{counts_json, CountsMeta};

#[test]
fn harvested_counts_match_analytic_workload_within_tolerance() {
    let steps = 2;
    let probe = probe_rk3(
        Params::channel(32, 33, 32, 180.0)
            .with_dt(1e-4)
            .with_grid(2, 1),
        1,
        steps,
    );
    let meta = CountsMeta {
        bench: "roundtrip".to_string(),
        nx: 32,
        ny: 33,
        nz: 32,
        ranks: 2,
        threads: 1,
        steps,
    };
    let text = counts_json(&probe.snapshot, &meta);
    let doc = parse(&text).expect("counts export must parse as JSON");

    assert_eq!(
        doc.get("schema").and_then(|j| j.as_u64()),
        Some(dns_telemetry::COUNTS_SCHEMA_VERSION)
    );
    assert_eq!(
        doc.get("kind").and_then(|j| j.as_str()),
        Some("counts"),
        "kind field"
    );
    let phases = doc
        .get("totals")
        .and_then(|t| t.get("phase_counters"))
        .expect("totals.phase_counters");
    let per_step = |phase: &str, counter: &str| -> f64 {
        phases
            .get(phase)
            .and_then(|p| p.get(counter))
            .and_then(|v| v.as_f64())
            .unwrap_or_else(|| panic!("missing totals.phase_counters.{phase}.{counter}"))
            / steps as f64
    };

    let fft_flops = per_step("fft", "flops");
    let ns_flops = per_step("ns_advance", "flops");
    let transpose_bytes = per_step("transpose", "ddr_bytes");
    let w = step_workload(&Grid {
        nx: 32,
        ny: 33,
        nz: 32,
    });

    // FFT: same flop accounting on both sides.
    let fft_ratio = fft_flops / w.fft_flops;
    assert!(
        (fft_ratio - 1.0).abs() < 0.05,
        "fft flops measured/analytic = {fft_ratio:.4}, expected within 5% of 1"
    );

    // N-S: instrumentation counts the banded solves only; the analytic
    // constant is all-inclusive. Ratio must be positive and below 1.
    let ns_ratio = ns_flops / w.ns_flops;
    assert!(
        ns_ratio > 0.05 && ns_ratio < 1.0,
        "ns flops measured/analytic = {ns_ratio:.4}, expected in (0.05, 1.0)"
    );

    // Transpose: measured pack/unpack traffic vs the 4x16B model — same
    // decade, not the same formula.
    let tr_ratio = transpose_bytes / w.transpose_bytes;
    assert!(
        tr_ratio > 0.2 && tr_ratio < 2.0,
        "transpose bytes measured/analytic = {tr_ratio:.4}, expected in (0.2, 2.0)"
    );

    // The export's per-rank rows must sum to the totals it claims.
    let total_flops = doc
        .get("totals")
        .and_then(|t| t.get("counters"))
        .and_then(|cs| cs.get("flops"))
        .and_then(|v| v.as_f64())
        .expect("totals.counters.flops");
    let phase_sum: f64 = ["transpose", "fft", "ns_advance", "other"]
        .iter()
        .map(|p| per_step(p, "flops") * steps as f64)
        .sum();
    assert!(
        (phase_sum - total_flops).abs() < 1e-6 * total_flops.max(1.0),
        "phase split ({phase_sum}) must sum to untyped totals ({total_flops})"
    );
}
