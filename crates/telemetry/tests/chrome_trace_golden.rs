//! Golden-file test of the Chrome trace-event exporter: a hand-built
//! snapshot with fixed timestamps must serialize byte-for-byte to the
//! committed `tests/golden/trace.json`. Catching accidental format drift
//! matters here because the output contract is an external tool
//! (Perfetto / chrome://tracing), not our own parser.
//!
//! To update the golden file after an *intentional* format change:
//! `UPDATE_GOLDEN=1 cargo test -p dns-telemetry --test chrome_trace_golden`

use dns_telemetry::{
    Counter, CounterSet, Decision, Phase, RankSnapshot, Snapshot, SpanRecord, NUM_PHASES,
};

fn span(name: &'static str, phase: Phase, start_us: f64, dur_us: f64, depth: u16) -> SpanRecord {
    SpanRecord {
        name,
        phase,
        start_us,
        dur_us,
        depth,
    }
}

/// Two ranked tracks plus an unranked driver track, with nesting, a
/// counter set, a decision, and a name that needs JSON escaping.
fn fixture() -> Snapshot {
    let mut c0 = CounterSet::new();
    c0.add(Counter::Flops, 123_456);
    c0.add(Counter::MessagesSent, 8);
    Snapshot {
        ranks: vec![
            RankSnapshot {
                rank: Some(0),
                spans: vec![
                    span("rk3_substep", Phase::Other, 0.0, 900.0, 0),
                    span("transpose", Phase::Transpose, 0.0, 400.0, 1),
                    span("pack", Phase::Transpose, 0.0, 100.0, 2),
                    span("exchange", Phase::Transpose, 100.0, 250.0, 2),
                    span("fft_x_fwd", Phase::Fft, 400.0, 300.0, 1),
                    span("ns_advance", Phase::NsAdvance, 700.0, 200.0, 1),
                ],
                counters: c0,
                by_phase: [CounterSet::new(); NUM_PHASES],
                decisions: vec![Decision {
                    topic: "transpose.plan",
                    text: "alltoall \"won\"".into(),
                }],
                dropped: 0,
            },
            RankSnapshot {
                rank: Some(1),
                spans: vec![
                    span("transpose", Phase::Transpose, 50.0, 425.5, 0),
                    span("fft_x_fwd", Phase::Fft, 500.0, 250.25, 0),
                ],
                counters: CounterSet::new(),
                by_phase: [CounterSet::new(); NUM_PHASES],
                decisions: vec![],
                dropped: 2,
            },
            RankSnapshot {
                rank: None,
                spans: vec![span("rk3_step", Phase::Other, 0.0, 1000.0, 0)],
                counters: CounterSet::new(),
                by_phase: [CounterSet::new(); NUM_PHASES],
                decisions: vec![],
                dropped: 0,
            },
        ],
        tenants: vec![],
    }
}

#[test]
fn chrome_trace_matches_golden_file() {
    let got = fixture().chrome_trace();
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/trace.json");
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::write(path, &got).expect("write golden file");
        return;
    }
    let want = std::fs::read_to_string(path).expect("golden file present");
    assert_eq!(
        got, want,
        "Chrome trace output drifted from tests/golden/trace.json; if the \
         change is intentional, regenerate with UPDATE_GOLDEN=1"
    );
}

#[test]
fn chrome_trace_shape_invariants() {
    let out = fixture().chrome_trace();
    // one complete-event line per span, one thread_name per track
    assert_eq!(out.matches("\"ph\":\"X\"").count(), 9);
    assert_eq!(out.matches("\"ph\":\"M\"").count(), 4); // process + 3 threads
                                                        // ranked tracks use their rank as tid; the driver gets max_rank + 1
    assert!(out.contains("\"name\":\"rank 0\""));
    assert!(out.contains("\"name\":\"rank 1\""));
    assert!(out.contains("\"name\":\"driver\""));
    assert!(
        out.contains("\"tid\":2"),
        "driver track after the highest rank"
    );
    // escaping: the decision text never reaches the trace, but span names
    // pass through dns_json::Quoted — no raw control characters or quotes
    assert!(!out.contains('\u{0}'));
    // timestamps are µs with fixed 3-decimal formatting
    assert!(out.contains("\"ts\":425.500") || out.contains("\"dur\":425.500"));
}
