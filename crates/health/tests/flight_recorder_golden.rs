//! Golden-file test of the flight-recorder JSONL schema: a fixed event
//! timeline must serialize byte-for-byte to the committed
//! `tests/golden/flight.jsonl`, and parse back to the identical typed
//! timeline. The format is the contract between a running simulation and
//! every later `dns-report` invocation (possibly from a different build),
//! so drift must be deliberate: bump [`dns_health::SCHEMA_VERSION`] and
//! regenerate with
//! `UPDATE_GOLDEN=1 cargo test -p dns-health --test flight_recorder_golden`,
//! keeping the previous file as a fixture the new reader must still read
//! (`flight_v2.jsonl`: a schema-2 recorder's bytes for the same timeline).

use dns_health::schema::{parse_jsonl, FlightEvent, HealthEvent, SentinelKind};

/// One of every event kind, with values exercising number formatting
/// (integers, small floats, exact zero) and string escaping.
fn fixture() -> Vec<FlightEvent> {
    vec![
        FlightEvent::RunStart {
            attempt: 0,
            nx: 16,
            ny: 25,
            nz: 16,
            pa: 2,
            pb: 2,
            dt: 0.001,
            steps: 8,
            resumed_from: 0,
        },
        FlightEvent::Step {
            step: 1,
            rank: 0,
            wall_s: 0.0125,
            transpose_s: 0.0041,
            fft_s: 0.0032,
            ns_s: 0.0021,
            recv_wait_s: 0.0009,
            busy_s: 0.0116,
            msgs: 48,
            bytes: 65536,
        },
        FlightEvent::Step {
            step: 1,
            rank: 1,
            wall_s: 0.013,
            transpose_s: 0.0,
            fft_s: 0.004,
            ns_s: 0.003,
            recv_wait_s: 0.005,
            busy_s: 0.008,
            msgs: 48,
            bytes: 65536,
        },
        FlightEvent::Sentinel {
            step: 1,
            cfl: 0.42,
            max_div: 0.0000000000015,
            energy: 0.3333,
            finite: true,
        },
        FlightEvent::Health(HealthEvent::Straggler {
            step: 5,
            rank: 2,
            ratio: 3.75,
            factor: 1.5,
            consecutive: 3,
        }),
        FlightEvent::Health(HealthEvent::SentinelWarn {
            step: 6,
            sentinel: SentinelKind::Cfl,
            value: 1.12,
            limit: 1.0,
        }),
        FlightEvent::Checkpoint {
            step: 3,
            attempt: 0,
        },
        FlightEvent::Recovery {
            attempt: 0,
            kind: "world_failed".to_string(),
            detail: "rank 0: injected fault: rank 0 \"crashed\"\nat step 5".to_string(),
        },
        FlightEvent::RunEnd {
            steps_run: 8,
            wall_s: 1.5,
        },
    ]
}

fn serialize(events: &[FlightEvent]) -> String {
    events
        .iter()
        .map(|e| e.to_json_line() + "\n")
        .collect::<String>()
}

#[test]
fn jsonl_matches_golden_file() {
    let got = serialize(&fixture());
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/flight.jsonl");
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::write(path, &got).expect("write golden file");
        return;
    }
    let want = std::fs::read_to_string(path).expect("golden file present");
    assert_eq!(
        got, want,
        "flight-recorder JSONL drifted from tests/golden/flight.jsonl; if \
         the change is intentional, bump SCHEMA_VERSION and regenerate \
         with UPDATE_GOLDEN=1"
    );
}

#[test]
fn golden_file_replays_to_the_same_timeline() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/flight.jsonl");
    let text = std::fs::read_to_string(path).expect("golden file present");
    let events = parse_jsonl(&text).expect("golden file must parse");
    assert_eq!(events, fixture(), "parse is not the inverse of serialize");
}

#[test]
fn every_golden_line_is_schema_stamped() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/flight.jsonl");
    let text = std::fs::read_to_string(path).expect("golden file present");
    for (i, line) in text.lines().enumerate() {
        assert!(
            line.starts_with("{\"schema\":3,"),
            "line {} lacks the schema stamp: {line}",
            i + 1
        );
    }
}

/// Data dirs and `dns-report` inputs written before schema 3 still read:
/// the v2 file (its `overlap_s` ignored, integral floats spelt `1.0`)
/// replays to the same timeline.
#[test]
fn schema_2_golden_file_replays_to_the_same_timeline() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/flight_v2.jsonl");
    let text = std::fs::read_to_string(path).expect("v2 golden file present");
    assert!(text.lines().all(|l| l.starts_with("{\"schema\":2,")));
    assert_eq!(parse_jsonl(&text).expect("v2 file must parse"), fixture());
}
