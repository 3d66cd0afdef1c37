//! The phase-clock contract: a region closed on a `PhaseClock` books its
//! own phase, and only it, at every level, and at `Level::Phases` it is
//! also exactly one span of the booked duration. A test binary of its
//! own, because the telemetry level is process-global.

use std::time::Instant;

use dns_telemetry::{self as telemetry, Counter, Level, Phase, PhaseClock, PhaseSeconds};

/// Open, busy-wait ~50 µs in, and close one region of `phase` at
/// `level` on a fresh clock and registry; a counter bumped inside lands
/// on the region's phase when anything records. Returns what the clock
/// booked and the registry's snapshot.
fn close_one(level: Level, phase: Phase) -> (PhaseSeconds, telemetry::Snapshot) {
    telemetry::reset();
    telemetry::set_level(level);
    let clock = PhaseClock::default();
    let region = telemetry::region("probe_region", phase);
    telemetry::count(Counter::Flops, 7);
    let t0 = Instant::now();
    while t0.elapsed().as_micros() < 50 {}
    region.close(&clock);
    // closed: the region's phase is off the attribution stack
    telemetry::count(Counter::DdrBytes, 3);
    telemetry::set_level(Level::Off);
    (clock.get(), telemetry::snapshot())
}

#[test]
fn a_region_books_its_phase_once_and_traces_as_one_span() {
    for phase in Phase::ALL {
        for level in [Level::Off, Level::Counters, Level::Phases] {
            let case = format!("{} at {level:?}", phase.label());
            let (booked, snap) = close_one(level, phase);
            assert!(booked[phase] >= 50e-6, "{case}: booked {booked:?}");
            assert_eq!(booked.total(), booked[phase], "{case}: {booked:?}");

            let spans: Vec<_> = snap.ranks.iter().flat_map(|r| &r.spans).collect();
            if level == Level::Phases {
                assert_eq!(spans.len(), 1, "{case}");
                let s = spans[0];
                assert_eq!((s.name, s.phase, s.depth), ("probe_region", phase, 0));
                assert_eq!(s.dur_us, booked[phase] * 1e6, "{case}");
            } else {
                assert!(spans.is_empty(), "{case}: {} spans", spans.len());
            }

            let by_phase = snap.total_counters_by_phase();
            let inside = if level == Level::Phases {
                phase
            } else {
                Phase::Other
            };
            let want = u64::from(level != Level::Off);
            assert_eq!(by_phase[inside as usize].get(Counter::Flops), 7 * want);
            let after = by_phase[Phase::Other as usize].get(Counter::DdrBytes);
            assert_eq!(after, 3 * want, "{case}");
        }
    }
}
