//! The step ledger: the solver's phase clocks (`ChannelDns::timers`)
//! time every region of an RK3 step once. Each of transpose, FFT and
//! N-S advance must have booked time (no region dropped from the clock),
//! and together they must fit inside the steps' wall time (no region
//! booked twice). Needs no telemetry level: the clocks are always on.

use std::time::Instant;

use dns_core::{run_serial, Params};

/// `(timers, summed step walls)` after `steps` steps at 32x33x32 on one
/// rank with `threads` FFT threads.
fn ledger(threads: usize, steps: usize) -> ([f64; 3], f64) {
    let params = Params::channel(32, 33, 32, 180.0).with_fft_threads(threads);
    run_serial(params, move |dns| {
        dns.set_laminar(1.0);
        dns.add_perturbation(0.3, 9);
        let mut walls = 0.0;
        for _ in 0..steps {
            let t0 = Instant::now();
            dns.step();
            walls += t0.elapsed().as_secs_f64();
        }
        let t = dns.timers();
        ([t.transpose, t.fft, t.ns_advance], walls)
    })
}

#[test]
fn every_region_is_booked_once() {
    for threads in [1, 2] {
        let (phases, walls) = ledger(threads, 3);
        for (name, s) in ["transpose", "fft", "ns_advance"].iter().zip(phases) {
            assert!(s > 0.0, "threads {threads}: {name} booked nothing");
        }
        let booked: f64 = phases.iter().sum();
        assert!(
            booked <= walls,
            "threads {threads}: {booked} s booked over {walls} s of steps"
        );
    }
}
