//! Contract tests: the panics and errors the public APIs promise in
//! their documentation actually fire, with recognisable messages.

use channel_dns::banded::{BandedMatrix, CornerBanded};
use channel_dns::core_solver::Params;
use channel_dns::fft::dealias::pad_full;
use channel_dns::fft::{RealLayout, RfftPlan, C64};
use channel_dns::minimpi;
use channel_dns::pencil::{RowsPlacement, TransposePlan};
use channel_dns::pfft::{ParallelFft, PfftConfig};

fn panics<F: FnOnce() + std::panic::UnwindSafe>(f: F) -> String {
    let err = std::panic::catch_unwind(f).expect_err("closure must panic");
    err.downcast_ref::<String>()
        .cloned()
        .or_else(|| err.downcast_ref::<&str>().map(|s| s.to_string()))
        .unwrap_or_default()
}

#[test]
fn params_validation_contracts() {
    let msg = panics(|| Params::channel(30, 33, 32, 100.0).validate());
    assert!(msg.contains("multiples of 4"), "{msg}");
    let msg = panics(|| Params::channel(16, 8, 16, 100.0).validate());
    assert!(msg.contains("ny too small"), "{msg}");
}

#[test]
fn real_fft_rejects_odd_lengths() {
    let msg = panics(|| {
        RfftPlan::new(31, RealLayout::WithNyquist);
    });
    assert!(msg.contains("must be even"), "{msg}");
}

#[test]
fn dealias_rejects_shrinking_pads() {
    let msg = panics(|| {
        let src = vec![C64::new(0.0, 0.0); 16];
        let mut dst = vec![C64::new(0.0, 0.0); 8];
        pad_full(&src, &mut dst);
    });
    assert!(msg.contains("bad pad sizes"), "{msg}");
}

#[test]
fn banded_storage_rejects_out_of_band_writes() {
    let msg = panics(|| {
        let mut m = BandedMatrix::<f64>::zeros(8, 1, 1);
        m.set(0, 5, 1.0);
    });
    assert!(msg.contains("outside band"), "{msg}");
}

#[test]
fn corner_storage_enforces_its_geometry() {
    let msg = panics(|| {
        CornerBanded::zeros(3, 2, 2, 0, 0); // n < bandwidth
    });
    assert!(msg.contains("at least as large as the bandwidth"), "{msg}");
    let msg = panics(|| {
        CornerBanded::zeros(16, 1, 1, 2, 0); // too many corner rows
    });
    assert!(msg.contains("top corner rows limited"), "{msg}");
}

#[test]
fn transpose_plans_need_enough_work_per_rank() {
    let results = minimpi::run(4, |world| {
        let msg = panics(std::panic::AssertUnwindSafe(|| {
            // nf = 2 < 4 ranks: impossible decomposition
            TransposePlan::plan(&world, 1, 2, 8, RowsPlacement::Outer);
        }));
        msg.contains("at least the communicator size")
    });
    assert!(results.into_iter().all(|ok| ok));
}

#[test]
fn parallel_fft_requires_a_matching_world() {
    let results = minimpi::run(2, |world| {
        let msg = panics(std::panic::AssertUnwindSafe(move || {
            // 2 ranks but a 2 x 2 grid requested
            ParallelFft::new(world, PfftConfig::customized(16, 4, 8, 2, 2));
        }));
        msg.contains("world size != pa*pb")
    });
    assert!(results.into_iter().all(|ok| ok));
}

#[test]
fn dealiased_grids_must_stay_even() {
    let results = minimpi::run(1, |world| {
        let msg = panics(std::panic::AssertUnwindSafe(move || {
            // nx = 18: 3*18/2 = 27 is odd — rejected up front
            ParallelFft::new(world, PfftConfig::customized(18, 4, 8, 1, 1).with_dealias());
        }));
        msg.contains("padded sizes even")
    });
    assert!(results.into_iter().all(|ok| ok));
}
