//! Thread-safety contracts: plans and factorisations are immutable after
//! construction and shared across worker threads (the paper's threading
//! model: one plan, many OpenMP threads).

use channel_dns::banded::testmat::CollocationLike;
use channel_dns::banded::CornerLu;
use channel_dns::fft::{CfftPlan, Direction, C64};
use std::sync::Arc;

#[test]
fn one_fft_plan_serves_many_threads() {
    let plan = Arc::new(CfftPlan::new(96, Direction::Forward));
    let data: Arc<Vec<C64>> = Arc::new(
        (0..96)
            .map(|i| C64::new((i as f64).sin(), (i as f64).cos()))
            .collect(),
    );
    // reference result
    let mut want = data.as_ref().clone();
    let mut scratch = plan.make_scratch();
    plan.execute(&mut want, &mut scratch);

    let mut handles = Vec::new();
    for _ in 0..8 {
        let plan = Arc::clone(&plan);
        let data = Arc::clone(&data);
        let want = want.clone();
        handles.push(std::thread::spawn(move || {
            let mut scratch = plan.make_scratch();
            for _ in 0..50 {
                let mut x = data.as_ref().clone();
                plan.execute(&mut x, &mut scratch);
                for (a, b) in x.iter().zip(&want) {
                    assert!((a - b).norm() < 1e-14);
                }
            }
        }));
    }
    for h in handles {
        h.join().expect("worker panicked");
    }
}

#[test]
fn one_banded_factorisation_serves_many_threads() {
    let cfg = CollocationLike::table1(15);
    let rhs = cfg.rhs();
    let lu = Arc::new(CornerLu::factor(cfg.corner()).unwrap());
    // reference
    let mut want = rhs.clone();
    lu.solve_complex(&mut want);

    let mut handles = Vec::new();
    for _ in 0..8 {
        let lu = Arc::clone(&lu);
        let rhs = rhs.clone();
        let want = want.clone();
        handles.push(std::thread::spawn(move || {
            for _ in 0..25 {
                let mut x = rhs.clone();
                lu.solve_complex(&mut x);
                for (a, b) in x.iter().zip(&want) {
                    assert!((a - b).norm() < 1e-15);
                }
            }
        }));
    }
    for h in handles {
        h.join().expect("worker panicked");
    }
}
