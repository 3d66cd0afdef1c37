//! Sensitivity of the timestep to machine parameters — the quantitative
//! version of the paper's conclusions (section 7): "for algorithms that
//! require global communication ... it is critical that interconnect
//! speed improve with node speed", and "the limiting on-node hardware
//! resource ... is memory bandwidth".

use crate::model::dnscost::{timestep_phases, Grid, Parallelism};
use crate::model::machines::Machine;

/// Relative change of the total timestep time when one machine resource
/// is scaled by `factor`.
#[derive(Clone, Copy, Debug)]
pub struct Sensitivity {
    /// Speedup from `factor`x injection bandwidth.
    pub injection: f64,
    /// Speedup from `factor`x link (bisection) bandwidth.
    pub bisection: f64,
    /// Speedup from `factor`x DRAM bandwidth.
    pub dram: f64,
    /// Speedup from `factor`x peak flops (cores unchanged).
    pub flops: f64,
}

fn scaled<F: Fn(&mut Machine)>(base: &Machine, f: F) -> Machine {
    let mut m = base.clone();
    f(&mut m);
    m
}

/// Measure the speedups from doubling (`factor = 2`) each resource
/// independently at one configuration.
pub fn sensitivity(
    m: &Machine,
    g: &Grid,
    cores: usize,
    mode: Parallelism,
    factor: f64,
) -> Sensitivity {
    let base = timestep_phases(m, g, cores, mode).total();
    let speedup = |mm: &Machine| base / timestep_phases(mm, g, cores, mode).total();
    Sensitivity {
        injection: speedup(&scaled(m, |mm| mm.injection_bw *= factor)),
        bisection: speedup(&scaled(m, |mm| mm.link_bw *= factor)),
        dram: speedup(&scaled(m, |mm| mm.dram_bw *= factor)),
        flops: speedup(&scaled(m, |mm| {
            mm.peak_flops_per_core *= factor;
        })),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mira_config() -> (Machine, Grid) {
        (
            Machine::mira(),
            Grid {
                nx: 18432,
                ny: 1536,
                nz: 12288,
            },
        )
    }

    #[test]
    fn interconnect_matters_more_than_flops_at_scale() {
        // section 7: communication dominates; doubling flops barely helps
        let (m, g) = mira_config();
        let s = sensitivity(&m, &g, 786_432, Parallelism::Mpi, 2.0);
        assert!(
            s.injection > s.flops,
            "injection {:.3} must beat flops {:.3}",
            s.injection,
            s.flops
        );
        assert!(s.injection > 1.15, "injection speedup {:.3}", s.injection);
        assert!(s.flops < 1.25, "flops speedup {:.3}", s.flops);
    }

    #[test]
    fn memory_bandwidth_is_the_binding_on_node_resource() {
        // doubling DRAM bandwidth helps the on-node phases more than
        // doubling peak flops does (Table 2's finding)
        let (m, g) = mira_config();
        let s = sensitivity(&m, &g, 131_072, Parallelism::Mpi, 2.0);
        assert!(
            s.dram >= s.flops * 0.95,
            "dram {:.3} vs flops {:.3}",
            s.dram,
            s.flops
        );
    }

    #[test]
    fn gemini_runs_are_bisection_sensitive() {
        // Blue Waters' transpose is bisection-bound: doubling link
        // bandwidth helps substantially
        let bw = Machine::blue_waters();
        let g = Grid {
            nx: 2048,
            ny: 1024,
            nz: 2048,
        };
        let s = sensitivity(&bw, &g, 16_384, Parallelism::Mpi, 2.0);
        assert!(s.bisection > 1.3, "bisection speedup {:.3}", s.bisection);
    }

    #[test]
    fn speedups_are_bounded_by_the_scaling_factor() {
        let (m, g) = mira_config();
        for cores in [131_072usize, 786_432] {
            let s = sensitivity(&m, &g, cores, Parallelism::Hybrid, 2.0);
            for v in [s.injection, s.bisection, s.dram, s.flops] {
                assert!((1.0..=2.0 + 1e-9).contains(&v), "{v}");
            }
        }
    }
}
