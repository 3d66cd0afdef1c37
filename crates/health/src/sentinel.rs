//! Physics sentinels: online checks that a run is still computing flow.
//!
//! A diverging DNS does not crash — it happily integrates garbage to
//! walltime. The sentinels watch the four cheapest global invariants
//! (CFL number, maximum divergence, total kinetic energy, finiteness)
//! and split each into a *warn* threshold (recorded as a typed health
//! event) and an *abort* threshold (a typed [`SentinelAbort`] error the
//! run loop propagates, so the job fails in seconds instead of hours).

use crate::schema::{HealthEvent, SentinelAbort, SentinelKind};

/// Warn/abort thresholds for every sentinel.
#[derive(Clone, Copy, Debug)]
pub struct SentinelConfig {
    /// CFL warn threshold; RK3's stability limit is near sqrt(3) ~ 1.73,
    /// so warning at 1.0 leaves margin to react.
    pub cfl_warn: f64,
    /// CFL abort threshold.
    pub cfl_abort: f64,
    /// Max-divergence warn threshold (the projection method holds it
    /// near machine epsilon; drift means the solver is broken).
    pub div_warn: f64,
    /// Max-divergence abort threshold.
    pub div_abort: f64,
    /// Abort when total energy exceeds this multiple of the first
    /// observed energy (a forced channel's energy is O(initial)).
    pub energy_growth_abort: f64,
}

impl Default for SentinelConfig {
    fn default() -> Self {
        SentinelConfig {
            cfl_warn: 1.0,
            cfl_abort: 1.7,
            div_warn: 1e-6,
            div_abort: 1e-2,
            energy_growth_abort: 1e3,
        }
    }
}

/// One step's collective readings (identical on every rank: each value
/// comes out of an all-reduction).
#[derive(Clone, Copy, Debug, Default)]
pub struct SentinelValues {
    pub cfl: f64,
    pub max_div: f64,
    pub energy: f64,
    /// Whether every field value on every rank is finite.
    pub finite: bool,
}

/// Stateful checker (remembers the energy baseline).
pub struct Sentinels {
    cfg: SentinelConfig,
    energy0: Option<f64>,
}

impl Sentinels {
    pub fn new(cfg: SentinelConfig) -> Sentinels {
        Sentinels { cfg, energy0: None }
    }

    /// Check one step's readings. Returns warn events on success; a
    /// typed abort error when any abort threshold is crossed. Because
    /// the inputs are collective values, every rank returns the same
    /// verdict — an abort is globally simultaneous, never a one-rank
    /// hang.
    pub fn check(
        &mut self,
        step: u64,
        v: &SentinelValues,
    ) -> Result<Vec<HealthEvent>, SentinelAbort> {
        // NaN/Inf first: every other reading is meaningless once the
        // fields are contaminated.
        if !v.finite || !v.cfl.is_finite() || !v.energy.is_finite() {
            return Err(SentinelAbort {
                step,
                sentinel: SentinelKind::Finite,
                value: f64::NAN,
                limit: 0.0,
            });
        }
        if v.cfl >= self.cfg.cfl_abort {
            return Err(SentinelAbort {
                step,
                sentinel: SentinelKind::Cfl,
                value: v.cfl,
                limit: self.cfg.cfl_abort,
            });
        }
        if v.max_div >= self.cfg.div_abort {
            return Err(SentinelAbort {
                step,
                sentinel: SentinelKind::Divergence,
                value: v.max_div,
                limit: self.cfg.div_abort,
            });
        }
        let e0 = *self.energy0.get_or_insert(v.energy);
        let energy_limit = self.cfg.energy_growth_abort * e0.max(f64::MIN_POSITIVE);
        if e0 > 0.0 && v.energy >= energy_limit {
            return Err(SentinelAbort {
                step,
                sentinel: SentinelKind::Energy,
                value: v.energy,
                limit: energy_limit,
            });
        }
        let mut warns = Vec::new();
        if v.cfl >= self.cfg.cfl_warn {
            warns.push(HealthEvent::SentinelWarn {
                step,
                sentinel: SentinelKind::Cfl,
                value: v.cfl,
                limit: self.cfg.cfl_warn,
            });
        }
        if v.max_div >= self.cfg.div_warn {
            warns.push(HealthEvent::SentinelWarn {
                step,
                sentinel: SentinelKind::Divergence,
                value: v.max_div,
                limit: self.cfg.div_warn,
            });
        }
        Ok(warns)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn healthy() -> SentinelValues {
        SentinelValues {
            cfl: 0.4,
            max_div: 1e-12,
            energy: 0.33,
            finite: true,
        }
    }

    #[test]
    fn healthy_steps_raise_nothing() {
        let mut s = Sentinels::new(SentinelConfig::default());
        for step in 0..10 {
            assert!(s.check(step, &healthy()).unwrap().is_empty());
        }
    }

    #[test]
    fn cfl_warns_then_aborts() {
        let mut s = Sentinels::new(SentinelConfig::default());
        let warned = s
            .check(
                3,
                &SentinelValues {
                    cfl: 1.2,
                    ..healthy()
                },
            )
            .unwrap();
        assert!(matches!(
            warned[0],
            HealthEvent::SentinelWarn {
                sentinel: SentinelKind::Cfl,
                ..
            }
        ));
        let abort = s
            .check(
                4,
                &SentinelValues {
                    cfl: 2.0,
                    ..healthy()
                },
            )
            .unwrap_err();
        assert_eq!(abort.sentinel, SentinelKind::Cfl);
        assert_eq!(abort.step, 4);
        assert_eq!(abort.value, 2.0);
    }

    #[test]
    fn divergence_drift_is_caught() {
        let mut s = Sentinels::new(SentinelConfig::default());
        let warned = s
            .check(
                1,
                &SentinelValues {
                    max_div: 1e-5,
                    ..healthy()
                },
            )
            .unwrap();
        assert_eq!(warned.len(), 1);
        let abort = s
            .check(
                2,
                &SentinelValues {
                    max_div: 0.5,
                    ..healthy()
                },
            )
            .unwrap_err();
        assert_eq!(abort.sentinel, SentinelKind::Divergence);
    }

    #[test]
    fn energy_growth_uses_the_first_step_as_baseline() {
        let mut s = Sentinels::new(SentinelConfig::default());
        s.check(0, &healthy()).unwrap(); // baseline 0.33
                                         // 100x growth: still under the 1000x abort factor
        assert!(s
            .check(
                1,
                &SentinelValues {
                    energy: 33.0,
                    ..healthy()
                }
            )
            .is_ok());
        let abort = s
            .check(
                2,
                &SentinelValues {
                    energy: 400.0,
                    ..healthy()
                },
            )
            .unwrap_err();
        assert_eq!(abort.sentinel, SentinelKind::Energy);
    }

    #[test]
    fn nonfinite_aborts_before_anything_else() {
        let mut s = Sentinels::new(SentinelConfig::default());
        let abort = s
            .check(
                5,
                &SentinelValues {
                    finite: false,
                    cfl: f64::NAN,
                    ..healthy()
                },
            )
            .unwrap_err();
        assert_eq!(abort.sentinel, SentinelKind::Finite);
    }
}
