//! Measured-vs-modelled scaling campaign harness.
//!
//! `dns-scaling` closes the loop between the repository's two halves:
//! dns-telemetry *counts* everything the real kernels do, and [`model`]
//! *models* everything the paper's machines did. The campaign (a) runs
//! the real stack — full RK3 steps through [`dns_core::run::execute`]
//! and bare pfft cycles on minimpi, both via [`probe`] — at every
//! rank/thread configuration the build machine can hold, harvesting
//! per-phase wall seconds and the machine-readable counter export
//! ([`dns_telemetry::counts_json`]); (b) fits a host
//! [`model::calibration::Calibration`] from those *measured* counts and
//! validates it point-by-point in the overlap region; and (c) feeds the
//! measured counts into the machine models (and [`model::eventsim`]) to
//! extrapolate each curve to the paper's core counts, 786,432 on Mira
//! included.
//!
//! It is also the one reproduction crate: the host kernel probes behind
//! Table 1, the fusion ablation and Tables 2, 4 and 5 ride on the same
//! campaign, and [`tables`] writes `BENCH_table1.json` …
//! `BENCH_table11.json` and `BENCH_fusion.json` (rows tagged `measured`,
//! `modelled`, or `both`, each overlap row carrying `measured_s`,
//! `modelled_s`, and `err_rel`) plus a `BENCH_scalinglab.json` campaign
//! summary with section 7 as its `conclusions`, citing the paper's
//! values from [`paper`]. Under `--check` the binary exits non-zero if a
//! point the host has cores for misses the model by more than the
//! bound, or a family has no such point. Its other binaries are
//! `dns-perfdb` ([`perfdb`]) and `dns-validate`, the Figures 5-8 gate
//! ([`validation`]).

#![warn(missing_docs)]

pub mod campaign;
pub mod model;
pub mod paper;
pub mod perfdb;
pub mod probe;
pub mod report;
pub mod tables;
pub mod validation;

pub use campaign::{run, Bench, Campaign, CampaignConfig, Point};
