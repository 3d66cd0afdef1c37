//! # dns-resilience — fault-tolerant run supervision
//!
//! At the paper's 786K-core scale a DNS campaign runs longer than the
//! machine's mean time between failures: completing at all is a
//! checkpoint/restart problem as much as a numerics problem. This crate
//! is the control layer of that story for the thread-backed runtime:
//!
//! * [`supervise`] — a restart loop over
//!   [`run_result`](dns_minimpi::run_result) (launch the world, observe
//!   rank deaths as typed failures instead of hangs, relaunch up to a
//!   restart budget). The body restores from its own durable state on
//!   `attempt.index > 0`; checkpoint writing and validation live in
//!   `core::checkpoint`.
//! * [`RecoveryEvent`] / [`events_to_json`] — a machine-readable
//!   timeline of attempts, failures, restarts, and the final verdict,
//!   exported as JSON for CI artifacts.
//! * [`crc32`] / [`Crc32`] — the integrity primitive checkpoint records
//!   and manifests are sealed with; [`frame`] / [`unframe`] — the
//!   `{"crc":C,"rec":R}` line codec of the append-only journals, which
//!   [`open_journal`] / [`append_line`] write and [`read_journal`] replays.
//!
//! Fault *injection* (the deterministic adversary these pieces are
//! tested against) lives in [`FaultPlan`](dns_minimpi::FaultPlan); this
//! crate consumes plans, it does not define them — the transport must
//! be hardened at the transport layer, not above it.

mod crc;
mod events;
mod supervisor;

pub use crc::{append_line, crc32, frame, open_journal, read_journal, unframe, Crc32};
pub use events::{events_to_json, EventKind, RecoveryEvent};
pub use supervisor::{supervise, Attempt, Report, SupervisorConfig};
