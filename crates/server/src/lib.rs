//! # dns-server — the multi-tenant campaign server
//!
//! A job-queue daemon for the channel DNS: clients submit serialized
//! [`dns_core::run::RunSpec`]s over a newline-delimited JSON protocol on
//! a local TCP socket ([`proto`]); a deterministic scheduler packs them
//! onto a configurable core budget with per-tenant quotas and priorities
//! ([`scheduler`]); every transition is CRC-sealed in an append-only
//! journal before it is acted on ([`journal`]); and one event loop,
//! which wakes only on a request, a connection, a job's step or a
//! world's exit, executes runs in-process through supervised
//! [`dns_core::run::RunHandle`] worlds ([`daemon`]).
//!
//! The headline move is **preemptive checkpoint/restore scheduling**: a
//! higher-priority submission checkpoints a running lower-priority job
//! through the v2 manifest path, takes its cores, and the victim later
//! resumes bitwise-identically — the same guarantee the checkpoint
//! format proved for crash recovery, now doing scheduling work. Because
//! the journal is flushed before every action, a SIGKILLed server
//! restarts from the journal with every in-flight run recovered
//! (`tests/server_chaos.rs` proves it the hard way).
//!
//! The daemon also carries the **observability plane** (PR 9): a
//! hand-rolled HTTP/1.1 facade ([`http`]) answered by the same loop, serving
//! Prometheus text (`/metrics`, rendered by [`metrics`]), canonical-JSON
//! queue/tenant views, and live health streams as Server-Sent Events;
//! plus a per-tenant fairness ledger ([`tenants`]) of queue-wait and
//! run-duration histograms with a Jain index over delivered
//! core-seconds.
//!
//! Two binaries ship with the crate: `dns-server` (the daemon) and
//! `dns-cli` (submit / status / tenants / watch / cancel / drain). See
//! the README sections "Running a campaign server" and "Watching a
//! campaign in the browser" for copy-pasteable sessions, DESIGN.md §9
//! for the protocol grammar, scheduler state machine, and journal
//! format, and DESIGN.md §10 for the facade's endpoint grammar and
//! metric naming convention.

#![deny(missing_docs)]

pub mod daemon;
pub mod http;
pub mod journal;
pub mod metrics;
pub mod proto;
pub mod scheduler;
pub mod tenants;
