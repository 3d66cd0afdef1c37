//! Analytic performance models of the four benchmark machines.
//!
//! The paper's headline results (Tables 2-6 and 9-11) were measured on
//! Mira (BG/Q, 5D torus), Lonestar (Westmere, QDR fat tree), Stampede
//! (Sandy Bridge, FDR fat tree) and Blue Waters (XE6, Gemini 3D torus),
//! at up to 786,432 cores. None of that hardware is available to this
//! reproduction, so this module models it: a node-level roofline with
//! thread-count-dependent DRAM-bandwidth saturation (the behaviour of
//! Tables 2-4), and an interconnect model for the all-to-all transposes
//! with explicit injection-bandwidth, bisection-bandwidth and
//! message-rate terms (the behaviour of Tables 5-6 and 9-11).
//!
//! The models are driven by *exact* operation counts taken from the real
//! kernels in this repository (flops, DRAM bytes, message counts and
//! sizes per rank), not by abstract complexity estimates. Every machine
//! constant is documented with its public source or its paper anchor;
//! remaining free parameters (e.g. effective torus bisection constants)
//! are calibrated once against one row of one table and then reused for
//! every other prediction — the interesting output is the *shape* across
//! core counts, which the model does not get to tune per row.

pub mod calibration;
pub mod dnscost;
pub mod eventsim;
pub mod machines;
pub mod network;
pub mod node;
pub mod sensitivity;
