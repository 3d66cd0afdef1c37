//! The versioned flight-recorder event schema.
//!
//! One JSON object per line (JSONL). Every line carries
//! `"schema": 1` and a `"kind"` discriminator; per-kind fields are
//! inlined flat, mirroring the recovery-log convention in
//! `dns-resilience`. The golden-file test pins the byte-level format;
//! [`FlightEvent::parse_line`] is the exact inverse of
//! [`FlightEvent::to_json_line`], so a recorder file replays into the
//! same typed timeline that produced it.

use crate::json::{parse, Json};
use std::fmt;

/// Schema version stamped on every line. Bump on any incompatible field
/// change and teach [`FlightEvent::parse_line`] the old versions.
///
/// v2 added `overlap_s` to `step` (seconds of communication hidden
/// behind computation by the since-removed pipelined transposes; the
/// blocking exchange writes `0.0`); v1 lines parse with
/// `overlap_s = 0.0` — a v1 recorder predates the overlap clock, so
/// zero is the faithful reading, not a guess.
pub const SCHEMA_VERSION: u64 = 2;

/// Which physics quantity a sentinel event is about.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SentinelKind {
    /// Convective CFL number (stability demands < ~sqrt(3) for RK3).
    Cfl,
    /// Maximum pointwise velocity divergence.
    Divergence,
    /// Total kinetic energy (blowup proxy).
    Energy,
    /// NaN/Inf contamination scan.
    Finite,
}

impl SentinelKind {
    pub fn label(self) -> &'static str {
        match self {
            SentinelKind::Cfl => "cfl",
            SentinelKind::Divergence => "divergence",
            SentinelKind::Energy => "energy",
            SentinelKind::Finite => "finite",
        }
    }

    fn from_label(s: &str) -> Option<SentinelKind> {
        Some(match s {
            "cfl" => SentinelKind::Cfl,
            "divergence" => SentinelKind::Divergence,
            "energy" => SentinelKind::Energy,
            "finite" => SentinelKind::Finite,
            _ => return None,
        })
    }
}

/// A typed health event raised by the online monitors.
#[derive(Clone, Debug, PartialEq)]
pub enum HealthEvent {
    /// A rank's busy time exceeded `factor` x the cross-rank median for
    /// `consecutive` steps running.
    Straggler {
        step: u64,
        rank: usize,
        /// Observed busy time / median busy time at this step.
        ratio: f64,
        /// Configured flagging factor.
        factor: f64,
        /// Length of the over-threshold streak ending at this step.
        consecutive: u32,
    },
    /// A physics sentinel crossed its warn threshold.
    SentinelWarn {
        step: u64,
        sentinel: SentinelKind,
        value: f64,
        limit: f64,
    },
}

/// Typed error aborting a run that crossed a sentinel's abort threshold.
#[derive(Clone, Debug, PartialEq)]
pub struct SentinelAbort {
    pub step: u64,
    pub sentinel: SentinelKind,
    pub value: f64,
    pub limit: f64,
}

impl fmt::Display for SentinelAbort {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "physics sentinel abort at step {}: {} = {:.6e} crossed the abort threshold {:.6e}",
            self.step,
            self.sentinel.label(),
            self.value,
            self.limit
        )
    }
}

impl std::error::Error for SentinelAbort {}

/// One flight-recorder line.
#[derive(Clone, Debug, PartialEq)]
pub enum FlightEvent {
    /// Start of one supervised attempt.
    RunStart {
        attempt: usize,
        nx: usize,
        ny: usize,
        nz: usize,
        pa: usize,
        pb: usize,
        dt: f64,
        steps: u64,
        /// Step count restored from a checkpoint (0 on a fresh start).
        resumed_from: u64,
    },
    /// One rank's view of one timestep.
    Step {
        step: u64,
        rank: usize,
        /// Wall-clock step duration on this rank.
        wall_s: f64,
        transpose_s: f64,
        fft_s: f64,
        ns_s: f64,
        /// Seconds blocked in receives during the step.
        recv_wait_s: f64,
        /// Seconds of communication hidden behind computation during the
        /// step: nonzero only in schema-v2 recordings of the removed
        /// pipelined x-stage; 0.0 under the blocking exchange and in
        /// schema-v1 recordings.
        overlap_s: f64,
        /// `wall_s - recv_wait_s`: the straggler-detection signal.
        busy_s: f64,
        /// Messages sent on the pencil communicators during the step.
        msgs: u64,
        /// Payload bytes sent on the pencil communicators.
        bytes: u64,
    },
    /// Collective physics-sentinel readings at one step.
    Sentinel {
        step: u64,
        cfl: f64,
        max_div: f64,
        energy: f64,
        finite: bool,
    },
    /// A typed health event (straggler flag or sentinel warning).
    Health(HealthEvent),
    /// A checkpoint was committed at this step.
    Checkpoint { step: u64, attempt: usize },
    /// A supervisor recovery event, folded in from
    /// `dns-resilience::RecoveryEvent`.
    Recovery {
        attempt: usize,
        /// The recovery-log kind label (`attempt_started`,
        /// `world_failed`, `restart_issued`, `converged`, `gave_up`).
        kind: String,
        /// Human-readable detail (starting state, failure messages).
        detail: String,
    },
    /// Clean end of an attempt.
    RunEnd { steps_run: u64, wall_s: f64 },
}

fn esc(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Format an f64 so that parsing it back yields the same value, without
/// scientific-notation churn for the common magnitudes.
fn num(x: f64) -> impl fmt::Display {
    fmt::from_fn(move |f| {
        if x == x.trunc() && x.abs() < 1e15 {
            write!(f, "{x:.1}")
        } else {
            // shortest representation that round-trips
            write!(f, "{x}")
        }
    })
}

/// An event displays as its JSONL line (no trailing newline), no string between.
impl fmt::Display for FlightEvent {
    fn fmt(&self, out: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(out, "{{\"schema\":{SCHEMA_VERSION},")?;
        match self {
            FlightEvent::RunStart {
                attempt,
                nx,
                ny,
                nz,
                pa,
                pb,
                dt,
                steps,
                resumed_from,
            } => out.write_fmt(format_args!(
                "\"kind\":\"run_start\",\"attempt\":{attempt},\"nx\":{nx},\"ny\":{ny},\
                 \"nz\":{nz},\"pa\":{pa},\"pb\":{pb},\"dt\":{},\"steps\":{steps},\
                 \"resumed_from\":{resumed_from}",
                num(*dt)
            )),
            FlightEvent::Step {
                step,
                rank,
                wall_s,
                transpose_s,
                fft_s,
                ns_s,
                recv_wait_s,
                overlap_s,
                busy_s,
                msgs,
                bytes,
            } => out.write_fmt(format_args!(
                "\"kind\":\"step\",\"step\":{step},\"rank\":{rank},\"wall_s\":{},\
                 \"transpose_s\":{},\"fft_s\":{},\"ns_s\":{},\"recv_wait_s\":{},\
                 \"overlap_s\":{},\"busy_s\":{},\"msgs\":{msgs},\"bytes\":{bytes}",
                num(*wall_s),
                num(*transpose_s),
                num(*fft_s),
                num(*ns_s),
                num(*recv_wait_s),
                num(*overlap_s),
                num(*busy_s),
            )),
            FlightEvent::Sentinel {
                step,
                cfl,
                max_div,
                energy,
                finite,
            } => out.write_fmt(format_args!(
                "\"kind\":\"sentinel\",\"step\":{step},\"cfl\":{},\"max_div\":{},\
                 \"energy\":{},\"finite\":{finite}",
                num(*cfl),
                num(*max_div),
                num(*energy),
            )),
            FlightEvent::Health(HealthEvent::Straggler {
                step,
                rank,
                ratio,
                factor,
                consecutive,
            }) => out.write_fmt(format_args!(
                "\"kind\":\"health\",\"event\":\"straggler\",\"step\":{step},\"rank\":{rank},\
                 \"ratio\":{},\"factor\":{},\"consecutive\":{consecutive}",
                num(*ratio),
                num(*factor),
            )),
            FlightEvent::Health(HealthEvent::SentinelWarn {
                step,
                sentinel,
                value,
                limit,
            }) => out.write_fmt(format_args!(
                "\"kind\":\"health\",\"event\":\"sentinel_warn\",\"step\":{step},\
                 \"sentinel\":\"{}\",\"value\":{},\"limit\":{}",
                sentinel.label(),
                num(*value),
                num(*limit),
            )),
            FlightEvent::Checkpoint { step, attempt } => out.write_fmt(format_args!(
                "\"kind\":\"checkpoint\",\"step\":{step},\"attempt\":{attempt}"
            )),
            FlightEvent::Recovery {
                attempt,
                kind,
                detail,
            } => out.write_fmt(format_args!(
                "\"kind\":\"recovery\",\"attempt\":{attempt},\"event\":\"{}\",\"detail\":\"{}\"",
                esc(kind),
                esc(detail)
            )),
            FlightEvent::RunEnd { steps_run, wall_s } => out.write_fmt(format_args!(
                "\"kind\":\"run_end\",\"steps_run\":{steps_run},\"wall_s\":{}",
                num(*wall_s)
            )),
        }?;
        out.write_str("}")
    }
}

impl FlightEvent {
    /// Serialise to one JSONL line (no trailing newline).
    pub fn to_json_line(&self) -> String {
        self.to_string()
    }

    /// Parse one JSONL line back into a typed event.
    pub fn parse_line(line: &str) -> Result<FlightEvent, String> {
        let v = parse(line).map_err(|e| e.to_string())?;
        let schema = v
            .get("schema")
            .and_then(Json::as_u64)
            .ok_or("missing schema field")?;
        // v1 is read back-compatibly (its `step` lines simply predate
        // `overlap_s`); anything newer than this build is refused
        if schema == 0 || schema > SCHEMA_VERSION {
            return Err(format!(
                "unsupported schema version {schema} (expected <= {SCHEMA_VERSION})"
            ));
        }
        let kind = v.get("kind").and_then(Json::as_str).ok_or("missing kind")?;
        let f = |k: &str| -> Result<f64, String> {
            v.get(k)
                .and_then(Json::as_f64)
                .ok_or_else(|| format!("missing number field {k:?} in {kind}"))
        };
        let u = |k: &str| -> Result<u64, String> {
            v.get(k)
                .and_then(Json::as_u64)
                .ok_or_else(|| format!("missing integer field {k:?} in {kind}"))
        };
        let s = |k: &str| -> Result<String, String> {
            v.get(k)
                .and_then(Json::as_str)
                .map(str::to_string)
                .ok_or_else(|| format!("missing string field {k:?} in {kind}"))
        };
        Ok(match kind {
            "run_start" => FlightEvent::RunStart {
                attempt: u("attempt")? as usize,
                nx: u("nx")? as usize,
                ny: u("ny")? as usize,
                nz: u("nz")? as usize,
                pa: u("pa")? as usize,
                pb: u("pb")? as usize,
                dt: f("dt")?,
                steps: u("steps")?,
                resumed_from: u("resumed_from")?,
            },
            "step" => FlightEvent::Step {
                step: u("step")?,
                rank: u("rank")? as usize,
                wall_s: f("wall_s")?,
                transpose_s: f("transpose_s")?,
                fft_s: f("fft_s")?,
                ns_s: f("ns_s")?,
                recv_wait_s: f("recv_wait_s")?,
                // absent in v1 recordings: those predate the overlap
                // clock, so zero is the faithful reading
                overlap_s: if schema >= 2 { f("overlap_s")? } else { 0.0 },
                busy_s: f("busy_s")?,
                msgs: u("msgs")?,
                bytes: u("bytes")?,
            },
            "sentinel" => FlightEvent::Sentinel {
                step: u("step")?,
                cfl: f("cfl")?,
                max_div: f("max_div")?,
                energy: f("energy")?,
                finite: v
                    .get("finite")
                    .and_then(Json::as_bool)
                    .ok_or("missing bool field \"finite\" in sentinel")?,
            },
            "health" => match s("event")?.as_str() {
                "straggler" => FlightEvent::Health(HealthEvent::Straggler {
                    step: u("step")?,
                    rank: u("rank")? as usize,
                    ratio: f("ratio")?,
                    factor: f("factor")?,
                    consecutive: u("consecutive")? as u32,
                }),
                "sentinel_warn" => FlightEvent::Health(HealthEvent::SentinelWarn {
                    step: u("step")?,
                    sentinel: SentinelKind::from_label(&s("sentinel")?)
                        .ok_or("unknown sentinel label")?,
                    value: f("value")?,
                    limit: f("limit")?,
                }),
                other => return Err(format!("unknown health event {other:?}")),
            },
            "checkpoint" => FlightEvent::Checkpoint {
                step: u("step")?,
                attempt: u("attempt")? as usize,
            },
            "recovery" => FlightEvent::Recovery {
                attempt: u("attempt")? as usize,
                kind: s("event")?,
                detail: s("detail")?,
            },
            "run_end" => FlightEvent::RunEnd {
                steps_run: u("steps_run")?,
                wall_s: f("wall_s")?,
            },
            other => return Err(format!("unknown event kind {other:?}")),
        })
    }
}

/// Parse a whole flight-recorder file; blank lines are skipped, any
/// malformed line fails with its 1-based line number.
pub fn parse_jsonl(text: &str) -> Result<Vec<FlightEvent>, String> {
    let mut out = Vec::new();
    for (i, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        out.push(FlightEvent::parse_line(line).map_err(|e| format!("line {}: {e}", i + 1))?);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn samples() -> Vec<FlightEvent> {
        vec![
            FlightEvent::RunStart {
                attempt: 0,
                nx: 16,
                ny: 25,
                nz: 16,
                pa: 2,
                pb: 2,
                dt: 1e-3,
                steps: 10,
                resumed_from: 0,
            },
            FlightEvent::Step {
                step: 1,
                rank: 2,
                wall_s: 0.0123,
                transpose_s: 0.004,
                fft_s: 0.003,
                ns_s: 0.002,
                recv_wait_s: 0.001,
                overlap_s: 0.0005,
                busy_s: 0.0113,
                msgs: 48,
                bytes: 65536,
            },
            FlightEvent::Sentinel {
                step: 1,
                cfl: 0.42,
                max_div: 1.5e-12,
                energy: 0.3333,
                finite: true,
            },
            FlightEvent::Health(HealthEvent::Straggler {
                step: 5,
                rank: 2,
                ratio: 3.7,
                factor: 1.5,
                consecutive: 3,
            }),
            FlightEvent::Health(HealthEvent::SentinelWarn {
                step: 6,
                sentinel: SentinelKind::Cfl,
                value: 1.12,
                limit: 1.0,
            }),
            FlightEvent::Checkpoint {
                step: 3,
                attempt: 0,
            },
            FlightEvent::Recovery {
                attempt: 0,
                kind: "world_failed".into(),
                detail: "rank 0: injected fault \"crash\"".into(),
            },
            FlightEvent::RunEnd {
                steps_run: 10,
                wall_s: 1.25,
            },
        ]
    }

    #[test]
    fn every_event_round_trips() {
        for ev in samples() {
            let line = ev.to_json_line();
            assert!(line.contains("\"schema\":2"), "{line}");
            let back = FlightEvent::parse_line(&line).unwrap_or_else(|e| panic!("{e}: {line}"));
            assert_eq!(back, ev, "round-trip mismatch for {line}");
        }
    }

    #[test]
    fn v1_step_lines_parse_with_zero_overlap() {
        // a line exactly as a schema-1 recorder wrote it: no overlap_s
        let line = "{\"schema\":1,\"kind\":\"step\",\"step\":1,\"rank\":2,\"wall_s\":0.0123,\
                    \"transpose_s\":0.004,\"fft_s\":0.003,\"ns_s\":0.002,\"recv_wait_s\":0.001,\
                    \"busy_s\":0.0113,\"msgs\":48,\"bytes\":65536}";
        match FlightEvent::parse_line(line).unwrap() {
            FlightEvent::Step {
                overlap_s, busy_s, ..
            } => {
                assert_eq!(overlap_s, 0.0);
                assert_eq!(busy_s, 0.0113);
            }
            other => panic!("parsed wrong kind: {other:?}"),
        }
    }

    #[test]
    fn jsonl_parses_with_line_numbers_on_error() {
        let good: String = samples().iter().map(|e| e.to_json_line() + "\n").collect();
        let events = parse_jsonl(&good).unwrap();
        assert_eq!(events.len(), samples().len());
        let bad = format!("{good}{{\"schema\":1,\"kind\":\"nope\"}}\n");
        let err = parse_jsonl(&bad).unwrap_err();
        assert!(err.starts_with("line 9:"), "{err}");
    }

    #[test]
    fn future_schema_versions_are_rejected() {
        let err = FlightEvent::parse_line(
            "{\"schema\":3,\"kind\":\"run_end\",\"steps_run\":1,\"wall_s\":0.5}",
        )
        .unwrap_err();
        assert!(err.contains("unsupported schema version 3"), "{err}");
    }

    #[test]
    fn sentinel_abort_displays_typed_context() {
        let e = SentinelAbort {
            step: 7,
            sentinel: SentinelKind::Divergence,
            value: 2e-2,
            limit: 1e-3,
        };
        let msg = e.to_string();
        assert!(msg.contains("step 7"));
        assert!(msg.contains("divergence"));
        assert!(msg.contains("abort threshold"));
    }
}
