//! The versioned flight-recorder event schema.
//!
//! One JSON object per line (JSONL). Every line carries
//! `"schema": 3` and a `"kind"` discriminator; per-kind fields are
//! inlined flat, mirroring the recovery-log convention in
//! `dns-resilience`. Numbers and strings are written through
//! [`dns_json::Num`] and [`dns_json::Quoted`], straight into the
//! recorder's buffer (no tree per line). The golden-file test pins the
//! byte-level format;
//! [`FlightEvent::parse_line`] is the exact inverse of
//! [`FlightEvent::to_json_line`], so a recorder file replays into the
//! same typed timeline that produced it.

use dns_json::{parse, Json, Num, Quoted};
use std::fmt;

/// Schema version stamped on every line. Bump on any incompatible field
/// change and teach [`FlightEvent::parse_line`] the old versions.
///
/// v3 writes numbers the way every other file of the stack does
/// (integral values without `.0`, non-finite ones as `null`, which reads
/// back as NaN) and drops
/// `step`'s `overlap_s`, which the blocking exchange always wrote as
/// `0.0`. v2 (with `overlap_s`) and v1 (without it) still parse; the
/// field is ignored.
pub const SCHEMA_VERSION: u64 = 3;

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
                Num(*dt)
            )),
            FlightEvent::Step {
                step,
                rank,
                wall_s,
                transpose_s,
                fft_s,
                ns_s,
                recv_wait_s,
                busy_s,
                msgs,
                bytes,
            } => out.write_fmt(format_args!(
                "\"kind\":\"step\",\"step\":{step},\"rank\":{rank},\"wall_s\":{},\
                 \"transpose_s\":{},\"fft_s\":{},\"ns_s\":{},\"recv_wait_s\":{},\
                 \"busy_s\":{},\"msgs\":{msgs},\"bytes\":{bytes}",
                Num(*wall_s),
                Num(*transpose_s),
                Num(*fft_s),
                Num(*ns_s),
                Num(*recv_wait_s),
                Num(*busy_s),
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
                Num(*cfl),
                Num(*max_div),
                Num(*energy),
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
                Num(*ratio),
                Num(*factor),
            )),
            FlightEvent::Health(HealthEvent::SentinelWarn {
                step,
                sentinel,
                value,
                limit,
            }) => out.write_fmt(format_args!(
                "\"kind\":\"health\",\"event\":\"sentinel_warn\",\"step\":{step},\
                 \"sentinel\":{},\"value\":{},\"limit\":{}",
                Quoted(sentinel.label()),
                Num(*value),
                Num(*limit),
            )),
            FlightEvent::Checkpoint { step, attempt } => out.write_fmt(format_args!(
                "\"kind\":\"checkpoint\",\"step\":{step},\"attempt\":{attempt}"
            )),
            FlightEvent::Recovery {
                attempt,
                kind,
                detail,
            } => out.write_fmt(format_args!(
                "\"kind\":\"recovery\",\"attempt\":{attempt},\"event\":{},\"detail\":{}",
                Quoted(kind),
                Quoted(detail)
            )),
            FlightEvent::RunEnd { steps_run, wall_s } => out.write_fmt(format_args!(
                "\"kind\":\"run_end\",\"steps_run\":{steps_run},\"wall_s\":{}",
                Num(*wall_s)
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
        // v1 and v2 are read back-compatibly (they differ from v3 only
        // in number spelling and v2's `overlap_s`, which is ignored);
        // anything newer than this build is refused
        if schema == 0 || schema > SCHEMA_VERSION {
            return Err(format!(
                "unsupported schema version {schema} (expected <= {SCHEMA_VERSION})"
            ));
        }
        let kind = v.get("kind").and_then(Json::as_str).ok_or("missing kind")?;
        // a non-finite value (a diverged run's sentinel) is written `null`
        let f = |k: &str| -> Result<f64, String> {
            match v.get(k) {
                Some(Json::Null) => Ok(f64::NAN),
                x => x
                    .and_then(Json::as_f64)
                    .ok_or_else(|| format!("missing number field {k:?} in {kind}")),
            }
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
            assert!(line.starts_with("{\"schema\":3,"), "{line}");
            let back = FlightEvent::parse_line(&line).unwrap_or_else(|e| panic!("{e}: {line}"));
            assert_eq!(back, ev, "round-trip mismatch for {line}");
        }
    }

    #[test]
    fn v1_and_v2_step_lines_still_parse() {
        // lines exactly as the schema-1 and schema-2 recorders wrote them:
        // v1 without overlap_s, v2 with it (ignored) and `.0` on integers
        let v1 = "{\"schema\":1,\"kind\":\"step\",\"step\":1,\"rank\":2,\"wall_s\":0.0123,\
                  \"transpose_s\":0.004,\"fft_s\":0.003,\"ns_s\":0.002,\"recv_wait_s\":0.001,\
                  \"busy_s\":0.0113,\"msgs\":48,\"bytes\":65536}";
        let v2 = "{\"schema\":2,\"kind\":\"step\",\"step\":1,\"rank\":2,\"wall_s\":0.0123,\
                  \"transpose_s\":0.004,\"fft_s\":0.003,\"ns_s\":0.002,\"recv_wait_s\":0.001,\
                  \"overlap_s\":0.0,\"busy_s\":0.0113,\"msgs\":48,\"bytes\":65536}";
        for line in [v1, v2] {
            assert_eq!(
                FlightEvent::parse_line(line).unwrap(),
                samples()[1],
                "{line}"
            );
        }
    }

    #[test]
    fn non_finite_readings_write_null_and_read_nan() {
        let e = FlightEvent::Sentinel {
            step: 9,
            cfl: f64::INFINITY,
            max_div: f64::NAN,
            energy: 1.0,
            finite: false,
        };
        let line = e.to_json_line();
        assert!(
            line.contains("\"cfl\":null,\"max_div\":null,\"energy\":1,"),
            "{line}"
        );
        match FlightEvent::parse_line(&line).unwrap() {
            FlightEvent::Sentinel { cfl, max_div, .. } => assert!(cfl.is_nan() && max_div.is_nan()),
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
            "{\"schema\":4,\"kind\":\"run_end\",\"steps_run\":1,\"wall_s\":0.5}",
        )
        .unwrap_err();
        assert!(err.contains("unsupported schema version 4"), "{err}");
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

    /// Numbers the writer must spell so they parse back bit for bit:
    /// integral values, both zeros, values past 2^53 and the extremes.
    /// The last slot is filled with a random draw.
    const NUMS: [f64; 12] = [
        0.0,
        -0.0,
        1.0,
        -3.0,
        0.1,
        1.5e-12,
        9_007_199_254_740_992.0,
        9_007_199_254_740_994.0,
        1e17,
        f64::MAX,
        f64::MIN_POSITIVE,
        f64::NAN,
    ];

    /// Recovery-detail pieces: plain text, every escaped character class
    /// (quote, backslash, named and `\u` control escapes) and multi-byte.
    const TEXT: [&str; 9] = [
        "rank 0: ", "\"", "\\", "\n", "\r", "\t", "\u{1}", "\u{1f}", "é🦀",
    ];

    fn event(kind: usize, x: &[f64], n: &[u64], text: &str) -> FlightEvent {
        match kind {
            0 => FlightEvent::RunStart {
                attempt: n[0] as usize,
                nx: n[1] as usize,
                ny: n[2] as usize,
                nz: n[3] as usize,
                pa: n[0] as usize,
                pb: n[1] as usize,
                dt: x[0],
                steps: n[2],
                resumed_from: n[3],
            },
            1 => FlightEvent::Step {
                step: n[0],
                rank: n[1] as usize,
                wall_s: x[0],
                transpose_s: x[1],
                fft_s: x[2],
                ns_s: x[3],
                recv_wait_s: x[4],
                busy_s: x[5],
                msgs: n[2],
                bytes: n[3],
            },
            2 => FlightEvent::Sentinel {
                step: n[0],
                cfl: x[0],
                max_div: x[1],
                energy: x[2],
                finite: n[1].is_multiple_of(2),
            },
            3 => FlightEvent::Health(HealthEvent::Straggler {
                step: n[0],
                rank: n[1] as usize,
                ratio: x[0],
                factor: x[1],
                consecutive: n[2] as u32,
            }),
            4 => FlightEvent::Health(HealthEvent::SentinelWarn {
                step: n[0],
                sentinel: [
                    SentinelKind::Cfl,
                    SentinelKind::Divergence,
                    SentinelKind::Energy,
                    SentinelKind::Finite,
                ][n[1] as usize % 4],
                value: x[0],
                limit: x[1],
            }),
            5 => FlightEvent::Checkpoint {
                step: n[0],
                attempt: n[1] as usize,
            },
            6 => FlightEvent::Recovery {
                attempt: n[0] as usize,
                kind: text.chars().rev().collect(),
                detail: text.to_string(),
            },
            _ => FlightEvent::RunEnd {
                steps_run: n[0],
                wall_s: x[0],
            },
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(512))]

        #[test]
        fn every_event_kind_round_trips_through_its_line(
            kind in 0usize..8,
            picks in proptest::collection::vec(0usize..NUMS.len(), 6..7),
            random in proptest::prelude::any::<f64>(),
            n in proptest::collection::vec(0u64..1 << 53, 4..5),
            words in proptest::collection::vec(0usize..TEXT.len(), 0..12)
        ) {
            // NaN has no JSON spelling (it writes `null`): the last slot
            // stands for a random finite value instead
            let x: Vec<f64> = picks
                .iter()
                .map(|&i| if NUMS[i].is_nan() { random } else { NUMS[i] })
                .collect();
            let text: String = words.iter().map(|&i| TEXT[i]).collect();
            let e = event(kind, &x, &n, &text);
            let line = e.to_json_line();
            let back = FlightEvent::parse_line(&line).map_err(proptest::TestCaseError::fail)?;
            // `Debug` spells every float in shortest round-trip form, so
            // it also sees the sign of a zero, which `==` cannot
            proptest::prop_assert_eq!(format!("{back:?}"), format!("{e:?}"));
            proptest::prop_assert_eq!(back, e);
        }
    }
}
