//! Exporters over [`Snapshot`]: phase aggregation, human table, the
//! versioned counts JSON, and Chrome trace-event output.

use std::fmt::Write as _;
use std::ops::{Index, IndexMut, Sub};

use dns_json::Quoted;

use crate::{Counter, CounterSet, Phase, RankSnapshot, Snapshot, NUM_PHASES};

/// Version stamp of the machine-readable counts schema emitted by
/// [`counts_json`]. Bump whenever the field layout changes; consumers
/// (the dns-scaling counts archive and its round-trip test) check it on
/// read.
///
/// v2 appended the nonblocking-exchange counters `exchange_overlap_us`,
/// `requests_posted`, and `requests_completed` to every counter block
/// (see BENCHMARKS.md for the overlap accounting they encode).
///
/// v3 appended the campaign-server counters `jobs_submitted`,
/// `jobs_preempted`, `jobs_resumed`, and `queue_wait_us` (queue/
/// preemption accounting for `dns-server`).
///
/// v4 added the top-level `"tenants"` block: counter totals attributed
/// to campaign-server tenants through
/// [`count_tenant`](crate::count_tenant), keyed by tenant name in
/// sorted order (empty object outside server contexts). The same
/// per-tenant totals back the `tenant="…"` labels in the Prometheus
/// rendering ([`crate::prom`]).
///
/// v5 appended the `stats_samples` counter: plane-statistics samples
/// folded into the time-averaged turbulence-statistics accumulator
/// (the `dns-validate` science gate's averaging window). v4 documents
/// parse unchanged — the counter simply reads 0.
pub const COUNTS_SCHEMA_VERSION: u64 = 5;

/// Run description embedded in a [`counts_json`] document so a counts
/// file is self-describing: which workload produced it, at what grid,
/// rank count, and thread count.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CountsMeta {
    /// Workload label, e.g. `"rk3_step"` or `"pfft_cycle"`.
    pub bench: String,
    /// Grid points in x (streamwise).
    pub nx: usize,
    /// Grid points in y (wall-normal).
    pub ny: usize,
    /// Grid points in z (spanwise).
    pub nz: usize,
    /// minimpi ranks the workload ran on.
    pub ranks: usize,
    /// FFT worker threads per rank.
    pub threads: usize,
    /// Measured steps (or cycles) the counters cover.
    pub steps: usize,
}

/// Seconds per [`Phase`], indexed by it: the one per-phase seconds type
/// of the workspace — a rank's [`PhaseClock`](crate::PhaseClock), a
/// span snapshot's attribution, a measured or modelled row of Tables
/// 9-10 (where `other` stays 0).
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct PhaseSeconds {
    /// Global transposes: pack + exchange + unpack.
    pub transpose: f64,
    /// FFTs including dealias pad/truncate and the fused products.
    pub fft: f64,
    /// Navier-Stokes advance (banded solves in y).
    pub ns_advance: f64,
    /// Everything else.
    pub other: f64,
}

impl PhaseSeconds {
    fn from_fn(f: impl Fn(Phase) -> f64) -> Self {
        PhaseSeconds {
            transpose: f(Phase::Transpose),
            fft: f(Phase::Fft),
            ns_advance: f(Phase::NsAdvance),
            other: f(Phase::Other),
        }
    }

    pub fn total(&self) -> f64 {
        self.transpose + self.fft + self.ns_advance + self.other
    }

    /// `f` of every phase.
    pub fn map(self, f: impl Fn(f64) -> f64) -> Self {
        Self::from_fn(|p| f(self[p]))
    }

    /// Per-phase maximum (the critical path over ranks).
    pub fn max(self, other: Self) -> Self {
        Self::from_fn(|p| self[p].max(other[p]))
    }
}

impl Index<Phase> for PhaseSeconds {
    type Output = f64;

    fn index(&self, phase: Phase) -> &f64 {
        match phase {
            Phase::Transpose => &self.transpose,
            Phase::Fft => &self.fft,
            Phase::NsAdvance => &self.ns_advance,
            Phase::Other => &self.other,
        }
    }
}

impl IndexMut<Phase> for PhaseSeconds {
    fn index_mut(&mut self, phase: Phase) -> &mut f64 {
        match phase {
            Phase::Transpose => &mut self.transpose,
            Phase::Fft => &mut self.fft,
            Phase::NsAdvance => &mut self.ns_advance,
            Phase::Other => &mut self.other,
        }
    }
}

impl Sub for PhaseSeconds {
    type Output = Self;

    fn sub(self, rhs: Self) -> Self {
        Self::from_fn(|p| self[p] - rhs[p])
    }
}

/// Exclusive (innermost-span) phase attribution in seconds: every instant
/// covered by at least one span is credited to the phase of the
/// *innermost* span active at that instant. This makes the aggregate
/// robust to nesting in both directions — a transpose span containing
/// pack/exchange/unpack children (all tagged `Transpose`) counts its wall
/// time once, and an `Other`-tagged structural wrapper (an RK3 substep
/// span) contributes only the gaps its children don't cover.
///
/// Spans on one thread nest strictly (RAII guards), so a stack sweep over
/// the start-sorted records reconstructs the hierarchy. Records merged
/// from different sessions onto one rank key can overlap imperfectly;
/// the sweep degrades gracefully (an overlapping span is treated as
/// nested until its end).
fn phase_exclusive_seconds(rank: &RankSnapshot) -> PhaseSeconds {
    let mut spans: Vec<&crate::SpanRecord> = rank.spans.iter().collect();
    // start-ordered, outer (longer) span first at equal starts
    spans.sort_by(|a, b| {
        a.start_us
            .total_cmp(&b.start_us)
            .then(b.dur_us.total_cmp(&a.dur_us))
    });
    let mut out = PhaseSeconds::default();
    // (end_us, phase) of the currently open spans, innermost last
    let mut stack: Vec<(f64, Phase)> = Vec::new();
    // time up to which attribution is settled
    let mut cursor = f64::NEG_INFINITY;
    for s in spans {
        let start = s.start_us;
        // close every span ending before this one starts; the time after
        // each close up to the next event belongs to its parent
        while let Some(&(end, phase)) = stack.last() {
            if end > start {
                break;
            }
            if end > cursor {
                out[phase] += end - cursor;
                cursor = end;
            }
            stack.pop();
        }
        if let Some(&(_, phase)) = stack.last() {
            if start > cursor {
                out[phase] += start - cursor;
            }
        }
        cursor = cursor.max(start);
        stack.push((start + s.dur_us, s.phase));
    }
    while let Some((end, phase)) = stack.pop() {
        if end > cursor {
            out[phase] += end - cursor;
            cursor = end;
        }
    }
    out.map(|us| us * 1e-6)
}

impl Snapshot {
    /// Per-rank phase attribution (exclusive / innermost-span, seconds).
    pub fn phase_seconds_per_rank(&self) -> Vec<(Option<usize>, PhaseSeconds)> {
        self.ranks
            .iter()
            .map(|r| (r.rank, phase_exclusive_seconds(r)))
            .collect()
    }

    /// Mean phase seconds across rank tracks. Ranked tracks are averaged;
    /// the unranked driver track is only used when no ranks exist (serial
    /// runs), so hybrid runs aren't skewed by the idle driver.
    pub fn phase_seconds_mean(&self) -> PhaseSeconds {
        let per = self.relevant_phases();
        let n = per.len().max(1) as f64;
        PhaseSeconds::from_fn(|p| per.iter().map(|s| s[p]).sum::<f64>() / n)
    }

    /// Max (critical-path) phase seconds across rank tracks.
    pub fn phase_seconds_max(&self) -> PhaseSeconds {
        let per = self.relevant_phases();
        per.into_iter()
            .fold(PhaseSeconds::default(), PhaseSeconds::max)
    }

    fn relevant_phases(&self) -> Vec<PhaseSeconds> {
        let ranked: Vec<_> = self.ranks.iter().filter(|r| r.rank.is_some()).collect();
        let pick: Vec<&RankSnapshot> = if ranked.is_empty() {
            self.ranks.iter().collect()
        } else {
            ranked
        };
        pick.into_iter().map(phase_exclusive_seconds).collect()
    }

    // -- Chrome trace-event format ------------------------------------------

    /// Serialize as a Chrome trace-event JSON object (open in Perfetto or
    /// `chrome://tracing`). One timeline track (`tid`) per minimpi rank;
    /// the unranked driver thread, if it recorded anything, gets the track
    /// after the highest rank.
    pub fn chrome_trace(&self) -> String {
        let driver_tid = self
            .ranks
            .iter()
            .filter_map(|r| r.rank)
            .map(|r| r + 1)
            .max()
            .unwrap_or(0);
        let mut out = String::with_capacity(4096 + 128 * self.span_count());
        out.push_str("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n");
        out.push_str(
            "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":0,\
             \"args\":{\"name\":\"channel-dns\"}}",
        );
        for r in &self.ranks {
            let (tid, label) = match r.rank {
                Some(rank) => (rank, format!("rank {rank}")),
                None => (driver_tid, "driver".to_string()),
            };
            let _ = write!(
                out,
                ",\n{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":0,\"tid\":{tid},\
                 \"args\":{{\"name\":{}}}}}",
                Quoted(&label)
            );
            for s in &r.spans {
                let _ = write!(
                    out,
                    ",\n{{\"name\":{},\"cat\":{},\"ph\":\"X\",\"ts\":{:.3},\
                     \"dur\":{:.3},\"pid\":0,\"tid\":{tid},\"args\":{{\"depth\":{}}}}}",
                    Quoted(s.name),
                    Quoted(s.phase.label()),
                    s.start_us,
                    s.dur_us,
                    s.depth
                );
            }
        }
        out.push_str("\n]}\n");
        out
    }

    // -- human table --------------------------------------------------------

    /// Human-readable report: per-rank phase seconds, counter totals, and
    /// recorded decisions.
    pub fn phase_table(&self) -> String {
        let mut out = String::new();
        out.push_str("phase seconds (exclusive, innermost span wins, per rank track)\n");
        out.push_str(&format!(
            "{:>8} {:>12} {:>12} {:>12} {:>12} {:>12}\n",
            "rank", "transpose", "fft", "ns_advance", "other", "total"
        ));
        let row = |out: &mut String, label: &str, ps: &PhaseSeconds| {
            out.push_str(&format!(
                "{label:>8} {:>12.6} {:>12.6} {:>12.6} {:>12.6} {:>12.6}\n",
                ps.transpose,
                ps.fft,
                ps.ns_advance,
                ps.other,
                ps.total()
            ));
        };
        for (rank, ps) in self.phase_seconds_per_rank() {
            let label = rank
                .map(|r| r.to_string())
                .unwrap_or_else(|| "driver".into());
            row(&mut out, &label, &ps);
        }
        row(&mut out, "mean", &self.phase_seconds_mean());
        row(&mut out, "max", &self.phase_seconds_max());

        let totals = self.total_counters();
        if !totals.is_zero() {
            out.push_str("\ncounters (summed over ranks)\n");
            for c in Counter::ALL {
                let v = totals.get(c);
                if v != 0 {
                    out.push_str(&format!("{:>16} {v}\n", c.label()));
                }
            }
        }

        let decisions: Vec<_> = self
            .ranks
            .iter()
            .flat_map(|r| r.decisions.iter().map(move |d| (r.rank, d)))
            .collect();
        if !decisions.is_empty() {
            out.push_str("\ndecisions\n");
            for (rank, d) in decisions {
                let label = rank
                    .map(|r| r.to_string())
                    .unwrap_or_else(|| "driver".into());
                out.push_str(&format!("[rank {label}] {}: {}\n", d.topic, d.text));
            }
        }

        let dropped: u64 = self.ranks.iter().map(|r| r.dropped).sum();
        if dropped > 0 {
            out.push_str(&format!(
                "\n({dropped} spans dropped past the per-thread cap)\n"
            ));
        }
        out
    }
}

// -- versioned counts export ------------------------------------------------

fn counters_json(set: &CounterSet) -> String {
    let mut out = String::from("{");
    for (j, c) in Counter::ALL.iter().enumerate() {
        if j > 0 {
            out.push(',');
        }
        out.push_str(&format!("\"{}\":{}", c.label(), set.get(*c)));
    }
    out.push('}');
    out
}

fn phase_counters_json(by_phase: &[CounterSet; NUM_PHASES]) -> String {
    let mut out = String::from("{");
    for (j, p) in Phase::ALL.iter().enumerate() {
        if j > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "\"{}\":{}",
            p.label(),
            counters_json(&by_phase[*p as usize])
        ));
    }
    out.push('}');
    out
}

fn phase_seconds_json(ps: &PhaseSeconds) -> String {
    let mut out = String::from("{");
    for (j, p) in Phase::ALL.iter().enumerate() {
        if j > 0 {
            out.push(',');
        }
        out.push_str(&format!("\"{}\":{:.9}", p.label(), ps[*p]));
    }
    out.push('}');
    out
}

/// Serialize a [`Snapshot`]'s per-phase counters and seconds as a
/// versioned, machine-readable JSON document (schema
/// [`COUNTS_SCHEMA_VERSION`]).
///
/// The output is byte-deterministic for a given snapshot: counters are
/// emitted in [`Counter::ALL`] order (all twenty, zeros included),
/// phases in [`Phase::ALL`] order, and seconds with nine fractional
/// digits. Layout:
///
/// ```json
/// {"schema":3,"kind":"counts",
///  "meta":{"bench":"rk3_step","nx":32,...,"steps":4},
///  "ranks":[{"rank":0,
///            "phase_seconds":{"transpose":...,...},
///            "phase_counters":{"transpose":{"flops":...,...},...},
///            "counters":{"flops":...,...}},...],
///  "totals":{"phase_seconds_mean":{...},"phase_seconds_max":{...},
///            "phase_counters":{...},"counters":{...}}}
/// ```
///
/// `totals.counters` (and `totals.phase_counters`) sum over every rank
/// track; `phase_seconds_mean`/`_max` aggregate the exclusive
/// innermost-span attribution the same way
/// [`Snapshot::phase_seconds_mean`] and [`Snapshot::phase_seconds_max`]
/// do.
pub fn counts_json(snap: &Snapshot, meta: &CountsMeta) -> String {
    let mut out = String::with_capacity(4096);
    let _ = write!(
        out,
        "{{\"schema\":{COUNTS_SCHEMA_VERSION},\"kind\":\"counts\",\"meta\":{{\
         \"bench\":{},\"nx\":{},\"ny\":{},\"nz\":{},\"ranks\":{},\
         \"threads\":{},\"steps\":{}}},\n\"ranks\":[",
        Quoted(&meta.bench),
        meta.nx,
        meta.ny,
        meta.nz,
        meta.ranks,
        meta.threads,
        meta.steps
    );
    for (i, r) in snap.ranks.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let rank = r
            .rank
            .map(|x| x.to_string())
            .unwrap_or_else(|| "null".into());
        let ps = phase_exclusive_seconds(r);
        out.push_str(&format!(
            "\n{{\"rank\":{rank},\"phase_seconds\":{},\"phase_counters\":{},\
             \"counters\":{}}}",
            phase_seconds_json(&ps),
            phase_counters_json(&r.by_phase),
            counters_json(&r.counters)
        ));
    }
    out.push_str(&format!(
        "],\n\"totals\":{{\"phase_seconds_mean\":{},\"phase_seconds_max\":{},\
         \"phase_counters\":{},\"counters\":{}}},\n\"tenants\":{{",
        phase_seconds_json(&snap.phase_seconds_mean()),
        phase_seconds_json(&snap.phase_seconds_max()),
        phase_counters_json(&snap.total_counters_by_phase()),
        counters_json(&snap.total_counters())
    ));
    for (i, (name, set)) in snap.tenants.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "{}:{}", Quoted(name), counters_json(set));
    }
    out.push_str("}}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{CounterSet, Decision, SpanRecord};

    /// Hand-built snapshot with fixed timestamps — exporter output is
    /// fully deterministic on it.
    pub(crate) fn fixture() -> Snapshot {
        let span = |name, phase, start_us: f64, dur_us: f64, depth| SpanRecord {
            name,
            phase,
            start_us,
            dur_us,
            depth,
        };
        let mut c0 = CounterSet::new();
        c0.add(Counter::Flops, 1_000_000);
        c0.add(Counter::MessagesSent, 12);
        c0.add(Counter::CommBytes, 4096);
        let mut by_phase0 = [CounterSet::new(); NUM_PHASES];
        by_phase0[Phase::Fft as usize].add(Counter::Flops, 1_000_000);
        by_phase0[Phase::Transpose as usize].add(Counter::MessagesSent, 12);
        by_phase0[Phase::Transpose as usize].add(Counter::CommBytes, 4096);
        let r0 = RankSnapshot {
            rank: Some(0),
            spans: vec![
                span("rk3_substep", Phase::Other, 0.0, 1000.0, 0),
                span("transpose_xz", Phase::Transpose, 0.0, 400.0, 1),
                span("pack", Phase::Transpose, 0.0, 100.0, 2),
                span("exchange", Phase::Transpose, 100.0, 200.0, 2),
                span("unpack", Phase::Transpose, 300.0, 100.0, 2),
                span("fft_x", Phase::Fft, 400.0, 300.0, 1),
                span("ns_advance", Phase::NsAdvance, 700.0, 300.0, 1),
            ],
            counters: c0,
            by_phase: by_phase0,
            decisions: vec![Decision {
                topic: "transpose.plan",
                text: "alltoall won (1.25x vs pairwise)".into(),
            }],
            dropped: 0,
        };
        let r1 = RankSnapshot {
            rank: Some(1),
            spans: vec![
                span("transpose_xz", Phase::Transpose, 0.0, 500.0, 0),
                span("fft_x", Phase::Fft, 500.0, 250.0, 0),
            ],
            counters: CounterSet::new(),
            by_phase: [CounterSet::new(); NUM_PHASES],
            decisions: vec![],
            dropped: 0,
        };
        Snapshot {
            ranks: vec![r0, r1],
            tenants: vec![],
        }
    }

    #[test]
    fn exclusive_attribution_counts_nested_same_phase_once() {
        let snap = fixture();
        let per = snap.phase_seconds_per_rank();
        let (rank, ps) = &per[0];
        assert_eq!(*rank, Some(0));
        // pack/exchange/unpack nest inside the 400 µs transpose span:
        // transpose time is 400 µs, not 400+100+200+100.
        assert!((ps.transpose - 400e-6).abs() < 1e-12);
        assert!((ps.fft - 300e-6).abs() < 1e-12);
        assert!((ps.ns_advance - 300e-6).abs() < 1e-12);
        // the rk3_substep wrapper (Other) is fully covered by its
        // children, so nothing lands in "other".
        assert!(ps.other.abs() < 1e-12);
    }

    #[test]
    fn wrapper_gaps_land_in_the_wrapper_phase() {
        // a 1000 µs Other wrapper whose only child covers [200, 500):
        // other gets the 700 µs the child doesn't cover.
        let snap = Snapshot {
            ranks: vec![RankSnapshot {
                rank: Some(0),
                spans: vec![
                    SpanRecord {
                        name: "step",
                        phase: Phase::Other,
                        start_us: 0.0,
                        dur_us: 1000.0,
                        depth: 0,
                    },
                    SpanRecord {
                        name: "fft_x",
                        phase: Phase::Fft,
                        start_us: 200.0,
                        dur_us: 300.0,
                        depth: 1,
                    },
                ],
                counters: CounterSet::new(),
                by_phase: [CounterSet::new(); NUM_PHASES],
                decisions: vec![],
                dropped: 0,
            }],
            tenants: vec![],
        };
        let (_, ps) = snap.phase_seconds_per_rank()[0];
        assert!((ps.fft - 300e-6).abs() < 1e-12);
        assert!((ps.other - 700e-6).abs() < 1e-12);
        assert!((ps.total() - 1000e-6).abs() < 1e-12);
    }

    #[test]
    fn mean_and_max_aggregate_over_ranks() {
        let snap = fixture();
        let mean = snap.phase_seconds_mean();
        let max = snap.phase_seconds_max();
        assert!((mean.transpose - (400e-6 + 500e-6) / 2.0).abs() < 1e-12);
        assert!((max.transpose - 500e-6).abs() < 1e-12);
        assert!((max.fft - 300e-6).abs() < 1e-12);
    }

    #[test]
    fn counts_json_escapes_its_strings() {
        let meta = CountsMeta {
            bench: "say \"hi\"\nnewline".into(),
            nx: 16,
            ny: 17,
            nz: 16,
            ranks: 2,
            threads: 1,
            steps: 1,
        };
        let json = counts_json(&fixture(), &meta);
        assert!(json.contains("say \\\"hi\\\"\\nnewline"));
        assert!(json.contains("\"flops\":1000000"));
    }

    #[test]
    fn phase_table_mentions_every_section() {
        let snap = fixture();
        let table = snap.phase_table();
        assert!(table.contains("transpose"));
        assert!(table.contains("mean"));
        assert!(table.contains("max"));
        assert!(table.contains("messages_sent"));
        assert!(table.contains("transpose.plan"));
    }
}
