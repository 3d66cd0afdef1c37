//! The historical perf-regression store (`dns-perfdb`).
//!
//! Every CI run regenerates `BENCH_*.json` and checks them against
//! *this commit's* model — but a slow creep (each commit 5% worse than
//! the last) passes every per-commit gate while losing the paper's
//! scaling story over a month. Chatterjee et al. (PAPERS.md,
//! 1805.07801) built their longitudinal analysis on exactly this kind
//! of archived per-phase timing trajectory. `dns-perfdb` closes the gap:
//!
//! * **ingest** — flatten every numeric leaf of a `BENCH_*.json` into
//!   dotted-path metrics (`rows.0.fused_s`) and append one
//!   [`PerfRecord`] per bench file to an append-only, CRC-sealed JSONL
//!   store keyed by commit (the same `{"crc":…,"rec":…}` framing and
//!   torn-tail tolerance as the campaign server's journal);
//! * **check** — compare the newest commit's metrics against a
//!   **rolling-median baseline** over the preceding `window` commits,
//!   classify each metric's regression *direction* from its name
//!   ([`direction_of`]), and fail (nonzero exit in the binary) when a
//!   directional metric moves past its tolerance;
//! * **report** — emit `PERFDB_report.json` with every regression and
//!   the top movers, regression or not.
//!
//! Tolerances and the window policy are documented in BENCHMARKS.md;
//! they are deliberately loose (wall-clock on shared CI is noisy) —
//! the store exists to catch 2x cliffs and monotone creep, not 3%
//! jitter.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

use dns_json::Json;
use dns_resilience::{append_line, frame, open_journal, read_journal, unframe};

/// Baseline window: the median over up to this many prior commits.
pub const DEFAULT_WINDOW: usize = 5;

/// All metrics harvested from one bench artifact at one commit.
#[derive(Clone, Debug, PartialEq)]
pub struct PerfRecord {
    /// Commit id (any stable string key; CI passes the git SHA).
    pub commit: String,
    /// Bench name, e.g. `fusion` (from `BENCH_fusion.json`).
    pub bench: String,
    /// Flattened numeric leaves, dotted-path key → value.
    pub metrics: BTreeMap<String, f64>,
}

impl PerfRecord {
    /// Canonical JSON of the record body (the CRC is computed over this
    /// exact byte sequence, re-derived on load like the job journal).
    fn rec_json(&self) -> Json {
        let mut m = Json::obj();
        for (k, v) in &self.metrics {
            m = m.put(k.clone(), Json::num(*v));
        }
        Json::obj()
            .put("commit", Json::str(&self.commit))
            .put("bench", Json::str(&self.bench))
            .put("metrics", m.build())
            .build()
    }

    /// One store line: `{"crc":C,"rec":{…}}`.
    pub fn to_line(&self) -> String {
        frame(&self.rec_json().dump())
    }

    /// Decode and CRC-verify one store line.
    pub fn from_line(line: &str) -> Option<PerfRecord> {
        let rec = unframe(line)?;
        let mut metrics = BTreeMap::new();
        if let Json::Obj(map) = rec.get("metrics")? {
            for (k, mv) in map {
                metrics.insert(k.clone(), mv.as_f64()?);
            }
        }
        Some(PerfRecord {
            commit: rec.get("commit")?.as_str()?.to_string(),
            bench: rec.get("bench")?.as_str()?.to_string(),
            metrics,
        })
    }
}

/// Flatten every numeric leaf of a JSON document into dotted-path
/// metrics: objects contribute their key, arrays their index
/// (`rows.0.fused_s`). Strings and booleans are skipped.
pub fn flatten_metrics(v: &Json, prefix: &str, out: &mut BTreeMap<String, f64>) {
    match v {
        Json::Num(n) => {
            out.insert(prefix.to_string(), *n);
        }
        Json::Obj(map) => {
            for (k, child) in map {
                let path = if prefix.is_empty() {
                    k.clone()
                } else {
                    format!("{prefix}.{k}")
                };
                flatten_metrics(child, &path, out);
            }
        }
        Json::Arr(items) => {
            for (i, child) in items.iter().enumerate() {
                let path = if prefix.is_empty() {
                    i.to_string()
                } else {
                    format!("{prefix}.{i}")
                };
                flatten_metrics(child, &path, out);
            }
        }
        _ => {}
    }
}

/// Build a [`PerfRecord`] from a bench artifact on disk. The bench name
/// comes from the artifact's `"bench"` field when present, else from
/// the file stem with a `BENCH_` prefix stripped.
pub fn ingest_bench_file(commit: &str, path: &Path) -> std::io::Result<PerfRecord> {
    let text = std::fs::read_to_string(path)?;
    let v = dns_json::parse(&text).map_err(|e| {
        std::io::Error::new(
            std::io::ErrorKind::InvalidData,
            format!("{}: {e}", path.display()),
        )
    })?;
    let bench = v
        .get("bench")
        .and_then(Json::as_str)
        .map(|s| s.to_string())
        .unwrap_or_else(|| {
            path.file_stem()
                .and_then(|s| s.to_str())
                .unwrap_or("bench")
                .trim_start_matches("BENCH_")
                .to_string()
        });
    let mut metrics = BTreeMap::new();
    flatten_metrics(&v, "", &mut metrics);
    Ok(PerfRecord {
        commit: commit.to_string(),
        bench,
        metrics,
    })
}

/// The append-only store: records in ingest order, commits ordered by
/// first appearance.
pub struct PerfDb {
    path: PathBuf,
    records: Vec<PerfRecord>,
}

impl PerfDb {
    /// Open (or create) a store, replaying valid lines. Replay stops at
    /// the first corrupt/torn line — everything before it stays usable,
    /// exactly like the campaign journal.
    pub fn load(path: impl Into<PathBuf>) -> std::io::Result<PerfDb> {
        let path = path.into();
        let (records, _torn_tail) = read_journal(&path, PerfRecord::from_line)?;
        Ok(PerfDb { path, records })
    }

    /// Append one record durably (written and flushed before returning).
    pub fn append(&mut self, rec: PerfRecord) -> std::io::Result<()> {
        append_line(&mut open_journal(&self.path)?, &rec.to_line())?;
        self.records.push(rec);
        Ok(())
    }

    /// All records, ingest order.
    pub fn records(&self) -> &[PerfRecord] {
        &self.records
    }

    /// Commits in first-appearance order (the trajectory axis).
    pub fn commits(&self) -> Vec<String> {
        let mut seen = Vec::new();
        for r in &self.records {
            if !seen.contains(&r.commit) {
                seen.push(r.commit.clone());
            }
        }
        seen
    }
}

/// Which way a metric regresses, classified from its name.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Direction {
    /// Times, traffic, error: growing is a regression.
    HigherWorse,
    /// Speedups, fairness, overlap fractions: shrinking is a regression.
    LowerWorse,
    /// Shape/config values (grid sizes, counts, schema): never gate.
    Neutral,
}

/// Classify a dotted metric path. Suffix/substring rules, documented in
/// BENCHMARKS.md: durations (`_s`, `_seconds`, `_us`), byte traffic,
/// and relative error are higher-is-worse; `speedup`, `fairness`,
/// `reduction`, and `overlap_frac` are lower-is-worse; everything else
/// (grid dims, core counts, schema tags) is neutral and never gates.
pub fn direction_of(metric: &str) -> Direction {
    let leaf = metric.rsplit('.').next().unwrap_or(metric);
    if leaf.ends_with("_s")
        || leaf.ends_with("_seconds")
        || leaf.ends_with("_us")
        || leaf.ends_with("_bytes")
        || leaf == "err_rel"
    {
        return Direction::HigherWorse;
    }
    if leaf.contains("speedup")
        || leaf.contains("fairness")
        || leaf.contains("reduction")
        || leaf.contains("overlap_frac")
    {
        return Direction::LowerWorse;
    }
    Direction::Neutral
}

/// Relative tolerance for a metric: how far past the rolling baseline
/// it may move (in its bad direction) before the check fails.
pub fn tolerance_of(metric: &str) -> f64 {
    match direction_of(metric) {
        // wall-clock on shared CI is noisy; gate cliffs, not jitter
        Direction::HigherWorse => 0.5,
        Direction::LowerWorse => 0.3,
        Direction::Neutral => f64::INFINITY,
    }
}

/// One metric's comparison against its rolling baseline.
#[derive(Clone, Debug)]
pub struct Delta {
    /// `bench/dotted.path`.
    pub metric: String,
    /// Candidate-commit value.
    pub value: f64,
    /// Rolling median over the baseline window.
    pub baseline: f64,
    /// `(value - baseline) / |baseline|` (0 when the baseline is 0).
    pub rel_change: f64,
    /// Regression direction class of this metric.
    pub direction: Direction,
    /// Tolerance applied.
    pub tolerance: f64,
    /// True when the move exceeds the tolerance in the bad direction.
    pub regressed: bool,
}

/// Result of checking one commit against its baseline window.
pub struct Report {
    /// The commit checked.
    pub commit: String,
    /// Prior commits that formed the baseline (newest last).
    pub baseline_commits: Vec<String>,
    /// Directional metrics compared (neutral metrics are skipped).
    pub deltas: Vec<Delta>,
    /// The subset of `deltas` that regressed.
    pub regressions: Vec<Delta>,
}

fn median(xs: &mut [f64]) -> f64 {
    xs.sort_by(|a, b| a.total_cmp(b));
    let n = xs.len();
    if n % 2 == 1 {
        xs[n / 2]
    } else {
        0.5 * (xs[n / 2 - 1] + xs[n / 2])
    }
}

/// Check `commit` (default: the newest) against the rolling baseline
/// over up to `window` prior commits. Metrics with no prior history are
/// skipped — a brand-new bench cannot regress.
pub fn check(db: &PerfDb, commit: Option<&str>, window: usize) -> Option<Report> {
    let commits = db.commits();
    let commit = match commit {
        Some(c) => c.to_string(),
        None => commits.last()?.clone(),
    };
    let pos = commits.iter().position(|c| *c == commit)?;
    let base_start = pos.saturating_sub(window);
    let baseline_commits: Vec<String> = commits[base_start..pos].to_vec();

    // candidate metrics: bench/path → value (later records win)
    let mut candidate: BTreeMap<String, f64> = BTreeMap::new();
    for r in db.records().iter().filter(|r| r.commit == commit) {
        for (k, v) in &r.metrics {
            candidate.insert(format!("{}/{k}", r.bench), *v);
        }
    }
    // history: bench/path → values across the window, commit order
    let mut history: BTreeMap<String, Vec<f64>> = BTreeMap::new();
    for c in &baseline_commits {
        for r in db.records().iter().filter(|r| r.commit == *c) {
            for (k, v) in &r.metrics {
                history
                    .entry(format!("{}/{k}", r.bench))
                    .or_default()
                    .push(*v);
            }
        }
    }

    let mut deltas = Vec::new();
    for (metric, value) in &candidate {
        let direction = direction_of(metric);
        if direction == Direction::Neutral {
            continue;
        }
        let Some(hist) = history.get(metric) else {
            continue;
        };
        let mut hist = hist.clone();
        let baseline = median(&mut hist);
        let rel_change = if baseline != 0.0 {
            (value - baseline) / baseline.abs()
        } else {
            0.0
        };
        let tolerance = tolerance_of(metric);
        let regressed = match direction {
            Direction::HigherWorse => rel_change > tolerance,
            Direction::LowerWorse => rel_change < -tolerance,
            Direction::Neutral => false,
        };
        deltas.push(Delta {
            metric: metric.clone(),
            value: *value,
            baseline,
            rel_change,
            direction,
            tolerance,
            regressed,
        });
    }
    let regressions: Vec<Delta> = deltas.iter().filter(|d| d.regressed).cloned().collect();
    Some(Report {
        commit,
        baseline_commits,
        deltas,
        regressions,
    })
}

fn delta_json(d: &Delta) -> Json {
    Json::obj()
        .put("metric", Json::str(&d.metric))
        .put("value", Json::num(d.value))
        .put("baseline", Json::num(d.baseline))
        .put("rel_change", Json::num(d.rel_change))
        .put(
            "direction",
            Json::str(match d.direction {
                Direction::HigherWorse => "higher_worse",
                Direction::LowerWorse => "lower_worse",
                Direction::Neutral => "neutral",
            }),
        )
        .put("tolerance", Json::num(d.tolerance))
        .put("regressed", Json::Bool(d.regressed))
        .build()
}

/// Render `PERFDB_report.json`: verdict, every regression, and the top
/// movers (largest bad-direction relative change, regressed or not).
pub fn report_json(rep: &Report, window: usize) -> String {
    let mut movers: Vec<&Delta> = rep.deltas.iter().collect();
    movers.sort_by(|a, b| {
        let bad = |d: &Delta| match d.direction {
            Direction::HigherWorse => d.rel_change,
            Direction::LowerWorse => -d.rel_change,
            Direction::Neutral => 0.0,
        };
        bad(b).total_cmp(&bad(a))
    });
    let top: Vec<Json> = movers.iter().take(10).map(|d| delta_json(d)).collect();
    let regs: Vec<Json> = rep.regressions.iter().map(delta_json).collect();
    let base: Vec<Json> = rep
        .baseline_commits
        .iter()
        .map(|c| Json::str(c.clone()))
        .collect();
    Json::obj()
        .put("schema", Json::num(1))
        .put("kind", Json::str("perfdb_report"))
        .put("commit", Json::str(&rep.commit))
        .put("window", Json::num(window as u32))
        .put("baseline_commits", Json::Arr(base))
        .put("metrics_checked", Json::num(rep.deltas.len() as f64))
        .put("regressions", Json::Arr(regs))
        .put("top_movers", Json::Arr(top))
        .put("ok", Json::Bool(rep.regressions.is_empty()))
        .build()
        .dump()
        + "\n"
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Write;

    fn rec(commit: &str, bench: &str, pairs: &[(&str, f64)]) -> PerfRecord {
        PerfRecord {
            commit: commit.into(),
            bench: bench.into(),
            metrics: pairs.iter().map(|(k, v)| (k.to_string(), *v)).collect(),
        }
    }

    #[test]
    fn record_lines_round_trip_and_reject_corruption() {
        let r = rec(
            "abc",
            "fusion",
            &[("rows.0.fused_s", 1.5), ("rows.0.speedup", 4.0)],
        );
        let line = r.to_line();
        assert_eq!(PerfRecord::from_line(&line), Some(r));
        let tampered = line.replace("1.5", "9.5");
        assert_eq!(PerfRecord::from_line(&tampered), None);
        assert_eq!(PerfRecord::from_line("garbage"), None);
    }

    #[test]
    fn flatten_walks_objects_and_arrays() {
        let v = dns_json::parse(
            "{\"bench\":\"x\",\"grid\":{\"nx\":8},\"rows\":[{\"t_s\":0.5},{\"t_s\":0.25}]}",
        )
        .unwrap();
        let mut out = BTreeMap::new();
        flatten_metrics(&v, "", &mut out);
        assert_eq!(out.get("grid.nx"), Some(&8.0));
        assert_eq!(out.get("rows.0.t_s"), Some(&0.5));
        assert_eq!(out.get("rows.1.t_s"), Some(&0.25));
        assert!(!out.contains_key("bench"), "strings are not metrics");
    }

    #[test]
    fn direction_classification() {
        assert_eq!(direction_of("rows.0.fused_s"), Direction::HigherWorse);
        assert_eq!(direction_of("a.exchange_wait_us"), Direction::HigherWorse);
        assert_eq!(direction_of("x.ddr_bytes"), Direction::HigherWorse);
        assert_eq!(
            direction_of("sections.0.rows.1.err_rel"),
            Direction::HigherWorse
        );
        assert_eq!(direction_of("rows.0.speedup"), Direction::LowerWorse);
        assert_eq!(direction_of("jain_fairness"), Direction::LowerWorse);
        assert_eq!(direction_of("grid.nx"), Direction::Neutral);
        assert_eq!(direction_of("rows.0.threads"), Direction::Neutral);
        assert_eq!(direction_of("schema"), Direction::Neutral);
    }

    #[test]
    fn rolling_median_check_flags_2x_regression() {
        let dir = std::env::temp_dir().join(format!("perfdb-test-{}", std::process::id()));
        let path = dir.join("perf.jsonl");
        let _ = std::fs::remove_file(&path);
        let mut db = PerfDb::load(&path).unwrap();
        // five healthy commits around 1.0s, then a 2x cliff
        for (i, t) in [1.00, 1.05, 0.95, 1.02, 0.98].iter().enumerate() {
            db.append(rec(
                &format!("c{i}"),
                "fusion",
                &[("rows.0.fused_s", *t), ("rows.0.speedup", 4.0)],
            ))
            .unwrap();
        }
        db.append(rec(
            "bad",
            "fusion",
            &[("rows.0.fused_s", 2.0), ("rows.0.speedup", 2.0)],
        ))
        .unwrap();
        let rep = check(&db, None, DEFAULT_WINDOW).unwrap();
        assert_eq!(rep.commit, "bad");
        assert_eq!(rep.baseline_commits.len(), 5);
        let names: Vec<&str> = rep.regressions.iter().map(|d| d.metric.as_str()).collect();
        assert!(
            names.contains(&"fusion/rows.0.fused_s"),
            "2x time cliff must regress: {names:?}"
        );
        assert!(
            names.contains(&"fusion/rows.0.speedup"),
            "halved speedup must regress: {names:?}"
        );
        // the healthy trajectory passes: re-check commit c4 against c0..c3
        let prev = check(&db, Some("c4"), DEFAULT_WINDOW).unwrap();
        assert!(prev.regressions.is_empty(), "{:?}", prev.regressions);
        // report renders and parses
        let text = report_json(&rep, DEFAULT_WINDOW);
        let v = dns_json::parse(text.trim()).unwrap();
        assert_eq!(v.get("ok").and_then(Json::as_bool), Some(false));
        assert!(v.get("regressions").and_then(Json::as_arr).unwrap().len() >= 2);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn store_survives_reload_and_torn_tail() {
        let dir = std::env::temp_dir().join(format!("perfdb-torn-{}", std::process::id()));
        let path = dir.join("perf.jsonl");
        let _ = std::fs::remove_file(&path);
        {
            let mut db = PerfDb::load(&path).unwrap();
            db.append(rec("a", "x", &[("t_s", 1.0)])).unwrap();
            db.append(rec("b", "x", &[("t_s", 1.1)])).unwrap();
        }
        // torn tail: a partial line from a crashed writer
        {
            let mut f = std::fs::OpenOptions::new()
                .append(true)
                .open(&path)
                .unwrap();
            f.write_all(b"{\"crc\":12,\"rec\":{\"comm").unwrap();
        }
        let db = PerfDb::load(&path).unwrap();
        assert_eq!(db.records().len(), 2, "valid prefix survives");
        assert_eq!(db.commits(), ["a", "b"]);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn new_metrics_do_not_gate() {
        let dir = std::env::temp_dir().join(format!("perfdb-new-{}", std::process::id()));
        let path = dir.join("perf.jsonl");
        let _ = std::fs::remove_file(&path);
        let mut db = PerfDb::load(&path).unwrap();
        db.append(rec("only", "fresh", &[("t_s", 99.0)])).unwrap();
        let rep = check(&db, None, DEFAULT_WINDOW).unwrap();
        assert!(rep.deltas.is_empty());
        assert!(rep.regressions.is_empty());
        let _ = std::fs::remove_dir_all(&dir);
    }
}
