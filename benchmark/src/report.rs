//! The metric registry (names and units, mirrored by `BENCHMARK.json`) and
//! the per-run report that is printed by name and ends in the one-line
//! JSON result.

use std::collections::BTreeMap;

use dns_json::Json;

pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    /// `"lower"` or `"higher"`.
    pub better: &'static str,
}

const fn m(name: &'static str, unit: &'static str, better: &'static str) -> Metric {
    Metric { name, unit, better }
}

/// What a user of the system sees. One unit operation per workload (see
/// README.md): an RK3 step, a transform cycle, a job launch, a preemption
/// round trip, a `/metrics` scrape.
pub const END_TO_END: &[Metric] = &[
    m("op_s", "s", "lower"),
    m("wall_per_op_s", "s", "lower"),
    m("setup_s", "s", "lower"),
    m("peak_rss_mb", "MB", "lower"),
];

/// Single layers, named `<crate>.<module>.<what>`. A layer that is not on
/// a workload's path reports 0 there.
pub const PER_LAYER: &[Metric] = &[
    m("fft.rfft_line_ns", "ns", "lower"),
    m("fft.cfft_line_ns", "ns", "lower"),
    m("fft.flops_per_step", "count", "lower"),
    m("banded.solve_panel_s", "s", "lower"),
    m("banded.solve_rhs_per_step", "count", "lower"),
    m("core.wallnormal.advance_panel_s", "s", "lower"),
    m("pencil.transpose_a_s", "s", "lower"),
    m("pencil.transpose_b_s", "s", "lower"),
    m("pencil.ddr_bytes_per_step", "B", "lower"),
    m("pencil.strategy", "count", "lower"),
    m("minimpi.messages_per_step", "count", "lower"),
    m("minimpi.comm_bytes_per_step", "B", "lower"),
    m("minimpi.recv_retries", "count", "lower"),
    m("minimpi.exchange_wait_s_per_step", "s", "lower"),
    m("minimpi.exchange_overlap_s_per_step", "s", "higher"),
    m("minimpi.alltoall_s", "s", "lower"),
    m("pfft.nonlinear_products_s", "s", "lower"),
    m("pfft.cycle_s", "s", "lower"),
    m("pfft.plan_s", "s", "lower"),
    m("pfft.buffer_bytes", "B", "lower"),
    m("pfft.timers.transpose_s_per_step", "s", "lower"),
    m("pfft.timers.fft_s_per_step", "s", "lower"),
    m("core.timers.ns_advance_s_per_step", "s", "lower"),
    m("core.nonlinear_s", "s", "lower"),
    m("core.nonlinear.self_s", "s", "lower"),
    m("core.advance_s", "s", "lower"),
    m("core.step.unattributed_frac", "ratio", "lower"),
    m("core.step.allocs", "count", "lower"),
    m("core.step.alloc_bytes", "B", "lower"),
    m("core.step_p90_s", "s", "lower"),
    m("core.stats.sample_s", "s", "lower"),
    m("core.health.between_steps_s", "s", "lower"),
    m("core.checkpoint.write_s", "s", "lower"),
    m("core.checkpoint.bytes", "B", "lower"),
    m("core.checkpoint.restore_s", "s", "lower"),
    m("core.solver.new_s", "s", "lower"),
    m("core.run.spec_roundtrip_us", "us", "lower"),
    m("telemetry.overhead_frac", "ratio", "lower"),
    m("telemetry.snapshot_us", "us", "lower"),
    m("json.parse_mb_per_s", "MB/s", "higher"),
    m("server.scheduler.submit_us", "us", "lower"),
    m("server.scheduler.plan_us", "us", "lower"),
    m("server.journal.append_us", "us", "lower"),
    m("server.journal.replay_ms", "ms", "lower"),
    m("server.metrics.render_us", "us", "lower"),
    m("server.http.parse_us", "us", "lower"),
    m("server.proto.submit_rtt_s", "s", "lower"),
    m("server.proto.status_rtt_s", "s", "lower"),
    m("server.daemon.jobs_preempted", "count", "lower"),
    m("server.daemon.jobs_resumed", "count", "lower"),
    m("server.daemon.queue_wait_p50_s", "s", "lower"),
    m("server.submit_to_first_step_s", "s", "lower"),
    m("server.preempt_to_paused_s", "s", "lower"),
    m("server.resume_to_first_step_s", "s", "lower"),
    m("server.jobs_per_s", "1/s", "higher"),
    m("server.metrics_scrape_s", "s", "lower"),
    m("server.jobs_scrape_s", "s", "lower"),
];

/// Counts that must repeat exactly between two runs of the same code and
/// seed (`--selfcheck` compares them bit for bit).
pub const EXACT_COUNTS: &[&str] = &[
    "fft.flops_per_step",
    "banded.solve_rhs_per_step",
    "pencil.ddr_bytes_per_step",
    "minimpi.messages_per_step",
    "minimpi.comm_bytes_per_step",
];

pub fn registry(trace: bool) -> &'static [Metric] {
    if trace {
        PER_LAYER
    } else {
        END_TO_END
    }
}

/// One run's findings: the metrics of its mode, sample counts, operations
/// attempted and failed, and free-form extras that go to the printed
/// table and the out file but not into the contract line.
pub struct Report {
    trace: bool,
    values: BTreeMap<&'static str, f64>,
    samples: BTreeMap<&'static str, usize>,
    pub extras: Vec<(String, f64, &'static str)>,
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
}

impl Report {
    pub fn new(trace: bool) -> Report {
        Report {
            trace,
            values: BTreeMap::new(),
            samples: BTreeMap::new(),
            extras: Vec::new(),
            attempted: 0,
            failed: 0,
            failures: Vec::new(),
        }
    }

    pub fn is_trace(&self) -> bool {
        self.trace
    }

    /// Set a registered metric of this run's mode. A metric of the other
    /// mode is ignored, so workload code states everything it measured
    /// and the mode picks; an unregistered name is a bug.
    pub fn set(&mut self, name: &str, value: f64) {
        self.store(name, value, None);
    }

    /// [`Report::set`] with the number of samples behind the value.
    pub fn set_n(&mut self, name: &str, value: f64, n: usize) {
        self.store(name, value, Some(n));
    }

    fn store(&mut self, name: &str, value: f64, n: Option<usize>) {
        let Some(def) = registry(self.trace).iter().find(|d| d.name == name) else {
            let other = registry(!self.trace);
            assert!(
                other.iter().any(|d| d.name == name),
                "metric {name} is not in the registry"
            );
            return;
        };
        self.values.insert(def.name, value);
        if let Some(n) = n {
            self.samples.insert(def.name, n);
        }
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.values.get(name).copied()
    }

    pub fn extra(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.extras.push((name.into(), value, unit));
    }

    /// Count `n` operations attempted, `failed` of them failed.
    pub fn ops(&mut self, n: u64, failed: u64, what: &str) {
        self.attempted += n;
        self.failed += failed;
        if failed > 0 {
            self.failures.push(format!("{failed}/{n} {what}"));
        }
    }

    /// One correctness check: an attempted operation that fails when `ok`
    /// is false.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.failures.push(what());
        }
    }

    /// Every metric of the mode, by registry order; unset per-layer
    /// metrics read 0 (layer not on this workload's path).
    pub fn metrics(&self) -> Vec<(&'static Metric, f64, Option<usize>)> {
        registry(self.trace)
            .iter()
            .map(|d| {
                let v = self.values.get(d.name).copied().unwrap_or(0.0);
                (d, v, self.samples.get(d.name).copied())
            })
            .collect()
    }

    fn metrics_json(&self) -> Json {
        let mut b = Json::obj();
        for (d, v, _) in self.metrics() {
            let cell = Json::obj()
                .put("value", Json::Num(v))
                .put("unit", Json::str(d.unit))
                .build();
            b = b.put(d.name, cell);
        }
        b.build()
    }

    /// The result line the driver reads: exactly `correct`, `attempted`,
    /// `failed`, `metrics`.
    pub fn result_line(&self) -> String {
        Json::obj()
            .put("correct", Json::Bool(self.failed == 0))
            .put("attempted", Json::Num(self.attempted.max(1) as f64))
            .put("failed", Json::Num(self.failed as f64))
            .put("metrics", self.metrics_json())
            .build()
            .dump()
    }

    /// Human table: every metric by name with unit and sample count.
    pub fn table(&self) -> String {
        let mut out = String::new();
        for (d, v, n) in self.metrics() {
            let n = n.map_or(String::new(), |n| format!("  (n={n})"));
            let line = format!("  {:<40} {:>16.6e} {:<6}", d.name, v, d.unit);
            out += &format!("{line} {} is better{n}\n", d.better);
        }
        for (name, v, unit) in &self.extras {
            out += &format!("  {:<40} {:>16.6e} {unit}  (extra)\n", name, v);
        }
        out += &format!(
            "  failed {} of {} operations\n",
            self.failed,
            self.attempted.max(1)
        );
        for f in &self.failures {
            out += &format!("  FAILED: {f}\n");
        }
        out
    }

    /// Flat numeric leaves (`dns-perfdb ingest` reads this unchanged).
    pub fn flat_json(&self, workload: &str, host: Json) -> Json {
        let mut b = Json::obj()
            .put("kind", Json::str("bench_step_run"))
            .put("workload", Json::str(workload))
            .put("trace", Json::Bool(self.trace))
            .put("host", host)
            .put("attempted", Json::Num(self.attempted.max(1) as f64))
            .put("failed", Json::Num(self.failed as f64));
        for (d, v, n) in self.metrics() {
            b = b.put(d.name, Json::Num(v));
            if let Some(n) = n {
                b = b.put(format!("{}.n", d.name), Json::Num(n as f64));
            }
        }
        for (name, v, _) in &self.extras {
            b = b.put(name.as_str(), Json::Num(*v));
        }
        b.build()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `BENCHMARK.json` and the registry must name the same metrics with
    /// the same units, and the file must satisfy the driver's contract.
    #[test]
    fn benchmark_json_mirrors_the_registry() {
        let v = dns_json::parse(include_str!("../../BENCHMARK.json")).unwrap();
        for (key, reg) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
            let listed = v.get(key).and_then(Json::as_arr).unwrap();
            assert_eq!(listed.len(), reg.len(), "{key} length");
            for (j, d) in listed.iter().zip(reg) {
                assert_eq!(j.get("name").and_then(Json::as_str), Some(d.name));
                assert_eq!(j.get("unit").and_then(Json::as_str), Some(d.unit));
                assert_eq!(j.get("better").and_then(Json::as_str), Some(d.better));
                let bound = j.get("bound").and_then(Json::as_f64);
                if key == "end_to_end" {
                    assert!(bound.is_some_and(|b| b > 0.0 && b <= 0.25), "{}", d.name);
                } else {
                    assert!(bound.is_none(), "{}", d.name);
                }
            }
        }
        let listed: Vec<&str> = v
            .get("workloads")
            .and_then(Json::as_arr)
            .unwrap()
            .iter()
            .map(|w| w.get("name").and_then(Json::as_str).unwrap())
            .collect();
        assert_eq!(listed, crate::LISTED);
        assert!(listed.iter().all(|w| crate::WORKLOADS.contains(w)));
        for name in EXACT_COUNTS {
            assert!(PER_LAYER.iter().any(|d| d.name == *name));
        }
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys_and_every_metric() {
        for trace in [false, true] {
            let mut r = Report::new(trace);
            r.set_n("op_s", 0.125, 60);
            r.set("fft.rfft_line_ns", 321.0);
            r.ops(60, 0, "steps");
            r.check(true, || unreachable!());
            let v = dns_json::parse(&r.result_line()).unwrap();
            let Json::Obj(top) = &v else { panic!() };
            let keys: Vec<&str> = top.keys().map(String::as_str).collect();
            assert_eq!(keys, ["attempted", "correct", "failed", "metrics"]);
            assert_eq!(v.get("attempted").and_then(Json::as_u64), Some(61));
            assert_eq!(v.get("correct").and_then(Json::as_bool), Some(true));
            let Some(Json::Obj(ms)) = v.get("metrics") else {
                panic!()
            };
            assert_eq!(ms.len(), registry(trace).len());
            let probe = if trace { "fft.rfft_line_ns" } else { "op_s" };
            let cell = ms.get(probe).unwrap();
            assert!(cell.get("value").and_then(Json::as_f64).unwrap() > 0.0);
            assert!(cell.get("unit").and_then(Json::as_str).is_some());
        }
    }

    #[test]
    fn a_failed_check_makes_the_run_incorrect() {
        let mut r = Report::new(false);
        r.check(false, || "energy differs".into());
        r.ops(10, 2, "jobs not done");
        assert_eq!((r.attempted, r.failed), (11, 3));
        let v = dns_json::parse(&r.result_line()).unwrap();
        assert_eq!(v.get("correct").and_then(Json::as_bool), Some(false));
        assert!(r.table().contains("FAILED: energy differs"));
    }

    #[test]
    fn flat_json_leaves_are_numeric_and_round_trip() {
        let mut r = Report::new(false);
        r.set_n("op_s", 0.1, 5);
        r.extra("derived.x", 2.0, "ratio");
        let host = Json::obj().put("nproc", Json::num(2)).build();
        let text = r.flat_json("box_1x1", host).dump();
        let v = dns_json::parse(&text).unwrap();
        assert_eq!(v.get("op_s").and_then(Json::as_f64), Some(0.1));
        assert_eq!(v.get("op_s.n").and_then(Json::as_u64), Some(5));
        assert_eq!(v.get("derived.x").and_then(Json::as_f64), Some(2.0));
        assert_eq!(v.dump(), text);
    }
}
