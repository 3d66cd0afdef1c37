//! Per-tenant aggregation: the fairness ledger of the campaign server.
//!
//! PR 8 made the scheduler multi-tenant (quota caps, priority-with-aging,
//! preemption) but its accounting was write-only: `QueueWaitUs` landed in
//! the global telemetry registry with no per-owner attribution, so "is
//! tenant B starving?" had no answer. This module keeps one
//! [`TenantStats`] per tenant — mergeable [`Histogram`]s of queue wait
//! and run duration, preemption/launch counts, and delivered
//! core-seconds — and computes the **Jain fairness index** over delivered
//! core-seconds:
//!
//! ```text
//!   J = (Σ xᵢ)² / (n · Σ xᵢ²)      xᵢ = core-seconds delivered to tenant i
//! ```
//!
//! `J = 1` is perfectly even delivery; `J = 1/n` is one tenant hogging
//! everything. The daemon feeds this table at scheduling events (launch,
//! preempt, every pass of its loop) and the facade surfaces it through `/metrics`,
//! `/api/v1/tenants`, and the `dns-cli tenants` table.

use std::collections::BTreeMap;

use dns_json::Json;
use dns_telemetry::Histogram;

/// Aggregated delivery and latency statistics for one tenant.
#[derive(Default)]
pub struct TenantStats {
    /// Queue wait (submission or preemption until cores handed over), in
    /// seconds, one sample per launch.
    pub queue_wait: Histogram,
    /// Completed-run wall durations in seconds, one sample per job that
    /// reached a terminal state.
    pub run_duration: Histogram,
    /// Jobs accepted into the queue.
    pub submitted: u64,
    /// Launches (fresh starts + resumes).
    pub launches: u64,
    /// Times a running job of this tenant was preempted.
    pub preemptions: u64,
    /// Jobs that reached a terminal state (done/failed/cancelled).
    pub finished: u64,
    /// CPU-seconds actually delivered: Σ cores × wall-seconds running,
    /// integrated pass by pass of the daemon loop while jobs hold cores.
    pub core_seconds: f64,
}

/// The per-tenant ledger, keyed by tenant name (sorted iteration, so
/// every rendering of it is deterministic).
#[derive(Default)]
pub struct TenantTable {
    stats: BTreeMap<String, TenantStats>,
}

impl TenantTable {
    /// An empty ledger.
    pub fn new() -> Self {
        Self::default()
    }

    /// Mutable stats slot for `tenant`, created on first touch.
    pub fn entry(&mut self, tenant: &str) -> &mut TenantStats {
        if !self.stats.contains_key(tenant) {
            self.stats
                .insert(tenant.to_string(), TenantStats::default());
        }
        self.stats.get_mut(tenant).unwrap()
    }

    /// Stats for `tenant`, if it was ever seen.
    pub fn get(&self, tenant: &str) -> Option<&TenantStats> {
        self.stats.get(tenant)
    }

    /// True when no tenant has been recorded yet.
    pub fn is_empty(&self) -> bool {
        self.stats.is_empty()
    }

    /// Sorted iteration over `(tenant, stats)`.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &TenantStats)> {
        self.stats.iter().map(|(k, v)| (k.as_str(), v))
    }

    /// Queue-wait histogram merged across every tenant — the cluster-wide
    /// latency distribution behind the `dns-cli status` percentile line.
    pub fn queue_wait_all(&self) -> Histogram {
        let mut all = Histogram::new();
        for s in self.stats.values() {
            all.merge(&s.queue_wait);
        }
        all
    }

    /// Jain fairness index over delivered core-seconds, in `[1/n, 1]`.
    /// Returns 1.0 for zero or one tenant (nothing to be unfair about)
    /// and when no core-seconds have been delivered at all.
    pub fn jain_fairness(&self) -> f64 {
        let xs: Vec<f64> = self.stats.values().map(|s| s.core_seconds).collect();
        jain(&xs)
    }

    /// Canonical JSON for `/api/v1/tenants`: a sorted array of per-tenant
    /// objects plus the fairness index.
    pub fn to_json(&self) -> Json {
        let rows: Vec<Json> = self
            .iter()
            .map(|(name, s)| {
                Json::obj()
                    .put("tenant", Json::str(name))
                    .put("submitted", Json::num(s.submitted as f64))
                    .put("launches", Json::num(s.launches as f64))
                    .put("preemptions", Json::num(s.preemptions as f64))
                    .put("finished", Json::num(s.finished as f64))
                    .put("core_seconds", Json::num(s.core_seconds))
                    .put("queue_wait", hist_json(&s.queue_wait))
                    .put("run_duration", hist_json(&s.run_duration))
                    .build()
            })
            .collect();
        Json::obj()
            .put("tenants", Json::Arr(rows))
            .put("jain_fairness", Json::num(self.jain_fairness()))
            .build()
    }
}

/// Quantile summary of a histogram as canonical JSON
/// (`{count,p50,p90,p99,max}`, seconds).
pub fn hist_json(h: &Histogram) -> Json {
    Json::obj()
        .put("count", Json::num(h.count() as f64))
        .put("p50", Json::num(h.quantile(0.50)))
        .put("p90", Json::num(h.quantile(0.90)))
        .put("p99", Json::num(h.quantile(0.99)))
        .put("max", Json::num(h.max()))
        .build()
}

/// Jain fairness index of a share vector; 1.0 for degenerate inputs
/// (empty, single element, or all-zero).
pub fn jain(xs: &[f64]) -> f64 {
    if xs.len() <= 1 {
        return 1.0;
    }
    let sum: f64 = xs.iter().sum();
    let sumsq: f64 = xs.iter().map(|x| x * x).sum();
    if sumsq <= 0.0 {
        return 1.0;
    }
    (sum * sum) / (xs.len() as f64 * sumsq)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn jain_bounds_and_known_values() {
        assert_eq!(jain(&[]), 1.0);
        assert_eq!(jain(&[5.0]), 1.0);
        assert_eq!(jain(&[0.0, 0.0]), 1.0);
        // perfectly even
        assert!((jain(&[3.0, 3.0, 3.0]) - 1.0).abs() < 1e-12);
        // one tenant hogs everything: J = 1/n
        assert!((jain(&[9.0, 0.0, 0.0]) - 1.0 / 3.0).abs() < 1e-12);
        // 2:1 split of two tenants: (3)^2 / (2*(4+1)) = 0.9
        assert!((jain(&[2.0, 1.0]) - 0.9).abs() < 1e-12);
    }

    #[test]
    fn table_aggregates_and_orders() {
        let mut t = TenantTable::new();
        t.entry("zeta").submitted = 1;
        t.entry("acme").submitted = 2;
        t.entry("acme").queue_wait.record(0.5);
        t.entry("acme").queue_wait.record(1.5);
        t.entry("zeta").queue_wait.record(2.5);
        t.entry("acme").core_seconds = 10.0;
        t.entry("zeta").core_seconds = 10.0;
        let names: Vec<&str> = t.iter().map(|(n, _)| n).collect();
        assert_eq!(names, ["acme", "zeta"], "sorted iteration");
        assert_eq!(t.queue_wait_all().count(), 3);
        assert!((t.jain_fairness() - 1.0).abs() < 1e-12);
        t.entry("zeta").core_seconds = 0.0;
        assert!((t.jain_fairness() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn tenants_json_shape() {
        let mut t = TenantTable::new();
        let s = t.entry("acme");
        s.submitted = 2;
        s.launches = 2;
        s.preemptions = 1;
        s.queue_wait.record(1.0);
        s.core_seconds = 64.0;
        let v = t.to_json();
        let rows = v.get("tenants").and_then(Json::as_arr).unwrap();
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].get("tenant").and_then(Json::as_str), Some("acme"));
        assert_eq!(rows[0].get("preemptions").and_then(Json::as_u64), Some(1));
        let qw = rows[0].get("queue_wait").unwrap();
        assert_eq!(qw.get("count").and_then(Json::as_u64), Some(1));
        assert_eq!(qw.get("p50").and_then(Json::as_f64), Some(1.0));
        assert_eq!(v.get("jain_fairness").and_then(Json::as_f64), Some(1.0));
        // canonical dump round-trips
        let text = v.dump();
        assert!(dns_json::parse(&text).is_ok());
    }
}
