//! Prometheus rendering of campaign-server state for `GET /metrics`.
//!
//! The renderer is a pure function of an explicit [`MetricsView`] — no
//! clocks, no global registries read here — so a fixed view renders to a
//! byte-identical body, which `tests/http_facade.rs` locks with a golden
//! file. The daemon assembles a view from its scheduler, the
//! [`TenantTable`] (`crate::tenants`) ledger, and a
//! `dns-telemetry` counter snapshot on every scrape (the counter axes
//! only, so a scrape costs the same however many jobs the daemon ran).
//!
//! Naming convention (DESIGN.md §10): every family is prefixed `dns_`,
//! the second segment names the subsystem (`server`, `tenant`, or the
//! bare telemetry counter families from `dns_telemetry::prom`),
//! monotonic counters end in `_total`, and durations are histograms in
//! seconds ending in `_seconds`.

use dns_telemetry::prom::{self, PromText};
use dns_telemetry::Snapshot;

use crate::tenants::TenantTable;

/// Everything `/metrics` exposes, gathered at scrape time.
pub struct MetricsView<'a> {
    /// Core budget: schedulable total.
    pub total_cores: usize,
    /// Cores not currently held by a job.
    pub free_cores: usize,
    /// Whether a drain is in effect (no new launches).
    pub draining: bool,
    /// Job counts by scheduler state label, in fixed label order.
    pub jobs_by_state: &'a [(&'static str, usize)],
    /// The per-tenant fairness ledger.
    pub tenants: &'a TenantTable,
    /// Telemetry snapshot (rank + tenant counter axes).
    pub snapshot: &'a Snapshot,
}

/// Render the full Prometheus text body for a view.
pub fn render(view: &MetricsView) -> String {
    let mut p = PromText::new();

    p.header(
        "dns_server_cores",
        "Core budget of the campaign scheduler.",
        "gauge",
    );
    p.sample(
        "dns_server_cores",
        &[("kind", "total")],
        view.total_cores as f64,
    );
    p.sample(
        "dns_server_cores",
        &[("kind", "free")],
        view.free_cores as f64,
    );

    p.header(
        "dns_server_draining",
        "1 while a drain is in effect (checkpoint everything, stop scheduling).",
        "gauge",
    );
    p.sample("dns_server_draining", &[], f64::from(view.draining));

    p.header(
        "dns_server_jobs",
        "Jobs known to the scheduler, by state.",
        "gauge",
    );
    for &(state, n) in view.jobs_by_state {
        p.sample("dns_server_jobs", &[("state", state)], n as f64);
    }

    p.header(
        "dns_server_jain_fairness",
        "Jain fairness index over delivered per-tenant core-seconds (1 = even).",
        "gauge",
    );
    p.sample(
        "dns_server_jain_fairness",
        &[],
        view.tenants.jain_fairness(),
    );

    p.header(
        "dns_tenant_jobs_total",
        "Per-tenant scheduling events: submitted, launched, preempted, finished.",
        "counter",
    );
    for (name, s) in view.tenants.iter() {
        for (event, n) in [
            ("submitted", s.submitted),
            ("launched", s.launches),
            ("preempted", s.preemptions),
            ("finished", s.finished),
        ] {
            p.sample(
                "dns_tenant_jobs_total",
                &[("tenant", name), ("event", event)],
                n as f64,
            );
        }
    }

    p.header(
        "dns_tenant_core_seconds_total",
        "CPU-seconds delivered to each tenant (cores x wall time running).",
        "counter",
    );
    for (name, s) in view.tenants.iter() {
        p.sample(
            "dns_tenant_core_seconds_total",
            &[("tenant", name)],
            s.core_seconds,
        );
    }

    p.header(
        "dns_tenant_queue_wait_seconds",
        "Queue wait from submission (or preemption) until cores were delivered.",
        "histogram",
    );
    for (name, s) in view.tenants.iter() {
        if !s.queue_wait.is_empty() {
            p.histogram(
                "dns_tenant_queue_wait_seconds",
                &[("tenant", name)],
                &s.queue_wait,
            );
        }
    }

    p.header(
        "dns_tenant_run_seconds",
        "Wall durations of finished runs per tenant.",
        "histogram",
    );
    for (name, s) in view.tenants.iter() {
        if !s.run_duration.is_empty() {
            p.histogram(
                "dns_tenant_run_seconds",
                &[("tenant", name)],
                &s.run_duration,
            );
        }
    }

    prom::render_counters(&mut p, view.snapshot);
    p.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_is_deterministic_and_labelled() {
        let mut tenants = TenantTable::new();
        {
            let s = tenants.entry("acme");
            s.submitted = 2;
            s.launches = 2;
            s.queue_wait.record(0.25);
            s.core_seconds = 128.0;
        }
        tenants.entry("beta").submitted = 1;
        let snapshot = Snapshot {
            ranks: vec![],
            tenants: vec![],
        };
        let view = MetricsView {
            total_cores: 8,
            free_cores: 3,
            draining: false,
            jobs_by_state: &[("queued", 1), ("running", 2)],
            tenants: &tenants,
            snapshot: &snapshot,
        };
        let a = render(&view);
        let b = render(&view);
        assert_eq!(a, b, "render must be a pure function of the view");
        assert!(a.contains("dns_server_cores{kind=\"free\"} 3\n"));
        assert!(a.contains("dns_server_jobs{state=\"running\"} 2\n"));
        assert!(a.contains("dns_server_jain_fairness "));
        assert!(a.contains("dns_tenant_jobs_total{tenant=\"acme\",event=\"submitted\"} 2\n"));
        assert!(a.contains("dns_tenant_core_seconds_total{tenant=\"acme\"} 128\n"));
        assert!(a.contains("dns_tenant_queue_wait_seconds_count{tenant=\"acme\"} 1\n"));
        // empty histograms are skipped, family header still present
        assert!(a.contains("# TYPE dns_tenant_run_seconds histogram"));
        assert!(!a.contains("dns_tenant_run_seconds_count"));
    }
}
