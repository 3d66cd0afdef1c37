//! The benchmark's own stopwatch spans: one per call into a layer's
//! public function, kept in memory and written out as a Chrome trace
//! (`chrome://tracing`, Perfetto) when the run ends. Spans inside the
//! program are `dns-telemetry`'s business; these sit outside it, around
//! the calls, so they exist whatever the program's telemetry level.

use std::sync::Mutex;
use std::time::Instant;

use dns_json::Json;

pub type SpanId = usize;

#[derive(Clone, Debug)]
pub struct Span {
    pub name: String,
    pub parent: Option<SpanId>,
    /// Microseconds since the recorder's epoch.
    pub start_us: f64,
    pub end_us: f64,
}

impl Span {
    pub fn dur_us(&self) -> f64 {
        self.end_us - self.start_us
    }
}

/// Thread-safe span store (rank threads and the client thread record
/// into the same run). Span 0 is `run`, the ancestor of every other span.
pub struct Recorder {
    epoch: Instant,
    spans: Mutex<Vec<Span>>,
}

impl Recorder {
    pub fn new() -> Recorder {
        let rec = Recorder {
            epoch: Instant::now(),
            spans: Mutex::new(Vec::new()),
        };
        rec.begin("run", None);
        rec
    }

    /// The `run` span.
    pub fn run(&self) -> Option<SpanId> {
        Some(0)
    }

    fn us(&self, t: Instant) -> f64 {
        t.saturating_duration_since(self.epoch).as_secs_f64() * 1e6
    }

    /// Record a finished span from its two clock readings.
    pub fn record(
        &self,
        name: impl Into<String>,
        parent: Option<SpanId>,
        start: Instant,
        end: Instant,
    ) -> SpanId {
        let mut spans = self.spans.lock().expect("span store poisoned");
        spans.push(Span {
            name: name.into(),
            parent,
            start_us: self.us(start),
            end_us: self.us(end),
        });
        spans.len() - 1
    }

    /// Open a span now; [`Recorder::end`] closes it.
    pub fn begin(&self, name: impl Into<String>, parent: Option<SpanId>) -> SpanId {
        let now = Instant::now();
        self.record(name, parent, now, now)
    }

    pub fn end(&self, id: SpanId) {
        let now = self.us(Instant::now());
        self.spans.lock().expect("span store poisoned")[id].end_us = now;
    }

    /// Time `f` as a child of `parent`; returns its result and seconds.
    pub fn time<R>(&self, name: &str, parent: Option<SpanId>, f: impl FnOnce() -> R) -> (R, f64) {
        let t0 = Instant::now();
        let r = f();
        let t1 = Instant::now();
        self.record(name, parent, t0, t1);
        (r, (t1 - t0).as_secs_f64())
    }

    /// Close `run` and hand the spans over.
    pub fn finish(&self) -> Vec<Span> {
        self.end(0);
        self.spans.lock().expect("span store poisoned").clone()
    }
}

/// A span's self time: its duration minus the part of its interval its
/// direct children cover (overlapping children are counted once).
pub fn self_time_us(spans: &[Span], id: SpanId) -> f64 {
    let me = &spans[id];
    let mut kids: Vec<(f64, f64)> = spans
        .iter()
        .filter(|s| s.parent == Some(id))
        .map(|s| (s.start_us.max(me.start_us), s.end_us.min(me.end_us)))
        .filter(|(a, b)| b > a)
        .collect();
    kids.sort_by(|a, b| a.0.total_cmp(&b.0));
    let mut covered = 0.0;
    let mut edge = f64::NEG_INFINITY;
    for (a, b) in kids {
        if b > edge {
            covered += b - a.max(edge);
            edge = b;
        }
    }
    me.dur_us() - covered
}

/// Chrome trace-event JSON: one complete (`"ph":"X"`) event per span,
/// its id, parent id and self time in `args`.
pub fn chrome_trace(spans: &[Span]) -> String {
    let events: Vec<Json> = spans
        .iter()
        .enumerate()
        .map(|(id, s)| {
            let args = Json::obj()
                .put("id", Json::num(id as f64))
                .put_opt("parent", s.parent.map(|p| Json::num(p as f64)))
                .put("self_us", Json::num(self_time_us(spans, id)))
                .build();
            Json::obj()
                .put("name", Json::str(&s.name))
                .put("ph", Json::str("X"))
                .put("ts", Json::num(s.start_us))
                .put("dur", Json::num(s.dur_us()))
                .put("pid", Json::num(0))
                .put("tid", Json::num(0))
                .put("args", args)
                .build()
        })
        .collect();
    Json::obj()
        .put("traceEvents", Json::Arr(events))
        .put("displayTimeUnit", Json::str("ms"))
        .build()
        .dump()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &str, parent: Option<SpanId>, a: f64, b: f64) -> Span {
        Span {
            name: name.into(),
            parent,
            start_us: a,
            end_us: b,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = vec![
            span("run", None, 0.0, 100.0),
            span("setup", Some(0), 0.0, 30.0),
            span("step[0]", Some(0), 40.0, 70.0),
            span("overlapping", Some(0), 60.0, 80.0), // 10 us shared with step[0]
            span("grandchild", Some(2), 45.0, 50.0),  // not a direct child of run
            span("outside", Some(0), 90.0, 120.0),    // clipped to the parent
        ];
        // covered: [0,30] + [40,80] + [90,100] = 80
        assert_eq!(self_time_us(&spans, 0), 20.0);
        assert_eq!(self_time_us(&spans, 2), 25.0);
        assert_eq!(self_time_us(&spans, 1), 30.0);
    }

    #[test]
    fn trace_round_trips_through_dns_json() {
        let rec = Recorder::new();
        let setup = rec.begin("setup", rec.run());
        rec.time("probe.x", Some(setup), || ());
        rec.end(setup);
        let spans = rec.finish();
        let v = dns_json::parse(&chrome_trace(&spans)).unwrap();
        let ev = v.get("traceEvents").and_then(Json::as_arr).unwrap();
        assert_eq!(ev.len(), 3);
        assert_eq!(ev[0].get("name").and_then(Json::as_str), Some("run"));
        assert!(ev[0].get("dur").and_then(Json::as_f64) >= ev[1].get("dur").and_then(Json::as_f64));
        assert_eq!(
            ev[1]
                .get("args")
                .unwrap()
                .get("parent")
                .and_then(Json::as_u64),
            Some(0)
        );
        assert_eq!(
            ev[2]
                .get("args")
                .unwrap()
                .get("parent")
                .and_then(Json::as_u64),
            Some(1)
        );
        assert!(ev[0].get("args").unwrap().get("parent").is_none());
    }
}
