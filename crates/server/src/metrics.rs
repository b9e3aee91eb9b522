//! Observability: request-latency histograms, work counters, and the
//! Prometheus text rendering behind `GET /metrics`.
//!
//! One [`Metrics`] instance is shared by every front-end of a server
//! (HTTP and line-JSON TCP record into the same histograms, labeled by
//! transport). Everything here is atomics — recording a latency is two
//! `fetch_add`s — and **nothing here can influence a response byte**:
//! metrics observe the serve path, they are not part of it (the parity
//! suites keep that honest, since they diff transcripts while these
//! counters tick underneath).
//!
//! Exported families (all prefixed `sdd_`):
//!
//! | metric | type | labels |
//! |---|---|---|
//! | `sdd_request_latency_seconds` | histogram | `transport` |
//! | `sdd_requests_total` | counter | `transport`, `outcome` |
//! | `sdd_requests_shed_total` | counter | — |
//! | `sdd_auth_failures_total` | counter | — |
//! | `sdd_http_connections` | gauge | — |
//! | `sdd_tcp_connections` | gauge | — |
//! | `sdd_queue_depth` | gauge | — |
//! | `sdd_sessions` | gauge | — |
//! | `sdd_sessions_swept_total` | counter | — |
//! | `sdd_tenant_sessions` | gauge | `tenant` |
//! | `sdd_tenant_cache_bytes` | gauge | `tenant` |
//! | `sdd_cache_{hits,misses,inserts,evictions}_total`, `sdd_cache_bytes` | counter/gauge | — |
//! | `sdd_storage_{loads,spills}_total` | counter | — (segmented stores only) |
//! | `sdd_live_epoch`, `sdd_live_rows` | gauge | — (live tables only) |
//!
//! This file is panic-free outside tests (lint rule P001): a scrape or a
//! latency record must never be able to take the server down.

// P001: no panics outside tests (docs/DETERMINISM.md).
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]
#![cfg_attr(not(test), deny(clippy::panic, clippy::unreachable))]
#![cfg_attr(not(test), deny(clippy::todo, clippy::unimplemented))]

use crate::engine::Engine;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// Histogram bucket upper bounds, in seconds. Spans 100 µs → ~13 s in
/// powers of two — interactive drill-downs sit in the middle decades, and
/// the paper's §5 latency axis is exactly what these resolve.
pub const LATENCY_BUCKETS_S: [f64; 18] = [
    0.0001, 0.0002, 0.0004, 0.0008, 0.0016, 0.0032, 0.0064, 0.0128, 0.0256, 0.0512, 0.1024, 0.2048,
    0.4096, 0.8192, 1.6384, 3.2768, 6.5536, 13.1072,
];

/// A fixed-bucket latency histogram (Prometheus `histogram` semantics:
/// cumulative buckets plus `_sum` and `_count`).
#[derive(Debug, Default)]
pub struct LatencyHistogram {
    /// Per-bucket (non-cumulative) counts; rendered cumulatively.
    buckets: [AtomicU64; LATENCY_BUCKETS_S.len()],
    /// Observations above the last bound (the `+Inf` bucket's own share).
    overflow: AtomicU64,
    /// Total observed time in nanoseconds (u64 holds ~584 years).
    sum_ns: AtomicU64,
    count: AtomicU64,
}

impl LatencyHistogram {
    /// Records one request latency.
    pub fn observe(&self, latency: Duration) {
        let s = latency.as_secs_f64();
        match LATENCY_BUCKETS_S.iter().position(|&b| s <= b) {
            Some(i) => &self.buckets[i],
            None => &self.overflow,
        }
        .fetch_add(1, Ordering::Relaxed);
        self.sum_ns
            .fetch_add(latency.as_nanos() as u64, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
    }

    /// Total observations.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Mean latency in seconds (`NaN` with no observations) — `_sum` over
    /// `_count`, exactly as a dashboard would compute it from `/metrics`.
    pub fn mean_seconds(&self) -> f64 {
        let count = self.count.load(Ordering::Relaxed);
        if count == 0 {
            return f64::NAN;
        }
        self.sum_ns.load(Ordering::Relaxed) as f64 / 1e9 / count as f64
    }

    /// Cumulative bucket counts aligned with [`LATENCY_BUCKETS_S`], plus
    /// the total (the `+Inf` entry) — the exact numbers `/metrics`
    /// exports, which is also what the serve bench derives percentiles
    /// from, so the bench and the dashboard can never disagree.
    pub fn cumulative(&self) -> ([u64; LATENCY_BUCKETS_S.len()], u64) {
        let mut cumulative = [0u64; LATENCY_BUCKETS_S.len()];
        let mut running = 0u64;
        for (slot, bucket) in cumulative.iter_mut().zip(&self.buckets) {
            running += bucket.load(Ordering::Relaxed);
            *slot = running;
        }
        (cumulative, running + self.overflow.load(Ordering::Relaxed))
    }

    /// Upper-bound estimate of the `p` (0..=1) percentile in seconds,
    /// from bucket counts alone: the smallest bucket bound covering `p`
    /// of observations (`+Inf` maps to the largest finite bound). This is
    /// the histogram-resolution percentile a Prometheus `histogram_quantile`
    /// would compute, so bench numbers match dashboard numbers.
    pub fn percentile(&self, p: f64) -> f64 {
        let (cumulative, total) = self.cumulative();
        if total == 0 {
            return f64::NAN;
        }
        let rank = (p.clamp(0.0, 1.0) * total as f64).ceil().max(1.0) as u64;
        for (i, &c) in cumulative.iter().enumerate() {
            if c >= rank {
                return LATENCY_BUCKETS_S[i];
            }
        }
        LATENCY_BUCKETS_S[LATENCY_BUCKETS_S.len() - 1]
    }

    fn render(&self, out: &mut String, name: &str, labels: &str) {
        use std::fmt::Write;
        let (cumulative, total) = self.cumulative();
        for (i, &bound) in LATENCY_BUCKETS_S.iter().enumerate() {
            let _ = writeln!(
                out,
                "{name}_bucket{{{labels}le=\"{bound}\"}} {}",
                cumulative[i]
            );
        }
        let _ = writeln!(out, "{name}_bucket{{{labels}le=\"+Inf\"}} {total}");
        let sum_s = self.sum_ns.load(Ordering::Relaxed) as f64 / 1e9;
        let _ = writeln!(
            out,
            "{name}_sum{{{labels_t}}} {sum_s}",
            labels_t = labels.trim_end_matches(',')
        );
        let _ = writeln!(
            out,
            "{name}_count{{{labels_t}}} {total}",
            labels_t = labels.trim_end_matches(',')
        );
    }
}

/// Which front-end served a request (a label on the shared histogram).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Transport {
    /// The HTTP/1.1 front-end.
    Http,
    /// The line-JSON TCP lab protocol.
    Tcp,
}

/// The server-wide metrics hub. See module docs.
#[derive(Debug, Default)]
pub struct Metrics {
    /// Request latency, per transport.
    pub http_latency: LatencyHistogram,
    /// Request latency over the line-JSON TCP path.
    pub tcp_latency: LatencyHistogram,
    /// Requests answered `ok:true` / `ok:false`, per transport.
    http_ok: AtomicU64,
    http_err: AtomicU64,
    tcp_ok: AtomicU64,
    tcp_err: AtomicU64,
    /// Requests shed by admission control (429/503).
    pub shed: AtomicU64,
    /// Rejected / missing bearer tokens.
    pub auth_failures: AtomicU64,
    /// Live HTTP connections.
    pub http_connections: AtomicU64,
    /// Live line-JSON TCP connections.
    pub tcp_connections: AtomicU64,
    /// Sessions reaped by the idle sweep since start.
    pub sessions_swept: AtomicU64,
}

impl Metrics {
    /// Records one answered request: latency plus the ok/error outcome
    /// (`ok` = the engine's `"ok"` field, i.e. not a `Response::Error`).
    pub fn record(&self, transport: Transport, latency: Duration, ok: bool) {
        let (hist, counter) = match (transport, ok) {
            (Transport::Http, true) => (&self.http_latency, &self.http_ok),
            (Transport::Http, false) => (&self.http_latency, &self.http_err),
            (Transport::Tcp, true) => (&self.tcp_latency, &self.tcp_ok),
            (Transport::Tcp, false) => (&self.tcp_latency, &self.tcp_err),
        };
        hist.observe(latency);
        counter.fetch_add(1, Ordering::Relaxed);
    }

    /// Renders the full Prometheus text exposition (format 0.0.4) for
    /// this hub plus the engine's own gauges (sessions, cache, storage,
    /// tenants) and the live `queue_depth`.
    pub fn render(&self, engine: &Engine, queue_depth: usize) -> String {
        use std::fmt::Write;
        let mut out = String::with_capacity(4096);

        let _ = writeln!(
            out,
            "# HELP sdd_request_latency_seconds Request latency by transport.\n\
             # TYPE sdd_request_latency_seconds histogram"
        );
        self.http_latency.render(
            &mut out,
            "sdd_request_latency_seconds",
            "transport=\"http\",",
        );
        self.tcp_latency.render(
            &mut out,
            "sdd_request_latency_seconds",
            "transport=\"tcp\",",
        );

        let _ = writeln!(
            out,
            "# HELP sdd_requests_total Requests answered, by transport and outcome.\n\
             # TYPE sdd_requests_total counter"
        );
        for (labels, v) in [
            ("transport=\"http\",outcome=\"ok\"", &self.http_ok),
            ("transport=\"http\",outcome=\"error\"", &self.http_err),
            ("transport=\"tcp\",outcome=\"ok\"", &self.tcp_ok),
            ("transport=\"tcp\",outcome=\"error\"", &self.tcp_err),
        ] {
            let _ = writeln!(
                out,
                "sdd_requests_total{{{labels}}} {}",
                v.load(Ordering::Relaxed)
            );
        }

        for (name, help, kind, value) in [
            (
                "sdd_requests_shed_total",
                "Requests shed by admission control.",
                "counter",
                self.shed.load(Ordering::Relaxed),
            ),
            (
                "sdd_auth_failures_total",
                "Requests with a missing or invalid bearer token.",
                "counter",
                self.auth_failures.load(Ordering::Relaxed),
            ),
            (
                "sdd_http_connections",
                "Live HTTP connections.",
                "gauge",
                self.http_connections.load(Ordering::Relaxed),
            ),
            (
                "sdd_tcp_connections",
                "Live line-JSON TCP connections.",
                "gauge",
                self.tcp_connections.load(Ordering::Relaxed),
            ),
            (
                "sdd_queue_depth",
                "Connections queued for a pool worker.",
                "gauge",
                queue_depth as u64,
            ),
            (
                "sdd_sessions",
                "Live sessions across all tenants.",
                "gauge",
                engine.n_sessions() as u64,
            ),
            (
                "sdd_sessions_swept_total",
                "Sessions reaped by the idle sweep.",
                "counter",
                self.sessions_swept.load(Ordering::Relaxed),
            ),
        ] {
            let _ = writeln!(
                out,
                "# HELP {name} {help}\n# TYPE {name} {kind}\n{name} {value}"
            );
        }

        if let Some(c) = engine.cache_counters() {
            for (name, help, kind, value) in [
                (
                    "sdd_cache_hits_total",
                    "Result-cache hits.",
                    "counter",
                    c.hits,
                ),
                (
                    "sdd_cache_misses_total",
                    "Result-cache misses.",
                    "counter",
                    c.misses,
                ),
                (
                    "sdd_cache_inserts_total",
                    "Result-cache inserts.",
                    "counter",
                    c.inserts,
                ),
                (
                    "sdd_cache_evictions_total",
                    "Result-cache evictions.",
                    "counter",
                    c.evictions,
                ),
                (
                    "sdd_cache_bytes",
                    "Result-cache resident bytes.",
                    "gauge",
                    c.bytes,
                ),
            ] {
                let _ = writeln!(
                    out,
                    "# HELP {name} {help}\n# TYPE {name} {kind}\n{name} {value}"
                );
            }
        }

        if let Some((loads, _, spills, _)) = engine.storage_counters() {
            for (name, help, value) in [
                ("sdd_storage_loads_total", "Spilled shard reads.", loads),
                ("sdd_storage_spills_total", "Shard spill writes.", spills),
            ] {
                let _ = writeln!(
                    out,
                    "# HELP {name} {help}\n# TYPE {name} counter\n{name} {value}"
                );
            }
        }

        if let Some((epoch, rows)) = engine.live_info() {
            // Latest *published* state, not any session's pin: the gap
            // between this gauge and a session's pinned epoch is exactly
            // the staleness the replay bench measures.
            for (name, help, value) in [
                (
                    "sdd_live_epoch",
                    "Latest published epoch of the live table (= appends accepted).",
                    epoch,
                ),
                (
                    "sdd_live_rows",
                    "Rows visible at the latest published epoch.",
                    rows as u64,
                ),
            ] {
                let _ = writeln!(
                    out,
                    "# HELP {name} {help}\n# TYPE {name} gauge\n{name} {value}"
                );
            }
        }

        let tenants = engine.tenants();
        let _ = writeln!(
            out,
            "# HELP sdd_tenant_sessions Live sessions per tenant.\n\
             # TYPE sdd_tenant_sessions gauge"
        );
        for t in tenants.tenants() {
            let _ = writeln!(
                out,
                "sdd_tenant_sessions{{tenant=\"{}\"}} {}",
                t.name,
                t.live_sessions()
            );
        }
        let _ = writeln!(
            out,
            "# HELP sdd_tenant_cache_bytes Result-cache bytes charged per tenant.\n\
             # TYPE sdd_tenant_cache_bytes gauge"
        );
        for (id, t) in tenants.tenants().iter().enumerate() {
            let _ = writeln!(
                out,
                "sdd_tenant_cache_bytes{{tenant=\"{}\"}} {}",
                t.name,
                engine.tenant_cache_bytes(id as crate::registry::TenantId)
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_buckets_are_cumulative_and_percentiles_resolve() {
        let h = LatencyHistogram::default();
        assert!(h.percentile(0.5).is_nan());
        // 8 fast (≤ 0.0001), 1 medium (~0.01), 1 slow overflow (> 13.1 s).
        for _ in 0..8 {
            h.observe(Duration::from_micros(50));
        }
        h.observe(Duration::from_millis(10));
        h.observe(Duration::from_secs(20));
        let (cumulative, total) = h.cumulative();
        assert_eq!(total, 10);
        assert_eq!(cumulative[0], 8);
        assert_eq!(*cumulative.last().unwrap(), 9); // overflow excluded
        assert_eq!(h.percentile(0.5), 0.0001);
        // p90 lands on the 10th-percentile-wide medium bucket.
        assert_eq!(h.percentile(0.9), 0.0128);
        // p100 covers the overflow observation → clamps to the last bound.
        assert_eq!(h.percentile(1.0), LATENCY_BUCKETS_S[17]);
        assert_eq!(h.count(), 10);
    }

    #[test]
    fn render_produces_prometheus_text() {
        use crate::{Engine, EngineConfig};
        use std::sync::Arc;
        let engine = Engine::new(Arc::new(sdd_datagen::retail(42)), EngineConfig::default());
        let m = Metrics::default();
        m.record(Transport::Http, Duration::from_micros(300), true);
        m.record(Transport::Tcp, Duration::from_micros(900), false);
        m.shed.fetch_add(3, Ordering::Relaxed);
        let text = m.render(&engine, 7);
        for needle in [
            "# TYPE sdd_request_latency_seconds histogram",
            "sdd_request_latency_seconds_bucket{transport=\"http\",le=\"+Inf\"} 1",
            "sdd_request_latency_seconds_count{transport=\"tcp\"} 1",
            "sdd_requests_total{transport=\"http\",outcome=\"ok\"} 1",
            "sdd_requests_total{transport=\"tcp\",outcome=\"error\"} 1",
            "sdd_requests_shed_total 3",
            "sdd_queue_depth 7",
            "sdd_sessions 0",
            "sdd_tenant_sessions{tenant=\"anonymous\"} 0",
            "sdd_cache_hits_total 0",
            "sdd_tenant_cache_bytes{tenant=\"anonymous\"} 0",
        ] {
            assert!(text.contains(needle), "missing {needle:?} in:\n{text}");
        }
        // Monolithic store: no storage family, no live gauges.
        assert!(!text.contains("sdd_storage_loads_total"), "{text}");
        assert!(!text.contains("sdd_live_epoch"), "{text}");
        // A disabled cache drops its families from the exposition.
        let uncached = Engine::new(
            Arc::new(sdd_datagen::retail(42)),
            EngineConfig {
                cache_bytes: 0,
                ..EngineConfig::default()
            },
        );
        let text = m.render(&uncached, 0);
        assert!(!text.contains("sdd_cache_hits_total"), "{text}");
    }

    #[test]
    fn render_exports_live_gauges_for_an_appendable_store() {
        use crate::{Engine, EngineConfig};
        use sdd_table::{LiveTable, LiveTableConfig, Schema, TableStore};
        use std::sync::Arc;
        let schema = Schema::new(["Store", "Product"]).unwrap();
        let live =
            Arc::new(LiveTable::new(schema, vec![], &LiveTableConfig::in_memory(8)).unwrap());
        live.try_append(&[vec!["s0".to_owned(), "p0".to_owned()]], &[])
            .unwrap();
        let engine = Engine::with_store(TableStore::from(live), EngineConfig::default());
        let text = Metrics::default().render(&engine, 0);
        assert!(text.contains("sdd_live_epoch 1"), "{text}");
        assert!(text.contains("sdd_live_rows 1"), "{text}");
        // A live table is segmented storage: the storage family renders.
        assert!(text.contains("sdd_storage_spills_total"), "{text}");
    }
}
