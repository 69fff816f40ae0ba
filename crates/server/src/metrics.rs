//! Global daemon metrics, shared by every session and worker.
//!
//! Every instrument lives in one [`obs::Registry`], so the `metrics` command
//! renders the entire daemon state in one pass; the typed handles below keep
//! the hot paths free of name lookups.  Counters are monotonic; the two
//! up/down quantities (active sessions, busy workers) are saturating
//! [`Gauge`]s, so an unpaired decrement clamps at zero instead of wrapping.

use std::sync::Arc;

use obs::{Counter, Gauge, Histogram, Registry};

/// Typed handles into the daemon's one metrics registry.
#[derive(Debug)]
pub struct ServerMetrics {
    /// The registry behind every handle below, rendered by the `metrics`
    /// command (Prometheus text + typed snapshots).
    pub registry: Arc<Registry>,
    /// Sessions accepted since startup.
    pub sessions_total: Arc<Counter>,
    /// Sessions currently connected.
    pub sessions_active: Arc<Gauge>,
    /// Accepted connections dropped because their session thread could not
    /// be spawned.
    pub session_spawn_failures: Arc<Counter>,
    /// Concrete queries answered (store hits + backend runs).
    pub queries: Arc<Counter>,
    /// Concrete queries answered from the shared cross-session store.
    pub store_hits: Arc<Counter>,
    /// Queries executed by the backend pool.
    pub backend_queries: Arc<Counter>,
    /// Learning jobs spawned.
    pub jobs_spawned: Arc<Counter>,
    /// Workers currently executing backend work.
    pub busy_workers: Arc<Gauge>,
    /// Poisoned locks recovered on the request path: a session or worker
    /// panicked mid-operation and the daemon degraded to an error response
    /// instead of letting the poison cascade.
    pub lock_poisoned: Arc<Counter>,
    /// Wall-clock nanoseconds spent handling each protocol request.
    pub request_ns: Arc<Histogram>,
}

impl Default for ServerMetrics {
    fn default() -> Self {
        ServerMetrics::new()
    }
}

impl ServerMetrics {
    /// Creates a fresh registry and registers every daemon instrument.
    pub fn new() -> Self {
        let registry = Arc::new(Registry::new());
        ServerMetrics {
            sessions_total: registry.counter("cqd_sessions_total"),
            sessions_active: registry.gauge("cqd_sessions_active"),
            session_spawn_failures: registry.counter("cqd_session_spawn_failures_total"),
            queries: registry.counter("cqd_queries_total"),
            store_hits: registry.counter("cqd_store_hits_total"),
            backend_queries: registry.counter("cqd_backend_queries_total"),
            jobs_spawned: registry.counter("cqd_jobs_spawned_total"),
            busy_workers: registry.gauge("cqd_busy_workers"),
            lock_poisoned: registry.counter("cqd_lock_poisoned_total"),
            request_ns: registry.histogram("cqd_request_ns"),
            registry,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gauges_saturate_instead_of_wrapping() {
        let metrics = ServerMetrics::new();
        metrics.sessions_active.inc();
        metrics.sessions_active.dec();
        // The unpaired decrement clamps at zero — a daemon bug must not turn
        // the session count into u64::MAX.
        metrics.sessions_active.dec();
        assert_eq!(metrics.sessions_active.get(), 0);
    }

    #[test]
    fn the_registry_exposes_every_instrument() {
        let metrics = ServerMetrics::new();
        metrics.queries.add(3);
        metrics.request_ns.record(1_000);
        let names: Vec<String> = metrics
            .registry
            .snapshot()
            .into_iter()
            .map(|m| m.name)
            .collect();
        for expected in [
            "cqd_sessions_total",
            "cqd_sessions_active",
            "cqd_session_spawn_failures_total",
            "cqd_queries_total",
            "cqd_store_hits_total",
            "cqd_backend_queries_total",
            "cqd_jobs_spawned_total",
            "cqd_busy_workers",
            "cqd_lock_poisoned_total",
            "cqd_request_ns",
        ] {
            assert!(names.iter().any(|n| n == expected), "missing {expected}");
        }
    }
}
