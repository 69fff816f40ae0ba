//! Timing and counting wrappers around the public interfaces of the layers
//! the benchmark traces.
//!
//! Nothing here reaches inside the program: [`TimedOracle`] wraps any
//! [`polca::CacheOracle`], [`TimedBackend`] wraps any
//! [`cachequery::QueryBackend`], [`SpanTotals`] is an [`obs::EventSink`] that
//! sums the spans the program already emits.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use cache::HitMiss;
use cachequery::{BackendError, QueryBackend, QueryConfig};
use learning::OracleError;
use mbl::{BlockId, Query};
use polca::{CacheOracle, CacheSession};

/// Calls into one layer and the time spent inside them.
#[derive(Debug, Default)]
pub struct CallTimer {
    calls: AtomicU64,
    nanos: AtomicU64,
}

impl CallTimer {
    fn record(&self, started: Instant) {
        let nanos = started.elapsed().as_nanos() as u64;
        self.calls.fetch_add(1, Ordering::Relaxed);
        self.nanos.fetch_add(nanos, Ordering::Relaxed);
    }

    /// Calls recorded so far.
    pub fn calls(&self) -> u64 {
        self.calls.load(Ordering::Relaxed)
    }

    /// Seconds spent inside the recorded calls.
    pub fn seconds(&self) -> f64 {
        self.nanos.load(Ordering::Relaxed) as f64 * 1e-9
    }
}

/// A [`CacheOracle`] that times every probe and every session step of the
/// oracle it wraps.  Clones share the timer, as the oracle contract asks of
/// probe counters.
#[derive(Debug, Clone)]
pub struct TimedOracle<C> {
    inner: C,
    timer: Arc<CallTimer>,
}

impl<C> TimedOracle<C> {
    /// Wraps `inner`.
    pub fn new(inner: C) -> Self {
        TimedOracle {
            inner,
            timer: Arc::new(CallTimer::default()),
        }
    }

    /// The shared timer of this oracle and its clones.
    pub fn timer(&self) -> Arc<CallTimer> {
        Arc::clone(&self.timer)
    }
}

impl<C: CacheOracle> CacheOracle for TimedOracle<C> {
    fn associativity(&self) -> usize {
        self.inner.associativity()
    }

    fn probe(&mut self, trace: &[BlockId]) -> Result<HitMiss, OracleError> {
        let started = Instant::now();
        let outcome = self.inner.probe(trace);
        self.timer.record(started);
        outcome
    }

    fn begin(&mut self) -> Box<dyn CacheSession + '_> {
        Box::new(TimedSession {
            inner: self.inner.begin(),
            timer: &self.timer,
        })
    }

    fn probes(&self) -> u64 {
        self.inner.probes()
    }

    fn block_accesses(&self) -> u64 {
        self.inner.block_accesses()
    }
}

struct TimedSession<'a> {
    inner: Box<dyn CacheSession + 'a>,
    timer: &'a CallTimer,
}

impl CacheSession for TimedSession<'_> {
    fn access(&mut self, block: BlockId) -> Result<HitMiss, OracleError> {
        let started = Instant::now();
        let outcome = self.inner.access(block);
        self.timer.record(started);
        outcome
    }

    fn speculate(&mut self, block: BlockId) -> Result<HitMiss, OracleError> {
        let started = Instant::now();
        let outcome = self.inner.speculate(block);
        self.timer.record(started);
        outcome
    }
}

/// What [`TimedBackend`] saw: calls, their time, the queries they carried,
/// and each call's latency (for the remote backend's round-trip
/// percentiles).
#[derive(Debug, Default)]
pub struct BackendLedger {
    timer: CallTimer,
    queries: AtomicU64,
    latencies_ns: Mutex<Vec<u64>>,
}

impl BackendLedger {
    /// The call timer.
    pub fn timer(&self) -> &CallTimer {
        &self.timer
    }

    /// Queries carried by the recorded calls.
    pub fn queries(&self) -> u64 {
        self.queries.load(Ordering::Relaxed)
    }

    /// The latency of every recorded call, in nanoseconds.
    pub fn latencies_ns(&self) -> Vec<u64> {
        self.latencies_ns.lock().expect("ledger lock").clone()
    }

    fn record(&self, started: Instant, queries: usize) {
        let nanos = started.elapsed().as_nanos() as u64;
        self.timer.calls.fetch_add(1, Ordering::Relaxed);
        self.timer.nanos.fetch_add(nanos, Ordering::Relaxed);
        self.queries.fetch_add(queries as u64, Ordering::Relaxed);
        self.latencies_ns.lock().expect("ledger lock").push(nanos);
    }
}

/// A [`QueryBackend`] that times every `execute` / `execute_batch` call of
/// the backend it wraps.  Clones share the ledger.
#[derive(Debug, Clone)]
pub struct TimedBackend<B> {
    inner: B,
    ledger: Arc<BackendLedger>,
}

impl<B> TimedBackend<B> {
    /// Wraps `inner`.
    pub fn new(inner: B) -> Self {
        TimedBackend {
            inner,
            ledger: Arc::new(BackendLedger::default()),
        }
    }

    /// The shared ledger of this backend and its clones.
    pub fn ledger(&self) -> Arc<BackendLedger> {
        Arc::clone(&self.ledger)
    }
}

impl<B: QueryBackend> QueryBackend for TimedBackend<B> {
    fn execute(&mut self, query: &Query) -> Result<(Vec<HitMiss>, bool), BackendError> {
        let started = Instant::now();
        let outcome = self.inner.execute(query);
        self.ledger.record(started, 1);
        outcome
    }

    fn execute_batch(
        &mut self,
        queries: &[Query],
    ) -> Result<Vec<(Vec<HitMiss>, bool)>, BackendError> {
        let started = Instant::now();
        let outcome = self.inner.execute_batch(queries);
        self.ledger.record(started, queries.len());
        outcome
    }

    fn config(&self) -> Result<QueryConfig, BackendError> {
        self.inner.config()
    }

    fn associativity(&self) -> Result<usize, BackendError> {
        self.inner.associativity()
    }

    fn handles_repetitions(&self) -> bool {
        self.inner.handles_repetitions()
    }
}

/// An [`obs::EventSink`] that keeps the total duration of the spans of each
/// name instead of the records, so a long traced run costs no memory per
/// span.
#[derive(Debug, Default)]
pub struct SpanTotals {
    nanos: Mutex<BTreeMap<String, u64>>,
}

impl SpanTotals {
    /// Seconds spent in spans called `name` (0 when none closed).
    pub fn seconds(&self, name: &str) -> f64 {
        let nanos = self.nanos.lock().expect("span totals lock");
        nanos.get(name).copied().unwrap_or(0) as f64 * 1e-9
    }
}

impl obs::EventSink for SpanTotals {
    fn emit(&self, line: &str) {
        if let Some((name, dur_ns)) = parse_record(line) {
            *self
                .nanos
                .lock()
                .expect("span totals lock")
                .entry(name.to_string())
                .or_default() += dur_ns;
        }
    }
}

/// The name and duration of one record of the fixed `obs::Recorder` schema
/// (`{"ts_ns":…,"span_id":…,"parent":…,"name":"…","dur_ns":…,"fields":{…}}`).
/// The span names the program emits contain no escapes.
fn parse_record(line: &str) -> Option<(&str, u64)> {
    let (name, rest) = line.split_once("\"name\":\"")?.1.split_once('"')?;
    let dur = rest.split_once("\"dur_ns\":")?.1;
    let digits = dur.bytes().take_while(u8::is_ascii_digit).count();
    Some((name, dur[..digits].parse().ok()?))
}
