//! # snap-telemetry
//!
//! The network-wide telemetry plane of the SNAP workspace: a lock-free,
//! **per-instance** metrics registry (counters, gauges, log₂ histograms,
//! dense counter families), a 1-in-N sampled packet tracer and a
//! structured commit event log, all reachable from one [`Telemetry`]
//! handle and exportable as one [`MetricsSnapshot`] (JSON via
//! [`MetricsSnapshot::to_json`]).
//!
//! ## The per-worker-shard aggregation contract
//!
//! Hot-path metrics ([`Counter`], [`Histogram`], [`CounterFamily`]) are
//! **sharded**: each metric owns [`registry::SHARDS`] cache-line-padded
//! cells, every thread is assigned one shard round-robin on its first
//! metric write and keeps it for its lifetime, and a write is a single
//! relaxed atomic RMW on the writer's own shard — no locks, no shared
//! cachelines between (the first `SHARDS`) concurrent workers, no
//! registration of threads. Aggregation happens **only on read**: `get()`
//! and [`Registry::snapshot`] sum the shards at that moment. The
//! consequences, which every consumer relies on:
//!
//! * writes never wait — a telemetry-enabled hot path pays one
//!   uncontended RMW per recorded event and nothing else;
//! * reads are O(`SHARDS`) per metric and may run concurrently with
//!   writers: a snapshot includes every write that *happened-before* the
//!   read and may or may not include in-flight ones;
//! * once writers quiesce (workers joined, injection stopped), sums are
//!   **exact** — this is what the concurrency-exactness test suite pins
//!   down by comparing aggregated counters against independently computed
//!   totals.
//!
//! Everything here is *per instance*: two planes in one process get two
//! registries and never contaminate each other's readings. Sharing is
//! explicit —
//! clone the [`Telemetry`] handle and hand it to whoever should write
//! into the same registry (the distribution plane shares one handle
//! between its controller, its agents' egress stats and its packet
//! driver, so a single snapshot tells the whole story).
//!
//! ## Cost model
//!
//! A disabled subsystem costs a `None` check. An enabled one costs, per
//! packet, roughly: one family RMW at ingress, one thread-local countdown
//! for trace sampling, and a handful of amortized per-group/per-batch
//! adds. The budget is <3% of sustained throughput; the benchmark of
//! record measures it per workload as `telemetry.overhead_share`.

#![warn(missing_docs)]

mod delta;
mod events;
mod json;
pub mod registry;
mod trace;

pub use delta::SnapshotDelta;
pub use events::{AgentTimings, CommitEvent, EventLog, EventRecord, DEFAULT_EVENT_CAPACITY};
pub use registry::{
    Counter, CounterFamily, Gauge, Histogram, HistogramSnapshot, LocalHistogram, MetricsSnapshot,
    Registry, HISTOGRAM_BUCKETS,
};
pub use trace::{
    HopRecord, PacketTrace, TraceSampler, DEFAULT_TRACE_CAPACITY, DEFAULT_TRACE_EVERY,
};

use std::sync::Arc;

struct TelemetryInner {
    registry: Registry,
    tracer: TraceSampler,
    events: EventLog,
}

/// One instance's telemetry plane: registry + packet-trace sampler +
/// commit event log. Cloning clones the handle; all clones write into the
/// same instance.
#[derive(Clone)]
pub struct Telemetry {
    inner: Arc<TelemetryInner>,
}

impl Telemetry {
    /// A fresh telemetry instance with the default trace sampling
    /// (1-in-[`DEFAULT_TRACE_EVERY`], ring of [`DEFAULT_TRACE_CAPACITY`])
    /// and event-log capacity.
    pub fn new() -> Telemetry {
        Telemetry::with_trace_sampling(DEFAULT_TRACE_EVERY, DEFAULT_TRACE_CAPACITY)
    }

    /// A telemetry instance tracing one in `every` packets (0 disables
    /// tracing) into a ring of `capacity` traces.
    pub fn with_trace_sampling(every: u64, capacity: usize) -> Telemetry {
        Telemetry {
            inner: Arc::new(TelemetryInner {
                registry: Registry::new(),
                tracer: TraceSampler::new(every, capacity),
                events: EventLog::default(),
            }),
        }
    }

    /// The metrics registry.
    pub fn registry(&self) -> &Registry {
        &self.inner.registry
    }

    /// The packet-trace sampler.
    pub fn tracer(&self) -> &TraceSampler {
        &self.inner.tracer
    }

    /// The commit event log.
    pub fn events(&self) -> &EventLog {
        &self.inner.events
    }

    /// Read everything into one [`MetricsSnapshot`]: all registered
    /// metrics, the current trace ring and the retained event log.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let mut snap = self.inner.registry.snapshot();
        snap.traces = self.inner.tracer.traces();
        snap.events = self.inner.events.events();
        snap
    }
}

impl Default for Telemetry {
    fn default() -> Telemetry {
        Telemetry::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_combines_registry_traces_and_events() {
        let t = Telemetry::with_trace_sampling(1, 4);
        t.registry().counter("c").add(2);
        let trace = t.tracer().maybe_start(3, 0).unwrap();
        t.tracer().finish(trace);
        t.events().record(CommitEvent::Commit {
            epoch: 1,
            migrated_tables: 0,
            micros: 5,
            per_agent: AgentTimings::Full(vec![("A".into(), 5)]),
        });
        let snap = t.snapshot();
        assert_eq!(snap.counters["c"], 2);
        assert_eq!(snap.traces.len(), 1);
        assert_eq!(snap.events.len(), 1);
        let json = snap.to_json();
        assert!(json.contains("\"c\": 2"));
        assert!(json.contains("\"kind\": \"commit\""));
        assert!(json.contains("\"inport\": 3"));
    }

    #[test]
    fn clones_share_one_instance_but_instances_are_isolated() {
        let a = Telemetry::new();
        let b = a.clone();
        b.registry().counter("x").inc();
        assert_eq!(a.registry().counter("x").get(), 1);
        let c = Telemetry::new();
        assert_eq!(c.registry().counter("x").get(), 0);
    }
}
