//! The dataplane's pre-registered telemetry handle bundle.
//!
//! The driver must never look a metric up by name on the hot path, so a
//! plane registers everything it will ever record **once**, at
//! construction, into a [`PlaneTelemetry`] bundle of cloned handles. The
//! driver then records through plain field accesses — each one a relaxed
//! RMW on the calling worker's shard (see the `snap-telemetry` crate docs
//! for the aggregation contract). The plane carries an
//! `Option<Arc<PlaneTelemetry>>`: `None` compiles telemetry down to a branch
//! per batch, which is what the benchmark's `telemetry.overhead_share`
//! compares against.

use crate::egress::EgressQueues;
use snap_telemetry::{Counter, CounterFamily, Histogram, MetricsSnapshot, Telemetry};
use snap_topology::Topology;
use std::sync::Arc;

/// Every metric handle the packet driver records through, pre-registered
/// against one [`Telemetry`] instance. Field names mirror the registered
/// metric names (listed in EXPERIMENTS.md § Telemetry).
pub struct PlaneTelemetry {
    telemetry: Telemetry,
    /// `driver.packets` — packets admitted at ingress (stamped with an
    /// epoch and entered into the wave loop).
    pub packets: Counter,
    /// `driver.deliveries` — packets (or forked copies) delivered to an
    /// egress port.
    pub deliveries: Counter,
    /// `driver.policy_drops` — packets dropped by the policy (drop leaf or
    /// dropping sequence).
    pub policy_drops: Counter,
    /// `driver.errors` — packets that failed (unknown port, hop budget,
    /// evaluation error, ...).
    pub errors: Counter,
    /// `driver.wave_prefix.packets` — flights advanced by the lock-free
    /// wave-prefix pass.
    pub wave_prefix_packets: Counter,
    /// `driver.wave_prefix.survivors` — of those, flights that still
    /// needed the locked phase (ended at a state test or state-writing
    /// leaf). `survivors / packets` is the fraction of wave traffic that
    /// pays for state.
    pub wave_prefix_survivors: Counter,
    /// `driver.batch_ns` — wall-clock nanoseconds per driven batch
    /// (log₂-bucketed latency histogram).
    pub batch_ns: Histogram,
    /// `packet.delivery_hops` — hop count of each delivered packet
    /// (log₂-bucketed occupancy histogram).
    pub delivery_hops: Histogram,
    /// `switch.packets` — per-switch ingress admissions.
    pub switch_packets: CounterFamily,
    /// `switch.hops` — per-switch locked-phase flight visits.
    pub switch_hops: CounterFamily,
    /// `switch.state_writes` — per-switch state actions applied to the
    /// switch's store.
    pub switch_state_writes: CounterFamily,
}

impl PlaneTelemetry {
    /// Register the dataplane metric set against `telemetry`, sizing the
    /// per-switch families off `topology` (labels are the topology's node
    /// names, indices its node ids).
    pub fn new(telemetry: Telemetry, topology: &Topology) -> Arc<PlaneTelemetry> {
        let labels: Vec<String> = topology
            .nodes()
            .map(|n| topology.node_name(n).to_string())
            .collect();
        let r = telemetry.registry();
        Arc::new(PlaneTelemetry {
            packets: r.counter("driver.packets"),
            deliveries: r.counter("driver.deliveries"),
            policy_drops: r.counter("driver.policy_drops"),
            errors: r.counter("driver.errors"),
            wave_prefix_packets: r.counter("driver.wave_prefix.packets"),
            wave_prefix_survivors: r.counter("driver.wave_prefix.survivors"),
            batch_ns: r.histogram("driver.batch_ns"),
            delivery_hops: r.histogram("packet.delivery_hops"),
            switch_packets: r.counter_family("switch.packets", &labels),
            switch_hops: r.counter_family("switch.hops", &labels),
            switch_state_writes: r.counter_family("switch.state_writes", &labels),
            telemetry,
        })
    }

    /// The underlying telemetry instance (for trace sampling control,
    /// event recording and snapshots).
    pub fn telemetry(&self) -> &Telemetry {
        &self.telemetry
    }

    /// Wave-prefix counters as `(packets, survivors)` — the per-instance
    /// successor of the removed process-wide `wave_prefix_stats()`.
    pub fn wave_prefix_stats(&self) -> (u64, u64) {
        (
            self.wave_prefix_packets.get(),
            self.wave_prefix_survivors.get(),
        )
    }
}

/// Append a set of egress queues to a snapshot as three `(port, value)`
/// families — enqueued, backpressure drops and current depth — named
/// `<prefix>.enqueued` / `.dropped` / `.depth`. Queue stats are computed
/// at snapshot time from the queues' own counters rather than
/// double-counted on the delivery path.
pub fn export_egress(snap: &mut MetricsSnapshot, prefix: &str, queues: &EgressQueues) {
    let mut enqueued = Vec::new();
    let mut dropped = Vec::new();
    let mut depth = Vec::new();
    for port in queues.ports() {
        let label = format!("port{}", port.0);
        enqueued.push((label.clone(), queues.enqueued(port)));
        dropped.push((label.clone(), queues.dropped(port)));
        depth.push((label, queues.depth(port) as u64));
    }
    snap.families.insert(format!("{prefix}.enqueued"), enqueued);
    snap.families.insert(format!("{prefix}.dropped"), dropped);
    snap.families.insert(format!("{prefix}.depth"), depth);
}

/// Append one switch's [`SwitchStore`](crate::SwitchStore) lock
/// contention to a snapshot as two families — `store.shard.acquisitions` /
/// `.contended`, one row labelled `<owner>` — appending to rows already
/// exported for other switches. The readings are taken off the store at
/// snapshot time, so the packet path pays one relaxed add per counted lock
/// and nothing per snapshot-less run.
///
/// Alongside them goes `store.table.entries`, row label `<owner>/<var>`:
/// the written entries of every table the switch holds, counted at
/// snapshot time (the packet path keeps no size counter).
pub fn export_shards(snap: &mut MetricsSnapshot, owner: &str, store: &crate::SwitchStore) {
    let entries = store.table_entries().into_iter();
    let entries = entries.map(|(var, n)| (format!("{owner}/{var}"), n));
    for (name, rows) in [
        (
            "store.shard.acquisitions",
            vec![(owner.to_string(), store.acquisitions())],
        ),
        (
            "store.shard.contended",
            vec![(owner.to_string(), store.contended())],
        ),
        ("store.table.entries", entries.collect()),
    ] {
        snap.families
            .entry(name.to_string())
            .or_default()
            .extend(rows);
    }
}
