//! Interval statistics and the continuous invariant monitors.
//!
//! Every sampling interval the monitor thread turns one
//! [`SnapshotDelta`] into an [`IntervalStats`] record (the rate
//! time-series of `BENCH_soak.json`) and evaluates the live-telemetry
//! invariants against the interval's snapshot:
//!
//! * **epoch purity** — no sampled packet trace mixes two epochs: every
//!   hop of a trace executed under the trace's ingress epoch;
//! * **per-port FIFO** — the monitor is the sole drainer of the egress
//!   queues, and each port's drained sequence numbers must continue
//!   exactly where the previous drain stopped (seqs are assigned under
//!   the queue lock only on successful enqueue, so gaps or reordering
//!   mean the queue broke);
//! * **bounded memory** — the trace ring and the event log never exceed
//!   their capacity, no egress queue reports a depth past its bound, no
//!   commit event retains more than
//!   [`AgentTimings::SUMMARY_THRESHOLD`] per-agent timing entries (the
//!   O(1)-per-event guarantee that keeps the log flat at a thousand
//!   agents), and the `pool.live_nodes` / `pool.distribution_nodes`
//!   gauges stay under the configured ceilings;
//! * **exact state** (quiesce points only — see the crate docs for the
//!   exactness caveat) — the aggregated `count[inport]` totals equal the
//!   independently folded per-port injection ledger.
//!
//! A violation is recorded as a structured [`Violation`] with the
//! interval's full snapshot attached (JSON), bounded to the first
//! [`MAX_RETAINED_VIOLATIONS`] so a pathological run cannot OOM the
//! monitor itself.

use snap_distrib::DistNetwork;
use snap_lang::Value;
use snap_telemetry::{AgentTimings, CommitEvent, MetricsSnapshot, SnapshotDelta};
use snap_topology::PortId;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};

/// One interval of the soak's rate time-series, derived from a
/// [`SnapshotDelta`].
#[derive(Clone, Debug)]
pub struct IntervalStats {
    /// Zero-based interval index.
    pub index: usize,
    /// Seconds since the soak's traffic started, at the interval's end.
    pub at_secs: f64,
    /// The interval's measured length in seconds.
    pub elapsed_secs: f64,
    /// Packets admitted at ingress per second.
    pub pkts_per_s: f64,
    /// Egress deliveries per second.
    pub deliveries_per_s: f64,
    /// State actions applied per second (summed over switches).
    pub state_writes_per_s: f64,
    /// Two-phase commits that landed during the interval.
    pub commits: u64,
    /// Commits aborted during the interval.
    pub aborts: u64,
    /// Slowest prepare phase that landed during the interval (µs, 0 when
    /// no prepare finished).
    pub prepare_us_max: u64,
    /// Slowest commit phase that landed during the interval (µs).
    pub commit_us_max: u64,
    /// Slowest single agent ack across the interval's commit events (µs)
    /// — the straggler the fan-out waited on.
    pub slowest_ack_us: u64,
    /// Store-lock contention ratio: contended / total store-lock
    /// acquisitions on the packet path over the interval, summed over the
    /// switches (0 when no locks were taken).
    pub contention: f64,
    /// High-water egress queue depth across all ports, as exported at
    /// snapshot time.
    pub queue_depth_max: u64,
    /// Egress backpressure tail-drops during the interval.
    pub tail_drops: u64,
    /// Driver errors during the interval (must stay 0 in a clean soak).
    pub errors: u64,
    /// `pool.live_nodes` at the interval's end.
    pub pool_live_nodes: i64,
    /// `pool.distribution_nodes` at the interval's end.
    pub pool_distribution_nodes: i64,
    /// Max committed epoch across agents at the interval's end.
    pub epoch: i64,
    /// Epoch spread across agents (nonzero only mid-commit).
    pub epoch_skew: i64,
}

impl IntervalStats {
    /// Derive one interval record from a snapshot delta plus the newer
    /// snapshot it was computed from (`snap` supplies the point-in-time
    /// readings — queue depths — that a counter-style diff would hide).
    pub fn from_delta(
        index: usize,
        at_secs: f64,
        d: &SnapshotDelta,
        snap: &MetricsSnapshot,
    ) -> IntervalStats {
        let mut queue_depth_max = 0u64;
        for (name, rows) in &snap.families {
            if name.starts_with("egress.") && name.ends_with(".depth") {
                queue_depth_max =
                    queue_depth_max.max(rows.iter().map(|(_, v)| *v).max().unwrap_or(0));
            }
        }
        let mut tail_drops = 0u64;
        for (name, rows) in &d.families {
            if name.starts_with("egress.") && name.ends_with(".dropped") {
                tail_drops += rows.iter().map(|(_, v)| v).sum::<u64>();
            }
        }
        let mut prepare_us_max = 0u64;
        let mut commit_us_max = 0u64;
        let mut slowest_ack_us = 0u64;
        for rec in &d.events {
            match &rec.event {
                CommitEvent::Prepare {
                    micros, per_agent, ..
                } => {
                    prepare_us_max = prepare_us_max.max(*micros);
                    slowest_ack_us = slowest_ack_us.max(per_agent.max_us());
                }
                CommitEvent::Commit {
                    micros, per_agent, ..
                } => {
                    commit_us_max = commit_us_max.max(*micros);
                    slowest_ack_us = slowest_ack_us.max(per_agent.max_us());
                }
                _ => {}
            }
        }
        IntervalStats {
            index,
            at_secs,
            elapsed_secs: d.secs(),
            pkts_per_s: d.rate("driver.packets"),
            deliveries_per_s: d.rate("driver.deliveries"),
            state_writes_per_s: d.family_rate("switch.state_writes"),
            commits: d
                .events
                .iter()
                .filter(|e| matches!(e.event, CommitEvent::Commit { .. }))
                .count() as u64,
            aborts: d
                .events
                .iter()
                .filter(|e| matches!(e.event, CommitEvent::Abort { .. }))
                .count() as u64,
            prepare_us_max,
            commit_us_max,
            slowest_ack_us,
            contention: d.family_ratio("store.shard.contended", "store.shard.acquisitions"),
            queue_depth_max,
            tail_drops,
            errors: d.counter("driver.errors"),
            pool_live_nodes: d.gauge("pool.live_nodes"),
            pool_distribution_nodes: d.gauge("pool.distribution_nodes"),
            epoch: d.gauge("network.epoch"),
            epoch_skew: d.gauge("network.epoch_skew"),
        }
    }

    /// One human-readable line per interval — rates, contention, depth —
    /// shared by `examples/telemetry_tour.rs` and the soak's progress
    /// output.
    pub fn render_line(&self) -> String {
        format!(
            "[{:>3}] t={:>6.1}s {:>9.0} pkt/s {:>9.0} deliv/s {:>9.0} writes/s  commits={:<2} contention={:.3} depth_max={:<5} drops={:<4} epoch={}",
            self.index,
            self.at_secs,
            self.pkts_per_s,
            self.deliveries_per_s,
            self.state_writes_per_s,
            self.commits,
            self.contention,
            self.queue_depth_max,
            self.tail_drops,
            self.epoch,
        )
    }
}

/// One invariant violation, with the interval's snapshot attached.
#[derive(Clone, Debug)]
pub struct Violation {
    /// The interval the violation was observed in (`usize::MAX` for the
    /// final post-quiesce check).
    pub interval: usize,
    /// Which monitor fired: `epoch-purity`, `fifo`, `bounded-memory`,
    /// `exact-state` or `worker-errors`.
    pub monitor: &'static str,
    /// What exactly was violated.
    pub detail: String,
    /// The interval's full metrics snapshot, rendered as JSON at the
    /// moment the violation was recorded.
    pub snapshot_json: String,
}

/// Violations retained with full detail; further ones only count.
pub const MAX_RETAINED_VIOLATIONS: usize = 16;

/// The per-port injection ledger the exact-state monitor folds against:
/// one atomic cell per external port, incremented by traffic workers for
/// every packet that completed processing.
pub struct Ledger {
    counts: Vec<AtomicU64>,
}

impl Ledger {
    /// A ledger for ports `1..=max_port`.
    pub fn new(max_port: usize) -> Ledger {
        Ledger {
            counts: (0..=max_port).map(|_| AtomicU64::new(0)).collect(),
        }
    }

    /// Count one processed packet that entered at `port`.
    pub fn bump(&self, port: PortId) {
        if let Some(cell) = self.counts.get(port.0) {
            cell.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// The ledger's reading for a port.
    pub fn get(&self, port: PortId) -> u64 {
        self.counts
            .get(port.0)
            .map_or(0, |c| c.load(Ordering::Relaxed))
    }

    /// Total packets across all ports.
    pub fn total(&self) -> u64 {
        self.counts.iter().map(|c| c.load(Ordering::Relaxed)).sum()
    }

    /// Ports with a nonzero count.
    pub fn active_ports(&self) -> Vec<PortId> {
        self.counts
            .iter()
            .enumerate()
            .filter(|(_, c)| c.load(Ordering::Relaxed) > 0)
            .map(|(i, _)| PortId(i))
            .collect()
    }
}

/// Ceilings for the bounded-memory monitor.
#[derive(Clone, Copy, Debug)]
pub struct MemoryBounds {
    /// Trace-ring capacity (traces in a snapshot must not exceed it).
    pub trace_capacity: usize,
    /// Event-log capacity.
    pub event_capacity: usize,
    /// Per-port egress queue capacity.
    pub queue_capacity: usize,
    /// Ceiling for the `pool.live_nodes` gauge.
    pub max_session_pool_nodes: i64,
    /// Ceiling for the `pool.distribution_nodes` gauge.
    pub max_distribution_nodes: i64,
}

/// The stateful monitor set: FIFO cursors per port, violation retention.
pub struct Monitors {
    bounds: MemoryBounds,
    fifo_next: BTreeMap<PortId, u64>,
    /// Retained violations (first [`MAX_RETAINED_VIOLATIONS`]).
    pub violations: Vec<Violation>,
    /// Total violations observed, including unretained ones.
    pub total: u64,
}

impl Monitors {
    /// A fresh monitor set with the given memory ceilings.
    pub fn new(bounds: MemoryBounds) -> Monitors {
        Monitors {
            bounds,
            fifo_next: BTreeMap::new(),
            violations: Vec::new(),
            total: 0,
        }
    }

    /// Record one violation (bounded retention).
    pub fn record(
        &mut self,
        interval: usize,
        monitor: &'static str,
        detail: String,
        snap: &MetricsSnapshot,
    ) {
        self.total += 1;
        if self.violations.len() < MAX_RETAINED_VIOLATIONS {
            self.violations.push(Violation {
                interval,
                monitor,
                detail,
                snapshot_json: snap.to_json(),
            });
        }
    }

    /// Epoch purity: every hop of every sampled trace in the snapshot
    /// executed under the trace's ingress epoch.
    pub fn check_epoch_purity(&mut self, interval: usize, snap: &MetricsSnapshot) {
        let mut impure = Vec::new();
        for trace in &snap.traces {
            if let Some(hop) = trace.hops.iter().find(|h| h.epoch != trace.ingress_epoch) {
                impure.push(format!(
                    "trace in@port{} stamped epoch {} but hop at {} ran epoch {}",
                    trace.inport, trace.ingress_epoch, hop.switch_name, hop.epoch
                ));
            }
        }
        if !impure.is_empty() {
            self.record(interval, "epoch-purity", impure.join("; "), snap);
        }
    }

    /// Per-port FIFO: drain every external port and verify the sequence
    /// numbers continue consecutively from the previous drain. The
    /// monitor must be the only drainer for this to be sound.
    pub fn check_fifo(&mut self, interval: usize, network: &DistNetwork, snap: &MetricsSnapshot) {
        let ports: Vec<PortId> = network
            .topology()
            .external_ports()
            .map(|(p, _)| p)
            .collect();
        for port in ports {
            for event in network.drain_port(port) {
                let expected = *self.fifo_next.entry(port).or_insert(event.seq);
                if event.seq != expected {
                    self.record(
                        interval,
                        "fifo",
                        format!(
                            "port{} expected seq {} but drained {} (gap or reorder)",
                            port.0, expected, event.seq
                        ),
                        snap,
                    );
                }
                // Advance (and resynchronize after a gap) so one gap is
                // one violation, not one per subsequent event.
                self.fifo_next.insert(port, event.seq + 1);
            }
        }
    }

    /// Bounded memory: trace ring, event log, egress depths and the two
    /// pool gauges all under their ceilings.
    pub fn check_bounded_memory(&mut self, interval: usize, snap: &MetricsSnapshot) {
        let b = self.bounds;
        if snap.traces.len() > b.trace_capacity {
            self.record(
                interval,
                "bounded-memory",
                format!(
                    "trace ring holds {} traces, capacity {}",
                    snap.traces.len(),
                    b.trace_capacity
                ),
                snap,
            );
        }
        if snap.events.len() > b.event_capacity {
            self.record(
                interval,
                "bounded-memory",
                format!(
                    "event log holds {} records, capacity {}",
                    snap.events.len(),
                    b.event_capacity
                ),
                snap,
            );
        }
        let mut depth_excess = Vec::new();
        for (name, rows) in &snap.families {
            if name.starts_with("egress.") && name.ends_with(".depth") {
                for (label, depth) in rows {
                    if *depth > b.queue_capacity as u64 {
                        depth_excess.push(format!("{name}[{label}] = {depth}"));
                    }
                }
            }
        }
        if !depth_excess.is_empty() {
            self.record(
                interval,
                "bounded-memory",
                format!(
                    "egress depth past capacity {}: {}",
                    b.queue_capacity,
                    depth_excess.join(", ")
                ),
                snap,
            );
        }
        // Commit events must stay O(1) regardless of fleet size: above
        // `AgentTimings::SUMMARY_THRESHOLD` agents the controller is
        // required to summarize per-agent timings, so no retained event
        // may store more per-agent entries than the threshold.
        let mut oversized = Vec::new();
        for rec in &snap.events {
            let per_agent = match &rec.event {
                CommitEvent::Prepare { per_agent, .. } | CommitEvent::Commit { per_agent, .. } => {
                    per_agent
                }
                _ => continue,
            };
            if per_agent.stored_entries() > AgentTimings::SUMMARY_THRESHOLD {
                oversized.push(format!(
                    "event #{} (epoch {}) stores {} per-agent entries",
                    rec.seq,
                    rec.event.epoch(),
                    per_agent.stored_entries()
                ));
            }
        }
        if !oversized.is_empty() {
            self.record(
                interval,
                "bounded-memory",
                format!(
                    "commit events exceed the {}-entry timing bound: {}",
                    AgentTimings::SUMMARY_THRESHOLD,
                    oversized.join(", ")
                ),
                snap,
            );
        }
        for (gauge, ceiling) in [
            ("pool.live_nodes", b.max_session_pool_nodes),
            ("pool.distribution_nodes", b.max_distribution_nodes),
        ] {
            let v = snap.gauges.get(gauge).copied().unwrap_or(0);
            if v > ceiling {
                self.record(
                    interval,
                    "bounded-memory",
                    format!("{gauge} = {v} exceeds ceiling {ceiling}"),
                    snap,
                );
            }
        }
    }

    /// Exact state: fold `count[inport]` out of the aggregated store and
    /// compare against the injection ledger, port by port. **Only valid
    /// at a quiesce point** — see the crate docs; calling this while
    /// workers are mid-batch reports spurious mismatches.
    pub fn check_exact_state(
        &mut self,
        interval: usize,
        network: &DistNetwork,
        ledger: &Ledger,
        snap: &MetricsSnapshot,
    ) {
        let store = network.aggregate_store();
        let var = "count".into();
        let mut mismatches = Vec::new();
        for port in ledger.active_ports() {
            let expected = ledger.get(port);
            let got = store.get(&var, &[Value::Int(port.0 as i64)]);
            if got != Value::Int(expected as i64) {
                mismatches.push(format!(
                    "count[{}]: store {:?} != ledger {}",
                    port.0, got, expected
                ));
            }
        }
        if !mismatches.is_empty() {
            let shown = mismatches.len().min(8);
            self.record(
                interval,
                "exact-state",
                format!(
                    "{} port totals diverged (showing {}): {}",
                    mismatches.len(),
                    shown,
                    mismatches[..shown].join("; ")
                ),
                snap,
            );
        }
    }
}
