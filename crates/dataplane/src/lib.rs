//! # snap-dataplane
//!
//! The execution core of the SNAP data plane: driver, exec, shards, egress,
//! traffic engine. It runs packets through per-switch views of one
//! distributed program; it does not own switches, configurations or
//! updates — `snap-distrib`'s agent fleet does, and plugs in through
//! [`ViewResolver`] / [`EgressSink`] / [`TrafficTarget`].
//!
//! * [`driver`] — the one packet driver: a single
//!   Emit/Dropped/NeedState/Fork dispatch loop, parameterized over a
//!   [`ViewResolver`] (how a hop resolves its executable view) and an
//!   [`EgressSink`] (where deliveries land), executing batches grouped per
//!   switch so state locking is amortized per (switch, batch-group);
//! * [`exec`] — the single-switch step underneath it, the in-flight packet
//!   and its §4.5 tag, slot bindings and the store lease;
//! * [`shards`] — per-switch state: commuting updates buffer lock-free in
//!   per-worker replicas and merge into the [`StateShards`] at group end,
//!   exact variables take one key-range shard lock;
//! * [`egress`] — bounded per-port FIFO queues with backpressure counters
//!   ([`EgressQueues`]);
//! * [`TrafficEngine`] — drives a packet workload through any
//!   [`TrafficTarget`] from N worker threads with per-worker egress
//!   collection;
//! * [`PlaneTelemetry`] — the pre-registered `snap-telemetry` handle
//!   bundle the driver records through: per-instance packet / hop /
//!   state-write counters, wave-prefix survivor ratios, latency
//!   histograms and 1-in-N sampled packet traces, aggregated only on read;
//! * [`NetAsmProgram`] — a NetASM-like instruction listing lowered from
//!   the dense [`snap_xfdd::FlatProgram`] plus an interpreter (§5). Nothing
//!   here executes it: it reproduces the paper's Table 3 instruction counts
//!   and is differentially tested against the xFDD it was lowered from.
//!
//! Programs are executed via their flat node ids — on an agent, its
//! mirror's ids, the same on every switch — which double as the §4.5
//! packet-tag node identifiers; dispatch is pure index arithmetic at
//! packet time.

#![warn(missing_docs)]

pub mod driver;
pub mod egress;
pub mod exec;
pub mod metrics;
pub mod netasm;
mod pins;
pub mod shards;
pub mod traffic;

pub use driver::{BatchResults, Driver, EgressSink, HopView, Ingress, ViewResolver};
pub use egress::{EgressEvent, EgressQueues, DEFAULT_QUEUE_CAPACITY};
pub use exec::{
    bind_slots, InFlight, NextHops, Progress, ReplicaBuffer, SimError, SlotBinding, StepOutcome,
    StoreLease,
};
pub use metrics::{export_egress, export_shards, PlaneTelemetry};
pub use netasm::{Instruction, NetAsmProgram};
pub use shards::{Shard, StateShards, TableId, DEFAULT_STATE_SHARDS};
pub use traffic::{TargetBatch, TrafficEngine, TrafficReport, TrafficTarget};
