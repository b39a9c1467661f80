//! # snap-dataplane
//!
//! A concurrent, stateful software data plane for SNAP: a NetASM-like
//! instruction set lowered from flattened xFDDs, and a network simulator
//! that executes *distributed* SNAP programs hop by hop over a physical
//! topology while configurations are swapped underneath it.
//!
//! The paper's prototype emits NetASM and runs it on the NetASM software
//! switch; that artifact is not available, so this crate implements an
//! equivalent substrate:
//!
//! * [`NetAsmProgram`] — branch / table / store instructions lowered from
//!   the dense [`snap_xfdd::FlatProgram`] (one block per *distinct* node —
//!   sharing in the arena is sharing in the instruction stream), plus an
//!   interpreter (§5);
//! * [`Network`] / [`SwitchConfig`] — per-switch programs and state tables,
//!   packet injection at OBS ports and hop-by-hop forwarding, used to verify
//!   that distributed execution matches the one-big-switch semantics.
//!   [`Network::inject`] takes `&self`: the running configuration is an
//!   immutable, atomically-swappable [`ConfigSnapshot`] (RCU-style —
//!   readers never block on a recompile) over sharded per-switch state;
//! * [`driver`] — the one generic packet driver behind every plane: a
//!   single Emit/Dropped/NeedState/Fork dispatch loop, parameterized over a
//!   [`ViewResolver`] (how a hop resolves its executable view) and an
//!   [`EgressSink`] (where deliveries land), executing batches grouped per
//!   switch so state locking is amortized per (switch, batch-group):
//!   commuting updates buffer lock-free in per-worker replicas and merge
//!   into the [`StateShards`] at group end, exact variables take one
//!   key-range shard lock. Both [`Network`] and the distributed plane of
//!   `snap-distrib` are thin adapters over it;
//! * [`TrafficEngine`] — drives a packet workload through any
//!   [`TrafficTarget`] (the in-process network, the queue-delivering
//!   [`QueuedNetwork`], the distributed plane) from N worker threads with
//!   per-worker egress collection;
//! * [`PlaneTelemetry`] — the pre-registered `snap-telemetry` handle
//!   bundle the driver records through: per-instance packet / hop /
//!   state-write counters, wave-prefix survivor ratios, latency
//!   histograms and 1-in-N sampled packet traces, aggregated only on
//!   read ([`Network::metrics_snapshot`]).
//!
//! Programs are executed via their dense flat node ids, which double as the
//! §4.5 packet-tag node identifiers; the flattening is pure index
//! arithmetic at packet time.

#![warn(missing_docs)]

pub mod driver;
pub mod egress;
pub mod exec;
pub mod metrics;
pub mod netasm;
pub mod network;
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
pub use network::{BatchOutput, ConfigSnapshot, Network, QueuedBatchOutput, SwitchConfig};
pub use shards::{Shard, StateShards, TableId, DEFAULT_STATE_SHARDS};
pub use traffic::{QueuedNetwork, TargetBatch, TrafficEngine, TrafficReport, TrafficTarget};
