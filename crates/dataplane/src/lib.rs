//! # snap-dataplane
//!
//! The per-switch execution core of the SNAP data plane: what one switch
//! needs to run packets through its view of the one distributed program —
//! the single-switch step, its state shards, its egress queues and the
//! telemetry handles the packet driver records through. It does not own
//! switches, configurations, updates, or the loop that walks a packet from
//! switch to switch: `snap-distrib`'s agent fleet and its packet driver do.
//!
//! * [`exec`] — the single-switch step, the in-flight packet and its §4.5
//!   tag, slot bindings, the store lease and the hop distances the driver
//!   forwards by ([`NextHops`]);
//! * [`shards`] — per-switch state: commuting updates buffer lock-free in
//!   per-worker replicas and merge into the [`StateShards`] at group end,
//!   exact variables take one key-range shard lock;
//! * [`egress`] — bounded per-port FIFO queues with backpressure counters
//!   ([`EgressQueues`]);
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
//! packet time ([`snap_xfdd::FlatProgram::advance_stateless`]).

#![warn(missing_docs)]

pub mod egress;
pub mod exec;
pub mod metrics;
pub mod netasm;
pub mod shards;

pub use egress::{EgressEvent, EgressQueues, DEFAULT_QUEUE_CAPACITY};
pub use exec::{
    bind_slots, InFlight, NextHops, Progress, ReplicaBuffer, SimError, SlotBinding, StepOutcome,
    StoreLease,
};
pub use metrics::{export_egress, export_shards, PlaneTelemetry};
pub use netasm::{Instruction, NetAsmProgram};
pub use shards::{Shard, StateShards, TableId, DEFAULT_STATE_SHARDS};
