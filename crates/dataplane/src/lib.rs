//! # snap-dataplane
//!
//! The per-switch execution core of the SNAP data plane: what one switch
//! needs to run packets through its view of the one distributed program —
//! the single-switch step, its state store, its egress queues and the
//! telemetry handles the packet driver records through. It does not own
//! switches, configurations, updates, or the loop that walks a packet from
//! switch to switch: `snap-distrib`'s agent fleet and its packet driver do.
//!
//! * [`exec`] — the single-switch step, the in-flight packet and its §4.5
//!   tag, slot bindings and the hop distances the driver forwards by
//!   ([`NextHops`]);
//! * [`store`] — per-switch state: every variable the switch owns in one
//!   table set behind one lock ([`SwitchStore`]), held by a flight from its
//!   first state access at the switch until its step there returns;
//! * [`egress`] — bounded per-port FIFO queues with backpressure counters
//!   ([`EgressQueues`]);
//! * [`PlaneTelemetry`] — the pre-registered `snap-telemetry` handle
//!   bundle the driver records through: per-instance packet / hop /
//!   state-write counters, wave-prefix survivor ratios, latency
//!   histograms and 1-in-N sampled packet traces, aggregated only on read.
//!
//! Programs are executed via their flat node ids — on an agent, its
//! mirror's ids, the same on every switch — which double as the §4.5
//! packet-tag node identifiers; dispatch is pure index arithmetic at
//! packet time ([`snap_xfdd::FlatProgram::advance_stateless`]).

#![warn(missing_docs)]

pub mod egress;
pub mod exec;
pub mod metrics;
pub mod store;

pub use egress::{EgressEvent, EgressQueues, DEFAULT_QUEUE_CAPACITY};
pub use exec::{bind_slots, InFlight, NextHops, Progress, SimError, SlotBinding, StepOutcome};
pub use metrics::{export_egress, export_shards, PlaneTelemetry};
pub use store::{SwitchStore, TableId};
