//! # snap-xfdd
//!
//! Extended forwarding decision diagrams (xFDDs), the intermediate
//! representation of the SNAP compiler (§4.2 of the paper) — hash-consed.
//!
//! An xFDD is a binary-decision-diagram-like structure whose interior nodes
//! are tests over packet fields (`f = v`), pairs of fields (`f1 = f2`) or
//! state variables (`s[e] = e`), and whose leaves are sets of action
//! sequences. Compared to the FDDs of stateless NetKAT compilers, the
//! field-field and state tests (and the state-variable ordering coming from
//! dependency analysis) are the extensions that make stateful compilation
//! possible.
//!
//! Diagrams live in a per-compilation arena, the [`Pool`]: structurally
//! equal subdiagrams are interned to a single [`NodeId`], the composition
//! operators are memoized, and the stable ids double as the §4.5 packet-tag
//! node identifiers executed directly by the data plane. A finished diagram
//! is frozen into a cheaply clonable [`Xfdd`] handle. Node payloads — leaves
//! and tests — are immutable [`Shared`] handles carrying their content hash,
//! so moving a diagram between pools (publishing, distributing, compacting)
//! copies handles, never content.
//!
//! The crate provides:
//!
//! * the arena ([`Pool`], [`Node`], [`NodeId`]) and the frozen diagram handle
//!   ([`Xfdd`]), plus tests ([`Test`]) and leaf actions ([`Action`],
//!   [`ActionSeq`], [`Leaf`]),
//! * the composition operators `⊕` ([`Pool::union`]), `⊖` ([`Pool::negate`])
//!   and `⊙` ([`Pool::seq`]) with the context-based refinement of
//!   Appendix B/E, all memoized,
//! * translation from SNAP policies ([`to_xfdd`], [`compile`]) including
//!   race detection,
//! * state dependency analysis ([`StateDependencies`]) and the derived
//!   state-variable order ([`VarOrder`]),
//! * the machinery for long-lived compilation sessions: pool-to-pool import
//!   ([`Pool::import`]) into the append-only distribution pool, a
//!   mark-from-roots compactor ([`Pool::compact`]) bounding arena growth,
//!   and the one wire payload for programs — a node-table suffix
//!   ([`encode_delta`] / [`apply_delta`]), a full table being the delta from
//!   a fresh pool,
//! * one executable form, made once per node: the flat program
//!   ([`FlatProgram`] — a table of lowered nodes plus a root, so per-packet
//!   evaluation is index arithmetic instead of arena chasing; a one-off
//!   flatten numbers the reachable subgraph densely child-first, a switch's
//!   [`Mirror`] lowers each node as it arrives and numbers it by mirror
//!   position), whose branches carry their dispatch entries — runs of
//!   same-field tests collapsed into per-field dispatch stages, so a whole
//!   field-test chain resolves with one field load and one indexed lookup
//!   ([`FlatProgram::advance_stateless`], [`FlatProgram::evaluate`]).
//!
//! ## Example
//!
//! ```
//! use snap_lang::prelude::*;
//!
//! let program = ite(
//!     test(Field::SrcPort, Value::Int(53)),
//!     state_incr("dns-count", vec![field(Field::DstIp)]),
//!     id(),
//! );
//! let xfdd = snap_xfdd::compile(&program).unwrap();
//! assert!(xfdd.is_well_formed());
//!
//! // The diagram behaves exactly like the program.
//! let pkt = Packet::new().with(Field::SrcPort, 53).with(Field::DstIp, Value::ip(10, 0, 0, 1));
//! let (packets, store) = xfdd.evaluate(&pkt, &Store::new()).unwrap();
//! assert_eq!(packets.len(), 1);
//! assert_eq!(store.get(&StateVar::new("dns-count"), &[Value::ip(10, 0, 0, 1)]), Value::Int(1));
//! ```

#![warn(missing_docs)]

pub mod action;
pub mod compact;
pub mod compose;
pub mod context;
pub mod deps;
pub mod diagram;
pub mod error;
pub mod flat;
mod fx;
pub mod import;
pub mod pool;
pub mod shared;
pub mod tables;
pub mod test;
pub mod translate;
pub mod wire;

pub use action::{Action, ActionSeq, Leaf};
pub use compact::RemapTable;
pub use deps::StateDependencies;
pub use diagram::{eval_test, Xfdd};
pub use error::CompileError;
pub use flat::{FlatId, FlatLeaf, FlatNode, FlatProgram, Mirror, VarSlot};
pub use fx::FxHasher;
pub use pool::{CtxId, Node, NodeId, Pool};
pub use shared::{Hashed, Shared};
pub use tables::{Lookup, TableProgram};
pub use test::{Test, VarOrder};
pub use translate::{compile, to_xfdd, translate_with, SubtreeMemo};
pub use wire::{apply_delta, decode_delta_fresh, encode_delta, WireError};
