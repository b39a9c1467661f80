//! # snap-core
//!
//! The SNAP compiler: everything needed to take a one-big-switch SNAP policy
//! (from `snap-lang`) and realize it on a physical topology
//! (from `snap-topology`), following §4 of the paper:
//!
//! 1. state dependency analysis (re-exported from `snap-xfdd`),
//! 2. translation to xFDDs (re-exported from `snap-xfdd`),
//! 3. packet-state mapping ([`PacketStateMap`]),
//! 4. joint state placement and routing ([`optimize`]) — a heuristic placer,
//!    with the Table 2 MILP (solved by `snap-milp`) as its test oracle,
//! 5. rule generation ([`rulegen`]) producing the per-switch metadata
//!    ([`SwitchMeta`]) a distribution plane ships alongside the program.
//!
//! The [`Compiler`] type ties the phases together and reports per-phase
//! timings (the paper's P1–P6), which the benchmark harness uses to
//! regenerate Table 6 and Figures 9–11.
//!
//! ```
//! use snap_core::Compiler;
//! use snap_lang::prelude::*;
//! use snap_topology::{generators, TrafficMatrix};
//!
//! // Count packets per ingress port and send everything to port 6.
//! let policy = state_incr("count", vec![field(Field::InPort)])
//!     .seq(modify(Field::OutPort, Value::Int(6)));
//! let topo = generators::campus();
//! let tm = TrafficMatrix::uniform(&topo, 10.0);
//! let compiler = Compiler::new(topo, tm);
//! let compiled = compiler.compile(&policy).unwrap();
//! assert_eq!(compiled.placement.placement.len(), 1);
//! ```

#![warn(missing_docs)]

pub mod mapping;
pub mod optimize;
pub mod pipeline;
pub mod rulegen;

pub use mapping::{PacketStateMap, VarSet};
pub use optimize::{
    place_and_route, reroute, OptimizeInput, OptimizeTimings, PlacementResult, SolverChoice,
};
pub use pipeline::{Compiled, Compiler, PhaseTimings};
pub use rulegen::{generate_rules, RuleGenOutput, SwitchMeta};

// Re-export the analysis passes that live with the xFDD crate so that users
// of the compiler see one coherent API.
pub use snap_xfdd::{to_xfdd, CompileError, StateDependencies, Xfdd};
