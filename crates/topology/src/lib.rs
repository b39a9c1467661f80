//! # snap-topology
//!
//! Physical topologies, topology generators and traffic matrices for the
//! SNAP compiler evaluation.
//!
//! * [`Topology`] — switches, directed capacitated links, OBS external ports,
//!   shortest-path queries.
//! * [`HopMatrix`] — all-pairs hop distances and shortest-path trees, built
//!   once for the many distance/path queries of placement and forwarding.
//! * [`generators`] — the Figure 2 campus topology, random enterprise/ISP-like
//!   topologies with the switch/edge counts of Table 5, and IGen-like
//!   topologies for the scaling experiment of Figure 10.
//! * [`TrafficMatrix`] — gravity-model traffic matrices (Roughan's model, as
//!   used in §6.2), uniform matrices and demand aggregation.
//!
//! ```
//! use snap_topology::{generators, TrafficMatrix};
//!
//! let topo = generators::campus();
//! let tm = TrafficMatrix::gravity(&topo, 1_000.0, 7);
//! assert_eq!(topo.num_external_ports(), 6);
//! assert_eq!(tm.num_demands(), 30);
//! ```

#![warn(missing_docs)]

pub mod generators;
pub mod graph;
pub mod hops;
pub mod traffic;

pub use generators::{campus, igen_topology, random_topology, RandomTopologySpec};
pub use graph::{Link, NodeId, PortId, Topology};
pub use hops::HopMatrix;
pub use traffic::TrafficMatrix;
