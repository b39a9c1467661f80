//! Rule generation (§4.5): what each switch needs besides the program.
//!
//! Rule generation combines the xFDD with the placement/routing decision.
//! The program itself is one interned diagram every switch carries whole —
//! the arena's stable node ids are the SNAP-header tags, so resuming
//! processing needs no separate node-addressable flattening — which leaves,
//! per switch, (i) the set of state variables it owns and the external ports
//! it hosts ([`SwitchMeta`]) and (ii) the forwarding paths chosen for each
//! OBS port pair.
//!
//! The output references what it is generated from instead of copying it:
//! the forwarding paths *are* the placement's ([`RuleGenOutput::forwarding`]
//! reads the shared [`PlacementResult`]).

use crate::optimize::PlacementResult;
use snap_lang::StateVar;
use snap_topology::{NodeId, PortId, Topology};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

/// The per-switch metadata that travels alongside the (shared) program:
/// what the switch owns and which external ports it hosts.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct SwitchMeta {
    /// State variables placed on this switch.
    pub local_vars: BTreeSet<StateVar>,
    /// OBS external ports attached to this switch.
    pub ports: BTreeSet<PortId>,
}

/// The output of rule generation.
#[derive(Clone, Debug)]
pub struct RuleGenOutput {
    /// Every switch of the topology with its metadata.
    pub switches: BTreeMap<NodeId, SwitchMeta>,
    /// The placement and routing decision the rules implement.
    placement: Arc<PlacementResult>,
}

impl RuleGenOutput {
    /// The forwarding path chosen for each OBS port pair.
    pub fn forwarding(&self) -> &BTreeMap<(PortId, PortId), Vec<NodeId>> {
        &self.placement.paths
    }

    /// How many switches hold state or host ports. The rest only forward:
    /// they still carry the program (they may become relevant after a TE
    /// re-route) but are not counted towards rule statistics.
    pub fn relevant_switches(&self) -> usize {
        let relevant = |m: &&SwitchMeta| !m.local_vars.is_empty() || !m.ports.is_empty();
        self.switches.values().filter(relevant).count()
    }
}

/// Generate the per-switch metadata: every switch of `topology` with the
/// external ports attached to it and the variables `placement` puts there.
pub fn generate_rules(topology: &Topology, placement: &Arc<PlacementResult>) -> RuleGenOutput {
    let mut switches: BTreeMap<NodeId, SwitchMeta> = topology
        .nodes()
        .map(|n| (n, SwitchMeta::default()))
        .collect();
    for (port, node) in topology.external_ports() {
        switches.entry(node).or_default().ports.insert(port);
    }
    for (var, node) in &placement.placement {
        let owner = switches.entry(*node).or_default();
        owner.local_vars.insert(var.clone());
    }
    RuleGenOutput {
        switches,
        placement: Arc::clone(placement),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mapping::PacketStateMap;
    use crate::optimize::{place_and_route, OptimizeInput, SolverChoice};
    use snap_lang::builder::*;
    use snap_lang::{Field, Policy, Value};
    use snap_topology::{generators::campus, TrafficMatrix};
    use snap_xfdd::StateDependencies;

    fn compile_small() -> (snap_topology::Topology, Arc<PlacementResult>) {
        let policy: Policy = state_incr("count", vec![field(Field::InPort)]).seq(ite(
            test_prefix(Field::DstIp, 10, 0, 6, 0, 24),
            modify(Field::OutPort, Value::Int(6)),
            modify(Field::OutPort, Value::Int(1)),
        ));
        let topo = campus();
        let tm = TrafficMatrix::uniform(&topo, 1.0);
        let deps = StateDependencies::analyze(&policy);
        let d = snap_xfdd::compile(&policy).unwrap();
        let ports: Vec<PortId> = topo.external_ports().map(|(p, _)| p).collect();
        let psm = PacketStateMap::analyze(&d, &ports);
        let input = OptimizeInput {
            topology: &topo,
            traffic: &tm,
            mapping: &psm,
            deps: &deps,
        };
        let placement = Arc::new(place_and_route(&input, SolverChoice::Heuristic));
        (topo, placement)
    }

    #[test]
    fn every_switch_gets_a_config_and_state_owners_get_their_vars() {
        let (topo, placement) = compile_small();
        let out = generate_rules(&topo, &placement);
        assert_eq!(out.switches.len(), topo.num_nodes());
        let count = StateVar::new("count");
        let owner = placement.placement[&count];
        assert!(out.switches[&owner].local_vars.contains(&count));
        // Exactly one switch owns the variable.
        let owns = |m: &&SwitchMeta| m.local_vars.contains(&count);
        assert_eq!(out.switches.values().filter(owns).count(), 1);
        // Every external port is hosted exactly where the topology says.
        for (port, node) in topo.external_ports() {
            assert!(out.switches[&node].ports.contains(&port));
        }
        let hosted: usize = out.switches.values().map(|m| m.ports.len()).sum();
        assert_eq!(hosted, topo.external_ports().count());
    }

    #[test]
    fn rule_statistics_are_positive_and_paths_are_shared() {
        let (topo, placement) = compile_small();
        let out = generate_rules(&topo, &placement);
        // Port hosts plus the state owner; pure transit switches are not.
        let mut relevant: BTreeSet<NodeId> = topo.external_ports().map(|(_, n)| n).collect();
        relevant.extend(placement.placement.values());
        assert_eq!(out.relevant_switches(), relevant.len());
        assert!(relevant.len() < topo.num_nodes());
        // The paths are the placement's own, not a copy.
        assert!(std::ptr::eq(out.forwarding(), &placement.paths));
    }
}
