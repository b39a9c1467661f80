//! Rule generation (§4.5): per-switch configurations and data-plane programs.
//!
//! Rule generation combines the xFDD with the placement/routing decision:
//! every switch receives (i) a handle on the interned program — the arena's
//! stable node ids are the SNAP-header tags, so resuming processing needs no
//! separate node-addressable flattening, and distributing the "full diagram"
//! to every switch is an `Arc` clone — (ii) the set of state variables it
//! owns, and (iii) the forwarding paths chosen for each OBS port pair. The
//! program is also lowered once to the NetASM-like instruction set for
//! rule-count statistics.

use crate::optimize::PlacementResult;
use serde::{Deserialize, Serialize};
use snap_dataplane::{NetAsmProgram, SwitchConfig};
use snap_lang::StateVar;
use snap_topology::{NodeId, PortId, Topology};
use snap_xfdd::Xfdd;
use std::collections::{BTreeMap, BTreeSet};

/// The output of rule generation.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct RuleGenOutput {
    /// Per-switch configuration for the data-plane simulator.
    pub configs: Vec<SwitchConfig>,
    /// The forwarding path chosen for each OBS port pair.
    pub forwarding: BTreeMap<(PortId, PortId), Vec<NodeId>>,
    /// The lowered instruction program — one, the same on every switch
    /// (the totals below count it once per switch that owns state or hosts
    /// external ports; other switches only forward).
    pub program: NetAsmProgram,
    /// Total number of data-plane instructions across all switches.
    pub total_instructions: usize,
    /// Total number of stateful instructions across all switches.
    pub total_state_ops: usize,
}

/// Generate per-switch configurations.
pub fn generate_rules(
    topology: &Topology,
    xfdd: &Xfdd,
    placement: &PlacementResult,
) -> RuleGenOutput {
    // The lowered instruction program is identical on every switch; flatten
    // the diagram once (the same dense representation the dataplane
    // executes) and lower once.
    let flat = xfdd.flatten();
    let program = NetAsmProgram::lower_flat(&flat);

    // Which variables live on which switch.
    let mut vars_per_switch: BTreeMap<NodeId, BTreeSet<StateVar>> = BTreeMap::new();
    for (var, node) in &placement.placement {
        vars_per_switch
            .entry(*node)
            .or_default()
            .insert(var.clone());
    }
    let configs = SwitchConfig::for_topology(topology, xfdd, &vars_per_switch);

    // Switches that neither hold state nor host ports only forward; they
    // still receive the program (they may become relevant after a TE
    // re-route) but are not counted towards the rule statistics.
    let relevant = configs
        .iter()
        .filter(|c| !c.local_vars.is_empty() || !c.ports.is_empty())
        .count();

    RuleGenOutput {
        configs,
        forwarding: placement.paths.clone(),
        total_instructions: relevant * program.len(),
        total_state_ops: relevant * program.num_state_ops(),
        program,
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

    fn compile_small() -> (snap_topology::Topology, Xfdd, PlacementResult) {
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
        let placement = place_and_route(&input, SolverChoice::Heuristic);
        (topo, d, placement)
    }

    #[test]
    fn every_switch_gets_a_config_and_state_owners_get_their_vars() {
        let (topo, d, placement) = compile_small();
        let out = generate_rules(&topo, &d, &placement);
        assert_eq!(out.configs.len(), topo.num_nodes());
        let owner = placement.placement[&StateVar::new("count")];
        let owner_config = out.configs.iter().find(|c| c.node == owner).unwrap();
        assert!(owner_config.local_vars.contains(&StateVar::new("count")));
        // Exactly one switch owns the variable.
        let owners = out
            .configs
            .iter()
            .filter(|c| c.local_vars.contains(&StateVar::new("count")))
            .count();
        assert_eq!(owners, 1);
    }

    #[test]
    fn rule_statistics_are_positive_and_paths_are_copied() {
        let (topo, d, placement) = compile_small();
        let out = generate_rules(&topo, &d, &placement);
        assert!(out.total_instructions > 0);
        assert!(out.total_state_ops > 0);
        assert_eq!(out.forwarding, placement.paths);
        // Every switch with ports or state counts the one lowered program.
        assert!(!out.program.is_empty());
        assert_eq!(out.total_instructions % out.program.len(), 0);
        let _ = d;
    }
}
