//! Rule generation (§4.5): per-switch configurations and data-plane programs.
//!
//! Rule generation combines the xFDD with the placement/routing decision:
//! every switch receives (i) a handle on the interned program — the arena's
//! stable node ids are the SNAP-header tags, so resuming processing needs no
//! separate node-addressable flattening, and distributing the "full diagram"
//! to every switch is an `Arc` clone — (ii) the set of state variables it
//! owns, and (iii) the forwarding paths chosen for each OBS port pair.
//!
//! The output references what it is generated from instead of copying it:
//! the forwarding paths *are* the placement's ([`RuleGenOutput::forwarding`]
//! reads the shared [`PlacementResult`]), and the NetASM-like lowering that
//! the rule-count statistics are taken from is computed when first asked
//! for ([`RuleGenOutput::program`]) — no compile, recompile or reroute pays
//! for a flatten and a lowering nothing on the update path reads.

use crate::optimize::PlacementResult;
use serde::{Deserialize, Serialize};
use snap_dataplane::{NetAsmProgram, SwitchConfig};
use snap_lang::StateVar;
use snap_topology::{NodeId, PortId, Topology};
use snap_xfdd::Xfdd;
use std::collections::{BTreeMap, BTreeSet};
use std::sync::{Arc, OnceLock};

/// The output of rule generation.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct RuleGenOutput {
    /// Per-switch configuration for the data-plane simulator.
    pub configs: Vec<SwitchConfig>,
    /// The placement and routing decision the rules implement.
    placement: Arc<PlacementResult>,
    /// The program every switch carries.
    xfdd: Xfdd,
    /// The lowered instruction program, once someone asked for it.
    program: OnceLock<NetAsmProgram>,
}

impl RuleGenOutput {
    /// The forwarding path chosen for each OBS port pair.
    pub fn forwarding(&self) -> &BTreeMap<(PortId, PortId), Vec<NodeId>> {
        &self.placement.paths
    }

    /// The lowered instruction program — one, the same on every switch
    /// (the totals below count it once per switch that owns state or hosts
    /// external ports; other switches only forward). Flattened and lowered
    /// on first request.
    pub fn program(&self) -> &NetAsmProgram {
        self.program
            .get_or_init(|| NetAsmProgram::lower_flat(&self.xfdd.flatten()))
    }

    /// Switches that neither hold state nor host ports only forward; they
    /// still receive the program (they may become relevant after a TE
    /// re-route) but are not counted towards the rule statistics.
    fn relevant_switches(&self) -> usize {
        let relevant = |c: &&SwitchConfig| !c.local_vars.is_empty() || !c.ports.is_empty();
        self.configs.iter().filter(relevant).count()
    }

    /// Total number of data-plane instructions across all switches.
    pub fn total_instructions(&self) -> usize {
        self.relevant_switches() * self.program().len()
    }

    /// Total number of stateful instructions across all switches.
    pub fn total_state_ops(&self) -> usize {
        self.relevant_switches() * self.program().num_state_ops()
    }
}

/// Generate per-switch configurations.
pub fn generate_rules(
    topology: &Topology,
    xfdd: &Xfdd,
    placement: &Arc<PlacementResult>,
) -> RuleGenOutput {
    // Which variables live on which switch.
    let mut vars_per_switch: BTreeMap<NodeId, BTreeSet<StateVar>> = BTreeMap::new();
    for (var, node) in &placement.placement {
        vars_per_switch
            .entry(*node)
            .or_default()
            .insert(var.clone());
    }
    RuleGenOutput {
        configs: SwitchConfig::for_topology(topology, xfdd, &vars_per_switch),
        placement: Arc::clone(placement),
        xfdd: xfdd.clone(),
        program: OnceLock::new(),
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

    fn compile_small() -> (snap_topology::Topology, Xfdd, Arc<PlacementResult>) {
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
    fn rule_statistics_are_positive_and_paths_are_shared() {
        let (topo, d, placement) = compile_small();
        let out = generate_rules(&topo, &d, &placement);
        assert!(out.total_instructions() > 0);
        assert!(out.total_state_ops() > 0);
        // The paths are the placement's own, not a copy.
        assert!(std::ptr::eq(out.forwarding(), &placement.paths));
        // Every switch with ports or state counts the one lowered program.
        assert!(!out.program().is_empty());
        assert_eq!(out.total_instructions() % out.program().len(), 0);
        let _ = d;
    }
}
