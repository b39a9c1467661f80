//! The end-to-end SNAP compiler (Figure 5): state dependency analysis, xFDD
//! generation, packet-state mapping, placement/routing optimization and rule
//! generation — with per-phase timings matching Table 4 of the paper.

use crate::mapping::PacketStateMap;
use crate::optimize::{place_and_route, reroute, OptimizeInput, PlacementResult, SolverChoice};
use crate::rulegen::{generate_rules, RuleGenOutput};
use snap_lang::Policy;
use snap_topology::{PortId, Topology, TrafficMatrix};
use snap_xfdd::{to_xfdd, CompileError, Pool, StateDependencies, Xfdd};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Wall-clock time spent in each compiler phase (the paper's P1–P6).
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct PhaseTimings {
    /// P1 — state dependency analysis.
    pub dependency_analysis: Duration,
    /// P2 — xFDD generation.
    pub xfdd_generation: Duration,
    /// P3 — packet-state mapping.
    pub packet_state_mapping: Duration,
    /// P4 — MILP model creation (zero for the heuristic engine).
    pub milp_creation: Duration,
    /// P5 — placement and routing (ST or TE).
    pub optimization: Duration,
    /// P6 — rule generation.
    pub rule_generation: Duration,
}

impl PhaseTimings {
    /// Total compilation time.
    pub fn total(&self) -> Duration {
        self.dependency_analysis
            + self.xfdd_generation
            + self.packet_state_mapping
            + self.milp_creation
            + self.optimization
            + self.rule_generation
    }

    /// The program-analysis share (P1+P2+P3), as reported in Table 6.
    pub fn analysis(&self) -> Duration {
        self.dependency_analysis + self.xfdd_generation + self.packet_state_mapping
    }
}

/// A fully compiled program.
#[derive(Clone, Debug)]
pub struct Compiled {
    /// The source policy.
    pub policy: Policy,
    /// State dependency analysis results.
    pub deps: StateDependencies,
    /// The program's xFDD.
    pub xfdd: Xfdd,
    /// Packet-state mapping.
    pub mapping: PacketStateMap,
    /// Placement and routing decision, shared: the rules reference it, and
    /// a session that reuses a placement across recompiles hands out the
    /// same one.
    pub placement: Arc<PlacementResult>,
    /// Per-switch metadata and the forwarding paths.
    pub rules: RuleGenOutput,
    /// Per-phase timings for this compilation.
    pub timings: PhaseTimings,
}

/// The SNAP compiler for a particular topology and traffic matrix.
#[derive(Clone, Debug)]
pub struct Compiler {
    /// The target physical topology.
    pub topology: Topology,
    /// The expected traffic matrix.
    pub traffic: TrafficMatrix,
    /// The placement engine: the heuristic unless [`Self::with_solver`] says
    /// otherwise.
    solver: SolverChoice,
}

impl Compiler {
    /// A compiler that places with the heuristic.
    pub fn new(topology: Topology, traffic: TrafficMatrix) -> Self {
        Compiler {
            topology,
            traffic,
            solver: SolverChoice::default(),
        }
    }

    /// Place with a specific engine. Only the benchmark's `milp.exact.ms`
    /// leg asks for [`SolverChoice::Exact`]; this stays for it.
    pub fn with_solver(mut self, solver: SolverChoice) -> Self {
        self.solver = solver;
        self
    }

    /// The OBS external ports of the target topology.
    pub fn ports(&self) -> Vec<PortId> {
        self.topology.external_ports().map(|(p, _)| p).collect()
    }

    /// Compile a policy end to end (the "cold start" / "policy change"
    /// scenario: all phases run).
    pub fn compile(&self, policy: &Policy) -> Result<Compiled, CompileError> {
        // P1 — state dependency analysis.
        let t = Instant::now();
        let deps = StateDependencies::analyze(policy);
        let dependency_analysis = t.elapsed();

        // P2 — xFDD generation, into a fresh hash-consed pool that is frozen
        // into a shareable handle once translation finishes.
        let t = Instant::now();
        let mut pool = Pool::new(deps.var_order());
        let root = to_xfdd(policy, &mut pool)?;
        let xfdd = Xfdd::new(pool, root);
        let xfdd_generation = t.elapsed();

        // P3 — packet-state mapping.
        let t = Instant::now();
        let mapping = PacketStateMap::analyze(&xfdd, &self.ports());
        let packet_state_mapping = t.elapsed();

        // P4 + P5 — placement and routing.
        let input = OptimizeInput {
            topology: &self.topology,
            traffic: &self.traffic,
            mapping: &mapping,
            deps: &deps,
        };
        let (placement, opt_timings) = place_and_route(&input, self.solver);
        let placement = Arc::new(placement);

        // P6 — rule generation.
        let t = Instant::now();
        let rules = generate_rules(&self.topology, &placement);
        let rule_generation = t.elapsed();

        Ok(Compiled {
            policy: policy.clone(),
            deps,
            xfdd,
            mapping,
            placement,
            rules,
            timings: PhaseTimings {
                dependency_analysis,
                xfdd_generation,
                packet_state_mapping,
                milp_creation: opt_timings.model_creation,
                optimization: opt_timings.solving,
                rule_generation,
            },
        })
    }

    /// React to a topology/traffic-matrix change: keep the program and the
    /// placement, re-route with the heuristic's waypoint router whatever the
    /// engine, and regenerate rules (the paper's "TE" scenario). Returns the
    /// updated compilation artifacts.
    pub fn reroute(
        &self,
        compiled: &Compiled,
        new_traffic: &TrafficMatrix,
    ) -> (Compiled, PhaseTimings) {
        let input = OptimizeInput {
            topology: &self.topology,
            traffic: new_traffic,
            mapping: &compiled.mapping,
            deps: &compiled.deps,
        };
        let (placement, opt_timings) = reroute(&input, &compiled.placement.placement);
        let placement = Arc::new(placement);
        let t = Instant::now();
        let rules = generate_rules(&self.topology, &placement);
        let rule_generation = t.elapsed();
        let timings = PhaseTimings {
            optimization: opt_timings.solving,
            rule_generation,
            ..Default::default()
        };
        let updated = Compiled {
            policy: compiled.policy.clone(),
            deps: compiled.deps.clone(),
            xfdd: compiled.xfdd.clone(),
            mapping: compiled.mapping.clone(),
            placement,
            rules,
            timings,
        };
        (updated, timings)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use snap_lang::builder::*;
    use snap_lang::{Field, StateVar, Value};
    use snap_topology::generators::campus;

    fn assign_egress() -> Policy {
        let mut p = drop();
        for i in (1..=6u8).rev() {
            p = ite(
                test_prefix(Field::DstIp, 10, 0, i, 0, 24),
                modify(Field::OutPort, Value::Int(i64::from(i))),
                p,
            );
        }
        p
    }

    fn dns_tunnel_detect(threshold: i64) -> Policy {
        ite(
            test_prefix(Field::DstIp, 10, 0, 6, 0, 24).and(test(Field::SrcPort, Value::Int(53))),
            Policy::seq_all(vec![
                state_set(
                    "orphan",
                    vec![field(Field::DstIp), field(Field::DnsRdata)],
                    Value::Bool(true),
                ),
                state_incr("susp-client", vec![field(Field::DstIp)]),
                ite(
                    state_test("susp-client", vec![field(Field::DstIp)], int(threshold)),
                    state_set("blacklist", vec![field(Field::DstIp)], Value::Bool(true)),
                    id(),
                ),
            ]),
            ite(
                test_prefix(Field::SrcIp, 10, 0, 6, 0, 24).and(state_truthy(
                    "orphan",
                    vec![field(Field::SrcIp), field(Field::DstIp)],
                )),
                state_set(
                    "orphan",
                    vec![field(Field::SrcIp), field(Field::DstIp)],
                    Value::Bool(false),
                )
                .seq(state_decr("susp-client", vec![field(Field::SrcIp)])),
                id(),
            ),
        )
    }

    /// The operator's `assumption` policy from §4.3: traffic with source IP
    /// `10.0.i.0/24` enters the network at port `i`.
    fn assumption() -> Policy {
        Policy::par_all((1..=6u8).map(|i| {
            filter(
                test_prefix(Field::SrcIp, 10, 0, i, 0, 24)
                    .and(test(Field::InPort, Value::Int(i64::from(i)))),
            )
        }))
    }

    fn campus_compiler() -> Compiler {
        let topo = campus();
        let tm = TrafficMatrix::gravity(&topo, 600.0, 42);
        Compiler::new(topo, tm)
    }

    #[test]
    fn running_example_compiles_and_places_state_on_d4() {
        let compiler = campus_compiler();
        let program = assumption().seq(dns_tunnel_detect(3).seq(assign_egress()));
        let compiled = compiler.compile(&program).unwrap();
        assert_eq!(compiled.deps.variables.len(), 3);
        assert!(compiled.timings.total() > Duration::ZERO);
        // All three variables are co-placed (they share the same traffic) and
        // the chosen switch is D4, the paper's optimal location: every packet
        // to or from the protected subnet passes through it.
        let d4 = compiler.topology.node_by_name("D4").unwrap();
        for var in ["orphan", "susp-client", "blacklist"] {
            assert_eq!(
                compiled.placement.placement[&StateVar::new(var)],
                d4,
                "{var} should be placed on D4"
            );
        }
        // Paths for DNS flows respect the dependency order.
        let order = [
            StateVar::new("orphan"),
            StateVar::new("susp-client"),
            StateVar::new("blacklist"),
        ];
        for u in 1..=5 {
            assert!(compiled
                .placement
                .path_respects_order(PortId(u), PortId(6), &order));
        }
    }

    #[test]
    fn reroute_is_faster_than_full_compilation_and_keeps_placement() {
        let compiler = campus_compiler();
        let program = dns_tunnel_detect(3).seq(assign_egress());
        let compiled = compiler.compile(&program).unwrap();
        let new_tm = TrafficMatrix::gravity(&compiler.topology, 900.0, 7);
        let (updated, te_timings) = compiler.reroute(&compiled, &new_tm);
        assert_eq!(updated.placement.placement, compiled.placement.placement);
        assert!(te_timings.dependency_analysis == Duration::ZERO);
        assert!(!updated.placement.paths.is_empty());
    }

    #[test]
    fn stateless_policy_compiles_with_empty_placement() {
        let compiler = campus_compiler();
        let compiled = compiler.compile(&assign_egress()).unwrap();
        assert!(compiled.placement.placement.is_empty());
        assert_eq!(compiled.mapping.num_stateful_flows(), 0);
        assert!(compiled.rules.relevant_switches() > 0);
    }

    #[test]
    fn racy_policy_is_rejected_at_compile_time() {
        let compiler = campus_compiler();
        let racy = state_set("s", vec![int(0)], int(1)).par(state_set("s", vec![int(0)], int(2)));
        let err = compiler.compile(&racy).unwrap_err();
        assert!(matches!(err, CompileError::StateRace { .. }));
    }
}
