//! # snap-bench
//!
//! The benchmark harness that regenerates every table and figure of the SNAP
//! paper's evaluation (§6). Each table/figure has a dedicated binary (run
//! them with `cargo run --release -p snap-bench --bin <name>`):
//!
//! | artifact | binary |
//! |----------|--------|
//! | Figure 3 (xFDD of the running example) | `fig3_xfdd` |
//! | Table 3 (applications) | `table3_apps` |
//! | Table 5 (topologies) | `table5_topologies` |
//! | Table 6 (per-phase compile times) | `table6_phase_times` |
//! | Figure 9 (scenarios on enterprise/ISP topologies) | `fig9_scenarios` |
//! | Figure 10 (scaling with topology size) | `fig10_topology_scaling` |
//! | Figure 11 (scaling with number of policies) | `fig11_policy_scaling` |
//!
//! Table 3's instruction counts come from [`NetAsmProgram`] ([`netasm`]), a
//! NetASM-like listing lowered from the flat program, with an interpreter
//! that tests it against the xFDD. It lives here, with the reproduction, and
//! not in the runtime: no switch executes it.
//!
//! The original evaluation used Gurobi on the full Table 5 demand matrices;
//! without a commercial solver the harness defaults to one OBS port per edge
//! switch (aggregated demands) and the heuristic placement engine, which
//! preserves the qualitative shape of the results (see `EXPERIMENTS.md`).

pub mod netasm;

pub use netasm::NetAsmProgram;

use snap_apps as apps;
use snap_core::{Compiled, Compiler};
use snap_lang::Policy;
use snap_topology::{generators, RandomTopologySpec, Topology, TrafficMatrix};
use std::time::Duration;

/// The policy compiled in the Table 6 / Figure 9 / Figure 10 experiments:
/// the operator assumption, DNS tunnel detection and egress assignment for a
/// network with `ports` external ports.
pub fn dns_tunnel_with_routing(ports: usize) -> Policy {
    apps::assumption(ports.min(200))
        .seq(apps::dns_tunnel_detect(10))
        .seq(apps::assign_egress(ports.min(200)))
}

/// The five-application stateful pipeline of the benchmark of record's
/// `fwd-stateful` / `edit-churn` scenarios; `dns_threshold` is the knob an
/// operator's single-threshold edit turns.
pub fn five_app_pipeline(ports: usize, dns_threshold: i64) -> Policy {
    apps::port_monitoring()
        .seq(apps::dns_tunnel_detect(dns_threshold))
        .seq(apps::stateful_firewall())
        .seq(apps::heavy_hitter_detection(1_000_000))
        .seq(apps::assign_egress(ports))
}

/// Build a Table 5 preset topology with one OBS port per edge switch
/// (aggregated demands) and a gravity traffic matrix.
pub fn scaled_preset(spec: &RandomTopologySpec, volume: f64) -> (Topology, TrafficMatrix) {
    let mut spec = spec.clone();
    spec.external_ports = None; // one port per edge switch
    let topo = generators::random_topology(&spec);
    let tm = TrafficMatrix::gravity(&topo, volume, spec.seed);
    (topo, tm)
}

/// Build an IGen-like topology of `switches` switches with a gravity matrix.
pub fn scaled_igen(switches: usize, volume: f64, seed: u64) -> (Topology, TrafficMatrix) {
    let topo = generators::igen_topology(switches, seed);
    let tm = TrafficMatrix::gravity(&topo, volume, seed);
    (topo, tm)
}

/// Compile times for the three scenarios of Table 4 / Figure 9.
#[derive(Clone, Copy, Debug, Default)]
pub struct ScenarioTimes {
    /// All phases, including MILP model creation.
    pub cold_start: Duration,
    /// Program analysis + placement/routing + rule generation (no P4).
    pub policy_change: Duration,
    /// Routing-only re-optimization + rule generation.
    pub topology_change: Duration,
}

/// Compile `policy` on the given topology/traffic and measure the three
/// scenarios. Returns the compiled program alongside the timings so callers
/// can inspect per-phase numbers too.
pub fn run_scenarios(
    topology: &Topology,
    traffic: &TrafficMatrix,
    policy: &Policy,
) -> (Compiled, ScenarioTimes) {
    let compiler = Compiler::new(topology.clone(), traffic.clone());
    let compiled = compiler
        .compile(policy)
        .expect("benchmark policies must compile");
    let cold_start = compiled.timings.total();
    let policy_change = cold_start - compiled.timings.milp_creation;

    // Topology/TM change: shift the traffic matrix and re-route.
    let shifted = TrafficMatrix::gravity(topology, traffic.total() * 1.2, 97);
    let (_, te) = compiler.reroute(&compiled, &shifted);
    let topology_change = te.total();

    (
        compiled,
        ScenarioTimes {
            cold_start,
            policy_change,
            topology_change,
        },
    )
}

/// Milliseconds with two decimals, for table output.
pub fn ms(d: Duration) -> String {
    format!("{:.2}", d.as_secs_f64() * 1e3)
}

/// Seconds with three decimals, for table output.
pub fn secs(d: Duration) -> String {
    format!("{:.3}", d.as_secs_f64())
}

/// The incrementally-composed policies of the Figure 11 experiment: the first
/// `n` Table 3 applications, each guarded so that it only affects traffic
/// destined to "its" egress port, parallel-composed and followed by egress
/// assignment — mirroring §6.2.1.
pub fn composed_policies(n: usize, ports: usize) -> Policy {
    use snap_lang::builder::*;
    use snap_lang::Field;
    let catalogue = apps::catalogue();
    let n = n.min(catalogue.len());
    let components: Vec<Policy> = catalogue
        .into_iter()
        .take(n)
        .enumerate()
        .map(|(i, (_, policy))| {
            let port = (i % ports.max(1)) + 1;
            ite(
                test_prefix(Field::DstIp, 10, 0, port as u8, 0, 24),
                policy,
                id(),
            )
        })
        .collect();
    Policy::par_all(components).seq(apps::assign_egress(ports.min(200)))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scenarios_run_on_the_campus_topology() {
        let topo = generators::campus();
        let tm = TrafficMatrix::gravity(&topo, 100.0, 1);
        let policy = dns_tunnel_with_routing(6);
        let (compiled, times) = run_scenarios(&topo, &tm, &policy);
        assert!(times.cold_start >= times.policy_change);
        assert!(compiled.xfdd.size() > 1);
        assert!(times.topology_change > Duration::ZERO);
    }

    #[test]
    fn scaled_presets_have_aggregated_ports() {
        let (topo, tm) = scaled_preset(&generators::presets::stanford(), 100.0);
        assert_eq!(topo.num_nodes(), 26);
        // One port per edge switch rather than 144 ports.
        assert!(topo.num_external_ports() < 30);
        assert!(tm.num_demands() > 0);
    }

    #[test]
    fn composed_policies_grow_with_n() {
        let p1 = composed_policies(1, 6);
        let p5 = composed_policies(5, 6);
        assert!(p5.size() > p1.size());
        assert!(p5.state_vars().len() >= p1.state_vars().len());
    }
}
