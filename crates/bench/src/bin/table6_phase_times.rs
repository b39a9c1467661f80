//! Table 6: runtime of the compiler phases when compiling DNS-tunnel-detect
//! (with assumption and routing) on the enterprise/ISP topologies.
//!
//! Columns follow the paper: program analysis (P1-P2-P3), placement+routing
//! (P5 ST), routing-only (P5 TE), rule generation (P6) and MILP model
//! creation (P4; zero when the heuristic engine is in use).

use snap_bench::{dns_tunnel_with_routing, run_scenarios, scaled_preset, secs};
use snap_topology::generators::presets;

fn main() {
    println!("Table 6: compiler phase runtimes (seconds), DNS-tunnel-detect with routing");
    println!(
        "{:<16} {:>14} {:>10} {:>10} {:>8} {:>8}",
        "topology", "P1-P2-P3 (s)", "P5 ST (s)", "P5 TE (s)", "P6 (s)", "P4 (s)"
    );
    for spec in presets::table5() {
        let (topo, tm) = scaled_preset(&spec, 1_000.0);
        let policy = dns_tunnel_with_routing(topo.num_external_ports());
        let compiler = snap_core::Compiler::new(topo.clone(), tm.clone());
        let compiled = compiler.compile(&policy).expect("compiles");
        let te_tm = snap_topology::TrafficMatrix::gravity(&topo, 1_200.0, 99);
        let (_, te) = compiler.reroute(&compiled, &te_tm);
        println!(
            "{:<16} {:>14} {:>10} {:>10} {:>8} {:>8}",
            topo.name,
            secs(compiled.timings.analysis()),
            secs(compiled.timings.optimization),
            secs(te.optimization),
            secs(compiled.timings.rule_generation),
            secs(compiled.timings.milp_creation),
        );
        let _ = run_scenarios; // (scenario totals are reported by fig9_scenarios)
    }
}
