//! Figure 9: compilation time of DNS-tunnel-detect with routing on the
//! enterprise/ISP topologies, for the three scenarios of Table 4
//! (topology/TM change, policy change, cold start). A policy change is a
//! warm compiler session recompiling after a one-threshold edit of DNS
//! tunnel detection (see `snap_bench::run_scenarios`).

use snap_bench::{dns_tunnel_with_routing, run_scenarios, scaled_preset, secs};
use snap_topology::generators::presets;

fn main() {
    println!("Figure 9: compilation time per scenario (seconds)");
    println!(
        "{:<16} {:>16} {:>16} {:>12}",
        "topology", "topo/TM change", "policy change", "cold start"
    );
    for spec in presets::table5() {
        let (topo, tm) = scaled_preset(&spec, 1_000.0);
        let ports = topo.num_external_ports();
        let (_, times) = run_scenarios(&topo, &tm, |t| dns_tunnel_with_routing(ports, t));
        println!(
            "{:<16} {:>16} {:>16} {:>12}",
            topo.name,
            secs(times.topology_change),
            secs(times.policy_change),
            secs(times.cold_start),
        );
    }
}
