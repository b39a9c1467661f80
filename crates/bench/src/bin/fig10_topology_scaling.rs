//! Figure 10: compilation time of DNS-tunnel-detect with routing on IGen-like
//! topologies of 10-180 switches, per scenario.

use snap_bench::{dns_tunnel_with_routing, run_scenarios, scaled_igen, secs};

fn main() {
    println!("Figure 10: compilation time vs. topology size (seconds)");
    println!(
        "{:>8} {:>12} {:>16} {:>16} {:>12}",
        "switches", "ports", "topo/TM change", "policy change", "cold start"
    );
    for switches in (10..=180).step_by(34) {
        let (topo, tm) = scaled_igen(switches, 1_000.0, 5);
        let policy = dns_tunnel_with_routing(topo.num_external_ports());
        let (_, times) = run_scenarios(&topo, &tm, &policy);
        println!(
            "{:>8} {:>12} {:>16} {:>16} {:>12}",
            switches,
            topo.num_external_ports(),
            secs(times.topology_change),
            secs(times.policy_change),
            secs(times.cold_start),
        );
    }
}
