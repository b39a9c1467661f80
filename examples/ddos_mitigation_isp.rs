//! A Bohatei-style DDoS defense bundle (SYN flood, UDP flood and DNS
//! amplification mitigation) compiled for an ISP-like topology.
//!
//! Run with: `cargo run --release -p snap-examples --bin ddos_mitigation_isp`

use snap_apps as apps;
use snap_core::Compiler;
use snap_lang::Policy;
use snap_topology::{generators, TrafficMatrix};

fn main() {
    // Guard each mitigation behind the protected prefix so the three
    // components never race on shared flows.
    let policy = Policy::par_all(vec![
        apps::syn_flood_detection(100),
        apps::udp_flood_mitigation(200),
        apps::dns_amplification_mitigation(),
    ])
    .seq(apps::assign_egress(8));

    let spec = snap_topology::RandomTopologySpec {
        name: "isp-demo".into(),
        switches: 40,
        directed_links: 160,
        external_ports: Some(8),
        seed: 21,
    };
    let topo = generators::random_topology(&spec);
    let tm = TrafficMatrix::gravity(&topo, 5_000.0, 21);
    let compiler = Compiler::new(topo.clone(), tm);
    match compiler.compile(&policy) {
        Ok(compiled) => {
            println!("compiled DDoS bundle for {}", topo);
            println!("state placement:");
            for (var, node) in &compiled.placement.placement {
                println!("  {var:<16} -> {}", topo.node_name(*node));
            }
            println!(
                "total link utilization: {:.3}   max link utilization: {:.3}",
                compiled.placement.total_utilization, compiled.placement.max_utilization
            );
            println!(
                "xFDD nodes: {}   stateful flows: {}   compile time: {:?}",
                compiled.xfdd.size(),
                compiled.mapping.num_stateful_flows(),
                compiled.timings.total()
            );
        }
        Err(e) => eprintln!("compilation failed: {e}"),
    }
}
