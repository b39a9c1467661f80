//! The paper's running example end to end: DNS tunnel detection plus egress
//! assignment on the Figure 2 campus network, compiled, shipped to one agent
//! per switch by a two-phase commit and executed hop by hop on that fleet.
//!
//! Run with: `cargo run -p snap-examples --bin dns_tunnel_campus`

use snap_apps as apps;
use snap_core::SolverChoice;
use snap_distrib::deploy_in_process;
use snap_lang::prelude::*;
use snap_session::CompilerSession;
use snap_topology::{generators, PortId, TrafficMatrix};

fn main() {
    let threshold = 3;
    let program = apps::dns_tunnel_detect(threshold).seq(apps::assign_egress(6));

    let topo = generators::campus();
    let tm = TrafficMatrix::gravity(&topo, 600.0, 42);
    let session = CompilerSession::new(topo.clone(), tm).with_solver(SolverChoice::Heuristic);
    let mut deployment = deploy_in_process(session, 1024);
    let controller = &mut deployment.controller;
    controller
        .update_policy(&program)
        .expect("running example compiles and commits");
    let compiled = controller
        .session()
        .current_shared()
        .expect("just compiled");

    println!("== placement ==");
    for (var, node) in &compiled.placement.placement {
        println!("  {var:<14} -> {}", topo.node_name(*node));
    }
    println!("== phase timings ==\n  {:?}", compiled.timings);

    // Drive an attack trace through the fleet: a client in the CS department
    // receives DNS responses it never uses.
    let network = &deployment.network;
    let victim = Value::ip(10, 0, 6, 42);
    println!("== injecting {threshold} unanswered DNS responses for {victim} ==");
    let victim_display = victim.clone();
    for i in 0..threshold {
        let dns = Packet::new()
            .with(Field::SrcIp, Value::ip(8, 8, 8, 8))
            .with(Field::DstIp, victim.clone())
            .with(Field::SrcPort, 53)
            .with(Field::DnsRdata, Value::ip(93, 184, 216, (34 + i) as u8));
        let out = network
            .inject(PortId(1), &dns)
            .expect("simulation succeeds");
        let delivered = out.delivered.len();
        println!("  response {}: {delivered} packet(s) delivered", i + 1);
    }
    let store = network.aggregate_store();
    println!(
        "blacklist[{victim_display}] = {}",
        store.get(&StateVar::new("blacklist"), &[victim])
    );
    deployment.shutdown();
}
