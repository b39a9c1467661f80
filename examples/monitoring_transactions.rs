//! Monitoring plus network transactions: the §2.1 composition
//! `(DNS-tunnel-detect + count[inport]++); assign-egress` together with the
//! honeypot transaction, showing that atomically-updated variables are
//! co-located by the compiler.
//!
//! Run with: `cargo run -p snap-examples --bin monitoring_transactions`

use snap_apps as apps;
use snap_distrib::deploy_in_process;
use snap_lang::prelude::*;
use snap_session::CompilerSession;
use snap_topology::{generators, PortId, TrafficMatrix};

fn main() {
    let program = apps::dns_tunnel_detect(5)
        .par(apps::port_monitoring())
        .par(apps::honeypot_transaction())
        .seq(apps::assign_egress(6));

    let topo = generators::campus();
    let tm = TrafficMatrix::gravity(&topo, 600.0, 5);
    let session = CompilerSession::new(topo.clone(), tm);
    let mut deployment = deploy_in_process(session, 1024);
    let controller = &mut deployment.controller;
    controller
        .update_policy(&program)
        .expect("compiles and commits");
    let compiled = controller
        .session()
        .current_shared()
        .expect("just compiled");

    println!("placement:");
    for (var, node) in &compiled.placement.placement {
        println!("  {var:<14} -> {}", topo.node_name(*node));
    }
    let hon_ip = compiled.placement.placement[&StateVar::new("hon-ip")];
    let hon_port = compiled.placement.placement[&StateVar::new("hon-dstport")];
    assert_eq!(hon_ip, hon_port, "atomic variables must be co-located");
    println!(
        "honeypot transaction variables are co-located on {}",
        topo.node_name(hon_ip)
    );

    // Send one packet towards the honeypot and one ordinary packet.
    let network = &deployment.network;
    let to_honeypot = Packet::new()
        .with(Field::SrcIp, Value::ip(10, 0, 1, 9))
        .with(Field::DstIp, Value::ip(10, 0, 3, 10))
        .with(Field::DstPort, 445)
        .with(Field::InPort, 1);
    let ordinary = Packet::new()
        .with(Field::SrcIp, Value::ip(10, 0, 2, 9))
        .with(Field::DstIp, Value::ip(10, 0, 4, 10))
        .with(Field::InPort, 2);
    network.inject(PortId(1), &to_honeypot).unwrap();
    network.inject(PortId(2), &ordinary).unwrap();
    let store = network.aggregate_store();
    println!(
        "hon-ip[1] = {}   hon-dstport[1] = {}",
        store.get(&StateVar::new("hon-ip"), &[Value::Int(1)]),
        store.get(&StateVar::new("hon-dstport"), &[Value::Int(1)]),
    );
    println!(
        "count[1] = {}   count[2] = {}",
        store.get(&StateVar::new("count"), &[Value::Int(1)]),
        store.get(&StateVar::new("count"), &[Value::Int(2)]),
    );
    deployment.shutdown();
}
