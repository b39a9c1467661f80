//! End-to-end controller loop: a long-lived `CompilerSession` driving a
//! running fleet through policy edits, traffic changes and pool GC, checked
//! against the one-big-switch semantics after every commit — plus
//! controller→switch distribution of the program over the wire format.

use snap_apps as apps;
use snap_distrib::{deploy_in_process, DistNetwork};
use snap_lang::prelude::*;
use snap_session::{CompilerSession, SessionOptions};
use snap_topology::generators::campus;
use snap_topology::{PortId, TrafficMatrix};
use snap_xfdd::{decode_delta_fresh, encode_delta, Pool};
use std::collections::BTreeSet;

fn running_example(threshold: i64) -> Policy {
    apps::dns_tunnel_detect(threshold).seq(apps::assign_egress(6))
}

fn dns_packet(client: &Value, rdata: Value) -> Packet {
    Packet::new()
        .with(Field::SrcIp, Value::ip(8, 8, 8, 8))
        .with(Field::DstIp, client.clone())
        .with(Field::SrcPort, 53)
        .with(Field::DnsRdata, rdata)
}

#[test]
fn controller_loop_with_policy_edits_traffic_changes_and_gc() {
    let topo = campus();
    let tm = TrafficMatrix::gravity(&topo, 600.0, 42);
    let session = CompilerSession::new(topo, tm).with_options(SessionOptions {
        // Low enough that the session compacts its pool mid-loop.
        gc_threshold: 200,
        cache_generations: 1,
        ..SessionOptions::default()
    });

    // Boot: cold compile, bring the fleet up.
    let mut deployment = deploy_in_process(session, 1024);
    let controller = &mut deployment.controller;
    controller.update_policy(&running_example(2)).unwrap();
    let network = &deployment.network;

    // Reference one-big-switch state, kept in lockstep with the network.
    let mut obs_store = Store::new();
    let mut policy = running_example(2);

    let client = Value::ip(10, 0, 6, 77);
    let mut seq = 0u8;
    let mut drive = |network: &DistNetwork, obs_store: &mut Store, policy: &Policy, n: usize| {
        for _ in 0..n {
            seq += 1;
            let pkt = dns_packet(&client, Value::ip(9, 9, 9, seq));
            let obs = eval(policy, obs_store, &pkt).unwrap();
            *obs_store = obs.store;
            let out = network.inject(PortId(1), &pkt).unwrap();
            let pkts: BTreeSet<Packet> = out.delivered.into_iter().map(|(_, p)| p).collect();
            assert_eq!(pkts, obs.packets, "network and OBS disagree");
        }
    };

    drive(network, &mut obs_store, &policy, 1);

    // Controller loop: alternate policy edits (threshold bumps) and traffic
    // updates, each committed to the running fleet. The per-switch state
    // must survive every commit and keep matching OBS.
    for round in 0..6 {
        let epoch_before = controller.epoch();
        let report = if round % 2 == 0 {
            policy = running_example(3 + round);
            controller.update_policy(&policy).unwrap()
        } else {
            let topo = controller.session().topology();
            let tm = TrafficMatrix::gravity(topo, 700.0 + round as f64, round as u64);
            controller.update_traffic(tm).unwrap().expect("compiled")
        };
        assert_eq!(report.epoch, epoch_before + 1);
        assert_eq!(network.current_epochs(), BTreeSet::from([report.epoch]));
        drive(network, &mut obs_store, &policy, 2);
    }
    assert_eq!(network.aggregate_store(), obs_store);

    // The session pool was compacted along the way; keep going: still
    // correct after compaction.
    assert!(
        controller.session().stats().gc_runs > 0,
        "auto-GC never ran"
    );
    policy = running_example(50);
    controller.update_policy(&policy).unwrap();
    drive(network, &mut obs_store, &policy, 2);
    assert_eq!(network.aggregate_store(), obs_store);

    // The session did real incremental work along the way.
    let stats = controller.session().stats();
    assert!(stats.nodes_reclaimed > 0);
    assert!(stats.subtree_hits > 0);
    assert!(stats.placement_reuses > 0);
    assert!(stats.reroutes > 0);
    deployment.shutdown();
}

#[test]
fn program_distribution_over_the_wire_preserves_semantics() {
    // Controller side: compile in a session, freeze, encode.
    let topo = campus();
    let tm = TrafficMatrix::gravity(&topo, 600.0, 42);
    let mut session = CompilerSession::new(topo, tm);
    let compiled = session.compile(&running_example(3)).unwrap();
    let frozen = compiled.xfdd.pool();
    let fresh_len = Pool::new(frozen.order().clone()).len();
    let bytes = encode_delta(frozen, fresh_len, compiled.xfdd.root());

    // Switch side: decode into a fresh arena and execute.
    let (pool, root) = decode_delta_fresh(&bytes).unwrap();
    let store = Store::new();
    let pkt = dns_packet(&Value::ip(10, 0, 6, 9), Value::ip(1, 2, 3, 4));
    assert_eq!(
        pool.evaluate(root, &pkt, &store).unwrap(),
        compiled.xfdd.evaluate(&pkt, &store).unwrap()
    );
    // The decoded arena is the frozen one, node for node.
    assert_eq!((pool.len(), root), (frozen.len(), compiled.xfdd.root()));
    assert_eq!(pool.size(root), compiled.xfdd.size());
}
