//! Cross-crate integration tests: the full pipeline — language front end,
//! xFDD translation, placement/routing, rule generation, distribution and
//! hop-by-hop execution on a switch fleet — exercised together on the campus
//! topology.

use snap_apps as apps;
use snap_core::Compiler;
use snap_distrib::deploy_in_process;
use snap_lang::prelude::*;
use snap_session::CompilerSession;
use snap_topology::{generators, PortId, TrafficMatrix};
use std::collections::BTreeSet;

fn campus_compiler() -> Compiler {
    let topo = generators::campus();
    let tm = TrafficMatrix::gravity(&topo, 600.0, 11);
    Compiler::new(topo, tm)
}

#[test]
fn all_catalogue_applications_compile_on_the_campus_topology() {
    let compiler = campus_compiler();
    for (name, policy) in apps::catalogue() {
        let program = policy.seq(apps::assign_egress(6));
        let compiled = compiler
            .compile(&program)
            .unwrap_or_else(|e| panic!("{name} failed to compile: {e}"));
        // Every state variable got exactly one location.
        assert_eq!(
            compiled.placement.placement.len(),
            compiled.deps.variables.len(),
            "{name}: every variable must be placed"
        );
        // Paths visit the needed variables in dependency order.
        let order = compiled.deps.var_order();
        for (u, v, vars) in compiled.mapping.iter() {
            if compiler.traffic.get(u, v) <= 0.0 {
                continue;
            }
            let mut sorted: Vec<_> = vars.iter().cloned().collect();
            sorted.sort_by_key(|s| order.rank(s));
            assert!(
                compiled.placement.path_respects_order(u, v, &sorted),
                "{name}: path {u:?}->{v:?} must visit {sorted:?} in order"
            );
        }
    }
}

#[test]
fn parsed_program_compiles_and_runs_like_the_built_one() {
    let src = r#"
        // A stateful firewall for the CS department, in surface syntax.
        if srcip = 10.0.6.0/24 then
            established[srcip][dstip] <- True
        else
            if dstip = 10.0.6.0/24 then
                (if established[dstip][srcip] then id else drop)
            else id
    "#;
    let parsed = parse_policy(src).expect("parses");
    let built = apps::stateful_firewall();
    // Structurally different formulations, semantically the same on a trace.
    let inside = Value::ip(10, 0, 6, 1);
    let outside = Value::ip(1, 2, 3, 4);
    let trace = vec![
        Packet::new()
            .with(Field::SrcIp, outside.clone())
            .with(Field::DstIp, inside.clone()),
        Packet::new()
            .with(Field::SrcIp, inside.clone())
            .with(Field::DstIp, outside.clone()),
        Packet::new()
            .with(Field::SrcIp, outside)
            .with(Field::DstIp, inside),
    ];
    let (s1, o1) = snap_lang::eval_trace(&parsed, &Store::new(), &trace).unwrap();
    let (s2, o2) = snap_lang::eval_trace(&built, &Store::new(), &trace).unwrap();
    assert_eq!(o1, o2);
    assert_eq!(s1, s2);

    // And the parsed program goes through the whole compiler.
    let compiler = campus_compiler();
    let compiled = compiler
        .compile(&parsed.seq(apps::assign_egress(6)))
        .expect("parsed program compiles");
    assert_eq!(compiled.placement.placement.len(), 1);
}

#[test]
fn distributed_execution_equals_obs_for_the_stateful_firewall() {
    let Compiler {
        topology, traffic, ..
    } = campus_compiler();
    let session = CompilerSession::new(topology, traffic);
    let mut deployment = deploy_in_process(session, 1024);
    let program = apps::stateful_firewall().seq(apps::assign_egress(6));
    deployment.controller.update_policy(&program).unwrap();
    let network = &deployment.network;

    let inside = Value::ip(10, 0, 6, 10);
    let outside = Value::ip(10, 0, 2, 20);
    let trace = vec![
        (
            PortId(2),
            Packet::new()
                .with(Field::SrcIp, outside.clone())
                .with(Field::DstIp, inside.clone()),
        ),
        (
            PortId(6),
            Packet::new()
                .with(Field::SrcIp, inside.clone())
                .with(Field::DstIp, outside.clone()),
        ),
        (
            PortId(2),
            Packet::new()
                .with(Field::SrcIp, outside)
                .with(Field::DstIp, inside),
        ),
    ];

    let mut store = Store::new();
    for (port, pkt) in &trace {
        let obs = snap_lang::eval(&program, &store, pkt).unwrap();
        store = obs.store;
        let dist = network.inject(*port, pkt).unwrap();
        let pkts: BTreeSet<Packet> = dist.delivered.into_iter().map(|(_, p)| p).collect();
        assert_eq!(pkts, obs.packets);
    }
    assert_eq!(network.aggregate_store(), store);
    deployment.shutdown();
}

#[test]
fn te_reroute_after_traffic_shift_preserves_state_traversal() {
    let compiler = campus_compiler();
    let program = apps::dns_tunnel_detect(4).seq(apps::assign_egress(6));
    let compiled = compiler.compile(&program).unwrap();
    let shifted = TrafficMatrix::gravity(&compiler.topology, 2_000.0, 77);
    let (updated, _) = compiler.reroute(&compiled, &shifted);
    let order = compiled.deps.var_order();
    for (u, v, vars) in compiled.mapping.iter() {
        if shifted.get(u, v) <= 0.0 {
            continue;
        }
        let mut sorted: Vec<_> = vars.iter().cloned().collect();
        sorted.sort_by_key(|s| order.rank(s));
        assert!(updated.placement.path_respects_order(u, v, &sorted));
    }
}
