//! Hash-consing effectiveness and correctness across the full application
//! catalogue: the arena representation must store strictly fewer nodes than
//! the tree baseline on the campus workload, behave identically to the
//! formal semantics, and reach every switch of a deployed fleet as one and
//! the same numbering.

use snap_apps as apps;
use snap_distrib::deploy_in_process;
use snap_lang::prelude::*;
use snap_session::CompilerSession;
use snap_topology::{generators, TrafficMatrix};

/// Deterministic mini-generator for sample packets exercising the catalogue
/// policies (header fields the Table 3 applications actually test).
fn sample_packets() -> Vec<Packet> {
    let mut out = Vec::new();
    for i in 0..6u8 {
        out.push(
            Packet::new()
                .with(Field::SrcIp, Value::ip(10, 0, 1 + (i % 3), 7))
                .with(Field::DstIp, Value::ip(10, 0, 6 - (i % 3), 9))
                .with(
                    Field::SrcPort,
                    if i % 2 == 0 { 53 } else { 5000 + i as i64 },
                )
                .with(Field::DstPort, if i % 3 == 0 { 53 } else { 80 })
                .with(Field::Proto, if i % 2 == 0 { 17 } else { 6 })
                .with(Field::InPort, 1 + (i % 6) as i64)
                .with(
                    Field::TcpFlags,
                    Value::sym(if i % 2 == 0 { "SYN" } else { "ACK" }),
                )
                .with(Field::DnsRdata, Value::ip(9, 9, 9, i))
                .with(Field::DnsQname, Value::str("example.com"))
                .with(Field::DnsTtl, 60 + i as i64),
        );
    }
    out
}

#[test]
fn catalogue_on_campus_stores_strictly_fewer_nodes_than_the_tree_baseline() {
    // The acceptance bar for the hash-consing refactor: compiling the full
    // snap-apps catalogue (each app composed with egress assignment, as on
    // the campus topology) must yield strictly fewer interned nodes than the
    // old tree representation materialized.
    let mut total_arena: u64 = 0;
    let mut total_tree: u64 = 0;
    for (name, policy) in apps::catalogue() {
        let program = policy.seq(apps::assign_egress(6));
        let xfdd = snap_xfdd::compile(&program)
            .unwrap_or_else(|e| panic!("{name} failed to compile: {e}"));
        let arena = xfdd.size() as u64;
        let tree = xfdd.tree_size();
        assert!(
            arena <= tree,
            "{name}: arena {arena} nodes exceeds tree baseline {tree}"
        );
        total_arena += arena;
        total_tree += tree;
    }
    assert!(
        total_arena < total_tree,
        "expected strict sharing across the catalogue: arena {total_arena} vs tree {total_tree}"
    );
    // The campus workload shares heavily; make the margin visible in test
    // output when run with --nocapture.
    println!(
        "catalogue on campus: {total_arena} interned nodes vs {total_tree} tree nodes \
         ({:.1}x smaller)",
        total_tree as f64 / total_arena as f64
    );
}

#[test]
fn interned_diagrams_match_eval_across_the_catalogue() {
    // Semantic identity of the pooled representation with the formal
    // semantics, on real applications rather than random programs.
    let packets = sample_packets();
    for (name, policy) in apps::catalogue() {
        let xfdd = snap_xfdd::compile(&policy).unwrap();
        let mut store_eval = Store::new();
        let mut store_xfdd = Store::new();
        for pkt in &packets {
            let reference = snap_lang::eval(&policy, &store_eval, pkt);
            let pooled = xfdd.evaluate(pkt, &store_xfdd);
            match (reference, pooled) {
                (Ok(r), Ok((pkts, store))) => {
                    assert_eq!(pkts, r.packets, "{name}: packet sets differ");
                    assert_eq!(store, r.store, "{name}: stores differ");
                    store_eval = r.store;
                    store_xfdd = store;
                }
                (Err(_), Err(_)) => {}
                (r, p) => panic!("{name}: one representation failed: {r:?} vs {p:?}"),
            }
        }
    }
}

#[test]
fn every_switch_shares_one_interned_pool() {
    // Every switch carries the full diagram (§4.5). On a fleet each agent
    // mirrors the controller's distribution pool node for node, so the
    // dense ids a packet is tagged with on one switch resume on any other:
    // same mirror length, same flattened program, on every agent.
    let topo = generators::campus();
    let tm = TrafficMatrix::gravity(&topo, 600.0, 3);
    let session = CompilerSession::new(topo, tm);
    let mut deployment = deploy_in_process(session, 64);
    let program = apps::dns_tunnel_detect(5).seq(apps::assign_egress(6));
    deployment.controller.update_policy(&program).unwrap();

    let mirrored = deployment.controller.dist_pool_len();
    let views: Vec<_> = deployment
        .network
        .agents()
        .map(|agent| {
            assert_eq!(agent.mirror_len(), mirrored, "{}", agent.name());
            agent.current_view().expect("committed")
        })
        .collect();
    assert!(views.len() > 1);
    let reference = &views[0].flat;
    for view in &views {
        assert_eq!(view.flat.root(), reference.root());
        assert_eq!(view.flat.num_nodes(), reference.num_nodes());
        assert_eq!(view.flat.var_names(), reference.var_names());
    }
    deployment.shutdown();
}
