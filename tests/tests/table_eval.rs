//! Regression corpus for table dispatch: every application in the snap-apps
//! catalogue, compiled to an xFDD and flattened, must evaluate exactly like
//! the diagram it was lowered from — on realistic packets, with state
//! evolving across packets so the stateful suffixes are actually exercised —
//! and dispatch exactly like the one-test-per-step walk from every possible
//! packet-tag entry point (mid-chain resumes included).

use snap_apps as apps;
use snap_lang::prelude::*;
use snap_xfdd::Lookup;
use std::collections::BTreeSet;

/// Deterministic mini-generator for sample packets exercising the catalogue
/// policies (header fields the Table 3 applications actually test).
fn sample_packets() -> Vec<Packet> {
    let mut out = Vec::new();
    for i in 0..8u8 {
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
                .with(Field::DnsTtl, 60 + (i % 2) as i64),
        );
    }
    out
}

#[test]
fn table_programs_match_flat_programs_across_the_catalogue() {
    let packets = sample_packets();
    for (name, policy) in apps::catalogue() {
        let program = policy.seq(apps::assign_egress(6));
        let xfdd = snap_xfdd::compile(&program)
            .unwrap_or_else(|e| panic!("{name} failed to compile: {e}"));
        let flat = xfdd.flatten();

        // State threads through the packet sequence: the store produced by
        // packet i is the input store for packet i+1, so firewall-style
        // "second packet sees the hole punched by the first" paths run.
        let mut store = Store::new();
        for (i, pkt) in packets.iter().enumerate() {
            let via_flat = flat.evaluate(pkt, &store);
            assert_eq!(
                via_flat,
                xfdd.evaluate(pkt, &store),
                "{name}: evaluation diverged on packet {i}"
            );
            if let Ok((_, next)) = via_flat {
                store = next;
            }
        }
    }
}

#[test]
fn table_walks_match_flat_walks_from_every_entry_point() {
    // Packet tags can name any branch in the program; a tag minted on one
    // switch may resume inside a collapsed same-field run on another.
    let packets = sample_packets();
    for (name, policy) in apps::catalogue() {
        let program = policy.seq(apps::assign_egress(6));
        let xfdd = snap_xfdd::compile(&program)
            .unwrap_or_else(|e| panic!("{name} failed to compile: {e}"));
        let flat = xfdd.flatten();
        let store = Store::new();
        for pkt in packets.iter().take(3) {
            for i in 0..flat.num_branches() {
                let from = flat.branch_id(i);
                assert_eq!(
                    flat.walk(from, pkt, &store),
                    flat.walk(flat.advance_stateless(from, pkt), pkt, &store),
                    "{name}: dispatch from branch {i} diverged"
                );
            }
        }
    }
}

#[test]
fn the_catalogue_actually_produces_dispatch_tables() {
    // Sanity that the corpus exercises table dispatch: across the
    // catalogue, lowering must find same-field runs to collapse — otherwise
    // these regressions test nothing. A stage is one lookup, shared by
    // every member of its run.
    let mut total_stages = 0usize;
    let mut total_collapsed = 0usize;
    for (name, policy) in apps::catalogue() {
        let program = policy.seq(apps::assign_egress(6));
        let xfdd = snap_xfdd::compile(&program)
            .unwrap_or_else(|e| panic!("{name} failed to compile: {e}"));
        let flat = xfdd.flatten();
        let lookups: Vec<*const Lookup> = (0..flat.num_branches())
            .filter_map(|i| flat.lookup_at(flat.branch_id(i)))
            .map(std::ptr::from_ref)
            .collect();
        let stages: BTreeSet<*const Lookup> = lookups.iter().copied().collect();
        total_stages += stages.len();
        total_collapsed += lookups.len();
        println!(
            "{name}: {} branches -> {} stages ({} tests collapsed)",
            flat.num_branches(),
            stages.len(),
            lookups.len(),
        );
    }
    assert!(
        total_stages > 0,
        "catalogue produced no dispatch stages at all"
    );
    assert!(
        total_collapsed > total_stages,
        "stages should collapse more than one test each on average \
         ({total_collapsed} collapsed over {total_stages} stages)"
    );
}
