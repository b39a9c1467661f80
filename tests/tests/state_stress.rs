//! Multi-worker stateful stress: the configuration whose throughput used
//! to collapse on the per-switch store lock.
//!
//! Every packet in this workload writes state — a hot per-source counter
//! plus a tested first-seen flag — and four workers
//! hammer one shared fleet. The suite asserts the switch store keeps
//! every total bit-exact under maximum write pressure, and that the
//! store-lock telemetry accounts for the traffic. CI runs this against the
//! release build (`--release`) so it stresses the optimized hot path.

use snap_distrib::TrafficEngine;
use snap_lang::prelude::*;
use snap_tests::network::Fleet;
use snap_topology::PortId;

const TOTAL: usize = 12_000;
const WORKERS: usize = 4;

/// Every packet increments a hot counter keyed by source subnet AND
/// passes through a tested first-seen flag — a read-modify-write and a
/// test-then-set under stress at once, both under the switch's store lock.
fn stress_policy() -> Policy {
    state_incr("hits", vec![field(Field::InPort)])
        .seq(ite(
            state_test("seen", vec![field(Field::InPort)], int(1)),
            id(),
            state_set("seen", vec![field(Field::InPort)], int(1)),
        ))
        .seq(modify(Field::OutPort, Value::Int(6)))
}

fn workload() -> Vec<(PortId, Packet)> {
    (0..TOTAL)
        .map(|i| {
            (
                PortId(1 + i % 6),
                Packet::new().with(Field::InPort, (1 + i % 6) as i64),
            )
        })
        .collect()
}

#[test]
fn four_workers_state_heavy_totals_stay_exact() {
    // Both variables on C6 — the single hot switch that used to serialize
    // every worker on one lock.
    let fleet = Fleet::campus(&stress_policy(), "C6");
    let net = fleet.network.as_ref();
    let report = TrafficEngine::new(WORKERS)
        .with_batch_size(64)
        .run(net, &workload());
    assert!(report.is_clean(), "errors: {:?}", report.errors);
    assert_eq!(report.processed, TOTAL);

    let store = net.aggregate_store();
    for p in 1..=6 {
        assert_eq!(
            store.get(&"hits".into(), &[Value::Int(p)]),
            Value::Int((TOTAL / 6) as i64),
            "hot counter lost writes on inport {p}"
        );
        assert_eq!(
            store.get(&"seen".into(), &[Value::Int(p)]),
            Value::Int(1),
            "exact flag lost its set on inport {p}"
        );
    }

    // The snapshot accounts for the pressure: every packet counted, every
    // state write attributed, and the store shows the locks taken.
    let snap = net.metrics_snapshot();
    assert_eq!(snap.counters["driver.packets"], TOTAL as u64);
    assert_eq!(snap.counters["driver.deliveries"], TOTAL as u64);
    assert_eq!(snap.counters["driver.errors"], 0);
    let family_total = |name: &str| -> u64 { snap.families[name].iter().map(|(_, v)| v).sum() };
    // One counter increment per packet, plus exactly one flag set per
    // inport — the flag's test and set run in one visit, under one hold of
    // the store lock, so the test-then-set is atomic and later packets only
    // read.
    assert_eq!(family_total("switch.state_writes"), TOTAL as u64 + 6);
    let acquisitions = family_total("store.shard.acquisitions");
    assert!(
        acquisitions > 0,
        "state-heavy traffic must take the store lock"
    );
    assert!(family_total("store.shard.contended") <= acquisitions);
}
