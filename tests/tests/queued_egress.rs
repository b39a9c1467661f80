//! Property tests of the fleet's egress under the batched driver: every
//! delivery lands in the owning switch's [`EgressQueues`] — conservation of
//! deliveries into enqueue/tail-drop counters, bounded depth, per-port FIFO
//! order across drains, and order preservation per (ingress, egress) pair —
//! including under a multi-worker `TrafficEngine`.

use proptest::prelude::*;
use snap_dataplane::{EgressQueues, TrafficEngine};
use snap_lang::{Field, Packet, Value};
use snap_tests::network::Fleet;
use snap_tests::traffic::counting_fleet;
use snap_topology::PortId;
use std::collections::BTreeMap;

/// The queues of the switch hosting `port`.
fn queues_of(fleet: &Fleet, port: PortId) -> &EgressQueues {
    let switch = fleet.topology.port_switch(port).expect("a campus port");
    fleet.agents[switch.0].egress()
}

/// Every port's drained events, across all switches.
fn drain_all(fleet: &Fleet) -> Vec<Vec<snap_dataplane::EgressEvent>> {
    let queues = fleet.agents.iter().map(|a| a.egress());
    queues.flat_map(|q| q.drain_all().into_values()).collect()
}

/// `n` packets over round-robin ingress ports with a worker/sequence tag in
/// (srcport, dstport) so drains can check per-source order.
fn workload(n: usize) -> Vec<(PortId, Packet)> {
    (0..n)
        .map(|i| {
            (
                PortId(1 + i % 6),
                Packet::new()
                    .with(Field::SrcPort, (i % 6) as i64)
                    .with(Field::DstPort, i as i64)
                    .with(
                        Field::DstIp,
                        Value::ip(10, 0, if i % 3 == 0 { 6 } else { 2 }, 1),
                    ),
            )
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn deliveries_are_conserved_into_enqueues_and_tail_drops(
        capacity in 1usize..40,
        n in 1usize..120,
        batch in 1usize..32,
    ) {
        let fleet = counting_fleet(capacity);
        let load = workload(n);
        let mut delivered_per_port: BTreeMap<PortId, u64> = BTreeMap::new();
        let mut reported_drops = 0u64;
        for chunk in load.chunks(batch) {
            for result in fleet.network.inject_batch(chunk) {
                let out = result.expect("workload packets never fail");
                reported_drops += out.backpressure_drops as u64;
                prop_assert_eq!(out.delivered.len(), 1, "exactly one egress per packet");
                for (port, _) in &out.delivered {
                    *delivered_per_port.entry(*port).or_default() += 1;
                }
            }
        }
        // Per port: every delivery either sits in the queue (bounded by
        // capacity) or was tail-dropped and counted; nothing vanishes.
        let mut total_drops = 0u64;
        let mut total_enqueued = 0u64;
        for (&port, &delivered) in &delivered_per_port {
            let queues = queues_of(&fleet, port);
            prop_assert!(queues.depth(port) <= capacity);
            prop_assert_eq!(queues.enqueued(port) + queues.dropped(port), delivered);
            total_drops += queues.dropped(port);
            total_enqueued += queues.enqueued(port);
        }
        prop_assert_eq!(reported_drops, total_drops);
        prop_assert_eq!(fleet.network.total_backpressure(), total_drops);
        prop_assert_eq!(
            total_enqueued + total_drops,
            delivered_per_port.values().sum::<u64>()
        );
    }

    #[test]
    fn per_port_fifo_and_per_source_order_survive_batched_execution(
        n in 2usize..100,
        batch in 1usize..32,
    ) {
        // Ample capacity: this property is about order, not drops.
        let fleet = counting_fleet(4096);
        let load = workload(n);
        for chunk in load.chunks(batch) {
            for result in fleet.network.inject_batch(chunk) {
                prop_assert_eq!(result.unwrap().backpressure_drops, 0);
            }
        }
        for events in drain_all(&fleet) {
            let mut last_seq = None;
            let mut last_per_source: BTreeMap<i64, i64> = BTreeMap::new();
            for e in &events {
                // Global per-port FIFO by sequence number.
                prop_assert!(last_seq.is_none_or(|s| e.seq > s));
                last_seq = Some(e.seq);
                // Packets sharing an (ingress, egress) pair follow the same
                // path through the batched driver, so they drain in
                // injection order.
                let source = match e.packet.get(&Field::SrcPort) {
                    Some(Value::Int(s)) => *s,
                    other => panic!("missing source tag: {other:?}"),
                };
                let seq_in_source = match e.packet.get(&Field::DstPort) {
                    Some(Value::Int(i)) => *i,
                    other => panic!("missing order tag: {other:?}"),
                };
                if let Some(prev) = last_per_source.get(&source) {
                    prop_assert!(
                        seq_in_source > *prev,
                        "per-source order violated: {} after {}",
                        seq_in_source,
                        prev
                    );
                }
                last_per_source.insert(source, seq_in_source);
            }
        }
    }

    #[test]
    fn multi_worker_engine_through_queues_conserves_and_orders(
        workers in 2usize..5,
        batch in 1usize..24,
        capacity in 4usize..64,
    ) {
        let fleet = counting_fleet(capacity);
        let load = workload(96);
        let report = TrafficEngine::new(workers)
            .with_batch_size(batch)
            .run(&fleet.network, &load);
        prop_assert!(report.is_clean());
        prop_assert_eq!(report.processed, load.len());
        // Conservation across concurrent workers: every egress event the
        // report saw was either enqueued or tail-dropped, exactly once.
        let queues = || fleet.agents.iter().map(|a| a.egress());
        let enqueued: u64 = queues().map(|q| q.total_enqueued()).sum();
        prop_assert_eq!(
            enqueued + fleet.network.total_backpressure(),
            report.total_egress() as u64
        );
        for q in queues() {
            for port in q.ports().collect::<Vec<_>>() {
                prop_assert!(q.depth(port) <= capacity);
            }
        }
        // Per-port FIFO still holds under concurrency.
        for events in drain_all(&fleet) {
            let mut last_seq = None;
            for e in &events {
                prop_assert!(last_seq.is_none_or(|s| e.seq > s));
                last_seq = Some(e.seq);
            }
        }
    }
}
