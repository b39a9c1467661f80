//! The counting network of the traffic suites: the campus topology, a
//! counter per source port pinned on C6, egress by destination prefix.

use crate::network::Fleet;
use snap_lang::builder::*;
use snap_lang::{Field, Packet, Policy, Value};
use snap_topology::generators::campus;
use snap_topology::PortId;

/// Count per srcport, then route by destination prefix to port 6 or port 1.
pub fn counting_policy() -> Policy {
    state_incr("count", vec![field(Field::SrcPort)]).seq(ite(
        test_prefix(Field::DstIp, 10, 0, 6, 0, 24),
        modify(Field::OutPort, Value::Int(6)),
        modify(Field::OutPort, Value::Int(1)),
    ))
}

/// A campus fleet running [`counting_policy`] with `count` on C6 and egress
/// queues of `queue_capacity` per port.
pub fn counting_fleet(queue_capacity: usize) -> Fleet {
    let mut fleet = Fleet::new(campus(), &counting_policy(), queue_capacity);
    fleet.place(&counting_policy(), "C6");
    fleet
}

/// `n` packets over round-robin ingress ports, 17 source ports and seven
/// destination subnets (one in seven leaves at port 6).
pub fn workload(n: usize) -> Vec<(PortId, Packet)> {
    (0..n)
        .map(|i| {
            (
                PortId(1 + i % 6),
                Packet::new()
                    .with(Field::SrcPort, (i % 17) as i64)
                    .with(Field::DstIp, Value::ip(10, 0, (i % 7) as u8, 1)),
            )
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use snap_dataplane::{SimError, TrafficEngine};
    use snap_distrib::InjectError;

    #[test]
    fn state_totals_are_exact_across_workers() {
        // Every packet increments count[srcport]; with the owner fixed, the
        // sum over all indices must equal the number of packets, however
        // the workload was sharded.
        let fleet = counting_fleet(4096);
        let load = workload(90);
        let engine = TrafficEngine::new(3).with_batch_size(7);
        let report = engine.run(&fleet.network, &load);
        assert!(report.is_clean());
        let store = fleet.network.aggregate_store();
        let count = |p| store.get(&"count".into(), &[Value::Int(p)]);
        let total: i64 = (0..17).map(|p| count(p).as_int().unwrap()).sum();
        assert_eq!(total, load.len() as i64);
    }

    #[test]
    fn failing_packets_lose_only_their_own_egress() {
        // Packets at an unknown port error individually; the rest of their
        // batch still processes, counts and egresses.
        let fleet = counting_fleet(4096);
        let mut load = workload(40);
        for i in [3usize, 17, 34] {
            load[i].0 = PortId(99);
        }
        let engine = TrafficEngine::new(2).with_batch_size(10);
        let report = engine.run(&fleet.network, &load);
        assert_eq!(report.errors.len(), 3);
        let unknown = InjectError::Sim(SimError::UnknownPort(PortId(99)));
        assert!(report.errors.iter().all(|e| *e == unknown));
        assert_eq!(report.processed, 37);
        assert_eq!(report.total_egress(), 37);
        // The 37 good packets' state updates all landed.
        let store = fleet.network.aggregate_store();
        let count = |p| store.get(&"count".into(), &[Value::Int(p)]);
        let total: i64 = (0..17).map(|p| count(p).as_int().unwrap()).sum();
        assert_eq!(total, 37);
    }

    #[test]
    fn queued_network_delivers_through_port_queues() {
        // Egress lands in the owning switch's bounded per-port FIFO queues.
        let fleet = counting_fleet(4096);
        let load = workload(80);
        let engine = TrafficEngine::new(2).with_batch_size(16);
        let report = engine.run(&fleet.network, &load);
        assert!(report.is_clean());
        assert_eq!(report.processed, 80);
        assert_eq!(report.total_egress(), 80);
        // Every delivery was enqueued (capacity is ample), stamped with the
        // running epoch, and drains in FIFO order.
        let queues = || fleet.agents.iter().map(|a| a.egress());
        assert_eq!(queues().map(|q| q.total_enqueued()).sum::<u64>(), 80);
        assert_eq!(fleet.network.total_backpressure(), 0);
        let mut drained = 0;
        for (_, events) in queues().flat_map(|q| q.drain_all()) {
            let mut last = None;
            for e in &events {
                assert_eq!(e.epoch, 1);
                assert!(last.is_none_or(|s| e.seq > s), "per-port FIFO violated");
                last = Some(e.seq);
            }
            drained += events.len();
        }
        assert_eq!(drained, 80);
    }
}
