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
    use snap_dataplane::SimError;
    use snap_distrib::{InjectError, TrafficEngine, TrafficReport};
    use std::collections::BTreeSet;

    #[test]
    fn multi_worker_run_matches_single_worker() {
        let load = workload(120);

        let single = TrafficEngine::new(1).run(&counting_fleet(4096).network, &load);
        assert!(single.is_clean());
        assert_eq!(single.processed, load.len());

        let multi = TrafficEngine::new(4)
            .with_batch_size(8)
            .run(&counting_fleet(4096).network, &load);
        assert!(multi.is_clean());
        assert_eq!(multi.processed, load.len());
        assert_eq!(multi.epochs, BTreeSet::from([1]));
        assert!(multi
            .worker_epochs
            .iter()
            .all(|trace| trace.iter().all(|&e| e == 1)));

        // Same egress multiset regardless of worker count.
        let collect = |r: &TrafficReport| {
            let mut all: Vec<(PortId, Packet)> =
                r.egress.iter().flat_map(|v| v.iter().cloned()).collect();
            all.sort_by(|a, b| a.0.cmp(&b.0).then_with(|| a.1.cmp(&b.1)));
            all
        };
        assert_eq!(collect(&single), collect(&multi));
        assert_eq!(single.total_egress(), multi.total_egress());
    }

    #[test]
    fn worker_and_batch_floors() {
        let engine = TrafficEngine::new(0).with_batch_size(0);
        assert_eq!(engine.workers(), 1);
        let report = engine.run(&counting_fleet(4096).network, &workload(3));
        assert!(report.is_clean());
        assert_eq!(report.processed, 3);
    }

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
}
