//! Per-port ordered egress queues with bounded depth and backpressure
//! accounting — the model of a real switch's output queues.
//!
//! The traffic engine (`snap_distrib::TrafficEngine`) collects egress into
//! flat per-worker `Vec`s, which is the right shape for measuring aggregate
//! throughput but says nothing about *delivery*: real ports drain in FIFO
//! order and push back when full. Every switch agent of `snap-distrib`
//! delivers through an [`EgressQueues`] as well: one bounded FIFO per
//! external port, a monotone per-port sequence number stamped under the
//! queue lock (so FIFO order stays checkable across drains), and a dropped
//! counter per port that stands in for backpressure — when a queue is full
//! the event is tail-dropped and counted, never silently lost *and* never
//! blocking the packet pipeline.

use parking_lot::Mutex;
use snap_lang::Packet;
use snap_topology::PortId;
use std::collections::{BTreeMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};

/// One delivered packet, as it sits in a port queue.
#[derive(Clone, Debug)]
pub struct EgressEvent {
    /// The delivered packet.
    pub packet: Packet,
    /// The configuration epoch the packet was processed under.
    pub epoch: u64,
    /// Per-port arrival sequence number (monotone per port, assigned under
    /// the queue lock at enqueue time).
    pub seq: u64,
}

struct PortQueue {
    buf: Mutex<VecDeque<EgressEvent>>,
    /// Events enqueued since construction — which is also the next event's
    /// sequence number. Written only under `buf`'s lock; kept outside it so
    /// drains don't reset it, and atomic so readers need no lock.
    enqueued: AtomicU64,
    dropped: AtomicU64,
}

impl PortQueue {
    fn new() -> PortQueue {
        PortQueue {
            buf: Mutex::new(VecDeque::new()),
            enqueued: AtomicU64::new(0),
            dropped: AtomicU64::new(0),
        }
    }
}

/// A set of bounded per-port FIFO egress queues.
pub struct EgressQueues {
    /// Sorted by port: a lookup is a binary search over one contiguous run
    /// (a switch serves a handful of ports), not a tree walk.
    queues: Vec<(PortId, PortQueue)>,
    capacity: usize,
}

/// Default per-port queue depth.
pub const DEFAULT_QUEUE_CAPACITY: usize = 4096;

impl EgressQueues {
    /// Queues for the given ports, each bounded at `capacity` events
    /// (minimum 1).
    pub fn new(ports: impl IntoIterator<Item = PortId>, capacity: usize) -> EgressQueues {
        let mut ports: Vec<PortId> = ports.into_iter().collect();
        ports.sort_unstable();
        ports.dedup();
        EgressQueues {
            queues: ports.into_iter().map(|p| (p, PortQueue::new())).collect(),
            capacity: capacity.max(1),
        }
    }

    fn queue(&self, port: PortId) -> Option<&PortQueue> {
        let at = self.queues.binary_search_by_key(&port, |(p, _)| *p).ok()?;
        Some(&self.queues[at].1)
    }

    /// The configured per-port depth bound.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// The ports this queue set serves.
    pub fn ports(&self) -> impl Iterator<Item = PortId> + '_ {
        self.queues.iter().map(|(p, _)| *p)
    }

    /// Enqueue a delivery on a port. Returns `true` if the event was queued,
    /// `false` if the queue was full (the event is tail-dropped and the
    /// port's backpressure counter incremented) or the port is not served
    /// here.
    pub fn push(&self, port: PortId, packet: Packet, epoch: u64) -> bool {
        let Some(q) = self.queue(port) else {
            return false;
        };
        let mut buf = q.buf.lock();
        if buf.len() >= self.capacity {
            q.dropped.fetch_add(1, Ordering::Relaxed);
            return false;
        }
        let seq = q.enqueued.load(Ordering::Relaxed);
        buf.push_back(EgressEvent { packet, epoch, seq });
        q.enqueued.store(seq + 1, Ordering::Relaxed);
        true
    }

    /// Drain everything currently queued on a port, in FIFO order.
    pub fn drain(&self, port: PortId) -> Vec<EgressEvent> {
        match self.queue(port) {
            Some(q) => q.buf.lock().drain(..).collect(),
            None => Vec::new(),
        }
    }

    /// Drain every port, in port order.
    pub fn drain_all(&self) -> BTreeMap<PortId, Vec<EgressEvent>> {
        self.ports().map(|p| (p, self.drain(p))).collect()
    }

    /// Current depth of a port's queue.
    pub fn depth(&self, port: PortId) -> usize {
        self.queue(port).map_or(0, |q| q.buf.lock().len())
    }

    /// Events tail-dropped on a port because its queue was full.
    pub fn dropped(&self, port: PortId) -> u64 {
        self.queue(port)
            .map_or(0, |q| q.dropped.load(Ordering::Relaxed))
    }

    /// Events successfully enqueued on a port since construction.
    pub fn enqueued(&self, port: PortId) -> u64 {
        self.queue(port)
            .map_or(0, |q| q.enqueued.load(Ordering::Relaxed))
    }

    /// Total backpressure drops across all ports.
    pub fn total_dropped(&self) -> u64 {
        self.queues
            .iter()
            .map(|(_, q)| q.dropped.load(Ordering::Relaxed))
            .sum()
    }

    /// Total events enqueued across all ports since construction.
    pub fn total_enqueued(&self) -> u64 {
        self.queues
            .iter()
            .map(|(_, q)| q.enqueued.load(Ordering::Relaxed))
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pkt(i: i64) -> Packet {
        Packet::new().with(snap_lang::Field::SrcPort, i)
    }

    #[test]
    fn fifo_order_and_sequence_numbers() {
        let q = EgressQueues::new([PortId(1), PortId(2)], 16);
        for i in 0..5 {
            assert!(q.push(PortId(1), pkt(i), 7));
        }
        let events = q.drain(PortId(1));
        assert_eq!(events.len(), 5);
        for (i, e) in events.iter().enumerate() {
            assert_eq!(e.seq, i as u64);
            assert_eq!(e.epoch, 7);
        }
        // Sequence numbers continue across drains.
        assert!(q.push(PortId(1), pkt(9), 8));
        assert_eq!(q.drain(PortId(1))[0].seq, 5);
        assert!(q.drain(PortId(2)).is_empty());
    }

    #[test]
    fn bounded_depth_tail_drops_and_counts() {
        let q = EgressQueues::new([PortId(3)], 2);
        assert!(q.push(PortId(3), pkt(0), 0));
        assert!(q.push(PortId(3), pkt(1), 0));
        assert!(!q.push(PortId(3), pkt(2), 0), "third push must tail-drop");
        assert_eq!(q.depth(PortId(3)), 2);
        assert_eq!(q.dropped(PortId(3)), 1);
        assert_eq!(q.total_dropped(), 1);
        assert_eq!(q.enqueued(PortId(3)), 2);
        // Draining frees capacity again.
        assert_eq!(q.drain(PortId(3)).len(), 2);
        assert!(q.push(PortId(3), pkt(3), 1));
        assert_eq!(q.total_enqueued(), 3);
    }

    #[test]
    fn unknown_port_is_rejected_not_counted() {
        let q = EgressQueues::new([PortId(1)], 4);
        assert!(!q.push(PortId(99), pkt(0), 0));
        assert_eq!(q.total_dropped(), 0);
        assert_eq!(q.total_enqueued(), 0);
    }

    #[test]
    fn concurrent_pushes_keep_per_thread_order() {
        use std::sync::Arc;
        let q = Arc::new(EgressQueues::new([PortId(1)], 1 << 16));
        std::thread::scope(|scope| {
            for t in 0..4i64 {
                let q = Arc::clone(&q);
                scope.spawn(move || {
                    for i in 0..200i64 {
                        q.push(
                            PortId(1),
                            Packet::new()
                                .with(snap_lang::Field::SrcPort, t)
                                .with(snap_lang::Field::DstPort, i),
                            0,
                        );
                    }
                });
            }
        });
        let events = q.drain(PortId(1));
        assert_eq!(events.len(), 800);
        // Global seqs are strictly increasing, and each thread's packets
        // appear in its own push order (FIFO per source).
        let mut last_global = None;
        let mut last_per_thread = [None::<i64>; 4];
        for e in &events {
            assert!(last_global.is_none_or(|g| e.seq > g));
            last_global = Some(e.seq);
            let t = match e.packet.get(&snap_lang::Field::SrcPort) {
                Some(snap_lang::Value::Int(t)) => *t as usize,
                _ => unreachable!(),
            };
            let i = match e.packet.get(&snap_lang::Field::DstPort) {
                Some(snap_lang::Value::Int(i)) => *i,
                _ => unreachable!(),
            };
            assert!(last_per_thread[t].is_none_or(|prev| i > prev));
            last_per_thread[t] = Some(i);
        }
    }
}
