//! Multi-worker traffic generation: drive a packet workload through a
//! packet-driving plane from N threads.
//!
//! The [`TrafficEngine`] is generic over a [`TrafficTarget`] — anything
//! that can run a batch of packets and report, per packet, the epoch it
//! executed under and its egress. The agent fleet of `snap-distrib`
//! implements it; the trait is what keeps this crate from depending on the
//! plane it drives.
//!
//! Scaling traffic is embarrassingly parallel up to the per-switch store
//! shards: the engine shards a workload across worker threads, each worker
//! pumps its shard batch by batch (one configuration acquisition — and one
//! store-lock acquisition per visited switch — per batch, thanks to the
//! batched driver) and collects its egress locally; per-worker
//! results are only merged after the workers join — no shared output
//! structure, no coordination on the hot path.
//!
//! The engine runs happily *while* a controller reconfigures the target:
//! each packet reports the epoch it ran under, the report keeps both the
//! observed epoch set and the per-worker epoch sequences, and tests use
//! those to assert that concurrent updates really interleaved with the
//! traffic (and that epochs never ran backwards within a worker).

use crate::exec::SimError;
use snap_lang::Packet;
use snap_topology::PortId;
use std::collections::BTreeSet;

/// Per-packet outcome of driving one batch through a [`TrafficTarget`]:
/// the epoch the packet executed under and its egress events, or the
/// packet's error.
pub type TargetBatch<E> = Vec<Result<(u64, Vec<(PortId, Packet)>), E>>;

/// Anything the [`TrafficEngine`] can drive a workload through: a plane
/// that executes batches of packets and reports per-packet epochs and
/// egress.
pub trait TrafficTarget: Sync {
    /// The plane's per-packet error type.
    type Error: Send;

    /// Run one batch of packets to completion and report, in batch order,
    /// each packet's `(epoch, egress)` or error.
    fn drive_batch(&self, batch: &[(PortId, Packet)]) -> TargetBatch<Self::Error>;
}

impl<T: TrafficTarget + Send> TrafficTarget for std::sync::Arc<T> {
    type Error = T::Error;

    fn drive_batch(&self, batch: &[(PortId, Packet)]) -> TargetBatch<Self::Error> {
        (**self).drive_batch(batch)
    }
}

/// Drives a packet workload through a [`TrafficTarget`] over N worker
/// threads.
#[derive(Clone, Copy, Debug)]
pub struct TrafficEngine {
    workers: usize,
    batch_size: usize,
}

/// What a [`TrafficEngine::run`] did: per-worker egress, counters and the
/// configuration epochs the packets observed. Generic over the target's
/// error type (defaulting to the execution core's [`SimError`]).
#[derive(Clone, Debug)]
pub struct TrafficReport<E = SimError> {
    /// Egress events collected by each worker, in that worker's processing
    /// order (each packet's egress grouped, packets in shard order).
    pub egress: Vec<Vec<(PortId, Packet)>>,
    /// Packets successfully processed to completion.
    pub processed: usize,
    /// Per-packet errors encountered (a failed packet loses only its own
    /// egress; the rest of its batch is unaffected).
    pub errors: Vec<E>,
    /// Configuration epochs observed across all packets.
    pub epochs: BTreeSet<u64>,
    /// Per worker, the epoch of each successfully processed packet in that
    /// worker's processing order — what tests use to assert per-worker
    /// epoch monotonicity under concurrent reconfiguration.
    pub worker_epochs: Vec<Vec<u64>>,
}

impl<E> Default for TrafficReport<E> {
    fn default() -> Self {
        TrafficReport {
            egress: Vec::new(),
            processed: 0,
            errors: Vec::new(),
            epochs: BTreeSet::new(),
            worker_epochs: Vec::new(),
        }
    }
}

impl<E> TrafficReport<E> {
    /// Total number of egress events across all workers.
    pub fn total_egress(&self) -> usize {
        self.egress.iter().map(Vec::len).sum()
    }

    /// Did every packet process without error?
    pub fn is_clean(&self) -> bool {
        self.errors.is_empty()
    }
}

impl TrafficEngine {
    /// An engine with `workers` threads (minimum 1) and the default batch
    /// size.
    pub fn new(workers: usize) -> TrafficEngine {
        TrafficEngine {
            workers: workers.max(1),
            batch_size: 64,
        }
    }

    /// Packets per [`TrafficTarget::drive_batch`] call (minimum 1). Larger
    /// batches amortize configuration and store-lock acquisitions; smaller
    /// ones observe configuration updates at a finer grain.
    pub fn with_batch_size(mut self, batch_size: usize) -> TrafficEngine {
        self.batch_size = batch_size.max(1);
        self
    }

    /// Number of worker threads.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Shard `workload` across the workers and run every packet to
    /// completion through `target`. Returns when all workers have drained
    /// their shards.
    pub fn run<T: TrafficTarget>(
        &self,
        target: &T,
        workload: &[(PortId, Packet)],
    ) -> TrafficReport<T::Error> {
        let pump = |shard: &[(PortId, Packet)]| {
            let mut result = WorkerResult::default();
            for batch in shard.chunks(self.batch_size) {
                for packet in target.drive_batch(batch) {
                    match packet {
                        Ok((epoch, egress)) => {
                            result.processed += 1;
                            result.epochs.push(epoch);
                            result.egress.extend(egress);
                        }
                        Err(e) => result.errors.push(e),
                    }
                }
            }
            result
        };
        let shard_len = workload.len().div_ceil(self.workers).max(1);
        let worker_results: Vec<WorkerResult<T::Error>> = if self.workers == 1 {
            // A single worker has nothing to run concurrently with: pump the
            // workload on the calling thread and keep its warm caches,
            // instead of paying a spawn/join and a cold core per run.
            vec![pump(workload)]
        } else {
            let shards: Vec<&[(PortId, Packet)]> = workload.chunks(shard_len).collect();
            std::thread::scope(|scope| {
                let handles: Vec<_> = shards
                    .into_iter()
                    .map(|shard| scope.spawn(move || pump(shard)))
                    .collect();
                handles
                    .into_iter()
                    .map(|h| h.join().expect("traffic worker panicked"))
                    .collect()
            })
        };

        let mut report = TrafficReport::default();
        for w in worker_results {
            report.egress.push(w.egress);
            report.processed += w.processed;
            report.errors.extend(w.errors);
            report.epochs.extend(w.epochs.iter().copied());
            report.worker_epochs.push(w.epochs);
        }
        report
    }
}

struct WorkerResult<E> {
    egress: Vec<(PortId, Packet)>,
    processed: usize,
    errors: Vec<E>,
    epochs: Vec<u64>,
}

impl<E> Default for WorkerResult<E> {
    fn default() -> Self {
        WorkerResult {
            egress: Vec::new(),
            processed: 0,
            errors: Vec::new(),
            epochs: Vec::new(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use snap_lang::{Field, Value};
    use std::sync::atomic::{AtomicUsize, Ordering};

    /// The smallest target there is: every packet leaves at port 6 under
    /// epoch 0 and is counted; port 99 does not exist.
    #[derive(Default)]
    struct Echo {
        processed: AtomicUsize,
    }

    impl TrafficTarget for Echo {
        type Error = SimError;

        fn drive_batch(&self, batch: &[(PortId, Packet)]) -> TargetBatch<SimError> {
            let run = |(port, pkt): &(PortId, Packet)| {
                if *port == PortId(99) {
                    return Err(SimError::UnknownPort(*port));
                }
                self.processed.fetch_add(1, Ordering::Relaxed);
                Ok((0, vec![(PortId(6), pkt.clone())]))
            };
            batch.iter().map(run).collect()
        }
    }

    fn workload(n: usize) -> Vec<(PortId, Packet)> {
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

    #[test]
    fn multi_worker_run_matches_single_worker() {
        let load = workload(120);

        let single = TrafficEngine::new(1).run(&Echo::default(), &load);
        assert!(single.is_clean());
        assert_eq!(single.processed, load.len());

        let multi = TrafficEngine::new(4)
            .with_batch_size(8)
            .run(&Echo::default(), &load);
        assert!(multi.is_clean());
        assert_eq!(multi.processed, load.len());
        assert_eq!(multi.epochs, BTreeSet::from([0]));
        assert!(multi
            .worker_epochs
            .iter()
            .all(|trace| trace.iter().all(|&e| e == 0)));

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
        let report = engine.run(&Echo::default(), &workload(3));
        assert!(report.is_clean());
        assert_eq!(report.processed, 3);
    }

    #[test]
    fn failing_packets_lose_only_their_own_egress() {
        // Packets at an unknown port error individually; the rest of their
        // batch still processes, counts and egresses.
        let target = Echo::default();
        let mut load = workload(40);
        for i in [3usize, 17, 34] {
            load[i].0 = PortId(99);
        }
        let report = TrafficEngine::new(2)
            .with_batch_size(10)
            .run(&target, &load);
        assert_eq!(report.errors.len(), 3);
        assert!(report
            .errors
            .iter()
            .all(|e| *e == SimError::UnknownPort(PortId(99))));
        assert_eq!(report.processed, 37);
        assert_eq!(report.total_egress(), 37);
        assert_eq!(target.processed.load(Ordering::Relaxed), 37);
    }
}
