//! Multi-worker traffic generation: drive a packet workload through the
//! agent fleet ([`DistNetwork`]) from N threads.
//!
//! Scaling traffic is embarrassingly parallel up to the per-switch store
//! locks: the engine shards a workload across worker threads, each worker
//! pumps its shard batch by batch (one configuration acquisition per
//! visited switch per batch, thanks to the batched driver, and one store
//! lock per stateful visit) and collects its egress locally; per-worker
//! results are only merged after the workers join — no shared output
//! structure, no coordination on the hot path.
//!
//! The engine runs happily *while* a controller reconfigures the target:
//! each packet reports the epoch it ran under, the report keeps both the
//! observed epoch set and the per-worker epoch sequences, and tests use
//! those to assert that concurrent updates really interleaved with the
//! traffic (and that epochs never ran backwards within a worker).

use crate::plane::{DistNetwork, InjectError};
use snap_lang::Packet;
use snap_topology::PortId;
use std::collections::BTreeSet;

/// Drives a packet workload through a [`DistNetwork`] over N worker
/// threads.
#[derive(Clone, Copy, Debug)]
pub struct TrafficEngine {
    workers: usize,
    batch_size: usize,
}

/// What a [`TrafficEngine::run`] did: per-worker egress, counters and the
/// configuration epochs the packets observed.
#[derive(Clone, Debug, Default)]
pub struct TrafficReport {
    /// Egress events collected by each worker, in that worker's processing
    /// order (each packet's egress grouped, packets in shard order).
    pub egress: Vec<Vec<(PortId, Packet)>>,
    /// Packets successfully processed to completion.
    pub processed: usize,
    /// Per-packet errors encountered (a failed packet loses only its own
    /// egress; the rest of its batch is unaffected).
    pub errors: Vec<InjectError>,
    /// Configuration epochs observed across all packets.
    pub epochs: BTreeSet<u64>,
    /// Per worker, the epoch of each successfully processed packet in that
    /// worker's processing order — what tests use to assert per-worker
    /// epoch monotonicity under concurrent reconfiguration.
    pub worker_epochs: Vec<Vec<u64>>,
}

impl TrafficReport {
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

    /// Packets per [`DistNetwork::inject_batch`] call (minimum 1). Larger
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
    /// completion through `network`. Returns when all workers have drained
    /// their shards.
    pub fn run(&self, network: &DistNetwork, workload: &[(PortId, Packet)]) -> TrafficReport {
        let pump = |shard: &[(PortId, Packet)]| {
            let mut result = WorkerResult::default();
            for batch in shard.chunks(self.batch_size) {
                for packet in network.inject_batch(batch) {
                    match packet {
                        Ok(outcome) => {
                            result.processed += 1;
                            result.epochs.push(outcome.epoch);
                            result.egress.extend(outcome.delivered);
                        }
                        Err(e) => result.errors.push(e),
                    }
                }
            }
            result
        };
        let shard_len = workload.len().div_ceil(self.workers).max(1);
        let worker_results: Vec<WorkerResult> = if self.workers == 1 {
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

#[derive(Default)]
struct WorkerResult {
    egress: Vec<(PortId, Packet)>,
    processed: usize,
    errors: Vec<InjectError>,
    epochs: Vec<u64>,
}
