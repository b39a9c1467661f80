//! The concurrent controller loop, end to end: packet workers hammer a
//! shared fleet from multiple threads while the controller recompiles and
//! commits new configurations mid-flight. Exercises epoch-stamped views
//! (injectors never block on a recompile or a commit), state survival
//! across updates, and the per-packet epoch guarantee (a packet never mixes
//! two configurations).

use snap_core::SolverChoice;
use snap_dataplane::TrafficEngine;
use snap_distrib::{deploy_in_process, InProcessDeployment, EPOCH_HISTORY};
use snap_lang::prelude::*;
use snap_session::CompilerSession;
use snap_tests::network::{Fleet, Pace};
use snap_topology::generators::campus;
use snap_topology::{PortId, TrafficMatrix};
use std::collections::BTreeSet;
use std::sync::Arc;

/// Count every packet per inport, then send it to `egress`.
fn counting_policy(egress: i64) -> Policy {
    state_incr("count", vec![field(Field::InPort)]).seq(modify(Field::OutPort, Value::Int(egress)))
}

/// A family of *distinct* programs with identical packet-state mappings: the
/// guard threshold is far beyond any count this test can reach, so every
/// version behaves like `counting_policy(6)` — but each version is a real
/// recompile-and-commit. Because the mapping and dependencies are unchanged,
/// the session reuses the placement and the counter's owner never moves,
/// which is what makes the concurrent totals exact.
fn guarded_counting_policy(threshold: i64) -> Policy {
    ite(
        state_test("count", vec![field(Field::InPort)], int(threshold)),
        drop(),
        state_incr("count", vec![field(Field::InPort)]),
    )
    .seq(modify(Field::OutPort, Value::Int(6)))
}

/// A campus fleet, one agent thread per switch, running `policy`.
fn deploy(policy: &Policy) -> InProcessDeployment {
    let topo = campus();
    let tm = TrafficMatrix::gravity(&topo, 600.0, 42);
    let session = CompilerSession::new(topo, tm).with_solver(SolverChoice::Heuristic);
    let mut deployment = deploy_in_process(session, 4096);
    deployment.controller.update_policy(policy).unwrap();
    deployment
}

fn count_of(store: &Store) -> Value {
    store.get(&"count".into(), &[Value::Int(1)])
}

#[test]
fn traffic_flows_while_the_session_publishes_new_configs() {
    let mut deployment = deploy(&guarded_counting_policy(1_000_000));
    let network = Arc::clone(&deployment.network);

    const WORKERS: usize = 4;
    const BATCHES: usize = 25;
    const BATCH: usize = 8;
    const UPDATES: usize = 10;
    let pace = Pace::new(WORKERS, BATCHES);

    let committed = std::thread::scope(|scope| {
        // Packet workers: each drives batches through its own clone of the
        // shared handle, recording the epochs its packets observed.
        let pace = &pace;
        let mut handles = Vec::new();
        for w in 0..WORKERS {
            let network = Arc::clone(&network);
            handles.push(scope.spawn(move || {
                // An agent's epoch never runs backwards, but two ingress
                // agents can sit one commit apart mid-wave: track per port.
                let mut last_epoch = [0u64; 7];
                let mut delivered = 0usize;
                for b in 0..BATCHES {
                    let batch: Vec<(PortId, Packet)> = (0..BATCH)
                        .map(|i| {
                            (
                                PortId(1 + (w + b + i) % 6),
                                Packet::new().with(Field::InPort, 1),
                            )
                        })
                        .collect();
                    for ((port, _), out) in batch.iter().zip(network.inject_batch(&batch)) {
                        let out = out.unwrap();
                        assert!(out.epoch >= last_epoch[port.0]);
                        last_epoch[port.0] = out.epoch;
                        assert_eq!(out.delivered.len(), 1);
                        assert_eq!(out.delivered[0].0, PortId(6), "egress from a torn config");
                        delivered += 1;
                    }
                    pace.batch_done(w);
                }
                delivered
            }));
        }

        // Controller: recompile and commit concurrently with the traffic.
        // Each version is a distinct program (new threshold) with the same
        // mapping, so placement is reused and the owner stays put.
        let mut committed = 1u64;
        let mut seen = [0; WORKERS];
        for s in 0..UPDATES {
            pace.wait(&mut seen);
            let next = guarded_counting_policy(1_000_000 + 1 + s as i64);
            let report = deployment.controller.update_policy(&next).unwrap();
            assert_eq!(report.epoch, committed + 1);
            committed = report.epoch;
        }

        let delivered: usize = handles.into_iter().map(|h| h.join().unwrap()).sum();
        assert_eq!(delivered, WORKERS * BATCHES * BATCH);
        committed
    });

    assert_eq!(network.current_epochs(), BTreeSet::from([committed]));
    // The session really did reuse the placement on every recompile: the
    // owner never moved, so each injected packet incremented exactly once
    // and the total is exact despite the concurrent commits.
    let stats = deployment.controller.session().stats();
    assert_eq!(stats.placement_reuses, UPDATES as u64);
    assert_eq!(
        count_of(&network.aggregate_store()),
        Value::Int((WORKERS * BATCHES * BATCH) as i64)
    );
    deployment.shutdown();
}

#[test]
fn traffic_engine_reports_epochs_spanning_concurrent_swaps() {
    let mut deployment = deploy(&guarded_counting_policy(1_000_000));
    let network = Arc::clone(&deployment.network);

    let workload: Vec<(PortId, Packet)> = (0..400)
        .map(|i| (PortId(1 + i % 6), Packet::new().with(Field::InPort, 1)))
        .collect();

    // The engine's workers are not paced against the controller, so every
    // epoch a packet can be stamped with must stay inside the agents' view
    // ring for the whole run.
    const UPDATES: u64 = 6;
    const _: () = assert!(UPDATES < EPOCH_HISTORY as u64);
    let report = std::thread::scope(|scope| {
        let engine = TrafficEngine::new(4).with_batch_size(16);
        let net = Arc::clone(&network);
        let traffic = scope.spawn(move || engine.run(&net, &workload));
        for s in 0..UPDATES as i64 {
            let next = guarded_counting_policy(2_000_000 + s);
            deployment.controller.update_policy(&next).unwrap();
            std::thread::yield_now();
        }
        traffic.join().unwrap()
    });

    assert!(report.is_clean(), "errors: {:?}", report.errors);
    assert_eq!(report.processed, 400);
    assert_eq!(report.total_egress(), 400);
    assert_eq!(report.egress.len(), 4);
    // Every observed epoch is one the controller actually committed.
    assert!(report
        .epochs
        .iter()
        .all(|&e| (1..=1 + UPDATES).contains(&e)));
    assert!(!report.epochs.is_empty());
    assert_eq!(count_of(&network.aggregate_store()), Value::Int(400));
    deployment.shutdown();
}

#[test]
fn aggregate_store_runs_concurrently_with_traffic() {
    // The aggregate view snapshots tables one short lock at a time, so it
    // can be polled while workers are mid-flight; totals observed along the
    // way never exceed the final exact count.
    let deployment = deploy(&counting_policy(6));
    let network = Arc::clone(&deployment.network);

    const TOTAL: usize = 600;
    let workload: Vec<(PortId, Packet)> = (0..TOTAL)
        .map(|i| (PortId(1 + i % 6), Packet::new().with(Field::InPort, 1)))
        .collect();

    std::thread::scope(|scope| {
        let net = Arc::clone(&network);
        let traffic = scope.spawn(move || {
            TrafficEngine::new(3)
                .with_batch_size(8)
                .run(&net, &workload)
        });
        let mut last = 0i64;
        for _ in 0..50 {
            let snapshot_total = count_of(&network.aggregate_store()).as_int().unwrap();
            assert!(snapshot_total >= last, "counter ran backwards");
            assert!(snapshot_total <= TOTAL as i64);
            last = snapshot_total;
            std::thread::yield_now();
        }
        let report = traffic.join().unwrap();
        assert!(report.is_clean());
    });
    assert_eq!(
        count_of(&network.aggregate_store()),
        Value::Int(TOTAL as i64)
    );
    deployment.shutdown();
}

#[test]
fn swapping_between_manual_configs_preserves_distributed_semantics() {
    // A distributed sanity check under updates with *hand-placed* state: the
    // variable's owner is pinned, so the concurrent total is exact even
    // though the program (egress port) keeps changing.
    let mut fleet = Fleet::campus(&counting_policy(6), "C6");
    const WORKERS: usize = 4;
    const BATCHES: usize = 15;
    const BATCH: usize = 8;
    const TOTAL: usize = WORKERS * BATCHES * BATCH;
    const UPDATES: u64 = 12;
    let workload: Vec<(PortId, Packet)> = (0..TOTAL)
        .map(|i| (PortId(1 + i % 6), Packet::new().with(Field::InPort, 1)))
        .collect();
    // More commits than the agents' view ring holds: the workers are paced
    // so that no batch outlives it.
    let pace = Pace::new(WORKERS, BATCHES);

    std::thread::scope(|scope| {
        let pace = &pace;
        let mut handles = Vec::new();
        for (w, shard) in workload.chunks(BATCHES * BATCH).enumerate() {
            let net = Arc::clone(&fleet.network);
            handles.push(scope.spawn(move || {
                let mut egress = 0usize;
                for batch in shard.chunks(BATCH) {
                    for out in net.inject_batch(batch) {
                        egress += out.unwrap().delivered.len();
                    }
                    pace.batch_done(w);
                }
                egress
            }));
        }
        let mut seen = [0; WORKERS];
        for s in 0..UPDATES {
            pace.wait(&mut seen);
            fleet.place(&counting_policy(if s % 2 == 0 { 1 } else { 6 }), "C6");
            assert_eq!(fleet.epoch, s + 2);
        }
        let egress: usize = handles.into_iter().map(|h| h.join().unwrap()).sum();
        assert_eq!(egress, TOTAL);
    });
    let epochs = fleet.network.current_epochs();
    assert_eq!(epochs, BTreeSet::from([1 + UPDATES]));
    assert_eq!(
        count_of(&fleet.network.aggregate_store()),
        Value::Int(TOTAL as i64)
    );
}
