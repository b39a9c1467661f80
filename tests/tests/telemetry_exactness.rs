//! Metric exactness under concurrency, on hand-placed and deployed fleets.
//!
//! The telemetry registry shards hot-path counters per worker and only
//! aggregates on read; the contract is that once the workers have joined,
//! the sums are *exact*. These tests pin that down by driving the same
//! workload through the multi-worker `TrafficEngine` and comparing the
//! aggregated per-switch packet / hop / state-write counters against
//! totals computed independently — the workload size, and the state
//! counter the existing invariant tests already prove exact via
//! `aggregate_store`.
//!
//! The replicated-state suite at the bottom extends the same contract to
//! the sharded state plane: per-worker replica buffers (commuting
//! variables) and key-range shard locks (exact variables) must produce
//! totals bit-identical to a single-threaded run, at 1/2/4/8 workers, with
//! the placement pinned by hand and chosen by the compiler, and across an
//! update that migrates a replicated variable.

use snap_dataplane::PlaneTelemetry;
use snap_distrib::TrafficEngine;
use snap_lang::prelude::*;
use snap_session::CompilerSession;
use snap_telemetry::MetricsSnapshot;
use snap_tests::network::Fleet;
use snap_topology::generators::campus;
use snap_topology::{PortId, TrafficMatrix};

const TOTAL: usize = 600;

/// Count every packet per inport on C6, then deliver via port 6.
fn counting_policy() -> Policy {
    state_incr("count", vec![field(Field::InPort)]).seq(modify(Field::OutPort, Value::Int(6)))
}

fn campus_fleet() -> Fleet {
    Fleet::campus(&counting_policy(), "C6")
}

fn workload() -> Vec<(PortId, Packet)> {
    (0..TOTAL)
        .map(|i| (PortId(1 + i % 6), Packet::new().with(Field::InPort, 1)))
        .collect()
}

/// Like [`workload`], but spreading the state index across six inports so
/// replica merges and key-range shard routing both see multiple keys.
fn keyed_workload() -> Vec<(PortId, Packet)> {
    (0..TOTAL)
        .map(|i| {
            (
                PortId(1 + i % 6),
                Packet::new().with(Field::InPort, (1 + i % 6) as i64),
            )
        })
        .collect()
}

fn family_total(snap: &MetricsSnapshot, name: &str) -> u64 {
    snap.families[name].iter().map(|(_, v)| v).sum()
}

/// The independently exact totals: every packet counted, every state
/// write landed on C6, and every counter family consistent with them.
fn assert_exact(snap: &MetricsSnapshot, state_writes_per_packet: u64) {
    assert_eq!(snap.counters["driver.packets"], TOTAL as u64);
    assert_eq!(snap.counters["driver.deliveries"], TOTAL as u64);
    assert_eq!(snap.counters["driver.policy_drops"], 0);
    assert_eq!(snap.counters["driver.errors"], 0);
    assert_eq!(family_total(snap, "switch.packets"), TOTAL as u64);
    assert_eq!(
        family_total(snap, "switch.state_writes"),
        TOTAL as u64 * state_writes_per_packet
    );
    // Each state variable lives on exactly one switch, so one row — the
    // counter's owner, wherever placement put it — carries the entire
    // family.
    let max_writes = snap.families["switch.state_writes"]
        .iter()
        .map(|(_, v)| *v)
        .max()
        .unwrap();
    assert_eq!(max_writes, TOTAL as u64 * state_writes_per_packet);
    // Every locked-phase visit is attributed to exactly one switch, and
    // every delivered packet visited at least its state owner.
    assert!(family_total(snap, "switch.hops") >= TOTAL as u64);
    // The delivery histogram saw every delivered packet.
    assert_eq!(snap.histograms["packet.delivery_hops"].count, TOTAL as u64);
    // Wave-prefix accounting is consistent: survivors are a subset.
    assert!(
        snap.counters["driver.wave_prefix.survivors"]
            <= snap.counters["driver.wave_prefix.packets"]
    );
}

#[test]
fn network_counters_are_exact_across_workers() {
    let load = workload();

    let single = campus_fleet();
    TrafficEngine::new(1)
        .with_batch_size(16)
        .run(&single.network, &load);
    let single_snap = single.network.metrics_snapshot();
    assert_exact(&single_snap, 1);

    let multi = campus_fleet();
    let engine = TrafficEngine::new(4).with_batch_size(16);
    let report = engine.run(&multi.network, &load);
    assert!(report.is_clean());
    let multi_snap = multi.network.metrics_snapshot();
    assert_exact(&multi_snap, 1);

    // The exact total the existing invariant tests compute independently.
    let store = multi.network.aggregate_store();
    assert_eq!(
        store.get(&"count".into(), &[Value::Int(1)]),
        Value::Int(TOTAL as i64)
    );

    // Worker count must not change any aggregated reading: same workload,
    // same per-switch attribution, sharded or not.
    for family in ["switch.packets", "switch.hops", "switch.state_writes"] {
        assert_eq!(
            single_snap.families[family], multi_snap.families[family],
            "{family} diverged between 1 and 4 workers"
        );
    }
    for counter in [
        "driver.packets",
        "driver.deliveries",
        "driver.wave_prefix.packets",
        "driver.wave_prefix.survivors",
    ] {
        assert_eq!(
            single_snap.counters[counter], multi_snap.counters[counter],
            "{counter} diverged between 1 and 4 workers"
        );
    }
    // Store-lock accounting lives on the per-switch shard planes now (the
    // process-wide `driver.store_lock_acquisitions` counter is gone):
    // per-shard families are read off the shards at snapshot time.
    // Acquisitions are amortized per (switch, batch-group) and the counting
    // variable is replicable, so the only locks are replica merge flushes —
    // bounded by the packet count either way, and never zero with state
    // traffic.
    for snap in [&single_snap, &multi_snap] {
        let locks = family_total(snap, "store.shard.acquisitions");
        assert!(locks > 0 && locks <= TOTAL as u64);
        assert!(family_total(snap, "store.shard.contended") <= locks);
        assert!(family_total(snap, "store.shard.merge_flushes") > 0);
    }
}

#[test]
fn two_instances_never_contaminate_each_other() {
    // The regression the per-instance registry fixed: before it, these
    // counters were process-wide statics, and two planes driven in the
    // same process bled into each other's readings.
    let load = workload();
    let (a, b) = (campus_fleet(), campus_fleet());
    let engine = TrafficEngine::new(2).with_batch_size(16);
    engine.run(&a.network, &load);
    engine.run(&b.network, &load[..TOTAL / 2]);
    assert_eq!(
        a.network.metrics_snapshot().counters["driver.packets"],
        TOTAL as u64
    );
    assert_eq!(
        b.network.metrics_snapshot().counters["driver.packets"],
        (TOTAL / 2) as u64
    );
}

#[test]
fn dist_plane_counters_are_exact_across_workers() {
    let topo = campus();
    let tm = TrafficMatrix::gravity(&topo, 600.0, 42);
    let session = CompilerSession::new(topo, tm);
    let mut deployment = snap_distrib::deploy_in_process(session, 4096);
    deployment
        .controller
        .update_policy(&counting_policy())
        .unwrap();

    let load = workload();
    let report = TrafficEngine::new(4)
        .with_batch_size(16)
        .run(&deployment.network, &load);
    assert!(report.is_clean(), "errors: {:?}", report.errors);

    let snap = deployment.network.metrics_snapshot();
    assert_exact(&snap, 1);
    assert_eq!(
        deployment
            .network
            .aggregate_store()
            .get(&"count".into(), &[Value::Int(1)]),
        Value::Int(TOTAL as i64)
    );
    // The deployment shares one registry: the session's compile counters
    // land in the same snapshot as the packet counters.
    assert_eq!(snap.counters["session.compiles"], 1);
    deployment.shutdown();
}

#[test]
fn disabled_telemetry_records_nothing() {
    let fleet = campus_fleet().with_plane(|n| n.without_telemetry());
    let net = fleet.network.as_ref();
    TrafficEngine::new(2)
        .with_batch_size(16)
        .run(net, &workload());
    assert!(net.telemetry().is_none());
    let snap = net.metrics_snapshot();
    assert!(snap.counters.is_empty());
    assert!(snap.traces.is_empty());
}

#[test]
fn shared_telemetry_can_merge_two_planes() {
    // Sharing is explicit: two planes handed the same Telemetry instance
    // sum into one registry (the deployment helpers use exactly this to
    // merge controller and data plane).
    let telemetry = snap_telemetry::Telemetry::new();
    let a = campus_fleet().with_plane(|n| n.with_telemetry(telemetry.clone()));
    let b = campus_fleet().with_plane(|n| n.with_telemetry(telemetry.clone()));
    let load = workload();
    let engine = TrafficEngine::new(2).with_batch_size(16);
    engine.run(&a.network, &load);
    engine.run(&b.network, &load);
    assert_eq!(
        telemetry.snapshot().counters["driver.packets"],
        2 * TOTAL as u64
    );
}

// ---------------------------------------------------------------------------
// Replicated-state exactness: the sharded state plane buffers commuting
// updates in per-worker replicas and key-range-shards exact variables;
// neither path may change any total a single-threaded run would produce.
// ---------------------------------------------------------------------------

/// Per-inport counter totals after one run of `load` at `workers` workers.
fn run_and_collect(workers: usize, load: &[(PortId, Packet)]) -> Vec<(i64, Value)> {
    let fleet = campus_fleet();
    let report = TrafficEngine::new(workers)
        .with_batch_size(16)
        .run(&fleet.network, load);
    assert!(report.is_clean(), "errors: {:?}", report.errors);
    let store = fleet.network.aggregate_store();
    (1..=6)
        .map(|p| (p, store.get(&"count".into(), &[Value::Int(p)])))
        .collect()
}

#[test]
fn replicated_counter_is_exact_across_worker_counts() {
    // The compiler proves "count" commuting (every write an increment,
    // never tested), so the data plane takes the lock-free replica path —
    // and the merged totals must still be bit-identical to the
    // single-threaded reference at every worker count.
    let flat = snap_xfdd::compile(&counting_policy()).unwrap().flatten();
    assert_eq!(
        flat.state_class(&"count".into()),
        snap_xfdd::StateClass::Counter
    );

    let load = keyed_workload();
    let reference = run_and_collect(1, &load);
    for (p, total) in &reference {
        assert_eq!(*total, Value::Int((TOTAL / 6) as i64), "inport {p}");
    }
    for workers in [2usize, 4, 8] {
        assert_eq!(
            run_and_collect(workers, &load),
            reference,
            "{workers}-worker totals diverged from the single-threaded reference"
        );
    }
}

#[test]
fn exact_keyed_flag_is_exact_across_worker_counts() {
    // A *tested* variable is not replicable — it takes the key-range shard
    // path, one short lock per access. The first packet per inport sets
    // the flag, every later one reads it; the final table is
    // order-independent, so any divergence is a locking bug, not
    // scheduling noise.
    let policy = ite(
        state_test("seen", vec![field(Field::InPort)], int(1)),
        id(),
        state_set("seen", vec![field(Field::InPort)], int(1)),
    )
    .seq(modify(Field::OutPort, Value::Int(6)));
    let flat = snap_xfdd::compile(&policy).unwrap().flatten();
    assert_eq!(
        flat.state_class(&"seen".into()),
        snap_xfdd::StateClass::Exact
    );

    let load = keyed_workload();
    for workers in [1usize, 2, 4, 8] {
        let fleet = Fleet::campus(&policy, "C6");
        let report = TrafficEngine::new(workers)
            .with_batch_size(16)
            .run(&fleet.network, &load);
        assert!(report.is_clean(), "errors: {:?}", report.errors);
        let store = fleet.network.aggregate_store();
        for p in 1..=6 {
            assert_eq!(
                store.get(&"seen".into(), &[Value::Int(p)]),
                Value::Int(1),
                "{workers} workers, inport {p}"
            );
        }
    }
}

#[test]
fn dist_plane_replicated_totals_match_reference_across_workers() {
    // The same replica path with the compiler choosing the placement and
    // the controller committing it: one deployment per worker count, each
    // compared against the arithmetic reference.
    let load = keyed_workload();
    for workers in [1usize, 2, 4, 8] {
        let topo = campus();
        let tm = TrafficMatrix::gravity(&topo, 600.0, 42);
        let session = CompilerSession::new(topo, tm);
        let mut deployment = snap_distrib::deploy_in_process(session, 4096);
        deployment
            .controller
            .update_policy(&counting_policy())
            .unwrap();
        let report = TrafficEngine::new(workers)
            .with_batch_size(16)
            .run(&deployment.network, &load);
        assert!(report.is_clean(), "errors: {:?}", report.errors);
        let store = deployment.network.aggregate_store();
        for p in 1..=6 {
            assert_eq!(
                store.get(&"count".into(), &[Value::Int(p)]),
                Value::Int((TOTAL / 6) as i64),
                "{workers} workers, inport {p}"
            );
        }
        deployment.shutdown();
    }
}

#[test]
fn config_swap_migrates_replicated_variable_mid_run() {
    // Half the workload accrues on C6, the variable's owner moves to C1,
    // the rest accrues there: the replica deltas flushed before the update
    // must migrate with the table, exactly.
    let mut fleet = campus_fleet();
    let load = keyed_workload();
    let engine = TrafficEngine::new(4).with_batch_size(16);
    let report = engine.run(&fleet.network, &load[..TOTAL / 2]);
    assert!(report.is_clean(), "errors: {:?}", report.errors);
    fleet.place(&counting_policy(), "C1");
    assert_eq!(fleet.relayed, 1);
    let report = engine.run(&fleet.network, &load[TOTAL / 2..]);
    assert!(report.is_clean(), "errors: {:?}", report.errors);
    let store = fleet.network.aggregate_store();
    for p in 1..=6 {
        assert_eq!(
            store.get(&"count".into(), &[Value::Int(p)]),
            Value::Int((TOTAL / 6) as i64),
            "inport {p} total lost in migration"
        );
    }
}

#[test]
fn plane_telemetry_wave_prefix_stats_matches_counters() {
    // Needs a program with a stateless prefix: an all-state root goes
    // straight to the locked phase and the wave-prefix pass sees nothing.
    let policy = ite(
        test(Field::SrcPort, Value::Int(53)),
        state_incr("count", vec![field(Field::InPort)]),
        id(),
    )
    .seq(modify(Field::OutPort, Value::Int(6)));
    let fleet = Fleet::campus(&policy, "C6");
    let net = fleet.network.as_ref();

    let load: Vec<(PortId, Packet)> = (0..TOTAL)
        .map(|i| {
            (
                PortId(1 + i % 6),
                Packet::new()
                    .with(Field::InPort, 1)
                    .with(Field::SrcPort, if i % 4 == 0 { 53 } else { 9999 }),
            )
        })
        .collect();
    TrafficEngine::new(2).with_batch_size(16).run(net, &load);
    let t: &PlaneTelemetry = net.telemetry().unwrap();
    let (packets, survivors) = t.wave_prefix_stats();
    let snap = net.metrics_snapshot();
    assert_eq!(snap.counters["driver.wave_prefix.packets"], packets);
    assert_eq!(snap.counters["driver.wave_prefix.survivors"], survivors);
    assert!(packets > 0);
    // Only the DNS-flavoured quarter of the workload pays for state.
    assert!(survivors < packets);
}
