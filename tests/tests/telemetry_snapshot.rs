//! The acceptance scenario for the telemetry plane: one
//! `MetricsSnapshot::to_json()` from a campus `DistNetwork` run contains
//! per-switch packet / hop / state-write counters, egress queue stats,
//! per-variable state-table sizes, wave-prefix survivor ratios, at least
//! one sampled end-to-end packet trace, and the commit event log for every
//! epoch.

use snap_distrib::TrafficEngine;
use snap_lang::prelude::*;
use snap_session::CompilerSession;
use snap_telemetry::CommitEvent;
use snap_topology::generators::campus;
use snap_topology::{PortId, TrafficMatrix};

fn counting_policy(threshold: i64) -> Policy {
    ite(
        state_test("count", vec![field(Field::InPort)], int(threshold)),
        drop(),
        state_incr("count", vec![field(Field::InPort)]),
    )
    .seq(modify(Field::OutPort, Value::Int(6)))
}

#[test]
fn campus_distributed_snapshot_is_complete() {
    let topo = campus();
    let tm = TrafficMatrix::gravity(&topo, 600.0, 42);
    let session = CompilerSession::new(topo, tm);
    let mut deployment = snap_distrib::deploy_in_process(session, 4096);

    // Sample aggressively so a short run is guaranteed a full trace.
    deployment
        .network
        .telemetry()
        .unwrap()
        .telemetry()
        .tracer()
        .set_every(10);

    // Two distributed commits (a policy update and its follow-up), then a
    // multi-worker traffic run against the committed epoch.
    deployment
        .controller
        .update_policy(&counting_policy(1_000_000))
        .unwrap();
    deployment
        .controller
        .update_policy(&counting_policy(2_000_000))
        .unwrap();
    let committed = deployment.controller.epoch();
    assert_eq!(committed, 2);

    let load: Vec<(PortId, Packet)> = (0..300)
        .map(|i| (PortId(1 + i % 6), Packet::new().with(Field::InPort, 1)))
        .collect();
    let report = TrafficEngine::new(4)
        .with_batch_size(16)
        .run(deployment.network.as_ref(), &load);
    assert!(report.is_clean(), "errors: {:?}", report.errors);

    let snap = deployment.network.metrics_snapshot();

    // Per-switch counters, with non-zero totals.
    for family in ["switch.packets", "switch.hops", "switch.state_writes"] {
        let total: u64 = snap.families[family].iter().map(|(_, v)| v).sum();
        assert!(total > 0, "{family} is empty");
    }
    // Egress queue stats for the delivery switch's agent (port 6 — the CS
    // department — hangs off D4 in the campus topology).
    let enqueued: u64 = snap.families["egress.D4.enqueued"]
        .iter()
        .map(|(_, v)| v)
        .sum();
    assert_eq!(enqueued, 300);
    let depth: u64 = snap.families["egress.D4.depth"]
        .iter()
        .map(|(_, v)| v)
        .sum();
    assert_eq!(depth, 300, "nothing drained: depth equals enqueued");
    // Per-variable table sizes, read off the owner's store: every packet
    // counted under the one key `count[1]`, on exactly one switch.
    let tables = &snap.families["store.table.entries"];
    let counts: Vec<_> = tables
        .iter()
        .filter(|(label, _)| label.ends_with("/count"))
        .collect();
    assert_eq!(counts.len(), 1, "one owner holds `count`: {tables:?}");
    assert_eq!(counts[0].1, 1, "one key was ever written");
    // Wave-prefix survivor ratio is well-formed.
    let wp = snap.counters["driver.wave_prefix.packets"];
    let ws = snap.counters["driver.wave_prefix.survivors"];
    assert!(wp > 0 && ws <= wp);
    // At least one sampled end-to-end trace, with hops and an egress.
    assert!(!snap.traces.is_empty(), "no packet trace sampled");
    let trace = snap
        .traces
        .iter()
        .find(|t| t.egress.is_some())
        .expect("a delivered packet was sampled");
    assert!(!trace.hops.is_empty());
    assert!(trace.hops.iter().all(|h| h.epoch == trace.ingress_epoch));
    assert!(!trace.hops.last().unwrap().outcome.is_empty());
    // The commit event log covers every epoch: one prepare and one commit
    // per distributed update.
    for epoch in 1..=committed {
        assert!(
            snap.events.iter().any(|r| r.event.epoch() == epoch
                && matches!(r.event, CommitEvent::Prepare { .. })),
            "no prepare event for epoch {epoch}"
        );
        let commit = snap
            .events
            .iter()
            .find(|r| r.event.epoch() == epoch && matches!(r.event, CommitEvent::Commit { .. }))
            .unwrap_or_else(|| panic!("no commit event for epoch {epoch}"));
        if let CommitEvent::Commit { per_agent, .. } = &commit.event {
            assert_eq!(
                per_agent.agents(),
                deployment.controller.agent_count(),
                "per-agent timings incomplete"
            );
        }
    }

    // Where each compile that ran phases went: one histogram per phase,
    // one sample per compile (both updates were novel policies).
    for phase in [
        "deps",
        "translate",
        "race_check",
        "extract",
        "mapping",
        "placement",
        "rulegen",
        "evict",
    ] {
        let name = format!("session.phase_us{{{phase}}}");
        let histogram = snap
            .histograms
            .get(&name)
            .unwrap_or_else(|| panic!("no {name} histogram"));
        assert_eq!(histogram.count, snap.counters["session.compiles"], "{name}");
    }

    // All of it reachable from the single JSON export.
    let json = snap.to_json();
    for needle in [
        "\"switch.packets\"",
        "\"switch.hops\"",
        "\"switch.state_writes\"",
        "\"egress.D4.enqueued\"",
        "\"store.table.entries\"",
        "\"driver.wave_prefix.survivors\"",
        "\"traces\"",
        "\"kind\": \"prepare\"",
        "\"kind\": \"commit\"",
        "\"session.compiles\"",
        "\"commit.prepare_us\"",
        "\"session.phase_us{mapping}\"",
    ] {
        assert!(json.contains(needle), "snapshot JSON lacks {needle}");
    }

    deployment.shutdown();
}
