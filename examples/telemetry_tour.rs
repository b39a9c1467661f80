//! Tour of the telemetry plane: drive a campus workload through a
//! distributed commit, then read everything back from one snapshot —
//! per-switch counters, egress queue stats, histograms, a sampled
//! end-to-end packet trace, the commit event log, and interval deltas
//! between successive snapshots rendered one line per interval.
//!
//! ```text
//! cargo run --release -p snap-examples --example telemetry_tour
//! ```

use snap_apps as apps;
use snap_distrib::{deploy_in_process, TrafficEngine};
use snap_lang::prelude::*;
use snap_session::CompilerSession;
use snap_topology::generators::campus;
use snap_topology::{PortId, TrafficMatrix};

fn main() {
    // A distributed campus deployment. Telemetry is on by default: the
    // controller, the compiler session and every agent's data plane share
    // one registry, so a single snapshot covers all of them.
    let topo = campus();
    let tm = TrafficMatrix::gravity(&topo, 600.0, 42);
    let session = CompilerSession::new(topo, tm);
    let mut deployment = deploy_in_process(session, 1024);

    // Sample 1-in-10 packets into the trace ring so a short run is
    // guaranteed a few full hop-by-hop traces (the default is 1-in-1024).
    deployment
        .network
        .telemetry()
        .expect("telemetry is on by default")
        .telemetry()
        .tracer()
        .set_every(10);

    // Two distributed commits: the calm policy, then an attack-threshold
    // edit. Each two-phase commit lands in the event log with payload
    // sizes and per-agent prepare/commit timings.
    let calm = apps::dns_tunnel_detect(3).seq(apps::assign_egress(6));
    let attack = apps::dns_tunnel_detect(8).seq(apps::assign_egress(6));
    deployment.controller.update_policy(&calm).unwrap();
    deployment.controller.update_policy(&attack).unwrap();

    // Traffic arrives in waves; between waves the monitor pattern from
    // snap-soak applies: snapshot, diff against the previous snapshot
    // with `MetricsSnapshot::delta`, and render the interval as one line
    // of derived rates (pkts/s, commits, shard contention, queue depth).
    let start = std::time::Instant::now();
    let mut prev = deployment.network.metrics_snapshot();
    println!("interval deltas, one line per traffic wave:");
    for wave in 0..3 {
        let load: Vec<(PortId, Packet)> = (0..240)
            .map(|i| {
                (
                    PortId(1 + i % 6),
                    Packet::new()
                        .with(Field::SrcIp, Value::ip(8, 8, 8, 8))
                        .with(
                            Field::DstIp,
                            Value::ip(10, 0, 6, (10 + wave * 40 + i % 40) as u8),
                        )
                        .with(Field::SrcPort, 53)
                        .with(Field::DnsRdata, Value::ip(1, 2, (i % 9) as u8, 4)),
                )
            })
            .collect();
        let report = TrafficEngine::new(3)
            .with_batch_size(32)
            .run(deployment.network.as_ref(), &load);
        assert!(report.is_clean(), "errors: {:?}", report.errors);

        let snap = deployment.network.metrics_snapshot();
        let delta = snap.delta(&prev);
        let stats = snap_soak::IntervalStats::from_delta(
            wave,
            start.elapsed().as_secs_f64(),
            &delta,
            &snap,
        );
        println!("{}", stats.render_line());
        prev = snap;
    }

    // One snapshot, everything in it: counters, gauges, histograms,
    // per-switch and per-agent families, traces and commit events.
    let snap = deployment.network.metrics_snapshot();
    println!("{}", snap.render());

    // The sampled traces record each hop's switch, entry node in the flat
    // program, state reads/writes and outcome — pick a delivered one.
    if let Some(trace) = snap.traces.iter().find(|t| t.egress.is_some()) {
        println!("one sampled end-to-end trace:");
        println!("{}", trace.render());
    }

    // The commit event log, one prepare + one commit per epoch.
    println!("commit event log:");
    for record in &snap.events {
        println!("  {}", record.render());
    }

    // The same snapshot serializes to JSON for offline tooling.
    let json = snap.to_json();
    println!("JSON export: {} bytes", json.len());

    deployment.shutdown();
}
