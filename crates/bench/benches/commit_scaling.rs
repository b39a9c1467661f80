//! Commit-path scaling: end-to-end two-phase commit latency as the agent
//! fleet grows from 50 to 1000 switches, over both transports.
//!
//! The interesting quantity is the *shape* of the latency curve. With the
//! old per-link ordered ack loops, commit latency was the **sum** of every
//! agent's ack time — linear in fleet size, ~20× from 50 to 1000 agents.
//! With the shared reply mux the fan-out is concurrent, so latency is
//! one control-RTT plus the controller's per-ack drain work — sublinear.
//! To make the distinction measurable on a single-core container (where a
//! loopback "RTT" is nanoseconds and per-agent CPU work would dominate
//! either way), every agent emulates a control-network RTT by sleeping
//! [`SNAP_BENCH_RTT_US`](rtt) (default 5 ms) before each reply: agents
//! sleep **concurrently**, so a concurrent fan-out pays the RTT once while
//! a sequential one would pay it per agent. Zero-RTT numbers are recorded
//! alongside as secondary data.
//!
//! Writes the machine-readable `BENCH_commit.json` at the repo root:
//! per-fleet-size prepare/commit latency for the in-process and TCP
//! backends, the large-vs-small fleet ratio (the ≤ 5× acceptance bar),
//! and the measured prepare(N+1)/commit(N) pipeline overlap.
//!
//! Next to the flip sweep runs a **novel edit** leg: the benchmark of
//! record's `edit-churn` scenario (igen-50, the five-application pipeline,
//! one detection-threshold edit per commit, zero RTT), printing the fleet's
//! prepare/commit wall-clock, what one agent's prepare splits into — delta
//! apply with the lowering of its new nodes, slot binding, and the view —
//! replayed on a mirror of the same deltas, against lowering the whole
//! program in one go, and what a prepare costs a fleet of standalone agents
//! driven one after another through `SwitchAgent::handle`. Printed only;
//! `BENCH_commit.json` is unchanged.
//!
//! Set `SNAP_BENCH_SMOKE=1` (as CI does) for a reduced sweep (12/48
//! agents) that keeps every path exercised.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use snap_apps as apps;
use snap_bench::{five_app_pipeline, scaled_igen};
use snap_dataplane::{bind_slots, StateShards, DEFAULT_STATE_SHARDS};
use snap_distrib::{
    deploy_in_process_custom, deploy_tcp, DeployOptions, DistribOptions, InProcessDeployment,
    PrepareMsg, SwitchAgent, SwitchMeta, ToAgent,
};
use snap_lang::{Policy, StateVar};
use snap_session::CompilerSession;
use snap_topology::generators::igen_topology;
use snap_topology::{NodeId as SwitchId, TrafficMatrix};
use snap_xfdd::{encode_delta, FlatProgram, Mirror, Pool, TableProgram};
use std::collections::BTreeSet;
use std::fmt::Write as _;
use std::path::Path;
use std::time::{Duration, Instant};

fn smoke() -> bool {
    std::env::var_os("SNAP_BENCH_SMOKE").is_some()
}

/// The emulated control-network RTT (see the module docs).
fn rtt() -> Duration {
    let us = std::env::var("SNAP_BENCH_RTT_US")
        .ok()
        .and_then(|v| v.parse::<u64>().ok())
        .unwrap_or(5_000);
    Duration::from_micros(us)
}

fn fleet_sizes() -> Vec<usize> {
    if smoke() {
        vec![12, 48]
    } else {
        vec![50, 200, 1000]
    }
}

/// The paper's running example with a tweakable threshold: flipping the
/// threshold between two already-shipped values is the working-set edit
/// whose delta is ~one root, so the measured latency is the 2PC protocol,
/// not delta size.
fn variant(threshold: i64) -> Policy {
    apps::dns_tunnel_detect(threshold).seq(apps::assign_egress(6))
}

fn session_for(switches: usize) -> CompilerSession {
    let topo = igen_topology(switches, 42);
    let tm = TrafficMatrix::gravity(&topo, 1_000.0, 42);
    CompilerSession::new(topo, tm)
}

#[derive(Clone, Copy, PartialEq, Eq)]
enum Backend {
    InProcess,
    Tcp,
}

impl Backend {
    fn label(self) -> &'static str {
        match self {
            Backend::InProcess => "in_process",
            Backend::Tcp => "tcp",
        }
    }
}

fn deploy(switches: usize, backend: Backend, ack_delay: Option<Duration>) -> InProcessDeployment {
    let options = DeployOptions {
        distrib: DistribOptions::default(),
        ack_delay,
    };
    match backend {
        Backend::InProcess => deploy_in_process_custom(session_for(switches), 64, options),
        Backend::Tcp => {
            deploy_tcp(session_for(switches), 64, options).expect("loopback tcp deploy")
        }
    }
}

/// Best and median end-to-end commit latency (prepare + commit wall-clock
/// out of the [`snap_distrib::CommitReport`]) over `rounds` working-set
/// flips.
struct FlipStats {
    best_us: u64,
    median_us: u64,
    prepare_best_us: u64,
    commit_best_us: u64,
}

fn measure_flips(deployment: &mut InProcessDeployment, rounds: usize) -> FlipStats {
    // Warm both working-set versions so every timed round is a pure flip.
    deployment.controller.update_policy(&variant(3)).unwrap();
    deployment.controller.update_policy(&variant(8)).unwrap();
    let mut totals = Vec::with_capacity(rounds);
    let (mut prepare_best, mut commit_best) = (u64::MAX, u64::MAX);
    let mut calm = true;
    for _ in 0..rounds {
        let t = if calm { 3 } else { 8 };
        calm = !calm;
        let r = deployment.controller.update_policy(&variant(t)).unwrap();
        let prepare = r.prepare_time.as_micros() as u64;
        let commit = r.commit_time.as_micros() as u64;
        prepare_best = prepare_best.min(prepare);
        commit_best = commit_best.min(commit);
        totals.push(prepare + commit);
    }
    totals.sort_unstable();
    FlipStats {
        best_us: totals[0],
        median_us: totals[totals.len() / 2],
        prepare_best_us: prepare_best,
        commit_best_us: commit_best,
    }
}

/// Largest pipeline overlap observed over `rounds` back-to-back
/// `update_policy_async` flips — the wall-clock during which epoch N+1's
/// prepare ran while epoch N's commit acks were still draining.
fn measure_overlap(deployment: &mut InProcessDeployment, rounds: usize) -> u64 {
    deployment.controller.update_policy(&variant(3)).unwrap();
    deployment.controller.update_policy(&variant(8)).unwrap();
    let mut overlap = Duration::ZERO;
    let mut calm = true;
    let mut completed = Vec::new();
    for _ in 0..rounds {
        let t = if calm { 3 } else { 8 };
        calm = !calm;
        completed.extend(
            deployment
                .controller
                .update_policy_async(&variant(t))
                .unwrap(),
        );
    }
    completed.extend(deployment.controller.flush().unwrap());
    for r in &completed {
        overlap = overlap.max(r.pipeline_overlap);
    }
    overlap.as_micros() as u64
}

/// The median, in µs to a tenth.
fn median_us(samples: &mut [Duration]) -> String {
    samples.sort_unstable();
    format!("{:.1}", samples[samples.len() / 2].as_secs_f64() * 1e6)
}

/// The novel-edit leg (see the module docs): every commit ships a program
/// no agent has seen, so every agent applies a delta and lowers its new
/// nodes — the work a flip skips, its root being in every mirror already.
fn novel_edit_summary() {
    let (switches, edits) = if smoke() { (12, 3) } else { (50, 24) };
    let (topo, tm) = scaled_igen(switches, 10_000.0, 7);
    let ports = topo.num_external_ports();
    let session = CompilerSession::new(topo, tm);
    let mut deployment = deploy_in_process_custom(session, 64, DeployOptions::default());
    let threshold = |edit: usize| 1_000_000 + edit as i64;
    deployment
        .controller
        .update_policy(&five_app_pipeline(ports, threshold(0)))
        .unwrap();

    // One agent's prepare, replayed: the same compilations imported into a
    // private distribution pool, its suffix deltas applied to one mirror,
    // every variable bound as this switch's own.
    let first = deployment.controller.session().current_shared().unwrap();
    let placement = first.placement.placement.clone();
    let local_vars: BTreeSet<StateVar> = placement.keys().cloned().collect();
    let store = StateShards::new(DEFAULT_STATE_SHARDS);
    let mut dist = Pool::new(first.xfdd.pool().order().clone());
    let fresh_len = dist.len();
    let root = dist.import(first.xfdd.pool(), first.xfdd.root());
    let full = encode_delta(&dist, fresh_len, root);
    let (mut mirror, _) = Mirror::decode_fresh(&full).unwrap();

    // The fleet, standalone: agents handed the same messages in turn.
    let agents: Vec<SwitchAgent> = (0..switches)
        .map(|i| SwitchAgent::new(SwitchId(i), format!("s{i}"), [], 64))
        .collect();
    let message = |epoch: u64, resync: bool, delta: &[u8]| {
        ToAgent::Prepare(Box::new(PrepareMsg {
            epoch,
            resync,
            delta: delta.to_vec(),
            meta: resync.then(|| SwitchMeta {
                local_vars: local_vars.clone(),
                ports: Default::default(),
            }),
            placement: resync.then(|| placement.clone()),
        }))
    };
    for agent in &agents {
        agent.handle(message(1, true, &full));
        agent.handle(ToAgent::Commit { epoch: 1 });
    }

    let (mut prepare, mut commit) = (Vec::new(), Vec::new());
    let (mut apply, mut bind, mut view, mut relower, mut fleet) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let (mut nodes, mut new_nodes, mut delta_bytes) = (0, 0, 0);
    for edit in 1..=edits {
        let policy = five_app_pipeline(ports, threshold(edit));
        let report = deployment.controller.update_policy(&policy).unwrap();
        prepare.push(report.prepare_time);
        commit.push(report.commit_time);
        new_nodes += report.new_nodes;
        delta_bytes += report.delta_bytes;

        let compiled = deployment.controller.session().current_shared().unwrap();
        let base = dist.len();
        let root = dist.import(compiled.xfdd.pool(), compiled.xfdd.root());
        let delta = encode_delta(&dist, base, root);
        let t = Instant::now();
        let applied = mirror.apply_delta(&delta).unwrap();
        apply.push(t.elapsed());
        let t = Instant::now();
        let flat = mirror.flatten(applied);
        black_box(TableProgram::compile(&flat));
        view.push(t.elapsed());
        let t = Instant::now();
        black_box(bind_slots(&flat, &local_vars, &placement, &store));
        bind.push(t.elapsed());
        let t = Instant::now();
        black_box(FlatProgram::from_pool(mirror.pool(), applied));
        relower.push(t.elapsed());
        nodes = flat.num_nodes();

        let epoch = edit as u64 + 1;
        let messages: Vec<ToAgent> = agents
            .iter()
            .map(|_| message(epoch, false, &delta))
            .collect();
        let t = Instant::now();
        for (agent, message) in agents.iter().zip(messages) {
            black_box(agent.handle(message));
        }
        fleet.push(t.elapsed() / switches as u32);
        for agent in &agents {
            agent.handle(ToAgent::Commit { epoch });
        }
    }
    deployment.shutdown();
    println!(
        "  novel edit {switches:>5} agents, {nodes}-node program, {edits} threshold edits \
         ({} new nodes, {} delta bytes per edit): prepare {} µs + commit {} µs (medians)",
        new_nodes / edits,
        delta_bytes / edits,
        median_us(&mut prepare),
        median_us(&mut commit),
    );
    println!(
        "    one agent's prepare: apply + lower {} µs + bind {} µs + view {} µs \
         (lowering the whole program in one go: {} µs)",
        median_us(&mut apply),
        median_us(&mut bind),
        median_us(&mut view),
        median_us(&mut relower),
    );
    println!(
        "    {switches} standalone agents prepared in turn through `handle`: {} µs per agent",
        median_us(&mut fleet),
    );
}

/// One fully measured configuration, rendered into the JSON artifact.
struct SweepRow {
    backend: &'static str,
    agents: usize,
    stats: FlipStats,
}

fn commit_scaling_summary(_c: &mut Criterion) {
    let rtt = rtt();
    let rounds = if smoke() { 3 } else { 9 };
    let sizes = fleet_sizes();
    println!(
        "\ncommit scaling summary (igen fleets {:?}, emulated RTT {:?}, best of {rounds} flips):",
        sizes, rtt
    );

    let mut sweep: Vec<SweepRow> = Vec::new();
    for &backend in &[Backend::InProcess, Backend::Tcp] {
        for &n in &sizes {
            let mut deployment = deploy(n, backend, Some(rtt));
            let stats = measure_flips(&mut deployment, rounds);
            println!(
                "  {:<10} {n:>5} agents: {:>8} µs best ({:>8} µs median; prepare {} µs + commit {} µs)",
                backend.label(),
                stats.best_us,
                stats.median_us,
                stats.prepare_best_us,
                stats.commit_best_us,
            );
            deployment.shutdown();
            sweep.push(SweepRow {
                backend: backend.label(),
                agents: n,
                stats,
            });
        }
    }

    // Zero-RTT (loopback-speed) secondary data, in-process only: shows the
    // controller's raw per-ack drain cost without the RTT floor.
    let mut zero_rtt: Vec<SweepRow> = Vec::new();
    for &n in &sizes {
        let mut deployment = deploy(n, Backend::InProcess, None);
        let stats = measure_flips(&mut deployment, rounds);
        println!(
            "  zero-rtt   {n:>5} agents: {:>8} µs best ({:>8} µs median)",
            stats.best_us, stats.median_us,
        );
        deployment.shutdown();
        zero_rtt.push(SweepRow {
            backend: "in_process_zero_rtt",
            agents: n,
            stats,
        });
    }

    novel_edit_summary();

    // Pipeline overlap at the mid fleet size.
    let overlap_fleet = sizes[sizes.len() / 2];
    let mut deployment = deploy(overlap_fleet, Backend::InProcess, Some(rtt));
    let overlap_us = measure_overlap(&mut deployment, rounds.max(4));
    deployment.shutdown();
    println!(
        "  pipeline overlap at {overlap_fleet} agents: {overlap_us} µs of prepare(N+1) ran inside commit(N)"
    );

    // The acceptance ratio: largest fleet vs smallest, in-process, best-of.
    let ratio_of = |rows: &[SweepRow], backend: &str| -> f64 {
        let small = rows
            .iter()
            .find(|r| r.backend == backend && r.agents == sizes[0]);
        let large = rows
            .iter()
            .find(|r| r.backend == backend && r.agents == *sizes.last().unwrap());
        match (small, large) {
            (Some(s), Some(l)) => l.stats.best_us as f64 / s.stats.best_us.max(1) as f64,
            _ => f64::NAN,
        }
    };
    let in_process_ratio = ratio_of(&sweep, "in_process");
    let tcp_ratio = ratio_of(&sweep, "tcp");
    let zero_rtt_ratio = ratio_of(&zero_rtt, "in_process_zero_rtt");
    println!(
        "  {}-vs-{} agent latency ratio: {:.2}x in-process (bar: <= 5x), {:.2}x tcp, {:.2}x zero-rtt",
        sizes.last().unwrap(),
        sizes[0],
        in_process_ratio,
        tcp_ratio,
        zero_rtt_ratio,
    );

    let mut json = String::new();
    let _ = writeln!(json, "{{");
    let _ = writeln!(json, "  \"smoke\": {},", smoke());
    let _ = writeln!(json, "  \"rtt_us\": {},", rtt.as_micros());
    let _ = writeln!(json, "  \"rounds\": {rounds},");
    let _ = writeln!(json, "  \"fleet_sizes\": {:?},", sizes);
    let _ = writeln!(json, "  \"sweep\": [");
    let all: Vec<&SweepRow> = sweep.iter().chain(zero_rtt.iter()).collect();
    for (i, row) in all.iter().enumerate() {
        let comma = if i + 1 == all.len() { "" } else { "," };
        let _ = writeln!(
            json,
            "    {{\"backend\": \"{}\", \"agents\": {}, \"total_best_us\": {}, \
             \"total_median_us\": {}, \"prepare_best_us\": {}, \"commit_best_us\": {}}}{comma}",
            row.backend,
            row.agents,
            row.stats.best_us,
            row.stats.median_us,
            row.stats.prepare_best_us,
            row.stats.commit_best_us,
        );
    }
    let _ = writeln!(json, "  ],");
    let _ = writeln!(json, "  \"scaling_ratio\": {{");
    let _ = writeln!(
        json,
        "    \"agents\": [{}, {}],",
        sizes[0],
        sizes.last().unwrap()
    );
    let _ = writeln!(json, "    \"in_process\": {in_process_ratio:.3},");
    let _ = writeln!(json, "    \"tcp\": {tcp_ratio:.3},");
    let _ = writeln!(json, "    \"in_process_zero_rtt\": {zero_rtt_ratio:.3},");
    let _ = writeln!(json, "    \"bar\": 5.0,");
    let _ = writeln!(
        json,
        "    \"pass\": {}",
        in_process_ratio.is_finite() && in_process_ratio <= 5.0
    );
    let _ = writeln!(json, "  }},");
    let _ = writeln!(json, "  \"pipeline\": {{");
    let _ = writeln!(json, "    \"agents\": {overlap_fleet},");
    let _ = writeln!(json, "    \"overlap_best_us\": {overlap_us},");
    let _ = writeln!(json, "    \"overlap_positive\": {}", overlap_us > 0);
    let _ = writeln!(json, "  }}");
    let _ = writeln!(json, "}}");
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_commit.json");
    match std::fs::write(&path, &json) {
        Ok(()) => println!("  wrote {}", path.display()),
        Err(e) => eprintln!("  could not write {}: {e}", path.display()),
    }
}

/// Criterion regression tracking of one working-set flip at the smallest
/// fleet size (zero RTT so the number is the protocol cost, not the
/// emulated network).
fn bench_commit_flip(c: &mut Criterion) {
    let mut group = c.benchmark_group("commit_scaling");
    group.sample_size(if smoke() { 3 } else { 20 });
    let n = fleet_sizes()[0];
    let mut deployment = deploy(n, Backend::InProcess, None);
    deployment.controller.update_policy(&variant(3)).unwrap();
    deployment.controller.update_policy(&variant(8)).unwrap();
    let mut calm = true;
    group.bench_function(&format!("flip_in_process_{n}_agents"), |b| {
        b.iter(|| {
            let t = if calm { 3 } else { 8 };
            calm = !calm;
            black_box(deployment.controller.update_policy(&variant(t)).unwrap())
        })
    });
    deployment.shutdown();
    group.finish();
}

criterion_group!(benches, commit_scaling_summary, bench_commit_flip);
criterion_main!(benches);
