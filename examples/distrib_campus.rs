//! Quickstart for the distribution plane: a controller, one switch agent
//! per campus switch, delta-shipped updates and epoch-consistent traffic.
//!
//! ```text
//! cargo run --release -p snap-examples --example distrib_campus
//! cargo run --release -p snap-examples --example distrib_campus -- --transport tcp
//! cargo run --release -p snap-examples --example distrib_campus -- --transport tcp-proc
//! ```
//!
//! Three transports:
//!
//! * `channel` (default) — in-process mpsc links, agents on threads.
//! * `tcp` — the same agent threads, but every controller↔agent link is a
//!   framed TCP connection over loopback.
//! * `tcp-proc` — each agent is a **separate OS process** (this binary
//!   re-executed with the internal `--agent` flag) speaking the framed
//!   protocol to the controller's listener. The data plane lives with the
//!   agents, so this mode demonstrates the control plane only: bootstrap
//!   resync, working-set flips and a zero-node rollback over real
//!   process boundaries.

use snap_apps as apps;
use snap_distrib::{
    deploy_in_process, deploy_tcp, Controller, DeployOptions, SwitchAgent, TcpAgentEndpoint,
    TcpTransportListener, TrafficEngine,
};
use snap_lang::prelude::*;
use snap_session::CompilerSession;
use snap_topology::generators::campus;
use snap_topology::{NodeId as SwitchId, PortId, Topology, TrafficMatrix};
use std::net::SocketAddr;
use std::process::{Child, Command};

fn campus_session() -> (Topology, CompilerSession) {
    let topo = campus();
    let tm = TrafficMatrix::gravity(&topo, 600.0, 42);
    let session = CompilerSession::new(topo.clone(), tm);
    (topo, session)
}

fn calm_policy() -> Policy {
    apps::dns_tunnel_detect(3).seq(apps::assign_egress(6))
}

fn attack_policy() -> Policy {
    apps::dns_tunnel_detect(8).seq(apps::assign_egress(6))
}

/// Child-process entry: run one switch agent against the controller's
/// listener until it sends `Shutdown`. The campus topology is
/// deterministic, so the child derives its own name and port set.
fn run_agent(addr: &str, switch: u64) -> ! {
    let addr: SocketAddr = addr.parse().expect("valid listener address");
    let switch = SwitchId(switch as usize);
    let topo = campus();
    let ports: Vec<PortId> = topo
        .external_ports()
        .filter(|(_, node)| *node == switch)
        .map(|(port, _)| port)
        .collect();
    let agent = std::sync::Arc::new(SwitchAgent::new(
        switch,
        topo.node_name(switch),
        ports,
        1024,
    ));
    let endpoint = TcpAgentEndpoint::connect(addr, switch).expect("connect to controller");
    agent.run(endpoint);
    std::process::exit(0);
}

/// The multi-process demo: spawn one agent process per campus switch, run
/// the 2PC update sequence across real process boundaries.
fn run_tcp_proc() {
    let (topo, session) = campus_session();
    let listener = TcpTransportListener::bind(("127.0.0.1", 0)).expect("bind loopback listener");
    let addr = listener.local_addr().expect("listener address");
    let exe = std::env::current_exe().expect("current executable path");

    let mut children: Vec<Child> = Vec::new();
    for switch in topo.nodes() {
        children.push(
            Command::new(&exe)
                .arg("--agent")
                .arg(addr.to_string())
                .arg(switch.0.to_string())
                .spawn()
                .expect("spawn agent process"),
        );
    }

    // Children connect in whatever order the OS schedules them; the hello
    // frame names each connection's switch, so accept-then-attach by the
    // claimed id. A hello naming no switch of the topology is refused and
    // its connection dropped.
    let mut controller = Controller::new(session);
    while controller.agent_count() < children.len() {
        let (claimed, endpoint) = listener
            .accept_agent(controller.reply_sender())
            .expect("accept agent connection");
        if let Err(e) = controller.attach(claimed, Box::new(endpoint)) {
            eprintln!("dropped a connection: {e}");
        }
    }
    println!(
        "controller on {addr}: {} agent processes attached",
        controller.agent_count()
    );

    let report = controller.update_policy(&calm_policy()).unwrap();
    println!(
        "epoch {}: bootstrap resynced {} agent processes ({} B full program each, prepare {:?}, commit {:?})",
        report.epoch, report.resyncs, report.resync_bytes, report.prepare_time, report.commit_time
    );
    for (label, policy) in [("attack", attack_policy()), ("calm again", calm_policy())] {
        let report = controller.update_policy(&policy).unwrap();
        println!(
            "epoch {}: {label}: {} new nodes, {} B delta vs {} B full ({:.1}%)",
            report.epoch,
            report.new_nodes,
            report.delta_bytes,
            report.full_bytes,
            100.0 * report.delta_ratio()
        );
    }
    let mux = controller.mux_stats();
    println!(
        "reply mux after three epochs: {} stale, {} duplicate acks discarded",
        mux.stale, mux.duplicates
    );

    // Shutdown fans out to every process; each child exits its run loop.
    controller.shutdown();
    for mut child in children {
        let status = child.wait().expect("agent process reaped");
        assert!(status.success(), "agent process exited with {status}");
    }
    println!("agent processes shut down cleanly");
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    if args.len() == 4 && args[1] == "--agent" {
        run_agent(&args[2], args[3].parse().expect("switch id"));
    }
    let transport = match args.iter().position(|a| a == "--transport") {
        Some(i) => args.get(i + 1).map(String::as_str).unwrap_or("channel"),
        None => "channel",
    };
    if transport == "tcp-proc" {
        run_tcp_proc();
        return;
    }

    // A compiler session for the campus topology, wrapped by a controller
    // with one agent (own thread) per switch — linked over in-process
    // channels or framed loopback TCP, same protocol either way.
    let (_topo, session) = campus_session();
    let mut deployment = match transport {
        "tcp" => deploy_tcp(session, 1024, DeployOptions::default()).expect("tcp deploy"),
        _ => deploy_in_process(session, 1024),
    };
    println!(
        "deployed {} switch agents on the campus topology ({transport} transport)",
        deployment.controller.agent_count()
    );

    // First publish: every agent bootstraps its mirror with a full-table
    // resync, then commits epoch 1 through the two-phase protocol.
    let calm = calm_policy();
    let report = deployment.controller.update_policy(&calm).unwrap();
    println!(
        "epoch {}: bootstrap shipped {} B to {} agents (prepare {:?}, commit {:?})",
        report.epoch, report.delta_bytes, report.resyncs, report.prepare_time, report.commit_time
    );

    // Traffic flows through the agents; egress lands in bounded per-port
    // FIFO queues on the owning agent.
    let dns_reply = Packet::new()
        .with(Field::SrcIp, Value::ip(8, 8, 8, 8))
        .with(Field::DstIp, Value::ip(10, 0, 6, 9))
        .with(Field::SrcPort, 53)
        .with(Field::DnsRdata, Value::ip(1, 2, 3, 4));
    let out = deployment.network.inject(PortId(1), &dns_reply).unwrap();
    println!(
        "injected a DNS reply under epoch {}: delivered to {:?}",
        out.epoch,
        out.delivered.iter().map(|(p, _)| *p).collect::<Vec<_>>()
    );

    // A working-set edit (attack threshold) ships only new nodes; flipping
    // back ships a zero-node delta — the mirrors already hold everything.
    let attack = attack_policy();
    for (label, policy) in [("attack", &attack), ("calm again", &calm)] {
        let report = deployment.controller.update_policy(policy).unwrap();
        println!(
            "epoch {}: {label}: {} new nodes, {} B delta vs {} B full ({:.1}%)",
            report.epoch,
            report.new_nodes,
            report.delta_bytes,
            report.full_bytes,
            100.0 * report.delta_ratio()
        );
    }

    // Updated program, same switch state: the suspicion counter counted the
    // reply above and survives every commit.
    let out = deployment.network.inject(PortId(1), &dns_reply).unwrap();
    assert_eq!(out.epoch, 3);
    let susp = deployment
        .network
        .aggregate_store()
        .get(&"susp-client".into(), &[Value::ip(10, 0, 6, 9)]);
    println!("suspicion count after two replies across three epochs: {susp:?}");

    // Drain the egress queue of port 6: FIFO events stamped with their
    // epoch and per-port sequence number.
    for event in deployment.network.drain_port(PortId(6)) {
        println!(
            "  port 6 egress #{} (epoch {}): dst {:?}",
            event.seq,
            event.epoch,
            event.packet.get(&Field::DstIp)
        );
    }

    // The multi-worker `TrafficEngine` pumps batched traffic through the
    // agents via the packet driver (in-flight packets grouped per switch,
    // one store-lock acquisition per group).
    let load: Vec<(PortId, Packet)> = (0..240)
        .map(|i| {
            (
                PortId(1 + i % 6),
                Packet::new()
                    .with(Field::SrcIp, Value::ip(8, 8, 8, 8))
                    .with(Field::DstIp, Value::ip(10, 0, 6, (10 + i % 40) as u8))
                    .with(Field::SrcPort, 53)
                    .with(Field::DnsRdata, Value::ip(1, 2, (i % 9) as u8, 4)),
            )
        })
        .collect();
    let engine = TrafficEngine::new(3).with_batch_size(32);
    let report = engine.run(&deployment.network, &load);
    assert!(report.is_clean(), "errors: {:?}", report.errors);
    let drained = deployment.network.drain_port(PortId(6)).len();
    println!(
        "traffic engine: {} workers drove {} packets (epochs {:?}), {} delivered to port 6",
        engine.workers(),
        report.processed,
        report.epochs,
        drained
    );
    deployment.shutdown();
    println!("agents shut down cleanly");
}
