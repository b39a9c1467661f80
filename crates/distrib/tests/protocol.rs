//! Protocol-level tests of the distribution plane: two-phase commit
//! atomicity, abort-and-resync recovery, what each update ships to whom,
//! refused hellos, late-joining agents, order resets and state-table
//! migration between agents.

use snap_core::Compiled;
use snap_distrib::{
    channel_link, deploy_in_process, deploy_in_process_custom, frame, Controller, DeployOptions,
    DistribError, DistribOptions, FromAgent, PrepareMsg, ReplyTx, SwitchAgent, SwitchMeta,
    TcpAgentEndpoint, TcpTransportListener, ToAgent,
};
use snap_lang::prelude::*;
use snap_session::CompilerSession;
use snap_topology::{generators::campus, NodeId, PortId, TrafficMatrix};
use snap_xfdd::{encode_delta, Pool, VarOrder};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Duration;

fn campus_session() -> CompilerSession {
    let topo = campus();
    let tm = TrafficMatrix::gravity(&topo, 600.0, 42);
    CompilerSession::new(topo, tm)
}

fn counting_policy(egress: i64) -> Policy {
    state_incr("count", vec![field(Field::InPort)]).seq(modify(Field::OutPort, Value::Int(egress)))
}

/// Interpose on the controller's reply path: replies routed through the
/// returned [`ReplyTx`] pass through `rewrite` (drop with `None`) before
/// reaching the controller's real mux. The forwarder thread exits when
/// every clone of the returned sender is gone.
fn interpose(
    controller: &Controller,
    mut rewrite: impl FnMut(FromAgent) -> Option<FromAgent> + Send + 'static,
) -> (ReplyTx, std::thread::JoinHandle<()>) {
    let real = controller.reply_sender();
    let (tx, rx) = std::sync::mpsc::channel();
    let handle = std::thread::spawn(move || {
        while let Ok(msg) = rx.recv() {
            if let Some(msg) = rewrite(msg) {
                if real.send(msg).is_err() {
                    return;
                }
            }
        }
    });
    (ReplyTx::from_sender(tx), handle)
}

#[test]
fn failed_prepare_aborts_everywhere_and_recovers_by_resync() {
    let session = campus_session();
    let topo = session.topology().clone();
    let mut controller = Controller::new(session);
    // The first agent's replies pass through a saboteur that rewrites its
    // first `Prepared` into `PrepareFailed` — a switch whose staging
    // "fails" while the real agent actually advanced its mirror, i.e. the
    // worst divergence case.
    let mut remaining = 1u32;
    let (sabotage_tx, forwarder) = interpose(&controller, move |msg| match msg {
        FromAgent::Prepared { switch, epoch, .. } if remaining > 0 => {
            remaining -= 1;
            Some(FromAgent::PrepareFailed {
                switch,
                epoch,
                reason: "sabotaged by test".into(),
            })
        }
        other => Some(other),
    });
    let mut sabotage_tx = Some(sabotage_tx);
    let mut agents = Vec::new();
    let mut handles = Vec::new();
    for (i, switch) in topo.nodes().enumerate() {
        let agent = Arc::new(SwitchAgent::new(switch, topo.node_name(switch), [], 64));
        let reply = if i == 0 {
            sabotage_tx.take().expect("one sabotaged link")
        } else {
            controller.reply_sender()
        };
        let (ctrl_end, agent_end) = channel_link(reply);
        let runner = Arc::clone(&agent);
        handles.push(std::thread::spawn(move || runner.run(agent_end)));
        controller.attach(switch, Box::new(ctrl_end)).unwrap();
        agents.push(agent);
    }

    // The sabotaged prepare fails the whole epoch: nobody commits. The
    // epoch number is burned anyway (stale replies for it may be queued),
    // so it is skipped rather than reused.
    let err = controller.update_policy(&counting_policy(6)).unwrap_err();
    assert!(matches!(err, DistribError::PrepareRejected { .. }));
    assert_eq!(controller.epoch(), 1);
    // Give the aborts a moment to drain, then check no agent flipped.
    std::thread::sleep(Duration::from_millis(50));
    for agent in &agents {
        assert!(
            agent.current_view().is_none(),
            "an agent committed an aborted epoch"
        );
    }

    // The next update succeeds: the failed agent is resynced, everyone
    // commits the same epoch, and every mirror matches the controller's
    // distribution pool node-for-node (by length here; the wire layer
    // verifies contents).
    let report = controller.update_policy(&counting_policy(1)).unwrap();
    assert_eq!(report.epoch, 2);
    assert_eq!(report.resyncs, 1, "exactly the sabotaged agent resyncs");
    for agent in &agents {
        assert_eq!(agent.current_view().unwrap().epoch, 2);
        assert_eq!(agent.mirror_len(), controller.dist_pool_len());
    }

    controller.shutdown();
    for h in handles {
        h.join().unwrap();
    }
    forwarder.join().unwrap();
}

#[test]
fn each_update_ships_only_what_each_agent_lacks() {
    let session = campus_session();
    let topo = session.topology().clone();
    let mut controller = Controller::new(session);
    // The last agent's prepare of epoch 4 "fails" (its mirror really
    // advanced), so epoch 4 aborts everywhere and that agent resyncs. It
    // owns `count` under none of the policies below, so its resync is told
    // apart from the owner moves.
    let (sabotage_tx, forwarder) = interpose(&controller, |msg| match msg {
        FromAgent::Prepared {
            switch, epoch: 4, ..
        } => Some(FromAgent::PrepareFailed {
            switch,
            epoch: 4,
            reason: "sabotaged by test".into(),
        }),
        other => Some(other),
    });
    let mut sabotage_tx = Some(sabotage_tx);
    let mut agents = Vec::new();
    let mut handles = Vec::new();
    for (i, switch) in topo.nodes().enumerate() {
        let agent = Arc::new(SwitchAgent::new(switch, topo.node_name(switch), [], 64));
        let reply = if i + 1 == topo.num_nodes() {
            sabotage_tx.take().expect("one sabotaged link")
        } else {
            controller.reply_sender()
        };
        let (ctrl_end, agent_end) = channel_link(reply);
        let runner = Arc::clone(&agent);
        handles.push(std::thread::spawn(move || runner.run(agent_end)));
        controller.attach(switch, Box::new(ctrl_end)).unwrap();
        agents.push(agent);
    }
    // Every agent runs exactly its slice of `compiled`: owned variables,
    // ports and the global placement.
    let running = |compiled: &Compiled| {
        for agent in &agents {
            let view = agent.current_view().unwrap();
            let meta = compiled
                .rules
                .switches
                .get(&agent.switch())
                .cloned()
                .unwrap_or_default();
            assert_eq!(view.local_vars, meta.local_vars, "{}", agent.name());
            assert_eq!(
                view.ports.iter().copied().collect::<BTreeSet<_>>(),
                meta.ports
            );
            assert_eq!(*view.placement, compiled.placement.placement);
        }
    };
    let placements = || -> Vec<_> {
        agents
            .iter()
            .map(|a| Arc::clone(&a.current_view().unwrap().placement))
            .collect()
    };
    let n = agents.len();
    let mut update = |policy: &Policy| {
        let report = controller.update_policy(policy);
        (report, controller.session().current_shared().unwrap())
    };

    // The first commit ships every agent its metadata.
    let (first, compiled) = update(&counting_policy(6));
    assert_eq!(first.unwrap().meta_shipped, n);
    running(&compiled);

    // Moving the owner: metadata to the old and the new owner only, the new
    // placement to everyone.
    let before = placements();
    let (moved, compiled) = update(&counting_policy(1));
    assert_eq!(moved.unwrap().meta_shipped, 2);
    running(&compiled);
    for (old, new) in before.iter().zip(placements()) {
        assert!(!Arc::ptr_eq(old, &new), "placement not re-shipped");
    }

    // A placement-stable edit ships no metadata and no placement: every
    // agent carries its own forward.
    let before = placements();
    let (stable, compiled) = update(&counting_policy(1).seq(id()));
    assert_eq!(stable.unwrap().meta_shipped, 0);
    running(&compiled);
    for (old, new) in before.iter().zip(placements()) {
        assert!(Arc::ptr_eq(old, &new), "placement re-shipped");
    }

    // An aborted prepare changes no agent's running configuration, so the
    // next update ships metadata to the resynced agent and to the two
    // switches whose ownership moved since the last commit (the running
    // owner and the new one, not the aborted epoch's) — not to everyone.
    let (aborted, _) = update(&counting_policy(4));
    assert!(matches!(aborted, Err(DistribError::PrepareRejected { .. })));
    running(&compiled);
    let (after, compiled) = update(&counting_policy(5));
    let after = after.unwrap();
    assert_eq!(after.resyncs, 1);
    assert_eq!(after.meta_shipped, 3);
    running(&compiled);

    controller.shutdown();
    for h in handles {
        h.join().unwrap();
    }
    forwarder.join().unwrap();
}

#[test]
fn a_hello_for_an_unknown_switch_is_refused() {
    let session = campus_session();
    let topo = session.topology().clone();
    let mut controller = Controller::new(session);
    let listener = TcpTransportListener::bind(("127.0.0.1", 0)).unwrap();
    let addr = listener.local_addr().unwrap();

    // A peer claiming a switch the topology does not have is refused, not
    // indexed: the controller keeps running without it.
    let bogus = TcpAgentEndpoint::connect(addr, NodeId(999)).unwrap();
    let (claimed, endpoint) = listener.accept_agent(controller.reply_sender()).unwrap();
    assert_eq!(claimed, NodeId(999));
    let err = controller.attach(claimed, Box::new(endpoint)).unwrap_err();
    assert!(matches!(err, DistribError::Protocol { .. }), "{err}");
    assert_eq!(controller.agent_count(), 0);
    std::mem::drop(bogus);

    // The real agents attach over the same listener and commit.
    let mut agents = Vec::new();
    let mut handles = Vec::new();
    for switch in topo.nodes() {
        let agent = Arc::new(SwitchAgent::new(switch, topo.node_name(switch), [], 64));
        let runner = Arc::clone(&agent);
        handles.push(std::thread::spawn(move || {
            runner.run(TcpAgentEndpoint::connect(addr, switch).unwrap())
        }));
        let (claimed, endpoint) = listener.accept_agent(controller.reply_sender()).unwrap();
        controller.attach(claimed, Box::new(endpoint)).unwrap();
        agents.push(agent);
    }
    let report = controller.update_policy(&counting_policy(6)).unwrap();
    assert_eq!(report.resyncs, agents.len());
    for agent in &agents {
        assert_eq!(agent.current_view().unwrap().epoch, report.epoch);
    }

    controller.shutdown();
    for h in handles {
        h.join().unwrap();
    }
}

#[test]
fn hostile_delta_fails_the_prepare_and_the_agent_is_resynced() {
    let mut deployment = deploy_in_process(campus_session(), 64);
    let network = Arc::clone(&deployment.network);
    let controller = &mut deployment.controller;
    controller.update_policy(&counting_policy(6)).unwrap();
    let victim = network.agents().next().unwrap();

    // A well-formed header for exactly this mirror (same variable order,
    // same base), then one branch node whose test value is 200 000 nested
    // one-element tuples: a megabyte, far under the frame cap. A decoder
    // that recursed per level would overflow the stack and abort the whole
    // process.
    let mut w = snap_lang::codec::Writer::new();
    w.raw(b"XFDD");
    w.u16(2);
    w.u8(1);
    w.u32(1);
    w.str("count");
    w.u32(victim.mirror_len() as u32);
    w.u32(1);
    w.u8(1); // branch
    w.u8(0); // field = value
    w.str("srcport");
    for _ in 0..200_000 {
        w.u8(6);
        w.u32(1);
    }
    w.value(&Value::Int(0));
    let framed = frame::encode_to_agent(&ToAgent::Prepare(Box::new(PrepareMsg {
        epoch: 2,
        resync: false,
        delta: w.into_bytes(),
        meta: None,
        placement: None,
    })));

    // The frame itself is well formed; the agent refuses what it carries
    // and drops its mirror — pool and payloads together.
    let replies = victim.handle(frame::decode_to_agent(&framed).unwrap());
    match &replies[..] {
        [FromAgent::PrepareFailed { reason, .. }] => {
            assert!(reason.contains("nesting deeper than"), "{reason}")
        }
        other => panic!("expected one failed prepare, got {other:?}"),
    }
    assert_eq!(victim.mirror_len(), 0);

    // The controller meets the missing mirror on its next update, which
    // aborts everywhere, and resyncs exactly that agent on the one after.
    let err = controller.update_policy(&counting_policy(1));
    assert!(matches!(err, Err(DistribError::PrepareRejected { .. })));
    let report = controller.update_policy(&counting_policy(1)).unwrap();
    assert_eq!(report.resyncs, 1);
    for agent in network.agents() {
        assert_eq!(agent.current_view().unwrap().epoch, report.epoch);
        assert_eq!(agent.mirror_len(), controller.dist_pool_len());
    }
    deployment.shutdown();
}

#[test]
fn commit_phase_failure_burns_the_epoch_and_resyncs() {
    let session = campus_session();
    let topo = session.topology().clone();
    let mut controller = Controller::new(session).with_options(DistribOptions {
        timeout: Duration::from_millis(500),
        ..Default::default()
    });
    // The first agent's reply path eats its first `Committed` (turning it
    // into a timeout): the agent really flipped, the controller never heard.
    let mut remaining = 1u32;
    let (eat_tx, forwarder) = interpose(&controller, move |msg| match msg {
        FromAgent::Committed { .. } if remaining > 0 => {
            remaining -= 1;
            None
        }
        other => Some(other),
    });
    let mut eat_tx = Some(eat_tx);
    let mut agents = Vec::new();
    let mut handles = Vec::new();
    for (i, switch) in topo.nodes().enumerate() {
        let agent = Arc::new(SwitchAgent::new(switch, topo.node_name(switch), [], 64));
        let reply = if i == 0 {
            eat_tx.take().expect("one interposed link")
        } else {
            controller.reply_sender()
        };
        let (ctrl_end, agent_end) = channel_link(reply);
        let runner = Arc::clone(&agent);
        handles.push(std::thread::spawn(move || runner.run(agent_end)));
        controller.attach(switch, Box::new(ctrl_end)).unwrap();
        agents.push(agent);
    }

    // Every agent flips to epoch 1, but one acknowledgement is lost: the
    // update errors, and — crucially — epoch 1 is burned, because some
    // switch is already running it.
    let err = controller.update_policy(&counting_policy(6)).unwrap_err();
    assert!(matches!(err, DistribError::Transport { .. }));
    assert_eq!(
        controller.epoch(),
        1,
        "a partially committed epoch is consumed"
    );

    // Recovery: the next update uses a fresh epoch and conservatively
    // resyncs every agent; afterwards the whole plane is consistent again.
    let report = controller.update_policy(&counting_policy(1)).unwrap();
    assert_eq!(report.epoch, 2);
    assert_eq!(report.resyncs, agents.len());
    for agent in &agents {
        assert_eq!(agent.current_view().unwrap().epoch, 2);
        assert_eq!(agent.mirror_len(), controller.dist_pool_len());
    }

    controller.shutdown();
    for h in handles {
        h.join().unwrap();
    }
    forwarder.join().unwrap();
}

#[test]
fn unservable_egress_port_errors_instead_of_spinning() {
    use snap_distrib::{DistNetwork, InjectError};
    use snap_xfdd::{Action, Leaf};

    // One switch hosting external port 1 per the topology, but the agent's
    // committed view serves *no* ports — a misconfiguration that must fail
    // the packet, not hang the injector.
    let mut topo = snap_topology::Topology::new("tiny");
    let s0 = topo.add_node("S0");
    topo.add_external_port(PortId(1), s0);

    let order = VarOrder::empty();
    let mut pool = Pool::new(order.clone());
    let root = pool.leaf(Leaf::single(Action::Modify(Field::OutPort, Value::Int(1))));
    let fresh = Pool::new(order).len();
    let boot = encode_delta(&pool, fresh, root);

    let agent = Arc::new(SwitchAgent::new(s0, "S0", [PortId(1)], 16));
    agent.handle(ToAgent::Prepare(Box::new(PrepareMsg {
        epoch: 1,
        resync: true,
        delta: boot,
        meta: Some(SwitchMeta {
            local_vars: BTreeSet::new(),
            ports: BTreeSet::new(), // does not serve port 1
        }),
        placement: Some(BTreeMap::new()),
    })));
    agent.handle(ToAgent::Commit { epoch: 1 });

    let network = DistNetwork::new(topo, BTreeMap::from([(s0, agent)]));
    let err = network.inject(PortId(1), &Packet::new()).unwrap_err();
    assert!(
        matches!(
            err,
            InjectError::Sim(snap_dataplane::SimError::BadOutPort(_))
        ),
        "expected a BadOutPort error, got {err:?}"
    );
}

#[test]
fn late_joining_agent_is_bootstrapped_by_full_resync() {
    let session = campus_session();
    let topo = session.topology().clone();
    let mut deployment = deploy_in_process(session, 64);
    deployment
        .controller
        .update_policy(&counting_policy(6))
        .unwrap();
    deployment
        .controller
        .update_policy(&counting_policy(1))
        .unwrap();

    // A fresh agent joins after two generations were distributed.
    let switch = topo.node_by_name("C1").unwrap();
    let late = Arc::new(SwitchAgent::new(switch, "late-C1", [], 64));
    let (ctrl_end, agent_end) = channel_link(deployment.controller.reply_sender());
    let runner = Arc::clone(&late);
    let handle = std::thread::spawn(move || runner.run(agent_end));
    deployment
        .controller
        .attach(switch, Box::new(ctrl_end))
        .unwrap();

    let report = deployment
        .controller
        .update_policy(&counting_policy(6))
        .unwrap();
    assert_eq!(report.resyncs, 1);
    assert_eq!(report.epoch, 3);
    // The late mirror holds the *entire* distribution pool (all shipped
    // generations), which is what keeps its flat ids aligned with agents
    // that followed every delta.
    assert_eq!(late.mirror_len(), deployment.controller.dist_pool_len());
    assert_eq!(late.current_view().unwrap().epoch, 3);
    assert_eq!(late.stats().resyncs.load(Ordering::Relaxed), 1);

    deployment.shutdown();
    handle.join().unwrap();
}

#[test]
fn a_replaced_link_stops_its_hosted_agent() {
    let session = campus_session();
    let topo = session.topology().clone();
    let mut deployment = deploy_in_process(session, 64);
    deployment
        .controller
        .update_policy(&counting_policy(6))
        .unwrap();

    // Re-attach C1 to an agent of its own: the controller drops its link
    // to the hosted C1, and with it that agent.
    let switch = topo.node_by_name("C1").unwrap();
    let replaced = Arc::clone(deployment.network.agent(switch).unwrap());
    let heard = |agent: &SwitchAgent| {
        let stats = agent.stats();
        [
            &stats.prepares,
            &stats.prepare_failures,
            &stats.commits,
            &stats.aborts,
            &stats.tables_installed,
        ]
        .map(|counter| counter.load(Ordering::Relaxed))
    };
    let before = heard(&replaced);
    let late = Arc::new(SwitchAgent::new(switch, "late-C1", [], 64));
    let (ctrl_end, agent_end) = channel_link(deployment.controller.reply_sender());
    let runner = Arc::clone(&late);
    let handle = std::thread::spawn(move || runner.run(agent_end));
    deployment
        .controller
        .attach(switch, Box::new(ctrl_end))
        .unwrap();
    let report = deployment
        .controller
        .update_policy(&counting_policy(1))
        .unwrap();
    assert_eq!(report.resyncs, 1);
    assert_eq!(late.current_view().unwrap().epoch, 2);
    assert_eq!(heard(&replaced), before, "the replaced agent hears no more");

    // Shutdown joins every host, the replaced agent's included: a host
    // that waited for a `Shutdown` only its old link could send would
    // never return.
    let (done_tx, done_rx) = std::sync::mpsc::channel();
    let stopping = std::thread::spawn(move || {
        deployment.shutdown();
        let _ = done_tx.send(());
    });
    done_rx
        .recv_timeout(Duration::from_secs(10))
        .expect("shutdown returns");
    stopping.join().unwrap();
    handle.join().unwrap();
}

#[test]
fn changed_variable_order_resets_the_distribution_pool() {
    let session = campus_session();
    let mut deployment = deploy_in_process(session, 64);
    let n = deployment.controller.agent_count();
    let first = deployment
        .controller
        .update_policy(&counting_policy(6))
        .unwrap();
    assert_eq!(first.resyncs, n, "first update bootstraps everyone");

    // Same variable set: suffix deltas.
    let second = deployment
        .controller
        .update_policy(&counting_policy(1))
        .unwrap();
    assert_eq!(second.resyncs, 0);

    // A different state variable changes the order: everyone resyncs
    // against a reset pool.
    let other =
        state_incr("other", vec![field(Field::InPort)]).seq(modify(Field::OutPort, Value::Int(6)));
    let reset = deployment.controller.update_policy(&other).unwrap();
    assert_eq!(reset.resyncs, n);
    deployment.shutdown();
}

#[test]
fn rollback_ships_a_zero_node_delta() {
    let session = campus_session();
    let mut deployment = deploy_in_process(session, 64);
    // A substantial program, so the constant payload header is noise.
    let v6 = snap_apps::dns_tunnel_detect(3).seq(snap_apps::assign_egress(6));
    let v1 = snap_apps::dns_tunnel_detect(5).seq(snap_apps::assign_egress(6));
    deployment.controller.update_policy(&v6).unwrap();
    let grow = deployment.controller.update_policy(&v1).unwrap();
    assert!(grow.new_nodes > 0);
    // Flipping back: every node is already mirrored everywhere.
    let rollback = deployment.controller.update_policy(&v6).unwrap();
    assert_eq!(rollback.new_nodes, 0);
    assert!(rollback.delta_bytes < grow.delta_bytes);
    assert!(
        rollback.delta_bytes < rollback.full_bytes / 4,
        "zero-node delta ({} B) not under 25% of full payload ({} B)",
        rollback.delta_bytes,
        rollback.full_bytes
    );
    deployment.shutdown();
}

#[test]
fn flips_reuse_remembered_roots_until_the_pool_is_replaced() {
    let mut deployment = deploy_in_process(campus_session(), 64);
    let network = Arc::clone(&deployment.network);
    let n = deployment.controller.agent_count();
    let a = snap_apps::dns_tunnel_detect(3).seq(snap_apps::assign_egress(6));
    // Same state variables (no order reset between the two), a different
    // size on the wire.
    let b = snap_apps::dns_tunnel_detect(5).seq(ite(
        test(Field::SrcPort, Value::Int(7)),
        drop(),
        snap_apps::assign_egress(6),
    ));
    let appended = || -> u64 {
        let snapshot = network.metrics_snapshot();
        let rows = &snapshot.families["agent.nodes_appended"];
        assert_eq!(rows.len(), n, "one row per agent");
        rows.iter().map(|(_, nodes)| nodes).sum()
    };

    let first_a = deployment.controller.update_policy(&a).unwrap();
    let first_b = deployment.controller.update_policy(&b).unwrap();
    assert!(first_b.new_nodes > 0);
    assert_ne!(first_a.full_bytes, first_b.full_bytes);
    let pool_len = deployment.controller.dist_pool_len();
    let lowered = appended();
    assert!(lowered >= (n * pool_len) as u64);

    // A→B→A→B between two committed versions: nothing is imported, nothing
    // is re-encoded for the statistic, and no agent appends (or lowers) a
    // node: the program is a root its mirror already holds.
    for (round, (policy, first)) in [
        (&a, &first_a),
        (&b, &first_b),
        (&a, &first_a),
        (&b, &first_b),
    ]
    .into_iter()
    .enumerate()
    {
        let flip = deployment.controller.update_policy(policy).unwrap();
        assert_eq!(flip.new_nodes, 0, "flip {round}");
        assert_eq!(flip.resyncs, 0, "flip {round}");
        assert_eq!(flip.full_bytes, first.full_bytes, "flip {round}");
        assert_eq!(deployment.controller.dist_pool_len(), pool_len);
        assert_eq!(appended(), lowered, "flip {round}");
    }

    // Compaction renumbers the pool: the remembered roots are gone with it,
    // so the next flip resyncs everyone — and still commits the right
    // program (A counts DNS responses per client; B's count stays apart).
    assert!(deployment.controller.compact_distribution() > 0);
    let after = deployment.controller.update_policy(&a).unwrap();
    assert_eq!(after.resyncs, n);
    assert_eq!(after.full_bytes, first_a.full_bytes);
    let expected = snap_xfdd::compile(&a).unwrap().flatten();
    for agent in network.agents() {
        let view = agent.current_view().unwrap();
        assert_eq!(view.epoch, after.epoch);
        assert_eq!(view.flat.num_nodes(), expected.num_nodes());
        assert_eq!(agent.mirror_len(), deployment.controller.dist_pool_len());
    }
    // Under the new numbering flips are remembered again.
    let back = deployment.controller.update_policy(&b).unwrap();
    assert_eq!((back.resyncs, back.full_bytes), (0, first_b.full_bytes));
    let again = deployment.controller.update_policy(&a).unwrap();
    assert_eq!((again.new_nodes, again.resyncs), (0, 0));

    // A variable-order reset replaces the pool as well: the way back to A
    // is an import into the reset pool, not a remembered (stale) root.
    let other =
        state_incr("other", vec![field(Field::InPort)]).seq(modify(Field::OutPort, Value::Int(6)));
    assert_eq!(
        deployment.controller.update_policy(&other).unwrap().resyncs,
        n
    );
    let restored = deployment.controller.update_policy(&a).unwrap();
    assert_eq!(restored.resyncs, n);
    assert_eq!(restored.full_bytes, first_a.full_bytes);
    for agent in network.agents() {
        let view = agent.current_view().unwrap();
        assert_eq!(view.flat.num_nodes(), expected.num_nodes());
    }
    let dns = Packet::new()
        .with(Field::InPort, 1)
        .with(Field::SrcIp, Value::ip(8, 8, 8, 8))
        .with(Field::DstIp, Value::ip(10, 0, 6, 77))
        .with(Field::SrcPort, 53)
        .with(Field::DnsRdata, Value::ip(1, 2, 3, 4));
    let out = network.inject(PortId(1), &dns).unwrap();
    assert_eq!(out.epoch, restored.epoch);
    assert_eq!(out.delivered.len(), 1);
    deployment.shutdown();
}

#[test]
fn tables_migrate_between_agents_through_yield_and_install() {
    // Drive two agents synchronously through the message handlers: A owns
    // `x` at epoch 1, loses it to B at epoch 2; the table must move intact.
    let a = SwitchAgent::new(snap_topology::NodeId(0), "A", [PortId(1)], 16);
    let b = SwitchAgent::new(snap_topology::NodeId(1), "B", [PortId(2)], 16);

    let order = VarOrder::new(vec!["x".into()]);
    let dist = Pool::new(order);
    let fresh = dist.len();
    let root = dist.id();
    let boot = encode_delta(&dist, fresh, root);

    let x: snap_lang::StateVar = "x".into();
    let meta = |vars: BTreeSet<snap_lang::StateVar>, ports: BTreeSet<PortId>| SwitchMeta {
        local_vars: vars,
        ports,
    };
    let prepare = |epoch, m: SwitchMeta, placement| {
        ToAgent::Prepare(Box::new(PrepareMsg {
            epoch,
            resync: true,
            delta: boot.clone(),
            meta: Some(m),
            placement: Some(placement),
        }))
    };

    // Epoch 1: A owns x.
    let placement1: BTreeMap<_, _> = [(x.clone(), snap_topology::NodeId(0))].into();
    let r = a.handle(prepare(
        1,
        meta(BTreeSet::from([x.clone()]), BTreeSet::from([PortId(1)])),
        placement1.clone(),
    ));
    assert!(matches!(r[0], FromAgent::Prepared { .. }));
    a.handle(ToAgent::Commit { epoch: 1 });
    b.handle(prepare(
        1,
        meta(BTreeSet::new(), BTreeSet::from([PortId(2)])),
        placement1,
    ));
    b.handle(ToAgent::Commit { epoch: 1 });

    // Some state accrues on A — plus a stray table A was never assigned
    // (as a failed earlier migration would leave behind).
    let stray: snap_lang::StateVar = "stray".into();
    a.store().set(&x, vec![Value::Int(7)], Value::Int(42));
    a.store().set(&stray, vec![Value::Int(0)], Value::Int(9));

    // Epoch 2: x moves to B. The agent's store is authoritative: at commit
    // it yields every table its new view no longer owns.
    let placement2: BTreeMap<_, _> = [(x.clone(), snap_topology::NodeId(1))].into();
    a.handle({
        let mut p = match prepare(
            2,
            meta(BTreeSet::new(), BTreeSet::from([PortId(1)])),
            placement2.clone(),
        ) {
            ToAgent::Prepare(p) => p,
            _ => unreachable!(),
        };
        p.resync = false;
        // The mirror is already at the full table; a zero-node delta
        // re-ships the root.
        p.delta = encode_delta(&dist, dist.len(), root);
        ToAgent::Prepare(p)
    });
    let replies = a.handle(ToAgent::Commit { epoch: 2 });
    let yields = match &replies[0] {
        FromAgent::Committed { yields, .. } => yields.clone(),
        other => panic!("unexpected reply {other:?}"),
    };
    // Both x (the planned migration) and the stray table are yielded: the
    // store, not a controller-provided list, decides what leaves.
    assert_eq!(yields.len(), 2);
    assert_eq!(a.store().collect_table(&x), None, "A kept a yielded table");
    assert_eq!(
        a.store().collect_table(&stray),
        None,
        "stray table stranded"
    );

    // Meanwhile a new-epoch packet already wrote x on B before the
    // migrated table arrives (the eager-migration window).
    b.store().set(&x, vec![Value::Int(99)], Value::Int(7));

    // The controller relays x's table to B (the stray one has no owner in
    // the placement and would be dropped). The install merges: migrated
    // history fills in, entries written in the window survive.
    let (var, table) = yields.into_iter().find(|(v, _)| *v == x).unwrap();
    let installed = b.handle(ToAgent::InstallTable {
        epoch: 2,
        var,
        table,
    });
    assert!(matches!(installed[0], FromAgent::Installed { .. }));
    assert_eq!(
        b.store().get(&x, &[Value::Int(7)]),
        Value::Int(42),
        "the migrated table lost its contents"
    );
    assert_eq!(
        b.store().get(&x, &[Value::Int(99)]),
        Value::Int(7),
        "a write racing the install was discarded"
    );
}

#[test]
fn auto_compaction_reclaims_the_pool_and_keeps_packet_tags_valid() {
    // Auto-compact once the append-only pool exceeds 2x the live program.
    let options = DeployOptions {
        distrib: DistribOptions {
            compact_threshold: Some(2),
            ..DistribOptions::default()
        },
        ack_delay: None,
    };
    let mut deployment = deploy_in_process_custom(campus_session(), 256, options);
    let network = Arc::clone(&deployment.network);

    // A family of structurally distinct programs with an identical
    // packet-state mapping: each novel threshold appends nodes to the
    // distribution pool while the live size stays roughly constant, so the
    // pool must eventually cross the threshold.
    let versioned = |threshold: i64| {
        ite(
            state_test("count", vec![field(Field::InPort)], int(threshold)),
            drop(),
            state_incr("count", vec![field(Field::InPort)]),
        )
        .seq(modify(Field::OutPort, Value::Int(6)))
    };
    let pkt = Packet::new().with(Field::InPort, 1);

    let mut compacted_at = None;
    let mut peak_pool = 0;
    let mut injected = 0i64;
    for v in 0..24i64 {
        peak_pool = peak_pool.max(deployment.controller.dist_pool_len());
        let report = deployment
            .controller
            .update_policy(&versioned(1_000_000 + v))
            .unwrap();
        // Traffic keeps flowing between commits: the packet's multi-hop
        // itinerary (state switch, then the egress switch) resolves tags
        // against whatever views the agents currently serve — including
        // right after a compaction renumbered the controller's pool.
        let out = network.inject(PortId(1), &pkt).unwrap();
        injected += 1;
        assert_eq!(out.delivered.len(), 1, "version {v} lost its packet");
        assert_eq!(out.delivered[0].0, PortId(6));
        if report.compacted_nodes > 0 {
            compacted_at = Some((v, report.compacted_nodes));
            // The compacted pool holds only the live program (plus the
            // fresh-pool base), strictly under the pre-compaction peak.
            assert!(deployment.controller.dist_pool_len() < peak_pool);
            break;
        }
    }
    let (compact_version, reclaimed) =
        compacted_at.expect("24 novel versions never crossed a 2x threshold");
    assert!(reclaimed > 0);

    // The first update after a compaction re-bootstraps every mirror with a
    // full-table resync that preserves the fresh pool's exact numbering.
    let report = deployment
        .controller
        .update_policy(&versioned(2_000_000))
        .unwrap();
    assert!(
        report.resyncs > 0,
        "post-compaction update must resync diverged mirrors"
    );
    let out = network.inject(PortId(1), &pkt).unwrap();
    injected += 1;
    assert_eq!(out.delivered.len(), 1);

    // Every injected packet incremented exactly once across all the
    // commits, the compaction and the resync: state is never touched by
    // pool maintenance.
    assert_eq!(
        network
            .aggregate_store()
            .get(&"count".into(), &[Value::Int(1)]),
        Value::Int(injected),
        "a state write was lost around the compaction at version {compact_version}"
    );
    deployment.shutdown();
}

#[test]
fn distributed_hop_budget_is_configurable_and_enforced() {
    let mut deployment = deploy_in_process(campus_session(), 64);
    deployment
        .controller
        .update_policy(&counting_policy(6))
        .unwrap();
    let pkt = Packet::new().with(Field::InPort, 1);

    // The deployed plane uses the driver's default budget, and the
    // multi-hop itinerary fits in it.
    assert_eq!(
        deployment.network.hop_budget(),
        snap_distrib::DEFAULT_HOP_BUDGET
    );
    let out = deployment.network.inject(PortId(1), &pkt).unwrap();
    assert_eq!(out.delivered.len(), 1);

    // A plane over the *same agents* with a zero-hop budget: the
    // driver cuts the packet off with the budget error instead of spinning
    // through the loopy forwarding itinerary.
    let agents: BTreeMap<_, _> = deployment
        .network
        .agents()
        .map(|a| (a.switch(), Arc::clone(a)))
        .collect();
    let tiny = snap_distrib::DistNetwork::new(deployment.network.topology().clone(), agents)
        .with_hop_budget(0);
    assert_eq!(tiny.hop_budget(), 0);
    let err = tiny.inject(PortId(1), &pkt).unwrap_err();
    assert_eq!(
        err,
        snap_distrib::InjectError::Sim(snap_dataplane::SimError::HopBudgetExceeded)
    );
    deployment.shutdown();
}
