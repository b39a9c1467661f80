//! Reply-mux tests: stale acks from burned epochs, duplicate acks (also
//! across steps), prepare failures racing other agents' acks, a lost
//! install ack, zero-node rollbacks, and the TCP transport end to end.

use snap_distrib::{
    channel_link, deploy_in_process, deploy_tcp, Controller, DeployOptions, DistribError,
    DistribOptions, FromAgent, ReplyTx, SwitchAgent,
};
use snap_lang::prelude::*;
use snap_session::CompilerSession;
use snap_topology::{generators::campus, PortId, TrafficMatrix};
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

/// Interpose on the controller's reply path (see `protocol.rs`): replies
/// sent through the returned [`ReplyTx`] pass through `rewrite` — which may
/// emit zero or more messages — before reaching the real mux.
fn interpose(
    controller: &Controller,
    mut rewrite: impl FnMut(FromAgent) -> Vec<FromAgent> + Send + 'static,
) -> (ReplyTx, std::thread::JoinHandle<()>) {
    let real = controller.reply_sender();
    let (tx, rx) = std::sync::mpsc::channel();
    let handle = std::thread::spawn(move || {
        while let Ok(msg) = rx.recv() {
            for out in rewrite(msg) {
                if real.send(out).is_err() {
                    return;
                }
            }
        }
    });
    (ReplyTx::from_sender(tx), handle)
}

/// Everything [`build_with_interposer`] wires up: the controller, the
/// agents, their run-loop threads, and the interposer's forwarder thread.
type InterposedRig = (
    Controller,
    Vec<Arc<SwitchAgent>>,
    Vec<std::thread::JoinHandle<()>>,
    std::thread::JoinHandle<()>,
);

/// Build a controller plus threaded agents where agent 0's replies (or,
/// with `every_agent`, everyone's) pass through `rewrite` and the rest go
/// straight to the mux.
fn build_with_interposer(
    timeout: Duration,
    every_agent: bool,
    rewrite: impl FnMut(FromAgent) -> Vec<FromAgent> + Send + 'static,
) -> InterposedRig {
    let session = campus_session();
    let topo = session.topology().clone();
    let mut controller = Controller::new(session).with_options(DistribOptions {
        timeout,
        ..Default::default()
    });
    let (wrapped_tx, forwarder) = interpose(&controller, rewrite);
    let mut agents = Vec::new();
    let mut handles = Vec::new();
    for (i, switch) in topo.nodes().enumerate() {
        let agent = Arc::new(SwitchAgent::new(switch, topo.node_name(switch), [], 64));
        let reply = if i == 0 || every_agent {
            wrapped_tx.clone()
        } else {
            controller.reply_sender()
        };
        let (ctrl_end, agent_end) = channel_link(reply);
        let runner = Arc::clone(&agent);
        handles.push(std::thread::spawn(move || runner.run(agent_end)));
        controller.attach(switch, Box::new(ctrl_end)).unwrap();
        agents.push(agent);
    }
    (controller, agents, handles, forwarder)
}

/// Commit `counting_policy(6)` and write one `count` entry on its owner,
/// so the update to `counting_policy(1)` — which moves the owner on
/// campus — yields that table and installs it on the new owner.
fn commit_owned_count(controller: &mut Controller, agents: &[Arc<SwitchAgent>]) {
    controller.update_policy(&counting_policy(6)).unwrap();
    let count: StateVar = "count".into();
    let owner = agents
        .iter()
        .find(|a| a.current_view().unwrap().local_vars.contains(&count))
        .expect("some agent owns count");
    owner
        .store()
        .set(&count, vec![Value::Int(1)], Value::Int(5));
}

/// A `Prepared` ack of a burned (aborted) epoch that surfaces in the middle
/// of the *next* epoch's commit drain is discarded as stale by its epoch
/// key — it neither fails the commit nor is mistaken for a fresh ack.
#[test]
fn late_prepared_from_aborted_epoch_is_discarded_as_stale() {
    // Agent 0's first Prepared is replaced by PrepareFailed (burning the
    // epoch) and *stashed*; the stashed stale ack is replayed just before
    // the agent's next Committed, i.e. mid-commit-drain of the next epoch.
    let mut stash: Option<FromAgent> = None;
    let mut sabotaged = false;
    let (mut controller, agents, handles, forwarder) =
        build_with_interposer(Duration::from_secs(5), false, move |msg| match msg {
            FromAgent::Prepared { switch, epoch, .. } if !sabotaged => {
                sabotaged = true;
                stash = Some(msg);
                vec![FromAgent::PrepareFailed {
                    switch,
                    epoch,
                    reason: "sabotaged by test".into(),
                }]
            }
            FromAgent::Committed { .. } => match stash.take() {
                Some(stale) => vec![stale, msg],
                None => vec![msg],
            },
            other => vec![other],
        });

    let err = controller.update_policy(&counting_policy(6)).unwrap_err();
    assert!(matches!(err, DistribError::PrepareRejected { .. }));
    assert_eq!(controller.epoch(), 1, "the failed epoch number is burned");

    // The next update succeeds even though a stale epoch-1 Prepared lands
    // in the middle of epoch 2's commit-ack drain.
    let report = controller.update_policy(&counting_policy(1)).unwrap();
    assert_eq!(report.epoch, 2);
    assert_eq!(report.resyncs, 1, "exactly the sabotaged agent resyncs");
    for agent in &agents {
        assert_eq!(agent.current_view().unwrap().epoch, 2);
    }
    assert!(
        controller.mux_stats().stale >= 1,
        "the replayed burned-epoch ack must be counted as stale, got {:?}",
        controller.mux_stats()
    );

    controller.shutdown();
    for h in handles {
        h.join().unwrap();
    }
    forwarder.join().unwrap();
}

/// Duplicate acks (a retransmitting transport) are consumed once and
/// discarded thereafter — updates keep succeeding and the discards are
/// visible in the mux counters.
#[test]
fn duplicate_acks_are_discarded_and_counted() {
    let (mut controller, agents, handles, forwarder) =
        build_with_interposer(Duration::from_secs(5), false, |msg| vec![msg.clone(), msg]);

    let first = controller.update_policy(&counting_policy(6)).unwrap();
    assert_eq!(first.epoch, 1);
    let second = controller.update_policy(&counting_policy(1)).unwrap();
    assert_eq!(second.epoch, 2);
    assert_eq!(second.resyncs, 0, "duplicates must not force resyncs");
    for agent in &agents {
        assert_eq!(agent.current_view().unwrap().epoch, 2);
    }
    // Each duplicated ack is discarded as either a duplicate (same drain)
    // or stale (a later drain); by the second commit at least the first
    // update's duplicated Prepared has been consumed twice.
    let mux = controller.mux_stats();
    assert!(
        mux.stale + mux.duplicates >= 1,
        "no duplicate was counted: {mux:?}"
    );

    controller.shutdown();
    for h in handles {
        h.join().unwrap();
    }
    forwarder.join().unwrap();
}

/// A `PrepareFailed` racing the other agents' `Prepared` acks on the shared
/// mux fails the epoch exactly once, and the already-arrived acks of the
/// doomed epoch are fully drained — nothing leaks into the next update.
#[test]
fn prepare_failure_races_other_acks_without_leaking_strays() {
    let mut remaining = 1u32;
    let (mut controller, agents, handles, forwarder) =
        build_with_interposer(Duration::from_secs(5), false, move |msg| match msg {
            FromAgent::Prepared { switch, epoch, .. } if remaining > 0 => {
                remaining -= 1;
                vec![FromAgent::PrepareFailed {
                    switch,
                    epoch,
                    reason: "sabotaged by test".into(),
                }]
            }
            other => vec![other],
        });

    let err = controller.update_policy(&counting_policy(6)).unwrap_err();
    assert!(matches!(err, DistribError::PrepareRejected { .. }));

    let report = controller.update_policy(&counting_policy(1)).unwrap();
    assert_eq!(report.epoch, 2);
    assert_eq!(report.resyncs, 1);
    for agent in &agents {
        assert_eq!(agent.current_view().unwrap().epoch, 2);
    }
    // The doomed epoch's sibling acks were consumed *during* its own drain
    // (arrival order), not left queued to pollute epoch 2 as stale traffic.
    assert_eq!(
        controller.mux_stats().stale,
        0,
        "epoch-1 acks leaked into epoch 2's drain: {:?}",
        controller.mux_stats()
    );

    controller.shutdown();
    for h in handles {
        h.join().unwrap();
    }
    forwarder.join().unwrap();
}

/// A `Committed` repeated while the tables it released are being installed
/// is a straggler from an earlier step of the same epoch: counted as a
/// duplicate, not taken for a protocol violation that fails the update.
#[test]
fn duplicate_commit_ack_during_installs_is_counted_not_fatal() {
    let (mut controller, agents, handles, forwarder) =
        build_with_interposer(Duration::from_secs(5), true, |msg| match msg {
            FromAgent::Installed { switch, epoch, .. } => vec![
                FromAgent::Committed {
                    switch,
                    epoch,
                    yields: Vec::new(),
                },
                msg,
            ],
            other => vec![other],
        });
    commit_owned_count(&mut controller, &agents);

    let report = controller.update_policy(&counting_policy(1)).unwrap();
    assert_eq!(report.migrated_tables, 1, "the owner must move");
    assert_eq!(controller.mux_stats().duplicates, 1);

    controller.shutdown();
    for h in handles {
        h.join().unwrap();
    }
    forwarder.join().unwrap();
}

/// A lost `Installed` ack times the install step out like any other step:
/// the epoch is burned (the agents already committed it) and every mirror
/// resyncs on the next update.
#[test]
fn lost_install_ack_burns_the_epoch_and_resyncs() {
    let mut remaining = 1u32;
    let (mut controller, agents, handles, forwarder) =
        build_with_interposer(Duration::from_millis(300), true, move |msg| match msg {
            FromAgent::Installed { .. } if remaining > 0 => {
                remaining -= 1;
                Vec::new()
            }
            other => vec![other],
        });
    commit_owned_count(&mut controller, &agents);

    let err = controller.update_policy(&counting_policy(1)).unwrap_err();
    assert!(matches!(err, DistribError::Transport { .. }), "{err}");
    assert_eq!(controller.epoch(), 2, "the committed epoch is burned");

    let report = controller.update_policy(&counting_policy(6)).unwrap();
    assert_eq!(report.epoch, 3);
    assert_eq!(report.resyncs, agents.len());

    controller.shutdown();
    for h in handles {
        h.join().unwrap();
    }
    forwarder.join().unwrap();
}

/// Flipping back to a recently staged program lowers nothing: the root is
/// already in every agent's append-only mirror, so its prepare appends no
/// node and the view is a handle to the table as it stands.
#[test]
fn rollback_prepare_lowers_no_nodes() {
    let mut deployment = deploy_in_process(campus_session(), 64);
    deployment
        .controller
        .update_policy(&counting_policy(6))
        .unwrap();
    deployment
        .controller
        .update_policy(&counting_policy(1))
        .unwrap();
    let appended = |agent: &Arc<SwitchAgent>| {
        let stats = agent.stats();
        let relaxed = std::sync::atomic::Ordering::Relaxed;
        (
            stats.prepares.load(relaxed),
            stats.nodes_appended.load(relaxed),
        )
    };
    let before: Vec<(u64, u64)> = deployment.network.agents().map(appended).collect();
    // Rollback: same program as epoch 1, hence the same root in the
    // append-only mirror.
    let rollback = deployment
        .controller
        .update_policy(&counting_policy(6))
        .unwrap();
    assert_eq!(rollback.new_nodes, 0);
    for (agent, (prepares, nodes)) in deployment.network.agents().zip(before) {
        assert_eq!(
            appended(agent),
            (prepares + 1, nodes),
            "agent {} lowered nodes for a root it holds",
            agent.name()
        );
    }
    deployment.shutdown();
}

/// The framed TCP transport carries the full protocol end to end: commits,
/// deltas, resyncs and data-plane traffic behave exactly like the
/// in-process backend.
#[test]
fn tcp_transport_runs_the_full_protocol() {
    let mut deployment =
        deploy_tcp(campus_session(), 1024, DeployOptions::default()).expect("tcp deploy");

    let first = deployment
        .controller
        .update_policy(&counting_policy(6))
        .unwrap();
    assert_eq!(first.epoch, 1);
    assert_eq!(first.resyncs, deployment.controller.agent_count());

    // Traffic flows through the socket-fed agents.
    let pkt = Packet::new().with(Field::InPort, 1);
    let out = deployment.network.inject(PortId(1), &pkt).unwrap();
    assert_eq!(out.epoch, 1);
    assert_eq!(out.delivered.len(), 1);
    assert_eq!(out.delivered[0].0, PortId(6));

    // A second update ships a suffix delta over the sockets.
    let second = deployment
        .controller
        .update_policy(&counting_policy(1))
        .unwrap();
    assert_eq!(second.epoch, 2);
    assert_eq!(second.resyncs, 0);
    for agent in deployment.network.agents() {
        assert_eq!(agent.current_view().unwrap().epoch, 2);
    }
    assert_eq!(deployment.controller.mux_stats().stale, 0);
    deployment.shutdown();
}
