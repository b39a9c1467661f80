//! # snap-distrib
//!
//! The controller→switch **distribution plane** and the packet plane over
//! it: a protocol between a controller and per-switch agents that changes
//! the network's program with the paper's consistency guarantees preserved
//! across the wire, and the one place in the workspace where packets run.
//!
//! * [`Controller`] wraps a [`snap_session::CompilerSession`] and an
//!   append-only distribution pool. Every recompile is imported into that
//!   pool (hash-consing dedupes against everything ever shipped) and
//!   distributed as a **wire-format delta**: the node-table suffix the
//!   agents don't have yet, plus the new root and only the per-switch
//!   metadata each agent lacks. Working-set edits ship a few nodes;
//!   rollbacks ship zero.
//! * [`SwitchAgent`] is the switch side: it mirrors the distribution pool
//!   node-for-node and lowers each node once, when it arrives, all the way
//!   to its dispatch entry — so the mirror ids every
//!   agent assigns (the §4.5 packet tags) agree across all switches, and a
//!   program is a handle to the lowered table plus a root.
//! * An agent stages an update on *prepare* — apply the delta (lowering
//!   its new nodes), bind the program's variable slots, build the view:
//!   work in the size of the delta, not of the program — and flips on
//!   *commit*, keeping a short ring of epoch views for in-flight packets.
//!   State tables move with their owner through yield/install messages.
//! * The **two-phase epoch protocol** preserves the invariant that no
//!   packet mixes two configurations: commit is only ordered after every
//!   agent staged the epoch, and packets resolve their ingress-stamped
//!   epoch at every hop (see `controller` module docs for the argument).
//! * [`DistNetwork`] drives traffic through the agents with the one batched
//!   packet driver ([`driver`]): each hop executes an agent's epoch view,
//!   locks the agent's state store for the visit and delivers into its
//!   per-port bounded FIFO queues ([`snap_dataplane::EgressQueues`]) — the
//!   per-switch machinery underneath is `snap-dataplane`'s. The
//!   multi-worker [`TrafficEngine`] pumps workloads through it.
//! * The transport is a trait seam ([`transport::ControllerEndpoint`] /
//!   [`transport::AgentEndpoint`]) with every agent reply converging on the
//!   controller's shared **reply mux**. Two backends ship: in-process mpsc
//!   channels ([`deploy_in_process`]), whose agents share one host thread
//!   per core, and length-prefixed TCP frames ([`deploy_tcp`], [`tcp`])
//!   for controller and agents as genuinely separate processes.
//!
//! ## Quick start
//!
//! ```
//! use snap_distrib::deploy_in_process;
//! use snap_lang::prelude::*;
//! use snap_session::CompilerSession;
//! use snap_topology::{generators, PortId, TrafficMatrix};
//!
//! let topo = generators::campus();
//! let tm = TrafficMatrix::gravity(&topo, 600.0, 42);
//! let session = CompilerSession::new(topo, tm);
//! let mut deployment = deploy_in_process(session, 1024);
//!
//! // Compile + two-phase delta commit to every agent.
//! let policy = state_incr("count", vec![field(Field::InPort)])
//!     .seq(modify(Field::OutPort, Value::Int(6)));
//! let report = deployment.controller.update_policy(&policy).unwrap();
//! assert_eq!(report.epoch, 1);
//!
//! // Traffic flows through the agents; egress lands in per-port queues.
//! let pkt = Packet::new().with(Field::InPort, 1);
//! let out = deployment.network.inject(PortId(1), &pkt).unwrap();
//! assert_eq!(out.epoch, 1);
//! assert_eq!(deployment.network.drain_port(PortId(6)).len(), 1);
//! deployment.shutdown();
//! ```

#![warn(missing_docs)]

pub mod agent;
pub mod controller;
pub mod driver;
pub mod frame;
mod pins;
pub mod plane;
pub mod tcp;
pub mod traffic;
pub mod transport;

pub use agent::{AgentStats, EpochView, SwitchAgent, EPOCH_HISTORY};
pub use controller::{CommitReport, Controller, DistribError, DistribOptions, MuxStats};
pub use driver::DEFAULT_HOP_BUDGET;
pub use plane::{DistNetwork, InjectError, InjectOutcome};
pub use tcp::{TcpAgentEndpoint, TcpControllerEndpoint, TcpTransportListener};
pub use traffic::{TrafficEngine, TrafficReport};
pub use transport::{
    channel_link, reply_channel, AgentEndpoint, ControllerEndpoint, FromAgent, PrepareMsg, ReplyRx,
    ReplyTx, SwitchMeta, ToAgent, TransportError,
};

use snap_session::CompilerSession;
use snap_topology::{NodeId as SwitchId, PortId};
use std::collections::{BTreeMap, VecDeque};
use std::convert::Infallible;
use std::io;
use std::num::NonZeroUsize;
use std::sync::mpsc::{self, RecvTimeoutError};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// A fully wired in-process deployment: one [`SwitchAgent`] per switch,
/// the controller's links to them, a traffic-facing [`DistNetwork`] over
/// the same agents, and the [`Controller`] driving them.
pub struct InProcessDeployment {
    /// The controller (owns the compiler session and all agent links).
    pub controller: Controller,
    /// The traffic plane over the deployed agents.
    pub network: Arc<DistNetwork>,
    handles: Vec<JoinHandle<()>>,
}

impl InProcessDeployment {
    /// Stop every agent and join the threads that ran them.
    pub fn shutdown(mut self) {
        self.controller.shutdown();
        for handle in self.handles.drain(..) {
            let _ = handle.join();
        }
    }
}

/// Knobs of the deployment helpers beyond the controller's own
/// [`DistribOptions`].
#[derive(Clone, Debug, Default)]
pub struct DeployOptions {
    /// Controller tunables (transport timeout, auto-compaction threshold).
    pub distrib: DistribOptions,
    /// Emulated control-network RTT of every agent
    /// ([`SwitchAgent::with_ack_delay`]). `None` replies at loopback speed.
    pub ack_delay: Option<Duration>,
}

/// Deploy one [`SwitchAgent`] per switch of the session's topology, linked
/// to a [`Controller`] over in-process channels. The agents run on one
/// host thread per core (`available_parallelism()`, at most one per
/// switch): each host takes its agents' messages from one FIFO inbox, so
/// every agent still handles its own messages in send order, and a commit
/// wakes a few hosts instead of every agent. `queue_capacity` bounds each
/// agent's per-port egress queues.
pub fn deploy_in_process(session: CompilerSession, queue_capacity: usize) -> InProcessDeployment {
    deploy_in_process_custom(session, queue_capacity, DeployOptions::default())
}

/// [`deploy_in_process`] with full [`DeployOptions`].
pub fn deploy_in_process_custom(
    session: CompilerSession,
    queue_capacity: usize,
    deploy: DeployOptions,
) -> InProcessDeployment {
    let Ok(deployment) = deploy_with(session, queue_capacity, deploy, |controller, agents| {
        let cores = std::thread::available_parallelism().map_or(1, NonZeroUsize::get);
        let hosts = cores.min(agents.len());
        let (senders, inboxes): (Vec<_>, Vec<_>) = (0..hosts).map(|_| mpsc::channel()).unzip();
        let mut hosted = vec![Vec::new(); hosts];
        for (i, (switch, agent)) in agents.iter().enumerate() {
            let host = i % hosts;
            let link = HostedLink {
                inbox: senders[host].clone(),
                slot: hosted[host].len(),
            };
            hosted[host].push(Arc::clone(agent));
            controller
                .attach(*switch, Box::new(link))
                .expect("every switch of the topology attaches");
        }
        let handles = hosted.into_iter().zip(inboxes).map(|(agents, inbox)| {
            let replies = controller.reply_sender();
            std::thread::spawn(move || host(agents, inbox, replies))
        });
        Ok::<_, Infallible>(handles.collect())
    });
    deployment
}

/// The controller's end of a hosted agent's link: messages join its host's
/// inbox tagged with the agent's slot there. Dropping the link — the
/// controller replaced it or went away — stops the agent, as `Shutdown`
/// does.
struct HostedLink {
    inbox: mpsc::Sender<(usize, ToAgent)>,
    slot: usize,
}

impl ControllerEndpoint for HostedLink {
    fn send(&self, msg: ToAgent) -> Result<(), TransportError> {
        self.inbox
            .send((self.slot, msg))
            .map_err(|_| TransportError::Disconnected)
    }
}

impl Drop for HostedLink {
    fn drop(&mut self) {
        // Fails only once the host has left, i.e. the agent already stopped.
        let _ = self.inbox.send((self.slot, ToAgent::Shutdown));
    }
}

/// A host thread's loop: hand each message of `inbox` to the addressed
/// agent's [`SwitchAgent::handle`], in arrival order, and forward the
/// replies to the controller's reply mux until every hosted agent stopped.
/// A reply is due its agent's `ack_delay` after the message was handled;
/// the host waits for the earliest due reply while it keeps handling
/// messages, so every agent's delay elapses concurrently.
fn host(agents: Vec<Arc<SwitchAgent>>, inbox: mpsc::Receiver<(usize, ToAgent)>, replies: ReplyTx) {
    let mut agents: Vec<Option<Arc<SwitchAgent>>> = agents.into_iter().map(Some).collect();
    let mut live = agents.len();
    let mut due: VecDeque<(Instant, FromAgent)> = VecDeque::new();
    while live > 0 {
        let next = match due.front() {
            Some(&(at, _)) => inbox.recv_timeout(at.saturating_duration_since(Instant::now())),
            None => inbox.recv().map_err(|_| RecvTimeoutError::Disconnected),
        };
        match next {
            Ok((slot, ToAgent::Shutdown)) => {
                if agents[slot].take().is_some() {
                    live -= 1;
                }
            }
            Ok((slot, msg)) => {
                if let Some(agent) = &agents[slot] {
                    let handled = agent.handle(msg);
                    let at = Instant::now() + agent.ack_delay().unwrap_or_default();
                    for reply in handled {
                        due.insert(due.partition_point(|(d, _)| *d <= at), (at, reply));
                    }
                }
            }
            Err(RecvTimeoutError::Timeout) => {}
            Err(RecvTimeoutError::Disconnected) => break,
        }
        let now = Instant::now();
        while let Some((_, reply)) = due.pop_front_if(|(at, _)| *at <= now) {
            if replies.send(reply).is_err() {
                return;
            }
        }
    }
    for (at, reply) in due {
        std::thread::sleep(at.saturating_duration_since(Instant::now()));
        let _ = replies.send(reply);
    }
}

/// Deploy like [`deploy_in_process_custom`], but carry every
/// controller↔agent link over a framed TCP connection on loopback: the
/// controller binds one listener, each agent runs [`SwitchAgent::run`] on a
/// thread of its own, connects and introduces itself, and a
/// per-connection reader thread feeds the controller's reply mux. Same
/// process, real sockets — the protocol exercised end to end is exactly
/// what two separate processes speak (see `examples/distrib_campus.rs
/// --transport tcp-proc` for the multi-process form).
pub fn deploy_tcp(
    session: CompilerSession,
    queue_capacity: usize,
    deploy: DeployOptions,
) -> io::Result<InProcessDeployment> {
    let listener = TcpTransportListener::bind(("127.0.0.1", 0))?;
    let addr = listener.local_addr()?;
    deploy_with(session, queue_capacity, deploy, |controller, agents| {
        let mut handles = Vec::with_capacity(agents.len());
        for (switch, agent) in agents {
            let (switch, agent) = (*switch, Arc::clone(agent));
            // Connect-then-accept per agent keeps the accept association
            // deterministic and never outruns the listener backlog, even at
            // a thousand agents.
            handles.push(std::thread::spawn(move || {
                let Ok(endpoint) = TcpAgentEndpoint::connect(addr, switch) else {
                    return;
                };
                agent.run(endpoint);
            }));
            let (claimed, endpoint) = listener.accept_agent(controller.reply_sender())?;
            debug_assert_eq!(claimed, switch, "hello names the connecting switch");
            controller
                .attach(claimed, Box::new(endpoint))
                .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?;
        }
        Ok(handles)
    })
}

/// The deployment both transports share: one [`SwitchAgent`] per switch of
/// the session's topology, all handed to `wire`, which attaches each to the
/// controller and returns the threads that run them.
fn deploy_with<E>(
    session: CompilerSession,
    queue_capacity: usize,
    deploy: DeployOptions,
    wire: impl FnOnce(
        &mut Controller,
        &[(SwitchId, Arc<SwitchAgent>)],
    ) -> Result<Vec<JoinHandle<()>>, E>,
) -> Result<InProcessDeployment, E> {
    let topology = session.topology().clone();
    let mut ports_per_switch: BTreeMap<SwitchId, Vec<PortId>> = BTreeMap::new();
    for (port, node) in topology.external_ports() {
        ports_per_switch.entry(node).or_default().push(port);
    }
    // One telemetry instance for the whole deployment: the controller's
    // commit events, the session's compile counters and the data plane's
    // packet counters all land in the same registry, so a single snapshot
    // tells the whole story.
    let telemetry = snap_telemetry::Telemetry::new();
    let mut controller = Controller::new(session)
        .with_options(deploy.distrib)
        .with_telemetry(telemetry.clone());
    let agents: Vec<(SwitchId, Arc<SwitchAgent>)> = topology
        .nodes()
        .map(|switch| {
            let mut agent = SwitchAgent::new(
                switch,
                topology.node_name(switch),
                ports_per_switch.remove(&switch).unwrap_or_default(),
                queue_capacity,
            );
            if let Some(delay) = deploy.ack_delay {
                agent = agent.with_ack_delay(delay);
            }
            (switch, Arc::new(agent))
        })
        .collect();
    let handles = wire(&mut controller, &agents)?;
    let network = DistNetwork::new(topology, agents.into_iter().collect());
    Ok(InProcessDeployment {
        controller,
        network: Arc::new(network.with_telemetry(telemetry)),
        handles,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use snap_lang::prelude::*;
    use snap_topology::{generators::igen_topology, TrafficMatrix};

    fn igen_session(switches: usize) -> CompilerSession {
        let topo = igen_topology(switches, 42);
        let tm = TrafficMatrix::gravity(&topo, 1_000.0, 42);
        CompilerSession::new(topo, tm)
    }

    fn counting_policy(egress: i64) -> Policy {
        state_incr("count", vec![field(Field::InPort)])
            .seq(modify(Field::OutPort, Value::Int(egress)))
    }

    #[test]
    fn hosts_are_one_thread_per_core_and_wait_out_every_rtt_at_once() {
        let cores = std::thread::available_parallelism().map_or(1, NonZeroUsize::get);
        let deployment = deploy_in_process(igen_session(200), 16);
        assert_eq!(deployment.controller.agent_count(), 200);
        assert!(
            deployment.handles.len() <= cores,
            "one host per core at most"
        );
        deployment.shutdown();

        // Every agent's reply waits out the 20 ms RTT, on one or two
        // hosts: one after another, a phase would take 25 × 20 ms.
        let rtt = Duration::from_millis(20);
        let deploy = DeployOptions {
            ack_delay: Some(rtt),
            ..DeployOptions::default()
        };
        let mut deployment = deploy_in_process_custom(igen_session(50), 16, deploy);
        let controller = &mut deployment.controller;
        controller.update_policy(&counting_policy(6)).unwrap();
        controller.update_policy(&counting_policy(1)).unwrap();
        let flip = controller.update_policy(&counting_policy(6)).unwrap();
        let took = flip.prepare_time + flip.commit_time;
        assert!(flip.prepare_time >= rtt && flip.commit_time >= rtt);
        assert!(took < 4 * rtt, "a flip took {took:?}");
        deployment.shutdown();
    }
}
