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
//!   to its dispatch entry and state summary — so the mirror ids every
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
//!   leases the agent's state shards and delivers into its per-port bounded
//!   FIFO queues ([`snap_dataplane::EgressQueues`]) — the per-switch
//!   machinery underneath is `snap-dataplane`'s. The multi-worker
//!   [`TrafficEngine`] pumps workloads through it.
//! * The transport is a trait seam ([`transport::ControllerEndpoint`] /
//!   [`transport::AgentEndpoint`]) with every agent reply converging on the
//!   controller's shared **reply mux**. Two backends ship: in-process mpsc
//!   channels ([`deploy_in_process`]) and length-prefixed TCP frames
//!   ([`deploy_tcp`], [`tcp`]) for controller and agents as genuinely
//!   separate processes.
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
use std::collections::BTreeMap;
use std::convert::Infallible;
use std::io;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// A fully wired in-process deployment: one agent thread per switch,
/// channel transports, a traffic-facing [`DistNetwork`] over the same
/// agents, and the [`Controller`] driving them.
pub struct InProcessDeployment {
    /// The controller (owns the compiler session and all agent links).
    pub controller: Controller,
    /// The traffic plane over the deployed agents.
    pub network: Arc<DistNetwork>,
    handles: Vec<JoinHandle<()>>,
}

impl InProcessDeployment {
    /// Stop every agent thread and join them.
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
    /// Emulated control-network RTT: every agent sleeps this long before
    /// each reply (see [`SwitchAgent::with_ack_delay`]). `None` replies at
    /// loopback speed.
    pub ack_delay: Option<Duration>,
}

/// Deploy one [`SwitchAgent`] per switch of the session's topology on its
/// own thread, linked to a [`Controller`] over in-process channels.
/// `queue_capacity` bounds each agent's per-port egress queues.
pub fn deploy_in_process(session: CompilerSession, queue_capacity: usize) -> InProcessDeployment {
    deploy_in_process_custom(session, queue_capacity, DeployOptions::default())
}

/// [`deploy_in_process`] with full [`DeployOptions`].
pub fn deploy_in_process_custom(
    session: CompilerSession,
    queue_capacity: usize,
    deploy: DeployOptions,
) -> InProcessDeployment {
    let Ok(deployment) = deploy_with(
        session,
        queue_capacity,
        deploy,
        |controller, switch, agent| {
            let (controller_end, agent_end) = channel_link(controller.reply_sender());
            controller
                .attach(switch, Box::new(controller_end))
                .expect("every switch of the topology attaches");
            let handle = std::thread::spawn(move || agent.run(agent_end));
            Ok::<_, Infallible>(handle)
        },
    );
    deployment
}

/// Deploy like [`deploy_in_process_custom`], but carry every
/// controller↔agent link over a framed TCP connection on loopback: the
/// controller binds one listener, each agent thread connects and
/// introduces itself, and a per-connection reader thread feeds the
/// controller's reply mux. Same processes, real sockets — the protocol
/// exercised end to end is exactly what two separate processes speak (see
/// `examples/distrib_campus.rs --transport tcp-proc` for the
/// multi-process form).
pub fn deploy_tcp(
    session: CompilerSession,
    queue_capacity: usize,
    deploy: DeployOptions,
) -> io::Result<InProcessDeployment> {
    let listener = TcpTransportListener::bind(("127.0.0.1", 0))?;
    let addr = listener.local_addr()?;
    deploy_with(
        session,
        queue_capacity,
        deploy,
        |controller, switch, agent| {
            // Connect-then-accept per agent keeps the accept association
            // deterministic and never outruns the listener backlog, even at a
            // thousand agents.
            let handle = std::thread::spawn(move || {
                let Ok(endpoint) = TcpAgentEndpoint::connect(addr, switch) else {
                    return;
                };
                agent.run(endpoint);
            });
            let (claimed, endpoint) = listener.accept_agent(controller.reply_sender())?;
            debug_assert_eq!(claimed, switch, "hello names the connecting switch");
            controller
                .attach(claimed, Box::new(endpoint))
                .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?;
            Ok(handle)
        },
    )
}

/// The deployment both transports share: one [`SwitchAgent`] per switch of
/// the session's topology, each started on its own thread and attached to
/// the controller by `link`, which returns the agent's thread.
fn deploy_with<E>(
    session: CompilerSession,
    queue_capacity: usize,
    deploy: DeployOptions,
    mut link: impl FnMut(&mut Controller, SwitchId, Arc<SwitchAgent>) -> Result<JoinHandle<()>, E>,
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
    let mut agents: BTreeMap<SwitchId, Arc<SwitchAgent>> = BTreeMap::new();
    let mut handles = Vec::new();
    for switch in topology.nodes() {
        let mut agent = SwitchAgent::new(
            switch,
            topology.node_name(switch),
            ports_per_switch.remove(&switch).unwrap_or_default(),
            queue_capacity,
        );
        if let Some(delay) = deploy.ack_delay {
            agent = agent.with_ack_delay(delay);
        }
        let agent = Arc::new(agent);
        handles.push(link(&mut controller, switch, Arc::clone(&agent))?);
        agents.insert(switch, agent);
    }
    let network = Arc::new(DistNetwork::new(topology, agents).with_telemetry(telemetry));
    Ok(InProcessDeployment {
        controller,
        network,
        handles,
    })
}
