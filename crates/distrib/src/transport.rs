//! The controller↔agent message protocol and the transport seam.
//!
//! The controller talks to each switch agent over a pair of endpoint traits
//! ([`ControllerEndpoint`] on its side, [`AgentEndpoint`] on the switch
//! side). Sends are per-link, but *all* agent replies converge on one shared
//! reply channel ([`ReplyTx`]) owned by the controller: every [`FromAgent`]
//! message names its switch and epoch, so the controller consumes acks in
//! arrival order and routes them by `(switch, epoch)` instead of blocking on
//! one link at a time. The in-process backend ([`channel_link`]) forwards the
//! agent's sends straight into that shared channel; a socket backend slots in
//! by implementing the same two traits over a serialized stream (see
//! [`crate::tcp`]) — the program payloads already *are* bytes
//! (`snap_xfdd::wire` deltas), and the remaining message fields are plain
//! data.
//!
//! Message flow per update (the two-phase epoch protocol):
//!
//! ```text
//! controller                                   agent
//!     │  Prepare { epoch, delta, meta, … }  →    │  decode + re-intern + lower
//!     │  ←  Prepared { epoch } / PrepareFailed   │  (current epoch untouched)
//!     │  Commit { epoch }                   →    │  flip current view, yield
//!     │  ←  Committed { epoch, yields }          │  released state tables
//!     │  InstallTable { var, table }        →    │  adopt a migrated table
//!     │  ←  Installed { epoch, var }             │
//! ```
//!
//! `Abort { epoch }` cancels a prepared-but-uncommitted update on every
//! agent when any prepare fails.

pub use snap_core::SwitchMeta;
use snap_lang::{StateTable, StateVar};
use snap_topology::NodeId as SwitchId;
use std::collections::BTreeMap;
use std::fmt;
use std::sync::mpsc;
use std::time::Duration;

/// Phase one of an update: everything the agent needs to *stage* the new
/// epoch without touching the running configuration.
#[derive(Clone, Debug)]
pub struct PrepareMsg {
    /// The epoch this update will commit as.
    pub epoch: u64,
    /// When set, `delta` is a full-table payload to decode into a *fresh*
    /// mirror (bootstrap, or recovery from divergence); otherwise it is a
    /// suffix delta against the agent's cached pool.
    pub resync: bool,
    /// The `snap_xfdd::wire` delta payload (node-table suffix + root).
    pub delta: Vec<u8>,
    /// This switch's metadata, or `None` when unchanged since the last
    /// update shipped to this agent.
    pub meta: Option<SwitchMeta>,
    /// The global variable→owner placement (for forwarding packets towards
    /// state), or `None` when unchanged.
    pub placement: Option<BTreeMap<StateVar, SwitchId>>,
}

/// Controller → agent messages.
#[derive(Clone, Debug)]
pub enum ToAgent {
    /// Stage an update (phase one).
    Prepare(Box<PrepareMsg>),
    /// Flip a prepared update to current (phase two).
    Commit {
        /// The epoch to commit; must match the staged update.
        epoch: u64,
    },
    /// Drop a prepared update without committing it.
    Abort {
        /// The epoch to abort.
        epoch: u64,
    },
    /// Adopt a state table migrated from the variable's previous owner.
    InstallTable {
        /// The epoch whose commit migrated the table.
        epoch: u64,
        /// The migrated variable.
        var: StateVar,
        /// Its table contents.
        table: StateTable,
    },
    /// Stop the agent's message loop.
    Shutdown,
}

/// Agent → controller messages.
#[derive(Clone, Debug)]
pub enum FromAgent {
    /// The update is staged: delta applied to (and lowered into) the
    /// mirror, new view materialized. The current epoch is untouched.
    Prepared {
        /// The replying switch.
        switch: SwitchId,
        /// The staged epoch.
        epoch: u64,
        /// Nodes the delta appended to the agent's mirror.
        new_nodes: u64,
    },
    /// The update could not be staged (diverged mirror, malformed payload).
    /// The agent's mirror must be resynced before the next update.
    PrepareFailed {
        /// The replying switch.
        switch: SwitchId,
        /// The epoch that failed to stage.
        epoch: u64,
        /// Human-readable failure cause.
        reason: String,
    },
    /// The staged epoch is now current; released tables ride along. The
    /// agent is authoritative about what it yields: *every* table in its
    /// store whose variable the new view does not own — the planned
    /// migrations of this update, plus anything stranded by an earlier
    /// failed one.
    Committed {
        /// The replying switch.
        switch: SwitchId,
        /// The committed epoch.
        epoch: u64,
        /// Tables of variables this switch no longer owns, for migration.
        yields: Vec<(StateVar, StateTable)>,
    },
    /// A migrated table was adopted.
    Installed {
        /// The replying switch.
        switch: SwitchId,
        /// The epoch the migration belongs to.
        epoch: u64,
        /// The adopted variable.
        var: StateVar,
    },
}

impl FromAgent {
    /// The switch that sent this reply — the mux routing key's first half.
    pub fn switch(&self) -> SwitchId {
        match self {
            FromAgent::Prepared { switch, .. }
            | FromAgent::PrepareFailed { switch, .. }
            | FromAgent::Committed { switch, .. }
            | FromAgent::Installed { switch, .. } => *switch,
        }
    }

    /// The epoch this reply concerns — the mux routing key's second half.
    pub fn epoch(&self) -> u64 {
        match self {
            FromAgent::Prepared { epoch, .. }
            | FromAgent::PrepareFailed { epoch, .. }
            | FromAgent::Committed { epoch, .. }
            | FromAgent::Installed { epoch, .. } => *epoch,
        }
    }
}

/// Transport failures.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum TransportError {
    /// The peer is gone (channel closed / connection lost).
    Disconnected,
    /// No reply within the configured timeout.
    Timeout,
}

impl fmt::Display for TransportError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TransportError::Disconnected => write!(f, "transport disconnected"),
            TransportError::Timeout => write!(f, "transport timed out"),
        }
    }
}

impl std::error::Error for TransportError {}

/// The controller's end of one agent link. Send-only: replies do not come
/// back through the link, they arrive on the controller's shared reply
/// channel ([`ReplyTx`]) keyed by the switch id every [`FromAgent`] carries.
pub trait ControllerEndpoint: Send {
    /// Send a message to the agent.
    fn send(&self, msg: ToAgent) -> Result<(), TransportError>;
}

/// The agent's end of its controller link.
pub trait AgentEndpoint: Send {
    /// Block for the controller's next message.
    fn recv(&self) -> Result<ToAgent, TransportError>;
    /// Send a message to the controller.
    fn send(&self, msg: FromAgent) -> Result<(), TransportError>;
}

/// The sending half of the controller's shared reply channel. One of these
/// is cloned into every agent link (and every socket reader thread): all
/// agents' acks funnel into the single receiver the controller drains in
/// arrival order.
#[derive(Clone)]
pub struct ReplyTx {
    tx: mpsc::Sender<FromAgent>,
}

impl ReplyTx {
    /// Wrap a raw sender. Tests interpose on the reply path by building
    /// their own channel, filtering, and forwarding into the real one.
    pub fn from_sender(tx: mpsc::Sender<FromAgent>) -> ReplyTx {
        ReplyTx { tx }
    }

    /// Deliver an agent reply to the controller.
    pub fn send(&self, msg: FromAgent) -> Result<(), TransportError> {
        self.tx.send(msg).map_err(|_| TransportError::Disconnected)
    }
}

/// The receiving half of the controller's reply channel.
pub struct ReplyRx {
    rx: mpsc::Receiver<FromAgent>,
}

impl ReplyRx {
    /// Wait up to `timeout` for the next agent reply, whoever sent it.
    pub fn recv_timeout(&self, timeout: Duration) -> Result<FromAgent, TransportError> {
        self.rx.recv_timeout(timeout).map_err(|e| match e {
            mpsc::RecvTimeoutError::Timeout => TransportError::Timeout,
            mpsc::RecvTimeoutError::Disconnected => TransportError::Disconnected,
        })
    }
}

/// A fresh reply channel: the controller keeps the receiver, every link
/// gets a clone of the sender.
pub fn reply_channel() -> (ReplyTx, ReplyRx) {
    let (tx, rx) = mpsc::channel();
    (ReplyTx { tx }, ReplyRx { rx })
}

/// In-process controller endpoint: an `mpsc` sender into the agent's inbox.
pub struct ChannelControllerEndpoint {
    tx: mpsc::Sender<ToAgent>,
}

/// In-process agent endpoint: an `mpsc` inbox plus the controller's shared
/// reply sender.
pub struct ChannelAgentEndpoint {
    reply: ReplyTx,
    rx: mpsc::Receiver<ToAgent>,
}

/// An in-process link: the controller half (send-only) and the agent half,
/// whose sends go straight into the controller's shared reply channel.
pub fn channel_link(reply: ReplyTx) -> (ChannelControllerEndpoint, ChannelAgentEndpoint) {
    let (to_agent_tx, to_agent_rx) = mpsc::channel();
    (
        ChannelControllerEndpoint { tx: to_agent_tx },
        ChannelAgentEndpoint {
            reply,
            rx: to_agent_rx,
        },
    )
}

impl ControllerEndpoint for ChannelControllerEndpoint {
    fn send(&self, msg: ToAgent) -> Result<(), TransportError> {
        self.tx.send(msg).map_err(|_| TransportError::Disconnected)
    }
}

impl AgentEndpoint for ChannelAgentEndpoint {
    fn recv(&self) -> Result<ToAgent, TransportError> {
        self.rx.recv().map_err(|_| TransportError::Disconnected)
    }

    fn send(&self, msg: FromAgent) -> Result<(), TransportError> {
        self.reply.send(msg)
    }
}
