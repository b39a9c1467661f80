//! The per-switch update agent: a genuinely separate party that caches the
//! controller's distribution pool, stages updates, and flips epochs.
//!
//! A [`SwitchAgent`] owns
//!
//! * a **mirror** ([`snap_xfdd::Mirror`]) — a node-for-node copy of the
//!   controller's append-only distribution pool, advanced by
//!   `snap_xfdd::wire` suffix deltas, plus the lowering of every node —
//!   payload, successors, dispatch entry, state summary — made once when
//!   the node arrives. Every agent's mirror holds the same node table, so
//!   the flat ids every agent assigns agree — which is what lets the §4.5
//!   packet tag minted on one switch resume on another. Lowered nodes are
//!   valid for exactly one numbering, so pool and table are one value: a
//!   resync replaces both, a failed delta drops both. Nothing is shared
//!   *between* agents — each lowers its own mirror;
//! * a small ring of **epoch views** — per-epoch immutable bundles of
//!   program, owned variables, external ports and global placement, plus
//!   what *prepare* resolved from them for the packet path: each variable
//!   slot of the program bound to this switch's table id or to the owning
//!   switch (`snap_dataplane::bind_slots`), and the ports as a sorted
//!   slice. Slots are this agent's mirror's numbering and table ids this
//!   agent's store's — neither ever leaves the process; prepare and commit
//!   messages, yields and installs speak names. The binding is part of the
//!   immutable view, so a packet stamped with an older epoch meets that
//!   epoch's binding at every hop, and it stays valid for as long as the
//!   ring keeps the view (table ids are append-only; a yielded variable's
//!   id is kept). A view's program is a handle to the mirror's table as it
//!   stood at prepare, plus a root: keeping one costs a few words, and
//!   staging one costs what the delta's new nodes cost. Traffic is stamped
//!   with its ingress epoch and every hop resolves the view for *that*
//!   epoch, so a packet never mixes two configurations even while the
//!   distributed commit is mid-flip;
//! * its **sharded state plane** ([`snap_dataplane::StateShards`]) and
//!   bounded per-port **egress queues** ([`snap_dataplane::EgressQueues`]).
//!
//! The two-phase protocol does all expensive work in *prepare* (delta
//! decode, re-intern, lowering of the new nodes, slot binding — off the
//! packet path's critical flip) and
//! makes *commit* a pointer swap plus the release of migrated tables. A
//! packet can carry an epoch the local agent has prepared but not yet
//! committed — that is exactly the commit wave passing through the network
//! — and the view lookup serves the staged view in that case: sound,
//! because the controller only starts committing after *every* agent
//! prepared, so a packet stamped with the new epoch proves global
//! readiness.

use crate::transport::{AgentEndpoint, FromAgent, PrepareMsg, SwitchMeta, ToAgent};
use parking_lot::Mutex;
use snap_dataplane::{bind_slots, EgressQueues, SlotBinding, StateShards, DEFAULT_STATE_SHARDS};
use snap_lang::StateVar;
use snap_topology::{NodeId as SwitchId, PortId};
use snap_xfdd::{FlatProgram, Mirror};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// How many committed epochs an agent keeps resolvable for in-flight
/// packets. Packets live for a handful of hops; anything older than this
/// many commits is a stray.
pub const EPOCH_HISTORY: usize = 8;

/// One epoch's immutable configuration, as a switch executes it.
///
/// Built once, in *prepare*, with every name already looked up: `bindings`
/// and `ports` are what the packet path reads, `local_vars` / `placement`
/// are the former by name, kept for the control plane (commit carries them
/// forward, yields and aggregation filter by them).
/// The binding uses this switch's own table ids and this agent's own slot
/// numbering — it is never shipped, and it stays valid for as long as the
/// view is kept: table ids are never retired or reused.
pub struct EpochView {
    /// The configuration epoch this view belongs to.
    pub epoch: u64,
    /// The program, flattened from the agent's mirror: the one program
    /// handle the packet path executes, dispatch included
    /// ([`FlatProgram::advance_stateless`]). Identical (same mirror ids) on
    /// every agent of the same epoch; its dispatch entries are never
    /// shipped — each agent lowers its own mirror's — and agree across
    /// agents because the flat ids do.
    pub flat: Arc<FlatProgram>,
    /// State variables this switch owns under this epoch.
    pub local_vars: BTreeSet<StateVar>,
    /// External ports attached to this switch, ascending — the packet path
    /// binary-searches them.
    pub ports: Box<[PortId]>,
    /// Global variable→owner placement, for forwarding towards state.
    pub placement: Arc<BTreeMap<StateVar, SwitchId>>,
    /// Where each variable slot of `flat` lives under this epoch: this
    /// switch's table for the variables in `local_vars`, else the owner
    /// under `placement`.
    pub bindings: Box<[SlotBinding]>,
}

impl EpochView {
    /// Does this switch serve `port` as a local external port under this
    /// view?
    #[inline]
    pub(crate) fn serves_port(&self, port: PortId) -> bool {
        self.ports.binary_search(&port).is_ok()
    }
}

/// A staged (prepared, uncommitted) update.
struct Pending {
    view: Arc<EpochView>,
}

struct AgentCore {
    /// The running configuration.
    current: Option<Arc<EpochView>>,
    /// Recently committed epochs, for in-flight packets (pruned to
    /// [`EPOCH_HISTORY`]).
    views: BTreeMap<u64, Arc<EpochView>>,
    /// The staged update, if any.
    pending: Option<Pending>,
    /// Last shipped metadata/placement, carried forward when a prepare
    /// says "unchanged".
    meta: SwitchMeta,
    placement: Arc<BTreeMap<StateVar, SwitchId>>,
}

/// Monotone counters describing what an agent has done.
#[derive(Default)]
pub struct AgentStats {
    /// Updates staged successfully.
    pub prepares: AtomicU64,
    /// Updates whose staging failed (mirror divergence, bad payload).
    pub prepare_failures: AtomicU64,
    /// Updates committed.
    pub commits: AtomicU64,
    /// Updates aborted after staging.
    pub aborts: AtomicU64,
    /// Full-table resyncs applied.
    pub resyncs: AtomicU64,
    /// Total delta payload bytes applied.
    pub delta_bytes: AtomicU64,
    /// Total nodes appended to the mirror by deltas.
    pub nodes_appended: AtomicU64,
    /// Migrated tables adopted.
    pub tables_installed: AtomicU64,
}

/// A per-switch update agent (see the module docs).
pub struct SwitchAgent {
    switch: SwitchId,
    name: String,
    /// The cached distribution pool and its lowered nodes; `None` before
    /// the first resync or after a failed delta left it untrusted. Separate
    /// from `core` so the expensive prepare work (delta decode, re-intern,
    /// lowering) never blocks the packet path, which only locks `core` to
    /// resolve views.
    mirror: Mutex<Option<Mirror>>,
    core: Mutex<AgentCore>,
    store: StateShards,
    egress: EgressQueues,
    stats: AgentStats,
    /// Emulated control-network RTT (see [`SwitchAgent::with_ack_delay`]).
    ack_delay: Option<Duration>,
}

impl SwitchAgent {
    /// An agent for one switch, with egress queues over its external ports
    /// bounded at `queue_capacity`.
    pub fn new(
        switch: SwitchId,
        name: impl Into<String>,
        ports: impl IntoIterator<Item = PortId>,
        queue_capacity: usize,
    ) -> SwitchAgent {
        SwitchAgent {
            switch,
            name: name.into(),
            mirror: Mutex::new(None),
            core: Mutex::new(AgentCore {
                current: None,
                views: BTreeMap::new(),
                pending: None,
                meta: SwitchMeta::default(),
                placement: Arc::new(BTreeMap::new()),
            }),
            store: StateShards::new(DEFAULT_STATE_SHARDS),
            egress: EgressQueues::new(ports, queue_capacity),
            stats: AgentStats::default(),
            ack_delay: None,
        }
    }

    /// Hold every reply until `delay` after the agent handled its message —
    /// an emulated control-network RTT, so that benchmarks and soak runs
    /// measure fan-out against realistic per-agent latency, not loopback
    /// time. [`SwitchAgent::run`] sleeps before it replies; an in-process
    /// host defers the reply and goes on handling its other agents'
    /// messages, so every agent's delay elapses at once.
    pub fn with_ack_delay(mut self, delay: Duration) -> SwitchAgent {
        self.ack_delay = Some(delay);
        self
    }

    /// The emulated RTT this agent's replies wait for, if any.
    pub(crate) fn ack_delay(&self) -> Option<Duration> {
        self.ack_delay
    }

    /// The switch this agent manages.
    pub fn switch(&self) -> SwitchId {
        self.switch
    }

    /// The switch's display name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The agent's sharded state plane.
    pub fn store(&self) -> &StateShards {
        &self.store
    }

    /// The agent's per-port egress queues.
    pub fn egress(&self) -> &EgressQueues {
        &self.egress
    }

    /// The agent's counters.
    pub fn stats(&self) -> &AgentStats {
        &self.stats
    }

    /// The number of nodes in the agent's mirror pool (0 before a sync).
    pub fn mirror_len(&self) -> usize {
        self.mirror.lock().as_ref().map_or(0, Mirror::len)
    }

    /// The running configuration, if any epoch has committed.
    pub fn current_view(&self) -> Option<Arc<EpochView>> {
        self.core.lock().current.clone()
    }

    /// Resolve the view for a specific epoch: a committed one from the
    /// history ring, or the staged one mid-commit (a packet stamped with the
    /// new epoch proves every agent prepared it; see the module docs).
    pub fn view_for(&self, epoch: u64) -> Option<Arc<EpochView>> {
        let core = self.core.lock();
        if let Some(view) = core.views.get(&epoch) {
            return Some(Arc::clone(view));
        }
        core.pending
            .as_ref()
            .filter(|p| p.view.epoch == epoch)
            .map(|p| Arc::clone(&p.view))
    }

    /// Handle one controller message, producing any replies: the agent's one
    /// message handler. [`SwitchAgent::run`] loops around it for an agent
    /// with an endpoint of its own, the in-process hosts call it for each
    /// agent they hold ([`crate::deploy_in_process`]), and tests drive an
    /// agent with it synchronously.
    pub fn handle(&self, msg: ToAgent) -> Vec<FromAgent> {
        match msg {
            ToAgent::Prepare(prep) => vec![self.prepare(*prep)],
            ToAgent::Commit { epoch } => self.commit(epoch).into_iter().collect(),
            ToAgent::Abort { epoch } => {
                let mut core = self.core.lock();
                if core.pending.as_ref().is_some_and(|p| p.view.epoch == epoch) {
                    core.pending = None;
                    self.stats.aborts.fetch_add(1, Ordering::Relaxed);
                }
                Vec::new()
            }
            ToAgent::InstallTable { epoch, var, table } => {
                match self.store.remove_var(&var) {
                    None => self.store.insert_table(var.clone(), table),
                    Some(fresh) => {
                        // New-epoch packets may already have written
                        // this variable here before the migrated table
                        // arrived; those entries are newer and win,
                        // the migrated history fills in the rest.
                        // (Read-modify-write entries touched in the
                        // window still lose the migrated base — see the
                        // migration caveat in the controller docs.)
                        let mut merged = table;
                        for (index, value) in fresh.iter() {
                            merged.set(index.clone(), value.clone());
                        }
                        self.store.insert_table(var.clone(), merged);
                    }
                }
                self.stats.tables_installed.fetch_add(1, Ordering::Relaxed);
                vec![FromAgent::Installed {
                    switch: self.switch,
                    epoch,
                    var,
                }]
            }
            ToAgent::Shutdown => Vec::new(),
        }
    }

    /// The message loop of an agent with an endpoint of its own — a TCP
    /// connection, as one agent process holds ([`crate::deploy_tcp`]), or a
    /// hand-built [`crate::channel_link`]: receive, handle, reply, until
    /// `Shutdown` or a dead transport.
    pub fn run(self: Arc<Self>, endpoint: impl AgentEndpoint) {
        loop {
            let msg = match endpoint.recv() {
                Ok(msg) => msg,
                Err(_) => return,
            };
            let shutdown = matches!(msg, ToAgent::Shutdown);
            let replies = self.handle(msg);
            if let (Some(delay), false) = (self.ack_delay, replies.is_empty()) {
                std::thread::sleep(delay);
            }
            for reply in replies {
                if endpoint.send(reply).is_err() {
                    return;
                }
            }
            if shutdown {
                return;
            }
        }
    }

    fn prepare(&self, prep: PrepareMsg) -> FromAgent {
        let fail = |stats: &AgentStats, reason: String| {
            stats.prepare_failures.fetch_add(1, Ordering::Relaxed);
            FromAgent::PrepareFailed {
                switch: self.switch,
                epoch: prep.epoch,
                reason,
            }
        };

        // All the expensive staging work — delta decode, re-interning,
        // lowering — happens under the *mirror* lock only; the packet path
        // resolves views through `core` and is never blocked by it.
        let mut guard = self.mirror.lock();
        let before = if prep.resync {
            0
        } else {
            guard.as_ref().map_or(0, Mirror::len)
        };
        let root = if prep.resync {
            match Mirror::decode_fresh(&prep.delta) {
                Ok((mirror, root)) => {
                    *guard = Some(mirror);
                    self.stats.resyncs.fetch_add(1, Ordering::Relaxed);
                    root
                }
                Err(e) => return fail(&self.stats, format!("resync rejected: {e}")),
            }
        } else {
            let Some(mirror) = guard.as_mut() else {
                return fail(&self.stats, "no mirror: agent was never synced".into());
            };
            match mirror.apply_delta(&prep.delta) {
                Ok(root) => root,
                Err(e) => {
                    // A failed apply may have left partial suffix nodes
                    // behind; drop the mirror (pool and payloads together)
                    // so the controller resyncs.
                    *guard = None;
                    return fail(&self.stats, format!("delta rejected: {e}"));
                }
            }
        };
        let mirror = guard.as_ref().expect("mirror just (re)built");
        let new_nodes = (mirror.len() - before) as u64;

        // The view, here in prepare: commit must be a pointer flip. The
        // mirror lowered the delta's nodes as they arrived, so this is a
        // handle to its table and the root.
        let flat = Arc::new(mirror.flatten(root));
        drop(guard);

        let mut core = self.core.lock();
        let meta = prep.meta.unwrap_or_else(|| core.meta.clone());
        let placement = match prep.placement {
            Some(p) => Arc::new(p),
            None => Arc::clone(&core.placement),
        };
        let view = Arc::new(EpochView {
            epoch: prep.epoch,
            bindings: bind_slots(&flat, &meta.local_vars, &placement, &self.store),
            ports: meta.ports.into_iter().collect(),
            flat,
            local_vars: meta.local_vars,
            placement,
        });
        core.pending = Some(Pending { view });
        self.stats.prepares.fetch_add(1, Ordering::Relaxed);
        self.stats
            .delta_bytes
            .fetch_add(prep.delta.len() as u64, Ordering::Relaxed);
        self.stats
            .nodes_appended
            .fetch_add(new_nodes, Ordering::Relaxed);
        FromAgent::Prepared {
            switch: self.switch,
            epoch: prep.epoch,
            new_nodes,
        }
    }

    fn commit(&self, epoch: u64) -> Option<FromAgent> {
        let mut core = self.core.lock();
        let pending = core.pending.take()?;
        if pending.view.epoch != epoch {
            // A stray commit for some other epoch: put the staged update
            // back and ignore.
            core.pending = Some(pending);
            return None;
        }
        let view = pending.view;
        core.meta = SwitchMeta {
            local_vars: view.local_vars.clone(),
            ports: view.ports.iter().copied().collect(),
        };
        core.placement = Arc::clone(&view.placement);
        core.views.insert(epoch, Arc::clone(&view));
        while core.views.len() > EPOCH_HISTORY {
            let oldest = *core.views.keys().next().expect("non-empty");
            core.views.remove(&oldest);
        }
        core.current = Some(Arc::clone(&view));
        drop(core);

        // Yield the tables of variables this switch no longer owns — the
        // "state moves with its owner" half of the consistent update. The
        // store, not a controller-computed release list, is authoritative:
        // this also evicts tables stranded by an earlier failed update, so
        // stale state can never silently resurface on a later re-placement.
        let mut yields = Vec::new();
        let to_yield: Vec<StateVar> = self
            .store
            .variables()
            .into_iter()
            .filter(|v| !view.local_vars.contains(v))
            .collect();
        for var in to_yield {
            if let Some(table) = self.store.remove_var(&var) {
                yields.push((var, table));
            }
        }
        self.stats.commits.fetch_add(1, Ordering::Relaxed);
        Some(FromAgent::Committed {
            switch: self.switch,
            epoch,
            yields,
        })
    }
}
