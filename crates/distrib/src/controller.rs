//! The distribution controller: turns each recompile into per-switch wire
//! deltas and drives the two-phase epoch commit across the agents.
//!
//! The controller owns a [`CompilerSession`] and an **append-only
//! distribution pool**. After every recompile it imports the freshly
//! compiled diagram into that pool — hash-consing makes the import dedupe
//! against everything ever shipped, so the pool grows by exactly the
//! *structurally new* nodes of the update — and ships each agent the
//! node-table suffix past what that agent already mirrors
//! ([`snap_xfdd::encode_delta`]). Each agent's link is the one record of
//! what that agent runs: the compilation it last committed. Metadata (owned
//! variables, ports) and the placement go to an agent only where they
//! differ from that commit; the agent carries everything else forward. A
//! working-set edit therefore costs a few nodes on the wire; a rollback
//! costs a zero-node delta carrying just the old root.
//!
//! **Commit invariant.** An update is distributed in two phases: `Prepare`
//! to every agent (stage mirror + flattened view; running config untouched),
//! then — only after *every* agent acknowledged — `Commit` to every agent
//! (pointer flip + yield of migrated state tables). Packets are stamped with
//! their ingress epoch and resolve that epoch's view at every hop, and a
//! packet can only be stamped with the new epoch after some agent committed
//! it, which the controller only orders once all agents hold the staged
//! view. Hence no packet ever mixes two epochs, even though the flip
//! reaches agents one message at a time. If any prepare fails, the whole
//! epoch is aborted and no agent flips.
//!
//! **Eager-migration caveat** (the one place it is written down). State
//! tables move *at commit*, while packets of both epochs may still be in
//! flight, so an update that moves a variable's owner has a window in both
//! directions: (a) a packet of the *old* epoch that reaches the old owner
//! after its table was yielded writes into a fresh table and is orphaned,
//! and (b) a packet of the *new* epoch that reaches the new owner before
//! its `InstallTable` arrives starts a fresh entry — the install merges
//! around such entries (newer writes win) under one hold of the store lock
//! rather than replacing them, but a
//! read-modify-write in that window still misses the migrated base value.
//! A variable the new program no longer places has its yielded table
//! dropped, so re-placing the name later deterministically starts fresh.
//! Placement-stable updates (the session reuses placement whenever mapping
//! and dependencies are unchanged) have no such window; controllers that
//! need exactly-once state transfer under live traffic keep placement
//! stable or quiesce injection around an owner move.
//!
//! **Concurrent fan-out.** One update is in flight at a time, in three
//! steps: prepare, commit, then the table installs that relay yielded
//! state. Each step sends to every agent first; every agent reply arrives
//! on one shared channel (the reply mux, [`ReplyTx`]) and is consumed in
//! *arrival order* by one collector, routed by `(step, epoch, key)` — the
//! key being the switch, plus the variable for an install. A straggler at
//! the front of the agent map does not block reading everyone else's
//! already-queued acks, per-agent timings are stamped at reply arrival, one
//! deadline covers the whole step instead of compounding per agent, and a
//! repeated ack, a straggler from an earlier step or an ack of a burned
//! epoch is discarded by key (counted in [`MuxStats`]).

use crate::transport::{
    reply_channel, ControllerEndpoint, FromAgent, PrepareMsg, ReplyRx, ReplyTx, ToAgent,
    TransportError,
};
use snap_core::Compiled;
use snap_lang::{Policy, StateTable, StateVar};
use snap_session::CompilerSession;
use snap_telemetry::{AgentTimings, CommitEvent, Telemetry};
use snap_topology::{NodeId as SwitchId, TrafficMatrix};
use snap_xfdd::{encode_delta, CompileError, NodeId, Pool};
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::sync::{Arc, Weak};
use std::time::{Duration, Instant};

/// Errors surfaced by the distribution plane.
#[derive(Debug)]
pub enum DistribError {
    /// The session rejected the policy.
    Compile(CompileError),
    /// A transport operation against an agent failed.
    Transport {
        /// The agent's switch name.
        switch: String,
        /// The underlying failure.
        error: TransportError,
    },
    /// An agent refused to stage the update; the epoch was aborted
    /// everywhere and no configuration changed.
    PrepareRejected {
        /// The rejecting switch name.
        switch: String,
        /// The agent's reason.
        reason: String,
    },
    /// An agent replied out of protocol.
    Protocol {
        /// The offending switch name.
        switch: String,
        /// What was received.
        unexpected: String,
    },
}

impl fmt::Display for DistribError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DistribError::Compile(e) => write!(f, "compilation failed: {e:?}"),
            DistribError::Transport { switch, error } => {
                write!(f, "transport to {switch} failed: {error}")
            }
            DistribError::PrepareRejected { switch, reason } => {
                write!(f, "{switch} rejected prepare: {reason}")
            }
            DistribError::Protocol { switch, unexpected } => {
                write!(f, "{switch} broke protocol: {unexpected}")
            }
        }
    }
}

impl std::error::Error for DistribError {}

impl From<CompileError> for DistribError {
    fn from(e: CompileError) -> Self {
        DistribError::Compile(e)
    }
}

/// Tunables of a [`Controller`].
#[derive(Clone, Debug)]
pub struct DistribOptions {
    /// Transport timeout covering one whole phase (all agents' prepare acks,
    /// or all commit acks, or all table installs) — it does not compound per
    /// agent, so the worst case is one timeout per phase, not N.
    pub timeout: Duration,
    /// Auto-compaction policy for the append-only distribution pool: after
    /// a successful commit, if the pool holds more than `compact_threshold`
    /// times the live program's node count, the controller compacts the
    /// pool down to the live program ([`Controller::compact_distribution`])
    /// and schedules a full-table resync of every mirror on the next
    /// update. In-flight packets keep their tags valid throughout: agents
    /// serve their existing (old-numbering) views until the resync commits,
    /// and the resync preserves the fresh pool's exact numbering. `None`
    /// disables auto-compaction.
    pub compact_threshold: Option<usize>,
}

impl Default for DistribOptions {
    fn default() -> Self {
        DistribOptions {
            timeout: Duration::from_secs(5),
            compact_threshold: None,
        }
    }
}

/// What one distributed commit did — the numbers behind the delta-shipping
/// story.
#[derive(Clone, Debug)]
pub struct CommitReport {
    /// The committed distribution epoch.
    pub epoch: u64,
    /// Structurally new nodes this update added to the distribution pool.
    pub new_nodes: usize,
    /// Bytes of the suffix delta shipped to each in-sync agent. When
    /// `resyncs > 0`, those agents received `resync_bytes` instead — this
    /// field alone understates the shipped total on resync updates.
    pub delta_bytes: usize,
    /// Bytes of the full-table payload of the frozen program (its delta
    /// from a fresh pool) — what resyncing a fresh agent with just this
    /// compilation would cost, and the delta's baseline.
    pub full_bytes: usize,
    /// Agents that needed a full-table resync instead of the suffix.
    pub resyncs: usize,
    /// Bytes of the full-table resync payload each resyncing agent
    /// received (0 when no agent resynced).
    pub resync_bytes: usize,
    /// Switches whose metadata (owned variables / ports) was re-shipped.
    pub meta_shipped: usize,
    /// State tables migrated between owners at commit.
    pub migrated_tables: usize,
    /// Nodes reclaimed by the auto-compaction that ran after this commit
    /// (0 when the pool was under threshold or auto-compaction is off).
    pub compacted_nodes: usize,
    /// Wall-clock spent in the prepare phase (all agents staged).
    pub prepare_time: Duration,
    /// Wall-clock spent in the commit phase (all agents flipped, tables
    /// migrated).
    pub commit_time: Duration,
}

impl CommitReport {
    /// Delta payload size as a fraction of the full-table payload.
    pub fn delta_ratio(&self) -> f64 {
        self.delta_bytes as f64 / self.full_bytes.max(1) as f64
    }
}

/// One attached agent, and the controller's only record of what it runs.
struct AgentLink {
    switch: SwitchId,
    name: String,
    endpoint: Box<dyn ControllerEndpoint>,
    /// Mirror length after the agent's last successful prepare; `None` when
    /// the mirror is unknown (never synced, or diverged) and the next update
    /// must resync it.
    mirrored: Option<usize>,
    /// The compilation this agent last committed: the baseline its metadata
    /// and placement are compared against. `None` before its first commit
    /// and after a failed commit step. A prepare abort leaves it as is —
    /// agents keep running what they committed.
    committed: Option<Arc<Compiled>>,
}

/// Reply-mux bookkeeping: messages that arrived on the shared channel but
/// matched no outstanding expectation and were discarded by key.
#[derive(Clone, Copy, Debug, Default)]
pub struct MuxStats {
    /// Replies carrying an epoch older than the one being distributed —
    /// acks of a burned epoch that arrived after its abort or deadline, or
    /// repeats of an already-committed epoch's acks.
    pub stale: u64,
    /// Replies of the epoch being distributed that were already consumed:
    /// a repeated ack, or a straggler from an earlier step.
    pub duplicates: u64,
}

/// The steps of one epoch's distribution, in protocol order.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
enum Step {
    Prepare,
    Commit,
    Install,
}

/// What one reply is an ack for: its switch, plus the variable for an
/// install.
type AckKey = (SwitchId, Option<StateVar>);

/// One step of one epoch, collected in ack-arrival order by
/// [`Controller::collect`].
struct Phase {
    step: Step,
    epoch: u64,
    expect: BTreeSet<AckKey>,
    consumed: BTreeSet<AckKey>,
    /// (agent, micros from fan-out start to ack arrival), arrival order.
    acks: Vec<(SwitchId, u64)>,
    /// Tables released by committing agents, for the install step.
    yields: Vec<(StateVar, StateTable)>,
    started: Instant,
    failure: Option<DistribError>,
}

impl Phase {
    fn new(step: Step, epoch: u64, expect: BTreeSet<AckKey>) -> Phase {
        Phase {
            step,
            epoch,
            expect,
            consumed: BTreeSet::new(),
            acks: Vec::new(),
            yields: Vec::new(),
            started: Instant::now(),
            failure: None,
        }
    }
}

/// What the controller remembers about a compilation it has imported into
/// the distribution pool, so shipping the same compilation again (a
/// working-set flip, a rollback) neither re-imports nor re-encodes it.
struct Shipped {
    /// Identity of the compilation. Weak: the memo must not keep versions
    /// alive that the session evicted, and while the weak handle exists the
    /// allocation's address cannot be reused, so pointer equality with a
    /// live `Arc` is identity.
    compiled: Weak<Compiled>,
    /// Its root in the distribution pool's *current* numbering.
    root: NodeId,
    /// Size of its full-table payload (the delta's baseline statistic).
    full_bytes: usize,
}

/// How many shipped compilations the controller remembers — comfortably
/// more than a session keeps versions, so every flip a session can answer
/// from its version cache is also a flip here.
const SHIPPED_MEMO_CAP: usize = 16;

/// The distribution controller (see the module docs).
pub struct Controller {
    session: CompilerSession,
    /// The append-only distribution pool every agent mirrors.
    dist: Pool,
    /// Length of a fresh pool under the current variable order (the resync
    /// base).
    fresh_len: usize,
    epoch: u64,
    agents: BTreeMap<SwitchId, AgentLink>,
    /// Recently shipped compilations, oldest first (bounded by
    /// [`SHIPPED_MEMO_CAP`]). Roots are only meaningful in the current
    /// distribution pool, so the memo is cleared whenever that pool is
    /// replaced (variable-order reset, compaction).
    shipped: Vec<Shipped>,
    options: DistribOptions,
    /// Where commit events (prepare/commit/abort/compaction, with payload
    /// sizes and per-agent ack timings) are logged; shared with the data
    /// plane by the deployment helpers so one snapshot covers both.
    telemetry: Option<Telemetry>,
    /// The shared reply channel every agent link funnels into.
    reply_tx: ReplyTx,
    reply_rx: ReplyRx,
    mux: MuxStats,
}

impl Controller {
    /// A controller around a compiler session, with no agents attached yet.
    pub fn new(session: CompilerSession) -> Controller {
        let dist = Pool::new(snap_xfdd::VarOrder::empty());
        let fresh_len = dist.len();
        let (reply_tx, reply_rx) = reply_channel();
        Controller {
            session,
            dist,
            fresh_len,
            epoch: 0,
            agents: BTreeMap::new(),
            shipped: Vec::new(),
            options: DistribOptions::default(),
            telemetry: None,
            reply_tx,
            reply_rx,
            mux: MuxStats::default(),
        }
    }

    /// The sending half of this controller's reply mux: clone one into
    /// every agent link (`channel_link`) or socket reader so agent replies
    /// reach the controller.
    pub fn reply_sender(&self) -> ReplyTx {
        self.reply_tx.clone()
    }

    /// Reply-mux discard counters (stale / duplicate acks).
    pub fn mux_stats(&self) -> MuxStats {
        self.mux
    }

    /// Log commit events (and the session's compile counters) into
    /// `telemetry`. Events cost nothing per packet — they are recorded at
    /// control-plane rate, once per distribute call.
    pub fn with_telemetry(mut self, telemetry: Telemetry) -> Controller {
        self.session.set_telemetry(telemetry.clone());
        self.telemetry = Some(telemetry);
        self
    }

    /// The controller's telemetry instance, if any.
    pub fn telemetry(&self) -> Option<&Telemetry> {
        self.telemetry.as_ref()
    }

    fn record_event(&self, event: CommitEvent) {
        if let Some(t) = &self.telemetry {
            t.events().record(event);
        }
    }

    /// Publish the distribution pool's size as the `pool.distribution_nodes`
    /// gauge — called whenever the pool grows (import) or shrinks
    /// (compaction), i.e. at control-plane rate, so the name lookup is fine.
    fn update_pool_gauge(&self) {
        if let Some(t) = &self.telemetry {
            t.registry()
                .gauge("pool.distribution_nodes")
                .set(self.dist.len() as i64);
        }
    }

    /// Replace the controller's tunables (timeout, auto-compaction policy).
    pub fn with_options(mut self, options: DistribOptions) -> Controller {
        self.options = options;
        self
    }

    /// Attach an agent for a switch. The first update it receives is a full
    /// resync. A switch outside the session's topology — say, the claim of
    /// a peer's hello frame — is refused with [`DistribError::Protocol`] and
    /// its endpoint dropped.
    pub fn attach(
        &mut self,
        switch: SwitchId,
        endpoint: Box<dyn ControllerEndpoint>,
    ) -> Result<(), DistribError> {
        let topology = self.session.topology();
        if switch.0 >= topology.num_nodes() {
            return Err(DistribError::Protocol {
                switch: format!("switch-{}", switch.0),
                unexpected: format!(
                    "a hello for a switch outside the {}-switch topology",
                    topology.num_nodes()
                ),
            });
        }
        let name = topology.node_name(switch).to_string();
        self.agents.insert(
            switch,
            AgentLink {
                switch,
                name,
                endpoint,
                mirrored: None,
                committed: None,
            },
        );
        Ok(())
    }

    /// The wrapped compiler session.
    pub fn session(&self) -> &CompilerSession {
        &self.session
    }

    /// The current distribution epoch (0 = nothing committed yet).
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Number of attached agents.
    pub fn agent_count(&self) -> usize {
        self.agents.len()
    }

    /// Nodes accumulated in the append-only distribution pool.
    pub fn dist_pool_len(&self) -> usize {
        self.dist.len()
    }

    /// Compile a policy update and distribute it to every agent as a
    /// two-phase delta commit. Returns the commit report, or an error if
    /// compilation, staging or transport failed (on staging failure the
    /// epoch was aborted everywhere and the previous configuration keeps
    /// running).
    pub fn update_policy(&mut self, policy: &Policy) -> Result<CommitReport, DistribError> {
        let compiled = self.session.compile(policy)?;
        self.distribute(compiled)
    }

    /// React to a traffic-matrix change and distribute the re-routed
    /// result. `Ok(None)` when nothing has been compiled yet.
    pub fn update_traffic(
        &mut self,
        traffic: TrafficMatrix,
    ) -> Result<Option<CommitReport>, DistribError> {
        match self.session.update_traffic(traffic) {
            Some(compiled) => self.distribute(compiled).map(Some),
            None => Ok(None),
        }
    }

    /// Tell every agent to stop its message loop.
    pub fn shutdown(&mut self) {
        for link in self.agents.values() {
            let _ = link.endpoint.send(ToAgent::Shutdown);
        }
    }

    /// Distribute one compilation as a two-phase commit and wait for it to
    /// finish everywhere: prepare on every agent, commit on every agent,
    /// relay the tables the commit yielded to their new owners, and return
    /// the report (see [`Self::update_policy`]).
    fn distribute(&mut self, compiled: Arc<Compiled>) -> Result<CommitReport, DistribError> {
        let xfdd = &compiled.xfdd;

        // A changed state-variable order invalidates every mirror: the
        // interned diagrams were composed under the old test order. Reset
        // the distribution pool and resync everyone.
        if xfdd.pool().order() != self.dist.order() {
            self.dist = Pool::new(xfdd.pool().order().clone());
            self.fresh_len = self.dist.len();
            self.shipped.clear();
            for link in self.agents.values_mut() {
                link.mirrored = None;
            }
        }

        // Import dedupes against everything ever shipped: the suffix past
        // `base` is exactly the structurally new part of this update. A
        // compilation shipped before is already in the pool, root known.
        let base = self.dist.len();
        let remembered = self
            .shipped
            .iter()
            .find(|s| std::ptr::eq(s.compiled.as_ptr(), Arc::as_ptr(&compiled)))
            .map(|s| (s.root, s.full_bytes));
        let (root, full_bytes) = match remembered {
            Some(hit) => hit,
            None => {
                let root = self.dist.import(xfdd.pool(), xfdd.root());
                self.update_pool_gauge();
                let full_bytes = encode_delta(xfdd.pool(), self.fresh_len, xfdd.root()).len();
                self.shipped.retain(|s| s.compiled.strong_count() > 0);
                if self.shipped.len() >= SHIPPED_MEMO_CAP {
                    self.shipped.remove(0);
                }
                self.shipped.push(Shipped {
                    compiled: Arc::downgrade(&compiled),
                    root,
                    full_bytes,
                });
                (root, full_bytes)
            }
        };
        let new_nodes = self.dist.len() - base;
        // The epoch number is burned up front, success or failure: once any
        // Prepare (let alone Commit) may have reached an agent, replies and
        // staged views for this number can exist out there, and reusing it
        // for a different configuration would let a stale reply be taken
        // for a fresh one (or, after a partial commit, break the
        // one-epoch-per-packet invariant outright). Stale replies from a
        // failed update always carry a smaller epoch than any later one and
        // are discarded by `collect`.
        let epoch = self.epoch + 1;
        self.epoch = epoch;

        // One payload per distinct mirror state: in-sync agents share the
        // suffix delta, diverged/fresh agents get the full table.
        let delta = encode_delta(&self.dist, base, root);
        let mut resync_payload: Option<Vec<u8>> = None;

        // -- Phase one: prepare everywhere. --------------------------------
        // Metadata and placement go to an agent only where they differ from
        // what that agent last committed (everything, to a resyncing one);
        // it carries the rest forward from its running view.
        let switches = &compiled.rules.switches;
        let placement = &compiled.placement.placement;
        let mut prep = Phase::new(Step::Prepare, epoch, self.all_agents());
        let mut resyncs = 0usize;
        let mut meta_shipped = 0usize;
        let mut send_failure: Option<DistribError> = None;
        for link in self.agents.values_mut() {
            let resync = link.mirrored != Some(base);
            let payload = if resync {
                resyncs += 1;
                resync_payload
                    .get_or_insert_with(|| encode_delta(&self.dist, self.fresh_len, root))
                    .clone()
            } else {
                delta.clone()
            };
            let running = link.committed.as_ref().filter(|_| !resync);
            let meta = switches.get(&link.switch);
            let ship_meta = running.is_none_or(|c| c.rules.switches.get(&link.switch) != meta);
            if ship_meta {
                meta_shipped += 1;
            }
            let ship_placement = running.is_none_or(|c| c.placement.placement != *placement);
            let msg = PrepareMsg {
                epoch,
                resync,
                delta: payload,
                meta: ship_meta.then(|| meta.cloned().unwrap_or_default()),
                placement: ship_placement.then(|| placement.clone()),
            };
            if let Err(error) = link.endpoint.send(ToAgent::Prepare(Box::new(msg))) {
                // The agent's state is unknown (its transport just died
                // mid-protocol): mark it for resync and fail the update.
                link.mirrored = None;
                send_failure = Some(DistribError::Transport {
                    switch: link.name.clone(),
                    error,
                });
                break;
            }
        }
        if let Some(err) = send_failure {
            // Abort the (burned) epoch everywhere and bail without
            // collecting replies — any already-queued Prepared acks carry
            // this epoch and will be discarded by the reply mux as stale.
            return Err(self.abort(epoch, err));
        }

        self.collect(&mut prep);
        if let Some(err) = prep.failure {
            // Nobody flips: the previous epoch keeps running on every switch
            // (the burned epoch number is simply skipped).
            return Err(self.abort(epoch, err));
        }
        let prepare_time = prep.started.elapsed();
        self.record_event(CommitEvent::Prepare {
            epoch,
            agents: self.agents.len(),
            resyncs,
            delta_bytes: delta.len(),
            resync_bytes: resync_payload.as_ref().map_or(0, Vec::len),
            micros: prepare_time.as_micros() as u64,
            per_agent: AgentTimings::from_acks(self.named(prep.acks)),
        });
        if let Some(t) = &self.telemetry {
            t.registry()
                .histogram("commit.prepare_us")
                .record(prepare_time.as_micros() as u64);
        }

        // -- Phase two: flip everywhere. If the commit fails partway, some
        // agent already holds a committed view for `epoch` (which is why the
        // number was burned up front); recovery is conservative: resync
        // everyone and re-ship all metadata on the next update.
        let mut commit = Phase::new(Step::Commit, epoch, self.all_agents());
        for link in self.agents.values_mut() {
            if let Err(error) = link.endpoint.send(ToAgent::Commit { epoch }) {
                // This agent never got the flip order: its config is now
                // behind, and it will not ack.
                commit.expect.remove(&(link.switch, None));
                link.mirrored = None;
                commit.failure.get_or_insert(DistribError::Transport {
                    switch: link.name.clone(),
                    error,
                });
            }
        }
        self.collect(&mut commit);

        // Relay yielded tables to their new owners, fanned out like any
        // other step. A variable the new program no longer places is dropped
        // (deterministic fresh start on re-placement).
        let migrated_tables = commit.yields.len();
        if commit.failure.is_none() {
            let mut install = Phase::new(Step::Install, epoch, BTreeSet::new());
            for (var, table) in std::mem::take(&mut commit.yields) {
                let Some(link) = placement.get(&var).and_then(|o| self.agents.get(o)) else {
                    continue;
                };
                let key = (link.switch, Some(var.clone()));
                match link
                    .endpoint
                    .send(ToAgent::InstallTable { epoch, var, table })
                {
                    Ok(()) => {
                        install.expect.insert(key);
                    }
                    Err(error) => {
                        install.failure.get_or_insert(DistribError::Transport {
                            switch: link.name.clone(),
                            error,
                        });
                    }
                }
            }
            self.collect(&mut install);
            commit.failure = install.failure;
        }
        if let Some(err) = commit.failure {
            // Some agents may have flipped, others not — the running fleet
            // is only trusted again after a full resync, and no link knows
            // what its agent runs until then. Yields inside a reply that
            // never arrived are unrecoverable here; the agents'
            // store-authoritative yield on the next commit re-homes anything
            // stranded on a switch.
            for link in self.agents.values_mut() {
                link.mirrored = None;
                link.committed = None;
            }
            self.record_event(CommitEvent::Abort {
                epoch,
                reason: err.to_string(),
            });
            return Err(err);
        }

        let commit_time = commit.started.elapsed();
        self.record_event(CommitEvent::Commit {
            epoch,
            migrated_tables,
            micros: commit_time.as_micros() as u64,
            per_agent: AgentTimings::from_acks(self.named(commit.acks)),
        });
        if let Some(t) = &self.telemetry {
            t.registry()
                .histogram("commit.commit_us")
                .record(commit_time.as_micros() as u64);
        }

        // Bookkeeping: the epoch is committed everywhere.
        for link in self.agents.values_mut() {
            link.committed = Some(Arc::clone(&compiled));
        }
        // Auto-compaction policy: the distribution pool is append-only, so
        // a long-lived controller accumulates every superseded generation.
        // Once the pool exceeds the configured multiple of the *live*
        // program's size, compact it down to the live program now — the
        // agents keep serving their existing views (packet tags stay valid;
        // views are immutable bundles over the old numbering) and the next
        // update resyncs every mirror against the renumbered pool.
        let mut compacted_nodes = 0;
        if let Some(factor) = self.options.compact_threshold {
            let mut live = 0usize;
            self.dist.visit_reachable([root], |_, _| {
                live += 1;
                true
            });
            if self.dist.len() > factor.max(1) * live.max(1) {
                compacted_nodes = self.compact_distribution();
                self.record_event(CommitEvent::Compaction {
                    epoch,
                    reclaimed: compacted_nodes,
                });
            }
        }

        Ok(CommitReport {
            epoch,
            new_nodes,
            delta_bytes: delta.len(),
            full_bytes,
            resyncs,
            resync_bytes: resync_payload.as_ref().map_or(0, Vec::len),
            meta_shipped,
            migrated_tables,
            compacted_nodes,
            prepare_time,
            commit_time,
        })
    }

    /// Abort a burned epoch before any agent committed it: every agent
    /// drops what it staged and keeps running the previous epoch, so every
    /// link's `committed` stays what it was. Returns `err` for the caller
    /// to surface.
    fn abort(&self, epoch: u64, err: DistribError) -> DistribError {
        for link in self.agents.values() {
            let _ = link.endpoint.send(ToAgent::Abort { epoch });
        }
        self.record_event(CommitEvent::Abort {
            epoch,
            reason: err.to_string(),
        });
        err
    }

    /// One expected ack per attached agent (prepare and commit steps).
    fn all_agents(&self) -> BTreeSet<AckKey> {
        self.agents.keys().map(|&switch| (switch, None)).collect()
    }

    /// Consume replies off the shared mux in arrival order until `phase`
    /// has every ack it expects, or its one deadline passes. This is the
    /// only place the controller waits for an agent. Each reply is
    /// consumed (an expected ack of this step), discarded and counted (a
    /// repeat of a consumed key or an earlier step's straggler of this
    /// epoch as a duplicate, any older epoch as stale), or recorded as a
    /// protocol failure. On timeout every still-missing mirror is marked
    /// for resync and the failure names the first missing agent.
    fn collect(&mut self, phase: &mut Phase) {
        let deadline = Instant::now() + self.options.timeout;
        while let Some(&(switch, _)) = phase.expect.first() {
            let remaining = deadline.saturating_duration_since(Instant::now());
            let msg = match self.reply_rx.recv_timeout(remaining) {
                Ok(msg) => msg,
                Err(error) => {
                    // Deadline (or the reply channel itself died).
                    phase.failure.get_or_insert(DistribError::Transport {
                        switch: self.agent_name(switch),
                        error,
                    });
                    for (switch, _) in &phase.expect {
                        if let Some(link) = self.agents.get_mut(switch) {
                            link.mirrored = None;
                        }
                    }
                    return;
                }
            };
            let (step, var) = match &msg {
                FromAgent::Prepared { .. } | FromAgent::PrepareFailed { .. } => {
                    (Step::Prepare, None)
                }
                FromAgent::Committed { .. } => (Step::Commit, None),
                FromAgent::Installed { var, .. } => (Step::Install, Some(var.clone())),
            };
            let key = (msg.switch(), var);
            if msg.epoch() < phase.epoch {
                self.mux.stale += 1;
            } else if msg.epoch() == phase.epoch && step == phase.step && phase.expect.remove(&key)
            {
                phase.consumed.insert(key);
                self.consume(phase, msg);
            } else if msg.epoch() == phase.epoch
                && (step < phase.step || phase.consumed.contains(&key))
            {
                self.mux.duplicates += 1;
            } else {
                let switch = msg.switch();
                if let Some(link) = self.agents.get_mut(&switch) {
                    link.mirrored = None;
                }
                phase.failure.get_or_insert(DistribError::Protocol {
                    switch: self.agent_name(switch),
                    unexpected: format!("{msg:?}"),
                });
            }
        }
    }

    /// Take in one expected ack of `phase`'s step.
    fn consume(&mut self, phase: &mut Phase, msg: FromAgent) {
        let us = phase.started.elapsed().as_micros() as u64;
        match msg {
            FromAgent::Prepared { switch, .. } => {
                if let Some(link) = self.agents.get_mut(&switch) {
                    link.mirrored = Some(self.dist.len());
                }
                phase.acks.push((switch, us));
                if let Some(t) = &self.telemetry {
                    t.registry().histogram("commit.prepare_ack_us").record(us);
                }
            }
            FromAgent::PrepareFailed { switch, reason, .. } => {
                if let Some(link) = self.agents.get_mut(&switch) {
                    link.mirrored = None;
                }
                phase.failure.get_or_insert(DistribError::PrepareRejected {
                    switch: self.agent_name(switch),
                    reason,
                });
            }
            FromAgent::Committed { switch, yields, .. } => {
                phase.acks.push((switch, us));
                phase.yields.extend(yields);
                if let Some(t) = &self.telemetry {
                    t.registry().histogram("commit.commit_ack_us").record(us);
                }
            }
            FromAgent::Installed { .. } => {}
        }
    }

    /// Arrival-order acks with the agents' display names, for a commit
    /// event: names are resolved once per phase, here, not once per ack.
    fn named(&self, acks: Vec<(SwitchId, u64)>) -> Vec<(String, u64)> {
        acks.into_iter()
            .map(|(switch, us)| (self.agent_name(switch), us))
            .collect()
    }

    fn agent_name(&self, switch: SwitchId) -> String {
        self.agents
            .get(&switch)
            .map(|l| l.name.clone())
            .unwrap_or_else(|| format!("switch-{}", switch.0))
    }

    /// Reset the distribution pool to only the currently shipped program and
    /// force a full resync of every agent on the next update — the GC valve
    /// for very long-lived controllers whose append-only pool has
    /// accumulated many superseded generations.
    pub fn compact_distribution(&mut self) -> usize {
        let Some(compiled) = self.session.current_shared() else {
            return 0;
        };
        let before = self.dist.len();
        let mut fresh = Pool::new(self.dist.order().clone());
        fresh.import(compiled.xfdd.pool(), compiled.xfdd.root());
        self.dist = fresh;
        self.fresh_len = Pool::new(self.dist.order().clone()).len();
        self.shipped.clear();
        for link in self.agents.values_mut() {
            link.mirrored = None;
        }
        self.update_pool_gauge();
        before.saturating_sub(self.dist.len())
    }
}
