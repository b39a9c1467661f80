//! The distribution controller: turns each recompile into per-switch wire
//! deltas and drives the two-phase epoch commit across the agents.
//!
//! The controller owns a [`CompilerSession`] and an **append-only
//! distribution pool**. After every recompile it imports the freshly
//! compiled diagram into that pool — hash-consing makes the import dedupe
//! against everything ever shipped, so the pool grows by exactly the
//! *structurally new* nodes of the update — and ships each agent the
//! node-table suffix past what that agent already mirrors
//! ([`snap_xfdd::encode_delta`]), plus only the per-switch metadata entries
//! that changed ([`snap_session::SwitchChanges`]). A working-set edit
//! therefore costs a few nodes on the wire; a rollback costs a zero-node
//! delta carrying just the old root.
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
//! around such entries (newer writes win) rather than replacing them, but a
//! read-modify-write in that window still misses the migrated base value.
//! A variable the new program no longer places has its yielded table
//! dropped, so re-placing the name later deterministically starts fresh.
//! Placement-stable updates (the session reuses placement whenever mapping
//! and dependencies are unchanged) have no such window; controllers that
//! need exactly-once state transfer under live traffic keep placement
//! stable or quiesce injection around an owner move.
//!
//! **Concurrent fan-out.** Sends go out per-link, but every agent reply
//! arrives on one shared channel (the reply mux, [`ReplyTx`]) and is
//! consumed in *arrival order*, routed by `(switch, epoch)`: a straggler at
//! the front of the agent map no longer blocks reading everyone else's
//! already-queued acks, per-agent timings are stamped at reply arrival, one
//! deadline covers the whole phase instead of compounding per agent, and
//! stale or duplicate acks from burned epochs are discarded by key (counted
//! in [`MuxStats`]). `InstallTable` migrations for independent variables fan
//! out the same way.
//!
//! **Pipelined epochs.** [`Controller::distribute_async`] stages epoch N+1
//! on every agent while epoch N's commit acks are still draining, and
//! [`Controller::flush`] completes whatever is in flight. The 2PC invariant
//! is untouched because per-link FIFO order already guarantees each agent
//! sees `Commit{N}` before `Prepare{N+1}`, agents hold an `EPOCH_HISTORY`
//! ring of views, and the controller never orders `Commit{N+1}` until epoch
//! N has fully finished (commit acks *and* table installs). A prepare
//! failure for N+1 aborts only N+1; an N-commit failure cascade-aborts the
//! staged N+1 — both numbers are burned.

use crate::transport::{
    reply_channel, ControllerEndpoint, FromAgent, PrepareMsg, ReplyRx, ReplyTx, SwitchMeta,
    ToAgent, TransportError,
};
use snap_core::Compiled;
use snap_lang::{Policy, StateTable, StateVar};
use snap_session::{CompilerSession, SessionUpdate};
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
    /// The session epoch the update came from.
    pub session_epoch: u64,
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
    /// How long this epoch's prepare fan-out overlapped the previous
    /// epoch's commit-ack drain — nonzero only on pipelined distributes
    /// ([`Controller::distribute_async`] back to back).
    pub pipeline_overlap: Duration,
}

impl CommitReport {
    /// Delta payload size as a fraction of the full-table payload.
    pub fn delta_ratio(&self) -> f64 {
        self.delta_bytes as f64 / self.full_bytes.max(1) as f64
    }
}

struct AgentLink {
    switch: SwitchId,
    name: String,
    endpoint: Box<dyn ControllerEndpoint>,
    /// Mirror length after the agent's last successful prepare; valid only
    /// when `needs_resync` is false.
    synced_len: usize,
    needs_resync: bool,
    /// Metadata last committed to this agent.
    meta: Option<SwitchMeta>,
}

/// Reply-mux bookkeeping: messages that arrived on the shared channel but
/// matched no outstanding expectation and were discarded by key.
#[derive(Clone, Copy, Debug, Default)]
pub struct MuxStats {
    /// Replies carrying an epoch older than every active one — acks of a
    /// burned epoch that arrived after the abort, or after their phase's
    /// deadline already passed.
    pub stale: u64,
    /// Replies from a switch whose ack for that phase was already consumed.
    pub duplicates: u64,
}

/// The prepare phase of one epoch, collected in ack-arrival order.
struct PrepCollect {
    epoch: u64,
    expect: BTreeSet<SwitchId>,
    consumed: BTreeSet<SwitchId>,
    /// (agent, micros from fan-out start to ack arrival), arrival order.
    acks: Vec<(SwitchId, u64)>,
    started: Instant,
    /// When the last prepare ack arrived (phase end, excluding any
    /// concurrent commit-ack drain time).
    finished: Instant,
    failure: Option<DistribError>,
}

/// A commit-ordered epoch whose acks may still be draining: everything
/// needed to finish it (collect `Committed`s, fan out table installs,
/// record events, finalize the report) after an arbitrary delay.
struct InFlight {
    epoch: u64,
    /// The epoch's root in the distribution pool (compaction liveness).
    root: NodeId,
    expect: BTreeSet<SwitchId>,
    consumed: BTreeSet<SwitchId>,
    /// (agent, micros from commit fan-out to ack arrival), arrival order.
    acks: Vec<(SwitchId, u64)>,
    yields: Vec<(StateVar, StateTable)>,
    placement: BTreeMap<StateVar, SwitchId>,
    meta_by_switch: BTreeMap<SwitchId, SwitchMeta>,
    started: Instant,
    /// When the most recent commit ack arrived (overlap measurement).
    last_ack: Instant,
    failure: Option<DistribError>,
    /// The report under construction; commit-phase fields are filled at
    /// completion.
    report: CommitReport,
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
    /// Set when a distribute failed: the session's change tracking can no
    /// longer be trusted as a baseline (it records every *taken* update,
    /// shipped or not), so the next update re-ships metadata and placement
    /// to everyone.
    dirty: bool,
    /// Recently shipped compilations, oldest first (bounded by
    /// [`SHIPPED_MEMO_CAP`]). Roots are only meaningful in the current
    /// distribution pool, so the memo is cleared whenever that pool is
    /// replaced (variable-order reset, compaction).
    shipped: Vec<Shipped>,
    options: DistribOptions,
    history: Vec<CommitReport>,
    /// Where commit events (prepare/commit/abort/compaction, with payload
    /// sizes and per-agent ack timings) are logged; shared with the data
    /// plane by the deployment helpers so one snapshot covers both.
    telemetry: Option<Telemetry>,
    /// The shared reply channel every agent link funnels into.
    reply_tx: ReplyTx,
    reply_rx: ReplyRx,
    /// The commit-ordered epoch whose acks are still draining, if any.
    in_flight: Option<InFlight>,
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
            dirty: false,
            shipped: Vec::new(),
            options: DistribOptions::default(),
            history: Vec::new(),
            telemetry: None,
            reply_tx,
            reply_rx,
            in_flight: None,
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

    /// The epoch whose commit acks are still draining, if a pipelined
    /// distribute is in flight.
    pub fn in_flight_epoch(&self) -> Option<u64> {
        self.in_flight.as_ref().map(|f| f.epoch)
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

    /// The controller's tunables.
    pub fn options(&self) -> &DistribOptions {
        &self.options
    }

    /// Attach an agent for a switch. The first update it receives is a full
    /// resync.
    pub fn attach(&mut self, switch: SwitchId, endpoint: Box<dyn ControllerEndpoint>) {
        let name = self.session.topology().node_name(switch).to_string();
        self.agents.insert(
            switch,
            AgentLink {
                switch,
                name,
                endpoint,
                synced_len: 0,
                needs_resync: true,
                meta: None,
            },
        );
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

    /// Reports of every committed update, oldest first.
    pub fn history(&self) -> &[CommitReport] {
        &self.history
    }

    /// Compile a policy update and distribute it to every agent as a
    /// two-phase delta commit. Returns the commit report, or an error if
    /// compilation, staging or transport failed (on staging failure the
    /// epoch was aborted everywhere and the previous configuration keeps
    /// running).
    pub fn update_policy(&mut self, policy: &Policy) -> Result<CommitReport, DistribError> {
        self.session.compile(policy)?;
        let update = self
            .session
            .take_update()
            .expect("successful compile yields an update");
        self.distribute(update)
    }

    /// Pipelined variant of [`Self::update_policy`]: stage and
    /// commit-order this update without waiting for its commit acks (see
    /// [`Self::distribute_async`]). Returns the reports of any *previous*
    /// epochs completed during the call.
    pub fn update_policy_async(
        &mut self,
        policy: &Policy,
    ) -> Result<Vec<CommitReport>, DistribError> {
        self.session.compile(policy)?;
        let update = self
            .session
            .take_update()
            .expect("successful compile yields an update");
        self.distribute_async(update)
    }

    /// React to a traffic-matrix change and distribute the re-routed
    /// result. `Ok(None)` when nothing has been compiled yet.
    pub fn update_traffic(
        &mut self,
        traffic: TrafficMatrix,
    ) -> Result<Option<CommitReport>, DistribError> {
        if self.session.update_traffic(traffic).is_none() {
            return Ok(None);
        }
        let update = self
            .session
            .take_update()
            .expect("reroute yields an update");
        self.distribute(update).map(Some)
    }

    /// Tell every agent to stop its message loop (completing any in-flight
    /// pipelined commit first).
    pub fn shutdown(&mut self) {
        let _ = self.flush();
        for link in self.agents.values() {
            let _ = link.endpoint.send(ToAgent::Shutdown);
        }
    }

    /// Distribute one session update and wait for it to commit everywhere
    /// (see [`Self::update_policy`]): [`Self::distribute_async`] followed by
    /// [`Self::flush`].
    pub fn distribute(&mut self, update: SessionUpdate) -> Result<CommitReport, DistribError> {
        self.distribute_async(update)?;
        let mut reports = self.flush()?;
        Ok(reports.pop().expect("flush completes the staged epoch"))
    }

    /// Stage this update on every agent, wait for the prepare acks, and
    /// *order* the commit — without waiting for the commit acks. Back-to-back
    /// calls pipeline: while this epoch's prepare fan-out runs, the previous
    /// epoch's commit acks drain off the same reply mux, and the previous
    /// epoch is fully finished (acks, table installs, report) before this
    /// one's commit is ordered. Returns the reports of epochs *completed*
    /// during the call (at most one); [`Self::flush`] completes the epoch
    /// this call leaves in flight.
    ///
    /// Failure semantics preserve the 2PC invariant: a prepare failure for
    /// this epoch aborts only this epoch (the previous one still completes
    /// into [`Self::history`]); a commit failure of the *previous* epoch
    /// cascade-aborts this staged epoch, since its base configuration is now
    /// unknown — both numbers are burned and every mirror resyncs.
    pub fn distribute_async(
        &mut self,
        update: SessionUpdate,
    ) -> Result<Vec<CommitReport>, DistribError> {
        let xfdd = &update.compiled.xfdd;

        // A changed state-variable order invalidates every mirror: the
        // interned diagrams were composed under the old test order. Finish
        // anything in flight, then reset the distribution pool and resync
        // everyone.
        if xfdd.pool().order() != self.dist.order() {
            self.flush()?;
            self.dist = Pool::new(xfdd.pool().order().clone());
            self.fresh_len = self.dist.len();
            self.shipped.clear();
            for link in self.agents.values_mut() {
                link.needs_resync = true;
            }
        }

        // Import dedupes against everything ever shipped: the suffix past
        // `base` is exactly the structurally new part of this update. A
        // compilation shipped before is already in the pool, root known.
        let base = self.dist.len();
        let remembered = self
            .shipped
            .iter()
            .find(|s| std::ptr::eq(s.compiled.as_ptr(), Arc::as_ptr(&update.compiled)))
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
                    compiled: Arc::downgrade(&update.compiled),
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
        // are discarded by `recv_reply`.
        let epoch = self.epoch + 1;
        self.epoch = epoch;

        // One payload per distinct mirror state: in-sync agents share the
        // suffix delta, diverged/fresh agents get the full table.
        let delta = encode_delta(&self.dist, base, root);
        let mut resync_payload: Option<Vec<u8>> = None;

        // One source of truth for per-switch metadata: the map the session
        // compared for its change tracking.
        let meta_by_switch = update.switch_meta;
        let placement: BTreeMap<StateVar, SwitchId> = update.compiled.placement.placement.clone();
        // The session's per-switch change tracking decides what to re-ship
        // in steady state; after any failed distribute its baseline is off
        // by the unshipped update, so everything goes out again once.
        let ship_all = self.dirty || update.changes.first;
        let placement_changed = ship_all || update.changes.placement_changed;

        // -- Phase one: prepare everywhere. --------------------------------
        let t_prepare = Instant::now();
        let mut resyncs = 0usize;
        let mut meta_shipped = 0usize;
        let empty_meta = SwitchMeta::default();
        let mut send_failure: Option<DistribError> = None;
        for link in self.agents.values_mut() {
            let resync = link.needs_resync || link.synced_len != base;
            let payload = if resync {
                resyncs += 1;
                resync_payload
                    .get_or_insert_with(|| encode_delta(&self.dist, self.fresh_len, root))
                    .clone()
            } else {
                delta.clone()
            };
            let new_meta = meta_by_switch.get(&link.switch).unwrap_or(&empty_meta);
            let meta = if resync
                || ship_all
                || link.meta.is_none()
                || update.changes.meta_changed.contains(&link.switch)
            {
                meta_shipped += 1;
                Some(new_meta.clone())
            } else {
                None
            };
            let msg = PrepareMsg {
                epoch,
                resync,
                delta: payload,
                meta,
                placement: (resync || placement_changed).then(|| placement.clone()),
            };
            if let Err(error) = link.endpoint.send(ToAgent::Prepare(Box::new(msg))) {
                // The agent's state is unknown (its transport just died
                // mid-protocol): mark it for resync and fail the update.
                link.needs_resync = true;
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
            // The previous epoch is still finished as best we can (its own
            // failure would have set `dirty` too).
            for link in self.agents.values() {
                let _ = link.endpoint.send(ToAgent::Abort { epoch });
            }
            self.dirty = true;
            self.record_event(CommitEvent::Abort {
                epoch,
                reason: err.to_string(),
            });
            let _ = self.flush();
            return Err(err);
        }

        // -- Joint drain off the reply mux: this epoch's prepare acks and
        // the previous epoch's commit acks, in arrival order. -------------
        let mut prep = PrepCollect {
            epoch,
            expect: self.agents.keys().copied().collect(),
            consumed: BTreeSet::new(),
            acks: Vec::new(),
            started: t_prepare,
            finished: t_prepare,
            failure: None,
        };
        let mut prev = self.in_flight.take();
        self.drain_replies(Some(&mut prep), prev.as_mut());

        let mut completed = Vec::new();
        if let Some(prev) = prev {
            // The overlap this pipelining bought: how long after this
            // epoch's fan-out began the previous commit was still draining.
            let overlap = prev.last_ack.saturating_duration_since(t_prepare);
            let prev_epoch = prev.epoch;
            match self.finish_commit(prev) {
                Ok(mut report) => {
                    report.pipeline_overlap = overlap;
                    if let Some(last) = self.history.last_mut() {
                        last.pipeline_overlap = overlap;
                    }
                    completed.push(report);
                }
                Err(err) => {
                    // Cascade-abort the staged epoch: its base configuration
                    // diverged, so committing on top of it is unsound. Both
                    // epoch numbers are burned; `finish_commit` already
                    // marked every mirror for resync.
                    for link in self.agents.values() {
                        let _ = link.endpoint.send(ToAgent::Abort { epoch });
                    }
                    self.record_event(CommitEvent::Abort {
                        epoch,
                        reason: format!("cascade: epoch {prev_epoch} commit failed: {err}"),
                    });
                    return Err(err);
                }
            }
        }

        // This epoch's prepare outcome.
        if prep.failure.is_none() && !prep.expect.is_empty() {
            let missing = first_missing(&self.agents, &prep.expect);
            prep.failure = Some(DistribError::Transport {
                switch: missing,
                error: TransportError::Timeout,
            });
        }
        if let Some(err) = prep.failure.take() {
            // Abort everywhere: nobody flips, the previous epoch keeps
            // running on every switch (the burned epoch number is simply
            // skipped), and the session's change baseline now includes an
            // update that never shipped — hence `dirty`.
            for link in self.agents.values() {
                let _ = link.endpoint.send(ToAgent::Abort { epoch });
            }
            self.dirty = true;
            self.record_event(CommitEvent::Abort {
                epoch,
                reason: err.to_string(),
            });
            return Err(err);
        }
        let prepare_time = prep.finished.saturating_duration_since(t_prepare);
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

        // -- Phase two: order the flip everywhere; acks drain later (next
        // distribute_async call, or flush). If the commit fails partway,
        // some agent already holds a committed view for `epoch` (which is
        // why the number was burned up front); recovery is conservative:
        // resync everyone and re-ship all metadata on the next update.
        let t_commit = Instant::now();
        let mut inflight = InFlight {
            epoch,
            root,
            expect: self.agents.keys().copied().collect(),
            consumed: BTreeSet::new(),
            acks: Vec::new(),
            yields: Vec::new(),
            placement,
            meta_by_switch,
            started: t_commit,
            last_ack: t_commit,
            failure: None,
            report: CommitReport {
                epoch,
                session_epoch: update.session_epoch,
                new_nodes,
                delta_bytes: delta.len(),
                full_bytes,
                resyncs,
                resync_bytes: resync_payload.as_ref().map_or(0, Vec::len),
                meta_shipped,
                migrated_tables: 0,
                compacted_nodes: 0,
                prepare_time,
                commit_time: Duration::ZERO,
                pipeline_overlap: Duration::ZERO,
            },
        };
        for link in self.agents.values_mut() {
            if let Err(error) = link.endpoint.send(ToAgent::Commit { epoch }) {
                // This agent never got the flip order: its config is now
                // behind. It will not ack; fail the epoch at completion.
                inflight.expect.remove(&link.switch);
                link.needs_resync = true;
                inflight.failure.get_or_insert(DistribError::Transport {
                    switch: link.name.clone(),
                    error,
                });
            }
        }
        self.in_flight = Some(inflight);
        Ok(completed)
    }

    /// Complete the in-flight epoch, if any: drain its remaining commit
    /// acks, fan out the yielded-table installs, record events and return
    /// its report. `Ok(vec![])` when nothing is in flight.
    pub fn flush(&mut self) -> Result<Vec<CommitReport>, DistribError> {
        let Some(mut inflight) = self.in_flight.take() else {
            return Ok(Vec::new());
        };
        self.drain_replies(None, Some(&mut inflight));
        self.finish_commit(inflight).map(|r| vec![r])
    }

    /// Consume replies off the shared mux in arrival order, routing each to
    /// the prepare collector or the in-flight commit by `(switch, epoch)`.
    /// One deadline covers the whole drain; timeouts are attributed to the
    /// first still-missing agent of each phase. Stale and duplicate replies
    /// are discarded and counted.
    fn drain_replies(
        &mut self,
        mut prep: Option<&mut PrepCollect>,
        mut commit: Option<&mut InFlight>,
    ) {
        let deadline = Instant::now() + self.options.timeout;
        loop {
            let prep_open = prep.as_ref().is_some_and(|p| !p.expect.is_empty());
            let commit_open = commit.as_ref().is_some_and(|c| !c.expect.is_empty());
            if !prep_open && !commit_open {
                return;
            }
            let remaining = deadline.saturating_duration_since(Instant::now());
            let msg = match self.reply_rx.recv_timeout(remaining) {
                Ok(msg) => msg,
                Err(error) => {
                    // Deadline (or the reply channel itself died): mark the
                    // missing mirrors unknown and attribute the failure.
                    if let Some(p) = prep.as_deref_mut() {
                        if !p.expect.is_empty() {
                            for switch in &p.expect {
                                if let Some(link) = self.agents.get_mut(switch) {
                                    link.needs_resync = true;
                                }
                            }
                            p.failure.get_or_insert(DistribError::Transport {
                                switch: first_missing(&self.agents, &p.expect),
                                error: error.clone(),
                            });
                        }
                    }
                    if let Some(c) = commit.as_deref_mut() {
                        if !c.expect.is_empty() {
                            c.failure.get_or_insert(DistribError::Transport {
                                switch: first_missing(&self.agents, &c.expect),
                                error,
                            });
                        }
                    }
                    return;
                }
            };
            self.route_reply(msg, prep.as_deref_mut(), commit.as_deref_mut());
        }
    }

    /// Route one mux message. Consumes it into the matching collector, or
    /// discards it as stale/duplicate, or records a protocol failure.
    fn route_reply(
        &mut self,
        msg: FromAgent,
        prep: Option<&mut PrepCollect>,
        commit: Option<&mut InFlight>,
    ) {
        let switch = msg.switch();
        let msg_epoch = msg.epoch();
        if let Some(p) = prep {
            if msg_epoch == p.epoch {
                match msg {
                    FromAgent::Prepared { .. } if p.expect.remove(&switch) => {
                        p.consumed.insert(switch);
                        p.finished = Instant::now();
                        let us = p.started.elapsed().as_micros() as u64;
                        if let Some(link) = self.agents.get_mut(&switch) {
                            link.synced_len = self.dist.len();
                            link.needs_resync = false;
                            p.acks.push((switch, us));
                        }
                        if let Some(t) = &self.telemetry {
                            t.registry().histogram("commit.prepare_ack_us").record(us);
                        }
                    }
                    FromAgent::PrepareFailed { reason, .. } if p.expect.remove(&switch) => {
                        p.consumed.insert(switch);
                        p.finished = Instant::now();
                        if let Some(link) = self.agents.get_mut(&switch) {
                            link.needs_resync = true;
                        }
                        p.failure.get_or_insert(DistribError::PrepareRejected {
                            switch: self.agent_name(switch),
                            reason,
                        });
                    }
                    _ if p.consumed.contains(&switch) => self.mux.duplicates += 1,
                    other => {
                        if let Some(link) = self.agents.get_mut(&switch) {
                            link.needs_resync = true;
                        }
                        p.failure.get_or_insert(DistribError::Protocol {
                            switch: self.agent_name(switch),
                            unexpected: format!("{other:?}"),
                        });
                    }
                }
                return;
            }
        }
        if let Some(c) = commit {
            if msg_epoch == c.epoch {
                match msg {
                    FromAgent::Committed { yields, .. } if c.expect.remove(&switch) => {
                        c.consumed.insert(switch);
                        c.last_ack = Instant::now();
                        let us = c.started.elapsed().as_micros() as u64;
                        c.acks.push((switch, us));
                        c.yields.extend(yields);
                        if let Some(t) = &self.telemetry {
                            t.registry().histogram("commit.commit_ack_us").record(us);
                        }
                    }
                    FromAgent::Committed { .. } if !c.consumed.contains(&switch) => {
                        // A Committed from a switch this commit never
                        // expected an ack from (e.g. its Commit send
                        // failed): genuinely out of protocol.
                        c.failure.get_or_insert(DistribError::Protocol {
                            switch: self.agent_name(switch),
                            unexpected: "Committed from unexpected switch".to_string(),
                        });
                    }
                    // Anything else carrying this epoch is a straggler from
                    // an already-closed phase (a duplicate Committed, or a
                    // late prepare-phase reply): discard by key.
                    _ => self.mux.duplicates += 1,
                }
                return;
            }
        }
        if msg_epoch < self.epoch {
            // An ack of a burned or already-completed epoch: harmless.
            self.mux.stale += 1;
        } else {
            // A reply for the current-or-future epoch that matches no
            // outstanding expectation — count it rather than failing a
            // phase it does not belong to.
            self.mux.duplicates += 1;
        }
    }

    /// Finish a commit-ordered epoch whose acks have been drained: fan out
    /// the yielded-table installs, record events and bookkeeping, run the
    /// auto-compaction check, and finalize the report.
    fn finish_commit(&mut self, mut inflight: InFlight) -> Result<CommitReport, DistribError> {
        let epoch = inflight.epoch;
        if inflight.failure.is_none() && !inflight.expect.is_empty() {
            inflight.failure = Some(DistribError::Transport {
                switch: first_missing(&self.agents, &inflight.expect),
                error: TransportError::Timeout,
            });
        }
        if inflight.failure.is_none() {
            // Relay yielded tables to their new owners, fanned out like any
            // other phase: all sends first, then the acks in arrival order.
            // A variable the new program no longer places is dropped
            // (deterministic fresh start on re-placement).
            let yields = std::mem::take(&mut inflight.yields);
            inflight.report.migrated_tables = yields.len();
            let mut expect: BTreeSet<(SwitchId, StateVar)> = BTreeSet::new();
            for (var, table) in yields {
                let Some(&owner) = inflight.placement.get(&var) else {
                    continue;
                };
                let Some(link) = self.agents.get(&owner) else {
                    continue;
                };
                if let Err(error) = link.endpoint.send(ToAgent::InstallTable {
                    epoch,
                    var: var.clone(),
                    table,
                }) {
                    inflight.failure.get_or_insert(DistribError::Transport {
                        switch: link.name.clone(),
                        error,
                    });
                } else {
                    expect.insert((owner, var));
                }
            }
            if !expect.is_empty() {
                if let Some(err) = self.collect_installs(epoch, expect) {
                    inflight.failure.get_or_insert(err);
                }
            }
        }
        if let Some(err) = inflight.failure {
            // Some agents may have flipped, others not — the running fleet
            // is only trusted again after a full resync. Yields inside a
            // reply that never arrived are unrecoverable here; the agents'
            // store-authoritative yield on the next commit re-homes anything
            // stranded on a switch.
            self.dirty = true;
            for link in self.agents.values_mut() {
                link.needs_resync = true;
                link.meta = None;
            }
            self.record_event(CommitEvent::Abort {
                epoch,
                reason: err.to_string(),
            });
            return Err(err);
        }

        let commit_time = inflight.started.elapsed();
        inflight.report.commit_time = commit_time;
        self.record_event(CommitEvent::Commit {
            epoch,
            migrated_tables: inflight.report.migrated_tables,
            micros: commit_time.as_micros() as u64,
            per_agent: AgentTimings::from_acks(self.named(inflight.acks)),
        });
        if let Some(t) = &self.telemetry {
            t.registry()
                .histogram("commit.commit_us")
                .record(commit_time.as_micros() as u64);
        }

        // Bookkeeping: the epoch is committed everywhere.
        self.dirty = false;
        let empty_meta = SwitchMeta::default();
        for link in self.agents.values_mut() {
            let meta = inflight
                .meta_by_switch
                .get(&link.switch)
                .cloned()
                .unwrap_or_else(|| empty_meta.clone());
            link.meta = Some(meta);
        }
        // Auto-compaction policy: the distribution pool is append-only, so
        // a long-lived controller accumulates every superseded generation.
        // Once the pool exceeds the configured multiple of the *live*
        // program's size, compact it down to the live program now — the
        // agents keep serving their existing views (packet tags stay valid;
        // views are immutable bundles over the old numbering) and the next
        // update resyncs every mirror against the renumbered pool. (With a
        // successor epoch already staged, "live" is measured from this
        // epoch's root; the compacted pool holds the session's latest
        // program either way, and the forced resync squares everyone up.)
        if let Some(factor) = self.options.compact_threshold {
            let mut live = 0usize;
            self.dist.visit_reachable([inflight.root], |_, _| {
                live += 1;
                true
            });
            if self.dist.len() > factor.max(1) * live.max(1) {
                let compacted = self.compact_distribution();
                inflight.report.compacted_nodes = compacted;
                self.record_event(CommitEvent::Compaction {
                    epoch,
                    reclaimed: compacted,
                });
            }
        }

        self.history.push(inflight.report.clone());
        Ok(inflight.report)
    }

    /// Collect `Installed` acks for a fanned-out set of table installs.
    /// Returns the first failure, after draining as much as possible —
    /// losing one ack must not also lose the other installs.
    fn collect_installs(
        &mut self,
        epoch: u64,
        mut expect: BTreeSet<(SwitchId, StateVar)>,
    ) -> Option<DistribError> {
        let deadline = Instant::now() + self.options.timeout;
        let mut consumed: BTreeSet<(SwitchId, StateVar)> = BTreeSet::new();
        let mut failure: Option<DistribError> = None;
        while !expect.is_empty() {
            let remaining = deadline.saturating_duration_since(Instant::now());
            let msg = match self.reply_rx.recv_timeout(remaining) {
                Ok(msg) => msg,
                Err(error) => {
                    let (switch, _) = expect.first().expect("non-empty");
                    failure.get_or_insert(DistribError::Transport {
                        switch: self.agent_name(*switch),
                        error,
                    });
                    break;
                }
            };
            match msg {
                FromAgent::Installed {
                    switch,
                    epoch: e,
                    ref var,
                } if e == epoch && expect.remove(&(switch, var.clone())) => {
                    consumed.insert((switch, var.clone()));
                }
                other => {
                    if other.epoch() < self.epoch {
                        self.mux.stale += 1;
                    } else if matches!(&other, FromAgent::Installed { switch, epoch: e, var }
                        if *e == epoch && consumed.contains(&(*switch, var.clone())))
                    {
                        self.mux.duplicates += 1;
                    } else {
                        failure.get_or_insert(DistribError::Protocol {
                            switch: self.agent_name(other.switch()),
                            unexpected: format!("{other:?}"),
                        });
                    }
                }
            }
        }
        failure
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
            link.needs_resync = true;
        }
        self.update_pool_gauge();
        before.saturating_sub(self.dist.len())
    }
}

/// The display name of the first switch still missing from `expect` —
/// timeout attribution for a phase that did not fully drain.
fn first_missing(agents: &BTreeMap<SwitchId, AgentLink>, expect: &BTreeSet<SwitchId>) -> String {
    expect
        .first()
        .map(|switch| {
            agents
                .get(switch)
                .map(|l| l.name.clone())
                .unwrap_or_else(|| format!("switch-{}", switch.0))
        })
        .unwrap_or_else(|| "<none>".to_string())
}
