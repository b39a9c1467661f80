//! The per-switch execution core under the packet driver
//! (`snap_distrib::driver`).
//!
//! Every switch executes packets the same way: resolve the stateless spans
//! of the [`FlatProgram`] through its branches' dispatch entries
//! ([`FlatProgram::advance_stateless`] — one field load and one indexed
//! lookup per collapsed test run), pause at state the local switch does not
//! own, fork at parallel leaves, and emit towards an egress port. The
//! driver owns the dispatch loop; this module holds the machinery
//! underneath it: the in-flight packet representation ([`InFlight`],
//! [`Progress`]), the single-switch step ([`process_at_switch`],
//! [`StepOutcome`]), the lazily-locking per-group lease over the switch's
//! key-range state shards ([`StoreLease`] — commuting writes buffer
//! lock-free replica deltas, exact accesses lock only the key's shard, at
//! most one shard guard is held at a time so leases cannot deadlock, and
//! lock contention is counted on the [`StateShards`] themselves), the
//! precomputed shortest-path hop distances ([`NextHops`]) and the small
//! packet-header helpers.
//!
//! ## State by slot
//!
//! Nothing here compares a state variable's name. The program names its
//! variables by dense slot (`snap_xfdd::VarSlot`, carried by every state
//! test and state action), and the view a packet executes under has bound
//! every slot once, when it was prepared ([`bind_slots`]): to this switch's
//! [`TableId`] if the switch owns the variable, else to the owning switch
//! ([`SlotBinding`]). A state access is therefore an array index (slot →
//! binding), the evaluation of the index expressions, one word-at-a-time
//! routing hash of `(table id, key)` and one probe of that table in the
//! key's shard. Names are read back from the program only to fill a sampled
//! packet's hop record and to word an error.
//!
//! Nothing here is process-wide: lock contention is counted per shard on
//! [`StateShards`] (exported as `store.shard.*` families) and wave-prefix
//! survivors per instance on [`crate::PlaneTelemetry`], so two planes in
//! one process never read each other's numbers.

use crate::shards::{key_hash, Shard, StateShards, TableId};
use parking_lot::MutexGuard;
use snap_lang::{EvalError, Expr, Field, Packet, StateVar, Value};
use snap_telemetry::HopRecord;
use snap_topology::{HopMatrix, NodeId as SwitchId, PortId, Topology};
use snap_xfdd::{Action, FlatId, FlatNode, FlatProgram, StateClass, Test, VarSlot};
use std::collections::{BTreeMap, BTreeSet};

/// What a view resolved one variable slot of its program to.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SlotBinding {
    /// The switch owns the variable: its table in the switch's
    /// [`StateShards`].
    Local(TableId),
    /// The view's placement puts the variable on this switch. (Naming the
    /// view's *own* switch here means placement and ownership disagree; the
    /// driver fails the packet rather than forward it in place.)
    Remote(SwitchId),
    /// The view's placement does not mention the variable.
    Unplaced,
}

/// Bind every slot of `flat` for one switch under one view: variables in
/// `local_vars` to their table in `store` (registering the name there if it
/// is new to the switch), the rest to their owner under `placement`. Done
/// once per prepared view — O(variables) — so that the
/// packet path only indexes the result by slot.
pub fn bind_slots(
    flat: &FlatProgram,
    local_vars: &BTreeSet<StateVar>,
    placement: &BTreeMap<StateVar, SwitchId>,
    store: &StateShards,
) -> Box<[SlotBinding]> {
    let bind = |var: &StateVar| {
        if local_vars.contains(var) {
            SlotBinding::Local(store.table_id(var))
        } else {
            let owner = placement.get(var);
            owner.map_or(SlotBinding::Unplaced, |&s| SlotBinding::Remote(s))
        }
    };
    flat.var_names().iter().map(bind).collect()
}

// One reusable index buffer per thread: state accesses evaluate their index
// vector into it instead of allocating a fresh `Vec` per packet, and a table
// only clones the index on an entry's first write.
thread_local! {
    static INDEX_SCRATCH: std::cell::RefCell<Vec<Value>> =
        const { std::cell::RefCell::new(Vec::new()) };
}

/// What a buffered commuting update does to its key.
enum ReplicaOp<'p> {
    /// Net increment of a [`StateClass::Counter`] key.
    Add(i64),
    /// Idempotent literal set of a [`StateClass::IdempotentSet`] key — the
    /// literal is borrowed from the program.
    Set(&'p Value),
}

/// One buffered commuting update, awaiting the merge flush. The key is a
/// range of the buffer's key arena, so buffering one allocates nothing.
struct Delta<'p> {
    table: TableId,
    key: std::ops::Range<usize>,
    /// [`key_hash`] of `(table, key)`: picks the shard at flush time, and
    /// lets coalescing reject every other buffered key with one integer
    /// compare.
    hash: u64,
    op: ReplicaOp<'p>,
}

/// The storage behind a [`StoreLease`]'s buffered commuting updates, owned
/// by whoever drives the leases (one per batch in the driver) so that
/// consecutive leases reuse it: the delta list keeps its capacity from group
/// to group, and the key arena — plain values, no borrows — can be carried
/// from batch to batch ([`ReplicaBuffer::with_keys`] /
/// [`ReplicaBuffer::into_keys`]). Always empty between two leases: a lease
/// drains it in [`StoreLease::flush`].
pub struct ReplicaBuffer<'p> {
    deltas: Vec<Delta<'p>>,
    keys: Vec<Value>,
}

impl<'p> ReplicaBuffer<'p> {
    /// A buffer over a recycled (empty) key arena.
    pub fn with_keys(keys: Vec<Value>) -> ReplicaBuffer<'p> {
        debug_assert!(keys.is_empty());
        ReplicaBuffer {
            deltas: Vec::new(),
            keys,
        }
    }

    /// Hand the (empty) key arena back for the next buffer to reuse.
    pub fn into_keys(self) -> Vec<Value> {
        self.keys
    }
}

/// A lazily locking lease on one switch's [`StateShards`].
///
/// The driver creates one lease per (switch, batch-group). Accesses route
/// to the key's shard and lock it on first touch (counted into the shard's
/// contention stats), and the lease keeps the guard across consecutive
/// accesses to the same shard — so a run of packets hitting the same key
/// range pays one lock acquisition instead of one per access, and packets
/// on *different* key ranges (or different workers' groups) don't
/// serialize at all.
///
/// **A lease holds at most one shard guard at any moment.** Touching a
/// different shard drops the held guard before acquiring the new one, so
/// no lease can hold-and-wait and two workers' leases can never deadlock,
/// whatever order their packets visit the key ranges in. The invariant
/// still guarantees what the exactness tests rely on: a state test and
/// the leaf action it guards address the same variable and key — on this
/// switch, the same [`TableId`] and key, which [`key_hash`] routes to the
/// same shard — hence one uninterrupted guard hold: test-then-act on a key
/// is atomic. Only accesses to *different* keys interleave across workers
/// at op granularity, which is within the plane's existing cross-worker
/// ordering contract.
///
/// Writes to variables the program classified as commuting
/// ([`StateClass::is_replicable`]) never lock and never allocate: they
/// accumulate in the lent [`ReplicaBuffer`] — a set's literal stays borrowed
/// from the program (`'p`), the evaluated key is appended to the buffer's
/// arena, updates to one `(table, key)` coalesce — and are merged into the
/// authoritative shards by [`StoreLease::flush`] under one short lock per
/// touched shard: exact, because classification guarantees nothing on the
/// packet path observes the intermediate values and the buffered updates
/// are order-independent.
pub struct StoreLease<'a, 'p> {
    shards: Option<&'a StateShards>,
    /// The single currently held shard guard, if any: `(shard index,
    /// guard)`. Never more than one — see the no-hold-and-wait invariant
    /// above.
    guard: Option<(usize, MutexGuard<'a, Shard>)>,
    /// Buffered commuting updates. Linear-scan coalesced — batch groups are
    /// small (≤ the driver's group size), so a scan beats a hash map here.
    buffer: &'a mut ReplicaBuffer<'p>,
    writes: u64,
}

impl<'a, 'p> StoreLease<'a, 'p> {
    /// A lease over a switch's shards (`None` for a switch with no state —
    /// every state access will then report the missing store), buffering
    /// commuting updates in `buffer`.
    pub fn new(
        shards: Option<&'a StateShards>,
        buffer: &'a mut ReplicaBuffer<'p>,
    ) -> StoreLease<'a, 'p> {
        debug_assert!(buffer.deltas.is_empty() && buffer.keys.is_empty());
        StoreLease {
            shards,
            guard: None,
            buffer,
            writes: 0,
        }
    }

    /// Evaluate a state test against the authoritative shard of the tested
    /// key of `table` (the switch's table for the test's variable). The
    /// stored value is compared by reference, against a literal borrowed
    /// from the program when the expected value is one. `None` when the
    /// switch has no shards.
    pub fn state_test(
        &mut self,
        table: TableId,
        test: &Test,
        pkt: &Packet,
    ) -> Option<Result<bool, EvalError>> {
        let shards = self.shards?;
        let Test::State { index, value, .. } = test else {
            unreachable!("state_test called on a field test")
        };
        Some(INDEX_SCRATCH.with(|cell| {
            let idx = &mut *cell.borrow_mut();
            snap_lang::eval_index_into(index, pkt, idx)?;
            let computed;
            let expected = match value {
                Expr::Value(literal) => literal,
                computes => {
                    computed = snap_lang::eval_expr(computes, pkt)?;
                    &computed
                }
            };
            let shard = locked_shard(shards, &mut self.guard, shards.shard_of(table, idx));
            Ok(shard.get(table, idx) == expected)
        }))
    }

    /// Apply a state action to `table` (the switch's table for the action's
    /// variable) under the variable's compile-time classification:
    /// commuting writes buffer a delta without locking, exact writes lock
    /// the key's shard. `None` when the switch has no shards.
    pub fn apply_action(
        &mut self,
        class: StateClass,
        table: TableId,
        action: &'p Action,
        pkt: &Packet,
    ) -> Option<Result<(), EvalError>> {
        let shards = self.shards?;
        let result = INDEX_SCRATCH.with(|cell| {
            let idx = &mut *cell.borrow_mut();
            let (index, sign) = match action {
                Action::StateSet { index, .. } => (index, 0),
                Action::StateIncr { index, .. } => (index, 1),
                Action::StateDecr { index, .. } => (index, -1),
                Action::Modify(_, _) => unreachable!("not a state action"),
            };
            snap_lang::eval_index_into(index, pkt, idx)?;
            let hash = key_hash(table, idx);
            match (class, action) {
                (StateClass::Counter, Action::StateIncr { .. } | Action::StateDecr { .. }) => {
                    self.buffer(table, idx, hash, ReplicaOp::Add(sign));
                    Ok(())
                }
                (
                    StateClass::IdempotentSet,
                    Action::StateSet {
                        value: Expr::Value(literal),
                        ..
                    },
                ) => {
                    self.buffer(table, idx, hash, ReplicaOp::Set(literal));
                    Ok(())
                }
                _ => {
                    // Exact read-modify-write on the authoritative shard.
                    let shard = locked_shard(shards, &mut self.guard, shards.shard_of_hash(hash));
                    apply_exact(action, sign, pkt, table, idx, shard)
                }
            }
        });
        if result.is_ok() {
            self.writes += 1;
        }
        Some(result)
    }

    /// Coalesce a commuting update into the delta buffer.
    fn buffer(&mut self, table: TableId, idx: &[Value], hash: u64, op: ReplicaOp<'p>) {
        let ReplicaBuffer { deltas, keys } = &mut *self.buffer;
        for delta in deltas.iter_mut() {
            if delta.hash == hash && delta.table == table && keys[delta.key.clone()] == *idx {
                match (&mut delta.op, op) {
                    (ReplicaOp::Add(n), ReplicaOp::Add(d)) => *n += d,
                    (slot @ ReplicaOp::Set(_), set @ ReplicaOp::Set(_)) => *slot = set,
                    // Classification never mixes kinds for one variable.
                    _ => unreachable!("mixed replica ops for one variable"),
                }
                return;
            }
        }
        let start = keys.len();
        keys.extend_from_slice(idx);
        deltas.push(Delta {
            table,
            key: start..keys.len(),
            hash,
            op,
        });
    }

    /// Merge the buffered commuting updates into the authoritative shards
    /// (one short counted lock per touched shard) and release every guard.
    /// The driver calls this at the end of each batch-group, bounding how
    /// stale a concurrent `aggregate_store` can observe replicated totals:
    /// exact once the workers have joined. A group that buffered nothing
    /// only releases its guard.
    pub fn flush(&mut self) {
        let ReplicaBuffer { deltas, keys } = &mut *self.buffer;
        if let (Some(shards), false) = (self.shards, deltas.is_empty()) {
            // Group by shard so the single held guard swaps once per touched
            // shard; the ops commute, so reordering them is exact (and an
            // unstable sort needs no scratch buffer).
            deltas.sort_unstable_by_key(|delta| shards.shard_of_hash(delta.hash));
            let mut flushing = None;
            for delta in deltas.drain(..) {
                let at = shards.shard_of_hash(delta.hash);
                if flushing != Some(at) {
                    flushing = Some(at);
                    shards.note_flush(at);
                }
                let shard = locked_shard(shards, &mut self.guard, at);
                let idx = &keys[delta.key];
                match delta.op {
                    ReplicaOp::Add(n) => {
                        shard
                            .update(delta.table, idx, |cur| {
                                // Classification guarantees every program
                                // write to this variable is an increment, so
                                // non-int values can only come from
                                // hand-installed tables; coerce them to 0
                                // rather than fail a flush that can no
                                // longer be attributed to a packet.
                                Ok::<_, std::convert::Infallible>(Value::Int(
                                    cur.as_int().unwrap_or(0) + n,
                                ))
                            })
                            .unwrap();
                    }
                    ReplicaOp::Set(v) => shard.set_at(delta.table, idx, v.clone()),
                }
            }
            keys.clear();
        }
        self.guard = None;
    }

    /// State actions applied through this lease, buffered or exact (summed
    /// into the per-switch `switch.state_writes` family at group end).
    pub fn state_writes(&self) -> u64 {
        self.writes
    }
}

/// Shard `i` under a lease's single-guard rule: reuses the held guard when
/// it is already `i`'s, otherwise drops it first and locks `i` (counted).
/// Holding at most one guard at a time is what rules out cross-worker
/// deadlock.
fn locked_shard<'g, 'a>(
    shards: &'a StateShards,
    guard: &'g mut Option<(usize, MutexGuard<'a, Shard>)>,
    i: usize,
) -> &'g mut Shard {
    match guard {
        Some((held, _)) if *held == i => {}
        _ => {
            *guard = None;
            *guard = Some((i, shards.lock_shard_counted(i)));
        }
    }
    &mut guard.as_mut().expect("guard just ensured").1
}

/// Errors surfaced by packet execution.
#[derive(Clone, Debug, PartialEq)]
pub enum SimError {
    /// The ingress port is not attached to any switch.
    UnknownPort(PortId),
    /// A packet was forwarded more than the hop budget allows (routing loop
    /// or unreachable state/egress switch).
    HopBudgetExceeded,
    /// The program's outport is not an external port of the topology.
    BadOutPort(Value),
    /// Evaluation failed (missing field, bad increment, ...).
    Eval(EvalError),
}

impl From<EvalError> for SimError {
    fn from(e: EvalError) -> Self {
        SimError::Eval(e)
    }
}

/// Processing status carried in the SNAP header of an in-flight packet.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Progress {
    /// Still walking the diagram; the flat id of the next node to
    /// process (the §4.5 packet tag).
    AtNode(FlatId),
    /// Executing a specific action sequence of a leaf, from an action offset.
    InLeaf {
        /// The leaf being executed.
        node: FlatId,
        /// Which of the leaf's parallel sequences this copy runs.
        seq: usize,
        /// Offset of the next action within the sequence.
        offset: usize,
    },
    /// Processing finished; the packet just needs to reach its egress.
    Done,
}

/// An in-flight packet: payload plus SNAP header.
#[derive(Clone, Debug)]
pub struct InFlight {
    /// The packet payload (headers included).
    pub pkt: Packet,
    /// The OBS port the packet entered at.
    pub inport: PortId,
    /// The switch currently holding the packet.
    pub at: SwitchId,
    /// Where in the program processing stands.
    pub progress: Progress,
    /// Hops taken so far (checked against the hop budget).
    pub hops: usize,
}

impl InFlight {
    /// A packet freshly arrived at its ingress switch, about to start the
    /// program at `root`.
    pub fn ingress(pkt: Packet, inport: PortId, at: SwitchId, root: FlatId) -> InFlight {
        InFlight {
            pkt,
            inport,
            at,
            progress: Progress::AtNode(root),
            hops: 0,
        }
    }
}

/// What one switch-local processing step decided.
pub enum StepOutcome {
    /// Processing finished; deliver the flight's packet (left in
    /// `flight.pkt` — the driver takes it without a clone) to the given
    /// egress port.
    Emit(PortId),
    /// The packet was dropped (by a drop leaf or a dropping sequence).
    Dropped,
    /// The program needs a state variable — this slot of it — that the
    /// switch does not own; forward towards its owner under the view's
    /// binding and resume there.
    NeedState(VarSlot),
    /// A parallel leaf forked the packet into one copy per sequence.
    Fork(Vec<InFlight>),
}

/// Run a packet at one switch until it emits, drops, forks, or needs state
/// the switch does not own. `bindings` is the view's resolution of every
/// variable slot of `flat` ([`bind_slots`] — it decides which state is
/// local and under which table); `store` is a lease on the switch's state
/// shards (which may wrap no shards only when nothing is bound local).
/// Passing the same lease for every packet of a batch visiting this switch
/// amortizes the shard lock to one acquisition per group.
///
/// Stateless spans are resolved through the program's dispatch stages
/// ([`FlatProgram::advance_stateless`]: one field load + one lookup per
/// collapsed run) instead of branch by branch; only state tests evaluate
/// against the store, branch by branch.
///
/// `trace` is the hop record of a sampled packet, if this flight is being
/// traced: the state variables tested and written at this switch are
/// appended to it, by name. `None` (every unsampled packet) costs a branch
/// per state access.
pub fn process_at_switch<'p>(
    bindings: &[SlotBinding],
    flat: &'p FlatProgram,
    store: &mut StoreLease<'_, 'p>,
    flight: &mut InFlight,
    mut trace: Option<&mut HopRecord>,
) -> Result<StepOutcome, SimError> {
    loop {
        match flight.progress {
            Progress::Done => {
                // Processing already finished elsewhere; figure the
                // outport out of the packet and keep delivering.
                let outport = read_outport(&flight.pkt)?;
                return Ok(StepOutcome::Emit(outport));
            }
            Progress::AtNode(idx) => {
                // Table-dispatch the whole stateless span, then handle
                // whatever stopped it: a state test or a leaf.
                let reached = flat.advance_stateless(idx, &flight.pkt);
                if !reached.is_leaf() {
                    let FlatNode::Branch {
                        test,
                        slot,
                        tru,
                        fls,
                    } = flat.node(reached)
                    else {
                        unreachable!("advance_stateless stops at branches or leaves")
                    };
                    let slot = slot.expect("the stateless prefix stops only at state tests");
                    let SlotBinding::Local(table) = bindings[slot.index()] else {
                        // The tag must record how far the walk got: the
                        // packet resumes at the state test, not at `idx`.
                        flight.progress = Progress::AtNode(reached);
                        return Ok(StepOutcome::NeedState(slot));
                    };
                    if let Some(h) = trace.as_deref_mut() {
                        h.state_tests.push(flat.var_name(slot).to_string());
                    }
                    let passed = store
                        .state_test(table, test, &flight.pkt)
                        .expect("switch owning state has a store shard")?;
                    flight.progress = Progress::AtNode(if passed { tru } else { fls });
                    continue;
                }
                let leaf = flat.leaf(reached);
                if leaf.seqs.is_empty() {
                    return Ok(StepOutcome::Dropped);
                }
                if leaf.seqs.len() == 1 {
                    flight.progress = Progress::InLeaf {
                        node: reached,
                        seq: 0,
                        offset: 0,
                    };
                } else {
                    // Fork one in-flight copy per parallel sequence.
                    let children = (0..leaf.seqs.len())
                        .map(|s| InFlight {
                            pkt: flight.pkt.clone(),
                            inport: flight.inport,
                            at: flight.at,
                            progress: Progress::InLeaf {
                                node: reached,
                                seq: s,
                                offset: 0,
                            },
                            hops: flight.hops,
                        })
                        .collect();
                    return Ok(StepOutcome::Fork(children));
                }
            }
            Progress::InLeaf { node, seq, offset } => {
                let leaf = flat.leaf(node);
                let sequence = &leaf.seqs[seq];
                let mut off = offset;
                while off < sequence.actions.len() {
                    let action = &sequence.actions[off];
                    if let Action::Modify(f, v) = action {
                        flight.pkt.set(f.clone(), v.clone());
                    } else {
                        let slot = leaf
                            .written_slot(seq, off)
                            .expect("a state action was lowered with its slot");
                        let SlotBinding::Local(table) = bindings[slot.index()] else {
                            flight.progress = Progress::InLeaf {
                                node,
                                seq,
                                offset: off,
                            };
                            return Ok(StepOutcome::NeedState(slot));
                        };
                        if let Some(h) = trace.as_deref_mut() {
                            h.state_writes.push(flat.var_name(slot).to_string());
                        }
                        store
                            .apply_action(flat.class_of(slot), table, action, &flight.pkt)
                            .expect("switch with state has a store")?;
                    }
                    off += 1;
                }
                if sequence.drops {
                    return Ok(StepOutcome::Dropped);
                }
                let outport = read_outport(&flight.pkt)?;
                return Ok(StepOutcome::Emit(outport));
            }
        }
    }
}

/// Shortest-path hop distances between every switch pair, precomputed once
/// so that the driver can fast-forward a packet whose remaining journey is
/// pure forwarding in one jump ([`NextHops::jump_towards`]) instead of one
/// wave per hop.
#[derive(Clone, Debug)]
pub struct NextHops {
    dist: HopMatrix,
}

impl NextHops {
    /// Precompute the distances for a topology.
    pub fn compute(topology: &Topology) -> NextHops {
        NextHops {
            dist: HopMatrix::new(topology),
        }
    }

    /// Hop distance of the shortest path, if `to` is reachable from `from`.
    #[inline]
    pub fn distance(&self, from: SwitchId, to: SwitchId) -> Option<usize> {
        self.dist.distance(from, to)
    }

    /// Fast-forward an in-flight packet all the way to a target switch,
    /// charging the full shortest-path hop count in one step. Already being
    /// there is not a hop.
    ///
    /// Behaviorally identical to forwarding the packet one hop per wave
    /// along a shortest path until arrival — intermediate switches could
    /// only have forwarded the packet again (its progress is parked at a
    /// state test another switch owns, or it is done and travelling to
    /// egress), and the hop-budget check is monotone in the hop count, so
    /// charging the hops up front trips the budget exactly when per-hop
    /// stepping would have.
    pub fn jump_towards(&self, flight: &mut InFlight, target: SwitchId) -> Result<(), SimError> {
        if flight.at == target {
            return Ok(());
        }
        let d = self
            .distance(flight.at, target)
            .ok_or(SimError::HopBudgetExceeded)?;
        flight.at = target;
        flight.hops += d;
        Ok(())
    }
}

/// The error for a state variable the running placement does not map to any
/// switch.
pub fn missing_placement_error(var: &StateVar) -> SimError {
    SimError::Eval(EvalError::MissingField(Field::Custom(
        format!("no placement for state variable {var}").into(),
    )))
}

/// The error for a variable whose placement names the *current* switch
/// while that switch's configuration does not own it — inconsistent
/// metadata that would otherwise spin a packet in place forever.
pub fn misplaced_state_error(var: &StateVar) -> SimError {
    SimError::Eval(EvalError::MissingField(Field::Custom(
        format!("state variable {var} placed on a switch that does not own it").into(),
    )))
}

/// The OBS egress port the program assigned to a packet.
pub fn read_outport(pkt: &Packet) -> Result<PortId, SimError> {
    match pkt.get(&Field::OutPort) {
        Some(Value::Int(p)) if *p >= 0 => Ok(PortId(*p as usize)),
        Some(other) => Err(SimError::BadOutPort(other.clone())),
        None => Err(SimError::BadOutPort(Value::Int(-1))),
    }
}

/// Apply one state action exactly — a set, or an increment by `sign` — to
/// its variable's `table` in the shard `idx` (the action's evaluated index
/// vector) routes to.
fn apply_exact(
    action: &Action,
    sign: i64,
    pkt: &Packet,
    table: TableId,
    idx: &[Value],
    shard: &mut Shard,
) -> Result<(), EvalError> {
    if let Action::StateSet { value, .. } = action {
        shard.set_at(table, idx, snap_lang::eval_expr(value, pkt)?);
        return Ok(());
    }
    shard.update(table, idx, |cur| {
        let n = cur.as_int().ok_or_else(|| EvalError::NotAnInteger {
            var: action.written_var().expect("a state action").clone(),
            value: cur.clone(),
        })?;
        Ok(Value::Int(n + sign))
    })
}

/// Remove simulator-internal `snap.*` header fields before a packet leaves
/// the network.
pub fn strip_snap_header(pkt: &mut Packet) {
    // The simulator keeps its bookkeeping outside the packet, so the only
    // header field added by the pipeline itself is the OBS outport; keep it,
    // since the OBS program set it explicitly. Custom `snap.*` fields, if a
    // rule generator added any, are removed here.
    pkt.retain(|f, _| !matches!(f, Field::Custom(name) if name.starts_with("snap.")));
}
