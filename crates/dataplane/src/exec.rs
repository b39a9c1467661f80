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
//! [`StepOutcome`]), the precomputed shortest-path hop distances
//! ([`NextHops`]) and the small packet-header helpers.
//!
//! A step holds the switch's [`SwitchStore`] lock from the flight's first
//! state access until the step returns (`Visit`): a state test and the
//! leaf action it guards, and every read-modify-write, are atomic by
//! construction. Nothing else is locked while the store is, and the lock
//! never outlives a step — a batch's next flight at the same switch takes
//! it again, so a commit reading the store waits for one visit, not for a
//! batch.
//!
//! ## State by slot
//!
//! Nothing here compares a state variable's name. The program names its
//! variables by dense slot (`snap_xfdd::VarSlot`, carried by every state
//! test and state action), and the view a packet executes under has bound
//! every slot once, when it was prepared ([`bind_slots`]): to this switch's
//! [`TableId`] if the switch owns the variable, else to the owning switch
//! ([`SlotBinding`]). A state access is therefore an array index (slot →
//! binding), the evaluation of the index expressions and one probe of the
//! table. Names are read back from the program only to fill a sampled
//! packet's hop record and to word an error.
//!
//! Nothing here is process-wide: lock contention is counted on each
//! [`SwitchStore`] (exported as `store.shard.*` families) and wave-prefix
//! survivors per instance on [`crate::PlaneTelemetry`], so two planes in
//! one process never read each other's numbers.

use crate::store::{SwitchStore, TableId, Tables};
use parking_lot::MutexGuard;
use snap_lang::{EvalError, Expr, Field, Packet, StateVar, Value};
use snap_telemetry::HopRecord;
use snap_topology::{HopMatrix, NodeId as SwitchId, PortId, Topology};
use snap_xfdd::{Action, FlatId, FlatNode, FlatProgram, Test, VarSlot};
use std::collections::{BTreeMap, BTreeSet};

/// What a view resolved one variable slot of its program to.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SlotBinding {
    /// The switch owns the variable: its table in the switch's
    /// [`SwitchStore`].
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
    store: &SwitchStore,
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

/// One flight's visit to a switch: the store lock, taken (counted) at the
/// visit's first state access and held until the visit ends — the guard
/// drops with the visit when [`process_at_switch`] returns. Every state
/// test and write of the visit therefore runs under one hold, so a test and
/// the leaf action it guards, and every read-modify-write, are atomic.
struct Visit<'a> {
    /// `None` for a switch with no state: every state access then reports
    /// the missing store.
    store: Option<&'a SwitchStore>,
    tables: Option<MutexGuard<'a, Tables>>,
    /// State actions applied during the visit.
    writes: u64,
}

impl<'a> Visit<'a> {
    fn new(store: Option<&'a SwitchStore>) -> Visit<'a> {
        Visit {
            store,
            tables: None,
            writes: 0,
        }
    }

    /// Evaluate a state test against `table` (the switch's table for the
    /// test's variable). The stored value is compared by reference, against
    /// a literal borrowed from the program when the expected value is one.
    /// `None` when the switch has no store.
    fn state_test(
        &mut self,
        table: TableId,
        test: &Test,
        pkt: &Packet,
    ) -> Option<Result<bool, EvalError>> {
        let store = self.store?;
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
            let tables = self.tables.get_or_insert_with(|| store.lock_counted());
            Ok(tables.get(table, idx) == expected)
        }))
    }

    /// Apply a state action — a set, or an increment or decrement by one —
    /// to `table` (the switch's table for the action's variable). An
    /// increment of a value that is not an integer fails as
    /// [`snap_lang::eval`] does and leaves the entry untouched. `None` when
    /// the switch has no store.
    fn apply_action(
        &mut self,
        table: TableId,
        action: &Action,
        pkt: &Packet,
    ) -> Option<Result<(), EvalError>> {
        let store = self.store?;
        Some(INDEX_SCRATCH.with(|cell| {
            let idx = &mut *cell.borrow_mut();
            let (index, value) = match action {
                Action::StateSet { index, value, .. } => (index, Some(value)),
                Action::StateIncr { index, .. } | Action::StateDecr { index, .. } => (index, None),
                Action::Modify(_, _) => unreachable!("not a state action"),
            };
            snap_lang::eval_index_into(index, pkt, idx)?;
            let value = value.map(|v| snap_lang::eval_expr(v, pkt)).transpose()?;
            let tables = self.tables.get_or_insert_with(|| store.lock_counted());
            match value {
                Some(value) => tables.set_at(table, idx, value),
                None => {
                    let step = if matches!(action, Action::StateDecr { .. }) {
                        -1
                    } else {
                        1
                    };
                    tables.update(table, idx, |cur| {
                        let n = cur.as_int().ok_or_else(|| EvalError::NotAnInteger {
                            var: action.written_var().expect("a state action").clone(),
                            value: cur.clone(),
                        })?;
                        Ok(Value::Int(n + step))
                    })?;
                }
            }
            self.writes += 1;
            Ok(())
        }))
    }
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
/// local and under which table); `store` is the switch's state (`None` only
/// when nothing is bound local). The store is locked at the visit's first
/// state access and released when this returns (see `Visit`); the state
/// actions the visit applied are added to `writes`.
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
pub fn process_at_switch(
    bindings: &[SlotBinding],
    flat: &FlatProgram,
    store: Option<&SwitchStore>,
    flight: &mut InFlight,
    trace: Option<&mut HopRecord>,
    writes: &mut u64,
) -> Result<StepOutcome, SimError> {
    let mut visit = Visit::new(store);
    let step = visit_switch(bindings, flat, &mut visit, flight, trace);
    *writes += visit.writes;
    step
}

/// [`process_at_switch`] within one [`Visit`].
fn visit_switch(
    bindings: &[SlotBinding],
    flat: &FlatProgram,
    visit: &mut Visit<'_>,
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
                    let passed = visit
                        .state_test(table, test, &flight.pkt)
                        .expect("switch owning state has a store")?;
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
                        visit
                            .apply_action(table, action, &flight.pkt)
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

#[cfg(test)]
mod tests {
    use super::*;
    use snap_lang::prelude::*;
    use std::sync::atomic::{AtomicBool, Ordering};

    /// Test-then-act is atomic across threads: a visit that has tested a
    /// flag keeps the store until its step returns, so a second visit of the
    /// same key waits for it and then sees the flag set.
    #[test]
    fn a_visit_holds_the_store_from_its_test_to_its_act() {
        let policy = ite(
            state_test("seen", vec![field(Field::SrcPort)], int(0)),
            state_incr("count", vec![field(Field::DstPort)])
                .seq(state_set("seen", vec![field(Field::SrcPort)], int(1)))
                .seq(modify(Field::OutPort, Value::Int(1))),
            modify(Field::OutPort, Value::Int(2)),
        );
        let flat = snap_xfdd::compile(&policy).unwrap().flatten();
        let store = SwitchStore::new();
        let local = flat.var_names().iter().cloned().collect();
        let bindings = bind_slots(&flat, &local, &BTreeMap::new(), &store);
        let pkt = Packet::new()
            .with(Field::SrcPort, 7)
            .with(Field::DstPort, 9);
        let flight = || InFlight::ingress(pkt.clone(), PortId(1), SwitchId(0), flat.root());

        // Visit A tests the flag and stops there, holding the store.
        let mut a = flight();
        let mut visit = Visit::new(Some(&store));
        let FlatNode::Branch {
            test,
            slot: Some(slot),
            tru,
            ..
        } = flat.node(flat.advance_stateless(flat.root(), &a.pkt))
        else {
            panic!("the policy starts with a state test")
        };
        let SlotBinding::Local(table) = bindings[slot.index()] else {
            panic!("every variable is local")
        };
        assert_eq!(visit.state_test(table, test, &a.pkt), Some(Ok(true)));
        a.progress = Progress::AtNode(tru);

        let b_done = AtomicBool::new(false);
        std::thread::scope(|scope| {
            // Visit B runs the same policy on the same key, start to end.
            let b = scope.spawn(|| {
                let mut b = flight();
                let mut writes = 0;
                let step =
                    process_at_switch(&bindings, &flat, Some(&store), &mut b, None, &mut writes);
                b_done.store(true, Ordering::SeqCst);
                let flag_set = matches!(step, Ok(StepOutcome::Emit(PortId(2))));
                (flag_set, writes)
            });
            while store.contended() == 0 {
                assert!(
                    !b_done.load(Ordering::SeqCst),
                    "visit B ran while visit A held the store"
                );
                std::thread::yield_now();
            }
            // B waits on the lock: A counts on another key, sets the flag
            // and ends its visit.
            let step = visit_switch(&bindings, &flat, &mut visit, &mut a, None);
            assert!(matches!(step, Ok(StepOutcome::Emit(PortId(1)))));
            assert_eq!(visit.writes, 2);
            std::mem::drop(visit);
            let (flag_set, writes) = b.join().unwrap();
            assert!(flag_set, "visit B must see the flag visit A set");
            assert_eq!(writes, 0);
        });
        let count = store.get(&"count".into(), &[Value::Int(9)]);
        assert_eq!(count, Value::Int(1));
    }
}
