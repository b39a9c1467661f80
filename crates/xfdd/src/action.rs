//! xFDD leaf actions and action sequences.
//!
//! Leaves of an xFDD are *sets of action sequences* (Figure 6). A sequence
//! may modify packet fields and state variables, and may end by dropping the
//! packet — crucially, state updates that precede a `drop` still take effect,
//! matching the paper's semantics where `drop` is just another action at the
//! end of a sequence. The identity is the empty, non-dropping sequence; a
//! leaf whose set is empty drops every packet with no side effects.

use snap_lang::eval::{eval_expr, eval_index};
use snap_lang::{EvalError, Expr, Field, Packet, StateVar, Store, Value};
use std::collections::BTreeSet;
use std::fmt;
use std::sync::Arc;

/// A single action (Figure 6's `a`, minus `id`/`drop` which are encoded by
/// the sequence / leaf structure).
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Action {
    /// `f ← v`
    Modify(Field, Value),
    /// `s[⇀e] ← e`
    StateSet {
        /// Variable written.
        var: StateVar,
        /// Index expressions.
        index: Vec<Expr>,
        /// Stored value expression.
        value: Expr,
    },
    /// `s[⇀e]++`
    StateIncr {
        /// Variable written.
        var: StateVar,
        /// Index expressions.
        index: Vec<Expr>,
    },
    /// `s[⇀e]--`
    StateDecr {
        /// Variable written.
        var: StateVar,
        /// Index expressions.
        index: Vec<Expr>,
    },
}

impl Action {
    /// The state variable written by this action, if any.
    pub fn written_var(&self) -> Option<&StateVar> {
        match self {
            Action::Modify(_, _) => None,
            Action::StateSet { var, .. }
            | Action::StateIncr { var, .. }
            | Action::StateDecr { var, .. } => Some(var),
        }
    }
}

impl fmt::Debug for Action {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Action::Modify(field, v) => write!(f, "{field} <- {v}"),
            Action::StateSet { var, index, value } => {
                write!(f, "{var}")?;
                for e in index {
                    write!(f, "[{e:?}]")?;
                }
                write!(f, " <- {value:?}")
            }
            Action::StateIncr { var, index } => {
                write!(f, "{var}")?;
                for e in index {
                    write!(f, "[{e:?}]")?;
                }
                write!(f, "++")
            }
            Action::StateDecr { var, index } => {
                write!(f, "{var}")?;
                for e in index {
                    write!(f, "[{e:?}]")?;
                }
                write!(f, "--")
            }
        }
    }
}

/// A sequence of actions, optionally ending in a `drop`.
///
/// When `drops` is set, the sequence performs its state/packet updates but
/// emits no output packet.
///
/// The actions are immutable shared storage: a sequence is copied into
/// every leaf it is composed into and into the flat lowering of each, and
/// every copy is a reference-count bump.
#[derive(Clone, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ActionSeq {
    /// The actions, in execution order.
    pub actions: Arc<[Action]>,
    /// Whether the packet is dropped after the actions run.
    pub drops: bool,
}

impl ActionSeq {
    /// The identity sequence.
    pub fn identity() -> Self {
        ActionSeq::from_actions([])
    }

    /// A non-dropping sequence holding a single action.
    pub fn single(a: Action) -> Self {
        ActionSeq::from_actions([a])
    }

    /// A non-dropping sequence from a list of actions.
    pub fn from_actions(actions: impl IntoIterator<Item = Action>) -> Self {
        ActionSeq {
            actions: actions.into_iter().collect(),
            drops: false,
        }
    }

    /// This sequence, but ending in a drop.
    pub fn with_drop(mut self) -> Self {
        self.drops = true;
        self
    }

    /// Is this the identity?
    pub fn is_identity(&self) -> bool {
        self.actions.is_empty() && !self.drops
    }

    /// Does this sequence drop the packet without any side effect?
    pub fn is_pure_drop(&self) -> bool {
        self.actions.is_empty() && self.drops
    }

    /// Sequence this followed by `other` (`as1 ; as2`). If this sequence
    /// already drops the packet, `other` never runs.
    pub fn concat(&self, other: &ActionSeq) -> ActionSeq {
        if self.drops {
            return self.clone();
        }
        let both = self.actions.iter().chain(other.actions.iter());
        ActionSeq {
            actions: both.cloned().collect(),
            drops: other.drops,
        }
    }

    /// State variables written anywhere in the sequence.
    pub fn written_vars(&self) -> BTreeSet<StateVar> {
        self.actions
            .iter()
            .filter_map(|a| a.written_var().cloned())
            .collect()
    }

    /// Packet fields modified anywhere in the sequence.
    pub fn modified_fields(&self) -> BTreeSet<Field> {
        self.actions
            .iter()
            .filter_map(|a| match a {
                Action::Modify(f, _) => Some(f.clone()),
                _ => None,
            })
            .collect()
    }

    /// Execute the sequence on a packet and store. Returns the transformed
    /// packet (`None` when the sequence drops it) and the updated store.
    pub fn apply(&self, pkt: &Packet, store: &Store) -> Result<(Option<Packet>, Store), EvalError> {
        let mut pkt = pkt.clone();
        let mut store = store.clone();
        for action in self.actions.iter() {
            match action {
                Action::Modify(f, v) => pkt.set(f.clone(), v.clone()),
                Action::StateSet { var, index, value } => {
                    let idx = eval_index(index, &pkt)?;
                    let val = eval_expr(value, &pkt)?;
                    store.set(var, idx, val);
                }
                Action::StateIncr { var, index } | Action::StateDecr { var, index } => {
                    let delta = if matches!(action, Action::StateIncr { .. }) {
                        1
                    } else {
                        -1
                    };
                    let idx = eval_index(index, &pkt)?;
                    let current = store.get(var, &idx);
                    let next = current.as_int().ok_or(EvalError::NotAnInteger {
                        var: var.clone(),
                        value: current.clone(),
                    })?;
                    store.set(var, idx, Value::Int(next + delta));
                }
            }
        }
        let out = if self.drops { None } else { Some(pkt) };
        Ok((out, store))
    }
}

impl fmt::Debug for ActionSeq {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_identity() {
            return write!(f, "id");
        }
        if self.is_pure_drop() {
            return write!(f, "drop");
        }
        for (i, a) in self.actions.iter().enumerate() {
            if i > 0 {
                write!(f, "; ")?;
            }
            write!(f, "{a:?}")?;
        }
        if self.drops {
            write!(f, "; drop")?;
        }
        Ok(())
    }
}

/// A leaf: a set of action sequences. The empty set drops every packet with
/// no side effect; the set containing just the identity sequence is `id`.
///
/// Pure-drop sequences (no actions, `drops` set) are normalized away on
/// insertion because they contribute neither packets nor state changes.
#[derive(Clone, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Leaf(pub BTreeSet<ActionSeq>);

impl Leaf {
    /// The `drop` leaf (no behaviour at all).
    pub fn drop() -> Self {
        Leaf(BTreeSet::new())
    }

    /// The `id` leaf.
    pub fn id() -> Self {
        let mut s = BTreeSet::new();
        s.insert(ActionSeq::identity());
        Leaf(s)
    }

    /// A leaf with a single action.
    pub fn single(a: Action) -> Self {
        Leaf::from_seq(ActionSeq::single(a))
    }

    /// A leaf holding one action sequence (normalized).
    pub fn from_seq(seq: ActionSeq) -> Self {
        let mut l = Leaf::drop();
        l.insert(seq);
        l
    }

    /// A leaf holding the given sequences (normalized).
    pub fn from_seqs(seqs: impl IntoIterator<Item = ActionSeq>) -> Self {
        let mut l = Leaf::drop();
        for s in seqs {
            l.insert(s);
        }
        l
    }

    /// Insert a sequence, dropping side-effect-free `drop` sequences.
    pub fn insert(&mut self, seq: ActionSeq) {
        if !seq.is_pure_drop() {
            self.0.insert(seq);
        }
    }

    /// Does this leaf have no behaviour at all (no packets, no state change)?
    pub fn is_drop(&self) -> bool {
        self.0.is_empty()
    }

    /// Does this leaf emit no packet (it may still update state)?
    pub fn passes_nothing(&self) -> bool {
        self.0.iter().all(|s| s.drops)
    }

    /// Is this leaf exactly the identity?
    pub fn is_id(&self) -> bool {
        self.0.len() == 1 && self.0.iter().next().unwrap().is_identity()
    }

    /// Union of two leaves (the `⊕` base case).
    pub fn union(&self, other: &Leaf) -> Leaf {
        let mut s = self.0.clone();
        s.extend(other.0.iter().cloned());
        Leaf(s)
    }

    /// If two *different* sequences in this leaf write the same state
    /// variable, that variable is returned: the leaf encodes a parallel
    /// race and the program must be rejected (§4.2, end).
    pub fn parallel_race(&self) -> Option<StateVar> {
        let seqs: Vec<&ActionSeq> = self.0.iter().collect();
        for i in 0..seqs.len() {
            let wi = seqs[i].written_vars();
            for sj in seqs.iter().skip(i + 1) {
                let wj = sj.written_vars();
                if let Some(var) = wi.intersection(&wj).next() {
                    return Some(var.clone());
                }
            }
        }
        None
    }

    /// Apply the leaf to a packet and store: every action sequence runs on
    /// the same input store, packets are unioned and store changes merged
    /// (mirroring the semantics of parallel composition).
    pub fn apply(
        &self,
        pkt: &Packet,
        store: &Store,
    ) -> Result<(BTreeSet<Packet>, Store), EvalError> {
        let mut packets = BTreeSet::new();
        let mut stores = Vec::new();
        for seq in &self.0 {
            let (p, s) = seq.apply(pkt, store)?;
            if let Some(p) = p {
                packets.insert(p);
            }
            stores.push(s);
        }
        let merged = Store::merge(store, &stores);
        Ok((packets, merged))
    }

    /// State variables written by any sequence in the leaf.
    pub fn written_vars(&self) -> BTreeSet<StateVar> {
        self.0.iter().flat_map(|s| s.written_vars()).collect()
    }
}

impl fmt::Debug for Leaf {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_drop() {
            return write!(f, "{{drop}}");
        }
        write!(f, "{{")?;
        for (i, seq) in self.0.iter().enumerate() {
            if i > 0 {
                write!(f, " | ")?;
            }
            write!(f, "{seq:?}")?;
        }
        write!(f, "}}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use snap_lang::builder::field;

    fn sv(s: &str) -> StateVar {
        StateVar::new(s)
    }

    #[test]
    fn identity_and_drop_leaves() {
        assert!(Leaf::drop().is_drop());
        assert!(Leaf::id().is_id());
        assert!(!Leaf::id().is_drop());
        assert!(!Leaf::single(Action::Modify(Field::OutPort, Value::Int(1))).is_id());
        assert!(Leaf::drop().passes_nothing());
        assert!(!Leaf::id().passes_nothing());
    }

    #[test]
    fn pure_drop_sequences_are_normalized_away() {
        let leaf = Leaf::from_seqs(vec![
            ActionSeq::identity().with_drop(),
            ActionSeq::identity(),
        ]);
        assert!(leaf.is_id());
        let only_drop = Leaf::from_seq(ActionSeq::identity().with_drop());
        assert!(only_drop.is_drop());
    }

    #[test]
    fn dropping_sequence_with_actions_is_kept() {
        let seq = ActionSeq::single(Action::StateIncr {
            var: sv("c"),
            index: vec![],
        })
        .with_drop();
        let leaf = Leaf::from_seq(seq);
        assert!(!leaf.is_drop());
        assert!(leaf.passes_nothing());
        let (pkts, store) = leaf.apply(&Packet::new(), &Store::new()).unwrap();
        assert!(pkts.is_empty());
        assert_eq!(store.get(&sv("c"), &[]), Value::Int(1));
    }

    #[test]
    fn union_of_drop_is_identity_of_union() {
        let id = Leaf::id();
        let drop = Leaf::drop();
        assert_eq!(id.union(&drop), id);
        assert_eq!(drop.union(&drop), drop);
    }

    #[test]
    fn concat_sequences() {
        let a = ActionSeq::single(Action::Modify(Field::OutPort, Value::Int(1)));
        let b = ActionSeq::single(Action::StateIncr {
            var: sv("c"),
            index: vec![field(Field::InPort)],
        });
        let ab = a.concat(&b);
        assert_eq!(ab.actions.len(), 2);
        assert_eq!(ab.modified_fields().len(), 1);
        assert_eq!(ab.written_vars().len(), 1);
        assert!(!ab.drops);
    }

    #[test]
    fn concat_after_drop_discards_the_suffix() {
        let a = ActionSeq::single(Action::StateIncr {
            var: sv("c"),
            index: vec![],
        })
        .with_drop();
        let b = ActionSeq::single(Action::Modify(Field::OutPort, Value::Int(1)));
        let ab = a.concat(&b);
        assert_eq!(ab, a);
        // And a suffix that drops marks the whole sequence as dropping.
        let ba = b.concat(&a);
        assert!(ba.drops);
        assert_eq!(ba.actions.len(), 2);
    }

    #[test]
    fn apply_sequence_modifies_packet_and_store() {
        let seq = ActionSeq::from_actions(vec![
            Action::Modify(Field::OutPort, Value::Int(6)),
            Action::StateSet {
                var: sv("seen"),
                index: vec![field(Field::OutPort)],
                value: Expr::Value(Value::Bool(true)),
            },
        ]);
        let pkt = Packet::new().with(Field::InPort, 1);
        let (p, s) = seq.apply(&pkt, &Store::new()).unwrap();
        let p = p.expect("sequence does not drop");
        assert_eq!(p.get(&Field::OutPort), Some(&Value::Int(6)));
        // The state index saw the *modified* outport because actions run in order.
        assert_eq!(s.get(&sv("seen"), &[Value::Int(6)]), Value::Bool(true));
    }

    #[test]
    fn apply_increment_decrement() {
        let inc = ActionSeq::from_actions(vec![
            Action::StateIncr {
                var: sv("c"),
                index: vec![],
            },
            Action::StateIncr {
                var: sv("c"),
                index: vec![],
            },
            Action::StateDecr {
                var: sv("c"),
                index: vec![],
            },
        ]);
        let (_, s) = inc.apply(&Packet::new(), &Store::new()).unwrap();
        assert_eq!(s.get(&sv("c"), &[]), Value::Int(1));
    }

    #[test]
    fn apply_increment_of_bool_errors() {
        let mut store = Store::new();
        store.set(&sv("flag"), vec![], Value::Bool(true));
        let inc = ActionSeq::single(Action::StateIncr {
            var: sv("flag"),
            index: vec![],
        });
        assert!(inc.apply(&Packet::new(), &store).is_err());
    }

    #[test]
    fn parallel_race_detection() {
        let leaf = Leaf::from_seqs(vec![
            ActionSeq::single(Action::StateSet {
                var: sv("s"),
                index: vec![],
                value: Expr::Value(Value::Int(1)),
            }),
            ActionSeq::single(Action::StateSet {
                var: sv("s"),
                index: vec![],
                value: Expr::Value(Value::Int(2)),
            }),
        ]);
        assert_eq!(leaf.parallel_race(), Some(sv("s")));

        let ok = Leaf::from_seqs(vec![
            ActionSeq::single(Action::StateSet {
                var: sv("s"),
                index: vec![],
                value: Expr::Value(Value::Int(1)),
            }),
            ActionSeq::single(Action::StateSet {
                var: sv("t"),
                index: vec![],
                value: Expr::Value(Value::Int(2)),
            }),
        ]);
        assert_eq!(ok.parallel_race(), None);
        // Two writes in the *same* sequence are not a race.
        let seq_writes = Leaf::single(Action::StateSet {
            var: sv("s"),
            index: vec![],
            value: Expr::Value(Value::Int(1)),
        });
        assert_eq!(seq_writes.parallel_race(), None);
    }

    #[test]
    fn leaf_apply_merges_parallel_results() {
        let leaf = Leaf::from_seqs(vec![
            ActionSeq::single(Action::Modify(Field::OutPort, Value::Int(1))),
            ActionSeq::single(Action::StateIncr {
                var: sv("c"),
                index: vec![],
            }),
        ]);
        let pkt = Packet::new().with(Field::InPort, 9);
        let (pkts, store) = leaf.apply(&pkt, &Store::new()).unwrap();
        assert_eq!(pkts.len(), 2);
        assert_eq!(store.get(&sv("c"), &[]), Value::Int(1));
    }
}
