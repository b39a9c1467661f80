//! Flat struct-of-arrays lowering of an xFDD for wire-speed evaluation —
//! the middle stage of the two-stage dataplane lowering (pool → flat →
//! tables).
//!
//! The interned arena ([`crate::Pool`]) is the right representation for
//! *building* diagrams — hash-consing, memo tables, GC — but per-packet
//! evaluation through it chases `Vec<Node>` entries to payloads behind a
//! further handle each, and a long-lived session arena interleaves the live
//! diagram with garbage from superseded compilations, so the reachable
//! subgraph is scattered across the allocation.
//!
//! A [`FlatProgram`] is the dataplane's canonical view: the reachable
//! subgraph of one root, renumbered densely child-first and split into
//! parallel arrays — branch tests, branch edges, and leaf action tables
//! each contiguous in memory. Per-packet evaluation is then index
//! arithmetic over a few dense arrays: follow an edge, load a test by the
//! same index, repeat. The dense [`FlatId`]s also replace the arena
//! [`NodeId`]s as the §4.5 packet-tag node identifiers carried in the SNAP
//! header, so a flattened program is all a switch needs to resume
//! processing mid-diagram.
//!
//! The arrays hold one *shared* payload per node — the lowered leaf (action
//! table, the variable slot of each state action and a per-variable summary
//! of its writes) or the branch's test (with the slot of the variable a
//! state test reads) — rather than private copies, and a lowered leaf's
//! action table shares each sequence's action storage with the pool's
//! [`Leaf`]. A one-off flatten
//! ([`FlatProgram::from_pool`], [`crate::Xfdd::flatten`]) lowers the nodes
//! as it goes and nothing else ever holds its payloads. A switch agent's
//! [`Mirror`] lowers each node once, when a delta delivers it, and every
//! program flattened from that mirror — staged, cached by root, kept per
//! epoch for in-flight packets — points at the same payloads: flattening is
//! a reachability walk plus handle pushes, dropping a program is
//! reference-count decrements, and an agent's memory is one lowering of its
//! mirror plus a few words per node per kept program.
//!
//! ## The mirror invariant
//!
//! A [`Mirror`]'s payload `i` is the lowering of its pool's node `i`, for
//! every node: payloads are valid for exactly one numbering. A resync (which
//! installs the controller pool's numbering afresh) therefore replaces pool
//! and payloads together — and with them the mirror's variable-slot
//! numbering, which the payloads index — and a mirror whose delta failed to
//! apply is discarded whole: they are one value so that no path can keep
//! one without the others. Programs already flattened stay valid
//! regardless: they own handles and their own copy of the slot → name
//! table, not indices into the mirror.
//!
//! ## Variable slots
//!
//! The stateful packet path never looks a state variable up by name. Every
//! state test and every state action of a lowered node carries a
//! [`VarSlot`]: a dense index into the name table of the lowering that made
//! the payload, stored *in* the payload. Whoever lowers assigns: a
//! [`Mirror`] numbers the variables of every node it has ever lowered (in
//! arrival order, append-only, so a payload lowered last week and one
//! lowered now agree), the one-off [`FlatProgram::from_pool`] numbers the
//! variables of the one program it lowers. A [`FlatProgram`] carries the
//! slot → name table its payloads index ([`FlatProgram::var_names`]) and
//! its [`StateClass`]es as an array over the same slots, so a plane
//! resolves names exactly once per installed program — each slot to "this
//! switch's table" or "owned by switch S" — and the per-packet path only
//! indexes. Names come back out ([`FlatProgram::var_name`]) for error
//! messages and sampled traces.
//!
//! A slot means nothing outside the lowering that assigned it: two agents
//! may number the same program differently (their mirrors saw different
//! histories), and a resync renumbers. Slots therefore never appear in a
//! packet tag, on the wire, or in anything one agent hands another — the
//! shared vocabulary between parties stays the variable's name.
//!
//! ## The two-stage lowering, and which stage to use when
//!
//! 1. **Pool** ([`crate::Pool`]): building and composing diagrams —
//!    hash-consing, memoized `⊕`/`⊖`/`⊙`, deltas, GC. Never the per-packet
//!    path.
//! 2. **Flat** (this module): the portable program. Flat ids are the
//!    packet-tag wire format, leaves carry the executable action tables,
//!    and [`FlatProgram::walk`] is the reference per-packet semantics that
//!    everything else (netasm lowering, table dispatch) is checked against.
//! 3. **Tables** ([`crate::tables::TableProgram`]): a derived dispatch
//!    structure *over* the flat arrays — runs of same-field tests collapsed
//!    into per-field lookup tables, so the hot path resolves a whole chain
//!    with one field load and one probe. Compiled locally from the flat
//!    program wherever one is installed (never shipped: the wire format
//!    and the tags stay flat). Use it for the per-packet hot path; use
//!    `walk` when you need the one-test-per-step reference, e.g. in
//!    differential tests.

use crate::action::{Action, ActionSeq, Leaf};
use crate::pool::{eval_test, Node, NodeId, Pool};
use crate::test::Test;
use crate::wire::{apply_delta, decode_delta_fresh, WireError};
use snap_lang::{EvalError, Expr, Packet, StateVar, Store, Value};
use std::cell::RefCell;
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::sync::Arc;

/// Compile-time classification of a state variable's transitions, derived
/// from the flattened diagram's read set (branch tests) and write set (leaf
/// action sequences).
///
/// The dataplane uses this to decide how a variable's table may be sharded
/// across workers: a variable whose updates commute and which no branch ever
/// reads can be accumulated in per-worker replica buffers and merged on a
/// bounded cadence — the merged totals are exact because the updates are
/// order-independent and nothing on the packet path observes intermediate
/// values. Everything else needs the authoritative table (key-range locked)
/// on every access.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum StateClass {
    /// Every write is a `StateIncr`/`StateDecr` and no branch test reads the
    /// variable: increments commute, so per-worker deltas merged later give
    /// the exact total.
    Counter,
    /// Every write is a `StateSet` storing the *same literal* value and no
    /// branch test reads the variable: identical idempotent sets are
    /// order-independent, so deferred replica application is exact.
    IdempotentSet,
    /// Anything else — read by some test, written with computed values, or
    /// written with mixed/conflicting kinds. Needs exact read-modify-write
    /// on the authoritative (key-range sharded) table.
    Exact,
}

impl StateClass {
    /// May this variable's writes be buffered in per-worker replicas and
    /// merged later, instead of locking the authoritative table per write?
    pub fn is_replicable(self) -> bool {
        !matches!(self, StateClass::Exact)
    }
}

/// Dense identifier of a node in a [`FlatProgram`]: the top bit distinguishes
/// leaves from branches, the remainder indexes the respective array. Flat ids
/// double as the packet-tag node identifiers of §4.5 — every switch holds the
/// same flattened program, so an id minted on one switch resumes correctly on
/// another.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct FlatId(u32);

const LEAF_BIT: u32 = 1 << 31;

/// The mark of a node [`FlatProgram::assemble`] has not reached, in its
/// arena-indexed scratch of flat ids.
const UNSEEN: FlatId = FlatId(u32::MAX);

impl FlatId {
    /// Is this the id of a leaf?
    pub fn is_leaf(self) -> bool {
        self.0 & LEAF_BIT != 0
    }

    /// Index into the branch arrays (tests/edges). Panics on leaf ids —
    /// in every build: a leaf id used as a branch index would silently
    /// read an unrelated branch in release mode otherwise.
    pub fn branch_index(self) -> usize {
        assert!(!self.is_leaf(), "branch_index called on leaf id {self:?}");
        self.0 as usize
    }

    /// Index into the leaf array. Panics on branch ids — in every build,
    /// for the same reason as [`FlatId::branch_index`].
    pub fn leaf_index(self) -> usize {
        assert!(self.is_leaf(), "leaf_index called on branch id {self:?}");
        (self.0 & !LEAF_BIT) as usize
    }

    fn branch(i: usize) -> FlatId {
        let i = u32::try_from(i).expect("flat program branch overflow");
        assert!(i & LEAF_BIT == 0, "flat program branch overflow");
        FlatId(i)
    }

    fn leaf(i: usize) -> FlatId {
        let i = u32::try_from(i).expect("flat program leaf overflow");
        assert!(i & LEAF_BIT == 0, "flat program leaf overflow");
        FlatId(i | LEAF_BIT)
    }
}

impl fmt::Debug for FlatId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_leaf() {
            write!(f, "l{}", self.0 & !LEAF_BIT)
        } else {
            write!(f, "b{}", self.0)
        }
    }
}

/// Dense index of a state variable within one lowering (see "Variable
/// slots" in the module docs): the handle by which the packet path reaches a
/// variable's class, owner and table without comparing a name. Only
/// meaningful together with the [`FlatProgram`] that carries it.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct VarSlot(u32);

impl VarSlot {
    /// The slot as an index into slot-indexed arrays
    /// ([`FlatProgram::var_names`] and whatever a plane binds per slot).
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// The slot numbering of one lowering: append-only, so a slot handed out
/// once names the same variable for as long as the numbering lives.
#[derive(Default)]
struct Slots {
    by_name: BTreeMap<StateVar, VarSlot>,
    /// `names[slot]`.
    names: Vec<StateVar>,
}

impl Slots {
    fn slot(&mut self, var: &StateVar) -> VarSlot {
        if let Some(&slot) = self.by_name.get(var) {
            return slot;
        }
        let slot = VarSlot(u32::try_from(self.names.len()).expect("variable slots fit u32"));
        self.by_name.insert(var.clone(), slot);
        self.names.push(var.clone());
        slot
    }
}

/// How a leaf — or, folded over its leaves, a whole program — writes one
/// state variable. Two writes commute exactly when they are the same kind
/// (and, for sets, store the same literal), so folding is "equal or
/// [`Write::Exact`]".
#[derive(Clone, Debug, PartialEq)]
enum Write {
    /// `StateIncr` / `StateDecr`.
    Counter,
    /// `StateSet` of this literal.
    Set(Value),
    /// A computed `StateSet`, or writes that do not commute with each other.
    Exact,
}

impl Write {
    fn of(action: &Action) -> Option<(&StateVar, Write)> {
        match action {
            Action::Modify(_, _) => None,
            Action::StateIncr { var, .. } | Action::StateDecr { var, .. } => {
                Some((var, Write::Counter))
            }
            Action::StateSet {
                var,
                value: Expr::Value(v),
                ..
            } => Some((var, Write::Set(v.clone()))),
            Action::StateSet { var, .. } => Some((var, Write::Exact)),
        }
    }

    fn merge(&mut self, other: &Write) {
        if self != other {
            *self = Write::Exact;
        }
    }

    fn class(&self) -> StateClass {
        match self {
            Write::Counter => StateClass::Counter,
            Write::Set(_) => StateClass::IdempotentSet,
            Write::Exact => StateClass::Exact,
        }
    }
}

/// A leaf of a flat program: the action sequences of the interned
/// [`Leaf`], laid out in a dense `Vec` (in the leaf's canonical set order)
/// so a resumed packet can index its sequence in O(1) instead of walking a
/// `BTreeSet`, plus facts precomputed at lowering time that the per-packet
/// path and the program's state classification would otherwise rediscover:
/// the [`VarSlot`] of every state action and a per-variable summary of the
/// leaf's writes.
#[derive(Clone, Debug)]
pub struct FlatLeaf {
    /// The parallel action sequences, in the canonical (set) order of the
    /// source leaf.
    pub seqs: Vec<ActionSeq>,
    /// The slot of the variable each action writes (`None` for a `Modify`),
    /// the sequences' actions concatenated in order. Empty for a stateless
    /// leaf.
    slots: Vec<Option<VarSlot>>,
    /// Every state variable some sequence writes, with its writes folded.
    /// Empty for the (common) stateless leaf, which then skips per-sequence
    /// store cloning and the store merge entirely.
    writes: Vec<(VarSlot, Write)>,
}

impl FlatLeaf {
    fn from_leaf(leaf: &Leaf, vars: &mut Slots) -> FlatLeaf {
        let seqs: Vec<ActionSeq> = leaf.0.iter().cloned().collect();
        let mut writes: Vec<(VarSlot, Write)> = Vec::new();
        let mut slot_of = |action: &Action| {
            let (var, write) = Write::of(action)?;
            let slot = vars.slot(var);
            match writes.iter_mut().find(|(s, _)| *s == slot) {
                Some((_, seen)) => seen.merge(&write),
                None => writes.push((slot, write)),
            }
            Some(slot)
        };
        let stateful = |seq: &ActionSeq| seq.actions.iter().any(|a| a.written_var().is_some());
        let slots = if seqs.iter().any(stateful) {
            let actions = seqs.iter().flat_map(|seq| seq.actions.iter());
            actions.map(&mut slot_of).collect()
        } else {
            Vec::new()
        };
        FlatLeaf {
            seqs,
            slots,
            writes,
        }
    }

    /// The slot of the variable written by action `offset` of sequence
    /// `seq` (`None` for a `Modify`).
    #[inline]
    pub fn written_slot(&self, seq: usize, offset: usize) -> Option<VarSlot> {
        let earlier = self.seqs[..seq].iter().map(|s| s.actions.len());
        *self.slots.get(earlier.sum::<usize>() + offset)?
    }

    /// Does this leaf drop every packet with no side effect?
    pub fn is_drop(&self) -> bool {
        self.seqs.is_empty()
    }

    /// Does any sequence of this leaf write a state variable?
    pub fn writes_state(&self) -> bool {
        !self.writes.is_empty()
    }

    /// Apply the leaf with one-big-switch semantics: every sequence runs on
    /// the same input store, output packets are unioned and store changes
    /// merged (identical to [`Leaf::apply`]).
    pub fn apply(
        &self,
        pkt: &Packet,
        store: &Store,
    ) -> Result<(BTreeSet<Packet>, Store), EvalError> {
        if !self.writes_state() {
            // Stateless leaf: only `Modify` actions, which cannot fail and
            // cannot touch the store — no per-sequence store clones, no
            // merge.
            let mut packets = BTreeSet::new();
            for seq in &self.seqs {
                if seq.drops {
                    continue;
                }
                let mut p = pkt.clone();
                for a in seq.actions.iter() {
                    if let crate::action::Action::Modify(f, v) = a {
                        p.set(f.clone(), v.clone());
                    }
                }
                packets.insert(p);
            }
            return Ok((packets, store.clone()));
        }
        let mut packets = BTreeSet::new();
        let mut stores = Vec::with_capacity(self.seqs.len());
        for seq in &self.seqs {
            let (p, s) = seq.apply(pkt, store)?;
            if let Some(p) = p {
                packets.insert(p);
            }
            stores.push(s);
        }
        let merged = Store::merge(store, &stores);
        Ok((packets, merged))
    }
}

/// One flat node, borrowed from the program's arrays.
#[derive(Clone, Copy, Debug)]
pub enum FlatNode<'a> {
    /// A branch: evaluate `test` and continue at `tru` or `fls`.
    Branch {
        /// The test at this node.
        test: &'a Test,
        /// The slot of the state variable the test reads, if any.
        slot: Option<VarSlot>,
        /// Successor when the test passes.
        tru: FlatId,
        /// Successor when the test fails.
        fls: FlatId,
    },
    /// A leaf: apply its action sequences.
    Leaf(&'a FlatLeaf),
}

/// A branch's payload: its test — inline, a copy made once at lowering, so
/// the per-packet path reaches it through one handle, not two — and, for a
/// state test, the slot of the variable it reads.
#[derive(Debug)]
struct FlatTest {
    test: Test,
    slot: Option<VarSlot>,
}

/// The lowered form of one pool node: the payload a [`FlatProgram`] holds
/// for it, behind a shared handle so a program is assembled, cached and
/// dropped by reference count, plus a branch's successors — everything
/// flattening needs, so it never goes back to the pool's (much wider) node.
#[derive(Clone)]
enum Lowered {
    Leaf(Arc<FlatLeaf>),
    Branch(Arc<FlatTest>, [NodeId; 2]),
}

impl Lowered {
    /// Lower `node`, numbering the state variables it mentions in `vars`.
    fn of(node: &Node, vars: &mut Slots) -> Lowered {
        match node {
            Node::Leaf(leaf) => Lowered::Leaf(Arc::new(FlatLeaf::from_leaf(leaf, vars))),
            Node::Branch { test, tru, fls } => {
                let payload = FlatTest {
                    test: Test::clone(test),
                    slot: test.state_var().map(|var| vars.slot(var)),
                };
                Lowered::Branch(Arc::new(payload), [*tru, *fls])
            }
        }
    }
}

/// The reachable subgraph of one diagram root, compiled into dense parallel
/// arrays for per-packet evaluation (see the module docs).
#[derive(Clone, Debug)]
pub struct FlatProgram {
    /// Branch tests, one per branch node.
    tests: Vec<Arc<FlatTest>>,
    /// Branch successors `[tru, fls]`, parallel to `tests`.
    edges: Vec<[FlatId; 2]>,
    /// Leaf action tables.
    leaves: Vec<Arc<FlatLeaf>>,
    /// Entry node.
    root: FlatId,
    /// The slot → name table of the lowering the payloads came from. It may
    /// name variables this program never mentions (a mirror numbers every
    /// program it has seen); it names every variable the program does.
    vars: Arc<[StateVar]>,
    /// Per-slot transition classification (see [`StateClass`]), computed
    /// once at flatten time from the state tests and the leaves' write
    /// summaries; `None` for a slot this program neither tests nor writes.
    classes: Vec<Option<StateClass>>,
}

impl FlatProgram {
    /// Flatten the subgraph reachable from `root`, lowering every node on
    /// the way and numbering the program's own variables (a [`Mirror`]
    /// flattens from payloads it lowered when the nodes arrived).
    pub fn from_pool(pool: &Pool, root: NodeId) -> FlatProgram {
        let mut vars = Slots::default();
        let lower = |id| Lowered::of(pool.node(id), &mut vars);
        let arrays = FlatProgram::assemble(root, lower, &mut vec![UNSEEN; root.index() + 1]);
        arrays.classified(vars.names.into())
    }

    /// The one flatten routine, over whatever supplies the lowered nodes;
    /// [`FlatProgram::classified`] completes its result.
    ///
    /// A worklist from the root finds the reachable set, marking nodes in
    /// `flat_of` — one entry per arena node up to the root at least, all
    /// [`UNSEEN`] on entry and again on return — so the cost is the
    /// program's, wherever in a long append-only arena its root sits. The
    /// arena interns children before parents (ids strictly decrease from
    /// parent to child), so numbering the set in ascending arena order
    /// assigns dense, child-first flat ids with every child already numbered
    /// when its parent is visited.
    fn assemble(
        root: NodeId,
        mut lowered: impl FnMut(NodeId) -> Lowered,
        flat_of: &mut [FlatId],
    ) -> FlatProgram {
        let mut nodes = Vec::new();
        let mut work = vec![root];
        while let Some(id) = work.pop() {
            // Reached: any id will do until the numbering below overwrites it.
            if std::mem::replace(&mut flat_of[id.index()], FlatId(0)) != UNSEEN {
                continue;
            }
            let node = lowered(id);
            if let Lowered::Branch(_, children) = &node {
                for child in children {
                    assert!(child < &id, "children are interned first");
                    work.push(*child);
                }
            }
            nodes.push((id, node));
        }
        nodes.sort_unstable_by_key(|(id, _)| *id);
        let ids: Vec<NodeId> = nodes.iter().map(|(id, _)| *id).collect();
        let mut out = FlatProgram {
            tests: Vec::new(),
            edges: Vec::new(),
            leaves: Vec::new(),
            root: FlatId(0),
            vars: Arc::default(),
            classes: Vec::new(),
        };
        for (id, node) in nodes {
            flat_of[id.index()] = match node {
                Lowered::Leaf(leaf) => {
                    out.leaves.push(leaf);
                    FlatId::leaf(out.leaves.len() - 1)
                }
                Lowered::Branch(test, [tru, fls]) => {
                    out.tests.push(test);
                    out.edges.push([flat_of[tru.index()], flat_of[fls.index()]]);
                    FlatId::branch(out.tests.len() - 1)
                }
            };
        }
        out.root = flat_of[root.index()];
        ids.iter().for_each(|id| flat_of[id.index()] = UNSEEN);
        out
    }

    /// Attach the slot → name table the payloads index and classify every
    /// slot: fold the leaves' write summaries, then demote anything a branch
    /// test reads to [`StateClass::Exact`] — replication is only sound when
    /// the packet path never observes intermediate values, and a state test
    /// is exactly such an observation.
    fn classified(mut self, vars: Arc<[StateVar]>) -> FlatProgram {
        let mut folded: Vec<Option<Write>> = vec![None; vars.len()];
        for (slot, write) in self.leaves.iter().flat_map(|leaf| &leaf.writes) {
            match &mut folded[slot.index()] {
                Some(seen) => seen.merge(write),
                unseen => *unseen = Some(write.clone()),
            }
        }
        let mut classes: Vec<Option<StateClass>> = folded
            .iter()
            .map(|write| write.as_ref().map(Write::class))
            .collect();
        for slot in self.tests.iter().filter_map(|t| t.slot) {
            classes[slot.index()] = Some(StateClass::Exact);
        }
        self.vars = vars;
        self.classes = classes;
        self
    }

    /// The slot → name table: `var_names()[slot.index()]` is the variable
    /// every payload of this program means by `slot`. Planes walk it once
    /// per installed program to bind each slot to an owner or a table.
    pub fn var_names(&self) -> &[StateVar] {
        &self.vars
    }

    /// The name behind a slot of this program (for error messages and
    /// sampled traces — the packet path itself never needs it).
    pub fn var_name(&self, slot: VarSlot) -> &StateVar {
        &self.vars[slot.index()]
    }

    /// The classification of a slot's transitions in this program.
    #[inline]
    pub fn class_of(&self, slot: VarSlot) -> StateClass {
        self.classes[slot.index()].unwrap_or(StateClass::Exact)
    }

    /// The classification of `var`'s transitions in this program — the
    /// by-name view of [`FlatProgram::class_of`]. Unknown variables are
    /// [`StateClass::Exact`], the conservative answer for tables installed
    /// out-of-band (e.g. hand-seeded in tests).
    pub fn state_class(&self, var: &StateVar) -> StateClass {
        let slot = self.vars.iter().position(|name| name == var);
        slot.and_then(|i| self.classes[i])
            .unwrap_or(StateClass::Exact)
    }

    /// All classified variables and their classes, by name.
    pub fn state_classes(&self) -> BTreeMap<StateVar, StateClass> {
        let classified = self.vars.iter().zip(&self.classes);
        classified
            .filter_map(|(var, class)| Some((var.clone(), (*class)?)))
            .collect()
    }

    /// The entry node.
    pub fn root(&self) -> FlatId {
        self.root
    }

    /// Number of branch nodes.
    pub fn num_branches(&self) -> usize {
        self.tests.len()
    }

    /// Number of leaf nodes.
    pub fn num_leaves(&self) -> usize {
        self.leaves.len()
    }

    /// Total number of nodes (equals the arena size of the source diagram).
    pub fn num_nodes(&self) -> usize {
        self.tests.len() + self.leaves.len()
    }

    /// The id of the `i`-th branch (for iterating the branch arrays).
    pub fn branch_id(&self, i: usize) -> FlatId {
        assert!(i < self.tests.len());
        FlatId::branch(i)
    }

    /// The id of the `i`-th leaf (for iterating the leaf array).
    pub fn leaf_id(&self, i: usize) -> FlatId {
        assert!(i < self.leaves.len());
        FlatId::leaf(i)
    }

    /// Borrow a node by id.
    #[inline]
    pub fn node(&self, id: FlatId) -> FlatNode<'_> {
        if id.is_leaf() {
            FlatNode::Leaf(&self.leaves[id.leaf_index()])
        } else {
            let i = id.branch_index();
            let [tru, fls] = self.edges[i];
            let FlatTest { test, slot } = &*self.tests[i];
            FlatNode::Branch {
                test,
                slot: *slot,
                tru,
                fls,
            }
        }
    }

    /// The leaf behind a leaf id.
    #[inline]
    pub fn leaf(&self, id: FlatId) -> &FlatLeaf {
        &self.leaves[id.leaf_index()]
    }

    /// The state variable read by a branch's test, if any.
    #[inline]
    pub fn branch_var(&self, id: FlatId) -> Option<&StateVar> {
        self.tests[id.branch_index()].test.state_var()
    }

    /// Walk tests from `from` to a leaf for one packet against a by-name
    /// [`Store`]: the one-test-per-step reference semantics. A test oracle
    /// for the table compilation; no plane calls it.
    #[inline]
    pub fn walk(&self, from: FlatId, pkt: &Packet, store: &Store) -> Result<FlatId, EvalError> {
        let mut cur = from;
        while !cur.is_leaf() {
            let i = cur.branch_index();
            let [tru, fls] = self.edges[i];
            cur = if eval_test(&self.tests[i].test, pkt, store)? {
                tru
            } else {
                fls
            };
        }
        Ok(cur)
    }

    /// Run the program on a packet and store with one-big-switch semantics:
    /// walk tests to a leaf, then apply the leaf's action sequences.
    /// Semantically identical to [`Pool::evaluate`] on the source diagram.
    /// A test oracle over a by-name [`Store`]; no plane calls it.
    pub fn evaluate(
        &self,
        pkt: &Packet,
        store: &Store,
    ) -> Result<(BTreeSet<Packet>, Store), EvalError> {
        let leaf = self.walk(self.root, pkt, store)?;
        self.leaves[leaf.leaf_index()].apply(pkt, store)
    }

    /// All state variables referenced anywhere in the program (tests and
    /// leaf actions).
    pub fn state_vars(&self) -> BTreeSet<StateVar> {
        let tested = self.tests.iter().filter_map(|t| t.slot);
        let written = self.leaves.iter().flat_map(|leaf| &leaf.writes);
        tested
            .chain(written.map(|(slot, _)| *slot))
            .map(|slot| self.var_name(slot).clone())
            .collect()
    }
}

/// A switch's copy of the controller's append-only distribution pool,
/// together with the lowered payload of every node in it.
///
/// **Invariant:** `lowered[i]` is the payload of `pool` node `i`, for every
/// node — so the payloads are valid for exactly one numbering, the pool's —
/// and every [`VarSlot`] in a payload indexes `vars` (and `var_names`). Pool, payloads and
/// slot numbering are one value for that reason: a resync replaces all
/// three, and a mirror whose delta failed is dropped whole, never patched
/// up.
///
/// Nodes are lowered once, when a delta delivers them. Flattening a root is
/// then a reachability walk that pushes shared handles, every program the
/// switch keeps (staged, cached, per-epoch) shares one payload per node, and
/// dropping a program is reference-count decrements.
pub struct Mirror {
    pool: Pool,
    lowered: Vec<Lowered>,
    vars: Slots,
    /// `vars.names`, as every program flattened since the last new name
    /// shares it (a delta that brings a new variable re-shares: rare, and
    /// O(variables)).
    var_names: Arc<[StateVar]>,
    /// Scratch of [`FlatProgram::assemble`], one entry per node, all
    /// [`UNSEEN`] between flattens: it grows with the mirror, so a flatten
    /// touches (and pays for) the program's entries only.
    flat_of: RefCell<Vec<FlatId>>,
}

impl Mirror {
    /// Bootstrap (or resync) a mirror from a full-table delta, reproducing
    /// the encoder pool's exact numbering. Returns the mirror and the root.
    pub fn decode_fresh(bytes: &[u8]) -> Result<(Mirror, NodeId), WireError> {
        let (pool, root) = decode_delta_fresh(bytes)?;
        let mut mirror = Mirror {
            pool,
            lowered: Vec::new(),
            vars: Slots::default(),
            var_names: Arc::default(),
            flat_of: RefCell::default(),
        };
        mirror.lower_suffix();
        Ok((mirror, root))
    }

    /// Apply a suffix delta and return the new root. On error the mirror is
    /// out of sync with the encoder ([`apply_delta`]) and must be dropped.
    pub fn apply_delta(&mut self, bytes: &[u8]) -> Result<NodeId, WireError> {
        let applied = apply_delta(bytes, &mut self.pool);
        // Also on error: a failed apply may have appended nodes, and the
        // invariant is about every node of the pool.
        self.lower_suffix();
        applied
    }

    fn lower_suffix(&mut self) {
        for i in self.lowered.len()..self.pool.len() {
            let id = NodeId(u32::try_from(i).expect("pool ids fit u32"));
            self.lowered
                .push(Lowered::of(self.pool.node(id), &mut self.vars));
        }
        if self.var_names.len() != self.vars.names.len() {
            self.var_names = self.vars.names.as_slice().into();
        }
        self.flat_of.get_mut().resize(self.lowered.len(), UNSEEN);
    }

    /// The mirrored pool.
    pub fn pool(&self) -> &Pool {
        &self.pool
    }

    /// Number of mirrored nodes.
    pub fn len(&self) -> usize {
        self.pool.len()
    }

    /// Is the mirror empty? (Never true, like [`Pool::is_empty`].)
    pub fn is_empty(&self) -> bool {
        self.pool.is_empty()
    }

    /// Flatten the program rooted at `root` — [`FlatProgram::from_pool`] on
    /// the mirrored pool, with the payloads (and the mirror's slot
    /// numbering) shared instead of lowered anew.
    pub fn flatten(&self, root: NodeId) -> FlatProgram {
        let lowered = |id: NodeId| self.lowered[id.index()].clone();
        let arrays = FlatProgram::assemble(root, lowered, &mut self.flat_of.borrow_mut());
        arrays.classified(Arc::clone(&self.var_names))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::action::Action;
    use crate::test::VarOrder;
    use crate::translate::to_xfdd;
    use snap_lang::builder::*;
    use snap_lang::{Field, Value};

    fn flatten(policy: &snap_lang::Policy) -> (Pool, NodeId, FlatProgram) {
        let deps = crate::deps::StateDependencies::analyze(policy);
        let mut pool = Pool::new(deps.var_order());
        let root = to_xfdd(policy, &mut pool).unwrap();
        let flat = FlatProgram::from_pool(&pool, root);
        (pool, root, flat)
    }

    #[test]
    fn flat_ids_are_dense_and_child_first() {
        let policy = ite(
            test(Field::SrcPort, Value::Int(53)),
            state_incr("dns", vec![field(Field::DstIp)]),
            ite(
                test(Field::DstPort, Value::Int(80)),
                modify(Field::OutPort, Value::Int(1)),
                drop(),
            ),
        );
        let (pool, root, flat) = flatten(&policy);
        assert_eq!(flat.num_nodes(), pool.size(root));
        assert_eq!(flat.num_branches(), pool.num_tests(root));
        // Every branch's successors carry strictly smaller per-kind indices
        // or point at leaves that exist — i.e. ids are dense and resolvable.
        for b in 0..flat.num_branches() {
            let id = FlatId::branch(b);
            if let FlatNode::Branch { tru, fls, .. } = flat.node(id) {
                for child in [tru, fls] {
                    if child.is_leaf() {
                        assert!(child.leaf_index() < flat.num_leaves());
                    } else {
                        assert!(child.branch_index() < b, "children are numbered first");
                    }
                }
            }
        }
    }

    #[test]
    fn flat_evaluation_matches_pool_evaluation() {
        let policy = ite(
            test(Field::SrcPort, Value::Int(53)),
            state_incr("dns", vec![field(Field::DstIp)]).seq(modify(Field::OutPort, Value::Int(6))),
            ite(
                state_test("dns", vec![field(Field::SrcIp)], int(2)),
                drop(),
                modify(Field::OutPort, Value::Int(1)),
            ),
        );
        let (pool, root, flat) = flatten(&policy);
        let mut store_pool = Store::new();
        let mut store_flat = Store::new();
        for i in 0..8i64 {
            let pkt = Packet::new()
                .with(Field::SrcPort, if i % 2 == 0 { 53 } else { 80 })
                .with(Field::SrcIp, Value::ip(10, 0, 0, (i % 3) as u8))
                .with(Field::DstIp, Value::ip(10, 0, 0, (i % 3) as u8));
            let (pa, sa) = pool.evaluate(root, &pkt, &store_pool).unwrap();
            let (pb, sb) = flat.evaluate(&pkt, &store_flat).unwrap();
            assert_eq!(pa, pb, "packet {i}");
            assert_eq!(sa, sb, "store {i}");
            store_pool = sa;
            store_flat = sb;
        }
    }

    #[test]
    fn parallel_leaves_keep_their_sequences() {
        let policy =
            modify(Field::OutPort, Value::Int(1)).par(modify(Field::OutPort, Value::Int(2)));
        let (pool, root, flat) = flatten(&policy);
        let pkt = Packet::new().with(Field::InPort, 9);
        let (a, _) = pool.evaluate(root, &pkt, &Store::new()).unwrap();
        let (b, _) = flat.evaluate(&pkt, &Store::new()).unwrap();
        assert_eq!(a.len(), 2);
        assert_eq!(a, b);
        // The leaf's sequences are indexable in canonical order.
        let leaf = flat.leaf(flat.root());
        assert_eq!(leaf.seqs.len(), 2);
    }

    #[test]
    fn state_vars_and_branch_var_cache() {
        let policy = ite(
            state_test("seen", vec![field(Field::SrcIp)], int(1)),
            state_incr("hits", vec![field(Field::SrcIp)]),
            drop(),
        );
        let (_, _, flat) = flatten(&policy);
        let vars = flat.state_vars();
        assert!(vars.contains(&"seen".into()));
        assert!(vars.contains(&"hits".into()));
        // The root is the state test; its cached variable matches.
        assert_eq!(
            flat.branch_var(flat.root()).map(|v| v.name().to_string()),
            Some("seen".to_string())
        );
    }

    #[test]
    #[should_panic(expected = "branch_index called on leaf id")]
    fn branch_index_panics_on_leaf_ids_in_release_too() {
        FlatId::leaf(0).branch_index();
    }

    #[test]
    #[should_panic(expected = "leaf_index called on branch id")]
    fn leaf_index_panics_on_branch_ids_in_release_too() {
        FlatId::branch(0).leaf_index();
    }

    #[test]
    fn state_classes_counter_and_exact() {
        // `dns` is only ever incremented and never tested: Counter.
        // `seen` is tested: Exact, even though its only write is a set.
        let policy = ite(
            test(Field::SrcPort, Value::Int(53)),
            state_incr("dns", vec![field(Field::DstIp)]),
            ite(
                state_test("seen", vec![field(Field::SrcIp)], int(1)),
                state_set("seen", vec![field(Field::SrcIp)], int(1)),
                drop(),
            ),
        );
        let (_, _, flat) = flatten(&policy);
        assert_eq!(flat.state_class(&"dns".into()), StateClass::Counter);
        assert!(flat.state_class(&"dns".into()).is_replicable());
        assert_eq!(flat.state_class(&"seen".into()), StateClass::Exact);
        // Unknown variables are conservatively Exact.
        assert_eq!(flat.state_class(&"nope".into()), StateClass::Exact);
        assert_eq!(flat.state_classes().len(), 2);
    }

    #[test]
    fn state_classes_idempotent_set_requires_one_literal() {
        // A flag set to the same literal everywhere and never tested is an
        // idempotent set.
        let policy = ite(
            test(Field::SrcPort, Value::Int(53)),
            state_set("flag", vec![field(Field::InPort)], int(1)),
            state_set("flag", vec![field(Field::DstPort)], int(1)),
        );
        let (_, _, flat) = flatten(&policy);
        assert_eq!(flat.state_class(&"flag".into()), StateClass::IdempotentSet);

        // Different literals on different branches: order-dependent, Exact.
        let policy = ite(
            test(Field::SrcPort, Value::Int(53)),
            state_set("flag", vec![field(Field::InPort)], int(1)),
            state_set("flag", vec![field(Field::InPort)], int(2)),
        );
        let (_, _, flat) = flatten(&policy);
        assert_eq!(flat.state_class(&"flag".into()), StateClass::Exact);

        // A computed value is never idempotent.
        let policy = state_set("flag", vec![field(Field::InPort)], field(Field::SrcPort));
        let (_, _, flat) = flatten(&policy);
        assert_eq!(flat.state_class(&"flag".into()), StateClass::Exact);
    }

    #[test]
    fn state_classes_mixed_write_kinds_are_exact() {
        let policy = ite(
            test(Field::SrcPort, Value::Int(53)),
            state_incr("c", vec![field(Field::InPort)]),
            state_set("c", vec![field(Field::InPort)], int(0)),
        );
        let (_, _, flat) = flatten(&policy);
        assert_eq!(flat.state_class(&"c".into()), StateClass::Exact);
        assert!(!flat.state_class(&"c".into()).is_replicable());
    }

    #[test]
    fn single_leaf_program_flattens() {
        let mut pool = Pool::new(VarOrder::empty());
        let leaf = pool.leaf(Leaf::single(Action::Modify(Field::OutPort, Value::Int(3))));
        let flat = FlatProgram::from_pool(&pool, leaf);
        assert_eq!(flat.num_nodes(), 1);
        assert!(flat.root().is_leaf());
        let (pkts, _) = flat.evaluate(&Packet::new(), &Store::new()).unwrap();
        assert_eq!(pkts.len(), 1);
    }
}
