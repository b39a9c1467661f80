//! The executable program: an xFDD lowered node by node into a table the
//! packet plane indexes — the dataplane lowering of the pool.
//!
//! The interned arena ([`crate::Pool`]) is the right representation for
//! *building* diagrams — hash-consing, memo tables, GC — but per-packet
//! evaluation through it chases `Vec<Node>` entries to payloads behind a
//! further handle each, and a long-lived session arena interleaves the live
//! diagram with garbage from superseded compilations.
//!
//! A [`FlatProgram`] is the dataplane's canonical view: a table of lowered
//! nodes, split by kind (branches, leaves) and addressed by [`FlatId`], plus
//! the root. Lowering a node makes everything the packet path and a plane's
//! slot binding will ever need of it, once:
//!
//! * its **payload** — the branch's test (with the slot of the variable a
//!   state test reads) or the leaf's action table (with the slot of every
//!   state action), shared by handle;
//! * its **successors**, as flat ids;
//! * its **dispatch entry** ([`crate::tables`]): whether the branch is an
//!   explicit field compare, a state test, or a member of a collapsed
//!   same-field run, and then which run lookup and cursor. The cursor is
//!   the member's position counted from the run's *bottom*, so a head
//!   prepended by a later delta adds positions above the old ones and
//!   invalidates none of them.
//!
//! A node's lowering looks at its own payload and its children's ids and
//! dispatch entries, never at what its subgraph does with state: a state
//! access is applied in its owner's store wherever the program runs, so
//! nothing about a variable needs deciding for the program as a whole.
//!
//! Per-packet evaluation is then index arithmetic: follow an edge, load the
//! node by the same index, repeat. The flat ids are the §4.5 packet-tag node
//! identifiers carried in the SNAP header.
//!
//! ## Numbering
//!
//! Flat ids count branches and leaves separately, in the order nodes were
//! lowered, children before parents; the top bit marks a leaf.
//!
//! * A **one-off** program ([`FlatProgram::from_pool`],
//!   [`crate::Xfdd::flatten`]) lowers the nodes reachable from one root, in
//!   ascending arena order, into a fresh table: its ids are dense and
//!   child-first, and its table holds exactly its program.
//! * A switch agent's [`Mirror`] lowers every node of its copy of the
//!   controller's distribution pool, in pool order, as deltas deliver them.
//!   A program flattened from it is the mirror's table up to its current
//!   length plus a root: its ids are *mirror ids*. Every agent's mirror
//!   holds the same node table (a resync ships the whole table), so every
//!   agent lowers the same nodes in the same order and assigns the same ids
//!   — which is why a tag minted on one switch resumes on any other, by
//!   construction. Flattening is O(1): the table is append-only, kept in
//!   fixed-size chunks behind shared handles, so a program keeps reading its
//!   prefix while later deltas append (each delta copies at most the one
//!   partly filled chunk per kind and the chunk directory).
//!
//! ## The mirror invariant
//!
//! A [`Mirror`]'s table holds the lowering of its pool's node `i`, for
//! every node: lowered nodes are valid for exactly one numbering. A resync
//! (which installs the controller pool's numbering afresh) therefore
//! replaces pool, table and the mirror's variable-slot numbering (which the
//! payloads index) together, and a mirror whose delta failed to apply is
//! discarded whole: they are one value so that no path can keep one without
//! the others. Programs already flattened stay valid regardless: they hold
//! handles to their own prefix of the table and their own copy of the slot
//! → name table, not indices into the mirror.
//!
//! ## Variable slots
//!
//! The stateful packet path never looks a state variable up by name. Every
//! state test and every state action of a lowered node carries a
//! [`VarSlot`]: a dense index into the name table of the lowering that made
//! the payload, stored *in* the payload. Whoever lowers assigns: a
//! [`Mirror`] numbers the variables of every node it has ever lowered (in
//! arrival order, append-only, so a payload lowered last week and one
//! lowered now agree), a one-off flatten numbers the variables of the one
//! program it lowers. A [`FlatProgram`] carries the slot → name table its
//! payloads index ([`FlatProgram::var_names`]), so a plane resolves names
//! exactly once per installed program — each slot to "this switch's table"
//! or "owned by switch S" — and the per-packet path only indexes. Names
//! come back out ([`FlatProgram::var_name`]) for error messages and sampled
//! traces.
//!
//! A slot means nothing outside the lowering that assigned it: a one-off
//! flatten and a mirror number the same program differently, and a resync
//! renumbers. Slots therefore never appear in a packet tag, on the wire, or
//! in anything one agent hands another — the shared vocabulary between
//! parties stays the variable's name.
//!
//! ## The lowering stages, and which to use when
//!
//! 1. **Pool** ([`crate::Pool`]): building and composing diagrams —
//!    hash-consing, memoized `⊕`/`⊖`/`⊙`, deltas, GC. Never the per-packet
//!    path.
//! 2. **Flat** (this module): the one executable form. Flat ids are the
//!    packet-tag wire format, leaves carry the executable action tables,
//!    and every branch carries its dispatch entry, made where the node is
//!    lowered and never shipped. Execution is dispatch: a run of same-field
//!    tests resolves with one field load and one probe ([`crate::tables`]).
//!    A switch runs it through [`FlatProgram::advance_stateless`] /
//!    [`FlatProgram::step_stateless`] and reaches state by slot;
//!    [`FlatProgram::evaluate`] runs the same dispatch against a by-name
//!    [`Store`].
//!
//! Two evaluators are test oracles that no plane runs:
//! [`FlatProgram::walk`], the one-test-per-step semantics dispatch is
//! checked against, and [`Pool::evaluate`], the diagram semantics
//! [`FlatProgram::evaluate`] is checked against (and that is itself checked
//! against `snap_lang::eval`).

use crate::action::{ActionSeq, Leaf};
use crate::fx::FxHashMap;
use crate::pool::{eval_test, Node, NodeId, Pool};
use crate::shared::Shared;
use crate::tables::{eval_field_test, Entry, Lookup, Stage, MAX_STAGE_DEPTH};
use crate::test::Test;
use crate::wire::{apply_delta, decode_delta_fresh, WireError};
use snap_lang::{EvalError, Packet, StateVar, Store};
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::sync::Arc;

/// Identifier of a lowered node (see "Numbering" in the module docs): the
/// top bit distinguishes leaves from branches, the remainder indexes the
/// respective table. Flat ids double as the packet-tag node identifiers of
/// §4.5 — every switch holds the same lowered table, so an id minted on one
/// switch resumes correctly on another.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct FlatId(u32);

const LEAF_BIT: u32 = 1 << 31;

impl FlatId {
    /// Is this the id of a leaf?
    pub fn is_leaf(self) -> bool {
        self.0 & LEAF_BIT != 0
    }

    /// Index into the branch table. Panics on leaf ids — in every build: a
    /// leaf id used as a branch index would silently read an unrelated
    /// branch in release mode otherwise.
    pub fn branch_index(self) -> usize {
        assert!(!self.is_leaf(), "branch_index called on leaf id {self:?}");
        self.0 as usize
    }

    /// Index into the leaf table. Panics on branch ids — in every build,
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

/// A leaf of a flat program: the action sequences of the interned
/// [`Leaf`], laid out in a dense `Vec` (in the leaf's canonical set order)
/// so a resumed packet can index its sequence in O(1) instead of walking a
/// `BTreeSet`, plus the [`VarSlot`] of every state action, resolved at
/// lowering time so the per-packet path never looks a variable up.
#[derive(Clone, Debug)]
pub struct FlatLeaf {
    /// The parallel action sequences, in the canonical (set) order of the
    /// source leaf.
    pub seqs: Vec<ActionSeq>,
    /// The slot of the variable each action writes (`None` for a `Modify`),
    /// the sequences' actions concatenated in order. Empty for the (common)
    /// stateless leaf, which then skips per-sequence store cloning and the
    /// store merge entirely.
    slots: Vec<Option<VarSlot>>,
}

impl FlatLeaf {
    fn from_leaf(leaf: &Leaf, vars: &mut Slots) -> FlatLeaf {
        let seqs: Vec<ActionSeq> = leaf.0.iter().cloned().collect();
        let stateful = |seq: &ActionSeq| seq.actions.iter().any(|a| a.written_var().is_some());
        let slots = if seqs.iter().any(stateful) {
            let actions = seqs.iter().flat_map(|seq| seq.actions.iter());
            actions
                .map(|action| action.written_var().map(|var| vars.slot(var)))
                .collect()
        } else {
            Vec::new()
        };
        FlatLeaf { seqs, slots }
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
        !self.slots.is_empty()
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

/// One flat node, borrowed from the program's table.
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

/// A lowered branch: everything the packet path reads at a branch id.
#[derive(Clone, Debug)]
struct Branch {
    /// The pool node's own test handle: the packet path reaches the test
    /// through this one handle, and lowering a branch allocates nothing for
    /// it — every branch of the same test shares the interned payload.
    test: Shared<Test>,
    /// For a state test, the slot of the variable it reads.
    slot: Option<VarSlot>,
    /// `[tru, fls]`.
    edges: [FlatId; 2],
    /// How the branch dispatches ([`crate::tables`]).
    entry: Entry,
}

impl Branch {
    /// The length of the same-field run this branch heads (1 for a lone
    /// field-value compare). Only meaningful for a `FieldValue` branch.
    fn run(&self) -> u32 {
        match self.entry {
            Entry::Stage { cursor, .. } => cursor + 1,
            _ => 1,
        }
    }
}

/// Nodes per chunk of a [`Nodes`] table.
const CHUNK: usize = 64;

/// An immutable prefix of an append-only table: full chunks of [`CHUNK`]
/// entries behind shared handles, the last one possibly partial. Extending
/// it makes a new prefix that shares every full chunk; whoever holds the
/// old one keeps reading it.
#[derive(Debug)]
struct Nodes<T> {
    chunks: Arc<[Arc<[T]>]>,
    len: usize,
}

impl<T> Clone for Nodes<T> {
    fn clone(&self) -> Self {
        Nodes {
            chunks: Arc::clone(&self.chunks),
            len: self.len,
        }
    }
}

impl<T> Default for Nodes<T> {
    fn default() -> Self {
        Nodes {
            chunks: Arc::new([]),
            len: 0,
        }
    }
}

impl<T: Clone> Nodes<T> {
    fn len(&self) -> usize {
        self.len
    }

    #[inline]
    fn get(&self, i: usize) -> &T {
        &self.chunks[i / CHUNK][i % CHUNK]
    }

    /// Append `new`, copying the partial last chunk and the directory.
    fn extend(&mut self, new: Vec<T>) {
        if new.is_empty() {
            return;
        }
        let full = self.len / CHUNK;
        let total = self.len + new.len();
        let mut chunks: Vec<Arc<[T]>> = Vec::with_capacity(total.div_ceil(CHUNK));
        chunks.extend(self.chunks[..full].iter().cloned());
        let mut tail: Vec<T> = Vec::with_capacity(CHUNK);
        tail.extend(
            self.chunks
                .get(full)
                .into_iter()
                .flat_map(|c| c.iter().cloned()),
        );
        for node in new {
            tail.push(node);
            if tail.len() == CHUNK {
                chunks.push(Arc::from(std::mem::replace(
                    &mut tail,
                    Vec::with_capacity(CHUNK),
                )));
            }
        }
        if !tail.is_empty() {
            chunks.push(Arc::from(tail));
        }
        *self = Nodes {
            chunks: chunks.into(),
            len: total,
        };
    }
}

/// Where a lowering records the flat id of each pool node it lowers, and
/// looks up the ids of children lowered earlier.
trait FlatIds {
    fn flat_id(&self, id: NodeId) -> FlatId;
    fn assign(&mut self, id: NodeId, flat: FlatId);
}

/// A mirror's: one entry per pool node, in pool order.
impl FlatIds for Vec<FlatId> {
    fn flat_id(&self, id: NodeId) -> FlatId {
        self[id.index()]
    }

    fn assign(&mut self, id: NodeId, flat: FlatId) {
        assert_eq!(id.index(), self.len(), "a mirror lowers its pool in order");
        self.push(flat);
    }
}

/// A one-off flatten's: the reachable nodes only.
impl FlatIds for FxHashMap<NodeId, FlatId> {
    fn flat_id(&self, id: NodeId) -> FlatId {
        self[&id]
    }

    fn assign(&mut self, id: NodeId, flat: FlatId) {
        self.insert(id, flat);
    }
}

/// A lowered node table and the slot numbering its payloads index: what a
/// [`Mirror`] grows as deltas arrive and a one-off flatten fills once.
#[derive(Default)]
struct Table {
    branches: Nodes<Branch>,
    leaves: Nodes<Arc<FlatLeaf>>,
    vars: Slots,
    /// `vars.names`, as every program flattened since the last new name
    /// shares it (a lowering that brings a new variable re-shares: rare,
    /// and O(variables)).
    var_names: Arc<[StateVar]>,
}

impl Table {
    /// Lower `batch` — pool nodes in ascending id order, every child lowered
    /// earlier or earlier in the batch — and append it, recording each
    /// node's flat id in `ids`.
    ///
    /// Dispatch entries need one look at the batch as a whole. A
    /// `FieldValue` branch *extends* its `fls` child when the child tests
    /// the same field on a greater key (in an ordered xFDD, every same-field
    /// child does): its run is then itself plus the child's run, so runs
    /// are a bottom-up count and their keys ascend strictly. A branch that
    /// runs at least two tests deep and that no branch of the batch extends
    /// is a *head*: its stage is built once, here, and every new member
    /// below it shares that stage with the cursor of its own run's length.
    /// Members lowered by an earlier batch keep the entry they were given
    /// then, so a head prepended later builds a new stage and never
    /// invalidates an old one — and that stage covers only the members
    /// above the run's first staged one, layered over its stage
    /// ([`Stage::over`]).
    fn lower<'a>(
        &mut self,
        batch: impl IntoIterator<Item = (NodeId, &'a Node)>,
        ids: &mut impl FlatIds,
    ) {
        let (old_branches, old_leaves) = (self.branches.len(), self.leaves.len());
        let mut branches: Vec<Branch> = Vec::new();
        let mut leaves: Vec<Arc<FlatLeaf>> = Vec::new();
        // Per new branch: its run length, and whether a new branch extends it.
        let mut runs: Vec<(u32, bool)> = Vec::new();
        for (id, node) in batch {
            let flat = match node {
                Node::Leaf(leaf) => {
                    leaves.push(Arc::new(FlatLeaf::from_leaf(leaf, &mut self.vars)));
                    FlatId::leaf(old_leaves + leaves.len() - 1)
                }
                Node::Branch {
                    test: shared,
                    tru,
                    fls,
                } => {
                    let test: &Test = shared;
                    let edges = [ids.flat_id(*tru), ids.flat_id(*fls)];
                    let slot = test.state_var().map(|var| self.vars.slot(var));
                    let (entry, run) = match test {
                        Test::State { .. } => (Entry::StateBranch, 0),
                        Test::FieldField(_, _) => (Entry::FieldBranch, 0),
                        Test::FieldValue(field, key) => {
                            let below = match edges[1] {
                                at if at.is_leaf() => None,
                                at => Some(at.branch_index()),
                            };
                            let extended = below.and_then(|i| {
                                let (child, run) = match i.checked_sub(old_branches) {
                                    Some(new) => (&branches[new], runs[new].0),
                                    None => (self.branches.get(i), self.branches.get(i).run()),
                                };
                                match &**child.test {
                                    Test::FieldValue(f, k) if f == field && key < k => {
                                        Some((i, run))
                                    }
                                    _ => None,
                                }
                            });
                            let run = match extended {
                                Some((i, run)) => {
                                    if let Some(new) = i.checked_sub(old_branches) {
                                        runs[new].1 = true;
                                    }
                                    run + 1
                                }
                                None => 1,
                            };
                            (Entry::FieldBranch, run)
                        }
                    };
                    branches.push(Branch {
                        test: Arc::clone(shared),
                        slot,
                        edges,
                        entry,
                    });
                    runs.push((run, false));
                    FlatId::branch(old_branches + branches.len() - 1)
                }
            };
            ids.assign(id, flat);
        }

        for head in 0..branches.len() {
            let (run, extended) = runs[head];
            if run < 2 || extended {
                continue;
            }
            let get = |i: usize| match i.checked_sub(old_branches) {
                Some(new) => &branches[new],
                None => self.branches.get(i),
            };
            // Walk the run from the head down to the first member that
            // already has a stage — lowered by an earlier batch, or given
            // one by another head of this batch — and layer the members
            // above it over that stage; past the depth cap, or with no such
            // member, build over the whole run.
            let mut chain = Vec::new();
            let mut below = None;
            let mut layer = true;
            let mut at = FlatId::branch(old_branches + head);
            for _ in 0..run {
                let member = get(at.branch_index());
                if let (true, Entry::Stage { stage, cursor }) = (layer, &member.entry) {
                    if stage.depth() < MAX_STAGE_DEPTH {
                        below = Some((Arc::clone(stage), *cursor));
                        break;
                    }
                    layer = false;
                }
                let Test::FieldValue(_, key) = &**member.test else {
                    unreachable!("run members are field-value tests")
                };
                chain.push((key.clone(), member.edges[0]));
                at = member.edges[1];
            }
            let Test::FieldValue(field, _) = &**branches[head].test else {
                unreachable!("run heads are field-value tests")
            };
            let stage = Arc::new(match below {
                Some((stage, top)) => Stage::over(chain, stage, top),
                None => Stage::new(field.clone(), chain, at),
            });
            // The new members, from the head down: the first one lowered
            // earlier, or already given a stage by another head, ends the
            // walk — everything below it has its entry too.
            let mut at = old_branches + head;
            while let Some(new) = at.checked_sub(old_branches) {
                let member = &mut branches[new];
                if matches!(member.entry, Entry::Stage { .. }) {
                    break;
                }
                member.entry = Entry::Stage {
                    stage: Arc::clone(&stage),
                    cursor: runs[new].0 - 1,
                };
                if runs[new].0 == 1 {
                    break;
                }
                at = member.edges[1].branch_index();
            }
        }

        self.branches.extend(branches);
        self.leaves.extend(leaves);
        if self.var_names.len() != self.vars.names.len() {
            self.var_names = self.vars.names.as_slice().into();
        }
    }

    /// The program rooted at `root`: the table as it stands, shared.
    fn program(&self, root: FlatId) -> FlatProgram {
        FlatProgram {
            branches: self.branches.clone(),
            leaves: self.leaves.clone(),
            root,
            vars: Arc::clone(&self.var_names),
        }
    }
}

/// A lowered program: a node table and a root (see the module docs).
#[derive(Clone, Debug)]
pub struct FlatProgram {
    branches: Nodes<Branch>,
    leaves: Nodes<Arc<FlatLeaf>>,
    /// Entry node.
    root: FlatId,
    /// The slot → name table of the lowering the payloads came from. It may
    /// name variables this program never mentions (a mirror numbers every
    /// program it has seen); it names every variable the program does.
    vars: Arc<[StateVar]>,
}

impl FlatProgram {
    /// Lower the subgraph reachable from `root` into a fresh table, in
    /// ascending arena order, numbering the program's own variables (a
    /// [`Mirror`] flattens from nodes it lowered when they arrived).
    ///
    /// The arena interns children before parents (ids strictly decrease
    /// from parent to child), so ascending order is child-first and the
    /// ids come out dense.
    pub fn from_pool(pool: &Pool, root: NodeId) -> FlatProgram {
        let mut ids: FxHashMap<NodeId, FlatId> = FxHashMap::default();
        let mut reached = Vec::new();
        let mut work = vec![root];
        while let Some(id) = work.pop() {
            if ids.insert(id, FlatId(0)).is_some() {
                continue;
            }
            if let Node::Branch { tru, fls, .. } = pool.node(id) {
                for child in [tru, fls] {
                    assert!(*child < id, "children are interned first");
                    work.push(*child);
                }
            }
            reached.push(id);
        }
        reached.sort_unstable();
        let mut table = Table::default();
        table.lower(reached.into_iter().map(|id| (id, pool.node(id))), &mut ids);
        table.program(ids[&root])
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

    /// The entry node.
    pub fn root(&self) -> FlatId {
        self.root
    }

    /// Number of branch ids in the program's table: `branch_id(i)` for `i`
    /// below it is a valid entry point. A one-off program's table holds
    /// exactly its own branches; a mirror program's holds every branch the
    /// mirror had lowered when it was flattened.
    pub fn num_branches(&self) -> usize {
        self.branches.len()
    }

    /// Number of leaf ids in the program's table (see
    /// [`FlatProgram::num_branches`]).
    pub fn num_leaves(&self) -> usize {
        self.leaves.len()
    }

    /// Number of nodes reachable from the root — the program's size, equal
    /// to its source diagram's. A walk: for diagnostics and tests.
    pub fn num_nodes(&self) -> usize {
        let mut seen = [
            vec![false; self.branches.len()],
            vec![false; self.leaves.len()],
        ];
        let mut work = vec![self.root];
        let mut count = 0;
        while let Some(at) = work.pop() {
            let (kind, i) = if at.is_leaf() {
                (1, at.leaf_index())
            } else {
                (0, at.branch_index())
            };
            if std::mem::replace(&mut seen[kind][i], true) {
                continue;
            }
            count += 1;
            if !at.is_leaf() {
                work.extend(self.branch(at).edges);
            }
        }
        count
    }

    /// The id of the `i`-th branch of the table (for iterating it).
    pub fn branch_id(&self, i: usize) -> FlatId {
        assert!(i < self.branches.len());
        FlatId::branch(i)
    }

    /// The id of the `i`-th leaf of the table (for iterating it).
    pub fn leaf_id(&self, i: usize) -> FlatId {
        assert!(i < self.leaves.len());
        FlatId::leaf(i)
    }

    /// The lowered branch behind a branch id.
    #[inline]
    fn branch(&self, id: FlatId) -> &Branch {
        self.branches.get(id.branch_index())
    }

    /// Borrow a node by id.
    #[inline]
    pub fn node(&self, id: FlatId) -> FlatNode<'_> {
        if id.is_leaf() {
            FlatNode::Leaf(self.leaf(id))
        } else {
            let branch = self.branch(id);
            let [tru, fls] = branch.edges;
            FlatNode::Branch {
                test: &branch.test,
                slot: branch.slot,
                tru,
                fls,
            }
        }
    }

    /// The leaf behind a leaf id.
    #[inline]
    pub fn leaf(&self, id: FlatId) -> &FlatLeaf {
        self.leaves.get(id.leaf_index())
    }

    /// The state variable read by a branch's test, if any.
    #[inline]
    pub fn branch_var(&self, id: FlatId) -> Option<&StateVar> {
        self.branch(id).test.state_var()
    }

    /// One stateless dispatch step from branch `at`: the successor after
    /// resolving the branch's test — or its whole run, when `at` belongs to
    /// a collapsed stage ([`crate::tables`]) — against the packet. `None`
    /// means `at` is a state test and the stateless prefix ends here.
    /// Infallible: field tests cannot error and no store is touched.
    #[inline]
    pub fn step_stateless(&self, at: FlatId, pkt: &Packet) -> Option<FlatId> {
        let branch = self.branch(at);
        match &branch.entry {
            Entry::StateBranch => None,
            Entry::Stage { stage, cursor } => Some(stage.dispatch(pkt, *cursor)),
            Entry::FieldBranch => {
                let [tru, fls] = branch.edges;
                Some(if eval_field_test(&branch.test, pkt) {
                    tru
                } else {
                    fls
                })
            }
        }
    }

    /// Advance from `from` through dispatch stages and stateless branches
    /// until a leaf or a state test, without touching any store. Returns
    /// the leaf id, or the id of the first state branch reached.
    #[inline]
    pub fn advance_stateless(&self, from: FlatId, pkt: &Packet) -> FlatId {
        let mut cur = from;
        while !cur.is_leaf() {
            match self.step_stateless(cur, pkt) {
                Some(next) => cur = next,
                None => return cur,
            }
        }
        cur
    }

    /// Walk tests from `from` to a leaf for one packet against a by-name
    /// [`Store`]: the one-test-per-step reference semantics, ignoring the
    /// dispatch entries. The test oracle that dispatch is checked against.
    #[inline]
    pub fn walk(&self, from: FlatId, pkt: &Packet, store: &Store) -> Result<FlatId, EvalError> {
        let mut cur = from;
        while !cur.is_leaf() {
            let branch = self.branch(cur);
            let [tru, fls] = branch.edges;
            cur = if eval_test(&branch.test, pkt, store)? {
                tru
            } else {
                fls
            };
        }
        Ok(cur)
    }

    /// Run the program on a packet and store with one-big-switch semantics:
    /// dispatch each stateless span ([`FlatProgram::advance_stateless`]),
    /// evaluate the state test it stops at against `store`, and apply the
    /// leaf reached. Semantically identical to [`Pool::evaluate`] on the
    /// source diagram, the oracle it is tested against. A switch runs the
    /// same dispatch but reaches state by slot, through its store.
    pub fn evaluate(
        &self,
        pkt: &Packet,
        store: &Store,
    ) -> Result<(BTreeSet<Packet>, Store), EvalError> {
        let mut cur = self.root;
        loop {
            cur = self.advance_stateless(cur, pkt);
            if cur.is_leaf() {
                return self.leaf(cur).apply(pkt, store);
            }
            let branch = self.branch(cur);
            let [tru, fls] = branch.edges;
            cur = if eval_test(&branch.test, pkt, store)? {
                tru
            } else {
                fls
            };
        }
    }

    /// The lookup structure of the run branch `at` dispatches through, if
    /// it is a member of one (diagnostics and tests).
    pub fn lookup_at(&self, at: FlatId) -> Option<&Lookup> {
        match &self.branch(at).entry {
            Entry::Stage { stage, .. } => Some(&stage.lookup),
            _ => None,
        }
    }
}

/// A switch's copy of the controller's append-only distribution pool,
/// together with the lowering of every node in it.
///
/// **Invariant:** the table's node for flat id `ids[i]` is the lowering of
/// `pool` node `i`, for every node — so the table is valid for exactly one
/// numbering, the pool's — and every [`VarSlot`] in a payload indexes the
/// mirror's slot numbering. Pool, ids, table and slot numbering are one
/// value for that reason: a resync replaces all of them, and a mirror whose
/// delta failed is dropped whole, never patched up.
///
/// Nodes are lowered once, when a delta delivers them — payload,
/// successors and dispatch entry — so flattening a root is a
/// handle to the table plus the root, and every program the switch keeps
/// (staged, per epoch) shares it.
pub struct Mirror {
    pool: Pool,
    /// The flat id of every pool node.
    ids: Vec<FlatId>,
    table: Table,
}

impl Mirror {
    /// Bootstrap (or resync) a mirror from a full-table delta, reproducing
    /// the encoder pool's exact numbering. Returns the mirror and the root.
    pub fn decode_fresh(bytes: &[u8]) -> Result<(Mirror, NodeId), WireError> {
        let (pool, root) = decode_delta_fresh(bytes)?;
        let mut mirror = Mirror {
            pool,
            ids: Vec::new(),
            table: Table::default(),
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
        let pool = &self.pool;
        let suffix = (self.ids.len()..pool.len()).map(|i| {
            let id = NodeId(u32::try_from(i).expect("pool ids fit u32"));
            (id, pool.node(id))
        });
        self.table.lower(suffix, &mut self.ids);
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

    /// The program rooted at `root`: the mirror's table as it stands and
    /// the root's flat id, in O(1) — no node is visited or copied.
    pub fn flatten(&self, root: NodeId) -> FlatProgram {
        self.table.program(self.ids[root.index()])
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
        assert_eq!(flat.num_nodes(), flat.num_branches() + flat.num_leaves());
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
        let (pool, root, flat) = flatten(&policy);
        let vars = pool.state_vars(root);
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
    fn single_leaf_program_flattens() {
        let mut pool = Pool::new(VarOrder::empty());
        let leaf = pool.leaf(Leaf::single(Action::Modify(Field::OutPort, Value::Int(3))));
        let flat = FlatProgram::from_pool(&pool, leaf);
        assert_eq!(flat.num_nodes(), 1);
        assert!(flat.root().is_leaf());
        let (pkts, _) = flat.evaluate(&Packet::new(), &Store::new()).unwrap();
        assert_eq!(pkts.len(), 1);
    }

    #[test]
    fn a_head_prepended_later_layers_over_the_old_stage_up_to_the_cap() {
        let mut pool = Pool::new(VarOrder::empty());
        let (mut table, mut ids) = (Table::default(), Vec::new());
        let lower = |table: &mut Table, ids: &mut Vec<FlatId>, pool: &Pool| {
            let suffix = (ids.len()..pool.len()).map(|i| {
                let id = NodeId(i as u32);
                (id, pool.node(id))
            });
            table.lower(suffix, ids);
        };
        let head = |pool: &mut Pool, key: i64, below: NodeId| {
            let out = Leaf::single(Action::Modify(Field::OutPort, Value::Int(key)));
            let out = pool.leaf(out);
            pool.branch(
                Test::FieldValue(Field::DstPort, Value::Int(key)),
                out,
                below,
            )
        };
        let mut root = pool.drop();
        for key in (100..108).rev() {
            root = head(&mut pool, key, root);
        }
        lower(&mut table, &mut ids, &pool);

        // Each later batch prepends one head to the previous run: layered
        // until the cap, then built over the whole run again.
        for (prepended, depth) in (1..=5).zip([1, 2, 3, 0, 1]) {
            root = head(&mut pool, 100 - prepended, root);
            lower(&mut table, &mut ids, &pool);
            let program = table.program(ids[root.index()]);
            let Entry::Stage { stage, cursor } = &program.branch(program.root()).entry else {
                panic!("the head dispatches through a stage");
            };
            assert_eq!((stage.depth(), *cursor), (depth, 7 + prepended as u32));
            let mut packets: Vec<Packet> = (90..110)
                .map(|port| Packet::new().with(Field::DstPort, port))
                .collect();
            packets.push(Packet::new());
            for b in 0..program.num_branches() {
                let from = program.branch_id(b);
                for pkt in &packets {
                    assert_eq!(
                        program.advance_stateless(from, pkt),
                        program.walk(from, pkt, &Store::new()).unwrap(),
                        "from {from:?} on {pkt:?}"
                    );
                }
            }
        }
    }
}
