//! The hash-consed xFDD arena.
//!
//! Decision diagrams only scale through *structural sharing* (§4.2 builds
//! xFDDs precisely because of it), so diagrams are not trees but nodes in a
//! per-compilation [`Pool`]: an arena that owns every node, hands out
//! copyable [`NodeId`]s, deduplicates structurally-equal branches and leaves
//! at construction time, and memoizes the composition operators. Two
//! consequences follow:
//!
//! * structural equality of subdiagrams is id equality — `O(1)` instead of a
//!   deep tree walk — which is what makes the composition memo tables and the
//!   `branch` collapse cheap, and
//! * the ids are *stable*: they double as the paper's §4.5 packet-tag node
//!   identifiers, so the data plane executes diagrams directly by [`NodeId`]
//!   with no separate flattening pass.
//!
//! Tests are interned too: every distinct [`Test`] gets a `TestId`, kept
//! per node in a side array, so the composition operators compare, hash and
//! carry tests as integers — the branch interner, the restriction memo and
//! the contexts are all keyed on ids.
//!
//! Payloads are shared handles ([`Shared`]): a [`Leaf`] or [`Test`] is
//! built and hashed once, and the node table, the interner key and every
//! other pool the payload is imported into hold the same allocation. What a pool *owns* is numbering and memo tables — cloning,
//! extracting, importing, compacting or dropping one copies or releases
//! handles, never content.
//!
//! The pool is also where composition contexts (the decided-test sets of
//! Appendix E) are interned (see [`crate::context`]), so the union memo can
//! be keyed on `(lhs, rhs, ctx)` without hashing whole fact lists.
//!
//! [`Pool::paths`] (root-to-leaf path enumeration) is *not* part of the
//! compiler: it expands sharing, and survives only as the oracle that tests
//! of the packet-state mapping and of composition compare against.

use crate::action::Leaf;
use crate::context::CtxFact;
use crate::fx::{FxHashMap, FxHashSet};
use crate::shared::{Hashed, Shared};
use crate::test::{Test, VarOrder};
use snap_lang::eval::{eval_expr, eval_index};
use snap_lang::{EvalError, Packet, StateVar, Store};
use std::collections::BTreeSet;
use std::fmt;

/// Identifier of a node inside a [`Pool`]. Stable for the lifetime of the
/// pool; these are the node ids carried in the SNAP packet tag (§4.5).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId(pub u32);

impl NodeId {
    /// The index into the pool's node arena.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Debug for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// Identifier of an interned [`Test`] inside a [`Pool`].
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub(crate) struct TestId(u32);

impl TestId {
    /// The side-array entry of a leaf, which holds no test.
    const LEAF: TestId = TestId(u32::MAX);

    pub(crate) fn index(self) -> usize {
        self.0 as usize
    }

    pub(crate) fn new(index: usize) -> TestId {
        let id = u32::try_from(index).expect("xFDD pool test overflow");
        assert!(id != TestId::LEAF.0, "xFDD pool test overflow");
        TestId(id)
    }
}

/// Identifier of an interned composition context (see [`crate::context`]).
/// `CtxId::EMPTY` is the empty context.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct CtxId(u32);

impl CtxId {
    /// The empty context.
    pub const EMPTY: CtxId = CtxId(0);

    /// The context's number: `0` for the empty context, then in order of
    /// interning.
    pub fn index(self) -> usize {
        self.0 as usize
    }

    pub(crate) fn new(index: usize) -> CtxId {
        CtxId(u32::try_from(index).expect("xFDD pool context overflow"))
    }
}

/// One interned xFDD node: a leaf (set of action sequences) or a branch on a
/// test. Child links are [`NodeId`]s into the same pool.
#[derive(Clone, PartialEq, Eq, Hash)]
pub enum Node {
    /// A leaf.
    Leaf(Shared<Leaf>),
    /// A branch: `test ? tru : fls`.
    Branch {
        /// The test at this node.
        test: Shared<Test>,
        /// Child taken when the test passes.
        tru: NodeId,
        /// Child taken when the test fails.
        fls: NodeId,
    },
}

impl fmt::Debug for Node {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Node::Leaf(l) => write!(f, "{l:?}"),
            Node::Branch { test, tru, fls } => write!(f, "({test:?} ? {tru:?} : {fls:?})"),
        }
    }
}

/// The per-compilation interner: owns all nodes of all diagrams built during
/// one compilation, plus the memo tables for the composition operators.
///
/// The pool is created with the state-variable order of the program being
/// compiled ([`VarOrder`], from dependency analysis); every composition uses
/// that order, which is what makes memoized results reusable.
#[derive(Clone, Debug, Default)]
pub struct Pool {
    pub(crate) order: VarOrder,
    pub(crate) nodes: Vec<Node>,
    // Per node, the id of its test (`TestId::LEAF` for leaves).
    pub(crate) node_tests: Vec<TestId>,
    pub(crate) tests: Vec<Shared<Test>>,
    // Per test, the id of its field-field mirror image (`g = f` for
    // `f = g`), once both are interned.
    pub(crate) test_mirrors: Vec<Option<TestId>>,
    // The content interners, keyed on the hash the payload carries.
    pub(crate) test_intern: FxHashMap<Shared<Test>, TestId>,
    pub(crate) leaf_intern: FxHashMap<Shared<Leaf>, NodeId>,
    pub(crate) branch_intern: FxHashMap<(TestId, NodeId, NodeId), NodeId>,
    // Interned composition contexts: `CtxId(i + 1)` is `ctxs[i]`, its parent
    // context plus one fact (the empty context has no entry).
    pub(crate) ctxs: Vec<CtxFact>,
    pub(crate) ctx_intern: FxHashMap<(CtxId, TestId, bool), CtxId>,
    // What a (non-empty) context implies about a test, per pair asked:
    // contexts are immutable, so an answer never goes stale.
    pub(crate) ctx_answers: FxHashMap<(CtxId, TestId), Option<bool>>,
    // Memo tables for the composition operators.
    pub(crate) union_memo: FxHashMap<(NodeId, NodeId, CtxId), NodeId>,
    pub(crate) seq_memo: FxHashMap<(NodeId, NodeId), Result<NodeId, crate::CompileError>>,
    pub(crate) negate_memo: FxHashMap<NodeId, NodeId>,
    pub(crate) restrict_memo: FxHashMap<(NodeId, TestId, bool), NodeId>,
}

impl Pool {
    /// A fresh pool for diagrams composed under the given state-variable
    /// order. The `{drop}` and `{id}` leaves are pre-interned.
    pub fn new(order: VarOrder) -> Pool {
        let mut pool = Pool {
            order,
            ..Pool::default()
        };
        let d = pool.leaf(Leaf::drop());
        let i = pool.leaf(Leaf::id());
        debug_assert_eq!(d, NodeId(0));
        debug_assert_eq!(i, NodeId(1));
        pool
    }

    /// The state-variable order this pool composes under.
    pub fn order(&self) -> &VarOrder {
        &self.order
    }

    /// The `{drop}` diagram.
    #[allow(clippy::should_implement_trait)]
    pub fn drop(&self) -> NodeId {
        NodeId(0)
    }

    /// The `{id}` diagram.
    pub fn id(&self) -> NodeId {
        NodeId(1)
    }

    /// Total number of interned nodes (across all diagrams in the pool).
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Is the pool empty? (Never true: `{drop}` and `{id}` are pre-interned.)
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Access a node.
    pub fn node(&self, id: NodeId) -> &Node {
        &self.nodes[id.index()]
    }

    /// Intern a leaf, returning the id of the canonical copy.
    pub fn leaf(&mut self, leaf: Leaf) -> NodeId {
        let leaf = Hashed::new(leaf);
        match self.leaf_intern.get(&leaf) {
            Some(&id) => id,
            None => self.push_leaf(leaf.into()),
        }
    }

    /// [`Pool::leaf`] on a payload that already exists (in this pool or
    /// another): a probe on its stored hash, and a handle copy when new.
    pub fn leaf_shared(&mut self, leaf: &Shared<Leaf>) -> NodeId {
        match self.leaf_intern.get(leaf) {
            Some(&id) => id,
            None => self.push_leaf(leaf.clone()),
        }
    }

    fn push_leaf(&mut self, leaf: Shared<Leaf>) -> NodeId {
        let id = self.push(Node::Leaf(leaf.clone()), TestId::LEAF);
        self.leaf_intern.insert(leaf, id);
        id
    }

    /// Intern a branch. Collapses to the child when both branches are the
    /// same node (id equality, thanks to hash-consing) — the classic BDD
    /// reduction rule.
    pub fn branch(&mut self, test: Test, tru: NodeId, fls: NodeId) -> NodeId {
        let test = self.intern_test(test);
        self.branch_id(test, tru, fls)
    }

    /// [`Pool::branch`] on a test payload that already exists (see
    /// [`Pool::leaf_shared`]).
    pub fn branch_shared(&mut self, test: &Shared<Test>, tru: NodeId, fls: NodeId) -> NodeId {
        let test = match self.test_intern.get(test) {
            Some(&id) => id,
            None => self.push_test(test.clone()),
        };
        self.branch_id(test, tru, fls)
    }

    /// [`Pool::branch`] on an already interned test.
    pub(crate) fn branch_id(&mut self, test: TestId, tru: NodeId, fls: NodeId) -> NodeId {
        if tru == fls {
            return tru;
        }
        if let Some(&id) = self.branch_intern.get(&(test, tru, fls)) {
            return id;
        }
        let node = Node::Branch {
            test: self.tests[test.index()].clone(),
            tru,
            fls,
        };
        let id = self.push(node, test);
        self.branch_intern.insert((test, tru, fls), id);
        id
    }

    // Invariant: a branch can only be interned once both children exist, so a
    // node's children always have *strictly smaller* indices. Compaction
    // ([`Pool::compact`]) and the wire decoder rely on this to process nodes
    // in index order with children already handled.
    fn push(&mut self, node: Node, test: TestId) -> NodeId {
        let id = u32::try_from(self.nodes.len()).expect("xFDD pool node count overflow");
        self.nodes.push(node);
        self.node_tests.push(test);
        NodeId(id)
    }

    // -----------------------------------------------------------------------
    // Interned tests
    // -----------------------------------------------------------------------

    /// The id of a test, interning it on first sight.
    pub(crate) fn intern_test(&mut self, test: Test) -> TestId {
        let test = Hashed::new(test);
        match self.test_intern.get(&test) {
            Some(&id) => id,
            None => self.push_test(test.into()),
        }
    }

    fn push_test(&mut self, test: Shared<Test>) -> TestId {
        let id = TestId::new(self.tests.len());
        let mirror = match &**test {
            Test::FieldField(f, g) if f != g => {
                self.test_id(Test::FieldField(g.clone(), f.clone()))
            }
            _ => None,
        };
        if let Some(m) = mirror {
            self.test_mirrors[m.index()] = Some(id);
        }
        self.test_mirrors.push(mirror);
        self.tests.push(test.clone());
        self.test_intern.insert(test, id);
        id
    }

    /// The id of a test, if the pool has seen it.
    pub(crate) fn test_id(&self, test: Test) -> Option<TestId> {
        self.test_intern.get(&Hashed::new(test)).copied()
    }

    /// An interned test.
    pub(crate) fn test(&self, id: TestId) -> &Test {
        &self.tests[id.index()]
    }

    /// The id of a branch node's test.
    pub(crate) fn node_test(&self, n: NodeId) -> TestId {
        let id = self.node_tests[n.index()];
        debug_assert!(id != TestId::LEAF, "node_test called on a leaf");
        id
    }

    /// Compare two interned tests under the pool's variable order.
    pub(crate) fn cmp_tests(&self, a: TestId, b: TestId) -> std::cmp::Ordering {
        if a == b {
            return std::cmp::Ordering::Equal;
        }
        self.test(a).cmp_in(self.test(b), &self.order)
    }

    // -----------------------------------------------------------------------
    // Structural queries — all built on two shared walkers so there is one
    // DFS implementation to get right: `visit_reachable` (top-down, preorder,
    // multi-root, early exit) and `fold_reachable` (bottom-up, children
    // folded before parents). The GC mark phase, the pool-to-pool import and
    // the wire encoder reuse the same walkers.
    // -----------------------------------------------------------------------

    /// Visit every *distinct* node reachable from the given roots exactly
    /// once, in preorder (a parent before its children, the true child before
    /// the false child). Return `false` from the callback to stop the walk
    /// early.
    pub fn visit_reachable<I, F>(&self, roots: I, mut f: F)
    where
        I: IntoIterator<Item = NodeId>,
        F: FnMut(NodeId, &Node) -> bool,
    {
        // Small arenas get a dense seen-bitmap; large ones (a long-lived
        // session pool can hold hundreds of thousands of nodes) a hash set,
        // so querying a small diagram stays O(diagram), not O(arena).
        let mut seen = SeenSet::with_arena_len(self.nodes.len());
        // Roots are pushed in reverse so they are visited in argument order.
        let mut stack: Vec<NodeId> = roots.into_iter().collect();
        stack.reverse();
        while let Some(n) = stack.pop() {
            if seen.insert(n) {
                continue;
            }
            let node = self.node(n);
            if !f(n, node) {
                return;
            }
            if let Node::Branch { tru, fls, .. } = node {
                // Push false first so the true child is visited first.
                stack.push(*fls);
                stack.push(*tru);
            }
        }
    }

    /// Fold the diagram bottom-up: `f` is called exactly once per distinct
    /// reachable node, with the already-computed results of its children
    /// (`None` for leaves), and the root's result is returned.
    pub fn fold_reachable<T, F>(&self, root: NodeId, mut f: F) -> T
    where
        F: FnMut(NodeId, &Node, Option<(&T, &T)>) -> T,
    {
        let mut memo: FxHashMap<NodeId, T> = FxHashMap::default();
        let mut stack = vec![root];
        while let Some(&n) = stack.last() {
            if memo.contains_key(&n) {
                stack.pop();
                continue;
            }
            let node = self.node(n);
            match node {
                Node::Leaf(_) => {
                    let v = f(n, node, None);
                    memo.insert(n, v);
                    stack.pop();
                }
                Node::Branch { tru, fls, .. } => match (memo.get(tru), memo.get(fls)) {
                    (Some(t), Some(fv)) => {
                        let v = f(n, node, Some((t, fv)));
                        memo.insert(n, v);
                        stack.pop();
                    }
                    (t, fv) => {
                        if fv.is_none() {
                            stack.push(*fls);
                        }
                        if t.is_none() {
                            stack.push(*tru);
                        }
                    }
                },
            }
        }
        memo.remove(&root)
            .expect("fold_reachable computed the root")
    }

    /// Number of *distinct* nodes reachable from `root` (the arena size of
    /// the diagram — what sharing actually stores).
    pub fn size(&self, root: NodeId) -> usize {
        let mut n = 0;
        self.visit_reachable([root], |_, _| {
            n += 1;
            true
        });
        n
    }

    /// Number of nodes the diagram would occupy as an unshared tree (every
    /// occurrence counted with multiplicity, saturating at `u64::MAX`). The
    /// baseline against which sharing is measured.
    pub fn tree_size(&self, root: NodeId) -> u64 {
        self.fold_reachable(root, |_, _, kids| match kids {
            None => 1u64,
            Some((t, f)) => 1u64.saturating_add(*t).saturating_add(*f),
        })
    }

    /// Number of distinct branch (test) nodes reachable from `root`.
    pub fn num_tests(&self, root: NodeId) -> usize {
        let mut n = 0;
        self.visit_reachable([root], |_, node| {
            if matches!(node, Node::Branch { .. }) {
                n += 1;
            }
            true
        });
        n
    }

    /// Depth of the diagram (a single leaf has depth 1).
    pub fn depth(&self, root: NodeId) -> usize {
        self.fold_reachable::<usize, _>(root, |_, _, kids| match kids {
            None => 1,
            Some((t, f)) => 1 + *t.max(f),
        })
    }

    /// The distinct nodes reachable from `root`, in preorder.
    pub fn reachable(&self, root: NodeId) -> Vec<NodeId> {
        let mut order = Vec::new();
        self.visit_reachable([root], |id, _| {
            order.push(id);
            true
        });
        order
    }

    /// All state variables referenced anywhere in the diagram (tests and
    /// leaf actions).
    pub fn state_vars(&self, root: NodeId) -> BTreeSet<StateVar> {
        let mut out = BTreeSet::new();
        self.visit_reachable([root], |_, node| {
            match node {
                Node::Leaf(leaf) => out.extend(leaf.written_vars()),
                Node::Branch { test, .. } => {
                    if let Some(v) = test.state_var() {
                        out.insert(v.clone());
                    }
                }
            }
            true
        });
        out
    }

    /// Check the ordering invariant: along every root-to-leaf path, tests are
    /// strictly increasing under the pool's variable order.
    pub fn is_well_formed(&self, root: NodeId) -> bool {
        // A node's validity depends only on the nearest preceding test, so
        // (node, prev) pairs can be memoized; the DAG is then checked without
        // enumerating its (possibly exponential) path set.
        let mut ok: FxHashSet<(NodeId, Option<TestId>)> = FxHashSet::default();
        self.well_formed_from(root, None, &mut ok)
    }

    fn well_formed_from(
        &self,
        n: NodeId,
        prev: Option<TestId>,
        ok: &mut FxHashSet<(NodeId, Option<TestId>)>,
    ) -> bool {
        let key = (n, prev);
        if ok.contains(&key) {
            return true;
        }
        let valid = match self.node(n) {
            Node::Leaf(_) => true,
            Node::Branch { tru, fls, .. } => {
                let test = self.node_test(n);
                if let Some(p) = prev {
                    if self.cmp_tests(p, test) != std::cmp::Ordering::Less {
                        return false;
                    }
                }
                self.well_formed_from(*tru, Some(test), ok)
                    && self.well_formed_from(*fls, Some(test), ok)
            }
        };
        if valid {
            ok.insert(key);
        }
        valid
    }

    /// If any leaf encodes a parallel race (two action sequences writing the
    /// same state variable), return that variable.
    pub fn find_race(&self, root: NodeId) -> Option<StateVar> {
        let mut found = None;
        self.visit_reachable([root], |_, node| {
            if let Node::Leaf(leaf) = node {
                if let Some(var) = leaf.parallel_race() {
                    found = Some(var);
                    return false;
                }
            }
            true
        });
        found
    }

    // -----------------------------------------------------------------------
    // Evaluation and path enumeration
    // -----------------------------------------------------------------------

    /// Run the diagram on a packet and store: walk tests to a leaf, then
    /// apply the leaf's action sequences. A test oracle over a by-name
    /// [`Store`] (translation is checked against `snap_lang::eval` through
    /// it); no plane calls it.
    pub fn evaluate(
        &self,
        root: NodeId,
        pkt: &Packet,
        store: &Store,
    ) -> Result<(BTreeSet<Packet>, Store), EvalError> {
        let mut cur = root;
        loop {
            match self.node(cur) {
                Node::Leaf(leaf) => return leaf.apply(pkt, store),
                Node::Branch { test, tru, fls } => {
                    cur = if eval_test(test, pkt, store)? {
                        *tru
                    } else {
                        *fls
                    };
                }
            }
        }
    }

    /// Enumerate all root-to-leaf paths as `(tests-with-outcomes, leaf)`.
    /// A test oracle only (see the module docs): it expands sharing, so the
    /// number of paths can be exponential in the number of *nodes*, and it
    /// clones the whole test prefix at every leaf.
    pub fn paths(&self, root: NodeId) -> Vec<(Vec<(Test, bool)>, &Leaf)> {
        let mut out = Vec::new();
        let mut prefix = Vec::new();
        self.collect_paths(root, &mut prefix, &mut out);
        out
    }

    fn collect_paths<'a>(
        &'a self,
        n: NodeId,
        prefix: &mut Vec<(Test, bool)>,
        out: &mut Vec<(Vec<(Test, bool)>, &'a Leaf)>,
    ) {
        match self.node(n) {
            Node::Leaf(leaf) => out.push((prefix.clone(), leaf)),
            Node::Branch { test, tru, fls } => {
                prefix.push((Test::clone(test), true));
                self.collect_paths(*tru, prefix, out);
                prefix.pop();
                prefix.push((Test::clone(test), false));
                self.collect_paths(*fls, prefix, out);
                prefix.pop();
            }
        }
    }

    /// Render the diagram rooted at `root` as an indented tree (for
    /// debugging, examples and the Figure 3 reproduction binary).
    pub fn render(&self, root: NodeId) -> String {
        let mut out = String::new();
        self.render_into(root, 0, &mut out);
        out
    }

    fn render_into(&self, n: NodeId, depth: usize, out: &mut String) {
        let pad = "  ".repeat(depth);
        match self.node(n) {
            Node::Leaf(leaf) => {
                out.push_str(&format!("{pad}{leaf:?}\n"));
            }
            Node::Branch { test, tru, fls } => {
                out.push_str(&format!("{pad}{test:?} ?\n"));
                self.render_into(*tru, depth + 1, out);
                out.push_str(&format!("{pad}:\n"));
                self.render_into(*fls, depth + 1, out);
            }
        }
    }

    /// Render a node as a debug string (expands sharing; test helper).
    pub fn debug(&self, n: NodeId) -> String {
        match self.node(n) {
            Node::Leaf(l) => format!("{l:?}"),
            Node::Branch { test, tru, fls } => {
                format!("({test:?} ? {} : {})", self.debug(*tru), self.debug(*fls))
            }
        }
    }
}

/// Visited-set for the shared walkers: dense bitmap for small arenas (no
/// hashing), hash set for large ones (no O(arena) allocation per query).
enum SeenSet {
    Dense(Vec<bool>),
    Sparse(FxHashSet<NodeId>),
}

impl SeenSet {
    const DENSE_LIMIT: usize = 1 << 14;

    fn with_arena_len(len: usize) -> SeenSet {
        if len <= Self::DENSE_LIMIT {
            SeenSet::Dense(vec![false; len])
        } else {
            SeenSet::Sparse(FxHashSet::default())
        }
    }

    /// Mark a node, returning whether it was already marked.
    fn insert(&mut self, n: NodeId) -> bool {
        match self {
            SeenSet::Dense(v) => std::mem::replace(&mut v[n.index()], true),
            SeenSet::Sparse(s) => !s.insert(n),
        }
    }
}

/// Evaluate one test against a packet and store.
pub fn eval_test(test: &Test, pkt: &Packet, store: &Store) -> Result<bool, EvalError> {
    match test {
        Test::FieldValue(f, v) => Ok(match pkt.get(f) {
            Some(actual) => v.matches(actual),
            None => false,
        }),
        Test::FieldField(f, g) => Ok(match (pkt.get(f), pkt.get(g)) {
            (Some(a), Some(b)) => a == b,
            _ => false,
        }),
        Test::State { var, index, value } => {
            let idx = eval_index(index, pkt)?;
            let expected = eval_expr(value, pkt)?;
            Ok(store.get(var, &idx) == expected)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::action::Action;
    use snap_lang::{Field, Value};

    fn pool() -> Pool {
        Pool::new(VarOrder::empty())
    }

    #[test]
    fn leaves_and_branches_are_interned() {
        let mut p = pool();
        let a = p.leaf(Leaf::single(Action::Modify(Field::OutPort, Value::Int(1))));
        let b = p.leaf(Leaf::single(Action::Modify(Field::OutPort, Value::Int(1))));
        assert_eq!(a, b);
        let t = Test::FieldValue(Field::SrcPort, Value::Int(53));
        let x = p.branch(t.clone(), a, p.drop());
        let y = p.branch(t, a, p.drop());
        assert_eq!(x, y);
        // Interning means the second build added no nodes.
        assert_eq!(p.size(x), 3);
    }

    #[test]
    fn branch_collapses_equal_children() {
        let mut p = pool();
        let id = p.id();
        let d = p.branch(Test::FieldValue(Field::SrcPort, Value::Int(53)), id, id);
        assert_eq!(d, id);
        assert_eq!(p.size(d), 1);
    }

    #[test]
    fn shared_subdiagrams_store_fewer_nodes_than_the_tree() {
        let mut p = pool();
        // (dstport = 80 ? out : drop), referenced from both sides of an outer
        // branch: 4 distinct nodes, 7 as a tree.
        let out = p.leaf(Leaf::single(Action::Modify(Field::OutPort, Value::Int(1))));
        let drop = p.drop();
        let shared = p.branch(Test::FieldValue(Field::DstPort, Value::Int(80)), out, drop);
        let top = p.branch(
            Test::FieldValue(Field::SrcPort, Value::Int(53)),
            shared,
            shared,
        );
        // Equal children collapse entirely...
        assert_eq!(top, shared);
        // ...so force distinct children that still share `out` and `drop`.
        let alt = p.branch(Test::FieldValue(Field::DstPort, Value::Int(443)), out, drop);
        let top = p.branch(
            Test::FieldValue(Field::SrcPort, Value::Int(53)),
            shared,
            alt,
        );
        assert_eq!(p.size(top), 5);
        assert_eq!(p.tree_size(top), 7);
        assert!(p.size(top) < p.tree_size(top) as usize);
    }

    #[test]
    fn contexts_are_interned() {
        let mut p = pool();
        let t = p.intern_test(Test::FieldValue(Field::SrcPort, Value::Int(53)));
        let u = p.intern_test(Test::FieldValue(Field::DstPort, Value::Int(80)));
        let a = p.ctx_with(CtxId::EMPTY, t, true);
        assert_eq!(p.ctx_with(CtxId::EMPTY, t, true), a);
        let c = p.ctx_with(CtxId::EMPTY, t, false);
        assert_ne!(a, c);
        assert_eq!(p.ctx_implies(a, t), Some(true));
        assert_eq!(p.ctx_implies(c, t), Some(false));
        assert_eq!(p.ctx_implies(CtxId::EMPTY, t), None);
        // Extending stores one fact, whatever the parent's depth.
        let before = p.ctxs.len();
        let deep = p.ctx_with(a, u, true);
        assert_eq!(p.ctxs.len(), before + 1);
        assert_eq!(p.ctx_implies(deep, t), Some(true));
        assert_eq!(p.ctx_implies(deep, u), Some(true));
        assert_eq!(p.ctx_implies(a, u), None);
    }

    #[test]
    fn tests_are_interned_once_and_shared_by_nodes() {
        let mut p = pool();
        let t = Test::FieldValue(Field::SrcPort, Value::Int(53));
        assert_eq!(p.test_id(t.clone()), None);
        let (id, drop) = (p.id(), p.drop());
        let x = p.branch(t.clone(), id, drop);
        let y = p.branch(t.clone(), drop, id);
        let tid = p.test_id(t.clone()).expect("interned by branch");
        assert_eq!(p.intern_test(t.clone()), tid);
        assert_eq!(p.node_test(x), tid);
        assert_eq!(p.node_test(y), tid);
        assert_eq!(p.test(tid), &t);
        // The id-keyed constructor lands on the same nodes.
        assert_eq!(p.branch_id(tid, id, drop), x);
        let other = p.intern_test(Test::FieldValue(Field::SrcPort, Value::Int(80)));
        assert_ne!(other, tid);
        assert_eq!(p.cmp_tests(tid, other), std::cmp::Ordering::Less);
        assert_eq!(p.cmp_tests(tid, tid), std::cmp::Ordering::Equal);
    }

    #[test]
    fn reachable_is_preorder_from_root() {
        let mut p = pool();
        let id = p.id();
        let drop = p.drop();
        let inner = p.branch(Test::FieldValue(Field::DstPort, Value::Int(80)), id, drop);
        let root = p.branch(
            Test::FieldValue(Field::SrcPort, Value::Int(53)),
            inner,
            drop,
        );
        let order = p.reachable(root);
        assert_eq!(order[0], root);
        assert_eq!(order.len(), 4);
        // Every child id appears after its parent id in the order.
        let pos = |n: NodeId| order.iter().position(|&x| x == n).unwrap();
        assert!(pos(inner) > pos(root));
        assert!(pos(id) > pos(inner));
    }

    #[test]
    fn depth_and_num_tests() {
        let mut p = pool();
        let id = p.id();
        let drop = p.drop();
        let inner = p.branch(Test::FieldValue(Field::DstPort, Value::Int(80)), id, drop);
        let root = p.branch(
            Test::FieldValue(Field::SrcPort, Value::Int(53)),
            inner,
            drop,
        );
        assert_eq!(p.depth(root), 3);
        assert_eq!(p.num_tests(root), 2);
        assert_eq!(p.depth(p.id()), 1);
        assert_eq!(p.num_tests(p.id()), 0);
    }
}
