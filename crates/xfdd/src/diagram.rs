//! The finished, shareable xFDD: a root [`NodeId`] plus its [`Pool`].
//!
//! During compilation, diagrams are plain [`NodeId`]s into a mutable [`Pool`]
//! (see [`crate::pool`]); once composition finishes, the pool is frozen into
//! an [`Xfdd`] — an `Arc`-shared, immutable view. Cloning an [`Xfdd`] is an
//! `Arc` bump, which is how every switch in the data plane can "carry the
//! full diagram" (§4.5) without duplicating a single node: the interned ids
//! *are* the packet-tag node identifiers, so distributed execution resumes
//! processing at a [`NodeId`] directly.

use crate::action::Leaf;
use crate::flat::FlatProgram;
use crate::pool::{Node, NodeId, Pool};
use crate::test::Test;
use snap_lang::{EvalError, Packet, StateVar, Store};
use std::collections::BTreeSet;
use std::fmt;
use std::sync::Arc;

pub use crate::pool::eval_test;

/// A finished extended forwarding decision diagram: an immutable, cheaply
/// clonable handle on a root node inside a frozen [`Pool`].
#[derive(Clone)]
pub struct Xfdd {
    pool: Arc<Pool>,
    root: NodeId,
}

impl Xfdd {
    /// Freeze a pool around a root node.
    pub fn new(pool: Pool, root: NodeId) -> Xfdd {
        Xfdd {
            pool: Arc::new(pool),
            root,
        }
    }

    /// A handle on another root of the same (already frozen) pool.
    pub fn with_root(&self, root: NodeId) -> Xfdd {
        Xfdd {
            pool: Arc::clone(&self.pool),
            root,
        }
    }

    /// The diagram's root node id.
    pub fn root(&self) -> NodeId {
        self.root
    }

    /// The underlying pool.
    pub fn pool(&self) -> &Pool {
        &self.pool
    }

    /// Access a node by id.
    pub fn node(&self, id: NodeId) -> &Node {
        self.pool.node(id)
    }

    /// The root node's leaf, if the whole diagram is a single leaf.
    pub fn as_leaf(&self) -> Option<&Leaf> {
        match self.node(self.root) {
            Node::Leaf(l) => Some(l),
            Node::Branch { .. } => None,
        }
    }

    /// Number of distinct nodes reachable from the root (what sharing
    /// actually stores).
    pub fn size(&self) -> usize {
        self.pool.size(self.root)
    }

    /// Number of nodes the diagram would occupy as an unshared tree — the
    /// pre-hash-consing baseline (saturating).
    pub fn tree_size(&self) -> u64 {
        self.pool.tree_size(self.root)
    }

    /// Number of distinct branch (test) nodes.
    pub fn num_tests(&self) -> usize {
        self.pool.num_tests(self.root)
    }

    /// Depth of the diagram (a single leaf has depth 1).
    pub fn depth(&self) -> usize {
        self.pool.depth(self.root)
    }

    /// The distinct nodes reachable from the root, in preorder.
    pub fn reachable(&self) -> Vec<NodeId> {
        self.pool.reachable(self.root)
    }

    /// All state variables referenced anywhere in the diagram (tests and
    /// leaf actions).
    pub fn state_vars(&self) -> BTreeSet<StateVar> {
        self.pool.state_vars(self.root)
    }

    /// Check the ordering invariant against the pool's variable order.
    pub fn is_well_formed(&self) -> bool {
        self.pool.is_well_formed(self.root)
    }

    /// If any leaf encodes a parallel race, return that variable.
    pub fn find_race(&self) -> Option<StateVar> {
        self.pool.find_race(self.root)
    }

    /// Run the diagram on a packet and store: walk tests to a leaf, then
    /// apply the leaf's action sequences ([`Pool::evaluate`] from the
    /// root). A test oracle over a by-name [`Store`]; no plane calls it.
    pub fn evaluate(
        &self,
        pkt: &Packet,
        store: &Store,
    ) -> Result<(BTreeSet<Packet>, Store), EvalError> {
        self.pool.evaluate(self.root, pkt, store)
    }

    /// Enumerate all root-to-leaf paths as `(tests-with-outcomes, leaf)` —
    /// a test oracle, not a compiler phase (see [`Pool::paths`]).
    pub fn paths(&self) -> Vec<(Vec<(Test, bool)>, &Leaf)> {
        self.pool.paths(self.root)
    }

    /// Lower the reachable subgraph into a dense, child-first
    /// [`FlatProgram`] — the representation the dataplane executes and
    /// NetASM lowering consumes (see [`crate::flat`]).
    pub fn flatten(&self) -> FlatProgram {
        FlatProgram::from_pool(&self.pool, self.root)
    }

    /// Render the diagram as an indented tree (for debugging, examples and
    /// the Figure 3 reproduction binary).
    pub fn render(&self) -> String {
        self.pool.render(self.root)
    }
}

impl fmt::Debug for Xfdd {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.pool.debug(self.root))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::action::{Action, ActionSeq};
    use crate::test::VarOrder;
    use snap_lang::builder::field;
    use snap_lang::{Field, Value};

    fn sv(s: &str) -> StateVar {
        StateVar::new(s)
    }

    fn simple_branch() -> Xfdd {
        let mut p = Pool::new(VarOrder::empty());
        let out = p.leaf(Leaf::single(Action::Modify(Field::OutPort, Value::Int(6))));
        let drop = p.drop();
        let root = p.branch(Test::FieldValue(Field::SrcPort, Value::Int(53)), out, drop);
        Xfdd::new(p, root)
    }

    #[test]
    fn size_depth_and_tests() {
        let d = simple_branch();
        assert_eq!(d.size(), 3);
        assert_eq!(d.tree_size(), 3);
        assert_eq!(d.num_tests(), 1);
        assert_eq!(d.depth(), 2);
        assert!(d.as_leaf().is_none());
        let id = d.with_root(d.pool().id());
        assert_eq!(id.depth(), 1);
        assert!(id.as_leaf().is_some());
    }

    #[test]
    fn evaluate_walks_to_the_right_leaf() {
        let d = simple_branch();
        let dns = Packet::new().with(Field::SrcPort, 53);
        let other = Packet::new().with(Field::SrcPort, 80);
        let (pkts, _) = d.evaluate(&dns, &Store::new()).unwrap();
        assert_eq!(pkts.len(), 1);
        assert_eq!(
            pkts.iter().next().unwrap().get(&Field::OutPort),
            Some(&Value::Int(6))
        );
        let (pkts, _) = d.evaluate(&other, &Store::new()).unwrap();
        assert!(pkts.is_empty());
    }

    #[test]
    fn evaluate_state_test() {
        let mut p = Pool::new(VarOrder::empty());
        let id = p.id();
        let drop = p.drop();
        let root = p.branch(
            Test::State {
                var: sv("blacklist"),
                index: vec![field(Field::SrcIp)],
                value: snap_lang::Expr::Value(Value::Bool(true)),
            },
            drop,
            id,
        );
        let d = Xfdd::new(p, root);
        let pkt = Packet::new().with(Field::SrcIp, Value::ip(10, 0, 6, 5));
        let (pkts, _) = d.evaluate(&pkt, &Store::new()).unwrap();
        assert_eq!(pkts.len(), 1);
        let mut store = Store::new();
        store.set(
            &sv("blacklist"),
            vec![Value::ip(10, 0, 6, 5)],
            Value::Bool(true),
        );
        let (pkts, _) = d.evaluate(&pkt, &store).unwrap();
        assert!(pkts.is_empty());
    }

    #[test]
    fn field_field_test_requires_both_fields() {
        let t = Test::FieldField(Field::SrcIp, Field::DstIp);
        let both_equal = Packet::new()
            .with(Field::SrcIp, Value::ip(1, 1, 1, 1))
            .with(Field::DstIp, Value::ip(1, 1, 1, 1));
        let different = Packet::new()
            .with(Field::SrcIp, Value::ip(1, 1, 1, 1))
            .with(Field::DstIp, Value::ip(2, 2, 2, 2));
        let missing = Packet::new().with(Field::SrcIp, Value::ip(1, 1, 1, 1));
        let store = Store::new();
        assert!(eval_test(&t, &both_equal, &store).unwrap());
        assert!(!eval_test(&t, &different, &store).unwrap());
        assert!(!eval_test(&t, &missing, &store).unwrap());
    }

    #[test]
    fn well_formedness_checks_ordering() {
        let mut p = Pool::new(VarOrder::empty());
        let id = p.id();
        let drop = p.drop();
        let inner_good = p.branch(Test::FieldField(Field::SrcIp, Field::DstIp), id, drop);
        let good = p.branch(
            Test::FieldValue(Field::DstIp, Value::ip(1, 1, 1, 1)),
            inner_good,
            drop,
        );
        assert!(p.is_well_formed(good));
        let inner_bad = p.branch(
            Test::FieldValue(Field::DstIp, Value::ip(1, 1, 1, 1)),
            id,
            drop,
        );
        let bad = p.branch(
            Test::FieldField(Field::SrcIp, Field::DstIp),
            inner_bad,
            drop,
        );
        assert!(!p.is_well_formed(bad));
        // A repeated test along a path is also ill-formed.
        let dup = p.branch(
            Test::FieldValue(Field::DstIp, Value::ip(1, 1, 1, 1)),
            inner_bad,
            drop,
        );
        assert!(!p.is_well_formed(dup));
    }

    #[test]
    fn paths_enumeration() {
        let d = simple_branch();
        let paths = d.paths();
        assert_eq!(paths.len(), 2);
        assert_eq!(paths[0].0.len(), 1);
        assert!(paths[0].0[0].1);
        assert!(!paths[1].0[0].1);
        assert!(paths[1].1.is_drop());
    }

    #[test]
    fn race_detection_walks_all_leaves() {
        let mut p = Pool::new(VarOrder::empty());
        let mut racy = Leaf::drop();
        racy.0.insert(ActionSeq::single(Action::StateSet {
            var: sv("s"),
            index: vec![],
            value: snap_lang::Expr::Value(Value::Int(1)),
        }));
        racy.0.insert(ActionSeq::single(Action::StateSet {
            var: sv("s"),
            index: vec![],
            value: snap_lang::Expr::Value(Value::Int(2)),
        }));
        let racy_leaf = p.leaf(racy);
        let id = p.id();
        let root = p.branch(
            Test::FieldValue(Field::SrcPort, Value::Int(1)),
            id,
            racy_leaf,
        );
        let d = Xfdd::new(p, root);
        assert_eq!(d.find_race(), Some(sv("s")));
        assert_eq!(simple_branch().find_race(), None);
    }

    #[test]
    fn render_contains_tests_and_leaves() {
        let text = simple_branch().render();
        assert!(text.contains("srcport = 53"));
        assert!(text.contains("outport <- 6"));
        assert!(text.contains("{drop}"));
    }

    #[test]
    fn state_vars_collected_from_tests_and_leaves() {
        let mut p = Pool::new(VarOrder::empty());
        let incr = p.leaf(Leaf::single(Action::StateIncr {
            var: sv("write-me"),
            index: vec![],
        }));
        let drop = p.drop();
        let root = p.branch(
            Test::State {
                var: sv("read-me"),
                index: vec![],
                value: snap_lang::Expr::Value(Value::Int(0)),
            },
            incr,
            drop,
        );
        let d = Xfdd::new(p, root);
        let vars = d.state_vars();
        assert!(vars.contains(&sv("read-me")));
        assert!(vars.contains(&sv("write-me")));
        assert_eq!(vars.len(), 2);
    }

    #[test]
    fn clones_share_the_pool() {
        let d = simple_branch();
        let e = d.clone();
        assert!(std::ptr::eq(d.pool(), e.pool()));
        assert_eq!(d.root(), e.root());
    }
}
