//! Pool garbage collection: a mark-from-roots compactor.
//!
//! A long-lived pool (incremental compilation sessions) accumulates dead
//! intermediate nodes: every composition interns its partial results, and a
//! superseded policy version leaves its whole diagram behind. [`Pool::compact`]
//! reclaims that memory in place:
//!
//! 1. **mark** — the shared preorder walker marks every node reachable from
//!    the given roots (plus the pre-interned `{drop}`/`{id}` leaves, which
//!    must keep their fixed ids 0 and 1);
//! 2. **sweep** — live nodes are rewritten into a fresh arena in index order.
//!    Children always have smaller indices than their parents (see the `push`
//!    invariant), so child ids are already remapped when a branch is visited;
//! 3. **rebuild** — memo-table entries whose operands, results or contexts
//!    died are cleared and surviving entries remapped; the interned contexts
//!    are compacted the same way (a context is live when a surviving union
//!    memo entry references it, and then so are its ancestors), then the
//!    interned tests (live when a surviving node, context or restriction
//!    memo entry holds them), and the leaf/branch interners are
//!    reconstructed from the new arena. The contexts' kept answers
//!    (`Pool::ctx_implies`) are remapped to the new context and test ids,
//!    and dropped where either died.
//!
//! The returned [`RemapTable`] translates old ids to new ones so callers (a
//! compiler session's fingerprint cache, for example) can rewrite the ids
//! they hold; ids of collected nodes translate to `None`.

use crate::pool::{CtxId, Node, NodeId, Pool, TestId};

/// Old-id → new-id translation produced by [`Pool::compact`].
#[derive(Clone, Debug, Default)]
pub struct RemapTable {
    nodes: Vec<Option<NodeId>>,
    ctxs: Vec<Option<CtxId>>,
    live_nodes: usize,
}

impl RemapTable {
    /// The new id of a node, or `None` if it was collected (or the id is
    /// from a different pool generation).
    pub fn node(&self, old: NodeId) -> Option<NodeId> {
        self.nodes.get(old.index()).copied().flatten()
    }

    /// The new id of an interned context, or `None` if it was collected.
    pub fn ctx(&self, old: CtxId) -> Option<CtxId> {
        self.ctxs.get(old.index()).copied().flatten()
    }

    /// Number of nodes in the pool before compaction.
    pub fn nodes_before(&self) -> usize {
        self.nodes.len()
    }

    /// Number of nodes that survived.
    pub fn nodes_after(&self) -> usize {
        self.live_nodes
    }

    /// Number of nodes reclaimed.
    pub fn nodes_reclaimed(&self) -> usize {
        self.nodes_before() - self.nodes_after()
    }
}

impl Pool {
    /// Compact the pool in place, keeping only nodes reachable from `roots`
    /// (plus the pre-interned `{drop}` and `{id}` leaves). Live nodes keep
    /// their relative order but are renumbered densely; the interners are
    /// rebuilt and stale memo entries cleared, so composition after a
    /// compaction behaves exactly as before (minus the cleared warm entries
    /// for collected diagrams). Never grows the pool.
    pub fn compact(&mut self, roots: &[NodeId]) -> RemapTable {
        // --- mark ------------------------------------------------------
        let mut live = vec![false; self.nodes.len()];
        live[self.drop().index()] = true;
        live[self.id().index()] = true;
        self.visit_reachable(roots.iter().copied(), |id, _| {
            live[id.index()] = true;
            true
        });

        // --- sweep -----------------------------------------------------
        // Children have smaller indices than parents, so one forward pass
        // can remap child links as it goes.
        let old_nodes = std::mem::take(&mut self.nodes);
        let old_node_tests = std::mem::take(&mut self.node_tests);
        let mut node_map: Vec<Option<NodeId>> = vec![None; old_nodes.len()];
        let live_nodes = live.iter().filter(|l| **l).count();
        self.nodes.reserve_exact(live_nodes);
        self.node_tests.reserve_exact(live_nodes);
        for (i, (node, test)) in old_nodes.into_iter().zip(old_node_tests).enumerate() {
            if !live[i] {
                continue;
            }
            let rewritten = match node {
                Node::Leaf(l) => Node::Leaf(l),
                Node::Branch { test, tru, fls } => Node::Branch {
                    test,
                    tru: node_map[tru.index()].expect("live child of live branch"),
                    fls: node_map[fls.index()].expect("live child of live branch"),
                },
            };
            node_map[i] = Some(NodeId(
                u32::try_from(self.nodes.len()).expect("compacted pool overflow"),
            ));
            self.nodes.push(rewritten);
            self.node_tests.push(test);
        }
        let nmap = |id: NodeId| node_map[id.index()];

        // --- contexts --------------------------------------------------
        // A context is live when a surviving union memo entry references it;
        // its ancestors must then survive too. Parents are created before
        // children, so one descending pass propagates liveness transitively.
        // (`CtxId(i + 1)` is `ctxs[i]`; the empty context is always live.)
        let mut ctx_live = vec![false; self.ctxs.len() + 1];
        ctx_live[CtxId::EMPTY.index()] = true;
        for ((a, b, ctx), r) in &self.union_memo {
            if nmap(*a).is_some() && nmap(*b).is_some() && nmap(*r).is_some() {
                ctx_live[ctx.index()] = true;
            }
        }
        for i in (1..ctx_live.len()).rev() {
            if ctx_live[i] {
                ctx_live[self.ctxs[i - 1].parent.index()] = true;
            }
        }
        let mut ctx_map: Vec<Option<CtxId>> = vec![None; ctx_live.len()];
        ctx_map[CtxId::EMPTY.index()] = Some(CtxId::EMPTY);
        let old_ctxs = std::mem::take(&mut self.ctxs);
        for (i, mut fact) in old_ctxs.into_iter().enumerate() {
            if ctx_live[i + 1] {
                fact.parent = ctx_map[fact.parent.index()].expect("live parent of live context");
                self.ctxs.push(fact);
                ctx_map[i + 1] = Some(CtxId::new(self.ctxs.len()));
            }
        }
        let cmap = |id: CtxId| ctx_map.get(id.index()).copied().flatten();

        // --- memo tables -----------------------------------------------
        let old_union = std::mem::take(&mut self.union_memo);
        for ((a, b, ctx), r) in old_union {
            if let (Some(a), Some(b), Some(ctx), Some(r)) = (nmap(a), nmap(b), cmap(ctx), nmap(r)) {
                self.union_memo.insert((a, b, ctx), r);
            }
        }
        let old_seq = std::mem::take(&mut self.seq_memo);
        for ((a, b), r) in old_seq {
            if let (Some(a), Some(b)) = (nmap(a), nmap(b)) {
                // Error results reference no nodes; they stay valid for as
                // long as their operands live.
                match r {
                    Ok(d) => {
                        if let Some(d) = nmap(d) {
                            self.seq_memo.insert((a, b), Ok(d));
                        }
                    }
                    Err(e) => {
                        self.seq_memo.insert((a, b), Err(e));
                    }
                }
            }
        }
        let old_negate = std::mem::take(&mut self.negate_memo);
        for (a, r) in old_negate {
            if let (Some(a), Some(r)) = (nmap(a), nmap(r)) {
                self.negate_memo.insert(a, r);
            }
        }
        let restrict_survives = |a: NodeId, r: NodeId| nmap(a).zip(nmap(r));

        // --- tests -----------------------------------------------------
        // Nodes, contexts and the restriction memo still name tests by their
        // old ids; a test is live when a surviving one of them does.
        // Renumber densely, keeping the order.
        let mut test_live = vec![false; self.tests.len()];
        for (node, test) in self.nodes.iter().zip(&self.node_tests) {
            if matches!(node, Node::Branch { .. }) {
                test_live[test.index()] = true;
            }
        }
        for fact in &self.ctxs {
            test_live[fact.test.index()] = true;
        }
        for ((a, test, _), r) in &self.restrict_memo {
            if restrict_survives(*a, *r).is_some() {
                test_live[test.index()] = true;
            }
        }
        let mut test_map: Vec<Option<TestId>> = vec![None; self.tests.len()];
        let old_tests = std::mem::take(&mut self.tests);
        let old_mirrors = std::mem::take(&mut self.test_mirrors);
        self.test_intern.clear();
        for (i, test) in old_tests.into_iter().enumerate() {
            if test_live[i] {
                let id = TestId::new(self.tests.len());
                test_map[i] = Some(id);
                self.test_intern.insert(test.clone(), id);
                self.tests.push(test);
                self.test_mirrors.push(old_mirrors[i]);
            }
        }
        for mirror in &mut self.test_mirrors {
            *mirror = mirror.and_then(|m| test_map[m.index()]);
        }
        let tmap = |id: TestId| test_map[id.index()].expect("live test");
        for (node, test) in self.nodes.iter().zip(&mut self.node_tests) {
            if matches!(node, Node::Branch { .. }) {
                *test = tmap(*test);
            }
        }
        for fact in &mut self.ctxs {
            fact.test = tmap(fact.test);
        }
        let old_restrict = std::mem::take(&mut self.restrict_memo);
        for ((a, test, positive), r) in old_restrict {
            if let Some((a, r)) = restrict_survives(a, r) {
                self.restrict_memo.insert((a, tmap(test), positive), r);
            }
        }
        // A kept answer still holds under the new numbering: its context
        // keeps every fact, and a mirror that died is named by no fact.
        let old_answers = std::mem::take(&mut self.ctx_answers);
        for ((ctx, test), answer) in old_answers {
            if let (Some(ctx), Some(test)) = (cmap(ctx), test_map[test.index()]) {
                self.ctx_answers.insert((ctx, test), answer);
            }
        }

        // --- rebuild interners -----------------------------------------
        self.leaf_intern.clear();
        self.branch_intern.clear();
        for (i, node) in self.nodes.iter().enumerate() {
            let id = NodeId(i as u32);
            match node {
                Node::Leaf(l) => {
                    self.leaf_intern.entry(l.clone()).or_insert(id);
                }
                Node::Branch { tru, fls, .. } => {
                    self.branch_intern
                        .entry((self.node_tests[i], *tru, *fls))
                        .or_insert(id);
                }
            }
        }
        self.ctx_intern.clear();
        for (i, fact) in self.ctxs.iter().enumerate() {
            self.ctx_intern
                .insert((fact.parent, fact.test, fact.outcome), CtxId::new(i + 1));
        }

        RemapTable {
            nodes: node_map,
            ctxs: ctx_map,
            live_nodes,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::action::{Action, Leaf};
    use crate::test::{Test, VarOrder};
    use snap_lang::{Field, Packet, Store, Value};

    fn pool() -> Pool {
        Pool::new(VarOrder::empty())
    }

    fn branch_on(p: &mut Pool, port: i64) -> NodeId {
        let id = p.id();
        let drop = p.drop();
        p.branch(Test::FieldValue(Field::SrcPort, Value::Int(port)), id, drop)
    }

    #[test]
    fn compact_drops_unreachable_nodes_and_keeps_roots() {
        let mut p = pool();
        let keep = branch_on(&mut p, 53);
        let dead = branch_on(&mut p, 80);
        let dead2 = p.union(dead, keep);
        assert!(p.len() >= 5);
        let before = p.len();

        let remap = p.compact(&[keep]);
        assert!(p.len() < before);
        assert_eq!(remap.nodes_reclaimed(), before - p.len());
        // drop/id keep their fixed ids.
        assert_eq!(remap.node(NodeId(0)), Some(NodeId(0)));
        assert_eq!(remap.node(NodeId(1)), Some(NodeId(1)));
        // The kept diagram survives and still evaluates.
        let keep2 = remap.node(keep).expect("root survives");
        let dns = Packet::new().with(Field::SrcPort, 53);
        assert_eq!(p.evaluate(keep2, &dns, &Store::new()).unwrap().0.len(), 1);
        // Collected diagrams translate to None.
        assert_eq!(remap.node(dead), None);
        assert_eq!(remap.node(dead2), None);
    }

    #[test]
    fn compacted_pool_reinterns_to_identical_structure() {
        let mut p = pool();
        let keep = branch_on(&mut p, 53);
        let _dead = branch_on(&mut p, 80);
        let out = p.leaf(Leaf::single(Action::Modify(Field::OutPort, Value::Int(1))));
        let root = p.branch(Test::FieldValue(Field::DstPort, Value::Int(443)), out, keep);

        let remap = p.compact(&[root]);
        let root2 = remap.node(root).unwrap();
        let len = p.len();
        // Re-interning every live node must hit the rebuilt interners: same
        // ids, no growth.
        for id in p.reachable(root2) {
            match p.node(id).clone() {
                Node::Leaf(l) => assert_eq!(p.leaf(Leaf::clone(&l)), id),
                Node::Branch { test, tru, fls } => {
                    assert_eq!(p.branch(Test::clone(&test), tru, fls), id)
                }
            }
        }
        assert_eq!(p.len(), len, "re-interning grew the compacted pool");
    }

    #[test]
    fn warm_memo_entries_for_live_diagrams_survive_compaction() {
        let mut p = pool();
        let a = branch_on(&mut p, 53);
        let b = branch_on(&mut p, 80);
        let u = p.union(a, b);
        let remap = p.compact(&[a, b, u]);
        let (a2, b2) = (remap.node(a).unwrap(), remap.node(b).unwrap());
        let len = p.len();
        // The union is a memo hit after compaction: same result, no growth.
        assert_eq!(p.union(a2, b2), remap.node(u).unwrap());
        assert_eq!(p.len(), len);
    }

    #[test]
    fn kept_context_answers_follow_the_renumbering() {
        // Unions of `f = v ? {outport ← v} : {id}` ask their contexts about
        // the tests below them. The dead diagram is composed first, so its
        // contexts and tests hold the low ids and the survivors are renumbered.
        let mut p = pool();
        let union_of = |p: &mut Pool, tests: &[(Field, i64)]| {
            let mut acc = p.drop();
            for (f, v) in tests {
                let out = p.leaf(Leaf::single(Action::Modify(Field::OutPort, Value::Int(*v))));
                let id = p.id();
                let b = p.branch(Test::FieldValue(f.clone(), Value::Int(*v)), out, id);
                acc = p.union(acc, b);
            }
            acc
        };
        let _dead = union_of(
            &mut p,
            &[
                (Field::SrcPort, 1),
                (Field::DstPort, 2),
                (Field::SrcPort, 3),
            ],
        );
        let keep = union_of(
            &mut p,
            &[
                (Field::SrcPort, 53),
                (Field::DstPort, 80),
                (Field::SrcPort, 80),
            ],
        );
        let asked = p.ctx_answers.len();
        p.compact(&[keep]);
        // Every kept answer names a context and a test that exist under the
        // new numbering, and is what walking that context says.
        for (&(ctx, test), &answer) in &p.ctx_answers {
            assert!(ctx.index() <= p.ctxs.len() && test.index() < p.tests.len());
            assert_eq!(p.implies_by_walk(ctx, test), answer);
        }
        assert!(!p.ctx_answers.is_empty() && p.ctx_answers.len() < asked);
    }

    #[test]
    fn compact_never_grows_and_is_idempotent() {
        let mut p = pool();
        let a = branch_on(&mut p, 53);
        let b = branch_on(&mut p, 80);
        let u = p.union(a, b);
        let before = p.len();
        let r1 = p.compact(&[u]);
        assert!(p.len() <= before);
        let mid = p.len();
        let u2 = r1.node(u).unwrap();
        let r2 = p.compact(&[u2]);
        assert_eq!(p.len(), mid, "second compaction reclaimed live nodes");
        assert_eq!(r2.node(u2), Some(u2));
    }
}
