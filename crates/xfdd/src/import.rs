//! Pool-to-pool import: structural re-interning of a diagram from one arena
//! into another.
//!
//! A session publishes a finished diagram by extracting it into a minimal
//! pool of its own; the controller imports that into its distribution pool.
//! Each is a bottom-up walk of the source diagram that re-interns every
//! node in the destination, threading a `NodeId` remap table; structurally
//! equal nodes therefore collapse onto the destination's existing ids, and
//! importing the same diagram twice is a no-op returning the same root.
//!
//! Payloads are shared handles ([`crate::Shared`]); what a pool owns is
//! numbering and memo tables. Import therefore never copies or re-hashes a
//! leaf or a test: per node it probes the destination's interner with the
//! hash the payload already carries (pointer equality settles the compare
//! when the destination has met this very payload before) and, for a new
//! node, stores a copy of the handle. This is the only import routine; the
//! deep-copying one it replaced — rebuild every payload from its content —
//! exists only as `import_deep`, the oracle of `tests/gc.rs`.

use crate::fx::FxHashMap;
use crate::pool::{Node, NodeId, Pool};

/// The source-id → destination-id table of an import.
pub type ImportMap = FxHashMap<NodeId, NodeId>;

impl Pool {
    /// Re-intern the diagram rooted at `root` in `src` into this pool,
    /// returning the root's id here. Nodes structurally equal to existing
    /// ones are shared, not duplicated.
    ///
    /// Both pools must use the same variable order — otherwise the imported
    /// diagram, while structurally intact, would violate this pool's
    /// ordering invariant when composed further.
    pub fn import(&mut self, src: &Pool, root: NodeId) -> NodeId {
        self.import_with(src, root, &mut ImportMap::default())
    }

    /// [`Pool::import`] with a caller-supplied remap table, so several roots
    /// of the same source pool can be imported while sharing the already
    /// re-interned nodes. The table maps source ids to destination ids and
    /// is extended in place.
    pub fn import_with(&mut self, src: &Pool, root: NodeId, remap: &mut ImportMap) -> NodeId {
        debug_assert_eq!(
            self.order(),
            src.order(),
            "importing between pools with different variable orders"
        );
        // Depth-first, true side first, a node after both its children:
        // exactly the order `branch` needs, and the order that fixes the
        // numbering of a pool built by import alone.
        let mut stack = vec![root];
        while let Some(&n) = stack.last() {
            if remap.contains_key(&n) {
                stack.pop();
                continue;
            }
            let mapped = match src.node(n) {
                Node::Leaf(leaf) => self.leaf_shared(leaf),
                Node::Branch { test, tru, fls } => match (remap.get(tru), remap.get(fls)) {
                    (Some(&t), Some(&f)) => self.branch_shared(test, t, f),
                    (t, f) => {
                        if f.is_none() {
                            stack.push(*fls);
                        }
                        if t.is_none() {
                            stack.push(*tru);
                        }
                        continue;
                    }
                },
            };
            remap.insert(n, mapped);
            stack.pop();
        }
        remap[&root]
    }

    /// Extract the diagram rooted at `root` into a fresh, minimal pool of its
    /// own (same variable order, only the reachable nodes, empty memo
    /// tables). This is how a long-lived session *publishes* a diagram: the
    /// frozen copy costs O(diagram) handle copies rather than O(arena),
    /// stays small no matter how much garbage the session pool has
    /// accumulated, and is detached from future mutation and GC.
    pub fn extract(&self, root: NodeId) -> (Pool, NodeId) {
        let mut out = Pool::new(self.order().clone());
        let r = out.import(self, root);
        (out, r)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::action::{Action, Leaf};
    use crate::test::{Test, VarOrder};
    use crate::translate::to_xfdd;
    use snap_lang::builder::*;
    use snap_lang::{Field, Packet, Store, Value};

    #[test]
    fn import_preserves_semantics_and_dedups() {
        let mut src = Pool::new(VarOrder::empty());
        let policy = ite(
            test(Field::SrcPort, Value::Int(53)),
            modify(Field::OutPort, Value::Int(6)),
            modify(Field::OutPort, Value::Int(1)),
        );
        let root = to_xfdd(&policy, &mut src).unwrap();

        let mut dst = Pool::new(VarOrder::empty());
        let imported = dst.import(&src, root);
        assert_eq!(dst.size(imported), src.size(root));

        let store = Store::new();
        for port in [53i64, 80] {
            let pkt = Packet::new().with(Field::SrcPort, port);
            assert_eq!(
                dst.evaluate(imported, &pkt, &store).unwrap(),
                src.evaluate(root, &pkt, &store).unwrap()
            );
        }

        // Importing again is a pure re-interning no-op.
        let len = dst.len();
        assert_eq!(dst.import(&src, root), imported);
        assert_eq!(dst.len(), len);
    }

    #[test]
    fn import_shares_nodes_already_in_the_destination() {
        let mut dst = Pool::new(VarOrder::empty());
        let out = dst.leaf(Leaf::single(Action::Modify(Field::OutPort, Value::Int(6))));
        let existing = dst.branch(Test::FieldValue(Field::SrcPort, Value::Int(53)), out, {
            dst.drop()
        });
        let len = dst.len();

        // Build the same diagram in a separate pool and import it.
        let mut src = Pool::new(VarOrder::empty());
        let out_s = src.leaf(Leaf::single(Action::Modify(Field::OutPort, Value::Int(6))));
        let drop_s = src.drop();
        let root_s = src.branch(
            Test::FieldValue(Field::SrcPort, Value::Int(53)),
            out_s,
            drop_s,
        );

        let imported = dst.import(&src, root_s);
        assert_eq!(imported, existing);
        assert_eq!(dst.len(), len, "import duplicated structurally equal nodes");
    }

    #[test]
    fn import_with_shares_the_remap_across_roots() {
        let mut src = Pool::new(VarOrder::empty());
        let shared = src.leaf(Leaf::single(Action::Modify(Field::OutPort, Value::Int(9))));
        let drop = src.drop();
        let r1 = src.branch(
            Test::FieldValue(Field::SrcPort, Value::Int(1)),
            shared,
            drop,
        );
        let r2 = src.branch(
            Test::FieldValue(Field::SrcPort, Value::Int(2)),
            shared,
            drop,
        );

        let mut dst = Pool::new(VarOrder::empty());
        let mut remap = ImportMap::default();
        let m1 = dst.import_with(&src, r1, &mut remap);
        let before = dst.len();
        let m2 = dst.import_with(&src, r2, &mut remap);
        assert_ne!(m1, m2);
        // Only the second branch node is new; the shared leaf came from the
        // remap table.
        assert_eq!(dst.len(), before + 1);
        assert_eq!(remap[&shared], {
            match dst.node(m2) {
                Node::Branch { tru, .. } => *tru,
                _ => unreachable!(),
            }
        });
    }

    #[test]
    fn imported_diagrams_compose_in_the_destination() {
        // Translate two policies in two private pools, import both, and
        // union them in the destination — mirroring the parallel-translation
        // merge step.
        let order = VarOrder::empty();
        let mut p1 = Pool::new(order.clone());
        let d1 = to_xfdd(&filter(test(Field::SrcPort, Value::Int(53))), &mut p1).unwrap();
        let mut p2 = Pool::new(order.clone());
        let d2 = to_xfdd(&filter(test(Field::DstPort, Value::Int(53))), &mut p2).unwrap();

        let mut dst = Pool::new(order);
        let i1 = dst.import(&p1, d1);
        let i2 = dst.import(&p2, d2);
        let u = dst.union(i1, i2);
        assert!(dst.is_well_formed(u));
        let store = Store::new();
        let hit = Packet::new()
            .with(Field::SrcPort, 80)
            .with(Field::DstPort, 53);
        let miss = Packet::new()
            .with(Field::SrcPort, 80)
            .with(Field::DstPort, 80);
        assert_eq!(dst.evaluate(u, &hit, &store).unwrap().0.len(), 1);
        assert!(dst.evaluate(u, &miss, &store).unwrap().0.is_empty());
    }
}
