//! Translation from SNAP policies to xFDDs (Figure 6's `to-xfdd`), building
//! into a hash-consed [`Pool`]. The recursion lives here once: a cold
//! compile runs it with no memo, a long-lived session with its subtree
//! cache behind the same [`SubtreeMemo`] hook.

use crate::action::{Action, Leaf};
use crate::deps::StateDependencies;
use crate::diagram::Xfdd;
use crate::error::CompileError;
use crate::pool::{NodeId, Pool};
use crate::test::Test;
use snap_lang::{Policy, Pred};

/// What [`translate_with`] remembers between translations: consulted at
/// every `Policy` node (never at a `Pred`) before translating it, and told
/// the result of each one it did translate. The diagrams live in the pool
/// the translation builds into, so a memo is only sound for that pool.
pub trait SubtreeMemo {
    /// The diagram `policy` translated to earlier, if remembered.
    fn lookup(&mut self, policy: &Policy) -> Option<NodeId>;
    /// `policy` was just translated to `id`.
    fn insert(&mut self, policy: &Policy, id: NodeId);
}

/// Remembers nothing: every subtree is translated.
impl SubtreeMemo for () {
    fn lookup(&mut self, _: &Policy) -> Option<NodeId> {
        None
    }
    fn insert(&mut self, _: &Policy, _: NodeId) {}
}

/// Translate a policy into the pool and reject programs whose diagram
/// contains a leaf with parallel writes to the same state variable (a race).
pub fn to_xfdd(policy: &Policy, pool: &mut Pool) -> Result<NodeId, CompileError> {
    let d = translate_with(policy, pool, &mut ())?;
    if let Some(var) = pool.find_race(d) {
        return Err(CompileError::StateRace { var });
    }
    Ok(d)
}

/// Convenience entry point: analyze state dependencies, build a fresh pool
/// under the derived variable order, translate the policy and freeze the
/// result into a shareable [`Xfdd`].
pub fn compile(policy: &Policy) -> Result<Xfdd, CompileError> {
    let deps = StateDependencies::analyze(policy);
    let mut pool = Pool::new(deps.var_order());
    let root = to_xfdd(policy, &mut pool)?;
    Ok(Xfdd::new(pool, root))
}

/// Figure 6's recursion through `memo`, without the race check (callers
/// that time their phases run [`Pool::find_race`] themselves).
pub fn translate_with(
    policy: &Policy,
    pool: &mut Pool,
    memo: &mut impl SubtreeMemo,
) -> Result<NodeId, CompileError> {
    if let Some(id) = memo.lookup(policy) {
        return Ok(id);
    }
    let id = match policy {
        Policy::Filter(x) => build_pred(x, pool)?,
        Policy::Modify(f, v) => pool.leaf(Leaf::single(Action::Modify(f.clone(), v.clone()))),
        Policy::StateSet { var, index, value } => pool.leaf(Leaf::single(Action::StateSet {
            var: var.clone(),
            index: index.clone(),
            value: value.clone(),
        })),
        Policy::StateIncr { var, index } => pool.leaf(Leaf::single(Action::StateIncr {
            var: var.clone(),
            index: index.clone(),
        })),
        Policy::StateDecr { var, index } => pool.leaf(Leaf::single(Action::StateDecr {
            var: var.clone(),
            index: index.clone(),
        })),
        Policy::Par(p, q) => {
            let dp = translate_with(p, pool, memo)?;
            let dq = translate_with(q, pool, memo)?;
            pool.union(dp, dq)
        }
        Policy::Seq(p, q) => {
            let dp = translate_with(p, pool, memo)?;
            let dq = translate_with(q, pool, memo)?;
            pool.seq(dp, dq)?
        }
        Policy::If(a, p, q) => {
            let da = build_pred(a, pool)?;
            let dp = translate_with(p, pool, memo)?;
            let dq = translate_with(q, pool, memo)?;
            let then_side = pool.seq(da, dp)?;
            let not_a = pool.negate(da);
            let else_side = pool.seq(not_a, dq)?;
            pool.union(then_side, else_side)
        }
        Policy::Atomic(p) => translate_with(p, pool, memo)?,
    };
    memo.insert(policy, id);
    Ok(id)
}

fn build_pred(pred: &Pred, pool: &mut Pool) -> Result<NodeId, CompileError> {
    match pred {
        Pred::Id => Ok(pool.id()),
        Pred::Drop => Ok(pool.drop()),
        Pred::Test(f, v) => {
            let id = pool.id();
            let drop = pool.drop();
            Ok(pool.branch(Test::FieldValue(f.clone(), v.clone()), id, drop))
        }
        Pred::StateTest { var, index, value } => {
            let id = pool.id();
            let drop = pool.drop();
            Ok(pool.branch(
                Test::State {
                    var: var.clone(),
                    index: index.clone(),
                    value: value.clone(),
                },
                id,
                drop,
            ))
        }
        Pred::Not(x) => {
            let dx = build_pred(x, pool)?;
            Ok(pool.negate(dx))
        }
        Pred::Or(x, y) => {
            let dx = build_pred(x, pool)?;
            let dy = build_pred(y, pool)?;
            Ok(pool.union(dx, dy))
        }
        Pred::And(x, y) => {
            let dx = build_pred(x, pool)?;
            let dy = build_pred(y, pool)?;
            pool.seq(dx, dy)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test::VarOrder;
    use snap_lang::builder::*;
    use snap_lang::eval::eval;
    use snap_lang::{Field, Packet, StateVar, Store, Value};

    fn sv(s: &str) -> StateVar {
        StateVar::new(s)
    }

    #[test]
    fn translate_primitives() {
        let mut p = Pool::new(VarOrder::empty());
        assert_eq!(to_xfdd(&id(), &mut p).unwrap(), p.id());
        assert_eq!(to_xfdd(&drop(), &mut p).unwrap(), p.drop());
        let m = to_xfdd(&modify(Field::OutPort, Value::Int(3)), &mut p).unwrap();
        assert_eq!(p.num_tests(m), 0);
        assert!(matches!(p.node(m), crate::pool::Node::Leaf(_)));
    }

    #[test]
    fn translate_conjunction_and_disjunction() {
        let policy = filter(test(Field::SrcPort, Value::Int(53)).and(test_prefix(
            Field::DstIp,
            10,
            0,
            6,
            0,
            24,
        )));
        let d = compile(&policy).unwrap();
        assert!(d.is_well_formed());
        let store = Store::new();
        let hit = Packet::new()
            .with(Field::SrcPort, 53)
            .with(Field::DstIp, Value::ip(10, 0, 6, 1));
        let miss = Packet::new()
            .with(Field::SrcPort, 53)
            .with(Field::DstIp, Value::ip(10, 0, 7, 1));
        assert_eq!(d.evaluate(&hit, &store).unwrap().0.len(), 1);
        assert!(d.evaluate(&miss, &store).unwrap().0.is_empty());
    }

    #[test]
    fn translate_conditional_matches_eval() {
        let policy = ite(
            test(Field::SrcPort, Value::Int(53)),
            state_incr("dns", vec![field(Field::DstIp)]),
            state_incr("other", vec![field(Field::DstIp)]),
        );
        let d = compile(&policy).unwrap();
        let store = Store::new();
        for srcport in [53i64, 80] {
            let pkt = Packet::new()
                .with(Field::SrcPort, srcport)
                .with(Field::DstIp, Value::ip(10, 0, 0, 1));
            let (pkts_d, store_d) = d.evaluate(&pkt, &store).unwrap();
            let r = eval(&policy, &store, &pkt).unwrap();
            assert_eq!(pkts_d, r.packets);
            assert_eq!(store_d, r.store);
        }
    }

    #[test]
    fn race_condition_is_rejected() {
        // Parallel writes to the same variable reach the same leaf.
        let p = state_set("s", vec![int(0)], int(1)).par(state_set("s", vec![int(0)], int(2)));
        let err = compile(&p).unwrap_err();
        assert!(matches!(err, CompileError::StateRace { var } if var == sv("s")));
        // Guarded by disjoint conditions there is no shared leaf, hence no
        // race.
        let guarded = ite(
            test(Field::SrcPort, Value::Int(1)),
            state_set("s", vec![int(0)], int(1)),
            id(),
        )
        .par(ite(
            test(Field::SrcPort, Value::Int(2)),
            state_set("s", vec![int(0)], int(2)),
            id(),
        ));
        assert!(compile(&guarded).is_ok());
    }

    #[test]
    fn figure_1_dns_tunnel_translates() {
        let threshold = 3;
        let detect = ite(
            test_prefix(Field::DstIp, 10, 0, 6, 0, 24).and(test(Field::SrcPort, Value::Int(53))),
            Policy::seq_all(vec![
                state_set(
                    "orphan",
                    vec![field(Field::DstIp), field(Field::DnsRdata)],
                    Value::Bool(true),
                ),
                state_incr("susp-client", vec![field(Field::DstIp)]),
                ite(
                    state_test("susp-client", vec![field(Field::DstIp)], int(threshold)),
                    state_set("blacklist", vec![field(Field::DstIp)], Value::Bool(true)),
                    id(),
                ),
            ]),
            ite(
                test_prefix(Field::SrcIp, 10, 0, 6, 0, 24).and(state_truthy(
                    "orphan",
                    vec![field(Field::SrcIp), field(Field::DstIp)],
                )),
                state_set(
                    "orphan",
                    vec![field(Field::SrcIp), field(Field::DstIp)],
                    Value::Bool(false),
                )
                .seq(state_decr("susp-client", vec![field(Field::SrcIp)])),
                id(),
            ),
        );
        let order = VarOrder::new(vec![sv("orphan"), sv("susp-client"), sv("blacklist")]);
        let mut pool = Pool::new(order);
        let root = to_xfdd(&detect, &mut pool).unwrap();
        let d = Xfdd::new(pool, root);
        assert!(d.is_well_formed());
        let vars = d.state_vars();
        assert_eq!(vars.len(), 3);
        // Hash-consing shares subdiagrams: the arena stores strictly fewer
        // nodes than the unshared tree would.
        assert!(
            (d.size() as u64) < d.tree_size(),
            "expected sharing: {} arena nodes vs {} tree nodes",
            d.size(),
            d.tree_size()
        );

        // Behavioural spot-check against eval on a short trace.
        let client = Value::ip(10, 0, 6, 9);
        let dns = Packet::new()
            .with(Field::SrcIp, Value::ip(8, 8, 8, 8))
            .with(Field::DstIp, client.clone())
            .with(Field::SrcPort, 53)
            .with(Field::DnsRdata, Value::ip(5, 5, 5, 5));
        let mut store_e = Store::new();
        let mut store_d = Store::new();
        for _ in 0..4 {
            let r = eval(&detect, &store_e, &dns).unwrap();
            store_e = r.store;
            let (pk, sd) = d.evaluate(&dns, &store_d).unwrap();
            store_d = sd;
            assert_eq!(pk, r.packets);
        }
        assert_eq!(store_e, store_d);
        assert_eq!(store_e.get(&sv("blacklist"), &[client]), Value::Bool(true));
    }

    #[test]
    fn honeypot_atomic_example_translates() {
        let p = ite(
            test_prefix(Field::DstIp, 10, 0, 3, 0, 25),
            atomic(
                state_set("hon-ip", vec![field(Field::InPort)], field(Field::SrcIp)).seq(
                    state_set(
                        "hon-dstport",
                        vec![field(Field::InPort)],
                        field(Field::DstPort),
                    ),
                ),
            ),
            id(),
        );
        let d = compile(&p).unwrap();
        assert!(d.is_well_formed());
        let pkt = Packet::new()
            .with(Field::SrcIp, Value::ip(1, 2, 3, 4))
            .with(Field::DstIp, Value::ip(10, 0, 3, 7))
            .with(Field::DstPort, 8080)
            .with(Field::InPort, 1);
        let (pkts, store) = d.evaluate(&pkt, &Store::new()).unwrap();
        assert_eq!(pkts.len(), 1);
        assert_eq!(
            store.get(&sv("hon-ip"), &[Value::Int(1)]),
            Value::ip(1, 2, 3, 4)
        );
        assert_eq!(
            store.get(&sv("hon-dstport"), &[Value::Int(1)]),
            Value::Int(8080)
        );
    }

    #[test]
    fn monitoring_parallel_composition_matches_eval() {
        // (DNS-filtering + count[inport]++) ; outport <- 6
        let p = filter(test(Field::SrcPort, Value::Int(53)))
            .par(state_incr("count", vec![field(Field::InPort)]))
            .seq(modify(Field::OutPort, Value::Int(6)));
        let d = compile(&p).unwrap();
        let store = Store::new();
        for srcport in [53i64, 80] {
            let pkt = Packet::new()
                .with(Field::SrcPort, srcport)
                .with(Field::InPort, 2);
            let r = eval(&p, &store, &pkt).unwrap();
            let (pkts, st) = d.evaluate(&pkt, &store).unwrap();
            assert_eq!(pkts, r.packets);
            assert_eq!(st, r.store);
        }
    }

    #[test]
    fn negation_of_state_test() {
        let p = ite(
            state_truthy("blacklist", vec![field(Field::SrcIp)]).not(),
            id(),
            drop(),
        );
        let d = compile(&p).unwrap();
        let pkt = Packet::new().with(Field::SrcIp, Value::ip(9, 9, 9, 9));
        assert_eq!(d.evaluate(&pkt, &Store::new()).unwrap().0.len(), 1);
        let mut bad = Store::new();
        bad.set(
            &sv("blacklist"),
            vec![Value::ip(9, 9, 9, 9)],
            Value::Bool(true),
        );
        assert!(d.evaluate(&pkt, &bad).unwrap().0.is_empty());
    }
}
