//! State dependency analysis (§4.1, Appendix B Figure 14).
//!
//! A state variable `t` *depends on* `s` when the program may write `t` after
//! reading `s`; any realization on a physical network must then route packets
//! through `s`'s switch before `t`'s. Sequential composition and conditionals
//! introduce dependencies, parallel composition does not, and an `atomic`
//! block makes all of its variables mutually dependent (so they end up
//! co-located).
//!
//! The analysis produces:
//! * the dependency graph,
//! * its strongly connected components,
//! * the total state-variable order used for xFDD state tests ([`VarOrder`]),
//! * the `dep` (ordered, not co-located) and `tied` (co-located) relations
//!   consumed by the placement/routing MILP.

use crate::test::VarOrder;
use snap_lang::{Policy, Pred, StateVar};
use std::collections::{BTreeMap, BTreeSet};

/// The result of state dependency analysis for one policy.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct StateDependencies {
    /// All state variables mentioned by the policy.
    pub variables: BTreeSet<StateVar>,
    /// Directed dependency edges `(s, t)`: `t` is written after reading `s`,
    /// so `s` must come before `t`.
    pub edges: BTreeSet<(StateVar, StateVar)>,
    /// Strongly connected components, in topological order of the condensation.
    pub sccs: Vec<Vec<StateVar>>,
    /// Pairs of distinct variables that must be co-located (same SCC).
    pub tied: BTreeSet<(StateVar, StateVar)>,
    /// Ordered-but-not-co-located pairs: `(s, t)` with an edge `s → t`
    /// crossing SCCs.
    pub dep: BTreeSet<(StateVar, StateVar)>,
}

impl StateDependencies {
    /// Analyze a policy.
    pub fn analyze(policy: &Policy) -> StateDependencies {
        let variables = policy.state_vars();
        let mut edges = BTreeSet::new();
        st_dep(policy, &mut edges);
        // Self-edges carry no ordering information.
        edges.retain(|(a, b)| a != b);

        let sccs = tarjan_sccs(&variables, &edges);
        let mut scc_of: BTreeMap<StateVar, usize> = BTreeMap::new();
        for (i, comp) in sccs.iter().enumerate() {
            for v in comp {
                scc_of.insert(v.clone(), i);
            }
        }

        let mut tied = BTreeSet::new();
        for comp in &sccs {
            for a in comp {
                for b in comp {
                    if a != b {
                        tied.insert((a.clone(), b.clone()));
                    }
                }
            }
        }

        let mut dep = BTreeSet::new();
        for (s, t) in &edges {
            if scc_of.get(s) != scc_of.get(t) {
                dep.insert((s.clone(), t.clone()));
            }
        }

        StateDependencies {
            variables,
            edges,
            sccs,
            tied,
            dep,
        }
    }

    /// The total state-variable order used by xFDDs: SCCs in topological
    /// order, variables within an SCC ordered by name.
    pub fn var_order(&self) -> VarOrder {
        let mut vars = Vec::new();
        for comp in &self.sccs {
            let mut c = comp.clone();
            c.sort();
            vars.extend(c);
        }
        VarOrder::new(vars)
    }

    /// Does `t` (transitively) depend on `s`, i.e. must `s` come before `t`?
    pub fn must_precede(&self, s: &StateVar, t: &StateVar) -> bool {
        // BFS over the edge relation.
        let mut seen = BTreeSet::new();
        let mut stack = vec![s.clone()];
        while let Some(cur) = stack.pop() {
            if !seen.insert(cur.clone()) {
                continue;
            }
            for (a, b) in &self.edges {
                if *a == cur {
                    if b == t {
                        return true;
                    }
                    stack.push(b.clone());
                }
            }
        }
        false
    }

    /// Are the two variables required to sit on the same switch?
    pub fn co_located(&self, s: &StateVar, t: &StateVar) -> bool {
        self.tied.contains(&(s.clone(), t.clone()))
    }
}

/// Figure 14's `st-dep`, accumulating `reads(p) × writes(q)`-style edges.
fn st_dep(policy: &Policy, edges: &mut BTreeSet<(StateVar, StateVar)>) {
    match policy {
        Policy::Filter(_)
        | Policy::Modify(_, _)
        | Policy::StateSet { .. }
        | Policy::StateIncr { .. }
        | Policy::StateDecr { .. } => {}
        Policy::Par(p, q) => {
            st_dep(p, edges);
            st_dep(q, edges);
        }
        Policy::Seq(p, q) => {
            for r in p.reads() {
                for w in q.writes() {
                    edges.insert((r.clone(), w.clone()));
                }
            }
            st_dep(p, edges);
            st_dep(q, edges);
        }
        Policy::If(a, p, q) => {
            let reads = pred_reads(a);
            for r in &reads {
                for w in p.writes().union(&q.writes()).cloned().collect::<Vec<_>>() {
                    edges.insert((r.clone(), w));
                }
            }
            st_dep(p, edges);
            st_dep(q, edges);
        }
        Policy::Atomic(p) => {
            let all: BTreeSet<StateVar> = p.state_vars();
            for a in &all {
                for b in &all {
                    edges.insert((a.clone(), b.clone()));
                }
            }
            st_dep(p, edges);
        }
    }
}

fn pred_reads(p: &Pred) -> BTreeSet<StateVar> {
    p.reads()
}

/// Tarjan's strongly connected components, returned in topological order of
/// the condensation (sources first).
fn tarjan_sccs(
    nodes: &BTreeSet<StateVar>,
    edges: &BTreeSet<(StateVar, StateVar)>,
) -> Vec<Vec<StateVar>> {
    let idx: BTreeMap<&StateVar, usize> = nodes.iter().enumerate().map(|(i, v)| (v, i)).collect();
    let n = nodes.len();
    let node_list: Vec<&StateVar> = nodes.iter().collect();
    let mut adj: Vec<Vec<usize>> = vec![Vec::new(); n];
    for (a, b) in edges {
        if let (Some(&ia), Some(&ib)) = (idx.get(a), idx.get(b)) {
            adj[ia].push(ib);
        }
    }

    struct State {
        index_counter: usize,
        indices: Vec<Option<usize>>,
        lowlink: Vec<usize>,
        on_stack: Vec<bool>,
        stack: Vec<usize>,
        sccs: Vec<Vec<usize>>,
    }

    fn strongconnect(v: usize, adj: &[Vec<usize>], st: &mut State) {
        st.indices[v] = Some(st.index_counter);
        st.lowlink[v] = st.index_counter;
        st.index_counter += 1;
        st.stack.push(v);
        st.on_stack[v] = true;
        for &w in &adj[v] {
            if st.indices[w].is_none() {
                strongconnect(w, adj, st);
                st.lowlink[v] = st.lowlink[v].min(st.lowlink[w]);
            } else if st.on_stack[w] {
                st.lowlink[v] = st.lowlink[v].min(st.indices[w].unwrap());
            }
        }
        if st.lowlink[v] == st.indices[v].unwrap() {
            let mut comp = Vec::new();
            loop {
                let w = st.stack.pop().unwrap();
                st.on_stack[w] = false;
                comp.push(w);
                if w == v {
                    break;
                }
            }
            st.sccs.push(comp);
        }
    }

    let mut st = State {
        index_counter: 0,
        indices: vec![None; n],
        lowlink: vec![0; n],
        on_stack: vec![false; n],
        stack: Vec::new(),
        sccs: Vec::new(),
    };
    for v in 0..n {
        if st.indices[v].is_none() {
            strongconnect(v, &adj, &mut st);
        }
    }

    // Tarjan emits SCCs in *reverse* topological order; reverse to get
    // sources first.
    st.sccs.reverse();
    st.sccs
        .into_iter()
        .map(|comp| comp.into_iter().map(|i| node_list[i].clone()).collect())
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use snap_lang::builder::*;
    use snap_lang::{Field, Value};

    fn sv(s: &str) -> StateVar {
        StateVar::new(s)
    }

    #[test]
    fn sequential_read_then_write_creates_edge() {
        // if s[srcip] = 1 then id else id ; t[srcip] <- 2
        let p = ite(
            state_test("s", vec![field(Field::SrcIp)], int(1)),
            id(),
            id(),
        )
        .seq(state_set("t", vec![field(Field::SrcIp)], int(2)));
        let deps = StateDependencies::analyze(&p);
        assert!(deps.edges.contains(&(sv("s"), sv("t"))));
        assert!(deps.must_precede(&sv("s"), &sv("t")));
        assert!(!deps.must_precede(&sv("t"), &sv("s")));
        assert!(deps.dep.contains(&(sv("s"), sv("t"))));
        assert!(deps.tied.is_empty());
    }

    #[test]
    fn parallel_composition_creates_no_edges() {
        let p = state_incr("a", vec![field(Field::SrcIp)]).par(ite(
            state_test("b", vec![], int(0)),
            id(),
            id(),
        ));
        let deps = StateDependencies::analyze(&p);
        assert!(deps.edges.is_empty());
        assert_eq!(deps.sccs.len(), 2);
    }

    #[test]
    fn conditional_condition_reads_precede_branch_writes() {
        let p = ite(
            state_test("cond", vec![], int(1)),
            state_incr("then-var", vec![]),
            state_incr("else-var", vec![]),
        );
        let deps = StateDependencies::analyze(&p);
        assert!(deps.edges.contains(&(sv("cond"), sv("then-var"))));
        assert!(deps.edges.contains(&(sv("cond"), sv("else-var"))));
    }

    #[test]
    fn atomic_block_ties_all_variables() {
        let p = atomic(
            state_set("hon-ip", vec![field(Field::InPort)], field(Field::SrcIp)).seq(state_set(
                "hon-dstport",
                vec![field(Field::InPort)],
                field(Field::DstPort),
            )),
        );
        let deps = StateDependencies::analyze(&p);
        assert!(deps.co_located(&sv("hon-ip"), &sv("hon-dstport")));
        assert!(deps.co_located(&sv("hon-dstport"), &sv("hon-ip")));
        assert_eq!(deps.sccs.len(), 1);
        assert_eq!(deps.sccs[0].len(), 2);
    }

    #[test]
    fn dns_tunnel_dependency_chain() {
        // Figure 1: blacklist depends on susp-client which depends on orphan.
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
                    state_test("susp-client", vec![field(Field::DstIp)], int(5)),
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
        let deps = StateDependencies::analyze(&detect);
        assert!(deps.must_precede(&sv("susp-client"), &sv("blacklist")));
        assert!(deps.must_precede(&sv("orphan"), &sv("susp-client")));
        let order = deps.var_order();
        assert!(order.rank(&sv("orphan")) < order.rank(&sv("susp-client")));
        assert!(order.rank(&sv("susp-client")) < order.rank(&sv("blacklist")));
    }

    #[test]
    fn cycle_forms_a_single_scc_and_is_tied() {
        // (if a[..] then b[..]<-1 else id) ; (if b[..] then a[..]<-1 else id)
        let p = ite(
            state_truthy("a", vec![]),
            state_set("b", vec![], int(1)),
            id(),
        )
        .seq(ite(
            state_truthy("b", vec![]),
            state_set("a", vec![], int(1)),
            id(),
        ));
        let deps = StateDependencies::analyze(&p);
        assert!(deps.edges.contains(&(sv("a"), sv("b"))));
        assert!(deps.edges.contains(&(sv("b"), sv("a"))));
        assert_eq!(deps.sccs.len(), 1);
        assert!(deps.co_located(&sv("a"), &sv("b")));
        assert!(deps.dep.is_empty());
    }

    #[test]
    fn var_order_is_topological_for_dag() {
        // chain a -> b -> c plus isolated d
        let p = Policy::seq_all(vec![
            ite(
                state_truthy("a", vec![]),
                state_set("b", vec![], int(1)),
                id(),
            ),
            ite(
                state_truthy("b", vec![]),
                state_set("c", vec![], int(1)),
                id(),
            ),
            state_incr("d", vec![]),
        ]);
        let deps = StateDependencies::analyze(&p);
        let order = deps.var_order();
        assert!(order.rank(&sv("a")) < order.rank(&sv("b")));
        assert!(order.rank(&sv("b")) < order.rank(&sv("c")));
        assert!(order.contains(&sv("d")));
        assert_eq!(deps.variables.len(), 4);
    }

    #[test]
    fn self_dependency_is_ignored_for_ordering() {
        // s is read and then written: a self-edge, which must not create a
        // bogus tied pair or break the order.
        let p = ite(
            state_truthy("s", vec![]),
            state_set("s", vec![], int(1)),
            id(),
        );
        let deps = StateDependencies::analyze(&p);
        assert!(deps.edges.is_empty());
        assert!(deps.tied.is_empty());
        assert_eq!(deps.sccs.len(), 1);
    }
}
