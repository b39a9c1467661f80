//! Packet-state mapping (§4.3): which OBS flows need which state variables.
//!
//! The xFDD gives a complete, explicit description of how the program handles
//! packets. Along every root-to-leaf path we need the state variables read
//! (tests) or written (leaf actions), the ingress ports consistent with the
//! path's tests on `inport`, and the egress ports the path's leaf can assign.
//! Aggregating over paths gives `S_{uv}` — the set of state variables the
//! flow from OBS port `u` to OBS port `v` must traverse — which feeds the
//! placement/routing optimization.
//!
//! Paths are never materialised: one depth-first walk of the DAG carries the
//! ingress candidates and the positively tested egress ports as port bitsets
//! (narrowed at each `inport`/`outport` test) and the state variables tested
//! so far as a stack. A path with no state test above and no state test or
//! write below contributes nothing, so the walk skips every sub-diagram that
//! a bottom-up "touches state" flag rules out while the stack is empty —
//! typically the great majority of the diagram (on the Table 5 ISP rows,
//! under 2 % of the paths touch state).

use serde::{Deserialize, Serialize};
use snap_lang::{Field, StateVar, Value};
use snap_topology::PortId;
use snap_xfdd::{Action, ActionSeq, Leaf, Node, NodeId, Pool, Test, Xfdd};
use std::collections::{BTreeMap, BTreeSet};

/// The packet-state mapping: state variables needed per (ingress, egress)
/// OBS port pair.
#[derive(Clone, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct PacketStateMap {
    per_pair: BTreeMap<(PortId, PortId), BTreeSet<StateVar>>,
}

impl PacketStateMap {
    /// Compute the mapping for a program xFDD over the given OBS ports.
    pub fn analyze(xfdd: &Xfdd, ports: &[PortId]) -> PacketStateMap {
        let pool = xfdd.pool();
        let vars: Vec<StateVar> = xfdd.state_vars().into_iter().collect();
        let mut touches_state = vec![false; pool.len()];
        pool.fold_reachable(xfdd.root(), |id, node, kids| {
            let touches = match (node, kids) {
                (Node::Leaf(leaf), _) => written_vars(leaf).next().is_some(),
                (Node::Branch { test, .. }, Some((t, f))) => test.state_var().is_some() || *t || *f,
                (Node::Branch { .. }, None) => unreachable!("fold passes a branch its children"),
            };
            touches_state[id.index()] = touches;
            touches
        });

        // Egress candidates: the OBS ports, then any other port a leaf
        // assigns (such a flow is recorded even though nothing can route it).
        let mut egress = ports.to_vec();
        pool.visit_reachable([xfdd.root()], |_, node| {
            if let Node::Leaf(leaf) = node {
                for p in leaf.0.iter().filter_map(assigned_outport) {
                    if !egress.contains(&p) {
                        egress.push(p);
                    }
                }
            }
            true
        });

        let mut obs_ports = BitSet::empty(egress.len());
        (0..ports.len()).for_each(|i| obs_ports.insert(i));
        let mut walk = Walk {
            pool,
            ports,
            egress: &egress,
            obs_ports: &obs_ports,
            vars: &vars,
            touches_state: &touches_state,
            tested_vars: Vec::new(),
            needed: vec![BitSet::empty(vars.len()); ports.len() * egress.len()],
        };
        walk.visit(xfdd.root(), &obs_ports, &BitSet::empty(egress.len()));

        let mut map = PacketStateMap::default();
        for (ui, &u) in ports.iter().enumerate() {
            for (vi, &v) in egress.iter().enumerate() {
                let needed = &walk.needed[ui * egress.len() + vi];
                if !needed.is_empty() {
                    map.per_pair
                        .entry((u, v))
                        .or_default()
                        .extend(needed.iter().map(|i| vars[i].clone()));
                }
            }
        }
        map
    }

    /// The state variables needed by the flow from `u` to `v`.
    pub fn vars_for(&self, u: PortId, v: PortId) -> &BTreeSet<StateVar> {
        static NONE: BTreeSet<StateVar> = BTreeSet::new();
        self.per_pair.get(&(u, v)).unwrap_or(&NONE)
    }

    /// Iterate over `(u, v, vars)` entries with a non-empty variable set.
    pub fn iter(&self) -> impl Iterator<Item = (PortId, PortId, &BTreeSet<StateVar>)> {
        self.per_pair.iter().map(|(&(u, v), s)| (u, v, s))
    }

    /// Number of flows that need at least one state variable.
    pub fn num_stateful_flows(&self) -> usize {
        self.per_pair.len()
    }

    /// All state variables mentioned anywhere in the mapping.
    pub fn all_vars(&self) -> BTreeSet<StateVar> {
        self.per_pair.values().flatten().cloned().collect()
    }

    /// The flows (port pairs) that need a given variable.
    pub fn flows_needing(&self, var: &StateVar) -> Vec<(PortId, PortId)> {
        self.per_pair
            .iter()
            .filter(|(_, vars)| vars.contains(var))
            .map(|(&pair, _)| pair)
            .collect()
    }
}

/// The state of the depth-first walk behind [`PacketStateMap::analyze`].
struct Walk<'a> {
    pool: &'a Pool,
    /// The OBS ports; port sets are bitsets over indices into `egress`, of
    /// which these are the first `ports.len()`.
    ports: &'a [PortId],
    egress: &'a [PortId],
    /// The set of all OBS ports.
    obs_ports: &'a BitSet,
    /// The diagram's state variables, sorted; bit `i` of a `needed` set and
    /// an entry `i` of `tested_vars` stand for `vars[i]`.
    vars: &'a [StateVar],
    /// Per node: does any path from here test or write state?
    touches_state: &'a [bool],
    /// Variables of the state tests on the path walked so far.
    tested_vars: Vec<usize>,
    /// Per `(ingress index, egress index)`: the variables collected so far.
    needed: Vec<BitSet>,
}

impl Walk<'_> {
    /// Walk the sub-diagram at `n`, reached by a path that `inports` (as
    /// indices into `ports`) are consistent with and that tested `outport`
    /// positively for `tested_out`.
    fn visit(&mut self, n: NodeId, inports: &BitSet, tested_out: &BitSet) {
        if inports.is_empty() || (self.tested_vars.is_empty() && !self.touches_state[n.index()]) {
            return;
        }
        match self.pool.node(n) {
            Node::Leaf(leaf) => self.collect(leaf, inports, tested_out),
            Node::Branch { test, tru, fls } => match test {
                Test::FieldValue(Field::InPort, v) => {
                    let matching = self.ports_matching(v);
                    self.visit(*tru, &inports.and(&matching), tested_out);
                    self.visit(*fls, &inports.and_not(&matching), tested_out);
                }
                Test::FieldValue(Field::OutPort, v) => {
                    let matching = self.ports_matching(v);
                    self.visit(*tru, inports, &tested_out.or(&matching));
                    self.visit(*fls, inports, tested_out);
                }
                Test::State { var, .. } => {
                    let var = self.vars.binary_search(var).expect("diagram variable");
                    self.tested_vars.push(var);
                    self.visit(*tru, inports, tested_out);
                    self.visit(*fls, inports, tested_out);
                    self.tested_vars.pop();
                }
                _ => {
                    self.visit(*tru, inports, tested_out);
                    self.visit(*fls, inports, tested_out);
                }
            },
        }
    }

    /// The OBS ports (as indices) whose number a test value matches.
    fn ports_matching(&self, v: &Value) -> BitSet {
        let mut set = BitSet::empty(self.egress.len());
        for (i, p) in self.ports.iter().enumerate() {
            if v.matches(&Value::Int(p.0 as i64)) {
                set.insert(i);
            }
        }
        set
    }

    /// A path ends at `leaf`: charge its variables to every flow it carries.
    fn collect(&mut self, leaf: &Leaf, inports: &BitSet, tested_out: &BitSet) {
        let mut vars = BitSet::empty(self.vars.len());
        for &var in &self.tested_vars {
            vars.insert(var);
        }
        for var in written_vars(leaf) {
            vars.insert(self.vars.binary_search(var).expect("diagram variable"));
        }
        if vars.is_empty() {
            return;
        }
        let outports = self.leaf_outports(leaf, tested_out);
        for u in inports.iter() {
            for v in outports.iter() {
                if self.egress[u] != self.egress[v] {
                    self.needed[u * self.egress.len() + v].union_with(&vars);
                }
            }
        }
    }

    /// Which egress ports can this leaf assign, given the path?
    ///
    /// Priority: explicit `outport ←` assignments in the leaf's action
    /// sequences; otherwise positive `outport = v` tests along the path;
    /// otherwise the flow could exit anywhere (conservatively, all ports).
    fn leaf_outports(&self, leaf: &Leaf, tested_out: &BitSet) -> BitSet {
        let mut assigned = BitSet::empty(self.egress.len());
        for p in leaf.0.iter().filter_map(assigned_outport) {
            for (i, port) in self.egress.iter().enumerate() {
                if *port == p {
                    assigned.insert(i);
                }
            }
        }
        if !assigned.is_empty() {
            assigned
        } else if !tested_out.is_empty() {
            tested_out.clone()
        } else if leaf.0.iter().any(|seq| !seq.drops) {
            // Unknown egress: conservatively, the flow may leave anywhere.
            self.obs_ports.clone()
        } else {
            // The path drops every packet; it contributes no (u, v) demand.
            BitSet::empty(self.egress.len())
        }
    }
}

/// The egress port a passing action sequence leaves the packet with, if it
/// assigns one.
fn assigned_outport(seq: &ActionSeq) -> Option<PortId> {
    if seq.drops {
        return None;
    }
    seq.actions.iter().rev().find_map(|a| match a {
        Action::Modify(Field::OutPort, Value::Int(p)) if *p >= 0 => Some(PortId(*p as usize)),
        _ => None,
    })
}

/// The state variables a leaf's action sequences write (with repeats).
fn written_vars(leaf: &Leaf) -> impl Iterator<Item = &StateVar> {
    leaf.0
        .iter()
        .flat_map(|seq| &seq.actions)
        .filter_map(Action::written_var)
}

/// A fixed-capacity set of small indices (ports or state variables).
#[derive(Clone, Debug)]
struct BitSet {
    words: Vec<u64>,
}

impl BitSet {
    fn empty(capacity: usize) -> BitSet {
        BitSet {
            words: vec![0; capacity.div_ceil(64)],
        }
    }

    fn insert(&mut self, i: usize) {
        self.words[i / 64] |= 1 << (i % 64);
    }

    fn is_empty(&self) -> bool {
        self.words.iter().all(|&w| w == 0)
    }

    fn zip_with(&self, other: &BitSet, f: impl Fn(u64, u64) -> u64) -> BitSet {
        BitSet {
            words: (self.words.iter().zip(&other.words))
                .map(|(&a, &b)| f(a, b))
                .collect(),
        }
    }

    fn and(&self, other: &BitSet) -> BitSet {
        self.zip_with(other, |a, b| a & b)
    }

    fn and_not(&self, other: &BitSet) -> BitSet {
        self.zip_with(other, |a, b| a & !b)
    }

    fn or(&self, other: &BitSet) -> BitSet {
        self.zip_with(other, |a, b| a | b)
    }

    fn union_with(&mut self, other: &BitSet) {
        for (a, &b) in self.words.iter_mut().zip(&other.words) {
            *a |= b;
        }
    }

    fn iter(&self) -> impl Iterator<Item = usize> + '_ {
        self.words.iter().enumerate().flat_map(|(wi, &word)| {
            (0..64)
                .filter(move |bit| word & (1 << bit) != 0)
                .map(move |bit| wi * 64 + bit)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use snap_lang::builder::*;
    use snap_lang::Policy;

    fn ports(n: usize) -> Vec<PortId> {
        (1..=n).map(PortId).collect()
    }

    /// Analyze through the walk and through the path-enumeration oracle,
    /// which must agree.
    fn analyze(p: &Policy, nports: usize) -> PacketStateMap {
        let d = snap_xfdd::compile(p).unwrap();
        let map = PacketStateMap::analyze(&d, &ports(nports));
        assert_eq!(map, analyze_by_path_enumeration(&d, &ports(nports)));
        map
    }

    /// The reference implementation `analyze` replaced, kept as its oracle:
    /// materialise every root-to-leaf path and scan it once per port.
    fn analyze_by_path_enumeration(xfdd: &Xfdd, ports: &[PortId]) -> PacketStateMap {
        let mut map = PacketStateMap::default();
        for (path, leaf) in xfdd.paths() {
            let mut vars: BTreeSet<StateVar> = BTreeSet::new();
            for (test, _) in &path {
                if let Some(v) = test.state_var() {
                    vars.insert(v.clone());
                }
            }
            vars.extend(leaf.written_vars());
            if vars.is_empty() {
                continue;
            }
            let inports = consistent_inports(&path, ports);
            let outports = leaf_outports(leaf, &path, ports);
            for &u in &inports {
                for &v in &outports {
                    if u == v {
                        continue;
                    }
                    map.per_pair
                        .entry((u, v))
                        .or_default()
                        .extend(vars.iter().cloned());
                }
            }
        }
        map
    }

    /// Which ingress ports are consistent with the path's tests on `inport`?
    fn consistent_inports(path: &[(Test, bool)], ports: &[PortId]) -> Vec<PortId> {
        ports
            .iter()
            .copied()
            .filter(|p| {
                path.iter().all(|(test, outcome)| match test {
                    Test::FieldValue(Field::InPort, v) => {
                        let matches = v.matches(&Value::Int(p.0 as i64));
                        matches == *outcome
                    }
                    _ => true,
                })
            })
            .collect()
    }

    /// Which egress ports can this leaf assign, given the path?
    fn leaf_outports(leaf: &Leaf, path: &[(Test, bool)], ports: &[PortId]) -> Vec<PortId> {
        let mut assigned: BTreeSet<PortId> = BTreeSet::new();
        let mut any_passing_seq = false;
        for seq in &leaf.0 {
            if seq.drops {
                continue;
            }
            any_passing_seq = true;
            let last_assignment = seq.actions.iter().rev().find_map(|a| match a {
                Action::Modify(Field::OutPort, Value::Int(p)) if *p >= 0 => {
                    Some(PortId(*p as usize))
                }
                _ => None,
            });
            if let Some(p) = last_assignment {
                assigned.insert(p);
            }
        }
        if !assigned.is_empty() {
            return assigned.into_iter().collect();
        }
        let tested: Vec<PortId> = ports
            .iter()
            .copied()
            .filter(|p| {
                path.iter().any(|(test, outcome)| {
                    matches!(test, Test::FieldValue(Field::OutPort, v)
                        if *outcome && v.matches(&Value::Int(p.0 as i64)))
                })
            })
            .collect();
        if !tested.is_empty() {
            return tested;
        }
        if any_passing_seq {
            ports.to_vec()
        } else {
            Vec::new()
        }
    }

    #[test]
    fn walk_matches_path_enumeration_on_the_catalogue() {
        // Alone and routed, on port sets smaller and larger than the ports
        // the applications mention (egress assignments outside the OBS ports
        // included).
        for (name, policy) in snap_apps::catalogue() {
            for nports in [3, 6, 9] {
                for program in [
                    policy.clone(),
                    policy.clone().seq(snap_apps::assign_egress(6)),
                ] {
                    let d = snap_xfdd::compile(&program)
                        .unwrap_or_else(|e| panic!("{name} failed to compile: {e}"));
                    assert_eq!(
                        PacketStateMap::analyze(&d, &ports(nports)),
                        analyze_by_path_enumeration(&d, &ports(nports)),
                        "{name} over {nports} ports"
                    );
                }
            }
        }
    }

    #[test]
    fn walk_matches_path_enumeration_on_the_table5_row_policy() {
        // `assumption ; dns_tunnel_detect ; assign_egress`: inport tests
        // narrow the ingress side, and most of the diagram never meets state.
        for nports in [4, 12, 70] {
            let program = snap_apps::assumption(nports)
                .seq(snap_apps::dns_tunnel_detect(10))
                .seq(snap_apps::assign_egress(nports));
            let d = snap_xfdd::compile(&program).unwrap();
            // Also with OBS ports the policy does not know, and duplicates.
            let mut wider = ports(nports + 3);
            wider.push(PortId(2));
            for obs in [ports(nports), wider] {
                let map = PacketStateMap::analyze(&d, &obs);
                assert_eq!(map, analyze_by_path_enumeration(&d, &obs), "{nports} ports");
                assert!(map.num_stateful_flows() > 0);
            }
        }
    }

    #[test]
    fn outport_tests_bound_the_egress_side_when_nothing_is_assigned() {
        // No assignment: the positive outport tests on the path name the
        // egress candidates; without any, every port is one.
        let p = ite(
            test(Field::OutPort, Value::Int(2)).or(test(Field::OutPort, Value::Int(3))),
            state_incr("count", vec![field(Field::InPort)]),
            id(),
        );
        let m = analyze(&p, 4);
        assert_eq!(
            m.flows_needing(&"count".into()),
            vec![
                (PortId(1), PortId(2)),
                (PortId(1), PortId(3)),
                (PortId(2), PortId(3)),
                (PortId(3), PortId(2)),
                (PortId(4), PortId(2)),
                (PortId(4), PortId(3)),
            ]
        );
    }

    fn assign_egress() -> Policy {
        // Port i serves prefix 10.0.i.0/24, as in the running example.
        let mut p = drop();
        for i in (1..=6u8).rev() {
            p = ite(
                test_prefix(Field::DstIp, 10, 0, i, 0, 24),
                modify(Field::OutPort, Value::Int(i64::from(i))),
                p,
            );
        }
        p
    }

    fn dns_tunnel_detect() -> Policy {
        ite(
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
        )
    }

    #[test]
    fn stateless_program_has_empty_mapping() {
        let m = analyze(&assign_egress(), 6);
        assert_eq!(m.num_stateful_flows(), 0);
        assert!(m.all_vars().is_empty());
    }

    #[test]
    fn dns_tunnel_flows_to_port6_need_all_three_vars() {
        let p = dns_tunnel_detect().seq(assign_egress());
        let m = analyze(&p, 6);
        // DNS responses (dstip in subnet 6) exit at port 6 and need all vars.
        for u in 1..=5 {
            let vars = m.vars_for(PortId(u), PortId(6));
            assert!(
                vars.contains(&"orphan".into())
                    && vars.contains(&"susp-client".into())
                    && vars.contains(&"blacklist".into()),
                "flow {u}->6 should need all three variables, got {vars:?}"
            );
        }
        // Traffic from the protected subnet (srcip in subnet 6) exiting at
        // other ports needs orphan and susp-client but not blacklist.
        let vars = m.vars_for(PortId(6), PortId(1));
        assert!(vars.contains(&"orphan".into()));
        assert!(vars.contains(&"susp-client".into()));
        assert!(!vars.contains(&"blacklist".into()));
    }

    #[test]
    fn inport_tests_limit_the_ingress_side() {
        // Count only packets entering at port 2, forwarded to port 1.
        let p = ite(
            test(Field::InPort, Value::Int(2)),
            state_incr("count", vec![field(Field::InPort)]),
            id(),
        )
        .seq(modify(Field::OutPort, Value::Int(1)));
        let m = analyze(&p, 3);
        assert!(m.vars_for(PortId(2), PortId(1)).contains(&"count".into()));
        assert!(m.vars_for(PortId(3), PortId(1)).is_empty());
        assert_eq!(
            m.flows_needing(&"count".into()),
            vec![(PortId(2), PortId(1))]
        );
    }

    #[test]
    fn unknown_egress_is_conservatively_all_ports() {
        // State is read but the outport is never assigned.
        let p = ite(
            state_truthy("blacklist", vec![field(Field::SrcIp)]),
            drop(),
            id(),
        );
        let m = analyze(&p, 3);
        // The passing branch exits somewhere unknown: every distinct pair is
        // conservatively included.
        assert_eq!(m.num_stateful_flows(), 3 * 2);
    }

    #[test]
    fn monitoring_counts_all_ingress_ports() {
        let p = state_incr("count", vec![field(Field::InPort)]).seq(assign_egress());
        let m = analyze(&p, 6);
        // Every (u, v) pair needs `count`.
        assert_eq!(m.num_stateful_flows(), 6 * 5);
        assert_eq!(m.all_vars().len(), 1);
    }
}
