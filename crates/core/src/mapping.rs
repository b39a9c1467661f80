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
//!
//! The result keeps what the walk computes and nothing else: one sorted
//! variable table and a dense `ingress × egress` matrix of variable bitsets.
//! That is the one representation — comparing two mappings is a slice
//! compare, cloning or dropping one touches four allocations — and names
//! come back out through borrowed views ([`PacketStateMap::vars_for`],
//! [`PacketStateMap::iter`], [`PacketStateMap::all_vars`],
//! [`PacketStateMap::flows_needing`]). A map of name sets per port pair
//! exists only in this module's tests, as the output of the path-enumeration
//! oracle the views are checked against.

use snap_lang::{Field, StateVar, Value};
use snap_topology::PortId;
use snap_xfdd::{Action, ActionSeq, Leaf, Node, NodeId, Pool, Test, Xfdd};
use std::collections::BTreeSet;
use std::fmt;
use std::sync::Arc;

/// The packet-state mapping: state variables needed per (ingress, egress)
/// OBS port pair.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct PacketStateMap {
    /// The diagram's state variables, ascending: bit `i` of a cell stands
    /// for `vars[i]`.
    vars: Arc<[StateVar]>,
    /// The rows: the OBS ports, ascending, each once.
    ingress: Arc<[PortId]>,
    /// The columns: the OBS ports and any other port a leaf assigns (such a
    /// flow is recorded even though nothing can route it), ascending.
    egress: Arc<[PortId]>,
    /// `ingress × egress` cells, row-major, [`words_for`]`(vars.len())`
    /// words each.
    cells: Vec<u64>,
}

/// The state variables of one flow: a borrowed, by-name view of one cell of
/// a [`PacketStateMap`], in ascending name order.
#[derive(Clone, Copy)]
pub struct VarSet<'a> {
    vars: &'a [StateVar],
    bits: &'a [u64],
}

impl<'a> VarSet<'a> {
    /// The variables, ascending.
    pub fn iter(&self) -> impl Iterator<Item = &'a StateVar> + 'a {
        let vars = self.vars;
        ones(self.bits).map(move |i| &vars[i])
    }

    /// Is `var` in the set?
    pub fn contains(&self, var: &StateVar) -> bool {
        let at = self.vars.binary_search(var);
        at.is_ok_and(|i| self.bits[i / 64] & (1 << (i % 64)) != 0)
    }

    /// Does the flow need no state at all?
    pub fn is_empty(&self) -> bool {
        self.bits.iter().all(|&w| w == 0)
    }
}

impl fmt::Debug for VarSet<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_set().entries(self.iter()).finish()
    }
}

impl PacketStateMap {
    /// Compute the mapping for a program xFDD over the given OBS ports.
    pub fn analyze(xfdd: &Xfdd, ports: &[PortId]) -> PacketStateMap {
        let pool = xfdd.pool();
        // One bottom-up pass over the reachable diagram: the "touches state"
        // flag of every node, the diagram's variables, and the egress
        // candidates — the OBS ports and any other port a leaf assigns (such
        // a flow is recorded even though nothing can route it).
        let mut touches_state = vec![Reach::Unseen; pool.len()];
        let mut vars: BTreeSet<&StateVar> = BTreeSet::new();
        let ingress: BTreeSet<PortId> = ports.iter().copied().collect();
        let mut egress = ingress.clone();
        let mut stack = vec![xfdd.root()];
        while let Some(&id) = stack.last() {
            if touches_state[id.index()] != Reach::Unseen {
                stack.pop();
                continue;
            }
            let touches = match pool.node(id) {
                Node::Leaf(leaf) => {
                    let mut written = written_vars(leaf).peekable();
                    let touches = written.peek().is_some();
                    vars.extend(written);
                    egress.extend(leaf.0.iter().filter_map(assigned_outport));
                    touches
                }
                Node::Branch { test, tru, fls } => {
                    let (t, f) = (touches_state[tru.index()], touches_state[fls.index()]);
                    if t == Reach::Unseen || f == Reach::Unseen {
                        stack.extend([*fls, *tru]);
                        continue;
                    }
                    vars.extend(test.state_var());
                    test.state_var().is_some() || t == Reach::Touches || f == Reach::Touches
                }
            };
            touches_state[id.index()] = if touches {
                Reach::Touches
            } else {
                Reach::Clean
            };
            stack.pop();
        }
        let vars: Arc<[StateVar]> = vars.into_iter().cloned().collect();
        let ingress: Arc<[PortId]> = ingress.into_iter().collect();
        let egress: Arc<[PortId]> = egress.into_iter().collect();

        let column = |port: &PortId| egress.binary_search(port).expect("an egress candidate");
        let mut walk = Walk {
            pool,
            ingress: &ingress,
            egress: &egress,
            vars: &vars,
            obs_columns: ingress.iter().map(column).collect(),
            touches_state: &touches_state,
            sets: Vec::new(),
            tested_vars: Vec::new(),
            leaf_vars: Vec::new(),
            cells: vec![0; ingress.len() * egress.len() * words_for(vars.len())],
        };
        let inports = walk.push_set(ingress.len(), 0..ingress.len());
        let tested_out = walk.push_set(egress.len(), 0..0);
        walk.visit(xfdd.root(), inports, tested_out);
        let cells = walk.cells;
        PacketStateMap {
            vars,
            ingress,
            egress,
            cells,
        }
    }

    fn cell(&self, row: usize, column: usize) -> VarSet<'_> {
        VarSet {
            vars: &self.vars,
            bits: self.cell_bits(row * self.egress.len() + column),
        }
    }

    /// The variable table, ascending: bit `i` of a cell stands for
    /// `var_table()[i]`. With [`PacketStateMap::cell_of`] and
    /// [`PacketStateMap::cell_bits`], the placer's by-index view.
    pub(crate) fn var_table(&self) -> &[StateVar] {
        &self.vars
    }

    /// The index of the cell of the flow from `u` to `v`, if the map has a
    /// row for `u` and a column for `v`.
    pub(crate) fn cell_of(&self, u: PortId, v: PortId) -> Option<usize> {
        let row = self.ingress.binary_search(&u).ok()?;
        let column = self.egress.binary_search(&v).ok()?;
        Some(row * self.egress.len() + column)
    }

    /// The variable bitset of cell `at`.
    pub(crate) fn cell_bits(&self, at: usize) -> &[u64] {
        let words = words_for(self.vars.len());
        &self.cells[at * words..(at + 1) * words]
    }

    /// The state variables needed by the flow from `u` to `v`.
    pub fn vars_for(&self, u: PortId, v: PortId) -> VarSet<'_> {
        match self.cell_of(u, v) {
            Some(at) => VarSet {
                vars: &self.vars,
                bits: self.cell_bits(at),
            },
            None => VarSet {
                vars: &[],
                bits: &[],
            },
        }
    }

    /// Iterate over `(u, v, vars)` entries with a non-empty variable set,
    /// ascending in `(u, v)`.
    pub fn iter(&self) -> impl Iterator<Item = (PortId, PortId, VarSet<'_>)> {
        let pairs = (0..self.ingress.len())
            .flat_map(move |row| (0..self.egress.len()).map(move |column| (row, column)));
        pairs
            .map(|(row, column)| {
                (
                    self.ingress[row],
                    self.egress[column],
                    self.cell(row, column),
                )
            })
            .filter(|(_, _, vars)| !vars.is_empty())
    }

    /// Number of flows that need at least one state variable.
    pub fn num_stateful_flows(&self) -> usize {
        self.iter().count()
    }

    /// All state variables mentioned anywhere in the mapping.
    pub fn all_vars(&self) -> BTreeSet<StateVar> {
        let any = self.any_cell_bits();
        ones(&any).map(|i| self.vars[i].clone()).collect()
    }

    /// The union of every cell's bits: the table's variables some flow
    /// needs.
    pub(crate) fn any_cell_bits(&self) -> Vec<u64> {
        let mut any = vec![0u64; words_for(self.vars.len())];
        for cell in self.cells.chunks(any.len().max(1)) {
            any.iter_mut().zip(cell).for_each(|(a, &w)| *a |= w);
        }
        any
    }

    /// The flows (port pairs) that need a given variable.
    pub fn flows_needing(&self, var: &StateVar) -> Vec<(PortId, PortId)> {
        let flows = self.iter().filter(|(_, _, vars)| vars.contains(var));
        flows.map(|(u, v, _)| (u, v)).collect()
    }
}

/// Words of a bitset over `n` indices.
fn words_for(n: usize) -> usize {
    n.div_ceil(64)
}

/// The indices set in a bitset, ascending.
fn ones(bits: &[u64]) -> impl Iterator<Item = usize> + '_ {
    bits.iter().enumerate().flat_map(|(wi, &word)| {
        (0..64)
            .filter(move |bit| word & (1 << bit) != 0)
            .map(move |bit| wi * 64 + bit)
    })
}

/// What the pre-pass of [`PacketStateMap::analyze`] knows of a node: not
/// reached yet, or whether any path from it tests or writes state.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Reach {
    Unseen,
    Clean,
    Touches,
}

/// A port set on the walk's stack: `sets[at..at + len]`.
#[derive(Clone, Copy)]
struct SetRef {
    at: usize,
    len: usize,
}

/// The state of the depth-first walk behind [`PacketStateMap::analyze`].
struct Walk<'a> {
    pool: &'a Pool,
    ingress: &'a [PortId],
    egress: &'a [PortId],
    /// The diagram's state variables, sorted.
    vars: &'a [StateVar],
    /// The column (index into `egress`) of every OBS port, in row order.
    obs_columns: Vec<usize>,
    /// Per node: does any path from here test or write state?
    touches_state: &'a [Reach],
    /// The port sets of the path walked so far, as one stack of words: a
    /// set narrowed at a test is pushed for the sub-walk and popped after,
    /// so the walk allocates nothing per node.
    sets: Vec<u64>,
    /// Variables (as indices into `vars`) of the state tests on the path
    /// walked so far.
    tested_vars: Vec<usize>,
    /// The variables of the path ending at the leaf being collected (a
    /// buffer kept across leaves).
    leaf_vars: Vec<usize>,
    /// The matrix under construction (see [`PacketStateMap::cells`]).
    cells: Vec<u64>,
}

impl Walk<'_> {
    /// Push the set of `members` (indices below `capacity`) onto the stack.
    fn push_set(&mut self, capacity: usize, members: impl Iterator<Item = usize>) -> SetRef {
        let set = SetRef {
            at: self.sets.len(),
            len: words_for(capacity),
        };
        self.sets.resize(set.at + set.len, 0);
        for i in members {
            self.sets[set.at + i / 64] |= 1 << (i % 64);
        }
        set
    }

    /// Push a copy of `set` with index `bit` put in (`present`) or taken out.
    fn push_with(&mut self, set: SetRef, bit: usize, present: bool) -> SetRef {
        let at = self.sets.len();
        self.sets.extend_from_within(set.at..set.at + set.len);
        let word = &mut self.sets[at + bit / 64];
        if present {
            *word |= 1 << (bit % 64);
        } else {
            *word &= !(1 << (bit % 64));
        }
        SetRef { at, len: set.len }
    }

    fn set(&self, set: SetRef) -> &[u64] {
        &self.sets[set.at..set.at + set.len]
    }

    /// Walk the sub-diagram at `n`, reached by a path that `inports` (as
    /// indices into `ingress`) are consistent with and that tested `outport`
    /// positively for `tested_out` (as indices into `egress`).
    fn visit(&mut self, n: NodeId, inports: SetRef, tested_out: SetRef) {
        if self.set(inports).iter().all(|&w| w == 0)
            || (self.tested_vars.is_empty() && self.touches_state[n.index()] != Reach::Touches)
        {
            return;
        }
        let (test, tru, fls) = match self.pool.node(n) {
            Node::Leaf(leaf) => return self.collect(leaf, inports, tested_out),
            Node::Branch { test, tru, fls } => (&***test, *tru, *fls),
        };
        match test {
            // `Value::matches` on a port number is equality, so an `inport`
            // or `outport` test singles out at most one OBS port.
            Test::FieldValue(Field::InPort, v) => match port_index(self.ingress, v) {
                Some(port) if self.set(inports)[port / 64] & (1 << (port % 64)) != 0 => {
                    let only = self.push_set(self.ingress.len(), [port].into_iter());
                    self.visit(tru, only, tested_out);
                    self.sets.truncate(only.at);
                    let rest = self.push_with(inports, port, false);
                    self.visit(fls, rest, tested_out);
                    self.sets.truncate(rest.at);
                }
                _ => self.visit(fls, inports, tested_out),
            },
            Test::FieldValue(Field::OutPort, v) => {
                match port_index(self.ingress, v) {
                    Some(port) => {
                        let with = self.push_with(tested_out, self.obs_columns[port], true);
                        self.visit(tru, inports, with);
                        self.sets.truncate(with.at);
                    }
                    None => self.visit(tru, inports, tested_out),
                }
                self.visit(fls, inports, tested_out);
            }
            Test::State { var, .. } => {
                let var = self.vars.binary_search(var).expect("diagram variable");
                self.tested_vars.push(var);
                self.visit(tru, inports, tested_out);
                self.visit(fls, inports, tested_out);
                self.tested_vars.pop();
            }
            _ => {
                self.visit(tru, inports, tested_out);
                self.visit(fls, inports, tested_out);
            }
        }
    }

    /// A path ends at `leaf`: charge the variables tested along it and
    /// written by the leaf to every flow it carries.
    fn collect(&mut self, leaf: &Leaf, inports: SetRef, tested_out: SetRef) {
        let written = written_vars(leaf).map(|var| self.vars.binary_search(var));
        let written = written.map(|bit| bit.expect("diagram variable"));
        let mut vars = std::mem::take(&mut self.leaf_vars);
        vars.clear();
        vars.extend(self.tested_vars.iter().copied().chain(written));
        if !vars.is_empty() {
            self.charge(&vars, leaf, inports, tested_out);
        }
        self.leaf_vars = vars;
    }

    /// Add `vars` to the cell of every flow from `inports` to the egress
    /// ports of a path ending at `leaf`. Those are, by priority: explicit
    /// `outport ←` assignments in the leaf's action sequences; otherwise
    /// positive `outport = v` tests along the path; otherwise, if the leaf
    /// passes anything, the flow could exit anywhere (conservatively, all
    /// OBS ports); a path that drops every packet contributes no `(u, v)`
    /// demand.
    fn charge(&mut self, vars: &[usize], leaf: &Leaf, inports: SetRef, tested_out: SetRef) {
        let words = words_for(self.vars.len());
        let inports = &self.sets[inports.at..inports.at + inports.len];
        let (ingress, egress, cells) = (self.ingress, self.egress, &mut self.cells);
        let mut charge = |v: usize| {
            for u in ones(inports).filter(|&u| ingress[u] != egress[v]) {
                let cell = &mut cells[(u * egress.len() + v) * words..][..words];
                vars.iter()
                    .for_each(|var| cell[var / 64] |= 1 << (var % 64));
            }
        };
        let mut assigned = leaf.0.iter().filter_map(assigned_outport).peekable();
        let tested_out = &self.sets[tested_out.at..tested_out.at + tested_out.len];
        if assigned.peek().is_some() {
            let columns = assigned.map(|port| egress.binary_search(&port));
            columns.for_each(|v| charge(v.expect("an egress candidate")));
        } else if tested_out.iter().any(|&w| w != 0) {
            ones(tested_out).for_each(charge);
        } else if leaf.0.iter().any(|seq| !seq.drops) {
            self.obs_columns.iter().for_each(|&v| charge(v));
        }
    }
}

/// The index in `ports` of the port a test value names, if it names one.
fn port_index(ports: &[PortId], v: &Value) -> Option<usize> {
    let Value::Int(number) = v else {
        return None;
    };
    let port = PortId(usize::try_from(*number).ok()?);
    ports.binary_search(&port).ok()
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
        .flat_map(|seq| seq.actions.iter())
        .filter_map(Action::written_var)
}

#[cfg(test)]
mod tests {
    use super::*;
    use snap_lang::builder::*;
    use snap_lang::Policy;
    use std::collections::BTreeMap;

    fn ports(n: usize) -> Vec<PortId> {
        (1..=n).map(PortId).collect()
    }

    /// The mapping as a map of name sets — what the oracle produces, and
    /// what the dense matrix must read back as through its by-name views.
    type NameMap = BTreeMap<(PortId, PortId), BTreeSet<StateVar>>;

    /// Check every by-name view of `map` against the oracle's name sets.
    fn assert_views_match(map: &PacketStateMap, oracle: &NameMap, context: &str) {
        let by_iter: NameMap = map
            .iter()
            .map(|(u, v, vars)| ((u, v), vars.iter().cloned().collect()))
            .collect();
        assert_eq!(&by_iter, oracle, "iter() of {context}");
        assert_eq!(map.num_stateful_flows(), oracle.len(), "{context}");
        let all: BTreeSet<StateVar> = oracle.values().flatten().cloned().collect();
        assert_eq!(map.all_vars(), all, "all_vars() of {context}");
        for var in &all {
            let flows: Vec<(PortId, PortId)> = oracle
                .iter()
                .filter(|(_, vars)| vars.contains(var))
                .map(|(&pair, _)| pair)
                .collect();
            assert_eq!(map.flows_needing(var), flows, "{var} of {context}");
        }
        for (&(u, v), vars) in oracle {
            let view = map.vars_for(u, v);
            assert_eq!(view.iter().count(), vars.len(), "{u:?}->{v:?} of {context}");
            assert!(vars.iter().all(|var| view.contains(var)), "{context}");
            // The mirrored pair reads back too, whether or not it is mapped.
            let mirrored: BTreeSet<StateVar> = map.vars_for(v, u).iter().cloned().collect();
            assert_eq!(
                mirrored,
                oracle.get(&(v, u)).cloned().unwrap_or_default(),
                "{context}"
            );
        }
        assert!(map.vars_for(PortId(usize::MAX), PortId(1)).is_empty());
    }

    /// Analyze through the walk and through the path-enumeration oracle,
    /// which must agree.
    fn analyze(p: &Policy, nports: usize) -> PacketStateMap {
        let d = snap_xfdd::compile(p).unwrap();
        let map = PacketStateMap::analyze(&d, &ports(nports));
        let oracle = analyze_by_path_enumeration(&d, &ports(nports));
        assert_views_match(&map, &oracle, "the policy under test");
        map
    }

    /// The reference implementation `analyze` replaced, kept as its oracle:
    /// materialise every root-to-leaf path and scan it once per port.
    fn analyze_by_path_enumeration(xfdd: &Xfdd, ports: &[PortId]) -> NameMap {
        let mut map = NameMap::new();
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
                    map.entry((u, v)).or_default().extend(vars.iter().cloned());
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
                    assert_views_match(
                        &PacketStateMap::analyze(&d, &ports(nports)),
                        &analyze_by_path_enumeration(&d, &ports(nports)),
                        &format!("{name} over {nports} ports"),
                    );
                }
            }
        }
    }

    #[test]
    fn walk_matches_path_enumeration_on_igen50_ports() {
        // The benchmark's fleet: the catalogue routed over igen-50's OBS
        // ports, and the five-app stateful pipeline the edit workloads
        // deploy there.
        let topology = snap_topology::generators::igen_topology(50, 7);
        let obs: Vec<PortId> = topology.external_ports().map(|(p, _)| p).collect();
        let egress = snap_apps::assign_egress(obs.len());
        let pipeline = snap_apps::port_monitoring()
            .seq(snap_apps::dns_tunnel_detect(1_000_000))
            .seq(snap_apps::stateful_firewall())
            .seq(snap_apps::heavy_hitter_detection(1_000_000));
        let mut programs = snap_apps::catalogue();
        programs.push(("five-app pipeline", pipeline));
        for (name, policy) in programs {
            let d = snap_xfdd::compile(&policy.seq(egress.clone()))
                .unwrap_or_else(|e| panic!("{name} failed to compile: {e}"));
            let map = PacketStateMap::analyze(&d, &obs);
            let oracle = analyze_by_path_enumeration(&d, &obs);
            assert_views_match(&map, &oracle, &format!("{name} over igen-50"));
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
                let oracle = analyze_by_path_enumeration(&d, &obs);
                assert_views_match(&map, &oracle, &format!("{nports} ports"));
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
