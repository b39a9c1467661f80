//! Table-compiled programs: the second lowering stage below [`FlatProgram`],
//! and **the runtime** — the executable form the packet plane dispatches
//! through ([`TableProgram::step_stateless`] /
//! [`TableProgram::advance_stateless`] for stateless spans, the flat
//! program's tests and leaves for state). `snap_lang::eval` is the
//! specification it is differentially tested against.
//!
//! A [`FlatProgram`] already turns per-packet evaluation into index
//! arithmetic, but it still resolves one *test per step*: a policy that
//! discriminates one field over many values (an egress map over dstip
//! prefixes, a port whitelist, a DNS/port classifier) becomes a chain of
//! `Test::FieldValue` branches threaded along `fls` edges, and the packet
//! pays a field lookup plus a compare-and-branch per chain node.
//!
//! A [`TableProgram`] collapses every maximal run of same-field
//! `FieldValue` branches into one **dispatch stage**: a single field load
//! followed by one indexed lookup picks the successor for the whole run.
//! The lookup structure is chosen per run by key shape and density:
//!
//! * [`Lookup::Dense`] — a jump table indexed by `value - base`, for integer
//!   key sets dense enough that the table stays small (ports, opcodes);
//! * [`Lookup::Sorted`] — binary search over sorted keys, for sparse
//!   integer/string/symbol/bool/tuple key sets (exact-equality kinds);
//! * [`Lookup::Intervals`] — binary search over the elementary interval
//!   decomposition of the run's IP/prefix keys, so prefix containment
//!   (including nested prefixes, resolved by chain priority) is one probe;
//! * [`Lookup::Scan`] — first-match linear scan via [`Value::matches`],
//!   the fallback for mixed-kind runs.
//!
//! `Test::FieldField` and `Test::State` branches remain explicit branch
//! steps between stages, exactly as in the flat program: field-field tests
//! are rare, and state tests are where distributed execution must stop
//! anyway (the switch may not own the variable, and the store lock is only
//! taken past this point).
//!
//! The table program is a *view over* its flat program — successors are
//! [`FlatId`]s into the same arrays, leaves are applied through the flat
//! leaf tables, and the §4.5 packet tags stay flat ids, so the wire format
//! and resume semantics are untouched. Any flat id minted mid-run (a packet
//! paused at an interior chain node by an older snapshot, or resumed on
//! another switch) stays a valid entry point: interior nodes map to their
//! run's stage with a `min_pos` cursor, and lookups only honour matches at
//! chain positions ≥ that cursor (all positions of a run share the run's
//! final default, so the suffix semantics are exact).
//!
//! [`TableProgram::advance_stateless`] walks stages and stateless branches
//! until a leaf or a state test **without ever touching a store** — it is
//! infallible, which is what lets the batched driver run the stateless
//! prefix of a whole wave before acquiring any store lease.

use crate::flat::{FlatId, FlatNode, FlatProgram};
use crate::pool::eval_test;
use crate::test::Test;
use snap_lang::{EvalError, Field, Packet, Prefix, Store, Value};
use std::collections::BTreeSet;

/// How a branch of the flat program executes under the table compilation.
#[derive(Clone, Copy, Debug)]
enum Entry {
    /// An explicit stateless branch step (`FieldField`, or a `FieldValue`
    /// run of length one that a table would not improve).
    FieldBranch,
    /// A state test: the stateless prefix stops here.
    StateBranch,
    /// Member of a collapsed same-field run: dispatch through
    /// `stages[stage]`, honouring matches at chain positions ≥ `min_pos`
    /// only (this branch is the `min_pos`-th test of the run).
    Stage { stage: u32, min_pos: u32 },
}

/// The per-run lookup structure, chosen by key shape and density.
#[derive(Clone, Debug)]
pub enum Lookup {
    /// Dense integer jump table: `slots[value - base]` holds the chain
    /// position and successor, `None` slots fall through to the default.
    Dense {
        /// Smallest key of the run.
        base: i64,
        /// One slot per integer in `[base, base + slots.len())`.
        slots: Vec<Option<(u32, FlatId)>>,
    },
    /// Binary search over keys sorted by [`Value`] order (exact-equality
    /// key kinds only — never IPs or prefixes).
    Sorted {
        /// `(key, chain position, successor)` sorted by key.
        entries: Vec<(Value, u32, FlatId)>,
    },
    /// Elementary interval decomposition of IP/prefix keys: segment `i`
    /// spans `[starts[i], starts[i+1])` (the last segment ends at the top
    /// of the address space) and `covers[i]` lists the chain entries
    /// containing it, in chain order (first match wins, so nested prefixes
    /// resolve exactly like the original test chain).
    Intervals {
        /// Segment start addresses, ascending; addresses below `starts[0]`
        /// match nothing.
        starts: Vec<u32>,
        /// Matching `(chain position, successor)` pairs per segment.
        covers: Vec<Vec<(u32, FlatId)>>,
    },
    /// First-match linear scan over the chain via [`Value::matches`] —
    /// the fallback for runs mixing key kinds.
    Scan,
}

/// One collapsed run of same-field `FieldValue` branches.
#[derive(Clone, Debug)]
struct Stage {
    /// The field every test of the run reads.
    field: Field,
    /// Where the run falls through when no key matches (the `fls` successor
    /// of the run's last test — shared by every suffix of the run).
    default: FlatId,
    /// `(key, successor)` in chain order; the ground truth the lookup
    /// structures are compiled from, and the scan fallback.
    chain: Vec<(Value, FlatId)>,
    /// The compiled lookup.
    lookup: Lookup,
}

impl Stage {
    /// Resolve one packet through this stage, honouring only chain
    /// positions ≥ `min_pos` (resume mid-run keeps suffix semantics; every
    /// suffix shares the run's default).
    #[inline]
    fn dispatch(&self, pkt: &Packet, min_pos: u32) -> FlatId {
        let Some(actual) = pkt.get(&self.field) else {
            // Missing field: every test of the run is false.
            return self.default;
        };
        match &self.lookup {
            Lookup::Dense { base, slots } => {
                let Value::Int(i) = actual else {
                    // Integer keys never match a non-integer value.
                    return self.default;
                };
                let Some(off) = i.checked_sub(*base) else {
                    return self.default;
                };
                match slots.get(off as usize).copied().flatten() {
                    Some((pos, target)) if pos >= min_pos => target,
                    _ => self.default,
                }
            }
            Lookup::Sorted { entries } => {
                // Exact-equality key kinds: `Value::matches` degenerates to
                // `==`, so Ord-based binary search is the whole test.
                match entries.binary_search_by(|(k, _, _)| k.cmp(actual)) {
                    Ok(i) if entries[i].1 >= min_pos => entries[i].2,
                    _ => self.default,
                }
            }
            Lookup::Intervals { starts, covers } => match actual {
                Value::Ip(ip) => {
                    let seg = starts.partition_point(|s| *s <= ip.0);
                    if seg == 0 {
                        return self.default;
                    }
                    covers[seg - 1]
                        .iter()
                        .find(|(pos, _)| *pos >= min_pos)
                        .map(|&(_, target)| target)
                        .unwrap_or(self.default)
                }
                // A prefix-valued header compares by equality against
                // prefix keys but by containment against IP keys
                // (`Value::matches`); the scan keeps those semantics exact.
                Value::Prefix(_) => self.scan(actual, min_pos),
                // IP/prefix keys never match any other kind.
                _ => self.default,
            },
            Lookup::Scan => self.scan(actual, min_pos),
        }
    }

    /// First-match linear scan from `min_pos` — the semantic reference the
    /// compiled lookups must agree with.
    fn scan(&self, actual: &Value, min_pos: u32) -> FlatId {
        self.chain
            .iter()
            .enumerate()
            .skip(min_pos as usize)
            .find(|(_, (key, _))| key.matches(actual))
            .map(|(_, (_, target))| *target)
            .unwrap_or(self.default)
    }
}

/// Shape statistics of a compiled [`TableProgram`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TableStats {
    /// Number of dispatch stages (collapsed runs).
    pub stages: usize,
    /// Stages compiled to a dense jump table.
    pub dense: usize,
    /// Stages compiled to a sorted exact-match table.
    pub sorted: usize,
    /// Stages compiled to an interval table.
    pub intervals: usize,
    /// Stages left as linear scans (mixed key kinds).
    pub scans: usize,
    /// Flat branches absorbed into stages (tests a packet no longer
    /// evaluates one by one).
    pub collapsed_tests: usize,
    /// Longest collapsed run, in tests.
    pub longest_chain: usize,
    /// Flat branches kept as explicit stateless steps.
    pub field_branches: usize,
    /// Flat branches that are state tests (stateless-prefix stops).
    pub state_branches: usize,
}

/// A table-compiled program: per-field dispatch stages over a
/// [`FlatProgram`] (see the module docs).
///
/// A `TableProgram` is only meaningful together with the exact
/// `FlatProgram` it was compiled from — every evaluation entry point takes
/// both, and pairing it with any other program is a logic error (checked
/// only by the shared `FlatId` bounds).
#[derive(Clone, Debug)]
pub struct TableProgram {
    /// How each flat branch executes, parallel to the flat branch arrays.
    entries: Vec<Entry>,
    /// The collapsed runs.
    stages: Vec<Stage>,
}

/// Dense jump tables are capped at this many slots; sparser integer runs
/// fall back to binary search.
const DENSE_SLOT_CAP: i128 = 1024;

impl TableProgram {
    /// Compile the dispatch tables for `flat`.
    ///
    /// Runs are discovered greedily from parents down (child-first
    /// numbering means scanning branch indices in descending order visits a
    /// run's head before its interior), following `fls` edges while the
    /// successor is an unclaimed `FieldValue` branch on the same field.
    /// Runs of length one stay explicit branches.
    pub fn compile(flat: &FlatProgram) -> TableProgram {
        let nb = flat.num_branches();
        let mut entries = vec![Entry::FieldBranch; nb];
        let mut claimed = vec![false; nb];
        let mut stages: Vec<Stage> = Vec::new();
        for b in (0..nb).rev() {
            let head = flat.branch_id(b);
            let FlatNode::Branch { test, .. } = flat.node(head) else {
                unreachable!("branch ids resolve to branches")
            };
            let field = match test {
                Test::State { .. } => {
                    entries[b] = Entry::StateBranch;
                    continue;
                }
                Test::FieldField(_, _) => continue, // stays FieldBranch
                Test::FieldValue(field, _) if !claimed[b] => field.clone(),
                Test::FieldValue(_, _) => continue, // interior of a prior run
            };
            // Trace the run: same-field FieldValue branches threaded along
            // `fls`, stopping at leaves, other tests, already-claimed
            // branches, or a repeated key (impossible in an ordered xFDD,
            // where chain keys ascend strictly, but kept for generality).
            let mut chain: Vec<(Value, FlatId)> = Vec::new();
            let mut members: Vec<usize> = Vec::new();
            let mut cur = head;
            let default = loop {
                if cur.is_leaf() {
                    break cur;
                }
                let i = cur.branch_index();
                if claimed[i] {
                    break cur;
                }
                let FlatNode::Branch { test, tru, fls, .. } = flat.node(cur) else {
                    unreachable!("branch ids resolve to branches")
                };
                match test {
                    Test::FieldValue(f, v) if *f == field && !chain.iter().any(|(k, _)| k == v) => {
                        members.push(i);
                        chain.push((v.clone(), tru));
                        cur = fls;
                    }
                    _ => break cur,
                }
            };
            if chain.len() < 2 {
                continue; // a table would not beat the single compare
            }
            let stage = u32::try_from(stages.len()).expect("stage count fits u32");
            for (pos, &i) in members.iter().enumerate() {
                claimed[i] = true;
                entries[i] = Entry::Stage {
                    stage,
                    min_pos: pos as u32,
                };
            }
            let lookup = build_lookup(&chain);
            stages.push(Stage {
                field,
                default,
                chain,
                lookup,
            });
        }
        TableProgram { entries, stages }
    }

    /// One stateless dispatch step from branch `at`: the successor after
    /// resolving the branch's test — or its whole run, when `at` belongs to
    /// a collapsed stage — against the packet. `None` means `at` is a state
    /// test and the stateless prefix ends here. Infallible: field tests
    /// cannot error and no store is touched.
    #[inline]
    pub fn step_stateless(&self, flat: &FlatProgram, at: FlatId, pkt: &Packet) -> Option<FlatId> {
        match self.entries[at.branch_index()] {
            Entry::StateBranch => None,
            Entry::Stage { stage, min_pos } => {
                Some(self.stages[stage as usize].dispatch(pkt, min_pos))
            }
            Entry::FieldBranch => {
                let FlatNode::Branch { test, tru, fls, .. } = flat.node(at) else {
                    unreachable!("branch ids resolve to branches")
                };
                Some(if eval_field_test(test, pkt) { tru } else { fls })
            }
        }
    }

    /// Advance from `from` through dispatch stages and stateless branches
    /// until a leaf or a state test, without touching any store. Returns
    /// the leaf id, or the id of the first state branch reached.
    #[inline]
    pub fn advance_stateless(&self, flat: &FlatProgram, from: FlatId, pkt: &Packet) -> FlatId {
        let mut cur = from;
        while !cur.is_leaf() {
            match self.step_stateless(flat, cur, pkt) {
                Some(next) => cur = next,
                None => return cur,
            }
        }
        cur
    }

    /// Walk from `from` to a leaf, dispatching stateless spans through the
    /// tables and evaluating state tests against `store` — the table
    /// counterpart of [`FlatProgram::walk`], with identical results. A
    /// test oracle over a by-name [`Store`]: no plane calls it (the packet
    /// path reaches state by slot, through a switch's shards).
    pub fn walk(
        &self,
        flat: &FlatProgram,
        from: FlatId,
        pkt: &Packet,
        store: &Store,
    ) -> Result<FlatId, EvalError> {
        let mut cur = from;
        loop {
            cur = self.advance_stateless(flat, cur, pkt);
            if cur.is_leaf() {
                return Ok(cur);
            }
            let FlatNode::Branch { test, tru, fls, .. } = flat.node(cur) else {
                unreachable!("branch ids resolve to branches")
            };
            cur = if eval_test(test, pkt, store)? {
                tru
            } else {
                fls
            };
        }
    }

    /// Run the program on a packet and store with one-big-switch semantics
    /// — the table counterpart of [`FlatProgram::evaluate`], with identical
    /// results. A test oracle over a by-name [`Store`]: no plane calls it.
    pub fn evaluate(
        &self,
        flat: &FlatProgram,
        pkt: &Packet,
        store: &Store,
    ) -> Result<(BTreeSet<Packet>, Store), EvalError> {
        let leaf = self.walk(flat, flat.root(), pkt, store)?;
        flat.leaf(leaf).apply(pkt, store)
    }

    /// Number of dispatch stages.
    pub fn num_stages(&self) -> usize {
        self.stages.len()
    }

    /// Shape statistics (stage kinds, collapsed test counts) for benches
    /// and perf tracking.
    pub fn stats(&self) -> TableStats {
        let mut s = TableStats {
            stages: self.stages.len(),
            ..TableStats::default()
        };
        for stage in &self.stages {
            match stage.lookup {
                Lookup::Dense { .. } => s.dense += 1,
                Lookup::Sorted { .. } => s.sorted += 1,
                Lookup::Intervals { .. } => s.intervals += 1,
                Lookup::Scan => s.scans += 1,
            }
            s.collapsed_tests += stage.chain.len();
            s.longest_chain = s.longest_chain.max(stage.chain.len());
        }
        for e in &self.entries {
            match e {
                Entry::FieldBranch => s.field_branches += 1,
                Entry::StateBranch => s.state_branches += 1,
                Entry::Stage { .. } => {}
            }
        }
        s
    }

    /// The lookup structure compiled for the run containing branch `at`,
    /// if `at` was collapsed into a stage (diagnostics and tests).
    pub fn lookup_at(&self, at: FlatId) -> Option<&Lookup> {
        match self.entries[at.branch_index()] {
            Entry::Stage { stage, .. } => Some(&self.stages[stage as usize].lookup),
            _ => None,
        }
    }
}

/// Evaluate a stateless (field-only) test. State tests are unreachable
/// here: the entry classification routes them to the caller before any
/// evaluation.
#[inline]
fn eval_field_test(test: &Test, pkt: &Packet) -> bool {
    match test {
        Test::FieldValue(f, v) => pkt.get(f).is_some_and(|actual| v.matches(actual)),
        Test::FieldField(f, g) => match (pkt.get(f), pkt.get(g)) {
            (Some(a), Some(b)) => a == b,
            _ => false,
        },
        Test::State { .. } => unreachable!("state tests are classified as StateBranch"),
    }
}

/// Choose and build the lookup structure for one run.
fn build_lookup(chain: &[(Value, FlatId)]) -> Lookup {
    let all_int = chain.iter().all(|(k, _)| matches!(k, Value::Int(_)));
    if all_int {
        let ints: Vec<i64> = chain
            .iter()
            .map(|(k, _)| match k {
                Value::Int(i) => *i,
                _ => unreachable!("checked all-int"),
            })
            .collect();
        let base = *ints.iter().min().expect("run has ≥ 2 keys");
        let max = *ints.iter().max().expect("run has ≥ 2 keys");
        let span = i128::from(max) - i128::from(base) + 1;
        // Dense only when the table stays small and at least a quarter
        // full — sparse ports would waste cache for no fewer probes.
        if span <= DENSE_SLOT_CAP && span <= 4 * chain.len() as i128 {
            let mut slots: Vec<Option<(u32, FlatId)>> = vec![None; span as usize];
            for (pos, (&key, &(_, target))) in ints.iter().zip(chain.iter()).enumerate() {
                let slot = &mut slots[(key - base) as usize];
                if slot.is_none() {
                    *slot = Some((pos as u32, target));
                }
            }
            return Lookup::Dense { base, slots };
        }
    }
    let any_addr = chain
        .iter()
        .any(|(k, _)| matches!(k, Value::Ip(_) | Value::Prefix(_)));
    if !any_addr {
        // Exact-equality key kinds: matching is Value equality, so a
        // sorted table probed by Ord is exact for every actual value.
        let mut entries: Vec<(Value, u32, FlatId)> = chain
            .iter()
            .enumerate()
            .map(|(pos, (k, t))| (k.clone(), pos as u32, *t))
            .collect();
        entries.sort_by(|a, b| (&a.0, a.1).cmp(&(&b.0, b.1)));
        entries.dedup_by(|later, first| later.0 == first.0); // keep first pos
        return Lookup::Sorted { entries };
    }
    let all_addr = chain
        .iter()
        .all(|(k, _)| matches!(k, Value::Ip(_) | Value::Prefix(_)));
    if !all_addr {
        return Lookup::Scan; // mixed kinds: keep exact first-match semantics
    }
    // Elementary interval decomposition over the address space: every key
    // is a contiguous `[lo, hi]` range (an IP is a point, a prefix a
    // block), and cutting the space at every range boundary yields
    // segments each key either fully covers or misses.
    let ranges: Vec<(u32, u32, u32, FlatId)> = chain
        .iter()
        .enumerate()
        .map(|(pos, (k, t))| {
            let (lo, hi) = match k {
                Value::Ip(ip) => (ip.0, ip.0),
                Value::Prefix(p) => (p.addr.0, p.addr.0 | prefix_host_mask(p)),
                _ => unreachable!("checked all-addr"),
            };
            (lo, hi, pos as u32, *t)
        })
        .collect();
    let mut points: BTreeSet<u32> = BTreeSet::new();
    for &(lo, hi, _, _) in &ranges {
        points.insert(lo);
        if let Some(above) = hi.checked_add(1) {
            points.insert(above);
        }
    }
    let starts: Vec<u32> = points.into_iter().collect();
    let covers: Vec<Vec<(u32, FlatId)>> = starts
        .iter()
        .map(|&seg_lo| {
            // A segment never straddles a range boundary, so covering its
            // first address is covering all of it.
            let mut cover: Vec<(u32, FlatId)> = ranges
                .iter()
                .filter(|&&(lo, hi, _, _)| lo <= seg_lo && seg_lo <= hi)
                .map(|&(_, _, pos, target)| (pos, target))
                .collect();
            cover.sort_by_key(|&(pos, _)| pos);
            cover
        })
        .collect();
    Lookup::Intervals { starts, covers }
}

/// The host-bits mask of a prefix (`!network_mask`): OR-ing it onto the
/// network address yields the top of the prefix's range.
fn prefix_host_mask(p: &Prefix) -> u32 {
    if p.len == 0 {
        u32::MAX
    } else {
        u32::MAX.checked_shr(u32::from(p.len)).unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pool::{NodeId, Pool};
    use crate::translate::to_xfdd;
    use snap_lang::builder::*;
    use snap_lang::{Field, Policy, Value};

    fn compile_both(policy: &Policy) -> (Pool, NodeId, FlatProgram, TableProgram) {
        let deps = crate::deps::StateDependencies::analyze(policy);
        let mut pool = Pool::new(deps.var_order());
        let root = to_xfdd(policy, &mut pool).unwrap();
        let flat = FlatProgram::from_pool(&pool, root);
        let tables = TableProgram::compile(&flat);
        (pool, root, flat, tables)
    }

    /// Chain of ite's over one field — the table-collapse showcase.
    fn chain_over(field: Field, keys: &[Value]) -> Policy {
        let mut p = drop();
        for (i, k) in keys.iter().enumerate().rev() {
            p = ite(
                test(field.clone(), k.clone()),
                modify(Field::OutPort, Value::Int(i as i64 + 1)),
                p,
            );
        }
        p
    }

    fn assert_equiv(policy: &Policy, packets: &[Packet]) {
        let (pool, root, flat, tables) = compile_both(policy);
        let mut store_flat = Store::new();
        let mut store_tab = Store::new();
        for pkt in packets {
            let a = flat.evaluate(pkt, &store_flat);
            let b = tables.evaluate(&flat, pkt, &store_tab);
            match (a, b) {
                (Ok((pa, sa)), Ok((pb, sb))) => {
                    // The source diagram agrees too (sanity anchor).
                    let (pp, _) = pool.evaluate(root, pkt, &store_flat).unwrap();
                    assert_eq!(pa, pp, "flat diverged from pool on {pkt:?}");
                    assert_eq!(pa, pb, "packets diverged on {pkt:?}");
                    assert_eq!(sa, sb, "stores diverged on {pkt:?}");
                    store_flat = sa;
                    store_tab = sb;
                }
                (Err(ea), Err(eb)) => assert_eq!(ea, eb),
                (a, b) => panic!("result kinds diverged: {a:?} vs {b:?}"),
            }
        }
    }

    #[test]
    fn dense_table_for_dense_int_run() {
        let keys: Vec<Value> = (50i64..58).map(Value::Int).collect();
        let policy = chain_over(Field::SrcPort, &keys);
        let (_, _, flat, tables) = compile_both(&policy);
        let stats = tables.stats();
        assert_eq!(stats.stages, 1);
        assert_eq!(stats.dense, 1);
        assert_eq!(stats.collapsed_tests, 8);
        assert!(matches!(
            tables.lookup_at(flat.root()),
            Some(Lookup::Dense { .. })
        ));
        let pkts: Vec<Packet> = (45i64..62)
            .map(|p| Packet::new().with(Field::SrcPort, p))
            .chain([Packet::new()]) // missing field
            .collect();
        assert_equiv(&policy, &pkts);
    }

    #[test]
    fn sorted_table_for_sparse_int_run() {
        let keys: Vec<Value> = [22i64, 53, 80, 443, 8080, 123456].map(Value::Int).to_vec();
        let policy = chain_over(Field::DstPort, &keys);
        let (_, _, flat, tables) = compile_both(&policy);
        assert_eq!(tables.stats().sorted, 1);
        assert!(matches!(
            tables.lookup_at(flat.root()),
            Some(Lookup::Sorted { .. })
        ));
        let pkts: Vec<Packet> = [21i64, 22, 53, 80, 443, 8080, 123456, 9]
            .iter()
            .map(|&p| Packet::new().with(Field::DstPort, p))
            .collect();
        assert_equiv(&policy, &pkts);
    }

    #[test]
    fn interval_table_resolves_nested_prefixes_by_chain_order() {
        let keys = vec![
            Value::prefix(10, 0, 6, 0, 24), // tested first: wins inside 10.0.6.0/24
            Value::prefix(10, 0, 0, 0, 8),
            Value::ip(192, 168, 1, 1),
        ];
        let policy = chain_over(Field::DstIp, &keys);
        let (_, _, flat, tables) = compile_both(&policy);
        assert_eq!(tables.stats().intervals, 1);
        assert!(matches!(
            tables.lookup_at(flat.root()),
            Some(Lookup::Intervals { .. })
        ));
        let pkts: Vec<Packet> = [
            Value::ip(10, 0, 6, 7),    // inner prefix
            Value::ip(10, 1, 0, 1),    // outer prefix only
            Value::ip(192, 168, 1, 1), // exact ip
            Value::ip(192, 168, 1, 2), // miss
            Value::ip(9, 255, 255, 255),
            Value::prefix(10, 0, 6, 0, 24), // prefix-valued header: scan path
            Value::Int(4),                  // wrong kind
        ]
        .into_iter()
        .map(|v| Packet::new().with(Field::DstIp, v))
        .collect();
        assert_equiv(&policy, &pkts);
    }

    #[test]
    fn zero_len_prefix_covers_the_whole_space() {
        let keys = vec![Value::prefix(0, 0, 0, 0, 0), Value::prefix(10, 0, 0, 0, 8)];
        let policy = chain_over(Field::SrcIp, &keys);
        let pkts: Vec<Packet> = [
            Value::ip(0, 0, 0, 0),
            Value::ip(10, 2, 3, 4),
            Value::ip(255, 255, 255, 255),
        ]
        .into_iter()
        .map(|v| Packet::new().with(Field::SrcIp, v))
        .collect();
        assert_equiv(&policy, &pkts);
    }

    #[test]
    fn mixed_equality_kinds_use_a_sorted_table() {
        // Int/Str/Symbol all match by plain equality, so one sorted table
        // covers the mixed-kind run.
        let keys = vec![Value::Int(53), Value::str("evil.test"), Value::sym("SYN")];
        let policy = chain_over(Field::Custom("meta".into()), &keys);
        let (_, _, flat, tables) = compile_both(&policy);
        assert_eq!(tables.stats().sorted, 1);
        assert!(matches!(
            tables.lookup_at(flat.root()),
            Some(Lookup::Sorted { .. })
        ));
        let pkts: Vec<Packet> = [
            Value::Int(53),
            Value::str("evil.test"),
            Value::sym("SYN"),
            Value::Bool(true),
        ]
        .into_iter()
        .map(|v| Packet::new().with(Field::Custom("meta".into()), v))
        .collect();
        assert_equiv(&policy, &pkts);
    }

    #[test]
    fn address_and_equality_kinds_mixed_fall_back_to_scan() {
        // A prefix key matches by containment while an int key matches by
        // equality — no single table covers both, so the run scans.
        let keys = vec![
            Value::Int(53),
            Value::prefix(10, 0, 0, 0, 8),
            Value::str("evil.test"),
        ];
        let policy = chain_over(Field::Custom("meta".into()), &keys);
        let (_, _, flat, tables) = compile_both(&policy);
        assert_eq!(tables.stats().scans, 1);
        assert!(matches!(tables.lookup_at(flat.root()), Some(Lookup::Scan)));
        let pkts: Vec<Packet> = [
            Value::Int(53),
            Value::ip(10, 3, 2, 1),
            Value::ip(11, 0, 0, 1),
            Value::str("evil.test"),
            Value::prefix(10, 0, 0, 0, 8),
        ]
        .into_iter()
        .map(|v| Packet::new().with(Field::Custom("meta".into()), v))
        .collect();
        assert_equiv(&policy, &pkts);
    }

    #[test]
    fn state_tests_stop_the_stateless_prefix() {
        let policy = ite(
            test(Field::SrcPort, Value::Int(53)),
            state_incr("dns", vec![field(Field::DstIp)]).seq(modify(Field::OutPort, Value::Int(6))),
            ite(
                state_test("dns", vec![field(Field::SrcIp)], int(2)),
                drop(),
                modify(Field::OutPort, Value::Int(1)),
            ),
        );
        let (_, _, flat, tables) = compile_both(&policy);
        assert!(tables.stats().state_branches > 0);
        let pkt = Packet::new()
            .with(Field::SrcPort, 80)
            .with(Field::SrcIp, Value::ip(10, 0, 0, 1));
        // The stateless prefix must stop *at* the state branch, not pass it.
        let stop = tables.advance_stateless(&flat, flat.root(), &pkt);
        assert!(!stop.is_leaf());
        assert!(flat.branch_var(stop).is_some());
        // Full walk with a store agrees with the flat walk.
        let store = Store::new();
        assert_eq!(
            tables.walk(&flat, flat.root(), &pkt, &store).unwrap(),
            flat.walk(flat.root(), &pkt, &store).unwrap()
        );
        assert_equiv(
            &policy,
            &[
                Packet::new()
                    .with(Field::SrcPort, 53)
                    .with(Field::SrcIp, Value::ip(1, 1, 1, 1))
                    .with(Field::DstIp, Value::ip(2, 2, 2, 2)),
                pkt,
            ],
        );
    }

    #[test]
    fn every_branch_id_is_a_valid_entry_point() {
        // Packets can resume mid-run on another switch: walking from *any*
        // interior branch id must match the flat walk from the same id.
        let policy = chain_over(
            Field::DstIp,
            &[
                Value::prefix(10, 0, 1, 0, 24),
                Value::prefix(10, 0, 2, 0, 24),
                Value::prefix(10, 0, 0, 0, 16),
                Value::ip(172, 16, 0, 1),
            ],
        )
        .par(chain_over(
            Field::SrcPort,
            &(1i64..9).map(Value::Int).collect::<Vec<_>>(),
        ));
        let (_, _, flat, tables) = compile_both(&policy);
        let store = Store::new();
        let pkts: Vec<Packet> = (0i64..16)
            .map(|i| {
                Packet::new()
                    .with(Field::DstIp, Value::ip(10, 0, (i % 4) as u8, 7))
                    .with(Field::SrcPort, i % 10)
            })
            .collect();
        for b in 0..flat.num_branches() {
            let from = flat.branch_id(b);
            for pkt in &pkts {
                assert_eq!(
                    tables.walk(&flat, from, pkt, &store).unwrap(),
                    flat.walk(from, pkt, &store).unwrap(),
                    "walks diverged from {from:?} on {pkt:?}"
                );
            }
        }
    }

    #[test]
    fn field_field_tests_stay_explicit_branches() {
        // No surface builder produces FieldField tests; build the diagram
        // by hand the way composition would.
        use crate::action::{Action, Leaf};
        use crate::test::VarOrder;
        let mut pool = Pool::new(VarOrder::empty());
        let to1 = pool.leaf(Leaf::single(Action::Modify(Field::OutPort, Value::Int(1))));
        let to2 = pool.leaf(Leaf::single(Action::Modify(Field::OutPort, Value::Int(2))));
        let root = pool.branch(Test::FieldField(Field::SrcIp, Field::DstIp), to1, to2);
        let flat = FlatProgram::from_pool(&pool, root);
        let tables = TableProgram::compile(&flat);
        assert_eq!(tables.num_stages(), 0);
        assert_eq!(tables.stats().field_branches, flat.num_branches());
        let same = Packet::new()
            .with(Field::SrcIp, Value::ip(1, 2, 3, 4))
            .with(Field::DstIp, Value::ip(1, 2, 3, 4));
        let diff = Packet::new()
            .with(Field::SrcIp, Value::ip(1, 2, 3, 4))
            .with(Field::DstIp, Value::ip(4, 3, 2, 1));
        let store = Store::new();
        for pkt in [&same, &diff, &Packet::new()] {
            assert_eq!(
                tables.evaluate(&flat, pkt, &store).unwrap(),
                flat.evaluate(pkt, &store).unwrap()
            );
        }
    }

    #[test]
    fn single_leaf_program_compiles_to_empty_tables() {
        let policy = modify(Field::OutPort, Value::Int(3));
        let (_, _, flat, tables) = compile_both(&policy);
        assert_eq!(tables.num_stages(), 0);
        let pkt = Packet::new();
        assert_eq!(
            tables.advance_stateless(&flat, flat.root(), &pkt),
            flat.root()
        );
        assert_equiv(&policy, &[pkt]);
    }

    #[test]
    fn drop_leaves_are_preserved() {
        let policy = chain_over(Field::SrcPort, &[Value::Int(1), Value::Int(2)]);
        // Everything not matching 1 or 2 hits the drop default.
        assert_equiv(
            &policy,
            &(0..4)
                .map(|p| Packet::new().with(Field::SrcPort, p))
                .collect::<Vec<_>>(),
        );
    }
}
