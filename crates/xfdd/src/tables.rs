//! Table dispatch: the entry every lowered branch of a [`FlatProgram`]
//! carries for its stateless spans, which the packet plane executes through
//! [`FlatProgram::step_stateless`] / [`FlatProgram::advance_stateless`] and
//! [`FlatProgram::evaluate`] runs against a by-name [`Store`].
//!
//! Index arithmetic alone still resolves one *test per step* (that is
//! [`FlatProgram::walk`], the oracle): a policy that discriminates one field
//! over many values (an egress map over dstip prefixes, a port whitelist, a
//! DNS/port classifier) becomes a chain of `Test::FieldValue` branches
//! threaded along `fls` edges, and the packet would pay a field lookup plus
//! a compare-and-branch per chain node.
//!
//! Table dispatch collapses every same-field run of `FieldValue` branches
//! into one **dispatch stage**: a single field load followed by one indexed
//! lookup picks the successor for the whole run. The lookup structure is
//! chosen per run by key shape and density:
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
//! steps between stages, one test each: field-field tests
//! are rare, and state tests are where distributed execution must stop
//! anyway (the switch may not own the variable, and the store lock is only
//! taken past this point).
//!
//! Every branch carries its dispatch **entry**, made when the branch is
//! lowered (see `Table::lower` in [`crate::flat`]): a stage is built once,
//! for the head of a run, and every member below shares it through a
//! **cursor counted from the run's bottom** — the bottom test is position
//! 0, the head position `len - 1`, and a member honours only lookup matches
//! at positions ≤ its cursor. A member's cursor is the length of its own
//! run minus one, a fact about the member alone, so the suffix semantics
//! are exact (every suffix of a run shares the run's final default) and a
//! head prepended by a later lowering builds a new stage over the old
//! members without touching theirs. Since the old positions stay valid,
//! that new stage builds a lookup over its own new members only and hands
//! a miss down to the old stage, at the position of the run's first old
//! member; past `MAX_STAGE_DEPTH` such layers a stage is built over the
//! whole run again. A head prepended to a long run therefore costs memory
//! for what it adds. Any flat id minted mid-run — a packet
//! paused at an interior chain node by an older snapshot, or resumed on
//! another switch — stays a valid entry point.
//!
//! No stage is built per program, and the §4.5 packet tags stay flat ids, so
//! the wire format and resume semantics are untouched.
//!
//! [`FlatProgram::advance_stateless`] walks stages and stateless branches
//! until a leaf or a state test **without ever touching a store** — it is
//! infallible, which is what lets the batched driver run the stateless
//! prefix of a whole wave before any visit takes a store lock.
//!
//! [`TableProgram`] is a shim kept only because the benchmark's per-layer
//! probe builds against its `compile` and `evaluate`: it holds nothing and
//! delegates to [`FlatProgram::evaluate`]. It goes when ROADMAP item 5
//! touches the benchmark.

use crate::flat::{FlatId, FlatProgram};
use crate::test::Test;
use snap_lang::{EvalError, Field, Packet, Prefix, Store, Value};
use std::collections::BTreeSet;
use std::sync::Arc;

/// How a lowered branch executes under table dispatch.
#[derive(Clone, Debug)]
pub(crate) enum Entry {
    /// An explicit stateless branch step (`FieldField`, or a `FieldValue`
    /// test no same-field run goes through).
    FieldBranch,
    /// A state test: the stateless prefix stops here.
    StateBranch,
    /// Member of a collapsed same-field run: dispatch through `stage`,
    /// honouring matches at positions ≤ `cursor` only (positions count from
    /// the run's bottom; this branch is the `cursor`-th from it).
    Stage {
        /// The run's lookup, built for the run's head.
        stage: Arc<Stage>,
        /// This branch's position in the run, from the bottom.
        cursor: u32,
    },
}

/// The per-run lookup structure, chosen by key shape and density. Chain
/// positions count from the run's bottom (see the module docs).
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
    /// of the address space) and `covers[ends[i-1]..ends[i]]` lists the
    /// chain entries containing it, in chain order (first match wins, so
    /// nested prefixes resolve exactly like the original test chain). The
    /// covers of all segments share one array, so building the lookup costs
    /// the same few allocations whatever the run's length.
    Intervals {
        /// Segment start addresses, ascending; addresses below `starts[0]`
        /// match nothing.
        starts: Vec<u32>,
        /// Per segment, the end of its covers in `covers`.
        ends: Vec<u32>,
        /// Matching `(chain position, successor)` pairs, segment by segment.
        covers: Vec<(u32, FlatId)>,
    },
    /// First-match linear scan over the chain via [`Value::matches`] —
    /// the fallback for runs mixing key kinds.
    Scan,
}

/// How many stages deep one dispatch may delegate (see [`Stage::over`]):
/// a packet at a layered head probes at most this many lookups plus one.
pub(crate) const MAX_STAGE_DEPTH: u32 = 3;

/// One collapsed run of same-field `FieldValue` branches — or the top of
/// one, layered over the stage of the rest (see [`Stage::over`]).
#[derive(Debug)]
pub(crate) struct Stage {
    /// The field every test of the run reads.
    field: Field,
    /// Where the run falls through when no key matches (the `fls` successor
    /// of the run's bottom test — shared by every suffix of the run).
    default: FlatId,
    /// `(key, successor)` of this stage's own members in chain order, head
    /// first; the ground truth the lookup structures are compiled from, and
    /// the scan fallback. Keys ascend strictly: that is what makes a run.
    chain: Vec<(Value, FlatId)>,
    /// The compiled lookup over `chain`, its positions counted from the
    /// bottom of `chain`.
    pub(crate) lookup: Lookup,
    /// The stage of the run below this one's own members, and the position
    /// of that run's top member in it. Own positions start above it.
    below: Option<(Arc<Stage>, u32)>,
}

impl Stage {
    /// The stage of a whole run: `chain` head first, falling through to
    /// `default`.
    pub(crate) fn new(field: Field, chain: Vec<(Value, FlatId)>, default: FlatId) -> Stage {
        let lookup = build_lookup(&chain);
        Stage {
            field,
            default,
            chain,
            lookup,
            below: None,
        }
    }

    /// The stage of `chain` prepended to the run `stage` holds at and below
    /// position `top`. Positions count from the run's bottom, so the
    /// positions `stage` assigns stay valid: this stage builds a lookup for
    /// its own members only and hands every miss down, and a head prepended
    /// to a long run costs what it adds, not the run.
    pub(crate) fn over(chain: Vec<(Value, FlatId)>, stage: Arc<Stage>, top: u32) -> Stage {
        let lookup = build_lookup(&chain);
        Stage {
            field: stage.field.clone(),
            default: stage.default,
            chain,
            lookup,
            below: Some((stage, top)),
        }
    }

    /// How many stages a miss here is handed down through.
    pub(crate) fn depth(&self) -> u32 {
        self.below
            .as_ref()
            .map_or(0, |(stage, _)| 1 + stage.depth())
    }

    /// The first position this stage's own members take.
    fn base(&self) -> u32 {
        self.below.as_ref().map_or(0, |(_, top)| top + 1)
    }

    /// Resolve one packet through this stage, honouring only chain
    /// positions ≤ `cursor` (resume mid-run keeps suffix semantics; every
    /// suffix shares the run's default).
    #[inline]
    pub(crate) fn dispatch(&self, pkt: &Packet, cursor: u32) -> FlatId {
        match pkt.get(&self.field) {
            Some(actual) => self.resolve(actual, cursor),
            // Missing field: every test of the run is false.
            None => self.default,
        }
    }

    /// The first match from the member at `cursor` down: this stage's own
    /// members, then the run below them.
    fn resolve(&self, actual: &Value, cursor: u32) -> FlatId {
        if let Some(target) = self.find(actual, cursor - self.base()) {
            return target;
        }
        match &self.below {
            Some((stage, top)) => stage.resolve(actual, *top),
            None => self.default,
        }
    }

    /// The first own member at or below own position `cursor` whose key
    /// matches.
    #[inline]
    fn find(&self, actual: &Value, cursor: u32) -> Option<FlatId> {
        match &self.lookup {
            Lookup::Dense { base, slots } => {
                // Integer keys never match a non-integer value.
                let Value::Int(i) = actual else {
                    return None;
                };
                let off = usize::try_from(i.checked_sub(*base)?).ok()?;
                match slots.get(off).copied().flatten() {
                    Some((pos, target)) if pos <= cursor => Some(target),
                    _ => None,
                }
            }
            Lookup::Sorted { entries } => {
                // Exact-equality key kinds: `Value::matches` degenerates to
                // `==`, so Ord-based binary search is the whole test.
                match entries.binary_search_by(|(k, _, _)| k.cmp(actual)) {
                    Ok(i) if entries[i].1 <= cursor => Some(entries[i].2),
                    _ => None,
                }
            }
            Lookup::Intervals {
                starts,
                ends,
                covers,
            } => match actual {
                Value::Ip(ip) => {
                    let seg = starts.partition_point(|s| *s <= ip.0).checked_sub(1)?;
                    let from = seg.checked_sub(1).map_or(0, |before| ends[before]);
                    covers[from as usize..ends[seg] as usize]
                        .iter()
                        .find(|(pos, _)| *pos <= cursor)
                        .map(|&(_, target)| target)
                }
                // A prefix-valued header compares by equality against
                // prefix keys but by containment against IP keys
                // (`Value::matches`); the scan keeps those semantics exact.
                Value::Prefix(_) => self.scan(actual, cursor),
                // IP/prefix keys never match any other kind.
                _ => None,
            },
            Lookup::Scan => self.scan(actual, cursor),
        }
    }

    /// First-match linear scan of the own members from own position
    /// `cursor` down — the semantic reference the compiled lookups must
    /// agree with.
    fn scan(&self, actual: &Value, cursor: u32) -> Option<FlatId> {
        let from = self.chain.len() - 1 - cursor as usize;
        self.chain[from..]
            .iter()
            .find(|(key, _)| key.matches(actual))
            .map(|(_, target)| *target)
    }
}

/// The shim the benchmark's per-layer probe builds against (see the module
/// docs): it holds nothing, and evaluating it is [`FlatProgram::evaluate`].
#[derive(Clone, Copy, Debug)]
pub struct TableProgram;

/// Dense jump tables are capped at this many slots; sparser integer runs
/// fall back to binary search.
const DENSE_SLOT_CAP: i128 = 1024;

impl TableProgram {
    /// Builds nothing: every branch of `flat` already carries its entry.
    #[inline]
    pub fn compile(_flat: &FlatProgram) -> TableProgram {
        TableProgram
    }

    /// [`FlatProgram::evaluate`] of `flat`.
    #[inline]
    pub fn evaluate(
        &self,
        flat: &FlatProgram,
        pkt: &Packet,
        store: &Store,
    ) -> Result<(BTreeSet<Packet>, Store), EvalError> {
        flat.evaluate(pkt, store)
    }
}

/// Evaluate a stateless (field-only) test. State tests are unreachable
/// here: the entry classification routes them to the caller before any
/// evaluation.
#[inline]
pub(crate) fn eval_field_test(test: &Test, pkt: &Packet) -> bool {
    match test {
        Test::FieldValue(f, v) => pkt.get(f).is_some_and(|actual| v.matches(actual)),
        Test::FieldField(f, g) => match (pkt.get(f), pkt.get(g)) {
            (Some(a), Some(b)) => a == b,
            _ => false,
        },
        Test::State { .. } => unreachable!("state tests are classified as StateBranch"),
    }
}

/// Choose and build the lookup structure for one run, or a stage's own
/// members of one (`chain` head first, keys strictly ascending). Entry `i`
/// of the chain has position `chain.len() - 1 - i`.
fn build_lookup(chain: &[(Value, FlatId)]) -> Lookup {
    let bottom = chain.len() - 1;
    let positioned = || {
        let chain = chain.iter().enumerate();
        chain.map(|(i, (key, target))| (key, (bottom - i) as u32, *target))
    };
    let ints: Option<Vec<i64>> = chain
        .iter()
        .map(|(k, _)| match k {
            Value::Int(i) => Some(*i),
            _ => None,
        })
        .collect();
    if let Some(ints) = ints {
        let base = *ints.iter().min().expect("a chain has a key");
        let max = *ints.iter().max().expect("a chain has a key");
        let span = i128::from(max) - i128::from(base) + 1;
        // Dense only when the table stays small and at least a quarter
        // full — sparse ports would waste cache for no fewer probes.
        if span <= DENSE_SLOT_CAP && span <= 4 * chain.len() as i128 {
            let mut slots: Vec<Option<(u32, FlatId)>> = vec![None; span as usize];
            for (key, (_, pos, target)) in ints.iter().zip(positioned()) {
                slots[(key - base) as usize] = Some((pos, target));
            }
            return Lookup::Dense { base, slots };
        }
    }
    let any_addr = chain
        .iter()
        .any(|(k, _)| matches!(k, Value::Ip(_) | Value::Prefix(_)));
    if !any_addr {
        // Exact-equality key kinds: matching is Value equality, so a
        // sorted table probed by Ord is exact for every actual value — and
        // the chain's keys already ascend.
        let entries = positioned().map(|(k, pos, t)| (k.clone(), pos, t));
        return Lookup::Sorted {
            entries: entries.collect(),
        };
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
    let ranges: Vec<(u32, u32, u32, FlatId)> = positioned()
        .map(|(k, pos, t)| {
            let (lo, hi) = match k {
                Value::Ip(ip) => (ip.0, ip.0),
                Value::Prefix(p) => (p.addr.0, p.addr.0 | prefix_host_mask(p)),
                _ => unreachable!("checked all-addr"),
            };
            (lo, hi, pos, t)
        })
        .collect();
    let mut starts: Vec<u32> = Vec::with_capacity(2 * ranges.len());
    for &(lo, hi, _, _) in &ranges {
        starts.push(lo);
        starts.extend(hi.checked_add(1));
    }
    starts.sort_unstable();
    starts.dedup();
    // A segment never straddles a range boundary, so covering its first
    // address is covering all of it. `ranges` is in chain order, so each
    // segment's covers are too.
    let covering = |seg_lo: u32| {
        let ranges = ranges.iter();
        ranges.filter(move |&&(lo, hi, _, _)| lo <= seg_lo && seg_lo <= hi)
    };
    let total = starts.iter().map(|&seg_lo| covering(seg_lo).count()).sum();
    let mut covers: Vec<(u32, FlatId)> = Vec::with_capacity(total);
    let mut ends: Vec<u32> = Vec::with_capacity(starts.len());
    for &seg_lo in &starts {
        covers.extend(covering(seg_lo).map(|&(_, _, pos, target)| (pos, target)));
        ends.push(u32::try_from(covers.len()).expect("covers fit u32"));
    }
    Lookup::Intervals {
        starts,
        ends,
        covers,
    }
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

    fn compile(policy: &Policy) -> (Pool, NodeId, FlatProgram) {
        let deps = crate::deps::StateDependencies::analyze(policy);
        let mut pool = Pool::new(deps.var_order());
        let root = to_xfdd(policy, &mut pool).unwrap();
        let flat = FlatProgram::from_pool(&pool, root);
        (pool, root, flat)
    }

    /// The lookup of every stage a one-off program's branches dispatch
    /// through (its table holds exactly its own branches), and how many
    /// branches dispatch through one.
    fn stages(flat: &FlatProgram) -> (Vec<&Lookup>, usize) {
        let mut stages: Vec<&Lookup> = Vec::new();
        let mut collapsed = 0;
        for b in 0..flat.num_branches() {
            if let Some(lookup) = flat.lookup_at(flat.branch_id(b)) {
                collapsed += 1;
                if !stages.iter().any(|seen| std::ptr::eq(*seen, lookup)) {
                    stages.push(lookup);
                }
            }
        }
        (stages, collapsed)
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

    /// Dispatch evaluation agrees with the source diagram's, packets, stores
    /// and errors, with the store threaded through the packets.
    fn assert_equiv(policy: &Policy, packets: &[Packet]) {
        let (pool, root, flat) = compile(policy);
        let mut store = Store::new();
        for pkt in packets {
            let via_flat = flat.evaluate(pkt, &store);
            assert_eq!(via_flat, pool.evaluate(root, pkt, &store), "on {pkt:?}");
            if let Ok((_, next)) = via_flat {
                store = next;
            }
        }
    }

    #[test]
    fn dense_table_for_dense_int_run() {
        let keys: Vec<Value> = (50i64..58).map(Value::Int).collect();
        let policy = chain_over(Field::SrcPort, &keys);
        let (_, _, flat) = compile(&policy);
        let (stages, collapsed) = stages(&flat);
        assert!(matches!(stages[..], [Lookup::Dense { .. }]));
        assert_eq!(collapsed, 8);
        assert!(matches!(
            flat.lookup_at(flat.root()),
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
        let (_, _, flat) = compile(&policy);
        assert!(matches!(stages(&flat).0[..], [Lookup::Sorted { .. }]));
        assert!(matches!(
            flat.lookup_at(flat.root()),
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
        let (_, _, flat) = compile(&policy);
        assert!(matches!(stages(&flat).0[..], [Lookup::Intervals { .. }]));
        assert!(matches!(
            flat.lookup_at(flat.root()),
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
        let (_, _, flat) = compile(&policy);
        assert!(matches!(stages(&flat).0[..], [Lookup::Sorted { .. }]));
        assert!(matches!(
            flat.lookup_at(flat.root()),
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
        let (_, _, flat) = compile(&policy);
        assert!(matches!(stages(&flat).0[..], [Lookup::Scan]));
        assert!(matches!(flat.lookup_at(flat.root()), Some(Lookup::Scan)));
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
        let (_, _, flat) = compile(&policy);
        let tests_state = |b| flat.branch_var(flat.branch_id(b)).is_some();
        assert!((0..flat.num_branches()).any(tests_state));
        let pkt = Packet::new()
            .with(Field::SrcPort, 80)
            .with(Field::SrcIp, Value::ip(10, 0, 0, 1));
        // The stateless prefix must stop *at* the state branch, not pass it.
        let stop = flat.advance_stateless(flat.root(), &pkt);
        assert!(!stop.is_leaf());
        assert!(flat.branch_var(stop).is_some());
        // Walking on from the stop reaches the leaf a walk from the root does.
        let store = Store::new();
        assert_eq!(
            flat.walk(stop, &pkt, &store).unwrap(),
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
        // Packets can resume mid-run on another switch: dispatching from
        // *any* interior branch id must match the walk from the same id.
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
        let (_, _, flat) = compile(&policy);
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
                    flat.advance_stateless(from, pkt),
                    flat.walk(from, pkt, &store).unwrap(),
                    "dispatch diverged from {from:?} on {pkt:?}"
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
        for b in 0..flat.num_branches() {
            let at = flat.branch_id(b);
            assert!(flat.lookup_at(at).is_none() && flat.branch_var(at).is_none());
        }
        let same = Packet::new()
            .with(Field::SrcIp, Value::ip(1, 2, 3, 4))
            .with(Field::DstIp, Value::ip(1, 2, 3, 4));
        let diff = Packet::new()
            .with(Field::SrcIp, Value::ip(1, 2, 3, 4))
            .with(Field::DstIp, Value::ip(4, 3, 2, 1));
        let store = Store::new();
        for pkt in [&same, &diff, &Packet::new()] {
            assert_eq!(
                flat.evaluate(pkt, &store).unwrap(),
                pool.evaluate(root, pkt, &store).unwrap()
            );
        }
    }

    #[test]
    fn single_leaf_program_compiles_to_empty_tables() {
        let policy = modify(Field::OutPort, Value::Int(3));
        let (_, _, flat) = compile(&policy);
        assert!(stages(&flat).0.is_empty());
        let pkt = Packet::new();
        assert_eq!(flat.advance_stateless(flat.root(), &pkt), flat.root());
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
