//! The formal semantics of SNAP (paper appendix A, Figure 13) — **the
//! specification**. Every executable form (interned diagram, flat program,
//! table program, the packet plane over a switch fleet) is differentially
//! tested against [`eval`]; none of them calls it.
//!
//! `eval` takes a policy, a starting state (`Store`) and a packet, and yields
//! an updated store, a set of output packets and a log of the state variables
//! read and written. The log is what lets us define (and reject) ambiguous
//! compositions: a parallel composition whose sides conflict on some state
//! variable has no consistent semantics and evaluates to an error, exactly as
//! the paper leaves those cases undefined (`⊥`).

use crate::ast::{Expr, Policy, Pred, StateVar};
use crate::error::EvalError;
use crate::packet::Packet;
use crate::state::Store;
use crate::value::Value;
use std::collections::BTreeSet;

/// The read/write log of an evaluation (the paper's `l ∈ Log`).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Log {
    /// State variables read (`R s` entries).
    pub reads: BTreeSet<StateVar>,
    /// State variables written (`W s` entries).
    pub writes: BTreeSet<StateVar>,
}

impl Log {
    /// The empty log.
    pub fn empty() -> Self {
        Log::default()
    }

    /// A log with a single read.
    pub fn read(var: StateVar) -> Self {
        let mut l = Log::empty();
        l.reads.insert(var);
        l
    }

    /// A log with a single write.
    pub fn write(var: StateVar) -> Self {
        let mut l = Log::empty();
        l.writes.insert(var);
        l
    }

    /// Union of two logs (the paper's `l1 ∪ l2`).
    pub fn union(mut self, other: &Log) -> Self {
        self.reads.extend(other.reads.iter().cloned());
        self.writes.extend(other.writes.iter().cloned());
        self
    }

    /// The paper's `consistent(l1, l2)`: no variable is written by one log and
    /// read or written by the other. Returns the offending variable if any.
    pub fn conflict_with(&self, other: &Log) -> Option<StateVar> {
        for w in &self.writes {
            if other.reads.contains(w) || other.writes.contains(w) {
                return Some(w.clone());
            }
        }
        for w in &other.writes {
            if self.reads.contains(w) || self.writes.contains(w) {
                return Some(w.clone());
            }
        }
        None
    }

    /// Boolean form of [`Log::conflict_with`].
    pub fn consistent(&self, other: &Log) -> bool {
        self.conflict_with(other).is_none()
    }
}

/// The result of evaluating a policy on a packet.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct EvalResult {
    /// The updated network state.
    pub store: Store,
    /// The set of output packets (empty when the packet was dropped).
    pub packets: BTreeSet<Packet>,
    /// The read/write log.
    pub log: Log,
}

impl EvalResult {
    fn new(store: Store, packets: BTreeSet<Packet>, log: Log) -> Self {
        EvalResult {
            store,
            packets,
            log,
        }
    }

    /// Did the policy drop the packet entirely?
    pub fn dropped(&self) -> bool {
        self.packets.is_empty()
    }
}

/// Evaluate an expression against a packet (the paper's `evale`).
pub fn eval_expr(expr: &Expr, pkt: &Packet) -> Result<Value, EvalError> {
    match expr {
        Expr::Value(v) => Ok(v.clone()),
        Expr::Field(f) => pkt
            .get(f)
            .cloned()
            .ok_or_else(|| EvalError::MissingField(f.clone())),
        Expr::Tuple(es) => {
            let mut vs = Vec::with_capacity(es.len());
            for e in es {
                vs.push(eval_expr(e, pkt)?);
            }
            Ok(Value::tuple(vs))
        }
    }
}

/// Evaluate an index vector against a packet.
pub fn eval_index(index: &[Expr], pkt: &Packet) -> Result<Vec<Value>, EvalError> {
    index.iter().map(|e| eval_expr(e, pkt)).collect()
}

/// Evaluate an index vector into a caller-provided buffer (cleared first),
/// so hot paths can reuse one allocation across packets.
pub fn eval_index_into(
    index: &[Expr],
    pkt: &Packet,
    out: &mut Vec<Value>,
) -> Result<(), EvalError> {
    out.clear();
    for e in index {
        out.push(eval_expr(e, pkt)?);
    }
    Ok(())
}

/// Evaluate a predicate: does `pkt` pass, and which state variables were read?
///
/// Predicates never modify the packet or the state, so a boolean plus a log is
/// a faithful (and much cheaper) representation of the paper's semantics.
pub fn eval_pred(pred: &Pred, store: &Store, pkt: &Packet) -> Result<(bool, Log), EvalError> {
    match pred {
        Pred::Id => Ok((true, Log::empty())),
        Pred::Drop => Ok((false, Log::empty())),
        Pred::Test(f, v) => {
            let passes = match pkt.get(f) {
                Some(actual) => v.matches(actual),
                None => false,
            };
            Ok((passes, Log::empty()))
        }
        Pred::Not(x) => {
            let (b, l) = eval_pred(x, store, pkt)?;
            Ok((!b, l))
        }
        Pred::Or(x, y) => {
            let (bx, lx) = eval_pred(x, store, pkt)?;
            let (by, ly) = eval_pred(y, store, pkt)?;
            Ok((bx || by, lx.union(&ly)))
        }
        Pred::And(x, y) => {
            let (bx, lx) = eval_pred(x, store, pkt)?;
            let (by, ly) = eval_pred(y, store, pkt)?;
            Ok((bx && by, lx.union(&ly)))
        }
        Pred::StateTest { var, index, value } => {
            let idx = eval_index(index, pkt)?;
            let expected = eval_expr(value, pkt)?;
            let actual = store.get(var, &idx);
            Ok((actual == expected, Log::read(var.clone())))
        }
    }
}

/// Evaluate a policy (the paper's `eval : Pol → Store → Packet → Store × 2^Packet × Log`).
pub fn eval(policy: &Policy, store: &Store, pkt: &Packet) -> Result<EvalResult, EvalError> {
    match policy {
        Policy::Filter(pred) => {
            let (passes, log) = eval_pred(pred, store, pkt)?;
            let mut packets = BTreeSet::new();
            if passes {
                packets.insert(pkt.clone());
            }
            Ok(EvalResult::new(store.clone(), packets, log))
        }
        Policy::Modify(f, v) => {
            let out = pkt.updated(f.clone(), v.clone());
            let mut packets = BTreeSet::new();
            packets.insert(out);
            Ok(EvalResult::new(store.clone(), packets, Log::empty()))
        }
        Policy::StateSet { var, index, value } => {
            let idx = eval_index(index, pkt)?;
            let val = eval_expr(value, pkt)?;
            let mut new_store = store.clone();
            new_store.set(var, idx, val);
            let mut packets = BTreeSet::new();
            packets.insert(pkt.clone());
            Ok(EvalResult::new(new_store, packets, Log::write(var.clone())))
        }
        Policy::StateIncr { var, index } => eval_bump(store, pkt, var, index, 1),
        Policy::StateDecr { var, index } => eval_bump(store, pkt, var, index, -1),
        Policy::If(a, p, q) => {
            let (cond, log_a) = eval_pred(a, store, pkt)?;
            let branch = if cond { p } else { q };
            let mut result = eval(branch, store, pkt)?;
            result.log = result.log.union(&log_a);
            Ok(result)
        }
        Policy::Atomic(p) => eval(p, store, pkt),
        Policy::Par(p, q) => {
            let rp = eval(p, store, pkt)?;
            let rq = eval(q, store, pkt)?;
            if let Some(var) = rp.log.conflict_with(&rq.log) {
                return Err(EvalError::ParallelConflict(var));
            }
            let store_out = Store::merge(store, &[rp.store, rq.store]);
            let mut packets = rp.packets;
            packets.extend(rq.packets);
            Ok(EvalResult::new(store_out, packets, rp.log.union(&rq.log)))
        }
        Policy::Seq(p, q) => {
            let rp = eval(p, store, pkt)?;
            if rp.packets.is_empty() {
                // The packet was dropped by `p`; `p`'s state changes persist.
                return Ok(rp);
            }
            let mut stores = Vec::new();
            let mut logs: Vec<Log> = Vec::new();
            let mut packets = BTreeSet::new();
            for pkt_i in &rp.packets {
                let r = eval(q, &rp.store, pkt_i)?;
                stores.push(r.store);
                logs.push(r.log);
                packets.extend(r.packets);
            }
            // The runs of `q` must be pairwise consistent.
            for i in 0..logs.len() {
                for j in (i + 1)..logs.len() {
                    if let Some(var) = logs[i].conflict_with(&logs[j]) {
                        return Err(EvalError::SequentialConflict(var));
                    }
                }
            }
            let store_out = Store::merge(&rp.store, &stores);
            let mut log = rp.log;
            for l in &logs {
                log = log.union(l);
            }
            Ok(EvalResult::new(store_out, packets, log))
        }
    }
}

fn eval_bump(
    store: &Store,
    pkt: &Packet,
    var: &StateVar,
    index: &[Expr],
    delta: i64,
) -> Result<EvalResult, EvalError> {
    let idx = eval_index(index, pkt)?;
    let current = store.get(var, &idx);
    let next = match current.as_int() {
        Some(i) => Value::Int(i + delta),
        None => {
            return Err(EvalError::NotAnInteger {
                var: var.clone(),
                value: current,
            })
        }
    };
    let mut new_store = store.clone();
    new_store.set(var, idx, next);
    let mut packets = BTreeSet::new();
    packets.insert(pkt.clone());
    Ok(EvalResult::new(new_store, packets, Log::write(var.clone())))
}

/// Evaluate a policy over a whole trace of packets, threading the state
/// through. Returns the final store and, per input packet, the set of outputs.
pub fn eval_trace(
    policy: &Policy,
    initial: &Store,
    packets: &[Packet],
) -> Result<(Store, Vec<BTreeSet<Packet>>), EvalError> {
    let mut store = initial.clone();
    let mut outputs = Vec::with_capacity(packets.len());
    for pkt in packets {
        let r = eval(policy, &store, pkt)?;
        store = r.store;
        outputs.push(r.packets);
    }
    Ok((store, outputs))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::*;
    use crate::value::Field;

    fn pkt_dns_response() -> Packet {
        Packet::new()
            .with(Field::SrcIp, Value::ip(8, 8, 8, 8))
            .with(Field::DstIp, Value::ip(10, 0, 6, 5))
            .with(Field::SrcPort, 53)
            .with(Field::DstPort, 3453)
            .with(Field::DnsRdata, Value::ip(1, 2, 3, 4))
    }

    fn sv(s: &str) -> StateVar {
        StateVar::new(s)
    }

    #[test]
    fn id_passes_and_drop_drops() {
        let store = Store::new();
        let pkt = pkt_dns_response();
        let r = eval(&id(), &store, &pkt).unwrap();
        assert_eq!(r.packets.len(), 1);
        let r = eval(&drop(), &store, &pkt).unwrap();
        assert!(r.dropped());
    }

    #[test]
    fn field_test_with_prefix() {
        let store = Store::new();
        let pkt = pkt_dns_response();
        let p = filter(test_prefix(Field::DstIp, 10, 0, 6, 0, 24));
        assert_eq!(eval(&p, &store, &pkt).unwrap().packets.len(), 1);
        let p = filter(test_prefix(Field::DstIp, 10, 0, 5, 0, 24));
        assert!(eval(&p, &store, &pkt).unwrap().dropped());
    }

    #[test]
    fn test_on_missing_field_fails_closed() {
        let store = Store::new();
        let pkt = Packet::new();
        let p = filter(test(Field::SrcPort, Value::Int(53)));
        assert!(eval(&p, &store, &pkt).unwrap().dropped());
    }

    #[test]
    fn modify_changes_field() {
        let store = Store::new();
        let pkt = pkt_dns_response();
        let p = modify(Field::OutPort, Value::Int(6));
        let r = eval(&p, &store, &pkt).unwrap();
        let out = r.packets.iter().next().unwrap();
        assert_eq!(out.get(&Field::OutPort), Some(&Value::Int(6)));
    }

    #[test]
    fn state_set_and_test() {
        let store = Store::new();
        let pkt = pkt_dns_response();
        let p = state_set(
            "orphan",
            vec![field(Field::DstIp), field(Field::DnsRdata)],
            Value::Bool(true),
        );
        let r = eval(&p, &store, &pkt).unwrap();
        assert!(r.log.writes.contains(&sv("orphan")));
        let q = filter(state_test(
            "orphan",
            vec![field(Field::DstIp), field(Field::DnsRdata)],
            Value::Bool(true),
        ));
        let r2 = eval(&q, &r.store, &pkt).unwrap();
        assert_eq!(r2.packets.len(), 1);
        assert!(r2.log.reads.contains(&sv("orphan")));
    }

    #[test]
    fn increment_and_decrement() {
        let store = Store::new();
        let pkt = pkt_dns_response();
        let p = state_incr("susp-client", vec![field(Field::DstIp)]);
        let r = eval(&p, &store, &pkt).unwrap();
        let r = eval(&p, &r.store, &pkt).unwrap();
        assert_eq!(
            r.store.get(&sv("susp-client"), &[Value::ip(10, 0, 6, 5)]),
            Value::Int(2)
        );
        let d = state_decr("susp-client", vec![field(Field::DstIp)]);
        let r = eval(&d, &r.store, &pkt).unwrap();
        assert_eq!(
            r.store.get(&sv("susp-client"), &[Value::ip(10, 0, 6, 5)]),
            Value::Int(1)
        );
    }

    #[test]
    fn increment_of_boolean_is_an_error() {
        let mut store = Store::new();
        store.set(&sv("flag"), vec![Value::Int(1)], Value::Bool(true));
        let pkt = Packet::new().with(Field::InPort, 1);
        let p = state_incr("flag", vec![field(Field::InPort)]);
        let err = eval(&p, &store, &pkt).unwrap_err();
        assert!(matches!(err, EvalError::NotAnInteger { .. }));
    }

    #[test]
    fn missing_field_in_state_index_is_an_error() {
        let store = Store::new();
        let pkt = Packet::new();
        let p = state_incr("count", vec![field(Field::InPort)]);
        assert_eq!(
            eval(&p, &store, &pkt).unwrap_err(),
            EvalError::MissingField(Field::InPort)
        );
    }

    #[test]
    fn parallel_conflict_detected() {
        // (s[0] <- 1) + (s[0] <- 2) conflicts; with distinct variables it is fine.
        let store = Store::new();
        let pkt = pkt_dns_response();
        let conflict =
            state_set("s", vec![int(0)], int(1)).par(state_set("s", vec![int(0)], int(2)));
        assert_eq!(
            eval(&conflict, &store, &pkt).unwrap_err(),
            EvalError::ParallelConflict(sv("s"))
        );
        let fine = state_set("s", vec![int(0)], int(1)).par(state_set("t", vec![int(0)], int(2)));
        let r = eval(&fine, &store, &pkt).unwrap();
        assert_eq!(r.store.get(&sv("s"), &[Value::Int(0)]), Value::Int(1));
        assert_eq!(r.store.get(&sv("t"), &[Value::Int(0)]), Value::Int(2));
    }

    #[test]
    fn parallel_read_write_conflict_detected() {
        let store = Store::new();
        let pkt = pkt_dns_response();
        let p =
            filter(state_test("s", vec![int(0)], int(0))).par(state_set("s", vec![int(0)], int(2)));
        assert_eq!(
            eval(&p, &store, &pkt).unwrap_err(),
            EvalError::ParallelConflict(sv("s"))
        );
    }

    #[test]
    fn sequential_conflict_from_packet_copies() {
        // p = (f <- 1 + f <- 2); q = s[0] <- f   -- the example from §3.
        let store = Store::new();
        let pkt = pkt_dns_response();
        let p = modify(Field::DstPort, Value::Int(1)).par(modify(Field::DstPort, Value::Int(2)));
        let q = state_set("s", vec![int(0)], field(Field::DstPort));
        let program = p.clone().seq(q);
        assert_eq!(
            eval(&program, &store, &pkt).unwrap_err(),
            EvalError::SequentialConflict(sv("s"))
        );
        // but p; (g <- 3) runs fine.
        let ok = p.seq(modify(Field::SrcPort, Value::Int(3)));
        let r = eval(&ok, &store, &pkt).unwrap();
        assert_eq!(r.packets.len(), 2);
    }

    #[test]
    fn sequencing_threads_state() {
        // count[inport]++ ; if count[inport] = 1 then id else drop
        let store = Store::new();
        let pkt = Packet::new().with(Field::InPort, 3);
        let p = state_incr("count", vec![field(Field::InPort)]).seq(ite(
            state_test("count", vec![field(Field::InPort)], int(1)),
            id(),
            drop(),
        ));
        let r = eval(&p, &store, &pkt).unwrap();
        assert_eq!(r.packets.len(), 1);
        // Second packet: counter is now 2, so it gets dropped.
        let r2 = eval(&p, &r.store, &pkt).unwrap();
        assert!(r2.dropped());
    }

    #[test]
    fn drop_then_anything_keeps_left_state_changes() {
        let store = Store::new();
        let pkt = pkt_dns_response();
        let p = state_incr("c", vec![int(0)])
            .seq(drop())
            .seq(state_incr("d", vec![int(0)]));
        let r = eval(&p, &store, &pkt).unwrap();
        assert!(r.dropped());
        assert_eq!(r.store.get(&sv("c"), &[Value::Int(0)]), Value::Int(1));
        assert_eq!(r.store.get(&sv("d"), &[Value::Int(0)]), Value::Int(0));
    }

    #[test]
    fn conditional_reads_propagate_to_log() {
        let store = Store::new();
        let pkt = pkt_dns_response();
        let p = ite(
            state_test("seen", vec![field(Field::DstIp)], Value::Bool(true)),
            id(),
            state_set("seen", vec![field(Field::DstIp)], Value::Bool(true)),
        );
        let r = eval(&p, &store, &pkt).unwrap();
        assert!(r.log.reads.contains(&sv("seen")));
        assert!(r.log.writes.contains(&sv("seen")));
    }

    #[test]
    fn atomic_is_transparent_to_eval() {
        let store = Store::new();
        let pkt = pkt_dns_response();
        let body = state_set("hon-ip", vec![int(1)], field(Field::SrcIp)).seq(state_set(
            "hon-dstport",
            vec![int(1)],
            field(Field::DstPort),
        ));
        let r1 = eval(&atomic(body.clone()), &store, &pkt).unwrap();
        let r2 = eval(&body, &store, &pkt).unwrap();
        assert_eq!(r1.store, r2.store);
        assert_eq!(r1.packets, r2.packets);
    }

    #[test]
    fn eval_trace_threads_state_across_packets() {
        let p = state_incr("count", vec![field(Field::InPort)]);
        let pkts: Vec<Packet> = (0..5)
            .map(|_| Packet::new().with(Field::InPort, 1))
            .collect();
        let (store, outs) = eval_trace(&p, &Store::new(), &pkts).unwrap();
        assert_eq!(store.get(&sv("count"), &[Value::Int(1)]), Value::Int(5));
        assert!(outs.iter().all(|o| o.len() == 1));
    }

    #[test]
    fn dns_tunnel_detect_end_to_end() {
        // Figure 1 with threshold = 2, exercised on a small packet trace.
        let threshold = 2;
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
                test_prefix(Field::SrcIp, 10, 0, 6, 0, 24).and(state_test(
                    "orphan",
                    vec![field(Field::SrcIp), field(Field::DstIp)],
                    Value::Bool(true),
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

        let client = Value::ip(10, 0, 6, 5);
        let resolved1 = Value::ip(93, 184, 216, 34);
        let resolved2 = Value::ip(93, 184, 216, 35);

        // Two DNS responses arrive for the client without it ever contacting
        // the resolved addresses: the client crosses the threshold and is
        // blacklisted.
        let dns1 = Packet::new()
            .with(Field::SrcIp, Value::ip(8, 8, 8, 8))
            .with(Field::DstIp, client.clone())
            .with(Field::SrcPort, 53)
            .with(Field::DnsRdata, resolved1.clone());
        let dns2 = dns1.clone().updated(Field::DnsRdata, resolved2);

        let (store, _) = eval_trace(&detect, &Store::new(), &[dns1.clone(), dns2]).unwrap();
        assert_eq!(
            store.get(&sv("blacklist"), std::slice::from_ref(&client)),
            Value::Bool(true)
        );

        // If instead the client uses the resolved address, the counter goes
        // back down and it is never blacklisted.
        let usage = Packet::new()
            .with(Field::SrcIp, client.clone())
            .with(Field::DstIp, resolved1)
            .with(Field::SrcPort, 5555);
        let (store, _) = eval_trace(&detect, &Store::new(), &[dns1, usage]).unwrap();
        assert_eq!(
            store.get(&sv("susp-client"), std::slice::from_ref(&client)),
            Value::Int(0)
        );
        assert_eq!(store.get(&sv("blacklist"), &[client]), Value::Int(0));
    }

    #[test]
    fn log_conflict_rules() {
        let l1 = Log::write(sv("a"));
        let l2 = Log::read(sv("a"));
        assert_eq!(l1.conflict_with(&l2), Some(sv("a")));
        assert_eq!(l2.conflict_with(&l1), Some(sv("a")));
        let l3 = Log::read(sv("b"));
        assert!(l2.consistent(&l3));
        // read/read never conflicts
        assert!(Log::read(sv("a")).consistent(&Log::read(sv("a"))));
    }
}
