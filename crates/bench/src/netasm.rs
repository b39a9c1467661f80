//! A NetASM-like instruction set for stateful data planes.
//!
//! The SNAP prototype emits NetASM — an assembly-style intermediate
//! representation for programmable data planes — for each switch (§5): a
//! branch instruction per xFDD test node, table lookups for state variables
//! and store instructions for leaf actions, with atomic execution of the
//! stateful portions. NetASM itself is an external research artifact, so this
//! module provides an equivalent instruction set, a lowering from hash-consed
//! xFDDs, and an interpreter with the same observable behaviour.
//!
//! It is reproduction code: nothing executes the listing but the Table 3
//! binary's counts and the tests below, whose interpreter checks that the
//! lowering is faithful to the xFDD it came from.
//!
//! Lowering consumes the dense [`FlatProgram`] representation (the program
//! a switch executes): every *distinct* node emits exactly one block, so
//! subdiagrams shared in the arena are shared in the instruction stream too
//! (branches jump to the single copy), and the flat branch index maps
//! directly onto the instruction offset.

use snap_lang::{EvalError, Expr, Field, Packet, StateVar, Store, Value};
use snap_xfdd::{eval_test, ActionSeq, FlatId, FlatNode, FlatProgram, Test};
use std::collections::BTreeSet;

/// One instruction of the data-plane program. Jump targets are instruction
/// indices within the same program.
#[derive(Clone, Debug, PartialEq)]
pub enum Instruction {
    /// Branch on a header/state test: continue at `on_true` or `on_false`.
    Branch {
        /// The test to evaluate (state tests read the switch's local tables).
        test: Test,
        /// Target when the test passes.
        on_true: usize,
        /// Target when the test fails.
        on_false: usize,
    },
    /// Write a constant into a header field.
    SetField(Field, Value),
    /// `s[e] ← e` against the local state table.
    StateSet {
        /// Variable written.
        var: StateVar,
        /// Index expressions.
        index: Vec<Expr>,
        /// Value expression.
        value: Expr,
    },
    /// `s[e] += delta` against the local state table.
    StateAdd {
        /// Variable written.
        var: StateVar,
        /// Index expressions.
        index: Vec<Expr>,
        /// Signed amount (+1 for `++`, -1 for `--`).
        delta: i64,
    },
    /// Emit (a copy of) the current packet.
    Emit,
    /// Drop the current packet copy.
    Drop,
    /// Restore the working packet to the packet as it entered the program
    /// (used at the start of each parallel action sequence of a leaf).
    Restore,
    /// Unconditional jump.
    Jump(usize),
    /// End of the program.
    Halt,
}

/// A data-plane program: straight-line instructions with branches.
#[derive(Clone, Debug, PartialEq)]
pub struct NetAsmProgram {
    instructions: Vec<Instruction>,
}

impl NetAsmProgram {
    /// Number of instructions.
    pub fn len(&self) -> usize {
        self.instructions.len()
    }

    /// Is the program empty?
    pub fn is_empty(&self) -> bool {
        self.instructions.is_empty()
    }

    /// Number of branch instructions (≈ match stages needed on a switch).
    pub fn num_branches(&self) -> usize {
        self.instructions
            .iter()
            .filter(|i| matches!(i, Instruction::Branch { .. }))
            .count()
    }

    /// Number of stateful instructions.
    pub fn num_state_ops(&self) -> usize {
        self.instructions
            .iter()
            .filter(|i| {
                matches!(
                    i,
                    Instruction::StateSet { .. } | Instruction::StateAdd { .. }
                ) || matches!(
                    i,
                    Instruction::Branch {
                        test: Test::State { .. },
                        ..
                    }
                )
            })
            .count()
    }

    /// Lower a flat program to instructions.
    ///
    /// Every flat branch node becomes exactly one [`Instruction::Branch`];
    /// every flat leaf becomes one straight-line block per action sequence,
    /// ending in `Emit` or `Drop`. Sharing in the flat program (one entry
    /// per *distinct* xFDD node) is sharing in the instruction stream. The
    /// layout mirrors the flat arrays: instruction `0` jumps to the root's
    /// block, branches occupy one instruction each at offsets `1..=B` (the
    /// branch index *is* the offset minus one), and leaf blocks follow. The
    /// whole program executes atomically per packet, mirroring NetASM's
    /// atomic table updates.
    pub fn lower(flat: &FlatProgram) -> NetAsmProgram {
        let branches = flat.num_branches();
        // Leaf block offsets: computed by scanning leaf sizes once.
        let mut leaf_offsets = Vec::with_capacity(flat.num_leaves());
        let mut at = 1 + branches;
        for li in 0..flat.num_leaves() {
            leaf_offsets.push(at);
            let leaf = flat.leaf(flat.leaf_id(li));
            if leaf.seqs.is_empty() {
                at += 1; // Drop
            } else {
                for (i, seq) in leaf.seqs.iter().enumerate() {
                    at += usize::from(i > 0); // Restore
                    at += seq.actions.len() + 1; // actions + Emit/Drop
                }
            }
            at += 1; // Halt
        }
        let offset_of = |id: FlatId| -> usize {
            if id.is_leaf() {
                leaf_offsets[id.leaf_index()]
            } else {
                1 + id.branch_index()
            }
        };

        let mut out = Vec::with_capacity(at);
        out.push(Instruction::Jump(offset_of(flat.root())));
        for bi in 0..branches {
            match flat.node(flat.branch_id(bi)) {
                FlatNode::Branch { test, tru, fls, .. } => out.push(Instruction::Branch {
                    test: test.clone(),
                    on_true: offset_of(tru),
                    on_false: offset_of(fls),
                }),
                FlatNode::Leaf(_) => unreachable!("branch ids resolve to branches"),
            }
        }
        for (li, offset) in leaf_offsets.iter().enumerate() {
            debug_assert_eq!(out.len(), *offset);
            let leaf = flat.leaf(flat.leaf_id(li));
            if leaf.seqs.is_empty() {
                out.push(Instruction::Drop);
            } else {
                for (i, seq) in leaf.seqs.iter().enumerate() {
                    if i > 0 {
                        // Each parallel sequence starts from the packet as
                        // it reached the leaf.
                        out.push(Instruction::Restore);
                    }
                    lower_seq(seq, &mut out);
                }
            }
            out.push(Instruction::Halt);
        }
        NetAsmProgram { instructions: out }
    }

    /// Execute the program on one packet against a store, returning the set
    /// of emitted packets and the updated store.
    pub fn execute(
        &self,
        pkt: &Packet,
        store: &Store,
    ) -> Result<(BTreeSet<Packet>, Store), EvalError> {
        let mut outputs = BTreeSet::new();
        let mut store = store.clone();
        let original = pkt.clone();
        let mut pkt = pkt.clone();
        let mut pc = 0usize;
        let mut steps = 0usize;
        while pc < self.instructions.len() {
            steps += 1;
            assert!(
                steps <= self.instructions.len() * 4 + 16,
                "runaway data-plane program"
            );
            match &self.instructions[pc] {
                Instruction::Branch {
                    test,
                    on_true,
                    on_false,
                } => {
                    pc = if eval_test(test, &pkt, &store)? {
                        *on_true
                    } else {
                        *on_false
                    };
                }
                Instruction::SetField(f, v) => {
                    pkt.set(f.clone(), v.clone());
                    pc += 1;
                }
                Instruction::StateSet { var, index, value } => {
                    let idx = snap_lang::eval_index(index, &pkt)?;
                    let val = snap_lang::eval_expr(value, &pkt)?;
                    store.set(var, idx, val);
                    pc += 1;
                }
                Instruction::StateAdd { var, index, delta } => {
                    let idx = snap_lang::eval_index(index, &pkt)?;
                    let cur = store.get(var, &idx);
                    let next = cur.as_int().ok_or(EvalError::NotAnInteger {
                        var: var.clone(),
                        value: cur.clone(),
                    })?;
                    store.set(var, idx, Value::Int(next + delta));
                    pc += 1;
                }
                Instruction::Emit => {
                    outputs.insert(pkt.clone());
                    pc += 1;
                }
                Instruction::Drop => {
                    pc += 1;
                }
                Instruction::Restore => {
                    pkt = original.clone();
                    pc += 1;
                }
                Instruction::Jump(t) => pc = *t,
                Instruction::Halt => break,
            }
        }
        Ok((outputs, store))
    }
}

/// Lower one action sequence. Each sequence runs on its own copy of the
/// packet header, which the interpreter models by resetting fields: since
/// sequences of a leaf come from parallel branches, they may set different
/// fields, so we snapshot/restore by re-emitting SetField instructions per
/// sequence. The interpreter executes sequences back to back on the same
/// packet; to keep them independent we rely on the compiler invariant that
/// parallel sequences write disjoint state variables and that field
/// modifications only matter for the copy being emitted — hence each sequence
/// ends with `Emit` (or `Drop`) before the next begins, and field changes are
/// re-applied per sequence.
fn lower_seq(seq: &ActionSeq, out: &mut Vec<Instruction>) {
    for a in seq.actions.iter() {
        match a {
            snap_xfdd::Action::Modify(f, v) => {
                out.push(Instruction::SetField(f.clone(), v.clone()))
            }
            snap_xfdd::Action::StateSet { var, index, value } => out.push(Instruction::StateSet {
                var: var.clone(),
                index: index.clone(),
                value: value.clone(),
            }),
            snap_xfdd::Action::StateIncr { var, index } => out.push(Instruction::StateAdd {
                var: var.clone(),
                index: index.clone(),
                delta: 1,
            }),
            snap_xfdd::Action::StateDecr { var, index } => out.push(Instruction::StateAdd {
                var: var.clone(),
                index: index.clone(),
                delta: -1,
            }),
        }
    }
    if seq.drops {
        out.push(Instruction::Drop);
    } else {
        out.push(Instruction::Emit);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use snap_apps as apps;
    use snap_lang::builder::*;
    use snap_lang::Policy;
    use snap_xfdd::Xfdd;

    fn compile(p: &Policy) -> (Xfdd, NetAsmProgram) {
        let xfdd = snap_xfdd::compile(p).unwrap();
        let asm = NetAsmProgram::lower(&xfdd.flatten());
        (xfdd, asm)
    }

    #[test]
    fn lowering_simple_forwarding() {
        let p = ite(
            test(Field::DstIp, Value::prefix(10, 0, 1, 0, 24)),
            modify(Field::OutPort, Value::Int(1)),
            drop(),
        );
        let (_, asm) = compile(&p);
        assert!(asm.num_branches() >= 1);
        assert!(!asm.is_empty());
        let inside = Packet::new().with(Field::DstIp, Value::ip(10, 0, 1, 5));
        let outside = Packet::new().with(Field::DstIp, Value::ip(10, 0, 2, 5));
        let (out, _) = asm.execute(&inside, &Store::new()).unwrap();
        assert_eq!(out.len(), 1);
        assert_eq!(
            out.iter().next().unwrap().get(&Field::OutPort),
            Some(&Value::Int(1))
        );
        let (out, _) = asm.execute(&outside, &Store::new()).unwrap();
        assert!(out.is_empty());
    }

    #[test]
    fn netasm_execution_matches_xfdd_on_stateful_program() {
        let p = ite(
            test(Field::SrcPort, Value::Int(53)),
            state_incr("dns", vec![field(Field::DstIp)]).seq(modify(Field::OutPort, Value::Int(6))),
            ite(
                state_test("dns", vec![field(Field::SrcIp)], int(2)),
                drop(),
                modify(Field::OutPort, Value::Int(1)),
            ),
        );
        let (xfdd, asm) = compile(&p);
        let mut store_a = Store::new();
        let mut store_b = Store::new();
        for i in 0..6i64 {
            let pkt = Packet::new()
                .with(Field::SrcPort, if i % 2 == 0 { 53 } else { 80 })
                .with(Field::SrcIp, Value::ip(10, 0, 0, (i % 3) as u8))
                .with(Field::DstIp, Value::ip(10, 0, 0, (i % 3) as u8));
            let (pa, sa) = xfdd.evaluate(&pkt, &store_a).unwrap();
            let (pb, sb) = asm.execute(&pkt, &store_b).unwrap();
            assert_eq!(pa, pb, "packet {i}");
            assert_eq!(sa, sb, "store {i}");
            store_a = sa;
            store_b = sb;
        }
    }

    #[test]
    fn state_op_counting() {
        let p = state_incr("c", vec![field(Field::InPort)]).seq(ite(
            state_test("c", vec![field(Field::InPort)], int(3)),
            drop(),
            id(),
        ));
        let (_, asm) = compile(&p);
        assert!(asm.num_state_ops() >= 2);
        assert!(asm.len() > 2);
    }

    #[test]
    fn multi_sequence_leaf_emits_each_copy() {
        // Parallel composition duplicates the packet with different outports.
        let p = modify(Field::OutPort, Value::Int(1)).par(modify(Field::OutPort, Value::Int(2)));
        let (xfdd, asm) = compile(&p);
        let pkt = Packet::new().with(Field::InPort, 4);
        let (a, _) = xfdd.evaluate(&pkt, &Store::new()).unwrap();
        let (b, _) = asm.execute(&pkt, &Store::new()).unwrap();
        assert_eq!(a.len(), 2);
        assert_eq!(a, b);
    }

    #[test]
    fn shared_subdiagrams_are_lowered_once() {
        // Two outer branches funnel into the same egress subdiagram: the
        // arena shares it, and the lowering must too — one block per distinct
        // node, so the instruction count tracks the arena size, not the tree
        // size.
        let egress = ite(
            test(Field::DstPort, Value::Int(80)),
            modify(Field::OutPort, Value::Int(1)),
            modify(Field::OutPort, Value::Int(2)),
        );
        let p = ite(
            test(Field::SrcPort, Value::Int(53)),
            egress.clone(),
            ite(test(Field::SrcPort, Value::Int(123)), egress, drop()),
        );
        let (xfdd, asm) = compile(&p);
        assert!((xfdd.size() as u64) < xfdd.tree_size());
        // Each distinct branch node lowers to exactly one Branch instruction.
        assert_eq!(asm.num_branches(), xfdd.num_tests());
    }

    #[test]
    fn netasm_lowering_matches_xfdd_for_several_applications() {
        let sample_packets = vec![
            Packet::new()
                .with(Field::SrcIp, Value::ip(10, 0, 6, 1))
                .with(Field::DstIp, Value::ip(10, 0, 2, 2))
                .with(Field::SrcPort, 53)
                .with(Field::DstPort, 9000)
                .with(Field::Proto, 17)
                .with(Field::InPort, 6)
                .with(Field::TcpFlags, Value::sym("SYN"))
                .with(Field::DnsRdata, Value::ip(9, 9, 9, 9))
                .with(Field::DnsQname, Value::str("example.com"))
                .with(Field::DnsTtl, 300),
            Packet::new()
                .with(Field::SrcIp, Value::ip(10, 0, 1, 7))
                .with(Field::DstIp, Value::ip(10, 0, 6, 3))
                .with(Field::SrcPort, 5000)
                .with(Field::DstPort, 53)
                .with(Field::Proto, 6)
                .with(Field::InPort, 1)
                .with(Field::TcpFlags, Value::sym("ACK"))
                .with(Field::DnsRdata, Value::ip(8, 8, 8, 8))
                .with(Field::DnsQname, Value::str("tunnel.evil"))
                .with(Field::DnsTtl, 60),
        ];
        for (name, policy) in apps::catalogue().into_iter().take(8) {
            let (xfdd, asm) = compile(&policy);
            let mut store_a = Store::new();
            let mut store_b = Store::new();
            for pkt in &sample_packets {
                let a = xfdd.evaluate(pkt, &store_a);
                let b = asm.execute(pkt, &store_b);
                match (a, b) {
                    (Ok((pa, sa)), Ok((pb, sb))) => {
                        assert_eq!(pa, pb, "{name}: packets differ");
                        assert_eq!(sa, sb, "{name}: stores differ");
                        store_a = sa;
                        store_b = sb;
                    }
                    (Err(_), Err(_)) => {}
                    (a, b) => panic!("{name}: one representation failed: {a:?} vs {b:?}"),
                }
            }
        }
    }
}
