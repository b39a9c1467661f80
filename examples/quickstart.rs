//! Quickstart: write a stateful policy, run it against the formal semantics,
//! then compile it onto the campus topology of Figure 2.
//!
//! Run with: `cargo run -p snap-examples --bin quickstart`

use snap_bench::NetAsmProgram;
use snap_core::{Compiler, SolverChoice};
use snap_lang::prelude::*;
use snap_topology::{generators, TrafficMatrix};

fn main() {
    // 1. A policy over the one big switch: count packets per ingress port,
    //    allow only DNS traffic to reach port 6, everything else to port 1.
    //    Policies can be written with the builder API...
    let counting = state_incr("count", vec![field(Field::InPort)]);
    // ...or parsed from the paper's surface syntax.
    let routing =
        parse_policy("if dstip = 10.0.6.0/24 & srcport = 53 then outport <- 6 else outport <- 1")
            .expect("valid SNAP syntax");
    let policy = counting.seq(routing);
    println!("policy:\n{}", policy_to_pretty_lines(&policy));

    // 2. Run it on a packet with the one-big-switch semantics.
    let pkt = Packet::new()
        .with(Field::InPort, 3)
        .with(Field::SrcPort, 53)
        .with(Field::DstIp, Value::ip(10, 0, 6, 9));
    let result = eval(&policy, &Store::new(), &pkt).expect("evaluation succeeds");
    println!("output packets: {:?}", result.packets);
    println!(
        "count[3] after one packet: {}",
        result.store.get(&StateVar::new("count"), &[Value::Int(3)])
    );

    // 3. Compile it for the campus topology: the compiler decides where the
    //    `count` array lives and how traffic is routed through it.
    let topo = generators::campus();
    let tm = TrafficMatrix::gravity(&topo, 600.0, 7);
    let compiler = Compiler::new(topo.clone(), tm).with_solver(SolverChoice::Heuristic);
    let compiled = compiler.compile(&policy).expect("compiles");
    for (var, node) in &compiled.placement.placement {
        println!("state `{var}` placed on switch {}", topo.node_name(*node));
    }
    let program = NetAsmProgram::lower(&compiled.xfdd.flatten());
    println!(
        "xFDD: {} nodes, {} data-plane instructions, compile time {:?}",
        compiled.xfdd.size(),
        compiled.rules.relevant_switches() * program.len(),
        compiled.timings.total()
    );
}
