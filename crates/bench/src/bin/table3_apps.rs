//! Table 3: the stateful applications expressible in SNAP. Each is compiled
//! end-to-end on the campus topology; the table reports the xFDD size, the
//! number of state variables, the NetASM-like instruction count (the one
//! lowered program, once per switch that holds state or hosts ports) and the
//! compile time.

use snap_apps as apps;
use snap_bench::secs;
use snap_bench::NetAsmProgram;
use snap_core::{Compiler, SolverChoice};
use snap_topology::{generators, TrafficMatrix};
use std::time::Instant;

fn main() {
    let topo = generators::campus();
    let tm = TrafficMatrix::gravity(&topo, 600.0, 3);
    let compiler = Compiler::new(topo, tm).with_solver(SolverChoice::Heuristic);
    println!("Table 3: applications written in SNAP (compiled on the campus topology)");
    println!(
        "{:<30} {:>10} {:>12} {:>12} {:>12}",
        "application", "xFDD nodes", "state vars", "instrs", "compile (s)"
    );
    for (name, policy) in apps::catalogue() {
        let program = policy.seq(apps::assign_egress(6));
        let start = Instant::now();
        match compiler.compile(&program) {
            Ok(compiled) => {
                let elapsed = start.elapsed();
                let program = NetAsmProgram::lower(&compiled.xfdd.flatten());
                println!(
                    "{:<30} {:>10} {:>12} {:>12} {:>12}",
                    name,
                    compiled.xfdd.size(),
                    compiled.deps.variables.len(),
                    compiled.rules.relevant_switches() * program.len(),
                    secs(elapsed),
                );
            }
            Err(e) => println!("{name:<30} failed: {e}"),
        }
    }
}
