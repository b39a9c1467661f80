//! Criterion benchmarks for the end-to-end compiler: the campus running
//! example, and the igen-50 five-application pipeline that every traffic
//! and edit workload of the benchmark of record compiles cold (the per-table
//! harness binaries cover the large topologies).
//!
//! The campus case alone hides where cold-compile time goes — twelve
//! switches, six ports and a 30-node diagram exercise neither placement's
//! distance queries, nor the packet-state walk, nor deep composition — so
//! the igen-50 case also prints its per-phase split.

use criterion::{criterion_group, criterion_main, Criterion};
use snap_bench::{dns_tunnel_with_routing, five_app_pipeline, ms, scaled_igen};
use snap_core::{Compiler, SolverChoice};
use snap_topology::{generators, TrafficMatrix};

fn bench_compiler(c: &mut Criterion) {
    let mut group = c.benchmark_group("compiler");
    group.sample_size(10);

    let topo = generators::campus();
    let tm = TrafficMatrix::gravity(&topo, 600.0, 2);
    let policy = dns_tunnel_with_routing(6);

    let heuristic = Compiler::new(topo.clone(), tm.clone()).with_solver(SolverChoice::Heuristic);
    group.bench_function("campus_cold_start_heuristic", |b| {
        b.iter(|| heuristic.compile(&policy).unwrap())
    });

    let compiled = heuristic.compile(&policy).unwrap();
    let shifted = TrafficMatrix::gravity(&topo, 900.0, 9);
    group.bench_function("campus_te_reroute", |b| {
        b.iter(|| heuristic.reroute(&compiled, &shifted))
    });

    // The benchmark of record's `fwd-stateful` / `edit-churn` scenario.
    let (topo, tm) = scaled_igen(50, 10_000.0, 7);
    let pipeline = five_app_pipeline(topo.num_external_ports(), 1_000_000);
    let igen50 = Compiler::new(topo, tm).with_solver(SolverChoice::Heuristic);
    group.bench_function("igen50_five_apps_cold_start_heuristic", |b| {
        b.iter(|| igen50.compile(&pipeline).unwrap())
    });
    let t = igen50.compile(&pipeline).unwrap().timings;
    println!(
        "igen50_five_apps phases: deps {} ms, translate {} ms, mapping {} ms, optimize {} ms, rulegen {} ms",
        ms(t.dependency_analysis),
        ms(t.xfdd_generation),
        ms(t.packet_state_mapping),
        ms(t.optimization),
        ms(t.rule_generation),
    );

    group.finish();
}

criterion_group!(benches, bench_compiler);
criterion_main!(benches);
