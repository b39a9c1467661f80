//! Figure 11: compilation time as Table 3 policies are incrementally composed
//! (in parallel) on a 50-switch network.

use snap_bench::{composed_policies, run_scenarios, scaled_igen, secs};

fn main() {
    println!("Figure 11: compilation time vs. number of composed policies (seconds)");
    println!(
        "{:>10} {:>12} {:>16} {:>16} {:>12}",
        "#policies", "state vars", "topo/TM change", "policy change", "cold start"
    );
    let (topo, tm) = scaled_igen(50, 1_000.0, 8);
    let ports = topo.num_external_ports();
    for n in (4..=20).step_by(2) {
        let policy = composed_policies(n, ports);
        let (compiled, times) = run_scenarios(&topo, &tm, &policy);
        println!(
            "{:>10} {:>12} {:>16} {:>16} {:>12}",
            n,
            compiled.deps.variables.len(),
            secs(times.topology_change),
            secs(times.policy_change),
            secs(times.cold_start),
        );
    }
}
