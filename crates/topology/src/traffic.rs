//! Traffic matrices.
//!
//! The paper synthesizes traffic matrices with a gravity model [Roughan,
//! CCR'05]: every external port gets an activity weight and the demand
//! between ports `u` and `v` is proportional to `w_u * w_v`. This module
//! implements that model plus a uniform matrix for tests.

use crate::graph::{PortId, Topology};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeMap;

/// A traffic matrix: expected demand between every ordered pair of distinct
/// external ports.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct TrafficMatrix {
    demands: BTreeMap<(PortId, PortId), f64>,
}

impl TrafficMatrix {
    /// An empty matrix.
    pub fn new() -> Self {
        TrafficMatrix::default()
    }

    /// Set the demand from `u` to `v`.
    pub fn set(&mut self, u: PortId, v: PortId, demand: f64) {
        self.demands.insert((u, v), demand);
    }

    /// The demand from `u` to `v` (0 when unset).
    pub fn get(&self, u: PortId, v: PortId) -> f64 {
        self.demands.get(&(u, v)).copied().unwrap_or(0.0)
    }

    /// Iterate over `(u, v, demand)` entries.
    pub fn iter(&self) -> impl Iterator<Item = (PortId, PortId, f64)> + '_ {
        self.demands.iter().map(|(&(u, v), &d)| (u, v, d))
    }

    /// Number of entries (distinct ordered port pairs).
    pub fn num_demands(&self) -> usize {
        self.demands.len()
    }

    /// Sum of all demands.
    pub fn total(&self) -> f64 {
        self.demands.values().sum()
    }

    /// A gravity-model matrix over the external ports of a topology.
    ///
    /// Port weights are drawn uniformly from `(0.5, 1.5)` so that ports differ
    /// but none dominates; the matrix is scaled so that the total demand is
    /// `total_volume`.
    pub fn gravity(topology: &Topology, total_volume: f64, seed: u64) -> TrafficMatrix {
        let mut rng = StdRng::seed_from_u64(seed);
        let ports: Vec<PortId> = topology.external_ports().map(|(p, _)| p).collect();
        let weights: Vec<f64> = ports.iter().map(|_| rng.gen_range(0.5..1.5)).collect();
        let mut tm = TrafficMatrix::new();
        if ports.len() < 2 {
            return tm;
        }
        let mut raw_total = 0.0;
        for i in 0..ports.len() {
            for j in 0..ports.len() {
                if i == j {
                    continue;
                }
                raw_total += weights[i] * weights[j];
            }
        }
        for (i, &u) in ports.iter().enumerate() {
            for (j, &v) in ports.iter().enumerate() {
                if i == j {
                    continue;
                }
                let d = total_volume * weights[i] * weights[j] / raw_total;
                tm.set(u, v, d);
            }
        }
        tm
    }

    /// A uniform matrix: the same demand between every ordered pair of ports.
    pub fn uniform(topology: &Topology, per_pair: f64) -> TrafficMatrix {
        let ports: Vec<PortId> = topology.external_ports().map(|(p, _)| p).collect();
        let mut tm = TrafficMatrix::new();
        for &u in &ports {
            for &v in &ports {
                if u != v {
                    tm.set(u, v, per_pair);
                }
            }
        }
        tm
    }

    /// Aggregate a matrix onto a smaller set of ports by summing demands whose
    /// endpoints map to the same representative (used to keep the exact MILP
    /// tractable on large topologies: one representative port per edge switch).
    pub fn aggregate(&self, map: &BTreeMap<PortId, PortId>) -> TrafficMatrix {
        let mut tm = TrafficMatrix::new();
        for (&(u, v), &d) in &self.demands {
            let nu = map.get(&u).copied().unwrap_or(u);
            let nv = map.get(&v).copied().unwrap_or(v);
            if nu != nv {
                let entry = tm.demands.entry((nu, nv)).or_insert(0.0);
                *entry += d;
            }
        }
        tm
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators::campus;

    #[test]
    fn gravity_matrix_covers_all_pairs_and_scales() {
        let t = campus();
        let tm = TrafficMatrix::gravity(&t, 600.0, 1);
        assert_eq!(tm.num_demands(), 6 * 5);
        assert!((tm.total() - 600.0).abs() < 1e-6);
        for (_, _, d) in tm.iter() {
            assert!(d > 0.0);
        }
    }

    #[test]
    fn gravity_is_deterministic_per_seed() {
        let t = campus();
        let a = TrafficMatrix::gravity(&t, 100.0, 5);
        let b = TrafficMatrix::gravity(&t, 100.0, 5);
        assert_eq!(a, b);
        let c = TrafficMatrix::gravity(&t, 100.0, 6);
        assert_ne!(a, c);
    }

    #[test]
    fn uniform_matrix() {
        let t = campus();
        let tm = TrafficMatrix::uniform(&t, 2.0);
        assert_eq!(tm.num_demands(), 30);
        assert_eq!(tm.get(PortId(1), PortId(6)), 2.0);
        assert_eq!(tm.get(PortId(1), PortId(1)), 0.0);
        assert!((tm.total() - 60.0).abs() < 1e-9);
    }

    #[test]
    fn aggregation_sums_demands() {
        let mut tm = TrafficMatrix::new();
        tm.set(PortId(1), PortId(3), 1.0);
        tm.set(PortId(2), PortId(3), 2.0);
        tm.set(PortId(3), PortId(1), 4.0);
        // Map port 2 onto port 1.
        let map: BTreeMap<PortId, PortId> = [(PortId(2), PortId(1))].into_iter().collect();
        let agg = tm.aggregate(&map);
        assert_eq!(agg.get(PortId(1), PortId(3)), 3.0);
        assert_eq!(agg.get(PortId(3), PortId(1)), 4.0);
        assert_eq!(agg.num_demands(), 2);
    }

    #[test]
    fn gravity_with_too_few_ports_is_empty() {
        let mut t = Topology::new("one-port");
        let a = t.add_node("a");
        t.add_external_port(PortId(1), a);
        let tm = TrafficMatrix::gravity(&t, 10.0, 1);
        assert_eq!(tm.num_demands(), 0);
    }

    use crate::graph::Topology;
}
