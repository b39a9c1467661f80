//! All-pairs minimum-hop routing oracle.
//!
//! Placement scores every candidate switch against every flow, and routing
//! concatenates shortest-path legs through state waypoints; both ask the
//! same two questions — how far, and along which path — thousands of times
//! per compile over a topology that does not change meanwhile. A
//! [`HopMatrix`] answers them from one BFS per source switch: `distance` is
//! an array load and `path` walks a stored predecessor tree.
//!
//! The trees reproduce [`Topology::shortest_path`]'s tie-break exactly (a
//! switch's predecessor is the one that *first discovered* it, scanning
//! out-links in insertion order), so paths — and therefore placements, link
//! utilizations and generated rules — are identical to the per-query BFS.
//! [`Topology::shortest_path`] and friends remain for one-off queries and as
//! the oracle the tests in this module compare against.

use crate::graph::{NodeId, Topology};
use std::collections::VecDeque;

/// Marks an unreachable pair in `dist` and a missing predecessor in `pred`.
const NONE: u32 = u32::MAX;

/// Hop distances and shortest-path trees between all pairs of switches.
#[derive(Clone, Debug)]
pub struct HopMatrix {
    n: usize,
    /// `dist[from * n + to]`: hop distance, [`NONE`] when unreachable.
    dist: Vec<u32>,
    /// `pred[from * n + v]`: the switch before `v` on the path from `from`
    /// ([`NONE`] for `from` itself and for unreachable switches).
    pred: Vec<u32>,
}

impl HopMatrix {
    /// Run one forward BFS per switch.
    pub fn new(topology: &Topology) -> HopMatrix {
        let n = topology.num_nodes();
        assert!(
            u32::try_from(n).is_ok_and(|n| n < NONE),
            "topology too large for a hop matrix"
        );
        let mut dist = vec![NONE; n * n];
        let mut pred = vec![NONE; n * n];
        let mut queue = VecDeque::new();
        for from in 0..n {
            let dist = &mut dist[from * n..(from + 1) * n];
            let pred = &mut pred[from * n..(from + 1) * n];
            dist[from] = 0;
            queue.push_back(from);
            while let Some(u) = queue.pop_front() {
                for &(v, _) in topology.neighbors(NodeId(u)) {
                    if dist[v.0] == NONE {
                        dist[v.0] = dist[u] + 1;
                        pred[v.0] = u as u32;
                        queue.push_back(v.0);
                    }
                }
            }
        }
        HopMatrix { n, dist, pred }
    }

    /// Hop distance between two switches (`None` when unreachable).
    #[inline]
    pub fn distance(&self, from: NodeId, to: NodeId) -> Option<usize> {
        match self.dist[from.0 * self.n + to.0] {
            NONE => None,
            d => Some(d as usize),
        }
    }

    /// The shortest path between two switches, including both endpoints —
    /// the same path [`Topology::shortest_path`] returns.
    pub fn path(&self, from: NodeId, to: NodeId) -> Option<Vec<NodeId>> {
        let mut path = vec![from];
        self.append_leg(from, to, &mut path).then_some(path)
    }

    /// The path that visits `waypoints` in order between `from` and `to`,
    /// built from per-leg shortest paths — the same path
    /// [`Topology::path_through`] returns.
    pub fn path_through(
        &self,
        from: NodeId,
        waypoints: &[NodeId],
        to: NodeId,
    ) -> Option<Vec<NodeId>> {
        // Size the path first, so it is allocated once.
        let stops = || waypoints.iter().chain(std::iter::once(&to));
        let mut len = 1;
        let mut at = from;
        for &stop in stops() {
            len += self.distance(at, stop)?;
            at = stop;
        }
        let mut path = Vec::with_capacity(len);
        path.push(from);
        let mut at = from;
        for &stop in stops() {
            self.append_leg(at, stop, &mut path);
            at = stop;
        }
        Some(path)
    }

    /// Append the switches after `from` on the path to `to`; `false` (and
    /// `path` untouched) when `to` is unreachable.
    fn append_leg(&self, from: NodeId, to: NodeId, path: &mut Vec<NodeId>) -> bool {
        let Some(hops) = self.distance(from, to) else {
            return false;
        };
        let start = path.len();
        path.resize(start + hops, to);
        let pred = &self.pred[from.0 * self.n..(from.0 + 1) * self.n];
        let mut cur = to.0;
        for slot in path[start..].iter_mut().rev() {
            *slot = NodeId(cur);
            cur = pred[cur] as usize;
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators::{igen_topology, random_topology, RandomTopologySpec};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// Every pair, and random waypoint lists, against the per-query BFS.
    fn assert_matches_per_query_bfs(t: &Topology, seed: u64) {
        let hops = HopMatrix::new(t);
        for a in t.nodes() {
            for b in t.nodes() {
                assert_eq!(hops.distance(a, b), t.distance(a, b), "{a:?}->{b:?}");
                assert_eq!(hops.path(a, b), t.shortest_path(a, b), "{a:?}->{b:?}");
            }
        }
        let mut rng = StdRng::seed_from_u64(seed);
        let n = t.num_nodes();
        for _ in 0..200 {
            let from = NodeId(rng.gen_range(0..n));
            let to = NodeId(rng.gen_range(0..n));
            let stops: Vec<NodeId> = (0..rng.gen_range(0..4usize))
                .map(|_| NodeId(rng.gen_range(0..n)))
                .collect();
            assert_eq!(
                hops.path_through(from, &stops, to),
                t.path_through(from, &stops, to),
                "{from:?} via {stops:?} to {to:?}"
            );
        }
    }

    #[test]
    fn matches_per_query_bfs_on_random_topologies() {
        for (nodes, seed) in [(12usize, 1u64), (40, 2), (103, 3)] {
            let spec = RandomTopologySpec {
                name: format!("random-{nodes}"),
                switches: nodes,
                directed_links: nodes * 4,
                external_ports: None,
                seed,
            };
            assert_matches_per_query_bfs(&random_topology(&spec), seed);
        }
    }

    #[test]
    fn matches_per_query_bfs_on_igen_topologies() {
        for (nodes, seed) in [(10usize, 5u64), (50, 7), (90, 11)] {
            assert_matches_per_query_bfs(&igen_topology(nodes, seed), seed);
        }
    }

    #[test]
    fn matches_per_query_bfs_on_a_disconnected_directed_graph() {
        // Two islands, one of them with a one-way link, plus an isolated
        // switch: unreachable pairs in both directions and asymmetric
        // distances.
        let mut t = Topology::new("islands");
        let ids: Vec<NodeId> = (0..7).map(|i| t.add_node(format!("s{i}"))).collect();
        t.add_bidi_link(ids[0], ids[1], 1.0);
        t.add_bidi_link(ids[1], ids[2], 1.0);
        t.add_link(ids[2], ids[0], 1.0);
        t.add_link(ids[3], ids[4], 1.0);
        t.add_link(ids[4], ids[5], 1.0);
        t.add_link(ids[3], ids[5], 1.0);
        assert_matches_per_query_bfs(&t, 13);
        let hops = HopMatrix::new(&t);
        assert_eq!(hops.distance(ids[5], ids[3]), None);
        assert_eq!(hops.path(ids[0], ids[6]), None);
        assert_eq!(hops.path_through(ids[0], &[ids[4]], ids[1]), None);
        assert_eq!(hops.path(ids[6], ids[6]), Some(vec![ids[6]]));
    }

    #[test]
    fn an_empty_topology_has_an_empty_matrix() {
        let hops = HopMatrix::new(&Topology::new("empty"));
        assert!(hops.dist.is_empty() && hops.pred.is_empty());
    }
}
