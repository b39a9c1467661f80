//! The physical network topology: switches, directed capacitated links and
//! the external (OBS) ports where traffic enters and leaves the network.

use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::fmt;

/// A physical switch in the topology.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct NodeId(pub usize);

/// An external port of the one-big-switch (where hosts / neighbor networks
/// attach). The paper numbers these 1..6 in the running example.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct PortId(pub usize);

/// A directed link between two switches.
#[derive(Clone, Debug, PartialEq)]
pub struct Link {
    /// Source switch.
    pub from: NodeId,
    /// Destination switch.
    pub to: NodeId,
    /// Capacity (in arbitrary bandwidth units, consistent with demands).
    pub capacity: f64,
}

/// A physical topology.
#[derive(Clone, Debug, Default)]
pub struct Topology {
    /// Human-readable name (e.g. "stanford-like").
    pub name: String,
    names: Vec<String>,
    links: Vec<Link>,
    adj: Vec<Vec<(NodeId, usize)>>,
    /// Number of links arriving at each switch (the in-half of `degree`).
    in_degree: Vec<usize>,
    external_ports: BTreeMap<PortId, NodeId>,
    /// Dense mirror of `external_ports` for small port numbers: the data
    /// plane resolves a port's switch once or twice per packet, so that
    /// lookup should be an array load, not a tree walk. Ports at or above
    /// [`DENSE_PORT_LIMIT`] simply fall back to the map.
    port_cache: Vec<Option<NodeId>>,
}

/// Port numbers below this get a slot in the dense port-to-switch cache.
const DENSE_PORT_LIMIT: usize = 1 << 16;

impl Topology {
    /// An empty topology with a name.
    pub fn new(name: impl Into<String>) -> Self {
        Topology {
            name: name.into(),
            ..Default::default()
        }
    }

    /// Add a switch, returning its id.
    pub fn add_node(&mut self, name: impl Into<String>) -> NodeId {
        let id = NodeId(self.names.len());
        self.names.push(name.into());
        self.adj.push(Vec::new());
        self.in_degree.push(0);
        id
    }

    /// Add a directed link.
    pub fn add_link(&mut self, from: NodeId, to: NodeId, capacity: f64) {
        let idx = self.links.len();
        self.links.push(Link { from, to, capacity });
        self.adj[from.0].push((to, idx));
        self.in_degree[to.0] += 1;
    }

    /// Add links in both directions with the same capacity.
    pub fn add_bidi_link(&mut self, a: NodeId, b: NodeId, capacity: f64) {
        self.add_link(a, b, capacity);
        self.add_link(b, a, capacity);
    }

    /// Attach an external (OBS) port to a switch.
    pub fn add_external_port(&mut self, port: PortId, node: NodeId) {
        self.external_ports.insert(port, node);
        if port.0 < DENSE_PORT_LIMIT {
            if self.port_cache.len() <= port.0 {
                self.port_cache.resize(port.0 + 1, None);
            }
            self.port_cache[port.0] = Some(node);
        }
    }

    /// Number of switches.
    pub fn num_nodes(&self) -> usize {
        self.names.len()
    }

    /// Number of directed links.
    pub fn num_links(&self) -> usize {
        self.links.len()
    }

    /// All node ids.
    pub fn nodes(&self) -> impl Iterator<Item = NodeId> + '_ {
        (0..self.names.len()).map(NodeId)
    }

    /// All directed links.
    pub fn links(&self) -> &[Link] {
        &self.links
    }

    /// The switch a given external port attaches to.
    #[inline]
    pub fn port_switch(&self, port: PortId) -> Option<NodeId> {
        if port.0 < DENSE_PORT_LIMIT {
            return self.port_cache.get(port.0).copied().flatten();
        }
        self.external_ports.get(&port).copied()
    }

    /// All external ports with their switches.
    pub fn external_ports(&self) -> impl Iterator<Item = (PortId, NodeId)> + '_ {
        self.external_ports.iter().map(|(p, n)| (*p, *n))
    }

    /// Number of external ports.
    pub fn num_external_ports(&self) -> usize {
        self.external_ports.len()
    }

    /// The name of a switch.
    pub fn node_name(&self, node: NodeId) -> &str {
        &self.names[node.0]
    }

    /// Look a switch up by name.
    pub fn node_by_name(&self, name: &str) -> Option<NodeId> {
        self.names.iter().position(|n| n == name).map(NodeId)
    }

    /// Out-neighbors of a switch (with the index of the connecting link).
    pub fn neighbors(&self, node: NodeId) -> &[(NodeId, usize)] {
        &self.adj[node.0]
    }

    /// Total degree (in + out) of a switch.
    pub fn degree(&self, node: NodeId) -> usize {
        self.adj[node.0].len() + self.in_degree[node.0]
    }

    /// Capacity of the directed link between two switches, if one exists.
    pub fn link_capacity(&self, from: NodeId, to: NodeId) -> Option<f64> {
        self.adj[from.0]
            .iter()
            .find(|(n, _)| *n == to)
            .map(|(_, idx)| self.links[*idx].capacity)
    }

    /// Is the topology (weakly) connected?
    pub fn is_connected(&self) -> bool {
        if self.num_nodes() == 0 {
            return true;
        }
        // Treat links as undirected for connectivity.
        let mut undirected: Vec<BTreeSet<usize>> = vec![BTreeSet::new(); self.num_nodes()];
        for l in &self.links {
            undirected[l.from.0].insert(l.to.0);
            undirected[l.to.0].insert(l.from.0);
        }
        let mut seen = vec![false; self.num_nodes()];
        let mut queue = VecDeque::from([0usize]);
        seen[0] = true;
        let mut count = 1;
        while let Some(n) = queue.pop_front() {
            for &m in &undirected[n] {
                if !seen[m] {
                    seen[m] = true;
                    count += 1;
                    queue.push_back(m);
                }
            }
        }
        count == self.num_nodes()
    }

    /// Shortest path (minimum hop count) between two switches, including both
    /// endpoints. Returns `None` when unreachable.
    pub fn shortest_path(&self, from: NodeId, to: NodeId) -> Option<Vec<NodeId>> {
        if from == to {
            return Some(vec![from]);
        }
        let mut prev: Vec<Option<NodeId>> = vec![None; self.num_nodes()];
        let mut seen = vec![false; self.num_nodes()];
        let mut queue = VecDeque::from([from]);
        seen[from.0] = true;
        while let Some(n) = queue.pop_front() {
            for &(m, _) in &self.adj[n.0] {
                if !seen[m.0] {
                    seen[m.0] = true;
                    prev[m.0] = Some(n);
                    if m == to {
                        let mut path = vec![to];
                        let mut cur = to;
                        while let Some(p) = prev[cur.0] {
                            path.push(p);
                            cur = p;
                        }
                        path.reverse();
                        return Some(path);
                    }
                    queue.push_back(m);
                }
            }
        }
        None
    }

    /// Shortest path that visits `waypoints` in order, starting at `from` and
    /// ending at `to`. Built by concatenating per-leg shortest paths.
    pub fn path_through(
        &self,
        from: NodeId,
        waypoints: &[NodeId],
        to: NodeId,
    ) -> Option<Vec<NodeId>> {
        let mut stops = Vec::with_capacity(waypoints.len() + 2);
        stops.push(from);
        stops.extend_from_slice(waypoints);
        stops.push(to);
        let mut path: Vec<NodeId> = vec![from];
        for pair in stops.windows(2) {
            let leg = self.shortest_path(pair[0], pair[1])?;
            path.extend_from_slice(&leg[1..]);
        }
        Some(path)
    }

    /// Hop distance between two switches (`None` when unreachable).
    pub fn distance(&self, from: NodeId, to: NodeId) -> Option<usize> {
        self.shortest_path(from, to).map(|p| p.len() - 1)
    }

    /// All-pairs hop distances from one source (BFS).
    pub fn distances_from(&self, from: NodeId) -> Vec<Option<usize>> {
        let mut dist = vec![None; self.num_nodes()];
        dist[from.0] = Some(0);
        let mut queue = VecDeque::from([from]);
        while let Some(n) = queue.pop_front() {
            let d = dist[n.0].unwrap();
            for &(m, _) in &self.adj[n.0] {
                if dist[m.0].is_none() {
                    dist[m.0] = Some(d + 1);
                    queue.push_back(m);
                }
            }
        }
        dist
    }

    /// The switches holding external ports (the "edge" switches).
    pub fn edge_switches(&self) -> BTreeSet<NodeId> {
        self.external_ports.values().copied().collect()
    }
}

impl fmt::Display for Topology {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}: {} switches, {} directed links, {} external ports",
            self.name,
            self.num_nodes(),
            self.num_links(),
            self.num_external_ports()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn line3() -> (Topology, NodeId, NodeId, NodeId) {
        let mut t = Topology::new("line");
        let a = t.add_node("a");
        let b = t.add_node("b");
        let c = t.add_node("c");
        t.add_bidi_link(a, b, 10.0);
        t.add_bidi_link(b, c, 10.0);
        (t, a, b, c)
    }

    #[test]
    fn build_and_query() {
        let (t, a, b, c) = line3();
        assert_eq!(t.num_nodes(), 3);
        assert_eq!(t.num_links(), 4);
        assert_eq!(t.link_capacity(a, b), Some(10.0));
        assert_eq!(t.link_capacity(a, c), None);
        assert_eq!(t.node_by_name("b"), Some(b));
        assert_eq!(t.node_name(c), "c");
        assert_eq!(t.degree(b), 4);
        assert!(t.is_connected());
    }

    #[test]
    fn shortest_paths() {
        let (t, a, b, c) = line3();
        assert_eq!(t.shortest_path(a, c), Some(vec![a, b, c]));
        assert_eq!(t.distance(a, c), Some(2));
        assert_eq!(t.shortest_path(a, a), Some(vec![a]));
        assert_eq!(t.distance(a, a), Some(0));
        let d = t.distances_from(a);
        assert_eq!(d, vec![Some(0), Some(1), Some(2)]);
    }

    #[test]
    fn unreachable_nodes() {
        let mut t = Topology::new("disconnected");
        let a = t.add_node("a");
        let b = t.add_node("b");
        assert!(!t.is_connected());
        assert_eq!(t.shortest_path(a, b), None);
        assert_eq!(t.distance(a, b), None);
    }

    #[test]
    fn path_through_waypoints() {
        let (t, a, b, c) = line3();
        let p = t.path_through(a, &[b], c).unwrap();
        assert_eq!(p, vec![a, b, c]);
        let p = t.path_through(a, &[c], a).unwrap();
        assert_eq!(p, vec![a, b, c, b, a]);
        // A waypoint equal to the source works.
        let p = t.path_through(a, &[a], c).unwrap();
        assert_eq!(p, vec![a, b, c]);
    }

    #[test]
    fn external_ports_and_edges() {
        let (mut t, a, _, c) = line3();
        t.add_external_port(PortId(1), a);
        t.add_external_port(PortId(2), c);
        assert_eq!(t.num_external_ports(), 2);
        assert_eq!(t.port_switch(PortId(1)), Some(a));
        assert_eq!(t.port_switch(PortId(7)), None);
        assert_eq!(t.edge_switches().len(), 2);
    }
}
