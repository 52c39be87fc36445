//! Single-source and multi-source Dijkstra shortest paths.

use crate::{Cost, EdgeId, Graph, NodeId};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Result of a (multi-source) Dijkstra run.
///
/// Stores, for every node, the distance to the closest source, the parent
/// hop on a shortest path, and which source ("site") it is closest to — the
/// latter turns the structure into a Voronoi partition, which is what
/// Mehlhorn's Steiner approximation consumes.
///
/// # Examples
///
/// ```
/// use sof_graph::{Graph, Cost, NodeId, ShortestPaths};
///
/// let mut g = Graph::with_nodes(3);
/// g.add_edge(NodeId::new(0), NodeId::new(1), Cost::new(1.0));
/// g.add_edge(NodeId::new(1), NodeId::new(2), Cost::new(2.0));
/// let sp = ShortestPaths::from_source(&g, NodeId::new(0));
/// assert_eq!(sp.dist(NodeId::new(2)), Cost::new(3.0));
/// assert_eq!(
///     sp.path_to(NodeId::new(2)).unwrap(),
///     vec![NodeId::new(0), NodeId::new(1), NodeId::new(2)]
/// );
/// ```
#[derive(Clone, Debug)]
pub struct ShortestPaths {
    dist: Vec<Cost>,
    parent: Vec<Option<(NodeId, EdgeId)>>,
    site: Vec<Option<NodeId>>,
}

impl ShortestPaths {
    /// Runs Dijkstra from a single source.
    pub fn from_source(graph: &Graph, source: NodeId) -> ShortestPaths {
        ShortestPaths::from_sources(graph, std::iter::once(source))
    }

    /// Runs Dijkstra from several sources at once.
    ///
    /// Every node is labelled with its closest source (`site`).
    ///
    /// This is a convenience wrapper that allocates a fresh
    /// [`DijkstraWorkspace`] per call; hot paths that run many Dijkstras
    /// should reuse a workspace (or go through [`crate::PathEngine`], which
    /// also memoizes whole trees) — both produce bit-identical results.
    ///
    /// # Panics
    ///
    /// Panics if any source is out of range.
    pub fn from_sources<I>(graph: &Graph, sources: I) -> ShortestPaths
    where
        I: IntoIterator<Item = NodeId>,
    {
        let mut ws = DijkstraWorkspace::new();
        ws.run(graph, sources);
        ws.into_paths()
    }

    /// Runs multi-source Dijkstra relaxing only the edges `allow` accepts.
    ///
    /// The filter sees each candidate hop as `(from, edge, to)`; returning
    /// `false` makes the hop impassable for this run without touching the
    /// graph's costs (so shared caches like [`crate::PathEngine`] stay
    /// warm). Sources are seeded unconditionally — exclude unusable
    /// sources before calling. This is the routing primitive under
    /// survivability's "reattach avoiding failed elements": temporarily
    /// severed links and nodes are modelled as a filter, not a mutation.
    ///
    /// # Panics
    ///
    /// Panics if any source is out of range.
    pub fn from_sources_filtered<I, F>(graph: &Graph, sources: I, mut allow: F) -> ShortestPaths
    where
        I: IntoIterator<Item = NodeId>,
        F: FnMut(NodeId, EdgeId, NodeId) -> bool,
    {
        let n = graph.node_count();
        let mut sp = ShortestPaths {
            dist: vec![Cost::INFINITY; n],
            parent: vec![None; n],
            site: vec![None; n],
        };
        let mut heap: BinaryHeap<Reverse<(Cost, NodeId)>> = BinaryHeap::new();
        for s in sources {
            assert!(s.index() < n, "source {s} out of range");
            if sp.dist[s.index()] > Cost::ZERO {
                sp.dist[s.index()] = Cost::ZERO;
                sp.site[s.index()] = Some(s);
                heap.push(Reverse((Cost::ZERO, s)));
            }
        }
        while let Some(Reverse((d, u))) = heap.pop() {
            if d > sp.dist[u.index()] {
                continue;
            }
            let su = sp.site[u.index()];
            for (v, e) in graph.neighbors(u) {
                if !allow(u, e, v) {
                    continue;
                }
                let nd = d + graph.edge_cost(e);
                if nd < sp.dist[v.index()] {
                    sp.dist[v.index()] = nd;
                    sp.parent[v.index()] = Some((u, e));
                    sp.site[v.index()] = su;
                    heap.push(Reverse((nd, v)));
                }
            }
        }
        sp
    }

    /// Distance from the closest source to `v`.
    #[inline]
    pub fn dist(&self, v: NodeId) -> Cost {
        self.dist[v.index()]
    }

    /// The source closest to `v`, or `None` if `v` is unreachable.
    #[inline]
    pub fn site(&self, v: NodeId) -> Option<NodeId> {
        self.site[v.index()]
    }

    /// Parent hop of `v` on its shortest path, or `None` at sources and
    /// unreachable nodes.
    #[inline]
    pub fn parent(&self, v: NodeId) -> Option<(NodeId, EdgeId)> {
        self.parent[v.index()]
    }

    /// Returns the shortest path from the closest source to `v` as a node
    /// sequence (source first), or `None` if `v` is unreachable.
    pub fn path_to(&self, v: NodeId) -> Option<Vec<NodeId>> {
        if !self.dist[v.index()].is_finite() {
            return None;
        }
        let mut path = vec![v];
        let mut cur = v;
        while let Some((p, _)) = self.parent[cur.index()] {
            path.push(p);
            cur = p;
        }
        path.reverse();
        Some(path)
    }

    /// Returns the edges of the shortest path to `v` (in source→`v` order).
    pub fn edges_to(&self, v: NodeId) -> Option<Vec<EdgeId>> {
        if !self.dist[v.index()].is_finite() {
            return None;
        }
        let mut edges = Vec::new();
        let mut cur = v;
        while let Some((p, e)) = self.parent[cur.index()] {
            edges.push(e);
            cur = p;
        }
        edges.reverse();
        Some(edges)
    }

    /// Number of nodes covered by this run.
    pub fn len(&self) -> usize {
        self.dist.len()
    }

    /// Returns `true` if the run covered no nodes.
    pub fn is_empty(&self) -> bool {
        self.dist.is_empty()
    }
}

/// A reusable Dijkstra scratchpad: epoch-stamped `dist`/`parent`/`site`
/// arrays plus a drained heap.
///
/// Resetting between runs is O(1) — a single epoch bump lazily invalidates
/// every slot — so once the arrays have grown to the graph size, repeated
/// runs perform **zero O(n) allocation**. This is the engine under
/// [`ShortestPaths::from_sources`] (fresh workspace per call), the
/// memoizing [`crate::PathEngine`] (one long-lived workspace), and the
/// incremental restarts of the Takahashi–Matsuyama Steiner heuristic
/// (re-seeded with the grown tree each attachment).
///
/// Results are bit-identical to [`ShortestPaths::from_sources`]: both run
/// the same relaxation with the same `(cost, node)` heap order.
///
/// # Examples
///
/// ```
/// use sof_graph::{Cost, DijkstraWorkspace, Graph, NodeId};
///
/// let mut g = Graph::with_nodes(3);
/// g.add_edge(NodeId::new(0), NodeId::new(1), Cost::new(1.0));
/// g.add_edge(NodeId::new(1), NodeId::new(2), Cost::new(2.0));
/// let mut ws = DijkstraWorkspace::new();
/// ws.run(&g, [NodeId::new(0)]);
/// assert_eq!(ws.dist(NodeId::new(2)), Cost::new(3.0));
/// ws.run(&g, [NodeId::new(2)]); // reuses the same buffers
/// assert_eq!(ws.dist(NodeId::new(0)), Cost::new(3.0));
/// assert_eq!(ws.grows(), 1, "arrays were allocated exactly once");
/// ```
#[derive(Clone, Debug, Default)]
pub struct DijkstraWorkspace {
    /// Current run id; a slot is live iff `stamp[i] == epoch`.
    epoch: u64,
    stamp: Vec<u64>,
    dist: Vec<Cost>,
    parent: Vec<Option<(NodeId, EdgeId)>>,
    site: Vec<Option<NodeId>>,
    heap: BinaryHeap<Reverse<(Cost, NodeId)>>,
    /// Node count of the most recent run.
    len: usize,
    runs: u64,
    grows: u64,
}

impl DijkstraWorkspace {
    /// Creates an empty workspace; arrays grow on first use.
    pub fn new() -> DijkstraWorkspace {
        DijkstraWorkspace::default()
    }

    /// Runs multi-source Dijkstra over `graph`, reusing the workspace's
    /// buffers. Previous results are invalidated by a single epoch bump —
    /// no per-node clearing, no allocation once the arrays fit the graph.
    ///
    /// # Panics
    ///
    /// Panics if any source is out of range.
    pub fn run<I>(&mut self, graph: &Graph, sources: I)
    where
        I: IntoIterator<Item = NodeId>,
    {
        let n = graph.node_count();
        if self.stamp.len() < n {
            self.stamp.resize(n, 0);
            self.dist.resize(n, Cost::INFINITY);
            self.parent.resize(n, None);
            self.site.resize(n, None);
            self.grows += 1;
        }
        self.len = n;
        self.epoch += 1;
        self.runs += 1;
        self.heap.clear();
        for s in sources {
            assert!(s.index() < n, "source {s} out of range");
            if self.dist_at(s.index()) > Cost::ZERO {
                self.write(s.index(), Cost::ZERO, None, Some(s));
                self.heap.push(Reverse((Cost::ZERO, s)));
            }
        }
        while let Some(Reverse((d, u))) = self.heap.pop() {
            if d > self.dist_at(u.index()) {
                continue;
            }
            let su = self.site_at(u.index());
            for (v, e) in graph.neighbors(u) {
                let nd = d + graph.edge_cost(e);
                if nd < self.dist_at(v.index()) {
                    self.write(v.index(), nd, Some((u, e)), su);
                    self.heap.push(Reverse((nd, v)));
                }
            }
        }
    }

    #[inline]
    fn dist_at(&self, i: usize) -> Cost {
        if self.stamp[i] == self.epoch {
            self.dist[i]
        } else {
            Cost::INFINITY
        }
    }

    #[inline]
    fn parent_at(&self, i: usize) -> Option<(NodeId, EdgeId)> {
        if self.stamp[i] == self.epoch {
            self.parent[i]
        } else {
            None
        }
    }

    #[inline]
    fn site_at(&self, i: usize) -> Option<NodeId> {
        if self.stamp[i] == self.epoch {
            self.site[i]
        } else {
            None
        }
    }

    /// Distance from the closest source of the latest run to `v`.
    #[inline]
    pub fn dist(&self, v: NodeId) -> Cost {
        self.dist_at(v.index())
    }

    /// The source closest to `v` in the latest run.
    #[inline]
    pub fn site(&self, v: NodeId) -> Option<NodeId> {
        self.site_at(v.index())
    }

    /// Parent hop of `v` in the latest run.
    #[inline]
    pub fn parent(&self, v: NodeId) -> Option<(NodeId, EdgeId)> {
        self.parent_at(v.index())
    }

    /// Shortest path from the closest source to `v` (source first), or
    /// `None` if `v` is unreachable. Allocates only the returned path.
    pub fn path_to(&self, v: NodeId) -> Option<Vec<NodeId>> {
        if !self.dist_at(v.index()).is_finite() {
            return None;
        }
        let mut path = vec![v];
        let mut cur = v;
        while let Some((p, _)) = self.parent_at(cur.index()) {
            path.push(p);
            cur = p;
        }
        path.reverse();
        Some(path)
    }

    /// Edges of the shortest path to `v` in source→`v` order.
    pub fn edges_to(&self, v: NodeId) -> Option<Vec<EdgeId>> {
        if !self.dist_at(v.index()).is_finite() {
            return None;
        }
        let mut edges = Vec::new();
        let mut cur = v;
        while let Some((p, e)) = self.parent_at(cur.index()) {
            edges.push(e);
            cur = p;
        }
        edges.reverse();
        Some(edges)
    }

    #[inline]
    fn write(&mut self, i: usize, d: Cost, p: Option<(NodeId, EdgeId)>, s: Option<NodeId>) {
        self.stamp[i] = self.epoch;
        self.dist[i] = d;
        self.parent[i] = p;
        self.site[i] = s;
    }

    /// Copies the latest run out into an owned [`ShortestPaths`]
    /// (the workspace stays warm). One O(n) copy — the price of a cache
    /// miss in [`crate::PathEngine`]; cache hits pay nothing.
    pub fn snapshot(&self) -> ShortestPaths {
        let n = self.len;
        ShortestPaths {
            dist: (0..n).map(|i| self.dist_at(i)).collect(),
            parent: (0..n).map(|i| self.parent_at(i)).collect(),
            site: (0..n).map(|i| self.site_at(i)).collect(),
        }
    }

    /// Consumes the workspace into an owned [`ShortestPaths`] without
    /// copying the arrays (used by [`ShortestPaths::from_sources`]).
    fn into_paths(mut self) -> ShortestPaths {
        for i in 0..self.len {
            if self.stamp[i] != self.epoch {
                self.dist[i] = Cost::INFINITY;
                self.parent[i] = None;
                self.site[i] = None;
            }
        }
        self.dist.truncate(self.len);
        self.parent.truncate(self.len);
        self.site.truncate(self.len);
        ShortestPaths {
            dist: self.dist,
            parent: self.parent,
            site: self.site,
        }
    }

    /// Number of runs performed.
    pub fn runs(&self) -> u64 {
        self.runs
    }

    /// Number of times the arrays had to (re)grow — stays at 1 across any
    /// number of runs on same-sized graphs, which is how tests pin the
    /// "zero O(n) allocation on the warm path" guarantee.
    pub fn grows(&self) -> u64 {
        self.grows
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// 0 -1- 1 -1- 2
    ///  \----5----/     plus isolated node 3
    fn diamond() -> Graph {
        let mut g = Graph::with_nodes(4);
        g.add_edge(NodeId::new(0), NodeId::new(1), Cost::new(1.0));
        g.add_edge(NodeId::new(1), NodeId::new(2), Cost::new(1.0));
        g.add_edge(NodeId::new(0), NodeId::new(2), Cost::new(5.0));
        g
    }

    #[test]
    fn single_source_distances() {
        let g = diamond();
        let sp = ShortestPaths::from_source(&g, NodeId::new(0));
        assert_eq!(sp.dist(NodeId::new(0)), Cost::ZERO);
        assert_eq!(sp.dist(NodeId::new(2)), Cost::new(2.0));
        assert_eq!(sp.dist(NodeId::new(3)), Cost::INFINITY);
        assert_eq!(sp.path_to(NodeId::new(3)), None);
    }

    #[test]
    fn path_reconstruction() {
        let g = diamond();
        let sp = ShortestPaths::from_source(&g, NodeId::new(0));
        let path = sp.path_to(NodeId::new(2)).unwrap();
        assert_eq!(path, vec![NodeId::new(0), NodeId::new(1), NodeId::new(2)]);
        let edges = sp.edges_to(NodeId::new(2)).unwrap();
        assert_eq!(edges.len(), 2);
        let total: Cost = edges.iter().map(|&e| g.edge_cost(e)).sum();
        assert_eq!(total, Cost::new(2.0));
    }

    #[test]
    fn multi_source_voronoi() {
        let mut g = Graph::with_nodes(5);
        // 0 -1- 1 -1- 2 -1- 3 -1- 4; sources 0 and 4.
        for i in 0..4 {
            g.add_edge(NodeId::new(i), NodeId::new(i + 1), Cost::new(1.0));
        }
        let sp = ShortestPaths::from_sources(&g, [NodeId::new(0), NodeId::new(4)]);
        assert_eq!(sp.site(NodeId::new(1)), Some(NodeId::new(0)));
        assert_eq!(sp.site(NodeId::new(3)), Some(NodeId::new(4)));
        assert_eq!(sp.dist(NodeId::new(2)), Cost::new(2.0));
        // Sites of the sources themselves.
        assert_eq!(sp.site(NodeId::new(0)), Some(NodeId::new(0)));
        assert_eq!(sp.site(NodeId::new(4)), Some(NodeId::new(4)));
    }

    #[test]
    fn duplicate_sources_are_fine() {
        let g = diamond();
        let sp = ShortestPaths::from_sources(&g, [NodeId::new(0), NodeId::new(0)]);
        assert_eq!(sp.dist(NodeId::new(1)), Cost::new(1.0));
    }

    #[test]
    fn zero_cost_edges() {
        let mut g = Graph::with_nodes(3);
        g.add_edge(NodeId::new(0), NodeId::new(1), Cost::ZERO);
        g.add_edge(NodeId::new(1), NodeId::new(2), Cost::ZERO);
        let sp = ShortestPaths::from_source(&g, NodeId::new(0));
        assert_eq!(sp.dist(NodeId::new(2)), Cost::ZERO);
        assert_eq!(sp.path_to(NodeId::new(2)).unwrap().len(), 3);
    }

    #[test]
    fn filtered_run_routes_around_banned_hops() {
        let g = diamond();
        // Unfiltered, the cheap route 0→1→2 wins; banning the 0–1 hop
        // forces the expensive direct edge instead of mutating any cost.
        let banned = (NodeId::new(0), NodeId::new(1));
        let sp = ShortestPaths::from_sources_filtered(&g, [NodeId::new(0)], |u, _, v| {
            (u.min(v), u.max(v)) != banned
        });
        assert_eq!(sp.dist(NodeId::new(2)), Cost::new(5.0));
        assert_eq!(
            sp.path_to(NodeId::new(2)).unwrap(),
            vec![NodeId::new(0), NodeId::new(2)]
        );
        assert_eq!(sp.dist(NodeId::new(1)), Cost::new(6.0), "via 2");
        // An all-pass filter matches the unfiltered run exactly.
        let open = ShortestPaths::from_sources_filtered(&g, [NodeId::new(0)], |_, _, _| true);
        let reference = ShortestPaths::from_source(&g, NodeId::new(0));
        for v in g.nodes() {
            assert_eq!(open.dist(v), reference.dist(v));
            assert_eq!(open.path_to(v), reference.path_to(v));
        }
    }

    #[test]
    fn workspace_reuse_leaves_no_stale_state() {
        let g = diamond();
        let mut ws = DijkstraWorkspace::new();
        ws.run(&g, [NodeId::new(0)]);
        assert_eq!(ws.dist(NodeId::new(2)), Cost::new(2.0));
        // Re-run from the isolated node: every previous label must read as
        // unreachable, not leak through from the first run.
        ws.run(&g, [NodeId::new(3)]);
        assert_eq!(ws.dist(NodeId::new(0)), Cost::INFINITY);
        assert_eq!(ws.dist(NodeId::new(2)), Cost::INFINITY);
        assert_eq!(ws.site(NodeId::new(1)), None);
        assert_eq!(ws.parent(NodeId::new(1)), None);
        assert_eq!(ws.path_to(NodeId::new(0)), None);
        assert_eq!(ws.dist(NodeId::new(3)), Cost::ZERO);
        assert_eq!(ws.runs(), 2);
        assert_eq!(ws.grows(), 1, "second run must not reallocate");
    }

    #[test]
    fn workspace_matches_from_sources_on_random_graphs() {
        for seed in 0..6u64 {
            let mut rng = crate::Rng64::seed_from(seed);
            let g = crate::generators::gnp_connected(
                40,
                0.12,
                crate::CostRange::new(1.0, 7.0),
                &mut rng,
            );
            let mut ws = DijkstraWorkspace::new();
            for sources in [vec![0usize], vec![3, 17], vec![1, 2, 39]] {
                let srcs: Vec<NodeId> = sources.iter().map(|&i| NodeId::new(i)).collect();
                let reference = ShortestPaths::from_sources(&g, srcs.iter().copied());
                ws.run(&g, srcs.iter().copied());
                let snap = ws.snapshot();
                for v in g.nodes() {
                    assert_eq!(ws.dist(v), reference.dist(v), "seed {seed} node {v}");
                    assert_eq!(snap.dist(v), reference.dist(v));
                    assert_eq!(ws.parent(v), reference.parent(v));
                    assert_eq!(snap.parent(v), reference.parent(v));
                    assert_eq!(ws.site(v), reference.site(v));
                    assert_eq!(ws.path_to(v), reference.path_to(v));
                    assert_eq!(ws.edges_to(v), reference.edges_to(v));
                }
            }
            assert_eq!(ws.grows(), 1);
        }
    }

    #[test]
    fn workspace_grows_for_larger_graphs() {
        let small = diamond();
        let mut big = Graph::with_nodes(10);
        for i in 0..9 {
            big.add_edge(NodeId::new(i), NodeId::new(i + 1), Cost::new(1.0));
        }
        let mut ws = DijkstraWorkspace::new();
        ws.run(&small, [NodeId::new(0)]);
        ws.run(&big, [NodeId::new(0)]);
        assert_eq!(ws.grows(), 2);
        assert_eq!(ws.dist(NodeId::new(9)), Cost::new(9.0));
        // Shrinking back reuses the larger buffers without reallocating,
        // and the snapshot is sized to the current graph.
        ws.run(&small, [NodeId::new(0)]);
        assert_eq!(ws.grows(), 2);
        assert_eq!(ws.snapshot().len(), small.node_count());
    }
}
