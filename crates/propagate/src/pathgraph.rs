//! Generic weighted path graphs.
//!
//! Both of the paper's graph constructions — inversion graphs `H_n`
//! (Section 3) and propagation graphs `G_n` (Section 4) — are directed,
//! edge-weighted graphs with one start vertex, a set of goal vertices, and
//! the same derived notions:
//!
//! * cheapest start→goal path cost (non-negative weights ⇒ Dijkstra),
//! * the **optimal subgraph** induced by all cheapest paths (the paper's
//!   `H*`/`G*`), obtained by keeping edge `(u,v,w)` iff
//!   `dist(start,u) + w + dist(v,goal) = best`,
//! * path counting and bounded enumeration over the optimal subgraph
//!   (which is acyclic — asserted, per the paper's observation),
//! * deterministic greedy path extraction under a pluggable edge
//!   preference.
//!
//! This module implements those once, generically over vertex and edge
//! payload types.
//!
//! # Memory layout
//!
//! Adjacency is stored in **CSR (compressed sparse row)** form: one
//! contiguous `edge_idx` array plus an `offsets` array, derived from the
//! edge list in a single counting pass. Because the pass scans edges in
//! index order, each row lists its edges in insertion order — insertion
//! order is the deterministic tie-break of every selector, so the packing
//! is observationally identical to the jagged `Vec<Vec<u32>>` layout it
//! replaced (`BENCH_propagate.json`'s `kernel` section times the packed
//! kernel).
//! Both the forward and the reverse CSR are built lazily on first use and
//! memoised on the graph; [`PathGraph::add_edge`] invalidates them, so a
//! graph under construction pays nothing until it is first queried.
//!
//! Shortest-path queries accept an optional [`GraphScratch`] — pooled
//! Dijkstra state (distance arrays, predecessor array, binary heap) that
//! is cleared, never freed, between queries, so a warm caller performs no
//! transient heap allocation per query.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::sync::OnceLock;

/// Sentinel distance for unreachable vertices.
pub const UNREACHABLE: u64 = u64::MAX;

/// Sentinel for "no predecessor edge" in [`GraphScratch::pred`].
const EDGE_NONE: u32 = u32::MAX;

/// A directed weighted edge with a payload.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Edge<E> {
    /// Source vertex index.
    pub from: u32,
    /// Target vertex index.
    pub to: u32,
    /// Non-negative weight.
    pub weight: u64,
    /// Domain payload (edge kind).
    pub payload: E,
}

/// Compressed sparse row adjacency: `edge_idx[offsets[v] .. offsets[v+1]]`
/// lists the edge indices incident to `v`, in edge-insertion order.
#[derive(Clone, Debug)]
struct Csr {
    offsets: Vec<u32>,
    edge_idx: Vec<u32>,
}

impl Csr {
    /// Builds the CSR in one counting pass over the edge list. `end`
    /// selects which endpoint owns the edge (`from` for the forward CSR,
    /// `to` for the reverse). Scanning edges in index order keeps every
    /// row in insertion order.
    fn build<E>(n: usize, edges: &[Edge<E>], end: impl Fn(&Edge<E>) -> u32) -> Csr {
        let mut offsets = vec![0u32; n + 1];
        for e in edges {
            offsets[end(e) as usize + 1] += 1;
        }
        for v in 0..n {
            offsets[v + 1] += offsets[v];
        }
        let mut cursor: Vec<u32> = offsets[..n].to_vec();
        let mut edge_idx = vec![0u32; edges.len()];
        for (i, e) in edges.iter().enumerate() {
            let c = &mut cursor[end(e) as usize];
            edge_idx[*c as usize] = i as u32;
            *c += 1;
        }
        Csr { offsets, edge_idx }
    }

    #[inline]
    fn row(&self, v: u32) -> &[u32] {
        &self.edge_idx[self.offsets[v as usize] as usize..self.offsets[v as usize + 1] as usize]
    }
}

/// Reusable shortest-path state: distance arrays, the predecessor array,
/// and the Dijkstra binary heap, cleared — never freed — between queries.
///
/// One scratch serves any number of graphs of any size (buffers are
/// `resize`d per query); a warm scratch makes [`PathGraph::best_cost_with`],
/// [`PathGraph::shortest_path_with`], and
/// [`PathGraph::optimal_subgraph_with`] allocation-free apart from the
/// result values they return. [`crate::PropScratch`] embeds one per
/// session / worker thread.
#[derive(Debug, Default)]
pub struct GraphScratch {
    dist_fwd: Vec<u64>,
    dist_rev: Vec<u64>,
    pred: Vec<u32>,
    heap: BinaryHeap<Reverse<(u64, u32)>>,
}

/// A directed weighted graph with a start vertex and goal vertices.
#[derive(Clone, Debug)]
pub struct PathGraph<V, E> {
    vertices: Vec<V>,
    edges: Vec<Edge<E>>,
    /// Forward CSR, built lazily on first adjacency query.
    fwd: OnceLock<Csr>,
    /// Reverse CSR, built lazily on first `dist_to_goal`-style query —
    /// once per graph, not once per call.
    rev: OnceLock<Csr>,
    start: u32,
    goal: Vec<bool>,
}

impl<V, E> PathGraph<V, E> {
    /// Creates a graph over the given vertices with a start vertex.
    pub fn new(vertices: Vec<V>, start: u32) -> PathGraph<V, E> {
        let n = vertices.len();
        assert!((start as usize) < n, "start vertex out of range");
        PathGraph {
            vertices,
            edges: Vec::new(),
            fwd: OnceLock::new(),
            rev: OnceLock::new(),
            start,
            goal: vec![false; n],
        }
    }

    /// Adds an edge, returning its index. Invalidates the memoised CSRs.
    pub fn add_edge(&mut self, from: u32, to: u32, weight: u64, payload: E) -> u32 {
        assert!(
            (to as usize) < self.vertices.len(),
            "edge target out of range"
        );
        let ix = self.edges.len() as u32;
        self.edges.push(Edge {
            from,
            to,
            weight,
            payload,
        });
        self.fwd.take();
        self.rev.take();
        ix
    }

    /// Marks `v` as a goal vertex.
    pub fn set_goal(&mut self, v: u32) {
        self.goal[v as usize] = true;
    }

    /// The start vertex.
    pub fn start(&self) -> u32 {
        self.start
    }

    /// Whether `v` is a goal.
    pub fn is_goal(&self, v: u32) -> bool {
        self.goal[v as usize]
    }

    /// Number of vertices.
    pub fn n_vertices(&self) -> usize {
        self.vertices.len()
    }

    /// Number of edges.
    pub fn n_edges(&self) -> usize {
        self.edges.len()
    }

    /// Vertex payload.
    pub fn vertex(&self, v: u32) -> &V {
        &self.vertices[v as usize]
    }

    /// Edge by index.
    pub fn edge(&self, e: u32) -> &Edge<E> {
        &self.edges[e as usize]
    }

    fn fwd_csr(&self) -> &Csr {
        self.fwd
            .get_or_init(|| Csr::build(self.vertices.len(), &self.edges, |e| e.from))
    }

    fn rev_csr(&self) -> &Csr {
        self.rev
            .get_or_init(|| Csr::build(self.vertices.len(), &self.edges, |e| e.to))
    }

    /// Edge indices leaving `v`, in insertion order (a CSR row).
    pub fn out_edges(&self, v: u32) -> &[u32] {
        self.fwd_csr().row(v)
    }

    /// Iterates over all edges with their indices.
    pub fn edges(&self) -> impl Iterator<Item = (u32, &Edge<E>)> {
        self.edges.iter().enumerate().map(|(i, e)| (i as u32, e))
    }

    /// Goal vertices.
    pub fn goals(&self) -> impl Iterator<Item = u32> + '_ {
        self.goal
            .iter()
            .enumerate()
            .filter(|(_, &g)| g)
            .map(|(v, _)| v as u32)
    }

    /// Dijkstra over one CSR direction into caller-owned buffers. With
    /// `reverse`, sources should be the goals and edges are walked
    /// `to → from`. `pred`, when given, records the relaxing edge index
    /// per vertex ([`EDGE_NONE`] = none).
    fn dijkstra_into(
        &self,
        sources: impl Iterator<Item = u32>,
        reverse: bool,
        dist: &mut Vec<u64>,
        heap: &mut BinaryHeap<Reverse<(u64, u32)>>,
        mut pred: Option<&mut Vec<u32>>,
    ) {
        let csr = if reverse {
            self.rev_csr()
        } else {
            self.fwd_csr()
        };
        dist.clear();
        dist.resize(self.vertices.len(), UNREACHABLE);
        if let Some(pred) = pred.as_deref_mut() {
            pred.clear();
            pred.resize(self.vertices.len(), EDGE_NONE);
        }
        heap.clear();
        for s in sources {
            dist[s as usize] = 0;
            heap.push(Reverse((0, s)));
        }
        while let Some(Reverse((d, v))) = heap.pop() {
            if d > dist[v as usize] {
                continue;
            }
            for &e in csr.row(v) {
                let edge = &self.edges[e as usize];
                let to = if reverse { edge.from } else { edge.to };
                let nd = d.saturating_add(edge.weight);
                if nd < dist[to as usize] && nd != UNREACHABLE {
                    dist[to as usize] = nd;
                    if let Some(pred) = pred.as_deref_mut() {
                        pred[to as usize] = e;
                    }
                    heap.push(Reverse((nd, to)));
                }
            }
        }
    }

    /// Dijkstra from the start vertex. Unreachable = [`UNREACHABLE`].
    pub fn dist_from_start(&self) -> Vec<u64> {
        let mut dist = Vec::new();
        let mut heap = BinaryHeap::new();
        self.dijkstra_into(
            std::iter::once(self.start),
            false,
            &mut dist,
            &mut heap,
            None,
        );
        dist
    }

    /// Reverse Dijkstra from all goal vertices: `dist[v]` = cheapest cost
    /// from `v` to any goal. The reverse CSR this walks is memoised on the
    /// graph — built once, on the first call.
    pub fn dist_to_goal(&self) -> Vec<u64> {
        let mut dist = Vec::new();
        let mut heap = BinaryHeap::new();
        self.dijkstra_into(self.goals(), true, &mut dist, &mut heap, None);
        dist
    }

    /// Cost of the cheapest start→goal path, `None` if no goal is
    /// reachable.
    pub fn best_cost(&self) -> Option<u64> {
        self.best_cost_with(&mut GraphScratch::default())
    }

    /// [`PathGraph::best_cost`] over pooled scratch — allocation-free when
    /// the scratch is warm.
    pub fn best_cost_with(&self, s: &mut GraphScratch) -> Option<u64> {
        self.dijkstra_into(
            std::iter::once(self.start),
            false,
            &mut s.dist_fwd,
            &mut s.heap,
            None,
        );
        self.goals()
            .map(|g| s.dist_fwd[g as usize])
            .min()
            .filter(|&c| c != UNREACHABLE)
    }

    /// A cheapest start→goal path as a sequence of edge indices (`None` if
    /// unreachable). Works on cyclic graphs.
    pub fn shortest_path(&self) -> Option<Vec<u32>> {
        self.shortest_path_with(&mut GraphScratch::default())
    }

    /// [`PathGraph::shortest_path`] over pooled scratch; only the returned
    /// path itself is allocated when the scratch is warm.
    pub fn shortest_path_with(&self, s: &mut GraphScratch) -> Option<Vec<u32>> {
        self.dijkstra_into(
            std::iter::once(self.start),
            false,
            &mut s.dist_fwd,
            &mut s.heap,
            Some(&mut s.pred),
        );
        let goal = self
            .goals()
            .filter(|&g| s.dist_fwd[g as usize] != UNREACHABLE)
            .min_by_key(|&g| s.dist_fwd[g as usize])?;
        let mut path = Vec::new();
        let mut cur = goal;
        while cur != self.start {
            let e = s.pred[cur as usize];
            debug_assert_ne!(e, EDGE_NONE, "predecessor on reached vertex");
            path.push(e);
            cur = self.edges[e as usize].from;
        }
        path.reverse();
        Some(path)
    }

    /// The subgraph induced by all cheapest start→goal paths — the paper's
    /// `H*`/`G*`. Vertex indices are preserved (the subgraph keeps the full
    /// vertex table; pruned vertices simply have no incident edges and the
    /// start is unchanged). Returns `None` when no goal is reachable.
    pub fn optimal_subgraph(&self) -> Option<PathGraph<V, E>>
    where
        V: Clone,
        E: Clone,
    {
        self.optimal_subgraph_with(&mut GraphScratch::default())
    }

    /// [`PathGraph::optimal_subgraph`] over pooled scratch: both Dijkstra
    /// passes run in the scratch buffers; only the returned subgraph owns
    /// fresh memory.
    pub fn optimal_subgraph_with(&self, s: &mut GraphScratch) -> Option<PathGraph<V, E>>
    where
        V: Clone,
        E: Clone,
    {
        let GraphScratch {
            dist_fwd,
            dist_rev,
            heap,
            ..
        } = s;
        self.dijkstra_into(std::iter::once(self.start), false, dist_fwd, heap, None);
        self.dijkstra_into(self.goals(), true, dist_rev, heap, None);
        let (ds, dg) = (&*dist_fwd, &*dist_rev);
        let best = self
            .goals()
            .map(|g| ds[g as usize])
            .min()
            .filter(|&c| c != UNREACHABLE)?;
        let mut out = PathGraph::new(self.vertices.clone(), self.start);
        for g in self.goals() {
            // A goal lies on an optimal path iff reaching it costs `best`
            // (continuing past a goal is never optimal: weights into any
            // further goal are ≥ 0 and the path is already complete).
            if ds[g as usize] == best {
                out.set_goal(g);
            }
        }
        for e in &self.edges {
            let (u, v) = (e.from as usize, e.to as usize);
            if ds[u] == UNREACHABLE || dg[v] == UNREACHABLE {
                continue;
            }
            if ds[u].saturating_add(e.weight).saturating_add(dg[v]) == best {
                out.add_edge(e.from, e.to, e.weight, e.payload.clone());
            }
        }
        Some(out)
    }

    /// Whether the graph (restricted to edges present) is acyclic.
    pub fn is_acyclic(&self) -> bool {
        self.topo_order().is_some()
    }

    /// A topological order of the vertices, `None` if cyclic.
    pub fn topo_order(&self) -> Option<Vec<u32>> {
        let csr = self.fwd_csr();
        let n = self.vertices.len();
        let mut indeg = vec![0usize; n];
        for e in &self.edges {
            indeg[e.to as usize] += 1;
        }
        let mut queue: Vec<u32> = (0..n as u32).filter(|&v| indeg[v as usize] == 0).collect();
        let mut order = Vec::with_capacity(n);
        while let Some(v) = queue.pop() {
            order.push(v);
            for &e in csr.row(v) {
                let to = self.edges[e as usize].to as usize;
                indeg[to] -= 1;
                if indeg[to] == 0 {
                    queue.push(to as u32);
                }
            }
        }
        (order.len() == n).then_some(order)
    }

    /// Counts start→goal paths, weighting each path by the product of
    /// per-edge `factor`s (saturating `u128`). Requires acyclicity (true
    /// for optimal subgraphs); returns `None` on cyclic graphs, where the
    /// count is infinite.
    pub fn count_paths(&self, mut factor: impl FnMut(&E) -> u128) -> Option<u128> {
        let order = self.topo_order()?;
        let csr = self.fwd_csr();
        let mut ways = vec![0u128; self.vertices.len()];
        ways[self.start as usize] = 1;
        for &v in &order {
            let wv = ways[v as usize];
            if wv == 0 {
                continue;
            }
            for &e in csr.row(v) {
                let edge = &self.edges[e as usize];
                let contrib = wv.saturating_mul(factor(&edge.payload));
                let slot = &mut ways[edge.to as usize];
                *slot = slot.saturating_add(contrib);
            }
        }
        Some(
            self.goals()
                .fold(0u128, |acc, g| acc.saturating_add(ways[g as usize])),
        )
    }

    /// Extracts one start→goal path by repeatedly letting `choose` pick
    /// among the outgoing edges. Intended for **optimal subgraphs**, where
    /// every edge lies on a cheapest path, so any local choice is globally
    /// optimal; the walk stops at the first goal vertex reached.
    ///
    /// `choose` receives the graph and the candidate edge indices and must
    /// return one of them. Returns `None` if a non-goal vertex has no
    /// outgoing edges (impossible in an optimal subgraph).
    pub fn walk(
        &self,
        mut choose: impl FnMut(&PathGraph<V, E>, &[u32]) -> u32,
    ) -> Option<Vec<u32>> {
        let mut path = Vec::new();
        let mut cur = self.start;
        let mut steps = 0usize;
        // In an acyclic optimal subgraph paths are ≤ |E| long; the bound
        // guards against misuse on cyclic graphs.
        let max_steps = self.edges.len() + 1;
        while !self.goal[cur as usize] {
            let outs = self.out_edges(cur);
            if outs.is_empty() || steps > max_steps {
                return None;
            }
            let e = choose(self, outs);
            debug_assert!(
                self.out_edges(cur).contains(&e),
                "selector returned a foreign edge"
            );
            path.push(e);
            cur = self.edges[e as usize].to;
            steps += 1;
        }
        Some(path)
    }

    /// Enumerates start→goal paths as edge-index sequences, up to `cap`
    /// paths and `max_len` edges per path (the length bound makes
    /// enumeration terminate even on cyclic full graphs, matching the
    /// paper's observation that non-optimal propagations can be arbitrarily
    /// long).
    pub fn enumerate_paths(&self, cap: usize, max_len: usize) -> Vec<Vec<u32>> {
        let mut result = Vec::new();
        let mut stack = Vec::new();
        self.enum_rec(self.start, &mut stack, &mut result, cap, max_len);
        result
    }

    fn enum_rec(
        &self,
        v: u32,
        stack: &mut Vec<u32>,
        result: &mut Vec<Vec<u32>>,
        cap: usize,
        max_len: usize,
    ) {
        if result.len() >= cap {
            return;
        }
        if self.goal[v as usize] {
            result.push(stack.clone());
            if result.len() >= cap {
                return;
            }
            // goals may have continuations in full graphs; keep exploring
        }
        if stack.len() >= max_len {
            return;
        }
        for &e in self.out_edges(v) {
            stack.push(e);
            self.enum_rec(self.edges[e as usize].to, stack, result, cap, max_len);
            stack.pop();
            if result.len() >= cap {
                return;
            }
        }
    }

    /// Sum of edge weights along a path (saturating).
    pub fn path_cost(&self, path: &[u32]) -> u64 {
        path.iter().fold(0u64, |acc, &e| {
            acc.saturating_add(self.edges[e as usize].weight)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Diamond: 0 → {1, 2} → 3, with an expensive detour 0→3.
    fn diamond() -> PathGraph<&'static str, char> {
        let mut g = PathGraph::new(vec!["s", "a", "b", "t"], 0);
        g.add_edge(0, 1, 1, 'p');
        g.add_edge(0, 2, 1, 'q');
        g.add_edge(1, 3, 1, 'r');
        g.add_edge(2, 3, 1, 's');
        g.add_edge(0, 3, 5, 'x');
        g.set_goal(3);
        g
    }

    #[test]
    fn dijkstra_and_best_cost() {
        let g = diamond();
        assert_eq!(g.best_cost(), Some(2));
        let ds = g.dist_from_start();
        assert_eq!(ds, vec![0, 1, 1, 2]);
        let dg = g.dist_to_goal();
        assert_eq!(dg, vec![2, 1, 1, 0]);
    }

    #[test]
    fn csr_rows_preserve_insertion_order() {
        let g = diamond();
        // vertex 0 inserted edges 0 ('p'), 1 ('q'), 4 ('x') in that order
        assert_eq!(g.out_edges(0), &[0, 1, 4]);
        assert_eq!(g.out_edges(1), &[2]);
        assert_eq!(g.out_edges(3), &[] as &[u32]);
    }

    #[test]
    fn reverse_csr_is_memoised_and_invalidated_by_add_edge() {
        let mut g = diamond();
        assert_eq!(g.dist_to_goal(), vec![2, 1, 1, 0]);
        // second call answers from the memoised reverse CSR
        assert_eq!(g.dist_to_goal(), vec![2, 1, 1, 0]);
        // mutation invalidates the memo: the cheaper bypass must be seen
        g.add_edge(0, 3, 1, 'z');
        assert_eq!(g.dist_to_goal(), vec![1, 1, 1, 0]);
        assert_eq!(g.best_cost(), Some(1));
    }

    #[test]
    fn scratch_reuse_matches_fresh_queries() {
        let mut s = GraphScratch::default();
        let g = diamond();
        // warm the scratch on one graph, then reuse it on another shape
        assert_eq!(g.best_cost_with(&mut s), Some(2));
        assert_eq!(g.shortest_path_with(&mut s), g.shortest_path());
        let mut h: PathGraph<(), ()> = PathGraph::new(vec![(), ()], 0);
        h.set_goal(1);
        assert_eq!(h.best_cost_with(&mut s), None);
        let opt = g.optimal_subgraph_with(&mut s).unwrap();
        assert_eq!(opt.n_edges(), 4);
        assert_eq!(opt.best_cost_with(&mut s), Some(2));
    }

    #[test]
    fn optimal_subgraph_drops_expensive_edge() {
        let g = diamond();
        let opt = g.optimal_subgraph().unwrap();
        assert_eq!(opt.n_edges(), 4); // the weight-5 edge is pruned
        assert!(opt.is_acyclic());
        assert_eq!(opt.best_cost(), Some(2));
    }

    #[test]
    fn count_paths_in_optimal_subgraph() {
        let g = diamond().optimal_subgraph().unwrap();
        assert_eq!(g.count_paths(|_| 1), Some(2));
        // multiplicative factors
        assert_eq!(g.count_paths(|&c| if c == 'p' { 3 } else { 1 }), Some(4));
    }

    #[test]
    fn count_paths_on_cyclic_graph_is_none() {
        let mut g: PathGraph<(), ()> = PathGraph::new(vec![(), ()], 0);
        g.add_edge(0, 1, 1, ());
        g.add_edge(1, 0, 1, ());
        g.set_goal(1);
        assert!(g.count_paths(|_| 1).is_none());
        assert!(!g.is_acyclic());
        // but shortest path still works
        assert_eq!(g.shortest_path().unwrap().len(), 1);
    }

    #[test]
    fn shortest_path_reconstructs_edges() {
        let g = diamond();
        let p = g.shortest_path().unwrap();
        assert_eq!(g.path_cost(&p), 2);
        assert_eq!(p.len(), 2);
        assert_eq!(g.edge(p[0]).from, 0);
        assert_eq!(g.edge(p[1]).to, 3);
    }

    #[test]
    fn walk_with_preference() {
        let g = diamond().optimal_subgraph().unwrap();
        // prefer edges labelled 'q'
        let p = g
            .walk(|g, outs| {
                *outs
                    .iter()
                    .find(|&&e| g.edge(e).payload == 'q')
                    .unwrap_or(&outs[0])
            })
            .unwrap();
        assert_eq!(g.edge(p[0]).payload, 'q');
        assert_eq!(g.path_cost(&p), 2);
    }

    #[test]
    fn walk_fails_on_dead_end() {
        let mut g: PathGraph<(), ()> = PathGraph::new(vec![(), (), ()], 0);
        g.add_edge(0, 1, 1, ());
        g.set_goal(2); // unreachable
        assert!(g.walk(|_, outs| outs[0]).is_none());
    }

    #[test]
    fn enumerate_paths_respects_caps() {
        let g = diamond();
        let all = g.enumerate_paths(10, 10);
        assert_eq!(all.len(), 3); // two cheap, one direct
        let capped = g.enumerate_paths(2, 10);
        assert_eq!(capped.len(), 2);
        let short = g.enumerate_paths(10, 1);
        assert_eq!(short.len(), 1); // only the direct 0→3 edge fits
    }

    #[test]
    fn enumerate_on_cyclic_graph_terminates() {
        let mut g: PathGraph<(), char> = PathGraph::new(vec![(), ()], 0);
        g.add_edge(0, 0, 1, 'l');
        g.add_edge(0, 1, 1, 'f');
        g.set_goal(1);
        let paths = g.enumerate_paths(100, 4);
        // l^k f for k in 0..=3
        assert_eq!(paths.len(), 4);
    }

    #[test]
    fn unreachable_goal_best_cost_none() {
        let mut g: PathGraph<(), ()> = PathGraph::new(vec![(), ()], 0);
        g.set_goal(1);
        assert_eq!(g.best_cost(), None);
        assert!(g.optimal_subgraph().is_none());
        assert!(g.shortest_path().is_none());
    }

    #[test]
    fn start_can_be_goal() {
        let mut g: PathGraph<(), ()> = PathGraph::new(vec![()], 0);
        g.set_goal(0);
        assert_eq!(g.best_cost(), Some(0));
        assert_eq!(g.shortest_path().unwrap().len(), 0);
        assert_eq!(g.walk(|_, o| o[0]).unwrap().len(), 0);
        let opt = g.optimal_subgraph().unwrap();
        assert_eq!(opt.count_paths(|_| 1), Some(1));
    }

    #[test]
    fn multiple_goals_pick_cheapest() {
        let mut g: PathGraph<(), ()> = PathGraph::new(vec![(), (), ()], 0);
        g.add_edge(0, 1, 5, ());
        g.add_edge(0, 2, 2, ());
        g.set_goal(1);
        g.set_goal(2);
        assert_eq!(g.best_cost(), Some(2));
        let opt = g.optimal_subgraph().unwrap();
        // vertex 1 remains a vertex but is not an optimal goal
        assert!(!opt.is_goal(1));
        assert!(opt.is_goal(2));
        assert_eq!(opt.n_edges(), 1);
    }
}
