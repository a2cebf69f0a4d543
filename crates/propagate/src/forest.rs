//! The collection `G(D, A, t, S)` of propagation graphs.
//!
//! Graphs are built bottom-up over `N_Δ` (post-order over the `Nop`
//! skeleton of the update) so that every (vi)-edge weight — the cheapest
//! propagation cost of the child — and every (iv)-edge weight — the
//! minimal inverse size of an inserted fragment — is already memoised when
//! a parent graph is constructed. This single-pass memoisation is what
//! makes the whole construction polynomial. With the session memo on, the
//! walk stops at the update's clean region: see [`PropagationForest`].

use crate::algorithm::nanos_since;
use crate::cache::{Memo, MemoTable};
use crate::cost::CostModel;
use crate::count::count_graph;
use crate::error::PropagateError;
use crate::graph::{build_prop_graph, source_child_run, PropEdge, PropGraph};
use crate::instance::Instance;
use crate::inversion::InversionForest;
use crate::scratch::PropScratch;
use std::borrow::Cow;
use std::collections::HashMap;
use std::time::Instant;
use xvu_automata::StateId;
use xvu_edit::{output_tree, EditOp};
use xvu_tree::NodeId;

/// The propagation graphs of an instance, plus the auxiliary inversion
/// forests for inserted fragments.
///
/// A full forest ([`PropagationForest::build`], or a session with the
/// memo off) carries `G_n` for every preserved node `n ∈ N_Δ`: the
/// paper's forest, kept as the reference. A skeleton forest (a session
/// with the memo on) carries `G_n` only for the preserved nodes whose
/// subtree the update touches. Outside the footprint a preserved node's
/// cheapest propagation is the identity at cost 0, and the number of
/// optimal propagations below it depends on its subtree's shape alone:
/// each clean child of a skeleton node is held with cost 0 and that
/// count, taken from the session memo ([`crate::cache`]), without a graph,
/// and the nodes below it are not held at all. The forest's tables are
/// sized to what it holds, not to the update, and are keyed by node
/// identifier, so the accessors work after the instance is gone.
///
/// Every reader accepts both kinds: counting reads a clean node's stored
/// count, assembly never visits a cost-0 node, the complement search
/// takes a clean node as feasible, and the enumerators build a clean
/// node's graph from the instance when they reach it.
#[derive(Clone, Debug)]
pub struct PropagationForest {
    /// Node identifier → position in [`PropagationForest::nodes`].
    index: HashMap<NodeId, u32>,
    /// The preserved nodes the forest holds, children before parents.
    nodes: Vec<ForestNode>,
    /// Inversion forest per top-level inserted script child (the (iv)-edge
    /// machinery of §3), in build order.
    inversions: Vec<(NodeId, InversionForest)>,
    /// Inserted child identifier → position in
    /// [`PropagationForest::inversions`].
    inversion_index: HashMap<NodeId, u32>,
    /// One flat arena holding every recorded child word back to back —
    /// graph nodes store `(offset, len)` ranges into it, so snapshotting a
    /// node's child words costs no allocation of its own.
    kids: Vec<NodeId>,
    /// The root of the update (always preserved).
    pub root: NodeId,
}

/// One preserved node of a [`PropagationForest`].
#[derive(Clone, Debug)]
pub(crate) struct ForestNode {
    /// The node.
    pub(crate) id: NodeId,
    /// Its cheapest propagation-path cost.
    pub(crate) cost: u64,
    /// Its graph, or its clean count.
    pub(crate) body: Body,
}

/// What a forest holds for one preserved node besides its cost.
#[derive(Clone, Debug)]
pub(crate) enum Body {
    /// `G_n` with the node's child words at build time. Graph edges name
    /// children positionally ([`crate::PropEdge`]); the child words, as
    /// ranges into [`PropagationForest::kids`], resolve `tpos` and `spos`
    /// back to identifiers after the instance is gone.
    Graph {
        graph: PropGraph,
        t_kids: (u32, u32),
        s_kids: (u32, u32),
    },
    /// A clean node a skeleton walk stopped at: its cost is 0, and this is
    /// the number of optimal propagations of its subtree.
    Clean(u128),
}

impl ForestNode {
    /// `G_n`, if the forest holds one for this node.
    pub(crate) fn graph(&self) -> Option<&PropGraph> {
        match &self.body {
            Body::Graph { graph, .. } => Some(graph),
            Body::Clean(_) => None,
        }
    }
}

impl PropagationForest {
    /// Builds the full forest of a validated instance: `G_n` for every
    /// preserved node.
    pub fn build(
        inst: &Instance<'_>,
        cost: &CostModel<'_>,
    ) -> Result<PropagationForest, PropagateError> {
        Self::build_with(inst, cost, None, &mut PropScratch::new(), &mut 0)
    }

    /// Builds the forest of `inst`: the full forest without a memo, the
    /// skeleton forest with one.
    ///
    /// One post-order over the preserved nodes, on an explicit stack so no
    /// document depth can overflow the native stack. It descends into a
    /// `Nop` child unless the memo is on and the update's footprint marks
    /// the child clean; it builds `G_n` for every node it descends into,
    /// after the inversion forests of `n`'s inserted children (their
    /// minimal inverse sizes weigh `G_n`'s (iv)-edges) and the records of
    /// `n`'s clean children (cost 0 on their (vi)-edges). Typing runs go
    /// through the memo when there is one, and their time is added to
    /// `typing_ns`. Both kinds of forest yield the same costs, counts and
    /// scripts.
    pub(crate) fn build_with(
        inst: &Instance<'_>,
        cost: &CostModel<'_>,
        memo: Option<&mut MemoTable>,
        scratch: &mut PropScratch,
        typing_ns: &mut u64,
    ) -> Result<PropagationForest, PropagateError> {
        let update = inst.update;
        let mut memo = memo.map(Memo::new);
        let fp = memo.is_some().then(|| inst.footprint());
        // Whether the walk stops at preserved node `n`: only with a memo,
        // which can count the clean subtree below it.
        let stops = |n: NodeId| {
            fp.is_some_and(|f| f.is_clean(update.slot(n).expect("script node in update")))
        };
        let mut forest = PropagationForest {
            index: HashMap::new(),
            nodes: Vec::new(),
            inversions: Vec::new(),
            inversion_index: HashMap::new(),
            kids: Vec::new(),
            root: update.root(),
        };
        if stops(forest.root) {
            if let Some(m) = memo.as_mut() {
                let count = clean_count(inst, cost, m, forest.root, scratch)?;
                forest.push(forest.root, 0, Body::Clean(count));
                return Ok(forest);
            }
        }
        // `G_n`'s (vi)-weights by source position, (iv)-weights by script
        // position: pooled buffers, handed back when the walk ends.
        let mut child_costs = std::mem::take(&mut scratch.child_costs);
        let mut inverse_sizes = std::mem::take(&mut scratch.inverse_sizes);
        // `(node, children pushed)`: a node is built on its second pop,
        // after every node the walk descends into below it.
        let mut stack = vec![(forest.root, false)];
        while let Some((n, expanded)) = stack.pop() {
            if !expanded {
                // `n` and its kept children join the forest: make room
                // for all of them at once.
                forest.reserve(update.children(n).len() + 1);
                stack.push((n, true));
                for &c in update.children(n).iter().rev() {
                    if update.label(c).op == EditOp::Nop && !stops(c) {
                        stack.push((c, false));
                    }
                }
                continue;
            }
            inverse_sizes.clear();
            for &c in update.children(n) {
                let weight = match update.label(c).op {
                    EditOp::Ins => {
                        let fragment = output_tree(&update.subtree(c))
                            .expect("an Ins subtree has a full output");
                        let inversion = InversionForest::build_with(
                            inst.dtd, inst.ann, &fragment, cost, scratch,
                        )
                        .map_err(|e| match e {
                            // An impossible inversion of user-inserted
                            // content means the update's output was not a
                            // legal view — report it as such.
                            PropagateError::InversionImpossible(node) => {
                                PropagateError::OutputNotAView(format!(
                                    "inserted fragment at {node} has no source completion"
                                ))
                            }
                            other => other,
                        })?;
                        let size = inversion.min_inverse_size();
                        let pos = u32::try_from(forest.inversions.len()).expect("fits in u32");
                        forest.inversion_index.insert(c, pos);
                        forest.inversions.push((c, inversion));
                        size
                    }
                    EditOp::Nop if stops(c) => {
                        if let Some(m) = memo.as_mut() {
                            let count = clean_count(inst, cost, m, c, scratch)?;
                            forest.push(c, 0, Body::Clean(count));
                        }
                        0
                    }
                    EditOp::Nop | EditOp::Del => 0,
                };
                inverse_sizes.push(weight);
            }
            // Hidden and deleted children are not in the forest; their
            // entries are never read.
            child_costs.clear();
            child_costs.extend(
                inst.source
                    .children(n)
                    .iter()
                    .map(|&c| forest.cost(c).unwrap_or(0)),
            );

            // A preserved node is a visible source node, so it has a slot
            // (and an intern id) in the session document.
            let src_slot = inst.source.slot(n).expect("preserved node in source");
            let t0 = Instant::now();
            let mut computed = None;
            let run = match memo.as_mut() {
                Some(m) => m.run_or_compute(src_slot, || source_child_run(inst, n)),
                None => computed.insert(source_child_run(inst, n)).as_deref(),
            };
            *typing_ns += nanos_since(t0);
            let graph =
                build_prop_graph(inst, n, cost, &child_costs, &inverse_sizes, run, scratch)?;
            let best = graph
                .best_cost_with(&mut scratch.graph)
                .ok_or(PropagateError::NoPropagationPath(n))?;
            let t_kids = push_kids(&mut forest.kids, inst.source.children(n));
            let s_kids = push_kids(&mut forest.kids, update.children(n));
            forest.push(
                n,
                best,
                Body::Graph {
                    graph,
                    t_kids,
                    s_kids,
                },
            );
        }
        scratch.child_costs = child_costs;
        scratch.inverse_sizes = inverse_sizes;
        Ok(forest)
    }

    fn reserve(&mut self, more: usize) {
        self.nodes.reserve(more);
        self.index.reserve(more);
    }

    /// Appends a node (after its children).
    fn push(&mut self, id: NodeId, cost: u64, body: Body) {
        let pos = u32::try_from(self.nodes.len()).expect("forest fits in u32");
        self.index.insert(id, pos);
        self.nodes.push(ForestNode { id, cost, body });
    }

    /// The preserved nodes the forest holds, children before parents.
    pub(crate) fn nodes(&self) -> &[ForestNode] {
        &self.nodes
    }

    /// The position of `n` in [`PropagationForest::nodes`].
    pub(crate) fn position(&self, n: NodeId) -> Option<usize> {
        self.index.get(&n).map(|&p| p as usize)
    }

    fn node(&self, n: NodeId) -> Option<&ForestNode> {
        self.position(n).map(|p| &self.nodes[p])
    }

    /// The propagation graph `G_n` of preserved node `n`, if the forest
    /// holds one (every `n ∈ N_Δ` of a full forest; the skeleton nodes of
    /// a skeleton forest).
    pub fn graph(&self, n: NodeId) -> Option<&PropGraph> {
        self.node(n).and_then(ForestNode::graph)
    }

    /// `G_n`, built from `inst` when the forest holds none for `n`. Every
    /// preserved node a skeleton forest holds no graph of is clean — a
    /// clean child the walk stopped at, or a node below one — so its graph
    /// has only cost-0 kept children and no inserted ones.
    pub(crate) fn graph_or_build(
        &self,
        inst: &Instance<'_>,
        cost: &CostModel<'_>,
        n: NodeId,
        scratch: &mut PropScratch,
    ) -> Result<Cow<'_, PropGraph>, PropagateError> {
        match self.graph(n) {
            Some(g) => Ok(Cow::Borrowed(g)),
            None => {
                let run = source_child_run(inst, n);
                clean_graph(inst, cost, n, run.as_deref(), scratch).map(Cow::Owned)
            }
        }
    }

    /// The cheapest propagation-path cost of preserved node `n`, if the
    /// forest holds it (0 for a clean node).
    pub fn cost(&self, n: NodeId) -> Option<u64> {
        self.node(n).map(|x| x.cost)
    }

    /// The inversion forest of inserting script child `n`.
    pub fn inversion(&self, n: NodeId) -> Option<&InversionForest> {
        self.inversion_index
            .get(&n)
            .map(|&p| &self.inversions[p as usize].1)
    }

    fn word(&self, (off, len): (u32, u32)) -> &[NodeId] {
        &self.kids[off as usize..off as usize + len as usize]
    }

    /// Resolves the child a positional edge of `G_n` consumes back to its
    /// identifier (`None` for (i)-edges, which consume no child, and for
    /// positions outside `n`'s recorded child words).
    pub fn resolve_child(&self, n: NodeId, edge: &PropEdge) -> Option<NodeId> {
        self.node(n).and_then(|x| self.child_of(x, edge))
    }

    /// [`PropagationForest::resolve_child`] for a node at hand.
    pub(crate) fn child_of(&self, node: &ForestNode, edge: &PropEdge) -> Option<NodeId> {
        let Body::Graph { t_kids, s_kids, .. } = node.body else {
            return None;
        };
        match *edge {
            PropEdge::InsInvisible(_) => None,
            PropEdge::DelInvisible { tpos }
            | PropEdge::NopInvisible { tpos, .. }
            | PropEdge::DelVisible { tpos }
            | PropEdge::NopVisible { tpos, .. } => self.word(t_kids).get(tpos as usize).copied(),
            PropEdge::InsVisible { spos } => self.word(s_kids).get(spos as usize).copied(),
        }
    }

    /// Iterates over `(n, G_n)` for every node the forest holds a graph
    /// of, children before parents.
    pub fn graphs(&self) -> impl Iterator<Item = (NodeId, &PropGraph)> {
        self.nodes
            .iter()
            .filter_map(|x| x.graph().map(|g| (x.id, g)))
    }

    /// Iterates over the inversion forests of all inserting script
    /// children, in build order.
    pub fn inversions(&self) -> impl Iterator<Item = (NodeId, &InversionForest)> {
        self.inversions.iter().map(|(n, f)| (*n, f))
    }

    /// Number of preserved nodes the forest holds (`|N_Δ|` for a full
    /// forest).
    pub fn preserved_len(&self) -> usize {
        self.nodes.len()
    }

    /// Number of inserting script children with an inversion forest.
    pub fn inversion_len(&self) -> usize {
        self.inversions.len()
    }

    /// Replaces the graph of graph node `n`. Test support: lets corruption
    /// scenarios (goal-less graphs) be injected.
    #[cfg(test)]
    pub(crate) fn insert_graph(&mut self, n: NodeId, g: PropGraph) {
        let pos = self.position(n).expect("node in forest");
        if let Body::Graph { graph, .. } = &mut self.nodes[pos].body {
            *graph = g;
        }
    }

    /// Drops `n` from the forest's index, leaving its parent's (vi)-edge
    /// dangling. Test support, like [`PropagationForest::insert_graph`].
    #[cfg(test)]
    pub(crate) fn remove_graph(&mut self, n: NodeId) {
        self.index.remove(&n);
    }

    /// The cost of the cheapest schema-compliant side-effect-free
    /// propagation (Theorem 4's optimum).
    pub fn optimal_cost(&self) -> u64 {
        self.cost(self.root).expect("root is always preserved")
    }

    /// Total vertex/edge census across the graphs the forest holds
    /// (diagnostics and the polynomial-size claims of the paper).
    pub fn census(&self) -> (usize, usize) {
        let v = self.graphs().map(|(_, g)| g.n_vertices()).sum();
        let e = self.graphs().map(|(_, g)| g.n_edges()).sum();
        (v, e)
    }
}

/// `G_n` of a clean preserved node: every kept child costs 0 (the
/// identity) and the update inserts nothing below `n`.
fn clean_graph(
    inst: &Instance<'_>,
    cost: &CostModel<'_>,
    n: NodeId,
    run: Option<&[StateId]>,
    scratch: &mut PropScratch,
) -> Result<PropGraph, PropagateError> {
    let mut zeros = std::mem::take(&mut scratch.child_costs);
    zeros.clear();
    zeros.resize(inst.source.children(n).len(), 0);
    let graph = build_prop_graph(inst, n, cost, &zeros, &[], run, scratch);
    scratch.child_costs = zeros;
    graph
}

/// The number of optimal propagations of clean node `n`'s subtree, which
/// depends on the subtree's shape alone and is memoised under it.
///
/// One counted memo lookup. On a miss, a post-order fill on an explicit
/// stack visits the shapes below `n` that have no count yet, builds each
/// one's graph once, and counts it from its children's memoised counts
/// with the per-node formula of [`crate::count_optimal_propagations`].
fn clean_count(
    inst: &Instance<'_>,
    cost: &CostModel<'_>,
    memo: &mut Memo<'_>,
    n: NodeId,
    scratch: &mut PropScratch,
) -> Result<u128, PropagateError> {
    let slot = |m: NodeId| {
        inst.source
            .slot(m)
            .expect("a preserved node is a source node")
    };
    if let Some(count) = memo.clean_count(slot(n)) {
        return Ok(count);
    }
    let mut count = 0;
    // `(node, children pushed)`, as in the forest walk; a shape counted
    // earlier — in this fill or by another operation — is not revisited.
    let mut stack = vec![(n, false)];
    while let Some((m, expanded)) = stack.pop() {
        if !expanded {
            if m != n && memo.known_count(slot(m)).is_some() {
                continue;
            }
            stack.push((m, true));
            stack.extend(inst.update.children(m).iter().rev().map(|&c| (c, false)));
            continue;
        }
        let run = memo.run_or_compute(slot(m), || source_child_run(inst, m));
        let graph = clean_graph(inst, cost, m, run, scratch)?;
        let kids = inst.source.children(m);
        count = count_graph(&graph, &mut scratch.graph, |e| match *e {
            PropEdge::NopVisible { tpos, .. } => memo.known_count(slot(kids[tpos as usize])),
            // nothing is inserted below a clean node
            _ => None,
        })
        .ok_or(PropagateError::NoPropagationPath(m))?;
        memo.store_count(slot(m), count);
    }
    Ok(count)
}

/// Appends one child word to the flat pool and returns its
/// `(offset, len)` range.
fn push_kids(kids: &mut Vec<NodeId>, word: &[NodeId]) -> (u32, u32) {
    let off = u32::try_from(kids.len()).expect("child pool fits in u32");
    let len = u32::try_from(word.len()).expect("child word fits in u32");
    kids.extend_from_slice(word);
    (off, len)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixtures;
    use xvu_dtd::{min_sizes, InsertletPackage};

    #[test]
    fn census_is_polynomial_in_inputs() {
        let fx = fixtures::paper_running_example();
        let inst = Instance::new(&fx.dtd, &fx.ann, &fx.t0, &fx.s0, fx.alpha.len()).unwrap();
        let sizes = min_sizes(&fx.dtd, fx.alpha.len());
        let pkg = InsertletPackage::new();
        let cm = CostModel {
            sizes: &sizes,
            insertlets: &pkg,
        };
        let forest = PropagationForest::build(&inst, &cm).unwrap();
        let (v, e) = forest.census();
        // Generous sanity bound: |V| ≤ (k+1)(ℓ+1)|Q| summed over N_Δ.
        assert!(v > 0 && v < 1000, "vertices: {v}");
        assert!(e > 0 && e < 5000, "edges: {e}");
        assert_eq!(forest.preserved_len(), 4); // N_Δ = {n0, n4, n6, n10}
        assert_eq!(forest.inversion_len(), 3); // d#11, a#12, and c#15
        assert_eq!(forest.optimal_cost(), 14);
    }

    #[test]
    fn inserted_fragment_inverse_sizes() {
        let fx = fixtures::paper_running_example();
        let inst = Instance::new(&fx.dtd, &fx.ann, &fx.t0, &fx.s0, fx.alpha.len()).unwrap();
        let sizes = min_sizes(&fx.dtd, fx.alpha.len());
        let pkg = InsertletPackage::new();
        let cm = CostModel {
            sizes: &sizes,
            insertlets: &pkg,
        };
        let forest = PropagationForest::build(&inst, &cm).unwrap();
        // d#11(c13, c14): minimal inverse d(x,c,x,c) → 5 nodes.
        let inv = |n: u64| forest.inversion(xvu_tree::NodeId(n)).unwrap();
        assert_eq!(inv(11).min_inverse_size(), 5);
        // a#12: a leaf, inverse is itself → 1 node.
        assert_eq!(inv(12).min_inverse_size(), 1);
    }
}
