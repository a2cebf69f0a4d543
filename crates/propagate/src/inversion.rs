//! Inversion graphs (paper §3).
//!
//! Given a view tree `t'`, the inversion problem asks for source documents
//! `t ∈ L(D)` with `A(t) = t'`. For every node `n` of `t'` with label `x`
//! and children `m_1 … m_k`, the **inversion graph** `H_n` has vertices
//! `{c_0, m_1, …, m_k} × Q` (positions between visible children × states
//! of `D(x)`) and two edge kinds:
//!
//! * **(i) `Ins(y)`** — stay at the same position, take a `q --y--> q'`
//!   transition on an *invisible* `y` (`A(x,y)=0`): pad the source with a
//!   fresh `y`-rooted fragment. Weight: the fragment's charge.
//! * **(ii) `Rec(i)`** — advance from position `i−1` to `i`, taking a
//!   transition on the *visible* label of `m_i`: keep the visible child,
//!   inverting it recursively. Weight: the cheapest inversion cost of
//!   `H_{m_i}` (computed bottom-up).
//!
//! An *inversion path* runs from `(c_0, q_0)` to `(m_k, q)` with `q ∈ F`.
//! Theorem 1: paths (with a choice of fragments for (i)-edges) capture
//! exactly `Inv(L(D), A, t')`. Theorem 2: cheapest paths capture exactly
//! the size-minimal inverses `Inv_min`; the optimal subgraphs `H*` are
//! acyclic.

use crate::cost::CostModel;
use crate::error::PropagateError;
use crate::pathgraph::PathGraph;
use crate::scratch::PropScratch;
use crate::selection::{Classify, EdgeClass, Selector};
use std::borrow::Cow;
use xvu_automata::StateId;
use xvu_dtd::Dtd;
use xvu_tree::{DocTree, NodeId, NodeIdGen, Slot, SlotMap, Sym, Tree};
use xvu_view::Annotation;

/// A vertex of an inversion graph: a position among the visible children
/// (`0` = the artificial `c_0`) and a content-model state.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct InvVertex {
    /// Position: `0..=k` where `k` is the number of children of `n` in the
    /// view.
    pub pos: u32,
    /// The automaton state of `D(λ(n))`.
    pub state: StateId,
}

/// An edge of an inversion graph.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum InvEdge {
    /// (i): insert a fresh invisible `y`-fragment.
    Ins(Sym),
    /// (ii): keep visible child `m_i`, inverted recursively.
    Rec {
        /// The 1-based child index `i`.
        index: u32,
        /// The child node `m_i`.
        child: NodeId,
    },
}

impl Classify for InvEdge {
    fn class(&self) -> EdgeClass {
        match self {
            InvEdge::Ins(_) => EdgeClass::Insert,
            InvEdge::Rec { .. } => EdgeClass::Keep,
        }
    }
    fn tie_break(&self) -> u64 {
        match self {
            InvEdge::Ins(y) => y.index() as u64,
            InvEdge::Rec { .. } => 0,
        }
    }
    fn preserves_type(&self) -> bool {
        false
    }
}

/// The inversion graph of a single view node.
pub type InvGraph = PathGraph<InvVertex, InvEdge>;

/// The collection `H(D, A, t')`: one inversion graph per node of the view
/// fragment, with memoised cheapest inversion costs.
///
/// Graphs and costs are dense tables keyed by the fragment's arena slots;
/// the owned fragment resolves identifiers, so the forest needs no
/// hash-keyed state at all.
#[derive(Clone, Debug)]
pub struct InversionForest {
    /// The view fragment being inverted (owned copy).
    pub fragment: DocTree,
    /// Per-node inversion graphs, keyed by fragment slot.
    graphs: SlotMap<InvGraph>,
    /// Per-node cheapest inversion-path cost (invisible nodes added within
    /// that node's subtree), keyed by fragment slot.
    costs: SlotMap<u64>,
}

impl InversionForest {
    /// Builds `H(D, A, fragment)` bottom-up. Fails with
    /// [`PropagateError::InversionImpossible`] at the shallowest node whose
    /// children admit no completion — i.e. when `fragment ∉ A(L(D))`.
    pub fn build(
        dtd: &Dtd,
        ann: &Annotation,
        fragment: &DocTree,
        cost: &CostModel<'_>,
    ) -> Result<InversionForest, PropagateError> {
        Self::build_with(dtd, ann, fragment, cost, &mut PropScratch::new())
    }

    /// [`InversionForest::build`] over a recycled [`PropScratch`]: the
    /// bottom-up cheapest-cost queries run on the scratch's pooled Dijkstra
    /// state instead of allocating per node.
    pub(crate) fn build_with(
        dtd: &Dtd,
        ann: &Annotation,
        fragment: &DocTree,
        cost: &CostModel<'_>,
        scratch: &mut PropScratch,
    ) -> Result<InversionForest, PropagateError> {
        let mut graphs = SlotMap::with_capacity(fragment.slot_bound());
        let mut costs = SlotMap::with_capacity(fragment.slot_bound());
        for n in fragment.postorder() {
            let slot = fragment.slot(n).expect("traversed node in fragment");
            let g = build_graph(dtd, ann, fragment, n, cost, &costs);
            let best = g
                .best_cost_with(scratch.graph_mut())
                .ok_or(PropagateError::InversionImpossible(n))?;
            costs.insert(slot, best);
            graphs.insert(slot, g);
        }
        Ok(InversionForest {
            fragment: fragment.clone(),
            graphs,
            costs,
        })
    }

    fn slot_of(&self, n: NodeId) -> Slot {
        self.fragment.slot(n).expect("node in fragment")
    }

    /// The inversion graph `H_n` of fragment node `n`.
    pub fn graph(&self, n: NodeId) -> Option<&InvGraph> {
        self.graphs.get(self.fragment.slot(n)?)
    }

    /// The cheapest inversion-path cost of fragment node `n`.
    pub fn cost(&self, n: NodeId) -> Option<u64> {
        self.costs.get(self.fragment.slot(n)?).copied()
    }

    /// Iterates over `(n, H_n)` for every fragment node, in arena order.
    pub fn graphs(&self) -> impl Iterator<Item = (NodeId, &InvGraph)> {
        self.graphs.iter().map(|(s, g)| (self.fragment.id_at(s), g))
    }

    /// The size of a minimal inverse: every fragment node plus the
    /// cheapest invisible padding.
    pub fn min_inverse_size(&self) -> u64 {
        (self.fragment.size() as u64).saturating_add(self.min_padding())
    }

    /// The minimal number of invisible nodes any inverse must add.
    pub fn min_padding(&self) -> u64 {
        self.costs[self.slot_of(self.fragment.root())]
    }

    /// Materialises a size-minimal inverse: walks the optimal subgraph of
    /// every inversion graph under `selector`, instantiating insertlets (or
    /// budget-bounded minimal witnesses) for (i)-edges. Fragment nodes keep
    /// their identifiers; padding uses fresh identifiers from `gen`.
    pub fn materialize_min(
        &self,
        dtd: &Dtd,
        cost: &CostModel<'_>,
        selector: Selector,
        gen: &mut NodeIdGen,
        witness_budget: u64,
    ) -> Result<DocTree, PropagateError> {
        let root = self.fragment.root();
        let (opt, path) = self.optimal_path(root, selector)?;
        self.materialize_path(root, &opt, &path, dtd, cost, selector, gen, witness_budget)
    }

    /// The optimal subgraph of `H_n` and the path `selector` picks in it.
    fn optimal_path(
        &self,
        n: NodeId,
        selector: Selector,
    ) -> Result<(InvGraph, Vec<u32>), PropagateError> {
        let opt = self.graphs[self.slot_of(n)]
            .optimal_subgraph()
            .ok_or(PropagateError::InversionImpossible(n))?;
        let path = opt
            .walk(|g, outs| selector.pick(g, outs))
            .ok_or(PropagateError::InversionImpossible(n))?;
        Ok((opt, path))
    }

    /// Builds the inverse tree for node `n` from an explicit edge path in
    /// (a subgraph of) its inversion graph; each kept child below it is
    /// inverted along the path `selector` picks in its optimal subgraph.
    ///
    /// One output tree is built in document order on an explicit stack of
    /// frames — a node, its path and the next edge — so no fragment depth
    /// can overflow the native stack and no subtree is copied twice. A kept
    /// child's frame runs to the end before its parent's next edge, so
    /// padding identifiers are drawn from `gen` in document order.
    #[allow(clippy::too_many_arguments)]
    pub fn materialize_path(
        &self,
        n: NodeId,
        graph: &InvGraph,
        path: &[u32],
        dtd: &Dtd,
        cost: &CostModel<'_>,
        selector: Selector,
        gen: &mut NodeIdGen,
        witness_budget: u64,
    ) -> Result<DocTree, PropagateError> {
        let mut tree = Tree::leaf_with_id(n, self.fragment.label(n));
        let mut frames = vec![(n, Cow::Borrowed(graph), Cow::Borrowed(path), 0usize)];
        while let Some((node, graph, path, next)) = frames.last_mut() {
            let Some(&e) = path.get(*next) else {
                frames.pop();
                continue;
            };
            *next += 1;
            let node = *node;
            match &graph.edge(e).payload {
                InvEdge::Ins(y) => {
                    let frag =
                        cost.insertlets
                            .instantiate(dtd, cost.sizes, *y, gen, witness_budget)?;
                    let pos = tree.children(node).len();
                    tree.attach_subtree(node, pos, frag)?;
                }
                InvEdge::Rec { child, .. } => {
                    let child = *child;
                    let (opt, path) = self.optimal_path(child, selector)?;
                    tree.add_child_with_id(node, child, self.fragment.label(child))?;
                    frames.push((child, Cow::Owned(opt), Cow::Owned(path), 0));
                }
            }
        }
        Ok(tree)
    }

    /// Enumerates inverses (bounded): up to `cap` trees overall, paths of
    /// at most `max_len` edges per node graph, full (possibly cyclic)
    /// graphs, child choices combined as a (bounded) cross-product.
    /// Exercises Theorem 1 — every returned tree is a true inverse, and
    /// when fewer than `cap` trees come back and no path hit `max_len`,
    /// the enumeration is exhaustive.
    pub fn enumerate_inverses(
        &self,
        dtd: &Dtd,
        cost: &CostModel<'_>,
        gen: &mut NodeIdGen,
        witness_budget: u64,
        cap: usize,
        max_len: usize,
    ) -> Result<Vec<DocTree>, PropagateError> {
        self.enumerate_node(
            self.fragment.root(),
            dtd,
            cost,
            gen,
            witness_budget,
            cap,
            max_len,
        )
    }

    #[allow(clippy::too_many_arguments)]
    fn enumerate_node(
        &self,
        n: NodeId,
        dtd: &Dtd,
        cost: &CostModel<'_>,
        gen: &mut NodeIdGen,
        witness_budget: u64,
        cap: usize,
        max_len: usize,
    ) -> Result<Vec<DocTree>, PropagateError> {
        let g = &self.graphs[self.slot_of(n)];
        let paths = g.enumerate_paths(cap, max_len);
        let mut out: Vec<DocTree> = Vec::new();
        'paths: for path in paths {
            // Materialise the per-edge choice sets: a singleton fragment
            // for each (i)-edge, the recursive enumeration for each
            // (ii)-edge — then emit their cross-product (bounded by
            // `cap`), so inverses differing only below a visible child
            // are all produced.
            let mut edge_options: Vec<Vec<DocTree>> = Vec::with_capacity(path.len());
            for &e in &path {
                match &g.edge(e).payload {
                    InvEdge::Ins(y) => {
                        match cost
                            .insertlets
                            .instantiate(dtd, cost.sizes, *y, gen, witness_budget)
                        {
                            Ok(frag) => edge_options.push(vec![frag]),
                            Err(_) => continue 'paths,
                        }
                    }
                    InvEdge::Rec { child, .. } => {
                        let subs = self.enumerate_node(
                            *child,
                            dtd,
                            cost,
                            gen,
                            witness_budget,
                            cap,
                            max_len,
                        )?;
                        if subs.is_empty() {
                            continue 'paths;
                        }
                        edge_options.push(subs);
                    }
                }
            }
            let mut combos: Vec<Vec<usize>> = vec![Vec::with_capacity(edge_options.len())];
            for opts in &edge_options {
                let mut next = Vec::with_capacity(combos.len().saturating_mul(opts.len()));
                'grow: for prefix in &combos {
                    for i in 0..opts.len() {
                        let mut row = prefix.clone();
                        row.push(i);
                        next.push(row);
                        if next.len() > cap {
                            break 'grow; // bounded: cap trees suffice
                        }
                    }
                }
                combos = next;
            }
            for combo in combos {
                let mut tree = Tree::leaf_with_id(n, self.fragment.label(n));
                let root = tree.root();
                for (slot, &i) in combo.iter().enumerate() {
                    let pos = tree.children(root).len();
                    tree.attach_subtree(root, pos, edge_options[slot][i].clone())?;
                }
                out.push(tree);
                if out.len() >= cap {
                    return Ok(out);
                }
            }
        }
        Ok(out)
    }

    /// Counts size-minimal inverses — the number of cheapest inversion
    /// paths, multiplied through `Rec` edges (saturating `u128`). Distinct
    /// counts correspond to distinct inverses when content models are
    /// deterministic.
    ///
    /// One post-order pass over the fragment: each node is counted after
    /// the children its `Rec` edges multiply in, with no recursion.
    pub fn count_min_inverses(&self) -> u128 {
        let mut counts: SlotMap<u128> = SlotMap::with_capacity(self.fragment.slot_bound());
        for n in self.fragment.postorder() {
            let count = match self.graphs[self.slot_of(n)].optimal_subgraph() {
                None => 0,
                Some(opt) => opt
                    .count_paths(|e| match e {
                        InvEdge::Ins(_) => 1,
                        InvEdge::Rec { child, .. } => counts[self.slot_of(*child)],
                    })
                    .expect("optimal subgraphs are acyclic (paper, Further results)"),
            };
            counts.insert(self.slot_of(n), count);
        }
        counts[self.slot_of(self.fragment.root())]
    }
}

/// Builds the inversion graph `H_n` for one node of the fragment.
/// `child_costs` is keyed by fragment slot.
fn build_graph(
    dtd: &Dtd,
    ann: &Annotation,
    fragment: &DocTree,
    n: NodeId,
    cost: &CostModel<'_>,
    child_costs: &SlotMap<u64>,
) -> InvGraph {
    let x = fragment.label(n);
    let model = dtd.content_model(x);
    let children = fragment.children(n);
    let k = children.len() as u32;
    let nq = model.num_states() as u32;

    let vid = |pos: u32, q: StateId| pos * nq + q.0;
    let vertices: Vec<InvVertex> = (0..=k)
        .flat_map(|pos| {
            (0..nq).map(move |q| InvVertex {
                pos,
                state: StateId(q),
            })
        })
        .collect();
    let mut g: InvGraph = PathGraph::new(vertices, vid(0, model.start()));

    for pos in 0..=k {
        for q in model.states() {
            // (i) invisible inserts: stay at pos
            for &(y, q2) in model.transitions_from(q) {
                if !ann.is_visible(x, y) && cost.insertable(y) {
                    g.add_edge(vid(pos, q), vid(pos, q2), cost.charge(y), InvEdge::Ins(y));
                }
            }
            // (ii) consume the next visible child
            if pos < k {
                let child = children[pos as usize];
                let y = fragment.label(child);
                if ann.is_visible(x, y) {
                    let cslot = fragment.slot(child).expect("child in fragment");
                    for &(s, q2) in model.transitions_from(q) {
                        if s == y {
                            g.add_edge(
                                vid(pos, q),
                                vid(pos + 1, q2),
                                child_costs[cslot],
                                InvEdge::Rec {
                                    index: pos + 1,
                                    child,
                                },
                            );
                        }
                    }
                }
            }
        }
    }
    for q in model.accepting_states() {
        g.set_goal(vid(k, q));
    }
    g
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixtures;
    use xvu_dtd::{min_sizes, InsertletPackage};
    use xvu_tree::{parse_term_with_ids, to_term};
    use xvu_view::extract_view;

    /// Paper Figure 6 setting: invert the fragment d#11(c#13, c#14) of
    /// Out(S0) w.r.t. D0 and A0.
    fn fig6() -> (fixtures::PaperFixture, DocTree) {
        let mut fx = fixtures::paper_running_example();
        let frag = parse_term_with_ids(&mut fx.alpha, &mut fx.gen, "d#11(c#13, c#14)").unwrap();
        (fx, frag)
    }

    #[test]
    fn fig6_graph_census() {
        let (fx, frag) = fig6();
        let sizes = min_sizes(&fx.dtd, fx.alpha.len());
        let pkg = InsertletPackage::new();
        let cm = CostModel {
            sizes: &sizes,
            insertlets: &pkg,
        };
        let forest = InversionForest::build(&fx.dtd, &fx.ann, &frag, &cm).unwrap();
        let g = forest.graph(frag.root()).unwrap();
        // D0(d) = ((a+b)·c)* has 3 Glushkov states {p0, pa/pb merged? no:
        // positions a, b, c → 4 states}; the paper's hand-drawn automaton
        // uses 2 states. Structure is automaton-representation dependent;
        // what is invariant: positions 0..=2 (c0, n13, n14) and the
        // language of inversion paths. Check the invariants.
        assert_eq!(g.n_vertices() % 3, 0, "vertices = 3 positions × |Q|");
        // Fig. 6 path: Ins(a) Rec(1) Ins(b) Rec(2) has cost 2 (two
        // invisible singleton inserts) — the minimum.
        assert_eq!(forest.cost(frag.root()), Some(2));
        assert_eq!(forest.min_inverse_size(), 3 + 2);
    }

    #[test]
    fn fig6_minimal_inverse_shape() {
        let (fx, frag) = fig6();
        let sizes = min_sizes(&fx.dtd, fx.alpha.len());
        let pkg = InsertletPackage::new();
        let cm = CostModel {
            sizes: &sizes,
            insertlets: &pkg,
        };
        let forest = InversionForest::build(&fx.dtd, &fx.ann, &frag, &cm).unwrap();
        let mut gen = fx.gen.clone();
        let inv = forest
            .materialize_min(&fx.dtd, &cm, Selector::PreferNop, &mut gen, 1_000)
            .unwrap();
        // Fig. 6 inverse: d(a, c, b, c) — with PreferNop tie-breaking on
        // symbol index, invisible letters are a (index 1) vs b (index 2),
        // so both paddings pick 'a': d(a, c, a, c).
        assert_eq!(inv.size(), 5);
        assert!(fx.dtd.is_valid(&inv));
        // The view of the inverse is the fragment again (Inv definition).
        let view = extract_view(&fx.ann, &inv);
        assert_eq!(view, frag);
        // fragment ids preserved
        assert!(inv.contains(xvu_tree::NodeId(13)));
        assert!(inv.contains(xvu_tree::NodeId(14)));
        assert_eq!(to_term(&inv, &fx.alpha), "d(a, c, a, c)");
    }

    #[test]
    fn every_enumerated_inverse_is_sound() {
        // Theorem 1 (soundness direction), bounded.
        let (fx, frag) = fig6();
        let sizes = min_sizes(&fx.dtd, fx.alpha.len());
        let pkg = InsertletPackage::new();
        let cm = CostModel {
            sizes: &sizes,
            insertlets: &pkg,
        };
        let forest = InversionForest::build(&fx.dtd, &fx.ann, &frag, &cm).unwrap();
        let mut gen = fx.gen.clone();
        let inverses = forest
            .enumerate_inverses(&fx.dtd, &cm, &mut gen, 1_000, 50, 12)
            .unwrap();
        // ((a+b)·c)* admits exactly one invisible letter before each c:
        // 2 × 2 = 4 inverses, all minimal (D0 has no pumpable letters).
        assert_eq!(inverses.len(), 4);
        for inv in &inverses {
            assert!(fx.dtd.is_valid(inv), "inverse must satisfy D");
            assert_eq!(
                extract_view(&fx.ann, inv),
                frag,
                "inverse view must equal the fragment"
            );
            assert_eq!(inv.size() as u64, forest.min_inverse_size());
        }
    }

    #[test]
    fn pumpable_letters_yield_unboundedly_many_inverses() {
        // r → (a·b*)* with b hidden: the fragment r(a) has inverses
        // r(a b^k) for every k — Inv is infinite, captured by cycles.
        use xvu_dtd::parse_dtd;
        use xvu_tree::{Alphabet, NodeIdGen};
        use xvu_view::parse_annotation;

        let mut alpha = Alphabet::new();
        let dtd = parse_dtd(&mut alpha, "r -> (a.b*)*").unwrap();
        let ann = parse_annotation(&mut alpha, "hide r b").unwrap();
        let mut gen = NodeIdGen::new();
        let frag = parse_term_with_ids(&mut alpha, &mut gen, "r#0(a#1)").unwrap();
        let sizes = min_sizes(&dtd, alpha.len());
        let pkg = InsertletPackage::new();
        let cm = CostModel {
            sizes: &sizes,
            insertlets: &pkg,
        };
        let forest = InversionForest::build(&dtd, &ann, &frag, &cm).unwrap();
        assert_eq!(forest.min_padding(), 0);
        let inverses = forest
            .enumerate_inverses(&dtd, &cm, &mut gen, 1_000, 50, 8)
            .unwrap();
        assert!(inverses.len() >= 5, "got {}", inverses.len());
        let mut sizes_seen = std::collections::HashSet::new();
        for inv in &inverses {
            assert!(dtd.is_valid(inv));
            assert_eq!(extract_view(&ann, inv), frag);
            sizes_seen.insert(inv.size());
        }
        assert!(sizes_seen.len() > 1, "pumping must produce several sizes");
    }

    #[test]
    fn count_min_inverses_fig6() {
        let (fx, frag) = fig6();
        let sizes = min_sizes(&fx.dtd, fx.alpha.len());
        let pkg = InsertletPackage::new();
        let cm = CostModel {
            sizes: &sizes,
            insertlets: &pkg,
        };
        let forest = InversionForest::build(&fx.dtd, &fx.ann, &frag, &cm).unwrap();
        // Each of the two c-children needs one invisible (a+b) sibling:
        // 2 × 2 = 4 minimal inverses.
        assert_eq!(forest.count_min_inverses(), 4);
    }

    #[test]
    fn whole_view_inverts_to_a_valid_source() {
        let fx = fixtures::paper_running_example();
        let view = extract_view(&fx.ann, &fx.t0);
        let sizes = min_sizes(&fx.dtd, fx.alpha.len());
        let pkg = InsertletPackage::new();
        let cm = CostModel {
            sizes: &sizes,
            insertlets: &pkg,
        };
        let forest = InversionForest::build(&fx.dtd, &fx.ann, &view, &cm).unwrap();
        let mut gen = fx.gen.clone();
        let inv = forest
            .materialize_min(&fx.dtd, &cm, Selector::PreferNop, &mut gen, 1_000)
            .unwrap();
        assert!(fx.dtd.is_valid(&inv));
        assert_eq!(extract_view(&fx.ann, &inv), view);
        assert_eq!(inv.size() as u64, forest.min_inverse_size());
        // View of t0 has 7 nodes; each of the two d-groups in the view
        // needs one invisible (b+c) under r... — actually r's word
        // a d a d needs b/c between each a and d: 2 invisible; and each
        // visible c under d needs one invisible (a+b) sibling: 2 more.
        assert_eq!(forest.min_padding(), 4);
        assert_eq!(inv.size(), 11);
    }

    #[test]
    fn uninvertible_fragment_is_reported() {
        // Fragment r(d, a) cannot be a view: no D0 word erases to d·a.
        let mut fx = fixtures::paper_running_example();
        let frag = parse_term_with_ids(&mut fx.alpha, &mut fx.gen, "r#90(d#91, a#92)").unwrap();
        let sizes = min_sizes(&fx.dtd, fx.alpha.len());
        let pkg = InsertletPackage::new();
        let cm = CostModel {
            sizes: &sizes,
            insertlets: &pkg,
        };
        let err = InversionForest::build(&fx.dtd, &fx.ann, &frag, &cm).unwrap_err();
        assert_eq!(err, PropagateError::InversionImpossible(NodeId(90)));
    }

    /// `materialize_min` as it was: one tree per node, each kept child
    /// materialised recursively and attached to its parent's tree.
    fn recursive_materialize(
        forest: &InversionForest,
        n: NodeId,
        dtd: &Dtd,
        cost: &CostModel<'_>,
        gen: &mut NodeIdGen,
    ) -> DocTree {
        let opt = forest.graph(n).unwrap().optimal_subgraph().unwrap();
        let path = opt
            .walk(|g, outs| Selector::PreferNop.pick(g, outs))
            .unwrap();
        let mut tree = Tree::leaf_with_id(n, forest.fragment.label(n));
        let root = tree.root();
        for e in path {
            let sub = match &opt.edge(e).payload {
                InvEdge::Ins(y) => cost
                    .insertlets
                    .instantiate(dtd, cost.sizes, *y, gen, 1_000)
                    .unwrap(),
                InvEdge::Rec { child, .. } => recursive_materialize(forest, *child, dtd, cost, gen),
            };
            let pos = tree.children(root).len();
            tree.attach_subtree(root, pos, sub).unwrap();
        }
        tree
    }

    #[test]
    fn materialization_matches_the_recursive_one_exactly() {
        // Identifiers, structure, arena order and the generator state after
        // it: padding identifiers are drawn in the same order. The chain
        // needs a hidden `h` at every level, so fresh identifiers are drawn
        // at every depth.
        use xvu_dtd::parse_dtd;
        use xvu_view::parse_annotation;
        let fx = fixtures::paper_running_example();
        let (_, fig6_frag) = fig6();
        let mut alpha = xvu_tree::Alphabet::new();
        let chain_dtd = parse_dtd(&mut alpha, "r -> a\na -> h.a?").unwrap();
        let chain_ann = parse_annotation(&mut alpha, "hide a h").unwrap();
        let mut chain_term = String::from("r");
        for _ in 0..300 {
            chain_term.push_str("(a");
        }
        chain_term.push_str(&")".repeat(300));
        let chain = parse_term_with_ids(&mut alpha, &mut NodeIdGen::new(), &chain_term).unwrap();
        let cases = [
            (&fx.dtd, &fx.ann, fig6_frag, fx.alpha.len()),
            (
                &fx.dtd,
                &fx.ann,
                extract_view(&fx.ann, &fx.t0),
                fx.alpha.len(),
            ),
            (&chain_dtd, &chain_ann, chain, alpha.len()),
        ];
        for (dtd, ann, frag, alphabet_len) in cases {
            let sizes = min_sizes(dtd, alphabet_len);
            let pkg = InsertletPackage::new();
            let cm = CostModel {
                sizes: &sizes,
                insertlets: &pkg,
            };
            let forest = InversionForest::build(dtd, ann, &frag, &cm).unwrap();
            let mut gen = NodeIdGen::starting_at(10_000);
            let mut ref_gen = gen.clone();
            let got = forest
                .materialize_min(dtd, &cm, Selector::PreferNop, &mut gen, 1_000)
                .unwrap();
            let want = recursive_materialize(&forest, frag.root(), dtd, &cm, &mut ref_gen);
            assert!(got == want);
            assert!(got.node_ids().eq(want.node_ids()), "arena order");
            assert_eq!(gen.fresh(), ref_gen.fresh());
        }
    }

    #[test]
    fn optimal_inversion_graphs_are_acyclic() {
        let (fx, frag) = fig6();
        let sizes = min_sizes(&fx.dtd, fx.alpha.len());
        let pkg = InsertletPackage::new();
        let cm = CostModel {
            sizes: &sizes,
            insertlets: &pkg,
        };
        let forest = InversionForest::build(&fx.dtd, &fx.ann, &frag, &cm).unwrap();
        for (_, g) in forest.graphs() {
            let opt = g.optimal_subgraph().unwrap();
            assert!(opt.is_acyclic());
        }
    }

    use xvu_tree::NodeId;
}
