//! The collection `G(D, A, t, S)` of propagation graphs.
//!
//! Graphs are built bottom-up over `N_Δ` (post-order over the `Nop`
//! skeleton of the update) so that every (vi)-edge weight — the cheapest
//! propagation cost of the child — and every (iv)-edge weight — the
//! minimal inverse size of an inserted fragment — is already memoised when
//! a parent graph is constructed. This single-pass memoisation is what
//! makes the whole construction polynomial.

use crate::cache::{Memo, TypingRun};
use crate::cost::CostModel;
use crate::error::PropagateError;
use crate::graph::{build_prop_graph, source_child_run, PropEdge, PropGraph};
use crate::instance::Instance;
use crate::inversion::InversionForest;
use crate::scratch::PropScratch;
use std::sync::Arc;
use xvu_edit::{output_tree, EditOp, ScriptFootprint};
use xvu_tree::{NodeId, SlotIndex, SlotMap};

/// All propagation graphs of an instance, plus the auxiliary inversion
/// forests for inserted fragments.
///
/// All per-node tables are dense [`SlotMap`]s keyed by the *update*
/// tree's arena slots; a snapshot of the update's [`SlotIndex`] keeps the
/// public identifier-based accessors O(1) after the instance is gone.
/// Graphs are held behind [`Arc`] so the engine memo shares them with the
/// forests it populated at zero copy cost.
#[derive(Clone, Debug)]
pub struct PropagationForest {
    /// Update-tree `NodeId → Slot` snapshot backing the accessors.
    index: SlotIndex,
    /// Update-tree `Slot → NodeId` snapshot backing the iterators.
    ids: Vec<NodeId>,
    /// `G_n` per preserved node `n ∈ N_Δ`.
    graphs: SlotMap<Arc<PropGraph>>,
    /// Cheapest propagation-path cost per preserved node.
    costs: SlotMap<u64>,
    /// Inversion forest per top-level inserted script child (the (iv)-edge
    /// machinery of §3).
    inversions: SlotMap<InversionForest>,
    /// One flat arena holding every recorded child word back to back —
    /// the per-node tables below store `(offset, len)` ranges into it, so
    /// snapshotting a node's child words costs zero allocations instead of
    /// two boxed slices per preserved node.
    kids: Vec<NodeId>,
    /// Per preserved node: its source child word at build time, as a range
    /// into [`PropagationForest::kids`]. Graph edges name children
    /// positionally ([`crate::PropEdge`]); these snapshots resolve `tpos`
    /// back to identifiers after the instance is gone (the counting walk
    /// has no instance in scope).
    t_kids: SlotMap<(u32, u32)>,
    /// Per preserved node: its script child word at build time (`spos`
    /// resolution, same story).
    s_kids: SlotMap<(u32, u32)>,
    /// The root of the update (always preserved).
    pub root: NodeId,
}

impl PropagationForest {
    /// Builds all graphs for a validated instance.
    pub fn build(
        inst: &Instance<'_>,
        cost: &CostModel<'_>,
    ) -> Result<PropagationForest, PropagateError> {
        Self::build_with(inst, cost, None, None, &mut PropScratch::new(), None)
    }

    /// Memo-aware build: like [`PropagationForest::build`], but for every
    /// preserved node that `fp` marks clean (subtree entirely `Nop`), the
    /// graph is taken from — or, on a miss, built once and stored into —
    /// the engine memo under the node's structure. Nodes inside the
    /// footprint are always rebuilt (their graphs depend on the update);
    /// their typing runs, which depend only on the source, still go
    /// through the memo.
    ///
    /// The produced forest is structurally identical to an unmemoised
    /// [`PropagationForest::build`] of the same instance: a hit returns
    /// exactly the graph a fresh build would construct, because
    /// construction is deterministic in the node's source subtree
    /// structure.
    pub(crate) fn build_with(
        inst: &Instance<'_>,
        cost: &CostModel<'_>,
        mut memo: Option<&mut Memo<'_>>,
        fp: Option<&ScriptFootprint>,
        scratch: &mut PropScratch,
        mut typing_ns: Option<&mut u64>,
    ) -> Result<PropagationForest, PropagateError> {
        let update = inst.update;
        let mut graphs: SlotMap<Arc<PropGraph>> = SlotMap::with_capacity(update.size());
        let mut costs: SlotMap<u64> = SlotMap::with_capacity(update.size());
        let mut inversions = SlotMap::with_capacity(update.size());
        let mut kids: Vec<NodeId> = Vec::new();
        let mut t_kids: SlotMap<(u32, u32)> = SlotMap::with_capacity(update.size());
        let mut s_kids: SlotMap<(u32, u32)> = SlotMap::with_capacity(update.size());
        // Accumulated across nodes: every inserting child has exactly one
        // parent, so entries never collide and one table serves all
        // `build_prop_graph` calls.
        let mut inverse_sizes: SlotMap<u64> = SlotMap::with_capacity(update.size());

        // `N_Δ` in post-order (children before parents), so every
        // (vi)-edge weight is memoised before its parent's graph.
        for n in update.postorder() {
            if update.label(n).op != EditOp::Nop {
                continue;
            }
            let nslot = update.slot(n).expect("preserved node in update");
            // Inversion forests for the inserting children of n. Clean
            // nodes have none — inserted fragments only exist inside the
            // footprint, so this work is naturally skipped outside it.
            for &c in update.children(n) {
                if update.label(c).op == EditOp::Ins {
                    let fragment =
                        output_tree(&update.subtree(c)).expect("an Ins subtree has a full output");
                    let forest =
                        InversionForest::build_with(inst.dtd, inst.ann, &fragment, cost, scratch)
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
                    let cslot = update.slot(c).expect("script child in update");
                    inverse_sizes.insert(cslot, forest.min_inverse_size());
                    inversions.insert(cslot, forest);
                }
            }

            // A preserved node is a visible source node, so it has a slot
            // (and an intern id) in the session document.
            let src_slot = inst.source.slot(n).expect("preserved node in source");
            let clean = fp.is_some_and(|f| f.is_clean(nslot));
            let cached = if clean {
                memo.as_deref_mut().and_then(|m| m.graph(src_slot))
            } else {
                None
            };
            let (g, best) = match cached {
                Some((g, best)) => (g, best),
                None => {
                    let t0 = typing_ns.is_some().then(std::time::Instant::now);
                    let run: TypingRun = match memo.as_deref() {
                        Some(m) => m.run_or_compute(src_slot, || source_child_run(inst, n)),
                        None => source_child_run(inst, n).map(Arc::from),
                    };
                    if let (Some(acc), Some(t0)) = (typing_ns.as_deref_mut(), t0) {
                        *acc += t0.elapsed().as_nanos() as u64;
                    }
                    let g = build_prop_graph(
                        inst,
                        n,
                        cost,
                        &costs,
                        &inverse_sizes,
                        run.as_deref(),
                        scratch,
                    )?;
                    let best = g
                        .best_cost_with(&mut scratch.graph)
                        .ok_or(PropagateError::NoPropagationPath(n))?;
                    let g = Arc::new(g);
                    if clean {
                        if let Some(m) = memo.as_deref() {
                            m.store_graph(src_slot, Arc::clone(&g), best);
                        }
                    }
                    (g, best)
                }
            };
            costs.insert(nslot, best);
            graphs.insert(nslot, g);
            let t_range = push_kids(&mut kids, inst.source.children(n));
            t_kids.insert(nslot, t_range);
            let s_range = push_kids(&mut kids, update.children(n));
            s_kids.insert(nslot, s_range);
        }

        Ok(PropagationForest {
            index: update.slot_index().clone(),
            ids: update.slots().map(|s| update.id_at(s)).collect(),
            graphs,
            costs,
            inversions,
            kids,
            t_kids,
            s_kids,
            root: update.root(),
        })
    }

    /// The propagation graph `G_n` of preserved node `n`, if `n ∈ N_Δ`.
    pub fn graph(&self, n: NodeId) -> Option<&PropGraph> {
        self.index
            .slot(n)
            .and_then(|s| self.graphs.get(s))
            .map(Arc::as_ref)
    }

    /// The cheapest propagation-path cost of preserved node `n`.
    pub fn cost(&self, n: NodeId) -> Option<u64> {
        self.index.slot(n).and_then(|s| self.costs.get(s)).copied()
    }

    /// The inversion forest of inserting script child `n`.
    pub fn inversion(&self, n: NodeId) -> Option<&InversionForest> {
        self.index.slot(n).and_then(|s| self.inversions.get(s))
    }

    /// The source child word of preserved node `n` at build time (`tpos`
    /// resolution for [`crate::PropEdge`]).
    pub fn source_children(&self, n: NodeId) -> Option<&[NodeId]> {
        self.index
            .slot(n)
            .and_then(|s| self.t_kids.get(s))
            .map(|&(off, len)| &self.kids[off as usize..off as usize + len as usize])
    }

    /// The script child word of preserved node `n` at build time (`spos`
    /// resolution for [`crate::PropEdge`]).
    pub fn script_children(&self, n: NodeId) -> Option<&[NodeId]> {
        self.index
            .slot(n)
            .and_then(|s| self.s_kids.get(s))
            .map(|&(off, len)| &self.kids[off as usize..off as usize + len as usize])
    }

    /// Resolves the child a positional edge of `G_n` consumes back to its
    /// identifier (`None` for (i)-edges, which consume no child, and for
    /// positions outside `n`'s recorded child words).
    pub fn resolve_child(&self, n: NodeId, edge: &PropEdge) -> Option<NodeId> {
        match *edge {
            PropEdge::InsInvisible(_) => None,
            PropEdge::DelInvisible { tpos }
            | PropEdge::NopInvisible { tpos, .. }
            | PropEdge::DelVisible { tpos }
            | PropEdge::NopVisible { tpos, .. } => {
                self.source_children(n)?.get(tpos as usize).copied()
            }
            PropEdge::InsVisible { spos } => self.script_children(n)?.get(spos as usize).copied(),
        }
    }

    /// Iterates over `(n, G_n)` for every preserved node, in update-arena
    /// order.
    pub fn graphs(&self) -> impl Iterator<Item = (NodeId, &PropGraph)> {
        self.graphs
            .iter()
            .map(|(s, g)| (self.ids[s.index()], g.as_ref()))
    }

    /// Iterates over the inversion forests of all inserting script
    /// children, in update-arena order.
    pub fn inversions(&self) -> impl Iterator<Item = (NodeId, &InversionForest)> {
        self.inversions
            .iter()
            .map(|(s, f)| (self.ids[s.index()], f))
    }

    /// Number of preserved nodes (`|N_Δ|` — one graph each).
    pub fn preserved_len(&self) -> usize {
        self.graphs.len()
    }

    /// Number of inserting script children with an inversion forest.
    pub fn inversion_len(&self) -> usize {
        self.inversions.len()
    }

    /// Replaces (or adds) the graph of `n`. Test support: lets corruption
    /// scenarios (goal-less graphs, dangling children) be injected.
    #[cfg(test)]
    pub(crate) fn insert_graph(&mut self, n: NodeId, g: PropGraph) {
        let s = self.index.slot(n).expect("node in update tree");
        self.graphs.insert(s, Arc::new(g));
    }

    /// Removes the graph of `n`. Test support, like
    /// [`PropagationForest::insert_graph`].
    #[cfg(test)]
    pub(crate) fn remove_graph(&mut self, n: NodeId) -> Option<Arc<PropGraph>> {
        self.graphs.remove(self.index.slot(n)?)
    }

    /// The cost of the cheapest schema-compliant side-effect-free
    /// propagation (Theorem 4's optimum).
    pub fn optimal_cost(&self) -> u64 {
        self.cost(self.root).expect("root is always preserved")
    }

    /// Total vertex/edge census across all graphs (diagnostics and the
    /// polynomial-size claims of the paper).
    pub fn census(&self) -> (usize, usize) {
        let v = self.graphs.values().map(|g| g.n_vertices()).sum();
        let e = self.graphs.values().map(|g| g.n_edges()).sum();
        (v, e)
    }
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
