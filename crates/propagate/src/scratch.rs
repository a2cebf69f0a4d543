//! Reusable propagation scratch arenas.
//!
//! The propagation kernel — graph construction ([`crate::build_prop_graph`]),
//! the Dijkstra family on [`crate::pathgraph::PathGraph`], and the segment
//! decomposition ([`crate::Segmentation`]) — used to heap-allocate its
//! working state afresh on every query. A [`PropScratch`] pools all of it:
//! buffers are cleared, never freed, between uses, so a warm kernel runs
//! without transient allocation (pinned by the `alloc_budget` regression
//! test in `crates/bench/tests`).
//!
//! # Ownership and threading rules
//!
//! * One `PropScratch` per [`crate::Session`] (behind the mutex it shares
//!   with the session's memo), reused across all propagations of the
//!   session and across all nodes within one propagation.
//! * One per worker thread in [`crate::Engine::propagate_batch`] — scratch
//!   is never shared between threads; it is `Send` but deliberately not
//!   pooled globally.
//! * One-shot entry points ([`crate::propagate`]) create a private scratch
//!   per call, which still amortises across every node of that propagation.
//!
//! Scratch is pure working memory: no query result may alias it, so reuse
//! across documents cannot leak state between propagations (a dedicated
//! cross-document test pins this).

use crate::pathgraph::GraphScratch;
use crate::segments::SegBufs;

/// Pooled working memory for the propagation kernel. See the module docs
/// for ownership and threading rules.
#[derive(Debug, Default)]
pub struct PropScratch {
    /// Dijkstra / shortest-path state shared by every graph query.
    pub(crate) graph: GraphScratch,
    /// Segment-decomposition buffers ([`crate::Segmentation`]).
    pub(crate) seg: SegBufs,
    /// Aligned `(i, j)` vertex-block pairs of the node under construction.
    pub(crate) pairs: Vec<(u32, u32)>,
    /// Per-row vertex-interning tables of `build_prop_graph`.
    pub(crate) row_base: Vec<u32>,
    pub(crate) row_j0: Vec<u32>,
    pub(crate) row_seen: Vec<bool>,
    /// The (vi)-weights (by source position) and (iv)-weights (by script
    /// position) of the graph under construction.
    pub(crate) child_costs: Vec<u64>,
    pub(crate) inverse_sizes: Vec<u64>,
}

impl PropScratch {
    /// An empty scratch; buffers grow on first use and are then reused.
    pub fn new() -> PropScratch {
        PropScratch::default()
    }

    /// Split into the graph-query scratch and the construction buffers
    /// (callers often need both at once on disjoint borrows).
    pub(crate) fn graph_mut(&mut self) -> &mut GraphScratch {
        &mut self.graph
    }
}
