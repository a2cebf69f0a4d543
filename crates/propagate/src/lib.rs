//! **The view update problem for XML** — the paper's core contribution.
//!
//! Given a DTD `D`, an annotation-defined view `A`, a source document
//! `t ∈ L(D)`, and a user update `S` of the view `A(t)`, this crate
//! constructs propagations `S'` of `S` to the source that are
//!
//! * **schema compliant** — `Out(S') ∈ L(D)`, and
//! * **side-effect free** — `A(Out(S')) = Out(S)`,
//!
//! using the paper's graph machinery:
//!
//! | paper | here |
//! |-------|------|
//! | inversion graphs `H(D,A,t')`, Theorems 1–2 | [`InversionForest`] |
//! | propagation graphs `G(D,A,t,S)`, Theorems 3–4 | [`PropagationForest`] |
//! | optimal subgraphs `H*`, `G*` | [`pathgraph::PathGraph::optimal_subgraph`] |
//! | existence (Theorem 5) | exercised by the randomized test-suite |
//! | the polynomial algorithm with `Φ` and insertlets (Theorem 6) | [`propagate`] + [`Selector`] |
//!
//! # Quickstart
//!
//! Compile the schema and view once into an [`Engine`], open the document
//! in a [`Session`], and serve updates:
//!
//! ```
//! use xvu_dtd::parse_dtd;
//! use xvu_edit::parse_script;
//! use xvu_propagate::Engine;
//! use xvu_tree::{parse_term_with_ids, Alphabet, NodeIdGen};
//! use xvu_view::parse_annotation;
//!
//! let mut alpha = Alphabet::new();
//! let mut gen = NodeIdGen::new();
//! let dtd = parse_dtd(&mut alpha, "r -> (a.(b+c).d)*\nd -> ((a+b).c)*").unwrap();
//! let ann = parse_annotation(&mut alpha, "hide r b\nhide r c\nhide d a\nhide d b").unwrap();
//! let t0 = parse_term_with_ids(
//!     &mut alpha, &mut gen,
//!     "r#0(a#1, b#2, d#3(a#7, c#8), a#4, c#5, d#6(b#9, c#10))",
//! ).unwrap();
//! // The user deletes the first (a, d) group and inserts a new one.
//! let s0 = parse_script(
//!     &mut alpha,
//!     "nop:r#0(del:a#1, del:d#3(del:c#8), nop:a#4, \
//!      ins:d#11(ins:c#13, ins:c#14), ins:a#12, nop:d#6(nop:c#10, ins:c#15))",
//! ).unwrap();
//!
//! let engine = Engine::builder()
//!     .alphabet(alpha)
//!     .dtd(dtd)
//!     .annotation(ann)
//!     .build()
//!     .unwrap();
//! let mut session = engine.open(&t0).unwrap();
//! let prop = session.propagate(&s0).unwrap();
//! assert_eq!(prop.cost, 14); // the paper's Figure 7 optimum
//! session.verify(&s0, &prop.script).unwrap();
//! session.commit(&prop).unwrap(); // serve the next update from Out(S')
//! ```
//!
//! Sessions are *incremental*: a session's propagation forest covers
//! only the update's dirty skeleton ([`PropagationForest`]), and every
//! clean child it stops at brings its optimal-propagation count from the
//! session's own table keyed by subtree structure, which also holds typing
//! runs. [`Session::commit`] re-interns exactly the dirty region and
//! sweeps the shapes the document no longer names, and the table dies
//! with the session — see the [`cache`] module and `README.md`'s
//! "Architecture: the propagation memo".
//!
//! The one-shot layer ([`Instance::new`] + [`propagate`] +
//! [`verify_propagation`]) remains for single-update callers and is
//! implemented over the same core code paths.
//!
//! For serving many independent requests, the engine is `Send + Sync`
//! and shares across OS threads behind one `Arc`: see the [`serve`]
//! module ([`Engine::propagate_batch`]). Repeated updates to one document
//! go through its [`Session`], one worker at a time; the serving daemon
//! (`xvu_server`) leases each document's session from one table.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod algorithm;
pub mod cache;
mod complement;
mod cost;
mod count;
mod engine;
mod enumerate;
mod error;
#[cfg(test)]
mod fixtures;
mod forest;
mod graph;
mod incremental;
mod instance;
mod inversion;
pub mod pathgraph;
mod scratch;
mod segments;
mod selection;
pub mod serve;
mod typing;
mod verify;

pub use algorithm::{propagate, propagate_view_edit, Config, PhaseBreakdown, Propagation};
pub use cache::CacheStats;
pub use complement::{find_complement_preserving, invisible_impact, InvisibleImpact};
pub use cost::CostModel;
pub use count::count_optimal_propagations;
pub use engine::{Engine, EngineBuilder, Parked, Session};
pub use enumerate::{enumerate_optimal_propagations, enumerate_propagations_bounded};
pub use error::PropagateError;
pub use forest::PropagationForest;
pub use graph::{build_prop_graph, source_child_run, PropEdge, PropGraph, PropVertex};
pub use incremental::{
    cross_view_effect, cross_view_touched, revalidate_output, revalidation_workload,
};
pub use instance::Instance;
pub use inversion::{InvEdge, InvGraph, InvVertex, InversionForest};
pub use pathgraph::GraphScratch;
pub use scratch::PropScratch;
pub use segments::Segmentation;
pub use selection::{Classify, EdgeClass, Selector};
pub use typing::{typing_report, TypingReport};
pub use verify::verify_propagation;
