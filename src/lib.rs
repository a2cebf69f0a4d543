//! # xml-view-update
//!
//! A complete Rust implementation of
//!
//! > Sławek Staworko, Iovka Boneva, Benoît Groz.
//! > **The View Update Problem for XML.**
//! > EDBT/ICDT Workshops 2010.
//!
//! Given an XML document `t` satisfying a DTD `D`, a view defined by an
//! annotation `A` (hiding selected parts of the document), and a user
//! update `S` of the view (inserting/deleting whole subtrees), the library
//! computes update *propagations* `S'` to the source document that are
//! **schema compliant** (`Out(S') ∈ L(D)`) and **side-effect free**
//! (`A(Out(S')) = Out(S)`), preferring the ones that minimally modify the
//! invisible parts of the document.
//!
//! This facade crate re-exports the workspace crates under stable module
//! names:
//!
//! | module | contents |
//! |--------|----------|
//! | [`tree`] | ordered labeled trees with persistent node identifiers |
//! | [`automata`] | regexes, Glushkov NFAs, DFAs, min-cost words |
//! | [`dtd`] | DTDs, validation, minimal trees, insertlets |
//! | [`view`] | annotations, visibility, view extraction, view DTDs |
//! | [`edit`] | editing scripts over `E(Σ)` and the update builder |
//! | [`propagate`] | inversion/propagation graphs, the algorithm (the paper's contribution) |
//! | [`repair`] | Zhang–Shasha TED and the §6.2 repair baseline |
//! | [`workload`] | paper fixtures and deterministic generators |
//! | [`server`] | the long-lived serving daemon, wire protocol, and fleet driver |
//! | [`xml`] | element-only XML + `<!ELEMENT>` DTD interchange |
//! | [`error`] | [`XvuError`], the facade-wide error type |
//!
//! ## Quickstart
//!
//! The schema and view are fixed once, as an [`Engine`]; each document is
//! opened in a [`Session`] that serves any number of updates:
//!
//! ```
//! use xml_view_update::prelude::*;
//!
//! # fn main() -> Result<(), XvuError> {
//! // Schema and security view.
//! let mut alpha = Alphabet::new();
//! let mut gen = NodeIdGen::new();
//! let dtd = parse_dtd(&mut alpha, "r -> (a.(b+c).d)*\nd -> ((a+b).c)*")?;
//! let ann = parse_annotation(&mut alpha, "hide r b\nhide r c\nhide d a\nhide d b")?;
//!
//! // Source document…
//! let t = parse_term_with_ids(
//!     &mut alpha, &mut gen,
//!     "r#0(a#1, b#2, d#3(a#7, c#8), a#4, c#5, d#6(b#9, c#10))",
//! )?;
//!
//! // …compiled engine (derived view DTD, min-size tables, cost model)…
//! let engine = Engine::builder()
//!     .alphabet(alpha)
//!     .dtd(dtd)
//!     .annotation(ann)
//!     .build()?;
//!
//! // …and an open session: validated once, view materialised once.
//! let mut session = engine.open(&t)?;
//!
//! // The user edits the view: delete the first (a, d) group…
//! let mut builder = UpdateBuilder::new(session.view());
//! builder.delete(NodeId(1))?;
//! builder.delete(NodeId(3))?;
//! let update = builder.finish();
//!
//! // …the engine propagates it to the source, and the commit advances
//! // the session (incremental revalidation) to serve the next update.
//! let prop = session.propagate(&update)?;
//! session.verify(&update, &prop.script)?;
//! session.commit(&prop)?;
//!
//! // Hidden nodes inside the deleted group went with it; hidden nodes
//! // elsewhere are untouched, and the new view is what the user asked.
//! assert!(engine.dtd().is_valid(session.document()));
//! assert_eq!(session.view(), &output_tree(&update).unwrap());
//! # Ok(())
//! # }
//! ```
//!
//! One-shot callers can still use the compatibility layer
//! ([`prelude::Instance`] + [`prelude::propagate`] +
//! [`prelude::verify_propagation`]); it shares the engine's core code
//! paths but re-derives the schema artefacts on every call.
//!
//! ## Concurrent serving
//!
//! The compiled engine is immutable and `Send + Sync`: share one
//! `Arc<Engine>` across OS worker threads and serve independent requests
//! with [`Engine::propagate_batch`] — see [`propagate::serve`] for the
//! sharing contract and examples. For repeated updates to many documents,
//! run the daemon ([`server::Server`]): it keeps each document's session
//! in one table and leases it to one request at a time.
//!
//! ```
//! use std::sync::Arc;
//! use xml_view_update::prelude::*;
//!
//! # fn main() -> Result<(), XvuError> {
//! let mut alpha = Alphabet::new();
//! let mut gen = NodeIdGen::new();
//! let dtd = parse_dtd(&mut alpha, "r -> (a.(b+c).d)*\nd -> ((a+b).c)*")?;
//! let ann = parse_annotation(&mut alpha, "hide r b\nhide r c\nhide d a\nhide d b")?;
//! let t = parse_term_with_ids(
//!     &mut alpha, &mut gen,
//!     "r#0(a#1, b#2, d#3(a#7, c#8), a#4, c#5, d#6(b#9, c#10))",
//! )?;
//! let s = parse_script(
//!     &mut alpha,
//!     "nop:r#0(del:a#1, del:d#3(del:c#8), nop:a#4, \
//!      ins:d#11(ins:c#13, ins:c#14), ins:a#12, nop:d#6(nop:c#10, ins:c#15))",
//! )?;
//!
//! let engine = Arc::new(
//!     Engine::builder().alphabet(alpha).dtd(dtd).annotation(ann).build()?,
//! );
//! // Independent (document, update) requests, four worker threads,
//! // results in request order:
//! let requests: Vec<_> = (0..8).map(|_| (t.clone(), s.clone())).collect();
//! for result in engine.propagate_batch(&requests, 4) {
//!     assert_eq!(result?.cost, 14);
//! }
//! # Ok(())
//! # }
//! ```
//!
//! ## The serving daemon
//!
//! For fleets of documents behind a network boundary, the [`server`]
//! crate wraps the engine in a long-lived daemon: a versioned frame
//! protocol over TCP or stdio, a document store, a bounded LRU session
//! pool with transparent eviction, admission control with `retry`
//! pushback, and latency/cache observability via a `stats` verb — run it
//! with `xvu serve`, speak to it with `xvu client` or
//! [`server::Client`], and regression-test it against direct library
//! sessions with [`server::run_fleet`].

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cli;
pub mod error;

pub use xvu_automata as automata;
pub use xvu_dtd as dtd;
pub use xvu_edit as edit;
pub use xvu_propagate as propagate;
pub use xvu_repair as repair;
pub use xvu_server as server;
pub use xvu_tree as tree;
pub use xvu_view as view;
pub use xvu_workload as workload;
pub use xvu_xml as xml;

pub use error::XvuError;
pub use xvu_propagate::{Engine, EngineBuilder, Parked, Session};

/// The commonly used names in one import.
pub mod prelude {
    pub use crate::error::XvuError;
    pub use xvu_dtd::Violation;
    pub use xvu_dtd::{
        exponential_dtd, min_sizes, minimal_witness, parse_dtd, Dtd, InsertletPackage, MinSizes,
    };
    pub use xvu_edit::{
        apply, apply_in_place, cost, del_script, input_tree, ins_script, nop_script, output_tree,
        parse_script, script_footprint, script_to_term, validate_script, ELabel, EditOp, Script,
        ScriptFootprint, UpdateBuilder,
    };
    pub use xvu_edit::{compose, diff};
    pub use xvu_propagate::{
        count_optimal_propagations, cross_view_effect, cross_view_touched,
        enumerate_optimal_propagations, find_complement_preserving, invisible_impact, propagate,
        propagate_view_edit, revalidate_output, typing_report, verify_propagation, CacheStats,
        Config, CostModel, Engine, EngineBuilder, GraphScratch, Instance, InversionForest,
        InvisibleImpact, Parked, PhaseBreakdown, PropScratch, PropagateError, Propagation,
        PropagationForest, Selector, Session, TypingReport,
    };
    pub use xvu_repair::{repair_based_update, tree_edit_distance, RepairConfig};
    pub use xvu_tree::{
        parse_term, parse_term_with_ids, to_term, to_term_with_ids, Alphabet, DocTree, InternId,
        Interner, NodeId, NodeIdGen, Sym, Tree,
    };
    pub use xvu_view::{
        derive_view_dtd, extract_view, parse_annotation, visible_nodes, Annotation,
    };
    pub use xvu_xml::{read_dtd, read_xml, write_xml, WriteOptions};
}
