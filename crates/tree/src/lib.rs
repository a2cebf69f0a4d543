//! Ordered, labeled trees with persistent node identifiers.
//!
//! This crate implements the tree data model of Section 2 of
//! *"The View Update Problem for XML"* (Staworko, Boneva, Groz; EDBT/ICDT
//! Workshops 2010). A tree over an alphabet `Σ` is a structure
//! `t = (Σ, N_t, ↓_t, <_t, λ_t)` where `N_t` is a finite set of **node
//! identifiers**, `↓_t` the descendant relation, `<_t` the following-sibling
//! relation, and `λ_t : N_t → Σ` the labeling.
//!
//! Two properties of this model drive the design:
//!
//! * **Node identifiers are persistent and global.** Identifiers are the
//!   bridge between a source document, its view, and the trees produced by
//!   editing scripts; equality of trees is identifier-sensitive and must not
//!   be confused with isomorphism. [`NodeId`]s are therefore explicit values
//!   allocated from a [`NodeIdGen`], never implicit array indices.
//! * **Trees are ordered and ranked-free.** Every node carries an ordered
//!   sequence of children of arbitrary length; sibling order is semantically
//!   meaningful (it is what DTD content models constrain).
//!
//! # Storage: one flat arena + stable slots + persistent identifiers
//!
//! Persistent identifiers are the *identity* of a node; they are **not**
//! its address. A tree is one flat arena: node records in one slab
//! addressed by dense [`Slot`]s, every child list in one child buffer
//! (each record names its range), and a [`SlotIndex`] resolving
//! identifiers to slots — a direct `Vec`-backed table for the (monotone,
//! near-dense) identifiers a [`NodeIdGen`] mints, with a hash fallback
//! only for pathological outliers. Algorithms that keep per-node state
//! (the propagation stack's dynamic-programming tables, a session's
//! intern ids) resolve ids to slots once and then use
//! [`SlotMap`]/[`SlotSet`] side tables: plain `Vec`/bitset indexing
//! instead of `HashMap<NodeId, _>` probes.
//!
//! No record owns an allocation, so copying a tree — [`Tree::clone`],
//! [`Tree::map_labels`], a snapshot decode — is a few bulk copies, not
//! one child list per node. Readers write each child list once, when it
//! is complete ([`PreorderBuilder`]). An append to a full list grows it in
//! place at the end of the buffer or moves it there with doubled room, and
//! the buffer compacts itself once abandoned ranges outnumber live
//! entries; no setting controls either.
//!
//! Amortized per-step cost of the core operations:
//!
//! | operation | cost |
//! |-----------|------|
//! | [`Tree::node`] / [`Tree::label`] / [`Tree::children`] / [`Tree::parent`] (by id) | O(1) |
//! | [`Tree::node_at`] / [`Tree::id_at`] / [`Tree::children_at`] (by slot) | O(1), no id resolution |
//! | [`Tree::slot`] / [`Tree::contains`] | O(1) |
//! | [`Tree::add_child`] / [`Tree::add_child_with_id`] | O(1) amortized |
//! | [`Tree::preorder`] / [`Tree::postorder`] (per step) | O(1) amortized |
//! | [`Tree::attach_subtree`] | O(&#124;sub&#124; + arity) |
//! | [`Tree::detach_subtree`] | O(&#124;sub&#124; + arity) |
//! | [`Tree::clone`] / [`Tree::map_labels`] | O(&#124;t&#124;), a few bulk copies |
//! | [`SlotMap`]/[`SlotSet`] access | O(1) |
//!
//! A live node's slot never moves: removing a subtree leaves its slots
//! vacant, and insertions reuse them — see [`slot`] for the exact
//! contract. A tree keeps no record of its edits: a consumer holding
//! per-subtree state learns what changed from the edit itself (a
//! propagation session reads the committed script's footprint).
//!
//! The tree type is generic in its label type: documents are
//! `Tree<Sym>` (see [`Sym`], interned via [`Alphabet`]) while editing
//! scripts in the `xvu_edit` crate reuse the same structure over an edit
//! alphabet.
//!
//! # Paper cross-reference
//!
//! | paper (§2, Preliminaries) | here |
//! |---------------------------|------|
//! | alphabet `Σ` | [`Alphabet`], [`Sym`] |
//! | node identifiers `N_t` | [`NodeId`], allocated by [`NodeIdGen`] |
//! | trees `(Σ, N_t, ↓_t, <_t, λ_t)` | [`Tree`]; documents are [`DocTree`] = `Tree<Sym>` |
//! | term notation `r(a, b(c))` | [`parse_term`] / [`to_term`] (`#id`-annotated: [`parse_term_with_ids`] / [`to_term_with_ids`]); one reader and writer for every head syntax: [`read_term`] / [`write_term`] |
//! | identifier-sensitive equality vs isomorphism | `Tree == Tree` vs [`Tree::isomorphic`] |
//!
//! # Example
//!
//! ```
//! use xvu_tree::{Alphabet, NodeIdGen, parse_term};
//!
//! let mut alpha = Alphabet::new();
//! let mut gen = NodeIdGen::new();
//! let t = parse_term(&mut alpha, &mut gen, "r(a, b(c), a)").unwrap();
//! assert_eq!(t.size(), 5);
//! let r = alpha.get("r").unwrap();
//! assert_eq!(t.label(t.root()), r);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod alphabet;
mod build;
mod error;
mod intern;
mod iter;
mod node;
pub mod slot;
pub mod snapshot;
mod term;
mod tree;

pub use alphabet::{Alphabet, Sym};
pub use build::PreorderBuilder;
pub use error::TreeError;
pub use intern::{InternId, Interner};
pub use iter::{Postorder, Preorder};
pub use node::{Node, NodeId, NodeIdGen};
pub use slot::{Slot, SlotIndex, SlotMap, SlotSet};
pub use snapshot::{CorpusBuilder, CorpusEntry, SnapshotError, SnapshotFile};
pub use term::{
    parse_term, parse_term_with_ids, read_term, to_term, to_term_with_ids, write_term, TermCursor,
};
pub use tree::{DocTree, Tree};
