//! Annotation-defined XML views (paper §2).
//!
//! A view is obtained by *hiding* selected parts of a source document: an
//! [`Annotation`] `A : Σ × Σ → {0,1}` decides, per (parent label, child
//! label) pair, whether a child of a visible parent is visible. The root is
//! always visible and visibility is upward closed, so hiding a node hides
//! its whole subtree. This view class performs no restructuring; its
//! flagship application is secure access to XML documents (security views).
//!
//! Provided operations:
//!
//! * [`visible_nodes`] / [`extract_view`] — compute `⟦A⟧_t` and `A(t)`,
//!   preserving node identifiers (the identifiers are what ties views back
//!   to their sources during update propagation);
//!   [`extract_subtree_view`] is the same walk from any subtree root;
//! * [`derive_view_dtd`] — a DTD for the view language `A(L(D))`, used to
//!   check that user updates produce legal views;
//! * [`parse_annotation`] — a small textual syntax for annotations.
//!
//! # Paper cross-reference
//!
//! | paper | here |
//! |-------|------|
//! | annotations `A : Σ × Σ → {0,1}` (§2, Fig. 3) | [`Annotation`], [`parse_annotation`] |
//! | visible nodes `⟦A⟧_t` | [`visible_nodes`] |
//! | the view `A(t)` (identifier-preserving) | [`extract_view`] |
//! | a DTD for the view language `A(L(D))` (§3) | [`derive_view_dtd`] |
//! | security-view motivation (§1) | exercised in `examples/security_view.rs` |

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod annotation;
mod view;
mod viewdtd;

pub use annotation::{parse_annotation, Annotation, AnnotationParseError};
pub use view::{extract_subtree_view, extract_view, hidden_count, visible_nodes};
pub use viewdtd::derive_view_dtd;
