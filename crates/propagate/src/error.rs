//! Errors for the propagation pipeline.

use std::fmt;
use xvu_dtd::DtdError;
use xvu_edit::EditError;
use xvu_tree::{NodeId, TreeError};

/// Errors raised while validating instances or propagating updates.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum PropagateError {
    /// The problem instance is ill-formed (details in the message).
    InvalidInstance(String),
    /// The source document violates the DTD.
    SourceNotValid(DtdError),
    /// The update's output is not a legal view (`Out(S) ∉ A(L(D))`).
    OutputNotAView(String),
    /// A view fragment admits no inverse: no source completion exists for
    /// the node's children under the DTD and annotation.
    InversionImpossible(NodeId),
    /// No propagation path exists in the graph of this node (cannot happen
    /// for valid instances, by Theorem 5; reported for corrupted inputs).
    NoPropagationPath(NodeId),
    /// The update inserts a node whose label is invisible under its parent
    /// — its subtree could never appear in a view.
    InsertedInvisibleLabel {
        /// The inserted script node.
        node: NodeId,
    },
    /// Materialising an invisible fragment failed (unsatisfiable label or
    /// witness budget exhausted).
    Materialisation(DtdError),
    /// The candidate script failed verification as a propagation.
    NotAPropagation(String),
    /// The propagation must insert more fresh nodes than the session's
    /// identifier generator has identifiers left (a document may use
    /// identifiers up to [`NodeId::MAX`]).
    IdentifiersExhausted {
        /// Fresh identifiers the next inserted fragment needs.
        needed: u64,
        /// Identifiers the generator can still hand out.
        available: u64,
    },
    /// Underlying editing-script error.
    Edit(EditError),
    /// Underlying tree error.
    Tree(TreeError),
}

impl fmt::Display for PropagateError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PropagateError::InvalidInstance(m) => write!(f, "invalid instance: {m}"),
            PropagateError::SourceNotValid(e) => write!(f, "source document invalid: {e}"),
            PropagateError::OutputNotAView(m) => {
                write!(f, "update output is not a legal view: {m}")
            }
            PropagateError::InversionImpossible(n) => {
                write!(f, "no inverse exists for view fragment rooted at {n}")
            }
            PropagateError::NoPropagationPath(n) => {
                write!(f, "no propagation path in the graph of node {n}")
            }
            PropagateError::InsertedInvisibleLabel { node } => write!(
                f,
                "update inserts node {node} with a label invisible under its parent"
            ),
            PropagateError::Materialisation(e) => {
                write!(f, "cannot materialise invisible fragment: {e}")
            }
            PropagateError::NotAPropagation(m) => write!(f, "not a valid propagation: {m}"),
            PropagateError::IdentifiersExhausted { needed, available } => write!(
                f,
                "node identifier space exhausted: {needed} fresh identifiers needed, \
                 {available} left"
            ),
            PropagateError::Edit(e) => write!(f, "editing-script error: {e}"),
            PropagateError::Tree(e) => write!(f, "tree error: {e}"),
        }
    }
}

impl std::error::Error for PropagateError {}

impl From<EditError> for PropagateError {
    fn from(e: EditError) -> Self {
        PropagateError::Edit(e)
    }
}

impl From<TreeError> for PropagateError {
    fn from(e: TreeError) -> Self {
        PropagateError::Tree(e)
    }
}

impl From<DtdError> for PropagateError {
    fn from(e: DtdError) -> Self {
        PropagateError::Materialisation(e)
    }
}
