//! Error type for tree construction and manipulation.

use crate::node::NodeId;
use std::fmt;

/// Errors raised by tree operations.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum TreeError {
    /// An operation referred to a node identifier not present in the tree.
    UnknownNode(NodeId),
    /// Attaching a subtree whose identifiers intersect the host tree's.
    DuplicateNodeId(NodeId),
    /// The root of a tree cannot be detached (trees are non-empty).
    CannotDetachRoot,
    /// A child index was out of bounds for a node.
    PositionOutOfBounds {
        /// The node whose children were indexed.
        node: NodeId,
        /// The offending position.
        position: usize,
        /// The node's arity.
        arity: usize,
    },
    /// A new child order for the node is not a permutation of its
    /// children.
    NotAPermutation(NodeId),
    /// Parse error in term syntax.
    Parse {
        /// Byte offset of the error in the input.
        at: usize,
        /// Human-readable description.
        msg: String,
    },
    /// Internal consistency violation detected by [`crate::Tree::validate`].
    Inconsistent(String),
}

impl fmt::Display for TreeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TreeError::UnknownNode(n) => write!(f, "unknown node {n}"),
            TreeError::DuplicateNodeId(n) => write!(f, "duplicate node identifier {n}"),
            TreeError::CannotDetachRoot => write!(f, "cannot detach the root of a tree"),
            TreeError::PositionOutOfBounds {
                node,
                position,
                arity,
            } => write!(
                f,
                "position {position} out of bounds for node {node} with {arity} children"
            ),
            TreeError::NotAPermutation(n) => {
                write!(
                    f,
                    "new child order of node {n} is not a permutation of its children"
                )
            }
            TreeError::Parse { at, msg } => write!(f, "parse error at byte {at}: {msg}"),
            TreeError::Inconsistent(msg) => write!(f, "inconsistent tree: {msg}"),
        }
    }
}

impl std::error::Error for TreeError {}
