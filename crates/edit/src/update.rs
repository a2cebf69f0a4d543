//! Validity of a script *as a view update* (paper §4).
//!
//! A view update of `A(t)` is a script `S` with `In(S) = A(t)` whose output
//! is a legal view, and which does not reuse identifiers that exist in the
//! source document but are hidden by the view:
//! `N_S ∩ (N_t \ N_{A(t)}) = ∅`. (Checking `Out(S) ∈ A(L(D))` additionally
//! needs the view DTD and lives in `xvu_propagate`, which owns the full
//! problem instance.)

use crate::error::EditError;
use crate::footprint::{check_script, ScriptFootprint};
use crate::op::EditOp;
use crate::script::Script;
use std::collections::HashSet;
use xvu_tree::{DocTree, NodeId};

/// Checks that `s` is well-formed and `In(s)` equals `view`
/// (identifier-sensitive). Each input node of `s` is matched with the
/// view's node of the same identifier ([`check_script`]); the input tree
/// is never materialised.
pub fn check_is_update_of(s: &Script, view: &DocTree) -> Result<(), EditError> {
    update_footprint(s, view).map(drop)
}

/// [`check_is_update_of`], handing back the footprint its walk computed
/// ([`check_script`]), so a caller that needs both reads the script once.
pub fn update_footprint(s: &Script, view: &DocTree) -> Result<ScriptFootprint, EditError> {
    let check = check_script(s, Some(view));
    check.closure()?;
    if s.label(s.root()).op == EditOp::Ins {
        return Err(EditError::EmptyInput);
    }
    if !check.input_matches() {
        return Err(EditError::NotAnUpdateOf(
            "In(S) differs from the view".to_owned(),
        ));
    }
    Ok(check.into_footprint())
}

/// Checks the hidden-identifier requirement: no node of the script may use
/// an identifier of a source node hidden by the view.
///
/// `source_ids` are all identifiers of `t`; `visible` those of `A(t)`.
/// The paper: *"This requirement prevents situations where the user
/// attempts to add a node with identifier already used by an existing node
/// in the source document and not visible to the user."*
pub fn check_no_hidden_ids(
    s: &Script,
    source_ids: &HashSet<NodeId>,
    visible: &HashSet<NodeId>,
) -> Result<(), EditError> {
    for n in s.node_ids() {
        if source_ids.contains(&n) && !visible.contains(&n) {
            return Err(EditError::HiddenIdUsed(n));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::term::parse_script;
    use xvu_tree::{parse_term_with_ids, Alphabet, NodeIdGen};

    #[test]
    fn accepts_proper_update() {
        let mut alpha = Alphabet::new();
        let mut gen = NodeIdGen::new();
        let view = parse_term_with_ids(&mut alpha, &mut gen, "r#0(a#1, d#3(c#8), a#4, d#6(c#10))")
            .unwrap();
        let s = parse_script(
            &mut alpha,
            "nop:r#0(del:a#1, del:d#3(del:c#8), nop:a#4, \
             ins:d#11(ins:c#13, ins:c#14), ins:a#12, nop:d#6(nop:c#10, ins:c#15))",
        )
        .unwrap();
        check_is_update_of(&s, &view).unwrap();
    }

    #[test]
    fn rejects_update_of_different_view() {
        let mut alpha = Alphabet::new();
        let mut gen = NodeIdGen::new();
        let view = parse_term_with_ids(&mut alpha, &mut gen, "r#0(a#1)").unwrap();
        let s = parse_script(&mut alpha, "nop:r#0(nop:a#2)").unwrap();
        assert!(matches!(
            check_is_update_of(&s, &view),
            Err(EditError::NotAnUpdateOf(_))
        ));
    }

    #[test]
    fn rejects_hidden_identifier_reuse() {
        let mut alpha = Alphabet::new();
        // Source has hidden node #2; user inserts a node reusing id 2.
        let s = parse_script(&mut alpha, "nop:r#0(nop:a#1, ins:c#2)").unwrap();
        let source_ids: HashSet<NodeId> = [0u64, 1, 2].map(NodeId).into_iter().collect();
        let visible: HashSet<NodeId> = [0u64, 1].map(NodeId).into_iter().collect();
        assert_eq!(
            check_no_hidden_ids(&s, &source_ids, &visible).unwrap_err(),
            EditError::HiddenIdUsed(NodeId(2))
        );
    }

    #[test]
    fn fresh_identifiers_are_fine() {
        let mut alpha = Alphabet::new();
        let s = parse_script(&mut alpha, "nop:r#0(nop:a#1, ins:c#99)").unwrap();
        let source_ids: HashSet<NodeId> = [0u64, 1, 2].map(NodeId).into_iter().collect();
        let visible: HashSet<NodeId> = [0u64, 1].map(NodeId).into_iter().collect();
        check_no_hidden_ids(&s, &source_ids, &visible).unwrap();
    }
}
