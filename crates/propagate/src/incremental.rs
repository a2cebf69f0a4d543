//! Incremental revalidation and cross-view effect analysis.
//!
//! * [`revalidate_output`] — schema-checks the output of a script in time
//!   proportional to the *changed* part: only nodes whose child word can
//!   have changed (parents of non-`Nop` children, and inserted subtrees)
//!   are re-checked, in the spirit of incremental validation ([13] in the
//!   paper). Assumes the input tree was valid.
//! * [`cross_view_effect`] — the paper's future-work question about
//!   multiple views: given a propagation for view `A1`, compute the
//!   editing script a *different* view `A2` observes. Persistent
//!   identifiers make this an exact diff.

use crate::error::PropagateError;
use xvu_automata::StateSets;
use xvu_dtd::Dtd;
use xvu_edit::{
    check_script, diff, input_tree, output_tree, script_footprint, EditOp, Script, ScriptFootprint,
};
use xvu_tree::NodeId;
use xvu_view::{extract_view, Annotation};

/// Validates `Out(script)` against `dtd`, assuming `In(script)` is valid.
///
/// Re-checks exactly the script's footprint
/// ([`xvu_edit::script_footprint`]):
/// * every node with at least one non-`Nop` child (its child word
///   changed), and
/// * every node inside an inserted subtree (entirely new material).
///
/// Deleted subtrees are skipped *as subtrees* — none of their nodes exist
/// in the output. The script grammar requires every descendant of a `Del`
/// node to delete (whole subtrees are removed); a malformed script whose
/// deleted subtree contains a non-`Del` node is rejected with the
/// underlying [`xvu_edit::EditError`] instead of being validated against
/// an output tree it no longer belongs to.
///
/// Returns the first offending node, like [`Dtd::validate`].
pub fn revalidate_output(dtd: &Dtd, script: &Script) -> Result<(), PropagateError> {
    let check = check_script(script, None);
    check.closure()?;
    revalidate_changed(dtd, script, check.footprint())
}

/// The schema half of [`revalidate_output`], for a caller that already
/// walked `script` ([`xvu_edit::check_script`]) and found its closure
/// rules intact: `fp` must be `script`'s footprint.
pub(crate) fn revalidate_changed(
    dtd: &Dtd,
    script: &Script,
    fp: &ScriptFootprint,
) -> Result<(), PropagateError> {
    if script.label(script.root()).op == EditOp::Del {
        return Err(PropagateError::NotAPropagation(
            "script output is empty".to_owned(),
        ));
    }
    // Each changed node's output child word is read straight off the
    // script (its non-`Del` children) — the output tree is never
    // materialised. The footprint lists the changed nodes in document
    // order, so the *first* offending node is the one reported, like
    // `Dtd::validate`.
    let mut sets = StateSets::default();
    for &n in fp.changed() {
        let word = script
            .children(n)
            .iter()
            .map(|&c| script.label(c))
            .filter(|l| l.op != EditOp::Del)
            .map(|l| l.label);
        if !dtd
            .content_model(script.label(n).label)
            .accepts_with(word, &mut sets)
        {
            return Err(PropagateError::NotAPropagation(format!(
                "incremental validation failed at node {n}"
            )));
        }
    }
    Ok(())
}

/// Number of nodes [`revalidate_output`] actually checks — for tests and
/// diagnostics of the incremental saving. Deleted subtrees contribute
/// nothing, whatever their contents.
pub fn revalidation_workload(script: &Script) -> usize {
    script_footprint(script).changed().len()
}

/// Computes the update that a *second* view `other` observes when
/// `propagation` is applied to the source: the exact editing script from
/// `other(In)` to `other(Out)`, matched by persistent identifiers.
///
/// Side-effect freedom is always relative to one view; this is the tool
/// to quantify what a propagation chosen for view `A1` does to the users
/// of view `A2` (the paper's multi-view future work).
pub fn cross_view_effect(
    other: &Annotation,
    propagation: &Script,
) -> Result<Script, PropagateError> {
    let input = input_tree(propagation)
        .ok_or_else(|| PropagateError::NotAPropagation("script input is empty".to_owned()))?;
    let out = output_tree(propagation)
        .ok_or_else(|| PropagateError::NotAPropagation("script output is empty".to_owned()))?;
    let v_before = extract_view(other, &input);
    let v_after = extract_view(other, &out);
    diff(&v_before, &v_after).map_err(PropagateError::Edit)
}

/// Convenience: the set of identifiers the second view sees changing
/// (non-`Nop` nodes of [`cross_view_effect`]).
pub fn cross_view_touched(
    other: &Annotation,
    propagation: &Script,
) -> Result<Vec<NodeId>, PropagateError> {
    let effect = cross_view_effect(other, propagation)?;
    Ok(effect
        .preorder()
        .filter(|&n| effect.label(n).op != EditOp::Nop)
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithm::{propagate, Config};
    use crate::fixtures;
    use crate::instance::Instance;
    use xvu_dtd::InsertletPackage;
    use xvu_edit::cost;
    use xvu_view::parse_annotation;

    #[test]
    fn incremental_agrees_with_full_validation_on_sound_propagation() {
        let fx = fixtures::paper_running_example();
        let inst = Instance::new(&fx.dtd, &fx.ann, &fx.t0, &fx.s0, fx.alpha.len()).unwrap();
        let prop = propagate(&inst, &InsertletPackage::new(), &Config::default()).unwrap();
        revalidate_output(&fx.dtd, &prop.script).unwrap();
        // and it inspects strictly fewer nodes than the whole document
        let out = xvu_edit::output_tree(&prop.script).unwrap();
        assert!(revalidation_workload(&prop.script) < out.size());
    }

    #[test]
    fn incremental_catches_violations() {
        let mut fx = fixtures::paper_running_example();
        // delete only a1: r's word becomes b d a c d — invalid.
        let bad = xvu_edit::parse_script(
            &mut fx.alpha,
            "nop:r#0(del:a#1, nop:b#2, nop:d#3(nop:a#7, nop:c#8), nop:a#4, nop:c#5, \
             nop:d#6(nop:b#9, nop:c#10))",
        )
        .unwrap();
        let err = revalidate_output(&fx.dtd, &bad).unwrap_err();
        assert!(matches!(err, PropagateError::NotAPropagation(_)));
    }

    #[test]
    fn deleted_subtrees_are_skipped_whole() {
        // Regression: a non-`Del` node nested inside a deleted subtree is
        // not part of the output tree. The old preorder walk still
        // descended into it and validated it against the output (panicking
        // on the missing node); deleted subtrees must be skipped whole and
        // the malformed shape rejected with the grammar's own error.
        let mut fx = fixtures::paper_running_example();
        // `ins:c#30` under `del:d#3` violates Del-closure: the script
        // grammar only deletes whole subtrees.
        let bad = xvu_edit::parse_script(
            &mut fx.alpha,
            "nop:r#0(nop:a#1, nop:b#2, del:d#3(ins:c#30, nop:a#7, nop:c#8), nop:a#4, \
             nop:c#5, nop:d#6(nop:b#9, nop:c#10))",
        )
        .unwrap();
        let err = revalidate_output(&fx.dtd, &bad).unwrap_err();
        assert!(
            matches!(
                err,
                PropagateError::Edit(xvu_edit::EditError::DelClosureViolated(_))
            ),
            "{err:?}"
        );
        // and the workload metric never counts nodes inside deleted
        // subtrees, however deep the nesting
        assert_eq!(revalidation_workload(&bad), 1); // only the root r#0
                                                    // a well-formed deep deletion revalidates only the cut point
        let good = xvu_edit::parse_script(
            &mut fx.alpha,
            "nop:r#0(del:a#1, del:b#2, del:d#3(del:a#7, del:c#8), nop:a#4, \
             nop:c#5, nop:d#6(nop:b#9, nop:c#10))",
        )
        .unwrap();
        revalidate_output(&fx.dtd, &good).unwrap();
        assert_eq!(revalidation_workload(&good), 1);
    }

    #[test]
    fn first_offending_node_in_document_order_is_reported() {
        // Both d-subtrees become invalid (((a+b).c)* needs a/b before c);
        // like `Dtd::validate`, the error names the first one, d#3.
        let mut fx = fixtures::paper_running_example();
        let bad = xvu_edit::parse_script(
            &mut fx.alpha,
            "nop:r#0(nop:a#1, nop:b#2, nop:d#3(del:a#7, nop:c#8), nop:a#4, nop:c#5, \
             nop:d#6(del:b#9, nop:c#10))",
        )
        .unwrap();
        let err = revalidate_output(&fx.dtd, &bad).unwrap_err();
        assert!(
            matches!(&err, PropagateError::NotAPropagation(m) if m.contains("n3")),
            "{err:?}"
        );
    }

    #[test]
    fn footprint_agrees_with_reference_walk_on_nested_scripts() {
        // The "changed child-word" analysis used to live as a bespoke walk
        // inside this module; it is now `xvu_edit::script_footprint`. This
        // pins the factored-out API against a local reimplementation of
        // the original walk, over nested ins/del shapes.
        fn reference(script: &Script) -> Vec<NodeId> {
            let resolve = |id| script.slot(id).expect("script child in script");
            let mut stack = vec![resolve(script.root())];
            let mut checked = Vec::new();
            while let Some(s) = stack.pop() {
                let node = script.node_at(s);
                if node.label.op == EditOp::Del {
                    continue;
                }
                let children = script.children_at(s);
                if node.label.op == EditOp::Ins
                    || children.iter().any(|&c| script.label(c).op != EditOp::Nop)
                {
                    checked.push(node.id);
                }
                stack.extend(children.iter().rev().map(|&c| resolve(c)));
            }
            checked
        }

        let mut alpha = xvu_tree::Alphabet::new();
        let terms = [
            // identity
            "nop:r#0(nop:a#1(nop:b#2), nop:c#3)",
            // the paper's S0
            "nop:r#0(del:a#1, del:d#3(del:c#8), nop:a#4, \
             ins:d#11(ins:c#13, ins:c#14), ins:a#12, nop:d#6(nop:c#10, ins:c#15))",
            // deep nested deletes: only the cut-point parent is checked
            "nop:r#0(del:a#1(del:b#2(del:c#3(del:d#4))), nop:e#5)",
            // deep nested inserts: the whole fragment is checked
            "nop:r#0(ins:a#1(ins:b#2(ins:c#3)), nop:e#5)",
            // ins directly under del (malformed closure): skipped whole
            "nop:r#0(del:a#1(ins:b#2, nop:c#3), nop:e#5)",
            // alternating nests
            "nop:r#0(nop:a#1(del:b#2(del:c#3), ins:d#4(ins:e#5)), \
             nop:f#6(nop:g#7(ins:h#8)))",
        ];
        for term in terms {
            let s = xvu_edit::parse_script(&mut alpha, term).unwrap();
            let fp = xvu_edit::script_footprint(&s);
            assert_eq!(fp.changed(), reference(&s).as_slice(), "{term}");
            assert_eq!(revalidation_workload(&s), fp.changed().len(), "{term}");
        }
    }

    #[test]
    fn identity_script_revalidates_for_free() {
        let fx = fixtures::paper_running_example();
        let s = xvu_edit::nop_script(&fx.t0);
        revalidate_output(&fx.dtd, &s).unwrap();
        assert_eq!(revalidation_workload(&s), 0);
    }

    #[test]
    fn cross_view_effect_of_the_paper_propagation() {
        let mut fx = fixtures::paper_running_example();
        let inst = Instance::new(&fx.dtd, &fx.ann, &fx.t0, &fx.s0, fx.alpha.len()).unwrap();
        let prop = propagate(&inst, &InsertletPackage::new(), &Config::default()).unwrap();

        // A fully-transparent second view sees the whole propagation.
        let all = xvu_view::Annotation::all_visible();
        let full_effect = cross_view_effect(&all, &prop.script).unwrap();
        assert_eq!(cost(&full_effect) as u64, prop.cost);

        // The original view sees exactly the user's update shape.
        let own_effect = cross_view_effect(&fx.ann, &prop.script).unwrap();
        assert_eq!(cost(&own_effect), cost(&fx.s0));

        // A view that hides the d-subtrees' contents sees fewer changes.
        let ann2 = parse_annotation(&mut fx.alpha, "hide d a\nhide d b\nhide d c").unwrap();
        let partial = cross_view_effect(&ann2, &prop.script).unwrap();
        assert!(cost(&partial) < cost(&full_effect));
        let touched = cross_view_touched(&ann2, &prop.script).unwrap();
        assert!(!touched.is_empty());
    }
}
