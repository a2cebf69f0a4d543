//! Editing scripts: trees over `E(Σ)` and their projections.
//!
//! An editing script `S` is a tree over `E(Σ)` where descendants of
//! inserting nodes insert and descendants of deleting nodes delete (only
//! whole subtrees are inserted/deleted — the XQuery Update style). A script
//! simultaneously represents the update, its input tree `In(S)` (the
//! non-`Ins` nodes), its output tree `Out(S)` (the non-`Del` nodes), and
//! the identifier correspondence between them.

use crate::error::EditError;
use crate::footprint::{check_script, ScriptCheck};
use crate::op::{ELabel, EditOp};
use xvu_tree::{DocTree, NodeId, PreorderBuilder, Tree};

/// An editing script: a tree labeled with editing operations.
pub type Script = Tree<ELabel>;

/// Checks the paper's well-formedness requirements: all descendants of an
/// `Ins` node are `Ins`, all descendants of a `Del` node are `Del`. The
/// first violation is reported: parents in pre-order, each parent's
/// children in sibling order.
pub fn validate_script(s: &Script) -> Result<(), EditError> {
    check_script(s, None).closure()
}

/// The cost of a script: the number of non-phantom (non-`Nop`) nodes.
pub fn cost(s: &Script) -> usize {
    s.preorder()
        .filter(|&n| s.label(n).op != EditOp::Nop)
        .count()
}

/// The input tree `In(S)` — the restriction of `S` to non-`Ins` nodes,
/// with `Del(a)`/`Nop(a)` projected to `a`. `None` iff the root inserts
/// (empty input).
pub fn input_tree(s: &Script) -> Option<DocTree> {
    project(s, ELabel::in_input)
}

/// The output tree `Out(S)` — the restriction of `S` to non-`Del` nodes.
/// `None` iff the root deletes (empty output).
pub fn output_tree(s: &Script) -> Option<DocTree> {
    project(s, ELabel::in_output)
}

fn project(s: &Script, keep: impl Fn(ELabel) -> bool) -> Option<DocTree> {
    let root = s.root();
    if !keep(s.label(root)) {
        return None;
    }
    let mut out = PreorderBuilder::new(root, s.label(root).label);
    // Pre-order on an explicit stack of (node, parent) pairs: each kept
    // node is appended under its parent, so the arena is in document
    // order and each child list is written once.
    let kept = |n: NodeId| {
        s.children(n)
            .iter()
            .rev()
            .filter(|&&c| keep(s.label(c)))
            .map(move |&c| (c, n))
    };
    let mut stack: Vec<(NodeId, NodeId)> = kept(root).collect();
    while let Some((n, parent)) = stack.pop() {
        out.child(parent, n, s.label(n).label)
            .expect("script node ids are unique");
        stack.extend(kept(n));
    }
    Some(out.finish())
}

/// Applies a script to a tree: checks `t = In(S)` (identifier-sensitive)
/// and returns `Out(S)`.
pub fn apply(s: &Script, t: &DocTree) -> Result<DocTree, EditError> {
    let check = check_script(s, Some(t));
    check.closure()?;
    if s.label(s.root()).op == EditOp::Ins {
        return Err(EditError::EmptyInput);
    }
    if !check.input_matches() {
        return Err(EditError::InputMismatch);
    }
    output_tree(s).ok_or(EditError::EmptyOutput)
}

/// Applies a script to a tree **in place**: checks `t = In(S)` exactly
/// (identifiers, labels, structure — including the contents of deleted
/// subtrees) and then mutates `t` into `Out(S)` by detaching every
/// deleted subtree and attaching every inserted one, leaving the
/// untouched regions of `t` alone.
///
/// Semantically equivalent to [`apply`] (`*t == apply(s, &t_before)?`
/// afterwards), but it never materialises the input or output tree, and
/// only the edited regions are mutated: the child lists of the changed
/// `Nop` parents of the script's footprint
/// ([`crate::ScriptFootprint::changed`]), and no other node's. The script
/// is read once, by [`check_script`]; the mutation then visits only those
/// parents ([`apply_checked`]). Validation runs entirely before the first
/// mutation: on any `Err`, `t` is unchanged.
pub fn apply_in_place(t: &mut DocTree, s: &Script) -> Result<(), EditError> {
    let check = check_script(s, Some(t));
    apply_checked(t, s, &check)
}

/// The mutation half of [`apply_in_place`], for a caller that already
/// walked `s` against `t` with [`check_script`] (as `Session::commit`
/// does, to revalidate from the same footprint). `check` must come from
/// `check_script(s, Some(t))` with `t` unchanged since.
///
/// Reports the errors of [`apply_in_place`], in its order, before the
/// first mutation; then rewrites the child list of each changed `Nop`
/// parent of the footprint — in document order, each list left to right
/// — and nothing else.
pub fn apply_checked(t: &mut DocTree, s: &Script, check: &ScriptCheck) -> Result<(), EditError> {
    check.closure()?;
    match s.label(s.root()).op {
        EditOp::Ins => return Err(EditError::EmptyInput),
        EditOp::Del => return Err(EditError::EmptyOutput),
        EditOp::Nop => {}
    }
    if !check.input_matches() {
        return Err(EditError::InputMismatch);
    }
    // At each parent, `t`'s children processed so far are exactly the
    // output children emitted so far, so `pos` is the attach position.
    for &n in check.footprint().changed() {
        if s.label(n).op == EditOp::Ins {
            continue; // attached whole with its inserted root
        }
        let mut pos = 0usize;
        for &c in s.children(n) {
            match s.label(c).op {
                EditOp::Nop => pos += 1,
                EditOp::Del => {
                    t.detach_subtree(c)?;
                }
                EditOp::Ins => {
                    let frag = s.subtree(c).map_labels(|_, l| l.label);
                    t.attach_subtree(n, pos, frag)?;
                    pos += 1;
                }
            }
        }
    }
    Ok(())
}

/// `Ins(t)`: the unique script with empty input and output `t` — all nodes
/// insert, identifiers preserved.
pub fn ins_script(t: &DocTree) -> Script {
    t.map_labels(|_, &l| ELabel::ins(l))
}

/// `Del(t)`: the script deleting all of `t`.
pub fn del_script(t: &DocTree) -> Script {
    t.map_labels(|_, &l| ELabel::del(l))
}

/// `Nop(t)`: the identity script on `t`.
pub fn nop_script(t: &DocTree) -> Script {
    t.map_labels(|_, &l| ELabel::nop(l))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::term::parse_script;
    use xvu_tree::{parse_term_with_ids, to_term_with_ids, Alphabet, NodeIdGen};

    /// The paper's view update S0 (Fig. 4).
    pub(crate) fn s0(alpha: &mut Alphabet) -> Script {
        parse_script(
            alpha,
            "nop:r#0(del:a#1, del:d#3(del:c#8), nop:a#4, \
             ins:d#11(ins:c#13, ins:c#14), ins:a#12, nop:d#6(nop:c#10, ins:c#15))",
        )
        .unwrap()
    }

    #[test]
    fn s0_is_well_formed() {
        let mut alpha = Alphabet::new();
        let s = s0(&mut alpha);
        validate_script(&s).unwrap();
        assert_eq!(s.size(), 12);
    }

    #[test]
    fn s0_input_is_fig3_view() {
        let mut alpha = Alphabet::new();
        let s = s0(&mut alpha);
        let input = input_tree(&s).unwrap();
        assert_eq!(
            to_term_with_ids(&input, &alpha),
            "r#0(a#1, d#3(c#8), a#4, d#6(c#10))"
        );
    }

    #[test]
    fn s0_output_is_fig5() {
        let mut alpha = Alphabet::new();
        let s = s0(&mut alpha);
        let output = output_tree(&s).unwrap();
        assert_eq!(
            to_term_with_ids(&output, &alpha),
            "r#0(a#4, d#11(c#13, c#14), a#12, d#6(c#10, c#15))"
        );
    }

    #[test]
    fn s0_cost_counts_non_phantom_nodes() {
        let mut alpha = Alphabet::new();
        let s = s0(&mut alpha);
        // Del a1, Del d3, Del c8, Ins d11, Ins c13, Ins c14, Ins a12, Ins c15
        assert_eq!(cost(&s), 8);
    }

    #[test]
    fn apply_round_trips() {
        let mut alpha = Alphabet::new();
        let s = s0(&mut alpha);
        let mut gen = NodeIdGen::new();
        let view = parse_term_with_ids(&mut alpha, &mut gen, "r#0(a#1, d#3(c#8), a#4, d#6(c#10))")
            .unwrap();
        let out = apply(&s, &view).unwrap();
        assert_eq!(out, output_tree(&s).unwrap());
    }

    #[test]
    fn apply_rejects_wrong_input() {
        let mut alpha = Alphabet::new();
        let s = s0(&mut alpha);
        let mut gen = NodeIdGen::starting_at(900);
        // isomorphic to the view but different identifiers
        let wrong = parse_term_with_ids(
            &mut alpha,
            &mut gen,
            "r#900(a#901, d#902(c#903), a#904, d#905(c#906))",
        )
        .unwrap();
        assert_eq!(apply(&s, &wrong).unwrap_err(), EditError::InputMismatch);
    }

    #[test]
    fn closure_violations_are_caught() {
        let mut alpha = Alphabet::new();
        let bad = parse_script(&mut alpha, "nop:r#0(ins:a#1(nop:b#2))").unwrap();
        assert_eq!(
            validate_script(&bad).unwrap_err(),
            EditError::InsClosureViolated(NodeId(2))
        );
        let bad = parse_script(&mut alpha, "nop:r#0(del:a#1(ins:b#2))").unwrap();
        assert_eq!(
            validate_script(&bad).unwrap_err(),
            EditError::DelClosureViolated(NodeId(2))
        );
    }

    #[test]
    fn lifts() {
        let mut alpha = Alphabet::new();
        let mut gen = NodeIdGen::new();
        let t = parse_term_with_ids(&mut alpha, &mut gen, "r#0(a#1, b#2)").unwrap();

        let ins = ins_script(&t);
        assert!(input_tree(&ins).is_none());
        assert_eq!(output_tree(&ins).unwrap(), t);
        assert_eq!(cost(&ins), 3);

        let del = del_script(&t);
        assert_eq!(input_tree(&del).unwrap(), t);
        assert!(output_tree(&del).is_none());
        assert_eq!(cost(&del), 3);

        let nop = nop_script(&t);
        assert_eq!(input_tree(&nop).unwrap(), t);
        assert_eq!(output_tree(&nop).unwrap(), t);
        assert_eq!(cost(&nop), 0);
        assert_eq!(apply(&nop, &t).unwrap(), t);
    }

    #[test]
    fn apply_in_place_matches_apply() {
        let mut alpha = Alphabet::new();
        let s = s0(&mut alpha);
        let mut gen = NodeIdGen::new();
        let view = parse_term_with_ids(&mut alpha, &mut gen, "r#0(a#1, d#3(c#8), a#4, d#6(c#10))")
            .unwrap();
        let expect = apply(&s, &view).unwrap();
        let mut t = view.clone();
        apply_in_place(&mut t, &s).unwrap();
        assert_eq!(t, expect);
        t.validate().unwrap();
    }

    #[test]
    fn apply_in_place_rejects_without_mutating() {
        let mut alpha = Alphabet::new();
        let s = s0(&mut alpha);
        let mut gen = NodeIdGen::starting_at(900);
        let wrong = parse_term_with_ids(
            &mut alpha,
            &mut gen,
            "r#900(a#901, d#902(c#903), a#904, d#905(c#906))",
        )
        .unwrap();
        let before = wrong.clone();
        let mut t = wrong;
        assert_eq!(
            apply_in_place(&mut t, &s).unwrap_err(),
            EditError::InputMismatch
        );
        assert_eq!(t, before, "failed application must leave t untouched");
        // a subtree mismatch hidden inside a deleted region is caught too
        let mut gen = NodeIdGen::new();
        let missing_del_leaf =
            parse_term_with_ids(&mut alpha, &mut gen, "r#0(a#1, d#3, a#4, d#6(c#10))").unwrap();
        let mut t = missing_del_leaf.clone();
        assert_eq!(
            apply_in_place(&mut t, &s).unwrap_err(),
            EditError::InputMismatch
        );
        assert_eq!(t, missing_del_leaf);
    }

    #[test]
    fn input_matches_agrees_with_the_input_projection() {
        let mut alpha = Alphabet::new();
        let s = s0(&mut alpha);
        let mut gen = NodeIdGen::new();
        let mut trees = Vec::new();
        for term in [
            "r#0(a#1, d#3(c#8), a#4, d#6(c#10))",
            "r#0(a#1, d#3, a#4, d#6(c#10))",
            "r#0(a#1, d#3(c#8), a#4, d#6(c#10), a#90)",
            "r#0(a#1, d#3(c#8), a#4, d#6(a#10))",
            "r#0(a#1, d#3(c#8), a#4)",
            "a#0(a#1, d#3(c#8), a#4, d#6(c#10))",
        ] {
            trees.push(parse_term_with_ids(&mut alpha, &mut gen, term).unwrap());
        }
        let del_root = parse_script(&mut alpha, "del:r#0(del:a#1)").unwrap();
        let ins_root = parse_script(&mut alpha, "ins:r#0(ins:a#1)").unwrap();
        trees.push(parse_term_with_ids(&mut alpha, &mut gen, "r#0(a#1)").unwrap());
        for script in [&s, &del_root, &ins_root] {
            for t in &trees {
                assert_eq!(
                    check_script(script, Some(t)).input_matches(),
                    input_tree(script).as_ref() == Some(t),
                    "{} vs {}",
                    crate::term::script_to_term(script, &alpha),
                    to_term_with_ids(t, &alpha)
                );
            }
        }
    }

    #[test]
    fn apply_in_place_changes_only_the_edited_parents_lists() {
        let mut alpha = Alphabet::new();
        let s = s0(&mut alpha);
        let mut gen = NodeIdGen::new();
        let before =
            parse_term_with_ids(&mut alpha, &mut gen, "r#0(a#1, d#3(c#8), a#4, d#6(c#10))")
                .unwrap();
        let mut t = before.clone();
        apply_in_place(&mut t, &s).unwrap();
        // S0 edits the child lists of r#0 (dels + inserts) and d#6 (ins
        // c#15), the changed `Nop` parents of its footprint; d#3 is
        // deleted whole, and every other surviving node keeps its list.
        let edited: Vec<NodeId> = before
            .preorder()
            .filter(|&n| t.contains(n) && t.children(n) != before.children(n))
            .collect();
        assert_eq!(edited, vec![NodeId(0), NodeId(6)]);
        let changed = check_script(&s, Some(&before));
        let nop_parents: Vec<NodeId> = changed
            .footprint()
            .changed()
            .iter()
            .copied()
            .filter(|&n| s.label(n).op == EditOp::Nop)
            .collect();
        assert_eq!(nop_parents, edited);
    }

    #[test]
    fn apply_in_place_root_ops_are_rejected() {
        let mut alpha = Alphabet::new();
        let mut gen = NodeIdGen::new();
        let t = parse_term_with_ids(&mut alpha, &mut gen, "r#0(a#1)").unwrap();
        let del_root = parse_script(&mut alpha, "del:r#0(del:a#1)").unwrap();
        let mut u = t.clone();
        assert_eq!(
            apply_in_place(&mut u, &del_root).unwrap_err(),
            EditError::EmptyOutput
        );
        let ins_root = parse_script(&mut alpha, "ins:r#50(ins:a#51)").unwrap();
        assert_eq!(
            apply_in_place(&mut u, &ins_root).unwrap_err(),
            EditError::EmptyInput
        );
        assert_eq!(u, t);
    }

    #[test]
    fn projections_preserve_order() {
        let mut alpha = Alphabet::new();
        let s = parse_script(
            &mut alpha,
            "nop:r#0(ins:a#10, nop:b#1, del:c#2, nop:d#3, ins:e#11)",
        )
        .unwrap();
        let input = input_tree(&s).unwrap();
        let in_kids: Vec<u64> = input.children(input.root()).iter().map(|n| n.0).collect();
        assert_eq!(in_kids, vec![1, 2, 3]);
        let output = output_tree(&s).unwrap();
        let out_kids: Vec<u64> = output.children(output.root()).iter().map(|n| n.0).collect();
        assert_eq!(out_kids, vec![10, 1, 3, 11]);
    }
}
