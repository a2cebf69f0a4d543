//! The one-walk script checks report exactly the errors of the sequential
//! checks they replaced.
//!
//! `Session::instance`, `Session::commit` and `apply_in_place` each read
//! a script once ([`xvu_edit::check_script`]: closure rules, `In(S) = t`
//! in lockstep, and the footprint in one pass). Before that, each ran the
//! closure check, the input match and the footprint as separate walks,
//! in a fixed order that decided which error a bad script got. This file
//! keeps test-only copies of those sequential checks and corrupts every
//! update and propagation of the enumerated corpus, one corruption at a
//! time: the new paths must return the same `Err` (or the same `Ok`), and
//! a failed commit must leave the whole session — document, view,
//! intern ids, identifier generator — exactly as it was.

use xml_view_update::edit::{check_no_hidden_ids, EditError};
use xml_view_update::prelude::*;
use xml_view_update::workload::enumo::{enumerate_instances, EnumBudget};

// ---------------------------------------------------------------------
// The sequential checks, as they ran before the one-walk check.
// ---------------------------------------------------------------------

/// The closure rules: parents in pre-order, children in sibling order.
fn ref_validate(s: &Script) -> Result<(), EditError> {
    for n in s.preorder() {
        let op = s.label(n).op;
        for &c in s.children(n) {
            let cop = s.label(c).op;
            match op {
                EditOp::Ins if cop != EditOp::Ins => return Err(EditError::InsClosureViolated(c)),
                EditOp::Del if cop != EditOp::Del => return Err(EditError::DelClosureViolated(c)),
                _ => {}
            }
        }
    }
    Ok(())
}

/// `In(s) = t`, matched in lockstep (for scripts passing the closure
/// rules).
fn ref_input_matches(s: &Script, t: &DocTree) -> bool {
    let root = s.root();
    let root_label = s.label(root);
    if root_label.op == EditOp::Ins || root != t.root() || root_label.label != t.label(root) {
        return false;
    }
    let mut stack = vec![root];
    while let Some(n) = stack.pop() {
        let t_children = t.children(n);
        let mut i = 0usize;
        for &c in s.children(n) {
            let cl = s.label(c);
            if cl.op == EditOp::Ins {
                continue;
            }
            match t_children.get(i) {
                Some(&tc) if tc == c && t.label(tc) == cl.label => {}
                _ => return false,
            }
            i += 1;
            stack.push(c);
        }
        if i != t_children.len() {
            return false;
        }
    }
    true
}

/// The changed nodes of the footprint: inserted nodes and parents of a
/// non-`Nop` child, in document order, deleted subtrees skipped whole.
fn ref_changed(s: &Script) -> Vec<NodeId> {
    let mut stack = vec![s.root()];
    let mut changed = Vec::new();
    while let Some(n) = stack.pop() {
        let op = s.label(n).op;
        if op == EditOp::Del {
            continue;
        }
        if op == EditOp::Ins || s.children(n).iter().any(|&c| s.label(c).op != EditOp::Nop) {
            changed.push(n);
        }
        stack.extend(s.children(n).iter().rev());
    }
    changed
}

/// The output child word of a changed node.
fn out_word(s: &Script, n: NodeId) -> Vec<Sym> {
    s.children(n)
        .iter()
        .map(|&c| s.label(c))
        .filter(|l| l.op != EditOp::Del)
        .map(|l| l.label)
        .collect()
}

/// `apply_in_place`'s checks: closure, root ops, then the input match.
fn ref_apply_in_place(t: &DocTree, s: &Script) -> Result<(), EditError> {
    ref_validate(s)?;
    match s.label(s.root()).op {
        EditOp::Ins => return Err(EditError::EmptyInput),
        EditOp::Del => return Err(EditError::EmptyOutput),
        EditOp::Nop => {}
    }
    if !ref_input_matches(s, t) {
        return Err(EditError::InputMismatch);
    }
    Ok(())
}

/// `Session::instance`'s checks: the update against the view, hidden
/// identifiers in slot order, the root, the view DTD on changed child
/// words, then inserted labels.
fn ref_instance(session: &Session<'_>, update: &Script) -> Result<(), PropagateError> {
    let engine = session.engine();
    let (view, source) = (session.view(), session.document());
    ref_validate(update)?;
    if update.label(update.root()).op == EditOp::Ins {
        return Err(EditError::EmptyInput.into());
    }
    if !ref_input_matches(update, view) {
        return Err(EditError::NotAnUpdateOf("In(S) differs from the view".to_owned()).into());
    }
    let source_ids = source.node_ids().collect();
    let visible = view.node_ids().collect();
    check_no_hidden_ids(update, &source_ids, &visible)?;
    if update.label(update.root()).op == EditOp::Del {
        return Err(PropagateError::InvalidInstance(
            "update deletes the view root".to_owned(),
        ));
    }
    let changed = ref_changed(update);
    for &n in &changed {
        let model = engine.view_dtd().content_model(update.label(n).label);
        if !model.accepts(&out_word(update, n)) {
            return Err(PropagateError::OutputNotAView(format!(
                "node {n} (child word not derivable in any view)"
            )));
        }
    }
    for &n in &changed {
        let parent = update.label(n);
        if parent.op == EditOp::Ins {
            continue;
        }
        for &c in update.children(n) {
            let cl = update.label(c);
            if cl.op == EditOp::Ins && !engine.annotation().is_visible(parent.label, cl.label) {
                return Err(PropagateError::InsertedInvisibleLabel { node: c });
            }
        }
    }
    Ok(())
}

/// `Session::commit`'s checks: closure, the root, the DTD on changed
/// child words, then `apply_in_place`'s.
fn ref_commit(session: &Session<'_>, script: &Script) -> Result<(), PropagateError> {
    ref_validate(script)?;
    if script.label(script.root()).op == EditOp::Del {
        return Err(PropagateError::NotAPropagation(
            "script output is empty".to_owned(),
        ));
    }
    for n in ref_changed(script) {
        let model = session.engine().dtd().content_model(script.label(n).label);
        if !model.accepts(&out_word(script, n)) {
            return Err(PropagateError::NotAPropagation(format!(
                "incremental validation failed at node {n}"
            )));
        }
    }
    ref_apply_in_place(session.document(), script).map_err(|e| match e {
        EditError::EmptyInput => {
            PropagateError::NotAPropagation("script input is empty".to_owned())
        }
        EditError::EmptyOutput => {
            PropagateError::NotAPropagation("propagation deletes the document root".to_owned())
        }
        EditError::InputMismatch => PropagateError::NotAPropagation(
            "committed propagation does not start from the session document".to_owned(),
        ),
        other => PropagateError::Edit(other),
    })
}

// ---------------------------------------------------------------------
// Corruptions: each turns a script into a (usually) broken one.
// ---------------------------------------------------------------------

/// A deterministic pick from `items`, varied by `k`.
fn pick<T: Copy>(items: &[T], k: usize) -> Option<T> {
    (!items.is_empty()).then(|| items[k.wrapping_mul(7).wrapping_add(3) % items.len()])
}

fn relabel_one(s: &Script, target: NodeId, f: impl Fn(ELabel) -> ELabel) -> Script {
    s.map_labels(|n, &l| if n == target { f(l) } else { l })
}

/// Rebuilds `s` with identifiers renamed through `f`.
fn rename(s: &Script, f: impl Fn(NodeId) -> NodeId) -> Script {
    let mut out = Tree::leaf_with_id(f(s.root()), s.label(s.root()));
    for n in s.preorder() {
        for &c in s.children(n) {
            out.add_child_with_id(f(n), f(c), s.label(c)).unwrap();
        }
    }
    out
}

fn next_op(op: EditOp) -> EditOp {
    match op {
        EditOp::Nop => EditOp::Del,
        EditOp::Del => EditOp::Ins,
        EditOp::Ins => EditOp::Nop,
    }
}

/// Every corruption of `s` that applies, named. `hidden` lists source
/// identifiers hidden by the view; `labels` is the alphabet; `k` varies
/// the picked nodes from instance to instance.
fn corruptions(
    s: &Script,
    k: usize,
    gen: &mut NodeIdGen,
    hidden: &[NodeId],
    labels: &[Sym],
) -> Vec<(&'static str, Script)> {
    let nodes: Vec<NodeId> = s.preorder().collect();
    let non_root = &nodes[1..];
    let mut out = Vec::new();
    if let (Some(a), Some(b)) = (pick(&nodes, k), pick(&nodes, k + 1)) {
        if a != b {
            let swapped = rename(s, |n| match n {
                n if n == a => b,
                n if n == b => a,
                n => n,
            });
            out.push(("swapped id", swapped));
        }
    }
    if let Some(n) = pick(&nodes, k + 2) {
        let label = s.label(n).label;
        if let Some(&other) = labels.iter().find(|&&l| l != label) {
            out.push((
                "relabelled node",
                relabel_one(s, n, |l| ELabel { label: other, ..l }),
            ));
        }
    }
    if let Some(n) = pick(non_root, k + 3) {
        out.push((
            "flipped op",
            relabel_one(s, n, |l| ELabel {
                op: next_op(l.op),
                ..l
            }),
        ));
    }
    if let Some(n) = pick(non_root, k + 4) {
        let mut dropped = s.clone();
        dropped.detach_subtree(n).unwrap();
        out.push(("dropped child", dropped));

        let parent = s.parent(n).unwrap();
        let pos = s.children(parent).iter().position(|&c| c == n).unwrap();
        let mut dup = s.clone();
        dup.attach_subtree(parent, pos + 1, s.subtree(n).with_fresh_ids(gen))
            .unwrap();
        out.push(("duplicated child", dup));
    }
    // A closure violation: a node with a child turns `Del` (or `Ins`)
    // above children that keep their ops.
    let parents: Vec<NodeId> = nodes
        .iter()
        .copied()
        .filter(|&n| !s.children(n).is_empty())
        .collect();
    if let Some(n) = pick(&parents, k + 5) {
        let op = if k.is_multiple_of(2) {
            EditOp::Del
        } else {
            EditOp::Ins
        };
        out.push((
            "closure violation",
            relabel_one(s, n, |l| ELabel { op, ..l }),
        ));
    }
    let root = s.root();
    out.push((
        "ins root",
        relabel_one(s, root, |l| ELabel {
            op: EditOp::Ins,
            ..l
        }),
    ));
    out.push((
        "del root",
        relabel_one(s, root, |l| ELabel {
            op: EditOp::Del,
            ..l
        }),
    ));
    let label = labels[k % labels.len()];
    if let Some(h) = pick(hidden, k + 6) {
        let mut reused = s.clone();
        if reused
            .add_child_with_id(root, h, ELabel::ins(label))
            .is_ok()
        {
            out.push(("reused hidden id", reused.clone()));
            // A second one, placed first: slot order and document order
            // now disagree on which reuse comes first.
            if let Some(h2) = hidden.iter().copied().find(|&x| x != h) {
                let leaf = Tree::leaf_with_id(h2, ELabel::ins(label));
                if reused.attach_subtree(root, 0, leaf).is_ok() {
                    out.push(("reused hidden ids", reused));
                }
            }
        }
    }
    // A schema violation, usually: one more copy of a child's label,
    // inserted fresh next to it.
    if let Some(n) = pick(non_root, k + 7) {
        let parent = s.parent(n).unwrap();
        let pos = s.children(parent).iter().position(|&c| c == n).unwrap();
        let mut extra = s.clone();
        let leaf = Tree::leaf(gen, ELabel::ins(s.label(n).label));
        if s.label(parent).op == EditOp::Nop {
            extra.attach_subtree(parent, pos, leaf).unwrap();
            out.push(("dtd violation", extra));
        }
    }
    out
}

#[test]
fn one_walk_checks_report_the_sequential_checks_errors() {
    let instances = enumerate_instances(&EnumBudget::default());
    assert!(instances.len() >= 200, "only {} instances", instances.len());
    let (mut scripts, mut failures) = (0usize, 0usize);
    for (k, inst) in instances.iter().enumerate() {
        let engine = Engine::new(inst.alpha.clone(), inst.dtd.clone(), inst.ann.clone());
        let session = engine
            .open(&inst.doc)
            .expect("enumerated documents are valid");
        let Ok(prop) = session.propagate(&inst.update) else {
            continue;
        };
        let view = session.view();
        let hidden: Vec<NodeId> = inst.doc.node_ids().filter(|&n| !view.contains(n)).collect();
        let labels: Vec<Sym> = (0..inst.alpha.len()).map(Sym::from_index).collect();
        let mut gen = session.id_gen();
        for n in prop.script.node_ids().chain(inst.update.node_ids()) {
            gen.bump_past(n);
        }

        let mut updates = vec![("intact", inst.update.clone())];
        updates.extend(corruptions(&inst.update, k, &mut gen, &hidden, &labels));
        for (what, update) in &updates {
            let ctx = || format!("{what} update of {}", inst.name);
            assert_eq!(
                session.instance(update).map(drop),
                ref_instance(&session, update),
                "{}",
                ctx()
            );
            let mut v = view.clone();
            let got = apply_in_place(&mut v, update);
            assert_eq!(got, ref_apply_in_place(view, update), "{}", ctx());
            match got {
                Ok(()) => assert_eq!(Some(v), output_tree(update), "{}", ctx()),
                Err(_) => assert_eq!(format!("{v:?}"), format!("{view:?}"), "{}", ctx()),
            }
            scripts += 1;
        }

        let mut props = vec![("intact", prop.script.clone())];
        props.extend(corruptions(&prop.script, k, &mut gen, &hidden, &labels));
        for (what, script) in &props {
            let ctx = || format!("{what} propagation of {}", inst.name);
            let doc = session.document();
            let mut d = doc.clone();
            let got = apply_in_place(&mut d, script);
            assert_eq!(got, ref_apply_in_place(doc, script), "{}", ctx());
            if got.is_ok() {
                assert_eq!(Some(d), output_tree(script), "{}", ctx());
            }

            let mut committed = session.clone();
            let before = format!("{committed:?}");
            let corrupted = Propagation {
                script: script.clone(),
                cost: prop.cost,
                forest: prop.forest.clone(),
            };
            let got = committed.commit(&corrupted);
            assert_eq!(got, ref_commit(&session, script), "{}", ctx());
            if got.is_err() {
                failures += 1;
                assert_eq!(
                    format!("{committed:?}"),
                    before,
                    "a failed commit changed the session: {}",
                    ctx()
                );
            }
            scripts += 1;
        }
    }
    assert!(scripts > 5_000, "only {scripts} scripts checked");
    assert!(failures > 1_000, "only {failures} failed commits checked");
}
