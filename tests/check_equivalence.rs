//! The slot-order script check reports exactly what the pre-order walk it
//! replaced reported.
//!
//! [`xvu_edit::check_script`] used to walk a script in pre-order, in
//! lockstep with the tree it was checked against. It now scans the
//! script's arena twice in slot order — the non-`Nop` nodes, then every
//! input node against the tree's node of the same identifier — and walks
//! only the dirty region in document order. This file keeps a test-only
//! copy of the pre-order walk and runs both on the same inputs: every
//! update and propagation of the enumerated corpus (against the tree it
//! edits, the other tree, and no tree), single corruptions of each
//! script and of each tree,
//! generated scripts, and scripts whose arena order is not their document
//! order — after committed churn, whose inserts reuse vacated slots, and with
//! fresh-id subtree copies grafted in. On every input the two must agree
//! on the first closure violation, the changed list, whether each slot is
//! clean, and — whenever the closure rules hold, the only case the flag is
//! documented for — whether `In(S) = t`.

use proptest::prelude::*;
use xml_view_update::edit::{check_script, EditError};
use xml_view_update::prelude::*;
use xml_view_update::tree::{Slot, SlotSet};
use xml_view_update::workload::enumo::{enumerate_instances, EnumBudget};
use xml_view_update::workload::{ChurnConfig, ChurnStream};

// ---------------------------------------------------------------------
// The pre-order walk, as it was before the slot-order check.
// ---------------------------------------------------------------------

/// What the pre-order walk computed.
struct RefCheck {
    changed: Vec<NodeId>,
    dirty: SlotSet,
    closure: Option<EditError>,
    input_matches: bool,
}

fn ref_check_script(s: &Script, t: Option<&DocTree>) -> RefCheck {
    let resolve = |id: NodeId| s.slot(id).expect("script child in script");
    let root = s.root();
    let root_label = s.label(root);
    let mut matching = t.is_some_and(|t| {
        root_label.op != EditOp::Ins && t.root() == root && t.label(root) == root_label.label
    });
    let mut changed = Vec::new();
    let mut dirty = SlotSet::with_capacity(s.slot_bound());
    let mut closure = None;
    // (slot, inside a deleted subtree, inside an inserted subtree)
    let mut stack = vec![(resolve(root), false, false)];
    while let Some((slot, in_del, in_ins)) = stack.pop() {
        let node = s.node_at(slot);
        let op = node.label.op;
        let in_del = in_del || op == EditOp::Del;
        let in_ins = in_ins || op == EditOp::Ins;
        let t_kids = match t {
            Some(t) if matching && !in_ins => Some((t, t.children(node.id))),
            _ => None,
        };
        let mut ti = 0usize;
        let mut edited_child = false;
        let first = stack.len();
        for &c in s.children_at(slot) {
            let cslot = resolve(c);
            let cl = s.node_at(cslot).label;
            if closure.is_none() {
                closure = match op {
                    EditOp::Ins if cl.op != EditOp::Ins => Some(EditError::InsClosureViolated(c)),
                    EditOp::Del if cl.op != EditOp::Del => Some(EditError::DelClosureViolated(c)),
                    _ => None,
                };
            }
            edited_child |= cl.op != EditOp::Nop;
            if let Some((t, kids)) = t_kids {
                if cl.op != EditOp::Ins {
                    matching &= kids
                        .get(ti)
                        .is_some_and(|&tc| tc == c && t.label(tc) == cl.label);
                    ti += 1;
                }
            }
            stack.push((cslot, in_del, in_ins));
        }
        stack[first..].reverse();
        if let Some((_, kids)) = t_kids {
            matching &= ti == kids.len();
        }
        if !in_del && (op == EditOp::Ins || edited_child) {
            changed.push(node.id);
        }
        if op != EditOp::Nop || edited_child {
            let mut cur = Some(slot);
            while let Some(cs) = cur {
                if !dirty.insert(cs) {
                    break;
                }
                cur = s.node_at(cs).parent.map(resolve);
            }
        }
    }
    RefCheck {
        changed,
        dirty,
        closure,
        input_matches: matching,
    }
}

// ---------------------------------------------------------------------
// The comparison.
// ---------------------------------------------------------------------

/// How many checks ran, and how many took each branch.
#[derive(Debug, Default)]
struct Tally {
    checks: usize,
    closure_broken: usize,
    matched: usize,
    mismatched: usize,
    /// Scripts whose arena order is not their document order.
    shuffled: usize,
}

/// Checks `s` against `t` (and against no tree) both ways and asserts
/// the results agree.
fn same(s: &Script, t: Option<&DocTree>, what: &str, tally: &mut Tally) {
    let new = check_script(s, t);
    let old = ref_check_script(s, t);
    let fp = new.footprint();
    assert_eq!(new.closure().err(), old.closure, "closure: {what}");
    assert_eq!(fp.changed(), &old.changed[..], "changed: {what}");
    for i in 0..s.slot_bound() + 64 {
        let slot = Slot::new(i as u32);
        let clean = i < s.slot_bound() && !old.dirty.contains(slot);
        assert_eq!(fp.is_clean(slot), clean, "slot {i}: {what}");
    }
    assert_eq!(fp.clean_len(), s.size() - old.dirty.len(), "{what}");
    tally.checks += 1;
    if old.closure.is_some() {
        tally.closure_broken += 1;
    } else {
        assert_eq!(new.input_matches(), old.input_matches, "In(S) = t: {what}");
        if old.input_matches {
            tally.matched += 1;
        } else if t.is_some() {
            tally.mismatched += 1;
        }
    }
    if !s
        .preorder()
        .zip(s.slots())
        .all(|(n, slot)| s.id_at(slot) == n)
    {
        tally.shuffled += 1;
    }
    if t.is_some() {
        same(s, None, what, tally);
        let fp = script_footprint(s);
        assert_eq!(fp.changed(), &old.changed[..], "footprint: {what}");
        assert_eq!(fp.clean_len(), s.size() - old.dirty.len(), "{what}");
    } else {
        assert!(!new.input_matches(), "no tree, no match: {what}");
    }
}

/// `s` and every corruption of it, against `t`.
fn same_with_corruptions(
    s: &Script,
    t: &DocTree,
    k: usize,
    gen: &mut NodeIdGen,
    labels: &[Sym],
    what: &str,
    tally: &mut Tally,
) {
    same(s, Some(t), what, tally);
    let foreign: Vec<NodeId> = t.node_ids().filter(|&n| !s.contains(n)).collect();
    for (how, bad) in corruptions(s, k, gen, labels, &foreign) {
        same(&bad, Some(t), &format!("{how}, {what}"), tally);
    }
    // The tree corrupted instead: pushed down under a new root, or with
    // an extra leaf under its deepest node.
    let mut wrapped = Tree::leaf(gen, t.label(t.root()));
    let top = wrapped.root();
    wrapped.attach_subtree(top, 0, t.clone()).unwrap();
    same(s, Some(&wrapped), &format!("wrapped tree, {what}"), tally);
    let mut extra = t.clone();
    let deepest = t.preorder().max_by_key(|&n| t.depth(n)).unwrap();
    extra.add_child(deepest, gen, t.label(deepest));
    same(
        s,
        Some(&extra),
        &format!("tree with an extra leaf, {what}"),
        tally,
    );
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

fn with_op(s: &Script, target: NodeId, op: EditOp) -> Script {
    relabel_one(s, target, |l| ELabel { op, ..l })
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

/// The corruptions of `tests/error_equivalence.rs` (its hidden
/// identifiers become `foreign`: the tree's identifiers the script does
/// not use), then closure breaks at depth, misplaced siblings and nodes,
/// extra nodes and a wrong root.
fn corruptions(
    s: &Script,
    k: usize,
    gen: &mut NodeIdGen,
    labels: &[Sym],
    foreign: &[NodeId],
) -> Vec<(&'static str, Script)> {
    let nodes: Vec<NodeId> = s.preorder().collect();
    let non_root = &nodes[1..];
    let root = s.root();
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
        out.push(("flipped op", with_op(s, n, next_op(s.label(n).op))));
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
        out.push(("closure violation", with_op(s, n, op)));
    }
    out.push(("ins root", with_op(s, root, EditOp::Ins)));
    out.push(("del root", with_op(s, root, EditOp::Del)));
    let label = labels[k % labels.len()];
    if let Some(h) = pick(foreign, k + 6) {
        let mut reused = s.clone();
        reused
            .add_child_with_id(root, h, ELabel::ins(label))
            .unwrap();
        out.push(("reused id", reused.clone()));
        // A second one, placed first.
        if let Some(h2) = foreign.iter().copied().find(|&x| x != h) {
            let leaf = Tree::leaf_with_id(h2, ELabel::ins(label));
            reused.attach_subtree(root, 0, leaf).unwrap();
            out.push(("reused ids", reused));
        }
    }
    if let Some(n) = pick(non_root, k + 7) {
        let parent = s.parent(n).unwrap();
        let pos = s.children(parent).iter().position(|&c| c == n).unwrap();
        let mut extra = s.clone();
        let leaf = Tree::leaf(gen, ELabel::ins(s.label(n).label));
        extra.attach_subtree(parent, pos, leaf).unwrap();
        out.push(("inserted sibling", extra));
    }

    // Closure breaks at depth: the deepest parent turns `Del` or `Ins`
    // over children that keep their ops, and a deep subtree deletes (or
    // inserts) whole but for its first child, which does the other.
    let depth = |n: NodeId| s.depth(n);
    if let Some(&deep) = parents.iter().max_by_key(|&&n| (depth(n), n)) {
        let op = if k.is_multiple_of(3) {
            EditOp::Ins
        } else {
            EditOp::Del
        };
        out.push(("deep closure violation", with_op(s, deep, op)));
        let first = s.children(deep)[0];
        for (outer, inner, how) in [
            (
                ELabel::del as fn(Sym) -> ELabel,
                ELabel::ins as fn(Sym) -> ELabel,
                "ins under del",
            ),
            (ELabel::ins, ELabel::del, "del under ins"),
        ] {
            let mut bad = s.clone();
            bad.relabel_subtree(deep, |l| outer(l.label)).unwrap();
            bad.relabel_subtree(first, |l| inner(l.label)).unwrap();
            out.push((how, bad));
        }
    }
    // A deep op flip under a non-`Nop` parent.
    if let Some(&n) = non_root
        .iter()
        .filter(|&&n| s.label(s.parent(n).unwrap()).op != EditOp::Nop)
        .max_by_key(|&&n| (depth(n), n))
    {
        out.push(("deep flipped op", with_op(s, n, next_op(s.label(n).op))));
    }
    // Two siblings swapped.
    let wide: Vec<NodeId> = parents
        .iter()
        .copied()
        .filter(|&n| s.children(n).len() >= 2)
        .collect();
    if let Some(n) = pick(&wide, k + 8) {
        let mut order = s.children(n).to_vec();
        let i = k % (order.len() - 1);
        order.swap(i, i + 1);
        let mut swapped = s.clone();
        swapped.reorder_children(n, &order).unwrap();
        out.push(("swapped siblings", swapped));
    }
    // A node moved under another parent outside its subtree.
    if let Some(n) = pick(non_root, k + 9) {
        let outside: Vec<NodeId> = nodes
            .iter()
            .copied()
            .filter(|&p| p != s.parent(n).unwrap() && !s.preorder_from(n).any(|d| d == p))
            .collect();
        if let Some(p) = pick(&outside, k) {
            let mut moved = s.clone();
            let sub = moved.detach_subtree(n).unwrap();
            let pos = moved.children(p).len();
            moved.attach_subtree(p, pos, sub).unwrap();
            out.push(("re-parented node", moved));
        }
    }
    // An extra input node: a fresh `Nop` or `Del` leaf.
    if let Some(n) = pick(&nodes, k + 10) {
        for (how, op) in [
            ("extra nop node", EditOp::Nop),
            ("extra del node", EditOp::Del),
        ] {
            let mut extra = s.clone();
            let leaf = Tree::leaf(
                gen,
                ELabel {
                    op,
                    label: s.label(n).label,
                },
            );
            let pos = k % (extra.children(n).len() + 1);
            extra.attach_subtree(n, pos, leaf).unwrap();
            out.push((how, extra));
        }
    }
    // A wrong root: renamed, or pushed down under a new root.
    let fresh = gen.fresh();
    out.push((
        "renamed root",
        rename(s, |n| if n == root { fresh } else { n }),
    ));
    let mut wrapped = Tree::leaf(gen, s.label(root));
    let top = wrapped.root();
    wrapped.attach_subtree(top, 0, s.clone()).unwrap();
    out.push(("wrapped root", wrapped));
    out
}

/// Grafts a fresh-id copy of `t`'s subtree at `from` as the first child of
/// `at`, into `t` and (as `Nop` nodes) into `s`: `In(S) = t` still holds
/// if it did, but the copies sit at the end of both arenas.
fn graft(
    s: &Script,
    t: &DocTree,
    at: NodeId,
    from: NodeId,
    gen: &mut NodeIdGen,
) -> (Script, DocTree) {
    let copy = t.subtree(from).with_fresh_ids(gen);
    let (mut s2, mut t2) = (s.clone(), t.clone());
    s2.attach_subtree(at, 0, copy.map_labels(|_, &l| ELabel::nop(l)))
        .unwrap();
    t2.attach_subtree(at, 0, copy).unwrap();
    (s2, t2)
}

// ---------------------------------------------------------------------
// The tests.
// ---------------------------------------------------------------------

/// Every update and propagation of the enumerated corpus, against the
/// tree it edits, the other tree and no tree, and every single
/// corruption of each against the tree it edits.
#[test]
fn corpus_scripts_check_as_the_pre_order_walk_checked_them() {
    let instances = enumerate_instances(&EnumBudget::default());
    assert!(instances.len() >= 200, "only {} instances", instances.len());
    let mut tally = Tally::default();
    for (k, inst) in instances.iter().enumerate() {
        let engine = Engine::new(inst.alpha.clone(), inst.dtd.clone(), inst.ann.clone());
        let session = engine
            .open(&inst.doc)
            .expect("enumerated documents are valid");
        let (view, doc) = (session.view(), session.document());
        let labels: Vec<Sym> = (0..inst.alpha.len()).map(Sym::from_index).collect();
        let mut gen = session.id_gen();
        for n in inst.update.node_ids() {
            gen.bump_past(n);
        }
        let name = &inst.name;
        same_with_corruptions(&inst.update, view, k, &mut gen, &labels, name, &mut tally);
        same(
            &inst.update,
            Some(doc),
            &format!("update vs doc, {name}"),
            &mut tally,
        );
        let Ok(prop) = session.propagate(&inst.update) else {
            continue;
        };
        for n in prop.script.node_ids() {
            gen.bump_past(n);
        }
        let what = format!("propagation, {name}");
        same_with_corruptions(&prop.script, doc, k, &mut gen, &labels, &what, &mut tally);
        same(
            &prop.script,
            Some(view),
            &format!("propagation vs view, {name}"),
            &mut tally,
        );
    }
    eprintln!("corpus check equivalence: {tally:?}");
    assert!(tally.checks > 20_000, "{tally:?}");
    assert!(
        tally.matched > 500 && tally.mismatched > 5_000 && tally.closure_broken > 1_000,
        "{tally:?}"
    );
}

/// Scripts whose arena order is not their document order: churn streams
/// committed edit by edit (a detach leaves vacant slots that later inserts
/// reuse, and the propagation script copies the document's arena), and
/// fresh-id subtree copies grafted into script and tree.
#[test]
fn shuffled_arenas_check_as_the_pre_order_walk_checked_them() {
    let instances = enumerate_instances(&EnumBudget::default());
    let mut tally = Tally::default();
    for (k, inst) in instances.iter().enumerate().step_by(3) {
        let engine = Engine::new(inst.alpha.clone(), inst.dtd.clone(), inst.ann.clone());
        let mut session = engine.open(&inst.doc).expect("valid");
        let labels: Vec<Sym> = (0..inst.alpha.len()).map(Sym::from_index).collect();
        let mut stream = ChurnStream::for_enumerated(inst, ChurnConfig::default(), 7);
        for step in 0..6 {
            let mut gen = session.id_gen();
            let update = stream.next_update(session.document(), &mut gen);
            let Ok(prop) = session.propagate(&update) else {
                break;
            };
            for n in update.node_ids().chain(prop.script.node_ids()) {
                gen.bump_past(n);
            }
            let what = format!("step {step} of {}", inst.name);
            let (view, doc) = (session.view(), session.document());
            same_with_corruptions(
                &update,
                view,
                k + step,
                &mut gen,
                &labels,
                &what,
                &mut tally,
            );
            same_with_corruptions(
                &prop.script,
                doc,
                k + step,
                &mut gen,
                &labels,
                &what,
                &mut tally,
            );
            // a grafted copy of the document's last node in pre-order,
            // under the root and under the deepest input node
            let last = doc.preorder().last().unwrap();
            let deepest = doc.preorder().max_by_key(|&n| doc.depth(n)).unwrap();
            for at in [doc.root(), deepest] {
                let (s2, t2) = graft(&prop.script, doc, at, last, &mut gen);
                same(&s2, Some(&t2), &format!("graft, {what}"), &mut tally);
                same(
                    &s2,
                    Some(doc),
                    &format!("graft vs old doc, {what}"),
                    &mut tally,
                );
            }
            session.commit(&prop).expect("a propagation commits");
        }
    }
    eprintln!("shuffled check equivalence: {tally:?}");
    assert!(tally.shuffled > 1_000, "{tally:?}");
    assert!(tally.matched > 200 && tally.mismatched > 1_000, "{tally:?}");
}

/// Strategy: a random tree shape over labels {a, b, c} as a term, at most
/// 40 nodes.
fn arb_term() -> impl Strategy<Value = String> {
    let leaf = prop::sample::select(vec!["a", "b", "c"]).prop_map(str::to_owned);
    leaf.prop_recursive(4, 40, 4, |inner| {
        (
            prop::sample::select(vec!["a", "b", "c"]),
            prop::collection::vec(inner, 1..4),
        )
            .prop_map(|(l, kids)| format!("{l}({})", kids.join(", ")))
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Generated scripts — a random shape with an op per node, as drawn
    /// and with the closure rules imposed top-down — against their own
    /// input, a tree of the same shape, a relabelled tree and no tree,
    /// each also with its arena reversed.
    #[test]
    fn generated_scripts_check_as_the_pre_order_walk_checked_them(
        src in arb_term(),
        ops in prop::collection::vec(0usize..6, 1..12),
        k in 0usize..1_000,
    ) {
        let mut alpha = Alphabet::new();
        let mut gen = NodeIdGen::new();
        let t = parse_term(&mut alpha, &mut gen, &src).unwrap();
        let order: Vec<NodeId> = t.preorder().collect();
        // ops 0..3 are Nop, so most scripts stay mostly clean
        let op_of = |i: usize| match ops[i % ops.len()] {
            3 => EditOp::Del,
            4 => EditOp::Ins,
            _ => EditOp::Nop,
        };
        let drawn = t.map_labels(|n, &l| ELabel {
            op: op_of(order.iter().position(|&m| m == n).unwrap()),
            label: l,
        });
        let mut closed = drawn.clone();
        for &n in &order {
            if let Some(p) = closed.parent(n) {
                let pop = closed.label(p).op;
                if pop != EditOp::Nop {
                    closed.relabel_subtree(n, |l| ELabel { op: pop, ..*l }).unwrap();
                }
            }
        }
        let labels: Vec<Sym> = (0..alpha.len()).map(Sym::from_index).collect();
        let mut tally = Tally::default();
        for s in [&drawn, &closed] {
            let reversed = reverse_arena(s);
            for s in [s, &reversed] {
                same(s, Some(&t), "against the shape", &mut tally);
                same(s, Some(&reverse_arena(&t)), "against the reversed shape", &mut tally);
                if let Some(input) = input_tree(s) {
                    same(s, Some(&input), "against its input", &mut tally);
                    same_with_corruptions(s, &input, k, &mut gen, &labels, "generated", &mut tally);
                }
                let other = labels[k % labels.len()];
                let relabelled = t.map_labels(|n, &l| if n == order[k % order.len()] { other } else { l });
                same(s, Some(&relabelled), "against a relabelled shape", &mut tally);
            }
        }
        prop_assert!(tally.checks > 0);
    }
}

/// A copy of `t` with the same nodes in the reverse arena order.
fn reverse_arena<L: Copy>(t: &Tree<L>) -> Tree<L> {
    let mut out = Tree::leaf_with_id(t.root(), t.label(t.root()));
    let mut nodes: Vec<NodeId> = t.preorder().skip(1).collect();
    nodes.reverse();
    // Attach each node under its parent once the parent exists: walk the
    // reversed list repeatedly (inputs are small).
    let mut placed = vec![t.root()];
    while !nodes.is_empty() {
        nodes.retain(|&n| {
            let p = t.parent(n).unwrap();
            if !placed.contains(&p) {
                return true;
            }
            out.add_child_with_id(p, n, t.label(n)).unwrap();
            placed.push(n);
            false
        });
    }
    // Children were appended in reverse; put them back in order.
    for n in t.preorder() {
        out.reorder_children(n, t.children(n)).unwrap();
    }
    out
}
