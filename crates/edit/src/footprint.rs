//! Script footprints and the slot-order script check.
//!
//! Incremental machinery on both sides of the pipeline needs the same
//! analysis of an editing script `S`:
//!
//! * **revalidation** (`xvu_propagate::revalidate_output`) re-checks
//!   exactly the nodes whose child word can have changed — parents of
//!   non-`Nop` children plus every node of an inserted subtree, with
//!   deleted subtrees skipped whole;
//! * **propagation caching** reuses per-node dynamic-programming state for
//!   every node *outside* the update's footprint — the nodes whose whole
//!   subtree is `Nop`.
//!
//! [`ScriptFootprint`] holds both views of the footprint and is the single
//! source of truth for "what did this script touch". [`check_script`]
//! computes it together with the `Ins`/`Del` closure rules and, against a
//! tree `t`, whether `In(S) = t`. It reads the script's arena in slot
//! order, once to find the non-`Nop` nodes and once more to match the
//! input nodes against `t` by identifier, and walks only the dirty region
//! (the non-`Nop` nodes and their ancestors) in document order. Its cost
//! is one arena scan per pass plus the dirty region, and the arena scan
//! is a plain read of a contiguous slab, not a pointer chase.
//! [`crate::apply_in_place`], [`crate::check_is_update_of`], and the
//! instance, commit and verification checks of `xvu_propagate` all share
//! that one check, so a script is read once however many of these facts a
//! caller needs.

use crate::error::EditError;
use crate::op::EditOp;
use crate::script::Script;
use xvu_tree::{DocTree, NodeId, Slot, SlotSet};

/// The footprint of one editing script: which nodes it touches and which
/// subtrees it provably leaves alone.
///
/// Both tables are keyed by the script they were computed from; the
/// [`Slot`]-based queries are only meaningful for that same (unmutated)
/// script value.
#[derive(Clone, Debug)]
pub struct ScriptFootprint {
    /// Nodes whose child word changes in `Out(S)` plus all inserted
    /// nodes, in document order, with deleted subtrees skipped whole.
    /// These are exactly the nodes an incremental schema check must
    /// revisit.
    changed: Vec<NodeId>,
    /// Script slots whose subtree holds a non-`Nop` node: the non-`Nop`
    /// nodes and their ancestors. Every other slot is clean.
    dirty: SlotSet,
    /// The script's slot bound: every live script slot is below it.
    bound: usize,
    /// Number of script nodes.
    size: usize,
}

impl ScriptFootprint {
    /// The nodes an incremental output validation must re-check: every
    /// inserted node and every surviving node with at least one non-`Nop`
    /// child, in document order. Nodes inside deleted subtrees are never
    /// listed (they do not exist in the output).
    pub fn changed(&self) -> &[NodeId] {
        &self.changed
    }

    /// Whether the subtree rooted at the script node occupying `slot` is
    /// entirely `Nop` — i.e. the script provably does not touch it.
    pub fn is_clean(&self, slot: Slot) -> bool {
        slot.index() < self.bound && !self.dirty.contains(slot)
    }

    /// Number of clean (entirely-`Nop`) subtree roots.
    pub fn clean_len(&self) -> usize {
        self.size - self.dirty.len()
    }
}

/// Computes the [`ScriptFootprint`] of `s` ([`check_script`] without a
/// tree).
///
/// The analysis is purely structural and does not require `s` to satisfy
/// the `Ins`/`Del` closure discipline ([`crate::validate_script`] checks
/// that separately); deleted subtrees are skipped whole regardless of
/// their contents.
pub fn script_footprint(s: &Script) -> ScriptFootprint {
    check_script(s, None).into_footprint()
}

/// What one [`check_script`] learned about a script: its footprint, its
/// first closure violation, and whether its input tree is the tree it was
/// checked against.
#[derive(Clone, Debug)]
pub struct ScriptCheck {
    footprint: ScriptFootprint,
    closure: Option<EditError>,
    input_matches: bool,
}

impl ScriptCheck {
    /// The script's footprint (computed whatever the other results).
    pub fn footprint(&self) -> &ScriptFootprint {
        &self.footprint
    }

    /// The footprint, by value.
    pub fn into_footprint(self) -> ScriptFootprint {
        self.footprint
    }

    /// The `Ins`/`Del` closure rules: the first violation in the order
    /// [`crate::validate_script`] reports it — parents in pre-order, each
    /// parent's children in sibling order.
    pub fn closure(&self) -> Result<(), EditError> {
        self.closure.clone().map_or(Ok(()), Err)
    }

    /// Whether `In(S) = t` exactly — identifiers, labels and structure,
    /// including the contents of deleted subtrees — for the tree `t` the
    /// check ran against. `false` without a tree, and when the root
    /// inserts (the input is empty). Meaningful only when
    /// [`ScriptCheck::closure`] holds.
    pub fn input_matches(&self) -> bool {
        self.input_matches
    }
}

/// Checks `s` against `t` when given: the closure rules, whether
/// `In(S) = t`, and the footprint, in time linear in `|S|` with a small
/// constant — two scans of the script's arena in slot order plus a walk of
/// the dirty region.
///
/// * **Pass 1** visits the non-`Nop` nodes: each marks its parent
///   *edited* and itself and its ancestors dirty, up to the first ancestor
///   already marked, so marking costs the dirty region once.
/// * **Pass 2**, only with a tree, matches each input (non-`Ins`) node
///   with `t`'s node of the same identifier: the label, then the child
///   list — one slice compare, or, for an edited node, its non-`Ins`
///   children in order. With equal roots, every input node found in place
///   means `In(S) = t`: the matched child lists reach every input node
///   from the root, and a node of `t` outside `In(S)` would hang under an
///   input node whose child list then differs. The size test
///   `|S| − #Ins = |t|` follows from that; it runs first, so a tree of the
///   wrong size costs no scan. The pass stops at the first mismatch.
/// * **The walk** visits the dirty nodes in document order, children
///   pushed reversed, and lists the changed nodes. Every closure violation
///   sits at a non-`Nop` parent, which is dirty, so the walk also finds
///   the first violation in [`crate::validate_script`]'s order.
///
/// The footprint and the closure result always cover the whole script.
pub fn check_script(s: &Script, t: Option<&DocTree>) -> ScriptCheck {
    let resolve = |id: NodeId| s.slot(id).expect("script node in script");
    let (size, bound) = (s.size(), s.slot_bound());
    let mut dirty = SlotSet::with_capacity(bound);
    let mut edited = SlotSet::with_capacity(bound);
    let mut inserted = 0usize;
    for slot in s.slots() {
        let node = s.node_at(slot);
        match node.label.op {
            EditOp::Nop => continue,
            EditOp::Ins => inserted += 1,
            EditOp::Del => {}
        }
        if let Some(p) = node.parent {
            edited.insert(resolve(p));
        }
        let mut cur = Some(slot);
        while let Some(cs) = cur {
            if !dirty.insert(cs) {
                break;
            }
            cur = s.node_at(cs).parent.map(resolve);
        }
    }
    let input_matches = t.is_some_and(|t| {
        let root = s.root();
        s.label(root).op != EditOp::Ins
            && t.root() == root
            && size - inserted == t.size()
            && s.slots().all(|slot| {
                let node = s.node_at(slot);
                node.label.op == EditOp::Ins
                    || t.slot(node.id).is_some_and(|ts| {
                        let (list, t_list) = (s.children_at(slot), t.children_at(ts));
                        t.node_at(ts).label == node.label.label
                            && if edited.contains(slot) {
                                list.iter()
                                    .filter(|&&c| s.node_at(resolve(c)).label.op != EditOp::Ins)
                                    .eq(t_list)
                            } else {
                                list == t_list
                            }
                    })
            })
    });
    let mut changed = Vec::new();
    let mut closure = None;
    let root = resolve(s.root());
    // (slot, inside a deleted subtree)
    let mut stack = Vec::new();
    if dirty.contains(root) {
        stack.push((root, false));
    }
    while let Some((slot, in_del)) = stack.pop() {
        let node = s.node_at(slot);
        let op = node.label.op;
        let in_del = in_del || op == EditOp::Del;
        if !in_del && (op == EditOp::Ins || edited.contains(slot)) {
            changed.push(node.id);
        }
        let first = stack.len();
        for &c in s.children_at(slot) {
            let cslot = resolve(c);
            if closure.is_none() && op != EditOp::Nop {
                let cop = s.node_at(cslot).label.op;
                closure = match op {
                    EditOp::Ins if cop != EditOp::Ins => Some(EditError::InsClosureViolated(c)),
                    EditOp::Del if cop != EditOp::Del => Some(EditError::DelClosureViolated(c)),
                    _ => None,
                };
            }
            if dirty.contains(cslot) {
                stack.push((cslot, in_del));
            }
        }
        stack[first..].reverse();
    }
    ScriptCheck {
        footprint: ScriptFootprint {
            changed,
            dirty,
            bound,
            size,
        },
        closure,
        input_matches,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::script::{input_tree, output_tree};
    use crate::term::parse_script;
    use xvu_tree::Alphabet;

    fn slot_of(s: &Script, id: u64) -> Slot {
        s.slot(NodeId(id)).unwrap()
    }

    #[test]
    fn identity_script_is_all_clean() {
        let mut alpha = Alphabet::new();
        let s = parse_script(&mut alpha, "nop:r#0(nop:a#1(nop:b#2), nop:c#3)").unwrap();
        let fp = script_footprint(&s);
        assert!(fp.changed().is_empty());
        assert_eq!(fp.clean_len(), 4);
        for id in [0, 1, 2, 3] {
            assert!(fp.is_clean(slot_of(&s, id)));
        }
    }

    #[test]
    fn edits_dirty_exactly_the_path_to_root() {
        // r(a(b, ins:x), c): the insert dirties a and r; b and c stay clean.
        let mut alpha = Alphabet::new();
        let s = parse_script(&mut alpha, "nop:r#0(nop:a#1(nop:b#2, ins:x#4), nop:c#3)").unwrap();
        let fp = script_footprint(&s);
        assert_eq!(fp.changed(), &[NodeId(1), NodeId(4)]);
        assert!(!fp.is_clean(slot_of(&s, 0)));
        assert!(!fp.is_clean(slot_of(&s, 1)));
        assert!(!fp.is_clean(slot_of(&s, 4)));
        assert!(fp.is_clean(slot_of(&s, 2)));
        assert!(fp.is_clean(slot_of(&s, 3)));
    }

    #[test]
    fn deleted_subtrees_are_skipped_whole() {
        // Nested non-Del inside a Del subtree (malformed w.r.t. the
        // closure discipline) must still be skipped whole: those nodes are
        // not part of the output.
        let mut alpha = Alphabet::new();
        let s = parse_script(&mut alpha, "nop:r#0(del:a#1(ins:x#2, nop:b#3), nop:c#4)").unwrap();
        let fp = script_footprint(&s);
        assert_eq!(fp.changed(), &[NodeId(0)]); // only the cut-point parent
        assert!(!fp.is_clean(slot_of(&s, 1)));
        assert!(!fp.is_clean(slot_of(&s, 2)));
    }

    #[test]
    fn inserted_subtrees_are_changed_throughout() {
        let mut alpha = Alphabet::new();
        let s = parse_script(&mut alpha, "nop:r#0(ins:a#1(ins:b#2(ins:c#3)))").unwrap();
        let fp = script_footprint(&s);
        assert_eq!(fp.changed(), &[NodeId(0), NodeId(1), NodeId(2), NodeId(3)]);
        assert_eq!(fp.clean_len(), 0);
    }

    #[test]
    fn changed_set_is_in_document_order() {
        let mut alpha = Alphabet::new();
        let s = parse_script(
            &mut alpha,
            "nop:r#0(nop:a#1(del:x#5), nop:b#2(ins:y#6), nop:c#3)",
        )
        .unwrap();
        let fp = script_footprint(&s);
        assert_eq!(fp.changed(), &[NodeId(1), NodeId(2), NodeId(6)]);
    }

    #[test]
    fn changed_nop_parents_and_their_ancestors_are_the_changed_subtrees() {
        // What a commit re-interns: each changed `Nop` node of the
        // footprint and its ancestors, all `Nop`, are exactly the nodes of
        // both `In(S)` and `Out(S)` whose subtree differs between the two.
        let mut alpha = Alphabet::new();
        for term in [
            "nop:r#0(del:a#1, del:d#3(del:c#8), nop:a#4, \
             ins:d#11(ins:c#13, ins:c#14), ins:a#12, nop:d#6(nop:c#10, ins:c#15))",
            "nop:r#0(nop:a#1(nop:b#2(del:c#3), nop:d#4), nop:e#5(nop:f#6))",
            "nop:r#0(nop:a#1(nop:b#2, ins:x#9(ins:y#10)), nop:c#3(nop:d#4(del:e#5)))",
            "nop:r#0(nop:a#1, nop:b#2)",
        ] {
            let s = parse_script(&mut alpha, term).unwrap();
            let mut region = Vec::new();
            for &n in script_footprint(&s).changed() {
                let mut cur = Some(n).filter(|&n| s.label(n).op == EditOp::Nop);
                while let Some(a) = cur {
                    assert_eq!(s.label(a).op, EditOp::Nop, "{term}");
                    if !region.contains(&a) {
                        region.push(a);
                    }
                    cur = s.parent(a);
                }
            }
            region.sort();
            let (input, output) = (input_tree(&s).unwrap(), output_tree(&s).unwrap());
            let mut differ: Vec<NodeId> = input
                .node_ids()
                .filter(|&n| output.contains(n) && input.subtree(n) != output.subtree(n))
                .collect();
            differ.sort();
            assert_eq!(region, differ, "{term}");
        }
    }
}
