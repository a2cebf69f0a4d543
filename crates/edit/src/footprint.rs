//! Script footprints and the one-walk script check.
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
//! computes it in one pre-order walk that also checks the `Ins`/`Del`
//! closure rules and, in lockstep with a tree `t`, whether `In(S) = t`.
//! [`crate::apply_in_place`], [`crate::check_is_update_of`], and the
//! instance, commit and verification checks of `xvu_propagate` are all
//! that one walk, so a script is read once however many of these facts a
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
        slot.index() < self.size && !self.dirty.contains(slot)
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

/// What one [`check_script`] walk learned about a script: its footprint,
/// its first closure violation, and whether its input tree is the tree it
/// was walked against.
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
    /// walk ran against. `false` without a tree, and when the root
    /// inserts (the input is empty). Meaningful only when
    /// [`ScriptCheck::closure`] holds.
    pub fn input_matches(&self) -> bool {
        self.input_matches
    }
}

/// One pre-order walk of `s`, in lockstep with `t` when given: checks the
/// closure rules, matches `In(S)` against `t`, and computes the
/// footprint, in time linear in `|S|`.
///
/// Every script node is visited once, children pushed reversed so the
/// stack pops them in document order. At each node the walk reads the
/// child list once: each child is checked against the node's op (the
/// closure rules), each non-`Ins` child against `t`'s child at the same
/// input position (the lockstep), and a non-`Nop` child puts the node in
/// the changed list and marks it and its ancestors dirty (up to the first
/// ancestor already marked, so marking costs the dirty region once).
/// Lockstep stops at the first mismatch; the walk goes on, so the
/// footprint and the closure result always cover the whole script.
pub fn check_script(s: &Script, t: Option<&DocTree>) -> ScriptCheck {
    let resolve = |id: NodeId| s.slot(id).expect("script child in script");
    let root = s.root();
    let root_label = s.label(root);
    // Whether every input node walked so far sits at the same place of
    // `t`, with the same identifier and label.
    let mut matching = t.is_some_and(|t| {
        root_label.op != EditOp::Ins && t.root() == root && t.label(root) == root_label.label
    });
    let mut changed = Vec::new();
    let mut dirty = SlotSet::with_capacity(s.size());
    let mut closure = None;
    // (slot, inside a deleted subtree, inside an inserted subtree)
    let mut stack = vec![(resolve(root), false, false)];
    while let Some((slot, in_del, in_ins)) = stack.pop() {
        let node = s.node_at(slot);
        let op = node.label.op;
        let in_del = in_del || op == EditOp::Del;
        let in_ins = in_ins || op == EditOp::Ins;
        // An input node reached while matching is in `t`.
        let t_kids = match t {
            Some(t) if matching && !in_ins => Some((t, t.children(node.id))),
            _ => None,
        };
        let mut ti = 0usize;
        let mut edited_child = false;
        let first = stack.len();
        for &c in &node.children {
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
    ScriptCheck {
        footprint: ScriptFootprint {
            changed,
            dirty,
            size: s.size(),
        },
        closure,
        input_matches: matching,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
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
}
