//! Document typings Θ and typing-preservation reports (paper §5).
//!
//! The paper proposes selecting propagations "which do not change the
//! types of nodes that are preserved by the update", typing nodes by the
//! states of the (deterministic) automaton validating the parent's child
//! sequence. We strengthen this slightly: types are the states of the
//! **minimised** DFA of the content model — the Myhill–Nerode classes of
//! the left quotient — which are representation-independent (Glushkov vs
//! hand-minimised automata agree) and defined for *every* content model,
//! deterministic or not.
//!
//! [`typing_report`] measures preservation for any script: for every node
//! present in both `In(S')` and `Out(S')`, compare the canonical state
//! reached just before the node in the parent's run.
//! [`Selector::PreferTypePreserving`](crate::Selector) steers the path
//! walk toward edges whose `preserves_type` flag is set (a finer,
//! NFA-state-level heuristic); the report is the ground-truth measurement
//! of what it achieved.

use xvu_automata::Dfa;
use xvu_dtd::Dtd;
use xvu_edit::{input_tree, output_tree, Script};
use xvu_tree::{DocTree, SlotMap};

/// Result of comparing node types between a script's input and output.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TypingReport {
    /// Surviving nodes whose type is unchanged.
    pub preserved: usize,
    /// Surviving nodes whose type changed.
    pub changed: usize,
}

impl TypingReport {
    /// Whether the script preserves the Θ-typing of all surviving nodes.
    pub fn fully_preserved(&self) -> bool {
        self.changed == 0
    }
}

/// Computes the typing report of `script` w.r.t. `dtd`. `alphabet_len`
/// bounds the symbol indices used by the DTD's content models.
pub fn typing_report(dtd: &Dtd, alphabet_len: usize, script: &Script) -> TypingReport {
    let (Some(input), Some(output)) = (input_tree(script), output_tree(script)) else {
        return TypingReport::default();
    };
    // Minimised-DFA cache, indexed densely by symbol.
    let mut dfas: Vec<Option<Dfa>> = Vec::new();
    dfas.resize_with(alphabet_len, || None);
    let tin = type_map(dtd, alphabet_len, &input, &mut dfas);
    let tout = type_map(dtd, alphabet_len, &output, &mut dfas);
    let mut report = TypingReport::default();
    // The two maps are keyed by each tree's own slots; persistent
    // identifiers carry the correspondence between them.
    for (slot_in, &state_in) in tin.iter() {
        let id = input.id_at(slot_in);
        let Some(slot_out) = output.slot(id) else {
            continue;
        };
        let Some(&state_out) = tout.get(slot_out) else {
            continue;
        };
        if state_in == state_out {
            report.preserved += 1;
        } else {
            report.changed += 1;
        }
    }
    report
}

/// Types every non-root node of `t` by the canonical (minimised-DFA)
/// content-model state reached before it in its parent's run, keyed by
/// the node's slot in `t`. Nodes whose run dies (invalid trees) are left
/// untyped.
fn type_map(dtd: &Dtd, alphabet_len: usize, t: &DocTree, dfas: &mut [Option<Dfa>]) -> SlotMap<u32> {
    let mut map = SlotMap::with_capacity(t.slot_bound());
    for p in t.preorder() {
        let label = t.label(p);
        let dfa = dfas[label.index()].get_or_insert_with(|| {
            Dfa::determinize(dtd.content_model(label), alphabet_len).minimize()
        });
        let mut q = Some(dfa.start());
        for &c in t.children(p) {
            let Some(state) = q else { break };
            map.insert(t.slot(c).expect("child in tree"), state.0);
            q = dfa.step(state, t.label(c));
        }
    }
    map
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithm::{propagate, Config};
    use crate::fixtures;
    use crate::instance::Instance;
    use crate::selection::Selector;
    use xvu_dtd::{parse_dtd, InsertletPackage};
    use xvu_edit::{nop_script, parse_script};
    use xvu_tree::{parse_term_with_ids, Alphabet, NodeIdGen};

    #[test]
    fn identity_script_fully_preserves_typing() {
        let fx = fixtures::paper_running_example();
        let s = nop_script(&fx.t0);
        let report = typing_report(&fx.dtd, fx.alpha.len(), &s);
        assert!(report.fully_preserved());
        assert_eq!(report.preserved, fx.t0.size() - 1); // every non-root
    }

    #[test]
    fn paper_propagation_typing_report() {
        let fx = fixtures::paper_running_example();
        let inst = Instance::new(&fx.dtd, &fx.ann, &fx.t0, &fx.s0, fx.alpha.len()).unwrap();
        for sel in [Selector::PreferNop, Selector::PreferTypePreserving] {
            let cfg = Config {
                selector: sel,
                ..Config::default()
            };
            let prop = propagate(&inst, &InsertletPackage::new(), &cfg).unwrap();
            let report = typing_report(&fx.dtd, fx.alpha.len(), &prop.script);
            // Surviving nodes: a4, c5 (under r) and d6 with b9, c10.
            // Under canonical Myhill–Nerode typing the optimal paths keep
            // every survivor's type here.
            assert!(report.fully_preserved(), "selector {sel:?}: {report:?}");
            assert_eq!(report.preserved, 5, "selector {sel:?}");
        }
    }

    #[test]
    fn detects_type_changes() {
        // r → a.b + b.a, both orders allowed; a script swapping sides
        // moves the surviving node to a different state.
        let mut alpha = Alphabet::new();
        let dtd = parse_dtd(&mut alpha, "r -> a.b + b.a").unwrap();
        // Glushkov of a.b + b.a is deterministic (distinct first symbols).
        let mut gen = NodeIdGen::new();
        let _t = parse_term_with_ids(&mut alpha, &mut gen, "r#0(a#1, b#2)").unwrap();
        let s = parse_script(&mut alpha, "nop:r#0(ins:b#5, nop:a#1, del:b#2)").unwrap();
        let report = typing_report(&dtd, alpha.len(), &s);
        // a#1 moved from first (start state) to second position.
        assert_eq!(report.changed, 1);
        assert!(!report.fully_preserved());
    }

    #[test]
    fn typing_is_representation_independent() {
        // Equivalent content models (different automata) give identical
        // reports, because types are minimised-DFA states.
        let mut alpha = Alphabet::new();
        let d1 = parse_dtd(&mut alpha, "r -> (a.b)*").unwrap();
        let d2 = parse_dtd(&mut alpha, "r -> ((a.b)*)*.((a.b)?)").unwrap();
        let mut gen = NodeIdGen::new();
        let _t = parse_term_with_ids(&mut alpha, &mut gen, "r#0(a#1, b#2)").unwrap();
        let s = parse_script(&mut alpha, "nop:r#0(nop:a#1, nop:b#2, ins:a#5, ins:b#6)").unwrap();
        let r1 = typing_report(&d1, alpha.len(), &s);
        let r2 = typing_report(&d2, alpha.len(), &s);
        assert_eq!(r1, r2);
        assert!(r1.fully_preserved());
    }
}
