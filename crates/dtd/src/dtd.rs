//! The DTD type and tree validation.

use crate::error::DtdError;
use xvu_automata::{glushkov, Nfa, Regex, StateId, StateSets};
use xvu_tree::{DocTree, NodeId, Sym};

/// A Document Type Definition: `D : Σ → NFA`.
///
/// Labels without an explicit rule have the default content model `ε`
/// (leaves only) — the paper's convention "if for a symbol `a` no rule is
/// given, then `a → ε` is assumed". No root label is imposed, so arbitrary
/// tree fragments can be validated.
#[derive(Clone, Debug)]
pub struct Dtd {
    /// `rules[a.index()]` is `a`'s content model, if it has an explicit
    /// rule (a dense table: validation looks one up per node).
    rules: Vec<Option<Nfa>>,
    /// Shared default automaton accepting exactly the empty word.
    eps: Nfa,
}

/// A single validation violation: the node whose child word is not in its
/// label's content model.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Violation {
    /// The offending node.
    pub node: NodeId,
    /// Its label.
    pub label: Sym,
    /// Its child-label word.
    pub child_word: Vec<Sym>,
}

impl Default for Dtd {
    fn default() -> Dtd {
        Dtd::new()
    }
}

impl Dtd {
    /// An empty DTD: every label is a leaf (`a → ε` for all `a`).
    pub fn new() -> Dtd {
        let mut eps = Nfa::new(1, StateId(0));
        eps.set_accepting(StateId(0), true);
        Dtd {
            rules: Vec::new(),
            eps,
        }
    }

    /// Sets the content model of `label` from a regular expression
    /// (Glushkov construction).
    pub fn set_rule(&mut self, label: Sym, content: &Regex) {
        self.set_rule_nfa(label, glushkov(content));
    }

    /// Sets the content model of `label` directly as an automaton.
    pub fn set_rule_nfa(&mut self, label: Sym, nfa: Nfa) {
        if self.rules.len() <= label.index() {
            self.rules.resize(label.index() + 1, None);
        }
        self.rules[label.index()] = Some(nfa);
    }

    /// Whether `label` has an explicit rule.
    pub fn has_rule(&self, label: Sym) -> bool {
        self.rules.get(label.index()).is_some_and(Option::is_some)
    }

    /// The content model of `label` — the automaton `D(a)`. Labels without
    /// an explicit rule yield the `ε` automaton.
    pub fn content_model(&self, label: Sym) -> &Nfa {
        match self.rules.get(label.index()) {
            Some(Some(nfa)) => nfa,
            _ => &self.eps,
        }
    }

    /// Iterates over labels with explicit rules, in symbol order.
    pub fn ruled_labels(&self) -> impl Iterator<Item = Sym> + '_ {
        self.explicit_rules().map(|(label, _)| label)
    }

    /// The explicit rules, in symbol order.
    fn explicit_rules(&self) -> impl Iterator<Item = (Sym, &Nfa)> {
        self.rules
            .iter()
            .enumerate()
            .filter_map(|(i, nfa)| Some((Sym::from_index(i), nfa.as_ref()?)))
    }

    /// The paper's size measure: sum of the sizes of all automata used.
    pub fn size(&self) -> usize {
        self.explicit_rules().map(|(_, nfa)| nfa.size()).sum()
    }

    /// Labels whose content-model automaton is nondeterministic.
    ///
    /// W3C DTDs require 1-unambiguous content models (whose Glushkov
    /// automata are deterministic); the paper's typing-based selection
    /// (§5) also assumes determinism. This reports violations for
    /// diagnostics — the propagation machinery itself works for arbitrary
    /// NFAs.
    pub fn nondeterministic_labels(&self) -> Vec<Sym> {
        self.explicit_rules()
            .filter(|(_, nfa)| !nfa.is_deterministic())
            .map(|(label, _)| label)
            .collect()
    }

    /// Whether `t ∈ L(D)` (every node's child word is in its content
    /// model). `L(D)` contains only non-empty trees, which the tree type
    /// guarantees structurally.
    ///
    /// One scan of the arena in slot order, reading each child word in
    /// place and reusing one pair of state sets: no allocation per node.
    pub fn is_valid(&self, t: &DocTree) -> bool {
        let mut sets = StateSets::default();
        t.slots().all(|s| {
            let word = t.children_at(s).iter().map(|&c| t.label(c));
            self.content_model(t.node_at(s).label)
                .accepts_with(word, &mut sets)
        })
    }

    /// Validates `t`, returning the first violation in document order.
    pub fn validate(&self, t: &DocTree) -> Result<(), DtdError> {
        match self.first_violation(t) {
            None => Ok(()),
            Some(v) => Err(DtdError::Invalid {
                node: v.node,
                label: v.label,
            }),
        }
    }

    /// The first violation in document order, if any. The slot-order
    /// scan of [`Dtd::is_valid`] decides; only an invalid tree is walked
    /// in document order, to find the violation to report.
    pub fn first_violation(&self, t: &DocTree) -> Option<Violation> {
        if self.is_valid(t) {
            return None;
        }
        self.violations_in_order(t).next()
    }

    /// All violations in document order (diagnostics).
    pub fn violations(&self, t: &DocTree) -> Vec<Violation> {
        self.violations_in_order(t).collect()
    }

    fn violations_in_order<'a>(&'a self, t: &'a DocTree) -> impl Iterator<Item = Violation> + 'a {
        t.preorder().filter_map(move |n| {
            let word = t.child_word(n);
            if self.content_model(t.label(n)).accepts(&word) {
                None
            } else {
                Some(Violation {
                    node: n,
                    label: t.label(n),
                    child_word: word,
                })
            }
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_dtd;
    use xvu_tree::{parse_term, Alphabet, NodeIdGen};

    /// The paper's DTD `D0`: `r → (a·(b+c)·d)*`, `d → ((a+b)·c)*`.
    fn d0(alpha: &mut Alphabet) -> Dtd {
        parse_dtd(
            alpha,
            "r -> (a.(b+c).d)*\n\
             d -> ((a+b).c)*",
        )
        .unwrap()
    }

    #[test]
    fn t0_satisfies_d0() {
        // Paper Fig. 1: t0 = r(a, b, d(a, c), a, c, d(b, c))
        let mut alpha = Alphabet::new();
        let dtd = d0(&mut alpha);
        let mut gen = NodeIdGen::new();
        let t0 = parse_term(&mut alpha, &mut gen, "r(a, b, d(a, c), a, c, d(b, c))").unwrap();
        assert!(dtd.is_valid(&t0));
        dtd.validate(&t0).unwrap();
    }

    #[test]
    fn invalid_tree_is_rejected_with_location() {
        let mut alpha = Alphabet::new();
        let dtd = d0(&mut alpha);
        let mut gen = NodeIdGen::new();
        // r(a, b) is missing the closing d.
        let t = parse_term(&mut alpha, &mut gen, "r(a, b)").unwrap();
        let v = dtd.first_violation(&t).unwrap();
        assert_eq!(v.node, t.root());
        assert!(!dtd.is_valid(&t));
    }

    #[test]
    fn default_rule_is_epsilon() {
        let mut alpha = Alphabet::new();
        let dtd = d0(&mut alpha);
        let mut gen = NodeIdGen::new();
        // 'a' has no rule, so a(c) is invalid while a alone is fine.
        let bad = parse_term(&mut alpha, &mut gen, "r(a(c), b, d)").unwrap();
        assert!(!dtd.is_valid(&bad));
        let a_leaf = parse_term(&mut alpha, &mut gen, "a").unwrap();
        assert!(dtd.is_valid(&a_leaf));
    }

    #[test]
    fn fragments_validate_without_root_constraint() {
        // Paper: "We omit this requirement as this will allow us to easily
        // consider tree fragments that satisfy the DTD."
        let mut alpha = Alphabet::new();
        let dtd = d0(&mut alpha);
        let mut gen = NodeIdGen::new();
        let frag = parse_term(&mut alpha, &mut gen, "d(a, c, b, c)").unwrap();
        assert!(dtd.is_valid(&frag));
    }

    #[test]
    fn violations_lists_every_bad_node() {
        let mut alpha = Alphabet::new();
        let dtd = d0(&mut alpha);
        let mut gen = NodeIdGen::new();
        let t = parse_term(&mut alpha, &mut gen, "r(d(a), d(b))").unwrap();
        // root bad (word d d), both d children bad (words a and b).
        assert_eq!(dtd.violations(&t).len(), 3);
    }

    #[test]
    fn the_first_violation_is_first_in_document_order_not_slot_order() {
        // r(a, b, dy(b), a, c, dx(a)) with dx in an earlier slot than dy:
        // the slot-order scan meets dx first, but dy comes first in the
        // document
        let mut alpha = Alphabet::new();
        let dtd = d0(&mut alpha);
        let [r, a, b, c, d] = ["r", "a", "b", "c", "d"].map(|l| alpha.get(l).unwrap());
        let mut gen = NodeIdGen::new();
        let mut t = DocTree::leaf(&mut gen, r);
        let root = t.root();
        let kids = [a, b, d, a, c, d].map(|l| t.add_child(root, &mut gen, l));
        let (dx, dy) = (kids[2], kids[5]);
        t.add_child(dx, &mut gen, a);
        t.add_child(dy, &mut gen, b);
        let order = [kids[0], kids[1], dy, kids[3], kids[4], dx];
        t.reorder_children(root, &order).unwrap();
        assert!(t.slot(dx) < t.slot(dy));
        assert!(!dtd.is_valid(&t));
        assert_eq!(dtd.first_violation(&t).unwrap().node, dy);
        assert_eq!(
            dtd.validate(&t),
            Err(DtdError::Invalid { node: dy, label: d })
        );
        let all: Vec<NodeId> = dtd.violations(&t).iter().map(|v| v.node).collect();
        assert_eq!(all, [dy, dx]);
    }

    #[test]
    fn nondeterminism_is_reported() {
        let mut alpha = Alphabet::new();
        let dtd = parse_dtd(&mut alpha, "r -> a.b + a.c\nd -> (a.b)*").unwrap();
        let r = alpha.get("r").unwrap();
        assert_eq!(dtd.nondeterministic_labels(), vec![r]);
        let clean = d0(&mut alpha);
        assert!(clean.nondeterministic_labels().is_empty());
    }

    #[test]
    fn size_sums_automata() {
        let mut alpha = Alphabet::new();
        let dtd = d0(&mut alpha);
        assert!(dtd.size() > 0);
        assert_eq!(Dtd::new().size(), 0);
    }
}
