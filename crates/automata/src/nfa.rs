//! Nondeterministic finite automata.

use xvu_tree::Sym;

/// An automaton state — a dense index into an automaton's state table.
#[derive(Copy, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct StateId(pub u32);

impl std::fmt::Debug for StateId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "q{}", self.0)
    }
}

impl StateId {
    /// The dense index of this state.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// The two state sets of [`Nfa::accepts_with`]'s subset simulation, kept
/// between calls so that checking many words allocates once.
#[derive(Clone, Debug, Default)]
pub struct StateSets {
    current: Vec<bool>,
    next: Vec<bool>,
}

/// A nondeterministic finite automaton `M = (Σ, Q, q0, δ, F)` without
/// ε-transitions.
///
/// The transition relation is stored per source state for the access
/// pattern of the paper's graph constructions: "for each `q --y--> q'` in
/// `δ` …" while standing at a fixed vertex.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Nfa {
    start: StateId,
    accepting: Vec<bool>,
    /// `trans[q]` lists `(y, q')` for every transition `q --y--> q'`.
    trans: Vec<Vec<(Sym, StateId)>>,
}

impl Nfa {
    /// Creates an automaton with `n_states` states (all non-accepting, no
    /// transitions) and the given start state.
    ///
    /// # Panics
    /// Panics if `start` is out of range.
    pub fn new(n_states: usize, start: StateId) -> Nfa {
        assert!(start.index() < n_states, "start state out of range");
        Nfa {
            start,
            accepting: vec![false; n_states],
            trans: vec![Vec::new(); n_states],
        }
    }

    /// Number of states `|Q|`.
    pub fn num_states(&self) -> usize {
        self.accepting.len()
    }

    /// Number of transitions `|δ|`.
    pub fn num_transitions(&self) -> usize {
        self.trans.iter().map(Vec::len).sum()
    }

    /// The paper's size measure `|M| = |Q| + |δ| + |F|`.
    pub fn size(&self) -> usize {
        self.num_states() + self.num_transitions() + self.accepting_states().count()
    }

    /// The start state `q0`.
    pub fn start(&self) -> StateId {
        self.start
    }

    /// Marks `q` accepting.
    pub fn set_accepting(&mut self, q: StateId, accepting: bool) {
        self.accepting[q.index()] = accepting;
    }

    /// Whether `q` is accepting.
    #[inline]
    pub fn is_accepting(&self, q: StateId) -> bool {
        self.accepting[q.index()]
    }

    /// Iterates over the accepting states `F`.
    pub fn accepting_states(&self) -> impl Iterator<Item = StateId> + '_ {
        self.accepting
            .iter()
            .enumerate()
            .filter(|(_, &acc)| acc)
            .map(|(i, _)| StateId(i as u32))
    }

    /// Adds a transition `q --y--> q'`. Duplicate insertions are ignored.
    pub fn add_transition(&mut self, q: StateId, y: Sym, q2: StateId) {
        assert!(q2.index() < self.num_states(), "target state out of range");
        let list = &mut self.trans[q.index()];
        if !list.contains(&(y, q2)) {
            list.push((y, q2));
        }
    }

    /// All transitions leaving `q` as `(symbol, target)` pairs.
    #[inline]
    pub fn transitions_from(&self, q: StateId) -> &[(Sym, StateId)] {
        &self.trans[q.index()]
    }

    /// Targets of transitions from `q` on symbol `y`.
    pub fn step(&self, q: StateId, y: Sym) -> impl Iterator<Item = StateId> + '_ {
        self.trans[q.index()]
            .iter()
            .filter(move |&&(s, _)| s == y)
            .map(|&(_, t)| t)
    }

    /// Iterates over all states.
    pub fn states(&self) -> impl Iterator<Item = StateId> {
        (0..self.accepting.len() as u32).map(StateId)
    }

    /// Iterates over all transitions as `(source, symbol, target)`.
    pub fn transitions(&self) -> impl Iterator<Item = (StateId, Sym, StateId)> + '_ {
        self.trans
            .iter()
            .enumerate()
            .flat_map(|(q, list)| list.iter().map(move |&(y, t)| (StateId(q as u32), y, t)))
    }

    /// Word membership by subset simulation: `w ∈ L(M)`?
    pub fn accepts(&self, word: &[Sym]) -> bool {
        self.accepts_with(word.iter().copied(), &mut StateSets::default())
    }

    /// [`Nfa::accepts`] over the symbols `word` yields, simulated in the
    /// caller's `sets`: a caller checking many words keeps one
    /// [`StateSets`], and once it has grown to the largest automaton no
    /// check allocates. The empty word touches no set.
    pub fn accepts_with(&self, word: impl IntoIterator<Item = Sym>, sets: &mut StateSets) -> bool {
        let mut word = word.into_iter();
        let Some(first) = word.next() else {
            return self.is_accepting(self.start);
        };
        // Two state sets, swapped per symbol.
        let StateSets { current, next } = sets;
        current.clear();
        current.resize(self.num_states(), false);
        next.clear();
        next.resize(self.num_states(), false);
        current[self.start.index()] = true;
        for y in std::iter::once(first).chain(word) {
            next.fill(false);
            let mut any = false;
            for (q, &live) in current.iter().enumerate() {
                if !live {
                    continue;
                }
                for &(s, t) in &self.trans[q] {
                    if s == y {
                        next[t.index()] = true;
                        any = true;
                    }
                }
            }
            if !any {
                return false;
            }
            std::mem::swap(current, next);
        }
        current
            .iter()
            .zip(&self.accepting)
            .any(|(&reach, &acc)| reach && acc)
    }

    /// Whether `L(M) = ∅`.
    pub fn language_is_empty(&self) -> bool {
        let reach = self.reachable_from_start();
        !reach
            .iter()
            .enumerate()
            .any(|(q, &r)| r && self.accepting[q])
    }

    /// Whether the automaton is deterministic (at most one target per
    /// `(state, symbol)` pair).
    pub fn is_deterministic(&self) -> bool {
        self.trans.iter().all(|list| {
            let mut seen: Vec<Sym> = Vec::with_capacity(list.len());
            list.iter().all(|&(y, _)| {
                if seen.contains(&y) {
                    false
                } else {
                    seen.push(y);
                    true
                }
            })
        })
    }

    fn reachable_from_start(&self) -> Vec<bool> {
        let mut reach = vec![false; self.num_states()];
        let mut stack = vec![self.start];
        reach[self.start.index()] = true;
        while let Some(q) = stack.pop() {
            for &(_, t) in &self.trans[q.index()] {
                if !reach[t.index()] {
                    reach[t.index()] = true;
                    stack.push(t);
                }
            }
        }
        reach
    }

    fn coreachable_to_accepting(&self) -> Vec<bool> {
        // reverse adjacency
        let mut rev: Vec<Vec<StateId>> = vec![Vec::new(); self.num_states()];
        for (q, _, t) in self.transitions() {
            rev[t.index()].push(q);
        }
        let mut co = vec![false; self.num_states()];
        let mut stack: Vec<StateId> = self.accepting_states().collect();
        for &q in &stack {
            co[q.index()] = true;
        }
        while let Some(q) = stack.pop() {
            for &p in &rev[q.index()] {
                if !co[p.index()] {
                    co[p.index()] = true;
                    stack.push(p);
                }
            }
        }
        co
    }

    /// Removes states that are unreachable from the start or cannot reach an
    /// accepting state. The start state is always kept (so the automaton
    /// stays well-formed even when the language is empty).
    pub fn trim(&self) -> Nfa {
        let reach = self.reachable_from_start();
        let co = self.coreachable_to_accepting();
        let keep: Vec<bool> = reach
            .iter()
            .zip(&co)
            .enumerate()
            .map(|(q, (&r, &c))| (r && c) || q == self.start.index())
            .collect();
        let mut remap = vec![None; self.num_states()];
        let mut n = 0u32;
        for (q, &k) in keep.iter().enumerate() {
            if k {
                remap[q] = Some(StateId(n));
                n += 1;
            }
        }
        let mut out = Nfa::new(n as usize, remap[self.start.index()].expect("start kept"));
        for (q, &k) in keep.iter().enumerate() {
            if !k {
                continue;
            }
            let nq = remap[q].expect("kept");
            if self.accepting[q] {
                out.set_accepting(nq, true);
            }
            for &(y, t) in &self.trans[q] {
                if let Some(nt) = remap[t.index()] {
                    out.add_transition(nq, y, nt);
                }
            }
        }
        out
    }

    /// A copy of this automaton with a different start state. Used by
    /// samplers that need "cheapest completion from the current state".
    pub fn with_start(&self, q: StateId) -> Nfa {
        assert!(q.index() < self.num_states(), "start state out of range");
        let mut out = self.clone();
        out.start = q;
        out
    }

    /// Erases all symbols matched by `erase` from the language: transitions
    /// on erased symbols become ε-transitions, which are then eliminated.
    ///
    /// This computes the homomorphic image of `L(M)` under the morphism that
    /// deletes erased symbols — exactly the derivation of a *view DTD*
    /// content model from a source content model and an annotation (paper
    /// §2, "a DTD capturing `A(L(D))` can be easily derived").
    pub fn erase_symbols(&self, erase: impl Fn(Sym) -> bool) -> Nfa {
        let n = self.num_states();
        // ε-closure over erased transitions, per state (forward closure).
        let mut closure: Vec<Vec<StateId>> = Vec::with_capacity(n);
        for q in self.states() {
            let mut seen = vec![false; n];
            let mut stack = vec![q];
            seen[q.index()] = true;
            while let Some(p) = stack.pop() {
                for &(y, t) in &self.trans[p.index()] {
                    if erase(y) && !seen[t.index()] {
                        seen[t.index()] = true;
                        stack.push(t);
                    }
                }
            }
            closure.push(
                seen.iter()
                    .enumerate()
                    .filter(|(_, &s)| s)
                    .map(|(i, _)| StateId(i as u32))
                    .collect(),
            );
        }
        let mut out = Nfa::new(n, self.start);
        for q in self.states() {
            // accepting' = can reach an accepting state via erased symbols
            if closure[q.index()].iter().any(|&p| self.is_accepting(p)) {
                out.set_accepting(q, true);
            }
            for &p in &closure[q.index()] {
                for &(y, t) in &self.trans[p.index()] {
                    if !erase(y) {
                        out.add_transition(q, y, t);
                    }
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::glushkov::glushkov;
    use crate::regex::parse_regex;
    use xvu_tree::Alphabet;

    fn word(alpha: &Alphabet, s: &str) -> Vec<Sym> {
        s.split_whitespace()
            .map(|l| alpha.get(l).expect("label interned"))
            .collect()
    }

    #[test]
    fn manual_automaton_membership() {
        // Paper Fig. 2, automaton for r → (a·(b+c)·d)*:
        // q0 --a--> q1, q1 --b--> q2, q1 --c--> q2, q2 --d--> q0; F = {q0}
        let mut alpha = Alphabet::new();
        let (a, b, c, d) = (
            alpha.intern("a"),
            alpha.intern("b"),
            alpha.intern("c"),
            alpha.intern("d"),
        );
        let mut m = Nfa::new(3, StateId(0));
        m.add_transition(StateId(0), a, StateId(1));
        m.add_transition(StateId(1), b, StateId(2));
        m.add_transition(StateId(1), c, StateId(2));
        m.add_transition(StateId(2), d, StateId(0));
        m.set_accepting(StateId(0), true);

        assert!(m.accepts(&[]));
        assert!(m.accepts(&word(&alpha, "a b d")));
        assert!(m.accepts(&word(&alpha, "a b d a c d")));
        assert!(!m.accepts(&word(&alpha, "a b")));
        assert!(!m.accepts(&word(&alpha, "b")));
        assert_eq!(m.size(), 3 + 4 + 1);
    }

    #[test]
    fn reused_state_sets_agree_with_fresh_ones_across_automata() {
        // one pair of sets serves automata of different sizes, the words a
        // rejected simulation left behind included
        let mut alpha = Alphabet::new();
        let automata = ["(a.(b+c).d)*", "a*", "a.b?.c", "eps"]
            .map(|src| glushkov(&parse_regex(&mut alpha, src).unwrap()));
        let words = "|a|a b d|a a a|a c|a b c|b|a b d a c d";
        let mut sets = StateSets::default();
        for m in automata.iter().cycle().take(8) {
            for w in words.split('|') {
                let w = word(&alpha, w);
                assert_eq!(
                    m.accepts_with(w.iter().copied(), &mut sets),
                    m.accepts(&w),
                    "{w:?}"
                );
            }
        }
    }

    #[test]
    fn step_filters_by_symbol() {
        let mut alpha = Alphabet::new();
        let (a, b) = (alpha.intern("a"), alpha.intern("b"));
        let mut m = Nfa::new(2, StateId(0));
        m.add_transition(StateId(0), a, StateId(1));
        m.add_transition(StateId(0), b, StateId(0));
        let targets: Vec<_> = m.step(StateId(0), a).collect();
        assert_eq!(targets, vec![StateId(1)]);
    }

    #[test]
    fn duplicate_transitions_ignored() {
        let mut alpha = Alphabet::new();
        let a = alpha.intern("a");
        let mut m = Nfa::new(2, StateId(0));
        m.add_transition(StateId(0), a, StateId(1));
        m.add_transition(StateId(0), a, StateId(1));
        assert_eq!(m.num_transitions(), 1);
    }

    #[test]
    fn emptiness() {
        let mut alpha = Alphabet::new();
        let a = alpha.intern("a");
        let mut m = Nfa::new(2, StateId(0));
        m.add_transition(StateId(0), a, StateId(1));
        assert!(m.language_is_empty());
        m.set_accepting(StateId(1), true);
        assert!(!m.language_is_empty());
    }

    #[test]
    fn determinism_check() {
        let mut alpha = Alphabet::new();
        let a = alpha.intern("a");
        let mut m = Nfa::new(3, StateId(0));
        m.add_transition(StateId(0), a, StateId(1));
        assert!(m.is_deterministic());
        m.add_transition(StateId(0), a, StateId(2));
        assert!(!m.is_deterministic());
    }

    #[test]
    fn trim_removes_dead_states() {
        let mut alpha = Alphabet::new();
        let (a, b) = (alpha.intern("a"), alpha.intern("b"));
        let mut m = Nfa::new(4, StateId(0));
        m.add_transition(StateId(0), a, StateId(1));
        m.add_transition(StateId(0), b, StateId(2)); // q2 is a dead end
        m.add_transition(StateId(3), a, StateId(1)); // q3 unreachable
        m.set_accepting(StateId(1), true);
        let t = m.trim();
        assert_eq!(t.num_states(), 2);
        assert!(t.accepts(&[a]));
        assert!(!t.accepts(&[b]));
    }

    #[test]
    fn erase_symbols_derives_view_language() {
        // Paper example: D0(r) = (a·(b+c)·d)* with b, c invisible under r
        // gives the view content model (a·d)*.
        let mut alpha = Alphabet::new();
        let e = parse_regex(&mut alpha, "(a.(b+c).d)*").unwrap();
        let m = glushkov(&e);
        let (a, b, c, d) = (
            alpha.get("a").unwrap(),
            alpha.get("b").unwrap(),
            alpha.get("c").unwrap(),
            alpha.get("d").unwrap(),
        );
        let v = m.erase_symbols(|y| y == b || y == c);
        assert!(v.accepts(&[]));
        assert!(v.accepts(&[a, d]));
        assert!(v.accepts(&[a, d, a, d]));
        assert!(!v.accepts(&[a]));
        assert!(!v.accepts(&[d, a]));
        assert!(!v.accepts(&[a, b, d]));
    }

    #[test]
    fn erase_all_symbols_gives_epsilon_language() {
        let mut alpha = Alphabet::new();
        let e = parse_regex(&mut alpha, "a.b").unwrap();
        let m = glushkov(&e);
        let v = m.erase_symbols(|_| true);
        assert!(v.accepts(&[]));
        assert!(!v.language_is_empty());
    }
}
