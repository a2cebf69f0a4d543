//! Interned label alphabets.
//!
//! The paper fixes a finite alphabet `Σ` of node labels. Labels occur in
//! every node, every automaton transition, and every annotation entry, so we
//! intern them once into dense [`Sym`] handles and index auxiliary tables
//! (minimal-tree sizes, annotations, insertlets) by `Sym::index()`.

use std::collections::HashMap;
use std::fmt;

/// An interned node label — an element of the alphabet `Σ`.
///
/// `Sym` is a dense handle into an [`Alphabet`]; two `Sym`s compare equal iff
/// they were interned from the same string in the same alphabet. The numeric
/// index is stable for the lifetime of the alphabet and suitable for `Vec`
/// indexing.
#[derive(Copy, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Sym(u32);

impl Sym {
    /// The dense index of this symbol within its alphabet.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// Builds a symbol from a raw index. The caller is responsible for the
    /// index being valid for the intended alphabet.
    ///
    /// This is the infallible fast path for hot loops iterating a known
    /// `0..alphabet_len` range: out-of-range indices are caught by a debug
    /// assertion only. Use [`Sym::try_from_index`] whenever the index is
    /// not trivially bounded (parsed input, external tables).
    #[inline]
    pub fn from_index(ix: usize) -> Sym {
        debug_assert!(
            u32::try_from(ix).is_ok(),
            "symbol index {ix} exceeds u32::MAX"
        );
        Sym(ix as u32)
    }

    /// Checked counterpart of [`Sym::from_index`]: `None` when the index
    /// does not fit the symbol representation.
    #[inline]
    pub fn try_from_index(ix: usize) -> Option<Sym> {
        u32::try_from(ix).ok().map(Sym)
    }
}

impl fmt::Debug for Sym {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "s{}", self.0)
    }
}

/// A finite alphabet `Σ` interning label strings to [`Sym`] handles.
///
/// Interning is append-only: symbols are never removed, so indices handed
/// out remain valid. An alphabet is typically built once (from a DTD, a
/// term, or a workload generator) and then shared by reference.
#[derive(Clone, Debug, Default)]
pub struct Alphabet {
    names: Vec<String>,
    index: HashMap<String, u32>,
}

impl Alphabet {
    /// Creates an empty alphabet.
    pub fn new() -> Alphabet {
        Alphabet::default()
    }

    /// Creates an alphabet pre-populated with the given labels, in order.
    pub fn from_labels<I, S>(labels: I) -> Alphabet
    where
        I: IntoIterator<Item = S>,
        S: AsRef<str>,
    {
        let mut a = Alphabet::new();
        for l in labels {
            a.intern(l.as_ref());
        }
        a
    }

    /// Interns a label, returning its symbol. Idempotent.
    pub fn intern(&mut self, name: &str) -> Sym {
        if let Some(&ix) = self.index.get(name) {
            return Sym(ix);
        }
        let ix = u32::try_from(self.names.len()).expect("alphabet larger than u32::MAX");
        self.names.push(name.to_owned());
        self.index.insert(name.to_owned(), ix);
        Sym(ix)
    }

    /// Looks up a previously interned label.
    pub fn get(&self, name: &str) -> Option<Sym> {
        self.index.get(name).map(|&ix| Sym(ix))
    }

    /// The string name of a symbol.
    ///
    /// # Panics
    /// Panics if `sym` does not belong to this alphabet.
    pub fn name(&self, sym: Sym) -> &str {
        &self.names[sym.index()]
    }

    /// Number of distinct symbols interned so far.
    pub fn len(&self) -> usize {
        self.names.len()
    }

    /// Whether no symbol has been interned yet.
    pub fn is_empty(&self) -> bool {
        self.names.is_empty()
    }

    /// Iterates over all symbols in interning order.
    pub fn syms(&self) -> impl Iterator<Item = Sym> + '_ {
        (0..self.names.len() as u32).map(Sym)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn intern_is_idempotent() {
        let mut a = Alphabet::new();
        let x = a.intern("r");
        let y = a.intern("r");
        assert_eq!(x, y);
        assert_eq!(a.len(), 1);
    }

    #[test]
    fn distinct_labels_get_distinct_syms() {
        let mut a = Alphabet::new();
        let r = a.intern("r");
        let b = a.intern("b");
        assert_ne!(r, b);
        assert_eq!(a.name(r), "r");
        assert_eq!(a.name(b), "b");
    }

    #[test]
    fn indices_are_dense_and_ordered() {
        let a = Alphabet::from_labels(["r", "a", "b"]);
        let syms: Vec<usize> = a.syms().map(Sym::index).collect();
        assert_eq!(syms, vec![0, 1, 2]);
    }

    #[test]
    fn get_returns_none_for_unknown() {
        let a = Alphabet::from_labels(["x"]);
        assert!(a.get("y").is_none());
        assert!(a.get("x").is_some());
    }

    #[test]
    fn from_index_round_trips() {
        let a = Alphabet::from_labels(["p", "q"]);
        let q = a.get("q").unwrap();
        assert_eq!(Sym::from_index(q.index()), q);
    }
}
