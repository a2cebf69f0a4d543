//! Regular expressions and finite automata over interned alphabets.
//!
//! DTD content models (paper §2) are finite automata
//! `M = (Σ, Q, q0, δ, F)`; the paper's constructions walk these automata
//! state by state, so the representation here keeps the transition relation
//! explicit and cheaply iterable per state.
//!
//! Provided machinery:
//!
//! * [`Regex`] — regular-expression ASTs with the paper's concrete syntax
//!   (`(a.(b+c).d)*`), a parser and a printer;
//! * [`Nfa`] — nondeterministic automata, built from regexes via the
//!   Glushkov construction (ε-free by construction), with membership,
//!   trimming, symbol erasure (used to derive view DTDs), and language
//!   emptiness;
//! * [`Dfa`] — subset-construction determinisation, completion, Moore
//!   minimisation, and language equivalence (used by tests and by the
//!   typing-based path selector of paper §5);
//! * [`min_cost_word`] — cheapest accepted word under per-symbol costs
//!   (Dijkstra), the engine behind minimal-tree sizes and all graph weights.
//!
//! # Paper cross-reference
//!
//! | paper | here |
//! |-------|------|
//! | content models as regular expressions (§2) | [`Regex`], [`parse_regex`] |
//! | content-model automata `M = (Σ, Q, q0, δ, F)` (§2) | [`Nfa`] (via [`glushkov`]), [`Dfa`] |
//! | erasing hidden symbols for view DTDs (§3) | [`Nfa::erase_symbols`] |
//! | cheapest completion words weighting the graph edges of Theorems 2 and 4 | [`min_cost_word`] |
//! | the canonical (Myhill–Nerode) typing of §5's selector | [`Dfa::minimize`] |

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod dfa;
mod error;
mod glushkov;
mod mincost;
mod nfa;
mod regex;

pub use dfa::Dfa;
pub use error::AutomatonError;
pub use glushkov::glushkov;
pub use mincost::{min_cost_word, MinCostWord, INFINITE};
pub use nfa::{Nfa, StateId, StateSets};
pub use regex::{parse_regex, Regex};
