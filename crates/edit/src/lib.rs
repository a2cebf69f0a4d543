//! Editing scripts over `E(Σ)` (paper §2, "Editing scripts").
//!
//! Updates insert and delete whole subtrees — the backbone operations of
//! the XQuery Update facility. Following the paper, an update is
//! represented as an *editing script*: a tree over the edit alphabet
//! `E(Σ) = {Ins(a), Del(a), Nop(a)}` that simultaneously encodes the
//! update, its input tree [`input_tree`], its output tree [`output_tree`],
//! and the node-identifier correspondence between them (the alignment
//! formalism of Jiang–Wang–Zhang). The **cost** of a script is its number
//! of non-phantom nodes.
//!
//! Entry points:
//!
//! * [`Script`] = `Tree<ELabel>` with [`validate_script`] enforcing the
//!   whole-subtree discipline (descendants of `Ins` insert, of `Del`
//!   delete);
//! * [`apply`] / [`apply_in_place`] — run a script against its input tree
//!   (building the output fresh, or mutating the input in place so only
//!   the edited regions are touched);
//! * [`script_footprint`] — the shared "what did this script touch"
//!   analysis: the changed child-word region (for incremental
//!   revalidation) and the entirely-`Nop` clean region (for propagation
//!   caching);
//! * [`check_script`] — the one check of a script against a tree: the
//!   closure rules, `In(S) = t` and the footprint, from two slot-order
//!   scans of the script's arena plus a walk of its dirty region, shared
//!   by every script-against-tree check;
//! * [`ins_script`] / [`del_script`] / [`nop_script`] — the paper's
//!   `Ins(t)`, `Del(t)`, `Nop(t)` lifts;
//! * [`UpdateBuilder`] — positional *delete-subtree* / *insert-subtree*
//!   operations compiled to a script (the API an editor would use);
//! * [`parse_script`] / [`script_to_term`] — term syntax
//!   (`nop:r#0(del:a#1, ins:d#11(ins:c#13))`) used by fixtures and
//!   diagnostics;
//! * [`check_is_update_of`] / [`check_no_hidden_ids`] — the paper's
//!   well-formedness requirements on view updates.
//!
//! # Paper cross-reference
//!
//! | paper (§2, Editing scripts) | here |
//! |-----------------------------|------|
//! | edit alphabet `E(Σ) = {Ins(a), Del(a), Nop(a)}` | [`EditOp`], [`ELabel`] |
//! | editing scripts and their discipline | [`Script`], [`validate_script`] |
//! | `In(S)` / `Out(S)` | [`input_tree`] / [`output_tree`] |
//! | the lifts `Ins(t)`, `Del(t)`, `Nop(t)` | [`ins_script`], [`del_script`], [`nop_script`] |
//! | script application and cost `cost(S)` | [`apply`], [`cost`] |
//! | well-formed view updates (`In(S) = A(t)`, no hidden identifiers) | [`check_is_update_of`], [`check_no_hidden_ids`] |
//! | script syntax of the Fig. 4/7 fixtures | [`parse_script`], [`script_to_term`] |

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod builder;
mod compose;
mod diff;
mod error;
mod footprint;
mod op;
mod script;
mod term;
mod update;

pub use builder::UpdateBuilder;
pub use compose::compose;
pub use diff::diff;
pub use error::EditError;
pub use footprint::{check_script, script_footprint, ScriptCheck, ScriptFootprint};
pub use op::{ELabel, EditOp};
pub use script::{
    apply, apply_checked, apply_in_place, cost, del_script, input_tree, ins_script, nop_script,
    output_tree, validate_script, Script,
};
pub use term::{parse_script, parse_script_with_gen, script_to_term};
pub use update::{check_is_update_of, check_no_hidden_ids, update_footprint};
