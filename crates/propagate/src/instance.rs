//! View-update problem instances.
//!
//! An instance bundles the paper's inputs — DTD `D`, annotation `A`,
//! source document `t ∈ L(D)`, and view update `S` — together with the
//! derived artefacts every stage needs (the view `A(t)`, the view DTD, the
//! update's footprint), and validates all of the paper's well-formedness
//! requirements up front:
//!
//! 1. `t ∈ L(D)`;
//! 2. `S` is a well-formed editing script with `In(S) = A(t)`;
//! 3. `Out(S)` satisfies the view DTD (i.e. `Out(S) ∈ A(L(D))`, checked
//!    structurally via the derived DTD);
//! 4. `N_S ∩ (N_t \ N_{A(t)}) = ∅` — the update never reuses hidden
//!    identifiers;
//! 5. every label inserted by `S` is visible under its parent (a
//!    consequence of 3 made into a direct check for better diagnostics).
//!
//! Requirements 3 and 5 are checked on the update's changed parents only
//! ([`ScriptFootprint::changed`]): every other node of `Out(S)` keeps its
//! `A(t)` child word, and the view of a valid document satisfies the
//! derived view DTD, so only changed child words can violate it — the same
//! argument [`crate::revalidate_output`] makes on the source side.

use crate::error::PropagateError;
use std::borrow::Cow;
use xvu_automata::StateSets;
use xvu_dtd::Dtd;
use xvu_edit::{update_footprint, EditError, EditOp, Script, ScriptFootprint};
use xvu_tree::{DocTree, NodeId, NodeIdGen, Slot};
use xvu_view::{derive_view_dtd, extract_subtree_view, extract_view, Annotation};

/// The update-independent artefacts derived from one source document
/// under a fixed annotation: the view and a fresh-identifier generator
/// already positioned past every source identifier.
///
/// A [`crate::Session`] computes it when it resumes
/// ([`crate::Parked::resume`]) and then [advances](Prepared::advance) it
/// across each commit; [`Instance::new`] derives the same two per call
/// ([`SourceParts::prepare`]).
#[derive(Clone, Debug)]
pub(crate) struct Prepared {
    /// The materialised view `A(t)`.
    pub view: DocTree,
    /// Generator positioned past every identifier of `t`.
    pub gen: NodeIdGen,
}

/// A generator positioned past every identifier of `doc`.
pub(crate) fn gen_past(doc: &DocTree) -> NodeIdGen {
    let mut gen = NodeIdGen::new();
    for id in doc.node_ids() {
        gen.bump_past(id);
    }
    gen
}

impl Prepared {
    /// Advances the view and generator across a committed propagation
    /// `script` (whose footprint is `fp`), in time proportional to that
    /// footprint.
    ///
    /// Propagations are side-effect free, so the view changes exactly
    /// under the visible `Nop` parents the footprint lists: each loses
    /// its deleted visible children and gains the visible part of each
    /// inserted visible subtree, at its output position. The generator is
    /// bumped past the inserted identifiers — deleted ones stay spent.
    /// The caller guarantees that `script` was applied to the document
    /// this view was taken from.
    pub(crate) fn advance(&mut self, ann: &Annotation, script: &Script, fp: &ScriptFootprint) {
        for &n in fp.changed() {
            let label = script.label(n);
            if label.op == EditOp::Ins {
                self.gen.bump_past(n);
                continue;
            }
            if !self.view.contains(n) {
                continue; // a hidden parent: nothing below it is visible
            }
            // `pos` counts the view children emitted so far, like the
            // attach position of `xvu_edit::apply_in_place`.
            let mut pos = 0usize;
            for &c in script.children(n) {
                let cl = script.label(c);
                if !ann.is_visible(label.label, cl.label) {
                    continue;
                }
                match cl.op {
                    EditOp::Nop => pos += 1,
                    EditOp::Del => {
                        self.view
                            .detach_subtree(c)
                            .expect("a deleted visible child is in the view");
                    }
                    EditOp::Ins => {
                        let sub = extract_subtree_view(ann, script, c, |l| l.label);
                        self.view
                            .attach_subtree(n, pos, sub)
                            .expect("inserted identifiers are new to the document");
                        pos += 1;
                    }
                }
            }
        }
    }
}

/// The source side of an [`Instance`]: its fields of the same names, and
/// a generator past every identifier of `source`. A session lends its
/// caches, so assembly copies nothing document-sized.
pub(crate) struct SourceParts<'a> {
    pub dtd: &'a Dtd,
    pub ann: &'a Annotation,
    pub source: &'a DocTree,
    pub alphabet_len: usize,
    pub view: Cow<'a, DocTree>,
    pub view_dtd: Cow<'a, Dtd>,
    pub gen: NodeIdGen,
}

impl<'a> SourceParts<'a> {
    /// Validates `source ∈ L(D)` and derives its view and generator.
    pub(crate) fn prepare(
        dtd: &'a Dtd,
        ann: &'a Annotation,
        source: &'a DocTree,
        alphabet_len: usize,
        view_dtd: Cow<'a, Dtd>,
    ) -> Result<SourceParts<'a>, PropagateError> {
        dtd.validate(source)
            .map_err(PropagateError::SourceNotValid)?;
        Ok(SourceParts {
            dtd,
            ann,
            source,
            alphabet_len,
            gen: gen_past(source),
            view: Cow::Owned(extract_view(ann, source)),
            view_dtd,
        })
    }
}

/// A validated view-update problem instance.
///
/// Given the source artefacts, validation costs time proportional to the
/// update: one check ([`xvu_edit::check_script`]) checks the closure
/// rules, matches `In(S)` against the view and yields the footprint;
/// the hidden-identifier check then visits only the inserted nodes, and
/// `Out(S)` is never materialised — the view-DTD check reads the changed
/// child words straight off the script.
#[derive(Clone, Debug)]
pub struct Instance<'a> {
    /// The document schema `D`.
    pub dtd: &'a Dtd,
    /// The view definition `A`.
    pub ann: &'a Annotation,
    /// The source document `t`.
    pub source: &'a DocTree,
    /// The user's view update `S`.
    pub update: &'a Script,
    /// Alphabet size (for symbol-indexed tables).
    pub alphabet_len: usize,
    /// The materialised view `A(t)` (= `In(S)`) — owned by one-shot
    /// instances, borrowed from the session cache by session-built ones.
    pub view: Cow<'a, DocTree>,
    /// The derived view DTD capturing `A(L(D))` — owned by one-shot
    /// instances, borrowed from the engine's precompiled copy by
    /// session-built ones.
    pub view_dtd: Cow<'a, Dtd>,
    /// The update's footprint, computed once at construction and shared
    /// by validation and the propagation cache.
    footprint: ScriptFootprint,
    /// Generator positioned past every source/update identifier, computed
    /// once at construction so [`Instance::id_gen`] is O(1).
    gen0: NodeIdGen,
}

impl<'a> Instance<'a> {
    /// Validates and assembles an instance.
    pub fn new(
        dtd: &'a Dtd,
        ann: &'a Annotation,
        source: &'a DocTree,
        update: &'a Script,
        alphabet_len: usize,
    ) -> Result<Instance<'a>, PropagateError> {
        let view_dtd = Cow::Owned(derive_view_dtd(dtd, ann, alphabet_len));
        let parts = SourceParts::prepare(dtd, ann, source, alphabet_len, view_dtd)?;
        Instance::from_parts(parts, update)
    }

    /// Assembles an instance from precomputed source artefacts, running
    /// only the *update-dependent* checks (requirements 2–5 of the module
    /// docs), in time proportional to the update. The caller guarantees
    /// requirement 1 (`t ∈ L(D)`) and that the artefacts genuinely belong
    /// to `(dtd, ann, source)`.
    pub(crate) fn from_parts(
        mut parts: SourceParts<'a>,
        update: &'a Script,
    ) -> Result<Instance<'a>, PropagateError> {
        // One walk of the update against the view: closure rules,
        // `In(S) = A(t)`, and the footprint.
        let footprint = update_footprint(update, &parts.view)?;

        // Every non-`Ins` node matched a view node, so only inserted nodes
        // can reuse a hidden identifier or lie past the generator — and
        // the footprint lists every inserted node. The offender reported
        // is the one a scan of the whole update in slot order finds first.
        let mut hidden: Option<(Slot, NodeId)> = None;
        for &id in footprint.changed() {
            if update.label(id).op != EditOp::Ins {
                continue;
            }
            if parts.source.contains(id) && !parts.view.contains(id) {
                let slot = update.slot(id).expect("footprint node in update");
                if hidden.is_none_or(|(first, _)| slot < first) {
                    hidden = Some((slot, id));
                }
            }
            parts.gen.bump_past(id);
        }
        if let Some((_, id)) = hidden {
            return Err(PropagateError::Edit(EditError::HiddenIdUsed(id)));
        }

        if update.label(update.root()).op == EditOp::Del {
            return Err(PropagateError::InvalidInstance(
                "update deletes the view root".to_owned(),
            ));
        }

        // Only changed child words can leave the view language; the
        // footprint lists them in document order, so the first violation
        // found is the first in `Out(S)`.
        let mut sets = StateSets::default();
        for &n in footprint.changed() {
            let word = update
                .children(n)
                .iter()
                .map(|&c| update.label(c))
                .filter(|l| l.op != EditOp::Del)
                .map(|l| l.label);
            if !parts
                .view_dtd
                .content_model(update.label(n).label)
                .accepts_with(word, &mut sets)
            {
                return Err(PropagateError::OutputNotAView(format!(
                    "node {n} (child word not derivable in any view)"
                )));
            }
        }

        // Inserted labels must be visible under their parents. A parent
        // with an inserted child is changed, so the footprint covers them.
        for &n in footprint.changed() {
            let parent = update.label(n);
            if parent.op == EditOp::Ins {
                continue;
            }
            for &c in update.children(n) {
                let cl = update.label(c);
                if cl.op == EditOp::Ins && !parts.ann.is_visible(parent.label, cl.label) {
                    return Err(PropagateError::InsertedInvisibleLabel { node: c });
                }
            }
        }

        Ok(Instance {
            dtd: parts.dtd,
            ann: parts.ann,
            source: parts.source,
            update,
            alphabet_len: parts.alphabet_len,
            view: parts.view,
            view_dtd: parts.view_dtd,
            footprint,
            gen0: parts.gen,
        })
    }

    /// A fresh-identifier generator positioned beyond every identifier used
    /// by the source document or the update (cached at construction).
    pub fn id_gen(&self) -> NodeIdGen {
        self.gen0.clone()
    }

    /// The update's footprint ([`xvu_edit::script_footprint`]): its
    /// changed parents and its untouched (entirely `Nop`) region.
    pub(crate) fn footprint(&self) -> &ScriptFootprint {
        &self.footprint
    }

    /// The preserved view nodes `N_Δ` (the `Nop` nodes of `S`), in
    /// pre-order. These are exactly the nodes for which propagation graphs
    /// are built; the root of `S` is always first.
    pub fn n_delta(&self) -> Vec<NodeId> {
        self.update
            .preorder()
            .filter(|&n| self.update.label(n).op == EditOp::Nop)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixtures;
    use xvu_edit::parse_script;
    use xvu_tree::parse_term_with_ids;

    #[test]
    fn paper_instance_validates() {
        let fx = fixtures::paper_running_example();
        let inst = Instance::new(&fx.dtd, &fx.ann, &fx.t0, &fx.s0, fx.alpha.len()).unwrap();
        assert_eq!(inst.view.size(), 7);
        assert_eq!(xvu_edit::output_tree(inst.update).unwrap().size(), 9);
        // N_Δ = {n0, n4, n6, n10}
        let nd: Vec<u64> = inst.n_delta().iter().map(|n| n.0).collect();
        assert_eq!(nd, vec![0, 4, 6, 10]);
    }

    #[test]
    fn invalid_source_is_rejected() {
        let mut fx = fixtures::paper_running_example();
        // break the source: delete the trailing d sibling group
        let mut gen = fx.gen.clone();
        let bad = parse_term_with_ids(&mut fx.alpha, &mut gen, "r#100(a#101, b#102)").unwrap();
        let s = parse_script(&mut fx.alpha, "nop:r#100(nop:a#101)").unwrap();
        let err = Instance::new(&fx.dtd, &fx.ann, &bad, &s, fx.alpha.len()).unwrap_err();
        assert!(matches!(err, PropagateError::SourceNotValid(_)));
    }

    #[test]
    fn update_of_wrong_view_is_rejected() {
        let mut fx = fixtures::paper_running_example();
        let s = parse_script(&mut fx.alpha, "nop:r#0(nop:a#1)").unwrap();
        let err = Instance::new(&fx.dtd, &fx.ann, &fx.t0, &s, fx.alpha.len()).unwrap_err();
        assert!(matches!(err, PropagateError::Edit(_)));
    }

    #[test]
    fn hidden_id_reuse_is_rejected() {
        let mut fx = fixtures::paper_running_example();
        // node 2 (the b) and node 7 (a under d3) are hidden in t0; reuse 7
        let s = parse_script(
            &mut fx.alpha,
            "nop:r#0(nop:a#1, nop:d#3(nop:c#8), nop:a#4, ins:d#7, nop:d#6(nop:c#10))",
        )
        .unwrap();
        let err = Instance::new(&fx.dtd, &fx.ann, &fx.t0, &s, fx.alpha.len()).unwrap_err();
        assert!(matches!(
            err,
            PropagateError::Edit(xvu_edit::EditError::HiddenIdUsed(NodeId(7)))
        ));
    }

    #[test]
    fn non_view_output_is_rejected() {
        let mut fx = fixtures::paper_running_example();
        // delete a1 only: view word becomes d a d — not in (a·d)*
        let s = parse_script(
            &mut fx.alpha,
            "nop:r#0(del:a#1, nop:d#3(nop:c#8), nop:a#4, nop:d#6(nop:c#10))",
        )
        .unwrap();
        let err = Instance::new(&fx.dtd, &fx.ann, &fx.t0, &s, fx.alpha.len()).unwrap_err();
        assert!(matches!(err, PropagateError::OutputNotAView(_)));
    }

    #[test]
    fn inserting_invisible_label_is_rejected() {
        let mut fx = fixtures::paper_running_example();
        // b is invisible under r; inserting it can never appear in a view.
        let s = parse_script(
            &mut fx.alpha,
            "nop:r#0(nop:a#1, nop:d#3(nop:c#8), nop:a#4, nop:d#6(nop:c#10), ins:b#50)",
        )
        .unwrap();
        let err = Instance::new(&fx.dtd, &fx.ann, &fx.t0, &s, fx.alpha.len()).unwrap_err();
        // caught either as a non-view output or as the direct check,
        // whichever fires first — both are acceptable diagnoses.
        assert!(matches!(
            err,
            PropagateError::OutputNotAView(_) | PropagateError::InsertedInvisibleLabel { .. }
        ));
    }

    #[test]
    fn id_gen_clears_all_used_ids() {
        let fx = fixtures::paper_running_example();
        let inst = Instance::new(&fx.dtd, &fx.ann, &fx.t0, &fx.s0, fx.alpha.len()).unwrap();
        let mut gen = inst.id_gen();
        let fresh = gen.fresh();
        assert!(!fx.t0.contains(fresh));
        assert!(!fx.s0.contains(fresh));
    }
}
