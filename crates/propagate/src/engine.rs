//! The compiled propagation engine and its update sessions.
//!
//! The paper fixes a DTD `D` and annotation `A` once and then answers
//! *many* view updates against them. [`Engine`] is that shape as an API:
//! built once from `(Alphabet, Dtd, Annotation)`, it precompiles and
//! caches every update-independent artefact —
//!
//! * the derived view DTD for `A(L(D))` ([`xvu_view::derive_view_dtd`]),
//! * the minimal-tree size tables ([`xvu_dtd::min_sizes`]),
//! * the insertlet package `W` and the [`CostModel`] over both,
//! * the default [`Config`] (selector `Φ`, witness budget),
//!
//! so nothing schema-dependent is ever recomputed per update.
//! [`Engine::park`] validates a document once, and [`Parked::resume`]
//! opens a [`Session`] on it that serves repeated [`Session::propagate`] /
//! [`Session::verify`] / [`Session::count_optimal`] /
//! [`Session::enumerate_optimal`] calls, each reusing the session's
//! cached view and identifier high-water mark ([`Engine::open`] does both
//! on a copy). [`Session::commit`] advances the session to a propagation's
//! output using incremental revalidation ([`crate::revalidate_output`])
//! instead of a full schema check, and patches the view where the
//! propagation changed it instead of extracting it again; the document
//! stays valid, so [`Session::park`] parks it again without a check.
//!
//! The free functions ([`crate::propagate`], [`Instance::new`], …) remain
//! as a one-shot compatibility layer over the same core code paths.
//!
//! ```
//! use xvu_dtd::parse_dtd;
//! use xvu_edit::parse_script;
//! use xvu_propagate::Engine;
//! use xvu_tree::{parse_term_with_ids, Alphabet, NodeIdGen};
//! use xvu_view::parse_annotation;
//!
//! let mut alpha = Alphabet::new();
//! let mut gen = NodeIdGen::new();
//! let dtd = parse_dtd(&mut alpha, "r -> (a.(b+c).d)*\nd -> ((a+b).c)*").unwrap();
//! let ann = parse_annotation(&mut alpha, "hide r b\nhide r c\nhide d a\nhide d b").unwrap();
//! let t0 = parse_term_with_ids(
//!     &mut alpha, &mut gen,
//!     "r#0(a#1, b#2, d#3(a#7, c#8), a#4, c#5, d#6(b#9, c#10))",
//! ).unwrap();
//! let s0 = parse_script(
//!     &mut alpha,
//!     "nop:r#0(del:a#1, del:d#3(del:c#8), nop:a#4, \
//!      ins:d#11(ins:c#13, ins:c#14), ins:a#12, nop:d#6(nop:c#10, ins:c#15))",
//! ).unwrap();
//!
//! let engine = Engine::builder()
//!     .alphabet(alpha)
//!     .dtd(dtd)
//!     .annotation(ann)
//!     .build()
//!     .unwrap();
//! let mut session = engine.open(&t0).unwrap();
//! let prop = session.propagate(&s0).unwrap();
//! assert_eq!(prop.cost, 14); // the paper's Figure 7 optimum
//! session.verify(&s0, &prop.script).unwrap();
//! session.commit(&prop).unwrap(); // incremental revalidation, then advance
//! assert_eq!(session.commits(), 1);
//! ```

use crate::algorithm::{
    nanos_since, propagate_with, propagate_with_memo, Config, PhaseBreakdown, Propagation,
};
use crate::cache::{CacheStats, MemoTable, Tallies};
use crate::complement::find_complement_preserving_with;
use crate::cost::CostModel;
use crate::count::count_optimal_propagations;
use crate::enumerate::enumerate_optimal_propagations;
use crate::error::PropagateError;
use crate::forest::PropagationForest;
use crate::incremental::revalidate_changed;
use crate::instance::{gen_past, Instance, Prepared, SourceParts};
use crate::scratch::PropScratch;
use crate::verify::verify_propagation;
use std::borrow::Cow;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::time::Instant;
use xvu_dtd::{min_sizes, Dtd, InsertletPackage, MinSizes};
use xvu_edit::{apply_checked, check_script, EditError, EditOp, Script};
use xvu_tree::{Alphabet, DocTree, NodeId, NodeIdGen, Slot};
use xvu_view::{derive_view_dtd, extract_view, Annotation};

/// A compiled `(Σ, D, A)` triple with every update-independent artefact
/// precomputed. Build one with [`Engine::builder`]; open documents with
/// [`Engine::open`].
///
/// The engine holds no memo: each session it opens owns one (see
/// [`crate::cache`]). It keeps the memo's counters, which its sessions add
/// to and clones of the engine share.
#[derive(Clone, Debug)]
pub struct Engine {
    alpha: Alphabet,
    dtd: Dtd,
    ann: Annotation,
    view_dtd: Dtd,
    sizes: MinSizes,
    insertlets: InsertletPackage,
    config: Config,
    /// `false` when [`EngineBuilder::prop_cache`] turned the memo off.
    prop_cache: bool,
    tallies: Arc<Tallies>,
}

/// Builder for [`Engine`]; see [`Engine::builder`].
#[derive(Clone, Debug, Default)]
pub struct EngineBuilder {
    alpha: Option<Alphabet>,
    dtd: Option<Dtd>,
    ann: Option<Annotation>,
    insertlets: InsertletPackage,
    config: Config,
    minimal_insertlets: bool,
    prop_cache: Option<bool>,
}

impl EngineBuilder {
    /// The alphabet `Σ` (required). Its length sizes every symbol-indexed
    /// table, so no separate `alphabet_len` argument exists anywhere in
    /// the engine API.
    pub fn alphabet(mut self, alpha: Alphabet) -> Self {
        self.alpha = Some(alpha);
        self
    }

    /// The document schema `D` (required).
    pub fn dtd(mut self, dtd: Dtd) -> Self {
        self.dtd = Some(dtd);
        self
    }

    /// The view definition `A` (required).
    pub fn annotation(mut self, ann: Annotation) -> Self {
        self.ann = Some(ann);
        self
    }

    /// Administrator-chosen insertlet package `W` (default: empty, which
    /// falls back to on-the-fly minimal witnesses).
    pub fn insertlets(mut self, insertlets: InsertletPackage) -> Self {
        self.insertlets = insertlets;
        self
    }

    /// Precompute a minimal insertlet for every satisfiable label within
    /// the witness budget, so propagation never materialises witnesses on
    /// the fly. Ignored when [`EngineBuilder::insertlets`] supplied a
    /// non-empty package.
    pub fn minimal_insertlets(mut self) -> Self {
        self.minimal_insertlets = true;
        self
    }

    /// Full tuning configuration (default: [`Config::default`]).
    pub fn config(mut self, config: Config) -> Self {
        self.config = config;
        self
    }

    /// Whether every session the engine opens keeps a structure-keyed
    /// propagation memo (default: `true`; see [`crate::cache`]). Without
    /// it, sessions build the full forest — every preserved node's graph —
    /// instead of the skeleton. Disable it to measure the unmemoised
    /// baseline or to trade the memory for recomputation; results are
    /// byte-identical either way.
    pub fn prop_cache(mut self, on: bool) -> Self {
        self.prop_cache = Some(on);
        self
    }

    /// Shorthand: the path-preference function `Φ`.
    pub fn selector(mut self, selector: crate::Selector) -> Self {
        self.config.selector = selector;
        self
    }

    /// Shorthand: the witness materialisation budget.
    pub fn witness_budget(mut self, budget: u64) -> Self {
        self.config.witness_budget = budget;
        self
    }

    /// Compiles the engine: derives the view DTD, computes the min-size
    /// tables, and (optionally) the minimal insertlet package.
    ///
    /// Errors only when a required component (alphabet, DTD, annotation)
    /// is missing.
    pub fn build(self) -> Result<Engine, PropagateError> {
        let missing =
            |what: &str| PropagateError::InvalidInstance(format!("engine builder: missing {what}"));
        let alpha = self.alpha.ok_or_else(|| missing("alphabet"))?;
        let dtd = self.dtd.ok_or_else(|| missing("dtd"))?;
        let ann = self.ann.ok_or_else(|| missing("annotation"))?;
        let sizes = min_sizes(&dtd, alpha.len());
        let view_dtd = derive_view_dtd(&dtd, &ann, alpha.len());
        let insertlets = if self.minimal_insertlets && self.insertlets.is_empty() {
            // Template identifiers never leak: instantiation always
            // re-identifies, so a local generator suffices.
            let mut gen = NodeIdGen::new();
            InsertletPackage::minimal_package(
                &dtd,
                &sizes,
                alpha.len(),
                &mut gen,
                self.config.witness_budget,
            )
        } else {
            self.insertlets
        };
        Ok(Engine {
            alpha,
            dtd,
            ann,
            view_dtd,
            sizes,
            insertlets,
            config: self.config,
            prop_cache: self.prop_cache.unwrap_or(true),
            tallies: Arc::default(),
        })
    }
}

impl Engine {
    /// Starts building an engine. [`EngineBuilder::alphabet`],
    /// [`EngineBuilder::dtd`], and [`EngineBuilder::annotation`] are
    /// required; everything else has defaults.
    pub fn builder() -> EngineBuilder {
        EngineBuilder::default()
    }

    /// Convenience: an engine with default configuration and no
    /// insertlets.
    pub fn new(alpha: Alphabet, dtd: Dtd, ann: Annotation) -> Engine {
        Engine::builder()
            .alphabet(alpha)
            .dtd(dtd)
            .annotation(ann)
            .build()
            .expect("all required components supplied")
    }

    /// The alphabet `Σ`. Its length (`engine.alphabet().len()`) sizes
    /// every symbol-indexed table — there is no separate `alphabet_len`
    /// accessor anywhere in the engine API.
    pub fn alphabet(&self) -> &Alphabet {
        &self.alpha
    }

    /// The document schema `D`.
    pub fn dtd(&self) -> &Dtd {
        &self.dtd
    }

    /// The view definition `A`.
    pub fn annotation(&self) -> &Annotation {
        &self.ann
    }

    /// The precompiled DTD for the view language `A(L(D))`.
    pub fn view_dtd(&self) -> &Dtd {
        &self.view_dtd
    }

    /// The precompiled minimal-tree size tables.
    pub fn min_sizes(&self) -> &MinSizes {
        &self.sizes
    }

    /// The insertlet package `W`.
    pub fn insertlets(&self) -> &InsertletPackage {
        &self.insertlets
    }

    /// The engine's configuration.
    pub fn config(&self) -> &Config {
        &self.config
    }

    /// The cost model over the cached size tables and insertlets.
    pub fn cost_model(&self) -> CostModel<'_> {
        CostModel {
            sizes: &self.sizes,
            insertlets: &self.insertlets,
        }
    }

    /// Counters of the sessions' propagation memos: hits, misses and
    /// sweeps summed over every session this engine (and its clones)
    /// opened, and the entries its live sessions hold. All zeros with the
    /// memo off ([`EngineBuilder::prop_cache`]).
    pub fn cache_stats(&self) -> CacheStats {
        self.tallies.stats()
    }

    /// A memo table over `doc`, reporting to this engine's counters
    /// (`None` with the memo off).
    pub(crate) fn memo_for(&self, doc: &DocTree) -> Option<MemoTable> {
        self.prop_cache.then(|| MemoTable::new(&self.tallies, doc))
    }

    /// Validates `doc ∈ L(D)` and parks it, with the identifier floor past
    /// every identifier of `doc`: the one place a document is validated.
    pub fn park(&self, doc: DocTree) -> Result<Parked<'_>, PropagateError> {
        self.dtd
            .validate(&doc)
            .map_err(PropagateError::SourceNotValid)?;
        Ok(Parked {
            engine: self,
            gen: gen_past(&doc),
            doc,
        })
    }

    /// Validates `doc ∈ L(D)` once and opens a session serving repeated
    /// updates against a copy of it: [`Engine::park`] on the copy, then
    /// [`Parked::resume`].
    pub fn open(&self, doc: &DocTree) -> Result<Session<'_>, PropagateError> {
        Ok(self.park(doc.clone())?.resume())
    }

    /// One-shot [`Instance`] assembly against engine-cached artefacts:
    /// like [`Instance::new`] but without re-deriving the view DTD.
    ///
    /// Prefer [`Engine::open`] + [`Session::propagate`] when a document
    /// serves more than one update.
    pub fn instance<'e>(
        &'e self,
        source: &'e DocTree,
        update: &'e Script,
    ) -> Result<Instance<'e>, PropagateError> {
        let view_dtd = Cow::Borrowed(&self.view_dtd);
        let parts = SourceParts::prepare(&self.dtd, &self.ann, source, self.alpha.len(), view_dtd)?;
        Instance::from_parts(parts, update)
    }

    /// Propagates a prebuilt instance under the engine's cached cost
    /// model and configuration.
    pub fn propagate(&self, inst: &Instance<'_>) -> Result<Propagation, PropagateError> {
        propagate_with(inst, &self.cost_model(), &self.config)
    }
}

/// A document validated against one [`Engine`], with the identifier floor
/// its next session starts from. Only [`Engine::park`], which validates,
/// and [`Session::park`], whose commits kept the document valid, make one,
/// so [`Parked::resume`] neither validates nor copies, and cannot fail.
#[derive(Debug)]
pub struct Parked<'e> {
    engine: &'e Engine,
    doc: DocTree,
    gen: NodeIdGen,
}

impl<'e> Parked<'e> {
    /// The parked document.
    pub fn document(&self) -> &DocTree {
        &self.doc
    }

    /// Places the floor just past the document's own identifiers: the next
    /// session starts a fresh identifier history, as one from
    /// [`Engine::open`] does.
    pub fn restart_ids(&mut self) {
        self.gen = gen_past(&self.doc);
    }

    /// Opens a session on the document, minting identifiers from the floor
    /// on. The session interns the document into its own memo up front, so
    /// [`Session::commit`] can re-intern exactly the region each
    /// propagation changes.
    pub fn resume(self) -> Session<'e> {
        let Parked { engine, doc, gen } = self;
        let memo = engine.memo_for(&doc);
        Session {
            engine,
            prepared: Prepared {
                view: extract_view(&engine.ann, &doc),
                gen,
            },
            doc,
            commits: 0,
            work: Mutex::new(Work {
                scratch: PropScratch::new(),
                memo,
                phases: PhaseBreakdown::default(),
            }),
        }
    }
}

/// One open document served by an [`Engine`].
///
/// The document was validated once, by [`Engine::park`]; the session caches
/// its view and identifier high-water mark, and every subsequent call runs
/// only update-dependent work. [`Session::commit`] advances the session to
/// a propagation's output document with incremental revalidation, and
/// keeps the view current by patching it under the propagation's changed
/// parents.
///
/// # Incremental propagation
///
/// The session owns a propagation memo ([`crate::cache`]): it keeps the
/// structural intern id of every node of its document and looks up its
/// own table by those ids:
/// [`Session::propagate`] (and [`Session::count_optimal`] /
/// [`Session::enumerate_optimal`] / [`Session::complement_preserving`])
/// build a skeleton forest ([`PropagationForest`]): graphs only inside
/// the update's footprint, and for each clean child one memo lookup of
/// its optimal-propagation count. Past the assembled script, which spans
/// the document, the cost of the Kth small update is proportional to the
/// update's footprint rather than the document.
/// [`Session::commit`] re-interns exactly the dirty region — the
/// committed script's edited parents plus their ancestors — and sweeps
/// the shapes the document no longer names once they outgrow it. The memo
/// dies with the session. Memoised results are byte-identical to
/// unmemoised ones; see [`Engine::cache_stats`] for observability and
/// [`EngineBuilder::prop_cache`] to turn the memo off.
#[derive(Debug)]
pub struct Session<'e> {
    engine: &'e Engine,
    prepared: Prepared,
    doc: DocTree,
    commits: u64,
    /// The session's kernel scratch, memo and phase clock. The mutex keeps
    /// `propagate(&self)` ergonomic and `Session: Sync`; it is
    /// uncontended (a session belongs to one worker at a time).
    work: Mutex<Work>,
}

/// What a session's operations work in.
#[derive(Debug)]
struct Work {
    /// Pooled working memory for every propagation the session serves
    /// ([`PropScratch`]).
    scratch: PropScratch,
    /// The session's memo (`None` with the memo off). Its id map changes
    /// only in [`Session::commit`].
    memo: Option<MemoTable>,
    /// The session's phase clock ([`Session::phases`]).
    phases: PhaseBreakdown,
}

impl Clone for Session<'_> {
    fn clone(&self) -> Self {
        Session {
            engine: self.engine,
            prepared: self.prepared.clone(),
            doc: self.doc.clone(),
            commits: self.commits,
            work: Mutex::new(Work {
                // Scratch is pure working memory — a clone starts cold.
                scratch: PropScratch::new(),
                // The ids only mean something to the interner that minted
                // them: the clone copies the whole table.
                memo: self.work().memo.clone(),
                // The clone's clock counts its own operations.
                phases: PhaseBreakdown::default(),
            }),
        }
    }
}

impl<'e> Session<'e> {
    /// The engine that opened this session.
    pub fn engine(&self) -> &'e Engine {
        self.engine
    }

    fn work(&self) -> MutexGuard<'_, Work> {
        self.work.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Runs `f` on the session's memo table (tests only; the memo must be
    /// on).
    #[cfg(test)]
    pub(crate) fn with_memo_table<T>(&self, f: impl FnOnce(&mut MemoTable) -> T) -> T {
        f(self.work().memo.as_mut().expect("the memo is on"))
    }

    /// The current source document `t`.
    pub fn document(&self) -> &DocTree {
        &self.doc
    }

    /// The current view `A(t)` — what a user of this session sees and
    /// edits.
    pub fn view(&self) -> &DocTree {
        &self.prepared.view
    }

    /// Number of propagations committed so far.
    pub fn commits(&self) -> u64 {
        self.commits
    }

    /// The session's phase clock: the wall-clock time it has spent in each
    /// phase since it opened. Every [`Session::propagate`], a failed one
    /// included, adds its instance assembly, graph build, typing and
    /// script assembly, and every successful [`Session::commit`] its whole
    /// time; nothing else adds to it, so it only grows. The clock is always
    /// on, at a few clock reads per operation and two per node whose graph
    /// is built.
    pub fn phases(&self) -> PhaseBreakdown {
        self.work().phases
    }

    /// A fresh-identifier generator positioned past every identifier of
    /// the current document — hand it to update builders and parsers so
    /// new view nodes never collide with hidden source nodes.
    pub fn id_gen(&self) -> NodeIdGen {
        self.prepared.gen.clone()
    }

    /// Closes the session and parks its document, without copying it, at
    /// the session's identifier floor; the memo, view and scratch go. The
    /// resumed session mints exactly the identifiers this one would have,
    /// so a park and resume changes no reply.
    pub fn park(self) -> Parked<'e> {
        Parked {
            engine: self.engine,
            doc: self.doc,
            gen: self.prepared.gen,
        }
    }

    /// Assembles the validated [`Instance`] for `update` against the
    /// current document, borrowing every session-cached artefact (no
    /// document-sized copies). All update-dependent well-formedness
    /// checks of [`Instance::new`] run, in time proportional to the
    /// update; the source-side work does not.
    pub fn instance<'s>(&'s self, update: &'s Script) -> Result<Instance<'s>, PropagateError> {
        let parts = SourceParts {
            dtd: &self.engine.dtd,
            ann: &self.engine.ann,
            source: &self.doc,
            alphabet_len: self.engine.alpha.len(),
            view: Cow::Borrowed(&self.prepared.view),
            view_dtd: Cow::Borrowed(&self.engine.view_dtd),
            gen: self.prepared.gen.clone(),
        };
        Instance::from_parts(parts, update)
    }

    /// Computes the optimal propagation of `update` to the current
    /// document (the session equivalent of [`crate::propagate`]).
    ///
    /// With the memo on, graphs are built only inside the update's
    /// footprint, and every clean node outside it is the identity at cost
    /// 0; the result is byte-identical to an unmemoised computation. Its
    /// time goes on the session's phase clock.
    pub fn propagate(&self, update: &Script) -> Result<Propagation, PropagateError> {
        let t0 = Instant::now();
        let inst = self.instance(update);
        let work = &mut *self.work();
        work.phases.instance_ns += nanos_since(t0);
        propagate_with_memo(
            &inst?,
            &self.engine.cost_model(),
            &self.engine.config,
            work.memo.as_mut(),
            &mut work.scratch,
            &mut work.phases,
        )
    }

    /// Checks that `candidate` is a schema-compliant, side-effect-free
    /// propagation of `update` (see [`crate::verify_propagation`]).
    ///
    /// This re-assembles the instance from scratch — an independent
    /// first-principles re-check. Callers verifying the output of an
    /// immediately preceding [`Session::propagate`] who want to skip the
    /// duplicate update validation can build [`Session::instance`] once
    /// and feed it to [`Engine::propagate`] and
    /// [`crate::verify_propagation`] directly (as the `xvu` CLI does).
    pub fn verify(&self, update: &Script, candidate: &Script) -> Result<(), PropagateError> {
        let inst = self.instance(update)?;
        verify_propagation(&inst, candidate)
    }

    /// Counts the cost-minimal propagations of `update` (see
    /// [`crate::count_optimal_propagations`]).
    ///
    /// Builds the instance and forest from scratch. If you already hold
    /// the [`Propagation`] from [`Session::propagate`], count for free
    /// with [`crate::count_optimal_propagations`]`(&prop.forest)`
    /// instead.
    ///
    /// A successful count is always ≥ 1: when no propagation exists the
    /// instance or forest construction reports the reason as an `Err`
    /// (never a silent count of 0).
    pub fn count_optimal(&self, update: &Script) -> Result<u128, PropagateError> {
        let inst = self.instance(update)?;
        let forest = self.forest_for(&inst, &mut self.work())?;
        count_optimal_propagations(&forest).ok_or(PropagateError::NoPropagationPath(forest.root))
    }

    /// Builds the propagation forest for an already-validated instance: a
    /// skeleton forest counting clean subtrees through the session memo
    /// when it is on, the full forest otherwise. The queries that build
    /// one on their own leave the phase clock alone.
    fn forest_for(
        &self,
        inst: &Instance<'_>,
        work: &mut Work,
    ) -> Result<PropagationForest, PropagateError> {
        let cm = self.engine.cost_model();
        PropagationForest::build_with(inst, &cm, work.memo.as_mut(), &mut work.scratch, &mut 0)
    }

    /// Enumerates up to `cap` cost-minimal propagations of `update` (see
    /// [`crate::enumerate_optimal_propagations`]).
    ///
    /// Builds the instance and forest from scratch. Callers who already
    /// hold the [`Propagation`] from [`Session::propagate`] can reuse its
    /// forest via [`Session::instance`] +
    /// [`crate::enumerate_optimal_propagations`] and skip the rebuild.
    pub fn enumerate_optimal(
        &self,
        update: &Script,
        cap: usize,
    ) -> Result<Vec<Script>, PropagateError> {
        let inst = self.instance(update)?;
        let cm = self.engine.cost_model();
        let forest = self.forest_for(&inst, &mut self.work())?;
        enumerate_optimal_propagations(&inst, &cm, &forest, &self.engine.config, cap)
    }

    /// Searches for a constant-complement propagation of `update` — one
    /// that neither deletes nor inserts any invisible node (see
    /// [`crate::find_complement_preserving`]; `Ok(None)` when none
    /// exists). With the memo on, only the graphs inside the update's
    /// footprint are built and restricted: every clean node keeps its
    /// identity path.
    pub fn complement_preserving(&self, update: &Script) -> Result<Option<Script>, PropagateError> {
        let inst = self.instance(update)?;
        let mut work = self.work();
        let forest = self.forest_for(&inst, &mut work)?;
        find_complement_preserving_with(
            &inst,
            &forest,
            &self.engine.cost_model(),
            &self.engine.config,
            &mut work.scratch,
        )
    }

    /// Advances the session to the propagation's output document.
    ///
    /// The script is read once: one check against the session document
    /// ([`xvu_edit::check_script`]: two scans of the script's arena in
    /// slot order plus a walk of its dirty region) checks the closure
    /// rules and `In(S) = t` and yields the script's footprint. Every
    /// later step visits only that footprint. The output is schema-checked
    /// *incrementally* — only the changed child words are re-validated,
    /// as [`crate::revalidate_output`] does — instead of the full
    /// validation a fresh [`Engine::open`] would run. The propagation is
    /// then applied **in place** ([`xvu_edit::apply_checked`]): only the
    /// child lists of the footprint's changed `Nop` parents are rewritten.
    /// Those parents and their ancestors are the dirty region, every node
    /// whose subtree changed (an ancestor of a `Nop` node is `Nop`, so the
    /// region lies in the document); it is re-interned together with every
    /// inserted subtree, and every other node keeps its structural memo
    /// key.
    ///
    /// The view is patched in place rather than extracted again: the
    /// propagation is side-effect free, so the view changes only under the
    /// visible parents in the script's footprint, which lose their deleted
    /// visible children and gain the view of each inserted visible
    /// subtree. The identifier high-water mark is bumped past the inserted
    /// identifiers and never rewinds.
    ///
    /// The intern ids are updated in place. A live node's arena slot never
    /// moves, so every node outside the commit's reach keeps its slot and
    /// its id; the slots of the deleted nodes (resolved before the apply
    /// vacates them), of the inserted nodes (which may reuse vacated
    /// slots) and of the dirty region lose theirs, and exactly those are
    /// re-interned. Once the memo has outgrown the document, the commit
    /// also sweeps it to the shapes the document still names
    /// ([`crate::cache`]). Only the check's arena scans still read every
    /// node: the paper's propagation script spans the whole source, and a
    /// sparse script would let them read only the dirty skeleton. A
    /// successful commit adds its time to the phase clock as `commit_ns`;
    /// a failed commit changes nothing, the clock included.
    pub fn commit(&mut self, prop: &Propagation) -> Result<(), PropagateError> {
        let t0 = Instant::now();
        // One check of the script against the document: the closure
        // rules, `In(S) = t`, and the footprint every later step reads.
        let script = &prop.script;
        let check = check_script(script, Some(&self.doc));
        check.closure()?;
        revalidate_changed(&self.engine.dtd, script, check.footprint())?;
        let work = self.work.get_mut().unwrap_or_else(PoisonError::into_inner);
        let memo = work.memo.as_mut();
        let changed = check.footprint().changed();
        let is_ins = |n: &&NodeId| script.label(**n).op == EditOp::Ins;
        // The deleted nodes' slots, while the document still holds them:
        // each deleted subtree hangs under a changed `Nop` parent.
        let mut stale: Vec<Slot> = Vec::new();
        if memo.is_some() {
            for &n in changed.iter().filter(|n| !is_ins(n)) {
                for &c in script.children(n) {
                    if script.label(c).op == EditOp::Del {
                        stale.extend(script.preorder_from(c).filter_map(|d| self.doc.slot(d)));
                    }
                }
            }
        }
        if let Err(e) = apply_checked(&mut self.doc, script, &check) {
            // `apply_checked` reports every error before mutating: the
            // document and its intern ids are intact.
            return Err(match e {
                EditError::EmptyInput => {
                    PropagateError::NotAPropagation("script input is empty".to_owned())
                }
                EditError::EmptyOutput => PropagateError::NotAPropagation(
                    "propagation deletes the document root".to_owned(),
                ),
                EditError::InputMismatch => PropagateError::NotAPropagation(
                    "committed propagation does not start from the session document".to_owned(),
                ),
                other => PropagateError::Edit(other),
            });
        }
        if let Some(memo) = memo {
            // Every changed node is live now: an inserted one is stale, and
            // a changed `Nop` parent heads the dirty region.
            let slot = |n: &NodeId| self.doc.slot(*n).expect("changed nodes are live");
            stale.extend(changed.iter().filter(is_ins).map(slot));
            let edited = changed.iter().filter(|n| !is_ins(n)).map(slot);
            memo.refresh(&self.doc, &stale, edited);
        }
        self.prepared
            .advance(&self.engine.ann, script, check.footprint());
        self.commits += 1;
        work.phases.commit_ns += nanos_since(t0);
        Ok(())
    }

    /// Convenience: [`Session::propagate`] then [`Session::commit`],
    /// returning the committed propagation.
    pub fn apply(&mut self, update: &Script) -> Result<Propagation, PropagateError> {
        let prop = self.propagate(update)?;
        self.commit(&prop)?;
        Ok(prop)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixtures;
    use crate::propagate;
    use xvu_edit::{nop_script, output_tree, parse_script, script_to_term, ELabel};
    use xvu_view::extract_view;

    fn paper_engine() -> (Engine, DocTree, Script) {
        let fx = fixtures::paper_running_example();
        let engine = Engine::builder()
            .alphabet(fx.alpha.clone())
            .dtd(fx.dtd.clone())
            .annotation(fx.ann.clone())
            .build()
            .unwrap();
        (engine, fx.t0.clone(), fx.s0.clone())
    }

    #[test]
    fn builder_requires_all_components() {
        let fx = fixtures::paper_running_example();
        assert!(matches!(
            Engine::builder().build(),
            Err(PropagateError::InvalidInstance(_))
        ));
        assert!(matches!(
            Engine::builder().alphabet(fx.alpha.clone()).build(),
            Err(PropagateError::InvalidInstance(_))
        ));
        assert!(Engine::builder()
            .alphabet(fx.alpha)
            .dtd(fx.dtd)
            .annotation(fx.ann)
            .build()
            .is_ok());
    }

    #[test]
    fn session_propagation_matches_one_shot() {
        let (engine, t0, s0) = paper_engine();
        let session = engine.open(&t0).unwrap();
        let prop = session.propagate(&s0).unwrap();
        assert_eq!(prop.cost, 14);
        session.verify(&s0, &prop.script).unwrap();

        let fx = fixtures::paper_running_example();
        let inst = Instance::new(&fx.dtd, &fx.ann, &fx.t0, &fx.s0, fx.alpha.len()).unwrap();
        let one_shot = propagate(&inst, &InsertletPackage::new(), &Config::default()).unwrap();
        assert_eq!(prop.cost, one_shot.cost);
        assert_eq!(
            script_to_term(&prop.script, engine.alphabet()),
            script_to_term(&one_shot.script, &fx.alpha)
        );
    }

    #[test]
    fn open_rejects_invalid_documents() {
        let (engine, _, _) = paper_engine();
        let fx = fixtures::paper_running_example();
        let mut alpha = fx.alpha.clone();
        let mut gen = xvu_tree::NodeIdGen::starting_at(100);
        let bad =
            xvu_tree::parse_term_with_ids(&mut alpha, &mut gen, "r#100(a#101, b#102)").unwrap();
        assert!(matches!(
            engine.open(&bad),
            Err(PropagateError::SourceNotValid(_))
        ));
    }

    #[test]
    fn commit_advances_the_session() {
        let (engine, t0, s0) = paper_engine();
        let mut session = engine.open(&t0).unwrap();
        let prop = session.propagate(&s0).unwrap();
        session.commit(&prop).unwrap();
        assert_eq!(session.commits(), 1);
        // the new document is the propagation output and the new view is
        // exactly what the user asked for
        let out = output_tree(&prop.script).unwrap();
        assert_eq!(session.document(), &out);
        assert_eq!(session.view(), &extract_view(engine.annotation(), &out));
        // an identity update against the new view propagates for free
        let prop2 = session.propagate(&nop_script(session.view())).unwrap();
        assert_eq!(prop2.cost, 0);
    }

    #[test]
    fn commit_rejects_propagations_of_other_documents() {
        let (engine, t0, s0) = paper_engine();
        let mut session = engine.open(&t0).unwrap();
        let prop = session.propagate(&s0).unwrap();
        session.commit(&prop).unwrap();
        // committing the same propagation again: its input is the *old*
        // document
        assert!(matches!(
            session.commit(&prop),
            Err(PropagateError::NotAPropagation(_))
        ));
    }

    #[test]
    fn failed_commits_leave_the_view_and_generator_untouched() {
        let (engine, t0, s0) = paper_engine();
        let mut session = engine.open(&t0).unwrap();
        let prop = session.propagate(&s0).unwrap();
        session.commit(&prop).unwrap();
        let view = session.view().clone();
        let doc = session.document().clone();
        let next = session.id_gen().peek();
        let untouched = |s: &Session<'_>| {
            assert_eq!(s.view(), &view);
            assert_eq!(s.document(), &doc);
            assert_eq!(s.id_gen().peek(), next);
            assert_eq!(s.commits(), 1);
        };

        // Input mismatch: the same propagation again starts from the old
        // document.
        assert!(matches!(
            session.commit(&prop),
            Err(PropagateError::NotAPropagation(_))
        ));
        untouched(&session);

        // Failed revalidation: the current document plus a trailing `b`
        // under the root breaks `r → (a·(b+c)·d)*`. Its fresh identifier
        // must not move the generator.
        let b = engine.alphabet().get("b").unwrap();
        let mut script = nop_script(session.document());
        let root = script.root();
        script
            .add_child_with_id(root, NodeId(5000), ELabel::ins(b))
            .unwrap();
        let bad = Propagation {
            script,
            cost: 1,
            forest: prop.forest.clone(),
        };
        assert!(matches!(
            session.commit(&bad),
            Err(PropagateError::NotAPropagation(m)) if m.contains("incremental validation")
        ));
        untouched(&session);
    }

    #[test]
    fn open_is_stack_safe_on_a_20k_level_chain() {
        // r → a?, a → a?·b?: a chain one node per level, opened on a
        // thread with a 256 KiB stack. The view extraction and the
        // `In(S)` check both read the whole chain, and so does
        // the identity update's count fill: its one lookup, at the clean
        // root, misses and counts every level.
        let mut alpha = Alphabet::new();
        let dtd = xvu_dtd::parse_dtd(&mut alpha, "r -> a?\na -> a?.b?").unwrap();
        let ann = xvu_view::parse_annotation(&mut alpha, "hide a b").unwrap();
        let (r, a, b) = (
            alpha.get("r").unwrap(),
            alpha.get("a").unwrap(),
            alpha.get("b").unwrap(),
        );
        let mut gen = NodeIdGen::new();
        let mut doc = DocTree::leaf(&mut gen, r);
        let mut parent = doc.root();
        for _ in 0..20_000 {
            parent = doc.add_child(parent, &mut gen, a);
        }
        doc.add_child(parent, &mut gen, b);
        let engine = Engine::new(alpha, dtd, ann);
        let view_size = std::thread::Builder::new()
            .stack_size(256 * 1024)
            .spawn(move || {
                let session = engine.open(&doc).expect("the chain is valid");
                let identity = nop_script(session.view());
                session.instance(&identity).expect("identity is an update");
                let prop = session.propagate(&identity).expect("identity propagates");
                assert_eq!(prop.cost, 0);
                assert_eq!(count_optimal_propagations(&prop.forest), Some(1));
                session.view().size()
            })
            .unwrap()
            .join()
            .expect("open must not overflow the stack");
        assert_eq!(view_size, 20_001, "everything but the hidden b");
    }

    #[test]
    fn edits_at_the_bottom_of_a_20k_level_chain_are_stack_safe() {
        // The chain of `open_is_stack_safe_on_a_20k_level_chain`, with one
        // `a` inserted under the deepest `a` (before its hidden `b`):
        // propagate, both counts, complement search and commit all walk
        // the whole spine — the skeleton is the whole spine with the memo
        // on, the forest is the whole chain with it off — on a thread
        // with a 256 KiB stack.
        let mut alpha = Alphabet::new();
        let dtd = xvu_dtd::parse_dtd(&mut alpha, "r -> a?\na -> a?.b?").unwrap();
        let ann = xvu_view::parse_annotation(&mut alpha, "hide a b").unwrap();
        let (r, a, b) = (
            alpha.get("r").unwrap(),
            alpha.get("a").unwrap(),
            alpha.get("b").unwrap(),
        );
        let mut gen = NodeIdGen::new();
        let mut doc = DocTree::leaf(&mut gen, r);
        let mut parent = doc.root();
        for _ in 0..20_000 {
            parent = doc.add_child(parent, &mut gen, a);
        }
        doc.add_child(parent, &mut gen, b);
        for memo in [true, false] {
            let engine = Engine::builder()
                .alphabet(alpha.clone())
                .dtd(dtd.clone())
                .annotation(ann.clone())
                .prop_cache(memo)
                .build()
                .unwrap();
            let doc = doc.clone();
            let (cost, size) = std::thread::Builder::new()
                .stack_size(256 * 1024)
                .spawn(move || {
                    let mut session = engine.open(&doc).expect("the chain is valid");
                    let mut update = nop_script(session.view());
                    let fresh = session.id_gen().fresh();
                    update
                        .add_child_with_id(parent, fresh, ELabel::ins(a))
                        .unwrap();
                    let prop = session.propagate(&update).expect("the insert propagates");
                    assert_eq!(count_optimal_propagations(&prop.forest), Some(1));
                    assert_eq!(session.count_optimal(&update).expect("it counts"), 1);
                    let complement = session
                        .complement_preserving(&update)
                        .expect("the complement search completes")
                        .expect("inserting an `a` needs no hidden padding");
                    assert!(
                        complement == prop.script,
                        "the optimum keeps the complement"
                    );
                    session.commit(&prop).expect("the propagation commits");
                    assert!(session.document().contains(fresh));
                    (prop.cost, session.document().size())
                })
                .unwrap()
                .join()
                .expect("propagate, count, complement search and commit must not overflow");
            assert_eq!((cost, size), (1, 20_003), "memo {memo}");
        }
    }

    #[test]
    fn inserting_a_20k_level_chain_is_stack_safe() {
        // r → a?, a → a?·b?, hide a b: an update inserts a chain of
        // 20,000 `a`s under the document's one `a`. Propagation inverts
        // the inserted fragment level by level, counting multiplies its
        // minimal inverses level by level, and commit attaches it whole —
        // on a thread with a 256 KiB stack.
        const DEPTH: usize = 20_000;
        let mut alpha = Alphabet::new();
        let dtd = xvu_dtd::parse_dtd(&mut alpha, "r -> a?\na -> a?.b?").unwrap();
        let ann = xvu_view::parse_annotation(&mut alpha, "hide a b").unwrap();
        let a = alpha.get("a").unwrap();
        let mut gen = NodeIdGen::new();
        let doc = xvu_tree::parse_term_with_ids(&mut alpha, &mut gen, "r#0(a#1(b#2))").unwrap();
        for memo in [true, false] {
            let engine = Engine::builder()
                .alphabet(alpha.clone())
                .dtd(dtd.clone())
                .annotation(ann.clone())
                .prop_cache(memo)
                .build()
                .unwrap();
            let doc = doc.clone();
            let (cost, size) = std::thread::Builder::new()
                .stack_size(256 * 1024)
                .spawn(move || {
                    let mut session = engine.open(&doc).expect("the document is valid");
                    let mut update = nop_script(session.view());
                    let mut ids = session.id_gen();
                    let mut parent = NodeId(1);
                    for _ in 0..DEPTH {
                        let id = ids.fresh();
                        update
                            .add_child_with_id(parent, id, ELabel::ins(a))
                            .unwrap();
                        parent = id;
                    }
                    let prop = session.propagate(&update).expect("the insert propagates");
                    assert_eq!(count_optimal_propagations(&prop.forest), Some(1));
                    assert_eq!(session.count_optimal(&update).expect("it counts"), 1);
                    session.commit(&prop).expect("the propagation commits");
                    assert!(session.document().contains(parent));
                    (prop.cost, session.document().size())
                })
                .unwrap()
                .join()
                .expect("propagate, count and commit must not overflow");
            assert_eq!((cost, size), (DEPTH as u64, DEPTH + 3), "memo {memo}");
        }
    }

    #[test]
    fn the_phase_clock_only_grows_and_commit_ns_moves_on_commit_alone() {
        let (engine, t0, s0) = paper_engine();
        let mut session = engine.open(&t0).unwrap();
        assert_eq!(session.phases(), PhaseBreakdown::default());
        let propagate_ns =
            |p: PhaseBreakdown| p.instance_ns + p.graph_build_ns + p.typing_ns + p.assemble_ns;
        let grows = |before: PhaseBreakdown, after: PhaseBreakdown| {
            let pairs = [
                (before.instance_ns, after.instance_ns),
                (before.graph_build_ns, after.graph_build_ns),
                (before.typing_ns, after.typing_ns),
                (before.assemble_ns, after.assemble_ns),
                (before.commit_ns, after.commit_ns),
            ];
            assert!(pairs.iter().all(|(b, a)| a >= b), "{before:?} → {after:?}");
        };

        // Propagations, failed ones included, and the read-only queries
        // never move commit_ns: a session that only propagated has none.
        let mut last = session.phases();
        let prop = session.propagate(&s0).unwrap();
        let mut alpha = engine.alphabet().clone();
        let wrong_input = parse_script(&mut alpha, "nop:r#0(nop:a#1)").unwrap();
        for op in 0..6 {
            match op {
                0 => drop(session.propagate(&s0).unwrap()),
                1 => assert!(session.propagate(&wrong_input).is_err()),
                2 => session.verify(&s0, &prop.script).unwrap(),
                3 => assert!(session.count_optimal(&s0).unwrap() >= 1),
                4 => assert!(!session.enumerate_optimal(&s0, 2).unwrap().is_empty()),
                _ => assert!(session.complement_preserving(&s0).unwrap().is_none()),
            }
            let now = session.phases();
            grows(last, now);
            assert_eq!(now.commit_ns, 0, "op {op}");
            last = now;
        }
        assert!(propagate_ns(last) > 0, "{last:?}");

        // A commit moves commit_ns and nothing else; a failed one (the
        // same propagation again) moves nothing.
        let before = session.phases();
        session.commit(&prop).unwrap();
        let after = session.phases();
        grows(before, after);
        assert!(after.commit_ns > before.commit_ns);
        let commit_ns = after.commit_ns;
        assert_eq!(
            PhaseBreakdown {
                commit_ns,
                ..before
            },
            after
        );
        assert!(session.commit(&prop).is_err());
        assert_eq!(session.phases(), after);
        let before = session.phases();
        session.propagate(&nop_script(session.view())).unwrap();
        let after = session.phases();
        grows(before, after);
        assert_eq!(after.commit_ns, before.commit_ns);
        assert!(propagate_ns(after) > propagate_ns(before));
    }

    #[test]
    fn session_count_and_enumerate() {
        let (engine, t0, s0) = paper_engine();
        let session = engine.open(&t0).unwrap();
        let count = session.count_optimal(&s0).unwrap();
        assert!(count >= 8);
        let scripts = session.enumerate_optimal(&s0, 5).unwrap();
        assert!(!scripts.is_empty());
        for s in &scripts {
            session.verify(&s0, s).unwrap();
        }
    }

    #[test]
    fn session_rejects_bad_updates() {
        let (engine, t0, _) = paper_engine();
        let session = engine.open(&t0).unwrap();
        let mut alpha = engine.alphabet().clone();
        // wrong In(S)
        let s = parse_script(&mut alpha, "nop:r#0(nop:a#1)").unwrap();
        assert!(matches!(
            session.propagate(&s),
            Err(PropagateError::Edit(_))
        ));
        // hidden identifier reuse (node 7 is hidden in t0)
        let s = parse_script(
            &mut alpha,
            "nop:r#0(nop:a#1, nop:d#3(nop:c#8), nop:a#4, ins:d#7, nop:d#6(nop:c#10))",
        )
        .unwrap();
        assert!(matches!(
            session.propagate(&s),
            Err(PropagateError::Edit(xvu_edit::EditError::HiddenIdUsed(
                NodeId(7)
            )))
        ));
    }

    #[test]
    fn minimal_insertlets_are_precompiled() {
        let fx = fixtures::paper_running_example();
        let engine = Engine::builder()
            .alphabet(fx.alpha.clone())
            .dtd(fx.dtd.clone())
            .annotation(fx.ann.clone())
            .minimal_insertlets()
            .build()
            .unwrap();
        assert_eq!(engine.insertlets().len(), fx.alpha.len());
        // and propagation still reproduces Fig. 7 (all minimal fragments
        // have the same sizes as the on-the-fly witnesses)
        let session = engine.open(&fx.t0).unwrap();
        assert_eq!(session.propagate(&fx.s0).unwrap().cost, 14);
    }

    #[test]
    fn engine_instance_matches_instance_new() {
        let (engine, t0, s0) = paper_engine();
        let inst = engine.instance(&t0, &s0).unwrap();
        let prop = engine.propagate(&inst).unwrap();
        assert_eq!(prop.cost, 14);
    }

    #[test]
    fn commit_id_high_water_is_monotone_and_collision_free() {
        // Update 1 inserts a visible (a, d(c)) group under very high
        // identifiers; update 2 deletes it again. After the second commit
        // the surviving document contains only small identifiers, but the
        // session generator must NOT rewind: identifiers from the
        // session's history (including hidden insertlet material that was
        // minted and then deleted) are never recycled.
        let (engine, t0, _) = paper_engine();
        let mut session = engine.open(&t0).unwrap();
        let mut alpha = engine.alphabet().clone();
        let u1 = parse_script(
            &mut alpha,
            "nop:r#0(nop:a#1, nop:d#3(nop:c#8), nop:a#4, nop:d#6(nop:c#10), \
             ins:a#1000, ins:d#1001(ins:c#1002))",
        )
        .unwrap();
        let p1 = session.apply(&u1).unwrap();
        // the inserted group forced fresh hidden material past 1002
        let after_first = session.id_gen().peek();
        assert!(after_first.0 > 1002, "peek = {after_first}");
        assert!(output_tree(&p1.script).unwrap().contains(NodeId(1001)));

        let u2 = parse_script(
            &mut alpha,
            "nop:r#0(nop:a#1, nop:d#3(nop:c#8), nop:a#4, nop:d#6(nop:c#10), \
             del:a#1000, del:d#1001(del:c#1002))",
        )
        .unwrap();
        session.apply(&u2).unwrap();
        // the document is back to small identifiers only…
        assert!(!session.document().contains(NodeId(1000)));
        // …but the generator never rewinds below the session's history
        let after_second = session.id_gen().peek();
        assert!(
            after_second >= after_first,
            "{after_second} < {after_first}"
        );
        let mut gen = session.id_gen();
        for _ in 0..64 {
            let fresh = gen.fresh();
            assert!(!session.document().contains(fresh));
            assert!(fresh.0 > 1002, "recycled historical id {fresh}");
        }
    }

    #[test]
    fn session_id_gen_clears_document_ids() {
        let (engine, t0, _) = paper_engine();
        let session = engine.open(&t0).unwrap();
        let mut gen = session.id_gen();
        let fresh = gen.fresh();
        assert!(!t0.contains(fresh));
    }

    #[test]
    fn prop_cache_hits_on_repeated_propagates() {
        let (engine, t0, s0) = paper_engine();
        let session = engine.open(&t0).unwrap();
        let p1 = session.propagate(&s0).unwrap();
        let after_first = engine.cache_stats();
        // S0's clean region: a#4 and c#10 (whole subtrees Nop), one
        // lookup each; their counts were filled once and stored. The other
        // two preserved nodes (r#0, d#6) sit inside the footprint: their
        // graphs are built, and their typing runs memoised, so 4
        // structures in total.
        assert_eq!(after_first.hits, 0);
        assert_eq!(after_first.misses, 2);
        assert_eq!(after_first.entries, 4);
        let p2 = session.propagate(&s0).unwrap();
        let after_second = engine.cache_stats();
        assert_eq!(after_second.hits, 2, "warm counts served from the memo");
        assert_eq!(after_second.misses, 2, "no new misses");
        // and the warm result is byte-identical to the cold one
        assert_eq!(p1.cost, p2.cost);
        assert_eq!(
            script_to_term(&p1.script, engine.alphabet()),
            script_to_term(&p2.script, engine.alphabet())
        );
    }

    #[test]
    fn cache_disabled_engine_still_propagates_identically() {
        let fx = fixtures::paper_running_example();
        let cached = Engine::builder()
            .alphabet(fx.alpha.clone())
            .dtd(fx.dtd.clone())
            .annotation(fx.ann.clone())
            .build()
            .unwrap();
        let uncached = Engine::builder()
            .alphabet(fx.alpha.clone())
            .dtd(fx.dtd.clone())
            .annotation(fx.ann.clone())
            .prop_cache(false)
            .build()
            .unwrap();
        let sc = cached.open(&fx.t0).unwrap();
        let su = uncached.open(&fx.t0).unwrap();
        let pc = sc.propagate(&fx.s0).unwrap();
        let pu = su.propagate(&fx.s0).unwrap();
        assert_eq!(pc.cost, pu.cost);
        assert_eq!(
            script_to_term(&pc.script, cached.alphabet()),
            script_to_term(&pu.script, uncached.alphabet())
        );
        assert_eq!(uncached.cache_stats(), CacheStats::default());
    }

    /// `r → d*`, `d → (a·h?)*` with `h` hidden: many independent sibling
    /// groups of few distinct shapes.
    fn groups_engine(alpha: &mut Alphabet) -> Engine {
        let dtd = xvu_dtd::parse_dtd(alpha, "r -> d*\nd -> (a.h?)*").unwrap();
        let ann = xvu_view::parse_annotation(alpha, "hide d h").unwrap();
        Engine::new(alpha.clone(), dtd, ann)
    }

    #[test]
    fn commit_invalidates_only_the_dirty_region() {
        let mut alpha = Alphabet::new();
        let engine = groups_engine(&mut alpha);
        let mut gen = NodeIdGen::new();
        let doc = xvu_tree::parse_term_with_ids(
            &mut alpha,
            &mut gen,
            "r#0(d#1(a#2, h#3), d#4(a#5, h#6), d#7(a#8, h#9))",
        )
        .unwrap();
        let mut session = engine.open(&doc).unwrap();

        // An identity update warms the memo: one lookup, at the clean
        // root, whose miss counts the three distinct structures (r, d, a)
        // of the seven preserved nodes.
        let prop0 = session.propagate(&nop_script(session.view())).unwrap();
        assert_eq!(prop0.cost, 0);
        let warm = engine.cache_stats();
        assert_eq!((warm.hits, warm.misses, warm.entries), (0, 1, 3));

        // admit a new a under d#1 and commit
        let u = parse_script(
            &mut alpha,
            "nop:r#0(nop:d#1(nop:a#2, ins:a#20), nop:d#4(nop:a#5), nop:d#7(nop:a#8))",
        )
        .unwrap();
        let prop = session.propagate(&u).unwrap();
        session.commit(&prop).unwrap();
        let before = engine.cache_stats();

        // Only the dirty region (d#1 and its ancestor r#0) has a new
        // structure: the one lookup at the clean root misses, and its fill
        // counts exactly those two, finding d#4, d#7 and all four a's by
        // their kept keys.
        session.propagate(&nop_script(session.view())).unwrap();
        let after = engine.cache_stats();
        assert_eq!(after.misses - before.misses, 1, "{after:?}");
        assert_eq!(after.hits - before.hits, 0, "{after:?}");
        assert_eq!(after.entries - before.entries, 2, "{after:?}");
    }

    #[test]
    fn sessions_of_equal_structure_count_separately() {
        let mut alpha = Alphabet::new();
        let engine = groups_engine(&mut alpha);
        let mut gen = NodeIdGen::new();
        let d1 = xvu_tree::parse_term_with_ids(
            &mut alpha,
            &mut gen,
            "r#0(d#1(a#2, h#3), d#4(a#5, h#6))",
        )
        .unwrap();
        // The same *structure* under entirely different identifiers.
        let d2 = xvu_tree::parse_term_with_ids(
            &mut alpha,
            &mut gen,
            "r#10(d#11(a#12, h#13), d#14(a#15, h#16))",
        )
        .unwrap();

        let s1 = engine.open(&d1).unwrap();
        let p1 = s1.propagate(&nop_script(s1.view())).unwrap();
        assert_eq!(p1.cost, 0);
        // one lookup, at the clean root; its miss counts three structures
        // (the second d and a are found at once)
        let st1 = engine.cache_stats();
        assert_eq!((st1.hits, st1.misses, st1.entries), (0, 1, 3));

        // A different document of the same family: its session owns its
        // memo, so it counts the same three structures again, and the
        // engine's entries are both sessions'.
        let s2 = engine.open(&d2).unwrap();
        let p2 = s2.propagate(&nop_script(s2.view())).unwrap();
        assert_eq!(p2.cost, 0);
        let st2 = engine.cache_stats();
        assert_eq!((st2.hits, st2.misses, st2.entries), (0, 2, 6));
        // Each memo dies with its session.
        drop(s1);
        assert_eq!(engine.cache_stats().entries, 3);
        drop(s2);
        assert_eq!(engine.cache_stats().entries, 0);
    }

    #[test]
    fn a_fresh_session_recounts_a_committed_document() {
        let mut alpha = Alphabet::new();
        let engine = groups_engine(&mut alpha);
        let mut gen = NodeIdGen::new();
        let doc = xvu_tree::parse_term_with_ids(
            &mut alpha,
            &mut gen,
            "r#0(d#1(a#2, h#3), d#4(a#5, h#6), d#7(a#8, h#9))",
        )
        .unwrap();
        let mut session = engine.open(&doc).unwrap();
        session.propagate(&nop_script(session.view())).unwrap();

        // Commit an update: d#1 gains an a; the dirty region (d#1, r#0)
        // is re-interned, d#4/d#7 keep their structural ids, and the
        // long-lived session's identity update hits nothing but misses
        // once, at the clean root.
        let u = parse_script(
            &mut alpha,
            "nop:r#0(nop:d#1(nop:a#2, ins:a#20), nop:d#4(nop:a#5), nop:d#7(nop:a#8))",
        )
        .unwrap();
        let prop = session.propagate(&u).unwrap();
        session.commit(&prop).unwrap();
        let identity = nop_script(session.view());
        let kept = session.propagate(&identity).unwrap();

        // A fresh session over the committed document interns it from
        // scratch into a memo of its own: its identity update looks the
        // clean root up once and misses — it recounts — and propagates
        // exactly as the long-lived session did.
        let before = engine.cache_stats();
        let fresh = engine.open(session.document()).unwrap();
        let recounted = fresh.propagate(&identity).unwrap();
        let after = engine.cache_stats();
        assert_eq!(after.misses - before.misses, 1, "{after:?}");
        assert_eq!(after.hits, before.hits, "{after:?}");
        assert_eq!(
            script_to_term(&kept.script, engine.alphabet()),
            script_to_term(&recounted.script, engine.alphabet())
        );
    }

    #[test]
    fn commit_keeps_every_intern_id_fresh() {
        // A churn stream — inserts and deletes of leaves and of whole
        // groups, spread over the document — committed one edit at a
        // time. After every commit the session's id map must equal a
        // fresh interning of its document, slot by slot: a dirty ancestor
        // left with its old id would differ here even where no lookup
        // reads it.
        let mut alpha = Alphabet::new();
        let engine = groups_engine(&mut alpha);
        let (d, a) = (alpha.get("d").unwrap(), alpha.get("a").unwrap());
        let mut gen = NodeIdGen::new();
        let doc = xvu_tree::parse_term_with_ids(
            &mut alpha,
            &mut gen,
            "r#0(d#1(a#2, h#3, a#4), d#5(a#6), d#7(a#8, h#9), d#10)",
        )
        .unwrap();
        let mut session = engine.open(&doc).unwrap();
        for step in 0..24usize {
            let view = session.view();
            let mut update = nop_script(view);
            let mut ids = session.id_gen();
            let groups = view.children(view.root()).to_vec();
            let group = groups[step * 7 % groups.len()];
            let leaves = view.children(group).to_vec();
            match step % 4 {
                0 => {
                    let at = ids.fresh();
                    update.add_child_with_id(group, at, ELabel::ins(a)).unwrap();
                }
                1 if !leaves.is_empty() => {
                    let leaf = leaves[step % leaves.len()];
                    update
                        .relabel_subtree(leaf, |l| ELabel::del(l.label))
                        .unwrap();
                }
                2 => {
                    let (g, leaf) = (ids.fresh(), ids.fresh());
                    update
                        .add_child_with_id(view.root(), g, ELabel::ins(d))
                        .unwrap();
                    update.add_child_with_id(g, leaf, ELabel::ins(a)).unwrap();
                }
                _ if groups.len() > 2 => {
                    update
                        .relabel_subtree(group, |l| ELabel::del(l.label))
                        .unwrap();
                }
                _ => {}
            }
            let prop = session.propagate(&update).unwrap();
            session.commit(&prop).unwrap();
            let doc = session.document();
            session.with_memo_table(|table| {
                let fresh = table.interner.intern_doc(doc);
                assert_eq!(table.ids.len(), doc.size(), "step {step}");
                for n in doc.postorder() {
                    let slot = doc.slot(n).unwrap();
                    assert_eq!(
                        table.ids.get(slot),
                        fresh.get(slot),
                        "step {step}: node {n}"
                    );
                }
            });
        }
    }

    #[test]
    fn session_complement_preserving_matches_free_function() {
        use xvu_dtd::parse_dtd;
        use xvu_tree::parse_term_with_ids;
        use xvu_view::parse_annotation;

        let mut alpha = Alphabet::new();
        let dtd = parse_dtd(&mut alpha, "r -> (a.h?)*").unwrap();
        let ann = parse_annotation(&mut alpha, "hide r h").unwrap();
        let mut gen = NodeIdGen::new();
        let doc = parse_term_with_ids(&mut alpha, &mut gen, "r#0(a#1, h#2)").unwrap();
        let update = parse_script(&mut alpha, "nop:r#0(nop:a#1, ins:a#5)").unwrap();
        let engine = Engine::builder()
            .alphabet(alpha.clone())
            .dtd(dtd.clone())
            .annotation(ann.clone())
            .build()
            .unwrap();
        let session = engine.open(&doc).unwrap();
        let by_session = session
            .complement_preserving(&update)
            .unwrap()
            .expect("constant complement exists here");
        // warm call agrees with the cold one
        let warm = session
            .complement_preserving(&update)
            .unwrap()
            .expect("still exists");
        assert_eq!(
            script_to_term(&by_session, &alpha),
            script_to_term(&warm, &alpha)
        );
        // and with the first-principles free function
        let inst = Instance::new(&dtd, &ann, &doc, &update, alpha.len()).unwrap();
        let cm = engine.cost_model();
        let forest = PropagationForest::build(&inst, &cm).unwrap();
        let free =
            crate::complement::find_complement_preserving(&inst, &forest, &cm, engine.config())
                .unwrap()
                .expect("constant complement exists here");
        assert_eq!(
            script_to_term(&by_session, &alpha),
            script_to_term(&free, &alpha)
        );
        // the paper's S0 case still reports non-existence through the
        // session path
        let (engine2, t0, s0) = paper_engine();
        let session2 = engine2.open(&t0).unwrap();
        assert!(session2.complement_preserving(&s0).unwrap().is_none());
    }
}
