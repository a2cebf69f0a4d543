//! The differential oracle harness over enumerated instances.
//!
//! One instance, independently computed answers that must agree:
//!
//! | oracle | implementation |
//! |--------|----------------|
//! | memo-on session (cold + warm) | `Engine` + `Session` over the session's structure-keyed memo |
//! | memo-off session | same engine stack, `prop_cache(false)` |
//! | sibling session | a second session of the memo-on engine, which counts the document again in its own memo |
//! | one-shot | the `Instance`/`propagate` compatibility layer |
//! | repair baseline | `xvu_repair` minimal-TED re-materialisation (§6.2) |
//!
//! The constant-complement search is held to the same matrix: the
//! memo-on session (a skeleton forest), the memo-off session and the
//! one-shot `find_complement_preserving` over the full forest must find
//! the same script, or agree that none exists.
//!
//! plus the counting×enumeration cross-check: when `count_optimal` is
//! small enough to enumerate, it must equal the number of *distinct*
//! scripts produced by `enumerate_optimal`, each of which must verify at
//! the optimal cost (Theorems 5–6 pinned against each other).
//!
//! [`differential_check`] runs the full matrix on one
//! [`EnumeratedInstance`]; any disagreement is returned as an `Err`
//! carrying a [replayable dump](crate::replay::instance_dump).
//! [`run_sweep`] maps it over an entire [`EnumBudget`] and aggregates per
//! [regime](crate::enumo::EnumeratedInstance::regime).

use crate::enumo::{enumerate_instances, EnumBudget, EnumeratedInstance};
use crate::replay::instance_dump;
use std::collections::BTreeMap;
use xvu_dtd::{min_sizes, InsertletPackage};
use xvu_edit::{cost, output_tree, script_to_term, Script};
use xvu_propagate::{
    count_optimal_propagations, find_complement_preserving, propagate, Config, CostModel, Engine,
    Instance, Propagation, Session,
};
use xvu_repair::{repair_based_update, RepairConfig};
use xvu_tree::{Alphabet, NodeIdGen};
use xvu_view::extract_view;

/// Everything observable about a propagation: cost, the exact script in
/// identifier-sensitive term form, and the optimal-propagation count.
pub fn fingerprint(p: &Propagation, alpha: &Alphabet) -> (u64, String, Option<u128>) {
    (
        p.cost,
        script_to_term(&p.script, alpha),
        count_optimal_propagations(&p.forest),
    )
}

/// Knobs for [`differential_check`].
#[derive(Clone, Debug)]
pub struct OracleConfig {
    /// Run the counting×enumeration cross-check only when the count is at
    /// most this (enumeration is exponential by design).
    pub enumeration_cap: u128,
    /// Run the repair baseline only on documents up to this size…
    pub repair_max_doc: usize,
    /// …and views up to this size (candidate space is exponential in the
    /// view).
    pub repair_max_view: usize,
    /// Budget for the repair baseline itself.
    pub repair: RepairConfig,
    /// Whether to commit the propagation into the cached and uncached
    /// sessions and check they stay in lock-step.
    pub commit: bool,
}

impl Default for OracleConfig {
    fn default() -> OracleConfig {
        OracleConfig {
            enumeration_cap: 64,
            repair_max_doc: 14,
            repair_max_view: 8,
            repair: RepairConfig::default(),
            commit: true,
        }
    }
}

/// What the matrix observed for one instance (all oracles agreeing).
#[derive(Clone, Debug)]
pub struct OracleOutcome {
    /// The agreed optimal cost.
    pub cost: u64,
    /// The agreed optimal-propagation count.
    pub count: u128,
    /// Distinct optimal scripts enumerated (when the count was under the
    /// cap), `None` when the cross-check was skipped.
    pub enumerated: Option<usize>,
    /// The repair baseline's minimal TED (when tractable and not
    /// truncated), `None` when skipped.
    pub repair_distance: Option<usize>,
    /// Memo hits observed by the warm propagation.
    pub cache_hits: u64,
}

/// Whether every hidden label roots exactly one tree (no rule, or the
/// empty content model) — the condition under which the repair baseline's
/// minimal-witness padding spans the full inverse space.
fn hidden_fragments_unique(inst: &EnumeratedInstance) -> bool {
    inst.ann.iter_hidden().all(|(_, y)| {
        if !inst.dtd.has_rule(y) {
            return true;
        }
        let m = inst.dtd.content_model(y);
        m.accepts(&[]) && m.num_transitions() == 0
    })
}

fn oracle_err(inst: &EnumeratedInstance, what: &str) -> String {
    format!(
        "{}\n{}",
        what,
        instance_dump(
            &inst.name,
            &inst.alpha,
            &inst.dtd,
            &inst.ann,
            &inst.doc,
            &inst.update,
        )
    )
}

/// Runs the full oracle matrix on one enumerated instance. Returns the
/// agreed observations, or an `Err` describing the first disagreement
/// with a replayable instance dump attached.
pub fn differential_check(
    inst: &EnumeratedInstance,
    cfg: &OracleConfig,
) -> Result<OracleOutcome, String> {
    let fail = |what: String| oracle_err(inst, &what);

    let cached_engine = Engine::builder()
        .alphabet(inst.alpha.clone())
        .dtd(inst.dtd.clone())
        .annotation(inst.ann.clone())
        .build()
        .map_err(|e| fail(format!("engine build failed: {e}")))?;
    let uncached_engine = Engine::builder()
        .alphabet(inst.alpha.clone())
        .dtd(inst.dtd.clone())
        .annotation(inst.ann.clone())
        .prop_cache(false)
        .build()
        .map_err(|e| fail(format!("uncached engine build failed: {e}")))?;

    let mut cached: Session<'_> = cached_engine
        .open(&inst.doc)
        .map_err(|e| fail(format!("cached open failed: {e}")))?;
    let mut uncached: Session<'_> = uncached_engine
        .open(&inst.doc)
        .map_err(|e| fail(format!("uncached open failed: {e}")))?;

    // Oracle 1+2: cached cold, cached warm, uncached — byte-identical.
    let cold = cached
        .propagate(&inst.update)
        .map_err(|e| fail(format!("Theorem 5 violated (cached): {e}")))?;
    let hits_before_warm = cached_engine.cache_stats().hits;
    let warm = cached
        .propagate(&inst.update)
        .map_err(|e| fail(format!("warm propagate failed: {e}")))?;
    let pu = uncached
        .propagate(&inst.update)
        .map_err(|e| fail(format!("Theorem 5 violated (uncached): {e}")))?;
    let fp_cold = fingerprint(&cold, &inst.alpha);
    if fingerprint(&warm, &inst.alpha) != fp_cold {
        return Err(fail(format!(
            "cold/warm disagreement: cold {fp_cold:?} vs warm {:?}",
            fingerprint(&warm, &inst.alpha)
        )));
    }
    if fingerprint(&pu, &inst.alpha) != fp_cold {
        return Err(fail(format!(
            "cached/uncached disagreement: cached {fp_cold:?} vs uncached {:?}",
            fingerprint(&pu, &inst.alpha)
        )));
    }
    let cache_hits = cached_engine.cache_stats().hits - hits_before_warm;

    // Oracle: a sibling session of the same engine interns the document
    // into a memo of its own and counts it again — it must be
    // byte-identical.
    let sibling = cached_engine
        .open(&inst.doc)
        .map_err(|e| fail(format!("sibling open failed: {e}")))?;
    let ps = sibling
        .propagate(&inst.update)
        .map_err(|e| fail(format!("sibling propagate failed: {e}")))?;
    if fingerprint(&ps, &inst.alpha) != fp_cold {
        return Err(fail(format!(
            "sibling disagreement: first session {fp_cold:?} vs sibling {:?}",
            fingerprint(&ps, &inst.alpha)
        )));
    }

    // Oracle 3: the one-shot compatibility layer.
    let one_shot_inst = Instance::new(
        &inst.dtd,
        &inst.ann,
        &inst.doc,
        &inst.update,
        inst.alpha.len(),
    )
    .map_err(|e| fail(format!("one-shot instance rejected: {e}")))?;
    let one_shot = propagate(&one_shot_inst, &InsertletPackage::new(), &Config::default())
        .map_err(|e| fail(format!("one-shot propagate failed: {e}")))?;
    if fingerprint(&one_shot, &inst.alpha) != fp_cold {
        return Err(fail(format!(
            "session/one-shot disagreement: session {fp_cold:?} vs one-shot {:?}",
            fingerprint(&one_shot, &inst.alpha)
        )));
    }

    // The constant-complement search: memo-on ≡ memo-off ≡ one-shot.
    let term = |s: Option<Script>| s.map(|s| script_to_term(&s, &inst.alpha));
    let complement_on = cached
        .complement_preserving(&inst.update)
        .map_err(|e| fail(format!("complement search failed (cached): {e}")))?;
    let complement_off = uncached
        .complement_preserving(&inst.update)
        .map_err(|e| fail(format!("complement search failed (uncached): {e}")))?;
    let sizes = min_sizes(&inst.dtd, inst.alpha.len());
    let insertlets = InsertletPackage::new();
    let cm = CostModel {
        sizes: &sizes,
        insertlets: &insertlets,
    };
    let complement_one_shot =
        find_complement_preserving(&one_shot_inst, &one_shot.forest, &cm, &Config::default())
            .map_err(|e| fail(format!("complement search failed (one-shot): {e}")))?;
    let (on, off, one) = (
        term(complement_on),
        term(complement_off),
        term(complement_one_shot),
    );
    if on != off || on != one {
        return Err(fail(format!(
            "complement disagreement: cached {on:?} vs uncached {off:?} vs one-shot {one:?}"
        )));
    }

    // Soundness: the agreed script verifies and its cost is the optimum.
    cached
        .verify(&inst.update, &cold.script)
        .map_err(|e| fail(format!("unsound propagation: {e}")))?;
    if cost(&cold.script) as u64 != cold.cost {
        return Err(fail(format!(
            "script cost {} differs from graph optimum {}",
            cost(&cold.script),
            cold.cost
        )));
    }

    // Counting × enumeration (Theorems 5–6 against each other).
    let count = cached
        .count_optimal(&inst.update)
        .map_err(|e| fail(format!("count_optimal failed: {e}")))?;
    if count == 0 {
        return Err(fail("count_optimal returned 0".to_owned()));
    }
    let enumerated = if count <= cfg.enumeration_cap {
        let cap = count as usize + 1; // one above: detect over-production
        let scripts = cached
            .enumerate_optimal(&inst.update, cap)
            .map_err(|e| fail(format!("enumerate_optimal failed: {e}")))?;
        let mut terms: Vec<String> = scripts
            .iter()
            .map(|s| script_to_term(s, &inst.alpha))
            .collect();
        terms.sort();
        terms.dedup();
        if inst.deterministic {
            // 1-unambiguous content models: counts are exact (Theorems
            // 5–6 against each other).
            if terms.len() as u128 != count {
                return Err(fail(format!(
                    "count {} ≠ |enumeration| {} ({} raw)",
                    count,
                    terms.len(),
                    scripts.len()
                )));
            }
        } else if terms.is_empty() || (terms.len() as u128) > count {
            // Ambiguous content models (outside the W3C-required class):
            // the count is a path count and only bounds the distinct
            // enumeration from above.
            return Err(fail(format!(
                "ambiguous-model path count {} < |enumeration| {}",
                count,
                terms.len()
            )));
        }
        for s in &scripts {
            cached
                .verify(&inst.update, s)
                .map_err(|e| fail(format!("enumerated propagation unsound: {e}")))?;
            if cost(s) as u64 != cold.cost {
                return Err(fail(format!(
                    "enumerated propagation cost {} ≠ optimum {}",
                    cost(s),
                    cold.cost
                )));
            }
        }
        Some(terms.len())
    } else {
        None
    };

    // Repair baseline (§6.2), where tractable: the minimal-TED inverse of
    // the updated view can never be farther from the source than the
    // optimal propagation's own output, so `distance ≤ cost`. The bound
    // is only sound where the candidate enumeration is exhaustive: small
    // documents and views, an untruncated candidate set, and — because
    // the baseline pads inverses with *minimal witnesses* only — hidden
    // labels that root exactly one tree (otherwise the source's own
    // non-minimal hidden fragments are outside the candidate space and
    // the enumerated minimum over-estimates the true minimal TED).
    let view = extract_view(&inst.ann, &inst.doc);
    let repair_distance = if inst.doc.size() <= cfg.repair_max_doc
        && view.size() <= cfg.repair_max_view
        && hidden_fragments_unique(inst)
    {
        match repair_based_update(
            &inst.dtd,
            &inst.ann,
            inst.alpha.len(),
            &inst.doc,
            &inst.update,
            &cfg.repair,
        ) {
            Ok(out) if out.candidates_considered < cfg.repair.candidate_cap => {
                if (out.distance as u64) > cold.cost {
                    return Err(fail(format!(
                        "repair baseline beat by propagation: minimal TED {} > optimal cost {}",
                        out.distance, cold.cost
                    )));
                }
                let updated_view = output_tree(&inst.update)
                    .ok_or_else(|| fail("update deletes the view root".to_owned()))?;
                if extract_view(&inst.ann, &out.chosen) != updated_view {
                    return Err(fail(
                        "repair chose a document with the wrong view".to_owned(),
                    ));
                }
                Some(out.distance)
            }
            _ => None, // truncated or intractable: no bound to check
        }
    } else {
        None
    };

    // Commit lock-step: both sessions absorb the propagation, each passes
    // the from-scratch commit oracle, and they must agree on the
    // resulting document byte-for-byte.
    if cfg.commit {
        for (session, prop, which) in [
            (&mut cached, &cold, "cached"),
            (&mut uncached, &pu, "uncached"),
        ] {
            let before = session.id_gen();
            session
                .commit(prop)
                .map_err(|e| fail(format!("{which} commit failed: {e}")))?;
            commit_oracle(session, &before).map_err(|e| fail(format!("{which} commit: {e}")))?;
        }
        if cached.document() != uncached.document() {
            return Err(fail(
                "cached and uncached sessions diverged after commit".to_owned(),
            ));
        }
    }

    Ok(OracleOutcome {
        cost: cold.cost,
        count,
        enumerated,
        repair_distance,
        cache_hits,
    })
}

/// The paired from-scratch oracle for one commit: the view the session
/// patched incrementally must equal the view extracted from its document
/// from scratch, and its fresh-identifier generator must clear every
/// document identifier without rewinding below `before` (the session's
/// generator just before the commit).
///
/// Kept out of [`Session::commit`] itself, so the commit path runs the
/// same code in every build.
pub fn commit_oracle(session: &Session<'_>, before: &NodeIdGen) -> Result<(), String> {
    let doc = session.document();
    if session.view() != &extract_view(session.engine().annotation(), doc) {
        return Err("the patched view differs from the view extracted from scratch".to_owned());
    }
    let next = session.id_gen().peek();
    if next < before.peek() {
        return Err(format!(
            "identifier generator rewound from {} to {next}",
            before.peek()
        ));
    }
    if let Some(id) = doc.node_ids().find(|&id| id >= next) {
        return Err(format!(
            "identifier generator at {next} does not clear document node {id}"
        ));
    }
    Ok(())
}

/// Aggregate report of a sweep over one budget.
#[derive(Clone, Debug, Default)]
pub struct SweepReport {
    /// Instances checked.
    pub instances: usize,
    /// Disagreement messages (each with a replayable dump). Empty on a
    /// clean sweep.
    pub disagreements: Vec<String>,
    /// Instances per coverage regime.
    pub regimes: BTreeMap<&'static str, usize>,
    /// Instances whose counting×enumeration cross-check actually ran.
    pub enumeration_checked: usize,
    /// Instances with ambiguous (non-1-unambiguous) content models,
    /// where the count oracle only bounds the enumeration from above.
    pub ambiguous: usize,
    /// Instances whose repair-baseline check actually ran.
    pub repair_checked: usize,
    /// Total warm-path memo hits across all instances.
    pub cache_hits: u64,
    /// Largest optimal-propagation count observed.
    pub max_count: u128,
}

/// Runs [`differential_check`] over every instance of the budget and
/// aggregates. Never panics on disagreement — the report carries them so a
/// test can fail with *all* dumps at once.
pub fn run_sweep(budget: &EnumBudget, cfg: &OracleConfig) -> SweepReport {
    let mut report = SweepReport::default();
    for inst in enumerate_instances(budget) {
        report.instances += 1;
        *report.regimes.entry(inst.regime()).or_insert(0) += 1;
        if !inst.deterministic {
            report.ambiguous += 1;
        }
        match differential_check(&inst, cfg) {
            Ok(out) => {
                report.cache_hits += out.cache_hits;
                report.max_count = report.max_count.max(out.count);
                if out.enumerated.is_some() {
                    report.enumeration_checked += 1;
                }
                if out.repair_distance.is_some() {
                    report.repair_checked += 1;
                }
            }
            Err(msg) => report.disagreements.push(msg),
        }
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::enumo::instance_from_recipe;

    fn check(recipe: &str) -> OracleOutcome {
        let inst = instance_from_recipe(&recipe.parse().unwrap()).unwrap();
        differential_check(&inst, &OracleConfig::default())
            .unwrap_or_else(|e| panic!("oracle disagreement:\n{e}"))
    }

    #[test]
    fn matrix_agrees_on_representative_families() {
        // one per regime: plain, wide-alternation, heavy-hiding, recursion
        check("(instance (dtd (seq A B) 3 flat) (ann none) (doc 24 4 11) (script mix 3))");
        check("(instance (dtd (alt A B) 3 flat) (ann alternate) (doc 24 4 11) (script del 2))");
        check("(instance (dtd (star A) 3 flat) (ann deep) (doc 24 4 11) (script ins 2 1))");
        check("(instance (dtd (seq A (star B)) 3 rec) (ann leaves) (doc 24 4 11) (script mix 3))");
    }

    #[test]
    fn disagreement_messages_carry_the_replay_dump() {
        // Force a "disagreement" by running the real check but inspecting
        // the error path through a deliberately broken expectation: a
        // malformed recipe must not panic, and a valid instance's dump
        // must embed its recipe. (The real oracles agreeing is the point;
        // this pins the failure-reporting contract.)
        let recipe = "(instance (dtd (opt A) 2 flat) (ann root-run 2) (doc 16 3 9) (script nop))";
        let inst = instance_from_recipe(&recipe.parse().unwrap()).unwrap();
        let msg = oracle_err(&inst, "synthetic failure");
        assert!(msg.contains("synthetic failure"));
        assert!(msg.contains(recipe), "dump must carry the replay key");
        assert!(msg.contains("update: "), "dump must carry the script");
    }

    #[test]
    fn nop_scripts_cost_zero_and_count_one_on_identity_views() {
        let out = check("(instance (dtd (seq A B) 2 flat) (ann none) (doc 16 3 5) (script nop))");
        assert_eq!(out.cost, 0);
        assert_eq!(out.count, 1);
        assert_eq!(out.enumerated, Some(1));
    }
}
