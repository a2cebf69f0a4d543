//! The enumerated differential sweep (experiment E13).
//!
//! `xvu_workload::enumo` enumerates the budgeted grammar space of
//! (DTD family × annotation pattern × update-script shape) recipes —
//! exhaustively, not by sampling — and `xvu_workload::differential` runs
//! the full oracle matrix on every instance:
//!
//! * session-cached propagation (cold and warm) ≡ uncached session ≡
//!   fresh one-shot `Instance`, byte-for-byte;
//! * `count_optimal` ≡ |`enumerate_optimal`| where the count is small
//!   enough to enumerate, every witness verifying at the optimal cost;
//! * the `xvu_repair` minimal-TED baseline never beats the optimal
//!   propagation cost where its candidate enumeration is tractable and
//!   untruncated;
//! * cached and uncached sessions stay in lock-step across commits.
//!
//! Every failure message carries the `(instance …)` recipe term — paste
//! it into `enumo::instance_from_recipe` to replay the exact instance.
//!
//! The default-budget sweep stays small enough for CI; the
//! `EnumBudget::full()` variant is `#[ignore]`d and meant for nightly
//! runs (`cargo test --test enumerated_differential -- --ignored`).

use proptest::prelude::*;
use xml_view_update::prelude::*;
use xml_view_update::workload::differential::{
    commit_oracle, differential_check, fingerprint, run_sweep, OracleConfig,
};
use xml_view_update::workload::enumo::{
    enumerate_instances, enumerate_recipes, instance_from_recipe, random_annotation_for, EnumBudget,
};
use xml_view_update::workload::replay::instance_dump;
use xml_view_update::workload::{ChurnConfig, ChurnStream};

/// The tentpole acceptance gate: the whole default-budget space, zero
/// oracle disagreements, ≥ 200 distinct instances, all coverage regimes
/// represented.
#[test]
fn default_budget_sweep_has_zero_disagreements() {
    let report = run_sweep(&EnumBudget::default(), &OracleConfig::default());
    assert!(
        report.disagreements.is_empty(),
        "{} oracle disagreement(s):\n\n{}",
        report.disagreements.len(),
        report.disagreements.join("\n\n---\n\n")
    );
    assert!(
        report.instances >= 200,
        "only {} enumerated instances (budget too small)",
        report.instances
    );
    for regime in [
        "plain",
        "wide-alternation",
        "heavy-hiding",
        "deep-recursion",
    ] {
        assert!(
            report.regimes.get(regime).copied().unwrap_or(0) > 0,
            "regime {regime:?} not covered: {:?}",
            report.regimes
        );
    }
    assert!(
        report.enumeration_checked > 0,
        "counting×enumeration cross-check never ran"
    );
    assert!(
        report.repair_checked > 0,
        "repair-baseline cross-check never ran"
    );
    assert!(
        report.cache_hits > 0,
        "warm propagations never hit the cache"
    );
    assert!(report.max_count >= 1);
}

/// The nightly-scale sweep: one more plug round, deeper shapes, an extra
/// layer, larger documents. Run with `-- --ignored`.
#[test]
#[ignore = "full-budget sweep; run nightly via -- --ignored"]
fn full_budget_sweep_has_zero_disagreements() {
    let report = run_sweep(&EnumBudget::full(), &OracleConfig::default());
    assert!(
        report.disagreements.is_empty(),
        "{} oracle disagreement(s):\n\n{}",
        report.disagreements.len(),
        report.disagreements.join("\n\n---\n\n")
    );
    assert!(report.instances > 1000, "full budget unexpectedly small");
}

/// Enumerated instances replay deterministically from their recipe term
/// alone — the contract every failure dump relies on.
#[test]
fn recipes_replay_byte_identically() {
    let recipes = enumerate_recipes(&EnumBudget::default());
    for recipe in recipes.iter().step_by(17) {
        let a = instance_from_recipe(recipe).unwrap();
        let b = instance_from_recipe(&a.name.parse().unwrap()).unwrap();
        assert_eq!(a.doc, b.doc, "{recipe}");
        assert_eq!(a.update, b.update, "{recipe}");
        assert_eq!(
            to_term_with_ids(&a.doc, &a.alpha),
            to_term_with_ids(&b.doc, &b.alpha),
            "{recipe}"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Satellite: Theorems 5–6 pinned against each other on enumerated
    /// families under *random* annotations (beyond the five enumerated
    /// patterns): wherever the optimal count is small enough to
    /// enumerate without truncation, `count_optimal` equals the number
    /// of distinct optimal propagations, each verifying at the optimal
    /// cost.
    #[test]
    fn count_matches_enumeration(seed in 0u64..10_000) {
        let recipes = enumerate_recipes(&EnumBudget::default());
        let recipe = &recipes[(seed as usize) % recipes.len()];
        let mut inst = instance_from_recipe(recipe).unwrap();
        // swap in a random annotation over the same family; the update
        // must be regenerated against the new view, which the recipe's
        // script component does deterministically
        inst.ann = random_annotation_for(&inst.alpha, 0.25, seed.wrapping_mul(97) ^ 0xA11);
        let root_kept = extract_view(&inst.ann, &inst.doc).size() > 0;
        prop_assert!(root_kept); // annotations never hide the root label pair-lessly
        let recipe_script = xml_view_update::workload::enumo::ScriptRecipe::Mix(2);
        let mut gen = inst.gen.clone();
        inst.update = recipe_script.compile(
            &inst.dtd, &inst.ann, inst.alpha.len(), &inst.doc, seed ^ 0x5EED, &mut gen);

        let dump = || instance_dump(
            &format!("seed {seed}, recipe {}, random ann", inst.name),
            &inst.alpha, &inst.dtd, &inst.ann, &inst.doc, &inst.update);
        let engine = Engine::builder()
            .alphabet(inst.alpha.clone())
            .dtd(inst.dtd.clone())
            .annotation(inst.ann.clone())
            .build()
            .unwrap();
        let session = engine.open(&inst.doc)
            .unwrap_or_else(|e| panic!("open failed: {e}\n{}", dump()));
        let prop = session.propagate(&inst.update)
            .unwrap_or_else(|e| panic!("Theorem 5 violated: {e}\n{}", dump()));
        let count = session.count_optimal(&inst.update)
            .unwrap_or_else(|e| panic!("count failed: {e}\n{}", dump()));
        prop_assert!(count >= 1, "count 0\n{}", dump());
        // Counts equal |enumeration| only for 1-unambiguous content
        // models (the W3C-required class); ambiguous models count paths.
        if inst.deterministic && count <= 48 {
            let cap = count as usize + 1;
            let scripts = session.enumerate_optimal(&inst.update, cap)
                .unwrap_or_else(|e| panic!("enumerate failed: {e}\n{}", dump()));
            let mut terms: Vec<String> =
                scripts.iter().map(|s| script_to_term(s, &inst.alpha)).collect();
            terms.sort();
            terms.dedup();
            prop_assert_eq!(
                terms.len() as u128, count,
                "count ≠ |enumeration|\n{}", dump()
            );
            for s in &scripts {
                session.verify(&inst.update, s)
                    .unwrap_or_else(|e| panic!("witness unsound: {e}\n{}", dump()));
                prop_assert_eq!(
                    cost(s) as u64, prop.cost,
                    "witness not optimal\n{}", dump()
                );
            }
        }
    }
}

/// `Session::instance` checks the view DTD on an update's changed
/// parents only. That is sound because every other node keeps its source
/// view child word, and the view of a valid document passes the derived
/// view DTD — pinned here for every enumerated family.
#[test]
fn source_views_of_enumerated_families_satisfy_the_view_dtd() {
    let mut checked = 0;
    for inst in enumerate_instances(&EnumBudget::default()) {
        let engine = Engine::new(inst.alpha.clone(), inst.dtd.clone(), inst.ann.clone());
        let view = extract_view(&inst.ann, &inst.doc);
        if let Some(v) = engine.view_dtd().first_violation(&view) {
            panic!(
                "{}: source view violates the view DTD at node {}",
                inst.name, v.node
            );
        }
        checked += 1;
    }
    assert!(checked >= 200, "only {checked} enumerated instances");
}

/// Satellite: churn over enumerated families — one representative family
/// per coverage regime absorbs ≥ 5 committed churn updates through a
/// cached and an uncached session in lock-step, byte-identically, with
/// the cache demonstrably in play.
#[test]
fn churn_over_enumerated_families_stays_in_lockstep() {
    let families = [
        "(instance (dtd (seq A B) 3 flat) (ann root-run 2) (doc 24 4 3607) (script nop))",
        "(instance (dtd (alt A (star B)) 3 flat) (ann alternate) (doc 24 4 3607) (script nop))",
        "(instance (dtd (star A) 3 flat) (ann leaves) (doc 24 4 3607) (script nop))",
        "(instance (dtd (seq A (star B)) 3 rec) (ann root-run 1) (doc 24 4 3607) (script nop))",
    ];
    let mut total_hits = 0u64;
    for family in families {
        let inst = instance_from_recipe(&family.parse().unwrap()).unwrap();
        let builder = || {
            Engine::builder()
                .alphabet(inst.alpha.clone())
                .dtd(inst.dtd.clone())
                .annotation(inst.ann.clone())
        };
        let engine = builder().build().unwrap();
        let uncached_engine = builder().prop_cache(false).build().unwrap();
        let mut cached = engine.open(&inst.doc).unwrap();
        let mut uncached = uncached_engine.open(&inst.doc).unwrap();
        let mut stream = ChurnStream::for_enumerated(&inst, ChurnConfig::default(), 11);
        let mut commits = 0;
        for step in 0..6 {
            let mut g = cached.id_gen();
            let u = stream.next_update(cached.document(), &mut g);
            let pc = cached.propagate(&u).unwrap_or_else(|e| {
                panic!(
                    "step {step}: {e}\n{}",
                    instance_dump(
                        family,
                        &inst.alpha,
                        &inst.dtd,
                        &inst.ann,
                        cached.document(),
                        &u
                    )
                )
            });
            let pu = uncached.propagate(&u).unwrap();
            assert_eq!(
                fingerprint(&pc, &inst.alpha),
                fingerprint(&pu, &inst.alpha),
                "family {family}, step {step}:\n{}",
                instance_dump(
                    family,
                    &inst.alpha,
                    &inst.dtd,
                    &inst.ann,
                    cached.document(),
                    &u
                )
            );
            for (session, prop) in [(&mut cached, &pc), (&mut uncached, &pu)] {
                let before = session.id_gen();
                session.commit(prop).unwrap();
                commit_oracle(session, &before)
                    .unwrap_or_else(|e| panic!("family {family}, step {step}: {e}"));
            }
            assert_eq!(
                cached.document(),
                uncached.document(),
                "family {family}, step {step}: documents diverged after commit"
            );
            commits += 1;
        }
        assert!(commits >= 5, "family {family}: only {commits} commits");
        assert_eq!(cached.commits(), commits as u64);
        total_hits += engine.cache_stats().hits;
    }
    assert!(total_hits > 0, "churn never exercised the cache");
}

/// The three named scenarios built from the enumerated shape language run
/// the full oracle matrix end to end, and hidden material survives
/// propagation (the security-view property the scenarios model).
#[test]
fn named_enumerated_scenarios_pass_the_oracle_matrix() {
    use xml_view_update::workload::scenario::{
        add_chapter, add_host, audit_doc, audit_redaction, config_doc, config_view, log_event,
        publishing, publishing_doc,
    };

    struct Case {
        name: &'static str,
        s: xml_view_update::workload::scenario::EnumScenario,
        doc: DocTree,
        update: Script,
        hidden_label: &'static str,
    }
    let mut gen = NodeIdGen::new();
    let cases = {
        let p = publishing();
        let pd = publishing_doc(&p, 3, 2, &mut gen);
        let pu = add_chapter(&p, &pd, &mut gen);
        let c = config_view();
        let cd = config_doc(&c, 4, &mut gen);
        let cu = add_host(&c, &cd, &mut gen);
        let a = audit_redaction();
        let ad = audit_doc(&a, 3, 2, &mut gen);
        let au = log_event(&a, &ad, &[1, 0], &mut gen);
        [
            Case {
                name: "publishing",
                s: p,
                doc: pd,
                update: pu,
                hidden_label: "note",
            },
            Case {
                name: "config_view",
                s: c,
                doc: cd,
                update: cu,
                hidden_label: "secret",
            },
            Case {
                name: "audit_redaction",
                s: a,
                doc: ad,
                update: au,
                hidden_label: "actor",
            },
        ]
    };
    for case in &cases {
        let engine = Engine::builder()
            .alphabet(case.s.alpha.clone())
            .dtd(case.s.dtd.clone())
            .annotation(case.s.ann.clone())
            .build()
            .unwrap();
        let session = engine.open(&case.doc).unwrap();
        let prop = session
            .propagate(&case.update)
            .unwrap_or_else(|e| panic!("{}: {e}", case.name));
        session
            .verify(&case.update, &prop.script)
            .unwrap_or_else(|e| panic!("{}: unsound: {e}", case.name));

        // one-shot agreement
        let inst = Instance::new(
            &case.s.dtd,
            &case.s.ann,
            &case.doc,
            &case.update,
            case.s.alpha.len(),
        )
        .unwrap();
        let one_shot = propagate(&inst, &InsertletPackage::new(), &Config::default()).unwrap();
        assert_eq!(prop.cost, one_shot.cost, "{}", case.name);
        assert_eq!(
            script_to_term(&prop.script, &case.s.alpha),
            script_to_term(&one_shot.script, &case.s.alpha),
            "{}",
            case.name
        );

        // side-effect freeness in scenario terms: every hidden node of
        // the source survives into the output (the updates only add
        // material; mandatory hidden children of inserted visible nodes
        // may be minted, so the count can grow but never shrink)
        let out = output_tree(&prop.script).unwrap();
        let hidden = case.s.alpha.get(case.hidden_label).unwrap();
        let count_in = |t: &DocTree| t.preorder().filter(|&n| t.label(n) == hidden).count();
        assert!(
            count_in(&out) >= count_in(&case.doc),
            "{}: hidden {} material not preserved ({} -> {})",
            case.name,
            case.hidden_label,
            count_in(&case.doc),
            count_in(&out)
        );
        assert!(
            count_in(&case.doc) > 0,
            "{}: scenario has no hidden material",
            case.name
        );

        // counting×enumeration on the scenario instance
        let count = session.count_optimal(&case.update).unwrap();
        assert!(count >= 1, "{}", case.name);
        if count <= 64 {
            let scripts = session
                .enumerate_optimal(&case.update, count as usize + 1)
                .unwrap();
            let mut terms: Vec<String> = scripts
                .iter()
                .map(|s| script_to_term(s, &case.s.alpha))
                .collect();
            terms.sort();
            terms.dedup();
            assert_eq!(terms.len() as u128, count, "{}", case.name);
        }
    }
}

/// The enumerated sweep's oracle matrix also holds pointwise on the
/// highest-count instance of the default budget — the family where
/// counting and enumeration have the most room to disagree.
#[test]
fn highest_count_family_still_agrees() {
    let budget = EnumBudget::default();
    let mut best: Option<(u128, String)> = None;
    for recipe in enumerate_recipes(&budget) {
        let inst = instance_from_recipe(&recipe).unwrap();
        let engine = Engine::builder()
            .alphabet(inst.alpha.clone())
            .dtd(inst.dtd.clone())
            .annotation(inst.ann.clone())
            .build()
            .unwrap();
        let session = engine.open(&inst.doc).unwrap();
        let count = session.count_optimal(&inst.update).unwrap();
        if best.as_ref().is_none_or(|(c, _)| count > *c) {
            best = Some((count, inst.name.clone()));
        }
    }
    let (count, name) = best.unwrap();
    assert!(count >= 1);
    let inst = instance_from_recipe(&name.parse().unwrap()).unwrap();
    let out = differential_check(&inst, &OracleConfig::default())
        .unwrap_or_else(|e| panic!("oracle disagreement on max-count family:\n{e}"));
    assert_eq!(out.count, count, "{name}");
}
