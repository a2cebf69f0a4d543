//! Hash-consing invariants of the subtree [`Interner`] and their
//! session-level consequences.
//!
//! A session's propagation memo keys every entry by [`InternId`], so
//! the whole design rests on two properties: ids coalesce **exactly**
//! the structurally equal subtrees (identifiers ignored), and the ids a
//! session maintains across clone / detach / attach / commit agree with
//! a from-scratch interning of the same document. A wrong id here would
//! silently serve one subtree's memos to a structurally different one.

use proptest::prelude::*;
use xml_view_update::prelude::*;
use xml_view_update::workload::{
    generate_annotation, generate_doc, generate_dtd, generate_update, DocGenConfig, DtdGenConfig,
    UpdateGenConfig,
};

/// The identifier-free shape of the subtree at `n` — the ground truth
/// that [`InternId`] equality must mirror.
fn shape(doc: &DocTree, alpha: &Alphabet, n: NodeId) -> String {
    let mut s = alpha.name(doc.label(n)).to_string();
    if !doc.children(n).is_empty() {
        s.push('(');
        for (i, &c) in doc.children(n).iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            s.push_str(&shape(doc, alpha, c));
        }
        s.push(')');
    }
    s
}

fn random_doc(seed: u64) -> (Alphabet, Dtd, DocTree) {
    let mut alpha = Alphabet::new();
    let dtd = generate_dtd(&mut alpha, &DtdGenConfig::default(), seed);
    let root = alpha.get("l0").unwrap();
    let mut gen = NodeIdGen::new();
    let doc = generate_doc(
        &dtd,
        alpha.len(),
        root,
        &DocGenConfig {
            max_nodes: 120,
            max_depth: 5,
            max_children: 6,
            stop_bias: 0.05,
        },
        seed ^ 0x5EED,
        &mut gen,
    );
    (alpha, dtd, doc)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Coalescing is exact on random documents: two nodes share an
    /// [`InternId`] iff their identifier-free shapes are equal — in both
    /// directions, across every node pair of the document.
    #[test]
    fn intern_ids_coalesce_exactly_the_equal_shapes(seed in 0u64..2000) {
        let (alpha, _dtd, doc) = random_doc(seed);
        let mut interner = Interner::new();
        let ids = interner.intern_doc(&doc);
        let nodes: Vec<NodeId> = doc.postorder().collect();
        for &a in &nodes {
            for &b in &nodes {
                let same_id = ids[doc.slot(a).unwrap()] == ids[doc.slot(b).unwrap()];
                let same_shape = shape(&doc, &alpha, a) == shape(&doc, &alpha, b);
                prop_assert_eq!(
                    same_id, same_shape,
                    "seed {}: nodes {:?}/{:?} — id equality must mirror shape equality",
                    seed, a, b
                );
            }
        }
        // and re-interning the same document is a pure function
        let again = interner.intern_doc(&doc);
        for &n in &nodes {
            prop_assert_eq!(ids[doc.slot(n).unwrap()], again[doc.slot(n).unwrap()]);
        }
    }

    /// Stability across clone and a detach/attach round-trip: the
    /// detached subtree's slots turn vacant and the re-attach refills
    /// them, and every node's structural id must come back unchanged once
    /// the subtree is grafted back where it was.
    #[test]
    fn intern_ids_survive_clone_and_detach_attach(seed in 0u64..2000) {
        let (_alpha, _dtd, doc) = random_doc(seed);
        let mut interner = Interner::new();
        let before = interner.intern_doc(&doc);

        // clone: same shapes, same ids, nothing new interned
        let len_before = interner.len();
        let cloned = doc.clone();
        let clone_ids = interner.intern_doc(&cloned);
        prop_assert_eq!(interner.len(), len_before, "a clone interns no new shape");
        for n in doc.postorder() {
            prop_assert_eq!(
                before[doc.slot(n).unwrap()],
                clone_ids[cloned.slot(n).unwrap()],
            );
        }

        // detach a non-root subtree and graft it straight back
        let victims: Vec<NodeId> = doc.postorder().filter(|&n| n != doc.root()).collect();
        if let Some(&victim) = victims.get(seed as usize % victims.len().max(1)) {
            let mut working = doc.clone();
            let parent = working
                .postorder()
                .find(|&p| working.children(p).contains(&victim))
                .unwrap();
            let position = working
                .children(parent)
                .iter()
                .position(|&c| c == victim)
                .unwrap();
            let sub = working.detach_subtree(victim).unwrap();
            working.attach_subtree(parent, position, sub).unwrap();
            let after = interner.intern_doc(&working);
            prop_assert_eq!(interner.len(), len_before, "round-trip interns no new shape");
            for n in doc.postorder() {
                prop_assert_eq!(
                    before[doc.slot(n).unwrap()],
                    after[working.slot(n).unwrap()],
                    "seed {}: node {:?} changed structural id over detach/attach",
                    seed, n
                );
            }
        }
    }

    /// Commit-time id maintenance, observed end to end: a session of a
    /// memo-on engine propagates and commits random updates; at every
    /// step it must stay byte-identical to a memo-off session. A single
    /// wrong re-interned id after commit would leak one structure's memos
    /// to another and break the byte-identity.
    #[test]
    fn commit_reinterning_keeps_sessions_byte_identical(seed in 0u64..600) {
        let mut alpha = Alphabet::new();
        let dtd = generate_dtd(&mut alpha, &DtdGenConfig::default(), seed);
        let ann = generate_annotation(&alpha, 0.3, seed ^ 41, &[]);
        let root = alpha.get("l0").unwrap();
        let mut gen = NodeIdGen::new();
        let doc = generate_doc(
            &dtd,
            alpha.len(),
            root,
            &DocGenConfig { max_depth: 4, max_children: 5, ..DocGenConfig::default() },
            seed ^ 42,
            &mut gen,
        );
        let memo = Engine::builder()
            .alphabet(alpha.clone())
            .dtd(dtd.clone())
            .annotation(ann.clone())
            .build()
            .unwrap();
        let disabled = Engine::builder()
            .alphabet(alpha.clone())
            .dtd(dtd.clone())
            .annotation(ann.clone())
            .prop_cache(false)
            .build()
            .unwrap();
        let mut s = memo.open(&doc).unwrap();
        let mut d = disabled.open(&doc).unwrap();
        for step in 0..3u64 {
            let mut g = s.id_gen();
            let update = generate_update(
                &dtd, &ann, alpha.len(), s.document(),
                &UpdateGenConfig { ops: 2, ..UpdateGenConfig::default() },
                seed ^ (900 + step),
                &mut g,
            );
            let ps = s.propagate(&update).unwrap();
            let pd = d.propagate(&update).unwrap();
            prop_assert_eq!(ps.cost, pd.cost, "seed {} step {}", seed, step);
            prop_assert_eq!(
                script_to_term(&ps.script, &alpha),
                script_to_term(&pd.script, &alpha),
                "seed {} step {}: scripts diverge", seed, step
            );
            s.commit(&ps).unwrap();
            d.commit(&pd).unwrap();
            prop_assert_eq!(s.document(), d.document(), "seed {} step {}", seed, step);
        }
        // `engine::tests::commit_keeps_every_intern_id_fresh` compares
        // every re-interned id with a from-scratch interning, slot by slot.
    }
}
