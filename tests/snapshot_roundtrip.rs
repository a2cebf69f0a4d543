//! Property-based tests for the flat arena snapshot format.
//!
//! Two contracts, each over arbitrary trees:
//!
//! * encode → decode is the identity, down to node identifiers and a
//!   clean [`Tree::validate`] — the decoded arena really is the arena;
//! * snapshots survive life: trees mutated by `detach`/`attach`
//!   surgery (which scrambles slab order and leaves sparse slot
//!   entries) and documents committed through a [`Session`] propagation
//!   cycle still round-trip identifier-exactly.

use proptest::prelude::*;
use xml_view_update::prelude::*;
use xml_view_update::tree::DocTree;
use xml_view_update::workload::{
    generate_annotation, generate_doc, generate_dtd, generate_update, DocGenConfig, DtdGenConfig,
    UpdateGenConfig,
};

/// Strategy: a random identifier-annotated term over labels {a..e}.
fn arb_term() -> impl Strategy<Value = String> {
    let leaf = prop::sample::select(vec!["a", "b", "c", "d", "e"]).prop_map(str::to_owned);
    leaf.prop_recursive(4, 40, 5, |inner| {
        (
            prop::sample::select(vec!["a", "b", "c", "d", "e"]),
            prop::collection::vec(inner, 1..4),
        )
            .prop_map(|(l, kids)| format!("{l}({})", kids.join(", ")))
    })
}

fn parse(src: &str) -> (Alphabet, DocTree) {
    let mut alpha = Alphabet::new();
    let mut gen = NodeIdGen::new();
    let t = parse_term(&mut alpha, &mut gen, src).unwrap();
    (alpha, t)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Snapshot encode → decode is identifier-exact and validates.
    #[test]
    fn snapshot_round_trip_is_exact(src in arb_term()) {
        let (alpha, t) = parse(&src);
        let bytes = t.to_snapshot_bytes(&alpha).unwrap();
        // decoding into the same alphabet reproduces the tree exactly
        let mut same = alpha.clone();
        let back = DocTree::from_snapshot_bytes(&bytes, &mut same).unwrap();
        prop_assert_eq!(&back, &t);
        back.validate().unwrap();
        prop_assert_eq!(same.len(), alpha.len());
        // encoding is deterministic
        prop_assert_eq!(back.to_snapshot_bytes(&same).unwrap(), bytes);
        // decoding into a fresh alphabet preserves label *names*
        let mut fresh = Alphabet::new();
        let renamed = DocTree::from_snapshot_bytes(&bytes, &mut fresh).unwrap();
        renamed.validate().unwrap();
        prop_assert_eq!(to_term_with_ids(&renamed, &fresh), to_term_with_ids(&t, &alpha));
    }

    /// Trees rearranged by detach/attach surgery — which permutes slab
    /// order, vacates slots, and populates the sparse index — still
    /// snapshot and decode exactly.
    #[test]
    fn snapshot_survives_detach_attach_surgery(src in arb_term(), moves in 1usize..4) {
        let (alpha, mut t) = parse(&src);
        for round in 0..moves {
            // pick a deterministic non-root victim, if any
            let victim = t.node_ids().find(|&id| id != t.root() &&
                (id.0 as usize + round).is_multiple_of(2));
            let Some(victim) = victim else { break };
            let sub = t.detach_subtree(victim).unwrap();
            let root = t.root();
            let arity = t.children(root).len();
            t.attach_subtree(root, arity.min(round), sub).unwrap();
        }
        t.validate().unwrap();
        let bytes = t.to_snapshot_bytes(&alpha).unwrap();
        let mut scratch = alpha.clone();
        let back = DocTree::from_snapshot_bytes(&bytes, &mut scratch).unwrap();
        prop_assert_eq!(&back, &t);
        back.validate().unwrap();
    }

    /// A document committed through session propagation cycles still
    /// snapshots and decodes exactly — the serving write-back path.
    #[test]
    fn snapshot_survives_session_commit_cycles(seed in 0u64..500) {
        let mut alpha = Alphabet::new();
        let dtd = generate_dtd(&mut alpha, &DtdGenConfig::default(), seed);
        let ann = generate_annotation(&alpha, 0.3, seed ^ 41, &[]);
        let root = alpha.get("l0").unwrap();
        let mut gen = NodeIdGen::new();
        let doc = generate_doc(&dtd, alpha.len(), root,
            &DocGenConfig { max_depth: 4, max_children: 5, ..DocGenConfig::default() },
            seed ^ 42, &mut gen);
        let engine = Engine::builder()
            .alphabet(alpha.clone())
            .dtd(dtd.clone())
            .annotation(ann.clone())
            .build()
            .unwrap();
        let mut session = engine.open(&doc).unwrap();
        for step in 0..2u64 {
            let mut g = session.id_gen();
            let update = generate_update(&dtd, &ann, alpha.len(), session.document(),
                &UpdateGenConfig { ops: 2, ..UpdateGenConfig::default() },
                seed ^ (900 + step), &mut g);
            let prop = session.propagate(&update).unwrap();
            session.commit(&prop).unwrap();
            // the committed document round-trips through the snapshot
            let committed = session.document();
            let bytes = committed.to_snapshot_bytes(engine.alphabet()).unwrap();
            let mut scratch = engine.alphabet().clone();
            let back = DocTree::from_snapshot_bytes(&bytes, &mut scratch).unwrap();
            prop_assert_eq!(&back, committed);
            back.validate().unwrap();
        }
    }
}
