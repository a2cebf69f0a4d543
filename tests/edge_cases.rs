//! Edge cases and failure injection across the public API.
//!
//! Some tests here deliberately drive the one-shot compatibility layer
//! (`Instance::new` + `propagate`) rather than [`Engine`]/[`Session`]:
//! both entry points must keep working, and the one-shot path is the
//! simplest harness for failure injection.

use xml_view_update::edit::check_script;
use xml_view_update::prelude::*;
use xml_view_update::tree::{SnapshotError, TreeError};

fn d0(alpha: &mut Alphabet) -> Dtd {
    parse_dtd(alpha, "r -> (a.(b+c).d)*\nd -> ((a+b).c)*").unwrap()
}

fn a0(alpha: &mut Alphabet) -> Annotation {
    parse_annotation(alpha, "hide r b\nhide r c\nhide d a\nhide d b").unwrap()
}

#[test]
fn single_node_document_identity() {
    let mut alpha = Alphabet::new();
    let dtd = d0(&mut alpha);
    let ann = a0(&mut alpha);
    let mut gen = NodeIdGen::new();
    let t = parse_term_with_ids(&mut alpha, &mut gen, "r#0").unwrap();
    let view = extract_view(&ann, &t);
    assert_eq!(view.size(), 1);
    let s = nop_script(&view);
    let inst = Instance::new(&dtd, &ann, &t, &s, alpha.len()).unwrap();
    let prop = propagate(&inst, &InsertletPackage::new(), &Config::default()).unwrap();
    assert_eq!(prop.cost, 0);
    assert_eq!(output_tree(&prop.script).unwrap(), t);
}

#[test]
fn everything_hidden_view_is_root_only() {
    // Hide all children of r: the user sees only the root; any update it
    // could make is the identity, which must not disturb the source.
    let mut alpha = Alphabet::new();
    let dtd = d0(&mut alpha);
    let ann = parse_annotation(&mut alpha, "hide r a\nhide r b\nhide r c\nhide r d").unwrap();
    let mut gen = NodeIdGen::new();
    let t = parse_term_with_ids(&mut alpha, &mut gen, "r#0(a#1, b#2, d#3(a#4, c#5))").unwrap();
    let view = extract_view(&ann, &t);
    assert_eq!(view.size(), 1);
    let s = nop_script(&view);
    let inst = Instance::new(&dtd, &ann, &t, &s, alpha.len()).unwrap();
    let prop = propagate(&inst, &InsertletPackage::new(), &Config::default()).unwrap();
    assert_eq!(prop.cost, 0);
    assert_eq!(
        output_tree(&prop.script).unwrap(),
        t,
        "hidden data untouched"
    );
}

#[test]
fn delete_everything_visible() {
    let mut alpha = Alphabet::new();
    let dtd = d0(&mut alpha);
    let ann = a0(&mut alpha);
    let mut gen = NodeIdGen::new();
    let t = parse_term_with_ids(
        &mut alpha,
        &mut gen,
        "r#0(a#1, b#2, d#3(a#7, c#8), a#4, c#5, d#6(b#9, c#10))",
    )
    .unwrap();
    let engine = Engine::builder()
        .alphabet(alpha)
        .dtd(dtd)
        .annotation(ann)
        .build()
        .unwrap();
    let mut session = engine.open(&t).unwrap();
    let view = session.view();
    let mut b = UpdateBuilder::new(view);
    for &k in view.children(view.root()) {
        b.delete(k).unwrap();
    }
    let s = b.finish();
    let prop = session.propagate(&s).unwrap();
    session.verify(&s, &prop.script).unwrap();
    session.commit(&prop).unwrap();
    // Everything but the root must go: visible deletions drag their
    // hidden groups along to keep r's word valid.
    assert_eq!(session.document().size(), 1);
    assert_eq!(prop.cost, 10);
}

#[test]
fn unsatisfiable_insert_label_is_a_typed_error() {
    // x → x is unsatisfiable; a view update inserting x can never yield a
    // valid view, and instance validation must say so.
    let mut alpha = Alphabet::new();
    let dtd = parse_dtd(&mut alpha, "r -> a*.x?\nx -> x").unwrap();
    let ann = Annotation::all_visible();
    let mut gen = NodeIdGen::new();
    let t = parse_term_with_ids(&mut alpha, &mut gen, "r#0(a#1)").unwrap();
    let s = parse_script(&mut alpha, "nop:r#0(nop:a#1, ins:x#9)").unwrap();
    let err = Instance::new(&dtd, &ann, &t, &s, alpha.len()).unwrap_err();
    // x#9 would need an x-child forever: Out(S) is not a view of any
    // document.
    assert!(matches!(
        err,
        PropagateError::OutputNotAView(_) | PropagateError::Edit(_)
    ));
}

#[test]
fn witness_budget_exhaustion_surfaces_as_error() {
    // Exponential DTD hidden under the root: propagation must materialise
    // a 2^12-node fragment; with a tiny budget it reports the problem
    // instead of hanging or panicking.
    let mut alpha = Alphabet::new();
    let mut src = String::from("r -> v.a\n");
    src.push_str("a -> a10.a10\n");
    for i in (1..=10).rev() {
        src.push_str(&format!("a{i} -> a{}.a{}\n", i - 1, i - 1));
    }
    let dtd = parse_dtd(&mut alpha, &src).unwrap();
    let ann = parse_annotation(&mut alpha, "hide r a").unwrap();
    let mut gen = NodeIdGen::new();
    // source: r(v, a(...)) — build it via the minimal witness
    let sizes = min_sizes(&dtd, alpha.len());
    let r = alpha.get("r").unwrap();
    let t = minimal_witness(&dtd, &sizes, r, &mut gen, 1 << 20).unwrap();
    assert!(t.size() > 4000);
    let view = extract_view(&ann, &t);
    assert_eq!(view.size(), 2); // r(v)

    // the user deletes v and re-inserts it — the propagation keeps the
    // hidden a-subtree via Nop edges, so this must succeed cheaply…
    let mut b = UpdateBuilder::new(&view);
    let vnode = view.children(view.root())[0];
    b.delete(vnode).unwrap();
    let v_new = parse_term(&mut alpha, &mut gen, "v").unwrap();
    b.insert(view.root(), 0, v_new).unwrap();
    let s = b.finish();
    let inst = Instance::new(&dtd, &ann, &t, &s, alpha.len()).unwrap();
    let cfg = Config {
        witness_budget: 10,
        ..Config::default()
    };
    let prop = propagate(&inst, &InsertletPackage::new(), &cfg).unwrap();
    verify_propagation(&inst, &prop.script).unwrap();
    assert_eq!(prop.cost, 2);

    // …but deleting the *hidden* part by deleting-and-reinserting nothing
    // visible cannot force materialisation. Force it instead: a fresh
    // empty source r(v) cannot exist (a is mandatory), so inverting the
    // view r(v) needs a fresh a-fragment and must hit the budget.
    let inv_forest = {
        let pkg = InsertletPackage::new();
        let cm = CostModel {
            sizes: &sizes,
            insertlets: &pkg,
        };
        InversionForest::build(&dtd, &ann, &view, &cm).unwrap()
    };
    let pkg = InsertletPackage::new();
    let cm = CostModel {
        sizes: &sizes,
        insertlets: &pkg,
    };
    let mut gen2 = NodeIdGen::starting_at(1 << 30);
    let err = inv_forest
        .materialize_min(&dtd, &cm, Selector::PreferNop, &mut gen2, 10)
        .unwrap_err();
    assert!(matches!(err, PropagateError::Materialisation(_)), "{err:?}");
    // with insertlets the same inversion succeeds within the tiny budget
    let mut gen3 = NodeIdGen::starting_at(1 << 31);
    let mut full = InsertletPackage::new();
    let a = alpha.get("a").unwrap();
    let w = minimal_witness(&dtd, &sizes, a, &mut gen3, 1 << 20).unwrap();
    full.insert(&dtd, &sizes, a, w).unwrap();
    let cm2 = CostModel {
        sizes: &sizes,
        insertlets: &full,
    };
    let inv = inv_forest
        .materialize_min(&dtd, &cm2, Selector::PreferNop, &mut gen3, 10)
        .unwrap();
    assert!(dtd.is_valid(&inv));
}

#[test]
fn deep_documents_work_with_adequate_stack() {
    // Several pipeline stages recurse proportionally to document *depth*
    // (graph assembly follows the Nop skeleton). Real XML rarely exceeds
    // depth ~100; for pathological depths the documented pattern is a
    // dedicated thread with a larger stack — which is what this test
    // exercises at depth 2000.
    std::thread::Builder::new()
        .stack_size(64 << 20)
        .spawn(|| {
            let mut alpha = Alphabet::new();
            let dtd = parse_dtd(&mut alpha, "n -> n?").unwrap();
            let ann = Annotation::all_visible();
            let mut gen = NodeIdGen::new();
            let n = alpha.get("n").unwrap();
            let mut t = Tree::leaf(&mut gen, n);
            let mut cur = t.root();
            for _ in 0..2000 {
                cur = t.add_child(cur, &mut gen, n);
            }
            assert!(dtd.is_valid(&t));
            let view = extract_view(&ann, &t);
            assert_eq!(view.size(), 2001);
            let s = nop_script(&view);
            let inst = Instance::new(&dtd, &ann, &t, &s, alpha.len()).unwrap();
            let prop = propagate(&inst, &InsertletPackage::new(), &Config::default()).unwrap();
            assert_eq!(prop.cost, 0);
        })
        .expect("spawn")
        .join()
        .expect("deep pipeline must succeed");
}

#[test]
fn moderately_deep_documents_work_on_default_stacks() {
    // Depth 300 — beyond any realistic XML — must work without special
    // stack arrangements even on the 2 MiB test-thread stack.
    let mut alpha = Alphabet::new();
    let dtd = parse_dtd(&mut alpha, "n -> n?").unwrap();
    let ann = Annotation::all_visible();
    let mut gen = NodeIdGen::new();
    let n = alpha.get("n").unwrap();
    let mut t = Tree::leaf(&mut gen, n);
    let mut cur = t.root();
    for _ in 0..300 {
        cur = t.add_child(cur, &mut gen, n);
    }
    let view = extract_view(&ann, &t);
    let s = nop_script(&view);
    let inst = Instance::new(&dtd, &ann, &t, &s, alpha.len()).unwrap();
    let prop = propagate(&inst, &InsertletPackage::new(), &Config::default()).unwrap();
    assert_eq!(prop.cost, 0);
}

#[test]
fn codecs_and_tree_walks_are_stack_safe_on_a_100k_level_chain() {
    // The term and script codecs, the XML codec, the script projections,
    // the whole-tree walks (height included) and the script check each
    // handle a 100,000-level chain on a 256 KiB stack: none of them
    // recurses per level.
    std::thread::Builder::new()
        .stack_size(256 * 1024)
        .spawn(|| {
            let mut alpha = Alphabet::new();
            let (r, a) = (alpha.intern("r"), alpha.intern("a"));
            let mut gen = NodeIdGen::new();
            let mut chain = Tree::leaf(&mut gen, r);
            let mut cur = chain.root();
            for _ in 0..100_000 {
                cur = chain.add_child(cur, &mut gen, a);
            }

            let term = to_term_with_ids(&chain, &alpha);
            let back = parse_term_with_ids(&mut alpha, &mut NodeIdGen::new(), &term).unwrap();
            assert!(back == chain, "term round trip");

            let script = nop_script(&chain);
            let text = script_to_term(&script, &alpha);
            let back = parse_script(&mut alpha, &text).unwrap();
            assert!(back == script, "script round trip");
            assert!(input_tree(&script).unwrap() == chain, "In(S)");
            assert!(output_tree(&script).unwrap() == chain, "Out(S)");

            let opts = WriteOptions {
                pretty: false,
                with_ids: true,
            };
            let xml = write_xml(&chain, &alpha, &opts);
            let back = read_xml(&mut alpha, &mut NodeIdGen::new(), &xml).unwrap();
            assert!(back == chain, "XML round trip");

            let copy = chain.with_fresh_ids(&mut gen);
            assert!(copy.isomorphic(&chain) && copy != chain, "fresh-id copy");
            // one pass, not a parent walk per node (quadratic in depth)
            assert_eq!(chain.height(), 100_000, "height");

            // an insert at the bottom dirties the whole spine
            let mut edit = nop_script(&chain);
            let fresh = gen.fresh();
            edit.add_child_with_id(cur, fresh, ELabel::ins(a)).unwrap();
            let check = check_script(&edit, Some(&chain));
            assert!(check.closure().is_ok() && check.input_matches(), "check");
            assert_eq!(check.footprint().changed(), &[cur, fresh]);
            assert_eq!(check.footprint().clean_len(), 0);
            let fp = script_footprint(&edit);
            assert_eq!(fp.changed(), &[cur, fresh]);
            assert_eq!(fp.clean_len(), 0);
        })
        .expect("spawn")
        .join()
        .expect("the codecs and walks must not overflow the stack");
}

/// `u64::MAX` is not an identifier: a generator bumped past it would
/// wrap, and fresh identifiers would collide with the document's own.
const RESERVED_ID: &str = "18446744073709551615";

#[test]
fn document_term_reader_rejects_the_reserved_identifier() {
    let mut alpha = Alphabet::new();
    let mut gen = NodeIdGen::new();
    let term = format!("r#5(a#{RESERVED_ID})");
    let err = parse_term_with_ids(&mut alpha, &mut gen, &term).unwrap_err();
    assert!(
        matches!(&err, TreeError::Parse { msg, .. } if msg.contains("out of range")),
        "{err:?}"
    );
    // the largest identifier is still read, and exhausts the generator
    // instead of wrapping it
    let term = format!("r#5(a#{})", NodeId::MAX.0);
    let t = parse_term_with_ids(&mut alpha, &mut gen, &term).unwrap();
    assert!(t.contains(NodeId::MAX));
    assert_eq!(gen.peek(), NodeId(u64::MAX));
}

#[test]
fn script_term_reader_rejects_the_reserved_identifier() {
    let mut alpha = Alphabet::new();
    let term = format!("nop:r#5(ins:a#{RESERVED_ID})");
    let err = parse_script(&mut alpha, &term).unwrap_err();
    assert!(err.to_string().contains("out of range"), "{err}");
}

#[test]
fn xml_reader_rejects_the_reserved_identifier() {
    let mut alpha = Alphabet::new();
    let mut gen = NodeIdGen::new();
    let xml = format!(r#"<r xvu:id="5"><a xvu:id="{RESERVED_ID}"/></r>"#);
    let err = read_xml(&mut alpha, &mut gen, &xml).unwrap_err();
    assert!(err.to_string().contains("out of range"), "{err}");
    assert_eq!(gen.peek(), NodeId(6), "the generator never wrapped");
}

#[test]
fn snapshot_reader_rejects_the_reserved_identifier() {
    // `r#0(a#M)` with `M` the largest identifier, an outlier the snapshot
    // indexes sparsely. Every occurrence of `M` — the record, the child
    // reference and the sparse index entry — is forged to `u64::MAX` and
    // the trailing checksum recomputed: a consistent snapshot whose tree
    // would otherwise load.
    let mut alpha = Alphabet::new();
    let mut gen = NodeIdGen::new();
    let term = format!("r#0(a#{})", NodeId::MAX.0);
    let t = parse_term_with_ids(&mut alpha, &mut gen, &term).unwrap();
    let mut bytes = t.to_snapshot_bytes(&alpha).unwrap();
    let n = bytes.len();
    let (from, to) = (NodeId::MAX.0.to_le_bytes(), u64::MAX.to_le_bytes());
    let mut forged = 0;
    let mut i = 0;
    while i + 8 <= n - 8 {
        if bytes[i..i + 8] == from {
            bytes[i..i + 8].copy_from_slice(&to);
            forged += 1;
            i += 8;
        } else {
            i += 1;
        }
    }
    assert_eq!(forged, 3, "record, child reference and index entry");
    let sum = snapshot_checksum(&bytes[..n - 8]);
    bytes[n - 8..].copy_from_slice(&sum.to_le_bytes());
    let err = DocTree::from_snapshot_bytes(&bytes, &mut alpha).unwrap_err();
    assert!(
        matches!(&err, SnapshotError::Malformed(m) if m.contains("out of range")),
        "{err:?}"
    );
}

/// The snapshot trailer: FNV-1a 64 folded over little-endian 8-byte
/// words, the tail zero-padded, the length mixed in last.
fn snapshot_checksum(bytes: &[u8]) -> u64 {
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for w in bytes.chunks(8) {
        let mut word = [0u8; 8];
        word[..w.len()].copy_from_slice(w);
        h = (h ^ u64::from_le_bytes(word)).wrapping_mul(PRIME);
    }
    (h ^ bytes.len() as u64).wrapping_mul(PRIME)
}

#[test]
fn wide_documents_are_fine() {
    let mut alpha = Alphabet::new();
    let dtd = parse_dtd(&mut alpha, "r -> a*").unwrap();
    let ann = Annotation::all_visible();
    let mut gen = NodeIdGen::new();
    let r = alpha.get("r").unwrap();
    let a = alpha.get("a").unwrap();
    let mut t = Tree::leaf(&mut gen, r);
    let root = t.root();
    for _ in 0..20_000 {
        t.add_child(root, &mut gen, a);
    }
    let view = extract_view(&ann, &t);
    let mut b = UpdateBuilder::new(&view);
    let new_a = parse_term(&mut alpha, &mut gen, "a").unwrap();
    b.insert(view.root(), 10_000, new_a).unwrap();
    let s = b.finish();
    let inst = Instance::new(&dtd, &ann, &t, &s, alpha.len()).unwrap();
    let prop = propagate(&inst, &InsertletPackage::new(), &Config::default()).unwrap();
    assert_eq!(prop.cost, 1);
    verify_propagation(&inst, &prop.script).unwrap();
}

#[test]
fn complement_and_typing_integration() {
    // The new analyses compose with the pipeline end to end.
    let fx = xml_view_update::workload::paper::running_example();
    let inst = Instance::new(&fx.dtd, &fx.ann, &fx.t0, &fx.s0, fx.alpha.len()).unwrap();
    let prop = propagate(&inst, &InsertletPackage::new(), &Config::default()).unwrap();

    let impact = invisible_impact(&inst, &prop.script);
    assert_eq!(impact.churn(), 6); // 2 hidden deleted + 4 padding inserted
    assert!(!impact.is_constant_complement());

    let sizes = min_sizes(&fx.dtd, fx.alpha.len());
    let pkg = InsertletPackage::new();
    let cm = CostModel {
        sizes: &sizes,
        insertlets: &pkg,
    };
    let none = find_complement_preserving(&inst, &prop.forest, &cm, &Config::default()).unwrap();
    assert!(none.is_none(), "S0 forces invisible churn");

    let report = typing_report(&fx.dtd, fx.alpha.len(), &prop.script);
    assert!(report.fully_preserved());
}

#[test]
fn composed_session_equals_stepwise_propagation_result() {
    // Propagate two successive view updates through one session and
    // compose them; the composition applied to the original source gives
    // the session's final document.
    let fx = xml_view_update::workload::paper::running_example();
    let engine = Engine::builder()
        .alphabet(fx.alpha.clone())
        .dtd(fx.dtd.clone())
        .annotation(fx.ann.clone())
        .build()
        .unwrap();
    let mut session = engine.open(&fx.t0).unwrap();
    let p1 = session.apply(&fx.s0).unwrap();

    // second round: identity on the new view (keeps it simple and still
    // exercises compose through the propagation scripts)
    let s2 = nop_script(session.view());
    let p2 = session.apply(&s2).unwrap();

    let composed = compose(&p1.script, &p2.script).unwrap();
    assert_eq!(input_tree(&composed).unwrap(), fx.t0);
    assert_eq!(
        apply(&composed, &fx.t0).unwrap(),
        session.document().clone()
    );
}
