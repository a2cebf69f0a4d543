//! Machine-readable load-path benchmark: emits `BENCH_load.json`.
//!
//! Measures document **cold start** — the wall time from serialized
//! bytes to a servable in-memory arena — across the three formats the
//! repo can load:
//!
//! * `flat` — the versioned arena snapshot ([`xvu_tree::snapshot`]):
//!   one checksum pass plus a bulk bounds-checked decode straight into
//!   the slab, no per-node hashing or re-indexing;
//! * `term` — the identifier-annotated term syntax
//!   ([`xvu_tree::parse_term_with_ids`]), the daemon's `load`-verb
//!   format: one pass appending each node to the arena;
//! * `xml` — `xvu:id`-annotated XML ([`xvu_xml::read_xml`]), read the
//!   same way.
//!
//! Single documents at 1k/10k/100k nodes, plus a 36-document fleet
//! corpus loaded whole (packed snapshot vs per-document term parse).
//! Every timed load is also an oracle: the loaded tree must equal the
//! original identifier-for-identifier. Each load time is recorded as
//! `{ "min", "median", "max" }` µs over the repetitions; the speedups and
//! the run's cold-start gate read the minimums (the best-of): flat load
//! at least `FLAT_VS_TERM_GATE` times faster than term parse at 10k
//! nodes. The file records `nproc` and the git revision it was measured
//! at.
//!
//! ```text
//! cargo run --release -p xvu_bench --bin bench_load [-- OUT_PATH]
//! cargo run --release -p xvu_bench --bin bench_load -- --test   # CI smoke
//! ```

use std::time::Instant;
use xvu_bench::{json_header, ms, write_json, Spread};
use xvu_tree::{
    parse_term_with_ids, to_term_with_ids, Alphabet, DocTree, NodeIdGen, SnapshotFile, Tree,
};
use xvu_workload::fleet::{generate_fleet, FleetConfig};
use xvu_xml::{read_xml, write_xml, WriteOptions};

/// The cold-start gate: flat load must be at least this many times
/// faster than term parse at 10k nodes. Six `--test` runs on a 2-vCPU
/// host read 2.4–3.2× (median 2.6×); the bound sits 2× under that
/// median, so it trips when flat load slows about 2× against term
/// parse.
const FLAT_VS_TERM_GATE: f64 = 1.3;

/// Builds a deterministic document with exactly `nodes` nodes: a
/// breadth-first tree of fan-out 8 over labels `a..e`.
fn synth_doc(nodes: usize) -> (Alphabet, DocTree) {
    assert!(nodes >= 1);
    let mut alpha = Alphabet::new();
    let labels: Vec<_> = ["r", "a", "b", "c", "d", "e"]
        .iter()
        .map(|l| alpha.intern(l))
        .collect();
    let mut gen = NodeIdGen::new();
    let mut t = Tree::leaf(&mut gen, labels[0]);
    let mut frontier = vec![t.root()];
    let mut next = Vec::new();
    let mut count = 1usize;
    'grow: loop {
        for &parent in &frontier {
            for k in 0..8usize {
                if count == nodes {
                    break 'grow;
                }
                let label = labels[1 + (count + k) % 5];
                next.push(t.add_child(parent, &mut gen, label));
                count += 1;
            }
        }
        frontier = std::mem::take(&mut next);
    }
    debug_assert_eq!(t.size(), nodes);
    (alpha, t)
}

/// Wall time of `reps` runs of `load`, in µs. Each run must produce a
/// tree equal to `expect` (the load-path oracle), checked outside the
/// timing.
fn load_us(reps: usize, expect: &DocTree, mut load: impl FnMut() -> DocTree) -> Spread {
    let samples = (0..reps)
        .map(|_| {
            let start = Instant::now();
            let got = load();
            let t = ms(start.elapsed());
            assert_eq!(&got, expect, "loaded tree diverged from the original");
            t
        })
        .collect();
    Spread::of(samples).scale(1e3)
}

/// How many times faster flat load is than term parse, best-of against
/// best-of.
fn speedup(flat: &Spread, term: &Spread) -> f64 {
    term.min / flat.min.max(1e-6)
}

struct SizeRow {
    nodes: usize,
    flat_bytes: usize,
    term_bytes: usize,
    xml_bytes: usize,
    flat_us: Spread,
    term_us: Spread,
    xml_us: Spread,
}

fn measure_size(nodes: usize, reps: usize) -> SizeRow {
    let (alpha, doc) = synth_doc(nodes);
    let flat = doc.to_snapshot_bytes(&alpha).expect("encodable");
    let term = to_term_with_ids(&doc, &alpha);
    let xml = write_xml(
        &doc,
        &alpha,
        &WriteOptions {
            pretty: false,
            with_ids: true,
        },
    );
    // every format loads against a clone of the family alphabet, like
    // the daemon does (labels resolve to the engine's existing symbols)
    let flat_us = load_us(reps, &doc, || {
        let mut a = alpha.clone();
        DocTree::from_snapshot_bytes(&flat, &mut a).expect("flat decodes")
    });
    let term_us = load_us(reps, &doc, || {
        let mut a = alpha.clone();
        let mut g = NodeIdGen::new();
        parse_term_with_ids(&mut a, &mut g, &term).expect("term parses")
    });
    let xml_us = load_us(reps, &doc, || {
        let mut a = alpha.clone();
        let mut g = NodeIdGen::new();
        read_xml(&mut a, &mut g, &xml).expect("xml parses")
    });
    eprintln!(
        "  {nodes:>6} nodes: flat {:>9.1} µs ({} B), \
         term {:>9.1} µs ({} B), xml {:>9.1} µs ({} B) — flat is {:.1}× faster than term",
        flat_us.min,
        flat.len(),
        term_us.min,
        term.len(),
        xml_us.min,
        xml.len(),
        speedup(&flat_us, &term_us),
    );
    SizeRow {
        nodes,
        flat_bytes: flat.len(),
        term_bytes: term.len(),
        xml_bytes: xml.len(),
        flat_us,
        term_us,
        xml_us,
    }
}

struct FleetRow {
    docs: usize,
    total_nodes: usize,
    flat_bytes: usize,
    term_bytes: usize,
    flat_us: Spread,
    term_us: Spread,
}

/// The 36-document fleet corpus, loaded whole: packed snapshot file
/// (directory parse + per-document bulk decode) versus per-document
/// term parse — the two boot paths `xvu serve` offers.
fn measure_fleet(docs: usize, reps: usize) -> FleetRow {
    let plan = generate_fleet(&FleetConfig {
        docs,
        families: 6.min(docs),
        clients: 6,
        updates: 0,
        seed: 0x10AD_CAFE,
        ..FleetConfig::default()
    });
    let corpus = plan.corpus_snapshot_bytes();
    let terms: Vec<(usize, String)> = plan
        .docs
        .iter()
        .map(|fd| {
            (
                fd.family,
                to_term_with_ids(&fd.doc, &plan.families[fd.family].alpha),
            )
        })
        .collect();
    let term_bytes: usize = terms.iter().map(|(_, t)| t.len()).sum();
    let expect: Vec<&DocTree> = plan.docs.iter().map(|fd| &fd.doc).collect();
    let total_nodes: usize = expect.iter().map(|d| d.size()).sum();

    let (mut flat_ms, mut term_ms) = (Vec::new(), Vec::new());
    for _ in 0..reps {
        let start = Instant::now();
        let file = SnapshotFile::from_bytes(corpus.clone()).expect("corpus parses");
        let loaded: Vec<DocTree> = (0..file.len())
            .map(|i| {
                let mut a = plan.families[file.entries()[i].family as usize]
                    .alpha
                    .clone();
                file.decode(i, &mut a).expect("doc decodes")
            })
            .collect();
        flat_ms.push(ms(start.elapsed()));
        for (got, want) in loaded.iter().zip(&expect) {
            assert_eq!(&got, want, "corpus-loaded tree diverged");
        }

        let start = Instant::now();
        let parsed: Vec<DocTree> = terms
            .iter()
            .map(|(family, term)| {
                let mut a = plan.families[*family].alpha.clone();
                let mut g = NodeIdGen::new();
                parse_term_with_ids(&mut a, &mut g, term).expect("term parses")
            })
            .collect();
        term_ms.push(ms(start.elapsed()));
        for (got, want) in parsed.iter().zip(&expect) {
            assert_eq!(&got, want, "term-parsed tree diverged");
        }
    }
    let flat_us = Spread::of(flat_ms).scale(1e3);
    let term_us = Spread::of(term_ms).scale(1e3);
    eprintln!(
        "  fleet corpus ({docs} docs, {total_nodes} nodes): flat {:.1} µs ({} B), \
         term {:.1} µs ({} B) — flat is {:.1}× faster",
        flat_us.min,
        corpus.len(),
        term_us.min,
        term_bytes,
        speedup(&flat_us, &term_us),
    );
    FleetRow {
        docs,
        total_nodes,
        flat_bytes: corpus.len(),
        term_bytes,
        flat_us,
        term_us,
    }
}

fn main() {
    let arg = std::env::args().nth(1);
    let smoke = arg.as_deref() == Some("--test");
    // CI smoke keeps the 10k gate (it is the acceptance criterion) but
    // skips the 100k document and trims repetitions.
    let (sizes, reps, fleet_docs) = if smoke {
        (vec![1_000usize, 10_000], 5, 8)
    } else {
        (vec![1_000usize, 10_000, 100_000], 15, 36)
    };

    eprintln!("bench_load: cold-start wall time per format (min of {reps})");
    let rows: Vec<SizeRow> = sizes.iter().map(|&n| measure_size(n, reps)).collect();
    let fleet = measure_fleet(fleet_docs, reps);

    let at_10k = rows
        .iter()
        .find(|r| r.nodes == 10_000)
        .expect("10k row present");
    let gate = speedup(&at_10k.flat_us, &at_10k.term_us);
    assert!(
        gate >= FLAT_VS_TERM_GATE,
        "flat load must be ≥ {FLAT_VS_TERM_GATE}× faster than term parse at 10k nodes, \
         got {gate:.1}×"
    );

    if smoke {
        println!("bench_load self-test PASS (flat {gate:.1}× faster than term at 10k nodes)");
        return;
    }

    let out_path = arg.unwrap_or_else(|| "BENCH_load.json".to_owned());
    let mut json = json_header("xvu-bench-load/3");
    json.push_str(
        "  \"timed_region\": \"serialized bytes to a verified in-memory arena, min / median / \
         max us over reps; flat_vs_term_speedup is the ratio of the minimums (best of reps)\",\n",
    );
    json.push_str(&format!("  \"reps\": {reps},\n"));
    json.push_str("  \"sizes\": {\n");
    for (i, r) in rows.iter().enumerate() {
        json.push_str(&format!(
            "    \"{}\": {{ \"flat_us\": {}, \"term_us\": {}, \"xml_us\": {}, \
             \"flat_bytes\": {}, \"term_bytes\": {}, \"xml_bytes\": {}, \
             \"flat_vs_term_speedup\": {:.1} }}",
            r.nodes,
            r.flat_us.json(1),
            r.term_us.json(1),
            r.xml_us.json(1),
            r.flat_bytes,
            r.term_bytes,
            r.xml_bytes,
            speedup(&r.flat_us, &r.term_us),
        ));
        json.push_str(if i + 1 == rows.len() { "\n" } else { ",\n" });
    }
    json.push_str("  },\n");
    json.push_str(&format!(
        "  \"fleet_corpus\": {{ \"docs\": {}, \"total_nodes\": {}, \
         \"flat_us\": {}, \"term_us\": {}, \
         \"flat_bytes\": {}, \"term_bytes\": {}, \"flat_vs_term_speedup\": {:.1} }}\n",
        fleet.docs,
        fleet.total_nodes,
        fleet.flat_us.json(1),
        fleet.term_us.json(1),
        fleet.flat_bytes,
        fleet.term_bytes,
        speedup(&fleet.flat_us, &fleet.term_us),
    ));
    json.push_str("}\n");

    write_json(&out_path, &json);
}
