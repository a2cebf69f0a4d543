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
//! original identifier-for-identifier. The run itself enforces the
//! cold-start gate: flat load at least `FLAT_VS_TERM_GATE` times faster than
//! term parse at 10k nodes. The file records `nproc` and the git
//! revision it was measured at.
//!
//! ```text
//! cargo run --release -p xvu_bench --bin bench_load [-- OUT_PATH]
//! cargo run --release -p xvu_bench --bin bench_load -- --test   # CI smoke
//! ```

use std::time::Instant;
use xvu_bench::git_revision;
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

/// Best-of-`reps` wall time for `load`, in seconds. Each reseeded run
/// must produce a tree equal to `expect` (the load-path oracle).
fn time_load(reps: usize, expect: &DocTree, mut load: impl FnMut() -> DocTree) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..reps {
        let start = Instant::now();
        let got = load();
        let dt = start.elapsed().as_secs_f64();
        assert_eq!(&got, expect, "loaded tree diverged from the original");
        best = best.min(dt);
    }
    best
}

struct SizeRow {
    nodes: usize,
    flat_bytes: usize,
    term_bytes: usize,
    xml_bytes: usize,
    flat_s: f64,
    term_s: f64,
    xml_s: f64,
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
    let flat_s = time_load(reps, &doc, || {
        let mut a = alpha.clone();
        DocTree::from_snapshot_bytes(&flat, &mut a).expect("flat decodes")
    });
    let term_s = time_load(reps, &doc, || {
        let mut a = alpha.clone();
        let mut g = NodeIdGen::new();
        parse_term_with_ids(&mut a, &mut g, &term).expect("term parses")
    });
    let xml_s = time_load(reps, &doc, || {
        let mut a = alpha.clone();
        let mut g = NodeIdGen::new();
        read_xml(&mut a, &mut g, &xml).expect("xml parses")
    });
    eprintln!(
        "  {nodes:>6} nodes: flat {:>9.1} µs ({} B), \
         term {:>9.1} µs ({} B), xml {:>9.1} µs ({} B) — flat is {:.1}× faster than term",
        flat_s * 1e6,
        flat.len(),
        term_s * 1e6,
        term.len(),
        xml_s * 1e6,
        xml.len(),
        term_s / flat_s.max(1e-12),
    );
    SizeRow {
        nodes,
        flat_bytes: flat.len(),
        term_bytes: term.len(),
        xml_bytes: xml.len(),
        flat_s,
        term_s,
        xml_s,
    }
}

struct FleetRow {
    docs: usize,
    total_nodes: usize,
    flat_bytes: usize,
    term_bytes: usize,
    flat_s: f64,
    term_s: f64,
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

    let mut flat_s = f64::INFINITY;
    let mut term_s = f64::INFINITY;
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
        let dt = start.elapsed().as_secs_f64();
        for (got, want) in loaded.iter().zip(&expect) {
            assert_eq!(&got, want, "corpus-loaded tree diverged");
        }
        flat_s = flat_s.min(dt);

        let start = Instant::now();
        let parsed: Vec<DocTree> = terms
            .iter()
            .map(|(family, term)| {
                let mut a = plan.families[*family].alpha.clone();
                let mut g = NodeIdGen::new();
                parse_term_with_ids(&mut a, &mut g, term).expect("term parses")
            })
            .collect();
        let dt = start.elapsed().as_secs_f64();
        for (got, want) in parsed.iter().zip(&expect) {
            assert_eq!(&got, want, "term-parsed tree diverged");
        }
        term_s = term_s.min(dt);
    }
    eprintln!(
        "  fleet corpus ({docs} docs, {total_nodes} nodes): flat {:.1} µs ({} B), \
         term {:.1} µs ({} B) — flat is {:.1}× faster",
        flat_s * 1e6,
        corpus.len(),
        term_s * 1e6,
        term_bytes,
        term_s / flat_s.max(1e-12),
    );
    FleetRow {
        docs,
        total_nodes,
        flat_bytes: corpus.len(),
        term_bytes,
        flat_s,
        term_s,
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

    eprintln!("bench_load: cold-start wall time per format (best of {reps})");
    let rows: Vec<SizeRow> = sizes.iter().map(|&n| measure_size(n, reps)).collect();
    let fleet = measure_fleet(fleet_docs, reps);

    let gate = rows
        .iter()
        .find(|r| r.nodes == 10_000)
        .expect("10k row present");
    let speedup = gate.term_s / gate.flat_s.max(1e-12);
    assert!(
        speedup >= FLAT_VS_TERM_GATE,
        "flat load must be ≥ {FLAT_VS_TERM_GATE}× faster than term parse at 10k nodes, \
         got {speedup:.1}×"
    );

    if smoke {
        println!("bench_load self-test PASS (flat {speedup:.1}× faster than term at 10k nodes)");
        return;
    }

    let out_path = arg.unwrap_or_else(|| "BENCH_load.json".to_owned());
    let mut json = String::from("{\n");
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    json.push_str("  \"schema\": \"xvu-bench-load/2\",\n");
    json.push_str(&format!(
        "  \"nproc\": {nproc},\n  \"git_revision\": \"{}\",\n",
        git_revision()
    ));
    json.push_str(
        "  \"timed_region\": \"serialized bytes to a verified in-memory arena (best of N)\",\n",
    );
    json.push_str(&format!("  \"reps\": {reps},\n"));
    json.push_str("  \"sizes\": {\n");
    for (i, r) in rows.iter().enumerate() {
        json.push_str(&format!(
            "    \"{}\": {{ \"flat_us\": {:.1}, \"term_us\": {:.1}, \"xml_us\": {:.1}, \
             \"flat_bytes\": {}, \"term_bytes\": {}, \"xml_bytes\": {}, \
             \"flat_vs_term_speedup\": {:.1} }}",
            r.nodes,
            r.flat_s * 1e6,
            r.term_s * 1e6,
            r.xml_s * 1e6,
            r.flat_bytes,
            r.term_bytes,
            r.xml_bytes,
            r.term_s / r.flat_s.max(1e-12),
        ));
        json.push_str(if i + 1 == rows.len() { "\n" } else { ",\n" });
    }
    json.push_str("  },\n");
    json.push_str(&format!(
        "  \"fleet_corpus\": {{ \"docs\": {}, \"total_nodes\": {}, \
         \"flat_us\": {:.1}, \"term_us\": {:.1}, \
         \"flat_bytes\": {}, \"term_bytes\": {}, \"flat_vs_term_speedup\": {:.1} }}\n",
        fleet.docs,
        fleet.total_nodes,
        fleet.flat_s * 1e6,
        fleet.term_s * 1e6,
        fleet.flat_bytes,
        fleet.term_bytes,
        fleet.term_s / fleet.flat_s.max(1e-12),
    ));
    json.push_str("}\n");

    std::fs::write(&out_path, &json).expect("write BENCH_load.json");
    print!("{json}");
    eprintln!("wrote {out_path}");
}
