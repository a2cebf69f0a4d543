//! Observational equivalence of the CSR kernel and scratch pooling.
//!
//! The PR 10 kernel rewrite changed *how* shortest-path queries run —
//! CSR-packed adjacency, memoised reverse CSR, pooled Dijkstra scratch —
//! but must change nothing observable. Two angles:
//!
//! * **kernel vs recursive spec**: on every per-node propagation graph a
//!   real forest produces over the enumerated grammar space, the CSR
//!   Dijkstra (fresh and pooled scratch alike) must agree with a
//!   first-principles recursive Bellman–Ford spec — `dist(v, k)`, the
//!   cheapest start→v cost using at most `k` edges, defined by the
//!   textbook recurrence and memoised;
//! * **scratch hygiene**: one `PropScratch` serving propagations of
//!   *different documents* back to back (the `propagate_batch` inline
//!   path) must yield fingerprints byte-identical to fresh-scratch
//!   one-shot runs — pooled working memory may never leak state across
//!   requests.

use proptest::prelude::*;
use xml_view_update::prelude::*;
use xml_view_update::propagate::PropGraph;
use xml_view_update::workload::enumo::{enumerate_recipes, instance_from_recipe, EnumBudget};
use xml_view_update::workload::scenario::{hospital, hospital_doc, Hospital};
use xml_view_update::workload::{ChurnConfig, ChurnStream};

/// Everything observable about a propagation: cost, the exact script
/// (identifier-sensitive term form), and the optimal count.
fn fingerprint(p: &Propagation, alpha: &Alphabet) -> (u64, String, Option<u128>) {
    (
        p.cost,
        script_to_term(&p.script, alpha),
        count_optimal_propagations(&p.forest),
    )
}

/// Recursive Bellman–Ford spec: `dist(v, k)` = cheapest start→v cost
/// using at most `k` edges, via the textbook recurrence
/// `dist(v, k) = min(dist(v, k-1), min over edges (u,v,w) of
/// dist(u, k-1) + w)`, memoised on `(v, k)`. With non-negative weights a
/// cheapest path is simple, so `k = |V|` suffices; the recursion never
/// touches CSR rows, scratch buffers, or the Dijkstra heap.
fn spec_best_cost(g: &PropGraph) -> Option<u64> {
    let n = g.n_vertices();
    let mut incoming: Vec<Vec<(usize, u64)>> = vec![Vec::new(); n];
    for (_, e) in g.edges() {
        incoming[e.to as usize].push((e.from as usize, e.weight));
    }
    fn dist(
        v: usize,
        k: usize,
        start: usize,
        incoming: &[Vec<(usize, u64)>],
        memo: &mut [Vec<Option<u64>>],
    ) -> u64 {
        if let Some(d) = memo[v][k] {
            return d;
        }
        let mut best = if v == start { 0 } else { u64::MAX };
        if k > 0 {
            best = best.min(dist(v, k - 1, start, incoming, memo));
            for &(u, w) in &incoming[v] {
                let du = dist(u, k - 1, start, incoming, memo);
                if du != u64::MAX {
                    best = best.min(du.saturating_add(w));
                }
            }
        }
        memo[v][k] = Some(best);
        best
    }
    let mut memo = vec![vec![None; n + 1]; n];
    g.goals()
        .map(|goal| dist(goal as usize, n, g.start() as usize, &incoming, &mut memo))
        .min()
        .filter(|&c| c != u64::MAX)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Over enumerated grammar-space instances: every harvested
    /// propagation graph answers identically through the recursive spec,
    /// the fresh-scratch CSR query, and a single pooled scratch reused
    /// across all graphs of the forest — and the full pipeline's
    /// session (pooled) fingerprint matches the one-shot (fresh) run.
    #[test]
    fn csr_kernel_matches_recursive_spec(seed in 0u64..10_000) {
        let recipes = enumerate_recipes(&EnumBudget::default());
        let inst = instance_from_recipe(&recipes[(seed as usize) % recipes.len()]).unwrap();

        let i = Instance::new(&inst.dtd, &inst.ann, &inst.doc, &inst.update, inst.alpha.len())
            .unwrap();
        let sizes = min_sizes(&inst.dtd, inst.alpha.len());
        let pkg = InsertletPackage::new();
        let cm = CostModel { sizes: &sizes, insertlets: &pkg };
        let forest = PropagationForest::build(&i, &cm).unwrap();

        // One pooled scratch across every graph of the forest: reuse on
        // graphs of wildly different sizes must not bend any answer.
        let mut pooled = GraphScratch::default();
        for (n, g) in forest.graphs() {
            let spec = spec_best_cost(g);
            prop_assert_eq!(g.best_cost(), spec, "fresh scratch, node {:?} ({})", n, inst.name);
            prop_assert_eq!(
                g.best_cost_with(&mut pooled), spec,
                "pooled scratch, node {:?} ({})", n, inst.name
            );
            // The optimal subgraph preserves the spec cost too.
            if spec.is_some() {
                let opt = g.optimal_subgraph_with(&mut pooled).expect("reachable goal");
                prop_assert_eq!(
                    opt.best_cost_with(&mut pooled), spec,
                    "optimal subgraph, node {:?} ({})", n, inst.name
                );
            }
        }

        // End to end: warm session (pooled Session scratch) ≡ one-shot.
        let engine = Engine::builder()
            .alphabet(inst.alpha.clone())
            .dtd(inst.dtd.clone())
            .annotation(inst.ann.clone())
            .build()
            .unwrap();
        let session = engine.open(&inst.doc).unwrap();
        let cold = session.propagate(&inst.update).unwrap();
        let warm = session.propagate(&inst.update).unwrap();
        let one_shot = propagate(&i, &pkg, &Config::default()).unwrap();
        let os_fp = fingerprint(&one_shot, &inst.alpha);
        prop_assert_eq!(fingerprint(&cold, &inst.alpha), os_fp.clone(), "{}", inst.name);
        prop_assert_eq!(fingerprint(&warm, &inst.alpha), os_fp, "{}", inst.name);
    }
}

/// One `PropScratch` reused across propagations of *different documents*
/// (the `propagate_batch` inline path with the memo off, so every
/// request runs statelessly through the same scratch) produces
/// fingerprints byte-identical to fresh-scratch one-shot runs of the same
/// requests.
#[test]
fn scratch_reused_across_documents_never_leaks_state() {
    let Hospital { alpha, dtd, ann } = hospital();
    let h = Hospital {
        alpha: alpha.clone(),
        dtd: dtd.clone(),
        ann: ann.clone(),
    };
    let engine = Engine::builder()
        .alphabet(alpha.clone())
        .dtd(dtd.clone())
        .annotation(ann.clone())
        .prop_cache(false)
        .build()
        .unwrap();

    // Documents of genuinely different shapes and sizes, each with its
    // own churn-generated update: scratch buffers grown by one request
    // are reused, dirty, by the next.
    let mut requests: Vec<(DocTree, Script)> = Vec::new();
    for (docs, (depts, patients)) in [(2usize, (1usize, 2usize)), (2, (3, 8)), (2, (5, 20))] {
        for d in 0..docs {
            let mut gen = NodeIdGen::new();
            let doc = hospital_doc(&h, depts, patients + d, &mut gen);
            let mut stream = ChurnStream::new(
                &dtd,
                &ann,
                alpha.len(),
                ChurnConfig::default(),
                (depts * 100 + d) as u64,
            );
            let update = stream.next_update(&doc, &mut gen);
            requests.push((doc, update));
        }
    }

    // jobs = 1 → the inline path: one PropScratch serves every request
    // in order.
    let batched = engine.propagate_batch(&requests, 1);

    for ((doc, update), result) in requests.iter().zip(&batched) {
        let prop = result.as_ref().expect("batch request propagates");
        let inst = Instance::new(&dtd, &ann, doc, update, alpha.len()).unwrap();
        let fresh = propagate(&inst, &InsertletPackage::new(), &Config::default()).unwrap();
        assert_eq!(
            fingerprint(prop, &alpha),
            fingerprint(&fresh, &alpha),
            "shared-scratch batch diverged from fresh-scratch one-shot"
        );
    }
    assert!(requests.len() >= 6);
}
