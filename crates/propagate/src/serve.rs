//! Thread-parallel batch serving over a shared, immutable [`Engine`].
//!
//! A compiled engine is immutable after [`crate::EngineBuilder::build`]: the view
//! DTD, min-size tables, cost model, and insertlet package are Theorem 6's
//! precompiled artefacts, read-only for the rest of their life, and memos
//! belong to sessions and requests ([`crate::cache`]). That makes the
//! engine exactly the shape that shares cheaply across OS threads —
//! `Engine: Send + Sync` is asserted at compile time below, so one
//! `Arc<Engine>` (or a plain `&Engine` under [`std::thread::scope`])
//! serves any number of workers with **zero** per-request locking.
//!
//! [`Engine::propagate_batch`] fans *independent* `(document, update)`
//! requests across a small std-only worker pool. Results come back in
//! request order and are byte-identical to a sequential run: each request
//! is self-contained (its fresh identifiers derive from its own document
//! and update), so thread count and scheduling cannot leak into any
//! propagation.
//!
//! Repeated updates to one document go through a [`Session`], which
//! belongs to one worker at a time and owns that document's memo. The
//! serving daemon (`xvu_server`) keeps one session per document in its
//! document table and leases it to one worker per request.
//!
//! ```
//! use std::sync::Arc;
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
//! // One engine, shared by reference count across worker threads.
//! let engine = Arc::new(
//!     Engine::builder().alphabet(alpha).dtd(dtd).annotation(ann).build().unwrap(),
//! );
//! let requests: Vec<_> = (0..8).map(|_| (t0.clone(), s0.clone())).collect();
//! let results = engine.propagate_batch(&requests, 4);
//! assert_eq!(results.len(), 8);
//! for r in &results {
//!     assert_eq!(r.as_ref().unwrap().cost, 14); // the paper's Fig. 7 optimum
//! }
//! ```

use crate::algorithm::{propagate_with_memo, PhaseBreakdown, Propagation};
use crate::engine::{Engine, Parked, Session};
use crate::error::PropagateError;
use crate::scratch::PropScratch;
use std::sync::atomic::{AtomicUsize, Ordering};
use xvu_edit::Script;
use xvu_tree::DocTree;

// The serving contract, checked by the compiler: a compiled engine (and
// everything a batch worker touches) crosses and is shared across threads.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<Engine>();
    assert_send_sync::<crate::EngineBuilder>();
    assert_send_sync::<Propagation>();
    assert_send_sync::<PropagateError>();
    assert_send_sync::<Session<'static>>();
    assert_send_sync::<Parked<'static>>();
};

impl Engine {
    /// Propagates a batch of independent `(document, update)` requests,
    /// fanning them across at most `jobs` OS worker threads.
    ///
    /// `results[i]` always answers `requests[i]` — ordering is
    /// deterministic regardless of thread scheduling — and every result is
    /// identical to what a sequential [`Engine::instance`] +
    /// [`Engine::propagate`] run would produce, because each request's
    /// fresh identifiers derive only from its own document and update.
    /// A failing request reports its own error without disturbing the
    /// rest of the batch.
    ///
    /// `jobs` is clamped to `1..=requests.len()`; `jobs <= 1` runs inline
    /// on the calling thread with no pool at all.
    pub fn propagate_batch(
        &self,
        requests: &[(DocTree, Script)],
        jobs: usize,
    ) -> Vec<Result<Propagation, PropagateError>> {
        // Each worker owns one `PropScratch`, reused across every request
        // it serves — scratch is pure working memory, so reuse cannot leak
        // state between requests (or change any result). With the memo on,
        // each request gets a table of its own, which ends with it, and
        // clean nodes are counted through it as in `Session::propagate`:
        // every propagation is byte-identical to the memo-off run. A batch
        // request keeps no phase clock.
        let one = |(doc, update): &(DocTree, Script), scratch: &mut PropScratch| {
            let inst = self.instance(doc, update)?;
            let mut table = self.memo_for(doc);
            propagate_with_memo(
                &inst,
                &self.cost_model(),
                self.config(),
                table.as_mut(),
                scratch,
                &mut PhaseBreakdown::default(),
            )
        };
        let jobs = jobs.clamp(1, requests.len().max(1));
        if jobs <= 1 {
            let mut scratch = PropScratch::new();
            return requests.iter().map(|r| one(r, &mut scratch)).collect();
        }
        let next = AtomicUsize::new(0);
        let mut slots: Vec<Option<Result<Propagation, PropagateError>>> = Vec::new();
        slots.resize_with(requests.len(), || None);
        std::thread::scope(|scope| {
            let workers: Vec<_> = (0..jobs)
                .map(|_| {
                    // Workers pull the next unclaimed request index off a
                    // shared atomic counter (work stealing without a
                    // queue) and buffer `(index, result)` locally; the
                    // engine itself is shared by plain `&self`.
                    scope.spawn(|| {
                        let mut served = Vec::new();
                        let mut scratch = PropScratch::new();
                        loop {
                            let i = next.fetch_add(1, Ordering::Relaxed);
                            let Some(req) = requests.get(i) else { break };
                            served.push((i, one(req, &mut scratch)));
                        }
                        served
                    })
                })
                .collect();
            for w in workers {
                for (i, result) in w.join().expect("batch worker panicked") {
                    slots[i] = Some(result);
                }
            }
        });
        slots
            .into_iter()
            .map(|r| r.expect("every request index was claimed by exactly one worker"))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixtures;
    use xvu_edit::script_to_term;

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
    fn batch_matches_sequential_in_order() {
        let (engine, t0, s0) = paper_engine();
        let requests: Vec<_> = (0..7).map(|_| (t0.clone(), s0.clone())).collect();
        let sequential = engine.propagate_batch(&requests, 1);
        for jobs in [2, 4, 8] {
            let parallel = engine.propagate_batch(&requests, jobs);
            assert_eq!(parallel.len(), sequential.len());
            for (p, s) in parallel.iter().zip(&sequential) {
                let (p, s) = (p.as_ref().unwrap(), s.as_ref().unwrap());
                assert_eq!(p.cost, s.cost);
                assert_eq!(
                    script_to_term(&p.script, engine.alphabet()),
                    script_to_term(&s.script, engine.alphabet())
                );
            }
        }
    }

    #[test]
    fn batch_reports_per_request_errors_in_place() {
        let (engine, t0, s0) = paper_engine();
        let fx = fixtures::paper_running_example();
        let mut alpha = fx.alpha.clone();
        let mut gen = xvu_tree::NodeIdGen::starting_at(100);
        let bad_doc =
            xvu_tree::parse_term_with_ids(&mut alpha, &mut gen, "r#100(a#101, b#102)").unwrap();
        let requests = vec![
            (t0.clone(), s0.clone()),
            (bad_doc, s0.clone()),
            (t0.clone(), s0.clone()),
        ];
        let results = engine.propagate_batch(&requests, 3);
        assert_eq!(results[0].as_ref().unwrap().cost, 14);
        assert!(matches!(results[1], Err(PropagateError::SourceNotValid(_))));
        assert_eq!(results[2].as_ref().unwrap().cost, 14);
    }

    #[test]
    fn empty_batch_is_empty() {
        let (engine, _, _) = paper_engine();
        assert!(engine.propagate_batch(&[], 8).is_empty());
    }
}
