//! Serving many users from one shared engine.
//!
//! The compiled [`Engine`] is immutable and `Send + Sync`, so a server
//! shares exactly one behind an `Arc` and fans requests across plain OS
//! threads: [`Engine::propagate_batch`] spreads a `(document, update)`
//! batch over a worker pool, and results come back in request order,
//! identical to a sequential run.
//!
//! Repeated updates per document are the daemon's job: the
//! `serving_daemon` example leases one session per document and commits
//! through it.
//!
//! Run with: `cargo run --example concurrent_serving`

use std::sync::Arc;
use xml_view_update::prelude::*;

fn main() {
    let mut alpha = Alphabet::new();
    let mut gen = NodeIdGen::new();
    let dtd = parse_dtd(&mut alpha, "r -> (a.(b+c).d)*\nd -> ((a+b).c)*").expect("DTD");
    let ann =
        parse_annotation(&mut alpha, "hide r b\nhide r c\nhide d a\nhide d b").expect("annotation");
    let t0 = parse_term_with_ids(
        &mut alpha,
        &mut gen,
        "r#0(a#1, b#2, d#3(a#7, c#8), a#4, c#5, d#6(b#9, c#10))",
    )
    .expect("document");
    let s0 = parse_script(
        &mut alpha,
        "nop:r#0(del:a#1, del:d#3(del:c#8), nop:a#4, \
         ins:d#11(ins:c#13, ins:c#14), ins:a#12, nop:d#6(nop:c#10, ins:c#15))",
    )
    .expect("update");

    // One engine for the whole process: compiled once, shared forever.
    let engine = Arc::new(
        Engine::builder()
            .alphabet(alpha)
            .dtd(dtd)
            .annotation(ann)
            .build()
            .expect("engine"),
    );

    // a batch of independent requests over 4 workers
    let requests: Vec<(DocTree, Script)> = (0..8).map(|_| (t0.clone(), s0.clone())).collect();
    let results = engine.propagate_batch(&requests, 4);
    println!("batch of {} requests on 4 worker threads:", requests.len());
    for (i, result) in results.iter().enumerate() {
        let prop = result.as_ref().expect("Theorem 5");
        println!("  request {i}: cost {}", prop.cost);
        assert_eq!(prop.cost, 14); // every result = the paper's Fig. 7 optimum
    }
}
