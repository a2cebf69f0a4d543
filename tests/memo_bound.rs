//! Memo memory stays bounded: each session's memo is swept to the shapes
//! its document names, and it dies with the session.
//!
//! Three shapes grew the memo without bound while one table served every
//! session of an engine: an alternating `a`/`b` star whose edits insert a
//! node at a new position and then delete it, bottom inserts into a chain
//! (each gives every level a new shape), and daemon `load`/`open`/`close`
//! churn over many distinct documents. Here, after every commit, the
//! entries a session holds stay within twice its document's distinct
//! shapes plus the sweep floor, every edit is byte-identical with the
//! memo off, and once the sessions are gone the engines hold no entries.
//!
//! The full-size soak runs in release with `-- --ignored`: 20,000 star
//! edits at 5,000 children and 50 bottom inserts into a 10,000-level
//! chain, once with the memo off and once with it on. After warm-up, the
//! memo-on run's RSS may grow by at most [`SOAK_ALLOWANCE_MB`] more than
//! the memo-off run's.

use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};
use std::net::TcpListener;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use xml_view_update::prelude::*;
use xml_view_update::propagate::cache::SWEEP_FLOOR;
use xml_view_update::server::{Client, Server, ServerConfig};

/// How much more the memo-on soak's RSS may grow after warm-up than the
/// memo-off soak's.
const SOAK_ALLOWANCE_MB: f64 = 24.0;

/// The number of distinct subtree shapes of `doc`.
fn distinct_shapes(doc: &DocTree) -> usize {
    let mut interner = Interner::new();
    interner.intern_doc(doc);
    interner.len()
}

/// The memo-on and memo-off engines of one family.
fn engines(dtd: &str, ann: &str) -> (Engine, Engine, Alphabet) {
    let mut alpha = Alphabet::new();
    let dtd = parse_dtd(&mut alpha, dtd).unwrap();
    let ann = parse_annotation(&mut alpha, ann).unwrap();
    let build = |memo| {
        Engine::builder()
            .alphabet(alpha.clone())
            .dtd(dtd.clone())
            .annotation(ann.clone())
            .prop_cache(memo)
            .build()
            .unwrap()
    };
    (build(true), build(false), alpha)
}

/// `r → (a+b)*` with a root of `children` alternating `a`/`b` leaves.
fn star(children: usize) -> (Engine, Engine, DocTree) {
    let (on, off, alpha) = engines("r -> (a+b)*", "");
    let (a, b) = (alpha.get("a").unwrap(), alpha.get("b").unwrap());
    let mut gen = NodeIdGen::new();
    let mut doc = DocTree::leaf(&mut gen, alpha.get("r").unwrap());
    let root = doc.root();
    for i in 0..children {
        doc.add_child(root, &mut gen, if i % 2 == 0 { a } else { b });
    }
    (on, off, doc)
}

/// Edit `step` of the star stream: even steps insert a leaf, odd steps
/// delete it again. The inserts walk the even positions, `a`s on one lap
/// and `b`s on the next, so each gives the root a shape the lap has not
/// seen: an `a` doubles the `a` at its position, a `b` the `b` before it.
fn star_edit(session: &Session<'_>, step: usize) -> Script {
    let (view, alpha) = (session.view(), session.engine().alphabet());
    let root = view.root();
    let children = view.children(root).len() - step % 2;
    let (k, slots) = (step / 2, children / 2 + 1);
    let at = 2 * (k % slots);
    let mut update = UpdateBuilder::new(view);
    if step % 2 == 1 {
        update.delete(view.children(root)[at]).unwrap();
    } else {
        let label = alpha.get(if k / slots % 2 == 0 { "a" } else { "b" });
        let leaf = DocTree::leaf_with_id(session.id_gen().fresh(), label.unwrap());
        update.insert(root, at, leaf).unwrap();
    }
    update.finish()
}

/// `r → a?`, `a → a?·b?`, `hide a b`: a chain of `levels` `a`s over one
/// hidden `b`.
fn chain(levels: usize) -> (Engine, Engine, DocTree) {
    let (on, off, alpha) = engines("r -> a?\na -> a?.b?", "hide a b");
    let a = alpha.get("a").unwrap();
    let mut gen = NodeIdGen::new();
    let mut doc = DocTree::leaf(&mut gen, alpha.get("r").unwrap());
    let mut bottom = doc.root();
    for _ in 0..levels {
        bottom = doc.add_child(bottom, &mut gen, a);
    }
    doc.add_child(bottom, &mut gen, alpha.get("b").unwrap());
    (on, off, doc)
}

/// An insert of one `a` under the deepest `a` of the view.
fn chain_edit(session: &Session<'_>) -> Script {
    let view = session.view();
    let mut bottom = view.root();
    while let Some(&c) = view.children(bottom).first() {
        bottom = c;
    }
    let a = session.engine().alphabet().get("a").unwrap();
    let mut update = nop_script(view);
    let fresh = session.id_gen().fresh();
    update
        .add_child_with_id(bottom, fresh, ELabel::ins(a))
        .unwrap();
    update
}

/// A propagation's cost and script term, hashed.
fn fingerprint(prop: &Propagation, alpha: &Alphabet) -> u64 {
    let mut h = DefaultHasher::new();
    (prop.cost, script_to_term(&prop.script, alpha)).hash(&mut h);
    h.finish()
}

/// Runs `edits` edits through a memo-on and a memo-off session of `doc`
/// in lock-step, checking after every commit that the two agree and that
/// the memo-on session holds at most twice its document's distinct shapes
/// plus the sweep floor. Returns the sweeps the memo-on engine ran, after
/// checking that dropping the sessions freed every entry.
fn lock_step(
    (on, off): (&Engine, &Engine),
    doc: &DocTree,
    edits: usize,
    edit: impl Fn(&Session<'_>, usize) -> Script,
) -> u64 {
    let alpha = on.alphabet();
    let mut memo = on.open(doc).unwrap();
    let mut plain = off.open(doc).unwrap();
    for step in 0..edits {
        let update = edit(&memo, step);
        let (p, q) = (
            memo.propagate(&update).unwrap(),
            plain.propagate(&update).unwrap(),
        );
        assert_eq!(
            fingerprint(&p, alpha),
            fingerprint(&q, alpha),
            "step {step}"
        );
        memo.commit(&p).unwrap();
        plain.commit(&q).unwrap();
        assert_eq!(memo.document(), plain.document(), "step {step}");
        let bound = 2 * distinct_shapes(memo.document()) + SWEEP_FLOOR;
        let entries = on.cache_stats().entries;
        assert!(entries <= bound, "step {step}: {entries} entries > {bound}");
    }
    assert_eq!(off.cache_stats(), CacheStats::default());
    drop(memo);
    let stats = on.cache_stats();
    assert_eq!(stats.entries, 0, "the memo died with its session");
    stats.sweeps
}

#[test]
fn an_alternating_star_keeps_its_memo_bounded() {
    // More children than SWEEP_FLOOR give as many distinct root shapes,
    // one per insert, so the inserts outgrow the floor and a commit sweeps.
    let (on, off, doc) = star(SWEEP_FLOOR + 32);
    let sweeps = lock_step((&on, &off), &doc, 2 * SWEEP_FLOOR + 64, star_edit);
    assert!(sweeps >= 1, "{sweeps} sweeps");
}

#[test]
fn bottom_inserts_into_a_chain_keep_its_memo_bounded() {
    let (on, off, doc) = chain(100);
    let sweeps = lock_step((&on, &off), &doc, 30, |s, _| chain_edit(s));
    assert!(sweeps >= 5, "{sweeps} sweeps");
}

#[test]
fn daemon_churn_over_distinct_documents_frees_every_memo() {
    // 120 distinct stars, each loaded, opened, edited, committed and
    // closed in turn through the daemon. Every reply equals a memo-off
    // session's; after each commit the one open session holds at most
    // twice its document's distinct shapes plus the floor, and after
    // each close the family holds no entry.
    let (on, off, _) = engines("r -> (a+b)*", "");
    let engines = [on];
    let alpha = engines[0].alphabet().clone();
    let server = Server::new(
        &engines,
        ServerConfig {
            pool_capacity: 4,
            ..ServerConfig::default()
        },
    );
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap().to_string();
    std::thread::scope(|scope| {
        let daemon = scope.spawn(|| server.serve_listener(listener).unwrap());
        // a failed assertion stops the daemon before it is raised again
        let churn = catch_unwind(AssertUnwindSafe(|| {
            let mut c = Client::connect(&addr).unwrap();
            for d in 0..120u64 {
                let kids: Vec<String> = (0..7 + d % 3)
                    .map(|j| format!("{}#{}", if d >> j & 1 == 1 { "b" } else { "a" }, j + 1))
                    .collect();
                let term = format!("r#0({})", kids.join(", "));
                let update = format!("nop:r#0(nop:{}, ins:a#100)", kids.join(", nop:"));
                c.load(d, 0, &term).unwrap();
                c.open(d).unwrap();
                let reply = c.propagate(d, &update).unwrap();
                let mut scratch = alpha.clone();
                let doc = parse_term_with_ids(&mut scratch, &mut NodeIdGen::new(), &term).unwrap();
                let plain = off.open(&doc).unwrap();
                let expected = plain
                    .propagate(&parse_script(&mut scratch, &update).unwrap())
                    .unwrap();
                assert_eq!(reply.cost, expected.cost, "document {d}");
                assert_eq!(
                    reply.script,
                    script_to_term(&expected.script, &alpha),
                    "document {d}"
                );
                c.commit(d).unwrap();
                let bound =
                    2 * distinct_shapes(&output_tree(&expected.script).unwrap()) + SWEEP_FLOOR;
                let entries = server.stats_snapshot().cache.entries;
                assert!(entries <= bound, "document {d}: {entries} > {bound}");
                c.close_doc(d).unwrap();
                assert_eq!(server.stats_snapshot().cache.entries, 0, "document {d}");
            }
            c.shutdown().unwrap();
        }));
        if churn.is_err() {
            server.request_shutdown();
        }
        daemon.join().unwrap();
        if let Err(panic) = churn {
            resume_unwind(panic);
        }
    });
    assert_eq!(engines[0].cache_stats().entries, 0);
}

/// The resident set of this process, in MB (Linux).
fn rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("/proc/self/status");
    let line = status
        .lines()
        .find(|l| l.starts_with("VmRSS:"))
        .expect("VmRSS");
    let kb: f64 = line.split_whitespace().nth(1).unwrap().parse().unwrap();
    kb / 1024.0
}

/// One soak arm: `edits` edits through a session of `engine`, returning
/// every edit's fingerprint and the RSS growth (MB) from the end of
/// `warmup` edits to the highest reading after it (read every 50 edits).
fn soak(
    engine: &Engine,
    doc: &DocTree,
    edits: usize,
    warmup: usize,
    edit: impl Fn(&Session<'_>, usize) -> Script,
) -> (Vec<u64>, f64) {
    let mut session = engine.open(doc).unwrap();
    let (mut prints, mut base, mut peak) = (Vec::with_capacity(edits), 0.0, 0.0f64);
    for step in 0..edits {
        let update = edit(&session, step);
        let prop = session.propagate(&update).unwrap();
        prints.push(fingerprint(&prop, engine.alphabet()));
        session.commit(&prop).unwrap();
        if step + 1 == warmup {
            base = rss_mb();
        } else if step >= warmup && (step % 50 == 0 || step + 1 == edits) {
            peak = peak.max(rss_mb());
        }
    }
    (prints, (peak - base).max(0.0))
}

/// Both soak arms of one shape: memo off, then memo on. Asserts that they
/// agree on every edit and that the memo-on growth stays within the
/// allowance of the memo-off growth.
fn soak_both(
    name: &str,
    (on, off): (&Engine, &Engine),
    doc: &DocTree,
    edits: usize,
    warmup: usize,
    edit: impl Fn(&Session<'_>, usize) -> Script,
) {
    let (plain, off_growth) = soak(off, doc, edits, warmup, &edit);
    let (memo, on_growth) = soak(on, doc, edits, warmup, &edit);
    let stats = on.cache_stats();
    eprintln!(
        "{name}: RSS growth after {warmup} warm-up edits: memo off {off_growth:.1} MB, \
         memo on {on_growth:.1} MB ({} sweeps, RSS now {:.1} MB)",
        stats.sweeps,
        rss_mb()
    );
    assert!(
        plain == memo,
        "{name}: memo-on and memo-off propagations differ"
    );
    assert!(
        on_growth <= off_growth + SOAK_ALLOWANCE_MB,
        "{name}: memo on grew {on_growth:.1} MB, memo off {off_growth:.1} MB"
    );
}

#[test]
#[ignore = "full-size soak: run in release with -- --ignored"]
fn full_size_soak_keeps_rss_within_a_bound_of_the_memo_off_run() {
    let (on, off, doc) = star(5_000);
    let star_arms = (&on, &off);
    soak_both(
        "star, 5,000 children",
        star_arms,
        &doc,
        20_000,
        1_000,
        star_edit,
    );
    let (on, off, doc) = chain(10_000);
    let chain_arms = (&on, &off);
    soak_both("chain, 10,000 levels", chain_arms, &doc, 50, 5, |s, _| {
        chain_edit(s)
    });
}
