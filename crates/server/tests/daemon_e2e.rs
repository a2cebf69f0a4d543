//! End-to-end daemon tests over real TCP: full document lifecycle,
//! error replies that keep the connection alive, drain-on-shutdown, and
//! how fast a new connection is taken on.

use std::net::{TcpListener, TcpStream};
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc;
use std::time::{Duration, Instant};
use xvu_dtd::parse_dtd;
use xvu_propagate::Engine;
use xvu_server::{Client, ClientError, Server, ServerConfig, ServerReport};
use xvu_tree::Alphabet;
use xvu_view::parse_annotation;

/// DTD `r -> (a.h?)*` with `h` hidden: view of `r(a, h)` is `r(a)`.
fn engine() -> Engine {
    let mut alpha = Alphabet::new();
    let dtd = parse_dtd(&mut alpha, "r -> (a.h?)*").unwrap();
    let ann = parse_annotation(&mut alpha, "hide r h").unwrap();
    Engine::builder()
        .alphabet(alpha)
        .dtd(dtd)
        .annotation(ann)
        .build()
        .unwrap()
}

fn small_config() -> ServerConfig {
    ServerConfig {
        workers: 2,
        queue_capacity: 4,
        pool_capacity: 1,
        retry_after_ms: 1,
    }
}

/// Serves `server` on a fresh loopback listener while `client` runs with
/// its address, and returns the daemon's final report. The client ends by
/// sending `shutdown`. If it panics instead — a failed assertion — the
/// daemon is told to stop before the panic is raised again, so the test
/// fails at once instead of waiting forever for a daemon nobody stops.
fn serve_while(server: &Server<'_>, client: impl FnOnce(&str)) -> ServerReport {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap().to_string();
    std::thread::scope(|scope| {
        let daemon = scope.spawn(|| server.serve_listener(listener).unwrap());
        if let Err(panic) = catch_unwind(AssertUnwindSafe(|| client(&addr))) {
            server.request_shutdown();
            let _ = daemon.join();
            resume_unwind(panic);
        }
        daemon.join().unwrap()
    })
}

#[test]
fn daemon_serves_a_full_document_lifecycle_over_tcp() {
    let engines = [engine()];
    let server = Server::new(&engines, small_config());
    let report = serve_while(&server, |addr| {
        let mut c = Client::connect(addr).unwrap();
        c.load(7, 0, "r#0(a#1, h#2)").unwrap();
        assert_eq!(c.open(7).unwrap(), "r#0(a#1)");

        // insert a view node; the propagation must also insert in the source
        let reply = c.propagate(7, "nop:r#0(nop:a#1, ins:a#5)").unwrap();
        assert!(reply.cost > 0, "insertion has positive cost");
        assert!(reply.count >= 1);
        assert!(reply.script.contains("ins:a"), "got {}", reply.script);

        // the read-only verbs agree with the propagate fingerprint
        assert_eq!(
            c.count(7, "nop:r#0(nop:a#1, ins:a#5)").unwrap(),
            reply.count
        );
        c.verify(7, "nop:r#0(nop:a#1, ins:a#5)", &reply.script)
            .unwrap();

        c.commit(7).unwrap();
        // after commit the update is already applied: reopening shows both a's
        c.close_doc(7).unwrap();
        let view = c.open(7).unwrap();
        assert_eq!(view.matches('a').count(), 2, "committed view: {view}");

        let stats = c.stats().unwrap();
        assert!(stats.contains("\"propagate\":1"), "{stats}");
        assert!(stats.contains("\"write_latency\""), "{stats}");

        let finale = c.shutdown().unwrap();
        assert!(finale.contains("\"requests\""), "{finale}");
    });
    assert!(report.drained_clean);
    assert!(report.stats.total_requests() >= 9);
}

#[test]
fn error_replies_keep_the_connection_usable() {
    let engines = [engine()];
    let server = Server::new(&engines, small_config());
    let report = serve_while(&server, |addr| {
        let mut c = Client::connect(addr).unwrap();
        // every malformed or out-of-contract request earns a typed error…
        assert!(
            matches!(c.open(99), Err(ClientError::Server(_))),
            "unknown doc"
        );
        assert!(
            matches!(c.load(1, 5, "r#0"), Err(ClientError::Server(_))),
            "family out of range"
        );
        assert!(
            matches!(c.load(1, 0, "r#0(zebra#1)"), Err(ClientError::Server(_))),
            "label outside the family alphabet"
        );
        assert!(
            matches!(c.load(1, 0, "r#0(h#1)"), Err(ClientError::Server(_))),
            "document violates the DTD"
        );
        assert!(
            matches!(c.commit(1), Err(ClientError::Server(_))),
            "nothing pending"
        );

        // …and the same connection still serves valid requests afterwards
        c.load(1, 0, "r#0(a#1)").unwrap();
        assert_eq!(c.open(1).unwrap(), "r#0(a#1)");
        assert!(
            matches!(
                c.propagate(1, "nop:r#0(del:a#1, what"),
                Err(ClientError::Server(_))
            ),
            "bad script term"
        );
        let reply = c.propagate(1, "nop:r#0(nop:a#1)").unwrap();
        assert_eq!(reply.cost, 0, "identity update costs nothing");

        c.shutdown().unwrap();
    });
    assert!(report.drained_clean);
    assert!(report.stats.errors >= 6);
}

#[test]
fn lru_pool_of_one_evicts_transparently_between_documents() {
    // pool capacity 1 forces an eviction on every document switch; the
    // replies must be indistinguishable from a large pool
    let engines = [engine()];
    let server = Server::new(&engines, small_config());
    let report = serve_while(&server, |addr| {
        let mut c = Client::connect(addr).unwrap();
        c.load(1, 0, "r#0(a#1, h#2)").unwrap();
        c.load(2, 0, "r#0(a#1)").unwrap();
        for round in 0..3 {
            // alternating documents evicts the other session each time
            let r1 = c.propagate(1, "nop:r#0(nop:a#1, ins:a#9)").unwrap();
            assert!(r1.cost > 0, "round {round}");
            let r2 = c.propagate(2, "nop:r#0(nop:a#1)").unwrap();
            assert_eq!(r2.cost, 0, "round {round}");
        }
        c.shutdown().unwrap();
    });
    assert!(
        report.stats.evictions >= 4,
        "expected steady eviction churn, saw {}",
        report.stats.evictions
    );
    assert!(report.drained_clean);
}

#[test]
fn an_evicted_session_takes_its_memo_with_it() {
    // Pool capacity 1: every document switch evicts the resident session,
    // and its memo goes with it. The second document has the same shape
    // under different identifiers, but its session counts it in a memo of
    // its own, and coming back to doc 1 after its eviction counts doc 1
    // again; the replies do not change.
    let engines = [engine()];
    let server = Server::new(&engines, small_config());
    let report = serve_while(&server, |addr| {
        let mut c = Client::connect(addr).unwrap();
        c.load(1, 0, "r#0(a#1, h#2, a#3)").unwrap();
        c.load(2, 0, "r#10(a#11, h#12, a#13)").unwrap();
        // doc 1's identity update looks up its clean root and misses,
        // filling r(a,h,a) and a (a#3 finds a#1's count); checking out
        // doc 2 evicts doc 1's session
        assert_eq!(c.propagate(1, "nop:r#0(nop:a#1, nop:a#3)").unwrap().cost, 0);
        assert_eq!(
            c.propagate(2, "nop:r#10(nop:a#11, nop:a#13)").unwrap().cost,
            0
        );
        assert_eq!(c.propagate(1, "nop:r#0(nop:a#1, nop:a#3)").unwrap().cost, 0);
        // three root lookups, each by a fresh session: all miss, and only
        // the resident session's two entries are held
        let stats = c.stats().unwrap();
        assert!(
            stats.contains("\"cache\":{\"hits\":0,\"misses\":3,\"entries\":2,"),
            "{stats}"
        );
        assert!(!stats.contains("shared"), "one memo tier: {stats}");
        c.close_doc(1).unwrap();
        c.close_doc(2).unwrap();
        let stats = c.stats().unwrap();
        assert!(stats.contains("\"entries\":0,"), "{stats}");
        c.shutdown().unwrap();
    });
    assert!(report.drained_clean);
    assert!(report.stats.evictions >= 2, "{:?}", report.stats.evictions);
    assert_eq!(report.stats.cache.hits, 0, "{:?}", report.stats.cache);
}

#[test]
fn concurrent_eviction_write_back_never_resurrects_stale_state() {
    // Regression test for the store↔pool coherence race: with a pool of
    // one, every checkout evicts the *other* client's document, so the
    // window between "session removed from the pool" and "write-back
    // lands in the store" is exercised on nearly every request. A stale
    // reopen shows up as `In(S) differs from the view` on the very next
    // propagate, or as a lost committed insert in the final view.
    let engines = [engine()];
    let server = Server::new(
        &engines,
        ServerConfig {
            workers: 2,
            queue_capacity: 8,
            pool_capacity: 1,
            retry_after_ms: 1,
        },
    );
    const ROUNDS: usize = 12;
    // Lockstep: a client starts round r only once the other has finished
    // round r-1, so the two clients overlap and the pool of one churns at
    // least once per round whatever the scheduler does. The requests
    // inside a round still race freely. A client that panicked stops
    // counting; the deadline turns the wait into a failure, not a hang.
    let done = [AtomicUsize::new(0), AtomicUsize::new(0)];
    let report = serve_while(&server, |addr| {
        {
            let mut c = Client::connect(addr).unwrap();
            c.load(1, 0, "r#0(a#1, h#2)").unwrap();
            c.load(2, 0, "r#0(a#1)").unwrap();
        }
        let worker = |doc: u64| {
            let (mine, other) = (&done[doc as usize - 1], &done[2 - doc as usize]);
            move || {
                let mut c = Client::connect(addr).unwrap();
                for round in 0..ROUNDS {
                    let deadline = Instant::now() + Duration::from_secs(30);
                    while other.load(Ordering::Acquire) < round {
                        assert!(
                            Instant::now() < deadline,
                            "doc {doc}: the other client stalled before round {round}"
                        );
                        std::thread::sleep(Duration::from_millis(1));
                    }
                    // read the live view and grow it by one fresh `a`
                    let view = c.open(doc).unwrap();
                    let children = view
                        .strip_prefix("r#0(")
                        .and_then(|v| v.strip_suffix(')'))
                        .unwrap_or_else(|| panic!("doc {doc} view {view}"));
                    let mut update = String::from("nop:r#0(");
                    for child in children.split(", ") {
                        update.push_str("nop:");
                        update.push_str(child);
                        update.push_str(", ");
                    }
                    update.push_str(&format!("ins:a#{})", 1000 + doc * 500 + round as u64));
                    let reply = c.propagate(doc, &update).unwrap_or_else(|e| {
                        panic!("doc {doc} round {round}: stale session state: {e}")
                    });
                    assert!(reply.cost > 0, "doc {doc} round {round}");
                    c.commit(doc).unwrap();
                    mine.fetch_add(1, Ordering::Release);
                }
            }
        };
        // a panicking client panics this scope, and `serve_while` stops
        // the daemon
        std::thread::scope(|clients| {
            clients.spawn(worker(1));
            clients.spawn(worker(2));
        });

        // every committed insert survived the eviction churn
        let mut c = Client::connect(addr).unwrap();
        for (doc, seed_a) in [(1u64, 1), (2u64, 1)] {
            let view = c.open(doc).unwrap();
            assert_eq!(
                view.matches('a').count(),
                seed_a + ROUNDS,
                "doc {doc} lost commits: {view}"
            );
        }
        c.shutdown().unwrap();
    });
    assert!(report.drained_clean);
    assert!(
        report.stats.evictions >= ROUNDS as u64,
        "pool of one under two clients must churn: {} evictions",
        report.stats.evictions
    );
}

#[test]
fn a_load_frame_holding_a_10k_level_chain_is_served() {
    // A family whose `a` chain hides a `b` under each `a`; one `load`
    // frame of about 30 KB holds a chain 10,000 levels deep. The daemon
    // parses, validates and stores it, opens it, propagates and commits
    // an insert at the bottom — whose skeleton is the whole spine —
    // propagates an insert of another 10,000-level chain there, and keeps
    // serving.
    let mut alpha = Alphabet::new();
    let dtd = parse_dtd(&mut alpha, "r -> a?\na -> a?.b?").unwrap();
    let ann = parse_annotation(&mut alpha, "hide a b").unwrap();
    let engines = [Engine::builder()
        .alphabet(alpha)
        .dtd(dtd)
        .annotation(ann)
        .build()
        .unwrap()];
    let server = Server::new(&engines, small_config());
    const DEPTH: usize = 10_000;
    let chain = format!("r({}b{})", "a(".repeat(DEPTH), ")".repeat(DEPTH));
    assert!((29_000..31_000).contains(&chain.len()), "{}", chain.len());
    let report = serve_while(&server, |addr| {
        let mut c = Client::connect(addr).unwrap();
        c.load(1, 0, &chain).unwrap();
        let view = c.open(1).unwrap();
        assert_eq!(
            view.matches("a#").count(),
            DEPTH,
            "the view is the `a` spine"
        );
        assert!(!view.contains('b'), "b is hidden");
        // the view as an identity script, plus a fresh `a` under the
        // deepest `a` (a leaf of the view: its `b` is hidden)
        let mut update = view.replace("a#", "nop:a#").replacen("r#", "nop:r#", 1);
        let deepest = update.rfind("nop:a#").unwrap() + "nop:a#".len();
        let id_end = deepest + update[deepest..].find(')').unwrap();
        update.insert_str(id_end, "(ins:a#999999)");
        let reply = c.propagate(1, &update).unwrap();
        assert_eq!((reply.cost, reply.count), (1, 1));
        c.commit(1).unwrap();
        let view = c.open(1).unwrap();
        assert_eq!(view.matches("a#").count(), DEPTH + 1);
        // one `propagate` frame inserting a chain of DEPTH more `a`s under
        // the new bottom `a`: the inserted fragment is inverted, counted
        // and printed level by level
        let mut update = view.replace("a#", "nop:a#").replacen("r#", "nop:r#", 1);
        let bottom = update.find("nop:a#999999").unwrap() + "nop:a#999999".len();
        let mut chain = String::from("(");
        for i in 0..DEPTH {
            let sep = if i + 1 < DEPTH { "(" } else { "" };
            chain.push_str(&format!("ins:a#{}{sep}", 2_000_000 + i));
        }
        chain.push_str(&")".repeat(DEPTH));
        update.insert_str(bottom, &chain);
        let reply = c.propagate(1, &update).unwrap();
        assert_eq!((reply.cost, reply.count), (DEPTH as u64, 1));
        let stats = c.stats().unwrap();
        assert!(stats.contains("\"load\":1"), "{stats}");
        c.shutdown().unwrap();
    });
    assert!(report.drained_clean);
    assert_eq!(report.stats.errors, 0);
}

/// Serves `server` on a listener bound to `bind`, runs `stop` with a
/// loopback address of the listener, and returns how long
/// `serve_listener` took to return after `stop` did. Fails, rather than
/// hangs, if it has not returned 5 s later.
fn time_to_return(server: &Server<'_>, bind: &str, stop: impl FnOnce(&str)) -> Duration {
    let listener = TcpListener::bind(bind).unwrap();
    let addr = format!("127.0.0.1:{}", listener.local_addr().unwrap().port());
    std::thread::scope(|scope| {
        let (returned, wait) = mpsc::channel();
        let daemon = scope.spawn(move || {
            let report = server.serve_listener(listener);
            returned.send(()).unwrap();
            report
        });
        stop(&addr);
        let stopped = Instant::now();
        let on_time = wait.recv_timeout(Duration::from_secs(5)).is_ok();
        let took = stopped.elapsed();
        if !on_time {
            // wake the loop by hand, so the test fails instead of hanging
            let _ = TcpStream::connect(&addr);
        }
        let report = daemon.join().unwrap().unwrap();
        assert!(
            on_time,
            "serve_listener on {bind} still running 5 s after the drain"
        );
        assert!(report.drained_clean);
        took
    })
}

#[test]
fn the_accept_loop_returns_promptly_after_every_kind_of_drain() {
    // the `shutdown` verb, `request_shutdown` while the loop waits in
    // `accept`, `request_shutdown` before the loop starts, and ten racing
    // its start; on a loopback and on an unspecified address
    let engines = [engine()];
    let daemon = || Server::new(&engines, small_config());
    for bind in ["127.0.0.1:0", "0.0.0.0:0"] {
        let mut took = vec![time_to_return(&daemon(), bind, |addr| {
            Client::connect(addr).unwrap().shutdown().unwrap();
        })];
        let server = daemon();
        took.push(time_to_return(&server, bind, |addr| {
            // a served connection shows the loop is up
            drop(Client::connect(addr).unwrap());
            server.request_shutdown();
        }));
        let server = daemon();
        server.request_shutdown();
        took.push(time_to_return(&server, bind, |_| {}));
        for _ in 0..10 {
            let server = daemon();
            took.push(time_to_return(&server, bind, |_| server.request_shutdown()));
        }
        // a drain shuts every open connection down for reading, so no
        // connection's thread keeps the loop waiting
        let slowest = took.iter().max().unwrap();
        assert!(*slowest < Duration::from_secs(1), "{bind}: {took:?}");
    }
}

#[test]
fn a_new_connection_is_answered_within_a_round_trip() {
    // 40 sequential connect + `hello` round trips to an idle daemon: the
    // acceptor takes each connection on as it arrives, so none waits for
    // a polling interval. A polling acceptor makes nearly every one wait
    // its whole sleep (about 2 ms at 2 ms), so even the lower quartile
    // shows it, while a busy host's scheduling delays, which inflate some
    // round trips, leave the lower quartile alone.
    let engines = [engine()];
    let server = Server::new(&engines, small_config());
    let mut took = Vec::new();
    let report = serve_while(&server, |addr| {
        drop(Client::connect(addr).unwrap());
        for _ in 0..40 {
            let start = Instant::now();
            let client = Client::connect(addr).unwrap();
            took.push(start.elapsed());
            drop(client);
        }
        Client::connect(addr).unwrap().shutdown().unwrap();
    });
    assert!(report.drained_clean);
    took.sort();
    let lower_quartile = took[took.len() / 4];
    assert!(
        lower_quartile < Duration::from_millis(1),
        "connect + hello over {} connections: {took:?}",
        took.len()
    );
}

#[test]
fn an_exhausted_identifier_space_is_a_typed_error() {
    // A document using identifier `NodeId::MAX` leaves its session's
    // generator exhausted; an insert whose new `a` must be padded with a
    // hidden `b` then has no identifier to give the `b`.
    let mut alpha = Alphabet::new();
    let dtd = parse_dtd(&mut alpha, "r -> a*\na -> b").unwrap();
    let ann = parse_annotation(&mut alpha, "hide a b").unwrap();
    let engines = [Engine::builder()
        .alphabet(alpha)
        .dtd(dtd)
        .annotation(ann)
        .build()
        .unwrap()];
    let server = Server::new(&engines, small_config());
    let mut shutdown_sent = None;
    let report = serve_while(&server, |addr| {
        let mut c = Client::connect(addr).unwrap();
        c.load(1, 0, "r#0(a#18446744073709551614(b#1))").unwrap();
        let err = c
            .propagate(1, "nop:r#0(nop:a#18446744073709551614, ins:a#2)")
            .unwrap_err();
        assert!(
            matches!(&err, ClientError::Server(m) if m.ends_with("exhausted: 1 fresh identifiers needed, 0 left")),
            "{err:?}"
        );
        // another document is still served
        c.load(2, 0, "r#0(a#1(b#2))").unwrap();
        let reply = c.propagate(2, "nop:r#0(nop:a#1, ins:a#3)").unwrap();
        assert_eq!((reply.cost, reply.count), (2, 1));
        c.commit(2).unwrap();
        assert_eq!(c.open(2).unwrap(), "r#0(a#1, a#3)");
        shutdown_sent = Some(Instant::now());
        c.shutdown().unwrap();
    });
    let drain = shutdown_sent.unwrap().elapsed();
    assert!(report.drained_clean);
    assert!(drain < Duration::from_millis(500), "drain took {drain:?}");
    assert_eq!((report.stats.errors, report.stats.panics), (1, 0));
}

#[test]
fn frames_that_exhaust_the_identifier_space_get_typed_errors() {
    // `#18446744073709551614` is `NodeId::MAX`: it leaves the reader no
    // identifier for the node after it, in a document and in an update.
    let engines = [engine()];
    let server = Server::new(&engines, small_config());
    let report = serve_while(&server, |addr| {
        let mut c = Client::connect(addr).unwrap();
        c.load(1, 0, "r#0(a#1)").unwrap();
        let exhausted = |err: &ClientError| matches!(err, ClientError::Server(m) if m.contains("node identifier space exhausted"));
        let err = c.load(2, 0, "r(a#18446744073709551614, a)").unwrap_err();
        assert!(exhausted(&err), "{err:?}");
        let err = c
            .propagate(1, "nop:r#0(nop:a#18446744073709551614, ins:a)")
            .unwrap_err();
        assert!(exhausted(&err), "{err:?}");
        // the other document is still served
        let reply = c.propagate(1, "nop:r#0(nop:a#1, ins:a#2)").unwrap();
        assert_eq!(reply.cost, 1);
        c.commit(1).unwrap();
        assert_eq!(c.open(1).unwrap(), "r#0(a#1, a#2)");
        c.shutdown().unwrap();
    });
    assert!(report.drained_clean);
    assert_eq!((report.stats.errors, report.stats.panics), (2, 0));
}
