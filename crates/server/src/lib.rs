//! `xvu_server` — a long-lived serving daemon for the XML view-update
//! engine.
//!
//! The library crates answer one propagation question at a time; this
//! crate keeps the engine warm across many documents and many clients:
//!
//! * [`protocol`] — a versioned, length-prefixed frame protocol
//!   (`hello`/`load`/`open`/`propagate`/`verify`/`count`/`commit`/
//!   `close`/`stats`/`shutdown`) with typed, non-panicking decode
//!   errors;
//! * [`transport`] — TCP sockets and stdio pipes behind one
//!   [`Transport`] trait;
//! * [`daemon`] — the [`Server`]: one document table, an accept loop
//!   that blocks in `accept` (a drain wakes it with one connection to
//!   the listener) and caps open connections at
//!   [`daemon::MAX_CONNECTIONS`], one thread per connection running each
//!   request to its reply behind an unwind boundary (a panicking request
//!   is answered `err`; a session it may have half-changed is dropped
//!   and its document must be reloaded), write admission (at most
//!   `workers` writes at once, `retry` pushback past the waiting room), a
//!   read-only path for `verify`/`count` that never waits behind writes,
//!   and graceful drain-on-shutdown. The table
//!   (crate-private module `pool`) holds each document's committed
//!   content, pending propagation and open session under one lock and
//!   one condvar: a request leases a document's session, at most
//!   `pool_capacity` sessions stay open, and evicting the least recently
//!   used idle one is a state change under that lock that keeps its
//!   document and identifier floor;
//! * [`metrics`] — latency histograms (p50/p90/p99), writes waiting for
//!   admission, admission rejects, open and refused connections, panics,
//!   and propagation-memo counters, served by the `stats` verb;
//! * [`client`] — a typed client with handshake and retry-pushback
//!   handling;
//! * [`driver`] — [`run_fleet`]: replay an [`xvu_workload::fleet`] plan
//!   against an in-process daemon and diff every reply against
//!   fingerprints recorded from direct sessions — the end-to-end
//!   determinism oracle.
//!
//! ```no_run
//! use xvu_server::{run_fleet, ServerConfig};
//! use xvu_workload::fleet::{generate_fleet, FleetConfig};
//!
//! let plan = generate_fleet(&FleetConfig::default());
//! let report = run_fleet(&plan, ServerConfig::default()).unwrap();
//! assert!(report.is_clean(), "{:?}", report.mismatches);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod client;
pub mod daemon;
pub mod driver;
pub mod metrics;
mod pool;
pub mod protocol;
#[cfg(test)]
mod serve;
pub mod transport;

pub use client::{Client, ClientError, PropagateReply};
pub use daemon::{Server, ServerConfig, ServerReport};
pub use driver::{run_fleet, run_fleet_from_corpus, run_fleet_with, CorpusMode, FleetReport};
pub use metrics::{Histogram, HistogramSnapshot, Metrics, StatsSnapshot};
pub use protocol::{
    read_frame, write_frame, Frame, ProtocolError, Recv, Verb, MAX_FRAME, PROTOCOL_VERSION,
};
pub use transport::{DuplexTransport, StreamTransport, Transport};
