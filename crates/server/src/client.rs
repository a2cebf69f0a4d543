//! A typed client for the xvu serving protocol.
//!
//! Wraps any [`Transport`] with per-verb helpers that perform the hello
//! handshake, retry `retry` pushback with the server-suggested backoff
//! (at [`Client::connect`], the connection cap's too), and turn `err`
//! frames into [`ClientError`]. Used by the fleet
//! differential driver, the `xvu client` CLI mode, and the serving
//! benchmarks.

use crate::protocol::{Frame, ProtocolError, Recv, Verb};
use crate::transport::{StreamTransport, Transport};
use std::net::TcpStream;
use std::time::Duration;

/// What a request can come back as.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ClientError {
    /// The server replied with an `err` frame.
    Server(String),
    /// Framing or transport failure.
    Protocol(ProtocolError),
    /// The connection closed before a reply arrived.
    Disconnected,
    /// The server kept pushing back past the retry budget.
    Saturated,
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Server(m) => write!(f, "server error: {m}"),
            ClientError::Protocol(e) => write!(f, "protocol error: {e}"),
            ClientError::Disconnected => write!(f, "server closed the connection"),
            ClientError::Saturated => write!(f, "server kept pushing back (retry budget spent)"),
        }
    }
}

impl std::error::Error for ClientError {}

impl From<ProtocolError> for ClientError {
    fn from(e: ProtocolError) -> ClientError {
        ClientError::Protocol(e)
    }
}

/// One reply to `propagate`: the canonical fingerprint triple.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PropagateReply {
    /// Minimal source-update cost.
    pub cost: u64,
    /// Number of cost-optimal propagations.
    pub count: u128,
    /// The chosen optimal script, rendered as a term.
    pub script: String,
}

/// How many `retry` pushbacks a client absorbs per request (and
/// [`Client::connect`] per connection) before reporting
/// [`ClientError::Saturated`].
const RETRY_BUDGET: u32 = 10_000;

/// The pause a `retry` frame's payload suggests, clamped to 1–50 ms.
fn backoff(payload: &str) -> Duration {
    let after_ms = payload.parse::<u64>().unwrap_or(1);
    Duration::from_millis(after_ms.clamp(1, 50))
}

/// What a `hello` came back as.
enum Hello<T> {
    Ready(Client<T>),
    /// The daemon is at its connection cap: it answered `retry` with this
    /// backoff and closed the connection.
    Retry(Duration),
}

/// A protocol client over any transport. Retries `retry` pushback up to
/// [`Client::retry_budget`] times before reporting
/// [`ClientError::Saturated`].
#[derive(Debug)]
pub struct Client<T> {
    transport: T,
    retry_budget: u32,
    retries: u64,
}

impl Client<StreamTransport<TcpStream>> {
    /// Connects over TCP and performs the hello handshake. A daemon at its
    /// connection cap answers `retry` and closes the connection; `connect`
    /// then connects again after the suggested backoff, and reports
    /// [`ClientError::Saturated`] once the retry budget is spent. The
    /// reconnects count in [`Client::retries`].
    pub fn connect(addr: &str) -> Result<Client<StreamTransport<TcpStream>>, ClientError> {
        let mut retries = 0;
        loop {
            let stream = TcpStream::connect(addr)
                .map_err(|e| ClientError::Protocol(ProtocolError::from(e)))?;
            let _ = stream.set_nodelay(true);
            match Client::hello(StreamTransport::new(stream))? {
                Hello::Ready(mut c) => {
                    c.retries = retries;
                    return Ok(c);
                }
                Hello::Retry(_) if retries >= u64::from(RETRY_BUDGET) => {
                    return Err(ClientError::Saturated)
                }
                Hello::Retry(pause) => {
                    retries += 1;
                    std::thread::sleep(pause);
                }
            }
        }
    }
}

impl<T: Transport> Client<T> {
    /// Wraps an already-open transport and performs the hello handshake.
    /// It cannot reconnect, so a daemon at its connection cap makes it
    /// report [`ClientError::Saturated`].
    pub fn handshake(transport: T) -> Result<Client<T>, ClientError> {
        match Client::hello(transport)? {
            Hello::Ready(c) => Ok(c),
            Hello::Retry(_) => Err(ClientError::Saturated),
        }
    }

    /// Sends `hello` over `transport`.
    fn hello(transport: T) -> Result<Hello<T>, ClientError> {
        let mut c = Client {
            transport,
            retry_budget: RETRY_BUDGET,
            retries: 0,
        };
        let reply = c.roundtrip(Frame::hello())?;
        match reply.verb {
            Verb::Ok => Ok(Hello::Ready(c)),
            Verb::Retry => Ok(Hello::Retry(backoff(&reply.payload))),
            Verb::Err => Err(ClientError::Server(reply.payload)),
            _ => Err(ClientError::Server(format!(
                "unexpected hello reply verb {}",
                reply.verb.name()
            ))),
        }
    }

    /// How many `retry` pushbacks this client absorbs per request.
    pub fn retry_budget(&self) -> u32 {
        self.retry_budget
    }

    /// Total `retry` frames absorbed so far.
    pub fn retries(&self) -> u64 {
        self.retries
    }

    /// Sends one frame and blocks for the reply.
    fn roundtrip(&mut self, frame: Frame) -> Result<Frame, ClientError> {
        self.transport.send(&frame)?;
        match self.transport.recv()? {
            Recv::Frame(reply) => Ok(reply),
            Recv::Eof => Err(ClientError::Disconnected),
        }
    }

    /// Sends a request, absorbing `retry` pushback with the
    /// server-suggested backoff.
    fn request(&mut self, verb: Verb, payload: String) -> Result<String, ClientError> {
        for _ in 0..=self.retry_budget {
            let reply = self.roundtrip(Frame::new(verb, payload.clone()))?;
            match reply.verb {
                Verb::Ok => return Ok(reply.payload),
                Verb::Err => return Err(ClientError::Server(reply.payload)),
                Verb::Retry => {
                    self.retries += 1;
                    std::thread::sleep(backoff(&reply.payload));
                }
                other => {
                    return Err(ClientError::Server(format!(
                        "unexpected reply verb {}",
                        other.name()
                    )))
                }
            }
        }
        Err(ClientError::Saturated)
    }

    /// Loads (or replaces) a document in the server's store.
    pub fn load(&mut self, doc: u64, family: usize, term: &str) -> Result<(), ClientError> {
        self.request(Verb::Load, format!("{doc}\n{family}\n{term}"))
            .map(|_| ())
    }

    /// Opens the document's session; returns the view rendered as an
    /// identifier-annotated term.
    pub fn open(&mut self, doc: u64) -> Result<String, ClientError> {
        self.request(Verb::Open, doc.to_string())
    }

    /// Propagates a view update; returns the `(cost, count, script)`
    /// fingerprint and leaves the propagation pending for `commit`.
    pub fn propagate(&mut self, doc: u64, update: &str) -> Result<PropagateReply, ClientError> {
        let payload = self.request(Verb::Propagate, format!("{doc}\n{update}"))?;
        let mut fields = payload.splitn(3, '\n');
        let (Some(cost), Some(count), Some(script)) = (fields.next(), fields.next(), fields.next())
        else {
            return Err(ClientError::Server(format!(
                "malformed propagate reply {payload:?}"
            )));
        };
        let cost = cost
            .parse::<u64>()
            .map_err(|_| ClientError::Server(format!("bad cost {cost:?}")))?;
        let count = count
            .parse::<u128>()
            .map_err(|_| ClientError::Server(format!("bad count {count:?}")))?;
        Ok(PropagateReply {
            cost,
            count,
            script: script.to_owned(),
        })
    }

    /// Verifies a candidate source script against a view update.
    pub fn verify(&mut self, doc: u64, update: &str, candidate: &str) -> Result<(), ClientError> {
        self.request(Verb::Verify, format!("{doc}\n{update}\n{candidate}"))
            .map(|_| ())
    }

    /// Counts the cost-optimal propagations of a view update.
    pub fn count(&mut self, doc: u64, update: &str) -> Result<u128, ClientError> {
        let payload = self.request(Verb::Count, format!("{doc}\n{update}"))?;
        payload
            .parse::<u128>()
            .map_err(|_| ClientError::Server(format!("bad count reply {payload:?}")))
    }

    /// Commits the pending propagation for `doc`.
    pub fn commit(&mut self, doc: u64) -> Result<(), ClientError> {
        self.request(Verb::Commit, doc.to_string()).map(|_| ())
    }

    /// Closes the document's session (write-back, fresh id history on
    /// reopen).
    pub fn close_doc(&mut self, doc: u64) -> Result<(), ClientError> {
        self.request(Verb::CloseDoc, doc.to_string()).map(|_| ())
    }

    /// Asks the server to write its committed store to `path` as a flat
    /// snapshot corpus; returns the server's `docs=… bytes=…` summary.
    pub fn snapshot(&mut self, path: &str) -> Result<String, ClientError> {
        self.request(Verb::Snapshot, path.to_owned())
    }

    /// Fetches the server's stats snapshot as JSON.
    pub fn stats(&mut self) -> Result<String, ClientError> {
        self.request(Verb::Stats, String::new())
    }

    /// Asks the server to drain and stop; returns the final stats JSON.
    pub fn shutdown(&mut self) -> Result<String, ClientError> {
        self.request(Verb::Shutdown, String::new())
    }
}
