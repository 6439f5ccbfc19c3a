//! Wire protocol: length-prefixed JSON frames, request parsing, and
//! response encoding.
//!
//! Every message — in both directions — is one *frame*: a 4-byte
//! little-endian `u32` byte length followed by that many bytes of UTF-8
//! JSON. Frames larger than [`MAX_FRAME`] are rejected before any
//! allocation, so a hostile length prefix cannot balloon memory.
//!
//! Requests are objects with an `"op"` discriminator:
//!
//! ```json
//! {"op":"search","query":[20.0,21.0],"epsilon":1.5,"window":4}
//! {"op":"knn","query":[20.0,21.0],"k":5}
//! {"op":"batch","queries":[[1.0],[2.0]],"epsilon":0.5}
//! {"op":"explain","query":[20.0,21.0],"epsilon":1.5}
//! {"op":"ingest","version":2,"sequences":[[1.0,2.0],[3.0]]}
//! {"op":"info"}  {"op":"health"}  {"op":"stats"}  {"op":"shutdown"}
//! {"op":"slowlog","version":4}  {"op":"metrics","version":4}
//! ```
//!
//! Every query op also accepts an optional `"parallelism"` (worker
//! subthreads for one request, clamped server-side to the serve
//! `--threads` cap; results are byte-identical at every value), and —
//! at protocol version 4 — `"trace":true` / `"trace_id":"…"` to
//! request the query's span tree in the response, plus an optional
//! `"backend":"tree"|"esa"` pin that makes the server answer only from
//! an index of that family (any other fails with the typed
//! `unsupported_backend` code instead of silently answering from a
//! different index family).
//!
//! Requests may carry an optional integer `"version"` (absent =
//! [`MIN_PROTO_VERSION`]); a version this server does not speak — or an
//! op needing a newer version than declared, like `ingest` — fails with
//! the typed `unsupported_version` code. Responses stamp the server's
//! [`PROTO_VERSION`].
//!
//! Responses always carry `"ok"` and `"version"`:
//! `{"ok":true,"version":2,"op":…,…}` on success, and on failure a
//! typed error the client can branch on:
//!
//! ```json
//! {"ok":false,"version":2,"error":{"code":"overloaded","message":"…"}}
//! ```
//!
//! The error codes ([`ErrorCode`]) are part of the contract: admission
//! control distinguishes `overloaded` (bounded queue full — retry with
//! backoff) from `deadline_exceeded` (accepted but expired in queue)
//! from `bad_request` (never retry) from `result_too_large` (answer
//! exceeds the frame cap — narrow the search) from `shutting_down`.

use std::io::{self, Read, Write};
use std::net::TcpStream;
use std::time::Duration;

use warptree_core::error::CoreError;
use warptree_core::search::{BackendKind, KnnParams, Match, SearchParams, SearchStats};
use warptree_obs::json::{escape, num};
use warptree_obs::{Counter, Trace};

use crate::json::{self, Json};

/// Maximum frame payload accepted or produced: 4 MiB. Generous for the
/// workloads in the paper (a length-3000 query is 60 KB of JSON) while
/// bounding per-connection memory.
pub const MAX_FRAME: u32 = 4 << 20;

/// Writes one length-prefixed frame. The length prefix and the payload
/// go out as one buffer in one write: on an unbuffered socket, a
/// separate 4-byte write leaves the payload behind Nagle's algorithm
/// until the peer's delayed ACK (about 40 ms per frame).
pub fn write_frame(w: &mut impl Write, payload: &[u8]) -> io::Result<()> {
    if payload.len() > MAX_FRAME as usize {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            "frame exceeds MAX_FRAME",
        ));
    }
    let mut frame = Vec::with_capacity(4 + payload.len());
    frame.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    frame.extend_from_slice(payload);
    w.write_all(&frame)?;
    w.flush()
}

/// Read timeout of a served connection: how often an idle connection
/// thread wakes up to check for shutdown between frames.
pub const CONN_READ_TIMEOUT: Duration = Duration::from_millis(100);

/// Prepares a socket fresh from `accept` for a frame loop: blocking
/// mode (nonblocking-ness is inherited from the listener on some
/// platforms), [`CONN_READ_TIMEOUT`] so the thread notices shutdown
/// between requests, and `TCP_NODELAY` so no response waits on the
/// peer's ACK.
pub fn prepare_accepted(stream: &TcpStream) -> io::Result<()> {
    stream.set_nonblocking(false)?;
    stream.set_nodelay(true)?;
    stream.set_read_timeout(Some(CONN_READ_TIMEOUT))
}

/// Refuses a connection over the connection cap: a best-effort typed
/// `overloaded` frame before the close, so the client sees a retryable
/// error instead of a bare reset. The short write timeout bounds the
/// time the accept thread spends on it.
pub fn reject_connection(mut stream: TcpStream) {
    let _ = stream.set_nonblocking(false);
    let _ = stream.set_write_timeout(Some(Duration::from_millis(250)));
    let _ = write_frame(
        &mut stream,
        error_response(
            ErrorCode::Overloaded,
            "connection limit reached; retry with backoff",
        )
        .as_bytes(),
    );
}

/// Writes one response frame on a served connection, adding its payload
/// size to `bytes` and, when the request is traced, recording a `write`
/// span under `parent` (the request's service span). Untraced, the span
/// is the no-op handle: one branch, no clock read. Returns `false` when
/// the write failed and the connection should close.
pub fn respond(
    w: &mut impl Write,
    resp: &str,
    bytes: &Counter,
    trace: &Trace,
    parent: Option<u32>,
) -> bool {
    bytes.add(resp.len() as u64);
    let span = trace.span_with_parent(parent, "write");
    if span.is_active() {
        span.attr_u64("bytes", resp.len() as u64);
    }
    write_frame(w, resp.as_bytes()).is_ok()
}

/// Reads one length-prefixed frame. Returns `Ok(None)` on a clean EOF
/// at a frame boundary (the peer closed the connection); propagates
/// timeouts and mid-frame EOFs as errors.
pub fn read_frame(r: &mut impl Read) -> io::Result<Option<Vec<u8>>> {
    let mut len_buf = [0u8; 4];
    // A clean close arrives as EOF on the first length byte.
    match r.read(&mut len_buf[..1]) {
        Ok(0) => return Ok(None),
        Ok(_) => {}
        Err(e) => return Err(e),
    }
    r.read_exact(&mut len_buf[1..])?;
    let len = u32::from_le_bytes(len_buf);
    if len > MAX_FRAME {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("frame of {len} bytes exceeds MAX_FRAME"),
        ));
    }
    let mut payload = vec![0u8; len as usize];
    r.read_exact(&mut payload)?;
    Ok(Some(payload))
}

/// What [`read_frame_idle_aware`] observed on the stream.
#[derive(Debug)]
pub enum FrameEvent {
    /// A complete frame payload.
    Frame(Vec<u8>),
    /// Clean EOF at a frame boundary — the peer closed the connection.
    Closed,
    /// The read timed out with **zero** bytes of the next frame
    /// consumed. The stream is still at a frame boundary; the caller
    /// may poll shutdown flags and retry.
    Idle,
}

/// [`read_frame`] for a reader with a read timeout (e.g. a `TcpStream`
/// with `set_read_timeout`).
///
/// `WouldBlock`/`TimedOut` before the first byte of a frame is
/// reported as [`FrameEvent::Idle`] — nothing has been consumed, so
/// the caller can safely loop. Once a frame has begun, timeouts are
/// *retried* instead of surfaced: a plain `read_exact` would discard
/// whatever partial length/payload bytes it had buffered, leaving the
/// next read to interpret mid-frame bytes as a fresh length prefix and
/// permanently desynchronizing the connection. A slow client (a gap
/// longer than the timeout inside a multi-chunk frame) is therefore
/// fine; only `stall_limit` *consecutive* zero-progress timeouts
/// mid-frame fail the read (`TimedOut`), bounding how long a dead or
/// malicious peer can pin the reader inside one frame.
pub fn read_frame_idle_aware(r: &mut impl Read, stall_limit: u32) -> io::Result<FrameEvent> {
    let mut len_buf = [0u8; 4];
    loop {
        match r.read(&mut len_buf[..1]) {
            Ok(0) => return Ok(FrameEvent::Closed),
            Ok(_) => break,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e)
                if e.kind() == io::ErrorKind::WouldBlock || e.kind() == io::ErrorKind::TimedOut =>
            {
                return Ok(FrameEvent::Idle)
            }
            Err(e) => return Err(e),
        }
    }
    read_full(r, &mut len_buf[1..], stall_limit)?;
    let len = u32::from_le_bytes(len_buf);
    if len > MAX_FRAME {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("frame of {len} bytes exceeds MAX_FRAME"),
        ));
    }
    let mut payload = vec![0u8; len as usize];
    read_full(r, &mut payload, stall_limit)?;
    Ok(FrameEvent::Frame(payload))
}

/// `read_exact` that survives read timeouts: tracks its own offset so
/// partially read bytes are never discarded, retrying on
/// `WouldBlock`/`TimedOut` up to `stall_limit` consecutive
/// zero-progress reads (the counter resets whenever bytes arrive).
fn read_full(r: &mut impl Read, buf: &mut [u8], stall_limit: u32) -> io::Result<()> {
    let mut off = 0;
    let mut stalls = 0u32;
    while off < buf.len() {
        match r.read(&mut buf[off..]) {
            Ok(0) => {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "connection closed mid-frame",
                ))
            }
            Ok(n) => {
                off += n;
                stalls = 0;
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e)
                if e.kind() == io::ErrorKind::WouldBlock || e.kind() == io::ErrorKind::TimedOut =>
            {
                stalls += 1;
                if stalls >= stall_limit {
                    return Err(io::Error::new(
                        io::ErrorKind::TimedOut,
                        "no progress mid-frame for too long",
                    ));
                }
            }
            Err(e) => return Err(e),
        }
    }
    Ok(())
}

/// Typed protocol error codes — the shared wire vocabulary defined in
/// [`warptree_core::error::ErrorCode`], re-exported so every existing
/// `proto::ErrorCode` path keeps working. The string form
/// ([`ErrorCode::as_str`]) is the wire contract, spelled out in exactly
/// one place (the core crate).
pub use warptree_core::error::ErrorCode;

/// The protocol version this build speaks (and stamps on every
/// response). Version history:
///
/// * **1** — the original op set (`search`, `knn`, `batch`, `explain`,
///   `info`, `health`, `stats`, `shutdown`).
/// * **2** — adds the `ingest` op (online append into tail segments)
///   and the `"version"` field on requests and responses.
/// * **3** — degraded-mode serving: query responses may carry
///   `"partial":true` plus a `"coverage"` object when quarantined
///   segments were excluded, and `health` reports a `"degraded"`
///   status. Clients on v1/v2 receive the typed
///   `partial_result_unsupported` error instead of a silently
///   incomplete answer.
/// * **4** — per-query tracing and exposition: query ops accept
///   `"trace":true` (return the span tree) and `"trace_id":"…"`
///   (caller-chosen correlation id); query responses carry a
///   `"timings":{"queue_ns":…,"service_ns":…}` object and, when traced,
///   a `"trace"` block. Adds the `slowlog` and `metrics` control ops.
pub const PROTO_VERSION: u32 = 4;

/// The oldest protocol version still accepted. Requests carrying no
/// `"version"` field are treated as this version.
pub const MIN_PROTO_VERSION: u32 = 1;

/// A request parse failure: a wire [`ErrorCode`] (almost always
/// `bad_request`; `unsupported_version` for version negotiation
/// failures) plus a human-readable message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// The typed code the error frame will carry.
    pub code: ErrorCode,
    /// The human-readable message.
    pub message: String,
}

impl From<String> for ParseError {
    fn from(message: String) -> Self {
        ParseError {
            code: ErrorCode::BadRequest,
            message,
        }
    }
}

impl From<&str> for ParseError {
    fn from(message: &str) -> Self {
        ParseError::from(message.to_string())
    }
}

/// A parsed request.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// ε-threshold similarity search.
    Search {
        /// The query subsequence.
        query: Vec<f64>,
        /// Search parameters (ε, window, length bounds).
        params: SearchParams,
    },
    /// k-nearest-neighbour search via ε expansion.
    Knn {
        /// The query subsequence.
        query: Vec<f64>,
        /// k-NN parameters.
        params: KnnParams,
    },
    /// Several threshold searches answered in one response — the
    /// pipelined path that shares one metrics bundle server-side.
    Batch {
        /// The query subsequences.
        queries: Vec<Vec<f64>>,
        /// Parameters applied to every query.
        params: SearchParams,
    },
    /// A threshold search that also returns its cost counters.
    Explain {
        /// The query subsequence.
        query: Vec<f64>,
        /// Search parameters.
        params: SearchParams,
    },
    /// Index/corpus metadata.
    Info,
    /// Liveness probe.
    Health,
    /// Process metrics snapshot.
    Stats,
    /// The slow-query ring: recent traced/slow queries, newest first
    /// (protocol version 4).
    Slowlog,
    /// The full metrics registry in Prometheus text exposition format
    /// (protocol version 4).
    Metrics,
    /// Ask the server to drain and exit.
    Shutdown,
    /// Append sequences to the served index as a new tail segment
    /// (protocol version 2). The commit is crash-safe and the new
    /// generation is swapped in before the response is sent, so a
    /// follow-up query on the same connection sees the ingested data.
    Ingest {
        /// The sequences to append, one value array each.
        sequences: Vec<Vec<f64>>,
    },
    /// Occupy a worker for `ms` milliseconds (test-only; parsed only
    /// when debug ops are enabled). Deterministically fills the queue
    /// for overload and deadline tests.
    DebugSleep {
        /// How long the worker sleeps.
        ms: u64,
    },
}

impl Request {
    /// `true` for ops answered inline on the connection thread —
    /// cheap, never queued, usable even when the pool is saturated
    /// (a health check that 503s under load is useless).
    pub fn is_control(&self) -> bool {
        matches!(
            self,
            Request::Info
                | Request::Health
                | Request::Stats
                | Request::Slowlog
                | Request::Metrics
                | Request::Shutdown
        )
    }

    /// The op name as it appears on the wire — used for span/slowlog
    /// labeling, so a trace's `"op"` attribute matches what the client
    /// sent.
    pub fn op_label(&self) -> &'static str {
        match self {
            Request::Search { .. } => "search",
            Request::Knn { .. } => "knn",
            Request::Batch { .. } => "batch",
            Request::Explain { .. } => "explain",
            Request::Ingest { .. } => "ingest",
            Request::Info => "info",
            Request::Health => "health",
            Request::Stats => "stats",
            Request::Slowlog => "slowlog",
            Request::Metrics => "metrics",
            Request::Shutdown => "shutdown",
            Request::DebugSleep { .. } => "debug_sleep",
        }
    }

    /// Parses a frame payload. `allow_debug` gates the test-only ops.
    ///
    /// A request may carry an optional integer `"version"`; absent
    /// means [`MIN_PROTO_VERSION`]. Versions outside
    /// `MIN_PROTO_VERSION..=PROTO_VERSION` — and ops requiring a newer
    /// version than the request declared — fail with the typed
    /// `unsupported_version` code instead of plain `bad_request`, so
    /// clients can distinguish "speak older" from "malformed".
    pub fn parse(payload: &[u8], allow_debug: bool) -> Result<Request, ParseError> {
        Self::parse_versioned(payload, allow_debug).map(|(req, _)| req)
    }

    /// [`parse`](Request::parse) that also returns the protocol version
    /// the request negotiated (absent = [`MIN_PROTO_VERSION`]). The
    /// server needs the version to decide whether a degraded (partial)
    /// response can be expressed or must fail with
    /// `partial_result_unsupported`.
    pub fn parse_versioned(
        payload: &[u8],
        allow_debug: bool,
    ) -> Result<(Request, u32), ParseError> {
        Self::parse_full(payload, allow_debug).map(|(req, v, _)| (req, v))
    }

    /// The complete parse: request, negotiated version, and the
    /// protocol-version-4 [`TraceOpts`]. Requesting a trace (or
    /// supplying a `trace_id`) below version 4 is an
    /// `unsupported_version` error, so old clients can never receive a
    /// response shape they do not expect.
    pub fn parse_full(
        payload: &[u8],
        allow_debug: bool,
    ) -> Result<(Request, u32, TraceOpts), ParseError> {
        let text = std::str::from_utf8(payload).map_err(|_| "frame is not UTF-8".to_string())?;
        let v = json::parse(text)?;
        let version = match v.get("version") {
            None | Some(Json::Null) => MIN_PROTO_VERSION,
            Some(x) => x
                .as_u64()
                .filter(|n| *n <= u32::MAX as u64)
                .ok_or("\"version\" must be an integer")? as u32,
        };
        if !(MIN_PROTO_VERSION..=PROTO_VERSION).contains(&version) {
            return Err(ParseError {
                code: ErrorCode::UnsupportedVersion,
                message: format!(
                    "protocol version {version} is not supported (this server speaks {MIN_PROTO_VERSION}..={PROTO_VERSION})"
                ),
            });
        }
        let op = v
            .get("op")
            .and_then(Json::as_str)
            .ok_or("missing \"op\" field")?;
        if op == "ingest" && version < 2 {
            return Err(ParseError {
                code: ErrorCode::UnsupportedVersion,
                message: "op \"ingest\" requires protocol version 2; send \"version\":2"
                    .to_string(),
            });
        }
        if (op == "slowlog" || op == "metrics") && version < 4 {
            return Err(ParseError {
                code: ErrorCode::UnsupportedVersion,
                message: format!("op \"{op}\" requires protocol version 4; send \"version\":4"),
            });
        }
        let trace = TraceOpts {
            wanted: match v.get("trace") {
                None | Some(Json::Null) => false,
                Some(x) => x.as_bool().ok_or("\"trace\" must be a boolean")?,
            },
            trace_id: match v.get("trace_id") {
                None | Some(Json::Null) => None,
                Some(x) => {
                    let id = x.as_str().ok_or("\"trace_id\" must be a string")?;
                    if id.is_empty() || id.len() > 128 {
                        return Err("\"trace_id\" must be 1..=128 bytes".into());
                    }
                    Some(id.to_string())
                }
            },
        };
        if (trace.wanted || trace.trace_id.is_some()) && version < 4 {
            return Err(ParseError {
                code: ErrorCode::UnsupportedVersion,
                message: "per-query tracing requires protocol version 4; send \"version\":4"
                    .to_string(),
            });
        }
        let req: Result<Request, ParseError> = match op {
            "search" => Ok(Request::Search {
                query: query_field(&v, "query")?,
                params: search_params(&v)?,
            }),
            "knn" => {
                let k = v
                    .get("k")
                    .and_then(Json::as_u64)
                    .ok_or("knn requires an integer \"k\"")? as usize;
                let mut params = KnnParams::new(k);
                if let Some(e) = v.get("initial_epsilon") {
                    params.initial_epsilon =
                        e.as_f64().ok_or("\"initial_epsilon\" must be a number")?;
                }
                if let Some(g) = v.get("growth") {
                    params.growth = g.as_f64().ok_or("\"growth\" must be a number")?;
                }
                if let Some(r) = v.get("max_rounds") {
                    params.max_rounds =
                        r.as_u64().ok_or("\"max_rounds\" must be an integer")? as usize;
                }
                if let Some(w) = opt_u32(&v, "window")? {
                    params.window = Some(w);
                }
                if let Some(overlap) = v.get("allow_overlaps") {
                    params.non_overlapping = !overlap
                        .as_bool()
                        .ok_or("\"allow_overlaps\" must be a boolean")?;
                }
                if let Some(t) = opt_u32(&v, "parallelism")? {
                    params.threads = t;
                }
                if let Some(c) = v.get("cascade") {
                    params.cascade = c.as_bool().ok_or("\"cascade\" must be a boolean")?;
                }
                params.backend = opt_backend(&v)?;
                Ok(Request::Knn {
                    query: query_field(&v, "query")?,
                    params,
                })
            }
            "batch" => {
                let arr = v
                    .get("queries")
                    .and_then(Json::as_arr)
                    .ok_or("batch requires a \"queries\" array")?;
                let mut queries = Vec::with_capacity(arr.len());
                for (i, q) in arr.iter().enumerate() {
                    let vals = q
                        .as_arr()
                        .ok_or_else(|| format!("queries[{i}] is not an array"))?;
                    queries.push(numbers(vals, &format!("queries[{i}]"))?);
                }
                Ok(Request::Batch {
                    queries,
                    params: search_params(&v)?,
                })
            }
            "explain" => Ok(Request::Explain {
                query: query_field(&v, "query")?,
                params: search_params(&v)?,
            }),
            "ingest" => {
                let arr = v
                    .get("sequences")
                    .and_then(Json::as_arr)
                    .ok_or("ingest requires a \"sequences\" array")?;
                if arr.is_empty() {
                    return Err("\"sequences\" must not be empty".into());
                }
                let mut sequences = Vec::with_capacity(arr.len());
                for (i, s) in arr.iter().enumerate() {
                    let vals = s
                        .as_arr()
                        .ok_or_else(|| format!("sequences[{i}] is not an array"))?;
                    if vals.is_empty() {
                        return Err(format!("sequences[{i}] is empty").into());
                    }
                    sequences.push(numbers(vals, &format!("sequences[{i}]"))?);
                }
                Ok(Request::Ingest { sequences })
            }
            "info" => Ok(Request::Info),
            "health" => Ok(Request::Health),
            "stats" => Ok(Request::Stats),
            "slowlog" => Ok(Request::Slowlog),
            "metrics" => Ok(Request::Metrics),
            "shutdown" => Ok(Request::Shutdown),
            "debug_sleep" if allow_debug => Ok(Request::DebugSleep {
                ms: v
                    .get("ms")
                    .and_then(Json::as_u64)
                    .ok_or("debug_sleep requires an integer \"ms\"")?,
            }),
            other => Err(format!("unknown op {other:?}").into()),
        };
        let req = req?;
        if req.backend_pin().is_some() && version < 4 {
            return Err(ParseError {
                code: ErrorCode::UnsupportedVersion,
                message: "\"backend\" pinning requires protocol version 4; send \"version\":4"
                    .to_string(),
            });
        }
        Ok((req, version, trace))
    }

    /// The backend pin a query op carries, if any — `None` for control
    /// and write ops. The coordinator uses this to forward the pin
    /// verbatim to every shard.
    pub fn backend_pin(&self) -> Option<BackendKind> {
        match self {
            Request::Search { params, .. }
            | Request::Batch { params, .. }
            | Request::Explain { params, .. } => params.backend,
            Request::Knn { params, .. } => params.backend,
            _ => None,
        }
    }
}

/// Per-request tracing options (protocol version 4).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct TraceOpts {
    /// The client asked for the span tree in the response
    /// (`"trace":true`). Sampled traces may be recorded server-side
    /// even when this is `false`.
    pub wanted: bool,
    /// Caller-supplied correlation id (`"trace_id"`); the server
    /// generates one when absent.
    pub trace_id: Option<String>,
}

fn numbers(arr: &[Json], what: &str) -> Result<Vec<f64>, String> {
    arr.iter()
        .map(|x| {
            x.as_f64()
                .ok_or_else(|| format!("{what} holds a non-number"))
        })
        .collect()
}

fn query_field(v: &Json, key: &str) -> Result<Vec<f64>, String> {
    let arr = v
        .get(key)
        .and_then(Json::as_arr)
        .ok_or_else(|| format!("missing \"{key}\" array"))?;
    numbers(arr, key)
}

fn opt_u32(v: &Json, key: &str) -> Result<Option<u32>, String> {
    match v.get(key) {
        None | Some(Json::Null) => Ok(None),
        Some(x) => {
            let n = x
                .as_u64()
                .filter(|n| *n <= u32::MAX as u64)
                .ok_or_else(|| format!("\"{key}\" must be a u32"))?;
            Ok(Some(n as u32))
        }
    }
}

fn search_params(v: &Json) -> Result<SearchParams, String> {
    let epsilon = v
        .get("epsilon")
        .and_then(Json::as_f64)
        .ok_or("missing numeric \"epsilon\"")?;
    let mut params = SearchParams::with_epsilon(epsilon);
    params.window = opt_u32(v, "window")?;
    params.max_len = opt_u32(v, "max_len")?;
    if let Some(m) = opt_u32(v, "min_len")? {
        params.min_len = m;
    }
    if let Some(t) = opt_u32(v, "parallelism")? {
        params.threads = t;
    }
    if let Some(c) = v.get("cascade") {
        params.cascade = c.as_bool().ok_or("\"cascade\" must be a boolean")?;
    }
    params.backend = opt_backend(v)?;
    Ok(params)
}

/// The optional `"backend"` pin: `"tree"` or `"esa"`. Unknown names are
/// a `bad_request` (the client asked for a family this build does not
/// know, which no retry against this server can fix).
fn opt_backend(v: &Json) -> Result<Option<BackendKind>, String> {
    match v.get("backend") {
        None | Some(Json::Null) => Ok(None),
        Some(x) => {
            let s = x.as_str().ok_or("\"backend\" must be a string")?;
            BackendKind::parse(s)
                .map(Some)
                .ok_or_else(|| format!("unknown backend {s:?} (expected \"tree\" or \"esa\")"))
        }
    }
}

/// Serializes matches as a canonical JSON array: sorted by occurrence
/// `(seq, start, len)`, distances rendered with
/// [`warptree_obs::json::num`]. Canonical ordering + shared formatter
/// is what makes server responses byte-comparable to locally computed
/// answer sets.
pub fn encode_matches(matches: &[Match]) -> String {
    let mut sorted: Vec<Match> = matches.to_vec();
    sorted.sort_by_key(|m| m.occ);
    encode_matches_ranked(&sorted)
}

/// Serializes matches **in the order given** — for rank-ordered
/// results (k-NN returns nearest first; sorting by occurrence would
/// destroy the ranking).
pub fn encode_matches_ranked(matches: &[Match]) -> String {
    let mut out = String::from("[");
    for (i, m) in matches.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "{{\"seq\":{},\"start\":{},\"len\":{},\"dist\":{}}}",
            m.occ.seq.0,
            m.occ.start,
            m.occ.len,
            num(m.dist)
        ));
    }
    out.push(']');
    out
}

/// The `"generation":…,"count":…,"matches":[…]` body of every answer:
/// matches in canonical occurrence order, or as given when `ranked`
/// (k-NN answers are nearest first).
pub fn matches_body(generation: u64, matches: &[Match], ranked: bool) -> String {
    let arr = if ranked {
        encode_matches_ranked(matches)
    } else {
        encode_matches(matches)
    };
    format!(
        "\"generation\":{generation},\"count\":{},\"matches\":{arr}",
        matches.len()
    )
}

/// Serializes funnel stats as the 16-field `"stats"` object of an
/// `explain` response — one renderer for the server and the
/// coordinator's merged answer, so the two stay byte-comparable.
pub fn encode_stats(s: &SearchStats) -> String {
    format!(
        "{{\"filter_cells\":{},\"nodes_visited\":{},\"nodes_expanded\":{},\"rows_pushed\":{},\"rows_unshared\":{},\"branches_pruned\":{},\"candidates\":{},\"stored_candidates\":{},\"lb2_candidates\":{},\"postprocessed\":{},\"postprocess_cells\":{},\"false_alarms\":{},\"answers\":{},\"cascade_lb_keogh_kills\":{},\"cascade_lb_improved_kills\":{},\"cascade_abandon_kills\":{}}}",
        s.filter_cells,
        s.nodes_visited,
        s.nodes_expanded,
        s.rows_pushed,
        s.rows_unshared,
        s.branches_pruned,
        s.candidates,
        s.stored_candidates,
        s.lb2_candidates,
        s.postprocessed,
        s.postprocess_cells,
        s.false_alarms,
        s.answers,
        s.cascade_lb_keogh_kills,
        s.cascade_lb_improved_kills,
        s.cascade_abandon_kills,
    )
}

/// Serializes [`Coverage`] accounting as a response fragment:
/// `"partial":true,"coverage":{…}` (protocol version 3). The fraction
/// is rendered with the shared canonical number formatter so degraded
/// responses stay byte-comparable.
pub fn encode_coverage(c: &warptree_core::search::Coverage) -> String {
    format!(
        "\"partial\":{},\"coverage\":{{\"segments_total\":{},\"segments_answered\":{},\
         \"segments_quarantined\":{},\"suffixes_total\":{},\"suffixes_answered\":{},\
         \"fraction\":{}}}",
        c.is_partial(),
        c.segments_total,
        c.segments_answered,
        c.segments_quarantined,
        c.suffixes_total,
        c.suffixes_answered,
        num(c.fraction())
    )
}

/// Builds a success response:
/// `{"ok":true,"version":<PROTO_VERSION>,"op":<op>,<body…>}`. `body` is
/// a pre-rendered fragment of `"key":value` pairs (may be empty).
pub fn ok_response(op: &str, body: &str) -> String {
    if body.is_empty() {
        format!(
            "{{\"ok\":true,\"version\":{PROTO_VERSION},\"op\":\"{}\"}}",
            escape(op)
        )
    } else {
        format!(
            "{{\"ok\":true,\"version\":{PROTO_VERSION},\"op\":\"{}\",{}}}",
            escape(op),
            body
        )
    }
}

/// Builds a typed error response.
pub fn error_response(code: ErrorCode, message: &str) -> String {
    error_frame(code.as_str(), message)
}

/// [`error_response`] with the code as a string, for relaying a code
/// another server sent: the bytes match a locally raised error.
pub fn error_frame(code: &str, message: &str) -> String {
    format!(
        "{{\"ok\":false,\"version\":{PROTO_VERSION},\"error\":{{\"code\":\"{}\",\"message\":\"{}\"}}}}",
        escape(code),
        escape(message)
    )
}

/// Maps a validation failure from the core search layer onto a wire
/// error via [`CoreError::code`] (every core error is the client's
/// fault, so this is always `bad_request`).
pub fn core_error_response(e: &CoreError) -> String {
    error_response(e.code(), &e.to_string())
}

#[cfg(test)]
mod tests {
    use super::*;
    use warptree_core::sequence::{Occurrence, SeqId};

    /// A relayed error code renders byte-identically to a locally
    /// raised one.
    #[test]
    fn error_frames_match_error_responses() {
        assert_eq!(
            error_frame("overloaded", "queue full"),
            error_response(ErrorCode::Overloaded, "queue full")
        );
        assert_eq!(
            error_frame("corruption_detected", "bad page"),
            error_response(ErrorCode::CorruptionDetected, "bad page")
        );
    }

    #[test]
    fn frames_round_trip() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"{\"op\":\"health\"}").unwrap();
        write_frame(&mut buf, b"second").unwrap();
        let mut r = &buf[..];
        assert_eq!(read_frame(&mut r).unwrap().unwrap(), b"{\"op\":\"health\"}");
        assert_eq!(read_frame(&mut r).unwrap().unwrap(), b"second");
        assert!(read_frame(&mut r).unwrap().is_none());
    }

    /// A writer that records each `write` call separately.
    #[derive(Default)]
    struct RecordingWriter {
        writes: Vec<Vec<u8>>,
        flushes: usize,
    }

    impl Write for RecordingWriter {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.writes.push(buf.to_vec());
            Ok(buf.len())
        }
        fn flush(&mut self) -> io::Result<()> {
            self.flushes += 1;
            Ok(())
        }
    }

    /// One `write` per frame (a separate 4-byte write would leave the
    /// payload behind Nagle), carrying the same bytes as before: the
    /// u32-LE length, then the payload.
    #[test]
    fn write_frame_issues_one_write_with_unchanged_bytes() {
        for payload in [&b""[..], b"{\"op\":\"health\"}", &[b'x'; 70_000][..]] {
            let mut w = RecordingWriter::default();
            write_frame(&mut w, payload).unwrap();
            assert_eq!(w.writes.len(), 1, "payload of {} bytes", payload.len());
            let mut expected = (payload.len() as u32).to_le_bytes().to_vec();
            expected.extend_from_slice(payload);
            assert_eq!(w.writes[0], expected);
            assert_eq!(w.flushes, 1);
        }
    }

    /// An oversized payload is refused before anything is written.
    #[test]
    fn write_frame_refuses_oversized_payload_without_writing() {
        let mut w = RecordingWriter::default();
        let big = vec![b'x'; MAX_FRAME as usize + 1];
        let err = write_frame(&mut w, &big).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(w.writes.is_empty());
    }

    /// The shared accepted-socket setup leaves a socket accepted from a
    /// nonblocking listener (as both frontends' accept loops have it)
    /// blocking, with the connection read timeout and `TCP_NODELAY`.
    #[test]
    fn prepare_accepted_sets_nodelay_and_read_timeout() {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        listener.set_nonblocking(true).unwrap();
        let mut client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (mut accepted, _) = loop {
            match listener.accept() {
                Ok(pair) => break pair,
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                    std::thread::sleep(Duration::from_millis(1))
                }
                Err(e) => panic!("accept: {e}"),
            }
        };
        prepare_accepted(&accepted).unwrap();
        assert!(accepted.nodelay().unwrap());
        assert_eq!(accepted.read_timeout().unwrap(), Some(CONN_READ_TIMEOUT));
        // Blocking with a timeout: an idle read times out instead of
        // failing `WouldBlock` at once, and a frame still arrives whole.
        let t = std::time::Instant::now();
        let mut byte = [0u8; 1];
        let err = accepted.read(&mut byte).unwrap_err();
        assert!(
            matches!(
                err.kind(),
                io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
            ),
            "{err}"
        );
        assert!(t.elapsed() >= CONN_READ_TIMEOUT / 2, "{:?}", t.elapsed());
        write_frame(&mut client, b"ping").unwrap();
        assert_eq!(read_frame(&mut accepted).unwrap().unwrap(), b"ping");
    }

    #[test]
    fn oversized_frame_is_rejected_without_allocation() {
        let mut buf = Vec::new();
        buf.extend_from_slice(&u32::MAX.to_le_bytes());
        let mut r = &buf[..];
        assert!(read_frame(&mut r).is_err());
    }

    /// A reader that interleaves timeouts between single-byte reads —
    /// the worst case a slow network client presents.
    struct DribbleReader {
        data: Vec<u8>,
        pos: usize,
        /// Emit a timeout before every real byte when `true`.
        stall_between: bool,
        leading_stalls: u32,
    }

    impl io::Read for DribbleReader {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            if self.leading_stalls > 0 {
                self.leading_stalls -= 1;
                return Err(io::Error::new(io::ErrorKind::WouldBlock, "stall"));
            }
            if self.pos >= self.data.len() {
                return Ok(0);
            }
            if self.stall_between {
                self.leading_stalls = 1;
            }
            buf[0] = self.data[self.pos];
            self.pos += 1;
            Ok(1)
        }
    }

    #[test]
    fn idle_aware_reader_survives_mid_frame_timeouts() {
        // One frame delivered one byte at a time with a timeout before
        // every byte: read_frame would desync; the idle-aware reader
        // must reassemble the frame, then report the clean close.
        let mut framed = Vec::new();
        write_frame(&mut framed, b"{\"op\":\"health\"}").unwrap();
        let mut r = DribbleReader {
            data: framed,
            pos: 0,
            stall_between: true,
            leading_stalls: 1,
        };
        match read_frame_idle_aware(&mut r, 10).unwrap() {
            FrameEvent::Idle => {} // first stall: zero bytes consumed
            other => panic!("expected Idle, got {other:?}"),
        }
        match read_frame_idle_aware(&mut r, 10).unwrap() {
            FrameEvent::Frame(p) => assert_eq!(p, b"{\"op\":\"health\"}"),
            other => panic!("expected Frame, got {other:?}"),
        }
        // The reader stalls once more before EOF (still a frame
        // boundary → Idle), then reports the clean close.
        match read_frame_idle_aware(&mut r, 10).unwrap() {
            FrameEvent::Idle => {}
            other => panic!("expected Idle, got {other:?}"),
        }
        match read_frame_idle_aware(&mut r, 10).unwrap() {
            FrameEvent::Closed => {}
            other => panic!("expected Closed, got {other:?}"),
        }
    }

    #[test]
    fn idle_aware_reader_bounds_mid_frame_stalls() {
        // A peer that sends one length byte then goes silent must not
        // pin the reader forever: the consecutive-stall limit trips.
        let mut r = DribbleReader {
            data: vec![7u8],
            pos: 0,
            stall_between: false,
            leading_stalls: 0,
        };
        // After the single byte, every read hits EOF → UnexpectedEof
        // (mid-frame close), not a silent desync.
        let err = read_frame_idle_aware(&mut r, 3).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);

        // And a pure staller (no bytes after the first) trips TimedOut.
        struct OneByteThenStall(bool);
        impl io::Read for OneByteThenStall {
            fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
                if !self.0 {
                    self.0 = true;
                    buf[0] = 7;
                    return Ok(1);
                }
                Err(io::Error::new(io::ErrorKind::WouldBlock, "stall"))
            }
        }
        let err = read_frame_idle_aware(&mut OneByteThenStall(false), 3).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::TimedOut);
    }

    #[test]
    fn parses_search_request() {
        let req = Request::parse(
            br#"{"op":"search","query":[1.0,2.0],"epsilon":0.5,"window":3,"min_len":2}"#,
            false,
        )
        .unwrap();
        match req {
            Request::Search { query, params } => {
                assert_eq!(query, vec![1.0, 2.0]);
                assert_eq!(params.epsilon, 0.5);
                assert_eq!(params.window, Some(3));
                assert_eq!(params.min_len, 2);
            }
            other => panic!("wrong request: {other:?}"),
        }
    }

    #[test]
    fn parses_knn_request_with_defaults() {
        let req = Request::parse(br#"{"op":"knn","query":[1.0],"k":3}"#, false).unwrap();
        match req {
            Request::Knn { params, .. } => {
                assert_eq!(params.k, 3);
                assert!(params.non_overlapping);
                assert_eq!(params.growth, 4.0);
            }
            other => panic!("wrong request: {other:?}"),
        }
    }

    #[test]
    fn parses_parallelism_knob() {
        let req = Request::parse(
            br#"{"op":"search","query":[1.0],"epsilon":0.5,"parallelism":4}"#,
            false,
        )
        .unwrap();
        match req {
            Request::Search { params, .. } => assert_eq!(params.threads, 4),
            other => panic!("wrong request: {other:?}"),
        }
        let req = Request::parse(
            br#"{"op":"knn","query":[1.0],"k":2,"parallelism":8}"#,
            false,
        )
        .unwrap();
        match req {
            Request::Knn { params, .. } => assert_eq!(params.threads, 8),
            other => panic!("wrong request: {other:?}"),
        }
        // Absent → sequential; non-integers are rejected.
        let req = Request::parse(br#"{"op":"search","query":[1.0],"epsilon":0.5}"#, false).unwrap();
        match req {
            Request::Search { params, .. } => assert_eq!(params.threads, 1),
            other => panic!("wrong request: {other:?}"),
        }
        assert!(Request::parse(
            br#"{"op":"search","query":[1.0],"epsilon":0.5,"parallelism":-2}"#,
            false
        )
        .is_err());
    }

    #[test]
    fn debug_ops_are_gated() {
        let frame = br#"{"op":"debug_sleep","ms":10}"#;
        assert!(Request::parse(frame, false).is_err());
        assert_eq!(
            Request::parse(frame, true).unwrap(),
            Request::DebugSleep { ms: 10 }
        );
    }

    #[test]
    fn control_ops_are_classified() {
        for (frame, control) in [
            (&br#"{"op":"health"}"#[..], true),
            (br#"{"op":"stats"}"#, true),
            (br#"{"op":"search","query":[1.0],"epsilon":1.0}"#, false),
        ] {
            assert_eq!(Request::parse(frame, false).unwrap().is_control(), control);
        }
    }

    #[test]
    fn rejects_malformed_requests() {
        for bad in [
            &b"not json"[..],
            br#"{"no_op":1}"#,
            br#"{"op":"teapot"}"#,
            br#"{"op":"search","query":"strings","epsilon":1.0}"#,
            br#"{"op":"search","query":[1.0]}"#,
            br#"{"op":"knn","query":[1.0]}"#,
            br#"{"op":"search","query":[1.0],"epsilon":1.0,"window":-1}"#,
        ] {
            assert!(Request::parse(bad, false).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn backend_pin_parses_and_is_version_gated() {
        // Pins parse into the params for every query op.
        for (frame, want) in [
            (
                &br#"{"op":"search","version":4,"query":[1.0],"epsilon":0.5,"backend":"esa"}"#[..],
                Some(BackendKind::Esa),
            ),
            (
                br#"{"op":"knn","version":4,"query":[1.0],"k":2,"backend":"tree"}"#,
                Some(BackendKind::Tree),
            ),
            (
                br#"{"op":"batch","version":4,"queries":[[1.0]],"epsilon":0.5,"backend":"esa"}"#,
                Some(BackendKind::Esa),
            ),
            (
                br#"{"op":"explain","version":4,"query":[1.0],"epsilon":0.5,"backend":"tree"}"#,
                Some(BackendKind::Tree),
            ),
            // Absent and null both mean "any backend".
            (
                br#"{"op":"search","version":4,"query":[1.0],"epsilon":0.5}"#,
                None,
            ),
            (
                br#"{"op":"search","version":4,"query":[1.0],"epsilon":0.5,"backend":null}"#,
                None,
            ),
        ] {
            let req = Request::parse(frame, false).unwrap();
            assert_eq!(req.backend_pin(), want, "{frame:?}");
        }
        // Unknown families and non-string values are plain bad requests.
        for frame in [
            &br#"{"op":"search","version":4,"query":[1.0],"epsilon":0.5,"backend":"btree"}"#[..],
            br#"{"op":"search","version":4,"query":[1.0],"epsilon":0.5,"backend":7}"#,
        ] {
            let err = Request::parse(frame, false).unwrap_err();
            assert_eq!(err.code, ErrorCode::BadRequest, "{frame:?}");
        }
        // A pin below protocol version 4 is a typed version failure, so
        // a pinned request can never be silently served unpinned by a
        // newer server a v1 client did not expect to understand it.
        let err = Request::parse(
            br#"{"op":"search","query":[1.0],"epsilon":0.5,"backend":"esa"}"#,
            false,
        )
        .unwrap_err();
        assert_eq!(err.code, ErrorCode::UnsupportedVersion);
        // Control ops carry no pin.
        assert_eq!(
            Request::parse(br#"{"op":"health"}"#, false)
                .unwrap()
                .backend_pin(),
            None
        );
    }

    #[test]
    fn matches_encode_canonically() {
        let m = |s: u32, p: u32, l: u32, d: f64| Match {
            occ: Occurrence::new(SeqId(s), p, l),
            dist: d,
        };
        // Deliberately unsorted input sorts by occurrence.
        let encoded = encode_matches(&[m(1, 0, 2, 1.5), m(0, 3, 2, 0.0)]);
        assert_eq!(
            encoded,
            r#"[{"seq":0,"start":3,"len":2,"dist":0},{"seq":1,"start":0,"len":2,"dist":1.5}]"#
        );
    }

    #[test]
    fn responses_have_stable_shape() {
        assert_eq!(
            ok_response("health", ""),
            r#"{"ok":true,"version":4,"op":"health"}"#
        );
        assert_eq!(
            ok_response("info", "\"sequences\":2"),
            r#"{"ok":true,"version":4,"op":"info","sequences":2}"#
        );
        let err = error_response(ErrorCode::Overloaded, "queue full");
        assert_eq!(
            err,
            r#"{"ok":false,"version":4,"error":{"code":"overloaded","message":"queue full"}}"#
        );
        let parsed = crate::json::parse(&err).unwrap();
        assert_eq!(parsed.get("ok").and_then(Json::as_bool), Some(false));
        assert_eq!(
            parsed.get("version").and_then(Json::as_u64),
            Some(PROTO_VERSION as u64)
        );
    }

    #[test]
    fn version_negotiation() {
        // Every supported version parses; absent defaults to v1.
        for (frame, want) in [
            (&br#"{"op":"health"}"#[..], 1),
            (br#"{"op":"health","version":1}"#, 1),
            (br#"{"op":"health","version":2}"#, 2),
            (br#"{"op":"health","version":3}"#, 3),
            (br#"{"op":"health","version":4}"#, 4),
        ] {
            let (req, version) = Request::parse_versioned(frame, false).unwrap();
            assert_eq!(req, Request::Health);
            assert_eq!(version, want, "{frame:?}");
        }
        // Out-of-range versions get the typed unsupported_version code.
        for frame in [
            &br#"{"op":"health","version":0}"#[..],
            br#"{"op":"health","version":5}"#,
            br#"{"op":"health","version":99}"#,
        ] {
            let err = Request::parse(frame, false).unwrap_err();
            assert_eq!(err.code, ErrorCode::UnsupportedVersion, "{frame:?}");
        }
        // Malformed version values are plain bad requests.
        let err = Request::parse(br#"{"op":"health","version":"two"}"#, false).unwrap_err();
        assert_eq!(err.code, ErrorCode::BadRequest);
    }

    #[test]
    fn trace_opts_and_v4_ops_are_version_gated() {
        // v4 query with tracing: opts surface through parse_full.
        let (req, version, trace) = Request::parse_full(
            br#"{"op":"search","version":4,"query":[1.0],"epsilon":0.5,"trace":true,"trace_id":"abc"}"#,
            false,
        )
        .unwrap();
        assert!(matches!(req, Request::Search { .. }));
        assert_eq!(version, 4);
        assert_eq!(
            trace,
            TraceOpts {
                wanted: true,
                trace_id: Some("abc".to_string())
            }
        );
        // Untraced requests carry the default opts.
        let (_, _, trace) = Request::parse_full(br#"{"op":"health"}"#, false).unwrap();
        assert_eq!(trace, TraceOpts::default());
        // Tracing below v4 — and the v4-only ops below v4 — are typed
        // unsupported_version failures.
        for frame in [
            &br#"{"op":"search","query":[1.0],"epsilon":0.5,"trace":true}"#[..],
            br#"{"op":"search","version":3,"query":[1.0],"epsilon":0.5,"trace_id":"x"}"#,
            br#"{"op":"slowlog"}"#,
            br#"{"op":"metrics","version":3}"#,
        ] {
            let err = Request::parse(frame, false).unwrap_err();
            assert_eq!(err.code, ErrorCode::UnsupportedVersion, "{frame:?}");
        }
        // The v4 control ops parse and are control-classified.
        for (frame, want) in [
            (&br#"{"op":"slowlog","version":4}"#[..], Request::Slowlog),
            (br#"{"op":"metrics","version":4}"#, Request::Metrics),
        ] {
            let req = Request::parse(frame, false).unwrap();
            assert_eq!(req, want);
            assert!(req.is_control());
        }
        // Malformed trace fields are plain bad requests.
        for frame in [
            &br#"{"op":"search","version":4,"query":[1.0],"epsilon":0.5,"trace":"yes"}"#[..],
            br#"{"op":"search","version":4,"query":[1.0],"epsilon":0.5,"trace_id":7}"#,
            br#"{"op":"search","version":4,"query":[1.0],"epsilon":0.5,"trace_id":""}"#,
        ] {
            let err = Request::parse(frame, false).unwrap_err();
            assert_eq!(err.code, ErrorCode::BadRequest, "{frame:?}");
        }
    }

    #[test]
    fn coverage_fragment_is_stable_and_parseable() {
        let c = warptree_core::search::Coverage {
            segments_total: 3,
            segments_answered: 2,
            segments_quarantined: 1,
            suffixes_total: 100,
            suffixes_answered: 75,
        };
        let frag = encode_coverage(&c);
        assert_eq!(
            frag,
            r#""partial":true,"coverage":{"segments_total":3,"segments_answered":2,"segments_quarantined":1,"suffixes_total":100,"suffixes_answered":75,"fraction":0.75}"#
        );
        let resp = ok_response("search", &format!("\"matches\":[],{frag}"));
        let parsed = crate::json::parse(&resp).unwrap();
        assert_eq!(parsed.get("partial").and_then(Json::as_bool), Some(true));
        let cov = parsed.get("coverage").unwrap();
        assert_eq!(
            cov.get("segments_quarantined").and_then(Json::as_u64),
            Some(1)
        );
        assert_eq!(cov.get("fraction").and_then(Json::as_f64), Some(0.75));
    }

    #[test]
    fn ingest_requires_version_2() {
        let ok = Request::parse(
            br#"{"op":"ingest","version":2,"sequences":[[1.0,2.0],[3.0]]}"#,
            false,
        )
        .unwrap();
        assert_eq!(
            ok,
            Request::Ingest {
                sequences: vec![vec![1.0, 2.0], vec![3.0]]
            }
        );
        assert!(!ok.is_control());
        // Without version 2 the op is refused with the typed code …
        for frame in [
            &br#"{"op":"ingest","sequences":[[1.0]]}"#[..],
            br#"{"op":"ingest","version":1,"sequences":[[1.0]]}"#,
        ] {
            let err = Request::parse(frame, false).unwrap_err();
            assert_eq!(err.code, ErrorCode::UnsupportedVersion, "{frame:?}");
        }
        // … and malformed payloads are plain bad requests.
        for frame in [
            &br#"{"op":"ingest","version":2}"#[..],
            br#"{"op":"ingest","version":2,"sequences":[]}"#,
            br#"{"op":"ingest","version":2,"sequences":[[]]}"#,
            br#"{"op":"ingest","version":2,"sequences":[["x"]]}"#,
        ] {
            let err = Request::parse(frame, false).unwrap_err();
            assert_eq!(err.code, ErrorCode::BadRequest, "{frame:?}");
        }
    }
}
