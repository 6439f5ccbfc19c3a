//! The connection frontend shared by the query server and the shard
//! coordinator. It owns the accept loop and connection cap, the
//! per-connection frame loop and its drain rule, parsing, the control
//! ops, the tracing decision, the v4 `"timings"`/`"trace"` suffix, the
//! oversized-result clamp, the traced frame write and the slow-query
//! ring ([`SlowLog`]). An [`Executor`] answers the query ops: the
//! server's submits to its worker pool, the coordinator's scatters
//! inline. `run` is called on the connection thread, so the frontend
//! adds no thread hop.
//!
//! Drain: once shutdown is set the accept loop stops, each connection
//! closes after its current answer (or at its next idle read), the loop
//! joins them all, and only then drops the executor — so the server's
//! pool still serves those in-flight requests, then runs its queue dry.

use std::collections::VecDeque;
use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant, SystemTime};

use warptree_obs::{json as obs_json, MetricsRegistry, Trace};

use crate::proto::{
    self, error_response, ok_response, prepare_accepted, read_frame_idle_aware, reject_connection,
    ErrorCode, FrameEvent, Request,
};

/// How one front door names itself: metric prefix, thread names, trace
/// ids and the draining message all derive from these.
#[derive(Debug)]
pub struct Names {
    /// Metric name prefix (`server` → `server.bad_requests`, …).
    pub metrics: &'static str,
    /// Thread name prefix (`warptree` → `warptree-accept`,
    /// `warptree-conn`).
    pub threads: &'static str,
    /// Prefix of self-minted trace ids (`srv` → `srv-search-7`).
    pub traces: &'static str,
    /// What the process calls itself in the draining refusal
    /// (`server` → "server is draining").
    pub role: &'static str,
}

/// What [`Executor::run`] produced for a request that executed.
#[derive(Debug)]
pub struct Ran {
    /// The complete response (ok or typed error), before the v4
    /// suffix.
    pub resp: String,
    /// The request's service span, the parent of the `write` span.
    pub service_span: Option<u32>,
    /// Admission → start of execution (0 without an admission queue).
    pub queue_ns: u64,
    /// Start of execution → response built.
    pub service_ns: u64,
}

/// The query-answering half of a front door.
pub trait Executor: Send + Sync + 'static {
    /// State private to one client connection (e.g. shard sockets).
    type Conn;
    /// The names this front door reports under.
    const NAMES: Names;

    /// Fresh per-connection state, made on the connection thread.
    fn open_conn(&self) -> Self::Conn;
    /// The `health` response body (the fragment after `"op"`).
    fn health(&self) -> String;
    /// The `info` response body.
    fn info(&self) -> String;
    /// Refreshes gauges sampled on demand, right before `stats` or
    /// `metrics` snapshot the registry.
    fn refresh_gauges(&self);
    /// The generation reported in slow-query ring entries.
    fn generation(&self) -> u64;
    /// Answers one query op. `received` is when the frame arrived (the
    /// admission instant); `version` is the negotiated protocol
    /// version, so the executor can refuse what that version cannot
    /// express. `Err` carries a complete response for a request that
    /// never ran (refused at admission): it gets no timings and is not
    /// offered to the slow-query ring.
    fn run(
        &self,
        conn: &mut Self::Conn,
        req: Request,
        version: u32,
        trace: &Trace,
        received: Instant,
    ) -> Result<Ran, String>;
}

/// One front door: an executor plus the connection-layer settings.
pub struct Frontend<E: Executor> {
    /// Answers query ops; dropped after the last connection is joined.
    pub exec: Arc<E>,
    /// Where the frontend's own metrics go.
    pub registry: MetricsRegistry,
    /// The slow-query ring and tracing policy.
    pub slowlog: Arc<SlowLog>,
    /// Maximum concurrent connections; more get a typed `overloaded`
    /// frame and are closed without spawning a thread.
    pub max_conns: usize,
    /// Accept test-only ops (`debug_sleep`).
    pub allow_debug: bool,
}

/// Spawns the accept thread serving `listener` (already non-blocking)
/// until shutdown. `jobs` is the owner's background work, stopped
/// (dropped) once the drain has finished.
pub fn spawn<E: Executor, J>(
    listener: TcpListener,
    front: Frontend<E>,
    jobs: J,
) -> io::Result<Handle<J>> {
    let addr = listener.local_addr()?;
    let registry = front.registry.clone();
    let shutdown = Arc::new(AtomicBool::new(false));
    let metric = |name: &str| format!("{}.{name}", E::NAMES.metrics);
    let door = Arc::new(Door {
        front,
        shutdown: shutdown.clone(),
        response_bytes: metric("response_bytes"),
        request_ns: metric("request_ns"),
    });
    let accept = std::thread::Builder::new()
        .name(format!("{}-accept", E::NAMES.threads))
        .spawn(move || accept_loop(listener, door))?;
    Ok(Handle {
        addr,
        registry,
        shutdown,
        accept: Some(accept),
        jobs: Some(jobs),
    })
}

/// A handle to a running front door and its background `jobs`.
/// Dropping it requests shutdown and waits for the drain.
pub struct Handle<J> {
    addr: SocketAddr,
    registry: MetricsRegistry,
    shutdown: Arc<AtomicBool>,
    accept: Option<JoinHandle<()>>,
    jobs: Option<J>,
}

impl<J> Handle<J> {
    /// The actual bound address (resolves port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The metrics registry (shared with all components).
    pub fn registry(&self) -> &MetricsRegistry {
        &self.registry
    }

    /// Asks the process to drain and stop: the accept loop closes, each
    /// connection finishes its current request, queued work runs to
    /// completion. Non-blocking; follow with [`Handle::join`].
    pub fn request_shutdown(&self) {
        self.shutdown.store(true, Ordering::SeqCst);
    }

    /// `true` once shutdown has been requested (locally or via the
    /// protocol `shutdown` op).
    pub fn is_shutting_down(&self) -> bool {
        self.shutdown.load(Ordering::SeqCst)
    }

    /// Waits for the drain to complete. Implies
    /// [`Handle::request_shutdown`] having been called — joining a live
    /// process without it blocks until some shutdown trigger (e.g. a
    /// client's `shutdown` op) fires.
    pub fn join(mut self) {
        self.join_inner();
    }

    /// [`Handle::request_shutdown`] + [`Handle::join`].
    pub fn stop(self) {
        self.request_shutdown();
        self.join();
    }

    pub(crate) fn jobs(&self) -> Option<&J> {
        self.jobs.as_ref()
    }

    fn join_inner(&mut self) {
        if let Some(h) = self.accept.take() {
            let _ = h.join();
        }
        drop(self.jobs.take());
    }
}

impl<J> Drop for Handle<J> {
    fn drop(&mut self) {
        self.shutdown.store(true, Ordering::SeqCst);
        self.join_inner();
    }
}

/// A running front door, shared by the accept thread and every
/// connection thread.
struct Door<E: Executor> {
    front: Frontend<E>,
    /// Set by the `shutdown` op or the owning handle; starts the drain.
    shutdown: Arc<AtomicBool>,
    /// The two metrics every request touches, named once.
    response_bytes: String,
    request_ns: String,
}

impl<E: Executor> Door<E> {
    /// Bumps `<prefix>.<name>`: refusals and errors, off the per-request
    /// path.
    fn count(&self, name: &str) {
        count(&self.front.registry, E::NAMES.metrics, name);
    }

    /// An untraced response on the connection thread (parse errors,
    /// control ops, refusals).
    fn respond(&self, stream: &mut TcpStream, resp: &str) -> bool {
        let bytes = self.front.registry.counter(&self.response_bytes);
        proto::respond(stream, resp, &bytes, &Trace::noop(), None)
    }
}

fn count(registry: &MetricsRegistry, prefix: &str, name: &str) {
    registry.counter(&format!("{prefix}.{name}")).incr();
}

fn accept_loop<E: Executor>(listener: TcpListener, door: Arc<Door<E>>) {
    let front = &door.front;
    let mut conns: Vec<JoinHandle<()>> = Vec::new();
    while !door.shutdown.load(Ordering::SeqCst) {
        // Reap finished connections on every iteration — including idle
        // ones — so long-lived processes don't accumulate dead handles
        // and the cap below counts only live connections.
        conns.retain(|h| !h.is_finished());
        match listener.accept() {
            Ok((stream, _peer)) => {
                // Thread-per-connection needs a connection cap, or a
                // connection flood exhausts threads/memory before
                // admission control ever sees a request.
                if conns.len() >= front.max_conns {
                    door.count("rejected_overload");
                    door.count("rejected_conn_limit");
                    reject_connection(stream);
                    continue;
                }
                door.count("connections");
                let conn_door = door.clone();
                match std::thread::Builder::new()
                    .name(format!("{}-conn", E::NAMES.threads))
                    .spawn(move || handle_conn(stream, &conn_door))
                {
                    Ok(h) => conns.push(h),
                    Err(_) => door.count("errors"),
                }
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(5));
            }
            Err(_) => {
                door.count("errors");
                std::thread::sleep(Duration::from_millis(5));
            }
        }
    }
    // Drain: connections first (they may still need the executor's
    // workers for their in-flight requests), then the executor — the
    // last reference, so a worker pool inside it runs everything
    // already queued, then exits.
    for h in conns {
        let _ = h.join();
    }
    drop(door);
}

/// How many consecutive zero-progress 100 ms read timeouts we tolerate
/// *inside* a frame before giving up on the connection (~30 s). Between
/// frames the timeout just means "idle" and we poll the shutdown flag.
const FRAME_STALL_LIMIT: u32 = 300;

fn handle_conn<E: Executor>(mut stream: TcpStream, door: &Door<E>) {
    if prepare_accepted(&stream).is_err() {
        return;
    }
    let mut conn = door.front.exec.open_conn();
    loop {
        // The idle-aware reader reports a timeout as `Idle` only when
        // zero bytes of the next frame have been consumed; once a frame
        // has begun it retries timeouts internally, so a slow client
        // can never desynchronize the stream.
        match read_frame_idle_aware(&mut stream, FRAME_STALL_LIMIT) {
            Ok(FrameEvent::Frame(payload)) => {
                if !serve_one(&payload, &mut stream, door, &mut conn) {
                    return;
                }
                // During drain, close after answering rather than wait
                // for an idle window: a client polling faster than the
                // read timeout (a coordinator's health monitor, a tight
                // retry loop) would otherwise hold the drain open
                // indefinitely.
                if door.shutdown.load(Ordering::SeqCst) {
                    return;
                }
            }
            Ok(FrameEvent::Closed) => return, // clean close
            Ok(FrameEvent::Idle) => {
                if door.shutdown.load(Ordering::SeqCst) {
                    return; // idle at a frame boundary during drain
                }
            }
            Err(_) => return, // torn frame / mid-frame stall / reset
        }
    }
}

/// Handles one request frame. Returns `false` when the connection
/// should close.
fn serve_one<E: Executor>(
    payload: &[u8],
    stream: &mut TcpStream,
    door: &Door<E>,
    conn: &mut E::Conn,
) -> bool {
    let received = Instant::now();
    let front = &door.front;
    let (req, version, trace_opts) = match Request::parse_full(payload, front.allow_debug) {
        Ok(parsed) => parsed,
        Err(pe) => {
            door.count("bad_requests");
            if pe.code == ErrorCode::UnsupportedVersion {
                door.count("unsupported_version");
            }
            return door.respond(stream, &error_response(pe.code, &pe.message));
        }
    };

    if req.is_control() {
        let resp = clamp_oversized(
            control_response(&req, door),
            &front.registry,
            E::NAMES.metrics,
        );
        return door.respond(stream, &resp);
    }

    if door.shutdown.load(Ordering::SeqCst) {
        let draining = format!("{} is draining", E::NAMES.role);
        return door.respond(stream, &error_response(ErrorCode::ShuttingDown, &draining));
    }

    // Decide tracing at admission: a v4 client may demand it per
    // request; otherwise the 1-in-N sampler picks. One branch on the
    // untraced path — every downstream layer sees only the no-op
    // handle.
    let op = req.op_label();
    let trace_wanted = trace_opts.wanted;
    let trace = front
        .slowlog
        .start_trace(trace_wanted, trace_opts.trace_id, op);

    let (resp, ran) = match front.exec.run(conn, req, version, &trace, received) {
        Ok(mut ran) => {
            let resp = std::mem::take(&mut ran.resp);
            (
                with_timings(resp, version, &ran, &trace, trace_wanted),
                Some(ran),
            )
        }
        Err(resp) => (resp, None),
    };
    let resp = clamp_oversized(resp, &front.registry, E::NAMES.metrics);
    front
        .registry
        .histogram(&door.request_ns)
        .record(received.elapsed().as_nanos() as u64);
    let ok = proto::respond(
        stream,
        &resp,
        &front.registry.counter(&door.response_bytes),
        &trace,
        ran.as_ref().and_then(|r| r.service_span),
    );
    // Offered after the write, so a traced entry in the ring carries
    // the `write` span too (an inline trace is rendered into the
    // response before it is sent and cannot).
    if let Some(r) = ran {
        front.slowlog.offer(
            op,
            front.exec.generation(),
            r.queue_ns.saturating_add(r.service_ns),
            r.queue_ns,
            &trace,
        );
    }
    ok
}

/// For v4 clients, every ok response gains a `"timings"` object (queue
/// wait vs. service time) and, when the client asked for it, the span
/// tree as `"trace"`; older clients get the pre-tracing bytes.
fn with_timings(mut resp: String, version: u32, ran: &Ran, trace: &Trace, wanted: bool) -> String {
    if version >= 4 && resp.starts_with("{\"ok\":true") && resp.ends_with('}') {
        resp.pop();
        resp.push_str(&format!(
            ",\"timings\":{{\"queue_ns\":{},\"service_ns\":{}}}",
            ran.queue_ns, ran.service_ns
        ));
        if wanted {
            if let Some(data) = trace.finish() {
                resp.push_str(&format!(",\"trace\":{}", data.to_json()));
            }
        }
        resp.push('}');
    }
    resp
}

/// Replaces a response too large for one frame with a typed error.
/// Without this, `write_frame` rejects the oversized payload, the
/// connection closes, and the client only sees "closed mid-request" —
/// a broad search (large ε over a big corpus) must fail *explainably*.
fn clamp_oversized(resp: String, registry: &MetricsRegistry, prefix: &str) -> String {
    if resp.len() <= proto::MAX_FRAME as usize {
        return resp;
    }
    count(registry, prefix, "result_too_large");
    error_response(
        ErrorCode::ResultTooLarge,
        "serialized result exceeds the 4 MiB frame limit; narrow epsilon, lower max_len, or split the batch",
    )
}

fn control_response<E: Executor>(req: &Request, door: &Door<E>) -> String {
    let front = &door.front;
    match req {
        Request::Health => ok_response("health", &front.exec.health()),
        Request::Info => ok_response("info", &front.exec.info()),
        Request::Stats => {
            front.exec.refresh_gauges();
            ok_response(
                "stats",
                &format!("\"metrics\":{}", front.registry.snapshot().to_json()),
            )
        }
        Request::Slowlog => ok_response(
            "slowlog",
            &format!("\"entries\":{}", front.slowlog.to_json()),
        ),
        Request::Metrics => {
            // The exposition must show what queries see right now, not
            // the last refresh.
            front.exec.refresh_gauges();
            ok_response(
                "metrics",
                &format!(
                    "\"format\":\"prometheus-0.0.4\",\"exposition\":\"{}\"",
                    obs_json::escape(&front.registry.snapshot().to_prometheus())
                ),
            )
        }
        Request::Shutdown => {
            door.shutdown.store(true, Ordering::SeqCst);
            ok_response("shutdown", "\"draining\":true")
        }
        _ => unreachable!("non-control request routed to control_response"),
    }
}

/// One completed request (or background job) captured by the
/// slow-query ring: identity, where the time went, and — when it was
/// traced — the full span tree.
struct SlowEntry {
    op: &'static str,
    trace_id: String,
    unix_ms: u64,
    generation: u64,
    /// Total latency: queue wait + service.
    dur_ns: u64,
    queue_ns: u64,
    /// The serialized span tree, when the request was traced.
    trace_json: Option<String>,
}

/// Traces kept in the ring are capped so a pathological span tree
/// (huge fan-out at a broad ε) cannot pin megabytes per entry; the
/// entry survives with `"trace": null`.
const SLOWLOG_MAX_TRACE_BYTES: usize = 256 * 1024;

/// The bounded in-memory slow-query ring, shared by the request path
/// and any background workers. Push is O(1) under one short-held lock;
/// `{"op":"slowlog"}` renders newest-first. It also owns the tracing
/// policy: the request counter that drives 1-in-N sampling, trace-id
/// minting, and the slow-threshold test.
pub struct SlowLog {
    entries: Mutex<VecDeque<SlowEntry>>,
    capacity: usize,
    /// Threshold in ns; `u64::MAX` when threshold capture is disabled.
    slow_ns: u64,
    /// Sample every Nth request; `0` disables sampling.
    sample_every: u64,
    seen: AtomicU64,
    registry: MetricsRegistry,
    trace_prefix: &'static str,
    slow_queries: String,
    entries_gauge: String,
}

impl SlowLog {
    /// A ring of `capacity` entries keeping requests at or above
    /// `slow_ms` (0 disables threshold capture) and tracing 1 in
    /// `trace_sample` requests (0 disables sampling); metrics and trace
    /// ids are named after `names`.
    pub fn new(
        capacity: usize,
        slow_ms: u64,
        trace_sample: u64,
        registry: MetricsRegistry,
        names: &Names,
    ) -> SlowLog {
        SlowLog {
            entries: Mutex::new(VecDeque::new()),
            capacity,
            slow_ns: match slow_ms {
                0 => u64::MAX,
                ms => ms.saturating_mul(1_000_000),
            },
            sample_every: trace_sample,
            seen: AtomicU64::new(0),
            registry,
            trace_prefix: names.traces,
            slow_queries: format!("{}.slow_queries", names.metrics),
            entries_gauge: format!("{}.slowlog_entries", names.metrics),
        }
    }

    /// Decides, per admitted request, whether this one is traced by the
    /// 1-in-N sampler (the first request always is, so a freshly booted
    /// process with sampling on produces a trace immediately).
    fn sample(&self) -> bool {
        self.sample_every > 0
            && self
                .seen
                .fetch_add(1, Ordering::Relaxed)
                .is_multiple_of(self.sample_every)
    }

    /// The trace handle for one request or background job of kind
    /// `kind`: active when `wanted` (the client asked) or the sampler
    /// picks it, under `id` or a minted `<prefix>-<kind>-<n>` id
    /// (unique within the process, obviously synthetic next to
    /// client-supplied ids); the no-op handle otherwise.
    pub(crate) fn start_trace(&self, wanted: bool, id: Option<String>, kind: &str) -> Trace {
        if !(wanted || self.sample()) {
            return Trace::noop();
        }
        static SEQ: AtomicU64 = AtomicU64::new(0);
        Trace::active(id.unwrap_or_else(|| {
            let n = SEQ.fetch_add(1, Ordering::Relaxed);
            format!("{}-{kind}-{n}", self.trace_prefix)
        }))
    }

    /// Offers a completed request to the ring; it is kept when it was
    /// slow (threshold) or traced (sampled or client-requested traces
    /// are always worth keeping — they are why the ring exists).
    pub(crate) fn offer(
        &self,
        op: &'static str,
        generation: u64,
        dur_ns: u64,
        queue_ns: u64,
        trace: &Trace,
    ) {
        if dur_ns < self.slow_ns && !trace.is_active() {
            return;
        }
        let trace_json = trace
            .finish()
            .map(|data| data.to_json())
            .filter(|j| j.len() <= SLOWLOG_MAX_TRACE_BYTES);
        let entry = SlowEntry {
            op,
            trace_id: trace.id().unwrap_or_default().to_string(),
            unix_ms: SystemTime::now()
                .duration_since(SystemTime::UNIX_EPOCH)
                .map(|d| d.as_millis() as u64)
                .unwrap_or(0),
            generation,
            dur_ns,
            queue_ns,
            trace_json,
        };
        if dur_ns >= self.slow_ns {
            self.registry.counter(&self.slow_queries).incr();
        }
        let mut entries = self.entries.lock().unwrap_or_else(|p| p.into_inner());
        if self.capacity == 0 {
            return;
        }
        while entries.len() >= self.capacity {
            entries.pop_front();
        }
        entries.push_back(entry);
        self.registry
            .gauge(&self.entries_gauge)
            .set(entries.len() as f64);
    }

    /// The `{"op":"slowlog"}` body: entries as a JSON array, newest
    /// first (the entry an operator is chasing is almost always the
    /// most recent one).
    pub(crate) fn to_json(&self) -> String {
        let entries = self.entries.lock().unwrap_or_else(|p| p.into_inner());
        let mut out = String::from("[");
        for (i, e) in entries.iter().rev().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "{{\"op\":\"{}\",\"trace_id\":\"{}\",\"unix_ms\":{},\"generation\":{},\"dur_ns\":{},\"queue_ns\":{},\"trace\":{}}}",
                e.op,
                obs_json::escape(&e.trace_id),
                e.unix_ms,
                e.generation,
                e.dur_ns,
                e.queue_ns,
                e.trace_json.as_deref().unwrap_or("null"),
            ));
        }
        out.push(']');
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::{self, Json};

    const NAMES: Names = Names {
        metrics: "test",
        threads: "test",
        traces: "t",
        role: "test",
    };

    #[test]
    fn oversized_responses_become_typed_errors() {
        let registry = MetricsRegistry::new();
        let small = clamp_oversized("{\"ok\":true}".to_string(), &registry, "test");
        assert_eq!(small, "{\"ok\":true}");

        let clamped = clamp_oversized("x".repeat(proto::MAX_FRAME as usize + 1), &registry, "test");
        assert!(
            clamped.contains("\"code\":\"result_too_large\""),
            "{clamped}"
        );
        assert!(clamped.len() <= proto::MAX_FRAME as usize);
        assert_eq!(
            registry
                .snapshot()
                .counters
                .get("test.result_too_large")
                .copied(),
            Some(1)
        );
    }

    #[test]
    fn ring_keeps_slow_and_traced_entries_newest_first() {
        let log = SlowLog::new(2, 1, 0, MetricsRegistry::new(), &NAMES);
        // Below threshold, untraced: dropped.
        log.offer("search", 1, 100, 0, &Trace::noop());
        assert_eq!(log.to_json(), "[]");
        // Slow entries land; capacity 2 evicts the oldest.
        log.offer("search", 1, 2_000_000, 0, &Trace::noop());
        log.offer("knn", 1, 3_000_000, 0, &Trace::noop());
        log.offer("batch", 2, 4_000_000, 0, &Trace::noop());
        let v = json::parse(&log.to_json()).unwrap();
        let arr = v.as_arr().unwrap();
        assert_eq!(arr.len(), 2);
        assert_eq!(arr[0].get("op").and_then(Json::as_str), Some("batch"));
        assert_eq!(arr[1].get("op").and_then(Json::as_str), Some("knn"));
        // A traced fast request is kept (traces are why the ring exists).
        let log = SlowLog::new(4, 0, 0, MetricsRegistry::new(), &NAMES);
        let trace = Trace::active("t-1");
        drop(trace.span("test.service"));
        log.offer("search", 1, 10, 0, &trace);
        let v = json::parse(&log.to_json()).unwrap();
        assert_eq!(v.as_arr().unwrap().len(), 1);
    }

    #[test]
    fn sampler_fires_first_and_every_nth() {
        let log = SlowLog::new(1, 0, 3, MetricsRegistry::new(), &NAMES);
        let picks: Vec<bool> = (0..6)
            .map(|_| log.start_trace(false, None, "search").is_active())
            .collect();
        assert_eq!(picks, vec![true, false, false, true, false, false]);
        let off = SlowLog::new(1, 0, 0, MetricsRegistry::new(), &NAMES);
        assert!(!off.start_trace(false, None, "search").is_active());
        // A client-requested trace is always on, under the client's id
        // when it sent one and a minted one otherwise.
        let t = off.start_trace(true, Some("mine".into()), "search");
        assert_eq!(t.id(), Some("mine"));
        let t = off.start_trace(true, None, "knn");
        assert!(t.id().unwrap().starts_with("t-knn-"), "{:?}", t.id());
    }
}
