//! The TCP query server: accept loop, per-connection protocol
//! handling, admission control, deadlines, metrics, graceful drain.
//!
//! ## Threading model
//!
//! One non-blocking accept loop; one thread per connection; a
//! fixed-size [`WorkerPool`] that actually executes queries. The
//! connection thread parses a frame, classifies it ([control
//! ops](crate::proto::Request::is_control) answer inline, so `health`
//! and `stats` keep responding even when every worker is busy), and
//! submits query work to the pool. Submission is the admission point:
//! a full queue fails the request *now* with `overloaded` rather than
//! queueing unbounded latency, and a request whose deadline passes
//! while queued is dropped at dequeue with `deadline_exceeded` (the
//! work is never started — wasted-work avoidance under overload).
//!
//! ## Snapshot discipline
//!
//! Each query pins the current [`SnapshotCell`] value once, at
//! execution start, and uses only that `Arc` for its whole lifetime —
//! never re-reading the cell mid-request. The response's
//! `"generation"` field reports which snapshot answered; concurrent
//! hot reloads change which snapshot *new* requests pin, nothing else.

use std::collections::VecDeque;
use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant, SystemTime};

use warptree_core::search::{AnswerSet, QueryOutput, QueryRequest, SearchMetrics, SearchStats};
use warptree_core::sequence::SequenceStore;
use warptree_disk::{
    append_segment_with, compact_once_with, open_dir_snapshot_with, quarantine_segment_with,
    real_vfs, scrub_dir_with, DegradedError, DirSnapshot, DiskError, Vfs,
};
use warptree_obs::{json as obs_json, MetricsRegistry, Trace};

use crate::http::MetricsHttp;
use crate::pool::{SubmitError, WorkerPool};
use crate::proto::{
    self, error_response, ok_response, prepare_accepted, read_frame_idle_aware, reject_connection,
    ErrorCode, FrameEvent, Request,
};
use crate::snapshot::{instrument_snapshot, ReloadWatcher, SnapshotCell};

/// Configuration of a [`Server`].
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Bind address; port 0 picks a free port (see
    /// [`ServerHandle::addr`]).
    pub addr: String,
    /// Worker threads executing queries.
    pub workers: usize,
    /// Bounded queue capacity — the admission-control knob. Requests
    /// beyond `workers` running + `queue_depth` queued are rejected
    /// `overloaded`.
    pub queue_depth: usize,
    /// Per-request deadline, measured from admission. Enforced at
    /// dequeue (expired requests are dropped unstarted) and between
    /// `batch` items; a single running search is never interrupted
    /// mid-query, so cap per-query cost with
    /// [`ServerConfig::max_query_len`].
    pub deadline: Duration,
    /// How often the reload watcher polls the commit manifest.
    pub reload_interval: Duration,
    /// Longest accepted query; longer ones fail `bad_request` (the
    /// filter cost is quadratic in query length, so this caps
    /// per-request work).
    pub max_query_len: usize,
    /// Page-cache size for newly opened snapshots.
    pub cache_pages: usize,
    /// Maximum concurrent connections (the server is
    /// thread-per-connection, so this bounds connection threads).
    /// Connections beyond the cap receive a typed `overloaded` error
    /// frame and are closed without spawning a thread.
    pub max_conns: usize,
    /// Accept test-only protocol ops (`debug_sleep`). Never enable in
    /// production serving.
    pub enable_debug_ops: bool,
    /// Cap on per-request `parallelism` (worker subthreads one query
    /// may spawn — the `--threads` serve flag). Requests asking for
    /// more are silently clamped; the default of 1 keeps every query
    /// sequential unless the operator opts in. Results are
    /// byte-identical at every setting, so clamping never changes an
    /// answer.
    pub max_parallelism: u32,
    /// Tail-segment count at which the background compactor starts
    /// folding segments back together (LSM-style, using the paper's
    /// binary merge). `0` disables background compaction — tails then
    /// accumulate until an offline `warptree compact`.
    pub compact_threshold: usize,
    /// How often the compaction worker checks the tail-segment count.
    pub compact_interval: Duration,
    /// How often the background scrubber walks every committed page
    /// through the CRC-checked read path, tombstoning segments that
    /// fail and healing quarantined ones by rebuilding them from the
    /// corpus. [`Duration::ZERO`] disables background scrubbing (the
    /// offline `warptree scrub` command remains available).
    pub scrub_interval: Duration,
    /// Slow-query threshold in milliseconds: any pool-executed request
    /// (or background job) whose total latency — queue wait included —
    /// reaches this lands in the in-memory slow-query ring served by
    /// `{"op":"slowlog"}`. `0` disables threshold capture (sampled
    /// traces still land in the ring).
    pub slow_ms: u64,
    /// Trace 1 in N pool-executed requests end to end (span tree over
    /// the whole search funnel) even when the client didn't ask; the
    /// resulting traces land in the slow-query ring. `0` disables
    /// sampling — clients can still request a trace per query
    /// (`"trace": true` at protocol version ≥ 4).
    pub trace_sample: u64,
    /// Capacity of the slow-query ring; oldest entries fall off.
    pub slowlog_capacity: usize,
    /// When set, serve `GET /metrics` (Prometheus text exposition
    /// 0.0.4) over plain HTTP on this address, alongside the framed
    /// protocol's `{"op":"metrics"}`.
    pub metrics_addr: Option<String>,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            workers: 4,
            queue_depth: 64,
            deadline: Duration::from_secs(5),
            reload_interval: Duration::from_millis(200),
            max_query_len: 4096,
            cache_pages: 256,
            max_conns: 256,
            enable_debug_ops: false,
            max_parallelism: 1,
            compact_threshold: 4,
            compact_interval: Duration::from_millis(500),
            scrub_interval: Duration::ZERO,
            slow_ms: 500,
            trace_sample: 0,
            slowlog_capacity: 128,
            metrics_addr: None,
        }
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

/// The bounded in-memory slow-query ring, shared by the request path
/// and the background workers. Push is O(1) under one short-held lock;
/// `{"op":"slowlog"}` renders newest-first. It also owns the tracing
/// policy: the request counter that drives 1-in-N sampling and the
/// slow-threshold test.
struct SlowLog {
    entries: Mutex<VecDeque<SlowEntry>>,
    capacity: usize,
    /// Threshold in ns; `u64::MAX` when threshold capture is disabled.
    slow_ns: u64,
    /// Sample every Nth request; `0` disables sampling.
    sample_every: u64,
    seen: AtomicU64,
    registry: MetricsRegistry,
}

/// Traces kept in the ring are capped so a pathological span tree
/// (huge fan-out at a broad ε) cannot pin megabytes per entry; the
/// entry survives with `"trace": null`.
const SLOWLOG_MAX_TRACE_BYTES: usize = 256 * 1024;

impl SlowLog {
    fn new(config: &ServerConfig, registry: MetricsRegistry) -> SlowLog {
        SlowLog {
            entries: Mutex::new(VecDeque::new()),
            capacity: config.slowlog_capacity,
            slow_ns: match config.slow_ms {
                0 => u64::MAX,
                ms => ms.saturating_mul(1_000_000),
            },
            sample_every: config.trace_sample,
            seen: AtomicU64::new(0),
            registry,
        }
    }

    /// Decides, per admitted request, whether this one is traced by the
    /// 1-in-N sampler (the first request always is, so a freshly booted
    /// server with sampling on produces a trace immediately).
    fn sample(&self) -> bool {
        self.sample_every > 0
            && self
                .seen
                .fetch_add(1, Ordering::Relaxed)
                .is_multiple_of(self.sample_every)
    }

    /// Offers a completed request to the ring; it is kept when it was
    /// slow (threshold) or traced (sampled or client-requested traces
    /// are always worth keeping — they are why the ring exists).
    fn offer(&self, op: &'static str, generation: u64, dur_ns: u64, queue_ns: u64, trace: &Trace) {
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
            self.registry.counter("server.slow_queries").incr();
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
            .gauge("server.slowlog_entries")
            .set(entries.len() as f64);
    }

    /// The `{"op":"slowlog"}` body: entries as a JSON array, newest
    /// first (the entry an operator is chasing is almost always the
    /// most recent one).
    fn to_json(&self) -> String {
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

/// Trace ids for server-initiated traces (sampled requests, background
/// jobs): unique within the process, compact, and obviously synthetic
/// (`srv-…`) next to client-supplied ids.
fn next_trace_id(kind: &str) -> String {
    static SEQ: AtomicU64 = AtomicU64::new(0);
    format!("srv-{kind}-{}", SEQ.fetch_add(1, Ordering::Relaxed))
}

/// Shared write-path state: `ingest` requests and the background
/// compactor both commit new manifest generations, so they serialize
/// on [`IngestState::writer`] — two committers racing would both read
/// the same old generation and one commit would be lost.
struct IngestState {
    vfs: Arc<dyn Vfs>,
    dir: PathBuf,
    /// Serializes every manifest-committing writer (ingest +
    /// compaction). Readers never take it: queries run on pinned
    /// snapshots and reloads only ever open committed generations.
    writer: Mutex<()>,
    cell: Arc<SnapshotCell>,
    registry: MetricsRegistry,
    cache_pages: usize,
    /// Background jobs (compaction, scrub) report into the same ring
    /// as slow requests, so `slowlog` shows *everything* that ate time.
    slowlog: Arc<SlowLog>,
}

impl IngestState {
    /// Reopens the committed generation and publishes it, so the
    /// committing request observes its own write immediately instead
    /// of waiting for the reload watcher's next poll.
    fn publish(&self) -> Result<Arc<DirSnapshot>, DiskError> {
        let snap = Arc::new(open_dir_snapshot_with(
            self.vfs.as_ref(),
            &self.dir,
            self.cache_pages,
        )?);
        instrument_snapshot(&snap, &self.registry);
        self.cell.swap(snap.clone());
        Ok(snap)
    }

    /// The writer lock, surviving a poisoned-by-panic previous holder:
    /// a torn commit is exactly what the recovery sweep at the next
    /// open handles, so poisoning carries no extra meaning here.
    fn lock_writer(&self) -> std::sync::MutexGuard<'_, ()> {
        self.writer.lock().unwrap_or_else(|p| p.into_inner())
    }
}

/// Background compactor: whenever the tail-segment count reaches the
/// threshold, folds the cheapest adjacent pair with the paper's binary
/// merge (one manifest generation per fold) and republishes. In-flight
/// queries keep their pinned snapshots, so compaction is invisible to
/// readers except in `info`'s segment count.
struct CompactionWorker {
    stop: Arc<AtomicBool>,
    handle: Option<JoinHandle<()>>,
}

impl CompactionWorker {
    fn spawn(state: Arc<IngestState>, threshold: usize, interval: Duration) -> io::Result<Self> {
        let stop = Arc::new(AtomicBool::new(false));
        let stop2 = stop.clone();
        let handle = std::thread::Builder::new()
            .name("warptree-compact".to_string())
            .spawn(move || compact_loop(&state, threshold, interval, &stop2))?;
        Ok(CompactionWorker {
            stop,
            handle: Some(handle),
        })
    }

    fn stop(mut self) {
        self.stop.store(true, Ordering::SeqCst);
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
    }
}

fn compact_loop(state: &IngestState, threshold: usize, interval: Duration, stop: &AtomicBool) {
    while !stop.load(Ordering::SeqCst) {
        std::thread::sleep(interval);
        // Fold until back under threshold; each iteration re-reads the
        // published snapshot, so concurrent ingests extend the loop and
        // a failed fold ends it (retried after the next sleep).
        while !stop.load(Ordering::SeqCst)
            && state.cell.get().segment_count().saturating_sub(1) >= threshold
        {
            let _guard = state.lock_writer();
            let trace = if state.slowlog.sample() {
                Trace::active(next_trace_id("compact"))
            } else {
                Trace::noop()
            };
            let span = trace.span("job.compact");
            let t0 = Instant::now();
            let outcome = compact_once_with(state.vfs.as_ref(), &state.dir, &state.registry);
            let folded = matches!(outcome, Ok(Some(_)));
            let mut failed = false;
            match outcome {
                Ok(Some(_)) => {
                    if state.publish().is_err() {
                        state.registry.counter("server.compaction_errors").incr();
                        failed = true;
                    }
                }
                Ok(None) => {} // nothing left to fold
                Err(_) => {
                    state.registry.counter("server.compaction_errors").incr();
                    failed = true;
                }
            }
            if span.is_active() {
                span.attr_u64("folded", folded as u64);
            }
            drop(span);
            // Meter only passes that did (or tried to do) real work — a
            // nothing-to-fold probe would poison the duration histogram
            // with near-zero samples.
            if folded || failed {
                let dur_ns = t0.elapsed().as_nanos() as u64;
                state.registry.histogram("server.compact_ns").record(dur_ns);
                state
                    .slowlog
                    .offer("compact", state.cell.get().generation, dur_ns, 0, &trace);
            }
            if !folded || failed {
                break;
            }
        }
    }
}

/// Background scrubber: on an interval, walks every committed page
/// through the CRC-checked read path ([`scrub_dir_with`]), tombstoning
/// segments that fail and healing quarantined segments by rebuilding
/// them from the (intact) corpus — the server's self-repair loop.
struct ScrubWorker {
    stop: Arc<AtomicBool>,
    handle: Option<JoinHandle<()>>,
}

impl ScrubWorker {
    fn spawn(state: Arc<IngestState>, interval: Duration) -> io::Result<Self> {
        let stop = Arc::new(AtomicBool::new(false));
        let stop2 = stop.clone();
        let handle = std::thread::Builder::new()
            .name("warptree-scrub".to_string())
            .spawn(move || scrub_loop(&state, interval, &stop2))?;
        Ok(ScrubWorker {
            stop,
            handle: Some(handle),
        })
    }

    fn stop(mut self) {
        self.stop.store(true, Ordering::SeqCst);
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
    }
}

fn scrub_loop(state: &IngestState, interval: Duration, stop: &AtomicBool) {
    // Sleep in small slices so stop() returns promptly even with a
    // long scrub interval.
    let slice = interval
        .min(Duration::from_millis(50))
        .max(Duration::from_millis(1));
    let mut elapsed = Duration::ZERO;
    while !stop.load(Ordering::SeqCst) {
        if elapsed < interval {
            std::thread::sleep(slice);
            elapsed += slice;
            continue;
        }
        elapsed = Duration::ZERO;
        // The scrub commits manifest generations (quarantine, heal), so
        // it serializes with ingest and compaction like any writer.
        let _guard = state.lock_writer();
        let trace = if state.slowlog.sample() {
            Trace::active(next_trace_id("scrub"))
        } else {
            Trace::noop()
        };
        let span = trace.span("job.scrub");
        let t0 = Instant::now();
        match scrub_dir_with(state.vfs.as_ref(), &state.dir, true, &state.registry) {
            Ok(report) => {
                if span.is_active() {
                    span.attr_u64("healed", report.healed.len() as u64);
                    span.attr_u64("newly_quarantined", report.newly_quarantined.len() as u64);
                }
                if !report.healed.is_empty() {
                    state
                        .registry
                        .counter("server.scrub_heals")
                        .add(report.healed.len() as u64);
                }
                if report.unrecoverable.is_some() {
                    state.registry.counter("server.scrub_errors").incr();
                }
                if !report.newly_quarantined.is_empty() || !report.healed.is_empty() {
                    // The manifest moved; republish promptly instead of
                    // waiting for the reload watcher's next poll.
                    if state.publish().is_err() {
                        state.registry.counter("server.scrub_errors").incr();
                    }
                }
            }
            Err(_) => state.registry.counter("server.scrub_errors").incr(),
        }
        drop(span);
        let dur_ns = t0.elapsed().as_nanos() as u64;
        state.registry.histogram("server.scrub_ns").record(dur_ns);
        state
            .slowlog
            .offer("scrub", state.cell.get().generation, dur_ns, 0, &trace);
    }
}

/// Everything a connection or worker needs, shared behind one `Arc`.
struct Ctx {
    cell: Arc<SnapshotCell>,
    registry: MetricsRegistry,
    /// One registry-backed bundle shared by *all* queries — per-process
    /// totals (the `stats` op view), not per-request.
    search_metrics: SearchMetrics,
    ingest: Arc<IngestState>,
    shutdown: Arc<AtomicBool>,
    deadline: Duration,
    max_query_len: usize,
    workers: usize,
    queue_depth: usize,
    max_conns: usize,
    enable_debug_ops: bool,
    max_parallelism: u32,
    slowlog: Arc<SlowLog>,
}

/// The server factory. Construct with [`Server::start`] (real
/// filesystem, fresh registry) or [`Server::start_with`] (injected
/// [`Vfs`] and registry — tests and embedding).
pub struct Server;

impl Server {
    /// Opens the committed generation of `dir` and serves it.
    pub fn start(dir: &Path, config: ServerConfig) -> io::Result<ServerHandle> {
        Server::start_with(real_vfs(), dir, config, MetricsRegistry::new())
    }

    /// [`Server::start`] with an injected filesystem and metrics
    /// registry.
    pub fn start_with(
        vfs: Arc<dyn Vfs>,
        dir: &Path,
        config: ServerConfig,
        registry: MetricsRegistry,
    ) -> io::Result<ServerHandle> {
        let snapshot = open_dir_snapshot_with(vfs.as_ref(), dir, config.cache_pages)
            .map_err(|e| io::Error::other(format!("open index dir: {e}")))?;
        instrument_snapshot(&snapshot, &registry);
        let cell = Arc::new(SnapshotCell::new(Arc::new(snapshot)));
        let shutdown = Arc::new(AtomicBool::new(false));
        let slowlog = Arc::new(SlowLog::new(&config, registry.clone()));
        let ingest = Arc::new(IngestState {
            vfs: vfs.clone(),
            dir: dir.to_path_buf(),
            writer: Mutex::new(()),
            cell: cell.clone(),
            registry: registry.clone(),
            cache_pages: config.cache_pages,
            slowlog: slowlog.clone(),
        });
        let ctx = Arc::new(Ctx {
            cell: cell.clone(),
            registry: registry.clone(),
            search_metrics: SearchMetrics::register(&registry),
            ingest: ingest.clone(),
            shutdown: shutdown.clone(),
            deadline: config.deadline,
            max_query_len: config.max_query_len,
            workers: config.workers,
            queue_depth: config.queue_depth,
            max_conns: config.max_conns,
            enable_debug_ops: config.enable_debug_ops,
            max_parallelism: config.max_parallelism,
            slowlog,
        });

        let metrics_http = match &config.metrics_addr {
            Some(addr) => Some(MetricsHttp::spawn(addr, registry.clone())?),
            None => None,
        };

        let listener = TcpListener::bind(&config.addr)?;
        let addr = listener.local_addr()?;
        listener.set_nonblocking(true)?;

        let watcher = ReloadWatcher::spawn(
            vfs,
            dir.to_path_buf(),
            cell,
            registry.clone(),
            config.reload_interval,
            config.cache_pages,
        );

        let compactor = if config.compact_threshold > 0 {
            Some(CompactionWorker::spawn(
                ingest.clone(),
                config.compact_threshold,
                config.compact_interval,
            )?)
        } else {
            None
        };

        let scrubber = if config.scrub_interval > Duration::ZERO {
            Some(ScrubWorker::spawn(ingest, config.scrub_interval)?)
        } else {
            None
        };

        let pool = Arc::new(WorkerPool::new(
            config.workers,
            config.queue_depth,
            registry.gauge("server.queue_depth"),
        ));

        let accept_ctx = ctx.clone();
        let accept = std::thread::Builder::new()
            .name("warptree-accept".to_string())
            .spawn(move || accept_loop(listener, accept_ctx, pool))?;

        Ok(ServerHandle {
            addr,
            shutdown,
            registry,
            accept: Some(accept),
            watcher: Some(watcher),
            compactor,
            scrubber,
            metrics_http,
        })
    }
}

/// A handle to a running server.
pub struct ServerHandle {
    addr: SocketAddr,
    shutdown: Arc<AtomicBool>,
    registry: MetricsRegistry,
    accept: Option<JoinHandle<()>>,
    watcher: Option<ReloadWatcher>,
    compactor: Option<CompactionWorker>,
    scrubber: Option<ScrubWorker>,
    metrics_http: Option<MetricsHttp>,
}

impl ServerHandle {
    /// The actual bound address (resolves port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The bound address of the HTTP `GET /metrics` endpoint, when
    /// [`ServerConfig::metrics_addr`] was set.
    pub fn metrics_addr(&self) -> Option<SocketAddr> {
        self.metrics_http.as_ref().map(|h| h.addr())
    }

    /// The server's metrics registry (shared with all components).
    pub fn registry(&self) -> &MetricsRegistry {
        &self.registry
    }

    /// Asks the server to drain and stop: the accept loop closes, each
    /// connection finishes its current request, queued work runs to
    /// completion. Non-blocking; follow with [`ServerHandle::join`].
    pub fn request_shutdown(&self) {
        self.shutdown.store(true, Ordering::SeqCst);
    }

    /// `true` once shutdown has been requested (locally or via the
    /// protocol `shutdown` op).
    pub fn is_shutting_down(&self) -> bool {
        self.shutdown.load(Ordering::SeqCst)
    }

    /// Waits for the drain to complete. Implies
    /// [`ServerHandle::request_shutdown`] having been called — joining
    /// a live server without it blocks until some shutdown trigger
    /// (e.g. a client's `shutdown` op) fires.
    pub fn join(mut self) {
        if let Some(h) = self.accept.take() {
            let _ = h.join();
        }
        // Writers stop before the watcher: a compaction or scrub
        // finishing here must not be left unpublished-forever by a
        // dead watcher.
        if let Some(c) = self.compactor.take() {
            c.stop();
        }
        if let Some(s) = self.scrubber.take() {
            s.stop();
        }
        if let Some(w) = self.watcher.take() {
            w.stop();
        }
        if let Some(m) = self.metrics_http.take() {
            m.stop();
        }
    }

    /// [`ServerHandle::request_shutdown`] + [`ServerHandle::join`].
    pub fn stop(self) {
        self.request_shutdown();
        self.join();
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        self.shutdown.store(true, Ordering::SeqCst);
        if let Some(h) = self.accept.take() {
            let _ = h.join();
        }
        if let Some(c) = self.compactor.take() {
            c.stop();
        }
        if let Some(s) = self.scrubber.take() {
            s.stop();
        }
        if let Some(w) = self.watcher.take() {
            w.stop();
        }
        if let Some(m) = self.metrics_http.take() {
            m.stop();
        }
    }
}

fn accept_loop(listener: TcpListener, ctx: Arc<Ctx>, pool: Arc<WorkerPool>) {
    let mut conns: Vec<JoinHandle<()>> = Vec::new();
    while !ctx.shutdown.load(Ordering::SeqCst) {
        // Reap finished connections on every iteration — including idle
        // ones — so long-lived servers don't accumulate dead handles
        // and the cap below counts only live connections.
        conns.retain(|h| !h.is_finished());
        match listener.accept() {
            Ok((stream, _peer)) => {
                // Thread-per-connection needs a connection cap, or a
                // connection flood exhausts threads/memory before
                // admission control ever sees a request.
                if conns.len() >= ctx.max_conns {
                    ctx.registry.counter("server.rejected_overload").incr();
                    ctx.registry.counter("server.rejected_conn_limit").incr();
                    reject_connection(stream);
                    continue;
                }
                ctx.registry.counter("server.connections").incr();
                let conn_ctx = ctx.clone();
                let pool = pool.clone();
                match std::thread::Builder::new()
                    .name("warptree-conn".to_string())
                    .spawn(move || handle_conn(stream, &conn_ctx, &pool))
                {
                    Ok(h) => conns.push(h),
                    Err(_) => ctx.registry.counter("server.errors").incr(),
                }
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(5));
            }
            Err(_) => {
                ctx.registry.counter("server.errors").incr();
                std::thread::sleep(Duration::from_millis(5));
            }
        }
    }
    // Drain: connections first (they still need live workers for their
    // in-flight requests), then the pool (runs everything already
    // queued, then exits).
    for h in conns {
        let _ = h.join();
    }
    drop(pool); // last reference → WorkerPool::drop drains and joins
}

/// How many consecutive zero-progress 100 ms read timeouts we tolerate
/// *inside* a frame before giving up on the connection (~30 s). Between
/// frames the timeout just means "idle" and we poll the shutdown flag.
const FRAME_STALL_LIMIT: u32 = 300;

fn handle_conn(mut stream: TcpStream, ctx: &Ctx, pool: &WorkerPool) {
    if prepare_accepted(&stream).is_err() {
        return;
    }
    loop {
        // The idle-aware reader reports a timeout as `Idle` only when
        // zero bytes of the next frame have been consumed; once a frame
        // has begun it retries timeouts internally, so a slow client
        // can never desynchronize the stream.
        match read_frame_idle_aware(&mut stream, FRAME_STALL_LIMIT) {
            Ok(FrameEvent::Frame(payload)) => {
                if !serve_one(&payload, &mut stream, ctx, pool) {
                    return;
                }
                // During drain, close after answering rather than wait
                // for an idle window: a client polling faster than the
                // read timeout (a coordinator's health monitor, a tight
                // retry loop) would otherwise hold the drain open
                // indefinitely.
                if ctx.shutdown.load(Ordering::SeqCst) {
                    return;
                }
            }
            Ok(FrameEvent::Closed) => return, // clean close
            Ok(FrameEvent::Idle) => {
                if ctx.shutdown.load(Ordering::SeqCst) {
                    return; // idle at a frame boundary during drain
                }
            }
            Err(_) => return, // torn frame / mid-frame stall / reset
        }
    }
}

/// Handles one request frame. Returns `false` when the connection
/// should close.
fn serve_one(payload: &[u8], stream: &mut TcpStream, ctx: &Ctx, pool: &WorkerPool) -> bool {
    let started = Instant::now();
    let (req, proto_version, trace_opts) = match Request::parse_full(payload, ctx.enable_debug_ops)
    {
        Ok(parsed) => parsed,
        Err(pe) => {
            ctx.registry.counter("server.bad_requests").incr();
            if pe.code == ErrorCode::UnsupportedVersion {
                ctx.registry.counter("server.unsupported_version").incr();
            }
            return respond(stream, ctx, &error_response(pe.code, &pe.message));
        }
    };

    if req.is_control() {
        let resp = clamp_oversized(control_response(&req, ctx), &ctx.registry);
        return respond(stream, ctx, &resp);
    }

    if ctx.shutdown.load(Ordering::SeqCst) {
        return respond(
            stream,
            ctx,
            &error_response(ErrorCode::ShuttingDown, "server is draining"),
        );
    }

    // Decide tracing at admission: a v4 client may demand it per
    // request; otherwise the 1-in-N sampler picks. One branch on the
    // untraced path — every downstream layer sees only the no-op
    // handle.
    let trace_wanted = trace_opts.wanted;
    let trace = if trace_wanted || ctx.slowlog.sample() {
        Trace::active(
            trace_opts
                .trace_id
                .unwrap_or_else(|| next_trace_id(req.op_label())),
        )
    } else {
        Trace::noop()
    };

    // Query work goes through the bounded pool: the admission point.
    let op = req.op_label();
    let (tx, rx) = mpsc::channel::<(String, Option<Timed>)>();
    let deadline = started + ctx.deadline;
    let job_ctx = JobCtx {
        cell: ctx.cell.clone(),
        search_metrics: ctx.search_metrics.clone(),
        registry: ctx.registry.clone(),
        ingest: ctx.ingest.clone(),
        max_query_len: ctx.max_query_len,
        max_parallelism: ctx.max_parallelism,
        deadline,
        proto_version,
        trace: trace.clone(),
        trace_wanted,
    };
    let job = Box::new(move || {
        let done = if Instant::now() > deadline {
            job_ctx.registry.counter("server.deadline_exceeded").incr();
            (
                error_response(
                    ErrorCode::DeadlineExceeded,
                    "deadline expired before a worker was available",
                ),
                None,
            )
        } else {
            run_timed(&job_ctx, req, started)
        };
        let _ = tx.send(done);
    });

    let (resp, timed) = match pool.try_submit(job) {
        Ok(()) => {
            ctx.registry.counter("server.accepted").incr();
            match rx.recv() {
                Ok(done) => done,
                // Worker panicked mid-query (sender dropped); the pool
                // survives, this request does not.
                Err(_) => {
                    ctx.registry.counter("server.internal_errors").incr();
                    (
                        error_response(ErrorCode::Internal, "query execution failed"),
                        None,
                    )
                }
            }
        }
        Err(SubmitError::Overloaded) => {
            ctx.registry.counter("server.rejected_overload").incr();
            (
                error_response(
                    ErrorCode::Overloaded,
                    "request queue is full; retry with backoff",
                ),
                None,
            )
        }
        Err(SubmitError::ShuttingDown) => {
            ctx.registry.counter("server.rejected_shutdown").incr();
            (
                error_response(ErrorCode::ShuttingDown, "server is draining"),
                None,
            )
        }
    };
    let resp = clamp_oversized(resp, &ctx.registry);
    ctx.registry
        .histogram("server.request_ns")
        .record(started.elapsed().as_nanos() as u64);
    let service_span = timed.as_ref().and_then(|t| t.service_span);
    let ok = proto::respond(
        stream,
        &resp,
        &ctx.registry.counter("server.response_bytes"),
        &trace,
        service_span,
    );
    // Offered after the write, so a traced entry in the ring carries
    // the `write` span too (an inline trace is rendered into the
    // response before it is sent and cannot).
    if let Some(t) = timed {
        ctx.slowlog.offer(
            op,
            ctx.cell.get().generation,
            t.queue_ns.saturating_add(t.service_ns),
            t.queue_ns,
            &trace,
        );
    }
    ok
}

/// Replaces a response too large for one frame with a typed error.
/// Without this, `write_frame` rejects the oversized payload, the
/// connection closes, and the client only sees "closed mid-request" —
/// a broad search (large ε over a big corpus) must fail *explainably*.
fn clamp_oversized(resp: String, registry: &MetricsRegistry) -> String {
    if resp.len() <= proto::MAX_FRAME as usize {
        return resp;
    }
    registry.counter("server.result_too_large").incr();
    error_response(
        ErrorCode::ResultTooLarge,
        "serialized result exceeds the 4 MiB frame limit; narrow epsilon, lower max_len, or split the batch",
    )
}

/// An untraced response on the connection thread (parse errors,
/// control ops, refusals).
fn respond(stream: &mut TcpStream, ctx: &Ctx, resp: &str) -> bool {
    let bytes = ctx.registry.counter("server.response_bytes");
    proto::respond(stream, resp, &bytes, &Trace::noop(), None)
}

fn control_response(req: &Request, ctx: &Ctx) -> String {
    match req {
        Request::Health => {
            let snap = ctx.cell.get();
            let quarantined = snap.quarantined.len();
            // Degraded is still *serving* — every answer over the
            // remaining segments is correct and labeled partial — but
            // operators watching health see the coverage loss.
            let status = if quarantined > 0 {
                "degraded"
            } else {
                "serving"
            };
            ok_response(
                "health",
                &format!(
                    "\"status\":\"{status}\",\"generation\":{},\"quarantined_segments\":{quarantined}",
                    snap.generation
                ),
            )
        }
        Request::Info => {
            let snap = ctx.cell.get();
            ok_response(
                "info",
                &format!(
                    "\"generation\":{},\"sequences\":{},\"values\":{},\"categories\":{},\"segments\":{},\"quarantined_segments\":{},\"workers\":{},\"queue_depth\":{},\"max_parallelism\":{}",
                    snap.generation,
                    snap.store.len(),
                    snap.store.total_len(),
                    snap.alphabet.len(),
                    snap.segment_count(),
                    snap.quarantined.len(),
                    ctx.workers,
                    ctx.queue_depth,
                    ctx.max_parallelism,
                ),
            )
        }
        Request::Stats => {
            // Sample the live fan-out right before snapshotting: the
            // gauge counts worker subthreads currently spawned by
            // parallel filter/post-processing regions process-wide.
            ctx.registry
                .gauge("server.worker_subthreads")
                .set(warptree_core::parallel::active_subthreads() as f64);
            // Refresh the degradation gauge from the *served* snapshot,
            // so stats reflect what queries actually see even if no
            // publish has run since the last quarantine.
            ctx.registry.set_gauge(
                "server.quarantined_segments",
                ctx.cell.get().quarantined.len() as f64,
            );
            ok_response(
                "stats",
                &format!("\"metrics\":{}", ctx.registry.snapshot().to_json()),
            )
        }
        Request::Slowlog => {
            ok_response("slowlog", &format!("\"entries\":{}", ctx.slowlog.to_json()))
        }
        Request::Metrics => {
            // Same gauge refresh as `stats`: the exposition must show
            // what queries see right now, not the last refresh.
            ctx.registry
                .gauge("server.worker_subthreads")
                .set(warptree_core::parallel::active_subthreads() as f64);
            ctx.registry.set_gauge(
                "server.quarantined_segments",
                ctx.cell.get().quarantined.len() as f64,
            );
            ok_response(
                "metrics",
                &format!(
                    "\"format\":\"prometheus-0.0.4\",\"exposition\":\"{}\"",
                    obs_json::escape(&ctx.registry.snapshot().to_prometheus())
                ),
            )
        }
        Request::Shutdown => {
            ctx.shutdown.store(true, Ordering::SeqCst);
            ok_response("shutdown", "\"draining\":true")
        }
        _ => unreachable!("non-control request routed to control_response"),
    }
}

/// The subset of context a queued job captures (no pool references — a
/// job must not be able to re-enter the queue).
struct JobCtx {
    cell: Arc<SnapshotCell>,
    search_metrics: SearchMetrics,
    registry: MetricsRegistry,
    ingest: Arc<IngestState>,
    max_query_len: usize,
    /// Cap applied to the request's `parallelism` knob.
    max_parallelism: u32,
    /// Absolute request deadline; checked at dequeue and between batch
    /// items (a single search is never interrupted mid-query).
    deadline: Instant,
    /// The protocol version the client negotiated. Versions below 3
    /// have no way to express `partial: true`, so a degraded answer
    /// for them becomes a typed `partial_result_unsupported` error
    /// instead of a silently truncated result.
    proto_version: u32,
    /// This request's trace handle — active when the client asked for
    /// a trace or the sampler picked the request, the no-op handle
    /// otherwise. Threaded through the whole funnel (filter spans,
    /// kNN rounds, pager I/O attribution).
    trace: Trace,
    /// Whether the *client* asked for the trace: client-requested
    /// traces come back inline in the response; sampler-only traces go
    /// to the slow-query ring alone.
    trace_wanted: bool,
}

/// How long an executed request took, handed back with its response so
/// the connection thread can finish the request's telemetry after the
/// frame is written.
struct Timed {
    /// The `server.service` span's id, the parent of the `write` span.
    service_span: Option<u32>,
    queue_ns: u64,
    service_ns: u64,
}

/// Wraps [`execute`] with the server-side timing split: `queue_ns`
/// (admission → dequeue) vs. `service_ns` (dequeue → response built).
/// For v4 clients both land in a `"timings"` object on every ok
/// response, and a client-requested trace rides along as `"trace"`;
/// older clients get byte-identical responses to the pre-tracing
/// protocol. The connection thread offers the completed request to the
/// slow-query ring once the response is written.
fn run_timed(job: &JobCtx, req: Request, admitted: Instant) -> (String, Option<Timed>) {
    let queue_ns = admitted.elapsed().as_nanos() as u64;
    job.registry.histogram("server.queue_ns").record(queue_ns);
    let span = job.trace.span("server.service");
    if span.is_active() {
        span.attr_str("op", req.op_label());
        span.attr_u64("queue_ns", queue_ns);
    }
    let service_start = Instant::now();
    let service_span = span.span_id();
    let mut resp = execute(job, req, service_span);
    drop(span);
    let service_ns = service_start.elapsed().as_nanos() as u64;
    job.registry
        .histogram("server.service_ns")
        .record(service_ns);
    if job.proto_version >= 4 && resp.starts_with("{\"ok\":true") && resp.ends_with('}') {
        resp.pop();
        resp.push_str(&format!(
            ",\"timings\":{{\"queue_ns\":{queue_ns},\"service_ns\":{service_ns}}}"
        ));
        if job.trace_wanted {
            if let Some(data) = job.trace.finish() {
                resp.push_str(&format!(",\"trace\":{}", data.to_json()));
            }
        }
        resp.push('}');
    }
    let timed = Timed {
        service_span,
        queue_ns,
        service_ns,
    };
    (resp, Some(timed))
}

/// Runs one query through the degraded fan-out path and applies the
/// server-side consequences of what it found:
///
/// * corrupt tail segments detected mid-query are quarantined (one
///   tombstone manifest generation each, then a republish) so later
///   requests skip them up front;
/// * partial answers are metered (`search.partial_queries`) and — for
///   pre-v3 clients that cannot express `partial: true` — converted to
///   a typed `partial_result_unsupported` error rather than being
///   passed off as complete;
/// * corruption in the base tree (no healthy replica to fall back on)
///   becomes a typed `corruption_detected` error.
///
/// On success the stats have already been folded into the shared
/// process-wide bundle; the returned copy is for per-request reporting
/// (`explain`). On failure the `Err` is the complete response string.
fn degraded_query(
    job: &JobCtx,
    snap: &DirSnapshot,
    req: &QueryRequest,
) -> Result<(QueryOutput, SearchStats), String> {
    match snap.run_query_degraded_traced(req, &job.trace) {
        Ok(dq) => {
            job.search_metrics.record(&dq.stats);
            if !dq.detected.is_empty() {
                quarantine_detected(job, &dq.detected);
            }
            if dq.output.is_partial() {
                job.registry.counter("search.partial_queries").incr();
                if job.proto_version < 3 {
                    job.registry.counter("server.bad_requests").incr();
                    return Err(error_response(
                        ErrorCode::PartialResultUnsupported,
                        "result is partial (segments quarantined) and this protocol version cannot express partial results; retry with version 3",
                    ));
                }
            }
            Ok((dq.output, dq.stats))
        }
        Err(DegradedError::Rejected(e)) => {
            job.registry.counter("server.bad_requests").incr();
            Err(proto::core_error_response(&e))
        }
        Err(DegradedError::Corrupt(e)) => {
            job.registry.counter("server.corruption_errors").incr();
            Err(error_response(
                ErrorCode::CorruptionDetected,
                &e.to_string(),
            ))
        }
    }
}

/// Tombstones segments a degraded query caught failing CRC: one
/// idempotent quarantine commit per segment, then a republish so the
/// serving snapshot stops fanning out to them. Best-effort — a failed
/// quarantine only means the *next* query re-detects and retries; the
/// current answer is already correct without the segment.
fn quarantine_detected(job: &JobCtx, detected: &[String]) {
    let st = &job.ingest;
    let _guard = st.lock_writer();
    let mut committed = false;
    for segment in detected {
        match quarantine_segment_with(st.vfs.as_ref(), &st.dir, segment) {
            Ok(_) => committed = true,
            Err(_) => job.registry.counter("server.quarantine_errors").incr(),
        }
    }
    if committed && st.publish().is_err() {
        job.registry.counter("server.quarantine_errors").incr();
    }
}

/// The `,"partial":…,"coverage":{…}` response suffix, present exactly
/// when the output carries coverage accounting (i.e. the index is
/// degraded); a clean index emits nothing and the response body is
/// byte-identical to the pre-degradation protocol.
fn coverage_suffix(out: &QueryOutput) -> String {
    match &out.coverage {
        Some(c) => format!(",{}", proto::encode_coverage(c)),
        None => String::new(),
    }
}

/// Executes one query op and renders its response. `service` is the
/// request's service span, the parent of the `encode` spans that time
/// the response rendering.
fn execute(job: &JobCtx, req: Request, service: Option<u32>) -> String {
    let encode_span = || job.trace.span_with_parent(service, "encode");
    // The write path never pins a snapshot — it *produces* one.
    let req = match req {
        Request::Ingest { sequences } => return execute_ingest(job, sequences),
        other => other,
    };
    // Pin one snapshot for the whole request.
    let snap = job.cell.get();
    let clamp = |t: u32| t.clamp(1, job.max_parallelism.max(1));
    // `Err` already carries the complete (typed, metered) error
    // response — produced by `degraded_query` or the batch fold.
    let result: Result<String, String> = match req {
        Request::Search { query, mut params } => {
            params.threads = clamp(params.threads);
            let req = QueryRequest::threshold_params(&query, params).capped(job.max_query_len);
            degraded_query(job, &snap, &req).map(|(out, _)| {
                let _encode = encode_span();
                let suffix = coverage_suffix(&out);
                ok_response(
                    "search",
                    &format!(
                        "{}{}",
                        search_body(&out.into_answer_set(), snap.generation),
                        suffix
                    ),
                )
            })
        }
        Request::Knn { query, mut params } => {
            params.threads = clamp(params.threads);
            let req = QueryRequest::knn_params(&query, params).capped(job.max_query_len);
            degraded_query(job, &snap, &req).map(|(out, _)| {
                let _encode = encode_span();
                let suffix = coverage_suffix(&out);
                let matches = out.into_ranked();
                ok_response(
                    "knn",
                    &format!(
                        "\"generation\":{},\"count\":{},\"matches\":{}{}",
                        snap.generation,
                        matches.len(),
                        proto::encode_matches_ranked(&matches),
                        suffix
                    ),
                )
            })
        }
        Request::Batch {
            queries,
            mut params,
        } => {
            // Satellite of the metrics work: the whole batch meters into
            // ONE shared bundle — `stats` sees batch totals, not the
            // last query's numbers.
            params.threads = clamp(params.threads);
            let total = queries.len();
            // One batch item's outcome, produced by a worker without
            // knowing the others' fates; the join below folds them back
            // in request order.
            enum Item {
                Body(String),
                Expired,
                /// A complete error response (already typed + metered).
                Fail(String),
            }
            let threads = params.threads as usize;
            let run_item = |query: &[f64], item_params: &warptree_core::search::SearchParams| {
                let req = QueryRequest::threshold_params(query, item_params.clone())
                    .capped(job.max_query_len);
                match degraded_query(job, &snap, &req) {
                    Ok((out, _)) => {
                        let _encode = encode_span();
                        let suffix = coverage_suffix(&out);
                        Item::Body(format!(
                            "{{{}{}}}",
                            search_body(&out.into_answer_set(), snap.generation),
                            suffix
                        ))
                    }
                    Err(resp) => Item::Fail(resp),
                }
            };
            let items: Vec<Item> = if threads > 1 && total > 1 {
                // The parallelism budget is spent *across* items (the
                // coarsest grain available), so each item runs its own
                // search sequentially. Results are pinned by item index
                // — a slow first item never reorders the response.
                let mut item_params = params.clone();
                item_params.threads = 1;
                warptree_core::parallel::parallel_map(threads, queries, |_i, query| {
                    // The same between-items deadline checkpoint as the
                    // sequential path: checked before an item starts, a
                    // running search is never interrupted.
                    if Instant::now() > job.deadline {
                        return Item::Expired;
                    }
                    run_item(&query, &item_params)
                })
            } else {
                let mut out = Vec::with_capacity(total);
                for query in &queries {
                    // The deadline checkpoint between items: one batch
                    // can carry many searches, so this is where an
                    // admitted request can overstay its deadline by more
                    // than one query's worth of work.
                    if Instant::now() > job.deadline {
                        out.push(Item::Expired);
                        break;
                    }
                    match run_item(query, &params) {
                        fail @ Item::Fail(_) => {
                            out.push(fail);
                            break;
                        }
                        item => out.push(item),
                    }
                }
                out
            };
            // Fold in request order; the first expiry or error (lowest
            // index) wins, matching the sequential contract exactly.
            let mut results = String::from("[");
            let mut outcome = Ok(());
            for (i, item) in items.into_iter().enumerate() {
                match item {
                    Item::Body(body) => {
                        if i > 0 {
                            results.push(',');
                        }
                        results.push_str(&body);
                    }
                    Item::Expired => {
                        job.registry.counter("server.deadline_exceeded").incr();
                        return error_response(
                            ErrorCode::DeadlineExceeded,
                            &format!("deadline expired after {i} of {total} batch items"),
                        );
                    }
                    Item::Fail(e) => {
                        outcome = Err(e);
                        break;
                    }
                }
            }
            outcome.map(|()| {
                results.push(']');
                ok_response(
                    "batch",
                    &format!("\"generation\":{},\"results\":{}", snap.generation, results),
                )
            })
        }
        Request::Explain { query, mut params } => {
            params.threads = clamp(params.threads);
            // The degraded runner meters per-request stats internally
            // and returns the snapshot, so explain gets its counters
            // while the shared bundle still accumulates the totals.
            let req = QueryRequest::threshold_params(&query, params).capped(job.max_query_len);
            degraded_query(job, &snap, &req).map(|(out, stats)| {
                let _encode = encode_span();
                let suffix = coverage_suffix(&out);
                ok_response(
                    "explain",
                    &format!(
                        "{},\"stats\":{}{}",
                        search_body(&out.into_answer_set(), snap.generation),
                        encode_stats(&stats),
                        suffix
                    ),
                )
            })
        }
        Request::DebugSleep { ms } => {
            std::thread::sleep(Duration::from_millis(ms));
            Ok(ok_response("debug_sleep", &format!("\"slept_ms\":{ms}")))
        }
        control => unreachable!("control op {control:?} reached a worker"),
    };
    match result {
        Ok(resp) => {
            job.registry.counter("server.requests_ok").incr();
            resp
        }
        // Already a complete response; the failure was metered where it
        // was classified (bad request vs. corruption vs. partial).
        Err(resp) => resp,
    }
}

/// The `ingest` op: appends the sequences as one new tail segment
/// (crash-safe generational commit), then synchronously reopens and
/// publishes the new snapshot *before* responding — a client that gets
/// `ok` can immediately query its own writes on any connection.
fn execute_ingest(job: &JobCtx, sequences: Vec<Vec<f64>>) -> String {
    let started = Instant::now();
    let st = &job.ingest;
    let count = sequences.len();
    let store = SequenceStore::from_values(sequences);
    let _guard = st.lock_writer();
    let committed = match append_segment_with(st.vfs.as_ref(), &st.dir, &store) {
        Ok(manifest) => manifest,
        Err(DiskError::BadRecord(msg)) => {
            job.registry.counter("server.bad_requests").incr();
            return error_response(ErrorCode::BadRequest, &msg);
        }
        Err(e) => {
            job.registry.counter("server.internal_errors").incr();
            return error_response(ErrorCode::Internal, &format!("ingest failed: {e}"));
        }
    };
    match st.publish() {
        Ok(snap) => {
            job.registry.counter("server.requests_ok").incr();
            job.registry
                .counter("server.ingested_sequences")
                .add(count as u64);
            job.registry
                .histogram("server.ingest_ns")
                .record(started.elapsed().as_nanos() as u64);
            ok_response(
                "ingest",
                &format!(
                    "\"generation\":{},\"sequences\":{},\"segments\":{}",
                    committed.generation,
                    count,
                    snap.segment_count()
                ),
            )
        }
        // The commit is durable either way; only this process's view
        // failed to refresh (the reload watcher will retry).
        Err(e) => {
            job.registry.counter("server.internal_errors").incr();
            error_response(
                ErrorCode::Internal,
                &format!(
                    "ingest committed generation {} but reopen failed: {e}",
                    committed.generation
                ),
            )
        }
    }
}

fn search_body(answers: &AnswerSet, generation: u64) -> String {
    format!(
        "\"generation\":{},\"count\":{},\"matches\":{}",
        generation,
        answers.len(),
        proto::encode_matches(answers.matches())
    )
}

fn encode_stats(s: &SearchStats) -> String {
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

#[cfg(test)]
mod tests {
    use super::*;
    use warptree_core::categorize::Alphabet;
    use warptree_core::search::SearchParams;
    use warptree_core::sequence::SequenceStore;
    use warptree_disk::{build_dir_with, TreeKind};

    #[test]
    fn oversized_responses_become_typed_errors() {
        let registry = MetricsRegistry::new();
        let small = clamp_oversized("{\"ok\":true}".to_string(), &registry);
        assert_eq!(small, "{\"ok\":true}");

        let clamped = clamp_oversized("x".repeat(proto::MAX_FRAME as usize + 1), &registry);
        assert!(
            clamped.contains("\"code\":\"result_too_large\""),
            "{clamped}"
        );
        assert!(clamped.len() <= proto::MAX_FRAME as usize);
        assert_eq!(
            registry
                .snapshot()
                .counters
                .get("server.result_too_large")
                .copied(),
            Some(1)
        );
    }

    fn test_job_ctx(dir: &Path, deadline: Instant) -> (JobCtx, MetricsRegistry) {
        let store = SequenceStore::from_values(vec![vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]]);
        let alphabet = Alphabet::equal_length(&store, 3).unwrap();
        build_dir_with(
            real_vfs(),
            &store,
            &alphabet,
            TreeKind::Full,
            1,
            1,
            None,
            dir,
        )
        .unwrap();
        let snap = open_dir_snapshot_with(real_vfs().as_ref(), dir, 16).unwrap();
        let registry = MetricsRegistry::new();
        let cell = Arc::new(SnapshotCell::new(Arc::new(snap)));
        let slowlog = Arc::new(SlowLog::new(&ServerConfig::default(), registry.clone()));
        let ingest = Arc::new(IngestState {
            vfs: real_vfs(),
            dir: dir.to_path_buf(),
            writer: Mutex::new(()),
            cell: cell.clone(),
            registry: registry.clone(),
            cache_pages: 16,
            slowlog: slowlog.clone(),
        });
        let job = JobCtx {
            cell,
            search_metrics: SearchMetrics::register(&registry),
            registry: registry.clone(),
            ingest,
            max_query_len: 64,
            max_parallelism: 8,
            deadline,
            proto_version: 3,
            trace: Trace::noop(),
            trace_wanted: false,
        };
        (job, registry)
    }

    #[test]
    fn batch_deadline_checkpoint_fires_between_items() {
        let dir =
            std::env::temp_dir().join(format!("warptree-unit-batchdl-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();

        let expired = Instant::now()
            .checked_sub(Duration::from_millis(10))
            .unwrap();
        let (job, registry) = test_job_ctx(&dir, expired);
        let req = Request::Batch {
            queries: vec![vec![1.0, 2.0], vec![3.0, 4.0]],
            params: SearchParams::with_epsilon(1.0),
        };
        let resp = execute(&job, req.clone(), None);
        assert!(resp.contains("\"code\":\"deadline_exceeded\""), "{resp}");
        assert_eq!(
            registry
                .snapshot()
                .counters
                .get("server.deadline_exceeded")
                .copied(),
            Some(1)
        );

        // A live deadline serves the whole batch normally.
        job_with_live_deadline(job, req);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    fn job_with_live_deadline(mut job: JobCtx, req: Request) {
        job.deadline = Instant::now() + Duration::from_secs(60);
        let resp = execute(&job, req, None);
        assert!(resp.contains("\"ok\":true"), "{resp}");
    }

    /// The batch-ordering satellite: with parallel execution, results
    /// are pinned by request index, not completion order. The first
    /// item is the slowest by construction (longest query over the
    /// whole corpus at a broad ε), so completion order ≠ request order
    /// — yet the response must be byte-identical to the sequential one.
    #[test]
    fn parallel_batch_preserves_request_order() {
        let dir =
            std::env::temp_dir().join(format!("warptree-unit-batchord-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let live = Instant::now() + Duration::from_secs(60);
        let (job, _registry) = test_job_ctx(&dir, live);

        // Item 0 carries far more verification work than the rest.
        let queries = vec![
            vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 5.0, 4.0, 3.0, 2.0],
            vec![1.0],
            vec![6.0],
            vec![3.0, 4.0],
        ];
        let sequential = execute(
            &job,
            Request::Batch {
                queries: queries.clone(),
                params: SearchParams::with_epsilon(10.0),
            },
            None,
        );
        assert!(sequential.contains("\"ok\":true"), "{sequential}");
        for threads in [2u32, 8] {
            let parallel = execute(
                &job,
                Request::Batch {
                    queries: queries.clone(),
                    params: SearchParams::with_epsilon(10.0).parallel(threads),
                },
                None,
            );
            assert_eq!(sequential, parallel, "threads={threads}");
        }
        // A request asking for more than the server cap is clamped, not
        // rejected — and still answers identically.
        let mut capped = job;
        capped.max_parallelism = 2;
        let clamped = execute(
            &capped,
            Request::Batch {
                queries,
                params: SearchParams::with_epsilon(10.0).parallel(64),
            },
            None,
        );
        assert_eq!(sequential, clamped);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// A request pinned to the wrong backend family fails with the
    /// typed `unsupported_backend` code; pinned to the right family it
    /// answers exactly like an unpinned request.
    #[test]
    fn pinned_backend_mismatch_is_a_typed_error() {
        use warptree_core::search::{BackendKind, KnnParams};
        let dir =
            std::env::temp_dir().join(format!("warptree-unit-backendpin-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let live = Instant::now() + Duration::from_secs(60);
        // test_job_ctx builds a tree-backed directory.
        let (job, registry) = test_job_ctx(&dir, live);

        let resp = execute(
            &job,
            Request::Search {
                query: vec![1.0, 2.0],
                params: SearchParams::with_epsilon(1.0).on_backend(BackendKind::Esa),
            },
            None,
        );
        assert!(resp.contains("\"code\":\"unsupported_backend\""), "{resp}");
        assert_eq!(
            registry
                .snapshot()
                .counters
                .get("server.bad_requests")
                .copied(),
            Some(1)
        );
        let resp = execute(
            &job,
            Request::Knn {
                query: vec![1.0, 2.0],
                params: KnnParams::new(1).on_backend(BackendKind::Esa),
            },
            None,
        );
        assert!(resp.contains("\"code\":\"unsupported_backend\""), "{resp}");

        // The matching pin answers byte-identically to no pin at all.
        let unpinned = execute(
            &job,
            Request::Search {
                query: vec![1.0, 2.0],
                params: SearchParams::with_epsilon(1.0),
            },
            None,
        );
        let pinned = execute(
            &job,
            Request::Search {
                query: vec![1.0, 2.0],
                params: SearchParams::with_epsilon(1.0).on_backend(BackendKind::Tree),
            },
            None,
        );
        assert!(unpinned.contains("\"ok\":true"), "{unpinned}");
        assert_eq!(unpinned, pinned);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// A deadline that expires mid-batch surfaces the same typed error
    /// from the parallel path as from the sequential one.
    #[test]
    fn parallel_batch_still_honours_deadline() {
        let dir =
            std::env::temp_dir().join(format!("warptree-unit-batchpdl-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let expired = Instant::now()
            .checked_sub(Duration::from_millis(10))
            .unwrap();
        let (job, registry) = test_job_ctx(&dir, expired);
        let resp = execute(
            &job,
            Request::Batch {
                queries: vec![vec![1.0, 2.0], vec![3.0, 4.0]],
                params: SearchParams::with_epsilon(1.0).parallel(4),
            },
            None,
        );
        assert!(resp.contains("\"code\":\"deadline_exceeded\""), "{resp}");
        assert_eq!(
            registry
                .snapshot()
                .counters
                .get("server.deadline_exceeded")
                .copied(),
            Some(1)
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
