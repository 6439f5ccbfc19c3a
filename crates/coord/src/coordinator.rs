//! The scatter-gather coordinator: a TCP server speaking the same
//! framed protocol as a shard server, fanning every query out to the
//! shard fleet and merging the answers deterministically.
//!
//! ## Threading model
//!
//! The server crate's [`frontend`] runs the accept loop and one thread
//! per client connection; this module is its scatter [`Executor`].
//! There is no worker pool at this layer — the shards do the query
//! work, the coordinator's per-request cost is parsing and merging —
//! so each connection thread scatters directly over its own private
//! [`ShardConn`] set (sockets are never shared across requests on
//! different connections). The fan-out runs on up to
//! [`CoordConfig::workers`] scoped threads ("lanes"); with one lane
//! the scatter is a plain sequential loop, and the merged answer is
//! byte-identical at every lane count.
//!
//! ## Degradation contract
//!
//! Per-shard calls carry a read timeout and the configured
//! [`RetryPolicy`] (lazy re-dial on torn connections, jittered backoff
//! on `overloaded`). A shard that still fails is marked down and its
//! slice of the corpus is reported honestly: the response carries
//! `"partial":true` and a coverage block aggregated across shards
//! (down shards contribute their last-known totals with zero
//! answered). A *typed* error from any shard — `bad_request`,
//! `corruption_detected`, a mid-batch `deadline_exceeded` — fails the
//! whole query with that error (lowest shard index wins), because the
//! monolithic server would have failed the same way.

use std::io;
use std::net::TcpListener;
use std::path::Path;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use warptree_core::search::{Match, SearchStats};
use warptree_disk::{read_shard_manifest, ShardManifest};
use warptree_obs::{json as obs_json, MetricsRegistry, Trace};
use warptree_server::client::{encode_query, ingest_request, ClientError, RetryPolicy, ShardConn};
use warptree_server::frontend::{self, Executor, Frontend, Handle, Names, Ran, SlowLog};
use warptree_server::json::Json;
use warptree_server::proto::{self, error_frame, error_response, ok_response, ErrorCode, Request};
use warptree_server::worker::Worker;

use crate::merge::{
    aggregate_coverage, merge_ranked, merge_threshold, parse_coverage, parse_matches, parse_stats,
    sum_stats, ShardCoverage,
};

/// Configuration of a [`Coordinator`].
#[derive(Debug, Clone)]
pub struct CoordConfig {
    /// Bind address; port 0 picks a free port.
    pub addr: String,
    /// Shard server addresses, one per manifest entry, **in manifest
    /// order** — address `i` must serve the index built from shard
    /// `i`'s slice, or the sequence-id remap is wrong.
    pub shard_addrs: Vec<String>,
    /// Scatter lanes per request: how many shards are queried
    /// concurrently. `1` scatters sequentially; answers are
    /// byte-identical at every setting.
    pub workers: usize,
    /// Total per-request budget. Applied as the retry policy's
    /// deadline, so retries never sleep a request past it.
    pub deadline: Duration,
    /// Per-response read timeout on every shard connection — the
    /// per-shard deadline that turns a hung shard into a down shard
    /// instead of a hung client.
    pub shard_timeout: Duration,
    /// Retry policy for shard calls (re-dial on torn connections,
    /// jittered backoff on `overloaded`). A `deadline` of `None` is
    /// replaced by [`CoordConfig::deadline`] at startup.
    pub retry: RetryPolicy,
    /// Maximum concurrent client connections.
    pub max_conns: usize,
    /// How often the health monitor polls each shard's `info`.
    pub health_interval: Duration,
    /// Slow-query threshold in milliseconds for the coordinator's own
    /// slow-query ring; `0` disables threshold capture.
    pub slow_ms: u64,
    /// Trace 1 in N requests end to end (coordinator span + one child
    /// span per shard); `0` disables sampling.
    pub trace_sample: u64,
    /// Capacity of the coordinator's slow-query ring.
    pub slowlog_capacity: usize,
}

impl Default for CoordConfig {
    fn default() -> Self {
        CoordConfig {
            addr: "127.0.0.1:0".to_string(),
            shard_addrs: Vec::new(),
            workers: 8,
            deadline: Duration::from_secs(5),
            shard_timeout: Duration::from_secs(5),
            retry: RetryPolicy::default(),
            max_conns: 256,
            health_interval: Duration::from_millis(500),
            slow_ms: 500,
            trace_sample: 0,
            slowlog_capacity: 128,
        }
    }
}

/// The coordinator's cached view of one shard, refreshed by the health
/// monitor's `info` polls and passively by every query exchange. The
/// cache is what makes degradation honest: when a shard stops
/// answering, its last-known totals are what the coverage block
/// reports as unanswered.
#[derive(Debug, Clone)]
struct ShardInfo {
    up: bool,
    generation: u64,
    sequences: u64,
    values: u64,
    categories: u64,
    /// Live segment count (base + tails), the `segments` info field.
    segments: u64,
    quarantined: u64,
}

struct ShardState {
    addr: String,
    /// First global sequence id this shard owns (the remap offset).
    start_seq: u32,
    info: Mutex<ShardInfo>,
}

impl ShardState {
    fn snapshot(&self) -> ShardInfo {
        self.info.lock().unwrap_or_else(|p| p.into_inner()).clone()
    }

    fn update(&self, f: impl FnOnce(&mut ShardInfo)) {
        let mut info = self.info.lock().unwrap_or_else(|p| p.into_inner());
        f(&mut info);
    }
}

/// Shared coordinator state, and the coordinator's [`Executor`].
struct CoordState {
    shards: Vec<ShardState>,
    workers: usize,
    shard_timeout: Duration,
    policy: RetryPolicy,
    registry: MetricsRegistry,
}

/// The coordinator factory. [`Coordinator::start`] reads the `SHARDS`
/// manifest under `dir`, binds the listener, performs one synchronous
/// health poll of every shard, and serves until shutdown.
pub struct Coordinator;

impl Coordinator {
    /// Starts a coordinator for the shard layout committed under
    /// `dir`. `config.shard_addrs` must list exactly one address per
    /// manifest shard, in manifest order.
    pub fn start(dir: &Path, config: CoordConfig) -> io::Result<CoordHandle> {
        let manifest = read_shard_manifest(dir)
            .map_err(|e| io::Error::other(format!("read shard manifest: {e}")))?
            .ok_or_else(|| {
                io::Error::other(format!("no SHARDS manifest under {}", dir.display()))
            })?;
        Coordinator::start_with_manifest(&manifest, config)
    }

    /// [`Coordinator::start`] from an already-loaded manifest (tests
    /// and embedding).
    pub fn start_with_manifest(
        manifest: &ShardManifest,
        config: CoordConfig,
    ) -> io::Result<CoordHandle> {
        manifest
            .validate()
            .map_err(|e| io::Error::other(format!("invalid shard manifest: {e}")))?;
        if config.shard_addrs.len() != manifest.shards.len() {
            return Err(io::Error::other(format!(
                "manifest has {} shards but {} addresses were given",
                manifest.shards.len(),
                config.shard_addrs.len()
            )));
        }
        let registry = MetricsRegistry::new();
        let mut policy = config.retry.clone();
        if policy.deadline.is_none() {
            policy.deadline = Some(config.deadline);
        }
        let shards = manifest
            .shards
            .iter()
            .zip(&config.shard_addrs)
            .map(|(meta, addr)| ShardState {
                addr: addr.clone(),
                start_seq: meta.start_seq,
                // Manifest values are the fallback for a shard that
                // dies before it was ever polled: one base segment,
                // nothing quarantined, partition-time totals.
                info: Mutex::new(ShardInfo {
                    up: false,
                    generation: 0,
                    sequences: meta.seq_count as u64,
                    values: meta.values,
                    categories: 0,
                    segments: 1,
                    quarantined: 0,
                }),
            })
            .collect();
        let state = Arc::new(CoordState {
            shards,
            workers: config.workers.max(1),
            shard_timeout: config.shard_timeout,
            policy,
            registry: registry.clone(),
        });

        // One synchronous poll round so `health` is meaningful the
        // moment `start` returns (a down shard shows down, not
        // unknown); the monitor keeps polling on the same sockets.
        let mut conns = monitor_conns(&state);
        poll_round(&state, &mut conns);

        let listener = TcpListener::bind(&config.addr)?;
        listener.set_nonblocking(true)?;

        let monitor = {
            let state = state.clone();
            Worker::every(
                "warptree-coord-health",
                config.health_interval,
                false,
                move |_| poll_round(&state, &mut conns),
            )?
        };

        frontend::spawn(
            listener,
            Frontend {
                exec: state,
                registry: registry.clone(),
                slowlog: Arc::new(SlowLog::new(
                    config.slowlog_capacity,
                    config.slow_ms,
                    config.trace_sample,
                    registry,
                    &CoordState::NAMES,
                )),
                max_conns: config.max_conns,
                allow_debug: false,
            },
            monitor,
        )
    }
}

/// A handle to a running coordinator; its background job is the shard
/// health monitor.
pub type CoordHandle = Handle<Worker>;

/// Fresh monitor-side connections, one per shard, with the poll
/// timeout applied.
fn monitor_conns(state: &CoordState) -> Vec<ShardConn> {
    state
        .shards
        .iter()
        .map(|s| ShardConn::with_timeout(s.addr.clone(), Some(state.shard_timeout)))
        .collect()
}

/// One `info` poll of every shard, refreshing the cached view.
fn poll_round(state: &CoordState, conns: &mut [ShardConn]) {
    for (shard, conn) in state.shards.iter().zip(conns.iter_mut()) {
        match conn.request("{\"op\":\"info\"}") {
            Ok(v) => {
                let field = |k: &str| v.get(k).and_then(Json::as_u64);
                shard.update(|info| {
                    info.up = true;
                    info.generation = field("generation").unwrap_or(info.generation);
                    info.sequences = field("sequences").unwrap_or(info.sequences);
                    info.values = field("values").unwrap_or(info.values);
                    info.categories = field("categories").unwrap_or(info.categories);
                    info.segments = field("segments").unwrap_or(info.segments);
                    info.quarantined = field("quarantined_segments").unwrap_or(info.quarantined);
                });
            }
            Err(_) => shard.update(|info| info.up = false),
        }
    }
    state.refresh_gauges();
}

impl Executor for CoordState {
    /// This connection's private shard sockets, dialed lazily and
    /// re-dialed by the retry policy after transport failures.
    type Conn = Vec<ShardConn>;
    const NAMES: Names = Names {
        metrics: "coord",
        threads: "warptree-coord",
        traces: "coord",
        role: "coordinator",
    };

    fn open_conn(&self) -> Vec<ShardConn> {
        monitor_conns(self)
    }

    fn health(&self) -> String {
        let infos: Vec<ShardInfo> = self.shards.iter().map(|s| s.snapshot()).collect();
        let up = infos.iter().filter(|i| i.up).count();
        let quarantined: u64 = infos.iter().map(|i| i.quarantined).sum();
        let generation = infos.iter().map(|i| i.generation).max().unwrap_or(0);
        // Degraded when any shard is unreachable *or* any shard is
        // itself degraded — either way answers are partial.
        let status = if up == infos.len() && quarantined == 0 {
            "serving"
        } else {
            "degraded"
        };
        let mut per = String::from("[");
        for (i, (info, shard)) in infos.iter().zip(&self.shards).enumerate() {
            if i > 0 {
                per.push(',');
            }
            per.push_str(&format!(
                "{{\"index\":{i},\"addr\":\"{}\",\"up\":{},\"generation\":{},\"quarantined_segments\":{}}}",
                obs_json::escape(&shard.addr),
                info.up,
                info.generation,
                info.quarantined,
            ));
        }
        per.push(']');
        format!(
            "\"status\":\"{status}\",\"generation\":{generation},\"quarantined_segments\":{quarantined},\"shards_total\":{},\"shards_up\":{up},\"shards\":{per}",
            infos.len()
        )
    }

    fn info(&self) -> String {
        let infos: Vec<ShardInfo> = self.shards.iter().map(|s| s.snapshot()).collect();
        let up = infos.iter().filter(|i| i.up).count();
        let quarantined: u64 = infos.iter().map(|i| i.quarantined).sum();
        let generation = infos.iter().map(|i| i.generation).max().unwrap_or(0);
        let sequences: u64 = infos.iter().map(|i| i.sequences).sum();
        let values: u64 = infos.iter().map(|i| i.values).sum();
        // Shards are built against one global alphabet, so the category
        // counts agree; max tolerates unpolled shards (cached 0).
        let categories = infos.iter().map(|i| i.categories).max().unwrap_or(0);
        let segments: u64 = infos.iter().map(|i| i.segments).sum();
        format!(
            "\"generation\":{generation},\"sequences\":{sequences},\"values\":{values},\"categories\":{categories},\"segments\":{segments},\"quarantined_segments\":{quarantined},\"shards_total\":{},\"shards_up\":{up},\"workers\":{}",
            infos.len(),
            self.workers,
        )
    }

    fn refresh_gauges(&self) {
        let up = self.shards.iter().filter(|s| s.snapshot().up).count();
        self.registry.gauge("coord.shards_up").set(up as f64);
    }

    fn generation(&self) -> u64 {
        let generations = self.shards.iter().map(|s| s.snapshot().generation);
        generations.max().unwrap_or(0)
    }

    /// Scatters inline on the connection thread under one
    /// `coord.service` span (the coordinator has no admission queue, so
    /// `queue_ns` is 0).
    fn run(
        &self,
        conns: &mut Vec<ShardConn>,
        req: Request,
        proto_version: u32,
        trace: &Trace,
        received: Instant,
    ) -> Result<Ran, String> {
        let span = trace.span("coord.service");
        if span.is_active() {
            span.attr_str("op", req.op_label());
            span.attr_u64("shards", self.shards.len() as u64);
        }
        let parent = span.span_id();
        let mut resp = match execute(self, conns, req, trace, parent) {
            Ok(resp) => {
                self.registry.counter("coord.requests_ok").incr();
                resp
            }
            Err(resp) => resp,
        };
        drop(span);
        let service_ns = received.elapsed().as_nanos() as u64;
        // Degraded answers below protocol version 3 cannot be
        // expressed; the check runs on the merged result so it fires
        // exactly when the monolithic server's would have.
        if proto_version < 3 && resp.starts_with("{\"ok\":true") && resp.contains("\"partial\":") {
            self.registry.counter("coord.bad_requests").incr();
            resp = error_response(
                ErrorCode::PartialResultUnsupported,
                "result is partial (segments quarantined) and this protocol version cannot express partial results; retry with version 3",
            );
        }
        Ok(Ran {
            resp,
            service_span: parent,
            queue_ns: 0,
            service_ns,
        })
    }
}

/// What one shard call produced.
enum ShardReply {
    /// A parsed ok-response.
    Answer(Json),
    /// A typed error frame from a healthy shard.
    Typed { code: String, message: String },
    /// Transport failure after retries; the shard is marked down.
    Down(String),
}

/// One shard call with tracing: a child span under the coordinator's
/// service span carries the shard index, address, wall time, the
/// shard's own queue/service split, and — when the shard returned its
/// span tree — that tree verbatim, so a coordinator slowlog entry
/// attributes time per shard.
fn call_shard(
    state: &CoordState,
    idx: usize,
    conn: &mut ShardConn,
    body: &str,
    trace: &Trace,
    parent: Option<u32>,
) -> ShardReply {
    let span = trace.span_with_parent(parent, "coord.shard");
    if span.is_active() {
        span.attr_u64("shard", idx as u64);
        span.attr_str("addr", conn.addr());
    }
    let t0 = Instant::now();
    let result = conn.request_with_retry(body, &state.policy);
    if span.is_active() {
        span.attr_u64("dur_ns", t0.elapsed().as_nanos() as u64);
    }
    match result {
        Ok(v) => {
            if span.is_active() {
                if let Some(t) = v.get("timings") {
                    if let Some(q) = t.get("queue_ns").and_then(Json::as_u64) {
                        span.attr_u64("shard_queue_ns", q);
                    }
                    if let Some(s) = t.get("service_ns").and_then(Json::as_u64) {
                        span.attr_u64("shard_service_ns", s);
                    }
                }
                if let Some(tr) = v.get("trace") {
                    span.attr_str("trace", &tr.render());
                }
            }
            let generation = v.get("generation").and_then(Json::as_u64);
            state.shards[idx].update(|info| {
                info.up = true;
                if let Some(g) = generation {
                    info.generation = g;
                }
            });
            ShardReply::Answer(v)
        }
        // A typed error comes from a live shard over a healthy
        // connection; only transport failures mark the shard down.
        Err(ClientError::Server { code, message }) => {
            state.shards[idx].update(|info| info.up = true);
            state.registry.counter("coord.shard_typed_errors").incr();
            if span.is_active() {
                span.attr_str("error", &code);
            }
            ShardReply::Typed { code, message }
        }
        Err(e) => {
            state.shards[idx].update(|info| info.up = false);
            state.registry.counter("coord.shard_down_errors").incr();
            let desc = e.to_string();
            if span.is_active() {
                span.attr_str("error", &desc);
            }
            ShardReply::Down(desc)
        }
    }
}

/// Fans `body` out to every shard over up to `state.workers` lanes.
/// With one lane this is a plain sequential loop; with more, shards
/// are chunked across scoped threads and every reply lands in its
/// shard's slot, so reply order never depends on completion order.
fn scatter(
    state: &CoordState,
    conns: &mut [ShardConn],
    body: &str,
    trace: &Trace,
    parent: Option<u32>,
) -> Vec<ShardReply> {
    let n = conns.len();
    let lanes = state.workers.min(n).max(1);
    if lanes == 1 {
        return conns
            .iter_mut()
            .enumerate()
            .map(|(i, c)| call_shard(state, i, c, body, trace, parent))
            .collect();
    }
    let chunk = n.div_ceil(lanes);
    let mut replies: Vec<Option<ShardReply>> = Vec::with_capacity(n);
    replies.resize_with(n, || None);
    std::thread::scope(|s| {
        for (ci, (conn_chunk, reply_chunk)) in conns
            .chunks_mut(chunk)
            .zip(replies.chunks_mut(chunk))
            .enumerate()
        {
            s.spawn(move || {
                for (j, (conn, slot)) in conn_chunk
                    .iter_mut()
                    .zip(reply_chunk.iter_mut())
                    .enumerate()
                {
                    *slot = Some(call_shard(state, ci * chunk + j, conn, body, trace, parent));
                }
            });
        }
    });
    replies
        .into_iter()
        .map(|r| r.expect("scatter filled every slot"))
        .collect()
}

/// The shared `"epsilon"`/`"window"`/`"max_len"`/`"min_len"`/
/// `"parallelism"` fragment of a forwarded threshold request.
fn search_params_fragment(p: &warptree_core::search::SearchParams) -> String {
    let mut out = format!(",\"epsilon\":{}", obs_json::num(p.epsilon));
    if let Some(w) = p.window {
        out.push_str(&format!(",\"window\":{w}"));
    }
    if let Some(m) = p.max_len {
        out.push_str(&format!(",\"max_len\":{m}"));
    }
    out.push_str(&format!(
        ",\"min_len\":{},\"parallelism\":{}",
        p.min_len, p.threads
    ));
    if !p.cascade {
        out.push_str(",\"cascade\":false");
    }
    if let Some(b) = p.backend {
        out.push_str(&format!(",\"backend\":\"{}\"", b.as_str()));
    }
    out
}

/// The trace-forwarding fragment: when the coordinator is tracing this
/// request, shards are asked for their span trees under the same
/// trace id.
fn trace_fragment(trace: &Trace) -> String {
    match trace.id() {
        Some(id) => format!(",\"trace\":true,\"trace_id\":\"{}\"", obs_json::escape(id)),
        None => String::new(),
    }
}

/// Outcomes of gathering one scatter: either every answering shard
/// parsed cleanly, or the query fails with a complete error frame.
struct Gathered {
    /// Parsed ok-responses in shard order (`None` = shard down).
    answers: Vec<Option<Json>>,
    /// Max generation over the answering shards' responses.
    generation: u64,
}

/// Folds scatter replies into parsed answers, applying the error
/// contract: any typed shard error fails the query (lowest shard index
/// wins), and zero answering shards is an `internal` failure naming
/// the first transport error.
fn gather(replies: Vec<ShardReply>) -> Result<Gathered, String> {
    if let Some(typed) = replies.iter().find_map(|r| match r {
        ShardReply::Typed { code, message } => Some(error_frame(code, message)),
        _ => None,
    }) {
        return Err(typed);
    }
    let mut answers = Vec::with_capacity(replies.len());
    let mut generation = 0u64;
    let mut first_down: Option<(usize, String)> = None;
    let mut answered = 0usize;
    for (i, r) in replies.into_iter().enumerate() {
        match r {
            ShardReply::Answer(v) => {
                answered += 1;
                if let Some(g) = v.get("generation").and_then(Json::as_u64) {
                    generation = generation.max(g);
                }
                answers.push(Some(v));
            }
            ShardReply::Down(desc) => {
                if first_down.is_none() {
                    first_down = Some((i, desc));
                }
                answers.push(None);
            }
            ShardReply::Typed { .. } => unreachable!("typed errors returned above"),
        }
    }
    if answered == 0 {
        let (i, desc) = first_down.expect("no answers implies a down shard");
        return Err(error_response(
            ErrorCode::Internal,
            &format!("no shard answered (shard {i}: {desc})"),
        ));
    }
    Ok(Gathered {
        answers,
        generation,
    })
}

/// One shard's coverage contribution for a response `v` (or a down
/// shard's, from the cache, when `v` is `None`).
fn coverage_of(state: &CoordState, idx: usize, v: Option<&Json>) -> Result<ShardCoverage, String> {
    match v {
        Some(v) => match v.get("coverage") {
            Some(c) => Ok(ShardCoverage::Partial(parse_coverage(c)?)),
            None => {
                let info = state.shards[idx].snapshot();
                Ok(ShardCoverage::Full {
                    segments: info.segments,
                    suffixes: info.values,
                })
            }
        },
        None => {
            let info = state.shards[idx].snapshot();
            Ok(ShardCoverage::Down {
                segments: info.segments,
                quarantined: info.quarantined,
                suffixes: info.values,
            })
        }
    }
}

/// Renders the aggregated coverage suffix (empty when every shard
/// answered fully), counting partial responses.
fn coverage_suffix(state: &CoordState, covs: &[ShardCoverage]) -> String {
    match aggregate_coverage(covs) {
        Some(c) => {
            state.registry.counter("coord.partial_queries").incr();
            format!(",{}", proto::encode_coverage(&c))
        }
        None => String::new(),
    }
}

/// Collects each answering shard's `"matches"` (remapped to global
/// sequence ids) and its coverage contribution.
fn matches_and_coverage(
    state: &CoordState,
    answers: &[Option<Json>],
) -> Result<(Vec<Vec<Match>>, Vec<ShardCoverage>), String> {
    let mut per_shard = Vec::with_capacity(answers.len());
    let mut covs = Vec::with_capacity(answers.len());
    for (i, a) in answers.iter().enumerate() {
        covs.push(coverage_of(state, i, a.as_ref())?);
        if let Some(v) = a {
            let arr = v
                .get("matches")
                .ok_or_else(|| format!("shard {i} response missing \"matches\""))?;
            per_shard.push(parse_matches(arr, state.shards[i].start_seq)?);
        }
    }
    Ok((per_shard, covs))
}

/// An internal-error frame for a malformed shard response.
fn malformed(err: String) -> String {
    error_response(
        ErrorCode::Internal,
        &format!("malformed shard response: {err}"),
    )
}

/// Scatters one query op to the shards and builds the merged response;
/// `Err` is a complete error response. Merging and rendering the
/// gathered replies — the coordinator's response encoding — is timed
/// by an `encode` span under `parent` (the request's `coord.service`
/// span).
fn execute(
    state: &CoordState,
    conns: &mut [ShardConn],
    req: Request,
    trace: &Trace,
    parent: Option<u32>,
) -> Result<String, String> {
    let op = req.op_label();
    match req {
        // `explain` is `search` plus the shards' funnel stats, summed.
        Request::Search { query, params } | Request::Explain { query, params } => {
            let body = format!(
                "{{\"op\":\"{op}\",\"version\":4,\"query\":{}{}{}}}",
                encode_query(&query),
                search_params_fragment(&params),
                trace_fragment(trace),
            );
            let g = gather(scatter(state, conns, &body, trace, parent))?;
            let _encode = trace.span_with_parent(parent, "encode");
            let (per_shard, covs) = matches_and_coverage(state, &g.answers).map_err(malformed)?;
            let mut stats = String::new();
            if op == "explain" {
                let per_shard = g
                    .answers
                    .iter()
                    .flatten()
                    .map(|v| {
                        v.get("stats")
                            .ok_or_else(|| "explain response missing \"stats\"".to_string())
                            .and_then(parse_stats)
                    })
                    .collect::<Result<Vec<SearchStats>, String>>()
                    .map_err(malformed)?;
                stats = format!(",\"stats\":{}", proto::encode_stats(&sum_stats(&per_shard)));
            }
            let merged = merge_threshold(per_shard);
            let body = proto::matches_body(g.generation, &merged, false);
            let suffix = coverage_suffix(state, &covs);
            Ok(ok_response(op, &format!("{body}{stats}{suffix}")))
        }
        Request::Knn { query, params } => {
            let mut body = format!(
                "{{\"op\":\"knn\",\"version\":4,\"query\":{},\"k\":{},\"initial_epsilon\":{},\"growth\":{},\"max_rounds\":{}",
                encode_query(&query),
                params.k,
                obs_json::num(params.initial_epsilon),
                obs_json::num(params.growth),
                params.max_rounds,
            );
            if let Some(w) = params.window {
                body.push_str(&format!(",\"window\":{w}"));
            }
            if !params.cascade {
                body.push_str(",\"cascade\":false");
            }
            if let Some(b) = params.backend {
                body.push_str(&format!(",\"backend\":\"{}\"", b.as_str()));
            }
            body.push_str(&format!(
                ",\"allow_overlaps\":{},\"parallelism\":{}{}}}",
                !params.non_overlapping,
                params.threads,
                trace_fragment(trace),
            ));
            let g = gather(scatter(state, conns, &body, trace, parent))?;
            let _encode = trace.span_with_parent(parent, "encode");
            let (per_shard, covs) = matches_and_coverage(state, &g.answers).map_err(malformed)?;
            // Each shard's local top-k contains every global-top-k
            // member that shard holds (the ε-expansion schedule is
            // query-derived, hence identical on every shard, and
            // overlap filtering only compares same-sequence matches,
            // which sharding co-locates), so merging the local
            // rankings and truncating to k is the exact global top-k.
            let merged = merge_ranked(per_shard, params.k);
            let body = proto::matches_body(g.generation, &merged, true);
            let suffix = coverage_suffix(state, &covs);
            Ok(ok_response("knn", &format!("{body}{suffix}")))
        }
        Request::Batch { queries, params } => {
            let total = queries.len();
            let mut qarr = String::from("[");
            for (i, q) in queries.iter().enumerate() {
                if i > 0 {
                    qarr.push(',');
                }
                qarr.push_str(&encode_query(q));
            }
            qarr.push(']');
            let body = format!(
                "{{\"op\":\"batch\",\"version\":4,\"queries\":{qarr}{}{}}}",
                search_params_fragment(&params),
                trace_fragment(trace),
            );
            let g = gather(scatter(state, conns, &body, trace, parent))?;
            let _encode = trace.span_with_parent(parent, "encode");
            // Per answering shard: the batch's item array (each a full
            // search response body for that shard's slice).
            let mut shard_items: Vec<&[Json]> = Vec::new();
            for (i, v) in g.answers.iter().enumerate() {
                let Some(v) = v else { continue };
                let items = v
                    .get("results")
                    .and_then(Json::as_arr)
                    .ok_or_else(|| malformed(format!("shard {i} response missing \"results\"")))?;
                if items.len() != total {
                    return Err(malformed(format!(
                        "shard {i} answered {} of {total} batch items",
                        items.len()
                    )));
                }
                shard_items.push(items);
            }
            let mut results = String::from("[");
            for j in 0..total {
                let mut per_shard = Vec::new();
                let mut covs = Vec::with_capacity(g.answers.len());
                let mut item_of = shard_items.iter();
                for (i, a) in g.answers.iter().enumerate() {
                    let item = a
                        .as_ref()
                        .map(|_| &item_of.next().expect("answer has items")[j]);
                    covs.push(coverage_of(state, i, item).map_err(malformed)?);
                    if let Some(item) = item {
                        let arr = item.get("matches").ok_or_else(|| {
                            malformed(format!("shard {i} batch item {j} missing \"matches\""))
                        })?;
                        per_shard.push(
                            parse_matches(arr, state.shards[i].start_seq).map_err(malformed)?,
                        );
                    }
                }
                let merged = merge_threshold(per_shard);
                if j > 0 {
                    results.push(',');
                }
                let body = proto::matches_body(g.generation, &merged, false);
                let suffix = coverage_suffix(state, &covs);
                results.push_str(&format!("{{{body}{suffix}}}"));
            }
            results.push(']');
            Ok(ok_response(
                "batch",
                &format!("\"generation\":{},\"results\":{}", g.generation, results),
            ))
        }
        // Appends extend the *last* shard: it owns the tail of the
        // global sequence-id space, so new sequences keep the
        // contiguous-range remap intact (global id = its start_seq +
        // local id).
        Request::Ingest { sequences } => {
            let body = ingest_request(&sequences);
            let last = conns.len() - 1;
            let v = match call_shard(state, last, &mut conns[last], &body, trace, parent) {
                ShardReply::Answer(v) => v,
                ShardReply::Typed { code, message } => return Err(error_frame(&code, &message)),
                ShardReply::Down(desc) => {
                    return Err(error_response(
                        ErrorCode::Internal,
                        &format!("ingest shard {last} unavailable: {desc}"),
                    ))
                }
            };
            let field = |k: &str| {
                v.get(k)
                    .and_then(Json::as_u64)
                    .ok_or_else(|| malformed(format!("ingest response missing \"{k}\"")))
            };
            let (g, n, segs) = (
                field("generation")?,
                field("sequences")?,
                field("segments")?,
            );
            state.shards[last].update(|info| {
                info.sequences += n;
                info.segments = segs;
            });
            Ok(ok_response(
                "ingest",
                &format!(
                    "\"generation\":{g},\"sequences\":{n},\"segments\":{segs},\"shard\":{last}"
                ),
            ))
        }
        control => unreachable!("control op {control:?} reached execute"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use warptree_core::search::SearchParams;

    #[test]
    fn forwarded_bodies_parse_as_shard_requests() {
        let p = SearchParams::with_epsilon(0.75).windowed(3);
        let body = format!(
            "{{\"op\":\"search\",\"version\":4,\"query\":{}{}}}",
            encode_query(&[1.0, -2.5]),
            search_params_fragment(&p),
        );
        let (req, version, _) = Request::parse_full(body.as_bytes(), false).unwrap();
        assert_eq!(version, 4);
        match req {
            Request::Search { query, params } => {
                assert_eq!(query, vec![1.0, -2.5]);
                assert_eq!(params.epsilon, 0.75);
                assert_eq!(params.window, Some(3));
                assert_eq!(params.min_len, 1);
                assert_eq!(params.threads, 1);
            }
            other => panic!("wrong request: {other:?}"),
        }
        // The trace fragment only appears when the trace is active,
        // and carries the coordinator's id.
        assert_eq!(trace_fragment(&Trace::noop()), "");
        let t = Trace::active("abc");
        assert_eq!(trace_fragment(&t), ",\"trace\":true,\"trace_id\":\"abc\"");
    }

    /// A backend pin on the client request survives the re-serialization
    /// to shard bodies, so every shard enforces the same pin the client
    /// asked the coordinator for.
    #[test]
    fn backend_pin_is_forwarded_to_shards() {
        use warptree_core::search::BackendKind;
        let p = SearchParams::with_epsilon(0.5).on_backend(BackendKind::Esa);
        let body = format!(
            "{{\"op\":\"search\",\"version\":4,\"query\":{}{}}}",
            encode_query(&[1.0]),
            search_params_fragment(&p),
        );
        assert!(body.contains(",\"backend\":\"esa\""), "{body}");
        let (req, _, _) = Request::parse_full(body.as_bytes(), false).unwrap();
        assert_eq!(req.backend_pin(), Some(BackendKind::Esa));
        // Unpinned requests serialize without the field at all, keeping
        // forwarded bodies byte-identical to the pre-backend protocol.
        let plain = search_params_fragment(&SearchParams::with_epsilon(0.5));
        assert!(!plain.contains("backend"), "{plain}");
    }

    #[test]
    fn start_rejects_address_count_mismatch() {
        let manifest = ShardManifest {
            generation: 1,
            shards: vec![warptree_disk::ShardMeta {
                dir: "shard-0000".into(),
                start_seq: 0,
                seq_count: 1,
                values: 4,
            }],
        };
        let config = CoordConfig {
            shard_addrs: vec!["127.0.0.1:1".into(), "127.0.0.1:2".into()],
            ..CoordConfig::default()
        };
        let err = match Coordinator::start_with_manifest(&manifest, config) {
            Ok(_) => panic!("mismatched address count must be rejected"),
            Err(e) => e,
        };
        assert!(err.to_string().contains("1 shards but 2 addresses"));
    }
}
