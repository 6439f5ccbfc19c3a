//! `serve-ingest`: the paper-scale stock corpus served by
//! `server::Server::start` (default config, background compaction on)
//! over two closed-loop connections.
//!
//! Per connection, every twenty ops are nine threshold searches, nine
//! k-NN searches and two `ingest`s of four new seeded stock sequences.
//! Each search's ε comes from a seeded ladder of target answer counts
//! (10 … 2,000), so responses span small and large frames. The index
//! (about 3 MiB) is larger than the server's 256-page (2 MiB) cache.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use warptree::core::search::Match;
use warptree::core::sequence::{Occurrence, SeqId, Value};
use warptree::obs::{MetricsRegistry, MetricsSnapshot};
use warptree::server::client::{encode_query, ingest_request, search_request_v4, Client};
use warptree::server::json::{self, Json};
use warptree::server::{Server, ServerConfig, ServerHandle};

use crate::common::{
    build_dir, dir_bytes, log_phases, ms, stock, sub_seed, Args, Op, PeakRss, Report, Rng, Stop,
    Tally, WorkDir, POOL_SEED, SETUP_REPS,
};
use crate::engine::{nproc, Item, KnnItem, Plan, K};
use crate::oracle::{self, Ingested};
use crate::stats::{median, tail};
use crate::trace::Tracer;

/// Target answer counts of the ε ladder.
pub const LADDER: [f64; 6] = [10.0, 30.0, 100.0, 300.0, 1000.0, 2000.0];
/// Client connections (and threads): never more than `nproc`.
const CONNS: usize = 2;
const THRESHOLD_ITEMS: usize = 100;
const KNN_ITEMS: usize = 50;
/// Sequences per ingest batch and their mean length.
const BATCH_SEQS: usize = 4;
const BATCH_LEN: usize = 60;
/// Ingest batches generated per run (reused cyclically if exceeded).
const BATCHES: usize = 64;
/// One connection's op cycle: 9 searches, 9 k-NN, 2 ingests.
const CYCLE: [Op; 20] = {
    use Op::{Ingest as I, Knn as K_, Search as S};
    [
        S, K_, S, K_, I, S, K_, S, K_, S, K_, S, K_, S, I, K_, S, K_, S, K_,
    ]
};

/// What one wire exchange cost, split by layer.
#[derive(Clone, Copy, Default)]
pub struct Wire {
    pub encode_us: f64,
    pub roundtrip_us: f64,
    pub decode_us: f64,
    pub bytes: f64,
    pub queue_us: f64,
    pub service_us: f64,
}

impl Wire {
    /// Client-observed latency: encode + round trip + decode.
    pub fn latency_ms(&self) -> f64 {
        (self.encode_us + self.roundtrip_us + self.decode_us) / 1e3
    }

    /// Round-trip time the server's own timings do not explain.
    pub fn residual_us(&self) -> f64 {
        self.roundtrip_us - self.queue_us - self.service_us
    }
}

/// Sends one request and decodes the reply, timing each client layer
/// and recording spans when tracing. `encode` builds the body.
pub fn exchange(
    client: &mut Client,
    encode: impl FnOnce() -> String,
    tracer: Option<&Tracer>,
    name: &'static str,
) -> Result<(Wire, Json), String> {
    let t0 = Instant::now();
    let body = encode();
    let t1 = Instant::now();
    let text = client.request_raw(&body).map_err(|e| e.to_string())?;
    let t2 = Instant::now();
    let v = json::parse(&text)?;
    let t3 = Instant::now();
    if v.get("ok").and_then(Json::as_bool) != Some(true) {
        return Err(format!("error response: {}", &text[..text.len().min(300)]));
    }
    let timing = |k: &str| {
        v.get("timings")
            .and_then(|t| t.get(k))
            .and_then(Json::as_u64)
            .map_or(0.0, |ns| ns as f64 / 1e3)
    };
    let w = Wire {
        encode_us: ms(t0, t1) * 1e3,
        roundtrip_us: ms(t1, t2) * 1e3,
        decode_us: ms(t2, t3) * 1e3,
        bytes: text.len() as f64,
        queue_us: timing("queue_ns"),
        service_us: timing("service_ns"),
    };
    if let Some(tr) = tracer.filter(|t| t.is_on()) {
        let op = tr.id();
        tr.record(op, None, op, name, t0, t3, vec![]);
        if name == "op.ingest" {
            // The client/wire split covers the read path only.
            return Ok((w, v));
        }
        tr.child(op, op, "client.encode", t0, t1, vec![]);
        tr.child(
            op,
            op,
            "client.roundtrip",
            t1,
            t2,
            vec![
                ("queue_us", w.queue_us),
                ("service_us", w.service_us),
                ("residual_us", w.residual_us()),
            ],
        );
        tr.child(op, op, "client.decode", t2, t3, vec![("bytes", w.bytes)]);
    }
    Ok((w, v))
}

/// The matches of a search/knn response, in wire order.
pub fn matches(v: &Json) -> Result<Vec<Match>, String> {
    let arr = v
        .get("matches")
        .and_then(Json::as_arr)
        .ok_or("response has no matches array")?;
    arr.iter()
        .map(|m| {
            let u = |k: &str| {
                m.get(k)
                    .and_then(Json::as_u64)
                    .ok_or_else(|| format!("match without {k}"))
            };
            Ok(Match {
                occ: Occurrence::new(
                    SeqId(u("seq")? as u32),
                    u("start")? as u32,
                    u("len")? as u32,
                ),
                dist: m
                    .get("dist")
                    .and_then(Json::as_f64)
                    .ok_or("match without dist")?,
            })
        })
        .collect()
}

/// A version-4 k-NN body (the response carries server timings).
pub fn knn_body(query: &[Value]) -> String {
    format!(
        "{{\"op\":\"knn\",\"version\":4,\"query\":{},\"k\":{K}}}",
        encode_query(query)
    )
}

/// A version-4 search body asking for `threads` workers per request.
pub fn search_body_parallel(item: &Item, threads: u32) -> String {
    let body = search_request_v4(&item.query, item.epsilon, None);
    format!("{},\"parallelism\":{threads}}}", &body[..body.len() - 1])
}

/// A plan whose threshold items take ε from the answer-count ladder.
pub fn ladder_plan(
    store: &warptree::core::sequence::SequenceStore,
    seed: u64,
    n_items: usize,
    n_knn: usize,
) -> Result<Plan, String> {
    let mut rng = Rng::new(sub_seed(POOL_SEED, 5));
    // Stratified: each run of six items covers the ladder once.
    let mut rungs: Vec<f64> = Vec::new();
    Plan::build(
        store,
        seed,
        n_items,
        n_knn,
        |_| {
            if rungs.is_empty() {
                rungs = LADDER.to_vec();
                rng.shuffle(&mut rungs);
            }
            rungs.pop().expect("refilled")
        },
        |q, target| oracle::ladder_truth(store, q, target as usize),
    )
}

/// Counter deltas of a server registry over the measured phase.
pub struct RegDelta {
    before: MetricsSnapshot,
    after: MetricsSnapshot,
}

impl RegDelta {
    pub fn new(before: MetricsSnapshot, after: MetricsSnapshot) -> RegDelta {
        RegDelta { before, after }
    }

    pub fn counter(&self, k: &str) -> f64 {
        let get = |s: &MetricsSnapshot| s.counters.get(k).copied().unwrap_or(0);
        get(&self.after).saturating_sub(get(&self.before)) as f64
    }

    /// `(count, sum)` deltas of a histogram (both exact).
    pub fn hist(&self, k: &str) -> (f64, f64) {
        let get = |s: &MetricsSnapshot| s.histograms.get(k).map_or((0, 0), |h| (h.count, h.sum));
        let (a, b) = (get(&self.after), get(&self.before));
        ((a.0 - b.0) as f64, a.1.wrapping_sub(b.1) as f64)
    }
}

/// The per-query funnel counters the servers' registries publish, and
/// their page-cache traffic.
pub fn put_server_funnel(report: &mut Report, deltas: &[RegDelta], ops: f64) {
    let c = |k: &str| deltas.iter().map(|d| d.counter(k)).sum::<f64>();
    let per_op = |k: &str| c(k) / ops.max(1.0);
    report.put("filter.cells", per_op("search.filter_cells"), "count");
    report.put(
        "filter.nodes_visited",
        per_op("search.nodes_visited"),
        "count",
    );
    report.put("filter.candidates", per_op("search.candidates"), "count");
    report.put(
        "postprocess.cells",
        per_op("search.postprocess_cells"),
        "count",
    );
    report.put(
        "cascade.keogh_kills",
        per_op("search.cascade_lb_keogh_kills"),
        "count",
    );
    report.put(
        "cascade.improved_kills",
        per_op("search.cascade_lb_improved_kills"),
        "count",
    );
    report.put(
        "cascade.abandon_kills",
        per_op("search.cascade_abandon_kills"),
        "count",
    );
    report.put(
        "postprocess.yield",
        c("search.answers") / c("search.candidates").max(1.0),
        "ratio",
    );
    let (hits, misses) = (c("disk.page_cache.hits"), c("disk.page_cache.misses"));
    report.put(
        "disk.page_cache.hit_ratio",
        hits / (hits + misses).max(1.0),
        "ratio",
    );
    report.put("disk.page_reads", misses / ops.max(1.0), "count");
}

/// The client/wire split of the traced query ops (`op.search`,
/// `op.knn`) from their spans.
pub fn put_wire(report: &mut Report, tracer: &Tracer) -> Result<(), String> {
    let mut enc = Vec::new();
    let mut rt = Vec::new();
    let mut queue = Vec::new();
    let mut service = Vec::new();
    let mut residual = Vec::new();
    let mut decode = Vec::new();
    let mut bytes = Vec::new();
    for name in ["client.encode", "client.roundtrip", "client.decode"] {
        tracer.with_named(name, |spans| {
            for s in spans {
                let us = s.ms() * 1e3;
                match name {
                    "client.encode" => enc.push(us),
                    "client.roundtrip" => {
                        rt.push(us);
                        queue.push(s.attr("queue_us").unwrap_or(0.0));
                        service.push(s.attr("service_us").unwrap_or(0.0));
                        residual.push(s.attr("residual_us").unwrap_or(0.0));
                    }
                    _ => {
                        decode.push(us);
                        bytes.push(s.attr("bytes").unwrap_or(0.0));
                    }
                }
            }
        });
    }
    let med = |v: &[f64], what: &str| median(v).ok_or_else(|| format!("no {what} samples"));
    report.put("client.encode_us", med(&enc, "encode")?, "us");
    report.put("client.roundtrip_us", med(&rt, "round trip")?, "us");
    report.put("server.queue_us_p50", med(&queue, "queue")?, "us");
    report.put(
        "server.queue_us_p90",
        tail(&queue, 0.9, "server.queue_us")?,
        "us",
    );
    report.put("server.service_us_p50", med(&service, "service")?, "us");
    report.put(
        "server.service_us_p90",
        tail(&service, 0.9, "server.service_us")?,
        "us",
    );
    report.put("wire.residual_us_p50", med(&residual, "residual")?, "us");
    report.put(
        "wire.residual_frac",
        residual.iter().sum::<f64>() / rt.iter().sum::<f64>().max(1e-9),
        "ratio",
    );
    report.put("client.decode_us_p50", med(&decode, "decode")?, "us");
    report.put(
        "client.decode_us_p90",
        tail(&decode, 0.9, "client.decode_us")?,
        "us",
    );
    report.put("response.bytes_p50", med(&bytes, "bytes")?, "B");
    report.put(
        "response.bytes_p90",
        tail(&bytes, 0.9, "response.bytes")?,
        "B",
    );
    report.put(
        "decode.ns_per_byte",
        decode.iter().sum::<f64>() * 1e3 / bytes.iter().sum::<f64>().max(1.0),
        "ns",
    );
    Ok(())
}

/// State the two client threads share.
struct Shared<'a> {
    plan: &'a Plan,
    batches: &'a [Vec<Vec<Value>>],
    base_seqs: u32,
    /// Sequences ingested so far, in commit order (ids `base_seqs..`).
    ingested: Mutex<Vec<Vec<Value>>>,
    next_batch: AtomicUsize,
    /// Next pool position per read op type, shared so the connections
    /// walk each pool in order together.
    next: [AtomicUsize; 2],
    counts: [AtomicUsize; 2],
    tracer: &'a Tracer,
    /// Service time of each successful ingest, µs.
    ingest_service: Mutex<Vec<f64>>,
}

impl Shared<'_> {
    /// Runs op `j` of connection `conn`'s cycle.
    fn op(
        &self,
        client: &mut Client,
        conn: usize,
        j: usize,
        traced: bool,
        tally: &mut Tally,
    ) -> f64 {
        let tracer = traced.then_some(self.tracer);
        let kind = CYCLE[(j + conn * CYCLE.len() / CONNS) % CYCLE.len()];
        let slot = match kind {
            Op::Ingest => 0,
            read => self.next[read.idx()].fetch_add(1, Ordering::Relaxed),
        };
        let plan = self.plan;
        let (lat, check, ok) = match kind {
            Op::Search => {
                let item = &plan.items[plan.order[slot % plan.items.len()]];
                let r = exchange(
                    client,
                    || search_request_v4(&item.query, item.epsilon, None),
                    tracer,
                    "op.search",
                );
                let c0 = Instant::now();
                let (lat, ok) = match r {
                    Ok((w, v)) => (
                        w.latency_ms(),
                        matches(&v).and_then(|got| {
                            let seqs = self.ingested.lock().expect("ingest log poisoned");
                            let ing = Ingested {
                                base_seqs: self.base_seqs,
                                seqs: &seqs,
                            };
                            oracle::check_threshold(
                                got,
                                &item.truth,
                                &item.query,
                                item.epsilon,
                                &ing,
                            )
                        }),
                    ),
                    Err(e) => (0.0, Err(e)),
                };
                (lat, c0.elapsed(), ok)
            }
            Op::Knn => {
                let item: &KnnItem = &plan.knn[plan.knn_order[slot % plan.knn.len()]];
                let r = exchange(client, || knn_body(&item.query), tracer, "op.knn");
                let c0 = Instant::now();
                let (lat, ok) = match r {
                    Ok((w, v)) => (
                        w.latency_ms(),
                        matches(&v).and_then(|got| {
                            let seqs = self.ingested.lock().expect("ingest log poisoned");
                            let ing = Ingested {
                                base_seqs: self.base_seqs,
                                seqs: &seqs,
                            };
                            oracle::check_knn(&got, &item.reference, &item.query, K, &ing)
                        }),
                    ),
                    Err(e) => (0.0, Err(e)),
                };
                (lat, c0.elapsed(), ok)
            }
            Op::Ingest => {
                let batch = &self.batches
                    [self.next_batch.fetch_add(1, Ordering::Relaxed) % self.batches.len()];
                // Hold the log across the request so ids follow commit order.
                let mut log = self.ingested.lock().expect("ingest log poisoned");
                let before = log.len();
                log.extend(batch.iter().cloned());
                let r = exchange(
                    client,
                    || ingest_request(batch).replacen("\"version\":2", "\"version\":4", 1),
                    tracer,
                    "op.ingest",
                );
                let c0 = Instant::now();
                let (lat, ok) = match r {
                    Ok((w, v)) => {
                        let n = v.get("sequences").and_then(Json::as_u64);
                        self.ingest_service
                            .lock()
                            .expect("poisoned")
                            .push(w.service_us);
                        let ok = if n == Some(batch.len() as u64) {
                            Ok(())
                        } else {
                            Err(format!("ingest acknowledged {n:?} sequences"))
                        };
                        (w.latency_ms(), ok)
                    }
                    Err(e) => {
                        log.truncate(before);
                        (0.0, Err(e))
                    }
                };
                (lat, c0.elapsed(), ok)
            }
        };
        if ok.is_ok() && kind != Op::Ingest {
            self.counts[kind.idx()].fetch_add(1, Ordering::Relaxed);
        }
        tally.record(kind, lat, ok, check);
        lat
    }
}

fn start_server(dir: &std::path::Path, traced: bool) -> Result<ServerHandle, String> {
    let config = ServerConfig::default();
    if traced {
        // Metering the filesystem adds the `disk.vfs.*` write counters.
        let reg = MetricsRegistry::new();
        let vfs = warptree::disk::MeteredVfs::new(warptree::disk::real_vfs(), &reg);
        Server::start_with(vfs, dir, config, reg)
    } else {
        Server::start(dir, config)
    }
    .map_err(|e| format!("start server: {e}"))
}

/// Waits until the compactor has nothing left to fold and has been
/// quiet for longer than its polling interval.
fn await_compactor(client: &mut Client, handle: &ServerHandle) -> Result<(), String> {
    let cfg = ServerConfig::default();
    let count = || {
        handle
            .registry()
            .snapshot()
            .histograms
            .get("server.compact_ns")
            .map_or(0, |h| h.count)
    };
    let deadline = Instant::now() + Duration::from_secs(20);
    loop {
        let c0 = count();
        std::thread::sleep(cfg.compact_interval + Duration::from_millis(200));
        let info = client.info().map_err(|e| format!("info: {e}"))?;
        let tails = info.get("segments").and_then(Json::as_u64).unwrap_or(1) - 1;
        if (tails as usize) < cfg.compact_threshold && count() == c0 {
            return Ok(());
        }
        if Instant::now() > deadline {
            return Err("compactor did not go idle".to_string());
        }
    }
}

pub fn run(args: &Args, process_start: Instant, tracer: &Tracer) -> Result<Report, String> {
    let traced = tracer.is_on();
    let work = WorkDir::create("serve-ingest")?;
    let store = stock(POOL_SEED, 545, 232);

    let t_setup = Instant::now();
    let (mut setup, mut cat, mut build, mut open) = (vec![], vec![], vec![], vec![]);
    let mut kept = None;
    let mut spare = Vec::new();
    for r in 0..SETUP_REPS {
        let dir = work.0.join(format!("idx-{r}"));
        let (c, b) = build_dir(&store, &store, &dir)?;
        let t0 = Instant::now();
        let handle = start_server(&dir, traced)?;
        let o = ms(t0, Instant::now());
        setup.push((c + b + o) / 1e3);
        cat.push(c);
        build.push(b);
        open.push(o);
        if r + 1 == SETUP_REPS {
            kept = Some((handle, dir));
        } else {
            spare.push(handle);
        }
    }
    // Stopping waits out each server's background polls: do it at once.
    std::thread::scope(|s| {
        for h in spare {
            s.spawn(move || h.stop());
        }
    });
    let (handle, dir) = kept.expect("at least one set-up");
    let t_setup = t_setup.elapsed();
    let t_oracle = Instant::now();
    let plan = ladder_plan(&store, args.seed, THRESHOLD_ITEMS, KNN_ITEMS)?;
    let fresh = stock(sub_seed(args.seed, 12), BATCHES * BATCH_SEQS, BATCH_LEN);
    let batches: Vec<Vec<Vec<Value>>> = fresh
        .iter()
        .map(|(_, s)| s.values().to_vec())
        .collect::<Vec<_>>()
        .chunks(BATCH_SEQS)
        .map(|c| c.to_vec())
        .collect();
    let shared = Shared {
        plan: &plan,
        batches: &batches,
        base_seqs: store.len() as u32,
        ingested: Mutex::new(Vec::new()),
        next_batch: AtomicUsize::new(0),
        next: [AtomicUsize::new(0), AtomicUsize::new(0)],
        counts: [AtomicUsize::new(0), AtomicUsize::new(0)],
        tracer,
        ingest_service: Mutex::new(Vec::new()),
    };
    let t_oracle = t_oracle.elapsed();
    let mut clients = (0..CONNS)
        .map(|_| Client::connect(handle.addr()).map_err(|e| format!("connect: {e}")))
        .collect::<Result<Vec<_>, _>>()?;

    // Warm-up: half a cycle per connection, untimed.
    let mut warm = Tally::default();
    for (conn, client) in clients.iter_mut().enumerate() {
        for j in 0..CYCLE.len() / 2 {
            shared.op(client, conn, j, false, &mut warm);
        }
    }
    shared.ingest_service.lock().expect("poisoned").clear();
    for c in shared.counts.iter().chain(&shared.next) {
        c.store(0, Ordering::Relaxed);
    }

    let reg0 = handle.registry().snapshot();
    let logged_values = |shared: &Shared| -> usize {
        let log = shared.ingested.lock().expect("ingest log poisoned");
        log.iter().map(Vec::len).sum()
    };
    let values_before = logged_values(&shared);
    let stop = Stop::new(args.seconds, process_start);
    // One pass over the search pool, two over the k-NN pool.
    let want = [THRESHOLD_ITEMS, 2 * KNN_ITEMS];
    debug_assert!(want.iter().all(|&w| w >= crate::stats::needed_for(0.9)));
    let rss = PeakRss::start();
    let t_phase = Instant::now();
    let tallies: Vec<Tally> = std::thread::scope(|s| {
        let workers: Vec<_> = clients
            .iter_mut()
            .enumerate()
            .map(|(conn, client)| {
                let (shared, stop) = (&shared, &stop);
                s.spawn(move || {
                    let mut tally = Tally::default();
                    let mut j = CYCLE.len();
                    loop {
                        let counts = [
                            shared.counts[0].load(Ordering::Relaxed),
                            shared.counts[1].load(Ordering::Relaxed),
                        ];
                        if stop.done(&counts, &want) {
                            break;
                        }
                        shared.op(client, conn, j, traced, &mut tally);
                        j += 1;
                    }
                    tally
                })
            })
            .collect();
        workers
            .into_iter()
            .map(|w| w.join().expect("client thread panicked"))
            .collect()
    });
    let wall = t_phase.elapsed();
    let peak_rss = rss.finish();
    let reg1 = handle.registry().snapshot();
    let mut tally = Tally::default();
    for t in tallies {
        tally.merge(t);
    }
    log_phases("serve-ingest", t_setup, t_oracle, wall, tally.attempted);
    let ingest_lat = tally.lat[Op::Ingest.idx()].clone();

    await_compactor(&mut clients[0], &handle)?;
    let ingested_values = logged_values(&shared);
    let values = store.total_len() as usize + ingested_values;
    let file_bytes = dir_bytes(&dir) as f64;

    let mut report = Report::default();
    report.count(&warm);
    if !traced {
        report.put("setup_s", median(&setup).expect("reps"), "s");
        report.put_latency(&tally, wall, CONNS)?;
        report.put("index_bytes_per_value", file_bytes / values as f64, "B");
        report.put("peak_rss_mib", peak_rss, "MiB");
        drop(clients);
        handle.stop();
        return Ok(report);
    }

    report.count(&tally);
    report.put("build.categorize_ms", median(&cat).expect("reps"), "ms");
    report.put("build.index_ms", median(&build).expect("reps"), "ms");
    report.put("build.open_ms", median(&open).expect("reps"), "ms");
    report.put("index.file_bytes", file_bytes, "B");
    let delta = [RegDelta::new(reg0, reg1)];
    let query_ops = (tally.lat[0].len() + tally.lat[1].len()) as f64;
    put_server_funnel(&mut report, &delta, query_ops);
    put_wire(&mut report, tracer)?;
    let d = &delta[0];
    // Each ingested value is one 8-byte float.
    let ingested_bytes = 8.0 * (ingested_values - values_before) as f64;
    report.put(
        "disk.write_bytes_per_ingested_byte",
        d.counter("disk.vfs.write_bytes") / ingested_bytes.max(1.0),
        "ratio",
    );
    let (compactions, compact_ns) = d.hist("server.compact_ns");
    report.put("compaction.count", compactions, "count");
    report.put("compaction.ms_sum", compact_ns / 1e6, "ms");
    let service = shared.ingest_service.lock().expect("poisoned").clone();
    report.put(
        "ingest.service_us_p50",
        median(&service).ok_or("no ingests")?,
        "us",
    );
    report.put(
        "ingest.p50_ms",
        median(&ingest_lat).ok_or("no ingests")?,
        "ms",
    );

    // Per-request parallelism over the wire (the server caps it at its
    // `max_parallelism`, 1 by default).
    let client = &mut clients[0];
    let (mut one, mut many) = (0.0, 0.0);
    for (n, &k) in plan.order.iter().take(12).enumerate() {
        let item = &plan.items[k];
        let mut time = |threads: u32| -> Result<f64, String> {
            Ok(
                exchange(client, || search_body_parallel(item, threads), None, "")?
                    .0
                    .roundtrip_us,
            )
        };
        if n % 2 == 0 {
            one += time(1)?;
            many += time(nproc())?;
        } else {
            many += time(nproc())?;
            one += time(1)?;
        }
    }
    report.put("parallel.speedup", one / many, "ratio");

    // Tracing overhead: the same read ops, untraced and traced,
    // interleaved (ingest slots are skipped to keep the corpus fixed).
    let (mut off, mut on) = (0.0, 0.0);
    let mut scratch = Tally::default();
    let mut pairs = 0;
    let mut j = 0;
    while pairs < 24 {
        j += 1;
        let kind = CYCLE[j % CYCLE.len()];
        if kind == Op::Ingest {
            continue;
        }
        // Rewind the pool cursor so both runs of the pair ask the same query.
        let cursor = &shared.next[kind.idx()];
        let at = cursor.load(Ordering::Relaxed);
        let mut run = |traced| {
            cursor.store(at, Ordering::Relaxed);
            shared.op(client, 0, j, traced, &mut scratch)
        };
        if pairs % 2 == 0 {
            off += run(false);
            on += run(true);
        } else {
            on += run(true);
            off += run(false);
        }
        pairs += 1;
    }
    report.count(&scratch);
    report.put("trace.overhead_frac", on / off - 1.0, "ratio");
    drop(clients);
    handle.stop();

    // Resident bytes of the final committed index, through the library.
    let idx = warptree::open_index_dir(&dir, crate::common::CACHE_PAGES)
        .map_err(|e| format!("reopen: {e}"))?;
    let resident: u64 =
        idx.tree.resident_bytes() + idx.segments.iter().map(|s| s.resident_bytes()).sum::<u64>();
    report.put("index.resident_bytes", resident as f64, "B");
    Ok(report)
}
