//! `paper-engine`: the library path with no wire.
//!
//! One client thread runs Table-3-style stock queries against the
//! paper-scale corpus (545 × 232) through `core::search::run_query_with`
//! over a disk-resident SST_C/ME(40) tree opened with `warptree serve`'s
//! cache sizes. Mix: three threshold searches (ε cycling through
//! {5, 10, 20, 30}) per k-NN search (k = 10), each at `parallel(nproc)`.

use std::time::Instant;

use warptree::core::search::{
    filter_tree, postprocess, run_query_with, seq_scan, Match, QueryRequest, SearchMetrics,
    SearchParams, SearchStats, SeqScanMode,
};
use warptree::core::sequence::Value;
use warptree::obs::MetricsRegistry;
use warptree::DiskIndexDir;

use crate::common::{
    build_dir, dir_bytes, log_phases, ms, stock, sub_seed, table3_queries, Args, Op, PeakRss,
    Report, Stop, Tally, WorkDir, CACHE_PAGES, POOL_SEED, SETUP_REPS,
};
use crate::oracle::{self, Ingested};
use crate::stats::{median, tail};
use crate::trace::Tracer;

/// The ε bands of the paper's Table 3 used by the threshold mix.
pub const EPSILONS: [f64; 4] = [5.0, 10.0, 20.0, 30.0];
/// Neighbours per k-NN search.
pub const K: usize = 10;
/// Distinct threshold queries (a quarter per ε band) and k-NN queries.
const THRESHOLD_ITEMS: usize = 100;
const KNN_ITEMS: usize = 50;
/// Untimed ops run before the measured phase.
const WARMUP_OPS: usize = 8;

/// A threshold query with its ground truth.
pub struct Item {
    pub query: Vec<Value>,
    pub epsilon: f64,
    pub truth: Vec<Match>,
}

/// A k-NN query with its scan-built reference.
pub struct KnnItem {
    pub query: Vec<Value>,
    pub reference: Vec<Match>,
}

/// Worker threads per query: the machine's parallelism.
pub fn nproc() -> u32 {
    std::thread::available_parallelism().map_or(1, |n| n.get() as u32)
}

struct Engine<'a> {
    idx: &'a DiskIndexDir,
    threads: u32,
    tracer: &'a Tracer,
    metrics: SearchMetrics,
}

impl Engine<'_> {
    /// One threshold search; returns its latency and answers. Traced
    /// searches call the filter and post-processing layers directly so
    /// each gets its own span.
    fn search(&self, item: &Item, threads: u32, traced: bool) -> (f64, Vec<Match>) {
        let idx = self.idx;
        let m = &self.metrics;
        if !traced {
            let req = QueryRequest::threshold(&item.query, item.epsilon).parallel(threads);
            let t0 = Instant::now();
            let out = run_query_with(&idx.tree, &idx.alphabet, &idx.store, &req, m);
            let t1 = Instant::now();
            let out = out.expect("benchmark queries are valid");
            return (ms(t0, t1), out.matches().to_vec());
        }
        let mut params = SearchParams::with_epsilon(item.epsilon);
        params.threads = threads;
        let s0 = m.snapshot();
        let t0 = Instant::now();
        let candidates = filter_tree(&idx.tree, &idx.alphabet, &item.query, &params, m);
        let t1 = Instant::now();
        let answers = postprocess(&idx.store, &item.query, &candidates, &params, m);
        let t2 = Instant::now();
        let d = delta(&m.snapshot(), &s0);
        let tr = self.tracer;
        let op = tr.id();
        tr.record(
            op,
            None,
            op,
            "op.search",
            t0,
            t2,
            vec![("epsilon", item.epsilon)],
        );
        tr.child(
            op,
            op,
            "filter",
            t0,
            t1,
            vec![
                ("cells", d.filter_cells as f64),
                ("nodes_visited", d.nodes_visited as f64),
                ("candidates", d.candidates as f64),
            ],
        );
        tr.child(
            op,
            op,
            "postprocess",
            t1,
            t2,
            vec![
                ("cells", d.postprocess_cells as f64),
                ("candidates", d.candidates as f64),
                ("answers", d.answers as f64),
                ("keogh_kills", d.cascade_lb_keogh_kills as f64),
                ("improved_kills", d.cascade_lb_improved_kills as f64),
                ("abandon_kills", d.cascade_abandon_kills as f64),
            ],
        );
        (ms(t0, t2), answers.matches().to_vec())
    }

    fn knn(&self, item: &KnnItem, traced: bool) -> (f64, Vec<Match>) {
        let idx = self.idx;
        let m = &self.metrics;
        let req = QueryRequest::knn(&item.query, K).parallel(self.threads);
        let s0 = m.snapshot();
        let t0 = Instant::now();
        let out = run_query_with(&idx.tree, &idx.alphabet, &idx.store, &req, m);
        let t1 = Instant::now();
        let out = out.expect("benchmark queries are valid");
        if traced {
            let d = delta(&m.snapshot(), &s0);
            let tr = self.tracer;
            let op = tr.id();
            tr.record(op, None, op, "op.knn", t0, t1, vec![]);
            tr.child(
                op,
                op,
                "knn",
                t0,
                t1,
                vec![
                    ("filter_cells", d.filter_cells as f64),
                    ("postprocess_cells", d.postprocess_cells as f64),
                ],
            );
        }
        (ms(t0, t1), out.into_ranked())
    }

    /// Runs op `i` of the mix and records it.
    fn op(&self, i: usize, plan: &Plan, traced: bool, tally: &mut Tally) -> f64 {
        let none = &Ingested::NONE;
        if i % 4 == 3 {
            let item = &plan.knn[plan.knn_order[(i / 4) % plan.knn.len()]];
            let (lat, got) = self.knn(item, traced);
            let c0 = Instant::now();
            let ok = oracle::check_knn(&got, &item.reference, &item.query, K, none);
            tally.record(Op::Knn, lat, ok, c0.elapsed());
            lat
        } else {
            let item = &plan.items[plan.order[(i - i / 4) % plan.items.len()]];
            let (lat, got) = self.search(item, self.threads, traced);
            let c0 = Instant::now();
            let ok = oracle::check_threshold(got, &item.truth, &item.query, item.epsilon, none);
            tally.record(Op::Search, lat, ok, c0.elapsed());
            lat
        }
    }
}

fn delta(a: &SearchStats, b: &SearchStats) -> SearchStats {
    SearchStats {
        filter_cells: a.filter_cells - b.filter_cells,
        nodes_visited: a.nodes_visited - b.nodes_visited,
        candidates: a.candidates - b.candidates,
        postprocess_cells: a.postprocess_cells - b.postprocess_cells,
        answers: a.answers - b.answers,
        cascade_lb_keogh_kills: a.cascade_lb_keogh_kills - b.cascade_lb_keogh_kills,
        cascade_lb_improved_kills: a.cascade_lb_improved_kills - b.cascade_lb_improved_kills,
        cascade_abandon_kills: a.cascade_abandon_kills - b.cascade_abandon_kills,
        ..SearchStats::default()
    }
}

/// The seeded query pools and the op order over them.
pub struct Plan {
    pub items: Vec<Item>,
    pub knn: Vec<KnnItem>,
    pub order: Vec<usize>,
    pub knn_order: Vec<usize>,
}

impl Plan {
    /// Draws `n_items + n_knn` Table-3 queries from the fixed pool seed;
    /// every fourth becomes a k-NN query (so both pools span the price
    /// bands). Threshold query `t` gets the parameter `param_of(t)`,
    /// which `truth_of` turns into its ε and ground truth. The oracle
    /// runs here, on `nproc` threads; `seed` shuffles the op order.
    pub fn build(
        store: &warptree::core::sequence::SequenceStore,
        seed: u64,
        n_items: usize,
        n_knn: usize,
        mut param_of: impl FnMut(usize) -> f64,
        truth_of: impl Fn(&[Value], f64) -> (f64, Vec<Match>) + Sync,
    ) -> Result<Plan, String> {
        let queries = table3_queries(store, n_items + n_knn, sub_seed(POOL_SEED, 2));
        let mut th = Vec::new();
        let mut kq = Vec::new();
        for (i, q) in queries.into_iter().enumerate() {
            if i % 4 == 3 && kq.len() < n_knn || th.len() == n_items {
                kq.push(q);
            } else {
                let param = param_of(th.len());
                th.push((q, param));
            }
        }
        let threads = nproc() as usize;
        let truths = oracle::par_map(threads, &th, |(q, param)| truth_of(q, *param));
        let refs = oracle::par_map(threads, &kq, |q| oracle::knn_reference(store, q, K));
        let items: Vec<Item> = th
            .into_iter()
            .zip(truths)
            .map(|((query, _), (epsilon, truth))| Item {
                query,
                epsilon,
                truth,
            })
            .collect();
        let knn: Vec<KnnItem> = kq
            .into_iter()
            .zip(refs)
            .map(|(query, reference)| KnnItem { query, reference })
            .collect();
        let probe = items
            .iter()
            .find(|it| it.truth.len() >= 2)
            .ok_or("no threshold query has two answers")?;
        oracle::self_test(&probe.query, probe.epsilon, &probe.truth, &knn[0].reference)?;
        let mut rng = crate::common::Rng::new(sub_seed(seed, 3));
        let mut order: Vec<usize> = (0..items.len()).collect();
        rng.shuffle(&mut order);
        let mut knn_order: Vec<usize> = (0..knn.len()).collect();
        rng.shuffle(&mut knn_order);
        Ok(Plan {
            items,
            knn,
            order,
            knn_order,
        })
    }
}

pub fn run(args: &Args, process_start: Instant, tracer: &Tracer) -> Result<Report, String> {
    let work = WorkDir::create("paper-engine")?;
    let store = stock(POOL_SEED, 545, 232);

    // Set-up: categorize, build and open, SETUP_REPS times.
    let t_setup = Instant::now();
    let (mut setup, mut cat, mut build, mut open) = (vec![], vec![], vec![], vec![]);
    let mut kept: Option<(DiskIndexDir, MetricsRegistry)> = None;
    for r in 0..SETUP_REPS {
        let dir = work.0.join(format!("idx-{r}"));
        let reg = MetricsRegistry::new();
        let (c, b) = build_dir(&store, &store, &dir)?;
        let t0 = Instant::now();
        let idx = if tracer.is_on() {
            warptree::open_index_dir_metered(&dir, CACHE_PAGES, &reg)
        } else {
            warptree::open_index_dir(&dir, CACHE_PAGES)
        }
        .map_err(|e| format!("open: {e}"))?;
        let o = ms(t0, Instant::now());
        setup.push((c + b + o) / 1e3);
        cat.push(c);
        build.push(b);
        open.push(o);
        if r + 1 == SETUP_REPS {
            kept = Some((idx, reg));
        } else {
            drop(idx);
            let _ = std::fs::remove_dir_all(&dir);
        }
    }
    let (idx, reg) = kept.expect("at least one set-up");
    let dir = work.0.join(format!("idx-{}", SETUP_REPS - 1));
    let t_setup = t_setup.elapsed();
    let t_oracle = Instant::now();

    let plan = Plan::build(
        &store,
        args.seed,
        THRESHOLD_ITEMS,
        KNN_ITEMS,
        |t| EPSILONS[t % EPSILONS.len()],
        |q, eps| (eps, oracle::threshold_truth(&store, q, eps)),
    )?;

    let t_oracle = t_oracle.elapsed();
    let engine = Engine {
        idx: &idx,
        threads: nproc(),
        tracer,
        metrics: SearchMetrics::new(),
    };
    let mut tally = Tally::default();
    let mut warm = Tally::default();
    for i in 0..WARMUP_OPS {
        engine.op(i, &plan, false, &mut warm);
    }

    let traced = tracer.is_on();
    let cache0 = cache_counters(&reg);
    let stop = Stop::new(args.seconds, process_start);
    let rss = PeakRss::start();
    let t_phase = Instant::now();
    // Whole passes over both pools: 3 × 100 searches, 2 × 50 k-NN.
    let want = [3 * THRESHOLD_ITEMS, 2 * KNN_ITEMS];
    debug_assert!(want.iter().all(|&w| w >= crate::stats::needed_for(0.9)));
    let mut i = WARMUP_OPS;
    while !stop.done(&[tally.lat[0].len(), tally.lat[1].len()], &want) {
        engine.op(i, &plan, traced, &mut tally);
        i += 1;
    }
    let wall = t_phase.elapsed();
    let peak_rss = rss.finish();
    let cache1 = cache_counters(&reg);
    log_phases("paper-engine", t_setup, t_oracle, wall, tally.attempted);

    let mut report = Report::default();
    report.count(&warm);
    if !traced {
        report.put("setup_s", median(&setup).expect("reps"), "s");
        report.put_latency(&tally, wall, 1)?;
        report.put(
            "index_bytes_per_value",
            dir_bytes(&dir) as f64 / store.total_len() as f64,
            "B",
        );
        report.put("peak_rss_mib", peak_rss, "MiB");
        return Ok(report);
    }

    report.count(&tally);
    report.put("build.categorize_ms", median(&cat).expect("reps"), "ms");
    report.put("build.index_ms", median(&build).expect("reps"), "ms");
    report.put("build.open_ms", median(&open).expect("reps"), "ms");
    report.put("index.file_bytes", dir_bytes(&dir) as f64, "B");
    report.put(
        "index.resident_bytes",
        idx.tree.resident_bytes() as f64,
        "B",
    );
    put_funnel(&mut report, tracer)?;
    let ops = (tally.attempted) as f64;
    let (hits, misses) = (cache1.0 - cache0.0, cache1.1 - cache0.1);
    report.put(
        "disk.page_cache.hit_ratio",
        hits as f64 / (hits + misses).max(1) as f64,
        "ratio",
    );
    report.put("disk.page_reads", misses as f64 / ops.max(1.0), "count");

    // Parallel speed-up and the scan reference on a band-stratified
    // subset of the threshold pool.
    let subset = band_subset(&plan, 6);
    let (mut one, mut many) = (0.0, 0.0);
    for (n, &k) in subset.iter().enumerate() {
        let item = &plan.items[k];
        // Alternate which side runs first to cancel warm-cache bias.
        if n % 2 == 0 {
            one += engine.search(item, 1, false).0;
            many += engine.search(item, engine.threads, false).0;
        } else {
            many += engine.search(item, engine.threads, false).0;
            one += engine.search(item, 1, false).0;
        }
    }
    report.put("parallel.speedup", one / many, "ratio");
    for eps in EPSILONS {
        let band: Vec<&Item> = subset
            .iter()
            .map(|&k| &plan.items[k])
            .filter(|it| it.epsilon == eps)
            .collect();
        let scan: Vec<f64> = band
            .iter()
            .map(|it| {
                let t0 = Instant::now();
                let mut st = SearchStats::default();
                let a = seq_scan(
                    &idx.store,
                    &it.query,
                    &SearchParams::with_epsilon(eps),
                    SeqScanMode::Cascade,
                    &mut st,
                );
                std::hint::black_box(a.len());
                ms(t0, Instant::now())
            })
            .collect();
        let index: Vec<f64> = tracer.with_named("op.search", |v| {
            v.iter()
                .filter(|s| s.attr("epsilon") == Some(eps))
                .map(|s| s.ms())
                .collect()
        });
        let scan_p50 = median(&scan).ok_or("empty ε band")?;
        report.put(format!("seqscan.cascade_ms_p50.eps{eps}"), scan_p50, "ms");
        report.put(
            format!("index_over_scan.eps{eps}"),
            median(&index).ok_or("empty ε band")? / scan_p50,
            "ratio",
        );
    }

    // Tracing overhead: the same ops, untraced and traced, interleaved.
    let (mut off, mut on) = (0.0, 0.0);
    let mut scratch = Tally::default();
    for j in 0..24 {
        let i = WARMUP_OPS + j;
        if j % 2 == 0 {
            off += engine.op(i, &plan, false, &mut scratch);
            on += engine.op(i, &plan, true, &mut scratch);
        } else {
            on += engine.op(i, &plan, true, &mut scratch);
            off += engine.op(i, &plan, false, &mut scratch);
        }
    }
    report.count(&scratch);
    report.put("trace.overhead_frac", on / off - 1.0, "ratio");
    Ok(report)
}

/// Up to `per_band` threshold items of each ε band.
fn band_subset(plan: &Plan, per_band: usize) -> Vec<usize> {
    let mut out = Vec::new();
    for eps in EPSILONS {
        out.extend(
            plan.order
                .iter()
                .copied()
                .filter(|&k| plan.items[k].epsilon == eps)
                .take(per_band),
        );
    }
    out
}

fn cache_counters(reg: &MetricsRegistry) -> (u64, u64) {
    let s = reg.snapshot();
    let get = |k: &str| s.counters.get(k).copied().unwrap_or(0);
    (get("disk.page_cache.hits"), get("disk.page_cache.misses"))
}

/// The filter, cascade/post-processing and k-NN layer metrics from the
/// spans of a traced run.
fn put_funnel(report: &mut Report, tracer: &Tracer) -> Result<(), String> {
    let mean = |name: &str, key: &str| {
        let v = tracer.attr_values(name, key);
        v.iter().sum::<f64>() / v.len().max(1) as f64
    };
    let filter_ms = tracer.durations_ms("filter");
    report.put(
        "filter.ms_p50",
        median(&filter_ms).ok_or("no filter spans")?,
        "ms",
    );
    report.put("filter.cells", mean("filter", "cells"), "count");
    report.put(
        "filter.nodes_visited",
        mean("filter", "nodes_visited"),
        "count",
    );
    report.put("filter.candidates", mean("filter", "candidates"), "count");
    report.put(
        "filter.ns_per_cell",
        filter_ms.iter().sum::<f64>() * 1e6 / tracer.attr_sum("filter", "cells").max(1.0),
        "ns",
    );
    let post_ms = tracer.durations_ms("postprocess");
    report.put(
        "postprocess.ms_p50",
        median(&post_ms).ok_or("no postprocess spans")?,
        "ms",
    );
    report.put(
        "postprocess.ms_p90",
        tail(&post_ms, 0.9, "postprocess.ms")?,
        "ms",
    );
    report.put("postprocess.cells", mean("postprocess", "cells"), "count");
    report.put(
        "cascade.keogh_kills",
        mean("postprocess", "keogh_kills"),
        "count",
    );
    report.put(
        "cascade.improved_kills",
        mean("postprocess", "improved_kills"),
        "count",
    );
    report.put(
        "cascade.abandon_kills",
        mean("postprocess", "abandon_kills"),
        "count",
    );
    report.put(
        "postprocess.yield",
        tracer.attr_sum("postprocess", "answers")
            / tracer.attr_sum("postprocess", "candidates").max(1.0),
        "ratio",
    );
    report.put(
        "knn.ms_p50",
        median(&tracer.durations_ms("knn")).ok_or("no knn spans")?,
        "ms",
    );
    report.put("knn.filter_cells", mean("knn", "filter_cells"), "count");
    report.put(
        "knn.postprocess_cells",
        mean("knn", "postprocess_cells"),
        "count",
    );
    Ok(())
}
