//! `shard-scatter`: a smaller stock corpus (200 × 150) partitioned the
//! way `warptree shard-init` partitions it (contiguous, value-balanced,
//! one alphabet) into two in-process shard servers behind
//! `coord::Coordinator::start`. One closed-loop connection alternates
//! threshold searches (ε from the answer-count ladder) and k-NN
//! searches.
//! Each shard's index (about 0.5 MiB) fits in its 2 MiB page cache.

use std::path::Path;
use std::time::Instant;

use warptree::coord::{CoordConfig, CoordHandle, Coordinator};
use warptree::core::sequence::{SeqId, SequenceStore};
use warptree::disk::{ShardManifest, ShardMeta};
use warptree::server::client::{search_request_v4, Client};
use warptree::server::{Server, ServerConfig, ServerHandle};

use crate::common::{
    build_dir, dir_bytes, log_phases, ms, stock, sub_seed, Args, Op, PeakRss, Report, Stop, Tally,
    WorkDir, CACHE_PAGES, POOL_SEED, SETUP_REPS,
};
use crate::engine::{nproc, Plan, K};
use crate::oracle::{self, Ingested};
use crate::serve::{
    exchange, knn_body, ladder_plan, matches, put_server_funnel, put_wire, search_body_parallel,
    RegDelta,
};
use crate::stats::median;
use crate::trace::Tracer;

const SHARDS: usize = 2;
const THRESHOLD_ITEMS: usize = 75;
const KNN_ITEMS: usize = 50;
const WARMUP_OPS: usize = 8;

/// `warptree shard-init`'s greedy contiguous value-balanced partition:
/// cut after the sequence whose cumulative value count first reaches
/// the running target, leaving at least one sequence per later shard.
fn partition_points(lens: &[u64], shards: usize) -> Vec<usize> {
    let total: u64 = lens.iter().sum();
    let mut cuts = Vec::with_capacity(shards);
    let mut start = 0usize;
    let mut consumed = 0u64;
    for s in 0..shards {
        let remaining_shards = shards - s;
        let max_end = lens.len() - (remaining_shards - 1);
        let target = consumed + (total - consumed) / remaining_shards as u64;
        let mut end = start + 1;
        consumed += lens[start];
        while end < max_end && consumed < target {
            consumed += lens[end];
            end += 1;
        }
        cuts.push(end);
        start = end;
    }
    cuts
}

/// A running cluster: shard servers plus the coordinator.
struct Cluster {
    shards: Vec<ServerHandle>,
    coord: CoordHandle,
}

impl Cluster {
    fn stop(self) {
        self.coord.stop();
        std::thread::scope(|s| {
            for shard in self.shards {
                s.spawn(move || shard.stop());
            }
        });
    }
}

/// Builds the shard directories under `root` and commits the `SHARDS`
/// manifest; returns `(categorize_ms, index_ms)`.
fn init_shards(store: &SequenceStore, root: &Path) -> Result<(f64, f64), String> {
    let lens: Vec<u64> = store.iter().map(|(_, s)| s.len() as u64).collect();
    let (mut cat, mut build) = (0.0, 0.0);
    let mut metas = Vec::new();
    let mut start = 0usize;
    for (i, end) in partition_points(&lens, SHARDS).into_iter().enumerate() {
        let mut slice = SequenceStore::new();
        for id in start..end {
            slice.push(store.get(SeqId(id as u32)).clone());
        }
        let dir = format!("shard-{i:04}");
        // One alphabet over the whole corpus, shared by every shard.
        let (c, b) = build_dir(&slice, store, &root.join(&dir))?;
        cat += c;
        build += b;
        metas.push(ShardMeta {
            dir,
            start_seq: start as u32,
            seq_count: (end - start) as u32,
            values: slice.total_len(),
        });
        start = end;
    }
    let manifest = ShardManifest {
        generation: 1,
        shards: metas,
    };
    warptree::disk::write_shard_manifest(root, &manifest).map_err(|e| format!("manifest: {e}"))?;
    Ok((cat, build))
}

fn start_cluster(root: &Path) -> Result<Cluster, String> {
    let shards = (0..SHARDS)
        .map(|i| Server::start(&root.join(format!("shard-{i:04}")), ServerConfig::default()))
        .collect::<Result<Vec<_>, _>>()
        .map_err(|e| format!("start shard: {e}"))?;
    let config = CoordConfig {
        shard_addrs: shards.iter().map(|s| s.addr().to_string()).collect(),
        ..CoordConfig::default()
    };
    let coord = Coordinator::start(root, config).map_err(|e| format!("start coordinator: {e}"))?;
    Ok(Cluster { shards, coord })
}

/// Runs op `i` of the 1:1 mix through the coordinator. When `direct`
/// holds clients of the shards, the same request is then sent to each
/// shard directly and `(coordinator overhead, slowest shard service)`
/// in µs is returned alongside.
fn op(
    client: &mut Client,
    plan: &Plan,
    i: usize,
    tracer: Option<&Tracer>,
    direct: Option<&mut [Client]>,
    tally: &mut Tally,
) -> (f64, Option<(f64, f64)>) {
    let none = &Ingested::NONE;
    let knn = &plan.knn[plan.knn_order[(i / 2) % plan.knn.len()]];
    let item = &plan.items[plan.order[(i / 2) % plan.items.len()]];
    let (kind, name) = if i % 2 == 1 {
        (Op::Knn, "op.knn")
    } else {
        (Op::Search, "op.search")
    };
    let encode = || match kind {
        Op::Knn => knn_body(&knn.query),
        _ => search_request_v4(&item.query, item.epsilon, None),
    };
    let r = exchange(client, encode, tracer, name);
    let c0 = Instant::now();
    let (lat, ok, rt) = match r {
        Ok((w, v)) => {
            let ok = matches(&v).and_then(|got| {
                if kind == Op::Knn {
                    oracle::check_knn(&got, &knn.reference, &knn.query, K, none)
                } else {
                    oracle::check_threshold(got, &item.truth, &item.query, item.epsilon, none)
                }
            });
            (w.latency_ms(), ok, w.roundtrip_us)
        }
        Err(e) => (0.0, Err(e), 0.0),
    };
    let check = c0.elapsed();
    tally.record(kind, lat, ok, check);
    let split = direct.and_then(|shards| {
        let mut slowest = (0.0f64, 0.0f64);
        for s in shards.iter_mut() {
            let (w, _) = exchange(s, encode, None, "").ok()?;
            if w.roundtrip_us > slowest.0 {
                slowest = (w.roundtrip_us, w.service_us);
            }
        }
        Some((rt - slowest.0, slowest.1))
    });
    (lat, split)
}

pub fn run(args: &Args, process_start: Instant, tracer: &Tracer) -> Result<Report, String> {
    let traced = tracer.is_on();
    let work = WorkDir::create("shard-scatter")?;
    let store = stock(sub_seed(POOL_SEED, 21), 200, 150);

    let t_setup = Instant::now();
    let (mut setup, mut cat, mut build, mut open) = (vec![], vec![], vec![], vec![]);
    let mut kept = None;
    let mut spare = Vec::new();
    for r in 0..SETUP_REPS {
        let root = work.0.join(format!("cluster-{r}"));
        std::fs::create_dir_all(&root).map_err(|e| format!("create {}: {e}", root.display()))?;
        let (c, b) = init_shards(&store, &root)?;
        let t0 = Instant::now();
        let cluster = start_cluster(&root)?;
        let o = ms(t0, Instant::now());
        setup.push((c + b + o) / 1e3);
        cat.push(c);
        build.push(b);
        open.push(o);
        if r + 1 == SETUP_REPS {
            kept = Some((cluster, root));
        } else {
            spare.push(cluster);
        }
    }
    // Stopping waits out each server's background polls: do it at once.
    std::thread::scope(|s| {
        for c in spare {
            s.spawn(move || c.stop());
        }
    });
    let (cluster, root) = kept.expect("at least one set-up");
    let t_setup = t_setup.elapsed();
    let t_oracle = Instant::now();
    let plan = ladder_plan(&store, args.seed, THRESHOLD_ITEMS, KNN_ITEMS)?;
    let t_oracle = t_oracle.elapsed();
    let mut client = Client::connect(cluster.coord.addr()).map_err(|e| format!("connect: {e}"))?;
    let mut direct = cluster
        .shards
        .iter()
        .map(|s| Client::connect(s.addr()).map_err(|e| format!("connect shard: {e}")))
        .collect::<Result<Vec<_>, _>>()?;

    let mut warm = Tally::default();
    for i in 0..WARMUP_OPS {
        op(&mut client, &plan, i, None, None, &mut warm);
    }

    let snaps = || -> Vec<_> {
        cluster
            .shards
            .iter()
            .map(|s| s.registry().snapshot())
            .collect()
    };
    let reg0 = snaps();
    let stop = Stop::new(args.seconds, process_start);
    // Whole passes: 2 × 75 searches, 3 × 50 k-NN (the ±40 ms frame
    // stalls make single latencies bimodal, so this mix needs more
    // samples than the others for a steady median).
    let want = [2 * THRESHOLD_ITEMS, 3 * KNN_ITEMS];
    debug_assert!(want.iter().all(|&w| w >= crate::stats::needed_for(0.9)));
    let rss = PeakRss::start();
    let t_phase = Instant::now();
    let mut tally = Tally::default();
    let (mut overhead, mut shard_service) = (Vec::new(), Vec::new());
    let mut i = WARMUP_OPS;
    while !stop.done(&[tally.lat[0].len(), tally.lat[1].len()], &want) {
        // Direct shard requests for every third op keep the traced run
        // short while still giving the coordinator split 100 samples.
        let shards = (traced && i.is_multiple_of(3)).then_some(&mut direct[..]);
        if let (_, Some((o, s))) = op(&mut client, &plan, i, Some(tracer), shards, &mut tally) {
            overhead.push(o);
            shard_service.push(s);
        }
        i += 1;
    }
    let wall = t_phase.elapsed();
    let peak_rss = rss.finish();
    let reg1 = snaps();
    log_phases("shard-scatter", t_setup, t_oracle, wall, tally.attempted);
    let file_bytes = dir_bytes(&root) as f64;

    let mut report = Report::default();
    report.count(&warm);
    if !traced {
        report.put("setup_s", median(&setup).expect("reps"), "s");
        report.put_latency(&tally, wall, 1)?;
        report.put(
            "index_bytes_per_value",
            file_bytes / store.total_len() as f64,
            "B",
        );
        report.put("peak_rss_mib", peak_rss, "MiB");
        drop((client, direct));
        cluster.stop();
        return Ok(report);
    }

    report.count(&tally);
    report.put("build.categorize_ms", median(&cat).expect("reps"), "ms");
    report.put("build.index_ms", median(&build).expect("reps"), "ms");
    report.put("build.open_ms", median(&open).expect("reps"), "ms");
    report.put("index.file_bytes", file_bytes, "B");
    let deltas: Vec<RegDelta> = reg0
        .into_iter()
        .zip(reg1)
        .map(|(a, b)| RegDelta::new(a, b))
        .collect();
    let query_ops = (tally.lat[0].len() + tally.lat[1].len()) as f64;
    put_server_funnel(&mut report, &deltas, query_ops);
    put_wire(&mut report, tracer)?;
    report.put(
        "coord.overhead_us_p50",
        median(&overhead).ok_or("no coordinator samples")?,
        "us",
    );
    report.put(
        "coord.shard_service_us_p50",
        median(&shard_service).ok_or("no shard samples")?,
        "us",
    );

    let (mut one, mut many) = (0.0, 0.0);
    for (n, &k) in plan.order.iter().take(12).enumerate() {
        let item = &plan.items[k];
        let mut time = |threads: u32| -> Result<f64, String> {
            Ok(exchange(
                &mut client,
                || search_body_parallel(item, threads),
                None,
                "",
            )?
            .0
            .roundtrip_us)
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

    let (mut off, mut on) = (0.0, 0.0);
    let mut scratch = Tally::default();
    for j in 0..24 {
        let i = WARMUP_OPS + j;
        if j % 2 == 0 {
            off += op(&mut client, &plan, i, None, None, &mut scratch).0;
            on += op(&mut client, &plan, i, Some(tracer), None, &mut scratch).0;
        } else {
            on += op(&mut client, &plan, i, Some(tracer), None, &mut scratch).0;
            off += op(&mut client, &plan, i, None, None, &mut scratch).0;
        }
    }
    report.count(&scratch);
    report.put("trace.overhead_frac", on / off - 1.0, "ratio");
    drop((client, direct));
    cluster.stop();

    let mut resident = 0;
    for i in 0..SHARDS {
        let idx = warptree::open_index_dir(&root.join(format!("shard-{i:04}")), CACHE_PAGES)
            .map_err(|e| format!("reopen shard: {e}"))?;
        resident += idx.tree.resident_bytes();
    }
    report.put("index.resident_bytes", resident as f64, "B");
    Ok(report)
}
