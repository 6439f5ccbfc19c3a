//! The warptree benchmark.
//!
//! ```text
//! cargo run --release --manifest-path wtbench/Cargo.toml -- \
//!     --workload paper-engine|serve-ingest|shard-scatter \
//!     --seed N --seconds S --trace 0|1
//! ```
//!
//! Each run sets the program up over a fixed corpus (timed as
//! `setup_s`), computes the answer oracle for fixed query pools
//! (untimed), warms up, then measures a closed loop whose op order (and
//! ingested data) comes from `--seed`, for at least `--seconds` and
//! until every op type has whole pool passes of at least 100 samples,
//! checking every answer. The last
//! stdout line is one JSON object: `correct`, `attempted`, `failed` and
//! `metrics` — the end-to-end metrics with `--trace 0`, the per-layer
//! metrics with `--trace 1`, whose spans are also written to
//! `.bench_traces/<workload>-<seed>.json`. See `WORKLOADS.md`.

mod common;
mod engine;
mod oracle;
mod serve;
mod shard;
mod stats;
mod trace;

use std::process::ExitCode;
use std::time::Instant;

use common::{Args, Report};
use trace::Tracer;

/// The end-to-end metrics every untraced run prints.
const END_TO_END: &[&str] = &[
    "setup_s",
    "search_p50_ms",
    "search_p90_ms",
    "knn_p50_ms",
    "knn_p90_ms",
    "throughput_ops_s",
    "index_bytes_per_value",
    "peak_rss_mib",
];

/// The per-layer metrics every traced run prints, with their units. A
/// layer a workload does not run reports 0 (e.g. `coord.*` outside
/// `shard-scatter`, the wire outside the server workloads).
const PER_LAYER: &[(&str, &str)] = &[
    ("build.categorize_ms", "ms"),
    ("build.index_ms", "ms"),
    ("build.open_ms", "ms"),
    ("index.file_bytes", "B"),
    ("index.resident_bytes", "B"),
    ("filter.ms_p50", "ms"),
    ("filter.cells", "count"),
    ("filter.nodes_visited", "count"),
    ("filter.candidates", "count"),
    ("filter.ns_per_cell", "ns"),
    ("postprocess.ms_p50", "ms"),
    ("postprocess.ms_p90", "ms"),
    ("postprocess.cells", "count"),
    ("cascade.keogh_kills", "count"),
    ("cascade.improved_kills", "count"),
    ("cascade.abandon_kills", "count"),
    ("postprocess.yield", "ratio"),
    ("knn.ms_p50", "ms"),
    ("knn.filter_cells", "count"),
    ("knn.postprocess_cells", "count"),
    ("parallel.speedup", "ratio"),
    ("seqscan.cascade_ms_p50.eps5", "ms"),
    ("seqscan.cascade_ms_p50.eps10", "ms"),
    ("seqscan.cascade_ms_p50.eps20", "ms"),
    ("seqscan.cascade_ms_p50.eps30", "ms"),
    ("index_over_scan.eps5", "ratio"),
    ("index_over_scan.eps10", "ratio"),
    ("index_over_scan.eps20", "ratio"),
    ("index_over_scan.eps30", "ratio"),
    ("disk.page_cache.hit_ratio", "ratio"),
    ("disk.page_reads", "count"),
    ("disk.write_bytes_per_ingested_byte", "ratio"),
    ("compaction.count", "count"),
    ("compaction.ms_sum", "ms"),
    ("ingest.service_us_p50", "us"),
    ("ingest.p50_ms", "ms"),
    ("client.encode_us", "us"),
    ("client.roundtrip_us", "us"),
    ("server.queue_us_p50", "us"),
    ("server.queue_us_p90", "us"),
    ("server.service_us_p50", "us"),
    ("server.service_us_p90", "us"),
    ("wire.residual_us_p50", "us"),
    ("wire.residual_frac", "ratio"),
    ("client.decode_us_p50", "us"),
    ("client.decode_us_p90", "us"),
    ("response.bytes_p50", "B"),
    ("response.bytes_p90", "B"),
    ("decode.ns_per_byte", "ns"),
    ("coord.overhead_us_p50", "us"),
    ("coord.shard_service_us_p50", "us"),
    ("trace.overhead_frac", "ratio"),
];

fn run(args: &Args, started: Instant, tracer: &Tracer) -> Result<Report, String> {
    match args.workload.as_str() {
        "paper-engine" => engine::run(args, started, tracer),
        "serve-ingest" => serve::run(args, started, tracer),
        "shard-scatter" => shard::run(args, started, tracer),
        other => Err(format!(
            "unknown workload {other:?} (paper-engine, serve-ingest or shard-scatter)"
        )),
    }
}

/// Puts the report's metrics in the published order, filling layers
/// the workload does not run with 0, and rejects any missing or stray
/// metric.
fn finish(mut report: Report, trace: bool) -> Result<Report, String> {
    let mut ordered = Vec::new();
    if trace {
        for &(name, unit) in PER_LAYER {
            match report.metrics.iter().position(|m| m.0 == name) {
                Some(i) => {
                    let m = report.metrics.swap_remove(i);
                    if m.2 != unit {
                        return Err(format!("{name}: unit {} is not {unit}", m.2));
                    }
                    ordered.push(m);
                }
                None => ordered.push((name.to_string(), 0.0, unit)),
            }
        }
    } else {
        for &name in END_TO_END {
            let i = report
                .metrics
                .iter()
                .position(|m| m.0 == name)
                .ok_or_else(|| format!("metric {name} was not measured"))?;
            ordered.push(report.metrics.swap_remove(i));
        }
    }
    if let Some(stray) = report.metrics.first() {
        return Err(format!("metric {} is not published", stray.0));
    }
    report.metrics = ordered;
    Ok(report)
}

fn main() -> ExitCode {
    let started = Instant::now();
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match Args::parse(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("wtbench: {e}");
            return ExitCode::from(2);
        }
    };
    let tracer = Tracer::new(args.trace);
    let report = match run(&args, started, &tracer).and_then(|r| finish(r, args.trace)) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("wtbench: {}: {e}", args.workload);
            return ExitCode::FAILURE;
        }
    };
    if report.attempted == 0 {
        eprintln!("wtbench: {}: no operation was attempted", args.workload);
        return ExitCode::FAILURE;
    }
    if let Some(e) = &report.first_error {
        eprintln!("wtbench: {}: first failure: {e}", args.workload);
    }
    if tracer.is_on() {
        let dir = std::path::Path::new(".bench_traces");
        let path = dir.join(format!("{}-{}.json", args.workload, args.seed));
        let written =
            std::fs::create_dir_all(dir).and_then(|()| std::fs::write(&path, tracer.to_json()));
        if let Err(e) = written {
            eprintln!("wtbench: writing {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
        eprintln!(
            "wtbench: {} spans written to {}",
            tracer.len(),
            path.display()
        );
    }
    println!("{}", report.to_json(report.failed == 0));
    ExitCode::SUCCESS
}
