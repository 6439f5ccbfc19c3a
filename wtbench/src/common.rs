//! Inputs, the measured-phase driver and the result record shared by
//! the workloads.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use warptree::core::sequence::{SequenceStore, Value};
use warptree::data::{stock_corpus, QueryConfig, QueryWorkload, StockConfig};

use crate::stats;

/// Command-line arguments.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
}

impl Args {
    pub fn parse(argv: &[String]) -> Result<Args, String> {
        let mut workload = None;
        let mut seed = None;
        let mut seconds = None;
        let mut trace = None;
        let mut it = argv.iter();
        while let Some(flag) = it.next() {
            let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
            let bad = || format!("bad value {value:?} for {flag}");
            match flag.as_str() {
                "--workload" => workload = Some(value.clone()),
                "--seed" => seed = Some(value.parse().map_err(|_| bad())?),
                "--seconds" => seconds = Some(value.parse().map_err(|_| bad())?),
                "--trace" => {
                    trace = Some(match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(bad()),
                    })
                }
                other => return Err(format!("unknown flag {other}")),
            }
        }
        Ok(Args {
            workload: workload.ok_or("--workload is required")?,
            seed: seed.ok_or("--seed is required")?,
            seconds: seconds.ok_or("--seconds is required")?,
            trace: trace.unwrap_or(false),
        })
    }
}

/// Seed of the fixed corpora and query pools (`StockConfig::default`'s
/// seed, so the paper-scale corpus is the repository's Table-3 corpus).
/// Per-query cost varies by more than 10× across queries, so pools
/// drawn per run would make the run-to-run spread far wider than the
/// changes the benchmark must resolve; `--seed` instead drives the op
/// order and the ingested data.
pub const POOL_SEED: u64 = 0x5AD_0001;

/// Derives an independent sub-seed for one input of a run.
pub fn sub_seed(seed: u64, stream: u64) -> u64 {
    // SplitMix64 finalizer over the pair.
    let mut z = seed
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(stream.wrapping_mul(0xBF58_476D_1CE4_E5B9));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A small deterministic generator for op order and ε draws.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(sub_seed(seed, 0xA5A5) | 1)
    }

    pub fn next(&mut self) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0
    }

    pub fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    pub fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            v.swap(i, self.below(i + 1));
        }
    }
}

/// A seeded synthetic stock corpus (the paper's 545 × 232 shape when
/// `sequences`/`mean_len` take the defaults).
pub fn stock(seed: u64, sequences: usize, mean_len: usize) -> SequenceStore {
    stock_corpus(&StockConfig {
        sequences,
        mean_len,
        len_std: mean_len as f64 * 40.0 / 232.0,
        seed,
        ..Default::default()
    })
}

/// Table-3-style queries: drawn from the corpus stratified by average
/// price (20/50/30), mean length 20 ± 4, perturbed by N(0, 0.5²).
pub fn table3_queries(store: &SequenceStore, count: usize, seed: u64) -> Vec<Vec<Value>> {
    QueryWorkload::draw(
        store,
        &QueryConfig {
            count,
            mean_len: 20,
            len_jitter: 4,
            noise_std: 0.5,
            seed,
            ..Default::default()
        },
    )
    .queries()
    .iter()
    .map(|q| q.values.clone())
    .collect()
}

/// Total bytes of the regular files under `dir` (recursively).
pub fn dir_bytes(dir: &Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    entries
        .flatten()
        .map(|e| match e.metadata() {
            Ok(m) if m.is_dir() => dir_bytes(&e.path()),
            Ok(m) => m.len(),
            Err(_) => 0,
        })
        .sum()
}

/// A `VmRSS`/`VmHWM` field of `/proc/self/status`, in bytes.
fn status_bytes(field: &str) -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with(field))?;
    let kib: u64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib * 1024)
}

/// Peak resident set size over the measured phase. The kernel's
/// high-water mark is reset at the start (`/proc/self/clear_refs`) and
/// read at the end; where the reset is refused, RSS is sampled every
/// 20 ms on a background thread instead.
pub struct PeakRss {
    sampler: Option<(Arc<AtomicBool>, std::thread::JoinHandle<u64>)>,
}

impl PeakRss {
    pub fn start() -> PeakRss {
        if std::fs::write("/proc/self/clear_refs", "5").is_ok() {
            return PeakRss { sampler: None };
        }
        let stop = Arc::new(AtomicBool::new(false));
        let flag = stop.clone();
        let handle = std::thread::spawn(move || {
            let mut peak = status_bytes("VmRSS:").unwrap_or(0);
            while !flag.load(Ordering::Relaxed) {
                std::thread::sleep(Duration::from_millis(20));
                peak = peak.max(status_bytes("VmRSS:").unwrap_or(0));
            }
            peak
        });
        PeakRss {
            sampler: Some((stop, handle)),
        }
    }

    /// Stops measuring and returns the peak in MiB.
    pub fn finish(self) -> f64 {
        let bytes = match self.sampler {
            None => status_bytes("VmHWM:").unwrap_or(0),
            Some((stop, handle)) => {
                stop.store(true, Ordering::Relaxed);
                handle.join().expect("rss sampler panicked")
            }
        };
        bytes as f64 / (1024.0 * 1024.0)
    }
}

/// A scratch directory inside the checkout, removed on drop.
pub struct WorkDir(pub PathBuf);

impl WorkDir {
    pub fn create(workload: &str) -> Result<WorkDir, String> {
        let dir = PathBuf::from(".bench_work").join(format!("{workload}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
        Ok(WorkDir(dir))
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        // Leave no empty parent behind either.
        let _ = std::fs::remove_dir(".bench_work");
    }
}

/// Op types of the benchmark's mixes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    Search,
    Knn,
    Ingest,
}

impl Op {
    pub fn idx(self) -> usize {
        self as usize
    }
}

/// Latency samples and failure counts of one measured phase.
#[derive(Default)]
pub struct Tally {
    /// Client-observed latency in ms, per [`Op`].
    pub lat: [Vec<f64>; 3],
    pub attempted: u64,
    pub failed: u64,
    /// Time spent checking answers (excluded from throughput).
    pub check: Duration,
    pub first_error: Option<String>,
}

impl Tally {
    pub fn record(&mut self, op: Op, ms: f64, outcome: Result<(), String>, check: Duration) {
        self.attempted += 1;
        self.check += check;
        match outcome {
            Ok(()) => self.lat[op.idx()].push(ms),
            Err(e) => {
                self.failed += 1;
                if self.first_error.is_none() {
                    self.first_error = Some(format!("{op:?}: {e}"));
                }
            }
        }
    }

    pub fn merge(&mut self, other: Tally) {
        for (a, b) in self.lat.iter_mut().zip(other.lat) {
            a.extend(b);
        }
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.check += other.check;
        if self.first_error.is_none() {
            self.first_error = other.first_error;
        }
    }
}

/// When the measured phase may stop: after `seconds`, once every op
/// type has its wanted sample count, and never past `cap`.
pub struct Stop {
    started: Instant,
    seconds: Duration,
    cap: Duration,
}

impl Stop {
    pub fn new(seconds: u64, process_start: Instant) -> Stop {
        // Leave room inside the 180 s run limit for set-up and teardown.
        let budget = Duration::from_secs(150).saturating_sub(process_start.elapsed());
        Stop {
            started: Instant::now(),
            seconds: Duration::from_secs(seconds),
            cap: budget.max(Duration::from_secs(seconds)),
        }
    }

    /// `counts[i]` samples of op `i` collected, `wanted[i]` required.
    pub fn done(&self, counts: &[usize], wanted: &[usize]) -> bool {
        let e = self.started.elapsed();
        e >= self.cap || (e >= self.seconds && counts.iter().zip(wanted).all(|(c, w)| c >= w))
    }
}

/// The metrics of one run, in report order.
#[derive(Default)]
pub struct Report {
    pub metrics: Vec<(String, f64, &'static str)>,
    pub attempted: u64,
    pub failed: u64,
    pub first_error: Option<String>,
}

impl Report {
    pub fn put(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.metrics.push((name.into(), value, unit));
    }

    /// Adds the median and p90 of `samples` as `<base>_p50_<unit>` and
    /// `<base>_p90_<unit>`.
    pub fn put_p50_p90(
        &mut self,
        base: &str,
        samples: &[f64],
        unit: &'static str,
    ) -> Result<(), String> {
        let p50 = stats::median(samples).ok_or_else(|| format!("{base}: no samples"))?;
        let p90 = stats::tail(samples, 0.9, base)?;
        self.put(format!("{base}_p50_{unit}"), p50, unit);
        self.put(format!("{base}_p90_{unit}"), p90, unit);
        Ok(())
    }

    /// The end-to-end latency and throughput metrics of a phase.
    pub fn put_latency(
        &mut self,
        tally: &Tally,
        wall: Duration,
        conns: usize,
    ) -> Result<(), String> {
        self.put_p50_p90("search", &tally.lat[Op::Search.idx()], "ms")?;
        self.put_p50_p90("knn", &tally.lat[Op::Knn.idx()], "ms")?;
        // Answer checks run on the client threads between ops; take
        // their share of each thread's time out of the wall clock.
        let busy = wall.as_secs_f64() - tally.check.as_secs_f64() / conns as f64;
        let done: usize = tally.lat.iter().map(Vec::len).sum();
        self.put("throughput_ops_s", done as f64 / busy.max(1e-9), "1/s");
        self.count(tally);
        Ok(())
    }

    /// Adds a phase's attempted and failed ops to the result.
    pub fn count(&mut self, tally: &Tally) {
        self.attempted += tally.attempted;
        self.failed += tally.failed;
        if self.first_error.is_none() {
            self.first_error.clone_from(&tally.first_error);
        }
    }

    /// The last stdout line: `{"correct","attempted","failed","metrics"}`.
    pub fn to_json(&self, correct: bool) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                format!(
                    "\"{name}\":{{\"value\":{},\"unit\":\"{unit}\"}}",
                    crate::trace::json_num(*value)
                )
            })
            .collect();
        format!(
            "{{\"correct\":{correct},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
            self.attempted,
            self.failed,
            metrics.join(",")
        )
    }
}

/// Logs where a run's time went (stderr).
pub fn log_phases(workload: &str, setup: Duration, oracle: Duration, measured: Duration, ops: u64) {
    eprintln!(
        "wtbench: {workload}: set-up {:.1}s, oracle {:.1}s, measured {:.1}s over {ops} ops",
        setup.as_secs_f64(),
        oracle.as_secs_f64(),
        measured.as_secs_f64()
    );
}

/// Milliseconds between two instants.
pub fn ms(from: Instant, to: Instant) -> f64 {
    (to - from).as_secs_f64() * 1e3
}

/// Page-cache size of `warptree serve` (and `ServerConfig::default`):
/// 256 pages of 8 KiB.
pub const CACHE_PAGES: usize = 256;

/// Categories of the paper's SST_C/ME(40) configuration.
pub const CATEGORIES: usize = 40;

/// Builds an SST_C/ME(40) index directory over `store` the way
/// `warptree build --sparse` does (default tree backend, batch 64),
/// with categories fitted to `alphabet_of` (the whole corpus, for a
/// shard), timing the two layers separately: `(categorize_ms,
/// index_ms)`.
pub fn build_dir(
    store: &SequenceStore,
    alphabet_of: &SequenceStore,
    dir: &Path,
) -> Result<(f64, f64), String> {
    let t0 = Instant::now();
    let alphabet = warptree::Categorization::MaxEntropy(CATEGORIES)
        .alphabet(alphabet_of)
        .map_err(|e| format!("categorize: {e}"))?;
    let t1 = Instant::now();
    warptree::disk::build_dir_backend_with(
        warptree::disk::real_vfs(),
        store,
        &alphabet,
        warptree::disk::TreeKind::Sparse,
        64,
        1,
        None,
        warptree::core::search::BackendKind::Tree,
        dir,
    )
    .map_err(|e| format!("build {}: {e}", dir.display()))?;
    Ok((ms(t0, t1), ms(t1, Instant::now())))
}

/// Set-up repetitions per run; `setup_s` is their median.
pub const SETUP_REPS: usize = 7;
