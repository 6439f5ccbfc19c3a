//! Disk-layer benchmarks: pager reads (cold/warm), node decoding, tree
//! merge throughput.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;
use std::sync::Arc;
use warptree_core::categorize::Alphabet;
use warptree_core::search::IndexBackend;
use warptree_data::{stock_corpus, StockConfig};
use warptree_disk::{merge_trees, DiskTree, PagedReader, PagedWriter};
use warptree_suffix::build_full_range;

fn bench_pager(c: &mut Criterion) {
    let path =
        std::env::temp_dir().join(format!("warptree-bench-pager-{}.dat", std::process::id()));
    let data: Vec<u8> = (0..1_000_000u32).map(|i| (i % 251) as u8).collect();
    let mut w = PagedWriter::create(&path).unwrap();
    w.write(&data).unwrap();
    w.finish(&[]).unwrap();

    let mut g = c.benchmark_group("pager");
    g.bench_function("warm_random_reads", |b| {
        let r = PagedReader::open(&path, 256).unwrap();
        let mut buf = [0u8; 64];
        let mut pos = 0u64;
        b.iter(|| {
            pos = (pos * 1103515245 + 12345) % 999_000;
            r.read_exact_at(black_box(pos), &mut buf).unwrap();
            black_box(buf[0])
        })
    });
    g.bench_function("cold_random_reads_tiny_cache", |b| {
        let r = PagedReader::open(&path, 2).unwrap();
        let mut buf = [0u8; 64];
        let mut pos = 0u64;
        b.iter(|| {
            pos = (pos * 1103515245 + 12345) % 999_000;
            r.read_exact_at(black_box(pos), &mut buf).unwrap();
            black_box(buf[0])
        })
    });
    g.finish();
    std::fs::remove_file(&path).ok();
}

fn bench_merge(c: &mut Criterion) {
    let store = stock_corpus(&StockConfig {
        sequences: 40,
        mean_len: 60,
        ..Default::default()
    });
    let alphabet = Alphabet::max_entropy(&store, 20).unwrap();
    let cat = Arc::new(alphabet.encode_store(&store));
    let dir = std::env::temp_dir().join(format!("warptree-bench-merge-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let t1 = build_full_range(cat.clone(), 0..20);
    let t2 = build_full_range(cat.clone(), 20..40);
    let (p1, p2) = (dir.join("a.wt"), dir.join("b.wt"));
    warptree_disk::write_tree(&t1, &p1).unwrap();
    warptree_disk::write_tree(&t2, &p2).unwrap();
    let da = DiskTree::open(&p1, cat.clone(), 64).unwrap();
    let db = DiskTree::open(&p2, cat.clone(), 64).unwrap();

    let mut g = c.benchmark_group("disk_tree");
    g.sample_size(10);
    let out = dir.join("merged.wt");
    g.bench_function("binary_merge", |b| {
        b.iter(|| black_box(merge_trees(&da, &db, &cat, &out).unwrap()))
    });
    g.bench_function("full_traversal", |b| {
        let merged = DiskTree::open(&out, cat.clone(), 64).unwrap();
        b.iter(|| {
            let mut n = 0u64;
            merged.for_each_suffix_below(merged.root(), &mut |_, _, _| n += 1);
            black_box(n)
        })
    });
    g.finish();
    std::fs::remove_dir_all(&dir).ok();
}

criterion_group!(benches, bench_pager, bench_merge);
criterion_main!(benches);
