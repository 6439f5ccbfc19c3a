//! Disk-resident trees must answer exactly like their in-memory
//! counterparts (and therefore like `SeqScan`), whether written directly
//! or built by incremental binary merging.

use proptest::prelude::*;
use std::sync::Arc;
use warptree::prelude::*;
use warptree_disk::{
    load_corpus, merge_trees, save_corpus, write_tree, DiskTree, IncrementalBuilder, TreeKind,
};

fn tmpdir(tag: &str) -> std::path::PathBuf {
    let p = std::env::temp_dir().join(format!("warptree-it-{}-{}", std::process::id(), tag));
    std::fs::create_dir_all(&p).unwrap();
    p
}

fn db_strategy() -> impl Strategy<Value = Vec<Vec<f64>>> {
    prop::collection::vec(
        prop::collection::vec((0i32..10).prop_map(|v| v as f64), 1..14),
        1..6,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// write → open → search equals the in-memory search (full + sparse).
    #[test]
    fn disk_tree_searches_equal_memory(
        db in db_strategy(),
        q in prop::collection::vec((0i32..10).prop_map(|v| v as f64), 1..4),
        case in 0u64..1_000_000,
    ) {
        let dir = tmpdir(&format!("sea-{case}"));
        let store = SequenceStore::from_values(db);
        let params = SearchParams::with_epsilon(1.5);
        for (tag, sparse) in [("full", false), ("sparse", true)] {
            let alphabet = Alphabet::max_entropy(&store, 3).unwrap();
            let cat = Arc::new(alphabet.encode_store(&store));
            let mem = if sparse {
                build_sparse(cat.clone())
            } else {
                build_full(cat.clone())
            };
            let path = dir.join(format!("{tag}.wt"));
            write_tree(&mem, &path).unwrap();
            let disk = DiskTree::open(&path, cat, 8).unwrap();
            let req = QueryRequest::threshold_params(&q, params.clone());
            let mem_ans = run_query(&mem, &alphabet, &store, &req)
                .unwrap()
                .0
                .into_answer_set();
            let disk_ans = run_query(&disk, &alphabet, &store, &req)
                .unwrap()
                .0
                .into_answer_set();
            prop_assert_eq!(
                mem_ans.occurrence_set(),
                disk_ans.occurrence_set(),
                "disk/{} diverged",
                tag
            );
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// Incremental (batched, merged) construction equals direct
    /// construction, node for node.
    #[test]
    fn incremental_build_equals_direct(
        db in db_strategy(),
        batch in 1usize..4,
        case in 0u64..1_000_000,
    ) {
        let dir = tmpdir(&format!("incr-{case}"));
        let store = SequenceStore::from_values(db);
        let alphabet = Alphabet::equal_length(&store, 2).unwrap();
        let cat = Arc::new(alphabet.encode_store(&store));
        for (kind, sparse) in
            [(TreeKind::Full, false), (TreeKind::Sparse, true)]
        {
            let out = dir.join(format!("incr-{sparse}.wt"));
            IncrementalBuilder::new(cat.clone(), kind, batch, dir.clone())
                .build(&out)
                .unwrap();
            let disk = DiskTree::open(&out, cat.clone(), 8).unwrap();
            let direct = if sparse {
                build_sparse(cat.clone())
            } else {
                build_full(cat.clone())
            };
            prop_assert_eq!(
                disk.to_mem().unwrap().canonical(),
                direct.canonical()
            );
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }
}

/// A straight-line scenario exercising the full disk pipeline: corpus
/// persistence, two-way merge, reopening, searching.
#[test]
fn full_disk_pipeline() {
    let dir = tmpdir("pipeline");
    let store = stock_corpus(&StockConfig {
        sequences: 24,
        mean_len: 60,
        ..Default::default()
    });
    let alphabet = Alphabet::max_entropy(&store, 10).unwrap();
    let cat = Arc::new(alphabet.encode_store(&store));

    // Persist and reload the corpus.
    let corpus_path = dir.join("corpus.wc");
    save_corpus(&store, &alphabet, &corpus_path).unwrap();
    let (store2, alphabet2, cat2) = load_corpus(&corpus_path).unwrap();
    assert_eq!(store2.len(), store.len());
    assert_eq!(cat2.seqs(), cat.seqs());

    // Build two halves and merge.
    let t1 = warptree_suffix::build_full_range(cat.clone(), 0..12);
    let t2 = warptree_suffix::build_full_range(cat.clone(), 12..24);
    let (p1, p2, pm) = (dir.join("h1.wt"), dir.join("h2.wt"), dir.join("merged.wt"));
    write_tree(&t1, &p1).unwrap();
    write_tree(&t2, &p2).unwrap();
    let d1 = DiskTree::open(&p1, cat.clone(), 16).unwrap();
    let d2 = DiskTree::open(&p2, cat.clone(), 16).unwrap();
    merge_trees(&d1, &d2, &cat, &pm).unwrap();
    let merged = DiskTree::open(&pm, cat2.clone(), 32).unwrap();

    // Search through the merged on-disk index using the reloaded corpus.
    let queries = QueryWorkload::draw(
        &store2,
        &QueryConfig {
            count: 5,
            mean_len: 8,
            ..Default::default()
        },
    );
    let params = SearchParams::with_epsilon(3.0);
    for q in queries.queries() {
        let (out, stats) = run_query(
            &merged,
            &alphabet2,
            &store2,
            &QueryRequest::threshold_params(&q.values, params.clone()),
        )
        .unwrap();
        let disk_ans = out.into_answer_set();
        let mut scan_stats = SearchStats::default();
        let scan = seq_scan(
            &store2,
            &q.values,
            &params,
            SeqScanMode::Full,
            &mut scan_stats,
        );
        assert_eq!(disk_ans.occurrence_set(), scan.occurrence_set());
        // The index must do less table work than the scan.
        assert!(stats.filter_cells <= scan_stats.filter_cells);
    }
    // The buffer pool actually served repeated reads.
    assert!(merged.io_stats().cache_hits > 0);
    std::fs::remove_dir_all(&dir).unwrap();
}
