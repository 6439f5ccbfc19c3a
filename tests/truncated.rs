//! The §8 truncated indexes: storing only suffix prefixes up to the
//! maximum answer length must not change any answer of a length-bounded
//! search, while shrinking the index.

use proptest::prelude::*;
use std::sync::Arc;
use warptree::prelude::*;
use warptree_suffix::{
    build_full, build_full_truncated, build_sparse, build_sparse_truncated, TruncateSpec,
};

fn db_strategy() -> impl Strategy<Value = Vec<Vec<f64>>> {
    prop::collection::vec(
        prop::collection::vec((0i32..8).prop_map(|v| v as f64), 1..16),
        1..5,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Truncated trees answer length-bounded queries exactly like the
    /// untruncated trees (and therefore like SeqScan).
    #[test]
    fn truncated_equals_full_for_bounded_queries(
        db in db_strategy(),
        q in prop::collection::vec((0i32..8).prop_map(|v| v as f64), 1..4),
        max_len in 1u32..6,
    ) {
        let store = SequenceStore::from_values(db);
        let alphabet = Alphabet::max_entropy(&store, 3).unwrap();
        let cat = Arc::new(alphabet.encode_store(&store));
        let spec = TruncateSpec {
            max_answer_len: max_len,
            min_answer_len: 1,
        };
        let params = SearchParams::with_epsilon(1.5).length_range(1, max_len);

        let req = QueryRequest::threshold_params(&q, params.clone());
        let full = build_full(cat.clone());
        let expected = run_query(&full, &alphabet, &store, &req)
            .unwrap()
            .0
            .into_answer_set();

        let trunc_full = build_full_truncated(cat.clone(), spec);
        trunc_full.check_invariants();
        prop_assert_eq!(trunc_full.depth_limit(), Some(max_len));
        let a = run_query(&trunc_full, &alphabet, &store, &req)
            .unwrap()
            .0
            .into_answer_set();
        prop_assert_eq!(a.occurrence_set(), expected.occurrence_set());

        let trunc_sparse = build_sparse_truncated(cat.clone(), spec);
        trunc_sparse.check_invariants();
        let b = run_query(&trunc_sparse, &alphabet, &store, &req)
            .unwrap()
            .0
            .into_answer_set();
        prop_assert_eq!(b.occurrence_set(), expected.occurrence_set());

        // Truncation never grows the tree.
        prop_assert!(trunc_full.node_count() <= full.node_count());
        let sparse = build_sparse(cat);
        prop_assert!(trunc_sparse.node_count() <= sparse.node_count());
    }

    /// Window-derived truncation (the paper's exact proposal): with a
    /// query-length range and window known up front, the truncated index
    /// answers windowed queries of any in-range length exactly.
    #[test]
    fn window_derived_truncation(
        db in db_strategy(),
        q in prop::collection::vec((0i32..8).prop_map(|v| v as f64), 2..5),
        w in 0u32..3,
    ) {
        let store = SequenceStore::from_values(db);
        let alphabet = Alphabet::equal_length(&store, 3).unwrap();
        let cat = Arc::new(alphabet.encode_store(&store));
        let spec = TruncateSpec::for_queries(2, 4, w);
        let tree = build_sparse_truncated(cat.clone(), spec);
        let params = SearchParams::with_epsilon(2.0).windowed(w);
        let (got, _) = run_query(
            &tree,
            &alphabet,
            &store,
            &QueryRequest::threshold_params(&q, params.clone()),
        )
        .unwrap();
        let got = got.into_answer_set();
        let mut stats = SearchStats::default();
        let expected =
            seq_scan(&store, &q, &params, SeqScanMode::Full, &mut stats);
        prop_assert_eq!(got.occurrence_set(), expected.occurrence_set());
    }
}

/// Regression (Theorem 3 boundary): a sparse suffix whose lead run is
/// *exactly* the truncation depth limit must neither skip nor
/// double-count shifted (`D_tw-lb2`) answers. The run here is formed at
/// a categorization boundary — three distinct values collapsing into
/// one symbol — so the shifted suffixes exist only through Definition 4,
/// and the stored prefix length (`max_answer_len + run − 1`) is
/// exercised at its exact edge.
#[test]
fn sparse_lead_run_at_depth_limit_boundary() {
    // Categories split at 4.5: [1.0, 2.0, 0.5] is one symbol-run of
    // length 3 == max_answer_len; the tail run [9.0, 8.5] crosses into
    // the other category. The second sequence ends inside a run.
    let store = SequenceStore::from_values(vec![
        vec![1.0, 2.0, 0.5, 9.0, 8.5],
        vec![9.0, 8.0, 1.0, 0.0, 2.0],
    ]);
    let alphabet = Alphabet::equal_length(&store, 2).unwrap();
    let cat = Arc::new(alphabet.encode_store(&store));
    // Sanity: the lead run really sits at the boundary.
    assert_eq!(cat.run_len(SeqId(0), 0), 3);
    assert_eq!(cat.run_len(SeqId(1), 2), 3);
    let spec = TruncateSpec {
        max_answer_len: 3,
        min_answer_len: 1,
    };
    let tree = build_sparse_truncated(cat.clone(), spec);
    tree.check_invariants();
    for eps in [0.0, 1.0, 4.0, 20.0] {
        let params = SearchParams::with_epsilon(eps).length_range(1, 3);
        let mut stats = SearchStats::default();
        let expected = seq_scan(&store, &[1.5, 1.5], &params, SeqScanMode::Full, &mut stats);
        let (got, got_stats) = run_query(
            &tree,
            &alphabet,
            &store,
            &QueryRequest::threshold_params(&[1.5, 1.5], params.clone()),
        )
        .unwrap();
        let got = got.into_answer_set();
        assert_eq!(
            got.occurrence_set(),
            expected.occurrence_set(),
            "eps={eps}: shifted suffixes at the run/depth-limit boundary"
        );
        // Not double-counted: every verified candidate is a distinct
        // (start, length) pair, so verifications can never exceed the
        // number of distinct subsequences in range.
        let distinct: u64 = store
            .iter()
            .map(|(_, s)| {
                let n = s.len() as u64;
                (1..=3u64).map(|l| n.saturating_sub(l - 1)).sum::<u64>()
            })
            .sum();
        assert!(
            got_stats.postprocessed <= distinct,
            "eps={eps}: {} verifications exceed the {} distinct in-range subsequences",
            got_stats.postprocessed,
            distinct
        );
        // The parallel traversal agrees byte-for-byte at the boundary.
        let par = params.clone().parallel(4);
        let (par_got, par_stats) = run_query(
            &tree,
            &alphabet,
            &store,
            &QueryRequest::threshold_params(&[1.5, 1.5], par),
        )
        .unwrap();
        let par_got = par_got.into_answer_set();
        assert_eq!(par_got.matches(), got.matches(), "eps={eps}");
        assert_eq!(par_stats, got_stats, "eps={eps}");
    }
}

#[test]
fn truncated_index_is_smaller() {
    let store = stock_corpus(&StockConfig {
        sequences: 40,
        mean_len: 120,
        ..Default::default()
    });
    let alphabet = Alphabet::max_entropy(&store, 20).unwrap();
    let cat = Arc::new(alphabet.encode_store(&store));
    let full = build_full(cat.clone());
    let trunc = build_full_truncated(
        cat,
        TruncateSpec {
            max_answer_len: 24,
            min_answer_len: 8,
        },
    );
    // The saving is in stored label symbols (the paper's index-space
    // metric with inline labels): long leaf edges are cut at depth 24.
    let label_symbols = |t: &SuffixTree| -> u64 {
        (0..t.node_count() as u32)
            .map(|id| t.node(id).label.len as u64)
            .sum()
    };
    let (fs, ts) = (label_symbols(&full), label_symbols(&trunc));
    assert!(
        ts * 2 < fs,
        "truncation should at least halve stored label symbols: {ts} vs {fs}"
    );
    assert!(trunc.node_count() <= full.node_count());
}

#[test]
fn unbounded_search_over_truncated_index_is_rejected() {
    let store = SequenceStore::from_values(vec![vec![1.0, 2.0, 3.0, 4.0]]);
    let alphabet = Alphabet::singleton(&store).unwrap();
    let cat = Arc::new(alphabet.encode_store(&store));
    let tree = build_full_truncated(
        cat,
        TruncateSpec {
            max_answer_len: 2,
            min_answer_len: 1,
        },
    );
    // length_range(1, 3) exceeds the stored depth 2 -> typed error.
    let params = SearchParams::with_epsilon(1.0).length_range(1, 3);
    let err = run_query(
        &tree,
        &alphabet,
        &store,
        &QueryRequest::threshold_params(&[1.0], params),
    )
    .unwrap_err();
    assert!(
        matches!(err, CoreError::DepthLimitExceeded { .. }),
        "{err:?}"
    );
}

#[test]
fn truncated_tree_roundtrips_through_disk() {
    let store = SequenceStore::from_values(vec![
        vec![1.0, 2.0, 3.0, 2.0, 1.0, 2.0],
        vec![3.0, 3.0, 3.0, 1.0],
    ]);
    let alphabet = Alphabet::equal_length(&store, 3).unwrap();
    let cat = Arc::new(alphabet.encode_store(&store));
    let spec = TruncateSpec {
        max_answer_len: 3,
        min_answer_len: 1,
    };
    let tree = build_sparse_truncated(cat.clone(), spec);
    let path = std::env::temp_dir().join(format!("warptree-trunc-{}.wt", std::process::id()));
    warptree_disk::write_tree(&tree, &path).unwrap();
    let disk = DiskTree::open(&path, cat, 8).unwrap();
    assert_eq!(disk.header().depth_limit, Some(3));
    let params = SearchParams::with_epsilon(1.0).length_range(1, 3);
    let q = [2.0, 3.0];
    let req = QueryRequest::threshold_params(&q, params.clone());
    let mem_ans = run_query(&tree, &alphabet, &store, &req)
        .unwrap()
        .0
        .into_answer_set();
    let disk_ans = run_query(&disk, &alphabet, &store, &req)
        .unwrap()
        .0
        .into_answer_set();
    assert_eq!(mem_ans.occurrence_set(), disk_ans.occurrence_set());
    std::fs::remove_file(&path).unwrap();
}
