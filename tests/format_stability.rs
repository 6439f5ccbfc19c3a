//! On-disk format stability: files written by *this* build must match
//! the checked-in golden fixtures byte for byte, and fixtures written by
//! *previous* builds must stay readable. An accidental format change —
//! a reordered field, a changed record layout — fails here before it
//! corrupts anyone's index.
//!
//! Regenerate the fixtures intentionally (after bumping the format
//! version!) with:
//!
//! ```text
//! WARPTREE_REGEN_FIXTURES=1 cargo test --test format_stability
//! ```

use std::path::PathBuf;
use std::sync::Arc;
use warptree::prelude::*;
use warptree_disk::{load_corpus, save_corpus, write_tree, DiskTree};

fn fixture_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures")
}

/// A small, fully deterministic corpus: fixed values, no RNG.
fn golden_store() -> (SequenceStore, Alphabet) {
    let mut store = SequenceStore::new();
    store.push_named(
        Sequence::new(vec![1.0, 2.0, 2.0, 3.5, 3.5, 3.5, 1.0]),
        "ALPHA",
    );
    store.push(Sequence::new(vec![3.5, 1.0, 2.0]));
    store.push_named(Sequence::new(vec![2.0, 2.0]), "GAMMA");
    let alphabet = Alphabet::max_entropy(&store, 3).unwrap();
    (store, alphabet)
}

fn write_current(dir: &std::path::Path) -> (PathBuf, PathBuf, PathBuf) {
    let (store, alphabet) = golden_store();
    let cat = Arc::new(alphabet.encode_store(&store));
    let corpus = dir.join("golden.corpus");
    let full = dir.join("golden-full.wt");
    let sparse = dir.join("golden-sparse.wt");
    save_corpus(&store, &alphabet, &corpus).unwrap();
    write_tree(&warptree_suffix::build_full(cat.clone()), &full).unwrap();
    write_tree(&warptree_suffix::build_sparse(cat), &sparse).unwrap();
    (corpus, full, sparse)
}

#[test]
fn current_build_matches_golden_fixtures() {
    let fixtures = fixture_dir();
    if std::env::var("WARPTREE_REGEN_FIXTURES").is_ok() {
        std::fs::create_dir_all(&fixtures).unwrap();
        write_current(&fixtures);
        eprintln!("fixtures regenerated at {}", fixtures.display());
        return;
    }
    let tmp = std::env::temp_dir().join(format!("warptree-golden-{}", std::process::id()));
    std::fs::create_dir_all(&tmp).unwrap();
    let (corpus, full, sparse) = write_current(&tmp);
    for (fresh, name) in [
        (&corpus, "golden.corpus"),
        (&full, "golden-full.wt"),
        (&sparse, "golden-sparse.wt"),
    ] {
        let expected = std::fs::read(fixtures.join(name))
            .unwrap_or_else(|e| panic!("missing fixture {name}: {e}"));
        let produced = std::fs::read(fresh).unwrap();
        assert_eq!(
            produced, expected,
            "{name} diverged from the golden fixture — the on-disk \
             format changed; bump the format version and regenerate \
             fixtures intentionally"
        );
    }
    std::fs::remove_dir_all(&tmp).unwrap();
}

#[test]
fn golden_fixtures_remain_readable_and_searchable() {
    let fixtures = fixture_dir();
    let (store, alphabet, cat) = load_corpus(&fixtures.join("golden.corpus")).unwrap();
    assert_eq!(store.len(), 3);
    assert_eq!(store.name(SeqId(0)), Some("ALPHA"));
    assert_eq!(store.name(SeqId(1)), None);
    for name in ["golden-full.wt", "golden-sparse.wt"] {
        let tree = DiskTree::open(&fixtures.join(name), cat.clone(), 8).unwrap();
        let params = SearchParams::with_epsilon(0.5);
        let q = [2.0, 3.5];
        let (out, _) = run_query(
            &tree,
            &alphabet,
            &store,
            &QueryRequest::threshold_params(&q, params.clone()),
        )
        .unwrap();
        let got = out.into_answer_set();
        let mut stats = SearchStats::default();
        let expected = seq_scan(&store, &q, &params, SeqScanMode::Full, &mut stats);
        assert_eq!(got.occurrence_set(), expected.occurrence_set());
        assert!(!got.is_empty());
    }
}
