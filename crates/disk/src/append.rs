//! Appending sequences to an existing index directory.
//!
//! The binary-merge machinery (paper §4.1) makes the index naturally
//! *appendable*: new sequences are categorized with the **existing**
//! boundaries, built into a partial tree in memory, and merged with the
//! on-disk tree — no rebuild of the old data.
//!
//! Two soundness details:
//!
//! * **Boundaries never move.** Re-deriving e.g. maximum-entropy
//!   quantiles over the extended data would re-label old symbols and
//!   invalidate the existing tree. The stored boundaries are
//!   authoritative (see [`corpus`](crate::corpus)).
//! * **Observed bounds only widen.** New values may fall outside a
//!   category's previously observed `lb..ub`. Widening those bounds
//!   keeps `D_base-lb` a valid lower bound for *all* members, old and
//!   new (a wider interval only decreases point-to-interval distances),
//!   so the no-false-dismissal guarantee is preserved. The corpus file
//!   is rewritten with the widened bounds.
//!
//! The append is **crash-safe**: the widened corpus and the merged tree
//! are written as a new generation and committed atomically through
//! [`commit_dir_with`](crate::manifest::commit_dir_with). A failure or
//! crash at any point leaves the directory resolvable to the complete
//! old or complete new state, with no stray `*.tmp` files after the
//! error path (or after the next recovery sweep, for a crash).

use std::path::Path;
use std::sync::Arc;

use warptree_core::search::{BackendKind, IndexBackend};
use warptree_core::sequence::SequenceStore;

use crate::any::AnyIndex;
use crate::corpus::{load_corpus_with, save_corpus_with};
use crate::error::{DiskError, Result};
use crate::format::DiskTree;
use crate::manifest::{commit_dir_backend_with, recover_dir_with};
use crate::merge::merge_trees_with;
use crate::vfs::{RealVfs, TempGuard, Vfs};
use crate::writer::write_tree_with;

/// Appends `new_sequences` to the index directory `dir` (as produced by
/// the incremental builder / `warptree build`), committing an updated
/// corpus and tree as the directory's next generation. Returns the new
/// index file size in bytes.
///
/// The directory must resolve to a committed index (a `MANIFEST`, or the
/// legacy `corpus.wc` + `index.wt` pair). Truncated (§8) indexes are
/// rejected — their per-suffix prefix lengths depend on build-time
/// parameters this function does not know.
pub fn append_to_index_dir(dir: &Path, new_sequences: &SequenceStore) -> Result<u64> {
    append_to_index_dir_with(&RealVfs, dir, new_sequences)
}

/// [`append_to_index_dir`] through an explicit [`Vfs`].
pub fn append_to_index_dir_with(
    vfs: &dyn Vfs,
    dir: &Path,
    new_sequences: &SequenceStore,
) -> Result<u64> {
    let (resolved, _recovery) = recover_dir_with(vfs, dir)?;
    let backend = resolved.backend();
    let (mut store, mut alphabet, _) = load_corpus_with(vfs, &resolved.corpus_path)?;
    let probe = AnyIndex::open_with(
        vfs,
        &resolved.index_path,
        // Temporary encode just to read the base index's shape; replaced
        // below.
        Arc::new(alphabet.encode_store(&store)),
        backend,
        16,
    )?;
    if probe.depth_limit().is_some() {
        return Err(DiskError::BadRecord(
            "cannot append to a truncated (§8) index".into(),
        ));
    }
    let sparse = probe.is_sparse();
    drop(probe);

    // Admit the new values: widen observed bounds, extend the store.
    alphabet.widen(new_sequences);
    let first_new = store.len();
    for (_, s) in new_sequences.iter() {
        store.push(s.clone());
    }
    let last = store.len();

    // Re-encode everything against the (fixed) boundaries. Old symbols
    // are unchanged — only lb/ub widened — so the existing tree stays
    // valid over the new CatStore.
    let cat = Arc::new(alphabet.encode_store(&store));

    // For the tree backend, build a batch tree over just the new
    // sequences and binary-merge it with the base. The guard removes
    // the batch file on every exit path — including success, where the
    // removal is merely best-effort (a failure there leaves a `*.tmp`
    // for the next recovery sweep, never a wrong answer). The ESA has
    // no binary merge: its append is a canonical rebuild over the
    // widened corpus, so no batch file exists.
    let batch_path = dir.join("append-batch.wt.tmp");
    let _batch_guard = TempGuard::new(vfs, vec![batch_path.clone()]);
    if backend == BackendKind::Tree {
        let batch = if sparse {
            warptree_suffix::build_sparse_range(cat.clone(), first_new..last)
        } else {
            warptree_suffix::build_full_range(cat.clone(), first_new..last)
        };
        write_tree_with(vfs, &batch, &batch_path)?;
    }

    // Commit the widened corpus and the merged (or rebuilt) index as
    // one atomic generation flip; the merge streams directly into the
    // new generation's temporary, so no separate merge scratch file
    // exists.
    let manifest = commit_dir_backend_with(
        vfs,
        dir,
        resolved.generation,
        backend,
        |corpus_tmp| save_corpus_with(vfs, &store, &alphabet, corpus_tmp).map(|_| ()),
        |index_tmp| match backend {
            BackendKind::Tree => {
                let old = DiskTree::open_with(vfs, &resolved.index_path, cat.clone(), 256)?;
                let new = DiskTree::open_with(vfs, &batch_path, cat.clone(), 256)?;
                merge_trees_with(vfs, &old, &new, &cat, index_tmp).map(|_| ())
            }
            BackendKind::Esa => {
                let esa = warptree_esa::EsaIndex::build(cat.clone(), sparse);
                crate::esa::write_esa_with(vfs, &esa, index_tmp).map(|_| ())
            }
        },
    )?;
    Ok(manifest.index_len)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::corpus::save_corpus;
    use crate::manifest::resolve_dir_with;
    use crate::writer::write_tree;
    use warptree_core::categorize::Alphabet;
    use warptree_core::search::{
        run_query, seq_scan, QueryRequest, SearchParams, SearchStats, SeqScanMode,
    };

    fn tmpdir(tag: &str) -> std::path::PathBuf {
        let p = std::env::temp_dir().join(format!("warptree-append-{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&p);
        std::fs::create_dir_all(&p).unwrap();
        p
    }

    fn build_dir(dir: &Path, store: &SequenceStore, sparse: bool) -> Alphabet {
        let alphabet = Alphabet::max_entropy(store, 6).unwrap();
        let cat = Arc::new(alphabet.encode_store(store));
        save_corpus(store, &alphabet, &dir.join("corpus.wc")).unwrap();
        let tree = if sparse {
            warptree_suffix::build_sparse(cat)
        } else {
            warptree_suffix::build_full(cat)
        };
        write_tree(&tree, &dir.join("index.wt")).unwrap();
        alphabet
    }

    fn open_committed(
        dir: &Path,
    ) -> (
        SequenceStore,
        Alphabet,
        Arc<warptree_core::categorize::CatStore>,
        DiskTree,
    ) {
        let resolved = resolve_dir_with(&RealVfs, dir).unwrap();
        let (store, alphabet, cat) = crate::corpus::load_corpus(&resolved.corpus_path).unwrap();
        let tree = DiskTree::open(&resolved.index_path, cat.clone(), 32).unwrap();
        (store, alphabet, cat, tree)
    }

    #[test]
    fn append_preserves_exactness() {
        for sparse in [false, true] {
            let dir = tmpdir(&format!("exact-{sparse}"));
            let initial = SequenceStore::from_values(vec![
                vec![1.0, 5.0, 3.0, 5.0, 1.0],
                vec![4.0, 4.0, 2.0],
            ]);
            build_dir(&dir, &initial, sparse);
            // New data includes values OUTSIDE the old range (0.0, 9.0):
            // the widening path must keep the bounds sound.
            let extra = SequenceStore::from_values(vec![
                vec![0.0, 9.0, 5.0, 5.0],
                vec![3.0, 3.0, 3.0, 3.0, 3.0],
            ]);
            append_to_index_dir(&dir, &extra).unwrap();

            let (store, alphabet, _, tree) = open_committed(&dir);
            assert_eq!(store.len(), 4);
            // A full tree stores one suffix per element of old + new.
            if !sparse {
                assert_eq!(
                    warptree_core::search::IndexBackend::suffix_count(&tree),
                    store.total_len()
                );
            }
            // Every search equals the exact scan over the merged store.
            for q in [vec![5.0, 5.0], vec![0.0, 9.0], vec![3.0]] {
                let params = SearchParams::with_epsilon(1.0);
                let (got, _) = run_query(
                    &tree,
                    &alphabet,
                    &store,
                    &QueryRequest::threshold_params(&q, params.clone()),
                )
                .unwrap();
                let got = got.into_answer_set();
                let mut stats = SearchStats::default();
                let expected = seq_scan(&store, &q, &params, SeqScanMode::Full, &mut stats);
                assert_eq!(
                    got.occurrence_set(),
                    expected.occurrence_set(),
                    "sparse={sparse} q={q:?}"
                );
            }
            std::fs::remove_dir_all(&dir).unwrap();
        }
    }

    #[test]
    fn repeated_appends_accumulate() {
        let dir = tmpdir("repeat");
        let initial = SequenceStore::from_values(vec![vec![2.0, 4.0, 6.0, 8.0]]);
        build_dir(&dir, &initial, true);
        for round in 0..3 {
            let extra =
                SequenceStore::from_values(vec![vec![2.0 + round as f64, 4.0, 6.0 - round as f64]]);
            append_to_index_dir(&dir, &extra).unwrap();
        }
        // Three appends over a legacy (gen 0) directory leave gen 3.
        let resolved = resolve_dir_with(&RealVfs, &dir).unwrap();
        assert_eq!(resolved.generation, 3);
        let (store, alphabet, _, tree) = open_committed(&dir);
        assert_eq!(store.len(), 4);
        let params = SearchParams::with_epsilon(0.5);
        let q = [4.0, 6.0];
        let (got, _) = run_query(
            &tree,
            &alphabet,
            &store,
            &QueryRequest::threshold_params(&q, params.clone()),
        )
        .unwrap();
        let got = got.into_answer_set();
        let mut stats = SearchStats::default();
        let expected = seq_scan(&store, &q, &params, SeqScanMode::Full, &mut stats);
        assert_eq!(got.occurrence_set(), expected.occurrence_set());
        assert!(!got.is_empty());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn append_upgrades_legacy_dir_and_leaves_no_tmp() {
        let dir = tmpdir("upgrade");
        let initial = SequenceStore::from_values(vec![vec![1.0, 2.0, 3.0]]);
        build_dir(&dir, &initial, false);
        let extra = SequenceStore::from_values(vec![vec![2.0, 3.0, 4.0]]);
        append_to_index_dir(&dir, &extra).unwrap();
        // Legacy fixed-name files are superseded and removed; the new
        // generation plus MANIFEST is all that remains.
        assert!(!dir.join("corpus.wc").exists());
        assert!(!dir.join("index.wt").exists());
        assert!(dir.join("MANIFEST").exists());
        for entry in std::fs::read_dir(&dir).unwrap() {
            let name = entry.unwrap().file_name();
            assert!(
                !name.to_string_lossy().ends_with(".tmp"),
                "stray temp file {name:?}"
            );
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
