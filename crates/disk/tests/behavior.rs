//! Behavioural tests of the disk layer: in-place record reads against
//! the materialized tree, buffer-pool effectiveness, merge
//! preconditions, and builder edge cases.

use std::sync::Arc;
use warptree_core::categorize::CatStore;
use warptree_core::search::IndexBackend;
use warptree_disk::format::encode_node;
use warptree_disk::{merge_trees, write_tree, DiskTree, IncrementalBuilder, TreeKind, PAGE_DATA};
use warptree_suffix::{build_full, build_full_truncated, build_sparse, TruncateSpec};

fn tmpdir(tag: &str) -> std::path::PathBuf {
    let p = std::env::temp_dir().join(format!("warptree-behavior-{}-{tag}", std::process::id()));
    std::fs::create_dir_all(&p).unwrap();
    p
}

fn small_cat() -> Arc<CatStore> {
    Arc::new(CatStore::from_symbols(
        vec![vec![0, 1, 2, 1, 0, 2], vec![2, 2, 1]],
        3,
    ))
}

/// A categorized corpus whose tree file spans dozens of pages.
fn multi_page_cat() -> Arc<CatStore> {
    let mut x = 0x2545_F491_4F6C_DD1Du64;
    let seqs = (0..40)
        .map(|_| {
            (0..60)
                .map(|_| {
                    x ^= x << 13;
                    x ^= x >> 7;
                    x ^= x << 17;
                    // Runs of equal symbols give the sparse tree
                    // non-trivial lead runs.
                    ((x >> 33) % 9).min(5) as u32
                })
                .collect()
        })
        .collect();
    Arc::new(CatStore::from_symbols(seqs, 6))
}

/// Asserts that `disk` (read in place) and `mem` present the same tree
/// below `(d, m)`: children order, edge labels, suffix order, lead runs
/// and subtree suffix counts. Returns the disk offsets visited.
fn assert_same_subtree<M: IndexBackend>(disk: &DiskTree, d: u64, mem: &M, m: M::Node) -> Vec<u64> {
    let (mut ds, mut ms) = (Vec::new(), Vec::new());
    disk.for_each_suffix_below(d, &mut |s, p, r| ds.push((s, p, r)));
    mem.for_each_suffix_below(m, &mut |s, p, r| ms.push((s, p, r)));
    assert_eq!(ds, ms, "suffix order below {d}");
    assert_eq!(disk.max_lead_run(d), mem.max_lead_run(m), "lead run at {d}");
    assert_eq!(
        disk.suffix_count_below(d),
        mem.suffix_count_below(m),
        "suffix count at {d}"
    );
    let (mut dc, mut mc) = (Vec::new(), Vec::new());
    disk.for_each_child(d, &mut |c| dc.push(c));
    mem.for_each_child(m, &mut |c| mc.push(c));
    assert_eq!(dc.len(), mc.len(), "child count at {d}");
    let mut visited = vec![d];
    for (&dchild, &mchild) in dc.iter().zip(&mc) {
        let (mut dl, mut ml) = (Vec::new(), Vec::new());
        disk.edge_label(dchild, &mut dl);
        mem.edge_label(mchild, &mut ml);
        assert_eq!(dl, ml, "edge label into {dchild}");
        visited.extend(assert_same_subtree(disk, dchild, mem, mchild));
    }
    visited
}

#[test]
fn in_place_traversal_equals_materialized_tree() {
    let cat = multi_page_cat();
    let dir = tmpdir("inplace");
    for (name, tree) in [
        ("full", build_full(cat.clone())),
        ("sparse", build_sparse(cat.clone())),
    ] {
        let path = dir.join(format!("{name}.wt"));
        write_tree(&tree, &path).unwrap();
        // A 2-page pool: straddling records and evictions are the
        // common case, not the exception.
        let disk = DiskTree::open(&path, cat.clone(), 2).unwrap();
        let mem = disk.to_mem().unwrap();
        let offsets = assert_same_subtree(&disk, disk.root(), &mem, mem.root());
        assert_eq!(offsets.len() as u64, disk.header().node_count);
        let straddling = offsets
            .iter()
            .filter(|&&off| {
                let len = encode_node(&disk.read_node(off).unwrap()).len() as u64;
                off / PAGE_DATA as u64 != (off + len - 1) / PAGE_DATA as u64
            })
            .count();
        // Records whose 32-byte fixed head itself is split.
        let split_heads = offsets
            .iter()
            .filter(|&&off| off % PAGE_DATA as u64 + 32 > PAGE_DATA as u64)
            .count();
        assert!(
            straddling >= 1,
            "{name}: no record straddles a page boundary"
        );
        assert!(
            split_heads >= 1,
            "{name}: no record head straddles a page boundary"
        );
        assert!(
            disk.logical_len() > 8 * PAGE_DATA as u64,
            "{name}: file too small"
        );
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn second_traversal_through_a_whole_file_pool_reads_no_page() {
    let cat = multi_page_cat();
    let tree = build_full(cat.clone());
    let dir = tmpdir("pool");
    let path = dir.join("t.wt");
    write_tree(&tree, &path).unwrap();
    let file_pages = std::fs::metadata(&path).unwrap().len() / warptree_disk::PAGE_SIZE as u64;
    let disk = DiskTree::open(&path, cat, file_pages as usize).unwrap();
    let walk = || {
        let mut v = Vec::new();
        disk.for_each_suffix_below(disk.root(), &mut |s, p, r| v.push((s, p, r)));
        v
    };
    let first = walk();
    let after_first = disk.io_stats();
    assert!(file_pages > 8, "file too small to exercise the pool");
    assert_eq!(after_first.pages_read, file_pages, "each page read once");
    let second = walk();
    let after_second = disk.io_stats();
    assert_eq!(first, second);
    // The pool holds every page, so the second walk is served entirely
    // from it: no page is fetched again, while every record read is a
    // pool hit.
    assert_eq!(after_second.pages_read, after_first.pages_read);
    assert!(after_second.cache_hits > after_first.cache_hits);
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
#[should_panic(expected = "depth limits")]
fn merge_rejects_mismatched_depth_limits() {
    let cat = small_cat();
    let full = build_full(cat.clone());
    let trunc = build_full_truncated(
        cat.clone(),
        TruncateSpec {
            max_answer_len: 2,
            min_answer_len: 1,
        },
    );
    let dir = tmpdir("mismatch");
    let (p1, p2) = (dir.join("a.wt"), dir.join("b.wt"));
    write_tree(&full, &p1).unwrap();
    write_tree(&trunc, &p2).unwrap();
    let a = DiskTree::open(&p1, cat.clone(), 4).unwrap();
    let b = DiskTree::open(&p2, cat.clone(), 4).unwrap();
    let _ = merge_trees(&a, &b, &cat, &dir.join("m.wt"));
}

#[test]
fn incremental_builder_handles_empty_store() {
    let cat = Arc::new(CatStore::from_symbols(vec![], 2));
    let dir = tmpdir("empty");
    let out = dir.join("index.wt");
    IncrementalBuilder::new(cat.clone(), TreeKind::Sparse, 4, dir.clone())
        .build(&out)
        .unwrap();
    let disk = DiskTree::open(&out, cat, 4).unwrap();
    assert_eq!(disk.suffix_count(), 0);
    assert!(disk.is_sparse());
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn reopening_with_tiny_caches_matches_large_caches() {
    let cat = small_cat();
    let tree = build_full(cat.clone());
    let dir = tmpdir("caches");
    let path = dir.join("t.wt");
    write_tree(&tree, &path).unwrap();
    let collect = |pages: usize| {
        let disk = DiskTree::open(&path, cat.clone(), pages).unwrap();
        let mut v = Vec::new();
        disk.for_each_suffix_below(disk.root(), &mut |s, p, r| v.push((s, p, r)));
        v.sort();
        v
    };
    assert_eq!(collect(1), collect(64));
    std::fs::remove_dir_all(&dir).unwrap();
}
