//! On-disk suffix-tree file format.
//!
//! A tree file is a paged stream (see [`pager`](crate::pager)) holding a
//! fixed-size header followed by node records written in post-order —
//! children always precede their parent, so the file is produced in a
//! single sequential pass and the root is the last record, back-patched
//! into the header.
//!
//! ```text
//! header (64 bytes, logical offset 0):
//!   magic   [u8;8] = "WARPTREE"
//!   version u32    = 1
//!   flags   u32      bit 0: sparse tree
//!   alpha   u32      alphabet length the symbols were drawn from
//!   node_count   u64
//!   suffix_count u64
//!   root_offset  u64
//!   depth_limit  u32  (0 = untruncated; see paper §8)
//!   reserved     [u8;16] (zero)
//!
//! node record:
//!   label_seq u32, label_start u32, label_len u32   (edge entering node)
//!   suffix_count u64                                (at or below)
//!   max_lead_run u32                                (at or below)
//!   n_suffixes u32, n_children u32
//!   n_suffixes × { seq u32, start u32, lead_run u32 }
//!   n_children × { first_symbol u32, offset u64 }   (sorted by symbol)
//! ```
//!
//! All integers are little-endian. Every page carries a CRC-32, so
//! corruption anywhere in the file is detected on first touch.
//!
//! [`DiskTree`] answers traversal calls by parsing each record in place
//! from its (shared, CRC-verified) buffer-pool page; only a record that
//! straddles a page boundary is copied out first.

use std::path::Path;
use std::sync::Arc;

use parking_lot::Mutex;
use warptree_core::categorize::{CatStore, Symbol};
use warptree_core::search::IndexBackend;
use warptree_core::sequence::SeqId;

use crate::error::{DiskError, Result};
use crate::pager::{IoStats, PagedReader, PAGE_DATA};
use crate::vfs::{RealVfs, Vfs};

/// Size of the file header in logical bytes.
pub const HEADER_SIZE: u64 = 64;
/// Header magic bytes.
pub const MAGIC: &[u8; 8] = b"WARPTREE";
/// Current format version.
pub const VERSION: u32 = 1;

/// Decoded file header.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Header {
    /// `true` when the tree stores only the §6.1 suffix subset.
    pub sparse: bool,
    /// Alphabet length the symbols were drawn from.
    pub alphabet_len: u32,
    /// Total node records in the file.
    pub node_count: u64,
    /// Total stored suffixes.
    pub suffix_count: u64,
    /// Logical offset of the root node record.
    pub root_offset: u64,
    /// Answer-length cap of a §8-truncated tree (`None` = full).
    pub depth_limit: Option<u32>,
}

impl Header {
    /// Serializes the header into its 64-byte form.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(HEADER_SIZE as usize);
        out.extend_from_slice(MAGIC);
        out.extend_from_slice(&VERSION.to_le_bytes());
        out.extend_from_slice(&(self.sparse as u32).to_le_bytes());
        out.extend_from_slice(&self.alphabet_len.to_le_bytes());
        out.extend_from_slice(&self.node_count.to_le_bytes());
        out.extend_from_slice(&self.suffix_count.to_le_bytes());
        out.extend_from_slice(&self.root_offset.to_le_bytes());
        out.extend_from_slice(&self.depth_limit.unwrap_or(0).to_le_bytes());
        out.resize(HEADER_SIZE as usize, 0);
        out
    }

    /// Parses and validates a 64-byte header.
    pub fn decode(buf: &[u8]) -> Result<Self> {
        if buf.len() < HEADER_SIZE as usize {
            return Err(DiskError::BadHeader("truncated header".into()));
        }
        if &buf[0..8] != MAGIC {
            if &buf[0..8] == crate::esa::ESA_MAGIC {
                // A tree-only code path opened a file committed by the
                // esa backend: name the mismatch instead of "bad magic"
                // so callers (and operators) see what happened.
                return Err(DiskError::UnsupportedBackend {
                    found: "esa".into(),
                });
            }
            return Err(DiskError::BadHeader("bad magic".into()));
        }
        let version = u32::from_le_bytes(buf[8..12].try_into().unwrap());
        if version != VERSION {
            return Err(DiskError::BadHeader(format!(
                "unsupported version {version}"
            )));
        }
        let flags = u32::from_le_bytes(buf[12..16].try_into().unwrap());
        Ok(Header {
            sparse: flags & 1 != 0,
            alphabet_len: u32::from_le_bytes(buf[16..20].try_into().unwrap()),
            node_count: u64::from_le_bytes(buf[20..28].try_into().unwrap()),
            suffix_count: u64::from_le_bytes(buf[28..36].try_into().unwrap()),
            root_offset: u64::from_le_bytes(buf[36..44].try_into().unwrap()),
            depth_limit: match u32::from_le_bytes(buf[44..48].try_into().unwrap()) {
                0 => None,
                d => Some(d),
            },
        })
    }
}

/// A node record decoded from disk.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DiskNode {
    /// Edge label entering this node: `(seq, start, len)`.
    pub label: (SeqId, u32, u32),
    /// Stored suffixes at or below this node.
    pub suffix_count: u64,
    /// Maximum leading-run length at or below this node.
    pub max_lead_run: u32,
    /// Suffix labels attached to this node: `(seq, start, lead_run)`.
    pub suffixes: Vec<(SeqId, u32, u32)>,
    /// Children as `(first_symbol, node_offset)`, sorted by symbol.
    pub children: Vec<(Symbol, u64)>,
}

/// Fixed-size prefix of a node record.
const NODE_HEAD: usize = 32;

/// Serializes a node record.
pub fn encode_node(node: &DiskNode) -> Vec<u8> {
    let mut out =
        Vec::with_capacity(NODE_HEAD + 12 * node.suffixes.len() + 12 * node.children.len());
    out.extend_from_slice(&node.label.0 .0.to_le_bytes());
    out.extend_from_slice(&node.label.1.to_le_bytes());
    out.extend_from_slice(&node.label.2.to_le_bytes());
    out.extend_from_slice(&node.suffix_count.to_le_bytes());
    out.extend_from_slice(&node.max_lead_run.to_le_bytes());
    out.extend_from_slice(&(node.suffixes.len() as u32).to_le_bytes());
    out.extend_from_slice(&(node.children.len() as u32).to_le_bytes());
    for (seq, start, run) in &node.suffixes {
        out.extend_from_slice(&seq.0.to_le_bytes());
        out.extend_from_slice(&start.to_le_bytes());
        out.extend_from_slice(&run.to_le_bytes());
    }
    for (first, offset) in &node.children {
        out.extend_from_slice(&first.to_le_bytes());
        out.extend_from_slice(&offset.to_le_bytes());
    }
    out
}

fn u32_at(b: &[u8], at: usize) -> u32 {
    u32::from_le_bytes(b[at..at + 4].try_into().unwrap())
}

fn u64_at(b: &[u8], at: usize) -> u64 {
    u64::from_le_bytes(b[at..at + 8].try_into().unwrap())
}

/// Byte length of the record whose fixed head is `head`.
fn record_len(head: &[u8]) -> u64 {
    NODE_HEAD as u64 + 12 * (u32_at(head, 24) as u64 + u32_at(head, 28) as u64)
}

/// A node record's bytes, read in place (see [`encode_node`] for the
/// layout). Its length is the one [`record_len`] gives for its head.
#[derive(Clone, Copy)]
struct Record<'a>(&'a [u8]);

impl<'a> Record<'a> {
    fn label(self) -> (SeqId, u32, u32) {
        (
            SeqId(u32_at(self.0, 0)),
            u32_at(self.0, 4),
            u32_at(self.0, 8),
        )
    }

    fn suffix_count(self) -> u64 {
        u64_at(self.0, 12)
    }

    fn max_lead_run(self) -> u32 {
        u32_at(self.0, 20)
    }

    fn n_suffixes(self) -> usize {
        u32_at(self.0, 24) as usize
    }

    /// `(seq, start, lead_run)` of every attached suffix, in file order.
    fn suffixes(self) -> impl Iterator<Item = (SeqId, u32, u32)> + 'a {
        let end = NODE_HEAD + 12 * self.n_suffixes();
        self.0[NODE_HEAD..end]
            .chunks_exact(12)
            .map(|b| (SeqId(u32_at(b, 0)), u32_at(b, 4), u32_at(b, 8)))
    }

    /// `(first_symbol, offset)` of every child, sorted by symbol.
    fn children(self) -> impl Iterator<Item = (Symbol, u64)> + 'a {
        let start = NODE_HEAD + 12 * self.n_suffixes();
        self.0[start..]
            .chunks_exact(12)
            .map(|b| (u32_at(b, 0), u64_at(b, 4)))
    }

    fn to_node(self) -> DiskNode {
        DiskNode {
            label: self.label(),
            suffix_count: self.suffix_count(),
            max_lead_run: self.max_lead_run(),
            suffixes: self.suffixes().collect(),
            children: self.children().collect(),
        }
    }
}

/// Panic payload used to abort a tree traversal on an unreadable node.
///
/// The [`IndexBackend`] trait's walk callbacks are infallible, so a
/// mid-traversal read failure cannot return an `Err` through them.
/// Instead the failing [`DiskTree`] records the typed error (see
/// [`DiskTree::take_read_error`]) and unwinds with this marker; the
/// fan-out layer catches the unwind (`std::panic::catch_unwind`),
/// downcasts to `TreeReadAbort`, and turns the recorded error into a
/// quarantine + degraded answer instead of a crash.
pub struct TreeReadAbort;

/// A disk-resident suffix tree, query-ready through
/// [`IndexBackend`]. Every call parses its node record in place from the
/// page buffer pool (all reads verify page CRCs); there is no second,
/// decoded-node cache.
pub struct DiskTree {
    reader: PagedReader,
    cat: Arc<CatStore>,
    header: Header,
    /// File name this tree was opened from — the segment identity used
    /// in [`DiskError::CorruptionDetected`].
    source: String,
    /// First read failure observed during a traversal (set by
    /// [`node`](Self::node) before unwinding).
    read_error: Mutex<Option<DiskError>>,
}

impl DiskTree {
    /// Opens a tree file against the categorized store its labels
    /// reference. `cache_pages` sizes the page buffer pool.
    pub fn open(path: &Path, cat: Arc<CatStore>, cache_pages: usize) -> Result<Self> {
        Self::open_with(&RealVfs, path, cat, cache_pages)
    }

    /// [`open`](Self::open) through an explicit [`Vfs`].
    pub fn open_with(
        vfs: &dyn Vfs,
        path: &Path,
        cat: Arc<CatStore>,
        cache_pages: usize,
    ) -> Result<Self> {
        let reader = PagedReader::open_with(vfs, path, cache_pages)?;
        let mut buf = vec![0u8; HEADER_SIZE as usize];
        reader.read_exact_at(0, &mut buf)?;
        let header = Header::decode(&buf)?;
        if header.alphabet_len != cat.alphabet_len() {
            return Err(DiskError::BadHeader(format!(
                "alphabet mismatch: file {} vs store {}",
                header.alphabet_len,
                cat.alphabet_len()
            )));
        }
        Ok(Self {
            reader,
            cat,
            header,
            source: path
                .file_name()
                .map(|n| n.to_string_lossy().into_owned())
                .unwrap_or_default(),
            read_error: Mutex::new(None),
        })
    }

    /// The file name this tree was opened from (its segment identity).
    pub fn source(&self) -> &str {
        &self.source
    }

    /// Takes the read failure recorded by an aborted traversal, if any.
    /// `CorruptPage` failures arrive here already labelled as
    /// [`DiskError::CorruptionDetected`] with this tree's file name.
    pub fn take_read_error(&self) -> Option<DiskError> {
        self.read_error.lock().take()
    }

    /// Runs `f` over the record at `offset`, parsed in place from its
    /// pool page; a record straddling a page boundary is copied out
    /// first. `f` runs after the pool lock is released.
    fn with_record<R>(&self, offset: u64, f: impl FnOnce(Record<'_>) -> R) -> Result<R> {
        let size = self.reader.logical_len();
        if offset + NODE_HEAD as u64 > size {
            return Err(DiskError::OutOfBounds {
                offset,
                len: NODE_HEAD as u64,
                size,
            });
        }
        let page = self.reader.page(offset / PAGE_DATA as u64)?;
        let tail = &page[(offset % PAGE_DATA as u64) as usize..];
        let len = if tail.len() >= NODE_HEAD {
            record_len(tail)
        } else {
            let mut head = [0u8; NODE_HEAD];
            head[..tail.len()].copy_from_slice(tail);
            self.reader
                .read_exact_at(offset + tail.len() as u64, &mut head[tail.len()..])?;
            record_len(&head)
        };
        // Sanity-bound the counts before trusting (or allocating for)
        // them.
        if offset + len > size {
            return Err(DiskError::BadRecord(format!(
                "node at {offset} overruns the file"
            )));
        }
        let len = len as usize;
        if len <= tail.len() {
            return Ok(f(Record(&tail[..len])));
        }
        let mut buf = vec![0u8; len];
        buf[..tail.len()].copy_from_slice(tail);
        self.reader
            .read_exact_at(offset + tail.len() as u64, &mut buf[tail.len()..])?;
        Ok(f(Record(&buf)))
    }

    /// [`with_record`](Self::with_record) or abort the traversal: the
    /// error is recorded on this tree (CRC failures typed as
    /// `CorruptionDetected`) and the stack unwinds with
    /// [`TreeReadAbort`] for the fan-out layer to catch.
    fn node<R>(&self, offset: u64, f: impl FnOnce(Record<'_>) -> R) -> R {
        match self.with_record(offset, f) {
            Ok(r) => r,
            Err(e) => {
                let e = match e {
                    DiskError::CorruptPage { page } => DiskError::CorruptionDetected {
                        segment: self.source.clone(),
                        page,
                    },
                    other => other,
                };
                let mut slot = self.read_error.lock();
                if slot.is_none() {
                    *slot = Some(e);
                }
                drop(slot);
                std::panic::panic_any(TreeReadAbort);
            }
        }
    }

    /// Walks every physical page of the file through the CRC check,
    /// bypassing the page cache (the scrub / `verify --deep` primitive).
    /// Returns the page count, or the first corruption typed with this
    /// tree's file name.
    pub fn verify_pages(&self) -> Result<u64> {
        for p in 0..self.reader.page_count() {
            self.reader.verify_page(p).map_err(|e| match e {
                DiskError::CorruptPage { page } => DiskError::CorruptionDetected {
                    segment: self.source.clone(),
                    page,
                },
                other => other,
            })?;
        }
        Ok(self.reader.page_count())
    }

    /// The file header.
    pub fn header(&self) -> Header {
        self.header
    }

    /// The categorized store the labels reference.
    pub fn cat(&self) -> &Arc<CatStore> {
        &self.cat
    }

    /// Page-level I/O counters.
    pub fn io_stats(&self) -> IoStats {
        self.reader.io_stats()
    }

    /// Logical length of the file in bytes (the paper's "index size").
    pub fn logical_len(&self) -> u64 {
        self.reader.logical_len()
    }

    /// Routes this tree's buffer-pool counters into `reg` as
    /// `disk.page_cache.{hits,misses}` (every node access is a pool
    /// lookup) and its read-path CRC failures as `disk.read_crc_fail`.
    /// Counts accumulated before the call are not carried over.
    pub fn instrument(&self, reg: &warptree_obs::MetricsRegistry) {
        self.reader
            .meter_cache(reg, "disk.page_cache.hits", "disk.page_cache.misses");
        self.reader.meter_crc_failures(reg, "disk.read_crc_fail");
    }

    /// Decodes the node record at `offset` (uncached: merge, `to_mem`
    /// and diagnostics; queries parse records in place instead).
    pub fn read_node(&self, offset: u64) -> Result<DiskNode> {
        self.with_record(offset, |r| r.to_node())
    }

    /// Materializes the whole file back into an in-memory
    /// [`warptree_suffix::SuffixTree`] (testing / migration utility).
    pub fn to_mem(&self) -> Result<warptree_suffix::SuffixTree> {
        use warptree_suffix::{LabelRef, SuffixLabel, SuffixTree, ROOT};
        let mut tree = SuffixTree::empty(self.cat.clone(), self.header.sparse);
        if let Some(limit) = self.header.depth_limit {
            tree.set_depth_limit(limit);
        }
        // (disk offset, mem parent)
        let mut stack = vec![(self.header.root_offset, ROOT)];
        let mut first = true;
        while let Some((off, parent)) = stack.pop() {
            let dn = self.read_node(off)?;
            let mem = if first {
                first = false;
                ROOT
            } else {
                let id = tree.alloc(LabelRef {
                    seq: dn.label.0,
                    start: dn.label.1,
                    len: dn.label.2,
                });
                tree.attach(parent, id);
                id
            };
            for &(seq, start, run) in &dn.suffixes {
                tree.node_mut(mem).suffixes.push(SuffixLabel {
                    seq,
                    start,
                    lead_run: run,
                });
            }
            for &(_, coff) in &dn.children {
                stack.push((coff, mem));
            }
        }
        tree.finalize();
        Ok(tree)
    }
}

impl IndexBackend for DiskTree {
    type Node = u64;

    fn root(&self) -> u64 {
        self.header.root_offset
    }

    fn for_each_child(&self, n: u64, f: &mut dyn FnMut(u64)) {
        self.node(n, |r| r.children().for_each(|(_, off)| f(off)));
    }

    fn edge_label(&self, n: u64, out: &mut Vec<Symbol>) {
        let (seq, start, len) = self.node(n, |r| r.label());
        let s = self.cat.seq(seq);
        out.extend_from_slice(&s[start as usize..(start + len) as usize]);
    }

    fn for_each_suffix_below(&self, n: u64, f: &mut dyn FnMut(SeqId, u32, u32)) {
        let mut stack = vec![n];
        while let Some(off) = stack.pop() {
            self.node(off, |r| {
                for (seq, start, run) in r.suffixes() {
                    f(seq, start, run);
                }
                stack.extend(r.children().map(|(_, c)| c));
            });
        }
    }

    fn max_lead_run(&self, n: u64) -> u32 {
        self.node(n, |r| r.max_lead_run())
    }

    fn is_sparse(&self) -> bool {
        self.header.sparse
    }

    fn suffix_count(&self) -> u64 {
        self.header.suffix_count
    }

    fn depth_limit(&self) -> Option<u32> {
        self.header.depth_limit
    }

    fn suffix_count_below(&self, n: u64) -> Option<u64> {
        // Every node record stores its subtree suffix count, so this is
        // one in-place read — cheap enough for per-edge `R_d` metering.
        Some(self.node(n, |r| r.suffix_count()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn header_roundtrip() {
        let h = Header {
            sparse: true,
            alphabet_len: 42,
            node_count: 7,
            suffix_count: 5,
            root_offset: 4096,
            depth_limit: Some(17),
        };
        let enc = h.encode();
        assert_eq!(enc.len(), HEADER_SIZE as usize);
        assert_eq!(Header::decode(&enc).unwrap(), h);
    }

    #[test]
    fn header_rejects_bad_magic_and_version() {
        let h = Header {
            sparse: false,
            alphabet_len: 1,
            node_count: 1,
            suffix_count: 0,
            root_offset: HEADER_SIZE,
            depth_limit: None,
        };
        let mut enc = h.encode();
        enc[0] = b'X';
        assert!(matches!(Header::decode(&enc), Err(DiskError::BadHeader(_))));
        let mut enc2 = h.encode();
        enc2[8] = 99;
        assert!(matches!(
            Header::decode(&enc2),
            Err(DiskError::BadHeader(_))
        ));
        assert!(matches!(
            Header::decode(&enc2[..10]),
            Err(DiskError::BadHeader(_))
        ));
    }

    #[test]
    fn node_record_roundtrip_via_encode() {
        let node = DiskNode {
            label: (SeqId(3), 7, 5),
            suffix_count: 9,
            max_lead_run: 4,
            suffixes: vec![(SeqId(3), 7, 2), (SeqId(1), 0, 1)],
            children: vec![(0, 64), (5, 128)],
        };
        let enc = encode_node(&node);
        assert_eq!(enc.len(), 32 + 12 * 2 + 12 * 2);
        // Decoding is exercised end-to-end by the writer tests; here we
        // just check the head fields lay out as documented.
        assert_eq!(u32::from_le_bytes(enc[0..4].try_into().unwrap()), 3);
        assert_eq!(u32::from_le_bytes(enc[8..12].try_into().unwrap()), 5);
        assert_eq!(u64::from_le_bytes(enc[12..20].try_into().unwrap()), 9);
        assert_eq!(u32::from_le_bytes(enc[24..28].try_into().unwrap()), 2);
        assert_eq!(u32::from_le_bytes(enc[28..32].try_into().unwrap()), 2);
    }
}
