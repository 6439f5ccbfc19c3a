//! The answer oracle.
//!
//! Ground truth comes from the exact sequential scan
//! (`core::search::seq_scan` in early-abandon mode, which computes every
//! distance exactly) over the seeded corpus, computed during set-up and
//! outside `setup_s`. The k-NN reference is built from the same scan:
//! grow ε from the program's documented seed radius until the scan
//! holds `k` non-overlapping matches, then keep the `k` best by
//! `(distance, occurrence)`.
//!
//! Matches on sequences ingested during a run have no precomputed
//! truth; each is re-verified with [`exact_dtw`], an implementation of
//! the paper's `D_tw` that shares no code with the program.

use warptree::core::search::{seq_scan, Match, SearchParams, SearchStats, SeqScanMode};
use warptree::core::sequence::{SequenceStore, Value};

/// The program's k-NN seed radius and growth (see `KnnParams::new`).
const KNN_SEED_FRACTION: f64 = 0.05;
const KNN_GROWTH: f64 = 4.0;
const KNN_MAX_ROUNDS: usize = 24;

/// Every subsequence within `epsilon` of `query`, sorted by occurrence.
pub fn threshold_truth(store: &SequenceStore, query: &[Value], epsilon: f64) -> Vec<Match> {
    let mut stats = SearchStats::default();
    let answers = seq_scan(
        store,
        query,
        &SearchParams::with_epsilon(epsilon),
        SeqScanMode::EarlyAbandon,
        &mut stats,
    );
    let mut v = answers.matches().to_vec();
    v.sort_by_key(|m| m.occ);
    v
}

/// An ε at which `query` has about `target` answers, with its truth:
/// the midpoint between the `target`-th smallest distance and the next
/// larger one, so no answer sits on the boundary.
pub fn ladder_truth(store: &SequenceStore, query: &[Value], target: usize) -> (f64, Vec<Match>) {
    let mut radius = 8.0;
    loop {
        let all = threshold_truth(store, query, radius);
        if all.len() > target || radius > 1e3 {
            let mut d: Vec<f64> = all.iter().map(|m| m.dist).collect();
            d.sort_by(|a, b| a.partial_cmp(b).expect("finite distances"));
            let at = d.get(target.saturating_sub(1)).copied().unwrap_or(radius);
            let epsilon = match d.iter().find(|&&x| x > at) {
                Some(next) => (at + next) / 2.0,
                None => radius,
            };
            let truth = all.into_iter().filter(|m| m.dist <= epsilon).collect();
            return (epsilon, truth);
        }
        radius *= 1.5;
    }
}

/// Sorts by ascending `(distance, occurrence)`.
fn rank(v: &mut [Match]) {
    v.sort_by(|a, b| {
        a.dist
            .partial_cmp(&b.dist)
            .expect("finite distances")
            .then(a.occ.cmp(&b.occ))
    });
}

/// Greedy non-overlapping selection over a ranked list.
fn non_overlapping(ranked: &[Match]) -> Vec<Match> {
    let mut picked: Vec<Match> = Vec::new();
    for m in ranked {
        if !picked.iter().any(|p| p.occ.overlaps(&m.occ)) {
            picked.push(*m);
        }
    }
    picked
}

/// The `k` nearest non-overlapping subsequences, from scans alone.
pub fn knn_reference(store: &SequenceStore, query: &[Value], k: usize) -> Vec<Match> {
    let mean_abs = query.iter().map(|v| v.abs()).sum::<f64>() / query.len().max(1) as f64;
    let mut epsilon = (mean_abs * KNN_SEED_FRACTION).max(1e-3);
    let mut picked = Vec::new();
    for _ in 0..KNN_MAX_ROUNDS {
        let mut all = threshold_truth(store, query, epsilon);
        rank(&mut all);
        picked = non_overlapping(&all);
        if picked.len() >= k {
            picked.truncate(k);
            break;
        }
        epsilon *= KNN_GROWTH;
    }
    picked
}

/// The paper's `D_tw` with `D_base(a, b) = |a − b|`, by plain dynamic
/// programming over the full table.
pub fn exact_dtw(query: &[Value], data: &[Value]) -> f64 {
    let n = query.len();
    let mut prev = vec![f64::INFINITY; n];
    let mut cur = vec![0.0; n];
    for (y, &d) in data.iter().enumerate() {
        for x in 0..n {
            let base = (query[x] - d).abs();
            let best = if x == 0 && y == 0 {
                0.0
            } else {
                let left = if x > 0 { cur[x - 1] } else { f64::INFINITY };
                let diag = if x > 0 { prev[x - 1] } else { f64::INFINITY };
                left.min(prev[x]).min(diag)
            };
            cur[x] = base + best;
        }
        std::mem::swap(&mut prev, &mut cur);
    }
    prev[n - 1]
}

/// Sequences the corpus gained after the truth was computed: ids
/// `base_seqs..` in ingestion order.
pub struct Ingested<'a> {
    pub base_seqs: u32,
    pub seqs: &'a [Vec<Value>],
}

impl Ingested<'_> {
    /// No sequences beyond the base corpus.
    pub const NONE: Ingested<'static> = Ingested {
        base_seqs: u32::MAX,
        seqs: &[],
    };

    fn is_base(&self, m: &Match) -> bool {
        m.occ.seq.0 < self.base_seqs
    }

    /// Re-verifies one match on an ingested sequence.
    fn verify(&self, query: &[Value], m: &Match, epsilon: f64) -> Result<(), String> {
        let seq = self
            .seqs
            .get((m.occ.seq.0 - self.base_seqs) as usize)
            .ok_or_else(|| format!("match on unknown sequence {}", m.occ.seq.0))?;
        let (start, end) = (m.occ.start as usize, m.occ.end() as usize);
        if end > seq.len() || start >= end {
            return Err(format!("match {:?} outside its sequence", m.occ));
        }
        let d = exact_dtw(query, &seq[start..end]);
        if d != m.dist || d > epsilon {
            return Err(format!(
                "ingested match {:?}: reported {} but D_tw is {d} (ε {epsilon})",
                m.occ, m.dist
            ));
        }
        Ok(())
    }
}

fn same(got: &[Match], want: &[Match]) -> Result<(), String> {
    if got.len() != want.len() {
        return Err(format!("{} answers, truth has {}", got.len(), want.len()));
    }
    for (g, w) in got.iter().zip(want) {
        if g.occ != w.occ || g.dist.to_bits() != w.dist.to_bits() {
            return Err(format!(
                "answer {:?} dist {} differs from truth {:?} dist {}",
                g.occ, g.dist, w.occ, w.dist
            ));
        }
    }
    Ok(())
}

/// Checks a threshold answer (any order) against the truth: base-corpus
/// answers must equal it exactly, ingested ones must re-verify.
pub fn check_threshold(
    mut got: Vec<Match>,
    truth: &[Match],
    query: &[Value],
    epsilon: f64,
    ingested: &Ingested,
) -> Result<(), String> {
    got.sort_by_key(|m| m.occ);
    let (base, extra): (Vec<Match>, Vec<Match>) =
        got.into_iter().partition(|m| ingested.is_base(m));
    same(&base, truth)?;
    extra
        .iter()
        .try_for_each(|m| ingested.verify(query, m, epsilon))
}

/// Checks a ranked k-NN answer against the base-corpus reference. The
/// greedy non-overlap choice is per sequence, so the base matches of
/// the answer must be exactly the reference's prefix up to the
/// answer's last `(distance, occurrence)`; ingested matches re-verify.
pub fn check_knn(
    got: &[Match],
    reference: &[Match],
    query: &[Value],
    k: usize,
    ingested: &Ingested,
) -> Result<(), String> {
    if got.len() > k || got.len() < k.min(reference.len()) {
        return Err(format!("{} neighbours, wanted {k}", got.len()));
    }
    let mut ranked = got.to_vec();
    rank(&mut ranked);
    if ranked.iter().zip(got).any(|(a, b)| a.occ != b.occ) {
        return Err("neighbours are not ranked by (distance, occurrence)".to_string());
    }
    let Some(last) = got.last() else {
        return same(got, reference);
    };
    let key = |m: &Match| (m.dist, m.occ);
    let cut = key(last);
    let want: Vec<Match> = reference
        .iter()
        .filter(|m| key(m).partial_cmp(&cut).expect("finite") != std::cmp::Ordering::Greater)
        .copied()
        .collect();
    let base: Vec<Match> = got
        .iter()
        .filter(|m| ingested.is_base(m))
        .copied()
        .collect();
    same(&base, &want)?;
    got.iter()
        .filter(|m| !ingested.is_base(m))
        .try_for_each(|m| ingested.verify(query, m, f64::INFINITY))
}

/// Shows that the checks fire: corrupting one answer (a distance, a
/// dropped match, a swapped neighbour) must fail every check.
pub fn self_test(
    query: &[Value],
    epsilon: f64,
    truth: &[Match],
    knn: &[Match],
) -> Result<(), String> {
    let none = &Ingested::NONE;
    check_threshold(truth.to_vec(), truth, query, epsilon, none)?;
    check_knn(knn, knn, query, knn.len(), none)?;
    let fires = |r: Result<(), String>, what: &str| match r {
        Err(_) => Ok(()),
        Ok(()) => Err(format!("self-test: a corrupted {what} passed the check")),
    };
    if let Some(first) = truth.first() {
        let mut bad = truth.to_vec();
        bad[0].dist = f64::from_bits(first.dist.to_bits() + 1);
        fires(
            check_threshold(bad, truth, query, epsilon, none),
            "distance",
        )?;
        fires(
            check_threshold(truth[1..].to_vec(), truth, query, epsilon, none),
            "answer set",
        )?;
    }
    if knn.len() >= 2 {
        let mut bad = knn.to_vec();
        bad.swap(0, knn.len() - 1);
        fires(
            check_knn(&bad, knn, query, knn.len(), none),
            "neighbour order",
        )?;
        let mut bad = knn.to_vec();
        bad[0].occ.start += 1;
        fires(check_knn(&bad, knn, query, knn.len(), none), "neighbour")?;
    }
    Ok(())
}

/// Maps `f` over `items` on `threads` scoped threads pulling from a
/// shared cursor (item costs vary widely), keeping order.
pub fn par_map<T: Sync, R: Send>(
    threads: usize,
    items: &[T],
    f: impl Fn(&T) -> R + Sync,
) -> Vec<R> {
    let next = std::sync::atomic::AtomicUsize::new(0);
    let mut out: Vec<(usize, R)> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..threads.max(1))
            .map(|_| {
                s.spawn(|| {
                    let mut done = Vec::new();
                    loop {
                        let i = next.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                        let Some(item) = items.get(i) else { break done };
                        done.push((i, f(item)));
                    }
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("oracle worker panicked"))
            .collect()
    });
    out.sort_by_key(|(i, _)| *i);
    out.into_iter().map(|(_, r)| r).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use warptree::core::sequence::Sequence;

    fn store() -> SequenceStore {
        let mut s = SequenceStore::new();
        s.push(Sequence::new(vec![1.0, 2.0, 3.0, 2.0, 1.0, 5.0, 6.0, 2.5]));
        s.push(Sequence::new(vec![2.0, 3.0, 2.5, 1.0, 0.5, 2.0, 3.0]));
        s
    }

    #[test]
    fn exact_dtw_matches_the_program() {
        let q = [2.0, 3.0, 2.0];
        for d in [&[2.0, 3.0, 2.0][..], &[1.0, 5.0, 6.0, 2.5], &[4.0]] {
            assert_eq!(exact_dtw(&q, d), warptree::core::dtw::dtw(&q, d));
        }
    }

    #[test]
    fn self_test_fires_on_corruption() {
        let s = store();
        let q = [2.0, 3.0, 2.0];
        let truth = threshold_truth(&s, &q, 2.0);
        let knn = knn_reference(&s, &q, 3);
        assert!(truth.len() >= 2 && knn.len() == 3);
        self_test(&q, 2.0, &truth, &knn).unwrap();
    }

    #[test]
    fn ingested_matches_are_reverified() {
        let s = store();
        let q = [2.0, 3.0, 2.0];
        let truth = threshold_truth(&s, &q, 2.0);
        let extra = vec![vec![2.0, 3.0, 2.0, 9.0]];
        let ing = Ingested {
            base_seqs: 2,
            seqs: &extra,
        };
        let occ =
            warptree::core::sequence::Occurrence::new(warptree::core::sequence::SeqId(2), 0, 3);
        let mut got = truth.clone();
        got.push(Match { occ, dist: 0.0 });
        check_threshold(got.clone(), &truth, &q, 2.0, &ing).unwrap();
        got.last_mut().unwrap().dist = 0.5;
        assert!(check_threshold(got, &truth, &q, 2.0, &ing).is_err());
    }
}
