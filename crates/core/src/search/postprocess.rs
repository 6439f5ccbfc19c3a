//! Post-processing: exact verification of filter candidates (paper §5.4).
//!
//! The categorized filters return candidates whose *lower-bound* distance
//! is within ε; some are false alarms. `PostProcess` retrieves each
//! candidate subsequence from the original (numeric) store, computes its
//! exact time-warping distance, and keeps the true answers.
//!
//! Candidates cluster heavily by start offset (one tree path yields one
//! candidate per qualifying depth), so verification shares a single
//! cumulative distance table per distinct `(seq, start)`: the table's
//! row `r` gives the exact distance of the length-`r` candidate, and
//! Theorem-1 early abandoning rejects all longer candidates at once. This
//! is what keeps the post-processing term `n·L̄·|Q|` of §5.5 from
//! swamping the filtering savings at large ε.

use crate::dtw::WarpTable;
use crate::parallel::parallel_map_with;
use crate::search::answers::{AnswerSet, Candidate, Match, SearchParams};
use crate::search::cascade::QueryEnvelope;
use crate::search::metrics::SearchMetrics;
use crate::sequence::{Occurrence, SeqId, SequenceStore, Value};

/// Candidate lengths grouped by `(seq, start)`, in ascending key order
/// with each length list sorted and deduplicated — the deterministic
/// unit of verification work (sequential and parallel paths both walk
/// groups in this order, which is what keeps their outputs identical).
///
/// Stored flat: one key per group and every group's lengths back to
/// back in one buffer.
#[derive(Debug, Default)]
pub(crate) struct CandidateGroups {
    keys: Vec<(SeqId, u32)>,
    /// Group `g`'s lengths are `lens[ends[g - 1]..ends[g]]` (from 0 for
    /// the first group).
    ends: Vec<usize>,
    lens: Vec<u32>,
}

impl CandidateGroups {
    /// Number of groups.
    pub(crate) fn len(&self) -> usize {
        self.keys.len()
    }

    /// Group `g`: its `(seq, start)` key and its lengths.
    pub(crate) fn get(&self, g: usize) -> ((SeqId, u32), &[u32]) {
        let from = if g == 0 { 0 } else { self.ends[g - 1] };
        (self.keys[g], &self.lens[from..self.ends[g]])
    }

    /// Every group, in key order.
    pub(crate) fn iter(&self) -> impl Iterator<Item = ((SeqId, u32), &[u32])> {
        (0..self.len()).map(|g| self.get(g))
    }
}

/// Groups `candidates` by `(seq, start)` with a counting sort over
/// their flat corpus positions (sequence `s` starts right after
/// sequences `0..s`): one count per position in the candidates' span,
/// one shared length buffer, then each bucket sorted and deduplicated
/// in place.
pub(crate) fn group_candidates(
    store: &SequenceStore,
    candidates: &[Candidate],
    epsilon: f64,
) -> CandidateGroups {
    let mut groups = CandidateGroups::default();
    // `first[s]`: flat position of sequence `s`'s first element.
    let mut first = Vec::with_capacity(store.len() + 1);
    let mut total = 0u64;
    for (_, seq) in store.iter() {
        first.push(total);
        total += seq.len() as u64;
    }
    first.push(total);
    let pos = |c: &Candidate| first[c.occ.seq.0 as usize] + c.occ.start as u64;
    let Some(lo) = candidates.iter().map(pos).min() else {
        return groups;
    };
    let hi = candidates.iter().map(pos).max().expect("non-empty");
    // Bucket `b` holds position `lo + b`. Counts land one slot up, so
    // after the prefix sum `next[b]` is where bucket `b` starts — and,
    // once the scatter has advanced it, where it ends.
    let mut next = vec![0usize; (hi - lo) as usize + 2];
    for cand in candidates {
        // Exact, no float slack: `lower_bound` is the *same* accumulated
        // value the filter compared against ε at emission (`stat.dist`
        // for stored suffixes, the shifted `lb2` for sparse ones — see
        // `filter::walk_edge`), not a recomputation, so any candidate
        // above ε here is a genuine filter bug, not rounding noise.
        debug_assert!(
            cand.lower_bound <= epsilon,
            "filter emitted a candidate above epsilon"
        );
        next[(pos(cand) - lo) as usize + 1] += 1;
    }
    for b in 1..next.len() {
        next[b] += next[b - 1];
    }
    let mut lens = vec![0u32; candidates.len()];
    for cand in candidates {
        let slot = &mut next[(pos(cand) - lo) as usize];
        lens[*slot] = cand.occ.len;
        *slot += 1;
    }
    // Walk the buckets in position order — ascending `(seq, start)` —
    // compacting each sorted, deduplicated bucket towards the front.
    let (mut seq, mut from, mut kept) = (0usize, 0usize, 0usize);
    for (b, &to) in next[..next.len() - 1].iter().enumerate() {
        if to == from {
            continue;
        }
        let p = lo + b as u64;
        while first[seq + 1] <= p {
            seq += 1;
        }
        lens[from..to].sort_unstable();
        let mut prev = None;
        for i in from..to {
            let len = lens[i];
            if prev != Some(len) {
                lens[kept] = len;
                kept += 1;
                prev = Some(len);
            }
        }
        groups
            .keys
            .push((SeqId(seq as u32), (p - first[seq]) as u32));
        groups.ends.push(kept);
        from = to;
    }
    lens.truncate(kept);
    groups.lens = lens;
    groups
}

/// Reusable per-worker buffers for [`verify_group`]'s cascade tiers —
/// owned by the worker alongside its [`WarpTable`], so screening a
/// group costs zero allocations however many groups a query produces.
#[derive(Debug, Default)]
pub(crate) struct VerifyScratch {
    /// Clamped candidate values `h_j` (tier 2's first pass).
    h: Vec<f64>,
    /// Per-tier-1-survivor `(envelope prefix sum, min h, max h)` over
    /// the survivor's length — index-aligned with `survivors`.
    lb1: Vec<(f64, f64, f64)>,
    /// Candidate lengths still alive after the lower-bound tiers.
    survivors: Vec<u32>,
    /// Per-query-column completion remainders for tier 3's
    /// threshold-pruned rows (reversed LB_Keogh over the candidate's
    /// value range).
    rem: Vec<f64>,
}

/// Verifies one `(seq, start)` group against the exact distance, pushing
/// matches with `D_tw ≤ limit` onto `out` in ascending length order.
///
/// With `cascade` attached, the group first runs the O(L) lower-bound
/// tiers of [`crate::search::cascade`]: one endpoint-strengthened
/// envelope prefix-sum pass kills every length whose tier-1 bound
/// exceeds `limit` (the accumulator `Σd + extra1` is monotone, so once
/// it overflows every longer length dies at once, and a group whose
/// *shortest* length dies skips the table entirely), then the
/// endpoint-strengthened LB_Improved re-screens the survivors. Kills
/// are provably above `limit` (`lb ≤ D_tw`), so they are counted as
/// false alarms exactly like an exact-distance rejection would be, and
/// the surviving lengths go through the *identical* shared-table
/// recurrence — answers are byte-identical with the cascade on or off.
///
/// One shared table serves every surviving length of the group (row `r`
/// is the exact distance of the length-`r` candidate) and Theorem-1
/// early abandoning rejects all remaining longer lengths at once.
/// `limit` is ε for threshold search; the k-NN heap passes a tighter
/// bound once k answers are known (see [`crate::search::knn`]).
#[allow(clippy::too_many_arguments)]
pub(crate) fn verify_group(
    store: &SequenceStore,
    table: &mut WarpTable,
    scratch: &mut VerifyScratch,
    (seq, start): (SeqId, u32),
    lens: &[u32],
    limit: f64,
    cascade: Option<&QueryEnvelope>,
    metrics: &SearchMetrics,
    out: &mut Vec<Match>,
) {
    metrics.postprocessed.add(lens.len() as u64);
    let values = store.get(seq).suffix(start);
    let max_len = *lens.last().expect("non-empty group") as usize;
    debug_assert!(max_len <= values.len(), "candidate outruns sequence");
    let VerifyScratch {
        h,
        lb1,
        survivors,
        rem,
    } = scratch;
    let lens: &[u32] = if let Some(env) = cascade {
        h.clear();
        lb1.clear();
        survivors.clear();
        // Tier 1: one envelope prefix-sum walk bounds every length,
        // with the corner cells fused in (see the cascade module docs):
        // row 1 claims the exact `|c_1 − q_1|` via `extra1`, and each
        // candidate length claims `max(d_l, |c_l − q_n|)` for its final
        // row at emission time.
        let last_q = env.last_q();
        let mut env_sum = 0.0;
        let mut extra1 = 0.0;
        let (mut hlo, mut hhi) = (f64::INFINITY, f64::NEG_INFINITY);
        let mut next = 0usize;
        for (row, &v) in values[..max_len].iter().enumerate() {
            let Some((d, hv)) = env.row_step(row as u32 + 1, v) else {
                // Empty band: no warping path reaches this row or any
                // longer one — every remaining length is dead.
                break;
            };
            if row == 0 {
                // Row 1's band always admits column 1, and every path
                // starts at (1,1): the envelope term can be upgraded to
                // the exact first-cell distance for *all* lengths.
                extra1 = (v - env.first_q()).abs() - d;
            }
            hlo = hlo.min(hv);
            hhi = hhi.max(hv);
            let len = (row + 1) as u32;
            if next < lens.len() && lens[next] == len {
                if env_sum + extra1 + d.max((v - last_q).abs()) <= limit {
                    lb1.push((env_sum + d, hlo, hhi));
                    survivors.push(len);
                }
                next += 1;
            }
            env_sum += d;
            h.push(hv);
            if env_sum + extra1 > limit {
                // Monotone accumulator: every longer length dies too.
                break;
            }
        }
        let tier1_kills = (lens.len() - survivors.len()) as u64;
        if tier1_kills > 0 {
            metrics.cascade_lb_keogh_kills.add(tier1_kills);
            metrics.false_alarms.add(tier1_kills);
        }
        if survivors.is_empty() {
            return;
        }
        // Tier 2: the endpoint-strengthened second pass over each
        // tier-1 survivor, compacting the survivor list in place.
        let mut tier2_kills = 0u64;
        let mut keep = 0usize;
        for i in 0..survivors.len() {
            let len = survivors[i];
            let (lb, lo, hi) = lb1[i];
            if lb + env.improved_term_endpoints_prefixed(h, len as usize, lo, hi) > limit {
                tier2_kills += 1;
            } else {
                survivors[keep] = len;
                keep += 1;
            }
        }
        survivors.truncate(keep);
        if tier2_kills > 0 {
            metrics.cascade_lb_improved_kills.add(tier2_kills);
            metrics.false_alarms.add(tier2_kills);
        }
        if survivors.is_empty() {
            return;
        }
        // Tier-3 column remainders: completing a path from column x
        // must still pair every later query column with some candidate
        // row, each costing at least its distance to the candidate's
        // value range over the surviving extent.
        let tail = *survivors.last().expect("non-empty survivors") as usize;
        let (mut dmin, mut dmax) = (f64::INFINITY, f64::NEG_INFINITY);
        for &v in &values[..tail] {
            dmin = dmin.min(v);
            dmax = dmax.max(v);
        }
        env.column_remainders(dmin, dmax, rem);
        survivors
    } else {
        rem.clear();
        lens
    };
    // Tier 3: exact shared-table verification, built only to the
    // largest surviving length. With the cascade on, rows use the
    // threshold-pruned push — cells provably above `limit` are
    // skipped, while every value that decides a match or a Theorem-1
    // abandon is still computed exactly (see `push_value_bounded`).
    table.reset();
    let mut next = 0usize; // next candidate length to check
    let max_len = *lens.last().expect("non-empty group") as usize;
    for (row, &v) in values[..max_len].iter().enumerate() {
        let stat = if cascade.is_some() {
            table.push_value_pruned(v, limit, rem)
        } else {
            table.push_value(v)
        };
        let len = (row + 1) as u32;
        if next < lens.len() && lens[next] == len {
            if stat.dist <= limit {
                out.push(Match {
                    occ: Occurrence::new(seq, start, len),
                    dist: stat.dist,
                });
            } else {
                metrics.false_alarms.incr();
            }
            next += 1;
        }
        if stat.prunes(limit) {
            // Theorem 1: every remaining (longer) candidate of this
            // start is a false alarm.
            let rest = (lens.len() - next) as u64;
            metrics.false_alarms.add(rest);
            if cascade.is_some() && rest > 0 {
                metrics.cascade_abandon_kills.add(rest);
            }
            next = lens.len();
            break;
        }
    }
    debug_assert_eq!(next, lens.len(), "every candidate visited");
}

/// Verifies `candidates` against the exact time-warping distance,
/// returning the answers with `D_tw ≤ params.epsilon`.
///
/// Duplicate candidate occurrences are verified once. With
/// `params.threads > 1` the groups are verified across worker threads
/// (each with its own table and scratch counters); the answer set and
/// every counter are identical to the sequential path, because groups
/// are a deterministic partition and results join in group order.
pub fn postprocess(
    store: &SequenceStore,
    query: &[Value],
    candidates: &[Candidate],
    params: &SearchParams,
    metrics: &SearchMetrics,
) -> AnswerSet {
    let epsilon = params.epsilon;
    let groups = group_candidates(store, candidates, epsilon);
    let threads = params.threads.max(1) as usize;
    // The envelopes are read-only and band-matched to the tables, so
    // one per query is shared by every group on every worker.
    let env = params
        .cascade
        .then(|| QueryEnvelope::new(query, params.window));
    let env = env.as_ref();
    let mut answers = AnswerSet::new();
    if threads > 1 && groups.len() > 1 {
        let (per_group, states) = parallel_map_with(
            threads,
            (0..groups.len()).collect(),
            || {
                (
                    WarpTable::new(query, params.window),
                    VerifyScratch::default(),
                    metrics.scratch(),
                )
            },
            |(table, vs, scratch), _i, g| {
                let (key, lens) = groups.get(g);
                let mut out = Vec::new();
                verify_group(store, table, vs, key, lens, epsilon, env, scratch, &mut out);
                out
            },
        );
        for matches in per_group {
            for m in matches {
                answers.push(m);
            }
        }
        for (table, _, scratch) in states {
            metrics.postprocess_cells.add(table.cells_computed());
            metrics.record(&scratch.snapshot());
        }
    } else {
        let mut table = WarpTable::new(query, params.window);
        let mut vs = VerifyScratch::default();
        let mut out = Vec::new();
        for (key, lens) in groups.iter() {
            verify_group(
                store, &mut table, &mut vs, key, lens, epsilon, env, metrics, &mut out,
            );
        }
        for m in out {
            answers.push(m);
        }
        metrics.postprocess_cells.add(table.cells_computed());
    }
    metrics.answers.add(answers.len() as u64);
    answers
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cand(seq: u32, start: u32, len: u32, lb: f64) -> Candidate {
        Candidate {
            occ: Occurrence::new(SeqId(seq), start, len),
            lower_bound: lb,
        }
    }

    #[test]
    fn keeps_true_answers_drops_false_alarms() {
        let store = SequenceStore::from_values(vec![vec![1.0, 2.0, 9.0, 2.0]]);
        let q = [1.0, 2.0];
        let params = SearchParams::with_epsilon(0.5);
        let m = SearchMetrics::new();
        // (0,0,2) = <1,2> exact 0; (0,2,2) = <9,2> exact >> eps.
        let cands = vec![cand(0, 0, 2, 0.0), cand(0, 2, 2, 0.3)];
        let ans = postprocess(&store, &q, &cands, &params, &m);
        assert_eq!(ans.len(), 1);
        assert_eq!(ans.matches()[0].occ, Occurrence::new(SeqId(0), 0, 2));
        assert_eq!(ans.matches()[0].dist, 0.0);
        assert_eq!(m.snapshot().false_alarms, 1);
        assert_eq!(m.snapshot().postprocessed, 2);
    }

    #[test]
    fn duplicates_verified_once() {
        let store = SequenceStore::from_values(vec![vec![1.0, 1.0]]);
        let q = [1.0];
        let params = SearchParams::with_epsilon(0.0);
        let m = SearchMetrics::new();
        let cands = vec![cand(0, 0, 1, 0.0), cand(0, 0, 1, 0.0)];
        let ans = postprocess(&store, &q, &cands, &params, &m);
        assert_eq!(ans.len(), 1);
        assert_eq!(m.snapshot().postprocessed, 1);
    }

    #[test]
    fn shared_table_matches_independent_verification() {
        // Several candidate lengths at one start: row r of the shared
        // table must equal the independent DTW of each prefix.
        let store = SequenceStore::from_values(vec![vec![2.0, 3.0, 2.5, 9.0, 2.0, 2.2]]);
        let q = [2.0, 3.0, 2.0];
        let eps = 3.0;
        let params = SearchParams::with_epsilon(eps);
        let m = SearchMetrics::new();
        let cands: Vec<Candidate> = (1..=6).map(|l| cand(0, 0, l, 0.0)).collect();
        let ans = postprocess(&store, &q, &cands, &params, &m);
        for l in 1..=6u32 {
            let sub = store.get(SeqId(0)).subseq(0, l);
            let exact = crate::dtw::dtw(&q, sub);
            let found = ans
                .matches()
                .iter()
                .find(|m| m.occ.len == l)
                .map(|m| m.dist);
            if exact <= eps {
                assert_eq!(found, Some(exact), "length {l}");
            } else {
                assert_eq!(found, None, "length {l}");
            }
        }
        assert_eq!(
            m.snapshot().postprocessed,
            6,
            "all candidate lengths counted"
        );
    }

    #[test]
    fn early_abandon_rejects_tail_lengths() {
        // After a divergent element, row minima exceed ε: the longer
        // candidates must be rejected without computing their rows.
        let store = SequenceStore::from_values(vec![vec![1.0, 100.0, 100.0, 100.0, 100.0, 100.0]]);
        let q = [1.0];
        let params = SearchParams::with_epsilon(0.5);
        let m = SearchMetrics::new();
        let cands: Vec<Candidate> = (1..=6).map(|l| cand(0, 0, l, 0.0)).collect();
        let ans = postprocess(&store, &q, &cands, &params, &m);
        assert_eq!(ans.len(), 1); // only length 1 survives
        assert_eq!(m.snapshot().false_alarms, 5);
        // Early abandoning computed far fewer cells than 1+2+..+6 rows.
        assert!(m.snapshot().postprocess_cells <= 3);
    }

    #[test]
    fn deterministic_group_order() {
        // Matches come back sorted by (seq, start) then length — not in
        // candidate order.
        let store = SequenceStore::from_values(vec![vec![1.0; 8], vec![1.0; 8]]);
        let q = [1.0, 1.0];
        let params = SearchParams::with_epsilon(0.5);
        let m = SearchMetrics::new();
        let mut cands = Vec::new();
        for seq in [1u32, 0] {
            for start in [5u32, 0, 3] {
                for len in [2u32, 1] {
                    cands.push(cand(seq, start, len, 0.0));
                }
            }
        }
        let ans = postprocess(&store, &q, &cands, &params, &m);
        let occs: Vec<Occurrence> = ans.matches().iter().map(|m| m.occ).collect();
        let mut sorted = occs.clone();
        sorted.sort();
        assert_eq!(occs, sorted, "answers must come back in occurrence order");
        assert_eq!(ans.len(), 12);
    }

    #[test]
    fn parallel_postprocess_matches_sequential() {
        let store = SequenceStore::from_values(vec![
            vec![2.0, 3.0, 2.5, 9.0, 2.0, 2.2, 3.1, 2.9],
            vec![1.0, 100.0, 2.0, 3.0, 2.0],
        ]);
        let q = [2.0, 3.0, 2.0];
        let mut cands = Vec::new();
        for seq in 0..2u32 {
            let n = store.get(SeqId(seq)).len() as u32;
            for start in 0..n {
                for len in 1..=(n - start) {
                    cands.push(cand(seq, start, len, 0.0));
                }
            }
        }
        for eps in [0.5, 3.0, 50.0] {
            let params = SearchParams::with_epsilon(eps);
            let m1 = SearchMetrics::new();
            let seq_ans = postprocess(&store, &q, &cands, &params, &m1);
            for threads in [2u32, 8] {
                let mp = SearchMetrics::new();
                let par_ans =
                    postprocess(&store, &q, &cands, &params.clone().parallel(threads), &mp);
                assert_eq!(
                    seq_ans.matches(),
                    par_ans.matches(),
                    "eps={eps} t={threads}"
                );
                assert_eq!(m1.snapshot(), mp.snapshot(), "eps={eps} t={threads}");
            }
        }
    }

    /// Reference grouping: a map of length lists, sorted by key, each
    /// list sorted and deduplicated.
    fn grouped_by_hashmap(candidates: &[Candidate]) -> Vec<((SeqId, u32), Vec<u32>)> {
        let mut by_start: std::collections::HashMap<(SeqId, u32), Vec<u32>> =
            std::collections::HashMap::new();
        for c in candidates {
            by_start
                .entry((c.occ.seq, c.occ.start))
                .or_default()
                .push(c.occ.len);
        }
        let mut groups: Vec<_> = by_start.into_iter().collect();
        groups.sort_unstable_by_key(|(key, _)| *key);
        for (_, lens) in &mut groups {
            lens.sort_unstable();
            lens.dedup();
        }
        groups
    }

    #[test]
    fn counting_sort_grouping_equals_hashmap_reference() {
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(0x6A09_E667);
        for trial in 0..200 {
            // Several sequences, some empty, so flat positions skip
            // over sequence boundaries.
            let n_seqs = rng.gen_range(1..6usize);
            let store = SequenceStore::from_values(
                (0..n_seqs)
                    .map(|_| vec![0.0; rng.gen_range(0..40usize)])
                    .collect::<Vec<_>>(),
            );
            let mut cands = Vec::new();
            if store.total_len() > 0 {
                for _ in 0..rng.gen_range(0..300usize) {
                    let seq = loop {
                        let s = rng.gen_range(0..n_seqs as u32);
                        if !store.get(SeqId(s)).is_empty() {
                            break s;
                        }
                    };
                    let n = store.get(SeqId(seq)).len() as u32;
                    let start = rng.gen_range(0..n);
                    let len = rng.gen_range(1..=n - start);
                    cands.push(cand(seq, start, len, 0.0));
                    if rng.gen_bool(0.3) {
                        // Exact duplicate.
                        cands.push(cand(seq, start, len, 0.0));
                    }
                }
            }
            let groups = group_candidates(&store, &cands, 0.0);
            let got: Vec<_> = groups.iter().map(|(k, l)| (k, l.to_vec())).collect();
            assert_eq!(got, grouped_by_hashmap(&cands), "trial {trial}");
        }
    }

    #[test]
    fn empty_candidates_empty_answers() {
        let store = SequenceStore::from_values(vec![vec![1.0]]);
        let params = SearchParams::with_epsilon(1.0);
        let m = SearchMetrics::new();
        let ans = postprocess(&store, &[1.0], &[], &params, &m);
        assert!(ans.is_empty());
        assert_eq!(m.snapshot().postprocessed, 0);
    }
}
