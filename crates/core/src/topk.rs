//! Top-λ tracking.
//!
//! Section 4.1: "For each document d2 in C2, keep track of only those
//! documents in C1 which have been processed against d2 and have the λ
//! largest similarities with d2." A bounded min-heap does this in
//! `O(log λ)` per candidate. Ties break toward the smaller inner document
//! number so that every algorithm — whatever order it generates candidates
//! in — produces the same λ winners.

use crate::result::Match;
use std::cmp::Ordering;
use std::collections::BinaryHeap;
use textjoin_common::{DocId, Score};

/// A candidate ordered by `(score, inner document id)`: higher score wins,
/// smaller document id wins ties.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct Candidate {
    score: Score,
    doc: DocId,
}

impl Ord for Candidate {
    fn cmp(&self, other: &Self) -> Ordering {
        self.score
            .cmp(&other.score)
            .then_with(|| other.doc.cmp(&self.doc))
    }
}

impl PartialOrd for Candidate {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// A bounded collector of the λ best `(document, score)` pairs.
#[derive(Debug)]
pub struct TopK {
    k: usize,
    /// The worst kept score once the heap is full, −∞ before: a score
    /// strictly below it loses under `(score, doc)` whatever its document.
    floor: f64,
    /// Min-heap via `Reverse`: the root is the currently *worst* kept
    /// candidate.
    heap: BinaryHeap<std::cmp::Reverse<Candidate>>,
}

impl TopK {
    /// A collector keeping the best `k` candidates.
    pub fn new(k: usize) -> Self {
        Self {
            k,
            floor: f64::NEG_INFINITY,
            heap: BinaryHeap::with_capacity(k.saturating_add(1)),
        }
    }

    /// The capacity λ.
    pub fn k(&self) -> usize {
        self.k
    }

    /// Number of candidates currently kept.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Whether no candidate has been offered yet.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Bytes of state this collector may hold, for memory accounting:
    /// λ similarity values (4 bytes each, as the paper assumes) plus λ
    /// document numbers (4 bytes each). Saturates: a λ no budget holds is
    /// refused by the charge, not wrapped into a small one.
    pub fn budget_bytes(k: usize) -> u64 {
        (k as u64).saturating_mul(8)
    }

    /// Offers a candidate; keeps it only if it beats the current worst (or
    /// the collector is not yet full). Returns whether it was kept. A score
    /// below the floor is turned away with one compare; a tie with it, and
    /// `±0.0`, take the full `(score, doc)` compare.
    pub fn offer(&mut self, doc: DocId, score: Score) -> bool {
        if score.value() < self.floor || self.k == 0 {
            return false;
        }
        let cand = Candidate { score, doc };
        if self.heap.len() < self.k {
            self.heap.push(std::cmp::Reverse(cand));
        } else {
            let mut worst = self.heap.peek_mut().expect("heap is full");
            if cand <= worst.0 {
                return false;
            }
            *worst = std::cmp::Reverse(cand);
        }
        if self.heap.len() == self.k {
            self.floor = self.heap.peek().expect("heap is full").0.score.value();
        }
        true
    }

    /// The current worst kept score (`None` while not full): candidates at
    /// or below this cannot enter.
    pub fn threshold(&self) -> Option<Score> {
        if self.heap.len() < self.k {
            None
        } else {
            self.heap.peek().map(|c| c.0.score)
        }
    }

    /// Finishes the collection: matches sorted best-first (score
    /// descending, then inner document id ascending).
    pub fn into_matches(self) -> Vec<Match> {
        let mut v: Vec<Candidate> = self.heap.into_iter().map(|r| r.0).collect();
        v.sort_by(|a, b| b.cmp(a));
        v.into_iter()
            .map(|c| Match {
                inner: c.doc,
                score: c.score,
            })
            .collect()
    }
}

/// Merges top-λ lists for one outer document, each over its own inner
/// documents, into the global top-λ, re-applying the same `(score, inner
/// document id)` ordering as [`TopK::offer`]. Exact whenever every inner
/// document appears in at most one list, because each list's λ best
/// already contain every candidate that could enter the global λ, ties
/// included.
pub fn merge_lists<'a>(lists: impl IntoIterator<Item = &'a [Match]>, k: usize) -> Vec<Match> {
    let mut topk = TopK::new(k);
    for list in lists {
        for m in list {
            topk.offer(m.inner, m.score);
        }
    }
    topk.into_matches()
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn offer_all(topk: &mut TopK, items: &[(u32, f64)]) {
        for &(d, s) in items {
            topk.offer(DocId::new(d), Score::new(s));
        }
    }

    #[test]
    fn keeps_the_best_k() {
        let mut t = TopK::new(2);
        offer_all(&mut t, &[(1, 5.0), (2, 9.0), (3, 1.0), (4, 7.0)]);
        let m = t.into_matches();
        assert_eq!(m.len(), 2);
        assert_eq!(m[0].inner, DocId::new(2));
        assert_eq!(m[1].inner, DocId::new(4));
    }

    #[test]
    fn under_full_keeps_everything_sorted() {
        let mut t = TopK::new(10);
        offer_all(&mut t, &[(5, 1.0), (1, 3.0)]);
        let m = t.into_matches();
        assert_eq!(m.len(), 2);
        assert_eq!(m[0].inner, DocId::new(1));
    }

    #[test]
    fn ties_prefer_smaller_doc_id() {
        let mut t = TopK::new(2);
        offer_all(&mut t, &[(9, 4.0), (3, 4.0), (7, 4.0)]);
        let m = t.into_matches();
        assert_eq!(
            m.iter().map(|m| m.inner.raw()).collect::<Vec<_>>(),
            vec![3, 7],
            "smallest ids win the tie at score 4"
        );
    }

    #[test]
    fn tie_handling_is_order_independent() {
        let items = [(9u32, 4.0), (3, 4.0), (7, 4.0), (1, 2.0), (2, 8.0)];
        let mut forward = TopK::new(3);
        offer_all(&mut forward, &items);
        let mut reversed = TopK::new(3);
        let mut rev = items;
        rev.reverse();
        offer_all(&mut reversed, &rev);
        assert_eq!(forward.into_matches(), reversed.into_matches());
    }

    #[test]
    fn threshold_reports_entry_bar() {
        let mut t = TopK::new(2);
        assert_eq!(t.threshold(), None);
        offer_all(&mut t, &[(1, 5.0), (2, 3.0)]);
        assert_eq!(t.threshold(), Some(Score::new(3.0)));
        assert!(
            !t.offer(DocId::new(3), Score::new(3.0)),
            "tie with larger id loses"
        );
        assert!(
            t.offer(DocId::new(0), Score::new(3.0)),
            "tie with smaller id wins"
        );
    }

    #[test]
    fn zero_capacity_keeps_nothing() {
        let mut t = TopK::new(0);
        assert!(!t.offer(DocId::new(1), Score::new(9.0)));
        assert!(t.into_matches().is_empty());
    }

    #[test]
    fn budget_is_eight_bytes_per_slot() {
        assert_eq!(TopK::budget_bytes(20), 160);
    }

    #[test]
    fn merge_lists_respects_boundary_ties() {
        // Two shards whose λ-th entries tie at score 4: the global merge
        // must keep the smaller inner ids, exactly like a single TopK fed
        // every candidate.
        let mut a = TopK::new(2);
        offer_all(&mut a, &[(9, 4.0), (3, 4.0)]);
        let mut b = TopK::new(2);
        offer_all(&mut b, &[(7, 4.0), (1, 2.0)]);
        let (la, lb) = (a.into_matches(), b.into_matches());
        let merged = merge_lists([la.as_slice(), lb.as_slice()], 2);
        assert_eq!(
            merged.iter().map(|m| m.inner.raw()).collect::<Vec<_>>(),
            vec![3, 7],
            "smallest ids win the boundary tie at score 4"
        );
    }

    #[test]
    fn merge_lists_of_empty_shards_is_empty() {
        assert!(merge_lists([[].as_slice(), [].as_slice()], 5).is_empty());
    }

    proptest! {
        /// Satellite: shard-merge tie-break. Partition random candidates
        /// into shards, keep each shard's top-λ, merge — the result equals
        /// the single-node top-λ over all candidates, equal-score boundary
        /// ties included (same doc-id tie-break as `TopK`).
        #[test]
        fn prop_shard_merge_equals_single_node(
            items in proptest::collection::vec((0u32..400, 0u64..8), 0..150),
            k in 0usize..12,
            shards in 1usize..5,
        ) {
            // Each inner doc must live on exactly one shard — the sharded
            // executors' partitioning invariant.
            let mut seen = std::collections::HashSet::new();
            let items: Vec<(u32, u64)> =
                items.into_iter().filter(|(d, _)| seen.insert(*d)).collect();

            let mut single = TopK::new(k);
            let mut per_shard: Vec<TopK> = (0..shards).map(|_| TopK::new(k)).collect();
            for &(d, s) in &items {
                single.offer(DocId::new(d), Score::from(s));
                per_shard[d as usize % shards].offer(DocId::new(d), Score::from(s));
            }
            let lists: Vec<Vec<Match>> =
                per_shard.into_iter().map(TopK::into_matches).collect();
            let merged = merge_lists(lists.iter().map(Vec::as_slice), k);
            prop_assert_eq!(merged, single.into_matches());
        }

        /// The floor turns away only what the full compare would: over
        /// offers with ties, `±0.0` and `±∞`, in any order, the kept are a
        /// full sort by `(score desc, doc asc)` cut to `k`, to the bit.
        #[test]
        fn prop_the_floor_keeps_what_a_full_sort_keeps(
            items in proptest::collection::vec((0u32..60, 0usize..8), 0..120),
            k in 0usize..12,
        ) {
            const SCORES: [f64; 8] =
                [f64::NEG_INFINITY, -1.0, -0.0, 0.0, 0.5, 1.0, 2.0, f64::INFINITY];
            let mut seen = std::collections::HashSet::new();
            let items: Vec<(DocId, Score)> = (items.into_iter())
                .filter(|(d, _)| seen.insert(*d))
                .map(|(d, s)| (DocId::new(d), Score::new(SCORES[s])))
                .collect();
            let mut t = TopK::new(k);
            for &(d, s) in &items {
                t.offer(d, s);
            }
            let bits = |m: Vec<Match>| -> Vec<(DocId, u64)> {
                m.iter().map(|m| (m.inner, m.score.value().to_bits())).collect()
            };
            let mut oracle: Vec<Match> =
                items.iter().map(|&(inner, score)| Match { inner, score }).collect();
            oracle.sort_by(|a, b| b.score.cmp(&a.score).then_with(|| a.inner.cmp(&b.inner)));
            oracle.truncate(k);
            prop_assert_eq!(bits(t.into_matches()), bits(oracle));
        }

        #[test]
        fn prop_matches_full_sort(
            items in proptest::collection::vec((0u32..500, 0u64..100), 0..200),
            k in 0usize..20,
        ) {
            // Deduplicate doc ids: a real scorer offers each inner document
            // at most once per outer document.
            let mut seen = std::collections::HashSet::new();
            let items: Vec<(u32, u64)> =
                items.into_iter().filter(|(d, _)| seen.insert(*d)).collect();

            let mut t = TopK::new(k);
            for &(d, s) in &items {
                t.offer(DocId::new(d), Score::from(s));
            }
            let got = t.into_matches();

            let mut oracle: Vec<Match> = items
                .iter()
                .map(|&(d, s)| Match { inner: DocId::new(d), score: Score::from(s) })
                .collect();
            oracle.sort_by(|a, b| {
                b.score.cmp(&a.score).then_with(|| a.inner.cmp(&b.inner))
            });
            oracle.truncate(k);
            prop_assert_eq!(got, oracle);
        }
    }
}
