//! Bounded top-k selection kernel: a size-k heap over `(value, position)`
//! entries with a deterministic total order.
//!
//! Every compressed-domain TOP-K fast path feeds candidates into a
//! [`TopKHeap`]; the heap's comparison is a pure function of the candidate
//! multiset, so serial and morsel-parallel drivers produce bit-identical
//! results for any offer order. Ties on value resolve to the smaller
//! position — drivers encode `(block << 32) | row` so the tie-break is
//! "earlier block, then earlier row", exactly what a stable
//! decompress-then-sort oracle produces.

use std::collections::BinaryHeap;

/// Order-preserving map from `i64` to `u64`: `a < b ⇔ rank(a) < rank(b)`.
#[inline]
fn rank_asc(v: i64) -> u64 {
    (v as u64) ^ (1u64 << 63)
}

#[inline]
fn unrank_asc(r: u64) -> i64 {
    (r ^ (1u64 << 63)) as i64
}

/// The direction-adjusted rank of `value`: smaller rank = better candidate.
/// Descending top-k flips the order by complementing the ascending rank.
#[inline]
pub fn rank(value: i64, descending: bool) -> u64 {
    let r = rank_asc(value);
    if descending {
        !r
    } else {
        r
    }
}

#[inline]
fn unrank(r: u64, descending: bool) -> i64 {
    if descending {
        unrank_asc(!r)
    } else {
        unrank_asc(r)
    }
}

/// Rows [`TopKHeap::offer_chunk`] tests between two looks at the heap.
const STRIP: usize = 64;

/// A bounded heap keeping the best `k` `(value, position)` entries.
///
/// "Best" means smallest `(rank(value), position)` lexicographically, so
/// equal values prefer the smaller position. Internally a max-heap of the
/// kept entries: the root is the current k-th (worst kept) candidate, and
/// [`TopKHeap::worst_rank`] exposes its value rank as the pruning bound
/// shared across morsel-parallel workers.
#[derive(Debug)]
pub struct TopKHeap {
    k: usize,
    descending: bool,
    /// `(direction-adjusted value rank, position)`; max = worst kept entry.
    heap: BinaryHeap<(u64, u64)>,
}

impl TopKHeap {
    /// An empty heap keeping at most `k` entries, ordered ascending by
    /// value (`descending = false`) or descending (`descending = true`).
    pub fn new(k: usize, descending: bool) -> Self {
        Self {
            k,
            descending,
            // Never reserve `k` eagerly: ORDER BY drivers pass k = usize::MAX.
            heap: BinaryHeap::new(),
        }
    }

    /// The bound `k`.
    pub fn k(&self) -> usize {
        self.k
    }

    /// Whether larger values are better.
    pub fn descending(&self) -> bool {
        self.descending
    }

    /// Number of entries currently kept.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Whether no entries are kept.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Whether the heap holds `k` entries (no candidate enters for free).
    pub fn is_full(&self) -> bool {
        self.heap.len() >= self.k
    }

    /// The current k-th (worst kept) entry as `(value rank, position)`,
    /// present only when the heap is full. A candidate enters exactly when
    /// its own `(rank, position)` is lexicographically smaller, and the
    /// entry only ever moves towards smaller pairs — so a candidate that
    /// loses to any past k-th entry can never be in the final result.
    pub fn worst(&self) -> Option<(u64, u64)> {
        if self.k > 0 && self.heap.len() >= self.k {
            self.heap.peek().copied()
        } else {
            None
        }
    }

    /// The value rank of [`worst`](Self::worst). A candidate with a
    /// strictly larger value rank provably cannot enter, regardless of
    /// position tie-breaks.
    pub fn worst_rank(&self) -> Option<u64> {
        self.worst().map(|(r, _)| r)
    }

    /// The current k-th (worst kept) value, when the heap is full.
    pub fn threshold(&self) -> Option<i64> {
        self.worst_rank().map(|r| unrank(r, self.descending))
    }

    /// Whether `value` could still enter the heap. Conservative on ties:
    /// a value equal to the threshold is accepted (its position may win).
    #[inline]
    pub fn would_accept(&self, value: i64) -> bool {
        if self.k == 0 {
            return false;
        }
        match self.worst_rank() {
            Some(worst) => rank(value, self.descending) <= worst,
            None => true,
        }
    }

    /// Offers one candidate. Positions must be unique across all offers.
    #[inline]
    pub fn offer(&mut self, value: i64, pos: u64) {
        if self.k == 0 {
            return;
        }
        let r = rank(value, self.descending);
        if self.heap.len() < self.k {
            self.heap.push((r, pos));
        } else if let Some(mut top) = self.heap.peek_mut() {
            if (r, pos) < *top {
                *top = (r, pos);
            }
        }
    }

    /// Offers `values[j]` at position `base + j` for every `j` — the same
    /// heap as one [`offer`](Self::offer) per row, threshold first: once
    /// the heap is full the k-th rank is hoisted out of the loop, a strip
    /// of rows is counted against it without a branch, and only a strip
    /// that holds a hit is walked row by row, each entry refreshing the
    /// threshold. The test is conservative (a row equal to the k-th value
    /// may still lose on position), so `offer` stays the one place that
    /// decides.
    pub fn offer_chunk(&mut self, base: u64, values: &[i64]) {
        if self.k == 0 {
            return;
        }
        // `rank` with its direction branch hoisted: one xor per row.
        let flip = rank(0, self.descending);
        // Every row enters for free until the heap holds k.
        let free = (self.k - self.heap.len()).min(values.len());
        for (j, &v) in values[..free].iter().enumerate() {
            self.heap.push(((v as u64) ^ flip, base + j as u64));
        }
        let Some(mut worst) = self.worst_rank() else {
            return;
        };
        let hit = |v: i64, worst: u64| ((v as u64) ^ flip) <= worst;
        let mut start = free;
        for strip in values[free..].chunks(STRIP) {
            let hits: u32 = strip.iter().map(|&v| u32::from(hit(v, worst))).sum();
            if hits != 0 {
                for (j, &v) in strip.iter().enumerate() {
                    if hit(v, worst) {
                        self.offer(v, base + (start + j) as u64);
                        worst = self.worst_rank().unwrap_or(worst);
                    }
                }
            }
            start += strip.len();
        }
    }

    /// Consumes the heap, returning the kept entries best-first as
    /// `(value, position)` pairs.
    pub fn into_sorted(self) -> Vec<(i64, u64)> {
        let descending = self.descending;
        self.heap
            .into_sorted_vec()
            .into_iter()
            .map(|(r, p)| (unrank(r, descending), p))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn offered(k: usize, descending: bool, values: &[i64]) -> Vec<(i64, u64)> {
        let mut heap = TopKHeap::new(k, descending);
        for (i, &v) in values.iter().enumerate() {
            heap.offer(v, i as u64);
        }
        heap.into_sorted()
    }

    fn oracle(k: usize, descending: bool, values: &[i64]) -> Vec<(i64, u64)> {
        let mut rows: Vec<(i64, u64)> = values
            .iter()
            .enumerate()
            .map(|(i, &v)| (v, i as u64))
            .collect();
        rows.sort_by_key(|&(v, p)| (rank(v, descending), p));
        rows.truncate(k);
        rows
    }

    #[test]
    fn matches_stable_sort_oracle() {
        let values = [5i64, -3, 5, 0, 9, -3, 5, i64::MIN, i64::MAX, 0];
        for k in [0usize, 1, 3, values.len(), values.len() + 5] {
            for descending in [false, true] {
                assert_eq!(
                    offered(k, descending, &values),
                    oracle(k, descending, &values),
                    "k={k} descending={descending}"
                );
            }
        }
    }

    #[test]
    fn ties_prefer_smaller_position() {
        let got = offered(2, false, &[7, 7, 7]);
        assert_eq!(got, vec![(7, 0), (7, 1)]);
        let got = offered(2, true, &[7, 7, 7]);
        assert_eq!(got, vec![(7, 0), (7, 1)]);
    }

    #[test]
    fn offer_order_is_irrelevant() {
        let values = [4i64, 1, 4, 4, 2, 8, 1];
        let forward = offered(3, true, &values);
        let mut heap = TopKHeap::new(3, true);
        for (i, &v) in values.iter().enumerate().rev() {
            heap.offer(v, i as u64);
        }
        assert_eq!(heap.into_sorted(), forward);
    }

    #[test]
    fn offer_chunk_equals_per_row_offer_from_any_prefilled_heap() {
        // Duplicate-heavy with both extremes, so ties against the k-th
        // value and the position tie-break are exercised in every strip.
        let column = |len: usize| -> Vec<i64> {
            (0..len as i64)
                .map(|i| match i % 11 {
                    0 => i64::MIN,
                    1 => i64::MAX,
                    r => (i * 7919) % 23 - r,
                })
                .collect()
        };
        let prefill = [3i64, -4, 3, 9, i64::MAX, 0, 3];
        for len in [0usize, 1, 63, 64, 65, 129] {
            let values = column(len);
            for k in [0usize, 1, 3, len, len + 7] {
                for descending in [false, true] {
                    for filled in [0, 2, prefill.len()] {
                        for base in [0u64, 5 << 32] {
                            let mut want = TopKHeap::new(k, descending);
                            let mut got = TopKHeap::new(k, descending);
                            // Pre-filled from a later block, so equal values
                            // in the chunk win some ties and lose others.
                            for (i, &v) in prefill[..filled].iter().enumerate() {
                                want.offer(v, (2 << 32) + i as u64);
                                got.offer(v, (2 << 32) + i as u64);
                            }
                            for (j, &v) in values.iter().enumerate() {
                                want.offer(v, base + j as u64);
                            }
                            got.offer_chunk(base, &values);
                            assert_eq!(
                                got.into_sorted(),
                                want.into_sorted(),
                                "len={len} k={k} descending={descending} filled={filled} base={base}"
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn threshold_and_acceptance() {
        let mut heap = TopKHeap::new(2, false);
        assert!(heap.would_accept(i64::MAX));
        assert_eq!(heap.threshold(), None);
        heap.offer(10, 0);
        heap.offer(20, 1);
        assert_eq!(heap.threshold(), Some(20));
        assert_eq!(heap.worst(), Some((rank(20, false), 1)));
        assert!(heap.would_accept(20), "ties may still enter by position");
        assert!(!heap.would_accept(21));
        heap.offer(5, 2);
        assert_eq!(heap.threshold(), Some(10));
    }

    #[test]
    fn zero_k_accepts_nothing() {
        let mut heap = TopKHeap::new(0, false);
        assert!(!heap.would_accept(i64::MIN));
        heap.offer(1, 0);
        assert!(heap.is_empty());
        assert!(heap.is_full());
        assert_eq!(heap.worst_rank(), None);
        assert!(heap.into_sorted().is_empty());
    }

    #[test]
    fn rank_is_monotone_at_extremes() {
        let vals = [i64::MIN, -1, 0, 1, i64::MAX];
        for w in vals.windows(2) {
            assert!(rank(w[0], false) < rank(w[1], false));
            assert!(rank(w[0], true) > rank(w[1], true));
        }
    }
}
