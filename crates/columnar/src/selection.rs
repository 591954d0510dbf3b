//! Selection vectors: which rows of one block an operator reads.
//!
//! A [`SelectionVector`] is a block-local bitmap — bit `j` of word `w` is
//! row `64 · w + j` — plus its cached popcount. A filter kernel writes
//! the words straight from its compare bitmaps, `AND` / `OR` / `NOT`
//! combine words, and `COUNT` reads the cached popcount. Row positions
//! are expanded only where they are used — by a selected-row kernel
//! (gather, filtered fold, filtered TOP-K) or a caller that needs them as
//! a list — through [`SelectionVector::positions`].
//!
//! The paper (§3, Experimental Setup): *"When measuring query latency, we
//! generate 10 uniform random selection vectors for each individual
//! selectivity (as done, e.g., in Lang et al.). In the experiment, we
//! decompress and materialize the values at the specified positions."*
//! [`sample_uniform`] draws one as a uniform fixed-size sample without
//! replacement, matching the "uniform random selection vector of
//! selectivity s" construction.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::simd::{emit_positions, EMIT_SLACK};

/// The selected rows of a block, as a bitmap.
///
/// The bitmap is `bit_len` bits long: a block's rows for a kernel's
/// output, `last + 1` for [`new`](Self::new) / [`from_sorted`](Self::from_sorted),
/// so it costs `bit_len / 8` bytes whatever the number of rows selected.
/// Two selections are equal when they select the same rows, whatever
/// their bitmap lengths.
#[derive(Clone, Default)]
pub struct SelectionVector {
    /// `bit_len.div_ceil(64)` words; bits at and past `bit_len` are zero.
    words: Vec<u64>,
    bit_len: usize,
    /// The number of set bits.
    count: usize,
}

impl SelectionVector {
    /// Creates a selection vector from positions in any order, duplicates
    /// allowed.
    pub fn new(positions: Vec<u32>) -> Self {
        let mut sel = Self::none(positions.iter().max().map_or(0, |&p| p as usize + 1));
        for &p in &positions {
            sel.or_word(p as usize / 64, 1 << (p % 64));
        }
        sel
    }

    /// Creates a selection covering every row in `0..rows`.
    pub fn all(rows: usize) -> Self {
        Self::from_words(vec![u64::MAX; rows.div_ceil(64)], rows)
    }

    /// Creates an empty selection (no rows): [`none(0)`](Self::none).
    pub fn empty() -> Self {
        Self::default()
    }

    /// Every row of `0..rows` when `every`, else none: the answer of a
    /// filter its predicate decides without reading a row.
    pub fn all_or_none(rows: usize, every: bool) -> Self {
        if every {
            Self::all(rows)
        } else {
            Self::none(rows)
        }
    }

    /// A selection of none of `rows` rows: the bitmap a filter kernel
    /// writes into ([`write_bits`](Self::write_bits),
    /// [`set_range`](Self::set_range)).
    ///
    /// The words come zeroed from the allocator, so the pages of a long
    /// bitmap are touched only where a bit is set.
    pub fn none(rows: usize) -> Self {
        Self {
            words: vec![0; rows.div_ceil(64)],
            bit_len: rows,
            count: 0,
        }
    }

    /// The selection whose bit `j` of word `w` selects row `64 · w + j`,
    /// over `rows` rows: bits at and past `rows` are dropped, and `words`
    /// is cut or zero-extended to `rows.div_ceil(64)` words.
    pub fn from_words(mut words: Vec<u64>, rows: usize) -> Self {
        words.resize(rows.div_ceil(64), 0);
        if rows % 64 != 0 {
            if let Some(last) = words.last_mut() {
                *last &= (1u64 << (rows % 64)) - 1;
            }
        }
        let count = popcount(&words);
        Self {
            words,
            bit_len: rows,
            count,
        }
    }

    /// Wraps positions that are already strictly increasing, skipping the
    /// duplicate handling of [`new`](Self::new).
    ///
    /// # Errors
    ///
    /// Returns an error if the positions are not strictly increasing.
    pub fn from_sorted(positions: Vec<u32>) -> crate::error::Result<Self> {
        if positions.windows(2).any(|w| w[0] >= w[1]) {
            return Err(crate::error::Error::invalid(
                "selection positions must be strictly increasing",
            ));
        }
        Ok(Self::new(positions))
    }

    /// Selects rows `start + j` for every bit `j < n` of `bits` (of its
    /// complement, when `negate`), keeping the rows already selected. The
    /// filter kernels' write: one call per compare bitmap.
    ///
    /// # Panics
    ///
    /// If `start + n` exceeds the bitmap length or `bits` holds fewer
    /// than `n` bits.
    pub fn write_bits(&mut self, start: usize, bits: &[u64], n: usize, negate: bool) {
        assert!(
            start + n <= self.bit_len && bits.len() * 64 >= n,
            "bitmap write out of bounds"
        );
        let (w0, shift) = (start / 64, start % 64);
        for (k, &b) in bits[..n.div_ceil(64)].iter().enumerate() {
            let mut b = if negate { !b } else { b };
            let rem = n - k * 64;
            if rem < 64 {
                b &= (1u64 << rem) - 1;
            }
            self.or_word(w0 + k, b << shift);
            // Bits shifted past this word belong to rows below
            // `start + n`, so the next word exists whenever any is set.
            if shift != 0 && b >> (64 - shift) != 0 {
                self.or_word(w0 + k + 1, b >> (64 - shift));
            }
        }
    }

    /// Selects every row in `start..end`, keeping the rows already
    /// selected.
    ///
    /// # Panics
    ///
    /// If `end` exceeds the bitmap length.
    pub fn set_range(&mut self, start: usize, end: usize) {
        assert!(end <= self.bit_len, "bitmap write out of bounds");
        let mut row = start;
        while row < end {
            let bit = row % 64;
            let n = (end - row).min(64 - bit);
            self.or_word(row / 64, (u64::MAX >> (64 - n)) << bit);
            row += n;
        }
    }

    #[inline]
    fn or_word(&mut self, w: usize, bits: u64) {
        let old = self.words[w];
        self.count += (bits & !old).count_ones() as usize;
        self.words[w] = old | bits;
    }

    /// The rows both selections select (word `AND`).
    pub fn intersect(&self, other: &SelectionVector) -> SelectionVector {
        let words = self
            .words
            .iter()
            .zip(&other.words)
            .map(|(a, b)| a & b)
            .collect();
        Self::from_words(words, self.bit_len.min(other.bit_len))
    }

    /// The rows either selection selects (word `OR`).
    pub fn union(&self, other: &SelectionVector) -> SelectionVector {
        let (long, short) = if self.words.len() >= other.words.len() {
            (self, other)
        } else {
            (other, self)
        };
        let mut words = long.words.clone();
        for (w, &s) in words.iter_mut().zip(&short.words) {
            *w |= s;
        }
        Self::from_words(words, long.bit_len.max(short.bit_len))
    }

    /// The complement of this selection within `0..rows`: every row of the
    /// block that is *not* selected (the selection-vector form of `NOT`).
    ///
    /// Positions `>= rows` are ignored; validate the selection first if
    /// out-of-range positions should be an error.
    pub fn complement(&self, rows: usize) -> SelectionVector {
        let words = (0..rows.div_ceil(64))
            .map(|w| !self.words.get(w).copied().unwrap_or(0))
            .collect();
        Self::from_words(words, rows)
    }

    /// The selected positions, ascending and distinct: the one expansion
    /// of the bitmap into rows, for the selected-row kernels and callers
    /// that need them as a list.
    ///
    /// An all-zero stride of 1 024 words (64 K rows) is stepped over with
    /// one slice compare (a `memcmp`), so a bitmap built from far-apart
    /// positions (`new(vec![0, u32::MAX])`: 2^26 words) expands in the
    /// time it takes to read its pages, not one emit step per word.
    pub fn positions(&self) -> Vec<u32> {
        let mut out = vec![0; self.count + EMIT_SLACK];
        let mut n = 0;
        for (s, stride) in self.words.chunks(ZERO_WORDS.len()).enumerate() {
            if stride != &ZERO_WORDS[..stride.len()] {
                let first_row = (s * ZERO_WORDS.len() * 64) as u32;
                n += emit_positions(stride, first_row, &mut out[n..]);
            }
        }
        out.truncate(n);
        out
    }

    /// Whether row `row` is selected.
    #[inline]
    pub fn contains(&self, row: usize) -> bool {
        self.words
            .get(row / 64)
            .is_some_and(|w| w >> (row % 64) & 1 == 1)
    }

    /// The bitmap's length in rows.
    #[inline]
    pub fn bit_len(&self) -> usize {
        self.bit_len
    }

    /// Number of selected rows (the cached popcount).
    #[inline]
    pub fn len(&self) -> usize {
        self.count
    }

    /// Whether nothing is selected.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// The realized selectivity w.r.t. a block of `rows` rows.
    ///
    /// Defined as `0.0` for `rows == 0` (the only selection valid against an
    /// empty block is the empty selection, which selects no rows) — there is
    /// no division by zero.
    pub fn selectivity(&self, rows: usize) -> f64 {
        if rows == 0 {
            0.0
        } else {
            self.count as f64 / rows as f64
        }
    }

    /// Checks every selected position is `< rows`.
    ///
    /// For `rows == 0` only the empty selection validates: any stored
    /// position would address a nonexistent row, so a non-empty selection is
    /// rejected rather than vacuously accepted.
    pub fn validate(&self, rows: usize) -> bool {
        self.bit_len <= rows || self.last().is_none_or(|p| (p as usize) < rows)
    }

    /// The highest selected position.
    fn last(&self) -> Option<u32> {
        let w = self.words.iter().rposition(|&w| w != 0)?;
        Some((w * 64 + 63 - self.words[w].leading_zeros() as usize) as u32)
    }
}

/// Whether `rows` is strictly ascending and every row is below `len`:
/// what [`SelectionVector::positions`] returns for a selection that
/// validates against `len`, and what a gather over a row list requires.
pub fn rows_fit(rows: &[u32], len: usize) -> bool {
    rows.windows(2).all(|w| w[0] < w[1]) && rows.last().is_none_or(|&p| (p as usize) < len)
}

/// The stride [`SelectionVector::positions`] compares against before it
/// expands: 64 K rows.
static ZERO_WORDS: [u64; 1024] = [0; 1024];

fn popcount(words: &[u64]) -> usize {
    words.iter().map(|w| w.count_ones() as usize).sum()
}

/// Prints the selected positions, as the list-backed selection's derived
/// `Debug` did: `corra-sim` fingerprints answers by their `Debug` text.
impl std::fmt::Debug for SelectionVector {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SelectionVector")
            .field("positions", &self.positions())
            .finish()
    }
}

impl PartialEq for SelectionVector {
    fn eq(&self, other: &Self) -> bool {
        let (long, short) = if self.words.len() >= other.words.len() {
            (&self.words, &other.words)
        } else {
            (&other.words, &self.words)
        };
        self.count == other.count
            && long[..short.len()] == short[..]
            && long[short.len()..].iter().all(|&w| w == 0)
    }
}

impl Eq for SelectionVector {}

/// Draws a uniform random selection vector of `k = round(selectivity * rows)`
/// distinct positions (Floyd's algorithm, O(k) expected).
pub fn sample_uniform(rows: usize, selectivity: f64, rng: &mut StdRng) -> SelectionVector {
    assert!(
        (0.0..=1.0).contains(&selectivity),
        "selectivity must be in [0,1]"
    );
    let k = ((rows as f64) * selectivity).round() as usize;
    let k = k.min(rows);
    if k == rows {
        return SelectionVector::all(rows);
    }
    // Floyd's sampling: uniform k-subset of 0..rows.
    let mut chosen = rustc_hash::FxHashSet::default();
    chosen.reserve(k);
    for j in (rows - k)..rows {
        let t = rng.gen_range(0..=j as u64) as u32;
        if !chosen.insert(t) {
            chosen.insert(j as u32);
        }
    }
    SelectionVector::new(chosen.into_iter().collect())
}

/// Generates the paper's per-selectivity workload: `n` independent uniform
/// selection vectors (the paper uses `n = 10`).
pub fn workload(rows: usize, selectivity: f64, n: usize, seed: u64) -> Vec<SelectionVector> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n)
        .map(|_| sample_uniform(rows, selectivity, &mut rng))
        .collect()
}

/// The selectivity grid of Fig. 5: {0.001, 0.002, …, 0.009, 0.01, 0.02, …,
/// 0.09, 0.1, 0.2, …, 0.9, 1.0}.
pub fn figure5_selectivities() -> Vec<f64> {
    let mut out = Vec::new();
    for i in 1..10 {
        out.push(i as f64 * 0.001);
    }
    for i in 1..10 {
        out.push(i as f64 * 0.01);
    }
    for i in 1..=10 {
        out.push(i as f64 * 0.1);
    }
    out
}

/// The zoom-in selectivities of Fig. 6/7: {0.005, 0.01, 0.05, 0.1}.
pub fn zoom_selectivities() -> [f64; 4] {
    [0.005, 0.01, 0.05, 0.1]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_sorts_and_dedups() {
        let sel = SelectionVector::new(vec![5, 1, 5, 3]);
        assert_eq!(sel.positions(), &[1, 3, 5]);
        assert_eq!(sel.len(), 3);
    }

    #[test]
    fn all_covers_everything() {
        let sel = SelectionVector::all(4);
        assert_eq!(sel.positions(), &[0, 1, 2, 3]);
        assert!((sel.selectivity(4) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn sample_size_matches_selectivity() {
        let mut rng = StdRng::seed_from_u64(42);
        let sel = sample_uniform(100_000, 0.01, &mut rng);
        assert_eq!(sel.len(), 1_000);
        assert!(sel.validate(100_000));
        // Sorted & distinct.
        assert!(sel.positions().windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn sample_extremes() {
        let mut rng = StdRng::seed_from_u64(1);
        assert!(sample_uniform(1000, 0.0, &mut rng).is_empty());
        assert_eq!(sample_uniform(1000, 1.0, &mut rng).len(), 1000);
        assert!(sample_uniform(0, 0.5, &mut rng).is_empty());
    }

    #[test]
    fn sample_is_roughly_uniform() {
        // Mean position of a 10% sample of 0..10000 should be near 5000.
        let mut rng = StdRng::seed_from_u64(7);
        let mut sum = 0f64;
        let mut count = 0usize;
        for _ in 0..20 {
            let sel = sample_uniform(10_000, 0.1, &mut rng);
            sum += sel.positions().iter().map(|&p| p as f64).sum::<f64>();
            count += sel.len();
        }
        let mean = sum / count as f64;
        assert!((mean - 5_000.0).abs() < 200.0, "mean {mean}");
    }

    #[test]
    fn workload_is_deterministic_per_seed() {
        let a = workload(10_000, 0.05, 10, 99);
        let b = workload(10_000, 0.05, 10, 99);
        assert_eq!(a, b);
        assert_eq!(a.len(), 10);
        // Vectors within one workload differ from each other.
        assert_ne!(a[0], a[1]);
    }

    #[test]
    fn selectivity_grid_matches_figure5() {
        let grid = figure5_selectivities();
        assert_eq!(grid.len(), 28);
        assert!((grid[0] - 0.001).abs() < 1e-12);
        assert!((grid[9] - 0.01).abs() < 1e-12);
        assert!((grid[27] - 1.0).abs() < 1e-12);
        assert!(grid.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn validate_rejects_out_of_range() {
        let sel = SelectionVector::new(vec![0, 10]);
        assert!(sel.validate(11));
        assert!(!sel.validate(10));
    }

    #[test]
    fn zero_rows_semantics() {
        let empty = SelectionVector::empty();
        assert_eq!(empty.selectivity(0), 0.0);
        assert!(empty.selectivity(0).is_finite());
        assert!(empty.validate(0));
        // A non-empty selection can never be valid against an empty block.
        let sel = SelectionVector::new(vec![0]);
        assert!(!sel.validate(0));
        assert_eq!(sel.selectivity(0), 0.0);
        // `all(0)` is the empty selection.
        assert_eq!(SelectionVector::all(0), empty);
    }

    #[test]
    fn from_sorted_checks_order() {
        let sel = SelectionVector::from_sorted(vec![1, 3, 9]).unwrap();
        assert_eq!(sel.positions(), &[1, 3, 9]);
        assert!(SelectionVector::from_sorted(vec![]).is_ok());
        assert!(SelectionVector::from_sorted(vec![3, 3]).is_err());
        assert!(SelectionVector::from_sorted(vec![5, 2]).is_err());
    }

    #[test]
    fn union_is_sorted_merged_set() {
        let a = SelectionVector::new(vec![1, 3, 5, 9]);
        let b = SelectionVector::new(vec![0, 3, 4, 9, 10]);
        assert_eq!(a.union(&b).positions(), &[0, 1, 3, 4, 5, 9, 10]);
        assert_eq!(b.union(&a), a.union(&b));
        assert_eq!(a.union(&SelectionVector::empty()), a);
        assert_eq!(a.union(&a), a);
    }

    #[test]
    fn complement_within_rows() {
        let a = SelectionVector::new(vec![1, 3]);
        assert_eq!(a.complement(5).positions(), &[0, 2, 4]);
        assert_eq!(a.complement(0), SelectionVector::empty());
        assert_eq!(
            SelectionVector::empty().complement(3),
            SelectionVector::all(3)
        );
        assert_eq!(
            SelectionVector::all(4).complement(4),
            SelectionVector::empty()
        );
        // Out-of-range positions are ignored.
        assert_eq!(
            SelectionVector::new(vec![7]).complement(2).positions(),
            &[0, 1]
        );
        // complement is an involution on in-range selections.
        assert_eq!(a.complement(6).complement(6), a);
    }

    #[test]
    fn intersect_is_sorted_common_subset() {
        let a = SelectionVector::new(vec![1, 3, 5, 7, 9]);
        let b = SelectionVector::new(vec![0, 3, 4, 9, 10]);
        assert_eq!(a.intersect(&b).positions(), &[3, 9]);
        assert_eq!(b.intersect(&a).positions(), &[3, 9]);
        assert!(a.intersect(&SelectionVector::empty()).is_empty());
        assert_eq!(a.intersect(&a), a);
    }
}
