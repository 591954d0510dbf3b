//! Non-hierarchical encoding with multiple reference columns (paper §2.3).
//!
//! The target column (e.g. Taxi's `total_amount`) is usually *derivable*
//! from a handful of reference-column groups via simple arithmetic: in the
//! paper, `A`, `A + B`, `A + C`, or `A + B + C` (Tab. 1). Instead of the
//! value, each row stores a tiny code identifying which formula reconstructs
//! it; rows following none of the selected formulas go to the outlier region
//! (Fig. 4). Because outliers are identified by their *index*, no sentinel
//! code is needed and 2 bits cover four formulas.
//!
//! Formulas are *discovered from the data*: every non-empty subset of the
//! reference groups is a candidate, and a greedy set-cover pass picks the
//! `2^code_bits` subsets that together explain the most rows.

use bytes::{Buf, BufMut};
use corra_columnar::bitpack::BitPackedVec;
use corra_columnar::error::{Error, Result};
use corra_encodings::{IntAccess, IntEncoding};

use crate::outlier::OutlierRegion;
use crate::query::{stream_reconstructed, DecodeScratch, RefAccess};

/// Maximum number of reference groups (masks are stored in a `u8`).
pub const MAX_GROUPS: usize = 8;

/// A reconstruction formula: the bit-set of reference groups to sum.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Formula(pub u8);

impl Formula {
    /// Evaluates the formula given per-group sums at one row.
    #[inline]
    pub fn eval(self, group_sums: &[i64]) -> i64 {
        let mut acc = 0i64;
        let mut mask = self.0;
        while mask != 0 {
            let g = mask.trailing_zeros() as usize;
            acc = acc.wrapping_add(group_sums[g]);
            mask &= mask - 1;
        }
        acc
    }

    /// Formats the formula with group letters, paper-style: `A + B`.
    pub fn describe(self) -> String {
        let mut parts = Vec::new();
        for g in 0..MAX_GROUPS {
            if self.0 & (1 << g) != 0 {
                parts.push(((b'A' + g as u8) as char).to_string());
            }
        }
        if parts.is_empty() {
            "∅".to_owned()
        } else {
            parts.join(" + ")
        }
    }
}

/// Per-formula usage statistics (drives the Table 1 reproduction).
#[derive(Debug, Clone, PartialEq)]
pub struct FormulaStats {
    /// `(formula, rows encoded with it)` in code order.
    pub formulas: Vec<(Formula, usize)>,
    /// Rows stored as outliers.
    pub outliers: usize,
    /// Total rows.
    pub rows: usize,
}

impl FormulaStats {
    /// Fraction of rows covered by formula `k`.
    pub fn probability(&self, k: usize) -> f64 {
        if self.rows == 0 {
            0.0
        } else {
            self.formulas[k].1 as f64 / self.rows as f64
        }
    }

    /// Fraction of rows stored as outliers.
    pub fn outlier_rate(&self) -> f64 {
        if self.rows == 0 {
            0.0
        } else {
            self.outliers as f64 / self.rows as f64
        }
    }
}

/// Which candidate formulas — every non-empty subset of up to
/// [`MAX_GROUPS`] reference groups — reproduce each target row: a bitset of
/// `2^groups - 1` bits per row, bit `m - 1` standing for mask `m`. Shared by
/// the encoder and the sample-based detector.
pub(crate) struct FormulaMatches {
    rows: usize,
    n_masks: usize,
    /// Words per row: 255 masks over 8 groups need four.
    words: usize,
    bits: Vec<u64>,
}

impl FormulaMatches {
    /// Tests every candidate mask on every row; `group_sums` holds one
    /// slice per group (`1..=MAX_GROUPS` of them), each at least as long as
    /// `target`.
    pub(crate) fn new(target: &[i64], group_sums: &[&[i64]]) -> Self {
        let n_masks = (1usize << group_sums.len()) - 1;
        let words = n_masks.div_ceil(64);
        let mut bits = vec![0u64; target.len() * words];
        let mut sums_at = vec![0i64; group_sums.len()];
        for (i, (&t, row)) in target.iter().zip(bits.chunks_exact_mut(words)).enumerate() {
            for (slot, s) in sums_at.iter_mut().zip(group_sums) {
                *slot = s[i];
            }
            for m in 0..n_masks {
                if Formula(m as u8 + 1).eval(&sums_at) == t {
                    row[m / 64] |= 1 << (m % 64);
                }
            }
        }
        Self {
            rows: target.len(),
            n_masks,
            words,
            bits,
        }
    }

    fn row(&self, i: usize) -> &[u64] {
        &self.bits[i * self.words..(i + 1) * self.words]
    }

    /// Whether formula `f` reproduces row `i`.
    pub(crate) fn matches(&self, i: usize, f: Formula) -> bool {
        let m = f.0 as usize - 1;
        (self.row(i)[m / 64] >> (m % 64)) & 1 == 1
    }

    /// Greedy set cover: up to `max` formulas, each the one reproducing the
    /// most rows no earlier pick covers (the last such on a tie), with that
    /// count; stops early once no formula covers a new row.
    pub(crate) fn greedy_cover(&self, max: usize) -> Vec<(Formula, usize)> {
        let mut covered = vec![false; self.rows];
        let mut picked = Vec::new();
        for _ in 0..max {
            let mut counts = vec![0usize; self.n_masks];
            for i in (0..self.rows).filter(|&i| !covered[i]) {
                for (w, &word) in self.row(i).iter().enumerate() {
                    let mut bits = word;
                    while bits != 0 {
                        counts[w * 64 + bits.trailing_zeros() as usize] += 1;
                        bits &= bits - 1;
                    }
                }
            }
            let Some((best, &count)) = counts.iter().enumerate().max_by_key(|&(_, &c)| c) else {
                break;
            };
            if count == 0 {
                break;
            }
            let f = Formula((best + 1) as u8);
            for (i, c) in covered.iter_mut().enumerate() {
                *c |= self.matches(i, f);
            }
            picked.push((f, count));
        }
        picked
    }
}

/// Multi-reference diff-encoded column.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MultiRefInt {
    /// Selected formulas; index = code.
    formulas: Vec<Formula>,
    /// Per-row formula code (bit width = `code_bits`).
    codes: BitPackedVec,
    /// Rows not matching any selected formula.
    outliers: OutlierRegion,
}

impl MultiRefInt {
    /// Encodes `target` against per-group row sums, keeping at most
    /// `2^code_bits` formulas (the paper uses `code_bits = 2`).
    ///
    /// `group_sums[g][i]` must hold the sum of group `g`'s reference columns
    /// at row `i`.
    pub fn encode(target: &[i64], group_sums: &[Vec<i64>], code_bits: u8) -> Result<Self> {
        let n = target.len();
        let g = group_sums.len();
        if g == 0 || g > MAX_GROUPS {
            return Err(Error::invalid(format!(
                "need 1..={MAX_GROUPS} groups, got {g}"
            )));
        }
        if code_bits == 0 || code_bits > 6 {
            return Err(Error::invalid("code_bits must be in 1..=6"));
        }
        for s in group_sums {
            if s.len() != n {
                return Err(Error::LengthMismatch {
                    left: n,
                    right: s.len(),
                });
            }
        }
        let sums: Vec<&[i64]> = group_sums.iter().map(Vec::as_slice).collect();
        let matches = FormulaMatches::new(target, &sums);
        let mut selected: Vec<Formula> = matches
            .greedy_cover(1 << code_bits)
            .into_iter()
            .map(|(f, _)| f)
            .collect();
        if selected.is_empty() {
            // Degenerate: nothing matches; keep one formula so codes exist.
            selected.push(Formula(1));
        }
        // Assign codes: first selected formula that matches; else outlier.
        let mut codes = Vec::with_capacity(n);
        let mut outliers = OutlierRegion::new();
        for (i, &t) in target.iter().enumerate() {
            match selected.iter().position(|&f| matches.matches(i, f)) {
                Some(c) => codes.push(c as u64),
                None => {
                    codes.push(0);
                    outliers.push(i as u32, t);
                }
            }
        }
        Ok(Self {
            formulas: selected,
            codes: BitPackedVec::pack(&codes, code_bits)?,
            outliers,
        })
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.codes.len()
    }

    /// Whether the column is empty.
    pub fn is_empty(&self) -> bool {
        self.codes.is_empty()
    }

    /// The per-row code width.
    pub fn code_bits(&self) -> u8 {
        self.codes.bits()
    }

    /// The selected formulas (index = code).
    pub fn formulas(&self) -> &[Formula] {
        &self.formulas
    }

    /// The outlier region.
    pub fn outliers(&self) -> &OutlierRegion {
        &self.outliers
    }

    /// Per-formula usage statistics (Table 1).
    pub fn stats(&self) -> FormulaStats {
        let mut counts = vec![0usize; self.formulas.len()];
        let outlier_set = self.outliers.build_map();
        for i in 0..self.len() {
            if !outlier_set.contains_key(&(i as u32)) {
                counts[self.codes.get(i) as usize] += 1;
            }
        }
        FormulaStats {
            formulas: self.formulas.iter().copied().zip(counts).collect(),
            outliers: self.outliers.len(),
            rows: self.len(),
        }
    }

    /// Reconstructs row `i` given that row's per-group sums.
    ///
    /// The decompression procedure of §2.3: check the outlier mapping first;
    /// otherwise evaluate the coded formula over the reference columns.
    #[inline]
    pub fn get(&self, i: usize, group_sums_at_row: &[i64]) -> i64 {
        if let Some(v) = self.outliers.lookup(i as u32) {
            return v;
        }
        self.formulas[self.codes.get(i) as usize].eval(group_sums_at_row)
    }

    /// Bulk decode given full per-group sum columns — the whole-block
    /// reconstruction every scan, fold, TOP-K and decompress of the column
    /// runs through. Branch-free: each group gets a table
    /// `keep[code]` of 0 or −1 (whether that code's formula names the
    /// group), and each chunk of codes adds `sum & keep[code]` one group at
    /// a time; outliers are patched in afterwards.
    ///
    /// # Errors
    ///
    /// [`Error::LengthMismatch`] when a group sum is not one value per row,
    /// and [`Error::Corrupt`] when a formula names a group past
    /// `group_sums` (see [`validate_groups`](Self::validate_groups)) —
    /// the table would otherwise read that group as zero.
    pub fn decode_into(&self, group_sums: &[Vec<i64>], out: &mut Vec<i64>) -> Result<()> {
        for s in group_sums {
            if s.len() != self.len() {
                return Err(Error::LengthMismatch {
                    left: s.len(),
                    right: self.len(),
                });
            }
        }
        self.validate_groups(group_sums.len())?;
        self.reconstruct(group_sums, out);
        Ok(())
    }

    /// [`decode_into`](Self::decode_into) over group sums already checked:
    /// one per group the formulas name, each as long as the column.
    fn reconstruct(&self, group_sums: &[Vec<i64>], out: &mut Vec<i64>) {
        // Codes are below `formulas.len()` (checked on construction and
        // read), which is at most 255, so `code as u8` indexes losslessly.
        let mut keep: Vec<(&[i64], [i64; 256])> = Vec::with_capacity(group_sums.len());
        for (g, sum) in group_sums.iter().enumerate().take(MAX_GROUPS) {
            let mut table = [0i64; 256];
            for (slot, f) in table.iter_mut().zip(&self.formulas) {
                *slot = -i64::from((f.0 >> g) & 1);
            }
            if table.iter().any(|&k| k != 0) {
                keep.push((sum, table));
            }
        }
        out.clear();
        out.resize(self.len(), 0);
        self.codes.unpack_chunks(|start, chunk| {
            let out = &mut out[start..start + chunk.len()];
            for (sum, table) in &keep {
                let sum = &sum[start..start + chunk.len()];
                for ((o, &s), &c) in out.iter_mut().zip(sum).zip(chunk) {
                    *o = o.wrapping_add(s & table[c as u8 as usize]);
                }
            }
        });
        self.outliers.patch(out);
    }

    /// Checks every formula mask only names groups `< n_groups` — the
    /// payload alone cannot know the wiring's group count, so containers
    /// (block deserialization, the table store) call this once both are in
    /// hand. Without it a hostile mask would index past the group-sum
    /// arrays at decode time.
    pub fn validate_groups(&self, n_groups: usize) -> Result<()> {
        let allowed = if n_groups >= 8 {
            u8::MAX
        } else {
            (1u8 << n_groups) - 1
        };
        for f in &self.formulas {
            if f.0 & !allowed != 0 {
                return Err(Error::corrupt(format!(
                    "multiref formula mask {:#b} names a group >= {n_groups}",
                    f.0
                )));
            }
        }
        Ok(())
    }

    /// Compressed size: formula table + packed codes + outliers.
    pub fn compressed_bytes(&self) -> usize {
        self.formulas.len() + 1 + self.codes.tight_bytes() + self.outliers.compressed_bytes()
    }

    /// Serialized length of [`write_to`](Self::write_to).
    pub fn serialized_len(&self) -> usize {
        1 + self.formulas.len() + self.codes.serialized_len() + self.outliers.serialized_len()
    }

    /// Writes `n_formulas (u8) | masks | codes | outliers`.
    pub fn write_to(&self, buf: &mut impl BufMut) {
        buf.put_u8(self.formulas.len() as u8);
        for f in &self.formulas {
            buf.put_u8(f.0);
        }
        self.codes.write_to(buf);
        self.outliers.write_to(buf);
    }

    /// Reads back a [`write_to`](Self::write_to) payload.
    pub fn read_from(buf: &mut impl Buf) -> Result<Self> {
        if buf.remaining() < 1 {
            return Err(Error::corrupt("multiref header truncated"));
        }
        let n_formulas = buf.get_u8() as usize;
        if n_formulas == 0 {
            return Err(Error::corrupt("multiref formula table empty"));
        }
        if buf.remaining() < n_formulas {
            return Err(Error::corrupt("multiref formula table truncated"));
        }
        let mut formulas = Vec::with_capacity(n_formulas);
        for _ in 0..n_formulas {
            let mask = buf.get_u8();
            if mask == 0 {
                return Err(Error::corrupt("multiref empty formula mask"));
            }
            formulas.push(Formula(mask));
        }
        let codes = BitPackedVec::read_from(buf)?;
        if !codes.all_below(formulas.len() as u64) {
            return Err(Error::corrupt("multiref code out of range"));
        }
        let outliers = OutlierRegion::read_from(buf)?;
        if let Some((last, _)) = outliers.iter().last() {
            if last as usize >= codes.len() {
                return Err(Error::corrupt("multiref outlier index out of range"));
            }
        }
        Ok(Self {
            formulas,
            codes,
            outliers,
        })
    }
}

/// A MultiRef column resolved against its reference groups
/// ([`int_column`]): the per-row rule of §2.3 (outlier first, then the
/// coded formula over exactly the groups it names) and the branch-free
/// batch reconstruction over the decoded group sums.
///
/// [`int_column`]: crate::query::int_column
pub(crate) struct MultiRefColumn<'a> {
    enc: &'a MultiRefInt,
    /// Each group's member codecs, for the batch decode.
    groups: Vec<Vec<&'a IntEncoding>>,
    /// The same members as per-row accessors, for `get`.
    members: Vec<Vec<RefAccess<'a>>>,
    scratch: &'a DecodeScratch,
}

impl<'a> MultiRefColumn<'a> {
    /// `enc` over `groups`, which the caller checked: every member as long
    /// as the column, and every formula naming only groups that exist.
    pub(crate) fn new(
        enc: &'a MultiRefInt,
        groups: Vec<Vec<&'a IntEncoding>>,
        scratch: &'a DecodeScratch,
    ) -> Self {
        let members = groups
            .iter()
            .map(|group| group.iter().map(|&m| RefAccess::of(m)).collect())
            .collect();
        Self {
            enc,
            groups,
            members,
            scratch,
        }
    }
}

impl IntAccess for MultiRefColumn<'_> {
    fn len(&self) -> usize {
        self.enc.len()
    }

    // `always`: the per-row step of the provided selected kernels (gather,
    // selected fold, selected TOP-K); left to the hint it stayed a call.
    #[inline(always)]
    fn get(&self, i: usize) -> i64 {
        // One bounds check for every read below: each member is as long as
        // the column (checked at resolution).
        assert!(i < self.len(), "row out of bounds");
        let enc = self.enc;
        if let Some(v) = enc.outliers.lookup(i as u32) {
            return v;
        }
        // §2.3 decompression: "read the values from the reference columns"
        // — exactly the groups the row's formula names.
        let mut acc = 0i64;
        let mut mask = enc.formulas[enc.codes.get_unchecked_len(i) as usize].0;
        while mask != 0 {
            for r in &self.members[mask.trailing_zeros() as usize] {
                acc = acc.wrapping_add(r.get(i));
            }
            mask &= mask - 1;
        }
        acc
    }

    fn compressed_bytes(&self) -> usize {
        self.enc.compressed_bytes()
    }

    fn for_each_chunk(&self, f: &mut dyn FnMut(usize, &[i64])) {
        stream_reconstructed(self, self.scratch, f);
    }

    fn decode_into(&self, out: &mut Vec<i64>) {
        let mut refs = self.scratch.refs.borrow_mut();
        let mut sums = self.scratch.sums.borrow_mut();
        sums.resize_with(self.groups.len(), Vec::new);
        for (sum, group) in sums.iter_mut().zip(&self.groups) {
            // The first member decodes straight into the group sum.
            let Some((first, rest)) = group.split_first() else {
                sum.clear();
                sum.resize(self.len(), 0);
                continue;
            };
            first.decode_into(sum);
            for member in rest {
                member.decode_into(&mut refs);
                for (acc, &x) in sum.iter_mut().zip(refs.iter()) {
                    *acc = acc.wrapping_add(x);
                }
            }
        }
        self.enc.reconstruct(&sums, out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use corra_columnar::selection::SelectionVector;
    use corra_encodings::PlainInt;

    /// Builds a Taxi-like mixture: target = A, A+B, A+C, A+B+C, or junk.
    fn taxi_like(n: usize) -> (Vec<i64>, Vec<Vec<i64>>) {
        let a: Vec<i64> = (0..n).map(|i| 1_000 + (i as i64 * 37) % 5_000).collect();
        let b: Vec<i64> = (0..n).map(|_| 250).collect();
        let c: Vec<i64> = (0..n).map(|_| 125).collect();
        let target: Vec<i64> = (0..n)
            .map(|i| match i % 1_000 {
                0..=311 => a[i],                 // ~31.2%
                312..=935 => a[i] + b[i],        // ~62.4%
                936..=962 => a[i] + c[i],        // ~2.7%
                963..=995 => a[i] + b[i] + c[i], // ~3.3%
                _ => 999_999 + i as i64,         // ~0.4% outliers
            })
            .collect();
        (target, vec![a, b, c])
    }

    #[test]
    fn formula_eval_and_describe() {
        let sums = [10i64, 100, 1000];
        assert_eq!(Formula(0b001).eval(&sums), 10);
        assert_eq!(Formula(0b011).eval(&sums), 110);
        assert_eq!(Formula(0b101).eval(&sums), 1010);
        assert_eq!(Formula(0b111).eval(&sums), 1110);
        assert_eq!(Formula(0b001).describe(), "A");
        assert_eq!(Formula(0b011).describe(), "A + B");
        assert_eq!(Formula(0b101).describe(), "A + C");
        assert_eq!(Formula(0b111).describe(), "A + B + C");
    }

    #[test]
    fn taxi_mixture_roundtrip() {
        let (target, groups) = taxi_like(10_000);
        let enc = MultiRefInt::encode(&target, &groups, 2).unwrap();
        assert_eq!(enc.code_bits(), 2);
        assert_eq!(enc.formulas().len(), 4);
        let stats = enc.stats();
        // ~0.4% outliers by construction.
        assert!(
            (stats.outlier_rate() - 0.004).abs() < 0.001,
            "{}",
            stats.outlier_rate()
        );
        let mut out = Vec::new();
        enc.decode_into(&groups, &mut out).unwrap();
        assert_eq!(out, target);
    }

    #[test]
    fn discovers_paper_formulas() {
        let (target, groups) = taxi_like(10_000);
        let enc = MultiRefInt::encode(&target, &groups, 2).unwrap();
        let masks: Vec<u8> = enc.formulas().iter().map(|f| f.0).collect();
        // The four Table 1 formulas, discovered in coverage order:
        // A+B (62%) first, then A (31%), then the two rare ones.
        assert_eq!(masks[0], 0b011);
        assert_eq!(masks[1], 0b001);
        assert!(masks.contains(&0b101));
        assert!(masks.contains(&0b111));
    }

    #[test]
    fn point_access_including_outliers() {
        let (target, groups) = taxi_like(2_000);
        let enc = MultiRefInt::encode(&target, &groups, 2).unwrap();
        let mut sums_at = vec![0i64; 3];
        for i in 0..target.len() {
            for g in 0..3 {
                sums_at[g] = groups[g][i];
            }
            assert_eq!(enc.get(i, &sums_at), target[i], "row {i}");
        }
    }

    #[test]
    fn gather_matches_bulk() {
        let (target, groups) = taxi_like(3_000);
        let enc = MultiRefInt::encode(&target, &groups, 2).unwrap();
        let sel = SelectionVector::new(vec![0, 997, 999, 1_001, 2_999]);
        let codecs: Vec<IntEncoding> = groups
            .iter()
            .map(|g| IntEncoding::Plain(PlainInt::encode(g)))
            .collect();
        let scratch = DecodeScratch::default();
        let column = MultiRefColumn::new(&enc, codecs.iter().map(|c| vec![c]).collect(), &scratch);
        let mut out = Vec::new();
        column.gather_into(&sel, &mut out);
        let mut bulk = Vec::new();
        enc.decode_into(&groups, &mut bulk).unwrap();
        assert_eq!(bulk, target);
        let want: Vec<i64> = sel.positions().iter().map(|&p| bulk[p as usize]).collect();
        assert_eq!(out, want);
    }

    #[test]
    fn decode_rejects_a_formula_naming_a_missing_group() {
        let (target, groups) = taxi_like(1_000);
        let enc = MultiRefInt::encode(&target, &groups, 2).unwrap();
        // The discovered formulas name group C; without it the keep table
        // would read C as zero and decode silently wrong values.
        let mut out = Vec::new();
        assert!(matches!(
            enc.decode_into(&groups[..2], &mut out),
            Err(Error::Corrupt(_))
        ));
        assert!(matches!(
            enc.decode_into(&[], &mut out),
            Err(Error::Corrupt(_))
        ));
        assert!(matches!(
            enc.decode_into(&[groups[0].clone(), groups[1][1..].to_vec()], &mut out),
            Err(Error::LengthMismatch { .. })
        ));
    }

    #[test]
    fn single_group_behaves_like_exact_match() {
        let a: Vec<i64> = (0..100).map(|i| i as i64).collect();
        let target = a.clone();
        let enc = MultiRefInt::encode(&target, std::slice::from_ref(&a), 1).unwrap();
        assert!(enc.outliers().is_empty());
        let mut out = Vec::new();
        enc.decode_into(&[a], &mut out).unwrap();
        assert_eq!(out, target);
    }

    #[test]
    fn all_outliers_when_nothing_matches() {
        let a = vec![1i64; 50];
        let target: Vec<i64> = (0..50).map(|i| 1_000 + i as i64).collect();
        let enc = MultiRefInt::encode(&target, std::slice::from_ref(&a), 2).unwrap();
        assert_eq!(enc.outliers().len(), 50);
        let mut out = Vec::new();
        enc.decode_into(&[a], &mut out).unwrap();
        assert_eq!(out, target);
    }

    #[test]
    fn rejects_bad_configuration() {
        assert!(MultiRefInt::encode(&[1], &[], 2).is_err());
        assert!(MultiRefInt::encode(&[1], &[vec![1], vec![1, 2]], 2).is_err());
        assert!(MultiRefInt::encode(&[1], &[vec![1]], 0).is_err());
        assert!(MultiRefInt::encode(&[1], &[vec![1]], 7).is_err());
        let nine_groups = vec![vec![1i64]; 9];
        assert!(MultiRefInt::encode(&[1], &nine_groups, 2).is_err());
    }

    #[test]
    fn compression_is_dramatic_on_taxi_shape() {
        // Paper: 85.16% saving for total_amount. With 2-bit codes vs a
        // money column needing ~14 bits, expect > 80%.
        let (target, groups) = taxi_like(50_000);
        let enc = MultiRefInt::encode(&target, &groups, 2).unwrap();
        let vertical = corra_encodings::ForInt::encode(&target);
        let saving = 1.0 - enc.compressed_bytes() as f64 / vertical.compressed_bytes() as f64;
        assert!(saving > 0.8, "saving {saving}");
    }

    #[test]
    fn serialization_roundtrip() {
        let (target, groups) = taxi_like(1_000);
        let enc = MultiRefInt::encode(&target, &groups, 2).unwrap();
        let mut buf = Vec::new();
        enc.write_to(&mut buf);
        assert_eq!(buf.len(), enc.serialized_len());
        let back = MultiRefInt::read_from(&mut buf.as_slice()).unwrap();
        assert_eq!(back, enc);
        assert!(MultiRefInt::read_from(&mut &buf[..2]).is_err());
    }

    #[test]
    fn stats_probabilities_sum_to_one() {
        let (target, groups) = taxi_like(10_000);
        let enc = MultiRefInt::encode(&target, &groups, 2).unwrap();
        let stats = enc.stats();
        let total: f64 = (0..stats.formulas.len())
            .map(|k| stats.probability(k))
            .sum::<f64>()
            + stats.outlier_rate();
        assert!((total - 1.0).abs() < 1e-9);
    }
}
