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
use corra_encodings::{IntAccess, IntEncoding, PlainInt};

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
/// [`MAX_GROUPS`] reference groups — reproduce each target row: one bitmap
/// over the rows per mask. Shared by the encoder and the sample-based
/// detector.
pub(crate) struct FormulaMatches {
    rows: usize,
    /// Mask `m`'s bitmap at `bits[m - 1]`: bit `i` set when `m` reproduces
    /// row `i`.
    bits: Vec<Vec<u64>>,
}

impl FormulaMatches {
    /// Tests every candidate mask on every row; `group_sums` holds one
    /// slice per group (`1..=MAX_GROUPS` of them), each at least as long as
    /// `target`. A mask's sum is the sum of the mask without its lowest
    /// group plus that group, which equals [`Formula::eval`] because
    /// wrapping addition is associative and commutative.
    pub(crate) fn new(target: &[i64], group_sums: &[&[i64]]) -> Self {
        // Rows per pass, a multiple of 64: 255 masks' sums take 512 KiB.
        const ROWS: usize = 256;
        let n_masks = (1usize << group_sums.len()) - 1;
        let mut bits = vec![vec![0u64; target.len().div_ceil(64)]; n_masks];
        // Row `r` of mask `m`'s sum at `sums[m * ROWS + r]`; mask 0 stays 0.
        let mut sums = vec![0i64; (n_masks + 1) * ROWS];
        for start in (0..target.len()).step_by(ROWS) {
            let t = &target[start..target.len().min(start + ROWS)];
            for m in 1..=n_masks {
                let (below, at) = sums.split_at_mut(m * ROWS);
                let without_low = &below[(m & (m - 1)) * ROWS..][..t.len()];
                let low = &group_sums[m.trailing_zeros() as usize][start..][..t.len()];
                let at = &mut at[..t.len()];
                for ((sum, &a), &b) in at.iter_mut().zip(without_low).zip(low) {
                    *sum = a.wrapping_add(b);
                }
                let words = &mut bits[m - 1][start / 64..];
                for (word, (sums, t)) in words.iter_mut().zip(at.chunks(64).zip(t.chunks(64))) {
                    let hits = sums.iter().zip(t).map(|(s, t)| u64::from(s == t));
                    *word = hits.enumerate().fold(0, |w, (b, hit)| w | hit << b);
                }
            }
        }
        Self {
            rows: target.len(),
            bits,
        }
    }

    /// Greedy set cover: up to `max` formulas, each the one reproducing the
    /// most rows no earlier pick covers (the last such on a tie), with that
    /// count; stops early once no formula covers a new row. Also returns,
    /// per row, the index of the first pick reproducing it (its code), or
    /// `None` for a row no pick reproduces (an outlier).
    pub(crate) fn greedy_cover(&self, max: usize) -> (Vec<(Formula, usize)>, Vec<Option<u8>>) {
        // Bits past the last row are clear in every bitmap.
        let mut uncovered = vec![u64::MAX; self.rows.div_ceil(64)];
        let mut cover = vec![None; self.rows];
        let mut picked = Vec::new();
        while picked.len() < max {
            let best = self.bits.iter().enumerate().map(|(m, bitmap)| {
                let count = bitmap.iter().zip(&uncovered);
                (m, count.map(|(b, u)| (b & u).count_ones() as usize).sum())
            });
            let Some((m, count)) = best.max_by_key(|&(_, count)| count).filter(|&(_, c)| c > 0)
            else {
                break;
            };
            // At most 255 picks: each covers every row its mask reproduces.
            let code = Some(picked.len() as u8);
            for (w, (u, &b)) in uncovered.iter_mut().zip(&self.bits[m]).enumerate() {
                let mut new = *u & b;
                *u &= !b;
                while new != 0 {
                    cover[w * 64 + new.trailing_zeros() as usize] = code;
                    new &= new - 1;
                }
            }
            picked.push((Formula(m as u8 + 1), count));
        }
        (picked, cover)
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
        let (picked, cover) = FormulaMatches::new(target, &sums).greedy_cover(1 << code_bits);
        let mut selected: Vec<Formula> = picked.into_iter().map(|(f, _)| f).collect();
        if selected.is_empty() {
            // Degenerate: nothing matches; keep one formula so codes exist.
            selected.push(Formula(1));
        }
        // A row's code is the first pick reproducing it; else an outlier.
        let codes: Vec<u64> = cover.iter().map(|&c| u64::from(c.unwrap_or(0))).collect();
        let mut outliers = OutlierRegion::new();
        for (i, &t) in target
            .iter()
            .enumerate()
            .filter(|&(i, _)| cover[i].is_none())
        {
            outliers.push(i as u32, t);
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
        self.codes
            .unpack_chunks(|_, chunk| chunk.iter().for_each(|&c| counts[c as usize] += 1));
        for (i, _) in self.outliers.iter() {
            counts[self.codes.get(i as usize) as usize] -= 1;
        }
        FormulaStats {
            formulas: self.formulas.iter().copied().zip(counts).collect(),
            outliers: self.outliers.len(),
            rows: self.len(),
        }
    }

    /// Bulk decode given full per-group sum columns: the reconstruction
    /// every MultiRef column runs (the resolved column's `decode_into`),
    /// with each group sum as one varying member.
    ///
    /// # Errors
    ///
    /// [`Error::LengthMismatch`] when a group sum is not one value per row,
    /// and [`Error::Corrupt`] when a formula names a group past
    /// `group_sums` (see [`validate_groups`](Self::validate_groups)) —
    /// the reconstruction would otherwise read that group as zero.
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
        let sums: Vec<IntEncoding> = group_sums
            .iter()
            .map(|s| IntEncoding::Plain(PlainInt::encode(s)))
            .collect();
        let groups = sums.iter().map(|s| vec![s]).collect();
        MultiRefColumn::new(self, groups, &DecodeScratch::default()).decode_into(out);
        Ok(())
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
/// ([`int_column`]), once per block: a member whose codec metadata proves
/// it constant ([`IntEncoding::constant`]) is added into `addend[code]` for
/// every formula naming its group and never read again. `get` is §2.3's
/// rule — outlier first, then `addend[code]` plus the varying members of
/// the groups the coded formula names — and `decode_into` rebuilds the
/// block from the same parts.
///
/// [`int_column`]: crate::query::int_column
pub(crate) struct MultiRefColumn<'a> {
    enc: &'a MultiRefInt,
    /// Per code: the constant members its formula names, summed.
    addend: [i64; 256],
    /// Every other member: its group's mask bit, its codec (batch decode)
    /// and its per-row accessor (`get`).
    varying: Vec<(u8, &'a IntEncoding, RefAccess<'a>)>,
    /// The groups every formula names: their members add in unmasked.
    every: u8,
    scratch: &'a DecodeScratch,
}

impl<'a> MultiRefColumn<'a> {
    /// `enc` over `groups`, as the block's assembly checked them
    /// (`check_column`): every member as long as the column, and every
    /// formula naming only groups that exist.
    pub(crate) fn new(
        enc: &'a MultiRefInt,
        groups: Vec<Vec<&'a IntEncoding>>,
        scratch: &'a DecodeScratch,
    ) -> Self {
        let mut addend = [0i64; 256];
        let mut varying = Vec::new();
        for (g, group) in groups.into_iter().enumerate() {
            // Zero past `MAX_GROUPS`: a group no formula can name.
            let bit = 1u8.checked_shl(g as u32).unwrap_or(0);
            for member in group {
                let Some(v) = member.constant() else {
                    varying.push((bit, member, RefAccess::of(member)));
                    continue;
                };
                for (slot, f) in addend.iter_mut().zip(&enc.formulas) {
                    if f.0 & bit != 0 {
                        *slot = slot.wrapping_add(v);
                    }
                }
            }
        }
        Self {
            enc,
            addend,
            varying,
            every: enc.formulas.iter().fold(u8::MAX, |every, f| every & f.0),
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
        // the column (checked when the block was assembled).
        assert!(i < self.len(), "row out of bounds");
        let enc = self.enc;
        if let Some(v) = enc.outliers.lookup(i as u32) {
            return v;
        }
        // §2.3 decompression: "read the values from the reference columns"
        // — the varying members of exactly the groups the row's formula
        // names, on top of its constant ones.
        let code = enc.codes.get_unchecked_len(i) as u8 as usize;
        let mask = enc.formulas[code].0;
        let mut acc = self.addend[code];
        for (bit, _, r) in &self.varying {
            if mask & bit != 0 {
                acc = acc.wrapping_add(r.get(i));
            }
        }
        acc
    }

    fn compressed_bytes(&self) -> usize {
        self.enc.compressed_bytes()
    }

    fn for_each_chunk(&self, f: &mut dyn FnMut(usize, &[i64])) {
        stream_reconstructed(self, self.scratch, f);
    }

    /// The whole-block reconstruction behind every scan, fold, TOP-K and
    /// decompress of the column: one pass over the codes writes
    /// `addend[code]`, then each varying member is decoded and added in
    /// place — unmasked when every formula names its group, otherwise
    /// through a table `keep[code]` of 0 or −1 (whether that code's formula
    /// names the group) — and the outliers are patched last. Wrapping
    /// addition is associative and commutative, so every row equals its
    /// formula evaluated over the group sums, overflow included.
    fn decode_into(&self, out: &mut Vec<i64>) {
        let enc = self.enc;
        // Codes are below `formulas.len()` (checked on construction and
        // read), which is at most 255, so `code as u8` indexes losslessly.
        out.clear();
        out.reserve(self.len());
        enc.codes.unpack_chunks(|_, chunk| {
            out.extend(chunk.iter().map(|&c| self.addend[c as u8 as usize]));
        });
        let mut buf = self.scratch.refs.borrow_mut();
        for &(bit, member, _) in &self.varying {
            member.decode_into(&mut buf);
            if self.every & bit != 0 {
                for (o, &v) in out.iter_mut().zip(buf.iter()) {
                    *o = o.wrapping_add(v);
                }
                continue;
            }
            let mut keep = [0i64; 256];
            for (slot, f) in keep.iter_mut().zip(&enc.formulas) {
                *slot = -i64::from(f.0 & bit != 0);
            }
            enc.codes.unpack_chunks(|start, chunk| {
                let end = start + chunk.len();
                for ((o, &v), &c) in out[start..end].iter_mut().zip(&buf[start..end]).zip(chunk) {
                    *o = o.wrapping_add(v & keep[c as u8 as usize]);
                }
            });
        }
        enc.outliers.patch(out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use corra_columnar::selection::SelectionVector;
    use corra_encodings::{DictInt, ForInt};

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
        let codecs: Vec<IntEncoding> = groups
            .iter()
            .map(|g| IntEncoding::Plain(PlainInt::encode(g)))
            .collect();
        let scratch = DecodeScratch::default();
        let column = MultiRefColumn::new(&enc, codecs.iter().map(|c| vec![c]).collect(), &scratch);
        for (i, &t) in target.iter().enumerate() {
            assert_eq!(column.get(i), t, "row {i}");
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
        column.gather_into(&sel.positions(), &mut out);
        let mut bulk = Vec::new();
        enc.decode_into(&groups, &mut bulk).unwrap();
        assert_eq!(bulk, target);
        let want: Vec<i64> = sel.positions().iter().map(|&p| bulk[p as usize]).collect();
        assert_eq!(out, want);
    }

    #[test]
    fn resolved_column_folds_constant_members() {
        let (target, groups) = taxi_like(3_000);
        let enc = MultiRefInt::encode(&target, &groups, 2).unwrap();
        let mut explicit = Vec::new();
        enc.decode_into(&groups, &mut explicit).unwrap();
        assert_eq!(explicit, target);
        // Group A is a varying member plus a constant one; C is a one-entry
        // Dict; B a width-0 FOR (folded, every formula's group mask taken
        // whole) or Plain (varying, added through the keep table).
        let a: Vec<i64> = groups[0].iter().map(|&v| v - 30).collect();
        let a = [ForInt::encode(&a), ForInt::encode(&[30; 3_000])].map(IntEncoding::For);
        let c = IntEncoding::Dict(DictInt::encode(&groups[2]));
        assert!(a[1].constant().is_some() && c.constant().is_some());
        for b in [
            IntEncoding::For(ForInt::encode(&groups[1])),
            IntEncoding::Plain(PlainInt::encode(&groups[1])),
        ] {
            let scratch = DecodeScratch::default();
            let members = vec![vec![&a[0], &a[1]], vec![&b], vec![&c]];
            let column = MultiRefColumn::new(&enc, members, &scratch);
            let mut resolved = Vec::new();
            column.decode_into(&mut resolved);
            assert_eq!(resolved, explicit, "{}", b.scheme());
            let rows: Vec<i64> = (0..target.len()).map(|i| column.get(i)).collect();
            assert_eq!(rows, explicit, "{}", b.scheme());
        }
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
