//! Non-hierarchical diff encoding (paper §2.1).
//!
//! The diff-encoded column stores `target[i] - reference[i]` instead of
//! `target[i]`. When the two columns are correlated — TPC-H's `commitdate`
//! is always within a few months of `shipdate` — the diff range is tiny and
//! the bit-width collapses (Fig. 1).
//!
//! Diffs are stored FOR-style (base = min diff) and bit-packed. Rows whose
//! diff falls outside the chosen window go to the [`OutlierRegion`]; the
//! cut-off window is selected by a total-cost model (payload + 12 bytes per
//! outlier), so the encoder degrades gracefully on uncorrelated data. In the
//! paper's single-reference datasets no outliers are needed — our tests
//! assert that property on TPC-H-shaped data.

use bytes::{Buf, BufMut};
use corra_columnar::bitpack::{bits_needed, BitPackedVec};
use corra_columnar::error::{Error, Result};
use corra_columnar::selection::rows_fit;
use corra_encodings::{IntAccess, IntEncoding};

use crate::outlier::{OutlierRegion, OUTLIER_COST_BYTES};
use crate::query::{stream_reconstructed, DecodeScratch, RefAccess};

/// A column diff-encoded w.r.t. a single reference column.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NonHierInt {
    /// Minimum in-window diff (frame base).
    base: i64,
    /// Per-row `diff - base`, bit-packed; 0 at outlier positions.
    diffs: BitPackedVec,
    /// Out-of-window rows stored verbatim.
    outliers: OutlierRegion,
}

/// Outcome of the window-selection cost model.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WindowPlan {
    /// Frame base (window start).
    pub base: i64,
    /// Bit width of the in-window diffs.
    pub bits: u8,
    /// Number of rows falling outside the window.
    pub outliers: usize,
    /// Modeled total cost in bytes.
    pub cost: usize,
}

/// Chooses the `(base, bits)` window minimizing
/// `rows·bits/8 + outliers·12` over all candidate widths.
///
/// `sorted_diffs` must be sorted ascending.
pub fn plan_window(sorted_diffs: &[i64]) -> WindowPlan {
    let n = sorted_diffs.len();
    if n == 0 {
        return WindowPlan {
            base: 0,
            bits: 0,
            outliers: 0,
            cost: 0,
        };
    }
    let full_range = (sorted_diffs[n - 1] as i128 - sorted_diffs[0] as i128) as u128;
    let max_bits = if full_range == 0 {
        0
    } else {
        bits_needed(full_range.min(u64::MAX as u128) as u64)
    };
    let mut best = WindowPlan {
        base: sorted_diffs[0],
        bits: max_bits,
        outliers: 0,
        cost: ((n as u64 * max_bits as u64).div_ceil(8)) as usize,
    };
    // For each candidate width, slide a window of size 2^bits over the sorted
    // diffs to maximize coverage (two pointers, O(n) per width).
    for bits in 0..max_bits {
        let window = if bits == 64 {
            u64::MAX as u128
        } else {
            (1u128 << bits) - 1
        };
        let mut best_cover = 0usize;
        let mut best_start = 0usize;
        let mut lo = 0usize;
        for hi in 0..n {
            while (sorted_diffs[hi] as i128 - sorted_diffs[lo] as i128) as u128 > window {
                lo += 1;
            }
            let cover = hi - lo + 1;
            if cover > best_cover {
                best_cover = cover;
                best_start = lo;
            }
        }
        let outliers = n - best_cover;
        let cost = ((n as u64 * bits as u64).div_ceil(8)) as usize + outliers * OUTLIER_COST_BYTES;
        if cost < best.cost {
            best = WindowPlan {
                base: sorted_diffs[best_start],
                bits,
                outliers,
                cost,
            };
        }
    }
    best
}

impl NonHierInt {
    /// Diff-encodes `target` w.r.t. `reference`, choosing the outlier window
    /// by the cost model.
    ///
    /// # Errors
    ///
    /// Returns [`Error::LengthMismatch`] if the columns are not aligned.
    pub fn encode(target: &[i64], reference: &[i64]) -> Result<Self> {
        if target.len() != reference.len() {
            return Err(Error::LengthMismatch {
                left: target.len(),
                right: reference.len(),
            });
        }
        let diffs: Vec<i64> = target
            .iter()
            .zip(reference)
            .map(|(&t, &r)| t.wrapping_sub(r))
            .collect();
        let mut sorted = diffs.clone();
        sorted.sort_unstable();
        let plan = plan_window(&sorted);
        Self::encode_with_plan(target, reference, &diffs, plan)
    }

    /// Diff-encodes without outlier handling (the paper's single-reference
    /// configuration: "the simple case of single reference columns did not
    /// require any special outlier handling").
    pub fn encode_no_outliers(target: &[i64], reference: &[i64]) -> Result<Self> {
        if target.len() != reference.len() {
            return Err(Error::LengthMismatch {
                left: target.len(),
                right: reference.len(),
            });
        }
        let diffs: Vec<i64> = target
            .iter()
            .zip(reference)
            .map(|(&t, &r)| t.wrapping_sub(r))
            .collect();
        let base = diffs.iter().copied().min().unwrap_or(0);
        let offsets: Vec<u64> = diffs
            .iter()
            .map(|&d| (d as i128 - base as i128) as u64)
            .collect();
        Ok(Self {
            base,
            diffs: BitPackedVec::pack_minimal(&offsets),
            outliers: OutlierRegion::new(),
        })
    }

    fn encode_with_plan(
        target: &[i64],
        _reference: &[i64],
        diffs: &[i64],
        plan: WindowPlan,
    ) -> Result<Self> {
        let window_max = plan.base as i128
            + if plan.bits == 64 {
                u64::MAX as i128
            } else {
                (1i128 << plan.bits) - 1
            };
        let mut offsets = Vec::with_capacity(diffs.len());
        let mut outliers = OutlierRegion::new();
        for (i, &d) in diffs.iter().enumerate() {
            let di = d as i128;
            if di >= plan.base as i128 && di <= window_max {
                offsets.push((di - plan.base as i128) as u64);
            } else {
                offsets.push(0);
                outliers.push(i as u32, target[i]);
            }
        }
        Ok(Self {
            base: plan.base,
            diffs: BitPackedVec::pack(&offsets, plan.bits)?,
            outliers,
        })
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.diffs.len()
    }

    /// Whether the column is empty.
    pub fn is_empty(&self) -> bool {
        self.diffs.is_empty()
    }

    /// Bit width of the stored diffs.
    pub fn bits(&self) -> u8 {
        self.diffs.bits()
    }

    /// The outlier region.
    pub fn outliers(&self) -> &OutlierRegion {
        &self.outliers
    }

    /// Reconstructs the value at row `i` given the reference value at `i`
    /// (the paper's access pattern: "Corra must first fetch the reference
    /// column").
    #[inline]
    pub fn get(&self, i: usize, reference_value: i64) -> i64 {
        if let Some(v) = self.outliers.lookup(i as u32) {
            return v;
        }
        reference_value
            .wrapping_add(self.base)
            .wrapping_add(self.diffs.get(i) as i64)
    }

    /// Bulk decode given the full decoded reference column.
    pub fn decode_into(&self, reference: &[i64], out: &mut Vec<i64>) -> Result<()> {
        if reference.len() != self.len() {
            return Err(Error::LengthMismatch {
                left: reference.len(),
                right: self.len(),
            });
        }
        self.reconstruct(reference, out);
        Ok(())
    }

    /// [`decode_into`](Self::decode_into) over a reference already checked
    /// to be as long as the column.
    fn reconstruct(&self, reference: &[i64], out: &mut Vec<i64>) {
        out.clear();
        out.reserve(self.len());
        // Batched diff unpack fused with the reference add; the outlier
        // patch stays a sparse post-pass.
        let base = self.base;
        self.diffs.unpack_chunks(|start, chunk| {
            let refs = &reference[start..start + chunk.len()];
            out.extend(
                refs.iter()
                    .zip(chunk)
                    .map(|(&r, &d)| r.wrapping_add(base).wrapping_add(d as i64)),
            );
        });
        self.outliers.patch(out);
    }

    /// The sum of every reconstructed row mod 2^64, with no row
    /// reconstructed (§2.1 as an execution strategy): the decode is
    /// `ref_i + base + diff_i` except at an outlier, so the sum is
    /// `Σ ref + n · base + Σ diff`, corrected at each outlier from what that
    /// row contributed to its stored value. One reference sum, one pass
    /// over the packed diffs, O(outliers) probes.
    ///
    /// # Errors
    ///
    /// [`Error::LengthMismatch`] if `reference` is not as long as the
    /// column.
    pub fn sum_wrapping(&self, reference: &IntEncoding) -> Result<i64> {
        if reference.len() != self.len() {
            return Err(Error::LengthMismatch {
                left: reference.len(),
                right: self.len(),
            });
        }
        Ok(self.sum_over(reference))
    }

    /// [`sum_wrapping`](Self::sum_wrapping) over a reference already
    /// checked to be as long as the column.
    fn sum_over(&self, reference: &IntEncoding) -> i64 {
        let mut diffs = 0u64;
        self.diffs.unpack_chunks(|_, chunk| {
            diffs = chunk.iter().fold(diffs, |s, &d| s.wrapping_add(d));
        });
        let mut sum = reference
            .sum_wrapping()
            .wrapping_add((self.len() as i64).wrapping_mul(self.base))
            .wrapping_add(diffs as i64);
        for (i, v) in self.outliers.iter() {
            let i = i as usize;
            let decoded = reference
                .get(i)
                .wrapping_add(self.base)
                .wrapping_add(self.diffs.get(i) as i64);
            sum = sum.wrapping_add(v.wrapping_sub(decoded));
        }
        sum
    }

    /// Materializes the selected rows and their reference values ("query
    /// on both columns": the reference is fetched once per row through
    /// `ref_at` and reused for the §2.1 addition). `rows` ascend and lie
    /// below the column length.
    pub fn gather_both_map(
        &self,
        rows: &[u32],
        ref_at: impl Fn(usize) -> i64,
        target_out: &mut Vec<i64>,
        ref_out: &mut Vec<i64>,
    ) {
        assert!(rows_fit(rows, self.len()), "rows out of bounds");
        target_out.clear();
        target_out.reserve(rows.len());
        ref_out.clear();
        ref_out.reserve(rows.len());
        let base = self.base;
        if self.outliers.is_empty() {
            for &p in rows {
                let i = p as usize;
                let r = ref_at(i);
                ref_out.push(r);
                target_out.push(
                    r.wrapping_add(base)
                        .wrapping_add(self.diffs.get_unchecked_len(i) as i64),
                );
            }
        } else {
            for &p in rows {
                let i = p as usize;
                let r = ref_at(i);
                ref_out.push(r);
                match self.outliers.lookup(p) {
                    Some(v) => target_out.push(v),
                    None => target_out.push(
                        r.wrapping_add(base)
                            .wrapping_add(self.diffs.get_unchecked_len(i) as i64),
                    ),
                }
            }
        }
    }

    /// Compressed size: diff payload + frame metadata + outlier region.
    pub fn compressed_bytes(&self) -> usize {
        8 + 1 + self.diffs.tight_bytes() + self.outliers.compressed_bytes()
    }

    /// Serialized length of [`write_to`](Self::write_to).
    pub fn serialized_len(&self) -> usize {
        8 + self.diffs.serialized_len() + self.outliers.serialized_len()
    }

    /// Writes `base | diffs | outliers`.
    pub fn write_to(&self, buf: &mut impl BufMut) {
        buf.put_i64_le(self.base);
        self.diffs.write_to(buf);
        self.outliers.write_to(buf);
    }

    /// Reads back a [`write_to`](Self::write_to) payload.
    pub fn read_from(buf: &mut impl Buf) -> Result<Self> {
        if buf.remaining() < 8 {
            return Err(Error::corrupt("nonhier header truncated"));
        }
        let base = buf.get_i64_le();
        let diffs = BitPackedVec::read_from(buf)?;
        let outliers = OutlierRegion::read_from(buf)?;
        if let Some((last, _)) = outliers.iter().last() {
            if last as usize >= diffs.len() {
                return Err(Error::corrupt("nonhier outlier index out of range"));
            }
        }
        Ok(Self {
            base,
            diffs,
            outliers,
        })
    }
}

/// A NonHier column resolved against its reference ([`int_column`]): the
/// per-row rule (outlier first, then `reference + base + diff`), the batch
/// reconstruction, and the whole-block sum `Σ ref + n · base + Σ diff`
/// that reads no reconstructed row.
///
/// [`int_column`]: crate::query::int_column
pub(crate) struct NonHierColumn<'a> {
    enc: &'a NonHierInt,
    reference: &'a IntEncoding,
    refs: RefAccess<'a>,
    scratch: &'a DecodeScratch,
}

impl<'a> NonHierColumn<'a> {
    /// `enc` over `reference`, which the block's assembly checked is as
    /// long (`check_column`).
    pub(crate) fn new(
        enc: &'a NonHierInt,
        reference: &'a IntEncoding,
        scratch: &'a DecodeScratch,
    ) -> Self {
        Self {
            enc,
            reference,
            refs: RefAccess::of(reference),
            scratch,
        }
    }
}

impl IntAccess for NonHierColumn<'_> {
    fn len(&self) -> usize {
        self.enc.len()
    }

    // `always`: the per-row step of the provided selected kernels (gather,
    // selected fold, selected TOP-K); left to the hint it stayed a call.
    #[inline(always)]
    fn get(&self, i: usize) -> i64 {
        // One bounds check for every read below: the reference is as long
        // as the column (checked when the block was assembled).
        assert!(i < self.len(), "row out of bounds");
        let enc = self.enc;
        if let Some(v) = enc.outliers.lookup(i as u32) {
            return v;
        }
        let diff = enc.diffs.get_unchecked_len(i) as i64;
        self.refs.get(i).wrapping_add(enc.base).wrapping_add(diff)
    }

    fn compressed_bytes(&self) -> usize {
        self.enc.compressed_bytes()
    }

    fn for_each_chunk(&self, f: &mut dyn FnMut(usize, &[i64])) {
        stream_reconstructed(self, self.scratch, f);
    }

    fn decode_into(&self, out: &mut Vec<i64>) {
        let mut refs = self.scratch.refs.borrow_mut();
        self.reference.decode_into(&mut refs);
        self.enc.reconstruct(&refs, out);
    }

    fn sum_wrapping(&self) -> i64 {
        self.enc.sum_over(self.reference)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use corra_encodings::{ForInt, IntAccess, PlainInt};

    fn tpch_like(n: usize) -> (Vec<i64>, Vec<i64>) {
        // shipdate over ~7 years; receiptdate = shipdate + U[1,30]-ish.
        let ship: Vec<i64> = (0..n).map(|i| 8_035 + (i as i64 * 17 % 2_557)).collect();
        let receipt: Vec<i64> = ship
            .iter()
            .enumerate()
            .map(|(i, &s)| s + 1 + (i as i64 % 30))
            .collect();
        (ship, receipt)
    }

    #[test]
    fn roundtrip_bounded_diffs() {
        let (ship, receipt) = tpch_like(10_000);
        let enc = NonHierInt::encode(&receipt, &ship).unwrap();
        // Diff range [1,30] -> 5 bits, no outliers (paper's observation).
        assert_eq!(enc.bits(), 5);
        assert!(enc.outliers().is_empty());
        let mut out = Vec::new();
        enc.decode_into(&ship, &mut out).unwrap();
        assert_eq!(out, receipt);
    }

    #[test]
    fn random_access_matches() {
        let (ship, receipt) = tpch_like(5_000);
        let enc = NonHierInt::encode(&receipt, &ship).unwrap();
        for i in [0usize, 1, 777, 4_999] {
            assert_eq!(enc.get(i, ship[i]), receipt[i]);
        }
    }

    #[test]
    fn saving_rate_matches_paper_shape() {
        // receiptdate vertical: 12 bits; diff-encoded: 5 bits -> 58.3% saving.
        let (ship, receipt) = tpch_like(100_000);
        let vertical = ForInt::encode(&receipt);
        let horizontal = NonHierInt::encode(&receipt, &ship).unwrap();
        let saving =
            1.0 - horizontal.compressed_bytes() as f64 / vertical.compressed_bytes() as f64;
        assert!((saving - 0.583).abs() < 0.01, "saving {saving}");
    }

    #[test]
    fn negative_diffs() {
        // commitdate can precede shipdate (Fig. 1 shows -88).
        let ship: Vec<i64> = (0..1000).map(|i| 9_000 + i as i64).collect();
        let commit: Vec<i64> = ship
            .iter()
            .enumerate()
            .map(|(i, &s)| s + (i as i64 % 181) - 90)
            .collect();
        let enc = NonHierInt::encode(&commit, &ship).unwrap();
        assert!(enc.outliers().is_empty());
        assert_eq!(enc.bits(), 8); // range 180
        let mut out = Vec::new();
        enc.decode_into(&ship, &mut out).unwrap();
        assert_eq!(out, commit);
    }

    #[test]
    fn outliers_kick_in() {
        // Mostly bounded diffs plus a handful of wild rows.
        let reference: Vec<i64> = (0..10_000).map(|i| i as i64).collect();
        let mut target: Vec<i64> = reference.iter().map(|&r| r + (r % 16)).collect();
        target[5] = 1_000_000;
        target[6_000] = -5_000_000;
        let enc = NonHierInt::encode(&target, &reference).unwrap();
        assert_eq!(enc.outliers().len(), 2);
        assert_eq!(enc.bits(), 4);
        let mut out = Vec::new();
        enc.decode_into(&reference, &mut out).unwrap();
        assert_eq!(out, target);
        assert_eq!(enc.get(5, reference[5]), 1_000_000);
        assert_eq!(enc.get(6_000, reference[6_000]), -5_000_000);
    }

    #[test]
    fn outlier_cost_model_beats_naive_on_heavy_tail() {
        let reference: Vec<i64> = (0..50_000).map(|i| i as i64).collect();
        let mut target: Vec<i64> = reference.iter().map(|&r| r + (r % 8)).collect();
        // 0.1% extreme outliers.
        for i in (0..50).map(|k| k * 1_000 + 13) {
            target[i] = i as i64 * 1_000_003;
        }
        let with_model = NonHierInt::encode(&target, &reference).unwrap();
        let naive = NonHierInt::encode_no_outliers(&target, &reference).unwrap();
        assert!(with_model.compressed_bytes() < naive.compressed_bytes() / 3);
        // Both still decode losslessly.
        let mut a = Vec::new();
        let mut b = Vec::new();
        with_model.decode_into(&reference, &mut a).unwrap();
        naive.decode_into(&reference, &mut b).unwrap();
        assert_eq!(a, target);
        assert_eq!(b, target);
    }

    #[test]
    fn gather_through_compressed_reference() {
        let (ship, receipt) = tpch_like(2_000);
        let enc = NonHierInt::encode(&receipt, &ship).unwrap();
        let reference = IntEncoding::Plain(PlainInt::encode(&ship));
        let scratch = DecodeScratch::default();
        let column = NonHierColumn::new(&enc, &reference, &scratch);
        let mut out = Vec::new();
        column.gather_into(&[0, 99, 1_500], &mut out);
        assert_eq!(out, vec![receipt[0], receipt[99], receipt[1_500]]);
    }

    #[test]
    fn length_mismatch_rejected() {
        assert!(matches!(
            NonHierInt::encode(&[1, 2], &[1]),
            Err(Error::LengthMismatch { .. })
        ));
    }

    #[test]
    fn empty_columns() {
        let enc = NonHierInt::encode(&[], &[]).unwrap();
        assert!(enc.is_empty());
        let mut out = vec![9];
        enc.decode_into(&[], &mut out).unwrap();
        assert!(out.is_empty());
    }

    #[test]
    fn serialization_roundtrip() {
        let reference: Vec<i64> = (0..3_000).map(|i| i as i64 * 2).collect();
        let mut target: Vec<i64> = reference.iter().map(|&r| r + (r % 32)).collect();
        target[100] = -999_999;
        let enc = NonHierInt::encode(&target, &reference).unwrap();
        let mut buf = Vec::new();
        enc.write_to(&mut buf);
        assert_eq!(buf.len(), enc.serialized_len());
        let back = NonHierInt::read_from(&mut buf.as_slice()).unwrap();
        assert_eq!(back, enc);
        assert!(NonHierInt::read_from(&mut &buf[..7]).is_err());
    }

    #[test]
    fn plan_window_edge_cases() {
        assert_eq!(plan_window(&[]).bits, 0);
        let p = plan_window(&[5]);
        assert_eq!(p.bits, 0);
        assert_eq!(p.base, 5);
        assert_eq!(p.outliers, 0);
        // Constant diffs: zero-width window.
        let p = plan_window(&[3, 3, 3, 3]);
        assert_eq!(p.bits, 0);
        assert_eq!(p.base, 3);
    }

    #[test]
    fn plan_window_extreme_span() {
        let mut diffs = vec![0i64; 1000];
        diffs[0] = i64::MIN;
        diffs[999] = i64::MAX;
        diffs.sort_unstable();
        let p = plan_window(&diffs);
        // Two extreme rows should be outliers, window collapses to 0 bits.
        assert_eq!(p.bits, 0);
        assert_eq!(p.outliers, 2);
    }
}
