//! C3's **Numerical** encoding: the non-hierarchical scheme generalized to
//! an affine function. The target is modeled as
//! `target ≈ (slope_num · reference) / 2^SLOPE_SHIFT + intercept` with the
//! residual FOR-encoded. With a fitted slope this exploits affine-like
//! correlations (e.g. the Taxi (pickup, dropoff) pair, where C3 beats plain
//! diff encoding in Table 3).
//!
//! All prediction arithmetic is in fixed-point integers, so reconstruction
//! is exactly deterministic and lossless.

use corra_columnar::bitpack::BitPackedVec;
use corra_columnar::error::{Error, Result};

/// Fixed-point fractional bits of the fitted slope.
pub const SLOPE_SHIFT: u32 = 16;

/// Affine-function encoding of a column w.r.t. a reference column.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Numerical {
    /// Fixed-point slope (`slope_num / 2^SLOPE_SHIFT`).
    slope_num: i64,
    /// Residual frame base (absorbs the intercept).
    base: i64,
    /// FOR-packed residuals.
    residuals: BitPackedVec,
}

#[inline]
fn predict(slope_num: i64, reference: i64) -> i64 {
    (((slope_num as i128) * (reference as i128)) >> SLOPE_SHIFT) as i64
}

impl Numerical {
    /// Encodes `target` against `reference` with a least-squares-fitted
    /// slope (quantized to fixed point).
    pub fn encode(target: &[i64], reference: &[i64]) -> Result<Self> {
        if target.len() != reference.len() {
            return Err(Error::LengthMismatch {
                left: target.len(),
                right: reference.len(),
            });
        }
        let slope = fit_slope(target, reference);
        Self::encode_with_slope(target, reference, slope)
    }

    /// Encodes with an explicit fixed-point slope numerator.
    pub fn encode_with_slope(target: &[i64], reference: &[i64], slope_num: i64) -> Result<Self> {
        if target.len() != reference.len() {
            return Err(Error::LengthMismatch {
                left: target.len(),
                right: reference.len(),
            });
        }
        let residuals_raw: Vec<i64> = target
            .iter()
            .zip(reference)
            .map(|(&t, &r)| t.wrapping_sub(predict(slope_num, r)))
            .collect();
        let base = residuals_raw.iter().copied().min().unwrap_or(0);
        let offsets: Vec<u64> = residuals_raw
            .iter()
            .map(|&d| (d as i128 - base as i128) as u64)
            .collect();
        Ok(Self {
            slope_num,
            base,
            residuals: BitPackedVec::pack_minimal(&offsets),
        })
    }

    /// The fitted slope as a float (for reporting).
    pub fn slope(&self) -> f64 {
        self.slope_num as f64 / (1u64 << SLOPE_SHIFT) as f64
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.residuals.len()
    }

    /// Whether the column is empty.
    pub fn is_empty(&self) -> bool {
        self.residuals.is_empty()
    }

    /// Residual bit width.
    pub fn bits(&self) -> u8 {
        self.residuals.bits()
    }

    /// Reconstructs row `i` from the reference value.
    #[inline]
    pub fn get(&self, i: usize, reference_value: i64) -> i64 {
        predict(self.slope_num, reference_value)
            .wrapping_add(self.base)
            .wrapping_add(self.residuals.get(i) as i64)
    }

    /// Bulk decode.
    pub fn decode_into(&self, reference: &[i64], out: &mut Vec<i64>) -> Result<()> {
        if reference.len() != self.len() {
            return Err(Error::LengthMismatch {
                left: reference.len(),
                right: self.len(),
            });
        }
        out.clear();
        out.reserve(self.len());
        // Batched residual unpack fused with the affine prediction.
        let (slope_num, base) = (self.slope_num, self.base);
        self.residuals.unpack_chunks(|start, chunk| {
            for (&r, &d) in reference[start..start + chunk.len()].iter().zip(chunk) {
                out.push(
                    predict(slope_num, r)
                        .wrapping_add(base)
                        .wrapping_add(d as i64),
                );
            }
        });
        Ok(())
    }

    /// Compressed size in bytes (slope + base + residual payload).
    pub fn compressed_bytes(&self) -> usize {
        8 + 8 + 1 + self.residuals.tight_bytes()
    }
}

/// Least-squares slope of target on reference, quantized to fixed point and
/// clamped to a sane range. Falls back to slope 1 for degenerate inputs
/// (the classic diff case).
pub fn fit_slope(target: &[i64], reference: &[i64]) -> i64 {
    let n = target.len();
    if n == 0 {
        return 1 << SLOPE_SHIFT;
    }
    let mean_r: f64 = reference.iter().map(|&r| r as f64).sum::<f64>() / n as f64;
    let mean_t: f64 = target.iter().map(|&t| t as f64).sum::<f64>() / n as f64;
    let mut cov = 0f64;
    let mut var = 0f64;
    for (&t, &r) in target.iter().zip(reference) {
        let dr = r as f64 - mean_r;
        cov += dr * (t as f64 - mean_t);
        var += dr * dr;
    }
    if var < 1e-9 {
        return 1 << SLOPE_SHIFT;
    }
    let slope = (cov / var).clamp(-1024.0, 1024.0);
    (slope * (1u64 << SLOPE_SHIFT) as f64).round() as i64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slope_one_equals_diff_behaviour() {
        let reference: Vec<i64> = (0..1_000).map(|i| 5_000 + i as i64).collect();
        let target: Vec<i64> = reference
            .iter()
            .enumerate()
            .map(|(i, &r)| r + (i as i64 % 16))
            .collect();
        let enc = Numerical::encode(&target, &reference).unwrap();
        assert!((enc.slope() - 1.0).abs() < 0.01, "slope {}", enc.slope());
        let mut out = Vec::new();
        enc.decode_into(&reference, &mut out).unwrap();
        assert_eq!(out, target);
    }

    #[test]
    fn affine_correlation_beats_plain_diff() {
        // target ≈ 3·ref + noise: diff range grows with ref (bad for DFOR),
        // affine residual stays tiny.
        let reference: Vec<i64> = (0..10_000).map(|i| i as i64).collect();
        let target: Vec<i64> = reference
            .iter()
            .enumerate()
            .map(|(i, &r)| 3 * r + (i as i64 % 8))
            .collect();
        let num = Numerical::encode(&target, &reference).unwrap();
        let dfor = crate::dfor::Dfor::encode(&target, &reference).unwrap();
        assert!(
            num.compressed_bytes() * 2 < dfor.compressed_bytes(),
            "numerical {} dfor {}",
            num.compressed_bytes(),
            dfor.compressed_bytes()
        );
        let mut out = Vec::new();
        num.decode_into(&reference, &mut out).unwrap();
        assert_eq!(out, target);
    }

    #[test]
    fn lossless_on_uncorrelated_data() {
        let reference: Vec<i64> = (0..500)
            .map(|i| (i as i64).wrapping_mul(2_654_435_761))
            .collect();
        let target: Vec<i64> = (0..500).map(|i| (i as i64 * 97) % 1_000).collect();
        let enc = Numerical::encode(&target, &reference).unwrap();
        let mut out = Vec::new();
        enc.decode_into(&reference, &mut out).unwrap();
        assert_eq!(out, target);
        for i in [0, 100, 499] {
            assert_eq!(enc.get(i, reference[i]), target[i]);
        }
    }

    #[test]
    fn fractional_slope() {
        // target = ref/2 + small noise.
        let reference: Vec<i64> = (0..4_000).map(|i| i as i64 * 2).collect();
        let target: Vec<i64> = reference
            .iter()
            .enumerate()
            .map(|(i, &r)| r / 2 + (i as i64 % 4))
            .collect();
        let enc = Numerical::encode(&target, &reference).unwrap();
        assert!((enc.slope() - 0.5).abs() < 0.01);
        assert!(enc.bits() <= 4, "bits {}", enc.bits());
        let mut out = Vec::new();
        enc.decode_into(&reference, &mut out).unwrap();
        assert_eq!(out, target);
    }

    #[test]
    fn degenerate_inputs() {
        assert!(Numerical::encode(&[], &[]).unwrap().is_empty());
        assert!(Numerical::encode(&[1], &[1, 2]).is_err());
        // Constant reference: slope falls back, still lossless.
        let reference = vec![7i64; 100];
        let target: Vec<i64> = (0..100).map(|i| i as i64).collect();
        let enc = Numerical::encode(&target, &reference).unwrap();
        let mut out = Vec::new();
        enc.decode_into(&reference, &mut out).unwrap();
        assert_eq!(out, target);
    }

    #[test]
    fn explicit_slope() {
        let reference: Vec<i64> = (0..100).collect();
        let target: Vec<i64> = reference.iter().map(|&r| 2 * r).collect();
        let enc = Numerical::encode_with_slope(&target, &reference, 2 << SLOPE_SHIFT).unwrap();
        assert_eq!(enc.bits(), 0); // perfect fit
        let mut out = Vec::new();
        enc.decode_into(&reference, &mut out).unwrap();
        assert_eq!(out, target);
    }
}
