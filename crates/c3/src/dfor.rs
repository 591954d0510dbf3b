//! C3's **DFOR** encoding: diff against the reference, then plain FOR +
//! bit-packing on the diff column (no outlier region — C3's DFOR, as
//! described in the Corra paper's Independent Work section, compresses the
//! whole diff column via FOR).

use corra_columnar::bitpack::BitPackedVec;
use corra_columnar::error::{Error, Result};

/// A column DFOR-encoded w.r.t. a reference column.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Dfor {
    base: i64,
    diffs: BitPackedVec,
}

impl Dfor {
    /// Encodes `target` against `reference`.
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
        let base = diffs.iter().copied().min().unwrap_or(0);
        let offsets: Vec<u64> = diffs
            .iter()
            .map(|&d| (d as i128 - base as i128) as u64)
            .collect();
        Ok(Self {
            base,
            diffs: BitPackedVec::pack_minimal(&offsets),
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

    /// Diff bit width.
    pub fn bits(&self) -> u8 {
        self.diffs.bits()
    }

    /// Reconstructs row `i` given the reference value.
    #[inline]
    pub fn get(&self, i: usize, reference_value: i64) -> i64 {
        reference_value
            .wrapping_add(self.base)
            .wrapping_add(self.diffs.get(i) as i64)
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
        // Batched diff unpack fused with the reference add.
        let base = self.base;
        self.diffs.unpack_chunks(|start, chunk| {
            for (&r, &d) in reference[start..start + chunk.len()].iter().zip(chunk) {
                out.push(r.wrapping_add(base).wrapping_add(d as i64));
            }
        });
        Ok(())
    }

    /// Compressed size in bytes.
    pub fn compressed_bytes(&self) -> usize {
        8 + 1 + self.diffs.tight_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip() {
        let reference: Vec<i64> = (0..1_000).map(|i| 8_000 + i as i64).collect();
        let target: Vec<i64> = reference
            .iter()
            .enumerate()
            .map(|(i, &r)| r + 1 + (i as i64 % 30))
            .collect();
        let enc = Dfor::encode(&target, &reference).unwrap();
        assert_eq!(enc.bits(), 5);
        let mut out = Vec::new();
        enc.decode_into(&reference, &mut out).unwrap();
        assert_eq!(out, target);
        assert_eq!(enc.get(7, reference[7]), target[7]);
    }

    #[test]
    fn no_outlier_handling_means_full_width_on_spikes() {
        let reference: Vec<i64> = (0..1_000).map(|i| i as i64).collect();
        let mut target: Vec<i64> = reference.iter().map(|&r| r + (r % 8)).collect();
        target[500] = 1_000_000_000;
        let enc = Dfor::encode(&target, &reference).unwrap();
        // One spike blows up the whole column's width — the weakness Corra's
        // outlier region fixes.
        assert!(enc.bits() >= 30);
        let mut out = Vec::new();
        enc.decode_into(&reference, &mut out).unwrap();
        assert_eq!(out, target);
    }

    #[test]
    fn empty_and_mismatch() {
        assert!(Dfor::encode(&[], &[]).unwrap().is_empty());
        assert!(Dfor::encode(&[1], &[]).is_err());
    }
}
