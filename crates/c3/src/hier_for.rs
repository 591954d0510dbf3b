//! C3's hierarchical-family encoding: per-reference-value child
//! dictionaries with the per-row group index compressed via FOR.
//!
//! The Corra paper describes C3 as "explor\[ing\] more implementations of
//! hierarchical encoding schemes, e.g., using FOR for the diff-encoded
//! column", and its 1-to-1 scheme as the special case where the child is
//! directly inferable from the reference. [`HierFor`] covers both: each
//! distinct reference value owns an ordered list of its children; a row
//! stores the child's index in that list, FOR + bit-packed. When every
//! reference value has exactly one child the index column packs to zero
//! bits — the 1-to-1 case.

use corra_columnar::bitpack::BitPackedVec;
use corra_columnar::error::{Error, Result};
use rustc_hash::FxHashMap;

/// Hierarchical FOR encoding keyed by raw reference values.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HierFor {
    /// Sorted distinct reference values.
    ref_keys: Vec<i64>,
    /// Flattened child values grouped by reference key.
    children: Vec<i64>,
    /// Group start offsets (len = ref_keys.len() + 1).
    offsets: Vec<u32>,
    /// Per-row index within the reference's group, FOR-packed.
    codes: BitPackedVec,
}

impl HierFor {
    /// Encodes `target` against `reference`.
    pub fn encode(target: &[i64], reference: &[i64]) -> Result<Self> {
        if target.len() != reference.len() {
            return Err(Error::LengthMismatch {
                left: target.len(),
                right: reference.len(),
            });
        }
        // Group children per reference value, insertion-ordered.
        let mut groups: FxHashMap<i64, Vec<i64>> = FxHashMap::default();
        let mut index: FxHashMap<(i64, i64), u32> = FxHashMap::default();
        let mut raw_codes = Vec::with_capacity(target.len());
        for (&t, &r) in target.iter().zip(reference) {
            let code = *index.entry((r, t)).or_insert_with(|| {
                let g = groups.entry(r).or_default();
                g.push(t);
                (g.len() - 1) as u32
            });
            raw_codes.push(code as u64);
        }
        let mut ref_keys: Vec<i64> = groups.keys().copied().collect();
        ref_keys.sort_unstable();
        let mut children = Vec::new();
        let mut offsets = Vec::with_capacity(ref_keys.len() + 1);
        offsets.push(0u32);
        for k in &ref_keys {
            children.extend_from_slice(&groups[k]);
            offsets.push(children.len() as u32);
        }
        Ok(Self {
            ref_keys,
            children,
            offsets,
            codes: BitPackedVec::pack_minimal(&raw_codes),
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

    /// Per-row index width (0 in the pure 1-to-1 case).
    pub fn bits(&self) -> u8 {
        self.codes.bits()
    }

    /// Whether the dependency is functional (1-to-1 case).
    pub fn is_one_to_one(&self) -> bool {
        self.codes.bits() == 0
    }

    /// Reconstructs row `i` from the reference value.
    pub fn get(&self, i: usize, reference_value: i64) -> i64 {
        let k = self
            .ref_keys
            .binary_search(&reference_value)
            .expect("reference value was present at encode time");
        self.children[(self.offsets[k] + self.codes.get(i) as u32) as usize]
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
        // Batched group-index unpack; the key lookup memoizes the previous
        // reference value (references are frequently run-heavy).
        let mut unseen = false;
        let mut bad_code = false;
        let mut memo: Option<(i64, usize)> = None;
        self.codes.unpack_chunks(|start, chunk| {
            if unseen || bad_code {
                return;
            }
            for (&r, &c) in reference[start..start + chunk.len()].iter().zip(chunk) {
                let k = match memo {
                    Some((mr, mk)) if mr == r => mk,
                    _ => match self.ref_keys.binary_search(&r) {
                        Ok(k) => {
                            memo = Some((r, k));
                            k
                        }
                        Err(_) => {
                            unseen = true;
                            return;
                        }
                    },
                };
                // A code must index within its row's group: the row ->
                // group mapping depends on the reference, so a reference
                // other than the encode-time one is caught here.
                let idx = self.offsets[k] as usize + c as usize;
                if idx >= self.offsets[k + 1] as usize {
                    bad_code = true;
                    return;
                }
                out.push(self.children[idx]);
            }
        });
        if unseen {
            return Err(Error::invalid("reference value unseen at encode time"));
        }
        if bad_code {
            return Err(Error::corrupt("hier-for code outside its group"));
        }
        Ok(())
    }

    /// Compressed size: packed index column + child values + offsets.
    ///
    /// As with [`crate::one_to_one::OneToOne`], the reference-key side rides
    /// along with the reference column's own dictionary and is not charged.
    pub fn compressed_bytes(&self) -> usize {
        1 + self.codes.tight_bytes() + self.children.len() * 8 + self.offsets.len() * 4
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_hierarchical() {
        // 50 parents, 4 children each.
        let reference: Vec<i64> = (0..10_000).map(|i| (i % 50) as i64).collect();
        let target: Vec<i64> = (0..10_000)
            .map(|i| (i % 50) as i64 * 1_000 + (i / 50 % 4) as i64)
            .collect();
        let enc = HierFor::encode(&target, &reference).unwrap();
        assert_eq!(enc.bits(), 2);
        assert!(!enc.is_one_to_one());
        let mut out = Vec::new();
        enc.decode_into(&reference, &mut out).unwrap();
        assert_eq!(out, target);
        assert_eq!(enc.get(7, reference[7]), target[7]);
    }

    #[test]
    fn one_to_one_collapses_to_zero_bits() {
        let reference: Vec<i64> = (0..5_000).map(|i| (i % 100) as i64).collect();
        let target: Vec<i64> = reference.iter().map(|&r| r * 3 + 7).collect();
        let enc = HierFor::encode(&target, &reference).unwrap();
        assert!(enc.is_one_to_one());
        assert_eq!(enc.bits(), 0);
        let mut out = Vec::new();
        enc.decode_into(&reference, &mut out).unwrap();
        assert_eq!(out, target);
    }

    #[test]
    fn mismatch_and_empty() {
        assert!(HierFor::encode(&[1], &[]).is_err());
        let enc = HierFor::encode(&[], &[]).unwrap();
        assert!(enc.is_empty());
    }
}
