//! C3's **1-to-1** encoding: "specialized for the case where one could
//! directly infer the diff-encoded column from the reference column."
//!
//! When a functional dependency reference → target holds (each reference
//! value maps to exactly one target value), the target column needs *zero*
//! bits per row — just a mapping table keyed by the reference's dictionary
//! code, plus an exception list for rows violating the dependency.

use corra_columnar::error::{Error, Result};
use rustc_hash::FxHashMap;

/// 1-to-1 mapping encoding of a target column w.r.t. a reference column.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OneToOne {
    len: usize,
    /// Distinct reference values, sorted (the mapping key side).
    ref_keys: Vec<i64>,
    /// Mapped target value per key.
    mapped: Vec<i64>,
    /// Sorted exception row indices (rows violating the dependency).
    exc_pos: Vec<u32>,
    /// Exception values aligned with `exc_pos`.
    exc_val: Vec<i64>,
}

impl OneToOne {
    /// Encodes `target` against `reference`. The first observed target value
    /// per reference key becomes the mapping; later disagreeing rows become
    /// exceptions.
    pub fn encode(target: &[i64], reference: &[i64]) -> Result<Self> {
        if target.len() != reference.len() {
            return Err(Error::LengthMismatch {
                left: target.len(),
                right: reference.len(),
            });
        }
        let mut map: FxHashMap<i64, i64> = FxHashMap::default();
        let mut exc_pos = Vec::new();
        let mut exc_val = Vec::new();
        for (i, (&t, &r)) in target.iter().zip(reference).enumerate() {
            match map.entry(r) {
                std::collections::hash_map::Entry::Vacant(e) => {
                    e.insert(t);
                }
                std::collections::hash_map::Entry::Occupied(e) => {
                    if *e.get() != t {
                        exc_pos.push(i as u32);
                        exc_val.push(t);
                    }
                }
            }
        }
        let mut pairs: Vec<(i64, i64)> = map.into_iter().collect();
        pairs.sort_unstable_by_key(|&(k, _)| k);
        let (ref_keys, mapped) = pairs.into_iter().unzip();
        Ok(Self {
            len: target.len(),
            ref_keys,
            mapped,
            exc_pos,
            exc_val,
        })
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the column is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Number of exception rows (0 iff the dependency is exact).
    pub fn exceptions(&self) -> usize {
        self.exc_pos.len()
    }

    /// Whether the functional dependency held exactly.
    pub fn is_exact(&self) -> bool {
        self.exc_pos.is_empty()
    }

    /// Reconstructs row `i` from the reference value.
    pub fn get(&self, i: usize, reference_value: i64) -> i64 {
        if let Ok(k) = self.exc_pos.binary_search(&(i as u32)) {
            return self.exc_val[k];
        }
        let k = self
            .ref_keys
            .binary_search(&reference_value)
            .expect("reference value was present at encode time");
        self.mapped[k]
    }

    /// Bulk decode.
    pub fn decode_into(&self, reference: &[i64], out: &mut Vec<i64>) -> Result<()> {
        if reference.len() != self.len {
            return Err(Error::LengthMismatch {
                left: reference.len(),
                right: self.len,
            });
        }
        out.clear();
        out.reserve(self.len);
        // Memoize the previous key: references are frequently run-heavy, so
        // most rows skip the binary search entirely.
        let mut memo: Option<(i64, usize)> = None;
        for &r in reference {
            let k = match memo {
                Some((mr, mk)) if mr == r => mk,
                _ => {
                    let k = self
                        .ref_keys
                        .binary_search(&r)
                        .map_err(|_| Error::invalid("reference value unseen at encode time"))?;
                    memo = Some((r, k));
                    k
                }
            };
            out.push(self.mapped[k]);
        }
        for (j, &p) in self.exc_pos.iter().enumerate() {
            out[p as usize] = self.exc_val[j];
        }
        Ok(())
    }

    /// Compressed size: mapping table + exceptions. Zero bits per row.
    ///
    /// The mapped-values side is charged; the key side rides along with the
    /// reference column's own dictionary (C3 keys the map by the reference
    /// dict code), so it is *not* charged here.
    pub fn compressed_bytes(&self) -> usize {
        self.mapped.len() * 8 + self.exc_pos.len() * 12
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exact_dependency() {
        // zip -> city-id: every zip belongs to exactly one city.
        let reference: Vec<i64> = (0..10_000).map(|i| 10_000 + (i as i64 % 500)).collect();
        let target: Vec<i64> = reference.iter().map(|&z| z / 100).collect();
        let enc = OneToOne::encode(&target, &reference).unwrap();
        assert!(enc.is_exact());
        let mut out = Vec::new();
        enc.decode_into(&reference, &mut out).unwrap();
        assert_eq!(out, target);
        assert_eq!(enc.get(77, reference[77]), target[77]);
        // 500 mapping entries only.
        assert_eq!(enc.compressed_bytes(), 500 * 8);
    }

    #[test]
    fn violations_become_exceptions() {
        let reference = vec![1i64, 1, 2, 2, 1];
        let target = vec![10i64, 10, 20, 21, 11];
        let enc = OneToOne::encode(&target, &reference).unwrap();
        assert_eq!(enc.exceptions(), 2); // rows 3 and 4 disagree
        let mut out = Vec::new();
        enc.decode_into(&reference, &mut out).unwrap();
        assert_eq!(out, target);
        assert_eq!(enc.get(3, 2), 21);
        assert_eq!(enc.get(4, 1), 11);
    }

    #[test]
    fn unseen_reference_value_errors() {
        let enc = OneToOne::encode(&[5], &[1]).unwrap();
        let mut out = Vec::new();
        assert!(enc.decode_into(&[2], &mut out).is_err());
    }

    #[test]
    fn empty_and_mismatch() {
        assert!(OneToOne::encode(&[], &[]).unwrap().is_empty());
        assert!(OneToOne::encode(&[1], &[]).is_err());
    }

    #[test]
    fn beats_everything_on_exact_dependencies() {
        let reference: Vec<i64> = (0..50_000).map(|i| i as i64 % 1_000).collect();
        let target: Vec<i64> = reference.iter().map(|&r| r * 7 + 13).collect();
        let one = OneToOne::encode(&target, &reference).unwrap();
        let dfor = crate::dfor::Dfor::encode(&target, &reference).unwrap();
        assert!(one.compressed_bytes() < dfor.compressed_bytes() / 4);
    }
}
