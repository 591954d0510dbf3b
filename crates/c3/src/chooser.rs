//! C3's per-pair scheme selection: "we let C3 choose the (correlation-aware)
//! encoding scheme for a given pair of columns" (Table 3 protocol).

use corra_columnar::error::Result;

use crate::dfor::Dfor;
use crate::hier_for::HierFor;
use crate::numerical::Numerical;
use crate::one_to_one::OneToOne;

/// The C3 scheme chosen for a column pair.
#[derive(Debug, Clone, PartialEq)]
pub enum C3Encoding {
    /// Diff + FOR.
    Dfor(Dfor),
    /// Affine function + residual FOR.
    Numerical(Numerical),
    /// Functional-dependency mapping.
    OneToOne(OneToOne),
    /// Hierarchical family: per-reference child dictionary + FOR index.
    HierFor(HierFor),
}

impl C3Encoding {
    /// Scheme name as printed in Table 3.
    pub fn scheme(&self) -> &'static str {
        match self {
            C3Encoding::Dfor(_) => "DFOR",
            C3Encoding::Numerical(_) => "Numerical",
            C3Encoding::OneToOne(_) => "1-to-1",
            C3Encoding::HierFor(e) => {
                if e.is_one_to_one() {
                    "1-to-1"
                } else {
                    "DFOR (hier)"
                }
            }
        }
    }

    /// Compressed size in bytes.
    pub fn compressed_bytes(&self) -> usize {
        match self {
            C3Encoding::Dfor(e) => e.compressed_bytes(),
            C3Encoding::Numerical(e) => e.compressed_bytes(),
            C3Encoding::OneToOne(e) => e.compressed_bytes(),
            C3Encoding::HierFor(e) => e.compressed_bytes(),
        }
    }

    /// Bulk decode through the reference column.
    pub fn decode_into(&self, reference: &[i64], out: &mut Vec<i64>) -> Result<()> {
        match self {
            C3Encoding::Dfor(e) => e.decode_into(reference, out),
            C3Encoding::Numerical(e) => e.decode_into(reference, out),
            C3Encoding::OneToOne(e) => e.decode_into(reference, out),
            C3Encoding::HierFor(e) => e.decode_into(reference, out),
        }
    }
}

/// Encodes `target` with every C3 scheme and returns the smallest.
///
/// The 1-to-1 scheme is only eligible when the dependency is (nearly)
/// functional — C3 applies it to pairs like (city, zip) where the reverse
/// mapping is exact; a high exception count disqualifies it.
pub fn choose(target: &[i64], reference: &[i64]) -> Result<C3Encoding> {
    let dfor = C3Encoding::Dfor(Dfor::encode(target, reference)?);
    let numerical = C3Encoding::Numerical(Numerical::encode(target, reference)?);
    let one = OneToOne::encode(target, reference)?;
    let mut best = if numerical.compressed_bytes() < dfor.compressed_bytes() {
        numerical
    } else {
        dfor
    };
    // 1-to-1 qualifies with < 5% exceptions.
    if one.exceptions() * 20 < target.len().max(1) {
        let one = C3Encoding::OneToOne(one);
        if one.compressed_bytes() < best.compressed_bytes() {
            best = one;
        }
    }
    // The hierarchical family qualifies when the reference cardinality is
    // small enough for per-reference dictionaries to amortize.
    let distinct = {
        let mut v = reference.to_vec();
        v.sort_unstable();
        v.dedup();
        v.len()
    };
    if distinct * 16 < target.len().max(1) {
        let hf = C3Encoding::HierFor(HierFor::encode(target, reference)?);
        if hf.compressed_bytes() < best.compressed_bytes() {
            best = hf;
        }
    }
    Ok(best)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn picks_dfor_for_bounded_diffs() {
        let reference: Vec<i64> = (0..20_000)
            .map(|i| 8_000 + (i as i64 * 13 % 2_500))
            .collect();
        let target: Vec<i64> = reference
            .iter()
            .enumerate()
            .map(|(i, &r)| r + 1 + (i as i64 % 30))
            .collect();
        let enc = choose(&target, &reference).unwrap();
        // DFOR and Numerical tie here (slope 1); either is acceptable, but
        // it must decode losslessly and be small.
        let mut out = Vec::new();
        enc.decode_into(&reference, &mut out).unwrap();
        assert_eq!(out, target);
        assert!(enc.compressed_bytes() < 20_000); // < 8 bits/row
    }

    #[test]
    fn picks_numerical_for_affine() {
        let reference: Vec<i64> = (0..20_000).map(|i| i as i64).collect();
        let target: Vec<i64> = reference
            .iter()
            .enumerate()
            .map(|(i, &r)| 5 * r + (i as i64 % 4))
            .collect();
        let enc = choose(&target, &reference).unwrap();
        assert_eq!(enc.scheme(), "Numerical");
    }

    #[test]
    fn picks_one_to_one_for_functional_dependency() {
        let reference: Vec<i64> = (0..20_000).map(|i| i as i64 % 300).collect();
        let target: Vec<i64> = reference.iter().map(|&r| (r * r) % 10_007).collect();
        let enc = choose(&target, &reference).unwrap();
        assert_eq!(enc.scheme(), "1-to-1");
        let mut out = Vec::new();
        enc.decode_into(&reference, &mut out).unwrap();
        assert_eq!(out, target);
    }

    #[test]
    fn one_to_one_disqualified_by_exceptions() {
        // Noisy mapping: >5% violations.
        let reference: Vec<i64> = (0..10_000).map(|i| i as i64 % 100).collect();
        let target: Vec<i64> = reference
            .iter()
            .enumerate()
            .map(|(i, &r)| if i % 10 == 0 { i as i64 } else { r * 3 })
            .collect();
        let enc = choose(&target, &reference).unwrap();
        assert_ne!(enc.scheme(), "1-to-1");
        let mut out = Vec::new();
        enc.decode_into(&reference, &mut out).unwrap();
        assert_eq!(out, target);
    }
}
