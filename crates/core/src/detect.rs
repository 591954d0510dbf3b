//! Automatic correlation detection.
//!
//! The paper's conclusion names "automatic correlation detection, especially
//! for our non-hierarchical encoding scheme with multiple reference columns"
//! as future work; this module implements it as an extension. All detectors
//! work on a prefix sample so they stay cheap on block-sized inputs.

use corra_columnar::column::Column;
use corra_columnar::error::{Error, Result};
use corra_columnar::stats::{IntStats, StringStats};
use corra_encodings::chooser::{estimate_dict_bytes, estimate_for_bytes};

use crate::multiref::{Formula, FormulaMatches, MAX_GROUPS};
use crate::nonhier::plan_window;

/// A detected non-hierarchical (single-reference) correlation.
#[derive(Debug, Clone, PartialEq)]
pub struct NonHierCandidate {
    /// Index of the diff-encoded (target) column.
    pub target: usize,
    /// Index of the reference column.
    pub reference: usize,
    /// Estimated compressed size when diff-encoded (bytes, at sample scale).
    pub diff_bytes: usize,
    /// Estimated best vertical size (bytes, at sample scale).
    pub vertical_bytes: usize,
    /// Estimated saving rate in `[0, 1)`.
    pub saving_rate: f64,
}

/// A detected hierarchical correlation (parent determines a small child set).
#[derive(Debug, Clone, PartialEq)]
pub struct HierCandidate {
    /// Index of the parent (reference) column.
    pub parent: usize,
    /// Index of the child (diff-encoded) column.
    pub child: usize,
    /// Distinct parents in the sample.
    pub parent_distinct: usize,
    /// Distinct children in the sample.
    pub child_distinct: usize,
    /// Largest per-parent child-group size observed.
    pub max_group: usize,
    /// Per-row bits with a global dictionary.
    pub global_bits: u8,
    /// Per-row bits with per-parent groups.
    pub hier_bits: u8,
}

/// A detected multi-reference formula set.
#[derive(Debug, Clone, PartialEq)]
pub struct MultiRefCandidate {
    /// Reference column indices, one group each (group letter = position).
    pub references: Vec<usize>,
    /// Discovered formulas with their coverage fraction, best first.
    pub formulas: Vec<(Formula, f64)>,
    /// Fraction of sampled rows covered by no formula (future outliers).
    pub outlier_rate: f64,
}

/// Scans all ordered integer-column pairs and returns diff-encoding
/// candidates whose estimated saving exceeds `min_saving`.
pub fn detect_nonhier(
    columns: &[(&str, &[i64])],
    sample_rows: usize,
    min_saving: f64,
) -> Vec<NonHierCandidate> {
    let mut out = Vec::new();
    let rows = columns.first().map_or(0, |(_, c)| c.len());
    let take = sample_rows.min(rows);
    if take == 0 {
        return out;
    }
    let vertical: Vec<usize> = columns
        .iter()
        .map(|(_, c)| {
            let stats = IntStats::compute(&c[..take]);
            estimate_for_bytes(&stats).min(estimate_dict_bytes(&stats))
        })
        .collect();
    let mut diffs = Vec::with_capacity(take);
    for (t, (_, target)) in columns.iter().enumerate() {
        for (r, (_, reference)) in columns.iter().enumerate() {
            if t == r {
                continue;
            }
            diffs.clear();
            diffs.extend(
                target[..take]
                    .iter()
                    .zip(&reference[..take])
                    .map(|(&a, &b)| a.wrapping_sub(b)),
            );
            diffs.sort_unstable();
            let plan = plan_window(&diffs);
            let diff_bytes = plan.cost + 9;
            let saving = 1.0 - diff_bytes as f64 / vertical[t].max(1) as f64;
            if saving >= min_saving {
                out.push(NonHierCandidate {
                    target: t,
                    reference: r,
                    diff_bytes,
                    vertical_bytes: vertical[t],
                    saving_rate: saving,
                });
            }
        }
    }
    out.sort_by(|a, b| b.saving_rate.total_cmp(&a.saving_rate));
    out
}

/// Detects parent→child hierarchies among columns: a pair qualifies when the
/// parent has few distinct values and each parent maps to a child set much
/// smaller than the global child domain.
pub fn detect_hierarchies(
    columns: &[(&str, &Column)],
    sample_rows: usize,
) -> Result<Vec<HierCandidate>> {
    use rustc_hash::{FxHashMap, FxHashSet};
    let mut out = Vec::new();
    let rows = columns.first().map_or(0, |(_, c)| c.len());
    let take = sample_rows.min(rows);
    if take == 0 {
        return Ok(out);
    }
    // Row keys: strings hashed to u64 ids for uniform treatment.
    let keys: Vec<Vec<u64>> = columns
        .iter()
        .map(|(_, c)| -> Result<Vec<u64>> {
            Ok(match c {
                Column::Int64(v) => v[..take].iter().map(|&x| x as u64).collect(),
                Column::Utf8(p) => {
                    let mut ids: FxHashMap<String, u64> = FxHashMap::default();
                    (0..take)
                        .map(|i| {
                            let next = ids.len() as u64;
                            *ids.entry(p.get(i).to_owned()).or_insert(next)
                        })
                        .collect()
                }
            })
        })
        .collect::<Result<_>>()?;
    let distinct: Vec<usize> = columns
        .iter()
        .map(|(_, c)| match c {
            Column::Int64(v) => IntStats::compute(&v[..take]).distinct,
            Column::Utf8(p) => {
                let sliced = Column::Utf8(p.clone()).slice(0, take);
                match sliced {
                    Column::Utf8(sp) => StringStats::compute(&sp).distinct,
                    _ => unreachable!(),
                }
            }
        })
        .collect();
    for (p_idx, _) in columns.iter().enumerate() {
        for (c_idx, _) in columns.iter().enumerate() {
            if p_idx == c_idx || distinct[p_idx] == 0 {
                continue;
            }
            // Group children by parent.
            let mut groups: FxHashMap<u64, FxHashSet<u64>> = FxHashMap::default();
            for (&pk, &ck) in keys[p_idx].iter().zip(&keys[c_idx]).take(take) {
                groups.entry(pk).or_default().insert(ck);
            }
            let max_group = groups.values().map(FxHashSet::len).max().unwrap_or(0);
            let global_bits = bits_for_card(distinct[c_idx]);
            let hier_bits = bits_for_card(max_group);
            if hier_bits < global_bits {
                out.push(HierCandidate {
                    parent: p_idx,
                    child: c_idx,
                    parent_distinct: distinct[p_idx],
                    child_distinct: distinct[c_idx],
                    max_group,
                    global_bits,
                    hier_bits,
                });
            }
        }
    }
    out.sort_by_key(|c| std::cmp::Reverse(c.global_bits as i32 - c.hier_bits as i32));
    Ok(out)
}

fn bits_for_card(card: usize) -> u8 {
    if card <= 1 {
        0
    } else {
        corra_columnar::bitpack::bits_needed(card as u64 - 1)
    }
}

/// Discovers subset-sum formulas explaining `target` from `references`
/// (each reference column is its own group). Returns coverage-ordered
/// formulas plus the residual outlier rate on the sample.
pub fn detect_multiref(
    target: &[i64],
    references: &[(&str, &[i64])],
    sample_rows: usize,
    max_formulas: usize,
) -> Result<MultiRefCandidate> {
    let g = references.len();
    if g == 0 || g > MAX_GROUPS {
        return Err(Error::invalid(format!(
            "need 1..={MAX_GROUPS} references, got {g}"
        )));
    }
    let rows = target.len();
    for (_, r) in references {
        if r.len() != rows {
            return Err(Error::LengthMismatch {
                left: rows,
                right: r.len(),
            });
        }
    }
    let take = sample_rows.min(rows);
    let sums: Vec<&[i64]> = references.iter().map(|&(_, r)| r).collect();
    let (picked, _) = FormulaMatches::new(&target[..take], &sums).greedy_cover(max_formulas);
    let covered: usize = picked.iter().map(|&(_, count)| count).sum();
    Ok(MultiRefCandidate {
        references: (0..g).collect(),
        formulas: picked
            .into_iter()
            .map(|(f, count)| (f, count as f64 / take.max(1) as f64))
            .collect(),
        outlier_rate: (take - covered) as f64 / take.max(1) as f64,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use corra_columnar::strings::StringPool;

    #[test]
    fn detects_date_correlation() {
        let ship: Vec<i64> = (0..10_000)
            .map(|i| 8_035 + (i as i64 * 13 % 2_500))
            .collect();
        let receipt: Vec<i64> = ship
            .iter()
            .enumerate()
            .map(|(i, &s)| s + 1 + (i as i64 % 30))
            .collect();
        let cols: Vec<(&str, &[i64])> = vec![("ship", &ship), ("receipt", &receipt)];
        let cands = detect_nonhier(&cols, 5_000, 0.2);
        assert!(!cands.is_empty());
        // Diff ranges are symmetric, so both directions must be detected
        // with essentially the same (large) saving.
        let fwd = cands
            .iter()
            .find(|c| (c.target, c.reference) == (1, 0))
            .unwrap();
        let bwd = cands
            .iter()
            .find(|c| (c.target, c.reference) == (0, 1))
            .unwrap();
        assert!(fwd.saving_rate > 0.5, "saving {}", fwd.saving_rate);
        assert!((fwd.saving_rate - bwd.saving_rate).abs() < 0.05);
    }

    #[test]
    fn no_candidates_on_uncorrelated_data() {
        let a: Vec<i64> = (0..5_000)
            .map(|i| (i as i64).wrapping_mul(2_654_435_761))
            .collect();
        let b: Vec<i64> = (0..5_000)
            .map(|i| (i as i64 + 99).wrapping_mul(40_503))
            .collect();
        let cols: Vec<(&str, &[i64])> = vec![("a", &a), ("b", &b)];
        let cands = detect_nonhier(&cols, 5_000, 0.05);
        assert!(cands.is_empty(), "{cands:?}");
    }

    #[test]
    fn detects_city_zip_hierarchy() {
        // 50 cities, 4 zips each, zips globally distinct.
        let n = 20_000usize;
        let city_ids: Vec<i64> = (0..n).map(|i| (i % 50) as i64).collect();
        let zips: Vec<i64> = (0..n)
            .map(|i| (i % 50) as i64 * 100 + (i / 50 % 4) as i64)
            .collect();
        let city_col = Column::Int64(city_ids);
        let zip_col = Column::Int64(zips);
        let cols: Vec<(&str, &Column)> = vec![("city", &city_col), ("zip", &zip_col)];
        let cands = detect_hierarchies(&cols, 10_000).unwrap();
        assert!(!cands.is_empty());
        let top = &cands[0];
        assert_eq!((top.parent, top.child), (0, 1));
        assert_eq!(top.max_group, 4);
        assert_eq!(top.hier_bits, 2);
        assert!(top.global_bits >= 7); // 200 distinct zips
    }

    #[test]
    fn detects_string_hierarchy() {
        let states: Vec<&str> = (0..1_000)
            .map(|i| if i % 2 == 0 { "NY" } else { "FL" })
            .collect();
        let cities: Vec<&str> = (0..1_000)
            .map(|i| match (i % 2, i % 4 / 2) {
                (0, 0) => "NYC",
                (0, _) => "Albany",
                (1, 0) => "Miami",
                _ => "Naples",
            })
            .collect();
        let state_col = Column::Utf8(StringPool::from_iter(states));
        let city_col = Column::Utf8(StringPool::from_iter(cities));
        let cols: Vec<(&str, &Column)> = vec![("state", &state_col), ("city", &city_col)];
        let cands = detect_hierarchies(&cols, 1_000).unwrap();
        let found = cands.iter().find(|c| c.parent == 0 && c.child == 1);
        assert!(found.is_some(), "{cands:?}");
        assert_eq!(found.unwrap().max_group, 2);
    }

    #[test]
    fn discovers_taxi_formulas() {
        let n = 10_000;
        let a: Vec<i64> = (0..n).map(|i| 500 + (i as i64 % 700)).collect();
        let b = vec![250i64; n];
        let c = vec![125i64; n];
        let target: Vec<i64> = (0..n)
            .map(|i| match i % 100 {
                0..=30 => a[i],
                31..=93 => a[i] + b[i],
                94..=96 => a[i] + c[i],
                97..=98 => a[i] + b[i] + c[i],
                _ => -1,
            })
            .collect();
        let refs: Vec<(&str, &[i64])> = vec![("A", &a), ("B", &b), ("C", &c)];
        let cand = detect_multiref(&target, &refs, n, 4).unwrap();
        assert_eq!(cand.formulas.len(), 4);
        assert_eq!(cand.formulas[0].0 .0, 0b011); // A+B dominates
        assert!((cand.outlier_rate - 0.01).abs() < 0.005);
    }

    #[test]
    fn multiref_rejects_bad_input() {
        assert!(detect_multiref(&[1], &[], 1, 4).is_err());
        let a = vec![1i64];
        let b = vec![1i64, 2];
        let refs: Vec<(&str, &[i64])> = vec![("a", &a), ("b", &b)];
        assert!(detect_multiref(&[1], &refs, 1, 4).is_err());
    }

    #[test]
    fn empty_inputs() {
        assert!(detect_nonhier(&[], 100, 0.1).is_empty());
        let cands = detect_hierarchies(&[], 100).unwrap();
        assert!(cands.is_empty());
    }
}
