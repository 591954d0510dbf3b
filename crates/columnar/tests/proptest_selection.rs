//! The bitmap `SelectionVector` against a plain sorted-positions model.
//!
//! Every operation — the constructors, the kernels' writes, `AND` / `OR` /
//! `NOT`, `len`, `selectivity`, `validate`, `positions`, equality and the
//! `Debug` text the simulator fingerprints — must answer exactly what the
//! same operation answers on a sorted, deduplicated `Vec<u32>`, at row
//! counts on both sides of every word boundary and for operands whose
//! bitmaps have different lengths.

use corra_columnar::selection::SelectionVector;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Row counts on both sides of a word, of a 1 024-row chunk, and a block.
const ROWS: [usize; 9] = [0, 1, 63, 64, 65, 1023, 1024, 1025, 32_768];

/// A model selection of `rows` rows: empty, full, one row, or each row
/// with a random density.
fn model(rows: usize, rng: &mut StdRng) -> Vec<u32> {
    match rng.gen_range(0..4u32) {
        0 => Vec::new(),
        1 => (0..rows as u32).collect(),
        2 if rows > 0 => vec![rng.gen_range(0..rows as u32)],
        _ => {
            let density = rng.gen_range(0.0..1.0);
            (0..rows as u32).filter(|_| rng.gen_bool(density)).collect()
        }
    }
}

fn words_of(positions: &[u32], rows: usize) -> Vec<u64> {
    let mut words = vec![0u64; rows.div_ceil(64)];
    for &p in positions {
        words[p as usize / 64] |= 1 << (p % 64);
    }
    words
}

/// The model built every way a selection is built: `new` over a shuffled
/// copy with duplicates and `from_sorted` (bitmaps `last + 1` long),
/// `from_words`, and a kernel's writes into `none(rows)` at unaligned
/// starts, negated or not, plus `set_range` runs (bitmaps `rows` long).
fn builds(positions: &[u32], rows: usize, rng: &mut StdRng) -> Vec<SelectionVector> {
    let mut shuffled = positions.to_vec();
    shuffled.extend(positions.iter().take(3));
    for i in (1..shuffled.len()).rev() {
        shuffled.swap(i, rng.gen_range(0..=i));
    }
    let mut written = SelectionVector::none(rows);
    let mut start = 0;
    while start < rows {
        let n = rng.gen_range(1..=(rows - start).min(200));
        let (lo, hi) = (start as u32, (start + n) as u32);
        let from = positions.partition_point(|&p| p < lo);
        let to = positions.partition_point(|&p| p < hi);
        let span: Vec<u32> = positions[from..to].iter().map(|&p| p - lo).collect();
        if rng.gen_bool(0.5) {
            let inverse: Vec<u32> = (0..n as u32).filter(|p| !span.contains(p)).collect();
            written.write_bits(start, &words_of(&inverse, n), n, true);
        } else if span.len() == n {
            written.set_range(start, start + n);
        } else {
            written.write_bits(start, &words_of(&span, n), n, false);
        }
        start += n;
    }
    vec![
        SelectionVector::new(shuffled),
        SelectionVector::from_sorted(positions.to_vec()).unwrap(),
        SelectionVector::from_words(words_of(positions, rows), rows),
        written,
    ]
}

fn check_one(sel: &SelectionVector, want: &[u32], rows: usize) -> Result<(), TestCaseError> {
    prop_assert_eq!(sel.positions(), want);
    prop_assert_eq!(sel.len(), want.len());
    prop_assert_eq!(sel.is_empty(), want.is_empty());
    for r in [0, 1, rows / 2, rows.saturating_sub(1), rows] {
        prop_assert_eq!(sel.contains(r), want.binary_search(&(r as u32)).is_ok());
    }
    let want_selectivity = if rows == 0 {
        0.0
    } else {
        want.len() as f64 / rows as f64
    };
    prop_assert_eq!(sel.selectivity(rows), want_selectivity);
    prop_assert!(sel.validate(rows));
    let last = want.last().map(|&p| p as usize);
    prop_assert_eq!(sel.validate(last.unwrap_or(0)), last.is_none());
    prop_assert!(sel.validate(rows + 1));
    prop_assert_eq!(
        format!("{sel:?}"),
        format!("SelectionVector {{ positions: {want:?} }}")
    );
    prop_assert_eq!(sel, &SelectionVector::new(want.to_vec()));
    Ok(())
}

fn intersect(a: &[u32], b: &[u32]) -> Vec<u32> {
    a.iter()
        .copied()
        .filter(|p| b.binary_search(p).is_ok())
        .collect()
}

fn union(a: &[u32], b: &[u32]) -> Vec<u32> {
    let mut out: Vec<u32> = a.iter().chain(b).copied().collect();
    out.sort_unstable();
    out.dedup();
    out
}

fn complement(a: &[u32], rows: usize) -> Vec<u32> {
    (0..rows as u32)
        .filter(|p| a.binary_search(p).is_err())
        .collect()
}

proptest! {
    /// Every construction of a selection reads back as its model.
    #[test]
    fn constructions_match_the_model(rows in prop::sample::select(ROWS.to_vec()), seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let want = model(rows, &mut rng);
        let built = builds(&want, rows, &mut rng);
        for sel in &built {
            check_one(sel, &want, rows)?;
            for other in &built {
                prop_assert!(sel == other, "{:?} != {:?}", sel, other);
            }
        }
        if want.len() == rows {
            prop_assert_eq!(&built[2], &SelectionVector::all(rows));
        }
        if want.is_empty() {
            prop_assert_eq!(&built[3], &SelectionVector::empty());
        }
    }

    /// AND / OR / NOT agree with the model over operands of any bitmap
    /// length, at row counts around every word boundary.
    #[test]
    fn algebra_matches_the_model(
        rows_a in prop::sample::select(ROWS.to_vec()),
        rows_b in prop::sample::select(ROWS.to_vec()),
        seed in any::<u64>(),
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let (a, b) = (model(rows_a, &mut rng), model(rows_b, &mut rng));
        let (sa, sb) = (builds(&a, rows_a, &mut rng), builds(&b, rows_b, &mut rng));
        let rows = rows_a.max(rows_b);
        let (x, y) = (&sa[rng.gen_range(0..sa.len())], &sb[rng.gen_range(0..sb.len())]);
        check_one(&x.intersect(y), &intersect(&a, &b), rows)?;
        check_one(&x.union(y), &union(&a, &b), rows)?;
        prop_assert_eq!(x.intersect(y), y.intersect(x));
        prop_assert_eq!(x.union(y), y.union(x));
        check_one(&x.complement(rows_a), &complement(&a, rows_a), rows_a)?;
        // `complement` ignores rows at and past its bound.
        let cut = rows_a / 2;
        let below: Vec<u32> = a.iter().copied().filter(|&p| (p as usize) < cut).collect();
        check_one(&x.complement(cut), &complement(&below, cut), cut)?;
        prop_assert_eq!(x.complement(rows_a).complement(rows_a), x.clone());
        prop_assert_eq!(x.union(&x.complement(rows_a)), SelectionVector::all(rows_a));
        prop_assert!(x.intersect(&x.complement(rows_a)).is_empty());
    }
}

#[test]
fn out_of_range_rows_fail_validation() {
    for rows in ROWS.into_iter().filter(|&r| r > 0) {
        let last = SelectionVector::new(vec![0, rows as u32 - 1]);
        assert!(last.validate(rows));
        assert!(!last.validate(rows - 1));
        let past = SelectionVector::new(vec![rows as u32]);
        assert!(!past.validate(rows), "{rows}");
        // A rows-long bitmap with nothing set in its tail validates
        // against fewer rows.
        let mut words = vec![0; rows.div_ceil(64)];
        words[0] = 1;
        let head = SelectionVector::from_words(words, rows);
        assert!(head.validate(1));
    }
    assert!(SelectionVector::empty().validate(0));
    assert!(!SelectionVector::new(vec![0]).validate(0));
    assert!(SelectionVector::none(100).validate(0));
}

#[test]
fn from_words_drops_bits_past_its_rows() {
    let sel = SelectionVector::from_words(vec![u64::MAX, u64::MAX, u64::MAX], 65);
    assert_eq!(sel.len(), 65);
    assert_eq!(sel.bit_len(), 65);
    assert_eq!(sel, SelectionVector::all(65));
    let short = SelectionVector::from_words(vec![0b101], 130);
    assert_eq!(short.bit_len(), 130);
    assert_eq!(short.positions(), vec![0, 2]);
}
