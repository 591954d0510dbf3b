//! Every integer kernel on the horizontal codecs, through the one
//! resolution they share: whole-block filters and folds (NonHier and
//! MultiRef reconstruct the block through the batch decode and run the
//! vertical slice kernels on it, Hier works per metadata entry), TOP-K and
//! gather. Filter positions, scalar aggregate states, grouped states, TOP-K
//! rows and gathered values must equal decompress-then-oracle:
//!
//! * block lengths on and around the 1 024-row unpack chunk (0, 1, 1 023,
//!   1 024, 1 025, 16 384) with plain, negated and empty ranges;
//! * NonHier with and without outliers, MultiRef over 1..=8 reference
//!   groups at code widths 1..=6 with constant members (FOR or one-entry
//!   Dict, wrapping near the `i64` ends) folded into its per-code addend,
//!   outliers at rows 0, 1 023, 1 024 and the last row, and all-outlier
//!   blocks, a Hier target under the dictionary column `g`;
//! * the Hier address stream at its edges: parent dictionaries of 1 to
//!   2 000 entries, child code widths 0..=8, blocks of 1 023 / 1 024 /
//!   1 025 / 2 049 rows, ranges matching no metadata entry or every one,
//!   plain and negated, in memory and after `to_bytes` / `from_bytes`;
//! * TOP-K ascending and descending at `k` 0, 1 and 7, unfiltered and
//!   under every predicate, and `query_column` at every scan's positions;
//! * `IntAggState::update_slice` equal to a per-row `update` fold, on the
//!   `i64` extremes, the empty slice and a pre-filled state.

use std::collections::BTreeMap;

use corra_columnar::aggregate::IntAggState;
use corra_columnar::bitpack::bits_needed;
use corra_columnar::block::DataBlock;
use corra_columnar::column::{Column, DataType};
use corra_columnar::predicate::IntRange;
use corra_columnar::schema::{Field, Schema};
use corra_columnar::topk::rank;
use corra_core::{
    aggregate, query_column, scan, top_k_blocks, AggExpr, AggFunc, AggValue, ColumnCodec,
    ColumnPlan, CompressedBlock, CompressionConfig, GroupKey, Predicate, TopKExpr,
};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const LENGTHS: [usize; 6] = [0, 1, 1_023, 1_024, 1_025, 16_384];

/// Where a block's targets leave their reconstruction rule.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Outliers {
    None,
    /// Rows 0, 1 023, 1 024 and the last row (those that exist).
    Edges,
    All,
}

/// The raw block plus its plan: a dictionary group column `g`, reference
/// members `m0..`, a NonHier target over `m0`, a MultiRef target over
/// `n_groups` groups (group A sums `m0 + m1`, every other group is one
/// member) and a Hier target under `g`.
///
/// The seed makes about half of `m1..` constant — `m1` beside the varying
/// `m0` in group A, or a whole singleton group — so the MultiRef column
/// folds them into its per-code addend: small values or values near
/// `i64::MAX` / `i64::MIN`, whose sums wrap, each planned as FOR (width 0)
/// or as a one-entry Dict. The target sums wrap too.
fn horizontal_block(
    n: usize,
    n_groups: usize,
    code_bits: u8,
    outliers: Outliers,
    seed: u64,
) -> (DataBlock, CompressionConfig) {
    let mut rng = StdRng::seed_from_u64(seed);
    // `(value, planned as Dict)` for each constant member.
    let constants: Vec<Option<(i64, bool)>> = (0..=n_groups)
        .map(|j| {
            let value = match rng.gen_range(0u8..3) {
                0 => rng.gen_range(-50i64..50),
                1 => i64::MAX - rng.gen_range(0i64..1_000),
                _ => i64::MIN + rng.gen_range(0i64..1_000),
            };
            (j > 0 && rng.gen_bool(0.5)).then(|| (value, rng.gen_bool(0.5)))
        })
        .collect();
    let members: Vec<Vec<i64>> = constants
        .iter()
        .map(|constant| match constant {
            Some((v, _)) => vec![*v; n],
            None => (0..n).map(|_| rng.gen_range(-5_000i64..5_000)).collect(),
        })
        .collect();
    let group_sum = |g: usize, i: usize| match g {
        0 => members[0][i].wrapping_add(members[1][i]),
        _ => members[g + 1][i],
    };
    // A handful of formulas per block, more than `2^code_bits` at narrow
    // widths, so some rows fall outside the kept formulas.
    let masks: Vec<u8> = (0..6)
        .map(|_| rng.gen_range(1..=((1u16 << n_groups) - 1)) as u8)
        .collect();
    let is_outlier = |i: usize| match outliers {
        Outliers::None => false,
        Outliers::Edges => [0, 1_023, 1_024, n.wrapping_sub(1)].contains(&i),
        Outliers::All => true,
    };
    let mut multiref = Vec::with_capacity(n);
    let mut nonhier = Vec::with_capacity(n);
    for (i, &reference) in members[0].iter().enumerate() {
        if is_outlier(i) {
            multiref.push((1i64 << 40) + rng.gen_range(0i64..1 << 30));
            nonhier.push(-(1i64 << 45) - rng.gen_range(0i64..1 << 30));
            continue;
        }
        let mask = masks[rng.gen_range(0..masks.len())];
        multiref.push(
            (0..n_groups)
                .filter(|g| (mask >> g) & 1 == 1)
                .map(|g| group_sum(g, i))
                .fold(0, i64::wrapping_add),
        );
        nonhier.push(reference + rng.gen_range(0i64..30));
    }
    let group: Vec<i64> = (0..n).map(|_| rng.gen_range(0i64..5) * 10).collect();
    let hier: Vec<i64> = group
        .iter()
        .map(|&g| g * 1_000 - rng.gen_range(0i64..7))
        .collect();

    let mut fields = vec![Field::new("g", DataType::Int64)];
    let mut columns = vec![Column::Int64(group)];
    for (j, m) in members.into_iter().enumerate() {
        fields.push(Field::new(format!("m{j}"), DataType::Int64));
        columns.push(Column::Int64(m));
    }
    fields.push(Field::new("nonhier", DataType::Int64));
    columns.push(Column::Int64(nonhier));
    fields.push(Field::new("multiref", DataType::Int64));
    columns.push(Column::Int64(multiref));
    fields.push(Field::new("hier", DataType::Int64));
    columns.push(Column::Int64(hier));
    let block = DataBlock::new(Schema::new(fields).unwrap(), columns).unwrap();

    let mut groups = vec![vec!["m0".to_owned(), "m1".to_owned()]];
    groups.extend((1..n_groups).map(|g| vec![format!("m{}", g + 1)]));
    let dict_constants = constants
        .iter()
        .enumerate()
        .filter(|(_, c)| c.is_some_and(|(_, dict)| dict));
    let mut cfg = CompressionConfig::baseline();
    for (j, _) in dict_constants {
        cfg = cfg.with(&format!("m{j}"), ColumnPlan::Dict);
    }
    let cfg = cfg
        .with("g", ColumnPlan::Dict)
        .with(
            "nonhier",
            ColumnPlan::NonHier {
                reference: "m0".into(),
            },
        )
        .with("multiref", ColumnPlan::MultiRef { groups, code_bits })
        .with(
            "hier",
            ColumnPlan::Hier {
                reference: "g".into(),
            },
        );
    (block, cfg)
}

fn raw<'a>(block: &'a DataBlock, column: &str) -> &'a [i64] {
    block.column(column).unwrap().as_i64().unwrap()
}

fn fold(values: &[i64], keep: impl Fn(usize) -> bool) -> IntAggState {
    let mut s = IntAggState::default();
    for (i, &v) in values.iter().enumerate() {
        if keep(i) {
            s.update(v);
        }
    }
    s
}

fn value_of(func: AggFunc, s: &IntAggState) -> AggValue {
    match func {
        AggFunc::Count => AggValue::Count(s.count),
        AggFunc::Sum => AggValue::Sum((s.count > 0).then_some(s.sum)),
        AggFunc::Min => AggValue::Int(s.min),
        AggFunc::Max => AggValue::Int(s.max),
        AggFunc::Avg => AggValue::Avg(s.avg()),
    }
}

/// The predicates a block is filtered with, each with the range its leaf
/// evaluates: a plain interval drawn from the data, its negation, a single
/// negated value, and the two empty ranges.
fn predicates(column: &str, values: &[i64], rng: &mut StdRng) -> Vec<(Predicate, IntRange)> {
    let pick = |rng: &mut StdRng| match values.len() {
        0 => 0,
        n => values[rng.gen_range(0..n)],
    };
    let (a, b) = (pick(rng), pick(rng));
    let (lo, hi) = (a.min(b), a.max(b));
    let v = pick(rng);
    vec![
        (Predicate::between(column, lo, hi), IntRange::new(lo, hi)),
        (
            Predicate::not(Predicate::between(column, lo, hi)),
            IntRange::negated(lo, hi),
        ),
        (Predicate::ne(column, v), IntRange::negated(v, v)),
        (Predicate::lt(column, i64::MIN), IntRange::empty()),
        (Predicate::gt(column, i64::MAX), IntRange::empty()),
    ]
}

/// TOP-K of `values` at the rows `keep` admits, as `(value, row)` pairs
/// best-first: rank, then the earlier row.
fn top_k_oracle(
    values: &[i64],
    keep: impl Fn(usize) -> bool,
    k: usize,
    descending: bool,
) -> Vec<(i64, u32)> {
    let mut rows: Vec<(i64, u32)> = (0..values.len())
        .filter(|&i| keep(i))
        .map(|i| (values[i], i as u32))
        .collect();
    rows.sort_by_key(|&(v, i)| (rank(v, descending), i));
    rows.truncate(k);
    rows
}

/// TOP-K of `column`, ascending and descending at `k` 0, 1 and 7, against
/// the oracle over the rows `filter` keeps (every row without one).
fn check_top_k(
    compressed: &CompressedBlock,
    column: &str,
    values: &[i64],
    filter: Option<(&Predicate, &IntRange)>,
) -> Result<(), String> {
    for k in [0, 1, 7] {
        for descending in [false, true] {
            let mut expr = if descending {
                TopKExpr::desc(column, k)
            } else {
                TopKExpr::asc(column, k)
            };
            if let Some((pred, _)) = filter {
                expr = expr.with_filter(pred.clone());
            }
            let keep = |i: usize| filter.is_none_or(|(_, range)| range.matches(values[i]));
            let (rows, _) =
                top_k_blocks(std::slice::from_ref(compressed), &expr).map_err(|e| e.to_string())?;
            let got: Vec<(i64, u32)> = rows.iter().map(|r| (r.value, r.row)).collect();
            let want = top_k_oracle(values, keep, k, descending);
            if got != want {
                return Err(format!("{column} {expr:?}: {got:?} vs {want:?}"));
            }
        }
    }
    Ok(())
}

/// Checks every filter, fold, TOP-K and gather of the three horizontal
/// targets against the raw columns.
fn check_block(block: &DataBlock, cfg: &CompressionConfig, seed: u64) -> Result<(), String> {
    let compressed = CompressedBlock::compress(block, cfg).map_err(|e| e.to_string())?;
    // Each constant member's codec proves it constant, so MultiRef folds it.
    for (j, member) in (0..).map_while(|j| Some((j, block.column(&format!("m{j}")).ok()?))) {
        let values = member.as_i64().map_err(|e| e.to_string())?;
        if values
            .first()
            .is_some_and(|&v| values.iter().all(|&x| x == v))
        {
            let proven = match compressed.codec(&format!("m{j}")) {
                Ok(ColumnCodec::Int(enc)) => enc.constant(),
                _ => None,
            };
            if proven != Some(values[0]) {
                return Err(format!("m{j}: constant {} proven {proven:?}", values[0]));
            }
        }
    }
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5eed);
    let group = raw(block, "g");
    for column in ["nonhier", "multiref", "hier"] {
        let values = raw(block, column);
        let preds = predicates(column, values, &mut rng);
        check_column(&compressed, column, values, group, &preds)?;
    }
    Ok(())
}

/// Checks every filter under `preds`, gather, fold, grouped fold (by `g`),
/// TOP-K and the decode of `column` against its raw `values`.
fn check_column(
    compressed: &CompressedBlock,
    column: &str,
    values: &[i64],
    group: &[i64],
    preds: &[(Predicate, IntRange)],
) -> Result<(), String> {
    let decoded = compressed.decompress(column).map_err(|e| e.to_string())?;
    if decoded.as_i64().ok() != Some(values) {
        return Err(format!("{column}: decompress differs from the input"));
    }
    for (pred, range) in preds {
        let sel = scan(compressed, pred).map_err(|e| e.to_string())?;
        let want: Vec<u32> = (0..values.len() as u32)
            .filter(|&i| range.matches(values[i as usize]))
            .collect();
        if sel.positions() != want.as_slice() {
            return Err(format!("{column} {pred:?}: positions differ"));
        }
        let gathered = query_column(compressed, column, &sel).map_err(|e| e.to_string())?;
        let want: Vec<i64> = want.iter().map(|&i| values[i as usize]).collect();
        if gathered.as_int().ok() != Some(want.as_slice()) {
            return Err(format!("{column} {pred:?}: gathered values differ"));
        }
        check_top_k(compressed, column, values, Some((pred, range)))?;
        // Filtered folds: the selected path, or the whole-block path
        // when the filter keeps every row.
        let kept = fold(values, |i| range.matches(values[i]));
        for func in [AggFunc::Count, AggFunc::Sum, AggFunc::Min, AggFunc::Max] {
            let expr = AggExpr::of(func, column).with_filter(pred.clone());
            let got = aggregate(compressed, &expr).map_err(|e| e.to_string())?;
            if got.as_scalar().ok() != Some(&value_of(func, &kept)) {
                return Err(format!("{column} {func:?} {pred:?}: {got:?} vs {kept:?}"));
            }
        }
    }
    check_top_k(compressed, column, values, None)?;
    let all = fold(values, |_| true);
    let mut by_group: BTreeMap<i64, IntAggState> = BTreeMap::new();
    for (&g, &v) in group.iter().zip(values) {
        by_group.entry(g).or_default().update(v);
    }
    for func in [
        AggFunc::Count,
        AggFunc::Sum,
        AggFunc::Min,
        AggFunc::Max,
        AggFunc::Avg,
    ] {
        let got = aggregate(compressed, &AggExpr::of(func, column)).map_err(|e| e.to_string())?;
        if got.as_scalar().ok() != Some(&value_of(func, &all)) {
            return Err(format!("{column} {func:?}: {got:?} vs {all:?}"));
        }
        let got = aggregate(compressed, &AggExpr::of(func, column).with_group_by("g"))
            .map_err(|e| e.to_string())?;
        let want: Vec<(GroupKey, AggValue)> = by_group
            .iter()
            .map(|(&k, s)| (GroupKey::Int(k), value_of(func, s)))
            .collect();
        if got.as_groups().ok() != Some(want.as_slice()) {
            return Err(format!("{column} {func:?} GROUP BY g: {got:?} vs {want:?}"));
        }
    }
    Ok(())
}

/// Outlier rows the encoders kept: `(nonhier, multiref)`.
fn outlier_counts(compressed: &CompressedBlock) -> (usize, usize) {
    let nonhier = match compressed.codec("nonhier").unwrap() {
        ColumnCodec::NonHier { enc, .. } => enc.outliers().len(),
        other => panic!("nonhier planned as {other:?}"),
    };
    let multiref = match compressed.codec("multiref").unwrap() {
        ColumnCodec::MultiRef { enc, .. } => enc.outliers().len(),
        other => panic!("multiref planned as {other:?}"),
    };
    (nonhier, multiref)
}

/// Every block length × every group count, the code width cycling through
/// 1..=6 so each group count meets each width, and each length seeing
/// outlier-free, edge-outlier and all-outlier blocks.
#[test]
fn horizontal_edges_match_decompress_then_oracle() {
    for (li, &n) in LENGTHS.iter().enumerate() {
        for n_groups in 1..=8 {
            let code_bits = 1 + ((n_groups + li) % 6) as u8;
            let outliers = match n_groups {
                8 => Outliers::All,
                g if g % 2 == 0 => Outliers::None,
                _ => Outliers::Edges,
            };
            let seed = (li * 16 + n_groups) as u64;
            let (block, cfg) = horizontal_block(n, n_groups, code_bits, outliers, seed);
            let label = format!("n {n} groups {n_groups} bits {code_bits} {outliers:?}");
            if let Err(e) = check_block(&block, &cfg, seed) {
                panic!("{label}: {e}");
            }
            let compressed = CompressedBlock::compress(&block, &cfg).unwrap();
            let (nonhier, multiref) = outlier_counts(&compressed);
            if outliers == Outliers::Edges && n >= 1_023 {
                // The wild rows really are outliers — the patch path runs.
                assert!(
                    nonhier >= 1 && multiref >= 1,
                    "{label}: {nonhier} / {multiref}"
                );
            }
            if outliers == Outliers::All {
                assert_eq!(multiref, n, "{label}");
            }
            if outliers == Outliers::None {
                assert_eq!(nonhier, 0, "{label}");
            }
        }
    }
}

/// A Hier target `hier` under a dictionary parent `g` of `n_parents`
/// entries whose groups hold up to `2^width` children. Row `i` is under
/// parent `i % n_parents`, and its `k`-th visit to that parent picks child
/// `k % 2^width`, so every parent occurs once the block has `n_parents`
/// rows and the largest group has `min(2^width, ⌈n / n_parents⌉)`
/// children. Every child value is a multiple of 3.
fn hier_block(n: usize, n_parents: usize, width: u32) -> (DataBlock, CompressionConfig) {
    // A permutation of the parents (7 919 is prime and above any count
    // here), so dictionary codes do not follow row order.
    let parent = |i: usize| ((i % n_parents) * 7_919 % n_parents) as i64 * 10 - 5_000;
    let group: Vec<i64> = (0..n).map(parent).collect();
    let hier: Vec<i64> = (0..n)
        .map(|i| parent(i) * 3_000 + 3 * ((i / n_parents) % (1 << width)) as i64)
        .collect();
    let block = DataBlock::new(
        Schema::new(vec![
            Field::new("g", DataType::Int64),
            Field::new("hier", DataType::Int64),
        ])
        .unwrap(),
        vec![Column::Int64(group), Column::Int64(hier)],
    )
    .unwrap();
    let cfg = CompressionConfig::baseline()
        .with("g", ColumnPlan::Dict)
        .with(
            "hier",
            ColumnPlan::Hier {
                reference: "g".into(),
            },
        );
    (block, cfg)
}

/// Alg. 1's address stream at its edges: parents of 1 entry (code width
/// 0) to 2 000, child widths 0..=8, blocks one row either side of the
/// unpack chunk and past two chunks, and ranges matching no metadata entry
/// or every one, plain and negated — in memory and after `to_bytes` /
/// `from_bytes`.
#[test]
fn hier_address_stream_edges_match_decompress_then_oracle() {
    const PARENTS: [usize; 5] = [1, 2, 5, 300, 2_000];
    for width in 0..=8u32 {
        for (li, n) in [1_023, 1_024, 1_025, 2_049].into_iter().enumerate() {
            let n_parents = PARENTS[(width as usize + li) % PARENTS.len()];
            let (block, cfg) = hier_block(n, n_parents, width);
            let label = format!("n {n} parents {n_parents} width {width}");
            let compressed = CompressedBlock::compress(&block, &cfg).unwrap();
            let largest = (1usize << width).min(n.div_ceil(n_parents)) as u64;
            match compressed.codec("hier").unwrap() {
                ColumnCodec::HierInt { enc, .. } => {
                    assert_eq!(enc.bits(), bits_needed(largest - 1), "{label}");
                    assert_eq!(enc.n_parents(), n_parents.min(n), "{label}");
                }
                other => panic!("{label}: hier planned as {other:?}"),
            }
            let values = raw(&block, "hier");
            let (lo, hi) = (values.iter().min().unwrap(), values.iter().max().unwrap());
            let mut rng = StdRng::seed_from_u64(n as u64 * 64 + u64::from(width));
            let mut preds = predicates("hier", values, &mut rng);
            // Between two entries (every value is a multiple of 3), and the
            // whole zone — no entry and every entry, each also negated.
            for (a, b) in [(lo + 1, lo + 1), (*lo, *hi)] {
                preds.push((Predicate::between("hier", a, b), IntRange::new(a, b)));
                preds.push((
                    Predicate::not(Predicate::between("hier", a, b)),
                    IntRange::negated(a, b),
                ));
            }
            let back = CompressedBlock::from_bytes(&compressed.to_bytes().unwrap()).unwrap();
            for view in [&compressed, &back] {
                if let Err(e) = check_column(view, "hier", values, raw(&block, "g"), &preds) {
                    panic!("{label}: {e}");
                }
            }
        }
    }
}

/// `update_slice` on the extremes: sums stay exact in `i128`.
#[test]
fn update_slice_is_exact_on_the_extremes() {
    let values: Vec<i64> = [i64::MIN, i64::MAX, -1, 0, i64::MAX, i64::MIN, i64::MIN]
        .into_iter()
        .cycle()
        .take(10_007)
        .collect();
    let mut got = IntAggState::default();
    got.update_slice(&values);
    assert_eq!(got, fold(&values, |_| true));
    let mut empty = IntAggState::default();
    empty.update_slice(&[]);
    assert_eq!(empty, IntAggState::default());
    let mut filled = got;
    filled.update_slice(&[]);
    assert_eq!(filled, got);
}

proptest! {
    /// Random small horizontal blocks: any group count, code width, outlier
    /// placement and range.
    #[test]
    fn random_horizontal_blocks_match_oracle(
        n in 0usize..300,
        n_groups in 1usize..=8,
        code_bits in 1u8..=6,
        outliers_k in 0u8..3,
        seed in any::<u64>(),
    ) {
        let outliers = [Outliers::None, Outliers::Edges, Outliers::All][outliers_k as usize];
        let (block, cfg) = horizontal_block(n, n_groups, code_bits, outliers, seed);
        let checked = check_block(&block, &cfg, seed);
        prop_assert!(checked.is_ok(), "{:?}", checked);
    }

    /// `update_slice` is a per-row `update` fold, from any starting state.
    #[test]
    fn update_slice_equals_per_row_fold(
        prefix in prop::collection::vec(any::<i64>(), 0..40),
        values in prop::collection::vec(any::<i64>(), 0..3_000),
    ) {
        let start = fold(&prefix, |_| true);
        let mut got = start;
        got.update_slice(&values);
        let mut want = start;
        for &v in &values {
            want.update(v);
        }
        prop_assert_eq!(got, want);
    }
}
