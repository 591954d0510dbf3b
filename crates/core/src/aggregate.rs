//! Compressed-domain aggregation: `COUNT`/`SUM`/`MIN`/`MAX`/`AVG` (with an
//! optional [`Predicate`] filter and an optional `GROUP BY` on a
//! dictionary-encoded column) evaluated directly on compressed blocks.
//!
//! Until now every aggregate paid full decompress-then-fold; this module
//! closes that gap the same way [`mod@crate::scan`] did for filtering:
//!
//! 1. **Filter** — the optional predicate runs through the existing scan
//!    kernels (zone-map pruning included), producing a selection.
//! 2. **The whole-block rule** — an unfiltered, ungrouped aggregate over a
//!    block whose column has a zone ([`BlockView::zone`]) has
//!    `count = rows` and `min` / `max` from the zone: `COUNT` / `MIN` /
//!    `MAX` read no payload, and `SUM` / `AVG` read one Σ, a wrapping `i64`
//!    sum that is exact whenever `rows · min ≥ −2^63` and
//!    `rows · max < 2^63`. Vertical codecs sum through
//!    [`IntAccess::sum_wrapping`] (FOR in the offset domain, RLE per run,
//!    Dict per distinct value); NonHier sums `Σ ref + n · base + Σ diff`
//!    without reconstructing a row; Hier folds once per metadata entry;
//!    MultiRef sums its reconstruction.
//! 3. **Exact folds** — everything else: a block with no zone or a sum
//!    that may leave the `i64` domain folds every row into an `i128`
//!    ([`IntAggState::update_slice`]); a *filtered* fold reads only the
//!    selected rows, through the reference accessors per the paper's
//!    reconstruction rules; grouped folds run per codec.
//! 4. **Merge** — per-block partial states ([`IntAggState`] /
//!    [`StrAggState`], `SUM` in `i128` so it never silently wraps) merge
//!    in block order ([`aggregate_blocks`]).
//!
//! Everything is generic over [`BlockView`], so the same engine runs on
//! in-memory [`CompressedBlock`]s and lazy store
//! [`BlockHandle`](crate::store::BlockHandle)s; the store entry point
//! ([`crate::store::TableReader::aggregate`]) answers the payload-free half
//! of the rule from the footer with zero payload bytes read.

use std::collections::BTreeMap;

use corra_columnar::aggregate::{IntAggState, StrAggState};
use corra_columnar::error::{Error, Result};
use corra_columnar::selection::SelectionVector;
use corra_columnar::stats::ZoneMap;
use corra_encodings::{wrapping_sum, IntAccess, IntEncoding};

use crate::compressor::{vertical_codec, BlockView, ColumnCodec, CompressedBlock};
use crate::query::{eval_formula_mask, int_column, whole_column, IntColumn, WholeColumn};
use crate::scan::{scan_pruned, validate_pred_with, Predicate, ScanStats};

/// The aggregate function of an [`AggExpr`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AggFunc {
    /// Row count (of the filtered rows).
    Count,
    /// Sum of an integer column (exact: accumulated in `i128`).
    Sum,
    /// Minimum of an integer or string column.
    Min,
    /// Maximum of an integer or string column.
    Max,
    /// Mean of an integer column (`SUM / COUNT`, computed once from the
    /// merged exact state, so it does not depend on the block layout).
    Avg,
}

/// An aggregate expression: one function, an optional target column
/// (`COUNT` has none), an optional pushed-down filter, and an optional
/// `GROUP BY` on a dictionary-encoded column (a `Dict` plan or a
/// hierarchical parent).
#[derive(Debug, Clone, PartialEq)]
pub struct AggExpr {
    func: AggFunc,
    column: Option<String>,
    filter: Option<Predicate>,
    group_by: Option<String>,
}

impl AggExpr {
    /// `COUNT(*)` (rows matching the filter, all rows without one).
    pub fn count() -> Self {
        Self {
            func: AggFunc::Count,
            column: None,
            filter: None,
            group_by: None,
        }
    }

    /// `SUM(column)` over an integer column.
    pub fn sum(column: &str) -> Self {
        Self::of(AggFunc::Sum, column)
    }

    /// `MIN(column)` over an integer or string column.
    pub fn min(column: &str) -> Self {
        Self::of(AggFunc::Min, column)
    }

    /// `MAX(column)` over an integer or string column.
    pub fn max(column: &str) -> Self {
        Self::of(AggFunc::Max, column)
    }

    /// `AVG(column)` over an integer column.
    pub fn avg(column: &str) -> Self {
        Self::of(AggFunc::Avg, column)
    }

    /// `func(column)`.
    pub fn of(func: AggFunc, column: &str) -> Self {
        Self {
            func,
            column: Some(column.to_owned()),
            filter: None,
            group_by: None,
        }
    }

    /// Restricts the aggregate to rows matching `pred` (evaluated through
    /// the scan kernels, zone-map pruning included).
    pub fn with_filter(mut self, pred: Predicate) -> Self {
        self.filter = Some(pred);
        self
    }

    /// Groups the aggregate by a dictionary-encoded column; one output row
    /// per group with at least one (matching) row, in ascending key order.
    pub fn with_group_by(mut self, column: &str) -> Self {
        self.group_by = Some(column.to_owned());
        self
    }

    /// The aggregate function.
    pub fn func(&self) -> AggFunc {
        self.func
    }

    /// The target column (`None` for `COUNT`).
    pub fn column(&self) -> Option<&str> {
        self.column.as_deref()
    }

    /// The pushed-down filter, if any.
    pub fn filter(&self) -> Option<&Predicate> {
        self.filter.as_ref()
    }

    /// The `GROUP BY` column, if any.
    pub fn group_by(&self) -> Option<&str> {
        self.group_by.as_deref()
    }
}

/// A scalar aggregate value. Empty inputs follow SQL: `COUNT` is 0,
/// everything else is `None`.
#[derive(Debug, Clone, PartialEq)]
pub enum AggValue {
    /// `COUNT` — always defined.
    Count(u64),
    /// `SUM` — exact (`i128` accumulation, never wraps).
    Sum(Option<i128>),
    /// `MIN`/`MAX` over an integer column.
    Int(Option<i64>),
    /// `MIN`/`MAX` over a string column (lexicographic).
    Str(Option<String>),
    /// `AVG`.
    Avg(Option<f64>),
}

/// A `GROUP BY` key: the group column's dictionary value.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum GroupKey {
    /// Integer-dictionary group key.
    Int(i64),
    /// String-dictionary group key.
    Str(String),
}

/// The result of evaluating an [`AggExpr`].
#[derive(Debug, Clone, PartialEq)]
pub enum AggResult {
    /// Ungrouped: one scalar.
    Scalar(AggValue),
    /// Grouped: `(key, value)` per non-empty group, ascending by key.
    Grouped(Vec<(GroupKey, AggValue)>),
}

impl AggResult {
    /// Borrows the scalar value.
    ///
    /// # Errors
    ///
    /// [`Error::TypeMismatch`] on a grouped result.
    pub fn as_scalar(&self) -> Result<&AggValue> {
        match self {
            AggResult::Scalar(v) => Ok(v),
            AggResult::Grouped(_) => Err(Error::TypeMismatch {
                expected: "scalar aggregate result",
                found: "grouped aggregate result",
            }),
        }
    }

    /// Borrows the grouped rows.
    ///
    /// # Errors
    ///
    /// [`Error::TypeMismatch`] on a scalar result.
    pub fn as_groups(&self) -> Result<&[(GroupKey, AggValue)]> {
        match self {
            AggResult::Grouped(g) => Ok(g),
            AggResult::Scalar(_) => Err(Error::TypeMismatch {
                expected: "grouped aggregate result",
                found: "scalar aggregate result",
            }),
        }
    }
}

/// One block's partial aggregate, merged across blocks by [`AggMerger`].
#[derive(Debug, Clone)]
pub(crate) enum PartialAgg {
    /// Scalar over an integer column (also `COUNT`).
    Int(IntAggState),
    /// Scalar over a string column.
    Str(StrAggState),
    /// Grouped over an integer column (code order within the block).
    GroupedInt(Vec<(GroupKey, IntAggState)>),
    /// Grouped over a string column.
    GroupedStr(Vec<(GroupKey, StrAggState)>),
}

impl PartialAgg {
    /// The typed empty partial for a block contributing no rows, matching
    /// the kinds real evaluation would produce so merges stay well-typed.
    pub(crate) fn empty(string_target: bool, grouped: bool) -> Self {
        match (grouped, string_target) {
            (false, false) => PartialAgg::Int(IntAggState::default()),
            (false, true) => PartialAgg::Str(StrAggState::default()),
            (true, false) => PartialAgg::GroupedInt(Vec::new()),
            (true, true) => PartialAgg::GroupedStr(Vec::new()),
        }
    }
}

/// Deterministic merger of per-block partials: scalars merge through the
/// state algebra, groups merge by key into an ordered map — so the final
/// result is independent of which worker produced which partial, as long
/// as partials are merged in block order (they are: indexed result slots).
#[derive(Debug, Default)]
pub(crate) struct AggMerger {
    acc: Option<MergedAcc>,
}

#[derive(Debug)]
enum MergedAcc {
    Int(IntAggState),
    Str(StrAggState),
    GroupedInt(BTreeMap<GroupKey, IntAggState>),
    GroupedStr(BTreeMap<GroupKey, StrAggState>),
}

impl AggMerger {
    pub(crate) fn new() -> Self {
        Self::default()
    }

    /// Merges one block's partial in.
    ///
    /// # Errors
    ///
    /// [`Error::TypeMismatch`] when blocks disagree on the column's kind
    /// (only possible for ad-hoc block collections with differing schemas).
    pub(crate) fn merge(&mut self, partial: PartialAgg) -> Result<()> {
        let acc = match self.acc.take() {
            None => seed_acc(partial),
            Some(acc) => match (acc, partial) {
                (MergedAcc::Int(mut a), PartialAgg::Int(b)) => {
                    a.merge(&b);
                    MergedAcc::Int(a)
                }
                (MergedAcc::Str(mut a), PartialAgg::Str(b)) => {
                    a.merge(&b);
                    MergedAcc::Str(a)
                }
                (MergedAcc::GroupedInt(mut a), PartialAgg::GroupedInt(b)) => {
                    for (k, s) in b {
                        a.entry(k).or_default().merge(&s);
                    }
                    MergedAcc::GroupedInt(a)
                }
                (MergedAcc::GroupedStr(mut a), PartialAgg::GroupedStr(b)) => {
                    for (k, s) in b {
                        a.entry(k).or_default().merge(&s);
                    }
                    MergedAcc::GroupedStr(a)
                }
                _ => {
                    return Err(Error::TypeMismatch {
                        expected: "aggregate partials of one column kind",
                        found: "blocks disagreeing on the column kind",
                    })
                }
            },
        };
        self.acc = Some(acc);
        Ok(())
    }

    /// Finalizes into the requested function's result.
    pub(crate) fn finish(self, expr: &AggExpr) -> AggResult {
        match self.acc {
            None => {
                // Zero blocks: the empty result (grouped: no groups;
                // scalar: SQL empty semantics, integer-typed).
                if expr.group_by.is_some() {
                    AggResult::Grouped(Vec::new())
                } else {
                    AggResult::Scalar(finalize_int(expr.func, &IntAggState::default()))
                }
            }
            Some(MergedAcc::Int(s)) => AggResult::Scalar(finalize_int(expr.func, &s)),
            Some(MergedAcc::Str(s)) => AggResult::Scalar(finalize_str(expr.func, &s)),
            Some(MergedAcc::GroupedInt(m)) => AggResult::Grouped(
                m.into_iter()
                    .map(|(k, s)| (k, finalize_int(expr.func, &s)))
                    .collect(),
            ),
            Some(MergedAcc::GroupedStr(m)) => AggResult::Grouped(
                m.into_iter()
                    .map(|(k, s)| (k, finalize_str(expr.func, &s)))
                    .collect(),
            ),
        }
    }
}

fn seed_acc(partial: PartialAgg) -> MergedAcc {
    match partial {
        PartialAgg::Int(s) => MergedAcc::Int(s),
        PartialAgg::Str(s) => MergedAcc::Str(s),
        PartialAgg::GroupedInt(v) => {
            let mut m = BTreeMap::new();
            for (k, s) in v {
                m.entry(k).or_insert_with(IntAggState::default).merge(&s);
            }
            MergedAcc::GroupedInt(m)
        }
        PartialAgg::GroupedStr(v) => {
            let mut m = BTreeMap::new();
            for (k, s) in v {
                m.entry(k).or_insert_with(StrAggState::default).merge(&s);
            }
            MergedAcc::GroupedStr(m)
        }
    }
}

fn finalize_int(func: AggFunc, s: &IntAggState) -> AggValue {
    match func {
        AggFunc::Count => AggValue::Count(s.count),
        AggFunc::Sum => AggValue::Sum((s.count > 0).then_some(s.sum)),
        AggFunc::Min => AggValue::Int(s.min),
        AggFunc::Max => AggValue::Int(s.max),
        AggFunc::Avg => AggValue::Avg(s.avg()),
    }
}

fn finalize_str(func: AggFunc, s: &StrAggState) -> AggValue {
    match func {
        AggFunc::Count => AggValue::Count(s.count),
        AggFunc::Min => AggValue::Str(s.min.clone()),
        AggFunc::Max => AggValue::Str(s.max.clone()),
        // Rejected by validation before any kernel runs.
        AggFunc::Sum | AggFunc::Avg => unreachable!("SUM/AVG on strings is validated away"),
    }
}

/// The error for a `GROUP BY` column that cannot expose dictionary codes.
pub(crate) fn group_not_dictionary(group: &str) -> Error {
    Error::invalid(format!(
        "GROUP BY column {group} must be dictionary-encoded \
         (a Dict plan or a hierarchical parent)"
    ))
}

/// Checks a `GROUP BY` column's codec exposes dictionary codes. Shared
/// with the store, whose footer cannot distinguish dictionary from other
/// vertical integer layouts — it loads this one codec to check, so
/// zone-short-circuited blocks error exactly like the in-memory engine.
pub(crate) fn validate_group_codec(codec: &ColumnCodec, group: &str) -> Result<()> {
    match codec {
        ColumnCodec::Int(IntEncoding::Dict(_)) | ColumnCodec::Str(_) => Ok(()),
        _ => Err(group_not_dictionary(group)),
    }
}

/// Validates the whole expression against one block up front — unknown
/// columns, `SUM`/`AVG` on strings, a non-dictionary `GROUP BY` column and
/// malformed filters error deterministically, before any kernel runs and
/// regardless of what the filter selects.
pub(crate) fn validate_expr<B: BlockView + ?Sized>(block: &B, expr: &AggExpr) -> Result<()> {
    let codec = |column: &str| block.view_codec(block.index_of(column)?);
    validate_expr_with(expr, &|column| Ok(codec(column)?.is_string()), &|group| {
        validate_group_codec(codec(group)?, group)
    })
}

/// The one expression type-check: `is_string` answers whether a column
/// holds strings (or does not exist), `check_group` whether it can be
/// grouped by. In-memory blocks answer from the codec; the store answers
/// from footer tags alone (names, string-ness, horizontal-ness) and leaves
/// the payload-level dictionary check to the kernel.
pub(crate) fn validate_expr_with(
    expr: &AggExpr,
    is_string: &dyn Fn(&str) -> Result<bool>,
    check_group: &dyn Fn(&str) -> Result<()>,
) -> Result<()> {
    if let Some(pred) = &expr.filter {
        validate_pred_with(pred, is_string)?;
    }
    match (&expr.column, expr.func) {
        (None, AggFunc::Count) => {}
        (None, _) => return Err(Error::invalid("aggregate function requires a column")),
        (Some(col), func) => {
            if is_string(col)? && matches!(func, AggFunc::Sum | AggFunc::Avg) {
                return Err(Error::TypeMismatch {
                    expected: "integer column for SUM/AVG",
                    found: "string column",
                });
            }
        }
    }
    expr.group_by.as_deref().map_or(Ok(()), check_group)
}

/// Evaluates `expr` against one block, returning
/// `(partial, pruned, rows_matched)`. `pruned` is true when the filter was
/// answered entirely from zone maps, and when the column's zone answered
/// the whole block (`COUNT` / `MIN` / `MAX` with no filter kernel run).
pub(crate) fn aggregate_partial<B: BlockView + ?Sized>(
    block: &B,
    expr: &AggExpr,
) -> Result<(PartialAgg, bool, usize)> {
    validate_expr(block, expr)?;
    let rows = block.rows();
    // `None` means "all rows": full-column fast paths apply.
    let (sel, pruned) = match &expr.filter {
        None => (None, false),
        Some(pred) => {
            let (s, pruned) = scan_pruned(block, pred)?;
            if s.len() == rows {
                (None, pruned)
            } else {
                (Some(s), pruned)
            }
        }
    };
    let matched = sel.as_ref().map_or(rows, SelectionVector::len);
    if let (None, None, Some(col)) = (&sel, &expr.group_by, &expr.column) {
        let idx = block.index_of(col)?;
        if let Some(zone) = block.zone(idx) {
            if let Some(state) = zone_answer(expr.func, rows, Some(zone)) {
                // No per-row kernel ran, for the fold or (without one) a
                // filter.
                return Ok((
                    PartialAgg::Int(state),
                    pruned || expr.filter.is_none(),
                    rows,
                ));
            }
            if sum_is_exact(rows, zone) {
                let sum = sum_wrapping(block, idx)?;
                return Ok((
                    PartialAgg::Int(zone_state(rows, zone, sum.into())),
                    pruned,
                    rows,
                ));
            }
        }
    }
    let partial = match expr.group_by.as_deref() {
        Some(group_col) => eval_grouped(block, expr, group_col, sel.as_ref())?,
        None => eval_scalar(block, expr, sel.as_ref())?,
    };
    Ok((partial, pruned, matched))
}

/// The payload-free half of the whole-block rule, shared by the in-memory
/// engine and the store's footer: over every row of a block whose column
/// has a zone, `count` is the row count and `min` / `max` are the zone, so
/// `COUNT` / `MIN` / `MAX` read no payload. The state's `sum` stays 0 —
/// sound, because `SUM` / `AVG` never take this path.
pub(crate) fn zone_answer(
    func: AggFunc,
    rows: usize,
    zone: Option<ZoneMap>,
) -> Option<IntAggState> {
    let zone = zone.filter(|_| !matches!(func, AggFunc::Sum | AggFunc::Avg))?;
    Some(zone_state(rows, zone, 0))
}

fn zone_state(rows: usize, zone: ZoneMap, sum: i128) -> IntAggState {
    IntAggState {
        count: rows as u64,
        sum,
        min: Some(zone.min),
        max: Some(zone.max),
    }
}

/// Whether a wrapping `i64` sum of `rows` values inside `zone` is their
/// exact sum: `rows · min ≥ −2^63` and `rows · max < 2^63` put the true
/// sum inside the `i64` domain, where the sum mod 2^64 is the sum itself.
fn sum_is_exact(rows: usize, zone: ZoneMap) -> bool {
    let rows = rows as i128;
    rows * i128::from(zone.min) >= i128::from(i64::MIN)
        && rows * i128::from(zone.max) <= i128::from(i64::MAX)
}

/// The payload half of the whole-block rule: Σ over every row of integer
/// column `idx`, mod 2^64, read once. Vertical codecs take their
/// `sum_wrapping` (FOR / Dict / RLE in the compressed domain), NonHier sums
/// its reference and its diffs without reconstructing a row, Hier folds
/// once per metadata entry, and MultiRef sums its reconstruction.
fn sum_wrapping<B: BlockView + ?Sized>(block: &B, idx: usize) -> Result<i64> {
    if let ColumnCodec::NonHier { enc, reference } = block.view_codec(idx)? {
        return enc.sum_wrapping(vertical_codec(block, *reference as usize)?);
    }
    Ok(match whole_column(block, idx)? {
        WholeColumn::Vertical(enc) => enc.sum_wrapping(),
        WholeColumn::Hier { enc, codes } => {
            let mut state = IntAggState::default();
            enc.aggregate_with_parents(|i| codes.code(i), &mut state);
            state.sum as i64
        }
        WholeColumn::Decoded(values) => wrapping_sum(0, &values),
    })
}

/// Ungrouped evaluation: one fold over the full column or the selection.
fn eval_scalar<B: BlockView + ?Sized>(
    block: &B,
    expr: &AggExpr,
    sel: Option<&SelectionVector>,
) -> Result<PartialAgg> {
    let Some(col) = &expr.column else {
        // COUNT(*): the selection length is the answer — no payload fold.
        let count = sel.map_or(block.rows(), SelectionVector::len) as u64;
        return Ok(PartialAgg::Int(IntAggState {
            count,
            ..IntAggState::default()
        }));
    };
    let idx = block.index_of(col)?;
    match block.view_codec(idx)? {
        ColumnCodec::Str(enc) => {
            let mut state = StrAggState::default();
            match sel {
                None => enc.aggregate_into(&mut state),
                Some(s) => enc.aggregate_selected(s, &mut state),
            }
            return Ok(PartialAgg::Str(state));
        }
        ColumnCodec::PlainStr(pool) => {
            let mut state = StrAggState::default();
            match sel {
                None => {
                    for s in pool.iter() {
                        state.update(s);
                    }
                }
                Some(sel) => {
                    for &p in sel.positions() {
                        state.update(pool.get(p as usize));
                    }
                }
            }
            return Ok(PartialAgg::Str(state));
        }
        ColumnCodec::HierStr { enc, reference } => {
            let codes = crate::query::code_access(block, *reference as usize)?;
            let mut state = StrAggState::default();
            match sel {
                None => enc.aggregate_with_parents(|i| codes.code(i), &mut state),
                Some(s) => enc.aggregate_selected_with_parents(s, |i| codes.code(i), &mut state),
            }
            return Ok(PartialAgg::Str(state));
        }
        _ => {}
    }
    let mut state = IntAggState::default();
    let Some(s) = sel else {
        // The exact `i128` fold, for a block the whole-block rule could not
        // answer: no zone, or a sum that may leave the `i64` domain.
        match whole_column(block, idx)? {
            WholeColumn::Vertical(enc) => {
                enc.for_each_chunk(&mut |_, chunk| state.update_slice(chunk))
            }
            WholeColumn::Hier { enc, codes } => {
                enc.aggregate_with_parents(|i| codes.code(i), &mut state)
            }
            WholeColumn::Decoded(values) => state.update_slice(&values),
        }
        return Ok(PartialAgg::Int(state));
    };
    match int_column(block, idx)? {
        IntColumn::Vertical(enc) => enc.aggregate_selected(s, &mut state),
        IntColumn::NonHier { enc, refs } => {
            enc.aggregate_selected_map(s, |i| refs.get(i), &mut state)
        }
        IntColumn::Hier { enc, codes } => {
            enc.aggregate_selected_with_parents(s, |i| codes.code(i), &mut state)
        }
        IntColumn::MultiRef { enc, members } => enc.aggregate_selected_masked(
            s,
            |mask, i| eval_formula_mask(&members, mask, i),
            &mut state,
        ),
    }
    Ok(PartialAgg::Int(state))
}

/// Grouped evaluation: group keys and per-row codes come from the group
/// column's dictionary; filtered-out rows are routed to a trailing discard
/// group so every codec needs exactly one grouped kernel.
fn eval_grouped<B: BlockView + ?Sized>(
    block: &B,
    expr: &AggExpr,
    group_col: &str,
    sel: Option<&SelectionVector>,
) -> Result<PartialAgg> {
    let gidx = block.index_of(group_col)?;
    let (keys, mut codes): (Vec<GroupKey>, Vec<u32>) = match block.view_codec(gidx)? {
        ColumnCodec::Int(IntEncoding::Dict(d)) => {
            let mut c = Vec::new();
            d.codes_into(&mut c);
            (d.dict().iter().map(|&v| GroupKey::Int(v)).collect(), c)
        }
        ColumnCodec::Str(d) => {
            let mut c = Vec::new();
            d.codes_into(&mut c);
            (
                (0..d.distinct())
                    .map(|k| GroupKey::Str(d.pool().get(k).to_owned()))
                    .collect(),
                c,
            )
        }
        other => {
            validate_group_codec(other, group_col)?;
            unreachable!("dictionary codecs are matched above")
        }
    };
    let n_groups = keys.len();
    // Route filtered-out rows to a trailing discard group, dropped below.
    let n_states = n_groups + usize::from(sel.is_some());
    if let Some(s) = sel {
        let mut keep = vec![false; block.rows()];
        for &p in s.positions() {
            keep[p as usize] = true;
        }
        for (i, c) in codes.iter_mut().enumerate() {
            if !keep[i] {
                *c = n_groups as u32;
            }
        }
    }
    // COUNT(*) per group: the code histogram is the whole aggregate.
    let Some(col) = &expr.column else {
        let mut counts = vec![0u64; n_states];
        for &c in &codes {
            counts[c as usize] += 1;
        }
        return Ok(PartialAgg::GroupedInt(
            keys.into_iter()
                .zip(&counts)
                .filter(|(_, &n)| n > 0)
                .map(|(k, &n)| {
                    (
                        k,
                        IntAggState {
                            count: n,
                            ..IntAggState::default()
                        },
                    )
                })
                .collect(),
        ));
    };
    let idx = block.index_of(col)?;
    match block.view_codec(idx)? {
        ColumnCodec::Str(enc) => {
            let mut states = vec![StrAggState::default(); n_states];
            enc.aggregate_grouped(&codes, &mut states);
            return Ok(collect_grouped_str(keys, states));
        }
        ColumnCodec::PlainStr(pool) => {
            let mut states = vec![StrAggState::default(); n_states];
            for (i, &c) in codes.iter().enumerate() {
                states[c as usize].update(pool.get(i));
            }
            return Ok(collect_grouped_str(keys, states));
        }
        ColumnCodec::HierStr { enc, reference } => {
            let pcodes = crate::query::code_access(block, *reference as usize)?;
            let mut states = vec![StrAggState::default(); n_states];
            enc.aggregate_grouped_with_parents(&codes, |i| pcodes.code(i), &mut states);
            return Ok(collect_grouped_str(keys, states));
        }
        _ => {}
    }
    let mut states = vec![IntAggState::default(); n_states];
    match whole_column(block, idx)? {
        WholeColumn::Vertical(enc) => enc.aggregate_grouped(&codes, &mut states),
        WholeColumn::Hier { enc, codes: pcodes } => {
            enc.aggregate_grouped_with_parents(&codes, |i| pcodes.code(i), &mut states)
        }
        WholeColumn::Decoded(values) => {
            if values.len() != codes.len() {
                return Err(Error::LengthMismatch {
                    left: codes.len(),
                    right: values.len(),
                });
            }
            for (&v, &g) in values.iter().zip(&codes) {
                states[g as usize].update(v);
            }
        }
    }
    Ok(PartialAgg::GroupedInt(
        keys.into_iter()
            .zip(states)
            .filter(|(_, s)| s.count > 0)
            .collect(),
    ))
}

fn collect_grouped_str(keys: Vec<GroupKey>, states: Vec<StrAggState>) -> PartialAgg {
    PartialAgg::GroupedStr(
        keys.into_iter()
            .zip(states)
            .filter(|(_, s)| s.count > 0)
            .collect(),
    )
}

/// Evaluates `expr` against one block (in-memory or a lazy store handle).
///
/// # Errors
///
/// Unknown columns, `SUM`/`AVG` on a string column, a `GROUP BY` column
/// that is not dictionary-encoded, malformed filters — all validated up
/// front — plus anything a lazy view reports while loading payloads.
pub fn aggregate<B: BlockView + ?Sized>(block: &B, expr: &AggExpr) -> Result<AggResult> {
    let (partial, _, _) = aggregate_partial(block, expr)?;
    let mut merger = AggMerger::new();
    merger.merge(partial)?;
    Ok(merger.finish(expr))
}

/// Evaluates `expr` across many blocks, merging per-block partial states
/// in block order. Returns the result plus [`ScanStats`] (`rows_matched` =
/// rows aggregated; `blocks_pruned` = blocks whose filter was answered
/// from zone maps, or whose `COUNT` / `MIN` / `MAX` was the column's row
/// count and zone).
///
/// # Errors
///
/// As [`aggregate`].
pub fn aggregate_blocks(
    blocks: &[CompressedBlock],
    expr: &AggExpr,
) -> Result<(AggResult, ScanStats)> {
    let mut merger = AggMerger::new();
    let mut stats = ScanStats::default();
    for block in blocks {
        let (partial, pruned, matched) = aggregate_partial(block, expr)?;
        stats.record_block(block.rows(), matched, pruned, None);
        merger.merge(partial)?;
    }
    Ok((merger.finish(expr), stats))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compressor::{ColumnPlan, CompressionConfig};
    use corra_columnar::block::DataBlock;
    use corra_columnar::column::{Column, DataType};
    use corra_columnar::schema::{Field, Schema};
    use corra_columnar::strings::StringPool;

    fn mixed_block(n: usize, salt: i64) -> (DataBlock, CompressionConfig) {
        let city = StringPool::from_iter((0..n).map(|i| ["NYC", "Albany", "Naples"][i % 3]));
        let zip: Vec<i64> = (0..n)
            .map(|i| 10_000 + (i % 3) as i64 * 50 + (i / 3 % 4) as i64)
            .collect();
        let ship: Vec<i64> = (0..n)
            .map(|i| salt + 8_035 + (i as i64 * 17 % 2_000))
            .collect();
        let receipt: Vec<i64> = ship
            .iter()
            .enumerate()
            .map(|(i, &s)| s + 1 + (i as i64 % 30))
            .collect();
        let fee: Vec<i64> = (0..n).map(|i| 100 + (i as i64 % 10)).collect();
        let extra: Vec<i64> = vec![25; n];
        let total: Vec<i64> = (0..n)
            .map(|i| {
                if i % 2 == 0 {
                    fee[i]
                } else {
                    fee[i] + extra[i]
                }
            })
            .collect();
        let block = DataBlock::new(
            Schema::new(vec![
                Field::new("city", DataType::Utf8),
                Field::new("zip", DataType::Int64),
                Field::new("l_shipdate", DataType::Date),
                Field::new("l_receiptdate", DataType::Date),
                Field::new("fee", DataType::Int64),
                Field::new("extra", DataType::Int64),
                Field::new("total", DataType::Int64),
            ])
            .unwrap(),
            vec![
                Column::Utf8(city),
                Column::Int64(zip),
                Column::Int64(ship),
                Column::Int64(receipt),
                Column::Int64(fee),
                Column::Int64(extra),
                Column::Int64(total),
            ],
        )
        .unwrap();
        let cfg = CompressionConfig::baseline()
            .with(
                "zip",
                ColumnPlan::Hier {
                    reference: "city".into(),
                },
            )
            .with(
                "l_receiptdate",
                ColumnPlan::NonHier {
                    reference: "l_shipdate".into(),
                },
            )
            .with(
                "total",
                ColumnPlan::MultiRef {
                    groups: vec![vec!["fee".into()], vec!["extra".into()]],
                    code_bits: 2,
                },
            );
        (block, cfg)
    }

    fn naive_int(values: &[i64], keep: impl Fn(usize) -> bool) -> IntAggState {
        let mut s = IntAggState::default();
        for (i, &v) in values.iter().enumerate() {
            if keep(i) {
                s.update(v);
            }
        }
        s
    }

    #[test]
    fn scalar_aggregates_match_decompress_then_fold() {
        let (raw, cfg) = mixed_block(5_000, 0);
        let compressed = CompressedBlock::compress(&raw, &cfg).unwrap();
        for col in ["zip", "l_shipdate", "l_receiptdate", "fee", "total"] {
            let values = raw.column(col).unwrap().as_i64().unwrap();
            let want = naive_int(values, |_| true);
            let got = aggregate(&compressed, &AggExpr::sum(col)).unwrap();
            assert_eq!(
                got.as_scalar().unwrap(),
                &AggValue::Sum(Some(want.sum)),
                "{col}"
            );
            let got = aggregate(&compressed, &AggExpr::min(col)).unwrap();
            assert_eq!(got.as_scalar().unwrap(), &AggValue::Int(want.min), "{col}");
            let got = aggregate(&compressed, &AggExpr::max(col)).unwrap();
            assert_eq!(got.as_scalar().unwrap(), &AggValue::Int(want.max), "{col}");
            let got = aggregate(&compressed, &AggExpr::avg(col)).unwrap();
            assert_eq!(
                got.as_scalar().unwrap(),
                &AggValue::Avg(want.avg()),
                "{col}"
            );
        }
        let got = aggregate(&compressed, &AggExpr::count()).unwrap();
        assert_eq!(got.as_scalar().unwrap(), &AggValue::Count(5_000));
    }

    #[test]
    fn filtered_aggregates_match_oracle() {
        let (raw, cfg) = mixed_block(4_000, 0);
        let compressed = CompressedBlock::compress(&raw, &cfg).unwrap();
        let ship = raw.column("l_shipdate").unwrap().as_i64().unwrap();
        let receipt = raw.column("l_receiptdate").unwrap().as_i64().unwrap();
        let pred = Predicate::between("l_shipdate", 8_200, 9_000);
        let keep = |i: usize| (8_200..=9_000).contains(&ship[i]);
        let want = naive_int(receipt, keep);
        let expr = AggExpr::sum("l_receiptdate").with_filter(pred.clone());
        let got = aggregate(&compressed, &expr).unwrap();
        assert_eq!(got.as_scalar().unwrap(), &AggValue::Sum(Some(want.sum)));
        let expr = AggExpr::count().with_filter(pred.clone());
        let got = aggregate(&compressed, &expr).unwrap();
        assert_eq!(got.as_scalar().unwrap(), &AggValue::Count(want.count));
        // A filter that misses everything: SQL empty semantics.
        let none = Predicate::lt("l_shipdate", 0);
        let got = aggregate(&compressed, &AggExpr::min("fee").with_filter(none.clone())).unwrap();
        assert_eq!(got.as_scalar().unwrap(), &AggValue::Int(None));
        let got = aggregate(&compressed, &AggExpr::sum("fee").with_filter(none)).unwrap();
        assert_eq!(got.as_scalar().unwrap(), &AggValue::Sum(None));
    }

    #[test]
    fn grouped_aggregates_match_oracle() {
        let (raw, cfg) = mixed_block(3_000, 0);
        let compressed = CompressedBlock::compress(&raw, &cfg).unwrap();
        let zips = raw.column("zip").unwrap().as_i64().unwrap();
        // Group by the string parent: per-city zip sums.
        let expr = AggExpr::sum("zip").with_group_by("city");
        let got = aggregate(&compressed, &expr).unwrap();
        let mut want: BTreeMap<GroupKey, i128> = BTreeMap::new();
        for i in 0..3_000 {
            let city = ["NYC", "Albany", "Naples"][i % 3].to_owned();
            *want.entry(GroupKey::Str(city)).or_default() += zips[i] as i128;
        }
        let groups = got.as_groups().unwrap();
        assert_eq!(groups.len(), 3);
        for (k, v) in groups {
            assert_eq!(v, &AggValue::Sum(Some(want[k])), "{k:?}");
        }
        // Grouped count with a filter drops non-matching rows per group.
        let expr = AggExpr::count()
            .with_group_by("city")
            .with_filter(Predicate::between("zip", 10_050, 10_099));
        let got = aggregate(&compressed, &expr).unwrap();
        let groups = got.as_groups().unwrap();
        assert_eq!(groups.len(), 1, "{groups:?}");
        assert_eq!(groups[0].0, GroupKey::Str("Albany".to_owned()));
        assert_eq!(groups[0].1, AggValue::Count(1_000));
        // Grouped string target: lexicographic min city per city is itself.
        let expr = AggExpr::min("city").with_group_by("city");
        let got = aggregate(&compressed, &expr).unwrap();
        for (k, v) in got.as_groups().unwrap() {
            let GroupKey::Str(city) = k else { panic!() };
            assert_eq!(v, &AggValue::Str(Some(city.clone())));
        }
    }

    #[test]
    fn string_min_max_and_type_errors() {
        let (raw, cfg) = mixed_block(300, 0);
        let compressed = CompressedBlock::compress(&raw, &cfg).unwrap();
        let got = aggregate(&compressed, &AggExpr::min("city")).unwrap();
        assert_eq!(
            got.as_scalar().unwrap(),
            &AggValue::Str(Some("Albany".to_owned()))
        );
        // Byte-wise comparison: uppercase sorts before lowercase, so
        // "NYC" < "Naples".
        let got = aggregate(&compressed, &AggExpr::max("city")).unwrap();
        assert_eq!(
            got.as_scalar().unwrap(),
            &AggValue::Str(Some("Naples".to_owned()))
        );
        // SUM/AVG on strings and unknown columns error deterministically,
        // even when the filter would empty the selection first.
        assert!(aggregate(&compressed, &AggExpr::sum("city")).is_err());
        assert!(aggregate(&compressed, &AggExpr::avg("city")).is_err());
        assert!(aggregate(&compressed, &AggExpr::sum("nope")).is_err());
        let expr = AggExpr::sum("city").with_filter(Predicate::lt("zip", 0));
        assert!(aggregate(&compressed, &expr).is_err());
        // GROUP BY must name a dictionary-encoded column.
        let expr = AggExpr::count().with_group_by("l_shipdate");
        assert!(aggregate(&compressed, &expr).is_err());
        // Accessor mismatches on AggResult.
        let got = aggregate(&compressed, &AggExpr::count()).unwrap();
        assert!(got.as_groups().is_err());
        let got = aggregate(&compressed, &AggExpr::count().with_group_by("city")).unwrap();
        assert!(got.as_scalar().is_err());
    }

    /// Appends `more`'s rows to `into`, column by column.
    fn concat(into: &mut [Column], more: &DataBlock) {
        for (dst, src) in into.iter_mut().zip(more.columns()) {
            match (dst, src) {
                (Column::Int64(d), Column::Int64(s)) => d.extend_from_slice(s),
                (Column::Utf8(d), Column::Utf8(s)) => {
                    for v in s.iter() {
                        d.push(v);
                    }
                }
                _ => panic!("column kinds differ"),
            }
        }
    }

    #[test]
    fn multi_block_merge_equals_one_block_fold() {
        let raws: Vec<(DataBlock, CompressionConfig)> = [0, 50_000, 100_000]
            .iter()
            .map(|&salt| mixed_block(1_500, salt))
            .collect();
        let blocks: Vec<CompressedBlock> = raws
            .iter()
            .map(|(raw, cfg)| CompressedBlock::compress(raw, cfg).unwrap())
            .collect();
        let (first, cfg) = &raws[0];
        let mut columns = first.columns().to_vec();
        for (raw, _) in &raws[1..] {
            concat(&mut columns, raw);
        }
        let one = DataBlock::new(first.schema().clone(), columns).unwrap();
        let one = CompressedBlock::compress(&one, cfg).unwrap();
        for expr in [
            AggExpr::sum("l_receiptdate"),
            AggExpr::min("l_shipdate"),
            AggExpr::count().with_filter(Predicate::ge("l_shipdate", 50_000)),
            AggExpr::avg("total").with_group_by("city"),
            AggExpr::max("city").with_group_by("city"),
        ] {
            let (got, stats) = aggregate_blocks(&blocks, &expr).unwrap();
            let (want, one_stats) = aggregate_blocks(std::slice::from_ref(&one), &expr).unwrap();
            assert_eq!(got, want, "{expr:?}");
            assert_eq!(stats.blocks, 3, "{expr:?}");
            assert_eq!(stats.rows_total, 4_500, "{expr:?}");
            assert_eq!(stats.rows_matched, one_stats.rows_matched, "{expr:?}");
        }
        // Zero blocks: the typed empty result.
        let (got, stats) = aggregate_blocks(&[], &AggExpr::count()).unwrap();
        assert_eq!(got, AggResult::Scalar(AggValue::Count(0)));
        assert_eq!(stats.blocks, 0);
        let (got, _) = aggregate_blocks(&[], &AggExpr::sum("x").with_group_by("g")).unwrap();
        assert_eq!(got, AggResult::Grouped(Vec::new()));
    }

    #[test]
    fn multi_block_errors_propagate() {
        let (raw, cfg) = mixed_block(100, 0);
        let compressed = CompressedBlock::compress(&raw, &cfg).unwrap();
        let blocks = vec![compressed.clone(), compressed];
        assert!(aggregate_blocks(&blocks, &AggExpr::sum("nope")).is_err());
        let expr = AggExpr::count().with_group_by("l_shipdate");
        assert!(aggregate_blocks(&blocks, &expr).is_err());
    }

    #[test]
    fn grouped_fold_over_misaligned_group_codes_errors() {
        use crate::multiref::MultiRefInt;
        use corra_encodings::{DictInt, PlainInt};
        // The group column stores 3 rows, the reconstructed target 10.
        let reference: Vec<i64> = (0..10).collect();
        let block = CompressedBlock::new_unchecked(
            10,
            ["g", "r", "t"].map(String::from).to_vec(),
            vec![
                ColumnCodec::Int(IntEncoding::Dict(DictInt::encode(&[1, 2, 1]))),
                ColumnCodec::Int(IntEncoding::Plain(PlainInt::encode(&reference))),
                ColumnCodec::MultiRef {
                    enc: MultiRefInt::encode(&reference, std::slice::from_ref(&reference), 1)
                        .unwrap(),
                    groups: vec![vec![1]],
                },
            ],
            vec![None; 3],
        );
        let got = aggregate(&block, &AggExpr::sum("t").with_group_by("g"));
        assert!(matches!(
            got,
            Err(Error::LengthMismatch { left: 3, right: 10 })
        ));
    }

    #[test]
    fn sum_over_a_miswired_nonhier_errors() {
        use crate::nonhier::NonHierInt;
        use corra_encodings::PlainInt;
        // A zone inside the exactness bound sends SUM to the reference +
        // diff sum, which must refuse a reference it cannot pair row by row
        // exactly as the decode does.
        let target: Vec<i64> = (0..10).collect();
        let block = |reference: ColumnCodec| {
            CompressedBlock::new_unchecked(
                10,
                ["r", "t"].map(String::from).to_vec(),
                vec![
                    reference,
                    ColumnCodec::NonHier {
                        enc: NonHierInt::encode(&target, &target).unwrap(),
                        reference: 0,
                    },
                ],
                vec![None, ZoneMap::from_values(&target)],
            )
        };
        let short = block(ColumnCodec::Int(IntEncoding::Plain(PlainInt::encode(&[
            1, 2, 3,
        ]))));
        for expr in [AggExpr::sum("t"), AggExpr::avg("t")] {
            assert!(matches!(
                aggregate(&short, &expr),
                Err(Error::LengthMismatch { left: 3, right: 10 })
            ));
        }
        let strings = block(ColumnCodec::PlainStr(StringPool::from_iter(["a"; 10])));
        assert!(matches!(
            aggregate(&strings, &AggExpr::sum("t")),
            Err(Error::TypeMismatch {
                expected: "vertical int reference",
                found: "plain str"
            })
        ));
    }

    #[test]
    fn empty_block_aggregates_empty() {
        let block = DataBlock::new(
            Schema::new(vec![Field::new("v", DataType::Int64)]).unwrap(),
            vec![Column::Int64(Vec::new())],
        )
        .unwrap();
        let compressed = CompressedBlock::compress(&block, &CompressionConfig::baseline()).unwrap();
        let got = aggregate(&compressed, &AggExpr::count()).unwrap();
        assert_eq!(got.as_scalar().unwrap(), &AggValue::Count(0));
        let got = aggregate(&compressed, &AggExpr::min("v")).unwrap();
        assert_eq!(got.as_scalar().unwrap(), &AggValue::Int(None));
        let got = aggregate(&compressed, &AggExpr::avg("v")).unwrap();
        assert_eq!(got.as_scalar().unwrap(), &AggValue::Avg(None));
    }

    #[test]
    fn exact_bounds_are_exact_where_covering_bounds_overshoot() {
        // Every integer column's zone — vertical (FOR, whose frame would
        // overshoot to base + 2^bits - 1), Hier, NonHier and MultiRef — is
        // the true min / max, and answers MIN / MAX with no kernel.
        let (raw, cfg) = mixed_block(1_000, 0);
        let compressed = CompressedBlock::compress(&raw, &cfg).unwrap();
        for col in [
            "zip",
            "l_shipdate",
            "l_receiptdate",
            "fee",
            "extra",
            "total",
        ] {
            let values = raw.column(col).unwrap().as_i64().unwrap();
            let zone = compressed.zone(compressed.index_of(col).unwrap());
            assert_eq!(zone, ZoneMap::from_values(values), "{col}");
            let blocks = std::slice::from_ref(&compressed);
            let (got, stats) = aggregate_blocks(blocks, &AggExpr::max(col)).unwrap();
            assert_eq!(
                got,
                AggResult::Scalar(AggValue::Int(values.iter().max().copied()))
            );
            assert_eq!(stats.blocks_pruned, 1, "{col}");
        }
        // Strings carry no zone.
        assert!(compressed
            .zone(compressed.index_of("city").unwrap())
            .is_none());
    }
}
