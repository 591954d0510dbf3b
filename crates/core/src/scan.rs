//! Predicate pushdown: producing [`SelectionVector`]s straight off
//! compressed blocks.
//!
//! The query kernels in [`crate::query`] take a *given* selection and
//! materialize values; this module closes the loop by turning
//! `column OP constant` (and conjunctions) into that selection without
//! decompressing whole columns:
//!
//! 1. **Block pruning** — the predicate's normalized [`IntRange`] is tested
//!    against the column's exact [`ZoneMap`] ([`BlockView::zone`], recorded
//!    at encode for every integer column). Blocks whose zone proves
//!    `None`/`All` decode zero values.
//! 2. **One kernel per column** — the resolved column's
//!    [`corra_encodings::IntAccess::filter_into`]: vertical codecs in
//!    their compressed domain, hierarchical columns with a verdict per
//!    Alg. 1 metadata entry, non-hierarchical and multi-reference columns
//!    reconstructed a block at a time through the batch kernels
//!    decompression uses and run through the same SIMD range kernel as a
//!    vertical chunk. Materializing *selected* rows keeps the per-row §2.3
//!    order.
//! 3. **Materialization** — [`scan_query`] / [`scan_query_both`] feed the
//!    produced selection into the existing [`crate::query`] kernels, so
//!    filter → materialize runs end to end on compressed data.
//!
//! A multi-block scan is one loop over the blocks of any source — in
//! memory ([`scan_blocks`]) or in table files
//! ([`crate::store::SegmentedTable::scan_blocks`]): selections come back in
//! block order and [`ScanStats`] folds each block as it is scanned.

use std::borrow::Borrow;

use corra_columnar::error::{Error, Result};
use corra_columnar::predicate::{IntRange, RangeVerdict};
use corra_columnar::selection::SelectionVector;
use corra_columnar::stats::ZoneMap;

use crate::compressor::{BlockSource, BlockView, CompressedBlock};
use crate::query::{int_column, str_column, DecodeScratch, QueryOutput};
use crate::store::LoadCost;

/// A comparison operator of a scan predicate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CmpOp {
    /// `column = constant`
    Eq,
    /// `column != constant`
    Ne,
    /// `column < constant`
    Lt,
    /// `column <= constant`
    Le,
    /// `column > constant`
    Gt,
    /// `column >= constant`
    Ge,
}

impl CmpOp {
    /// Lowers `column OP value` into the normalized inclusive range the
    /// filter kernels evaluate.
    pub fn to_range(self, value: i64) -> IntRange {
        match self {
            CmpOp::Eq => IntRange::new(value, value),
            CmpOp::Ne => IntRange::negated(value, value),
            CmpOp::Lt => {
                if value == i64::MIN {
                    IntRange::empty()
                } else {
                    IntRange::new(i64::MIN, value - 1)
                }
            }
            CmpOp::Le => IntRange::new(i64::MIN, value),
            CmpOp::Gt => {
                if value == i64::MAX {
                    IntRange::empty()
                } else {
                    IntRange::new(value + 1, i64::MAX)
                }
            }
            CmpOp::Ge => IntRange::new(value, i64::MAX),
        }
    }
}

/// A pushdown-able predicate over one block.
#[derive(Debug, Clone, PartialEq)]
pub enum Predicate {
    /// `column OP constant` over an integer (or date) column.
    Compare {
        /// Filtered column name.
        column: String,
        /// Comparison operator.
        op: CmpOp,
        /// Constant operand.
        value: i64,
    },
    /// `column BETWEEN lo AND hi` (inclusive on both ends).
    Between {
        /// Filtered column name.
        column: String,
        /// Inclusive lower bound.
        lo: i64,
        /// Inclusive upper bound.
        hi: i64,
    },
    /// `column = 'constant'` (or `!=`) over a string column.
    StrEq {
        /// Filtered column name.
        column: String,
        /// Constant operand.
        value: String,
        /// Whether the comparison is negated (`!=`).
        negate: bool,
    },
    /// Conjunction: every child predicate must match.
    And(Vec<Predicate>),
    /// Disjunction: at least one child predicate must match. The empty
    /// disjunction matches nothing.
    Or(Vec<Predicate>),
    /// Negation, evaluated at the selection-vector level
    /// ([`SelectionVector::complement`]).
    Not(Box<Predicate>),
}

impl Predicate {
    /// `column = value`.
    pub fn eq(column: &str, value: i64) -> Self {
        Self::cmp(column, CmpOp::Eq, value)
    }

    /// `column != value`.
    pub fn ne(column: &str, value: i64) -> Self {
        Self::cmp(column, CmpOp::Ne, value)
    }

    /// `column < value`.
    pub fn lt(column: &str, value: i64) -> Self {
        Self::cmp(column, CmpOp::Lt, value)
    }

    /// `column <= value`.
    pub fn le(column: &str, value: i64) -> Self {
        Self::cmp(column, CmpOp::Le, value)
    }

    /// `column > value`.
    pub fn gt(column: &str, value: i64) -> Self {
        Self::cmp(column, CmpOp::Gt, value)
    }

    /// `column >= value`.
    pub fn ge(column: &str, value: i64) -> Self {
        Self::cmp(column, CmpOp::Ge, value)
    }

    /// `column OP value`.
    pub fn cmp(column: &str, op: CmpOp, value: i64) -> Self {
        Predicate::Compare {
            column: column.to_owned(),
            op,
            value,
        }
    }

    /// `column BETWEEN lo AND hi` (inclusive).
    pub fn between(column: &str, lo: i64, hi: i64) -> Self {
        Predicate::Between {
            column: column.to_owned(),
            lo,
            hi,
        }
    }

    /// `column = 'value'` for string columns.
    pub fn str_eq(column: &str, value: &str) -> Self {
        Predicate::StrEq {
            column: column.to_owned(),
            value: value.to_owned(),
            negate: false,
        }
    }

    /// `column != 'value'` for string columns.
    pub fn str_ne(column: &str, value: &str) -> Self {
        Predicate::StrEq {
            column: column.to_owned(),
            value: value.to_owned(),
            negate: true,
        }
    }

    /// The conjunction of `children`.
    pub fn and(children: Vec<Predicate>) -> Self {
        Predicate::And(children)
    }

    /// The disjunction of `children`.
    pub fn or(children: Vec<Predicate>) -> Self {
        Predicate::Or(children)
    }

    /// The negation of `child`.
    #[allow(clippy::should_implement_trait)]
    pub fn not(child: Predicate) -> Self {
        Predicate::Not(Box::new(child))
    }
}

/// Aggregate statistics of a multi-block operation. Every source — an
/// in-memory slice, a file, a segmented table — fills them through the
/// same driver, so the block counters mean one thing everywhere; the I/O
/// counters stay 0 in memory, which has no I/O.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ScanStats {
    /// Blocks visited.
    pub blocks: usize,
    /// Blocks for which no per-row kernel ran: zone maps (or the row
    /// count, or a TOP-K bound) decided them, so they decoded zero values.
    pub blocks_pruned: usize,
    /// Total rows across visited blocks.
    pub rows_total: usize,
    /// Rows matching the predicate.
    pub rows_matched: usize,
    /// Blocks of a table file whose lazy handle loaded no column payload
    /// at all — not a byte of them was read. 0 in memory.
    pub blocks_skipped_io: usize,
    /// Payload/segment bytes fetched from the underlying table files. 0 in
    /// memory.
    pub bytes_read: u64,
    /// Payload loads answered by an attached [`crate::cache::ShardedCache`]
    /// (no backend I/O, no deserialization). 0 in memory and for readers
    /// without a cache.
    pub cache_hits: u64,
    /// Payload loads that missed the attached cache and fell through to the
    /// backend. 0 in memory and for cacheless readers.
    pub cache_misses: u64,
    /// Segment files behind the operation: 1 for a single-file reader, one
    /// per live segment for a [`crate::store::SegmentedTable`], 0 in
    /// memory.
    pub segments_opened: usize,
}

impl ScanStats {
    /// Zeroed counters for an operation about to visit `source`.
    pub(crate) fn over<S: BlockSource + ?Sized>(source: &S) -> Self {
        Self {
            segments_opened: source.segments(),
            ..Self::default()
        }
    }

    /// Folds one visited block into the counters — the one per-block fold
    /// every multi-block driver shares. `matched` is the rows the operator
    /// kept, `pruned` whether no per-row kernel ran; `io` is the source's
    /// report on the block's view ([`BlockSource::io`]): `None` in memory,
    /// else whether it loaded nothing and what its loads cost.
    pub(crate) fn record_block(
        &mut self,
        rows: usize,
        matched: usize,
        pruned: bool,
        io: Option<(bool, LoadCost)>,
    ) {
        self.blocks += 1;
        self.blocks_pruned += usize::from(pruned);
        self.rows_total += rows;
        self.rows_matched += matched;
        if let Some((skipped_io, cost)) = io {
            self.blocks_skipped_io += usize::from(skipped_io);
            self.bytes_read += cost.bytes;
            self.cache_hits += cost.cache_hits;
            self.cache_misses += cost.cache_misses;
        }
    }

    /// Folds another operation's counters into this one — the one place
    /// multi-segment and multi-request accounting merge.
    pub fn absorb(&mut self, other: &ScanStats) {
        self.blocks += other.blocks;
        self.blocks_pruned += other.blocks_pruned;
        self.rows_total += other.rows_total;
        self.rows_matched += other.rows_matched;
        self.blocks_skipped_io += other.blocks_skipped_io;
        self.bytes_read += other.bytes_read;
        self.cache_hits += other.cache_hits;
        self.cache_misses += other.cache_misses;
        self.segments_opened += other.segments_opened;
    }
}

/// Evaluates a whole predicate tree against per-column zone maps, without
/// touching any payload bytes. `zone_of` resolves a column name to its
/// zone (`None` when no zone exists — e.g. string columns), so this works
/// off the table footer as well as off in-memory blocks.
///
/// Returns [`RangeVerdict::None`] / [`RangeVerdict::All`] only when
/// provable for every row; anything uncertain is `Partial`.
pub(crate) fn tree_verdict(
    pred: &Predicate,
    zone_of: &dyn Fn(&str) -> Option<ZoneMap>,
) -> RangeVerdict {
    match pred {
        Predicate::Compare { column, op, value } => match zone_of(column) {
            Some(zone) => op.to_range(*value).verdict(&zone),
            None => RangeVerdict::Partial,
        },
        Predicate::Between { column, lo, hi } => match zone_of(column) {
            Some(zone) => IntRange::new(*lo, *hi).verdict(&zone),
            None => RangeVerdict::Partial,
        },
        Predicate::StrEq { .. } => RangeVerdict::Partial,
        Predicate::And(children) => {
            // Vacuously true; one provable miss prunes the conjunction.
            let mut acc = RangeVerdict::All;
            for child in children {
                match tree_verdict(child, zone_of) {
                    RangeVerdict::None => return RangeVerdict::None,
                    RangeVerdict::All => {}
                    RangeVerdict::Partial => acc = RangeVerdict::Partial,
                }
            }
            acc
        }
        Predicate::Or(children) => {
            // Vacuously false; one provable full match covers the block.
            let mut acc = RangeVerdict::None;
            for child in children {
                match tree_verdict(child, zone_of) {
                    RangeVerdict::All => return RangeVerdict::All,
                    RangeVerdict::None => {}
                    RangeVerdict::Partial => acc = RangeVerdict::Partial,
                }
            }
            acc
        }
        Predicate::Not(child) => match tree_verdict(child, zone_of) {
            RangeVerdict::None => RangeVerdict::All,
            RangeVerdict::All => RangeVerdict::None,
            RangeVerdict::Partial => RangeVerdict::Partial,
        },
    }
}

/// Evaluates `pred` against one compressed block, returning the matching
/// positions as a sorted [`SelectionVector`].
///
/// # Errors
///
/// Unknown column names, or a type mismatch between the predicate and the
/// column's codec (integer predicate on a string column or vice versa).
pub fn scan<B: BlockView + ?Sized>(block: &B, pred: &Predicate) -> Result<SelectionVector> {
    Ok(scan_pruned(block, pred)?.0)
}

/// Like [`scan`], additionally reporting whether the block was answered
/// entirely from zone maps (pruned: no per-row kernel ran).
///
/// Footer-first: the predicate is validated from metadata, and the whole
/// tree's zone verdict (`zone_verdict`) decides an empty or covered
/// block before any leaf loads a payload.
pub fn scan_pruned<B: BlockView + ?Sized>(
    block: &B,
    pred: &Predicate,
) -> Result<(SelectionVector, bool)> {
    // Validate the whole predicate up front so unknown columns and type
    // mismatches error deterministically — not dependent on block row
    // counts or on which conjunct happens to empty the selection first.
    validate_pred(block, pred)?;
    let rows = block.rows();
    if rows == 0 {
        return Ok((SelectionVector::empty(), true));
    }
    match zone_verdict(block, pred) {
        RangeVerdict::None => Ok((SelectionVector::empty(), true)),
        RangeVerdict::All => Ok((SelectionVector::all(rows), true)),
        RangeVerdict::Partial => {
            let (sel, ran_kernel) = scan_inner(block, pred)?;
            Ok((sel, !ran_kernel))
        }
    }
}

/// [`tree_verdict`] over `block`'s zones: what the zones alone prove about
/// `pred` on this block, read without loading a payload.
pub(crate) fn zone_verdict<B: BlockView + ?Sized>(block: &B, pred: &Predicate) -> RangeVerdict {
    tree_verdict(pred, &|column| block.zone(block.index_of(column).ok()?))
}

/// Checks every referenced column exists and its codec matches the
/// predicate's operand type, from metadata alone ([`BlockView::is_string`]
/// never loads a payload). Shared with the aggregate and TOP-K kernels,
/// which validate their optional filter the same way before any kernel
/// runs.
pub(crate) fn validate_pred<B: BlockView + ?Sized>(block: &B, pred: &Predicate) -> Result<()> {
    match pred {
        Predicate::Compare { column, .. } | Predicate::Between { column, .. } => {
            if block.is_string(block.index_of(column)?) {
                return Err(Error::TypeMismatch {
                    expected: "integer column for integer predicate",
                    found: "string column",
                });
            }
            Ok(())
        }
        Predicate::StrEq { column, .. } => {
            if !block.is_string(block.index_of(column)?) {
                return Err(Error::TypeMismatch {
                    expected: "string column for string predicate",
                    found: "integer column",
                });
            }
            Ok(())
        }
        Predicate::And(children) | Predicate::Or(children) => {
            children.iter().try_for_each(|c| validate_pred(block, c))
        }
        Predicate::Not(child) => validate_pred(block, child),
    }
}

/// Scans every block, returning per-block selections plus aggregate stats.
pub fn scan_blocks(
    blocks: &[CompressedBlock],
    pred: &Predicate,
) -> Result<(Vec<SelectionVector>, ScanStats)> {
    scan_source(blocks, pred)
}

/// The one multi-block scan: every source — memory, a file, a segmented
/// table — runs this loop, selections in block order.
pub(crate) fn scan_source<S: BlockSource + ?Sized>(
    source: &S,
    pred: &Predicate,
) -> Result<(Vec<SelectionVector>, ScanStats)> {
    let mut stats = ScanStats::over(source);
    let mut selections = Vec::with_capacity(source.n_blocks());
    for b in 0..source.n_blocks() {
        let view = source.open(b)?;
        let block: &S::Block = view.borrow();
        let (sel, pruned) = scan_pruned(block, pred)?;
        stats.record_block(block.rows(), sel.len(), pruned, S::io(block));
        selections.push(sel);
    }
    Ok((selections, stats))
}

/// Filter → materialize in one call: scans for `pred` and materializes
/// `project` at the matching positions via [`crate::query::query_column`].
pub fn scan_query<B: BlockView + ?Sized>(
    block: &B,
    pred: &Predicate,
    project: &str,
) -> Result<QueryOutput> {
    crate::query::query_column(block, project, &scan(block, pred)?)
}

/// Filter → materialize for a diff-encoded target *and* its reference
/// column ("query on both columns") via [`crate::query::query_both`].
pub fn scan_query_both<B: BlockView + ?Sized>(
    block: &B,
    pred: &Predicate,
    target: &str,
) -> Result<(QueryOutput, QueryOutput)> {
    crate::query::query_both(block, target, &scan(block, pred)?)
}

/// Returns `(selection, ran_kernel)`; `ran_kernel` is false when the result
/// was decided without touching any row payload. Called on blocks with at
/// least one row.
fn scan_inner<B: BlockView + ?Sized>(
    block: &B,
    pred: &Predicate,
) -> Result<(SelectionVector, bool)> {
    match pred {
        Predicate::Compare { column, op, value } => {
            eval_int_leaf(block, column, &op.to_range(*value))
        }
        Predicate::Between { column, lo, hi } => {
            eval_int_leaf(block, column, &IntRange::new(*lo, *hi))
        }
        Predicate::StrEq {
            column,
            value,
            negate,
        } => eval_str_leaf(block, column, value, *negate),
        Predicate::And(children) => {
            // The empty conjunction is vacuously true.
            let mut acc: Option<SelectionVector> = None;
            let mut ran_kernel = false;
            for child in children {
                let (sel, ran) = scan_inner(block, child)?;
                ran_kernel |= ran;
                if sel.is_empty() {
                    return Ok((sel, ran_kernel));
                }
                acc = Some(match acc {
                    None => sel,
                    Some(a) => a.intersect(&sel),
                });
            }
            Ok((
                acc.unwrap_or_else(|| SelectionVector::all(block.rows())),
                ran_kernel,
            ))
        }
        Predicate::Or(children) => {
            // The empty disjunction is vacuously false.
            let mut acc = SelectionVector::empty();
            let mut ran_kernel = false;
            let rows = block.rows();
            for child in children {
                let (sel, ran) = scan_inner(block, child)?;
                ran_kernel |= ran;
                acc = acc.union(&sel);
                if acc.len() == rows {
                    // Already a full selection; later children cannot add
                    // rows (they were validated up front).
                    break;
                }
            }
            Ok((acc, ran_kernel))
        }
        Predicate::Not(child) => {
            let (sel, ran) = scan_inner(block, child)?;
            Ok((sel.complement(block.rows()), ran))
        }
    }
}

fn eval_int_leaf<B: BlockView + ?Sized>(
    block: &B,
    column: &str,
    range: &IntRange,
) -> Result<(SelectionVector, bool)> {
    let idx = block.index_of(column)?;
    let rows = block.rows();
    // Zone-map pruning: skip the per-row kernel when the range provably
    // misses (or covers) every value in the block.
    if let Some(zone) = block.zone(idx) {
        match range.verdict(&zone) {
            RangeVerdict::None => return Ok((SelectionVector::empty(), false)),
            RangeVerdict::All => return Ok((SelectionVector::all(rows), false)),
            RangeVerdict::Partial => {}
        }
    }
    let mut out = SelectionVector::empty();
    int_column(block, idx, &DecodeScratch::default(), |c| {
        c.filter_into(range, &mut out)
    })?;
    Ok((out, true))
}

fn eval_str_leaf<B: BlockView + ?Sized>(
    block: &B,
    column: &str,
    value: &str,
    negate: bool,
) -> Result<(SelectionVector, bool)> {
    let sel = str_column(block, block.index_of(column)?)?.filter_eq(value, negate);
    Ok((sel, true))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compressor::{ColumnPlan, CompressionConfig};
    use corra_columnar::block::DataBlock;
    use corra_columnar::column::{Column, DataType};
    use corra_columnar::schema::{Field, Schema};
    use corra_columnar::strings::StringPool;

    fn date_block(n: usize) -> (DataBlock, CompressionConfig) {
        let ship: Vec<i64> = (0..n).map(|i| 8_035 + (i as i64 * 17 % 2_500)).collect();
        let receipt: Vec<i64> = ship
            .iter()
            .enumerate()
            .map(|(i, &s)| s + 1 + (i as i64 % 30))
            .collect();
        let block = DataBlock::new(
            Schema::new(vec![
                Field::new("l_shipdate", DataType::Date),
                Field::new("l_receiptdate", DataType::Date),
            ])
            .unwrap(),
            vec![Column::Int64(ship), Column::Int64(receipt)],
        )
        .unwrap();
        let cfg = CompressionConfig::baseline().with(
            "l_receiptdate",
            ColumnPlan::NonHier {
                reference: "l_shipdate".into(),
            },
        );
        (block, cfg)
    }

    fn expected_positions(block: &DataBlock, column: &str, range: &IntRange) -> Vec<u32> {
        let raw = block.column(column).unwrap().as_i64().unwrap();
        corra_encodings::filter::filter_naive(raw, range)
    }

    #[test]
    fn scan_vertical_and_nonhier_match_naive() {
        let (block, cfg) = date_block(10_000);
        let compressed = CompressedBlock::compress(&block, &cfg).unwrap();
        for (pred, column, range) in [
            (
                Predicate::between("l_shipdate", 8_100, 8_200),
                "l_shipdate",
                IntRange::new(8_100, 8_200),
            ),
            (
                Predicate::le("l_receiptdate", 8_300),
                "l_receiptdate",
                IntRange::new(i64::MIN, 8_300),
            ),
            (
                Predicate::ne("l_receiptdate", 8_050),
                "l_receiptdate",
                IntRange::negated(8_050, 8_050),
            ),
        ] {
            let sel = scan(&compressed, &pred).unwrap();
            assert_eq!(
                sel.positions(),
                &expected_positions(&block, column, &range)[..],
                "{pred:?}"
            );
        }
    }

    #[test]
    fn scan_feeds_query_end_to_end() {
        let (block, cfg) = date_block(5_000);
        let compressed = CompressedBlock::compress(&block, &cfg).unwrap();
        let pred = Predicate::between("l_receiptdate", 8_100, 8_160);
        let out = scan_query(&compressed, &pred, "l_receiptdate").unwrap();
        let raw = block.column("l_receiptdate").unwrap().as_i64().unwrap();
        let want: Vec<i64> = raw
            .iter()
            .copied()
            .filter(|&v| (8_100..=8_160).contains(&v))
            .collect();
        assert_eq!(out.as_int().unwrap(), &want[..]);
        // Both-columns materialization stays aligned with the selection.
        let (tgt, rf) = scan_query_both(&compressed, &pred, "l_receiptdate").unwrap();
        assert_eq!(tgt.as_int().unwrap(), &want[..]);
        assert_eq!(tgt.len(), rf.len());
    }

    #[test]
    fn conjunction_intersects() {
        let (block, cfg) = date_block(8_000);
        let compressed = CompressedBlock::compress(&block, &cfg).unwrap();
        let pred = Predicate::and(vec![
            Predicate::ge("l_shipdate", 8_500),
            Predicate::le("l_receiptdate", 9_000),
        ]);
        let sel = scan(&compressed, &pred).unwrap();
        let ship = block.column("l_shipdate").unwrap().as_i64().unwrap();
        let receipt = block.column("l_receiptdate").unwrap().as_i64().unwrap();
        let want: Vec<u32> = (0..block.rows())
            .filter(|&i| ship[i] >= 8_500 && receipt[i] <= 9_000)
            .map(|i| i as u32)
            .collect();
        assert_eq!(sel.positions(), &want[..]);
        // Empty conjunction selects everything.
        let all = scan(&compressed, &Predicate::and(Vec::new())).unwrap();
        assert_eq!(all.len(), block.rows());
    }

    #[test]
    fn or_and_not_match_naive_boolean_trees() {
        let (block, cfg) = date_block(6_000);
        let compressed = CompressedBlock::compress(&block, &cfg).unwrap();
        let ship = block.column("l_shipdate").unwrap().as_i64().unwrap();
        let receipt = block.column("l_receiptdate").unwrap().as_i64().unwrap();
        // (ship < 8_300 OR receipt > 10_000) AND NOT(ship = 8_052)
        let pred = Predicate::and(vec![
            Predicate::or(vec![
                Predicate::lt("l_shipdate", 8_300),
                Predicate::gt("l_receiptdate", 10_000),
            ]),
            Predicate::not(Predicate::eq("l_shipdate", 8_052)),
        ]);
        let sel = scan(&compressed, &pred).unwrap();
        let want: Vec<u32> = (0..block.rows())
            .filter(|&i| (ship[i] < 8_300 || receipt[i] > 10_000) && ship[i] != 8_052)
            .map(|i| i as u32)
            .collect();
        assert_eq!(sel.positions(), &want[..]);
        // NOT over a pruned leaf still skips the kernel entirely.
        let (sel, pruned) =
            scan_pruned(&compressed, &Predicate::not(Predicate::lt("l_shipdate", 0))).unwrap();
        assert_eq!(sel.len(), block.rows());
        assert!(pruned);
        // Empty disjunction matches nothing; double negation is identity.
        let none = scan(&compressed, &Predicate::or(Vec::new())).unwrap();
        assert!(none.is_empty());
        let base = Predicate::between("l_shipdate", 8_100, 8_200);
        let double = Predicate::not(Predicate::not(base.clone()));
        assert_eq!(
            scan(&compressed, &double).unwrap(),
            scan(&compressed, &base).unwrap()
        );
        // Validation reaches inside Or/Not.
        assert!(scan(&compressed, &Predicate::or(vec![Predicate::eq("nope", 1)])).is_err());
        assert!(scan(
            &compressed,
            &Predicate::not(Predicate::str_eq("l_shipdate", "x"))
        )
        .is_err());
    }

    #[test]
    fn tree_verdict_combines_soundly() {
        let zone_of = |name: &str| -> Option<ZoneMap> {
            (name == "d").then_some(ZoneMap { min: 10, max: 20 })
        };
        let miss = Predicate::lt("d", 0);
        let cover = Predicate::ge("d", -5);
        let straddle = Predicate::ge("d", 15);
        let opaque = Predicate::str_eq("s", "x");
        assert_eq!(tree_verdict(&miss, &zone_of), RangeVerdict::None);
        assert_eq!(tree_verdict(&cover, &zone_of), RangeVerdict::All);
        assert_eq!(tree_verdict(&straddle, &zone_of), RangeVerdict::Partial);
        assert_eq!(tree_verdict(&opaque, &zone_of), RangeVerdict::Partial);
        assert_eq!(
            tree_verdict(&Predicate::and(vec![cover.clone(), miss.clone()]), &zone_of),
            RangeVerdict::None
        );
        assert_eq!(
            tree_verdict(
                &Predicate::and(vec![cover.clone(), cover.clone()]),
                &zone_of
            ),
            RangeVerdict::All
        );
        assert_eq!(
            tree_verdict(&Predicate::or(vec![miss.clone(), cover.clone()]), &zone_of),
            RangeVerdict::All
        );
        assert_eq!(
            tree_verdict(&Predicate::or(vec![miss.clone(), miss.clone()]), &zone_of),
            RangeVerdict::None
        );
        assert_eq!(
            tree_verdict(
                &Predicate::or(vec![miss.clone(), straddle.clone()]),
                &zone_of
            ),
            RangeVerdict::Partial
        );
        assert_eq!(
            tree_verdict(&Predicate::not(miss.clone()), &zone_of),
            RangeVerdict::All
        );
        assert_eq!(
            tree_verdict(&Predicate::not(cover), &zone_of),
            RangeVerdict::None
        );
        assert_eq!(
            tree_verdict(&Predicate::and(Vec::new()), &zone_of),
            RangeVerdict::All
        );
        assert_eq!(
            tree_verdict(&Predicate::or(Vec::new()), &zone_of),
            RangeVerdict::None
        );
        assert_eq!(
            tree_verdict(&Predicate::and(vec![opaque, miss]), &zone_of),
            RangeVerdict::None
        );
    }

    #[test]
    fn zone_maps_prune_blocks() {
        let (block, cfg) = date_block(4_000);
        let compressed = CompressedBlock::compress(&block, &cfg).unwrap();
        // Dates live in [8035, ~10564]; a disjoint range is pruned, a
        // covering range short-circuits to a full selection.
        let (sel, pruned) = scan_pruned(&compressed, &Predicate::lt("l_shipdate", 0)).unwrap();
        assert!(sel.is_empty());
        assert!(pruned);
        let (sel, pruned) =
            scan_pruned(&compressed, &Predicate::ge("l_shipdate", -1_000_000)).unwrap();
        assert_eq!(sel.len(), block.rows());
        assert!(pruned);
        // The diff-encoded column carries its own exact zone.
        let (sel, pruned) =
            scan_pruned(&compressed, &Predicate::gt("l_receiptdate", 1 << 40)).unwrap();
        assert!(sel.is_empty());
        assert!(pruned);
        // A straddling range must run the kernel.
        let (_, pruned) =
            scan_pruned(&compressed, &Predicate::between("l_shipdate", 8_100, 8_200)).unwrap();
        assert!(!pruned);
    }

    #[test]
    fn scan_blocks_reports_stats() {
        let (block, cfg) = date_block(2_000);
        let compressed = CompressedBlock::compress(&block, &cfg).unwrap();
        let blocks = vec![compressed.clone(), compressed];
        let (sels, stats) = scan_blocks(&blocks, &Predicate::lt("l_shipdate", 0)).unwrap();
        assert_eq!(sels.len(), 2);
        assert_eq!(stats.blocks, 2);
        assert_eq!(stats.blocks_pruned, 2);
        assert_eq!(stats.rows_total, 4_000);
        assert_eq!(stats.rows_matched, 0);
        // No blocks: no selections and untouched counters.
        let (sels, stats) = scan_blocks(&[], &Predicate::lt("l_shipdate", 0)).unwrap();
        assert!(sels.is_empty());
        assert_eq!(stats, ScanStats::default());
        assert!(scan_blocks(&blocks, &Predicate::eq("no_such_column", 1)).is_err());
    }

    #[test]
    fn string_predicates_and_type_mismatches() {
        let n = 3_000;
        let cities = StringPool::from_iter((0..n).map(|i| ["NYC", "Naples", "Albany"][i % 3]));
        let zips: Vec<i64> = (0..n)
            .map(|i| 10_000 + (i % 3) as i64 * 500 + (i / 3 % 6) as i64)
            .collect();
        let block = DataBlock::new(
            Schema::new(vec![
                Field::new("city", DataType::Utf8),
                Field::new("zip", DataType::Int64),
            ])
            .unwrap(),
            vec![Column::Utf8(cities), Column::Int64(zips)],
        )
        .unwrap();
        let cfg = CompressionConfig::baseline().with(
            "zip",
            ColumnPlan::Hier {
                reference: "city".into(),
            },
        );
        let compressed = CompressedBlock::compress(&block, &cfg).unwrap();
        let sel = scan(&compressed, &Predicate::str_eq("city", "Naples")).unwrap();
        let want: Vec<u32> = (0..n).filter(|i| i % 3 == 1).map(|i| i as u32).collect();
        assert_eq!(sel.positions(), &want[..]);
        // Hierarchical target filtered through parent codes.
        let sel = scan(&compressed, &Predicate::between("zip", 10_500, 10_999)).unwrap();
        assert_eq!(sel.positions(), &want[..]);
        // Mismatched predicate/column types error.
        assert!(scan(&compressed, &Predicate::eq("city", 1)).is_err());
        assert!(scan(&compressed, &Predicate::str_eq("zip", "x")).is_err());
        assert!(scan(&compressed, &Predicate::eq("nope", 1)).is_err());
        // Validation is up-front: a malformed second conjunct errors even
        // when the first conjunct already empties the selection.
        let pred = Predicate::and(vec![
            Predicate::lt("zip", 0), // matches nothing
            Predicate::eq("typo_column", 1),
        ]);
        assert!(scan(&compressed, &pred).is_err());
        let pred = Predicate::and(vec![
            Predicate::lt("zip", 0),
            Predicate::eq("city", 1), // type mismatch
        ]);
        assert!(scan(&compressed, &pred).is_err());
    }

    #[test]
    fn empty_block_scans_empty() {
        let block = DataBlock::new(
            Schema::new(vec![Field::new("v", DataType::Int64)]).unwrap(),
            vec![Column::Int64(Vec::new())],
        )
        .unwrap();
        let compressed = CompressedBlock::compress(&block, &CompressionConfig::baseline()).unwrap();
        let sel = scan(&compressed, &Predicate::eq("v", 1)).unwrap();
        assert!(sel.is_empty());
        // Validation still runs on zero-row blocks.
        assert!(scan(&compressed, &Predicate::str_eq("v", "x")).is_err());
        assert!(scan(&compressed, &Predicate::eq("nope", 1)).is_err());
    }
}
