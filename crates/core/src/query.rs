//! The query kernels behind the latency experiments (Figs. 5–8).
//!
//! The paper measures two access patterns against a selection vector:
//!
//! * **query on the diff-encoded column** — materialize only the target
//!   column; Corra must additionally fetch the reference column(s) per
//!   selected row, which is the measured overhead;
//! * **query on both columns** — materialize target *and* reference; here
//!   the reference fetch is shared, so non-hierarchical Corra reconstructs
//!   the target by "direct addition" at ~no extra cost.

use std::cell::RefCell;

use corra_columnar::aggregate::StrAggState;
use corra_columnar::bitpack::{BitPackedVec, PackedReader};
use corra_columnar::error::{Error, Result};
use corra_columnar::selection::{rows_fit, SelectionVector};
use corra_columnar::strings::StringPool;
use corra_encodings::{IntAccess, IntEncoding};

use crate::compressor::{codec_kind, BlockView, ColumnCodec};
use crate::hier::{for_each_address_chunk, HierColumn};
use crate::multiref::MultiRefColumn;
use crate::nonhier::NonHierColumn;

/// Materialized query output (the paper materializes values, not positions).
#[derive(Debug, Clone, PartialEq)]
pub enum QueryOutput {
    /// Integer values.
    Int(Vec<i64>),
    /// String values.
    Str(Vec<String>),
}

impl QueryOutput {
    /// Number of materialized rows.
    pub fn len(&self) -> usize {
        match self {
            QueryOutput::Int(v) => v.len(),
            QueryOutput::Str(v) => v.len(),
        }
    }

    /// Whether nothing was materialized.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Borrows integer output.
    pub fn as_int(&self) -> Result<&[i64]> {
        match self {
            QueryOutput::Int(v) => Ok(v),
            QueryOutput::Str(_) => Err(Error::TypeMismatch {
                expected: "int output",
                found: "str output",
            }),
        }
    }

    /// Borrows string output.
    pub fn as_str_rows(&self) -> Result<&[String]> {
        match self {
            QueryOutput::Str(v) => Ok(v),
            QueryOutput::Int(_) => Err(Error::TypeMismatch {
                expected: "str output",
                found: "int output",
            }),
        }
    }
}

/// Fast reference-value accessor resolved once per query: the common
/// vertical codecs get direct, assertion-free paths with the bit-width
/// mask hoisted into a [`PackedReader`] (the block's assembly checked the
/// reference's length; the row's own codec checks the position).
pub(crate) enum RefAccess<'a> {
    For {
        base: i64,
        offsets: PackedReader<'a>,
    },
    Dict {
        dict: &'a [i64],
        codes: PackedReader<'a>,
    },
    Plain(&'a [i64]),
    Other(&'a IntEncoding),
}

impl<'a> RefAccess<'a> {
    /// The accessor of a vertical reference codec.
    pub(crate) fn of(enc: &'a IntEncoding) -> Self {
        match enc {
            IntEncoding::For(e) => RefAccess::For {
                base: e.base(),
                offsets: e.offset_reader(),
            },
            IntEncoding::Dict(e) => RefAccess::Dict {
                dict: e.dict(),
                codes: e.code_reader(),
            },
            IntEncoding::Plain(e) => RefAccess::Plain(e.values()),
            e => RefAccess::Other(e),
        }
    }

    // `always`: this is the per-value step of every selected MultiRef /
    // NonHier kernel. Under the plain hint, whether it was inlined into the
    // formula sum depended on which other callers shared its codegen unit
    // — a ~10 % swing on MultiRef scans from unrelated edits.
    #[inline(always)]
    pub(crate) fn get(&self, i: usize) -> i64 {
        match self {
            RefAccess::For { base, offsets } => base.wrapping_add(offsets.get(i) as i64),
            RefAccess::Dict { dict, codes } => dict[codes.get(i) as usize],
            RefAccess::Plain(v) => v[i],
            RefAccess::Other(e) => e.get(i),
        }
    }
}

/// The keys of a dictionary: sorted integer values, or a
/// first-occurrence-ordered string pool.
#[derive(Clone, Copy)]
pub(crate) enum DictKeys<'a> {
    Int(&'a [i64]),
    Str(&'a StringPool),
}

impl DictKeys<'_> {
    /// Number of entries.
    pub(crate) fn len(&self) -> usize {
        match self {
            DictKeys::Int(d) => d.len(),
            DictKeys::Str(p) => p.len(),
        }
    }
}

/// The one dictionary view: keys plus per-row codes, for an integer or a
/// string dictionary alike. A Hier parent reads Alg. 1's `ref` through it,
/// and GROUP BY keys, the join's build and probe and `query_both`'s
/// reference output come from it — one row at a time through a
/// hoisted-mask reader, or the whole column through the batched code
/// kernels.
pub(crate) struct CodeAccess<'a> {
    pub(crate) keys: DictKeys<'a>,
    pub(crate) codes: &'a BitPackedVec,
    reader: PackedReader<'a>,
}

impl<'a> CodeAccess<'a> {
    /// The dictionary view of `codec`; `None` unless it is an integer or a
    /// string dictionary.
    pub(crate) fn of(codec: &'a ColumnCodec) -> Option<Self> {
        let (keys, codes) = match codec {
            ColumnCodec::Int(IntEncoding::Dict(d)) => (DictKeys::Int(d.dict()), d.codes()),
            ColumnCodec::Str(d) => (DictKeys::Str(d.pool()), d.codes()),
            _ => return None,
        };
        Some(Self {
            keys,
            codes,
            reader: codes.reader(),
        })
    }

    /// Number of rows.
    pub(crate) fn len(&self) -> usize {
        self.codes.len()
    }

    #[inline]
    pub(crate) fn code(&self, i: usize) -> u32 {
        self.reader.get(i) as u32
    }

    /// Every row's code, into `out` (cleared first).
    pub(crate) fn codes_into(&self, out: &mut Vec<u32>) {
        out.clear();
        out.reserve(self.len());
        self.codes
            .unpack_chunks(|_, chunk| out.extend(chunk.iter().map(|&c| c as u32)));
    }

    /// The keys of `rows` (the caller checked them against the block).
    fn gather(&self, rows: &[u32]) -> QueryOutput {
        let codes = rows.iter().map(|&p| self.code(p as usize) as usize);
        match self.keys {
            DictKeys::Int(d) => QueryOutput::Int(codes.map(|c| d[c]).collect()),
            DictKeys::Str(p) => QueryOutput::Str(codes.map(|c| p.get(c).to_owned()).collect()),
        }
    }
}

/// Reference column `idx` of a NonHier or MultiRef column, as the integer
/// codec [`check_column`] found it to be.
///
/// [`check_column`]: crate::format::check_column
fn vertical_ref<B: BlockView + ?Sized>(block: &B, idx: u32) -> Result<&IntEncoding> {
    match block.view_codec(idx as usize)? {
        ColumnCodec::Int(enc) => Ok(enc),
        other => Err(Error::TypeMismatch {
            expected: "vertical int reference",
            found: codec_kind(other),
        }),
    }
}

/// The dictionary view of column `idx` — a Hier parent, a GROUP BY key or
/// a join key; `not_dict` names the error for any other codec.
pub(crate) fn dict_column<B: BlockView + ?Sized>(
    block: &B,
    idx: usize,
    not_dict: impl FnOnce(&ColumnCodec) -> Error,
) -> Result<CodeAccess<'_>> {
    let codec = block.view_codec(idx)?;
    CodeAccess::of(codec).ok_or_else(|| not_dict(codec))
}

/// The error for a Hier parent that is not a dictionary.
fn not_a_parent(other: &ColumnCodec) -> Error {
    Error::TypeMismatch {
        expected: "dict-encoded reference",
        found: codec_kind(other),
    }
}

/// The buffers a horizontal column reconstructs through: the decoded
/// reference (NonHier) or one varying member (MultiRef), and the
/// reconstructed block its chunk stream hands out. A
/// caller resolving block after block (TOP-K) keeps one and pays for the
/// allocations once.
///
/// The cells sit behind the resolved column's shared reference rather than
/// in it, so the column itself holds no interior mutability and the
/// compiler may keep its fields in registers across a selected kernel's
/// output writes (inside it, a NonHier gather reloaded them per row and
/// ran 12 % slower).
#[derive(Debug, Default)]
pub(crate) struct DecodeScratch {
    pub(crate) values: RefCell<Vec<i64>>,
    pub(crate) refs: RefCell<Vec<i64>>,
}

/// The chunk stream of a horizontal column: the block reconstructed whole
/// by `column.decode_into` (the batch kernels) into the scratch's reused
/// buffer, handed out as one chunk.
pub(crate) fn stream_reconstructed(
    column: &impl IntAccess,
    scratch: &DecodeScratch,
    f: &mut dyn FnMut(usize, &[i64]),
) {
    let mut values = scratch.values.take();
    column.decode_into(&mut values);
    if !values.is_empty() {
        f(0, &values);
    }
    scratch.values.replace(values);
}

/// Resolves the integer column at `idx` and runs `kernel` on it — the only
/// integer-column resolution, so every integer operator is one
/// [`IntAccess`] call. The column and every reference it reads load here,
/// in rule order; the block checked their structure when it was assembled
/// ([`check_column`]), so nothing is re-checked here.
///
/// A vertical codec is its own `IntAccess`. A horizontal column becomes
/// its family's (`NonHierColumn`, `HierColumn`, `MultiRefColumn`): `get`
/// is the per-row rule — outlier first, then the reference probe, Alg. 1's
/// metadata address or the formula-named groups — so the provided
/// selected kernels keep the §2.3 order, and the chunk stream reconstructs
/// the block through the batch kernels into `scratch`.
///
/// # Errors
///
/// [`Error::TypeMismatch`] for a string column, plus anything loading a
/// payload reports — on a lazy handle, `check_column`'s verdict too.
///
/// [`check_column`]: crate::format::check_column
pub(crate) fn int_column<B: BlockView + ?Sized, R>(
    block: &B,
    idx: usize,
    scratch: &DecodeScratch,
    kernel: impl FnOnce(&dyn IntAccess) -> R,
) -> Result<R> {
    Ok(match block.view_codec(idx)? {
        ColumnCodec::Int(enc) => kernel(enc),
        ColumnCodec::NonHier { enc, reference } => kernel(&NonHierColumn::new(
            enc,
            vertical_ref(block, *reference)?,
            scratch,
        )),
        ColumnCodec::HierInt { enc, reference } => {
            let parent = dict_column(block, *reference as usize, not_a_parent)?;
            kernel(&HierColumn::new(enc, parent, scratch))
        }
        ColumnCodec::MultiRef { enc, groups } => {
            let members = groups
                .iter()
                .map(|group| group.iter().map(|&m| vertical_ref(block, m)).collect())
                .collect::<Result<_>>()?;
            kernel(&MultiRefColumn::new(enc, members, scratch))
        }
        ColumnCodec::Str(_) | ColumnCodec::PlainStr(_) | ColumnCodec::HierStr { .. } => {
            return Err(Error::TypeMismatch {
                expected: "integer column",
                found: "string column",
            })
        }
    })
}

/// Where row `i` of a string column finds its string in the pool.
enum EntryMap<'a> {
    /// `PlainStr`: the pool holds one entry per row.
    Identity,
    /// `DictStr`: the packed code.
    Code(&'a BitPackedVec),
    /// `HierStr`, Alg. 1's metadata address `offsets[parent code] + code`.
    Hier {
        codes: &'a BitPackedVec,
        offsets: &'a [u32],
        parent: CodeAccess<'a>,
    },
}

/// A string column resolved by [`str_column`]: a [`StringPool`] plus a
/// row → entry map. Every string kernel is written once over the map: the
/// entry stream `for_each_entry`, which unpacks codes through the batched
/// kernels, and `for_each_entry_at` for selected rows. Work that depends
/// only on a string — an equality verdict, a `MIN` / `MAX` comparison —
/// runs once per pool entry, not once per row.
pub(crate) struct StrColumn<'a> {
    pool: &'a StringPool,
    rows: usize,
    map: EntryMap<'a>,
}

impl StrColumn<'_> {
    /// Calls `f(entry)` for the row at each of `positions`, in order (the
    /// caller validated them).
    #[inline]
    fn for_each_entry_at(&self, positions: &[u32], mut f: impl FnMut(usize)) {
        match &self.map {
            EntryMap::Identity => positions.iter().for_each(|&p| f(p as usize)),
            EntryMap::Code(codes) => {
                let codes = codes.reader();
                positions
                    .iter()
                    .for_each(|&p| f(codes.get(p as usize) as usize));
            }
            EntryMap::Hier {
                codes,
                offsets,
                parent,
            } => {
                let codes = codes.reader();
                positions.iter().for_each(|&p| {
                    let i = p as usize;
                    f(offsets[parent.code(i) as usize] as usize + codes.get(i) as usize)
                });
            }
        }
    }

    /// Calls `f(row, entry)` for every row, in row order.
    #[inline]
    fn for_each_entry(&self, mut f: impl FnMut(usize, usize)) {
        match &self.map {
            EntryMap::Identity => (0..self.rows).for_each(|i| f(i, i)),
            EntryMap::Code(codes) => codes.unpack_chunks(|start, chunk| {
                for (j, &c) in chunk.iter().enumerate() {
                    f(start + j, c as usize);
                }
            }),
            EntryMap::Hier {
                codes,
                offsets,
                parent,
            } => for_each_address_chunk(codes, offsets, parent, |start, at| {
                for (j, &a) in at.iter().enumerate() {
                    f(start + j, a as usize);
                }
            }),
        }
    }

    /// The rows whose entry is `hit` (or is not, when `negate`). A
    /// dictionary compares its packed codes in the code domain, through
    /// the fused decode-compare kernel `DictInt::filter_into` runs.
    fn filter_entry(&self, hit: usize, negate: bool) -> SelectionVector {
        match &self.map {
            EntryMap::Code(codes) => {
                let mut out = SelectionVector::empty();
                codes.filter_range_into(hit as u64, hit as u64, negate, &mut out);
                out
            }
            _ => self.filter_by(|e| e == hit, negate),
        }
    }

    /// The rows whose entry `matches` (or does not, when `negate`), one
    /// bitmap bit per row.
    fn filter_by(&self, matches: impl Fn(usize) -> bool, negate: bool) -> SelectionVector {
        let mut words = vec![0u64; self.rows.div_ceil(64)];
        self.for_each_entry(|i, e| words[i / 64] |= u64::from(matches(e) != negate) << (i % 64));
        SelectionVector::from_words(words, self.rows)
    }

    /// The strings of `rows` (ascending, below the column length).
    pub(crate) fn gather(&self, rows: &[u32]) -> Vec<String> {
        assert!(rows_fit(rows, self.rows), "rows out of bounds");
        let mut out = Vec::with_capacity(rows.len());
        self.for_each_entry_at(rows, |e| out.push(self.pool.get(e).to_owned()));
        out
    }

    /// The rows whose string equals `value` (or differs, when `negate`).
    /// The comparison runs once per pool entry. A pool holding `value`
    /// once (a dictionary's always does) leaves one entry compare per row
    /// (`filter_entry`), one holding it several times a verdict-table
    /// lookup, and one without it no row (every row for `!=`).
    pub(crate) fn filter_eq(&self, value: &str, negate: bool) -> SelectionVector {
        let mut hits = (0..self.pool.len()).filter(|&k| self.pool.get(k) == value);
        match (hits.next(), hits.next()) {
            (None, _) => SelectionVector::all_or_none(self.rows, negate),
            (Some(hit), None) => self.filter_entry(hit, negate),
            (Some(a), Some(b)) => {
                let mut verdicts = vec![false; self.pool.len()];
                for k in [a, b].into_iter().chain(hits) {
                    verdicts[k] = true;
                }
                self.filter_by(|e| verdicts[e], negate)
            }
        }
    }

    /// Folds every row (`sel` is `None`) or the selected rows into
    /// `state` (`COUNT`, lexicographic `MIN` / `MAX`): histograms the
    /// entries, then folds each entry present once, weighted by its count.
    pub(crate) fn aggregate(&self, sel: Option<&SelectionVector>, state: &mut StrAggState) {
        let mut counts = vec![0u64; self.pool.len()];
        match sel {
            None => self.for_each_entry(|_, e| counts[e] += 1),
            Some(sel) => {
                assert!(sel.validate(self.rows), "selection out of bounds");
                self.for_each_entry_at(&sel.positions(), |e| counts[e] += 1);
            }
        }
        for (k, &n) in counts.iter().enumerate() {
            if n > 0 {
                state.update_n(self.pool.get(k), n);
            }
        }
    }

    /// Folds row `i` into `states[group_of[i]]` for every row.
    pub(crate) fn aggregate_grouped(&self, group_of: &[u32], states: &mut [StrAggState]) {
        assert_eq!(group_of.len(), self.rows, "group codes misaligned");
        self.for_each_entry(|i, e| states[group_of[i] as usize].update(self.pool.get(e)));
    }

    /// Every row's string, as a per-row pool.
    pub(crate) fn decode(&self) -> StringPool {
        let mut out = StringPool::with_capacity(self.rows, self.rows * 8);
        self.for_each_entry(|_, e| {
            out.push(self.pool.get(e));
        });
        out
    }
}

/// Resolves the string column at `idx` — the only string-column
/// resolution, so every string operator is one [`StrColumn`] call. A Hier
/// column's parent loads here; the block checked both when it was
/// assembled ([`check_column`]).
///
/// # Errors
///
/// [`Error::TypeMismatch`] for an integer column, plus anything loading a
/// payload reports — on a lazy handle, `check_column`'s verdict too.
///
/// [`check_column`]: crate::format::check_column
pub(crate) fn str_column<B: BlockView + ?Sized>(block: &B, idx: usize) -> Result<StrColumn<'_>> {
    let codec = block.view_codec(idx)?;
    let (pool, map) = match codec {
        ColumnCodec::Str(d) => (d.pool(), EntryMap::Code(d.codes())),
        ColumnCodec::PlainStr(pool) => (pool, EntryMap::Identity),
        ColumnCodec::HierStr { enc, reference } => {
            let parent = dict_column(block, *reference as usize, not_a_parent)?;
            let (codes, pool, offsets) = enc.parts();
            let map = EntryMap::Hier {
                codes,
                offsets,
                parent,
            };
            (pool, map)
        }
        _ => {
            return Err(Error::TypeMismatch {
                expected: "string column",
                found: "integer column",
            })
        }
    };
    Ok(StrColumn {
        pool,
        rows: codec.len(),
        map,
    })
}

/// Queries a single column: decompress and materialize the values at the
/// selected positions ("query on diff-encoded column" when the target is
/// horizontal).
pub fn query_column<B: BlockView + ?Sized>(
    block: &B,
    name: &str,
    sel: &SelectionVector,
) -> Result<QueryOutput> {
    if !sel.validate(block.rows()) {
        return Err(Error::invalid("selection vector exceeds block rows"));
    }
    gather_column(block, block.index_of(name)?, &sel.positions())
}

/// The values of column `idx` at `rows`, which the caller checked against
/// the block ([`rows_fit`]): the one per-column gather, so a caller
/// reading several columns of a selection expands it once.
pub(crate) fn gather_column<B: BlockView + ?Sized>(
    block: &B,
    idx: usize,
    rows: &[u32],
) -> Result<QueryOutput> {
    if block.is_string(idx) {
        return Ok(QueryOutput::Str(str_column(block, idx)?.gather(rows)));
    }
    // Per §2.3 decompression, a horizontal row reads only the references
    // its rule names.
    let mut out = Vec::new();
    int_column(block, idx, &DecodeScratch::default(), |c| {
        c.gather_into(rows, &mut out)
    })?;
    Ok(QueryOutput::Int(out))
}

/// Queries the target column *and* its reference column together ("query on
/// both columns"). For horizontal targets the reference value is fetched
/// once per row and reused for the target's reconstruction — this is why
/// Corra shows ~no slowdown in this mode (Fig. 5 right panels).
///
/// Returns `(target_output, reference_output)`.
///
/// # Errors
///
/// [`Error::InvalidData`] if the target is vertical (no reference to
/// co-query) or multi-reference (the paper only evaluates the target-only
/// pattern there, Fig. 8).
pub fn query_both<B: BlockView + ?Sized>(
    block: &B,
    name: &str,
    sel: &SelectionVector,
) -> Result<(QueryOutput, QueryOutput)> {
    if !sel.validate(block.rows()) {
        return Err(Error::invalid("selection vector exceeds block rows"));
    }
    let idx = block.index_of(name)?;
    match block.view_codec(idx)? {
        ColumnCodec::NonHier { enc, reference } => {
            let refs = RefAccess::of(vertical_ref(block, *reference)?);
            let mut tgt = Vec::new();
            let mut rf = Vec::new();
            enc.gather_both_map(&sel.positions(), |i| refs.get(i), &mut tgt, &mut rf);
            Ok((QueryOutput::Int(tgt), QueryOutput::Int(rf)))
        }
        ColumnCodec::HierInt { reference, .. } | ColumnCodec::HierStr { reference, .. } => {
            let parent = dict_column(block, *reference as usize, not_a_parent)?;
            let rows = sel.positions();
            Ok((gather_column(block, idx, &rows)?, parent.gather(&rows)))
        }
        ColumnCodec::MultiRef { .. } => Err(Error::invalid(
            "query_both is undefined for multi-reference targets (cf. Fig. 8)",
        )),
        _ => Err(Error::invalid(format!(
            "column {name} has no reference to co-query"
        ))),
    }
}

/// Convenience for "query on both columns" against a *vertical* baseline:
/// materializes two independent columns (the baseline must pay for both
/// fetches, which is what Corra's both-columns advantage is measured
/// against).
pub fn query_two_columns<B: BlockView + ?Sized>(
    block: &B,
    target: &str,
    reference: &str,
    sel: &SelectionVector,
) -> Result<(QueryOutput, QueryOutput)> {
    Ok((
        query_column(block, target, sel)?,
        query_column(block, reference, sel)?,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compressor::{ColumnPlan, CompressedBlock, CompressionConfig};
    use corra_columnar::aggregate::IntAggState;
    use corra_columnar::block::DataBlock;
    use corra_columnar::column::{Column, DataType};
    use corra_columnar::predicate::IntRange;
    use corra_columnar::schema::{Field, Schema};
    use corra_columnar::selection::{sample_uniform, SelectionVector};
    use corra_columnar::strings::StringPool;
    use corra_columnar::topk::TopKHeap;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

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

    #[test]
    fn nonhier_query_matches_uncompressed() {
        let (block, cfg) = date_block(20_000);
        let compressed = CompressedBlock::compress(&block, &cfg).unwrap();
        let mut rng = StdRng::seed_from_u64(7);
        for sel_frac in [0.001, 0.01, 0.1, 1.0] {
            let sel = sample_uniform(block.rows(), sel_frac, &mut rng);
            let got = query_column(&compressed, "l_receiptdate", &sel).unwrap();
            let raw = block.column("l_receiptdate").unwrap().as_i64().unwrap();
            let want: Vec<i64> = sel.positions().iter().map(|&p| raw[p as usize]).collect();
            assert_eq!(got.as_int().unwrap(), &want[..]);
        }
    }

    #[test]
    fn nonhier_query_both() {
        let (block, cfg) = date_block(5_000);
        let compressed = CompressedBlock::compress(&block, &cfg).unwrap();
        let sel = SelectionVector::new(vec![0, 100, 4_999]);
        let (tgt, rf) = query_both(&compressed, "l_receiptdate", &sel).unwrap();
        let raw_t = block.column("l_receiptdate").unwrap().as_i64().unwrap();
        let raw_r = block.column("l_shipdate").unwrap().as_i64().unwrap();
        assert_eq!(tgt.as_int().unwrap(), &[raw_t[0], raw_t[100], raw_t[4_999]]);
        assert_eq!(rf.as_int().unwrap(), &[raw_r[0], raw_r[100], raw_r[4_999]]);
    }

    fn hier_block(n: usize) -> (DataBlock, CompressionConfig) {
        let country: Vec<i64> = (0..n).map(|i| (i % 111) as i64).collect();
        let ip: Vec<i64> = (0..n)
            .map(|i| (i % 111) as i64 * 65_536 + (i / 111 % 50) as i64)
            .collect();
        let block = DataBlock::new(
            Schema::new(vec![
                Field::new("countryid", DataType::Int64),
                Field::new("ip", DataType::Int64),
            ])
            .unwrap(),
            vec![Column::Int64(country), Column::Int64(ip)],
        )
        .unwrap();
        let cfg = CompressionConfig::baseline().with(
            "ip",
            ColumnPlan::Hier {
                reference: "countryid".into(),
            },
        );
        (block, cfg)
    }

    #[test]
    fn hier_query_and_both() {
        let (block, cfg) = hier_block(11_100);
        let compressed = CompressedBlock::compress(&block, &cfg).unwrap();
        let sel = SelectionVector::new(vec![0, 111, 5_000, 11_099]);
        let raw_ip = block.column("ip").unwrap().as_i64().unwrap();
        let raw_c = block.column("countryid").unwrap().as_i64().unwrap();
        let got = query_column(&compressed, "ip", &sel).unwrap();
        let want: Vec<i64> = sel
            .positions()
            .iter()
            .map(|&p| raw_ip[p as usize])
            .collect();
        assert_eq!(got.as_int().unwrap(), &want[..]);
        let (tgt, rf) = query_both(&compressed, "ip", &sel).unwrap();
        assert_eq!(tgt.as_int().unwrap(), &want[..]);
        let want_c: Vec<i64> = sel.positions().iter().map(|&p| raw_c[p as usize]).collect();
        assert_eq!(rf.as_int().unwrap(), &want_c[..]);
    }

    #[test]
    fn hier_str_parent_query_both() {
        let n = 3_000;
        let cities = StringPool::from_iter((0..n).map(|i| ["NYC", "Naples"][i % 2]));
        let zips: Vec<i64> = (0..n)
            .map(|i| 10_000 + (i % 2) as i64 * 500 + (i / 2 % 6) as i64)
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
        let sel = SelectionVector::new(vec![1, 2, 2_999]);
        let (tgt, rf) = query_both(&compressed, "zip", &sel).unwrap();
        let raw_zip = block.column("zip").unwrap().as_i64().unwrap();
        assert_eq!(
            tgt.as_int().unwrap(),
            &[raw_zip[1], raw_zip[2], raw_zip[2_999]]
        );
        assert_eq!(
            rf.as_str_rows().unwrap(),
            &["Naples".to_owned(), "NYC".to_owned(), "Naples".to_owned()]
        );
    }

    #[test]
    fn multiref_query() {
        let n = 4_000;
        let fare: Vec<i64> = (0..n).map(|i| 500 + (i as i64 % 900)).collect();
        let congestion = vec![250i64; n];
        let total: Vec<i64> = (0..n)
            .map(|i| {
                if i % 3 == 0 {
                    fare[i]
                } else {
                    fare[i] + congestion[i]
                }
            })
            .collect();
        let block = DataBlock::new(
            Schema::new(vec![
                Field::new("fare", DataType::Int64),
                Field::new("congestion", DataType::Int64),
                Field::new("total", DataType::Int64),
            ])
            .unwrap(),
            vec![
                Column::Int64(fare),
                Column::Int64(congestion),
                Column::Int64(total),
            ],
        )
        .unwrap();
        let cfg = CompressionConfig::baseline().with(
            "total",
            ColumnPlan::MultiRef {
                groups: vec![vec!["fare".into()], vec!["congestion".into()]],
                code_bits: 2,
            },
        );
        let compressed = CompressedBlock::compress(&block, &cfg).unwrap();
        let mut rng = StdRng::seed_from_u64(3);
        let sel = sample_uniform(n, 0.05, &mut rng);
        let got = query_column(&compressed, "total", &sel).unwrap();
        let raw = block.column("total").unwrap().as_i64().unwrap();
        let want: Vec<i64> = sel.positions().iter().map(|&p| raw[p as usize]).collect();
        assert_eq!(got.as_int().unwrap(), &want[..]);
        // query_both is undefined for multiref.
        assert!(query_both(&compressed, "total", &sel).is_err());
    }

    #[test]
    fn vertical_column_queries() {
        let (block, _) = date_block(1_000);
        let compressed = CompressedBlock::compress(&block, &CompressionConfig::baseline()).unwrap();
        let sel = SelectionVector::new(vec![5, 500]);
        let got = query_column(&compressed, "l_shipdate", &sel).unwrap();
        assert_eq!(got.len(), 2);
        assert!(query_both(&compressed, "l_shipdate", &sel).is_err());
        let (a, b) = query_two_columns(&compressed, "l_receiptdate", "l_shipdate", &sel).unwrap();
        assert_eq!(a.len(), 2);
        assert_eq!(b.len(), 2);
    }

    #[test]
    fn out_of_range_selection_rejected() {
        let (block, cfg) = date_block(100);
        let compressed = CompressedBlock::compress(&block, &cfg).unwrap();
        let sel = SelectionVector::new(vec![100]);
        assert!(query_column(&compressed, "l_shipdate", &sel).is_err());
        assert!(query_both(&compressed, "l_receiptdate", &sel).is_err());
    }

    /// A resolved column seen through its four required methods only, so
    /// every other method is the trait's provided body — the reference each
    /// override is held to.
    struct Provided<'a>(&'a dyn IntAccess);

    impl IntAccess for Provided<'_> {
        fn len(&self) -> usize {
            self.0.len()
        }

        fn get(&self, i: usize) -> i64 {
            self.0.get(i)
        }

        fn compressed_bytes(&self) -> usize {
            self.0.compressed_bytes()
        }

        fn for_each_chunk(&self, f: &mut dyn FnMut(usize, &[i64])) {
            self.0.for_each_chunk(f)
        }
    }

    /// Every kernel of `column`, overridden or not, answers exactly what the
    /// provided body answers on the same input.
    fn check_overrides(column: &dyn IntAccess, label: &str) {
        let provided = Provided(column);
        let n = column.len();
        let (mut values, mut want) = (Vec::new(), vec![7]);
        column.decode_into(&mut values);
        provided.decode_into(&mut want);
        assert_eq!(values, want, "{label}: decode");
        let at = |q: usize| values.get(q * n / 4).copied().unwrap_or(0);
        let (lo, hi) = (at(1).min(at(2)), at(1).max(at(2)));
        for range in [
            IntRange::new(lo, hi),
            IntRange::negated(lo, hi),
            IntRange::negated(at(3), at(3)),
            IntRange::empty(),
            IntRange::all(),
        ] {
            let (mut got, mut want) =
                (SelectionVector::new(vec![7]), SelectionVector::new(vec![9]));
            column.filter_into(&range, &mut got);
            provided.filter_into(&range, &mut want);
            assert_eq!(got, want, "{label}: filter {range:?}");
            assert_eq!(
                (got.bit_len(), want.bit_len()),
                (n, n),
                "{label}: bitmap length"
            );
        }
        assert_eq!(column.sum_wrapping(), provided.sum_wrapping(), "{label}");
        let group_of: Vec<u32> = (0..n as u32).map(|i| i % 3).collect();
        let mut got = vec![IntAggState::default(); 3];
        let mut want = got.clone();
        column.aggregate_grouped(&group_of, &mut got);
        provided.aggregate_grouped(&group_of, &mut want);
        assert_eq!(got, want, "{label}: grouped");
        let sels = [
            SelectionVector::empty(),
            SelectionVector::all(n),
            SelectionVector::new((0..n as u32).step_by(7).collect()),
        ];
        for sel in &sels {
            let (mut got, mut want) = (vec![7], vec![9]);
            column.gather_into(&sel.positions(), &mut got);
            provided.gather_into(&sel.positions(), &mut want);
            assert_eq!(got, want, "{label}: gather {}", sel.len());
            let (mut got, mut want) = (IntAggState::default(), IntAggState::default());
            column.aggregate_selected(sel, &mut got);
            provided.aggregate_selected(sel, &mut want);
            assert_eq!(got, want, "{label}: selected fold {}", sel.len());
        }
        for (k, descending) in [(0, false), (1, true), (7, false), (n + 2, true)] {
            let heap = || TopKHeap::new(k, descending);
            let (mut got, mut want) = (heap(), heap());
            column.top_k_into(1 << 32, &mut got);
            provided.top_k_into(1 << 32, &mut want);
            assert_eq!(got.into_sorted(), want.into_sorted(), "{label}: top {k}");
            for sel in &sels {
                let (mut got, mut want) = (heap(), heap());
                column.top_k_selected(1 << 32, sel, &mut got);
                provided.top_k_selected(1 << 32, sel, &mut want);
                assert_eq!(got.into_sorted(), want.into_sorted(), "{label}: top {k}");
            }
        }
    }

    /// `n` rows: dictionary parents `d` (int) and `s` (string), reference
    /// members `m0..m7`, and a target per family — NonHier `nh` over `m0`
    /// (every 97th row an outlier when `outliers`), Hier `hi` under `d` and
    /// `hs` under `s`, MultiRef `mr` over `groups` one-member groups. `m1`,
    /// `m4` (a one-entry Dict) and `m7` are constant, `m1` and `m7` near
    /// the `i64` ends, so `mr` folds them into a wrapping addend.
    fn family_block(n: usize, groups: usize, outliers: bool) -> (DataBlock, CompressedBlock) {
        let mut rng = StdRng::seed_from_u64((n * 16 + groups) as u64);
        let parent: Vec<i64> = (0..n).map(|_| rng.gen_range(0..6)).collect();
        let members: Vec<Vec<i64>> = (0..8)
            .map(|j| match j {
                1 => vec![i64::MAX - 7; n],
                4 => vec![250; n],
                7 => vec![i64::MIN + 3; n],
                _ => (0..n).map(|_| rng.gen_range(-999..999)).collect(),
            })
            .collect();
        let nonhier = (0..n).map(|i| match outliers && i % 97 == 0 {
            true => 1 << 40,
            false => members[0][i] + (i % 5) as i64,
        });
        let mask = |i: usize| 1 + (i * 37) % ((1 << groups) - 1);
        let multiref = (0..n).map(|i| {
            (0..groups)
                .filter(|&g| (mask(i) >> g) & 1 == 1)
                .map(|g| members[g][i])
                .fold(0, i64::wrapping_add)
        });
        let hier: Vec<i64> = (0..n).map(|i| parent[i] * 100 + (i % 3) as i64).collect();
        let strings = parent
            .iter()
            .map(|&p| ["a", "b", "c", "d", "e", "f"][p as usize]);
        let mut fields = vec![Field::new("s", DataType::Utf8)];
        let mut columns = vec![Column::Utf8(strings.collect())];
        let targets = [
            ("nh", nonhier.collect()),
            ("hi", hier.clone()),
            ("hs", hier),
            ("mr", multiref.collect()),
            ("d", parent),
        ];
        for (name, values) in targets.into_iter().map(|(k, v)| (k.to_owned(), v)).chain(
            members
                .into_iter()
                .enumerate()
                .map(|(j, m)| (format!("m{j}"), m)),
        ) {
            fields.push(Field::new(name, DataType::Int64));
            columns.push(Column::Int64(values));
        }
        let under = |parent: &str| ColumnPlan::Hier {
            reference: parent.into(),
        };
        let nonhier = ColumnPlan::NonHier {
            reference: "m0".into(),
        };
        let groups = (0..groups).map(|g| vec![format!("m{g}")]).collect();
        let cfg = CompressionConfig::baseline()
            .with("d", ColumnPlan::Dict)
            .with("m4", ColumnPlan::Dict)
            .with("nh", nonhier)
            .with("hi", under("d"))
            .with("hs", under("s"))
            .with(
                "mr",
                ColumnPlan::MultiRef {
                    groups,
                    code_bits: 2,
                },
            );
        let block = DataBlock::new(Schema::new(fields).unwrap(), columns).unwrap();
        let compressed = CompressedBlock::compress(&block, &cfg).unwrap();
        (block, compressed)
    }

    #[test]
    fn resolved_overrides_match_provided_bodies() {
        for n in [0, 1, 1_023, 1_024, 1_025] {
            for groups in 1..=8 {
                let (raw, block) = family_block(n, groups, groups % 2 == 0);
                for name in ["d", "nh", "hi", "hs", "mr"] {
                    let label = format!("{name}: n {n} groups {groups}");
                    let idx = block.index_of(name).unwrap();
                    let want = raw.column(name).unwrap().as_i64().unwrap();
                    let scratch = DecodeScratch::default();
                    int_column(&block, idx, &scratch, |c| {
                        // The batch decode and `get` resolve constant members
                        // through one fold, so hold both to the raw values
                        // as well as to each other.
                        let mut values = Vec::new();
                        c.decode_into(&mut values);
                        assert_eq!(values, want, "{label}: decode");
                        let rows: Vec<i64> = (0..c.len()).map(|i| c.get(i)).collect();
                        assert_eq!(rows, want, "{label}: get");
                        check_overrides(c, &label)
                    })
                    .unwrap();
                }
            }
        }
    }

    #[test]
    fn string_column_query() {
        let pool = StringPool::from_iter(["x", "y", "x", "z"]);
        let block = DataBlock::new(
            Schema::new(vec![Field::new("s", DataType::Utf8)]).unwrap(),
            vec![Column::Utf8(pool)],
        )
        .unwrap();
        let compressed = CompressedBlock::compress(&block, &CompressionConfig::baseline()).unwrap();
        let sel = SelectionVector::new(vec![1, 3]);
        let got = query_column(&compressed, "s", &sel).unwrap();
        assert_eq!(
            got.as_str_rows().unwrap(),
            &["y".to_owned(), "z".to_owned()]
        );
        assert!(got.as_int().is_err());
    }

    #[test]
    fn hier_parent_with_more_entries_than_groups_is_corrupt() {
        use crate::hier::{HierInt, HierStr};
        use corra_encodings::DictInt;
        // A four-entry parent over children encoded for two groups: a row
        // under parent code 2 or 3 would address no `offsets` slot. The
        // block's assembly refuses it, so no query ever sees it.
        let parent = ColumnCodec::Int(IntEncoding::Dict(DictInt::encode(&[10, 20, 30, 40])));
        let groups = [0, 1, 0, 1];
        let children = [
            ColumnCodec::HierInt {
                enc: HierInt::encode(&[10, 20, 30, 40], &groups, 2).unwrap(),
                reference: 0,
            },
            ColumnCodec::HierStr {
                enc: HierStr::encode(&StringPool::from_iter(["a", "b", "c", "d"]), &groups, 2)
                    .unwrap(),
                reference: 0,
            },
        ];
        for child in children {
            let label = child.scheme();
            let codecs = vec![parent.clone(), child];
            let names = vec!["p".into(), "c".into()];
            let got = CompressedBlock::from_parts(4, names, codecs, vec![None; 2], &[]);
            assert!(matches!(got, Err(Error::Corrupt(_))), "{label}: {got:?}");
        }
    }
}
