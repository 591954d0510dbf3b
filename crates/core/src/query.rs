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

use corra_columnar::error::{Error, Result};
use corra_columnar::selection::SelectionVector;
use corra_encodings::{IntAccess, IntEncoding};

use crate::compressor::{decode_int_column, BlockView, ColumnCodec, DecodeScratch};

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
/// mask hoisted into a [`PackedReader`](corra_columnar::bitpack::PackedReader)
/// (the selection vector is validated once at query entry).
pub(crate) enum RefAccess<'a> {
    For {
        base: i64,
        offsets: corra_columnar::bitpack::PackedReader<'a>,
    },
    Dict {
        dict: &'a [i64],
        codes: corra_columnar::bitpack::PackedReader<'a>,
    },
    Plain(&'a [i64]),
    Other(&'a IntEncoding),
}

impl RefAccess<'_> {
    // `always`: this is the per-value step of every selected MultiRef /
    // NonHier kernel. Under the plain hint, whether it was inlined into
    // `eval_formula_mask` depended on which other callers shared its
    // codegen unit — a ~10 % swing on MultiRef scans from unrelated edits.
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

/// Parent-code accessor for hierarchical targets (hoisted-mask readers).
pub(crate) enum CodeAccess<'a> {
    IntDict(corra_columnar::bitpack::PackedReader<'a>),
    StrDict(corra_columnar::bitpack::PackedReader<'a>),
}

impl CodeAccess<'_> {
    #[inline]
    pub(crate) fn code(&self, i: usize) -> u32 {
        match self {
            CodeAccess::IntDict(r) | CodeAccess::StrDict(r) => r.get(i) as u32,
        }
    }
}

pub(crate) fn ref_access<'a, B: BlockView + ?Sized>(
    block: &'a B,
    idx: usize,
) -> Result<RefAccess<'a>> {
    match block.view_codec(idx)? {
        ColumnCodec::Int(IntEncoding::For(e)) => Ok(RefAccess::For {
            base: e.base(),
            offsets: e.offset_reader(),
        }),
        ColumnCodec::Int(IntEncoding::Dict(e)) => Ok(RefAccess::Dict {
            dict: e.dict(),
            codes: e.code_reader(),
        }),
        ColumnCodec::Int(IntEncoding::Plain(e)) => Ok(RefAccess::Plain(e.values())),
        ColumnCodec::Int(e) => Ok(RefAccess::Other(e)),
        _ => Err(Error::TypeMismatch {
            expected: "vertical int reference",
            found: "non-int reference",
        }),
    }
}

/// Resolves every multi-reference group member to a fast accessor, shared
/// by the selected paths (gather, filtered fold, filtered TOP-K).
pub(crate) fn multiref_members<'a, B: BlockView + ?Sized>(
    block: &'a B,
    groups: &[Vec<u32>],
) -> Result<Vec<Vec<RefAccess<'a>>>> {
    let mut members = Vec::with_capacity(groups.len());
    for group in groups {
        let mut accs = Vec::with_capacity(group.len());
        for &g in group {
            accs.push(ref_access(block, g as usize)?);
        }
        members.push(accs);
    }
    Ok(members)
}

/// Evaluates a formula mask at row `i`: sums exactly the reference groups
/// the mask names (§2.3 decompression — "read the values from the
/// reference columns").
pub(crate) fn eval_formula_mask(members: &[Vec<RefAccess<'_>>], mask: u8, i: usize) -> i64 {
    let mut acc = 0i64;
    let mut m = mask;
    while m != 0 {
        let g = m.trailing_zeros() as usize;
        for r in &members[g] {
            acc = acc.wrapping_add(r.get(i));
        }
        m &= m - 1;
    }
    acc
}

pub(crate) fn code_access<'a, B: BlockView + ?Sized>(
    block: &'a B,
    idx: usize,
) -> Result<CodeAccess<'a>> {
    match block.view_codec(idx)? {
        ColumnCodec::Int(IntEncoding::Dict(d)) => Ok(CodeAccess::IntDict(d.code_reader())),
        ColumnCodec::Str(d) => Ok(CodeAccess::StrDict(d.code_reader())),
        _ => Err(Error::TypeMismatch {
            expected: "dict-encoded reference",
            found: "non-dict reference",
        }),
    }
}

/// One integer column resolved into its kernel shape: the codec plus every
/// reference accessor its reconstruction rule needs, ready for a per-family
/// kernel dispatch.
///
/// This is the shape of the *selected* kernels — gather ([`query_column`]),
/// the filtered folds of [`crate::aggregate`] and the filtered TOP-K offer
/// — which keep the §2.3 per-row order: only the selected rows, and only
/// the references each row's reconstruction names, are read. Whole-block
/// kernels go through [`WholeColumn`] instead.
pub(crate) enum IntColumn<'a> {
    /// Vertically encoded column: the kernel runs on the codec alone.
    Vertical(&'a IntEncoding),
    /// §2.1 diff-encoded column: reconstruction adds the reference value.
    NonHier {
        /// The diff encoding.
        enc: &'a crate::nonhier::NonHierInt,
        /// Fast accessor over the reference column.
        refs: RefAccess<'a>,
    },
    /// §2.2 hierarchical column: reconstruction indexes metadata by the
    /// parent's dictionary code.
    Hier {
        /// The hierarchical encoding.
        enc: &'a crate::hier::HierInt,
        /// Fast accessor over the parent's codes.
        codes: CodeAccess<'a>,
    },
    /// §2.3 multi-reference column: reconstruction sums the formula-named
    /// reference groups.
    MultiRef {
        /// The multi-reference encoding.
        enc: &'a crate::multiref::MultiRefInt,
        /// Fast accessors over every group member.
        members: Vec<Vec<RefAccess<'a>>>,
    },
}

/// Resolves the column at `idx` into an [`IntColumn`].
///
/// # Errors
///
/// [`Error::TypeMismatch`] for string codecs, plus anything reference
/// resolution reports (lazy-load I/O, corrupt wiring).
pub(crate) fn int_column<'a, B: BlockView + ?Sized>(
    block: &'a B,
    idx: usize,
) -> Result<IntColumn<'a>> {
    match block.view_codec(idx)? {
        ColumnCodec::Int(enc) => Ok(IntColumn::Vertical(enc)),
        ColumnCodec::NonHier { enc, reference } => Ok(IntColumn::NonHier {
            enc,
            refs: ref_access(block, *reference as usize)?,
        }),
        ColumnCodec::HierInt { enc, reference } => Ok(IntColumn::Hier {
            enc,
            codes: code_access(block, *reference as usize)?,
        }),
        ColumnCodec::MultiRef { enc, groups } => Ok(IntColumn::MultiRef {
            enc,
            members: multiref_members(block, groups)?,
        }),
        ColumnCodec::Str(_) | ColumnCodec::PlainStr(_) | ColumnCodec::HierStr { .. } => {
            Err(Error::TypeMismatch {
                expected: "integer column",
                found: "string column",
            })
        }
    }
}

/// One integer column resolved for a whole-block kernel — a filter or fold
/// over every row. Vertical codecs and Hier keep their compressed-domain
/// kernels; NonHier and MultiRef are reconstructed once through
/// [`decode_int_column`]'s batch kernels, so the vertical slice kernels
/// (`filter_i64_slice`, [`IntAggState::update_slice`]) run on the result
/// instead of a reference probe per row.
///
/// [`IntAggState::update_slice`]: corra_columnar::aggregate::IntAggState::update_slice
pub(crate) enum WholeColumn<'a> {
    /// Vertically encoded column: the kernel runs on the codec alone.
    Vertical(&'a IntEncoding),
    /// §2.2 hierarchical column and its parent's codes.
    Hier {
        /// The hierarchical encoding.
        enc: &'a crate::hier::HierInt,
        /// Fast accessor over the parent's codes.
        codes: CodeAccess<'a>,
    },
    /// A reconstructed NonHier or MultiRef column, one value per row.
    Decoded(Vec<i64>),
}

/// Resolves the column at `idx` into a [`WholeColumn`].
///
/// # Errors
///
/// [`Error::TypeMismatch`] for string codecs, plus anything loading or
/// reconstructing the column and its references reports.
pub(crate) fn whole_column<'a, B: BlockView + ?Sized>(
    block: &'a B,
    idx: usize,
) -> Result<WholeColumn<'a>> {
    match block.view_codec(idx)? {
        ColumnCodec::Int(enc) => Ok(WholeColumn::Vertical(enc)),
        ColumnCodec::HierInt { enc, reference } => Ok(WholeColumn::Hier {
            enc,
            codes: code_access(block, *reference as usize)?,
        }),
        _ => {
            let mut scratch = DecodeScratch::default();
            decode_int_column(block, idx, &mut scratch)?;
            Ok(WholeColumn::Decoded(scratch.values))
        }
    }
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
    let idx = block.index_of(name)?;
    match block.view_codec(idx)? {
        ColumnCodec::Str(enc) => {
            let mut out = Vec::new();
            enc.gather_into(sel, &mut out);
            return Ok(QueryOutput::Str(out));
        }
        ColumnCodec::PlainStr(pool) => {
            let mut out = Vec::with_capacity(sel.len());
            for &p in sel.positions() {
                out.push(pool.get(p as usize).to_owned());
            }
            return Ok(QueryOutput::Str(out));
        }
        ColumnCodec::HierStr { enc, reference } => {
            let codes = code_access(block, *reference as usize)?;
            let mut out = Vec::with_capacity(sel.len());
            for &p in sel.positions() {
                let i = p as usize;
                out.push(enc.get_unchecked_len(i, codes.code(i)).to_owned());
            }
            return Ok(QueryOutput::Str(out));
        }
        _ => {}
    }
    let mut out = Vec::new();
    match int_column(block, idx)? {
        IntColumn::Vertical(enc) => enc.gather_into(sel, &mut out),
        IntColumn::NonHier { enc, refs } => enc.gather_map(sel, |i| refs.get(i), &mut out),
        IntColumn::Hier { enc, codes } => {
            out.reserve(sel.len());
            for &p in sel.positions() {
                let i = p as usize;
                out.push(enc.get_unchecked_len(i, codes.code(i)));
            }
        }
        IntColumn::MultiRef { enc, members } => {
            // Per §2.3 decompression: identify the row's coded formula, then
            // "read the values from the reference columns" — only the
            // groups that formula actually sums are fetched.
            enc.gather_masked(
                sel,
                |mask, i| eval_formula_mask(&members, mask, i),
                &mut out,
            );
        }
    }
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
            let refs = ref_access(block, *reference as usize)?;
            let mut tgt = Vec::new();
            let mut rf = Vec::new();
            enc.gather_both_map(sel, |i| refs.get(i), &mut tgt, &mut rf);
            Ok((QueryOutput::Int(tgt), QueryOutput::Int(rf)))
        }
        ColumnCodec::HierInt { enc, reference } => {
            let ridx = *reference as usize;
            let codes = code_access(block, ridx)?;
            let mut tgt = Vec::with_capacity(sel.len());
            match block.view_codec(ridx)? {
                ColumnCodec::Int(IntEncoding::Dict(d)) => {
                    let mut rf = Vec::with_capacity(sel.len());
                    for &p in sel.positions() {
                        let code = codes.code(p as usize);
                        rf.push(d.dict()[code as usize]);
                        tgt.push(enc.get_unchecked_len(p as usize, code));
                    }
                    Ok((QueryOutput::Int(tgt), QueryOutput::Int(rf)))
                }
                ColumnCodec::Str(d) => {
                    let mut rf = Vec::with_capacity(sel.len());
                    for &p in sel.positions() {
                        let code = codes.code(p as usize);
                        rf.push(d.pool().get(code as usize).to_owned());
                        tgt.push(enc.get_unchecked_len(p as usize, code));
                    }
                    Ok((QueryOutput::Int(tgt), QueryOutput::Str(rf)))
                }
                _ => unreachable!("code_access validated the reference codec"),
            }
        }
        ColumnCodec::HierStr { enc, reference } => {
            let ridx = *reference as usize;
            let codes = code_access(block, ridx)?;
            let mut tgt = Vec::with_capacity(sel.len());
            match block.view_codec(ridx)? {
                ColumnCodec::Int(IntEncoding::Dict(d)) => {
                    let mut rf = Vec::with_capacity(sel.len());
                    for &p in sel.positions() {
                        let code = codes.code(p as usize);
                        rf.push(d.dict()[code as usize]);
                        tgt.push(enc.get_unchecked_len(p as usize, code).to_owned());
                    }
                    Ok((QueryOutput::Str(tgt), QueryOutput::Int(rf)))
                }
                ColumnCodec::Str(d) => {
                    let mut rf = Vec::with_capacity(sel.len());
                    for &p in sel.positions() {
                        let code = codes.code(p as usize);
                        rf.push(d.pool().get(code as usize).to_owned());
                        tgt.push(enc.get_unchecked_len(p as usize, code).to_owned());
                    }
                    Ok((QueryOutput::Str(tgt), QueryOutput::Str(rf)))
                }
                _ => unreachable!("code_access validated the reference codec"),
            }
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
    use corra_columnar::block::DataBlock;
    use corra_columnar::column::{Column, DataType};
    use corra_columnar::schema::{Field, Schema};
    use corra_columnar::selection::{sample_uniform, SelectionVector};
    use corra_columnar::strings::StringPool;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

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
}
