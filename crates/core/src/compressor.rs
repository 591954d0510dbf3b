//! Block-level compression: applying vertical and Corra codecs to whole
//! self-contained data blocks.
//!
//! A [`CompressionConfig`] names, per column, which scheme to use — the
//! output of the optimizer (or of the correlation detectors) feeds directly
//! into it. [`CompressedBlock::compress`] validates the configuration
//! (references must exist and must themselves stay vertical — the paper does
//! not chain diff encodings), encodes reference columns first, and then the
//! diff-encoded columns against them.

use std::borrow::Borrow;
use std::sync::atomic::{AtomicBool, Ordering};

use corra_columnar::block::DataBlock;
use corra_columnar::column::Column;
use corra_columnar::error::{Error, Result};
use corra_columnar::stats::ZoneMap;
use corra_columnar::strings::StringPool;
use corra_encodings::{
    choose_int_baseline_stats, choose_int_full_stats, DictInt, DictStr, IntAccess, IntEncoding,
};
use rustc_hash::FxHashMap;

use crate::format::check_column;
use crate::hier::{HierInt, HierStr};
use crate::multiref::MultiRefInt;
use crate::nonhier::NonHierInt;
use crate::query::{int_column, str_column, CodeAccess, DecodeScratch};
use crate::store::LoadCost;

/// Per-column compression plan.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ColumnPlan {
    /// Best single-column scheme (FOR/Dict baseline for ints, Dict for
    /// strings). The default.
    Auto,
    /// Best single-column scheme over the *full* vertical codec menu
    /// (Plain/FOR/Dict/RLE/Delta/Frequency by estimated size; Dict for
    /// strings). Picks up run-length, monotonic and skew structure that
    /// the FOR/Dict baseline cannot — what the time-series workload and
    /// the sim harness use for codec diversity.
    AutoFull,
    /// Force dictionary encoding (required for hierarchical references so
    /// parent codes exist; the paper dict-encodes the reference "in
    /// advance").
    Dict,
    /// Keep the column uncompressed (the latency comparator).
    Plain,
    /// Diff-encode w.r.t. a single reference column (§2.1).
    NonHier {
        /// Reference column name.
        reference: String,
    },
    /// Hierarchical encoding w.r.t. a parent column (§2.2).
    Hier {
        /// Parent (reference) column name.
        reference: String,
    },
    /// Diff-encode w.r.t. multiple reference groups (§2.3).
    MultiRef {
        /// Reference groups; each inner vec lists the columns of one group
        /// (group A, B, C, … in paper notation).
        groups: Vec<Vec<String>>,
        /// Formula-code width in bits (the paper uses 2).
        code_bits: u8,
    },
}

/// A whole-block compression configuration: column name → plan.
/// Unlisted columns fall back to the default plan ([`ColumnPlan::Auto`]
/// unless overridden).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CompressionConfig {
    plans: FxHashMap<String, ColumnPlan>,
    default_plan: Option<ColumnPlan>,
}

impl CompressionConfig {
    /// An all-`Auto` configuration (the single-column baseline).
    pub fn baseline() -> Self {
        Self::default()
    }

    /// An all-[`ColumnPlan::AutoFull`] configuration: every unlisted
    /// column gets the full vertical chooser menu. The compactor uses
    /// this so re-encoding merged segments can move codecs (FOR → Dict,
    /// …) as the pooled distribution warrants.
    pub fn all_auto_full() -> Self {
        Self {
            plans: FxHashMap::default(),
            default_plan: Some(ColumnPlan::AutoFull),
        }
    }

    /// An all-`Plain` configuration for the named columns (the uncompressed
    /// comparator).
    pub fn plain_for(columns: &[&str]) -> Self {
        let mut cfg = Self::default();
        for c in columns {
            cfg.set(c, ColumnPlan::Plain);
        }
        cfg
    }

    /// Sets the plan for `column`.
    pub fn set(&mut self, column: &str, plan: ColumnPlan) -> &mut Self {
        self.plans.insert(column.to_owned(), plan);
        self
    }

    /// Builder-style [`set`](Self::set).
    pub fn with(mut self, column: &str, plan: ColumnPlan) -> Self {
        self.set(column, plan);
        self
    }

    /// The plan for `column`.
    pub fn plan_for(&self, column: &str) -> &ColumnPlan {
        self.plans
            .get(column)
            .or(self.default_plan.as_ref())
            .unwrap_or(&ColumnPlan::Auto)
    }
}

/// A compressed column together with its cross-column wiring.
#[derive(Debug, Clone, PartialEq)]
pub enum ColumnCodec {
    /// Vertically encoded integer column.
    Int(IntEncoding),
    /// Dictionary-encoded string column.
    Str(DictStr),
    /// Uncompressed string column (plain comparator).
    PlainStr(StringPool),
    /// §2.1 non-hierarchical diff encoding.
    NonHier {
        /// The encoding.
        enc: NonHierInt,
        /// Index of the reference column within the block.
        reference: u32,
    },
    /// §2.2 hierarchical encoding with integer children.
    HierInt {
        /// The encoding.
        enc: HierInt,
        /// Index of the parent column within the block.
        reference: u32,
    },
    /// §2.2 hierarchical encoding with string children.
    HierStr {
        /// The encoding.
        enc: HierStr,
        /// Index of the parent column within the block.
        reference: u32,
    },
    /// §2.3 multi-reference diff encoding.
    MultiRef {
        /// The encoding.
        enc: MultiRefInt,
        /// Reference groups as column indices within the block.
        groups: Vec<Vec<u32>>,
    },
}

impl ColumnCodec {
    /// Compressed size in bytes (payload + metadata, as reported in Tab. 2).
    pub fn compressed_bytes(&self) -> usize {
        match self {
            ColumnCodec::Int(e) => e.compressed_bytes(),
            ColumnCodec::Str(e) => e.compressed_bytes(),
            ColumnCodec::PlainStr(p) => p.heap_bytes(),
            ColumnCodec::NonHier { enc, .. } => enc.compressed_bytes(),
            ColumnCodec::HierInt { enc, .. } => enc.compressed_bytes(),
            ColumnCodec::HierStr { enc, .. } => enc.compressed_bytes(),
            ColumnCodec::MultiRef { enc, .. } => enc.compressed_bytes(),
        }
    }

    /// Short scheme label for experiment output.
    pub fn scheme(&self) -> &'static str {
        match self {
            ColumnCodec::Int(e) => e.scheme(),
            ColumnCodec::Str(_) => "dict-str",
            ColumnCodec::PlainStr(_) => "plain-str",
            ColumnCodec::NonHier { .. } => "corra-nonhier",
            ColumnCodec::HierInt { .. } | ColumnCodec::HierStr { .. } => "corra-hier",
            ColumnCodec::MultiRef { .. } => "corra-multiref",
        }
    }

    /// Number of rows the codec stores. Deserialization validates this
    /// against the containing block's row count, which is what bounds
    /// hostile length fields (a zero-bit packed column's `len` is otherwise
    /// backed by no payload bytes at all).
    pub fn len(&self) -> usize {
        match self {
            ColumnCodec::Int(e) => e.len(),
            ColumnCodec::Str(e) => e.len(),
            ColumnCodec::PlainStr(p) => p.len(),
            ColumnCodec::NonHier { enc, .. } => enc.len(),
            ColumnCodec::HierInt { enc, .. } => enc.len(),
            ColumnCodec::HierStr { enc, .. } => enc.len(),
            ColumnCodec::MultiRef { enc, .. } => enc.len(),
        }
    }

    /// Whether the codec stores zero rows.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Whether the codec stores strings (integer predicates and `SUM`/`AVG`
    /// do not apply).
    pub(crate) fn is_string(&self) -> bool {
        matches!(
            self,
            ColumnCodec::Str(_) | ColumnCodec::PlainStr(_) | ColumnCodec::HierStr { .. }
        )
    }

    /// Whether queries on this codec must first fetch reference column(s).
    pub fn is_horizontal(&self) -> bool {
        matches!(
            self,
            ColumnCodec::NonHier { .. }
                | ColumnCodec::HierInt { .. }
                | ColumnCodec::HierStr { .. }
                | ColumnCodec::MultiRef { .. }
        )
    }
}

/// Read access to the columns of one compressed block, independent of
/// where the codecs live.
///
/// Implemented by [`CompressedBlock`] (all codecs resident in memory) and
/// by [`crate::store::BlockHandle`] (codecs loaded lazily, one payload at a
/// time, from a table file). The query and scan kernels are generic over
/// this trait, which is what lets projection pushdown and footer-driven
/// scans run the *same* code paths as in-memory blocks — only the codec
/// source differs.
///
/// Only [`view_codec`](Self::view_codec) may load a payload. `rows`,
/// `names`, `index_of`, `zone`, `is_string` and `is_horizontal` answer
/// from metadata (a lazy handle's footer), so validation, zone pruning
/// and zone-answered folds run before any payload is fetched.
pub trait BlockView {
    /// Number of rows in the block.
    fn rows(&self) -> usize;

    /// Column names, in block order.
    fn names(&self) -> &[String];

    /// Index of column `name`.
    ///
    /// # Errors
    ///
    /// [`Error::ColumnNotFound`] when absent.
    fn index_of(&self, name: &str) -> Result<usize> {
        self.names()
            .iter()
            .position(|n| n == name)
            .ok_or_else(|| Error::ColumnNotFound(name.to_owned()))
    }

    /// The codec of the column at index `i`, materializing it first if the
    /// implementation is lazy.
    ///
    /// # Errors
    ///
    /// Out-of-range indices, or any I/O / corruption error a lazy
    /// implementation hits while loading the payload.
    fn view_codec(&self, i: usize) -> Result<&ColumnCodec>;

    /// The exact min / max of integer column `i`, recorded when the block
    /// was encoded; `None` for string columns, empty blocks and indices out
    /// of range. Never loads a payload — pruning, TOP-K visit order and
    /// zone-answered `MIN` / `MAX` read it before any codec.
    fn zone(&self, i: usize) -> Option<ZoneMap>;

    /// Whether column `i` stores strings (false out of range). Never
    /// loads a payload.
    fn is_string(&self, i: usize) -> bool;

    /// Whether column `i` reconstructs from reference columns (false out
    /// of range). Never loads a payload.
    fn is_horizontal(&self, i: usize) -> bool;
}

/// Where a whole-table operator's blocks come from: an in-memory slice
/// (`[B]`) or the segment files of a table (`&store::SegmentedTable`, a
/// single file being the one-segment table). Every multi-block driver — scan,
/// aggregate, TOP-K, join, gather — is one loop over a source, so memory,
/// files, segmented tables and the serve front door run one body.
pub(crate) trait BlockSource {
    /// The block type the kernels run on.
    type Block: BlockView + ?Sized;

    /// What [`open`](Self::open) hands out: a borrow of a resident block,
    /// or a lazy handle owned by the caller.
    type View<'s>: Borrow<Self::Block>
    where
        Self: 's;

    /// Number of blocks; a block's index is its global number, the one
    /// that enters every `(value, block, row)` tie-break and `RowId`.
    fn n_blocks(&self) -> usize;

    /// Segment files behind the source (0 in memory).
    fn segments(&self) -> usize {
        0
    }

    /// The zone of `column` in block `block`, read without opening it.
    fn zone(&self, block: usize, column: &str) -> Option<ZoneMap>;

    /// Opens block `block`.
    fn open(&self, block: usize) -> Result<Self::View<'_>>;

    /// What an opened block cost: `None` in memory; for a lazy handle,
    /// whether it loaded nothing and what its loads fetched.
    fn io(_block: &Self::Block) -> Option<(bool, LoadCost)> {
        None
    }
}

impl<B: BlockView> BlockSource for [B] {
    type Block = B;

    type View<'s>
        = &'s B
    where
        B: 's;

    fn n_blocks(&self) -> usize {
        self.len()
    }

    fn zone(&self, block: usize, column: &str) -> Option<ZoneMap> {
        let view = self.get(block)?;
        view.zone(view.index_of(column).ok()?)
    }

    fn open(&self, block: usize) -> Result<&B> {
        self.get(block).ok_or(Error::IndexOutOfBounds {
            index: block,
            len: self.len(),
        })
    }
}

/// A self-contained compressed data block.
#[derive(Clone, PartialEq)]
pub struct CompressedBlock {
    rows: u32,
    names: Vec<String>,
    codecs: Vec<ColumnCodec>,
    /// Per column, the exact zone ([`BlockView::zone`]).
    zones: Vec<Option<ZoneMap>>,
}

/// Prints the block's data — rows, names, codecs. The zones summarize the
/// codecs and are left out, so the `Debug` form, which `corra-sim` hashes
/// into its result fingerprints, depends on the data alone.
impl std::fmt::Debug for CompressedBlock {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CompressedBlock")
            .field("rows", &self.rows)
            .field("names", &self.names)
            .field("codecs", &self.codecs)
            .finish()
    }
}

impl BlockView for CompressedBlock {
    fn rows(&self) -> usize {
        CompressedBlock::rows(self)
    }

    fn names(&self) -> &[String] {
        CompressedBlock::names(self)
    }

    fn view_codec(&self, i: usize) -> Result<&ColumnCodec> {
        self.codecs.get(i).ok_or(Error::IndexOutOfBounds {
            index: i,
            len: self.codecs.len(),
        })
    }

    fn zone(&self, i: usize) -> Option<ZoneMap> {
        self.zones.get(i).copied().flatten()
    }

    fn is_string(&self, i: usize) -> bool {
        self.codecs.get(i).is_some_and(ColumnCodec::is_string)
    }

    fn is_horizontal(&self, i: usize) -> bool {
        self.codecs.get(i).is_some_and(ColumnCodec::is_horizontal)
    }
}

impl CompressedBlock {
    /// Compresses `block` according to `config`.
    ///
    /// # Errors
    ///
    /// * unknown reference names, references that are themselves horizontal
    ///   (the paper forbids chains), type mismatches (e.g. non-hier on a
    ///   string column);
    /// * any substrate error bubbling up from the individual encoders.
    pub fn compress(block: &DataBlock, config: &CompressionConfig) -> Result<Self> {
        let rows = u32::try_from(block.rows()).map_err(|_| {
            Error::invalid(format!(
                "{} rows exceed the u32 row-count field",
                block.rows()
            ))
        })?;
        let schema = block.schema();
        let names: Vec<String> = schema
            .fields()
            .iter()
            .map(|f| f.name().to_owned())
            .collect();
        let idx_of = |name: &str| -> Result<usize> { schema.index_of(name) };

        // Pass 1: validate wiring — every referenced column must stay
        // vertical.
        for field in schema.fields() {
            let plan = config.plan_for(field.name());
            let refs: Vec<&str> = match plan {
                ColumnPlan::NonHier { reference } | ColumnPlan::Hier { reference } => {
                    vec![reference.as_str()]
                }
                ColumnPlan::MultiRef { groups, .. } => {
                    groups.iter().flatten().map(String::as_str).collect()
                }
                _ => Vec::new(),
            };
            for r in refs {
                let _ = idx_of(r)?;
                if r == field.name() {
                    return Err(Error::invalid(format!(
                        "column {r} cannot reference itself"
                    )));
                }
                match config.plan_for(r) {
                    ColumnPlan::NonHier { .. }
                    | ColumnPlan::Hier { .. }
                    | ColumnPlan::MultiRef { .. } => {
                        return Err(Error::invalid(format!(
                            "reference column {r} is itself diff-encoded; chains are unsupported"
                        )));
                    }
                    _ => {}
                }
            }
        }

        // Pass 2: encode vertical columns (references included).
        let mut codecs: Vec<Option<ColumnCodec>> = vec![None; names.len()];
        let mut zones: Vec<Option<ZoneMap>> = vec![None; names.len()];
        for (i, field) in schema.fields().iter().enumerate() {
            let plan = config.plan_for(field.name());
            let col = block.column_at(i);
            let codec = match (plan, col) {
                (ColumnPlan::Auto | ColumnPlan::AutoFull, Column::Int64(v)) => {
                    // The chooser's stats pass already holds the column's
                    // exact zone.
                    let (enc, stats) = if matches!(plan, ColumnPlan::Auto) {
                        choose_int_baseline_stats(v)
                    } else {
                        choose_int_full_stats(v)
                    };
                    zones[i] = ZoneMap::from_stats(&stats);
                    Some(ColumnCodec::Int(enc))
                }
                (ColumnPlan::Auto | ColumnPlan::AutoFull, Column::Utf8(p)) => {
                    Some(ColumnCodec::Str(DictStr::encode_pool(p)))
                }
                (ColumnPlan::Dict, Column::Int64(v)) => {
                    Some(ColumnCodec::Int(IntEncoding::Dict(DictInt::encode(v))))
                }
                (ColumnPlan::Dict, Column::Utf8(p)) => {
                    Some(ColumnCodec::Str(DictStr::encode_pool(p)))
                }
                (ColumnPlan::Plain, Column::Int64(v)) => Some(ColumnCodec::Int(
                    IntEncoding::Plain(corra_encodings::PlainInt::encode(v)),
                )),
                (ColumnPlan::Plain, Column::Utf8(p)) => Some(ColumnCodec::PlainStr(p.clone())),
                _ => None, // horizontal, pass 3
            };
            codecs[i] = codec;
        }

        // Hierarchical references must expose dict codes: upgrade any
        // referenced Int codec that is not Dict.
        for field in schema.fields() {
            if let ColumnPlan::Hier { reference } = config.plan_for(field.name()) {
                let r = idx_of(reference)?;
                if let Some(ColumnCodec::Int(enc)) = &codecs[r] {
                    if !matches!(enc, IntEncoding::Dict(_)) {
                        let v = block.column_at(r).as_i64()?;
                        codecs[r] = Some(ColumnCodec::Int(IntEncoding::Dict(DictInt::encode(v))));
                    }
                }
            }
        }

        // Pass 3: encode horizontal columns against the block's raw data.
        for (i, field) in schema.fields().iter().enumerate() {
            if codecs[i].is_some() {
                continue;
            }
            let plan = config.plan_for(field.name());
            let col = block.column_at(i);
            let codec = match plan {
                ColumnPlan::NonHier { reference } => {
                    let r = idx_of(reference)?;
                    let target = col.as_i64()?;
                    let refv = block.column_at(r).as_i64()?;
                    ColumnCodec::NonHier {
                        enc: NonHierInt::encode(target, refv)?,
                        reference: r as u32,
                    }
                }
                ColumnPlan::Hier { reference } => {
                    let r = idx_of(reference)?;
                    let (parent_codes, n_parents) = parent_codes_of(&codecs[r])?;
                    match col {
                        Column::Int64(v) => ColumnCodec::HierInt {
                            enc: HierInt::encode(v, &parent_codes, n_parents)?,
                            reference: r as u32,
                        },
                        Column::Utf8(p) => ColumnCodec::HierStr {
                            enc: HierStr::encode(p, &parent_codes, n_parents)?,
                            reference: r as u32,
                        },
                    }
                }
                ColumnPlan::MultiRef { groups, code_bits } => {
                    let target = col.as_i64()?;
                    let mut group_idx = Vec::with_capacity(groups.len());
                    let mut group_sums = Vec::with_capacity(groups.len());
                    for group in groups {
                        let mut idxs = Vec::with_capacity(group.len());
                        let mut sums = vec![0i64; block.rows()];
                        for name in group {
                            let gi = idx_of(name)?;
                            idxs.push(gi as u32);
                            let v = block.column_at(gi).as_i64()?;
                            for (acc, &x) in sums.iter_mut().zip(v) {
                                *acc = acc.wrapping_add(x);
                            }
                        }
                        group_idx.push(idxs);
                        group_sums.push(sums);
                    }
                    ColumnCodec::MultiRef {
                        enc: MultiRefInt::encode(target, &group_sums, *code_bits)?,
                        groups: group_idx,
                    }
                }
                _ => unreachable!("vertical plans handled in pass 2"),
            };
            codecs[i] = Some(codec);
        }

        // Every other integer column (Dict / Plain plans and the horizontal
        // targets) takes its zone from one fold over the raw values; string
        // columns and empty blocks have none.
        for (zone, col) in zones.iter_mut().zip(block.columns()) {
            if let (None, Column::Int64(v)) = (&zone, col) {
                *zone = ZoneMap::from_values(v);
            }
        }

        Ok(Self {
            rows,
            names,
            codecs: codecs.into_iter().map(Option::unwrap).collect(),
            zones,
        })
    }

    /// Assembles a block from parsed parts, with the zones the caller
    /// vouches for, once every column passes
    /// [`check_column`](crate::format::check_column). `checked` is a table
    /// reader's memo per column — whether these very bytes passed before
    /// (see [`crate::store::TableReader`]): a set memo skips its column's
    /// check, and a column that passes sets it. A bare block keeps no memo
    /// (`&[]`) and checks every column.
    pub(crate) fn from_parts(
        rows: u32,
        names: Vec<String>,
        codecs: Vec<ColumnCodec>,
        zones: Vec<Option<ZoneMap>>,
        checked: &[AtomicBool],
    ) -> Result<Self> {
        let block = Self {
            rows,
            names,
            codecs,
            zones,
        };
        // `Relaxed`: a flag publishes no data — every assembly parses its
        // own copy of the same immutable bytes.
        for (i, codec) in block.codecs.iter().enumerate() {
            let memo = checked.get(i);
            if !memo.is_some_and(|m| m.load(Ordering::Relaxed)) {
                check_column(codec, block.rows(), &block)?;
                if let Some(memo) = memo {
                    memo.store(true, Ordering::Relaxed);
                }
            }
        }
        Ok(block)
    }

    /// Recomputes every integer column's exact zone with one
    /// reconstruction per column — what a bare serialized block, which
    /// carries no zones, pays on [`from_bytes`](Self::from_bytes). The only
    /// place a zone is derived from a payload.
    pub(crate) fn with_decoded_zones(mut self) -> Result<Self> {
        let (scratch, mut values) = (DecodeScratch::default(), Vec::new());
        for i in 0..self.codecs.len() {
            if !self.codecs[i].is_string() {
                int_column(&self, i, &scratch, |c| c.decode_into(&mut values))?;
                self.zones[i] = ZoneMap::from_values(&values);
            }
        }
        Ok(self)
    }

    /// Number of rows in the block.
    pub fn rows(&self) -> usize {
        self.rows as usize
    }

    /// Column names.
    pub fn names(&self) -> &[String] {
        &self.names
    }

    /// Index of column `name`.
    pub fn index_of(&self, name: &str) -> Result<usize> {
        self.names
            .iter()
            .position(|n| n == name)
            .ok_or_else(|| Error::ColumnNotFound(name.to_owned()))
    }

    /// The codec of column `name`.
    pub fn codec(&self, name: &str) -> Result<&ColumnCodec> {
        Ok(&self.codecs[self.index_of(name)?])
    }

    /// The codec at index `i`.
    pub fn codec_at(&self, i: usize) -> &ColumnCodec {
        &self.codecs[i]
    }

    /// Compressed size of column `name` (Tab. 2 numbers).
    pub fn column_bytes(&self, name: &str) -> Result<usize> {
        Ok(self.codec(name)?.compressed_bytes())
    }

    /// Total compressed size of the block.
    pub fn total_bytes(&self) -> usize {
        self.codecs.iter().map(ColumnCodec::compressed_bytes).sum()
    }

    /// Fully decompresses column `name` back into an uncompressed column.
    pub fn decompress(&self, name: &str) -> Result<Column> {
        let i = self.index_of(name)?;
        self.decompress_at(i)
    }

    /// Fully decompresses the column at index `i`.
    pub fn decompress_at(&self, i: usize) -> Result<Column> {
        decompress_column(self, i)
    }
}

/// Fully decompresses the column at index `i` of any [`BlockView`],
/// touching only that column's codec and its transitively referenced
/// codecs — on a lazy view this is what makes projected reads fetch only
/// the payloads they need.
pub fn decompress_column<B: BlockView + ?Sized>(block: &B, i: usize) -> Result<Column> {
    if block.is_string(i) {
        return Ok(Column::Utf8(str_column(block, i)?.decode()));
    }
    let mut values = Vec::new();
    int_column(block, i, &DecodeScratch::default(), |c| {
        c.decode_into(&mut values)
    })?;
    Ok(Column::Int64(values))
}

/// The per-row codes and entry count of a Hier parent's dictionary, at
/// encode.
fn parent_codes_of(codec: &Option<ColumnCodec>) -> Result<(Vec<u32>, usize)> {
    let codec = codec
        .as_ref()
        .ok_or_else(|| Error::invalid("reference column not yet encoded"))?;
    let parent = CodeAccess::of(codec).ok_or_else(|| Error::TypeMismatch {
        expected: "dict-encoded reference",
        found: codec_kind(codec),
    })?;
    let mut codes = Vec::new();
    parent.codes_into(&mut codes);
    Ok((codes, parent.keys.len()))
}

/// A codec's kind, as type-mismatch errors name it.
pub(crate) fn codec_kind(c: &ColumnCodec) -> &'static str {
    match c {
        ColumnCodec::Int(_) => "vertical int",
        ColumnCodec::Str(_) => "dict str",
        ColumnCodec::PlainStr(_) => "plain str",
        ColumnCodec::NonHier { .. } => "corra nonhier",
        ColumnCodec::HierInt { .. } => "corra hier int",
        ColumnCodec::HierStr { .. } => "corra hier str",
        ColumnCodec::MultiRef { .. } => "corra multiref",
    }
}

/// Compresses many blocks in parallel (blocks are self-contained by
/// construction, so this is embarrassingly parallel): one
/// `crate::morsel::run` over the block indices.
pub fn compress_blocks(
    blocks: &[DataBlock],
    config: &CompressionConfig,
    threads: usize,
) -> Result<Vec<CompressedBlock>> {
    crate::morsel::collect(blocks.len(), threads, |i| {
        CompressedBlock::compress(&blocks[i], config)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use corra_columnar::block::DataBlock;
    use corra_columnar::column::DataType;
    use corra_columnar::schema::{Field, Schema};

    fn date_block(n: usize) -> DataBlock {
        let ship: Vec<i64> = (0..n).map(|i| 8_035 + (i as i64 * 17 % 2_500)).collect();
        let commit: Vec<i64> = ship
            .iter()
            .enumerate()
            .map(|(i, &s)| s + (i as i64 % 181) - 90)
            .collect();
        let receipt: Vec<i64> = ship
            .iter()
            .enumerate()
            .map(|(i, &s)| s + 1 + (i as i64 % 30))
            .collect();
        DataBlock::new(
            Schema::new(vec![
                Field::new("l_shipdate", DataType::Date),
                Field::new("l_commitdate", DataType::Date),
                Field::new("l_receiptdate", DataType::Date),
            ])
            .unwrap(),
            vec![
                Column::Int64(ship),
                Column::Int64(commit),
                Column::Int64(receipt),
            ],
        )
        .unwrap()
    }

    fn corra_date_config() -> CompressionConfig {
        CompressionConfig::baseline()
            .with(
                "l_commitdate",
                ColumnPlan::NonHier {
                    reference: "l_shipdate".into(),
                },
            )
            .with(
                "l_receiptdate",
                ColumnPlan::NonHier {
                    reference: "l_shipdate".into(),
                },
            )
    }

    #[test]
    fn nonhier_block_roundtrip() {
        let block = date_block(10_000);
        let compressed = CompressedBlock::compress(&block, &corra_date_config()).unwrap();
        for name in ["l_shipdate", "l_commitdate", "l_receiptdate"] {
            let got = compressed.decompress(name).unwrap();
            assert_eq!(&got, block.column(name).unwrap(), "{name}");
        }
        assert_eq!(
            compressed.codec("l_receiptdate").unwrap().scheme(),
            "corra-nonhier"
        );
        assert!(compressed.codec("l_receiptdate").unwrap().is_horizontal());
        assert!(!compressed.codec("l_shipdate").unwrap().is_horizontal());
    }

    #[test]
    fn corra_block_smaller_than_baseline() {
        let block = date_block(50_000);
        let baseline = CompressedBlock::compress(&block, &CompressionConfig::baseline()).unwrap();
        let corra = CompressedBlock::compress(&block, &corra_date_config()).unwrap();
        assert!(corra.total_bytes() < baseline.total_bytes());
        // Reference column identical in both.
        assert_eq!(
            corra.column_bytes("l_shipdate").unwrap(),
            baseline.column_bytes("l_shipdate").unwrap()
        );
    }

    #[test]
    fn rejects_chained_references() {
        let block = date_block(100);
        let cfg = CompressionConfig::baseline()
            .with(
                "l_commitdate",
                ColumnPlan::NonHier {
                    reference: "l_shipdate".into(),
                },
            )
            .with(
                "l_receiptdate",
                ColumnPlan::NonHier {
                    reference: "l_commitdate".into(),
                },
            );
        assert!(CompressedBlock::compress(&block, &cfg).is_err());
    }

    #[test]
    fn rejects_unknown_and_self_references() {
        let block = date_block(100);
        let cfg = CompressionConfig::baseline().with(
            "l_commitdate",
            ColumnPlan::NonHier {
                reference: "nope".into(),
            },
        );
        assert!(CompressedBlock::compress(&block, &cfg).is_err());
        let cfg = CompressionConfig::baseline().with(
            "l_commitdate",
            ColumnPlan::NonHier {
                reference: "l_commitdate".into(),
            },
        );
        assert!(CompressedBlock::compress(&block, &cfg).is_err());
    }

    fn dmv_block(n: usize) -> DataBlock {
        let cities = ["Cortland", "Naples", "NYC", "Albany"];
        let city_pool = StringPool::from_iter((0..n).map(|i| cities[i % 4]));
        let zips: Vec<i64> = (0..n)
            .map(|i| 10_000 + (i % 4) as i64 * 100 + (i / 4 % 8) as i64)
            .collect();
        DataBlock::new(
            Schema::new(vec![
                Field::new("city", DataType::Utf8),
                Field::new("zip", DataType::Int64),
            ])
            .unwrap(),
            vec![Column::Utf8(city_pool), Column::Int64(zips)],
        )
        .unwrap()
    }

    #[test]
    fn hier_block_roundtrip_string_parent() {
        let block = dmv_block(4_000);
        let cfg = CompressionConfig::baseline().with(
            "zip",
            ColumnPlan::Hier {
                reference: "city".into(),
            },
        );
        let compressed = CompressedBlock::compress(&block, &cfg).unwrap();
        assert_eq!(compressed.codec("zip").unwrap().scheme(), "corra-hier");
        let got = compressed.decompress("zip").unwrap();
        assert_eq!(&got, block.column("zip").unwrap());
        let got = compressed.decompress("city").unwrap();
        assert_eq!(&got, block.column("city").unwrap());
    }

    #[test]
    fn hier_upgrades_int_reference_to_dict() {
        // countryid (int) referenced hierarchically must become Dict even if
        // FOR would win vertically.
        let n = 5_000;
        let country: Vec<i64> = (0..n).map(|i| (i % 111) as i64).collect();
        let ip: Vec<i64> = (0..n)
            .map(|i| (i % 111) as i64 * 1_000 + (i / 111 % 20) as i64)
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
        let compressed = CompressedBlock::compress(&block, &cfg).unwrap();
        assert!(matches!(
            compressed.codec("countryid").unwrap(),
            ColumnCodec::Int(IntEncoding::Dict(_))
        ));
        let got = compressed.decompress("ip").unwrap();
        assert_eq!(&got, block.column("ip").unwrap());
    }

    #[test]
    fn hier_string_child_roundtrip() {
        // state -> city (string child).
        let n = 2_000;
        let states = StringPool::from_iter((0..n).map(|i| if i % 2 == 0 { "NY" } else { "FL" }));
        let cities = StringPool::from_iter((0..n).map(|i| match (i % 2, (i / 2) % 3) {
            (0, 0) => "NYC",
            (0, 1) => "Albany",
            (0, _) => "Cortland",
            (1, 0) => "Miami",
            (1, 1) => "Naples",
            _ => "Tampa",
        }));
        let block = DataBlock::new(
            Schema::new(vec![
                Field::new("state", DataType::Utf8),
                Field::new("city", DataType::Utf8),
            ])
            .unwrap(),
            vec![Column::Utf8(states), Column::Utf8(cities)],
        )
        .unwrap();
        let cfg = CompressionConfig::baseline().with(
            "city",
            ColumnPlan::Hier {
                reference: "state".into(),
            },
        );
        let compressed = CompressedBlock::compress(&block, &cfg).unwrap();
        let got = compressed.decompress("city").unwrap();
        assert_eq!(&got, block.column("city").unwrap());
    }

    fn taxi_block(n: usize) -> DataBlock {
        let fare: Vec<i64> = (0..n).map(|i| 500 + (i as i64 * 7 % 3_000)).collect();
        let tip: Vec<i64> = (0..n).map(|i| (i as i64 * 3) % 500).collect();
        let congestion: Vec<i64> = (0..n).map(|_| 250).collect();
        let airport: Vec<i64> = (0..n).map(|_| 125).collect();
        let total: Vec<i64> = (0..n)
            .map(|i| {
                let a = fare[i] + tip[i];
                match i % 100 {
                    0..=30 => a,
                    31..=93 => a + congestion[i],
                    94..=96 => a + airport[i],
                    97..=98 => a + congestion[i] + airport[i],
                    _ => a + 77_777,
                }
            })
            .collect();
        DataBlock::new(
            Schema::new(vec![
                Field::new("fare_amount", DataType::Int64),
                Field::new("tip_amount", DataType::Int64),
                Field::new("congestion_surcharge", DataType::Int64),
                Field::new("airport_fee", DataType::Int64),
                Field::new("total_amount", DataType::Int64),
            ])
            .unwrap(),
            vec![
                Column::Int64(fare),
                Column::Int64(tip),
                Column::Int64(congestion),
                Column::Int64(airport),
                Column::Int64(total),
            ],
        )
        .unwrap()
    }

    fn taxi_config() -> CompressionConfig {
        CompressionConfig::baseline().with(
            "total_amount",
            ColumnPlan::MultiRef {
                groups: vec![
                    vec!["fare_amount".into(), "tip_amount".into()],
                    vec!["congestion_surcharge".into()],
                    vec!["airport_fee".into()],
                ],
                code_bits: 2,
            },
        )
    }

    #[test]
    fn multiref_block_roundtrip() {
        let block = taxi_block(10_000);
        let compressed = CompressedBlock::compress(&block, &taxi_config()).unwrap();
        assert_eq!(
            compressed.codec("total_amount").unwrap().scheme(),
            "corra-multiref"
        );
        let got = compressed.decompress("total_amount").unwrap();
        assert_eq!(&got, block.column("total_amount").unwrap());
        // Dramatic compression of the target column vs baseline.
        let baseline = CompressedBlock::compress(&block, &CompressionConfig::baseline()).unwrap();
        assert!(
            compressed.column_bytes("total_amount").unwrap() * 3
                < baseline.column_bytes("total_amount").unwrap()
        );
    }

    #[test]
    fn plain_plan_is_uncompressed() {
        let block = date_block(1_000);
        let cfg = CompressionConfig::plain_for(&["l_shipdate", "l_commitdate", "l_receiptdate"]);
        let compressed = CompressedBlock::compress(&block, &cfg).unwrap();
        assert_eq!(compressed.codec("l_shipdate").unwrap().scheme(), "plain");
        assert_eq!(compressed.total_bytes(), 3 * 1_000 * 8);
    }

    #[test]
    fn parallel_compression_matches_serial() {
        let table_rows = 10_000;
        let blocks: Vec<DataBlock> = (0..4).map(|_| date_block(table_rows / 4)).collect();
        let cfg = corra_date_config();
        let serial: Vec<CompressedBlock> = blocks
            .iter()
            .map(|b| CompressedBlock::compress(b, &cfg).unwrap())
            .collect();
        let parallel = compress_blocks(&blocks, &cfg, 4).unwrap();
        assert_eq!(serial, parallel);
    }
}
