//! Indexed table storage: multi-block files with a footer that makes every
//! codec payload independently addressable.
//!
//! File layout (little-endian):
//!
//! ```text
//! magic      "CORRATBL"          8 bytes
//! block segments                 each a self-contained block
//!                                (see crate::format)
//! footer                         schema + per-block metadata (below)
//! footer_len u64
//! magic      "CORRATBL"          8 bytes
//! ```
//!
//! The footer records, per block, the segment's byte range and row count,
//! and per `(block, column)` the codec header (tag + reference wiring), the
//! byte range of the column's framed payload, and the column's exact
//! [`ZoneMap`] — the one [`CompressedBlock`] recorded at encode, written
//! unchanged. That metadata enables three behaviors no sequential format
//! can offer:
//!
//! * **Projection pushdown** — [`TableReader::read_column`] /
//!   [`BlockHandle`] deserialize only the referenced column plus its
//!   transitively referenced reference columns, resolved by walking the
//!   footer wiring (never the payload bytes);
//! * **I/O-free pruning** — [`TableReader::scan_blocks`] consults footer
//!   zone maps first and never touches a pruned block's bytes
//!   ([`ScanStats::blocks_skipped_io`] / [`ScanStats::bytes_read`]);
//! * **Streaming writes** — [`TableWriter::write_block`] emits each block
//!   segment as it arrives (e.g. straight out of
//!   [`crate::compressor::compress_blocks`]) and buffers only footer
//!   metadata, never the file.
//!
//! The footer carries end-to-end integrity: a [`checksum64`] per column
//! payload span (verified on every lazy load), per block segment (verified
//! by [`TableReader::read_block`]), and a footer self-checksum — so any
//! flipped bit anywhere in the file surfaces as [`Error::Corrupt`] rather
//! than silently wrong data. There is one footer version
//! ([`FOOTER_VERSION`]); any other version word is [`Error::Corrupt`].
//!
//! All reads go through the pluggable [`IoBackend`] seam (see
//! [`crate::io`]), which is also where the torture harness injects faults.

use std::cell::{Cell, OnceCell};
use std::io::{Seek, SeekFrom, Write};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use bytes::{Buf, BufMut};
use corra_columnar::column::{Column, DataType};
use corra_columnar::error::{Error, Result};
use corra_columnar::predicate::RangeVerdict;
use corra_columnar::schema::{Field, Schema};
use corra_columnar::selection::SelectionVector;
use corra_columnar::stats::ZoneMap;

use crate::aggregate::{
    aggregate_partial, group_not_dictionary, validate_expr_with, zone_answer, AggExpr, AggFunc,
    AggMerger, AggResult, PartialAgg,
};
use crate::cache::{next_table_id, CacheKey, CacheValue, ShardedCache};
use crate::compressor::{
    decompress_column, BlockView, ColumnCodec, CompressedBlock, DecodeScratch,
};
use crate::format::{read_codec_payload, CodecHeader, PayloadSpan};
use crate::io::{checksum64, read_full_at, FileBackend, IoBackend, MemBackend};
use crate::operator::{
    rows_from, top_k_block, topk_visit_order, zone_skips_topk, BuildTable, JoinExpr, JoinPair,
    JoinStats, RowId, TopKExpr, TopKRow,
};
use crate::query::QueryOutput;
use crate::scan::{scan_pruned, tree_verdict, validate_pred_with, Predicate, ScanStats};
use corra_columnar::aggregate::{IntAggState, StrAggState};
use corra_columnar::topk::TopKHeap;

/// File magic framing a Corra table (leading and trailing).
pub const TABLE_MAGIC: [u8; 8] = *b"CORRATBL";
/// The footer format version (checksummed).
pub const FOOTER_VERSION: u16 = 4;

const TRAILER_LEN: u64 = 8 + 8; // footer_len + magic

fn io_err(op: &str, e: std::io::Error) -> Error {
    Error::invalid(format!("{op}: {e}"))
}

/// Footer metadata of one column within one block.
#[derive(Debug, Clone, PartialEq)]
pub struct ColumnMeta {
    /// Codec tag + cross-column wiring (the reference graph, payload-free).
    pub header: CodecHeader,
    /// Byte range of the column's payload, relative to the block segment.
    pub span: PayloadSpan,
    /// The column's exact min / max ([`BlockView::zone`]); `None` for
    /// strings and empty blocks.
    pub zone: Option<ZoneMap>,
    /// [`checksum64`] of the payload span's bytes, verified on every
    /// lazy payload load.
    pub checksum: u64,
}

/// Footer metadata of one block.
#[derive(Debug, Clone, PartialEq)]
pub struct BlockMeta {
    /// File offset of the block segment.
    pub offset: u64,
    /// Segment length in bytes.
    pub len: u64,
    /// Rows in the block.
    pub rows: u32,
    /// Per-column metadata, in schema order.
    pub columns: Vec<ColumnMeta>,
    /// [`checksum64`] of the whole block segment, verified by
    /// [`TableReader::read_block`].
    pub checksum: u64,
}

/// The parsed table footer: schema plus per-block metadata.
#[derive(Debug, Clone, PartialEq)]
pub struct TableFooter {
    /// Column names and types shared by every block.
    pub schema: Schema,
    /// Per-block metadata, in file order.
    pub blocks: Vec<BlockMeta>,
}

impl TableFooter {
    /// Total rows across all blocks.
    pub fn rows_total(&self) -> usize {
        self.blocks.iter().map(|b| b.rows as usize).sum()
    }

    /// The zone map of `(block, column)`, when the footer carries one.
    pub fn zone(&self, block: usize, column: usize) -> Option<ZoneMap> {
        self.blocks.get(block)?.columns.get(column)?.zone
    }

    /// The transitive reference closure of column `column`: the column
    /// itself plus every column its codec needs for reconstruction,
    /// resolved purely from footer wiring (no payload bytes touched).
    pub fn reference_closure(&self, block: usize, column: usize) -> Result<Vec<usize>> {
        let meta = self
            .blocks
            .get(block)
            .ok_or_else(|| Error::invalid(format!("block {block} out of range")))?;
        let mut out = vec![column];
        // References never chain (enforced at write), so one hop suffices;
        // still, walk generically in case that invariant is ever relaxed.
        let mut i = 0;
        while i < out.len() {
            let col = out[i];
            let cm = meta.columns.get(col).ok_or(Error::IndexOutOfBounds {
                index: col,
                len: meta.columns.len(),
            })?;
            for r in cm.header.wiring.references() {
                let r = r as usize;
                if !out.contains(&r) {
                    out.push(r);
                }
            }
            i += 1;
        }
        Ok(out)
    }

    fn write_to(&self, buf: &mut Vec<u8>) -> Result<()> {
        let start = buf.len();
        buf.put_u16_le(FOOTER_VERSION);
        self.schema.validate_serializable()?;
        self.schema.write_to(buf);
        let n_blocks = u32::try_from(self.blocks.len())
            .map_err(|_| Error::invalid("block count exceeds the u32 footer field"))?;
        buf.put_u32_le(n_blocks);
        for block in &self.blocks {
            buf.put_u64_le(block.offset);
            buf.put_u64_le(block.len);
            buf.put_u32_le(block.rows);
            buf.put_u64_le(block.checksum);
            for col in &block.columns {
                col.header.write_to(buf)?;
                buf.put_u64_le(col.span.offset);
                buf.put_u32_le(col.span.len);
                buf.put_u64_le(col.checksum);
                match &col.zone {
                    // 2 = exact zone (1, covering bounds, is never written).
                    Some(zone) => {
                        buf.put_u8(2);
                        zone.write_to(buf);
                    }
                    None => buf.put_u8(0),
                }
            }
        }
        // Self-checksum over everything above, version word included, so a
        // flipped footer bit is caught before any field is trusted.
        let sum = checksum64(&buf[start..]);
        buf.put_u64_le(sum);
        Ok(())
    }

    fn read_from(full: &[u8]) -> Result<Self> {
        let mut buf = full;
        if buf.remaining() < 2 {
            return Err(Error::corrupt("footer version truncated"));
        }
        let version = buf.get_u16_le();
        if version != FOOTER_VERSION {
            return Err(Error::corrupt(format!(
                "unsupported footer version {version}"
            )));
        }
        if buf.remaining() < 8 {
            return Err(Error::corrupt("footer self-checksum truncated"));
        }
        let (mut buf, mut sum) = buf.split_at(buf.len() - 8);
        if checksum64(&full[..full.len() - 8]) != sum.get_u64_le() {
            return Err(Error::corrupt("footer self-checksum mismatch"));
        }
        let schema = Schema::read_from(&mut buf)?;
        let n_cols = schema.len();
        if buf.remaining() < 4 {
            return Err(Error::corrupt("footer block count truncated"));
        }
        let n_blocks = buf.get_u32_le() as usize;
        let mut blocks = Vec::with_capacity(n_blocks.min(1 << 20));
        for _ in 0..n_blocks {
            if buf.remaining() < 8 + 8 + 4 + 8 {
                return Err(Error::corrupt("footer block header truncated"));
            }
            let offset = buf.get_u64_le();
            let len = buf.get_u64_le();
            let rows = buf.get_u32_le();
            let block_checksum = buf.get_u64_le();
            let mut columns = Vec::with_capacity(n_cols);
            for _ in 0..n_cols {
                let header = CodecHeader::read_from(&mut buf, n_cols)?;
                if buf.remaining() < 8 + 4 + 8 + 1 {
                    return Err(Error::corrupt("footer column span truncated"));
                }
                let span = PayloadSpan {
                    offset: buf.get_u64_le(),
                    len: buf.get_u32_le(),
                };
                let checksum = buf.get_u64_le();
                let zone = match buf.get_u8() {
                    0 => None,
                    // Older writers stored covering bounds (FOR's
                    // `base + 2^bits - 1`) under flag 1. Every reader takes
                    // a zone as exact, so such a column reads as zoneless
                    // and its blocks decode.
                    1 => ZoneMap::read_from(&mut buf).map(|_| None)?,
                    2 => Some(ZoneMap::read_from(&mut buf)?),
                    f => return Err(Error::corrupt(format!("bad zone-map flag {f}"))),
                };
                if span
                    .offset
                    .checked_add(span.len as u64)
                    .is_none_or(|end| end > len)
                {
                    return Err(Error::corrupt("column payload span exceeds its block"));
                }
                columns.push(ColumnMeta {
                    header,
                    span,
                    zone,
                    checksum,
                });
            }
            // Horizontal wiring must target vertical columns, the same
            // invariant CompressedBlock::from_bytes enforces on payloads.
            for col in &columns {
                for r in col.header.wiring.references() {
                    if columns[r as usize].header.is_horizontal() {
                        return Err(Error::corrupt(
                            "footer wiring references a horizontal column",
                        ));
                    }
                }
            }
            blocks.push(BlockMeta {
                offset,
                len,
                rows,
                columns,
                checksum: block_checksum,
            });
        }
        if !buf.is_empty() {
            return Err(Error::corrupt(format!(
                "{} trailing bytes after footer",
                buf.len()
            )));
        }
        Ok(Self { schema, blocks })
    }
}

/// Streaming writer for the indexed table format.
///
/// Block segments are written to the sink as they arrive — only footer
/// metadata (a few dozen bytes per block) is buffered, so a table of any
/// size streams through without ever materializing the file:
///
/// ```no_run
/// # use corra_core::store::TableWriter;
/// # use corra_core::{compress_blocks, CompressionConfig};
/// # fn demo(blocks: &[corra_columnar::block::DataBlock]) -> corra_columnar::error::Result<()> {
/// let file = std::fs::File::create("table.corra").map_err(|e| {
///     corra_columnar::error::Error::invalid(e.to_string())
/// })?;
/// let mut writer = TableWriter::new(file)?;
/// for block in compress_blocks(blocks, &CompressionConfig::baseline(), 4)? {
///     writer.write_block(&block)?; // streamed straight to disk
/// }
/// writer.finish()?;
/// # Ok(())
/// # }
/// ```
pub struct TableWriter<W: Write> {
    sink: W,
    schema: Option<Schema>,
    blocks: Vec<BlockMeta>,
    offset: u64,
}

impl<W: Write> TableWriter<W> {
    /// Starts a table, writing the leading magic. The schema is derived
    /// from the first block (string columns become [`DataType::Utf8`],
    /// everything else [`DataType::Int64`]).
    ///
    /// # Errors
    ///
    /// I/O errors from the sink.
    pub fn new(mut sink: W) -> Result<Self> {
        sink.write_all(&TABLE_MAGIC)
            .map_err(|e| io_err("writing table magic", e))?;
        Ok(Self {
            sink,
            schema: None,
            blocks: Vec::new(),
            offset: TABLE_MAGIC.len() as u64,
        })
    }

    /// Like [`new`](Self::new) with an explicit schema (preserving `Date` /
    /// `Timestamp` types the codecs cannot distinguish from `Int64`).
    ///
    /// # Errors
    ///
    /// I/O errors from the sink, or a schema that exceeds the serialized
    /// layout's width limits.
    pub fn with_schema(sink: W, schema: Schema) -> Result<Self> {
        schema.validate_serializable()?;
        let mut writer = Self::new(sink)?;
        writer.schema = Some(schema);
        Ok(writer)
    }

    /// Appends one block segment, streaming its bytes to the sink and
    /// recording its footer metadata (byte ranges, payload spans, zone
    /// maps).
    ///
    /// # Errors
    ///
    /// Serialization-width violations (see [`CompressedBlock::to_bytes`]),
    /// a block whose columns disagree with the table schema, or sink I/O
    /// errors.
    pub fn write_block(&mut self, block: &CompressedBlock) -> Result<()> {
        match &self.schema {
            None => self.schema = Some(derive_schema(block)?),
            Some(schema) => check_schema(schema, block)?,
        }
        let mut buf = Vec::with_capacity(block.total_bytes() + 64);
        let spans = block.write_to(&mut buf)?;
        let columns = (0..block.names().len())
            .map(|i| {
                let span = spans[i];
                let payload = &buf[span.offset as usize..span.offset as usize + span.len as usize];
                ColumnMeta {
                    header: CodecHeader::of(block.codec_at(i)),
                    span,
                    zone: block.zone(i),
                    checksum: checksum64(payload),
                }
            })
            .collect();
        self.sink
            .write_all(&buf)
            .map_err(|e| io_err("writing block segment", e))?;
        self.blocks.push(BlockMeta {
            offset: self.offset,
            len: buf.len() as u64,
            rows: block.rows() as u32,
            columns,
            checksum: checksum64(&buf),
        });
        self.offset += buf.len() as u64;
        Ok(())
    }

    /// Bytes written to the sink so far (magic + block segments).
    pub fn written_bytes(&self) -> u64 {
        self.offset
    }

    /// Writes the footer and trailer, returning the sink.
    ///
    /// An empty table (zero blocks) is valid but carries an empty schema
    /// unless one was provided via [`with_schema`](Self::with_schema).
    ///
    /// # Errors
    ///
    /// Sink I/O errors, or footer width violations.
    pub fn finish(mut self) -> Result<W> {
        let footer = TableFooter {
            schema: self.schema.take().unwrap_or_default(),
            blocks: std::mem::take(&mut self.blocks),
        };
        let mut buf = Vec::new();
        footer.write_to(&mut buf)?;
        let footer_len = buf.len() as u64;
        buf.put_u64_le(footer_len);
        buf.put_slice(&TABLE_MAGIC);
        self.sink
            .write_all(&buf)
            .map_err(|e| io_err("writing table footer", e))?;
        self.sink.flush().map_err(|e| io_err("flushing table", e))?;
        Ok(self.sink)
    }
}

fn derive_schema(block: &CompressedBlock) -> Result<Schema> {
    let fields = block
        .names()
        .iter()
        .enumerate()
        .map(|(i, name)| {
            let dt = if CodecHeader::of(block.codec_at(i)).is_string() {
                DataType::Utf8
            } else {
                DataType::Int64
            };
            Field::new(name.clone(), dt)
        })
        .collect();
    let schema = Schema::new(fields)?;
    schema.validate_serializable()?;
    Ok(schema)
}

fn check_schema(schema: &Schema, block: &CompressedBlock) -> Result<()> {
    if schema.len() != block.names().len() {
        return Err(Error::invalid(format!(
            "block has {} columns, table schema has {}",
            block.names().len(),
            schema.len()
        )));
    }
    for (i, (field, name)) in schema.fields().iter().zip(block.names()).enumerate() {
        if field.name() != name {
            return Err(Error::invalid(format!(
                "block column {name:?} does not match table schema column {:?}",
                field.name()
            )));
        }
        let is_string = CodecHeader::of(block.codec_at(i)).is_string();
        let declared_string = field.data_type() == DataType::Utf8;
        if is_string != declared_string {
            return Err(Error::invalid(format!(
                "block column {name:?} is a {} codec but the table schema declares {:?}",
                if is_string { "string" } else { "integer" },
                field.data_type()
            )));
        }
    }
    Ok(())
}

/// Compresses nothing, writes everything: serializes already-compressed
/// blocks to `path` as one indexed table file, returning its total size.
///
/// # Errors
///
/// As [`TableWriter::write_block`] / [`TableWriter::finish`].
pub fn write_table(path: &std::path::Path, blocks: &[CompressedBlock]) -> Result<u64> {
    let file = std::fs::File::create(path).map_err(|e| io_err("creating table file", e))?;
    let mut writer = TableWriter::new(file)?;
    for block in blocks {
        writer.write_block(block)?;
    }
    let mut file = writer.finish()?;
    file.flush().map_err(|e| io_err("flushing table", e))?;
    file.seek(SeekFrom::End(0))
        .map_err(|e| io_err("sizing table", e))
}

/// Reads exactly `len` bytes at `offset`, looping over short reads (see
/// [`read_full_at`] — satisfying the pread contract is the backend's only
/// obligation; wholeness is enforced here).
fn read_exact_vec(backend: &dyn IoBackend, offset: u64, len: usize) -> Result<Vec<u8>> {
    let mut buf = vec![0u8; len];
    read_full_at(backend, offset, &mut buf)?;
    Ok(buf)
}

/// Random-access reader over an indexed table file.
///
/// All data access is metered: [`bytes_read`](Self::bytes_read) counts
/// every payload/segment byte fetched after open (the footer parsed at
/// open time is fixed overhead and not counted), which is what the
/// projection and pruning guarantees are asserted against.
pub struct TableReader {
    source: Box<dyn IoBackend>,
    file_len: u64,
    footer: TableFooter,
    /// Footer schema names, cached as the `BlockView::names` slice.
    names: Vec<String>,
    bytes_read: AtomicU64,
    /// Attached serving cache plus this reader's cache-keying table id
    /// (see [`TableReader::with_cache`]).
    cache: Option<(Arc<ShardedCache>, u64)>,
}

/// What one footer-addressed payload load cost: bytes fetched from the
/// backend, and whether an attached cache answered it.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct LoadCost {
    pub(crate) bytes: u64,
    pub(crate) cache_hits: u64,
    pub(crate) cache_misses: u64,
}

impl TableReader {
    /// Opens a table file from disk.
    ///
    /// # Errors
    ///
    /// I/O errors, bad magic/trailer, or a corrupt footer.
    pub fn open(path: &std::path::Path) -> Result<Self> {
        Self::from_backend(Box::new(FileBackend::open(path)?))
    }

    /// Opens a table held entirely in memory.
    ///
    /// # Errors
    ///
    /// Bad magic/trailer or a corrupt footer.
    pub fn from_bytes(bytes: Vec<u8>) -> Result<Self> {
        Self::from_backend(Box::new(MemBackend::new(bytes)))
    }

    /// Opens a table over any [`IoBackend`] — the fault-injection seam:
    /// wrap a backend in [`crate::io::FaultyBackend`] to torture the whole
    /// read path.
    ///
    /// # Errors
    ///
    /// Backend I/O errors, bad magic/trailer, or a corrupt footer.
    pub fn from_backend(source: Box<dyn IoBackend>) -> Result<Self> {
        let file_len = source.len()?;
        let min_len = TABLE_MAGIC.len() as u64 * 2 + TRAILER_LEN - 8;
        if file_len < min_len {
            return Err(Error::corrupt("table file too short"));
        }
        let head = read_exact_vec(source.as_ref(), 0, TABLE_MAGIC.len())?;
        if head != TABLE_MAGIC {
            return Err(Error::corrupt("bad table magic"));
        }
        let trailer = read_exact_vec(
            source.as_ref(),
            file_len - TRAILER_LEN,
            TRAILER_LEN as usize,
        )?;
        if trailer[8..] != TABLE_MAGIC {
            return Err(Error::corrupt("bad trailing table magic"));
        }
        let footer_len = trailer.as_slice().get_u64_le();
        let data_end = (file_len - TRAILER_LEN)
            .checked_sub(footer_len)
            .ok_or_else(|| Error::corrupt("footer length exceeds file"))?;
        if data_end < TABLE_MAGIC.len() as u64 {
            return Err(Error::corrupt("footer overlaps table magic"));
        }
        let footer_bytes = read_exact_vec(source.as_ref(), data_end, footer_len as usize)?;
        let footer = TableFooter::read_from(&footer_bytes)?;
        // Every block segment must lie inside the data region.
        for (i, block) in footer.blocks.iter().enumerate() {
            let end = block.offset.checked_add(block.len);
            if block.offset < TABLE_MAGIC.len() as u64 || end.is_none_or(|e| e > data_end) {
                return Err(Error::corrupt(format!(
                    "block {i} range outside data region"
                )));
            }
        }
        let names = footer
            .schema
            .fields()
            .iter()
            .map(|f| f.name().to_owned())
            .collect();
        Ok(Self {
            source,
            file_len,
            footer,
            names,
            bytes_read: AtomicU64::new(0),
            cache: None,
        })
    }

    /// Attaches a shared serving cache: block-segment frames and decoded
    /// column codecs are filled on first touch (checksum-verified before
    /// insertion) and served from memory afterwards, so repeated traffic
    /// stops hitting the [`IoBackend`]. The reader takes a fresh
    /// process-unique table id for cache keying, so one cache can serve
    /// many readers without aliasing.
    ///
    /// Every read path — [`read_block`](Self::read_block),
    /// [`read_column`](Self::read_column), scans, aggregates — goes
    /// through the cache unchanged; per-query hit/miss counts surface in
    /// [`ScanStats::cache_hits`] / [`ScanStats::cache_misses`].
    #[must_use]
    pub fn with_cache(mut self, cache: Arc<ShardedCache>) -> Self {
        self.cache = Some((cache, next_table_id()));
        self
    }

    /// The attached serving cache, when one was installed via
    /// [`with_cache`](Self::with_cache).
    pub fn cache(&self) -> Option<&Arc<ShardedCache>> {
        self.cache.as_ref().map(|(c, _)| c)
    }

    /// This reader's cache-keying table id (`None` without a cache).
    pub fn table_id(&self) -> Option<u64> {
        self.cache.as_ref().map(|&(_, id)| id)
    }

    /// The parsed footer.
    pub fn footer(&self) -> &TableFooter {
        &self.footer
    }

    /// The table schema.
    pub fn schema(&self) -> &Schema {
        &self.footer.schema
    }

    /// Number of blocks.
    pub fn n_blocks(&self) -> usize {
        self.footer.blocks.len()
    }

    /// Total rows across all blocks.
    pub fn rows_total(&self) -> usize {
        self.footer.rows_total()
    }

    /// Total file size in bytes.
    pub fn file_bytes(&self) -> u64 {
        self.file_len
    }

    /// Payload/segment bytes fetched since open, across all reads (atomic;
    /// accurate under concurrent scans).
    pub fn bytes_read(&self) -> u64 {
        self.bytes_read.load(Ordering::Relaxed)
    }

    fn metered_read(&self, offset: u64, len: usize) -> Result<Vec<u8>> {
        let buf = read_exact_vec(self.source.as_ref(), offset, len)?;
        self.bytes_read.fetch_add(len as u64, Ordering::Relaxed);
        Ok(buf)
    }

    fn block_meta(&self, block: usize) -> Result<&BlockMeta> {
        self.footer
            .blocks
            .get(block)
            .ok_or(Error::IndexOutOfBounds {
                index: block,
                len: self.footer.blocks.len(),
            })
    }

    /// Reads and fully deserializes block `block` (every column payload),
    /// attaching the footer's zones — nothing is decoded to find them.
    ///
    /// With an attached cache, the segment's compressed frame is served
    /// from memory after the first read; the frame is checksum-verified
    /// *before* it enters the cache, so a corrupt fill errors out and is
    /// never cached.
    ///
    /// # Errors
    ///
    /// Out-of-range index, I/O errors, or segment corruption.
    pub fn read_block(&self, block: usize) -> Result<CompressedBlock> {
        let meta = self.block_meta(block)?;
        let zones = || Some(meta.columns.iter().map(|c| c.zone).collect());
        if let Some((cache, table)) = &self.cache {
            let key = CacheKey::segment(*table, block as u32);
            if let Some(CacheValue::Segment(bytes)) = cache.get(&key) {
                return CompressedBlock::from_bytes_zoned(&bytes, zones());
            }
        }
        let len = usize::try_from(meta.len)
            .map_err(|_| Error::corrupt("block segment exceeds addressable memory"))?;
        let bytes = self.metered_read(meta.offset, len)?;
        if checksum64(&bytes) != meta.checksum {
            return Err(Error::corrupt(format!(
                "block {block} segment checksum mismatch"
            )));
        }
        let parsed = CompressedBlock::from_bytes_zoned(&bytes, zones())?;
        // Admit only after the checksum *and* a full parse succeeded: a
        // frame that cannot deserialize is useless to every future hit.
        if let Some((cache, table)) = &self.cache {
            let key = CacheKey::segment(*table, block as u32);
            cache.insert(key, CacheValue::Segment(Arc::new(bytes)), meta.len);
        }
        Ok(parsed)
    }

    /// A lazy handle over block `block`: columns load on first touch.
    ///
    /// # Errors
    ///
    /// Out-of-range index.
    pub fn block_handle(&self, block: usize) -> Result<BlockHandle<'_>> {
        let meta = self.block_meta(block)?;
        Ok(BlockHandle {
            reader: self,
            block,
            rows: meta.rows as usize,
            cells: (0..meta.columns.len()).map(|_| OnceCell::new()).collect(),
            cost: Cell::default(),
        })
    }

    /// Projection pushdown: decompresses one column of one block, reading
    /// only that column's payload plus its transitively referenced
    /// reference payloads (resolved from footer wiring).
    ///
    /// # Errors
    ///
    /// Unknown column, out-of-range block, I/O errors, or corruption.
    pub fn read_column(&self, block: usize, column: &str) -> Result<Column> {
        self.block_handle(block)?.decompress(column)
    }

    /// Loads the codec of `(block, col)` from its footer-addressed payload,
    /// or from the attached cache. Returns the codec and whether the cache
    /// answered (`true` = zero backend bytes fetched).
    ///
    /// The decoded codec enters the cache only after the payload checksum
    /// *and* every structural validation passed — a bit-flipped fill
    /// surfaces as `Err` and never as a poisoned entry.
    fn load_codec(&self, block: usize, col: usize) -> Result<(Arc<ColumnCodec>, bool)> {
        let meta = self.block_meta(block)?;
        let cm = meta.columns.get(col).ok_or(Error::IndexOutOfBounds {
            index: col,
            len: meta.columns.len(),
        })?;
        let key = self
            .cache
            .as_ref()
            .map(|&(_, table)| CacheKey::codec(table, block as u32, col as u32));
        if let (Some((cache, _)), Some(key)) = (&self.cache, key) {
            if let Some(CacheValue::Codec(codec)) = cache.get(&key) {
                return Ok((codec, true));
            }
        }
        let bytes = self.metered_read(meta.offset + cm.span.offset, cm.span.len as usize)?;
        if checksum64(&bytes) != cm.checksum {
            return Err(Error::corrupt(format!(
                "column {col} payload checksum mismatch in block {block}"
            )));
        }
        let mut cursor = bytes.as_slice();
        let codec = read_codec_payload(&cm.header, &mut cursor)?;
        if !cursor.is_empty() {
            return Err(Error::corrupt(format!(
                "{} trailing bytes in column payload",
                cursor.len()
            )));
        }
        // The same validations CompressedBlock::from_bytes runs: a hostile
        // length field or formula mask must not survive into the decode
        // kernels.
        if codec.len() != meta.rows as usize {
            return Err(Error::corrupt(format!(
                "column {col} stores {} rows, block has {}",
                codec.len(),
                meta.rows
            )));
        }
        if let ColumnCodec::MultiRef { enc, groups } = &codec {
            enc.validate_groups(groups.len())?;
        }
        let codec = Arc::new(codec);
        if let (Some((cache, _)), Some(key)) = (&self.cache, key) {
            // Charged at the serialized payload size: deterministic, known
            // without a deep-size walk, and proportional to the decoded
            // footprint for every codec family.
            cache.insert(
                key,
                CacheValue::Codec(Arc::clone(&codec)),
                u64::from(cm.span.len),
            );
        }
        Ok((codec, false))
    }

    /// Index of `name` in the footer schema.
    fn col_index(&self, name: &str) -> Result<usize> {
        self.names
            .iter()
            .position(|n| n == name)
            .ok_or_else(|| Error::ColumnNotFound(name.to_owned()))
    }

    /// The footer zone of column `name` in block `block`.
    fn zone_of(&self, block: usize, name: &str) -> Option<ZoneMap> {
        self.footer.zone(block, self.col_index(name).ok()?)
    }

    /// Validates `pred` against footer metadata alone (names + codec
    /// tags) through the walker the in-memory scan uses, so pruned scans
    /// report the same errors as kernel scans.
    fn validate_pred_footer(&self, meta: &BlockMeta, pred: &Predicate) -> Result<()> {
        validate_pred_with(pred, &|column| {
            Ok(meta.columns[self.col_index(column)?].header.is_string())
        })
    }

    /// Scans one block, consulting footer zone maps before touching any
    /// bytes. Returns `(selection, pruned, skipped_io, load_cost)`.
    fn scan_block_inner(
        &self,
        block: usize,
        pred: &Predicate,
    ) -> Result<(SelectionVector, bool, bool, LoadCost)> {
        let meta = self.block_meta(block)?;
        self.validate_pred_footer(meta, pred)?;
        let rows = meta.rows as usize;
        if rows == 0 {
            return Ok((SelectionVector::empty(), true, true, LoadCost::default()));
        }
        match tree_verdict(pred, &|name| self.zone_of(block, name)) {
            RangeVerdict::None => Ok((SelectionVector::empty(), true, true, LoadCost::default())),
            RangeVerdict::All => Ok((SelectionVector::all(rows), true, true, LoadCost::default())),
            RangeVerdict::Partial => {
                let handle = self.block_handle(block)?;
                let (sel, pruned) = scan_pruned(&handle, pred)?;
                Ok((sel, pruned, false, handle.load_cost()))
            }
        }
    }

    /// Evaluates `pred` against one block (footer pruning included).
    ///
    /// # Errors
    ///
    /// Unknown columns, predicate/codec type mismatches, I/O errors.
    pub fn scan(&self, block: usize, pred: &Predicate) -> Result<SelectionVector> {
        Ok(self.scan_block_inner(block, pred)?.0)
    }

    /// Scans every block, never touching the bytes of blocks the footer
    /// zone maps prune. Selections are byte-identical to
    /// [`crate::scan::scan_blocks`] over the same blocks in memory.
    ///
    /// # Errors
    ///
    /// As [`scan`](Self::scan).
    pub fn scan_blocks(&self, pred: &Predicate) -> Result<(Vec<SelectionVector>, ScanStats)> {
        scan_table(&[self], pred)
    }

    /// The in-memory up-front expression validation, answered from footer
    /// metadata alone (names, string-ness, horizontal-ness); dictionary
    /// layout of an integer `GROUP BY` column is payload-level and is
    /// checked by the kernel when a block actually evaluates.
    fn validate_expr_footer(&self, meta: &BlockMeta, expr: &AggExpr) -> Result<()> {
        let header = |column: &str| Ok(&meta.columns[self.col_index(column)?].header);
        validate_expr_with(expr, &|column| Ok(header(column)?.is_string()), &|group| {
            if header(group)?.is_horizontal() {
                return Err(group_not_dictionary(group));
            }
            Ok(())
        })
    }

    /// Evaluates `expr` against one block, consulting footer zone maps
    /// before touching any bytes. Returns
    /// `(partial, pruned, skipped_io, load_cost, rows_matched)`.
    fn aggregate_block_inner(
        &self,
        block: usize,
        expr: &AggExpr,
    ) -> Result<(PartialAgg, bool, bool, LoadCost, usize)> {
        let meta = self.block_meta(block)?;
        self.validate_expr_footer(meta, expr)?;
        let rows = meta.rows as usize;
        let string_target = expr.column().is_some_and(|c| match self.col_index(c) {
            Ok(idx) => meta.columns[idx].header.is_string(),
            Err(_) => false,
        });
        let grouped = expr.group_by().is_some();
        // A block the footer alone answers: pruned, zero payload bytes.
        let footer_only =
            |partial, matched| Ok((partial, true, true, LoadCost::default(), matched));
        if rows == 0 && !grouped {
            return footer_only(PartialAgg::empty(string_target, false), 0);
        }
        // Footer verdict of the filter; no filter covers every row.
        let verdict = match expr.filter() {
            None => RangeVerdict::All,
            Some(pred) => tree_verdict(pred, &|name| self.zone_of(block, name)),
        };
        if matches!(verdict, RangeVerdict::None) {
            if !grouped {
                // Provably empty selection: nothing to fold, zero bytes.
                return footer_only(PartialAgg::empty(string_target, false), 0);
            }
            // The group column's dictionary layout is payload-level (the
            // footer tag cannot distinguish Dict from other vertical int
            // codecs), so load that one codec: a non-dictionary GROUP BY
            // errors here exactly as the in-memory engine does.
            let handle = self.block_handle(block)?;
            let group = expr.group_by().expect("grouped");
            let gidx = handle.index_of(group)?;
            crate::aggregate::validate_group_codec(handle.view_codec(gidx)?, group)?;
            return Ok((
                PartialAgg::empty(string_target, true),
                true,
                false,
                handle.load_cost(),
                0,
            ));
        }
        if !grouped && matches!(verdict, RangeVerdict::All) {
            // COUNT over a fully-covered block is the footer row count —
            // typed to the target column's kind so partials merge with
            // kernel-path partials from other blocks.
            if expr.func() == AggFunc::Count {
                let partial = if string_target {
                    PartialAgg::Str(StrAggState {
                        count: rows as u64,
                        ..StrAggState::default()
                    })
                } else {
                    PartialAgg::Int(IntAggState {
                        count: rows as u64,
                        ..IntAggState::default()
                    })
                };
                return footer_only(partial, rows);
            }
            // MIN / MAX: the in-memory engine's whole-block rule, on the
            // footer.
            let zone = expr.column().and_then(|c| self.zone_of(block, c));
            if let Some(state) = zone_answer(expr.func(), rows, zone) {
                return footer_only(PartialAgg::Int(state), rows);
            }
        }
        // Kernel path: lazy handle, loading only the payloads the filter
        // and fold actually touch.
        let handle = self.block_handle(block)?;
        let (partial, pruned, matched) = aggregate_partial(&handle, expr)?;
        Ok((partial, pruned, false, handle.load_cost(), matched))
    }

    /// Evaluates an aggregate expression across every block, answering
    /// whatever it can from the footer alone: blocks whose filter verdict
    /// is provably empty contribute nothing, and fully-covered
    /// `COUNT`/`MIN`/`MAX` blocks (exact footer zones) are answered with
    /// **zero payload bytes read** — reported via
    /// [`ScanStats::blocks_skipped_io`] / [`ScanStats::bytes_read`].
    /// Results are identical to [`crate::aggregate::aggregate_blocks`] over
    /// the same blocks in memory.
    ///
    /// # Errors
    ///
    /// As [`crate::aggregate::aggregate`], plus I/O and corruption errors
    /// from lazy payload loads.
    pub fn aggregate(&self, expr: &AggExpr) -> Result<(AggResult, ScanStats)> {
        aggregate_table(&[self], expr)
    }

    /// Filter → materialize against one block, loading only the predicate
    /// and projection columns (plus their reference chains).
    ///
    /// # Errors
    ///
    /// As [`crate::scan::scan_query`].
    pub fn scan_query(&self, block: usize, pred: &Predicate, project: &str) -> Result<QueryOutput> {
        crate::scan::scan_query(&self.block_handle(block)?, pred, project)
    }

    /// Filter → materialize for a diff-encoded target *and* its reference
    /// column against one block.
    ///
    /// # Errors
    ///
    /// As [`crate::scan::scan_query_both`].
    pub fn scan_query_both(
        &self,
        block: usize,
        pred: &Predicate,
        target: &str,
    ) -> Result<(QueryOutput, QueryOutput)> {
        crate::scan::scan_query_both(&self.block_handle(block)?, pred, target)
    }

    /// Mirrors the in-memory TOP-K validation with footer metadata alone
    /// (names + string-ness), so pruned blocks report the same errors as
    /// evaluated ones.
    fn validate_topk_footer(&self, meta: &BlockMeta, expr: &TopKExpr) -> Result<()> {
        let idx = self.col_index(expr.column())?;
        if meta.columns[idx].header.is_string() {
            return Err(Error::TypeMismatch {
                expected: "integer column for TOP-K",
                found: "string column",
            });
        }
        if let Some(pred) = expr.filter() {
            self.validate_pred_footer(meta, pred)?;
        }
        Ok(())
    }

    /// Evaluates TOP-K against one block, consulting the footer before
    /// touching any bytes: a block whose `skip` verdict (its value zone
    /// against the current k-th bound, [`zone_skips_topk`]) is set or whose
    /// filter verdict is provably empty contributes nothing and reads
    /// **zero payload bytes**. Candidates are offered into `heap` with
    /// positions based at `global_no << 32`. Returns `(pruned, skipped_io,
    /// cost, matched)`.
    pub(crate) fn top_k_block_inner(
        &self,
        block: usize,
        global_no: u32,
        expr: &TopKExpr,
        skip: bool,
        heap: &mut TopKHeap,
        scratch: &mut DecodeScratch,
    ) -> Result<(bool, bool, LoadCost, usize)> {
        let meta = self.block_meta(block)?;
        self.validate_topk_footer(meta, expr)?;
        if meta.rows == 0 || expr.k() == 0 || skip {
            return Ok((true, true, LoadCost::default(), 0));
        }
        if let Some(pred) = expr.filter() {
            let verdict = tree_verdict(pred, &|name| self.zone_of(block, name));
            if matches!(verdict, RangeVerdict::None) {
                return Ok((true, true, LoadCost::default(), 0));
            }
        }
        let handle = self.block_handle(block)?;
        let (pruned, matched) = top_k_block(&handle, global_no, expr, heap, scratch)?;
        Ok((pruned, false, handle.load_cost(), matched))
    }

    /// TOP-K across every block, never touching the bytes of blocks the
    /// footer zone maps prove cannot beat the running k-th bound
    /// ([`ScanStats::blocks_skipped_io`] / [`ScanStats::bytes_read`]).
    /// Result rows are identical to [`crate::operator::top_k_blocks`] over
    /// the same blocks in memory.
    ///
    /// # Errors
    ///
    /// Unknown or non-integer target column, invalid filter, I/O errors,
    /// or corruption.
    pub fn top_k(&self, expr: &TopKExpr) -> Result<(Vec<TopKRow>, ScanStats)> {
        top_k_table(&[self], expr)
    }

    /// Materializes `columns` for an arbitrary row-id list (TOP-K winners,
    /// join sides) through lazy per-block handles: each touched block
    /// opens one handle and loads only the named columns (plus reference
    /// chains). Outputs align with `ids`.
    ///
    /// # Errors
    ///
    /// Unknown columns, out-of-range row ids, I/O errors, or corruption.
    pub fn gather_rows(&self, ids: &[RowId], columns: &[&str]) -> Result<Vec<QueryOutput>> {
        gather_table(&[self], ids, columns)
    }

    /// Dict-code hash join: builds over this table's `build_key` column,
    /// probes `probe`'s `probe_key` column, loading only the two key
    /// columns (one lazy handle per block). Pairs are identical to
    /// [`crate::operator::hash_join_blocks`] over the same blocks in
    /// memory; [`JoinStats::io`] accounts bytes/cache traffic across both
    /// sides.
    ///
    /// # Errors
    ///
    /// Unknown key columns, non-dictionary key codecs, mismatched key
    /// types, I/O errors, or corruption.
    pub fn hash_join(
        &self,
        probe: &TableReader,
        expr: &JoinExpr,
    ) -> Result<(Vec<JoinPair>, JoinStats)> {
        hash_join_tables(&[self], &[probe], expr)
    }
}

/// One block of a (possibly multi-segment) table: its segment reader and
/// its index within that segment.
#[derive(Clone, Copy)]
struct BlockRef<'a> {
    reader: &'a TableReader,
    local: usize,
}

impl<'a> BlockRef<'a> {
    fn rows(&self) -> usize {
        self.reader.footer.blocks[self.local].rows as usize
    }

    fn handle(&self) -> Result<BlockHandle<'a>> {
        self.reader.block_handle(self.local)
    }
}

/// The one block list every whole-table store operator runs over: the
/// blocks of `readers` in table order, so a block's position in the list is
/// its global index — the number that enters every `(value, block, row)`
/// tie-break and [`RowId`]. A single file is the one-segment case —
/// [`TableReader`]'s operators pass `&[self]`, [`SegmentedTable`]'s pass
/// its segment readers, and both run the same bodies below.
fn block_list<'a>(readers: &[&'a TableReader]) -> Vec<BlockRef<'a>> {
    let blocks_of = |reader: &'a TableReader| {
        (0..reader.n_blocks()).map(move |local| BlockRef { reader, local })
    };
    readers.iter().copied().flat_map(blocks_of).collect()
}

/// Maps a global block index to `(segment reader, local block index)`.
pub(crate) fn locate<'a>(
    readers: &[&'a TableReader],
    block: usize,
) -> Result<(&'a TableReader, usize)> {
    let mut remaining = block;
    for &reader in readers {
        if remaining < reader.n_blocks() {
            return Ok((reader, remaining));
        }
        remaining -= reader.n_blocks();
    }
    Err(Error::IndexOutOfBounds {
        index: block,
        len: readers.iter().map(|r| r.n_blocks()).sum(),
    })
}

/// Counters for an operator about to visit every block of `segments`
/// segment files.
fn stats_over(segments: usize) -> ScanStats {
    ScanStats {
        segments_opened: segments,
        ..ScanStats::default()
    }
}

/// Whole-table predicate scan (the body behind every store `scan_blocks`).
pub(crate) fn scan_table(
    readers: &[&TableReader],
    pred: &Predicate,
) -> Result<(Vec<SelectionVector>, ScanStats)> {
    let blocks = block_list(readers);
    let mut stats = stats_over(readers.len());
    let mut selections = Vec::with_capacity(blocks.len());
    for b in blocks {
        let (sel, pruned, skipped, cost) = b.reader.scan_block_inner(b.local, pred)?;
        stats.record_block(b.rows(), sel.len(), pruned, Some((skipped, cost)));
        selections.push(sel);
    }
    Ok((selections, stats))
}

/// Whole-table aggregate (the body behind every store `aggregate`):
/// per-block partials merge through one [`AggMerger`] in table order, so
/// `AVG` and friends stay exact across block and segment boundaries.
pub(crate) fn aggregate_table(
    readers: &[&TableReader],
    expr: &AggExpr,
) -> Result<(AggResult, ScanStats)> {
    let mut merger = AggMerger::new();
    let mut stats = stats_over(readers.len());
    for b in block_list(readers) {
        let (partial, pruned, skipped, cost, matched) =
            b.reader.aggregate_block_inner(b.local, expr)?;
        stats.record_block(b.rows(), matched, pruned, Some((skipped, cost)));
        merger.merge(partial)?;
    }
    Ok((merger.finish(expr), stats))
}

/// Whole-table TOP-K (the body behind every store `top_k`): blocks are
/// visited best-footer-zone-first ([`topk_visit_order`]) — so file reads
/// follow zone order, not file order — and each is pruned against, then
/// fills, one heap.
pub(crate) fn top_k_table(
    readers: &[&TableReader],
    expr: &TopKExpr,
) -> Result<(Vec<TopKRow>, ScanStats)> {
    let blocks = block_list(readers);
    let mut heap = TopKHeap::new(expr.k(), expr.descending());
    let mut scratch = DecodeScratch::default();
    // An unknown column sorts un-zoned; the first visit reports it.
    let order = topk_visit_order(blocks.len(), expr.descending(), |g| {
        blocks[g].reader.zone_of(blocks[g].local, expr.column())
    });
    let mut stats = stats_over(readers.len());
    for (g, best) in order {
        let b = blocks[g];
        let skip = zone_skips_topk(best, g as u32, heap.worst());
        let (pruned, skipped, cost, matched) =
            b.reader
                .top_k_block_inner(b.local, g as u32, expr, skip, &mut heap, &mut scratch)?;
        stats.record_block(b.rows(), matched, pruned, Some((skipped, cost)));
    }
    Ok((rows_from(heap), stats))
}

/// Whole-table late materialization (the body behind every store
/// `gather_rows`): one lazy handle per touched global block.
fn gather_table(
    readers: &[&TableReader],
    ids: &[RowId],
    columns: &[&str],
) -> Result<Vec<QueryOutput>> {
    crate::operator::gather_rows_with(ids, columns, |block, sel, cols| {
        let (reader, local) = locate(readers, block as usize)?;
        let handle = reader.block_handle(local)?;
        cols.iter()
            .map(|c| crate::query::query_column(&handle, c, sel))
            .collect()
    })
}

/// Whole-table dict-code hash join (the body behind every store
/// `hash_join`): a build over `build`'s blocks (key ids are assigned in
/// first-occurrence order), then a probe of each block of `probe`, pair
/// lists concatenating in global block order. `stats.io` accounts both
/// sides' traffic and segments.
fn hash_join_tables(
    build: &[&TableReader],
    probe: &[&TableReader],
    expr: &JoinExpr,
) -> Result<(Vec<JoinPair>, JoinStats)> {
    let mut io = stats_over(build.len() + probe.len());
    let mut table = BuildTable::new();
    for (i, b) in block_list(build).into_iter().enumerate() {
        let handle = b.handle()?;
        table.add_block(&handle, i as u32, expr.build_key())?;
        io.record_block(b.rows(), 0, false, Some((false, handle.load_cost())));
    }
    let mut pairs = Vec::new();
    let mut probe_rows = 0;
    for (i, b) in block_list(probe).into_iter().enumerate() {
        let handle = b.handle()?;
        let (mut block_pairs, rows) = table.probe_block(&handle, i as u32, expr.probe_key())?;
        probe_rows += rows;
        io.record_block(b.rows(), 0, false, Some((false, handle.load_cost())));
        pairs.append(&mut block_pairs);
    }
    let stats = JoinStats {
        build_rows: table.build_rows(),
        probe_rows,
        distinct_keys: table.distinct(),
        pairs: pairs.len(),
        io,
    };
    Ok((pairs, stats))
}

/// A lazy view over one block of a [`TableReader`]: every column's codec is
/// fetched (one footer-addressed payload read) the first time something
/// touches it, and cached for the handle's lifetime.
///
/// Implements [`BlockView`], so the full query/scan surface —
/// [`crate::query::query_column`], [`crate::scan::scan`],
/// [`crate::compressor::decompress_column`] — runs against it unchanged,
/// deserializing only the columns it actually touches.
pub struct BlockHandle<'a> {
    reader: &'a TableReader,
    block: usize,
    rows: usize,
    cells: Vec<OnceCell<Arc<ColumnCodec>>>,
    /// What this handle's loads have cost so far (per-handle, so per-scan
    /// byte and cache accounting stays exact even when scans share the
    /// reader).
    cost: Cell<LoadCost>,
}

impl BlockHandle<'_> {
    /// How many columns this handle has materialized so far.
    pub fn loaded_columns(&self) -> usize {
        self.cells.iter().filter(|c| c.get().is_some()).count()
    }

    /// Payload bytes this handle has fetched so far.
    pub fn loaded_bytes(&self) -> u64 {
        self.cost.get().bytes
    }

    /// Column loads the attached cache answered for this handle (0 when
    /// the reader has no cache).
    pub fn cache_hits(&self) -> u64 {
        self.cost.get().cache_hits
    }

    /// Column loads that missed the attached cache (0 without a cache).
    pub fn cache_misses(&self) -> u64 {
        self.cost.get().cache_misses
    }

    /// This handle's cost counters, snapshot.
    fn load_cost(&self) -> LoadCost {
        self.cost.get()
    }

    /// Fully decompresses column `name`, loading only its payload and its
    /// reference chain's payloads.
    ///
    /// # Errors
    ///
    /// Unknown column, I/O errors, or corruption.
    pub fn decompress(&self, name: &str) -> Result<Column> {
        let idx = self.index_of(name)?;
        decompress_column(self, idx)
    }
}

impl BlockView for BlockHandle<'_> {
    fn rows(&self) -> usize {
        self.rows
    }

    fn names(&self) -> &[String] {
        &self.reader.names
    }

    fn view_codec(&self, i: usize) -> Result<&ColumnCodec> {
        let cell = self.cells.get(i).ok_or(Error::IndexOutOfBounds {
            index: i,
            len: self.cells.len(),
        })?;
        if cell.get().is_none() {
            let (codec, from_cache) = self.reader.load_codec(self.block, i)?;
            let mut cost = self.cost.get();
            if from_cache {
                cost.cache_hits += 1;
            } else {
                let span = self.reader.footer.blocks[self.block].columns[i].span;
                cost.bytes += u64::from(span.len);
                cost.cache_misses += u64::from(self.reader.cache.is_some());
            }
            self.cost.set(cost);
            // A concurrent set is impossible (&self is single-threaded via
            // !Sync OnceCell), so the only race is with ourselves above.
            let _ = cell.set(codec);
        }
        Ok(cell.get().expect("cell populated above").as_ref())
    }

    fn zone(&self, i: usize) -> Option<ZoneMap> {
        self.reader.footer.zone(self.block, i)
    }
}

/// A read view over a multi-segment table: one [`TableReader`] per live
/// segment of a [`Manifest`](crate::manifest::Manifest), presented as a
/// single table whose block indices run through the segments in manifest
/// order.
///
/// Every whole-table operator is the body [`TableReader`] runs (a single
/// file is the one-segment case) over all segments' blocks — selections,
/// TOP-K rows and join pairs are byte-identical to a single file holding
/// the same blocks, and aggregate partials merge through one `AggMerger`,
/// so `AVG` and friends stay exact across segment boundaries.
///
/// When opened with a cache, each segment reader takes its own
/// process-unique table id ([`TableReader::with_cache`]), so compaction
/// turnover means *new* ids — a stale cache hit against a retired segment
/// is impossible by construction.
pub struct SegmentedTable {
    readers: Vec<Arc<TableReader>>,
}

impl SegmentedTable {
    /// Opens every live segment of `manifest` through `vfs`.
    ///
    /// # Errors
    ///
    /// Missing or corrupt segment files (torn tails fail the footer
    /// checksum validation in [`TableReader::from_backend`]).
    pub fn open(vfs: &dyn crate::vfs::Vfs, manifest: &crate::manifest::Manifest) -> Result<Self> {
        Self::open_impl(vfs, manifest, None)
    }

    /// As [`open`](Self::open), attaching `cache` to every segment reader
    /// (each under its own process-unique table id).
    ///
    /// # Errors
    ///
    /// As [`open`](Self::open).
    pub fn open_cached(
        vfs: &dyn crate::vfs::Vfs,
        manifest: &crate::manifest::Manifest,
        cache: Arc<ShardedCache>,
    ) -> Result<Self> {
        Self::open_impl(vfs, manifest, Some(cache))
    }

    fn open_impl(
        vfs: &dyn crate::vfs::Vfs,
        manifest: &crate::manifest::Manifest,
        cache: Option<Arc<ShardedCache>>,
    ) -> Result<Self> {
        let mut readers = Vec::with_capacity(manifest.segments.len());
        for seg in &manifest.segments {
            let backend = vfs.open(&seg.name)?;
            if backend.len()? != seg.file_len {
                return Err(Error::corrupt(format!(
                    "segment {} length differs from manifest (torn tail?)",
                    seg.name
                )));
            }
            let mut reader = TableReader::from_backend(backend)?;
            if reader.rows_total() as u64 != seg.rows {
                return Err(Error::corrupt(format!(
                    "segment {} row count differs from manifest",
                    seg.name
                )));
            }
            if let Some(cache) = &cache {
                reader = reader.with_cache(Arc::clone(cache));
            }
            readers.push(Arc::new(reader));
        }
        Ok(Self { readers })
    }

    /// Wraps already-open segment readers, in table order.
    #[must_use]
    pub fn from_readers(readers: Vec<Arc<TableReader>>) -> Self {
        Self { readers }
    }

    /// The per-segment readers, in table order.
    #[must_use]
    pub fn segments(&self) -> &[Arc<TableReader>] {
        &self.readers
    }

    /// Live segment count.
    #[must_use]
    pub fn n_segments(&self) -> usize {
        self.readers.len()
    }

    /// Total blocks across all segments.
    #[must_use]
    pub fn n_blocks(&self) -> usize {
        self.readers.iter().map(|r| r.n_blocks()).sum()
    }

    /// Total rows across all segments.
    #[must_use]
    pub fn rows_total(&self) -> usize {
        self.readers.iter().map(|r| r.rows_total()).sum()
    }

    /// The segment readers as the plain reference list the shared
    /// whole-table bodies ([`scan_table`] and friends) run over.
    pub(crate) fn refs(&self) -> Vec<&TableReader> {
        self.readers.iter().map(Arc::as_ref).collect()
    }

    /// A lazy handle on the global `block` index.
    ///
    /// # Errors
    ///
    /// Unknown block; I/O errors reading the segment.
    pub fn block_handle(&self, block: usize) -> Result<BlockHandle<'_>> {
        let (reader, local) = locate(&self.refs(), block)?;
        reader.block_handle(local)
    }

    /// Decompresses one column of the global `block` index.
    ///
    /// # Errors
    ///
    /// As [`TableReader::read_column`].
    pub fn read_column(&self, block: usize, column: &str) -> Result<Column> {
        self.block_handle(block)?.decompress(column)
    }

    /// Loads and verifies the global `block` index in full.
    ///
    /// # Errors
    ///
    /// As [`TableReader::read_block`].
    pub fn read_block(&self, block: usize) -> Result<CompressedBlock> {
        let (reader, local) = locate(&self.refs(), block)?;
        reader.read_block(local)
    }

    /// Scans every block of every segment; selections are the
    /// concatenation of the per-segment scans, in manifest order.
    ///
    /// # Errors
    ///
    /// As [`TableReader::scan_blocks`].
    pub fn scan_blocks(&self, pred: &Predicate) -> Result<(Vec<SelectionVector>, ScanStats)> {
        scan_table(&self.refs(), pred)
    }

    /// Evaluates an aggregate across every segment, merging per-block
    /// partials through the same `AggMerger` as the single-file path —
    /// results are identical to aggregating one file holding all blocks.
    ///
    /// # Errors
    ///
    /// As [`TableReader::aggregate`].
    pub fn aggregate(&self, expr: &AggExpr) -> Result<(AggResult, ScanStats)> {
        aggregate_table(&self.refs(), expr)
    }

    /// TOP-K across every segment's blocks, sharing one running k-th
    /// bound — block numbering (and so the `(value, block, row)`
    /// tie-break) runs through the segments in manifest order, identical
    /// to a single file holding the same blocks.
    ///
    /// # Errors
    ///
    /// As [`TableReader::top_k`].
    pub fn top_k(&self, expr: &TopKExpr) -> Result<(Vec<TopKRow>, ScanStats)> {
        top_k_table(&self.refs(), expr)
    }

    /// Materializes `columns` for row ids addressed by *global* block
    /// index, one lazy handle per touched block.
    ///
    /// # Errors
    ///
    /// As [`TableReader::gather_rows`].
    pub fn gather_rows(&self, ids: &[RowId], columns: &[&str]) -> Result<Vec<QueryOutput>> {
        gather_table(&self.refs(), ids, columns)
    }

    /// Dict-code hash join building over this table, probing `probe` —
    /// block numbering on each side is global (manifest order), so pairs
    /// are identical to single-file tables holding the same blocks.
    ///
    /// # Errors
    ///
    /// As [`TableReader::hash_join`].
    pub fn hash_join(
        &self,
        probe: &SegmentedTable,
        expr: &JoinExpr,
    ) -> Result<(Vec<JoinPair>, JoinStats)> {
        hash_join_tables(&self.refs(), &probe.refs(), expr)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compressor::{ColumnPlan, CompressionConfig};
    use corra_columnar::block::DataBlock;
    use corra_columnar::strings::StringPool;

    fn wide_block(n: usize, salt: i64) -> (DataBlock, CompressionConfig) {
        let city = StringPool::from_iter((0..n).map(|i| ["NYC", "Albany", "Naples"][i % 3]));
        let zip: Vec<i64> = (0..n)
            .map(|i| 10_000 + (i % 3) as i64 * 50 + (i / 3 % 4) as i64)
            .collect();
        let ship: Vec<i64> = (0..n).map(|i| salt + 8_035 + (i as i64 % 2_000)).collect();
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

    fn table_bytes(blocks: &[CompressedBlock]) -> Vec<u8> {
        let mut writer = TableWriter::new(Vec::new()).unwrap();
        for b in blocks {
            writer.write_block(b).unwrap();
        }
        writer.finish().unwrap()
    }

    fn three_block_table() -> (Vec<DataBlock>, Vec<CompressedBlock>, Vec<u8>) {
        // Distinct value domains per block so zone maps differ.
        let mut raws = Vec::new();
        let mut blocks = Vec::new();
        for salt in [0, 100_000, 200_000] {
            let (raw, cfg) = wide_block(2_000, salt);
            blocks.push(CompressedBlock::compress(&raw, &cfg).unwrap());
            raws.push(raw);
        }
        let bytes = table_bytes(&blocks);
        (raws, blocks, bytes)
    }

    #[test]
    fn full_roundtrip_through_reader() {
        let (raws, blocks, bytes) = three_block_table();
        let reader = TableReader::from_bytes(bytes).unwrap();
        assert_eq!(reader.n_blocks(), 3);
        assert_eq!(reader.rows_total(), 6_000);
        assert_eq!(reader.schema().len(), 7);
        for (i, (raw, block)) in raws.iter().zip(&blocks).enumerate() {
            let back = reader.read_block(i).unwrap();
            assert_eq!(&back, block, "block {i}");
            for name in ["city", "zip", "l_receiptdate", "total"] {
                assert_eq!(
                    &reader.read_column(i, name).unwrap(),
                    raw.column(name).unwrap(),
                    "block {i} column {name}"
                );
            }
        }
    }

    #[test]
    fn projected_read_touches_only_the_reference_closure() {
        let (raws, _blocks, bytes) = three_block_table();
        let reader = TableReader::from_bytes(bytes).unwrap();
        // A vertical column loads exactly one payload.
        let handle = reader.block_handle(0).unwrap();
        let fee = handle.decompress("fee").unwrap();
        assert_eq!(&fee, raws[0].column("fee").unwrap());
        assert_eq!(handle.loaded_columns(), 1);
        // A NonHier column loads itself + its reference.
        let handle = reader.block_handle(0).unwrap();
        handle.decompress("l_receiptdate").unwrap();
        assert_eq!(handle.loaded_columns(), 2);
        // MultiRef loads itself + every group member (fee, extra).
        let handle = reader.block_handle(0).unwrap();
        handle.decompress("total").unwrap();
        assert_eq!(handle.loaded_columns(), 3);
        // The footer already knows the closure without any I/O.
        let total_idx = reader.schema().index_of("total").unwrap();
        let closure = reader.footer().reference_closure(0, total_idx).unwrap();
        assert_eq!(closure, vec![total_idx, 4, 5]);
    }

    #[test]
    fn projected_read_reads_under_half_the_file() {
        // Acceptance: single-column projection on a wide block reads
        // < 50% of the file's bytes.
        let (raw, cfg) = wide_block(20_000, 0);
        let block = CompressedBlock::compress(&raw, &cfg).unwrap();
        let bytes = table_bytes(std::slice::from_ref(&block));
        let reader = TableReader::from_bytes(bytes).unwrap();
        // "total" pulls its whole multiref closure (total + fee + extra) yet
        // still skips the expensive date and string payloads.
        let col = reader.read_column(0, "total").unwrap();
        assert_eq!(&col, raw.column("total").unwrap());
        let read = reader.bytes_read();
        assert!(read > 0);
        assert!(
            read * 2 < reader.file_bytes(),
            "projected read fetched {read} of {} bytes",
            reader.file_bytes()
        );
        // A full block read fetches the whole segment.
        let reader2 = TableReader::from_bytes(table_bytes(std::slice::from_ref(&block))).unwrap();
        reader2.read_block(0).unwrap();
        assert!(reader2.bytes_read() > read);
    }

    #[test]
    fn footer_pruning_reads_zero_bytes_and_matches_in_memory() {
        let (_raws, blocks, bytes) = three_block_table();
        let reader = TableReader::from_bytes(bytes).unwrap();
        // Block domains: [8035, ~10k], [108035, ~110k], [208035, ~210k].
        for pred in [
            Predicate::between("l_shipdate", 108_000, 111_000), // middle only
            Predicate::lt("l_shipdate", 0),                     // nothing
            Predicate::ge("l_shipdate", -5),                    // everything
            Predicate::and(vec![
                Predicate::ge("l_shipdate", 100_000),
                Predicate::between("l_receiptdate", 108_100, 108_200),
            ]),
            Predicate::or(vec![
                Predicate::lt("l_shipdate", 9_000),
                Predicate::gt("l_shipdate", 209_000),
            ]),
            Predicate::not(Predicate::between("l_shipdate", 100_000, 120_000)),
            Predicate::str_eq("city", "Naples"),
        ] {
            let (want_sels, want_stats) = crate::scan::scan_blocks(&blocks, &pred).unwrap();
            let (sels, stats) = reader.scan_blocks(&pred).unwrap();
            assert_eq!(sels, want_sels, "{pred:?}");
            assert_eq!(stats.blocks, want_stats.blocks);
            assert_eq!(stats.rows_total, want_stats.rows_total);
            assert_eq!(stats.rows_matched, want_stats.rows_matched);
        }
        // A range straddling only the middle block's domain skips the two
        // off-domain blocks' bytes entirely: only the middle block is
        // touched by a kernel.
        let before = reader.bytes_read();
        let (_, stats) = reader
            .scan_blocks(&Predicate::between("l_shipdate", 108_000, 109_000))
            .unwrap();
        assert_eq!(stats.blocks_skipped_io, 2);
        assert_eq!(stats.blocks_pruned, 2);
        assert_eq!(stats.bytes_read, reader.bytes_read() - before);
        // A fully-pruned scan reads zero bytes.
        let (sels, stats) = reader.scan_blocks(&Predicate::lt("l_shipdate", 0)).unwrap();
        assert_eq!(stats.blocks_skipped_io, 3);
        assert_eq!(stats.bytes_read, 0);
        assert!(sels.iter().all(SelectionVector::is_empty));
        // A covering scan also answers purely from the footer.
        let (sels, stats) = reader
            .scan_blocks(&Predicate::ge("l_shipdate", -5))
            .unwrap();
        assert_eq!(stats.bytes_read, 0);
        assert_eq!(stats.blocks_skipped_io, 3);
        assert!(sels.iter().all(|s| s.len() == 2_000));
    }

    #[test]
    fn store_scan_validates_like_in_memory() {
        let (_raws, _blocks, bytes) = three_block_table();
        let reader = TableReader::from_bytes(bytes).unwrap();
        // Unknown column: errors even though the scan would prune.
        assert!(reader
            .scan_blocks(&Predicate::and(vec![
                Predicate::lt("l_shipdate", 0),
                Predicate::eq("typo", 1),
            ]))
            .is_err());
        // Type mismatches caught from footer tags alone.
        assert!(reader.scan_blocks(&Predicate::eq("city", 1)).is_err());
        assert!(reader.scan_blocks(&Predicate::str_eq("zip", "x")).is_err());
    }

    #[test]
    fn scan_query_entry_points_match_block_paths() {
        let (_raws, blocks, bytes) = three_block_table();
        let reader = TableReader::from_bytes(bytes).unwrap();
        let pred = Predicate::between("l_receiptdate", 8_100, 8_300);
        let want = crate::scan::scan_query(&blocks[0], &pred, "l_receiptdate").unwrap();
        let got = reader.scan_query(0, &pred, "l_receiptdate").unwrap();
        assert_eq!(got, want);
        let want = crate::scan::scan_query_both(&blocks[0], &pred, "l_receiptdate").unwrap();
        let got = reader.scan_query_both(0, &pred, "l_receiptdate").unwrap();
        assert_eq!(got, want);
    }

    #[test]
    fn writer_enforces_schema_consistency() {
        let (raw, cfg) = wide_block(100, 0);
        let block = CompressedBlock::compress(&raw, &cfg).unwrap();
        let other = DataBlock::new(
            Schema::new(vec![Field::new("different", DataType::Int64)]).unwrap(),
            vec![Column::Int64(vec![1, 2])],
        )
        .unwrap();
        let other = CompressedBlock::compress(&other, &CompressionConfig::baseline()).unwrap();
        let mut writer = TableWriter::new(Vec::new()).unwrap();
        writer.write_block(&block).unwrap();
        assert!(writer.write_block(&other).is_err());
        // A declared schema must also agree on column *kinds*: an explicit
        // Int64 declaration rejects a string codec of the same name.
        let mut wrong = Schema::default();
        for f in raw.schema().fields() {
            let dt = if f.name() == "city" {
                DataType::Int64
            } else {
                f.data_type()
            };
            wrong = Schema::new(
                wrong
                    .fields()
                    .iter()
                    .cloned()
                    .chain([Field::new(f.name(), dt)])
                    .collect(),
            )
            .unwrap();
        }
        let mut writer = TableWriter::with_schema(Vec::new(), wrong).unwrap();
        let err = writer.write_block(&block).unwrap_err();
        assert!(err.to_string().contains("string codec"), "{err}");
        // An explicit schema preserves declared types.
        let mut writer = TableWriter::with_schema(Vec::new(), raw.schema().clone()).unwrap();
        writer.write_block(&block).unwrap();
        let bytes = writer.finish().unwrap();
        let reader = TableReader::from_bytes(bytes).unwrap();
        assert_eq!(
            reader.schema().field("l_shipdate").unwrap().data_type(),
            DataType::Date
        );
    }

    #[test]
    fn empty_table_roundtrips() {
        let bytes = table_bytes(&[]);
        let reader = TableReader::from_bytes(bytes).unwrap();
        assert_eq!(reader.n_blocks(), 0);
        assert_eq!(reader.rows_total(), 0);
        let (sels, stats) = reader.scan_blocks(&Predicate::eq("x", 1)).unwrap();
        assert!(sels.is_empty());
        assert_eq!(stats.blocks, 0);
        assert!(reader.read_block(0).is_err());
    }

    /// A per-test unique scratch directory (process id + counter), so
    /// concurrent test processes — or concurrent tests in one process —
    /// never collide on a fixed path. Callers remove it when done.
    fn unique_temp_dir(tag: &str) -> std::path::PathBuf {
        static COUNTER: std::sync::atomic::AtomicU32 = std::sync::atomic::AtomicU32::new(0);
        let dir = std::env::temp_dir().join(format!(
            "corra_{tag}_{}_{}",
            std::process::id(),
            COUNTER.fetch_add(1, Ordering::Relaxed)
        ));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn file_backed_reader_matches_memory_reader() {
        let (raws, blocks, bytes) = three_block_table();
        let dir = unique_temp_dir("store_unit");
        let path = dir.join("t.corra");
        let written = write_table(&path, &blocks).unwrap();
        assert_eq!(written, bytes.len() as u64);
        assert_eq!(std::fs::read(&path).unwrap(), bytes);
        let reader = TableReader::open(&path).unwrap();
        assert_eq!(reader.file_bytes(), written);
        for (i, raw) in raws.iter().enumerate() {
            assert_eq!(
                &reader.read_column(i, "total").unwrap(),
                raw.column("total").unwrap()
            );
        }
        let pred = Predicate::between("l_shipdate", 108_000, 111_000);
        let (sels, stats) = reader.scan_blocks(&pred).unwrap();
        let mem_reader = TableReader::from_bytes(bytes).unwrap();
        let (mem_sels, mem_stats) = mem_reader.scan_blocks(&pred).unwrap();
        assert_eq!(sels, mem_sels);
        assert_eq!(stats, mem_stats);
        std::fs::remove_dir_all(&dir).ok();
    }
}
