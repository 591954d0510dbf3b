//! The self-contained on-disk block format.
//!
//! Per the paper's setup, "each data block is completely self-contained: all
//! information required to decompress it is contained within the block
//! itself" — dictionaries, hierarchical metadata arrays, outlier regions and
//! the cross-column wiring all serialize into one buffer.
//!
//! Layout (little-endian):
//!
//! ```text
//! magic   "CORA"          4 bytes
//! version u16             2
//! rows    u32
//! n_cols  u16
//! per column:
//!   name_len u16 | name bytes (UTF-8)
//!   codec header: codec_tag u8 | wiring (reference index / groups)
//!   payload_len u32 | codec payload
//! ```
//!
//! Every codec payload is length-prefixed (see [`corra_columnar::frame`]),
//! which makes each payload independently addressable: the table footer
//! built by [`crate::store`] records the `(offset, len)` of every
//! `(block, column)` payload plus the [`CodecHeader`] wiring, so a reader
//! can fetch exactly one column — and walk its reference chain — without
//! touching any other payload bytes. In a table file that footer is the one
//! index: every read, whole-block or lazy, parses each column from the
//! footer's header and span, and only a bare [`CompressedBlock::from_bytes`]
//! reads the envelope's names, headers and frame lengths. There is one
//! block version ([`VERSION`]); `from_bytes` rejects any other version word
//! as [`Error::Corrupt`].

use bytes::{Buf, BufMut};
use corra_columnar::error::{Error, Result};
use corra_columnar::frame::{take_frame, write_frame};
use corra_columnar::strings::StringPool;
use corra_encodings::{DictStr, IntEncoding};

use crate::compressor::{codec_kind, BlockView, ColumnCodec, CompressedBlock};
use crate::hier::{HierInt, HierStr};
use crate::multiref::MultiRefInt;
use crate::nonhier::NonHierInt;
use crate::query::CodeAccess;

/// File magic identifying a Corra block.
pub const MAGIC: [u8; 4] = *b"CORA";
/// The block format version (framed payloads).
pub const VERSION: u16 = 2;

pub(crate) const TAG_INT: u8 = 0;
pub(crate) const TAG_STR: u8 = 1;
pub(crate) const TAG_PLAIN_STR: u8 = 2;
pub(crate) const TAG_NONHIER: u8 = 3;
pub(crate) const TAG_HIER_INT: u8 = 4;
pub(crate) const TAG_HIER_STR: u8 = 5;
pub(crate) const TAG_MULTIREF: u8 = 6;

/// Cross-column wiring of a codec, as recorded in the per-column header of
/// a serialized block — and replicated into the table footer, where it lets
/// [`crate::store::TableReader`] resolve a column's transitive reference
/// set without reading any payload bytes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CodecWiring {
    /// Vertical codec: no reference columns.
    None,
    /// Single reference column (NonHier / Hier).
    Reference(u32),
    /// Multi-reference groups (each inner vec lists one group's columns).
    Groups(Vec<Vec<u32>>),
}

impl CodecWiring {
    /// Every referenced column index, flattened.
    pub fn references(&self) -> Vec<u32> {
        match self {
            CodecWiring::None => Vec::new(),
            CodecWiring::Reference(r) => vec![*r],
            CodecWiring::Groups(groups) => groups.iter().flatten().copied().collect(),
        }
    }
}

/// A parsed per-column codec header: the discriminant tag plus the wiring,
/// everything a reader needs *except* the payload bytes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CodecHeader {
    /// Codec discriminant (`TAG_*`).
    pub(crate) tag: u8,
    /// Cross-column wiring.
    pub wiring: CodecWiring,
}

impl CodecHeader {
    /// The header describing `codec`.
    pub fn of(codec: &ColumnCodec) -> Self {
        let (tag, wiring) = match codec {
            ColumnCodec::Int(_) => (TAG_INT, CodecWiring::None),
            ColumnCodec::Str(_) => (TAG_STR, CodecWiring::None),
            ColumnCodec::PlainStr(_) => (TAG_PLAIN_STR, CodecWiring::None),
            ColumnCodec::NonHier { reference, .. } => {
                (TAG_NONHIER, CodecWiring::Reference(*reference))
            }
            ColumnCodec::HierInt { reference, .. } => {
                (TAG_HIER_INT, CodecWiring::Reference(*reference))
            }
            ColumnCodec::HierStr { reference, .. } => {
                (TAG_HIER_STR, CodecWiring::Reference(*reference))
            }
            ColumnCodec::MultiRef { groups, .. } => {
                (TAG_MULTIREF, CodecWiring::Groups(groups.clone()))
            }
        };
        Self { tag, wiring }
    }

    /// Whether this codec must fetch reference column(s) to reconstruct
    /// values (mirrors [`ColumnCodec::is_horizontal`], payload-free).
    pub fn is_horizontal(&self) -> bool {
        !matches!(self.wiring, CodecWiring::None)
    }

    /// Whether the described codec stores strings.
    pub fn is_string(&self) -> bool {
        matches!(self.tag, TAG_STR | TAG_PLAIN_STR | TAG_HIER_STR)
    }

    /// Serializes `tag | wiring`, validating the layout's width limits
    /// (`u8` group count, `u16` group size).
    pub(crate) fn write_to(&self, buf: &mut impl BufMut) -> Result<()> {
        buf.put_u8(self.tag);
        match &self.wiring {
            CodecWiring::None => {}
            CodecWiring::Reference(r) => buf.put_u32_le(*r),
            CodecWiring::Groups(groups) => {
                let n_groups = u8::try_from(groups.len()).map_err(|_| {
                    Error::invalid(format!(
                        "{} multiref groups exceed the u8 group-count field",
                        groups.len()
                    ))
                })?;
                buf.put_u8(n_groups);
                for group in groups {
                    let n = u16::try_from(group.len()).map_err(|_| {
                        Error::invalid(format!(
                            "multiref group of {} columns exceeds the u16 size field",
                            group.len()
                        ))
                    })?;
                    buf.put_u16_le(n);
                    for &g in group {
                        buf.put_u32_le(g);
                    }
                }
            }
        }
        Ok(())
    }

    /// Parses `tag | wiring`; [`check_wiring`] judges the references.
    pub(crate) fn read_from(buf: &mut impl Buf) -> Result<Self> {
        if buf.remaining() < 1 {
            return Err(Error::corrupt("codec tag truncated"));
        }
        let tag = buf.get_u8();
        let read_ref = |buf: &mut dyn Buf| -> Result<u32> {
            if buf.remaining() < 4 {
                return Err(Error::corrupt("codec reference truncated"));
            }
            Ok(buf.get_u32_le())
        };
        let wiring = match tag {
            TAG_INT | TAG_STR | TAG_PLAIN_STR => CodecWiring::None,
            TAG_NONHIER | TAG_HIER_INT | TAG_HIER_STR => CodecWiring::Reference(read_ref(buf)?),
            TAG_MULTIREF => {
                if buf.remaining() < 1 {
                    return Err(Error::corrupt("multiref group count truncated"));
                }
                let n_groups = buf.get_u8() as usize;
                let mut groups = Vec::with_capacity(n_groups);
                for _ in 0..n_groups {
                    if buf.remaining() < 2 {
                        return Err(Error::corrupt("multiref group header truncated"));
                    }
                    let n = buf.get_u16_le() as usize;
                    let mut group = Vec::with_capacity(n);
                    for _ in 0..n {
                        group.push(read_ref(buf)?);
                    }
                    groups.push(group);
                }
                CodecWiring::Groups(groups)
            }
            t => return Err(Error::corrupt(format!("unknown codec tag {t}"))),
        };
        Ok(Self { tag, wiring })
    }
}

/// Serializes a codec's raw payload (everything after the header). This is
/// the byte sequence the frame wraps — and the byte range the table
/// footer addresses per `(block, column)`.
pub(crate) fn write_codec_payload(codec: &ColumnCodec, buf: &mut Vec<u8>) {
    match codec {
        ColumnCodec::Int(enc) => enc.write_to(buf),
        ColumnCodec::Str(enc) => enc.write_to(buf),
        ColumnCodec::PlainStr(pool) => pool.write_to(buf),
        ColumnCodec::NonHier { enc, .. } => enc.write_to(buf),
        ColumnCodec::HierInt { enc, .. } => enc.write_to(buf),
        ColumnCodec::HierStr { enc, .. } => enc.write_to(buf),
        ColumnCodec::MultiRef { enc, .. } => enc.write_to(buf),
    }
}

/// Parses a codec payload previously written by [`write_codec_payload`],
/// re-attaching the header's wiring; `buf` must hold exactly the payload.
pub(crate) fn read_codec_payload(header: &CodecHeader, mut buf: &[u8]) -> Result<ColumnCodec> {
    let buf = &mut buf;
    let codec = match (header.tag, &header.wiring) {
        (TAG_INT, CodecWiring::None) => ColumnCodec::Int(IntEncoding::read_from(buf)?),
        (TAG_STR, CodecWiring::None) => ColumnCodec::Str(DictStr::read_from(buf)?),
        (TAG_PLAIN_STR, CodecWiring::None) => ColumnCodec::PlainStr(StringPool::read_from(buf)?),
        (TAG_NONHIER, CodecWiring::Reference(reference)) => ColumnCodec::NonHier {
            enc: NonHierInt::read_from(buf)?,
            reference: *reference,
        },
        (TAG_HIER_INT, CodecWiring::Reference(reference)) => ColumnCodec::HierInt {
            enc: HierInt::read_from(buf)?,
            reference: *reference,
        },
        (TAG_HIER_STR, CodecWiring::Reference(reference)) => ColumnCodec::HierStr {
            enc: HierStr::read_from(buf)?,
            reference: *reference,
        },
        (TAG_MULTIREF, CodecWiring::Groups(groups)) => ColumnCodec::MultiRef {
            enc: MultiRefInt::read_from(buf)?,
            groups: groups.clone(),
        },
        _ => return Err(Error::corrupt("codec tag and wiring disagree")),
    };
    if !buf.is_empty() {
        return Err(Error::corrupt(format!(
            "{} trailing bytes in codec payload",
            buf.len()
        )));
    }
    Ok(codec)
}

/// The byte range of one column's framed payload within a serialized
/// block, relative to the block's first byte. Recorded per
/// `(block, column)` in the table footer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PayloadSpan {
    /// Offset of the payload bytes (past the `u32` frame length) from the
    /// start of the block segment.
    pub offset: u64,
    /// Payload length in bytes (the frame's declared length).
    pub len: u32,
}

impl PayloadSpan {
    /// The payload's byte range within its block segment.
    pub(crate) fn range(&self) -> std::ops::Range<usize> {
        self.offset as usize..self.offset as usize + self.len as usize
    }
}

impl CompressedBlock {
    /// Serializes the block into a fresh buffer.
    ///
    /// # Errors
    ///
    /// [`Error::InvalidData`] when the block exceeds a width limit of the
    /// serialized layout (`u16` column count, `u16` name bytes, `u8`
    /// multiref group count, `u16` group size, `u32` payload bytes) —
    /// every count that older revisions silently truncated.
    pub fn to_bytes(&self) -> Result<Vec<u8>> {
        let mut buf = Vec::with_capacity(self.total_bytes() + 64);
        self.write_to(&mut buf)?;
        Ok(buf)
    }

    /// Appends the serialized block to `buf`, returning the
    /// [`PayloadSpan`] of every column (offsets relative to the first
    /// appended byte). The table writer records these spans in the footer.
    pub(crate) fn write_to(&self, buf: &mut Vec<u8>) -> Result<Vec<PayloadSpan>> {
        let base = buf.len();
        let n_cols = u16::try_from(self.names().len()).map_err(|_| {
            Error::invalid(format!(
                "{} columns exceed the u16 column-count field",
                self.names().len()
            ))
        })?;
        buf.put_slice(&MAGIC);
        buf.put_u16_le(VERSION);
        buf.put_u32_le(self.rows() as u32);
        buf.put_u16_le(n_cols);
        let mut spans = Vec::with_capacity(self.names().len());
        for (i, name) in self.names().iter().enumerate() {
            let name_len = u16::try_from(name.len()).map_err(|_| {
                Error::invalid(format!(
                    "column name of {} bytes exceeds the u16 name-length field",
                    name.len()
                ))
            })?;
            buf.put_u16_le(name_len);
            buf.put_slice(name.as_bytes());
            let codec = self.codec_at(i);
            CodecHeader::of(codec).write_to(buf)?;
            let frame_at = buf.len();
            write_frame(buf, |b| write_codec_payload(codec, b))?;
            spans.push(PayloadSpan {
                offset: (frame_at + 4 - base) as u64,
                len: (buf.len() - frame_at - 4) as u32,
            });
        }
        Ok(spans)
    }

    /// Deserializes a block previously produced by [`to_bytes`](Self::to_bytes).
    ///
    /// The serialized block carries no zones, so each integer column's
    /// exact zone is recomputed here with one reconstruction — a bare block
    /// stays self-contained and `from_bytes(to_bytes(b)) == b`. A table
    /// file's blocks never come through here: its reader parses each
    /// column from the footer and attaches the footer's zones.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Corrupt`] on bad magic, unsupported version,
    /// truncation, or any inconsistent codec payload; whatever the
    /// reconstruction reports.
    pub fn from_bytes(mut buf: &[u8]) -> Result<Self> {
        if buf.remaining() < 4 + 2 + 4 + 2 {
            return Err(Error::corrupt("block header truncated"));
        }
        let mut magic = [0u8; 4];
        buf.copy_to_slice(&mut magic);
        if magic != MAGIC {
            return Err(Error::corrupt("bad magic"));
        }
        let version = buf.get_u16_le();
        if version != VERSION {
            return Err(Error::corrupt(format!("unsupported version {version}")));
        }
        let rows = buf.get_u32_le();
        let n_cols = buf.get_u16_le() as usize;
        let mut names = Vec::with_capacity(n_cols);
        let mut codecs = Vec::with_capacity(n_cols);
        for _ in 0..n_cols {
            if buf.remaining() < 2 {
                return Err(Error::corrupt("column name header truncated"));
            }
            let name_len = buf.get_u16_le() as usize;
            if buf.remaining() < name_len {
                return Err(Error::corrupt("column name truncated"));
            }
            let mut name_bytes = vec![0u8; name_len];
            buf.copy_to_slice(&mut name_bytes);
            let name = String::from_utf8(name_bytes)
                .map_err(|_| Error::corrupt("column name not UTF-8"))?;
            let header = CodecHeader::read_from(&mut buf)?;
            names.push(name);
            codecs.push(read_codec_payload(&header, take_frame(&mut buf)?)?);
        }
        if !buf.is_empty() {
            return Err(Error::corrupt(format!(
                "{} trailing bytes after last column",
                buf.len()
            )));
        }
        Self::from_parts(rows, names, codecs, vec![None; n_cols], &[])?.with_decoded_zones()
    }
}

/// The wiring rule, shared by block assembly and the table footer: every
/// reference names one of the block's `n_cols` columns, and that column is
/// vertical — references never chain.
pub(crate) fn check_wiring(
    wiring: &CodecWiring,
    n_cols: usize,
    is_horizontal: impl Fn(usize) -> bool,
) -> Result<()> {
    for r in wiring.references() {
        let r = r as usize;
        if r >= n_cols {
            return Err(Error::corrupt("codec reference out of range"));
        }
        if is_horizontal(r) {
            return Err(Error::corrupt("codec references a horizontal column"));
        }
    }
    Ok(())
}

/// The one structural check of a column: every invariant a kernel relies
/// on that its payload alone cannot vouch for (the list is in
/// `docs/FORMAT.md`) — the codec and each reference store `rows` values,
/// the wiring passes [`check_wiring`], NonHier / MultiRef members are
/// vertical integer columns, formulas name only wired groups, and a Hier
/// parent is a dictionary of at most `n_parents` entries whose every row's
/// group index lies inside that row's parent's group. It runs where a
/// block is assembled: [`CompressedBlock::from_parts`], and a table
/// reader's first load of a column through a lazy
/// [`crate::store::BlockHandle`], whose references load through `block`.
pub(crate) fn check_column<B: BlockView + ?Sized>(
    codec: &ColumnCodec,
    rows: usize,
    block: &B,
) -> Result<()> {
    let stores_rows = |codec: &ColumnCodec| {
        if codec.len() == rows {
            Ok(())
        } else {
            Err(Error::LengthMismatch {
                left: codec.len(),
                right: rows,
            })
        }
    };
    stores_rows(codec)?;
    check_wiring(&CodecHeader::of(codec).wiring, block.names().len(), |r| {
        block.is_horizontal(r)
    })?;
    let int_member = |r: u32| match block.view_codec(r as usize)? {
        member @ ColumnCodec::Int(_) => stores_rows(member),
        other => Err(Error::TypeMismatch {
            expected: "vertical int reference",
            found: codec_kind(other),
        }),
    };
    let (codes, offsets, parent) = match codec {
        ColumnCodec::NonHier { reference, .. } => return int_member(*reference),
        ColumnCodec::MultiRef { enc, groups } => {
            enc.validate_groups(groups.len())?;
            return groups.iter().flatten().try_for_each(|&m| int_member(m));
        }
        ColumnCodec::HierInt { enc, reference } => (enc.parts().0, enc.parts().2, *reference),
        ColumnCodec::HierStr { enc, reference } => (enc.parts().0, enc.parts().2, *reference),
        ColumnCodec::Int(_) | ColumnCodec::Str(_) | ColumnCodec::PlainStr(_) => return Ok(()),
    };
    let parent = block.view_codec(parent as usize)?;
    let access = CodeAccess::of(parent).ok_or_else(|| Error::TypeMismatch {
        expected: "dict-encoded reference",
        found: codec_kind(parent),
    })?;
    stores_rows(parent)?;
    let n_parents = offsets.len() - 1;
    if access.keys.len() > n_parents {
        return Err(Error::corrupt(format!(
            "hier parent has {} entries for {n_parents} groups",
            access.keys.len()
        )));
    }
    // Alg. 1's row bound, `code < offsets[p + 1] - offsets[p]`, in one
    // batched sweep of both code columns; the parent's codes are below its
    // entry count (its payload's own rule), so each indexes `group_len`.
    let group_len: Vec<u64> = offsets.windows(2).map(|w| u64::from(w[1] - w[0])).collect();
    let mut outside = false;
    codes.unpack_chunks_with(access.codes, |_, codes, parents| {
        for (&code, &p) in codes.iter().zip(parents) {
            outside |= code >= group_len[p as usize];
        }
    });
    if outside {
        return Err(Error::corrupt(
            "hier group index outside its parent's group",
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compressor::{ColumnPlan, CompressionConfig};
    use corra_columnar::block::DataBlock;
    use corra_columnar::column::{Column, DataType};
    use corra_columnar::schema::{Field, Schema};
    use corra_encodings::PlainInt;

    fn mixed_block(n: usize) -> (DataBlock, CompressionConfig) {
        let city_pool = StringPool::from_iter((0..n).map(|i| ["NYC", "Albany", "Naples"][i % 3]));
        let zip: Vec<i64> = (0..n)
            .map(|i| 10_000 + (i % 3) as i64 * 50 + (i / 3 % 4) as i64)
            .collect();
        let ship: Vec<i64> = (0..n).map(|i| 8_035 + (i as i64 % 2_000)).collect();
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
                Column::Utf8(city_pool),
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

    #[test]
    fn full_block_roundtrip_every_codec_both_versions() {
        let (block, cfg) = mixed_block(3_000);
        let compressed = CompressedBlock::compress(&block, &cfg).unwrap();
        let bytes = compressed.to_bytes().unwrap();
        let back = CompressedBlock::from_bytes(&bytes).unwrap();
        assert_eq!(back, compressed);
        // Decompression from the deserialized block is identical too.
        for name in [
            "city",
            "zip",
            "l_shipdate",
            "l_receiptdate",
            "fee",
            "extra",
            "total",
        ] {
            assert_eq!(
                &back.decompress(name).unwrap(),
                block.column(name).unwrap(),
                "{name}"
            );
        }
    }

    #[test]
    fn payload_spans_address_each_framed_payload() {
        let (block, cfg) = mixed_block(500);
        let compressed = CompressedBlock::compress(&block, &cfg).unwrap();
        let mut bytes = Vec::new();
        let spans = compressed.write_to(&mut bytes).unwrap();
        assert_eq!(bytes, compressed.to_bytes().unwrap());
        for (i, span) in spans.iter().enumerate() {
            let payload = &bytes[span.range()];
            let header = CodecHeader::of(compressed.codec_at(i));
            let codec = read_codec_payload(&header, payload).unwrap();
            assert_eq!(&codec, compressed.codec_at(i), "column {i}");
        }
    }

    #[test]
    fn rejects_bad_magic_and_version() {
        let (block, cfg) = mixed_block(100);
        let compressed = CompressedBlock::compress(&block, &cfg).unwrap();
        let mut bytes = compressed.to_bytes().unwrap();
        bytes[0] = b'X';
        assert!(CompressedBlock::from_bytes(&bytes).is_err());
        let mut bytes = compressed.to_bytes().unwrap();
        bytes[4] = 0xFF;
        assert!(CompressedBlock::from_bytes(&bytes).is_err());
    }

    #[test]
    fn rejects_truncation_anywhere_both_versions() {
        let (block, cfg) = mixed_block(200);
        let compressed = CompressedBlock::compress(&block, &cfg).unwrap();
        let bytes = compressed.to_bytes().unwrap();
        // Cut at a sweep of offsets; must error, never panic.
        for cut in (0..bytes.len()).step_by(bytes.len() / 37 + 1) {
            assert!(
                CompressedBlock::from_bytes(&bytes[..cut]).is_err(),
                "cut {cut}"
            );
        }
    }

    #[test]
    fn v2_rejects_trailing_bytes() {
        let (block, cfg) = mixed_block(50);
        let compressed = CompressedBlock::compress(&block, &cfg).unwrap();
        let mut bytes = compressed.to_bytes().unwrap();
        bytes.push(0);
        assert!(CompressedBlock::from_bytes(&bytes).is_err());
    }

    #[test]
    fn rejects_out_of_range_reference() {
        let (block, cfg) = mixed_block(50);
        let compressed = CompressedBlock::compress(&block, &cfg).unwrap();
        let bytes = compressed.to_bytes().unwrap();
        // The wire format is deterministic; flip every u32 that matches the
        // shipdate reference index (2) following a NONHIER tag.
        let mut hostile = bytes.clone();
        let mut corrupted = false;
        for i in 0..hostile.len() - 5 {
            if hostile[i] == TAG_NONHIER && hostile[i + 1..i + 5] == 2u32.to_le_bytes() {
                hostile[i + 1..i + 5].copy_from_slice(&99u32.to_le_bytes());
                corrupted = true;
                break;
            }
        }
        assert!(corrupted, "did not find nonhier reference to corrupt");
        assert!(CompressedBlock::from_bytes(&hostile).is_err());
    }

    #[test]
    fn empty_block_roundtrips() {
        let block = DataBlock::new(
            Schema::new(vec![Field::new("v", DataType::Int64)]).unwrap(),
            vec![Column::Int64(Vec::new())],
        )
        .unwrap();
        let compressed = CompressedBlock::compress(&block, &CompressionConfig::baseline()).unwrap();
        let back = CompressedBlock::from_bytes(&compressed.to_bytes().unwrap()).unwrap();
        assert_eq!(back.rows(), 0);
    }

    // --- Satellite: the casts that used to truncate silently now error. ---

    #[test]
    fn oversized_column_name_errors_instead_of_truncating() {
        let long = "c".repeat(u16::MAX as usize + 1);
        let block = DataBlock::new(
            Schema::new(vec![Field::new(long.clone(), DataType::Int64)]).unwrap(),
            vec![Column::Int64(vec![1, 2, 3])],
        )
        .unwrap();
        let compressed = CompressedBlock::compress(&block, &CompressionConfig::baseline()).unwrap();
        let err = compressed.to_bytes().unwrap_err();
        assert!(
            err.to_string().contains("name-length"),
            "unexpected error: {err}"
        );
        // The largest representable name still works.
        let ok_name = "c".repeat(u16::MAX as usize);
        let block = DataBlock::new(
            Schema::new(vec![Field::new(ok_name.clone(), DataType::Int64)]).unwrap(),
            vec![Column::Int64(vec![7])],
        )
        .unwrap();
        let compressed = CompressedBlock::compress(&block, &CompressionConfig::baseline()).unwrap();
        let back = CompressedBlock::from_bytes(&compressed.to_bytes().unwrap()).unwrap();
        assert_eq!(back.names(), &[ok_name]);
    }

    #[test]
    fn oversized_column_count_errors_instead_of_truncating() {
        let n = u16::MAX as usize + 1;
        let names: Vec<String> = (0..n).map(|i| format!("c{i}")).collect();
        let codecs: Vec<ColumnCodec> = (0..n)
            .map(|_| ColumnCodec::Int(IntEncoding::Plain(PlainInt::encode(&[]))))
            .collect();
        let block = CompressedBlock::from_parts(0, names, codecs, vec![None; n], &[]).unwrap();
        let err = block.to_bytes().unwrap_err();
        assert!(
            err.to_string().contains("column-count"),
            "unexpected error: {err}"
        );
    }

    #[test]
    fn oversized_multiref_group_count_errors_instead_of_truncating() {
        // Headers validate group counts independently of the payload, so a
        // hostile wiring (too many groups / too-large group) is rejected at
        // write time rather than truncated to a smaller count.
        let header = CodecHeader {
            tag: TAG_MULTIREF,
            wiring: CodecWiring::Groups(vec![Vec::new(); u8::MAX as usize + 1]),
        };
        let mut buf = Vec::new();
        let err = header.write_to(&mut buf).unwrap_err();
        assert!(
            err.to_string().contains("group-count"),
            "unexpected error: {err}"
        );
        let header = CodecHeader {
            tag: TAG_MULTIREF,
            wiring: CodecWiring::Groups(vec![vec![0; u16::MAX as usize + 1]]),
        };
        let err = header.write_to(&mut Vec::new()).unwrap_err();
        assert!(err.to_string().contains("size field"), "unexpected: {err}");
    }

    #[test]
    fn codec_header_roundtrip_and_wiring() {
        let (block, cfg) = mixed_block(60);
        let compressed = CompressedBlock::compress(&block, &cfg).unwrap();
        let n = compressed.names().len();
        for i in 0..n {
            let header = CodecHeader::of(compressed.codec_at(i));
            let mut buf = Vec::new();
            header.write_to(&mut buf).unwrap();
            let back = CodecHeader::read_from(&mut buf.as_slice()).unwrap();
            assert_eq!(back, header, "column {i}");
            assert_eq!(
                header.is_horizontal(),
                compressed.codec_at(i).is_horizontal()
            );
        }
        // zip (Hier onto city=0), receiptdate (NonHier onto shipdate=2),
        // total (MultiRef onto fee=4 / extra=5).
        let idx = compressed.index_of("total").unwrap();
        let header = CodecHeader::of(compressed.codec_at(idx));
        assert_eq!(header.wiring.references(), vec![4, 5]);
        assert!(!CodecHeader::of(compressed.codec_at(0)).is_horizontal());
        assert!(!CodecHeader::of(compressed.codec_at(1)).is_string());
        assert!(CodecHeader::of(compressed.codec_at(0)).is_string());
    }
}
