//! Blocks encoded wrongly and checksummed correctly: a serialized block
//! whose payload bytes are rewritten after encoding, then re-sealed so
//! every checksum passes. Such a block must be refused where it is
//! assembled — `CompressedBlock::from_bytes`, a table's `read_block`, or a
//! lazy handle's first load of the column — or answer exactly what its
//! own decoded values answer. Checksums cannot tell these bytes from good
//! ones; only the block's structural check can.

mod common;

use std::sync::Arc;

use corra_columnar::block::DataBlock;
use corra_columnar::column::{Column, DataType};
use corra_columnar::error::Error;
use corra_columnar::schema::{Field, Schema};
use corra_columnar::selection::SelectionVector;
use corra_columnar::strings::StringPool;
use corra_core::cache::{CacheConfig, ShardedCache};
use corra_core::store::{SegmentedTable, TableFooter, TableReader, TableWriter};
use corra_core::{
    aggregate_blocks, gather_rows, query_both, scan_blocks, top_k_blocks, AggExpr, AggValue,
    ColumnCodec, ColumnPlan, CompressedBlock, CompressionConfig, Predicate, QueryOutput, RowId,
    TopKExpr,
};
use corra_encodings::IntEncoding;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn table_bytes(blocks: &[&CompressedBlock]) -> Vec<u8> {
    let mut writer = TableWriter::new(Vec::new()).unwrap();
    for block in blocks {
        writer.write_block(block).unwrap();
    }
    writer.finish().unwrap()
}

/// The byte range of `(block, column)`'s payload within the file.
fn payload_range(reader: &TableReader, block: usize, column: &str) -> std::ops::Range<usize> {
    let meta = &reader.footer().blocks[block];
    let span = meta.columns[reader.schema().index_of(column).unwrap()].span;
    let at = (meta.offset + span.offset) as usize;
    at..at + span.len as usize
}

/// The block image of block `block` within the file.
fn block_image(bytes: &[u8], reader: &TableReader, block: usize) -> Vec<u8> {
    let meta = &reader.footer().blocks[block];
    bytes[meta.offset as usize..(meta.offset + meta.len) as usize].to_vec()
}

fn is_corrupt<T: std::fmt::Debug>(got: &corra_columnar::error::Result<T>) -> bool {
    matches!(got, Err(Error::Corrupt(_)))
}

#[test]
fn hier_row_outside_its_parents_group_is_corrupt_everywhere() {
    // Encode `[20, 30, 10]` under parents `[1, 1, 0]`, then store the
    // parents as `[1, 0, 0]`: row 1 keeps group index 1 but moves into
    // parent 0's one-entry group. Alg. 1 would read `offsets[0] + 1`, the
    // first entry of the *next* group, and answer 20.
    let raw = DataBlock::new(
        Schema::new(vec![
            Field::new("p", DataType::Int64),
            Field::new("c", DataType::Int64),
        ])
        .unwrap(),
        vec![
            Column::Int64(vec![7, 7, 3]),
            Column::Int64(vec![20, 30, 10]),
        ],
    )
    .unwrap();
    let cfg = CompressionConfig::baseline()
        .with("p", ColumnPlan::Dict)
        .with(
            "c",
            ColumnPlan::Hier {
                reference: "p".into(),
            },
        );
    let clean = CompressedBlock::compress(&raw, &cfg).unwrap();
    let mut bytes = table_bytes(&[&clean]);
    let reader = TableReader::from_bytes(bytes.clone()).unwrap();
    // The parent's payload ends in its one packed word: codes 1, 1, 0.
    let word = payload_range(&reader, 0, "p").end - 8;
    assert_eq!(bytes[word..word + 8], 0b011u64.to_le_bytes());
    bytes[word..word + 8].copy_from_slice(&0b001u64.to_le_bytes());
    common::reseal(&mut bytes, reader.footer());

    let image = block_image(&bytes, &reader, 0);
    let got = CompressedBlock::from_bytes(&image);
    assert!(is_corrupt(&got), "from_bytes: {got:?}");

    // `read_block` remembers a segment that passed, never one that
    // failed: every read of the hostile block is refused, with or without
    // a cache to serve a second read from.
    let cache = Arc::new(ShardedCache::new(CacheConfig {
        byte_budget: 1 << 20,
        shards: 1,
    }));
    let cached = TableReader::from_bytes(bytes.clone())
        .unwrap()
        .with_cache(cache);
    for read in ["first", "second"] {
        assert!(
            is_corrupt(&cached.read_block(0)),
            "{read} cached read_block"
        );
    }

    let hostile = TableReader::from_bytes(bytes).unwrap();
    let handle = hostile.block_handle(0).unwrap();
    assert!(is_corrupt(&handle.decompress("c")), "block_handle");
    // The parent alone is a well-formed column: a query reading only it
    // loads only it.
    assert_eq!(
        hostile.block_handle(0).unwrap().decompress("p").unwrap(),
        Column::Int64(vec![7, 3, 3])
    );
    assert!(is_corrupt(&hostile.read_block(0)), "read_block");
    assert!(is_corrupt(&hostile.read_block(0)), "second read_block");
    let hostile = Arc::new(hostile);
    let file = SegmentedTable::from_readers(vec![Arc::clone(&hostile)]);
    assert!(is_corrupt(&file.read_column(0, "c")), "read_column");

    // Behind a clean segment, as block 1 of a two-segment table.
    let clean_reader = Arc::new(TableReader::from_bytes(table_bytes(&[&clean])).unwrap());
    let table = SegmentedTable::from_readers(vec![clean_reader, hostile]);
    assert_eq!(
        table.read_column(0, "c").unwrap(),
        Column::Int64(vec![20, 30, 10])
    );
    assert!(
        is_corrupt(&table.read_column(1, "c")),
        "segments read_column"
    );
    assert!(is_corrupt(&table.read_block(1)), "segments read_block");
    let handle = table.block_handle(1).unwrap();
    assert!(is_corrupt(&handle.decompress("c")), "segments block_handle");
    assert!(is_corrupt(&table.scan_blocks(&Predicate::ge("c", 0))));
    assert!(is_corrupt(&table.aggregate(&AggExpr::sum("c"))));
}

#[test]
fn swapped_footer_spans_tell_one_story() {
    // Two `Plain` columns, `a = [1, 2, 3]` and `b = [7, 8, 9]`, whose footer
    // span entries (payload offset, length and checksum) trade places;
    // only the footer checksum is recomputed, so the segment, its envelope
    // and every payload checksum still pass. The footer is the file's one
    // index: every path — a full `read_block` (compaction's merge read,
    // cached or not, first or second) and every lazy load — must read the
    // same values for a column, or refuse the file. Zones stay with their
    // footer entries, so MIN / MAX and pruning are not asked here.
    let (mut bytes, footer) = plain_ab_file();
    let [a, b] = [0, 1].map(|i| common::span_entry(&bytes, &footer.blocks[0].columns[i]));
    let entry = |at: usize| bytes[at..at + 20].to_vec();
    let (entry_a, entry_b) = (entry(a), entry(b));
    bytes[a..a + 20].copy_from_slice(&entry_b);
    bytes[b..b + 20].copy_from_slice(&entry_a);
    common::reseal_footer(&mut bytes);

    let ints = |c: Column| match c {
        Column::Int64(v) => v,
        other => panic!("not an integer column: {other:?}"),
    };
    let ids: Vec<RowId> = (0..3).map(|row| RowId { block: 0, row }).collect();
    // Without a cache `read_block` reads first, with one it reads last, so
    // each path also meets the check memos the other one left.
    for cached in [false, true] {
        let table = file_table(&bytes, cached);
        for column in ["a", "b"] {
            let read_block = || table.read_block(0).and_then(|b| b.decompress(column));
            let mut told = Vec::new();
            if !cached {
                told.push(("first read_block", read_block().map(ints)));
                told.push(("second read_block", read_block().map(ints)));
            }
            told.push(("read_column", table.read_column(0, column).map(ints)));
            let handle = table.block_handle(0).unwrap();
            told.push(("block_handle", handle.decompress(column).map(ints)));
            let gathered = table.gather_rows(&ids, &[column]);
            told.push((
                "gather_rows",
                gathered.map(|out| match &out[0] {
                    QueryOutput::Int(v) => v.clone(),
                    other => panic!("gathered strings: {other:?}"),
                }),
            ));
            if cached {
                told.push(("first cached read_block", read_block().map(ints)));
                told.push(("second cached read_block", read_block().map(ints)));
            }
            let story = told.iter().find_map(|(_, got)| got.as_ref().ok());
            for (path, got) in &told {
                assert!(
                    is_corrupt(got) || got.as_ref().ok() == story,
                    "{path} reads {column} as {got:?}, another path as {story:?}"
                );
            }
            let sum = table.aggregate(&AggExpr::sum(column));
            let want = story.map(|v| AggValue::Sum(Some(v.iter().map(|&x| i128::from(x)).sum())));
            assert!(
                is_corrupt(&sum)
                    || sum.as_ref().ok().map(|(r, _)| r.as_scalar().unwrap()) == want.as_ref(),
                "SUM({column}) is {sum:?}, the column reads {story:?}"
            );
        }
    }
}

#[test]
fn footer_payload_checksum_is_checked_by_every_read() {
    // Column `b`'s footer payload checksum disagrees with its intact
    // payload; only the footer checksum is recomputed, so the segment
    // checksum still passes. A lazy load refuses the column, so a whole
    // `read_block` — compaction's merge read, which would re-seal `b` as
    // clean — must refuse the block too, uncached and cached, every time.
    let (mut bytes, footer) = plain_ab_file();
    let b = common::span_entry(&bytes, &footer.blocks[0].columns[1]);
    bytes[b + 12] ^= 1;
    common::reseal_footer(&mut bytes);
    for cached in [false, true] {
        let table = file_table(&bytes, cached);
        assert!(
            is_corrupt(&table.read_block(0)),
            "first read_block, cached {cached}"
        );
        assert!(
            is_corrupt(&table.read_block(0)),
            "second read_block, cached {cached}"
        );
        assert!(
            is_corrupt(&table.read_column(0, "b")),
            "read_column, cached {cached}"
        );
        let sum = table.aggregate(&AggExpr::sum("b"));
        assert!(is_corrupt(&sum), "SUM(b) is {sum:?}, cached {cached}");
    }
}

/// A one-block file of two `Plain` columns, `a = [1, 2, 3]` and
/// `b = [7, 8, 9]`, and its footer.
fn plain_ab_file() -> (Vec<u8>, TableFooter) {
    let raw = DataBlock::new(
        Schema::new(vec![
            Field::new("a", DataType::Int64),
            Field::new("b", DataType::Int64),
        ])
        .unwrap(),
        vec![Column::Int64(vec![1, 2, 3]), Column::Int64(vec![7, 8, 9])],
    )
    .unwrap();
    let cfg = CompressionConfig::baseline()
        .with("a", ColumnPlan::Plain)
        .with("b", ColumnPlan::Plain);
    let clean = CompressedBlock::compress(&raw, &cfg).unwrap();
    let bytes = table_bytes(&[&clean]);
    let footer = TableReader::from_bytes(bytes.clone())
        .unwrap()
        .footer()
        .clone();
    (bytes, footer)
}

/// `bytes` as a one-segment table, with a cache attached if `cached`.
fn file_table(bytes: &[u8], cached: bool) -> SegmentedTable {
    let mut reader = TableReader::from_bytes(bytes.to_vec()).unwrap();
    if cached {
        reader = reader.with_cache(Arc::new(ShardedCache::new(CacheConfig {
            byte_budget: 1 << 20,
            shards: 1,
        })));
    }
    common::one_segment(reader)
}

/// `n` rows: dictionary parents `d` (int) and `s` (string), Hier children
/// `hi` under `d` and `hs` under `s`, members `m0` / `m1`, MultiRef `mr`
/// over them, and NonHier `nh` over `m0` with outliers.
fn family_block(n: usize, seed: u64) -> CompressedBlock {
    let mut rng = StdRng::seed_from_u64(seed);
    let d: Vec<i64> = (0..n).map(|_| rng.gen_range(0..5)).collect();
    let s: Vec<usize> = (0..n).map(|_| rng.gen_range(0..4)).collect();
    let hi: Vec<i64> = d
        .iter()
        .map(|&p| p * 100 + rng.gen_range(0i64..4))
        .collect();
    let names = ["a", "b", "c", "d"];
    let hs: StringPool = s
        .iter()
        .map(|&p| format!("{}-{}", names[p], rng.gen_range(0..3)))
        .collect::<Vec<_>>()
        .iter()
        .map(String::as_str)
        .collect();
    let m0: Vec<i64> = (0..n).map(|_| rng.gen_range(-999..999)).collect();
    let m1: Vec<i64> = (0..n).map(|_| rng.gen_range(-99..99)).collect();
    let mr: Vec<i64> = (0..n)
        .map(|i| match rng.gen_range(0..10) {
            0..=3 => m0[i],
            4..=7 => m0[i] + m1[i],
            8 => m1[i],
            _ => rng.gen_range(-5_000..5_000),
        })
        .collect();
    let nh: Vec<i64> = (0..n)
        .map(|i| match rng.gen_range(0..8) {
            0 => rng.gen_range(-1 << 30..1 << 30),
            _ => m0[i] + rng.gen_range(0i64..8),
        })
        .collect();
    let int = |name: &str| Field::new(name, DataType::Int64);
    let raw = DataBlock::new(
        Schema::new(vec![
            int("d"),
            Field::new("s", DataType::Utf8),
            int("hi"),
            Field::new("hs", DataType::Utf8),
            int("m0"),
            int("m1"),
            int("mr"),
            int("nh"),
        ])
        .unwrap(),
        vec![
            Column::Int64(d),
            Column::Utf8(s.iter().map(|&p| names[p]).collect()),
            Column::Int64(hi),
            Column::Utf8(hs),
            Column::Int64(m0),
            Column::Int64(m1),
            Column::Int64(mr),
            Column::Int64(nh),
        ],
    )
    .unwrap();
    let under = |parent: &str| ColumnPlan::Hier {
        reference: parent.into(),
    };
    let cfg = CompressionConfig::baseline()
        .with("d", ColumnPlan::Dict)
        .with("s", ColumnPlan::Dict)
        .with("hi", under("d"))
        .with("hs", under("s"))
        .with(
            "mr",
            ColumnPlan::MultiRef {
                groups: vec![vec!["m0".into()], vec!["m1".into()]],
                code_bits: 2,
            },
        )
        .with(
            "nh",
            ColumnPlan::NonHier {
                reference: "m0".into(),
            },
        );
    CompressedBlock::compress(&raw, &cfg).unwrap()
}

const COLUMNS: [&str; 8] = ["d", "s", "hi", "hs", "m0", "m1", "mr", "nh"];

/// Each `query_both` target with its reference.
const PAIRS: [(&str, &str); 3] = [("hi", "d"), ("hs", "s"), ("nh", "m0")];

/// Where the operators read one block: in memory, or as block 0 of a table.
enum Source<'a> {
    Memory(&'a CompressedBlock),
    Store(&'a SegmentedTable),
}

/// One answer per operator, `None` for an error: scans, whole and grouped
/// aggregates, TOP-K, gathers, full decodes and `query_both` (reported as
/// the target's and the reference's gathers, so a vertical re-encoding can
/// answer it).
fn answers(source: &Source, rows: usize) -> Vec<Option<String>> {
    let ok = |r: corra_columnar::error::Result<String>| r.ok();
    let blocks = |b: &CompressedBlock| vec![b.clone()];
    let mut out = Vec::new();
    let preds = [
        Predicate::between("hi", 100, 250),
        Predicate::ge("mr", 0),
        Predicate::lt("nh", 10),
        Predicate::str_eq("hs", "b-1"),
        Predicate::str_eq("s", "c"),
    ];
    for pred in &preds {
        out.push(ok(match source {
            Source::Memory(b) => scan_blocks(&blocks(b), pred).map(|(s, _)| format!("{s:?}")),
            Source::Store(t) => t.scan_blocks(pred).map(|(s, _)| format!("{s:?}")),
        }));
    }
    let aggs = [
        AggExpr::sum("hi"),
        AggExpr::sum("mr"),
        AggExpr::sum("nh"),
        AggExpr::max("nh"),
        AggExpr::min("hs"),
        AggExpr::count().with_group_by("d"),
        AggExpr::sum("hi").with_group_by("s"),
        AggExpr::sum("mr").with_group_by("d"),
        AggExpr::min("hs").with_group_by("d"),
        AggExpr::sum("nh").with_filter(Predicate::ge("hi", 200)),
    ];
    for expr in &aggs {
        out.push(ok(match source {
            Source::Memory(b) => aggregate_blocks(&blocks(b), expr).map(|(r, _)| format!("{r:?}")),
            Source::Store(t) => t.aggregate(expr).map(|(r, _)| format!("{r:?}")),
        }));
    }
    for expr in [
        TopKExpr::desc("hi", 5),
        TopKExpr::asc("mr", 7),
        TopKExpr::desc("nh", 3),
    ] {
        out.push(ok(match source {
            Source::Memory(b) => top_k_blocks(&blocks(b), &expr).map(|(r, _)| format!("{r:?}")),
            Source::Store(t) => t.top_k(&expr).map(|(r, _)| format!("{r:?}")),
        }));
    }
    let mut rows = vec![0, rows / 2, rows - 1];
    rows.dedup();
    let ids: Vec<RowId> = rows
        .into_iter()
        .map(|row| RowId {
            block: 0,
            row: row as u32,
        })
        .collect();
    let gather = |columns: &[&str]| match source {
        Source::Memory(b) => gather_rows(&blocks(b), &ids, columns).map(|o| format!("{o:?}")),
        Source::Store(t) => t.gather_rows(&ids, columns).map(|o| format!("{o:?}")),
    };
    for column in COLUMNS {
        out.push(ok(gather(&[column])));
        out.push(ok(match source {
            Source::Memory(b) => b.decompress(column).map(|c| format!("{c:?}")),
            Source::Store(t) => t.read_column(0, column).map(|c| format!("{c:?}")),
        }));
    }
    let sel = SelectionVector::new(ids.iter().map(|id| id.row).collect());
    let pair = |(t, r): (QueryOutput, QueryOutput)| format!("{:?}", [t, r]);
    for (target, reference) in PAIRS {
        out.push(ok(match source {
            Source::Memory(b) if b.codec(target).is_ok_and(ColumnCodec::is_horizontal) => {
                query_both(*b, target, &sel).map(pair)
            }
            // A vertical re-encoding has no pair: gather both columns.
            Source::Memory(_) => gather(&[target, reference]),
            Source::Store(t) => t
                .block_handle(0)
                .and_then(|handle| query_both(&handle, target, &sel))
                .map(pair),
        }));
    }
    out
}

/// The vertical re-encoding of `columns`: the oracle every accepted
/// rewrite is held to.
fn vertical(columns: Vec<Column>) -> CompressedBlock {
    let fields = COLUMNS
        .iter()
        .zip(&columns)
        .map(|(name, c)| match c {
            Column::Int64(_) => Field::new(*name, DataType::Int64),
            Column::Utf8(_) => Field::new(*name, DataType::Utf8),
        })
        .collect();
    let raw = DataBlock::new(Schema::new(fields).unwrap(), columns).unwrap();
    let cfg = CompressionConfig::baseline()
        .with("d", ColumnPlan::Dict)
        .with("s", ColumnPlan::Dict);
    CompressedBlock::compress(&raw, &cfg).unwrap()
}

/// The packed values of the bit-packed vector serialized at `at`
/// (`bits u8 | len u64 | n_words u64 | words`).
fn unpack(bytes: &[u8], at: usize) -> Vec<u64> {
    let bits = bytes[at] as usize;
    let len = u64::from_le_bytes(bytes[at + 1..at + 9].try_into().unwrap()) as usize;
    let word = |w: usize| {
        let p = at + 17 + w * 8;
        u64::from_le_bytes(bytes[p..p + 8].try_into().unwrap()) as u128
    };
    (0..len)
        .map(|i| {
            if bits == 0 {
                return 0;
            }
            let bit = i * bits;
            let pair = word(bit / 64) | word((bit / 64 + 1).min((len * bits - 1) / 64)) << 64;
            ((pair >> (bit % 64)) & ((1u128 << bits) - 1)) as u64
        })
        .collect()
}

/// Bytes of a bit-packed vector serialized at `at` that hold words.
fn words(bytes: &[u8], at: usize) -> std::ops::Range<usize> {
    let n_words = u64::from_le_bytes(bytes[at + 9..at + 17].try_into().unwrap()) as usize;
    at + 17..at + 17 + n_words * 8
}

/// The group lengths of the Hier payload in `range`, read off the group
/// starts it ends with (`n_parents + 1` of them).
fn group_lens(bytes: &[u8], range: std::ops::Range<usize>, n_parents: usize) -> Vec<u64> {
    let starts: Vec<u64> = bytes[range.end - (n_parents + 1) * 4..range.end]
        .chunks(4)
        .map(|c| u32::from_le_bytes(c.try_into().unwrap()) as u64)
        .collect();
    starts.windows(2).map(|w| w[1] - w[0]).collect()
}

proptest! {
    #[test]
    fn rewritten_blocks_error_or_answer_cleanly(
        n in 1usize..300,
        seed in any::<u64>(),
        kind in 0usize..4,
        pick in 0usize..2,
        at in any::<u64>(),
        flip in 1u8..=255,
    ) {
        let clean = family_block(n, seed);
        let mut bytes = table_bytes(&[&clean]);
        let reader = TableReader::from_bytes(bytes.clone()).unwrap();
        let (child, parent) = [("hi", "d"), ("hs", "s")][pick];
        let parent_codes = match clean.codec(parent).unwrap() {
            ColumnCodec::Int(IntEncoding::Dict(d)) => d.codes().serialized_len(),
            ColumnCodec::Str(d) => d.codes().serialized_len(),
            other => panic!("parent {parent} is {}", other.scheme()),
        };
        let n_parents = match clean.codec(child).unwrap() {
            ColumnCodec::HierInt { enc, .. } => enc.n_parents(),
            ColumnCodec::HierStr { enc, .. } => enc.n_parents(),
            other => panic!("child {child} is {}", other.scheme()),
        };
        let child_at = payload_range(&reader, 0, child).start;
        let parent_at = payload_range(&reader, 0, parent).end - parent_codes;
        // The bytes one rewrite may touch: Hier group indexes, Hier parent
        // codes, MultiRef formula codes, or NonHier outlier positions.
        let region = match kind {
            0 => words(&bytes, child_at),
            1 => words(&bytes, parent_at),
            2 => {
                let at = payload_range(&reader, 0, "mr").start;
                words(&bytes, at + 1 + bytes[at] as usize)
            }
            _ => {
                let at = payload_range(&reader, 0, "nh").start + 8;
                let outliers = words(&bytes, at).end;
                let count = u64::from_le_bytes(bytes[outliers..outliers + 8].try_into().unwrap());
                outliers + 8..outliers + 8 + count as usize * 4
            }
        };
        if !region.is_empty() {
            let pos = region.start + (at % region.len() as u64) as usize;
            if kind == 3 {
                // An outlier position anywhere in 0..2n, in range or not.
                let pos = region.start + (pos - region.start) / 4 * 4;
                let row = ((at >> 32) % (2 * n as u64)) as u32;
                bytes[pos..pos + 4].copy_from_slice(&row.to_le_bytes());
            } else {
                bytes[pos] ^= flip;
            }
        }
        common::reseal(&mut bytes, reader.footer());
        let image = block_image(&bytes, &reader, 0);
        let memory = CompressedBlock::from_bytes(&image);
        let table = common::one_segment(TableReader::from_bytes(bytes.clone()).unwrap());

        // Alg. 1's rule, read off the rewritten bytes themselves: every
        // row's group index inside its own parent's group.
        let lens = group_lens(&bytes, payload_range(&reader, 0, child), n_parents);
        let inside = unpack(&bytes, child_at)
            .iter()
            .zip(unpack(&bytes, parent_at))
            .all(|(&c, p)| lens.get(p as usize).is_some_and(|&len| c < len));
        if kind <= 1 {
            prop_assert!(memory.is_ok() == inside, "from_bytes: {:?}", memory.as_ref().err());
            let store = table.read_column(0, child);
            prop_assert!(store.is_ok() == inside, "read_column: {:?}", store.err());
        }

        // The store answers each operator with an error, or with what the
        // columns it decodes answer.
        let decoded: Vec<Column> = COLUMNS
            .iter()
            .map(|c| {
                table
                    .read_column(0, c)
                    .unwrap_or_else(|_| clean.decompress(c).unwrap())
            })
            .collect();
        let oracle = answers(&Source::Memory(&vertical(decoded)), n);
        for (i, (got, want)) in answers(&Source::Store(&table), n).iter().zip(&oracle).enumerate() {
            prop_assert!(got.is_none() || got == want, "store op {}: {:?} != {:?}", i, got, want);
        }
        // A block that assembles answers exactly what its decode answers,
        // from memory and from a file of it.
        if let Ok(block) = memory {
            let decoded = COLUMNS.iter().map(|c| block.decompress(c).unwrap()).collect();
            let oracle = answers(&Source::Memory(&vertical(decoded)), n);
            let got = answers(&Source::Memory(&block), n);
            prop_assert_eq!(&got, &oracle);
            prop_assert!(got.iter().all(Option::is_some), "{:?}", got);
            let file = common::one_segment(TableReader::from_bytes(table_bytes(&[&block])).unwrap());
            prop_assert_eq!(answers(&Source::Store(&file), n), oracle);
        }
    }
}
