//! Differential-oracle property tests for the compressed-domain operator
//! pipeline: TOP-K and dictionary-code hash joins must be bit-identical
//! to their decompress-then-X oracles — serial and morsel-parallel, in
//! memory and store-backed — over arbitrary data, tie-heavy domains,
//! degenerate k, and empty/absent-key join sides. Plus the capability
//! regression: operators on columns whose codes are *not* value-ordered
//! are rejected, never silently wrong.

use std::sync::Arc;

use corra_columnar::block::DataBlock;
use corra_columnar::column::{Column, DataType};
use corra_columnar::error::Error;
use corra_columnar::schema::{Field, Schema};
use corra_core::ingest::{IngestConfig, IngestTable};
use corra_core::store::{SegmentedTable, TableReader, TableWriter};
use corra_core::vfs::SimVfs;
use corra_core::{
    gather_rows, gather_rows_with, hash_join_blocks, top_k_blocks, ColumnPlan, CompressedBlock,
    CompressionConfig, JoinExpr, JoinPair, Predicate, QueryOutput, RowId, TopKExpr, TopKRow,
};
use proptest::prelude::*;

/// Compresses `values` as a single int column split into `block_rows`
/// chunks, optionally forcing the dictionary codec.
fn int_blocks(
    name: &str,
    values: &[i64],
    block_rows: usize,
    force_dict: bool,
) -> Vec<CompressedBlock> {
    let cfg = if force_dict {
        CompressionConfig::baseline().with(name, ColumnPlan::Dict)
    } else {
        CompressionConfig::baseline()
    };
    values
        .chunks(block_rows.max(1))
        .map(|chunk| {
            let raw = DataBlock::new(
                Schema::new(vec![Field::new(name, DataType::Int64)]).unwrap(),
                vec![Column::Int64(chunk.to_vec())],
            )
            .unwrap();
            CompressedBlock::compress(&raw, &cfg).unwrap()
        })
        .collect()
}

/// Compresses `values` as a single string column (baseline auto picks the
/// string dictionary) split into `block_rows` chunks.
fn str_blocks(name: &str, values: &[&str], block_rows: usize) -> Vec<CompressedBlock> {
    let cfg = CompressionConfig::baseline();
    values
        .chunks(block_rows.max(1))
        .map(|chunk| {
            let raw = DataBlock::new(
                Schema::new(vec![Field::new(name, DataType::Utf8)]).unwrap(),
                vec![Column::Utf8(chunk.iter().copied().collect())],
            )
            .unwrap();
            CompressedBlock::compress(&raw, &cfg).unwrap()
        })
        .collect()
}

/// Streams blocks into an in-memory table file and reopens it as the
/// one-segment table.
fn store_reader(blocks: &[CompressedBlock]) -> SegmentedTable {
    let mut writer = TableWriter::new(Vec::new()).unwrap();
    for b in blocks {
        writer.write_block(b).unwrap();
    }
    let reader = TableReader::from_bytes(writer.finish().unwrap()).unwrap();
    SegmentedTable::from_readers(vec![Arc::new(reader)])
}

/// The decompress-then-sort oracle: filter, stable-order by (value,
/// global position) in the requested direction, take k.
fn topk_oracle(
    values: &[i64],
    block_rows: usize,
    k: usize,
    descending: bool,
    filter: Option<(i64, i64)>,
) -> Vec<TopKRow> {
    let block_rows = block_rows.max(1);
    let mut rows: Vec<TopKRow> = values
        .iter()
        .enumerate()
        .filter(|&(_, &v)| filter.is_none_or(|(lo, hi)| v >= lo && v <= hi))
        .map(|(i, &v)| TopKRow {
            value: v,
            block: (i / block_rows) as u32,
            row: (i % block_rows) as u32,
        })
        .collect();
    rows.sort_by(|a, b| {
        let ord = if descending {
            b.value.cmp(&a.value)
        } else {
            a.value.cmp(&b.value)
        };
        ord.then(a.block.cmp(&b.block)).then(a.row.cmp(&b.row))
    });
    rows.truncate(k);
    rows
}

/// The nested-loop join oracle: probe rows in global order, each matched
/// against every equal build key in build insertion order.
fn join_oracle<T: PartialEq>(
    build: &[T],
    probe: &[T],
    build_block_rows: usize,
    probe_block_rows: usize,
) -> Vec<JoinPair> {
    let (bbr, pbr) = (build_block_rows.max(1), probe_block_rows.max(1));
    let mut pairs = Vec::new();
    for (i, pv) in probe.iter().enumerate() {
        for (j, bv) in build.iter().enumerate() {
            if bv == pv {
                pairs.push(JoinPair {
                    build: RowId {
                        block: (j / bbr) as u32,
                        row: (j % bbr) as u32,
                    },
                    probe: RowId {
                        block: (i / pbr) as u32,
                        row: (i % pbr) as u32,
                    },
                });
            }
        }
    }
    pairs
}

/// One layout of [`top_k_matches_sort_oracle`]: in-memory and store
/// TOP-K at 1 and 4 threads, and the late materialization of the winners,
/// against the sort oracle.
fn check_top_k(
    values: &[i64],
    block_rows: usize,
    k: usize,
    descending: bool,
    force_dict: bool,
) -> Result<(), TestCaseError> {
    let blocks = int_blocks("v", values, block_rows, force_dict);
    let expr = if descending {
        TopKExpr::desc("v", k)
    } else {
        TopKExpr::asc("v", k)
    };
    let want = topk_oracle(values, block_rows, k, descending, None);
    let (got, _) = top_k_blocks(&blocks, &expr).unwrap();
    prop_assert_eq!(&got, &want);

    // Late materialization lands the oracle's values in result order.
    let ids: Vec<RowId> = got.iter().map(TopKRow::id).collect();
    let fetched = gather_rows(&blocks, &ids, &["v"]).unwrap();
    let QueryOutput::Int(vals) = &fetched[0] else {
        panic!("int column")
    };
    prop_assert_eq!(vals, &want.iter().map(|r| r.value).collect::<Vec<_>>());

    if !blocks.is_empty() {
        let reader = store_reader(&blocks);
        let (st, _) = reader.top_k(&expr).unwrap();
        prop_assert_eq!(&st, &want);
        let store_fetched = reader.gather_rows(&ids, &["v"]).unwrap();
        prop_assert_eq!(&store_fetched, &fetched);
    }
    Ok(())
}

proptest! {
    /// TOP-K over arbitrary tie-heavy data equals the sort oracle — rows,
    /// positions and order — serially, morsel-parallel, and through the
    /// store driver (whose footer zones may prune blocks). `k` ranges past
    /// the row count and down to 0; tiny domains force duplicate-heavy
    /// dict/RLE codecs onto their fast paths. Blocks are visited by zone,
    /// not by index, so the same rows are also laid out sorted (disjoint
    /// zones, ascending against a descending query), sorted with the blocks
    /// rotated (zone order ≠ block order), and folded onto three values
    /// (every zone ties with the bound: the position half of the skip rule).
    #[test]
    fn top_k_matches_sort_oracle(
        values in prop::collection::vec(-40i64..40, 0..250),
        block_rows in 1usize..40,
        k in 0usize..300,
        descending in any::<bool>(),
        force_dict in any::<bool>(),
    ) {
        let mut sorted = values.clone();
        sorted.sort_unstable();
        let mut rotated: Vec<&[i64]> = sorted.chunks(block_rows).collect();
        let half = rotated.len() / 2;
        rotated.rotate_left(half);
        let folded = values.iter().map(|v| v.rem_euclid(3)).collect();
        for values in [values, sorted.clone(), rotated.concat(), folded] {
            check_top_k(&values, block_rows, k, descending, force_dict)?;
        }
    }

    /// Filtered TOP-K equals filter-then-sort, including predicates that
    /// prune every block (empty result) or none.
    #[test]
    fn filtered_top_k_matches_oracle(
        values in prop::collection::vec(-60i64..60, 1..200),
        block_rows in 1usize..30,
        k in 0usize..40,
        descending in any::<bool>(),
        lo in -80i64..80,
        width in 0i64..60,
    ) {
        let blocks = int_blocks("v", &values, block_rows, false);
        let base = if descending {
            TopKExpr::desc("v", k)
        } else {
            TopKExpr::asc("v", k)
        };
        let expr = base.with_filter(Predicate::between("v", lo, lo + width));
        let want = topk_oracle(&values, block_rows, k, descending, Some((lo, lo + width)));
        let (got, _) = top_k_blocks(&blocks, &expr).unwrap();
        prop_assert_eq!(&got, &want);
        let reader = store_reader(&blocks);
        let (st, _) = reader.top_k(&expr).unwrap();
        prop_assert_eq!(&st, &want);
    }

    /// Integer-key hash joins on dictionary codes equal the nested-loop
    /// oracle pair for pair, covering empty build sides, probe keys absent
    /// from the build, duplicate build keys, and multi-block probes.
    #[test]
    fn int_join_matches_nested_loop_oracle(
        build in prop::collection::vec(0i64..12, 0..60),
        probe in prop::collection::vec(0i64..16, 0..160),
        build_block_rows in 1usize..20,
        probe_block_rows in 1usize..40,
    ) {
        let build_blocks = int_blocks("k", &build, build_block_rows, true);
        let probe_blocks = int_blocks("p", &probe, probe_block_rows, true);
        let expr = JoinExpr::on("k", "p");
        let want = join_oracle(&build, &probe, build_block_rows, probe_block_rows);
        let (got, stats) = hash_join_blocks(&build_blocks, &probe_blocks, &expr).unwrap();
        prop_assert_eq!(&got, &want);
        prop_assert_eq!(stats.pairs, want.len());

        if !build_blocks.is_empty() && !probe_blocks.is_empty() {
            let b = store_reader(&build_blocks);
            let p = store_reader(&probe_blocks);
            let (st, _) = b.hash_join(&p, &expr).unwrap();
            prop_assert_eq!(&st, &want);
        }
    }

    /// String-key joins remap per-block first-occurrence dictionary codes
    /// to a global key space; results must still equal the nested-loop
    /// oracle even though per-block codes for the same string differ.
    #[test]
    fn string_join_matches_nested_loop_oracle(
        build in prop::collection::vec(0u8..5, 0..40),
        probe in prop::collection::vec(0u8..7, 1..120),
        build_block_rows in 1usize..12,
        probe_block_rows in 1usize..30,
    ) {
        let names = ["NYC", "Albany", "Naples", "Cortland", "Utica", "Troy", "Olean"];
        let build_strs: Vec<&str> = build.iter().map(|&c| names[c as usize]).collect();
        let probe_strs: Vec<&str> = probe.iter().map(|&c| names[c as usize]).collect();
        let build_blocks = str_blocks("city", &build_strs, build_block_rows);
        let probe_blocks = str_blocks("dest", &probe_strs, probe_block_rows);
        let expr = JoinExpr::on("city", "dest");
        let want = join_oracle(&build_strs, &probe_strs, build_block_rows, probe_block_rows);
        let (got, _) = hash_join_blocks(&build_blocks, &probe_blocks, &expr).unwrap();
        prop_assert_eq!(&got, &want);

        if !build_blocks.is_empty() {
            let b = store_reader(&build_blocks);
            let p = store_reader(&probe_blocks);
            let (st, _) = b.hash_join(&p, &expr).unwrap();
            prop_assert_eq!(&st, &want);
        }
    }
}

/// Satellite regression: a TOP-K over a string column — whose dictionary
/// codes are first-occurrence-ordered, not value-ordered — is rejected
/// with a type error on every driver, never answered from code order.
#[test]
fn top_k_on_string_column_is_rejected_everywhere() {
    let blocks = str_blocks("city", &["NYC", "Albany", "NYC", "Troy"], 2);
    let expr = TopKExpr::asc("city", 2);
    assert!(
        matches!(
            top_k_blocks(&blocks, &expr),
            Err(Error::TypeMismatch { .. })
        ),
        "in-memory top-k on a string column must be a type error"
    );
    let reader = store_reader(&blocks);
    assert!(
        matches!(reader.top_k(&expr), Err(Error::TypeMismatch { .. })),
        "store top-k on a string column must be a type error (footer check)"
    );
}

/// `gather_rows_with` is public and takes the caller's `fetch`: ids come
/// back in input order whatever their block order and however often one
/// repeats, each block is fetched once with its rows sorted and
/// deduplicated, and a `fetch` that answers with fewer columns or rows than
/// asked is an error — it used to index out of bounds in release builds.
#[test]
fn gather_rows_with_scatters_back_and_rejects_a_short_fetch() {
    let id = |block, row| RowId { block, row };
    let ids = [id(2, 5), id(0, 9), id(2, 1), id(2, 5), id(0, 0)];
    let mut fetches = Vec::new();
    let got = gather_rows_with(&ids, &["a", "b"], |block, rows, cols| {
        fetches.push((block, rows.to_vec()));
        let value = |c: usize| move |&p: &u32| (block * 100 + p) as i64 * 10 + c as i64;
        Ok((0..cols.len())
            .map(|c| QueryOutput::Int(rows.iter().map(value(c)).collect()))
            .collect())
    })
    .unwrap();
    assert_eq!(fetches, vec![(0, vec![0, 9]), (2, vec![1, 5])]);
    assert_eq!(got[0], QueryOutput::Int(vec![2050, 90, 2010, 2050, 0]));
    assert_eq!(got[1], QueryOutput::Int(vec![2051, 91, 2011, 2051, 1]));

    let one_column =
        |_: u32, rows: &[u32], _: &[&str]| Ok(vec![QueryOutput::Int(vec![0; rows.len()])]);
    assert!(matches!(
        gather_rows_with(&ids, &["a", "b"], one_column),
        Err(Error::InvalidData(_))
    ));
    let one_row_short =
        |_: u32, rows: &[u32], _: &[&str]| Ok(vec![QueryOutput::Int(vec![0; rows.len() - 1])]);
    assert!(matches!(
        gather_rows_with(&ids, &["a"], one_row_short),
        Err(Error::InvalidData(_))
    ));
}

/// A row id past its block is an error, refused against the block's rows
/// before any per-block structure is built: no bitmap as long as the row
/// id, so `u32::MAX` allocates nothing before the refusal.
#[test]
fn gather_rows_refuses_a_row_past_its_block() {
    let blocks = int_blocks("a", &[1, 2, 3], 3, false);
    for row in [3, u32::MAX] {
        let got = gather_rows(&blocks, &[RowId { block: 0, row }], &["a"]);
        assert!(matches!(got, Err(Error::InvalidData(_))), "{row}: {got:?}");
    }
}

/// Satellite regression: joining on a key column that is not
/// dictionary-encoded is rejected up front — the code-domain build/probe
/// would otherwise hash raw codes from unrelated key spaces.
#[test]
fn join_on_non_dict_key_is_rejected() {
    let cfg = CompressionConfig::baseline().with("k", ColumnPlan::Plain);
    let raw = DataBlock::new(
        Schema::new(vec![Field::new("k", DataType::Int64)]).unwrap(),
        vec![Column::Int64(vec![1, 2, 3, 4])],
    )
    .unwrap();
    let plain = vec![CompressedBlock::compress(&raw, &cfg).unwrap()];
    let dict = int_blocks("p", &[1, 2, 2, 3], 4, true);
    let expr = JoinExpr::on("k", "p");
    assert!(
        hash_join_blocks(&plain, &dict, &expr).is_err(),
        "plain-encoded build key must be rejected"
    );
    let expr_rev = JoinExpr::on("p", "k");
    assert!(
        hash_join_blocks(&dict, &plain, &expr_rev).is_err(),
        "plain-encoded probe key must be rejected"
    );
}

/// The segmented drivers agree with the single-table ones: TOP-K and
/// joins over a multi-segment ingest land the same rows/pairs (modulo the
/// global block numbering) as the flat oracles.
#[test]
fn segmented_top_k_and_join_match_oracles() {
    let config = IngestConfig {
        block_rows: 64,
        // The join key must be dictionary-encoded; don't let the chooser
        // pick FOR on these small near-uniform chunks.
        compression: CompressionConfig::baseline().with("v", ColumnPlan::Dict),
        ..IngestConfig::default()
    };
    let schema = Schema::new(vec![Field::new("v", DataType::Int64)]).unwrap();
    let mut table = IngestTable::create(Arc::new(SimVfs::new(7)), config.clone()).unwrap();
    let mut all: Vec<i64> = Vec::new();
    for (lo, hi) in [(0i64, 100), (300, 500), (50, 120)] {
        let chunk: Vec<i64> = (lo..hi).map(|i| i % 37).collect();
        all.extend_from_slice(&chunk);
        table
            .append(
                corra_columnar::block::Table::new(schema.clone(), vec![Column::Int64(chunk)])
                    .unwrap(),
            )
            .unwrap();
    }
    let seg = table.reader().unwrap();

    let expr = TopKExpr::desc("v", 17);
    let (got, _) = seg.top_k(&expr).unwrap();
    let mut want: Vec<i64> = all.clone();
    want.sort_unstable_by(|a, b| b.cmp(a));
    want.truncate(17);
    let got_vals: Vec<i64> = got.iter().map(|r| r.value).collect();
    assert_eq!(got_vals, want, "segmented top-k values diverge from sort");
    let ids: Vec<RowId> = got.iter().map(TopKRow::id).collect();
    let QueryOutput::Int(vals) = &seg.gather_rows(&ids, &["v"]).unwrap()[0] else {
        panic!("int column")
    };
    assert_eq!(vals, &got_vals, "segmented gather must land top-k values");

    // Self-join through two independent segmented tables: pair count is
    // the sum over keys of build-count * probe-count.
    let mut probe_table = IngestTable::create(Arc::new(SimVfs::new(7)), config).unwrap();
    let probe_vals: Vec<i64> = (0..150).map(|i| i % 41).collect();
    probe_table
        .append(
            corra_columnar::block::Table::new(schema, vec![Column::Int64(probe_vals.clone())])
                .unwrap(),
        )
        .unwrap();
    let probe_seg = probe_table.reader().unwrap();
    let expr = JoinExpr::on("v", "v");
    let (pairs, stats) = seg.hash_join(&probe_seg, &expr).unwrap();
    let expected: usize = probe_vals
        .iter()
        .map(|p| all.iter().filter(|b| b == &p).count())
        .sum();
    assert_eq!(pairs.len(), expected, "segmented join pair count");
    assert_eq!(stats.pairs, expected);
}
