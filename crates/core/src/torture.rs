//! Exhaustive corruption sweeps over serialized table files.
//!
//! One shared implementation of the hostile-input invariants the store
//! promises, driven both by the `corra-core` integration tests and by the
//! `corra-sim` torture harness:
//!
//! * **Truncation** — every strict prefix of a table file must be rejected
//!   by [`TableReader::from_bytes`]; never a panic, never a reader.
//! * **Bit flips** — flipping any single bit anywhere in the file must
//!   leave every read/scan/aggregate either returning `Err` or returning
//!   a result *identical* to the clean file's (a flip the operation never
//!   touches). Silently different data is the one forbidden outcome —
//!   made checkable end-to-end by the footer v4 checksums.
//!
//! [`corruption_sweep`] panics (with the offending byte offset) on any
//! violation, so it drops straight into `#[test]` functions, and returns a
//! [`SweepReport`] so callers can assert the sweep actually exercised
//! detection paths.

use std::sync::Arc;

use crate::aggregate::AggExpr;
use crate::io::checksum64;
use crate::scan::{scan, Predicate};
use crate::store::{SegmentedTable, TableReader};

/// Tuning knobs for [`corruption_sweep`].
#[derive(Debug, Clone)]
pub struct SweepOptions {
    /// Run the truncation sweep (every strict prefix must be rejected).
    pub truncation: bool,
    /// Run the bit-flip sweep.
    pub bit_flips: bool,
    /// Byte stride of the flip sweep: flip one bit at every `flip_stride`-th
    /// offset (1 = every byte). The quick sim profile raises this to bound
    /// runtime; the core tests keep it at 1.
    pub flip_stride: usize,
    /// Of the offsets whose flip still *opens*, run the deep operation
    /// suite (decode/scan/aggregate) on every `deep_stride`-th; the rest
    /// only assert open-or-reject. 1 = deep everywhere.
    pub deep_stride: usize,
    /// The bit mask XORed into the target byte.
    pub flip_mask: u8,
}

impl Default for SweepOptions {
    fn default() -> Self {
        Self {
            truncation: true,
            bit_flips: true,
            flip_stride: 1,
            deep_stride: 3,
            flip_mask: 0x80,
        }
    }
}

impl SweepOptions {
    /// A bounded profile for harness use: roughly `budget` flip offsets
    /// spread evenly across the file, deep ops at every one of them.
    #[must_use]
    pub fn quick(file_len: usize, budget: usize) -> Self {
        Self {
            flip_stride: (file_len / budget.max(1)).max(1),
            deep_stride: 1,
            ..Self::default()
        }
    }
}

/// What a [`corruption_sweep`] actually exercised.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct SweepReport {
    /// Truncated prefixes tested (all rejected, or we panicked).
    pub truncations_rejected: usize,
    /// Flip offsets tested.
    pub flips_tested: usize,
    /// Flips rejected already at open (footer/trailer/magic region).
    pub flips_rejected_at_open: usize,
    /// Flips that opened but made at least one deep operation `Err`.
    pub flips_rejected_by_ops: usize,
    /// Flips every deep operation survived with results identical to the
    /// clean baseline (the flip landed in bytes no operation consumed).
    pub flips_harmless: usize,
}

/// The operation suite: every entry runs against clean and flipped bytes
/// and is compared by fingerprint. Ops are derived from the clean footer
/// (first integer column, first string column) so the sweep works on any
/// table, not just the test fixtures.
struct OpPlan {
    n_blocks: usize,
    /// First integer column and the midpoint of its zone (forces a kernel
    /// scan rather than an All/None footer verdict).
    int_col: Option<(String, i64)>,
    str_col: Option<String>,
}

impl OpPlan {
    fn from_reader(reader: &TableReader) -> Self {
        let footer = reader.footer();
        let mut int_col = None;
        let mut str_col = None;
        for (i, field) in footer.schema.fields().iter().enumerate() {
            let is_string = footer
                .blocks
                .first()
                .map(|b| b.columns[i].header.is_string())
                .unwrap_or(field.data_type() == corra_columnar::column::DataType::Utf8);
            if is_string {
                if str_col.is_none() {
                    str_col = Some(field.name().to_owned());
                }
            } else if int_col.is_none() {
                let mid = footer
                    .blocks
                    .iter()
                    .filter_map(|b| b.columns[i].zone)
                    .map(|z| ((i128::from(z.min) + i128::from(z.max)) / 2) as i64)
                    .next()
                    .unwrap_or(0);
                int_col = Some((field.name().to_owned(), mid));
            }
        }
        Self {
            n_blocks: footer.blocks.len(),
            int_col,
            str_col,
        }
    }
}

/// `Some(fingerprint)` for `Ok`, `None` for `Err`. Fingerprints are
/// [`checksum64`]s of the debug rendering — equality is all the sweep needs.
fn fp<T: std::fmt::Debug>(result: corra_columnar::error::Result<T>) -> Option<u64> {
    result.ok().map(|v| checksum64(format!("{v:?}").as_bytes()))
}

/// Runs the full operation suite, or `None` when the file does not open.
fn run_ops(bytes: &[u8], plan: &OpPlan) -> Option<Vec<Option<u64>>> {
    let reader = TableReader::from_bytes(bytes.to_vec()).ok()?;
    let table = SegmentedTable::from_readers(vec![Arc::new(reader)]);
    let mut out = Vec::new();
    for b in 0..plan.n_blocks {
        out.push(fp(table.read_block(b)));
        if let Some((col, mid)) = &plan.int_col {
            out.push(fp(table.read_column(b, col)));
            let pred = Predicate::ge(col, *mid);
            out.push(fp(table.block_handle(b).and_then(|h| scan(&h, &pred))));
        }
        if let Some(col) = &plan.str_col {
            out.push(fp(table.read_column(b, col)));
        }
    }
    if let Some((col, mid)) = &plan.int_col {
        out.push(fp(table.aggregate(&AggExpr::sum(col)).map(|(r, _)| r)));
        out.push(fp(table.aggregate(&AggExpr::min(col)).map(|(r, _)| r)));
        out.push(fp(table
            .aggregate(&AggExpr::count().with_filter(Predicate::ge(col, *mid)))
            .map(|(r, _)| r)));
        if let Some(group) = &plan.str_col {
            out.push(fp(table
                .aggregate(&AggExpr::sum(col).with_group_by(group))
                .map(|(r, _)| r)));
        }
    }
    Some(out)
}

/// Sweeps truncations and single-bit flips over `bytes` (a complete table
/// file), asserting the store's hostile-input invariants hold at every
/// offset. Panics, naming the offset, on any violation:
///
/// * a truncated prefix that opens;
/// * any panic out of the read path (propagates from the op itself);
/// * a flipped file where some operation returns `Ok` with a result that
///   differs from the clean baseline — silently wrong data.
///
/// # Panics
///
/// On any invariant violation, or if `bytes` is not itself a clean,
/// openable table file.
pub fn corruption_sweep(bytes: &[u8], opts: &SweepOptions) -> SweepReport {
    let clean = TableReader::from_bytes(bytes.to_vec()).expect("sweep input must open cleanly");
    let plan = OpPlan::from_reader(&clean);
    drop(clean);
    let baseline = run_ops(bytes, &plan).expect("sweep input must open cleanly");
    let mut report = SweepReport::default();
    if opts.truncation {
        for cut in 0..bytes.len() {
            assert!(
                TableReader::from_bytes(bytes[..cut].to_vec()).is_err(),
                "truncated prefix of {cut} bytes was accepted"
            );
            report.truncations_rejected += 1;
        }
    }
    if opts.bit_flips {
        let mut deep_tick = 0usize;
        for i in (0..bytes.len()).step_by(opts.flip_stride.max(1)) {
            let mut hostile = bytes.to_vec();
            hostile[i] ^= opts.flip_mask;
            report.flips_tested += 1;
            if TableReader::from_bytes(hostile.clone()).is_err() {
                report.flips_rejected_at_open += 1;
                continue;
            }
            deep_tick += 1;
            if deep_tick % opts.deep_stride.max(1) != 0 {
                continue;
            }
            let got = run_ops(&hostile, &plan).expect("opened above");
            let mut any_err = false;
            for (op, (g, want)) in got.iter().zip(&baseline).enumerate() {
                match g {
                    None => any_err = true,
                    Some(fp) => assert_eq!(
                        Some(fp),
                        want.as_ref(),
                        "byte {i} (mask {:#04x}): op {op} returned Ok with data \
                         diverging from the clean baseline",
                        opts.flip_mask
                    ),
                }
            }
            if any_err {
                report.flips_rejected_by_ops += 1;
            } else {
                report.flips_harmless += 1;
            }
        }
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compressor::{CompressedBlock, CompressionConfig};
    use crate::store::TableWriter;
    use corra_columnar::block::DataBlock;
    use corra_columnar::column::{Column, DataType};
    use corra_columnar::schema::{Field, Schema};

    fn tiny_table() -> Vec<u8> {
        let block = DataBlock::new(
            Schema::new(vec![
                Field::new("k", DataType::Int64),
                Field::new("tag", DataType::Utf8),
            ])
            .unwrap(),
            vec![
                Column::Int64((0..64).map(|i| i * 3 % 17).collect()),
                Column::Utf8((0..64).map(|i| ["a", "b", "c"][i % 3]).collect()),
            ],
        )
        .unwrap();
        let compressed = CompressedBlock::compress(&block, &CompressionConfig::baseline()).unwrap();
        let mut writer = TableWriter::new(Vec::new()).unwrap();
        writer.write_block(&compressed).unwrap();
        writer.finish().unwrap()
    }

    #[test]
    fn sweep_passes_on_a_clean_checksummed_table() {
        let bytes = tiny_table();
        let report = corruption_sweep(&bytes, &SweepOptions::default());
        assert_eq!(report.truncations_rejected, bytes.len());
        assert!(report.flips_tested > 0);
        // With v4 checksums every flip in footer/trailer bytes is caught at
        // open, and payload flips are caught by the payload checksum in
        // whichever op touches them.
        assert!(report.flips_rejected_at_open > 0);
        assert!(report.flips_rejected_by_ops > 0);
    }

    #[test]
    #[should_panic(expected = "sweep input must open cleanly")]
    fn sweep_rejects_garbage_input() {
        corruption_sweep(&[0u8; 64], &SweepOptions::default());
    }

    #[test]
    fn quick_profile_bounds_offsets() {
        let opts = SweepOptions::quick(10_000, 50);
        assert_eq!(opts.flip_stride, 200);
        assert_eq!(opts.deep_stride, 1);
    }
}
