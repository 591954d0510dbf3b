//! Shared experiment harness: dataset builders, timing utilities and
//! paper-scale extrapolation used by the per-table/per-figure binaries.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

use std::time::Instant;

use corra_columnar::block::{DataBlock, Table, DEFAULT_BLOCK_ROWS};
use corra_columnar::selection::SelectionVector;
use corra_core::{ColumnPlan, CompressedBlock, CompressionConfig, FormulaStats, MultiRefInt};
use corra_datagen::{LineitemDates, TaxiParams, TaxiTable};

/// Paper row counts for extrapolating measured bytes to paper scale.
pub mod paper_scale {
    /// TPC-H lineitem SF 10.
    pub const LINEITEM_ROWS: usize = 59_986_052;
    /// LDBC message SF 30.
    pub const MESSAGE_ROWS: usize = 76_388_857;
    /// NYS DMV registrations.
    pub const DMV_ROWS: usize = 12_176_621;
    /// NYC Taxi after cleaning.
    pub const TAXI_ROWS: usize = 37_891_377;
}

/// One row of a compression-size experiment (Table 2 shape).
#[derive(Debug, Clone)]
pub struct SizeRow {
    /// Dataset label as printed in the paper.
    pub dataset: String,
    /// Column being measured.
    pub column: String,
    /// Encoding family label.
    pub encoding: String,
    /// Reference column label.
    pub reference: String,
    /// Measured baseline bytes at experiment scale.
    pub baseline_bytes: usize,
    /// Measured Corra bytes at experiment scale.
    pub corra_bytes: usize,
    /// Rows at experiment scale.
    pub rows: usize,
    /// Paper-scale rows for extrapolation.
    pub paper_rows: usize,
    /// Paper's reported saving rate (fraction), for the comparison column.
    pub paper_saving: f64,
}

// The serde shim has no derive macro (offline build, see shims/README.md),
// so Serialize is spelled out by hand.
impl serde::Serialize for SizeRow {
    fn to_value(&self) -> serde::Value {
        serde_json::json!({
            "dataset": self.dataset,
            "column": self.column,
            "encoding": self.encoding,
            "reference": self.reference,
            "baseline_bytes": self.baseline_bytes,
            "corra_bytes": self.corra_bytes,
            "rows": self.rows,
            "paper_rows": self.paper_rows,
            "paper_saving": self.paper_saving,
        })
    }
}

impl SizeRow {
    /// Measured saving rate.
    pub fn saving(&self) -> f64 {
        1.0 - self.corra_bytes as f64 / self.baseline_bytes.max(1) as f64
    }

    /// Extrapolates measured bytes to paper scale (linear in rows — exact
    /// for payload, approximate for constant metadata).
    pub fn extrapolate(&self, bytes: usize) -> f64 {
        bytes as f64 * self.paper_rows as f64 / self.rows.max(1) as f64
    }
}

/// Prints a Table 2-style report.
pub fn print_size_table(rows: &[SizeRow]) {
    println!(
        "{:<16} {:<14} {:<16} {:<12} {:>12} {:>12} {:>9} {:>9}",
        "Dataset", "Column", "Encoding", "Ref.column", "w/o diff", "w/ diff", "saving", "paper"
    );
    for r in rows {
        println!(
            "{:<16} {:<14} {:<16} {:<12} {:>9.2} MB {:>9.2} MB {:>8.1}% {:>8.1}%",
            r.dataset,
            r.column,
            r.encoding,
            r.reference,
            r.extrapolate(r.baseline_bytes) / 1e6,
            r.extrapolate(r.corra_bytes) / 1e6,
            r.saving() * 100.0,
            r.paper_saving * 100.0,
        );
    }
}

/// Emits machine-readable JSON next to the human table.
pub fn emit_json<T: serde::Serialize>(label: &str, value: &T) {
    match serde_json::to_string(value) {
        Ok(s) => println!("\n##JSON {label} {s}"),
        Err(e) => eprintln!("json emit failed: {e}"),
    }
}

/// Splits a table into paper-sized blocks and compresses with `config`.
pub fn compress_table(
    table: Table,
    config: &CompressionConfig,
) -> (Vec<DataBlock>, Vec<CompressedBlock>) {
    let blocks = table.into_blocks(DEFAULT_BLOCK_ROWS);
    let threads = std::thread::available_parallelism().map_or(4, |n| n.get());
    let compressed =
        corra_core::compress_blocks(&blocks, config, threads).expect("compression failed");
    (blocks, compressed)
}

/// Sums a column's compressed bytes across blocks.
pub fn column_bytes(blocks: &[CompressedBlock], column: &str) -> usize {
    blocks
        .iter()
        .map(|b| b.column_bytes(column).expect("column exists"))
        .sum()
}

/// Table 1: Taxi `total_amount` (`rows` rows, seed 23) encoded over its
/// three reference groups with 2-bit formula codes.
pub fn table1_encoding(rows: usize) -> MultiRefInt {
    let taxi = TaxiTable::generate(
        TaxiParams {
            rows,
            ..Default::default()
        },
        23,
    );
    let [a, b, c] = taxi.group_sums();
    MultiRefInt::encode(&taxi.total_amount, &[a, b, c], 2).expect("encode")
}

/// Table 1's rows for an encoding's `stats`: each formula with the
/// fraction of rows it covers and its binary code, in the paper's order
/// (A, A+B, A+C, A+B+C; codes themselves are assigned by coverage).
pub fn table1_rows(stats: &FormulaStats) -> Vec<(String, f64, String)> {
    let mut rows: Vec<(String, f64, String)> = stats
        .formulas
        .iter()
        .enumerate()
        .map(|(code, (f, count))| {
            (
                f.describe(),
                *count as f64 / stats.rows as f64,
                format!("{code:02b}"),
            )
        })
        .collect();
    rows.sort_by(|x, y| x.0.len().cmp(&y.0.len()).then(x.0.cmp(&y.0)));
    rows
}

/// Table 2's lineitem rows: `l_receiptdate` and `l_commitdate`
/// NonHier-encoded against `l_shipdate` (§2.1), `rows` rows of TPC-H
/// dates (seed 42).
pub fn table2_lineitem(rows: usize) -> Vec<SizeRow> {
    let table = LineitemDates::generate(rows, 42).into_table();
    let against_ship = || ColumnPlan::NonHier {
        reference: "l_shipdate".into(),
    };
    let corra_cfg = CompressionConfig::baseline()
        .with("l_commitdate", against_ship())
        .with("l_receiptdate", against_ship());
    let (_, base) = compress_table(table.clone(), &CompressionConfig::baseline());
    let (_, corra) = compress_table(table, &corra_cfg);
    [("l_receiptdate", 0.583), ("l_commitdate", 0.333)]
        .into_iter()
        .map(|(col, paper_saving)| SizeRow {
            dataset: "lineitem (SF 10)".into(),
            column: col.into(),
            encoding: "Non-hierarchical".into(),
            reference: "l_shipdate".into(),
            baseline_bytes: column_bytes(&base, col),
            corra_bytes: column_bytes(&corra, col),
            rows,
            paper_rows: paper_scale::LINEITEM_ROWS,
            paper_saving,
        })
        .collect()
}

/// Table 2's Taxi rows: `dropoff` NonHier-encoded against `pickup` (§2.1)
/// and `total_amount` over its reference groups (§2.3), `rows` rows
/// (seed 23).
pub fn table2_taxi(rows: usize) -> Vec<SizeRow> {
    let taxi = TaxiTable::generate(
        TaxiParams {
            rows,
            ..Default::default()
        },
        23,
    );
    let groups = TaxiTable::reference_groups();
    let table = taxi.into_table();
    let corra_cfg = CompressionConfig::baseline()
        .with(
            "dropoff",
            ColumnPlan::NonHier {
                reference: "pickup".into(),
            },
        )
        .with(
            "total_amount",
            ColumnPlan::MultiRef {
                groups,
                code_bits: 2,
            },
        );
    let (_, base) = compress_table(table.clone(), &CompressionConfig::baseline());
    let (_, corra) = compress_table(table, &corra_cfg);
    let row = |label: &str, col: &str, reference: &str, paper_saving| SizeRow {
        dataset: "Taxi".into(),
        column: label.into(),
        encoding: "Non-hierarchical".into(),
        reference: reference.into(),
        baseline_bytes: column_bytes(&base, col),
        corra_bytes: column_bytes(&corra, col),
        rows,
        paper_rows: paper_scale::TAXI_ROWS,
        paper_saving,
    };
    vec![
        row("dropff", "dropoff", "pickup", 0.306),
        row("total_amount", "total_amount", "multiple (§2.3)", 0.8516),
    ]
}

/// Times `f` over `reps` repetitions and returns the median seconds.
pub fn median_secs(reps: usize, mut f: impl FnMut()) -> f64 {
    let mut samples: Vec<f64> = (0..reps.max(1))
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed().as_secs_f64()
        })
        .collect();
    samples.sort_by(f64::total_cmp);
    samples[samples.len() / 2]
}

/// Materializes `column` at every selection vector against every block,
/// returning total wall time in seconds. This is the paper's query shape:
/// decompress and materialize values at the selected positions.
pub fn time_query_column(
    blocks: &[CompressedBlock],
    column: &str,
    selections: &[Vec<SelectionVector>],
) -> f64 {
    let t = Instant::now();
    for (block, sels) in blocks.iter().zip(selections) {
        for sel in sels {
            let out = corra_core::query_column(block, column, sel).expect("query");
            std::hint::black_box(out);
        }
    }
    t.elapsed().as_secs_f64()
}

/// Times "query on both columns" for a horizontal target.
pub fn time_query_both(
    blocks: &[CompressedBlock],
    column: &str,
    selections: &[Vec<SelectionVector>],
) -> f64 {
    let t = Instant::now();
    for (block, sels) in blocks.iter().zip(selections) {
        for sel in sels {
            let out = corra_core::query_both(block, column, sel).expect("query both");
            std::hint::black_box(out);
        }
    }
    t.elapsed().as_secs_f64()
}

/// Times two independent column materializations (the baseline's version of
/// "query on both columns").
pub fn time_query_two(
    blocks: &[CompressedBlock],
    target: &str,
    reference: &str,
    selections: &[Vec<SelectionVector>],
) -> f64 {
    let t = Instant::now();
    for (block, sels) in blocks.iter().zip(selections) {
        for sel in sels {
            let out =
                corra_core::query_two_columns(block, target, reference, sel).expect("query two");
            std::hint::black_box(out);
        }
    }
    t.elapsed().as_secs_f64()
}

/// Builds the paper's per-selectivity workload for every block: `n` uniform
/// selection vectors per block (the paper uses 10).
pub fn block_workloads(
    blocks: &[CompressedBlock],
    selectivity: f64,
    n: usize,
    seed: u64,
) -> Vec<Vec<SelectionVector>> {
    blocks
        .iter()
        .enumerate()
        .map(|(i, b)| {
            corra_columnar::selection::workload(b.rows(), selectivity, n, seed ^ (i as u64) << 32)
        })
        .collect()
}

/// A latency measurement at one selectivity (Fig. 5/8 shape).
#[derive(Debug, Clone)]
pub struct LatencyPoint {
    /// Selectivity of the workload.
    pub selectivity: f64,
    /// Baseline (single-column) seconds.
    pub baseline_secs: f64,
    /// Corra seconds.
    pub corra_secs: f64,
}

impl serde::Serialize for LatencyPoint {
    fn to_value(&self) -> serde::Value {
        serde_json::json!({
            "selectivity": self.selectivity,
            "baseline_secs": self.baseline_secs,
            "corra_secs": self.corra_secs,
        })
    }
}

impl LatencyPoint {
    /// Corra-over-baseline latency ratio (the y-axis of Fig. 5/8).
    pub fn ratio(&self) -> f64 {
        self.corra_secs / self.baseline_secs.max(f64::MIN_POSITIVE)
    }
}

/// Warm-up + repetition count used by the latency binaries (paper: 10
/// selection vectors per selectivity; we time the batch and repeat).
pub const LATENCY_REPS: usize = 5;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn size_row_math() {
        let r = SizeRow {
            dataset: "x".into(),
            column: "c".into(),
            encoding: "e".into(),
            reference: "r".into(),
            baseline_bytes: 1_000,
            corra_bytes: 400,
            rows: 100,
            paper_rows: 1_000,
            paper_saving: 0.6,
        };
        assert!((r.saving() - 0.6).abs() < 1e-12);
        assert!((r.extrapolate(400) - 4_000.0).abs() < 1e-9);
    }

    #[test]
    fn median_is_robust() {
        let mut calls = 0;
        let m = median_secs(5, || calls += 1);
        assert_eq!(calls, 5);
        assert!(m >= 0.0);
    }

    #[test]
    fn latency_ratio() {
        let p = LatencyPoint {
            selectivity: 0.01,
            baseline_secs: 2.0,
            corra_secs: 3.0,
        };
        assert!((p.ratio() - 1.5).abs() < 1e-12);
    }
}
