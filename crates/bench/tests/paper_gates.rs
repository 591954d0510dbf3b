//! The paper's results that reproduce today, as tier-1 gates. Each gate
//! calls the construction its `table1` / `table2` bin prints, with the
//! bins' seeds, at a row count chosen for the gate's tolerance.

use corra_bench::{table1_encoding, table1_rows, table2_lineitem, table2_taxi, SizeRow};

/// Rows for the Table 2 gates: a saving rate is scale-free, and the
/// lineitem savings are exact at any size.
const TABLE2_ROWS: usize = 100_000;

/// Rows for the Table 1 gate. A formula's share is a sampled fraction, so
/// 0.1 percentage points must span at least two binomial standard errors
/// of every cell: at 1 M rows it spans 2.07 for A + B (p ≈ 0.62, the
/// widest), while at 100 K rows sampling alone misses cell A by 0.11
/// points. The seed stays the bin's.
const TABLE1_ROWS: usize = 1_000_000;

fn saving(rows: &[SizeRow], column: &str) -> f64 {
    rows.iter()
        .find(|r| r.column == column)
        .unwrap_or_else(|| panic!("no Table 2 row for {column}"))
        .saving()
}

#[test]
fn table2_lineitem_savings_equal_the_papers() {
    // NonHier stores each date as a bounded difference from the ship date,
    // so both savings are fixed by the generator's ranges.
    let rows = table2_lineitem(TABLE2_ROWS);
    for (column, paper) in [("l_receiptdate", 0.583), ("l_commitdate", 0.333)] {
        let got = saving(&rows, column);
        assert_eq!(
            (got * 1000.0).round() / 1000.0,
            paper,
            "{column} saves {got:.5}, the paper {paper}"
        );
    }
}

#[test]
fn table2_total_amount_saves_at_least_80_percent() {
    // The paper's 85.2 % rests on formula codes of 2 bits against a vertical
    // column of dollar amounts; we measure 83.2 %.
    let got = saving(&table2_taxi(TABLE2_ROWS), "total_amount");
    assert!(got >= 0.80, "total_amount saves {got:.4}");
}

#[test]
fn table1_mixture_is_within_a_tenth_of_a_point_of_the_papers() {
    let stats = table1_encoding(TABLE1_ROWS).stats();
    let mut got: Vec<(String, f64)> = table1_rows(&stats)
        .into_iter()
        .map(|(formula, share, _)| (formula, share))
        .collect();
    got.push(("outlier".into(), stats.outlier_rate()));
    let paper = [
        ("A", 31.19),
        ("A + B", 62.44),
        ("A + C", 2.69),
        ("A + B + C", 3.33),
        ("outlier", 0.32),
    ];
    assert_eq!(
        got.iter().map(|(f, _)| f.as_str()).collect::<Vec<_>>(),
        paper.map(|(f, _)| f),
        "Table 1's formulas"
    );
    for ((formula, share), (_, pct)) in got.iter().zip(paper) {
        assert!(
            (share * 100.0 - pct).abs() <= 0.1,
            "{formula}: {:.2} % against the paper's {pct} %",
            share * 100.0
        );
    }
}
