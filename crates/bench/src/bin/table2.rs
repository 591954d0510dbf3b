//! **Table 2** — Space saving over single-column encoding schemes, for all
//! seven column configurations across the four datasets.
//!
//! ```sh
//! CORRA_ROWS=4000000 cargo run --release -p corra-bench --bin table2
//! ```
//!
//! Sizes are measured at `CORRA_ROWS` scale and extrapolated linearly to
//! the paper's row counts for the MB columns; saving rates are scale-free.

use corra_bench::{
    column_bytes, compress_table, emit_json, paper_scale, print_size_table, table2_lineitem,
    table2_taxi, SizeRow,
};
use corra_core::{ColumnPlan, CompressionConfig};
use corra_datagen::{rows_from_env, DmvParams, DmvTable, MessageParams, MessageTable};

fn main() {
    let rows = rows_from_env();
    println!("Table 2 reproduction at {rows} rows per dataset (CORRA_ROWS to change)\n");
    let mut out: Vec<SizeRow> = Vec::new();

    // --- TPC-H lineitem: receiptdate & commitdate vs shipdate (§2.1), and
    // Taxi: dropoff vs pickup (§2.1) and total_amount vs groups (§2.3).
    out.extend(table2_lineitem(rows));
    out.extend(table2_taxi(rows));

    // --- DMV: zip vs city and city vs state (§2.2). Two configurations —
    // a column cannot be reference and diff-encoded at once.
    {
        let table = DmvTable::generate(DmvParams::scaled(rows), 11).into_table();
        let baseline_cfg = CompressionConfig::baseline();
        let zip_cfg = CompressionConfig::baseline().with(
            "zip",
            ColumnPlan::Hier {
                reference: "city".into(),
            },
        );
        let city_cfg = CompressionConfig::baseline().with(
            "city",
            ColumnPlan::Hier {
                reference: "state".into(),
            },
        );
        let (_, base) = compress_table(table.clone(), &baseline_cfg);
        let (_, zip_comp) = compress_table(table.clone(), &zip_cfg);
        let (_, city_comp) = compress_table(table, &city_cfg);
        out.push(SizeRow {
            dataset: "DMV".into(),
            column: "zip-code".into(),
            encoding: "Hierarchical".into(),
            reference: "city".into(),
            baseline_bytes: column_bytes(&base, "zip"),
            corra_bytes: column_bytes(&zip_comp, "zip"),
            rows,
            paper_rows: paper_scale::DMV_ROWS,
            paper_saving: 0.537,
        });
        out.push(SizeRow {
            dataset: "DMV".into(),
            column: "city".into(),
            encoding: "Hierarchical".into(),
            reference: "state".into(),
            baseline_bytes: column_bytes(&base, "city"),
            corra_bytes: column_bytes(&city_comp, "city"),
            rows,
            paper_rows: paper_scale::DMV_ROWS,
            paper_saving: 0.018,
        });
    }

    // --- LDBC message: ip vs countryid (§2.2).
    {
        let table = MessageTable::generate(MessageParams::scaled(rows), 31).into_table();
        let baseline_cfg = CompressionConfig::baseline();
        let corra_cfg = CompressionConfig::baseline().with(
            "ip",
            ColumnPlan::Hier {
                reference: "countryid".into(),
            },
        );
        let (_, base) = compress_table(table.clone(), &baseline_cfg);
        let (_, corra) = compress_table(table, &corra_cfg);
        out.push(SizeRow {
            dataset: "message (SF 30)".into(),
            column: "ip".into(),
            encoding: "Hierarchical".into(),
            reference: "countryid".into(),
            baseline_bytes: column_bytes(&base, "ip"),
            corra_bytes: column_bytes(&corra, "ip"),
            rows,
            paper_rows: paper_scale::MESSAGE_ROWS,
            paper_saving: 0.171,
        });
    }

    // Order rows like the paper's Table 2.
    let order = [
        "l_receiptdate",
        "l_commitdate",
        "dropff",
        "zip-code",
        "city",
        "ip",
        "total_amount",
    ];
    out.sort_by_key(|r| order.iter().position(|&c| c == r.column).unwrap_or(99));
    print_size_table(&out);
    emit_json("table2", &out);
}
