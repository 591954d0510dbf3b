//! **Table 1** — Diff-encoding `total_amount` in the Taxi dataset w.r.t.
//! multiple reference columns: the formula mixture, its probabilities, and
//! the binary codes Corra assigns.
//!
//! ```sh
//! cargo run --release -p corra-bench --bin table1
//! ```

use corra_bench::{emit_json, table1_encoding, table1_rows};
use corra_datagen::rows_from_env;

fn main() {
    let rows = rows_from_env();
    let enc = table1_encoding(rows);
    println!("Table 1 reproduction: Taxi total_amount vs reference groups, {rows} rows\n");
    let stats = enc.stats();
    let rows_out = table1_rows(&stats);

    println!(
        "{:<16} {:>12} {:>16}",
        "Group", "Probability", "Binary Encoding"
    );
    for (desc, prob, code) in &rows_out {
        println!("{desc:<16} {:>11.2}% {code:>16}", prob * 100.0);
    }
    println!(
        "{:<16} {:>11.2}% {:>16}",
        "None",
        stats.outlier_rate() * 100.0,
        "outlier"
    );

    println!("\npaper:      A 31.19%  A+B 62.44%  A+C 2.69%  A+B+C 3.33%  outlier 0.32%");
    println!(
        "code width: {} bits (outliers identified by index, no sentinel needed — §2.3)",
        enc.code_bits()
    );
    emit_json(
        "table1",
        &serde_json::json!({
            "formulas": rows_out,
            "outlier_rate": stats.outlier_rate(),
            "code_bits": enc.code_bits(),
        }),
    );
}
