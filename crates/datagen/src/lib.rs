//! # corra-datagen
//!
//! From-scratch synthetic generators that reproduce the *correlation
//! structure* of the four datasets the Corra paper evaluates on:
//!
//! | Paper dataset | Module | Correlations reproduced |
//! |---|---|---|
//! | TPC-H `lineitem` SF 10 | [`tpch`] | bounded date differences mandated by the TPC-H spec |
//! | LDBC SNB `message` SF 30 | [`ldbc`] | country → IP hierarchy |
//! | NYS DMV registrations | [`dmv`] | city → zip and state → city hierarchies |
//! | NYC Yellow Taxi | [`taxi`] | pickup → dropoff diff; Table 1 arithmetic mixture for `total_amount`; the paper's cleaning rules |
//!
//! A fifth, non-paper workload — [`timeseries`], a streaming log with
//! monotonic timestamps, hot-key device skew and sticky status runs —
//! exists to exercise the full vertical codec menu (Delta/RLE/Frequency)
//! and feeds the `corra-sim` torture harness.
//!
//! All generators are deterministic per seed and expose both raw column
//! vectors and [`corra_columnar::Table`] wrappers ready for block splitting.
//! The environment variable convention used by the experiment binaries is
//! [`rows_from_env`].

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod dmv;
pub mod ldbc;
pub mod taxi;
pub mod timeseries;
pub mod tpch;

pub use dmv::{DmvParams, DmvTable};
pub use ldbc::{MessageParams, MessageTable};
pub use taxi::{TaxiParams, TaxiTable};
pub use timeseries::{TimeseriesParams, TimeseriesTable};
pub use tpch::LineitemDates;

/// Default experiment scale when `CORRA_ROWS` is unset: 4 data blocks.
pub const DEFAULT_ROWS: usize = 4_000_000;

/// Reads the experiment row count from the `CORRA_ROWS` environment
/// variable, falling back to [`DEFAULT_ROWS`]. Experiment binaries scale
/// every dataset with this single knob.
pub fn rows_from_env() -> usize {
    std::env::var("CORRA_ROWS")
        .ok()
        .and_then(|s| s.replace('_', "").parse().ok())
        .filter(|&n| n > 0)
        .unwrap_or(DEFAULT_ROWS)
}

#[cfg(test)]
mod tests {
    #[test]
    fn rows_from_env_parses() {
        // Not setting the variable in-process (tests run in parallel);
        // exercise the parser via the same logic inline.
        let parse = |s: &str| s.replace('_', "").parse::<usize>().ok().filter(|&n| n > 0);
        assert_eq!(parse("1000"), Some(1000));
        assert_eq!(parse("1_000_000"), Some(1_000_000));
        assert_eq!(parse("abc"), None);
        assert_eq!(parse("0"), None);
    }
}
