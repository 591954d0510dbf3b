//! # corra-sim
//!
//! Deterministic simulation & fault-injection torture harness for the
//! Corra engine, with a model-table oracle and replayable seeds.
//!
//! One `u64` seed fully determines a scenario: which workload is
//! generated (the four paper datasets, the streaming time-series log, or
//! a codec-dense synthetic schema), how it is blocked and compressed,
//! which reads / scans / aggregates run against it, and which faults are
//! injected underneath the store reader. Every result is validated
//! against [`ModelTable`] — a plain `Vec`-of-rows copy of the data that
//! shares no code with the engine — and every failure carries its seed:
//!
//! ```text
//! CORRA_SIM_SEED=12345 cargo run -p corra-sim
//! ```
//!
//! replays the exact failing scenario, bit for bit.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod model;
pub mod scenario;

pub use model::{Cell, ModelTable};
pub use scenario::{run_seed, Scenario, ScenarioOutcome, SimFailure, SimOptions, SEED_ENV};
