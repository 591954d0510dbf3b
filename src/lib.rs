//! # Corra: Correlation-Aware Column Compression
//!
//! A Rust implementation of the horizontal, correlation-aware column
//! encoding schemes from *"Corra: Correlation-Aware Column Compression"*
//! (Liu, Stoian, van Renen, Kipf — VLDB 2024 / arXiv:2403.17229), together
//! with the columnar substrate, single-column baseline, dataset generators
//! and evaluation harness needed to reproduce the paper end to end.
//!
//! ## Quick start
//!
//! ```
//! use corra::prelude::*;
//!
//! // TPC-H-style correlated date columns in a data block.
//! let dates = corra::datagen::LineitemDates::generate(10_000, 42);
//! let mut blocks = dates.into_table().into_blocks(1_000_000);
//! let block = blocks.remove(0);
//!
//! // Diff-encode receiptdate w.r.t. shipdate (§2.1 of the paper).
//! let config = CompressionConfig::baseline()
//!     .with("l_receiptdate", ColumnPlan::NonHier { reference: "l_shipdate".into() });
//! let compressed = CompressedBlock::compress(&block, &config).unwrap();
//!
//! // Horizontal beats vertical on correlated data.
//! let baseline = CompressedBlock::compress(&block, &CompressionConfig::baseline()).unwrap();
//! assert!(compressed.column_bytes("l_receiptdate").unwrap()
//!     < baseline.column_bytes("l_receiptdate").unwrap() / 2);
//!
//! // Random-access queries decompress through the reference column.
//! let sel = SelectionVector::new(vec![0, 42, 9_999]);
//! let out = query_column(&compressed, "l_receiptdate", &sel).unwrap();
//! assert_eq!(out.len(), 3);
//! ```
//!
//! ## Crate map
//!
//! | Module | Contents |
//! |---|---|
//! | [`columnar`] | storage substrate: bit-packing, columns, blocks, selection vectors |
//! | [`encodings`] | vertical schemes: Plain, FOR, Dict, RLE, Delta, Frequency behind the one `IntAccess` codec trait + baseline chooser |
//! | [`core`] | Corra's horizontal schemes, optimizer, detection, block compressor, query kernels, indexed table store |
//! | [`datagen`] | synthetic TPC-H / LDBC / DMV / Taxi generators |
//! | [`c3`] | the C3 size comparator (DFOR, Numerical, 1-to-1, hierarchical FOR): encode, size, decode |

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use corra_c3 as c3;
pub use corra_columnar as columnar;
pub use corra_core as core;
pub use corra_datagen as datagen;
pub use corra_encodings as encodings;

/// The most commonly used types, re-exported flat.
pub mod prelude {
    pub use corra_columnar::{
        BitPackedVec, Column, DataBlock, DataType, Field, Schema, SelectionVector, StringPool,
        Table, DEFAULT_BLOCK_ROWS,
    };
    pub use corra_core::{
        query_both, query_column, query_two_columns, scan, scan_blocks, scan_query, Assignment,
        BlockView, ColumnGraph, ColumnPlan, CompressedBlock, CompressionConfig, Formula, HierInt,
        HierStr, MultiRefInt, NonHierInt, OutlierRegion, Predicate, QueryOutput, ScanStats,
        TableReader, TableWriter,
    };
    pub use corra_encodings::{
        choose_int_baseline, choose_int_full, DictInt, DictStr, ForInt, IntAccess, IntEncoding,
        PlainInt,
    };
}
