//! # corra-columnar
//!
//! Columnar storage substrate for the [Corra](https://arxiv.org/abs/2403.17229)
//! correlation-aware compression library.
//!
//! This crate provides the building blocks every encoding scheme sits on:
//!
//! * [`bitpack::BitPackedVec`] — fixed-width bit packing with O(1) random
//!   access, the physical layer of FOR, Dict, and all Corra encodings;
//! * [`column::Column`] / [`block::Table`] / [`block::DataBlock`] — typed
//!   uncompressed columns split into self-contained 1M-tuple blocks (the
//!   paper's unit of compression);
//! * [`strings::StringPool`] — the flattened distinct-string array used by
//!   dictionary encodings;
//! * [`selection::SelectionVector`] — the uniform random selection vectors
//!   driving the query-latency experiments;
//! * [`stats`] — exact column statistics feeding the encoding choosers,
//!   plus the [`stats::ZoneMap`] used for scan-time block pruning;
//! * [`predicate::IntRange`] — the normalized range predicate every filter
//!   kernel evaluates in its compressed domain;
//! * [`simd`] — the runtime-dispatched SIMD decode tier (AVX2 with a
//!   scalar fallback) behind every batched unpack and the fused
//!   decode-filter scan primitive;
//! * [`aggregate::IntAggState`] / [`aggregate::StrAggState`] — mergeable
//!   partial aggregate states every compressed-domain aggregate kernel
//!   folds into (`SUM` in `i128`, so it never silently wraps);
//! * [`topk::TopKHeap`] — the bounded `(value, position)` selection heap
//!   behind the compressed-domain TOP-K / ORDER BY kernels, with the
//!   deterministic tie-break that makes results independent of visit order;
//! * [`frame`] — the length-prefix framing that makes every serialized
//!   codec payload independently addressable;
//! * [`temporal`] — from-scratch civil-date ↔ epoch-day conversion.

#![deny(unsafe_code)]
#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod aggregate;
pub mod bitpack;
pub mod block;
pub mod column;
pub mod error;
pub mod frame;
pub mod predicate;
pub mod schema;
pub mod selection;
// The only `unsafe` in the workspace's libraries: the SIMD tier's
// target-feature shims and its intrinsic unpack bodies.
#[allow(unsafe_code)]
pub mod simd;
pub mod stats;
pub mod strings;
pub mod temporal;
pub mod topk;

pub use aggregate::{IntAggState, StrAggState};
pub use bitpack::BitPackedVec;
pub use block::{DataBlock, Table, DEFAULT_BLOCK_ROWS};
pub use column::{Column, DataType};
pub use error::{Error, Result};
pub use predicate::{IntRange, RangeVerdict};
pub use schema::{Field, Schema};
pub use selection::SelectionVector;
pub use stats::ZoneMap;
pub use strings::{StringDictBuilder, StringPool};
pub use topk::TopKHeap;
