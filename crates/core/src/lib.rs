//! # corra-core
//!
//! The Corra paper's contribution: **horizontal, correlation-aware column
//! encodings** that express a *diff-encoded* column in terms of one or more
//! *reference* columns, plus the machinery to pick and apply the optimal
//! configuration.
//!
//! * [`nonhier::NonHierInt`] — §2.1 single-reference diff encoding
//!   (`commitdate` stored as its offset from `shipdate`);
//! * [`hier::HierInt`] / [`hier::HierStr`] — §2.2 hierarchical encoding
//!   (per-city zip-code groups with the Fig. 3 values/offsets metadata and
//!   Alg. 1 access);
//! * [`multiref::MultiRefInt`] — §2.3 multi-reference arithmetic-logic
//!   encoding with 2-bit formula codes;
//! * [`outlier::OutlierRegion`] — the Fig. 4 index/value exception region
//!   shared by the diff encoders;
//! * [`optimizer::ColumnGraph`] — the Fig. 2 cost-based greedy configuration
//!   selection;
//! * [`detect`] — automatic correlation detection (the paper's future-work
//!   §4, implemented as an extension);
//! * [`compressor::CompressedBlock`] — self-contained block compression
//!   combining vertical and horizontal codecs;
//! * [`format`](mod@format) — the versioned serialized block layout;
//! * [`query`] — the materializing query kernels of the latency experiments;
//! * [`scan`](mod@scan) — predicate pushdown: per-codec filter kernels,
//!   zone-map block pruning, and the filter→materialize pipeline;
//! * [`aggregate`](mod@aggregate) — compressed-domain aggregation:
//!   `COUNT`/`SUM`/`MIN`/`MAX`/`AVG` with optional filter and `GROUP BY`,
//!   folded per codec without materializing values, merged in block
//!   order across blocks;
//! * [`operator`](mod@operator) — compressed-domain operators: TOP-K /
//!   ORDER BY with zone-map pruning against the running k-th bound, and
//!   dictionary-code hash joins with late materialization;
//! * [`store`](mod@store) — the indexed table storage layer: multi-block
//!   files whose footer addresses every codec payload, enabling projection
//!   pushdown, I/O-free block pruning and streaming writes;
//! * [`io`](mod@io) — the pluggable read-backend seam beneath the store,
//!   including the seeded [`io::FaultyBackend`] fault injector the
//!   `corra-sim` torture harness drives;
//! * [`cache`](mod@cache) — the sharded, byte-budgeted block/column cache
//!   sitting on the [`io`](mod@io) seam: compressed segment frames plus hot
//!   decoded codecs, LRU-evicted per shard, checksum-verified on fill;
//! * [`serve`](mod@serve) — the concurrent serving front door:
//!   [`serve::ServeSession`] runs mixed point-read/scan/aggregate traffic
//!   from many threads against one shared reader + cache;
//! * [`torture`](mod@torture) — exhaustive corruption sweeps (truncation +
//!   bit flips) asserting every mutation surfaces as `Err` or leaves
//!   results bit-identical, shared by the core tests and `corra-sim`;
//! * [`vfs`](mod@vfs) — the directory-level seam beneath ingest: real
//!   directories, the crash-simulating [`vfs::SimVfs`] (durable/volatile
//!   split, seeded torn tails, op-indexed crash points) and the
//!   fault-pooling [`vfs::FaultyVfs`];
//! * [`manifest`](mod@manifest) — the versioned, checksummed segment
//!   manifest: numbered immutable files published by atomic rename, with
//!   chain recovery falling back to the last durable state;
//! * [`ingest`](mod@ingest) — the writable table: a two-stage append
//!   pipeline (CPU encode → I/O write+fsync) with an explicit
//!   fsync-before-ack contract;
//! * [`compact`](mod@compact) — merges small segments and re-runs the
//!   codec chooser on the merged distribution, retiring inputs only after
//!   the new manifest is durable.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod aggregate;
pub mod cache;
pub mod compact;
pub mod compressor;
pub mod detect;
pub mod format;
pub mod hier;
pub mod ingest;
pub mod io;
pub mod manifest;
mod morsel;
pub mod multiref;
pub mod nonhier;
pub mod operator;
pub mod optimizer;
pub mod outlier;
pub mod query;
pub mod scan;
pub mod serve;
pub mod store;
pub mod torture;
pub mod vfs;

pub use aggregate::{aggregate, aggregate_blocks, AggExpr, AggFunc, AggResult, AggValue, GroupKey};
pub use cache::{CacheConfig, CacheKey, CacheStats, CacheValue, EntryKind, ShardedCache};
pub use compact::{compact, CompactionConfig, CompactionResult};
pub use compressor::{
    compress_blocks, decompress_column, BlockView, ColumnCodec, ColumnPlan, CompressedBlock,
    CompressionConfig,
};
pub use format::{CodecHeader, CodecWiring, PayloadSpan};
pub use hier::{HierInt, HierStr};
pub use ingest::{IngestConfig, IngestTable};
pub use io::{
    checksum64, FaultInjector, FaultPlan, FaultStats, FaultyBackend, IoBackend, MemBackend,
};
pub use manifest::{Manifest, SegmentEntry};
pub use multiref::{Formula, FormulaStats, MultiRefInt};
pub use nonhier::{plan_window, NonHierInt, WindowPlan};
pub use operator::{
    gather_rows, gather_rows_with, hash_join_blocks, join_materialize, top_k_blocks,
    top_k_materialize, JoinExpr, JoinPair, JoinStats, RowId, TopKExpr, TopKRow,
};
pub use optimizer::{apply_assignment, Assignment, ColumnGraph, EncodedColumn};
pub use outlier::OutlierRegion;
pub use query::{query_both, query_column, query_two_columns, QueryOutput};
pub use scan::{
    scan, scan_blocks, scan_pruned, scan_query, scan_query_both, CmpOp, Predicate, ScanStats,
};
pub use serve::{ServeOutcome, ServeRequest, ServeResult, ServeSession, ServeSource};
pub use store::{
    write_table, BlockHandle, BlockMeta, ColumnMeta, SegmentedTable, TableFooter, TableReader,
    TableWriter,
};
pub use torture::{corruption_sweep, SweepOptions, SweepReport};
pub use vfs::{DirVfs, FaultyVfs, SimVfs, Vfs};
