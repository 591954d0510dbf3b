//! Concurrent serving front door: mixed point-read / scan / aggregate
//! traffic from N threads against one shared [`SegmentedTable`] (+ cache).
//!
//! A [`ServeSession`] wraps an `Arc<SegmentedTable>` — one file is the
//! one-segment table, an ingest directory its manifest's segments —
//! typically with a [`ShardedCache`](crate::cache::ShardedCache) attached
//! to its readers, and executes a batch of [`ServeRequest`]s. With
//! `threads > 1`, workers pull request indices off the shared
//! `crate::morsel::run` counter (the same loop block compression fans out
//! on) and results merge in request order, so the returned results are
//! **byte-identical to a serial run for any thread count**; only the
//! latency distribution changes. Per-request wall latencies are recorded,
//! and the scan/aggregate byte + cache counters are folded into one
//! [`ScanStats`].
//!
//! ```no_run
//! # use std::sync::Arc;
//! # use corra_core::{ServeRequest, ServeSession, Predicate};
//! # use corra_core::cache::{CacheConfig, ShardedCache};
//! # use corra_core::store::{SegmentedTable, TableReader};
//! # fn demo() -> corra_columnar::error::Result<()> {
//! let cache = Arc::new(ShardedCache::new(CacheConfig::with_budget(64 << 20)));
//! let reader = TableReader::open("t.corra".as_ref())?.with_cache(cache);
//! let table = SegmentedTable::from_readers(vec![Arc::new(reader)]);
//! let session = ServeSession::new(Arc::new(table));
//! let requests = vec![
//!     ServeRequest::point(0, "fee"),
//!     ServeRequest::Scan(Predicate::between("fee", 100, 200)),
//! ];
//! let outcome = session.run(&requests, 8)?;
//! println!("slowest request: {:?}", outcome.latencies.iter().max());
//! # Ok(())
//! # }
//! ```

use std::sync::Arc;
use std::time::{Duration, Instant};

use corra_columnar::column::Column;
use corra_columnar::error::Result;
use corra_columnar::selection::SelectionVector;

use crate::aggregate::{AggExpr, AggResult};
use crate::operator::{TopKExpr, TopKRow};
use crate::scan::{Predicate, ScanStats};
use crate::store::SegmentedTable;

/// One unit of serving traffic.
#[derive(Debug, Clone)]
pub enum ServeRequest {
    /// Projection-pushdown point read: one column of one block.
    Point {
        /// Block index.
        block: usize,
        /// Column name.
        column: String,
    },
    /// Predicate scan over every block (footer pruning included).
    Scan(Predicate),
    /// Aggregate over every block (footer zone short-circuits included).
    Aggregate(AggExpr),
    /// TOP-K / ORDER BY over every block (footer zone pruning against the
    /// running k-th bound included).
    TopK(TopKExpr),
}

impl ServeRequest {
    /// A point read of `column` in `block`.
    #[must_use]
    pub fn point(block: usize, column: &str) -> Self {
        Self::Point {
            block,
            column: column.to_owned(),
        }
    }
}

/// The answer to one [`ServeRequest`], in request order.
#[derive(Debug, Clone, PartialEq)]
pub enum ServeResult {
    /// Decompressed column values.
    Column(Column),
    /// Per-block selection vectors.
    Scan(Vec<SelectionVector>),
    /// Aggregate result.
    Aggregate(AggResult),
    /// TOP-K winners, best-first.
    TopK(Vec<TopKRow>),
}

/// Everything a [`ServeSession::run`] batch produced.
#[derive(Debug, Clone)]
pub struct ServeOutcome {
    /// Per-request results, in request order — identical for any thread
    /// count.
    pub results: Vec<ServeResult>,
    /// Per-request wall latencies, in request order.
    pub latencies: Vec<Duration>,
    /// Byte / cache / pruning counters folded across every request.
    pub stats: ScanStats,
    /// Wall time of the whole batch.
    pub wall: Duration,
}

/// A serving endpoint over one shared table. See the [module docs](self).
#[derive(Clone)]
pub struct ServeSession {
    table: Arc<SegmentedTable>,
}

impl ServeSession {
    /// Wraps a shared table (attach a cache to its readers first — e.g.
    /// [`TableReader::with_cache`](crate::store::TableReader::with_cache)
    /// — to make repeated traffic cheap).
    #[must_use]
    pub fn new(table: Arc<SegmentedTable>) -> Self {
        Self { table }
    }

    /// Executes one request, returning its result and cost counters.
    fn execute(&self, request: &ServeRequest) -> Result<(ServeResult, ScanStats)> {
        let table = &*self.table;
        match request {
            ServeRequest::Point { block, column } => {
                let handle = table.block_handle(*block)?;
                let values = handle.decompress(column)?;
                let stats = ScanStats {
                    bytes_read: handle.loaded_bytes(),
                    cache_hits: handle.cache_hits(),
                    cache_misses: handle.cache_misses(),
                    segments_opened: 1,
                    ..ScanStats::default()
                };
                Ok((ServeResult::Column(values), stats))
            }
            ServeRequest::Scan(pred) => {
                let (sels, stats) = table.scan_blocks(pred)?;
                Ok((ServeResult::Scan(sels), stats))
            }
            ServeRequest::Aggregate(expr) => {
                let (agg, stats) = table.aggregate(expr)?;
                Ok((ServeResult::Aggregate(agg), stats))
            }
            ServeRequest::TopK(expr) => {
                let (rows, stats) = table.top_k(expr)?;
                Ok((ServeResult::TopK(rows), stats))
            }
        }
    }

    /// Runs the whole batch from `threads` workers, returning results in
    /// request order (byte-identical to `threads == 1`).
    ///
    /// # Errors
    ///
    /// The first failing request's error (in request order); worker panics
    /// surface as errors.
    pub fn run(&self, requests: &[ServeRequest], threads: usize) -> Result<ServeOutcome> {
        let n = requests.len();
        let mut results = Vec::with_capacity(n);
        let mut latencies = Vec::with_capacity(n);
        let mut stats = ScanStats::default();
        let start = Instant::now();
        crate::morsel::run(
            n,
            threads,
            |i| {
                let t = Instant::now();
                let (result, req_stats) = self.execute(&requests[i])?;
                Ok((result, req_stats, t.elapsed()))
            },
            |_, (result, req_stats, latency)| {
                results.push(result);
                latencies.push(latency);
                stats.absorb(&req_stats);
                Ok(())
            },
        )?;
        Ok(ServeOutcome {
            results,
            latencies,
            stats,
            wall: start.elapsed(),
        })
    }
}
