//! Concurrent serving front door: mixed point-read / scan / aggregate
//! traffic from N threads against one shared [`TableReader`] (+ cache).
//!
//! A [`ServeSession`] wraps an `Arc<TableReader>` — typically one carrying
//! a [`ShardedCache`](crate::cache::ShardedCache) via
//! [`TableReader::with_cache`] — and executes a batch of
//! [`ServeRequest`]s. With `threads > 1`, workers pull request indices off
//! the shared `crate::morsel::run` counter (the same loop block compression
//! fans out on) and results merge in request order, so the returned
//! results are **byte-identical to a serial run for any thread count**;
//! only the latency distribution changes. Per-request wall latencies are
//! recorded for p50/p99 reporting, and the scan/aggregate byte + cache
//! counters are folded into one [`ScanStats`].
//!
//! ```no_run
//! # use std::sync::Arc;
//! # use corra_core::{ServeRequest, ServeSession, Predicate};
//! # use corra_core::cache::{CacheConfig, ShardedCache};
//! # use corra_core::store::TableReader;
//! # fn demo() -> corra_columnar::error::Result<()> {
//! let cache = Arc::new(ShardedCache::new(CacheConfig::with_budget(64 << 20)));
//! let reader = Arc::new(TableReader::open("t.corra".as_ref())?.with_cache(cache));
//! let session = ServeSession::new(reader);
//! let requests = vec![
//!     ServeRequest::point(0, "fee"),
//!     ServeRequest::Scan(Predicate::between("fee", 100, 200)),
//! ];
//! let outcome = session.run(&requests, 8)?;
//! println!("p99 = {:?}", outcome.latency_percentile(0.99));
//! # Ok(())
//! # }
//! ```

use std::sync::Arc;
use std::time::{Duration, Instant};

use corra_columnar::column::Column;
use corra_columnar::error::Result;
use corra_columnar::selection::SelectionVector;

use crate::aggregate::{aggregate_source, AggExpr, AggResult};
use crate::compressor::BlockSource;
use crate::operator::{top_k_source, TopKExpr, TopKRow};
use crate::scan::{scan_source, Predicate, ScanStats};
use crate::store::{SegmentedTable, Segments, TableReader};

/// What a [`ServeSession`] serves from: any table-shaped source made of
/// segment readers. Implemented by the single-file [`TableReader`] (the
/// one-segment case) and the multi-segment [`SegmentedTable`], so the
/// front door is indifferent to whether the table is one immutable file or
/// an ingest directory's current manifest — every request runs the one
/// whole-table body the store's own entry points use.
pub trait ServeSource: Send + Sync {
    /// The source's segment readers, in table order.
    fn readers(&self) -> Vec<&TableReader>;
}

impl ServeSource for TableReader {
    fn readers(&self) -> Vec<&TableReader> {
        vec![self]
    }
}

impl ServeSource for SegmentedTable {
    fn readers(&self) -> Vec<&TableReader> {
        self.segments().iter().map(Arc::as_ref).collect()
    }
}

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

impl ServeOutcome {
    /// The `p`-th latency percentile (`0.5` = p50, `0.99` = p99) by the
    /// nearest-rank method. Zero when the batch was empty.
    #[must_use]
    pub fn latency_percentile(&self, p: f64) -> Duration {
        percentile(&self.latencies, p)
    }

    /// Requests served per second of batch wall time.
    #[must_use]
    pub fn requests_per_sec(&self) -> f64 {
        self.results.len() as f64 / self.wall.as_secs_f64().max(f64::MIN_POSITIVE)
    }
}

/// The `p`-th percentile of `samples` by the nearest-rank method (the
/// sample order does not need to be sorted). Zero when empty.
#[must_use]
pub fn percentile(samples: &[Duration], p: f64) -> Duration {
    if samples.is_empty() {
        return Duration::ZERO;
    }
    let mut sorted: Vec<Duration> = samples.to_vec();
    sorted.sort_unstable();
    let rank = (p.clamp(0.0, 1.0) * (sorted.len() - 1) as f64).round() as usize;
    sorted[rank]
}

/// A serving endpoint over one shared source (a single-file
/// [`TableReader`] by default, or any other [`ServeSource`] such as a
/// [`SegmentedTable`]). See the [module docs](self).
pub struct ServeSession<S: ServeSource = TableReader> {
    reader: Arc<S>,
}

impl<S: ServeSource> Clone for ServeSession<S> {
    fn clone(&self) -> Self {
        Self {
            reader: Arc::clone(&self.reader),
        }
    }
}

impl<S: ServeSource> ServeSession<S> {
    /// Wraps a shared source (attach a cache to it first — e.g.
    /// [`TableReader::with_cache`] — to make repeated traffic cheap).
    #[must_use]
    pub fn new(reader: Arc<S>) -> Self {
        Self { reader }
    }

    /// The shared source.
    #[must_use]
    pub fn reader(&self) -> &Arc<S> {
        &self.reader
    }

    /// Executes one request, returning its result and cost counters.
    fn execute(&self, request: &ServeRequest) -> Result<(ServeResult, ScanStats)> {
        let source = Segments::new(self.reader.readers());
        match request {
            ServeRequest::Point { block, column } => {
                let handle = source.open(*block)?;
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
                let (sels, stats) = scan_source(&source, pred)?;
                Ok((ServeResult::Scan(sels), stats))
            }
            ServeRequest::Aggregate(expr) => {
                let (agg, stats) = aggregate_source(&source, expr)?;
                Ok((ServeResult::Aggregate(agg), stats))
            }
            ServeRequest::TopK(expr) => {
                let (rows, stats) = top_k_source(&source, expr)?;
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_nearest_rank() {
        let ms: Vec<Duration> = (1..=100).map(Duration::from_millis).collect();
        assert_eq!(percentile(&ms, 0.0), Duration::from_millis(1));
        assert_eq!(percentile(&ms, 0.5), Duration::from_millis(51));
        assert_eq!(percentile(&ms, 0.99), Duration::from_millis(99));
        assert_eq!(percentile(&ms, 1.0), Duration::from_millis(100));
        assert_eq!(percentile(&[], 0.5), Duration::ZERO);
        assert_eq!(
            percentile(&[Duration::from_millis(7)], 0.99),
            Duration::from_millis(7)
        );
    }
}
