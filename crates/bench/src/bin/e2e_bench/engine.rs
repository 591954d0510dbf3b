//! The adapter: the only file that names the engine. Everything else in
//! the benchmark speaks `data.rs` / `workloads.rs` vocabulary, so a PR
//! that changes the engine's API needs a follow-up in this file alone.
//!
//! Used surface (and nothing wider): the serial operator entry points
//! (`scan_blocks`, `aggregate(_blocks)`, `top_k(_blocks)`, `gather_rows`,
//! `query_column`, `read_column`, `read_block`), `ServeSession::run`,
//! `IngestTable::{create, open, append, append_batches, reader,
//! reader_cached, manifest}`, `compact`, `encode_segment`,
//! `compress_blocks`, `TableWriter`, `TableReader::from_bytes`,
//! `SegmentedTable::from_readers`, `ShardedCache`, `checksum64`,
//! `choose_int_{baseline,full}`, `simd::active()`, the four generators,
//! and the `Vfs` / `IoBackend` traits (decorated here for the trace).

use std::path::{Path, PathBuf};
use std::sync::Arc;

use corra_columnar::block::{DataBlock, Table as EngineTable};
use corra_columnar::column::Column;
use corra_columnar::error::Result as EngineResult;
use corra_columnar::selection::SelectionVector;
use corra_columnar::strings::StringPool;
use corra_core::cache::{CacheConfig, ShardedCache};
use corra_core::ingest::{encode_segment, IngestConfig, IngestTable};
use corra_core::io::IoBackend;
use corra_core::store::{SegmentedTable, TableReader, TableWriter};
use corra_core::vfs::{DirVfs, Vfs};
use corra_core::{
    aggregate_blocks, checksum64, compact, compress_blocks, gather_rows, query_column, scan_blocks,
    top_k_blocks, AggExpr, AggResult, AggValue, ColumnPlan, CompactionConfig, CompressedBlock,
    CompressionConfig, GroupKey, Predicate, QueryOutput, RowId, ScanStats, ServeRequest,
    ServeResult, ServeSession, TopKExpr, TopKRow,
};
use corra_datagen::{
    dmv, taxi, timeseries, tpch, DmvParams, DmvTable, LineitemDates, TaxiParams, TaxiTable,
    TimeseriesParams, TimeseriesTable,
};

use crate::data::{selection, AggFn, Answer, Digest, Key, Pred, Query, RawColumn, RawTable};
use crate::trace::{Op, Recorder};
use crate::workloads::{Config, Dataset, Plan, Spec};

pub type Res<T> = Result<T, String>;

fn err<T>(r: EngineResult<T>) -> Res<T> {
    r.map_err(|e| e.to_string())
}

/// The decode kernel tier the engine resolved on this host.
pub fn kernel_tier() -> &'static str {
    corra_columnar::simd::active().tier.as_str()
}

// ---------------------------------------------------------------------
// Inputs
// ---------------------------------------------------------------------

fn strings(pool: &StringPool) -> RawColumn {
    RawColumn::Str(pool.iter().map(str::to_owned).collect())
}

/// Generates the workload's raw table from `seed`.
pub fn generate(spec: &Spec, seed: u64) -> RawTable {
    use RawColumn::Int;
    match spec.dataset {
        Dataset::Lineitem => {
            let t = LineitemDates::generate(spec.rows, seed);
            RawTable {
                names: vec!["l_shipdate", "l_commitdate", "l_receiptdate"],
                columns: vec![Int(t.shipdate), Int(t.commitdate), Int(t.receiptdate)],
            }
        }
        Dataset::Taxi => {
            let params = TaxiParams {
                rows: spec.rows,
                ..TaxiParams::default()
            };
            let t = TaxiTable::generate(params, seed);
            RawTable {
                names: vec![
                    "pickup",
                    "dropoff",
                    "fare_amount",
                    "mta_tax",
                    "improvement_surcharge",
                    "extra",
                    "tip_amount",
                    "tolls_amount",
                    "congestion_surcharge",
                    "airport_fee",
                    "total_amount",
                ],
                columns: vec![
                    Int(t.pickup),
                    Int(t.dropoff),
                    Int(t.fare_amount),
                    Int(t.mta_tax),
                    Int(t.improvement_surcharge),
                    Int(t.extra),
                    Int(t.tip_amount),
                    Int(t.tolls_amount),
                    Int(t.congestion_surcharge),
                    Int(t.airport_fee),
                    Int(t.total_amount),
                ],
            }
        }
        Dataset::Dmv => {
            // City count follows the block size, not the table size, so
            // the per-block hierarchy metadata amortizes over a block the
            // way it does over the paper's 1 M-row blocks.
            let params = DmvParams {
                rows: spec.rows,
                ..DmvParams::scaled(4 * spec.block_rows)
            };
            let t = DmvTable::generate(params, seed);
            RawTable {
                names: vec!["state", "city", "zip"],
                columns: vec![strings(&t.state), strings(&t.city), Int(t.zip)],
            }
        }
        Dataset::Timeseries => {
            // One generator call per batch, each starting where the last
            // one ended, so time is monotonic across appends.
            let per_batch = spec.batch_rows();
            let mut out = RawTable {
                names: vec!["ts", "device", "status", "latency_us", "level", "service"],
                columns: vec![
                    Int(Vec::new()),
                    Int(Vec::new()),
                    Int(Vec::new()),
                    Int(Vec::new()),
                    RawColumn::Str(Vec::new()),
                    RawColumn::Str(Vec::new()),
                ],
            };
            let mut start_ts = TimeseriesParams::default().start_ts;
            for batch in 0..spec.batches {
                let params = TimeseriesParams {
                    start_ts,
                    ..TimeseriesParams::scaled(per_batch)
                };
                let batch_seed = seed.wrapping_mul(1_000_003).wrapping_add(batch as u64);
                let t = TimeseriesTable::generate(&params, batch_seed);
                start_ts = *t.ts.last().expect("batches are never empty");
                let parts = [
                    Int(t.ts),
                    Int(t.device),
                    Int(t.status),
                    Int(t.latency_us),
                    strings(&t.level),
                    strings(&t.service),
                ];
                for (into, part) in out.columns.iter_mut().zip(parts) {
                    match (into, part) {
                        (Int(a), Int(b)) => a.extend(b),
                        (RawColumn::Str(a), RawColumn::Str(b)) => a.extend(b),
                        _ => unreachable!("parts follow the schema order"),
                    }
                }
            }
            out
        }
    }
}

/// An uncompressed engine table over a row range of the raw data.
pub struct Table(EngineTable);

impl Table {
    pub fn new(spec: &Spec, data: &RawTable, rows: std::ops::Range<usize>) -> Table {
        let schema = match spec.dataset {
            Dataset::Lineitem => tpch::schema(),
            Dataset::Taxi => taxi::schema(),
            Dataset::Dmv => dmv::schema(),
            Dataset::Timeseries => timeseries::schema(),
        };
        let columns = data
            .columns
            .iter()
            .map(|c| match c {
                RawColumn::Int(v) => Column::Int64(v[rows.clone()].to_vec()),
                RawColumn::Str(v) => Column::Utf8(StringPool::from_iter(
                    v[rows.clone()].iter().map(String::as_str),
                )),
            })
            .collect();
        Table(EngineTable::new(schema, columns).expect("raw columns follow the schema"))
    }

    /// The table's batches, in append order.
    pub fn batches(spec: &Spec, data: &RawTable) -> Vec<Table> {
        let n = spec.batch_rows();
        (0..spec.batches)
            .map(|b| Table::new(spec, data, b * n..(b + 1) * n))
            .collect()
    }

    pub fn into_blocks(self, block_rows: usize) -> Blocks {
        Blocks(self.0.into_blocks(block_rows))
    }
}

fn engine_config(config: &Config) -> CompressionConfig {
    let mut out = if config.full_menu {
        CompressionConfig::all_auto_full()
    } else {
        CompressionConfig::baseline()
    };
    for (column, plan) in &config.plans {
        let plan = match plan {
            Plan::NonHier(r) => ColumnPlan::NonHier {
                reference: (*r).to_owned(),
            },
            Plan::Hier(r) => ColumnPlan::Hier {
                reference: (*r).to_owned(),
            },
            Plan::MultiRef(groups) => ColumnPlan::MultiRef {
                groups: groups
                    .iter()
                    .map(|g| g.iter().map(|c| (*c).to_owned()).collect())
                    .collect(),
                code_bits: 2,
            },
        };
        out.set(column, plan);
    }
    out
}

fn ingest_config(spec: &Spec) -> IngestConfig {
    IngestConfig {
        block_rows: spec.block_rows,
        threads: 1,
        compression: engine_config(&spec.config),
        ..IngestConfig::default()
    }
}

/// Uncompressed blocks.
pub struct Blocks(Vec<DataBlock>);

impl Blocks {
    /// `compress_blocks` on one thread; `None` is the vertical baseline.
    pub fn compress(&self, config: Option<&Config>) -> Res<Compressed> {
        let config = config.map_or_else(CompressionConfig::baseline, engine_config);
        err(compress_blocks(&self.0, &config, 1)).map(|b| Compressed(Arc::new(b)))
    }

    /// The append CPU stage (compress + frame); returns the image size.
    pub fn encode_segment(&self, spec: &Spec) -> Res<u64> {
        err(encode_segment(&self.0, &ingest_config(spec))).map(|p| p.bytes().len() as u64)
    }
}

/// Compressed blocks held in memory.
#[derive(Clone)]
pub struct Compressed(Arc<Vec<CompressedBlock>>);

impl Compressed {
    pub fn column_bytes(&self, column: &str) -> Res<u64> {
        self.0.iter().try_fold(0, |sum, b| {
            err(b.column_bytes(column)).map(|n| sum + n as u64)
        })
    }

    /// The store's framing: blocks through `TableWriter` into memory.
    pub fn frame(&self) -> Res<Vec<u8>> {
        let mut writer = err(TableWriter::new(Vec::new()))?;
        for block in self.0.iter() {
            err(writer.write_block(block))?;
        }
        err(writer.finish())
    }

    /// Decompresses every column of every block; returns values decoded.
    pub fn decompress_all(&self) -> Res<u64> {
        let mut values = 0;
        for block in self.0.iter() {
            for c in 0..block.names().len() {
                values += std::hint::black_box(err(block.decompress_at(c))?).len() as u64;
            }
        }
        Ok(values)
    }

    pub fn source(&self) -> Source {
        Source::Mem(Arc::clone(&self.0))
    }
}

// ---------------------------------------------------------------------
// Directories, decorated or not
// ---------------------------------------------------------------------

/// A table directory under the benchmark's scratch space. Flush policy
/// is the engine's own fsync-before-ack on `DirVfs`.
pub struct Dir {
    path: PathBuf,
    vfs: Arc<dyn Vfs>,
}

impl Dir {
    /// Creates `path`; with a recorder, every file and namespace
    /// operation on it is counted, timed and recorded.
    pub fn create(path: &Path, recorder: Option<&Arc<Recorder>>) -> Res<Dir> {
        err(DirVfs::create(path.to_owned()))?;
        Ok(Dir::over(path, recorder))
    }

    /// The same directory, seen through (or without) the decorators.
    pub fn view(&self, recorder: Option<&Arc<Recorder>>) -> Dir {
        Dir::over(&self.path, recorder)
    }

    fn over(path: &Path, recorder: Option<&Arc<Recorder>>) -> Dir {
        let plain = DirVfs::new(path.to_owned());
        let vfs: Arc<dyn Vfs> = match recorder {
            Some(recorder) => Arc::new(TracedVfs {
                inner: plain,
                recorder: Arc::clone(recorder),
            }),
            None => Arc::new(plain),
        };
        Dir {
            path: path.to_owned(),
            vfs,
        }
    }

    pub fn remove(self) {
        std::fs::remove_dir_all(&self.path).ok();
    }
}

struct TracedVfs {
    inner: DirVfs,
    recorder: Arc<Recorder>,
}

impl TracedVfs {
    fn file(&self, name: &str, inner: Box<dyn IoBackend>) -> Box<dyn IoBackend> {
        Box::new(TracedFile {
            inner,
            name: Arc::from(name),
            recorder: Arc::clone(&self.recorder),
        })
    }
}

impl Vfs for TracedVfs {
    fn create(&self, name: &str) -> EngineResult<Box<dyn IoBackend>> {
        let inner = self
            .recorder
            .op(Op::Create, || (self.inner.create(name), 0))?;
        Ok(self.file(name, inner))
    }

    fn open(&self, name: &str) -> EngineResult<Box<dyn IoBackend>> {
        let inner = self.recorder.op(Op::Open, || (self.inner.open(name), 0))?;
        Ok(self.file(name, inner))
    }

    fn remove(&self, name: &str) -> EngineResult<()> {
        self.recorder
            .op(Op::Remove, || (self.inner.remove(name), 0))
    }

    fn rename(&self, from: &str, to: &str) -> EngineResult<()> {
        self.recorder
            .op(Op::Rename, || (self.inner.rename(from, to), 0))
    }

    fn list(&self) -> EngineResult<Vec<String>> {
        self.recorder.op(Op::List, || (self.inner.list(), 0))
    }

    fn sync_dir(&self) -> EngineResult<()> {
        self.recorder.op(Op::SyncDir, || (self.inner.sync_dir(), 0))
    }
}

struct TracedFile {
    inner: Box<dyn IoBackend>,
    name: Arc<str>,
    recorder: Arc<Recorder>,
}

impl IoBackend for TracedFile {
    fn read_at(&self, offset: u64, buf: &mut [u8]) -> EngineResult<usize> {
        self.recorder
            .read_requested(&self.name, offset, buf.len() as u64);
        self.recorder.op(Op::Read, || {
            let r = self.inner.read_at(offset, buf);
            let n = *r.as_ref().unwrap_or(&0) as u64;
            (r, n)
        })
    }

    fn len(&self) -> EngineResult<u64> {
        self.inner.len()
    }

    fn write_at(&self, offset: u64, buf: &[u8]) -> EngineResult<usize> {
        self.recorder.op(Op::Write, || {
            let r = self.inner.write_at(offset, buf);
            let n = *r.as_ref().unwrap_or(&0) as u64;
            (r, n)
        })
    }

    fn fsync(&self) -> EngineResult<()> {
        self.recorder.op(Op::Fsync, || (self.inner.fsync(), 0))
    }
}

// ---------------------------------------------------------------------
// The writable table
// ---------------------------------------------------------------------

/// What one `compact` call did.
#[derive(Debug, Clone, Copy)]
pub struct Compaction {
    pub compacted: bool,
    pub rows: u64,
    pub bytes_before: u64,
    pub bytes_after: u64,
}

pub struct Writer {
    table: IngestTable,
    compaction: CompactionConfig,
}

impl Writer {
    fn with(table: IngestTable, spec: &Spec) -> Writer {
        // Compaction re-encodes under the workload's own configuration:
        // the merged table must keep the plans the appends used.
        let compaction = CompactionConfig {
            merge_threshold_bytes: spec.merge_threshold_bytes,
            block_rows: spec.block_rows,
            compression: engine_config(&spec.config),
            threads: 1,
            ..CompactionConfig::default()
        };
        Writer { table, compaction }
    }

    pub fn create(dir: &Dir, spec: &Spec) -> Res<Writer> {
        let table = err(IngestTable::create(
            Arc::clone(&dir.vfs),
            ingest_config(spec),
        ))?;
        Ok(Writer::with(table, spec))
    }

    /// Recovery: adopts the newest manifest whose segments all validate.
    pub fn open(dir: &Dir, spec: &Spec) -> Res<Writer> {
        let table = err(IngestTable::open(Arc::clone(&dir.vfs), ingest_config(spec)))?;
        Ok(Writer::with(table, spec))
    }

    fn appended_bytes(&self, segments_before: usize) -> u64 {
        self.table.manifest().segments[segments_before..]
            .iter()
            .map(|s| s.file_len)
            .sum()
    }

    /// One durable append; returns the new segment's file bytes.
    pub fn append(&mut self, batch: Table) -> Res<u64> {
        let before = self.table.n_segments();
        err(self.table.append(batch.0))?;
        Ok(self.appended_bytes(before))
    }

    /// The two-stage pipeline over all batches; returns bytes appended.
    pub fn append_batches(&mut self, batches: Vec<Table>) -> Res<u64> {
        let before = self.table.n_segments();
        let n = batches.len();
        let receipts = err(self
            .table
            .append_batches(batches.into_iter().map(|t| t.0).collect()))?;
        if receipts.len() != n {
            return Err(format!("{} receipts for {n} batches", receipts.len()));
        }
        Ok(self.appended_bytes(before))
    }

    pub fn compact(&mut self) -> Res<Compaction> {
        let r = err(compact(&mut self.table, &self.compaction))?;
        Ok(Compaction {
            compacted: r.compacted,
            rows: r.rows,
            bytes_before: r.bytes_before,
            bytes_after: r.bytes_after,
        })
    }

    pub fn rows(&self) -> u64 {
        self.table.rows()
    }

    /// Bytes of the live segment files.
    pub fn stored_bytes(&self) -> u64 {
        self.appended_bytes(0)
    }

    /// A fresh, uncached read view of the current durable state.
    pub fn reader(&self) -> Res<Source> {
        err(self.table.reader()).map(|t| Source::Store(Arc::new(t)))
    }

    pub fn reader_cached(&self, cache: &Cache) -> Res<Source> {
        err(self.table.reader_cached(Arc::clone(&cache.0))).map(|t| Source::Store(Arc::new(t)))
    }

    /// Every live segment file read whole, by name — the images the
    /// staged replay serves from memory.
    pub fn segment_images(&self, dir: &Dir) -> Res<Vec<(String, Vec<u8>)>> {
        self.table
            .manifest()
            .segments
            .iter()
            .map(|s| {
                std::fs::read(dir.path.join(&s.name))
                    .map(|bytes| (s.name.clone(), bytes))
                    .map_err(|e| format!("reading {}: {e}", s.name))
            })
            .collect()
    }
}

/// The same table served from memory images: no disk, same store code.
pub fn source_from_images(images: &[(String, Vec<u8>)]) -> Res<Source> {
    let readers = images
        .iter()
        .map(|(_, bytes)| err(TableReader::from_bytes(bytes.clone())).map(Arc::new))
        .collect::<Res<Vec<_>>>()?;
    Ok(Source::Store(Arc::new(SegmentedTable::from_readers(
        readers,
    ))))
}

pub fn checksum(bytes: &[u8]) -> u64 {
    checksum64(bytes)
}

// ---------------------------------------------------------------------
// Queries
// ---------------------------------------------------------------------

/// Something the mix can run against: a store view or in-memory blocks.
#[derive(Clone)]
pub enum Source {
    Store(Arc<SegmentedTable>),
    Mem(Arc<Vec<CompressedBlock>>),
}

/// A query lowered to engine expressions ahead of the timed call.
pub enum Prepared {
    Scan(Predicate),
    Agg(AggExpr),
    TopK(TopKExpr),
    GatherTopK(TopKExpr, Vec<&'static str>),
    Point(usize, &'static str),
    Materialize(&'static str, Vec<SelectionVector>),
    Decompress(&'static str),
}

fn predicate(p: &Pred) -> Predicate {
    match *p {
        Pred::Between(c, lo, hi) => Predicate::between(c, lo, hi),
        Pred::Ge(c, v) => Predicate::ge(c, v),
        Pred::Lt(c, v) => Predicate::lt(c, v),
        Pred::StrEq(c, s) => Predicate::str_eq(c, s),
    }
}

impl Prepared {
    /// `layout` is the rows of each block of the source the query will
    /// run on; `seed` fixes the selection vectors.
    pub fn new(q: &Query, layout: &[usize], seed: u64) -> Prepared {
        match q {
            Query::Scan(p) => Prepared::Scan(predicate(p)),
            Query::Agg {
                func,
                column,
                filter,
                group_by,
            } => {
                let mut expr = match (func, column) {
                    (AggFn::Count, _) => AggExpr::count(),
                    (AggFn::Sum, Some(c)) => AggExpr::sum(c),
                    (AggFn::Max, Some(c)) => AggExpr::max(c),
                    (AggFn::Avg, Some(c)) => AggExpr::avg(c),
                    (_, None) => panic!("workload aggregates {func:?} over no column"),
                };
                if let Some(p) = filter {
                    expr = expr.with_filter(predicate(p));
                }
                if let Some(by) = group_by {
                    expr = expr.with_group_by(by);
                }
                Prepared::Agg(expr)
            }
            Query::TopK { column, k } => Prepared::TopK(TopKExpr::desc(*column, *k)),
            Query::GatherTopK { column, k, others } => {
                Prepared::GatherTopK(TopKExpr::desc(*column, *k), others.clone())
            }
            Query::Point { block, column } => Prepared::Point(*block, column),
            Query::Materialize {
                column,
                selectivity,
            } => {
                let sels = layout
                    .iter()
                    .enumerate()
                    .map(|(b, &rows)| {
                        SelectionVector::from_sorted(selection(seed, b, rows, *selectivity))
                            .expect("selections are ascending")
                    })
                    .collect();
                Prepared::Materialize(column, sels)
            }
            Query::Decompress(column) => Prepared::Decompress(column),
        }
    }
}

/// The public counters one operation reported.
#[derive(Debug, Clone, Copy, Default)]
pub struct OpStats {
    pub bytes_read: u64,
    pub blocks_skipped_io: u64,
    pub blocks_pruned: u64,
}

impl OpStats {
    fn of(s: &ScanStats) -> OpStats {
        OpStats {
            bytes_read: s.bytes_read,
            blocks_skipped_io: s.blocks_skipped_io as u64,
            blocks_pruned: s.blocks_pruned as u64,
        }
    }

    pub fn absorb(&mut self, o: OpStats) {
        self.bytes_read += o.bytes_read;
        self.blocks_skipped_io += o.blocks_skipped_io;
        self.blocks_pruned += o.blocks_pruned;
    }
}

/// An engine result, kept as returned so that reducing it to an
/// [`Answer`] stays outside the timed call.
pub enum Output {
    Scan(Vec<SelectionVector>),
    Agg(AggResult),
    TopK(Vec<TopKRow>),
    Gather(Vec<TopKRow>, Vec<QueryOutput>),
    Columns(Vec<Column>),
    Values(Vec<QueryOutput>),
}

impl Source {
    /// Rows of each block, in table order.
    pub fn layout(&self) -> Vec<usize> {
        match self {
            Source::Store(t) => t
                .segments()
                .iter()
                .flat_map(|r| r.footer().blocks.iter().map(|b| b.rows as usize))
                .collect(),
            Source::Mem(blocks) => blocks.iter().map(CompressedBlock::rows).collect(),
        }
    }

    pub fn rows(&self) -> u64 {
        self.layout().iter().map(|&r| r as u64).sum()
    }

    /// Runs one prepared query through the serial entry points.
    pub fn run(&self, q: &Prepared) -> Res<(Output, OpStats)> {
        fn with_stats<T>(
            r: EngineResult<(T, ScanStats)>,
            wrap: fn(T) -> Output,
        ) -> Res<(Output, OpStats)> {
            err(r).map(|(out, stats)| (wrap(out), OpStats::of(&stats)))
        }
        let plain = |out| Ok((out, OpStats::default()));
        match (self, q) {
            (Source::Store(t), Prepared::Scan(p)) => with_stats(t.scan_blocks(p), Output::Scan),
            (Source::Mem(b), Prepared::Scan(p)) => with_stats(scan_blocks(b, p), Output::Scan),
            (Source::Store(t), Prepared::Agg(e)) => with_stats(t.aggregate(e), Output::Agg),
            (Source::Mem(b), Prepared::Agg(e)) => with_stats(aggregate_blocks(b, e), Output::Agg),
            (Source::Store(t), Prepared::TopK(e)) => with_stats(t.top_k(e), Output::TopK),
            (Source::Mem(b), Prepared::TopK(e)) => with_stats(top_k_blocks(b, e), Output::TopK),
            (_, Prepared::GatherTopK(e, others)) => {
                let (winners, stats) = err(match self {
                    Source::Store(t) => t.top_k(e),
                    Source::Mem(b) => top_k_blocks(b, e),
                })?;
                let ids: Vec<RowId> = winners.iter().map(TopKRow::id).collect();
                let columns = err(match self {
                    Source::Store(t) => t.gather_rows(&ids, others),
                    Source::Mem(b) => gather_rows(b, &ids, others),
                })?;
                Ok((Output::Gather(winners, columns), OpStats::of(&stats)))
            }
            (Source::Store(t), Prepared::Point(block, c)) => {
                plain(Output::Columns(vec![err(t.read_column(*block, c))?]))
            }
            (Source::Mem(b), Prepared::Point(block, c)) => {
                let block = b.get(*block).ok_or("point read past the last block")?;
                plain(Output::Columns(vec![err(block.decompress(c))?]))
            }
            (_, Prepared::Materialize(c, sels)) => {
                let values = sels
                    .iter()
                    .enumerate()
                    .map(|(i, sel)| match self {
                        Source::Store(t) => t
                            .block_handle(i)
                            .and_then(|handle| query_column(&handle, c, sel)),
                        Source::Mem(b) => query_column(&b[i], c, sel),
                    })
                    .collect::<EngineResult<Vec<_>>>();
                plain(Output::Values(err(values)?))
            }
            (_, Prepared::Decompress(c)) => {
                let n = self.layout().len();
                let columns = (0..n)
                    .map(|i| match self {
                        Source::Store(t) => t.read_column(i, c),
                        Source::Mem(b) => b[i].decompress(c),
                    })
                    .collect::<EngineResult<Vec<_>>>();
                plain(Output::Columns(err(columns)?))
            }
        }
    }

    /// Loads and verifies every block in full (`read_block`).
    pub fn load_blocks(&self) -> Res<Compressed> {
        match self {
            Source::Store(t) => (0..t.n_blocks())
                .map(|b| err(t.read_block(b)))
                .collect::<Res<Vec<_>>>()
                .map(|blocks| Compressed(Arc::new(blocks))),
            Source::Mem(blocks) => Ok(Compressed(Arc::clone(blocks))),
        }
    }
}

fn digest_column(d: &mut Digest, column: &Column) {
    match column {
        Column::Int64(v) => v.iter().for_each(|&x| d.i64(x)),
        Column::Utf8(p) => p.iter().for_each(|s| d.str(s)),
    }
}

fn digest_output(d: &mut Digest, out: &QueryOutput) {
    match out {
        QueryOutput::Int(v) => v.iter().for_each(|&x| d.i64(x)),
        QueryOutput::Str(v) => v.iter().for_each(|s| d.str(s)),
    }
}

impl Output {
    /// Reduces the result to what the oracle compares. `layout` turns
    /// `(block, row)` addresses into global row numbers.
    pub fn normalize(&self, layout: &[usize]) -> Answer {
        let starts: Vec<u64> = layout
            .iter()
            .scan(0u64, |next, &rows| {
                let start = *next;
                *next += rows as u64;
                Some(start)
            })
            .collect();
        let global = |block: u32, row: u32| {
            // An address past the layout digests as a row no table has.
            starts
                .get(block as usize)
                .map_or(u64::MAX, |s| s + u64::from(row))
        };
        let mut d = Digest::new();
        match self {
            Output::Scan(sels) => {
                for (b, sel) in sels.iter().enumerate() {
                    sel.positions()
                        .iter()
                        .for_each(|&p| d.u64(global(b as u32, p)));
                }
                Answer::Rows {
                    count: d.count(),
                    digest: d.finish(),
                }
            }
            Output::Agg(AggResult::Scalar(v)) => match v {
                AggValue::Count(n) => Answer::Count(*n),
                AggValue::Sum(s) => Answer::Sum(*s),
                AggValue::Int(x) => Answer::Int(*x),
                AggValue::Avg(a) => Answer::Avg(*a),
                // No mix takes MIN / MAX of a string column.
                AggValue::Str(_) => Answer::Int(None),
            },
            Output::Agg(AggResult::Grouped(groups)) => Answer::Groups(
                groups
                    .iter()
                    .map(|(key, value)| {
                        let key = match key {
                            GroupKey::Int(k) => Key::Int(*k),
                            GroupKey::Str(k) => Key::Str(k.clone()),
                        };
                        // Mixes only group COUNT; anything else reads as
                        // a count no group has.
                        let n = match value {
                            AggValue::Count(n) => *n,
                            _ => u64::MAX,
                        };
                        (key, n)
                    })
                    .collect(),
            ),
            Output::TopK(rows) => Answer::TopK(rows.iter().map(|r| r.value).collect()),
            Output::Gather(winners, columns) => Answer::Gather {
                values: winners.iter().map(|r| r.value).collect(),
                rows: winners.iter().map(|r| global(r.block, r.row)).collect(),
                others: columns
                    .iter()
                    .map(|c| {
                        let mut d = Digest::new();
                        digest_output(&mut d, c);
                        d.finish()
                    })
                    .collect(),
            },
            Output::Columns(columns) => {
                columns.iter().for_each(|c| digest_column(&mut d, c));
                Answer::Values {
                    count: d.count(),
                    digest: d.finish(),
                }
            }
            Output::Values(outs) => {
                outs.iter().for_each(|o| digest_output(&mut d, o));
                Answer::Values {
                    count: d.count(),
                    digest: d.finish(),
                }
            }
        }
    }
}

// ---------------------------------------------------------------------
// Cache and serving
// ---------------------------------------------------------------------

/// Cumulative counters of a cache.
#[derive(Debug, Clone, Copy, Default)]
pub struct CacheCounters {
    pub hits: u64,
    pub misses: u64,
    pub insertions: u64,
    pub evictions: u64,
    pub bytes_evicted: u64,
}

impl std::ops::Sub for CacheCounters {
    type Output = CacheCounters;

    fn sub(self, r: CacheCounters) -> CacheCounters {
        CacheCounters {
            hits: self.hits - r.hits,
            misses: self.misses - r.misses,
            insertions: self.insertions - r.insertions,
            evictions: self.evictions - r.evictions,
            bytes_evicted: self.bytes_evicted - r.bytes_evicted,
        }
    }
}

/// The engine's sharded cache at its default shard count.
pub struct Cache(Arc<ShardedCache>);

impl Cache {
    pub fn new(byte_budget: u64) -> Cache {
        Cache(Arc::new(ShardedCache::new(CacheConfig::with_budget(
            byte_budget,
        ))))
    }

    pub fn counters(&self) -> CacheCounters {
        let s = self.0.stats();
        CacheCounters {
            hits: s.hits,
            misses: s.misses,
            insertions: s.insertions,
            evictions: s.evictions,
            bytes_evicted: s.bytes_evicted,
        }
    }
}

/// A request batch lowered to engine requests.
pub struct Requests(Vec<ServeRequest>);

impl Requests {
    pub fn new(queries: &[Query]) -> Requests {
        Requests(
            queries
                .iter()
                .map(|q| match Prepared::new(q, &[], 0) {
                    Prepared::Scan(p) => ServeRequest::Scan(p),
                    Prepared::Agg(e) => ServeRequest::Aggregate(e),
                    Prepared::TopK(e) => ServeRequest::TopK(e),
                    Prepared::Point(block, column) => ServeRequest::point(block, column),
                    _ => panic!("workload serves a query the front door has no request for"),
                })
                .collect(),
        )
    }
}

/// One closed-loop pass through the front door.
pub struct Served {
    pub wall_secs: f64,
    /// Per request, in request order.
    pub latency_secs: Vec<f64>,
    pub outputs: Vec<Output>,
}

/// Runs `requests` closed-loop from `clients` threads against `source`
/// through `ServeSession::run`.
pub fn serve(source: &Source, requests: &Requests, clients: usize) -> Res<Served> {
    let Source::Store(table) = source else {
        return Err("the front door serves store tables".to_owned());
    };
    let outcome = err(ServeSession::new(Arc::clone(table)).run(&requests.0, clients))?;
    Ok(Served {
        wall_secs: outcome.wall.as_secs_f64(),
        latency_secs: outcome.latencies.iter().map(|d| d.as_secs_f64()).collect(),
        outputs: outcome
            .results
            .into_iter()
            .map(|r| match r {
                ServeResult::Column(c) => Output::Columns(vec![c]),
                ServeResult::Scan(s) => Output::Scan(s),
                ServeResult::Aggregate(a) => Output::Agg(a),
                ServeResult::TopK(t) => Output::TopK(t),
            })
            .collect(),
    })
}

// ---------------------------------------------------------------------
// Layer probes: one public function each, on inputs built here
// ---------------------------------------------------------------------

/// Returns a closure that unpacks `values` `bits`-wide values through
/// the active kernel table, and the decoded bytes it produces (8 B per
/// value).
pub fn unpack_probe(bits: u8, values: usize) -> (impl FnMut(), u64) {
    let words = (values * bits as usize).div_ceil(64) + 8;
    let mut state = 0x9e37_79b9_7f4a_7c15u64;
    let packed: Vec<u64> = (0..words)
        .map(|_| {
            state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1);
            state
        })
        .collect();
    let mut out = vec![0u64; values];
    let unpack = corra_columnar::simd::active().unpack;
    let run = move || {
        unpack(bits, &packed, &mut out);
        std::hint::black_box(&out);
    };
    (run, 8 * values as u64)
}

/// The paper's FOR / Dict chooser on one column; returns encoded bytes.
pub fn choose_baseline(values: &[i64]) -> usize {
    use corra_encodings::IntAccess;
    corra_encodings::choose_int_baseline(values).compressed_bytes()
}

/// The full-menu chooser on one column; returns encoded bytes.
pub fn choose_full(values: &[i64]) -> usize {
    use corra_encodings::IntAccess;
    corra_encodings::choose_int_full(values).compressed_bytes()
}

/// Returns a closure doing `lookups` cache hits on a resident entry.
pub fn cache_hit_probe(lookups: usize) -> impl FnMut() {
    use corra_core::cache::{CacheKey, CacheValue};
    let cache = ShardedCache::new(CacheConfig::with_budget(1 << 20));
    let keys: Vec<CacheKey> = (0..64).map(|b| CacheKey::segment(1, b)).collect();
    for key in &keys {
        cache.insert(*key, CacheValue::Segment(Arc::new(vec![0u8; 1024])), 1024);
    }
    move || {
        for i in 0..lookups {
            std::hint::black_box(cache.get(&keys[i % keys.len()]));
        }
    }
}
