//! Seeded scenario driver: one seed fully determines a workload, a block
//! layout, a compression config, an operation schedule, and a fault
//! schedule — so every failure replays exactly from its seed.
//!
//! A scenario runs in three passes:
//!
//! 1. **Clean differential pass** — every operation runs through the store
//!    reader, the in-memory engine, and the plain [`ModelTable`] oracle;
//!    all three must agree exactly.
//! 2. **Cache pass** — the schedule runs twice more through a reader
//!    wrapped in a [`ShardedCache`] (cold fills, then warm hits): both
//!    passes must be byte-identical to the uncached oracle, and the warm
//!    pass must read zero backend bytes.
//! 3. **Fault passes** — the same table is re-read through a
//!    [`FaultyBackend`]. Benign plans (short reads only) must be fully
//!    transparent; hostile plans (bit flips, transient errors, torn tails)
//!    must surface as `Err` or return the exact model answer — never panic,
//!    never silently wrong data. Hostile episodes also run cache-wrapped:
//!    a bit-flipped fill must surface as `Err`, never become a poisoned
//!    cache entry served silently on a later repeat.
//! 4. **Corruption sweep** — the shared [`corra_core::torture`] sweep runs
//!    a seeded slice of single-bit flips over the file image.

use std::fmt;
use std::sync::Arc;

use corra_columnar::block::{DataBlock, Table};
use corra_columnar::column::{Column, DataType};
use corra_columnar::schema::{Field, Schema};
use corra_columnar::selection::SelectionVector;
use corra_core::cache::{CacheConfig, ShardedCache};
use corra_core::ingest::{IngestConfig, IngestTable};
use corra_core::store::{SegmentedTable, TableReader, TableWriter};
use corra_core::vfs::{SimVfs, Vfs};
use corra_core::{
    aggregate_blocks, compact, corruption_sweep, hash_join_blocks, scan_blocks, top_k_blocks,
    AggExpr, AggFunc, AggResult, ColumnPlan, CompactionConfig, CompressedBlock, CompressionConfig,
    FaultPlan, FaultyBackend, JoinExpr, JoinPair, MemBackend, Predicate, SweepOptions, TopKExpr,
    TopKRow,
};
use corra_datagen::{
    taxi, DmvParams, DmvTable, LineitemDates, MessageParams, MessageTable, TaxiParams, TaxiTable,
    TimeseriesParams, TimeseriesTable,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::model::ModelTable;

/// Environment variable that pins the harness to a single replay seed.
pub const SEED_ENV: &str = "CORRA_SIM_SEED";

/// Harness knobs.
#[derive(Debug, Clone, Copy, Default)]
pub struct SimOptions {
    /// Smaller tables, fewer operations, thinner sweep — for CI smoke.
    pub quick: bool,
}

/// A scenario failure: what went wrong, and the seed that replays it.
#[derive(Debug, Clone)]
pub struct SimFailure {
    /// The scenario seed.
    pub seed: u64,
    /// Human-readable mismatch description.
    pub message: String,
}

impl fmt::Display for SimFailure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "seed {} failed: {} (replay: {}={} cargo run -p corra-sim)",
            self.seed, self.message, SEED_ENV, self.seed
        )
    }
}

impl std::error::Error for SimFailure {}

/// Summary of a passed scenario.
#[derive(Debug, Clone)]
pub struct ScenarioOutcome {
    /// The scenario seed.
    pub seed: u64,
    /// Workload label.
    pub workload: &'static str,
    /// Total rows generated.
    pub rows: usize,
    /// Blocks written to the store image.
    pub n_blocks: usize,
    /// Operations in the schedule.
    pub ops: usize,
    /// Chained checksum over every clean-pass result: two runs of the same
    /// seed must produce the same fingerprint bit for bit.
    pub fingerprint: u64,
    /// Faults injected across the hostile episodes.
    pub faults_injected: u64,
    /// Cache hits landed by the warm half of the cache pass.
    pub cache_hits: u64,
    /// Bit flips exercised by the corruption sweep.
    pub sweep_flips: usize,
    /// Crash points exercised by the ingest pass.
    pub ingest_crash_points: usize,
    /// Segments opened by the ingest pass's multi-segment schedule replay.
    pub segments_opened: u64,
}

/// One scheduled operation.
#[derive(Debug, Clone)]
enum Op {
    ReadBlock(usize),
    ReadColumn(usize, String),
    Scan(Predicate),
    Aggregate(AggExpr),
    TopK(TopKExpr),
    Join(JoinExpr),
}

/// The oracle's expected result for one operation.
///
/// Joins are fingerprinted as `(pair count, digest)` rather than the full
/// pair list: a self-join on a low-cardinality dict key can produce tens of
/// thousands of pairs, and a multi-megabyte `Debug` string per op would
/// dominate the fingerprint chain for no extra discriminating power.
#[derive(Debug, Clone, PartialEq)]
enum Expected {
    Block(CompressedBlock),
    Column(Column),
    Scan(Vec<SelectionVector>),
    Agg(AggResult),
    TopK(Vec<TopKRow>),
    Join(usize, u64),
}

/// FNV-1a 64: the result *fingerprint* chain's hash. Not the store's
/// checksum — a format bump there must leave every seed's `fp` comparable
/// with the lines older builds printed.
fn fnv1a64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Order-sensitive FNV-style fold over every pair's four coordinates, so a
/// join result collapses to a compact digest without losing pair order.
fn digest_pairs(pairs: &[JoinPair]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for p in pairs {
        for v in [p.build.block, p.build.row, p.probe.block, p.probe.row] {
            h = (h ^ u64::from(v)).wrapping_mul(0x0000_0100_0000_01B3);
        }
    }
    h
}

const WORKLOADS: [&str; 6] = ["tpch", "dmv", "ldbc", "taxi", "timeseries", "synthetic"];

/// A fully-built scenario: store image, oracle, and operation schedule.
pub struct Scenario {
    /// The generating seed.
    pub seed: u64,
    /// Workload label.
    pub workload: &'static str,
    /// Rows per block used when splitting.
    pub block_rows: usize,
    /// Compressed blocks (the in-memory engine's input).
    pub blocks: Vec<CompressedBlock>,
    /// Serialized store image (footer v4, checksummed).
    pub bytes: Vec<u8>,
    /// The row-oriented oracle.
    pub model: ModelTable,
    raw_blocks: Vec<DataBlock>,
    compression: CompressionConfig,
    ops: Vec<Op>,
    expected: Vec<Expected>,
    quick: bool,
}

impl Scenario {
    /// Deterministically builds the scenario for `seed`.
    ///
    /// The workload is `seed % 6` (so a small seed corpus can cover all
    /// six); everything else — table shape, block size, operation and
    /// fault schedules — comes from an `StdRng` seeded with `seed`.
    pub fn build(seed: u64, opts: &SimOptions) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let workload = WORKLOADS[(seed % WORKLOADS.len() as u64) as usize];
        let rows = if opts.quick {
            rng.gen_range(1_200..3_000)
        } else {
            rng.gen_range(5_000..14_000)
        };
        let (table, cfg, groupable) = build_workload(workload, rows, &mut rng);
        let block_rows = *[97, 256, 511, 1_024, 2_048]
            .iter()
            .filter(|&&b| b < rows)
            .nth(rng.gen_range(0..4))
            .expect("row floor exceeds every candidate block size");
        let raw_blocks: Vec<DataBlock> = table.into_blocks(block_rows);
        let blocks: Vec<CompressedBlock> = raw_blocks
            .iter()
            .map(|b| CompressedBlock::compress(b, &cfg).expect("workload config compresses"))
            .collect();
        let mut writer = TableWriter::new(Vec::new()).expect("vec sink");
        for b in &blocks {
            writer.write_block(b).expect("write block");
        }
        let bytes = writer.finish().expect("finish table");
        let model = ModelTable::from_blocks(&raw_blocks);
        let n_ops = if opts.quick { 24 } else { 64 };
        let ops = schedule_ops(&mut rng, &model, &groupable, n_ops);
        let expected = ops.iter().map(|op| expect(&model, &blocks, op)).collect();
        Self {
            seed,
            workload,
            block_rows,
            blocks,
            bytes,
            model,
            raw_blocks,
            compression: cfg,
            ops,
            expected,
            quick: opts.quick,
        }
    }

    /// Number of scheduled operations.
    pub fn ops(&self) -> usize {
        self.ops.len()
    }

    /// `(TOP-K ops, join ops)` in the schedule — exposed so the replay
    /// corpus can assert the operator pipeline stays exercised rather than
    /// silently scheduled away.
    pub fn operator_ops(&self) -> (usize, usize) {
        let topk = self.ops.iter().filter(|o| matches!(o, Op::TopK(_))).count();
        let join = self.ops.iter().filter(|o| matches!(o, Op::Join(_))).count();
        (topk, join)
    }

    fn fail(&self, message: String) -> SimFailure {
        SimFailure {
            seed: self.seed,
            message,
        }
    }

    /// Clean differential pass: store reader + in-memory engine vs the
    /// model, for every operation. Returns the result fingerprint.
    pub fn verify_clean(&self) -> Result<u64, SimFailure> {
        let reader = TableReader::from_bytes(self.bytes.clone())
            .map_err(|e| self.fail(format!("clean open failed: {e}")))?;
        let mut fp = fnv1a64(b"corra-sim");
        for (i, (op, want)) in self.ops.iter().zip(&self.expected).enumerate() {
            let got = run_op(&reader, op).map_err(|e| self.fail(format!("op {i} {op:?}: {e}")))?;
            if &got != want {
                return Err(self.fail(format!(
                    "op {i} {op:?}: engine disagrees with model\n  got  {got:?}\n  want {want:?}"
                )));
            }
            // The in-memory engine must agree with the store path too.
            match op {
                Op::Scan(pred) => {
                    let (sels, _) = scan_blocks(&self.blocks, pred)
                        .map_err(|e| self.fail(format!("op {i} in-memory scan: {e}")))?;
                    if Expected::Scan(sels) != *want {
                        return Err(self.fail(format!("op {i} {op:?}: in-memory scan diverged")));
                    }
                }
                Op::Aggregate(expr) => {
                    let (agg, _) = aggregate_blocks(&self.blocks, expr)
                        .map_err(|e| self.fail(format!("op {i} in-memory aggregate: {e}")))?;
                    if Expected::Agg(agg) != *want {
                        return Err(self.fail(format!("op {i} {op:?}: in-memory agg diverged")));
                    }
                }
                Op::TopK(expr) => {
                    let (rows, _) = top_k_blocks(&self.blocks, expr)
                        .map_err(|e| self.fail(format!("op {i} in-memory top-k: {e}")))?;
                    if Expected::TopK(rows) != *want {
                        return Err(self.fail(format!("op {i} {op:?}: in-memory top-k diverged")));
                    }
                }
                Op::Join(expr) => {
                    let (pairs, _) = hash_join_blocks(&self.blocks, &self.blocks, expr)
                        .map_err(|e| self.fail(format!("op {i} in-memory join: {e}")))?;
                    if Expected::Join(pairs.len(), digest_pairs(&pairs)) != *want {
                        return Err(self.fail(format!("op {i} {op:?}: in-memory join diverged")));
                    }
                }
                Op::ReadBlock(_) | Op::ReadColumn(..) => {}
            }
            fp = fnv1a64(format!("{fp:016x}|{got:?}").as_bytes());
        }
        Ok(fp)
    }

    /// Cache pass: the whole schedule through a cache-wrapped reader,
    /// twice per budget. An ample budget must make the warm repeat
    /// I/O-free; a tiny budget forces eviction churn mid-schedule. Both
    /// must stay byte-identical to the uncached oracle throughout.
    /// Returns the warm ample-budget pass's cache hits.
    pub fn verify_cached(&self) -> Result<u64, SimFailure> {
        let mut warm_hits = 0u64;
        // Tiny budget: a fraction of the file, single-digit shards, so
        // entries keep shoving each other out between (and inside) ops.
        let tiny = (self.bytes.len() as u64 / 4).max(512);
        for (label, budget) in [("ample", 64 << 20), ("tiny", tiny)] {
            let cache = Arc::new(ShardedCache::new(CacheConfig {
                byte_budget: budget,
                shards: 4,
            }));
            let reader = TableReader::from_bytes(self.bytes.clone())
                .map_err(|e| self.fail(format!("cached open failed: {e}")))?
                .with_cache(Arc::clone(&cache));
            for pass in ["cold", "warm"] {
                let before = reader.bytes_read();
                let mut hits = 0u64;
                for (i, (op, want)) in self.ops.iter().zip(&self.expected).enumerate() {
                    let (got, stats) = run_op_counted(&reader, op)
                        .map_err(|e| self.fail(format!("{label} {pass} op {i} {op:?}: {e}")))?;
                    if &got != want {
                        return Err(self.fail(format!(
                            "{label} {pass} op {i} {op:?}: cached result diverged from oracle"
                        )));
                    }
                    hits += stats;
                }
                if label == "ample" && pass == "warm" {
                    let read = reader.bytes_read() - before;
                    if read != 0 {
                        return Err(self.fail(format!(
                            "warm ample-budget pass read {read} backend bytes, expected 0"
                        )));
                    }
                    warm_hits = hits;
                }
            }
            let stats = cache.stats();
            if stats.bytes_cached > cache.capacity() {
                return Err(self.fail(format!("{label} cache overran its budget: {stats:?}")));
            }
        }
        Ok(warm_hits)
    }

    /// Benign fault pass: a backend that constantly returns short reads
    /// must be fully transparent.
    pub fn verify_benign_faults(&self) -> Result<u64, SimFailure> {
        let mut rng = StdRng::seed_from_u64(self.seed.wrapping_add(0xBE216E));
        let plan = FaultPlan::none(rng.gen()).with_short_reads(rng.gen_range(0.4..0.95));
        debug_assert!(plan.is_benign());
        let backend = FaultyBackend::new(MemBackend::new(self.bytes.clone()), plan);
        let reader = TableReader::from_backend(Box::new(backend))
            .map_err(|e| self.fail(format!("benign-fault open failed: {e}")))?;
        let mut healed = 0u64;
        for (i, (op, want)) in self.ops.iter().zip(&self.expected).enumerate() {
            let got = run_op(&reader, op)
                .map_err(|e| self.fail(format!("benign op {i} {op:?} errored: {e}")))?;
            if &got != want {
                return Err(self.fail(format!(
                    "benign op {i} {op:?}: short reads corrupted a result"
                )));
            }
            healed += 1;
        }
        Ok(healed)
    }

    /// Hostile fault pass: bit flips + transient errors. Every operation
    /// must error or return the exact model answer; the whole episode must
    /// be deterministic per seed. Returns total faults injected.
    pub fn verify_hostile_faults(&self) -> Result<u64, SimFailure> {
        let episodes = if self.quick { 2 } else { 4 };
        let mut injected = 0u64;
        for episode in 0..episodes {
            let fault_seed = self
                .seed
                .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                .wrapping_add(episode);
            let run = |bytes: &[u8]| -> Result<(Vec<String>, u64), SimFailure> {
                let plan = FaultPlan::none(fault_seed)
                    .with_bit_flips(0.04 + 0.03 * episode as f64)
                    .with_transient_errors(0.02 * episode as f64);
                let backend =
                    std::sync::Arc::new(FaultyBackend::new(MemBackend::new(bytes.to_vec()), plan));
                let stats_handle = std::sync::Arc::clone(&backend);
                let mut log = Vec::with_capacity(self.ops.len() + 1);
                match TableReader::from_backend(Box::new(backend)) {
                    Err(e) => log.push(format!("open err: {e}")),
                    Ok(reader) => {
                        for (i, (op, want)) in self.ops.iter().zip(&self.expected).enumerate() {
                            match run_op(&reader, op) {
                                Err(e) => log.push(format!("op {i} err: {e}")),
                                Ok(got) => {
                                    if &got != want {
                                        return Err(self.fail(format!(
                                            "hostile episode {episode} op {i} {op:?}: \
                                             silently wrong data served"
                                        )));
                                    }
                                    log.push(format!("op {i} ok"));
                                }
                            }
                        }
                    }
                }
                Ok((log, stats_handle.stats().total()))
            };
            let (first, faults) = run(&self.bytes)?;
            let (second, _) = run(&self.bytes)?;
            if first != second {
                return Err(self.fail(format!(
                    "hostile episode {episode}: fault schedule not deterministic"
                )));
            }
            injected += faults;
        }
        // Hostile faults with a cache in the path: a bit-flipped fill must
        // surface as `Err` and never be admitted — so when the schedule is
        // replayed through the *same* cached reader, every success must
        // still match the oracle (a poisoned entry would be served here)
        // and every entry that did land in the cache must have passed
        // verification first.
        for episode in 0..episodes {
            let fault_seed = self
                .seed
                .wrapping_mul(0xC2B2_AE3D_27D4_EB4F)
                .wrapping_add(episode);
            let plan = FaultPlan::none(fault_seed)
                .with_bit_flips(0.05 + 0.04 * episode as f64)
                .with_transient_errors(0.02 * episode as f64);
            let backend = FaultyBackend::new(MemBackend::new(self.bytes.clone()), plan);
            let cache = Arc::new(ShardedCache::new(CacheConfig::with_budget(64 << 20)));
            let Ok(reader) = TableReader::from_backend(Box::new(backend)) else {
                continue; // open itself was flipped — nothing cached, done
            };
            let reader = reader.with_cache(Arc::clone(&cache));
            for round in 0..2 {
                for (i, (op, want)) in self.ops.iter().zip(&self.expected).enumerate() {
                    match run_op(&reader, op) {
                        Err(_) => {}
                        Ok(got) => {
                            if &got != want {
                                return Err(self.fail(format!(
                                    "hostile cached episode {episode} round {round} op {i} \
                                     {op:?}: poisoned or wrong data served"
                                )));
                            }
                        }
                    }
                }
            }
        }

        // Torn tails must always fail at open: the trailer is unreadable.
        let mut rng = StdRng::seed_from_u64(self.seed ^ 0x7042);
        for _ in 0..3 {
            let cut = rng.gen_range(1..self.bytes.len().min(512)) as u64;
            let plan = FaultPlan::none(rng.gen()).with_truncation(self.bytes.len() as u64 - cut);
            let backend = FaultyBackend::new(MemBackend::new(self.bytes.clone()), plan);
            if TableReader::from_backend(Box::new(backend)).is_ok() {
                return Err(self.fail(format!("torn tail (cut {cut}) opened successfully")));
            }
        }
        Ok(injected)
    }

    /// Seeded slice of the shared single-bit-flip corruption sweep.
    pub fn verify_sweep(&self) -> usize {
        let budget = if self.quick { 16 } else { 64 };
        let opts = SweepOptions {
            truncation: false, // torn tails covered per-episode above
            ..SweepOptions::quick(self.bytes.len(), budget)
        };
        corruption_sweep(&self.bytes, &opts).flips_tested
    }

    /// Ingest pass: the scenario's raw blocks are appended group-by-group
    /// into a crash-consistent [`IngestTable`] over [`SimVfs`], the full
    /// operation schedule replays against the multi-segment reader (every
    /// result must match the single-file oracle bit for bit), the table is
    /// compacted and re-verified row-for-row against the model, and a
    /// seeded sample of crash points re-runs the build, asserting recovery
    /// to exactly an acknowledged group boundary. Returns
    /// `(crash points exercised, segments opened by the schedule replay)`.
    pub fn verify_ingest(&self) -> Result<(usize, u64), SimFailure> {
        let mut rng = StdRng::seed_from_u64(self.seed ^ 0x16E5_7A55);
        let groups = self.append_groups(&mut rng);

        // Clean build + schedule replay over the multi-segment reader.
        let sim = SimVfs::new(self.seed);
        let (table, _) = self
            .run_ingest_workload(Arc::new(sim), &groups, false)
            .map_err(|e| self.fail(format!("ingest build failed: {e}")))?;
        let table = table.expect("fault-free build always yields a table");
        let reader = table
            .reader()
            .map_err(|e| self.fail(format!("ingest reader failed: {e}")))?;
        if reader.segments().len() < groups.len() {
            return Err(self.fail(format!(
                "{} appends produced {} segments",
                groups.len(),
                reader.segments().len()
            )));
        }
        let mut segments_opened = 0u64;
        for (i, (op, want)) in self.ops.iter().zip(&self.expected).enumerate() {
            let (got, opened) = run_op_segmented(&reader, op)
                .map_err(|e| self.fail(format!("segmented op {i} {op:?}: {e}")))?;
            if &got != want {
                return Err(self.fail(format!(
                    "segmented op {i} {op:?}: multi-segment reader diverged from oracle"
                )));
            }
            segments_opened += opened;
        }

        // Compact and re-verify row-for-row (block boundaries change, so
        // the comparison is over concatenated columns, not per block).
        let mut table = table;
        let result = compact(&mut table, &self.compaction_config())
            .map_err(|e| self.fail(format!("compaction failed: {e}")))?;
        if groups.len() >= 2 && !result.compacted {
            return Err(self.fail(format!(
                "compaction skipped a {}-segment table",
                result.segments_before
            )));
        }
        let compacted = table
            .reader()
            .map_err(|e| self.fail(format!("post-compaction reader failed: {e}")))?;
        self.check_rows_equal_model_prefix(&compacted, self.model.rows(), "post-compaction")?;

        // Crash sample: rerun the build + compaction with an op-indexed
        // crash point, apply the crash, recover, and hold recovery to the
        // ack boundary: every acknowledged group present, at most the one
        // in-flight group extra, rows byte-equal to the model prefix.
        let probe = SimVfs::new(self.seed ^ 0xC4A5);
        self.run_ingest_workload(Arc::new(probe.clone()), &groups, true)
            .map_err(|e| self.fail(format!("crash-probe build failed: {e}")))?;
        let total_ops = probe.op_count();
        let n_points = if self.quick { 4 } else { 10 };
        let mut exercised = 0usize;
        for _ in 0..n_points {
            let k = rng.gen_range(0..total_ops);
            let sim = SimVfs::new(self.seed ^ 0xC4A5);
            sim.crash_after(k);
            let (_, acked) = self
                .run_ingest_workload(Arc::new(sim.clone()), &groups, true)
                .map_err(|e| self.fail(format!("crash run {k} failed cleanly: {e}")))?;
            if !sim.has_crashed() {
                return Err(self.fail(format!("crash point {k} never tripped")));
            }
            sim.apply_crash();
            let acked_rows: usize = groups[..acked].iter().map(|g| self.group_rows(g)).sum();
            let with_inflight = if acked < groups.len() {
                acked_rows + self.group_rows(&groups[acked])
            } else {
                acked_rows
            };
            match IngestTable::open(Arc::new(sim.clone()), self.ingest_config()) {
                Err(_) => {
                    if acked > 0 {
                        return Err(self.fail(format!(
                            "crash point {k}: recovery failed after {acked} acked appends"
                        )));
                    }
                }
                Ok(recovered) => {
                    let rows = recovered.rows() as usize;
                    if rows != acked_rows && rows != with_inflight {
                        return Err(self.fail(format!(
                            "crash point {k}: recovered {rows} rows, expected {acked_rows} \
                             (acked) or {with_inflight} (acked + whole in-flight append)"
                        )));
                    }
                    let reader = recovered
                        .reader()
                        .map_err(|e| self.fail(format!("crash point {k}: reopen read: {e}")))?;
                    self.check_rows_equal_model_prefix(&reader, rows, &format!("crash point {k}"))?;
                }
            }
            exercised += 1;
        }
        Ok((exercised, segments_opened))
    }

    fn ingest_config(&self) -> IngestConfig {
        IngestConfig {
            block_rows: self.block_rows,
            threads: 1,
            compression: self.compression.clone(),
            keep_manifests: 2,
        }
    }

    fn compaction_config(&self) -> CompactionConfig {
        CompactionConfig {
            block_rows: self.block_rows,
            threads: 1,
            ..CompactionConfig::default()
        }
    }

    /// Splits the raw blocks into 2–4 contiguous append groups.
    fn append_groups(&self, rng: &mut StdRng) -> Vec<std::ops::Range<usize>> {
        let n = self.raw_blocks.len();
        let n_groups = rng.gen_range(2..=4usize.min(n.max(2)));
        let mut cuts: Vec<usize> = (0..n_groups - 1).map(|_| rng.gen_range(1..n)).collect();
        cuts.sort_unstable();
        cuts.dedup();
        let mut groups = Vec::with_capacity(cuts.len() + 1);
        let mut start = 0;
        for cut in cuts {
            groups.push(start..cut);
            start = cut;
        }
        groups.push(start..n);
        groups
    }

    fn group_rows(&self, group: &std::ops::Range<usize>) -> usize {
        self.raw_blocks[group.clone()]
            .iter()
            .map(DataBlock::rows)
            .sum()
    }

    /// Builds the ingest table: create, append each group, then (when
    /// `compact_after`) compact. Returns the table (when it survived) and
    /// how many appends were acknowledged. Errors from the vfs (crash
    /// points) are normal and reported through the ack count; only
    /// non-crash divergence propagates as `Err`.
    #[allow(clippy::type_complexity)]
    fn run_ingest_workload(
        &self,
        vfs: Arc<dyn Vfs>,
        groups: &[std::ops::Range<usize>],
        compact_after: bool,
    ) -> Result<(Option<IngestTable>, usize), corra_columnar::error::Error> {
        let mut table = match IngestTable::create(vfs, self.ingest_config()) {
            Ok(t) => t,
            Err(_) => return Ok((None, 0)),
        };
        let mut acked = 0usize;
        for group in groups {
            if table
                .append_blocks(&self.raw_blocks[group.clone()])
                .is_err()
            {
                return Ok((None, acked));
            }
            acked += 1;
        }
        if compact_after && compact(&mut table, &self.compaction_config()).is_err() {
            return Ok((None, acked));
        }
        Ok((Some(table), acked))
    }

    /// Asserts the reader's first `rows` rows equal the model's, column by
    /// column (block boundaries may differ, so columns are concatenated).
    fn check_rows_equal_model_prefix(
        &self,
        reader: &SegmentedTable,
        rows: usize,
        what: &str,
    ) -> Result<(), SimFailure> {
        for name in self.model.names() {
            let mut got_int = Vec::new();
            let mut got_str = Vec::new();
            for b in 0..reader.n_blocks() {
                match reader
                    .read_column(b, name)
                    .map_err(|e| self.fail(format!("{what}: reading {name}: {e}")))?
                {
                    Column::Int64(v) => got_int.extend(v),
                    Column::Utf8(p) => got_str.extend(p.iter().map(str::to_owned)),
                }
            }
            let mut want_int = Vec::new();
            let mut want_str = Vec::new();
            for b in 0..self.model.n_blocks() {
                match self.model.column(b, name) {
                    Column::Int64(v) => want_int.extend(v),
                    Column::Utf8(p) => want_str.extend(p.iter().map(str::to_owned)),
                }
            }
            want_int.truncate(rows);
            want_str.truncate(rows);
            if got_int != want_int || got_str != want_str {
                return Err(self.fail(format!(
                    "{what}: column {name} diverged from the model prefix ({rows} rows)"
                )));
            }
        }
        Ok(())
    }
}

/// Builds the scenario for a seed and runs all passes.
pub fn run_seed(seed: u64, opts: &SimOptions) -> Result<ScenarioOutcome, SimFailure> {
    let scenario = Scenario::build(seed, opts);
    let fingerprint = scenario.verify_clean()?;
    let cache_hits = scenario.verify_cached()?;
    scenario.verify_benign_faults()?;
    let faults_injected = scenario.verify_hostile_faults()?;
    let sweep_flips = scenario.verify_sweep();
    let (ingest_crash_points, segments_opened) = scenario.verify_ingest()?;
    Ok(ScenarioOutcome {
        seed,
        workload: scenario.workload,
        rows: scenario.model.rows(),
        n_blocks: scenario.blocks.len(),
        ops: scenario.ops(),
        fingerprint,
        faults_injected,
        cache_hits,
        sweep_flips,
        ingest_crash_points,
        segments_opened,
    })
}

/// Runs one op against the store reader. Backend reads happen in one
/// deterministic order, which the hostile-episode replay check relies on.
fn run_op(reader: &TableReader, op: &Op) -> corra_columnar::error::Result<Expected> {
    Ok(match op {
        Op::ReadBlock(b) => Expected::Block(reader.read_block(*b)?),
        Op::ReadColumn(b, name) => Expected::Column(reader.read_column(*b, name)?),
        Op::Scan(pred) => Expected::Scan(reader.scan_blocks(pred)?.0),
        Op::Aggregate(expr) => Expected::Agg(reader.aggregate(expr)?.0),
        Op::TopK(expr) => Expected::TopK(reader.top_k(expr)?.0),
        Op::Join(expr) => {
            let (pairs, _) = reader.hash_join(reader, expr)?;
            Expected::Join(pairs.len(), digest_pairs(&pairs))
        }
    })
}

/// [`run_op`] plus the op's cache-hit count (scans and aggregates
/// report hits through `ScanStats`; point ops return 0).
fn run_op_counted(reader: &TableReader, op: &Op) -> corra_columnar::error::Result<(Expected, u64)> {
    Ok(match op {
        Op::ReadBlock(b) => (Expected::Block(reader.read_block(*b)?), 0),
        Op::ReadColumn(b, name) => (Expected::Column(reader.read_column(*b, name)?), 0),
        Op::Scan(pred) => {
            let (sels, stats) = reader.scan_blocks(pred)?;
            (Expected::Scan(sels), stats.cache_hits)
        }
        Op::Aggregate(expr) => {
            let (agg, stats) = reader.aggregate(expr)?;
            (Expected::Agg(agg), stats.cache_hits)
        }
        Op::TopK(expr) => {
            let (rows, stats) = reader.top_k(expr)?;
            (Expected::TopK(rows), stats.cache_hits)
        }
        Op::Join(expr) => {
            let (pairs, stats) = reader.hash_join(reader, expr)?;
            (
                Expected::Join(pairs.len(), digest_pairs(&pairs)),
                stats.io.cache_hits,
            )
        }
    })
}

/// Runs one op against the multi-segment reader, returning the result and
/// the `segments_opened` count the op reported (point ops report 0 here —
/// their per-block stats are covered by the serve tests).
fn run_op_segmented(
    reader: &SegmentedTable,
    op: &Op,
) -> corra_columnar::error::Result<(Expected, u64)> {
    Ok(match op {
        Op::ReadBlock(b) => (Expected::Block(reader.read_block(*b)?), 0),
        Op::ReadColumn(b, name) => (Expected::Column(reader.read_column(*b, name)?), 0),
        Op::Scan(pred) => {
            let (sels, stats) = reader.scan_blocks(pred)?;
            (Expected::Scan(sels), stats.segments_opened as u64)
        }
        Op::Aggregate(expr) => {
            let (agg, stats) = reader.aggregate(expr)?;
            (Expected::Agg(agg), stats.segments_opened as u64)
        }
        Op::TopK(expr) => {
            let (rows, stats) = reader.top_k(expr)?;
            (Expected::TopK(rows), stats.segments_opened as u64)
        }
        Op::Join(expr) => {
            let (pairs, stats) = reader.hash_join(reader, expr)?;
            (
                Expected::Join(pairs.len(), digest_pairs(&pairs)),
                stats.io.segments_opened as u64,
            )
        }
    })
}

fn expect(model: &ModelTable, blocks: &[CompressedBlock], op: &Op) -> Expected {
    match op {
        Op::ReadBlock(b) => Expected::Block(blocks[*b].clone()),
        Op::ReadColumn(b, name) => Expected::Column(model.column(*b, name)),
        Op::Scan(pred) => Expected::Scan(model.scan(pred)),
        Op::Aggregate(expr) => Expected::Agg(model.aggregate(expr)),
        Op::TopK(expr) => Expected::TopK(model.top_k(expr)),
        Op::Join(expr) => {
            let pairs = model.join(expr, model);
            Expected::Join(pairs.len(), digest_pairs(&pairs))
        }
    }
}

// ---------------------------------------------------------------------------
// Operation scheduling.
// ---------------------------------------------------------------------------

fn schedule_ops(
    rng: &mut StdRng,
    model: &ModelTable,
    groupable: &[String],
    n_ops: usize,
) -> Vec<Op> {
    let int_cols: Vec<String> = model
        .names()
        .iter()
        .filter(|n| !model.is_string(n))
        .cloned()
        .collect();
    let str_cols: Vec<String> = model
        .names()
        .iter()
        .filter(|n| model.is_string(n))
        .cloned()
        .collect();
    let mut ops = Vec::with_capacity(n_ops);
    for _ in 0..n_ops {
        ops.push(match rng.gen_range(0..10) {
            0 => Op::ReadBlock(rng.gen_range(0..model.n_blocks())),
            1..=2 => {
                let names = model.names();
                Op::ReadColumn(
                    rng.gen_range(0..model.n_blocks()),
                    names[rng.gen_range(0..names.len())].clone(),
                )
            }
            3..=4 => Op::Scan(random_predicate(rng, model, &int_cols, &str_cols, 2)),
            5..=6 => Op::TopK(random_topk(rng, model, &int_cols, &str_cols)),
            7 => {
                // Self-join on one of the workload's dict-encoded key
                // columns (the groupable set is dict-planned by every
                // workload builder). Low-cardinality keys can explode
                // quadratically on a self-join, so oversized picks fall
                // back to an aggregate rather than stalling the harness.
                let expr = (!groupable.is_empty()).then(|| {
                    let key = &groupable[rng.gen_range(0..groupable.len())];
                    JoinExpr::on(key, key)
                });
                match expr.filter(|e| model.join_count(e, model) <= 200_000) {
                    Some(expr) => Op::Join(expr),
                    None => Op::Aggregate(random_aggregate(
                        rng, model, groupable, &int_cols, &str_cols,
                    )),
                }
            }
            _ => Op::Aggregate(random_aggregate(
                rng, model, groupable, &int_cols, &str_cols,
            )),
        });
    }
    ops
}

/// A random TOP-K / ORDER BY expression over an integer column: both
/// directions, k spanning 0 / partial / >= rows (the ORDER BY degenerate
/// case), and an optional row filter.
fn random_topk(
    rng: &mut StdRng,
    model: &ModelTable,
    int_cols: &[String],
    str_cols: &[String],
) -> TopKExpr {
    let col = &int_cols[rng.gen_range(0..int_cols.len())];
    let k = match rng.gen_range(0..10) {
        0 => 0,
        1..=2 => model.rows() + rng.gen_range(0..8usize),
        _ => rng.gen_range(1..64),
    };
    let mut expr = if rng.gen_bool(0.5) {
        TopKExpr::desc(col, k)
    } else {
        TopKExpr::asc(col, k)
    };
    if rng.gen_bool(0.4) {
        expr = expr.with_filter(random_predicate(rng, model, int_cols, str_cols, 1));
    }
    expr
}

/// A random predicate tree, depth-bounded, with constants sampled from the
/// data so selectivities land everywhere between empty and full.
fn random_predicate(
    rng: &mut StdRng,
    model: &ModelTable,
    int_cols: &[String],
    str_cols: &[String],
    depth: usize,
) -> Predicate {
    if depth > 0 && rng.gen_bool(0.4) {
        let n = rng.gen_range(2..=3);
        let children: Vec<Predicate> = (0..n)
            .map(|_| random_predicate(rng, model, int_cols, str_cols, depth - 1))
            .collect();
        let combined = if rng.gen_bool(0.5) {
            Predicate::and(children)
        } else {
            Predicate::or(children)
        };
        return if rng.gen_bool(0.25) {
            Predicate::not(combined)
        } else {
            combined
        };
    }
    // Leaf: string equality when string columns exist, else integer.
    if !str_cols.is_empty() && rng.gen_bool(0.3) {
        let col = &str_cols[rng.gen_range(0..str_cols.len())];
        let value = model
            .sample_str(rng.gen_range(0..model.rows()), col)
            .to_owned();
        return if rng.gen_bool(0.25) {
            Predicate::str_ne(col, &value)
        } else {
            Predicate::str_eq(col, &value)
        };
    }
    let col = &int_cols[rng.gen_range(0..int_cols.len())];
    let pivot = model.sample_int(rng.gen_range(0..model.rows()), col);
    let jitter = rng.gen_range(-50..=50i64);
    let v = pivot.saturating_add(jitter);
    match rng.gen_range(0..7) {
        0 => Predicate::eq(col, pivot),
        1 => Predicate::ne(col, v),
        2 => Predicate::lt(col, v),
        3 => Predicate::le(col, v),
        4 => Predicate::gt(col, v),
        5 => Predicate::ge(col, v),
        _ => {
            let width = rng.gen_range(0..5_000i64);
            Predicate::between(col, v, v.saturating_add(width))
        }
    }
}

fn random_aggregate(
    rng: &mut StdRng,
    model: &ModelTable,
    groupable: &[String],
    int_cols: &[String],
    str_cols: &[String],
) -> AggExpr {
    const FUNCS: [AggFunc; 5] = [
        AggFunc::Count,
        AggFunc::Sum,
        AggFunc::Min,
        AggFunc::Max,
        AggFunc::Avg,
    ];
    let func = FUNCS[rng.gen_range(0..FUNCS.len())];
    // Target: COUNT(*) sometimes; string targets only for Count/Min/Max.
    let string_ok = matches!(func, AggFunc::Count | AggFunc::Min | AggFunc::Max);
    let mut expr = if matches!(func, AggFunc::Count) && rng.gen_bool(0.3) {
        AggExpr::count()
    } else if string_ok && !str_cols.is_empty() && rng.gen_bool(0.25) {
        AggExpr::of(func, &str_cols[rng.gen_range(0..str_cols.len())])
    } else {
        AggExpr::of(func, &int_cols[rng.gen_range(0..int_cols.len())])
    };
    if rng.gen_bool(0.5) {
        expr = expr.with_filter(random_predicate(rng, model, int_cols, str_cols, 1));
    }
    if !groupable.is_empty() && rng.gen_bool(0.4) {
        expr = expr.with_group_by(&groupable[rng.gen_range(0..groupable.len())]);
    }
    expr
}

// ---------------------------------------------------------------------------
// Workloads.
// ---------------------------------------------------------------------------

/// Builds `(table, config, groupable columns)` for a workload label.
fn build_workload(
    workload: &str,
    rows: usize,
    rng: &mut StdRng,
) -> (Table, CompressionConfig, Vec<String>) {
    let seed: u64 = rng.gen();
    match workload {
        "tpch" => {
            let table = LineitemDates::generate(rows, seed).into_table();
            let cfg = CompressionConfig::baseline()
                .with(
                    "l_commitdate",
                    ColumnPlan::NonHier {
                        reference: "l_shipdate".into(),
                    },
                )
                .with(
                    "l_receiptdate",
                    ColumnPlan::NonHier {
                        reference: "l_shipdate".into(),
                    },
                );
            (table, cfg, vec![])
        }
        "dmv" => {
            let table = DmvTable::generate(DmvParams::scaled(rows), seed).into_table();
            let cfg = CompressionConfig::baseline().with(
                "zip",
                ColumnPlan::Hier {
                    reference: "city".into(),
                },
            );
            (table, cfg, vec!["state".into(), "city".into()])
        }
        "ldbc" => {
            let table = MessageTable::generate(MessageParams::scaled(rows), seed).into_table();
            // Dict-planning the parent keeps it a valid hier reference and
            // makes it a legal GROUP BY key.
            let cfg = CompressionConfig::baseline()
                .with("countryid", ColumnPlan::Dict)
                .with(
                    "ip",
                    ColumnPlan::Hier {
                        reference: "countryid".into(),
                    },
                );
            (table, cfg, vec!["countryid".into()])
        }
        "taxi" => {
            let mut t = TaxiTable::generate(
                TaxiParams {
                    rows,
                    ..TaxiParams::default()
                },
                seed,
            );
            taxi::clean(&mut t);
            let table = t.into_table();
            let cfg = CompressionConfig::baseline()
                .with(
                    "dropoff",
                    ColumnPlan::NonHier {
                        reference: "pickup".into(),
                    },
                )
                .with(
                    "total_amount",
                    ColumnPlan::MultiRef {
                        groups: TaxiTable::reference_groups(),
                        code_bits: 2,
                    },
                );
            (table, cfg, vec![])
        }
        "timeseries" => {
            let table =
                TimeseriesTable::generate(&TimeseriesParams::scaled(rows), seed).into_table();
            let mut cfg = CompressionConfig::baseline();
            for col in ["ts", "device", "status", "latency_us"] {
                cfg.set(col, ColumnPlan::AutoFull);
            }
            (table, cfg, vec!["level".into(), "service".into()])
        }
        "synthetic" => synthetic_workload(rows, seed),
        other => unreachable!("unknown workload {other}"),
    }
}

/// The codec-family-dense synthetic workload: every horizontal scheme plus
/// dict/plain strings and a dict-int group key in one schema.
fn synthetic_workload(rows: usize, seed: u64) -> (Table, CompressionConfig, Vec<String>) {
    let mut rng = StdRng::seed_from_u64(seed);
    let n = rows;
    let cities = ["NYC", "Albany", "Naples", "Cortland", "Ithaca"];
    let n_cities = rng.gen_range(2..=cities.len());
    let zips_per_city = rng.gen_range(2..=6usize);
    let base_date: i64 = rng.gen_range(5_000..20_000);
    let spread: i64 = rng.gen_range(200..3_000);
    let city_idx: Vec<usize> = (0..n).map(|_| rng.gen_range(0..n_cities)).collect();
    let city: Vec<&str> = city_idx.iter().map(|&c| cities[c]).collect();
    let note: Vec<String> = (0..n).map(|i| format!("n-{}", i % 11)).collect();
    let zip: Vec<i64> = city_idx
        .iter()
        .map(|&c| 10_000 + c as i64 * 100 + rng.gen_range(0..zips_per_city) as i64)
        .collect();
    let ship: Vec<i64> = (0..n)
        .map(|_| base_date + rng.gen_range(0..spread))
        .collect();
    let receipt: Vec<i64> = ship.iter().map(|&s| s + rng.gen_range(1..30i64)).collect();
    let fee: Vec<i64> = (0..n).map(|_| rng.gen_range(100..1_000i64)).collect();
    let extra: Vec<i64> = vec![rng.gen_range(5..50i64); n];
    let total: Vec<i64> = fee
        .iter()
        .zip(&extra)
        .enumerate()
        .map(|(i, (&f, &e))| if i % 2 == 0 { f } else { f + e })
        .collect();
    let bucket: Vec<i64> = (0..n).map(|_| rng.gen_range(0..7i64) * 1_000).collect();
    let table = Table::new(
        Schema::new(vec![
            Field::new("city", DataType::Utf8),
            Field::new("note", DataType::Utf8),
            Field::new("zip", DataType::Int64),
            Field::new("ship", DataType::Date),
            Field::new("receipt", DataType::Date),
            Field::new("fee", DataType::Int64),
            Field::new("extra", DataType::Int64),
            Field::new("total", DataType::Int64),
            Field::new("bucket", DataType::Int64),
        ])
        .expect("distinct names"),
        vec![
            Column::Utf8(city.into_iter().collect()),
            Column::Utf8(note.iter().map(String::as_str).collect()),
            Column::Int64(zip),
            Column::Int64(ship),
            Column::Int64(receipt),
            Column::Int64(fee),
            Column::Int64(extra),
            Column::Int64(total),
            Column::Int64(bucket),
        ],
    )
    .expect("aligned columns");
    let cfg = CompressionConfig::baseline()
        .with("note", ColumnPlan::Plain)
        .with(
            "zip",
            ColumnPlan::Hier {
                reference: "city".into(),
            },
        )
        .with(
            "receipt",
            ColumnPlan::NonHier {
                reference: "ship".into(),
            },
        )
        .with(
            "total",
            ColumnPlan::MultiRef {
                groups: vec![vec!["fee".into()], vec!["extra".into()]],
                code_bits: 2,
            },
        )
        .with("bucket", ColumnPlan::Dict);
    (table, cfg, vec!["city".into(), "bucket".into()])
}
