//! The writable table: a crash-consistent append pipeline over the
//! [`Vfs`] seam.
//!
//! An [`IngestTable`] is a directory of immutable segment files governed
//! by the [`manifest`] chain. Appends run in two stages,
//! following the classic log-pipeline shape:
//!
//! 1. **CPU stage** ([`encode_segment`]) — split rows into blocks, run
//!    the codec chooser and compress every block (the morsel-parallel
//!    [`compress_blocks`] driver), frame them with the store's
//!    footer-last v4 checksum layout into one in-memory segment image.
//!    Pure computation, no I/O.
//! 2. **I/O stage** — write the image through the backend, `fsync` the
//!    segment, then publish a new manifest (temp + fsync + rename +
//!    directory fsync).
//!
//! [`IngestTable::append_batches`] overlaps the two: a scoped CPU thread
//! encodes batch *n + 1* while the caller's thread commits batch *n*'s
//! I/O, double-buffered through a bounded channel.
//!
//! ## The fsync/ack contract
//!
//! An append is **acknowledged** (its receipt returned `Ok`) only after
//! the segment is fsynced *and* the manifest naming it is durable.
//! Acknowledged rows therefore survive any later crash. Any error before
//! that point — a failed write, a failed fsync, a failed publish —
//! returns `Err` and **poisons** the table: no further appends are
//! accepted, because the directory's durable state is no longer known
//! exactly (a publish can fail *after* its rename landed). Reopening via
//! [`IngestTable::open`] runs recovery, re-reads the directory, and
//! resumes from the last durable manifest with fresh, never-reused file
//! numbers. Unacknowledged appends are either fully present or fully
//! absent after recovery — never torn, because a manifest only ever
//! names fully-fsynced segments.

use std::sync::mpsc;
use std::sync::Arc;

use corra_columnar::block::{DataBlock, Table};
use corra_columnar::error::{Error, Result};
use corra_columnar::schema::Schema;

use crate::cache::ShardedCache;
use crate::compressor::{compress_blocks, CompressionConfig};
use crate::io::write_full_at;
use crate::manifest::{self, segment_file_name, Manifest, SegmentEntry};
use crate::store::{SegmentedTable, TableWriter};
use crate::vfs::Vfs;

/// Tuning for an [`IngestTable`].
#[derive(Debug, Clone)]
pub struct IngestConfig {
    /// Rows per block when splitting an appended [`Table`].
    pub block_rows: usize,
    /// Threads for the CPU stage's morsel-parallel block compression.
    pub threads: usize,
    /// Codec chooser configuration for appended blocks.
    pub compression: CompressionConfig,
    /// Published manifests kept on disk after an append (≥ 1; the extra
    /// depth gives recovery a fallback when the newest manifest is
    /// corrupted in place). Compaction always prunes to 1, because older
    /// manifests reference retired segments.
    pub keep_manifests: usize,
}

impl Default for IngestConfig {
    fn default() -> Self {
        Self {
            block_rows: 65_536,
            threads: 1,
            compression: CompressionConfig::baseline(),
            keep_manifests: 2,
        }
    }
}

/// Proof of a durable append: returned only after the fsync/ack contract
/// is satisfied.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AppendReceipt {
    /// The segment file number the rows landed in.
    pub segment_seq: u64,
    /// The manifest number that made the append durable.
    pub manifest_seq: u64,
    /// Rows appended.
    pub rows: u64,
}

/// The CPU stage's output: one fully-framed segment image, ready for the
/// I/O stage to write, fsync and publish.
#[derive(Debug)]
pub struct PreparedSegment {
    bytes: Vec<u8>,
    rows: u64,
    schema: Schema,
}

impl PreparedSegment {
    /// The framed segment image (store layout, footer-last, v4
    /// checksums).
    #[must_use]
    pub fn bytes(&self) -> &[u8] {
        &self.bytes
    }

    /// Rows in the segment.
    #[must_use]
    pub fn rows(&self) -> u64 {
        self.rows
    }
}

/// The CPU stage: compresses `blocks` (codec chooser + morsel-parallel
/// encode) and frames them into a complete in-memory segment image. No
/// I/O — safe to run on a pipeline thread while an earlier segment's
/// I/O stage is in flight.
///
/// # Errors
///
/// Empty input; compression or framing failures.
pub fn encode_segment(blocks: &[DataBlock], config: &IngestConfig) -> Result<PreparedSegment> {
    if blocks.is_empty() || blocks.iter().all(|b| b.rows() == 0) {
        return Err(Error::invalid("refusing to append an empty segment"));
    }
    let schema = blocks[0].schema().clone();
    let compressed = compress_blocks(blocks, &config.compression, config.threads)?;
    let rows: u64 = compressed.iter().map(|b| b.rows() as u64).sum();
    let mut writer = TableWriter::new(Vec::new())?;
    for block in &compressed {
        writer.write_block(block)?;
    }
    let bytes = writer.finish()?;
    Ok(PreparedSegment {
        bytes,
        rows,
        schema,
    })
}

/// A writable, crash-consistent, multi-segment table. See the
/// [module docs](self) for the pipeline and the fsync/ack contract.
pub struct IngestTable {
    vfs: Arc<dyn Vfs>,
    config: IngestConfig,
    manifest: Manifest,
    /// The last `keep_manifests` published manifests (newest last; always
    /// contains the current one) — the GC keep-set.
    history: Vec<Manifest>,
    schema: Option<Schema>,
    next_manifest_seq: u64,
    next_segment_seq: u64,
    poisoned: bool,
}

impl IngestTable {
    /// Creates a fresh table in an empty directory (publishes manifest
    /// number 1 with no segments).
    ///
    /// # Errors
    ///
    /// A directory that already holds a table; I/O failures.
    pub fn create(vfs: Arc<dyn Vfs>, config: IngestConfig) -> Result<Self> {
        let scan = manifest::scan_dir(&vfs)?;
        if !scan.candidates.is_empty() {
            return Err(Error::invalid("directory already holds a table (use open)"));
        }
        let manifest = Manifest::empty(scan.next_manifest_seq);
        manifest.publish(&vfs)?;
        Ok(Self {
            vfs,
            config,
            history: vec![manifest.clone()],
            manifest,
            schema: None,
            next_manifest_seq: scan.next_manifest_seq + 1,
            next_segment_seq: scan.next_segment_seq,
            poisoned: false,
        })
    }

    /// Opens an existing table, running recovery: adopts the
    /// highest-numbered manifest whose record decodes cleanly *and* whose
    /// segments all pass footer + checksum validation, falling back down
    /// the chain past torn or corrupted states. File numbers resume past
    /// every number ever observed in the directory (even torn temp
    /// files), so a poisoned writer's unknown last action can never cause
    /// a number reuse.
    ///
    /// # Errors
    ///
    /// No durable manifest at all; I/O failures.
    pub fn open(vfs: Arc<dyn Vfs>, config: IngestConfig) -> Result<Self> {
        let scan = manifest::scan_dir(&vfs)?;
        for candidate in scan.candidates {
            // Fully validate the state: every segment must open (footer
            // checksum, magic, length) before we trust the manifest.
            let Ok(table) = SegmentedTable::open(&vfs, &candidate) else {
                continue;
            };
            let schema = table.segments().first().map(|r| r.schema().clone());
            return Ok(Self {
                vfs,
                config,
                history: vec![candidate.clone()],
                manifest: candidate,
                schema,
                next_manifest_seq: scan.next_manifest_seq,
                next_segment_seq: scan.next_segment_seq,
                poisoned: false,
            });
        }
        Err(Error::corrupt("no recoverable manifest in table directory"))
    }

    /// [`open`](Self::open) if a recoverable table exists, else
    /// [`create`](Self::create).
    ///
    /// # Errors
    ///
    /// I/O failures.
    pub fn open_or_create(vfs: Arc<dyn Vfs>, config: IngestConfig) -> Result<Self> {
        let scan = manifest::scan_dir(&vfs)?;
        if scan.candidates.is_empty() {
            Self::create(vfs, config)
        } else {
            Self::open(vfs, config)
        }
    }

    /// The current durable manifest.
    #[must_use]
    pub fn manifest(&self) -> &Manifest {
        &self.manifest
    }

    /// Acknowledged rows.
    #[must_use]
    pub fn rows(&self) -> u64 {
        self.manifest.rows()
    }

    /// Live segment count.
    #[must_use]
    pub fn n_segments(&self) -> usize {
        self.manifest.segments.len()
    }

    /// Whether an I/O failure has poisoned the writer (reopen to
    /// recover).
    #[must_use]
    pub fn is_poisoned(&self) -> bool {
        self.poisoned
    }

    /// The ingest configuration.
    #[must_use]
    pub fn config(&self) -> &IngestConfig {
        &self.config
    }

    pub(crate) fn vfs(&self) -> &Arc<dyn Vfs> {
        &self.vfs
    }

    /// Appends one table as one segment: CPU stage, then I/O stage, then
    /// manifest publish. Returns only after the rows are durable.
    ///
    /// # Errors
    ///
    /// Schema mismatches with earlier appends; empty input; I/O failures
    /// (which poison the writer — see the [module docs](self)).
    pub fn append(&mut self, table: Table) -> Result<AppendReceipt> {
        let blocks = table.into_blocks(self.config.block_rows);
        self.append_blocks(&blocks)
    }

    /// Appends pre-split blocks as one segment.
    ///
    /// # Errors
    ///
    /// As [`append`](Self::append).
    pub fn append_blocks(&mut self, blocks: &[DataBlock]) -> Result<AppendReceipt> {
        self.ensure_healthy()?;
        let prepared = encode_segment(blocks, &self.config)?;
        self.commit_append(prepared)
    }

    /// Appends many batches through the two-stage pipeline: a scoped CPU
    /// thread encodes batch *n + 1* while this thread runs batch *n*'s
    /// I/O stage. Receipts come back in batch order; the first error
    /// aborts the rest (already-acknowledged batches stay durable).
    ///
    /// # Errors
    ///
    /// As [`append`](Self::append).
    pub fn append_batches(&mut self, batches: Vec<Table>) -> Result<Vec<AppendReceipt>> {
        self.ensure_healthy()?;
        let config = self.config.clone();
        let (tx, rx) = mpsc::sync_channel::<Result<PreparedSegment>>(1);
        let mut receipts = Vec::with_capacity(batches.len());
        let commit_result: Result<()> = std::thread::scope(|s| {
            let encoder = s.spawn(move || {
                for table in batches {
                    let blocks = table.into_blocks(config.block_rows);
                    let prepared = encode_segment(&blocks, &config);
                    let failed = prepared.is_err();
                    if tx.send(prepared).is_err() || failed {
                        return; // I/O stage hung up, or CPU stage failed
                    }
                }
            });
            let mut result = Ok(());
            while let Ok(prepared) = rx.recv() {
                match prepared.and_then(|p| self.commit_append(p)) {
                    Ok(receipt) => receipts.push(receipt),
                    Err(e) => {
                        result = Err(e);
                        break; // dropping rx unblocks the encoder
                    }
                }
            }
            drop(rx);
            if encoder.join().is_err() {
                result = result.and(Err(Error::invalid("append CPU stage panicked")));
            }
            result
        });
        commit_result.map(|()| receipts)
    }

    /// The I/O stage + publish for one prepared segment.
    fn commit_append(&mut self, prepared: PreparedSegment) -> Result<AppendReceipt> {
        self.ensure_healthy()?;
        self.check_schema(&prepared)?;
        let entry = match self.write_segment(&prepared) {
            Ok(entry) => entry,
            Err(e) => {
                self.poisoned = true;
                return Err(e);
            }
        };
        let mut next = self.manifest.clone();
        next.seq = self.next_manifest_seq;
        next.segments.push(entry.clone());
        if let Err(e) = self.publish_and_gc(next, self.config.keep_manifests) {
            self.poisoned = true;
            return Err(e);
        }
        self.schema = Some(prepared.schema);
        Ok(AppendReceipt {
            segment_seq: entry.seq,
            manifest_seq: self.manifest.seq,
            rows: entry.rows,
        })
    }

    /// Compaction's commit: atomically replaces the live segments at
    /// `[start, start + count)` with one new segment holding `prepared`,
    /// then retires the inputs and prunes the manifest chain to the new
    /// state only.
    pub(crate) fn commit_replacement(
        &mut self,
        start: usize,
        count: usize,
        prepared: PreparedSegment,
    ) -> Result<SegmentEntry> {
        self.ensure_healthy()?;
        assert!(count >= 1 && start + count <= self.manifest.segments.len());
        let entry = match self.write_segment(&prepared) {
            Ok(entry) => entry,
            Err(e) => {
                self.poisoned = true;
                return Err(e);
            }
        };
        let mut next = self.manifest.clone();
        next.seq = self.next_manifest_seq;
        next.segments.splice(start..start + count, [entry.clone()]);
        // Older manifests reference the retired inputs; once the merged
        // state is durable they must all go, so recovery can never serve
        // a half-compacted view.
        if let Err(e) = self.publish_and_gc(next, 1) {
            self.poisoned = true;
            return Err(e);
        }
        Ok(entry)
    }

    /// Writes and fsyncs one segment file, returning its manifest entry.
    /// The directory entry stays volatile — the manifest publish's
    /// directory fsync makes it durable, and its position *before* the
    /// manifest rename in the namespace-op order guarantees a durable
    /// manifest never names a missing file.
    fn write_segment(&mut self, prepared: &PreparedSegment) -> Result<SegmentEntry> {
        let seq = self.next_segment_seq;
        let name = segment_file_name(seq);
        let file = self.vfs.create(&name)?;
        write_full_at(&file, 0, &prepared.bytes)?;
        file.fsync()?;
        self.next_segment_seq = seq + 1;
        Ok(SegmentEntry {
            seq,
            name,
            rows: prepared.rows,
            file_len: prepared.bytes.len() as u64,
        })
    }

    /// Publishes `next` as the durable manifest, adopts it, and prunes
    /// the chain to the newest `keep` manifests.
    fn publish_and_gc(&mut self, next: Manifest, keep: usize) -> Result<()> {
        next.publish(&self.vfs)?;
        self.next_manifest_seq = next.seq + 1;
        self.manifest = next.clone();
        self.history.push(next);
        let keep = keep.max(1);
        if self.history.len() > keep {
            let drop_n = self.history.len() - keep;
            self.history.drain(..drop_n);
        }
        let keep_refs: Vec<&Manifest> = self.history.iter().collect();
        manifest::gc(&self.vfs, &keep_refs)?;
        Ok(())
    }

    fn ensure_healthy(&self) -> Result<()> {
        if self.poisoned {
            return Err(Error::invalid(
                "ingest table poisoned by an earlier I/O error; reopen to recover",
            ));
        }
        Ok(())
    }

    fn check_schema(&self, prepared: &PreparedSegment) -> Result<()> {
        if let Some(schema) = &self.schema {
            if *schema != prepared.schema {
                return Err(Error::invalid(
                    "append schema differs from the table's existing schema",
                ));
            }
        }
        Ok(())
    }

    /// A read view over the current durable state.
    ///
    /// # Errors
    ///
    /// Segment open failures (I/O).
    pub fn reader(&self) -> Result<SegmentedTable> {
        SegmentedTable::open(&self.vfs, &self.manifest)
    }

    /// As [`reader`](Self::reader), with a serving cache attached (each
    /// segment under its own process-unique cache id).
    ///
    /// # Errors
    ///
    /// As [`reader`](Self::reader).
    pub fn reader_cached(&self, cache: Arc<ShardedCache>) -> Result<SegmentedTable> {
        SegmentedTable::open_cached(&self.vfs, &self.manifest, cache)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vfs::SimVfs;
    use corra_columnar::column::{Column, DataType};
    use corra_columnar::schema::Field;

    fn table(range: std::ops::Range<i64>) -> Table {
        let vals: Vec<i64> = range.collect();
        Table::new(
            Schema::new(vec![Field::new("v", DataType::Int64)]).unwrap(),
            vec![Column::from(vals)],
        )
        .unwrap()
    }

    fn config() -> IngestConfig {
        IngestConfig {
            block_rows: 128,
            ..IngestConfig::default()
        }
    }

    #[test]
    fn create_append_read_roundtrip() {
        let vfs: Arc<dyn Vfs> = Arc::new(SimVfs::new(1));
        let mut t = IngestTable::create(Arc::clone(&vfs), config()).unwrap();
        let r1 = t.append(table(0..300)).unwrap();
        let r2 = t.append(table(300..500)).unwrap();
        assert_eq!(r1.rows, 300);
        assert_eq!(r2.rows, 200);
        assert!(r2.segment_seq > r1.segment_seq);
        assert_eq!(t.rows(), 500);
        assert_eq!(t.n_segments(), 2);
        let reader = t.reader().unwrap();
        assert_eq!(reader.rows_total(), 500);
        // 300 rows at 128-row blocks = 3 blocks, then 2 more.
        assert_eq!(reader.n_blocks(), 5);
        let col = reader.read_column(3, "v").unwrap();
        assert_eq!(col.as_i64().unwrap()[0], 300);
    }

    #[test]
    fn reopen_resumes_without_reusing_numbers() {
        let vfs: Arc<dyn Vfs> = Arc::new(SimVfs::new(2));
        let mut t = IngestTable::create(Arc::clone(&vfs), config()).unwrap();
        t.append(table(0..100)).unwrap();
        let last_seg = t.manifest().segments.last().unwrap().seq;
        drop(t);
        let mut t = IngestTable::open(Arc::clone(&vfs), config()).unwrap();
        assert_eq!(t.rows(), 100);
        let r = t.append(table(100..200)).unwrap();
        assert!(r.segment_seq > last_seg);
        assert_eq!(t.rows(), 200);
    }

    #[test]
    fn schema_changes_are_rejected() {
        let vfs: Arc<dyn Vfs> = Arc::new(SimVfs::new(3));
        let mut t = IngestTable::create(Arc::clone(&vfs), config()).unwrap();
        t.append(table(0..10)).unwrap();
        let other = Table::new(
            Schema::new(vec![Field::new("w", DataType::Int64)]).unwrap(),
            vec![Column::from(vec![1i64, 2])],
        )
        .unwrap();
        assert!(t.append(other).is_err());
        assert!(!t.is_poisoned(), "schema rejection is not an I/O fault");
    }

    #[test]
    fn empty_appends_are_rejected() {
        let vfs: Arc<dyn Vfs> = Arc::new(SimVfs::new(4));
        let mut t = IngestTable::create(vfs, config()).unwrap();
        assert!(t.append(table(0..0)).is_err());
        assert!(!t.is_poisoned());
    }

    #[test]
    fn pipelined_batches_match_serial_appends() {
        let serial_vfs: Arc<dyn Vfs> = Arc::new(SimVfs::new(5));
        let mut serial = IngestTable::create(Arc::clone(&serial_vfs), config()).unwrap();
        for chunk in [0..256, 256..700, 700..901] {
            serial.append(table(chunk)).unwrap();
        }
        let piped_vfs: Arc<dyn Vfs> = Arc::new(SimVfs::new(5));
        let mut piped = IngestTable::create(Arc::clone(&piped_vfs), config()).unwrap();
        let receipts = piped
            .append_batches(vec![table(0..256), table(256..700), table(700..901)])
            .unwrap();
        assert_eq!(receipts.len(), 3);
        assert_eq!(piped.rows(), serial.rows());
        assert_eq!(piped.manifest().segments, serial.manifest().segments);
    }

    #[test]
    fn failed_fsync_is_never_acknowledged_and_poisons_the_writer() {
        use crate::io::FaultPlan;
        use crate::vfs::FaultyVfs;
        let sim = SimVfs::new(6);
        let vfs: Arc<dyn Vfs> = Arc::new(FaultyVfs::new(
            sim.clone(),
            FaultPlan::none(6).with_fsync_errors(1.0),
        ));
        // Creation already needs a manifest publish (fsync) — build the
        // table on the clean vfs first, then wrap.
        let clean: Arc<dyn Vfs> = Arc::new(sim.clone());
        IngestTable::create(clean, config()).unwrap();
        let mut t = IngestTable::open(Arc::clone(&vfs), config()).unwrap();
        let err = t.append(table(0..50)).unwrap_err();
        assert!(err.to_string().contains("injected fsync failure"), "{err}");
        assert!(t.is_poisoned());
        assert!(t.append(table(0..50)).is_err(), "poisoned writer accepted");
        // Nothing was acknowledged; the durable state still has 0 rows.
        let reopened = IngestTable::open(Arc::new(sim), config()).unwrap();
        assert_eq!(reopened.rows(), 0);
    }

    #[test]
    fn short_writes_heal_transparently() {
        use crate::io::FaultPlan;
        use crate::vfs::FaultyVfs;
        let sim = SimVfs::new(7);
        let faulty = FaultyVfs::new(sim, FaultPlan::none(7).with_short_writes(0.8));
        let injector = Arc::clone(faulty.injector());
        let vfs: Arc<dyn Vfs> = Arc::new(faulty);
        let mut t = IngestTable::create(Arc::clone(&vfs), config()).unwrap();
        t.append(table(0..500)).unwrap();
        assert!(injector.stats().short_writes > 0, "no short write injected");
        let reader = t.reader().unwrap();
        assert_eq!(reader.rows_total(), 500);
        let col = reader.read_column(0, "v").unwrap();
        assert_eq!(col.as_i64().unwrap()[..4], [0, 1, 2, 3]);
    }
}
