//! Pluggable read backends for the table store, plus deterministic fault
//! injection.
//!
//! [`TableReader`](crate::store::TableReader) performs all data access
//! through the [`IoBackend`] trait — positioned reads with **pread
//! semantics**: a call may return *fewer* bytes than requested (as plain
//! `read(2)` legitimately does), and [`read_full_at`] is the one loop that
//! turns short reads into whole buffers or errors. Backends:
//!
//! * [`MemBackend`] — a byte buffer (tables built in memory, tests);
//! * [`FileBackend`] — `std::fs::File` behind a mutex (what
//!   [`TableReader::open`](crate::store::TableReader::open) uses); an
//!   `O_DIRECT`/`io_uring` backend can slot in later without touching any
//!   caller;
//! * [`FaultyBackend`] — a decorator that injects **short reads, transient
//!   errors, bit flips and a truncated tail** on a seeded, replayable
//!   schedule. This is the hostile half of the `corra-sim` torture
//!   harness: short reads must heal transparently (the [`read_full_at`]
//!   loop), and every other fault must surface as `Err` — never a panic,
//!   never silently wrong data (the store's checksums catch flipped
//!   payload bytes).
//!
//! The module also provides [`checksum64`], the four-lane word hash behind
//! the store's footer/segment/payload and the manifest's integrity checks.

use std::io::{Read, Seek, SeekFrom};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use corra_columnar::error::{Error, Result};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A positioned-read data source with pread semantics, optionally
/// writable.
///
/// `read_at` may return fewer bytes than `buf.len()` (short read); callers
/// that need the whole range use [`read_full_at`]. Implementations must be
/// thread-safe: the serve front door issues reads from many workers
/// against one shared reader.
///
/// The write half mirrors the read half with **pwrite semantics**:
/// [`write_at`](Self::write_at) may write fewer bytes than offered (as
/// `write(2)` legitimately does) and [`write_full_at`] is the one loop
/// that turns short writes into whole buffers or errors. Durability is
/// explicit: nothing written counts as *acknowledged* until
/// [`fsync`](Self::fsync) returns `Ok` — the ingest layer's crash
/// contract is built on exactly that line. Read-only backends keep the
/// default implementations, which error.
// `len` is a fallible file size in bytes, not a container length — an
// `is_empty` twin would have no caller.
#[allow(clippy::len_without_is_empty)]
pub trait IoBackend: Send + Sync {
    /// Reads up to `buf.len()` bytes starting at `offset`, returning how
    /// many were read. `Ok(0)` means end-of-source (offset at or past
    /// [`len`](Self::len)).
    ///
    /// # Errors
    ///
    /// Underlying I/O failures.
    fn read_at(&self, offset: u64, buf: &mut [u8]) -> Result<usize>;

    /// Total size of the source in bytes.
    ///
    /// # Errors
    ///
    /// Underlying I/O failures.
    fn len(&self) -> Result<u64>;

    /// Writes up to `buf.len()` bytes at `offset` (pwrite semantics — the
    /// write may be short), returning how many bytes were written. Writes
    /// land in the backend's *volatile* state until
    /// [`fsync`](Self::fsync) succeeds.
    ///
    /// # Errors
    ///
    /// Underlying I/O failures; read-only backends (the default).
    fn write_at(&self, _offset: u64, _buf: &[u8]) -> Result<usize> {
        Err(Error::invalid("backend is read-only"))
    }

    /// Forces every byte written so far to durable storage. Only after
    /// `Ok` may the caller acknowledge the data; a failed fsync means the
    /// writes may or may not survive a crash, and the caller must treat
    /// them as lost.
    ///
    /// # Errors
    ///
    /// Underlying I/O failures; read-only backends (the default).
    fn fsync(&self) -> Result<()> {
        Err(Error::invalid("backend is read-only"))
    }
}

/// Shared backends delegate: lets a caller hand a reader one handle and
/// keep another (e.g. to read [`FaultyBackend::stats`] after the reader
/// has consumed its `Box<dyn IoBackend>`).
impl<T: IoBackend + ?Sized> IoBackend for std::sync::Arc<T> {
    fn read_at(&self, offset: u64, buf: &mut [u8]) -> Result<usize> {
        (**self).read_at(offset, buf)
    }

    fn len(&self) -> Result<u64> {
        (**self).len()
    }

    fn write_at(&self, offset: u64, buf: &[u8]) -> Result<usize> {
        (**self).write_at(offset, buf)
    }

    fn fsync(&self) -> Result<()> {
        (**self).fsync()
    }
}

/// Boxed backends delegate, so decorators can wrap a `Box<dyn IoBackend>`
/// (e.g. the handles a [`Vfs`](crate::vfs::Vfs) hands out).
impl<T: IoBackend + ?Sized> IoBackend for Box<T> {
    fn read_at(&self, offset: u64, buf: &mut [u8]) -> Result<usize> {
        (**self).read_at(offset, buf)
    }

    fn len(&self) -> Result<u64> {
        (**self).len()
    }

    fn write_at(&self, offset: u64, buf: &[u8]) -> Result<usize> {
        (**self).write_at(offset, buf)
    }

    fn fsync(&self) -> Result<()> {
        (**self).fsync()
    }
}

/// Fills `buf` from `backend` starting at `offset`, looping over short
/// reads. A plain `read` may legitimately return partial data — this is
/// the single place that loop lives, so every store read is short-read
/// safe.
///
/// # Errors
///
/// Underlying I/O failures; premature end-of-source (the backend returned
/// `0` before the buffer filled); a misbehaving backend that over-reports.
pub fn read_full_at(backend: &dyn IoBackend, offset: u64, buf: &mut [u8]) -> Result<()> {
    let mut filled = 0usize;
    while filled < buf.len() {
        let n = backend.read_at(offset + filled as u64, &mut buf[filled..])?;
        if n == 0 {
            return Err(Error::corrupt(format!(
                "unexpected end of table source: wanted {} bytes at offset {offset}, got {filled}",
                buf.len()
            )));
        }
        if n > buf.len() - filled {
            return Err(Error::invalid(format!(
                "backend over-reported a read: {n} bytes into a {}-byte buffer",
                buf.len() - filled
            )));
        }
        filled += n;
    }
    Ok(())
}

/// Writes all of `buf` to `backend` starting at `offset`, looping over
/// short writes. A plain `write` may legitimately accept partial data —
/// this is the single place that loop lives, so every ingest write is
/// short-write safe.
///
/// # Errors
///
/// Underlying I/O failures; a backend that reports zero progress or
/// over-reports a write.
pub fn write_full_at(backend: &dyn IoBackend, offset: u64, buf: &[u8]) -> Result<()> {
    let mut written = 0usize;
    while written < buf.len() {
        let n = backend.write_at(offset + written as u64, &buf[written..])?;
        if n == 0 {
            return Err(Error::invalid(format!(
                "backend made no progress writing {} bytes at offset {offset}",
                buf.len()
            )));
        }
        if n > buf.len() - written {
            return Err(Error::invalid(format!(
                "backend over-reported a write: {n} bytes from a {}-byte buffer",
                buf.len() - written
            )));
        }
        written += n;
    }
    Ok(())
}

/// An in-memory byte-buffer backend.
#[derive(Debug, Clone)]
pub struct MemBackend {
    bytes: Vec<u8>,
}

impl MemBackend {
    /// Wraps a byte buffer.
    pub fn new(bytes: Vec<u8>) -> Self {
        Self { bytes }
    }
}

impl IoBackend for MemBackend {
    fn read_at(&self, offset: u64, buf: &mut [u8]) -> Result<usize> {
        let Ok(start) = usize::try_from(offset) else {
            return Ok(0);
        };
        if start >= self.bytes.len() {
            return Ok(0);
        }
        let n = buf.len().min(self.bytes.len() - start);
        buf[..n].copy_from_slice(&self.bytes[start..start + n]);
        Ok(n)
    }

    fn len(&self) -> Result<u64> {
        Ok(self.bytes.len() as u64)
    }
}

/// A `std::fs::File` backend (seek + read behind a mutex).
#[derive(Debug)]
pub struct FileBackend {
    file: Mutex<std::fs::File>,
}

impl FileBackend {
    /// Opens `path` read-only.
    ///
    /// # Errors
    ///
    /// Filesystem errors.
    pub fn open(path: &std::path::Path) -> Result<Self> {
        let file = std::fs::File::open(path)
            .map_err(|e| Error::invalid(format!("opening table file: {e}")))?;
        Ok(Self {
            file: Mutex::new(file),
        })
    }

    /// Creates (or truncates) `path` read-write, for the ingest write
    /// path.
    ///
    /// # Errors
    ///
    /// Filesystem errors.
    pub fn create(path: &std::path::Path) -> Result<Self> {
        let file = std::fs::OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(true)
            .open(path)
            .map_err(|e| Error::invalid(format!("creating table file: {e}")))?;
        Ok(Self {
            file: Mutex::new(file),
        })
    }
}

impl IoBackend for FileBackend {
    fn read_at(&self, offset: u64, buf: &mut [u8]) -> Result<usize> {
        let mut file = self.file.lock().expect("table file lock poisoned");
        file.seek(SeekFrom::Start(offset))
            .map_err(|e| Error::invalid(format!("seeking table file: {e}")))?;
        // A single read call: may be short, may be zero at EOF. The
        // read_full_at loop above this backend handles both.
        file.read(buf)
            .map_err(|e| Error::invalid(format!("reading table file: {e}")))
    }

    fn len(&self) -> Result<u64> {
        let mut file = self.file.lock().expect("table file lock poisoned");
        file.seek(SeekFrom::End(0))
            .map_err(|e| Error::invalid(format!("sizing table file: {e}")))
    }

    fn write_at(&self, offset: u64, buf: &[u8]) -> Result<usize> {
        let mut file = self.file.lock().expect("table file lock poisoned");
        file.seek(SeekFrom::Start(offset))
            .map_err(|e| Error::invalid(format!("seeking table file: {e}")))?;
        std::io::Write::write(&mut *file, buf)
            .map_err(|e| Error::invalid(format!("writing table file: {e}")))
    }

    fn fsync(&self) -> Result<()> {
        let file = self.file.lock().expect("table file lock poisoned");
        file.sync_all()
            .map_err(|e| Error::invalid(format!("fsyncing table file: {e}")))
    }
}

/// The store's 64-bit integrity checksum: a four-lane, word-at-a-time
/// multiply–rotate hash.
///
/// The input is read as little-endian `u64` words in 32-byte stripes; word
/// `i` of every stripe goes to lane `i`, and the four lanes are seeded
/// differently (so position inside a stripe counts) and independent (so the
/// multiplies overlap and the loop runs at memory speed, not one multiply
/// per byte). Every absorption is the same step,
/// `state = rotl((state ^ word) · ODD, 31)`. The finish starts from the byte
/// length, then folds through that step the four lanes, the whole words left
/// after the last stripe, and the last partial word zero-padded, and ends
/// with an xor-shift.
///
/// The step is a bijection of the state for a fixed word and of the word
/// for a fixed state (xor, multiply by an odd constant and rotate each
/// are), and so is the xor-shift. A corruption confined to one aligned
/// 8-byte word therefore changes the state that absorbs it, and every later
/// step carries the difference to the result: **any** such corruption — so
/// every single-bit and single-byte flip, exactly the fault class the
/// torture harness injects — is guaranteed to change the value. Folding the
/// length in first makes truncation and zero-extension visible even though
/// the last word is zero-padded. Not collision-resistant against adversarial
/// *pairs* of inputs; the store uses it for bit-rot and torn-write
/// detection, not authentication.
///
/// The values are stored (table footers, manifests), so editing this
/// function is a format bump; a known-answer test pins it.
#[must_use]
pub fn checksum64(bytes: &[u8]) -> u64 {
    const ODD: u64 = 0x9e37_79b9_7f4a_7c15;
    const SEEDS: [u64; 4] = [
        0x243f_6a88_85a3_08d3,
        0x1319_8a2e_0370_7344,
        0xa409_3822_299f_31d0,
        0x082e_fa98_ec4e_6c89,
    ];
    fn step(state: u64, word: u64) -> u64 {
        (state ^ word).wrapping_mul(ODD).rotate_left(31)
    }
    // Little-endian word of up to eight bytes, zero-padded.
    fn word(bytes: &[u8]) -> u64 {
        let mut w = [0u8; 8];
        w[..bytes.len()].copy_from_slice(bytes);
        u64::from_le_bytes(w)
    }
    let mut lanes = SEEDS;
    let mut stripes = bytes.chunks_exact(32);
    for stripe in stripes.by_ref() {
        for (lane, w) in lanes.iter_mut().zip(stripe.chunks_exact(8)) {
            *lane = step(*lane, word(w));
        }
    }
    let mut hash = step(ODD, bytes.len() as u64);
    for lane in lanes {
        hash = step(hash, lane);
    }
    for w in stripes.remainder().chunks(8) {
        hash = step(hash, word(w));
    }
    hash ^ (hash >> 32)
}

/// Which faults a [`FaultyBackend`] injects, with what probability, on a
/// seeded schedule.
///
/// All probabilities are per `read_at` call. The default plan injects
/// nothing; build one with the `with_*` methods.
#[derive(Debug, Clone)]
pub struct FaultPlan {
    /// RNG seed driving the fault schedule (replayable).
    pub seed: u64,
    /// Probability a read is clipped to a random shorter length (≥ 1 byte).
    pub p_short_read: f64,
    /// Probability a read fails with an injected transient error.
    pub p_transient: f64,
    /// Probability one random bit of the returned bytes is flipped.
    pub p_bit_flip: f64,
    /// Pretend the source ends at this offset (torn tail): reads at or past
    /// it return 0 bytes.
    pub truncate_at: Option<u64>,
    /// Probability a write is clipped to a random shorter length (≥ 1
    /// byte). Benign: healed by the [`write_full_at`] loop.
    pub p_short_write: f64,
    /// Probability a write fails with an injected error.
    pub p_write_error: f64,
    /// Probability an fsync fails with an injected error. The caller must
    /// treat the batch as unacknowledged — the test suite proves the
    /// ingest layer does.
    pub p_fsync_error: f64,
}

impl FaultPlan {
    /// A plan that injects nothing (decorator becomes a pass-through).
    #[must_use]
    pub fn none(seed: u64) -> Self {
        Self {
            seed,
            p_short_read: 0.0,
            p_transient: 0.0,
            p_bit_flip: 0.0,
            truncate_at: None,
            p_short_write: 0.0,
            p_write_error: 0.0,
            p_fsync_error: 0.0,
        }
    }

    /// Sets the short-read probability.
    #[must_use]
    pub fn with_short_reads(mut self, p: f64) -> Self {
        self.p_short_read = p;
        self
    }

    /// Sets the transient-error probability.
    #[must_use]
    pub fn with_transient_errors(mut self, p: f64) -> Self {
        self.p_transient = p;
        self
    }

    /// Sets the bit-flip probability.
    #[must_use]
    pub fn with_bit_flips(mut self, p: f64) -> Self {
        self.p_bit_flip = p;
        self
    }

    /// Truncates the source at `offset` (a torn tail).
    #[must_use]
    pub fn with_truncation(mut self, offset: u64) -> Self {
        self.truncate_at = Some(offset);
        self
    }

    /// Sets the short-write probability.
    #[must_use]
    pub fn with_short_writes(mut self, p: f64) -> Self {
        self.p_short_write = p;
        self
    }

    /// Sets the write-error probability.
    #[must_use]
    pub fn with_write_errors(mut self, p: f64) -> Self {
        self.p_write_error = p;
        self
    }

    /// Sets the fsync-error probability.
    #[must_use]
    pub fn with_fsync_errors(mut self, p: f64) -> Self {
        self.p_fsync_error = p;
        self
    }

    /// Whether every injectable fault in this plan is *benign*: short
    /// reads and short writes are healed by the [`read_full_at`] /
    /// [`write_full_at`] loops, so a plan that only injects them must
    /// never change any result or produce any error.
    #[must_use]
    pub fn is_benign(&self) -> bool {
        self.p_transient == 0.0
            && self.p_bit_flip == 0.0
            && self.truncate_at.is_none()
            && self.p_write_error == 0.0
            && self.p_fsync_error == 0.0
    }
}

/// Counters of faults a [`FaultyBackend`] actually injected.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct FaultStats {
    /// Reads clipped short.
    pub short_reads: u64,
    /// Reads failed with an injected error.
    pub transient_errors: u64,
    /// Bits flipped in returned buffers.
    pub bit_flips: u64,
    /// Reads clipped or zeroed by the truncated tail.
    pub truncated_reads: u64,
    /// Writes clipped short.
    pub short_writes: u64,
    /// Writes failed with an injected error.
    pub write_errors: u64,
    /// Fsyncs failed with an injected error.
    pub failed_fsyncs: u64,
}

impl FaultStats {
    /// Total faults injected.
    #[must_use]
    pub fn total(&self) -> u64 {
        self.short_reads
            + self.transient_errors
            + self.bit_flips
            + self.truncated_reads
            + self.short_writes
            + self.write_errors
            + self.failed_fsyncs
    }
}

/// The shared scheduling state behind one or more [`FaultyBackend`]s: the
/// plan, the seeded RNG, and the injected-fault counters.
///
/// One injector can be shared (via `Arc`) across every file a faulty
/// directory hands out, so the whole directory draws from **one**
/// deterministic schedule and reports **one** set of counters — which is
/// what makes a failing multi-file torture seed replayable.
#[derive(Debug)]
pub struct FaultInjector {
    plan: FaultPlan,
    rng: Mutex<StdRng>,
    short_reads: AtomicU64,
    transient_errors: AtomicU64,
    bit_flips: AtomicU64,
    truncated_reads: AtomicU64,
    short_writes: AtomicU64,
    write_errors: AtomicU64,
    failed_fsyncs: AtomicU64,
}

impl FaultInjector {
    /// A fresh injector for `plan`, seeded from `plan.seed`.
    #[must_use]
    pub fn new(plan: FaultPlan) -> Self {
        let rng = Mutex::new(StdRng::seed_from_u64(plan.seed));
        Self {
            plan,
            rng,
            short_reads: AtomicU64::new(0),
            transient_errors: AtomicU64::new(0),
            bit_flips: AtomicU64::new(0),
            truncated_reads: AtomicU64::new(0),
            short_writes: AtomicU64::new(0),
            write_errors: AtomicU64::new(0),
            failed_fsyncs: AtomicU64::new(0),
        }
    }

    /// The fault plan.
    #[must_use]
    pub fn plan(&self) -> &FaultPlan {
        &self.plan
    }

    /// Faults injected so far, across every backend sharing this injector.
    #[must_use]
    pub fn stats(&self) -> FaultStats {
        FaultStats {
            short_reads: self.short_reads.load(Ordering::Relaxed),
            transient_errors: self.transient_errors.load(Ordering::Relaxed),
            bit_flips: self.bit_flips.load(Ordering::Relaxed),
            truncated_reads: self.truncated_reads.load(Ordering::Relaxed),
            short_writes: self.short_writes.load(Ordering::Relaxed),
            write_errors: self.write_errors.load(Ordering::Relaxed),
            failed_fsyncs: self.failed_fsyncs.load(Ordering::Relaxed),
        }
    }
}

/// Decorator injecting storage faults into an inner [`IoBackend`] on a
/// deterministic, seeded schedule.
///
/// The same `(inner bytes, FaultPlan)` pair injects the same faults at the
/// same read positions on every run — which is what makes a failing
/// torture-harness seed replayable. The decorator never mutates the inner
/// backend; flips land in the caller's buffer only. Write-path faults
/// (short writes, write errors, failed fsyncs) follow the same schedule;
/// an injected fsync error returns `Err` *without* syncing the inner
/// backend, so unsynced data genuinely stays volatile.
pub struct FaultyBackend<B: IoBackend> {
    inner: B,
    injector: std::sync::Arc<FaultInjector>,
}

impl<B: IoBackend> FaultyBackend<B> {
    /// Wraps `inner` with the given fault plan (a private injector).
    pub fn new(inner: B, plan: FaultPlan) -> Self {
        Self::with_injector(inner, std::sync::Arc::new(FaultInjector::new(plan)))
    }

    /// Wraps `inner` drawing faults from a shared `injector` — used by the
    /// faulty-directory decorator so every file in the directory shares
    /// one schedule and one set of counters.
    pub fn with_injector(inner: B, injector: std::sync::Arc<FaultInjector>) -> Self {
        Self { inner, injector }
    }

    /// The shared injector (clone it to share the schedule with more
    /// backends, or to keep reading counters after this one is consumed).
    pub fn injector(&self) -> &std::sync::Arc<FaultInjector> {
        &self.injector
    }

    /// Faults injected so far.
    pub fn stats(&self) -> FaultStats {
        self.injector.stats()
    }

    /// The fault plan.
    pub fn plan(&self) -> &FaultPlan {
        &self.injector.plan
    }
}

impl<B: IoBackend> IoBackend for FaultyBackend<B> {
    fn read_at(&self, offset: u64, buf: &mut [u8]) -> Result<usize> {
        let inj = &*self.injector;
        let plan = &inj.plan;
        // Draw the whole schedule for this call up front; one lock makes
        // the sequence of decisions a pure function of (seed, call order).
        let (transient, short_to, flip) = {
            let mut rng = inj.rng.lock().expect("fault rng poisoned");
            let transient = plan.p_transient > 0.0 && rng.gen_bool(plan.p_transient);
            let short_to =
                (plan.p_short_read > 0.0 && buf.len() > 1 && rng.gen_bool(plan.p_short_read))
                    .then(|| rng.gen_range(1..buf.len()));
            let flip =
                (plan.p_bit_flip > 0.0 && rng.gen_bool(plan.p_bit_flip)).then(|| rng.gen::<u64>());
            (transient, short_to, flip)
        };
        if transient {
            inj.transient_errors.fetch_add(1, Ordering::Relaxed);
            return Err(Error::invalid(format!(
                "injected transient I/O error at offset {offset}"
            )));
        }
        let mut window = buf.len();
        if let Some(end) = plan.truncate_at {
            if offset >= end {
                inj.truncated_reads.fetch_add(1, Ordering::Relaxed);
                return Ok(0);
            }
            let clipped = usize::try_from(end - offset)
                .unwrap_or(usize::MAX)
                .min(window);
            if clipped < window {
                inj.truncated_reads.fetch_add(1, Ordering::Relaxed);
                window = clipped;
            }
        }
        if let Some(short) = short_to {
            if short < window {
                inj.short_reads.fetch_add(1, Ordering::Relaxed);
                window = short;
            }
        }
        let n = self.inner.read_at(offset, &mut buf[..window])?;
        if n > 0 {
            if let Some(r) = flip {
                let byte = (r as usize >> 3) % n;
                let bit = (r & 7) as u8;
                buf[byte] ^= 1 << bit;
                inj.bit_flips.fetch_add(1, Ordering::Relaxed);
            }
        }
        Ok(n)
    }

    fn len(&self) -> Result<u64> {
        let inner = self.inner.len()?;
        Ok(match self.injector.plan.truncate_at {
            Some(end) => inner.min(end),
            None => inner,
        })
    }

    fn write_at(&self, offset: u64, buf: &[u8]) -> Result<usize> {
        let inj = &*self.injector;
        let plan = &inj.plan;
        let (fail, short_to) = {
            let mut rng = inj.rng.lock().expect("fault rng poisoned");
            let fail = plan.p_write_error > 0.0 && rng.gen_bool(plan.p_write_error);
            let short_to =
                (plan.p_short_write > 0.0 && buf.len() > 1 && rng.gen_bool(plan.p_short_write))
                    .then(|| rng.gen_range(1..buf.len()));
            (fail, short_to)
        };
        if fail {
            inj.write_errors.fetch_add(1, Ordering::Relaxed);
            return Err(Error::invalid(format!(
                "injected write error at offset {offset}"
            )));
        }
        let window = match short_to {
            Some(short) if short < buf.len() => {
                inj.short_writes.fetch_add(1, Ordering::Relaxed);
                short
            }
            _ => buf.len(),
        };
        self.inner.write_at(offset, &buf[..window])
    }

    fn fsync(&self) -> Result<()> {
        let inj = &*self.injector;
        let fail = {
            let mut rng = inj.rng.lock().expect("fault rng poisoned");
            inj.plan.p_fsync_error > 0.0 && rng.gen_bool(inj.plan.p_fsync_error)
        };
        if fail {
            inj.failed_fsyncs.fetch_add(1, Ordering::Relaxed);
            // Deliberately skip the inner fsync: data written so far stays
            // volatile, exactly like a real fsync failure.
            return Err(Error::invalid("injected fsync failure"));
        }
        self.inner.fsync()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mem_backend_pread_semantics() {
        let b = MemBackend::new((0u8..100).collect());
        let mut buf = [0u8; 10];
        assert_eq!(b.read_at(0, &mut buf).unwrap(), 10);
        assert_eq!(&buf[..3], &[0, 1, 2]);
        // Clipped at the end, zero past it.
        assert_eq!(b.read_at(95, &mut buf).unwrap(), 5);
        assert_eq!(b.read_at(100, &mut buf).unwrap(), 0);
        assert_eq!(b.read_at(u64::MAX, &mut buf).unwrap(), 0);
        assert_eq!(b.len().unwrap(), 100);
    }

    #[test]
    fn read_full_at_loops_over_short_reads() {
        let inner = MemBackend::new((0u8..=255).collect());
        let faulty = FaultyBackend::new(inner, FaultPlan::none(7).with_short_reads(0.9));
        let mut buf = vec![0u8; 256];
        read_full_at(&faulty, 0, &mut buf).unwrap();
        assert_eq!(buf, (0u8..=255).collect::<Vec<_>>());
        assert!(faulty.stats().short_reads > 0, "no short read injected");
    }

    #[test]
    fn read_full_at_errors_on_premature_end() {
        let b = MemBackend::new(vec![1, 2, 3]);
        let mut buf = [0u8; 8];
        let err = read_full_at(&b, 0, &mut buf).unwrap_err();
        assert!(err.to_string().contains("unexpected end"), "{err}");
    }

    #[test]
    fn faulty_backend_is_deterministic_per_seed() {
        let run = |seed: u64| {
            let inner = MemBackend::new(vec![0xAA; 4096]);
            let plan = FaultPlan::none(seed)
                .with_short_reads(0.3)
                .with_bit_flips(0.2)
                .with_transient_errors(0.1);
            let faulty = FaultyBackend::new(inner, plan);
            let mut log = Vec::new();
            for i in 0..50 {
                let mut buf = vec![0u8; 64];
                match faulty.read_at(i * 64, &mut buf) {
                    Ok(n) => log.push((n as u64, checksum64(&buf))),
                    Err(_) => log.push((u64::MAX, 0)),
                }
            }
            (log, faulty.stats())
        };
        let (log_a, stats_a) = run(42);
        let (log_b, stats_b) = run(42);
        let (log_c, _) = run(43);
        assert_eq!(log_a, log_b);
        assert_eq!(stats_a, stats_b);
        assert_ne!(log_a, log_c, "different seeds produced identical faults");
        assert!(stats_a.total() > 0);
    }

    #[test]
    fn truncation_clips_length_and_reads() {
        let inner = MemBackend::new(vec![7u8; 100]);
        let faulty = FaultyBackend::new(inner, FaultPlan::none(1).with_truncation(40));
        assert_eq!(faulty.len().unwrap(), 40);
        let mut buf = [0u8; 64];
        assert_eq!(faulty.read_at(0, &mut buf).unwrap(), 40);
        assert_eq!(faulty.read_at(40, &mut buf).unwrap(), 0);
        assert!(faulty.stats().truncated_reads >= 2);
    }

    /// A minimal writable in-memory backend for exercising the write path.
    struct SharedBuf {
        bytes: Mutex<Vec<u8>>,
        fsyncs: AtomicU64,
    }

    impl SharedBuf {
        fn new() -> Self {
            Self {
                bytes: Mutex::new(Vec::new()),
                fsyncs: AtomicU64::new(0),
            }
        }
    }

    impl IoBackend for SharedBuf {
        fn read_at(&self, offset: u64, buf: &mut [u8]) -> Result<usize> {
            let bytes = self.bytes.lock().unwrap();
            let start = usize::try_from(offset).unwrap_or(usize::MAX);
            if start >= bytes.len() {
                return Ok(0);
            }
            let n = buf.len().min(bytes.len() - start);
            buf[..n].copy_from_slice(&bytes[start..start + n]);
            Ok(n)
        }

        fn len(&self) -> Result<u64> {
            Ok(self.bytes.lock().unwrap().len() as u64)
        }

        fn write_at(&self, offset: u64, buf: &[u8]) -> Result<usize> {
            let mut bytes = self.bytes.lock().unwrap();
            let start = usize::try_from(offset).expect("offset fits");
            if bytes.len() < start + buf.len() {
                bytes.resize(start + buf.len(), 0);
            }
            bytes[start..start + buf.len()].copy_from_slice(buf);
            Ok(buf.len())
        }

        fn fsync(&self) -> Result<()> {
            self.fsyncs.fetch_add(1, Ordering::Relaxed);
            Ok(())
        }
    }

    #[test]
    fn read_only_backends_reject_writes() {
        let b = MemBackend::new(vec![1, 2, 3]);
        assert!(b.write_at(0, &[9]).is_err());
        assert!(b.fsync().is_err());
    }

    #[test]
    fn write_full_at_loops_over_short_writes() {
        let faulty =
            FaultyBackend::new(SharedBuf::new(), FaultPlan::none(3).with_short_writes(0.9));
        let payload: Vec<u8> = (0u8..=255).collect();
        write_full_at(&faulty, 0, &payload).unwrap();
        assert!(faulty.stats().short_writes > 0, "no short write injected");
        let mut back = vec![0u8; 256];
        read_full_at(&faulty, 0, &mut back).unwrap();
        assert_eq!(back, payload, "short writes must heal to the full buffer");
    }

    #[test]
    fn injected_fsync_failure_is_an_error_and_never_reaches_the_inner_sync() {
        let faulty =
            FaultyBackend::new(SharedBuf::new(), FaultPlan::none(5).with_fsync_errors(1.0));
        write_full_at(&faulty, 0, b"must not be acknowledged").unwrap();
        let err = faulty.fsync().unwrap_err();
        assert!(err.to_string().contains("injected fsync failure"), "{err}");
        assert_eq!(faulty.stats().failed_fsyncs, 1);
        // The inner backend was never synced: nothing may be acknowledged.
        assert_eq!(faulty.inner.fsyncs.load(Ordering::Relaxed), 0);
    }

    #[test]
    fn injected_write_error_surfaces_and_is_counted() {
        let faulty =
            FaultyBackend::new(SharedBuf::new(), FaultPlan::none(9).with_write_errors(1.0));
        let err = faulty.write_at(0, &[1, 2, 3]).unwrap_err();
        assert!(err.to_string().contains("injected write error"), "{err}");
        assert_eq!(faulty.stats().write_errors, 1);
        assert_eq!(faulty.inner.len().unwrap(), 0, "no bytes may land");
    }

    #[test]
    fn shared_injector_pools_one_schedule_across_backends() {
        let injector = std::sync::Arc::new(FaultInjector::new(
            FaultPlan::none(11).with_short_writes(1.0),
        ));
        let a = FaultyBackend::with_injector(SharedBuf::new(), injector.clone());
        let b = FaultyBackend::with_injector(SharedBuf::new(), injector.clone());
        write_full_at(&a, 0, &[7u8; 64]).unwrap();
        write_full_at(&b, 0, &[9u8; 64]).unwrap();
        let stats = injector.stats();
        assert_eq!(stats, a.stats());
        assert_eq!(stats, b.stats());
        assert!(
            stats.short_writes >= 2,
            "both backends must draw from the shared schedule: {stats:?}"
        );
    }

    #[test]
    fn checksum_catches_every_single_bit_flip() {
        // Lengths 0..=80: empty input, byte tail, word tail, one stripe and
        // two stripes + tail.
        for len in 0..=80usize {
            let bytes: Vec<u8> = (0..len).map(|i| (i * 37 % 256) as u8).collect();
            let clean = checksum64(&bytes);
            for i in 0..len {
                for bit in 0..8 {
                    let mut flipped = bytes.clone();
                    flipped[i] ^= 1 << bit;
                    assert_ne!(checksum64(&flipped), clean, "len {len} byte {i} bit {bit}");
                }
            }
        }
    }

    /// The values are stored in every footer and manifest: editing
    /// `checksum64` so that one of these moves is a format bump
    /// (`FOOTER_VERSION`, `MANIFEST_VERSION`), not a refactor.
    #[test]
    fn checksum_known_answers() {
        // The 0..=255 byte ramp, repeated.
        let ramp: Vec<u8> = (0..1000).map(|i| i as u8).collect();
        for (len, want) in [
            (0usize, 0xb6ae_5510_2779_d665u64),
            (1, 0xdaea_152b_497c_121b),
            (7, 0x0ccd_41dc_7e7c_74c6),
            (8, 0x725d_8768_c08f_f2d7),
            (9, 0x8b5b_93b9_9f03_c0b2),
            (31, 0x14b8_2cf2_4881_6fa5),
            (32, 0x2c81_5f12_e1b3_d4ac),
            (33, 0x0dc3_6264_cee6_e93b),
            (64, 0x6fbc_95d8_c36d_bda7),
            (65, 0x68f3_13f5_3e78_a88f),
            (1000, 0x7f8a_2b8f_9227_dafd),
        ] {
            assert_eq!(checksum64(&ramp[..len]), want, "len {len}");
        }
    }
}
