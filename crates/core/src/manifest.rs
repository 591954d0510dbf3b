//! The segment manifest: the one durable record of which segments make up
//! a writable table.
//!
//! A table directory holds immutable segment files (`seg-000007.corra`)
//! and a chain of immutable, numbered manifest files
//! (`manifest-000012.man`). Each manifest lists the complete live segment
//! set at one instant; publishing a new state means writing the *next*
//! number via temp-file + fsync + rename + directory fsync
//! ([`crate::vfs::write_file_atomic`]) — never editing an existing file.
//! Two invariants follow:
//!
//! 1. **Atomicity** — a crash at any instant leaves each published
//!    manifest either complete (rename survived, content was fsynced
//!    first) or absent (rename lost). Never torn: the self-checksum over
//!    the whole record rejects any partially-surviving temp file.
//! 2. **Recoverability** — recovery scans the directory for the
//!    highest-numbered manifest that decodes cleanly *and* whose segments
//!    all open cleanly, falling back down the chain otherwise. Because a
//!    commit fsyncs segment data before the rename, and the directory
//!    fsync that publishes the rename also publishes the segment's
//!    directory entry, a durable manifest name implies durable segments.
//!
//! The byte layout is documented in `docs/FORMAT.md`; the checksum is the
//! store-wide [`checksum64`] over the entire record. [`Manifest::decode`]
//! checks magic, then version, then the checksum, then the fields: the
//! checksum function belongs to the version, so a record another build wrote
//! must be told apart from a torn one *before* its checksum is judged —
//! recovery skips torn records and falls back, but refuses a directory that
//! holds a published record of another version ([`scan_dir`]) rather than
//! treating it as empty. Any flipped bit still fails closed, whichever check
//! it lands in. There is one manifest version ([`MANIFEST_VERSION`], 2 since
//! the checksum changed with footer v4); any other is [`Error::Corrupt`].

use bytes::Buf;
use corra_columnar::error::{Error, Result};

use crate::io::checksum64;
use crate::vfs::{read_file, write_file_atomic, Vfs};

/// Magic prefix of every manifest file.
pub const MANIFEST_MAGIC: [u8; 8] = *b"CORRAMAN";

/// Current manifest format version.
pub const MANIFEST_VERSION: u32 = 2;

/// One live segment as recorded in a [`Manifest`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SegmentEntry {
    /// The segment's allocation number (never reused within a table).
    pub seq: u64,
    /// File name inside the table directory.
    pub name: String,
    /// Rows stored in the segment.
    pub rows: u64,
    /// Exact file length in bytes — a cheap torn-tail check before the
    /// segment footer's own checksums run.
    pub file_len: u64,
}

/// A complete, immutable snapshot of a table's live segment list.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Manifest {
    /// This manifest's number in the chain (strictly increasing).
    pub seq: u64,
    /// Live segments, in table order (scan order = concatenation).
    pub segments: Vec<SegmentEntry>,
}

impl Manifest {
    /// An empty table's first manifest.
    #[must_use]
    pub fn empty(seq: u64) -> Self {
        Self {
            seq,
            segments: Vec::new(),
        }
    }

    /// Total rows across all live segments.
    #[must_use]
    pub fn rows(&self) -> u64 {
        self.segments.iter().map(|s| s.rows).sum()
    }

    /// The file name this manifest publishes under.
    #[must_use]
    pub fn file_name(&self) -> String {
        manifest_file_name(self.seq)
    }

    /// Serializes the manifest with its trailing self-checksum.
    #[must_use]
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(64 + self.segments.len() * 48);
        out.extend_from_slice(&MANIFEST_MAGIC);
        out.extend_from_slice(&MANIFEST_VERSION.to_le_bytes());
        out.extend_from_slice(&self.seq.to_le_bytes());
        out.extend_from_slice(
            &(u32::try_from(self.segments.len()).expect("segment count fits")).to_le_bytes(),
        );
        for seg in &self.segments {
            out.extend_from_slice(&seg.seq.to_le_bytes());
            out.extend_from_slice(&seg.rows.to_le_bytes());
            out.extend_from_slice(&seg.file_len.to_le_bytes());
            let name = seg.name.as_bytes();
            out.extend_from_slice(
                &(u16::try_from(name.len()).expect("segment name fits")).to_le_bytes(),
            );
            out.extend_from_slice(name);
        }
        let sum = checksum64(&out);
        out.extend_from_slice(&sum.to_le_bytes());
        out
    }

    /// Parses and validates a manifest record: magic, then version, then
    /// the self-checksum over the whole record, and only then the fields,
    /// so bit flips and truncations fail closed.
    ///
    /// # Errors
    ///
    /// Corrupt, truncated, or wrong-version records.
    pub fn decode(bytes: &[u8]) -> Result<Self> {
        const HEADER: usize = 8 + 4 + 8 + 4;
        if bytes.len() < HEADER + 8 {
            return Err(Error::corrupt(format!(
                "manifest too short: {} bytes",
                bytes.len()
            )));
        }
        match record_version(bytes) {
            None => return Err(Error::corrupt("manifest magic mismatch")),
            Some(MANIFEST_VERSION) => {}
            Some(version) => return Err(unsupported_version(version)),
        }
        let (body, mut tail) = bytes.split_at(bytes.len() - 8);
        if checksum64(body) != tail.get_u64_le() {
            return Err(Error::corrupt("manifest checksum mismatch"));
        }
        let mut buf = &body[8 + 4..];
        let seq = buf.get_u64_le();
        let n = buf.get_u32_le() as usize;
        let mut segments = Vec::with_capacity(n.min(1024));
        for _ in 0..n {
            if buf.remaining() < 26 {
                return Err(Error::corrupt("manifest entry truncated"));
            }
            let seg_seq = buf.get_u64_le();
            let rows = buf.get_u64_le();
            let file_len = buf.get_u64_le();
            let name_len = buf.get_u16_le() as usize;
            if buf.remaining() < name_len {
                return Err(Error::corrupt("manifest entry name truncated"));
            }
            let name = std::str::from_utf8(&buf[..name_len])
                .map_err(|_| Error::corrupt("manifest entry name not utf-8"))?
                .to_owned();
            buf.advance(name_len);
            segments.push(SegmentEntry {
                seq: seg_seq,
                name,
                rows,
                file_len,
            });
        }
        if !buf.is_empty() {
            return Err(Error::corrupt("manifest has trailing bytes"));
        }
        Ok(Self { seq, segments })
    }

    /// Publishes this manifest atomically (temp + fsync + rename + dir
    /// fsync). After `Ok`, this manifest is the durable newest state.
    ///
    /// # Errors
    ///
    /// Underlying I/O failures — the publish must be treated as not
    /// having happened (though it *may* have; callers that cannot tell
    /// must stop issuing new numbers until recovery re-reads the
    /// directory).
    pub fn publish(&self, vfs: &dyn Vfs) -> Result<()> {
        write_file_atomic(
            vfs,
            &manifest_tmp_name(self.seq),
            &self.file_name(),
            &self.encode(),
        )
    }
}

/// The version word of a record that starts with the manifest magic.
fn record_version(bytes: &[u8]) -> Option<u32> {
    let mut rest = bytes.strip_prefix(&MANIFEST_MAGIC)?;
    (rest.remaining() >= 4).then(|| rest.get_u32_le())
}

fn unsupported_version(version: u32) -> Error {
    Error::corrupt(format!("unsupported manifest version {version}"))
}

/// The published file name for manifest number `seq`.
#[must_use]
pub fn manifest_file_name(seq: u64) -> String {
    format!("manifest-{seq:06}.man")
}

/// The temporary file name manifest `seq` is staged under before rename.
#[must_use]
pub fn manifest_tmp_name(seq: u64) -> String {
    format!("manifest-{seq:06}.tmp")
}

/// The file name for segment number `seq`.
#[must_use]
pub fn segment_file_name(seq: u64) -> String {
    format!("seg-{seq:06}.corra")
}

/// The manifest number of a *published* manifest file name.
#[must_use]
pub fn manifest_seq_of(name: &str) -> Option<u64> {
    parse_seq(name, "manifest-", ".man")
}

/// The segment number of a segment file name.
#[must_use]
pub fn segment_seq_of(name: &str) -> Option<u64> {
    parse_seq(name, "seg-", ".corra")
}

/// The number embedded in *any* table file name (published manifest,
/// staged temp, or segment) — used to compute never-reused next numbers.
#[must_use]
pub fn any_seq_of(name: &str) -> Option<(SeqKind, u64)> {
    if let Some(seq) = parse_seq(name, "manifest-", ".man") {
        return Some((SeqKind::Manifest, seq));
    }
    if let Some(seq) = parse_seq(name, "manifest-", ".tmp") {
        return Some((SeqKind::Manifest, seq));
    }
    if let Some(seq) = parse_seq(name, "seg-", ".corra") {
        return Some((SeqKind::Segment, seq));
    }
    None
}

/// Which counter a file name draws from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SeqKind {
    /// The manifest chain counter.
    Manifest,
    /// The segment allocation counter.
    Segment,
}

fn parse_seq(name: &str, prefix: &str, suffix: &str) -> Option<u64> {
    let middle = name.strip_prefix(prefix)?.strip_suffix(suffix)?;
    if middle.is_empty() || !middle.bytes().all(|b| b.is_ascii_digit()) {
        return None;
    }
    middle.parse().ok()
}

/// What a recovery scan of a table directory found.
#[derive(Debug)]
pub struct DirScan {
    /// Decode-valid manifests whose listed segments are all present with
    /// the recorded file length, **newest first**. The caller still has
    /// to open the segments (footer + checksum validation) and fall back
    /// down this list on failure.
    pub candidates: Vec<Manifest>,
    /// The next manifest number that has never appeared in the directory
    /// (counting torn temp files — numbers are never reused).
    pub next_manifest_seq: u64,
    /// The next segment number that has never appeared in the directory.
    pub next_segment_seq: u64,
}

/// Scans a table directory for recovery: every manifest that decodes
/// cleanly and whose segment files are present at their recorded
/// lengths, newest first, plus the never-reused next numbers.
///
/// Invalid manifests (torn temp files, flipped bytes, missing segments)
/// are *skipped*, not fatal — the caller falls back to the next-newest
/// candidate. A published record with the manifest magic and another
/// version is fatal: another build's table lives here, and reading the
/// directory as empty would let `create` publish over it and the next GC
/// delete its segments.
///
/// # Errors
///
/// Underlying I/O failures listing the directory or reading files; a
/// published manifest of an unsupported version.
pub fn scan_dir(vfs: &dyn Vfs) -> Result<DirScan> {
    let names = vfs.list()?;
    let mut next_manifest_seq = 1;
    let mut next_segment_seq = 1;
    let mut manifest_seqs = Vec::new();
    for name in &names {
        match any_seq_of(name) {
            Some((SeqKind::Manifest, seq)) => {
                next_manifest_seq = next_manifest_seq.max(seq + 1);
                if manifest_seq_of(name).is_some() {
                    manifest_seqs.push(seq);
                }
            }
            Some((SeqKind::Segment, seq)) => {
                next_segment_seq = next_segment_seq.max(seq + 1);
            }
            None => {}
        }
    }
    manifest_seqs.sort_unstable_by(|a, b| b.cmp(a));
    let mut candidates = Vec::new();
    for seq in manifest_seqs {
        let name = manifest_file_name(seq);
        let Ok(bytes) = read_file(vfs, &name) else {
            continue;
        };
        if let Some(version) = record_version(&bytes).filter(|&v| v != MANIFEST_VERSION) {
            return Err(unsupported_version(version));
        }
        let Ok(manifest) = Manifest::decode(&bytes) else {
            continue;
        };
        if manifest.seq != seq {
            continue; // renamed or misnumbered record: not trustworthy
        }
        let all_present = manifest.segments.iter().all(|seg| {
            names.binary_search(&seg.name).is_ok()
                && vfs
                    .open(&seg.name)
                    .and_then(|f| f.len())
                    .map(|len| len == seg.file_len)
                    .unwrap_or(false)
        });
        if all_present {
            candidates.push(manifest);
        }
    }
    Ok(DirScan {
        candidates,
        next_manifest_seq,
        next_segment_seq,
    })
}

/// Deletes every table file not needed by the `keep` manifests: older
/// published manifests, orphaned temp files, and segments no kept
/// manifest references. Call only after the newest kept manifest is
/// durable.
///
/// # Errors
///
/// Underlying I/O failures (the directory is still consistent — nothing
/// live is ever in the delete set).
pub fn gc(vfs: &dyn Vfs, keep: &[&Manifest]) -> Result<u64> {
    let names = vfs.list()?;
    let kept_manifests: std::collections::HashSet<String> =
        keep.iter().map(|m| m.file_name()).collect();
    let live_segments: std::collections::HashSet<&str> = keep
        .iter()
        .flat_map(|m| m.segments.iter().map(|s| s.name.as_str()))
        .collect();
    let mut removed = 0;
    for name in &names {
        let stale = match any_seq_of(name) {
            Some((SeqKind::Manifest, _)) => {
                !kept_manifests.contains(name) // covers torn .tmp files too
            }
            Some((SeqKind::Segment, _)) => !live_segments.contains(name.as_str()),
            None => false,
        };
        if stale {
            vfs.remove(name)?;
            removed += 1;
        }
    }
    Ok(removed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vfs::SimVfs;

    fn sample() -> Manifest {
        Manifest {
            seq: 12,
            segments: vec![
                SegmentEntry {
                    seq: 3,
                    name: segment_file_name(3),
                    rows: 1024,
                    file_len: 9001,
                },
                SegmentEntry {
                    seq: 7,
                    name: segment_file_name(7),
                    rows: 16,
                    file_len: 512,
                },
            ],
        }
    }

    #[test]
    fn encode_decode_roundtrip() {
        let m = sample();
        assert_eq!(Manifest::decode(&m.encode()).unwrap(), m);
        let empty = Manifest::empty(1);
        assert_eq!(Manifest::decode(&empty.encode()).unwrap(), empty);
    }

    #[test]
    fn every_bit_flip_and_truncation_fails_closed() {
        let bytes = sample().encode();
        for i in 0..bytes.len() {
            for bit in 0..8 {
                let mut flipped = bytes.clone();
                flipped[i] ^= 1 << bit;
                assert!(
                    Manifest::decode(&flipped).is_err(),
                    "flip at byte {i} bit {bit} decoded"
                );
            }
        }
        for cut in 0..bytes.len() {
            assert!(
                Manifest::decode(&bytes[..cut]).is_err(),
                "truncation to {cut} bytes decoded"
            );
        }
    }

    #[test]
    fn file_name_numbering_roundtrips() {
        assert_eq!(manifest_file_name(7), "manifest-000007.man");
        assert_eq!(manifest_seq_of("manifest-000007.man"), Some(7));
        assert_eq!(manifest_seq_of("manifest-000007.tmp"), None);
        assert_eq!(segment_seq_of("seg-001234.corra"), Some(1234));
        assert_eq!(
            any_seq_of("manifest-000009.tmp"),
            Some((SeqKind::Manifest, 9))
        );
        assert_eq!(any_seq_of("seg-000002.corra"), Some((SeqKind::Segment, 2)));
        assert_eq!(any_seq_of("manifest-xx.man"), None);
        assert_eq!(any_seq_of("unrelated"), None);
    }

    #[test]
    fn scan_dir_prefers_newest_and_skips_invalid() {
        let vfs = SimVfs::new(0);
        // Segment files for both manifests.
        for (seq, len) in [(1u64, 8usize), (2, 8)] {
            let f = vfs.create(&segment_file_name(seq)).unwrap();
            crate::io::write_full_at(&f, 0, &[7u8; 8]).unwrap();
            f.fsync().unwrap();
            let _ = len;
        }
        let m1 = Manifest {
            seq: 1,
            segments: vec![SegmentEntry {
                seq: 1,
                name: segment_file_name(1),
                rows: 4,
                file_len: 8,
            }],
        };
        let m2 = Manifest {
            seq: 2,
            segments: vec![
                m1.segments[0].clone(),
                SegmentEntry {
                    seq: 2,
                    name: segment_file_name(2),
                    rows: 4,
                    file_len: 8,
                },
            ],
        };
        m1.publish(&vfs).unwrap();
        m2.publish(&vfs).unwrap();
        let scan = scan_dir(&vfs).unwrap();
        assert_eq!(scan.candidates.len(), 2);
        assert_eq!(scan.candidates[0], m2);
        assert_eq!(scan.candidates[1], m1);
        assert_eq!(scan.next_manifest_seq, 3);
        assert_eq!(scan.next_segment_seq, 3);

        // Corrupt the newest manifest on disk: recovery falls back to m1.
        let bytes = read_file(&vfs, &m2.file_name()).unwrap();
        let mut broken = bytes.clone();
        broken[13] ^= 0x40;
        let f = vfs.create(&m2.file_name()).unwrap();
        crate::io::write_full_at(&f, 0, &broken).unwrap();
        let scan = scan_dir(&vfs).unwrap();
        assert_eq!(scan.candidates.len(), 1);
        assert_eq!(scan.candidates[0], m1);
        // Numbers are still never reused.
        assert_eq!(scan.next_manifest_seq, 3);

        // A published record of another version is not a torn write: the
        // scan refuses the directory instead of falling back past it.
        let mut foreign = bytes;
        foreign[8..12].copy_from_slice(&1u32.to_le_bytes());
        crate::io::write_full_at(&f, 0, &foreign).unwrap();
        let err = scan_dir(&vfs).unwrap_err();
        assert!(
            matches!(&err, Error::Corrupt(m) if m == "unsupported manifest version 1"),
            "{err}"
        );
    }

    #[test]
    fn scan_dir_rejects_manifests_with_missing_or_resized_segments() {
        let vfs = SimVfs::new(0);
        let f = vfs.create(&segment_file_name(1)).unwrap();
        crate::io::write_full_at(&f, 0, &[1u8; 16]).unwrap();
        let m = Manifest {
            seq: 1,
            segments: vec![SegmentEntry {
                seq: 1,
                name: segment_file_name(1),
                rows: 4,
                file_len: 32, // wrong: actual file is 16 bytes (torn tail)
            }],
        };
        m.publish(&vfs).unwrap();
        let scan = scan_dir(&vfs).unwrap();
        assert!(scan.candidates.is_empty(), "torn segment accepted");
    }

    #[test]
    fn gc_removes_only_dead_files() {
        let vfs = SimVfs::new(0);
        for seq in 1..=3u64 {
            let f = vfs.create(&segment_file_name(seq)).unwrap();
            crate::io::write_full_at(&f, 0, &[9u8; 8]).unwrap();
            f.fsync().unwrap();
        }
        let live = Manifest {
            seq: 2,
            segments: vec![SegmentEntry {
                seq: 2,
                name: segment_file_name(2),
                rows: 1,
                file_len: 8,
            }],
        };
        Manifest::empty(1).publish(&vfs).unwrap();
        live.publish(&vfs).unwrap();
        // An orphaned temp from a torn publish.
        let f = vfs.create(&manifest_tmp_name(3)).unwrap();
        crate::io::write_full_at(&f, 0, b"torn").unwrap();
        vfs.sync_dir().unwrap();

        let removed = gc(&vfs, &[&live]).unwrap();
        assert_eq!(removed, 4); // seg 1, seg 3, manifest 1, tmp 3
        assert_eq!(
            vfs.list().unwrap(),
            vec![live.file_name(), segment_file_name(2)]
        );
    }
}
