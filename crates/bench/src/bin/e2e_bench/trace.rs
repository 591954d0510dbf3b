//! The span recorder and I/O counters behind the traced run.
//!
//! Spans are recorded from the benchmark's own files, around the calls
//! into each layer: the pipeline opens a span per engine call, and the
//! `Vfs` / `IoBackend` decorators (in `engine.rs`, because they implement
//! engine traits) report every file and namespace operation here as a
//! leaf span nested under whichever span is open on the calling thread.
//! Spans stay in memory and are written out once, at exit.

use std::cell::RefCell;
use std::io::Write;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// The operations the decorators report.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    Read,
    Write,
    Fsync,
    Create,
    Open,
    Rename,
    Remove,
    SyncDir,
    List,
}

const OPS: [Op; 9] = [
    Op::Read,
    Op::Write,
    Op::Fsync,
    Op::Create,
    Op::Open,
    Op::Rename,
    Op::Remove,
    Op::SyncDir,
    Op::List,
];

impl Op {
    pub fn name(self) -> &'static str {
        match self {
            Op::Read => "io.read",
            Op::Write => "io.write",
            Op::Fsync => "io.fsync",
            Op::Create => "vfs.create",
            Op::Open => "vfs.open",
            Op::Rename => "vfs.rename",
            Op::Remove => "vfs.remove",
            Op::SyncDir => "vfs.sync_dir",
            Op::List => "vfs.list",
        }
    }

    /// Data-path operations on an open file, as opposed to namespace
    /// operations on the directory.
    pub fn is_io(self) -> bool {
        matches!(self, Op::Read | Op::Write | Op::Fsync)
    }
}

/// Calls, bytes and busy nanoseconds of one operation.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OpCount {
    pub calls: u64,
    pub bytes: u64,
    pub nanos: u64,
}

impl OpCount {
    pub fn secs(&self) -> f64 {
        self.nanos as f64 / 1e9
    }
}

/// A snapshot of every operation's counters. Subtract two to get what
/// one phase did.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counters([OpCount; OPS.len()]);

impl Counters {
    pub fn get(&self, op: Op) -> OpCount {
        self.0[op as usize]
    }

    /// Busy seconds of all namespace operations.
    pub fn namespace_secs(&self) -> f64 {
        OPS.iter()
            .filter(|op| !op.is_io())
            .map(|&op| self.get(op).secs())
            .sum()
    }
}

impl std::ops::Sub for Counters {
    type Output = Counters;

    fn sub(self, rhs: Counters) -> Counters {
        let mut out = self;
        for (o, r) in out.0.iter_mut().zip(rhs.0) {
            o.calls -= r.calls;
            o.bytes -= r.bytes;
            o.nanos -= r.nanos;
        }
        out
    }
}

/// One recorded interval. `parent` is the span that was open on the same
/// thread when this one started.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub id: u64,
    pub parent: Option<u64>,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn nanos(&self) -> u64 {
        self.end_ns - self.start_ns
    }

    pub fn secs(&self) -> f64 {
        self.nanos() as f64 / 1e9
    }
}

/// A byte range a decorated file was asked to read.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReadRange {
    pub file: Arc<str>,
    pub offset: u64,
    pub len: u64,
}

thread_local! {
    /// Ids of the spans open on this thread, innermost last.
    static OPEN: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
}

pub struct Recorder {
    epoch: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
    calls: [AtomicU64; OPS.len()],
    bytes: [AtomicU64; OPS.len()],
    nanos: [AtomicU64; OPS.len()],
    log_reads: AtomicBool,
    reads: Mutex<Vec<ReadRange>>,
}

impl Recorder {
    pub fn new() -> Arc<Self> {
        Arc::new(Self {
            epoch: Instant::now(),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
            calls: Default::default(),
            bytes: Default::default(),
            nanos: Default::default(),
            log_reads: AtomicBool::new(false),
            reads: Mutex::new(Vec::new()),
        })
    }

    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span that closes when the guard drops.
    pub fn span(self: &Arc<Self>, name: &'static str) -> SpanGuard {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let parent = OPEN.with_borrow_mut(|open| {
            let parent = open.last().copied();
            open.push(id);
            parent
        });
        SpanGuard {
            recorder: Arc::clone(self),
            id,
            parent,
            name,
            start_ns: self.now(),
        }
    }

    /// Runs `f` as a leaf span of `op`, counting the call, its busy time
    /// and the bytes `f` reports it moved.
    pub fn op<T>(self: &Arc<Self>, op: Op, f: impl FnOnce() -> (T, u64)) -> T {
        let guard = self.span(op.name());
        let (out, bytes) = f();
        let nanos = self.now() - guard.start_ns;
        drop(guard);
        let i = op as usize;
        self.calls[i].fetch_add(1, Ordering::Relaxed);
        self.bytes[i].fetch_add(bytes, Ordering::Relaxed);
        self.nanos[i].fetch_add(nanos, Ordering::Relaxed);
        out
    }

    pub fn counters(&self) -> Counters {
        let mut out = Counters::default();
        for (i, c) in out.0.iter_mut().enumerate() {
            *c = OpCount {
                calls: self.calls[i].load(Ordering::Relaxed),
                bytes: self.bytes[i].load(Ordering::Relaxed),
                nanos: self.nanos[i].load(Ordering::Relaxed),
            };
        }
        out
    }

    /// Starts or stops remembering the ranges reads ask for, for the
    /// checksum replay.
    pub fn log_reads(&self, on: bool) {
        self.log_reads.store(on, Ordering::Relaxed);
    }

    pub fn read_requested(&self, file: &Arc<str>, offset: u64, len: u64) {
        if self.log_reads.load(Ordering::Relaxed) {
            let range = ReadRange {
                file: Arc::clone(file),
                offset,
                len,
            };
            self.reads.lock().expect("no panic holds it").push(range);
        }
    }

    pub fn take_reads(&self) -> Vec<ReadRange> {
        std::mem::take(&mut self.reads.lock().expect("no panic holds it"))
    }

    /// How many spans have closed so far: a mark for [`spans_since`].
    ///
    /// [`spans_since`]: Self::spans_since
    pub fn mark(&self) -> usize {
        self.spans.lock().expect("no panic holds it").len()
    }

    /// The spans closed since `mark`, in closing order.
    pub fn spans_since(&self, mark: usize) -> Vec<Span> {
        self.spans.lock().expect("no panic holds it")[mark..].to_vec()
    }

    /// Writes every span as one JSON object per line.
    pub fn write_spans(&self, out: &mut impl Write) -> std::io::Result<()> {
        for s in self.spans_since(0) {
            let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
            writeln!(
                out,
                r#"{{"id":{},"parent":{},"name":"{}","start_ns":{},"end_ns":{}}}"#,
                s.id, parent, s.name, s.start_ns, s.end_ns
            )?;
        }
        Ok(())
    }
}

pub struct SpanGuard {
    recorder: Arc<Recorder>,
    id: u64,
    parent: Option<u64>,
    name: &'static str,
    start_ns: u64,
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let end_ns = self.recorder.now();
        OPEN.with_borrow_mut(|open| {
            // Guards drop in reverse opening order on a thread; tolerate a
            // stray order rather than panic in drop.
            if let Some(at) = open.iter().rposition(|&id| id == self.id) {
                open.remove(at);
            }
        });
        let span = Span {
            id: self.id,
            parent: self.parent,
            name: self.name,
            start_ns: self.start_ns,
            end_ns,
        };
        if let Ok(mut spans) = self.recorder.spans.lock() {
            spans.push(span);
        }
    }
}

/// Opens a span when tracing is on; a no-op otherwise, so the untraced
/// run pays nothing.
pub fn span(recorder: Option<&Arc<Recorder>>, name: &'static str) -> Option<SpanGuard> {
    recorder.map(|r| r.span(name))
}

/// Nanoseconds of `parent`'s interval that its direct children cover
/// (their union, clipped to the parent).
pub fn covered_nanos(spans: &[Span], parent: &Span) -> u64 {
    let mut kids: Vec<(u64, u64)> = spans
        .iter()
        .filter(|s| s.parent == Some(parent.id))
        .map(|s| (s.start_ns.max(parent.start_ns), s.end_ns.min(parent.end_ns)))
        .filter(|(a, b)| a < b)
        .collect();
    kids.sort_unstable();
    let (mut covered, mut reach) = (0, parent.start_ns);
    for (start, end) in kids {
        let start = start.max(reach);
        if end > start {
            covered += end - start;
            reach = end;
        }
    }
    covered
}

/// A span's self time: its duration minus what its children cover.
pub fn self_nanos(spans: &[Span], span: &Span) -> u64 {
    span.nanos() - covered_nanos(spans, span)
}

/// Total seconds of the spans below `root` (at any depth) that `keep`
/// accepts.
pub fn secs_under(spans: &[Span], root: u64, keep: impl Fn(&Span) -> bool) -> f64 {
    let mut inside = std::collections::HashSet::from([root]);
    let mut total = 0.0;
    // Children close, and so are recorded, before their parents: walk
    // backwards so every parent is known before its children are seen.
    for s in spans.iter().rev() {
        if s.parent.is_some_and(|p| inside.contains(&p)) {
            inside.insert(s.id);
            if keep(s) {
                total += s.secs();
            }
        }
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spin(micros: u64) {
        let t = Instant::now();
        while t.elapsed().as_micros() < u128::from(micros) {
            std::hint::spin_loop();
        }
    }

    #[test]
    fn leaf_ops_nest_under_the_open_span_and_count() {
        let rec = Recorder::new();
        {
            let _root = rec.span("append");
            rec.op(Op::Write, || (spin(200), 4096));
            rec.op(Op::Fsync, || (spin(200), 0));
            {
                let _publish = rec.span("publish");
                rec.op(Op::Rename, || (spin(100), 0));
            }
        }
        let spans = rec.spans_since(0);
        assert_eq!(spans.len(), 5);
        assert_eq!(rec.mark(), 5);
        assert_eq!(rec.spans_since(4), spans[4..]);
        let root = spans.iter().find(|s| s.name == "append").unwrap();
        let root_id = root.id;
        assert_eq!(root.parent, None);
        let rename = spans.iter().find(|s| s.name == "vfs.rename").unwrap();
        let publish = spans.iter().find(|s| s.name == "publish").unwrap();
        assert_eq!(rename.parent, Some(publish.id));
        assert_eq!(publish.parent, Some(root_id));

        let c = rec.counters();
        assert_eq!(c.get(Op::Write).calls, 1);
        assert_eq!(c.get(Op::Write).bytes, 4096);
        assert_eq!(c.get(Op::Rename).calls, 1);
        let io_secs = c.get(Op::Write).secs() + c.get(Op::Fsync).secs();
        assert!(io_secs >= 400e-6 && c.namespace_secs() >= 100e-6);
        assert_eq!(c - c, Counters::default());

        let io = secs_under(&spans, root_id, |s| s.name.starts_with("io."));
        assert!((io - io_secs).abs() < 50e-6, "{io} vs {io_secs}");
        let all = secs_under(&spans, root_id, |s| s.name == "vfs.rename");
        assert!(all >= 100e-6, "grandchildren are found");
    }

    #[test]
    fn children_stay_inside_parents_and_self_times_add_up() {
        let rec = Recorder::new();
        {
            let _root = rec.span("root");
            spin(100);
            for _ in 0..3 {
                let _mid = rec.span("mid");
                rec.op(Op::Read, || (spin(50), 10));
                spin(20);
            }
        }
        let spans = rec.spans_since(0);
        for s in &spans {
            if let Some(p) = s.parent {
                let p = spans.iter().find(|x| x.id == p).unwrap();
                assert!(p.start_ns <= s.start_ns && s.end_ns <= p.end_ns);
            }
        }
        let root = spans.iter().find(|s| s.name == "root").unwrap();
        let selfs: u64 = spans.iter().map(|s| self_nanos(&spans, s)).sum();
        assert_eq!(selfs, root.nanos(), "self times partition the root");
        assert!(self_nanos(&spans, root) >= 100_000);
    }

    #[test]
    fn spans_on_other_threads_are_roots() {
        let rec = Recorder::new();
        let _root = rec.span("root");
        std::thread::scope(|s| {
            s.spawn(|| rec.op(Op::Read, || ((), 1)));
        });
        let spans = rec.spans_since(0);
        assert_eq!(spans[0].name, "io.read");
        assert_eq!(spans[0].parent, None);
    }

    #[test]
    fn read_ranges_are_kept_only_while_asked_for() {
        let rec = Recorder::new();
        let file: Arc<str> = Arc::from("seg");
        rec.read_requested(&file, 0, 8);
        rec.log_reads(true);
        rec.read_requested(&file, 8, 16);
        rec.log_reads(false);
        rec.read_requested(&file, 24, 8);
        let reads = rec.take_reads();
        assert_eq!(reads.len(), 1);
        assert_eq!((reads[0].offset, reads[0].len), (8, 16));
        assert!(rec.take_reads().is_empty());
    }

    #[test]
    fn spans_serialize_one_json_object_per_line() {
        let rec = Recorder::new();
        drop(rec.span("a"));
        let mut out = Vec::new();
        rec.write_spans(&mut out).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert_eq!(text.lines().count(), 1);
        assert!(text.starts_with(r#"{"id":1,"parent":null,"name":"a","start_ns":"#));
    }
}
