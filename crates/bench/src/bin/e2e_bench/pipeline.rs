//! One workload, start to finish: set-up, then the timed phases — encode,
//! write cycles (append → compact → reopen), cold / warm / in-memory
//! query mix, serve (spill and fit) — every result checked against the
//! oracle outside the timed call.
//!
//! The phases take turns over `ROUNDS` rounds, each spending its share of
//! `--seconds` a slice at a time, so a disturbance of a few seconds lands
//! on a few repetitions of every phase and moves no median much, instead
//! of landing on every repetition of one phase. The traced run repeats
//! the phases behind the I/O decorators, alternating with undecorated
//! repetitions so the tracing overhead comes from the same process, and
//! adds the staged replays.

use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

use crate::data::{Query, RawTable};
use crate::engine::{
    self, Cache, CacheCounters, Compressed, Dir, OpStats, Prepared, Requests, Res, Source, Table,
    Writer,
};
use crate::host;
use crate::oracle::Oracle;
use crate::stats::{spread, supported_tail, time, Pace, Samples, SAMPLES_FOR_P95, SAMPLES_FOR_P99};
use crate::trace::{self, secs_under, self_nanos, Counters, Op, Recorder, Span};
use crate::workloads::{Ingest, Spec, MIX_SLOTS, SERVE_KINDS};

pub struct Options {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub quick: bool,
    /// Every file the run creates lives under here and is removed again.
    pub scratch: PathBuf,
    pub trace_out: Option<PathBuf>,
}

/// A measured value with the number of samples behind it (0 for counts
/// and ratios of counts) and, for a median, the samples' interquartile
/// distance as a share of it.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub n: usize,
    pub spread: Option<f64>,
}

pub struct Outcome {
    pub metrics: Vec<Metric>,
    /// Every append, compaction, reopen, query and served request.
    pub attempted: u64,
    /// Those that returned an error or an answer the oracle rejects.
    pub failed: u64,
    pub errors: Vec<String>,
    /// Free-form lines of the report: sizes used, attribution tables.
    pub notes: Vec<String>,
}

/// Set-ups per run, three before the phases and two after them;
/// `setup_s` is the median of the five.
const EARLY_SETUPS: usize = 3;
const LATE_SETUPS: usize = 2;
/// Turns each phase gets.
const ROUNDS: usize = 8;
/// A warm cache far larger than any table here: the fits-in-cache case.
const WARM_CACHE_BYTES: u64 = 1 << 30;

/// Shares of `--seconds` per phase. The write cycle is the slowest
/// repetition and the serve tails need the most samples.
const SHARES: [(&str, f64); 7] = [
    ("encode", 0.08),
    ("write", 0.30),
    ("cold", 0.12),
    ("warm", 0.10),
    ("mem", 0.10),
    ("spill", 0.16),
    ("fit", 0.14),
];
/// The traced run spends this much of each share on the phases and the
/// rest on the replays and probes, whose work is fixed.
const TRACED_SHARE: f64 = 0.4;

struct Ctx<'a> {
    spec: &'a Spec,
    opts: &'a Options,
    recorder: Option<Arc<Recorder>>,
    out: Outcome,
}

/// What a set-up produces.
struct Inputs {
    data: Arc<RawTable>,
    mix: Vec<(&'static str, Query)>,
    /// One serve pass: `(index into SERVE_KINDS, query)`.
    stream: Vec<(usize, Query)>,
    oracle: Oracle,
}

#[derive(Default)]
struct Cycle {
    append_secs: f64,
    append_samples: Vec<f64>,
    appended_bytes: u64,
    compact_secs: f64,
    compacted_rows: u64,
    rewritten_bytes: u64,
    rewritten_from: u64,
    /// Decorated cycles: everything the decorators counted from table
    /// creation to the last compaction.
    counters: Option<Counters>,
    /// Decorated cycles, from the spans under the `append` / `compact`
    /// calls: their I/O and namespace children, and the appends' self
    /// time (what the engine computed between them).
    append_io_secs: f64,
    append_namespace_secs: f64,
    append_self_secs: f64,
    compact_commit_secs: f64,
}

/// Seconds of the spans named `prefix…` below each span called `parent`.
fn children_secs(spans: &[Span], parent: &str, prefix: &str) -> f64 {
    spans
        .iter()
        .filter(|s| s.name == parent)
        .map(|s| secs_under(spans, s.id, |c| c.name.starts_with(prefix)))
        .sum()
}

/// Tracing overhead in percent: the median, over neighbouring pairs of a
/// decorated and an undecorated repetition, of how much longer the
/// decorated one took. Neighbours share the host's mood, which a ratio
/// of two medians taken over the whole run would not cancel.
fn overhead_pct(decorated: &[f64], plain: &[f64]) -> Samples {
    decorated
        .iter()
        .zip(plain)
        .map(|(d, p)| (d / p - 1.0) * 100.0)
        .collect()
}

fn slot_index(slot: &str) -> usize {
    MIX_SLOTS
        .iter()
        .position(|s| *s == slot)
        .expect("a slot of the mix")
}

struct PassTimes {
    slot_secs: Vec<f64>,
    /// What the decorators counted during each query, when watched.
    slot_io: Vec<Counters>,
    stats: OpStats,
}

struct MixTimes {
    pass_ms: Samples,
    slot_ms: Vec<Samples>,
}

impl MixTimes {
    fn new() -> MixTimes {
        MixTimes {
            pass_ms: Samples::new(),
            slot_ms: vec![Samples::new(); MIX_SLOTS.len()],
        }
    }

    fn push(&mut self, pass: &PassTimes) {
        self.pass_ms.push(pass.slot_secs.iter().sum::<f64>() * 1e3);
        for (samples, secs) in self.slot_ms.iter_mut().zip(&pass.slot_secs) {
            samples.push(secs * 1e3);
        }
    }
}

pub fn run(spec: &Spec, opts: &Options) -> Outcome {
    let mut cx = Ctx {
        spec,
        opts,
        recorder: opts.trace.then(Recorder::new),
        out: Outcome {
            metrics: Vec::new(),
            attempted: 0,
            failed: 0,
            errors: Vec::new(),
            notes: Vec::new(),
        },
    };
    if let Err(e) = std::fs::create_dir_all(&opts.scratch) {
        cx.fail(format!("creating {}: {e}", opts.scratch.display()));
        return cx.out;
    }
    cx.run();
    if let (Some(recorder), Some(path)) = (&cx.recorder, &opts.trace_out) {
        let written = std::fs::File::create(path)
            .map(std::io::BufWriter::new)
            .and_then(|mut f| recorder.write_spans(&mut f));
        if let Err(e) = written {
            cx.note(format!("trace not written to {}: {e}", path.display()));
        }
    }
    std::fs::remove_dir_all(&opts.scratch).ok();
    cx.out
}

impl Ctx<'_> {
    fn put(&mut self, name: &str, value: f64, n: usize) {
        self.out.metrics.push(Metric {
            name: name.to_owned(),
            value,
            n,
            spread: None,
        });
    }

    fn put_median(&mut self, name: &str, samples: &Samples) {
        self.put(name, samples.median(), samples.n());
        if let Some(m) = self.out.metrics.last_mut() {
            m.spread = spread(samples.values());
        }
    }

    /// Percentile `p` of pooled samples. The sample must support it: at
    /// least ten samples beyond it, or the report says so.
    fn put_tail(&mut self, name: &str, samples: &Samples, p: f64) {
        self.put(name, samples.percentile(p), samples.n());
        if supported_tail(samples.n()).is_none_or(|highest| highest < p) {
            self.note(format!(
                "{name}: n={} leaves fewer than ten samples beyond p{p}",
                samples.n()
            ));
        }
    }

    fn note(&mut self, line: String) {
        self.out.notes.push(line);
    }

    fn fail(&mut self, what: String) {
        self.out.failed += 1;
        if self.out.errors.len() < 20 {
            self.out.errors.push(what);
        }
    }

    /// Counts one attempted operation; an error fails it.
    fn op<T>(&mut self, what: &str, r: Res<T>) -> Option<T> {
        self.out.attempted += 1;
        r.map_err(|e| self.fail(format!("{what}: {e}"))).ok()
    }

    /// Fails the operation just counted when its result is wrong.
    fn check(&mut self, what: &str, ok: bool) {
        if !ok {
            self.fail(format!("{what}: oracle mismatch"));
        }
    }

    /// The phase's pace: its share of `--seconds`, and `min` repetitions
    /// whatever the budget.
    fn pace(&self, phase: &str, min: usize) -> Pace {
        let share = SHARES
            .iter()
            .find(|(p, _)| *p == phase)
            .map_or(0.0, |(_, s)| *s);
        let traced = if self.opts.trace { TRACED_SHARE } else { 1.0 };
        let budget = Duration::from_secs_f64(self.opts.seconds * share * traced);
        Pace::new(budget, self.at_least(min))
    }

    /// Quick mode looks at correctness only: three repetitions are an
    /// untimed one plus one of each kind a traced phase alternates.
    fn at_least(&self, full: usize) -> usize {
        if self.opts.quick {
            full.min(3)
        } else {
            full
        }
    }

    fn rounds(&self) -> usize {
        if self.opts.quick {
            2
        } else {
            ROUNDS
        }
    }

    // -----------------------------------------------------------------

    fn run(&mut self) {
        let spec = self.spec;
        let mut setup = Samples::new();
        let mut datagen = Samples::new();
        let mut inputs = None;
        for _ in 0..EARLY_SETUPS {
            drop(inputs.take());
            inputs = Some(self.set_up(&mut setup, &mut datagen));
        }
        let mut inputs = inputs.expect("EARLY_SETUPS > 0");
        let user_bytes = inputs.data.user_bytes() as f64;
        self.note(format!(
            "sizes: rows={} columns={} user_bytes={} batches={}x{} block_rows={} \
             merge_threshold_bytes={} clients={} serve_requests_per_pass={} rounds={}",
            spec.rows,
            inputs.data.columns.len(),
            user_bytes,
            spec.batches,
            spec.batch_rows(),
            spec.block_rows,
            spec.merge_threshold_bytes,
            host::clients(),
            spec.serve_requests,
            self.rounds(),
        ));

        self.phases(&mut inputs, user_bytes);
        self.put("peak_rss_mb", host::peak_rss_mb(), 0);

        // Set-up again with everything else gone, so the five samples
        // span the run and no two tables are alive at once.
        drop(inputs);
        for _ in 0..LATE_SETUPS {
            drop(self.set_up(&mut setup, &mut datagen));
        }
        self.put_median("setup_s", &setup);
        let rate = spec.rows as f64 / datagen.median();
        self.put("datagen.rows_per_s", rate, datagen.n());
    }

    /// Datagen + oracle: the raw table, the query constants, and the
    /// expected answer to every query the run will send.
    fn set_up(&mut self, setup: &mut Samples, datagen: &mut Samples) -> Inputs {
        let (spec, seed) = (self.spec, self.opts.seed);
        let (data, gen_secs) = time(|| Arc::new(engine::generate(spec, seed)));
        let (inputs, oracle_secs) = time(|| {
            let mix = spec.mix(&data);
            let stream = spec.serve_requests(&mix, seed);
            let mut oracle = Oracle::new(Arc::clone(&data), spec.block_rows, seed);
            oracle.prepare(mix.iter().map(|(_, q)| q));
            oracle.prepare(stream.iter().map(|(_, q)| q));
            oracle.prepare([&Query::Decompress(spec.verify_column)]);
            Inputs {
                data: Arc::clone(&data),
                mix,
                stream,
                oracle,
            }
        });
        setup.push(gen_secs + oracle_secs);
        datagen.push(gen_secs);
        inputs
    }

    /// The timed phases, in turns, then (traced run) the replays.
    fn phases(&mut self, inputs: &mut Inputs, user_bytes: f64) -> Option<()> {
        let rounds = self.rounds();
        let mut encode = EncodePhase::new(self);
        let mut write = WritePhase::new(self);
        encode.turn(self, inputs, 0, rounds);
        write.turn(self, inputs, 0, rounds);
        let compressed = encode.first.as_ref()?.1.clone();
        let (dir, stored_bytes) = write.kept.take()?;
        let Some(mut reads) = ReadPhases::open(self, inputs, &dir, &compressed, stored_bytes)
        else {
            dir.remove();
            return None;
        };
        reads.turn(self, inputs, 0, rounds);
        for round in 1..rounds {
            encode.turn(self, inputs, round, rounds);
            write.turn(self, inputs, round, rounds);
            reads.turn(self, inputs, round, rounds);
        }
        encode.finish(self, inputs);
        write.finish(self, user_bytes);
        self.put(
            "stored_bytes_per_user_byte",
            stored_bytes as f64 / user_bytes,
            0,
        );
        reads.finish(self, inputs, &dir);
        if self.opts.trace {
            self.replays_and_probes(inputs, &dir, &compressed);
        }
        dir.remove();
        Some(())
    }

    /// The whole table as uncompressed blocks, and what `into_blocks`
    /// took.
    fn whole_blocks(&self, data: &RawTable) -> (engine::Blocks, f64) {
        let table = Table::new(self.spec, data, 0..self.spec.rows);
        time(|| table.into_blocks(self.spec.block_rows))
    }

    /// Runs `q` on `source` untimed and checks it.
    fn verify(&mut self, what: &str, source: &Source, q: &Query, oracle: &mut Oracle) {
        let layout = source.layout();
        let prepared = Prepared::new(q, &layout, self.opts.seed);
        if let Some((output, _)) = self.op(what, source.run(&prepared)) {
            let ok = oracle.check(q, &output.normalize(&layout));
            self.check(what, ok);
        }
    }

    // ------------------------------------------------------ write cycles

    /// `recorder` is the one under the table, when it is decorated.
    fn compact(
        &mut self,
        writer: &mut Writer,
        cycle: &mut Cycle,
        recorder: Option<&Arc<Recorder>>,
    ) -> Option<()> {
        let mark = recorder.map(|r| r.mark());
        let (r, secs) = {
            let _span = trace::span(recorder, "compact");
            time(|| writer.compact())
        };
        let done = self.op("compact", r)?;
        self.check("compact found the appended run", done.compacted);
        cycle.compact_secs += secs;
        cycle.compacted_rows += done.rows;
        cycle.rewritten_bytes += done.bytes_after;
        cycle.rewritten_from += done.bytes_before;
        if let (Some(r), Some(mark)) = (recorder, mark) {
            // Everything compaction did below the engine except read its
            // inputs: write, fsync and the namespace operations.
            let spans = r.spans_since(mark);
            cycle.compact_commit_secs += children_secs(&spans, "compact", "")
                - children_secs(&spans, "compact", Op::Read.name());
        }
        Some(())
    }

    /// One write cycle into a fresh directory: create, append every
    /// batch the workload's way, compact. `decorate` puts the recording
    /// `Vfs` under the table.
    fn write_cycle(
        &mut self,
        data: &RawTable,
        index: usize,
        decorate: bool,
    ) -> Option<(Cycle, Dir, Writer)> {
        let spec = self.spec;
        let recorder = self.recorder.clone().filter(|_| decorate);
        let recorder = recorder.as_ref();
        let path = self.opts.scratch.join(format!("cycle-{index}"));
        std::fs::remove_dir_all(&path).ok();
        let dir = self.op("create directory", Dir::create(&path, recorder))?;
        // Built outside the timed region: the appends consume them.
        let batches = Table::batches(spec, data);
        let before = recorder.map(|r| r.counters());
        let mut cycle = Cycle::default();
        let mut writer = self.op("create table", Writer::create(&dir, spec))?;
        match spec.ingest {
            Ingest::Pipelined => {
                let (r, secs) = time(|| writer.append_batches(batches));
                // One call acknowledges every batch or fails as a whole.
                self.out.attempted += spec.batches as u64 - 1;
                cycle.appended_bytes = self.op("append_batches", r)?;
                cycle.append_secs = secs;
                self.compact(&mut writer, &mut cycle, recorder)?;
            }
            Ingest::SerialCompactEvery(every) => {
                for (i, batch) in batches.into_iter().enumerate() {
                    let (r, secs) = time(|| writer.append(batch));
                    cycle.appended_bytes += self.op("append", r)?;
                    cycle.append_secs += secs;
                    cycle.append_samples.push(secs);
                    if (i + 1) % every == 0 {
                        self.compact(&mut writer, &mut cycle, recorder)?;
                    }
                }
            }
        }
        if let (Some(r), Some(before)) = (recorder, before) {
            cycle.counters = Some(r.counters() - before);
        }
        Some((cycle, dir, writer))
    }

    /// Recovery of the directory plus a read view, checked against the
    /// oracle: every acknowledged row, bit for bit in `verify_column`.
    fn reopen(&mut self, dir: &Dir, oracle: &mut Oracle) -> Option<Writer> {
        let spec = self.spec;
        let r = Writer::open(dir, spec).and_then(|w| w.reader().map(|source| (w, source)));
        let (writer, source) = self.op("reopen", r)?;
        let rows = spec.rows as u64;
        let whole = writer.rows() == rows && source.rows() == rows;
        self.check("reopened row count", whole);
        let verify = Query::Decompress(spec.verify_column);
        self.verify("read back after reopen", &source, &verify, oracle);
        Some(writer)
    }

    // ------------------------------------------------------- query mixes

    /// One pass of the mix: each query timed alone, every answer checked
    /// after its clock has stopped. `watch` is the recorder behind
    /// `source`, when it has one.
    fn mix_pass(
        &mut self,
        source: &Source,
        table: &OpenTable,
        inputs: &mut Inputs,
        watch: Option<&Arc<Recorder>>,
    ) -> Option<PassTimes> {
        let mut pass = PassTimes {
            slot_secs: Vec::new(),
            slot_io: Vec::new(),
            stats: OpStats::default(),
        };
        let mut outputs = Vec::new();
        for (slot, q) in MIX_SLOTS.iter().zip(&table.prepared) {
            let before = watch.map(|r| r.counters());
            let (r, secs) = {
                let _span = trace::span(watch, slot);
                time(|| source.run(q))
            };
            if let (Some(r), Some(before)) = (watch, before) {
                pass.slot_io.push(r.counters() - before);
            }
            let (output, stats) = self.op(slot, r)?;
            pass.slot_secs.push(secs);
            pass.stats.absorb(stats);
            outputs.push(output);
        }
        for ((slot, q), output) in inputs.mix.iter().zip(&outputs) {
            let ok = inputs.oracle.check(q, &output.normalize(&table.layout));
            self.check(slot, ok);
        }
        Some(pass)
    }
}

// ---------------------------------------------------------------- encode

/// `compress_blocks`, one thread, the workload's configuration, in
/// memory — the encode side of the paper's trade-off — and the bytes it
/// saves over the vertical baseline.
struct EncodePhase {
    pace: Pace,
    encode: Samples,
    split: Samples,
    first: Option<(engine::Blocks, Compressed)>,
}

impl EncodePhase {
    fn new(cx: &Ctx<'_>) -> EncodePhase {
        EncodePhase {
            pace: cx.pace("encode", 3),
            encode: Samples::new(),
            split: Samples::new(),
            first: None,
        }
    }

    fn turn(&mut self, cx: &mut Ctx<'_>, inputs: &Inputs, round: usize, rounds: usize) {
        while self.pace.due(round, rounds).is_some() {
            let start = Instant::now();
            let (blocks, split_secs) = cx.whole_blocks(&inputs.data);
            let (r, secs) = time(|| blocks.compress(Some(&cx.spec.config)));
            if let Some(compressed) = cx.op("compress_blocks", r) {
                self.encode.push(secs);
                self.split.push(split_secs);
                // The first result is the one the in-memory mix reads.
                self.first.get_or_insert((blocks, compressed));
            }
            self.pace.record(start.elapsed());
        }
    }

    fn finish(self, cx: &mut Ctx<'_>, inputs: &mut Inputs) -> Option<()> {
        let spec = cx.spec;
        let (blocks, compressed) = self.first?;
        let rate = spec.rows as f64 / self.encode.median();
        cx.put("encode_rows_per_s", rate, self.encode.n());
        cx.put("compressor.compress_rows_per_s", rate, self.encode.n());
        cx.put_median("columnar.into_blocks_s", &self.split);
        let verify = Query::Decompress(spec.verify_column);
        let source = compressed.source();
        cx.verify("decompress in memory", &source, &verify, &mut inputs.oracle);

        let baseline = cx.op("compress_blocks (vertical)", blocks.compress(None))?;
        let bytes = |c: &Compressed, columns: &[&str]| -> Res<u64> {
            columns.iter().map(|name| c.column_bytes(name)).sum()
        };
        let columns = spec.diff_columns();
        let ours = cx.op("column bytes", bytes(&compressed, &columns))?;
        let theirs = cx.op("column bytes", bytes(&baseline, &columns))?;
        cx.put("saving_vs_vertical", 1.0 - ours as f64 / theirs as f64, 0);
        if cx.opts.trace {
            for (name, saving) in ["target", "target2"].into_iter().zip(&spec.savings) {
                let with = if saving.config == spec.config {
                    compressed.clone()
                } else {
                    let other = blocks.compress(Some(&saving.config));
                    cx.op("compress_blocks (other plan)", other)?
                };
                let ours = cx.op("column bytes", with.column_bytes(saving.column))?;
                let theirs = cx.op("column bytes", baseline.column_bytes(saving.column))?;
                let value = 1.0 - ours as f64 / theirs as f64;
                cx.put(&format!("compressor.saving.{name}"), value, 0);
                cx.note(format!(
                    "compressor.saving.{name}: column {}",
                    saving.column
                ));
            }
        }
        Some(())
    }
}

// ----------------------------------------------------------------- write

/// Write cycles into fresh directories. The first table written is kept
/// for the read phases; every later one is checked and removed.
struct WritePhase {
    pace: Pace,
    plain: Vec<Cycle>,
    decorated: Vec<Cycle>,
    kept: Option<(Dir, u64)>,
}

impl WritePhase {
    fn new(cx: &Ctx<'_>) -> WritePhase {
        // The traced run alternates decorated and plain cycles and needs
        // a median of each.
        let min = if cx.opts.trace { 6 } else { 3 };
        WritePhase {
            pace: cx.pace("write", min),
            plain: Vec::new(),
            decorated: Vec::new(),
            kept: None,
        }
    }

    fn turn(&mut self, cx: &mut Ctx<'_>, inputs: &mut Inputs, round: usize, rounds: usize) {
        while let Some(i) = self.pace.due(round, rounds) {
            let start = Instant::now();
            self.cycle(cx, inputs, i);
            self.pace.record(start.elapsed());
        }
    }

    fn cycle(&mut self, cx: &mut Ctx<'_>, inputs: &mut Inputs, i: usize) -> Option<()> {
        let decorate = cx.opts.trace && i % 2 == 0;
        let (cycle, dir, writer) = cx.write_cycle(&inputs.data, i, decorate)?;
        drop(writer);
        let writer = cx.reopen(&dir, &mut inputs.oracle)?;
        if i == 0 {
            // Kept undecorated: each read phase decides what it watches.
            self.kept = Some((dir.view(None), writer.stored_bytes()));
        } else {
            dir.remove();
        }
        let cycles = if decorate {
            &mut self.decorated
        } else {
            &mut self.plain
        };
        cycles.push(cycle);
        Some(())
    }

    fn finish(self, cx: &mut Ctx<'_>, user_bytes: f64) -> Option<()> {
        let cycles = if cx.opts.trace {
            &self.decorated
        } else {
            &self.plain
        };
        let rows = cx.spec.rows as f64;
        let ingest: Samples = cycles.iter().map(|c| rows / c.append_secs).collect();
        cx.put_median("ingest_rows_per_s", &ingest);
        let compact: Samples = cycles
            .iter()
            .map(|c| c.compacted_rows as f64 / c.compact_secs)
            .collect();
        cx.put_median("compact_rows_per_s", &compact);
        let last = cycles.last()?;
        let written = last.appended_bytes + last.rewritten_bytes;
        cx.put("write_amp", written as f64 / user_bytes, 0);
        cx.put("compact.bytes_rewritten", last.rewritten_bytes as f64, 0);
        let ratio = last.rewritten_bytes as f64 / last.rewritten_from as f64;
        cx.put("compact.size_ratio", ratio, 0);
        if cx.opts.trace {
            self.layers(cx);
        }
        Some(())
    }

    /// What the decorators saw of a write cycle.
    fn layers(&self, cx: &mut Ctx<'_>) -> Option<()> {
        let counted: Vec<Counters> = self.decorated.iter().filter_map(|c| c.counters).collect();
        let counters = counted.last()?;
        let median_of = |f: &dyn Fn(&Counters) -> f64| counted.iter().map(f).collect::<Samples>();
        for (name, op) in [("write", Op::Write), ("fsync", Op::Fsync)] {
            let calls = counters.get(op).calls as f64;
            cx.put(&format!("io.{name}_calls"), calls, 0);
            cx.put_median(&format!("io.{name}_s"), &median_of(&|c| c.get(op).secs()));
        }
        cx.put("io.write_bytes", counters.get(Op::Write).bytes as f64, 0);
        for (name, op) in [
            ("create", Op::Create),
            ("rename", Op::Rename),
            ("remove", Op::Remove),
            ("sync_dir", Op::SyncDir),
            ("list", Op::List),
        ] {
            let calls = counters.get(op).calls as f64;
            cx.put(&format!("vfs.{name}_calls"), calls, 0);
        }
        cx.put_median("vfs.namespace_s", &median_of(&|c| c.namespace_secs()));
        let commit: Samples = self
            .decorated
            .iter()
            .map(|c| c.compact_commit_secs)
            .collect();
        cx.put_median("compact.commit_s", &commit);

        let secs =
            |cycles: &[Cycle]| -> Vec<f64> { cycles.iter().map(|c| c.append_secs).collect() };
        let overhead = overhead_pct(&secs(&self.decorated), &secs(&self.plain));
        cx.put("trace.overhead_pct.append", overhead.median(), overhead.n());
        Some(())
    }
}

// ----------------------------------------------------------------- reads

/// The table the read phases share: opened once, with the mix lowered to
/// engine expressions once.
struct OpenTable {
    writer: Writer,
    /// The same directory behind the decorators (traced run).
    watched: Option<Writer>,
    layout: Vec<usize>,
    prepared: Vec<Prepared>,
    requests: Requests,
}

/// Cold reads: a freshly opened, uncached `reader()` per pass. Reads come
/// from the OS page cache — the sandbox's, not a device's.
struct ColdPhase {
    pace: Pace,
    /// The passes the metrics come from: all of them, or in the traced
    /// run the decorated ones.
    times: MixTimes,
    /// Traced run: the undecorated passes, for the overhead.
    plain: MixTimes,
    open_ms: Samples,
    stats: OpStats,
    /// Decorated passes: reads per pass, and read seconds per slot.
    pass_reads: Vec<Counters>,
    slot_read_ms: Vec<Samples>,
}

impl ColdPhase {
    fn turn(
        &mut self,
        cx: &mut Ctx<'_>,
        table: &OpenTable,
        inputs: &mut Inputs,
        round: usize,
        rounds: usize,
    ) {
        while let Some(i) = self.pace.due(round, rounds) {
            let start = Instant::now();
            self.pass(cx, table, inputs, i);
            self.pace.record(start.elapsed());
        }
    }

    fn pass(
        &mut self,
        cx: &mut Ctx<'_>,
        table: &OpenTable,
        inputs: &mut Inputs,
        i: usize,
    ) -> Option<()> {
        // Traced run: odd passes go through the decorators.
        let decorated = table.watched.as_ref().filter(|_| i % 2 == 1);
        let watch = cx.recorder.clone().filter(|_| decorated.is_some());
        let (r, open_secs) = time(|| decorated.unwrap_or(&table.writer).reader());
        let source = cx.op("reader", r)?;
        let before = watch.as_ref().map(|r| r.counters());
        let pass = cx.mix_pass(&source, table, inputs, watch.as_ref())?;
        // The first pass is the untimed one.
        if i == 0 {
            return Some(());
        }
        self.open_ms.push(open_secs * 1e3);
        self.stats = pass.stats;
        match (&watch, before) {
            (Some(r), Some(before)) => {
                self.pass_reads.push(r.counters() - before);
                for (ms, io) in self.slot_read_ms.iter_mut().zip(&pass.slot_io) {
                    ms.push(io.get(Op::Read).secs() * 1e3);
                }
                self.times.push(&pass);
            }
            _ if table.watched.is_some() => self.plain.push(&pass),
            _ => self.times.push(&pass),
        }
        Some(())
    }
}

/// The mix on one long-lived source: the warm cache, or blocks in memory.
struct SteadyPhase {
    pace: Pace,
    source: Source,
    times: MixTimes,
}

impl SteadyPhase {
    fn turn(
        &mut self,
        cx: &mut Ctx<'_>,
        table: &OpenTable,
        inputs: &mut Inputs,
        round: usize,
        rounds: usize,
    ) {
        while let Some(i) = self.pace.due(round, rounds) {
            let start = Instant::now();
            if let Some(pass) = cx.mix_pass(&self.source, table, inputs, None) {
                // The first pass fills the cache and is not timed.
                if i > 0 {
                    self.times.push(&pass);
                }
            }
            self.pace.record(start.elapsed());
        }
    }
}

/// Closed loop through the front door: `clients` threads, each sending
/// its next request when the previous one returns.
struct ServePhase {
    pace: Pace,
    cache: Cache,
    source: Source,
    clients: usize,
    rps: Samples,
    latency_ms: Samples,
    kind_ms: Vec<Samples>,
    /// Cache counters when the untimed pass ended.
    before: CacheCounters,
    passes: usize,
}

impl ServePhase {
    fn open(
        cx: &mut Ctx<'_>,
        table: &OpenTable,
        phase: &str,
        cache_bytes: u64,
        clients: usize,
    ) -> Option<ServePhase> {
        let cache = Cache::new(cache_bytes);
        let from = table.watched.as_ref().unwrap_or(&table.writer);
        let source = cx.op("reader_cached", from.reader_cached(&cache))?;
        // An untimed pass, then enough timed ones for p99 to have ten
        // samples beyond it.
        let for_p99 = SAMPLES_FOR_P99.div_ceil(cx.spec.serve_requests);
        Some(ServePhase {
            pace: cx.pace(phase, 1 + for_p99.max(3)),
            cache,
            source,
            clients,
            rps: Samples::new(),
            latency_ms: Samples::new(),
            kind_ms: vec![Samples::new(); SERVE_KINDS.len()],
            before: CacheCounters::default(),
            passes: 0,
        })
    }

    fn turn(
        &mut self,
        cx: &mut Ctx<'_>,
        table: &OpenTable,
        inputs: &mut Inputs,
        round: usize,
        rounds: usize,
    ) {
        while let Some(i) = self.pace.due(round, rounds) {
            let start = Instant::now();
            self.pass(cx, table, inputs, i);
            self.pace.record(start.elapsed());
        }
    }

    fn pass(
        &mut self,
        cx: &mut Ctx<'_>,
        table: &OpenTable,
        inputs: &mut Inputs,
        i: usize,
    ) -> Option<()> {
        let per_pass = inputs.stream.len();
        let r = engine::serve(&self.source, &table.requests, self.clients);
        // Every request of the batch is an operation; `op` counts one.
        cx.out.attempted += per_pass as u64 - 1;
        let served = cx.op("serve", r)?;
        for ((_, q), output) in inputs.stream.iter().zip(&served.outputs) {
            let ok = inputs.oracle.check(q, &output.normalize(&table.layout));
            cx.check("served request", ok);
        }
        // The first pass is the untimed one.
        if i == 0 {
            self.before = self.cache.counters();
            return Some(());
        }
        self.passes += 1;
        self.rps.push(per_pass as f64 / served.wall_secs);
        for ((kind, _), secs) in inputs.stream.iter().zip(&served.latency_secs) {
            self.latency_ms.push(secs * 1e3);
            self.kind_ms[*kind].push(secs * 1e3);
        }
        Some(())
    }

    /// The cache's and each request kind's numbers, under `phase`.
    fn layers(&self, cx: &mut Ctx<'_>, phase: &str) {
        let c = self.cache.counters() - self.before;
        let passes = self.passes.max(1);
        let per_pass = |n: u64| n as f64 / passes as f64;
        let lookups = (c.hits + c.misses).max(1) as f64;
        cx.put(
            &format!("cache.{phase}.hit_rate"),
            c.hits as f64 / lookups,
            passes,
        );
        cx.put(
            &format!("cache.{phase}.insertions"),
            per_pass(c.insertions),
            passes,
        );
        cx.put(
            &format!("cache.{phase}.evictions"),
            per_pass(c.evictions),
            passes,
        );
        cx.put(
            &format!("cache.{phase}.bytes_evicted"),
            per_pass(c.bytes_evicted),
            passes,
        );
        for (kind, ms) in SERVE_KINDS.iter().zip(&self.kind_ms) {
            cx.put_median(&format!("{kind}.{phase}_p50_ms"), ms);
        }
    }
}

/// Everything that reads the kept table, in the order of a turn.
struct ReadPhases {
    table: OpenTable,
    cold: ColdPhase,
    warm: SteadyPhase,
    mem: SteadyPhase,
    /// A cache a quarter of the table: larger than the program's cache.
    spill: ServePhase,
    /// A cache four times the table.
    fit: ServePhase,
    stored_bytes: u64,
}

impl ReadPhases {
    fn open(
        cx: &mut Ctx<'_>,
        inputs: &Inputs,
        dir: &Dir,
        compressed: &Compressed,
        stored_bytes: u64,
    ) -> Option<ReadPhases> {
        let spec = cx.spec;
        let writer = cx.op("open for reading", Writer::open(dir, spec))?;
        let layout = cx.op("reader", writer.reader())?.layout();
        let whole = layout.iter().all(|&rows| rows == spec.block_rows);
        cx.check("table layout", whole && layout.len() == spec.n_blocks());
        let watched = match cx.recorder.clone() {
            Some(r) => Some(cx.op("open for reading", Writer::open(&dir.view(Some(&r)), spec))?),
            None => None,
        };
        let queries: Vec<Query> = inputs.stream.iter().map(|(_, q)| q.clone()).collect();
        let table = OpenTable {
            prepared: inputs
                .mix
                .iter()
                .map(|(_, q)| Prepared::new(q, &layout, cx.opts.seed))
                .collect(),
            requests: Requests::new(&queries),
            writer,
            watched,
            layout,
        };
        let cache = Cache::new(WARM_CACHE_BYTES);
        let warm = cx.op("reader_cached", table.writer.reader_cached(&cache))?;
        let clients = host::clients();
        Some(ReadPhases {
            cold: ColdPhase {
                // One untimed pass, then five of each kind it alternates.
                pace: cx.pace("cold", if table.watched.is_some() { 11 } else { 6 }),
                times: MixTimes::new(),
                plain: MixTimes::new(),
                open_ms: Samples::new(),
                stats: OpStats::default(),
                pass_reads: Vec::new(),
                slot_read_ms: vec![Samples::new(); MIX_SLOTS.len()],
            },
            warm: SteadyPhase {
                pace: cx.pace("warm", 6),
                source: warm,
                times: MixTimes::new(),
            },
            mem: SteadyPhase {
                pace: cx.pace("mem", 6),
                source: compressed.source(),
                times: MixTimes::new(),
            },
            spill: ServePhase::open(cx, &table, "spill", stored_bytes / 4, clients)?,
            fit: ServePhase::open(cx, &table, "fit", stored_bytes * 4, clients)?,
            table,
            stored_bytes,
        })
    }

    fn turn(&mut self, cx: &mut Ctx<'_>, inputs: &mut Inputs, round: usize, rounds: usize) {
        let table = &self.table;
        self.cold.turn(cx, table, inputs, round, rounds);
        self.warm.turn(cx, table, inputs, round, rounds);
        self.mem.turn(cx, table, inputs, round, rounds);
        self.spill.turn(cx, table, inputs, round, rounds);
        self.fit.turn(cx, table, inputs, round, rounds);
    }

    fn finish(self, cx: &mut Ctx<'_>, inputs: &mut Inputs, dir: &Dir) -> Option<()> {
        let (cold, warm, mem) = (&self.cold, &self.warm.times, &self.mem.times);
        cx.put_median("cold_mix_ms", &cold.times.pass_ms);
        cx.put_median("warm_mix_ms", &warm.pass_ms);
        cx.put_median("mem_mix_ms", &mem.pass_ms);
        cx.put_median("store.open_ms", &cold.open_ms);
        cx.put("store.bytes_read", cold.stats.bytes_read as f64, 0);
        let skipped = cold.stats.blocks_skipped_io as f64;
        cx.put("store.blocks_skipped_io", skipped, 0);
        cx.put("store.blocks_pruned", cold.stats.blocks_pruned as f64, 0);
        for (i, slot) in MIX_SLOTS.iter().enumerate() {
            cx.put_median(&format!("{slot}.cold_ms"), &cold.times.slot_ms[i]);
            cx.put_median(&format!("{slot}.warm_ms"), &warm.slot_ms[i]);
            cx.put_median(&format!("{slot}.mem_ms"), &mem.slot_ms[i]);
        }
        let range = slot_index("scan.range");
        let share = mem.slot_ms[range].median() / warm.slot_ms[range].median();
        cx.put("scan.kernel_share", share, mem.slot_ms[range].n());

        cx.put_median("serve_rps", &self.spill.rps);
        cx.put_tail("serve_p50_ms", &self.spill.latency_ms, 50.0);
        cx.put_tail("serve_p95_ms", &self.spill.latency_ms, 95.0);
        cx.put_tail("serve.p99_ms", &self.spill.latency_ms, 99.0);
        cx.put_median("serve_fit_rps", &self.fit.rps);
        self.spill.layers(cx, "spill");
        self.fit.layers(cx, "fit");

        if let Some(reads) = cold.pass_reads.last() {
            let read = reads.get(Op::Read);
            cx.put("io.read_calls", read.calls as f64, 0);
            cx.put("io.read_bytes", read.bytes as f64, 0);
            let secs: Samples = cold
                .pass_reads
                .iter()
                .map(|c| c.get(Op::Read).secs())
                .collect();
            cx.put_median("io.read_s", &secs);
            let overhead = overhead_pct(cold.times.pass_ms.values(), cold.plain.pass_ms.values());
            cx.put(
                "trace.overhead_pct.cold_mix",
                overhead.median(),
                overhead.n(),
            );

            // Front-door scaling, cache-resident so it is not the cache's.
            let fit_bytes = self.stored_bytes * 4;
            let mut alone = ServePhase::open(cx, &self.table, "fit", fit_bytes, 1)?;
            alone.turn(cx, &self.table, inputs, 0, 1);
            let (many, one) = (self.fit.rps.median(), alone.rps.median());
            cx.put("serve.client_scaling", many / one, alone.rps.n());
            cx.note(format!(
                "serve.client_scaling: {} clients {many:.0} req/s over 1 client {one:.0} req/s",
                self.fit.clients
            ));
            cx.cold_scan_attribution(inputs, &self.table, dir, cold, mem);
        }
        Some(())
    }
}

impl Ctx<'_> {
    // ------------------------------------------- traced run: attribution

    /// Where a cold `scan.range` goes: read (`io`) + checksum (`io`,
    /// replayed) + deserialize (`store`) + kernel (`scan`) + residual.
    /// Parts are measured independently of the whole, so the residual is
    /// a real gap, not a remainder defined to close the sum.
    fn cold_scan_attribution(
        &mut self,
        inputs: &mut Inputs,
        table: &OpenTable,
        dir: &Dir,
        cold: &ColdPhase,
        mem: &MixTimes,
    ) -> Option<()> {
        let recorder = self.recorder.clone()?;
        let range = slot_index("scan.range");
        let (prepared, layout) = (&table.prepared, &table.layout);
        let images = self.op("segment images", table.writer.segment_images(dir))?;
        let image_bytes: usize = images.iter().map(|(_, b)| b.len()).sum();

        // The store's verify + deserialize with no disk under it.
        let from_memory = self.op("open images", engine::source_from_images(&images))?;
        let mut load = Samples::new();
        let mut loaded = None;
        for _ in 0..1 + self.at_least(3) {
            let (r, secs) = time(|| from_memory.load_blocks());
            loaded = self.op("read_block", r);
            load.push(secs);
        }
        loaded?;
        let load = load.after_warm_up();
        self.put(
            "store.read_block_gbps",
            image_bytes as f64 / load.median() / 1e9,
            load.n(),
        );

        // Exactly the ranges one cold pass, and its scan, asked for.
        let source = self.op("reader", table.watched.as_ref()?.reader())?;
        let replay = |cx: &mut Self, queries: &[Prepared]| -> Option<f64> {
            recorder.log_reads(true);
            for q in queries {
                cx.op("replayed query", source.run(q))?;
            }
            recorder.log_reads(false);
            let mut secs = 0.0;
            for range in recorder.take_reads() {
                let (_, bytes) = images.iter().find(|(name, _)| **name == *range.file)?;
                let span = bytes.get(range.offset as usize..(range.offset + range.len) as usize)?;
                let (sum, took) = time(|| engine::checksum(span));
                std::hint::black_box(sum);
                secs += took;
            }
            Some(secs)
        };
        let pass_checksum = replay(self, prepared)?;
        let scan_checksum = replay(self, &prepared[range..=range])?;
        self.put("io.checksum_replay_s", pass_checksum, 1);

        let mut no_disk = Samples::new();
        for i in 0..1 + self.at_least(9) {
            let (r, secs) = time(|| from_memory.run(&prepared[range]));
            let (output, _) = self.op("scan from images", r)?;
            let ok = inputs
                .oracle
                .check(&inputs.mix[range].1, &output.normalize(layout));
            self.check("scan from images", ok);
            if i > 0 {
                no_disk.push(secs * 1e3);
            }
        }
        let whole = cold.times.slot_ms[range].median();
        let read = cold.slot_read_ms[range].median();
        let checksum = scan_checksum * 1e3;
        let kernel = mem.slot_ms[range].median();
        let deserialize = no_disk.median() - checksum - kernel;
        let residual = whole - read - no_disk.median();
        self.put(
            "trace.attribution_gap_pct.cold_scan",
            residual.abs() / whole * 100.0,
            no_disk.n(),
        );
        self.note(format!(
            "cold scan.range {whole:.3} ms = read {read:.3} + checksum {checksum:.3} + \
             deserialize {deserialize:.3} + kernel {kernel:.3} + residual {residual:.3}; \
             checksum replay over a whole cold pass {:.3} ms of {:.3} ms",
            pass_checksum * 1e3,
            cold.times.pass_ms.median(),
        ));
        Some(())
    }

    /// Appends with nothing else in the cycle, every batch through
    /// `append` (serial) or all through `append_batches`, behind the
    /// decorators.
    fn append_only_cycle(&mut self, data: &RawTable, index: usize, serial: bool) -> Option<Cycle> {
        let spec = self.spec;
        let recorder = self.recorder.clone()?;
        let path = self.opts.scratch.join(format!("replay-{index}"));
        let dir = self.op("create directory", Dir::create(&path, Some(&recorder)))?;
        let batches = Table::batches(spec, data);
        let mut writer = self.op("create table", Writer::create(&dir, spec))?;
        let mut cycle = Cycle::default();
        let mark = recorder.mark();
        if serial {
            for batch in batches {
                let (r, secs) = {
                    let _span = recorder.span("append");
                    time(|| writer.append(batch))
                };
                self.op("append", r)?;
                cycle.append_samples.push(secs);
                cycle.append_secs += secs;
            }
            let spans = recorder.spans_since(mark);
            cycle.append_io_secs = children_secs(&spans, "append", "io.");
            cycle.append_namespace_secs = children_secs(&spans, "append", "vfs.");
            cycle.append_self_secs = spans
                .iter()
                .filter(|s| s.name == "append")
                .map(|s| self_nanos(&spans, s) as f64 / 1e9)
                .sum();
        } else {
            let (r, secs) = time(|| writer.append_batches(batches));
            self.out.attempted += spec.batches as u64 - 1;
            self.op("append_batches", r)?;
            cycle.append_secs = secs;
        }
        drop(writer);
        dir.remove();
        Some(cycle)
    }

    /// The staged replays and single-function probes of the traced run.
    fn replays_and_probes(
        &mut self,
        inputs: &Inputs,
        dir: &Dir,
        compressed: &Compressed,
    ) -> Option<()> {
        self.append_replay(&inputs.data)?;
        self.compaction_replay(&inputs.data, dir)?;
        self.layer_probes(&inputs.data, compressed)
    }

    /// append = encode (compressor, store) + write + fsync (io) +
    /// namespace (vfs) + gap (manifest and glue).
    fn append_replay(&mut self, data: &RawTable) -> Option<()> {
        let spec = self.spec;
        let reps = self.at_least(3);
        let serial_cycles = if self.opts.quick {
            2
        } else {
            SAMPLES_FOR_P95.div_ceil(spec.batches)
        };
        let (mut serial, mut piped) = (Vec::new(), Vec::new());
        for i in 0..serial_cycles {
            serial.push(self.append_only_cycle(data, i, true)?);
            if i < reps {
                piped.push(self.append_only_cycle(data, i, false)?);
            }
        }
        let mut split = Samples::new();
        let mut encode = Samples::new();
        for _ in 0..reps {
            let (mut split_secs, mut encode_secs) = (0.0, 0.0);
            for batch in Table::batches(spec, data) {
                let (blocks, secs) = time(|| batch.into_blocks(spec.block_rows));
                split_secs += secs;
                let (r, secs) = time(|| blocks.encode_segment(spec));
                self.op("encode_segment", r)?;
                encode_secs += secs;
            }
            split.push(split_secs);
            encode.push(encode_secs);
        }
        let median_of = |cycles: &[Cycle], f: &dyn Fn(&Cycle) -> f64| {
            cycles.iter().map(f).collect::<Samples>().median()
        };
        let total = median_of(&serial, &|c| c.append_secs);
        let io = median_of(&serial, &|c| c.append_io_secs);
        let namespace = median_of(&serial, &|c| c.append_namespace_secs);
        // The appends' self time is what the engine computed between its
        // I/O; the replay accounts for the part of it that is encoding.
        let cpu = split.median() + encode.median();
        let gap = median_of(&serial, &|c| c.append_self_secs) - cpu;
        let appends: Samples = serial
            .iter()
            .flat_map(|c| &c.append_samples)
            .map(|s| s * 1e3)
            .collect();
        self.put("ingest.encode_segment_s", encode.median(), encode.n());
        self.put("ingest.commit_s", total - cpu, serial.len());
        let publish_ms = (total - encode.median() - io) / spec.batches as f64 * 1e3;
        self.put("manifest.publish_ms", publish_ms, serial.len());
        let overlap = total / median_of(&piped, &|c| c.append_secs);
        self.put("ingest.pipeline_overlap", overlap, piped.len());
        self.put_tail("ingest.append_p50_ms", &appends, 50.0);
        self.put_tail("ingest.append_p95_ms", &appends, 95.0);
        let gap_pct = gap.abs() / total * 100.0;
        self.put("trace.attribution_gap_pct.append", gap_pct, serial.len());
        self.note(format!(
            "append of {} batches {total:.4} s = into_blocks {:.4} + encode_segment {:.4} + \
             io (write + fsync) {io:.4} + vfs namespace {namespace:.4} + gap {gap:.4}",
            spec.batches,
            split.median(),
            encode.median(),
        ));
        Some(())
    }

    /// compaction = read + decode the inputs, re-encode, commit (the
    /// commit comes from the decorated write cycles); and recovery.
    fn compaction_replay(&mut self, data: &RawTable, dir: &Dir) -> Option<()> {
        let spec = self.spec;
        let reps = self.at_least(3);
        let writer = self.op("open for reading", Writer::open(dir, spec))?;
        let mut merge_read = Samples::new();
        for _ in 0..reps {
            let source = self.op("reader", writer.reader())?;
            let (r, secs) = time(|| source.load_blocks().and_then(|b| b.decompress_all()));
            self.op("read + decode every block", r)?;
            merge_read.push(secs);
        }
        self.put_median("compact.merge_read_s", &merge_read);
        // As many pieces as the write cycle has compactions.
        let pieces = match spec.ingest {
            Ingest::Pipelined => 1,
            Ingest::SerialCompactEvery(every) => spec.batches / every,
        };
        let rows = spec.rows / pieces;
        let mut reencode = Samples::new();
        for _ in 0..reps {
            let mut secs = 0.0;
            for piece in 0..pieces {
                let table = Table::new(spec, data, piece * rows..(piece + 1) * rows);
                let blocks = table.into_blocks(spec.block_rows);
                let (r, took) = time(|| blocks.encode_segment(spec));
                self.op("encode_segment", r)?;
                secs += took;
            }
            reencode.push(secs);
        }
        self.put_median("compact.reencode_s", &reencode);
        let mut recover = Samples::new();
        for _ in 0..if self.opts.quick { 5 } else { 50 } {
            let (r, secs) = time(|| Writer::open(dir, spec).and_then(|w| w.reader()));
            self.op("reopen", r)?;
            recover.push(secs * 1e3);
        }
        self.put_median("manifest.recover_ms", &recover);
        Some(())
    }

    /// Single layers through one public function each, and the host's
    /// rooflines. Every probe runs once untimed first.
    fn layer_probes(&mut self, data: &RawTable, compressed: &Compressed) -> Option<()> {
        let reps = self.at_least(3);
        let mut decompress = Samples::new();
        let mut frame = Samples::new();
        let mut framed = 0;
        for _ in 0..1 + reps {
            let (r, secs) = time(|| compressed.decompress_all());
            self.op("decompress every column", r)?;
            decompress.push(secs);
            let (r, secs) = time(|| compressed.frame());
            framed = self.op("frame", r)?.len();
            frame.push(secs);
        }
        let decompress = decompress.after_warm_up().median();
        let rate = data.user_bytes() as f64 / decompress / 1e9;
        self.put("compressor.decompress_gbps", rate, reps);
        let frame = frame.after_warm_up().median();
        self.put("store.frame_gbps", framed as f64 / frame / 1e9, reps);

        let column = data.ints(self.spec.verify_column);
        let rows_per_s = |choose: fn(&[i64]) -> usize| {
            let secs: Samples = (0..1 + reps)
                .map(|_| {
                    let (bytes, secs) = time(|| choose(column));
                    std::hint::black_box(bytes);
                    secs
                })
                .collect();
            column.len() as f64 / secs.after_warm_up().median()
        };
        let baseline = rows_per_s(engine::choose_baseline);
        self.put("encodings.choose_baseline_rows_per_s", baseline, reps);
        let full = rows_per_s(engine::choose_full);
        self.put("encodings.choose_full_rows_per_s", full, reps);

        let probe_bytes = if self.opts.quick {
            host::PROBE_BYTES / 16
        } else {
            host::PROBE_BYTES
        };
        for bits in [5u8, 12] {
            let (run, bytes) = engine::unpack_probe(bits, probe_bytes / 8);
            let rate = host::bandwidth(bytes as usize, run);
            self.put(&format!("columnar.unpack_w{bits}_gbps"), rate, host::REPS);
        }
        let buffer = vec![0xa5u8; probe_bytes];
        let rate = host::bandwidth(probe_bytes, || {
            std::hint::black_box(engine::checksum(std::hint::black_box(&buffer)));
        });
        self.put("io.checksum64_gbps", rate, host::REPS);
        drop(buffer);
        // One lookup per 64 probe bytes: a million of them at full size.
        let lookups = probe_bytes / 64;
        // Giga-lookups per second, inverted: nanoseconds per lookup.
        let ns_per_get = 1.0 / host::bandwidth(lookups, engine::cache_hit_probe(lookups));
        self.put("cache.get_ns", ns_per_get, host::REPS);

        let memcpy = host::memcpy_gbps(probe_bytes);
        self.put("host.memcpy_gbps", memcpy, host::REPS);
        let scratch = &self.opts.scratch;
        let read = host::seq_read_gbps(scratch, probe_bytes).map_err(|e| e.to_string());
        let fsync = host::fsync_ms(scratch).map_err(|e| e.to_string());
        let read = self.op("roofline read", read)?;
        let fsync = self.op("roofline fsync", fsync)?;
        self.put("host.seq_read_gbps", read, host::REPS);
        self.put("host.fsync_ms", fsync, 4 * host::REPS);
        Some(())
    }
}
