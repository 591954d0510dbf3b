//! The metric registry: every name the benchmark may print, with its
//! unit and direction, and for end-to-end metrics the regression bound.
//! `BENCHMARK.json` at the repository root declares the same lists; a
//! test below keeps the two identical.

use crate::workloads::{MIX_SLOTS, SERVE_KINDS};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

#[derive(Debug, Clone, PartialEq)]
pub struct Def {
    pub name: String,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which an end-to-end metric may
    /// worsen; unused for per-layer metrics.
    pub bound: f64,
    /// A count or a byte ratio: must repeat exactly for one seed.
    pub exact: bool,
}

fn def(name: &str, unit: &'static str, better: Better, bound: f64, exact: bool) -> Def {
    Def {
        name: name.to_owned(),
        unit,
        better,
        bound,
        exact,
    }
}

use Better::{Higher, Lower};

/// What a user of the system would see. Every workload reports all of
/// them. Read cost (`cold_mix_ms`), write cost (`ingest_rows_per_s`,
/// `write_amp`) and space (`stored_bytes_per_user_byte`) trade against
/// each other and are always reported together.
pub fn end_to_end() -> Vec<Def> {
    // Timings get the contract's widest bound. Over ten seeds the
    // quartiles of every timing here lie 2-7 % apart while the host is
    // calm and 10-20 % apart when a noisy spell covers three of the ten
    // runs, which it does a few times an hour; a tighter bound would
    // reject changes for the host's mood.
    const TIMING: f64 = 0.25;
    // Byte ratios repeat exactly for one seed and move 0.4 % across seeds.
    const EXACT: f64 = 0.02;
    vec![
        def("setup_s", "s", Lower, TIMING, false),
        def("ingest_rows_per_s", "rows/s", Higher, TIMING, false),
        def("compact_rows_per_s", "rows/s", Higher, TIMING, false),
        def("encode_rows_per_s", "rows/s", Higher, TIMING, false),
        def("stored_bytes_per_user_byte", "ratio", Lower, EXACT, true),
        def("saving_vs_vertical", "fraction", Higher, EXACT, true),
        def("write_amp", "ratio", Lower, EXACT, true),
        def("cold_mix_ms", "ms", Lower, TIMING, false),
        def("warm_mix_ms", "ms", Lower, TIMING, false),
        def("mem_mix_ms", "ms", Lower, TIMING, false),
        def("serve_rps", "req/s", Higher, TIMING, false),
        def("serve_p50_ms", "ms", Lower, TIMING, false),
        def("serve_p95_ms", "ms", Lower, TIMING, false),
        def("serve_fit_rps", "req/s", Higher, TIMING, false),
        // 1-3 % apart across seeds.
        def("peak_rss_mb", "MB", Lower, 0.15, false),
    ]
}

/// Single layers, taken from outside in the traced run. No bounds.
pub fn per_layer() -> Vec<Def> {
    let layer = |name: &str, unit, better| def(name, unit, better, 0.0, false);
    let count = |name: &str, unit, better| def(name, unit, better, 0.0, true);
    let mut v = vec![
        layer("host.memcpy_gbps", "GB/s", Higher),
        layer("host.seq_read_gbps", "GB/s", Higher),
        layer("host.fsync_ms", "ms", Lower),
        layer("datagen.rows_per_s", "rows/s", Higher),
        layer("columnar.into_blocks_s", "s", Lower),
        layer("columnar.unpack_w5_gbps", "GB/s", Higher),
        layer("columnar.unpack_w12_gbps", "GB/s", Higher),
        layer("encodings.choose_baseline_rows_per_s", "rows/s", Higher),
        layer("encodings.choose_full_rows_per_s", "rows/s", Higher),
        layer("compressor.compress_rows_per_s", "rows/s", Higher),
        layer("compressor.decompress_gbps", "GB/s", Higher),
        count("compressor.saving.target", "fraction", Higher),
        count("compressor.saving.target2", "fraction", Higher),
        layer("store.frame_gbps", "GB/s", Higher),
        layer("store.open_ms", "ms", Lower),
        layer("store.read_block_gbps", "GB/s", Higher),
        count("store.bytes_read", "bytes", Lower),
        count("store.blocks_skipped_io", "count", Higher),
        count("store.blocks_pruned", "count", Higher),
        layer("io.checksum64_gbps", "GB/s", Higher),
        layer("io.checksum_replay_s", "s", Lower),
        count("io.read_calls", "count", Lower),
        count("io.read_bytes", "bytes", Lower),
        layer("io.read_s", "s", Lower),
        count("io.write_calls", "count", Lower),
        count("io.write_bytes", "bytes", Lower),
        layer("io.write_s", "s", Lower),
        count("io.fsync_calls", "count", Lower),
        layer("io.fsync_s", "s", Lower),
        count("vfs.create_calls", "count", Lower),
        count("vfs.rename_calls", "count", Lower),
        count("vfs.remove_calls", "count", Lower),
        count("vfs.sync_dir_calls", "count", Lower),
        count("vfs.list_calls", "count", Lower),
        layer("vfs.namespace_s", "s", Lower),
        layer("manifest.publish_ms", "ms", Lower),
        layer("manifest.recover_ms", "ms", Lower),
        layer("ingest.encode_segment_s", "s", Lower),
        layer("ingest.commit_s", "s", Lower),
        layer("ingest.pipeline_overlap", "ratio", Higher),
        layer("ingest.append_p50_ms", "ms", Lower),
        layer("ingest.append_p95_ms", "ms", Lower),
        layer("compact.merge_read_s", "s", Lower),
        layer("compact.reencode_s", "s", Lower),
        layer("compact.commit_s", "s", Lower),
        count("compact.bytes_rewritten", "bytes", Lower),
        count("compact.size_ratio", "ratio", Lower),
    ];
    for phase in ["spill", "fit"] {
        // Taken with concurrent clients: these vary a little run to run.
        v.push(layer(
            &format!("cache.{phase}.hit_rate"),
            "fraction",
            Higher,
        ));
        v.push(layer(&format!("cache.{phase}.insertions"), "count", Lower));
        v.push(layer(&format!("cache.{phase}.evictions"), "count", Lower));
        v.push(layer(
            &format!("cache.{phase}.bytes_evicted"),
            "bytes",
            Lower,
        ));
    }
    v.push(layer("cache.get_ns", "ns", Lower));
    for slot in MIX_SLOTS {
        for source in ["cold", "warm", "mem"] {
            v.push(layer(&format!("{slot}.{source}_ms"), "ms", Lower));
        }
    }
    v.push(layer("scan.kernel_share", "ratio", Higher));
    for kind in SERVE_KINDS {
        for phase in ["spill", "fit"] {
            v.push(layer(&format!("{kind}.{phase}_p50_ms"), "ms", Lower));
        }
    }
    v.push(layer("serve.p99_ms", "ms", Lower));
    v.push(layer("serve.client_scaling", "ratio", Higher));
    v.push(layer("trace.overhead_pct.append", "%", Lower));
    v.push(layer("trace.overhead_pct.cold_mix", "%", Lower));
    v.push(layer("trace.attribution_gap_pct.append", "%", Lower));
    v.push(layer("trace.attribution_gap_pct.cold_scan", "%", Lower));
    v
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::NAMES;

    /// `BENCHMARK.json`, found by walking up from this package (which is
    /// built both on its own and as a `corra-bench` bin target).
    fn declared() -> Option<serde::Value> {
        let mut dir = std::path::PathBuf::from(env!("CARGO_MANIFEST_DIR"));
        loop {
            if let Ok(text) = std::fs::read_to_string(dir.join("BENCHMARK.json")) {
                return Some(serde_json::from_str(&text).expect("BENCHMARK.json parses"));
            }
            if !dir.pop() {
                return None;
            }
        }
    }

    fn names_ok(defs: &[Def]) {
        let mut seen = std::collections::HashSet::new();
        for d in defs {
            let ok = |c: char| c.is_ascii_alphanumeric() || "_.-".contains(c);
            assert!(d.name.len() <= 64 && d.name.chars().all(ok), "{}", d.name);
            assert!(d.name.starts_with(|c: char| c.is_ascii_alphanumeric()));
            assert!(d.unit.len() <= 16, "{}", d.unit);
            assert!(seen.insert(&d.name), "{} declared twice", d.name);
        }
    }

    #[test]
    fn registry_fits_the_contract() {
        let e2e = end_to_end();
        let layers = per_layer();
        assert!(e2e.len() <= 16 && layers.len() <= 128, "{}", layers.len());
        names_ok(&e2e.iter().chain(&layers).cloned().collect::<Vec<_>>());
        assert!(e2e.iter().all(|d| d.bound > 0.0 && d.bound <= 0.25));
        let setup = e2e.iter().find(|d| d.name == "setup_s").expect("setup_s");
        assert_eq!((setup.unit, setup.better), ("s", Lower));
        assert!(e2e.iter().all(|d| d.bound <= setup.bound));
    }

    #[test]
    fn benchmark_json_declares_exactly_the_registry() {
        // Absent only when the package is built outside the repository.
        let Some(doc) = declared() else { return };
        let list = |key: &str| doc.get(key).and_then(|v| v.as_array()).expect(key).to_vec();
        let text = |v: &serde::Value, key: &str| {
            v.get(key).and_then(|s| s.as_str()).expect(key).to_owned()
        };
        let check = |key: &str, defs: Vec<Def>, bounded: bool| {
            let declared = list(key);
            assert_eq!(declared.len(), defs.len(), "{key}");
            for (got, want) in declared.iter().zip(&defs) {
                assert_eq!(text(got, "name"), want.name);
                assert_eq!(text(got, "unit"), want.unit, "{}", want.name);
                let better = match want.better {
                    Lower => "lower",
                    Higher => "higher",
                };
                assert_eq!(text(got, "better"), better, "{}", want.name);
                let bound = got.get("bound").and_then(|b| b.as_f64());
                assert_eq!(bound, bounded.then_some(want.bound), "{}", want.name);
            }
        };
        check("end_to_end", end_to_end(), true);
        check("per_layer", per_layer(), false);
        let workloads: Vec<String> = list("workloads").iter().map(|w| text(w, "name")).collect();
        assert_eq!(workloads, NAMES);
    }
}
