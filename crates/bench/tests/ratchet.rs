//! Structural ratchet: one benchmark. `e2e_bench` (`BENCHMARK.json`) is the
//! only place a timing series is recorded; the bins beside it are the
//! paper's figures and `kernel_gates`. Runs under `cargo test`, so CI and
//! tier-1 both enforce it.

use std::path::Path;

/// File names directly under `dir` that `stray` matches.
fn strays(dir: &Path, stray: impl Fn(&str) -> bool) -> Vec<String> {
    std::fs::read_dir(dir)
        .unwrap()
        .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
        .filter(|f| stray(f))
        .collect()
}

#[test]
fn no_second_benchmark_beside_e2e_bench() {
    let bench = Path::new(env!("CARGO_MANIFEST_DIR"));
    let bins = strays(&bench.join("src/bin"), |f| f.ends_with("_bench.rs"));
    assert!(
        bins.is_empty(),
        "{bins:?}: a timing series is an e2e_bench per-layer metric, a property is a test \
         (docs/TESTING.md)"
    );
    let json = strays(&bench.join("../.."), |f| {
        f.starts_with("BENCH_") && f.ends_with(".json")
    });
    assert!(
        json.is_empty(),
        "{json:?}: committed numbers belong to e2e_bench and BENCHMARK.json"
    );
}
