//! Structural ratchets. One benchmark: `e2e_bench` (`BENCHMARK.json`) is
//! the only place a timing series is recorded; the bins beside it are the
//! paper's figures and `kernel_gates`. One codec trait: vertical kernels are
//! provided methods of `IntAccess`, C3 is a size comparator, and payloads
//! are framed by `take_frame` / `write_frame` alone. Runs under `cargo
//! test`, so CI and tier-1 both enforce it.

use std::path::Path;

/// Every `.rs` file under `dir` (recursively, build output aside) as
/// `(path, text)`.
fn sources(dir: &Path) -> Vec<(String, String)> {
    let mut out = Vec::new();
    for entry in std::fs::read_dir(dir).unwrap() {
        let path = entry.unwrap().path();
        if path.is_dir() {
            if !path.ends_with("target") {
                out.extend(sources(&path));
            }
        } else if path.extension().is_some_and(|e| e == "rs") {
            let text = std::fs::read_to_string(&path).unwrap();
            out.push((path.display().to_string(), text));
        }
    }
    out
}

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

#[test]
fn one_codec_trait_a_size_only_c3_and_no_framed_layer() {
    let crates = Path::new(env!("CARGO_MANIFEST_DIR")).join("..");
    let traits: Vec<String> = sources(&crates.join("encodings/src"))
        .iter()
        .flat_map(|(path, text)| {
            text.lines()
                .filter(|l| l.trim_start().starts_with("pub trait "))
                .map(move |l| format!("{path}: {}", l.trim()))
        })
        .collect();
    assert!(
        matches!(traits.as_slice(), [only] if only.contains("pub trait IntAccess")),
        "{traits:?}: a vertical kernel is a provided method of IntAccess (overridden where a \
         codec works in its compressed domain), not a trait of its own"
    );
    for (path, text) in sources(&crates.join("c3/src")) {
        for gone in [
            "fn filter_into",
            "fn aggregate_",
            "fn write_to",
            "fn read_from",
        ] {
            assert!(
                !text.contains(gone),
                "{path} has `{gone}`: Table 3 compares sizes, so C3 encodes, sizes and decodes"
            );
        }
    }
    // Spelled in two halves so this file does not match itself.
    let framed = concat!("impl_framed", "!");
    for (path, text) in sources(&crates) {
        assert!(
            !text.contains(framed),
            "{path} has `{framed}`: format.rs frames payloads with take_frame / write_frame"
        );
    }
}
