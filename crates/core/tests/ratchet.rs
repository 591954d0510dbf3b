//! Structural ratchet over the executor files: one morsel loop, no slot
//! plumbing, and a falling ceiling on library `unwrap`/`expect`. Runs under
//! `cargo test`, so CI and tier-1 both enforce it.

/// The multi-block driver files plus the loop they all share.
const EXECUTOR_FILES: [(&str, &str); 7] = [
    ("morsel.rs", include_str!("../src/morsel.rs")),
    ("compressor.rs", include_str!("../src/compressor.rs")),
    ("scan.rs", include_str!("../src/scan.rs")),
    ("aggregate.rs", include_str!("../src/aggregate.rs")),
    ("operator.rs", include_str!("../src/operator.rs")),
    ("serve.rs", include_str!("../src/serve.rs")),
    ("store.rs", include_str!("../src/store.rs")),
];

/// Non-test `.unwrap()` / `.expect(` across [`EXECUTOR_FILES`]: 51 before
/// the morsel loop landed. Lower it when one goes; never raise it.
const UNWRAP_CEILING: usize = 2;

/// The source above its unit-test module.
fn library_part(source: &str) -> &str {
    source.split("#[cfg(test)]").next().unwrap_or(source)
}

#[test]
fn scoped_threads_live_only_in_the_morsel_loop_and_the_ingest_pipeline() {
    // `ingest.rs` overlaps encode with commit: a two-stage pipeline, not a
    // morsel loop.
    let allowed = ["ingest.rs", "morsel.rs"];
    let src = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("src");
    let mut spawners = Vec::new();
    for entry in std::fs::read_dir(&src).unwrap() {
        let path = entry.unwrap().path();
        if std::fs::read_to_string(&path)
            .unwrap()
            .contains("thread::scope")
        {
            spawners.push(path.file_name().unwrap().to_string_lossy().into_owned());
        }
    }
    spawners.sort();
    assert_eq!(
        spawners, allowed,
        "multi-block drivers go through morsel::run"
    );
}

#[test]
fn whole_block_horizontal_kernels_go_through_the_batch_decode() {
    // The per-row reference-probe filter and fold kernels of NonHier and
    // MultiRef; a whole-block kernel reconstructs through
    // `decode_int_column` and runs the vertical slice kernels instead.
    let retired = [
        "filter_masked",
        "aggregate_masked",
        "aggregate_grouped_masked",
        "fn filter_map",
        "fn aggregate_map",
        "aggregate_grouped_map",
    ];
    let src = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("src");
    for entry in std::fs::read_dir(&src).unwrap() {
        let path = entry.unwrap().path();
        let source = std::fs::read_to_string(&path).unwrap();
        for name in retired {
            assert!(
                !source.contains(name),
                "{} brings back `{name}`; filter and fold whole blocks through \
                 decode_int_column",
                path.display()
            );
        }
    }
}

/// Every `.rs` file under a `src` directory of the workspace's crates.
fn crate_sources() -> Vec<(std::path::PathBuf, String)> {
    let crates = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("..");
    let mut dirs = vec![crates];
    let mut sources = Vec::new();
    while let Some(dir) = dirs.pop() {
        for entry in std::fs::read_dir(&dir).unwrap() {
            let path = entry.unwrap().path();
            let in_src = path.components().any(|c| c.as_os_str() == "src");
            if path.is_dir() && path.file_name().is_some_and(|n| n != "target") {
                dirs.push(path);
            } else if in_src && path.extension().is_some_and(|e| e == "rs") {
                let source = std::fs::read_to_string(&path).unwrap();
                sources.push((path, source));
            }
        }
    }
    sources
}

#[test]
fn query_operators_have_one_serial_body() {
    // Intra-query parallelism is deleted: every scan / aggregate / TOP-K /
    // join is one loop over the blocks. The morsel loop fans out only
    // block compression and the serve front door's requests.
    let fan_out = ["compressor.rs", "serve.rs"];
    for (path, source) in crate_sources() {
        let name = path.file_name().unwrap().to_string_lossy();
        for (at, _) in source.match_indices("_parallel(") {
            let line_start = source[..at].rfind('\n').map_or(0, |i| i + 1);
            assert!(
                !source[line_start..at].contains("fn "),
                "{} brings back a `fn …_parallel(` twin; operators have one \
                 serial body",
                path.display()
            );
        }
        for retired in ["TopKBound", "with_positional_schedule"] {
            assert!(
                !source.contains(retired),
                "{} brings back `{retired}`",
                path.display()
            );
        }
        if !fan_out.contains(&name.as_ref()) {
            for call in ["morsel::run", "morsel::collect"] {
                assert!(
                    !source.contains(call),
                    "{} uses `{call}`; only {fan_out:?} fan out",
                    path.display()
                );
            }
        }
    }
}

#[test]
fn zones_are_recorded_at_encode_not_derived_per_codec() {
    // A zone is data: `CompressedBlock::compress` records each integer
    // column's exact min / max, the footer carries it, and every reader
    // takes it from `BlockView::zone`. The per-codec bound derivations and
    // the covering / exact split they needed stay deleted.
    let retired = [
        "fn value_bounds",
        "fn exact_bounds",
        "fn column_bounds",
        "fn exact_column_bounds",
        "zone_exact",
    ];
    for (path, source) in crate_sources() {
        for name in retired {
            // Whole identifiers only: a test may keep an old name as a
            // prefix (`value_bounds_cover_or_give_up`).
            let whole = source.match_indices(name).any(|(at, _)| {
                let next = source[at + name.len()..].chars().next();
                !next.is_some_and(|c| c.is_alphanumeric() || c == '_')
            });
            assert!(
                !whole,
                "{} brings back `{name}`; read the zone the block recorded \
                 at encode (BlockView::zone)",
                path.display()
            );
        }
    }
}

#[test]
fn whole_block_integer_folds_are_one_sum() {
    // An unfiltered, ungrouped integer aggregate takes `count` and
    // `min` / `max` from the zone and reads one wrapping sum
    // (`IntAccess::sum_wrapping`); the per-codec whole-column fold into an
    // `IntAggState` stays deleted. `DictStr::aggregate_into`, the string
    // fold, keeps its name.
    for (path, source) in crate_sources() {
        for (at, _) in source.match_indices("fn aggregate_into(") {
            let signature = source[at..].split(')').next().unwrap_or_default();
            assert!(
                !signature.contains("IntAggState"),
                "{} brings back an integer `aggregate_into`; sum whole blocks \
                 through IntAccess::sum_wrapping",
                path.display()
            );
        }
    }
}

#[test]
fn no_slot_plumbing() {
    for (name, source) in EXECUTOR_FILES {
        assert!(
            !source.contains("slot poisoned"),
            "{name} hand-rolls result slots again; use morsel::run"
        );
    }
}

#[test]
fn library_unwraps_stay_under_the_ceiling() {
    let mut total = 0;
    for (name, source) in EXECUTOR_FILES {
        let lib = library_part(source);
        let n = lib.matches(".unwrap()").count() + lib.matches(".expect(").count();
        println!("{name}: {n}");
        total += n;
    }
    assert!(
        total <= UNWRAP_CEILING,
        "{total} non-test unwrap/expect in the executor files, ceiling {UNWRAP_CEILING}"
    );
}

#[test]
fn the_full_chooser_sizes_from_stats_not_by_encoding() {
    // Every candidate's size is a closed form over one stats pass and only
    // the winner is encoded; no chooser encodes a candidate to measure it.
    let source = library_part(include_str!("../../encodings/src/chooser.rs"));
    let choosers: Vec<&str> = source
        .match_indices("pub fn choose_int_")
        .map(|(at, _)| source[at..].split("\n}\n").next().unwrap_or_default())
        .collect();
    assert!(
        choosers
            .iter()
            .any(|f| f.starts_with("pub fn choose_int_full(")),
        "choose_int_full moved out of chooser.rs"
    );
    for body in choosers {
        assert!(
            !body.contains("compressed_bytes"),
            "a chooser measures an encoded candidate again:\n{body}"
        );
    }
}
