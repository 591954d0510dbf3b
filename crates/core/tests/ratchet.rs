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
/// the morsel loop landed, 0 since the store's lazy handle loads through
/// `OnceCell::get_or_init`. It has reached the floor, so the check below is
/// an equality; never raise it.
const UNWRAP_CEILING: usize = 0;

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
    // MultiRef; a whole-block kernel reconstructs through the resolved
    // column's batch decode and runs the vertical slice kernels instead.
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
                 the batch reconstruction",
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
    // One body per operator over a `BlockSource`, too: memory, a file and
    // a segmented table run the same footer-first kernels and drivers, so
    // the store's own zone-first twins, footer validators and whole-table
    // bodies stay deleted.
    let store_twins = [
        "_block_inner",
        "_footer(",
        "validate_pred_with",
        "validate_expr_with",
        "fn scan_table",
        "fn aggregate_table",
        "fn top_k_table",
        "fn gather_table",
        "fn hash_join_tables",
    ];
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
        for twin in store_twins {
            assert!(
                !source.contains(twin),
                "{} brings back `{twin}`; run every source through the \
                 BlockSource drivers",
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
fn a_table_file_is_the_one_segment_table() {
    // One whole-table type: a `TableReader` is one segment file (footer,
    // full block reads, lazy handles), and `SegmentedTable` — one file
    // being the one-segment case — runs every whole-table operator over a
    // block map built once, when the table is assembled. The serve front
    // door holds a `SegmentedTable`, so no trait covers two table types
    // and no call flattens the segments' block lists again.
    for (path, source) in crate_sources() {
        for retired in ["ServeSource", "Segments::new(", "struct Segments"] {
            assert!(
                !source.contains(retired),
                "{} brings back `{retired}`; serve and query a SegmentedTable",
                path.display()
            );
        }
    }
    let store = library_part(include_str!("../src/store.rs"));
    for op in [
        "pub fn scan_blocks(",
        "pub fn aggregate(",
        "pub fn top_k(",
        "pub fn gather_rows(",
        "pub fn hash_join(",
        "pub fn read_column(",
        "BlockSource for",
    ] {
        assert_eq!(
            store.matches(op).count(),
            1,
            "store.rs must define `{op}` once, on SegmentedTable; a table \
             file is the one-segment table"
        );
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
    // `IntAggState` stays deleted. Strings fold through the string-column
    // view (`StrColumn::aggregate`).
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
fn integer_columns_have_one_resolution() {
    // `query::int_column` resolves every integer column into one
    // `IntAccess`, and each operator is one method call on it: the second
    // (whole-block) resolution, the TOP-K offer pair and the per-codec
    // selected loops that differed only in where the values went stay
    // deleted.
    let retired = [
        "enum WholeColumn",
        "fn whole_column",
        "fn offer_selected",
        "fn offer_full",
        "fn gather_map",
        "fn aggregate_selected_map",
        "fn gather_masked",
        "fn aggregate_selected_masked",
    ];
    for (path, source) in crate_sources() {
        for name in retired {
            assert!(
                !source.contains(name),
                "{} brings back `{name}`; resolve integer columns through \
                 query::int_column and call one IntAccess method",
                path.display()
            );
        }
    }
}

#[test]
fn string_columns_have_one_resolution() {
    // A string column is a pool plus a row → entry map, resolved by
    // `query::str_column`, and each string operator is one call on that
    // view; a Hier parent, a GROUP BY key and a join key are one
    // dictionary view (`query::CodeAccess`). The string codecs are named
    // only where blocks are built, serialized and resolved, and the Hier
    // string kernels that took the parent as a closure stay deleted.
    let resolvers = ["compressor.rs", "format.rs", "query.rs"];
    let arms = [
        "ColumnCodec::Str(",
        "ColumnCodec::PlainStr(",
        "ColumnCodec::HierStr {",
    ];
    let twins = [
        "fn filter_eq_with_parents",
        "fn aggregate_with_parents",
        "fn aggregate_selected_with_parents",
        "fn aggregate_grouped_with_parents",
    ];
    for (path, source) in crate_sources() {
        let name = path.file_name().unwrap().to_string_lossy();
        let library = library_part(&source);
        if !resolvers.contains(&name.as_ref()) {
            for arm in arms {
                assert!(
                    !library.contains(arm),
                    "{} matches `{arm}`; resolve string columns through \
                     query::str_column",
                    path.display()
                );
            }
        }
        for twin in twins {
            assert!(
                !source.contains(twin),
                "{} brings back `{twin}`; write string kernels once over \
                 the string-column view",
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
    assert_eq!(
        total, UNWRAP_CEILING,
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

#[test]
fn multiref_reconstructs_through_one_kernel() {
    // A resolved MultiRef column folds its constant members into a per-code
    // addend and adds each varying member into the output in place
    // (`MultiRefColumn::decode_into`); `MultiRefInt::decode_into` runs the
    // same kernel over explicit group sums. The per-group sum buffers and
    // any second keep-table loop stay deleted.
    let query = library_part(include_str!("../src/query.rs"));
    let scratch = query
        .split("struct DecodeScratch")
        .nth(1)
        .and_then(|rest| rest.split('}').next())
        .expect("DecodeScratch lives in query.rs");
    assert!(
        !scratch.contains("sums"),
        "DecodeScratch regains per-group sums; add varying members into the \
         output in MultiRefColumn::decode_into"
    );
    // The keep table's construction and its masked add, across the
    // library sources.
    let markers = ["-i64::from(", "& keep["];
    for marker in markers {
        let sites: Vec<String> = crate_sources()
            .iter()
            .filter(|(_, source)| library_part(source).contains(marker))
            .map(|(path, source)| {
                let n = library_part(source).matches(marker).count();
                format!("{} ({n})", path.file_name().unwrap().to_string_lossy())
            })
            .collect();
        assert_eq!(
            sites,
            ["multiref.rs (1)"],
            "`{marker}` outside the one reconstruction kernel"
        );
    }
}

/// The argument list of the call whose name starts at `at`: the text
/// between its opening parenthesis and the one that closes it.
fn call_arguments(source: &str, at: usize) -> &str {
    let open = at + source[at..].find('(').unwrap_or(0);
    let mut depth = 0;
    for (i, c) in source[open..].char_indices() {
        match c {
            '(' => depth += 1,
            ')' if depth == 1 => return &source[open + 1..open + i],
            ')' => depth -= 1,
            _ => {}
        }
    }
    &source[open..]
}

#[test]
fn hier_addresses_come_from_one_batched_stream() {
    // Alg. 1 over a whole block is one loop (`hier::for_each_address_chunk`):
    // it unpacks the child's group indexes and the parent's codes in step
    // and hands out `offsets[parent] + code` per chunk. Every whole-block
    // Hier kernel, integer or string, reads that stream; no chunk loop
    // fetches the parent's code one row at a time.
    let sources = [
        ("hier.rs", library_part(include_str!("../src/hier.rs"))),
        ("query.rs", library_part(include_str!("../src/query.rs"))),
    ];
    let mut address_loops = Vec::new();
    for (name, source) in sources {
        for (at, _) in source.match_indices(".unpack_chunks") {
            let body = call_arguments(source, at);
            for per_row in [".code(", ".address("] {
                assert!(
                    !body.contains(per_row),
                    "{name}: an unpack_chunks loop calls `{per_row}` per row; \
                     read the parent through hier::for_each_address_chunk:\n{body}"
                );
            }
            if body.contains("offsets[") {
                address_loops.push(name);
            }
        }
    }
    assert_eq!(
        address_loops,
        ["hier.rs"],
        "the Alg. 1 address loop over a whole block is written once"
    );
}

#[test]
fn pool_strings_are_validated_once() {
    // A string pool checks its heap and its offsets when it is read; `get`
    // is a slice, with no UTF-8 scan per call.
    let source = library_part(include_str!("../../columnar/src/strings.rs"));
    let read_from = source
        .split("pub fn read_from(")
        .nth(1)
        .and_then(|rest| rest.split("\n    }\n").next())
        .expect("StringPool::read_from lives in strings.rs");
    let everywhere = source.matches("from_utf8").count();
    assert!(
        read_from.contains("from_utf8"),
        "StringPool::read_from no longer checks the heap"
    );
    assert_eq!(
        everywhere,
        read_from.matches("from_utf8").count(),
        "strings.rs checks UTF-8 outside read_from; validate pools once, when read"
    );
}

#[test]
fn block_structure_is_checked_once_where_a_block_is_assembled() {
    // `format::check_column` holds every cross-column invariant a kernel
    // relies on, and runs where a block is assembled — over every column in
    // `CompressedBlock::from_parts`, and on a lazy handle's first load of a
    // column — so the resolutions and the store's loads do not re-check.
    // Each retired name comes with the files that may still hold it: the
    // re-check helpers only their home, and a table file's second parse
    // of its blocks — `read_block`'s envelope walk and the check memo it
    // needed — no file.
    let home = ["format.rs", "multiref.rs"];
    let retired: [(&str, &[&str]); 5] = [
        ("fn aligned(", &home),
        ("new_unchecked", &home),
        ("validate_groups(", &home),
        ("from_bytes_zoned", &[]),
        ("segment_checked", &[]),
    ];
    let mut callers = Vec::new();
    for (path, source) in crate_sources() {
        let name = path.file_name().unwrap().to_string_lossy().into_owned();
        let library = library_part(&source);
        if library.contains("check_column(") && name != "format.rs" {
            callers.push(name.clone());
        }
        for (copy, homes) in retired {
            assert!(
                homes.contains(&name.as_str()) || !library.contains(copy),
                "{} brings back `{copy}`; a block's structure is checked once, \
                 in format::check_column, under one memo per (block, column)",
                path.display()
            );
        }
    }
    callers.sort();
    assert_eq!(
        callers,
        ["compressor.rs", "store.rs"],
        "check_column runs where a block is assembled: from_parts and the \
         lazy handle's load"
    );
    // A table file has one index, its footer: the store parses every
    // column from a footer header and span and never walks a segment's
    // envelope (`TableReader::from_bytes` opens a file, and may stay).
    let store = library_part(include_str!("../src/store.rs"));
    for walk in ["CompressedBlock::from_bytes", "take_frame("] {
        assert!(
            !store.contains(walk),
            "store.rs parses a segment's envelope (`{walk}`); read each column \
             from its footer header and span"
        );
    }
    for (name, source) in [
        ("query.rs", library_part(include_str!("../src/query.rs"))),
        ("store.rs", store),
    ] {
        for check in ["LengthMismatch", "n_parents", "stores {} rows"] {
            assert!(
                !source.contains(check),
                "{name} re-checks structure (`{check}`); format::check_column \
                 already did"
            );
        }
    }
}

#[test]
fn selections_stay_bitmaps_until_a_caller_asks_for_positions() {
    // A filter kernel writes its compare bitmaps into the selection's words;
    // the one place a bitmap becomes a list of rows is
    // `SelectionVector::positions`.
    let mut emitters = Vec::new();
    for (path, source) in crate_sources() {
        let name = path.file_name().unwrap().to_string_lossy().into_owned();
        let library = library_part(&source);
        // simd.rs defines the kernel and dispatches it to its tiers.
        if name != "simd.rs" && library.contains("emit_positions(") {
            emitters.push(name.clone());
        }
        for (at, _) in library.match_indices("fn filter") {
            let args = call_arguments(library, at);
            assert!(
                !args.contains("Vec<u32>"),
                "{}: a filter kernel takes a list of positions; write the \
                 selection's bitmap instead:\n{args}",
                path.display()
            );
        }
    }
    assert_eq!(
        emitters,
        ["selection.rs"],
        "positions are expanded only by SelectionVector::positions"
    );
}
