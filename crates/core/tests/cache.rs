//! Integration coverage for the serving layer: cache-wrapped readers must
//! be byte-identical to uncached ones (including under eviction churn and
//! concurrent hammering), repeat traffic must get cheaper, faults must
//! never poison a cache entry, and `ServeSession` must return identical
//! results for any thread count.

mod common;

use std::sync::Arc;

use common::{mixed_block, one_segment, small_table};
use corra_core::cache::{CacheConfig, ShardedCache};
use corra_core::io::{FaultPlan, FaultyBackend, MemBackend};
use corra_core::store::{TableReader, TableWriter};
use corra_core::{AggExpr, CompressedBlock, Predicate, ServeRequest, ServeSession};

/// A wider table (3 blocks x 2000 rows) so byte savings are measurable.
fn wide_table() -> Vec<u8> {
    let mut writer = TableWriter::new(Vec::new()).unwrap();
    for salt in [0, 100_000, 200_000] {
        let (raw, cfg) = mixed_block(2_000, salt);
        writer
            .write_block(&CompressedBlock::compress(&raw, &cfg).unwrap())
            .unwrap();
    }
    writer.finish().unwrap()
}

/// The repeat-heavy mixed traffic the serve bench also uses.
fn mixed_requests(n_blocks: usize) -> Vec<ServeRequest> {
    let mut reqs = Vec::new();
    for round in 0..4 {
        for b in 0..n_blocks {
            reqs.push(ServeRequest::point(b, ["fee", "zip", "total"][round % 3]));
        }
        reqs.push(ServeRequest::Scan(Predicate::ge("l_shipdate", 8_100)));
        reqs.push(ServeRequest::Scan(Predicate::between("fee", 100, 104)));
        reqs.push(ServeRequest::Aggregate(AggExpr::sum("total")));
        reqs.push(ServeRequest::Aggregate(
            AggExpr::sum("zip").with_group_by("city"),
        ));
    }
    reqs
}

#[test]
fn cached_repeat_traffic_is_byte_identical_and_cheaper() {
    let bytes = wide_table();
    let oracle = one_segment(TableReader::from_bytes(bytes.clone()).unwrap());
    let cache = Arc::new(ShardedCache::new(CacheConfig::with_budget(64 << 20)));
    let reader = Arc::new(one_segment(
        TableReader::from_bytes(bytes)
            .unwrap()
            .with_cache(Arc::clone(&cache)),
    ));
    let session = ServeSession::new(Arc::clone(&reader));
    let requests = mixed_requests(reader.n_blocks());

    let cold = session.run(&requests, 1).unwrap();
    let warm = session.run(&requests, 1).unwrap();

    // Byte-identical to the uncached oracle, both passes.
    let oracle_outcome = ServeSession::new(Arc::new(oracle))
        .run(&requests, 1)
        .unwrap();
    assert_eq!(cold.results, oracle_outcome.results);
    assert_eq!(warm.results, oracle_outcome.results);

    // The warm pass touched the backend for nothing: every codec came out
    // of the cache, so its byte counter is strictly below the cold pass
    // (and zero).
    assert!(cold.stats.bytes_read > 0);
    assert_eq!(warm.stats.bytes_read, 0, "warm pass must be I/O-free");
    assert!(warm.stats.cache_hits > 0);
    assert_eq!(warm.stats.cache_misses, 0);

    // The repeat-heavy mix hits well past the CI gate's 0.5 floor.
    let stats = cache.stats();
    assert!(
        stats.hit_rate() >= 0.5,
        "hit rate {:.3} below floor ({stats:?})",
        stats.hit_rate()
    );
}

#[test]
fn serve_results_identical_for_every_thread_count() {
    let bytes = wide_table();
    let cache = Arc::new(ShardedCache::new(CacheConfig::with_budget(64 << 20)));
    let reader = Arc::new(one_segment(
        TableReader::from_bytes(bytes).unwrap().with_cache(cache),
    ));
    let session = ServeSession::new(Arc::clone(&reader));
    let requests = mixed_requests(reader.n_blocks());
    let want = session.run(&requests, 1).unwrap();
    assert_eq!(want.results.len(), requests.len());
    assert_eq!(want.latencies.len(), requests.len());
    for threads in 2..=8 {
        let got = session.run(&requests, threads).unwrap();
        assert_eq!(
            got.results, want.results,
            "thread count {threads} changed results"
        );
    }
}

#[test]
fn concurrent_stress_under_tiny_budget_matches_uncached_oracle() {
    let bytes = wide_table();
    let oracle = one_segment(TableReader::from_bytes(bytes.clone()).unwrap());

    // A budget sized to hold *some* entries but nowhere near all of them:
    // half of one block's segment, single shard — every worker's fill
    // shoves out someone else's entry, which is exactly the churn we want.
    let seg0 = oracle.segments()[0].footer().blocks[0].len;
    let cache = Arc::new(ShardedCache::new(CacheConfig {
        byte_budget: seg0 / 2,
        shards: 1,
    }));
    let reader = one_segment(
        TableReader::from_bytes(bytes)
            .unwrap()
            .with_cache(Arc::clone(&cache)),
    );

    // Uncached ground truth, computed once up front.
    let preds = [
        Predicate::ge("l_shipdate", 8_100),
        Predicate::between("fee", 100, 104),
        Predicate::between("l_shipdate", 108_000, 109_000),
    ];
    let exprs = [
        AggExpr::sum("total"),
        AggExpr::sum("zip").with_group_by("city"),
    ];
    let want_scans: Vec<_> = preds
        .iter()
        .map(|p| oracle.scan_blocks(p).unwrap().0)
        .collect();
    let want_aggs: Vec<_> = exprs
        .iter()
        .map(|e| oracle.aggregate(e).unwrap().0)
        .collect();
    let want_cols: Vec<_> = (0..oracle.n_blocks())
        .map(|b| oracle.read_column(b, "total").unwrap())
        .collect();

    std::thread::scope(|s| {
        for t in 0..8usize {
            let reader = &reader;
            let preds = &preds;
            let exprs = &exprs;
            let want_scans = &want_scans;
            let want_aggs = &want_aggs;
            let want_cols = &want_cols;
            s.spawn(move || {
                for i in 0..12 {
                    let p = (t + i) % preds.len();
                    assert_eq!(
                        reader.scan_blocks(&preds[p]).unwrap().0,
                        want_scans[p],
                        "thread {t} iter {i} scan diverged under eviction churn"
                    );
                    let e = (t + i) % exprs.len();
                    assert_eq!(
                        reader.aggregate(&exprs[e]).unwrap().0,
                        want_aggs[e],
                        "thread {t} iter {i} aggregate diverged"
                    );
                    let b = (t + i) % want_cols.len();
                    assert_eq!(
                        &reader.read_column(b, "total").unwrap(),
                        &want_cols[b],
                        "thread {t} iter {i} point read diverged"
                    );
                }
            });
        }
    });

    // The budget actually forced churn, and accounting stayed sane: the
    // resident total is within capacity (u64 counters would wrap loudly on
    // any negative-going bug, and the shard asserts budget >= used on
    // every insert in debug builds).
    let stats = cache.stats();
    assert!(
        stats.evictions > 0 || stats.oversize > 0,
        "tiny budget produced no churn: {stats:?}"
    );
    assert!(stats.bytes_cached <= cache.capacity());
    assert_eq!(cache.bytes_cached(), stats.bytes_cached);
}

#[test]
fn faulty_backend_stats_stay_visible_through_the_cache_layer() {
    // A shared Arc<FaultyBackend> keeps its injection counters observable
    // after the reader (and its cache) are layered on top: misses reach the
    // backend and tick the counters, hits never touch it.
    let (_, _, bytes) = small_table();
    let plan = FaultPlan::none(0xFEED).with_short_reads(0.5);
    let backend = Arc::new(FaultyBackend::new(MemBackend::new(bytes), plan));
    let cache = Arc::new(ShardedCache::new(CacheConfig::with_budget(64 << 20)));
    let reader = one_segment(
        TableReader::from_backend(Box::new(Arc::clone(&backend)))
            .unwrap()
            .with_cache(Arc::clone(&cache)),
    );

    let expr = AggExpr::sum("total").with_group_by("city");
    let (want, _) = reader.aggregate(&expr).unwrap();
    let after_cold = backend.stats();
    assert!(
        after_cold.short_reads > 0,
        "cold pass must reach the faulty backend: {after_cold:?}"
    );

    // Warm pass: answered wholly from cache — the backend sees zero new
    // reads, so every fault counter is frozen.
    let (got, stats) = reader.aggregate(&expr).unwrap();
    assert_eq!(got, want);
    assert_eq!(stats.bytes_read, 0);
    assert!(stats.cache_hits > 0);
    assert_eq!(backend.stats(), after_cold, "cache hit leaked to backend");
}

#[test]
fn hostile_fills_error_and_never_poison_the_cache() {
    // Every read is bit-flipped: each fill fails its checksum, surfaces as
    // Err, and must leave the cache empty — a poisoned entry served later
    // would be silent corruption.
    let (_, _, bytes) = small_table();
    let plan = FaultPlan::none(0xBAD).with_bit_flips(1.0);
    let backend = FaultyBackend::new(MemBackend::new(bytes), plan);
    let cache = Arc::new(ShardedCache::new(CacheConfig::with_budget(64 << 20)));
    if let Ok(reader) = TableReader::from_backend(Box::new(backend)) {
        let reader = one_segment(reader.with_cache(Arc::clone(&cache)));
        for b in 0..reader.n_blocks() {
            assert!(reader.read_block(b).is_err());
            assert!(reader.read_column(b, "total").is_err());
        }
        assert!(reader.aggregate(&AggExpr::sum("total")).is_err());
    }
    let stats = cache.stats();
    assert_eq!(stats.insertions, 0, "poisoned fill admitted: {stats:?}");
    assert_eq!(stats.bytes_cached, 0);
}
