//! Property-based tests for Corra's horizontal encodings: losslessness,
//! random-access consistency, serialization safety, and optimizer
//! invariants, over arbitrary data — including data with *no* correlation.

use corra_columnar::block::DataBlock;
use corra_columnar::column::{Column, DataType};
use corra_columnar::schema::{Field, Schema};
use corra_columnar::selection::SelectionVector;
use corra_core::{
    plan_window, Assignment, ColumnGraph, ColumnPlan, CompressedBlock, CompressionConfig, HierInt,
    MultiRefInt, NonHierInt, OutlierRegion,
};
use proptest::prelude::*;

proptest! {
    /// Non-hierarchical encoding is lossless for any pair of aligned
    /// columns, however uncorrelated.
    #[test]
    fn nonhier_lossless(
        pairs in prop::collection::vec((any::<i32>(), any::<i32>()), 0..300),
    ) {
        let target: Vec<i64> = pairs.iter().map(|&(t, _)| t as i64).collect();
        let reference: Vec<i64> = pairs.iter().map(|&(_, r)| r as i64).collect();
        let enc = NonHierInt::encode(&target, &reference).unwrap();
        let mut out = Vec::new();
        enc.decode_into(&reference, &mut out).unwrap();
        prop_assert_eq!(&out, &target);
        for (i, &t) in target.iter().enumerate() {
            prop_assert_eq!(enc.get(i, reference[i]), t);
        }
    }

    /// The cost model never produces a larger encoding than the no-outlier
    /// variant.
    #[test]
    fn nonhier_cost_model_never_hurts(
        base in -1_000i64..1_000,
        noise in prop::collection::vec(0i64..64, 1..300),
        spikes in prop::collection::vec((0usize..299, any::<i32>()), 0..5),
    ) {
        let reference: Vec<i64> = (0..noise.len()).map(|i| base + i as i64).collect();
        let mut target: Vec<i64> =
            reference.iter().zip(&noise).map(|(&r, &n)| r + n).collect();
        for &(pos, v) in &spikes {
            if pos < target.len() {
                target[pos] = v as i64;
            }
        }
        let smart = NonHierInt::encode(&target, &reference).unwrap();
        let naive = NonHierInt::encode_no_outliers(&target, &reference).unwrap();
        prop_assert!(smart.compressed_bytes() <= naive.compressed_bytes());
        let mut a = Vec::new();
        let mut b = Vec::new();
        smart.decode_into(&reference, &mut a).unwrap();
        naive.decode_into(&reference, &mut b).unwrap();
        prop_assert_eq!(a, b);
    }

    /// plan_window cost is exactly achieved by the encoder (payload bytes +
    /// outlier bytes).
    #[test]
    fn plan_window_cost_is_achieved(diffs in prop::collection::vec(-10_000i64..10_000, 1..200)) {
        let reference = vec![0i64; diffs.len()];
        let enc = NonHierInt::encode(&diffs, &reference).unwrap();
        let mut sorted = diffs.clone();
        sorted.sort_unstable();
        let plan = plan_window(&sorted);
        // compressed_bytes = 9 (base+width) + plan.cost by construction.
        prop_assert_eq!(enc.compressed_bytes(), plan.cost + 9);
        prop_assert_eq!(enc.outliers().len(), plan.outliers);
    }

    /// Hierarchical encoding is lossless for arbitrary parent/child pairs:
    /// Alg. 1 row by row, and the block decode (the batched address stream
    /// under a dictionary parent).
    #[test]
    fn hier_lossless(
        rows in prop::collection::vec((0u32..20, any::<i16>()), 0..400),
    ) {
        let parents: Vec<u32> = rows.iter().map(|&(p, _)| p).collect();
        let children: Vec<i64> = rows.iter().map(|&(_, c)| c as i64).collect();
        let enc = HierInt::encode(&children, &parents, 20).unwrap();
        for (i, &c) in children.iter().enumerate() {
            prop_assert_eq!(enc.get(i, parents[i]), c);
        }
        let block = DataBlock::new(
            Schema::new(vec![
                Field::new("p", DataType::Int64),
                Field::new("c", DataType::Int64),
            ])
            .unwrap(),
            vec![
                Column::Int64(parents.iter().map(|&p| i64::from(p)).collect()),
                Column::Int64(children.clone()),
            ],
        )
        .unwrap();
        let cfg = CompressionConfig::baseline()
            .with("p", ColumnPlan::Dict)
            .with("c", ColumnPlan::Hier { reference: "p".into() });
        let decoded = CompressedBlock::compress(&block, &cfg).unwrap().decompress("c").unwrap();
        prop_assert_eq!(decoded.as_i64().unwrap(), &children[..]);
    }

    /// Hierarchical bit width never exceeds the global-dictionary width.
    #[test]
    fn hier_width_bounded_by_global(
        rows in prop::collection::vec((0u32..16, 0i64..10_000), 1..400),
    ) {
        let parents: Vec<u32> = rows.iter().map(|&(p, _)| p).collect();
        let children: Vec<i64> = rows.iter().map(|&(_, c)| c).collect();
        let enc = HierInt::encode(&children, &parents, 16).unwrap();
        let global = corra_encodings::DictInt::encode(&children);
        prop_assert!(enc.bits() <= global.bits());
    }

    /// Multi-reference encoding is lossless for arbitrary targets — rows the
    /// formulas cannot explain land in the outlier region.
    #[test]
    fn multiref_lossless(
        cols in prop::collection::vec((0i64..100, 0i64..100, any::<i16>()), 1..200),
        use_junk in prop::collection::vec(any::<bool>(), 1..200),
    ) {
        let n = cols.len().min(use_junk.len());
        let a: Vec<i64> = cols[..n].iter().map(|&(x, _, _)| x).collect();
        let b: Vec<i64> = cols[..n].iter().map(|&(_, y, _)| y).collect();
        let target: Vec<i64> = (0..n)
            .map(|i| if use_junk[i] { cols[i].2 as i64 } else { a[i] + b[i] })
            .collect();
        let groups = vec![a.clone(), b.clone()];
        let enc = MultiRefInt::encode(&target, &groups, 2).unwrap();
        let mut out = Vec::new();
        enc.decode_into(&groups, &mut out).unwrap();
        prop_assert_eq!(&out, &target);
    }

    /// Outlier regions roundtrip and reject unsorted input.
    #[test]
    fn outlier_region_roundtrip(
        mut entries in prop::collection::vec((any::<u32>(), any::<i64>()), 0..100),
    ) {
        entries.sort_by_key(|&(i, _)| i);
        entries.dedup_by_key(|&mut (i, _)| i);
        let indices: Vec<u32> = entries.iter().map(|&(i, _)| i).collect();
        let values: Vec<i64> = entries.iter().map(|&(_, v)| v).collect();
        let region = OutlierRegion::from_sorted(indices, values).unwrap();
        let mut buf = Vec::new();
        region.write_to(&mut buf);
        let back = OutlierRegion::read_from(&mut buf.as_slice()).unwrap();
        prop_assert_eq!(back, region);
    }

    /// The greedy optimizer never chains diff encodings and never exceeds
    /// the all-vertical cost.
    #[test]
    fn optimizer_invariants(
        n in 2usize..6,
        seed_costs in prop::collection::vec(1usize..1_000, 36),
    ) {
        let names: Vec<String> = (0..n).map(|i| format!("c{i}")).collect();
        let self_cost: Vec<usize> = seed_costs[..n].to_vec();
        let mut edge_cost = vec![vec![None; n]; n];
        let mut k = n;
        for (t, row) in edge_cost.iter_mut().enumerate() {
            for (r, slot) in row.iter_mut().enumerate() {
                if t != r {
                    *slot = Some(seed_costs[k % seed_costs.len()]);
                    k += 1;
                }
            }
        }
        let g = ColumnGraph::from_costs(names, self_cost, edge_cost).unwrap();
        let a = g.greedy();
        for asn in &a {
            if let Assignment::DiffEncoded { reference } = asn {
                prop_assert!(matches!(a[*reference], Assignment::Vertical));
            }
        }
        let vertical = vec![Assignment::Vertical; n];
        prop_assert!(g.total_cost(&a) <= g.total_cost(&vertical));
    }

    /// Block compress → serialize → deserialize → decompress is the identity
    /// for a mixed Corra configuration over arbitrary correlated-ish data.
    #[test]
    fn block_end_to_end(
        rows in prop::collection::vec((0i64..500, 0i64..30, 0u32..5, any::<bool>()), 1..200),
    ) {
        let refv: Vec<i64> = rows.iter().map(|&(r, _, _, _)| r).collect();
        let target: Vec<i64> = rows.iter().map(|&(r, d, _, _)| r + d).collect();
        let parent: Vec<i64> = rows.iter().map(|&(_, _, p, _)| p as i64).collect();
        let child: Vec<i64> =
            rows.iter().map(|&(_, _, p, odd)| (p as i64) * 10 + odd as i64).collect();
        let block = DataBlock::new(
            Schema::new(vec![
                Field::new("ref", DataType::Int64),
                Field::new("tgt", DataType::Int64),
                Field::new("parent", DataType::Int64),
                Field::new("child", DataType::Int64),
            ])
            .unwrap(),
            vec![
                Column::Int64(refv),
                Column::Int64(target),
                Column::Int64(parent),
                Column::Int64(child),
            ],
        )
        .unwrap();
        let cfg = CompressionConfig::baseline()
            .with("tgt", ColumnPlan::NonHier { reference: "ref".into() })
            .with("child", ColumnPlan::Hier { reference: "parent".into() });
        let compressed = CompressedBlock::compress(&block, &cfg).unwrap();
        let back = CompressedBlock::from_bytes(&compressed.to_bytes().unwrap()).unwrap();
        for name in ["ref", "tgt", "parent", "child"] {
            prop_assert_eq!(&back.decompress(name).unwrap(), block.column(name).unwrap());
        }
    }

    /// Queries through the compressed block equal queries on raw data for
    /// arbitrary selections.
    #[test]
    fn query_equals_raw(
        rows in prop::collection::vec((0i64..500, 0i64..30), 1..300),
        raw_sel in prop::collection::vec(any::<u32>(), 0..60),
    ) {
        let refv: Vec<i64> = rows.iter().map(|&(r, _)| r).collect();
        let target: Vec<i64> = rows.iter().map(|&(r, d)| r + d).collect();
        let n = rows.len() as u32;
        let sel = SelectionVector::new(raw_sel.into_iter().map(|p| p % n).collect());
        let block = DataBlock::new(
            Schema::new(vec![
                Field::new("ref", DataType::Int64),
                Field::new("tgt", DataType::Int64),
            ])
            .unwrap(),
            vec![Column::Int64(refv), Column::Int64(target.clone())],
        )
        .unwrap();
        let cfg = CompressionConfig::baseline()
            .with("tgt", ColumnPlan::NonHier { reference: "ref".into() });
        let compressed = CompressedBlock::compress(&block, &cfg).unwrap();
        let got = corra_core::query_column(&compressed, "tgt", &sel).unwrap();
        let want: Vec<i64> = sel.positions().iter().map(|&p| target[p as usize]).collect();
        prop_assert_eq!(got.as_int().unwrap(), &want[..]);
    }

    /// Corrupted serialized blocks error rather than panic: flip any single
    /// byte and parsing must not crash (it may legitimately succeed if the
    /// flip lands in a value payload).
    #[test]
    fn corrupted_block_never_panics(
        flip_at in any::<prop::sample::Index>(),
        flip_bit in 0u8..8,
    ) {
        let refv: Vec<i64> = (0..50).collect();
        let target: Vec<i64> = refv.iter().map(|&r| r + (r % 7)).collect();
        let block = DataBlock::new(
            Schema::new(vec![
                Field::new("ref", DataType::Int64),
                Field::new("tgt", DataType::Int64),
            ])
            .unwrap(),
            vec![Column::Int64(refv), Column::Int64(target)],
        )
        .unwrap();
        let cfg = CompressionConfig::baseline()
            .with("tgt", ColumnPlan::NonHier { reference: "ref".into() });
        let mut bytes = CompressedBlock::compress(&block, &cfg)
            .unwrap()
            .to_bytes()
            .unwrap();
        let pos = flip_at.index(bytes.len());
        bytes[pos] ^= 1 << flip_bit;
        // Must not panic; Result either way is fine.
        let _ = CompressedBlock::from_bytes(&bytes);
    }
}
