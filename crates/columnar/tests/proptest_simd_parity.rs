//! Differential parity suite for the runtime-dispatched SIMD tier: every
//! kernel table usable on this machine (`simd::tiers()`, i.e. scalar plus
//! AVX2 when detected) is forced onto the same inputs and must be
//! bit-identical to the scalar engine — plain unpack, fused FOR add, and
//! the fused decode+compare — for every width in `0..=64`, at the chunk
//! boundary lengths 1023/1024/1025, on all-zeros/all-max payloads, and at
//! range boundaries. Failures name the width (and tier) that diverged.

use corra_columnar::bitpack::BitPackedVec;
use corra_columnar::selection::SelectionVector;
use corra_columnar::simd;
use proptest::prelude::*;

fn width_mask(bits: u8) -> u64 {
    if bits == 0 {
        0
    } else {
        u64::MAX >> (64 - bits as u32)
    }
}

/// Deterministic per-width payload mixing structure and noise.
fn payload(bits: u8, len: usize, seed: u64) -> Vec<u64> {
    let mask = width_mask(bits);
    (0..len as u64)
        .map(|i| (i ^ i.wrapping_mul(seed | 1).rotate_left(17)) & mask)
        .collect()
}

/// Reference filter: scalar per-element decode + compare.
fn naive_filter(values: &[u64], lo: u64, hi: u64, negate: bool) -> Vec<u32> {
    values
        .iter()
        .enumerate()
        .filter(|&(_, &v)| ((v >= lo) && (v <= hi)) != negate)
        .map(|(i, _)| i as u32)
        .collect()
}

/// Boundary-heavy interval set for a width: degenerate points, the full
/// domain, off-by-one edges around it, and an interior band.
fn boundary_ranges(bits: u8) -> Vec<(u64, u64)> {
    let max = width_mask(bits);
    let mut r = vec![
        (0, 0),
        (0, max),
        (max, max),
        (1, max.saturating_sub(1)),
        (max / 3, max / 2),
        (max / 2, max / 2),
    ];
    if max < u64::MAX {
        // Bounds beyond the packed domain must behave like clamped ones.
        r.push((0, max + 1));
        r.push((max + 1, u64::MAX));
    }
    r
}

#[test]
fn unpack_parity_every_width_all_tiers() {
    for k in simd::tiers() {
        let tier = k.tier.as_str();
        for bits in 0u8..=64 {
            for &len in &[1023usize, 1024, 1025] {
                for values in [
                    payload(bits, len, 0x9E3779B97F4A7C15),
                    vec![0u64; len],
                    vec![width_mask(bits); len],
                ] {
                    let packed = BitPackedVec::pack(&values, bits).unwrap();
                    let mut got = Vec::new();
                    packed.unpack_into_with(k, &mut got);
                    assert_eq!(got, values, "tier {tier} width {bits} len {len}");
                }
            }
        }
    }
}

#[test]
fn fused_add_parity_every_width_all_tiers() {
    for k in simd::tiers() {
        let tier = k.tier.as_str();
        for bits in 0u8..=64 {
            for &len in &[1023usize, 1024, 1025] {
                let values = payload(bits, len, 0xD1B54A32D192ED03);
                let packed = BitPackedVec::pack(&values, bits).unwrap();
                for base in [0i64, 1, -1, 8_035, i64::MIN, i64::MAX] {
                    let mut got = Vec::new();
                    packed.unpack_add_into_with(k, base, &mut got);
                    let want: Vec<i64> = values
                        .iter()
                        .map(|&v| base.wrapping_add(v as i64))
                        .collect();
                    assert_eq!(got, want, "tier {tier} width {bits} len {len} base {base}");
                }
            }
        }
    }
}

#[test]
fn fused_compare_boundary_parity_every_width_all_tiers() {
    for k in simd::tiers() {
        let tier = k.tier.as_str();
        for bits in 0u8..=64 {
            for &len in &[1023usize, 1025] {
                let values = payload(bits, len, 0x2545F4914F6CDD1D);
                let packed = BitPackedVec::pack(&values, bits).unwrap();
                for (lo, hi) in boundary_ranges(bits) {
                    for negate in [false, true] {
                        let mut got = SelectionVector::empty();
                        packed.filter_range_into_with(k, lo, hi, negate, &mut got);
                        let want = naive_filter(&values, lo, hi, negate);
                        assert_eq!(
                            got.positions(),
                            want,
                            "tier {tier} width {bits} len {len} range [{lo}, {hi}] negate {negate}"
                        );
                    }
                }
                // The empty interval matches nothing (everything negated).
                let mut got = SelectionVector::empty();
                packed.filter_range_into_with(k, 1, 0, false, &mut got);
                assert!(got.is_empty(), "tier {tier} width {bits}");
                packed.filter_range_into_with(k, 1, 0, true, &mut got);
                assert_eq!(got.len(), len, "tier {tier} width {bits}");
            }
        }
    }
}

#[test]
fn signed_slice_filter_parity_all_tiers() {
    let values: Vec<i64> = (0..2_600i64)
        .map(|i| {
            (i - 1_300)
                .wrapping_mul(0x9E37)
                .rotate_left((i % 13) as u32)
        })
        .chain([i64::MIN, i64::MAX, 0, -1, 1])
        .collect();
    for k in simd::tiers() {
        let tier = k.tier.as_str();
        for (lo, hi) in [
            (i64::MIN, i64::MAX),
            (i64::MIN, 0),
            (0, i64::MAX),
            (-5_000, 5_000),
            (i64::MAX, i64::MAX),
            (i64::MIN, i64::MIN),
        ] {
            for negate in [false, true] {
                let mut got = SelectionVector::none(7 + values.len());
                simd::filter_i64_into(k, &values, lo, hi, negate, 7, &mut got);
                let want: Vec<u32> = values
                    .iter()
                    .enumerate()
                    .filter(|&(_, &v)| ((v >= lo) && (v <= hi)) != negate)
                    .map(|(i, _)| 7 + i as u32)
                    .collect();
                assert_eq!(
                    got.positions(),
                    want,
                    "tier {tier} range [{lo}, {hi}] negate {negate}"
                );
            }
        }
    }
}

proptest! {
    /// Random payloads: every tier decodes and fuse-adds bit-identically.
    #[test]
    fn tiers_agree_on_random_inputs(
        bits in 0u8..=64,
        len in 0usize..2_200,
        base in any::<i64>(),
        seed in any::<u64>(),
    ) {
        let values = payload(bits, len, seed);
        let packed = BitPackedVec::pack(&values, bits).unwrap();
        let (mut su, mut sa) = (Vec::new(), Vec::new());
        packed.unpack_into_with(simd::scalar(), &mut su);
        packed.unpack_add_into_with(simd::scalar(), base, &mut sa);
        for k in simd::tiers() {
            let (mut u, mut a) = (Vec::new(), Vec::new());
            packed.unpack_into_with(k, &mut u);
            packed.unpack_add_into_with(k, base, &mut a);
            assert_eq!(&u, &su, "tier {} width {bits}", k.tier.as_str());
            assert_eq!(&a, &sa, "tier {} width {bits}", k.tier.as_str());
        }
    }

    /// Random ranges: the fused decode+compare agrees with naive filter on
    /// every tier.
    #[test]
    fn fused_compare_agrees_on_random_ranges(
        bits in 0u8..=64,
        len in 0usize..2_200,
        lo_seed in any::<u64>(),
        hi_seed in any::<u64>(),
        negate in any::<bool>(),
        seed in any::<u64>(),
    ) {
        let mask = width_mask(bits);
        // Bias bounds into the packed domain so ranges actually split rows.
        let lo = lo_seed & mask;
        let hi = hi_seed & mask;
        let values = payload(bits, len, seed);
        let packed = BitPackedVec::pack(&values, bits).unwrap();
        let want = naive_filter(&values, lo, hi, negate);
        for k in simd::tiers() {
            let mut got = SelectionVector::empty();
            packed.filter_range_into_with(k, lo, hi, negate, &mut got);
            assert_eq!(&got.positions(), &want, "tier {} width {bits}", k.tier.as_str());
        }
    }
}
