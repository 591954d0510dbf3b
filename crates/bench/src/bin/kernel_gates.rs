//! **Kernel gates** — the seven timing-*ratio* properties that need a clock.
//! Everything else the retired bench bins asserted is a tier-1 test (see
//! the gate → test table in `docs/TESTING.md`); throughput *series* live in
//! `e2e_bench`'s per-layer metrics. On the acceptance widths 8 / 12 / 16:
//!
//! * batched unpack ≥ [`MIN_BATCHED`]× the per-value getter loop;
//! * the active SIMD tier ≥ [`MIN_SIMD`]× the batched-scalar engine;
//! * fused decode+filter ≥ [`MIN_FUSED`]× unpack-then-compare;
//!
//! every width in [`SWEPT_WIDTHS`] decodes within [`MAX_WIDTH_SPREAD`]× of
//! the fastest width on the active tier — a width whose tile loop stops
//! unrolling reads 5–8× and fails, on either tier;
//! the RLE / Dict `sum_wrapping` overrides ≥ [`MIN_AGG`]× the trait's
//! provided chunk-stream body;
//! the store's `checksum64` ≥ [`MIN_CHECKSUM`]× a `copy_from_slice` of
//! the same [`CHECKSUM_BYTES`] buffer — integrity at memory speed, so a
//! slide back to a byte-at-a-time hash (≈ 0.06×) fails on every tier; and
//! the provided `top_k_into` (compare a strip against the hoisted k-th
//! rank, enter the heap on a hit) ≥ [`MIN_TOPK`]× one `offer` per row over
//! the same decoded chunks, on a column every row of which the heap
//! rejects — what a TOP-K pays on every block its zone could not skip. Each
//! kernel gate first asserts parity of its two legs; every gate times them
//! alternately [`PAIRS`] times and compares the *median of the per-pair
//! ratios* with its threshold, so drift that hits both legs of a pair
//! cancels. The two SIMD gates bind only when a SIMD tier resolved; under
//! `CORRA_DECODE_KERNEL=scalar` (or on a host without AVX2) they print as
//! skipped. Exit code 1 when a binding gate fails. No flags.
//!
//! Both tiers run the same kernel bodies (see `corra_columnar::simd`): the
//! AVX2 tier compiles them under AVX2 and keeps hand-written intrinsic
//! unpack bodies only at widths 6–16 even and 24 (and 32 for the fused
//! FOR add). On that tier the active-tier gates at 8 / 12 / 16 time those
//! intrinsics against the scalar tier, the width sweep times the
//! AVX2-compiled body at every other width, and the fused gate times the
//! AVX2-compiled compare, which builds each bitmap word in a register.
//!
//! ```sh
//! cargo run --release -p corra-bench --bin kernel_gates
//! CORRA_DECODE_KERNEL=scalar cargo run --release -p corra-bench --bin kernel_gates
//! ```

use std::hint::black_box;
use std::time::Instant;

use corra_columnar::bitpack::BitPackedVec;
use corra_columnar::selection::SelectionVector;
use corra_columnar::simd::{self, KernelTier};
use corra_columnar::topk::TopKHeap;
use corra_core::checksum64;
use corra_encodings::{wrapping_sum, DictInt, ForInt, IntAccess, RleInt};

/// Batched unpack vs one getter call per value.
const MIN_BATCHED: f64 = 2.0;
/// Active SIMD tier vs the batched-scalar engine.
const MIN_SIMD: f64 = 1.2;
/// Fused decode+filter vs unpack-then-compare. Below 1: at mid selectivity
/// both legs are dominated by the same position-emit loop, so the ratio
/// sits near its floor of 1 and the gate only catches the fused path
/// *losing*.
const MIN_FUSED: f64 = 0.95;
/// RLE / Dict `sum_wrapping` override vs the provided chunk-stream body
/// (measured ≈ 470× RLE, 1.13–1.15× Dict: the Dict body's lookup loop runs
/// 0.25 ms per 400 k rows against the histogram's 0.22).
const MIN_AGG: f64 = 1.05;

/// `checksum64` vs a plain copy of the same bytes (measured 1.1–1.2×).
const MIN_CHECKSUM: f64 = 0.5;

/// Threshold-first `top_k_into` vs decode + one `offer` per row (measured
/// 1.8–2.1×: the decode both legs share is two thirds of the fast one).
const MIN_TOPK: f64 = 1.5;

const GATED_WIDTHS: [u8; 3] = [8, 12, 16];
/// Widths the sweep gate times, one packed vector each.
const SWEPT_WIDTHS: std::ops::RangeInclusive<u8> = 1..=32;
/// Slowest swept width vs the fastest, ns per value (measured 2.0–2.2×
/// AVX2, 1.35–1.5× scalar; 8.5× / 6.4× while the tile loop stayed
/// rolled).
const MAX_WIDTH_SPREAD: f64 = 2.5;
/// Values per swept vector: 128 KB decoded, L2-resident. At [`VALUES`]
/// the AVX2 tier's byte-aligned kernels (widths 6–16 even, 24, 32) store at
/// L1 speed, 0.08–0.09 ns / value against the scalar tiles' 0.22–0.24, so
/// the spread there is L1 store bandwidth rather than a tile loop that
/// stopped unrolling.
const SWEEP_VALUES: usize = 16_384;
/// Values per packed vector: L1-resident, so the unpack gates measure the
/// kernels rather than the host's store bandwidth.
const VALUES: usize = 4_096;
/// Passes over the vector per timed unpack leg (~2 M values, far above
/// clock granularity).
const PASSES: usize = 512;
/// Rows behind each aggregate gate.
const AGG_ROWS: usize = 400_000;
/// Bytes behind the checksum gate: far above the last-level cache, so both
/// legs stream from memory.
const CHECKSUM_BYTES: usize = 64 << 20;
/// Timed (slow, fast) pairs per gate.
const PAIRS: usize = 15;

struct Gate {
    name: String,
    ratio: f64,
    min: f64,
    binding: bool,
}

/// Median over [`PAIRS`] rounds of `time(slow) / time(fast)`, a leg being
/// `passes` calls; each round times the two legs back to back, alternating
/// which one goes first.
fn median_ratio(passes: usize, mut slow: impl FnMut(), mut fast: impl FnMut()) -> f64 {
    let secs = |f: &mut dyn FnMut()| {
        let t = Instant::now();
        (0..passes).for_each(|_| f());
        t.elapsed().as_secs_f64()
    };
    let mut ratios: Vec<f64> = (0..PAIRS)
        .map(|round| {
            let (s, f) = if round % 2 == 0 {
                let s = secs(&mut slow);
                (s, secs(&mut fast))
            } else {
                let f = secs(&mut fast);
                (secs(&mut slow), f)
            };
            s / f.max(f64::MIN_POSITIVE)
        })
        .collect();
    ratios.sort_by(f64::total_cmp);
    ratios[PAIRS / 2]
}

/// The pre-batching decode loop: one getter call per element.
fn per_value_unpack(packed: &BitPackedVec, out: &mut Vec<u64>) {
    out.clear();
    for i in 0..packed.len() {
        out.push(packed.get_unchecked_len(i));
    }
}

/// Materialize through the active tier, then compare in a second pass
/// into a selection bitmap.
fn two_pass_filter(
    packed: &BitPackedVec,
    lo: u64,
    hi: u64,
    vals: &mut Vec<u64>,
    sel: &mut SelectionVector,
) {
    packed.unpack_into(vals);
    let words = vals
        .chunks(64)
        .map(|c| {
            c.iter()
                .rev()
                .fold(0, |w, &v| w << 1 | u64::from(v >= lo && v <= hi))
        })
        .collect();
    *sel = SelectionVector::from_words(words, vals.len());
}

/// `n` scrambled values filling `bits`, and their packed vector.
fn packed_width(bits: u8, n: usize) -> (Vec<u64>, BitPackedVec) {
    let mask = u64::MAX >> (64 - u32::from(bits));
    let values: Vec<u64> = (0..n as u64)
        .map(|i| i.wrapping_mul(0x9E37_79B9_7F4A_7C15) & mask)
        .collect();
    let packed = BitPackedVec::pack(&values, bits).expect("pack");
    (values, packed)
}

fn unpack_gates(bits: u8, simd_on: bool, gates: &mut Vec<Gate>) {
    let (values, packed) = packed_width(bits, VALUES);
    let mask = u64::MAX >> (64 - u32::from(bits));
    // Mid-selectivity interval inside the packed domain.
    let (lo, hi) = (mask / 4, mask / 2);

    let (mut a, mut b) = (Vec::new(), Vec::new());
    let (mut sel_a, mut sel_b) = (SelectionVector::empty(), SelectionVector::empty());
    // Parity first: a gate never times a wrong kernel.
    per_value_unpack(&packed, &mut a);
    assert_eq!(a, values, "{bits}-bit per-value decode diverged");
    packed.unpack_into(&mut b);
    assert_eq!(b, values, "{bits}-bit active-tier decode diverged");
    packed.unpack_into_with(simd::scalar(), &mut b);
    assert_eq!(b, values, "{bits}-bit batched-scalar decode diverged");
    packed.filter_range_into(lo, hi, false, &mut sel_a);
    two_pass_filter(&packed, lo, hi, &mut b, &mut sel_b);
    assert_eq!(sel_a, sel_b, "{bits}-bit fused filter diverged");
    assert!(!sel_a.is_empty() && sel_a.len() < VALUES);

    let batched = median_ratio(
        PASSES,
        || per_value_unpack(&packed, black_box(&mut a)),
        || packed.unpack_into(black_box(&mut b)),
    );
    let tiered = median_ratio(
        PASSES,
        || packed.unpack_into_with(simd::scalar(), black_box(&mut a)),
        || packed.unpack_into(black_box(&mut b)),
    );
    let fused = median_ratio(
        PASSES,
        || two_pass_filter(&packed, lo, hi, &mut b, black_box(&mut sel_b)),
        || packed.filter_range_into(lo, hi, false, black_box(&mut sel_a)),
    );
    for (what, ratio, min, binding) in [
        ("batched unpack / per-value", batched, MIN_BATCHED, true),
        ("active tier / batched scalar", tiered, MIN_SIMD, simd_on),
        ("fused filter / two-pass", fused, MIN_FUSED, simd_on),
    ] {
        gates.push(Gate {
            name: format!("{bits:>2}-bit {what}"),
            ratio,
            min,
            binding,
        });
    }
}

/// Every width in [`SWEPT_WIDTHS`] decoded through the active tier, timed
/// round-robin [`PAIRS`] times so host drift hits all widths alike; each
/// width's gate is the fastest width's median ns / value over its own.
fn width_sweep_gates(gates: &mut Vec<Gate>) {
    let vectors: Vec<(u8, BitPackedVec)> = SWEPT_WIDTHS
        .map(|bits| {
            let (values, packed) = packed_width(bits, SWEEP_VALUES);
            let mut out = Vec::new();
            packed.unpack_into(&mut out);
            assert_eq!(out, values, "{bits}-bit active-tier decode diverged");
            (bits, packed)
        })
        .collect();
    // As many values per timing as an unpack gate leg.
    let passes = PASSES * VALUES / SWEEP_VALUES;
    let mut out = Vec::new();
    let mut runs = vec![Vec::with_capacity(PAIRS); vectors.len()];
    for _ in 0..PAIRS {
        for ((_, packed), times) in vectors.iter().zip(&mut runs) {
            let t = Instant::now();
            (0..passes).for_each(|_| packed.unpack_into(black_box(&mut out)));
            times.push(t.elapsed().as_secs_f64() * 1e9 / (passes * SWEEP_VALUES) as f64);
        }
    }
    let ns: Vec<f64> = runs
        .iter_mut()
        .map(|times| {
            times.sort_by(f64::total_cmp);
            times[PAIRS / 2]
        })
        .collect();
    let fastest = ns.iter().copied().fold(f64::INFINITY, f64::min);
    for ((bits, _), t) in vectors.iter().zip(ns) {
        gates.push(Gate {
            name: format!("{bits:>2}-bit unpack {t:.3} ns/value: fastest / this"),
            ratio: fastest / t,
            min: 1.0 / MAX_WIDTH_SPREAD,
            binding: true,
        });
    }
}

/// A codec seen through its four required methods only, so
/// `sum_wrapping` runs the trait's provided chunk-stream body.
struct Provided<'a, E>(&'a E);

impl<E: IntAccess> IntAccess for Provided<'_, E> {
    fn len(&self) -> usize {
        self.0.len()
    }

    fn get(&self, i: usize) -> i64 {
        self.0.get(i)
    }

    fn compressed_bytes(&self) -> usize {
        self.0.compressed_bytes()
    }

    fn for_each_chunk(&self, f: &mut dyn FnMut(usize, &[i64])) {
        self.0.for_each_chunk(f)
    }
}

fn agg_gate(name: &str, enc: &impl IntAccess) -> Gate {
    let mut decoded = Vec::new();
    enc.decode_into(&mut decoded);
    let want = wrapping_sum(0, &decoded);
    let provided = Provided(enc);
    assert_eq!(enc.sum_wrapping(), want, "{name}: sum diverged");
    assert_eq!(
        provided.sum_wrapping(),
        want,
        "{name}: provided sum diverged"
    );
    let ratio = median_ratio(
        1,
        || {
            black_box(provided.sum_wrapping());
        },
        || {
            black_box(enc.sum_wrapping());
        },
    );
    Gate {
        name: format!("{name} sum_wrapping / provided body"),
        ratio,
        min: MIN_AGG,
        binding: true,
    }
}

fn checksum_gate() -> Gate {
    let src = vec![0xa5u8; CHECKSUM_BYTES];
    let mut dst = vec![0u8; CHECKSUM_BYTES];
    let ratio = median_ratio(
        1,
        || black_box(&mut dst).copy_from_slice(black_box(&src)),
        || {
            black_box(checksum64(black_box(&src)));
        },
    );
    Gate {
        name: "checksum64 / copy_from_slice, 64 MiB".to_owned(),
        ratio,
        min: MIN_CHECKSUM,
        binding: true,
    }
}

fn topk_gate() -> Gate {
    const K: usize = 100;
    let values: Vec<i64> = (0..AGG_ROWS as u64)
        .map(|i| (i.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 52) as i64)
        .collect();
    let enc = ForInt::encode(&values);
    assert_eq!(enc.bits(), 12);
    let base = 1u64 << 32;
    let per_row = |heap: &mut TopKHeap| {
        enc.for_each_chunk(&mut |start, chunk| {
            for (j, &v) in chunk.iter().enumerate() {
                heap.offer(v, base + (start + j) as u64);
            }
        });
    };
    // Holding `held` rows of an earlier block that beat every value of
    // this one: at `K` of them the column loses every row.
    let heap = |held: usize| {
        let mut heap = TopKHeap::new(K, false);
        (0..held).for_each(|i| heap.offer(-1, i as u64));
        heap
    };
    for held in [0, K] {
        let (mut slow, mut fast) = (heap(held), heap(held));
        per_row(&mut slow);
        enc.top_k_into(base, &mut fast);
        assert_eq!(
            fast.into_sorted(),
            slow.into_sorted(),
            "top_k_into diverged"
        );
    }
    let (mut slow, mut fast) = (heap(K), heap(K));
    let ratio = median_ratio(
        1,
        || per_row(black_box(&mut slow)),
        || enc.top_k_into(base, black_box(&mut fast)),
    );
    Gate {
        name: "for/12-bit top_k_into / per-row offer".to_owned(),
        ratio,
        min: MIN_TOPK,
        binding: true,
    }
}

fn main() {
    let tier = simd::active().tier;
    let simd_on = tier != KernelTier::Scalar;
    println!(
        "kernel_gates: kernel={}, {PAIRS} alternating pairs per gate, median of per-pair ratios",
        tier.as_str()
    );
    let mut gates = Vec::new();
    for bits in GATED_WIDTHS {
        unpack_gates(bits, simd_on, &mut gates);
    }
    width_sweep_gates(&mut gates);
    // RLE territory: long runs, one product per run. Dict territory: few
    // distinct values, one count-weighted product per distinct value.
    let runs: Vec<i64> = (0..AGG_ROWS).map(|i| (i / 1_000) as i64).collect();
    gates.push(agg_gate("rle/runs1k", &RleInt::encode(&runs)));
    let few: Vec<i64> = (0..AGG_ROWS)
        .map(|i| (i % 16) as i64 * 1_000_000_007)
        .collect();
    gates.push(agg_gate("dict/16distinct", &DictInt::encode(&few)));
    gates.push(checksum_gate());
    gates.push(topk_gate());

    let mut failed = false;
    for g in &gates {
        let verdict = match (g.binding, g.ratio >= g.min) {
            (false, _) => "skipped (scalar tier)",
            (true, true) => "OK",
            (true, false) => "FAIL",
        };
        println!(
            "gate: {:<44} {:>7.2}x (>= {:.2}x) {verdict}",
            g.name, g.ratio, g.min
        );
        failed |= verdict == "FAIL";
    }
    if failed {
        eprintln!("kernel_gates: a ratio gate failed");
        std::process::exit(1);
    }
}
