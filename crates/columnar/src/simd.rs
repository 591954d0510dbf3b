//! Runtime-dispatched decode kernels: one body per kernel, compiled once
//! per tier.
//!
//! Three kernel families are dispatched:
//!
//! * **unpack** — fixed-width decode of `n` values into `u64`s;
//! * **unpack-add** — the fused FOR/FFOR/DFOR variant (`base + value` in
//!   the same pass, wrapping `i64` add);
//! * **range bitmap** — the fused decode-filter primitive: evaluate an
//!   inclusive `[lo, hi]` interval over a value slice and emit one
//!   selection bit per value.
//!   [`BitPackedVec::filter_range_into`](crate::bitpack::BitPackedVec::filter_range_into)
//!   combines it with
//!   chunked unpack so a cold scan is decode+filter in a single sweep that
//!   never materializes the column.
//!
//! plus [`emit_positions`], the one expansion of a selection into rows.
//!
//! # One body per kernel
//!
//! Each kernel is written once, as a safe `#[inline(always)]` body: the
//! batched engine's `bitpack::unpack_all`, a compare that builds each
//! bitmap word in a register, and the bit-scan expansion. `kernel_table!`
//! builds every tier's [`KernelTable`] from those bodies. The scalar tier
//! calls them as they are, compiled for the baseline target (SSE2 on
//! x86-64, which has no per-lane variable shift). The AVX2 tier calls the
//! same bodies through wrappers compiled under
//! `#[target_feature(enable = "avx2,bmi1,popcnt")]`, so LLVM vectorizes
//! them with AVX2 and the bit scans use `popcnt` / `tzcnt`.
//!
//! `emit_positions` is the one exception to the shared feature set: its
//! AVX2 entry compiles with BMI1 and POPCNT only, because under AVX2 the
//! SLP vectorizer packs its eight position stores into a `vpinsrd` chain
//! (measured 1.3× slower at 97 % density).
//!
//! Hand-written AVX2 intrinsics remain only in the unpack kernels, at the
//! widths where they beat the same body compiled under AVX2 by at least
//! 1.1× — the median of 15 per-pair ratios, the `kernel_gates` way, in at
//! least one of four cells (4 096 / 16 384 values; output 64-byte aligned,
//! as `ChunkBuf` gives every chunked decode, or 16 bytes off, as the heap
//! gives a large `Vec`), on a 2-vCPU AVX2 Xeon. The best cell per kernel:
//!
//! | widths | intrinsic body | `unpack` | `unpack_add` |
//! |---|---|---:|---:|
//! | 6, 10, 12, 14 | memory-source `vpbroadcastq` + constant `vpsrlvq` | 1.21–1.64× | 1.31–1.70× |
//! | 8, 16 | `vpmovzx` widening loads, unrolled 4× | 1.27×, 1.65× | 1.83×, 1.46× |
//! | 24 | `pshufb` byte-triple gather + `vpmovzxdq` | 1.93× | 1.72× |
//! | 32 | `vpmovzxdq`, `unpack_add` only | (1.02×) | 2.09× |
//!
//! Every other width, and `unpack` at 32, runs the body. The full
//! per-cell table, and the body against the scalar tier at every width,
//! are in `docs/PERF.md` ("The SIMD tier").
//!
//! # Tier selection
//!
//! [`active`] resolves the table on first use: AVX2 when
//! `is_x86_feature_detected!` reports AVX2, BMI1 and POPCNT, scalar
//! otherwise. The `CORRA_DECODE_KERNEL` environment variable (`scalar` |
//! `avx2` | `auto`) overrides detection for testing and reproduction;
//! forcing `avx2` on a machine without it falls back to scalar with a
//! warning rather than crashing. Every tier is bit-exact against the
//! scalar engine — the differential proptests in `proptest_simd_parity`
//! force both tiers on the same inputs for every width in `0..=64`.

use crate::bitpack::{self, UNPACK_CHUNK};
use crate::selection::SelectionVector;
use std::sync::OnceLock;

/// Which implementation tier a [`KernelTable`] was built from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KernelTier {
    /// Portable branch-free scalar kernels (always available).
    Scalar,
    /// x86-64 AVX2 kernels selected by runtime feature detection.
    Avx2,
}

impl KernelTier {
    /// Stable lowercase name, as printed in `e2e_bench`'s host header
    /// (`"kernel_tier": "avx2"`) and `kernel_gates`' first line.
    pub fn as_str(&self) -> &'static str {
        match self {
            KernelTier::Scalar => "scalar",
            KernelTier::Avx2 => "avx2",
        }
    }
}

/// A resolved set of decode kernels; see the [module docs](self).
///
/// All function pointers share the scalar engine's exact semantics:
/// `unpack`/`unpack_add` decode `out.len()` values from word-aligned
/// `words` (width `0..=64`, width 0 emits zeros / `base`), and the range
/// kernels set bit `j` of the bitmap iff value `j` lies in the inclusive
/// `[lo, hi]` interval (unsigned for the packed domain, signed for
/// materialized `i64` columns). The bitmap must hold `ceil(n / 64)` words,
/// which are fully overwritten.
pub struct KernelTable {
    /// The tier these kernels belong to.
    pub tier: KernelTier,
    /// `(bits, words, out)` — fixed-width decode of `out.len()` values.
    pub unpack: fn(u8, &[u64], &mut [u64]),
    /// `(bits, words, base, out)` — fused FOR decode: `base.wrapping_add(v)`.
    pub unpack_add: fn(u8, &[u64], i64, &mut [i64]),
    /// `(vals, lo, hi, bitmap)` — unsigned inclusive-range selection bits.
    pub range_bitmap_u64: fn(&[u64], u64, u64, &mut [u64]),
    /// `(vals, lo, hi, bitmap)` — signed inclusive-range selection bits.
    pub range_bitmap_i64: fn(&[i64], i64, i64, &mut [u64]),
    /// `(bitmap, first_row, out)` — selection bits to row positions; see
    /// [`emit_positions`].
    pub emit_positions: fn(&[u64], u32, &mut [u32]) -> usize,
}

// ---------------------------------------------------------------------------
// The kernel bodies: safe, written once, inlined into every tier.
// ---------------------------------------------------------------------------

mod body {
    use crate::bitpack;

    #[inline(always)]
    pub(super) fn unpack(bits: u8, words: &[u64], out: &mut [u64]) {
        bitpack::unpack_all(bits, words, out, |v| v);
    }

    #[inline(always)]
    pub(super) fn unpack_add(bits: u8, words: &[u64], base: i64, out: &mut [i64]) {
        bitpack::unpack_all(bits, words, out, |v| base.wrapping_add(v as i64));
    }

    /// One bitmap word per 64 values, built in a register: a fixed
    /// 64-value fold with no loop-carried store, which LLVM vectorizes on
    /// either tier (a read-modify-write of `bm` per value does not).
    #[inline(always)]
    pub(super) fn range_bitmap<T: Copy + PartialOrd>(vals: &[T], lo: T, hi: T, bm: &mut [u64]) {
        assert!(bm.len() >= vals.len().div_ceil(64), "bitmap too short");
        let word = |vs: &[T]| {
            vs.iter().enumerate().fold(0u64, |w, (k, &v)| {
                w | (u64::from((v >= lo) & (v <= hi)) << k)
            })
        };
        let words = vals.chunks_exact(64);
        let tail = words.remainder();
        for (w, vs) in bm.iter_mut().zip(words) {
            *w = word(vs);
        }
        if !tail.is_empty() {
            bm[vals.len() / 64] = word(tail);
        }
    }

    /// A word writes one position unconditionally, then eight at a time
    /// while set bits remain; past its set bits the slots hold garbage that
    /// the next word overwrites. A word of a sparse selection (a gather's
    /// 1 %: almost every word holds zero or one row) takes no
    /// data-dependent branch, and a dense one loops once per eight rows
    /// instead of once per row (the variants measured are in
    /// `docs/PERF.md`, "Selections are block bitmaps").
    #[inline(always)]
    pub(super) fn emit_positions(bm: &[u64], first_row: u32, out: &mut [u32]) -> usize {
        let mut n = 0;
        for (wi, &w) in bm.iter().enumerate() {
            let base = first_row.wrapping_add(wi as u32 * 64);
            let set = w.count_ones() as usize;
            let mut m = w;
            let mut emit = |slots: &mut [u32]| {
                for slot in slots {
                    // An exhausted word has 64 trailing zeros: a garbage slot.
                    *slot = base.wrapping_add(m.trailing_zeros());
                    m &= m.wrapping_sub(1);
                }
            };
            emit(&mut out[n..n + 1]);
            let mut at = n + 1;
            while at < n + set {
                emit(&mut out[at..at + 8]);
                at += 8;
            }
            n += set;
        }
        n
    }
}

/// Slots past its set bits that [`emit_positions`] may overwrite.
pub const EMIT_SLACK: usize = 8;

/// Builds a tier's [`KernelTable`] from the kernel bodies. Without target
/// features every entry calls its body as it is. With them, every entry is
/// a safe shim over an `unsafe fn` that compiles the body under those
/// features; the `unsafe fn` is needed because a safe `#[target_feature]`
/// function is newer than the workspace's minimum Rust (1.82).
macro_rules! kernel_table {
    (
        $tier:expr $(, $features:literal, $scan_features:literal)?;
        unpack: $unpack:path, unpack_add: $unpack_add:path
    ) => {{
        kernel_table!(@entry $($features)?;
            fn unpack(bits: u8, words: &[u64], out: &mut [u64]) = $unpack);
        kernel_table!(@entry $($features)?;
            fn unpack_add(bits: u8, words: &[u64], base: i64, out: &mut [i64]) = $unpack_add);
        kernel_table!(@entry $($features)?;
            fn range_bitmap_u64(vals: &[u64], lo: u64, hi: u64, bm: &mut [u64]) = body::range_bitmap);
        kernel_table!(@entry $($features)?;
            fn range_bitmap_i64(vals: &[i64], lo: i64, hi: i64, bm: &mut [u64]) = body::range_bitmap);
        kernel_table!(@entry $($scan_features)?;
            fn emit_positions(bm: &[u64], first_row: u32, out: &mut [u32]) -> usize = body::emit_positions);
        KernelTable {
            tier: $tier,
            unpack,
            unpack_add,
            range_bitmap_u64,
            range_bitmap_i64,
            emit_positions,
        }
    }};
    (@entry; fn $name:ident($($arg:ident: $ty:ty),*) $(-> $ret:ty)? = $body:path) => {
        fn $name($($arg: $ty),*) $(-> $ret)? {
            $body($($arg),*)
        }
    };
    (@entry $features:literal; fn $name:ident($($arg:ident: $ty:ty),*) $(-> $ret:ty)? = $body:path) => {
        fn $name($($arg: $ty),*) $(-> $ret)? {
            /// # Safety
            ///
            /// The CPU must support every feature this is compiled with.
            #[target_feature(enable = $features)]
            unsafe fn compiled($($arg: $ty),*) $(-> $ret)? {
                $body($($arg),*)
            }
            // SAFETY: a table built with target features is handed out only
            // after `avx2_detected` confirmed this CPU has every one of them
            // (`tiers`, `best` and `resolve` are its only readers).
            unsafe { compiled($($arg),*) }
        }
    };
}

/// The portable tier: the parity reference every tier is checked against.
static SCALAR: KernelTable =
    kernel_table!(KernelTier::Scalar; unpack: body::unpack, unpack_add: body::unpack_add);

/// The AVX2 tier: the same bodies compiled under AVX2, BMI1 and POPCNT,
/// with the intrinsic unpack bodies at the widths where they still win.
#[cfg(target_arch = "x86_64")]
static AVX2: KernelTable = kernel_table!(KernelTier::Avx2, "avx2,bmi1,popcnt", "bmi1,popcnt";
    unpack: avx2::unpack, unpack_add: avx2::unpack_add);

/// Whether this CPU runs the AVX2 tier: AVX2 for the decode and compare
/// kernels, BMI1 and POPCNT for `emit_positions`' bit scans (every AVX2
/// CPU shipped so far has both).
#[cfg(target_arch = "x86_64")]
fn avx2_detected() -> bool {
    std::arch::is_x86_feature_detected!("avx2")
        && std::arch::is_x86_feature_detected!("bmi1")
        && std::arch::is_x86_feature_detected!("popcnt")
}

// ---------------------------------------------------------------------------
// Dispatch.
// ---------------------------------------------------------------------------

/// The scalar kernel table — the parity reference every tier is checked
/// against, and the baseline the benches measure SIMD speedups from.
pub fn scalar() -> &'static KernelTable {
    &SCALAR
}

/// Every kernel table usable on this machine (scalar first). Parity tests
/// and benches iterate this to cover each tier in the same process.
pub fn tiers() -> &'static [&'static KernelTable] {
    static TIERS: OnceLock<Vec<&'static KernelTable>> = OnceLock::new();
    TIERS.get_or_init(|| {
        #[allow(unused_mut)]
        let mut t: Vec<&'static KernelTable> = vec![&SCALAR];
        #[cfg(target_arch = "x86_64")]
        if avx2_detected() {
            t.push(&AVX2);
        }
        t
    })
}

fn best() -> &'static KernelTable {
    #[cfg(target_arch = "x86_64")]
    if avx2_detected() {
        return &AVX2;
    }
    &SCALAR
}

fn resolve() -> &'static KernelTable {
    match std::env::var("CORRA_DECODE_KERNEL") {
        Ok(v) => match v.as_str() {
            "scalar" => &SCALAR,
            "avx2" => {
                #[cfg(target_arch = "x86_64")]
                if avx2_detected() {
                    return &AVX2;
                }
                eprintln!(
                    "corra: CORRA_DECODE_KERNEL=avx2 requested but AVX2 is \
                     unavailable; falling back to scalar"
                );
                &SCALAR
            }
            "" | "auto" => best(),
            other => {
                eprintln!("corra: unknown CORRA_DECODE_KERNEL={other:?}; using auto detection");
                best()
            }
        },
        Err(_) => best(),
    }
}

/// The process-wide kernel table, resolved once on first use from runtime
/// feature detection and the `CORRA_DECODE_KERNEL` override.
pub fn active() -> &'static KernelTable {
    static ACTIVE: OnceLock<&'static KernelTable> = OnceLock::new();
    ACTIVE.get_or_init(resolve)
}

/// Expands a selection bitmap into row positions: writes
/// `first_row + 64 · w + j` for every set bit `j` of word `w`, ascending,
/// to the front of `out` and returns how many it wrote, through the
/// active tier. `out` must hold the set bits plus [`EMIT_SLACK`] slots,
/// which are left holding garbage. The one expansion of a selection into
/// rows ([`SelectionVector::positions`]).
///
/// # Panics
///
/// If `out` is shorter than that.
pub fn emit_positions(bm: &[u64], first_row: u32, out: &mut [u32]) -> usize {
    (active().emit_positions)(bm, first_row, out)
}

/// Fused range filter over a materialized `i64` slice: selects row
/// `first_row + j` of `out` for every value in (or, negated, outside) the
/// inclusive `[lo, hi]` interval, running the active tier's SIMD compare
/// in cache-sized strides. Used by the Plain and Delta filter kernels.
pub fn filter_i64_into(
    k: &KernelTable,
    values: &[i64],
    lo: i64,
    hi: i64,
    negate: bool,
    first_row: usize,
    out: &mut SelectionVector,
) {
    const STRIDE: usize = 4096;
    let mut bm = [0u64; STRIDE / 64];
    let mut start = 0usize;
    while start < values.len() {
        let n = (values.len() - start).min(STRIDE);
        let nw = n.div_ceil(64);
        (k.range_bitmap_i64)(&values[start..start + n], lo, hi, &mut bm[..nw]);
        out.write_bits(first_row + start, &bm[..nw], n, negate);
        start += n;
    }
}

/// Chunked fused decode+compare over a packed span: decodes
/// [`UNPACK_CHUNK`]-sized chunks with `k.unpack` and selects the matching
/// rows of `out` without ever materializing the span. `words` must start
/// word-aligned for value 0 and `lo <= hi`; the packed domain is unsigned.
/// Shared by
/// [`BitPackedVec::filter_range_into`](crate::bitpack::BitPackedVec::filter_range_into).
#[allow(clippy::too_many_arguments)] // one call site; a params struct would only obscure it
pub(crate) fn filter_packed_span(
    k: &KernelTable,
    bits: u8,
    words: &[u64],
    len: usize,
    lo: u64,
    hi: u64,
    negate: bool,
    out: &mut SelectionVector,
) {
    debug_assert!(bits >= 1 && lo <= hi);
    let mut buf = crate::bitpack::ChunkBuf::zeroed();
    let mut bm = [0u64; UNPACK_CHUNK / 64];
    let mut start = 0usize;
    while start < len {
        let n = (len - start).min(UNPACK_CHUNK);
        // Chunks are word-aligned: start * bits is a multiple of 64.
        let w0 = start * bits as usize / 64;
        (k.unpack)(bits, &words[w0..], &mut buf.0[..n]);
        let nw = n.div_ceil(64);
        (k.range_bitmap_u64)(&buf.0[..n], lo, hi, &mut bm[..nw]);
        out.write_bits(start, &bm[..nw], n, negate);
        start += n;
    }
}

#[cfg(target_arch = "x86_64")]
mod avx2 {
    //! The intrinsic unpack bodies, kept at the widths where they beat the
    //! body compiled under AVX2. Everything here is an `#[inline(always)]`
    //! `unsafe fn` that only the AVX2 table's target-feature wrappers call:
    //! inlined there, it inherits their feature set. Each requires AVX2 of
    //! its caller, and the pointer-taking ones the `out` / `words` extents
    //! that [`intrinsic`] documents.

    use super::bitpack;
    use core::arch::x86_64::*;

    /// See [`KernelTable::unpack`](super::KernelTable).
    ///
    /// # Safety
    ///
    /// The CPU must support AVX2.
    #[inline(always)]
    pub(super) unsafe fn unpack(bits: u8, words: &[u64], out: &mut [u64]) {
        if !intrinsic::<false>(bits, words, 0, out.as_mut_ptr(), out.len()) {
            super::body::unpack(bits, words, out);
        }
    }

    /// See [`KernelTable::unpack_add`](super::KernelTable).
    ///
    /// # Safety
    ///
    /// The CPU must support AVX2.
    #[inline(always)]
    pub(super) unsafe fn unpack_add(bits: u8, words: &[u64], base: i64, out: &mut [i64]) {
        let (p, n) = (out.as_mut_ptr() as *mut u64, out.len());
        if !intrinsic::<true>(bits, words, base, p, n) {
            super::body::unpack_add(bits, words, base, out);
        }
    }

    /// Decodes through the intrinsic body for `bits` (plus the optional
    /// fused add) if it has one, and returns whether it did.
    ///
    /// # Safety
    ///
    /// The CPU must support AVX2; `out` must hold `n` writable `u64`
    /// slots (an `i64` buffer reinterpreted bitwise when `ADD`), and
    /// `words` must cover `ceil(n * bits / 64)` words.
    #[inline(always)]
    unsafe fn intrinsic<const ADD: bool>(
        bits: u8,
        words: &[u64],
        base: i64,
        out: *mut u64,
        n: usize,
    ) -> bool {
        match bits {
            6 | 10 | 12 | 14 => unpack_even16::<ADD>(bits, words, base, out, n),
            8 => unpack_cvt::<8, ADD>(words, base, out, n),
            16 => unpack_cvt::<16, ADD>(words, base, out, n),
            24 => unpack_w24::<ADD>(words, base, out, n),
            32 if ADD => unpack_cvt::<32, ADD>(words, base, out, n),
            _ => return false,
        }
        true
    }

    /// Scalar remainder shared by every SIMD main loop: values `j0..n`
    /// through the same two-word core as the scalar engine.
    #[inline(always)]
    unsafe fn scalar_span<const ADD: bool>(
        bits: u8,
        words: &[u64],
        base: i64,
        out: *mut u64,
        j0: usize,
        n: usize,
    ) {
        let mask = bitpack::mask_for(bits);
        for j in j0..n {
            let v = bitpack::read_raw(words, bits, mask, j);
            *out.add(j) = if ADD {
                base.wrapping_add(v as i64) as u64
            } else {
                v
            };
        }
    }

    #[inline(always)]
    unsafe fn finish<const ADD: bool>(v: __m256i, basev: __m256i, out: *mut u64, j: usize) {
        let v = if ADD { _mm256_add_epi64(v, basev) } else { v };
        _mm256_storeu_si256(out.add(j) as *mut __m256i, v);
    }

    /// Even widths 6–14: four consecutive values span `4 * bits` bits — a
    /// whole number of bytes (`bits / 2` per value group) that fits one
    /// qword. So each group is one memory-source `vpbroadcastq` plus a
    /// *constant* `vpsrlvq` shift vector `{0, b, 2b, 3b}` and a mask: no
    /// shuffle-port micro-ops, no gathers, no cross-lane traffic. Unrolled
    /// 4× (16 values/iteration) to amortize loop overhead.
    #[inline(always)]
    unsafe fn unpack_even16<const ADD: bool>(
        bits: u8,
        words: &[u64],
        base: i64,
        out: *mut u64,
        n: usize,
    ) {
        debug_assert!((6..=14).contains(&bits) && bits % 2 == 0);
        let bytes = words.len() * 8;
        let p = words.as_ptr() as *const u8;
        let b = bits as i64;
        let stride = bits as usize / 2; // bytes per 4-value group
        let maskv = _mm256_set1_epi64x(bitpack::mask_for(bits) as i64);
        let basev = _mm256_set1_epi64x(base);
        let sh = _mm256_setr_epi64x(0, b, 2 * b, 3 * b);
        let mut j = 0usize;
        let mut off = 0usize;
        if bits <= 8 {
            // Eight values (8·b ≤ 64 bits) fit one qword: each broadcast
            // feeds two shift groups, halving the load traffic.
            let sh1 = _mm256_setr_epi64x(4 * b, 5 * b, 6 * b, 7 * b);
            while j + 16 <= n && off + 2 * stride + 8 <= bytes {
                for u in 0..2 {
                    let q = _mm256_broadcastq_epi64(_mm_loadl_epi64(
                        p.add(off + u * stride * 2) as *const __m128i
                    ));
                    let v0 = _mm256_and_si256(_mm256_srlv_epi64(q, sh), maskv);
                    finish::<ADD>(v0, basev, out, j + 8 * u);
                    let v1 = _mm256_and_si256(_mm256_srlv_epi64(q, sh1), maskv);
                    finish::<ADD>(v1, basev, out, j + 8 * u + 4);
                }
                j += 16;
                off += 4 * stride;
            }
        }
        // Each group's 8-byte load at `off + u * stride` stays in bounds.
        while j + 16 <= n && off + 3 * stride + 8 <= bytes {
            for u in 0..4 {
                let q = _mm256_broadcastq_epi64(_mm_loadl_epi64(
                    p.add(off + u * stride) as *const __m128i
                ));
                let v = _mm256_and_si256(_mm256_srlv_epi64(q, sh), maskv);
                finish::<ADD>(v, basev, out, j + 4 * u);
            }
            j += 16;
            off += 4 * stride;
        }
        while j + 4 <= n && off + 8 <= bytes {
            let q = _mm256_broadcastq_epi64(_mm_loadl_epi64(p.add(off) as *const __m128i));
            let v = _mm256_and_si256(_mm256_srlv_epi64(q, sh), maskv);
            finish::<ADD>(v, basev, out, j);
            j += 4;
            off += stride;
        }
        scalar_span::<ADD>(bits, words, base, out, j, n);
    }

    /// Width 24: every value is byte-aligned at a 3-byte stride, so
    /// `pshufb` gathers four values' byte triples into zero-extended dword
    /// lanes (the index high bit zeroes the fourth byte) and `vpmovzxdq`
    /// widens them — no mask needed.
    #[inline(always)]
    unsafe fn unpack_w24<const ADD: bool>(words: &[u64], base: i64, out: *mut u64, n: usize) {
        let bytes = words.len() * 8;
        let p = words.as_ptr() as *const u8;
        let basev = _mm256_set1_epi64x(base);
        let zero = -128i8; // 0x80: pshufb writes a zero byte
        let idx = _mm_setr_epi8(0, 1, 2, zero, 3, 4, 5, zero, 6, 7, 8, zero, 9, 10, 11, zero);
        let mut j = 0usize;
        // Group j..j+4 starts at byte 3j and loads 16 bytes.
        while j + 4 <= n && 3 * j + 16 <= bytes {
            let x = _mm_loadu_si128(p.add(3 * j) as *const __m128i);
            finish::<ADD>(
                _mm256_cvtepu32_epi64(_mm_shuffle_epi8(x, idx)),
                basev,
                out,
                j,
            );
            j += 4;
        }
        scalar_span::<ADD>(24, words, base, out, j, n);
    }

    /// Byte-dividing widths 8 / 16 / 32: `vpmovzx` widening loads, three
    /// micro-ops per four values (load, zero-extend, store), unrolled 4×.
    /// Packed words are padded to a whole word, so every load through
    /// `j + 4 <= n` stays inside the buffer.
    #[inline(always)]
    unsafe fn unpack_cvt<const W: u8, const ADD: bool>(
        words: &[u64],
        base: i64,
        out: *mut u64,
        n: usize,
    ) {
        let p = words.as_ptr() as *const u8;
        let basev = _mm256_set1_epi64x(base);
        #[inline(always)]
        unsafe fn group<const W: u8>(p: *const u8, j: usize) -> __m256i {
            match W {
                8 => _mm256_cvtepu8_epi64(_mm_cvtsi32_si128(
                    (p.add(j) as *const i32).read_unaligned(),
                )),
                16 => _mm256_cvtepu16_epi64(_mm_loadl_epi64(p.add(2 * j) as *const __m128i)),
                _ => _mm256_cvtepu32_epi64(_mm_loadu_si128(p.add(4 * j) as *const __m128i)),
            }
        }
        let mut j = 0usize;
        while j + 16 <= n {
            for u in 0..4 {
                finish::<ADD>(group::<W>(p, j + 4 * u), basev, out, j + 4 * u);
            }
            j += 16;
        }
        while j + 4 <= n {
            finish::<ADD>(group::<W>(p, j), basev, out, j);
            j += 4;
        }
        scalar_span::<ADD>(W, words, base, out, j, n);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tier_names() {
        assert_eq!(KernelTier::Scalar.as_str(), "scalar");
        assert_eq!(KernelTier::Avx2.as_str(), "avx2");
    }

    #[test]
    fn scalar_tier_always_listed_first() {
        let t = tiers();
        assert_eq!(t[0].tier, KernelTier::Scalar);
        assert!(t.len() <= 2);
    }

    #[test]
    fn emit_positions_expands_set_bits_in_order() {
        for k in tiers() {
            let mut out = [0u32; 64 + 1 + EMIT_SLACK];
            let n = (k.emit_positions)(&[0b1011, 0, 1 << 63], 10, &mut out);
            assert_eq!(out[..n], [10, 11, 13, 201], "{}", k.tier.as_str());
            assert_eq!((k.emit_positions)(&[], 0, &mut out[..0]), 0);
            assert_eq!((k.emit_positions)(&[0], 0, &mut out[..EMIT_SLACK]), 0);
            // A word past four set bits, then a sparse one.
            let n = (k.emit_positions)(&[u64::MAX, 1 << 5], 0, &mut out);
            let want: Vec<u32> = (0..64).chain([69]).collect();
            assert_eq!(out[..n], want[..], "{}", k.tier.as_str());
        }
    }

    #[test]
    fn range_bitmap_scalar_tail_words() {
        for k in tiers() {
            let vals: Vec<u64> = (0..130).collect();
            let mut bm = vec![0u64; 3];
            (k.range_bitmap_u64)(&vals, 5, 10, &mut bm);
            let mut got = vec![0; vals.len() + EMIT_SLACK];
            let n = emit_positions(&bm, 0, &mut got);
            assert_eq!(got[..n], [5, 6, 7, 8, 9, 10], "{}", k.tier.as_str());
            // Signed compare crosses zero correctly.
            let svals: Vec<i64> = (-70..70).collect();
            let mut bm = vec![0u64; 3];
            (k.range_bitmap_i64)(&svals, -2, 1, &mut bm);
            let mut got = vec![0; svals.len() + EMIT_SLACK];
            let n = emit_positions(&bm, 0, &mut got);
            assert_eq!(got[..n], [68, 69, 70, 71], "{}", k.tier.as_str());
        }
        // Every word shape the register-built compare sees — none, one
        // partial, exactly full, full plus a partial — with values and
        // bounds at the domain edges, against a per-value oracle. The
        // bitmap starts all ones: every word, tail included, is overwritten.
        let oracle = |hits: Vec<bool>| {
            let mut bm = vec![0u64; hits.len().div_ceil(64)];
            for (j, hit) in hits.into_iter().enumerate() {
                bm[j / 64] |= u64::from(hit) << (j % 64);
            }
            bm
        };
        for k in tiers() {
            for len in [0usize, 1, 63, 64, 65, 128] {
                let svals: Vec<i64> = (0..len as i64)
                    .map(|i| match i % 6 {
                        0 => i64::MIN,
                        1 => i64::MAX,
                        2 => -1,
                        3 => -i,
                        4 => i,
                        _ => 0,
                    })
                    .collect();
                let uvals: Vec<u64> = svals.iter().map(|&v| v as u64).collect();
                let at = |what: String| format!("{} len {len} {what}", k.tier.as_str());
                for (lo, hi) in [
                    (i64::MIN, i64::MAX),
                    (i64::MIN, i64::MIN),
                    (i64::MAX, i64::MAX),
                    (i64::MIN, -1),
                    (-3, 3),
                    (0, i64::MAX),
                ] {
                    let mut bm = vec![u64::MAX; len.div_ceil(64)];
                    (k.range_bitmap_i64)(&svals, lo, hi, &mut bm);
                    let want = oracle(svals.iter().map(|&v| lo <= v && v <= hi).collect());
                    assert_eq!(bm, want, "{}", at(format!("i64 [{lo}, {hi}]")));
                }
                for (lo, hi) in [
                    (0, u64::MAX),
                    (u64::MAX, u64::MAX),
                    (0, 0),
                    (i64::MAX as u64, u64::MAX),
                    (1 << 63, u64::MAX - 1),
                ] {
                    let mut bm = vec![u64::MAX; len.div_ceil(64)];
                    (k.range_bitmap_u64)(&uvals, lo, hi, &mut bm);
                    let want = oracle(uvals.iter().map(|&v| lo <= v && v <= hi).collect());
                    assert_eq!(bm, want, "{}", at(format!("u64 [{lo}, {hi}]")));
                }
            }
        }
    }
}
