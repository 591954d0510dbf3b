//! Fixed-width bit-packing with O(1) random access and batched decode.
//!
//! [`BitPackedVec`] stores unsigned integers using a fixed bit width in
//! `0..=64`. This is the workhorse of every encoding scheme in Corra:
//! FOR, Dict codes, hierarchical per-group indexes, and multi-reference
//! 2-bit formula codes are all backed by it.
//!
//! Values are packed little-endian into `u64` words. A single logical value
//! may straddle a word boundary, in which case `get` reads two words. Width 0
//! is the degenerate constant-zero column and occupies no payload at all,
//! which makes constant columns (after FOR) free.
//!
//! # Batched decode engine
//!
//! Bulk decompression goes through width-specialized kernels rather than
//! the scalar getter. A const-generic kernel is monomorphized for every
//! width in `1..=64` (the `width_specialized!` dispatch) and decodes
//! fixed [`UNPACK_CHUNK`]-value chunks: `1024 · bits` is a multiple of 64
//! for every width, so chunks always begin on a word boundary and the
//! kernel sees only whole words. Widths dividing 64 decode each word with
//! constant shifts; straddling widths decode FastLanes-style tiles of up to
//! 64 values. Both loops are written out in full, so every shift, word
//! index and straddle test is a constant at every width — there are no
//! branches, and `kernel_gates` holds every width 1–32 within 2.5× of the
//! fastest on each tier (the sweep is in `docs/PERF.md`). The
//! kernels take a value transform, which gives FOR-family codecs a fused
//! [`unpack_add_into`](BitPackedVec::unpack_add_into) (offset → `i64` in
//! one pass, no second add pass) and every table-driven codec a streaming
//! [`unpack_chunks`](BitPackedVec::unpack_chunks) visitor.
//!
//! # SIMD tier
//!
//! `unpack_into`, `unpack_add_into`, `unpack_chunks` and the fused
//! [`filter_range_into`](BitPackedVec::filter_range_into) all route
//! through a process-wide table of kernel function pointers resolved once
//! from CPU feature detection (see [`crate::simd`]; `CORRA_DECODE_KERNEL`
//! overrides it). Every tier runs this engine: the scalar tier as it is
//! compiled here, the AVX2 tier the same code compiled under
//! `#[target_feature(enable = "avx2,bmi1,popcnt")]`, with hand-written
//! intrinsics kept only at the byte-group widths where they measured
//! ≥ 1.1× faster. The `*_with` variants take an explicit
//! [`simd::KernelTable`] so tests and benches can pin a tier per call.

use crate::error::{Error, Result};
use crate::selection::SelectionVector;
use crate::simd::{self, KernelTable};
use bytes::{Buf, BufMut};

/// Number of values decoded per width-specialized chunk in bulk operations.
///
/// `UNPACK_CHUNK * bits` is divisible by 64 for every `bits` in `1..=64`,
/// so every chunk starts word-aligned — the property the batched kernels
/// are built on.
pub const UNPACK_CHUNK: usize = 1024;

/// Stack scratch for one decoded chunk, aligned to the cache line (and
/// therefore to the widest SIMD store). A plain `[u64; UNPACK_CHUNK]`
/// local inherits whatever alignment the call chain's frames happen to
/// produce; when it lands off a 32-byte boundary every AVX2 store into
/// it straddles a cache line and chunked decode loses ~40% throughput —
/// measurably, and dependent on unrelated code upstream in the binary.
#[repr(align(64))]
pub(crate) struct ChunkBuf(pub(crate) [u64; UNPACK_CHUNK]);

impl ChunkBuf {
    pub(crate) fn zeroed() -> Self {
        ChunkBuf([0u64; UNPACK_CHUNK])
    }
}

/// Minimal number of bits needed to represent `value` (0 for value 0).
#[inline]
pub fn bits_needed(value: u64) -> u8 {
    (64 - value.leading_zeros()) as u8
}

/// Minimal bit width that can represent every value in `values`.
///
/// Returns 0 for an empty slice or an all-zero slice.
pub fn width_for(values: &[u64]) -> u8 {
    let max = values.iter().copied().max().unwrap_or(0);
    bits_needed(max)
}

/// A vector of unsigned integers packed with a fixed bit width.
///
/// Supports O(1) `get`, bulk `unpack`, and selection-vector `gather`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BitPackedVec {
    bits: u8,
    len: usize,
    words: Vec<u64>,
}

impl BitPackedVec {
    /// Packs `values` with the given width. Every value must fit in `bits`.
    ///
    /// # Errors
    ///
    /// Returns [`Error::WidthOverflow`] if a value does not fit and
    /// [`Error::InvalidBitWidth`] if `bits > 64`.
    pub fn pack(values: &[u64], bits: u8) -> Result<Self> {
        if bits > 64 {
            return Err(Error::InvalidBitWidth(bits));
        }
        if bits == 0 {
            if let Some(&v) = values.iter().find(|&&v| v != 0) {
                return Err(Error::WidthOverflow { value: v, bits });
            }
            return Ok(Self {
                bits,
                len: values.len(),
                words: Vec::new(),
            });
        }
        let mask = mask_for(bits);
        let total_bits = (values.len() as u64) * bits as u64;
        let n_words = total_bits.div_ceil(64) as usize;
        let mut words = vec![0u64; n_words];
        let mut bit_pos = 0u64;
        for &v in values {
            if v & !mask != 0 {
                return Err(Error::WidthOverflow { value: v, bits });
            }
            let word = (bit_pos / 64) as usize;
            let offset = (bit_pos % 64) as u32;
            words[word] |= v << offset;
            let spill = offset as u64 + bits as u64;
            if spill > 64 {
                words[word + 1] |= v >> (64 - offset);
            }
            bit_pos += bits as u64;
        }
        Ok(Self {
            bits,
            len: values.len(),
            words,
        })
    }

    /// Packs `values` using the minimal width that fits them all.
    pub fn pack_minimal(values: &[u64]) -> Self {
        let bits = width_for(values);
        Self::pack(values, bits).expect("minimal width always fits")
    }

    /// The fixed bit width of each element.
    #[inline]
    pub fn bits(&self) -> u8 {
        self.bits
    }

    /// Number of logical elements.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the vector holds no elements.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Payload size in bytes (packed words only, excluding struct overhead).
    #[inline]
    pub fn payload_bytes(&self) -> usize {
        self.words.len() * 8
    }

    /// Size in bytes as accounted for compression-size experiments:
    /// `ceil(len * bits / 8)` — the tight packed size, matching how the
    /// paper reports column sizes (e.g. 12-bit dates at SF 10 = 90 MB).
    #[inline]
    pub fn tight_bytes(&self) -> usize {
        ((self.len as u64 * self.bits as u64).div_ceil(8)) as usize
    }

    /// Random access to element `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.len()`.
    #[inline]
    pub fn get(&self, i: usize) -> u64 {
        assert!(i < self.len, "index {i} out of bounds (len {})", self.len);
        self.get_unchecked_len(i)
    }

    /// Unchecked variant of [`get`](Self::get) used on hot query paths where
    /// the selection vector is already validated against the block length.
    ///
    /// # Safety-adjacent note
    ///
    /// This is still safe Rust (slice indexing panics on corruption), it only
    /// skips the explicit length assertion.
    #[inline]
    pub fn get_unchecked_len(&self, i: usize) -> u64 {
        if self.bits == 0 {
            return 0;
        }
        read_raw(&self.words, self.bits, mask_for(self.bits), i)
    }

    /// A reader with the per-width constants (mask) resolved once, for hot
    /// loops that index many positions: queries, gathers, parent-code
    /// lookups. Point accesses through [`PackedReader::get`] skip the
    /// per-call mask recomputation of [`get_unchecked_len`](Self::get_unchecked_len).
    #[inline]
    pub fn reader(&self) -> PackedReader<'_> {
        PackedReader {
            words: &self.words,
            bits: self.bits,
            mask: if self.bits == 0 {
                0
            } else {
                mask_for(self.bits)
            },
        }
    }

    /// Decodes the whole vector into `out` (cleared first) through the
    /// active SIMD/scalar kernel tier.
    pub fn unpack_into(&self, out: &mut Vec<u64>) {
        self.unpack_into_with(simd::active(), out);
    }

    /// [`unpack_into`](Self::unpack_into) with an explicit kernel table,
    /// for tier-parity tests and benches.
    pub fn unpack_into_with(&self, k: &KernelTable, out: &mut Vec<u64>) {
        // Resize only on length change: the kernel overwrites every slot, so
        // a reused buffer skips the O(len) zeroing pass `resize` would pay.
        if out.len() != self.len {
            out.clear();
            out.resize(self.len, 0);
        }
        (k.unpack)(self.bits, &self.words, &mut out[..]);
    }

    /// Fused FOR decode: writes `base.wrapping_add(value)` for every packed
    /// value into `out` (cleared first), in a single batched pass — the
    /// frame-of-reference add never runs as a separate pass over the output.
    pub fn unpack_add_into(&self, base: i64, out: &mut Vec<i64>) {
        self.unpack_add_into_with(simd::active(), base, out);
    }

    /// [`unpack_add_into`](Self::unpack_add_into) with an explicit kernel
    /// table, for tier-parity tests and benches.
    pub fn unpack_add_into_with(&self, k: &KernelTable, base: i64, out: &mut Vec<i64>) {
        // As in `unpack_into_with`: skip the zeroing pass on reused buffers.
        if out.len() != self.len {
            out.clear();
            out.resize(self.len, 0);
        }
        (k.unpack_add)(self.bits, &self.words, base, &mut out[..]);
    }

    /// Streams the vector through the batched kernels in
    /// [`UNPACK_CHUNK`]-sized chunks: `f(start, chunk)` receives the decoded
    /// values for rows `start..start + chunk.len()`.
    ///
    /// This is the bulk path for table-driven codecs (dict codes, formula
    /// codes, hierarchical group indexes): the chunk stays cache-hot while
    /// the caller maps it through its lookup structure. Chunk fills run on
    /// the active SIMD tier.
    ///
    /// `#[inline]` gives every codegen unit that calls it its own copy, so
    /// the caller's per-chunk loop is compiled into the caller wherever the
    /// partitioner puts it (otherwise whether the Hier kernels inline it
    /// depends on unrelated code elsewhere in the crate: ±25 % on
    /// `dmv_serve`'s Hier scan, TOP-K and decompress slots).
    #[inline]
    pub fn unpack_chunks(&self, mut f: impl FnMut(usize, &[u64])) {
        let k = simd::active();
        let mut buf = ChunkBuf::zeroed();
        let mut start = 0usize;
        while start < self.len {
            let n = (self.len - start).min(UNPACK_CHUNK);
            // Chunks are word-aligned: start * bits is a multiple of 64.
            let w0 = start * self.bits as usize / 64;
            (k.unpack)(self.bits, &self.words[w0..], &mut buf.0[..n]);
            f(start, &buf.0[..n]);
            start += n;
        }
    }

    /// [`unpack_chunks`](Self::unpack_chunks) over this vector and `other`
    /// (of the same length, else a panic) in step: `f(start, mine, theirs)`
    /// receives both vectors' values for rows `start..start + mine.len()`.
    #[inline]
    pub fn unpack_chunks_with(
        &self,
        other: &BitPackedVec,
        mut f: impl FnMut(usize, &[u64], &[u64]),
    ) {
        assert_eq!(self.len, other.len, "unpack_chunks_with: lengths differ");
        let k = simd::active();
        let mut theirs = ChunkBuf::zeroed();
        self.unpack_chunks(|start, mine| {
            let theirs = &mut theirs.0[..mine.len()];
            // Chunks are word-aligned: start * bits is a multiple of 64.
            let w0 = start * other.bits as usize / 64;
            (k.unpack)(other.bits, &other.words[w0..], theirs);
            f(start, mine, theirs);
        });
    }

    /// Whether every element is below `bound` — the range check of a
    /// code-indexed column at deserialization. Free when `bound >= 2^bits`
    /// (no packed value can reach it); otherwise one batched sweep comparing
    /// each chunk's maximum.
    pub fn all_below(&self, bound: u64) -> bool {
        if self.len == 0 || (self.bits < 64 && bound >> self.bits != 0) {
            return true;
        }
        let mut below = true;
        self.unpack_chunks(|_, chunk| {
            below &= chunk.iter().fold(0, |m, &c| m.max(c)) < bound;
        });
        below
    }

    /// Fused decode+filter: replaces `out` with the bitmap of every packed
    /// value inside (or, with `negate`, outside) the inclusive unsigned
    /// interval `[lo, hi]` — decode and compare run as one chunked sweep
    /// over the compressed words that never materializes the column, and
    /// each chunk's compare bitmap is written into `out` as it stands. This
    /// is the one-pass cold-scan primitive behind the FOR (offset-domain)
    /// and Dict (code-domain) filter kernels.
    ///
    /// `lo > hi` denotes the empty interval (matches nothing, or everything
    /// when negated).
    pub fn filter_range_into(&self, lo: u64, hi: u64, negate: bool, out: &mut SelectionVector) {
        self.filter_range_into_with(simd::active(), lo, hi, negate, out);
    }

    /// [`filter_range_into`](Self::filter_range_into) with an explicit
    /// kernel table, for tier-parity tests and benches.
    pub fn filter_range_into_with(
        &self,
        k: &KernelTable,
        lo: u64,
        hi: u64,
        negate: bool,
        out: &mut SelectionVector,
    ) {
        // Each early exit decides every row with one comparison: an empty
        // interval, a constant-zero column, or an interval covering the
        // whole packed domain (no decode needed).
        let every_row = if lo > hi {
            Some(negate)
        } else if self.bits == 0 {
            Some((lo == 0) != negate)
        } else if lo == 0 && hi >= mask_for(self.bits) {
            Some(!negate)
        } else {
            None
        };
        *out = match every_row {
            Some(every) => SelectionVector::all_or_none(self.len, every),
            None => {
                let mut sel = SelectionVector::none(self.len);
                simd::filter_packed_span(
                    k,
                    self.bits,
                    &self.words,
                    self.len,
                    lo,
                    hi,
                    negate,
                    &mut sel,
                );
                sel
            }
        };
    }

    /// Decodes the whole vector into a fresh `Vec`.
    pub fn unpack(&self) -> Vec<u64> {
        let mut out = Vec::new();
        self.unpack_into(&mut out);
        out
    }

    /// Gathers the values at `positions` into `out` (cleared first).
    ///
    /// Positions must be in-bounds; this is the materialization kernel used
    /// by the query-latency experiments. The width mask is resolved once,
    /// outside the loop.
    pub fn gather_into(&self, positions: &[u32], out: &mut Vec<u64>) {
        out.clear();
        out.reserve(positions.len());
        let r = self.reader();
        for &p in positions {
            let i = p as usize;
            assert!(i < self.len, "index {i} out of bounds (len {})", self.len);
            out.push(r.get(i));
        }
    }

    /// Serialized byte length (header + payload) of [`write_to`](Self::write_to).
    pub fn serialized_len(&self) -> usize {
        1 + 8 + 8 + self.words.len() * 8
    }

    /// Writes `bits (u8) | len (u64) | n_words (u64) | words` little-endian.
    pub fn write_to(&self, buf: &mut impl BufMut) {
        buf.put_u8(self.bits);
        buf.put_u64_le(self.len as u64);
        buf.put_u64_le(self.words.len() as u64);
        for &w in &self.words {
            buf.put_u64_le(w);
        }
    }

    /// Reads a vector previously written by [`write_to`](Self::write_to).
    ///
    /// # Errors
    ///
    /// Returns [`Error::Corrupt`] on truncated input or inconsistent header.
    pub fn read_from(buf: &mut impl Buf) -> Result<Self> {
        if buf.remaining() < 1 + 8 + 8 {
            return Err(Error::corrupt("bitpack header truncated"));
        }
        let bits = buf.get_u8();
        if bits > 64 {
            return Err(Error::InvalidBitWidth(bits));
        }
        let len_raw = buf.get_u64_le();
        let n_words = buf.get_u64_le() as usize;
        // Guard against hostile lengths before any arithmetic or allocation.
        let expected_words_wide = if bits == 0 {
            0u128
        } else {
            (len_raw as u128 * bits as u128).div_ceil(64)
        };
        if expected_words_wide > usize::MAX as u128 || n_words as u128 != expected_words_wide {
            return Err(Error::corrupt("bitpack word count mismatch"));
        }
        let len = len_raw as usize;
        if buf.remaining() < n_words.saturating_mul(8) {
            return Err(Error::corrupt("bitpack payload truncated"));
        }
        let mut words = Vec::with_capacity(n_words);
        for _ in 0..n_words {
            words.push(buf.get_u64_le());
        }
        Ok(Self { bits, len, words })
    }
}

#[inline]
pub(crate) fn mask_for(bits: u8) -> u64 {
    debug_assert!((1..=64).contains(&bits));
    if bits == 64 {
        u64::MAX
    } else {
        (1u64 << bits) - 1
    }
}

/// The shared point-access core behind [`BitPackedVec::get`],
/// [`BitPackedVec::get_unchecked_len`] and [`PackedReader::get`]: two word
/// reads, a shift and a mask. `bits` must be in `1..=64` and `mask` must be
/// `mask_for(bits)`.
#[inline(always)]
pub(crate) fn read_raw(words: &[u64], bits: u8, mask: u64, i: usize) -> u64 {
    let bit_pos = i as u64 * bits as u64;
    let word = (bit_pos / 64) as usize;
    let offset = (bit_pos % 64) as u32;
    let lo = words[word] >> offset;
    let spill = offset as u64 + bits as u64;
    if spill > 64 {
        let hi = words[word + 1] << (64 - offset);
        (lo | hi) & mask
    } else {
        lo & mask
    }
}

/// Borrowed view of a [`BitPackedVec`] with the width mask hoisted out of
/// the access path; see [`BitPackedVec::reader`].
#[derive(Debug, Clone, Copy)]
pub struct PackedReader<'a> {
    words: &'a [u64],
    bits: u8,
    mask: u64,
}

impl PackedReader<'_> {
    /// Reads element `i`. Like [`BitPackedVec::get_unchecked_len`], bounds
    /// are the caller's responsibility (slice indexing still panics rather
    /// than misbehaving on corruption).
    #[inline(always)]
    pub fn get(&self, i: usize) -> u64 {
        if self.bits == 0 {
            return 0;
        }
        read_raw(self.words, self.bits, self.mask, i)
    }
}

/// Runs `$body` once for every literal `$k` in `0..=63` below `$n`: a loop
/// written out in full, so inside each copy the index is a constant. LLVM
/// only unrolls a loop of up to about 16 iterations on its own; a 32- or
/// 64-iteration tile loop stays a loop, and every shift amount, word index
/// and straddle test in it is computed per value at run time.
macro_rules! unrolled_64 {
    ($n:expr, |$k:ident| $body:expr) => {
        unrolled_64!(@ $n, $k, $body;
            0 1 2 3 4 5 6 7 8 9 10 11 12 13 14 15
            16 17 18 19 20 21 22 23 24 25 26 27 28 29 30 31
            32 33 34 35 36 37 38 39 40 41 42 43 44 45 46 47
            48 49 50 51 52 53 54 55 56 57 58 59 60 61 62 63)
    };
    (@ $n:expr, $k:ident, $body:expr; $($i:literal)+) => {
        $( if $i < $n {
            let $k: usize = $i;
            $body;
        } )+
    };
}

/// Decodes one word-aligned [`UNPACK_CHUNK`]-value chunk with every shift
/// amount derived from the compile-time width.
///
/// Widths dividing 64 never straddle a word: each word is a fixed
/// shift-and-mask ladder with no branches. The remaining widths compute
/// each value's two-word window positionally — `value j` lives at bit
/// `j·BITS` — so there is no loop-carried accumulator dependency and no
/// per-element branch; the `<< 1 <<` double shift makes the high-word
/// contribution vanish when a value starts exactly on a word boundary.
/// Both per-word and per-tile loops are written out with [`unrolled_64!`],
/// so every decision folds to a constant at every width.
#[inline(always)]
fn unpack_chunk<const BITS: u32, T: Copy>(
    words: &[u64],
    out: &mut [T],
    f: impl Fn(u64) -> T + Copy,
) {
    debug_assert_eq!(out.len(), UNPACK_CHUNK);
    debug_assert_eq!(words.len(), UNPACK_CHUNK / 64 * BITS as usize);
    if BITS == 64 {
        for (o, &w) in out.iter_mut().zip(words) {
            *o = f(w);
        }
        return;
    }
    let mask = u64::MAX >> (64 - BITS);
    if 64 % BITS == 0 {
        let vpw = (64 / BITS) as usize;
        for (os, &w) in out.chunks_exact_mut(vpw).zip(words) {
            unrolled_64!(vpw, |k| os[k] = f((w >> (k as u32 * BITS)) & mask));
        }
    } else {
        // FastLanes-style tiles: the packing pattern repeats every
        // lcm(64, BITS) bits — `tw` words carrying `vpt` values — and a
        // tile boundary is always a value boundary (12-bit: 3 words → 16
        // values per tile; odd widths: `BITS` words → 64 values).
        let g = 1usize << (BITS.trailing_zeros().min(6));
        let tw = BITS as usize / g;
        let vpt = 64 / g;
        // Two phases per tile: the raw decode fills a register-friendly
        // stack buffer, then `f` maps it in a trivially vectorizable pass.
        let mut buf = [0u64; 64];
        // The window is indexed from the tile number, not zipped: inside
        // the AVX2 tier's wrapper LLVM left `Zip::new` un-inlined here,
        // the tile constants became run-time values and widths 25–31
        // decoded 3× slower than on the scalar tier.
        for (t, os) in out.chunks_exact_mut(vpt).enumerate() {
            let win = &words[t * tw..][..tw];
            unrolled_64!(vpt, |k| {
                let bit = k * BITS as usize;
                let lo = bit >> 6;
                let off = (bit & 63) as u32;
                // A straddling value's high word is always inside the
                // tile; otherwise the contribution is zero (and the
                // double shift keeps the off == 0 case in range).
                let hi = if lo + 1 < tw { win[lo + 1] } else { 0 };
                buf[k] = ((win[lo] >> off) | (hi << 1 << (63 - off))) & mask;
            });
            for (k, o) in os.iter_mut().enumerate() {
                *o = f(buf[k]);
            }
        }
    }
}

/// Decodes `out.len()` values from word-aligned `words`: full chunks go
/// through the specialized kernel, the sub-chunk tail through the scalar
/// core with the mask hoisted.
#[inline(always)]
fn unpack_span<const BITS: u32, T: Copy>(
    words: &[u64],
    out: &mut [T],
    f: impl Fn(u64) -> T + Copy,
) {
    let len = out.len();
    let words_per_chunk = UNPACK_CHUNK / 64 * BITS as usize;
    let full = len / UNPACK_CHUNK;
    for c in 0..full {
        unpack_chunk::<BITS, T>(
            &words[c * words_per_chunk..][..words_per_chunk],
            &mut out[c * UNPACK_CHUNK..][..UNPACK_CHUNK],
            f,
        );
    }
    let done = full * UNPACK_CHUNK;
    if done < len {
        let mask = u64::MAX >> (64 - BITS);
        for (j, o) in out.iter_mut().enumerate().skip(done) {
            *o = f(read_raw(words, BITS as u8, mask, j));
        }
    }
}

/// Monomorphizes [`unpack_span`] for every bit width in `1..=64` and
/// dispatches on the runtime width, so each kernel body sees its width as a
/// compile-time constant.
macro_rules! width_specialized {
    ($bits:expr, $words:expr, $out:expr, $f:expr; $($w:literal)+) => {
        match $bits {
            $( $w => unpack_span::<$w, _>($words, $out, $f), )+
            other => unreachable!("bit width {other} out of range"),
        }
    };
}

/// Batched decode entry point: `out` must already hold `len` slots; `f`
/// maps each packed value to the output type (identity, FOR add, …).
/// This is the one decode body of every [`crate::simd`] tier:
/// `#[inline(always)]`, so each tier's kernel compiles its own copy under
/// that tier's target features.
#[inline(always)]
pub(crate) fn unpack_all<T: Copy>(
    bits: u8,
    words: &[u64],
    out: &mut [T],
    f: impl Fn(u64) -> T + Copy,
) {
    if bits == 0 {
        out.fill(f(0));
        return;
    }
    width_specialized!(
        bits as u32, words, out, f;
        1 2 3 4 5 6 7 8 9 10 11 12 13 14 15 16
        17 18 19 20 21 22 23 24 25 26 27 28 29 30 31 32
        33 34 35 36 37 38 39 40 41 42 43 44 45 46 47 48
        49 50 51 52 53 54 55 56 57 58 59 60 61 62 63 64
    );
}

/// Zig-zag encodes a signed value so small-magnitude negatives pack tightly.
#[inline]
pub fn zigzag_encode(v: i64) -> u64 {
    ((v << 1) ^ (v >> 63)) as u64
}

/// Inverse of [`zigzag_encode`].
#[inline]
pub fn zigzag_decode(v: u64) -> i64 {
    ((v >> 1) as i64) ^ -((v & 1) as i64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bits_needed_boundaries() {
        assert_eq!(bits_needed(0), 0);
        assert_eq!(bits_needed(1), 1);
        assert_eq!(bits_needed(2), 2);
        assert_eq!(bits_needed(3), 2);
        assert_eq!(bits_needed(255), 8);
        assert_eq!(bits_needed(256), 9);
        assert_eq!(bits_needed(u64::MAX), 64);
    }

    #[test]
    fn pack_roundtrip_simple() {
        let values = vec![1u64, 5, 3, 7, 0, 6];
        let packed = BitPackedVec::pack(&values, 3).unwrap();
        assert_eq!(packed.unpack(), values);
        for (i, &v) in values.iter().enumerate() {
            assert_eq!(packed.get(i), v);
        }
    }

    #[test]
    fn all_below_rejects_a_code_at_the_bound_anywhere() {
        let n = 3_000;
        for bits in [1u8, 2, 7, 13] {
            let bound = (1u64 << bits) - 1;
            let valid: Vec<u64> = (0..n as u64).map(|i| i % bound).collect();
            let packed = BitPackedVec::pack(&valid, bits).unwrap();
            assert!(packed.all_below(bound), "bits {bits}");
            // A bound past the width's domain is decided without a sweep.
            assert!(packed.all_below(bound + 1), "bits {bits}");
            for row in [0, 1_023, 1_024, n - 1] {
                let mut codes = valid.clone();
                codes[row] = bound;
                let packed = BitPackedVec::pack(&codes, bits).unwrap();
                assert!(!packed.all_below(bound), "bits {bits} row {row}");
                assert!(packed.all_below(bound + 1), "bits {bits} row {row}");
            }
        }
        assert!(BitPackedVec::pack(&[], 5).unwrap().all_below(0));
        let zeros = BitPackedVec::pack(&[0; 10], 0).unwrap();
        assert!(zeros.all_below(1));
        assert!(!zeros.all_below(0));
    }

    #[test]
    fn pack_zero_width() {
        let values = vec![0u64; 100];
        let packed = BitPackedVec::pack(&values, 0).unwrap();
        assert_eq!(packed.payload_bytes(), 0);
        assert_eq!(packed.tight_bytes(), 0);
        assert_eq!(packed.unpack(), values);
        assert_eq!(packed.get(57), 0);
    }

    #[test]
    fn pack_zero_width_rejects_nonzero() {
        assert!(matches!(
            BitPackedVec::pack(&[0, 1], 0),
            Err(Error::WidthOverflow { value: 1, bits: 0 })
        ));
    }

    #[test]
    fn pack_full_width() {
        let values = vec![u64::MAX, 0, u64::MAX / 2, 42];
        let packed = BitPackedVec::pack(&values, 64).unwrap();
        assert_eq!(packed.unpack(), values);
        assert_eq!(packed.get(0), u64::MAX);
        assert_eq!(packed.get(3), 42);
    }

    #[test]
    fn pack_rejects_overflow() {
        assert!(BitPackedVec::pack(&[8], 3).is_err());
        assert!(BitPackedVec::pack(&[7], 3).is_ok());
    }

    #[test]
    fn pack_rejects_width_above_64() {
        assert!(matches!(
            BitPackedVec::pack(&[1], 65),
            Err(Error::InvalidBitWidth(65))
        ));
    }

    #[test]
    fn word_straddling_widths() {
        // Widths that do not divide 64 force values across word boundaries.
        for bits in [3u8, 5, 7, 11, 13, 17, 23, 29, 31, 33, 47, 63] {
            let mask = if bits == 64 {
                u64::MAX
            } else {
                (1 << bits) - 1
            };
            let values: Vec<u64> = (0..500u64)
                .map(|i| (i.wrapping_mul(0x9E3779B97F4A7C15)) & mask)
                .collect();
            let packed = BitPackedVec::pack(&values, bits).unwrap();
            assert_eq!(packed.unpack(), values, "width {bits}");
            for (i, &v) in values.iter().enumerate() {
                assert_eq!(packed.get(i), v, "width {bits} index {i}");
            }
        }
    }

    #[test]
    fn empty_vector() {
        let packed = BitPackedVec::pack(&[], 13).unwrap();
        assert!(packed.is_empty());
        assert_eq!(packed.unpack(), Vec::<u64>::new());
        assert_eq!(packed.tight_bytes(), 0);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn get_out_of_bounds_panics() {
        let packed = BitPackedVec::pack(&[1, 2, 3], 2).unwrap();
        packed.get(3);
    }

    #[test]
    fn pack_minimal_picks_tight_width() {
        let packed = BitPackedVec::pack_minimal(&[0, 1, 2, 3, 4]);
        assert_eq!(packed.bits(), 3);
        let packed = BitPackedVec::pack_minimal(&[0, 0, 0]);
        assert_eq!(packed.bits(), 0);
    }

    #[test]
    fn tight_bytes_matches_paper_arithmetic() {
        // 12-bit values, 1M of them -> 1.5 MB, the paper's date-column math.
        let values = vec![0xFFFu64; 1_000_000];
        let packed = BitPackedVec::pack(&values, 12).unwrap();
        assert_eq!(packed.tight_bytes(), 1_500_000);
    }

    #[test]
    fn gather_matches_get() {
        let values: Vec<u64> = (0..1000).map(|i| i * 7 % 512).collect();
        let packed = BitPackedVec::pack_minimal(&values);
        let positions = vec![0u32, 999, 512, 1, 77];
        let mut out = Vec::new();
        packed.gather_into(&positions, &mut out);
        assert_eq!(
            out,
            vec![values[0], values[999], values[512], values[1], values[77]]
        );
    }

    #[test]
    fn serialization_roundtrip() {
        let values: Vec<u64> = (0..333).map(|i| i * 31 % 8192).collect();
        let packed = BitPackedVec::pack_minimal(&values);
        let mut buf = Vec::new();
        packed.write_to(&mut buf);
        assert_eq!(buf.len(), packed.serialized_len());
        let decoded = BitPackedVec::read_from(&mut buf.as_slice()).unwrap();
        assert_eq!(decoded, packed);
    }

    #[test]
    fn serialization_rejects_truncation() {
        let packed = BitPackedVec::pack_minimal(&[1, 2, 3, 4, 5]);
        let mut buf = Vec::new();
        packed.write_to(&mut buf);
        for cut in [0, 1, 8, buf.len() - 1] {
            let slice = &buf[..cut];
            assert!(
                BitPackedVec::read_from(&mut &slice[..]).is_err(),
                "cut {cut}"
            );
        }
    }

    #[test]
    fn serialization_rejects_word_count_mismatch() {
        let packed = BitPackedVec::pack_minimal(&[1, 2, 3]);
        let mut buf = Vec::new();
        packed.write_to(&mut buf);
        // Corrupt the word-count field (bytes 9..17).
        buf[9] = 0xFF;
        assert!(BitPackedVec::read_from(&mut buf.as_slice()).is_err());
    }

    /// The scalar reference the batched kernels are checked against.
    fn scalar_unpack(v: &BitPackedVec) -> Vec<u64> {
        (0..v.len()).map(|i| v.get(i)).collect()
    }

    #[test]
    fn batched_unpack_matches_scalar_all_widths() {
        // Every width, with a length that exercises full chunks + a tail.
        for bits in 0u8..=64 {
            let mask = if bits == 0 {
                0
            } else {
                u64::MAX >> (64 - bits as u32)
            };
            let values: Vec<u64> = (0..2_500u64)
                .map(|i| i.wrapping_mul(0x9E3779B97F4A7C15) & mask)
                .collect();
            let packed = BitPackedVec::pack(&values, bits).unwrap();
            assert_eq!(packed.unpack(), values, "width {bits}");
            assert_eq!(scalar_unpack(&packed), values, "width {bits}");
        }
    }

    #[test]
    fn batched_unpack_chunk_boundaries() {
        for len in [0usize, 1, 1023, 1024, 1025, 2048, 2049] {
            let values: Vec<u64> = (0..len as u64).map(|i| i % 8192).collect();
            let packed = BitPackedVec::pack(&values, 13).unwrap();
            assert_eq!(packed.unpack(), values, "len {len}");
        }
    }

    #[test]
    fn unpack_add_fuses_for_base() {
        let offsets: Vec<u64> = (0..3_000u64).map(|i| i % 31).collect();
        let packed = BitPackedVec::pack_minimal(&offsets);
        let mut out = Vec::new();
        packed.unpack_add_into(-17, &mut out);
        let want: Vec<i64> = offsets.iter().map(|&o| o as i64 - 17).collect();
        assert_eq!(out, want);
        // Wrapping semantics at the i64 edge.
        let packed = BitPackedVec::pack_minimal(&[u64::MAX, 0, 1]);
        packed.unpack_add_into(i64::MIN, &mut out);
        assert_eq!(
            out,
            vec![
                i64::MIN.wrapping_add(u64::MAX as i64),
                i64::MIN,
                i64::MIN + 1
            ]
        );
    }

    #[test]
    fn unpack_chunks_streams_aligned_chunks() {
        let values: Vec<u64> = (0..2_600u64).map(|i| i * 3 % 4096).collect();
        let packed = BitPackedVec::pack_minimal(&values);
        let mut seen = Vec::new();
        let mut starts = Vec::new();
        packed.unpack_chunks(|start, chunk| {
            starts.push((start, chunk.len()));
            seen.extend_from_slice(chunk);
        });
        assert_eq!(seen, values);
        assert_eq!(starts, vec![(0, 1024), (1024, 1024), (2048, 552)]);
        // Zero-width column streams zeros.
        let packed = BitPackedVec::pack(&vec![0u64; 1500], 0).unwrap();
        let mut total = 0;
        packed.unpack_chunks(|_, chunk| {
            assert!(chunk.iter().all(|&v| v == 0));
            total += chunk.len();
        });
        assert_eq!(total, 1500);
    }

    #[test]
    fn reader_matches_get() {
        let values: Vec<u64> = (0..700u64).map(|i| i * 11 % 2048).collect();
        let packed = BitPackedVec::pack_minimal(&values);
        let r = packed.reader();
        for (i, &v) in values.iter().enumerate() {
            assert_eq!(r.get(i), v, "index {i}");
        }
        let zero = BitPackedVec::pack(&[0, 0], 0).unwrap();
        assert_eq!(zero.reader().get(1), 0);
    }

    #[test]
    fn zigzag_roundtrip() {
        for v in [0i64, 1, -1, 2, -2, i64::MAX, i64::MIN, 12345, -98765] {
            assert_eq!(zigzag_decode(zigzag_encode(v)), v);
        }
        // Small magnitudes stay small.
        assert_eq!(zigzag_encode(0), 0);
        assert_eq!(zigzag_encode(-1), 1);
        assert_eq!(zigzag_encode(1), 2);
        assert_eq!(zigzag_encode(-2), 3);
    }
}
