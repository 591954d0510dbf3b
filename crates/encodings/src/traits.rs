//! The one interface every integer column is queried through.
//!
//! A codec supplies four things — [`len`](IntAccess::len),
//! [`get`](IntAccess::get), [`compressed_bytes`](IntAccess::compressed_bytes)
//! and the decoded chunk stream [`for_each_chunk`](IntAccess::for_each_chunk)
//! — and every query kernel (decode, gather, filter, the whole-column sum,
//! the selected and grouped folds, both TOP-K entry points) is a provided
//! method written once over them. A codec overrides a kernel only where it
//! can do the work in its compressed domain:
//!
//! * **FOR** rewrites a range into the packed offset domain and compares
//!   raw packed words, and sums raw offsets with the frame base added back
//!   once (`n · base`);
//! * **Dict** turns a range into a contiguous code interval (two binary
//!   searches on the sorted dictionary), sums a code histogram once per
//!   distinct value (`value · count`), and picks TOP-K winners in the code
//!   domain — code order *is* value order;
//! * **RLE** filters, sums (`value · run_len`) and offers TOP-K candidates
//!   once per *run* — O(runs), not O(rows);
//! * **Frequency** evaluates a predicate once per hot value and once per
//!   exception, and sums a hot-code histogram plus the exceptions;
//! * **Delta** and **Plain** have no compressed-domain shortcut: Delta's
//!   chunk stream is one sequential reconstruction with miniblock restarts,
//!   Plain's is the stored slice itself.
//!
//! The provided bodies are also the reference the overrides are tested
//! against (`tests/proptest_encodings.rs`).
//!
//! It is also the horizontal resolution: `corra-core` resolves a NonHier,
//! Hier or MultiRef column against its references into an `IntAccess`
//! whose `get` is the paper's per-row reconstruction rule and whose chunk
//! stream is the block's batch reconstruction, so every operator calls one
//! method on any integer column. Those columns override only Hier's
//! per-metadata-entry filter, sums and folds and NonHier's
//! `Σ ref + n · base + Σ diff`.

use corra_columnar::aggregate::IntAggState;
use corra_columnar::bitpack::{BitPackedVec, UNPACK_CHUNK};
use corra_columnar::predicate::IntRange;
use corra_columnar::selection::{rows_fit, SelectionVector};
use corra_columnar::topk::TopKHeap;

use crate::filter::filter_i64_slice;

/// Decompression and compressed-domain query interface of an integer
/// encoding.
///
/// The paper's baseline deliberately restricts itself to schemes that "allow
/// for fast random access into the compressed column" (§3, Baseline); RLE and
/// Delta are included here for completeness and ablations but carry the
/// checkpoint structures that make their random access possible.
///
/// Selections are sorted: a kernel taking one panics (like the scalar getter
/// would) if its last position is out of range.
pub trait IntAccess {
    /// Number of encoded rows.
    fn len(&self) -> usize;

    /// Whether the column is empty.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Decodes the value at row `i`.
    fn get(&self, i: usize) -> i64;

    /// Compressed size in bytes as reported in the size experiments:
    /// tightly-packed payload plus all metadata required for self-contained
    /// decompression.
    fn compressed_bytes(&self) -> usize;

    /// Streams the decoded column: `f(start, chunk)` receives the values of
    /// rows `start..start + chunk.len()`, in row order, each row exactly
    /// once. Chunks are non-empty and stay cache-hot for the callee; their
    /// size is the codec's choice.
    fn for_each_chunk(&self, f: &mut dyn FnMut(usize, &[i64]));

    /// Decodes the whole column into `out` (cleared first).
    fn decode_into(&self, out: &mut Vec<i64>) {
        out.clear();
        out.reserve(self.len());
        self.for_each_chunk(&mut |_, chunk| out.extend_from_slice(chunk));
    }

    /// Materializes the values at `rows` into `out` (cleared first); `rows`
    /// is strictly ascending and below [`len`](Self::len), as
    /// [`SelectionVector::positions`] returns them, so a caller reading
    /// several columns expands a selection once. This is the query kernel
    /// of the latency experiments.
    fn gather_into(&self, rows: &[u32], out: &mut Vec<i64>) {
        out.clear();
        out.reserve(rows.len());
        for &p in rows {
            out.push(self.get(p as usize));
        }
    }

    /// Replaces `out` with the bitmap of the rows matching `range`, each
    /// decoded chunk going through the SIMD range kernel.
    fn filter_into(&self, range: &IntRange, out: &mut SelectionVector) {
        *out = SelectionVector::none(self.len());
        self.for_each_chunk(&mut |start, chunk| filter_i64_slice(chunk, range, start, out));
    }

    /// The sum of every row mod 2^64, by wrapping `i64` adds. It is the
    /// exact sum whenever that fits an `i64`, which a caller holding the
    /// column's zone decides up front: `rows · min ≥ −2^63` and
    /// `rows · max < 2^63` bound the true sum inside the `i64` domain.
    fn sum_wrapping(&self) -> i64 {
        let mut sum = 0i64;
        self.for_each_chunk(&mut |_, chunk| sum = wrapping_sum(sum, chunk));
        sum
    }

    /// Folds the rows at the selected positions into `state`.
    fn aggregate_selected(&self, sel: &SelectionVector, state: &mut IntAggState) {
        for p in sel.positions() {
            state.update(self.get(p as usize));
        }
    }

    /// Folds row `i` into `states[group_of[i]]` for every row — the grouped
    /// aggregation kernel. `group_of.len()` must equal the column length and
    /// every code must index `states`; callers route filtered-out rows to a
    /// trailing discard group rather than passing a selection.
    fn aggregate_grouped(&self, group_of: &[u32], states: &mut [IntAggState]) {
        assert_eq!(group_of.len(), self.len(), "group codes misaligned");
        self.for_each_chunk(&mut |start, chunk| {
            for (&v, &g) in chunk.iter().zip(&group_of[start..]) {
                states[g as usize].update(v);
            }
        });
    }

    /// Offers every row of the column as a `(value, base + row)` candidate
    /// into `heap`; an override may skip rows that provably lose to rows it
    /// does offer from the same column (the heap itself arbitrates against
    /// candidates from other blocks).
    ///
    /// `base` is the caller's position offset (drivers pass `block << 32` so
    /// positions stay globally unique and the heap's tie-break resolves to
    /// "earlier block, then earlier row").
    fn top_k_into(&self, base: u64, heap: &mut TopKHeap) {
        if heap.k() == 0 {
            return;
        }
        self.for_each_chunk(&mut |start, chunk| heap.offer_chunk(base + start as u64, chunk));
    }

    /// Offers only the selected rows (the post-filter path).
    fn top_k_selected(&self, base: u64, sel: &SelectionVector, heap: &mut TopKHeap) {
        if heap.k() == 0 {
            return;
        }
        for p in sel.positions() {
            heap.offer(self.get(p as usize), base + p as u64);
        }
    }
}

/// `acc` plus every value of `values`, mod 2^64.
pub fn wrapping_sum(acc: i64, values: &[i64]) -> i64 {
    values.iter().fold(acc, |s, &v| s.wrapping_add(v))
}

/// How often each code in `0..n_codes` occurs in `codes`; every code must
/// be below `n_codes`. Four rows per iteration into four histograms: a
/// one-increment loop body is a few bytes whose speed depended on where
/// the linker placed it (0.24 or 0.40 ms per 400 k rows), and neighbouring
/// equal codes no longer wait on each other's store.
pub(crate) fn code_counts(codes: &BitPackedVec, n_codes: usize) -> Vec<u64> {
    let mut counts = vec![[0u64; 4]; n_codes];
    codes.unpack_chunks(|_, chunk| {
        let mut quads = chunk.chunks_exact(4);
        for q in &mut quads {
            counts[q[0] as usize][0] += 1;
            counts[q[1] as usize][1] += 1;
            counts[q[2] as usize][2] += 1;
            counts[q[3] as usize][3] += 1;
        }
        for &c in quads.remainder() {
            counts[c as usize][0] += 1;
        }
    });
    counts.iter().map(|c| c.iter().sum()).collect()
}

/// Bounds a selection for kernels that read packed words without the
/// scalar getter's own check: a selection that validates against `len`
/// expands only to rows below it.
pub(crate) fn check_selection(sel: &SelectionVector, len: usize) {
    assert!(sel.validate(len), "selection out of bounds (len {len})");
}

/// [`check_selection`] for a row list: strictly ascending, every row
/// below `len`.
pub(crate) fn check_rows(rows: &[u32], len: usize) {
    assert!(
        rows_fit(rows, len),
        "rows not ascending or out of bounds (len {len})"
    );
}

/// The chunk stream of a bit-packed codec: unpacks `packed` through the
/// batched kernels and hands `f` each chunk mapped to values by
/// `value(row, packed_word)`, called in row order.
pub(crate) fn stream_packed(
    packed: &BitPackedVec,
    mut value: impl FnMut(usize, u64) -> i64,
    f: &mut dyn FnMut(usize, &[i64]),
) {
    let mut vals = [0i64; UNPACK_CHUNK];
    packed.unpack_chunks(|start, chunk| {
        for (j, (&w, v)) in chunk.iter().zip(&mut vals).enumerate() {
            *v = value(start + j, w);
        }
        f(start, &vals[..chunk.len()]);
    });
}
