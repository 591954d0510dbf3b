//! The value-domain range compare behind
//! [`IntAccess::filter_into`](crate::traits::IntAccess::filter_into)'s
//! provided body, and the decompress-then-filter oracle the kernels are
//! tested against.

use corra_columnar::predicate::IntRange;
use corra_columnar::selection::SelectionVector;
use corra_columnar::simd;

/// Fused range compare over a materialized `i64` span: selects row
/// `first_row + j` of `out` for every value matching `range`, running the
/// active SIMD tier's compare kernel. Rows already selected stay, so
/// chunked callers can stack spans.
pub fn filter_i64_slice(
    values: &[i64],
    range: &IntRange,
    first_row: usize,
    out: &mut SelectionVector,
) {
    if range.interval_is_empty() {
        if range.negate {
            out.set_range(first_row, first_row + values.len());
        }
        return;
    }
    simd::filter_i64_into(
        simd::active(),
        values,
        range.lo,
        range.hi,
        range.negate,
        first_row,
        out,
    );
}

/// Reference comparator used by the parity tests: decompress-then-filter.
pub fn filter_naive(values: &[i64], range: &IntRange) -> Vec<u32> {
    values
        .iter()
        .enumerate()
        .filter(|&(_, &v)| range.matches(v))
        .map(|(i, _)| i as u32)
        .collect()
}
