//! Decompress-then-fold oracles the aggregate kernels of
//! [`IntAccess`](crate::traits::IntAccess) are tested and gated against.
//! Every kernel folds into an [`IntAggState`], which merges associatively,
//! so per-block partials combine deterministically in the multi-block
//! driver.

use corra_columnar::aggregate::IntAggState;
use corra_columnar::selection::SelectionVector;

/// Reference comparator used by the differential oracle tests:
/// decompress-then-fold over raw values.
pub fn aggregate_naive(values: &[i64]) -> IntAggState {
    let mut state = IntAggState::default();
    for &v in values {
        state.update(v);
    }
    state
}

/// Decompress-then-fold oracle over the selected positions.
pub fn aggregate_naive_selected(values: &[i64], sel: &SelectionVector) -> IntAggState {
    let mut state = IntAggState::default();
    for &p in sel.positions() {
        state.update(values[p as usize]);
    }
    state
}

/// Decompress-then-fold oracle for grouped aggregation.
pub fn aggregate_naive_grouped(
    values: &[i64],
    group_of: &[u32],
    n_groups: usize,
) -> Vec<IntAggState> {
    let mut states = vec![IntAggState::default(); n_groups];
    for (&v, &g) in values.iter().zip(group_of) {
        states[g as usize].update(v);
    }
    states
}
