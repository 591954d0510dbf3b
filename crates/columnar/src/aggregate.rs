//! Mergeable partial aggregate states — the substrate of compressed-domain
//! aggregation.
//!
//! Every aggregate kernel (vertical codecs in `corra-encodings`, Corra
//! horizontal codecs in `corra-core`) folds into the same [`IntAggState`] /
//! [`StrAggState`], so per-block partials merge deterministically
//! regardless of which codec — or which worker thread — produced them.
//!
//! `SUM` accumulates in `i128`: a block holds at most `u32::MAX` rows of
//! `i64` values, so the true sum is bounded by `2^32 · 2^63 = 2^95`, far
//! inside the `i128` domain — sums never silently wrap, even on
//! `i64::MIN`/`i64::MAX` columns, and merging partials stays exact.

/// Partial aggregate state over an integer column: `COUNT`, `SUM` (exact,
/// `i128`), `MIN` and `MAX` in one fold.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct IntAggState {
    /// Rows folded in.
    pub count: u64,
    /// Exact sum of the folded values (`i128`: never wraps for any
    /// realizable row count).
    pub sum: i128,
    /// Minimum folded value; `None` before the first row.
    pub min: Option<i64>,
    /// Maximum folded value; `None` before the first row.
    pub max: Option<i64>,
}

impl IntAggState {
    /// Folds one value.
    #[inline]
    pub fn update(&mut self, v: i64) {
        self.count += 1;
        self.sum += v as i128;
        self.min = Some(self.min.map_or(v, |m| m.min(v)));
        self.max = Some(self.max.map_or(v, |m| m.max(v)));
    }

    /// Folds `n` occurrences of the same value at once — the run-length /
    /// histogram fast path (`value · run_len` instead of `run_len` adds).
    #[inline]
    pub fn update_n(&mut self, v: i64, n: u64) {
        if n == 0 {
            return;
        }
        self.count += n;
        self.sum += v as i128 * n as i128;
        self.min = Some(self.min.map_or(v, |m| m.min(v)));
        self.max = Some(self.max.map_or(v, |m| m.max(v)));
    }

    /// Folds a materialized span — the same state as calling
    /// [`update`](Self::update) on each value in turn, with the bounds
    /// kept in plain locals for the whole span instead of an `Option`
    /// round trip per value.
    pub fn update_slice(&mut self, values: &[i64]) {
        let Some(&first) = values.first() else {
            return;
        };
        let (mut min, mut max) = (self.min.unwrap_or(first), self.max.unwrap_or(first));
        let mut sum = 0i128;
        for &v in values {
            sum += v as i128;
            min = min.min(v);
            max = max.max(v);
        }
        self.count += values.len() as u64;
        self.sum += sum;
        self.min = Some(min);
        self.max = Some(max);
    }

    /// Merges another partial state in (associative and commutative, so
    /// per-block partials merged in block order equal one fold over every
    /// row).
    pub fn merge(&mut self, other: &IntAggState) {
        self.count += other.count;
        self.sum += other.sum;
        self.min = match (self.min, other.min) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        };
        self.max = match (self.max, other.max) {
            (Some(a), Some(b)) => Some(a.max(b)),
            (a, b) => a.or(b),
        };
    }

    /// The mean of the folded values; `None` over zero rows.
    pub fn avg(&self) -> Option<f64> {
        (self.count > 0).then(|| self.sum as f64 / self.count as f64)
    }
}

/// Partial aggregate state over a string column: `COUNT` plus
/// lexicographic `MIN`/`MAX`.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct StrAggState {
    /// Rows folded in.
    pub count: u64,
    /// Lexicographically smallest folded string.
    pub min: Option<String>,
    /// Lexicographically largest folded string.
    pub max: Option<String>,
}

impl StrAggState {
    /// Folds one string (clones only when it improves a bound).
    #[inline]
    pub fn update(&mut self, s: &str) {
        self.update_n(s, 1);
    }

    /// Folds `n` occurrences of the same string at once (the dictionary
    /// fast path: one bound comparison per distinct value).
    #[inline]
    pub fn update_n(&mut self, s: &str, n: u64) {
        if n == 0 {
            return;
        }
        self.count += n;
        if self.min.as_deref().is_none_or(|m| s < m) {
            self.min = Some(s.to_owned());
        }
        if self.max.as_deref().is_none_or(|m| s > m) {
            self.max = Some(s.to_owned());
        }
    }

    /// Merges another partial state in (associative and commutative).
    pub fn merge(&mut self, other: &StrAggState) {
        self.count += other.count;
        if let Some(m) = &other.min {
            if self.min.as_deref().is_none_or(|cur| m.as_str() < cur) {
                self.min = Some(m.clone());
            }
        }
        if let Some(m) = &other.max {
            if self.max.as_deref().is_none_or(|cur| m.as_str() > cur) {
                self.max = Some(m.clone());
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn int_state_folds_and_merges() {
        let mut a = IntAggState::default();
        a.update(5);
        a.update(-3);
        assert_eq!(a.count, 2);
        assert_eq!(a.sum, 2);
        assert_eq!((a.min, a.max), (Some(-3), Some(5)));
        let mut b = IntAggState::default();
        b.update_n(10, 3);
        assert_eq!(b.sum, 30);
        a.merge(&b);
        assert_eq!(a.count, 5);
        assert_eq!(a.sum, 32);
        assert_eq!((a.min, a.max), (Some(-3), Some(10)));
        assert!((a.avg().unwrap() - 6.4).abs() < 1e-12);
        // Empty merges are identities.
        let snapshot = a;
        a.merge(&IntAggState::default());
        assert_eq!(a, snapshot);
        assert_eq!(IntAggState::default().avg(), None);
    }

    #[test]
    fn int_state_sum_never_wraps() {
        let mut s = IntAggState::default();
        s.update_n(i64::MAX, 1 << 20);
        s.update_n(i64::MIN, 3);
        let want = (i64::MAX as i128) * (1 << 20) + (i64::MIN as i128) * 3;
        assert_eq!(s.sum, want);
        assert_eq!((s.min, s.max), (Some(i64::MIN), Some(i64::MAX)));
    }

    #[test]
    fn update_n_zero_is_noop() {
        let mut s = IntAggState::default();
        s.update_n(99, 0);
        assert_eq!(s, IntAggState::default());
        let mut s = StrAggState::default();
        s.update_n("zzz", 0);
        assert_eq!(s, StrAggState::default());
    }

    #[test]
    fn str_state_folds_and_merges() {
        let mut a = StrAggState::default();
        a.update("mango");
        a.update("apple");
        assert_eq!(a.count, 2);
        assert_eq!(a.min.as_deref(), Some("apple"));
        assert_eq!(a.max.as_deref(), Some("mango"));
        let mut b = StrAggState::default();
        b.update_n("zebra", 4);
        a.merge(&b);
        assert_eq!(a.count, 6);
        assert_eq!(a.max.as_deref(), Some("zebra"));
        let snapshot = a.clone();
        a.merge(&StrAggState::default());
        assert_eq!(a, snapshot);
    }
}
