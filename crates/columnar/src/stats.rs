//! Column statistics used by the encoding choosers and the optimizer.

use rustc_hash::{FxHashMap, FxHashSet};

use crate::bitpack::zigzag_encode;
use crate::column::Column;
use crate::strings::StringPool;

/// Rows per miniblock of the delta codec: the first row of each is stored
/// verbatim, so only the deltas inside a miniblock set its bit width.
pub const MINIBLOCK: usize = 128;

/// How many hot values the full chooser's frequency candidate keeps.
pub const HOT_VALUES: usize = 16;

/// Statistics over an integer column — every input the codec choosers'
/// closed-form sizes need.
///
/// [`scan`](Self::scan) fills the fields one ordered loop can (`min`,
/// `max`, `count`, `runs`, `delta_bits`);
/// [`count_values`](Self::count_values) fills `distinct` and `hot_mass`
/// from a per-value count the chooser may cut short once the dictionary
/// candidates provably lose. [`compute`](Self::compute) runs both to the
/// end, so its `distinct` is exact.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct IntStats {
    /// Minimum value (0 if the column is empty).
    pub min: i64,
    /// Maximum value (0 if the column is empty).
    pub max: i64,
    /// Number of distinct values: exact once a count completes; a lower
    /// bound when [`count_values`](Self::count_values) stopped early.
    pub distinct: usize,
    /// Number of rows.
    pub count: usize,
    /// Number of maximal runs of equal adjacent values.
    pub runs: usize,
    /// Bit width of the largest zig-zag delta between neighbours inside a
    /// [`MINIBLOCK`] (the delta codec's payload width).
    pub delta_bits: u8,
    /// Rows holding one of the [`HOT_VALUES`] most frequent values (0
    /// when the count stopped early).
    pub hot_mass: usize,
}

impl IntStats {
    /// Computes exact statistics: [`scan`](Self::scan) plus a complete
    /// [`count_values`](Self::count_values).
    pub fn compute(values: &[i64]) -> Self {
        let mut stats = Self::scan(values);
        stats.count_values(values, |_| false);
        stats
    }

    /// The fields an ordered scan yields (a min / max fold, then one pass
    /// over the miniblocks); `distinct` and `hot_mass` stay 0 until
    /// [`count_values`](Self::count_values).
    pub fn scan(values: &[i64]) -> Self {
        let (Some(&min), Some(&max)) = (values.iter().min(), values.iter().max()) else {
            return Self::default();
        };
        let mut deltas = 0u64;
        let mut changes = 0usize;
        for (k, mini) in values.chunks(MINIBLOCK).enumerate() {
            // A miniblock's first row restarts the deltas but may still
            // start a new run.
            if k > 0 {
                changes += usize::from(mini[0] != values[k * MINIBLOCK - 1]);
            }
            for w in mini.windows(2) {
                let d = w[1].wrapping_sub(w[0]);
                deltas |= zigzag_encode(d);
                changes += usize::from(d != 0);
            }
        }
        Self {
            min,
            max,
            count: values.len(),
            runs: changes + 1,
            delta_bits: crate::bitpack::bits_needed(deltas),
            ..Self::default()
        }
    }

    /// Counts the rows of each distinct value of `values` (the column
    /// [`scan`](Self::scan) saw), filling `distinct` and `hot_mass`, and
    /// returns the counts. `give_up` sees the number of distinct values
    /// found so far each time it grows; once it answers `true` the count
    /// stops, `distinct` keeps that lower bound and the result is `None`.
    pub fn count_values(
        &mut self,
        values: &[i64],
        mut give_up: impl FnMut(usize) -> bool,
    ) -> Option<FxHashMap<i64, u32>> {
        let mut counts: FxHashMap<i64, u32> = FxHashMap::default();
        // One probe per run, not per row.
        let mut rest = values;
        while let Some(&v) = rest.first() {
            let run = rest.iter().take_while(|&&x| x == v).count();
            rest = &rest[run..];
            let seen = counts.len();
            *counts.entry(v).or_insert(0) += run as u32;
            if counts.len() > seen && give_up(counts.len()) {
                self.distinct = counts.len();
                self.hot_mass = 0;
                return None;
            }
        }
        let mut by_count: Vec<u32> = counts.values().copied().collect();
        if by_count.len() > HOT_VALUES {
            by_count.select_nth_unstable_by(HOT_VALUES - 1, |a, b| b.cmp(a));
            by_count.truncate(HOT_VALUES);
        }
        self.distinct = counts.len();
        self.hot_mass = by_count.iter().map(|&c| c as usize).sum();
        Some(counts)
    }

    /// The value range `max - min` as u64 (saturating at domain edges).
    pub fn range(&self) -> u64 {
        (self.max as i128 - self.min as i128).max(0) as u64
    }

    /// Bits needed for FOR encoding over this range.
    pub fn for_bits(&self) -> u8 {
        crate::bitpack::bits_needed(self.range())
    }
}

/// The min/max zone of an integer column, the block-pruning side of
/// predicate pushdown: a scan consults the zone first and skips the
/// per-row kernel when the predicate's range provably misses (or provably
/// covers) every value in the block.
///
/// A zone is *exact*: `min` and `max` are values the column holds,
/// recorded once when the block is encoded. That is what lets an
/// unfiltered `MIN` / `MAX` be answered from the zone alone.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ZoneMap {
    /// The smallest value in the zone.
    pub min: i64,
    /// The largest value in the zone.
    pub max: i64,
}

impl ZoneMap {
    /// Exact zone map of a slice; `None` when empty.
    pub fn from_values(values: &[i64]) -> Option<Self> {
        let mut iter = values.iter();
        let &first = iter.next()?;
        let mut zone = Self {
            min: first,
            max: first,
        };
        for &v in iter {
            zone.include(v);
        }
        Some(zone)
    }

    /// Zone map carried by already-computed [`IntStats`]; `None` when empty.
    pub fn from_stats(stats: &IntStats) -> Option<Self> {
        (stats.count > 0).then_some(Self {
            min: stats.min,
            max: stats.max,
        })
    }

    /// Widens the zone to include `v`.
    #[inline]
    pub fn include(&mut self, v: i64) {
        self.min = self.min.min(v);
        self.max = self.max.max(v);
    }

    /// Writes `min (i64 LE) | max (i64 LE)` — the footer form consumed by
    /// store-level block pruning.
    pub fn write_to(&self, buf: &mut impl bytes::BufMut) {
        buf.put_i64_le(self.min);
        buf.put_i64_le(self.max);
    }

    /// Reads back a [`write_to`](Self::write_to) payload.
    ///
    /// # Errors
    ///
    /// [`crate::error::Error::Corrupt`] on truncation or an inverted zone
    /// (`min > max`), which no zone of a non-empty column can be.
    pub fn read_from(buf: &mut impl bytes::Buf) -> crate::error::Result<Self> {
        if buf.remaining() < 16 {
            return Err(crate::error::Error::corrupt("zone map truncated"));
        }
        let min = buf.get_i64_le();
        let max = buf.get_i64_le();
        if min > max {
            return Err(crate::error::Error::corrupt("zone map min > max"));
        }
        Ok(Self { min, max })
    }
}

/// Statistics over a string column.
#[derive(Debug, Clone, PartialEq)]
pub struct StringStats {
    /// Exact number of distinct strings.
    pub distinct: usize,
    /// Number of rows.
    pub count: usize,
    /// Total bytes of the distinct strings (dictionary payload size).
    pub distinct_bytes: usize,
    /// Total bytes across all rows (uncompressed payload).
    pub total_bytes: usize,
}

impl StringStats {
    /// Computes exact statistics.
    pub fn compute(pool: &StringPool) -> Self {
        let mut distinct: FxHashSet<&str> = FxHashSet::default();
        let mut total_bytes = 0usize;
        for s in pool.iter() {
            total_bytes += s.len();
            distinct.insert(s);
        }
        let distinct_bytes = distinct.iter().map(|s| s.len()).sum();
        Self {
            distinct: distinct.len(),
            count: pool.len(),
            distinct_bytes,
            total_bytes,
        }
    }

    /// Bits needed for dictionary codes.
    pub fn dict_bits(&self) -> u8 {
        if self.distinct <= 1 {
            0
        } else {
            crate::bitpack::bits_needed(self.distinct as u64 - 1)
        }
    }
}

/// Statistics for either column kind.
#[derive(Debug, Clone, PartialEq)]
pub enum ColumnStats {
    /// Integer column statistics.
    Int(IntStats),
    /// String column statistics.
    Str(StringStats),
}

impl ColumnStats {
    /// Computes statistics for `column`.
    pub fn compute(column: &Column) -> Self {
        match column {
            Column::Int64(v) => ColumnStats::Int(IntStats::compute(v)),
            Column::Utf8(p) => ColumnStats::Str(StringStats::compute(p)),
        }
    }

    /// Row count.
    pub fn count(&self) -> usize {
        match self {
            ColumnStats::Int(s) => s.count,
            ColumnStats::Str(s) => s.count,
        }
    }

    /// Distinct-value count.
    pub fn distinct(&self) -> usize {
        match self {
            ColumnStats::Int(s) => s.distinct,
            ColumnStats::Str(s) => s.distinct,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn int_stats_basic() {
        let s = IntStats::compute(&[5, 3, 3, 8, 5]);
        assert_eq!(s.min, 3);
        assert_eq!(s.max, 8);
        assert_eq!(s.distinct, 3);
        assert_eq!(s.count, 5);
        assert_eq!(s.runs, 4); // 5 | 3 3 | 8 | 5
        assert_eq!(s.range(), 5);
        assert_eq!(s.for_bits(), 3);
        // Deltas -2, 0, 5, -3 zig-zag to 3, 0, 10, 5: four bits.
        assert_eq!(s.delta_bits, 4);
        assert_eq!(s.hot_mass, 5);
    }

    #[test]
    fn int_stats_empty_and_constant() {
        let e = IntStats::compute(&[]);
        assert_eq!(e.count, 0);
        assert_eq!(e.for_bits(), 0);
        let c = IntStats::compute(&[7, 7, 7]);
        assert_eq!(c.range(), 0);
        assert_eq!(c.for_bits(), 0);
        assert_eq!((c.distinct, c.delta_bits, c.hot_mass), (1, 0, 3));
        assert_eq!(c.runs, 1);
    }

    #[test]
    fn int_stats_negative_range() {
        let s = IntStats::compute(&[-100, 100]);
        assert_eq!(s.range(), 200);
        assert_eq!(s.for_bits(), 8);
    }

    #[test]
    fn int_stats_extreme_range() {
        let s = IntStats::compute(&[i64::MIN, i64::MAX]);
        assert_eq!(s.range(), u64::MAX);
        assert_eq!(s.for_bits(), 64);
    }

    #[test]
    fn zone_map_basics() {
        assert_eq!(ZoneMap::from_values(&[]), None);
        let z = ZoneMap::from_values(&[5, -3, 9]).unwrap();
        assert_eq!(z, ZoneMap { min: -3, max: 9 });
        let mut w = z;
        w.include(100);
        assert_eq!(w, ZoneMap { min: -3, max: 100 });
        let s = IntStats::compute(&[5, -3, 9]);
        assert_eq!(ZoneMap::from_stats(&s), Some(z));
        assert_eq!(ZoneMap::from_stats(&IntStats::compute(&[])), None);
    }

    #[test]
    fn zone_map_serialization_roundtrip() {
        let z = ZoneMap { min: -40, max: 977 };
        let mut buf = Vec::new();
        z.write_to(&mut buf);
        assert_eq!(buf.len(), 16);
        assert_eq!(ZoneMap::read_from(&mut buf.as_slice()).unwrap(), z);
        // Inverted zones and truncation are rejected.
        let mut bad = Vec::new();
        ZoneMap { min: 977, max: 977 }.write_to(&mut bad);
        bad[..8].copy_from_slice(&1_000i64.to_le_bytes());
        assert!(ZoneMap::read_from(&mut bad.as_slice()).is_err());
        assert!(ZoneMap::read_from(&mut &buf[..7]).is_err());
    }

    #[test]
    fn string_stats() {
        let pool = StringPool::from_iter(["NYC", "Naples", "NYC", "NYC"]);
        let s = StringStats::compute(&pool);
        assert_eq!(s.distinct, 2);
        assert_eq!(s.count, 4);
        assert_eq!(s.distinct_bytes, 3 + 6);
        assert_eq!(s.total_bytes, 3 * 3 + 6);
        assert_eq!(s.dict_bits(), 1);
    }

    #[test]
    fn column_stats_dispatch() {
        let c = Column::from(vec![1i64, 2, 2]);
        let s = ColumnStats::compute(&c);
        assert_eq!(s.count(), 3);
        assert_eq!(s.distinct(), 2);
        let c = Column::from(StringPool::from_iter(["a"]));
        let s = ColumnStats::compute(&c);
        assert_eq!(s.count(), 1);
        assert_eq!(s.distinct(), 1);
    }
}
