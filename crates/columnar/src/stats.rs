//! Column statistics used by the encoding choosers and the optimizer.

use rustc_hash::FxHashSet;

use crate::column::Column;
use crate::strings::StringPool;

/// Statistics over an integer column.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct IntStats {
    /// Minimum value (0 if the column is empty).
    pub min: i64,
    /// Maximum value (0 if the column is empty).
    pub max: i64,
    /// Exact number of distinct values.
    pub distinct: usize,
    /// Number of rows.
    pub count: usize,
    /// Number of maximal runs of equal adjacent values.
    pub runs: usize,
}

impl IntStats {
    /// Computes exact statistics in one pass (plus a hash set for distinct).
    pub fn compute(values: &[i64]) -> Self {
        if values.is_empty() {
            return Self {
                min: 0,
                max: 0,
                distinct: 0,
                count: 0,
                runs: 0,
            };
        }
        let mut min = i64::MAX;
        let mut max = i64::MIN;
        let mut runs = 1usize;
        let mut distinct = FxHashSet::default();
        let mut prev = values[0];
        for (i, &v) in values.iter().enumerate() {
            min = min.min(v);
            max = max.max(v);
            distinct.insert(v);
            if i > 0 && v != prev {
                runs += 1;
            }
            prev = v;
        }
        Self {
            min,
            max,
            distinct: distinct.len(),
            count: values.len(),
            runs,
        }
    }

    /// The value range `max - min` as u64 (saturating at domain edges).
    pub fn range(&self) -> u64 {
        (self.max as i128 - self.min as i128).max(0) as u64
    }

    /// Bits needed for FOR encoding over this range.
    pub fn for_bits(&self) -> u8 {
        crate::bitpack::bits_needed(self.range())
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
        assert_eq!(s.dict_bits(), 2);
    }

    #[test]
    fn int_stats_empty_and_constant() {
        let e = IntStats::compute(&[]);
        assert_eq!(e.count, 0);
        assert_eq!(e.for_bits(), 0);
        let c = IntStats::compute(&[7, 7, 7]);
        assert_eq!(c.range(), 0);
        assert_eq!(c.for_bits(), 0);
        assert_eq!(c.dict_bits(), 0);
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
