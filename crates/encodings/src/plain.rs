//! Plain (uncompressed) encoding — the "uncompressed" comparator in the
//! paper's latency zoom-ins (Fig. 6/7).

use bytes::{Buf, BufMut};
use corra_columnar::error::{Error, Result};

use crate::traits::IntAccess;

/// Uncompressed 8-byte-per-value integer column.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PlainInt {
    values: Vec<i64>,
}

impl PlainInt {
    /// Wraps raw values.
    pub fn new(values: Vec<i64>) -> Self {
        Self { values }
    }

    /// Encodes from a slice.
    pub fn encode(values: &[i64]) -> Self {
        Self {
            values: values.to_vec(),
        }
    }

    /// Borrows the underlying values.
    pub fn values(&self) -> &[i64] {
        &self.values
    }

    /// Serialized length of [`write_to`](Self::write_to).
    pub fn serialized_len(&self) -> usize {
        8 + self.values.len() * 8
    }

    /// Writes `len (u64) | values` little-endian.
    pub fn write_to(&self, buf: &mut impl BufMut) {
        buf.put_u64_le(self.values.len() as u64);
        for &v in &self.values {
            buf.put_i64_le(v);
        }
    }

    /// Reads back a [`write_to`](Self::write_to) payload.
    pub fn read_from(buf: &mut impl Buf) -> Result<Self> {
        if buf.remaining() < 8 {
            return Err(Error::corrupt("plain-int header truncated"));
        }
        let len = buf.get_u64_le() as usize;
        if buf.remaining() < len.saturating_mul(8) {
            return Err(Error::corrupt("plain-int payload truncated"));
        }
        let mut values = Vec::with_capacity(len);
        for _ in 0..len {
            values.push(buf.get_i64_le());
        }
        Ok(Self { values })
    }
}

/// Every kernel is the trait's provided body: the chunk stream is the
/// stored slice itself, so decode is one `memcpy`, filter one sweep of the
/// SIMD range kernel, and the folds the direct loops the compressed kernels
/// are measured against.
impl IntAccess for PlainInt {
    fn len(&self) -> usize {
        self.values.len()
    }

    #[inline]
    fn get(&self, i: usize) -> i64 {
        self.values[i]
    }

    fn compressed_bytes(&self) -> usize {
        self.values.len() * 8
    }

    fn for_each_chunk(&self, f: &mut dyn FnMut(usize, &[i64])) {
        if !self.values.is_empty() {
            f(0, &self.values);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use corra_columnar::predicate::IntRange;
    use corra_columnar::selection::SelectionVector;

    #[test]
    fn plain_int_access() {
        let enc = PlainInt::encode(&[10, -20, 30]);
        assert_eq!(enc.len(), 3);
        assert_eq!(enc.get(1), -20);
        let mut out = Vec::new();
        enc.decode_into(&mut out);
        assert_eq!(out, vec![10, -20, 30]);
        assert_eq!(enc.compressed_bytes(), 24);
    }

    #[test]
    fn plain_int_gather() {
        let enc = PlainInt::encode(&(0..100i64).collect::<Vec<_>>());
        let mut out = Vec::new();
        enc.gather_into(&[3, 97], &mut out);
        assert_eq!(out, vec![3, 97]);
    }

    #[test]
    fn plain_int_serialization() {
        let enc = PlainInt::encode(&[i64::MIN, 0, i64::MAX]);
        let mut buf = Vec::new();
        enc.write_to(&mut buf);
        assert_eq!(buf.len(), enc.serialized_len());
        let back = PlainInt::read_from(&mut buf.as_slice()).unwrap();
        assert_eq!(back, enc);
        let cut = &buf[..buf.len() - 1];
        assert!(PlainInt::read_from(&mut &cut[..]).is_err());
    }

    #[test]
    fn empty_columns() {
        let enc = PlainInt::encode(&[]);
        assert!(enc.is_empty());
    }

    #[test]
    fn plain_filters() {
        let values = vec![10i64, -20, 30, 10];
        let enc = PlainInt::encode(&values);
        let mut out = SelectionVector::empty();
        enc.filter_into(&IntRange::new(0, 15), &mut out);
        assert_eq!(out.positions(), vec![0, 3]);
        enc.filter_into(&IntRange::negated(0, 15), &mut out);
        assert_eq!(out.positions(), vec![1, 2]);
    }
}
