//! Flattened string storage.
//!
//! The paper's baseline "packs the distinct strings into a flattened array"
//! (§3, Baseline). [`StringPool`] is that structure: one contiguous byte
//! buffer plus an offsets array, giving O(1) access to the i-th string with
//! no per-string allocation.

use crate::error::{Error, Result};
use bytes::{Buf, BufMut};
use rustc_hash::FxHashMap;

/// A flattened, append-only pool of (not necessarily distinct) strings.
#[derive(Clone, PartialEq, Eq)]
pub struct StringPool {
    /// The heap. Every offset sits on one of its char boundaries, so a
    /// string is a slice of it with no UTF-8 check per access.
    bytes: String,
    /// `offsets.len() == count + 1`; string `i` is `bytes[offsets[i]..offsets[i+1]]`.
    offsets: Vec<u32>,
}

/// Prints the heap as bytes, as the pool always has, so `Debug` text (and
/// whatever fingerprints it) does not depend on how the heap is typed.
impl std::fmt::Debug for StringPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("StringPool")
            .field("bytes", &self.bytes.as_bytes())
            .field("offsets", &self.offsets)
            .finish()
    }
}

impl Default for StringPool {
    fn default() -> Self {
        Self::new()
    }
}

impl StringPool {
    /// Creates an empty pool.
    pub fn new() -> Self {
        Self {
            bytes: String::new(),
            offsets: vec![0],
        }
    }

    /// Creates an empty pool with reserved capacity.
    pub fn with_capacity(strings: usize, bytes: usize) -> Self {
        let mut offsets = Vec::with_capacity(strings + 1);
        offsets.push(0);
        Self {
            bytes: String::with_capacity(bytes),
            offsets,
        }
    }

    /// Appends a string, returning its index.
    pub fn push(&mut self, s: &str) -> u32 {
        self.bytes.push_str(s);
        let idx = self.offsets.len() as u32 - 1;
        self.offsets.push(self.bytes.len() as u32);
        idx
    }

    /// Number of strings in the pool.
    #[inline]
    pub fn len(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Whether the pool holds no strings.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Returns string `i`: a slice of the heap, O(1).
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of bounds. Every pool — built by `push` or
    /// accepted by [`read_from`](Self::read_from) — has its offsets on char
    /// boundaries, so the slice itself cannot fail.
    #[inline]
    pub fn get(&self, i: usize) -> &str {
        &self.bytes[self.offsets[i] as usize..self.offsets[i + 1] as usize]
    }

    /// Checked access.
    pub fn try_get(&self, i: usize) -> Result<&str> {
        if i >= self.len() {
            return Err(Error::IndexOutOfBounds {
                index: i,
                len: self.len(),
            });
        }
        Ok(self.get(i))
    }

    /// Iterates over the strings in order.
    pub fn iter(&self) -> impl Iterator<Item = &str> + '_ {
        (0..self.len()).map(move |i| self.get(i))
    }

    /// Heap size of the flattened representation: bytes + offsets.
    ///
    /// This is the metadata size charged to dictionary encodings in the
    /// compression-size experiments.
    pub fn heap_bytes(&self) -> usize {
        self.bytes.len() + self.offsets.len() * std::mem::size_of::<u32>()
    }

    /// Serialized length of [`write_to`](Self::write_to).
    pub fn serialized_len(&self) -> usize {
        8 + 8 + self.offsets.len() * 4 + self.bytes.len()
    }

    /// Writes `count (u64) | byte_len (u64) | offsets | bytes` little-endian.
    pub fn write_to(&self, buf: &mut impl BufMut) {
        buf.put_u64_le(self.len() as u64);
        buf.put_u64_le(self.bytes.len() as u64);
        for &o in &self.offsets {
            buf.put_u32_le(o);
        }
        buf.put_slice(self.bytes.as_bytes());
    }

    /// Reads a pool previously written by [`write_to`](Self::write_to). The
    /// one UTF-8 check of a pool's life: the heap must be UTF-8 and every
    /// offset a char boundary of it, so [`get`](Self::get) is a plain slice.
    pub fn read_from(buf: &mut impl Buf) -> Result<Self> {
        if buf.remaining() < 16 {
            return Err(Error::corrupt("string pool header truncated"));
        }
        let count = buf.get_u64_le() as usize;
        let byte_len = buf.get_u64_le() as usize;
        let offsets_len = count.saturating_add(1);
        if buf.remaining() < offsets_len.saturating_mul(4).saturating_add(byte_len) {
            return Err(Error::corrupt("string pool payload truncated"));
        }
        let mut offsets = Vec::with_capacity(offsets_len);
        for _ in 0..offsets_len {
            offsets.push(buf.get_u32_le());
        }
        if offsets[0] != 0 || *offsets.last().unwrap() as usize != byte_len {
            return Err(Error::corrupt("string pool offsets inconsistent"));
        }
        if offsets.windows(2).any(|w| w[0] > w[1]) {
            return Err(Error::corrupt("string pool offsets not monotone"));
        }
        let mut bytes = vec![0u8; byte_len];
        buf.copy_to_slice(&mut bytes);
        let bytes =
            String::from_utf8(bytes).map_err(|_| Error::corrupt("string pool bytes not UTF-8"))?;
        if !offsets.iter().all(|&o| bytes.is_char_boundary(o as usize)) {
            return Err(Error::corrupt("string pool offset splits a character"));
        }
        Ok(Self { bytes, offsets })
    }
}

impl<'a> FromIterator<&'a str> for StringPool {
    fn from_iter<I: IntoIterator<Item = &'a str>>(iter: I) -> Self {
        let mut pool = Self::new();
        for s in iter {
            pool.push(s);
        }
        pool
    }
}

/// A deduplicating string dictionary: maps strings to dense codes and back.
///
/// This is the structure the paper's compression passes "maintain on the fly"
/// (§2.2 Compression) — insertion order defines codes, and the final
/// flattened [`StringPool`] is extracted once compression is finalized.
#[derive(Debug, Default)]
pub struct StringDictBuilder {
    pool: StringPool,
    index: FxHashMap<String, u32>,
}

impl StringDictBuilder {
    /// Creates an empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Interns `s`, returning its dense code.
    pub fn intern(&mut self, s: &str) -> u32 {
        if let Some(&code) = self.index.get(s) {
            return code;
        }
        let code = self.pool.push(s);
        self.index.insert(s.to_owned(), code);
        code
    }

    /// Looks up the code of `s` without inserting.
    pub fn lookup(&self, s: &str) -> Option<u32> {
        self.index.get(s).copied()
    }

    /// Number of distinct strings interned so far.
    pub fn len(&self) -> usize {
        self.pool.len()
    }

    /// Whether nothing has been interned.
    pub fn is_empty(&self) -> bool {
        self.pool.is_empty()
    }

    /// Finalizes into the flattened pool (codes = insertion order).
    pub fn finish(self) -> StringPool {
        self.pool
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pool_push_get() {
        let mut pool = StringPool::new();
        assert!(pool.is_empty());
        let a = pool.push("Cortland");
        let b = pool.push("Naples");
        let c = pool.push("NYC");
        assert_eq!((a, b, c), (0, 1, 2));
        assert_eq!(pool.get(0), "Cortland");
        assert_eq!(pool.get(1), "Naples");
        assert_eq!(pool.get(2), "NYC");
        assert_eq!(pool.len(), 3);
    }

    #[test]
    fn pool_empty_strings() {
        let pool = StringPool::from_iter(["", "x", ""]);
        assert_eq!(pool.get(0), "");
        assert_eq!(pool.get(1), "x");
        assert_eq!(pool.get(2), "");
    }

    #[test]
    fn pool_try_get_bounds() {
        let pool = StringPool::from_iter(["a"]);
        assert!(pool.try_get(0).is_ok());
        assert!(matches!(
            pool.try_get(1),
            Err(Error::IndexOutOfBounds { index: 1, len: 1 })
        ));
    }

    #[test]
    fn pool_iter_collects() {
        let pool = StringPool::from_iter(["a", "bb", "ccc"]);
        let v: Vec<&str> = pool.iter().collect();
        assert_eq!(v, vec!["a", "bb", "ccc"]);
    }

    #[test]
    fn pool_heap_bytes() {
        let pool = StringPool::from_iter(["ab", "c"]);
        // 3 bytes of content + 3 offsets * 4 bytes.
        assert_eq!(pool.heap_bytes(), 3 + 12);
    }

    #[test]
    fn pool_serialization_roundtrip() {
        let pool = StringPool::from_iter(["Cortland", "Naples", "", "NYC", "日本語"]);
        let mut buf = Vec::new();
        pool.write_to(&mut buf);
        assert_eq!(buf.len(), pool.serialized_len());
        let decoded = StringPool::read_from(&mut buf.as_slice()).unwrap();
        assert_eq!(decoded, pool);
    }

    #[test]
    fn pool_serialization_rejects_bad_utf8() {
        let pool = StringPool::from_iter(["ab"]);
        let mut buf = Vec::new();
        pool.write_to(&mut buf);
        let n = buf.len();
        buf[n - 1] = 0xFF; // invalid UTF-8 continuation
        assert!(StringPool::read_from(&mut buf.as_slice()).is_err());
    }

    #[test]
    fn pool_serialization_rejects_offsets_that_split_a_character() {
        let pool = StringPool::from_iter(["日", "x"]);
        let mut buf = Vec::new();
        pool.write_to(&mut buf);
        // Offsets [0, 3, 4] become [0, 1, 4]: the heap is still UTF-8, but
        // string 0 would end inside "日".
        assert_eq!(buf[20..24], 3u32.to_le_bytes());
        buf[20..24].copy_from_slice(&1u32.to_le_bytes());
        assert!(matches!(
            StringPool::read_from(&mut buf.as_slice()),
            Err(Error::Corrupt(_))
        ));
    }

    #[test]
    fn pool_serialization_rejects_truncation() {
        let pool = StringPool::from_iter(["abc", "def"]);
        let mut buf = Vec::new();
        pool.write_to(&mut buf);
        let cut = &buf[..buf.len() - 2];
        assert!(StringPool::read_from(&mut &cut[..]).is_err());
    }

    #[test]
    fn dict_builder_dedups() {
        let mut b = StringDictBuilder::new();
        assert_eq!(b.intern("Naples"), 0);
        assert_eq!(b.intern("NYC"), 1);
        assert_eq!(b.intern("Naples"), 0);
        assert_eq!(b.lookup("NYC"), Some(1));
        assert_eq!(b.lookup("missing"), None);
        assert_eq!(b.len(), 2);
        let pool = b.finish();
        assert_eq!(pool.get(0), "Naples");
        assert_eq!(pool.get(1), "NYC");
    }

    #[test]
    fn hostile_count_errors_instead_of_overflowing() {
        // count = u64::MAX must not overflow `count + 1` (or wrap the
        // truncation guard to zero in release builds).
        let mut hostile = Vec::new();
        hostile.extend_from_slice(&u64::MAX.to_le_bytes());
        hostile.extend_from_slice(&0u64.to_le_bytes());
        assert!(StringPool::read_from(&mut hostile.as_slice()).is_err());
    }
}
