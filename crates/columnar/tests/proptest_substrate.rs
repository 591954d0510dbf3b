//! Property-based tests for the columnar substrate.

use corra_columnar::bitpack::{self, BitPackedVec};
use corra_columnar::selection::{sample_uniform, SelectionVector};
use corra_columnar::strings::StringPool;
use corra_columnar::temporal;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

proptest! {
    /// pack(minimal width) then unpack is the identity.
    #[test]
    fn bitpack_roundtrip(values in prop::collection::vec(any::<u64>(), 0..300)) {
        let packed = BitPackedVec::pack_minimal(&values);
        prop_assert_eq!(packed.unpack(), values);
    }

    /// Random access agrees with bulk decode for every index.
    #[test]
    fn bitpack_get_matches_unpack(
        values in prop::collection::vec(0u64..(1 << 40), 1..200),
    ) {
        let packed = BitPackedVec::pack_minimal(&values);
        let unpacked = packed.unpack();
        for (i, &v) in unpacked.iter().enumerate() {
            prop_assert_eq!(packed.get(i), v);
        }
    }

    /// Packing with a wider-than-minimal width still roundtrips.
    #[test]
    fn bitpack_wide_width_roundtrip(
        values in prop::collection::vec(0u64..1000, 0..100),
        extra in 0u8..10,
    ) {
        let bits = (bitpack::width_for(&values) + extra).min(64);
        let packed = BitPackedVec::pack(&values, bits).unwrap();
        prop_assert_eq!(packed.unpack(), values);
    }

    /// Serialization roundtrips for arbitrary content.
    #[test]
    fn bitpack_serde_roundtrip(values in prop::collection::vec(any::<u64>(), 0..200)) {
        let packed = BitPackedVec::pack_minimal(&values);
        let mut buf = Vec::new();
        packed.write_to(&mut buf);
        let back = BitPackedVec::read_from(&mut buf.as_slice()).unwrap();
        prop_assert_eq!(back, packed);
    }

    /// Zig-zag is a bijection on i64.
    #[test]
    fn zigzag_bijection(v in any::<i64>()) {
        prop_assert_eq!(bitpack::zigzag_decode(bitpack::zigzag_encode(v)), v);
    }

    /// String pool roundtrips arbitrary (unicode) strings through serialization.
    #[test]
    fn string_pool_roundtrip(strings in prop::collection::vec(".{0,20}", 0..50)) {
        let pool = StringPool::from_iter(strings.iter().map(String::as_str));
        prop_assert_eq!(pool.len(), strings.len());
        for (i, s) in strings.iter().enumerate() {
            prop_assert_eq!(pool.get(i), s.as_str());
        }
        let mut buf = Vec::new();
        pool.write_to(&mut buf);
        let back = StringPool::read_from(&mut buf.as_slice()).unwrap();
        prop_assert_eq!(back, pool);
    }

    /// Truncating a serialized pool never panics, always errors.
    #[test]
    fn string_pool_truncation_errors(
        strings in prop::collection::vec("[a-z]{0,8}", 1..20),
        frac in 0.0f64..1.0,
    ) {
        let pool = StringPool::from_iter(strings.iter().map(String::as_str));
        let mut buf = Vec::new();
        pool.write_to(&mut buf);
        let cut = ((buf.len() - 1) as f64 * frac) as usize;
        let slice = &buf[..cut];
        prop_assert!(StringPool::read_from(&mut &slice[..]).is_err());
    }

    /// Uniform sampling returns the right count, sorted and in range.
    #[test]
    fn selection_sample_properties(rows in 1usize..50_000, sel in 0.0f64..1.0, seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let v = sample_uniform(rows, sel, &mut rng);
        let expect = ((rows as f64 * sel).round() as usize).min(rows);
        prop_assert_eq!(v.len(), expect);
        prop_assert!(v.validate(rows));
        prop_assert!(v.positions().windows(2).all(|w| w[0] < w[1]));
    }

    /// SelectionVector::new sorts/dedups arbitrary input.
    #[test]
    fn selection_new_normalizes(positions in prop::collection::vec(any::<u32>(), 0..200)) {
        let v = SelectionVector::new(positions.clone());
        let got = v.positions();
        prop_assert!(got.windows(2).all(|w| w[0] < w[1]));
        for p in &positions {
            prop_assert!(got.binary_search(p).is_ok());
        }
    }

    /// Civil date <-> epoch days is a bijection over a broad range.
    #[test]
    fn date_roundtrip(days in -200_000i64..200_000) {
        let d = temporal::epoch_days_to_date(days);
        prop_assert_eq!(temporal::date_to_epoch_days(d), days);
    }

    /// Date formatting parses back to the same value.
    #[test]
    fn date_format_parse(days in -100_000i64..100_000) {
        let s = temporal::format_epoch_days(days);
        prop_assert_eq!(temporal::parse_date(&s), Some(days));
    }
}
