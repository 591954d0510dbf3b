//! # corra-encodings
//!
//! Single-column ("vertical") encoding schemes — the status quo the Corra
//! paper improves on, and its experimental baseline.
//!
//! Implemented schemes:
//!
//! * [`plain::PlainInt`] — the uncompressed comparator;
//! * [`ffor::ForInt`] — Frame-of-Reference + bit-packing;
//! * [`dict::DictInt`] / [`dict::DictStr`] — dictionary + bit-packing with a
//!   flattened distinct-string array;
//! * [`rle::RleInt`] — run-length with a checkpoint index;
//! * [`delta::DeltaInt`] — delta with miniblock restarts;
//! * [`frequency::FrequencyInt`] — frequent values + exception region.
//!
//! The paper's baseline chooser ([`chooser::choose_int_baseline`]) considers
//! only FOR and Dict, "because they allow for fast random access into the
//! compressed column"; [`chooser::choose_int_full`] picks from all six
//! (the `AutoFull` plan and compaction). Both size every candidate from
//! one stats pass and encode only the winner.
//!
//! Every integer scheme implements the one codec trait,
//! [`traits::IntAccess`]: a codec supplies length, random access, size and
//! a decoded chunk stream, and decode / gather / filter / the whole-column
//! sum / the aggregate folds / TOP-K are provided methods over them,
//! overridden only where a codec works in its compressed domain (FOR
//! offsets, Dict codes, RLE runs, Frequency verdict tables). The
//! horizontal columns of `corra-core`, resolved against their references,
//! implement the same trait, so every integer kernel is written once.
//! [`dict::DictStr`] is a pool plus codes; the string kernels live once in
//! `corra-core`, over every string codec. Its pool is
//! first-occurrence-ordered, so only code *identity* is meaningful there,
//! while int dictionaries are sorted and code order is value order.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod aggregate;
pub mod chooser;
pub mod delta;
pub mod dict;
pub mod ffor;
pub mod filter;
pub mod frequency;
pub mod plain;
pub mod rle;
#[cfg(test)]
mod topk;
pub mod traits;

pub use chooser::{
    choose_int_baseline, choose_int_baseline_stats, choose_int_full, choose_int_full_stats,
    choose_str_baseline, IntEncoding,
};
pub use delta::DeltaInt;
pub use dict::{DictInt, DictStr};
pub use ffor::ForInt;
pub use frequency::FrequencyInt;
pub use plain::PlainInt;
pub use rle::RleInt;
pub use traits::{wrapping_sum, IntAccess};
