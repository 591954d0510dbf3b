//! # corra-c3
//!
//! From-scratch implementation of **C3** (Glas et al.), the independently
//! developed correlation-aware compression framework the Corra paper
//! compares against in its Table 3:
//!
//! * [`dfor::Dfor`] — diff against the reference, FOR + bit-pack the diff
//!   column (no outlier region);
//! * [`numerical::Numerical`] — the non-hierarchical scheme generalized to
//!   an affine function with fixed-point slope and FOR-packed residuals;
//! * [`one_to_one::OneToOne`] — zero-bits-per-row mapping for functional
//!   dependencies, with an exception list;
//! * [`hier_for::HierFor`] — C3's hierarchical family: per-reference child
//!   dictionaries with a FOR-packed index column (collapsing to 1-to-1 when
//!   the dependency is functional);
//! * [`chooser::choose`] — per-pair scheme selection by compressed size.
//!
//! Notably absent (as the paper points out): multi-reference support — C3
//! cannot express Taxi's `total_amount` formula mixture.
//!
//! The paper compares the two frameworks on saving rates only, so this
//! crate is a *size* comparator: each scheme encodes, reports its
//! compressed size and decodes (the losslessness check) — it has no query
//! kernels and no serialized form.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod chooser;
pub mod dfor;
pub mod hier_for;
pub mod numerical;
pub mod one_to_one;

pub use chooser::{choose, C3Encoding};
pub use dfor::Dfor;
pub use hier_for::HierFor;
pub use numerical::Numerical;
pub use one_to_one::OneToOne;
