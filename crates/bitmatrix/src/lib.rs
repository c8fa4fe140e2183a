//! Bit-vector and bit-matrix kernel for fast dual simulation processing.
//!
//! This crate implements the engineering substrate of Sect. 3.2 of
//! *Fast Dual Simulation Processing of Graph Database Queries* (Mennicke et
//! al., ICDE 2019): characteristic functions `χ_S(v)` are stored behind
//! the pluggable [`ChiVec`] abstraction — dense [`BitVec`]s over the
//! data-graph node set, or gap-length encoded [`RleBitVec`]s when the
//! candidate sets are sparse ([`ChiBackend`]) — while the per-label
//! adjacency matrices `F^a` and `B^a` are stored as [`BitMatrix`] values
//! with compressed (sorted-run) rows — the same information content as
//! the paper's gap-length encoded bit rows.
//!
//! The central operation is the bit-matrix multiplication `v ×b A`
//! (footnote 2 of the paper): `(v ×b A)(j) = 1` iff there is an `i` with
//! `v(i) = 1` and `A(i, j) = 1`. Two evaluation strategies are provided:
//!
//! * **row-wise** ([`BitMatrix::multiply_into`]): OR together the rows of
//!   `A` selected by the set bits of `v` — cheap when `v` has few bits;
//! * **column-wise** ([`BitMatrix::retain_intersecting_rows`] applied to the
//!   transpose): for every candidate bit `j`, test whether column `j` of
//!   `A` intersects `v` — cheap when the candidate vector has few bits.
//!
//! The solver in `dualsim-core` switches between the two dynamically
//! (Sect. 3.3 of the paper).
//!
//! All bitwise inner loops bottom out in the word-level [`kernels`]
//! layer ([`KernelBackend`]): a scalar and a runtime-detected AVX2
//! instantiation, bit-identical, resolved once per process.

#![warn(missing_docs)]

mod bitvec;
mod chi;
pub mod kernels;
mod matrix;
mod rle;
mod slab;

pub use bitvec::{BitVec, Ones};
pub use chi::{ChiBackend, ChiOnes, ChiRead, ChiVec, AUTO_RLE_DENSITY_DIVISOR};
pub use kernels::KernelBackend;
pub use matrix::{BitMatrix, RowSelector};
pub use rle::{RleBitVec, RleOnes};
pub use slab::{CounterSlab, SeededSlabState, SlabBackend};

#[cfg(test)]
mod proptests;
