//! Word-level kernels for the bitwise hot loops.
//!
//! Every hot path of the engine bottoms out in a handful of loops over
//! `u64` blocks (`∧`, `∨`, `∧¬`, subset tests, popcounts, cleared-bit
//! drains) or over compressed row indices (the `×b` OR-scatter and the
//! counter-seeding increment-scatter). This module provides each of
//! those inner loops in two interchangeable instantiations
//! ([`KernelBackend`]):
//!
//! * **`Scalar`** — the straightforward one-word-at-a-time loop: the
//!   reference semantics, and the only instantiation on hosts without
//!   AVX2;
//! * **`Simd`** — an explicit AVX2 `std::arch` path (256-bit lanes,
//!   `vptest`-based early exits), compiled on `x86_64` and runnable
//!   only when `is_x86_feature_detected!` proves the CPU supports it.
//!
//! **Work-neutrality invariant.** Both instantiations are bit-identical:
//! same result words, same change flags, same drain order (ascending),
//! same scatter effects. Kernels change how many *machine* operations a
//! word loop costs, never how many *logical* operations the engine
//! performs — `SolveStats::logical()` is untouched by the kernel
//! choice. The differential proptests in this crate pin `Simd` against
//! `Scalar` at the word level (including tail-word boundaries).
//!
//! **Selection.** The kernel is resolved once per process
//! ([`KernelBackend::detected`]): `Simd` iff AVX2 is detected, else
//! `Scalar`. `BitVec` and `BitMatrix` route their inner loops through
//! [`active`] with the dispatch hoisted to one thread-local read per
//! operation (or per multiply, for the scatter loops). The only way to
//! run another kernel is the scoped, thread-local [`with_backend`]
//! override used by parity tests and kernel benchmarks — it can never
//! switch the kernel under a solve running on another thread.

use std::cell::Cell;

/// A word-kernel instantiation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KernelBackend {
    /// One-word-at-a-time loops — the reference instantiation `Simd`
    /// is differentially tested against.
    Scalar,
    /// Explicit AVX2 (`std::arch`) 256-bit loops; runs as `Scalar` when
    /// AVX2 is unavailable.
    Simd,
}

impl KernelBackend {
    /// The backend's display name.
    pub fn name(self) -> &'static str {
        match self {
            KernelBackend::Scalar => "scalar",
            KernelBackend::Simd => "simd",
        }
    }

    /// The process's kernel: `Simd` iff the CPU supports AVX2 (the
    /// feature probe is cached process-wide by `std`), else `Scalar`.
    pub fn detected() -> KernelBackend {
        KernelBackend::Simd.resolve()
    }

    /// The instantiation that actually runs for this selection on this
    /// machine: `Simd` without AVX2 support falls back to `Scalar`.
    pub fn resolve(self) -> KernelBackend {
        match self {
            KernelBackend::Simd if !simd_available() => KernelBackend::Scalar,
            k => k,
        }
    }
}

/// `true` iff the explicit SIMD instantiation can run on this machine
/// (x86_64 with AVX2 and POPCNT, verified at runtime).
pub fn simd_available() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        std::arch::is_x86_feature_detected!("avx2") && std::arch::is_x86_feature_detected!("popcnt")
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

thread_local! {
    /// This thread's kernel: `None` until first use, then the detected
    /// kernel or a [`with_backend`] override.
    static ACTIVE: Cell<Option<KernelBackend>> = const { Cell::new(None) };
}

/// The kernel the calling thread runs, always runnable on this machine:
/// the innermost [`with_backend`] override, else
/// [`KernelBackend::detected`].
#[inline]
pub fn active() -> KernelBackend {
    ACTIVE.with(|cell| match cell.get() {
        Some(k) => k,
        None => {
            let k = KernelBackend::detected();
            cell.set(Some(k));
            k
        }
    })
}

/// Runs `f` with the calling thread's kernel overridden to `k`
/// (resolved: `Simd` without AVX2 runs `Scalar`), restoring the
/// previous kernel afterwards, also on unwind. Other threads are never
/// affected. Meant for kernel parity tests and kernel benchmarks only.
#[doc(hidden)]
pub fn with_backend<R>(k: KernelBackend, f: impl FnOnce() -> R) -> R {
    struct Restore(Option<KernelBackend>);
    impl Drop for Restore {
        fn drop(&mut self) {
            ACTIVE.with(|cell| cell.set(self.0));
        }
    }
    let _restore = Restore(ACTIVE.with(|cell| cell.replace(Some(k.resolve()))));
    f()
}

// ---------------------------------------------------------------------
// Dispatchers: one thread-local read + one jump per operation. The
// `_with` variants take an explicit backend so callers can hoist the
// dispatch out of their own loops and the differential proptests can
// pin each instantiation deterministically.
// ---------------------------------------------------------------------

macro_rules! dispatch {
    ($k:expr, $scalar:expr, $simd:expr) => {
        match $k {
            KernelBackend::Scalar => $scalar,
            // SAFETY: the AVX2 instantiations require AVX2 + POPCNT.
            // `Simd` reaches a dispatcher only through `active` (which
            // holds `resolve`d backends: `Simd` iff `simd_available`) or
            // from the in-crate tests, which pass it only when
            // `simd_available` holds.
            #[cfg(target_arch = "x86_64")]
            KernelBackend::Simd => unsafe { $simd },
            #[cfg(not(target_arch = "x86_64"))]
            KernelBackend::Simd => $scalar,
        }
    };
}

/// `a[i] &= b[i]` over all words; returns `true` iff any word changed.
#[inline]
pub(crate) fn and_assign_words(a: &mut [u64], b: &[u64]) -> bool {
    and_assign_words_with(active(), a, b)
}

/// [`and_assign_words`] under an explicit backend.
#[inline]
pub(crate) fn and_assign_words_with(k: KernelBackend, a: &mut [u64], b: &[u64]) -> bool {
    dispatch!(k, and_scalar(a, b), and_avx2(a, b))
}

/// `a[i] |= b[i]` over all words; returns `true` iff any word changed.
#[inline]
pub(crate) fn or_assign_words(a: &mut [u64], b: &[u64]) -> bool {
    or_assign_words_with(active(), a, b)
}

/// [`or_assign_words`] under an explicit backend.
#[inline]
pub(crate) fn or_assign_words_with(k: KernelBackend, a: &mut [u64], b: &[u64]) -> bool {
    dispatch!(k, or_scalar(a, b), or_avx2(a, b))
}

/// `a[i] &= !b[i]` over all words; returns `true` iff any word changed.
#[inline]
pub(crate) fn and_not_assign_words(a: &mut [u64], b: &[u64]) -> bool {
    and_not_assign_words_with(active(), a, b)
}

/// [`and_not_assign_words`] under an explicit backend.
#[inline]
pub(crate) fn and_not_assign_words_with(k: KernelBackend, a: &mut [u64], b: &[u64]) -> bool {
    dispatch!(k, and_not_scalar(a, b), and_not_avx2(a, b))
}

/// `true` iff `a[i] & !b[i] == 0` for every word (subset test), with an
/// early exit on the first violating word/lane.
#[inline]
pub(crate) fn is_subset_words(a: &[u64], b: &[u64]) -> bool {
    is_subset_words_with(active(), a, b)
}

/// [`is_subset_words`] under an explicit backend.
#[inline]
pub(crate) fn is_subset_words_with(k: KernelBackend, a: &[u64], b: &[u64]) -> bool {
    dispatch!(k, subset_scalar(a, b), subset_avx2(a, b))
}

/// Total popcount over all words.
#[inline]
pub(crate) fn count_ones_words(a: &[u64]) -> usize {
    count_ones_words_with(active(), a)
}

/// [`count_ones_words`] under an explicit backend.
#[inline]
pub(crate) fn count_ones_words_with(k: KernelBackend, a: &[u64]) -> usize {
    dispatch!(k, count_scalar(a), count_avx2(a))
}

/// `a[i] &= b[i]` over all words, appending the absolute bit index of
/// every cleared bit to `removed` in ascending order; returns `true`
/// iff any word changed. The SIMD instantiation only buys a faster
/// *scan* for words with cleared bits — decode order is identical
/// across backends (the delta engine's removal log is part of the
/// bit-identical contract).
#[inline]
pub(crate) fn drain_cleared_words(a: &mut [u64], b: &[u64], removed: &mut Vec<u32>) -> bool {
    drain_cleared_words_with(active(), a, b, removed)
}

/// [`drain_cleared_words`] under an explicit backend.
#[inline]
pub(crate) fn drain_cleared_words_with(
    k: KernelBackend,
    a: &mut [u64],
    b: &[u64],
    removed: &mut Vec<u32>,
) -> bool {
    dispatch!(k, drain_scalar(a, b, removed), drain_avx2(a, b, removed))
}

/// OR-scatter: sets bit `i` of the block array for every index in
/// `indices` (the inner loop of the row-wise `×b` accumulation).
#[inline]
pub(crate) fn or_scatter(blocks: &mut [u64], indices: &[u32]) {
    or_scatter_with(active(), blocks, indices)
}

/// [`or_scatter`] under an explicit backend. Not a word-parallel shape:
/// `Simd` runs a portable 4×-unrolled loop.
#[inline]
pub(crate) fn or_scatter_with(k: KernelBackend, blocks: &mut [u64], indices: &[u32]) {
    match k {
        KernelBackend::Scalar => or_scatter_scalar(blocks, indices),
        KernelBackend::Simd => or_scatter_unrolled(blocks, indices),
    }
}

/// Increment-scatter under an explicit backend: `counts[i] += 1` for
/// every index in `indices` (the inner loop of the counter-seeding
/// `count_into`, which hoists the dispatch per seed). Not a
/// word-parallel shape: `Simd` runs a portable 4×-unrolled loop.
#[inline]
pub(crate) fn increment_scatter_with(k: KernelBackend, counts: &mut [u32], indices: &[u32]) {
    match k {
        KernelBackend::Scalar => increment_scatter_scalar(counts, indices),
        KernelBackend::Simd => increment_scatter_unrolled(counts, indices),
    }
}

// ---------------------------------------------------------------------
// Scalar instantiations (the reference semantics).
// ---------------------------------------------------------------------

fn and_scalar(a: &mut [u64], b: &[u64]) -> bool {
    let mut changed = false;
    for (x, &y) in a.iter_mut().zip(b) {
        let new = *x & y;
        changed |= new != *x;
        *x = new;
    }
    changed
}

fn or_scalar(a: &mut [u64], b: &[u64]) -> bool {
    let mut changed = false;
    for (x, &y) in a.iter_mut().zip(b) {
        let new = *x | y;
        changed |= new != *x;
        *x = new;
    }
    changed
}

fn and_not_scalar(a: &mut [u64], b: &[u64]) -> bool {
    let mut changed = false;
    for (x, &y) in a.iter_mut().zip(b) {
        let new = *x & !y;
        changed |= new != *x;
        *x = new;
    }
    changed
}

fn subset_scalar(a: &[u64], b: &[u64]) -> bool {
    a.iter().zip(b).all(|(&x, &y)| x & !y == 0)
}

fn count_scalar(a: &[u64]) -> usize {
    a.iter().map(|x| x.count_ones() as usize).sum()
}

/// Decodes the set bits of `cleared` (a word at block index `bi`) into
/// absolute indices, ascending. Shared by every drain instantiation so
/// the removal order is identical by construction.
#[inline]
fn push_cleared(bi: usize, mut cleared: u64, removed: &mut Vec<u32>) {
    let base = (bi * 64) as u32;
    while cleared != 0 {
        removed.push(base + cleared.trailing_zeros());
        cleared &= cleared - 1;
    }
}

fn drain_scalar(a: &mut [u64], b: &[u64], removed: &mut Vec<u32>) -> bool {
    let mut changed = false;
    for (bi, (x, &y)) in a.iter_mut().zip(b).enumerate() {
        let cleared = *x & !y;
        if cleared != 0 {
            changed = true;
            *x &= y;
            push_cleared(bi, cleared, removed);
        }
    }
    changed
}

fn or_scatter_scalar(blocks: &mut [u64], indices: &[u32]) {
    for &i in indices {
        blocks[i as usize / 64] |= 1u64 << (i % 64);
    }
}

fn increment_scatter_scalar(counts: &mut [u32], indices: &[u32]) {
    for &i in indices {
        counts[i as usize] += 1;
    }
}

// ---------------------------------------------------------------------
// Portable 4×-unrolled scatter loops (the `Simd` backend's scatter:
// AVX2 has no scatter, but four independent read-modify-writes per
// iteration still help the load/store units).
// ---------------------------------------------------------------------

fn or_scatter_unrolled(blocks: &mut [u64], indices: &[u32]) {
    let mut chunks = indices.chunks_exact(4);
    for c in &mut chunks {
        // The four read-modify-writes run in program order, so indices
        // landing in the same block compose exactly like the scalar loop.
        blocks[c[0] as usize / 64] |= 1u64 << (c[0] % 64);
        blocks[c[1] as usize / 64] |= 1u64 << (c[1] % 64);
        blocks[c[2] as usize / 64] |= 1u64 << (c[2] % 64);
        blocks[c[3] as usize / 64] |= 1u64 << (c[3] % 64);
    }
    for &i in chunks.remainder() {
        blocks[i as usize / 64] |= 1u64 << (i % 64);
    }
}

fn increment_scatter_unrolled(counts: &mut [u32], indices: &[u32]) {
    let mut chunks = indices.chunks_exact(4);
    for c in &mut chunks {
        counts[c[0] as usize] += 1;
        counts[c[1] as usize] += 1;
        counts[c[2] as usize] += 1;
        counts[c[3] as usize] += 1;
    }
    for &i in chunks.remainder() {
        counts[i as usize] += 1;
    }
}

// ---------------------------------------------------------------------
// AVX2 instantiations (x86_64 only; callers guarantee runtime support
// via `KernelBackend::resolve`). 256-bit lanes = 4 words per step; the
// tail (< 4 words) runs the scalar loop. Change/violation detection
// uses `vptest` on an accumulated difference vector — boolean-identical
// to the scalar comparison.
// ---------------------------------------------------------------------

#[cfg(target_arch = "x86_64")]
mod avx2 {
    use super::push_cleared;
    use std::arch::x86_64::*;

    macro_rules! avx2_assign {
        ($name:ident, $combine:expr, $scalar_op:expr) => {
            /// # Safety
            /// Requires AVX2 (checked by `KernelBackend::resolve`).
            #[target_feature(enable = "avx2")]
            pub(super) unsafe fn $name(a: &mut [u64], b: &[u64]) -> bool {
                let whole = a.len() & !3;
                let ap = a.as_mut_ptr();
                let bp = b.as_ptr();
                let mut diff = _mm256_setzero_si256();
                let mut i = 0usize;
                while i < whole {
                    let va = _mm256_loadu_si256(ap.add(i).cast());
                    let vb = _mm256_loadu_si256(bp.add(i).cast());
                    let vn = $combine(va, vb);
                    diff = _mm256_or_si256(diff, _mm256_xor_si256(vn, va));
                    _mm256_storeu_si256(ap.add(i).cast(), vn);
                    i += 4;
                }
                let mut changed = _mm256_testz_si256(diff, diff) == 0;
                for (x, &y) in a[whole..].iter_mut().zip(&b[whole..]) {
                    let new = $scalar_op(*x, y);
                    changed |= new != *x;
                    *x = new;
                }
                changed
            }
        };
    }

    avx2_assign!(
        and_avx2,
        |va, vb| _mm256_and_si256(va, vb),
        |x: u64, y: u64| x & y
    );
    avx2_assign!(
        or_avx2,
        |va, vb| _mm256_or_si256(va, vb),
        |x: u64, y: u64| x | y
    );
    avx2_assign!(
        and_not_avx2,
        // `andnot(vb, va)` computes `!vb & va` = `va & !vb`.
        |va, vb| _mm256_andnot_si256(vb, va),
        |x: u64, y: u64| x & !y
    );

    /// # Safety
    /// Requires AVX2 (checked by `KernelBackend::resolve`).
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn subset_avx2(a: &[u64], b: &[u64]) -> bool {
        let whole = a.len() & !3;
        let ap = a.as_ptr();
        let bp = b.as_ptr();
        let mut i = 0usize;
        while i < whole {
            let va = _mm256_loadu_si256(ap.add(i).cast());
            let vb = _mm256_loadu_si256(bp.add(i).cast());
            // violation lanes: va & !vb
            let v = _mm256_andnot_si256(vb, va);
            if _mm256_testz_si256(v, v) == 0 {
                return false;
            }
            i += 4;
        }
        a[whole..].iter().zip(&b[whole..]).all(|(&x, &y)| x & !y == 0)
    }

    /// # Safety
    /// Requires AVX2 + POPCNT (checked by `KernelBackend::resolve`).
    ///
    /// Word-wise `popcnt` over four independent accumulators — AVX2 has
    /// no vector popcount, but the enabled `popcnt` target feature
    /// guarantees the hardware instruction for each lane.
    #[target_feature(enable = "avx2,popcnt")]
    pub(super) unsafe fn count_avx2(a: &[u64]) -> usize {
        let whole = a.len() & !3;
        let mut c = [0usize; 4];
        for ca in a[..whole].chunks_exact(4) {
            c[0] += ca[0].count_ones() as usize;
            c[1] += ca[1].count_ones() as usize;
            c[2] += ca[2].count_ones() as usize;
            c[3] += ca[3].count_ones() as usize;
        }
        let tail: usize = a[whole..].iter().map(|x| x.count_ones() as usize).sum();
        c.iter().sum::<usize>() + tail
    }

    /// # Safety
    /// Requires AVX2 (checked by `KernelBackend::resolve`).
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn drain_avx2(a: &mut [u64], b: &[u64], removed: &mut Vec<u32>) -> bool {
        let whole = a.len() & !3;
        let ap = a.as_mut_ptr();
        let bp = b.as_ptr();
        let mut changed = false;
        let mut i = 0usize;
        while i < whole {
            let va = _mm256_loadu_si256(ap.add(i).cast());
            let vb = _mm256_loadu_si256(bp.add(i).cast());
            let vc = _mm256_andnot_si256(vb, va); // cleared = a & !b
            // Fast skip via `vptest`: nothing cleared in these 4 words.
            if _mm256_testz_si256(vc, vc) == 0 {
                changed = true;
                _mm256_storeu_si256(ap.add(i).cast(), _mm256_and_si256(va, vb));
                let mut cleared = [0u64; 4];
                _mm256_storeu_si256(cleared.as_mut_ptr().cast(), vc);
                for (lane, &word) in cleared.iter().enumerate() {
                    push_cleared(i + lane, word, removed);
                }
            }
            i += 4;
        }
        for (off, (x, &y)) in a[whole..].iter_mut().zip(&b[whole..]).enumerate() {
            let cleared = *x & !y;
            if cleared != 0 {
                changed = true;
                *x &= y;
                push_cleared(whole + off, cleared, removed);
            }
        }
        changed
    }
}

#[cfg(target_arch = "x86_64")]
use avx2::{and_avx2, and_not_avx2, count_avx2, drain_avx2, or_avx2, subset_avx2};

/// Instantiations testable on this machine: always scalar, plus SIMD
/// when the CPU supports it. Used by the in-crate differential tests
/// and proptests.
#[cfg(test)]
pub(crate) fn testable_backends() -> Vec<KernelBackend> {
    let mut v = vec![KernelBackend::Scalar];
    if simd_available() {
        v.push(KernelBackend::Simd);
    }
    v
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn resolve_is_concrete_and_runnable() {
        assert_eq!(KernelBackend::Scalar.resolve(), KernelBackend::Scalar);
        assert_eq!(
            KernelBackend::Simd.resolve() == KernelBackend::Simd,
            simd_available()
        );
        assert_eq!(KernelBackend::detected(), KernelBackend::Simd.resolve());
    }

    #[test]
    fn active_is_always_concrete() {
        assert_eq!(active(), KernelBackend::detected());
        let inner = with_backend(KernelBackend::Scalar, || {
            // Nested overrides restore the enclosing one.
            with_backend(KernelBackend::Simd, || {
                assert_eq!(active(), KernelBackend::Simd.resolve());
            });
            active()
        });
        assert_eq!(inner, KernelBackend::Scalar);
        assert_eq!(active(), KernelBackend::detected());
        // The override is per thread: a scoped override on another
        // thread never changes this thread's kernel.
        with_backend(KernelBackend::Scalar, || {
            let other = std::thread::spawn(active).join().unwrap();
            assert_eq!(other, KernelBackend::detected());
        });
    }

    #[test]
    fn override_is_restored_on_unwind() {
        let before = active();
        let caught = std::panic::catch_unwind(|| {
            with_backend(KernelBackend::Scalar, || panic!("inside the override"))
        });
        assert!(caught.is_err());
        assert_eq!(active(), before);
    }

    #[test]
    fn every_backend_matches_scalar_on_fixed_vectors() {
        // Deterministic multi-block vectors with tail words; the
        // proptests fuzz the same property over random lengths.
        let n = 11usize; // not a multiple of 4: exercises SIMD tails
        let a0: Vec<u64> = (0..n).map(|i| (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)).collect();
        let b0: Vec<u64> = (0..n)
            .map(|i| (i as u64 ^ 0xABCD).wrapping_mul(0xC2B2_AE3D_27D4_EB4F))
            .collect();
        for k in testable_backends() {
            for (op, op_with) in [
                (
                    and_assign_words_with as fn(KernelBackend, &mut [u64], &[u64]) -> bool,
                    "and",
                ),
                (or_assign_words_with, "or"),
                (and_not_assign_words_with, "andnot"),
            ] {
                let mut reference = a0.clone();
                let ref_changed = op(KernelBackend::Scalar, &mut reference, &b0);
                let mut words = a0.clone();
                let changed = op(k, &mut words, &b0);
                assert_eq!(words, reference, "{op_with} words under {k:?}");
                assert_eq!(changed, ref_changed, "{op_with} change flag under {k:?}");
            }
            assert_eq!(
                is_subset_words_with(k, &a0, &b0),
                subset_scalar(&a0, &b0),
                "{k:?}"
            );
            assert_eq!(count_ones_words_with(k, &a0), count_scalar(&a0), "{k:?}");
            let mut ref_words = a0.clone();
            let mut ref_removed = Vec::new();
            let ref_changed = drain_cleared_words_with(
                KernelBackend::Scalar,
                &mut ref_words,
                &b0,
                &mut ref_removed,
            );
            let mut words = a0.clone();
            let mut removed = Vec::new();
            let changed = drain_cleared_words_with(k, &mut words, &b0, &mut removed);
            assert_eq!(words, ref_words, "{k:?}");
            assert_eq!(removed, ref_removed, "{k:?}");
            assert_eq!(changed, ref_changed, "{k:?}");
        }
    }

    #[test]
    fn scatter_kernels_match_scalar() {
        let indices: Vec<u32> = vec![0, 1, 63, 64, 65, 64, 127, 130, 2, 2, 191];
        for k in testable_backends() {
            let mut ref_blocks = vec![0u64; 3];
            or_scatter_with(KernelBackend::Scalar, &mut ref_blocks, &indices);
            let mut blocks = vec![0u64; 3];
            or_scatter_with(k, &mut blocks, &indices);
            assert_eq!(blocks, ref_blocks, "{k:?}");

            let mut ref_counts = vec![0u32; 192];
            increment_scatter_with(KernelBackend::Scalar, &mut ref_counts, &indices);
            let mut counts = vec![0u32; 192];
            increment_scatter_with(k, &mut counts, &indices);
            assert_eq!(counts, ref_counts, "{k:?}");
        }
    }
}
