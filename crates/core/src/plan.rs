//! Per-query solve plans: one resolution of every pluggable axis.
//!
//! A [`SolvePlan`] pins the χ-storage backend × counter-slab backend
//! combination a solve runs under — both `Auto` selections resolved
//! against the seeded candidate density — **once**, at
//! [`crate::DeltaSolver`] construction / re-evaluation solve entry,
//! instead of re-deciding inside the hot loops. Everything downstream is
//! monomorphized against the plan:
//!
//! * the plan's concrete χ backend fixes which `ChiVec` variant every
//!   vector holds for the whole solve (enum dispatch on a known variant
//!   is a predictable branch, and the run-aware drain flag is derived
//!   here once rather than re-checked per round);
//! * the concrete slab backend fixes every support slab's representation
//!   up front, and the fused `CounterSlab::decrement_collect` drain
//!   hoists the remaining representation match out of the per-entry
//!   decrement loop.
//!
//! The word kernel is not a plan axis: it is resolved once per process
//! (`dualsim_bitmatrix::kernels`). Every plan combination is
//! bit-identical in χ and in the logical [`crate::SolveStats`]
//! projection — the parity harness sweeps the full plan space (χ × slab,
//! under each kernel) and pins it.

use crate::solver::{auto_prefers_compressed, SolverConfig};
use dualsim_bitmatrix::{ChiBackend, ChiVec, SlabBackend};

/// The per-query resolved execution plan: every pluggable axis pinned
/// to a concrete choice for the duration of one solve.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SolvePlan {
    /// Concrete χ storage backend (never [`ChiBackend::Auto`]).
    pub chi: ChiBackend,
    /// Concrete support-counter backend (never [`SlabBackend::Auto`]).
    pub slab: SlabBackend,
    /// Whether the delta drain walks removal *runs* against the matrix
    /// CSR instead of single rows — derived from the χ backend (RLE χ
    /// coalesces one round's removals into runs).
    pub run_aware: bool,
}

impl SolvePlan {
    /// Resolves a configuration into a concrete plan against the exact
    /// seeded candidate count: χ `Auto` and slab `Auto` use the shared
    /// density bound (`initial_candidates / (nv · n)` at most
    /// 1/`AUTO_RLE_DENSITY_DIVISOR` picks the compressed/sparse
    /// representation).
    pub fn resolve(
        config: &SolverConfig,
        initial_candidates: usize,
        nv: usize,
        n: usize,
    ) -> SolvePlan {
        let compressed = auto_prefers_compressed(initial_candidates, nv * n);
        let chi = match config.chi_backend {
            ChiBackend::Dense => ChiBackend::Dense,
            ChiBackend::Rle => ChiBackend::Rle,
            ChiBackend::Auto => {
                if compressed {
                    ChiBackend::Rle
                } else {
                    ChiBackend::Dense
                }
            }
        };
        let slab = match config.slab_backend {
            SlabBackend::Dense => SlabBackend::Dense,
            SlabBackend::Sparse => SlabBackend::Sparse,
            SlabBackend::Auto => {
                if compressed {
                    SlabBackend::Sparse
                } else {
                    SlabBackend::Dense
                }
            }
        };
        SolvePlan {
            chi,
            slab,
            run_aware: chi == ChiBackend::Rle,
        }
    }

    /// Converts every χ vector to the plan's concrete backend (a no-op
    /// for vectors already there).
    pub fn apply_chi(&self, chi: &mut [ChiVec]) {
        for c in chi.iter_mut() {
            c.convert_to(self.chi);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn resolve_pins_every_axis_concrete() {
        let config = SolverConfig {
            chi_backend: ChiBackend::Auto,
            slab_backend: SlabBackend::Auto,
            ..SolverConfig::default()
        };
        // Dense seeding: 1000 candidates over a 10×100 space.
        let dense = SolvePlan::resolve(&config, 1000, 10, 100);
        assert_eq!(dense.chi, ChiBackend::Dense);
        assert_eq!(dense.slab, SlabBackend::Dense);
        assert!(!dense.run_aware);
        // Sparse seeding: 1 candidate over the same space.
        let sparse = SolvePlan::resolve(&config, 1, 10, 100);
        assert_eq!(sparse.chi, ChiBackend::Rle);
        assert_eq!(sparse.slab, SlabBackend::Sparse);
        assert!(sparse.run_aware);
    }

    #[test]
    fn explicit_backends_pass_through() {
        let config = SolverConfig {
            chi_backend: ChiBackend::Rle,
            slab_backend: SlabBackend::Dense,
            ..SolverConfig::default()
        };
        let plan = SolvePlan::resolve(&config, 1_000_000, 10, 100);
        assert_eq!(plan.chi, ChiBackend::Rle);
        assert_eq!(plan.slab, SlabBackend::Dense);
        assert!(plan.run_aware);
    }
}
