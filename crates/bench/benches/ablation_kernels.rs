//! Kernel-backend ablation: ns/word of the four word-level primitives
//! (`or`, `and`, `subset`, `popcount`) under each `KernelBackend`
//! instantiation. Both backends compute bit-identical results — the
//! only thing this bench can show is wall time per word.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use dualsim_bitmatrix::kernels::with_backend;
use dualsim_bitmatrix::{BitVec, KernelBackend};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::hint::black_box;

const N: usize = 100_000;
const WORDS: u64 = (N as u64).div_ceil(64);

fn random_vec(rng: &mut StdRng, ones: usize) -> BitVec {
    let idx: Vec<u32> = (0..ones).map(|_| rng.gen_range(0..N as u32)).collect();
    BitVec::from_indices(N, &idx)
}

fn kernels(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(9);
    let a = random_vec(&mut rng, N / 3);
    let b2 = random_vec(&mut rng, N / 3);
    let sub = {
        let mut s = a.clone();
        s.and_assign(&b2);
        s
    };

    let mut group = c.benchmark_group("kernels");
    group.sample_size(20);
    group.warm_up_time(std::time::Duration::from_millis(300));
    group.measurement_time(std::time::Duration::from_millis(1200));
    group.throughput(Throughput::Elements(WORDS));

    for backend in [KernelBackend::Scalar, KernelBackend::Simd] {
        if backend.resolve() != backend {
            // Simd without AVX2 support runs Scalar — benching it again
            // would just duplicate the scalar rows.
            continue;
        }
        with_backend(backend, || {
            group.bench_with_input(BenchmarkId::new("or", backend.name()), &(), |b, ()| {
                b.iter(|| {
                    let mut x = a.clone();
                    x.or_assign(&b2);
                    black_box(&x);
                })
            });
            group.bench_with_input(BenchmarkId::new("and", backend.name()), &(), |b, ()| {
                b.iter(|| {
                    let mut x = a.clone();
                    x.and_assign(&b2);
                    black_box(&x);
                })
            });
            group.bench_with_input(BenchmarkId::new("subset", backend.name()), &(), |b, ()| {
                b.iter(|| black_box(sub.is_subset_of(&a)))
            });
            group.bench_with_input(
                BenchmarkId::new("popcount", backend.name()),
                &(),
                |b, ()| b.iter(|| black_box(a.count_ones())),
            );
        });
    }
    group.finish();
}

criterion_group!(benches, kernels);
criterion_main!(benches);
