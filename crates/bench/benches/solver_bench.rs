//! Criterion benchmarks for the numerical substrate. Doubles as the
//! calibration run for the simulator's Mflop/s model (see EXPERIMENTS.md)
//! and as the GEMM ablation DESIGN.md calls out (naive vs register-tiled vs
//! threaded, plus the in-place `gemm_update` kernel at the LU trailing-update
//! shape).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use netsolve_core::{CsrMatrix, Matrix, Rng64};
use netsolve_solvers::{blas, cholesky, fft, iterative, lu, qr};

fn bench_gemm_ablation(c: &mut Criterion) {
    let mut group = c.benchmark_group("gemm_ablation");
    group.sample_size(10);
    let mut rng = Rng64::new(1);
    // Both sides of `dgemm`'s threading rule (`blas::threads_pay`): where
    // the threaded rows overtake the blocked ones is the crossover.
    for &n in &[64usize, 192, 256, 512] {
        let a = Matrix::random(n, n, &mut rng);
        let b = Matrix::random(n, n, &mut rng);
        group.throughput(Throughput::Elements((2 * n * n * n) as u64));
        group.bench_with_input(BenchmarkId::new("naive", n), &(&a, &b), |bch, (a, b)| {
            bch.iter(|| blas::dgemm_naive(a, b).unwrap())
        });
        group.bench_with_input(BenchmarkId::new("blocked", n), &(&a, &b), |bch, (a, b)| {
            bch.iter(|| blas::dgemm_blocked(a, b).unwrap())
        });
        group.bench_with_input(BenchmarkId::new("threaded", n), &(&a, &b), |bch, (a, b)| {
            bch.iter(|| blas::dgemm_threaded(a, b, 0).unwrap())
        });
    }
    // The kernel where LU spends its flops, at the shape LU calls it with:
    // a 480x480 trailing block of a 512-order matrix updated in place by a
    // 32-column panel (leading dimension 512 throughout). Its `/packed`
    // twin reads `A` at the stride LU's packed `L21` has, 61 cache lines:
    // at 512 the 32 columns of a k-block share one L1 set.
    let (ld, m, k) = (512usize, 480usize, 32usize);
    let b = Matrix::random(k, m, &mut rng);
    let mut c_buf = Matrix::random(ld, m, &mut rng);
    group.throughput(Throughput::Elements((2 * m * m * k) as u64));
    for (name, lda) in [
        ("gemm_update/480x480x32", ld),
        ("gemm_update/480x480x32/packed", 488),
    ] {
        let a = Matrix::random(lda, k, &mut rng);
        group.bench_function(name, |bch| {
            bch.iter(|| {
                let c = std::hint::black_box(c_buf.as_mut_slice());
                blas::gemm_update(c, ld, a.as_slice(), lda, b.as_slice(), k, m, m, k, -1.0)
            })
        });
    }
    // The first trailing update of a 509-order LU: 477 rows and columns,
    // ragged against every tile (477 = 24·19 + 21 = 8·59 + 5), so the
    // AVX-512 instance's two 8x4 strips run beside its whole tiles.
    let (ld, m, lda) = (509usize, 477usize, 488usize);
    let a = Matrix::random(lda, k, &mut rng);
    let b = Matrix::random(k, m, &mut rng);
    let mut c_buf = Matrix::random(ld, m, &mut rng);
    group.throughput(Throughput::Elements((2 * m * m * k) as u64));
    group.bench_function("gemm_update/477x477x32", |bch| {
        bch.iter(|| {
            let c = std::hint::black_box(c_buf.as_mut_slice());
            blas::gemm_update(c, ld, a.as_slice(), lda, b.as_slice(), k, m, m, k, -1.0)
        })
    });
    group.finish();
}

fn bench_dense_solvers(c: &mut Criterion) {
    let mut group = c.benchmark_group("dense_solvers");
    group.sample_size(10);
    let mut rng = Rng64::new(2);
    // dgesv does ~(2/3)n^3 flops and dposv half that — criterion's element
    // throughput lets us read effective Mflop/s for simulator calibration.
    // 192 and 512 are the orders the whole-call benchmark solves; 509 is
    // ragged against every GEMM tile, so its trailing updates run the
    // kernel's edge paths.
    for &n in &[192usize, 509, 512, 1024] {
        let a = Matrix::random_diag_dominant(n, &mut rng);
        let b: Vec<f64> = (0..n).map(|i| (i as f64).sin()).collect();
        group.throughput(Throughput::Elements((2 * n * n * n / 3) as u64));
        group.bench_with_input(BenchmarkId::new("dgesv", n), &(&a, &b), |bch, (a, b)| {
            bch.iter(|| lu::dgesv(std::hint::black_box(a), std::hint::black_box(b)).unwrap())
        });
        if n == 192 {
            group.bench_with_input(BenchmarkId::new("dgels", n), &(&a, &b), |bch, (a, b)| {
                bch.iter(|| qr::dgels(std::hint::black_box(a), std::hint::black_box(b)).unwrap())
            });
        }
        // (`random_spd` is a naive O(n^3) build: too slow to set up at 1024.)
        if n == 192 || n == 512 {
            let spd = Matrix::random_spd(n, &mut rng);
            group.throughput(Throughput::Elements((n * n * n / 3) as u64));
            group.bench_with_input(
                BenchmarkId::new("dposv", n),
                &(&spd, &b),
                |bch, (spd, b)| {
                    bch.iter(|| {
                        cholesky::dposv(std::hint::black_box(spd), std::hint::black_box(b)).unwrap()
                    })
                },
            );
        }
    }
    group.finish();
}

fn bench_sparse_and_fft(c: &mut Criterion) {
    let mut group = c.benchmark_group("sparse_fft");
    group.sample_size(10);
    let lap = CsrMatrix::laplacian_2d(48, 48);
    let n = lap.rows();
    let b: Vec<f64> = (0..n).map(|i| ((i % 17) as f64) - 8.0).collect();
    group.bench_function("cg_laplacian_48x48", |bch| {
        bch.iter(|| iterative::cg(&lap, &b, 1e-8, 10_000).unwrap())
    });
    group.bench_function("spmv_laplacian_48x48", |bch| {
        bch.iter(|| lap.spmv(std::hint::black_box(&b)).unwrap())
    });

    let mut rng = Rng64::new(3);
    let len = 4096;
    let re: Vec<f64> = (0..len).map(|_| rng.uniform(-1.0, 1.0)).collect();
    let im = vec![0.0; len];
    group.bench_function("fft_4096", |bch| {
        bch.iter(|| fft::fft(std::hint::black_box(&re), std::hint::black_box(&im)).unwrap())
    });
    group.finish();
}

fn bench_executor_dispatch(c: &mut Criterion) {
    // The cost of the mnemonic dispatch layer itself must be negligible.
    let mut group = c.benchmark_group("executor");
    let x = vec![1.0f64; 64];
    let args = [netsolve_core::DataObject::Vector(x)];
    group.bench_function("dispatch_dnrm2_64", |bch| {
        bch.iter(|| netsolve_solvers::execute("dnrm2", std::hint::black_box(&args)).unwrap())
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_gemm_ablation,
    bench_dense_solvers,
    bench_sparse_and_fft,
    bench_executor_dispatch
);
criterion_main!(benches);
