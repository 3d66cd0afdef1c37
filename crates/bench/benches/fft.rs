//! Criterion microbenchmarks of the serial FFT kernels: complex
//! mixed-radix, real-half-complex, the Bluestein fallback, the 3/2-rule
//! pad/truncate passes, and lane-blocked against single-line batches.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use dns_fft::dealias::{pad_full, truncate_full};
use dns_fft::{CfftPlan, Direction, RealLayout, RfftPlan, C64};

fn bench_cfft(c: &mut Criterion) {
    let mut g = c.benchmark_group("cfft");
    for n in [64usize, 256, 1024, 4096] {
        let plan = CfftPlan::new(n, Direction::Forward);
        let mut scratch = plan.make_scratch();
        let data: Vec<C64> = (0..n)
            .map(|i| C64::new((i as f64).sin(), (i as f64).cos()))
            .collect();
        g.throughput(Throughput::Elements(n as u64));
        g.bench_with_input(BenchmarkId::new("mixed_radix", n), &n, |b, _| {
            let mut x = data.clone();
            b.iter(|| {
                x.copy_from_slice(&data);
                plan.execute(&mut x, &mut scratch);
                std::hint::black_box(&x);
            })
        });
    }
    // non-power-of-two production size (dealiased 3N/2 grids)
    for n in [96usize, 1536] {
        let plan = CfftPlan::new(n, Direction::Forward);
        let mut scratch = plan.make_scratch();
        let data: Vec<C64> = (0..n).map(|i| C64::new(i as f64, 0.5)).collect();
        g.bench_with_input(BenchmarkId::new("radix_3_smooth", n), &n, |b, _| {
            let mut x = data.clone();
            b.iter(|| {
                x.copy_from_slice(&data);
                plan.execute(&mut x, &mut scratch);
                std::hint::black_box(&x);
            })
        });
    }
    // prime length via Bluestein
    let n = 1021usize;
    let plan = CfftPlan::new(n, Direction::Forward);
    let mut scratch = plan.make_scratch();
    let data: Vec<C64> = (0..n).map(|i| C64::new(i as f64, 0.0)).collect();
    g.bench_function("bluestein_prime_1021", |b| {
        let mut x = data.clone();
        b.iter(|| {
            x.copy_from_slice(&data);
            plan.execute(&mut x, &mut scratch);
            std::hint::black_box(&x);
        })
    });
    g.finish();
}

fn bench_rfft(c: &mut Criterion) {
    let mut g = c.benchmark_group("rfft");
    for n in [256usize, 2048] {
        let plan = RfftPlan::new(n, RealLayout::ElideNyquist);
        let mut scratch = plan.make_scratch();
        let data: Vec<f64> = (0..n).map(|i| (0.1 * i as f64).sin()).collect();
        let mut spec = vec![C64::new(0.0, 0.0); plan.spectrum_len()];
        g.throughput(Throughput::Elements(n as u64));
        g.bench_with_input(BenchmarkId::new("forward", n), &n, |b, _| {
            b.iter(|| {
                plan.forward(&data, &mut spec, &mut scratch);
                std::hint::black_box(&spec);
            })
        });
    }
    g.finish();
}

fn bench_dealias(c: &mut Criterion) {
    let mut g = c.benchmark_group("dealias");
    let n = 1024usize;
    let src: Vec<C64> = (0..n).map(|i| C64::new(i as f64, 1.0)).collect();
    let mut padded = vec![C64::new(0.0, 0.0); 3 * n / 2];
    g.bench_function("pad_full_1024_to_1536", |b| {
        b.iter(|| {
            pad_full(&src, &mut padded);
            std::hint::black_box(&padded);
        })
    });
    let mut back = vec![C64::new(0.0, 0.0); n];
    g.bench_function("truncate_full_1536_to_1024", |b| {
        b.iter(|| {
            truncate_full(&padded, &mut back);
            std::hint::black_box(&back);
        })
    });
    g.finish();
}

fn bench_strided(c: &mut Criterion) {
    // why pencil codes reorder before transforming (section 4.2): the
    // same transforms on strided data pay the gather/scatter traffic
    let mut g = c.benchmark_group("strided_vs_contiguous");
    let n = 512usize;
    let lines = 64usize;
    let plan = CfftPlan::new(n, Direction::Forward);
    let data: Vec<C64> = (0..n * lines).map(|i| C64::new(i as f64, 0.5)).collect();
    g.bench_function("contiguous_lines", |b| {
        let mut x = data.clone();
        let mut scratch = plan.make_scratch();
        b.iter(|| {
            plan.execute_many(&mut x, &mut scratch);
            std::hint::black_box(&x);
        })
    });
    g.bench_function("strided_lines", |b| {
        let mut x = data.clone();
        let mut scratch = vec![C64::new(0.0, 0.0); n + plan.scratch_len()];
        b.iter(|| {
            for l in 0..lines {
                plan.execute_strided(&mut x, l, lines, &mut scratch);
            }
            std::hint::black_box(&x);
        })
    });
    g.finish();
}

fn bench_lines_batched(c: &mut Criterion) {
    // the lane-blocked multi-line entry against a loop over the
    // single-line one, at the solver's padded line lengths
    let mut g = c.benchmark_group("lines_batched");
    let lines = 512usize;
    for n in [36usize, 72, 96, 192] {
        let plan = CfftPlan::new(n, Direction::Forward);
        let mut scratch = plan.make_scratch();
        let data: Vec<C64> = (0..n * lines)
            .map(|i| C64::new((i as f64).sin(), (i as f64).cos()))
            .collect();
        g.throughput(Throughput::Elements((n * lines) as u64));
        g.bench_with_input(BenchmarkId::new("single_line_loop", n), &n, |b, _| {
            let mut x = data.clone();
            b.iter(|| {
                x.copy_from_slice(&data);
                for line in x.chunks_exact_mut(n) {
                    plan.execute(line, &mut scratch);
                }
                std::hint::black_box(&x);
            })
        });
        g.bench_with_input(BenchmarkId::new("multi_line", n), &n, |b, _| {
            let mut x = data.clone();
            b.iter(|| {
                x.copy_from_slice(&data);
                plan.execute_many(&mut x, &mut scratch);
                std::hint::black_box(&x);
            })
        });
    }
    g.finish();
}

criterion_group!(
    benches,
    bench_cfft,
    bench_rfft,
    bench_dealias,
    bench_strided,
    bench_lines_batched
);
criterion_main!(benches);
