//! Per-component cost: surrogate model fit/predict — the dominant
//! "think time" of the model-based tuners (ytopt RF, XGB GBT).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use surrogate::forest::RandomForest;
use surrogate::gbt::GradientBoosting;
use surrogate::tree::RegressionTree;
use surrogate::Regressor;

fn dataset(n: usize, d: usize) -> (Vec<Vec<f64>>, Vec<f64>) {
    let x: Vec<Vec<f64>> = (0..n)
        .map(|i| {
            (0..d)
                .map(|j| ((i * 31 + j * 17) % 97) as f64 / 97.0)
                .collect()
        })
        .collect();
    let y: Vec<f64> = x
        .iter()
        .map(|r| {
            r.iter()
                .enumerate()
                .map(|(j, v)| v * (j + 1) as f64)
                .sum::<f64>()
                + r[0] * r[1]
        })
        .collect();
    (x, y)
}

fn bench_fit(c: &mut Criterion) {
    let mut g = c.benchmark_group("surrogate_fit");
    for &n in &[50usize, 100, 200] {
        let (x, y) = dataset(n, 6);
        g.bench_with_input(BenchmarkId::new("rf32", n), &n, |b, _| {
            b.iter(|| {
                let mut rf = RandomForest::new(32).with_seed(1);
                rf.fit(&x, &y);
                rf
            })
        });
        g.bench_with_input(BenchmarkId::new("gbt40", n), &n, |b, _| {
            b.iter(|| {
                let mut m = GradientBoosting::new(40).with_max_depth(4).with_seed(1);
                m.fit(&x, &y);
                m
            })
        });
        g.bench_with_input(BenchmarkId::new("tree", n), &n, |b, _| {
            b.iter(|| {
                let mut t = RegressionTree::new(12);
                t.fit(&x, &y);
                t
            })
        });
    }
    g.finish();
}

/// The two shapes a model-based ask has on the paper's problems: LU and
/// Cholesky (2 tile ranks, the 400-point grid scored exhaustively) and
/// 3mm (6 tile ranks, 1 024 samples + 64 incumbent neighbours), with the
/// 10–100 observations a 100-evaluation session fits on. Features are
/// integer ranks, so splits meet the ties the encoded configurations have.
fn ask_shape(n_obs: usize, d: usize, n_cand: usize) -> (Vec<Vec<f64>>, Vec<f64>, Vec<Vec<f64>>) {
    let ranks = |n: usize, salt: usize| -> Vec<Vec<f64>> {
        (0..n)
            .map(|i| {
                (0..d)
                    .map(|j| {
                        // Multiplicative hash: the features of a row are
                        // unrelated, rows rarely repeat.
                        let h = ((i * 8 + j + salt) as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
                        ((h >> 40) % 20) as f64
                    })
                    .collect()
            })
            .collect()
    };
    let x = ranks(n_obs, 0);
    let y: Vec<f64> = x
        .iter()
        .map(|r| {
            1.0 + r
                .iter()
                .enumerate()
                .map(|(j, v)| (v - 3.0 - j as f64).powi(2))
                .sum::<f64>()
        })
        .collect();
    (x, y, ranks(n_cand, 7))
}

fn bench_ask(c: &mut Criterion) {
    let mut g = c.benchmark_group("surrogate_ask");
    for &(d, n_cand) in &[(2usize, 400usize), (6, 1088)] {
        for &n_obs in &[10usize, 55, 100] {
            let (x, y, cand) = ask_shape(n_obs, d, n_cand);
            let id = format!("{d}f_x{n_cand}");
            g.bench_with_input(
                BenchmarkId::new(format!("fit_rf32/{id}"), n_obs),
                &n_obs,
                |b, _| {
                    b.iter(|| {
                        let mut rf = RandomForest::new(32).with_seed(1);
                        rf.fit(&x, &y);
                        rf
                    })
                },
            );
            let mut rf = RandomForest::new(32).with_seed(1);
            rf.fit(&x, &y);
            g.bench_with_input(
                BenchmarkId::new(format!("predict_with_std/{id}"), n_obs),
                &n_obs,
                |b, _| b.iter(|| rf.predict_with_std_batch(&cand)),
            );
        }
    }
    g.finish();
}

criterion_group!(benches, bench_fit, bench_ask);
criterion_main!(benches);
