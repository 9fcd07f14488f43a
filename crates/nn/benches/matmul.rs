//! Microbenchmarks of the dense matmul kernels in isolation, so kernel
//! changes are measurable without running a whole embed trace.
//!
//! Shapes mirror the inference hot path: `rows × d` activations against
//! `d × d` weights at the serving width (24) and the training-default
//! width (48), tall cycle-stacked operands, the segmented attention
//! reductions, and the sparse feature-to-embed product.

use std::time::Duration;

use atlas_nn::Matrix;
use criterion::{criterion_group, criterion_main, Criterion};

/// Post-relu-like operand: ~half exact zeros, like a hidden state.
fn hidden_like(rows: usize, cols: usize, seed: u64) -> Matrix {
    Matrix::xavier(rows, cols, seed).map(|v| v.max(0.0))
}

/// Feature-like operand: ~85% exact zeros (one-hot plus a few channels).
fn feature_like(rows: usize, cols: usize) -> Matrix {
    let mut f = Matrix::zeros(rows, cols);
    for i in 0..rows {
        f.set(i, i % (cols.saturating_sub(6)).max(1), 1.0);
        f.set(i, cols - 2, 0.3);
        f.set(i, cols - 1, 0.7);
    }
    f
}

fn dense_linears(c: &mut Criterion) {
    let mut g = c.benchmark_group("matmul_linear");
    for &(rows, d) in &[(168usize, 24usize), (672, 24), (168, 48), (672, 48)] {
        let a = hidden_like(rows, d, 1);
        let w = Matrix::xavier(d, d, 2);
        let bias = Matrix::xavier(1, d, 3);
        g.bench_function(&format!("plain/{rows}x{d}x{d}"), |b| {
            b.iter(|| a.matmul(&w))
        });
        let mut out = Matrix::zeros(rows, d);
        g.bench_function(&format!("fused_bias_relu/{rows}x{d}x{d}"), |b| {
            b.iter(|| a.matmul_bias_act_rows_into(&w, &bias, |v| v.max(0.0), 0, rows, &mut out))
        });
    }
    g.finish();
}

fn attention_reductions(c: &mut Criterion) {
    let mut g = c.benchmark_group("matmul_attention");
    for &(n, d) in &[(20usize, 24usize), (168, 24), (168, 48)] {
        let blocks = 4;
        let pk = hidden_like(blocks * n, d, 4).map(|v| v + 0.01);
        let v = hidden_like(blocks * n, d, 5);
        let mut kv = Matrix::zeros(d, d);
        g.bench_function(&format!("kv_blocks/{blocks}x{n}x{d}"), |b| {
            b.iter(|| {
                for blk in 0..blocks {
                    pk.matmul_tn_block_into(&v, blk * n, n, &mut kv);
                    std::hint::black_box(&kv);
                }
            })
        });
        let mut ksum = vec![0.0; d];
        g.bench_function(&format!("ksum_blocks/{blocks}x{n}x{d}"), |b| {
            b.iter(|| {
                for blk in 0..blocks {
                    pk.col_sums_block_into(blk * n, n, &mut ksum);
                    std::hint::black_box(&ksum);
                }
            })
        });
    }
    g.finish();
}

fn sparse_embed(c: &mut Criterion) {
    let mut g = c.benchmark_group("matmul_embed");
    for &rows in &[168usize, 672] {
        let feats = feature_like(rows, 24);
        let w = Matrix::xavier(24, 24, 6);
        let bias = Matrix::xavier(1, 24, 7);
        let mut out = Matrix::zeros(rows, 24);
        g.bench_function(&format!("sparse_skip/{rows}x24x24"), |b| {
            b.iter(|| {
                feats.matmul_bias_act_sparse_rows_into(&w, &bias, |v| v.max(0.0), 0, rows, &mut out)
            })
        });
        g.bench_function(&format!("dense_tile/{rows}x24x24"), |b| {
            b.iter(|| feats.matmul_bias_act_rows_into(&w, &bias, |v| v.max(0.0), 0, rows, &mut out))
        });
    }
    g.finish();
}

fn config() -> Criterion {
    Criterion::default()
        .measurement_time(Duration::from_secs(2))
        .warm_up_time(Duration::from_millis(500))
        .sample_size(30)
}

criterion_group! {
    name = benches;
    config = config();
    targets = dense_linears, attention_reductions, sparse_embed
}
criterion_main!(benches);
