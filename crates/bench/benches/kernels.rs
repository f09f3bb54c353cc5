//! Criterion guards for the deterministic fast-path kernels: blocked gemm
//! vs the frozen seed kernel, the fused transposed entries, pooled
//! parallel dispatch, and the compiled simulation path vs the seed engine.
//! Every "fast" series here is pinned bitwise identical to its reference
//! by the tensor proptests and the cross-engine suite; these benches exist
//! so a later PR that quietly loses the speed (while staying correct)
//! shows up in the criterion history.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

use hanayo_cluster::topology::lonestar6;
use hanayo_core::config::{PipelineConfig, Scheme};
use hanayo_core::schedule::build_schedule;
use hanayo_model::{CostTable, ModelConfig};
use hanayo_sim::{
    compile_schedule, simulate_reference, try_simulate, try_simulate_compiled, SimOptions,
};
use hanayo_tensor::rng::{seeded, uniform};
use hanayo_tensor::Tensor;

fn dense(rows: usize, cols: usize, seed: u64) -> Tensor {
    uniform(&mut seeded(seed), rows, cols, 0.5)
}

fn bench_gemm_kernels(c: &mut Criterion) {
    let mut g = c.benchmark_group("gemm_kernels");
    let a = dense(64, 64, 1);
    let b = dense(64, 64, 2);
    g.bench_function("blocked_64x64x64", |bch| bch.iter(|| black_box(a.matmul(&b))));
    g.bench_function("reference_64x64x64", |bch| bch.iter(|| black_box(a.matmul_reference(&b))));

    // The satellite-bug shape: heavy reduction behind a tiny output.
    let deep_a = dense(4, 4096, 3);
    let deep_b = dense(4096, 4, 4);
    g.bench_function("blocked_4x4096x4", |bch| bch.iter(|| black_box(deep_a.matmul(&deep_b))));
    g.bench_function("reference_4x4096x4", |bch| {
        bch.iter(|| black_box(deep_a.matmul_reference(&deep_b)))
    });
    g.finish();
}

fn bench_fused_kernels(c: &mut Criterion) {
    let mut g = c.benchmark_group("fused_kernels");
    let a = dense(96, 64, 5);
    let b = dense(96, 80, 6);
    g.bench_function("fused_at_b", |bch| bch.iter(|| black_box(a.matmul_at_b(&b))));
    g.bench_function("two_step_at_b", |bch| bch.iter(|| black_box(a.transpose().matmul(&b))));
    let c1 = dense(64, 96, 7);
    let c2 = dense(80, 96, 8);
    g.bench_function("fused_a_bt", |bch| bch.iter(|| black_box(c1.matmul_a_bt(&c2))));
    g.bench_function("two_step_a_bt", |bch| bch.iter(|| black_box(c1.matmul(&c2.transpose()))));
    g.finish();
}

fn bench_pooled_dispatch(c: &mut Criterion) {
    let mut g = c.benchmark_group("pooled_dispatch");
    // Wide-but-shallow product: crosses the flops gate, so every
    // iteration pays one pool dispatch (pooled workers after this PR, a
    // fresh thread spawn per call before it).
    let a = dense(64, 128, 9);
    let b = dense(128, 64, 10);
    g.bench_function("par_matmul_64x128x64", |bch| bch.iter(|| black_box(a.matmul(&b))));
    g.finish();
}

fn bench_sim_paths(c: &mut Criterion) {
    let mut g = c.benchmark_group("sim_paths");
    let cfg = PipelineConfig::new(8, 16, Scheme::Hanayo { waves: 2 }).unwrap();
    let schedule = build_schedule(&cfg).unwrap();
    let cost = CostTable::build(&ModelConfig::bert64(), cfg.stages(), 1);
    let cluster = lonestar6(8);
    let opts = SimOptions::default();
    let compiled = compile_schedule(&schedule, &opts);
    g.bench_function("seed_engine_hanayo_w2_p8_b16", |bch| {
        bch.iter(|| black_box(simulate_reference(&schedule, &cost, &cluster, opts)))
    });
    g.bench_function("fast_engine_hanayo_w2_p8_b16", |bch| {
        bch.iter(|| black_box(try_simulate(&schedule, &cost, &cluster, opts).unwrap()))
    });
    g.bench_function("precompiled_hanayo_w2_p8_b16", |bch| {
        bch.iter(|| {
            black_box(try_simulate_compiled(&compiled, &schedule, &cost, &cluster, opts).unwrap())
        })
    });
    g.finish();
}

criterion_group!(
    kernels,
    bench_gemm_kernels,
    bench_fused_kernels,
    bench_pooled_dispatch,
    bench_sim_paths
);
criterion_main!(kernels);
