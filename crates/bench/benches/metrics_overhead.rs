//! Criterion guard on the cost side of the zero-perturbation contract:
//! each pair below runs the same instrumented hot path with the metrics
//! registry disabled and enabled. Disabled instrumentation is one
//! relaxed atomic load and an untaken branch, so the `disabled` series
//! must sit on top of the uninstrumented baselines in `kernels.rs`, and
//! the `enabled` series must stay within noise of `disabled` — the
//! structured counters are either plain locals flushed once per run
//! (workers, engine) or one shard-local bump per dispatch (gemm).

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

use hanayo_cluster::topology::lonestar6;
use hanayo_core::config::{PipelineConfig, Scheme};
use hanayo_core::schedule::build_schedule;
use hanayo_model::builders::MicroModel;
use hanayo_model::{CostTable, ModelConfig};
use hanayo_runtime::trainer::{synthetic_data, train, TrainerConfig};
use hanayo_runtime::LossKind;
use hanayo_sim::{compile_schedule, try_simulate_compiled, SimOptions};
use hanayo_tensor::rng::{seeded, uniform};

/// Run `f` under criterion with the registry forced off, then on; the
/// registry is wiped afterwards so consecutive groups start clean.
fn off_on_pair(g: &mut criterion::BenchmarkGroup, label: &str, mut f: impl FnMut() + Copy) {
    g.bench_function(&format!("{label}_disabled"), |bch| {
        hanayo_metrics::set_enabled(false);
        bch.iter(&mut f);
    });
    g.bench_function(&format!("{label}_enabled"), |bch| {
        hanayo_metrics::set_enabled(true);
        bch.iter(&mut f);
        hanayo_metrics::set_enabled(false);
        hanayo_metrics::reset();
    });
}

fn bench_gemm_dispatch(c: &mut Criterion) {
    let mut g = c.benchmark_group("metrics_gemm_dispatch");
    let a = uniform(&mut seeded(1), 64, 64, 0.5);
    let b = uniform(&mut seeded(2), 64, 64, 0.5);
    off_on_pair(&mut g, "matmul_64x64x64", || {
        black_box(a.matmul(&b));
    });
    g.finish();
}

fn bench_sim_flush(c: &mut Criterion) {
    let mut g = c.benchmark_group("metrics_sim_flush");
    let cfg = PipelineConfig::new(8, 16, Scheme::Hanayo { waves: 2 }).unwrap();
    let schedule = build_schedule(&cfg).unwrap();
    let cost = CostTable::build(&ModelConfig::bert64(), cfg.stages(), 1);
    let cluster = lonestar6(8);
    let opts = SimOptions::default();
    let compiled = compile_schedule(&schedule, &opts);
    off_on_pair(&mut g, "compiled_hanayo_w2_p8_b16", || {
        black_box(try_simulate_compiled(&compiled, &schedule, &cost, &cluster, opts).unwrap());
    });
    g.finish();
}

fn bench_train_instrumented(c: &mut Criterion) {
    let mut g = c.benchmark_group("metrics_train");
    let cfg = PipelineConfig::new(8, 8, Scheme::Hanayo { waves: 2 }).unwrap();
    let schedule = build_schedule(&cfg).unwrap();
    let stages = schedule.stage_map.stages;
    let model = MicroModel { width: 16, total_blocks: stages as usize, seed: 7 };
    let data = synthetic_data(11, 1, 8, 4, 16);
    let trainer = TrainerConfig::new(schedule, model.build_stages(stages), 0.01, LossKind::Mse);
    off_on_pair(&mut g, "train_p8_m8_w16_hanayo_w2", || {
        black_box(train(&trainer, &data));
    });
    g.finish();
}

criterion_group!(benches, bench_gemm_dispatch, bench_sim_flush, bench_train_instrumented);
criterion_main!(benches);
