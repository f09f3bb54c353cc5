//! Criterion guard on the durable-checkpoint path at the size the
//! `train_wave` benchmark workload saves: Hanayo W=2 on 2 devices, eight
//! `Stage::mlp(_, 128, 2)` stages (about 268k `f32` weights, a 10 MB
//! file). `to_json` renders the envelope in memory, `save` streams it to a
//! temp file and renames it into place, `load` parses and CRC-checks it.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

use hanayo_ckpt::{config_fingerprint, Checkpoint, OptimizerState, RngCursor};
use hanayo_core::config::{PipelineConfig, Scheme};
use hanayo_core::schedule::build_schedule;
use hanayo_model::Recompute;
use hanayo_tensor::rng::seeded;
use hanayo_tensor::Stage;

fn train_wave_sized() -> Checkpoint {
    let cfg = PipelineConfig::new(2, 8, Scheme::Hanayo { waves: 2 }).unwrap();
    let schedule = build_schedule(&cfg).unwrap();
    let stages: Vec<Stage> =
        (0..schedule.stage_map.stages).map(|i| Stage::mlp(&mut seeded(i as u64), 128, 2)).collect();
    let fingerprint = config_fingerprint(&schedule, 1, 0.01, "mse", Recompute::None, &stages);
    Checkpoint {
        fingerprint,
        iteration: 64,
        world: 1,
        schedule,
        stages,
        optimizer: OptimizerState::Sgd { lr: 0.01 },
        losses: (0..64).map(|i| 1.0 / (i as f32 + 1.5)).collect(),
        peak_stash_bytes: vec![1 << 20, 1 << 19],
        rng: Some(RngCursor { seed: 1, draws: 4096 }),
        plan_json: None,
        trace: None,
    }
}

fn bench_checkpoint(c: &mut Criterion) {
    let mut g = c.benchmark_group("ckpt_train_wave");
    g.sample_size(10);
    let ckpt = train_wave_sized();
    let dir = std::env::temp_dir().join(format!("hanayo_ckpt_bench_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("checkpoint.json");
    g.bench_function("to_json", |b| b.iter(|| black_box(ckpt.to_json().unwrap())));
    g.bench_function("save", |b| b.iter(|| ckpt.save(black_box(&path)).unwrap()));
    g.bench_function("load", |b| b.iter(|| black_box(Checkpoint::load(&path).unwrap())));
    g.finish();
    std::fs::remove_dir_all(&dir).ok();
}

criterion_group!(ckpt, bench_checkpoint);
criterion_main!(ckpt);
