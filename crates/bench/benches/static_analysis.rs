//! Benchmarks for the static-analysis fast paths this crate ships:
//!
//! * `move_check` — the incremental per-move validity check
//!   ([`hanayo_core::schedule::search::check_move`]) against re-running
//!   the full table checker on every candidate, over the same seeded
//!   move stream `local_search` draws.
//! * `static_prune` — the tuner's OOM-heavy wide sweep, whose static
//!   analyzer pre-pass replaces a simulation with a liveness replay for
//!   every plan it rejects; the bench prints the number of simulate calls
//!   avoided (= recorded OOM rejections) once at startup so the timing
//!   has its denominator next to it.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

use hanayo_cluster::topology::lonestar6;
use hanayo_core::config::{PipelineConfig, Scheme};
use hanayo_core::schedule::build_compute_schedule;
use hanayo_core::schedule::search::{apply_move, check_move, sample_legal_moves, TableMove};
use hanayo_core::schedule::table::{check_table_with, ScheduleTable, TableLimits};
use hanayo_model::ModelConfig;
use hanayo_sim::{tune_serial, Rejection, TuneOptions};

/// The move-check workload: a Dapple table at `(P=8, B=8)` and a seeded
/// stream of applicable candidate moves, each paired with the candidate
/// table it produces (what `local_search` validates per round).
fn move_workload() -> (TableLimits, Vec<(ScheduleTable, TableMove)>) {
    let cfg = PipelineConfig::new(8, 8, Scheme::Dapple).unwrap();
    let table = ScheduleTable::from_compute(&build_compute_schedule(&cfg).unwrap());
    let limits = TableLimits::default();
    let candidates: Vec<(ScheduleTable, TableMove)> =
        sample_legal_moves(&table, 0x48414e41594f, 256)
            .into_iter()
            .filter_map(|mv| {
                let mut cand = table.clone();
                apply_move(&mut cand, mv).then_some((cand, mv))
            })
            .collect();
    assert!(candidates.len() >= 64, "degenerate move sample");
    (limits, candidates)
}

fn bench_move_check(c: &mut Criterion) {
    let (limits, candidates) = move_workload();
    let mut g = c.benchmark_group("move_check");
    g.bench_function("full_table_checker", |b| {
        b.iter(|| {
            let mut ok = 0usize;
            for (cand, _) in &candidates {
                if check_table_with(black_box(cand), limits).is_ok() {
                    ok += 1;
                }
            }
            black_box(ok)
        })
    });
    g.bench_function("incremental", |b| {
        b.iter(|| {
            let mut ok = 0usize;
            for (cand, mv) in &candidates {
                if check_move(black_box(cand), *mv, limits).is_ok() {
                    ok += 1;
                }
            }
            black_box(ok)
        })
    });
    g.finish();
}

fn bench_static_prune(c: &mut Criterion) {
    // The OOM-heavy sweep from the tuner's static-prune test: BERT on
    // 8 A100s is memory-starved at global batch 16, so a large share of
    // the wide plan grid dies on capacity — exactly what the static
    // pre-pass skips simulating.
    let model = ModelConfig::bert64();
    let cluster = lonestar6(8);
    let opts = TuneOptions { waves: vec![1, 2, 4], min_pp: 4, ..Default::default() }.wide();

    let tuning = tune_serial(&model, &cluster, 16, 4, &opts);
    let avoided = tuning.rejected.iter().filter(|r| matches!(r, Rejection::Oom { .. })).count();
    eprintln!(
        "static prune: {avoided} of {} evaluated plans rejected statically \
         (simulate calls avoided per sweep)",
        tuning.ranked.len() + tuning.rejected.len()
    );

    let mut g = c.benchmark_group("static_prune");
    g.sample_size(10);
    g.bench_function("on", |b| b.iter(|| black_box(tune_serial(&model, &cluster, 16, 4, &opts))));
    g.finish();
}

criterion_group!(benches, bench_move_check, bench_static_prune);
criterion_main!(benches);
