//! `train_wave`: threaded training of the paper's wave schedule, with a
//! durable checkpoint every [`CKPT_EVERY`] iterations.
//!
//! One operation is one iteration: `try_train` on that iteration's data,
//! continuing from the previous operation's stages. The 16th iteration of
//! each group is followed by `checkpoint_of` + `Checkpoint::save`, whose
//! stall counts toward throughput but not toward iteration latency.

use crate::outcome::catch;
use crate::registry::{delta, ratio, Reading};
use crate::report::{out_dir, Block, Check, Phase, Run, SETUP_REPS};
use crate::spans::{Span, Tracer};
use crate::stats::median;
use crate::system::CpuTicks;
use crate::Args;
use hanayo_ckpt::Checkpoint;
use hanayo_core::config::{PipelineConfig, Scheme};
use hanayo_core::schedule::build_schedule;
use hanayo_model::builders::MicroModel;
use hanayo_runtime::trainer::{sequential_reference, synthetic_data};
use hanayo_runtime::worker::IterationData;
use hanayo_runtime::{
    checkpoint_of, fingerprint_of, try_train, LossKind, TrainOutput, TrainerConfig,
};
use hanayo_tensor::Stage;
use hanayo_trace::TraceKind;
use std::path::PathBuf;
use std::time::Instant;

/// One thread per device is all the runtime needs; the gemm pool stays
/// inline so that the two device threads are the only runnable ones.
pub const THREADS: usize = 1;
const DEVICES: u32 = 2;
const WAVES: u32 = 2;
const BLOCKS: usize = 16;
const WIDTH: usize = 128;
const MICRO_BATCHES: usize = 8;
const ROWS: usize = 16;
const LR: f32 = 0.01;
const CKPT_EVERY: u64 = 16;
/// Checkpoint groups per measured block.
const GROUPS_PER_BLOCK: u64 = 2;
/// Distinct iterations of data generated at set-up and cycled through.
const DATA_POOL: usize = 16;
const SAMPLES_PER_ITERATION: f64 = (MICRO_BATCHES * ROWS) as f64;

struct Job {
    trainer: TrainerConfig,
    data: Vec<IterationData>,
}

/// Schedule, stages, data pool and one warm-up iteration.
fn setup(seed: u64) -> Result<Job, String> {
    let cfg = PipelineConfig::new(DEVICES, MICRO_BATCHES as u32, Scheme::Hanayo { waves: WAVES })
        .map_err(|e| e.to_string())?;
    let schedule = build_schedule(&cfg).map_err(|e| e.to_string())?;
    let model = MicroModel { width: WIDTH, total_blocks: BLOCKS, seed };
    let stages = model.build_stages(schedule.stage_map.stages);
    let data = synthetic_data(seed, DATA_POOL, MICRO_BATCHES, ROWS, WIDTH);
    let trainer = TrainerConfig::new(schedule, stages, LR, LossKind::Mse);
    try_train(&trainer, &data[..1]).map_err(|e| format!("warm-up iteration: {e}"))?;
    Ok(Job { trainer, data })
}

/// The last checkpoint written, for the end-of-run check.
struct Saved {
    path: PathBuf,
    fingerprint: u64,
    stages: Vec<Stage>,
}

/// Sums over the traced window.
#[derive(Default)]
struct TraceSums {
    iterations: f64,
    fwd_s: f64,
    bwd_s: f64,
    optim_s: f64,
    recv_s: f64,
    send_s: f64,
    bubble: f64,
    launch_s: f64,
    parked_peak: usize,
    stash_peak: usize,
    checkpoints: f64,
    capture_s: f64,
    save_s: f64,
    file_bytes: f64,
    state_bytes: f64,
}

struct State {
    job: Job,
    next_op: u64,
    dir: PathBuf,
    saved: Option<Saved>,
    sums: TraceSums,
}

/// Fold one traced iteration's execution trace into the sums, and record
/// its device spans as lane children of the `try_train` span.
fn record_trace(
    sums: &mut TraceSums,
    tracer: &mut Tracer,
    out: &TrainOutput,
    call: usize,
    wall_s: f64,
) {
    let Some(trace) = &out.trace else { return };
    let (op, base, end) = {
        let s = &tracer.spans()[call];
        (s.op, s.start_ns, s.end_ns)
    };
    for e in &trace.events {
        let d = e.duration();
        match e.kind {
            TraceKind::Fwd => sums.fwd_s += d,
            TraceKind::Bwd | TraceKind::Recompute => sums.bwd_s += d,
            TraceKind::Optim => sums.optim_s += d,
            TraceKind::Recv => sums.recv_s += d,
            TraceKind::Send | TraceKind::Allreduce => sums.send_s += d,
        }
        let at = |t: f64| (base + (t * 1e9) as u64).min(end);
        tracer.record(Span {
            name: e.kind.label(),
            layer: if e.kind.is_compute() { "tensor" } else { "runtime" },
            op,
            parent: Some(call),
            lane: Some(e.device),
            start_ns: at(e.t_start),
            end_ns: at(e.t_end),
        });
    }
    sums.iterations += 1.0;
    sums.bubble += trace.bubble_ratio();
    sums.launch_s += (wall_s - trace.makespan()).max(0.0);
    sums.parked_peak =
        sums.parked_peak.max(out.peak_mailbox_parked.iter().copied().max().unwrap_or(0));
    sums.stash_peak = sums.stash_peak.max(out.peak_stash_bytes.iter().copied().max().unwrap_or(0));
}

/// `checkpoint_of` + `Checkpoint::save`, the durable-checkpoint path.
fn checkpoint(
    st: &mut State,
    out: &TrainOutput,
    iterations: u64,
    mut tracer: Option<&mut Tracer>,
) -> Result<(), String> {
    let op = st.next_op - 1;
    let root = tracer.as_deref_mut().map(|t| t.open("train.checkpoint", "bench", op, None));
    let span = |t: &mut Option<&mut Tracer>, name| {
        t.as_deref_mut().map(|t| t.open(name, "ckpt", op, root))
    };
    let close = |t: &mut Option<&mut Tracer>, id: Option<usize>| {
        if let (Some(t), Some(id)) = (t.as_deref_mut(), id) {
            t.close(id);
        }
    };
    let t0 = Instant::now();
    let s = span(&mut tracer, "ckpt.checkpoint_of");
    let ckpt = checkpoint_of(&st.job.trainer, out, iterations as u32, 1);
    close(&mut tracer, s);
    let t1 = Instant::now();
    let path = st.dir.join("checkpoint.json");
    let s = span(&mut tracer, "ckpt.save");
    let saved = ckpt.save(&path);
    close(&mut tracer, s);
    let t2 = Instant::now();
    close(&mut tracer, root);
    saved.map_err(|e| format!("checkpoint save: {e}"))?;
    if tracer.is_some() {
        let sums = &mut st.sums;
        sums.checkpoints += 1.0;
        sums.capture_s += (t1 - t0).as_secs_f64();
        sums.save_s += (t2 - t1).as_secs_f64();
        sums.file_bytes += std::fs::metadata(&path).map_or(0, |m| m.len()) as f64;
        sums.state_bytes += ckpt.state_bytes() as f64;
    }
    st.saved =
        Some(Saved { path, fingerprint: fingerprint_of(&st.job.trainer, 1), stages: ckpt.stages });
    Ok(())
}

/// Whole blocks of [`GROUPS_PER_BLOCK`] groups — each [`CKPT_EVERY`]
/// iterations and their checkpoint — at least one, until `seconds` have
/// passed.
fn window(st: &mut State, run: &mut Run, seconds: f64, mut tracer: Option<&mut Tracer>) -> Phase {
    st.job.trainer.trace = tracer.is_some();
    let mut phase = Phase::default();
    let start = Instant::now();
    loop {
        let mut block = Block::default();
        let ticks = CpuTicks::now();
        let block_start = Instant::now();
        for _ in 0..GROUPS_PER_BLOCK * CKPT_EVERY {
            let op = st.next_op;
            st.next_op += 1;
            run.tally.attempted += 1;
            let data = std::slice::from_ref(&st.job.data[op as usize % DATA_POOL]);
            let root = tracer.as_deref_mut().map(|t| t.open("train.iteration", "bench", op, None));
            let call =
                tracer.as_deref_mut().map(|t| t.open("runtime.try_train", "runtime", op, root));
            let t0 = Instant::now();
            let result = catch(|| try_train(&st.job.trainer, data));
            let wall = t0.elapsed().as_secs_f64();
            if let (Some(t), Some(call)) = (tracer.as_deref_mut(), call) {
                t.close(call);
            }
            match result {
                Ok(Ok(mut out)) => {
                    block.latencies_ms.push(wall * 1e3);
                    block.work += SAMPLES_PER_ITERATION;
                    if let (Some(t), Some(call)) = (tracer.as_deref_mut(), call) {
                        record_trace(&mut st.sums, t, &out, call, wall);
                    }
                    // `checkpoint_of` copies the trace into the checkpoint;
                    // without it the traced window saves the same bytes as
                    // the untraced one.
                    out.trace = None;
                    if let (Some(t), Some(root)) = (tracer.as_deref_mut(), root) {
                        t.close(root);
                    }
                    if st.next_op.is_multiple_of(CKPT_EVERY) {
                        let iterations = st.next_op;
                        let saved =
                            catch(|| checkpoint(st, &out, iterations, tracer.as_deref_mut()));
                        match saved {
                            Ok(Ok(())) => {}
                            Ok(Err(e)) | Err(e) => run.tally.fail(&e),
                        }
                    }
                    st.job.trainer.stages = out.stages;
                }
                Ok(Err(e)) => run.tally.fail(&format!("try_train: {e}")),
                Err(panic) => run.tally.fail(&format!("try_train panicked: {panic}")),
            }
        }
        block.wall_s = block_start.elapsed().as_secs_f64();
        block.steal_share = ticks.steal_share(CpuTicks::now());
        phase.blocks.push(block);
        if start.elapsed().as_secs_f64() >= seconds {
            break;
        }
    }
    st.job.trainer.trace = false;
    phase
}

/// Losses and weights of two pipelined iterations, bit for bit against
/// the sequential reference (untimed).
fn equivalence_check(job: &Job) -> Check {
    let data = &job.data[..2];
    let name = "losses and weights bit-equal to sequential_reference";
    let out = match try_train(&job.trainer, data) {
        Ok(out) => out,
        Err(e) => return Check { name, passed: false, detail: e.to_string() },
    };
    let seq = sequential_reference(&job.trainer.stages, data, LR, &job.trainer.loss);
    let bits = |l: &[f32]| l.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    let passed = bits(&out.losses) == bits(&seq.losses) && out.stages == seq.stages;
    Check { name, passed, detail: format!("{} iterations, losses {:?}", data.len(), out.losses) }
}

/// The last checkpoint must load, pass its fingerprint guard and hold the
/// weights it was saved with.
fn checkpoint_check(saved: &Option<Saved>) -> Check {
    let name = "last checkpoint loads, passes guard and equals the saved weights";
    let Some(saved) = saved else {
        return Check { name, passed: false, detail: "no checkpoint was saved".into() };
    };
    let verdict = Checkpoint::load(&saved.path)
        .and_then(|c| c.guard(saved.fingerprint).map(|()| c))
        .map(|c| c.stages == saved.stages);
    match verdict {
        Ok(passed) => Check { name, passed, detail: format!("{:?}", saved.path) },
        Err(e) => Check { name, passed: false, detail: e.to_string() },
    }
}

/// `sequential_reference` time over `try_train` time on the same
/// iteration and weights: the single-worker baseline.
fn seq_speedup(job: &Job) -> f64 {
    let data = std::slice::from_ref(&job.data[0]);
    let mut ratios = Vec::new();
    for _ in 0..3 {
        let t = Instant::now();
        let _ = sequential_reference(&job.trainer.stages, data, LR, &job.trainer.loss);
        let seq = t.elapsed().as_secs_f64();
        let t = Instant::now();
        if try_train(&job.trainer, data).is_err() {
            return 0.0;
        }
        ratios.push(seq / t.elapsed().as_secs_f64());
    }
    median(&ratios)
}

pub fn run(args: &Args) -> Result<(Run, Option<Tracer>), String> {
    let mut run = Run { work_unit: "samples", threads: THREADS, ..Run::default() };
    let mut job = None;
    let ticks = CpuTicks::now();
    for _ in 0..SETUP_REPS {
        let t = Instant::now();
        job = Some(setup(args.seed)?);
        run.setup_s.push(t.elapsed().as_secs_f64());
    }
    run.correct_setup_for_steal(ticks);
    let job = job.ok_or("no set-up ran")?;
    run.checks.push(equivalence_check(&job));

    let dir = out_dir().join(format!("ckpt-{}", std::process::id()));
    std::fs::create_dir_all(&dir).map_err(|e| format!("creating {dir:?}: {e}"))?;
    let mut st = State { job, next_op: 0, dir, saved: None, sums: TraceSums::default() };
    let mut tracer = None;
    if args.trace {
        let untraced = window(&mut st, &mut run, args.seconds / 2.0, None);
        run.end_untraced(untraced);
        hanayo_metrics::set_enabled(true);
        let mut t = Tracer::new(Instant::now());
        let before = Reading::take();
        let traced = window(&mut st, &mut run, args.seconds / 2.0, Some(&mut t));
        let after = Reading::take();
        hanayo_metrics::set_enabled(false);
        let s = &st.sums;
        let per_iter = |x: f64| ratio(x, s.iterations);
        for (name, value) in [
            ("tensor.fwd_ms", per_iter(s.fwd_s * 1e3)),
            ("tensor.bwd_ms", per_iter(s.bwd_s * 1e3)),
            ("tensor.optim_ms", per_iter(s.optim_s * 1e3)),
            (
                "tensor.gemm_calls",
                per_iter(delta(&before, &after, "hanayo_gemm_dispatch_total", &[])),
            ),
            ("runtime.recv_wait_ms", per_iter(s.recv_s * 1e3)),
            ("runtime.send_ms", per_iter(s.send_s * 1e3)),
            ("runtime.bubble_ratio", per_iter(s.bubble)),
            ("runtime.launch_ms", per_iter(s.launch_s * 1e3)),
            ("runtime.parked_peak", s.parked_peak as f64),
            ("runtime.stash_peak_bytes", s.stash_peak as f64),
            ("runtime.seq_speedup", seq_speedup(&st.job)),
            ("ckpt.capture_ms", ratio(s.capture_s * 1e3, s.checkpoints)),
            ("ckpt.save_ms", ratio(s.save_s * 1e3, s.checkpoints)),
            ("ckpt.bytes_ratio", ratio(s.file_bytes, s.state_bytes)),
        ] {
            run.layers.insert(name.to_string(), value);
        }
        run.add_self_times(t.spans(), traced.ops());
        run.traced = Some(traced);
        run.add_trace_overhead();
        tracer = Some(t);
    } else {
        let untraced = window(&mut st, &mut run, args.seconds, None);
        run.end_untraced(untraced);
    }
    run.checks.push(checkpoint_check(&st.saved));
    std::fs::remove_dir_all(&st.dir).map_err(|e| format!("removing {:?}: {e}", st.dir))?;
    Ok((run, tracer))
}
