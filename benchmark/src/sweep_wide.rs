//! `sweep_wide`: the one-shot `sweep` CLI path — a wide `TuneRequest`
//! through `schema::run_tune` with a default context (no cross-request
//! cache), rendered to compact JSON.

use crate::outcome::catch;
use crate::registry::{planner_layers, Reading};
use crate::report::{Block, Check, Phase, Run, SETUP_REPS};
use crate::rng::Rng;
use crate::spans::Tracer;
use crate::system::CpuTicks;
use crate::Args;
use hanayo_serve::schema::{build_sweep_table, run_tune, TuneRequest};
use hanayo_sim::{tune_with, TuneContext};
use std::time::Instant;

/// The caller plus one pool worker evaluate candidates.
pub const THREADS: usize = 2;
const MODELS: [&str; 2] = ["bert64", "gpt128"];
const CLUSTERS: [&str; 4] = ["pc", "fc", "tacc", "tc"];
const GPUS: [usize; 3] = [4, 8, 16];
const BATCHES: [u32; 3] = [8, 16, 32];

/// A wide sweep with the `sweep` CLI's defaults for every other flag.
fn request(model: &str, cluster: &str, gpus: usize, batch: u32) -> TuneRequest {
    TuneRequest {
        model: model.to_string(),
        cluster: cluster.to_string(),
        gpus,
        batch,
        micro_batch_size: 1,
        train_bytes_per_param: 8,
        min_pp: 2,
        waves: vec![1, 2, 4, 8],
        recompute: None,
        wide: true,
        serial: false,
        top: None,
    }
}

/// Every request of the grid, in a fixed order.
fn grid() -> Vec<TuneRequest> {
    let mut out = Vec::new();
    for model in MODELS {
        for cluster in CLUSTERS {
            for gpus in GPUS {
                for batch in BATCHES {
                    out.push(request(model, cluster, gpus, batch));
                }
            }
        }
    }
    out
}

/// The request sequence: the grid over and over, each pass in a fresh
/// seeded order, so that every seed sees the same mix.
struct Requests {
    rng: Rng,
    grid: Vec<TuneRequest>,
}

impl Requests {
    fn new(seed: u64) -> Requests {
        Requests { rng: Rng::new(seed), grid: grid() }
    }

    /// The next pass.
    fn pass(&mut self) -> Vec<TuneRequest> {
        let mut pass = self.grid.clone();
        self.rng.shuffle(&mut pass);
        pass
    }
}

/// One sweep as the CLI runs it: the compact rendering and its candidate
/// count.
fn sweep(req: &TuneRequest) -> Result<(String, usize), String> {
    let table = run_tune(req, &TuneContext::default()).map_err(|e| e.to_string())?;
    let body = serde_json::to_string(&table).map_err(|e| e.to_string())?;
    Ok((body + "\n", table.candidates_evaluated))
}

/// [`sweep`] with a span around each step `run_tune` takes.
fn traced_sweep(
    req: &TuneRequest,
    t: &mut Tracer,
    op: u64,
    root: usize,
) -> Result<(String, usize), String> {
    let s = t.open("serve.schema.resolve", "serve", op, Some(root));
    let resolved = req.resolve();
    t.close(s);
    let (model, cluster, opts) = resolved?;
    let s = t.open("sim.tune_with", "sim", op, Some(root));
    let tuning = tune_with(
        &model,
        &cluster,
        req.batch,
        req.micro_batch_size,
        &opts,
        &TuneContext::default(),
    );
    t.close(s);
    let tuning = tuning.map_err(|e| e.to_string())?;
    let s = t.open("serve.schema.build_sweep_table", "serve", op, Some(root));
    let table = build_sweep_table(req, &tuning, &cluster, &model, &opts.recompute_variants());
    t.close(s);
    let s = t.open("serve.schema.render", "serve", op, Some(root));
    let body = serde_json::to_string(&table).map_err(|e| e.to_string());
    t.close(s);
    Ok((body? + "\n", table.candidates_evaluated))
}

/// Per-step timings of the traced window.
#[derive(Default)]
struct StepSums {
    resolve_s: f64,
    tune_s: f64,
    table_s: f64,
    render_s: f64,
}

/// Whole passes over the grid, at least one, until `seconds` have passed.
fn window(
    reqs: &mut Requests,
    run: &mut Run,
    seconds: f64,
    mut tracer: Option<&mut Tracer>,
    first: &mut Option<(TuneRequest, String)>,
) -> Phase {
    let mut phase = Phase::default();
    let start = Instant::now();
    let mut op = 0;
    loop {
        let mut block = Block::default();
        let ticks = CpuTicks::now();
        let block_start = Instant::now();
        for req in reqs.pass() {
            run.tally.attempted += 1;
            let t0 = Instant::now();
            let result = match tracer.as_deref_mut() {
                None => catch(|| sweep(&req)),
                Some(t) => {
                    let root = t.open("sweep", "bench", op, None);
                    let r = catch(|| traced_sweep(&req, t, op, root));
                    t.close(root);
                    r
                }
            };
            let ms = t0.elapsed().as_secs_f64() * 1e3;
            op += 1;
            match result {
                Ok(Ok((body, candidates))) => {
                    block.latencies_ms.push(ms);
                    block.work += candidates as f64;
                    if first.is_none() {
                        *first = Some((req, body));
                    }
                }
                Ok(Err(e)) => run.tally.fail(&format!("run_tune: {e}")),
                Err(panic) => run.tally.fail(&format!("run_tune panicked: {panic}")),
            }
        }
        block.wall_s = block_start.elapsed().as_secs_f64();
        block.steal_share = ticks.steal_share(CpuTicks::now());
        phase.blocks.push(block);
        if start.elapsed().as_secs_f64() >= seconds {
            break;
        }
    }
    phase
}

/// The first sweep of a window must equal the serial tuner's rendering.
fn serial_check(first: &Option<(TuneRequest, String)>) -> Check {
    let name = "first sweep equals tune_serial_with";
    let Some((req, body)) = first else {
        return Check { name, passed: false, detail: "no sweep succeeded".into() };
    };
    let serial = TuneRequest { serial: true, ..req.clone() };
    let detail = format!("{}/{}/{} B{}", req.model, req.cluster, req.gpus, req.batch);
    match catch(|| sweep(&serial)) {
        Ok(Ok((reference, _))) => Check { name, passed: reference == *body, detail },
        Ok(Err(e)) | Err(e) => Check { name, passed: false, detail: format!("{detail}: {e}") },
    }
}

/// Sum the step spans of the traced window.
fn step_sums(t: &Tracer) -> StepSums {
    let mut s = StepSums::default();
    for span in t.spans() {
        let d = (span.end_ns - span.start_ns) as f64 / 1e9;
        match span.name {
            "serve.schema.resolve" => s.resolve_s += d,
            "sim.tune_with" => s.tune_s += d,
            "serve.schema.build_sweep_table" => s.table_s += d,
            "serve.schema.render" => s.render_s += d,
            _ => {}
        }
    }
    s
}

pub fn run(args: &Args) -> Result<(Run, Option<Tracer>), String> {
    let mut run = Run { work_unit: "candidates", threads: THREADS, ..Run::default() };
    // Set-up: the request stream plus one warm-up sweep of a fixed request,
    // which starts the pool and touches every lazily built table.
    let mut reqs = None;
    let ticks = CpuTicks::now();
    for _ in 0..SETUP_REPS {
        let t = Instant::now();
        reqs = Some(Requests::new(args.seed));
        sweep(&request("bert64", "tacc", 8, 16)).map_err(|e| format!("warm-up sweep: {e}"))?;
        run.setup_s.push(t.elapsed().as_secs_f64());
    }
    run.correct_setup_for_steal(ticks);
    let mut reqs = reqs.ok_or("no set-up ran")?;
    let mut first = None;
    let mut tracer = None;
    if args.trace {
        let untraced = window(&mut reqs, &mut run, args.seconds / 2.0, None, &mut first);
        run.end_untraced(untraced);
        run.checks.push(serial_check(&first));
        hanayo_metrics::set_enabled(true);
        let mut t = Tracer::new(Instant::now());
        let mut traced_first = None;
        let before = Reading::take();
        let traced =
            window(&mut reqs, &mut run, args.seconds / 2.0, Some(&mut t), &mut traced_first);
        let after = Reading::take();
        hanayo_metrics::set_enabled(false);
        run.checks.push(serial_check(&traced_first));
        let ops = traced.ops() as f64;
        planner_layers(&before, &after, ops, &mut run.layers);
        let s = step_sums(&t);
        let per_op = |x: f64| if ops > 0.0 { x / ops } else { 0.0 };
        run.layers.insert("serve.schema.resolve_us".into(), per_op(s.resolve_s * 1e6));
        run.layers.insert("sim.tune_ms".into(), per_op(s.tune_s * 1e3));
        run.layers.insert("serve.schema.table_ms".into(), per_op(s.table_s * 1e3));
        run.layers.insert("serve.schema.render_ms".into(), per_op(s.render_s * 1e3));
        run.add_self_times(t.spans(), traced.ops());
        run.traced = Some(traced);
        run.add_trace_overhead();
        tracer = Some(t);
    } else {
        let untraced = window(&mut reqs, &mut run, args.seconds, None, &mut first);
        run.end_untraced(untraced);
        run.checks.push(serial_check(&first));
    }
    Ok((run, tracer))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_seed_sees_the_whole_grid_each_pass() {
        let render = |reqs: &[TuneRequest]| {
            let mut out: Vec<String> =
                reqs.iter().map(|r| serde_json::to_string(r).expect("renders")).collect();
            out.sort();
            out
        };
        let mut reqs = Requests::new(3);
        assert_eq!(render(&reqs.pass()), render(&grid()));
        assert_eq!(render(&reqs.pass()), render(&grid()));
    }

    /// The `tc` cluster model asserts it has at most 8 GPUs, so a 16-GPU
    /// `tc` sweep panics; the benchmark must count it as one failure and
    /// keep going.
    #[test]
    fn tc_with_16_gpus_counts_as_one_failure() {
        crate::outcome::install_quiet_panic_hook();
        let mut run = Run::default();
        let mut reqs = Requests { rng: Rng::new(0), grid: vec![request("bert64", "tc", 16, 8)] };
        let mut first = None;
        let phase = window(&mut reqs, &mut run, 0.0, None, &mut first);
        assert_eq!(run.tally.attempted, 1);
        assert_eq!(run.tally.failed, 1);
        assert_eq!(run.tally.wrong, 0);
        assert_eq!(phase.ops(), 0);
        let reason = run.tally.reasons.keys().next().expect("a reason");
        assert!(reason.contains("panicked") && reason.contains("8 GPUs"), "{reason}");
    }
}
