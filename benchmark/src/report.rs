//! What a run measured, and how it is printed.

use crate::spans::{self, Span};
use crate::stats::{beyond, median, percentile, sorted};
use crate::system::{self, CpuTicks};
use crate::Args;
use std::collections::BTreeMap;
use std::path::PathBuf;

/// End-to-end metrics, printed by every untraced run.
pub const END_TO_END: &[(&str, &str)] =
    &[("setup_s", "s"), ("throughput", "1/s"), ("p50_ms", "ms"), ("peak_rss_mb", "MB")];

/// Tail latency percentiles, printed and recorded by every untraced run but
/// not bounded: on this kind of machine their run-to-run spread exceeds the
/// largest bound, and at 30 s `p99_ms` has fewer than ten samples beyond it
/// on two workloads.
const TAILS: [(&str, f64); 2] = [("p90_ms", 90.0), ("p99_ms", 99.0)];

/// Per-layer metrics, printed by every traced run. A layer a workload does
/// not call reads 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("tensor.fwd_ms", "ms"),
    ("tensor.bwd_ms", "ms"),
    ("tensor.optim_ms", "ms"),
    ("tensor.gemm_calls", "count"),
    ("runtime.recv_wait_ms", "ms"),
    ("runtime.send_ms", "ms"),
    ("runtime.bubble_ratio", "ratio"),
    ("runtime.launch_ms", "ms"),
    ("runtime.parked_peak", "count"),
    ("runtime.stash_peak_bytes", "B"),
    ("runtime.seq_speedup", "ratio"),
    ("ckpt.capture_ms", "ms"),
    ("ckpt.save_ms", "ms"),
    ("ckpt.bytes_ratio", "ratio"),
    ("serve.schema.resolve_us", "us"),
    ("sim.tune_ms", "ms"),
    ("serve.schema.table_ms", "ms"),
    ("serve.schema.render_ms", "ms"),
    ("sim.runs", "count"),
    ("sim.events_per_run", "count"),
    ("sim.stalls_per_run", "count"),
    ("tuner.static_prunes", "count"),
    ("tuner.oom_share", "ratio"),
    ("tuner.hit_ratio.schedules", "ratio"),
    ("tuner.hit_ratio.costs", "ratio"),
    ("tuner.hit_ratio.peaks", "ratio"),
    ("tuner.hit_ratio.compiled", "ratio"),
    ("sim.runs_per_lowering", "ratio"),
    ("serve.handler_ms.plan", "ms"),
    ("serve.handler_ms.simulate", "ms"),
    ("serve.handler_ms.analyze", "ms"),
    ("serve.handler_ms.tune", "ms"),
    ("serve.transport_ms", "ms"),
    ("serve.healthz_ms", "ms"),
    ("serve.cache_hit_ratio", "ratio"),
    ("serve.resident_configs", "count"),
    ("serve.dedup_joins", "count"),
    ("serve.dropped_connections", "count"),
    ("self_ms.bench", "ms"),
    ("self_ms.runtime", "ms"),
    ("self_ms.tensor", "ms"),
    ("self_ms.ckpt", "ms"),
    ("self_ms.sim", "ms"),
    ("self_ms.serve", "ms"),
    ("self_ms.serve_transport", "ms"),
    ("trace.coverage", "ratio"),
    ("trace_overhead.p50_ms", "ms"),
    ("trace_overhead.throughput", "1/s"),
];

/// Per-layer metrics that the program does not expose yet, with the reason.
/// Traced runs name them instead of printing a value.
const UNAVAILABLE: &[(&str, &str)] =
    &[("serve.cache_evictions", "the server exports no counter of evicted configurations")];

/// The layer self times must account for at least this share of the root
/// spans; the rest is the benchmark's own glue between calls.
pub const MIN_COVERAGE: f64 = 0.95;

/// Set-ups per run; `setup_s` is their median. A set-up takes tens of
/// milliseconds, so one is at the mercy of a single scheduling hiccup.
pub const SETUP_REPS: usize = 11;

/// A stretch of consecutive operations within a window: a group of
/// iterations, a pass over the sweep grid, or a block of requests.
#[derive(Debug, Default, Clone)]
pub struct Block {
    /// Latency of every operation that succeeded.
    pub latencies_ms: Vec<f64>,
    /// Units of work completed (samples, candidates or requests).
    pub work: f64,
    /// Wall time of the block.
    pub wall_s: f64,
    /// Share of the CPU time the machine wanted during the block that the
    /// hypervisor withheld ([`CpuTicks::steal_share`]); `0.0` for a
    /// workload whose times are not corrected for it.
    ///
    /// [`CpuTicks::steal_share`]: crate::system::CpuTicks::steal_share
    pub steal_share: f64,
}

impl Block {
    /// How much of a wall-clock interval in this block the CPUs actually ran.
    fn run_factor(&self) -> f64 {
        1.0 - self.steal_share
    }

    fn throughput(&self) -> f64 {
        rate(self.work, self.wall_s * self.run_factor())
    }

    fn wall_throughput(&self) -> f64 {
        rate(self.work, self.wall_s)
    }
}

/// `work` per second of `seconds`; `0.0` for an empty interval.
fn rate(work: f64, seconds: f64) -> f64 {
    if seconds > 0.0 {
        work / seconds
    } else {
        0.0
    }
}

/// One timed window of operations, in blocks. Throughput is the median
/// over blocks, so that a burst of load from outside slows a few blocks
/// without moving it; latency percentiles pool every operation.
///
/// Times are steal-corrected: each block's wall times are scaled by the
/// share of it the CPUs ran ([`Block::steal_share`]), so that the figures
/// read what an unshared machine would show. The uncorrected figures are
/// kept as `wall_*`.
#[derive(Debug, Default)]
pub struct Phase {
    pub blocks: Vec<Block>,
}

impl Phase {
    /// Successful operations.
    pub fn ops(&self) -> usize {
        self.blocks.iter().map(|b| b.latencies_ms.len()).sum()
    }

    pub fn work(&self) -> f64 {
        self.blocks.iter().map(|b| b.work).sum()
    }

    pub fn wall_s(&self) -> f64 {
        self.blocks.iter().map(|b| b.wall_s).sum()
    }

    /// Median over blocks of each block's steal-corrected throughput.
    pub fn throughput(&self) -> f64 {
        median(&self.blocks.iter().map(Block::throughput).collect::<Vec<_>>())
    }

    /// Median over blocks of each block's wall-clock throughput.
    pub fn wall_throughput(&self) -> f64 {
        median(&self.blocks.iter().map(Block::wall_throughput).collect::<Vec<_>>())
    }

    /// All steal-corrected latencies, ascending.
    pub fn latencies(&self) -> Vec<f64> {
        sorted(
            &self
                .blocks
                .iter()
                .flat_map(|b| b.latencies_ms.iter().map(|ms| ms * b.run_factor()))
                .collect::<Vec<_>>(),
        )
    }

    /// All wall-clock latencies, ascending.
    pub fn wall_latencies(&self) -> Vec<f64> {
        sorted(&self.blocks.iter().flat_map(|b| b.latencies_ms.iter().copied()).collect::<Vec<_>>())
    }

    /// Mean steal share over blocks, weighted by wall time.
    pub fn steal_share(&self) -> f64 {
        let wall = self.wall_s();
        if wall > 0.0 {
            self.blocks.iter().map(|b| b.steal_share * b.wall_s).sum::<f64>() / wall
        } else {
            0.0
        }
    }

    /// Nearest-rank `p`-th percentile of all latencies.
    pub fn percentile(&self, p: f64) -> f64 {
        percentile(&self.latencies(), p)
    }
}

/// A once-per-run correctness check.
#[derive(Debug)]
pub struct Check {
    pub name: &'static str,
    pub passed: bool,
    pub detail: String,
}

/// Operations attempted and failed, with the reason for each failure.
#[derive(Debug, Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    /// Failures that were wrong outputs (as opposed to panics, dropped
    /// connections or error statuses).
    pub wrong: u64,
    pub reasons: BTreeMap<String, u64>,
}

impl Tally {
    pub fn fail(&mut self, reason: &str) {
        self.failed += 1;
        let short: String = reason.chars().take(120).collect();
        *self.reasons.entry(short).or_default() += 1;
    }

    pub fn wrong_output(&mut self, what: &str, n: u64) {
        self.failed += n;
        self.wrong += n;
        *self.reasons.entry(format!("wrong output: {what}")).or_default() += n;
    }
}

/// Everything one run of one workload measured.
#[derive(Debug, Default)]
pub struct Run {
    /// What `throughput` counts.
    pub work_unit: &'static str,
    /// `HANAYO_THREADS` the workload pins.
    pub threads: usize,
    /// The glibc malloc arena cap in effect (`None`: glibc's default).
    pub malloc_arenas: Option<i32>,
    /// One entry per repeated set-up.
    pub setup_s: Vec<f64>,
    /// Steal share over the set-ups, by which `setup_s` was corrected
    /// ([`Run::correct_setup_for_steal`]); `0.0` if it was not.
    pub setup_steal_share: f64,
    /// The window the end-to-end metrics come from.
    pub untraced: Phase,
    /// Peak RSS read during the untraced window, before any check ran.
    pub peak_rss_mb: f64,
    /// When `peak_rss_mb` was read.
    pub peak_rss_at: String,
    /// The traced window (`--trace 1` only).
    pub traced: Option<Phase>,
    /// Per-layer metrics (`--trace 1` only).
    pub layers: BTreeMap<String, f64>,
    pub tally: Tally,
    pub checks: Vec<Check>,
}

impl Run {
    /// Scale the set-up times by the share of the time since `start` that
    /// the CPUs ran, as [`Phase`] scales the windows' times.
    pub fn correct_setup_for_steal(&mut self, start: CpuTicks) {
        self.setup_steal_share = start.steal_share(CpuTicks::now());
        for s in &mut self.setup_s {
            *s *= 1.0 - self.setup_steal_share;
        }
    }

    /// Store the untraced window and the process's peak RSS at its end.
    pub fn end_untraced(&mut self, phase: Phase) {
        self.untraced = phase;
        self.peak_rss_mb = system::peak_rss_mb();
        self.peak_rss_at = "VmHWM at the end of the window".to_string();
    }

    /// Self times per layer (ms per operation) and the share of the root
    /// spans they account for, checked against [`MIN_COVERAGE`].
    pub fn add_self_times(&mut self, spans: &[Span], ops: usize) {
        let (by_layer, root_ns) = spans::self_times(spans);
        let per_op = |ns: f64| ns / 1e6 / ops.max(1) as f64;
        for (layer, ns) in &by_layer {
            self.layers.insert(format!("self_ms.{layer}"), per_op(*ns));
        }
        let glue = by_layer.get("bench").copied().unwrap_or(0.0);
        let coverage = if root_ns > 0.0 { 1.0 - glue / root_ns } else { 0.0 };
        self.layers.insert("trace.coverage".into(), coverage);
        self.checks.push(Check {
            name: "layer self times cover the root spans",
            passed: coverage >= MIN_COVERAGE,
            detail: format!("coverage {coverage:.4}, at least {MIN_COVERAGE} required"),
        });
    }

    fn end_to_end(&self) -> Vec<(&'static str, f64, String)> {
        let p = &self.untraced;
        let lat = p.latencies();
        let n = lat.len();
        vec![
            (
                "setup_s",
                median(&self.setup_s),
                format!(
                    "median of {}; steal share {:.4}",
                    self.setup_s.len(),
                    self.setup_steal_share
                ),
            ),
            (
                "throughput",
                p.throughput(),
                format!(
                    "median of {} blocks; {} {} in {:.2}s; steal share {:.4}; wall {:.4}",
                    p.blocks.len(),
                    p.work(),
                    self.work_unit,
                    p.wall_s(),
                    p.steal_share(),
                    p.wall_throughput()
                ),
            ),
            (
                "p50_ms",
                percentile(&lat, 50.0),
                format!("n={n}; wall {:.4}", percentile(&p.wall_latencies(), 50.0)),
            ),
            ("peak_rss_mb", self.peak_rss_mb, self.peak_rss_at.clone()),
        ]
    }

    /// The [`TAILS`] percentiles, with how many samples lie beyond each.
    fn tails(&self) -> Vec<(&'static str, f64, String)> {
        let lat = self.untraced.latencies();
        TAILS
            .iter()
            .map(|&(name, q)| {
                let support = format!("n={}, {} beyond", lat.len(), beyond(&lat, q));
                (name, percentile(&lat, q), support)
            })
            .collect()
    }

    /// The tracing overhead: traced window minus untraced window.
    pub fn add_trace_overhead(&mut self) {
        if let Some(t) = &self.traced {
            let (u, t) = (&self.untraced, t);
            self.layers
                .insert("trace_overhead.p50_ms".into(), t.percentile(50.0) - u.percentile(50.0));
            self.layers.insert("trace_overhead.throughput".into(), t.throughput() - u.throughput());
        }
    }
}

fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

/// Directory for checkpoints, span dumps and run records, inside the
/// working directory.
pub fn out_dir() -> PathBuf {
    PathBuf::from(".bench_out")
}

/// Print the run: a readable summary, then (last line) the result object.
/// Also writes the full record, and the spans when traced, under
/// [`out_dir`].
pub fn emit(args: &Args, run: &Run, spans: Option<&spans::Tracer>) -> Result<(), String> {
    let commit = system::git_commit();
    let cpu = system::cpu_model();
    println!(
        "workload {} seed {} trace {} seconds {}",
        args.workload.name(),
        args.seed,
        u8::from(args.trace),
        args.seconds
    );
    let arenas = run.malloc_arenas.map_or("default".to_string(), |n| n.to_string());
    println!(
        "machine nproc {} cpu {cpu:?} HANAYO_THREADS {} malloc arenas {arenas} commit {commit}",
        system::nproc(),
        run.threads
    );
    let e2e = run.end_to_end();
    for (name, value, samples) in &e2e {
        let unit = unit_of(END_TO_END, name);
        println!("  {name:<28} {value:>14.4} {unit:<6} ({samples})");
    }
    let tails = run.tails();
    for (name, value, samples) in &tails {
        println!("  {name:<28} {value:>14.4} {:<6} ({samples}; not bounded)", "ms");
    }
    if args.trace {
        for (name, unit) in PER_LAYER {
            let value = run.layers.get(*name).copied().unwrap_or(0.0);
            println!("  {name:<28} {value:>14.4} {unit}");
        }
        for (name, why) in UNAVAILABLE {
            println!("  {name:<28} {:>14} ({why})", "unavailable");
        }
    }
    for c in &run.checks {
        println!("check {}: {} ({})", if c.passed { "pass" } else { "FAIL" }, c.name, c.detail);
    }
    for (reason, n) in &run.tally.reasons {
        println!("failure x{n}: {reason}");
    }
    for name in run.layers.keys() {
        assert!(
            PER_LAYER.iter().any(|(n, _)| n == name),
            "per-layer metric {name} is missing from PER_LAYER"
        );
    }

    let correct = run.tally.wrong == 0 && run.checks.iter().all(|c| c.passed);
    let metric_json = |name: &str, value: f64, unit: &str| {
        format!("{}:{{\"value\":{},\"unit\":{}}}", json_str(name), json_num(value), json_str(unit))
    };
    let metrics: Vec<String> = if args.trace {
        PER_LAYER
            .iter()
            .map(|(n, u)| metric_json(n, run.layers.get(*n).copied().unwrap_or(0.0), u))
            .collect()
    } else {
        e2e.iter().map(|(n, v, _)| metric_json(n, *v, unit_of(END_TO_END, n))).collect()
    };
    let result = format!(
        "{{\"correct\":{correct},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        run.tally.attempted,
        run.tally.failed,
        metrics.join(",")
    );

    let dir = out_dir();
    std::fs::create_dir_all(&dir).map_err(|e| format!("creating {dir:?}: {e}"))?;
    let stem = format!("{}-seed{}-trace{}", args.workload.name(), args.seed, u8::from(args.trace));
    let record = format!(
        "{{\"workload\":{},\"seed\":{},\"trace\":{},\"seconds\":{},\"nproc\":{},\"cpu\":{},\
         \"hanayo_threads\":{},\"malloc_arenas\":{},\"commit\":{},\"samples\":{{{}}},\"checks\":[{}],\
         \"failures\":{{{}}},\"tails\":{{{}}},\"result\":{result}}}\n",
        json_str(args.workload.name()),
        args.seed,
        args.trace,
        args.seconds,
        system::nproc(),
        json_str(&cpu),
        run.threads,
        json_str(&arenas),
        json_str(&commit),
        e2e.iter()
            .map(|(n, _, s)| format!("{}:{}", json_str(n), json_str(s)))
            .collect::<Vec<_>>()
            .join(","),
        run.checks
            .iter()
            .map(|c| format!(
                "{{\"name\":{},\"passed\":{},\"detail\":{}}}",
                json_str(c.name),
                c.passed,
                json_str(&c.detail)
            ))
            .collect::<Vec<_>>()
            .join(","),
        run.tally
            .reasons
            .iter()
            .map(|(r, n)| format!("{}:{n}", json_str(r)))
            .collect::<Vec<_>>()
            .join(","),
        tails
            .iter()
            .map(|(n, v, s)| format!(
                "{}:{{\"value\":{},\"samples\":{}}}",
                json_str(n),
                json_num(*v),
                json_str(s)
            ))
            .collect::<Vec<_>>()
            .join(","),
    );
    let path = dir.join(format!("{stem}.json"));
    std::fs::write(&path, record).map_err(|e| format!("writing {path:?}: {e}"))?;
    if let Some(tracer) = spans {
        let path = dir.join(format!("{stem}-spans.jsonl"));
        tracer.write_jsonl(&path).map_err(|e| format!("writing {path:?}: {e}"))?;
    }
    println!("{result}");
    Ok(())
}

fn unit_of(table: &[(&str, &'static str)], name: &str) -> &'static str {
    table.iter().find(|(n, _)| *n == name).map_or("", |(_, u)| u)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn steal_corrected_times_count_only_the_time_the_cpus_ran() {
        let block = |steal_share| Block {
            latencies_ms: vec![10.0, 20.0, 30.0],
            work: 80.0,
            wall_s: 1.0,
            steal_share,
        };
        let phase = Phase { blocks: vec![block(0.2), block(0.2), block(0.0)] };
        assert_eq!(phase.throughput(), 100.0);
        assert_eq!(phase.wall_throughput(), 80.0);
        assert_eq!(phase.percentile(50.0), 16.0);
        assert_eq!(percentile(&phase.wall_latencies(), 50.0), 20.0);
        assert!((phase.steal_share() - 0.4 / 3.0).abs() < 1e-12);
    }
}
