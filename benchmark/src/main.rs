//! Seeded benchmark of the Hanayo workspace.
//!
//! ```text
//! cargo run --release --offline --manifest-path benchmark/Cargo.toml -- \
//!     --workload <train_wave|sweep_wide|serve_mixed> --seed <n> --seconds <n> --trace <0|1>
//! ```
//!
//! Each workload runs the production path only and measures absolute
//! numbers. `--trace 0` prints the end-to-end metrics; `--trace 1` runs an
//! untraced and then a traced window and prints the per-layer metrics. The
//! last line of standard output is one JSON result object. See `README.md`
//! beside this file for the workloads and the metric map.

mod outcome;
mod registry;
mod report;
mod rng;
mod serve_mixed;
mod spans;
mod stats;
mod sweep_wide;
mod system;
mod train_wave;

use report::Run;
use std::process::ExitCode;

/// The workloads, by the name `--workload` takes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    TrainWave,
    SweepWide,
    ServeMixed,
}

impl Workload {
    const ALL: [Workload; 3] = [Workload::TrainWave, Workload::SweepWide, Workload::ServeMixed];

    pub fn name(self) -> &'static str {
        match self {
            Workload::TrainWave => "train_wave",
            Workload::SweepWide => "sweep_wide",
            Workload::ServeMixed => "serve_mixed",
        }
    }

    /// The `HANAYO_THREADS` pool size the workload pins, so that no more
    /// threads are runnable than the two cores the benchmark is sized for.
    pub fn threads(self) -> usize {
        match self {
            Workload::TrainWave => train_wave::THREADS,
            Workload::SweepWide => sweep_wide::THREADS,
            Workload::ServeMixed => serve_mixed::THREADS,
        }
    }

    /// The glibc malloc arena cap the workload pins, if any (`None`: glibc's
    /// default).
    pub fn malloc_arenas(self) -> Option<i32> {
        match self {
            Workload::TrainWave | Workload::SweepWide => None,
            Workload::ServeMixed => Some(serve_mixed::MALLOC_ARENAS),
        }
    }
}

/// Command-line arguments.
#[derive(Debug)]
pub struct Args {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

const USAGE: &str =
    "usage: hanayo-benchmark --workload <train_wave|sweep_wide|serve_mixed> --seed <n> \
     --seconds <n> --trace <0|1>";

impl Args {
    fn parse(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
        let (mut workload, mut seed, mut seconds, mut trace) = (None, 1, 10.0f64, false);
        while let Some(flag) = argv.next() {
            let value = argv.next().ok_or_else(|| format!("{flag} expects a value"))?;
            match flag.as_str() {
                "--workload" => {
                    workload = Some(
                        Workload::ALL
                            .into_iter()
                            .find(|w| w.name() == value)
                            .ok_or_else(|| format!("unknown workload {value}"))?,
                    )
                }
                "--seed" => seed = value.parse().map_err(|e| format!("--seed: {e}"))?,
                "--seconds" => {
                    seconds = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                    if !seconds.is_finite() || seconds <= 0.0 {
                        return Err("--seconds must be a positive number".to_string());
                    }
                }
                "--trace" => {
                    trace = match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(format!("--trace expects 0 or 1, got {value}")),
                    }
                }
                _ => return Err(format!("unknown flag {flag}")),
            }
        }
        let workload = workload.ok_or("--workload is required")?;
        Ok(Args { workload, seed, seconds, trace })
    }
}

fn main() -> ExitCode {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    // Before anything starts the gemm/tuner pool, which reads this once.
    std::env::set_var("HANAYO_THREADS", args.workload.threads().to_string());
    let malloc_arenas = args.workload.malloc_arenas().filter(|&n| system::pin_malloc_arenas(n));
    outcome::install_quiet_panic_hook();
    let result = match args.workload {
        Workload::TrainWave => train_wave::run(&args),
        Workload::SweepWide => sweep_wide::run(&args),
        Workload::ServeMixed => serve_mixed::run(&args),
    };
    let result = result.map(|(run, tracer)| (Run { malloc_arenas, ..run }, tracer));
    match result.and_then(|(run, tracer)| report::emit(&args, &run, tracer.as_ref())) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("benchmark error: {e}");
            ExitCode::FAILURE
        }
    }
}
