//! The repository benchmark: named workloads driven through the release
//! `serve` binary (and `atlas-shard` in `fleet`) by one closed-loop
//! client process, every reply checked against an in-process reference,
//! and a separate traced run that times each layer's public calls.
//!
//! ```text
//! cargo run --release --quiet --manifest-path perfbench/Cargo.toml -- \
//!     --workload cold|warm|edit|fleet --seed N --seconds S --trace 0|1
//! ```
//!
//! The last line of standard output is the result object; the line
//! before it stamps the run (ISA, kernel, commit, seed, server flags,
//! per-phase op counts). See `perfbench/README.md`.

mod check;
mod client;
mod ops;
mod report;
mod run;
mod server;
mod trace;

use std::path::PathBuf;
use std::process::ExitCode;

use atlas_core::pipeline::{train_atlas, ExperimentConfig};
use atlas_serve::{ModelRegistry, SavedModel};

use report::{quote, Metric};

/// Serving name of the benchmark's model in its registry.
pub const MODEL: &str = "bench";
/// Design scale of the served model (and so of C2/C4).
pub const SCALE: f64 = 0.1;
/// Cycles per training trace.
pub const TRAIN_CYCLES: usize = 48;
/// Scratch directory inside the checkout (ignored by git).
pub const WORK_DIR: &str = ".bench_out";

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    Cold,
    Warm,
    Edit,
    Fleet,
}

impl Workload {
    pub fn name(self) -> &'static str {
        match self {
            Workload::Cold => "cold",
            Workload::Warm => "warm",
            Workload::Edit => "edit",
            Workload::Fleet => "fleet",
        }
    }

    fn parse(name: &str) -> Result<Workload, String> {
        match name {
            "cold" => Ok(Workload::Cold),
            "warm" => Ok(Workload::Warm),
            "edit" => Ok(Workload::Edit),
            "fleet" => Ok(Workload::Fleet),
            other => Err(format!("unknown workload `{other}` (cold|warm|edit|fleet)")),
        }
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: Workload::Cold,
        seed: 1,
        seconds: 10.0,
        trace: false,
    };
    let mut workload = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} requires a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => workload = Some(Workload::parse(&value)?),
            "--seed" => args.seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => args.seconds = value.parse().map_err(|e| bad(&e))?,
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                }
            }
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    args.workload = workload.ok_or("--workload is required")?;
    if args.seconds.is_nan() || args.seconds <= 0.0 {
        return Err("--seconds must be positive".to_owned());
    }
    Ok(args)
}

/// Inputs every workload shares.
pub struct Bench {
    /// Directory holding the release `serve` and `atlas-shard`.
    pub bin: PathBuf,
    /// Registry directory holding the trained model.
    pub registry: PathBuf,
    pub saved: SavedModel,
    pub seed: u64,
    pub seconds: f64,
}

/// The model every workload serves: `ExperimentConfig::quick` at the
/// benchmark's scale. Training is input preparation, not a metric.
pub fn experiment() -> ExperimentConfig {
    let mut cfg = ExperimentConfig::quick();
    cfg.scale = SCALE;
    cfg.cycles = TRAIN_CYCLES;
    cfg
}

fn prepare(args: &Args) -> Result<Bench, String> {
    let bin = server::build_binaries()?;
    let work = PathBuf::from(WORK_DIR).join(format!("work-{}", std::process::id()));
    let registry_dir = work.join("registry");
    let cfg = experiment();
    let trained = train_atlas(&cfg);
    let registry = ModelRegistry::open(&registry_dir).map_err(|e| e.to_string())?;
    let path = registry
        .save(MODEL, &trained.model, &cfg)
        .map_err(|e| e.to_string())?;
    let saved = ModelRegistry::load_file(&path).map_err(|e| e.to_string())?;
    Ok(Bench {
        bin,
        registry: registry_dir,
        saved,
        seed: args.seed,
        seconds: args.seconds,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    let bench = match prepare(&args) {
        Ok(bench) => bench,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    let outcome = run::measure(&bench, args.workload).and_then(|measured| {
        let traced = if args.trace {
            Some(trace::traced_run(&bench, args.workload, &measured)?)
        } else {
            None
        };
        Ok((measured, traced))
    });
    let _ = std::fs::remove_dir_all(bench.registry.parent().unwrap_or(&bench.registry));
    let (measured, traced) = match outcome {
        Ok(outcome) => outcome,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };

    let mut phases = vec![
        format!("\"setup\":{}", measured.setup_count.json()),
        format!("\"measured\":{}", measured.count.json()),
    ];
    if let Some(t) = &traced {
        phases.push(format!("\"traced\":{}", t.count.json()));
    }
    let (used, total, steal) = measured.window_note();
    println!(
        "{{\"stamp\":{{\"workload\":{},\"seed\":{},\"seconds\":{},\"trace\":{},\"isa\":{},\"kernel\":{},\"nproc\":{},\"commit\":{},\"server_flags\":{},\"phases\":{{{}}},\"windows\":{{\"used\":{used},\"total\":{total},\"median_steal\":{}}}}}}}",
        quote(args.workload.name()),
        args.seed,
        report::number(args.seconds),
        u8::from(args.trace),
        quote(atlas_nn::simd::isa_label()),
        quote(atlas_nn::simd::kernel_label(atlas_nn::simd::active_kernel())),
        std::thread::available_parallelism().map_or(0, |n| n.get()),
        quote(&report::commit()),
        quote(&measured.server_flags),
        phases.join(","),
        report::number(steal),
    );
    let metrics: Vec<Metric> = match &traced {
        Some(t) => t.metrics.clone(),
        None => measured.end_to_end(),
    };
    let correct = measured.count.failed == 0 && traced.as_ref().is_none_or(|t| t.count.failed == 0);
    println!(
        "{}",
        report::result_line(
            correct,
            measured.count.sent,
            measured.count.failed,
            &metrics
        )
    );
    ExitCode::SUCCESS
}
