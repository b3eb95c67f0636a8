//! Campaign benchmark for blockhammer-rs.
//!
//! ```text
//! perfbench --workload <quick-traces|multichannel-long|serve-stream>
//!           --seed <n> --seconds <s> --trace <0|1> [--scale tiny]
//! ```
//!
//! `--trace 0` measures the workload untraced and prints the end-to-end
//! metrics; `--trace 1` measures it again with spans recorded around
//! every call into a layer, then runs the per-layer probes and prints the
//! per-layer metrics. The last line of standard output is one JSON
//! object: `{"correct", "attempted", "failed", "metrics"}`. Lines before
//! it are notes for people (sample counts, tail percentiles, the summary
//! digest). See `perfbench/README.md` for what each metric means.

mod batch;
mod heap;
mod layers;
mod serve;
mod stats;
mod tracer;

use campaign::ExecutionStats;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Duration;

#[global_allocator]
static ALLOCATOR: heap::Counting = heap::Counting;

/// Input size: the benchmark's own, or a tiny one for the self-test.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    Full,
    Tiny,
}

/// Named metrics with units, in print order.
#[derive(Debug, Default)]
pub struct Metrics(pub Vec<(String, f64, &'static str)>);

impl Metrics {
    pub fn push(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.0.push((name.into(), value, unit));
    }
}

/// Executor telemetry of one campaign execution.
pub struct ExecutorSample {
    pub first_delivery_ms: f64,
    pub wall: Duration,
    pub stats: ExecutionStats,
}

/// The timed part of a workload, reduced.
pub struct Measured {
    pub correct: bool,
    pub attempted: usize,
    pub failed: usize,
    pub e2e: Metrics,
    pub notes: Vec<String>,
    pub digest: u64,
    pub executor: Vec<ExecutorSample>,
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    scale: Scale,
}

fn parse_args() -> Result<Args, String> {
    let mut argv = std::env::args().skip(1);
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = false;
    let mut scale = Scale::Full;
    while let Some(flag) = argv.next() {
        let mut value = || argv.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => seed = Some(value()?.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => seconds = Some(value()?.parse().map_err(|e| format!("--seconds: {e}"))?),
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--scale" => {
                scale = match value()?.as_str() {
                    "full" => Scale::Full,
                    "tiny" => Scale::Tiny,
                    other => return Err(format!("--scale takes full or tiny, not {other}")),
                }
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace,
        scale,
    })
}

/// The timed measurement, plus (traced runs only) the per-layer metrics
/// and any check the layer probes failed.
type Outcome = (Measured, Metrics, Vec<String>);

fn run(args: &Args, work: &Path) -> Result<Outcome, String> {
    match args.workload.as_str() {
        "quick-traces" | "multichannel-long" => {
            let batch = if args.workload == "quick-traces" {
                batch::quick_traces(args.seed, args.scale)
            } else {
                batch::multichannel_long(args.seed, args.scale)
            };
            let (measured, first) = batch::measure(&batch, args.seconds, work)?;
            let (layers, problems) = if args.trace {
                layers::probe_batch(&batch, &measured, &first, work)?
            } else {
                Default::default()
            };
            Ok((measured, layers, problems))
        }
        "serve-stream" => {
            let config = serve::ServeStream::new(args.seed, args.scale);
            let (measured, traced) = config.measure(args.seconds, work)?;
            let (layers, problems) = if args.trace {
                layers::probe_serve(&measured, &traced, work)?
            } else {
                Default::default()
            };
            Ok((measured, layers, problems))
        }
        other => Err(format!(
            "unknown workload {other} (quick-traces, multichannel-long, serve-stream)"
        )),
    }
}

fn json_number(value: f64) -> String {
    if value.is_finite() {
        format!("{value}")
    } else {
        "0".to_owned()
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(message) => {
            eprintln!("perfbench: {message}");
            return ExitCode::from(2);
        }
    };
    if args.trace {
        tracer::enable();
    }
    let out = PathBuf::from(".bench_out");
    let work = out.join(format!(
        "{}-s{}-p{}",
        args.workload,
        args.seed,
        std::process::id()
    ));
    let result = std::fs::create_dir_all(&work)
        .map_err(|e| format!("creating {}: {e}", work.display()))
        .and_then(|()| {
            let _root = tracer::span("workload");
            run(&args, &work)
        });
    let _ = std::fs::remove_dir_all(&work);
    let (measured, layers, problems) = match result {
        Ok(pair) => pair,
        Err(message) => {
            eprintln!("perfbench: {}: {message}", args.workload);
            return ExitCode::FAILURE;
        }
    };
    let mut correct = measured.correct;
    let mut notes = measured.notes;
    notes.push(format!("summary_digest: {:016x}", measured.digest));
    let metrics = if args.trace {
        let spans = tracer::spans();
        let path = out.join(format!("spans-{}-s{}.json", args.workload, args.seed));
        if let Err(error) = tracer::write_json(&path, &spans) {
            eprintln!("perfbench: writing {}: {error}", path.display());
            return ExitCode::FAILURE;
        }
        notes.push(format!(
            "spans: {} written to {}",
            spans.len(),
            path.display()
        ));
        for problem in problems {
            notes.push(format!("CHECK FAILED: {problem}"));
            correct = false;
        }
        layers
    } else {
        measured.e2e
    };
    for note in &notes {
        println!("# {note}");
    }
    for (name, value, unit) in &metrics.0 {
        println!("# {name} = {value} {unit}");
    }
    let body: Vec<String> = metrics
        .0
        .iter()
        .map(|(name, value, unit)| {
            format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                json_number(*value)
            )
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        measured.attempted.max(1),
        measured.failed,
        body.join(", ")
    );
    ExitCode::SUCCESS
}
