//! The two batch workloads: `quick-traces` (trace replay, work-stealing
//! executor, normalization on) and `multichannel-long` (generators,
//! sequential executor, 2 and 4 channels). Each is a closed loop of one
//! caller that executes its campaign again and again, from a cold start,
//! until the measurement time is used up.
//!
//! The campaign spec keeps its own seed, so every iteration runs the same
//! mixes. The workload seed instead seeds the runs: iteration `i` mixes
//! `splitmix(seed ^ splitmix(i))` into every run's seed (generator address
//! streams, defense randomness). One seed therefore always gives the same
//! sequence of inputs, and a measurement averages over several of them.

use crate::stats::{self, median, splitmix};
use crate::tracer::span;
use crate::{ExecutorSample, Measured, Metrics, Scale};
use campaign::{
    execute_observed, parse_summary_csv, record_run_traces, CampaignReport, CampaignSpec,
    ExecutionOptions, RunSpec, Scenario, TraceFormat,
};
use sim::DefenseKind;
use std::path::Path;
use std::time::{Duration, Instant};
use workloads::AttackKind;

/// One batch workload: a campaign and how it is executed.
pub struct Batch {
    pub spec: CampaignSpec,
    /// Record every run to binary trace files and replay them.
    pub record_traces: bool,
    /// Executor workers (0 = sequential on the calling thread).
    pub workers: usize,
    /// The workload seed (see the module docs).
    pub seed: u64,
}

/// `quick-traces`: `CampaignSpec::quick(12)`, 144 runs at 1 channel,
/// replayed from binary trace files by `nproc` stealing workers.
pub fn quick_traces(seed: u64, scale: Scale) -> Batch {
    let mut spec = CampaignSpec::quick(12);
    if scale == Scale::Tiny {
        spec.mix_count = 1;
        spec.scale.benign_instructions = 300;
    }
    Batch {
        spec,
        record_traces: true,
        workers: nproc(),
        seed,
    }
}

/// Benign instructions per thread of `multichannel-long`.
pub const LONG_INSTRUCTIONS: u64 = 2_000;

/// `multichannel-long`: 2 mixes × {attack, no-attack} × {Baseline,
/// BlockHammer} × {2, 4} channels from generators, normalization off,
/// executed sequentially. Every run simulates exactly the quick scale's
/// `min_cycles` (two scaled refresh windows): the cycle bound equals it,
/// so a benign thread that has not finished by then makes the run a
/// truncated one (`sim.truncated_runs`) instead of a run that costs
/// many times the others. The attack scenario comes first, so the first
/// result is a full-length run.
pub fn multichannel_long(seed: u64, scale: Scale) -> Batch {
    let mut spec = CampaignSpec::smoke();
    spec.name = "multichannel-long".to_owned();
    spec.scenarios = vec![
        Scenario::Attack(AttackKind::DoubleSided),
        Scenario::BenignOnly,
    ];
    spec.defenses = vec![DefenseKind::Baseline, DefenseKind::BlockHammer];
    spec.channel_counts = vec![2, 4];
    spec.normalize = false;
    spec.scale.benign_instructions = LONG_INSTRUCTIONS;
    if scale == Scale::Tiny {
        spec.mix_count = 1;
        spec.scale.benign_instructions = 300;
        spec.scale.min_cycles = 5_000;
    }
    spec.scale.max_cycles = spec.scale.min_cycles;
    Batch {
        spec,
        record_traces: false,
        workers: 0,
        seed,
    }
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// What one repetition of the campaign measured.
pub struct Iteration {
    /// Iteration start (spec expansion) to the last result.
    pub wall: Duration,
    /// The `execute` call to its return.
    pub execute: Duration,
    /// The `execute` call to the first delivered result.
    pub first_delivery: Duration,
    /// Iteration start to the first delivered result.
    pub setup: Duration,
    pub report: CampaignReport,
    /// The run list as executed (trace-replaying when recorded).
    pub runs: Vec<RunSpec>,
    /// Peak live heap during the iteration, in MiB.
    pub peak_heap_mib: f64,
    /// Stolen share of the machine's CPU time during the iteration.
    pub steal_share: f64,
}

impl Iteration {
    /// `d` with the iteration's steal removed, in seconds.
    fn secs(&self, d: Duration) -> f64 {
        d.as_secs_f64() * (1.0 - self.steal_share)
    }
}

/// Expands, optionally records, and executes iteration `index` of the
/// campaign.
pub fn iterate(batch: &Batch, index: u64, trace_dir: &Path) -> Result<Iteration, String> {
    let _s = span("workload.iteration");
    crate::heap::reset_peak();
    let clock = stats::StealClock::start();
    let start = Instant::now();
    let expanded = {
        let _s = span("campaign.spec.expand");
        let mut runs = batch.spec.expand();
        let variant = splitmix(batch.seed ^ splitmix(index));
        for run in &mut runs {
            run.seed ^= variant;
        }
        runs
    };
    let runs = if batch.record_traces {
        let _s = span("campaign.trace.record");
        std::fs::create_dir_all(trace_dir).map_err(|e| format!("trace dir: {e}"))?;
        expanded
            .iter()
            .map(|run| record_run_traces(run, trace_dir, TraceFormat::Binary))
            .collect::<Result<Vec<_>, _>>()
            .map_err(|e| e.to_string())?
    } else {
        expanded
    };
    let called = Instant::now();
    let mut first: Option<Instant> = None;
    let report = {
        let _s = span("campaign.executor.execute");
        execute_observed(
            &batch.spec,
            runs.clone(),
            batch.workers,
            &ExecutionOptions::default(),
            &mut |_, _| {
                first.get_or_insert_with(Instant::now);
            },
        )
        .map_err(|e| e.to_string())?
    };
    let done = Instant::now();
    let first = first.unwrap_or(done);
    Ok(Iteration {
        wall: done - start,
        execute: done - called,
        first_delivery: first - called,
        setup: first - start,
        report,
        runs,
        peak_heap_mib: crate::heap::peak_mib(),
        steal_share: clock.share(),
    })
}

/// The output checks every iteration must pass: one outcome per run, no
/// failures, a summary CSV the parser accepts. Returns the summary digest
/// (FNV-1a over `campaign.csv` and `campaign.json`).
pub fn check_report(spec: &CampaignSpec, report: &CampaignReport) -> Result<u64, String> {
    let _s = span("campaign.aggregate.check");
    if report.outcomes.len() != spec.run_count() {
        return Err(format!(
            "{} outcomes for {} runs",
            report.outcomes.len(),
            spec.run_count()
        ));
    }
    if !report.failures.is_empty() {
        return Err(format!("{} failed runs", report.failures.len()));
    }
    let csv = report.summary.to_csv();
    parse_summary_csv(&csv).map_err(|e| format!("summary CSV refused: {e}"))?;
    let json = report.summary.to_json();
    Ok(stats::digest(&[csv.as_bytes(), json.as_bytes()]))
}

/// Runs the batch workload for `seconds` and reduces it to end-to-end
/// metrics. The first iteration (the same inputs on every run with this
/// seed) is returned for the summary digest and the traced layer probes.
pub fn measure(batch: &Batch, seconds: f64, work: &Path) -> Result<(Measured, Iteration), String> {
    let started = Instant::now();
    let mut iterations: Vec<Iteration> = Vec::new();
    let mut digest = 0u64;
    let mut failed = 0usize;
    let mut problems: Vec<String> = Vec::new();
    loop {
        // Every iteration records into a fresh directory; all but the
        // first (kept for the layer probes) are removed outside the
        // timed region.
        let index = iterations.len() as u64;
        let trace_dir = work.join(format!("traces-{index}"));
        let iteration = iterate(batch, index, &trace_dir)?;
        failed += iteration.report.failures.len();
        match check_report(&batch.spec, &iteration.report) {
            Ok(d) if index == 0 => digest = d,
            Ok(_) => {}
            Err(problem) => {
                failed += batch.spec.run_count() - iteration.report.failures.len();
                problems.push(problem);
            }
        }
        if index > 0 {
            let _ = std::fs::remove_dir_all(&trace_dir);
        }
        iterations.push(iteration);
        if started.elapsed().as_secs_f64() >= seconds {
            break;
        }
    }
    let per = |f: &dyn Fn(&Iteration) -> f64| -> Vec<f64> { iterations.iter().map(f).collect() };
    let attempted = iterations.len() * batch.spec.run_count();
    let campaign_ms = per(&|it| it.secs(it.execute) * 1e3);
    let tail = stats::tail(&campaign_ms);
    let mut e2e = Metrics::default();
    e2e.push(
        "runs_per_s",
        median(&per(&|it| {
            it.report.outcomes.len() as f64 / it.secs(it.wall)
        })),
        "1/s",
    );
    e2e.push(
        "sim_mcycles_per_s",
        median(&per(&|it| {
            let cycles: u64 = it.report.outcomes.iter().map(|o| o.total_cycles).sum();
            cycles as f64 / 1e6 / it.secs(it.wall)
        })),
        "Mcycles/s",
    );
    e2e.push(
        "ttfr_p50_ms",
        median(&per(&|it| it.secs(it.first_delivery) * 1e3)),
        "ms",
    );
    e2e.push("campaign_p50_ms", median(&campaign_ms), "ms");
    e2e.push("campaign_tail_ms", tail.value, "ms");
    e2e.push("peak_heap_mb", median(&per(&|it| it.peak_heap_mib)), "MiB");
    e2e.push("setup_s", median(&per(&|it| it.secs(it.setup))), "s");
    e2e.push(
        "success_frac",
        1.0 - failed as f64 / attempted as f64,
        "frac",
    );
    let mut notes = vec![
        format!(
            "{} iterations of {} runs ({} executor workers, {})",
            iterations.len(),
            batch.spec.run_count(),
            batch.workers,
            if batch.record_traces {
                "binary trace replay"
            } else {
                "generators"
            }
        ),
        format!(
            "campaign_tail_ms is p{:.1} of {} samples",
            tail.percentile, tail.samples
        ),
        format!(
            "per iteration: wall s {:.2?}, steal share {:.3?}, ticked Mcycles {:.3?}",
            per(&|it| it.wall.as_secs_f64()),
            per(&|it| it.steal_share),
            per(&|it| it
                .report
                .outcomes
                .iter()
                .map(|o| o.stepping.cycles_simulated)
                .sum::<u64>() as f64
                / 1e6)
        ),
        format!(
            "VmHWM (peak RSS) of the process: {:.1} MiB",
            stats::peak_rss_mib()
        ),
    ];
    notes.extend(problems.iter().map(|p| format!("CHECK FAILED: {p}")));
    let executor = iterations
        .iter()
        .map(|it| ExecutorSample {
            first_delivery_ms: it.first_delivery.as_secs_f64() * 1e3,
            wall: it.report.wall,
            stats: it.report.scheduling.clone(),
        })
        .collect();
    let first = iterations.swap_remove(0);
    let measured = Measured {
        correct: problems.is_empty(),
        attempted,
        failed,
        e2e,
        notes,
        digest,
        executor,
    };
    Ok((measured, first))
}
