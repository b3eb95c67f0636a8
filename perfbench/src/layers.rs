//! Per-layer probes of the traced run (`--trace 1`).
//!
//! After the traced repetition of a workload, these probes time each
//! layer through its public functions at the workload's own
//! configuration, and read the exact work counts behind the end-to-end
//! numbers. Every per-layer metric is printed for every workload; where a
//! workload does not exercise a layer or a (defense, scenario, channels)
//! combination itself, the value comes from a probe built from the
//! workload's own runs (see `perfbench/README.md`, "Provenance").

use crate::batch::{self, Batch, Iteration};
use crate::serve::Traced;
use crate::stats::{self, median};
use crate::tracer::span;
use crate::{ExecutorSample, Measured, Metrics};
use bh_types::DramAddress;
use blockhammer::{BlockHammerConfig, CountingBloomFilter, RowBlocker};
use campaign::checkpoint::{self, fingerprint};
use campaign::{
    execute_observed, open_trace_file, record_run_traces, run_spec, wire, CampaignAggregator,
    CampaignSpec, ExecutionOptions, JournalEntry, RunOutcome, RunSpec, ThreadGenerator,
    TraceFormat,
};
use mitigations::RowHammerThreshold;
use server::http::client;
use server::{Server, ServerConfig};
use sim::{DefenseKind, SystemBuilder};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::path::Path;
use std::time::Instant;

/// The defense, scenario and channel axes the per-layer names span.
pub const DEFENSES: [DefenseKind; 3] = [
    DefenseKind::Baseline,
    DefenseKind::Para,
    DefenseKind::BlockHammer,
];
pub const SCENARIOS: [&str; 2] = ["no-attack", "attack"];
pub const CHANNELS: [usize; 3] = [1, 2, 4];

/// Operations per CBF / RowBlocker micro-probe.
const OPS: u64 = 200_000;
/// Submissions of the server probe on batch workloads (one fresh, the
/// rest repeats), enough for a tail with ten samples beyond it.
const SERVER_PROBE_POSTS: usize = 12;

/// Every per-layer metric, with its unit, in print order.
pub fn names() -> Vec<(String, &'static str)> {
    let mut names: Vec<(String, &'static str)> = vec![
        ("tracing.runs_per_s".into(), "1/s"),
        ("trace.record_ms".into(), "ms"),
        ("trace.records".into(), "count"),
        ("trace.replay_ns_per_record".into(), "ns"),
        ("executor.first_delivery_ms".into(), "ms"),
        ("executor.worker_busy_frac".into(), "frac"),
        ("executor.steals".into(), "count"),
        ("executor.reorder_high_water".into(), "count"),
        ("executor.prelude_computed".into(), "count"),
        ("executor.prelude_from_cache".into(), "count"),
    ];
    for stat in ["p50", "tail"] {
        for defense in DEFENSES {
            for scenario in SCENARIOS {
                names.push((
                    format!("runner.run_ms_{stat}.{}.{scenario}", defense.label()),
                    "ms",
                ));
            }
        }
    }
    for (metric, unit) in [("build_ms", "ms"), ("ns_per_cycle", "ns")] {
        for defense in DEFENSES {
            for channels in CHANNELS {
                names.push((
                    format!("sim.{metric}.{}.ch{channels}", defense.label()),
                    unit,
                ));
            }
        }
    }
    for (name, unit) in [
        ("sim.cycles_simulated", "count"),
        ("sim.cycles_skipped", "count"),
        ("sim.truncated_runs", "count"),
        ("cbf.counters", "count"),
        ("cbf.mib_per_channel", "MiB"),
        ("cbf.new_ms", "ms"),
        ("cbf.insert_ns", "ns"),
        ("cbf.estimate_ns", "ns"),
        ("rowblocker.query_ns", "ns"),
        ("defense.blocked_activations", "count"),
        ("defense.blacklist_insertions", "count"),
        ("defense.victim_refreshes", "count"),
        ("ctrl.row_hits", "count"),
        ("ctrl.row_conflicts", "count"),
        ("ctrl.rejected_queue_full", "count"),
        ("ctrl.activations_delayed_by_defense", "count"),
        ("dram.activations", "count"),
        ("llc.hits", "count"),
        ("llc.misses", "count"),
        ("cpu.instructions", "count"),
        ("cpu.memory_requests", "count"),
        ("journal.append_us_p50", "us"),
        ("journal.append_us_tail", "us"),
        ("wire.ndjson_encode_us", "us"),
        ("aggregate.absorb_us", "us"),
        ("server.post_ms_p50", "ms"),
        ("server.post_ms_tail", "ms"),
        ("server.replay_ms_p50", "ms"),
        ("server.refused", "count"),
    ] {
        names.push((name.into(), unit));
    }
    names
}

/// Collects probe values by name; [`Collected::finish`] orders them by
/// [`names`] and reports any that are missing.
#[derive(Default)]
struct Collected {
    values: BTreeMap<String, f64>,
    problems: Vec<String>,
}

impl Collected {
    fn set(&mut self, name: impl Into<String>, value: f64) {
        self.values.insert(name.into(), value);
    }

    fn finish(mut self) -> (Metrics, Vec<String>) {
        let mut metrics = Metrics::default();
        for (name, unit) in names() {
            match self.values.remove(&name) {
                Some(value) => metrics.push(name, value, unit),
                None => self
                    .problems
                    .push(format!("per-layer metric {name} not measured")),
            }
        }
        for name in self.values.keys() {
            self.problems
                .push(format!("unlisted per-layer metric {name}"));
        }
        (metrics, self.problems)
    }
}

/// Per-layer metrics of a batch workload.
pub fn probe_batch(
    batch: &Batch,
    measured: &Measured,
    first: &Iteration,
    work: &Path,
) -> Result<(Metrics, Vec<String>), String> {
    let mut c = Collected::default();
    c.set("tracing.runs_per_s", e2e(measured, "runs_per_s"));
    executor_from_samples(&mut c, &measured.executor);
    // Byte-compare the timed artifacts against the other scheduler: a
    // sequential execute for stealing workloads, stealing for sequential.
    {
        let _s = span("probe.scheduler_equivalence");
        let workers = if batch.workers > 1 { 0 } else { batch::nproc() };
        let other = execute_observed(
            &batch.spec,
            first.runs.clone(),
            workers,
            &ExecutionOptions::default(),
            &mut |_, _| {},
        )
        .map_err(|e| e.to_string())?;
        if other.summary.to_csv() != first.report.summary.to_csv()
            || other.summary.to_json() != first.report.summary.to_json()
        {
            c.problems.push(format!(
                "campaign.csv/json differ between {} and {} execution",
                first.report.scheduling.scheduler, other.scheduling.scheduler
            ));
        }
    }
    common(
        &mut c,
        &batch.spec,
        &first.runs,
        &first.report.outcomes,
        work,
    )?;
    server_probe(&mut c, &batch.spec, work)?;
    Ok(c.finish())
}

/// Per-layer metrics of `serve-stream`.
pub fn probe_serve(
    measured: &Measured,
    traced: &Traced,
    work: &Path,
) -> Result<(Metrics, Vec<String>), String> {
    let mut c = Collected::default();
    c.set("tracing.runs_per_s", e2e(measured, "runs_per_s"));
    let spec = traced
        .first
        .spec
        .clone()
        .ok_or("serve-stream finished no campaign")?;
    // The same campaign in batch, with the server's executor settings:
    // its artifacts and NDJSON must match what the server streamed.
    let runs = spec.expand();
    let mut entries: Vec<JournalEntry> = Vec::new();
    let called = Instant::now();
    let mut first: Option<Instant> = None;
    let report = {
        let _s = span("probe.batch_equivalence");
        execute_observed(
            &spec,
            runs.clone(),
            ServerConfig::default().workers,
            &ExecutionOptions::default(),
            &mut |entry, _| {
                first.get_or_insert_with(Instant::now);
                entries.push(entry.clone());
            },
        )
        .map_err(|e| e.to_string())?
    };
    let first_ms = (first.unwrap_or_else(Instant::now) - called).as_secs_f64() * 1e3;
    if report.summary.to_csv() != traced.first.csv || report.summary.to_json() != traced.first.json
    {
        c.problems
            .push("server artifacts differ from batch execution of the same spec".to_owned());
    }
    let batch_lines: Vec<String> = entries.iter().map(wire::entry_to_ndjson).collect();
    if batch_lines != traced.first.lines {
        c.problems
            .push("streamed NDJSON differs from entry_to_ndjson of the batch entries".to_owned());
    }
    executor_from_samples(
        &mut c,
        &[ExecutorSample {
            first_delivery_ms: first_ms,
            wall: report.wall,
            stats: report.scheduling.clone(),
        }],
    );
    // Prelude and scheduling counts as the server reported them: the
    // median over its fresh campaigns.
    let mut per_campaign: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
    for doc in &traced.scheduling {
        let Ok(json) = wire::parse_json(doc) else {
            continue;
        };
        let count = |value: Option<&wire::Json>| value.and_then(|v| v.as_u64()).unwrap_or(0);
        let prelude = json.get("prelude");
        let steals: u64 = json
            .get("workers")
            .and_then(|w| w.as_array())
            .unwrap_or(&[])
            .iter()
            .map(|worker| count(worker.get("steals")))
            .sum();
        for (name, value) in [
            (
                "executor.prelude_computed",
                count(prelude.and_then(|p| p.get("computed"))),
            ),
            (
                "executor.prelude_from_cache",
                count(prelude.and_then(|p| p.get("from_cache"))),
            ),
            (
                "executor.reorder_high_water",
                count(json.get("reorder_high_water")),
            ),
            ("executor.steals", steals),
        ] {
            per_campaign.entry(name).or_default().push(value as f64);
        }
    }
    for (name, values) in per_campaign {
        c.set(name, median(&values));
    }
    common(&mut c, &spec, &runs, &report.outcomes, work)?;
    let post = stats::tail(&traced.post_ms);
    c.set("server.post_ms_p50", median(&traced.post_ms));
    c.set("server.post_ms_tail", post.value);
    c.set("server.replay_ms_p50", median(&traced.replay_ms));
    c.set("server.refused", traced.refused as f64);
    Ok(c.finish())
}

fn e2e(measured: &Measured, name: &str) -> f64 {
    measured
        .e2e
        .0
        .iter()
        .find(|(n, _, _)| n == name)
        .map_or(0.0, |(_, v, _)| *v)
}

fn executor_from_samples(c: &mut Collected, samples: &[ExecutorSample]) {
    let per = |f: &dyn Fn(&ExecutorSample) -> f64| -> f64 {
        median(&samples.iter().map(f).collect::<Vec<_>>())
    };
    c.set("executor.first_delivery_ms", per(&|s| s.first_delivery_ms));
    c.set(
        "executor.worker_busy_frac",
        per(&|s| {
            let workers = s.stats.workers.len();
            if workers == 0 {
                return 0.0;
            }
            let busy: f64 = s.stats.workers.iter().map(|w| w.busy.as_secs_f64()).sum();
            busy / (workers as f64 * s.wall.as_secs_f64().max(1e-9))
        }),
    );
    c.set(
        "executor.steals",
        per(&|s| s.stats.workers.iter().map(|w| w.steals).sum::<u64>() as f64),
    );
    c.set(
        "executor.reorder_high_water",
        per(&|s| s.stats.reorder_high_water as f64),
    );
    c.set(
        "executor.prelude_computed",
        per(&|s| s.stats.prelude.computed as f64),
    );
    c.set(
        "executor.prelude_from_cache",
        per(&|s| s.stats.prelude.from_cache as f64),
    );
}

/// Rebuilds a run from its public fields exactly as the campaign runner
/// does on its generator path (trace-replaying runs replay bit-identically
/// to their generators, so the same builder serves them).
fn rebuild(spec: &RunSpec) -> SystemBuilder {
    let mut builder = SystemBuilder::new()
        .time_scale(spec.scale.time_scale)
        .llc_capacity(spec.scale.llc_bytes)
        .seed(spec.seed)
        .max_cycles(spec.scale.max_cycles)
        .min_cycles(spec.scale.min_cycles)
        .channels(spec.channels)
        .defense(spec.defense)
        .rowhammer_threshold(spec.paper_n_rh)
        .advance_mode(spec.scale.advance);
    for thread in &spec.threads {
        builder = match &thread.generator {
            ThreadGenerator::Attack(kind) => builder.add_attacker_kind(*kind),
            ThreadGenerator::Synthetic(synthetic) => {
                builder.add_workload(synthetic.clone(), thread.instruction_limit)
            }
        };
    }
    builder
}

/// A copy of `base` under another defense and channel count, renamed so
/// it cannot be mistaken for one of the workload's own runs.
///
/// Its cycle bound is cut to the scale's `min_cycles` (two scaled refresh
/// windows at quick scale): a variant only feeds per-cycle and build
/// timings, and under the quick scale's 3M-cycle bound a starved benign
/// thread can keep a 4-channel variant running for over a minute at the
/// per-cycle cost of `WorkerPool` stepping.
fn variant(base: &RunSpec, defense: DefenseKind, channels: usize) -> RunSpec {
    let mut spec = base.clone();
    spec.defense = defense;
    spec.channels = channels;
    spec.name = format!("probe/{}/{}/ch{channels}", base.scenario, defense.label());
    spec.alone_ipc.clear();
    if spec.scale.min_cycles > 0 {
        spec.scale.max_cycles = spec.scale.max_cycles.min(spec.scale.min_cycles);
    }
    spec
}

fn is_truncated(spec: &RunSpec, outcome: &RunOutcome) -> bool {
    outcome.total_cycles >= spec.scale.max_cycles
        && spec
            .threads
            .iter()
            .zip(&outcome.threads)
            .any(|(t, o)| !t.is_attacker && o.instructions < t.instruction_limit)
}

/// Timing of one rebuilt run: `SystemBuilder::build` and `System::run`.
struct SimTiming {
    build_ms: f64,
    run_ns: f64,
    cycles_simulated: u64,
}

fn sim_run(spec: &RunSpec) -> (SimTiming, sim::RunResult) {
    let builder = rebuild(spec);
    let t = Instant::now();
    let system = {
        let _s = span("sim.build");
        builder.build()
    };
    let build_ms = t.elapsed().as_secs_f64() * 1e3;
    let t = Instant::now();
    let result = {
        let _s = span("sim.run");
        system.run()
    };
    let run_ns = t.elapsed().as_nanos() as f64;
    (
        SimTiming {
            build_ms,
            run_ns,
            cycles_simulated: result.stepping.cycles_simulated,
        },
        result,
    )
}

/// The layer probes every workload shares: runner, sim (timings and
/// counts), blockhammer, trace, checkpoint, wire and aggregate.
fn common(
    c: &mut Collected,
    spec: &CampaignSpec,
    runs: &[RunSpec],
    executed: &[RunOutcome],
    work: &Path,
) -> Result<(), String> {
    // campaign.runner: a sequential replay of every run through run_spec.
    let mut run_ms: BTreeMap<(&'static str, String), Vec<f64>> = BTreeMap::new();
    let mut outcomes: Vec<RunOutcome> = Vec::with_capacity(runs.len());
    {
        let _s = span("probe.runner");
        for run in runs {
            let t = Instant::now();
            let outcome = {
                let _s = span("campaign.runner.run_spec");
                run_spec(run).map_err(|e| e.to_string())?
            };
            run_ms
                .entry((run.defense.label(), run.scenario.clone()))
                .or_default()
                .push(t.elapsed().as_secs_f64() * 1e3);
            outcomes.push(outcome);
        }
    }
    for (replayed, original) in outcomes.iter().zip(executed) {
        if replayed.total_cycles != original.total_cycles
            || replayed.activations != original.activations
        {
            c.problems.push(format!(
                "run_spec replay of {} differs from the executed outcome",
                replayed.name
            ));
        }
    }
    for defense in DEFENSES {
        for scenario in SCENARIOS {
            let key = (defense.label(), scenario.to_owned());
            let samples = match run_ms.get(&key) {
                Some(samples) => samples.clone(),
                None => {
                    let base = runs
                        .iter()
                        .find(|r| r.scenario == scenario)
                        .ok_or_else(|| format!("no {scenario} run to probe"))?;
                    let probe = variant(base, defense, base.channels);
                    let t = Instant::now();
                    let _s = span("campaign.runner.run_spec");
                    run_spec(&probe).map_err(|e| e.to_string())?;
                    vec![t.elapsed().as_secs_f64() * 1e3]
                }
            };
            c.set(
                format!("runner.run_ms_p50.{}.{scenario}", defense.label()),
                median(&samples),
            );
            c.set(
                format!("runner.run_ms_tail.{}.{scenario}", defense.label()),
                stats::tail(&samples).value,
            );
        }
    }

    // sim: rebuild every run through SystemBuilder for build/run timings
    // and the RunResult counts the campaign outcome does not carry.
    let mut timings: BTreeMap<(&'static str, usize), Vec<SimTiming>> = BTreeMap::new();
    let mut counts: BTreeMap<&'static str, u64> = BTreeMap::new();
    let mut counts_ok = true;
    {
        let _s = span("probe.sim");
        for (run, outcome) in runs.iter().zip(&outcomes) {
            let (timing, result) = sim_run(run);
            if result.total_cycles != outcome.total_cycles
                || result.dram.totals().activates != outcome.activations
            {
                c.problems.push(format!(
                    "rebuilt {} does not match its run_spec outcome",
                    run.name
                ));
                counts_ok = false;
            }
            let mut add =
                |name: &'static str, value: u64| *counts.entry(name).or_default() += value;
            add("sim.cycles_simulated", result.stepping.cycles_simulated);
            add("sim.cycles_skipped", result.stepping.cycles_skipped);
            add("sim.truncated_runs", u64::from(is_truncated(run, outcome)));
            add(
                "defense.blocked_activations",
                result.defense_stats.blocked_activations,
            );
            add(
                "defense.blacklist_insertions",
                result.defense_stats.blacklist_insertions,
            );
            add(
                "defense.victim_refreshes",
                result.defense_stats.victim_refreshes,
            );
            add("ctrl.row_hits", result.ctrl.row_hits);
            add("ctrl.row_conflicts", result.ctrl.row_conflicts);
            add("ctrl.rejected_queue_full", result.ctrl.rejected_queue_full);
            add(
                "ctrl.activations_delayed_by_defense",
                result.ctrl.activations_delayed_by_defense,
            );
            add("dram.activations", result.dram.totals().activates);
            add("llc.hits", result.llc_hits);
            add("llc.misses", result.llc_misses);
            add(
                "cpu.instructions",
                result.threads.iter().map(|t| t.instructions).sum(),
            );
            add(
                "cpu.memory_requests",
                result.threads.iter().map(|t| t.memory_requests).sum(),
            );
            timings
                .entry((run.defense.label(), run.channels))
                .or_default()
                .push(timing);
        }
    }
    if counts_ok {
        for (name, value) in counts {
            c.set(name, value as f64);
        }
    }
    let mut bases: Vec<&RunSpec> = Vec::new();
    for scenario in SCENARIOS {
        if let Some(run) = runs.iter().find(|r| r.scenario == scenario) {
            bases.push(run);
        }
    }
    for defense in DEFENSES {
        for channels in CHANNELS {
            let samples = timings
                .entry((defense.label(), channels))
                .or_insert_with(|| {
                    let _s = span("probe.sim_variant");
                    bases
                        .iter()
                        .map(|base| sim_run(&variant(base, defense, channels)).0)
                        .collect()
                });
            let build: Vec<f64> = samples.iter().map(|t| t.build_ms).collect();
            let run_ns: f64 = samples.iter().map(|t| t.run_ns).sum();
            let cycles: u64 = samples.iter().map(|t| t.cycles_simulated).sum();
            c.set(
                format!("sim.build_ms.{}.ch{channels}", defense.label()),
                median(&build),
            );
            c.set(
                format!("sim.ns_per_cycle.{}.ch{channels}", defense.label()),
                run_ns / cycles.max(1) as f64,
            );
        }
    }

    blockhammer_probe(c, runs);
    trace_probe(c, runs, work)?;
    journal_probe(c, spec, &outcomes, work)?;
    Ok(())
}

/// CBF and RowBlocker costs at the largest BlockHammer configuration the
/// workload builds, derived the way `SystemBuilder` derives it.
fn blockhammer_probe(c: &mut Collected, runs: &[RunSpec]) {
    let _s = span("probe.blockhammer");
    let mut chosen: Option<(BlockHammerConfig, mitigations::DefenseGeometry)> = None;
    let candidates: Vec<RunSpec> = match runs
        .iter()
        .filter(|r| r.defense == DefenseKind::BlockHammer)
        .count()
    {
        0 => runs
            .iter()
            .take(1)
            .map(|r| variant(r, DefenseKind::BlockHammer, r.channels))
            .collect(),
        _ => runs
            .iter()
            .filter(|r| r.defense == DefenseKind::BlockHammer)
            .cloned()
            .collect(),
    };
    for run in &candidates {
        let builder = rebuild(run);
        let geometry = builder.geometry_preview();
        let config = BlockHammerConfig::for_rowhammer_threshold(
            RowHammerThreshold::new(builder.effective_n_rh()),
            &geometry,
        );
        if chosen
            .as_ref()
            .is_none_or(|(best, _)| config.cbf_size > best.cbf_size)
        {
            chosen = Some((config, geometry));
        }
    }
    let Some((config, geometry)) = chosen else {
        return;
    };
    let size = config.cbf_size;
    c.set("cbf.counters", size as f64);
    // Two filters per bank (the D-CBF), one u64 cell per counter.
    c.set(
        "cbf.mib_per_channel",
        (size * 8 * 2 * geometry.total_banks) as f64 / (1u64 << 20) as f64,
    );
    let saturation = config.n_bl as u32 + 1;
    let mut new_ms = Vec::new();
    for i in 0..5 {
        let t = Instant::now();
        let filter = {
            let _s = span("blockhammer.cbf.new");
            CountingBloomFilter::new(size, config.cbf_hashes, saturation, i)
        };
        new_ms.push(t.elapsed().as_secs_f64() * 1e3);
        black_box(filter);
    }
    c.set("cbf.new_ms", median(&new_ms));
    let rows = geometry.rows_per_bank.max(1);
    let mut state = 0x2545_F491_4F6C_DD1Du64;
    let mut next_row = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state % rows
    };
    let mut filter = CountingBloomFilter::new(size, config.cbf_hashes, saturation, 7);
    let t = Instant::now();
    {
        let _s = span("blockhammer.cbf.insert");
        for _ in 0..OPS {
            filter.insert(black_box(next_row()));
        }
    }
    c.set("cbf.insert_ns", t.elapsed().as_nanos() as f64 / OPS as f64);
    let t = Instant::now();
    {
        let _s = span("blockhammer.cbf.estimate");
        let mut sum = 0u64;
        for _ in 0..OPS {
            sum += u64::from(filter.estimate(black_box(next_row())));
        }
        black_box(sum);
    }
    c.set(
        "cbf.estimate_ns",
        t.elapsed().as_nanos() as f64 / OPS as f64,
    );
    let mut blocker = RowBlocker::new(config, geometry, 11);
    let ranks = geometry.ranks_per_channel.max(1);
    let groups = geometry.bank_groups_per_rank.max(1);
    let banks = geometry.banks_per_group.max(1);
    let mut addresses: Vec<DramAddress> = (0..4096u64)
        .map(|i| {
            let i = i as usize;
            DramAddress::new(
                0,
                i % ranks,
                (i / ranks) % groups,
                (i / (ranks * groups)) % banks,
                next_row(),
                0,
            )
        })
        .collect();
    // A few hot rows, so some queries find blacklisted rows.
    for addr in addresses.iter_mut().step_by(64) {
        *addr = DramAddress::new(0, 0, 0, 0, 42, 0);
    }
    let step = geometry.t_rc_cycles.max(1);
    for (i, addr) in addresses.iter().enumerate() {
        blocker.on_activation(i as u64 * step, addr);
    }
    let base = addresses.len() as u64 * step;
    let t = Instant::now();
    {
        let _s = span("blockhammer.rowblocker.query");
        let mut safe = 0u64;
        for i in 0..OPS {
            let addr = &addresses[(i as usize) % addresses.len()];
            safe += u64::from(blocker.is_activation_safe(base + i, black_box(addr)));
        }
        black_box(safe);
    }
    c.set(
        "rowblocker.query_ns",
        t.elapsed().as_nanos() as f64 / OPS as f64,
    );
}

/// Records the workload's runs to binary trace files and reads them back.
fn trace_probe(c: &mut Collected, runs: &[RunSpec], work: &Path) -> Result<(), String> {
    let _s = span("probe.trace");
    let dir = work.join("trace-probe");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).map_err(|e| e.to_string())?;
    let t = Instant::now();
    {
        let _s = span("campaign.trace.record");
        for run in runs {
            record_run_traces(run, &dir, TraceFormat::Binary).map_err(|e| e.to_string())?;
        }
    }
    c.set("trace.record_ms", t.elapsed().as_secs_f64() * 1e3);
    let mut files: Vec<_> = std::fs::read_dir(&dir)
        .map_err(|e| e.to_string())?
        .filter_map(Result::ok)
        .map(|e| e.path())
        .collect();
    files.sort();
    let mut records = 0u64;
    let t = Instant::now();
    {
        let _s = span("campaign.trace.replay");
        for file in &files {
            for record in open_trace_file(file).map_err(|e| e.to_string())? {
                black_box(record.map_err(|e| e.to_string())?);
                records += 1;
            }
        }
    }
    let replay_ns = t.elapsed().as_nanos() as f64;
    c.set("trace.records", records as f64);
    c.set(
        "trace.replay_ns_per_record",
        replay_ns / records.max(1) as f64,
    );
    let _ = std::fs::remove_dir_all(&dir);
    Ok(())
}

/// Journal appends, NDJSON encoding and aggregation of the workload's
/// outcomes.
fn journal_probe(
    c: &mut Collected,
    spec: &CampaignSpec,
    outcomes: &[RunOutcome],
    work: &Path,
) -> Result<(), String> {
    let _s = span("probe.journal");
    let path = work.join("probe.journal");
    let _ = std::fs::remove_file(&path);
    let mut journal = checkpoint::resume_or_create(&path, fingerprint(spec), outcomes.len() as u64)
        .map_err(|e| e.to_string())?;
    let entries: Vec<JournalEntry> = outcomes
        .iter()
        .cloned()
        .map(JournalEntry::Outcome)
        .collect();
    let mut append_us = Vec::new();
    let mut encode_us = Vec::new();
    for entry in &entries {
        let t = Instant::now();
        {
            let _s = span("campaign.checkpoint.append");
            journal.writer.append(entry).map_err(|e| e.to_string())?;
        }
        append_us.push(t.elapsed().as_secs_f64() * 1e6);
        let t = Instant::now();
        {
            let _s = span("campaign.wire.entry_to_ndjson");
            black_box(wire::entry_to_ndjson(black_box(entry)));
        }
        encode_us.push(t.elapsed().as_secs_f64() * 1e6);
    }
    c.set("journal.append_us_p50", median(&append_us));
    c.set("journal.append_us_tail", stats::tail(&append_us).value);
    c.set("wire.ndjson_encode_us", median(&encode_us));
    let mut aggregator = CampaignAggregator::new(spec.name.clone());
    let mut absorb_us = Vec::new();
    for outcome in outcomes {
        let t = Instant::now();
        {
            let _s = span("campaign.aggregate.absorb");
            aggregator.absorb(black_box(outcome));
        }
        absorb_us.push(t.elapsed().as_secs_f64() * 1e6);
    }
    black_box(aggregator.finish());
    c.set("aggregate.absorb_us", median(&absorb_us));
    let _ = std::fs::remove_file(&path);
    Ok(())
}

/// The server layer on a batch workload: a fresh server, one campaign
/// cut from the workload (its first mix, N_RH point and channel count),
/// submitted once and then repeated, each streamed to the end.
fn server_probe(c: &mut Collected, spec: &CampaignSpec, work: &Path) -> Result<(), String> {
    let _s = span("probe.server");
    let mut probe = spec.clone();
    probe.mix_count = 1;
    probe.n_rh_points.truncate(1);
    probe.channel_counts.truncate(1);
    let server = Server::start(ServerConfig {
        addr: "127.0.0.1:0".to_owned(),
        data_dir: work.join("server-probe"),
        ..ServerConfig::default()
    })
    .map_err(|e| format!("starting the server: {e}"))?;
    let addr = server.addr().to_string();
    let body = wire::spec_to_json(&probe);
    let id = format!("{:016x}", fingerprint(&probe));
    let (mut post_ms, mut replay_ms, mut refused) = (Vec::new(), Vec::new(), 0usize);
    let mut outcome = Ok(());
    for i in 0..SERVER_PROBE_POSTS {
        let t = Instant::now();
        let response = {
            let _s = span("server.post");
            client::request(addr.as_str(), "POST", "/campaigns", &[], body.as_bytes())
        };
        let response = match response {
            Ok(r) => r,
            Err(e) => {
                outcome = Err(format!("POST: {e}"));
                break;
            }
        };
        post_ms.push(t.elapsed().as_secs_f64() * 1e3);
        if !(200..300).contains(&response.status) {
            refused += 1;
            continue;
        }
        let mut lines = 0usize;
        let streamed = {
            let _s = span("server.stream");
            client::stream(&addr, &format!("/campaigns/{id}/results"), &mut |_| {
                lines += 1;
                Ok(())
            })
        };
        if !matches!(streamed, Ok(200)) || lines != probe.run_count() {
            outcome = Err(format!(
                "server probe streamed {lines} records for {} runs",
                probe.run_count()
            ));
            break;
        }
        if i > 0 {
            replay_ms.push(t.elapsed().as_secs_f64() * 1e3);
        }
    }
    server.stop();
    outcome?;
    let post = stats::tail(&post_ms);
    c.set("server.post_ms_p50", median(&post_ms));
    c.set("server.post_ms_tail", post.value);
    c.set("server.replay_ms_p50", median(&replay_ms));
    c.set("server.refused", refused as f64);
    Ok(())
}
