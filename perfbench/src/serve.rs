//! `serve-stream`: an in-process `server::Server` driven over HTTP by two
//! closed-loop clients. Each client POSTs an 8-run smoke-shaped campaign,
//! streams its NDJSON results to the end, checks them, and submits the
//! next; every fourth submission repeats the client's previous (finished)
//! spec, which the server answers from its registry.

use crate::stats::{self, median, splitmix};
use crate::tracer::{child_of, span};
use crate::{ExecutorSample, Measured, Metrics, Scale};
use campaign::checkpoint::fingerprint;
use campaign::{parse_summary_csv, wire, CampaignSpec};
use server::http::client;
use server::{Server, ServerConfig};
use std::path::Path;
use std::sync::{Condvar, Mutex, PoisonError};
use std::time::{Duration, Instant};

/// Closed-loop clients (the host's `nproc` when the benchmark was made).
pub const CLIENTS: usize = 2;
/// Fresh servers started per measurement, each with its own submission
/// seeds; `setup_s` and `peak_heap_mb` are medians over them.
const SESSIONS: usize = 10;

pub struct ServeStream {
    pub seed: u64,
    pub scale: Scale,
}

/// One finished submission.
struct Submission {
    repeated: bool,
    post_ms: f64,
    /// POST sent to first NDJSON record received.
    ttfr_ms: f64,
    /// POST sent to last record received (end of stream).
    done_ms: f64,
    runs: usize,
    cycles: u64,
}

/// What the clients of one session share.
#[derive(Default)]
struct Shared {
    /// When the session's first NDJSON record arrived.
    first_record: Mutex<Option<Instant>>,
    /// Whether client 0's first POST has been answered. The other clients
    /// wait for it, so the campaign `setup_s` waits for is always client
    /// 0's first submission, not whichever POST reached the server first.
    admitted: Mutex<bool>,
    admitted_changed: Condvar,
}

impl Shared {
    fn admit(&self) {
        *self.admitted.lock().unwrap_or_else(PoisonError::into_inner) = true;
        self.admitted_changed.notify_all();
    }

    /// Waits until client 0 has been admitted, or until `deadline`.
    fn wait_admitted(&self, deadline: Instant) {
        let mut admitted = self.admitted.lock().unwrap_or_else(PoisonError::into_inner);
        while !*admitted {
            let left = deadline.saturating_duration_since(Instant::now());
            if left.is_zero() {
                return;
            }
            admitted = self
                .admitted_changed
                .wait_timeout(admitted, left)
                .unwrap_or_else(PoisonError::into_inner)
                .0;
        }
    }
}

/// What the traced layer probes need from the first campaign of client 0.
#[derive(Default)]
pub struct FirstCampaign {
    pub spec: Option<CampaignSpec>,
    pub lines: Vec<String>,
    pub csv: String,
    pub json: String,
}

#[derive(Default)]
struct ClientLog {
    submissions: Vec<Submission>,
    /// Submissions attempted (POSTs sent, refused ones included).
    attempted: usize,
    refused: usize,
    failed: usize,
    problems: Vec<String>,
    /// `(csv, json)` of this client's first campaign.
    artifacts: Option<(String, String)>,
    first: FirstCampaign,
    /// Scheduling documents of the fresh campaigns' status.
    scheduling: Vec<String>,
}

/// Everything `serve-stream` hands the traced layer probes.
pub struct Traced {
    pub first: FirstCampaign,
    pub post_ms: Vec<f64>,
    pub replay_ms: Vec<f64>,
    pub refused: usize,
    pub scheduling: Vec<String>,
}

impl ServeStream {
    pub fn new(seed: u64, scale: Scale) -> Self {
        Self { seed, scale }
    }

    /// The spec of submission `k` of client `client` in session
    /// `session`: the smoke campaign with a seed derived from the workload
    /// seed. The exception is client 0's first submission, the campaign
    /// the session's set-up waits for: its seed is derived from the smoke
    /// campaign's own seed, as the batch workloads keep theirs, so that
    /// `setup_s` times the same ten set-ups on every workload seed. Its
    /// cost ranges from about 20 ms to over 200 ms with the mixes drawn,
    /// and drawing them from the workload seed moved the median over ten
    /// sessions between 0.024 and 0.094 s across seeds 1–10.
    pub fn spec(&self, session: usize, client: usize, k: usize) -> CampaignSpec {
        let mut spec = CampaignSpec::smoke();
        let key = ((session as u64) << 48) | ((client as u64) << 32) | k as u64;
        let base = if client == 0 && k == 0 {
            spec.seed
        } else {
            self.seed
        };
        spec.seed = splitmix(base ^ splitmix(key));
        if self.scale == Scale::Tiny {
            spec.mix_count = 1;
            spec.scale.benign_instructions = 300;
        }
        spec
    }

    pub fn measure(&self, seconds: f64, work: &Path) -> Result<(Measured, Traced), String> {
        let sessions = if self.scale == Scale::Tiny {
            1
        } else {
            SESSIONS
        };
        let window = Duration::from_secs_f64(seconds / sessions as f64);
        let mut logs: Vec<ClientLog> = Vec::new();
        let mut setups: Vec<f64> = Vec::new();
        let mut heap_peaks: Vec<f64> = Vec::new();
        let mut steal_shares: Vec<f64> = Vec::new();
        let mut client_wall = 0.0f64;
        for session in 0..sessions {
            let session_span = span("serve.session");
            crate::heap::reset_peak();
            let clock = stats::StealClock::start();
            let started = Instant::now();
            let server = {
                let _s = span("server.start");
                Server::start(ServerConfig {
                    addr: "127.0.0.1:0".to_owned(),
                    data_dir: work.join(format!("serve-{session}")),
                    ..ServerConfig::default()
                })
                .map_err(|e| format!("starting the server: {e}"))?
            };
            let addr = server.addr().to_string();
            let shared = Shared::default();
            let clients_started = Instant::now();
            let deadline = clients_started + window;
            let parent = session_span.id();
            let mut session_logs: Vec<ClientLog> = std::thread::scope(|scope| {
                let handles: Vec<_> = (0..CLIENTS)
                    .map(|client| {
                        let addr = addr.as_str();
                        let shared = &shared;
                        scope.spawn(move || {
                            let _c = child_of("serve.client", parent);
                            self.client_loop(session, client, addr, deadline, shared)
                        })
                    })
                    .collect();
                handles
                    .into_iter()
                    .map(|h| h.join().unwrap_or_else(|_| panic_log()))
                    .collect()
            });
            let client_phase = clients_started.elapsed().as_secs_f64();
            {
                let _s = span("server.stop");
                server.stop();
            }
            // Every time of the session, with the session's steal removed.
            let share = clock.share();
            steal_shares.push(share);
            let kept = 1.0 - share;
            client_wall += client_phase * kept;
            let first = shared
                .first_record
                .into_inner()
                .map_err(|_| "client thread panicked")?
                .ok_or("no record was streamed")?;
            setups.push((first - started).as_secs_f64() * kept);
            heap_peaks.push(crate::heap::peak_mib());
            for sub in session_logs.iter_mut().flat_map(|log| &mut log.submissions) {
                sub.post_ms *= kept;
                sub.ttfr_ms *= kept;
                sub.done_ms *= kept;
            }
            logs.extend(session_logs);
        }

        let mut problems: Vec<String> = Vec::new();
        let (mut attempted, mut failed, mut refused) = (0, 0, 0);
        let mut fresh: Vec<&Submission> = Vec::new();
        let mut replay_ms = Vec::new();
        let mut post_ms = Vec::new();
        let mut scheduling = Vec::new();
        for log in &logs {
            attempted += log.attempted;
            failed += log.failed;
            refused += log.refused;
            problems.extend(log.problems.iter().cloned());
            scheduling.extend(log.scheduling.iter().cloned());
            for sub in &log.submissions {
                post_ms.push(sub.post_ms);
                if sub.repeated {
                    replay_ms.push(sub.done_ms);
                } else {
                    fresh.push(sub);
                }
            }
        }
        // Digest over the first campaign of each client in the first
        // session: the same seeds on every run.
        let mut parts: Vec<&[u8]> = Vec::new();
        for log in logs.iter().take(CLIENTS) {
            match &log.artifacts {
                Some((csv, json)) => {
                    parts.push(csv.as_bytes());
                    parts.push(json.as_bytes());
                }
                None => problems.push("a client finished no campaign".to_owned()),
            }
        }
        let digest = stats::digest(&parts);
        let ttfr: Vec<f64> = fresh.iter().map(|s| s.ttfr_ms).collect();
        let done: Vec<f64> = fresh.iter().map(|s| s.done_ms).collect();
        let runs: usize = fresh.iter().map(|s| s.runs).sum();
        let cycles: u64 = fresh.iter().map(|s| s.cycles).sum();
        let tail = stats::tail(&done);
        let mut e2e = Metrics::default();
        e2e.push("runs_per_s", runs as f64 / client_wall, "1/s");
        e2e.push(
            "sim_mcycles_per_s",
            cycles as f64 / 1e6 / client_wall,
            "Mcycles/s",
        );
        e2e.push("ttfr_p50_ms", median(&ttfr), "ms");
        e2e.push("campaign_p50_ms", median(&done), "ms");
        e2e.push("campaign_tail_ms", tail.value, "ms");
        e2e.push("peak_heap_mb", median(&heap_peaks), "MiB");
        e2e.push("setup_s", median(&setups), "s");
        e2e.push(
            "success_frac",
            1.0 - failed as f64 / attempted.max(1) as f64,
            "frac",
        );
        let mut notes = vec![
            format!(
                "{sessions} server sessions x {CLIENTS} closed-loop clients; {} submissions \
                 ({} fresh, {} repeated), {refused} refused",
                attempted,
                fresh.len(),
                replay_ms.len()
            ),
            format!(
                "campaign_tail_ms is p{:.1} of {} samples",
                tail.percentile, tail.samples
            ),
            format!("steal share per session: {steal_shares:.3?}"),
            format!("setup s per session: {setups:.4?}"),
            format!(
                "VmHWM (peak RSS) of the process: {:.1} MiB",
                stats::peak_rss_mib()
            ),
        ];
        notes.extend(problems.iter().map(|p| format!("CHECK FAILED: {p}")));
        let first = logs
            .into_iter()
            .next()
            .map(|log| log.first)
            .unwrap_or_default();
        let measured = Measured {
            correct: problems.is_empty(),
            attempted,
            failed,
            e2e,
            notes,
            digest,
            executor: Vec::<ExecutorSample>::new(),
        };
        let traced = Traced {
            first,
            post_ms,
            replay_ms,
            refused,
            scheduling,
        };
        Ok((measured, traced))
    }

    fn client_loop(
        &self,
        session: usize,
        client: usize,
        addr: &str,
        deadline: Instant,
        shared: &Shared,
    ) -> ClientLog {
        let mut log = ClientLog::default();
        if client > 0 {
            shared.wait_admitted(deadline);
        }
        let mut previous: Option<CampaignSpec> = None;
        let mut k = 0usize;
        while Instant::now() < deadline {
            let repeated = k % 4 == 3 && previous.is_some();
            let spec = match (&previous, repeated) {
                (Some(spec), true) => spec.clone(),
                _ => self.spec(session, client, k),
            };
            k += 1;
            log.attempted += 1;
            match self.submit(addr, &spec, repeated, client == 0, shared, &mut log) {
                Ok(Some(sub)) => {
                    log.submissions.push(sub);
                    previous = Some(spec);
                }
                Ok(None) => {
                    // Refused (non-2xx): counted, then retried as a new
                    // submission after a short pause.
                    log.failed += 1;
                    log.refused += 1;
                    std::thread::sleep(Duration::from_millis(50));
                }
                Err(problem) => {
                    log.failed += 1;
                    log.problems.push(problem);
                }
            }
        }
        log
    }

    /// POSTs one campaign and streams it to the end. `Ok(None)` means the
    /// server refused the submission. `admits`: tell the other clients
    /// once the POST has been answered.
    fn submit(
        &self,
        addr: &str,
        spec: &CampaignSpec,
        repeated: bool,
        admits: bool,
        shared: &Shared,
        log: &mut ClientLog,
    ) -> Result<Option<Submission>, String> {
        let _s = span("serve.submission");
        let body = wire::spec_to_json(spec);
        let fp = format!("{:016x}", fingerprint(spec));
        let posted = Instant::now();
        let response = {
            let _s = span("server.post");
            client::request(
                addr,
                "POST",
                "/campaigns",
                &[
                    ("Content-Type", "application/json"),
                    ("X-Campaign-Fingerprint", &fp),
                ],
                body.as_bytes(),
            )
        };
        if admits {
            shared.admit();
        }
        let response = response.map_err(|e| format!("POST: {e}"))?;
        let post_ms = posted.elapsed().as_secs_f64() * 1e3;
        if !(200..300).contains(&response.status) {
            return Ok(None);
        }
        let expected = if repeated { 200 } else { 201 };
        if response.status != expected {
            return Err(format!(
                "POST answered {} where {expected} was expected",
                response.status
            ));
        }
        let id = fp;
        let mut first: Option<Instant> = None;
        let mut lines: Vec<String> = Vec::new();
        let status = {
            let _s = span("server.stream");
            client::stream(addr, &format!("/campaigns/{id}/results"), &mut |line| {
                if first.is_none() {
                    let now = Instant::now();
                    first = Some(now);
                    if let Ok(mut global) = shared.first_record.lock() {
                        global.get_or_insert(now);
                    }
                }
                lines.push(line.to_owned());
                Ok(())
            })
            .map_err(|e| format!("streaming {id}: {e}"))?
        };
        let ended = Instant::now();
        if status != 200 {
            return Err(format!("stream of {id} answered {status}"));
        }
        let first = first.ok_or_else(|| format!("stream of {id} carried no record"))?;
        let _c = span("serve.check");
        if lines.len() != spec.run_count() {
            return Err(format!(
                "stream of {id} delivered {} records for {} runs",
                lines.len(),
                spec.run_count()
            ));
        }
        let mut cycles = 0u64;
        for line in &lines {
            let record = wire::parse_json(line).map_err(|e| format!("NDJSON record: {e}"))?;
            if record.get("type").and_then(|t| t.as_str()) != Some("outcome") {
                return Err(format!("stream of {id} carried a non-outcome record"));
            }
            cycles += record
                .get("total_cycles")
                .and_then(|c| c.as_u64())
                .ok_or("NDJSON record without total_cycles")?;
        }
        let status = client::request(addr, "GET", &format!("/campaigns/{id}"), &[], &[])
            .map_err(|e| format!("GET status: {e}"))?;
        let doc = wire::parse_json(status.utf8().map_err(|e| e.to_string())?)
            .map_err(|e| format!("status document: {e}"))?;
        let phase = doc.get("phase").and_then(|p| p.as_str()).unwrap_or("");
        if phase != "done" {
            return Err(format!("campaign {id} ended in phase `{phase}`"));
        }
        if !repeated {
            if let Some(text) = status.utf8().ok().and_then(scheduling_fragment) {
                log.scheduling.push(text);
            }
        }
        if log.artifacts.is_none() {
            let fetch = |kind: &str| -> Result<String, String> {
                let r = client::request(
                    addr,
                    "GET",
                    &format!("/campaigns/{id}/artifacts/{kind}"),
                    &[],
                    &[],
                )
                .map_err(|e| format!("GET {kind}: {e}"))?;
                if r.status != 200 {
                    return Err(format!("artifact {kind} answered {}", r.status));
                }
                r.utf8().map(str::to_owned).map_err(|e| e.to_string())
            };
            let csv = fetch("csv")?;
            let json = fetch("json")?;
            parse_summary_csv(&csv).map_err(|e| format!("summary CSV refused: {e}"))?;
            if log.first.spec.is_none() {
                log.first.spec = Some(spec.clone());
                log.first.lines = lines.clone();
                log.first.csv = csv.clone();
                log.first.json = json.clone();
            }
            log.artifacts = Some((csv, json));
        }
        Ok(Some(Submission {
            repeated,
            post_ms,
            ttfr_ms: (first - posted).as_secs_f64() * 1e3,
            done_ms: (ended - posted).as_secs_f64() * 1e3,
            runs: lines.len(),
            cycles,
        }))
    }
}

/// The `"scheduling":{...}` object of a status document, as text.
fn scheduling_fragment(status: &str) -> Option<String> {
    let at = status.find("\"scheduling\":")? + "\"scheduling\":".len();
    let rest = &status[at..];
    rest.strip_suffix('}').map(str::to_owned)
}

fn panic_log() -> ClientLog {
    ClientLog {
        failed: 1,
        problems: vec!["a client thread panicked".to_owned()],
        ..ClientLog::default()
    }
}
