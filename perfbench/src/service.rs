//! The `service_tcp` load: an in-process `moheco_serve::Server` on a
//! loopback port, driven by closed-loop tenant clients over real TCP.

use crate::util::{process_cpu_s, ScratchDir};
use crate::workloads::{QUEUE_DEPTH, SERVER_WORKERS, TENANTS, TENANT_QUOTA_BLOCKS};
use moheco_bench::JobSpec;
use moheco_serve::client::{request, request_observed};
use moheco_serve::{Server, ServerConfig};
use std::net::SocketAddr;
use std::time::{Duration, Instant};

/// Client-side observations of one job.
pub struct JobObservation {
    pub tenant: usize,
    pub index: usize,
    pub latency_ms: f64,
    pub first_row_ms: f64,
    pub restream_ms: f64,
    pub submit_ms: f64,
    pub resubmit_ms: f64,
    /// The live-streamed rows.
    pub rows: String,
}

/// One pass of the service load on a fresh server.
pub struct ServiceRun {
    pub wall_s: f64,
    /// Process CPU time (server and clients) spent by the load.
    pub cpu_s: f64,
    pub simulations: u64,
    pub jobs: Vec<JobObservation>,
    /// Operations attempted: submit, stream, re-stream and resubmit per
    /// job, plus resubmissions.
    pub attempted: usize,
    pub faults: Faults,
    /// The `/metrics` exposition read after the load.
    pub metrics: String,
}

/// Pulls `"key": "value"` out of a flat JSON body.
fn json_str_field(body: &str, key: &str) -> Option<String> {
    let marker = format!("\"{key}\": \"");
    let start = body.find(&marker)? + marker.len();
    let end = body[start..].find('"')? + start;
    Some(body[start..end].to_string())
}

/// Value of an unlabelled sample in a Prometheus exposition.
pub fn prometheus_value(text: &str, name: &str) -> f64 {
    text.lines()
        .filter(|l| !l.starts_with('#'))
        .find_map(|l| {
            let (metric, value) = l.rsplit_once(' ')?;
            (metric == name).then(|| value.parse().ok()).flatten()
        })
        .unwrap_or(0.0)
}

fn ms_since(start: Instant) -> f64 {
    start.elapsed().as_secs_f64() * 1e3
}

/// Submission attempts per job: a job that fails server-side is a failed
/// operation, and the client resubmits it (a failed job re-queues and
/// resumes from its row log) so its output can still be checked.
const ATTEMPTS: usize = 3;

/// Live-streams a submitted job; returns the rows and the times of the
/// first and last row, in ms since `submitted`.
fn stream_job(
    addr: SocketAddr,
    path: &str,
    headers: &[(&str, &str)],
    submitted: Instant,
) -> Result<(Vec<u8>, f64, f64), String> {
    let mut first_row = None;
    let mut last_row = None;
    let live = request_observed(addr, "GET", path, headers, &[], |data| {
        if !data.is_empty() {
            first_row.get_or_insert_with(|| ms_since(submitted));
            last_row = Some(ms_since(submitted));
        }
    })?;
    if live.status != 200 {
        return Err(format!("stream status {}", live.status));
    }
    match (first_row, last_row) {
        (Some(first), Some(last)) => Ok((live.body, first, last)),
        _ => Err("stream delivered no rows".into()),
    }
}

/// What went wrong for one tenant's client.
#[derive(Default)]
pub struct Faults {
    /// Operations beyond submit, stream, re-stream and resubmit per job
    /// (resubmissions of failed jobs, retries after a 429).
    pub extra_attempts: usize,
    /// Failed operations: HTTP errors, 429 refusals, jobs that failed
    /// server-side.
    pub failures: Vec<String>,
    /// Failed output checks: determinism and resume violations.
    pub violations: Vec<String>,
}

/// Submits, streams, re-streams and resubmits one job. Every failed
/// operation is recorded in `faults`; none is retried silently.
fn drive_job(
    addr: SocketAddr,
    tenant: usize,
    index: usize,
    spec: &JobSpec,
    faults: &mut Faults,
) -> Option<JobObservation> {
    let name = TENANTS[tenant];
    let body = spec.to_json();
    let headers = [("X-Tenant", name)];
    let label = format!("{name} job {index}");
    let submitted = Instant::now();
    let mut submit_ms = None;
    let mut live = None;
    for attempt in 0..ATTEMPTS {
        faults.extra_attempts += usize::from(attempt > 0);
        let sent = Instant::now();
        let id = match request(addr, "POST", "/jobs", &headers, body.as_bytes()) {
            Ok(r) if r.status == 202 => match json_str_field(&r.text(), "job") {
                Some(id) => id,
                None => {
                    faults
                        .failures
                        .push(format!("{label}: submit response without a job id"));
                    return None;
                }
            },
            Ok(r) if r.status == 429 => {
                faults.failures.push(format!("{label}: 429 refusal"));
                std::thread::sleep(Duration::from_millis(25));
                continue;
            }
            Ok(r) => {
                faults
                    .failures
                    .push(format!("{label}: submit status {}", r.status));
                return None;
            }
            Err(e) => {
                faults.failures.push(format!("{label}: submit error {e}"));
                return None;
            }
        };
        submit_ms.get_or_insert(ms_since(sent));
        let path = format!("/jobs/{id}/stream");
        let streamed = match stream_job(addr, &path, &headers, submitted) {
            Ok(streamed) => streamed,
            Err(e) => {
                faults.failures.push(format!("{label}: {e}"));
                return None;
            }
        };
        let status = request(addr, "GET", &format!("/jobs/{id}"), &headers, &[])
            .map(|r| r.text())
            .unwrap_or_default();
        if json_str_field(&status, "state").as_deref() == Some("completed") {
            live = Some((id, streamed));
            break;
        }
        faults
            .failures
            .push(format!("{label}: job did not complete: {}", status.trim()));
    }
    let (id, (rows, first_row_ms, latency_ms)) = live?;
    let submit_ms = submit_ms?;
    let stream_path = format!("/jobs/{id}/stream");
    let restreamed = Instant::now();
    match request(addr, "GET", &stream_path, &headers, &[]) {
        Ok(r) if r.status == 200 && r.body == rows => {}
        Ok(r) if r.status == 200 => faults.violations.push(format!(
            "{label}: re-stream bytes differ from the live stream"
        )),
        Ok(r) => faults
            .failures
            .push(format!("{label}: re-stream status {}", r.status)),
        Err(e) => faults
            .failures
            .push(format!("{label}: re-stream error {e}")),
    }
    let restream_ms = ms_since(restreamed);
    let resubmitted = Instant::now();
    match request(addr, "POST", "/jobs", &headers, body.as_bytes()) {
        Ok(r) if r.status == 200 => {
            let text = r.text();
            if json_str_field(&text, "job").as_deref() != Some(id.as_str())
                || json_str_field(&text, "state").as_deref() != Some("completed")
            {
                faults
                    .violations
                    .push(format!("{label}: resubmit did not dedup: {}", text.trim()));
            }
        }
        Ok(r) => faults
            .failures
            .push(format!("{label}: resubmit status {}", r.status)),
        Err(e) => faults.failures.push(format!("{label}: resubmit error {e}")),
    }
    let resubmit_ms = ms_since(resubmitted);
    Some(JobObservation {
        tenant,
        index,
        latency_ms,
        first_row_ms,
        restream_ms,
        submit_ms,
        resubmit_ms,
        rows: String::from_utf8_lossy(&rows).into_owned(),
    })
}

/// The service set-up: a server over a fresh data directory under `dir`,
/// answering `/healthz`.
pub fn start_server(dir: &ScratchDir) -> Result<Server, String> {
    let server = Server::start(ServerConfig {
        addr: "127.0.0.1:0".into(),
        workers: SERVER_WORKERS,
        queue_depth: QUEUE_DEPTH,
        data_dir: dir.path().join("data"),
        tenant_quota_blocks: TENANT_QUOTA_BLOCKS,
    })
    .map_err(|e| format!("cannot start server: {e}"))?;
    let healthy = request(server.addr(), "GET", "/healthz", &[], &[]).map(|r| r.status);
    if healthy != Ok(200) {
        server.shutdown();
        return Err(format!("server unhealthy after start: {healthy:?}"));
    }
    Ok(server)
}

/// Starts a server, runs every tenant's jobs closed-loop on
/// its own client thread (the timed part), reads `/metrics`, and shuts the
/// server down.
pub fn run_load(jobs: &[Vec<JobSpec>]) -> Result<ServiceRun, String> {
    let dir = ScratchDir::new("serve")?;
    let server = start_server(&dir)?;
    let addr = server.addr();

    let cpu_before = process_cpu_s();
    let started = Instant::now();
    let per_tenant: Vec<(Vec<JobObservation>, Faults)> = std::thread::scope(|scope| {
        let handles: Vec<_> = jobs
            .iter()
            .enumerate()
            .map(|(tenant, specs)| {
                scope.spawn(move || {
                    let mut faults = Faults::default();
                    let observed = specs
                        .iter()
                        .enumerate()
                        .filter_map(|(index, spec)| {
                            drive_job(addr, tenant, index, spec, &mut faults)
                        })
                        .collect();
                    (observed, faults)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let wall_s = started.elapsed().as_secs_f64();
    let cpu_s = process_cpu_s() - cpu_before;

    let simulations = server.registry().total_stats().simulations_run;
    let metrics = request(addr, "GET", "/metrics", &[], &[])
        .map(|r| r.text())
        .unwrap_or_default();
    server.shutdown();
    let mut run = ServiceRun {
        wall_s,
        cpu_s,
        simulations,
        jobs: Vec::new(),
        attempted: 4 * jobs.iter().map(Vec::len).sum::<usize>(),
        faults: Faults::default(),
        metrics,
    };
    for (observed, faults) in per_tenant {
        run.jobs.extend(observed);
        run.attempted += faults.extra_attempts;
        run.faults.failures.extend(faults.failures);
        run.faults.violations.extend(faults.violations);
    }
    run.jobs.sort_by_key(|j| (j.tenant, j.index));
    Ok(run)
}

/// The row fields a shared-cache engine leaves untouched: everything but
/// the simulation and engine counters, which depend on cache warmth
/// (documented on `EngineReuse::SharedCache`), and the trace digest, which
/// hashes the per-generation simulation count alongside the yields.
pub fn deterministic_fields(rows: &str) -> Vec<String> {
    rows.lines()
        .map(|line| {
            line.trim_start_matches('{')
                .trim_end_matches('}')
                .split(", \"")
                .filter(|field| {
                    let key = field.trim_start_matches('"');
                    !(key.starts_with("simulations\"")
                        || key.starts_with("engine_")
                        || key.starts_with("trace_digest\""))
                })
                .collect::<Vec<_>>()
                .join(", \"")
        })
        .collect()
}
