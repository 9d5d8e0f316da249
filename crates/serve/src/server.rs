//! The job server: a `std::net::TcpListener` accept loop (thread per
//! connection), a fixed pool of worker threads draining the job queue, and
//! the HTTP routes.
//!
//! Routes:
//!
//! | Route | Meaning |
//! |---|---|
//! | `POST /jobs` | Submit a [`JobSpec`] (flat JSON body, `X-Tenant` header) — 202 accepted, 200 already-known, 429 queue full, 400 invalid |
//! | `GET /jobs/{id}` | Job status JSON (404 for unknown ids — including ones rejected with 429) |
//! | `GET /jobs/{id}/stream` | The job's JSONL rows, streamed live via chunked transfer until the job finishes |
//! | `GET /metrics` | Prometheus text: engine counters, service counters, pool + per-tenant cache gauges |
//! | `GET /healthz` | `ok` |

use crate::http::{read_request, write_response, ChunkedWriter, Request};
use crate::jobs::{job_path, ActiveJob, NextJob, Registry, Submit};
use crate::pool::EnginePool;
use moheco_bench::jobspec::JobSpec;
use moheco_obs::prometheus::{push_header, push_sample};
use moheco_obs::PhaseBreakdown;
use moheco_runtime::{render_pool_cache, render_prometheus};
use std::io::{BufReader, Read, Seek, SeekFrom};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

/// How long a streamer sleeps between polls of a still-running job's file.
const STREAM_POLL: Duration = Duration::from_millis(10);

/// How long an idle worker waits on the job queue before looking for an
/// in-flight job to help with.
const IDLE_POLL: Duration = Duration::from_millis(50);

/// How long a helping worker waits on another job's round barrier for a
/// claimable cell before checking the queue again.
const HELP_PATIENCE: Duration = Duration::from_millis(50);

/// Server configuration.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Bind address (`127.0.0.1:0` picks a free port — the default, and what
    /// tests use).
    pub addr: String,
    /// Worker threads draining the job queue. `0` is allowed: jobs queue up
    /// until [`Server::start_workers`] is called (deterministic backpressure
    /// tests rely on this).
    pub workers: usize,
    /// Queue depth bound; submissions beyond it get 429.
    pub queue_depth: usize,
    /// Root directory for job JSONL files (`<data_dir>/<tenant>/job-<id>.jsonl`).
    pub data_dir: PathBuf,
    /// Per-tenant cache quota in blocks (0 = unlimited).
    pub tenant_quota_blocks: usize,
}

impl Default for ServerConfig {
    fn default() -> Self {
        Self {
            addr: "127.0.0.1:0".into(),
            workers: 2,
            queue_depth: 16,
            data_dir: PathBuf::from("serve-data"),
            tenant_quota_blocks: 0,
        }
    }
}

struct Shared {
    registry: Arc<Registry>,
    pool: Arc<EnginePool>,
    data_dir: PathBuf,
    stopping: AtomicBool,
    /// Jobs currently being driven by a worker — what idle workers scan for
    /// something to help with. Entries are pushed before the driving worker
    /// starts and removed when it finishes; the lock is only ever held to
    /// clone an `Arc` out, never while touching a job's execution core.
    active: Mutex<Vec<(String, Arc<ActiveJob>)>>,
    /// Round-robin cursor so idle workers spread across active jobs.
    help_cursor: AtomicUsize,
}

/// A running server. Dropping it without [`Server::shutdown`] leaks the
/// accept thread until process exit; call shutdown for an orderly stop.
pub struct Server {
    shared: Arc<Shared>,
    addr: SocketAddr,
    accept_handle: Option<JoinHandle<()>>,
    worker_handles: Vec<JoinHandle<()>>,
}

impl Server {
    /// Binds, spawns the accept loop and `config.workers` workers, and
    /// returns immediately.
    pub fn start(config: ServerConfig) -> std::io::Result<Self> {
        let listener = TcpListener::bind(&config.addr)?;
        let addr = listener.local_addr()?;
        let shared = Arc::new(Shared {
            registry: Arc::new(Registry::new(config.queue_depth)),
            pool: Arc::new(EnginePool::new(config.tenant_quota_blocks)),
            data_dir: config.data_dir,
            stopping: AtomicBool::new(false),
            active: Mutex::new(Vec::new()),
            help_cursor: AtomicUsize::new(0),
        });
        let accept_handle = {
            let shared = shared.clone();
            std::thread::spawn(move || accept_loop(listener, shared))
        };
        let mut server = Self {
            shared,
            addr,
            accept_handle: Some(accept_handle),
            worker_handles: Vec::new(),
        };
        server.start_workers(config.workers);
        Ok(server)
    }

    /// The bound address (resolves the `:0` port).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Spawns `n` additional worker threads. Useful after starting with
    /// `workers: 0` to drain a deliberately backed-up queue.
    pub fn start_workers(&mut self, n: usize) {
        for _ in 0..n {
            let shared = self.shared.clone();
            self.worker_handles
                .push(std::thread::spawn(move || worker_loop(shared)));
        }
    }

    /// The shared job registry (status, counters).
    pub fn registry(&self) -> &Registry {
        &self.shared.registry
    }

    /// The shared engine pool (cache usage).
    pub fn pool(&self) -> &EnginePool {
        &self.shared.pool
    }

    /// Orderly stop: refuse new work, wake blocked workers, join every
    /// thread. Queued jobs that never ran stay on no disk — resubmitting
    /// them to a new server over the same data dir resumes cleanly.
    pub fn shutdown(mut self) {
        self.shared.stopping.store(true, Ordering::SeqCst);
        self.shared.registry.shutdown();
        // The accept loop sits in `accept()`; poke it with a throwaway
        // connection so it observes the stop flag.
        let _ = TcpStream::connect(self.addr);
        if let Some(handle) = self.accept_handle.take() {
            let _ = handle.join();
        }
        for handle in self.worker_handles.drain(..) {
            let _ = handle.join();
        }
    }
}

fn accept_loop(listener: TcpListener, shared: Arc<Shared>) {
    for stream in listener.incoming() {
        if shared.stopping.load(Ordering::SeqCst) {
            return;
        }
        let Ok(stream) = stream else { continue };
        let shared = shared.clone();
        std::thread::spawn(move || {
            let _ = handle_connection(stream, &shared);
        });
    }
}

/// The worker policy: drain the job queue, and whenever the queue is empty
/// lend a hand to another worker's in-flight job. N workers over one
/// adaptive job all pull cells from that job's single `next_cells`
/// allocation loop — the execution core commits completions in schedule
/// order, so the extra workers change wall time, never bytes (under
/// `reuse: reset`).
fn worker_loop(shared: Arc<Shared>) {
    loop {
        match shared.registry.next_job_timeout(IDLE_POLL) {
            NextJob::Shutdown => return,
            NextJob::Job(id, tenant, spec) => run_job(&shared, &id, &tenant, &spec),
            NextJob::Idle => {
                let job = {
                    let active = shared.active.lock().expect("active jobs lock");
                    if active.is_empty() {
                        None
                    } else {
                        let pick = shared.help_cursor.fetch_add(1, Ordering::Relaxed);
                        Some(active[pick % active.len()].1.clone())
                    }
                    // The active-map lock drops here, before the core is
                    // touched — helping never blocks submissions.
                };
                if let Some(job) = job {
                    // Errors surface through the driving worker's `drive`.
                    let _ = job.help(HELP_PATIENCE);
                }
            }
        }
    }
}

/// Opens and drives one dequeued job, registering it as active so idle
/// workers can help, and recording the terminal state however it ends —
/// open failure, execution error, panic, or success.
fn run_job(shared: &Arc<Shared>, id: &str, tenant: &str, spec: &JobSpec) {
    let opened = catch_unwind(AssertUnwindSafe(|| {
        ActiveJob::open(
            &shared.registry,
            &shared.pool,
            &shared.data_dir,
            id,
            tenant,
            spec,
        )
    }));
    let job = match opened {
        Ok(Ok(job)) => Arc::new(job),
        Ok(Err(e)) => return shared.registry.finish(id, Err(e)),
        Err(panic) => return shared.registry.finish(id, Err(panic_message(panic))),
    };
    shared
        .active
        .lock()
        .expect("active jobs lock")
        .push((id.to_string(), job.clone()));
    let driven = catch_unwind(AssertUnwindSafe(|| job.drive()));
    shared
        .active
        .lock()
        .expect("active jobs lock")
        .retain(|(active_id, _)| active_id != id);
    let outcome = match driven {
        Ok(Ok(schedule)) => {
            shared.registry.record_outcome(id, &schedule);
            Ok(())
        }
        Ok(Err(e)) => Err(e),
        Err(panic) => Err(panic_message(panic)),
    };
    shared.registry.finish(id, outcome);
}

fn panic_message(panic: Box<dyn std::any::Any + Send>) -> String {
    match panic.downcast_ref::<&str>() {
        Some(msg) => format!("worker panicked: {msg}"),
        None => match panic.downcast_ref::<String>() {
            Some(msg) => format!("worker panicked: {msg}"),
            None => "worker panicked".to_string(),
        },
    }
}

fn handle_connection(stream: TcpStream, shared: &Shared) -> std::io::Result<()> {
    let mut reader = BufReader::new(stream.try_clone()?);
    let mut writer = stream;
    let request = match read_request(&mut reader) {
        Ok(Some(request)) => request,
        Ok(None) => return Ok(()),
        Err(e) => {
            return write_response(
                &mut writer,
                400,
                "text/plain",
                format!("bad request: {e}\n").as_bytes(),
            )
        }
    };
    route(&request, &mut writer, shared)
}

fn route(request: &Request, writer: &mut TcpStream, shared: &Shared) -> std::io::Result<()> {
    let path = request.path.split('?').next().unwrap_or("");
    match (request.method.as_str(), path) {
        ("GET", "/healthz") => write_response(writer, 200, "text/plain", b"ok\n"),
        ("GET", "/metrics") => {
            let body = render_metrics(shared);
            write_response(writer, 200, "text/plain; version=0.0.4", body.as_bytes())
        }
        ("POST", "/jobs") => submit_job(request, writer, shared),
        ("GET", p) if p.starts_with("/jobs/") => {
            let rest = &p["/jobs/".len()..];
            if let Some(id) = rest.strip_suffix("/stream") {
                stream_job(id, writer, shared)
            } else if rest.contains('/') {
                write_response(writer, 404, "text/plain", b"not found\n")
            } else {
                job_status(rest, writer, shared)
            }
        }
        ("POST", _) | ("GET", _) => write_response(writer, 404, "text/plain", b"not found\n"),
        _ => write_response(writer, 405, "text/plain", b"method not allowed\n"),
    }
}

fn submit_job(request: &Request, writer: &mut TcpStream, shared: &Shared) -> std::io::Result<()> {
    let tenant = request.header("x-tenant").unwrap_or("default").to_string();
    if tenant.is_empty()
        || !tenant
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || c == '-' || c == '_')
    {
        return write_response(
            writer,
            400,
            "text/plain",
            b"invalid X-Tenant (ascii alphanumeric, - and _ only)\n",
        );
    }
    let body = match std::str::from_utf8(&request.body) {
        Ok(b) => b,
        Err(_) => return write_response(writer, 400, "text/plain", b"body is not UTF-8\n"),
    };
    let spec = match JobSpec::parse(body).and_then(|spec| {
        spec.validate()?;
        Ok(spec)
    }) {
        Ok(spec) => spec,
        Err(e) => {
            return write_response(
                writer,
                400,
                "text/plain",
                format!("invalid job spec: {e}\n").as_bytes(),
            )
        }
    };
    match shared.registry.submit(&tenant, spec) {
        Submit::Accepted(id) => write_response(
            writer,
            202,
            "application/json",
            format!("{{\"job\": \"{id}\", \"state\": \"queued\"}}\n").as_bytes(),
        ),
        Submit::Existing(id) => {
            let state = shared
                .registry
                .get(&id)
                .map(|j| j.state.label())
                .unwrap_or("unknown");
            write_response(
                writer,
                200,
                "application/json",
                format!("{{\"job\": \"{id}\", \"state\": \"{state}\"}}\n").as_bytes(),
            )
        }
        Submit::QueueFull => write_response(
            writer,
            429,
            "text/plain",
            b"queue full, retry later; nothing was accepted\n",
        ),
    }
}

fn job_status(id: &str, writer: &mut TcpStream, shared: &Shared) -> std::io::Result<()> {
    match shared.registry.get(id) {
        Some(job) => write_response(writer, 200, "application/json", job.to_json(id).as_bytes()),
        None => write_response(writer, 404, "text/plain", b"unknown job\n"),
    }
}

/// Streams a job's JSONL file via chunked transfer, live: rows written so
/// far immediately, then new rows as workers append them, terminating when
/// the job reaches a terminal state.
///
/// While the job is still running only data up to the last `'\n'` is
/// forwarded — a concurrent `append` flushes whole lines, but the read can
/// still race a partially-flushed OS write, and a live stream must never
/// emit a torn row. After the job finishes the file is final, so everything
/// left (including a torn tail from a previous killed server, which a
/// resubmission would truncate and rewrite) is flushed verbatim.
fn stream_job(id: &str, writer: &mut TcpStream, shared: &Shared) -> std::io::Result<()> {
    if shared.registry.get(id).is_none() {
        return write_response(writer, 404, "text/plain", b"unknown job\n");
    }
    let record = shared.registry.get(id).expect("checked above");
    let path = job_path(&shared.data_dir, &record.tenant, id);
    let mut chunks = ChunkedWriter::begin(writer.try_clone()?, 200, "application/jsonl")?;
    let mut offset: u64 = 0;
    let mut carry: Vec<u8> = Vec::new();
    loop {
        let finished = shared.registry.is_finished(id).unwrap_or(true);
        if let Ok(mut file) = std::fs::File::open(&path) {
            file.seek(SeekFrom::Start(offset))?;
            let mut fresh = Vec::new();
            file.read_to_end(&mut fresh)?;
            offset += fresh.len() as u64;
            carry.extend_from_slice(&fresh);
            if finished {
                chunks.write_chunk(&carry)?;
                carry.clear();
            } else if let Some(last_newline) = carry.iter().rposition(|&b| b == b'\n') {
                let complete: Vec<u8> = carry.drain(..=last_newline).collect();
                chunks.write_chunk(&complete)?;
            }
        }
        if finished {
            return chunks.finish();
        }
        std::thread::sleep(STREAM_POLL);
    }
}

fn render_metrics(shared: &Shared) -> String {
    // Quota trims run after a cell's counters were recorded, so the cells'
    // totals never see them; the pool counts them instead.
    let quota_evictions = shared.pool.quota_evictions();
    let mut stats = shared.registry.total_stats();
    stats.evicted_blocks += quota_evictions;
    let mut out = render_prometheus(&stats, &PhaseBreakdown::default());

    let counters = shared.registry.counters();
    push_header(
        &mut out,
        "moheco_serve_jobs_submitted_total",
        "counter",
        "Jobs accepted into the queue since server start.",
    );
    push_sample(
        &mut out,
        "moheco_serve_jobs_submitted_total",
        &[],
        counters.submitted as f64,
    );
    push_header(
        &mut out,
        "moheco_serve_jobs_completed_total",
        "counter",
        "Jobs finished successfully.",
    );
    push_sample(
        &mut out,
        "moheco_serve_jobs_completed_total",
        &[],
        counters.completed as f64,
    );
    push_header(
        &mut out,
        "moheco_serve_jobs_failed_total",
        "counter",
        "Jobs finished in error.",
    );
    push_sample(
        &mut out,
        "moheco_serve_jobs_failed_total",
        &[],
        counters.failed as f64,
    );
    push_header(
        &mut out,
        "moheco_serve_jobs_rejected_total",
        "counter",
        "Submissions rejected with 429 (queue full).",
    );
    push_sample(
        &mut out,
        "moheco_serve_jobs_rejected_total",
        &[],
        counters.rejected as f64,
    );
    push_header(
        &mut out,
        "moheco_serve_queue_depth",
        "gauge",
        "Jobs currently waiting in the queue.",
    );
    push_sample(
        &mut out,
        "moheco_serve_queue_depth",
        &[],
        counters.queued as f64,
    );
    push_header(
        &mut out,
        "moheco_serve_jobs_running",
        "gauge",
        "Jobs currently executing on a worker.",
    );
    push_sample(
        &mut out,
        "moheco_serve_jobs_running",
        &[],
        counters.running as f64,
    );

    out.push_str(&render_pool_cache(&shared.pool.usage()));
    push_header(
        &mut out,
        "moheco_pool_quota_evicted_blocks_total",
        "counter",
        "Blocks evicted by per-tenant quota trims (also in moheco_engine_evicted_blocks).",
    );
    push_sample(
        &mut out,
        "moheco_pool_quota_evicted_blocks_total",
        &[],
        quota_evictions as f64,
    );

    push_header(
        &mut out,
        "moheco_tenant_cache_blocks",
        "gauge",
        "Cached simulation blocks held per tenant across its pool engines.",
    );
    let tenant_usage = shared.pool.tenant_usage();
    for (tenant, blocks, _) in &tenant_usage {
        push_sample(
            &mut out,
            "moheco_tenant_cache_blocks",
            &[("tenant", tenant)],
            *blocks as f64,
        );
    }
    push_header(
        &mut out,
        "moheco_tenant_cache_bytes",
        "gauge",
        "Cached bytes held per tenant across its pool engines.",
    );
    for (tenant, _, bytes) in &tenant_usage {
        push_sample(
            &mut out,
            "moheco_tenant_cache_bytes",
            &[("tenant", tenant)],
            *bytes as f64,
        );
    }
    push_header(
        &mut out,
        "moheco_tenant_cache_quota_blocks",
        "gauge",
        "Configured per-tenant cache quota (0 = unlimited).",
    );
    push_sample(
        &mut out,
        "moheco_tenant_cache_quota_blocks",
        &[],
        shared.pool.quota_blocks() as f64,
    );
    out
}
