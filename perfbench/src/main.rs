//! `moheco-perfbench` — the repository benchmark.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload circuit_paper|oracle_parallel|service_tcp \
//!     --seed N --seconds S --trace 0|1
//! ```
//!
//! `--trace 0` measures the end-to-end metrics with no instrumentation in
//! the program; `--trace 1` makes a separate traced pass and prints the
//! per-layer metrics. Human-readable report lines come first; the last
//! line of standard output is one JSON object with `correct`, `attempted`,
//! `failed` and `metrics`. The exit status is non-zero when any output
//! check fails.

mod campaign;
mod decorators;
mod replay;
mod service;
mod util;
mod workloads;

use campaign::{check_rows, decorator_self_test, run_traced, run_untraced, RowCheck, TracedRun};
use moheco_bench::{EngineKind, JobSpec};
use service::{deterministic_fields, prometheus_value, run_load};
use std::sync::atomic::Ordering;
use std::time::Instant;
use util::{median, peak_rss_mb, process_cpu_s, quantile, ScratchDir};
use workloads::Workload;

/// Set-up cycles are timed before each measured pass and after the last
/// one, at least `SETUP_GAP_CYCLES` of them and for at least `SETUP_GAP_S`
/// each time. Spread over the measuring window, they see the same machine
/// as the passes. One more such gap runs first and is not counted: a cold
/// process runs its first set-ups at up to twice the CPU time.
const SETUP_GAP_CYCLES: usize = 3;
const SETUP_GAP_S: f64 = 0.03;
/// Model input blocks captured per circuit testbench for the replay pass.
const CAPTURE_BLOCKS: usize = 32;
/// Phases of the algorithm layer, as their span paths end.
const PHASES: [&str; 6] = [
    "screening",
    "ocba_round",
    "stage2_promotion",
    "nm_refine",
    "estimation",
    "final_report",
];

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let value = |flag: &str| -> Result<&str, String> {
        argv.iter()
            .position(|a| a == flag)
            .and_then(|i| argv.get(i + 1))
            .map(String::as_str)
            .ok_or_else(|| format!("missing {flag}"))
    };
    let workload = value("--workload")?;
    let number = |flag: &str| -> Result<u64, String> {
        value(flag)?
            .parse()
            .map_err(|_| format!("{flag} takes a whole number"))
    };
    Ok(Args {
        workload: Workload::parse(workload).ok_or_else(|| {
            format!("unknown workload {workload:?}: circuit_paper, oracle_parallel or service_tcp")
        })?,
        seed: number("--seed")?,
        seconds: number("--seconds")?.max(1),
        trace: match value("--trace")? {
            "0" => false,
            "1" => true,
            other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
        },
    })
}

/// What one benchmark invocation measured and checked.
#[derive(Default)]
struct Outcome {
    attempted: usize,
    /// Failed operations: HTTP errors, refusals, jobs that failed
    /// server-side and were resubmitted.
    failures: Vec<String>,
    /// Failed output checks; any of these makes the run incorrect.
    violations: Vec<String>,
    /// Metrics for the final JSON line, in print order.
    metrics: Vec<(String, f64, &'static str)>,
    /// Report-only lines printed before the JSON.
    report: Vec<String>,
}

impl Outcome {
    fn metric(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.push((name.to_string(), value, unit));
    }

    fn line(&mut self, line: String) {
        self.report.push(line);
    }

    fn fail(&mut self, message: String) {
        self.violations.push(message);
    }

    /// Records the row checks. A row that does not parse or whose best
    /// yield is not a finite number in [0, 1] fails the run. How often the
    /// reported 95 % CI of a feasible oracle cell covers the truth is an
    /// accuracy figure, reported and not counted as a failed operation: the
    /// program's CI ignores the selection of the best design and misses on
    /// most oracle cells of every run, so counting the misses would make
    /// every run of the workload fail.
    fn absorb_rows(&mut self, check: &RowCheck, context: &str) {
        for message in check.messages.iter().take(3) {
            self.line(format!("  {context}: {message}"));
        }
        if check.failed > 0 {
            self.fail(format!("{context}: {} row(s) failed checks", check.failed));
        }
        if check.oracle_cells > 0 {
            self.line(format!(
                "{context}: the reported 95% CI covers the closed-form truth in {} of {} feasible oracle cells ({:.3}; program defect when far below 0.95)",
                check.covered,
                check.oracle_cells,
                check.covered as f64 / check.oracle_cells as f64
            ));
        }
    }

    fn absorb_faults(&mut self, faults: &service::Faults) {
        self.failures.extend(faults.failures.iter().cloned());
        self.violations.extend(faults.violations.iter().cloned());
    }
}

/// The job set of one measured pass, or with `traced` the larger job set
/// of the traced pass.
fn spec_for(workload: Workload, seed: u64, pass: usize, traced: bool) -> JobSpec {
    let pick = |(measured, full): (usize, usize)| if traced { full } else { measured };
    match workload {
        Workload::CircuitPaper => {
            workloads::circuit_paper_spec(seed, pass, pick(workloads::CIRCUIT_SEEDS))
        }
        _ => workloads::oracle_parallel_spec(seed, pass, pick(workloads::ORACLE_SEEDS)),
    }
}

/// The campaign workloads' set-up: generate the job set, validate it,
/// resolve its scenarios, make the scratch directory. Also returns the
/// process CPU seconds it took.
fn campaign_setup(
    workload: Workload,
    seed: u64,
    pass: usize,
) -> Result<(JobSpec, ScratchDir, f64), String> {
    let cpu_before = process_cpu_s();
    let spec = spec_for(workload, seed, pass, false);
    spec.validate()?;
    spec.resolve_scenarios()?;
    let dir = ScratchDir::new(workload.name())?;
    Ok((spec, dir, process_cpu_s() - cpu_before))
}

/// Whether another pass whose length is about `pass_s` still fits.
fn another_pass_fits(started: Instant, seconds: u64, pass_s: f64) -> bool {
    started.elapsed().as_secs_f64() + pass_s <= seconds as f64
}

/// Appends the process CPU seconds of set-up cycles to `samples`.
fn sample_setup(
    samples: &mut Vec<f64>,
    mut cycle: impl FnMut() -> Result<f64, String>,
) -> Result<(), String> {
    let started = Instant::now();
    for n in 0.. {
        if n >= SETUP_GAP_CYCLES && started.elapsed().as_secs_f64() >= SETUP_GAP_S {
            break;
        }
        samples.push(cycle()?);
    }
    Ok(())
}

/// The totals of the measured passes.
#[derive(Default)]
struct Passes {
    walls: Vec<f64>,
    cpu_s: f64,
    sims: Vec<f64>,
    /// Cells the passes' job sets request: the fixed work, whatever the
    /// schedule executes of it.
    cells: usize,
}

/// The end-to-end metrics. Each measured pass runs its own job set, so
/// the gated figures are the set-up time and the throughput per CPU
/// second over all passes, which stay steady across workload seeds and do
/// not count time the host steals from the machine. The throughput reads
/// a change that saves simulations as a loss wherever a cell has a fixed
/// cost besides its simulations; the CPU cost per requested cell credits
/// such a change, but spreads by about a third across seeds on
/// `circuit_paper`, so it is reported only, like the per-pass wall, the
/// throughput per wall second and the simulation count.
fn end_to_end_metrics(out: &mut Outcome, setups: &[f64], passes: &Passes) {
    let sims: f64 = passes.sims.iter().sum();
    let wall_rates: Vec<f64> = passes
        .sims
        .iter()
        .zip(&passes.walls)
        .map(|(s, w)| s / w)
        .collect();
    out.metric("setup_s", median(setups), "s");
    out.metric("sims_per_cpu_s", sims / passes.cpu_s, "1/cpu-s");
    out.line(format!(
        "cpu_ms_per_cell {:.3} cpu-ms over {} cells requested; sims_per_s {:.1} 1/s (median over passes)",
        1e3 * passes.cpu_s / passes.cells as f64,
        passes.cells,
        median(&wall_rates)
    ));
    out.line(format!(
        "wall_s {:.4} s, simulations {} count (medians over {} passes); peak_rss_mb {:.1} MB",
        median(&passes.walls),
        median(&passes.sims),
        passes.walls.len(),
        peak_rss_mb()
    ));
    out.line(format!("pass walls {:.3?} s", passes.walls));
    out.line(format!(
        "set-up: {} cycles, quartiles {:.4} / {:.4} / {:.4} cpu-ms",
        setups.len(),
        1e3 * quantile(setups, 0.25),
        1e3 * median(setups),
        1e3 * quantile(setups, 0.75)
    ));
}

fn yield_gap_line(out: &mut Outcome, check: &RowCheck) {
    out.line(format!(
        "yield_gap_pp: {:.4} pp (max {:.4}) over {} oracle cells",
        check.yield_gap_pp(),
        100.0 * check.gap_max,
        check.oracle_cells
    ));
}

fn campaign_untraced(workload: Workload, args: &Args) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let setup_cycle = || Ok(campaign_setup(workload, args.seed, 0)?.2);
    sample_setup(&mut Vec::new(), setup_cycle)?;
    let mut setups = Vec::new();
    let started = Instant::now();
    let mut passes = Passes::default();
    let mut cell_walls = Vec::new();
    let mut rows = String::new();
    for pass in 0.. {
        sample_setup(&mut setups, setup_cycle)?;
        let (spec, dir, _) = campaign_setup(workload, args.seed, pass)?;
        let run = run_untraced(std::slice::from_ref(&spec), dir.path(), "pass")?;
        out.attempted += spec.cells();
        if run.cells != spec.cells() {
            out.fail(format!(
                "pass {pass} ran {} of {} cells",
                run.cells,
                spec.cells()
            ));
        }
        passes.walls.push(run.wall_s);
        passes.cpu_s += run.cpu_s;
        passes.sims.push(run.simulations as f64);
        passes.cells += spec.cells();
        cell_walls.extend(run.cell_walls_ms);
        rows.push_str(&run.rows);
        if !another_pass_fits(started, args.seconds, run.wall_s) {
            break;
        }
    }
    sample_setup(&mut setups, setup_cycle)?;
    let check = check_rows(&rows);
    out.absorb_rows(&check, "rows");
    end_to_end_metrics(&mut out, &setups, &passes);
    out.line(format!(
        "cell latency: p50 {:.1} ms, p90 {:.1} ms over {} cells",
        quantile(&cell_walls, 0.5),
        quantile(&cell_walls, 0.9),
        cell_walls.len()
    ));
    if check.oracle_cells > 0 {
        yield_gap_line(&mut out, &check);
    }
    Ok(out)
}

/// Validates every job of a service pass and resolves its scenarios, as
/// the campaign set-up does for its job set.
fn resolve_jobs(jobs: &[Vec<JobSpec>]) -> Result<(), String> {
    for spec in jobs.iter().flatten() {
        spec.validate()?;
        spec.resolve_scenarios()?;
    }
    Ok(())
}

/// The service set-up alone: generate the job set and resolve it, start a
/// server over a fresh data directory and wait for it to answer. Returns
/// the process CPU seconds it took.
fn service_setup(seed: u64) -> Result<f64, String> {
    let dir = ScratchDir::new("serve")?;
    let cpu_before = process_cpu_s();
    resolve_jobs(&workloads::service_jobs(seed, 0))?;
    let server = service::start_server(&dir)?;
    let cpu_s = process_cpu_s() - cpu_before;
    server.shutdown();
    Ok(cpu_s)
}

fn service_untraced(args: &Args) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    sample_setup(&mut Vec::new(), || service_setup(args.seed))?;
    let mut setups = Vec::new();
    let started = Instant::now();
    let mut passes = Passes::default();
    let (mut latency, mut first_row, mut restream) = (Vec::new(), Vec::new(), Vec::new());
    let mut rows = String::new();
    for pass in 0.. {
        sample_setup(&mut setups, || service_setup(args.seed))?;
        let jobs = workloads::service_jobs(args.seed, pass);
        resolve_jobs(&jobs)?;
        let run = run_load(&jobs)?;
        out.attempted += run.attempted;
        out.absorb_faults(&run.faults);
        passes.walls.push(run.wall_s);
        passes.cpu_s += run.cpu_s;
        passes.sims.push(run.simulations as f64);
        passes.cells += jobs.iter().flatten().map(JobSpec::cells).sum::<usize>();
        for job in &run.jobs {
            latency.push(job.latency_ms);
            first_row.push(job.first_row_ms);
            restream.push(job.restream_ms);
            rows.push_str(&job.rows);
        }
        if pass == 0 {
            // Untimed: the offline campaign run of every job's spec must
            // reproduce the streamed results.
            let flat: Vec<JobSpec> = jobs.into_iter().flatten().collect();
            let dir = ScratchDir::new("offline")?;
            let offline = run_untraced(&flat, dir.path(), "job")?;
            out.attempted += flat.len();
            compare_offline(&mut out, &run, &offline.rows_per_spec);
        }
        if !another_pass_fits(started, args.seconds, run.wall_s) {
            break;
        }
    }
    sample_setup(&mut setups, || service_setup(args.seed))?;
    let check = check_rows(&rows);
    out.absorb_rows(&check, "live rows");
    end_to_end_metrics(&mut out, &setups, &passes);
    out.line(format!(
        "job_latency_ms.p50 {:.3} ms, job_latency_ms.p90 {:.3} ms, first_row_ms.p50 {:.3} ms, restream_ms.p50 {:.3} ms over {} jobs",
        quantile(&latency, 0.5),
        quantile(&latency, 0.9),
        quantile(&first_row, 0.5),
        quantile(&restream, 0.5),
        latency.len()
    ));
    yield_gap_line(&mut out, &check);
    Ok(out)
}

fn compare_offline(out: &mut Outcome, pass: &service::ServiceRun, offline: &[String]) {
    let per_tenant = workloads::JOBS_PER_TENANT;
    if pass.jobs.len() != offline.len() {
        out.fail(format!(
            "only {} of {} jobs delivered rows that could be checked",
            pass.jobs.len(),
            offline.len()
        ));
    }
    for job in &pass.jobs {
        let expected = deterministic_fields(&offline[job.tenant * per_tenant + job.index]);
        let streamed = deterministic_fields(&job.rows);
        if streamed != expected {
            let first_difference = streamed
                .iter()
                .zip(&expected)
                .find(|(a, b)| a != b)
                .map_or_else(
                    || {
                        format!(
                            "{} rows streamed, {} offline",
                            streamed.len(),
                            expected.len()
                        )
                    },
                    |(a, b)| format!("streamed {a} | offline {b}"),
                );
            out.fail(format!(
                "{} job {}: streamed results differ from the offline campaign run: {first_difference}",
                workloads::TENANTS[job.tenant],
                job.index
            ));
        }
    }
}

/// Self time of every phase: inclusive wall minus its direct children's.
fn phase_metrics(out: &mut Outcome, traced: &TracedRun) {
    let phases = &traced.breakdown.phases;
    let self_nanos = |path: &str, wall: u64| -> u64 {
        let children: u64 = phases
            .iter()
            .filter(|c| {
                c.path
                    .strip_prefix(path)
                    .and_then(|rest| rest.strip_prefix('/'))
                    .is_some_and(|rest| !rest.contains('/'))
            })
            .map(|c| c.wall_nanos)
            .sum();
        wall.saturating_sub(children)
    };
    let leaf_of = |path: &str| -> &'static str {
        let normalized = path.replace("stage2/promotion", "stage2_promotion");
        PHASES
            .iter()
            .find(|p| normalized == **p || normalized.ends_with(&format!("/{p}")))
            .copied()
            .unwrap_or("other")
    };
    let mut totals: Vec<(&str, f64, u64)> = PHASES
        .iter()
        .chain(["other"].iter())
        .map(|p| (*p, 0.0, 0))
        .collect();
    for entry in phases {
        let slot = totals
            .iter_mut()
            .find(|t| t.0 == leaf_of(&entry.path))
            .expect("every phase maps to a slot");
        slot.1 += self_nanos(&entry.path, entry.wall_nanos) as f64 / 1e6;
        slot.2 += entry.simulations;
    }
    for (phase, self_ms, sims) in &totals {
        if *phase != "other" {
            out.metric(&format!("core.{phase}.self_ms"), *self_ms, "ms");
            out.metric(&format!("core.{phase}.sims"), *sims as f64, "count");
        }
    }
    let summed: u64 = totals.iter().map(|t| t.2).sum();
    out.line(format!(
        "reconcile: phase sims {summed} (other {}) vs cell simulations {} vs model simulations {}",
        totals[PHASES.len()].2,
        traced.cell_simulations,
        traced.model.simulations()
    ));
    if summed != traced.cell_simulations || summed != traced.model.simulations() {
        out.fail(format!(
            "phase simulations {summed} do not reconcile with cell simulations {} and model simulations {}",
            traced.cell_simulations,
            traced.model.simulations()
        ));
    }
}

/// Runtime, model, bench and reconciliation metrics of a traced pass.
fn layer_metrics(out: &mut Outcome, traced: &TracedRun, workers: usize) {
    let engine = &traced.engine;
    let model = &traced.model;
    let mc_busy_ms = decorators::EngineProbe::ms(&engine.mc_busy_nanos);
    let nominal_busy_ms = decorators::EngineProbe::ms(&engine.nominal_busy_nanos);
    let model_busy_ms = decorators::EngineProbe::ms(&model.busy_nanos);
    let batch_samples: Vec<f64> = engine
        .batch_samples
        .lock()
        .expect("probe lock")
        .iter()
        .map(|&s| s as f64)
        .collect();
    let stats = traced.cell_stats;
    out.metric(
        "runtime.mc_batches",
        engine.mc_batches.load(Ordering::Relaxed) as f64,
        "count",
    );
    out.metric("runtime.batch_samples.p50", median(&batch_samples), "count");
    out.metric("runtime.mc_busy_ms", mc_busy_ms, "ms");
    out.metric(
        "runtime.self_ms",
        mc_busy_ms + nominal_busy_ms - model_busy_ms,
        "ms",
    );
    out.metric(
        "runtime.cache_hit_ratio",
        if stats.mc_samples_served == 0 {
            0.0
        } else {
            stats.cache_hits as f64 / stats.mc_samples_served as f64
        },
        "ratio",
    );
    out.metric("runtime.nominal_busy_ms", nominal_busy_ms, "ms");

    let sims = model.simulations();
    out.metric(
        "model.block_calls",
        model.block_calls.load(Ordering::Relaxed) as f64,
        "count",
    );
    out.metric("model.busy_ms", model_busy_ms, "ms");
    out.metric(
        "model.ns_per_sim",
        if sims == 0 {
            0.0
        } else {
            model_busy_ms * 1e6 / sims as f64
        },
        "ns",
    );

    let cell_sum_ms: f64 = traced.cell_walls_ms.iter().sum();
    let wall_ms = traced.wall_s * 1e3;
    out.metric(
        "bench.cell_wall_ms.p50",
        median(&traced.cell_walls_ms),
        "ms",
    );
    out.metric("bench.harness_overhead_ms", wall_ms - cell_sum_ms, "ms");
    let schedule_sum = |f: fn(&moheco_bench::ScheduleOutcome) -> usize| -> f64 {
        traced.schedule.iter().map(f).sum::<usize>() as f64
    };
    out.metric(
        "bench.schedule.cells_executed",
        schedule_sum(|s| s.executed),
        "count",
    );
    out.metric(
        "bench.schedule.seeds_saved",
        schedule_sum(|s| s.seeds_saved),
        "count",
    );
    out.metric(
        "bench.schedule.escalations",
        schedule_sum(|s| s.escalations),
        "count",
    );

    // Nested busy times: model (summed over `workers` threads) within the
    // engine's dispatch, the engine's dispatch within the cells.
    let runtime_busy_ms = mc_busy_ms + nominal_busy_ms;
    out.line(format!(
        "reconcile: model busy {model_busy_ms:.1} ms <= runtime busy {runtime_busy_ms:.1} ms x {workers} worker(s); runtime busy <= cell walls {cell_sum_ms:.1} ms <= campaign wall {wall_ms:.1} ms"
    ));
    if model_busy_ms > runtime_busy_ms * workers as f64
        || runtime_busy_ms > cell_sum_ms
        || cell_sum_ms > wall_ms
    {
        out.fail("nested busy times exceed their parent".into());
    }
}

fn replay_metrics(out: &mut Outcome, traced: &TracedRun) -> Result<(), String> {
    let captured = traced.model.captured.lock().expect("capture lock").clone();
    let circuits = replay::replay_circuits(&captured)?;
    let (scalar_ns, factorized_ns) = replay::spicelite_sweeps()?;
    out.metric(
        "sampling.generate_block_ns_per_sample",
        circuits.generate_block_ns,
        "ns",
    );
    out.metric(
        "process.from_unit_point_ns",
        circuits.from_unit_point_ns,
        "ns",
    );
    out.metric(
        "analog.evaluate_block_ns_per_sample",
        circuits.evaluate_block_ns,
        "ns",
    );
    out.metric("analog.specs_ns_per_sample", circuits.specs_ns, "ns");
    out.metric("analog.failed_sample_ratio", circuits.failed_ratio, "ratio");
    out.metric("spicelite.factorized_sweep_ns", factorized_ns, "ns");
    out.metric("spicelite.scalar_sweep_ns", scalar_ns, "ns");
    out.line(format!(
        "replay: {} captured circuit samples ({} blocks)",
        circuits.samples,
        captured.len()
    ));
    Ok(())
}

fn serve_metrics(out: &mut Outcome, run: Option<&service::ServiceRun>) {
    let Some(run) = run else {
        for name in [
            "serve.submit_ms.p50",
            "serve.resubmit_ms.p50",
            "serve.rejected_429",
            "serve.pool_cache_blocks",
            "serve.pool_evictions",
        ] {
            let unit = if name.ends_with("_ms.p50") {
                "ms"
            } else {
                "count"
            };
            out.metric(name, 0.0, unit);
        }
        out.line("serve.*: not applicable to a campaign workload (reported as 0)".into());
        return;
    };
    let submit: Vec<f64> = run.jobs.iter().map(|j| j.submit_ms).collect();
    let resubmit: Vec<f64> = run.jobs.iter().map(|j| j.resubmit_ms).collect();
    out.metric("serve.submit_ms.p50", median(&submit), "ms");
    out.metric("serve.resubmit_ms.p50", median(&resubmit), "ms");
    out.metric(
        "serve.rejected_429",
        prometheus_value(&run.metrics, "moheco_serve_jobs_rejected_total"),
        "count",
    );
    out.metric(
        "serve.pool_cache_blocks",
        prometheus_value(&run.metrics, "moheco_pool_cache_blocks_total"),
        "count",
    );
    out.metric(
        "serve.pool_evictions",
        prometheus_value(&run.metrics, "moheco_engine_evicted_blocks"),
        "count",
    );
}

/// A prediction from the benchmark's design, reported against the trace.
fn predict(out: &mut Outcome, statement: &str, measured: String, held: bool) {
    out.line(format!(
        "prediction: {statement} — measured {measured}: {}",
        if held { "HELD" } else { "FAILED" }
    ));
}

fn metric_value(out: &Outcome, name: &str) -> f64 {
    out.metrics
        .iter()
        .find(|m| m.0 == name)
        .map_or(0.0, |m| m.1)
}

fn traced(workload: Workload, args: &Args) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let (specs, load) = match workload {
        Workload::ServiceTcp => {
            let jobs = workloads::service_jobs(args.seed, 0);
            let load = run_load(&jobs)?;
            out.attempted += load.attempted;
            out.absorb_faults(&load.faults);
            (jobs.into_iter().flatten().collect::<Vec<_>>(), Some(load))
        }
        _ => (vec![spec_for(workload, args.seed, 0, true)], None),
    };
    let dir = ScratchDir::new(&format!("{}-traced", workload.name()))?;
    let untraced = run_untraced(&specs, dir.path(), "plain")?;
    let traced = run_traced(
        &specs,
        dir.path(),
        "traced",
        &["folded_cascode", "telescopic"],
        CAPTURE_BLOCKS,
    )?;
    // A second untraced run after the traced one: the earlier run also
    // pays the process's warm-up, so the faster of the two is the baseline.
    let again = run_untraced(&specs, dir.path(), "again")?;
    let untraced_wall = untraced.wall_s.min(again.wall_s);
    out.attempted += 3 * untraced.cells;
    let row_check = check_rows(&traced.rows);
    out.absorb_rows(&row_check, "traced rows");
    if traced.rows != untraced.rows {
        out.fail("decorated traced rows differ from the undecorated run_campaign rows".into());
    }
    if again.rows != untraced.rows {
        out.fail("two untraced runs of the same job set wrote different rows".into());
    }
    if let Some(load) = &load {
        compare_offline(&mut out, load, &untraced.rows_per_spec);
    }
    if let Err(e) = decorator_self_test(&specs[0]) {
        out.fail(format!("decorator self-test: {e}"));
    } else {
        out.line("decorator self-test: decorated and undecorated rows and phase digests are byte-identical".into());
    }

    // The same job set on the other engine kind, untraced.
    let flipped: Vec<JobSpec> = specs
        .iter()
        .map(|s| JobSpec {
            engine: match s.engine {
                EngineKind::Serial => EngineKind::Parallel,
                EngineKind::Parallel => EngineKind::Serial,
            },
            ..s.clone()
        })
        .collect();
    let other = run_untraced(&flipped, dir.path(), "flipped")?;
    let (serial_wall, parallel_wall) = match specs[0].engine {
        EngineKind::Serial => (untraced_wall, other.wall_s),
        EngineKind::Parallel => (other.wall_s, untraced_wall),
    };

    phase_metrics(&mut out, &traced);
    // The share of feasible oracle cells whose reported 95 % CI covers the
    // closed-form truth; a sound interval gives about 0.95.
    out.metric(
        "core.ci_coverage",
        if row_check.oracle_cells == 0 {
            0.0
        } else {
            row_check.covered as f64 / row_check.oracle_cells as f64
        },
        "ratio",
    );
    let workers = match specs[0].engine {
        EngineKind::Serial => 1,
        EngineKind::Parallel => std::thread::available_parallelism().map_or(1, |n| n.get()),
    };
    layer_metrics(&mut out, &traced, workers);
    out.metric(
        "runtime.parallel_speedup",
        serial_wall / parallel_wall,
        "ratio",
    );
    replay_metrics(&mut out, &traced)?;
    serve_metrics(&mut out, load.as_ref());
    out.metric(
        "obs.tracing_overhead_frac",
        traced.wall_s / untraced_wall - 1.0,
        "ratio",
    );
    out.line(format!(
        "walls: untraced {:.3} and {:.3} s, traced {:.3} s, serial {serial_wall:.3} s, parallel {parallel_wall:.3} s; cores {}",
        untraced.wall_s,
        again.wall_s,
        traced.wall_s,
        std::thread::available_parallelism().map_or(1, |n| n.get())
    ));

    let model_share = metric_value(&out, "model.busy_ms") / (traced.wall_s * 1e3);
    let runtime_share = metric_value(&out, "runtime.self_ms") / (traced.wall_s * 1e3);
    let speedup = metric_value(&out, "runtime.parallel_speedup");
    match workload {
        Workload::CircuitPaper => {
            predict(
                &mut out,
                "the circuit_paper wall is mostly model.busy_ms",
                format!("model share {model_share:.3}"),
                model_share > 0.5,
            );
            predict(
                &mut out,
                "engine dispatch is a few percent of the circuit_paper wall",
                format!("runtime.self_ms share {runtime_share:.3}"),
                runtime_share < 0.1,
            );
        }
        Workload::OracleParallel => {
            let circuit_blocks = traced.model.captured.lock().expect("capture lock").len();
            predict(
                &mut out,
                "the circuit layers do no work on oracle_parallel",
                format!("{circuit_blocks} circuit blocks"),
                circuit_blocks == 0,
            );
            let ns_per_sim = metric_value(&out, "model.ns_per_sim");
            predict(
                &mut out,
                "a simulation costs under 1 us on oracle_parallel",
                format!("model.ns_per_sim {ns_per_sim:.1}"),
                ns_per_sim < 1000.0,
            );
            predict(
                &mut out,
                "the parallel engine is slower than serial (runtime.parallel_speedup < 1)",
                format!("{speedup:.3}"),
                speedup < 1.0,
            );
        }
        Workload::ServiceTcp => {
            let job_ms = traced.cell_walls_ms.iter().sum::<f64>() / specs.len() as f64;
            predict(
                &mut out,
                "a service job computes for tens of ms",
                format!("mean cell wall per job {job_ms:.1} ms"),
                (10.0..100.0).contains(&job_ms),
            );
        }
    }
    Ok(out)
}

fn print_result(out: &Outcome) -> bool {
    for line in &out.report {
        println!("{line}");
    }
    for failure in &out.failures {
        println!("FAILED OPERATION: {failure}");
    }
    for violation in &out.violations {
        println!("FAILED CHECK: {violation}");
    }
    for (name, value, unit) in &out.metrics {
        println!("{name} = {value} {unit}");
    }
    let finite = out.metrics.iter().all(|m| m.1.is_finite());
    let correct = out.violations.is_empty() && finite;
    let metrics: Vec<String> = out
        .metrics
        .iter()
        .map(|(name, value, unit)| {
            let value = if value.is_finite() { *value } else { 0.0 };
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    let attempted = out.attempted.max(1);
    let failed = (out.failures.len() + out.violations.len())
        .max(usize::from(!correct))
        .min(attempted);
    println!(
        "error_rate = {} ({failed} failed of {attempted} operations)",
        failed as f64 / attempted as f64
    );
    println!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        metrics.join(", ")
    );
    correct
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(2);
        }
    };
    let started = Instant::now();
    let result = match (args.workload, args.trace) {
        (Workload::ServiceTcp, false) => service_untraced(&args),
        (workload, false) => campaign_untraced(workload, &args),
        (workload, true) => traced(workload, &args),
    };
    match result {
        Ok(mut out) => {
            out.line(format!(
                "workload {} seed {} trace {}: {:.1} s total",
                args.workload.name(),
                args.seed,
                u8::from(args.trace),
                started.elapsed().as_secs_f64()
            ));
            if !print_result(&out) {
                std::process::exit(1);
            }
        }
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(1);
        }
    }
}
