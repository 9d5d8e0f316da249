//! Campaign cells: untraced runs through `run_campaign` (the entry point
//! `moheco-campaign` uses), traced runs through the same execution core
//! with decorated engines and scenarios, and the output checks on the rows
//! both produce.

use crate::decorators::{EngineProbe, ModelProbe, TracedEngine, TracedScenario};
use crate::util::process_cpu_s;
use moheco_bench::results::{parse_flat_json, JsonValue};
use moheco_bench::{
    drive_schedule, run_campaign, Algo, CampaignEngines, CellOutcome, CellWriter, JobSpec, RunSpec,
    ScheduleOutcome,
};
use moheco_obs::{PhaseBreakdown, Tracer};
use moheco_runtime::{EngineStatsSnapshot, EvalEngine};
use moheco_scenarios::Scenario;
use std::cell::RefCell;
use std::collections::HashMap;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

/// One untraced pass over a job set.
pub struct UntracedRun {
    pub wall_s: f64,
    /// Process CPU time spent by the run.
    pub cpu_s: f64,
    pub simulations: u64,
    pub cells: usize,
    pub cell_walls_ms: Vec<f64>,
    /// The JSONL rows, concatenated in job order.
    pub rows: String,
    /// The JSONL rows of each spec.
    pub rows_per_spec: Vec<String>,
}

/// Runs every spec through `run_campaign` into fresh files under `dir`.
pub fn run_untraced(specs: &[JobSpec], dir: &Path, tag: &str) -> Result<UntracedRun, String> {
    let paths: Vec<_> = (0..specs.len())
        .map(|i| dir.join(format!("{tag}-{i}.jsonl")))
        .collect();
    let cpu_before = process_cpu_s();
    let started = Instant::now();
    let mut reports = Vec::with_capacity(specs.len());
    for (spec, path) in specs.iter().zip(&paths) {
        reports.push(run_campaign(spec, path, |_| {})?);
    }
    let wall_s = started.elapsed().as_secs_f64();
    let mut run = UntracedRun {
        wall_s,
        cpu_s: process_cpu_s() - cpu_before,
        simulations: 0,
        cells: 0,
        cell_walls_ms: Vec::new(),
        rows: String::new(),
        rows_per_spec: Vec::new(),
    };
    for (report, path) in reports.iter().zip(&paths) {
        run.simulations += report.total_engine_stats().simulations_run;
        run.cells += report.executed;
        run.cell_walls_ms
            .extend(report.cell_costs.iter().map(|c| c.wall_time_ms));
        let rows = std::fs::read_to_string(path)
            .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
        run.rows.push_str(&rows);
        run.rows_per_spec.push(rows);
        let _ = std::fs::remove_file(path);
        let mut sidecar = path.as_os_str().to_os_string();
        sidecar.push(".spec");
        let _ = std::fs::remove_file(sidecar);
    }
    Ok(run)
}

/// One traced pass over a job set, with everything the decorators and the
/// phase tracer saw.
pub struct TracedRun {
    pub wall_s: f64,
    pub rows: String,
    pub cell_walls_ms: Vec<f64>,
    pub cell_simulations: u64,
    pub cell_stats: EngineStatsSnapshot,
    pub schedule: Vec<ScheduleOutcome>,
    pub breakdown: PhaseBreakdown,
    pub engine: Arc<EngineProbe>,
    pub model: Arc<ModelProbe>,
}

/// Runs every spec through the campaign execution core with decorated
/// engines (per-scenario `CampaignEngines`, as `run_campaign` builds them)
/// and decorated scenarios, under one aggregating phase tracer. Scenarios
/// named in `capture` file up to `capture_limit` model input blocks each.
pub fn run_traced(
    specs: &[JobSpec],
    dir: &Path,
    tag: &str,
    capture: &[&str],
    capture_limit: usize,
) -> Result<TracedRun, String> {
    let engine_probe = Arc::new(EngineProbe::default());
    let model_probe = Arc::new(ModelProbe::default());
    let tracer = Tracer::aggregating();
    let mut run = TracedRun {
        wall_s: 0.0,
        rows: String::new(),
        cell_walls_ms: Vec::new(),
        cell_simulations: 0,
        cell_stats: EngineStatsSnapshot::default(),
        schedule: Vec::new(),
        breakdown: PhaseBreakdown::default(),
        engine: engine_probe.clone(),
        model: model_probe.clone(),
    };
    for (i, spec) in specs.iter().enumerate() {
        let path = dir.join(format!("{tag}-{i}.jsonl"));
        spec.validate()?;
        let scenarios: HashMap<String, Arc<dyn Scenario>> = spec
            .resolve_scenarios()?
            .into_iter()
            .map(|s| {
                let limit = if capture.contains(&s.name()) {
                    capture_limit
                } else {
                    0
                };
                let traced: Arc<dyn Scenario> =
                    Arc::new(TracedScenario::new(s.clone(), model_probe.clone(), limit));
                (s.name().to_string(), traced)
            })
            .collect();
        let algos: HashMap<&str, Algo> = spec.algos.iter().map(|a| (a.label(), *a)).collect();
        let engines = RefCell::new(CampaignEngines::for_spec(spec));
        let results = RefCell::new(Vec::new());
        let execute = |cell: &moheco_bench::Cell| {
            let scenario = scenarios
                .get(&cell.scenario)
                .ok_or_else(|| format!("unknown scenario {:?}", cell.scenario))?;
            let algo = *algos
                .get(cell.algo.as_str())
                .ok_or_else(|| format!("unknown algo {:?}", cell.algo))?;
            let engine: Arc<dyn EvalEngine> = Arc::new(TracedEngine::new(
                engines.borrow_mut().prepare(&cell.scenario, cell.seed),
                engine_probe.clone(),
            ));
            Ok(RunSpec::new(scenario.as_ref(), algo)
                .budget(cell.budget)
                .seed(cell.seed)
                .engine(engine)
                .engine_label(spec.engine.label())
                .prescreen(spec.prescreen)
                .tracer(&tracer)
                .execute())
        };
        let on_cell = |_: &moheco_bench::Cell, outcome: CellOutcome<'_>| {
            if let CellOutcome::Executed(result) = outcome {
                results.borrow_mut().push((
                    result.wall_time_ms,
                    result.simulations,
                    result.engine_stats,
                ));
            }
            Ok(())
        };
        let started = Instant::now();
        let writer = CellWriter::open(&path, spec)?;
        let outcome = drive_schedule(spec, writer, &tracer, execute, on_cell)?;
        run.wall_s += started.elapsed().as_secs_f64();
        run.schedule.push(outcome);
        for (wall_ms, sims, stats) in results.into_inner() {
            run.cell_walls_ms.push(wall_ms);
            run.cell_simulations += sims;
            run.cell_stats.absorb(&stats);
        }
        run.rows.push_str(
            &std::fs::read_to_string(&path)
                .map_err(|e| format!("cannot read {}: {e}", path.display()))?,
        );
    }
    run.breakdown = tracer.breakdown();
    Ok(run)
}

/// Runs one cell undecorated and decorated, both under a fresh
/// aggregating tracer, and reports whether their rows and phase digests
/// agree byte for byte.
pub fn decorator_self_test(spec: &JobSpec) -> Result<(), String> {
    let scenario = spec
        .resolve_scenarios()?
        .into_iter()
        .next()
        .ok_or("spec has no scenario")?;
    let algo = spec.algos[0];
    let seed = spec.seeds[0];
    let run = |scenario: &dyn Scenario, decorate: bool| {
        let mut engines = CampaignEngines::for_spec(spec);
        let mut engine = engines.prepare(scenario.name(), seed);
        if decorate {
            engine = Arc::new(TracedEngine::new(engine, Arc::default()));
        }
        let tracer = Tracer::aggregating();
        let row = RunSpec::new(scenario, algo)
            .budget(spec.budget)
            .seed(seed)
            .engine(engine)
            .engine_label(spec.engine.label())
            .prescreen(spec.prescreen)
            .tracer(&tracer)
            .execute()
            .to_jsonl_row();
        (row, tracer.breakdown().digest())
    };
    let plain = run(scenario.as_ref(), false);
    let traced_scenario = TracedScenario::new(scenario.clone(), Arc::default(), 0);
    let decorated = run(&traced_scenario, true);
    if plain.0 != decorated.0 {
        return Err(format!(
            "decorated row differs from undecorated row:\n  {}  {}",
            plain.0, decorated.0
        ));
    }
    if plain.1 != decorated.1 {
        return Err(format!(
            "decorated phase digest {} differs from undecorated {}",
            decorated.1, plain.1
        ));
    }
    Ok(())
}

/// Output checks over JSONL rows.
#[derive(Default)]
pub struct RowCheck {
    pub rows: usize,
    pub failed: usize,
    /// Feasible oracle cells.
    pub oracle_cells: usize,
    /// Oracle cells whose reported 95 % CI contains the closed-form truth.
    pub covered: usize,
    pub gap_sum: f64,
    pub gap_max: f64,
    pub messages: Vec<String>,
}

impl RowCheck {
    /// Mean |best yield - truth| over oracle cells, in percentage points.
    pub fn yield_gap_pp(&self) -> f64 {
        if self.oracle_cells == 0 {
            0.0
        } else {
            100.0 * self.gap_sum / self.oracle_cells as f64
        }
    }
}

/// Checks every row: it parses, its best yield is finite and in [0, 1],
/// and for feasible oracle cells records whether the reported 95 % CI
/// covers the truth.
pub fn check_rows(text: &str) -> RowCheck {
    let mut check = RowCheck::default();
    for line in text.lines().filter(|l| !l.trim().is_empty()) {
        check.rows += 1;
        let row = match parse_flat_json(line) {
            Ok(row) => row,
            Err(e) => {
                check.failed += 1;
                check.messages.push(format!("unparsable row: {e}"));
                continue;
            }
        };
        let cell = format!(
            "{}/{}/seed {}",
            row.str("scenario").unwrap_or("?"),
            row.str("algo").unwrap_or("?"),
            row.num("seed").unwrap_or(-1.0)
        );
        let best = row.num("best_yield").unwrap_or(f64::NAN);
        if !(best.is_finite() && (0.0..=1.0).contains(&best)) {
            check.failed += 1;
            check
                .messages
                .push(format!("{cell}: best yield {best} outside [0, 1]"));
            continue;
        }
        // An infeasible cell reports yield 0 with a CI of zero width by
        // design; only feasible oracle cells claim an interval.
        let feasible = row.values.get("feasible") != Some(&JsonValue::Bool(false));
        if let (Some(truth), true) = (row.num("true_yield"), feasible) {
            let half_width = row.num("ci_half_width").unwrap_or(0.0);
            let gap = (best - truth).abs();
            check.oracle_cells += 1;
            check.gap_sum += gap;
            check.gap_max = check.gap_max.max(gap);
            if gap <= half_width {
                check.covered += 1;
            } else {
                check.messages.push(format!(
                    "{cell}: truth {truth:.4} outside {best:.4} +- {half_width:.4}"
                ));
            }
        }
    }
    check
}
