//! `moheco-run` — the unified experiment runner over the scenario registry.
//!
//! ```text
//! moheco-run [--scenario <name>|all] [--algo de|ga|memetic|two-stage]
//!            [--budget tiny|small|paper] [--estimator mc|lhs|antithetic|is]
//!            [--prescreen off|rsb] [--seed N] [--parallel] [--out-dir DIR]
//!            [--obs off|jsonl:FILE] [--list]
//! ```
//!
//! Every selected scenario is executed through the evaluation engine and
//! written as one machine-readable `RESULTS_<scenario>.json` record in a
//! stable schema (see `moheco-bench/src/results.rs` and `DESIGN.md`), with a
//! one-line summary per scenario on stdout.
//!
//! A single run gates nothing: the committed `baselines/` hold **multi-seed
//! aggregate** records, and the CI baseline gate is `moheco-campaign
//! --baseline-dir` (cross-seed medians over 3 seeds). A single-seed
//! `moheco-run` invocation stays in CI as the cheap smoke path.
//!
//! With `--obs jsonl:FILE`, every selected scenario runs under a span
//! tracer: the full phase event stream (plus one `run_summary` record per
//! scenario) is appended to `FILE`, ready for `moheco-profile`. Each
//! scenario uses a fresh engine, so per-scenario attribution in the stream
//! is self-contained. The tracer never touches the search RNG — results are
//! bit-identical with observability on or off.

use moheco::PrescreenKind;
use moheco_bench::{Algo, BudgetClass, CliArgs, RunSpec};
use moheco_obs::{JsonlCollector, Tracer};
use moheco_sampling::EstimatorKind;
use moheco_scenarios::{all_scenarios, find_scenario, Scenario};
use std::path::Path;
use std::process::ExitCode;
use std::sync::Arc;

const USAGE: &str = "usage: moheco-run [--scenario <name>|all] [--algo de|ga|memetic|two-stage] \
[--budget tiny|small|paper] [--estimator mc|lhs|antithetic|is] [--prescreen off|rsb] [--seed N] \
[--parallel] [--out-dir DIR] [--obs off|jsonl:FILE] [--list]";

fn fail(message: &str) -> ExitCode {
    eprintln!("error: {message}");
    eprintln!("{USAGE}");
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let args = CliArgs::parse();
    if let Err(e) = args.expect_only(
        &["--parallel", "--list"],
        &[
            "--scenario",
            "--algo",
            "--budget",
            "--estimator",
            "--prescreen",
            "--seed",
            "--out-dir",
            "--obs",
        ],
    ) {
        return fail(&e);
    }

    if args.has("--list") {
        println!(
            "{:<24} {:>4} {:>5} {:>6} {:<6} description",
            "scenario", "dim", "stats", "specs", "truth"
        );
        for s in all_scenarios() {
            println!(
                "{:<24} {:>4} {:>5} {:>6} {:<6} {}",
                s.name(),
                s.dimension(),
                s.statistical_dimension(),
                s.spec_names().len(),
                if s.has_true_yield() { "exact" } else { "mc" },
                s.description()
            );
        }
        return ExitCode::SUCCESS;
    }

    let scenarios: Vec<Arc<dyn Scenario>> = match args.value_of("--scenario") {
        Err(e) => return fail(&e),
        Ok(None) | Ok(Some("all")) => all_scenarios(),
        Ok(Some(name)) => match find_scenario(name) {
            Some(s) => vec![s],
            None => {
                let names = moheco_scenarios::scenario_names().join(", ");
                return fail(&format!("unknown scenario {name:?}; registered: {names}"));
            }
        },
    };
    let algo = match args.value_of("--algo") {
        Err(e) => return fail(&e),
        Ok(None) => Algo::default(),
        Ok(Some(v)) => match Algo::parse(v) {
            Some(a) => a,
            None => return fail(&format!("unknown algo {v:?}")),
        },
    };
    let budget = match args.value_of("--budget") {
        Err(e) => return fail(&e),
        Ok(None) => BudgetClass::default(),
        Ok(Some(v)) => match BudgetClass::parse(v) {
            Some(b) => b,
            None => return fail(&format!("unknown budget {v:?}")),
        },
    };
    let estimator = match args.value_of("--estimator") {
        Err(e) => return fail(&e),
        Ok(None) => EstimatorKind::default(),
        Ok(Some(v)) => match EstimatorKind::parse(v) {
            Some(k) => k,
            None => {
                return fail(&format!(
                    "unknown estimator {v:?}; expected mc, lhs, antithetic or is"
                ))
            }
        },
    };
    let prescreen = match args.value_of("--prescreen") {
        Err(e) => return fail(&e),
        Ok(None) => PrescreenKind::default(),
        Ok(Some(v)) => match PrescreenKind::parse(v) {
            Some(k) => k,
            None => return fail(&format!("unknown prescreen {v:?}; expected off or rsb")),
        },
    };
    let seed = match args.u64_of("--seed", 1) {
        Ok(s) => s,
        Err(e) => return fail(&e),
    };
    let out_dir = match args.value_of("--out-dir") {
        Err(e) => return fail(&e),
        Ok(v) => v.unwrap_or(".").to_string(),
    };
    if let Err(e) = std::fs::create_dir_all(&out_dir) {
        return fail(&format!("cannot create out dir {out_dir:?}: {e}"));
    }
    let obs = match args.value_of("--obs") {
        Err(e) => return fail(&e),
        Ok(v) => v.unwrap_or("off").to_string(),
    };
    // One collector (one output stream) shared by all scenarios, but a fresh
    // tracer per scenario so each RESULTS record carries only its own
    // phase breakdown.
    let collector: Option<Arc<JsonlCollector>> = if obs == "off" {
        None
    } else if let Some(path) = obs.strip_prefix("jsonl:") {
        match JsonlCollector::create(Path::new(path)) {
            Ok(c) => Some(Arc::new(c)),
            Err(e) => return fail(&format!("cannot create obs stream {path:?}: {e}")),
        }
    } else {
        return fail(&format!(
            "unknown obs mode {obs:?}; expected off or jsonl:FILE"
        ));
    };

    let engine_kind = args.engine_kind();
    eprintln!(
        "moheco-run: {} scenario(s), algo {}, budget {}, estimator {}, prescreen {}, seed {seed}, {} engine",
        scenarios.len(),
        algo.label(),
        budget.label(),
        estimator.label(),
        prescreen.label(),
        if args.has("--parallel") {
            "parallel"
        } else {
            "serial"
        },
    );
    if let Some(path) = obs.strip_prefix("jsonl:") {
        eprintln!("moheco-run: obs event stream -> {path}");
    }

    for scenario in &scenarios {
        let tracer = match &collector {
            Some(c) => Tracer::new(c.clone()),
            None => Tracer::disabled(),
        };
        let result = RunSpec::new(scenario.as_ref(), algo)
            .budget(budget)
            .seed(seed)
            .engine_kind(engine_kind)
            .estimator(estimator)
            .prescreen(prescreen)
            .tracer(&tracer)
            .execute();
        let path = Path::new(&out_dir).join(result.file_name());
        if let Err(e) = std::fs::write(&path, result.to_json()) {
            eprintln!("error: cannot write {}: {e}", path.display());
            return ExitCode::FAILURE;
        }

        println!(
            "{}: yield {:.4} ±{:.4}{} sims {} cache {:.0}% gens {} ({:.0} ms) -> {}",
            result.scenario,
            result.best_yield,
            result.ci_half_width,
            result
                .true_yield
                .map(|t| format!(" (truth {t:.4})"))
                .unwrap_or_default(),
            result.simulations,
            100.0 * result.engine_stats.hit_rate(),
            result.generations,
            result.wall_time_ms,
            path.display()
        );
    }
    ExitCode::SUCCESS
}
