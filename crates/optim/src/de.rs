//! Differential Evolution (DE).
//!
//! DE (Price & Storn) is the global search engine of MOHECO: a simple
//! differential mutation operator creates trial vectors and a greedy
//! one-to-one selection (here under Deb's feasibility rules) decides whether
//! each trial replaces its parent. The paper uses a population of 50,
//! crossover rate `CR = 0.8` and step size `F = 0.8`.
//!
//! The mutation/crossover operators are exposed as free functions so the
//! MOHECO core (which owns its own generation loop because of the two-stage
//! yield estimation) can reuse exactly the same operators.

use crate::constraints::is_better_or_equal;
use crate::filter::{AdmitAll, TrialFilter};
use crate::population::{Individual, Population};
use crate::problem::{clamp_to_bounds, Problem};
use crate::result::OptimizationResult;
use moheco_obs::{Span, Tracer};
use rand::Rng;

/// Base-vector selection strategy of the DE mutation operator.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DeStrategy {
    /// `DE/rand/1`: the base vector is a random population member.
    Rand1,
    /// `DE/best/1`: the base vector is the current best member (the variant
    /// the paper's "select base vector" step uses to propagate good schemata).
    Best1,
}

/// Configuration of the DE engine.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DeConfig {
    /// Population size (paper: 50).
    pub population_size: usize,
    /// Differential weight `F` (paper: 0.8).
    pub f: f64,
    /// Crossover rate `CR` (paper: 0.8).
    pub cr: f64,
    /// Base-vector strategy.
    pub strategy: DeStrategy,
    /// Maximum number of generations.
    pub max_generations: usize,
    /// Stop when the best objective has not improved for this many
    /// generations (paper: 20). `None` disables the criterion.
    pub stagnation_limit: Option<usize>,
    /// Stop as soon as the best objective reaches this value or better.
    pub target_objective: Option<f64>,
}

impl Default for DeConfig {
    fn default() -> Self {
        Self {
            population_size: 50,
            f: 0.8,
            cr: 0.8,
            strategy: DeStrategy::Best1,
            max_generations: 200,
            stagnation_limit: Some(20),
            target_objective: None,
        }
    }
}

/// Generates the DE mutant (donor) vector for target index `i`.
///
/// # Panics
///
/// Panics if the population has fewer than four members.
pub fn de_mutant<R: Rng + ?Sized>(
    population: &Population,
    target: usize,
    config: &DeConfig,
    bounds: &[(f64, f64)],
    rng: &mut R,
) -> Vec<f64> {
    let n = population.len();
    assert!(n >= 4, "DE needs at least four individuals");
    // Pick three distinct indices different from the target.
    let mut pick = || loop {
        let r = rng.gen_range(0..n);
        if r != target {
            break r;
        }
    };
    let (r1, mut r2, mut r3) = (pick(), pick(), pick());
    while r2 == r1 {
        r2 = pick();
    }
    while r3 == r1 || r3 == r2 {
        r3 = pick();
    }
    let base: &[f64] = match config.strategy {
        DeStrategy::Rand1 => &population.members[r1].x,
        DeStrategy::Best1 => {
            let b = population.best_index().unwrap_or(r1);
            &population.members[b].x
        }
    };
    let a = &population.members[r2].x;
    let b = &population.members[r3].x;
    let mut mutant: Vec<f64> = base
        .iter()
        .zip(a.iter().zip(b.iter()))
        .map(|(&base_j, (&a_j, &b_j))| base_j + config.f * (a_j - b_j))
        .collect();
    clamp_to_bounds(&mut mutant, bounds);
    mutant
}

/// Binomial (uniform) crossover between the target vector and the mutant.
///
/// At least one component is always taken from the mutant.
pub fn de_crossover<R: Rng + ?Sized>(
    target: &[f64],
    mutant: &[f64],
    cr: f64,
    rng: &mut R,
) -> Vec<f64> {
    let d = target.len();
    let forced = rng.gen_range(0..d);
    (0..d)
        .map(|j| {
            if j == forced || rng.gen::<f64>() < cr {
                mutant[j]
            } else {
                target[j]
            }
        })
        .collect()
}

/// The DE optimizer.
#[derive(Debug, Clone)]
pub struct DifferentialEvolution {
    config: DeConfig,
}

impl DifferentialEvolution {
    /// Creates a DE engine with the given configuration.
    ///
    /// # Panics
    ///
    /// Panics if the population size is below 4 or `f`/`cr` are out of range.
    pub fn new(config: DeConfig) -> Self {
        assert!(config.population_size >= 4, "population must be >= 4");
        assert!(config.f > 0.0 && config.f <= 2.0, "F must be in (0, 2]");
        assert!((0.0..=1.0).contains(&config.cr), "CR must be in [0, 1]");
        Self { config }
    }

    /// The configuration in use.
    pub fn config(&self) -> &DeConfig {
        &self.config
    }

    /// Runs the optimizer on `problem`.
    pub fn run<P: Problem + ?Sized, R: Rng + ?Sized>(
        &self,
        problem: &mut P,
        rng: &mut R,
    ) -> OptimizationResult {
        self.run_traced_filtered(problem, &mut AdmitAll, &Tracer::disabled(), rng)
    }

    /// Runs the optimizer on `problem` under a [`TrialFilter`] and an
    /// observability [`Tracer`].
    ///
    /// The filter gates each generation's trial vectors: rejected trials are
    /// discarded unevaluated and their parents keep their slots. Under
    /// [`AdmitAll`] the run is bit-identical to [`Self::run`] (the filter
    /// never touches the RNG stream).
    ///
    /// The whole run becomes a `"de"` span with one `"generation"` child span
    /// per generation, so a probe-equipped tracer attributes every evaluation
    /// to the generation that spent it. With [`Tracer::disabled`] (what
    /// [`Self::run`] passes) the spans are inert.
    pub fn run_traced_filtered<P, T, R>(
        &self,
        problem: &mut P,
        filter: &mut T,
        tracer: &Tracer,
        rng: &mut R,
    ) -> OptimizationResult
    where
        P: Problem + ?Sized,
        T: TrialFilter + ?Sized,
        R: Rng + ?Sized,
    {
        let _run_span = Span::enter(tracer, "de");
        let bounds = problem.bounds();
        let mut population = Population::random(problem, self.config.population_size, rng);
        for m in &population.members {
            filter.observe(&m.x, &m.eval);
        }
        let mut evaluations = population.len();
        let mut history = Vec::new();
        let mut best_so_far = population.best().cloned();
        let mut stagnation = 0usize;
        let mut generations = 0usize;

        for gen in 0..self.config.max_generations {
            let _gen_span = Span::enter(tracer, "generation");
            generations += 1;
            let mut improved = false;
            // Synchronous (generational) DE: all trial vectors derive from the
            // population as it stood at the start of the generation, so the
            // whole generation can be evaluated as one batch (and, with a
            // batch-capable problem, dispatched in parallel).
            let trials: Vec<Vec<f64>> = (0..population.len())
                .map(|i| {
                    let mutant = de_mutant(&population, i, &self.config, &bounds, rng);
                    de_crossover(&population.members[i].x, &mutant, self.config.cr, rng)
                })
                .collect();
            let admits = filter.admit(gen, &trials);
            debug_assert_eq!(admits.len(), trials.len(), "one verdict per trial");
            // Fast path when nothing was rejected (always the case under
            // [`AdmitAll`]): evaluate the trials in place, no copies.
            let selected_evals = if admits.iter().all(|&keep| keep) {
                problem.evaluate_batch(&trials)
            } else {
                let selected: Vec<Vec<f64>> = trials
                    .iter()
                    .zip(&admits)
                    .filter(|(_, &keep)| keep)
                    .map(|(t, _)| t.clone())
                    .collect();
                problem.evaluate_batch(&selected)
            };
            evaluations += selected_evals.len();
            let mut eval_iter = selected_evals.into_iter();
            for (i, (trial_x, keep)) in trials.into_iter().zip(admits).enumerate() {
                if !keep {
                    continue;
                }
                let trial_eval = eval_iter.next().expect("one evaluation per admitted trial");
                filter.observe(&trial_x, &trial_eval);
                if is_better_or_equal(&trial_eval, &population.members[i].eval) {
                    population.members[i] = Individual::new(trial_x, trial_eval);
                }
            }
            let best = population.best().cloned().expect("non-empty population");
            if let Some(prev) = &best_so_far {
                if is_better_or_equal(&best.eval, &prev.eval)
                    && best.eval.objective < prev.eval.objective - 1e-15
                {
                    improved = true;
                }
                if crate::constraints::feasibility_compare(&best.eval, &prev.eval)
                    == std::cmp::Ordering::Less
                {
                    best_so_far = Some(best.clone());
                }
            } else {
                best_so_far = Some(best.clone());
                improved = true;
            }
            history.push(best_so_far.as_ref().unwrap().eval.objective);

            if improved {
                stagnation = 0;
            } else {
                stagnation += 1;
            }
            if let Some(target) = self.config.target_objective {
                if best_so_far.as_ref().unwrap().eval.is_feasible()
                    && best_so_far.as_ref().unwrap().eval.objective <= target
                {
                    break;
                }
            }
            if let Some(limit) = self.config.stagnation_limit {
                if stagnation >= limit {
                    break;
                }
            }
        }

        OptimizationResult {
            best: best_so_far.expect("population was evaluated"),
            generations,
            evaluations,
            history,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::problem::{Evaluation, FnProblem};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn sphere(dim: usize) -> FnProblem<impl FnMut(&[f64]) -> Evaluation> {
        FnProblem::new(dim, vec![(-5.0, 5.0); dim], |x: &[f64]| {
            Evaluation::feasible(x.iter().map(|v| v * v).sum())
        })
    }

    fn rosenbrock() -> FnProblem<impl FnMut(&[f64]) -> Evaluation> {
        FnProblem::new(2, vec![(-2.0, 2.0); 2], |x: &[f64]| {
            let a = 1.0 - x[0];
            let b = x[1] - x[0] * x[0];
            Evaluation::feasible(a * a + 100.0 * b * b)
        })
    }

    /// Constrained problem: minimise x0 + x1 subject to x0*x1 >= 1, x in [0, 10].
    fn constrained() -> FnProblem<impl FnMut(&[f64]) -> Evaluation> {
        FnProblem::new(2, vec![(0.0, 10.0); 2], |x: &[f64]| {
            let violation = (1.0 - x[0] * x[1]).max(0.0);
            if violation > 0.0 {
                Evaluation::new(x[0] + x[1], violation)
            } else {
                Evaluation::feasible(x[0] + x[1])
            }
        })
    }

    #[test]
    fn config_validation() {
        let c = DeConfig {
            population_size: 3,
            ..DeConfig::default()
        };
        assert!(std::panic::catch_unwind(|| DifferentialEvolution::new(c)).is_err());
        let c2 = DeConfig {
            cr: 1.5,
            ..DeConfig::default()
        };
        assert!(std::panic::catch_unwind(|| DifferentialEvolution::new(c2)).is_err());
    }

    #[test]
    fn mutant_stays_in_bounds() {
        let mut problem = sphere(4);
        let mut rng = StdRng::seed_from_u64(9);
        let pop = Population::random(&mut problem, 10, &mut rng);
        let cfg = DeConfig::default();
        let bounds = problem.bounds();
        for i in 0..pop.len() {
            let m = de_mutant(&pop, i, &cfg, &bounds, &mut rng);
            assert!(m.iter().all(|v| (-5.0..=5.0).contains(v)));
        }
    }

    #[test]
    fn crossover_takes_at_least_one_mutant_component() {
        let mut rng = StdRng::seed_from_u64(10);
        let target = vec![0.0; 8];
        let mutant = vec![1.0; 8];
        // Even with CR = 0 one component must come from the mutant.
        let child = de_crossover(&target, &mutant, 0.0, &mut rng);
        assert!(child.contains(&1.0));
        // With CR = 1 every component comes from the mutant.
        let child_full = de_crossover(&target, &mutant, 1.0, &mut rng);
        assert!(child_full.iter().all(|&v| v == 1.0));
    }

    #[test]
    fn de_minimises_sphere() {
        let mut problem = sphere(5);
        let mut rng = StdRng::seed_from_u64(11);
        let de = DifferentialEvolution::new(DeConfig {
            population_size: 30,
            max_generations: 150,
            stagnation_limit: None,
            ..DeConfig::default()
        });
        let result = de.run(&mut problem, &mut rng);
        assert!(
            result.best_objective() < 1e-3,
            "best {}",
            result.best_objective()
        );
        assert!(result.evaluations > 30);
    }

    #[test]
    fn de_minimises_rosenbrock() {
        let mut problem = rosenbrock();
        let mut rng = StdRng::seed_from_u64(12);
        let de = DifferentialEvolution::new(DeConfig {
            population_size: 40,
            max_generations: 300,
            stagnation_limit: None,
            ..DeConfig::default()
        });
        let result = de.run(&mut problem, &mut rng);
        assert!(
            result.best_objective() < 1e-2,
            "best {}",
            result.best_objective()
        );
        assert!((result.best.x[0] - 1.0).abs() < 0.2);
    }

    #[test]
    fn de_satisfies_constraints() {
        let mut problem = constrained();
        let mut rng = StdRng::seed_from_u64(13);
        let de = DifferentialEvolution::new(DeConfig {
            population_size: 30,
            max_generations: 200,
            stagnation_limit: None,
            ..DeConfig::default()
        });
        let result = de.run(&mut problem, &mut rng);
        assert!(result.is_feasible());
        // Optimum is x0 = x1 = 1 with objective 2.
        assert!(
            (result.best_objective() - 2.0).abs() < 0.05,
            "best {}",
            result.best_objective()
        );
    }

    #[test]
    fn stagnation_limit_stops_early() {
        let mut problem = sphere(3);
        let mut rng = StdRng::seed_from_u64(14);
        let de = DifferentialEvolution::new(DeConfig {
            population_size: 20,
            max_generations: 500,
            stagnation_limit: Some(5),
            ..DeConfig::default()
        });
        let result = de.run(&mut problem, &mut rng);
        assert!(result.generations < 500);
    }

    #[test]
    fn target_objective_stops_early() {
        let mut problem = sphere(3);
        let mut rng = StdRng::seed_from_u64(15);
        let de = DifferentialEvolution::new(DeConfig {
            population_size: 20,
            max_generations: 500,
            stagnation_limit: None,
            target_objective: Some(0.5),
            ..DeConfig::default()
        });
        let result = de.run(&mut problem, &mut rng);
        assert!(result.best_objective() <= 0.5);
        assert!(result.generations < 500);
    }

    #[test]
    fn rand1_strategy_also_converges() {
        let mut problem = sphere(4);
        let mut rng = StdRng::seed_from_u64(16);
        let de = DifferentialEvolution::new(DeConfig {
            population_size: 30,
            strategy: DeStrategy::Rand1,
            max_generations: 200,
            stagnation_limit: None,
            ..DeConfig::default()
        });
        let result = de.run(&mut problem, &mut rng);
        assert!(result.best_objective() < 1e-2);
    }

    #[test]
    fn admit_all_filter_matches_unfiltered_run() {
        let run = |filtered: bool| {
            let mut problem = sphere(4);
            let mut rng = StdRng::seed_from_u64(21);
            let de = DifferentialEvolution::new(DeConfig {
                population_size: 12,
                max_generations: 20,
                ..DeConfig::default()
            });
            if filtered {
                de.run_traced_filtered(&mut problem, &mut AdmitAll, &Tracer::disabled(), &mut rng)
            } else {
                de.run(&mut problem, &mut rng)
            }
        };
        let (a, b) = (run(false), run(true));
        assert_eq!(a.best.x, b.best.x);
        assert_eq!(a.evaluations, b.evaluations);
        assert_eq!(a.history, b.history);
    }

    #[test]
    fn rejected_trials_are_not_evaluated() {
        struct RejectAfterFirst {
            observed: usize,
        }
        impl TrialFilter for RejectAfterFirst {
            fn admit(&mut self, generation: usize, trials: &[Vec<f64>]) -> Vec<bool> {
                vec![generation == 0; trials.len()]
            }
            fn observe(&mut self, _x: &[f64], _eval: &Evaluation) {
                self.observed += 1;
            }
        }
        let mut problem = sphere(3);
        let mut rng = StdRng::seed_from_u64(22);
        let de = DifferentialEvolution::new(DeConfig {
            population_size: 10,
            max_generations: 6,
            stagnation_limit: None,
            ..DeConfig::default()
        });
        let mut filter = RejectAfterFirst { observed: 0 };
        let result =
            de.run_traced_filtered(&mut problem, &mut filter, &Tracer::disabled(), &mut rng);
        // Initial population + one admitted generation; the five rejected
        // generations cost nothing.
        assert_eq!(result.evaluations, 10 + 10);
        assert_eq!(filter.observed, 20);
        assert_eq!(result.generations, 6);
    }

    #[test]
    fn history_is_monotone_non_increasing() {
        let mut problem = sphere(4);
        let mut rng = StdRng::seed_from_u64(17);
        let de = DifferentialEvolution::new(DeConfig::default());
        let result = de.run(&mut problem, &mut rng);
        for w in result.history.windows(2) {
            assert!(w[1] <= w[0] + 1e-12);
        }
    }
}
