//! Memetic coupling of Differential Evolution and Nelder–Mead.
//!
//! The paper's memetic engine departs from the textbook construction in two
//! ways that make it affordable inside an expensive Monte-Carlo loop:
//!
//! 1. the local search is applied **only to the best member** of the DE
//!    population (whose schemata propagate to the next generation through the
//!    `DE/best/1` base vector), never to the whole population;
//! 2. the local search is **triggered adaptively**: only when the best yield
//!    has not improved for 5 consecutive generations does a short (≈10
//!    iteration) Nelder–Mead refinement run, after which control returns to
//!    DE.

use crate::constraints::is_better_or_equal;
use crate::de::{de_crossover, de_mutant, DeConfig};
use crate::filter::{AdmitAll, TrialFilter};
use crate::nelder_mead::{nelder_mead, NelderMeadConfig};
use crate::population::{Individual, Population};
use crate::problem::Problem;
use crate::result::OptimizationResult;
use moheco_obs::{Span, Tracer};
use rand::Rng;

/// Tracks how many consecutive generations the best objective has failed to
/// improve, and decides when the memetic local search should fire.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StagnationTracker {
    /// Number of stagnant generations after which the local search triggers.
    pub trigger: usize,
    stagnant: usize,
    last_best: Option<f64>,
    /// Minimum improvement that resets the counter.
    pub tolerance: f64,
}

impl StagnationTracker {
    /// Creates a tracker that triggers after `trigger` stagnant generations.
    pub fn new(trigger: usize) -> Self {
        Self {
            trigger,
            stagnant: 0,
            last_best: None,
            tolerance: 1e-12,
        }
    }

    /// Records the best objective of the current generation and returns
    /// `true` when the local search should be triggered (the counter resets
    /// after firing).
    pub fn update(&mut self, best_objective: f64) -> bool {
        let improved = match self.last_best {
            None => true,
            Some(prev) => best_objective < prev - self.tolerance,
        };
        if improved {
            self.last_best = Some(best_objective);
            self.stagnant = 0;
        } else {
            self.stagnant += 1;
        }
        if self.stagnant >= self.trigger {
            self.stagnant = 0;
            true
        } else {
            false
        }
    }

    /// Number of consecutive stagnant generations currently recorded.
    pub fn stagnant_generations(&self) -> usize {
        self.stagnant
    }
}

/// Configuration of the memetic optimizer.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MemeticConfig {
    /// The global-search (DE) configuration.
    pub de: DeConfig,
    /// The local-search (Nelder–Mead) configuration.
    pub nm: NelderMeadConfig,
    /// Number of stagnant generations before NM fires (paper: 5).
    pub stagnation_trigger: usize,
}

impl Default for MemeticConfig {
    fn default() -> Self {
        Self {
            de: DeConfig::default(),
            nm: NelderMeadConfig::memetic_default(),
            stagnation_trigger: 5,
        }
    }
}

/// DE + Nelder–Mead memetic optimizer with Deb's feasibility-rule selection.
#[derive(Debug, Clone)]
pub struct MemeticOptimizer {
    config: MemeticConfig,
}

impl MemeticOptimizer {
    /// Creates a memetic optimizer.
    ///
    /// # Panics
    ///
    /// Panics if the embedded DE configuration is invalid (see
    /// [`crate::de::DifferentialEvolution::new`]).
    pub fn new(config: MemeticConfig) -> Self {
        assert!(config.de.population_size >= 4, "population must be >= 4");
        assert!(config.stagnation_trigger >= 1, "trigger must be >= 1");
        Self { config }
    }

    /// The configuration in use.
    pub fn config(&self) -> &MemeticConfig {
        &self.config
    }

    /// Runs the memetic optimization on `problem`.
    pub fn run<P: Problem + ?Sized, R: Rng + ?Sized>(
        &self,
        problem: &mut P,
        rng: &mut R,
    ) -> OptimizationResult {
        self.run_traced_filtered(problem, &mut AdmitAll, &Tracer::disabled(), rng)
    }

    /// Runs the memetic optimization on `problem` under a [`TrialFilter`] and
    /// an observability [`Tracer`].
    ///
    /// The filter gates each DE generation's trial vectors (rejected trials
    /// are discarded unevaluated; their parents survive). The Nelder–Mead
    /// refinement is *never* filtered: it probes a small neighbourhood of the
    /// best member, exactly the region a surrogate is least able to resolve.
    /// Under [`AdmitAll`] the run is bit-identical to [`Self::run`].
    ///
    /// The run becomes a `"memetic"` span with one `"de_generation"` child per
    /// DE generation and an `"nm_refine"` child for every Nelder–Mead
    /// refinement, so a probe-equipped tracer splits the evaluation budget
    /// between global and local search. With [`Tracer::disabled`] (what
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
        let _run_span = Span::enter(tracer, "memetic");
        let bounds = problem.bounds();
        let mut population = Population::random(problem, self.config.de.population_size, rng);
        for m in &population.members {
            filter.observe(&m.x, &m.eval);
        }
        let mut evaluations = population.len();
        let mut history = Vec::new();
        let mut tracker = StagnationTracker::new(self.config.stagnation_trigger);
        let mut best_so_far = population.best().cloned().expect("non-empty population");
        let mut generations = 0usize;
        let mut stagnation_stop = 0usize;

        for gen in 0..self.config.de.max_generations {
            let _gen_span = Span::enter(tracer, "de_generation");
            generations += 1;
            // One synchronous DE generation, evaluated as a single batch so a
            // batch-capable problem can dispatch it in parallel.
            let trials: Vec<Vec<f64>> = (0..population.len())
                .map(|i| {
                    let mutant = de_mutant(&population, i, &self.config.de, &bounds, rng);
                    de_crossover(&population.members[i].x, &mutant, self.config.de.cr, rng)
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

            // Track the global best.
            let gen_best = population.best().cloned().expect("non-empty population");
            let improved =
                crate::constraints::feasibility_compare(&gen_best.eval, &best_so_far.eval)
                    == std::cmp::Ordering::Less;
            if improved {
                best_so_far = gen_best.clone();
                stagnation_stop = 0;
            } else {
                stagnation_stop += 1;
            }

            // Memetic trigger: refine the best member with Nelder–Mead.
            let trigger_value = if gen_best.eval.is_feasible() {
                gen_best.eval.objective
            } else {
                f64::INFINITY
            };
            if tracker.update(trigger_value) && gen_best.eval.is_feasible() {
                let _nm_span = Span::enter(tracer, "nm_refine");
                let best_idx = population.best_index().expect("non-empty population");
                let start = population.members[best_idx].x.clone();
                // Local objective: feasible candidates by objective, infeasible
                // ones pushed away by their violation.
                let mut local_evals = 0usize;
                let nm_result = {
                    let objective = |x: &[f64]| {
                        local_evals += 1;
                        let e = problem.evaluate(x);
                        if e.is_feasible() {
                            e.objective
                        } else {
                            1e9 + e.constraint_violation
                        }
                    };
                    nelder_mead(objective, &start, &bounds, &self.config.nm)
                };
                evaluations += local_evals;
                let refined_eval = problem.evaluate(&nm_result.x);
                evaluations += 1;
                if is_better_or_equal(&refined_eval, &population.members[best_idx].eval) {
                    population.members[best_idx] = Individual::new(nm_result.x, refined_eval);
                    let new_best = population.best().cloned().expect("non-empty population");
                    if crate::constraints::feasibility_compare(&new_best.eval, &best_so_far.eval)
                        == std::cmp::Ordering::Less
                    {
                        best_so_far = new_best;
                        stagnation_stop = 0;
                    }
                }
            }

            history.push(best_so_far.eval.objective);

            if let Some(target) = self.config.de.target_objective {
                if best_so_far.eval.is_feasible() && best_so_far.eval.objective <= target {
                    break;
                }
            }
            if let Some(limit) = self.config.de.stagnation_limit {
                if stagnation_stop >= limit {
                    break;
                }
            }
        }

        OptimizationResult {
            best: best_so_far,
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

    #[test]
    fn stagnation_tracker_counts_and_fires() {
        let mut t = StagnationTracker::new(3);
        assert!(!t.update(10.0)); // first value = improvement
        assert!(!t.update(10.0));
        assert!(!t.update(10.0));
        assert!(t.update(10.0)); // third stagnant generation fires
        assert_eq!(t.stagnant_generations(), 0); // reset after firing
        assert!(!t.update(9.0)); // improvement resets
        assert!(!t.update(9.5));
        assert!(!t.update(9.5));
        assert!(t.update(9.5));
    }

    #[test]
    fn admit_all_filter_matches_unfiltered_run() {
        let make_problem = || {
            FnProblem::new(3, vec![(-3.0, 3.0); 3], |x: &[f64]| {
                Evaluation::feasible(x.iter().map(|v| v * v).sum())
            })
        };
        let config = MemeticConfig {
            de: DeConfig {
                population_size: 10,
                max_generations: 15,
                ..DeConfig::default()
            },
            ..MemeticConfig::default()
        };
        let run = |filtered: bool| {
            let mut problem = make_problem();
            let mut rng = StdRng::seed_from_u64(31);
            let optimizer = MemeticOptimizer::new(config);
            if filtered {
                optimizer.run_traced_filtered(
                    &mut problem,
                    &mut AdmitAll,
                    &Tracer::disabled(),
                    &mut rng,
                )
            } else {
                optimizer.run(&mut problem, &mut rng)
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
        let mut problem = FnProblem::new(2, vec![(-1.0, 1.0); 2], |x: &[f64]| {
            Evaluation::feasible(x[0] * x[0] + x[1] * x[1])
        });
        let mut rng = StdRng::seed_from_u64(32);
        let optimizer = MemeticOptimizer::new(MemeticConfig {
            de: DeConfig {
                population_size: 8,
                max_generations: 4,
                stagnation_limit: None,
                ..DeConfig::default()
            },
            // A high trigger keeps the (unfiltered) Nelder-Mead refinement
            // out of the evaluation count.
            stagnation_trigger: 100,
            ..MemeticConfig::default()
        });
        let mut filter = RejectAfterFirst { observed: 0 };
        let result =
            optimizer.run_traced_filtered(&mut problem, &mut filter, &Tracer::disabled(), &mut rng);
        // Initial population + one admitted generation; the three rejected
        // generations cost nothing.
        assert_eq!(result.evaluations, 8 + 8);
        assert_eq!(filter.observed, 16);
    }

    #[test]
    fn memetic_minimises_rosenbrock_faster_than_pure_de() {
        let make_problem = || {
            FnProblem::new(4, vec![(-2.0, 2.0); 4], |x: &[f64]| {
                let mut s = 0.0;
                for i in 0..3 {
                    let a = 1.0 - x[i];
                    let b = x[i + 1] - x[i] * x[i];
                    s += a * a + 100.0 * b * b;
                }
                Evaluation::feasible(s)
            })
        };
        let budget = 60;
        let mut de_best = Vec::new();
        let mut mem_best = Vec::new();
        for seed in 0..3u64 {
            let de = crate::de::DifferentialEvolution::new(DeConfig {
                population_size: 30,
                max_generations: budget,
                stagnation_limit: None,
                ..DeConfig::default()
            });
            let mut p = make_problem();
            de_best.push(
                de.run(&mut p, &mut StdRng::seed_from_u64(seed))
                    .best_objective(),
            );

            let memetic = MemeticOptimizer::new(MemeticConfig {
                de: DeConfig {
                    population_size: 30,
                    max_generations: budget,
                    stagnation_limit: None,
                    ..DeConfig::default()
                },
                nm: NelderMeadConfig::memetic_default(),
                stagnation_trigger: 5,
            });
            let mut p2 = make_problem();
            mem_best.push(
                memetic
                    .run(&mut p2, &mut StdRng::seed_from_u64(seed))
                    .best_objective(),
            );
        }
        let avg = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
        // The memetic variant should not be worse on average.
        assert!(
            avg(&mem_best) <= avg(&de_best) * 1.5,
            "memetic {mem_best:?} vs de {de_best:?}"
        );
    }

    #[test]
    fn memetic_handles_constraints() {
        let mut problem = FnProblem::new(2, vec![(0.0, 10.0); 2], |x: &[f64]| {
            let violation = (1.0 - x[0] * x[1]).max(0.0);
            if violation > 0.0 {
                Evaluation::new(x[0] + x[1], violation)
            } else {
                Evaluation::feasible(x[0] + x[1])
            }
        });
        let optimizer = MemeticOptimizer::new(MemeticConfig {
            de: DeConfig {
                population_size: 25,
                max_generations: 150,
                stagnation_limit: None,
                ..DeConfig::default()
            },
            ..MemeticConfig::default()
        });
        let result = optimizer.run(&mut problem, &mut StdRng::seed_from_u64(3));
        assert!(result.is_feasible());
        assert!((result.best_objective() - 2.0).abs() < 0.1);
    }

    #[test]
    fn memetic_stops_on_target() {
        let mut problem = FnProblem::new(3, vec![(-5.0, 5.0); 3], |x: &[f64]| {
            Evaluation::feasible(x.iter().map(|v| v * v).sum())
        });
        let optimizer = MemeticOptimizer::new(MemeticConfig {
            de: DeConfig {
                population_size: 20,
                max_generations: 300,
                target_objective: Some(1e-3),
                stagnation_limit: None,
                ..DeConfig::default()
            },
            ..MemeticConfig::default()
        });
        let result = optimizer.run(&mut problem, &mut StdRng::seed_from_u64(4));
        assert!(result.best_objective() <= 1e-3);
        assert!(result.generations < 300);
    }

    #[test]
    #[should_panic]
    fn zero_trigger_is_rejected() {
        let _ = MemeticOptimizer::new(MemeticConfig {
            stagnation_trigger: 0,
            ..MemeticConfig::default()
        });
    }
}
