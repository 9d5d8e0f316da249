//! A real-coded genetic algorithm baseline.
//!
//! The paper compares its DE-based engine against a genetic algorithm on the
//! nominal sizing of example 2 (where the GA fails to meet the severe
//! specifications within the generation budget). This module provides the
//! baseline: tournament selection under Deb's feasibility rules, BLX-α
//! crossover, Gaussian mutation and single-member elitism.

use crate::constraints::feasibility_compare;
use crate::filter::{AdmitAll, TrialFilter};
use crate::population::{Individual, Population};
use crate::problem::{clamp_to_bounds, Problem};
use crate::result::OptimizationResult;
use moheco_obs::{Span, Tracer};
use rand::Rng;
use std::cmp::Ordering;

/// Configuration of the genetic-algorithm baseline.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GaConfig {
    /// Population size.
    pub population_size: usize,
    /// Crossover probability.
    pub crossover_rate: f64,
    /// BLX-α blending parameter.
    pub blx_alpha: f64,
    /// Per-gene mutation probability.
    pub mutation_rate: f64,
    /// Mutation standard deviation as a fraction of the variable range.
    pub mutation_sigma: f64,
    /// Tournament size.
    pub tournament_size: usize,
    /// Maximum number of generations.
    pub max_generations: usize,
    /// Stop when the best objective has not improved for this many generations.
    pub stagnation_limit: Option<usize>,
    /// Stop as soon as a feasible objective at or below this value is found.
    pub target_objective: Option<f64>,
}

impl Default for GaConfig {
    fn default() -> Self {
        Self {
            population_size: 50,
            crossover_rate: 0.9,
            blx_alpha: 0.3,
            mutation_rate: 0.1,
            mutation_sigma: 0.1,
            tournament_size: 2,
            max_generations: 200,
            stagnation_limit: Some(20),
            target_objective: None,
        }
    }
}

/// The genetic-algorithm optimizer.
#[derive(Debug, Clone)]
pub struct GeneticAlgorithm {
    config: GaConfig,
}

impl GeneticAlgorithm {
    /// Creates a GA with the given configuration.
    ///
    /// # Panics
    ///
    /// Panics if the population size is below 4 or probabilities are out of range.
    pub fn new(config: GaConfig) -> Self {
        assert!(config.population_size >= 4, "population must be >= 4");
        assert!((0.0..=1.0).contains(&config.crossover_rate));
        assert!((0.0..=1.0).contains(&config.mutation_rate));
        assert!(config.tournament_size >= 1);
        Self { config }
    }

    fn tournament<'a, R: Rng + ?Sized>(
        &self,
        population: &'a Population,
        rng: &mut R,
    ) -> &'a Individual {
        let n = population.len();
        let mut best = &population.members[rng.gen_range(0..n)];
        for _ in 1..self.config.tournament_size {
            let challenger = &population.members[rng.gen_range(0..n)];
            if feasibility_compare(&challenger.eval, &best.eval) == Ordering::Less {
                best = challenger;
            }
        }
        best
    }

    fn blx_crossover<R: Rng + ?Sized>(
        &self,
        a: &[f64],
        b: &[f64],
        bounds: &[(f64, f64)],
        rng: &mut R,
    ) -> Vec<f64> {
        let alpha = self.config.blx_alpha;
        let mut child: Vec<f64> = a
            .iter()
            .zip(b)
            .map(|(&x, &y)| {
                let lo = x.min(y);
                let hi = x.max(y);
                let range = (hi - lo).max(1e-15);
                let lower = lo - alpha * range;
                let upper = hi + alpha * range;
                lower + (upper - lower) * rng.gen::<f64>()
            })
            .collect();
        clamp_to_bounds(&mut child, bounds);
        child
    }

    fn mutate<R: Rng + ?Sized>(&self, x: &mut [f64], bounds: &[(f64, f64)], rng: &mut R) {
        for (xi, &(lo, hi)) in x.iter_mut().zip(bounds) {
            if rng.gen::<f64>() < self.config.mutation_rate {
                let span = hi - lo;
                // Box-Muller normal draw.
                let u1: f64 = rng.gen::<f64>().max(f64::MIN_POSITIVE);
                let u2: f64 = rng.gen();
                let z = (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos();
                *xi += z * self.config.mutation_sigma * span;
            }
        }
        clamp_to_bounds(x, bounds);
    }

    /// Runs the GA on `problem`.
    pub fn run<P: Problem + ?Sized, R: Rng + ?Sized>(
        &self,
        problem: &mut P,
        rng: &mut R,
    ) -> OptimizationResult {
        self.run_traced_filtered(problem, &mut AdmitAll, &Tracer::disabled(), rng)
    }

    /// Runs the GA on `problem` under a [`TrialFilter`] and an observability
    /// [`Tracer`].
    ///
    /// The filter gates each generation's brood: rejected children are
    /// discarded unevaluated and their first parent inherits the population
    /// slot. Under [`AdmitAll`] the run is bit-identical to [`Self::run`] (the
    /// filter never touches the RNG stream).
    ///
    /// The whole run becomes a `"ga"` span with one `"generation"` child span
    /// per generation. With [`Tracer::disabled`] (what [`Self::run`] passes)
    /// the spans are inert.
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
        let _run_span = Span::enter(tracer, "ga");
        let bounds = problem.bounds();
        let mut population = Population::random(problem, self.config.population_size, rng);
        for m in &population.members {
            filter.observe(&m.x, &m.eval);
        }
        let mut evaluations = population.len();
        let mut best_so_far = population.best().cloned().expect("non-empty population");
        let mut history = Vec::new();
        let mut stagnation = 0usize;
        let mut generations = 0usize;

        for gen in 0..self.config.max_generations {
            let _gen_span = Span::enter(tracer, "generation");
            generations += 1;
            // Offspring derive from the previous population only, so the
            // whole brood is generated first and evaluated as one batch.
            let mut children = Vec::with_capacity(population.len().saturating_sub(1));
            let mut parents = Vec::with_capacity(population.len().saturating_sub(1));
            while children.len() + 1 < population.len() {
                let p1 = self.tournament(&population, rng).clone();
                let p2 = self.tournament(&population, rng).clone();
                let mut child_x = if rng.gen::<f64>() < self.config.crossover_rate {
                    self.blx_crossover(&p1.x, &p2.x, &bounds, rng)
                } else {
                    p1.x.clone()
                };
                self.mutate(&mut child_x, &bounds, rng);
                children.push(child_x);
                parents.push(p1);
            }
            let admits = filter.admit(gen, &children);
            debug_assert_eq!(admits.len(), children.len(), "one verdict per child");
            // Fast path when nothing was rejected (always the case under
            // [`AdmitAll`]): evaluate the brood in place, no copies.
            let selected_evals = if admits.iter().all(|&keep| keep) {
                problem.evaluate_batch(&children)
            } else {
                let selected: Vec<Vec<f64>> = children
                    .iter()
                    .zip(&admits)
                    .filter(|(_, &keep)| keep)
                    .map(|(c, _)| c.clone())
                    .collect();
                problem.evaluate_batch(&selected)
            };
            evaluations += selected_evals.len();
            // Elitism: keep the best member; rejected children fall back to
            // their (already evaluated) first parent.
            let mut next = Vec::with_capacity(population.len());
            next.push(best_so_far.clone());
            let mut eval_iter = selected_evals.into_iter();
            for ((x, keep), parent) in children.into_iter().zip(admits).zip(parents) {
                if keep {
                    let eval = eval_iter.next().expect("one evaluation per admitted child");
                    filter.observe(&x, &eval);
                    next.push(Individual::new(x, eval));
                } else {
                    next.push(parent);
                }
            }
            population = next.into_iter().collect();

            let gen_best = population.best().cloned().expect("non-empty population");
            if feasibility_compare(&gen_best.eval, &best_so_far.eval) == Ordering::Less {
                best_so_far = gen_best;
                stagnation = 0;
            } else {
                stagnation += 1;
            }
            history.push(best_so_far.eval.objective);

            if let Some(target) = self.config.target_objective {
                if best_so_far.eval.is_feasible() && best_so_far.eval.objective <= target {
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
    fn ga_minimises_sphere() {
        let mut problem = FnProblem::new(4, vec![(-5.0, 5.0); 4], |x: &[f64]| {
            Evaluation::feasible(x.iter().map(|v| v * v).sum())
        });
        let ga = GeneticAlgorithm::new(GaConfig {
            population_size: 40,
            max_generations: 200,
            stagnation_limit: None,
            ..GaConfig::default()
        });
        let result = ga.run(&mut problem, &mut StdRng::seed_from_u64(21));
        assert!(
            result.best_objective() < 0.1,
            "best {}",
            result.best_objective()
        );
    }

    #[test]
    fn ga_handles_constraints() {
        let mut problem = FnProblem::new(2, vec![(0.0, 10.0); 2], |x: &[f64]| {
            let violation = (1.0 - x[0] * x[1]).max(0.0);
            if violation > 0.0 {
                Evaluation::new(x[0] + x[1], violation)
            } else {
                Evaluation::feasible(x[0] + x[1])
            }
        });
        let ga = GeneticAlgorithm::new(GaConfig {
            population_size: 40,
            max_generations: 200,
            stagnation_limit: None,
            ..GaConfig::default()
        });
        let result = ga.run(&mut problem, &mut StdRng::seed_from_u64(22));
        assert!(result.is_feasible());
        assert!(result.best_objective() < 3.0);
    }

    #[test]
    fn elitism_makes_history_monotone() {
        let mut problem = FnProblem::new(3, vec![(-5.0, 5.0); 3], |x: &[f64]| {
            Evaluation::feasible(x.iter().map(|v| v * v).sum())
        });
        let ga = GeneticAlgorithm::new(GaConfig::default());
        let result = ga.run(&mut problem, &mut StdRng::seed_from_u64(23));
        for w in result.history.windows(2) {
            assert!(w[1] <= w[0] + 1e-12);
        }
    }

    #[test]
    fn target_objective_stops_ga_early() {
        let mut problem = FnProblem::new(2, vec![(-5.0, 5.0); 2], |x: &[f64]| {
            Evaluation::feasible(x.iter().map(|v| v * v).sum())
        });
        let ga = GeneticAlgorithm::new(GaConfig {
            target_objective: Some(1.0),
            max_generations: 500,
            stagnation_limit: None,
            ..GaConfig::default()
        });
        let result = ga.run(&mut problem, &mut StdRng::seed_from_u64(24));
        assert!(result.best_objective() <= 1.0);
        assert!(result.generations < 500);
    }

    #[test]
    #[should_panic]
    fn invalid_config_is_rejected() {
        let _ = GeneticAlgorithm::new(GaConfig {
            population_size: 2,
            ..GaConfig::default()
        });
    }
}
