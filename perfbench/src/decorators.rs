//! Forwarding decorators that time calls into the engine and model layers
//! from outside the program. Each forwards every trait method — including
//! the defaulted ones — to the wrapped object, so batched fast paths,
//! importance shifts and closed-form truths stay in use and results stay
//! bit-identical.

use moheco::Benchmark;
use moheco_runtime::{
    EngineConfig, EngineStatsSnapshot, EngineTiming, EvalEngine, McRequest, SimulationModel,
};
use moheco_sampling::{EstimatedYield, SimulationCounter};
use moheco_scenarios::Scenario;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

fn nanos_since(start: Instant) -> u64 {
    u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// What the engine decorator saw. Counters are statistics only, so
/// `Relaxed` suffices.
#[derive(Default)]
pub struct EngineProbe {
    pub mc_batches: AtomicU64,
    pub mc_busy_nanos: AtomicU64,
    pub nominal_busy_nanos: AtomicU64,
    /// Requested samples per Monte-Carlo batch.
    pub batch_samples: Mutex<Vec<u64>>,
}

impl EngineProbe {
    pub fn ms(counter: &AtomicU64) -> f64 {
        counter.load(Ordering::Relaxed) as f64 / 1e6
    }
}

/// An [`EvalEngine`] that times `mc_outcomes` and `nominal_batch`.
pub struct TracedEngine {
    inner: Arc<dyn EvalEngine>,
    probe: Arc<EngineProbe>,
}

impl TracedEngine {
    pub fn new(inner: Arc<dyn EvalEngine>, probe: Arc<EngineProbe>) -> Self {
        Self { inner, probe }
    }
}

impl EvalEngine for TracedEngine {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn config(&self) -> &EngineConfig {
        self.inner.config()
    }

    fn mc_outcomes(&self, model: &dyn SimulationModel, requests: &[McRequest]) -> Vec<Vec<f64>> {
        let start = Instant::now();
        let out = self.inner.mc_outcomes(model, requests);
        self.probe
            .mc_busy_nanos
            .fetch_add(nanos_since(start), Ordering::Relaxed);
        self.probe.mc_batches.fetch_add(1, Ordering::Relaxed);
        let samples = requests.iter().map(|r| r.count as u64).sum();
        self.probe
            .batch_samples
            .lock()
            .expect("probe lock poisoned by a panicking cell")
            .push(samples);
        out
    }

    fn estimate(&self, outcomes: &[f64]) -> EstimatedYield {
        self.inner.estimate(outcomes)
    }

    fn nominal_batch(&self, model: &dyn SimulationModel, designs: &[Vec<f64>]) -> Vec<Vec<f64>> {
        let start = Instant::now();
        let out = self.inner.nominal_batch(model, designs);
        self.probe
            .nominal_busy_nanos
            .fetch_add(nanos_since(start), Ordering::Relaxed);
        out
    }

    fn stats(&self) -> EngineStatsSnapshot {
        self.inner.stats()
    }

    fn timing(&self) -> EngineTiming {
        self.inner.timing()
    }

    fn simulations(&self) -> u64 {
        self.inner.simulations()
    }

    fn counter(&self) -> SimulationCounter {
        self.inner.counter()
    }

    fn reset(&self) {
        self.inner.reset()
    }

    fn reset_counters(&self) {
        self.inner.reset_counters()
    }

    fn reseed(&self, seed: u64) {
        self.inner.reseed(seed)
    }

    fn active_seed(&self) -> u64 {
        self.inner.active_seed()
    }

    fn cache_blocks(&self) -> usize {
        self.inner.cache_blocks()
    }

    fn cache_bytes(&self) -> usize {
        self.inner.cache_bytes()
    }

    fn enforce_cache_limit(&self, max_blocks: usize) -> u64 {
        self.inner.enforce_cache_limit(max_blocks)
    }

    fn mc_single(
        &self,
        model: &dyn SimulationModel,
        x: &[f64],
        start: usize,
        count: usize,
    ) -> Vec<f64> {
        let started = Instant::now();
        let out = self.inner.mc_single(model, x, start, count);
        self.probe
            .mc_busy_nanos
            .fetch_add(nanos_since(started), Ordering::Relaxed);
        self.probe.mc_batches.fetch_add(1, Ordering::Relaxed);
        self.probe
            .batch_samples
            .lock()
            .expect("probe lock poisoned by a panicking cell")
            .push(count as u64);
        out
    }

    fn nominal_single(&self, model: &dyn SimulationModel, x: &[f64]) -> Vec<f64> {
        let start = Instant::now();
        let out = self.inner.nominal_single(model, x);
        self.probe
            .nominal_busy_nanos
            .fetch_add(nanos_since(start), Ordering::Relaxed);
        out
    }
}

/// One captured model input: a design and the unit points of one block,
/// with the outcomes the model returned for them.
#[derive(Clone)]
pub struct CapturedBlock {
    pub design: Vec<f64>,
    pub points: Vec<Vec<f64>>,
    pub outcomes: Vec<f64>,
}

/// What the model decorator saw.
#[derive(Default)]
pub struct ModelProbe {
    pub block_calls: AtomicU64,
    pub nominal_calls: AtomicU64,
    /// Samples simulated through `simulate_block` and `simulate_point`.
    pub samples: AtomicU64,
    pub busy_nanos: AtomicU64,
    /// The first `capture_limit` blocks per scenario name.
    pub captured: Mutex<Vec<(String, CapturedBlock)>>,
}

impl ModelProbe {
    /// Simulations the model executed: Monte-Carlo samples plus nominal
    /// evaluations, the same unit as the engine's simulation counter.
    pub fn simulations(&self) -> u64 {
        self.samples.load(Ordering::Relaxed) + self.nominal_calls.load(Ordering::Relaxed)
    }
}

/// A [`Benchmark`] that times and counts every simulation entry point and
/// captures a bounded number of `(design, block)` inputs.
pub struct TracedBench {
    inner: Arc<dyn Benchmark>,
    probe: Arc<ModelProbe>,
    /// Scenario name the captured blocks are filed under.
    label: String,
    capture_limit: usize,
}

impl TracedBench {
    fn record(&self, start: Instant, samples: u64) {
        self.probe
            .busy_nanos
            .fetch_add(nanos_since(start), Ordering::Relaxed);
        self.probe.samples.fetch_add(samples, Ordering::Relaxed);
    }
}

impl SimulationModel for TracedBench {
    fn unit_dimension(&self) -> usize {
        self.inner.unit_dimension()
    }

    fn simulate_point(&self, x: &[f64], u: &[f64]) -> f64 {
        let start = Instant::now();
        let out = self.inner.simulate_point(x, u);
        self.record(start, 1);
        out
    }

    fn simulate_block(&self, x: &[f64], us: &[Vec<f64>], out: &mut [f64]) {
        let start = Instant::now();
        self.inner.simulate_block(x, us, out);
        self.record(start, us.len() as u64);
        self.probe.block_calls.fetch_add(1, Ordering::Relaxed);
        if self.capture_limit > 0 {
            let mut captured = self
                .probe
                .captured
                .lock()
                .expect("capture lock poisoned by a panicking cell");
            if captured.iter().filter(|(n, _)| *n == self.label).count() < self.capture_limit {
                captured.push((
                    self.label.clone(),
                    CapturedBlock {
                        design: x.to_vec(),
                        points: us.to_vec(),
                        outcomes: out.to_vec(),
                    },
                ));
            }
        }
    }

    fn nominal(&self, x: &[f64]) -> Vec<f64> {
        let start = Instant::now();
        let out = self.inner.nominal(x);
        self.probe
            .busy_nanos
            .fetch_add(nanos_since(start), Ordering::Relaxed);
        self.probe.nominal_calls.fetch_add(1, Ordering::Relaxed);
        out
    }

    fn importance_shift(&self, x: &[f64]) -> Option<Vec<f64>> {
        self.inner.importance_shift(x)
    }
}

impl Benchmark for TracedBench {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn dimension(&self) -> usize {
        self.inner.dimension()
    }

    fn bounds(&self) -> Vec<(f64, f64)> {
        self.inner.bounds()
    }

    fn reference_design(&self) -> Vec<f64> {
        self.inner.reference_design()
    }

    fn true_yield(&self, x: &[f64]) -> Option<f64> {
        self.inner.true_yield(x)
    }

    fn as_model(&self) -> &dyn SimulationModel {
        self
    }
}

/// A [`Scenario`] whose benchmark is a [`TracedBench`].
pub struct TracedScenario {
    inner: Arc<dyn Scenario>,
    bench: Arc<TracedBench>,
}

impl TracedScenario {
    pub fn new(inner: Arc<dyn Scenario>, probe: Arc<ModelProbe>, capture_limit: usize) -> Self {
        let bench = Arc::new(TracedBench {
            inner: inner.bench(),
            probe,
            label: inner.name().to_string(),
            capture_limit,
        });
        Self { inner, bench }
    }
}

impl Scenario for TracedScenario {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn description(&self) -> &str {
        self.inner.description()
    }

    fn spec_names(&self) -> Vec<String> {
        self.inner.spec_names()
    }

    fn bench(&self) -> Arc<dyn Benchmark> {
        self.bench.clone()
    }

    fn dimension(&self) -> usize {
        self.inner.dimension()
    }

    fn statistical_dimension(&self) -> usize {
        self.inner.statistical_dimension()
    }

    fn has_true_yield(&self) -> bool {
        self.inner.has_true_yield()
    }

    fn warm_start(&self) -> Vec<Vec<f64>> {
        self.inner.warm_start()
    }

    fn build(&self, engine: Arc<dyn EvalEngine>) -> moheco::YieldProblem<dyn Benchmark> {
        // The wrapped scenario's `build` would wire its own, untraced
        // benchmark; build the same problem over the traced one.
        moheco::YieldProblem::from_bench(self.bench(), engine)
    }
}
