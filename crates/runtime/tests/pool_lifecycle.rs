//! The worker pool starts lazily: a process that only runs the serial engine
//! (or parallel batches small enough to stay inline) starts no thread.
//!
//! This file holds a single test on purpose — the pool is process-wide, so
//! any other test in the same binary could start it first.

use moheco_runtime::SimulationModel;
use moheco_runtime::{pool, EngineConfig, EvalEngine, McRequest, ParallelEngine, SerialEngine};
use std::time::{Duration, Instant};

/// Passes when `u[0] < x[0]`, after spinning for `spin` per sample.
struct Threshold {
    spin: Duration,
}

impl SimulationModel for Threshold {
    fn unit_dimension(&self) -> usize {
        2
    }

    fn simulate_point(&self, x: &[f64], u: &[f64]) -> f64 {
        let until = Instant::now() + self.spin;
        while Instant::now() < until {
            std::hint::spin_loop();
        }
        f64::from(u8::from(u[0] < x[0]))
    }

    fn nominal(&self, x: &[f64]) -> Vec<f64> {
        x.to_vec()
    }
}

/// OS threads of this process (Linux); `None` elsewhere.
fn os_threads() -> Option<usize> {
    std::fs::read_dir("/proc/self/task").ok().map(|d| d.count())
}

fn requests(designs: usize) -> Vec<McRequest> {
    (0..designs)
        .map(|i| McRequest::new(vec![0.1 * i as f64, 0.5], 0, 200))
        .collect()
}

#[test]
fn only_a_batch_past_the_inline_cutoff_starts_the_pool() {
    let threads_before = os_threads();
    let slow = Threshold {
        spin: Duration::from_micros(2),
    };

    // Serial runs, heavy or not, never start the pool.
    let serial = SerialEngine::new(EngineConfig::default());
    serial.mc_outcomes(&slow, &requests(8));
    serial.nominal_batch(&slow, &[vec![0.5, 0.5], vec![0.2, 0.1]]);
    // Single-task parallel batches, and a batch of cheap tasks (cache hits
    // on what they simulated), finish inline.
    let parallel = ParallelEngine::new(EngineConfig::default().with_workers(4));
    let blocks: Vec<McRequest> = (0..2)
        .map(|i| McRequest::new(vec![0.1 * i as f64, 0.5], 0, 50))
        .collect();
    for block in &blocks {
        parallel.mc_outcomes(&slow, std::slice::from_ref(block));
    }
    parallel.mc_outcomes(&slow, &blocks);
    assert_eq!(parallel.stats().cache_hits, 100);
    assert_eq!(pool::helper_threads(), 0, "no batch needed the pool");
    assert_eq!(os_threads(), threads_before, "no thread was started");

    // A heavy parallel batch starts it, once, at its full size.
    parallel.mc_outcomes(&slow, &requests(8));
    let helpers = pool::default_workers() - 1;
    assert_eq!(pool::helper_threads(), helpers);
    parallel.mc_outcomes(&slow, &requests(16));
    assert_eq!(pool::helper_threads(), helpers);
    assert_eq!(
        os_threads(),
        threads_before.map(|n| n + helpers),
        "the pool's helpers are its only threads"
    );
}
