//! The layer replay pass: captured `(design, block)` model inputs are
//! re-run through each circuit layer's public function and timed there,
//! and the spicelite sweep kernels are timed on a fixed half circuit.
//! `prepare` (bias point and netlist) is private, so it stays fused inside
//! `Testbench::evaluate_block`.

use crate::decorators::CapturedBlock;
use crate::util::median;
use moheco_analog::{FoldedCascode, TelescopicTwoStage, Testbench};
use moheco_process::ProcessSampler;
use moheco_runtime::EngineConfig;
use moheco_sampling::SamplingPlan;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::hint::black_box;
use std::time::Instant;

/// Timed passes over the captured inputs; the median pass is reported.
const PASSES: usize = 5;

/// Per-sample layer costs over every captured block.
#[derive(Default)]
pub struct CircuitReplay {
    pub samples: usize,
    pub generate_block_ns: f64,
    pub from_unit_point_ns: f64,
    pub evaluate_block_ns: f64,
    pub specs_ns: f64,
    pub failed_ratio: f64,
}

/// Accumulates nanosecond totals per layer across testbenches.
#[derive(Default)]
struct Totals {
    samples: usize,
    failed: usize,
    generate: f64,
    from_unit: f64,
    evaluate: f64,
    specs: f64,
}

fn median_pass(mut pass: impl FnMut() -> f64) -> f64 {
    median(&(0..PASSES).map(|_| pass()).collect::<Vec<_>>())
}

fn replay_testbench<T: Testbench>(
    testbench: &T,
    blocks: &[&CapturedBlock],
    totals: &mut Totals,
) -> Result<(), String> {
    let sampler = ProcessSampler::new(testbench.technology().clone(), testbench.num_devices());
    let config = EngineConfig::default();
    let estimator = config.estimator.build(config.block_size);
    let dim = sampler.dimension();
    let samples: usize = blocks.iter().map(|b| b.points.len()).sum();

    totals.generate += median_pass(|| {
        let start = Instant::now();
        for i in 0..blocks.len() {
            let mut rng = StdRng::seed_from_u64(i as u64);
            black_box(estimator.generate_block(
                &mut rng,
                config.block_size,
                dim,
                SamplingPlan::LatinHypercube,
                None,
            ));
        }
        start.elapsed().as_nanos() as f64 * samples as f64
            / (blocks.len() * config.block_size) as f64
    });

    let xis: Vec<Vec<_>> = blocks
        .iter()
        .map(|b| {
            b.points
                .iter()
                .map(|u| sampler.from_unit_point(u))
                .collect()
        })
        .collect();
    totals.from_unit += median_pass(|| {
        let start = Instant::now();
        for block in blocks {
            for u in &block.points {
                black_box(sampler.from_unit_point(black_box(u)));
            }
        }
        start.elapsed().as_nanos() as f64
    });

    let perfs: Vec<_> = blocks
        .iter()
        .zip(&xis)
        .map(|(b, xi)| testbench.evaluate_block(&b.design, xi))
        .collect();
    totals.evaluate += median_pass(|| {
        let start = Instant::now();
        for (block, xi) in blocks.iter().zip(&xis) {
            black_box(testbench.evaluate_block(black_box(&block.design), xi));
        }
        start.elapsed().as_nanos() as f64
    });

    totals.specs += median_pass(|| {
        let start = Instant::now();
        for perf in perfs.iter().flatten() {
            black_box(testbench.specs().all_met(black_box(perf)));
        }
        start.elapsed().as_nanos() as f64
    });

    // The replayed pass/fail outcomes must be the ones the model returned
    // inside the traced run.
    for (block, perf) in blocks.iter().zip(&perfs) {
        for (outcome, p) in block.outcomes.iter().zip(perf) {
            let replayed = if testbench.specs().all_met(p) {
                1.0
            } else {
                0.0
            };
            if replayed != *outcome {
                return Err(format!(
                    "{}: replayed outcome {replayed} differs from the traced run's {outcome}",
                    testbench.name()
                ));
            }
            if replayed == 0.0 {
                totals.failed += 1;
            }
        }
    }
    totals.samples += samples;
    Ok(())
}

/// Replays the captured blocks of the `folded_cascode` and `telescopic`
/// scenarios. Returns zeros when none were captured.
pub fn replay_circuits(captured: &[(String, CapturedBlock)]) -> Result<CircuitReplay, String> {
    let of = |name: &str| -> Vec<&CapturedBlock> {
        captured
            .iter()
            .filter(|(n, _)| n == name)
            .map(|(_, b)| b)
            .collect()
    };
    let mut totals = Totals::default();
    let folded = of("folded_cascode");
    if !folded.is_empty() {
        replay_testbench(&FoldedCascode::new(), &folded, &mut totals)?;
    }
    let telescopic = of("telescopic");
    if !telescopic.is_empty() {
        replay_testbench(&TelescopicTwoStage::new(), &telescopic, &mut totals)?;
    }
    if totals.samples == 0 {
        return Ok(CircuitReplay::default());
    }
    let n = totals.samples as f64;
    Ok(CircuitReplay {
        samples: totals.samples,
        generate_block_ns: totals.generate / n,
        from_unit_point_ns: totals.from_unit / n,
        evaluate_block_ns: totals.evaluate / n,
        specs_ns: totals.specs / n,
        failed_ratio: totals.failed as f64 / n,
    })
}

/// Times the scalar `ac::sweep` and the batched `FactorizedCircuit::sweep`
/// on the folded-cascode half circuit (four nodes plus the stimulus
/// branch, 50 frequencies), as `engine_throughput` stamps it. Returns
/// `(scalar_ns, factorized_ns)` per sweep; errors unless the two paths
/// agree bit for bit.
pub fn spicelite_sweeps() -> Result<(f64, f64), String> {
    use spicelite::ac::{log_space, sweep};
    use spicelite::{FactorizedCircuit, LinearCircuit};
    let mut ckt = LinearCircuit::new();
    let vin = ckt.node();
    let fold = ckt.node();
    let out = ckt.node();
    let casn = ckt.node();
    ckt.add_vsource(vin, 0, 1.0);
    ckt.add_mos_small_signal(
        fold, vin, 0, 0, 1.1e-3, 9e-6, 0.0, 9e-14, 1.1e-14, 2e-14, 2e-14,
    );
    ckt.add_conductance(fold, 0, 1.2e-5);
    ckt.add_capacitance(fold, 0, 3.4e-14);
    ckt.add_mos_small_signal(
        out, 0, fold, 0, 8e-4, 7e-6, 1.9e-4, 7e-14, 1e-14, 1.8e-14, 1.8e-14,
    );
    ckt.add_mos_small_signal(
        out, 0, casn, 0, 9e-4, 8e-6, 2.1e-4, 8e-14, 1e-14, 1.9e-14, 1.9e-14,
    );
    ckt.add_conductance(casn, 0, 1.4e-5);
    ckt.add_capacitance(casn, 0, 3.1e-14);
    ckt.add_capacitance(out, 0, 2e-12);
    let freqs = log_space(1e3, 3e10, 50);
    let sweeps = 400;

    let scalar_ref = sweep(&ckt, out, &freqs).map_err(|e| format!("scalar sweep: {e:?}"))?;
    let mut factorized = FactorizedCircuit::new(&ckt);
    let batched_ref = factorized
        .sweep(&ckt, out, &freqs)
        .map_err(|e| format!("factorized sweep: {e:?}"))?;
    let same = scalar_ref.values.len() == batched_ref.values.len()
        && scalar_ref
            .values
            .iter()
            .zip(&batched_ref.values)
            .all(|(a, b)| a.re.to_bits() == b.re.to_bits() && a.im.to_bits() == b.im.to_bits());
    if !same {
        return Err("factorized and scalar sweeps differ".into());
    }

    let scalar = median_pass(|| {
        let start = Instant::now();
        for _ in 0..sweeps {
            black_box(sweep(black_box(&ckt), out, &freqs).ok());
        }
        start.elapsed().as_nanos() as f64 / sweeps as f64
    });
    let batched = median_pass(|| {
        let start = Instant::now();
        for _ in 0..sweeps {
            black_box(factorized.sweep(black_box(&ckt), out, &freqs).ok());
        }
        start.elapsed().as_nanos() as f64 / sweeps as f64
    });
    Ok((scalar, batched))
}
