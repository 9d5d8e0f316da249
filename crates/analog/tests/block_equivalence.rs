//! Differential suite: `Testbench::evaluate_block` must be bit-identical to
//! the scalar `evaluate` loop for both benchmark circuits — including failure
//! samples — because the engine cache, the estimators and the committed yield
//! baselines all assume the two paths are interchangeable.

use moheco_analog::{AmplifierPerformance, FoldedCascode, TelescopicTwoStage, Testbench};
use moheco_process::ProcessSampler;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn assert_bit_equal(a: &AmplifierPerformance, b: &AmplifierPerformance, ctx: &str) {
    let pairs = [
        ("a0_db", a.a0_db, b.a0_db),
        ("gbw_hz", a.gbw_hz, b.gbw_hz),
        ("pm_deg", a.pm_deg, b.pm_deg),
        ("output_swing_v", a.output_swing_v, b.output_swing_v),
        ("power_w", a.power_w, b.power_w),
        ("area_um2", a.area_um2, b.area_um2),
        ("offset_v", a.offset_v, b.offset_v),
    ];
    for (name, va, vb) in pairs {
        assert_eq!(
            va.to_bits(),
            vb.to_bits(),
            "{ctx}: field {name} diverged: {va} vs {vb}"
        );
    }
    assert_eq!(a.all_saturated, b.all_saturated, "{ctx}: all_saturated");
}

fn check_testbench(tb: &dyn Testbench, designs: &[Vec<f64>], seed: u64, block: usize) {
    let sampler = ProcessSampler::new(tb.technology().clone(), tb.num_devices());
    let mut rng = StdRng::seed_from_u64(seed);
    for (di, x) in designs.iter().enumerate() {
        let xis: Vec<_> = (0..block).map(|_| sampler.sample(&mut rng)).collect();
        let batched = tb.evaluate_block(x, &xis);
        assert_eq!(batched.len(), xis.len());
        for (i, (xi, got)) in xis.iter().zip(&batched).enumerate() {
            let want = tb.evaluate(x, xi);
            assert_bit_equal(got, &want, &format!("{} design {di} sample {i}", tb.name()));
        }
    }
}

#[test]
fn folded_cascode_block_matches_scalar_loop() {
    let tb = FoldedCascode::new();
    let reference = tb.reference_design();
    // A starved design exercises bias-solution failures inside the block.
    let mut starved = reference.clone();
    starved[8] = 50.0;
    let mut hot = reference.clone();
    hot[8] = 500.0;
    check_testbench(&tb, &[reference, starved, hot], 2024, 40);
}

#[test]
fn telescopic_block_matches_scalar_loop() {
    let tb = TelescopicTwoStage::new();
    let reference = tb.reference_design();
    let mins: Vec<f64> = tb.design_variables().iter().map(|v| v.lo).collect();
    let mut small_cc = reference.clone();
    small_cc[11] = 0.2;
    check_testbench(&tb, &[reference, mins, small_cc], 7, 40);
}

#[test]
fn harsh_corner_block_matches_scalar_loop() {
    // Corner technologies scale the statistical spreads, producing more
    // failure samples; the block path must track every one of them.
    let tb = FoldedCascode::with_corner(2.5);
    let x = tb.reference_design();
    check_testbench(&tb, &[x], 99, 60);
}

/// FNV-1a-style fold of one performance into a running 64-bit digest.
fn fold_performance(h: u64, p: &AmplifierPerformance, passed: bool) -> u64 {
    let words = [
        p.a0_db.to_bits(),
        p.gbw_hz.to_bits(),
        p.pm_deg.to_bits(),
        p.output_swing_v.to_bits(),
        p.power_w.to_bits(),
        p.area_um2.to_bits(),
        p.offset_v.to_bits(),
        u64::from(p.all_saturated),
        u64::from(passed),
    ];
    words
        .iter()
        .fold(h, |h, &w| (h ^ w).wrapping_mul(0x0100_0000_01b3))
}

/// Digest of `evaluate` and `evaluate_block` over `designs`, each against
/// its own block of `block` process samples. Returns the digest and the
/// number of failed samples seen.
fn digest_testbench(
    tb: &dyn Testbench,
    designs: &[Vec<f64>],
    seed: u64,
    block: usize,
) -> (u64, usize) {
    let sampler = ProcessSampler::new(tb.technology().clone(), tb.num_devices());
    let mut rng = StdRng::seed_from_u64(seed);
    let failed = AmplifierPerformance::failed();
    let mut h = 0xcbf2_9ce4_8422_2325_u64;
    let mut failures = 0;
    for x in designs {
        let xis: Vec<_> = (0..block).map(|_| sampler.sample(&mut rng)).collect();
        for (xi, got) in xis.iter().zip(tb.evaluate_block(x, &xis)) {
            let want = tb.evaluate(x, xi);
            h = fold_performance(h, &want, tb.specs().all_met(&want));
            h = fold_performance(h, &got, tb.specs().all_met(&got));
            failures += usize::from(want.power_w == failed.power_w);
        }
    }
    (h, failures)
}

/// `n` designs drawn uniformly over the whole design box, then `extra`.
fn box_designs(tb: &dyn Testbench, n: usize, seed: u64, extra: &[Vec<f64>]) -> Vec<Vec<f64>> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut designs: Vec<Vec<f64>> = (0..n)
        .map(|_| {
            tb.bounds()
                .iter()
                .map(|&(lo, hi)| lo + (hi - lo) * rng.gen::<f64>())
                .collect()
        })
        .collect();
    designs.extend_from_slice(extra);
    designs
}

/// Copies of `base` with variable `i` replaced by each of `values`.
fn with_values(base: &[f64], i: usize, values: &[f64]) -> Vec<Vec<f64>> {
    values
        .iter()
        .map(|&v| {
            let mut x = base.to_vec();
            x[i] = v;
            x
        })
        .collect()
}

#[test]
fn golden_digest_over_the_design_box_is_pinned() {
    // Pins the exact bits both evaluation paths produce, so a change that
    // alters `evaluate` and `evaluate_block` alike (both share `prepare` and
    // its bias solve) cannot slip past the pairwise checks above. Besides
    // random whole-box designs, the grid holds explicit designs whose bias
    // solve fails (non-positive, unreachable and infinite branch currents),
    // plus a NaN current that the solve accepts.
    let unsolvable = [0.0, -10.0, 1e9, f64::INFINITY];
    let fc = FoldedCascode::new();
    let mut fc_extra = with_values(&fc.reference_design(), 8, &unsolvable);
    fc_extra.extend(with_values(&fc.reference_design(), 8, &[f64::NAN]));
    let tel = TelescopicTwoStage::new();
    let mut tel_extra = with_values(&tel.reference_design(), 9, &unsolvable);
    // The second-stage current is clamped to at least 1 nA, so only
    // unreachable targets make its bias solve fail.
    tel_extra.extend(with_values(
        &tel.reference_design(),
        10,
        &[1e9, f64::INFINITY],
    ));
    tel_extra.extend(with_values(&tel.reference_design(), 10, &[0.0, f64::NAN]));
    let harsh = FoldedCascode::with_corner(2.5);

    let (d_fc, f_fc) = digest_testbench(&fc, &box_designs(&fc, 30, 11, &fc_extra), 101, 8);
    let (d_tel, f_tel) = digest_testbench(&tel, &box_designs(&tel, 30, 12, &tel_extra), 102, 8);
    let (d_harsh, f_harsh) = digest_testbench(
        &harsh,
        &box_designs(&harsh, 12, 13, &[harsh.reference_design()]),
        103,
        16,
    );
    println!(
        "digests {d_fc:#018x} {d_tel:#018x} {d_harsh:#018x}; failures {f_fc} {f_tel} {f_harsh}"
    );
    assert!(
        f_fc >= 8 * 4 && f_tel >= 8 * 6,
        "the unsolvable-bias designs must fail: {f_fc} {f_tel}"
    );
    assert_eq!(d_fc, 0xc194_2ae0_6ec9_5697, "folded cascode digest");
    assert_eq!(d_tel, 0x2735_c404_ba56_09b3, "telescopic digest");
    assert_eq!(d_harsh, 0x044c_3c06_2443_f93f, "harsh-corner digest");
}
