//! Generative differential suite for the batched AC path.
//!
//! [`FactorizedCircuit::sweep`] promises to be bit-for-bit identical to
//! [`spicelite::ac::sweep`] on any structurally matching circuit — including
//! which frequency fails first and with which pivot on singular systems. The
//! named-circuit tests inside `batch.rs` cover the benchmark amplifier
//! topologies; this suite generates random linear circuits from seeds so the
//! contract is exercised over arbitrary stamp patterns, element mixes, lane
//! tails (sweep lengths that are not a multiple of the SIMD width) and
//! factorization reuse across value-perturbed clones.
//!
//! The same holds for the lane-parallel bias solve: every lane of
//! [`vgs_for_currents`] must equal a scalar reference bisection bit for bit,
//! whatever the other lanes of its group do.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use spicelite::ac::{log_space, sweep};
use spicelite::mosfet::{vgs_for_currents, BiasRequest};
use spicelite::{
    model_035um, model_90nm, CMatrix, Complex, FactorizedCircuit, LinearCircuit, MosGeometry,
    MosType, Mosfet, NodeId, Region, SpiceError,
};

/// The elements of a generated circuit, recorded in insertion order so the
/// oracle test can re-stamp the MNA system without access to the netlist's
/// internals.
#[derive(Default)]
struct Spec {
    num_nodes: usize,
    conductances: Vec<(NodeId, NodeId, f64)>,
    capacitances: Vec<(NodeId, NodeId, f64)>,
    vccs: Vec<(NodeId, NodeId, NodeId, NodeId, f64)>,
    isources: Vec<(NodeId, NodeId, f64)>,
    vsources: Vec<(NodeId, NodeId, f64)>,
}

/// Builds a random linear circuit whose *topology* is decided by
/// `struct_seed` and whose element *values* are decided by `value_seed`.
/// Circuits sharing a `struct_seed` structurally match each other, so one
/// [`FactorizedCircuit`] plan serves all of them.
fn random_circuit(struct_seed: u64, value_seed: u64) -> (LinearCircuit, NodeId, Spec) {
    let mut st = StdRng::seed_from_u64(struct_seed);
    let mut vl = StdRng::seed_from_u64(value_seed);
    let mut ckt = LinearCircuit::new();
    let mut spec = Spec::default();
    let n_nodes = st.gen_range(2..6);
    let nodes: Vec<NodeId> = (0..n_nodes).map(|_| ckt.node()).collect();
    spec.num_nodes = ckt.num_nodes();
    // Unit-ish AC stimulus into the first node.
    let ac = vl.gen_range(0.5..2.0);
    ckt.add_vsource(nodes[0], 0, ac);
    spec.vsources.push((nodes[0], 0, ac));
    // Ground every node so the nominal system is non-singular.
    for &nd in &nodes {
        let g = vl.gen_range(1e-6..1e-2);
        ckt.add_conductance(nd, 0, g);
        spec.conductances.push((nd, 0, g));
    }
    // A random mix of extra elements, ground included as a terminal.
    let n_extra = st.gen_range(4..12);
    for _ in 0..n_extra {
        let pick = |s: &mut StdRng| -> NodeId {
            let k = s.gen_range(0..=n_nodes);
            if k == n_nodes {
                0
            } else {
                nodes[k]
            }
        };
        let a = pick(&mut st);
        let b = pick(&mut st);
        match st.gen_range(0..4u32) {
            0 => {
                let g = vl.gen_range(1e-6..1e-1);
                ckt.add_conductance(a, b, g);
                spec.conductances.push((a, b, g));
            }
            1 => {
                let c = vl.gen_range(1e-15..1e-9);
                ckt.add_capacitance(a, b, c);
                spec.capacitances.push((a, b, c));
            }
            2 => {
                let (ip, in_) = (pick(&mut st), pick(&mut st));
                let gm = vl.gen_range(-1e-2..1e-2);
                ckt.add_vccs(a, b, ip, in_, gm);
                spec.vccs.push((a, b, ip, in_, gm));
            }
            _ => {
                let i = vl.gen_range(-1e-3..1e-3);
                ckt.add_isource(a, b, i);
                spec.isources.push((a, b, i));
            }
        }
    }
    let out = nodes[st.gen_range(0..n_nodes)];
    (ckt, out, spec)
}

fn assert_sweeps_bit_equal(ckt: &LinearCircuit, out: NodeId, freqs: &[f64], ctx: &str) {
    let scalar = sweep(ckt, out, freqs);
    let mut fac = FactorizedCircuit::new(ckt);
    assert!(fac.matches(ckt), "{ctx}: plan must match its own template");
    let batched = fac.sweep(ckt, out, freqs);
    match (&scalar, &batched) {
        (Ok(s), Ok(b)) => {
            assert_eq!(s.values.len(), b.values.len(), "{ctx}: length");
            for (i, (vs, vb)) in s.values.iter().zip(&b.values).enumerate() {
                assert_eq!(
                    vs.re.to_bits(),
                    vb.re.to_bits(),
                    "{ctx}: re diverged at point {i}: {vs:?} vs {vb:?}"
                );
                assert_eq!(
                    vs.im.to_bits(),
                    vb.im.to_bits(),
                    "{ctx}: im diverged at point {i}: {vs:?} vs {vb:?}"
                );
            }
        }
        (Err(es), Err(eb)) => assert_eq!(es, eb, "{ctx}: errors must match exactly"),
        (s, b) => panic!("{ctx}: scalar {s:?} vs batched {b:?}"),
    }
}

#[test]
fn random_circuits_sweep_bit_identically() {
    // Sweep lengths straddle the lane width (8): shorter than one chunk,
    // exactly one chunk, ragged tails and multi-chunk grids.
    let grids = [2usize, 5, 8, 9, 23, 50];
    for seed in 0..30u64 {
        let (ckt, out, _) = random_circuit(seed, 1000 + seed);
        let points = grids[seed as usize % grids.len()];
        let freqs = log_space(1e2, 1e9, points);
        assert_sweeps_bit_equal(&ckt, out, &freqs, &format!("seed {seed} ({points} pts)"));
    }
}

#[test]
fn one_factorization_serves_value_perturbed_clones() {
    // The engine's usage pattern: one plan per design, re-loaded with the
    // element values of every process sample.
    for struct_seed in 0..8u64 {
        let (template, out, _) = random_circuit(struct_seed, 0);
        let mut fac = FactorizedCircuit::new(&template);
        let freqs = log_space(1e3, 1e8, 13);
        for value_seed in 1..6u64 {
            let (variant, _, _) = random_circuit(struct_seed, 7000 + value_seed);
            assert!(
                fac.matches(&variant),
                "struct {struct_seed}: variant must structurally match"
            );
            let scalar = sweep(&variant, out, &freqs).unwrap();
            let batched = fac.sweep(&variant, out, &freqs).unwrap();
            for (i, (vs, vb)) in scalar.values.iter().zip(&batched.values).enumerate() {
                assert_eq!(
                    vs.re.to_bits(),
                    vb.re.to_bits(),
                    "s{struct_seed} v{value_seed} pt{i}"
                );
                assert_eq!(
                    vs.im.to_bits(),
                    vb.im.to_bits(),
                    "s{struct_seed} v{value_seed} pt{i}"
                );
            }
        }
    }
}

#[test]
fn structural_mismatch_is_detected() {
    let (ckt, _, _) = random_circuit(3, 3);
    let fac = FactorizedCircuit::new(&ckt);
    let mut other = ckt.clone();
    other.add_conductance(0, 0, 1.0); // one extra element changes the signature
    assert!(!fac.matches(&other));
}

#[test]
fn singular_circuits_fail_with_matching_errors() {
    // A floating node pair (resistor between two nodes, no path to ground)
    // makes the MNA matrix singular at every frequency; both paths must
    // return the exact same pivot.
    let mut ckt = LinearCircuit::new();
    let vin = ckt.node();
    let a = ckt.node();
    let b = ckt.node();
    ckt.add_vsource(vin, 0, 1.0);
    ckt.add_conductance(vin, 0, 1e-3);
    ckt.add_conductance(a, b, 1e-3); // floating island
    let freqs = log_space(1e2, 1e6, 11);
    let scalar = sweep(&ckt, a, &freqs);
    let batched = FactorizedCircuit::new(&ckt).sweep(&ckt, a, &freqs);
    assert!(scalar.is_err(), "floating island must be singular");
    match (scalar, batched) {
        (
            Err(SpiceError::SingularMatrix { pivot: ps }),
            Err(SpiceError::SingularMatrix { pivot: pb }),
        ) => {
            assert_eq!(ps, pb, "singular pivot must match");
        }
        (s, b) => panic!("scalar {s:?} vs batched {b:?}"),
    }
}

#[test]
fn batched_sweep_is_pinned_to_the_scalar_complex_solver() {
    // Independent oracle: assemble the complex MNA system exactly the way
    // `ac::solve_at` documents it — from the recorded element list, in
    // insertion order — and solve with `CMatrix::solve`, the scalar LU the
    // committed yield baselines were produced with. The batched sweep must
    // reproduce those solutions bit-for-bit.
    for seed in 40..52u64 {
        let (ckt, out, spec) = random_circuit(seed, 4000 + seed);
        let freqs = log_space(1e3, 1e9, 9);
        let n = spec.num_nodes;
        let m = spec.vsources.len();
        let dim = (n - 1) + m;
        let idx = |node: NodeId| -> Option<usize> {
            if node == 0 {
                None
            } else {
                Some(node - 1)
            }
        };

        let batched = FactorizedCircuit::new(&ckt)
            .sweep(&ckt, out, &freqs)
            .unwrap();

        for (fi, &f) in freqs.iter().enumerate() {
            let omega = 2.0 * std::f64::consts::PI * f;
            let mut a = CMatrix::zeros(dim, dim);
            let mut rhs = vec![Complex::ZERO; dim];
            let stamp = |a: &mut CMatrix, p: NodeId, q: NodeId, y: Complex| {
                if let Some(i) = idx(p) {
                    a[(i, i)] += y;
                }
                if let Some(j) = idx(q) {
                    a[(j, j)] += y;
                }
                if let (Some(i), Some(j)) = (idx(p), idx(q)) {
                    a[(i, j)] -= y;
                    a[(j, i)] -= y;
                }
            };
            for &(p, q, g) in &spec.conductances {
                stamp(&mut a, p, q, Complex::from_real(g));
            }
            for &(p, q, c) in &spec.capacitances {
                stamp(&mut a, p, q, Complex::from_imag(omega * c));
            }
            for &(op, on, ip, in_, gm) in &spec.vccs {
                for (out_node, sign_out) in [(op, 1.0), (on, -1.0)] {
                    if let Some(i) = idx(out_node) {
                        if let Some(j) = idx(ip) {
                            a[(i, j)] += Complex::from_real(sign_out * gm);
                        }
                        if let Some(j) = idx(in_) {
                            a[(i, j)] -= Complex::from_real(sign_out * gm);
                        }
                    }
                }
            }
            for &(from, to, amps) in &spec.isources {
                if let Some(i) = idx(from) {
                    rhs[i] -= Complex::from_real(amps);
                }
                if let Some(i) = idx(to) {
                    rhs[i] += Complex::from_real(amps);
                }
            }
            for (k, &(p, nn, ac)) in spec.vsources.iter().enumerate() {
                let row = (n - 1) + k;
                if let Some(i) = idx(p) {
                    a[(i, row)] += Complex::ONE;
                    a[(row, i)] += Complex::ONE;
                }
                if let Some(i) = idx(nn) {
                    a[(i, row)] -= Complex::ONE;
                    a[(row, i)] -= Complex::ONE;
                }
                rhs[row] = Complex::from_real(ac);
            }
            let x = a.solve(&rhs).unwrap();
            let want = if out == 0 { Complex::ZERO } else { x[out - 1] };
            let got = batched.values[fi];
            assert_eq!(
                got.re.to_bits(),
                want.re.to_bits(),
                "seed {seed} f[{fi}]: re {got:?} vs oracle {want:?}"
            );
            assert_eq!(
                got.im.to_bits(),
                want.im.to_bits(),
                "seed {seed} f[{fi}]: im {got:?} vs oracle {want:?}"
            );
        }
    }
}

/// Reference bisection over the full operating-point model, written out
/// independently of the lane kernel. Returns the solution and the number of
/// bisection steps it took.
fn reference_vgs(
    d: &Mosfet,
    id_target: f64,
    vds: f64,
    vsb: f64,
) -> (Result<f64, SpiceError>, usize) {
    if id_target <= 0.0 {
        return (
            Err(SpiceError::InvalidElement {
                reason: format!("target current must be positive, got {id_target}"),
            }),
            0,
        );
    }
    let f = |vgs: f64| d.operating_point(vgs, vds, vsb).id - id_target;
    let mut lo = 0.0_f64;
    let mut hi = d.model.vth0 + 5.0;
    if f(hi) < 0.0 {
        return (
            Err(SpiceError::DcNoConvergence {
                iterations: 0,
                residual: -f(hi),
            }),
            0,
        );
    }
    let mut steps = 0;
    for _ in 0..200 {
        steps += 1;
        let mid = 0.5 * (lo + hi);
        if f(mid) > 0.0 {
            hi = mid;
        } else {
            lo = mid;
        }
        if hi - lo < 1e-12 {
            break;
        }
    }
    (Ok(0.5 * (lo + hi)), steps)
}

/// Runs one group of 1..=8 requests through the lane kernel.
fn solve_group(requests: &[BiasRequest<'_>]) -> Vec<Result<f64, SpiceError>> {
    fn call<const N: usize>(r: &[BiasRequest<'_>]) -> Vec<Result<f64, SpiceError>> {
        vgs_for_currents::<N>(r.try_into().expect("group size")).into()
    }
    match requests.len() {
        1 => call::<1>(requests),
        2 => call::<2>(requests),
        3 => call::<3>(requests),
        4 => call::<4>(requests),
        5 => call::<5>(requests),
        6 => call::<6>(requests),
        7 => call::<7>(requests),
        8 => call::<8>(requests),
        n => panic!("no lane group of {n} requests"),
    }
}

/// Where a generated request's root lies, or how it fails.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Case {
    Saturation,
    Triode,
    Subthreshold,
    NonPositive,
    Unreachable,
    NonFinite,
    /// `vth0 = 5` at `vsb = 0`: the first midpoint of the `[0, vth0 + 5]`
    /// bracket sits exactly at threshold and the next ones at dyadic
    /// overdrives, so region boundaries are hit with exact equality.
    Boundary,
}

const CASES: [Case; 7] = [
    Case::Saturation,
    Case::Triode,
    Case::Subthreshold,
    Case::NonPositive,
    Case::Unreachable,
    Case::NonFinite,
    Case::Boundary,
];

/// A random device and a request of the given case for it.
fn random_request(rng: &mut StdRng, case: Case) -> (Mosfet, f64, f64, f64) {
    let polarity = if rng.gen::<bool>() {
        MosType::Nmos
    } else {
        MosType::Pmos
    };
    let card = if rng.gen::<bool>() {
        model_035um(polarity)
    } else {
        model_90nm(polarity)
    };
    let mut model = card.perturbed(
        rng.gen_range(-0.3e-9..0.3e-9),
        rng.gen_range(-0.05..0.05),
        rng.gen_range(-5e-9..5e-9),
        rng.gen_range(-5e-9..5e-9),
        rng.gen_range(-0.1..0.1),
        0.0,
        0.0,
    );
    // Thresholds far apart give brackets of different widths, so lanes of
    // one group converge on different bisection steps.
    if rng.gen_range(0..4) == 0 {
        model.vth0 += rng.gen_range(1.0..200.0);
    }
    let geometry = MosGeometry::new(
        rng.gen_range(1e-6..200e-6),
        rng.gen_range(0.1e-6..2e-6),
        f64::from(rng.gen_range(1..4u32)),
    )
    .unwrap();
    let d = Mosfet::new(model, geometry);
    let vsb = if rng.gen::<bool>() {
        0.0
    } else {
        rng.gen_range(-0.2..1.0)
    };
    let mut vds = rng.gen_range(0.05..2.0);
    let id_target = match case {
        // A current reached at a gate overdrive of 0.05..1 V.
        Case::Saturation => d.drain_current(d.model.vth0 + rng.gen_range(0.05..1.0), vds, vsb),
        Case::Triode => {
            vds = rng.gen_range(0.005..0.05);
            d.drain_current(d.model.vth0 + rng.gen_range(0.2..1.0), vds, vsb)
        }
        Case::Subthreshold => d.drain_current(d.model.vth0 - rng.gen_range(0.05..0.3), vds, vsb),
        Case::NonPositive => -rng.gen_range(0.0..1e-3) * f64::from(rng.gen_range(0..2u32)),
        Case::Unreachable => rng.gen_range(1e3..1e6),
        Case::Boundary => {
            let mut on_grid = d;
            on_grid.model.vth0 = 5.0;
            vds = [2.5, 1.25, 0.625][rng.gen_range(0..3)];
            let vgs = 5.0 + vds * [-0.1, 0.0, 1.0, 1.5][rng.gen_range(0..4)];
            let id_target = on_grid.drain_current(vgs, vds, 0.0);
            return (on_grid, id_target, vds, 0.0);
        }
        Case::NonFinite => {
            let weird = [f64::NAN, f64::INFINITY, f64::NEG_INFINITY];
            let w = weird[rng.gen_range(0..weird.len())];
            match rng.gen_range(0..4) {
                0 => return (d, w, vds, vsb),
                1 => vds = w,
                2 => return (d, 1e-4, vds, w),
                _ => {
                    let mut odd = d;
                    odd.model.vth0 = w;
                    return (odd, 1e-4, vds, vsb);
                }
            }
            1e-4
        }
    };
    (d, id_target, vds, vsb)
}

#[test]
fn lane_bias_solve_matches_the_scalar_reference_bisection() {
    let mut rng = StdRng::seed_from_u64(0x5eed_b1a5);
    // Roots in saturation, triode and subthreshold; non-positive and
    // unreachable targets.
    let mut seen = [0usize; 5];
    let mut non_finite = 0;
    let mut mixed_step_groups = 0;
    for group in 0..600 {
        let size = 1 + group % 8;
        let cases: Vec<Case> = (0..size)
            .map(|_| CASES[rng.gen_range(0..CASES.len())])
            .collect();
        let reqs: Vec<(Mosfet, f64, f64, f64)> =
            cases.iter().map(|&c| random_request(&mut rng, c)).collect();
        let requests: Vec<BiasRequest<'_>> = reqs
            .iter()
            .map(|(device, id_target, vds, vsb)| BiasRequest {
                device,
                id_target: *id_target,
                vds: *vds,
                vsb: *vsb,
            })
            .collect();
        let lanes = solve_group(&requests);
        let mut steps = Vec::new();
        for (l, (r, got)) in requests.iter().zip(&lanes).enumerate() {
            let (want, n) = reference_vgs(r.device, r.id_target, r.vds, r.vsb);
            steps.push(n);
            let ctx = format!("group {group} lane {l}/{size} ({:?}): {r:?}", cases[l]);
            match (got, &want) {
                (Ok(a), Ok(b)) => assert_eq!(a.to_bits(), b.to_bits(), "{ctx}: {a} vs {b}"),
                (Err(a), Err(b)) => assert_eq!(a, b, "{ctx}"),
                (a, b) => panic!("{ctx}: lanes {a:?} vs reference {b:?}"),
            }
            // Tally what the reference actually hit: the root's region, or
            // the error kind.
            let outcome = match want {
                Ok(v) => match r.device.operating_point(v, r.vds, r.vsb).region {
                    Region::Saturation => 0,
                    Region::Triode => 1,
                    Region::Cutoff => 2,
                },
                Err(SpiceError::InvalidElement { .. }) => 3,
                Err(_) => 4,
            };
            seen[outcome] += 1;
            non_finite += usize::from(cases[l] == Case::NonFinite);
        }
        mixed_step_groups += usize::from(steps.iter().any(|&n| n != steps[0]));
    }
    assert!(
        seen.iter().all(|&k| k > 20) && non_finite > 20,
        "every case must be exercised: {seen:?}, {non_finite} non-finite"
    );
    assert!(
        mixed_step_groups > 50,
        "groups whose lanes finish on different steps: {mixed_step_groups}"
    );
}
