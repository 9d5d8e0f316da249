//! Batched AC analysis: factorize a circuit's *structure* once, then sweep
//! many samples of the same topology with lane-vectorized inner loops.
//!
//! Within one Monte-Carlo block only process-variation parameters change, so
//! every sample of a design produces a [`LinearCircuit`] with the identical
//! element pattern (same nodes, same element order) and different element
//! *values*. [`FactorizedCircuit`] exploits that: it compiles the MNA stamping
//! of [`crate::ac::solve_at`] into a flat index program once (the structural
//! analysis), then per sample re-reads only the element values and solves the
//! whole frequency sweep in chunks of [`LANES`] frequencies laid out
//! structure-of-arrays, so the complex LU elimination runs over contiguous
//! per-frequency lanes and auto-vectorizes.
//!
//! # Bit-identity contract
//!
//! `FactorizedCircuit::sweep` is **bit-for-bit identical** to
//! [`crate::ac::sweep`], including error cases. This is not a tolerance claim:
//! the batched path performs the exact same IEEE-754 operation sequence per
//! frequency lane as the scalar path, relying only on value-preserving
//! transformations:
//!
//! * The scalar assembly interleaves real stamps (conductances, VCCS, voltage
//!   sources) with imaginary stamps (capacitances), but a `Complex` `+=` of a
//!   purely real (or purely imaginary) value adds `+0.0` to the other
//!   component. Accumulated MNA entries never hold `-0.0` (they start at
//!   `+0.0` and only accumulate finite stamps), and `x + 0.0 == x` bitwise for
//!   every `x != -0.0`, so splitting the assembly into a frequency-independent
//!   real plane and a per-frequency imaginary plane is exact.
//! * `x -= t` is IEEE-defined as `x + (-t)`, and negation/multiplication by
//!   `±1.0` are exact, so signed stamp programs reproduce `+=`/`-=` chains.
//! * The per-lane LU replicates [`crate::linalg::clu_solve_in_place`]
//!   literally: `norm_sqr` pivoting, the `f == Complex::ZERO` elimination
//!   skip (replicated with a per-lane mask and select, which also protects
//!   skipped lanes from spurious updates), and Smith's complex division with
//!   *both* branches evaluated per lane and the result selected on
//!   `|re| >= |im|` (the `0/0` early-NaN return falls out of the not-taken
//!   branch producing NaN through the same operations).
//! * A lane whose pivot underflows is marked singular with the failing
//!   elimination step and keeps computing garbage; lanes never interact, so
//!   healthy lanes are unaffected and the first failing frequency reports the
//!   identical [`SpiceError::SingularMatrix`] as the scalar sweep.
//!
//! The inner kernel is compiled three times — generic, AVX2 and AVX-512F via
//! `#[target_feature]` — and dispatched once per `FactorizedCircuit` from
//! runtime CPU detection. All versions run the same per-lane operation
//! sequence; Rust never contracts `a*b + c` into FMA or reassociates floats,
//! so the wider builds change throughput, not values.

use crate::ac::FrequencyResponse;
use crate::complex::Complex;
use crate::error::SpiceError;
use crate::netlist::{LinearCircuit, NodeId};

/// Number of frequency points solved simultaneously per lane chunk.
pub const LANES: usize = 8;

/// Sentinel for "lane not singular" in the per-lane failure tracker.
const NOT_SINGULAR: usize = usize::MAX;

/// Value source of one real-plane stamp.
#[derive(Debug, Clone, Copy)]
enum ReSrc {
    /// `conductances[i].2`.
    Conductance(usize),
    /// `vccs[i].gm`.
    Vccs(usize),
    /// The constant `1.0` (voltage-source incidence entries).
    Unit,
}

/// One accumulation into the frequency-independent real plane:
/// `re_base[flat] += sign * value(src)`.
#[derive(Debug, Clone, Copy)]
struct ReOp {
    flat: usize,
    sign: f64,
    src: ReSrc,
}

/// One accumulation into the per-frequency imaginary plane:
/// `a_im[flat] += omega * (sign * capacitances[src].2)`.
#[derive(Debug, Clone, Copy)]
struct CapOp {
    flat: usize,
    sign: f64,
    src: usize,
}

/// Structural fingerprint of the template circuit; every loaded circuit must
/// match it exactly (values may differ, topology may not).
#[derive(Debug, Clone)]
struct StructSig {
    num_nodes: usize,
    conductances: Vec<(NodeId, NodeId)>,
    capacitances: Vec<(NodeId, NodeId)>,
    vccs: Vec<(NodeId, NodeId, NodeId, NodeId)>,
    isources: Vec<(NodeId, NodeId)>,
    vsources: Vec<(NodeId, NodeId)>,
}

impl StructSig {
    fn of(circuit: &LinearCircuit) -> Self {
        Self {
            num_nodes: circuit.num_nodes(),
            conductances: circuit
                .conductances
                .iter()
                .map(|&(p, q, _)| (p, q))
                .collect(),
            capacitances: circuit
                .capacitances
                .iter()
                .map(|&(p, q, _)| (p, q))
                .collect(),
            vccs: circuit
                .vccs
                .iter()
                .map(|g| (g.out_p, g.out_n, g.in_p, g.in_n))
                .collect(),
            isources: circuit.isources.iter().map(|s| (s.from, s.to)).collect(),
            vsources: circuit.vsources.iter().map(|v| (v.p, v.n)).collect(),
        }
    }
}

/// Which compiled variant of the lane kernel to run.
#[derive(Debug, Clone, Copy)]
enum Kernel {
    #[cfg(target_arch = "x86_64")]
    Avx512,
    #[cfg(target_arch = "x86_64")]
    Avx2,
    Generic,
}

fn detect_kernel() -> Kernel {
    #[cfg(target_arch = "x86_64")]
    {
        if std::arch::is_x86_feature_detected!("avx512f") {
            return Kernel::Avx512;
        }
        if std::arch::is_x86_feature_detected!("avx2") {
            return Kernel::Avx2;
        }
    }
    Kernel::Generic
}

/// A structurally factorized linear circuit: assembly plan, loaded sample
/// values and lane-solver scratch, reusable across all samples of a design.
///
/// Build it once from a template circuit, then call
/// [`FactorizedCircuit::sweep`] for every sample sharing that structure. No
/// allocation happens per sweep.
#[derive(Debug, Clone)]
pub struct FactorizedCircuit {
    num_nodes: usize,
    dim: usize,
    sig: StructSig,
    kernel: Kernel,
    re_prog: Vec<ReOp>,
    cap_prog: Vec<CapOp>,
    /// `(rhs index, sign, isource index)` accumulations.
    rhs_add: Vec<(usize, f64, usize)>,
    /// `(rhs row, vsource index)` assignments (after the accumulations).
    rhs_set: Vec<(usize, usize)>,
    // Per-sample loaded values.
    re_base: Vec<f64>,
    cap_vals: Vec<(usize, f64)>,
    rhs_re: Vec<f64>,
    // Lane-broadcast copies of `re_base` / `rhs_re`, built once per sample so
    // each frequency chunk starts from a single memcpy instead of per-element
    // fills.
    re_bcast: Vec<f64>,
    rhs_bcast: Vec<f64>,
    // Lane scratch: `dim*dim*LANES` matrix planes, `dim*LANES` vectors and a
    // pivot-row copy that decouples source and destination rows during
    // elimination.
    a_re: Vec<f64>,
    a_im: Vec<f64>,
    x_re: Vec<f64>,
    x_im: Vec<f64>,
    prow_re: Vec<f64>,
    prow_im: Vec<f64>,
}

impl FactorizedCircuit {
    /// Performs the structural analysis of `circuit`: compiles the MNA stamp
    /// pattern into flat index programs and sizes the lane scratch. The
    /// template's element values are irrelevant; only its topology is kept.
    pub fn new(circuit: &LinearCircuit) -> Self {
        let n = circuit.num_nodes();
        let m = circuit.num_vsources();
        let dim = (n - 1) + m;
        let idx = |node: NodeId| -> Option<usize> {
            if node == 0 {
                None
            } else {
                Some(node - 1)
            }
        };
        let flat = |i: usize, j: usize| i * dim + j;

        let mut re_prog = Vec::new();
        let mut cap_prog = Vec::new();
        // Admittance stamp pattern, in the exact emission order of
        // `ac::solve_at`'s `stamp_adm`: (i,i) +, (j,j) +, (i,j) -, (j,i) -.
        for (t, &(p, q, _)) in circuit.conductances.iter().enumerate() {
            let src = ReSrc::Conductance(t);
            if let Some(i) = idx(p) {
                re_prog.push(ReOp {
                    flat: flat(i, i),
                    sign: 1.0,
                    src,
                });
            }
            if let Some(j) = idx(q) {
                re_prog.push(ReOp {
                    flat: flat(j, j),
                    sign: 1.0,
                    src,
                });
            }
            if let (Some(i), Some(j)) = (idx(p), idx(q)) {
                re_prog.push(ReOp {
                    flat: flat(i, j),
                    sign: -1.0,
                    src,
                });
                re_prog.push(ReOp {
                    flat: flat(j, i),
                    sign: -1.0,
                    src,
                });
            }
        }
        for (t, &(p, q, _)) in circuit.capacitances.iter().enumerate() {
            if let Some(i) = idx(p) {
                cap_prog.push(CapOp {
                    flat: flat(i, i),
                    sign: 1.0,
                    src: t,
                });
            }
            if let Some(j) = idx(q) {
                cap_prog.push(CapOp {
                    flat: flat(j, j),
                    sign: 1.0,
                    src: t,
                });
            }
            if let (Some(i), Some(j)) = (idx(p), idx(q)) {
                cap_prog.push(CapOp {
                    flat: flat(i, j),
                    sign: -1.0,
                    src: t,
                });
                cap_prog.push(CapOp {
                    flat: flat(j, i),
                    sign: -1.0,
                    src: t,
                });
            }
        }
        for (t, g) in circuit.vccs.iter().enumerate() {
            for (out_node, sign_out) in [(g.out_p, 1.0), (g.out_n, -1.0)] {
                if let Some(i) = idx(out_node) {
                    if let Some(j) = idx(g.in_p) {
                        re_prog.push(ReOp {
                            flat: flat(i, j),
                            sign: sign_out,
                            src: ReSrc::Vccs(t),
                        });
                    }
                    if let Some(j) = idx(g.in_n) {
                        re_prog.push(ReOp {
                            flat: flat(i, j),
                            sign: -sign_out,
                            src: ReSrc::Vccs(t),
                        });
                    }
                }
            }
        }
        let mut rhs_add = Vec::new();
        for (t, s) in circuit.isources.iter().enumerate() {
            if let Some(i) = idx(s.from) {
                rhs_add.push((i, -1.0, t));
            }
            if let Some(i) = idx(s.to) {
                rhs_add.push((i, 1.0, t));
            }
        }
        let mut rhs_set = Vec::new();
        for (k, vs) in circuit.vsources.iter().enumerate() {
            let row = (n - 1) + k;
            if let Some(i) = idx(vs.p) {
                re_prog.push(ReOp {
                    flat: flat(i, row),
                    sign: 1.0,
                    src: ReSrc::Unit,
                });
                re_prog.push(ReOp {
                    flat: flat(row, i),
                    sign: 1.0,
                    src: ReSrc::Unit,
                });
            }
            if let Some(i) = idx(vs.n) {
                re_prog.push(ReOp {
                    flat: flat(i, row),
                    sign: -1.0,
                    src: ReSrc::Unit,
                });
                re_prog.push(ReOp {
                    flat: flat(row, i),
                    sign: -1.0,
                    src: ReSrc::Unit,
                });
            }
            rhs_set.push((row, k));
        }

        let n_caps = cap_prog.len();
        Self {
            num_nodes: n,
            dim,
            sig: StructSig::of(circuit),
            kernel: detect_kernel(),
            re_prog,
            cap_prog,
            rhs_add,
            rhs_set,
            re_base: vec![0.0; dim * dim],
            cap_vals: vec![(0, 0.0); n_caps],
            rhs_re: vec![0.0; dim],
            re_bcast: vec![0.0; dim * dim * LANES],
            rhs_bcast: vec![0.0; dim * LANES],
            a_re: vec![0.0; dim * dim * LANES],
            a_im: vec![0.0; dim * dim * LANES],
            x_re: vec![0.0; dim * LANES],
            x_im: vec![0.0; dim * LANES],
            prow_re: vec![0.0; dim * LANES],
            prow_im: vec![0.0; dim * LANES],
        }
    }

    /// Returns `true` when `circuit` has exactly the structure this plan was
    /// compiled from (same nodes, same elements in the same order). Compares
    /// element endpoints in place, without allocating.
    pub fn matches(&self, circuit: &LinearCircuit) -> bool {
        let sig = &self.sig;
        sig.num_nodes == circuit.num_nodes()
            && sig
                .conductances
                .iter()
                .copied()
                .eq(circuit.conductances.iter().map(|&(p, q, _)| (p, q)))
            && sig
                .capacitances
                .iter()
                .copied()
                .eq(circuit.capacitances.iter().map(|&(p, q, _)| (p, q)))
            && sig.vccs.iter().copied().eq(circuit
                .vccs
                .iter()
                .map(|g| (g.out_p, g.out_n, g.in_p, g.in_n)))
            && sig
                .isources
                .iter()
                .copied()
                .eq(circuit.isources.iter().map(|s| (s.from, s.to)))
            && sig
                .vsources
                .iter()
                .copied()
                .eq(circuit.vsources.iter().map(|v| (v.p, v.n)))
    }

    /// Re-reads the element values of `circuit` through the precomputed stamp
    /// programs: real plane, signed capacitances and right-hand side. The
    /// caller has checked that `circuit` matches the template.
    fn load(&mut self, circuit: &LinearCircuit) {
        debug_assert!(self.matches(circuit));
        self.re_base.iter_mut().for_each(|v| *v = 0.0);
        for op in &self.re_prog {
            let val = match op.src {
                ReSrc::Conductance(t) => circuit.conductances[t].2,
                ReSrc::Vccs(t) => circuit.vccs[t].gm,
                ReSrc::Unit => 1.0,
            };
            self.re_base[op.flat] += op.sign * val;
        }
        for (slot, op) in self.cap_vals.iter_mut().zip(&self.cap_prog) {
            *slot = (op.flat, op.sign * circuit.capacitances[op.src].2);
        }
        self.rhs_re.iter_mut().for_each(|v| *v = 0.0);
        for &(i, sign, t) in &self.rhs_add {
            self.rhs_re[i] += sign * circuit.isources[t].amps;
        }
        for &(row, k) in &self.rhs_set {
            self.rhs_re[row] = circuit.vsources[k].ac;
        }
        for (e, &v) in self.re_base.iter().enumerate() {
            self.re_bcast[e * LANES..(e + 1) * LANES].fill(v);
        }
        for (i, &v) in self.rhs_re.iter().enumerate() {
            self.rhs_bcast[i * LANES..(i + 1) * LANES].fill(v);
        }
    }

    /// Sweeps `circuit` over `freqs`, recording the phasor at `output` —
    /// bit-for-bit identical to [`crate::ac::sweep`] on the same circuit,
    /// including which frequency fails first and with which pivot on singular
    /// systems.
    ///
    /// # Errors
    ///
    /// Returns the same [`SpiceError::SingularMatrix`] the scalar sweep would.
    ///
    /// # Panics
    ///
    /// Panics if `circuit` does not structurally match the template.
    pub fn sweep(
        &mut self,
        circuit: &LinearCircuit,
        output: NodeId,
        freqs: &[f64],
    ) -> Result<FrequencyResponse, SpiceError> {
        assert!(
            self.matches(circuit),
            "circuit structure differs from the factorized template"
        );
        self.sweep_matched(circuit, output, freqs)
    }

    /// [`Self::sweep`] for a circuit of any structure: re-plans from
    /// `circuit` first when it does not match the template, instead of
    /// panicking. The structure check runs once per call.
    ///
    /// # Errors
    ///
    /// Returns the same [`SpiceError::SingularMatrix`] the scalar sweep would.
    pub fn sweep_replanning(
        &mut self,
        circuit: &LinearCircuit,
        output: NodeId,
        freqs: &[f64],
    ) -> Result<FrequencyResponse, SpiceError> {
        if !self.matches(circuit) {
            *self = Self::new(circuit);
        }
        self.sweep_matched(circuit, output, freqs)
    }

    fn sweep_matched(
        &mut self,
        circuit: &LinearCircuit,
        output: NodeId,
        freqs: &[f64],
    ) -> Result<FrequencyResponse, SpiceError> {
        self.load(circuit);
        let mut values = Vec::with_capacity(freqs.len());
        let dim = self.dim;
        if dim == 0 {
            values.resize(freqs.len(), Complex::ZERO);
            return Ok(FrequencyResponse {
                freqs: freqs.to_vec(),
                values,
            });
        }
        debug_assert!(output < self.num_nodes, "output node out of range");
        let out_idx = if output == 0 { None } else { Some(output - 1) };

        let n_freqs = freqs.len();
        let mut start = 0;
        while start < n_freqs {
            // Tail chunks repeat the last frequency in the padding lanes; the
            // duplicate results are discarded.
            let real_lanes = (n_freqs - start).min(LANES);
            let mut omegas = [0.0f64; LANES];
            for (l, omega) in omegas.iter_mut().enumerate() {
                let fi = (start + l).min(n_freqs - 1);
                *omega = 2.0 * std::f64::consts::PI * freqs[fi];
            }

            // Broadcast the real plane and right-hand side into the lanes,
            // then accumulate the per-frequency imaginary plane.
            self.a_re.copy_from_slice(&self.re_bcast);
            self.a_im.iter_mut().for_each(|v| *v = 0.0);
            for &(fl, c) in &self.cap_vals {
                let lanes = &mut self.a_im[fl * LANES..(fl + 1) * LANES];
                for (l, v) in lanes.iter_mut().enumerate() {
                    *v += omegas[l] * c;
                }
            }
            self.x_re.copy_from_slice(&self.rhs_bcast);
            self.x_im.iter_mut().for_each(|v| *v = 0.0);

            let mut sing = [NOT_SINGULAR; LANES];
            match self.kernel {
                #[cfg(target_arch = "x86_64")]
                Kernel::Avx512 => {
                    // SAFETY: `detect_kernel` selected this variant only after
                    // `is_x86_feature_detected!("avx512f")` returned true.
                    unsafe {
                        solve_lanes_avx512(
                            dim,
                            &mut self.a_re,
                            &mut self.a_im,
                            &mut self.x_re,
                            &mut self.x_im,
                            &mut self.prow_re,
                            &mut self.prow_im,
                            &mut sing,
                        );
                    }
                }
                #[cfg(target_arch = "x86_64")]
                Kernel::Avx2 => {
                    // SAFETY: gated on `is_x86_feature_detected!("avx2")`.
                    unsafe {
                        solve_lanes_avx2(
                            dim,
                            &mut self.a_re,
                            &mut self.a_im,
                            &mut self.x_re,
                            &mut self.x_im,
                            &mut self.prow_re,
                            &mut self.prow_im,
                            &mut sing,
                        );
                    }
                }
                Kernel::Generic => solve_lanes_impl(
                    dim,
                    &mut self.a_re,
                    &mut self.a_im,
                    &mut self.x_re,
                    &mut self.x_im,
                    &mut self.prow_re,
                    &mut self.prow_im,
                    &mut sing,
                ),
            }

            // Frequencies are processed in ascending order, so the first
            // singular real lane is the first failing frequency overall —
            // matching the scalar sweep's early return.
            for &s in sing.iter().take(real_lanes) {
                if s != NOT_SINGULAR {
                    return Err(SpiceError::SingularMatrix { pivot: s });
                }
            }
            for l in 0..real_lanes {
                let v = match out_idx {
                    None => Complex::ZERO,
                    Some(oi) => Complex::new(self.x_re[oi * LANES + l], self.x_im[oi * LANES + l]),
                };
                values.push(v);
            }
            start += LANES;
        }
        Ok(FrequencyResponse {
            freqs: freqs.to_vec(),
            values,
        })
    }
}

/// One SIMD-friendly group of [`LANES`] doubles.
type Lane = [f64; LANES];

#[inline(always)]
fn load(s: &[f64], off: usize) -> Lane {
    let mut v = [0.0f64; LANES];
    v.copy_from_slice(&s[off..off + LANES]);
    v
}

#[inline(always)]
fn store(s: &mut [f64], off: usize, v: &Lane) {
    s[off..off + LANES].copy_from_slice(v);
}

/// Swaps two disjoint [`LANES`]-wide blocks of `s`.
#[inline(always)]
fn swap_blocks(s: &mut [f64], a: usize, b: usize) {
    let ta = load(s, a);
    let tb = load(s, b);
    store(s, a, &tb);
    store(s, b, &ta);
}

/// Smith's complex division with both branches evaluated per lane and the
/// result selected on `|br| >= |bi|` — the branchless (and therefore
/// vectorizable) replica of [`Complex`]'s `Div`. The scalar `0/0 -> NaN`
/// early return is reproduced by the taken branch computing NaN through the
/// identical operations.
#[inline(always)]
fn cdiv_lanes(ar: &Lane, ai: &Lane, br: &Lane, bi: &Lane) -> (Lane, Lane) {
    let mut qr = [0.0f64; LANES];
    let mut qi = [0.0f64; LANES];
    let mut first = [false; LANES];
    let mut n_first = 0usize;
    for l in 0..LANES {
        first[l] = br[l].abs() >= bi[l].abs();
        n_first += usize::from(first[l]);
    }
    // The branch condition is usually uniform across a chunk of adjacent
    // frequencies; computing only the taken branch halves the division count.
    // Both fast paths produce the exact values the select path would pick.
    if n_first == LANES {
        for l in 0..LANES {
            let r1 = bi[l] / br[l];
            let d1 = br[l] + bi[l] * r1;
            qr[l] = (ar[l] + ai[l] * r1) / d1;
            qi[l] = (ai[l] - ar[l] * r1) / d1;
        }
    } else if n_first == 0 {
        for l in 0..LANES {
            let r2 = br[l] / bi[l];
            let d2 = br[l] * r2 + bi[l];
            qr[l] = (ar[l] * r2 + ai[l]) / d2;
            qi[l] = (ai[l] * r2 - ar[l]) / d2;
        }
    } else {
        for l in 0..LANES {
            let r1 = bi[l] / br[l];
            let d1 = br[l] + bi[l] * r1;
            let q1r = (ar[l] + ai[l] * r1) / d1;
            let q1i = (ai[l] - ar[l] * r1) / d1;
            let r2 = br[l] / bi[l];
            let d2 = br[l] * r2 + bi[l];
            let q2r = (ar[l] * r2 + ai[l]) / d2;
            let q2i = (ai[l] * r2 - ar[l]) / d2;
            qr[l] = if first[l] { q1r } else { q2r };
            qi[l] = if first[l] { q1i } else { q2i };
        }
    }
    (qr, qi)
}

/// Per-lane complex LU with partial pivoting: [`crate::linalg::clu_solve_in_place`]
/// replicated over [`LANES`] independent systems in SoA layout
/// (`plane[element * LANES + lane]`). Lanes never exchange data; a lane whose
/// pivot underflows records the failing step in `sing` and keeps running on
/// garbage, which cannot leak into other lanes.
#[allow(clippy::too_many_arguments)]
#[inline(always)]
fn solve_lanes_impl(
    n: usize,
    a_re: &mut [f64],
    a_im: &mut [f64],
    x_re: &mut [f64],
    x_im: &mut [f64],
    prow_re: &mut [f64],
    prow_im: &mut [f64],
    sing: &mut [usize; LANES],
) {
    const L: usize = LANES;
    for k in 0..n {
        let d = (k * n + k) * L;
        // Per-lane pivot search on |.|^2, exactly as the scalar kernel.
        let mut p = [k; L];
        let dr = load(a_re, d);
        let di = load(a_im, d);
        let mut max = [0.0f64; L];
        for l in 0..L {
            max[l] = dr[l] * dr[l] + di[l] * di[l];
        }
        for i in (k + 1)..n {
            let er = load(a_re, (i * n + k) * L);
            let ei = load(a_im, (i * n + k) * L);
            for l in 0..L {
                let v = er[l] * er[l] + ei[l] * ei[l];
                let gt = v > max[l];
                max[l] = if gt { v } else { max[l] };
                p[l] = if gt { i } else { p[l] };
            }
        }
        for l in 0..L {
            if max[l] < 1e-300 && sing[l] == NOT_SINGULAR {
                sing[l] = k;
            }
        }
        // Row swap. Adjacent frequencies almost always pick the same pivot
        // row, so a whole-lane-block swap is the common case; fall back to
        // per-lane swaps when the lanes disagree.
        let uniform_p = p.iter().all(|&v| v == p[0]);
        if uniform_p {
            let pl = p[0];
            if pl != k {
                for j in 0..n {
                    let ko = (k * n + j) * L;
                    let po = (pl * n + j) * L;
                    swap_blocks(a_re, ko, po);
                    swap_blocks(a_im, ko, po);
                }
                swap_blocks(x_re, k * L, p[0] * L);
                swap_blocks(x_im, k * L, p[0] * L);
            }
        } else {
            #[allow(clippy::needless_range_loop)] // `l` also strides the planes
            for l in 0..L {
                let pl = p[l];
                if pl != k {
                    for j in 0..n {
                        a_re.swap((k * n + j) * L + l, (pl * n + j) * L + l);
                        a_im.swap((k * n + j) * L + l, (pl * n + j) * L + l);
                    }
                    x_re.swap(k * L + l, pl * L + l);
                    x_im.swap(k * L + l, pl * L + l);
                }
            }
        }
        let piv_re = load(a_re, d);
        let piv_im = load(a_im, d);
        // Copy the pivot row and x[k] so the update loops read disjoint
        // buffers (helps the vectorizer's alias analysis).
        for j in (k + 1)..n {
            let s = (k * n + j) * L;
            prow_re[j * L..(j + 1) * L].copy_from_slice(&a_re[s..s + L]);
            prow_im[j * L..(j + 1) * L].copy_from_slice(&a_im[s..s + L]);
        }
        let xk_re = load(x_re, k * L);
        let xk_im = load(x_im, k * L);

        for i in (k + 1)..n {
            let e = (i * n + k) * L;
            let er = load(a_re, e);
            let ei = load(a_im, e);
            let (f_re, f_im) = cdiv_lanes(&er, &ei, &piv_re, &piv_im);
            // `skip[l]` replicates the scalar `f == Complex::ZERO` continue:
            // skipped lanes keep their old values through the selects below.
            let mut skip = [false; L];
            for l in 0..L {
                skip[l] = f_re[l] == 0.0 && f_im[l] == 0.0;
            }
            // MNA matrices are sparse: below-diagonal entries are usually
            // structurally zero in every lane at once, making the whole row
            // update a no-op (each select keeps the old value). Skipping it
            // outright is the lane-parallel form of the scalar kernel's
            // `f == 0 => continue` and changes no stored bit.
            if skip.iter().all(|&s| s) {
                continue;
            }
            if skip.iter().all(|&s| !s) {
                // No lane skips (the common case for structurally non-zero
                // entries): every select below would pick the freshly computed
                // value, so the select-free loops store the identical bits.
                store(a_re, e, &[0.0; L]);
                store(a_im, e, &[0.0; L]);
                for j in (k + 1)..n {
                    let sr = load(prow_re, j * L);
                    let si = load(prow_im, j * L);
                    let t = (i * n + j) * L;
                    let mut tr = load(a_re, t);
                    let mut ti = load(a_im, t);
                    for l in 0..L {
                        tr[l] -= f_re[l] * sr[l] - f_im[l] * si[l];
                        ti[l] -= f_re[l] * si[l] + f_im[l] * sr[l];
                    }
                    store(a_re, t, &tr);
                    store(a_im, t, &ti);
                }
                let t = i * L;
                let mut tr = load(x_re, t);
                let mut ti = load(x_im, t);
                for l in 0..L {
                    tr[l] -= f_re[l] * xk_re[l] - f_im[l] * xk_im[l];
                    ti[l] -= f_re[l] * xk_im[l] + f_im[l] * xk_re[l];
                }
                store(x_re, t, &tr);
                store(x_im, t, &ti);
                continue;
            }
            let mut zr = [0.0f64; L];
            let mut zi = [0.0f64; L];
            for l in 0..L {
                zr[l] = if skip[l] { er[l] } else { 0.0 };
                zi[l] = if skip[l] { ei[l] } else { 0.0 };
            }
            store(a_re, e, &zr);
            store(a_im, e, &zi);
            for j in (k + 1)..n {
                let sr = load(prow_re, j * L);
                let si = load(prow_im, j * L);
                let t = (i * n + j) * L;
                let tr = load(a_re, t);
                let ti = load(a_im, t);
                let mut or = [0.0f64; L];
                let mut oi = [0.0f64; L];
                for l in 0..L {
                    let ur = f_re[l] * sr[l] - f_im[l] * si[l];
                    let ui = f_re[l] * si[l] + f_im[l] * sr[l];
                    let nr = tr[l] - ur;
                    let ni = ti[l] - ui;
                    or[l] = if skip[l] { tr[l] } else { nr };
                    oi[l] = if skip[l] { ti[l] } else { ni };
                }
                store(a_re, t, &or);
                store(a_im, t, &oi);
            }
            let t = i * L;
            let tr = load(x_re, t);
            let ti = load(x_im, t);
            let mut or = [0.0f64; L];
            let mut oi = [0.0f64; L];
            for l in 0..L {
                let ur = f_re[l] * xk_re[l] - f_im[l] * xk_im[l];
                let ui = f_re[l] * xk_im[l] + f_im[l] * xk_re[l];
                let nr = tr[l] - ur;
                let ni = ti[l] - ui;
                or[l] = if skip[l] { tr[l] } else { nr };
                oi[l] = if skip[l] { ti[l] } else { ni };
            }
            store(x_re, t, &or);
            store(x_im, t, &oi);
        }
    }
    // Back substitution, lane-parallel.
    for i in (0..n).rev() {
        let mut acc_re = load(x_re, i * L);
        let mut acc_im = load(x_im, i * L);
        for j in (i + 1)..n {
            let sr = load(a_re, (i * n + j) * L);
            let si = load(a_im, (i * n + j) * L);
            let tr = load(x_re, j * L);
            let ti = load(x_im, j * L);
            for l in 0..L {
                let mr = sr[l] * tr[l] - si[l] * ti[l];
                let mi = sr[l] * ti[l] + si[l] * tr[l];
                acc_re[l] -= mr;
                acc_im[l] -= mi;
            }
        }
        let dr = load(a_re, (i * n + i) * L);
        let di = load(a_im, (i * n + i) * L);
        let (qr, qi) = cdiv_lanes(&acc_re, &acc_im, &dr, &di);
        store(x_re, i * L, &qr);
        store(x_im, i * L, &qi);
    }
}

#[cfg(target_arch = "x86_64")]
#[allow(clippy::too_many_arguments)]
#[target_feature(enable = "avx512f")]
unsafe fn solve_lanes_avx512(
    n: usize,
    a_re: &mut [f64],
    a_im: &mut [f64],
    x_re: &mut [f64],
    x_im: &mut [f64],
    prow_re: &mut [f64],
    prow_im: &mut [f64],
    sing: &mut [usize; LANES],
) {
    solve_lanes_impl(n, a_re, a_im, x_re, x_im, prow_re, prow_im, sing);
}

#[cfg(target_arch = "x86_64")]
#[allow(clippy::too_many_arguments)]
#[target_feature(enable = "avx2")]
unsafe fn solve_lanes_avx2(
    n: usize,
    a_re: &mut [f64],
    a_im: &mut [f64],
    x_re: &mut [f64],
    x_im: &mut [f64],
    prow_re: &mut [f64],
    prow_im: &mut [f64],
    sing: &mut [usize; LANES],
) {
    solve_lanes_impl(n, a_re, a_im, x_re, x_im, prow_re, prow_im, sing);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ac::{log_space, sweep};

    fn bits(c: Complex) -> (u64, u64) {
        (c.re.to_bits(), c.im.to_bits())
    }

    fn amplifier(gm: f64, r: f64, c: f64) -> (LinearCircuit, NodeId) {
        let mut ckt = LinearCircuit::new();
        let vin = ckt.node();
        let vout = ckt.node();
        ckt.add_vsource(vin, 0, 1.0);
        ckt.add_vccs(vout, 0, vin, 0, gm);
        ckt.add_resistor(vout, 0, r);
        ckt.add_capacitance(vout, 0, c);
        (ckt, vout)
    }

    #[test]
    fn batched_sweep_is_bit_identical_to_scalar() {
        let (ckt, out) = amplifier(1e-3, 1e6, 1e-12);
        let freqs = log_space(1.0, 1e12, 50);
        let scalar = sweep(&ckt, out, &freqs).unwrap();
        let mut fac = FactorizedCircuit::new(&ckt);
        let batched = fac.sweep(&ckt, out, &freqs).unwrap();
        assert_eq!(scalar.freqs, batched.freqs);
        for (i, (s, b)) in scalar.values.iter().zip(&batched.values).enumerate() {
            assert_eq!(bits(*s), bits(*b), "mismatch at sweep point {i}");
        }
    }

    #[test]
    fn reloading_new_values_matches_fresh_scalar_sweeps() {
        let freqs = log_space(10.0, 1e11, 23); // deliberately not a LANES multiple
        let (template, out) = amplifier(1e-3, 1e6, 1e-12);
        let mut fac = FactorizedCircuit::new(&template);
        for (gm, r, c) in [(2e-3, 5e5, 2e-12), (5e-4, 2e6, 4e-13), (1e-5, 1e4, 1e-15)] {
            let (ckt, out2) = amplifier(gm, r, c);
            assert_eq!(out, out2);
            let scalar = sweep(&ckt, out, &freqs).unwrap();
            let batched = fac.sweep(&ckt, out, &freqs).unwrap();
            for (s, b) in scalar.values.iter().zip(&batched.values) {
                assert_eq!(bits(*s), bits(*b));
            }
        }
    }

    #[test]
    fn singular_circuit_reports_identical_error() {
        // A floating node (no DC path, no element at all on `mid`'s row once
        // its only capacitor is zero-valued) makes the MNA matrix singular.
        let mut ckt = LinearCircuit::new();
        let vin = ckt.node();
        let mid = ckt.node();
        ckt.add_vsource(vin, 0, 1.0);
        ckt.add_capacitance(mid, 0, 0.0);
        let freqs = log_space(1.0, 1e6, 11);
        let scalar_err = sweep(&ckt, mid, &freqs).unwrap_err();
        let mut fac = FactorizedCircuit::new(&ckt);
        let batched_err = fac.sweep(&ckt, mid, &freqs).unwrap_err();
        assert_eq!(scalar_err, batched_err);
    }

    #[test]
    #[should_panic(expected = "structure differs")]
    fn structure_mismatch_panics() {
        let (a, out) = amplifier(1e-3, 1e6, 1e-12);
        let mut b = LinearCircuit::new();
        let n1 = b.node();
        b.add_resistor(n1, 0, 1.0);
        let mut fac = FactorizedCircuit::new(&b);
        let _ = fac.sweep(&a, out, &[1.0]);
    }

    #[test]
    fn replanning_sweep_rebuilds_on_a_new_structure() {
        let (a, out) = amplifier(1e-3, 1e6, 1e-12);
        let mut b = LinearCircuit::new();
        let n1 = b.node();
        b.add_resistor(n1, 0, 1.0);
        let mut fac = FactorizedCircuit::new(&b);
        let freqs = log_space(1.0, 1e9, 13);
        let replanned = fac.sweep_replanning(&a, out, &freqs).unwrap();
        assert!(fac.matches(&a));
        let scalar = sweep(&a, out, &freqs).unwrap();
        for (s, r) in scalar.values.iter().zip(&replanned.values) {
            assert_eq!(bits(*s), bits(*r));
        }
    }

    #[test]
    fn empty_circuit_sweeps_to_zero() {
        let ckt = LinearCircuit::new();
        let mut fac = FactorizedCircuit::new(&ckt);
        let resp = fac.sweep(&ckt, 0, &[1.0, 10.0, 100.0]).unwrap();
        assert!(resp.values.iter().all(|v| *v == Complex::ZERO));
    }
}
