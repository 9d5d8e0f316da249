//! Shared batched-evaluation plumbing for the benchmark testbenches.
//!
//! Both benchmark circuits split their evaluation into a *prepare* step
//! (netlist assembly plus all analytic figures — swing, power, area, offset,
//! saturation flags) and an AC sweep that extracts `A0`, `GBW` and `PM`. The
//! scalar [`Testbench::evaluate`](crate::Testbench::evaluate) path runs the
//! reference [`spicelite::ac::sweep`] per sample; the batched path here reuses
//! one [`FactorizedCircuit`] across all samples of a block, which skips the
//! per-sample symbolic/structural analysis and solves the sweep over
//! contiguous SIMD lanes. `FactorizedCircuit::sweep` is bit-identical to the
//! scalar sweep by construction (see `spicelite::batch`), so the two paths
//! produce bitwise-equal performances — the `batch_equivalence` integration
//! suite pins this.

use crate::specs::AmplifierPerformance;
use moheco_process::ProcessSample;
use spicelite::ac::log_space;
use spicelite::batch::FactorizedCircuit;
use spicelite::mosfet::{vgs_for_currents, BiasRequest, MosOperatingPoint, Mosfet};
use spicelite::netlist::{LinearCircuit, NodeId};
use std::sync::OnceLock;

/// The AC analysis grid shared by both benchmark circuits: 50 log-spaced
/// points from 1 kHz to 30 GHz. The scalar path recomputes it per sample (the
/// historical behaviour); the batched path reuses this cached copy —
/// `log_space` is pure, so the values are identical.
pub(crate) fn sweep_freqs() -> &'static [f64] {
    static FREQS: OnceLock<Vec<f64>> = OnceLock::new();
    FREQS.get_or_init(|| log_space(1e3, 3e10, 50))
}

/// Everything a testbench knows about one sample before the AC sweep.
pub(crate) struct PreparedSample {
    /// Assembled small-signal half circuit.
    pub ckt: LinearCircuit,
    /// Output node to probe.
    pub out: NodeId,
    /// Analytic output swing (V).
    pub output_swing_v: f64,
    /// Analytic power (W).
    pub power_w: f64,
    /// Analytic area (µm²).
    pub area_um2: f64,
    /// Analytic input-referred offset (V).
    pub offset_v: f64,
    /// Saturation / headroom verdict.
    pub all_saturated: bool,
}

impl PreparedSample {
    /// Combines the analytic figures with the AC figures of merit.
    pub fn into_performance(self, a0_db: f64, gbw_hz: f64, pm_deg: f64) -> AmplifierPerformance {
        AmplifierPerformance {
            a0_db,
            gbw_hz,
            pm_deg,
            output_swing_v: self.output_swing_v,
            power_w: self.power_w,
            area_um2: self.area_um2,
            offset_v: self.offset_v,
            all_saturated: self.all_saturated,
        }
    }
}

/// Solves the bias points of `N` devices with one lane call: the gate
/// voltage that drives each `(device, branch current, |Vds|)` triple's
/// current with source at bulk, then the operating point there. `None` when
/// any device has no bias solution.
pub(crate) fn operating_points<const N: usize>(
    devices: [(&Mosfet, f64, f64); N],
) -> Option<[MosOperatingPoint; N]> {
    let requests = devices.map(|(device, id_target, vds)| BiasRequest {
        device,
        id_target,
        vds,
        vsb: 0.0,
    });
    let mut vgs = [0.0; N];
    for (v, solved) in vgs.iter_mut().zip(vgs_for_currents(&requests)) {
        *v = solved.ok()?;
    }
    Some(std::array::from_fn(|l| {
        let r = &requests[l];
        r.device.operating_point(vgs[l], r.vds, r.vsb)
    }))
}

/// Runs a block of process samples through `prepare` and a shared factorized
/// AC sweep. Samples whose preparation fails (bad geometry, no bias solution)
/// or whose sweep hits a singular matrix map to
/// [`AmplifierPerformance::failed`], exactly as on the scalar path.
pub(crate) fn evaluate_block_batched<F>(
    xis: &[ProcessSample],
    prepare: F,
) -> Vec<AmplifierPerformance>
where
    F: Fn(&ProcessSample) -> Option<PreparedSample>,
{
    let freqs = sweep_freqs();
    let mut fac: Option<FactorizedCircuit> = None;
    xis.iter()
        .map(|xi| {
            let Some(p) = prepare(xi) else {
                return AmplifierPerformance::failed();
            };
            // All samples of a block share the design point, so the netlist
            // structure is fixed; `sweep_replanning` only rebuilds the plan if
            // that ever stops holding (e.g. a future conditional topology).
            let fac = fac.get_or_insert_with(|| FactorizedCircuit::new(&p.ckt));
            match fac.sweep_replanning(&p.ckt, p.out, freqs) {
                Ok(resp) => {
                    let foms = resp.foms();
                    let (gbw_hz, pm_deg) = match (foms.unity_gain_freq, foms.phase_margin_deg) {
                        (Ok(f), Ok(pm)) => (f, pm),
                        _ => (0.0, 0.0),
                    };
                    p.into_performance(foms.dc_gain_db, gbw_hz, pm_deg)
                }
                Err(_) => AmplifierPerformance::failed(),
            }
        })
        .collect()
}
