//! `spicelite` — a lightweight analog circuit simulation substrate.
//!
//! The MOHECO reproduction needs a circuit performance evaluator playing the
//! role Synopsys HSPICE plays in the paper: given transistor sizes and a
//! sample of process-variation parameters, report amplifier performances
//! (DC gain, GBW, phase margin, output swing, power, offset, area). This
//! crate provides the simulation building blocks:
//!
//! * [`complex`] / [`linalg`] — the numerical kernels (complex arithmetic,
//!   dense LU with partial pivoting, Cholesky).
//! * [`mosfet`] — a square-law MOSFET compact model whose parameters
//!   (`TOX`, `VTH0`, `LD`, `WD`, mobility, junction caps) are exactly the
//!   quantities the paper's statistical process models perturb; closed-form
//!   bias points come from its `vgs_for_current(s)` inversion.
//! * [`netlist`] — the small-signal netlist ([`netlist::LinearCircuit`]),
//!   stamped into MNA by [`ac`] and by [`batch::FactorizedCircuit`].
//! * [`ac`] — complex MNA frequency sweeps and figure-of-merit extraction
//!   (DC gain, unity-gain frequency, phase margin).
//!
//! # Example
//!
//! ```
//! use spicelite::ac::{log_space, sweep};
//! use spicelite::netlist::LinearCircuit;
//!
//! // A single-pole transconductance amplifier: A0 = gm * R, GBW = gm / (2*pi*C).
//! let mut ckt = LinearCircuit::new();
//! let vin = ckt.node();
//! let vout = ckt.node();
//! ckt.add_vsource(vin, 0, 1.0);
//! ckt.add_vccs(vout, 0, vin, 0, 1e-3);
//! ckt.add_resistor(vout, 0, 1e6);
//! ckt.add_capacitance(vout, 0, 1e-12);
//!
//! let resp = sweep(&ckt, vout, &log_space(1.0, 1e12, 200))?;
//! assert!(resp.dc_gain_db() > 59.0);
//! let gbw = resp.unity_gain_freq()?;
//! assert!(gbw > 1e8);
//! # Ok::<(), spicelite::error::SpiceError>(())
//! ```

#![warn(missing_docs)]

pub mod ac;
pub mod batch;
pub mod complex;
pub mod error;
pub mod linalg;
pub mod mosfet;
pub mod netlist;

pub use ac::{log_space, sweep, AcFoms, FrequencyResponse};
pub use batch::FactorizedCircuit;
pub use complex::Complex;
pub use error::SpiceError;
pub use linalg::{CMatrix, Matrix};
pub use mosfet::{
    model_035um, model_90nm, MosGeometry, MosModel, MosOperatingPoint, MosType, Mosfet, Region,
};
pub use netlist::{LinearCircuit, NodeId};
