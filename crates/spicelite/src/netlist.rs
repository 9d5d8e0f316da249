//! Small-signal netlist description for modified nodal analysis (MNA).
//!
//! [`LinearCircuit`] is a purely linear small-signal netlist (conductances,
//! capacitances, VCCSs, independent sources) consumed by the AC solver in
//! [`crate::ac`] and compiled by [`crate::batch::FactorizedCircuit`]. The
//! testbenches build it directly from closed-form bias points, stamping each
//! MOSFET through [`LinearCircuit::add_mos_small_signal`].
//!
//! Node 0 is always ground.

/// Identifier of a circuit node. Node `0` is ground.
pub type NodeId = usize;

/// A voltage-controlled current source: `i(out_p -> out_n) = gm * (v(in_p) - v(in_n))`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Vccs {
    /// Current exits this node.
    pub out_p: NodeId,
    /// Current enters this node.
    pub out_n: NodeId,
    /// Positive controlling node.
    pub in_p: NodeId,
    /// Negative controlling node.
    pub in_n: NodeId,
    /// Transconductance in siemens.
    pub gm: f64,
}

/// An independent AC current source pushing `amps` from `from` into `to`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CurrentSource {
    /// Node the current is pulled from.
    pub from: NodeId,
    /// Node the current is pushed into.
    pub to: NodeId,
    /// Source current in amperes.
    pub amps: f64,
}

/// A voltage-source branch `v(p) - v(n) = ac` (adds an MNA branch; an AC
/// short when `ac` is 0).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct VoltageSource {
    /// Positive terminal.
    pub p: NodeId,
    /// Negative terminal.
    pub n: NodeId,
    /// Small-signal (AC) amplitude; usually 0 except for the stimulus source.
    pub ac: f64,
}

/// A purely linear small-signal netlist for AC analysis.
#[derive(Debug, Clone, Default)]
pub struct LinearCircuit {
    num_nodes: usize,
    pub(crate) conductances: Vec<(NodeId, NodeId, f64)>,
    pub(crate) capacitances: Vec<(NodeId, NodeId, f64)>,
    pub(crate) vccs: Vec<Vccs>,
    pub(crate) isources: Vec<CurrentSource>,
    pub(crate) vsources: Vec<VoltageSource>,
}

impl LinearCircuit {
    /// Creates an empty linear circuit containing only ground.
    pub fn new() -> Self {
        Self::with_nodes(1)
    }

    /// Creates a linear circuit with `num_nodes` pre-allocated nodes
    /// (including ground).
    pub fn with_nodes(num_nodes: usize) -> Self {
        Self {
            num_nodes: num_nodes.max(1),
            ..Default::default()
        }
    }

    /// Allocates and returns a fresh node id.
    pub fn node(&mut self) -> NodeId {
        let id = self.num_nodes;
        self.num_nodes += 1;
        id
    }

    /// Total number of nodes, including ground.
    pub fn num_nodes(&self) -> usize {
        self.num_nodes
    }

    /// Number of voltage-source branches.
    pub fn num_vsources(&self) -> usize {
        self.vsources.len()
    }

    /// Adds a conductance (1/R) between `a` and `b`.
    pub fn add_conductance(&mut self, a: NodeId, b: NodeId, siemens: f64) {
        self.grow(a.max(b));
        self.conductances.push((a, b, siemens));
    }

    /// Adds a resistor between `a` and `b` (convenience wrapper).
    pub fn add_resistor(&mut self, a: NodeId, b: NodeId, ohms: f64) {
        self.add_conductance(a, b, 1.0 / ohms);
    }

    /// Adds a capacitance between `a` and `b`.
    pub fn add_capacitance(&mut self, a: NodeId, b: NodeId, farads: f64) {
        self.grow(a.max(b));
        self.capacitances.push((a, b, farads));
    }

    /// Adds a voltage-controlled current source.
    pub fn add_vccs(&mut self, out_p: NodeId, out_n: NodeId, in_p: NodeId, in_n: NodeId, gm: f64) {
        self.grow(out_p.max(out_n).max(in_p).max(in_n));
        self.vccs.push(Vccs {
            out_p,
            out_n,
            in_p,
            in_n,
            gm,
        });
    }

    /// Adds an AC current source pushing current from `from` into `to`.
    pub fn add_isource(&mut self, from: NodeId, to: NodeId, amps: f64) {
        self.grow(from.max(to));
        self.isources.push(CurrentSource { from, to, amps });
    }

    /// Adds a voltage-source branch with the given AC amplitude and returns its index.
    pub fn add_vsource(&mut self, p: NodeId, n: NodeId, ac: f64) -> usize {
        self.grow(p.max(n));
        self.vsources.push(VoltageSource { p, n, ac });
        self.vsources.len() - 1
    }

    /// Adds the full small-signal expansion of a MOSFET.
    #[allow(clippy::too_many_arguments)]
    pub fn add_mos_small_signal(
        &mut self,
        d: NodeId,
        g: NodeId,
        s: NodeId,
        b: NodeId,
        gm: f64,
        gds: f64,
        gmb: f64,
        cgs: f64,
        cgd: f64,
        cdb: f64,
        csb: f64,
    ) {
        self.add_vccs(d, s, g, s, gm);
        self.add_conductance(d, s, gds);
        if gmb > 0.0 {
            self.add_vccs(d, s, b, s, gmb);
        }
        self.add_capacitance(g, s, cgs);
        self.add_capacitance(g, d, cgd);
        self.add_capacitance(d, b, cdb);
        self.add_capacitance(s, b, csb);
    }

    fn grow(&mut self, max_node: NodeId) {
        if max_node >= self.num_nodes {
            self.num_nodes = max_node + 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn linear_circuit_grows_nodes_on_demand() {
        let mut lc = LinearCircuit::new();
        assert_eq!(lc.num_nodes(), 1);
        assert_eq!(lc.node(), 1);
        assert_eq!(lc.node(), 2);
        assert_eq!(lc.num_nodes(), 3);
        lc.add_conductance(3, 0, 1e-3);
        assert_eq!(lc.num_nodes(), 4);
        lc.add_capacitance(5, 2, 1e-12);
        assert_eq!(lc.num_nodes(), 6);
        assert_eq!(lc.node(), 6);
        let b = lc.add_vsource(1, 0, 1.0);
        assert_eq!(b, 0);
    }

    #[test]
    fn mos_small_signal_stamps_gds_gm_gmb_and_four_capacitances() {
        let (d, g, s, b) = (1, 2, 3, 4);
        let mut lc = LinearCircuit::new();
        lc.add_mos_small_signal(d, g, s, b, 1e-3, 2e-5, 3e-4, 1e-13, 2e-14, 3e-14, 4e-14);
        assert_eq!(lc.num_nodes(), 5);
        assert_eq!(lc.conductances, vec![(d, s, 2e-5)]);
        assert_eq!(
            lc.vccs,
            vec![
                Vccs {
                    out_p: d,
                    out_n: s,
                    in_p: g,
                    in_n: s,
                    gm: 1e-3,
                },
                Vccs {
                    out_p: d,
                    out_n: s,
                    in_p: b,
                    in_n: s,
                    gm: 3e-4,
                },
            ]
        );
        assert_eq!(
            lc.capacitances,
            vec![(g, s, 1e-13), (g, d, 2e-14), (d, b, 3e-14), (s, b, 4e-14)]
        );
        assert!(lc.isources.is_empty());
        assert_eq!(lc.num_vsources(), 0);

        // Without body effect the gmb VCCS is left out.
        let mut lc = LinearCircuit::new();
        lc.add_mos_small_signal(d, g, s, b, 1e-3, 2e-5, 0.0, 1e-13, 2e-14, 3e-14, 4e-14);
        assert_eq!(lc.vccs.len(), 1);
        assert_eq!(lc.conductances.len(), 1);
        assert_eq!(lc.capacitances.len(), 4);
    }
}
