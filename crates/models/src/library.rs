//! The model library: numeric and posynomial delay/slope/capacitance
//! evaluation over a circuit, sharing one set of coefficients.
//!
//! Models follow the paper's template (1)-(2):
//!
//! ```text
//! t      = t_int·k(kind) + Σᵢ factorᵢ·τ·C/Wᵢ + β·slope_in      (1)
//! slope  = slope_min + (g/τ)·Σᵢ factorᵢ·τ·C/Wᵢ                 (2)
//! ```
//!
//! Every term has a positive coefficient, so both are posynomial in the
//! label widths — the property the GP sizer depends on (paper §5.1: "a
//! necessary constraint on our models is that they be posynomial").

use smart_netlist::{Circuit, Component, LabelId, LoadKind, NetId, Sizing};
use smart_posy::{TermId, TermSum, TermTable, VarId, VarPool};

use crate::arcs::{drive, intrinsic_factor, Edge};
use crate::Process;

/// A numeric (delay, slope) pair in picoseconds.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Timing {
    /// Stage delay (ps).
    pub delay: f64,
    /// Output transition time (ps).
    pub slope: f64,
}

/// Numeric + posynomial model evaluation bound to one [`Process`].
#[derive(Debug, Clone, Default)]
pub struct ModelLibrary {
    process: Process,
}

impl ModelLibrary {
    /// A library over the given process.
    pub fn new(process: Process) -> Self {
        ModelLibrary { process }
    }

    /// A library over the reference process.
    pub fn reference() -> Self {
        Self::new(Process::reference())
    }

    /// The process constants.
    pub fn process(&self) -> &Process {
        &self.process
    }

    // ------------------------------------------------------------------
    // Capacitance
    // ------------------------------------------------------------------

    /// Numeric capacitance of `net` (width-equivalent units), including
    /// receiver gates, driver junctions and wire.
    pub fn net_cap(&self, circuit: &Circuit, net: NetId, sizing: &Sizing) -> f64 {
        circuit.net_cap(net, sizing, self.process.diff_factor)
    }

    /// Posynomial capacitance of `net` over the width variables `vars`
    /// (indexed by [`LabelId::index`]) plus the constant boundary load
    /// `extra`, written into `out` (cleared first).
    ///
    /// Mirrors [`ModelLibrary::net_cap`] term by term: wire, receiver
    /// loads, driver junctions, then `extra`. Zero wire and non-positive
    /// `extra` are skipped so every coefficient is positive.
    pub fn net_cap_terms(
        &self,
        table: &mut TermTable,
        circuit: &Circuit,
        net: NetId,
        vars: &[VarId],
        extra: f64,
        out: &mut TermSum,
    ) {
        out.clear();
        let wire = circuit.net(net).wire_cap;
        if wire > 0.0 {
            out.push(TermId::ONE, wire);
        }
        for &(comp, pin) in circuit.loads_of(net) {
            let c = circuit.comp(comp);
            for load in c.kind.input_load(pin) {
                let factor = match load.kind {
                    LoadKind::Gate => load.factor,
                    LoadKind::Diffusion => load.factor * self.process.diff_factor,
                };
                out.push(table.var(vars[c.label_of(load.role).index()], 1.0), factor);
            }
        }
        for &comp in circuit.drivers_of(net) {
            let c = circuit.comp(comp);
            for load in c.kind.output_self_load() {
                let id = table.var(vars[c.label_of(load.role).index()], 1.0);
                out.push(id, load.factor * self.process.diff_factor);
            }
        }
        if extra > 0.0 {
            out.push(TermId::ONE, extra);
        }
    }

    // ------------------------------------------------------------------
    // Drive
    // ------------------------------------------------------------------

    /// Numeric drive resistance of `comp` for an output `edge`:
    /// `R = Σ factorᵢ·τ/Wᵢ` (ps per width-unit of load).
    pub fn drive_resistance(&self, comp: &Component, edge: Edge, sizing: &Sizing) -> f64 {
        drive(
            &comp.kind,
            edge,
            self.process.p_mobility,
            self.process.pass_drive,
        )
        .iter()
        .map(|t| t.factor * self.process.tau / sizing.width(comp.label_of(t.role)))
        .sum()
    }

    /// Posynomial drive resistance (same terms as
    /// [`ModelLibrary::drive_resistance`], `1/W` rows), written into `out`
    /// (cleared first). A stage's `R·C` is then
    /// [`TermSum::add_product`] of these terms and the output net's
    /// [`ModelLibrary::net_cap_terms`], in that order.
    pub fn drive_terms(
        &self,
        table: &mut TermTable,
        comp: &Component,
        edge: Edge,
        vars: &[VarId],
        out: &mut TermSum,
    ) {
        out.clear();
        for t in drive(
            &comp.kind,
            edge,
            self.process.p_mobility,
            self.process.pass_drive,
        ) {
            let id = table.var(vars[comp.label_of(t.role).index()], -1.0);
            out.push(id, t.factor * self.process.tau);
        }
    }

    // ------------------------------------------------------------------
    // Stage timing
    // ------------------------------------------------------------------

    /// Numeric stage timing: delay and output slope of `comp` switching
    /// `edge`, driving total capacitance `c_total`, with input transition
    /// `slope_in`.
    pub fn stage_timing(
        &self,
        comp: &Component,
        edge: Edge,
        c_total: f64,
        slope_in: f64,
        sizing: &Sizing,
    ) -> Timing {
        let r = self.drive_resistance(comp, edge, sizing);
        let rc = r * c_total;
        Timing {
            delay: self.process.intrinsic * intrinsic_factor(&comp.kind)
                + rc
                + self.process.slope_to_delay * slope_in,
            slope: self.process.slope_min + self.process.slope_gain / self.process.tau * rc,
        }
    }

    /// Posynomial stage delay from the stage's `R·C` terms and the input
    /// slope terms, written into `out` (cleared first). Term order is the
    /// contract every timing builder relies on for bit-identical sums:
    /// intrinsic, then each `R·C` term, then each input-slope term times
    /// `slope_to_delay`.
    pub fn stage_delay_from_rc(
        &self,
        comp: &Component,
        rc: &[(TermId, f64)],
        slope_in: &[(TermId, f64)],
        out: &mut TermSum,
    ) {
        out.clear();
        out.push(TermId::ONE, self.process.intrinsic * intrinsic_factor(&comp.kind));
        out.add_scaled(rc, 1.0);
        out.add_scaled(slope_in, self.process.slope_to_delay);
    }

    /// Posynomial stage output slope from the stage's `R·C` terms, written
    /// into `out` (cleared first): `slope_min`, then each `R·C` term times
    /// `slope_gain / tau`.
    pub fn stage_slope_from_rc(&self, rc: &[(TermId, f64)], out: &mut TermSum) {
        out.clear();
        out.push(TermId::ONE, self.process.slope_min);
        out.add_scaled(rc, self.process.slope_gain / self.process.tau);
    }


}

/// Builds the GP variable pool for a circuit: one variable per size label,
/// named after the label, with `vars[label.index()] == var`.
pub fn label_vars(circuit: &Circuit) -> (VarPool, Vec<VarId>) {
    let mut pool = VarPool::new();
    let mut vars = Vec::with_capacity(circuit.labels().len());
    for (_, name) in circuit.labels().iter() {
        vars.push(pool.var(name));
    }
    (pool, vars)
}

/// Convenience: the width of `label` in `x` (a GP solution vector laid out
/// by [`label_vars`]).
pub fn width_from_solution(x: &[f64], label: LabelId) -> f64 {
    x[label.index()]
}

#[cfg(test)]
mod tests {
    use super::*;
    use smart_netlist::{ComponentKind, DeviceRole, Skew};

    /// inv -> inv chain with distinct labels.
    fn chain() -> (Circuit, NetId, NetId, NetId) {
        let mut c = Circuit::new("chain");
        let a = c.add_net("a").unwrap();
        let m = c.add_net("m").unwrap();
        let y = c.add_net("y").unwrap();
        let p1 = c.label("P1");
        let n1 = c.label("N1");
        let p2 = c.label("P2");
        let n2 = c.label("N2");
        c.add(
            "u1",
            ComponentKind::Inverter { skew: Skew::Balanced },
            &[a, m],
            &[(DeviceRole::PullUp, p1), (DeviceRole::PullDown, n1)],
        )
        .unwrap();
        c.add(
            "u2",
            ComponentKind::Inverter { skew: Skew::Balanced },
            &[m, y],
            &[(DeviceRole::PullUp, p2), (DeviceRole::PullDown, n2)],
        )
        .unwrap();
        c.expose_input("a", a);
        c.expose_output("y", y);
        (c, a, m, y)
    }

    #[test]
    fn posy_cap_matches_numeric_cap() {
        let (c, _, m, _) = chain();
        let lib = ModelLibrary::reference();
        let sizing = Sizing::from_widths(vec![2.0, 1.0, 4.0, 2.0]);
        let (_, vars) = label_vars(&c);
        let mut table = TermTable::new();
        let mut cap = TermSum::new();
        lib.net_cap_terms(&mut table, &c, m, &vars, 3.0, &mut cap);
        let numeric = lib.net_cap(&c, m, &sizing) + 3.0;
        let posy = table.view(cap.terms());
        assert!((posy.eval(sizing.as_slice()) - numeric).abs() < 1e-9);
    }

    #[test]
    fn posy_delay_matches_numeric_delay() {
        let (c, _, m, _) = chain();
        let lib = ModelLibrary::reference();
        let sizing = Sizing::from_widths(vec![2.0, 1.0, 4.0, 2.0]);
        let (_, vars) = label_vars(&c);
        let u1 = c.find_comp("u1").unwrap();
        let comp = c.comp(u1);
        let mut table = TermTable::new();
        let [mut cap, mut r, mut rc, mut out] = std::array::from_fn(|_| TermSum::new());
        lib.net_cap_terms(&mut table, &c, m, &vars, 0.0, &mut cap);
        for edge in [Edge::Rise, Edge::Fall] {
            let c_num = lib.net_cap(&c, m, &sizing);
            let numeric = lib.stage_timing(comp, edge, c_num, 10.0, &sizing);
            lib.drive_terms(&mut table, comp, edge, &vars, &mut r);
            rc.clear();
            rc.add_product(&mut table, r.terms(), cap.terms());
            lib.stage_delay_from_rc(comp, rc.terms(), &[(TermId::ONE, 10.0)], &mut out);
            let delay = table.view(out.terms()).eval(sizing.as_slice());
            assert!((delay - numeric.delay).abs() < 1e-9, "{edge:?}");
            lib.stage_slope_from_rc(rc.terms(), &mut out);
            let slope = table.view(out.terms()).eval(sizing.as_slice());
            assert!((slope - numeric.slope).abs() < 1e-9);
        }
    }

    #[test]
    fn rise_is_slower_than_fall_at_equal_widths() {
        let (c, _, _, _) = chain();
        let lib = ModelLibrary::reference();
        let sizing = Sizing::from_widths(vec![1.0, 1.0, 1.0, 1.0]);
        let u1 = c.find_comp("u1").unwrap();
        let comp = c.comp(u1);
        let r = lib.stage_timing(comp, Edge::Rise, 4.0, 10.0, &sizing);
        let f = lib.stage_timing(comp, Edge::Fall, 4.0, 10.0, &sizing);
        assert!(r.delay > f.delay, "PMOS mobility derating");
    }

    #[test]
    fn bigger_driver_is_faster_but_loads_more() {
        let (c, _, m, _) = chain();
        let lib = ModelLibrary::reference();
        let small = Sizing::from_widths(vec![1.0, 1.0, 1.0, 1.0]);
        let big = Sizing::from_widths(vec![8.0, 8.0, 1.0, 1.0]);
        let u1 = c.find_comp("u1").unwrap();
        let comp = c.comp(u1);
        let cap = lib.net_cap(&c, m, &small);
        let t_small = lib.stage_timing(comp, Edge::Fall, cap, 10.0, &small);
        let t_big = lib.stage_timing(comp, Edge::Fall, cap, 10.0, &big);
        assert!(t_big.delay < t_small.delay);
        // But the bigger driver's own junction makes net m heavier.
        assert!(lib.net_cap(&c, m, &big) > lib.net_cap(&c, m, &small));
    }

    #[test]
    fn label_vars_are_index_aligned() {
        let (c, _, _, _) = chain();
        let (pool, vars) = label_vars(&c);
        assert_eq!(pool.len(), c.labels().len());
        for (label, name) in c.labels().iter() {
            assert_eq!(vars[label.index()].index(), label.index());
            assert_eq!(pool.name(vars[label.index()]), name);
        }
    }
}
