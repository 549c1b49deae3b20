//! Constraint generation — the "constraint generator" box of the paper's
//! Fig. 4: timing constraints on the compacted paths, slope constraints,
//! device-size bounds, noise rules and designer pins, all posynomial.

use std::collections::{HashMap, HashSet};

use smart_gp::{GpError, GpProblem};
use smart_models::arcs::Edge;
use smart_models::{label_vars, ModelLibrary, TermId, TermSum, TermTable};
use smart_netlist::{Circuit, ComponentKind, DeviceRole, NetId, NetKind};
use smart_posy::{Monomial, Posynomial, VarId};
use smart_sta::Boundary;

use crate::compact::Compaction;
use crate::{CostMetric, DelaySpec, FlowError, SizingOptions};

/// Per-label coefficients of a cost objective.
fn width_weights(circuit: &Circuit) -> Vec<f64> {
    let mut w = vec![0.0; circuit.labels().len()];
    for (_, comp) in circuit.components() {
        for spec in comp.kind.roles() {
            w[comp.label_of(spec.role).index()] += spec.width_factor * spec.mult as f64;
        }
    }
    w
}

/// Power weights: width weighted by the switching activity of the net
/// charging each device's gate (clocked devices are the expensive ones —
/// the mechanism behind the paper's clock-load savings in Table 1).
fn power_weights(circuit: &Circuit, lib: &ModelLibrary) -> Vec<f64> {
    use smart_netlist::{LoadKind, NetKind};
    let mut w = vec![0.0; circuit.labels().len()];
    let act = |kind: NetKind| match kind {
        NetKind::Clock => 2.0,
        NetKind::Dynamic => 0.75,
        NetKind::Signal => lib.process().default_activity,
    };
    for (id, net) in circuit.nets() {
        let a = act(net.kind);
        for &(comp_id, pin) in circuit.loads_of(id) {
            let comp = circuit.comp(comp_id);
            for load in comp.kind.input_load(pin) {
                let f = match load.kind {
                    LoadKind::Gate => load.factor,
                    LoadKind::Diffusion => load.factor * lib.process().diff_factor,
                };
                w[comp.label_of(load.role).index()] += a * f;
            }
        }
    }
    // Driver junction capacitance switches with the driven net too.
    for (id, net) in circuit.nets() {
        let a = act(net.kind);
        for &comp_id in circuit.drivers_of(id) {
            let comp = circuit.comp(comp_id);
            for load in comp.kind.output_self_load() {
                w[comp.label_of(load.role).index()] +=
                    a * load.factor * lib.process().diff_factor;
            }
        }
    }
    w
}

/// Builds the cost objective posynomial.
pub fn cost_objective(
    circuit: &Circuit,
    lib: &ModelLibrary,
    vars: &[VarId],
    cost: CostMetric,
) -> Posynomial {
    let weights = match cost {
        CostMetric::Width => width_weights(circuit),
        CostMetric::Power => power_weights(circuit, lib),
    };
    let mut obj = Posynomial::zero();
    for (i, &w) in weights.iter().enumerate() {
        if w > 0.0 {
            obj += Monomial::new(w).pow(vars[i], 1.0);
        }
    }
    obj
}

/// Everything needed to solve one sizing GP: the problem plus the
/// label-variable mapping.
pub struct SizingGp {
    /// The assembled geometric program.
    pub gp: GpProblem,
    /// `vars[label.index()]` is the width variable of that label.
    pub vars: Vec<VarId>,
    /// Number of timing constraints emitted.
    pub timing_constraints: usize,
    /// Number of slope constraints emitted.
    pub slope_constraints: usize,
    /// Terms pushed into posynomial sums while building (new terms and
    /// merges alike): the build's deterministic work counter.
    pub term_pushes: usize,
    /// Spec-independent halves of the timing constraints, kept so
    /// [`SizingGp::retarget`] can rescale them in place.
    timing: Vec<TimingEntry>,
}

/// One timing constraint's spec-independent part. The delay posynomial is
/// by far the most expensive piece of GP assembly (capacitance and stage
/// models evaluated along every compacted path), and retargeting only
/// changes the scalar budget it is divided by — so the Fig.-4 loop keeps
/// the undivided coefficients and re-divides instead of rebuilding.
struct TimingEntry {
    /// Index of the constraint inside [`SizingGp::gp`].
    index: usize,
    /// Coefficients of the end-to-end path delay, *before* division by the
    /// budget, in the order of the constraint body's terms.
    delay: Vec<f64>,
    /// Selects the precharge budget instead of the data budget.
    is_precharge: bool,
    /// Segments the class was cut into (non-OTB mode); each segment
    /// receives `budget / seg_count`.
    seg_count: usize,
}

impl SizingGp {
    /// Rescales every timing constraint to `spec` in place. The result is
    /// the problem [`build_sizing_gp`] would assemble at `spec`, bit for
    /// bit — only the budget divisor changed — at none of the
    /// model-evaluation cost. On a GP without retarget entries (the
    /// min-delay formulation bounds paths by a variable, not a spec) this
    /// is a no-op.
    ///
    /// # Errors
    ///
    /// None today; the `Result` is kept for callers that chain it with the
    /// fallible build.
    pub fn retarget(&mut self, spec: &DelaySpec) -> Result<(), GpError> {
        for e in &self.timing {
            let budget = if e.is_precharge {
                spec.precharge_budget()
            } else {
                spec.data
            };
            self.gp
                .rescale_le(e.index, &e.delay, budget / e.seg_count as f64);
        }
        Ok(())
    }
}

/// Path-delay posynomials of one GP build, shared by [`build_sizing_gp`]
/// and [`build_min_delay_gp`].
///
/// Every sum lives in one per-build [`TermTable`]. The same arc appears on
/// many compacted paths (classes share prefixes and fanout cones), but its
/// `R·C` product and output slope depend only on the arc, so both are
/// built once per arc and corner and kept in `cached`; a path then only
/// merges stage sums. The bits match a term-by-term `Posynomial` build
/// because every step keeps its order: `R` terms × cap terms for `R·C`,
/// the stage order of [`ModelLibrary::stage_delay_from_rc`], each stage
/// merged into its own sum before that sum is merged into the path.
struct PathDelays<'a> {
    circuit: &'a Circuit,
    compaction: &'a Compaction,
    boundary: &'a Boundary,
    extra_loads: &'a HashMap<NetId, f64>,
    vars: &'a [VarId],
    table: TermTable,
    /// `[start, mid, end]` of arc `ai`'s sums in `cached` at the current
    /// corner: `R·C` is `cached[start..mid]`, the output slope
    /// `cached[mid..end]`.
    arc_sums: Vec<Option<[usize; 3]>>,
    cached: Vec<(TermId, f64)>,
    cap: TermSum,
    drive: TermSum,
    rc: TermSum,
    slope: TermSum,
    stage: TermSum,
    /// The last path built by [`PathDelays::delay`].
    path: TermSum,
}

impl PathDelays<'_> {
    /// Terms pushed into every sum so far.
    fn pushes(&self) -> usize {
        [&self.cap, &self.drive, &self.rc, &self.slope, &self.stage, &self.path]
            .iter()
            .map(|sum| sum.pushes())
            .sum()
    }
}

impl<'a> PathDelays<'a> {
    fn new(
        circuit: &'a Circuit,
        compaction: &'a Compaction,
        boundary: &'a Boundary,
        extra_loads: &'a HashMap<NetId, f64>,
        vars: &'a [VarId],
    ) -> Self {
        PathDelays {
            circuit,
            compaction,
            boundary,
            extra_loads,
            vars,
            table: TermTable::new(),
            arc_sums: vec![None; compaction.graph.arcs.len()],
            cached: Vec::new(),
            cap: TermSum::new(),
            drive: TermSum::new(),
            rc: TermSum::new(),
            slope: TermSum::new(),
            stage: TermSum::new(),
            path: TermSum::new(),
        }
    }

    /// Forgets the per-arc sums, whose coefficients belong to the previous
    /// corner. Rows do not depend on the corner, so the table stays.
    fn next_corner(&mut self) {
        self.arc_sums.fill(None);
        self.cached.clear();
    }

    /// Arrival time and slope of the input port on `net`. The default
    /// slope floor derates with the corner.
    fn input_time(&self, net: NetId, clib: &ModelLibrary) -> (f64, f64) {
        let default = (
            0.0,
            self.boundary.default_slope.unwrap_or(clib.process().slope_min),
        );
        self.circuit
            .input_ports()
            .find(|port| port.net == net)
            .and_then(|port| self.boundary.input_times.get(&port.name).copied())
            .unwrap_or(default)
    }

    /// The `[start, mid, end]` of arc `ai`'s `R·C` and output-slope sums in
    /// `cached`, built on first use at this corner.
    fn arc(&mut self, ai: usize, clib: &ModelLibrary) -> [usize; 3] {
        if let Some(sums) = self.arc_sums[ai] {
            return sums;
        }
        let arc = &self.compaction.graph.arcs[ai];
        let comp = self.circuit.comp(arc.comp);
        let extra = self.extra_loads.get(&arc.to.net).copied().unwrap_or(0.0);
        let table = &mut self.table;
        clib.net_cap_terms(table, self.circuit, arc.to.net, self.vars, extra, &mut self.cap);
        clib.drive_terms(table, comp, arc.to.edge, self.vars, &mut self.drive);
        self.rc.clear();
        self.rc.add_product(table, self.drive.terms(), self.cap.terms());
        clib.stage_slope_from_rc(self.rc.terms(), &mut self.slope);
        let start = self.cached.len();
        self.cached.extend_from_slice(self.rc.terms());
        let mid = self.cached.len();
        self.cached.extend_from_slice(self.slope.terms());
        let sums = [start, mid, self.cached.len()];
        self.arc_sums[ai] = Some(sums);
        sums
    }

    /// Builds into `self.path` the delay of the arc sequence `arcs` leaving
    /// the input on `source`: the source's arrival time when `launch` (the
    /// first segment of a class), then each stage, the first driven by the
    /// source's slope and every later one by the previous stage's.
    fn delay(&mut self, clib: &ModelLibrary, source: NetId, arcs: &[usize], launch: bool) {
        let (t0, s0) = self.input_time(source, clib);
        self.path.clear();
        if launch && t0 > 0.0 {
            self.path.push(TermId::ONE, t0);
        }
        let input_slope = [(TermId::ONE, s0.max(1e-3))];
        let mut slope_in = None;
        for &ai in arcs {
            let [start, mid, end] = self.arc(ai, clib);
            let comp = self.circuit.comp(self.compaction.graph.arcs[ai].comp);
            let slope = slope_in.map_or(&input_slope[..], |(a, b)| &self.cached[a..b]);
            clib.stage_delay_from_rc(comp, &self.cached[start..mid], slope, &mut self.stage);
            self.path.add_scaled(self.stage.terms(), 1.0);
            slope_in = Some((mid, end));
        }
    }
}

/// The arcs that get an edge-rate rule, in arc order: one per physical
/// stage, deduplicated on exact equality of (label bindings, component
/// kind, output edge, output-net capacitance composition with
/// coefficients by bits). None of these depends on the corner, so the
/// choice is made once per build; each corner then emits one rule per
/// chosen arc, since the slope posynomial carries corner coefficients.
///
/// Dynamic nodes are exempt from the static edge-rate rule: their
/// discharge slope is set by the stack the topology chose (wide un-split
/// dominos are inherently slow there — the reason the partitioned
/// topology exists) and is already governed by the evaluate timing
/// constraints plus the noise rule.
fn slope_rule_arcs(circuit: &Circuit, compaction: &Compaction) -> Vec<usize> {
    let mut seen = HashSet::new();
    let mut chosen = Vec::new();
    for (ai, arc) in compaction.graph.arcs.iter().enumerate() {
        if circuit.net(arc.to.net).kind == NetKind::Dynamic {
            continue;
        }
        let bindings = circuit.comp(arc.comp).label_bindings();
        let cap = compaction.net_cap_ids[arc.to.net.index()];
        if seen.insert((bindings, compaction.arc_kinds[ai], arc.to.edge, cap)) {
            chosen.push(ai);
        }
    }
    chosen
}

/// Assembles the sizing GP from a compaction.
///
/// Timing constraints follow the paper's taxonomy automatically, because
/// the timing graph already expands them: static gates contribute
/// rise+fall path variants (two constraints per path), pass/tri-state
/// control pins contribute all four edge pairs, domino gates contribute
/// separate precharge and evaluate paths. Paths are timed end-to-end
/// across domino stage boundaries, which is what gives the formulation
/// its automatic Opportunistic Time Borrowing (paper §5.3): a fast D1
/// stage donates its slack to the D2 stage sharing the path.
///
/// With a multi-corner [`SizingOptions::corners`] set, the whole
/// timing + slope constraint family is emitted once per corner over the
/// *same* width variables — max-over-corners as one posynomial constraint
/// per corner against the shared budget — so the GP's feasible region is
/// the intersection of every corner's. The cost objective, size bounds,
/// noise rules and pins are corner-invariant (width-space only) and are
/// emitted once, from the primary library. A singleton corner set emits
/// exactly the single-corner constraint sequence.
///
/// # Errors
///
/// [`FlowError::UnknownPin`] if a pinned label name is absent.
#[allow(clippy::too_many_arguments)]
pub fn build_sizing_gp(
    circuit: &Circuit,
    lib: &ModelLibrary,
    compaction: &Compaction,
    boundary: &Boundary,
    extra_loads: &HashMap<NetId, f64>,
    spec: &DelaySpec,
    opts: &SizingOptions,
) -> Result<SizingGp, FlowError> {
    let (pool, vars) = label_vars(circuit);
    let mut gp = GpProblem::new(pool);
    gp.set_objective(cost_objective(circuit, lib, &vars, opts.cost));

    let corner_libs = crate::spec::resolve_corner_libs(lib, opts);
    let multi = corner_libs.len() > 1;
    let mut timing_constraints = 0;
    let mut timing = Vec::new();
    let mut slope_constraints = 0;
    let slope_arcs = slope_rule_arcs(circuit, compaction);
    let mut paths = PathDelays::new(circuit, compaction, boundary, extra_loads, &vars);
    for (cname, clib) in &corner_libs {
        paths.next_corner();
        // Timing constraints. With OTB (default, the paper's formulation)
        // each compacted class yields ONE end-to-end constraint, so slack
        // borrows freely across domino stage boundaries. Without OTB the
        // class is cut at every dynamic node and each segment receives an
        // equal share of the budget — the conventional hard-boundary
        // discipline, kept for the ablation study.
        for (ci, class) in compaction.classes.iter().enumerate() {
            let budget = if class.is_precharge {
                spec.precharge_budget()
            } else {
                spec.data
            };
            let segments: Vec<&[usize]> = if opts.otb {
                vec![&class.arcs[..]]
            } else {
                let mut segs = Vec::new();
                let mut start = 0;
                for (k, &ai) in class.arcs.iter().enumerate() {
                    let to = compaction.graph.arcs[ai].to.net;
                    if circuit.net(to).kind == NetKind::Dynamic {
                        segs.push(&class.arcs[start..=k]);
                        start = k + 1;
                    }
                }
                if start < class.arcs.len() {
                    segs.push(&class.arcs[start..]);
                }
                segs
            };
            let seg_count = segments.len();
            for (si, seg) in segments.into_iter().enumerate() {
                paths.delay(clib, class.source.net, seg, si == 0);
                // Labels stay byte-identical to the historical single-
                // corner form unless the set actually has several members.
                let label = if multi {
                    format!(
                        "path{ci}.{si} {} -> {} ({}) @{cname}",
                        circuit.net(class.source.net).name,
                        circuit.net(class.endpoint.net).name,
                        if class.is_precharge { "pre" } else { "eval" }
                    )
                } else {
                    format!(
                        "path{ci}.{si} {} -> {} ({})",
                        circuit.net(class.source.net).name,
                        circuit.net(class.endpoint.net).name,
                        if class.is_precharge { "pre" } else { "eval" }
                    )
                };
                let delay = paths.path.terms();
                timing.push(TimingEntry {
                    index: gp.constraints().len(),
                    delay: delay.iter().map(|&(_, c)| c).collect(),
                    is_precharge: class.is_precharge,
                    seg_count,
                });
                let body = paths.table.posynomial(delay);
                gp.add_le_const(label, body, budget / seg_count as f64)?;
                timing_constraints += 1;
            }
        }

        // Slope (reliability) constraints, one per chosen arc per corner.
        for &ai in &slope_arcs {
            let arc = &compaction.graph.arcs[ai];
            let comp = circuit.comp(arc.comp);
            let [_, mid, end] = paths.arc(ai, clib);
            let slope = paths.table.posynomial(&paths.cached[mid..end]);
            // Shared (multi-driver) nets — pass-gate and tri-state buses —
            // carry the junction load of every off driver, which puts a
            // floor on their edge rate; projects exempt such nodes from
            // the single-driver rule, so the limit scales with driver
            // count.
            let drivers = circuit.drivers_of(arc.to.net).len().max(1) as f64;
            let label = if multi {
                format!("slope {} {:?} @{cname}", comp.path, arc.to.edge)
            } else {
                format!("slope {} {:?}", comp.path, arc.to.edge)
            };
            gp.add_le_const(label, slope, opts.slope_max * drivers)?;
            slope_constraints += 1;
        }
    }

    let term_pushes = paths.pushes();

    // Device size bounds.
    for (label, _) in circuit.labels().iter() {
        let v = vars[label.index()];
        gp.add_lower_bound(v, lib.process().w_min);
        gp.add_upper_bound(v, lib.process().w_max);
    }

    // Dynamic-circuit methodology rules (emitted together under the noise
    // switch): (a) the precharge device keeps a minimum strength relative
    // to the data pull-down, so leakage through a wide network cannot
    // collapse the node; (b) clocked devices (precharge, evaluate foot)
    // stay within a fixed ratio of the data stack — the clock-load
    // discipline every domino methodology imposes, without which a width
    // objective trades N small data devices for one huge clocked one.
    if opts.noise_constraints {
        let mut seen_noise: HashSet<Vec<usize>> = HashSet::new();
        for (_, comp) in circuit.components() {
            if let ComponentKind::Domino {
                ref network,
                clocked_eval,
            } = comp.kind
            {
                let pre = comp.label_of(DeviceRole::Precharge);
                let data = comp.label_of(DeviceRole::DataN);
                let branches = network.top_branch_count();
                let key = vec![pre.index(), data.index(), clocked_eval as usize, branches];
                if !seen_noise.insert(key) {
                    continue;
                }
                // Leakage scales with the number of parallel pull-down
                // branches on the node, so the precharge strength floor
                // does too — the mechanism that makes very wide dynamic
                // nodes (Xorsum4, un-split muxes) expensive in practice.
                gp.add_le(
                    format!("noise {}", comp.path),
                    Posynomial::from(
                        Monomial::new(0.08 * branches as f64)
                            .pow(vars[data.index()], 1.0)
                            .pow(vars[pre.index()], -1.0),
                    ),
                    Monomial::one(),
                )?;
                gp.add_le(
                    format!("clk-ratio pre {}", comp.path),
                    Posynomial::from(
                        Monomial::new(1.0 / 2.0)
                            .pow(vars[pre.index()], 1.0)
                            .pow(vars[data.index()], -1.0),
                    ),
                    Monomial::one(),
                )?;
                if clocked_eval {
                    let foot = comp.label_of(DeviceRole::Evaluate);
                    gp.add_le(
                        format!("clk-ratio foot {}", comp.path),
                        Posynomial::from(
                            Monomial::new(1.0 / 2.0)
                                .pow(vars[foot.index()], 1.0)
                                .pow(vars[data.index()], -1.0),
                        ),
                        Monomial::one(),
                    )?;
                }
            }
        }
    }

    // Designer pins.
    for (name, &value) in &opts.pinned {
        let label = circuit
            .labels()
            .lookup(name)
            .ok_or_else(|| FlowError::UnknownPin { name: name.clone() })?;
        gp.pin(vars[label.index()], value);
    }

    Ok(SizingGp {
        gp,
        vars,
        timing_constraints,
        slope_constraints,
        term_pushes,
        timing,
    })
}

/// Builds a *delay-minimization* GP: an auxiliary variable `T` bounds all
/// paths and is itself minimized (used to find the fastest achievable
/// point of a topology, the left end of Fig. 6's curve).
///
/// # Errors
///
/// Same as [`build_sizing_gp`].
pub fn build_min_delay_gp(
    circuit: &Circuit,
    lib: &ModelLibrary,
    compaction: &Compaction,
    boundary: &Boundary,
    extra_loads: &HashMap<NetId, f64>,
    opts: &SizingOptions,
) -> Result<(SizingGp, VarId), FlowError> {
    // Assemble with a dummy budget, then rewrite: paths ≤ T. With a
    // multi-corner set, every corner's paths bound the same T — the
    // minimized delay is the worst corner's achievable delay.
    let (pool, vars) = label_vars(circuit);
    let mut gp = GpProblem::new(pool);
    let t_var = gp.pool_mut().var("__T");
    gp.set_objective(Posynomial::var(t_var));

    let corner_libs = crate::spec::resolve_corner_libs(lib, opts);
    let multi = corner_libs.len() > 1;
    let mut timing_constraints = 0;
    let mut paths = PathDelays::new(circuit, compaction, boundary, extra_loads, &vars);
    let per_t = [(paths.table.var(t_var, -1.0), 1.0)];
    let mut bounded = TermSum::new();
    for (cname, clib) in &corner_libs {
        paths.next_corner();
        for (ci, class) in compaction.classes.iter().enumerate() {
            paths.delay(clib, class.source.net, &class.arcs, true);
            bounded.clear();
            bounded.add_product(&mut paths.table, paths.path.terms(), &per_t);
            let label = if multi {
                format!("path{ci} <= T @{cname}")
            } else {
                format!("path{ci} <= T")
            };
            gp.add_le_const(label, paths.table.posynomial(bounded.terms()), 1.0)?;
            timing_constraints += 1;
        }
    }
    let term_pushes = paths.pushes() + bounded.pushes();
    for (label, _) in circuit.labels().iter() {
        let v = vars[label.index()];
        gp.add_lower_bound(v, lib.process().w_min);
        gp.add_upper_bound(v, lib.process().w_max);
    }
    gp.add_lower_bound(t_var, 1e-3);
    gp.add_upper_bound(t_var, 1e7);
    for (name, &value) in &opts.pinned {
        let label = circuit
            .labels()
            .lookup(name)
            .ok_or_else(|| FlowError::UnknownPin { name: name.clone() })?;
        gp.pin(vars[label.index()], value);
    }
    Ok((
        SizingGp {
            gp,
            vars,
            timing_constraints,
            slope_constraints: 0,
            term_pushes,
            timing: Vec::new(),
        },
        t_var,
    ))
}

/// Maps output-port boundary loads to nets.
pub fn boundary_extra_loads(circuit: &Circuit, boundary: &Boundary) -> HashMap<NetId, f64> {
    let mut m = HashMap::new();
    for port in circuit.output_ports() {
        if let Some(&l) = boundary.output_loads.get(&port.name) {
            *m.entry(port.net).or_insert(0.0) += l;
        }
    }
    m
}

/// Re-exported edge alias to keep `smart_models` out of caller signatures.
pub type PathEdge = Edge;
