//! Path extraction and compaction — the paper's §5.2.
//!
//! A combinational macro can have an enormous number of topological paths
//! (the paper measures >32,000 on a 64-bit dynamic adder). Three reductions
//! collapse them to a small constraint set:
//!
//! 1. **Regularity**: label sharing makes many paths *symbolically
//!    identical* — same component kinds, same bound labels, same
//!    capacitance composition at every step — so they produce the same
//!    posynomial constraint and are merged.
//! 2. **Pin precedence**: all input pins of a gate share its worst-case
//!    pin-to-pin model, so per-pin path variants of one gate merge with
//!    the regularity rule (the fast-pin paths are exactly the merged
//!    ones).
//! 3. **Fanout dominance**: among merged-shape paths that differ only in
//!    capacitive load, a path whose load is pointwise ≥ another's
//!    *implies* the other's constraint (caps enter the models with
//!    positive sign), so dominated paths are dropped.
//!
//! The result is sound: every dropped path's delay is bounded by a kept
//! path's constraint.

use std::collections::{BTreeMap, HashMap};

use smart_models::arcs::ArcPhase;
use smart_models::ModelLibrary;
use smart_netlist::{Circuit, ComponentKind, LabelId, NetId};
use smart_posy::{Posynomial, VarId};
use smart_sta::{paths::count_paths, TNode, TimingGraph};

use crate::{FlowError, SizingOptions};

/// Linear capacitance decomposition of a net: per-label width coefficients
/// plus a constant (wire + boundary load).
#[derive(Debug, Clone, PartialEq)]
pub struct CapVec {
    /// Width coefficient per label.
    pub coeffs: BTreeMap<LabelId, f64>,
    /// Constant part (width-equivalent units).
    pub constant: f64,
}

impl CapVec {
    /// Extracts the linear decomposition from a (linear) cap posynomial.
    ///
    /// # Panics
    ///
    /// Panics if the posynomial has a term that is not a constant or a
    /// single first-degree variable (net caps are linear by construction).
    pub fn from_posynomial(p: &Posynomial) -> Self {
        let mut coeffs: BTreeMap<LabelId, f64> = BTreeMap::new();
        let mut constant = 0.0;
        for m in p.terms() {
            let exps: Vec<_> = m.exponents().collect();
            match exps.as_slice() {
                [] => constant += m.coeff(),
                [(v, e)] if (*e - 1.0).abs() < 1e-9 => {
                    *coeffs.entry(LabelId::from_index(v.index())).or_insert(0.0) += m.coeff();
                }
                _ => panic!("net capacitance must be linear in label widths"),
            }
        }
        CapVec { coeffs, constant }
    }

    /// Pointwise dominance: `self ≥ other` in every coefficient and the
    /// constant.
    pub fn dominates(&self, other: &CapVec) -> bool {
        const EPS: f64 = 1e-9;
        if self.constant + EPS < other.constant {
            return false;
        }
        other.coeffs.iter().all(|(l, &c)| {
            self.coeffs.get(l).copied().unwrap_or(0.0) + EPS >= c
        })
    }

    /// Total numeric value at uniform unit widths (used for reporting).
    pub fn score(&self) -> f64 {
        self.constant + self.coeffs.values().sum::<f64>()
    }
}

/// Symbolic step identity: two arcs with equal descriptors contribute an
/// identical term to a path constraint.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct StepKey {
    /// Index of the component's kind among the circuit's distinct kinds
    /// (equal kinds, by `==`, share an index).
    kind: usize,
    labels: Vec<LabelId>,
    edge_fall: bool,
    phase_tag: u8,
    cap_sig: usize,
}

/// One compacted constraint path: the representative arc sequence.
#[derive(Debug, Clone)]
pub struct PathClass {
    /// Arc indices (into the compaction's [`TimingGraph`]) of the
    /// representative path, source to endpoint.
    pub arcs: Vec<usize>,
    /// Launch node (an input-port edge).
    pub source: TNode,
    /// Capture node (an endpoint edge).
    pub endpoint: TNode,
    /// Whether the path contains a precharge arc (and therefore gets the
    /// precharge budget).
    pub is_precharge: bool,
}

/// Result of path extraction + compaction over one circuit.
#[derive(Debug)]
pub struct Compaction {
    /// The timing graph the classes index into.
    pub graph: TimingGraph,
    /// Surviving constraint paths.
    pub classes: Vec<PathClass>,
    /// Exhaustive topological path count before any reduction (§5.2's
    /// "over 32,000 paths").
    pub raw_paths: u128,
    /// Class count after regularity merge but before fanout-dominance
    /// pruning.
    pub after_regularity: usize,
    /// Per-net capacitance decompositions (indexed by net).
    pub net_caps: Vec<CapVec>,
}

impl Compaction {
    /// Compaction ratio `raw / compacted` (∞-safe: returns raw when no
    /// classes survive, which only happens on endpoint-free circuits).
    pub fn ratio(&self) -> f64 {
        if self.classes.is_empty() {
            return self.raw_paths as f64;
        }
        self.raw_paths as f64 / self.classes.len() as f64
    }
}

/// Runs path extraction and compaction.
///
/// `extra_loads` maps net → additional boundary capacitance (from output
/// port loads). `vars` is the label→variable mapping of
/// [`smart_models::label_vars`].
///
/// # Errors
///
/// [`FlowError::TooManyPaths`] if the merged class count exceeds
/// `opts.path_limit` at any node, and [`FlowError::NoEndpoints`] if the
/// graph has no source-to-endpoint path at all.
pub fn compact(
    circuit: &Circuit,
    lib: &ModelLibrary,
    vars: &[VarId],
    extra_loads: &HashMap<NetId, f64>,
    opts: &SizingOptions,
) -> Result<Compaction, FlowError> {
    let graph = TimingGraph::extract(circuit);
    let order = graph
        .topo_order()
        .ok_or(FlowError::Sta(smart_sta::StaError::CombinationalLoop))?;
    let raw_paths = count_paths(&graph);

    // Pre-compute cap decompositions.
    let mut net_caps = Vec::with_capacity(circuit.net_count());
    for (id, _) in circuit.nets() {
        let mut posy = lib.net_cap_posy(circuit, id, vars);
        let extra = extra_loads.get(&id).copied().unwrap_or(0.0);
        if extra > 0.0 {
            posy += smart_posy::Monomial::new(extra);
        }
        net_caps.push(CapVec::from_posynomial(&posy));
    }

    // Intern cap signatures (exact coefficient maps).
    let mut cap_sig_ids: HashMap<String, usize> = HashMap::new();
    let mut cap_sig_of_net = vec![0usize; circuit.net_count()];
    for (i, cv) in net_caps.iter().enumerate() {
        let key = format!("{cv:?}");
        let next = cap_sig_ids.len();
        let id = *cap_sig_ids.entry(key).or_insert(next);
        cap_sig_of_net[i] = id;
    }

    // Arc descriptors. Component kinds are interned by exact equality,
    // so two different kinds can never share a step identity.
    let mut kinds: Vec<&ComponentKind> = Vec::new();
    let arc_desc: Vec<StepKey> = graph
        .arcs
        .iter()
        .map(|arc| {
            let comp = circuit.comp(arc.comp);
            let kind = kinds.iter().position(|&k| *k == comp.kind).unwrap_or_else(|| {
                kinds.push(&comp.kind);
                kinds.len() - 1
            });
            let mut labels: Vec<LabelId> = comp
                .label_bindings()
                .iter()
                .map(|&(_, l)| l)
                .collect();
            labels.sort_unstable();
            StepKey {
                kind,
                labels,
                edge_fall: matches!(arc.to.edge, smart_models::arcs::Edge::Fall),
                phase_tag: match arc.phase {
                    ArcPhase::Data => 0,
                    ArcPhase::Precharge => 1,
                    ArcPhase::ClockedEvaluate => 2,
                },
                cap_sig: cap_sig_of_net[arc.to.net.index()],
            }
        })
        .collect();

    // Suffix sets per node, built in reverse topological order.
    #[derive(Clone)]
    struct Suffix {
        sig: Vec<u64>, // rolling per-step hashes of StepKey
        arcs: Vec<usize>,
        has_precharge: bool,
    }
    let mut step_hash: Vec<u64> = Vec::with_capacity(arc_desc.len());
    {
        let mut interner: HashMap<&StepKey, u64> = HashMap::new();
        for d in &arc_desc {
            let next = interner.len() as u64;
            let id = *interner.entry(d).or_insert(next);
            step_hash.push(id);
        }
    }

    let mut suffixes: Vec<Vec<Suffix>> = vec![Vec::new(); graph.node_count()];
    for node in order.iter().rev() {
        let i = node.index();
        if graph.fanout[i].is_empty() {
            suffixes[i] = vec![Suffix {
                sig: Vec::new(),
                arcs: Vec::new(),
                has_precharge: false,
            }];
            continue;
        }
        let mut merged: HashMap<Vec<u64>, Suffix> = HashMap::new();
        for &ai in &graph.fanout[i] {
            let to = graph.arcs[ai].to.index();
            let is_pre = graph.arcs[ai].phase == ArcPhase::Precharge;
            for s in &suffixes[to] {
                let mut sig = Vec::with_capacity(s.sig.len() + 1);
                sig.push(step_hash[ai]);
                sig.extend(&s.sig);
                merged.entry(sig).or_insert_with(|| {
                    let mut arcs = Vec::with_capacity(s.arcs.len() + 1);
                    arcs.push(ai);
                    arcs.extend(&s.arcs);
                    Suffix {
                        sig: Vec::new(), // filled below
                        arcs,
                        has_precharge: is_pre || s.has_precharge,
                    }
                });
            }
        }
        let mut out: Vec<Suffix> = merged
            .into_iter()
            .map(|(sig, mut s)| {
                s.sig = sig;
                s
            })
            .collect();
        out.sort_by(|a, b| a.sig.cmp(&b.sig));
        if out.len() > opts.path_limit {
            return Err(FlowError::TooManyPaths {
                classes: out.len(),
                limit: opts.path_limit,
            });
        }
        suffixes[i] = out;
    }

    // Collect full classes from source nodes, dedup across sources.
    let mut classes_by_sig: HashMap<Vec<u64>, PathClass> = HashMap::new();
    #[allow(clippy::needless_range_loop)] // i is a timing-node id, not a position
    for i in 0..graph.node_count() {
        if !graph.fanin[i].is_empty() || graph.fanout[i].is_empty() {
            continue;
        }
        let source = TNode::from_index(i);
        for s in &suffixes[i] {
            // An empty suffix is a degenerate zero-arc path; it cannot
            // constrain anything, so drop it rather than panic.
            let Some(&last_arc) = s.arcs.last() else {
                continue;
            };
            let endpoint = graph.arcs[last_arc].to;
            classes_by_sig
                .entry(s.sig.clone())
                .or_insert_with(|| PathClass {
                    arcs: s.arcs.clone(),
                    source,
                    endpoint,
                    is_precharge: s.has_precharge,
                });
        }
    }
    let mut classes: Vec<PathClass> = classes_by_sig.into_values().collect();
    classes.sort_by(|a, b| a.arcs.cmp(&b.arcs));
    let after_regularity = classes.len();
    if classes.is_empty() {
        return Err(FlowError::NoEndpoints);
    }

    // Fanout-dominance pruning: group by cap-free shape; within a group,
    // drop classes whose per-step caps are pointwise dominated.
    type ShapeKey = Vec<(usize, Vec<LabelId>, bool, u8)>;
    let shape_of = |class: &PathClass| -> ShapeKey {
        class
            .arcs
            .iter()
            .map(|&ai| {
                let d = &arc_desc[ai];
                (d.kind, d.labels.clone(), d.edge_fall, d.phase_tag)
            })
            .collect()
    };
    let mut groups: HashMap<ShapeKey, Vec<usize>> = HashMap::new();
    for (idx, class) in classes.iter().enumerate() {
        groups.entry(shape_of(class)).or_default().push(idx);
    }
    let mut keep = vec![true; classes.len()];
    if opts.heuristic_dominance {
        // Paper heuristic: within a shape group, keep only the class with
        // the largest total load (uniform-width score). The Fig.-4 outer
        // loop's STA re-measurement backstops any dropped-path optimism.
        for members in groups.values() {
            let score = |idx: usize| -> f64 {
                classes[idx]
                    .arcs
                    .iter()
                    .map(|&ai| net_caps[graph.arcs[ai].to.net.index()].score())
                    .sum()
            };
            // total_cmp: a NaN cap score (degenerate load) must not panic
            // the sweep; NaN ranks highest and the Fig.-4 STA feedback
            // loop corrects any resulting optimism.
            let Some(best) = members.iter().copied().max_by(|&a, &b| {
                score(a).total_cmp(&score(b))
            }) else {
                continue; // groups are non-empty by construction
            };
            for &m in members {
                if m != best {
                    keep[m] = false;
                }
            }
        }
    } else {
        // Sound mode: drop only classes pointwise-dominated at every step.
        for members in groups.values() {
            for &a in members {
                if !keep[a] {
                    continue;
                }
                for &b in members {
                    if a == b || !keep[b] {
                        continue;
                    }
                    // a dominates b if every step cap of a >= that of b.
                    let dom =
                        classes[a].arcs.iter().zip(&classes[b].arcs).all(|(&x, &y)| {
                            let cx = &net_caps[graph.arcs[x].to.net.index()];
                            let cy = &net_caps[graph.arcs[y].to.net.index()];
                            cx.dominates(cy)
                        });
                    if dom {
                        keep[b] = false;
                    }
                }
            }
        }
    }
    let classes: Vec<PathClass> = classes
        .into_iter()
        .zip(keep)
        .filter_map(|(c, k)| k.then_some(c))
        .collect();

    Ok(Compaction {
        graph,
        classes,
        raw_paths,
        after_regularity,
        net_caps,
    })
}
