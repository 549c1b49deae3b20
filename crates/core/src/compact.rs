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
use std::hash::Hash;
use std::time::Instant;

use smart_models::arcs::{ArcPhase, Edge};
use smart_models::ModelLibrary;
use smart_netlist::{Circuit, ComponentKind, LabelId, NetId};
use smart_posy::{TermId, TermSum, TermTable, VarId};
use smart_sta::{paths::count_paths, TNode, TimingGraph};

use crate::sizing::check_budget;
use crate::{FlowError, SizingOptions};

/// Cap on distinct suffix classes at any one timing node. A macro past it
/// has a labeling that defeats the regularity merge, and compaction fails
/// with [`FlowError::TooManyPaths`] instead of growing without bound.
pub const PATH_LIMIT: usize = 20_000;

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
    /// Extracts the linear decomposition from a (linear) cap sum over
    /// `table`'s rows, as [`ModelLibrary::net_cap_terms`] writes it.
    ///
    /// # Panics
    ///
    /// Panics if the sum has a term that is not a constant or a single
    /// first-degree variable (net caps are linear by construction).
    pub fn from_terms(table: &TermTable, terms: &[(TermId, f64)]) -> Self {
        let mut coeffs: BTreeMap<LabelId, f64> = BTreeMap::new();
        let mut constant = 0.0;
        for &(id, c) in terms {
            match table.row(id) {
                [] => constant += c,
                [(v, e)] if (*e - 1.0).abs() < 1e-9 => {
                    *coeffs.entry(LabelId::from_index(v.index())).or_insert(0.0) += c;
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
    /// Per-arc component-kind id: equal ids mean `==` kinds.
    pub(crate) arc_kinds: Vec<usize>,
    /// Per-net cap id: equal ids mean bit-equal [`CapVec`]s.
    pub(crate) net_cap_ids: Vec<usize>,
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

/// The dense id of `key`, assigning the next one on first sight.
fn intern<K: Eq + Hash>(ids: &mut HashMap<K, usize>, key: K) -> usize {
    let next = ids.len();
    *ids.entry(key).or_insert(next)
}

/// `n` as a `u32` id of the suffix arena, below `u32::MAX` (the arena's
/// "none" mark). A pass that would need more ids fails with a typed
/// [`FlowError::TooManyPaths`] instead of wrapping.
fn arena_id(n: usize) -> Result<u32, FlowError> {
    match u32::try_from(n) {
        Ok(id) if id < u32::MAX => Ok(id),
        _ => Err(FlowError::TooManyPaths {
            classes: n,
            limit: u32::MAX as usize - 1,
        }),
    }
}

/// One representative suffix path in the arena: its first arc, the link
/// of the rest (0 is the empty path) and whether any arc on it is a
/// precharge arc.
struct Link {
    arc: u32,
    next: u32,
    has_precharge: bool,
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
/// [`PATH_LIMIT`] at any node or the suffix arena outgrows its `u32`
/// ids, [`FlowError::BudgetExceeded`] if the
/// budget's cancellation token fires, and [`FlowError::NoEndpoints`] if
/// the graph has no source-to-endpoint path at all.
pub fn compact(
    circuit: &Circuit,
    lib: &ModelLibrary,
    vars: &[VarId],
    extra_loads: &HashMap<NetId, f64>,
    opts: &SizingOptions,
) -> Result<Compaction, FlowError> {
    compact_within(circuit, lib, vars, extra_loads, opts, None)
}

/// [`compact`] under the sizing flow's wall-clock `deadline`, checked
/// with the cancellation token once per timing node; past it, the error
/// is [`FlowError::BudgetExceeded`] with budget `"wall-clock"`.
pub(crate) fn compact_within(
    circuit: &Circuit,
    lib: &ModelLibrary,
    vars: &[VarId],
    extra_loads: &HashMap<NetId, f64>,
    opts: &SizingOptions,
    deadline: Option<Instant>,
) -> Result<Compaction, FlowError> {
    let graph = TimingGraph::extract(circuit);
    let order = graph
        .topo_order()
        .ok_or(FlowError::Sta(smart_sta::StaError::CombinationalLoop))?;
    let raw_paths = count_paths(&graph);

    // Cap decompositions, interned on exact (label, coefficient bits)
    // rows plus the constant's bits.
    let mut net_caps = Vec::with_capacity(circuit.net_count());
    let mut net_cap_ids = Vec::with_capacity(circuit.net_count());
    let mut cap_ids = HashMap::new();
    let mut table = TermTable::new();
    let mut cap = TermSum::new();
    for (id, _) in circuit.nets() {
        let extra = extra_loads.get(&id).copied().unwrap_or(0.0);
        lib.net_cap_terms(&mut table, circuit, id, vars, extra, &mut cap);
        let cv = CapVec::from_terms(&table, cap.terms());
        let row: Vec<(LabelId, u64)> = cv.coeffs.iter().map(|(&l, c)| (l, c.to_bits())).collect();
        net_cap_ids.push(intern(&mut cap_ids, (row, cv.constant.to_bits())));
        net_caps.push(cv);
    }

    // Step identity of each arc: its shape (component kind, sorted
    // labels, output edge, phase) plus the cap id of the net it drives.
    // Two arcs with equal step ids contribute an identical term to a path
    // constraint. Kinds are interned by `==`, so two different kinds can
    // never share an id.
    let mut kinds: Vec<&ComponentKind> = Vec::new();
    let mut shape_ids = HashMap::new();
    let mut step_ids = HashMap::new();
    let mut arc_kinds = Vec::with_capacity(graph.arcs.len());
    let mut arc_shapes = Vec::with_capacity(graph.arcs.len());
    let mut arc_steps = Vec::with_capacity(graph.arcs.len());
    for arc in &graph.arcs {
        let comp = circuit.comp(arc.comp);
        let kind = kinds.iter().position(|&k| *k == comp.kind).unwrap_or_else(|| {
            kinds.push(&comp.kind);
            kinds.len() - 1
        });
        let mut labels: Vec<LabelId> = comp.label_bindings().iter().map(|&(_, l)| l).collect();
        labels.sort_unstable();
        let shape = intern(
            &mut shape_ids,
            (kind, labels, arc.to.edge == Edge::Fall, arc.phase),
        );
        arc_kinds.push(kind);
        arc_shapes.push(shape);
        let cap = net_cap_ids[arc.to.net.index()];
        arc_steps.push(arena_id(intern(&mut step_ids, (shape, cap)))?);
    }

    // Suffix arena, built in reverse topological order. A signature id
    // names a step sequence, interned on the exact pair (first step id,
    // tail signature id); 0 is the empty sequence. Each node keeps one
    // (signature, link) pair per distinct signature of the paths leaving
    // it; the link is the first arrival in fanout order, which is the
    // path the class keeps. Only source nodes' lists are read after the
    // pass, so a node's list is freed once each of its fanin arcs has
    // read it; the links stay, as kept classes spell out their arcs
    // through them. Every arena id is a `u32`, which halves the links,
    // the signature map and the lists against `usize` ids.
    let mut sig_ids: HashMap<(u32, u32), u32> = HashMap::new();
    let mut links = vec![Link {
        arc: u32::MAX,
        next: 0,
        has_precharge: false,
    }];
    // Per signature id: the last node that took it.
    let mut taken_at = vec![u32::MAX];
    let mut suffixes: Vec<Vec<(u32, u32)>> = vec![Vec::new(); graph.node_count()];
    let mut unread: Vec<usize> = graph.fanin.iter().map(Vec::len).collect();
    for node in order.iter().rev() {
        check_budget(opts, deadline, "path compaction")?;
        let i = node.index();
        if graph.fanout[i].is_empty() {
            suffixes[i] = vec![(0, 0)];
            continue;
        }
        let node_id = arena_id(i)?;
        let mut out = Vec::new();
        for &ai in &graph.fanout[i] {
            let to = graph.arcs[ai].to.index();
            let is_pre = graph.arcs[ai].phase == ArcPhase::Precharge;
            let arc = arena_id(ai)?;
            for &(tail_sig, tail) in &suffixes[to] {
                let next = arena_id(sig_ids.len())?;
                let sig = 1 + *sig_ids.entry((arc_steps[ai], tail_sig)).or_insert(next);
                if sig as usize == taken_at.len() {
                    taken_at.push(u32::MAX);
                } else if taken_at[sig as usize] == node_id {
                    continue;
                }
                taken_at[sig as usize] = node_id;
                let has_precharge = is_pre || links[tail as usize].has_precharge;
                out.push((sig, arena_id(links.len())?));
                links.push(Link {
                    arc,
                    next: tail,
                    has_precharge,
                });
            }
            unread[to] -= 1;
            if unread[to] == 0 {
                suffixes[to] = Vec::new();
            }
        }
        if out.len() > PATH_LIMIT {
            return Err(FlowError::TooManyPaths {
                classes: out.len(),
                limit: PATH_LIMIT,
            });
        }
        suffixes[i] = out;
    }

    // Collect full classes from source nodes, dedup across sources by
    // signature (the lowest-index source keeps the class), and spell out
    // each kept class's arcs from its links.
    let mut collected = vec![false; taken_at.len()];
    let mut classes = Vec::new();
    #[allow(clippy::needless_range_loop)] // i is a timing-node id, not a position
    for i in 0..graph.node_count() {
        if !graph.fanin[i].is_empty() || graph.fanout[i].is_empty() {
            continue;
        }
        for &(sig, link) in &suffixes[i] {
            if std::mem::replace(&mut collected[sig as usize], true) {
                continue;
            }
            let mut arcs = Vec::new();
            let mut at = link as usize;
            while at != 0 {
                arcs.push(links[at].arc as usize);
                at = links[at].next as usize;
            }
            // An empty suffix is a degenerate zero-arc path; it cannot
            // constrain anything, so drop it rather than panic.
            let Some(&last_arc) = arcs.last() else {
                continue;
            };
            classes.push(PathClass {
                endpoint: graph.arcs[last_arc].to,
                arcs,
                source: TNode::from_index(i),
                is_precharge: links[link as usize].has_precharge,
            });
        }
    }
    classes.sort_by(|a, b| a.arcs.cmp(&b.arcs));
    let after_regularity = classes.len();
    if classes.is_empty() {
        return Err(FlowError::NoEndpoints);
    }

    // Fanout-dominance pruning: group by cap-free shape; within a group,
    // drop classes whose per-step caps are pointwise dominated.
    let mut groups: HashMap<Vec<usize>, Vec<usize>> = HashMap::new();
    for (idx, class) in classes.iter().enumerate() {
        let shape = class.arcs.iter().map(|&ai| arc_shapes[ai]).collect();
        groups.entry(shape).or_default().push(idx);
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
        arc_kinds,
        net_cap_ids,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Arena ids stop one short of `u32::MAX`, the arena's "none" mark;
    /// past that the pass gets a typed error, not a wrapped id.
    #[test]
    fn arena_ids_past_u32_are_a_typed_error() {
        let last = u32::MAX as usize - 1;
        assert_eq!(arena_id(last), Ok(u32::MAX - 1));
        for n in [last + 1, usize::MAX] {
            assert_eq!(
                arena_id(n),
                Err(FlowError::TooManyPaths {
                    classes: n,
                    limit: last
                })
            );
        }
    }
}
