//! A solve-wide dictionary of distinct log-form terms and the
//! shift-grouped sweep over it.
//!
//! The posynomials of a path-sharing GP repeat each other's terms: the
//! §5.2 path classes share their stages, so `cla64`'s 42,083 term
//! references name only about a thousand distinct `(bₖ, aₖ)` terms.
//! [`LogPosynomial::shifted_exps`] computes every reference's dot and
//! exponential on its own. [`TermDictionary`] interns the terms of a
//! whole problem once, and [`TermDictionary::sweep`] computes one dot
//! per distinct term and one exponential per distinct `(term, shift)`
//! pair, where the shift is the posynomial's largest dot.
//!
//! Every value the sweep writes is bit-identical to
//! [`LogPosynomial::shifted_exps`]: the same dot expression
//! ([`term_dot`]), the same max fold and the same sum, over the same
//! operands in the same order. Only the number of times an expression is
//! evaluated changes.

use std::collections::HashMap;
use std::hash::{Hash, Hasher};

use crate::logform::{term_dot, RowEntry};
use crate::LogPosynomial;

/// Term references per distinct term from which the solver takes the
/// grouped sweep. Measured with both sweeps forced, on every database
/// GP at the single and slow/typical/fast corners (three sizing-GP solves
/// each, 2-core x86-64 host): GPs with `K/T` 6.9 and up (`cla8`,
/// `inc32-cla`, `cla64`) take 27–61% less time grouped, and no database GP
/// has `K/T` between 3.8 and 6.9. With the line search's domain sentinel
/// the grouped sweep also wins from `K/T` ≈ 2, but moving those GPs makes
/// the serve benchmark's own memory grow past its bound (DESIGN.md §12
/// has the table and the reason).
const GROUPED_SWEEP_MIN_SHARING: usize = 6;

/// Whether `references` term references over `distinct` distinct terms
/// share enough for the grouped sweep to pay:
/// `references ≥ GROUPED_SWEEP_MIN_SHARING · distinct`.
fn grouped_sweep_pays(references: usize, distinct: usize) -> bool {
    references >= GROUPED_SWEEP_MIN_SHARING.saturating_mul(distinct)
}

/// A term's exact identity: its offset's bits and its row's
/// `(variable, exponent bits)` pairs in order. Two references with equal
/// keys compute their dot from the same operands in the same order.
#[derive(Clone, Copy)]
struct TermKey<'a> {
    offset: f64,
    row: &'a [RowEntry],
}

impl PartialEq for TermKey<'_> {
    fn eq(&self, other: &Self) -> bool {
        self.offset.to_bits() == other.offset.to_bits()
            && self.row.len() == other.row.len()
            && self
                .row
                .iter()
                .zip(other.row)
                .all(|(a, b)| a.var == b.var && a.exp.to_bits() == b.exp.to_bits())
    }
}

impl Eq for TermKey<'_> {}

impl Hash for TermKey<'_> {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.offset.to_bits().hash(state);
        for r in self.row {
            r.var.hash(state);
            r.exp.to_bits().hash(state);
        }
    }
}

/// "No id" in the dictionary's `u32` link and stamp arrays.
const NONE: u32 = u32::MAX;

/// The distinct terms of a sequence of posynomials ("slots"), each
/// slot's references into them, and the scratch of the grouped sweep.
///
/// Slot `j` owns references `bounds[j]..bounds[j + 1]`, laid out exactly
/// like the slot's terms in a [`LogPosynomial::shifted_exps`] output, so
/// the sweep fills a caller's per-reference buffer in place.
#[derive(Debug)]
pub struct TermDictionary {
    /// Offset `b` of each distinct term.
    offsets: Vec<f64>,
    /// Exponent rows of the distinct terms, flattened; term `t` owns
    /// `rows[row_bounds[t]..row_bounds[t + 1]]`.
    rows: Vec<RowEntry>,
    row_bounds: Vec<u32>,
    /// Distinct-term id of every reference, slot by slot.
    ids: Vec<u32>,
    /// Reference range of each slot.
    bounds: Vec<u32>,
    // Sweep scratch, sized at construction.
    /// Dot of each distinct term at the swept point.
    dots: Vec<f64>,
    /// `exp(dot − m)` of each distinct term under the current shift `m`.
    exps: Vec<f64>,
    /// Shift generation at which `exps[t]` was computed.
    stamps: Vec<u32>,
    generation: u32,
    /// First slot of each shift bucket, keyed by its argmax term.
    heads: Vec<u32>,
    /// Next slot in the same bucket.
    next: Vec<u32>,
    /// Argmax terms with a non-empty bucket, in first-seen order.
    active: Vec<u32>,
}

impl TermDictionary {
    /// Interns every term of `slots` on its exact key.
    ///
    /// # Panics
    ///
    /// Panics if the problem has `u32::MAX` or more term references or
    /// slots (ids and ranges are `u32`).
    pub fn new<'a>(slots: impl IntoIterator<Item = &'a LogPosynomial>) -> Self {
        let mut index: HashMap<TermKey<'a>, u32> = HashMap::new();
        let mut offsets = Vec::new();
        let mut rows = Vec::new();
        let mut row_bounds = vec![0u32];
        let mut ids = Vec::new();
        let mut bounds = vec![0u32];
        for p in slots {
            for k in 0..p.term_count() {
                let key = TermKey {
                    offset: p.offset(k),
                    row: p.row(k),
                };
                let id = *index.entry(key).or_insert_with(|| {
                    offsets.push(key.offset);
                    rows.extend_from_slice(key.row);
                    row_bounds.push(to_u32(rows.len()));
                    to_u32(offsets.len() - 1)
                });
                ids.push(id);
            }
            bounds.push(to_u32(ids.len()));
        }
        let distinct = offsets.len();
        let slots = bounds.len() - 1;
        TermDictionary {
            offsets,
            rows,
            row_bounds,
            ids,
            bounds,
            dots: vec![0.0; distinct],
            exps: vec![0.0; distinct],
            stamps: vec![0; distinct],
            generation: 0,
            heads: vec![NONE; distinct],
            next: vec![NONE; slots],
            active: Vec::with_capacity(distinct.min(slots)),
        }
    }

    /// The dictionary of `slots` when they share enough for the grouped
    /// sweep to pay (at least 6 term references per distinct term), else
    /// `None`.
    ///
    /// Terms within one posynomial have distinct rows, so there are at
    /// least as many distinct terms as the largest posynomial has terms.
    /// When that bound already rules the grouped sweep out, nothing is
    /// interned.
    pub fn if_shared<'a, I>(slots: I) -> Option<Self>
    where
        I: IntoIterator<Item = &'a LogPosynomial>,
        I::IntoIter: Clone,
    {
        let slots = slots.into_iter();
        let (references, largest) = slots.clone().fold((0, 0), |(k, l), p| {
            (k + p.term_count(), l.max(p.term_count()))
        });
        if !grouped_sweep_pays(references, largest) {
            return None;
        }
        let dict = TermDictionary::new(slots);
        grouped_sweep_pays(dict.references(), dict.distinct_terms()).then_some(dict)
    }

    /// Number of distinct terms.
    pub fn distinct_terms(&self) -> usize {
        self.offsets.len()
    }

    /// Number of term references over all slots.
    pub fn references(&self) -> usize {
        self.ids.len()
    }

    /// Number of slots.
    fn slots(&self) -> usize {
        self.bounds.len() - 1
    }

    /// Sweeps slots `first..` at `y`: writes each reference's shifted
    /// exponential into `exps`, and each slot's sum and value `F(y)` into
    /// `sums` and `values`, exactly as [`LogPosynomial::shifted_exps`]
    /// would for that slot's posynomial. Slots before `first` are left
    /// untouched. Allocation-free.
    ///
    /// Slots whose largest dot is the same term's dot share a shift, so
    /// each distinct term's exponential is computed once per shift.
    ///
    /// # Panics
    ///
    /// Panics if `exps` does not hold one entry per reference, `sums` or
    /// `values` not one per slot, or `y` is shorter than a variable the
    /// terms reference.
    pub fn sweep(
        &mut self,
        y: &[f64],
        first: usize,
        exps: &mut [f64],
        sums: &mut [f64],
        values: &mut [f64],
    ) {
        assert_eq!(
            exps.len(),
            self.references(),
            "one exponential per reference"
        );
        assert_eq!(sums.len(), self.slots(), "one sum per slot");
        assert_eq!(values.len(), self.slots(), "one value per slot");
        for (t, dot) in self.dots.iter_mut().enumerate() {
            let row = &self.rows[self.row_bounds[t] as usize..self.row_bounds[t + 1] as usize];
            *dot = term_dot(self.offsets[t], row, y);
        }

        // Each slot's shift `m` (see `shift`). A slot whose `m` is bit for
        // bit a named term's dot joins that term's bucket; any other slot
        // is finished here on its own.
        for j in first..self.slots() {
            let refs = self.bounds[j] as usize..self.bounds[j + 1] as usize;
            let (m, arg) = shift(&self.dots, &self.ids[refs]);
            if arg == NONE {
                self.next_shift();
                self.finish(j, m, exps, sums, values);
                continue;
            }
            let head = &mut self.heads[arg as usize];
            if *head == NONE {
                self.active.push(arg);
            }
            self.next[j] = *head;
            *head = j as u32;
        }

        // One bucket per shift: each distinct term's exponential under
        // that shift is computed by the first slot that needs it and
        // gathered by the rest.
        for a in 0..self.active.len() {
            let arg = self.active[a] as usize;
            let m = self.dots[arg];
            self.next_shift();
            let mut j = std::mem::replace(&mut self.heads[arg], NONE);
            while j != NONE {
                self.finish(j as usize, m, exps, sums, values);
                j = self.next[j as usize];
            }
        }
        self.active.clear();
    }

    /// Starts a new shift: every cached exponential becomes stale.
    fn next_shift(&mut self) {
        self.generation = self.generation.wrapping_add(1);
        if self.generation == NONE {
            self.stamps.fill(0);
            self.generation = 1;
        }
    }

    /// Writes slot `slot`'s exponentials under shift `m`, their sum in
    /// term order, and its value, computing each term's `exp(dot − m)`
    /// unless this shift already has it.
    fn finish(
        &mut self,
        slot: usize,
        m: f64,
        exps: &mut [f64],
        sums: &mut [f64],
        values: &mut [f64],
    ) {
        let refs = self.bounds[slot] as usize..self.bounds[slot + 1] as usize;
        let mut sum = 0.0;
        for (e, &id) in exps[refs.clone()].iter_mut().zip(&self.ids[refs]) {
            let t = id as usize;
            if self.stamps[t] != self.generation {
                self.stamps[t] = self.generation;
                self.exps[t] = (self.dots[t] - m).exp();
            }
            *e = self.exps[t];
            sum += *e;
        }
        sums[slot] = sum;
        values[slot] = if m.is_infinite() { m } else { m + sum.ln() };
    }
}

/// The shift `m` of a slot whose terms have ids `ids` — the `f64::max`
/// fold of their dots in order, as [`LogPosynomial::shifted_exps`] folds
/// it — and a term whose dot has exactly `m`'s bits.
///
/// Four independent lanes keep the fold off one dependency chain. For a
/// nonzero maximum that changes no bit: `f64::max` ignores NaN, and every
/// dot equal to a nonzero maximum has the same bits, so any order yields
/// the same result. A zero maximum (`+0.0` and `-0.0` compare equal but
/// differ in bits) or none at all (every dot NaN) falls back to the
/// sequential fold and names no term (`NONE`): such a slot computes its
/// own exponentials.
#[inline]
fn shift(dots: &[f64], ids: &[u32]) -> (f64, u32) {
    let mut lanes = [(f64::NEG_INFINITY, NONE); 4];
    let mut chunks = ids.chunks_exact(4);
    for chunk in &mut chunks {
        for (lane, &id) in lanes.iter_mut().zip(chunk) {
            let z = dots[id as usize];
            if z > lane.0 {
                *lane = (z, id);
            }
        }
    }
    for (lane, &id) in lanes.iter_mut().zip(chunks.remainder()) {
        let z = dots[id as usize];
        if z > lane.0 {
            *lane = (z, id);
        }
    }
    let best = lanes
        .into_iter()
        .fold((f64::NEG_INFINITY, NONE), |best, lane| {
            if lane.0 > best.0 {
                lane
            } else {
                best
            }
        });
    if best.1 != NONE && best.0 != 0.0 {
        return best;
    }
    let m = ids
        .iter()
        .fold(f64::NEG_INFINITY, |m, &id| m.max(dots[id as usize]));
    (m, NONE)
}

/// A count or offset as a `u32` id.
fn to_u32(n: usize) -> u32 {
    match u32::try_from(n) {
        Ok(v) if v != NONE => v,
        _ => panic!("{n} exceeds the dictionary's u32 ids"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Monomial, Posynomial, VarPool};
    use smart_prng::Prng;

    const DIM: usize = 8;

    /// A problem whose posynomials share most of their terms: 200 slots
    /// of 40 terms drawn from a pool of 60 monomials, then single-term
    /// slots and one slot whose largest dot at `y = 0` is exactly zero.
    /// The pool holds a constant (an empty row), a unit coefficient, and
    /// one `3·xᵥ` per variable, which tie with each other at any point
    /// with equal coordinates and are often a slot's largest term.
    fn shared_problem() -> Vec<LogPosynomial> {
        let mut names = VarPool::new();
        let vars: Vec<_> = (0..DIM).map(|i| names.var(&format!("x{i}"))).collect();
        let mut rng = Prng::new(7);
        let mut pool: Vec<Monomial> = vars
            .iter()
            .map(|&v| Monomial::new(3.0).pow(v, 1.0))
            .collect();
        pool.push(Monomial::new(0.5));
        pool.push(Monomial::new(1.0).pow(vars[0], -1.0));
        while pool.len() < 60 {
            let mut m = Monomial::new(rng.f64_in(0.1, 2.0));
            for _ in 0..rng.usize_in(1, 4) {
                m = m.pow(vars[rng.usize_in(0, DIM)], rng.f64_in(-2.0, 2.0));
            }
            pool.push(m);
        }
        let lp = |p: &Posynomial| LogPosynomial::from_posynomial(p, DIM);
        let mut slots = Vec::new();
        let mut order: Vec<usize> = (0..pool.len()).collect();
        for _ in 0..200 {
            for i in 0..40 {
                let j = rng.usize_in(i, order.len());
                order.swap(i, j);
            }
            let body = order[..40]
                .iter()
                .fold(Posynomial::zero(), |acc, &i| acc + pool[i].clone());
            slots.push(lp(&body));
        }
        for m in &pool[..4] {
            slots.push(lp(&Posynomial::from(m.clone())));
        }
        slots.push(lp(&Posynomial::from(Monomial::new(0.5))));
        slots.push(lp(&(Posynomial::from(
            Monomial::new(1.0).pow(vars[1], 2.0),
        ) + Monomial::new(0.5))));
        slots
    }

    /// The per-posynomial sweep of every slot: exps, sums, values.
    fn direct(slots: &[LogPosynomial], y: &[f64]) -> (Vec<f64>, Vec<f64>, Vec<f64>) {
        let mut exps = Vec::new();
        let mut sums = Vec::new();
        let mut values = Vec::new();
        for p in slots {
            let mut out = vec![0.0; p.term_count()];
            let (value, sum) = p.shifted_exps(y, &mut out);
            exps.extend(out);
            sums.push(sum);
            values.push(value);
        }
        (exps, sums, values)
    }

    fn bits(v: &[f64]) -> Vec<u64> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    fn points() -> Vec<Vec<f64>> {
        let mut rng = Prng::new(11);
        let mut points = vec![
            vec![0.0; DIM],  // unit coefficients dot to exactly 0
            vec![0.5; DIM],  // the 3·xᵥ terms tie
            vec![-3.0; DIM], // small dots: constants lead
        ];
        points.extend((0..4).map(|_| rng.f64_vec(-2.0, 2.0, DIM)));
        // Every dot through x0 is NaN: slots of such terms only have
        // no term at their shift.
        let mut nan = vec![0.25; DIM];
        nan[0] = f64::NAN;
        points.push(nan);
        points
    }

    #[test]
    fn grouped_sweep_matches_shifted_exps_bit_for_bit() {
        let slots = shared_problem();
        let mut dict = TermDictionary::new(&slots);
        assert_eq!(dict.slots(), slots.len());
        assert!(
            dict.references() >= 50 * dict.distinct_terms(),
            "{} references over {} terms",
            dict.references(),
            dict.distinct_terms()
        );
        let k = dict.references();
        let mut exps = vec![0.0; k];
        let mut sums = vec![0.0; slots.len()];
        let mut values = vec![0.0; slots.len()];
        // Twice over the points: the second pass reuses stale scratch.
        for y in points().iter().chain(&points()) {
            dict.sweep(y, 0, &mut exps, &mut sums, &mut values);
            let (e, s, v) = direct(&slots, y);
            assert_eq!(bits(&exps), bits(&e), "exps at {y:?}");
            assert_eq!(bits(&sums), bits(&s), "sums at {y:?}");
            assert_eq!(bits(&values), bits(&v), "values at {y:?}");
        }
    }

    #[test]
    fn sweep_from_a_later_slot_leaves_earlier_slots_alone() {
        let slots = shared_problem();
        let mut dict = TermDictionary::new(&slots);
        let first_refs = slots[0].term_count();
        let mut exps = vec![-1.0; dict.references()];
        let mut sums = vec![-1.0; slots.len()];
        let mut values = vec![-1.0; slots.len()];
        let y = vec![0.3; DIM];
        dict.sweep(&y, 1, &mut exps, &mut sums, &mut values);
        let (e, s, v) = direct(&slots, &y);
        assert!(exps[..first_refs].iter().all(|&x| x == -1.0));
        assert_eq!((sums[0], values[0]), (-1.0, -1.0));
        assert_eq!(bits(&exps[first_refs..]), bits(&e[first_refs..]));
        assert_eq!(bits(&sums[1..]), bits(&s[1..]));
        assert_eq!(bits(&values[1..]), bits(&v[1..]));
    }

    #[test]
    fn selection_turns_on_at_the_sharing_constant() {
        let t = 100;
        assert!(grouped_sweep_pays(GROUPED_SWEEP_MIN_SHARING * t, t));
        assert!(!grouped_sweep_pays(GROUPED_SWEEP_MIN_SHARING * t - 1, t));
        // The measured crossover: `cla8` (`K/T` 6.9) takes the grouped
        // sweep, the stf `inc8-cla` GP (3.8) keeps the per-posynomial one.
        assert!(grouped_sweep_pays(4092, 596));
        assert!(!grouped_sweep_pays(1968, 518));
        assert!(TermDictionary::if_shared(&shared_problem()).is_some());

        // Posynomials with no term in common: one reference per term.
        let mut names = VarPool::new();
        let vars: Vec<_> = (0..DIM).map(|i| names.var(&format!("x{i}"))).collect();
        let disjoint: Vec<LogPosynomial> = vars
            .iter()
            .map(|&v| {
                let p = Posynomial::from(Monomial::new(2.0).pow(v, 1.0))
                    + Monomial::new(0.5).pow(v, -1.0);
                LogPosynomial::from_posynomial(&p, DIM)
            })
            .collect();
        assert!(TermDictionary::if_shared(&disjoint).is_none());
        let dict = TermDictionary::new(&disjoint);
        assert_eq!((dict.references(), dict.distinct_terms()), (16, 16));
    }
}
