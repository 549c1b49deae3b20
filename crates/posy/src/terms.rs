//! Interned exponent rows and the posynomials stored over them.
//!
//! The constraint generator assembles thousands of timing posynomials
//! whose terms share a handful of exponent rows (`1`, `W`, `1/W`,
//! `Wⱼ/Wᵢ`). A [`TermTable`] stores each distinct row once and names it by
//! a [`TermId`]; a posynomial is then a list of `(TermId, coefficient)`
//! pairs. A [`TermSum`] builds such a list, merging as it goes, and a
//! [`PosyView`] reads one back. A GP stores every body this way over one
//! table. The solver's log form ([`LogPosynomial`](crate::LogPosynomial))
//! borrows that table and keeps only each term's id and offset, and the
//! [`TermDictionary`](crate::TermDictionary) keeps each distinct term's id
//! and offset; both read a row from the table by id whenever they compute
//! its dot. After the build a row is never copied — not into a
//! [`Monomial`], a log form or the dictionary — and never hashed again.
//!
//! Bits: rows are products under `mul_rows` (the exponent rule of
//! `Monomial * Monomial`), merges go through `merge_coeff` (the rule of
//! [`Posynomial::push`](crate::Posynomial::push)), and a sum keeps
//! first-insertion order, so a sum built here equals, bit for bit, the
//! [`Posynomial`](crate::Posynomial) the same pushes would build term by
//! term.

use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::Hasher;

use crate::monomial::{eval_row, merge_coeff, mul_rows};
use crate::{Monomial, PosyError, VarId};

/// Identifier of one interned exponent row in a [`TermTable`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TermId(u32);

impl TermId {
    /// The empty row: a constant term.
    pub const ONE: TermId = TermId(0);

    /// Dense index of the row (ids are handed out 0, 1, 2, …).
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// Every distinct exponent row of one problem, stored once.
///
/// Rows are compared exactly — variable and exponent bits — so two rows
/// share an id only if every monomial with them would merge under
/// [`Posynomial::push`](crate::Posynomial::push). Interning only appends:
/// an id, once handed out, names the same row for the table's life.
#[derive(Debug, Clone)]
pub struct TermTable {
    /// All rows back to back; row `i` is `entries[ends[i]..ends[i + 1]]`.
    entries: Vec<(VarId, f64)>,
    ends: Vec<u32>,
    /// Row hash to the newest id with that hash; older ids with the same
    /// hash follow through `chain`.
    heads: HashMap<u64, u32>,
    chain: Vec<Option<u32>>,
    /// The row being interned.
    scratch: Vec<(VarId, f64)>,
}

impl Default for TermTable {
    fn default() -> Self {
        Self::new()
    }
}

/// Hash of a row's variables and exponent bits.
fn row_hash(row: &[(VarId, f64)]) -> u64 {
    let mut h = DefaultHasher::new();
    for &(v, e) in row {
        h.write_usize(v.index());
        h.write_u64(e.to_bits());
    }
    h.finish()
}

/// Whether two rows have the same variables and exponent bits.
fn same_bits(a: &[(VarId, f64)], b: &[(VarId, f64)]) -> bool {
    a.len() == b.len()
        && a.iter()
            .zip(b)
            .all(|(x, y)| x.0 == y.0 && x.1.to_bits() == y.1.to_bits())
}

impl TermTable {
    /// A table holding only the constant row [`TermId::ONE`].
    pub fn new() -> Self {
        let mut table = TermTable {
            entries: Vec::new(),
            ends: vec![0],
            heads: HashMap::new(),
            chain: Vec::new(),
            scratch: Vec::new(),
        };
        table.intern_scratch();
        table
    }

    /// Number of distinct rows, the constant row included.
    pub fn row_count(&self) -> usize {
        self.ends.len() - 1
    }

    /// The exponent row of `id`, sorted by variable.
    pub fn row(&self, id: TermId) -> &[(VarId, f64)] {
        let i = id.index();
        &self.entries[self.ends[i] as usize..self.ends[i + 1] as usize]
    }

    /// The id of the single-variable row `v^e` (`e` finite and non-zero).
    pub fn var(&mut self, v: VarId, e: f64) -> TermId {
        self.scratch.clear();
        self.scratch.push((v, e));
        self.intern_scratch()
    }

    /// The id of `m`'s exponent row.
    pub fn intern(&mut self, m: &Monomial) -> TermId {
        self.scratch.clear();
        self.scratch.extend(m.exponents());
        self.intern_scratch()
    }

    /// The id of the row of `a · b`.
    pub fn product(&mut self, a: TermId, b: TermId) -> TermId {
        if b == TermId::ONE {
            return a;
        }
        if a == TermId::ONE {
            return b;
        }
        let mut row = std::mem::take(&mut self.scratch);
        mul_rows(self.row(a), self.row(b), &mut row);
        self.scratch = row;
        self.intern_scratch()
    }

    /// `terms` (ids of this table) read as a posynomial.
    pub fn view<'a>(&'a self, terms: &'a [(TermId, f64)]) -> PosyView<'a> {
        PosyView { table: self, terms }
    }

    /// Interns `scratch`, returning its id.
    fn intern_scratch(&mut self) -> TermId {
        let hash = row_hash(&self.scratch);
        let mut at = self.heads.get(&hash).copied();
        while let Some(id) = at {
            if same_bits(self.row(TermId(id)), &self.scratch) {
                return TermId(id);
            }
            at = self.chain[id as usize];
        }
        let id = match u32::try_from(self.row_count()) {
            Ok(id) => id,
            Err(_) => panic!("a term table holds at most u32::MAX rows"),
        };
        self.entries.extend_from_slice(&self.scratch);
        self.ends.push(self.entries.len() as u32);
        self.chain.push(self.heads.insert(hash, id));
        TermId(id)
    }
}

/// A posynomial stored as `(TermId, coefficient)` pairs over a
/// [`TermTable`], read in place: the one way GP bodies and objectives are
/// read.
#[derive(Debug, Clone, Copy)]
pub struct PosyView<'a> {
    table: &'a TermTable,
    terms: &'a [(TermId, f64)],
}

impl<'a> PosyView<'a> {
    /// The terms, in order.
    pub fn terms(&self) -> &'a [(TermId, f64)] {
        self.terms
    }

    /// The exponent row of `id`, sorted by variable.
    pub fn row(&self, id: TermId) -> &'a [(VarId, f64)] {
        self.table.row(id)
    }

    /// Verifies every term is inside the posynomial cone: coefficients
    /// finite and strictly positive, exponents finite. Construction
    /// enforces these, but arithmetic on extreme inputs can overflow a
    /// coefficient to `inf` (e.g. dividing by a tiny budget); the solver
    /// checks at the problem boundary so such data becomes a typed error
    /// instead of NaN iterates.
    ///
    /// # Errors
    ///
    /// [`PosyError::BadCoefficient`] or [`PosyError::BadExponent`] naming
    /// the first offending value.
    pub fn validate(&self) -> Result<(), PosyError> {
        for &(id, c) in self.terms {
            if !(c.is_finite() && c > 0.0) {
                return Err(PosyError::BadCoefficient { value: c });
            }
            if let Some(&(_, e)) = self.row(id).iter().find(|(_, e)| !e.is_finite()) {
                return Err(PosyError::BadExponent { value: e });
            }
        }
        Ok(())
    }

    /// Evaluates at the strictly positive point `x`, with the bits of
    /// [`Posynomial::eval`](crate::Posynomial::eval) over the same terms.
    ///
    /// # Panics
    ///
    /// Panics if `x` is too short or has a non-positive coordinate a term
    /// reads.
    #[allow(clippy::expect_used)] // documented contract panic
    pub fn eval(&self, x: &[f64]) -> f64 {
        self.terms
            .iter()
            .map(|&(id, c)| eval_row(c, self.row(id), x).expect("invalid evaluation point"))
            .fold(0.0, |acc, t| acc + t)
    }
}

/// A posynomial under construction: `(TermId, coefficient)` pairs in
/// first-insertion order. A push onto an id already present merges with
/// `merge_coeff` — the rule and order of
/// [`Posynomial::push`](crate::Posynomial::push) — found through a dense
/// id → position map, so it costs O(1) and, once the sum has seen the
/// table's ids, allocates nothing.
#[derive(Debug, Clone, Default)]
pub struct TermSum {
    terms: Vec<(TermId, f64)>,
    /// `slot[id]` is the position of `id` in `terms`, plus one (0 =
    /// absent). Only ids in `terms` are non-zero, so [`TermSum::clear`]
    /// resets exactly those.
    slot: Vec<u32>,
    /// Pushes since creation, merges included (a work counter).
    pushes: usize,
}

impl TermSum {
    /// The empty sum.
    pub fn new() -> Self {
        Self::default()
    }

    /// The terms, in first-insertion order, with distinct ids.
    pub fn terms(&self) -> &[(TermId, f64)] {
        &self.terms
    }

    /// Terms pushed since the sum was created, merges included; a
    /// deterministic work counter that [`TermSum::clear`] leaves alone.
    pub fn pushes(&self) -> usize {
        self.pushes
    }

    /// Empties the sum, keeping its buffers.
    pub fn clear(&mut self) {
        for &(id, _) in &self.terms {
            self.slot[id.index()] = 0;
        }
        self.terms.clear();
    }

    /// Adds `c` times the row `id`.
    pub fn push(&mut self, id: TermId, c: f64) {
        self.pushes += 1;
        let i = id.index();
        if i >= self.slot.len() {
            self.slot.resize((i + 1).max(2 * self.slot.len()), 0);
        }
        match self.slot[i] {
            0 => {
                self.terms.push((id, c));
                self.slot[i] = self.terms.len() as u32;
            }
            s => {
                let t = &mut self.terms[s as usize - 1].1;
                *t = merge_coeff(*t, c);
            }
        }
    }

    /// Adds every term of `terms`, each coefficient times `k`, in order.
    pub fn add_scaled(&mut self, terms: &[(TermId, f64)], k: f64) {
        for &(id, c) in terms {
            self.push(id, c * k);
        }
    }

    /// Adds the product `a · b`, term by term: for each term of `a` in
    /// order, each term of `b` in order, the row `a·b` with coefficient
    /// `cₐ·c_b` — the order of `Posynomial * Posynomial`.
    pub fn add_product(&mut self, table: &mut TermTable, a: &[(TermId, f64)], b: &[(TermId, f64)]) {
        for &(ia, ca) in a {
            for &(ib, cb) in b {
                self.push(table.product(ia, ib), ca * cb);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Posynomial, VarPool};

    #[test]
    fn rows_intern_once_and_products_match_monomials() {
        let mut pool = VarPool::new();
        let a = pool.var("a");
        let b = pool.var("b");
        let mut table = TermTable::new();
        let wa = table.var(a, 1.0);
        let inv_b = table.var(b, -1.0);
        assert_eq!(table.var(a, 1.0), wa);
        let ab = table.product(wa, inv_b);
        assert_eq!(table.product(inv_b, wa), ab);
        assert_eq!(table.row(ab), &[(a, 1.0), (b, -1.0)]);
        assert_eq!(
            table.intern(&Monomial::new(3.0).pow(b, -1.0).pow(a, 1.0)),
            ab
        );
        let wb = table.var(b, 1.0);
        assert_eq!(table.product(inv_b, wb), TermId::ONE);
        assert_eq!(table.product(ab, TermId::ONE), ab);
        assert_eq!(table.intern(&Monomial::new(2.0)), TermId::ONE);
        assert_eq!(table.row_count(), 5);
    }

    #[test]
    fn many_rows_keep_their_ids() {
        let mut pool = VarPool::new();
        let vars: Vec<VarId> = (0..200).map(|i| pool.var(&format!("w{i}"))).collect();
        let mut table = TermTable::new();
        let ids: Vec<TermId> = vars.iter().map(|&v| table.var(v, -1.0)).collect();
        for (&v, &id) in vars.iter().zip(&ids) {
            assert_eq!(table.var(v, -1.0), id);
            assert_eq!(table.row(id), &[(v, -1.0)]);
        }
        assert_eq!(table.row_count(), 201);
    }

    #[test]
    fn sum_matches_posynomial_push_bit_for_bit() {
        let mut pool = VarPool::new();
        let a = pool.var("a");
        let b = pool.var("b");
        let mut table = TermTable::new();
        let pushes = [
            (Some(a), 0.3),
            (None, 1.7),
            (Some(b), 0.1),
            (Some(a), 0.7),
            (None, 2.9),
            (Some(a), 1e-3),
        ];
        let mut sum = TermSum::new();
        let mut posy = Posynomial::zero();
        for &(v, c) in &pushes {
            let (id, m) = match v {
                Some(v) => (table.var(v, 1.0), Monomial::new(c).pow(v, 1.0)),
                None => (TermId::ONE, Monomial::new(c)),
            };
            sum.push(id, c);
            posy.push(m);
        }
        let interned: Vec<(TermId, f64)> = posy
            .terms()
            .iter()
            .map(|m| (table.intern(m), m.coeff()))
            .collect();
        let bits = |t: &[(TermId, f64)]| -> Vec<(TermId, u64)> {
            t.iter().map(|&(id, c)| (id, c.to_bits())).collect()
        };
        assert_eq!(bits(sum.terms()), bits(&interned));
        let view = table.view(sum.terms());
        for x in [[0.5, 2.0], [3.0, 0.25]] {
            assert_eq!(view.eval(&x).to_bits(), posy.eval(&x).to_bits());
        }
        assert!(view.validate().is_ok());
        sum.clear();
        assert!(sum.terms().is_empty());
        sum.push(TermId::ONE, 1.0);
        assert_eq!(sum.terms(), &[(TermId::ONE, 1.0)]);
    }
}
