//! Interned exponent rows and the posynomial sums built over them.
//!
//! The constraint generator assembles thousands of timing posynomials
//! whose terms share a handful of exponent rows (`1`, `W`, `1/W`,
//! `Wⱼ/Wᵢ`). A [`TermTable`] stores each distinct row once and names it by
//! a [`TermId`]; a [`TermSum`] is a posynomial under construction as
//! `(TermId, coefficient)` pairs. Pushing or merging a term is then an
//! array lookup — no exponent map is built, compared or freed per term —
//! and a sum becomes a [`Posynomial`] only once, when it is written into
//! the GP.
//!
//! Bits: rows are products under [`smart_posy::mul_rows`], merges go
//! through [`smart_posy::merge_coeff`], and a sum keeps first-insertion
//! order, so a sum built here equals, bit for bit, the [`Posynomial`] the
//! same pushes would build term by term.

use std::collections::HashMap;

use smart_posy::{merge_coeff, mul_rows, Monomial, Posynomial, VarId};

/// Identifier of one interned exponent row in a [`TermTable`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TermId(u32);

impl TermId {
    /// The empty row: a constant term.
    pub const ONE: TermId = TermId(0);

    /// Dense index of the row (ids are handed out 0, 1, 2, …).
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// Every distinct exponent row of one build, stored once.
///
/// Rows are compared exactly — variable and exponent bits — so two rows
/// share an id only if every monomial with them would merge under
/// [`Posynomial::push`].
#[derive(Debug, Clone)]
pub struct TermTable {
    /// All rows back to back; row `i` is `entries[ends[i]..ends[i + 1]]`.
    entries: Vec<(VarId, f64)>,
    ends: Vec<u32>,
    /// Row, exponents by bits, to id.
    ids: HashMap<Vec<(VarId, u64)>, TermId>,
    /// The row being interned, and its exponents by bits (the lookup key).
    scratch: Vec<(VarId, f64)>,
    key: Vec<(VarId, u64)>,
}

impl Default for TermTable {
    fn default() -> Self {
        Self::new()
    }
}

impl TermTable {
    /// A table holding only the constant row [`TermId::ONE`].
    pub fn new() -> Self {
        let mut table = TermTable {
            entries: Vec::new(),
            ends: vec![0],
            ids: HashMap::new(),
            scratch: Vec::new(),
            key: Vec::new(),
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

    /// Writes `terms` as a [`Posynomial`], in order. The terms must have
    /// distinct ids, as every [`TermSum`] has.
    pub fn posynomial(&self, terms: &[(TermId, f64)]) -> Posynomial {
        Posynomial::from_distinct_terms(
            terms
                .iter()
                .map(|&(id, c)| Monomial::from_row(c, self.row(id)))
                .collect(),
        )
    }

    /// Interns `scratch`, returning its id.
    fn intern_scratch(&mut self) -> TermId {
        self.key.clear();
        self.key
            .extend(self.scratch.iter().map(|&(v, e)| (v, e.to_bits())));
        if let Some(&id) = self.ids.get(self.key.as_slice()) {
            return id;
        }
        let id = TermId(self.row_count() as u32);
        self.entries.extend_from_slice(&self.scratch);
        self.ends.push(self.entries.len() as u32);
        self.ids.insert(self.key.clone(), id);
        id
    }
}

/// A posynomial under construction: `(TermId, coefficient)` pairs in
/// first-insertion order. A push onto an id already present merges with
/// [`merge_coeff`] — the rule and order of [`Posynomial::push`] — found
/// through a dense id → position map, so it costs O(1) and, once the sum
/// has seen the table's ids, allocates nothing.
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
    use smart_posy::VarPool;

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
        let wb = table.var(b, 1.0);
        assert_eq!(table.product(inv_b, wb), TermId::ONE);
        assert_eq!(table.product(ab, TermId::ONE), ab);
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
        assert_eq!(table.posynomial(sum.terms()), posy);
        sum.clear();
        assert!(sum.terms().is_empty());
        sum.push(TermId::ONE, 1.0);
        assert_eq!(sum.terms(), &[(TermId::ONE, 1.0)]);
    }
}
