//! Randomized algebra tests: posynomial algebra laws hold on seeded
//! pseudo-random inputs. Deterministic (fixed seeds via `smart-prng`), so
//! they run identically offline and in CI — no external property-testing
//! framework.

use smart_posy::{LogPosynomial, Monomial, Posynomial, TermTable, VarId};
use smart_prng::Prng;

const DIM: usize = 4;
const CASES: usize = 128;

fn monomial(r: &mut Prng) -> Monomial {
    let mut m = Monomial::new(r.f64_in(0.01, 100.0));
    for i in 0..DIM {
        m = m.pow(VarId::from_index(i), r.f64_in(-3.0, 3.0));
    }
    m
}

fn posynomial(r: &mut Prng) -> Posynomial {
    let n = r.usize_in(1, 6);
    let mut p = Posynomial::zero();
    for _ in 0..n {
        p.push(monomial(r));
    }
    p
}

/// `p` in log form, its rows interned in `table`, which the log form
/// borrows.
fn log_form<'t>(table: &'t mut TermTable, p: &Posynomial) -> LogPosynomial<'t> {
    let terms: Vec<_> = p
        .terms()
        .iter()
        .map(|m| (table.intern(m), m.coeff()))
        .collect();
    LogPosynomial::new(table, &terms, DIM)
}

fn point(r: &mut Prng) -> Vec<f64> {
    r.f64_vec(0.05, 20.0, DIM)
}

fn close(a: f64, b: f64) -> bool {
    let scale = a.abs().max(b.abs()).max(1.0);
    (a - b).abs() <= 1e-8 * scale
}

#[test]
fn addition_is_pointwise() {
    let mut r = Prng::new(0xA1);
    for _ in 0..CASES {
        let (p, q, x) = (posynomial(&mut r), posynomial(&mut r), point(&mut r));
        let sum = p.clone() + q.clone();
        assert!(close(sum.eval(&x), p.eval(&x) + q.eval(&x)));
    }
}

#[test]
fn multiplication_is_pointwise() {
    let mut r = Prng::new(0xA2);
    for _ in 0..CASES {
        let (p, q, x) = (posynomial(&mut r), posynomial(&mut r), point(&mut r));
        let prod = p.clone() * q.clone();
        assert!(close(prod.eval(&x), p.eval(&x) * q.eval(&x)));
    }
}

#[test]
fn addition_commutes() {
    let mut r = Prng::new(0xA3);
    for _ in 0..CASES {
        let (p, q, x) = (posynomial(&mut r), posynomial(&mut r), point(&mut r));
        let a = p.clone() + q.clone();
        let b = q + p;
        assert!(close(a.eval(&x), b.eval(&x)));
    }
}

#[test]
fn monomial_division_inverts_multiplication() {
    let mut r = Prng::new(0xA4);
    for _ in 0..CASES {
        let (p, m, x) = (posynomial(&mut r), monomial(&mut r), point(&mut r));
        let roundtrip = (p.clone() * m.clone()).div_monomial(&m);
        assert!(close(roundtrip.eval(&x), p.eval(&x)));
    }
}

#[test]
fn eval_is_strictly_positive() {
    let mut r = Prng::new(0xA5);
    for _ in 0..CASES {
        let (p, x) = (posynomial(&mut r), point(&mut r));
        assert!(p.eval(&x) > 0.0);
    }
}

#[test]
fn logform_value_matches_log_of_eval() {
    let mut r = Prng::new(0xA6);
    for _ in 0..CASES {
        let (p, x) = (posynomial(&mut r), point(&mut r));
        let mut table = TermTable::new();
        let lp = log_form(&mut table, &p);
        let y: Vec<f64> = x.iter().map(|v| v.ln()).collect();
        assert!(close(lp.value(&y), p.eval(&x).ln()));
    }
}

#[test]
fn logform_gradient_matches_finite_difference() {
    let mut r = Prng::new(0xA7);
    for _ in 0..CASES {
        let (p, x) = (posynomial(&mut r), point(&mut r));
        let mut table = TermTable::new();
        let lp = log_form(&mut table, &p);
        let y: Vec<f64> = x.iter().map(|v| v.ln()).collect();
        let (_, grad, _) = lp.value_grad_hess(&y);
        let h = 1e-6;
        for i in 0..DIM {
            let mut yp = y.clone();
            let mut ym = y.clone();
            yp[i] += h;
            ym[i] -= h;
            let fd = (lp.value(&yp) - lp.value(&ym)) / (2.0 * h);
            assert!(
                (grad[i] - fd).abs() < 1e-4,
                "grad[{}]={} fd={}",
                i,
                grad[i],
                fd
            );
        }
    }
}

#[test]
fn hessian_is_psd_on_random_directions() {
    let mut r = Prng::new(0xA8);
    for _ in 0..CASES {
        let (p, x) = (posynomial(&mut r), point(&mut r));
        let d = r.f64_vec(-1.0, 1.0, DIM);
        let mut table = TermTable::new();
        let lp = log_form(&mut table, &p);
        let y: Vec<f64> = x.iter().map(|v| v.ln()).collect();
        let (_, _, hess) = lp.value_grad_hess(&y);
        let q: f64 = (0..DIM)
            .map(|i| (0..DIM).map(|j| d[i] * hess[i][j] * d[j]).sum::<f64>())
            .sum();
        assert!(q >= -1e-9, "Hessian not PSD: {q}");
    }
}

#[test]
fn monomial_powf_matches_eval() {
    let mut r = Prng::new(0xA9);
    for _ in 0..CASES {
        let (m, x) = (monomial(&mut r), point(&mut r));
        let pwr = r.f64_in(-2.0, 2.0);
        let lhs = m.powf(pwr).eval(&x);
        let rhs = m.eval(&x).powf(pwr);
        assert!(close(lhs, rhs));
    }
}

#[test]
fn push_normalization_preserves_value() {
    let mut r = Prng::new(0xAA);
    for _ in 0..CASES {
        let n = r.usize_in(1, 8);
        let ms: Vec<Monomial> = (0..n).map(|_| monomial(&mut r)).collect();
        let x = point(&mut r);
        let mut p = Posynomial::zero();
        let mut direct = 0.0;
        for m in &ms {
            direct += m.eval(&x);
        }
        for m in ms {
            p.push(m);
        }
        assert!(close(p.eval(&x), direct));
    }
}
