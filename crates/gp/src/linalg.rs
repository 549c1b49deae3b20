//! Minimal dense linear algebra for the Newton steps of the GP solver.
//!
//! Problem sizes after SMART's label-sharing are tiny (tens to a few hundred
//! variables), so a dense Cholesky is both sufficient and fully inspectable —
//! no external linear-algebra dependency is warranted (cf. DESIGN.md §5).
//!
//! Two families live here:
//!
//! * the historical `Vec<Vec<f64>>` routines ([`cholesky`], [`solve_spd`],
//!   [`solve_spd_ridged`]) — kept as the *dense oracle* the differential
//!   parity suite and [`crate::GpProblem::solve_reference`] pin against;
//! * the **packed lower-triangular** routines the production solver uses
//!   ([`cholesky_packed_in_place`], [`solve_packed_in_place`],
//!   [`solve_spd_ridged_packed`]) — one flat row-major buffer
//!   (`a[i·(i+1)/2 + j]`, `j ≤ i`, the [`smart_posy::packed_index`]
//!   layout), factored in place, with in-place ridge escalation that
//!   copies into a caller-owned scratch buffer instead of cloning the
//!   matrix per attempt. Both families run the identical arithmetic in
//!   the identical order, so their results agree to the last bit.

/// Dot product of two equally sized slices.
///
/// # Panics
///
/// Panics if the slices differ in length.
pub fn dot(a: &[f64], b: &[f64]) -> f64 {
    assert_eq!(a.len(), b.len(), "dot of mismatched lengths");
    a.iter().zip(b).map(|(x, y)| x * y).sum()
}

/// Euclidean norm.
pub fn norm(a: &[f64]) -> f64 {
    dot(a, a).sqrt()
}

/// In-place `y += alpha * x`.
///
/// # Panics
///
/// Panics if the slices differ in length.
pub fn axpy(alpha: f64, x: &[f64], y: &mut [f64]) {
    assert_eq!(x.len(), y.len(), "axpy of mismatched lengths");
    for (yi, xi) in y.iter_mut().zip(x) {
        *yi += alpha * xi;
    }
}

/// Cholesky factorization `A = L·Lᵀ` of a symmetric positive-definite matrix,
/// returning the lower factor, or `None` if a pivot is not strictly positive
/// (matrix not PD to working precision).
#[allow(clippy::needless_range_loop)] // triangular index arithmetic reads better with indices
pub fn cholesky(a: &[Vec<f64>]) -> Option<Vec<Vec<f64>>> {
    let n = a.len();
    let mut l = vec![vec![0.0; n]; n];
    for i in 0..n {
        debug_assert_eq!(a[i].len(), n, "matrix must be square");
        for j in 0..=i {
            let mut s = a[i][j];
            for k in 0..j {
                s -= l[i][k] * l[j][k];
            }
            if i == j {
                if !s.is_finite() || s <= 0.0 {
                    return None;
                }
                l[i][j] = s.sqrt();
            } else {
                l[i][j] = s / l[j][j];
            }
        }
    }
    Some(l)
}

/// Solves `A x = b` for symmetric positive-definite `A` via Cholesky.
///
/// Returns `None` when `A` is not PD to working precision.
pub fn solve_spd(a: &[Vec<f64>], b: &[f64]) -> Option<Vec<f64>> {
    let l = cholesky(a)?;
    let n = b.len();
    // Forward solve L z = b.
    let mut z = vec![0.0; n];
    for i in 0..n {
        let mut s = b[i];
        for k in 0..i {
            s -= l[i][k] * z[k];
        }
        z[i] = s / l[i][i];
    }
    // Back solve Lᵀ x = z.
    let mut x = vec![0.0; n];
    for i in (0..n).rev() {
        let mut s = z[i];
        for k in (i + 1)..n {
            s -= l[k][i] * x[k];
        }
        x[i] = s / l[i][i];
    }
    Some(x)
}

/// Solves `A x = b` for symmetric `A`, adding a growing ridge `λI` until the
/// matrix factors. Used for Newton steps on nearly singular Hessians (e.g.
/// variables that appear in no active constraint).
///
/// Returns the solution together with the ridge that was needed.
pub fn solve_spd_ridged(a: &[Vec<f64>], b: &[f64]) -> (Vec<f64>, f64) {
    if let Some(x) = solve_spd(a, b) {
        return (x, 0.0);
    }
    let n = a.len();
    // Scale the ridge to the matrix magnitude.
    let diag_max = (0..n)
        .map(|i| a[i][i].abs())
        .fold(0.0f64, f64::max)
        .max(1e-12);
    let mut lambda = diag_max * 1e-10;
    loop {
        let mut ar = a.to_vec();
        for (i, row) in ar.iter_mut().enumerate() {
            row[i] += lambda;
        }
        if let Some(x) = solve_spd(&ar, b) {
            return (x, lambda);
        }
        lambda *= 10.0;
        assert!(
            lambda.is_finite() && lambda < diag_max * 1e12,
            "ridge escalation failed; matrix is pathological"
        );
    }
}

/// In-place Cholesky factorization of a symmetric positive-definite matrix
/// stored as a packed row-major lower triangle (`a[i·(i+1)/2 + j]`,
/// `j ≤ i`). On success `a` holds the lower factor `L`; on failure (a
/// pivot not strictly positive to working precision) returns `false` and
/// `a` is partially overwritten — re-copy before retrying.
///
/// Same arithmetic in the same order as [`cholesky`], so the packed factor
/// is bit-identical to the dense one.
///
/// # Panics
///
/// Panics if `a.len() != n·(n+1)/2`.
pub fn cholesky_packed_in_place(a: &mut [f64], n: usize) -> bool {
    assert_eq!(a.len(), n * (n + 1) / 2, "packed triangle has wrong length");
    for i in 0..n {
        let ti = i * (i + 1) / 2;
        for j in 0..=i {
            let tj = j * (j + 1) / 2;
            let mut s = a[ti + j];
            for k in 0..j {
                s -= a[ti + k] * a[tj + k];
            }
            if i == j {
                if !s.is_finite() || s <= 0.0 {
                    return false;
                }
                a[ti + j] = s.sqrt();
            } else {
                a[ti + j] = s / a[tj + j];
            }
        }
    }
    true
}

/// Solves `L·Lᵀ x = b` in place: `x` enters holding `b` and leaves holding
/// the solution. `l` is a packed lower factor from
/// [`cholesky_packed_in_place`].
///
/// # Panics
///
/// Panics if the buffer lengths disagree with `n`.
pub fn solve_packed_in_place(l: &[f64], n: usize, x: &mut [f64]) {
    assert_eq!(l.len(), n * (n + 1) / 2, "packed factor has wrong length");
    assert_eq!(x.len(), n, "rhs has wrong length");
    // Forward solve L z = b (z overwrites x).
    for i in 0..n {
        let ti = i * (i + 1) / 2;
        let mut s = x[i];
        for k in 0..i {
            s -= l[ti + k] * x[k];
        }
        x[i] = s / l[ti + i];
    }
    // Back solve Lᵀ x = z.
    for i in (0..n).rev() {
        let mut s = x[i];
        for k in (i + 1)..n {
            s -= l[k * (k + 1) / 2 + i] * x[k];
        }
        x[i] = s / l[i * (i + 1) / 2 + i];
    }
}

/// Packed twin of [`solve_spd_ridged`]: solves `A x = b` for a symmetric
/// matrix in packed lower-triangular form, escalating a ridge `λI` until
/// the matrix factors. `factor` is caller-owned scratch (the matrix copy
/// that gets factored in place) and `x` receives the solution — both are
/// resized once and reused across calls, so the steady state performs no
/// heap allocation, unlike the dense path's `a.to_vec()` per attempt.
///
/// Returns the ridge that was needed.
///
/// # Panics
///
/// Panics if `a.len() != n·(n+1)/2` or ridge escalation diverges (the
/// matrix is pathological — not symmetric-PSD within any reasonable
/// perturbation).
pub fn solve_spd_ridged_packed(
    a: &[f64],
    n: usize,
    b: &[f64],
    factor: &mut Vec<f64>,
    x: &mut Vec<f64>,
) -> f64 {
    assert_eq!(a.len(), n * (n + 1) / 2, "packed triangle has wrong length");
    assert_eq!(b.len(), n, "rhs has wrong length");
    let refill = |factor: &mut Vec<f64>, x: &mut Vec<f64>| {
        factor.clear();
        factor.extend_from_slice(a);
        x.clear();
        x.extend_from_slice(b);
    };
    refill(factor, x);
    if cholesky_packed_in_place(factor, n) {
        solve_packed_in_place(factor, n, x);
        return 0.0;
    }
    let diag_max = (0..n)
        .map(|i| a[i * (i + 1) / 2 + i].abs())
        .fold(0.0f64, f64::max)
        .max(1e-12);
    let mut lambda = diag_max * 1e-10;
    loop {
        refill(factor, x);
        for i in 0..n {
            factor[i * (i + 1) / 2 + i] += lambda;
        }
        if cholesky_packed_in_place(factor, n) {
            solve_packed_in_place(factor, n, x);
            return lambda;
        }
        lambda *= 10.0;
        assert!(
            lambda.is_finite() && lambda < diag_max * 1e12,
            "ridge escalation failed; matrix is pathological"
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dot_norm_axpy() {
        let a = [1.0, 2.0, 3.0];
        let b = [4.0, -5.0, 6.0];
        assert_eq!(dot(&a, &b), 4.0 - 10.0 + 18.0);
        assert!((norm(&[3.0, 4.0]) - 5.0).abs() < 1e-15);
        let mut y = [1.0, 1.0, 1.0];
        axpy(2.0, &a, &mut y);
        assert_eq!(y, [3.0, 5.0, 7.0]);
    }

    #[test]
    fn cholesky_solves_known_system() {
        // A = [[4,2],[2,3]], b = [2,1] -> x = [0.5, 0]
        let a = vec![vec![4.0, 2.0], vec![2.0, 3.0]];
        let x = solve_spd(&a, &[2.0, 1.0]).expect("pd");
        assert!((x[0] - 0.5).abs() < 1e-12);
        assert!(x[1].abs() < 1e-12);
    }

    #[test]
    fn cholesky_rejects_indefinite() {
        let a = vec![vec![0.0, 1.0], vec![1.0, 0.0]];
        assert!(cholesky(&a).is_none());
        let a = vec![vec![-1.0]];
        assert!(cholesky(&a).is_none());
    }

    #[test]
    fn ridged_solve_handles_singular() {
        let a = vec![vec![1.0, 0.0], vec![0.0, 0.0]];
        let (x, lambda) = solve_spd_ridged(&a, &[1.0, 0.0]);
        assert!(lambda > 0.0);
        assert!((x[0] - 1.0).abs() < 1e-6);
        assert!(x[1].abs() < 1e-6);
    }

    #[test]
    #[allow(clippy::needless_range_loop)]
    fn packed_cholesky_matches_dense_bitwise() {
        // Deterministic SPD matrix, factored both ways.
        let n = 9;
        let mut seed = 7u64;
        let mut rnd = || {
            seed = seed
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((seed >> 11) as f64 / (1u64 << 53) as f64) * 2.0 - 1.0
        };
        let m: Vec<Vec<f64>> = (0..n).map(|_| (0..n).map(|_| rnd()).collect()).collect();
        let mut a = vec![vec![0.0; n]; n];
        for (i, row) in a.iter_mut().enumerate() {
            for (j, aij) in row.iter_mut().enumerate() {
                for mk in &m {
                    *aij += mk[i] * mk[j];
                }
                if i == j {
                    *aij += 1.0;
                }
            }
        }
        let mut packed: Vec<f64> = Vec::new();
        for i in 0..n {
            for j in 0..=i {
                packed.push(a[i][j]);
            }
        }
        let l = cholesky(&a).expect("pd");
        assert!(cholesky_packed_in_place(&mut packed, n));
        for i in 0..n {
            for j in 0..=i {
                assert_eq!(
                    packed[i * (i + 1) / 2 + j].to_bits(),
                    l[i][j].to_bits(),
                    "factor entry ({i},{j}) differs"
                );
            }
        }
        // And the solves agree bitwise too.
        let b: Vec<f64> = (0..n).map(|_| rnd()).collect();
        let xd = solve_spd(&a, &b).expect("pd");
        let mut xp = b.clone();
        solve_packed_in_place(&packed, n, &mut xp);
        for i in 0..n {
            assert_eq!(
                xp[i].to_bits(),
                xd[i].to_bits(),
                "solution entry {i} differs"
            );
        }
    }

    #[test]
    fn packed_cholesky_rejects_indefinite() {
        // [[0,1],[1,0]] packed: [0, 1, 0]
        let mut a = vec![0.0, 1.0, 0.0];
        assert!(!cholesky_packed_in_place(&mut a, 2));
        let mut a = vec![-1.0];
        assert!(!cholesky_packed_in_place(&mut a, 1));
    }

    #[test]
    fn packed_ridged_solve_handles_singular_and_reuses_buffers() {
        // [[1,0],[0,0]] packed: [1, 0, 0]
        let a = vec![1.0, 0.0, 0.0];
        let mut factor = Vec::new();
        let mut x = Vec::new();
        let lambda = solve_spd_ridged_packed(&a, 2, &[1.0, 0.0], &mut factor, &mut x);
        assert!(lambda > 0.0);
        assert!((x[0] - 1.0).abs() < 1e-6);
        assert!(x[1].abs() < 1e-6);
        // Matches the dense ridged path bitwise (same lambda schedule).
        let ad = vec![vec![1.0, 0.0], vec![0.0, 0.0]];
        let (xd, ld) = solve_spd_ridged(&ad, &[1.0, 0.0]);
        assert_eq!(lambda.to_bits(), ld.to_bits());
        assert_eq!(x[0].to_bits(), xd[0].to_bits());
        assert_eq!(x[1].to_bits(), xd[1].to_bits());
        // Second solve on a PD matrix reuses the same buffers without growth.
        let cap_f = factor.capacity();
        let cap_x = x.capacity();
        let b = vec![2.0, 1.0];
        let apd = vec![4.0, 2.0, 3.0]; // [[4,2],[2,3]]
        let lambda = solve_spd_ridged_packed(&apd, 2, &b, &mut factor, &mut x);
        assert_eq!(lambda, 0.0);
        assert!((x[0] - 0.5).abs() < 1e-12);
        assert!(x[1].abs() < 1e-12);
        assert_eq!(factor.capacity(), cap_f);
        assert_eq!(x.capacity(), cap_x);
    }

    #[test]
    #[allow(clippy::needless_range_loop)]
    fn solve_residual_is_small_on_random_spd() {
        // Deterministic pseudo-random SPD matrix: A = MᵀM + I.
        let n = 12;
        let mut seed = 42u64;
        let mut rnd = || {
            seed = seed
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((seed >> 11) as f64 / (1u64 << 53) as f64) * 2.0 - 1.0
        };
        let m: Vec<Vec<f64>> = (0..n).map(|_| (0..n).map(|_| rnd()).collect()).collect();
        let mut a = vec![vec![0.0; n]; n];
        for i in 0..n {
            for j in 0..n {
                for k in 0..n {
                    a[i][j] += m[k][i] * m[k][j];
                }
            }
            a[i][i] += 1.0;
        }
        let b: Vec<f64> = (0..n).map(|_| rnd()).collect();
        let x = solve_spd(&a, &b).expect("pd");
        // Check residual.
        for i in 0..n {
            let ri: f64 = (0..n).map(|j| a[i][j] * x[j]).sum::<f64>() - b[i];
            assert!(ri.abs() < 1e-9, "row {i} residual {ri}");
        }
    }
}
