//! Small linear-algebra kernels: the Thomas tridiagonal solver used by the
//! implicit PDE steps, plus a dense Gaussian-elimination reference used to
//! validate it in tests.

/// Solve the tridiagonal system
/// `a[i]·x[i-1] + b[i]·x[i] + c[i]·x[i+1] = d[i]` with the Thomas algorithm.
///
/// `a[0]` and `c[n-1]` are ignored. O(n) time. Thin allocating wrapper over
/// [`solve_tridiagonal_into`], kept for compatibility; hot paths should
/// call the `_into` form with caller-owned scratch.
///
/// # Panics
///
/// Panics if the slices have mismatched lengths, are empty, or a pivot
/// vanishes (the matrix must be non-singular; diagonally dominant systems —
/// the only kind the PDE steppers produce — always satisfy this).
pub fn solve_tridiagonal(a: &[f64], b: &[f64], c: &[f64], d: &[f64]) -> Vec<f64> {
    let n = b.len();
    assert!(
        a.len() == n && c.len() == n && d.len() == n,
        "tridiagonal bands must have equal length"
    );
    let mut x = d.to_vec();
    let mut c_star = vec![0.0; n];
    solve_tridiagonal_into(a, b, c, &mut x, &mut c_star);
    x
}

/// Allocation-free [`solve_tridiagonal`]: `x` holds the right-hand side on
/// entry and the solution on exit; `c_star` is caller-owned scratch of the
/// same length. The arithmetic (operation kinds and order) is identical to
/// the allocating form, so results are bit-identical.
///
/// # Panics
///
/// Panics under the same conditions as [`solve_tridiagonal`], or if
/// `c_star` has the wrong length.
pub fn solve_tridiagonal_into(a: &[f64], b: &[f64], c: &[f64], x: &mut [f64], c_star: &mut [f64]) {
    let n = b.len();
    assert!(n > 0, "empty system");
    assert!(
        a.len() == n && c.len() == n && x.len() == n,
        "tridiagonal bands must have equal length"
    );
    assert_eq!(c_star.len(), n, "c_star scratch length mismatch");
    let mut beta = b[0];
    assert!(beta.abs() > f64::MIN_POSITIVE, "zero pivot at row 0");
    c_star[0] = c[0] / beta;
    x[0] /= beta;
    for i in 1..n {
        beta = b[i] - a[i] * c_star[i - 1];
        assert!(beta.abs() > f64::MIN_POSITIVE, "zero pivot at row {i}");
        c_star[i] = c[i] / beta;
        x[i] = (x[i] - a[i] * x[i - 1]) / beta;
    }
    for i in (0..n - 1).rev() {
        x[i] -= c_star[i] * x[i + 1];
    }
}

/// Solve a dense system `A x = rhs` with partial-pivoting Gaussian
/// elimination. `a` is row-major `n × n`. Intended as a test oracle for
/// [`solve_tridiagonal`]; O(n³).
///
/// # Panics
///
/// Panics on dimension mismatch or a singular matrix.
pub fn solve_dense(a: &[f64], rhs: &[f64], n: usize) -> Vec<f64> {
    assert_eq!(a.len(), n * n, "matrix must be n×n");
    assert_eq!(rhs.len(), n, "rhs must have length n");
    let mut m = a.to_vec();
    let mut x = rhs.to_vec();
    for col in 0..n {
        // Partial pivot.
        let pivot_row = (col..n)
            .max_by(|&r1, &r2| {
                m[r1 * n + col]
                    .abs()
                    .partial_cmp(&m[r2 * n + col].abs())
                    .expect("no NaN in matrix")
            })
            .expect("non-empty range");
        assert!(
            m[pivot_row * n + col].abs() > 1e-300,
            "singular matrix at column {col}"
        );
        if pivot_row != col {
            for k in 0..n {
                m.swap(col * n + k, pivot_row * n + k);
            }
            x.swap(col, pivot_row);
        }
        let pivot = m[col * n + col];
        for row in col + 1..n {
            let factor = m[row * n + col] / pivot;
            if factor == 0.0 {
                continue;
            }
            for k in col..n {
                m[row * n + k] -= factor * m[col * n + k];
            }
            x[row] -= factor * x[col];
        }
    }
    for row in (0..n).rev() {
        let mut acc = x[row];
        for k in row + 1..n {
            acc -= m[row * n + k] * x[k];
        }
        x[row] = acc / m[row * n + row];
    }
    x
}

/// Maximum absolute difference between two vectors.
///
/// # Panics
///
/// Panics if the lengths differ.
pub fn max_abs_diff(a: &[f64], b: &[f64]) -> f64 {
    assert_eq!(a.len(), b.len(), "length mismatch");
    a.iter()
        .zip(b)
        .fold(0.0_f64, |m, (x, y)| m.max((x - y).abs()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn thomas_solves_identity() {
        let n = 5;
        let a = vec![0.0; n];
        let b = vec![1.0; n];
        let c = vec![0.0; n];
        let d = vec![3.0, -1.0, 0.0, 2.0, 5.0];
        assert_eq!(solve_tridiagonal(&a, &b, &c, &d), d);
    }

    #[test]
    fn thomas_matches_dense_on_laplacian() {
        // Discrete 1-D Laplacian with Dirichlet boundaries: -1, 2, -1.
        let n = 12;
        let a = vec![-1.0; n];
        let b = vec![2.0; n];
        let c = vec![-1.0; n];
        let d: Vec<f64> = (0..n).map(|i| (i as f64 * 0.7).sin()).collect();
        let x_tri = solve_tridiagonal(&a, &b, &c, &d);

        let mut dense = vec![0.0; n * n];
        for i in 0..n {
            dense[i * n + i] = 2.0;
            if i > 0 {
                dense[i * n + i - 1] = -1.0;
            }
            if i + 1 < n {
                dense[i * n + i + 1] = -1.0;
            }
        }
        let x_dense = solve_dense(&dense, &d, n);
        assert!(max_abs_diff(&x_tri, &x_dense) < 1e-10);
    }

    #[test]
    fn dense_solves_permuted_system() {
        // A system requiring pivoting: zero on the first diagonal entry.
        let a = vec![0.0, 1.0, 1.0, 0.0];
        let rhs = vec![2.0, 3.0];
        let x = solve_dense(&a, &rhs, 2);
        assert!((x[0] - 3.0).abs() < 1e-12);
        assert!((x[1] - 2.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "equal length")]
    fn thomas_rejects_mismatched_bands() {
        solve_tridiagonal(&[0.0], &[1.0, 1.0], &[0.0, 0.0], &[1.0, 1.0]);
    }

    #[test]
    #[should_panic(expected = "singular")]
    fn dense_rejects_singular() {
        solve_dense(&[1.0, 1.0, 1.0, 1.0], &[1.0, 2.0], 2);
    }
}
