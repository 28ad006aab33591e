//! Golub–Kahan Householder bidiagonalization.
//!
//! Reduces an `m × n` matrix with `m ≥ n` to upper-bidiagonal form
//! `A = U · B · Vᵀ`, where `U` is `m × n` with orthonormal columns, `V` is `n × n`
//! orthogonal, and `B` is upper bidiagonal (diagonal `d`, superdiagonal `e`). This is
//! stage one of the Golub–Reinsch SVD in [`crate::svd`].
//!
//! One reduction loop serves two callers: [`bidiagonalize_in`] accumulates
//! `U` and `V` from the packed reflectors, while [`bidiagonal_in`] — stage
//! one of the values-only SVD behind TMA — keeps just `(d, e)` and never
//! forms either factor. Every reflector lives in a pooled flat buffer and
//! both reflector applications walk contiguous row segments (a left
//! reflector accumulates `wᵀ = vᵀA` row by row), so a warm [`Workspace`]
//! makes the whole factorization allocation-free. [`bidiagonalize`] is the
//! owned-API wrapper.

use crate::error::LinAlgError;
use crate::matrix::Matrix;
use crate::vecops;
use crate::view::MatRef;
use crate::workspace::Workspace;
use crate::Result;

/// Result of a bidiagonalization `A = U · B · Vᵀ`.
#[derive(Debug, Clone)]
pub struct Bidiag {
    /// Left orthonormal factor, `m × n`.
    pub u: Matrix,
    /// Right orthogonal factor, `n × n`.
    pub v: Matrix,
    /// Diagonal of `B`, length `n`.
    pub d: Vec<f64>,
    /// Superdiagonal of `B` (`e[j] = B[j, j+1]`), length `n − 1`.
    pub e: Vec<f64>,
}

impl Bidiag {
    /// Reassembles the bidiagonal matrix `B` (n × n).
    pub fn b_matrix(&self) -> Matrix {
        let n = self.d.len();
        let mut b = Matrix::zeros(n, n);
        for j in 0..n {
            b[(j, j)] = self.d[j];
            if j + 1 < n {
                b[(j, j + 1)] = self.e[j];
            }
        }
        b
    }

    /// Reconstructs `U · B · Vᵀ` (for testing).
    pub fn reconstruct(&self) -> Matrix {
        let ub = crate::matmul::matmul_naive(&self.u, &self.b_matrix()).expect("shape");
        crate::matmul::matmul_naive(&ub, &self.v.transpose()).expect("shape")
    }
}

/// Applies a left reflector `(v, β)` spanning rows `row0..row0 + v.len()` to
/// columns `col0..cols` of `a`. `wᵀ = β·vᵀA` is accumulated over contiguous
/// row segments into `w` (scratch of length ≥ `cols`), then each row takes
/// its rank-one update — the same sums, in the same order, as a
/// column-at-a-time walk, without the stride-`cols` reads.
fn apply_left_cols(a: &mut Matrix, v: &[f64], beta: f64, row0: usize, col0: usize, w: &mut [f64]) {
    if beta == 0.0 {
        return;
    }
    let w = &mut w[col0..a.cols()];
    w.fill(0.0);
    for (off, &vk) in v.iter().enumerate() {
        for (wc, &x) in w.iter_mut().zip(&a.row(row0 + off)[col0..]) {
            *wc += vk * x;
        }
    }
    for wc in w.iter_mut() {
        *wc *= beta;
    }
    for (off, &vk) in v.iter().enumerate() {
        for (x, &wc) in a.row_mut(row0 + off)[col0..].iter_mut().zip(w.iter()) {
            *x -= wc * vk;
        }
    }
}

/// Applies a right reflector `(v, β)` spanning columns `col0..col0 + v.len()`
/// to rows `row0..rows` of `a` (each row segment is contiguous).
fn apply_right_rows(a: &mut Matrix, v: &[f64], beta: f64, row0: usize, col0: usize) {
    if beta == 0.0 {
        return;
    }
    let m = a.rows();
    for i in row0..m {
        vecops::apply_reflector(v, beta, &mut a.row_mut(i)[col0..col0 + v.len()]);
    }
}

/// Bidiagonalizes `a` (requires `m ≥ n ≥ 1`).
pub fn bidiagonalize(a: &Matrix) -> Result<Bidiag> {
    let mut ws = Workspace::new();
    bidiagonalize_in(a.view(), &mut ws)
}

/// The packed reflectors of one reduction, all pooled. Left reflector `j`
/// spans rows `j..m` (length `m − j`) at `lv[loffs[j]..]`; right reflector
/// `j` spans columns `j+1..n` (length `n − j − 1`, present only while
/// `j + 2 < n`) at `rv[roffs[j]..]`.
struct Reflectors {
    lv: Vec<f64>,
    rv: Vec<f64>,
    lbeta: Vec<f64>,
    rbeta: Vec<f64>,
    loffs: Vec<usize>,
    roffs: Vec<usize>,
    /// Row-accumulation scratch for [`apply_left_cols`], length `n`.
    w: Vec<f64>,
}

impl Reflectors {
    fn recycle(self, ws: &mut Workspace) {
        ws.recycle_vec(self.lv);
        ws.recycle_vec(self.rv);
        ws.recycle_vec(self.lbeta);
        ws.recycle_vec(self.rbeta);
        ws.recycle_idx(self.loffs);
        ws.recycle_idx(self.roffs);
        ws.recycle_vec(self.w);
    }
}

/// Validates `a`, copies it into pooled scratch, and reduces the copy to
/// upper-bidiagonal form in place — the loop shared by [`bidiagonalize_in`]
/// and [`bidiagonal_in`]. Returns the reduced copy and its reflectors.
fn reduce_in(a: MatRef<'_>, ws: &mut Workspace) -> Result<(Matrix, Reflectors)> {
    let (m, n) = a.shape();
    if m == 0 || n == 0 {
        return Err(LinAlgError::Empty {
            op: "bidiagonalize",
        });
    }
    if m < n {
        return Err(LinAlgError::ShapeMismatch {
            op: "bidiagonalize (needs m >= n)",
            lhs: (m, n),
            rhs: (n, m),
        });
    }
    a.check_finite("bidiagonalize")?;

    let mut work = ws.take_matrix(m, n, 0.0);
    work.view_mut().copy_from(a);

    let left_total: usize = (0..n).map(|j| m - j).sum();
    let right_total: usize = (0..n.saturating_sub(2)).map(|j| n - j - 1).sum();
    let mut r = Reflectors {
        lv: ws.take_vec(left_total, 0.0),
        rv: ws.take_vec(right_total, 0.0),
        lbeta: ws.take_vec(n, 0.0),
        rbeta: ws.take_vec(n, 0.0),
        loffs: ws.take_idx(n),
        roffs: ws.take_idx(n),
        w: ws.take_vec(n, 0.0),
    };

    let mut loff = 0usize;
    let mut roff = 0usize;
    for j in 0..n {
        // Left reflector: annihilate work[j+1.., j].
        let llen = m - j;
        r.loffs[j] = loff;
        let beta = {
            let slot = &mut r.lv[loff..loff + llen];
            for (off, s) in slot.iter_mut().enumerate() {
                *s = work[(j + off, j)];
            }
            let (beta, alpha) = vecops::householder_in_place(slot);
            work[(j, j)] = alpha;
            beta
        };
        r.lbeta[j] = beta;
        // The diagonal entry already holds α; the reflector must still see the
        // untouched column, so apply to the columns right of it, then zero the
        // annihilated tail. (Applying to column j itself and overwriting with α
        // — what the owned path historically did — produces the same matrix.)
        apply_left_cols(
            &mut work,
            &r.lv[loff..loff + llen],
            beta,
            j,
            j + 1,
            &mut r.w,
        );
        for i in (j + 1)..m {
            work[(i, j)] = 0.0;
        }
        loff += llen;

        // Right reflector: annihilate work[j, j+2..].
        if j + 2 < n {
            let rlen = n - j - 1;
            r.roffs[j] = roff;
            let beta = {
                let slot = &mut r.rv[roff..roff + rlen];
                slot.copy_from_slice(&work.row(j)[j + 1..]);
                let (beta, alpha) = vecops::householder_in_place(slot);
                work[(j, j + 1)] = alpha;
                beta
            };
            r.rbeta[j] = beta;
            apply_right_rows(&mut work, &r.rv[roff..roff + rlen], beta, j + 1, j + 1);
            for k in (j + 2)..n {
                work[(j, k)] = 0.0;
            }
            roff += rlen;
        }
    }
    Ok((work, r))
}

/// Reads the diagonal and superdiagonal out of a reduced matrix into pooled
/// vectors and recycles the matrix.
fn take_diagonals(work: Matrix, ws: &mut Workspace) -> (Vec<f64>, Vec<f64>) {
    let n = work.cols();
    let mut d = ws.take_vec(n, 0.0);
    for (j, dj) in d.iter_mut().enumerate() {
        *dj = work[(j, j)];
    }
    let mut e = ws.take_vec(n - 1, 0.0);
    for (j, ej) in e.iter_mut().enumerate() {
        *ej = work[(j, j + 1)];
    }
    ws.recycle_matrix(work);
    (d, e)
}

/// Workspace variant of [`bidiagonalize`]: all scratch (the working copy, the
/// packed reflectors, and the accumulation targets) is checked out of `ws`,
/// and the returned factors are built from pooled buffers the caller may hand
/// back with [`Workspace::recycle_matrix`]/[`Workspace::recycle_vec`].
pub fn bidiagonalize_in(a: MatRef<'_>, ws: &mut Workspace) -> Result<Bidiag> {
    let (m, n) = a.shape();
    let (work, mut r) = reduce_in(a, ws)?;

    // Accumulate thin U: apply left reflectors in reverse to I(m×n).
    let mut u = ws.take_matrix(m, n, 0.0);
    for j in 0..n {
        u[(j, j)] = 1.0;
    }
    for j in (0..n).rev() {
        let v = &r.lv[r.loffs[j]..r.loffs[j] + (m - j)];
        apply_left_cols(&mut u, v, r.lbeta[j], j, 0, &mut r.w);
    }

    // Accumulate V: apply right reflectors in reverse to I(n×n).
    // Right reflector j acts on rows/cols (j+1)..n of the V space; applying
    // from the left accumulates V = H_r0 · H_r1 · … (each H is symmetric).
    let mut v = ws.take_identity(n);
    for j in (0..n.saturating_sub(2)).rev() {
        let rv = &r.rv[r.roffs[j]..r.roffs[j] + (n - j - 1)];
        apply_left_cols(&mut v, rv, r.rbeta[j], j + 1, 0, &mut r.w);
    }

    let (d, e) = take_diagonals(work, ws);
    r.recycle(ws);
    Ok(Bidiag { u, v, d, e })
}

/// The bidiagonal `(d, e)` of `a` (requires `m ≥ n ≥ 1`) without forming `U`
/// or `V`: the same reduction as [`bidiagonalize_in`], bit for bit, minus
/// both accumulations. Stage one of the values-only SVD. `d` and `e` are
/// pooled; hand them back with [`Workspace::recycle_vec`].
pub fn bidiagonal_in(a: MatRef<'_>, ws: &mut Workspace) -> Result<(Vec<f64>, Vec<f64>)> {
    let (work, r) = reduce_in(a, ws)?;
    r.recycle(ws);
    Ok(take_diagonals(work, ws))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matmul::matmul_naive;

    fn assert_orthonormal_cols(q: &Matrix, tol: f64) {
        let g = matmul_naive(&q.transpose(), q).unwrap();
        assert!(
            g.max_abs_diff(&Matrix::identity(q.cols())) < tol,
            "QᵀQ != I\n{g:?}"
        );
    }

    fn check(a: &Matrix) {
        let bd = bidiagonalize(a).unwrap();
        assert_orthonormal_cols(&bd.u, 1e-11);
        assert_orthonormal_cols(&bd.v, 1e-11);
        let rec = bd.reconstruct();
        assert!(
            rec.max_abs_diff(a) < 1e-10,
            "reconstruction failed:\nA = {a:?}\nrec = {rec:?}"
        );
        // B must be upper bidiagonal: checked implicitly by reconstruct using only d, e.
    }

    #[test]
    fn square_3x3() {
        check(
            &Matrix::from_rows(&[&[4.0, 1.0, -2.0], &[2.0, 5.0, 3.0], &[-1.0, 2.0, 6.0]]).unwrap(),
        );
    }

    #[test]
    fn tall_5x3() {
        let a = Matrix::from_fn(5, 3, |i, j| ((i * 7 + j * 13 + 5) % 11) as f64 - 5.0);
        check(&a);
    }

    #[test]
    fn tall_17x5_paper_scale() {
        let a = Matrix::from_fn(17, 5, |i, j| 1.0 + ((i * 31 + j * 17) % 23) as f64 / 23.0);
        check(&a);
    }

    #[test]
    fn single_column() {
        let a = Matrix::from_rows(&[&[3.0], &[4.0]]).unwrap();
        let bd = bidiagonalize(&a).unwrap();
        assert!((bd.d[0].abs() - 5.0).abs() < 1e-12);
        assert!(bd.e.is_empty());
        check(&a);
    }

    #[test]
    fn one_by_one() {
        let a = Matrix::from_rows(&[&[-7.0]]).unwrap();
        let bd = bidiagonalize(&a).unwrap();
        assert!((bd.d[0].abs() - 7.0).abs() < 1e-12);
        check(&a);
    }

    #[test]
    fn already_bidiagonal_preserved_up_to_sign() {
        let a = Matrix::from_rows(&[&[2.0, 1.0, 0.0], &[0.0, 3.0, 0.5], &[0.0, 0.0, 4.0]]).unwrap();
        check(&a);
    }

    #[test]
    fn wide_rejected() {
        let a = Matrix::zeros(2, 3);
        assert!(matches!(
            bidiagonalize(&a),
            Err(LinAlgError::ShapeMismatch { .. })
        ));
    }

    #[test]
    fn empty_rejected() {
        assert!(matches!(
            bidiagonalize(&Matrix::zeros(0, 0)),
            Err(LinAlgError::Empty { .. })
        ));
    }

    #[test]
    fn zero_matrix_ok() {
        let a = Matrix::zeros(4, 3);
        let bd = bidiagonalize(&a).unwrap();
        assert!(bd.d.iter().all(|&v| v == 0.0));
        check(&a);
    }

    #[test]
    fn warm_workspace_reuses_buffers() {
        let a = Matrix::from_fn(6, 4, |i, j| ((i * 5 + j * 3 + 1) % 13) as f64 - 6.0);
        let mut ws = Workspace::new();
        let cold = bidiagonalize_in(a.view(), &mut ws).unwrap();
        ws.recycle_matrix(cold.u);
        ws.recycle_matrix(cold.v);
        ws.recycle_vec(cold.d);
        ws.recycle_vec(cold.e);
        ws.reset_stats();
        let warm = bidiagonalize_in(a.view(), &mut ws).unwrap();
        assert_eq!(ws.stats().fresh, 0, "warm run must not allocate");
        let owned = bidiagonalize(&a).unwrap();
        assert_eq!(warm.u, owned.u);
        assert_eq!(warm.v, owned.v);
        assert_eq!(warm.d, owned.d);
        assert_eq!(warm.e, owned.e);
    }

    #[test]
    fn values_only_reduction_matches_full_bitwise_without_allocating() {
        let mut ws = Workspace::new();
        for (m, n) in [(1, 1), (5, 2), (17, 5), (12, 12)] {
            let a = Matrix::from_fn(m, n, |i, j| ((i * 7 + j * 13 + 5) % 11) as f64 - 5.0);
            let full = bidiagonalize(&a).unwrap();
            let (d, e) = bidiagonal_in(a.view(), &mut ws).unwrap();
            assert_eq!(d, full.d, "{m}x{n}");
            assert_eq!(e, full.e, "{m}x{n}");
            ws.recycle_vec(d);
            ws.recycle_vec(e);
            ws.reset_stats();
            let (d, e) = bidiagonal_in(a.view(), &mut ws).unwrap();
            assert_eq!(ws.stats().fresh, 0, "{m}x{n} warm run allocated");
            ws.recycle_vec(d);
            ws.recycle_vec(e);
        }
    }

    #[test]
    fn b_matrix_layout() {
        let bd = Bidiag {
            u: Matrix::identity(3),
            v: Matrix::identity(3),
            d: vec![1.0, 2.0, 3.0],
            e: vec![0.5, 0.25],
        };
        let b = bd.b_matrix();
        assert_eq!(b[(0, 0)], 1.0);
        assert_eq!(b[(0, 1)], 0.5);
        assert_eq!(b[(1, 2)], 0.25);
        assert_eq!(b[(2, 1)], 0.0);
        assert_eq!(b[(1, 0)], 0.0);
    }
}
