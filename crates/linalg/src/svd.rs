//! Singular value decomposition.
//!
//! Three entry points share two algorithms:
//!
//! * **Values only** ([`singular_values_in`]) — Householder bidiagonalization
//!   that never forms `U` or `V`, then implicit-shift QR on the bidiagonal.
//!   This is how every TMA in the workspace gets its spectrum: Eq. 8 needs
//!   σ₂…σₖ and nothing else, so the singular vectors are never built.
//! * **One-sided Jacobi** ([`jacobi_svd`]) — orthogonalizes the columns of a working
//!   copy with plane rotations. Simple, unconditionally convergent in practice, and
//!   computes small singular values to high *relative* accuracy. The test
//!   oracle for the values-only kernel, and the full SVD for small matrices.
//! * **Golub–Reinsch** ([`golub_reinsch_svd`]) — the values-only kernel's two
//!   stages with `U` and `V` accumulated (the classic LAPACK-style dense
//!   SVD). Faster for large matrices.
//!
//! [`svd`] dispatches the full decomposition on size; [`Svd`] holds `U`, `σ`,
//! `V` with singular values sorted descending and the factors' columns
//! permuted to match. The values-only kernel and Golub–Reinsch run the same
//! bidiagonal QR loop, which rotates `U` and `V` only when they exist.
//!
//! Each algorithm is implemented once, as a workspace kernel ([`svd_with_in`],
//! [`jacobi_svd_in`], [`golub_reinsch_svd_in`], [`singular_values_in`]) that
//! takes a borrowed [`MatRef`] and checks every scratch buffer — working copy,
//! rotation accumulators, the returned factors themselves — out of a
//! caller-supplied [`Workspace`]. The owned-`Matrix` entry points are thin
//! wrappers that spin up a throwaway workspace, so both paths compute
//! identical floating-point results by construction.

use crate::bidiag::{bidiagonal_in, bidiagonalize_in, Bidiag};
use crate::budget::Budget;
use crate::error::LinAlgError;
use crate::matrix::Matrix;
use crate::vecops::{self, hypot};
use crate::view::MatRef;
use crate::workspace::Workspace;
use crate::Result;

/// Algorithm selector for [`svd_with`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SvdAlgorithm {
    /// One-sided Jacobi (default for small matrices; high relative accuracy).
    Jacobi,
    /// Golub–Reinsch bidiagonal QR (default for large matrices).
    GolubReinsch,
    /// Pick automatically by matrix size.
    Auto,
}

/// Size (in entries) above which [`SvdAlgorithm::Auto`] switches to Golub–Reinsch.
const AUTO_GR_THRESHOLD: usize = 64 * 64;

/// A full thin SVD `A = U · diag(σ) · Vᵀ`.
///
/// `U` is `m × k`, `V` is `n × k`, `k = min(m, n)`, and `singular_values` is sorted
/// in descending order. All σ are non-negative.
#[derive(Debug, Clone)]
pub struct Svd {
    /// Left singular vectors (columns), `m × k`.
    pub u: Matrix,
    /// Singular values, descending, length `k`.
    pub singular_values: Vec<f64>,
    /// Right singular vectors (columns), `n × k`.
    pub v: Matrix,
}

impl Svd {
    /// Largest singular value (0 for an empty spectrum).
    pub fn sigma_max(&self) -> f64 {
        self.singular_values.first().copied().unwrap_or(0.0)
    }

    /// Smallest singular value (0 for an empty spectrum).
    pub fn sigma_min(&self) -> f64 {
        self.singular_values.last().copied().unwrap_or(0.0)
    }

    /// 2-norm condition number `σ₁/σₖ`; `∞` when `σₖ = 0`.
    pub fn condition_number(&self) -> f64 {
        let lo = self.sigma_min();
        if lo == 0.0 {
            f64::INFINITY
        } else {
            self.sigma_max() / lo
        }
    }

    /// Numerical rank: number of σ above `tol * σ₁`.
    pub fn rank(&self, tol: f64) -> usize {
        let cutoff = tol * self.sigma_max();
        self.singular_values.iter().filter(|&&s| s > cutoff).count()
    }

    /// Reconstructs `U · diag(σ) · Vᵀ` (for testing and residual checks).
    pub fn reconstruct(&self) -> Matrix {
        let k = self.singular_values.len();
        let mut us = self.u.clone();
        for (j, &s) in self.singular_values.iter().enumerate().take(k) {
            us.scale_col(j, s);
        }
        crate::matmul::matmul(&us, &self.v.transpose()).expect("shape")
    }

    /// Frobenius-norm reconstruction residual `‖A − UΣVᵀ‖_F`.
    pub fn residual(&self, a: &Matrix) -> f64 {
        crate::norms::frobenius(&(a - &self.reconstruct()))
    }

    /// Hands the decomposition's buffers back to a workspace for reuse.
    pub fn recycle(self, ws: &mut Workspace) {
        ws.recycle_matrix(self.u);
        ws.recycle_matrix(self.v);
        ws.recycle_vec(self.singular_values);
    }
}

/// Computes singular values only (descending).
pub fn singular_values(a: &Matrix) -> Result<Vec<f64>> {
    Ok(svd(a)?.singular_values)
}

/// Singular values only, descending, plus the number of implicit-QR
/// iterations taken — the kernel behind every TMA.
///
/// Householder bidiagonalization without `U` or `V` ([`bidiagonal_in`]),
/// then the bidiagonal QR loop Golub–Reinsch runs, minus its rotations of
/// the factors. Wide inputs transpose first. The budget is polled once per
/// QR iteration, exactly as in [`golub_reinsch_svd_budgeted_in`].
///
/// The σ are returned as computed, without a rank floor. The returned
/// vector is pooled; hand it back with [`Workspace::recycle_vec`]. A warm
/// workspace makes the call allocation-free.
pub fn singular_values_in(
    a: MatRef<'_>,
    budget: Option<&Budget>,
    ws: &mut Workspace,
) -> Result<(Vec<f64>, usize)> {
    if a.is_empty() {
        return Err(LinAlgError::Empty { op: "svd" });
    }
    a.check_finite("svd")?;
    if a.rows() < a.cols() {
        let at = transpose_pooled(a, ws);
        let t = singular_values_in(at.view(), budget, ws);
        ws.recycle_matrix(at);
        return t;
    }
    let (mut sigma, _, iters) = golub_reinsch_core(a, false, budget, ws)?;
    sigma.sort_unstable_by(|x, y| y.total_cmp(x));
    Ok((sigma, iters))
}

/// Computes the SVD with automatic algorithm choice.
pub fn svd(a: &Matrix) -> Result<Svd> {
    svd_with(a, SvdAlgorithm::Auto)
}

/// Computes the SVD with an explicit algorithm choice.
pub fn svd_with(a: &Matrix, alg: SvdAlgorithm) -> Result<Svd> {
    let mut ws = Workspace::new();
    svd_with_in(a.view(), alg, &mut ws)
}

/// Workspace kernel behind [`svd_with`]: all scratch — including the returned
/// factors — is checked out of `ws`; pass the factors back through
/// [`Svd::recycle`] to make repeat calls on the same shape allocation-free.
pub fn svd_with_in(a: MatRef<'_>, alg: SvdAlgorithm, ws: &mut Workspace) -> Result<Svd> {
    svd_with_budgeted_in(a, alg, None, ws)
}

/// [`svd_with_in`] with a cooperative cancellation [`Budget`]: the sweep/QR
/// loops poll the budget once per iteration and bail out with
/// [`LinAlgError::DeadlineExceeded`] when it trips. `None` is exactly the
/// unbudgeted path (bit-identical results, no polling cost).
pub fn svd_with_budgeted_in(
    a: MatRef<'_>,
    alg: SvdAlgorithm,
    budget: Option<&Budget>,
    ws: &mut Workspace,
) -> Result<Svd> {
    if a.is_empty() {
        return Err(LinAlgError::Empty { op: "svd" });
    }
    a.check_finite("svd")?;
    match alg {
        SvdAlgorithm::Jacobi => jacobi_svd_budgeted_in(a, budget, ws),
        SvdAlgorithm::GolubReinsch => golub_reinsch_svd_budgeted_in(a, budget, ws),
        SvdAlgorithm::Auto => {
            if a.len() <= AUTO_GR_THRESHOLD {
                jacobi_svd_budgeted_in(a, budget, ws)
            } else {
                golub_reinsch_svd_budgeted_in(a, budget, ws)
            }
        }
    }
}

/// Sorts the spectrum descending, permuting `u`/`v` columns to match, and fixes a
/// deterministic sign convention (largest-magnitude entry of each `u` column is
/// positive). Shared by every SVD variant in the crate.
pub(crate) fn finalize_svd(u: Matrix, sigma: Vec<f64>, v: Matrix) -> Svd {
    let mut ws = Workspace::new();
    finalize_in(u, sigma, v, &mut ws)
}

fn finalize_in(mut u: Matrix, mut sigma: Vec<f64>, mut v: Matrix, ws: &mut Workspace) -> Svd {
    let k = sigma.len();
    let mut order = ws.take_idx(k);
    for (i, o) in order.iter_mut().enumerate() {
        *o = i;
    }
    // Unstable sort: in-place, no merge buffer. Ties (equal σ) can land in
    // either order; every consumer treats equal-σ columns as interchangeable.
    order.sort_unstable_by(|&a, &b| sigma[b].partial_cmp(&sigma[a]).expect("NaN singular value"));
    // Apply the permutation with one row-sized scratch buffer instead of
    // rebuilding each factor.
    let mut scratch = ws.take_vec(k, 0.0);
    for (dst, &src) in scratch.iter_mut().zip(order.iter()) {
        *dst = sigma[src];
    }
    sigma.copy_from_slice(&scratch);
    for mat in [&mut u, &mut v] {
        for i in 0..mat.rows() {
            let row = mat.row_mut(i);
            for (dst, &src) in scratch.iter_mut().zip(order.iter()) {
                *dst = row[src];
            }
            row.copy_from_slice(&scratch);
        }
    }
    // Sign convention.
    for j in 0..k {
        let mut best = 0usize;
        for i in 0..u.rows() {
            if u[(i, j)].abs() > u[(best, j)].abs() {
                best = i;
            }
        }
        if u[(best, j)] < 0.0 {
            u.scale_col(j, -1.0);
            v.scale_col(j, -1.0);
        }
    }
    ws.recycle_idx(order);
    ws.recycle_vec(scratch);
    Svd {
        u,
        singular_values: sigma,
        v,
    }
}

/// Copies `aᵀ` into a pooled matrix (for the wide-input transposition paths).
fn transpose_pooled(a: MatRef<'_>, ws: &mut Workspace) -> Matrix {
    let (m, n) = a.shape();
    let mut at = ws.take_matrix(n, m, 0.0);
    for i in 0..m {
        for (j, &v) in a.row(i).iter().enumerate() {
            at[(j, i)] = v;
        }
    }
    at
}

// ---------------------------------------------------------------------------
// One-sided Jacobi
// ---------------------------------------------------------------------------

/// Maximum number of Jacobi sweeps before declaring non-convergence.
pub const JACOBI_MAX_SWEEPS: usize = 60;

/// One-sided Jacobi SVD (Hestenes method).
///
/// Works on `W = A` (or `Aᵀ` when `m < n`, swapping the factors afterwards),
/// repeatedly applying plane rotations from the right until all column pairs are
/// numerically orthogonal. Then `σⱼ = ‖wⱼ‖` and `uⱼ = wⱼ/σⱼ`.
pub fn jacobi_svd(a: &Matrix) -> Result<Svd> {
    let mut ws = Workspace::new();
    jacobi_svd_in(a.view(), &mut ws)
}

/// Workspace kernel behind [`jacobi_svd`].
pub fn jacobi_svd_in(a: MatRef<'_>, ws: &mut Workspace) -> Result<Svd> {
    jacobi_svd_budgeted_in(a, None, ws)
}

/// [`jacobi_svd_in`] polling `budget` once per sweep.
pub fn jacobi_svd_budgeted_in(
    a: MatRef<'_>,
    budget: Option<&Budget>,
    ws: &mut Workspace,
) -> Result<Svd> {
    if a.rows() < a.cols() {
        let at = transpose_pooled(a, ws);
        let t = jacobi_svd_budgeted_in(at.view(), budget, ws);
        ws.recycle_matrix(at);
        let t = t?;
        return Ok(Svd {
            u: t.v,
            singular_values: t.singular_values,
            v: t.u,
        });
    }
    let (m, n) = a.shape();
    let mut w = ws.take_matrix(m, n, 0.0);
    w.view_mut().copy_from(a);
    let v = ws.take_identity(n);
    jacobi_sweep_core(w, v, budget, ws)
}

/// The Hestenes sweep loop: takes ownership of the working matrix `w = A` and
/// the rotation accumulator `v = I` and orthogonalizes `w`'s columns,
/// maintaining `w = A·v` throughout.
fn jacobi_sweep_core(
    mut w: Matrix,
    mut v: Matrix,
    budget: Option<&Budget>,
    ws: &mut Workspace,
) -> Result<Svd> {
    let (m, n) = w.shape();
    let mut obs = hc_obs::span("linalg.svd.jacobi");
    let eps = f64::EPSILON;
    // Columns whose norm falls below eps·‖A‖_F are numerically zero (rank
    // deficiency); rotating against them only chases roundoff and stalls
    // convergence.
    let fro = crate::norms::frobenius(&w);
    let zero_guard = (eps * fro) * (eps * fro);

    let mut converged = false;
    let mut sweeps = 0;
    // Residual carried into DeadlineExceeded diagnostics; only maintained when
    // a budget is polling, so the unbudgeted path stays cost-identical.
    let mut budget_worst = f64::NAN;
    while sweeps < JACOBI_MAX_SWEEPS {
        if let Some(b) = budget {
            b.check("jacobi-svd", sweeps, budget_worst)?;
        }
        sweeps += 1;
        let _sweep = hc_obs::span("linalg.svd.jacobi.sweep");
        let mut rotated = false;
        let mut sweep_worst = 0.0_f64;
        for p in 0..n {
            for q in (p + 1)..n {
                // Gram entries for the column pair.
                let mut app = 0.0;
                let mut aqq = 0.0;
                let mut apq = 0.0;
                for i in 0..m {
                    let wp = w[(i, p)];
                    let wq = w[(i, q)];
                    app += wp * wp;
                    aqq += wq * wq;
                    apq += wp * wq;
                }
                if budget.is_some() && app > zero_guard && aqq > zero_guard {
                    sweep_worst = sweep_worst.max(apq.abs() / (app * aqq).sqrt());
                }
                if app <= zero_guard
                    || aqq <= zero_guard
                    || apq.abs() <= eps * (app * aqq).sqrt()
                    || apq == 0.0
                {
                    continue;
                }
                rotated = true;
                // Two-sided symmetric Jacobi rotation for the 2×2 Gram block.
                let tau = (aqq - app) / (2.0 * apq);
                let t = if tau >= 0.0 {
                    1.0 / (tau + (1.0 + tau * tau).sqrt())
                } else {
                    -1.0 / (-tau + (1.0 + tau * tau).sqrt())
                };
                let c = 1.0 / (1.0 + t * t).sqrt();
                let s = c * t;
                for i in 0..m {
                    let wp = w[(i, p)];
                    let wq = w[(i, q)];
                    w[(i, p)] = c * wp - s * wq;
                    w[(i, q)] = s * wp + c * wq;
                }
                for i in 0..n {
                    let vp = v[(i, p)];
                    let vq = v[(i, q)];
                    v[(i, p)] = c * vp - s * vq;
                    v[(i, q)] = s * vp + c * vq;
                }
            }
        }
        if budget.is_some() {
            budget_worst = sweep_worst;
        }
        if !rotated {
            converged = true;
            break;
        }
    }
    if !converged {
        // One final orthogonality audit: accept if the worst residual is tiny.
        let worst = worst_column_correlation(&w, zero_guard);
        if worst > 1e-10 {
            hc_obs::obs_counter!("linalg_svd_noconvergence_total").inc();
            return Err(LinAlgError::NoConvergence {
                algorithm: "jacobi-svd",
                iterations: sweeps,
                residual: worst,
            });
        }
    }
    hc_obs::obs_counter!("linalg_svd_jacobi_total").inc();
    hc_obs::obs_counter!("linalg_svd_jacobi_sweeps_total").add(sweeps as u64);
    hc_obs::obs_histogram!("linalg_svd_jacobi_sweeps").observe(sweeps as u64);
    hc_obs::recorder::note_u64("svd_jacobi_sweeps", sweeps as u64);
    if obs.armed() {
        obs.field_u64("rows", m as u64);
        obs.field_u64("cols", n as u64);
        obs.field_u64("sweeps", sweeps as u64);
        // The orthogonality residual that remains after the final sweep — the
        // "how converged is it really" number. Only recomputed for the sink.
        obs.field_f64("off_diag_worst", worst_column_correlation(&w, zero_guard));
    }

    let mut sigma = ws.take_vec(n, 0.0);
    let mut u = ws.take_matrix(m, n, 0.0);
    let mut col = ws.take_vec(m, 0.0);
    for j in 0..n {
        for (i, c) in col.iter_mut().enumerate() {
            *c = w[(i, j)];
        }
        let nrm = vecops::norm2(&col);
        sigma[j] = nrm;
        if nrm > 0.0 {
            for i in 0..m {
                u[(i, j)] = col[i] / nrm;
            }
        }
        // A zero column leaves a zero U column; callers treating rank-deficient
        // inputs only consume σ and the leading columns.
    }
    ws.recycle_vec(col);
    ws.recycle_matrix(w);
    Ok(finalize_in(u, sigma, v, ws))
}

/// Worst normalized off-diagonal Gram entry |wpᵀwq|/(‖wp‖‖wq‖) over all column
/// pairs, ignoring numerically-zero columns (norm² below `zero_guard`).
fn worst_column_correlation(w: &Matrix, zero_guard: f64) -> f64 {
    let (m, n) = w.shape();
    let mut worst: f64 = 0.0;
    for p in 0..n {
        for q in (p + 1)..n {
            let mut app = 0.0;
            let mut aqq = 0.0;
            let mut apq = 0.0;
            for i in 0..m {
                app += w[(i, p)] * w[(i, p)];
                aqq += w[(i, q)] * w[(i, q)];
                apq += w[(i, p)] * w[(i, q)];
            }
            if app > zero_guard && aqq > zero_guard {
                worst = worst.max(apq.abs() / (app * aqq).sqrt());
            }
        }
    }
    worst
}

// ---------------------------------------------------------------------------
// Golub–Reinsch
// ---------------------------------------------------------------------------

/// Maximum implicit-QR iterations per singular value.
const GR_MAX_ITERS: usize = 75;

/// Golub–Reinsch SVD: bidiagonalize, then implicit-shift QR on the bidiagonal.
pub fn golub_reinsch_svd(a: &Matrix) -> Result<Svd> {
    let mut ws = Workspace::new();
    golub_reinsch_svd_in(a.view(), &mut ws)
}

/// Workspace kernel behind [`golub_reinsch_svd`].
pub fn golub_reinsch_svd_in(a: MatRef<'_>, ws: &mut Workspace) -> Result<Svd> {
    golub_reinsch_svd_budgeted_in(a, None, ws)
}

/// [`golub_reinsch_svd_in`] polling `budget` once per implicit-QR iteration.
pub fn golub_reinsch_svd_budgeted_in(
    a: MatRef<'_>,
    budget: Option<&Budget>,
    ws: &mut Workspace,
) -> Result<Svd> {
    if a.rows() < a.cols() {
        let at = transpose_pooled(a, ws);
        let t = golub_reinsch_svd_budgeted_in(at.view(), budget, ws);
        ws.recycle_matrix(at);
        let t = t?;
        return Ok(Svd {
            u: t.v,
            singular_values: t.singular_values,
            v: t.u,
        });
    }
    let (d, vectors, _) = golub_reinsch_core(a, true, budget, ws)?;
    let (u, v) = vectors.expect("vectors requested");
    Ok(finalize_in(u, d, v, ws))
}

/// The two Golub–Reinsch stages on a tall (`m ≥ n`) input: bidiagonalize,
/// then implicit-shift QR on the bidiagonal `(d, e)`. With `vectors` the
/// factors are accumulated and every QR rotation is applied to them too;
/// without, neither `U` nor `V` is ever formed and the loop updates only
/// `(d, e)`. Returns the unsorted non-negative `σ`, the factors when asked
/// for, and the total QR iteration count.
#[allow(clippy::type_complexity)]
fn golub_reinsch_core(
    a: MatRef<'_>,
    vectors: bool,
    budget: Option<&Budget>,
    ws: &mut Workspace,
) -> Result<(Vec<f64>, Option<(Matrix, Matrix)>, usize)> {
    let mut obs = hc_obs::span(if vectors {
        "linalg.svd.golub_reinsch"
    } else {
        "linalg.svd.values"
    });
    let mut total_iters = 0usize;
    let (mut d, e, mut uv) = {
        let _phase = hc_obs::span("linalg.svd.bidiag");
        if vectors {
            let Bidiag { u, v, d, e } = bidiagonalize_in(a, ws)?;
            (d, e, Some((u, v)))
        } else {
            let (d, e) = bidiagonal_in(a, ws)?;
            (d, e, None)
        }
    };
    let n = d.len();
    // rv1[i] is the superdiagonal entry coupling d[i-1] and d[i]; rv1[0] is unused
    // and kept at zero (mirrors the classic svdcmp layout).
    let mut rv1 = ws.take_vec(n, 0.0);
    rv1[1..n].copy_from_slice(&e);
    ws.recycle_vec(e);

    let anorm = d
        .iter()
        .zip(&rv1)
        .map(|(di, ei)| di.abs() + ei.abs())
        .fold(0.0_f64, f64::max)
        .max(f64::MIN_POSITIVE);
    let eps = f64::EPSILON;
    let negligible = |x: f64| x.abs() <= eps * anorm;

    let qr_phase = hc_obs::span("linalg.svd.qr");
    for k in (0..n).rev() {
        let mut its = 0;
        loop {
            if let Some(b) = budget {
                b.check("golub-reinsch-svd", total_iters, rv1[k].abs())?;
            }
            its += 1;
            total_iters += 1;
            // Split test: find l such that rv1[l] is negligible (l == 0 always
            // qualifies since rv1[0] == 0), or d[l-1] is negligible (cancellation).
            let mut l = k;
            let flag;
            loop {
                if negligible(rv1[l]) {
                    flag = false;
                    break;
                }
                // l >= 1 here because rv1[0] == 0 is always negligible.
                if negligible(d[l - 1]) {
                    flag = true;
                    break;
                }
                l -= 1;
            }

            if flag {
                // d[l-1] ≈ 0: chase rv1[l] away with left Givens rotations against
                // row l-1, accumulating into U.
                let mut c = 0.0;
                let mut s = 1.0;
                for i in l..=k {
                    let f = s * rv1[i];
                    rv1[i] *= c;
                    if negligible(f) {
                        break;
                    }
                    let g = d[i];
                    let h = hypot(f, g);
                    d[i] = h;
                    let inv = 1.0 / h;
                    c = g * inv;
                    s = -f * inv;
                    if let Some((u, _)) = uv.as_mut() {
                        rotate_cols(u, l - 1, i, c, s);
                    }
                }
            }

            let z = d[k];
            if l == k {
                // Converged for this singular value.
                if z < 0.0 {
                    d[k] = -z;
                    if let Some((_, v)) = uv.as_mut() {
                        v.scale_col(k, -1.0);
                    }
                }
                break;
            }
            if its > GR_MAX_ITERS {
                hc_obs::obs_counter!("linalg_svd_noconvergence_total").inc();
                return Err(LinAlgError::NoConvergence {
                    algorithm: "golub-reinsch-svd",
                    iterations: its,
                    residual: rv1[k].abs(),
                });
            }

            // Wilkinson-style shift from the trailing 2×2 of BᵀB.
            let nm = k - 1;
            let x = d[l];
            let y = d[nm];
            let g0 = rv1[nm];
            let h0 = rv1[k];
            let mut f = ((y - z) * (y + z) + (g0 - h0) * (g0 + h0)) / (2.0 * h0 * y);
            let g1 = hypot(f, 1.0);
            f = ((x - z) * (x + z) + h0 * ((y / (f + sign(g1, f))) - h0)) / x;

            // Implicit QR sweep, chasing the bulge from the top.
            let mut c = 1.0;
            let mut s = 1.0;
            let mut x = x;
            let mut g;
            for j in l..=nm {
                let i = j + 1;
                let mut gy = rv1[i];
                let mut yy = d[i];
                let mut h = s * gy;
                gy *= c;
                let mut zz = hypot(f, h);
                rv1[j] = zz;
                c = f / zz;
                s = h / zz;
                f = x * c + gy * s;
                g = gy * c - x * s;
                h = yy * s;
                yy *= c;
                if let Some((_, v)) = uv.as_mut() {
                    rotate_cols(v, j, i, c, s);
                }
                zz = hypot(f, h);
                d[j] = zz;
                if zz != 0.0 {
                    let inv = 1.0 / zz;
                    c = f * inv;
                    s = h * inv;
                }
                f = c * g + s * yy;
                x = c * yy - s * g;
                if let Some((u, _)) = uv.as_mut() {
                    rotate_cols(u, j, i, c, s);
                }
            }
            rv1[l] = 0.0;
            rv1[k] = f;
            d[k] = x;
        }
    }
    drop(qr_phase);

    hc_obs::obs_counter!("linalg_svd_gr_total").inc();
    hc_obs::obs_counter!("linalg_svd_gr_iterations_total").add(total_iters as u64);
    hc_obs::obs_histogram!("linalg_svd_gr_iterations").observe(total_iters as u64);
    hc_obs::recorder::note_u64("svd_gr_iterations", total_iters as u64);
    if obs.armed() {
        obs.field_u64("rows", a.rows() as u64);
        obs.field_u64("cols", a.cols() as u64);
        obs.field_u64("iterations", total_iters as u64);
        // What is left of the superdiagonal after deflation: the bidiagonal
        // off-diagonal norm at convergence.
        obs.field_f64(
            "off_diag_worst",
            rv1.iter().fold(0.0f64, |acc, e| acc.max(e.abs())),
        );
    }
    ws.recycle_vec(rv1);
    Ok((d, uv, total_iters))
}

#[inline]
fn sign(a: f64, b: f64) -> f64 {
    if b >= 0.0 {
        a.abs()
    } else {
        -a.abs()
    }
}

#[inline]
fn rotate_cols(m: &mut Matrix, p: usize, q: usize, c: f64, s: f64) {
    for i in 0..m.rows() {
        let mp = m[(i, p)];
        let mq = m[(i, q)];
        m[(i, p)] = mp * c + mq * s;
        m[(i, q)] = mq * c - mp * s;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matmul::matmul_naive;

    fn assert_valid_svd(a: &Matrix, s: &Svd, tol: f64) {
        let k = a.rows().min(a.cols());
        assert_eq!(s.singular_values.len(), k);
        assert_eq!(s.u.shape(), (a.rows(), k));
        assert_eq!(s.v.shape(), (a.cols(), k));
        // Descending, non-negative.
        for w in s.singular_values.windows(2) {
            assert!(w[0] >= w[1] - 1e-12, "not sorted: {:?}", s.singular_values);
        }
        assert!(s.singular_values.iter().all(|&x| x >= 0.0));
        // Reconstruction.
        assert!(
            s.residual(a) < tol * (1.0 + crate::norms::frobenius(a)),
            "residual too large: {}",
            s.residual(a)
        );
        // Orthonormality (columns with nonzero sigma).
        let ug = matmul_naive(&s.u.transpose(), &s.u).unwrap();
        let vg = matmul_naive(&s.v.transpose(), &s.v).unwrap();
        for j in 0..k {
            if s.singular_values[j] > 1e-12 {
                assert!((ug[(j, j)] - 1.0).abs() < 1e-9, "Uᵀu[{j}] = {}", ug[(j, j)]);
                assert!((vg[(j, j)] - 1.0).abs() < 1e-9);
            }
        }
    }

    fn det2_sigma(a: f64, b: f64, c: f64, d: f64) -> (f64, f64) {
        // Exact singular values of [[a, b], [c, d]].
        let q1 = a * a + b * b + c * c + d * d;
        let q2 = ((a * a + b * b - c * c - d * d).powi(2) + 4.0 * (a * c + b * d).powi(2)).sqrt();
        (
            ((q1 + q2) / 2.0).sqrt(),
            (((q1 - q2) / 2.0).max(0.0)).sqrt(),
        )
    }

    #[test]
    fn jacobi_known_2x2() {
        let (a, b, c, d) = (3.0, 1.0, 1.0, 3.0);
        let m = Matrix::from_rows(&[&[a, b], &[c, d]]).unwrap();
        let s = jacobi_svd(&m).unwrap();
        let (s1, s2) = det2_sigma(a, b, c, d);
        assert!((s.singular_values[0] - s1).abs() < 1e-12);
        assert!((s.singular_values[1] - s2).abs() < 1e-12);
        assert_valid_svd(&m, &s, 1e-12);
    }

    #[test]
    fn gr_known_2x2() {
        let (a, b, c, d) = (2.0, 0.5, -1.0, 1.5);
        let m = Matrix::from_rows(&[&[a, b], &[c, d]]).unwrap();
        let s = golub_reinsch_svd(&m).unwrap();
        let (s1, s2) = det2_sigma(a, b, c, d);
        assert!((s.singular_values[0] - s1).abs() < 1e-10);
        assert!((s.singular_values[1] - s2).abs() < 1e-10);
        assert_valid_svd(&m, &s, 1e-10);
    }

    #[test]
    fn diagonal_matrix_exact() {
        let m = Matrix::from_diag(&[5.0, 1.0, 3.0]);
        for alg in [SvdAlgorithm::Jacobi, SvdAlgorithm::GolubReinsch] {
            let s = svd_with(&m, alg).unwrap();
            assert!((s.singular_values[0] - 5.0).abs() < 1e-12, "{alg:?}");
            assert!((s.singular_values[1] - 3.0).abs() < 1e-12);
            assert!((s.singular_values[2] - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn rank_one_matrix() {
        // xyᵀ has a single nonzero singular value ‖x‖‖y‖.
        let m = Matrix::from_fn(4, 3, |i, j| ((i + 1) * (j + 1)) as f64);
        for alg in [SvdAlgorithm::Jacobi, SvdAlgorithm::GolubReinsch] {
            let s = svd_with(&m, alg).unwrap();
            let x: f64 = (1..=4).map(|v| (v * v) as f64).sum::<f64>().sqrt();
            let y: f64 = (1..=3).map(|v| (v * v) as f64).sum::<f64>().sqrt();
            assert!((s.singular_values[0] - x * y).abs() < 1e-10, "{alg:?}");
            assert!(s.singular_values[1].abs() < 1e-10);
            assert!(s.singular_values[2].abs() < 1e-10);
            assert_eq!(s.rank(1e-9), 1);
        }
    }

    #[test]
    fn algorithms_agree_on_pseudorandom() {
        for (m, n) in [(5, 5), (8, 3), (3, 8), (12, 5), (17, 5)] {
            let a = Matrix::from_fn(m, n, |i, j| {
                0.1 + ((i * 131 + j * 31 + 7) % 97) as f64 / 97.0
            });
            let sj = jacobi_svd(&a).unwrap();
            let sg = golub_reinsch_svd(&a).unwrap();
            assert_valid_svd(&a, &sj, 1e-10);
            assert_valid_svd(&a, &sg, 1e-10);
            for (x, y) in sj.singular_values.iter().zip(&sg.singular_values) {
                assert!(
                    (x - y).abs() < 1e-9 * (1.0 + x.abs()),
                    "σ mismatch {m}x{n}: {x} vs {y}"
                );
            }
        }
    }

    #[test]
    fn workspace_kernel_matches_owned_path_bitwise() {
        let mut ws = Workspace::new();
        for (m, n) in [(5, 5), (8, 3), (3, 8), (12, 5)] {
            let a = Matrix::from_fn(m, n, |i, j| {
                0.1 + ((i * 131 + j * 31 + 7) % 97) as f64 / 97.0
            });
            for alg in [SvdAlgorithm::Jacobi, SvdAlgorithm::GolubReinsch] {
                let owned = svd_with(&a, alg).unwrap();
                let pooled = svd_with_in(a.view(), alg, &mut ws).unwrap();
                assert_eq!(owned.singular_values, pooled.singular_values);
                assert_eq!(owned.u, pooled.u);
                assert_eq!(owned.v, pooled.v);
                pooled.recycle(&mut ws);
            }
        }
    }

    #[test]
    fn warm_workspace_svd_is_allocation_free() {
        let a = Matrix::from_fn(9, 6, |i, j| 0.2 + ((i * 17 + j * 5) % 31) as f64 / 31.0);
        let mut ws = Workspace::new();
        for alg in [SvdAlgorithm::Jacobi, SvdAlgorithm::GolubReinsch] {
            svd_with_in(a.view(), alg, &mut ws)
                .unwrap()
                .recycle(&mut ws);
            ws.reset_stats();
            let s = svd_with_in(a.view(), alg, &mut ws).unwrap();
            assert_eq!(ws.stats().fresh, 0, "{alg:?} warm run allocated");
            s.recycle(&mut ws);
        }
    }

    #[test]
    fn wide_matrix_transposition_path() {
        let a = Matrix::from_rows(&[&[1.0, 2.0, 3.0, 4.0], &[0.5, -1.0, 2.0, 0.0]]).unwrap();
        for alg in [SvdAlgorithm::Jacobi, SvdAlgorithm::GolubReinsch] {
            let s = svd_with(&a, alg).unwrap();
            assert_valid_svd(&a, &s, 1e-10);
        }
    }

    #[test]
    fn singular_values_sum_of_squares_is_frobenius() {
        let a = Matrix::from_fn(6, 4, |i, j| (i as f64 - 2.5) * 0.7 + (j as f64) * 1.3);
        let s = svd(&a).unwrap();
        let ssq: f64 = s.singular_values.iter().map(|v| v * v).sum();
        let f = crate::norms::frobenius(&a);
        assert!((ssq - f * f).abs() < 1e-9 * f * f);
    }

    #[test]
    fn orthogonal_matrix_all_sigma_one() {
        // Rotation matrix: all singular values 1.
        let th = 0.7_f64;
        let m = Matrix::from_rows(&[&[th.cos(), -th.sin()], &[th.sin(), th.cos()]]).unwrap();
        let s = svd(&m).unwrap();
        assert!((s.singular_values[0] - 1.0).abs() < 1e-12);
        assert!((s.singular_values[1] - 1.0).abs() < 1e-12);
        assert!((s.condition_number() - 1.0).abs() < 1e-10);
    }

    #[test]
    fn zero_matrix() {
        let m = Matrix::zeros(3, 2);
        for alg in [SvdAlgorithm::Jacobi, SvdAlgorithm::GolubReinsch] {
            let s = svd_with(&m, alg).unwrap();
            assert!(s.singular_values.iter().all(|&v| v == 0.0), "{alg:?}");
            assert_eq!(s.rank(1e-12), 0);
            assert_eq!(s.condition_number(), f64::INFINITY);
        }
    }

    #[test]
    fn empty_and_nonfinite_rejected() {
        assert!(matches!(
            svd(&Matrix::zeros(0, 0)),
            Err(LinAlgError::Empty { .. })
        ));
        let mut a = Matrix::identity(2);
        a[(1, 1)] = f64::INFINITY;
        assert!(matches!(svd(&a), Err(LinAlgError::NonFinite { .. })));
    }

    #[test]
    fn graded_matrix_small_sigma_accuracy() {
        // Diagonal grading over 12 orders of magnitude: Jacobi must keep relative
        // accuracy on the tiny singular value.
        let m = Matrix::from_diag(&[1.0, 1e-6, 1e-12]);
        let s = jacobi_svd(&m).unwrap();
        assert!((s.singular_values[2] - 1e-12).abs() / 1e-12 < 1e-8);
    }

    #[test]
    fn ones_matrix_sigma() {
        // J (all ones, m×n) has σ₁ = √(mn), rest 0.
        let m = Matrix::filled(4, 6, 1.0);
        let s = svd(&m).unwrap();
        assert!((s.singular_values[0] - 24.0_f64.sqrt()).abs() < 1e-10);
        for &v in &s.singular_values[1..] {
            assert!(v.abs() < 1e-10);
        }
    }

    #[test]
    fn single_row_and_column() {
        let r = Matrix::from_rows(&[&[3.0, 4.0]]).unwrap();
        let s = svd(&r).unwrap();
        assert!((s.singular_values[0] - 5.0).abs() < 1e-12);
        let c = Matrix::from_rows(&[&[3.0], &[4.0]]).unwrap();
        let s = svd(&c).unwrap();
        assert!((s.singular_values[0] - 5.0).abs() < 1e-12);
    }

    #[test]
    fn larger_gr_path_via_auto() {
        let a = Matrix::from_fn(80, 70, |i, j| {
            (((i * 7919 + j * 104729) % 1000) as f64) / 1000.0 - 0.5
        });
        let s = svd(&a).unwrap();
        assert_valid_svd(&a, &s, 1e-8);
        // Spot-check σ₁ against power iteration.
        let p = crate::eigen::power_iteration_sigma_max(&a, 2000, 1e-12);
        assert!(
            (s.singular_values[0] - p).abs() < 1e-6 * p,
            "σ₁ {} vs power {p}",
            s.singular_values[0]
        );
    }

    #[test]
    fn budgeted_with_live_budget_matches_unbudgeted_bitwise() {
        use crate::budget::Budget;
        let a = Matrix::from_fn(9, 6, |i, j| 0.2 + ((i * 17 + j * 5) % 31) as f64 / 31.0);
        let mut ws = Workspace::new();
        let generous = Budget::with_deadline(std::time::Duration::from_secs(600));
        for alg in [SvdAlgorithm::Jacobi, SvdAlgorithm::GolubReinsch] {
            let plain = svd_with_in(a.view(), alg, &mut ws).unwrap();
            let budgeted = svd_with_budgeted_in(a.view(), alg, Some(&generous), &mut ws).unwrap();
            assert_eq!(plain.singular_values, budgeted.singular_values, "{alg:?}");
            assert_eq!(plain.u, budgeted.u);
            assert_eq!(plain.v, budgeted.v);
            plain.recycle(&mut ws);
            budgeted.recycle(&mut ws);
        }
    }

    #[test]
    fn expired_budget_returns_deadline_exceeded() {
        use crate::budget::Budget;
        let a = Matrix::from_fn(9, 6, |i, j| 0.2 + ((i * 17 + j * 5) % 31) as f64 / 31.0);
        let mut ws = Workspace::new();
        let expired = Budget::with_deadline(std::time::Duration::ZERO);
        for alg in [SvdAlgorithm::Jacobi, SvdAlgorithm::GolubReinsch] {
            match svd_with_budgeted_in(a.view(), alg, Some(&expired), &mut ws) {
                Err(LinAlgError::DeadlineExceeded { .. }) => {}
                other => panic!("{alg:?}: expected DeadlineExceeded, got {other:?}"),
            }
        }
    }

    /// Pseudo-random fill normalized to ‖A‖_F = 1, so σ₁ ≤ 1 and an
    /// absolute tolerance is a relative one.
    fn unit_fro(m: usize, n: usize, seed: usize) -> Matrix {
        let a = Matrix::from_fn(m, n, |i, j| {
            0.05 + ((i * 131 + j * 31 + seed * 7919 + 7) % 997) as f64 / 997.0
        });
        let f = crate::norms::frobenius(&a);
        Matrix::from_fn(m, n, |i, j| a[(i, j)] / f)
    }

    fn assert_values_match_jacobi(a: &Matrix, label: &str) {
        let mut ws = Workspace::new();
        let (sigma, _) = singular_values_in(a.view(), None, &mut ws).unwrap();
        let oracle = jacobi_svd(a).unwrap().singular_values;
        assert_eq!(sigma.len(), oracle.len(), "{label}");
        for (i, (x, y)) in sigma.iter().zip(&oracle).enumerate() {
            assert!((x - y).abs() <= 1e-12, "{label}: σ{i} {x} vs Jacobi {y}");
        }
        for w in sigma.windows(2) {
            assert!(w[0] >= w[1], "{label}: not descending {sigma:?}");
        }
    }

    #[test]
    fn values_kernel_matches_jacobi_oracle() {
        for (m, n) in [
            (1, 9),
            (9, 1),
            (17, 5),
            (5, 17),
            (64, 64),
            (128, 64),
            (64, 128),
            (256, 64),
        ] {
            assert_values_match_jacobi(&unit_fro(m, n, m + n), &format!("{m}x{n}"));
        }
        // Rank one: xyᵀ, normalized.
        let r1 = Matrix::from_fn(12, 7, |i, j| ((i + 1) * (j + 2)) as f64 / 1e3);
        let f = crate::norms::frobenius(&r1);
        assert_values_match_jacobi(&Matrix::from_fn(12, 7, |i, j| r1[(i, j)] / f), "rank-1");
        // Graded: columns spanning twelve orders of magnitude.
        let base = unit_fro(10, 6, 3);
        let graded = Matrix::from_fn(10, 6, |i, j| base[(i, j)] * 10f64.powi(-2 * j as i32));
        assert_values_match_jacobi(&graded, "graded");
        assert_values_match_jacobi(&Matrix::from_diag(&[1.0, 1e-6, 1e-12]), "graded diagonal");
    }

    #[test]
    fn values_kernel_keeps_tiny_singular_values() {
        // No rank floor in the kernel: a graded diagonal keeps σ₂ far below
        // ε·σ₁, as the full SVDs do.
        let a = Matrix::from_diag(&[1.0, 1e-17]);
        let (sigma, _) = singular_values_in(a.view(), None, &mut Workspace::new()).unwrap();
        assert_eq!(sigma, vec![1.0, 1e-17]);
        assert_eq!(singular_values(&a).unwrap(), vec![1.0, 1e-17]);
    }

    #[test]
    fn values_kernel_matches_golub_reinsch_spectrum() {
        // Same bidiagonalization and the same QR loop: the spectra agree to
        // round-off whether or not the factors are carried along.
        let a = unit_fro(40, 25, 11);
        let (sigma, iters) = singular_values_in(a.view(), None, &mut Workspace::new()).unwrap();
        let full = golub_reinsch_svd(&a).unwrap().singular_values;
        assert!(iters > 0);
        for (x, y) in sigma.iter().zip(&full) {
            assert!((x - y).abs() <= 1e-14, "{x} vs {y}");
        }
    }

    #[test]
    fn values_kernel_expired_budget_returns_deadline_exceeded() {
        use crate::budget::Budget;
        let a = unit_fro(9, 6, 1);
        let expired = Budget::with_deadline(std::time::Duration::ZERO);
        for m in [a.clone(), a.transpose()] {
            match singular_values_in(m.view(), Some(&expired), &mut Workspace::new()) {
                Err(LinAlgError::DeadlineExceeded { .. }) => {}
                other => panic!("expected DeadlineExceeded, got {other:?}"),
            }
        }
        let generous = Budget::with_deadline(std::time::Duration::from_secs(600));
        let mut ws = Workspace::new();
        let plain = singular_values_in(a.view(), None, &mut ws).unwrap();
        let budgeted = singular_values_in(a.view(), Some(&generous), &mut ws).unwrap();
        assert_eq!(plain, budgeted);
    }

    #[test]
    fn values_kernel_warm_workspace_is_allocation_free() {
        let mut ws = Workspace::new();
        for (m, n) in [(9, 6), (6, 9), (1, 4)] {
            let a = unit_fro(m, n, 5);
            let (sigma, _) = singular_values_in(a.view(), None, &mut ws).unwrap();
            ws.recycle_vec(sigma);
            ws.reset_stats();
            let (sigma, _) = singular_values_in(a.view(), None, &mut ws).unwrap();
            assert_eq!(ws.stats().fresh, 0, "{m}x{n} warm run allocated");
            ws.recycle_vec(sigma);
        }
    }

    #[test]
    fn values_kernel_rejects_empty_and_nonfinite() {
        let mut ws = Workspace::new();
        assert!(matches!(
            singular_values_in(Matrix::zeros(0, 3).view(), None, &mut ws),
            Err(LinAlgError::Empty { .. })
        ));
        let mut a = Matrix::identity(3);
        a[(0, 2)] = f64::NAN;
        assert!(matches!(
            singular_values_in(a.view(), None, &mut ws),
            Err(LinAlgError::NonFinite { .. })
        ));
    }

    #[test]
    fn svd_struct_helpers() {
        let m = Matrix::from_diag(&[4.0, 2.0]);
        let s = svd(&m).unwrap();
        assert_eq!(s.sigma_max(), 4.0);
        assert_eq!(s.sigma_min(), 2.0);
        assert!((s.condition_number() - 2.0).abs() < 1e-12);
        assert_eq!(s.rank(0.1), 2);
        assert_eq!(s.rank(0.9), 1);
    }
}
