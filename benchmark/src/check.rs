//! Answer checks, written apart from the code under test.
//!
//! MPH and TDH are recomputed here from the matrix that was sent (Eqs. 3 and
//! 7: sort the ECS column or row sums ascending and average each value's
//! ratio to its successor). TMA is compared against an oracle that balances
//! `ECS = 1/ETC` to the standard form by plain alternating scaling and runs
//! the one-sided Jacobi SVD on it.

use hc_linalg::svd::jacobi_svd;
use hc_linalg::Matrix;
use hc_spec::dataset::SpecTargets;

use crate::workload::Edit;

/// Relative agreement required of MPH and TDH, which are exact sums.
pub const REL_TOL: f64 = 1e-9;
/// Relative agreement required of TMA with the oracle. The server stops
/// balancing once every marginal is within 1e-8 of its target, so its TMA
/// is that of a standard form a little short of the limit the oracle
/// reaches: on 2000 `paper-small` matrices the two differed by up to
/// 1.3e-9 relative. A wrong standard form or SVD moves TMA by far more.
pub const TMA_TOL: f64 = 1e-8;
/// Agreement required with the paper's two-decimal SPEC figures.
pub const SPEC_TOL: f64 = 0.005;

/// The measures a response reports.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Answer {
    pub mph: f64,
    pub tdh: f64,
    pub tma: f64,
    /// Session version, for session documents.
    pub version: Option<u64>,
}

/// The number after the first `"key":` in a JSON document.
pub fn first_num(text: &str, key: &str) -> Option<f64> {
    let pat = format!("\"{key}\":");
    let at = text.find(&pat)? + pat.len();
    let rest = &text[at..];
    let end = rest
        .find(|c: char| !(c.is_ascii_digit() || "+-.eE".contains(c)))
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

/// The string after the first `"key":` in a JSON document, when it holds
/// no escapes.
pub fn first_str<'a>(text: &'a str, key: &str) -> Option<&'a str> {
    let pat = format!("\"{key}\":\"");
    let rest = &text[text.find(&pat)? + pat.len()..];
    let value = &rest[..rest.find('"')?];
    (!value.contains('\\')).then_some(value)
}

/// Reads the measures out of a `/measure` or session document.
pub fn read_answer(body: &str) -> Option<Answer> {
    Some(Answer {
        mph: first_num(body, "mph")?,
        tdh: first_num(body, "tdh")?,
        tma: first_num(body, "tma")?,
        version: first_num(body, "version").map(|v| v as u64),
    })
}

/// Eqs. 3 and 7: ascending sort, mean ratio of each value to its successor.
pub fn homogeneity(mut v: Vec<f64>) -> f64 {
    if v.len() < 2 {
        return 1.0;
    }
    v.sort_by(|a, b| a.partial_cmp(b).expect("ECS sums are finite"));
    v.windows(2).map(|w| w[0] / w[1]).sum::<f64>() / (v.len() - 1) as f64
}

/// MPH and TDH of the ETC matrix `etc` with `edit` applied: ECS is `1/ETC`,
/// machine performances are its column sums and task difficulties its row
/// sums.
pub fn mph_tdh(etc: &Matrix, edit: Option<&Edit>) -> (f64, f64) {
    let mut rows = vec![0.0; etc.rows()];
    let mut cols = vec![0.0; etc.cols()];
    for i in 0..etc.rows() {
        for (j, &v) in etc.row(i).iter().enumerate() {
            let v = match edit {
                Some(e) if e.task as usize == i && e.machine as usize == j => e.value,
                _ => v,
            };
            rows[i] += 1.0 / v;
            cols[j] += 1.0 / v;
        }
    }
    (homogeneity(cols), homogeneity(rows))
}

/// `|a − b| ≤ tol · max(|a|, |b|)`.
pub fn rel_close(a: f64, b: f64, tol: f64) -> bool {
    (a - b).abs() <= tol * a.abs().max(b.abs())
}

/// Requires the reported MPH and TDH to match the recomputed ones.
pub fn check_homogeneity(got: &Answer, mph: f64, tdh: f64) -> Result<(), String> {
    if !rel_close(got.mph, mph, REL_TOL) {
        return Err(format!("MPH {} != expected {mph}", got.mph));
    }
    if !rel_close(got.tdh, tdh, REL_TOL) {
        return Err(format!("TDH {} != expected {tdh}", got.tdh));
    }
    Ok(())
}

/// Largest relative error of a row or column sum the oracle's standard form
/// may keep.
const ORACLE_SUM_TOL: f64 = 1e-13;
/// Scaling sweeps the oracle may take to reach [`ORACLE_SUM_TOL`].
const ORACLE_MAX_SWEEPS: usize = 100_000;

/// The standard form of a positive ETC matrix (Theorem 1): `ECS = 1/ETC`
/// scaled by alternately dividing each column by its sum over `√(T/M)` and
/// each row by its sum over `√(M/T)`, until every sum is within
/// [`ORACLE_SUM_TOL`] of its target.
pub fn oracle_standard_form(etc: &Matrix) -> Result<Matrix, String> {
    let (t, m) = (etc.rows(), etc.cols());
    let row_target = (m as f64 / t as f64).sqrt();
    let col_target = (t as f64 / m as f64).sqrt();
    let mut a = Matrix::from_fn(t, m, |i, j| 1.0 / etc[(i, j)]);
    for _ in 0..ORACLE_MAX_SWEEPS {
        for (j, s) in a.col_sums().into_iter().enumerate() {
            a.scale_col(j, col_target / s);
        }
        for (i, s) in a.row_sums().into_iter().enumerate() {
            a.scale_row(i, row_target / s);
        }
        // Rows are exact after their scaling; the columns tell the residual.
        if a.col_sums()
            .iter()
            .all(|s| (s - col_target).abs() <= ORACLE_SUM_TOL * col_target)
        {
            return Ok(a);
        }
    }
    Err(format!(
        "oracle standard form did not converge in {ORACLE_MAX_SWEEPS} sweeps"
    ))
}

/// TMA of an ETC matrix by the oracle: [`oracle_standard_form`], then the
/// Jacobi SVD, then the mean of the singular values after the first (Eq. 8).
pub fn oracle_tma(etc: &Matrix) -> Result<f64, String> {
    let svd = jacobi_svd(&oracle_standard_form(etc)?).map_err(|e| e.to_string())?;
    let s = &svd.singular_values;
    if s.len() < 2 {
        return Ok(0.0);
    }
    Ok((s[1..].iter().sum::<f64>() / (s.len() - 1) as f64).clamp(0.0, 1.0))
}

/// Requires the reported TMA to match the oracle's.
pub fn check_tma(got: &Answer, oracle: f64) -> Result<(), String> {
    if rel_close(got.tma, oracle, TMA_TOL) {
        Ok(())
    } else {
        Err(format!("TMA {} != oracle {oracle}", got.tma))
    }
}

/// Requires a SPEC set's measures to match the paper's figures.
pub fn check_spec(got: &Answer, t: &SpecTargets) -> Result<(), String> {
    for (name, v, want) in [
        ("MPH", got.mph, t.mph),
        ("TDH", got.tdh, t.tdh),
        ("TMA", got.tma, t.tma),
    ] {
        if (v - want).abs() > SPEC_TOL {
            return Err(format!("SPEC {name} {v} is not the paper's {want}"));
        }
    }
    Ok(())
}
