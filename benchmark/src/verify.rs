//! Checks every answer a run received, after the timed phases end.

use hc_linalg::Matrix;

use crate::check::{check_homogeneity, check_spec, check_tma, mph_tdh, oracle_tma, Answer};
use crate::loadgen::Record;
use crate::workload::{Desc, Edit, Inputs, SESSIONS};

/// Responses whose TMA is compared with the Jacobi oracle in one run.
const ORACLE_SAMPLES: usize = 24;

/// What the checks found.
#[derive(Debug, Default)]
pub struct Verdict {
    /// Records that failed, for any reason.
    pub failed: usize,
    pub oracle_checked: usize,
    pub spec_checked: usize,
    /// A few failure reasons, for the log.
    pub examples: Vec<String>,
}

fn with_edit(etc: &Matrix, edit: Option<&Edit>) -> Matrix {
    let mut m = etc.clone();
    if let Some(e) = edit {
        m[(e.task as usize, e.machine as usize)] = e.value;
    }
    m
}

/// Checks each connection's records, given in send order (a session's
/// requests all travel on one connection, so its versions follow that
/// order). Failures are recorded on the records themselves.
pub fn verify(inputs: &Inputs, conns: &mut [Vec<&mut Record>]) -> Verdict {
    let total: usize = conns.iter().map(Vec::len).sum();
    let stride = (total / ORACLE_SAMPLES).max(1);
    let mut states: Vec<Matrix> = inputs
        .bases
        .iter()
        .take(SESSIONS)
        .map(|b| b.etc.clone())
        .collect();
    let mut versions = vec![1u64; states.len()];
    let mut oracle_jobs: Vec<(usize, usize, Matrix)> = Vec::new();
    let mut v = Verdict::default();
    let mut seen = 0usize;
    for (c, recs) in conns.iter_mut().enumerate() {
        for (k, rec) in recs.iter_mut().enumerate() {
            seen += 1;
            let (etc, edit, version) = match rec.desc {
                Desc::Measure { base, edit } => (&inputs.bases[base as usize].etc, edit, None),
                Desc::Patch { session, edit } => {
                    let s = session as usize;
                    // A 2xx edit was applied; anything else left the session
                    // as it was (PATCH is atomic).
                    if (200..300).contains(&rec.status) {
                        states[s][(edit.task as usize, edit.machine as usize)] = edit.value;
                        versions[s] += 1;
                    }
                    (&states[s], None, Some(versions[s]))
                }
                Desc::Get { session } => {
                    let s = session as usize;
                    (&states[s], None, Some(versions[s]))
                }
            };
            let Some(ans) = rec.answer.filter(|_| rec.ok()) else {
                continue;
            };
            let (mph, tdh) = mph_tdh(etc, edit.as_ref());
            let mut result = check_homogeneity(&ans, mph, tdh);
            if result.is_ok() && ans.version != version {
                result = Err(format!("version {:?} != expected {version:?}", ans.version));
            }
            if let (Ok(()), Desc::Measure { base, .. }) = (&result, rec.desc) {
                if let Some(spec) = inputs.bases[base as usize].spec {
                    v.spec_checked += 1;
                    result = check_spec(&ans, &spec.targets());
                }
            }
            match result {
                Ok(()) if seen.is_multiple_of(stride) => {
                    oracle_jobs.push((c, k, with_edit(etc, edit.as_ref())))
                }
                Ok(()) => {}
                Err(e) => rec.error = Some(e),
            }
        }
    }
    for (c, k, m) in oracle_jobs {
        let rec = &mut conns[c][k];
        let ans: Answer = rec.answer.expect("sampled records were answered");
        v.oracle_checked += 1;
        if let Err(e) = oracle_tma(&m).and_then(|o| check_tma(&ans, o)) {
            rec.error = Some(e);
        }
    }
    for rec in conns.iter().flatten() {
        if !rec.ok() {
            v.failed += 1;
            if v.examples.len() < 5 {
                let why = rec
                    .error
                    .clone()
                    .unwrap_or_else(|| format!("HTTP {}", rec.status));
                v.examples.push(format!("request {}: {why}", rec.index));
            }
        }
    }
    v
}
