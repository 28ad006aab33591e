//! Nearest-rank percentiles with a sample-count guard.

/// A percentile read from a sample, with the evidence behind it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Percentile {
    /// The sample value at the nearest rank.
    pub value: f64,
    /// Samples the percentile was read from.
    pub n: usize,
    /// Samples strictly past the rank (the ones the percentile is about).
    pub beyond: usize,
}

/// Fewest samples that must lie past a reported tail percentile.
pub const MIN_BEYOND: usize = 10;

/// Nearest-rank percentile `p` (in `(0, 100]`) of an ascending sample:
/// the value at rank `ceil(p/100 · n)`.
///
/// # Panics
/// Panics on an empty sample.
pub fn nearest_rank(sorted: &[f64], p: f64) -> Percentile {
    assert!(!sorted.is_empty(), "percentile of an empty sample");
    let n = sorted.len();
    let rank = rank(n, p);
    Percentile {
        value: sorted[rank - 1],
        n,
        beyond: n - rank,
    }
}

/// The 1-based nearest rank of percentile `p` among `n ≥ 1` samples.
fn rank(n: usize, p: f64) -> usize {
    ((p / 100.0 * n as f64).ceil() as usize).clamp(1, n)
}

/// [`nearest_rank`] that refuses a tail percentile backed by fewer than
/// `min_beyond` samples past it.
pub fn guarded(sorted: &[f64], p: f64, min_beyond: usize) -> Result<Percentile, String> {
    if sorted.is_empty() {
        return Err(format!("p{p} of an empty sample"));
    }
    let pct = nearest_rank(sorted, p);
    if pct.beyond < min_beyond {
        return Err(format!(
            "p{p} rests on {} samples beyond it (n={}); at least {min_beyond} are required",
            pct.beyond, pct.n
        ));
    }
    Ok(pct)
}

/// Sorts a sample ascending (NaN-free input; `inf` sorts last).
pub fn sorted(mut v: Vec<f64>) -> Vec<f64> {
    v.sort_by(|a, b| a.partial_cmp(b).expect("samples are never NaN"));
    v
}

/// Median (nearest rank) of an unsorted sample; `None` when empty.
pub fn median(v: &[f64]) -> Option<f64> {
    if v.is_empty() {
        return None;
    }
    Some(nearest_rank(&sorted(v.to_vec()), 50.0).value)
}

/// A percentile taken window by window.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Windowed {
    /// Median of the windows' percentiles.
    pub value: f64,
    pub windows: usize,
    /// Samples in the smallest window, and past its percentile.
    pub n: usize,
    pub beyond: usize,
}

/// Splits a time-ordered sample into the largest odd number of equal
/// consecutive windows, at most `max_windows`, that each leave
/// [`MIN_BEYOND`] samples past percentile `p`, and returns the median of
/// the windows' nearest-rank percentiles. A stall that lands in one window
/// moves that window's percentile, not the result.
pub fn windowed(sample: &[f64], p: f64, max_windows: usize) -> Result<Windowed, String> {
    let fits = |k: usize| {
        let n = sample.len() / k;
        n > 0 && n - rank(n, p) >= MIN_BEYOND
    };
    let mut k = max_windows.max(1);
    while k > 1 && (k.is_multiple_of(2) || !fits(k)) {
        k -= 1;
    }
    let size = sample.len() / k;
    let mut values = Vec::with_capacity(k);
    let mut least = None::<Percentile>;
    for w in 0..k {
        let end = if w + 1 == k {
            sample.len()
        } else {
            (w + 1) * size
        };
        let pct = guarded(&sorted(sample[w * size..end].to_vec()), p, MIN_BEYOND)?;
        values.push(pct.value);
        if least.is_none_or(|l| pct.n < l.n) {
            least = Some(pct);
        }
    }
    let least = least.expect("at least one window");
    Ok(Windowed {
        value: nearest_rank(&sorted(values), 50.0).value,
        windows: k,
        n: least.n,
        beyond: least.beyond,
    })
}

/// The measurement windows a run reports: every window that passed its
/// checks, or, when fewer than `min` passed, the `min` windows with the
/// least host steal among all of them, passing ones first. A busy spell on
/// the host then reports its least-disturbed windows instead of no result.
pub fn keep_windows(passed: &[bool], steal: &[f64], min: usize) -> Vec<bool> {
    let mut order: Vec<usize> = (0..passed.len()).collect();
    order.sort_by(|&a, &b| {
        passed[b]
            .cmp(&passed[a])
            .then(steal[a].total_cmp(&steal[b]))
    });
    let n = passed.iter().filter(|&&p| p).count().max(min);
    let mut keep = vec![false; passed.len()];
    for &k in order.iter().take(n) {
        keep[k] = true;
    }
    keep
}
