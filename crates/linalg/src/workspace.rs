//! Reusable scratch arena for allocation-free numeric hot paths.
//!
//! A [`Workspace`] owns a small pool of previously-allocated `f64` (and index)
//! buffers. Kernels written against it — the `_in` variants of SVD,
//! bidiagonalization, Sinkhorn balancing, and the measure pipeline — check
//! buffers out with [`Workspace::take_vec`]/[`Workspace::take_matrix`] and
//! return them with [`Workspace::recycle_vec`]/[`Workspace::recycle_matrix`].
//! On the first call for a given shape everything is allocated fresh; once the
//! buffers have been recycled, repeat calls on the same shapes reuse capacity
//! and perform **zero** heap allocations. The pool is deliberately dumb: a
//! best-fit scan over at most [`MAX_POOLED`] retained buffers, no
//! synchronization, no shrinking. One workspace per thread (see the per-worker
//! `Analyzer` in `hc-serve`) is the intended usage.

use crate::matrix::Matrix;

/// Retained-buffer cap per pool; beyond it the smallest buffer is evicted so
/// a shape-churning caller cannot grow the pool without bound.
const MAX_POOLED: usize = 64;

/// Allocation/reuse counters for a [`Workspace`], for tests and diagnostics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WorkspaceStats {
    /// Checkouts served by reusing a pooled buffer (no heap allocation).
    pub reuses: u64,
    /// Checkouts that had to allocate a fresh buffer.
    pub fresh: u64,
    /// Buffers returned to the pool.
    pub recycled: u64,
}

/// A scratch arena that recycles `f64` and index buffers across calls.
#[derive(Debug, Default)]
pub struct Workspace {
    f64_pool: Vec<Vec<f64>>,
    idx_pool: Vec<Vec<usize>>,
    stats: WorkspaceStats,
}

/// Best-fit checkout: the pooled buffer with the smallest sufficient capacity.
fn best_fit<T>(pool: &[Vec<T>], len: usize) -> Option<usize> {
    let mut best: Option<usize> = None;
    for (i, buf) in pool.iter().enumerate() {
        if buf.capacity() >= len && best.is_none_or(|b| buf.capacity() < pool[b].capacity()) {
            best = Some(i);
        }
    }
    best
}

/// Recycle with eviction: keep the pool at most [`MAX_POOLED`] buffers,
/// dropping the smallest when a larger one arrives.
fn put_back<T>(pool: &mut Vec<Vec<T>>, buf: Vec<T>) {
    if buf.capacity() == 0 {
        return;
    }
    if pool.len() < MAX_POOLED {
        pool.push(buf);
        return;
    }
    if let Some((i, _)) = pool
        .iter()
        .enumerate()
        .min_by_key(|(_, b)| b.capacity())
        .filter(|(_, b)| b.capacity() < buf.capacity())
    {
        pool[i] = buf;
    }
}

impl Workspace {
    /// An empty workspace; the first checkouts allocate, later ones reuse.
    pub fn new() -> Self {
        Self::default()
    }

    /// Checks out a length-`len` buffer filled with `fill`. An empty checkout
    /// needs no heap memory, so it leaves the pool alone (a pooled buffer
    /// spent on it would be missing for the next real checkout).
    pub fn take_vec(&mut self, len: usize, fill: f64) -> Vec<f64> {
        if len == 0 {
            return Vec::new();
        }
        match best_fit(&self.f64_pool, len) {
            Some(i) => {
                self.stats.reuses += 1;
                let mut buf = self.f64_pool.swap_remove(i);
                buf.clear();
                buf.resize(len, fill);
                buf
            }
            None => {
                self.stats.fresh += 1;
                vec![fill; len]
            }
        }
    }

    /// Checks out a buffer initialized as a copy of `src`.
    pub fn take_vec_copy(&mut self, src: &[f64]) -> Vec<f64> {
        let mut buf = self.take_vec(src.len(), 0.0);
        buf.copy_from_slice(src);
        buf
    }

    /// Checks out a `rows × cols` matrix filled with `fill`.
    pub fn take_matrix(&mut self, rows: usize, cols: usize, fill: f64) -> Matrix {
        let data = self.take_vec(rows * cols, fill);
        Matrix::from_vec(rows, cols, data).expect("workspace buffer sized to shape")
    }

    /// Checks out a matrix initialized as a copy of `src`.
    pub fn take_matrix_copy(&mut self, src: &Matrix) -> Matrix {
        let data = self.take_vec_copy(src.as_slice());
        Matrix::from_vec(src.rows(), src.cols(), data).expect("workspace buffer sized to shape")
    }

    /// Checks out the `n × n` identity matrix.
    pub fn take_identity(&mut self, n: usize) -> Matrix {
        let mut m = self.take_matrix(n, n, 0.0);
        for i in 0..n {
            m[(i, i)] = 1.0;
        }
        m
    }

    /// Checks out a length-`len` index buffer (zero-filled); empty checkouts
    /// leave the pool alone, as in [`Workspace::take_vec`].
    pub fn take_idx(&mut self, len: usize) -> Vec<usize> {
        if len == 0 {
            return Vec::new();
        }
        match best_fit(&self.idx_pool, len) {
            Some(i) => {
                self.stats.reuses += 1;
                let mut buf = self.idx_pool.swap_remove(i);
                buf.clear();
                buf.resize(len, 0);
                buf
            }
            None => {
                self.stats.fresh += 1;
                vec![0; len]
            }
        }
    }

    /// Returns a buffer to the pool for later reuse.
    pub fn recycle_vec(&mut self, buf: Vec<f64>) {
        self.stats.recycled += 1;
        put_back(&mut self.f64_pool, buf);
    }

    /// Returns a matrix's backing buffer to the pool.
    pub fn recycle_matrix(&mut self, m: Matrix) {
        self.recycle_vec(m.into_vec());
    }

    /// Returns an index buffer to the pool.
    pub fn recycle_idx(&mut self, buf: Vec<usize>) {
        self.stats.recycled += 1;
        put_back(&mut self.idx_pool, buf);
    }

    /// Checkout/recycle counters since construction (or the last reset).
    pub fn stats(&self) -> WorkspaceStats {
        self.stats
    }

    /// Zeroes the counters without touching the pooled buffers.
    pub fn reset_stats(&mut self) {
        self.stats = WorkspaceStats::default();
    }

    /// Number of buffers currently retained across both pools.
    pub fn pooled_buffers(&self) -> usize {
        self.f64_pool.len() + self.idx_pool.len()
    }

    /// Drops every retained buffer (counters are kept).
    pub fn clear(&mut self) {
        self.f64_pool.clear();
        self.idx_pool.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn first_take_is_fresh_then_reused() {
        let mut ws = Workspace::new();
        let a = ws.take_vec(8, 1.0);
        assert_eq!(a, vec![1.0; 8]);
        assert_eq!(ws.stats().fresh, 1);
        ws.recycle_vec(a);
        let b = ws.take_vec(8, 2.0);
        assert_eq!(b, vec![2.0; 8]);
        assert_eq!(ws.stats().reuses, 1);
        assert_eq!(ws.stats().fresh, 1);
    }

    #[test]
    fn smaller_request_reuses_larger_buffer() {
        let mut ws = Workspace::new();
        let a = ws.take_vec(100, 0.0);
        ws.recycle_vec(a);
        let b = ws.take_vec(10, 3.0);
        assert_eq!(b.len(), 10);
        assert_eq!(ws.stats().reuses, 1);
    }

    #[test]
    fn best_fit_prefers_tightest_capacity() {
        let mut ws = Workspace::new();
        let big = ws.take_vec(100, 0.0);
        let small = ws.take_vec(10, 0.0);
        ws.recycle_vec(big);
        ws.recycle_vec(small);
        let got = ws.take_vec(10, 0.0);
        assert!(got.capacity() < 100, "should reuse the 10-cap buffer");
        ws.recycle_vec(got);
    }

    #[test]
    fn matrix_checkout_roundtrip() {
        let mut ws = Workspace::new();
        let m = ws.take_matrix(3, 4, 0.5);
        assert_eq!(m.shape(), (3, 4));
        assert!(m.as_slice().iter().all(|&v| v == 0.5));
        ws.recycle_matrix(m);
        let id = ws.take_identity(3);
        assert_eq!(id, Matrix::identity(3));
        assert_eq!(ws.stats().reuses, 1);
    }

    #[test]
    fn copy_checkouts_match_sources() {
        let mut ws = Workspace::new();
        let src = Matrix::from_fn(2, 3, |i, j| (i * 3 + j) as f64);
        let m = ws.take_matrix_copy(&src);
        assert_eq!(m, src);
        let v = ws.take_vec_copy(&[1.0, 2.0]);
        assert_eq!(v, vec![1.0, 2.0]);
    }

    #[test]
    fn idx_pool_roundtrip() {
        let mut ws = Workspace::new();
        let v = ws.take_idx(5);
        assert_eq!(v, vec![0; 5]);
        ws.recycle_idx(v);
        let w = ws.take_idx(4);
        assert_eq!(w.len(), 4);
        assert_eq!(ws.stats().reuses, 1);
    }

    #[test]
    fn pool_is_bounded() {
        let mut ws = Workspace::new();
        for len in 1..=(2 * MAX_POOLED) {
            let v = ws.take_vec(len, 0.0);
            ws.recycle_vec(v);
        }
        assert!(ws.pooled_buffers() <= MAX_POOLED);
        ws.clear();
        assert_eq!(ws.pooled_buffers(), 0);
    }

    #[test]
    fn zero_capacity_buffers_not_pooled() {
        let mut ws = Workspace::new();
        ws.recycle_vec(Vec::new());
        assert_eq!(ws.pooled_buffers(), 0);
    }
}
