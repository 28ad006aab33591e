//! # hc-linalg — dense linear algebra substrate
//!
//! A self-contained dense linear-algebra library backing the heterogeneity-measure
//! stack. It provides exactly what the reproduction of *Characterizing Task-Machine
//! Affinity in Heterogeneous Computing Environments* (Al-Qawasmeh et al., IPDPS 2011)
//! needs — and nothing that would pull in an external numeric crate:
//!
//! * [`Matrix`] — a row-major dense `f64` matrix with the usual structural and
//!   arithmetic operations.
//! * Norms ([`norms`]) — Frobenius, induced 1/∞, max-abs.
//! * Householder QR ([`qr`]) and Golub–Kahan bidiagonalization ([`bidiag`]).
//! * SVD ([`svd`]): the values-only kernel behind every TMA (bidiagonalization
//!   without singular vectors, then implicit-shift bidiagonal QR), and two
//!   full decompositions — one-sided Jacobi (high relative accuracy; the
//!   small-size choice of [`svd::svd`] and the test oracle) and Golub–Reinsch (the values-only kernel's stages with `U`/`V`
//!   accumulated). A scoped-thread-parallel Jacobi variant lives in [`par`].
//! * Symmetric eigen-solver and power iteration ([`eigen`]) used to cross-check the
//!   SVDs in tests.
//! * Scoped data-parallel helpers ([`par`]) built on `std::thread::scope` — no detached
//!   threads, deterministic reductions.
//! * Zero-copy views ([`view`]) and a recycling scratch arena ([`workspace`]) —
//!   the `_in`/`_into` kernel variants take [`MatRef`] views plus a caller
//!   [`Workspace`] and perform no heap allocation once the workspace is warm;
//!   the owned-`Matrix` API is a thin wrapper over them.
//! * Cooperative cancellation ([`budget`]) — a [`Budget`] (wall-clock deadline
//!   plus [`CancelToken`]) polled by the iterative loops' `*_budgeted_in`
//!   variants, so a serving layer can bound worst-case latency.
//!
//! All algorithms are implemented from the standard literature (Golub & Van Loan,
//! *Matrix Computations*) and cross-validated against each other in the test suite.

#![deny(missing_docs)]
#![warn(clippy::all)]

pub mod bidiag;
pub mod budget;
pub mod eigen;
pub mod error;
pub mod lowrank;
pub mod lu;
pub mod matmul;
pub mod matrix;
pub mod norms;
pub mod par;
pub mod qr;
pub mod svd;
pub mod vecops;
pub mod view;
pub mod workspace;

pub use budget::{Budget, CancelToken};
pub use error::LinAlgError;
pub use matrix::Matrix;
pub use svd::{Svd, SvdAlgorithm};
pub use view::{MatMut, MatRef};
pub use workspace::{Workspace, WorkspaceStats};

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, LinAlgError>;

/// Default tolerance used by convergence loops.
pub const DEFAULT_TOL: f64 = 1e-12;
