//! # hc-session — live-cluster sessions with warm-started solvers
//!
//! Stateful incremental analysis for the heterogeneity measures. A client
//! registers an ETC/ECS matrix once, then streams edits as the cluster
//! drifts; each edit triggers a recompute that *warm-starts* the balancing
//! from the previous solve instead of starting from scratch:
//!
//! * **Sinkhorn** restarts from the previous `D₁/D₂` scaling vectors
//!   ([`hc_sinkhorn::balance::standardize_warm_budgeted_in`]) — a small edit
//!   leaves the seeded matrix near the balanced fixed point, so convergence
//!   takes a handful of sweeps instead of hundreds.
//! * **SVD** runs the values-only kernel
//!   ([`hc_linalg::svd::singular_values_in`]) on the new standard form, the
//!   same one `/measure` uses: TMA needs σ₂…σₖ only, so no singular vectors
//!   are built or carried between edits.
//!
//! Correctness is never traded for speed: the warm path must satisfy exactly
//! the cold path's convergence tolerances, and any miss falls back to a
//! silent cold recompute counted in `session_warm_fallback_total`.
//!
//! The crate is layered:
//!
//! * [`engine`] — [`engine::SessionEngine`], one environment + warm state +
//!   the warm/cold/fallback recompute logic.
//! * [`edits`] — the line-oriented `cell,` / `row,` / `col,` edit language
//!   used by `PATCH /session/{id}/etc` (the stack has no JSON parser).
//! * [`store`] — the sharded, TTL'd, LRU-bounded session store with
//!   long-poll watch and drain support, shared across server workers.
//!
//! The HTTP surface lives in `hc-serve`; `hcm session` in the CLI runs an
//! offline demo of the same engine.

pub mod edits;
pub mod engine;
pub mod store;

pub use edits::{parse_edits, to_ecs_value, Edit, EditParseError};
pub use engine::{RecomputeStats, SessionEngine};
pub use store::{
    Delta, SessionConfig, SessionError, SessionSnapshot, SessionStore, TryWatch, WatchOutcome,
    WatchWaker,
};
