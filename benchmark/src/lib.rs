//! End-to-end and per-layer benchmark of `hcm serve`.
//!
//! The binary builds and starts the release server, drives it from this
//! process over loopback, checks every answer, and prints the metrics
//! `BENCHMARK.json` names. The modules are public so the harness tests can
//! reach them.

pub mod check;
pub mod client;
pub mod host;
pub mod loadgen;
pub mod replay;
pub mod server;
pub mod stats;
pub mod trace;
pub mod verify;
pub mod workload;
