//! What the shared host does to a run: how much of the VM's CPU time it
//! takes (steal), and how fast it runs a fixed piece of work (speed).
//!
//! On the reference VM the host's speed moves with its other tenants' load.
//! Between quiet and busy spells, `paper-small`'s CPU time per request
//! changed by 1.7× and its closed-loop throughput with it, while the host
//! steal stayed under 5%. A kernel that shares no code with the program
//! under test reads the host's speed during every run, and each end-to-end
//! figure is carried from that speed to a fixed reference speed along a
//! power law fitted on the reference machine. The factor depends on the
//! host alone, so a change to the program moves the figures in full.

use std::hint::black_box;
use std::time::{Duration, Instant};

/// Host steal and total CPU time so far, in ticks, from `/proc/stat`.
pub fn steal_ticks() -> Result<(u64, u64), String> {
    let stat = std::fs::read_to_string("/proc/stat").map_err(|e| e.to_string())?;
    let ticks: Vec<u64> = stat
        .lines()
        .next()
        .and_then(|l| l.strip_prefix("cpu "))
        .ok_or("no cpu line in /proc/stat")?
        .split_whitespace()
        .map(|v| v.parse().map_err(|_| format!("bad /proc/stat field {v:?}")))
        .collect::<Result<_, _>>()?;
    Ok((
        ticks.get(7).copied().unwrap_or(0),
        ticks.iter().take(8).sum(),
    ))
}

/// The share of CPU time the host took between two [`steal_ticks`] reads.
pub fn steal_share(from: (u64, u64), to: (u64, u64)) -> f64 {
    (to.0 - from.0) as f64 / (to.1 - from.1).max(1) as f64
}

/// Iterations of the speed kernel in one timing: about 3 ms on the
/// reference machine.
const SPEED_ITERS: u64 = 1 << 20;
/// Timings per reading. The fastest counts, so that a preemption during
/// one of them does not.
const SPEED_REPS: usize = 5;
/// Speed kernel runs per second on the reference machine in a quiet spell.
/// At this speed the reported figures equal the measured ones.
pub const REFERENCE_SPEED: f64 = 330.0;

/// How a workload's end-to-end figures follow the host's speed: each is
/// taken as proportional to the speed raised to its slope, the slope of
/// `ln(figure)` over `ln(speed)` fitted over runs on the reference machine
/// and rounded to a half.
#[derive(Debug, Clone, Copy)]
pub struct SpeedSlopes {
    pub throughput: f64,
    pub latency: f64,
    pub cpu: f64,
}

/// Slope of `setup_s`, the same for every workload.
pub const SETUP_SLOPE: f64 = -1.5;

/// `value`, measured at host speed `speed`, carried to
/// [`REFERENCE_SPEED`] along a power law of slope `slope`.
pub fn at_reference(value: f64, speed: f64, slope: f64) -> f64 {
    value * (REFERENCE_SPEED / speed).powf(slope)
}

/// A fixed run of integer, floating-point and L1-cache work; returns its
/// wall time.
fn speed_kernel() -> Duration {
    let mut table = vec![0u64; 4096];
    let mut x: u64 = 0x9E37_79B9_7F4A_7C15;
    let mut f = 1.0f64;
    let t0 = Instant::now();
    for _ in 0..SPEED_ITERS {
        x = x
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        let k = (x >> 52) as usize;
        table[k] = table[k].wrapping_add(x);
        f = f.mul_add(0.999_999_9, (x >> 40) as f64 * 1e-12);
    }
    black_box((&table, f));
    t0.elapsed()
}

/// The host's speed now, in speed-kernel runs per second.
pub fn host_speed() -> f64 {
    let best = (0..SPEED_REPS)
        .map(|_| speed_kernel())
        .min()
        .expect("SPEED_REPS is positive");
    1.0 / best.as_secs_f64()
}
