//! `hc-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Run from the repository root. Builds the release `hcm`, starts
//! `hcm serve` with its shipped defaults, and measures it:
//!
//! 1. set-up: the server is started several times; `setup_s` is the median
//!    time from spawn to the first `200` from `/healthz`;
//! 2. warm-up (untimed): sessions are created, or a short closed loop runs;
//! 3. measurement cycles, each a closed loop for the workload's share of
//!    the cycle (one request outstanding per connection: `throughput_rps`,
//!    `cpu_ms_per_op`) and an open loop for the rest (Poisson arrivals at
//!    the workload's fixed rate, each request timed from when it was due:
//!    the latencies). Windows in which the host took more than a set share
//!    of the CPU time, or the generator fell behind, are left out.
//!
//! Every answer is checked afterwards. With `--trace 1` the run also builds
//! spans from each response's `Server-Timing` header, replays the requests
//! in process through each layer, writes the spans under `benchmark/out/`,
//! and reports the per-layer metrics instead of the end-to-end ones. The
//! last line of standard output is the JSON result.

use std::fmt::Write as _;
use std::path::Path;
use std::process::ExitCode;
use std::time::Duration;

use hc_perfbench::check::{check_homogeneity, first_str, mph_tdh, read_answer};
use hc_perfbench::client::Conn;
use hc_perfbench::host::{
    at_reference, host_speed, steal_share, steal_ticks, REFERENCE_SPEED, SETUP_SLOPE,
};
use hc_perfbench::loadgen::{closed_loop, open_loop, At, Record, Target};
use hc_perfbench::replay::replay;
use hc_perfbench::server::{build_hcm, prom_value, Server};
use hc_perfbench::stats::{
    guarded, keep_windows, median, nearest_rank, sorted, windowed, Windowed, MIN_BEYOND,
};
use hc_perfbench::trace::{breakdown, render, to_jsonl, Span, Tracer};
use hc_perfbench::verify::verify;
use hc_perfbench::workload::{
    request_id, workload, Desc, Inputs, Kind, Stream, Workload, SESSIONS,
};

/// Request indices of cycle `k` start at `k` times this, so ids stay unique.
const CYCLE_INDEX_STRIDE: u64 = 1_000_000;
/// Server starts per run; `setup_s` is their median.
const SETUP_SPAWNS: usize = 15;
/// Untimed closed-loop warm-up before measuring `/measure` workloads.
const WARM_UP: Duration = Duration::from_millis(500);
/// An open-loop window whose generator sent its median request later past
/// its due time than this share of the window's median latency fell behind
/// its schedule, and is left out: the lateness would make up too much of
/// what is reported.
const LATE_SHARE_BOUND: f64 = 0.1;
/// A measurement window in which the host took more than this share of the
/// VM's CPU time (steal) is left out of the figures.
const STEAL_CUTOFF: f64 = 0.05;
/// Fewest windows of each loop a run reports. When fewer pass the steal
/// and lateness checks, the least stolen of the others fill up to this.
const MIN_CLEAN_WINDOWS: usize = 5;
/// Most windows the open-loop percentiles are taken over, in due order; a
/// window must leave ten samples past its percentile.
const WINDOWS: usize = 15;
/// Untraced and traced replay passes compared for the tracing overhead.
const REPLAY_PAIRS: usize = 3;
/// Wall-time budget of one in-process replay pass.
const REPLAY_BUDGET: Duration = Duration::from_secs(1);
/// Where traced runs write their spans, relative to the repository root.
const OUT_DIR: &str = "benchmark/out";

struct Args {
    workload: &'static Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let (mut w, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let v = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value {v:?} for {flag}");
        match flag.as_str() {
            "--workload" => w = Some(workload(v).ok_or_else(|| format!("unknown workload {v:?}"))?),
            "--seed" => seed = Some(v.parse().map_err(|_| bad())?),
            "--seconds" => {
                seconds = Some(v.parse::<u64>().ok().filter(|&s| s > 0).ok_or_else(bad)?)
            }
            "--trace" => {
                trace = Some(match v.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: w.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

/// A run that ends without a result: the exit code and why.
struct Failure(u8, String);

impl From<String> for Failure {
    fn from(msg: String) -> Self {
        Failure(1, msg)
    }
}

/// One reported metric with the evidence printed beside it.
struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
    note: String,
}

fn metric(name: &'static str, value: f64, unit: &'static str, note: impl Into<String>) -> Metric {
    Metric {
        name,
        value,
        unit,
        note: note.into(),
    }
}

/// Shares as percentages with one decimal, space-separated.
fn percents(v: &[f64]) -> String {
    let parts: Vec<String> = v.iter().map(|s| format!("{:.1}", 100.0 * s)).collect();
    parts.join(" ")
}

fn show(metrics: &[Metric]) {
    for m in metrics {
        println!(
            "  {:<24} {:>14.6} {:<6} {}",
            m.name, m.value, m.unit, m.note
        );
    }
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines().find_map(|l| {
                l.strip_prefix("model name")
                    .map(|v| v.trim_start_matches([' ', '\t', ':']).to_string())
            })
        })
        .unwrap_or_else(|| "unknown".into())
}

/// Creates the workload's sessions on one connection; returns their ids.
fn create_sessions(addr: &str, inputs: &Inputs) -> Result<Vec<String>, String> {
    let mut conn = Conn::connect(addr).map_err(|e| e.to_string())?;
    let mut ids = Vec::new();
    for s in 0..SESSIONS {
        conn.send(&inputs.create_session_bytes(s, &format!("pb-s{s}")))
            .map_err(|e| e.to_string())?;
        let r = conn.recv(Duration::from_secs(30))?;
        let body = String::from_utf8_lossy(&r.body).into_owned();
        if r.status != 200 {
            return Err(format!("POST /session answered {}: {body}", r.status));
        }
        let ans = read_answer(&body).ok_or("session document carries no measures")?;
        let (mph, tdh) = mph_tdh(&inputs.bases[s].etc, None);
        check_homogeneity(&ans, mph, tdh).map_err(|e| format!("session {s}: {e}"))?;
        ids.push(
            first_str(&body, "id")
                .ok_or("session document has no id")?
                .to_string(),
        );
    }
    Ok(ids)
}

/// Spans for one open-loop request: the client span from due time to last
/// byte, with the server's four phases laid end to end from the send.
fn client_spans(t: &mut Tracer, rid: &str, r: &Record) {
    let Some(phases) = r.timing else { return };
    let root = t.push(Span {
        name: "client.request",
        parent: None,
        request: rid.to_string(),
        start_ns: r.due_ns,
        end_ns: r.done_ns,
    });
    let mut at = r.sent_ns;
    for (name, ms) in [
        "serve.parse",
        "serve.queue",
        "serve.compute",
        "serve.serialize",
    ]
    .into_iter()
    .zip([phases[1], phases[0], phases[2], phases[3]])
    {
        let end = (at + (ms * 1e6) as u64).min(r.done_ns);
        t.push(Span {
            name,
            parent: Some(root),
            request: rid.to_string(),
            start_ns: at,
            end_ns: end,
        });
        at = end;
    }
}

/// The durations of every span named `name`, in microseconds.
fn span_durations_us(tracers: &[&Tracer], name: &str) -> Vec<f64> {
    tracers
        .iter()
        .flat_map(|t| t.spans.iter())
        .filter(|s| s.name == name)
        .map(|s| s.dur_ns() as f64 / 1e3)
        .collect()
}

/// A sample's median with its count; 0 for a layer the workload skips.
fn p50_note(v: &[f64]) -> (f64, String) {
    match median(v) {
        Some(m) => (m, format!("p50, n={}", v.len())),
        None => (0.0, "n=0: not on this workload's path".into()),
    }
}

fn run(a: &Args) -> Result<(Vec<Metric>, usize, usize, bool), Failure> {
    let root = std::env::current_dir().map_err(|e| e.to_string())?;
    if !root.join("crates/cli/Cargo.toml").is_file() {
        return Err(Failure(
            2,
            "run from the repository root (crates/cli is missing)".into(),
        ));
    }
    let hcm = build_hcm(&root)?;
    std::fs::create_dir_all(OUT_DIR).map_err(|e| format!("{OUT_DIR}: {e}"))?;
    let tag = format!("{}-seed{}", a.workload.name, a.seed);
    let log = Path::new(OUT_DIR).join(format!("server-{tag}.log"));
    let conns = std::thread::available_parallelism().map_or(1, |n| n.get());
    let inputs = Inputs::new(a.workload.kind, a.seed);
    let cycles = a.seconds.min(a.workload.cycles);
    let cycle_dur = Duration::from_secs(a.seconds) / cycles as u32;
    let closed_dur = cycle_dur.mul_f64(a.workload.closed_share);
    let open_dur = cycle_dur - closed_dur;
    println!(
        "workload {} seed {} seconds {} trace {} | nproc {conns} | cpu {} | offered {} rps",
        a.workload.name,
        a.seed,
        a.seconds,
        a.trace as u8,
        cpu_model(),
        a.workload.offered_rps
    );

    let mut speeds = vec![host_speed()];
    let mut setups = Vec::new();
    let mut server = None;
    for k in 0..SETUP_SPAWNS {
        let (s, dt) = Server::start(&hcm, &log)?;
        setups.push(dt.as_secs_f64());
        if k + 1 < SETUP_SPAWNS {
            s.stop()?;
        } else {
            server = Some(s);
        }
    }
    let server = server.expect("at least one spawn");
    let ids = if a.workload.kind == Kind::SessionEdits {
        create_sessions(&server.addr, &inputs)?
    } else {
        Vec::new()
    };
    let target = Target {
        addr: &server.addr,
        inputs: &inputs,
        ids: &ids,
        conns,
    };
    // Each connection's records in the order it sent them.
    let mut timeline = if a.workload.kind == Kind::SessionEdits {
        vec![Vec::new(); conns]
    } else {
        closed_loop(
            &target,
            At {
                stream: Stream::Warm,
                cycle: 0,
                first: 0,
            },
            WARM_UP,
        )
    };
    // Closed and open phases alternate, so both see the same spread of
    // machine conditions over the run.
    let mut cpu = Vec::new();
    let mut closed_steal = Vec::new();
    let mut open_steal = Vec::new();
    let steal0 = steal_ticks()?;
    for k in 0..cycles as u32 {
        let first = u64::from(k) * CYCLE_INDEX_STRIDE;
        speeds.push(host_speed());
        let s0 = steal_ticks()?;
        let cpu0 = server.cpu_time()?;
        let closed = closed_loop(
            &target,
            At {
                stream: Stream::Closed,
                cycle: k,
                first,
            },
            closed_dur,
        );
        cpu.push(server.cpu_time()? - cpu0);
        speeds.push(host_speed());
        let s1 = steal_ticks()?;
        closed_steal.push(steal_share(s0, s1));
        let open = open_loop(
            &target,
            At {
                stream: Stream::Open,
                cycle: k,
                first,
            },
            a.seed,
            a.workload.offered_rps,
            open_dur,
        );
        open_steal.push(steal_share(s1, steal_ticks()?));
        for ((line, c), o) in timeline.iter_mut().zip(closed).zip(open) {
            line.extend(c);
            line.extend(o);
        }
    }
    let run_steal = steal_share(steal0, steal_ticks()?);

    let metrics = server.metrics()?;
    let hwm_kib = server.vm_hwm_kib()?;
    server.stop()?;

    let mut lists: Vec<Vec<&mut Record>> = timeline
        .iter_mut()
        .map(|l| l.iter_mut().collect())
        .collect();
    let verdict = verify(&inputs, &mut lists);
    let all = || timeline.iter().flatten();
    let warm_failed = all()
        .filter(|r| r.stream == Stream::Warm && !r.ok())
        .count();
    let attempted = all().filter(|r| r.stream != Stream::Warm).count();
    let failed = verdict.failed - warm_failed;
    for e in &verdict.examples {
        println!("  failure: {e}");
    }

    // A failed or refused request counts as beyond any latency limit.
    let latency_ms = |r: &Record| {
        if r.ok() {
            (r.done_ns - r.due_ns) as f64 / 1e6
        } else {
            f64::INFINITY
        }
    };
    let late_ms = |r: &Record| r.sent_ns.saturating_sub(r.due_ns) as f64 / 1e6;
    // The windows that count: a closed-loop window passes when the host
    // took at most the steal cutoff, an open-loop window when, besides, the
    // generator kept its schedule.
    let mut open_by_cycle = vec![Vec::new(); cycles as usize];
    let mut late_by_cycle = vec![Vec::new(); cycles as usize];
    for r in all().filter(|r| r.stream == Stream::Open) {
        open_by_cycle[r.cycle as usize].push(latency_ms(r));
        late_by_cycle[r.cycle as usize].push(late_ms(r));
    }
    let open_p50: Vec<Option<f64>> = open_by_cycle.iter().map(|v| median(v)).collect();
    let open_late: Vec<Option<f64>> = late_by_cycle.iter().map(|v| median(v)).collect();
    let closed_passed: Vec<bool> = closed_steal.iter().map(|&s| s <= STEAL_CUTOFF).collect();
    let open_passed: Vec<bool> = (0..cycles as usize)
        .map(|k| {
            open_steal[k] <= STEAL_CUTOFF
                && matches!((open_late[k], open_p50[k]),
                    (Some(late), Some(p50)) if late <= LATE_SHARE_BOUND * p50)
        })
        .collect();
    let closed_keep = keep_windows(&closed_passed, &closed_steal, MIN_CLEAN_WINDOWS);
    let open_keep = keep_windows(&open_passed, &open_steal, MIN_CLEAN_WINDOWS);
    let count = |v: &[bool]| v.iter().filter(|&&c| c).count();
    let (closed_kept, open_kept) = (count(&closed_keep), count(&open_keep));

    // Throughput is the median over the clean closed-loop windows, and CPU
    // per operation their total over their operations.
    let closed_ns = closed_dur.as_nanos() as u64;
    let mut per_window = vec![0.0; cycles as usize];
    let mut ops = vec![0usize; cycles as usize];
    for r in all().filter(|r| r.stream == Stream::Closed && r.ok()) {
        ops[r.cycle as usize] += 1;
        if r.done_ns <= closed_ns {
            per_window[r.cycle as usize] += 1.0;
        }
    }
    let keep = |k: &usize| closed_keep[*k];
    let kept: Vec<f64> = (0..per_window.len())
        .filter(keep)
        .map(|k| per_window[k])
        .collect();
    let in_window = kept.iter().sum::<f64>() as usize;
    let throughput = median(&kept).unwrap_or(f64::NAN) / closed_dur.as_secs_f64();
    let closed_ops: usize = (0..ops.len()).filter(keep).map(|k| ops[k]).sum();
    let closed_cpu: Duration = (0..cpu.len()).filter(keep).map(|k| cpu[k]).sum();
    let cpu_ms_per_op = closed_cpu.as_secs_f64() * 1e3 / closed_ops.max(1) as f64;

    let mut by_due: Vec<&Record> = all()
        .filter(|r| r.stream == Stream::Open && open_keep[r.cycle as usize])
        .collect();
    by_due.sort_by_key(|r| (r.cycle, r.due_ns));
    let lat_in_order: Vec<f64> = by_due.iter().map(|r| latency_ms(r)).collect();
    let late_in_order: Vec<f64> = by_due.iter().map(|r| late_ms(r)).collect();
    let p50 = windowed(&lat_in_order, 50.0, WINDOWS);
    let p99 = windowed(&lat_in_order, 99.0, WINDOWS);
    let p90 = windowed(&lat_in_order, 90.0, WINDOWS);
    let late_p50 = windowed(&late_in_order, 50.0, WINDOWS);
    let late_p99 = windowed(&late_in_order, 99.0, WINDOWS);
    let shown = |w: &Result<Windowed, String>| w.as_ref().map_or(f64::NAN, |w| w.value);
    let note = |w: &Result<Windowed, String>| match w {
        Ok(w) => format!(
            "median of {} windows, each n>={}, {} beyond",
            w.windows, w.n, w.beyond
        ),
        Err(e) => e.clone(),
    };
    let failed_frac = failed as f64 / attempted.max(1) as f64;
    let correct = failed == 0 && warm_failed == 0;
    let open_ok = lat_in_order.iter().filter(|v| v.is_finite()).count();

    // End-to-end figures carried to the reference host speed (see `host`).
    // Each note keeps the figure as measured.
    let speed = median(&speeds).expect("speed is read before the cycles");
    let slopes = a.workload.speed_slopes;
    let measured = |v: f64, unit: &str| format!("; {v:.6} {unit} as measured");
    let setup = median(&setups).expect("spawned");
    let raw_p50 = shown(&p50);
    let mut out = vec![
        metric(
            "setup_s",
            at_reference(setup, speed, SETUP_SLOPE),
            "s",
            format!("median of {SETUP_SPAWNS} starts{}", measured(setup, "s")),
        ),
        metric(
            "throughput_rps",
            at_reference(throughput, speed, slopes.throughput),
            "ops/s",
            format!(
                "median of {closed_kept} windows of {:.1} s; n={in_window} checked 2xx, {conns} connections closed loop{}",
                closed_dur.as_secs_f64(),
                measured(throughput, "ops/s")
            ),
        ),
        metric(
            "latency_p50_ms",
            at_reference(raw_p50, speed, slopes.latency),
            "ms",
            format!(
                "{}; open loop {} rps for {open_kept} x {:.1} s{}",
                note(&p50),
                a.workload.offered_rps,
                open_dur.as_secs_f64(),
                measured(raw_p50, "ms")
            ),
        ),
        metric(
            "cpu_ms_per_op",
            at_reference(cpu_ms_per_op, speed, slopes.cpu),
            "ms",
            format!(
                "server CPU {:.0} ms over {closed_ops} closed-loop ops{}",
                closed_cpu.as_secs_f64() * 1e3,
                measured(cpu_ms_per_op, "ms")
            ),
        ),
        metric("rss_mb", hwm_kib as f64 / 1024.0, "MiB", "server VmHWM at end of run"),
    ];
    // Measured every run but left out of the untraced result: the tails
    // spread past any usable bound on a shared 2-core host, and no failure
    // is the only passing value of failed_frac. Traced runs report the
    // tails as client-layer metrics.
    let tails = vec![
        metric("client.latency_p90_ms", shown(&p90), "ms", note(&p90)),
        metric("client.latency_p99_ms", shown(&p99), "ms", note(&p99)),
        metric(
            "loadgen.late_p99_ms",
            shown(&late_p99),
            "ms",
            note(&late_p99),
        ),
    ];
    let others = [
        metric(
            "failed_frac",
            failed_frac,
            "ratio",
            format!("{failed} of {attempted} attempted"),
        ),
        metric(
            "loadgen.late_p50_ms",
            shown(&late_p50),
            "ms",
            format!(
                "{}; a window over {LATE_SHARE_BOUND} x its p50 is left out",
                note(&late_p50)
            ),
        ),
    ];
    println!(
        "end-to-end{}:",
        if a.trace {
            " (reported by untraced runs)"
        } else {
            ""
        }
    );
    show(&out);
    println!("also measured:");
    show(&tails);
    show(&others);
    println!(
        "  checks: {} answers, {} TMA oracle, {} SPEC; open loop {open_ok} ok",
        all().count(),
        verdict.oracle_checked,
        verdict.spec_checked,
    );
    let rates: Vec<String> = per_window
        .iter()
        .map(|n| format!("{:.0}", n / closed_dur.as_secs_f64()))
        .collect();
    println!(
        "  host speed {speed:.1} kernel runs/s, {:.3} x reference (median of {} readings); end-to-end figures are carried to the reference speed",
        speed / REFERENCE_SPEED,
        speeds.len()
    );
    println!(
        "  host steal {:.1}% of CPU time; windows over {:.0}% are left out",
        100.0 * run_steal,
        100.0 * STEAL_CUTOFF
    );
    let (closed_passes, open_passes) = (count(&closed_passed), count(&open_passed));
    println!(
        "  windows kept of {cycles}: closed loop {closed_kept} ({closed_passes} passed), open loop {open_kept} ({open_passes} passed)"
    );
    if closed_passes < MIN_CLEAN_WINDOWS || open_passes < MIN_CLEAN_WINDOWS {
        println!(
            "  busy host: fewer than {MIN_CLEAN_WINDOWS} windows of a loop passed, so the least stolen of the others fill up to {MIN_CLEAN_WINDOWS}"
        );
    }
    let shown_ms = |v: &[Option<f64>]| -> Vec<String> {
        v.iter()
            .map(|m| m.map_or("-".into(), |m| format!("{m:.3}")))
            .collect()
    };
    println!("    closed-loop ops/s by window: {}", rates.join(" "));
    println!(
        "    closed-loop steal % by window: {}",
        percents(&closed_steal)
    );
    println!(
        "    open-loop p50 ms by window:    {}",
        shown_ms(&open_p50).join(" ")
    );
    println!(
        "    open-loop late p50 ms:         {}",
        shown_ms(&open_late).join(" ")
    );
    println!(
        "    open-loop steal % by window:   {}",
        percents(&open_steal)
    );
    // Checked after printing, so a refused run still shows its figures.
    let [p50, p90, p99, late_p50, late_p99] =
        [p50, p90, p99, late_p50, late_p99].map(|w| w.map_err(|e| Failure(4, e)));
    let (_, _, p99, _, _) = (p50?, p90?, p99?, late_p50?, late_p99?);
    if !p99.value.is_finite() {
        return Err(Failure(
            1,
            "more than 1% of open-loop requests failed".into(),
        ));
    }
    if !a.trace {
        return Ok((out, attempted, failed, correct));
    }

    out = per_layer(a, &inputs, &timeline, &metrics, tails, &tag)?;
    Ok((out, attempted, failed, correct))
}

fn per_layer(
    a: &Args,
    inputs: &Inputs,
    timeline: &[Vec<Record>],
    metrics: &str,
    tails: Vec<Metric>,
    tag: &str,
) -> Result<Vec<Metric>, Failure> {
    let mut client = Tracer::new(std::time::Instant::now());
    let mut phase: [Vec<f64>; 5] = Default::default();
    for (c, recs) in timeline.iter().enumerate() {
        for r in recs.iter().filter(|r| r.stream == Stream::Open && r.ok()) {
            let Some(t) = r.timing else { continue };
            client_spans(&mut client, &request_id(Stream::Open, c, r.index), r);
            let lat = (r.done_ns - r.due_ns) as f64 / 1e6;
            for k in 0..4 {
                phase[k].push(t[k]);
            }
            phase[4].push(lat - t.iter().sum::<f64>());
        }
    }
    let phase: Vec<Vec<f64>> = phase.into_iter().map(sorted).collect();
    let q99 = guarded(&phase[0], 99.0, MIN_BEYOND).map_err(|e| Failure(4, e))?;
    let p50 = |k: usize| nearest_rank(&phase[k], 50.0);

    // The replay takes the open loop's requests in the order they were due.
    let mut due: Vec<&Record> = timeline
        .iter()
        .flatten()
        .filter(|r| r.stream == Stream::Open)
        .collect();
    due.sort_by_key(|r| (r.cycle, r.due_ns));
    let descs: Vec<Desc> = due.into_iter().map(|r| r.desc).collect();
    // Untraced and traced passes alternate after a warm-up pass; the
    // fastest pass of each kind is compared.
    let n = replay(inputs, &descs, false, REPLAY_BUDGET)?.requests;
    let descs = &descs[..n];
    let mut off = f64::INFINITY;
    let mut on = None;
    for _ in 0..REPLAY_PAIRS {
        off = off.min(replay(inputs, descs, false, Duration::MAX)?.wall_s);
        let r = replay(inputs, descs, true, Duration::MAX)?;
        if on
            .as_ref()
            .is_none_or(|o: &hc_perfbench::replay::Replay| r.wall_s < o.wall_s)
        {
            on = Some(r);
        }
    }
    let on = on.expect("traced passes ran");
    let overhead = (on.wall_s - off) / off;
    let pipe = on.pipeline.as_ref().expect("traced");
    let iso = on.isolated.as_ref().expect("traced");
    let tracers = [pipe, iso];

    println!("where a request's time goes ({}):", a.workload.name);
    print!(
        "{}",
        render(
            "  client view (open loop; serve.* from Server-Timing)",
            &breakdown(&client.spans)
        )
    );
    print!(
        "{}",
        render("  in-process replay, pipeline", &breakdown(&pipe.spans))
    );
    print!(
        "{}",
        render(
            "  in-process replay, compute re-run in isolation",
            &breakdown(&iso.spans)
        )
    );
    let spans_path = Path::new(OUT_DIR).join(format!("spans-{tag}.jsonl"));
    let mut jsonl = to_jsonl("client", &client.spans);
    jsonl.push_str(&to_jsonl("replay", &pipe.spans));
    jsonl.push_str(&to_jsonl("replay-isolated", &iso.spans));
    std::fs::write(&spans_path, jsonl).map_err(|e| format!("{}: {e}", spans_path.display()))?;
    println!(
        "  spans: {} ({} replayed requests)",
        spans_path.display(),
        on.requests
    );

    let num = |name: &str| prom_value(metrics, name).unwrap_or(0.0);
    let hits = num("hc_serve_result_cache_hits_total");
    let lookups = hits + num("hc_serve_result_cache_misses_total");
    let shed = num("hc_serve_pool_shed_total")
        + num("hc_serve_overload_shed_bulk_total")
        + num("hc_serve_overload_shed_interactive_total");
    let mut out = Vec::new();
    let n = |p: hc_perfbench::stats::Percentile| format!("n={}", p.n);
    out.push(metric("serve.queue_ms_p50", p50(0).value, "ms", n(p50(0))));
    out.push(metric(
        "serve.queue_ms_p99",
        q99.value,
        "ms",
        format!("n={}, {} beyond", q99.n, q99.beyond),
    ));
    out.push(metric("serve.parse_ms_p50", p50(1).value, "ms", n(p50(1))));
    out.push(metric(
        "serve.compute_ms_p50",
        p50(2).value,
        "ms",
        n(p50(2)),
    ));
    out.push(metric(
        "serve.serialize_ms_p50",
        p50(3).value,
        "ms",
        n(p50(3)),
    ));
    out.push(metric(
        "serve.outside_ms_p50",
        p50(4).value,
        "ms",
        n(p50(4)),
    ));
    out.push(metric(
        "overload.shed_total",
        shed,
        "count",
        "from /metrics at end",
    ));
    out.push(metric(
        "threadpool.workers_live",
        num("hc_serve_pool_workers"),
        "count",
        "from /metrics at end",
    ));
    for (name, span) in [
        ("http.parse_us", "http.parse"),
        ("csv.parse_us", "csv.parse"),
        ("cache.lookup_us", "cache.lookup"),
        ("sinkhorn.standardize_us", "sinkhorn.standardize"),
        ("svd.tma_us", "svd.tma"),
        ("svd.bidiag_us", "svd.bidiag"),
        ("core.characterize_us", "core.characterize"),
        ("core.to_json_us", "core.to_json"),
        ("session.patch_us", "session.patch"),
        ("session.recompute_us", "session.recompute"),
    ] {
        let (v, note) = p50_note(&span_durations_us(&tracers, span));
        out.push(metric(name, v, "us", note));
    }
    out.push(metric(
        "cache.hit_ratio",
        if lookups > 0.0 { hits / lookups } else { 0.0 },
        "ratio",
        format!("{hits} hits of {lookups} lookups, server /metrics"),
    ));
    out.push(metric("cache.hits", hits, "count", "server /metrics"));
    out.push(metric("cache.lookups", lookups, "count", "server /metrics"));
    for (name, unit) in [
        ("sinkhorn.iterations", "count"),
        ("core.json_bytes", "bytes"),
        ("session.iterations", "count"),
    ] {
        let (v, note) = p50_note(on.counts.get(name).map_or(&[][..], Vec::as_slice));
        out.push(metric(name, v, unit, note));
    }
    out.extend(tails);
    out.push(metric(
        "trace.overhead_frac",
        overhead,
        "ratio",
        format!(
            "replay {:.4} s traced vs {off:.4} s untraced, best of {REPLAY_PAIRS}",
            on.wall_s
        ),
    ));
    println!("per-layer (trace on):");
    show(&out);
    Ok(out)
}

fn result_json(
    metrics: &[Metric],
    attempted: usize,
    failed: usize,
    correct: bool,
) -> Result<String, String> {
    let mut out = format!("{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{");
    for (k, m) in metrics.iter().enumerate() {
        if !m.value.is_finite() {
            return Err(format!("{} is not finite", m.name));
        }
        let sep = if k == 0 { "" } else { ", " };
        write!(
            out,
            "{sep}\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            m.name, m.value, m.unit
        )
        .expect("writing to a String cannot fail");
    }
    out.push_str("}}");
    Ok(out)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("hc-perfbench: {e}\nusage: hc-perfbench --workload <paper-small|session-edits> --seed <n> --seconds <s> --trace <0|1>");
            return ExitCode::from(2);
        }
    };
    let result = run(&args).and_then(|(m, attempted, failed, correct)| {
        result_json(&m, attempted, failed, correct).map_err(Failure::from)
    });
    match result {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(Failure(code, msg)) => {
            eprintln!("hc-perfbench: {msg}");
            ExitCode::from(code)
        }
    }
}
