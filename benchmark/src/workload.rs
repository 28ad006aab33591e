//! The workloads and their seeded request streams.
//!
//! Every request is a pure function of `(seed, stream, connection, index)`,
//! so a run can regenerate any request it sent when it checks the answer,
//! and the same seed always yields byte-identical traffic.

use std::fmt::Write as _;

use hc_core::ecs::Etc;
use hc_gen::cvb::{cvb, CvbParams};
use hc_gen::rng::{Rng, SplitMix64, Xoshiro256pp};
use hc_linalg::Matrix;
use hc_spec::dataset::{cfp2006, cint2006, SpecTargets, CFP_TARGETS, CINT_TARGETS};

use crate::host::SpeedSlopes;

/// What a workload sends.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// `POST /measure` on paper-scale matrices, 30% from a hot set.
    PaperSmall,
    /// `PATCH /session/{id}/etc` (80%) and `GET /session/{id}` (20%).
    SessionEdits,
}

/// A named workload with its fixed open-loop offered rate.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    pub name: &'static str,
    pub kind: Kind,
    /// Open-loop Poisson arrival rate in requests per second: about a third
    /// of the closed-loop saturation throughput measured on the 2-core
    /// reference machine.
    pub offered_rps: f64,
    /// Measurement cycles in a run (at most one per second of the run).
    pub cycles: u64,
    /// Share of each cycle spent in the closed loop; the open loop gets the
    /// rest.
    pub closed_share: f64,
    /// How its end-to-end figures follow the host's speed.
    pub speed_slopes: SpeedSlopes,
}

pub const WORKLOADS: [Workload; 2] = [
    Workload {
        name: "paper-small",
        kind: Kind::PaperSmall,
        offered_rps: 2000.0,
        // Closed-loop throughput swings from second to second here, so it
        // gets half the run in many short windows; 2000 rps leaves the open
        // loop samples to spare.
        cycles: 25,
        closed_share: 0.5,
        speed_slopes: SpeedSlopes {
            throughput: 2.0,
            latency: -3.0,
            cpu: -2.0,
        },
    },
    Workload {
        name: "session-edits",
        kind: Kind::SessionEdits,
        offered_rps: 60.0,
        // At 60 rps the open loop needs most of the run for its samples.
        cycles: 10,
        closed_share: 0.2,
        speed_slopes: SpeedSlopes {
            throughput: 0.0,
            latency: -1.5,
            cpu: -1.0,
        },
    },
];

/// Looks a workload up by name.
pub fn workload(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// Which part of a run a request belongs to; each draws its own stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stream {
    Warm = 1,
    Closed = 2,
    Open = 3,
}

impl Stream {
    pub fn tag(self) -> char {
        match self {
            Stream::Warm => 'w',
            Stream::Closed => 'c',
            Stream::Open => 'o',
        }
    }
}

/// Share of `paper-small` requests drawn from the hot set.
pub const HOT_SHARE: f64 = 0.3;
/// Hot-set size: fits the server's default 256-entry result cache.
pub const HOT_BODIES: usize = 64;
/// Base matrices the unique `paper-small` bodies are perturbed from.
const UNIQUE_POOL: usize = 256;
/// Sessions the `session-edits` warm-up creates.
pub const SESSIONS: usize = 16;
/// Share of `session-edits` requests that are edits.
const PATCH_SHARE: f64 = 0.8;

/// Which SPEC set a base matrix is, when it is one.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Spec {
    Cint,
    Cfp,
}

impl Spec {
    /// The paper's two-decimal figures for this set.
    pub fn targets(self) -> SpecTargets {
        match self {
            Spec::Cint => CINT_TARGETS,
            Spec::Cfp => CFP_TARGETS,
        }
    }
}

/// A base ETC matrix with its CSV rendering cached row by row, so a body
/// with one perturbed cell re-renders a single row.
#[derive(Debug, Clone)]
pub struct Base {
    pub etc: Matrix,
    pub spec: Option<Spec>,
    header: String,
    rows: Vec<String>,
    task_names: Vec<String>,
}

impl Base {
    fn new(etc: &Etc, spec: Option<Spec>) -> Self {
        let mut header = String::from("task");
        for m in etc.machine_names() {
            header.push(',');
            header.push_str(m);
        }
        header.push('\n');
        let m = etc.matrix().clone();
        let task_names = etc.task_names().to_vec();
        let rows = (0..m.rows())
            .map(|i| render_row(&task_names[i], m.row(i), None))
            .collect();
        Base {
            etc: m,
            spec,
            header,
            rows,
            task_names,
        }
    }

    /// The CSV body, with `edit` applied when given.
    pub fn body(&self, edit: Option<Edit>) -> String {
        let len = self.header.len() + self.rows.iter().map(String::len).sum::<usize>() + 32;
        let mut out = String::with_capacity(len);
        out.push_str(&self.header);
        for (i, row) in self.rows.iter().enumerate() {
            match edit {
                Some(e) if e.task as usize == i => out.push_str(&render_row(
                    &self.task_names[i],
                    self.etc.row(i),
                    Some((e.machine as usize, e.value)),
                )),
                _ => out.push_str(row),
            }
        }
        out
    }
}

fn render_row(name: &str, values: &[f64], cell: Option<(usize, f64)>) -> String {
    let mut out = String::with_capacity(name.len() + values.len() * 20);
    out.push_str(name);
    for (j, &v) in values.iter().enumerate() {
        let v = match cell {
            Some((c, nv)) if c == j => nv,
            _ => v,
        };
        write!(out, ",{v}").expect("writing to a String cannot fail");
    }
    out.push('\n');
    out
}

/// One ETC cell replaced by a new value (0-based indices).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Edit {
    pub task: u32,
    pub machine: u32,
    pub value: f64,
}

/// What one request asks for; enough to rebuild its bytes and its answer.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Desc {
    /// `POST /measure` of base `base`, optionally with one cell perturbed.
    Measure { base: u32, edit: Option<Edit> },
    /// `PATCH /session/{id}/etc` with one `cell` edit.
    Patch { session: u32, edit: Edit },
    /// `GET /session/{id}`.
    Get { session: u32 },
}

/// A workload's seeded inputs: the base matrices every request derives from.
pub struct Inputs {
    pub kind: Kind,
    pub seed: u64,
    pub bases: Vec<Base>,
}

/// Mixes two words into a seed.
fn mix(a: u64, b: u64) -> u64 {
    SplitMix64::seed_from_u64(a ^ b.wrapping_mul(0x9E37_79B9_7F4A_7C15)).next_u64()
}

/// A generator whose stream is a pure function of `seed` and `parts`.
pub fn rng_for(seed: u64, parts: &[u64]) -> Xoshiro256pp {
    Xoshiro256pp::seed_from_u64(parts.iter().fold(mix(seed, 0x5EED), |h, &p| mix(h, p)))
}

fn cvb_base(t: usize, m: usize, rng: &mut Xoshiro256pp) -> Base {
    let v_task = 0.1 + 0.5 * rng.next_f64();
    let v_mach = 0.1 + 0.5 * rng.next_f64();
    let etc = cvb(&CvbParams::new(t, m, v_task, v_mach), rng.next_u64())
        .expect("CVB parameters are positive");
    Base::new(&etc, None)
}

impl Inputs {
    /// Generates the base matrices for `kind` from `seed`.
    pub fn new(kind: Kind, seed: u64) -> Self {
        let mut rng = rng_for(seed, &[0]);
        let bases = match kind {
            Kind::PaperSmall => {
                let mut b = vec![
                    Base::new(&cint2006().etc, Some(Spec::Cint)),
                    Base::new(&cfp2006().etc, Some(Spec::Cfp)),
                ];
                while b.len() < HOT_BODIES + UNIQUE_POOL {
                    let t = rng.gen_range(8..33usize);
                    let m = rng.gen_range(4..9usize);
                    b.push(cvb_base(t, m, &mut rng));
                }
                b
            }
            Kind::SessionEdits => (0..SESSIONS)
                .map(|s| {
                    let t = if s < SESSIONS / 2 { 64 } else { 128 };
                    cvb_base(t, 64, &mut rng)
                })
                .collect(),
        };
        Inputs { kind, seed, bases }
    }

    fn random_edit(&self, base: usize, rng: &mut Xoshiro256pp) -> Edit {
        let etc = &self.bases[base].etc;
        let task = rng.gen_range(0..etc.rows());
        let machine = rng.gen_range(0..etc.cols());
        Edit {
            task: task as u32,
            machine: machine as u32,
            value: etc[(task, machine)] * (0.5 + 1.5 * rng.next_f64()),
        }
    }

    /// Request `i` of connection `conn` (of `conns`) in `stream`.
    pub fn draw(&self, stream: Stream, conn: usize, conns: usize, i: u64) -> Desc {
        let mut rng = rng_for(self.seed, &[stream as u64, conn as u64, i]);
        match self.kind {
            Kind::PaperSmall => {
                if rng.next_f64() < HOT_SHARE {
                    Desc::Measure {
                        base: rng.gen_range(0..HOT_BODIES) as u32,
                        edit: None,
                    }
                } else {
                    let base = HOT_BODIES + rng.gen_range(0..UNIQUE_POOL);
                    Desc::Measure {
                        base: base as u32,
                        edit: Some(self.random_edit(base, &mut rng)),
                    }
                }
            }
            Kind::SessionEdits => {
                // Each session belongs to one connection, so its edits are
                // applied in the order they were sent.
                let owned: Vec<usize> = (0..SESSIONS).filter(|s| s % conns == conn).collect();
                let session = owned[rng.gen_range(0..owned.len())];
                if rng.next_f64() < PATCH_SHARE {
                    Desc::Patch {
                        session: session as u32,
                        edit: self.random_edit(session, &mut rng),
                    }
                } else {
                    Desc::Get {
                        session: session as u32,
                    }
                }
            }
        }
    }

    /// The exact bytes of a request. `ids` maps session indices to the ids
    /// the server assigned.
    pub fn request_bytes(&self, desc: &Desc, request_id: &str, ids: &[String]) -> Vec<u8> {
        match *desc {
            Desc::Measure { base, edit } => http_request(
                "POST",
                "/measure",
                request_id,
                Some(&self.bases[base as usize].body(edit)),
            ),
            Desc::Patch { session, edit } => http_request(
                "PATCH",
                &format!("/session/{}/etc", ids[session as usize]),
                request_id,
                Some(&format!(
                    "cell,{},{},{}\n",
                    edit.task + 1,
                    edit.machine + 1,
                    edit.value
                )),
            ),
            Desc::Get { session } => http_request(
                "GET",
                &format!("/session/{}", ids[session as usize]),
                request_id,
                None,
            ),
        }
    }

    /// `POST /session` registering session `s`'s base matrix.
    pub fn create_session_bytes(&self, s: usize, request_id: &str) -> Vec<u8> {
        http_request(
            "POST",
            "/session",
            request_id,
            Some(&self.bases[s].body(None)),
        )
    }
}

/// Renders one HTTP/1.1 keep-alive request.
pub fn http_request(method: &str, path: &str, request_id: &str, body: Option<&str>) -> Vec<u8> {
    let mut head =
        format!("{method} {path} HTTP/1.1\r\nHost: 127.0.0.1\r\nX-Request-Id: {request_id}\r\n");
    if let Some(b) = body {
        write!(
            head,
            "Content-Type: text/csv\r\nContent-Length: {}\r\n",
            b.len()
        )
        .expect("writing to a String cannot fail");
    }
    head.push_str("\r\n");
    let mut out = head.into_bytes();
    if let Some(b) = body {
        out.extend_from_slice(b.as_bytes());
    }
    out
}

/// The request id a stream/connection/index triple travels under.
pub fn request_id(stream: Stream, conn: usize, i: u64) -> String {
    format!("pb-{}{conn}-{i}", stream.tag())
}
