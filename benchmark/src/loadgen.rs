//! Closed- and open-loop load generation over keep-alive connections.
//!
//! One thread per connection, and no more connections than cores: the
//! caller runs connection 0 on its own thread.

use std::collections::VecDeque;
use std::time::{Duration, Instant};

use hc_gen::rng::Rng;

use crate::check::{read_answer, Answer};
use crate::client::{tight_timer_slack, Conn, Filled, Resp};
use crate::workload::{request_id, rng_for, Desc, Inputs, Stream};

/// Requests the server answers on one connection before it closes it
/// (`hcm serve --max-requests-per-conn` default). The generator reconnects
/// itself at this count instead of pipelining past the close.
pub const MAX_PER_CONN: usize = 1024;

/// How long a connection waits for an answer before giving up on it.
const RESPONSE_TIMEOUT: Duration = Duration::from_secs(30);

/// One request and what came back.
#[derive(Debug, Clone)]
pub struct Record {
    pub stream: Stream,
    /// The measurement cycle the request was sent in.
    pub cycle: u32,
    pub index: u64,
    pub desc: Desc,
    /// When the request was due, was written, and was answered, in
    /// nanoseconds since the phase began. `done_ns` is 0 without an answer.
    pub due_ns: u64,
    pub sent_ns: u64,
    pub done_ns: u64,
    /// HTTP status; 0 when the connection failed first.
    pub status: u16,
    pub answer: Option<Answer>,
    pub timing: Option<[f64; 4]>,
    /// Why the request failed, when it did.
    pub error: Option<String>,
}

impl Record {
    fn new(at: &At, index: u64, desc: Desc, due_ns: u64, sent_ns: u64) -> Self {
        Record {
            stream: at.stream,
            cycle: at.cycle,
            index,
            desc,
            due_ns,
            sent_ns,
            done_ns: 0,
            status: 0,
            answer: None,
            timing: None,
            error: None,
        }
    }

    fn fail(&mut self, why: &str) {
        self.error.get_or_insert_with(|| why.to_string());
    }

    fn complete(&mut self, resp: Resp, done_ns: u64, expected_id: &str) {
        self.done_ns = done_ns;
        self.status = resp.status;
        self.timing = resp.timing;
        if resp.request_id.as_deref() != Some(expected_id) {
            self.fail("X-Request-Id was not echoed");
        }
        if (200..300).contains(&resp.status) {
            match std::str::from_utf8(&resp.body).ok().and_then(read_answer) {
                Some(a) => self.answer = Some(a),
                None => self.fail("2xx body carries no measures"),
            }
        } else {
            self.fail(&format!("HTTP {}", resp.status));
        }
    }

    /// Answered with 2xx and no failure recorded so far.
    pub fn ok(&self) -> bool {
        self.error.is_none() && (200..300).contains(&self.status)
    }
}

/// Everything needed to address requests of one phase.
pub struct Target<'a> {
    pub addr: &'a str,
    pub inputs: &'a Inputs,
    /// Server-assigned session ids, by session index.
    pub ids: &'a [String],
    pub conns: usize,
}

/// Where in a run a phase sits: its stream, its cycle, and the index its
/// first request takes (indices run on across cycles).
#[derive(Debug, Clone, Copy)]
pub struct At {
    pub stream: Stream,
    pub cycle: u32,
    pub first: u64,
}

impl Target<'_> {
    fn bytes(&self, stream: Stream, conn: usize, i: u64) -> (Desc, String, Vec<u8>) {
        let desc = self.inputs.draw(stream, conn, self.conns, i);
        let rid = request_id(stream, conn, i);
        let bytes = self.inputs.request_bytes(&desc, &rid, self.ids);
        (desc, rid, bytes)
    }
}

fn on_all_conns<T: Send>(conns: usize, f: impl Fn(usize) -> T + Sync) -> Vec<T> {
    std::thread::scope(|s| {
        let f = &f;
        let handles: Vec<_> = (1..conns)
            .map(|c| {
                s.spawn(move || {
                    tight_timer_slack();
                    f(c)
                })
            })
            .collect();
        tight_timer_slack();
        let mut out = vec![f(0)];
        out.extend(
            handles
                .into_iter()
                .map(|h| h.join().expect("load generator thread panicked")),
        );
        out
    })
}

/// Requests each closed-loop connection keeps outstanding: one, so each
/// connection is a caller that waits for its reply.
pub const CLOSED_DEPTH: usize = 1;

/// Closed loop: each connection keeps [`CLOSED_DEPTH`] requests outstanding
/// until `dur` has passed, sending the next as each answer arrives. Returns
/// each connection's records in send order.
pub fn closed_loop(t: &Target<'_>, at: At, dur: Duration) -> Vec<Vec<Record>> {
    let epoch = Instant::now();
    on_all_conns(t.conns, |c| {
        let mut recs: Vec<Record> = Vec::new();
        let mut rids: VecDeque<(usize, String)> = VecDeque::new();
        let mut conn: Option<Conn> = None;
        let mut i = at.first;
        loop {
            while rids.len() < CLOSED_DEPTH && epoch.elapsed() < dur {
                if conn.as_ref().is_some_and(|k| k.sent >= MAX_PER_CONN) {
                    if !rids.is_empty() {
                        break; // drain before reconnecting
                    }
                    conn = None;
                }
                let (desc, rid, bytes) = t.bytes(at.stream, c, i);
                let now = epoch.elapsed().as_nanos() as u64;
                let mut rec = Record::new(&at, i, desc, now, now);
                i += 1;
                match conn.take().map_or_else(|| Conn::connect(t.addr), Ok) {
                    Ok(k) => match conn.insert(k).send(&bytes) {
                        Ok(()) => rids.push_back((recs.len(), rid)),
                        Err(e) => {
                            rec.fail(&format!("send: {e}"));
                            fail_all(&mut recs, &mut rids, "connection lost");
                            conn = None;
                        }
                    },
                    Err(e) => rec.fail(&format!("connect: {e}")),
                }
                recs.push(rec);
            }
            let Some(k) = conn.as_mut().filter(|_| !rids.is_empty()) else {
                if epoch.elapsed() >= dur {
                    return recs;
                }
                continue;
            };
            match k.recv(RESPONSE_TIMEOUT) {
                Ok(resp) => {
                    let (idx, rid) = rids.pop_front().expect("rids is not empty");
                    let close = resp.close;
                    recs[idx].complete(resp, epoch.elapsed().as_nanos() as u64, &rid);
                    if close {
                        fail_all(&mut recs, &mut rids, "connection closed by server");
                        conn = None;
                    }
                }
                Err(e) => {
                    fail_all(&mut recs, &mut rids, &e);
                    conn = None;
                }
            }
        }
    })
}

/// Marks every outstanding request of a lost connection failed.
fn fail_all(recs: &mut [Record], rids: &mut VecDeque<(usize, String)>, why: &str) {
    for (k, _) in rids.drain(..) {
        recs[k].fail(why);
    }
}

/// Poisson arrival offsets (ns) for one connection in one cycle: `rate` per
/// second over `dur`.
fn arrivals(seed: u64, conn: usize, cycle: u32, rate: f64, dur: Duration) -> Vec<u64> {
    let mut rng = rng_for(seed, &[0xA7, conn as u64, u64::from(cycle)]);
    let end = dur.as_secs_f64();
    let mut t = 0.0;
    let mut out = Vec::new();
    loop {
        // 1 − u lies in (0, 1], so the logarithm is finite.
        t += -(1.0 - rng.next_f64()).ln() / rate;
        if t >= end {
            return out;
        }
        out.push((t * 1e9) as u64);
    }
}

/// Open loop: requests leave on a Poisson schedule at `rate` in total,
/// pipelined on each connection whatever the server's progress. Returns
/// each connection's records in send order.
pub fn open_loop(t: &Target<'_>, at: At, seed: u64, rate: f64, dur: Duration) -> Vec<Vec<Record>> {
    let epoch = Instant::now();
    on_all_conns(t.conns, |c| {
        let due = arrivals(seed, c, at.cycle, rate / t.conns as f64, dur);
        let mut recs: Vec<Record> = Vec::with_capacity(due.len());
        let mut rids: VecDeque<(usize, String)> = VecDeque::new();
        let mut conn: Option<Conn> = None;
        let give_up = dur + RESPONSE_TIMEOUT;
        let mut next = 0usize;
        // The next request, rendered while waiting for its due time.
        let mut ready: Option<(Desc, String, Vec<u8>)> = None;
        loop {
            let now = epoch.elapsed().as_nanos() as u64;
            while next < due.len() && due[next] <= now {
                if conn.as_ref().is_some_and(|k| k.sent >= MAX_PER_CONN) {
                    if !rids.is_empty() {
                        break; // drain before reconnecting
                    }
                    conn = None;
                }
                let k = match conn.take().map_or_else(|| Conn::connect(t.addr), Ok) {
                    Ok(k) => conn.insert(k),
                    Err(e) => {
                        let i = at.first + next as u64;
                        let desc = ready
                            .take()
                            .map_or_else(|| t.bytes(at.stream, c, i).0, |r| r.0);
                        let mut rec = Record::new(&at, i, desc, due[next], now);
                        rec.fail(&format!("connect: {e}"));
                        recs.push(rec);
                        next += 1;
                        continue;
                    }
                };
                let i = at.first + next as u64;
                let (desc, rid, bytes) = ready.take().unwrap_or_else(|| t.bytes(at.stream, c, i));
                let sent = epoch.elapsed().as_nanos() as u64;
                let mut rec = Record::new(&at, i, desc, due[next], sent);
                if let Err(e) = k.send(&bytes) {
                    rec.fail(&format!("send: {e}"));
                    fail_all(&mut recs, &mut rids, "connection lost");
                    conn = None;
                } else {
                    rids.push_back((recs.len(), rid));
                }
                recs.push(rec);
                next += 1;
            }
            if next == due.len() && rids.is_empty() {
                break;
            }
            if next < due.len() && ready.is_none() {
                ready = Some(t.bytes(at.stream, c, at.first + next as u64));
            }
            let now = epoch.elapsed();
            if now > give_up {
                fail_all(&mut recs, &mut rids, "no response");
                break;
            }
            let blocked = conn.as_ref().is_some_and(|k| k.sent >= MAX_PER_CONN);
            let wait = if next < due.len() && !blocked {
                Duration::from_nanos(due[next]).saturating_sub(now)
            } else {
                Duration::from_millis(50)
            };
            if wait.is_zero() {
                continue;
            }
            let Some(k) = conn.as_mut().filter(|_| !rids.is_empty()) else {
                // Nothing to read: sleep until the next request is due.
                std::thread::sleep(wait);
                continue;
            };
            match k.fill(wait) {
                Ok(Filled::TimedOut) => {}
                Ok(Filled::Bytes) => {
                    let done = epoch.elapsed().as_nanos() as u64;
                    loop {
                        match k.take() {
                            Ok(Some(resp)) => {
                                let Some((idx, rid)) = rids.pop_front() else {
                                    // An answer to nothing sent: the stream
                                    // cannot be trusted past it.
                                    conn = None;
                                    break;
                                };
                                let close = resp.close;
                                recs[idx].complete(resp, done, &rid);
                                if close {
                                    fail_all(&mut recs, &mut rids, "connection closed by server");
                                    conn = None;
                                    break;
                                }
                            }
                            Ok(None) => break,
                            Err(e) => {
                                fail_all(&mut recs, &mut rids, &e);
                                conn = None;
                                break;
                            }
                        }
                    }
                }
                Err(e) => {
                    fail_all(&mut recs, &mut rids, &format!("read: {e}"));
                    conn = None;
                }
            }
        }
        recs
    })
}
