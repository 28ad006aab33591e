//! A keep-alive HTTP/1.1 client connection that reads pipelined responses.

use std::ffi::c_void;
use std::io::{ErrorKind, Read, Write};
use std::net::TcpStream;
use std::os::fd::{AsRawFd, RawFd};
use std::time::{Duration, Instant};

/// One framed response.
#[derive(Debug, Clone, PartialEq)]
pub struct Resp {
    pub status: u16,
    /// The server will close the connection after this response.
    pub close: bool,
    pub request_id: Option<String>,
    /// `Server-Timing` phases in milliseconds: queue, parse, compute,
    /// serialize.
    pub timing: Option<[f64; 4]>,
    pub body: Vec<u8>,
}

/// Parses a `Server-Timing` value into the four phases, in wire order.
pub fn parse_server_timing(v: &str) -> Option<[f64; 4]> {
    let mut out = [0.0; 4];
    let names = ["queue", "parse", "compute", "serialize"];
    for (k, part) in v.split(',').enumerate() {
        let (name, dur) = part.trim().split_once(";dur=")?;
        if k >= 4 || name != names[k] {
            return None;
        }
        out[k] = dur.parse().ok()?;
    }
    Some(out)
}

/// Takes one complete response off the front of `buf`, if one is there.
pub fn take_response(buf: &mut Vec<u8>) -> Result<Option<Resp>, String> {
    let Some(head_end) = buf.windows(4).position(|w| w == b"\r\n\r\n") else {
        return Ok(None);
    };
    let head = std::str::from_utf8(&buf[..head_end]).map_err(|e| e.to_string())?;
    let mut lines = head.split("\r\n");
    let status: u16 = lines
        .next()
        .and_then(|l| l.split_whitespace().nth(1))
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| format!("bad status line in {head:?}"))?;
    let (mut len, mut close, mut request_id, mut timing) = (0usize, false, None, None);
    for line in lines {
        let Some((name, value)) = line.split_once(':') else {
            continue;
        };
        let value = value.trim();
        match name.to_ascii_lowercase().as_str() {
            "content-length" => len = value.parse().map_err(|_| "bad Content-Length")?,
            "connection" => close = value.eq_ignore_ascii_case("close"),
            "x-request-id" => request_id = Some(value.to_string()),
            "server-timing" => timing = parse_server_timing(value),
            _ => {}
        }
    }
    let total = head_end + 4 + len;
    if buf.len() < total {
        return Ok(None);
    }
    let body = buf[head_end + 4..total].to_vec();
    buf.drain(..total);
    Ok(Some(Resp {
        status,
        close,
        request_id,
        timing,
        body,
    }))
}

/// Waits until `fd` is readable (or, with `want_write`, writable) or
/// `timeout` passes; returns (readable, writable). `ppoll` sleeps on a
/// high-resolution timer, where socket read timeouts round up to scheduler
/// ticks and would make an open-loop generator send late.
fn wait_ready(fd: RawFd, want_write: bool, timeout: Duration) -> std::io::Result<(bool, bool)> {
    #[repr(C)]
    struct PollFd {
        fd: i32,
        events: i16,
        revents: i16,
    }
    #[repr(C)]
    struct Timespec {
        tv_sec: i64,
        tv_nsec: i64,
    }
    extern "C" {
        fn ppoll(fds: *mut PollFd, nfds: u64, tmo: *const Timespec, sigmask: *const c_void) -> i32;
    }
    const POLLIN: i16 = 0x1;
    const POLLOUT: i16 = 0x4;
    let mut pfd = PollFd {
        fd,
        events: POLLIN | if want_write { POLLOUT } else { 0 },
        revents: 0,
    };
    let tmo = Timespec {
        tv_sec: timeout.as_secs() as i64,
        tv_nsec: i64::from(timeout.subsec_nanos()),
    };
    // SAFETY: `pfd` and `tmo` are live, initialised values for the whole
    // call, `nfds` is 1 to match the single descriptor, and a null signal
    // mask is allowed (the mask is left unchanged).
    let n = unsafe { ppoll(&mut pfd, 1, &tmo, std::ptr::null()) };
    if n < 0 {
        let e = std::io::Error::last_os_error();
        return if e.kind() == ErrorKind::Interrupted {
            Ok((false, false))
        } else {
            Err(e)
        };
    }
    // Hang-ups and errors read as readable: the read then reports them.
    let readable = pfd.revents & !POLLOUT != 0;
    Ok((readable, pfd.revents & POLLOUT != 0))
}

/// Sets the calling thread's timer slack to 1 ns. By default Linux may wake
/// a sleeping thread up to 50 µs past its timeout, and an open-loop
/// generator that wakes late sends late.
pub fn tight_timer_slack() {
    extern "C" {
        fn prctl(option: i32, ...) -> i32;
    }
    const PR_SET_TIMERSLACK: i32 = 29;
    // SAFETY: PR_SET_TIMERSLACK reads one integer argument and touches no
    // memory of the caller's. A failure leaves the default slack in place.
    unsafe { prctl(PR_SET_TIMERSLACK, 1u64) };
}

/// A non-blocking client connection with its unparsed read buffer and its
/// unsent write buffer. Sends never block: bytes the server is not yet
/// reading wait here, and that wait counts in their request's latency.
pub struct Conn {
    stream: TcpStream,
    rbuf: Vec<u8>,
    wbuf: Vec<u8>,
    wpos: usize,
    /// The server closed its side; later reads report end of stream.
    eof: bool,
    /// Requests sent on this connection.
    pub sent: usize,
}

/// What a bounded wait produced.
pub enum Filled {
    /// New response bytes arrived.
    Bytes,
    /// The wait ended with no new response bytes.
    TimedOut,
}

impl Conn {
    pub fn connect(addr: &str) -> std::io::Result<Conn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_nonblocking(true)?;
        Ok(Conn {
            stream,
            rbuf: Vec::with_capacity(64 * 1024),
            wbuf: Vec::new(),
            wpos: 0,
            eof: false,
            sent: 0,
        })
    }

    /// Queues a request and writes as much of the queue as the socket takes.
    pub fn send(&mut self, bytes: &[u8]) -> std::io::Result<()> {
        self.sent += 1;
        if self.wpos == self.wbuf.len() {
            self.wbuf.clear();
            self.wpos = 0;
        }
        self.wbuf.extend_from_slice(bytes);
        self.flush()
    }

    fn flush(&mut self) -> std::io::Result<()> {
        while self.wpos < self.wbuf.len() {
            match self.stream.write(&self.wbuf[self.wpos..]) {
                Ok(0) => return Err(ErrorKind::WriteZero.into()),
                Ok(n) => self.wpos += n,
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) => return Err(e),
            }
        }
        Ok(())
    }

    /// Waits up to `timeout` for response bytes, writing queued request
    /// bytes as the socket allows; end of stream is an error.
    pub fn fill(&mut self, timeout: Duration) -> std::io::Result<Filled> {
        if self.eof {
            return Err(ErrorKind::UnexpectedEof.into());
        }
        let pending = self.wpos < self.wbuf.len();
        let (readable, writable) = wait_ready(self.stream.as_raw_fd(), pending, timeout)?;
        if writable {
            self.flush()?;
        }
        let mut got = false;
        if readable {
            let mut chunk = [0u8; 64 * 1024];
            loop {
                match self.stream.read(&mut chunk) {
                    Ok(0) if got => {
                        self.eof = true;
                        break;
                    }
                    Ok(0) => return Err(ErrorKind::UnexpectedEof.into()),
                    Ok(n) => {
                        self.rbuf.extend_from_slice(&chunk[..n]);
                        got = true;
                    }
                    Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                    Err(e) => return Err(e),
                }
            }
        }
        Ok(if got { Filled::Bytes } else { Filled::TimedOut })
    }

    /// The next buffered response, if a complete one has arrived.
    pub fn take(&mut self) -> Result<Option<Resp>, String> {
        take_response(&mut self.rbuf)
    }

    /// Waits (up to `timeout`) for the next response.
    pub fn recv(&mut self, timeout: Duration) -> Result<Resp, String> {
        let deadline = Instant::now() + timeout;
        loop {
            if let Some(r) = self.take()? {
                return Ok(r);
            }
            let left = deadline.saturating_duration_since(Instant::now());
            if left.is_zero() {
                return Err("timed out waiting for a response".into());
            }
            self.fill(left).map_err(|e| e.to_string())?;
        }
    }
}

/// One request on a fresh connection, for control endpoints.
pub fn one_shot(addr: &str, method: &str, path: &str) -> Result<Resp, String> {
    let mut c = Conn::connect(addr).map_err(|e| e.to_string())?;
    c.send(
        format!("{method} {path} HTTP/1.1\r\nHost: 127.0.0.1\r\nConnection: close\r\n\r\n")
            .as_bytes(),
    )
    .map_err(|e| e.to_string())?;
    c.recv(Duration::from_secs(30))
}
