//! Load generators over the public wire protocol: one thread per
//! connection on a nonblocking socket, open loop (Poisson schedule, latency
//! from the *scheduled* send time) or closed loop (fixed window).

use std::collections::VecDeque;
use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::os::fd::AsRawFd;
use std::time::{Duration, Instant};

use hazy_front::proto::{decode_response, encode_request, peek_frame, write_frame};
use hazy_front::{Request, Response, TcpClient};

use crate::stats::Samples;

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

const POLLIN: i16 = 0x001;
const POLLOUT: i16 = 0x004;

extern "C" {
    /// Linux `ppoll(2)`: like `poll` but with a nanosecond timeout, which an
    /// 80 k/s schedule needs (std offers only millisecond socket timeouts).
    fn ppoll(fds: *mut PollFd, nfds: u64, timeout: *const Timespec, sigmask: *const u8) -> i32;
}

/// Sleeps until `fd` is readable (or writable, when `want_write`) or
/// `timeout` passes — so a response is timestamped when it arrives, not
/// when a sleeping generator next looks.
fn wait_ready(fd: i32, want_write: bool, timeout: Duration) {
    let mut p = PollFd {
        fd,
        events: POLLIN | if want_write { POLLOUT } else { 0 },
        revents: 0,
    };
    let ts = Timespec {
        tv_sec: timeout.as_secs() as i64,
        tv_nsec: i64::from(timeout.subsec_nanos()),
    };
    // SAFETY: `p` and `ts` are live, properly laid-out (`repr(C)`, matching
    // the x86-64/aarch64 Linux ABI of `struct pollfd` / `struct timespec`)
    // locals for the whole call; nfds = 1 matches the single entry; a null
    // sigmask is allowed and means "leave the signal mask alone". The
    // result is advisory (the caller re-checks the socket), so errors such
    // as EINTR need no handling.
    unsafe {
        ppoll(&mut p, 1, &ts, std::ptr::null());
    }
}

/// A nonblocking framed connection to a `TcpFront`.
pub struct Conn {
    stream: TcpStream,
    inbuf: Vec<u8>,
    consumed: usize,
    outbuf: Vec<u8>,
    scratch: Vec<u8>,
}

impl Conn {
    pub fn connect(addr: SocketAddr) -> std::io::Result<Conn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_nonblocking(true)?;
        Ok(Conn {
            stream,
            inbuf: Vec::with_capacity(1 << 16),
            consumed: 0,
            outbuf: Vec::with_capacity(1 << 16),
            scratch: Vec::new(),
        })
    }

    /// Frames `req` into the out buffer (sent by [`Conn::flush`]).
    pub fn queue(&mut self, req: &Request) {
        self.scratch.clear();
        encode_request(req, &mut self.scratch);
        write_frame(&mut self.outbuf, &self.scratch);
    }

    /// Writes what the socket takes now; the rest stays queued.
    pub fn flush(&mut self) -> std::io::Result<()> {
        let mut done = 0;
        while done < self.outbuf.len() {
            match self.stream.write(&self.outbuf[done..]) {
                Ok(0) => return Err(ErrorKind::WriteZero.into()),
                Ok(n) => done += n,
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
        self.outbuf.drain(..done);
        Ok(())
    }

    /// Reads what has arrived and hands every complete response to `f`.
    pub fn drain_responses(&mut self, mut f: impl FnMut(Response)) -> std::io::Result<()> {
        let mut chunk = [0u8; 1 << 14];
        loop {
            match self.stream.read(&mut chunk) {
                Ok(0) => return Err(ErrorKind::UnexpectedEof.into()),
                Ok(n) => self.inbuf.extend_from_slice(&chunk[..n]),
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
        loop {
            match peek_frame(&self.inbuf[self.consumed..]) {
                None => break,
                Some(Err(())) => return Err(ErrorKind::InvalidData.into()),
                Some(Ok(range)) => {
                    let end = self.consumed + range.end;
                    let mut payload = &self.inbuf[self.consumed + range.start..end];
                    match decode_response(&mut payload) {
                        Some(resp) if payload.is_empty() => f(resp),
                        _ => return Err(ErrorKind::InvalidData.into()),
                    }
                    self.consumed = end;
                }
            }
        }
        if self.consumed == self.inbuf.len() {
            self.inbuf.clear();
            self.consumed = 0;
        } else if self.consumed > (1 << 16) {
            self.inbuf.drain(..self.consumed);
            self.consumed = 0;
        }
        Ok(())
    }

    fn wait(&self, timeout: Duration) {
        wait_ready(self.stream.as_raw_fd(), !self.outbuf.is_empty(), timeout);
    }
}

/// What one phase sent and got back.
#[derive(Clone, Debug, Default)]
pub struct PhaseCounts {
    pub sent: u64,
    pub ok: u64,
    pub shed: u64,
    pub error: u64,
    /// Answered, but not what the oracle says.
    pub wrong: u64,
    /// Connection-level failure: requests in flight when it broke.
    pub io_failed: u64,
}

impl PhaseCounts {
    pub fn failed(&self) -> u64 {
        self.shed + self.error + self.wrong + self.io_failed
    }

    /// Books one answer; true when it is one `ok` accepts.
    pub fn book(&mut self, resp: &Response, ok: impl FnOnce(&Response) -> bool) -> bool {
        match resp {
            Response::Rejected { .. } => self.shed += 1,
            Response::Error(_) => self.error += 1,
            r if ok(r) => {
                self.ok += 1;
                return true;
            }
            _ => self.wrong += 1,
        }
        false
    }

    pub fn add(&mut self, o: &PhaseCounts) {
        self.sent += o.sent;
        self.ok += o.ok;
        self.shed += o.shed;
        self.error += o.error;
        self.wrong += o.wrong;
        self.io_failed += o.io_failed;
    }
}

/// Outcome of an open-loop phase.
#[derive(Debug, Default)]
pub struct OpenLoopOut {
    pub counts: PhaseCounts,
    /// Latency from scheduled send to response, per request kind
    /// (index = the caller's kind tag).
    pub latency: Vec<Samples>,
    /// How late each request left relative to its schedule.
    pub lateness: Samples,
    /// Requests in flight when half the schedule had been sent / at its end.
    pub backlog_mid: usize,
    pub backlog_end: usize,
    pub wall_s: f64,
}

/// One scheduled request: when it is due (ns from phase start), what to
/// send, which latency series it belongs to.
pub struct Scheduled {
    pub due_ns: u64,
    pub req: Request,
    pub kind: usize,
}

/// Most requests the open-loop generator keeps outstanding on its
/// connection. Below the front's admission bound (1 024), so that a stalled
/// generator catching up on its schedule — a 19 ms stall at 80 k/s is 1 500
/// overdue requests — cannot by itself overflow the queue and turn its own
/// hiccup into shed requests. Held requests leave late, and the wait is in
/// their latency (timed from the schedule) and in `lateness`.
const MAX_INFLIGHT: usize = 768;

/// Drives `schedule` open loop: each request leaves when due (never
/// earlier, and late only if the generator itself is behind or
/// [`MAX_INFLIGHT`] are outstanding — recorded in `lateness`), regardless
/// of earlier responses. `check` judges each
/// response against its request index. `grace` bounds the wait for
/// stragglers after the last send.
pub fn open_loop(
    conn: &mut Conn,
    schedule: &[Scheduled],
    kinds: usize,
    mut check: impl FnMut(usize, &Response) -> bool,
    grace: Duration,
) -> OpenLoopOut {
    let mut out = OpenLoopOut {
        latency: vec![Samples::default(); kinds],
        ..Default::default()
    };
    let mut inflight: VecDeque<usize> = VecDeque::new();
    let mut next = 0usize;
    let start = Instant::now();
    let mut deadline = None;
    let mut aborted = false;
    let mut got: Vec<Response> = Vec::new();
    while next < schedule.len() || !inflight.is_empty() {
        let now = start.elapsed().as_nanos() as u64;
        while next < schedule.len() && schedule[next].due_ns <= now && inflight.len() < MAX_INFLIGHT
        {
            out.lateness.push(now - schedule[next].due_ns);
            conn.queue(&schedule[next].req);
            inflight.push_back(next);
            next += 1;
            out.counts.sent += 1;
            if next == schedule.len() / 2 {
                out.backlog_mid = inflight.len();
            }
            if next == schedule.len() {
                out.backlog_end = inflight.len();
                deadline = Some(Instant::now() + grace);
            }
        }
        let io = conn
            .flush()
            .and_then(|()| conn.drain_responses(|r| got.push(r)));
        let t_recv = start.elapsed().as_nanos() as u64;
        for resp in got.drain(..) {
            let Some(i) = inflight.pop_front() else { break };
            if out.counts.book(&resp, |r| check(i, r)) {
                out.latency[schedule[i].kind].push(t_recv.saturating_sub(schedule[i].due_ns));
            }
        }
        if io.is_err() || deadline.is_some_and(|d| Instant::now() > d) {
            aborted = true;
            break;
        }
        // sleep until the next send is due or a response arrives
        let now = start.elapsed().as_nanos() as u64;
        let until_due = match schedule.get(next) {
            Some(s) if inflight.len() < MAX_INFLIGHT => s.due_ns.saturating_sub(now),
            _ => 1_000_000,
        };
        if until_due > 0 {
            conn.wait(Duration::from_nanos(until_due));
        }
    }
    if aborted {
        out.counts.io_failed += inflight.len() as u64 + (schedule.len() - next) as u64;
    }
    out.wall_s = start.elapsed().as_secs_f64();
    out
}

/// One depth-1 round trip on the product's own blocking client, booked in
/// `counts`; the latency in ns when the answer is one `ok` accepts.
pub fn call_depth1(
    client: &mut TcpClient,
    req: &Request,
    counts: &mut PhaseCounts,
    ok: impl FnOnce(&Response) -> bool,
) -> Option<u64> {
    let t0 = Instant::now();
    let resp = client.call(req);
    let ns = t0.elapsed().as_nanos() as u64;
    counts.sent += 1;
    match resp {
        Ok(resp) => counts.book(&resp, ok).then_some(ns),
        Err(_) => {
            counts.io_failed += 1;
            None
        }
    }
}

/// Outcome of a closed-loop phase.
#[derive(Debug, Default)]
pub struct ClosedLoopOut {
    pub counts: PhaseCounts,
    pub wall_s: f64,
}

/// Closed loop with a fixed window: keeps `window` requests in flight until
/// `total` have been answered. `make(i)` builds request `i`; `check` judges
/// its response. Stops early (counting the rest as failed) past `limit`.
pub fn pipelined(
    conn: &mut Conn,
    total: usize,
    window: usize,
    mut make: impl FnMut(usize) -> Request,
    mut check: impl FnMut(usize, &Response) -> bool,
    limit: Duration,
) -> ClosedLoopOut {
    let mut out = ClosedLoopOut::default();
    let start = Instant::now();
    let (mut sent, mut done) = (0usize, 0usize);
    let mut aborted = false;
    let mut got: Vec<Response> = Vec::new();
    while done < total {
        while sent < total && sent - done < window {
            conn.queue(&make(sent));
            sent += 1;
        }
        let io = conn
            .flush()
            .and_then(|()| conn.drain_responses(|r| got.push(r)));
        for resp in got.drain(..) {
            out.counts.book(&resp, |r| check(done, r));
            done += 1;
        }
        if io.is_err() || start.elapsed() > limit {
            aborted = true;
            break;
        }
        if done < total && sent - done >= window.min(total - done) {
            conn.wait(Duration::from_millis(50));
        }
    }
    out.counts.sent = sent as u64;
    if aborted {
        out.counts.io_failed += (total - done) as u64;
    }
    out.wall_s = start.elapsed().as_secs_f64();
    out
}
