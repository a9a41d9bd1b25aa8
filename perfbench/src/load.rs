//! The open-loop load generator: requests go out on one connection at
//! their scheduled (due) times whatever the replies are doing, replies are
//! read back in order as they arrive, and each request is timed from its
//! due time, so a stall also counts against the requests queued behind it.
//! One thread drives one connection; nothing here spawns a thread.

use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

/// One request: when it was due, when it went out, and its reply.
pub struct Outcome {
    /// Index into the caller's request sequence.
    pub index: usize,
    pub due: Instant,
    pub sent: Instant,
    /// Arrival time and text of the reply; `None` when it never came.
    pub reply: Option<(Instant, String)>,
}

impl Outcome {
    /// Latency from the due time, in milliseconds (`None` without reply).
    pub fn latency_ms(&self) -> Option<f64> {
        self.reply
            .as_ref()
            .map(|(at, _)| at.duration_since(self.due).as_secs_f64() * 1e3)
    }

    /// How late the request went out against its schedule, milliseconds.
    pub fn late_ms(&self) -> f64 {
        self.sent.duration_since(self.due).as_secs_f64() * 1e3
    }
}

/// One pipelined NDJSON connection.
pub struct Conn {
    stream: TcpStream,
    buf: Vec<u8>,
}

impl Conn {
    pub fn connect(addr: SocketAddr) -> std::io::Result<Conn> {
        let stream = TcpStream::connect_timeout(&addr, Duration::from_secs(10))?;
        stream.set_nodelay(true)?;
        stream.set_write_timeout(Some(Duration::from_secs(10)))?;
        Ok(Conn {
            stream,
            buf: Vec::new(),
        })
    }

    /// Waits up to `timeout` for reply lines; returns the complete lines
    /// that arrived (empty on timeout), or an error when the peer closed.
    fn poll_lines(&mut self, timeout: Duration) -> std::io::Result<Vec<String>> {
        self.stream
            .set_read_timeout(Some(timeout.max(Duration::from_micros(50))))?;
        let mut chunk = [0u8; 64 * 1024];
        match self.stream.read(&mut chunk) {
            Ok(0) => return Err(ErrorKind::UnexpectedEof.into()),
            Ok(n) => self.buf.extend_from_slice(&chunk[..n]),
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {}
            Err(e) => return Err(e),
        }
        let mut lines = Vec::new();
        while let Some(pos) = self.buf.iter().position(|&b| b == b'\n') {
            let line: Vec<u8> = self.buf.drain(..=pos).collect();
            lines.push(String::from_utf8_lossy(&line).trim().to_string());
        }
        Ok(lines)
    }

    /// One blocking request/reply (the connection must be idle).
    pub fn call(&mut self, line: &str, timeout: Duration) -> std::io::Result<String> {
        self.stream.write_all(format!("{line}\n").as_bytes())?;
        let deadline = Instant::now() + timeout;
        loop {
            let left = deadline.saturating_duration_since(Instant::now());
            if left.is_zero() {
                return Err(ErrorKind::TimedOut.into());
            }
            if let Some(reply) = self.poll_lines(left)?.into_iter().next() {
                return Ok(reply);
            }
        }
    }

    /// Sends `count` requests at `rate` per second starting at `start`
    /// (`line(i)` is request `i`), reading replies as they come. Sending
    /// stops for good once a reply is older than `abort_after` past its due
    /// time (a backlog that no longer drains, or a reply that timed out);
    /// the requests not sent are missing from the returned outcomes.
    /// Outstanding replies are awaited up to `drain` after the last send.
    pub fn open_loop(
        &mut self,
        start: Instant,
        rate: f64,
        count: usize,
        line: impl Fn(usize) -> String,
        abort_after: Duration,
        drain: Duration,
    ) -> Vec<Outcome> {
        let period = Duration::from_secs_f64(1.0 / rate);
        let mut outcomes: Vec<Outcome> = Vec::with_capacity(count);
        let mut answered = 0usize;
        let mut next = 0usize;
        let mut last_send = start;
        let mut stalled = false;
        loop {
            let now = Instant::now();
            stalled = stalled
                || outcomes
                    .get(answered)
                    .is_some_and(|o| now.duration_since(o.due) > abort_after);
            let sending = next < count && !stalled;
            while sending && next < count && start + period * next as u32 <= Instant::now() {
                let due = start + period * next as u32;
                if self
                    .stream
                    .write_all(format!("{}\n", line(next)).as_bytes())
                    .is_err()
                {
                    return outcomes;
                }
                let sent = Instant::now();
                last_send = sent;
                outcomes.push(Outcome {
                    index: next,
                    due,
                    sent,
                    reply: None,
                });
                next += 1;
            }
            let done_sending = next >= count || stalled;
            if done_sending && answered == outcomes.len() {
                return outcomes;
            }
            let wait = if done_sending {
                let left = (last_send + drain).saturating_duration_since(Instant::now());
                if left.is_zero() {
                    return outcomes;
                }
                left
            } else {
                (start + period * next as u32).saturating_duration_since(Instant::now())
            };
            match self.poll_lines(wait) {
                Ok(lines) => {
                    let at = Instant::now();
                    for reply in lines {
                        if let Some(o) = outcomes.get_mut(answered) {
                            o.reply = Some((at, reply));
                            answered += 1;
                        }
                    }
                }
                Err(_) => return outcomes,
            }
        }
    }
}
