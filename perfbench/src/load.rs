//! The load generator: closed and open loops over keep-alive
//! connections, one thread per client, checking every answer.
//!
//! A closed loop sends a client's next request when the previous one
//! answers, so it measures throughput. An open loop sends on a fixed
//! schedule whatever the fleet does and times each request from when it
//! was due, so a stall also counts against the requests queued behind
//! it; how late the generator ran is reported with it.

use crate::stats::{median, quantile};
use crate::wire::{predicted_time, Client};
use std::net::SocketAddr;
use std::time::{Duration, Instant};

/// One generated request and the answer it must get.
#[derive(Clone)]
pub struct Req {
    /// The whole HTTP request.
    pub bytes: Vec<u8>,
    /// Bits of the expected `predicted_time`.
    pub expect: u64,
    /// Whether this is the first request of an edit session.
    pub first: bool,
}

/// One traced request: its trace ID, and when it was sent and answered
/// (µs since the phase began).
pub struct TraceRecord {
    pub id: String,
    pub sent_us: f64,
    pub done_us: f64,
    pub ok: bool,
}

/// What one phase of load did.
#[derive(Default)]
pub struct Phase {
    pub sent: u64,
    pub ok: u64,
    pub failed: u64,
    /// Latency of every request in µs; a failed request counts as
    /// infinitely slow, so it misses every latency limit.
    pub lat_us: Vec<f64>,
    /// Latency of edit-session first requests.
    pub first_lat_us: Vec<f64>,
    /// Open loop: how late each request was sent, µs.
    pub late_us: Vec<f64>,
    pub elapsed_s: f64,
    pub errors: Vec<String>,
    pub reconnects: u64,
    /// Requests each client consumed from its stream.
    pub consumed: Vec<usize>,
    /// Whether a client ran out of generated requests before the end.
    pub exhausted: bool,
    pub traces: Vec<TraceRecord>,
}

impl Phase {
    /// Completed, correct answers per second.
    pub fn rate(&self) -> f64 {
        self.ok as f64 / self.elapsed_s
    }

    pub fn p(&self, q: f64) -> f64 {
        quantile(&self.lat_us, q)
    }

    /// One line: sent / succeeded / failed, rate and latency quantiles.
    pub fn summary(&self, name: &str) -> String {
        let late = if self.late_us.is_empty() {
            String::new()
        } else {
            format!(
                " late_p50={:.1}us late_max={:.1}us",
                median(&self.late_us),
                quantile(&self.late_us, 1.0)
            )
        };
        format!(
            "phase {name}: sent={} ok={} failed={} rate={:.1}/s p50={:.1}us p90={:.1}us p99={:.1}us n={} reconnects={}{late}",
            self.sent,
            self.ok,
            self.failed,
            self.rate(),
            self.p(0.5),
            self.p(0.9),
            self.p(0.99),
            self.lat_us.len(),
            self.reconnects,
        )
    }

    pub fn absorb(&mut self, other: Phase) {
        self.sent += other.sent;
        self.ok += other.ok;
        self.failed += other.failed;
        self.lat_us.extend(other.lat_us);
        self.first_lat_us.extend(other.first_lat_us);
        self.late_us.extend(other.late_us);
        self.reconnects += other.reconnects;
        self.exhausted |= other.exhausted;
        self.consumed.extend(other.consumed);
        self.traces.extend(other.traces);
        for e in other.errors {
            if self.errors.len() < 5 {
                self.errors.push(e);
            }
        }
    }
}

/// How a phase paces its clients.
#[derive(Clone, Copy)]
pub enum Pace {
    Closed,
    /// Requests per second, per client.
    Open(f64),
}

/// Run one phase: client `i` sends `streams[i]` in order (wrapping
/// around when `cycle`) at `target` for `duration`. With `trace`, every
/// request carries a trace ID `<trace>-<client>-<n>` and is recorded.
pub fn run(
    target: SocketAddr,
    streams: &[&[Req]],
    cycle: bool,
    pace: Pace,
    duration: Duration,
    trace: Option<&str>,
) -> Phase {
    let start = Instant::now();
    let parts: Vec<Phase> = std::thread::scope(|scope| {
        let workers: Vec<_> = streams
            .iter()
            .enumerate()
            .map(|(client, stream)| {
                scope.spawn(move || {
                    let offset = client as f64 / streams.len() as f64;
                    drive(
                        target, stream, cycle, pace, offset, start, duration, trace, client,
                    )
                })
            })
            .collect();
        workers
            .into_iter()
            .map(|w| w.join().expect("load client panicked"))
            .collect()
    });
    let mut phase = Phase {
        elapsed_s: start.elapsed().as_secs_f64(),
        ..Phase::default()
    };
    for part in parts {
        phase.absorb(part);
    }
    phase
}

#[allow(clippy::too_many_arguments)]
fn drive(
    target: SocketAddr,
    stream: &[Req],
    cycle: bool,
    pace: Pace,
    offset: f64,
    start: Instant,
    duration: Duration,
    trace: Option<&str>,
    client_index: usize,
) -> Phase {
    let mut client = Client::new(target);
    let mut out = Phase::default();
    let mut n = 0usize;
    loop {
        let due = match pace {
            Pace::Closed => Instant::now(),
            Pace::Open(rate) => start + Duration::from_secs_f64((n as f64 + offset) / rate),
        };
        if due.duration_since(start) >= duration {
            break;
        }
        if n >= stream.len() && !cycle {
            out.exhausted = true;
            break;
        }
        let req = &stream[n % stream.len()];
        n += 1;
        let now = Instant::now();
        if due > now {
            std::thread::sleep(due - now);
        }
        let sent = Instant::now();
        if matches!(pace, Pace::Open(_)) {
            out.late_us
                .push(sent.duration_since(due).as_nanos() as f64 / 1e3);
        }
        let id = trace.map(|prefix| format!("{prefix}-{client_index}-{n}"));
        let traced;
        let bytes = match &id {
            Some(id) => {
                traced = with_trace(&req.bytes, id);
                &traced
            }
            None => &req.bytes,
        };
        out.sent += 1;
        let verdict = match client.send(bytes) {
            Ok(r) if r.status != 200 => Err(format!("status {}: {}", r.status, clip(&r.body))),
            Ok(r) => match predicted_time(&r.body) {
                Some(t) if t.to_bits() == req.expect => Ok(()),
                other => Err(format!(
                    "wrong answer {other:?}, expected {}",
                    f64::from_bits(req.expect)
                )),
            },
            Err(e) => Err(e),
        };
        let done = Instant::now();
        let lat = done.duration_since(due).as_nanos() as f64 / 1e3;
        if let Some(id) = id {
            out.traces.push(TraceRecord {
                id,
                sent_us: sent.duration_since(start).as_nanos() as f64 / 1e3,
                done_us: done.duration_since(start).as_nanos() as f64 / 1e3,
                ok: verdict.is_ok(),
            });
        }
        match verdict {
            Ok(()) => {
                out.ok += 1;
                out.lat_us.push(lat);
                if req.first {
                    out.first_lat_us.push(lat);
                }
            }
            Err(e) => {
                out.failed += 1;
                out.lat_us.push(f64::INFINITY);
                if req.first {
                    out.first_lat_us.push(f64::INFINITY);
                }
                if out.errors.len() < 5 {
                    out.errors.push(e);
                }
            }
        }
    }
    out.reconnects = client.reconnects;
    out.consumed = vec![n];
    out
}

/// The request with an `x-prophet-trace` header spliced into its head.
fn with_trace(bytes: &[u8], id: &str) -> Vec<u8> {
    let end = bytes
        .windows(4)
        .position(|w| w == b"\r\n\r\n")
        .expect("request head is terminated")
        + 2;
    let mut out = Vec::with_capacity(bytes.len() + id.len() + 20);
    out.extend_from_slice(&bytes[..end]);
    out.extend_from_slice(format!("x-prophet-trace: {id}\r\n").as_bytes());
    out.extend_from_slice(&bytes[end..]);
    out
}

fn clip(s: &str) -> &str {
    s.char_indices().nth(160).map_or(s, |(i, _)| &s[..i])
}
