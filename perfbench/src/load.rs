//! Closed-loop load generator over `tab-wire-v1` connections.
//!
//! Each connection is one client thread that sends its next request
//! only after the previous response arrived. What connection `c` sends
//! as its `i`-th request is a pure function of `(seed, c, i)`, supplied
//! by the workload as a [`Plan`]; the generator adds nothing random.
//! Each request is timed from just before it is written to just after
//! its response line is read.

use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Instant;

use tab_server::{Client, Response};

use crate::trace::{Ctx, Tracer};

/// The wire verbs the workloads send.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Verb {
    Query,
    Explain,
    Ping,
    Insert,
}

impl Verb {
    pub const ALL: [Verb; 4] = [Verb::Query, Verb::Explain, Verb::Ping, Verb::Insert];

    pub fn name(self) -> &'static str {
        match self {
            Verb::Query => "query",
            Verb::Explain => "explain",
            Verb::Ping => "ping",
            Verb::Insert => "insert",
        }
    }

    fn span(self) -> &'static str {
        match self {
            Verb::Query => "server.query",
            Verb::Explain => "server.explain",
            Verb::Ping => "server.ping",
            Verb::Insert => "server.insert",
        }
    }
}

/// One planned request: its verb, the wire line, and the workload's
/// own key for checking the response (e.g. an index into the query
/// pool).
#[derive(Debug, Clone)]
pub struct Request {
    pub verb: Verb,
    pub line: String,
    pub key: usize,
}

/// The request plan of one connection: request `i` of that connection.
pub type Plan<'a> = &'a (dyn Fn(u64) -> Request + Sync);

/// One completed (or failed) request.
#[derive(Debug)]
pub struct Sample {
    /// Whether spans were recorded for this request.
    pub traced: bool,
    pub index: u64,
    pub req: u64,
    pub request: Request,
    pub ms: f64,
    pub response: Result<Response, String>,
}

impl Sample {
    /// Answered with an `ok` envelope.
    pub fn ok(&self) -> bool {
        matches!(&self.response, Ok(r) if r.is_ok())
    }

    /// Refused by the server as overloaded (retryable).
    pub fn refused(&self) -> bool {
        matches!(&self.response, Ok(r) if r.is_retryable())
    }
}

/// How long each connection keeps sending.
pub struct Limits {
    /// Stop sending once this instant has passed.
    pub deadline: Instant,
    /// Per-connection request cap (`None` for no cap).
    pub max_requests: Vec<Option<u64>>,
    /// When a capped connection reaches its cap, the others stop too.
    pub stop_others_at_cap: bool,
}

/// Requests per block when traced and untraced blocks alternate.
const TRACE_BLOCK: u64 = 8;

/// Drive one connection per plan until the limits say stop, and return
/// every sample in completion order per connection. With `alternate`,
/// blocks of requests alternate between untraced and traced, so one run
/// can compare the two.
pub fn drive(
    addr: SocketAddr,
    plans: &[Plan<'_>],
    limits: &Limits,
    tr: &Tracer,
    alternate: bool,
) -> Vec<Sample> {
    let stop = AtomicBool::new(false);
    let off = Tracer::new(false);
    let per_conn: Vec<Vec<Sample>> = std::thread::scope(|scope| {
        let handles: Vec<_> = plans
            .iter()
            .enumerate()
            .map(|(conn, plan)| {
                let stop = &stop;
                let off = &off;
                let cap = limits.max_requests.get(conn).copied().flatten();
                scope.spawn(move || {
                    let mut out = Vec::new();
                    let mut client = match Client::connect(addr) {
                        Ok(c) => c,
                        Err(e) => {
                            out.push(Sample {
                                traced: false,
                                index: 0,
                                req: 0,
                                request: plan(0),
                                ms: 0.0,
                                response: Err(format!("connect: {e}")),
                            });
                            return out;
                        }
                    };
                    let mut index = 0u64;
                    while Instant::now() < limits.deadline
                        && !stop.load(Ordering::Relaxed)
                        && cap.is_none_or(|c| index < c)
                    {
                        let request = plan(index);
                        let traced = tr.enabled() && (!alternate || (index / TRACE_BLOCK) % 2 == 1);
                        let t = if traced { tr } else { off };
                        let req = t.request();
                        let parent = Ctx { span: 0, req };
                        let t0 = Instant::now();
                        let response = t.span(request.verb.span(), parent, |_| {
                            client.request(&request.line)
                        });
                        let ms = t0.elapsed().as_secs_f64() * 1e3;
                        out.push(Sample {
                            traced,
                            index,
                            req,
                            request,
                            ms,
                            response,
                        });
                        index += 1;
                    }
                    if limits.stop_others_at_cap && cap.is_some_and(|c| index >= c) {
                        stop.store(true, Ordering::Relaxed);
                    }
                    let _ = client.quit();
                    out
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("load connection thread panicked"))
            .collect()
    });
    per_conn.into_iter().flatten().collect()
}

/// Attempted, failed (error or no answer) and refused counts per verb.
pub fn verb_counts(samples: &[&Sample]) -> Vec<(Verb, u64, u64, u64)> {
    Verb::ALL
        .iter()
        .map(|&v| {
            let of: Vec<&Sample> = samples
                .iter()
                .copied()
                .filter(|s| s.request.verb == v)
                .collect();
            let failed = of.iter().filter(|s| !s.ok()).count() as u64;
            let refused = of.iter().filter(|s| s.refused()).count() as u64;
            (v, of.len() as u64, failed, refused)
        })
        .collect()
}

/// Latencies in ms of the successful samples of one verb.
pub fn latencies(samples: &[&Sample], verb: Verb) -> Vec<f64> {
    samples
        .iter()
        .filter(|s| s.request.verb == verb && s.ok())
        .map(|s| s.ms)
        .collect()
}
