//! # gfomc-serve
//!
//! The engine as a network service: a std-only, thread-per-connection
//! HTTP/1.1 server sharing one [`Engine`] — and therefore one compilation
//! cache and one worker pool — across every client.
//!
//! The serving layer adds **no semantics** of its own. A request body is
//! parsed by the same [`EvalRequest`] parser the Rust API uses, routed by
//! the same [`Engine::evaluate_request`] front door, and answered with the
//! verbatim [`Routed`](gfomc_engine::Routed) text serialization — so a
//! response parsed off the wire is bit-identical to what a direct
//! in-process [`Engine::evaluate_auto`](Engine::evaluate_auto) call
//! returns, including seeded sampler estimates and outward-rounded CI
//! endpoints.
//!
//! What it does add is *admission control*: a bounded in-flight gate
//! ([`AdmissionGate`]) sized by the engine's
//! [`max_queue_depth`](Engine::max_queue_depth). When concurrent `/eval`
//! requests outrun the gate the server rejects **explicitly** — a 429
//! with a `Retry-After` header — rather than queueing without bound or
//! hanging the connection. Overload is a visible, typed condition, never
//! a stall.
//!
//! ## Endpoints
//!
//! | Method | Path      | Meaning                                               |
//! |--------|-----------|-------------------------------------------------------|
//! | POST   | `/eval`   | Route one [`EvalRequest`] body; 200 → [`Routed`](gfomc_engine::Routed) text, 400 → parse/budget error, 429 → at capacity |
//! | POST   | `/session`| One [`SessionRequest`](gfomc_engine::SessionRequest) body (open / use / close + update/explain ops); 200 → [`SessionResponse`](gfomc_engine::SessionResponse) text, 400 → parse/budget/session error, 429 → at capacity or tenant session cap |
//! | GET    | `/status` | Gate, pool, and cache counters as `key value` lines    |
//! | GET    | `/metrics`| Prometheus text exposition of the engine registry      |
//! | GET    | `/slow`   | Slow-query ring buffer: full traces of the slowest requests |
//! | GET    | `/routes` | Global and per-tenant route counts                     |
//! | GET    | `/cache`  | Compilation-cache statistics                           |
//!
//! `/status` and `/metrics` render the **same** engine
//! [`Registry`](gfomc_engine::Registry) (plain `key value` lines vs
//! Prometheus exposition), so a key present in one can never drift from
//! the other. The gate publishes its counters into that registry right
//! before each render.

pub mod client;
pub mod http;

use gfomc_engine::{Engine, EvalRequest, SessionError, SessionWireError};
use http::{read_request, write_response, Request, Response};
use std::io::{self, BufReader, BufWriter};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread;

pub use client::{Client, Connection};

/// Seconds advertised in the `Retry-After` header of a 429 rejection.
pub const RETRY_AFTER_SECS: u64 = 1;

/// Bounded admission for in-flight `/eval` work: the server's explicit
/// backpressure mechanism.
///
/// [`try_admit`](AdmissionGate::try_admit) either hands back an RAII
/// [`Permit`] (released on drop, panics included) or refuses immediately —
/// there is no waiting state, which is what makes overload a 429 response
/// instead of a hang. The gate also keeps the counters `/status` reports:
/// high-water in-flight depth, total admitted, total rejected.
#[derive(Debug)]
pub struct AdmissionGate {
    max_depth: usize,
    in_flight: AtomicUsize,
    high_water: AtomicUsize,
    admitted: AtomicUsize,
    rejected: AtomicUsize,
}

/// Point-in-time snapshot of an [`AdmissionGate`]'s counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct GateStats {
    /// Requests currently holding a permit.
    pub in_flight: usize,
    /// Most permits ever held at once.
    pub high_water: usize,
    /// Permits granted over the gate's lifetime.
    pub admitted: usize,
    /// Requests refused at capacity (each one a 429 on the wire).
    pub rejected: usize,
    /// The bound: permits available before refusals start.
    pub max_depth: usize,
}

impl AdmissionGate {
    /// A gate admitting at most `max_depth` concurrent permits. Zero
    /// means "reject everything" — useful for drills and tests.
    pub fn new(max_depth: usize) -> Arc<AdmissionGate> {
        Arc::new(AdmissionGate {
            max_depth,
            in_flight: AtomicUsize::new(0),
            high_water: AtomicUsize::new(0),
            admitted: AtomicUsize::new(0),
            rejected: AtomicUsize::new(0),
        })
    }

    /// Tries to take a permit. Returns `None` — immediately, never
    /// blocking — when `max_depth` permits are already out.
    pub fn try_admit(self: &Arc<AdmissionGate>) -> Option<Permit> {
        let mut current = self.in_flight.load(Ordering::Relaxed);
        loop {
            if current >= self.max_depth {
                self.rejected.fetch_add(1, Ordering::Relaxed);
                return None;
            }
            match self.in_flight.compare_exchange_weak(
                current,
                current + 1,
                Ordering::AcqRel,
                Ordering::Relaxed,
            ) {
                Ok(_) => {
                    self.high_water.fetch_max(current + 1, Ordering::Relaxed);
                    self.admitted.fetch_add(1, Ordering::Relaxed);
                    return Some(Permit {
                        gate: Arc::clone(self),
                    });
                }
                Err(seen) => current = seen,
            }
        }
    }

    /// Current counter values.
    pub fn stats(&self) -> GateStats {
        GateStats {
            in_flight: self.in_flight.load(Ordering::Relaxed),
            high_water: self.high_water.load(Ordering::Relaxed),
            admitted: self.admitted.load(Ordering::Relaxed),
            rejected: self.rejected.load(Ordering::Relaxed),
            max_depth: self.max_depth,
        }
    }
}

/// An admitted request's slot, returned to the gate on drop.
#[derive(Debug)]
pub struct Permit {
    gate: Arc<AdmissionGate>,
}

impl Drop for Permit {
    fn drop(&mut self) {
        self.gate.in_flight.fetch_sub(1, Ordering::AcqRel);
    }
}

/// The serving loop: one listener, one shared [`Engine`], one
/// [`AdmissionGate`], a thread per accepted connection.
pub struct Server {
    engine: Arc<Engine>,
    gate: Arc<AdmissionGate>,
    listener: TcpListener,
    shutdown: Arc<AtomicBool>,
}

impl Server {
    /// Binds `addr` (use port 0 for an OS-assigned port) and wires the
    /// admission gate to the engine's configured
    /// [`max_queue_depth`](Engine::max_queue_depth).
    pub fn bind(engine: Arc<Engine>, addr: &str) -> io::Result<Server> {
        let gate = AdmissionGate::new(engine.max_queue_depth());
        Server::bind_with_gate(engine, addr, gate)
    }

    /// [`bind`](Server::bind) with an externally owned gate, so callers
    /// (tests, drills) can hold permits and observe counters directly.
    pub fn bind_with_gate(
        engine: Arc<Engine>,
        addr: &str,
        gate: Arc<AdmissionGate>,
    ) -> io::Result<Server> {
        let listener = TcpListener::bind(addr)?;
        Ok(Server {
            engine,
            gate,
            listener,
            shutdown: Arc::new(AtomicBool::new(false)),
        })
    }

    /// The bound socket address (with the OS-assigned port resolved).
    pub fn local_addr(&self) -> io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// The server's admission gate.
    pub fn gate(&self) -> Arc<AdmissionGate> {
        Arc::clone(&self.gate)
    }

    /// The shared engine.
    pub fn engine(&self) -> Arc<Engine> {
        Arc::clone(&self.engine)
    }

    /// Runs the accept loop on the calling thread until
    /// [`ServerHandle::stop`] flips the shutdown flag (or the listener
    /// dies). Each accepted connection gets its own thread running the
    /// keep-alive request loop. On shutdown the loop drains: every open
    /// connection's read side is half-closed, so it answers the request
    /// it is serving and exits, and the loop returns only once every
    /// connection thread has exited.
    pub fn run(self) {
        // Open connections: the shared socket (to half-close it on
        // shutdown) and the thread serving it (to join it). Finished
        // entries are pruned at every accept, so the list stays as long as
        // the number of open connections.
        let mut open: Vec<(Arc<TcpStream>, thread::JoinHandle<()>)> = Vec::new();
        for stream in self.listener.incoming() {
            if self.shutdown.load(Ordering::Acquire) {
                break;
            }
            let Ok(stream) = stream else { continue };
            // Responses are flushed whole from a BufWriter; Nagle would
            // only add a delayed-ACK stall on top.
            stream.set_nodelay(true).ok();
            open.retain(|(_, conn)| !conn.is_finished());
            let stream = Arc::new(stream);
            let served = Arc::clone(&stream);
            let engine = Arc::clone(&self.engine);
            let gate = Arc::clone(&self.gate);
            let conn = thread::spawn(move || {
                let _ = serve_connection(&engine, &gate, &served);
                // Close now rather than when the accept loop prunes its
                // handle: a client reading to end of stream waits for this.
                let _ = served.shutdown(Shutdown::Both);
            });
            open.push((stream, conn));
        }
        for (stream, conn) in open {
            let _ = stream.shutdown(Shutdown::Read);
            let _ = conn.join();
        }
    }

    /// Moves the accept loop onto a background thread and returns a
    /// handle that can stop it.
    pub fn spawn(self) -> io::Result<ServerHandle> {
        let addr = self.local_addr()?;
        let shutdown = Arc::clone(&self.shutdown);
        let gate = self.gate();
        let engine = self.engine();
        let join = thread::spawn(move || self.run());
        Ok(ServerHandle {
            addr,
            shutdown,
            gate,
            engine,
            join,
        })
    }
}

/// Handle to a spawned [`Server`]: address, counters, and shutdown.
pub struct ServerHandle {
    addr: SocketAddr,
    shutdown: Arc<AtomicBool>,
    gate: Arc<AdmissionGate>,
    engine: Arc<Engine>,
    join: thread::JoinHandle<()>,
}

impl ServerHandle {
    /// The address clients should connect to.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The server's admission gate (live, not a snapshot).
    pub fn gate(&self) -> Arc<AdmissionGate> {
        Arc::clone(&self.gate)
    }

    /// The shared engine behind the server.
    pub fn engine(&self) -> Arc<Engine> {
        Arc::clone(&self.engine)
    }

    /// Stops the accept loop and joins it. Connections already accepted
    /// answer the request they are serving and then close; `stop`
    /// returns once every connection thread has exited, so no thread of
    /// this server outlives it. (Exiting the connection threads before
    /// the accept thread also lets a server started next reuse this one's
    /// per-thread allocator state in the same roles.)
    pub fn stop(self) {
        self.shutdown.store(true, Ordering::Release);
        // Unblock the blocking accept with one throwaway connection.
        let _ = TcpStream::connect(self.addr);
        let _ = self.join.join();
    }
}

/// Keep-alive request loop for one accepted connection. Responses are
/// written in request order — the connection is the ordering domain.
fn serve_connection(
    engine: &Engine,
    gate: &Arc<AdmissionGate>,
    stream: &TcpStream,
) -> io::Result<()> {
    let mut reader = BufReader::new(stream);
    // Buffered so each response leaves as one TCP segment (write_response
    // flushes); unbuffered multi-syscall writes re-introduce Nagle stalls.
    let mut writer = BufWriter::new(stream);
    loop {
        let req = match read_request(&mut reader) {
            Ok(Some(req)) => req,
            Ok(None) => return Ok(()), // clean close between requests
            Err(e) if e.kind() == io::ErrorKind::InvalidData => {
                // Protocol violation: answer 400 and drop the connection
                // (framing is unrecoverable once the stream is off the
                // rails).
                let resp = Response::error(400, format!("protocol error: {e}"));
                write_response(&mut writer, &resp)?;
                return Ok(());
            }
            Err(e) => return Err(e),
        };
        let close = req.close;
        let resp = route_request(engine, gate, &req);
        write_response(&mut writer, &resp)?;
        if close {
            return Ok(());
        }
    }
}

/// Maps one request to a response. Every error path is a typed response —
/// a request body must never panic a connection thread.
fn route_request(engine: &Engine, gate: &Arc<AdmissionGate>, req: &Request) -> Response {
    match (req.method.as_str(), req.path.as_str()) {
        ("POST", "/eval") => match gate.try_admit() {
            None => at_capacity(gate),
            Some(_permit) => match engine.evaluate_wire(&req.body) {
                Ok(body) => Response::ok(body),
                Err(e) => Response::error(400, e.to_string()),
            },
        },
        ("POST", "/session") => match gate.try_admit() {
            None => at_capacity(gate),
            Some(_permit) => match engine.session_wire(&req.body) {
                Ok(body) => Response::ok(body),
                // An over-cap tenant is backpressure, not a bad request:
                // the client should retry after closing (or after its
                // other sessions close), so it gets the same 429 +
                // Retry-After contract as the admission gate.
                Err(SessionWireError::Session(SessionError::Limit { tenant, cap })) => {
                    let mut resp = Response::error(
                        429,
                        format!("tenant at session cap\ntenant {tenant}\nmax_sessions {cap}"),
                    );
                    resp.retry_after = Some(RETRY_AFTER_SECS);
                    resp
                }
                Err(e) => Response::error(400, e.to_string()),
            },
        },
        ("GET", "/status") => Response::ok(status_body(engine, gate)),
        ("GET", "/metrics") => Response::ok(metrics_body(engine, gate)),
        ("GET", "/slow") => Response::ok(engine.slow_log().render()),
        ("GET", "/routes") => Response::ok(routes_body(engine)),
        ("GET", "/cache") => Response::ok(cache_body(engine)),
        ("GET", "/eval")
        | ("GET", "/session")
        | ("POST", "/status")
        | ("POST", "/metrics")
        | ("POST", "/slow")
        | ("POST", "/routes")
        | ("POST", "/cache") => {
            Response::error(405, format!("{} not allowed on {}", req.method, req.path))
        }
        _ => Response::error(404, format!("no such endpoint: {}", req.path)),
    }
}

/// The gate's 429: human-readable first line, then machine-readable
/// `key value` lines a backoff policy can parse.
fn at_capacity(gate: &Arc<AdmissionGate>) -> Response {
    let stats = gate.stats();
    let mut resp = Response::error(
        429,
        format!(
            "server at capacity\nin_flight {}\nmax_depth {}",
            stats.in_flight, stats.max_depth
        ),
    );
    resp.retry_after = Some(RETRY_AFTER_SECS);
    resp
}

/// Publishes the gate's counters into the engine registry and refreshes
/// the engine-side gauges (cache occupancy, pool counters, open sessions,
/// the process-wide sampler tally), so `/status` and `/metrics` both render
/// from one freshly synced key space.
fn sync_gauges(engine: &Engine, gate: &Arc<AdmissionGate>) {
    let g = gate.stats();
    let registry = engine.registry();
    registry.set_gauge("gate_queue_depth", &[], g.in_flight as u64);
    registry.set_gauge("gate_queue_high_water", &[], g.high_water as u64);
    registry.set_gauge("gate_queue_max_depth", &[], g.max_depth as u64);
    registry.set_gauge("gate_admitted", &[], g.admitted as u64);
    registry.set_gauge("gate_rejected", &[], g.rejected as u64);
    engine.refresh_gauges();
}

/// `/status`: every registry metric as plain `key value` lines (with
/// `_count`/`_p50`/`_p95`/`_p99` derivations for histograms).
fn status_body(engine: &Engine, gate: &Arc<AdmissionGate>) -> String {
    sync_gauges(engine, gate);
    engine.registry().render_plain()
}

/// `/metrics`: the same registry in Prometheus text exposition.
fn metrics_body(engine: &Engine, gate: &Arc<AdmissionGate>) -> String {
    sync_gauges(engine, gate);
    engine.registry().render_prometheus()
}

/// `/routes`: the global route tallies, then one line per tenant.
fn routes_body(engine: &Engine) -> String {
    let total = engine.route_counts();
    let mut out = format!(
        "total lifted {} compiled {} sampled {}\n",
        total.lifted, total.compiled, total.sampled
    );
    for (tenant, counts) in engine.tenant_route_counts() {
        out.push_str(&format!(
            "tenant {tenant} lifted {} compiled {} sampled {}\n",
            counts.lifted, counts.compiled, counts.sampled
        ));
    }
    out
}

/// `/cache`: compilation-cache statistics as `key value` lines.
fn cache_body(engine: &Engine) -> String {
    let c = engine.cache_stats();
    format!(
        "hits {}\nmisses {}\nentries {}\ncapacity {}\nevictions {}\nrejections {}\nhit_rate {}\n",
        c.hits,
        c.misses,
        c.entries,
        c.capacity,
        c.evictions,
        c.rejections,
        c.hit_rate()
    )
}

/// Convenience used by `gfomc-cli check` and the tests: render an
/// [`EvalRequest`] exactly as the client sends it.
pub fn request_body(req: &EvalRequest) -> String {
    req.to_string()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gate_admits_to_depth_then_rejects() {
        let gate = AdmissionGate::new(2);
        let a = gate.try_admit().expect("depth 0 -> 1");
        let b = gate.try_admit().expect("depth 1 -> 2");
        assert!(gate.try_admit().is_none(), "gate full at depth 2");
        let s = gate.stats();
        assert_eq!(
            (s.in_flight, s.high_water, s.admitted, s.rejected),
            (2, 2, 2, 1)
        );
        drop(a);
        let _c = gate.try_admit().expect("slot freed by drop");
        drop(b);
        let s = gate.stats();
        assert_eq!(s.in_flight, 1);
        assert_eq!(s.high_water, 2, "high water survives the drain");
    }

    #[test]
    fn zero_depth_gate_rejects_everything() {
        let gate = AdmissionGate::new(0);
        assert!(gate.try_admit().is_none());
        assert_eq!(gate.stats().rejected, 1);
    }

    #[test]
    fn gate_is_exact_under_contention() {
        let gate = AdmissionGate::new(3);
        let threads: Vec<_> = (0..8)
            .map(|_| {
                let gate = Arc::clone(&gate);
                thread::spawn(move || {
                    let mut held = Vec::new();
                    for _ in 0..100 {
                        if let Some(p) = gate.try_admit() {
                            held.push(p);
                        }
                        held.clear();
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        let s = gate.stats();
        assert_eq!(s.in_flight, 0, "all permits returned");
        assert!(s.high_water <= 3, "bound never exceeded: {}", s.high_water);
    }
}
