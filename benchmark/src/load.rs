//! The untraced run: serve the workload from an in-process `gfomc-serve`
//! on loopback to one closed-loop client and measure it end to end.

use crate::inputs::{
    generate, new_engine, open_body, session_id, use_body, without_id, Inputs, Workload,
};
use crate::{peak_rss_mb, Metric, Outcome};
use gfomc_engine::Engine;
use gfomc_pool::WorkerPool;
use gfomc_serve::http::{read_response, write_request, Response};
use gfomc_serve::{Connection, Server, ServerHandle};
use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};
use std::io::{self, BufReader, BufWriter, Read};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Set-ups per run; `setup_s` is their median.
const SETUP_REPEATS: usize = 5;

/// One `/eval` exchange on a connection of its own, as `gfomc-cli submit`
/// makes it. The client reads until the server has closed, so TIME_WAIT
/// stays on the server side and a long run cannot exhaust the client's
/// ephemeral ports.
pub fn exchange_once(stream: TcpStream, body: &str) -> io::Result<Response> {
    stream.set_nodelay(true)?;
    let mut reader = BufReader::new(stream.try_clone()?);
    write_request(&mut BufWriter::new(stream), "POST", "/eval", body, true)?;
    let resp = read_response(&mut reader)?;
    reader.read_to_end(&mut Vec::new())?;
    Ok(resp)
}

fn post_once(addr: SocketAddr, body: &str) -> io::Result<Response> {
    exchange_once(TcpStream::connect(addr)?, body)
}

pub fn io_err(what: &str) -> impl Fn(io::Error) -> String + '_ {
    move |e| format!("{what}: {e}")
}

/// Answers checked so far: a failure is anything but a 200 carrying the
/// reference body, including the gate's 429 refusals.
#[derive(Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    first_failure: Option<String>,
}

impl Tally {
    pub fn record(&mut self, ok: bool, detail: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.first_failure
                .get_or_insert_with(|| format!("first failure: {}", detail()));
        }
    }

    pub fn check(&mut self, status: u16, body: &str, expected: &str) {
        self.record(status == 200 && body == expected, || {
            format!("status {status}, body {body:?}, expected {expected:?}")
        });
    }

    pub fn report(&self, report: &mut Vec<String>) {
        if let Some(f) = &self.first_failure {
            report.push(f.clone());
        }
    }
}

fn fingerprint(text: &str) -> u64 {
    let mut h = DefaultHasher::new();
    text.hash(&mut h);
    h.finish()
}

/// A served workload, ready for its first timed request.
struct Ready {
    server: ServerHandle,
    inputs: Inputs,
    /// The keep-alive connection (`eval_hot`, `session_stream`).
    conn: Option<Connection>,
    /// `session use` bodies, rendered with the server's session ids.
    bodies: Vec<String>,
    /// The in-process twin of the served sessions, and its session ids.
    twin: Option<(Engine, Vec<u64>)>,
}

/// Engine build, input generation (with reference answers and the
/// composition guard), server bind, and one cold pass over every distinct
/// request: compiles for `/eval`, opens for sessions.
fn setup(
    workload: Workload,
    seed: u64,
    pool: &Arc<WorkerPool>,
    tally: &mut Tally,
) -> Result<Ready, String> {
    let inputs = generate(workload, seed, pool)?;
    let server = Server::bind(Arc::new(new_engine(pool)), "127.0.0.1:0")
        .and_then(Server::spawn)
        .map_err(io_err("start server"))?;
    let addr = server.addr();
    match &inputs {
        Inputs::Eval(set) => {
            let mut conn = if set.connection_per_request {
                None
            } else {
                Some(Connection::open(addr).map_err(io_err("connect"))?)
            };
            for item in &set.items {
                let resp = match &mut conn {
                    Some(c) => c.request("POST", "/eval", &item.body),
                    None => post_once(addr, &item.body),
                }
                .map_err(io_err("cold pass"))?;
                tally.check(resp.status, &resp.body, &item.expected);
            }
            if !set.connection_per_request {
                let cache = server.engine().cache_stats();
                if cache.entries != set.distinct_lineages || cache.evictions + cache.rejections > 0
                {
                    return Err(format!(
                        "eval_hot: after the cold pass {} of {} lineages are resident \
                         ({} evictions, {} rejections); every timed request must hit",
                        cache.entries, set.distinct_lineages, cache.evictions, cache.rejections
                    ));
                }
            }
            Ok(Ready {
                server,
                conn,
                bodies: Vec::new(),
                twin: None,
                inputs,
            })
        }
        Inputs::Session(set) => {
            let mut conn = Connection::open(addr).map_err(io_err("connect"))?;
            let twin = new_engine(pool);
            let mut ids = Vec::new();
            let mut twin_ids = Vec::new();
            for spec in &set.sessions {
                let body = open_body(&spec.open);
                let resp = conn
                    .request("POST", "/session", &body)
                    .map_err(io_err("session open"))?;
                let twin_reply = twin
                    .session_wire(&body)
                    .map_err(|e| format!("twin rejected a session open: {e}"))?;
                tally.check(resp.status, without_id(&resp.body), without_id(&twin_reply));
                ids.push(session_id(&resp.body)?);
                twin_ids.push(session_id(&twin_reply)?);
            }
            let bodies = set
                .calls
                .iter()
                .map(|c| use_body(ids[c.session], &c.ops))
                .collect();
            Ok(Ready {
                server,
                conn: Some(conn),
                bodies,
                twin: Some((twin, twin_ids)),
                inputs,
            })
        }
    }
}

/// Consecutive measurement windows per run. The end-to-end figures are
/// medians over the windows, so a few seconds of host interference move
/// one window, not the result.
const WINDOWS: u32 = 5;

/// The round-trip latencies (ns) of one window and its wall time.
struct Window {
    latencies: Vec<u64>,
    secs: f64,
}

impl Window {
    /// Throughput (1/s), p50 and p99 latency (us).
    fn figures(&mut self) -> [f64; 3] {
        self.latencies.sort_unstable();
        [
            self.latencies.len() as f64 / self.secs,
            quantile_us(&self.latencies, 0.5),
            quantile_us(&self.latencies, 0.99),
        ]
    }
}

/// Sends request `i` for i = 0, 1, … until `seconds` have passed, split
/// into `WINDOWS` equal windows, timing each round trip alone; `check`
/// sees each response after its clock stopped.
fn closed_loop(
    seconds: u64,
    mut send: impl FnMut(usize) -> io::Result<Response>,
    mut check: impl FnMut(usize, Response),
) -> Result<Vec<Window>, String> {
    let span = Duration::from_secs(seconds) / WINDOWS;
    let mut windows = Vec::new();
    let mut i = 0;
    let mut start = Instant::now();
    for _ in 0..WINDOWS {
        let deadline = start + span;
        let mut latencies = Vec::new();
        let end = loop {
            let t0 = Instant::now();
            let resp = send(i).map_err(io_err("timed request"))?;
            let t1 = Instant::now();
            latencies.push((t1 - t0).as_nanos() as u64);
            check(i, resp);
            i += 1;
            if t1 >= deadline {
                break t1;
            }
        };
        windows.push(Window {
            latencies,
            secs: (end - start).as_secs_f64(),
        });
        start = end;
    }
    Ok(windows)
}

/// The `q`-quantile of sorted nanosecond samples, in microseconds.
fn quantile_us(sorted: &[u64], q: f64) -> f64 {
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1] as f64 / 1e3
}

fn median(values: &mut [f64]) -> f64 {
    values.sort_by(f64::total_cmp);
    let n = values.len();
    if n % 2 == 1 {
        values[n / 2]
    } else {
        (values[n / 2 - 1] + values[n / 2]) / 2.0
    }
}

pub fn run(
    workload: Workload,
    seed: u64,
    seconds: u64,
    pool: &Arc<WorkerPool>,
) -> Result<Outcome, String> {
    let mut tally = Tally::default();
    let mut setup_secs = Vec::with_capacity(SETUP_REPEATS);
    let mut ready: Option<Ready> = None;
    for _ in 0..SETUP_REPEATS {
        if let Some(previous) = ready.take() {
            drop(previous.conn);
            previous.server.stop();
        }
        let t0 = Instant::now();
        ready = Some(setup(workload, seed, pool, &mut tally)?);
        setup_secs.push(t0.elapsed().as_secs_f64());
    }
    let Ready {
        server,
        inputs,
        mut conn,
        bodies,
        twin,
    } = ready.expect("at least one setup");
    let addr = server.addr();
    let cache_before = server.engine().cache_stats();
    let mut report = vec![inputs.summary().to_string()];

    let mut windows =
        match &inputs {
            Inputs::Eval(set) => {
                let n = set.items.len();
                let result = closed_loop(
                    seconds,
                    |i| match &mut conn {
                        Some(c) => c.request("POST", "/eval", &set.items[i % n].body),
                        None => post_once(addr, &set.items[i % n].body),
                    },
                    |i, resp| tally.check(resp.status, &resp.body, &set.items[i % n].expected),
                )?;
                let cache = server.engine().cache_stats();
                let misses = cache.misses - cache_before.misses;
                report.push(format!(
                    "timed-run cache hits {} misses {misses} evictions {} rejections {}",
                    cache.hits - cache_before.hits,
                    cache.evictions - cache_before.evictions,
                    cache.rejections - cache_before.rejections,
                ));
                if !set.connection_per_request && misses > 0 {
                    return Err(format!(
                        "eval_hot: {misses} timed requests missed the cache"
                    ));
                }
                result
            }
            Inputs::Session(set) => {
                let n = bodies.len();
                let conn = conn
                    .as_mut()
                    .expect("sessions use one keep-alive connection");
                let mut replies: Vec<(u16, u64)> = Vec::new();
                let result = closed_loop(
                    seconds,
                    |i| conn.request("POST", "/session", &bodies[i % n]),
                    |_, resp| replies.push((resp.status, fingerprint(without_id(&resp.body)))),
                )?;
                // Replay the same requests, in order, on the twin sessions.
                let (twin, twin_ids) = twin.as_ref().expect("sessions have a twin");
                for (i, (status, got)) in replies.into_iter().enumerate() {
                    let call = &set.calls[i % n];
                    let expected = twin
                        .session_wire(&use_body(twin_ids[call.session], &call.ops))
                        .map_err(|e| format!("twin rejected a session call: {e}"))?;
                    tally.record(status == 200 && got == fingerprint(without_id(&expected)), || {
                    format!("timed session request {i}: status {status}, twin reply {expected:?}")
                });
                }
                result
            }
        };
    drop(conn);
    let gate = server.gate().stats();
    server.stop();

    let figures: Vec<[f64; 3]> = windows.iter_mut().map(Window::figures).collect();
    let median_of = |k: usize| median(&mut figures.iter().map(|f| f[k]).collect::<Vec<_>>());
    let (throughput, p50, p99) = (median_of(0), median_of(1), median_of(2));
    let count: usize = windows.iter().map(|w| w.latencies.len()).sum();
    let secs: f64 = windows.iter().map(|w| w.secs).sum();
    let setup_s = median(&mut setup_secs);
    report.push(format!(
        "timed {count} requests in {secs:.3} s over {WINDOWS} windows; gate admitted {} \
         rejected {}",
        gate.admitted, gate.rejected
    ));
    for (w, f) in windows.iter().zip(&figures) {
        report.push(format!(
            "  window: {:.1} rps, p50 {:.1} us, p99 {:.1} us over {} samples",
            f[0],
            f[1],
            f[2],
            w.latencies.len()
        ));
    }
    report.push(format!(
        "median window: {throughput:.1} rps, p50 {p50:.1} us, p99 {p99:.1} us"
    ));
    report.push(format!(
        "setup_s median {setup_s:.4} of {SETUP_REPEATS}: {setup_secs:?}"
    ));
    tally.report(&mut report);
    let ok = tally.attempted - tally.failed;
    Ok(Outcome {
        attempted: tally.attempted,
        failed: tally.failed,
        report,
        metrics: vec![
            Metric {
                name: "throughput_rps",
                value: throughput,
                unit: "1/s",
            },
            Metric {
                name: "latency_p50_us",
                value: p50,
                unit: "us",
            },
            Metric {
                name: "latency_p99_us",
                value: p99,
                unit: "us",
            },
            Metric {
                name: "success_frac",
                value: ok as f64 / tally.attempted as f64,
                unit: "ratio",
            },
            Metric {
                name: "setup_s",
                value: setup_s,
                unit: "s",
            },
            Metric {
                name: "peak_rss_mb",
                value: peak_rss_mb(),
                unit: "MiB",
            },
        ],
    })
}
