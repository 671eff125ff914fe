//! The long-running `simdize serve` server.
//!
//! Architecture (std::net + threads only — the workspace is offline,
//! no async runtime):
//!
//! * one **accept loop** on a nonblocking listener, polled every few
//!   milliseconds so a shutdown request or SIGINT is observed promptly;
//! * one **connection thread** per client, reading JSONL requests with
//!   a short read timeout (so idle connections also observe shutdown)
//!   and a length cap, executing what it parses — a request is a
//!   function call on the thread that read it — and writing the reply
//!   under [`WRITE_TIMEOUT`], so a client that stops reading loses its
//!   connection instead of pinning the thread;
//! * one admission [`Gate`] in front of the pipeline verbs: `workers`
//!   requests execute at once, `queue_depth` more wait in arrival
//!   order, the rest get the `busy` envelope immediately — explicit
//!   backpressure instead of unbounded buffering;
//! * one process-wide sharded [`KernelCache`]: a kernel baked for one
//!   `run` or `sweep` is a hit for every later request, on any
//!   connection, with the same (program, input, layout).
//!
//! Shutdown sets the stop flag and joins the connection threads: the
//! thread being joined is the one answering, so no reply is orphaned.
//!
//! Per-request latency lands in [`simdize_telemetry::Histogram`]s (one
//! per verb plus an aggregate), which is what `stats` reports p50/p95
//! and requests/sec from.
//!
//! Every request gets a deterministic [`TraceId`] (`c<conn>-<seq>`:
//! the accepting connection's number plus a process-scoped request
//! counter), echoed in its response envelope. Pipeline requests run
//! under a request scope ([`telemetry::begin_request`]) so their spans
//! and pipeline attributes are collected per request; every request —
//! including control verbs, parse errors and `busy` rejections — is
//! summarized into the [`FlightRecorder`], whose JSON dump is returned
//! by the `dump` verb, logged to stderr when a request errors, and
//! drained on SIGINT shutdown. An optional side listener
//! (`--metrics-addr`) answers plain HTTP `GET /metrics` with the
//! Prometheus text exposition of the server counters, its latency
//! summary and the kernel cache's counters — the numbers `stats`
//! reports, read from the same places.

use crate::gate::Gate;
use crate::handlers;
use crate::protocol::{
    busy_response, error_response, ok_response, parse_request, Command, WireError, WIRE_SCHEMA,
};
use crate::signal;
use simdize::{IsaLevel, KernelCache};
use simdize_telemetry as telemetry;
use simdize_telemetry::{FlightEntry, FlightRecorder, Histogram, TraceId};
use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread;
use std::time::{Duration, Instant};

/// The longest request line a connection buffers, and the most a
/// `/metrics` connection reads (request line plus header block).
const MAX_LINE: usize = 1 << 20;

/// The most array bytes a request's source may declare. A `run` builds
/// a memory image of that size (a sweep one per job), so a source past
/// it is refused before anything is allocated.
pub const MAX_SOURCE_BYTES: u64 = 1 << 26;

/// How long one write to a client may block before the server gives up
/// on it and closes the connection. A client that stops reading would
/// otherwise pin its thread in `write_all` for good, and with it
/// [`Server::serve`], which joins every connection thread on shutdown.
pub const WRITE_TIMEOUT: Duration = Duration::from_secs(2);

/// How a [`Server`] is sized. All knobs have serve-sensible defaults.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServerConfig {
    /// Pipeline requests executing at once.
    pub workers: usize,
    /// Pipeline requests waiting for a slot; one more answers `busy`.
    pub queue_depth: usize,
    /// Lock-striped shards in the kernel cache.
    pub cache_shards: usize,
    /// LRU capacity per cache shard.
    pub cache_capacity: usize,
    /// Worker threads used *inside* one `sweep` request.
    pub sweep_threads: usize,
    /// Install a SIGINT handler so Ctrl-C shuts the server down
    /// (process-global; off by default so embedding tests and benches
    /// don't hijack the signal).
    pub handle_sigint: bool,
    /// Flight-recorder capacity: how many recent request summaries the
    /// server retains for `dump` / error / SIGINT postmortems.
    pub flight_capacity: usize,
    /// When set, a side listener on this address answers plain HTTP
    /// `GET /metrics` with the Prometheus text exposition.
    pub metrics_addr: Option<SocketAddr>,
}

impl Default for ServerConfig {
    fn default() -> ServerConfig {
        ServerConfig {
            workers: 2,
            queue_depth: 64,
            cache_shards: 8,
            cache_capacity: 32,
            sweep_threads: 2,
            handle_sigint: false,
            flight_capacity: 128,
            metrics_addr: None,
        }
    }
}

/// Latency + traffic metrics, one histogram per verb plus an
/// aggregate, all in microseconds.
struct Metrics {
    all_us: Histogram,
    per_cmd: Vec<(&'static str, Histogram)>,
}

impl Metrics {
    fn new() -> Metrics {
        Metrics {
            all_us: Histogram::new(),
            per_cmd: Vec::new(),
        }
    }

    fn record(&mut self, cmd: &'static str, us: u64) {
        self.all_us.observe(us);
        match self.per_cmd.iter_mut().find(|(name, _)| *name == cmd) {
            Some((_, h)) => h.observe(us),
            None => {
                let mut h = Histogram::new();
                h.observe(us);
                self.per_cmd.push((cmd, h));
            }
        }
    }
}

/// State shared by the accept loop and the connection threads.
struct Shared {
    config: ServerConfig,
    cache: KernelCache,
    gate: Gate,
    metrics: Mutex<Metrics>,
    flight: FlightRecorder,
    started: Instant,
    stop: AtomicBool,
    requests: AtomicU64,
    busy: AtomicU64,
    errors: AtomicU64,
    connections: AtomicU64,
}

impl Shared {
    fn stopping(&self) -> bool {
        self.stop.load(Ordering::SeqCst) || (self.config.handle_sigint && signal::sigint_received())
    }

    /// Summarizes one finished request into the flight recorder.
    fn note_flight(
        &self,
        trace: TraceId,
        verb: &str,
        elapsed: Duration,
        attrs: BTreeMap<String, String>,
        error: Option<String>,
    ) {
        self.flight.record(FlightEntry {
            seq: 0,
            trace_id: trace.to_string(),
            verb: verb.to_string(),
            latency_us: elapsed.as_micros().min(u64::MAX as u128) as u64,
            ok: error.is_none(),
            attrs,
            error,
        });
    }

    /// The Prometheus text exposition, read from the same sources as
    /// `stats`: the server's own atomics, its aggregate latency
    /// [`Histogram`], the flight recorder and [`KernelCache::stats`].
    fn metrics_text(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let cache = self.cache.stats();
        for (name, v) in [
            ("requests_total", self.requests.load(Ordering::Relaxed)),
            ("busy_total", self.busy.load(Ordering::Relaxed)),
            ("errors_total", self.errors.load(Ordering::Relaxed)),
            ("connections_total", self.connections.load(Ordering::Relaxed)),
            ("flight_recorded_total", self.flight.recorded()),
            ("cache_hits_total", cache.hits),
            ("cache_misses_total", cache.misses),
            ("cache_evictions_total", cache.evictions),
        ] {
            let _ = writeln!(out, "# TYPE simdize_server_{name} counter");
            let _ = writeln!(out, "simdize_server_{name} {v}");
        }
        for (name, v) in [
            ("uptime_ms", self.started.elapsed().as_millis() as u64),
            ("cache_occupied", cache.occupied() as u64),
        ] {
            let _ = writeln!(out, "# TYPE simdize_server_{name} gauge");
            let _ = writeln!(out, "simdize_server_{name} {v}");
        }
        {
            let metrics = self.metrics.lock().expect("metrics poisoned");
            let h = &metrics.all_us;
            let _ = writeln!(out, "# TYPE simdize_server_latency_us summary");
            let _ = writeln!(
                out,
                "simdize_server_latency_us{{quantile=\"0.5\"}} {}",
                h.quantile(0.5)
            );
            let _ = writeln!(
                out,
                "simdize_server_latency_us{{quantile=\"0.95\"}} {}",
                h.quantile(0.95)
            );
            let _ = writeln!(out, "simdize_server_latency_us_sum {}", h.sum());
            let _ = writeln!(out, "simdize_server_latency_us_count {}", h.count());
        }
        out
    }

    /// The `stats` response body.
    fn stats_json(&self) -> String {
        let uptime = self.started.elapsed();
        let requests = self.requests.load(Ordering::Relaxed);
        let metrics = self.metrics.lock().expect("metrics poisoned");
        let mut per_cmd = String::new();
        for (k, (name, h)) in metrics.per_cmd.iter().enumerate() {
            if k > 0 {
                per_cmd.push(',');
            }
            per_cmd.push_str(&format!(
                "{{\"cmd\":\"{name}\",\"count\":{},\"p50_us\":{},\"p95_us\":{}}}",
                h.count(),
                h.quantile(0.5),
                h.quantile(0.95)
            ));
        }
        let cache = self.cache.stats();
        let occupancy: Vec<String> = cache.occupancy.iter().map(usize::to_string).collect();
        format!(
            "{{\"schema\":\"{WIRE_SCHEMA}\",\"isa\":\"{}\",\
             \"uptime_ms\":{},\"requests\":{requests},\
             \"busy\":{},\"errors\":{},\"connections\":{},\
             \"requests_per_sec\":{:.2},\
             \"latency\":{{\"count\":{},\"mean_us\":{:.1},\"p50_us\":{},\"p95_us\":{},\"max_us\":{}}},\
             \"commands\":[{per_cmd}],\
             \"cache\":{{\"hits\":{},\"misses\":{},\"evictions\":{},\"hit_rate\":{:.4},\
             \"occupied\":{},\"capacity_per_shard\":{},\"occupancy\":[{}]}},\
             \"queue\":{{\"depth\":{},\"capacity\":{}}},\"workers\":{},\
             \"flight\":{{\"recorded\":{},\"capacity\":{}}}}}",
            IsaLevel::detect(),
            uptime.as_millis(),
            self.busy.load(Ordering::Relaxed),
            self.errors.load(Ordering::Relaxed),
            self.connections.load(Ordering::Relaxed),
            requests as f64 / uptime.as_secs_f64().max(1e-9),
            metrics.all_us.count(),
            metrics.all_us.mean(),
            metrics.all_us.quantile(0.5),
            metrics.all_us.quantile(0.95),
            metrics.all_us.max(),
            cache.hits,
            cache.misses,
            cache.evictions,
            cache.hit_rate(),
            cache.occupied(),
            cache.capacity_per_shard,
            occupancy.join(","),
            self.gate.waiting(),
            self.config.queue_depth,
            self.config.workers,
            self.flight.recorded(),
            self.flight.capacity(),
        )
    }
}

/// What [`Server::serve`] reports once the server has drained.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServeSummary {
    /// Total requests answered (including errors and `busy`).
    pub requests: u64,
    /// Requests rejected with the `busy` envelope.
    pub busy: u64,
    /// Malformed or failed requests.
    pub errors: u64,
    /// Connections accepted over the server's lifetime.
    pub connections: u64,
}

/// A bound (but not yet serving) simdization server.
pub struct Server {
    listener: TcpListener,
    addr: SocketAddr,
    metrics_listener: Option<(TcpListener, SocketAddr)>,
    shared: Arc<Shared>,
}

impl Server {
    /// Binds `addr` (e.g. `127.0.0.1:0` for an ephemeral port), plus
    /// the metrics side listener when the config asks for one.
    ///
    /// # Errors
    ///
    /// Propagates socket errors.
    pub fn bind(addr: &str, config: ServerConfig) -> std::io::Result<Server> {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        let metrics_listener = match config.metrics_addr {
            Some(maddr) => {
                let l = TcpListener::bind(maddr)?;
                let bound = l.local_addr()?;
                Some((l, bound))
            }
            None => None,
        };
        let shared = Arc::new(Shared {
            cache: KernelCache::new(config.cache_shards, config.cache_capacity),
            gate: Gate::new(config.workers, config.queue_depth),
            metrics: Mutex::new(Metrics::new()),
            flight: FlightRecorder::new(config.flight_capacity, 8),
            started: Instant::now(),
            stop: AtomicBool::new(false),
            requests: AtomicU64::new(0),
            busy: AtomicU64::new(0),
            errors: AtomicU64::new(0),
            connections: AtomicU64::new(0),
            config,
        });
        Ok(Server {
            listener,
            addr,
            metrics_listener,
            shared,
        })
    }

    /// The actually-bound address (resolves an ephemeral port).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// The actually-bound metrics address, when the config asked for
    /// the `/metrics` side listener.
    pub fn metrics_addr(&self) -> Option<SocketAddr> {
        self.metrics_listener.as_ref().map(|(_, a)| *a)
    }

    /// Serves until a `shutdown` request (or SIGINT, when configured)
    /// arrives, then joins the connection threads — each finishes and
    /// answers the request it is executing or has waiting at the gate —
    /// and returns the traffic summary.
    ///
    /// # Errors
    ///
    /// Propagates socket errors from the accept loop.
    pub fn serve(self) -> std::io::Result<ServeSummary> {
        if self.shared.config.handle_sigint {
            signal::install_sigint_handler();
        }
        self.listener.set_nonblocking(true)?;
        let metrics_thread = match self.metrics_listener {
            Some((listener, _)) => {
                listener.set_nonblocking(true)?;
                let shared = Arc::clone(&self.shared);
                Some(
                    thread::Builder::new()
                        .name("simdize-metrics".to_string())
                        .spawn(move || metrics_loop(&listener, &shared))
                        .expect("spawn metrics thread"),
                )
            }
            None => None,
        };
        let mut conns: Vec<thread::JoinHandle<()>> = Vec::new();
        while !self.shared.stopping() {
            match self.listener.accept() {
                Ok((stream, _)) => {
                    let conn_id = self.shared.connections.fetch_add(1, Ordering::Relaxed) + 1;
                    let shared = Arc::clone(&self.shared);
                    let handle = thread::Builder::new()
                        .name("simdize-conn".to_string())
                        .spawn(move || connection_loop(stream, &shared, conn_id))
                        .expect("spawn connection thread");
                    conns.push(handle);
                    // Opportunistically reap finished connections so
                    // the handle list doesn't grow without bound.
                    conns.retain(|h| !h.is_finished());
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => {
                    thread::sleep(Duration::from_millis(5));
                }
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
        // Set the flag (a SIGINT exit has not yet) and join: idle
        // connections notice within their read timeout, busy ones
        // finish and answer first.
        self.shared.stop.store(true, Ordering::SeqCst);
        for conn in conns {
            let _ = conn.join();
        }
        if let Some(m) = metrics_thread {
            let _ = m.join();
        }
        // SIGINT drain: leave the postmortem on stderr before the
        // process goes away.
        if self.shared.config.handle_sigint && signal::sigint_received() {
            eprintln!(
                "simdize serve: SIGINT flight dump {}",
                self.shared.flight.render_json()
            );
        }
        Ok(ServeSummary {
            requests: self.shared.requests.load(Ordering::Relaxed),
            busy: self.shared.busy.load(Ordering::Relaxed),
            errors: self.shared.errors.load(Ordering::Relaxed),
            connections: self.shared.connections.load(Ordering::Relaxed),
        })
    }
}

/// Answers plain HTTP on the metrics side listener until the server
/// stops. Only `GET /metrics` exists; everything else is 404.
fn metrics_loop(listener: &TcpListener, shared: &Shared) {
    while !shared.stopping() {
        match listener.accept() {
            Ok((stream, _)) => serve_metrics_conn(stream, shared),
            Err(e) if e.kind() == ErrorKind::WouldBlock => {
                thread::sleep(Duration::from_millis(5));
            }
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(_) => return,
        }
    }
}

fn serve_metrics_conn(stream: TcpStream, shared: &Shared) {
    let _ = stream.set_read_timeout(Some(Duration::from_millis(500)));
    let _ = stream.set_write_timeout(Some(WRITE_TIMEOUT));
    let mut reader = BufReader::new(match stream.try_clone() {
        Ok(s) => s,
        Err(_) => return,
    })
    .take(MAX_LINE as u64);
    let mut request_line = String::new();
    if reader.read_line(&mut request_line).is_err() {
        return;
    }
    // Drain the header block so the peer sees a clean half-close.
    let mut header = String::new();
    while reader.read_line(&mut header).is_ok() {
        if header.trim().is_empty() {
            break;
        }
        header.clear();
    }
    let mut stream = stream;
    let (status, body) = if request_line.starts_with("GET /metrics") {
        ("200 OK", shared.metrics_text())
    } else {
        ("404 Not Found", "not found\n".to_string())
    };
    let _ = write!(
        stream,
        "HTTP/1.1 {status}\r\nContent-Type: text/plain; version=0.0.4\r\n\
         Content-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    );
    let _ = stream.flush();
}

fn connection_loop(stream: TcpStream, shared: &Shared, conn_id: u64) {
    let _ = stream.set_read_timeout(Some(Duration::from_millis(100)));
    let _ = stream.set_write_timeout(Some(WRITE_TIMEOUT));
    let _ = stream.set_nodelay(true);
    let mut writer = match stream.try_clone() {
        Ok(w) => w,
        Err(_) => return,
    };
    let mut reader = BufReader::new(stream);
    let mut line = String::new();
    loop {
        line.clear();
        // The short read timeout doubles as the shutdown poll: on
        // timeout any partially-read bytes stay buffered in `line`
        // only if read_line appended them — so we must not clear the
        // buffer between retries of the same line. `take` stops the
        // read one byte past the cap, newline or not.
        let n = loop {
            let room = (MAX_LINE + 1).saturating_sub(line.len()) as u64;
            match reader.by_ref().take(room).read_line(&mut line) {
                Ok(n) => break n,
                Err(e)
                    if matches!(
                        e.kind(),
                        ErrorKind::WouldBlock | ErrorKind::TimedOut | ErrorKind::Interrupted
                    ) =>
                {
                    if shared.stopping() {
                        return;
                    }
                }
                Err(_) => return,
            }
        };
        if n == 0 {
            return; // client closed
        }
        if line.trim().is_empty() {
            continue;
        }
        let response = handle_line(&line, shared, conn_id);
        if writer
            .write_all(response.as_bytes())
            .and_then(|()| writer.write_all(b"\n"))
            .is_err()
        {
            return;
        }
        if line.len() > MAX_LINE || shared.stopping() {
            return;
        }
    }
}

/// Parses one request line and executes it on this thread — control
/// verbs at once, pipeline verbs once the gate admits them. Every line
/// — including malformed and over-long ones — gets a trace id and a
/// flight entry.
fn handle_line(line: &str, shared: &Shared, conn_id: u64) -> String {
    let started = Instant::now();
    let trace = TraceId::next(conn_id);
    let trace_str = trace.to_string();
    let parsed = if line.len() > MAX_LINE {
        let message = format!("request line exceeds {MAX_LINE} bytes; closing the connection");
        Err(WireError::new(None, message))
    } else {
        parse_request(line.trim())
    };
    let mut attrs = BTreeMap::new();
    let (id, verb, outcome) = match parsed {
        Err(WireError { id, message }) => (id.unwrap_or(0), "error", Err(message)),
        Ok(request) => {
            let verb = request.cmd.name();
            let outcome = match &request.cmd {
                Command::Ping => Ok(format!("{{\"pong\":true,\"schema\":\"{WIRE_SCHEMA}\"}}")),
                Command::Stats => Ok(shared.stats_json()),
                Command::Dump => Ok(shared.flight.render_json()),
                Command::Shutdown => {
                    shared.stop.store(true, Ordering::SeqCst);
                    Ok("{\"stopping\":true}".to_string())
                }
                cmd => {
                    let Some(_permit) = shared.gate.enter() else {
                        shared.busy.fetch_add(1, Ordering::Relaxed);
                        shared.requests.fetch_add(1, Ordering::Relaxed);
                        let error = Some("busy: job queue full".to_string());
                        shared.note_flight(trace, "busy", started.elapsed(), attrs, error);
                        return busy_response(request.id, &trace_str);
                    };
                    // The request scope collects this request's spans
                    // and pipeline attributes (policy, isa, cache
                    // hit/miss, …) — per request, however many
                    // connections execute concurrently.
                    let scope = telemetry::begin_request(trace, verb);
                    let outcome = handlers::execute(cmd, &shared.cache, &shared.config);
                    let finished = scope.finish(outcome.as_ref().err().cloned());
                    // The `trace` verb's result is this very scope.
                    let outcome = match cmd {
                        Command::Trace(_) => outcome.map(|_| finished.render_json()),
                        _ => outcome,
                    };
                    attrs = finished.attrs;
                    outcome
                }
            };
            (request.id, verb, outcome)
        }
    };
    // One tail for every verb. Latency runs from the moment the line
    // was read, so a wait at the gate shows in `stats`.
    let elapsed = started.elapsed();
    let response = match &outcome {
        Ok(result) => ok_response(id, &trace_str, result),
        Err(message) => {
            shared.errors.fetch_add(1, Ordering::Relaxed);
            error_response(id, &trace_str, message)
        }
    };
    let failed = outcome.is_err();
    shared.note_flight(trace, verb, elapsed, attrs, outcome.err());
    if failed {
        // Error postmortem: the dump (which includes this request)
        // goes to the server log.
        eprintln!(
            "simdize serve: request {trace} ({verb}) failed; flight dump {}",
            shared.flight.render_json()
        );
    }
    let us = elapsed.as_micros().min(u64::MAX as u128) as u64;
    shared.metrics.lock().expect("metrics poisoned").record(verb, us);
    shared.requests.fetch_add(1, Ordering::Relaxed);
    response
}
