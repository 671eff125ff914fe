//! `serve-hot`: the repository's real end-to-end path. A server in
//! this process, two closed-loop connections, `run` requests over a
//! hot set that always hits the kernel cache — so a request pays wire
//! parse, queue hand-off, the whole front half again, a one-job sweep,
//! the scalar oracle, render and write.
//!
//! Closed loop, because a compile service's callers are build tools
//! that wait for the reply; an open-loop generator on two shared cores
//! would measure the scheduler.

use crate::calib::SpeedReadings;
use crate::corpus;
use crate::stats::{gmean, median, Round, RoundSummary};
use crate::tracer::{self, RoundFold, Tracer};
use crate::{
    at_unit_speed, end_to_end, is_traced_round, set_overhead_and_tail, sys, write_trace, Context,
    Layers, Outcome, Sizing,
};
use simdize::{
    parse_program, program_fingerprint, run_scalar, run_sweep_shared, IsaLevel, KernelCache,
    KernelOptions, MemoryImage, PredecodedKernel, RunInput, SweepBackend, SweepJob, SweepOptions,
};
use simdize_server::protocol::{parse_request, Command};
use simdize_server::{ServeSummary, Server, ServerConfig};
use simdize_telemetry::json::{self, Json};
use std::collections::HashSet;
use std::io::{self, BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Barrier;
use std::thread;
use std::time::Instant;

/// Passes over the request set per connection per round.
pub const PASSES: usize = 13;

/// Closed-loop connections; at most `nproc` on the box this was sized on.
pub const CLIENTS: usize = 2;

/// Memory-image seeds each source is requested with.
const IMAGE_SEEDS: u64 = 4;

/// Sources synthesized from `--seed`, beside the five sample loops.
const SYNTHESIZED: usize = 11;

/// Pings and replay rounds of the traced run.
const PINGS: usize = 2000;
const REPLAY_ROUNDS: usize = 5;

/// The sample loops every seed's hot set starts with.
const SAMPLE_LOOPS: [&str; 5] = [
    include_str!("../../loops/figure1.loop"),
    include_str!("../../loops/runtime.loop"),
    include_str!("../../loops/dot_product.loop"),
    include_str!("../../loops/deinterleave.loop"),
    include_str!("../../loops/halfword.loop"),
];

/// One request of the hot set and the reply it must get.
#[derive(Debug, Clone)]
pub struct Request {
    /// The request line, newline included.
    pub line: String,
    /// How the reply must start, up to the server-assigned trace id.
    prefix: String,
    /// The rest of the reply after the trace id, as set-up received it
    /// (`","ok":true,"result":{…}}`). Tests corrupt one to see the run
    /// fail.
    pub expected: String,
    opd: f64,
}

/// The request lines for `seed`: 16 sources × 4 image seeds, ids 1..=64.
/// Replies are filled in by [`Live::learn`].
pub fn requests(seed: u64) -> Vec<Request> {
    let mut seen = HashSet::new();
    let synthesized = corpus::synthesized(seed, SYNTHESIZED, |l| seen.insert(l.text.clone()));
    let sources = SAMPLE_LOOPS
        .iter()
        .map(|s| s.to_string())
        .chain(synthesized.into_iter().map(|l| l.text));
    let mut out = Vec::new();
    for source in sources {
        let source = json::escape(&source);
        for image_seed in 0..IMAGE_SEEDS {
            let id = out.len() + 1;
            out.push(Request {
                line: format!(
                    "{{\"v\":1,\"id\":{id},\"cmd\":\"run\",\"source\":\"{source}\",\
                     \"seed\":{image_seed},\"engine\":\"simd\"}}\n"
                ),
                prefix: format!("{{\"v\":1,\"id\":{id},\"trace\":\""),
                expected: String::new(),
                opd: 1.0,
            });
        }
    }
    out
}

/// The reply with its envelope's trace id cut out: `None` unless it
/// starts as `request`'s reply must.
fn after_trace<'a>(reply: &'a str, request: &Request) -> Option<&'a str> {
    let rest = reply.strip_prefix(request.prefix.as_str())?;
    Some(&rest[rest.find('"')?..])
}

/// One client connection.
struct Conn {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
    reply: String,
}

impl Conn {
    fn open(addr: SocketAddr) -> io::Result<Conn> {
        let writer = TcpStream::connect(addr)?;
        writer.set_nodelay(true)?;
        Ok(Conn {
            reader: BufReader::new(writer.try_clone()?),
            writer,
            reply: String::new(),
        })
    }

    /// Sends one line (newline included) and waits for the reply line.
    fn call(&mut self, line: &str) -> io::Result<&str> {
        self.writer.write_all(line.as_bytes())?;
        self.reply.clear();
        if self.reader.read_line(&mut self.reply)? == 0 {
            return Err(io::ErrorKind::UnexpectedEof.into());
        }
        Ok(self.reply.trim_end())
    }

    /// The cheap check of the timed rounds: the reply, trace id aside,
    /// is byte-identical to the one set-up verified.
    fn checked(&mut self, request: &Request) -> bool {
        match self.call(&request.line) {
            Ok(reply) => after_trace(reply, request) == Some(request.expected.as_str()),
            Err(_) => false,
        }
    }
}

/// A serving server and the thread it runs on.
struct Live {
    addr: SocketAddr,
    thread: thread::JoinHandle<io::Result<ServeSummary>>,
}

impl Live {
    fn start() -> io::Result<Live> {
        let server = Server::bind("127.0.0.1:0", ServerConfig::default())?;
        Ok(Live {
            addr: server.local_addr(),
            thread: thread::spawn(move || server.serve()),
        })
    }

    /// The set-up pass: sends every request once and holds each reply
    /// to the full check — `"ok":true`, and `"verified":true`, which
    /// the server only reports when its output matched the scalar
    /// oracle byte for byte. Records the reply for the cheap check.
    /// Returns the failed count.
    fn learn(&self, requests: &mut [Request]) -> io::Result<u64> {
        let mut conn = Conn::open(self.addr)?;
        let mut failed = 0;
        for request in requests {
            let reply = conn.call(&request.line)?;
            let doc = json::parse(reply).ok();
            let result = doc.as_ref().and_then(|d| d.get("result"));
            let ok = doc.as_ref().and_then(|d| d.get("ok")) == Some(&Json::Bool(true))
                && result.and_then(|r| r.get("verified")) == Some(&Json::Bool(true));
            let opd = result.and_then(|r| r.get("opd")).and_then(Json::as_f64);
            match (ok, opd, after_trace(reply, request)) {
                (true, Some(opd), Some(expected)) => {
                    request.opd = opd;
                    request.expected = expected.to_string();
                }
                _ => failed += 1,
            }
        }
        Ok(failed)
    }

    /// The `result` of the `stats` verb.
    fn stats(&self) -> io::Result<Json> {
        let mut conn = Conn::open(self.addr)?;
        let reply = conn.call("{\"v\":1,\"id\":0,\"cmd\":\"stats\"}\n")?;
        json::parse(reply)
            .ok()
            .and_then(|d| d.get("result").cloned())
            .ok_or_else(|| io::ErrorKind::InvalidData.into())
    }

    fn stop(self) -> io::Result<ServeSummary> {
        Conn::open(self.addr)?.call("{\"v\":1,\"id\":0,\"cmd\":\"shutdown\"}\n")?;
        self.thread.join().expect("server thread panicked")
    }
}

/// What one client connection measured.
struct Client {
    rounds: Vec<Round>,
    /// Whether round `r` was traced, parallel to `rounds`.
    traced: Vec<bool>,
    failed: u64,
    tracer: Tracer,
}

/// Drives `CLIENTS` closed-loop connections through `rounds` rounds,
/// each connection in its own seed-derived order, rounds started
/// together. Between rounds, while every connection is idle, this
/// thread takes a machine-speed reading. With `trace`, odd rounds
/// record one `server.rtt` span per request.
#[allow(clippy::too_many_arguments)]
fn drive(
    addr: SocketAddr,
    requests: &[Request],
    seed: u64,
    rounds: usize,
    passes: usize,
    trace: bool,
    epoch: Instant,
    speed: &mut SpeedReadings,
) -> io::Result<Vec<Client>> {
    let conns: Vec<Conn> = (0..CLIENTS)
        .map(|_| Conn::open(addr))
        .collect::<io::Result<_>>()?;
    let barrier = Barrier::new(CLIENTS + 1);
    let barrier = &barrier;
    Ok(thread::scope(|s| {
        let handles: Vec<_> = conns
            .into_iter()
            .enumerate()
            .map(|(c, mut conn)| {
                s.spawn(move || {
                    let order = corpus::schedule(seed.wrapping_add(c as u64), requests.len());
                    let mut client = Client {
                        rounds: Vec::with_capacity(rounds),
                        traced: Vec::with_capacity(rounds),
                        failed: 0,
                        tracer: Tracer::new(epoch, 1 + c as u32),
                    };
                    for r in 0..rounds {
                        // Idle while the reading is taken, then go.
                        barrier.wait();
                        barrier.wait();
                        let this_traced = is_traced_round(trace, r);
                        let mut lat_ns = Vec::with_capacity(order.len() * passes);
                        let start = Instant::now();
                        for _ in 0..passes {
                            for &i in &order {
                                let t0 = Instant::now();
                                let ok = if this_traced {
                                    let op = lat_ns.len() as u32;
                                    client
                                        .tracer
                                        .op(op, "server.rtt", |_| conn.checked(&requests[i]))
                                } else {
                                    conn.checked(&requests[i])
                                };
                                lat_ns.push(t0.elapsed().as_nanos() as u64);
                                client.failed += u64::from(!ok);
                            }
                        }
                        let secs = start.elapsed().as_secs_f64();
                        if this_traced {
                            client.tracer.end_round();
                        }
                        client.rounds.push(Round { secs, lat_ns });
                        client.traced.push(this_traced);
                    }
                    barrier.wait();
                    client
                })
            })
            .collect();
        for _ in 0..rounds {
            barrier.wait();
            speed.take();
            barrier.wait();
        }
        barrier.wait();
        speed.take();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    }))
}

/// Per-round summaries with both connections' latencies pooled, for
/// the rounds whose traced flag equals `traced`.
fn pooled(clients: &[Client], traced: bool) -> Vec<RoundSummary> {
    (0..clients[0].rounds.len())
        .filter(|&r| clients[0].traced[r] == traced)
        .map(|r| {
            Round {
                // Rates are summed per connection; this one is unused.
                secs: clients.iter().map(|c| c.rounds[r].secs).fold(0.0, f64::max),
                lat_ns: clients
                    .iter()
                    .flat_map(|c| c.rounds[r].lat_ns.iter().copied())
                    .collect(),
            }
            .summary()
        })
        .collect()
}

/// The sum over connections of each connection's median round rate.
fn summed_rate(clients: &[Client], traced: bool) -> f64 {
    clients
        .iter()
        .map(|c| {
            let rates: Vec<f64> = (0..c.rounds.len())
                .filter(|&r| c.traced[r] == traced)
                .map(|r| c.rounds[r].lat_ns.len() as f64 / c.rounds[r].secs)
                .collect();
            median(&rates)
        })
        .sum()
}

/// Runs the workload start to finish. `corrupt` is called on the
/// learned requests before the timed rounds; tests use it to damage an
/// expected reply and watch the run fail.
///
/// # Panics
///
/// Panics when the loopback server cannot be started or reached: the
/// benchmark cannot measure anything then.
pub fn run(
    seed: u64,
    sizing: Sizing,
    trace: bool,
    corrupt: impl FnOnce(&mut [Request]),
) -> Outcome {
    let epoch = Instant::now();
    let mut speed = SpeedReadings::default();
    let ops_per_round = requests(seed).len() * sizing.passes;
    let mut attempted = 0u64;
    let mut failed = 0u64;
    let mut setup_secs = Vec::with_capacity(sizing.setups);
    let mut kept: Option<(Live, Vec<Request>)> = None;
    for _ in 0..sizing.setups.max(1) {
        if let Some((live, _)) = kept.take() {
            live.stop().expect("server stops");
        }
        let t0 = Instant::now();
        let mut reqs = requests(seed);
        let live = Live::start().expect("server starts on loopback");
        failed += live
            .learn(&mut reqs)
            .expect("set-up pass reaches the server");
        attempted += reqs.len() as u64;
        let (addr, warmup) = (live.addr, sizing.warmup);
        let warm = drive(
            addr,
            &reqs,
            seed,
            warmup,
            sizing.passes,
            false,
            epoch,
            &mut speed,
        )
        .expect("warm-up reaches the server");
        failed += warm.iter().map(|c| c.failed).sum::<u64>();
        attempted += (CLIENTS * sizing.warmup * ops_per_round) as u64;
        setup_secs.push(t0.elapsed().as_secs_f64());
        kept = Some((live, reqs));
    }
    let (live, mut reqs) = kept.expect("at least one set-up");
    corrupt(&mut reqs);

    let cpu0 = sys::cpu_seconds() - speed.cpu_secs();
    let (addr, rounds) = (live.addr, sizing.rounds);
    let clients = drive(
        addr,
        &reqs,
        seed,
        rounds,
        sizing.passes,
        trace,
        epoch,
        &mut speed,
    )
    .expect("timed rounds reach the server");
    let cpu_secs = sys::cpu_seconds() - speed.cpu_secs() - cpu0;
    let timed_ops = (CLIENTS * sizing.rounds * ops_per_round) as u64;
    attempted += timed_ops;
    failed += clients.iter().map(|c| c.failed).sum::<u64>();

    let plain = pooled(&clients, false);
    let mut metrics = if trace {
        let mut layers = Layers::default();
        if clients[0].traced.contains(&true) {
            let overhead = summed_rate(&clients, true) / summed_rate(&clients, false);
            set_overhead_and_tail(&mut layers, &plain, overhead);
            let mut pings = Tracer::new(epoch, 0);
            failed += ping(&live, &mut pings).expect("pings reach the server");
            let (replays, replayed, replay_failed) = replay(&reqs, seed, sizing.passes, epoch);
            attempted += replayed;
            failed += replay_failed;
            let stats = live.stats().expect("stats verb answers");
            let folds = |tracers: &[&Tracer]| -> Vec<RoundFold> {
                tracers
                    .iter()
                    .flat_map(|t| t.folds().iter().cloned())
                    .collect()
            };
            let rtt: Vec<&Tracer> = clients.iter().map(|c| &c.tracer).collect();
            let inproc: Vec<&Tracer> = replays.iter().chain([&pings]).collect();
            set_layers(&mut layers, &folds(&rtt), &folds(&inproc), &stats);
            let threads: Vec<_> = inproc.iter().chain(&rtt).map(|t| t.kept()).collect();
            write_trace("serve-hot", &threads);
        }
        layers.metrics
    } else {
        let opd: Vec<f64> = reqs.iter().map(|r| r.opd).collect();
        end_to_end(
            &plain,
            summed_rate(&clients, false),
            cpu_secs,
            timed_ops,
            &setup_secs,
            gmean(&opd),
        )
    };
    live.stop().expect("server stops");
    at_unit_speed(&mut metrics, speed.median());

    Outcome {
        context: Context::new(
            "serve-hot",
            seed,
            trace,
            sizing,
            ops_per_round,
            CLIENTS,
            speed.median(),
        ),
        attempted,
        failed,
        metrics,
    }
}

/// `PINGS` round trips of the inline `ping` verb on an otherwise idle
/// server: the floor under every request's wire and wake-up cost.
fn ping(live: &Live, t: &mut Tracer) -> io::Result<u64> {
    let mut conn = Conn::open(live.addr)?;
    let mut failed = 0;
    for op in 0..PINGS {
        let pong = t.op(op as u32, "server.ping_rtt", |_| {
            conn.call("{\"v\":1,\"id\":0,\"cmd\":\"ping\"}\n")
                .map(|reply| reply.contains("\"pong\":true"))
        })?;
        failed += u64::from(!pong);
    }
    t.end_round();
    Ok(failed)
}

/// Replays the identical requests in this process, the way the `run`
/// handler executes them, on as many threads as there were
/// connections, each in its connection's order — the same concurrency
/// without the server. (A single replaying thread leaves the other
/// core idle, and waking an idle core for the sweep's worker thread
/// then costs more than the whole request does under load.) Returns
/// the threads' tracers, ops replayed and ops failed.
fn replay(reqs: &[Request], seed: u64, passes: usize, epoch: Instant) -> (Vec<Tracer>, u64, u64) {
    let cache = KernelCache::default();
    let cache = &cache;
    let barrier = Barrier::new(CLIENTS);
    let barrier = &barrier;
    let done: Vec<(Tracer, u64)> = thread::scope(|s| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|c| {
                s.spawn(move || {
                    let order = corpus::schedule(seed.wrapping_add(c as u64), reqs.len());
                    let mut tracer = Tracer::new(epoch, 10 + c as u32);
                    // Round 0 fills the cache; its spans go to a tracer
                    // nobody reads and its misses are not failures.
                    let mut unread = Tracer::new(epoch, 0);
                    let mut failed = 0;
                    for round in 0..=REPLAY_ROUNDS {
                        barrier.wait();
                        let t = if round == 0 { &mut unread } else { &mut tracer };
                        for pass in 0..passes {
                            for (k, &i) in order.iter().enumerate() {
                                let op = (pass * order.len() + k) as u32;
                                let ok = replay_one(&reqs[i], op, cache, t);
                                failed += u64::from(round > 0 && !ok);
                            }
                        }
                        t.end_round();
                    }
                    (tracer, failed)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("replay thread panicked"))
            .collect()
    });
    let failed = done.iter().map(|d| d.1).sum();
    let replayed = (CLIENTS * REPLAY_ROUNDS * passes * reqs.len()) as u64;
    (done.into_iter().map(|d| d.0).collect(), replayed, failed)
}

/// One replayed request, one span per layer (`replay`); then the parts
/// of the one-job sweep on their own (`parts`), so that the sweep's
/// batch overhead is what remains.
fn replay_one(request: &Request, op: u32, cache: &KernelCache, t: &mut Tracer) -> bool {
    let job = t.op(op, "replay", |t| {
        let parsed = t.span("server.wire_parse", |_| {
            parse_request(request.line.trim_end())
        });
        let Ok(Command::Run(exec)) = parsed.map(|r| r.cmd) else {
            return None;
        };
        let compiled = t.span("core.compile", |t| {
            let program = t.span("ir.parse", |_| parse_program(&exec.source)).ok()?;
            corpus::compile_traced(&program, t).ok()
        })?;
        let ub = compiled.source().trip().known().unwrap_or(exec.ub);
        let job = SweepJob {
            program: compiled,
            seed: exec.seed,
            input: RunInput {
                ub,
                params: exec.params,
            },
        };
        let options = SweepOptions::new(1).backend(SweepBackend::Simd);
        let swept = t.span("engine.sweep1", |_| {
            run_sweep_shared(std::slice::from_ref(&job), options, cache)
        });
        let outcome = swept.0.into_iter().next()?.ok()?;
        let same = outcome.verified
            && request
                .expected
                .contains(&format!("\"engine_ops\":{},", outcome.stats.total()));
        same.then_some(job)
    });
    let Some(job) = job else {
        return false;
    };
    let parts = t.op(op, "parts", |t| {
        let source = job.program.source();
        let (mut image, mut oracle) = t.span("vm.image_seed", |_| {
            let image = MemoryImage::with_seed(source, corpus::SHAPE, job.seed);
            let oracle = image.clone();
            (image, oracle)
        });
        let fingerprint = t.span("engine.fingerprint", |_| program_fingerprint(&job.program));
        let pre = t
            .span("engine.predecode", |_| PredecodedKernel::new(&job.program))
            .ok()?;
        let bake_opts = KernelOptions::new().disassembly(false);
        let (kernel, lookup) = t
            .span("engine.cache_hit", |_| {
                let isa = IsaLevel::detect();
                cache.get_or_bake_simd(fingerprint, &pre, &image, &job.input, &bake_opts, isa)
            })
            .ok()?;
        t.span("engine.run_short", |_| kernel.run(&mut image))
            .ok()?;
        t.span("vm.scalar_oracle", |_| {
            run_scalar(source, &mut oracle, job.input.ub, &job.input.params)
        })
        .ok()?;
        let same = t.span("vm.diff", |_| image.first_difference(&oracle).is_none());
        Some(same && lookup.hit)
    });
    parts == Some(true)
}

/// The `serve-hot` per-layer metrics. Shares are of the mean
/// client-observed round trip: each replayed layer's mean self time
/// over the mean `server.rtt`, with `engine.batch_overhead` (the
/// one-job sweep minus its parts) and `server.overhead` (round trip
/// minus replay) as the two remainders, so the shares sum to 1.
fn set_layers(out: &mut Layers, rtt: &[RoundFold], main: &[RoundFold], stats: &Json) {
    let rtt_us = tracer::mean_dur_us(rtt, "server.rtt");
    out.set("server.rtt.p50_us", tracer::p50_us(rtt, "server.rtt"));
    out.set(
        "server.ping_rtt.p50_us",
        tracer::p50_us(main, "server.ping_rtt"),
    );
    out.set(
        "engine.sweep1.p50_us",
        tracer::p50_us(main, "engine.sweep1"),
    );

    let front = [
        "server.wire_parse",
        "core.compile",
        "ir.parse",
        "reorg.build",
        "reorg.place",
        "codegen.generate",
    ];
    let parts = [
        "vm.image_seed",
        "engine.fingerprint",
        "engine.predecode",
        "engine.cache_hit",
        "engine.run_short",
        "vm.scalar_oracle",
        "vm.diff",
    ];
    let mut parts_us = 0.0;
    for (spans, is_part) in [(&front[..], false), (&parts[..], true)] {
        for span in spans {
            let self_us = tracer::mean_self_us(main, span);
            out.set(&format!("{span}.p50_us"), tracer::p50_us(main, span));
            out.set(&format!("{span}.share"), self_us / rtt_us);
            if is_part {
                parts_us += self_us;
            }
        }
    }
    let batch_us = tracer::mean_dur_us(main, "engine.sweep1") - parts_us;
    out.set("engine.batch_overhead.us", batch_us);
    out.set("engine.batch_overhead.share", batch_us / rtt_us);
    let server_us = rtt_us - tracer::mean_dur_us(main, "replay");
    out.set("server.overhead.us", server_us);
    out.set("server.overhead.share", server_us / rtt_us);
    out.set(
        "harness.share",
        tracer::mean_self_us(main, "replay") / rtt_us,
    );

    let num = |path: &[&str]| -> f64 {
        path.iter()
            .try_fold(stats, |j, key| j.get(key))
            .and_then(Json::as_f64)
            .unwrap_or(0.0)
    };
    out.set("engine.cache.hit_ratio", num(&["cache", "hit_rate"]));
    out.set(
        "server.busy_ratio",
        num(&["busy"]) / num(&["requests"]).max(1.0),
    );
}
