//! Wire-protocol contract tests for `simdize serve`: golden-pinned
//! request/response round-trips over a real TCP connection (trace ids
//! and timing fields normalized), malformed-request error paths,
//! backpressure, trace-id uniqueness, the flight recorder's ring and
//! dump verb, the Prometheus `/metrics` endpoint, a concurrent-client
//! stress test asserting that responses served from the kernel cache
//! are byte-identical to cold ones, and a connection-count stress test
//! (64 connections in tier-1, 1200 under `--ignored`).

use simdize_server::{Server, ServerConfig};
use simdize_suite::{assert_golden, normalize, sample};
use simdize_telemetry::json::{self, Json};
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::sync::{Arc, Barrier};
use std::time::Duration;

/// A running server plus a helper to open request/response clients.
struct Harness {
    addr: std::net::SocketAddr,
    handle: Option<std::thread::JoinHandle<std::io::Result<simdize_server::ServeSummary>>>,
}

struct Client {
    conn: TcpStream,
    reader: BufReader<TcpStream>,
}

impl Client {
    fn connect(addr: std::net::SocketAddr) -> Client {
        let conn = TcpStream::connect(addr).unwrap();
        let reader = BufReader::new(conn.try_clone().unwrap());
        Client { conn, reader }
    }

    /// Sends one request line and reads the one response line.
    fn roundtrip(&mut self, request: &str) -> String {
        writeln!(self.conn, "{request}").unwrap();
        let mut line = String::new();
        self.reader.read_line(&mut line).unwrap();
        assert!(line.ends_with('\n'), "response not newline-terminated");
        line.trim_end().to_string()
    }
}

impl Harness {
    fn start(config: ServerConfig) -> Harness {
        let server = Server::bind("127.0.0.1:0", config).unwrap();
        let addr = server.local_addr();
        let handle = std::thread::spawn(move || server.serve());
        Harness {
            addr,
            handle: Some(handle),
        }
    }

    fn client(&self) -> Client {
        Client::connect(self.addr)
    }

    fn shutdown(mut self) -> simdize_server::ServeSummary {
        let mut client = self.client();
        let resp = client.roundtrip(r#"{"v":1,"id":9999,"cmd":"shutdown"}"#);
        assert!(resp.contains("\"stopping\":true"), "{resp}");
        self.handle.take().unwrap().join().unwrap().unwrap()
    }
}

/// Escapes loop source for embedding in a request line.
fn inline(source: &str) -> String {
    json::escape(source)
}

/// The golden round-trip corpus: deterministic request/response pairs
/// (everything except `stats`, whose latency numbers necessarily
/// differ run to run).
fn golden_corpus() -> Vec<String> {
    let fig1 = inline(&sample("figure1"));
    let runtime = inline(&sample("runtime"));
    vec![
        r#"{"v":1,"id":1,"cmd":"ping"}"#.to_string(),
        format!(r#"{{"v":1,"id":2,"cmd":"compile","source":"{fig1}"}}"#),
        format!(r#"{{"v":1,"id":3,"cmd":"analyze","source":"{fig1}"}}"#),
        format!(r#"{{"v":1,"id":4,"cmd":"run","source":"{fig1}","seed":7}}"#),
        format!(r#"{{"v":1,"id":5,"cmd":"run","source":"{runtime}","seed":3,"ub":500}}"#),
        format!(
            r#"{{"v":1,"id":6,"cmd":"sweep","source":"{runtime}","seed":1,"ub":300,"count":6}}"#
        ),
        format!(r#"{{"v":1,"id":7,"cmd":"explain","source":"{fig1}","policy":"zero"}}"#),
        format!(r#"{{"v":1,"id":8,"cmd":"compile","source":"{runtime}","policy":"eager"}}"#),
        // The request-scoped trace export and the flight recorder's
        // dump, pinned right after the deterministic exec prefix (the
        // dump replays every entry recorded so far on this server).
        format!(r#"{{"v":1,"id":17,"cmd":"trace","source":"{fig1}"}}"#),
        r#"{"v":1,"id":18,"cmd":"dump"}"#.to_string(),
        r#"{"v":1,"id":9,"cmd":"frobnicate"}"#.to_string(),
        r#"{"v":2,"id":10,"cmd":"ping"}"#.to_string(),
        format!(r#"{{"v":1,"id":11,"cmd":"run","source":"{fig1}","policy":"unknown"}}"#),
        r#"{"v":1,"id":12,"cmd":"run","source":"arrays { broken"}"#.to_string(),
        format!(r#"{{"v":1,"id":13,"cmd":"verify","source":"{fig1}"}}"#),
        // The simd backend reports identical stats by construction, so
        // these responses match their fused-engine twins byte for byte
        // on every host — which is exactly what the golden pins.
        format!(r#"{{"v":1,"id":14,"cmd":"run","source":"{fig1}","seed":7,"engine":"simd"}}"#),
        format!(
            r#"{{"v":1,"id":15,"cmd":"sweep","source":"{runtime}","seed":1,"ub":300,"count":6,"engine":"simd"}}"#
        ),
        format!(r#"{{"v":1,"id":16,"cmd":"run","source":"{fig1}","engine":"jit"}}"#),
    ]
}

/// Pins the wire protocol byte for byte: each corpus request's
/// response over a live server must match `tests/golden/server-wire.txt`
/// (alternating request/response lines). Regenerate after an
/// intentional protocol change with
/// `UPDATE_GOLDEN=1 cargo test --test server`.
///
/// Sweeps run on one worker here: two workers race to bake, so which
/// job misses the cache — and so the `sweep` flight entries' cache and
/// fusion attributes — would depend on scheduling. The payloads do not,
/// and the many-connection tests keep multi-worker sweeps covered.
#[test]
fn wire_round_trips_golden() {
    let harness = Harness::start(ServerConfig {
        sweep_threads: 1,
        ..ServerConfig::default()
    });
    let mut client = harness.client();
    let mut transcript = String::new();
    for request in golden_corpus() {
        let response = client.roundtrip(&request);
        assert!(
            response.contains("\"trace\":\"c"),
            "response carries no trace id: {response}"
        );
        transcript.push_str(&request);
        transcript.push('\n');
        transcript.push_str(&normalize(&response));
        transcript.push('\n');
    }
    harness.shutdown();

    assert_golden(
        "tests/golden/server-wire.txt",
        &transcript,
        "wire-protocol drift",
    );
}

/// Malformed requests get error envelopes (with the id echoed whenever
/// it was recoverable) and never kill the connection.
#[test]
fn malformed_requests_answer_errors_and_keep_the_connection() {
    let harness = Harness::start(ServerConfig::default());
    let mut client = harness.client();
    let zero_trip = format!(
        r#"{{"v":1,"id":1,"cmd":"run","source":"{}","ub":0}}"#,
        inline(&sample("runtime"))
    );
    for (request, expect) in [
        ("this is not json", "bad JSON"),
        (r#"{"v":1,"cmd":"ping"}"#, "missing request `id`"),
        (r#"{"id":1,"cmd":"ping"}"#, "missing protocol version"),
        (
            r#"{"v":9,"id":1,"cmd":"ping"}"#,
            "unsupported protocol version",
        ),
        (r#"{"v":1,"id":1}"#, "missing `cmd`"),
        (r#"{"v":1,"id":1,"cmd":"nope"}"#, "unknown cmd"),
        (r#"{"v":1,"id":1,"cmd":"run"}"#, "missing `source`"),
        (
            r#"{"v":1,"id":1,"cmd":"run","source":"x","params":5}"#,
            "`params` must be an array",
        ),
        // Integer fields must be integers: fractional, negative where
        // unsigned, or out of range is an error, not a cast.
        (r#"{"v":1.5,"id":1,"cmd":"ping"}"#, "`v` must be an integer"),
        (r#"{"v":1,"id":-1,"cmd":"ping"}"#, "`id` must be an integer"),
        (
            r#"{"v":1,"id":1,"cmd":"run","source":"x","seed":-1}"#,
            "`seed` must be an integer",
        ),
        (
            r#"{"v":1,"id":1,"cmd":"run","source":"x","ub":2.5}"#,
            "`ub` must be an integer",
        ),
        (
            r#"{"v":1,"id":1,"cmd":"sweep","source":"x","count":1e300}"#,
            "`count` must be an integer",
        ),
        (
            r#"{"v":1,"id":1,"cmd":"run","source":"x","params":[1.5]}"#,
            "`params` must be an array of integers",
        ),
        // A zero-trip run of a runtime-trip loop has no data to measure.
        (zero_trip.as_str(), "`ub` must be at least 1"),
    ] {
        let response = client.roundtrip(request);
        let doc = json::parse(&response).unwrap_or_else(|e| panic!("{response}: {e}"));
        assert_eq!(doc.get("ok"), Some(&Json::Bool(false)), "{response}");
        let error = doc.get("error").and_then(Json::as_str).unwrap();
        assert!(error.contains(expect), "{response} missing {expect:?}");
    }
    // The connection survived all of it.
    let pong = client.roundtrip(r#"{"v":1,"id":42,"cmd":"ping"}"#);
    assert!(pong.contains("\"pong\":true"), "{pong}");
    harness.shutdown();
}

/// A source nested deeper than `simdize::MAX_EXPR_DEPTH` — 5 000
/// parentheses in 10 KB, or a 5 000-term sum — is refused with an
/// error reply, and the server keeps serving: such a `run` used to
/// overflow the connection thread's stack and abort the process.
#[test]
fn a_source_nested_too_deep_is_refused_and_the_server_keeps_serving() {
    let harness = Harness::start(ServerConfig::default());
    let mut client = harness.client();
    let parens = format!("{}b[i]{}", "(".repeat(5000), ")".repeat(5000));
    let sum = vec!["b[i+1]"; 5000].join(" + ");
    for (id, rhs) in [(1, parens), (2, sum)] {
        let source = format!(
            "arrays {{ a: i32[64] @ 0; b: i32[64] @ 4; }} for i in 0..10 {{ a[i] = {rhs}; }}"
        );
        let request = format!(
            r#"{{"v":1,"id":{id},"cmd":"run","source":"{}"}}"#,
            inline(&source)
        );
        let response = client.roundtrip(&request);
        let doc = json::parse(&response).unwrap_or_else(|e| panic!("{response}: {e}"));
        assert_eq!(doc.get("ok"), Some(&Json::Bool(false)), "{response}");
        let error = doc.get("error").and_then(Json::as_str).unwrap();
        assert!(error.contains("nests deeper than"), "{response}");
    }
    let pong = client.roundtrip(r#"{"v":1,"id":3,"cmd":"ping"}"#);
    assert!(pong.contains("\"pong\":true"), "{pong}");
    harness.shutdown();
}

/// A 200-term sum whose terms alternate offsets every three terms,
/// under `"policy":"optimal"`, nests its shifts 66 deep: code generation
/// stops past `simdize::MAX_REGS` and the request gets an error reply
/// at once, where the generator used to run for minutes and wrap its
/// register counter. The connection keeps serving.
#[test]
fn nested_shifts_past_the_register_cap_are_refused_and_the_server_keeps_serving() {
    let harness = Harness::start(ServerConfig::default());
    let mut client = harness.client();
    let rhs = (0..200)
        .map(|k| format!("b[i+{}]", k / 3 % 2))
        .collect::<Vec<_>>()
        .join(" + ");
    let source =
        format!("arrays {{ a: i32[64] @ 0; b: i32[64] @ 4; }} for i in 0..40 {{ a[i] = {rhs}; }}");
    let request = format!(
        r#"{{"v":1,"id":1,"cmd":"run","policy":"optimal","source":"{}"}}"#,
        inline(&source)
    );
    let response = client.roundtrip(&request);
    let doc = json::parse(&response).unwrap_or_else(|e| panic!("{response}: {e}"));
    assert_eq!(doc.get("ok"), Some(&Json::Bool(false)), "{response}");
    let error = doc.get("error").and_then(Json::as_str).unwrap();
    let cap = simdize::MAX_REGS.to_string();
    assert!(error.contains(&cap), "{response}");
    let pong = client.roundtrip(r#"{"v":1,"id":2,"cmd":"ping"}"#);
    assert!(pong.contains("\"pong\":true"), "{pong}");
    harness.shutdown();
}

/// A source whose arrays would not fit the server's cap is refused
/// before any image is allocated, and the connection keeps serving.
#[test]
fn an_oversized_source_is_refused_and_the_server_keeps_serving() {
    let harness = Harness::start(ServerConfig::default());
    let mut client = harness.client();
    let source = "arrays { a: i32[100000000000] @ 0; b: i32[100000000000] @ 0; } \
                  for i in 0..100 { a[i] = b[i+1]; }";
    for cmd in ["run", "sweep", "explain", "verify", "trace"] {
        let request = format!(r#"{{"v":1,"id":1,"cmd":"{cmd}","source":"{source}"}}"#);
        let response = client.roundtrip(&request);
        let doc = json::parse(&response).unwrap_or_else(|e| panic!("{response}: {e}"));
        assert_eq!(doc.get("ok"), Some(&Json::Bool(false)), "{response}");
        let error = doc.get("error").and_then(Json::as_str).unwrap();
        let cap = simdize_server::MAX_SOURCE_BYTES.to_string();
        assert!(
            error.contains(&cap),
            "{cmd}: {response} does not name the cap"
        );
    }
    let pong = client.roundtrip(r#"{"v":1,"id":2,"cmd":"ping"}"#);
    assert!(pong.contains("\"pong\":true"), "{pong}");
    harness.shutdown();
}

/// Reading a request costs time linear in its length: a `compile` line
/// just under `MAX_LINE`, its source mixing plain runs, escapes and
/// multi-byte UTF-8, is answered well inside a bound a debug build
/// meets. (A string scan that re-validated the rest of the line per
/// character took seconds for this in release.)
#[test]
fn a_line_just_under_the_cap_is_parsed_in_linear_time() {
    let harness = Harness::start(ServerConfig::default());
    let mut client = harness.client();
    let head = r#"{"v":1,"id":7,"cmd":"compile","source":"#;
    let unit = inline("? a[i] = b[i]; \"µs\" → 𝄞\t\n");
    let room = simdize_server::MAX_LINE - head.len() - 4;
    let mut source = unit.repeat(room / unit.len());
    source.push_str(&"x".repeat(room - source.len()));
    let request = format!("{head}\"{source}\"}}");
    assert_eq!(request.len() + 1, simdize_server::MAX_LINE);
    let started = std::time::Instant::now();
    let response = client.roundtrip(&request);
    let elapsed = started.elapsed();
    let doc = json::parse(&response).unwrap_or_else(|e| panic!("{response}: {e}"));
    assert_eq!(
        doc.get("id").and_then(Json::as_f64),
        Some(7.0),
        "{response}"
    );
    assert_eq!(doc.get("ok"), Some(&Json::Bool(false)), "{response}");
    assert!(elapsed < Duration::from_secs(3), "answered in {elapsed:?}");
    let pong = client.roundtrip(r#"{"v":1,"id":8,"cmd":"ping"}"#);
    assert!(pong.contains("\"pong\":true"), "{pong}");
    harness.shutdown();
}

/// `stats` reports latency percentiles from the telemetry histograms
/// plus the shared cache's counters, and repeated identical `run`
/// requests hit the cache.
#[test]
fn stats_report_latency_and_cache_counters() {
    let harness = Harness::start(ServerConfig::default());
    let mut client = harness.client();
    let run = format!(
        r#"{{"v":1,"id":1,"cmd":"run","source":"{}","seed":5}}"#,
        inline(&sample("figure1"))
    );
    let first = client.roundtrip(&run);
    assert!(first.contains("\"verified\":true"), "{first}");
    for _ in 0..4 {
        // Each response carries its own trace id; normalized, the
        // payloads must not drift.
        assert_eq!(
            normalize(&client.roundtrip(&run)),
            normalize(&first),
            "responses must not drift"
        );
    }
    let stats = client.roundtrip(r#"{"v":1,"id":2,"cmd":"stats"}"#);
    let doc = json::parse(&stats).unwrap();
    let result = doc.get("result").unwrap();
    assert_eq!(
        result.get("schema").and_then(Json::as_str),
        Some("simdize-wire/v1")
    );
    // The dispatched ISA is reported so bench rows and cache-occupancy
    // numbers are interpretable across hosts.
    assert_eq!(
        result.get("isa").and_then(Json::as_str),
        Some(simdize::IsaLevel::detect().name()),
        "{stats}"
    );
    let latency = result.get("latency").unwrap();
    assert_eq!(latency.get("count").and_then(Json::as_f64), Some(5.0));
    assert!(latency.get("p50_us").and_then(Json::as_f64).unwrap() > 0.0);
    assert!(
        latency.get("p95_us").and_then(Json::as_f64).unwrap()
            >= latency.get("p50_us").and_then(Json::as_f64).unwrap()
    );
    assert!(
        result
            .get("requests_per_sec")
            .and_then(Json::as_f64)
            .unwrap()
            > 0.0
    );
    let cache = result.get("cache").unwrap();
    // One bake on the first run, four hits after.
    assert_eq!(cache.get("misses").and_then(Json::as_f64), Some(1.0));
    assert_eq!(cache.get("hits").and_then(Json::as_f64), Some(4.0));
    assert_eq!(cache.get("occupied").and_then(Json::as_f64), Some(1.0));
    harness.shutdown();
}

/// The wire's `engine` field selects nothing: a `native` and a `simd`
/// request for the same `(program, input, layout, seed)` run the same
/// plan on the same tier, so the second is served from the entry the
/// first one baked, with a byte-identical payload. What does split the
/// cache is the ISA tier: one key at the portable tier and at the
/// host's detected tier is two entries.
#[test]
fn engine_field_shares_one_cache_entry_and_isa_tiers_key_separately() {
    let harness = Harness::start(ServerConfig::default());
    let mut client = harness.client();
    let src = inline(&sample("figure1"));
    let request = |id: u32, engine: &str| {
        format!(r#"{{"v":1,"id":{id},"cmd":"run","source":"{src}","seed":5,"engine":"{engine}"}}"#)
    };
    let first = client.roundtrip(&request(1, "native"));
    assert!(first.contains("\"verified\":true"), "{first}");
    assert_eq!(
        normalize(&client.roundtrip(&request(1, "simd"))),
        normalize(&first)
    );
    let stats = client.roundtrip(r#"{"v":1,"id":2,"cmd":"stats"}"#);
    let doc = json::parse(&stats).unwrap();
    let cache = doc.get("result").unwrap().get("cache").unwrap();
    assert_eq!(
        cache.get("misses").and_then(Json::as_f64),
        Some(1.0),
        "{stats}"
    );
    assert_eq!(
        cache.get("hits").and_then(Json::as_f64),
        Some(1.0),
        "{stats}"
    );
    assert_eq!(
        cache.get("occupied").and_then(Json::as_f64),
        Some(1.0),
        "{stats}"
    );
    harness.shutdown();

    use simdize::{IsaLevel, KernelCache, KernelOptions, MemoryImage, PredecodedKernel, RunInput};
    let program = simdize::parse_program(&sample("figure1")).unwrap();
    let compiled = simdize::Simdizer::new().compile(&program).unwrap();
    let pre = PredecodedKernel::new(&compiled).unwrap();
    let image = MemoryImage::with_seed(&program, simdize::VectorShape::V16, 5);
    let input = RunInput::with_ub(program.trip().known().unwrap());
    let cache = KernelCache::default();
    let tiers = [IsaLevel::Scalar, IsaLevel::detect()];
    for (nth, isa) in tiers.into_iter().enumerate() {
        let fingerprint = simdize::program_fingerprint(&compiled);
        let (kernel, lookup) = cache
            .get_or_bake_simd(
                fingerprint,
                &pre,
                &image,
                &input,
                &KernelOptions::new(),
                isa,
            )
            .unwrap();
        assert_eq!(kernel.isa(), isa);
        assert_eq!(lookup.hit, nth == 1 && tiers[0] == tiers[1], "{isa}");
    }
    let distinct = if tiers[0] == tiers[1] { 1 } else { 2 };
    assert_eq!(cache.stats().occupied(), distinct);
}

/// A queue of depth 1 with a single worker under a burst of parallel
/// exec requests must reject some with the `busy` envelope — explicit
/// backpressure instead of unbounded buffering — while every accepted
/// request still completes correctly.
#[test]
fn full_queue_answers_busy() {
    let config = ServerConfig {
        workers: 1,
        queue_depth: 1,
        ..ServerConfig::default()
    };
    let harness = Harness::start(config);
    let source = inline(&sample("runtime"));
    let clients = 8;
    let barrier = Arc::new(Barrier::new(clients));
    let addr = harness.addr;
    let results: Vec<(u64, u64)> = (0..clients)
        .map(|k| {
            let barrier = Arc::clone(&barrier);
            let request = format!(
                r#"{{"v":1,"id":{k},"cmd":"sweep","source":"{source}","seed":{k},"ub":400,"count":8}}"#
            );
            std::thread::spawn(move || {
                let mut client = Client::connect(addr);
                barrier.wait();
                let mut done = 0u64;
                let mut busy = 0u64;
                for _ in 0..3 {
                    let response = client.roundtrip(&request);
                    let doc = json::parse(&response).unwrap();
                    if doc.get("busy") == Some(&Json::Bool(true)) {
                        busy += 1;
                    } else {
                        assert!(response.contains("\"verified\":8"), "{response}");
                        done += 1;
                    }
                }
                (done, busy)
            })
        })
        .collect::<Vec<_>>()
        .into_iter()
        .map(|h| h.join().unwrap())
        .collect();
    let done: u64 = results.iter().map(|(d, _)| d).sum();
    let busy: u64 = results.iter().map(|(_, b)| b).sum();
    assert!(busy > 0, "no backpressure observed (done={done})");
    assert!(done > 0, "no request ever completed");
    let summary = harness.shutdown();
    assert_eq!(summary.busy, busy);
    harness_requests_check(summary.requests, done + busy);
}

fn harness_requests_check(total: u64, workload: u64) {
    // The shutdown request itself is also counted.
    assert_eq!(total, workload + 1);
}

/// Many concurrent clients issuing an identical mix of requests: every
/// response must be byte-identical across clients and across
/// cache-cold/cache-warm servers. This is the contract that lets the
/// kernel cache be transparent.
#[test]
fn concurrent_clients_get_byte_identical_cached_responses() {
    let harness = Harness::start(ServerConfig {
        workers: 2,
        ..ServerConfig::default()
    });
    let fig1 = inline(&sample("figure1"));
    let runtime = inline(&sample("runtime"));
    let requests: Vec<String> = vec![
        format!(r#"{{"v":1,"id":1,"cmd":"run","source":"{fig1}","seed":11}}"#),
        format!(r#"{{"v":1,"id":2,"cmd":"run","source":"{runtime}","seed":4,"ub":350}}"#),
        format!(r#"{{"v":1,"id":3,"cmd":"sweep","source":"{fig1}","seed":0,"count":5}}"#),
        format!(r#"{{"v":1,"id":4,"cmd":"compile","source":"{runtime}"}}"#),
    ];

    // Cache-cold reference: a dedicated server answering each request
    // exactly once.
    let reference: Vec<String> = {
        let cold = Harness::start(ServerConfig::default());
        let mut client = cold.client();
        let out = requests
            .iter()
            .map(|r| normalize(&client.roundtrip(r)))
            .collect();
        cold.shutdown();
        out
    };

    let clients = 16;
    let rounds = 3;
    let barrier = Arc::new(Barrier::new(clients));
    let addr = harness.addr;
    let handles: Vec<_> = (0..clients)
        .map(|_| {
            let barrier = Arc::clone(&barrier);
            let requests = requests.clone();
            let reference = reference.clone();
            std::thread::spawn(move || {
                let mut client = Client::connect(addr);
                barrier.wait();
                for _ in 0..rounds {
                    for (request, expected) in requests.iter().zip(&reference) {
                        let response = client.roundtrip(request);
                        assert_eq!(
                            &normalize(&response),
                            expected,
                            "cached response differs from cache-cold response"
                        );
                    }
                }
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }
    let stats = {
        let mut client = harness.client();
        client.roundtrip(r#"{"v":1,"id":99,"cmd":"stats"}"#)
    };
    let doc = json::parse(&stats).unwrap();
    let cache = doc.get("result").unwrap().get("cache").unwrap();
    let hits = cache.get("hits").and_then(Json::as_f64).unwrap();
    let misses = cache.get("misses").and_then(Json::as_f64).unwrap();
    // 16 clients × 3 rounds of the same kernels: all but the first
    // bakes must hit.
    assert!(
        hits > misses,
        "expected warm cache, got {hits} hits / {misses} misses"
    );
    harness.shutdown();
}

/// Pulls the envelope's `"trace":"..."` field out of a response line.
fn trace_id_of(line: &str) -> String {
    let start = line
        .find("\"trace\":\"")
        .unwrap_or_else(|| panic!("no trace id in {line}"))
        + "\"trace\":\"".len();
    let end = start + line[start..].find('"').unwrap();
    line[start..end].to_string()
}

/// Every response — success, error and control alike — echoes a trace
/// id; ids are unique across requests, and the connection component
/// distinguishes clients.
#[test]
fn every_response_echoes_a_unique_trace_id() {
    let harness = Harness::start(ServerConfig::default());
    let mut a = harness.client();
    let mut b = harness.client();
    let mut seen = std::collections::HashSet::new();
    let mut conns = std::collections::HashSet::new();
    for client in [&mut a, &mut b] {
        for request in [
            r#"{"v":1,"id":1,"cmd":"ping"}"#,
            r#"{"v":1,"id":2,"cmd":"run","source":"arrays { broken"}"#,
            r#"{"v":1,"id":3,"cmd":"stats"}"#,
            "not json at all",
        ] {
            let response = client.roundtrip(request);
            let id = trace_id_of(&response);
            let (conn, seq) = id[1..].split_once('-').unwrap_or_else(|| panic!("{id}"));
            conn.parse::<u64>().unwrap();
            seq.parse::<u64>().unwrap();
            assert!(seen.insert(id.clone()), "duplicate trace id {id}");
            conns.insert(conn.to_string());
        }
    }
    assert_eq!(conns.len(), 2, "each connection gets its own id component");
    harness.shutdown();
}

/// A failed request lands in the flight recorder: the `dump` verb's
/// ring replay carries that request's trace id, verb and error.
#[test]
fn flight_dump_captures_forced_errors() {
    let harness = Harness::start(ServerConfig::default());
    let mut client = harness.client();
    let bad = client.roundtrip(r#"{"v":1,"id":1,"cmd":"run","source":"arrays { broken"}"#);
    assert!(bad.contains("\"ok\":false"), "{bad}");
    let failed_id = trace_id_of(&bad);
    let dump = client.roundtrip(r#"{"v":1,"id":2,"cmd":"dump"}"#);
    assert!(dump.contains("\"schema\":\"simdize-flight/v1\""), "{dump}");
    assert!(
        dump.contains(&format!("\"trace_id\":\"{failed_id}\"")),
        "{dump}"
    );
    assert!(dump.contains("\"ok\":false"), "{dump}");
    assert!(dump.contains("expected"), "error text retained: {dump}");
    // The stats verb reports the recorder's fill level.
    let stats = client.roundtrip(r#"{"v":1,"id":3,"cmd":"stats"}"#);
    let doc = json::parse(&stats).unwrap();
    let flight = doc.get("result").unwrap().get("flight").unwrap();
    assert!(flight.get("recorded").and_then(Json::as_f64).unwrap() >= 2.0);
    assert_eq!(
        flight.get("capacity").and_then(Json::as_f64),
        Some(ServerConfig::default().flight_capacity as f64)
    );
    harness.shutdown();
}

/// The ring is bounded: with a tiny capacity only the newest entries
/// survive, oldest evicted first.
#[test]
fn flight_ring_retains_only_the_newest_entries() {
    // The recorder rounds its capacity up to a stripe multiple (the
    // server uses 8 stripes), so ask for exactly one entry per stripe.
    let harness = Harness::start(ServerConfig {
        flight_capacity: 8,
        ..ServerConfig::default()
    });
    let mut client = harness.client();
    for i in 0..12 {
        client.roundtrip(&format!(r#"{{"v":1,"id":{i},"cmd":"ping"}}"#));
    }
    let dump = client.roundtrip(r#"{"v":1,"id":99,"cmd":"dump"}"#);
    let doc = json::parse(&dump).unwrap();
    let result = doc.get("result").unwrap();
    assert_eq!(result.get("capacity").and_then(Json::as_f64), Some(8.0));
    let entries = match result.get("entries").unwrap() {
        Json::Arr(a) => a,
        other => panic!("entries not an array: {other:?}"),
    };
    assert_eq!(entries.len(), 8, "{dump}");
    // Strictly increasing seq — the newest four of the ten pings.
    let seqs: Vec<f64> = entries
        .iter()
        .map(|e| e.get("seq").and_then(Json::as_f64).unwrap())
        .collect();
    assert!(seqs.windows(2).all(|w| w[0] < w[1]), "{seqs:?}");
    harness.shutdown();
}

/// S2 regression: `verify` (like every verb) reports real wall time —
/// the response's `wall_ms` is live, and the latency histogram records
/// a nonzero observation for the request.
#[test]
fn verify_reports_real_wall_time() {
    let harness = Harness::start(ServerConfig::default());
    let mut client = harness.client();
    let verify = format!(
        r#"{{"v":1,"id":1,"cmd":"verify","source":"{}"}}"#,
        inline(&sample("figure1"))
    );
    let response = client.roundtrip(&verify);
    assert!(response.contains("\"proved\":true"), "{response}");
    let doc = json::parse(&response).unwrap();
    let wall_ms = doc
        .get("result")
        .and_then(|r| r.get("verify"))
        .and_then(|v| v.get("wall_ms"))
        .and_then(Json::as_f64)
        .unwrap();
    assert!(wall_ms > 0.0, "verify wall_ms zeroed: {response}");
    let stats = client.roundtrip(r#"{"v":1,"id":2,"cmd":"stats"}"#);
    let doc = json::parse(&stats).unwrap();
    let latency = doc.get("result").unwrap().get("latency").unwrap();
    assert!(
        latency.get("p50_us").and_then(Json::as_f64).unwrap() > 0.0,
        "{stats}"
    );
    harness.shutdown();
}

/// The `trace` wire verb returns the versioned trace document stamped
/// with the envelope's own trace id.
#[test]
fn trace_verb_exports_the_request_scoped_timeline() {
    let harness = Harness::start(ServerConfig::default());
    let mut client = harness.client();
    let request = format!(
        r#"{{"v":1,"id":1,"cmd":"trace","source":"{}"}}"#,
        inline(&sample("figure1"))
    );
    let response = client.roundtrip(&request);
    let envelope_id = trace_id_of(&response);
    let doc = json::parse(&response).unwrap();
    let result = doc.get("result").unwrap();
    assert_eq!(
        result.get("schema").and_then(Json::as_str),
        Some("simdize-trace/v1")
    );
    assert_eq!(
        result.get("trace_id").and_then(Json::as_str),
        Some(envelope_id.as_str()),
        "envelope and document must agree: {response}"
    );
    assert_eq!(result.get("verb").and_then(Json::as_str), Some("trace"));
    let attrs = result.get("attrs").unwrap();
    assert!(attrs.get("policy").is_some(), "{response}");
    assert!(attrs.get("opd").is_some(), "{response}");
    assert!(result.get("wall_us").and_then(Json::as_f64).unwrap() > 0.0);
    harness.shutdown();
}

/// One plain-HTTP GET against the `/metrics` side listener; the whole
/// response, status line and headers included.
fn scrape(metrics_addr: std::net::SocketAddr, path: &str) -> String {
    use std::io::Read as _;
    let mut conn = TcpStream::connect(metrics_addr).unwrap();
    write!(conn, "GET {path} HTTP/1.0\r\nHost: x\r\n\r\n").unwrap();
    let mut body = String::new();
    conn.read_to_string(&mut body).unwrap();
    body
}

/// The `trace` verb on a strided loop answers like any other: the
/// traced pass reports the §5.3 bound `simdize run` prints, which
/// charges a pack its chunk loads and `vperm`s.
#[test]
fn trace_verb_answers_for_a_strided_loop() {
    let harness = Harness::start(ServerConfig::default());
    let mut client = harness.client();
    let request = format!(
        r#"{{"v":1,"id":1,"cmd":"trace","source":"{}"}}"#,
        inline(&sample("deinterleave"))
    );
    let response = client.roundtrip(&request);
    let doc = json::parse(&response).unwrap_or_else(|e| panic!("{response}: {e}"));
    assert_eq!(doc.get("ok"), Some(&Json::Bool(true)), "{response}");
    let attrs = doc.get("result").unwrap().get("attrs").unwrap();
    assert_eq!(
        attrs.get("opd.bound").and_then(Json::as_str),
        Some("3.000"),
        "{response}"
    );
    assert_eq!(
        attrs.get("verified").and_then(Json::as_str),
        Some("true"),
        "{response}"
    );
    harness.shutdown();
}

/// `--metrics-addr`: the side HTTP listener answers GET /metrics with
/// Prometheus text exposition and 404s everything else.
#[test]
fn metrics_endpoint_serves_prometheus_text() {
    let config = ServerConfig {
        metrics_addr: Some("127.0.0.1:0".parse().unwrap()),
        ..ServerConfig::default()
    };
    let server = Server::bind("127.0.0.1:0", config).unwrap();
    let addr = server.local_addr();
    let metrics_addr = server.metrics_addr().expect("metrics listener bound");
    let handle = std::thread::spawn(move || server.serve());
    let mut client = Client::connect(addr);
    client.roundtrip(r#"{"v":1,"id":1,"cmd":"ping"}"#);
    let response = scrape(metrics_addr, "/metrics");
    assert!(response.starts_with("HTTP/1.1 200 OK"), "{response}");
    assert!(response.contains("text/plain; version=0.0.4"), "{response}");
    assert!(
        response.contains("# TYPE simdize_server_requests_total counter"),
        "{response}"
    );
    assert!(
        response.contains("simdize_server_requests_total 1"),
        "{response}"
    );
    assert!(
        response.contains("simdize_server_flight_recorded_total"),
        "{response}"
    );
    assert!(
        scrape(metrics_addr, "/nope").starts_with("HTTP/1.1 404"),
        "no 404 for unknown path"
    );

    // Requests that finish while another request scope is live must
    // not add a second copy of any family to the scrape. One
    // connection sits inside a slow `verify`; this one keeps
    // completing pings until that reply is in.
    let mut slow = Client::connect(addr);
    let verify = format!(
        r#"{{"v":1,"id":3,"cmd":"verify","source":"{}"}}"#,
        inline(&sample("figure1"))
    );
    let mut pings = 0;
    std::thread::scope(|s| {
        let held = s.spawn(|| slow.roundtrip(&verify));
        while !held.is_finished() {
            client.roundtrip(r#"{"v":1,"id":4,"cmd":"ping"}"#);
            pings += 1;
        }
        let reply = held.join().unwrap();
        assert!(reply.contains("\"proved\":true"), "{reply}");
    });
    let response = scrape(metrics_addr, "/metrics");
    let total = format!("simdize_server_requests_total {}", 2 + pings);
    assert!(response.contains(&total), "{total}: {response}");
    let mut families = std::collections::HashSet::new();
    for line in response.lines() {
        let family = line.strip_prefix("# TYPE ").and_then(|l| l.split_once(' '));
        if let Some((family, _kind)) = family {
            assert!(
                families.insert(family),
                "duplicate family `{family}`: {response}"
            );
        }
        assert!(
            !line.starts_with("simdize_server_request ")
                && !line.starts_with("simdize_server_busy "),
            "`{line}` shadows a server counter: {response}"
        );
    }

    let resp = client.roundtrip(r#"{"v":1,"id":2,"cmd":"shutdown"}"#);
    assert!(resp.contains("\"stopping\":true"), "{resp}");
    handle.join().unwrap().unwrap();
}

/// `stats` and `/metrics` read the kernel cache's counters from one
/// source, and the template memo's from one snapshot, so with no
/// traffic between them they agree on every one. One shard of one
/// entry (and so a one-entry memo) makes two alternating sources evict
/// each other, so all three counters of each move.
#[test]
fn stats_and_metrics_agree_on_kernel_cache_counters() {
    let config = ServerConfig {
        cache_shards: 1,
        cache_capacity: 1,
        metrics_addr: Some("127.0.0.1:0".parse().unwrap()),
        ..ServerConfig::default()
    };
    let server = Server::bind("127.0.0.1:0", config).unwrap();
    let addr = server.local_addr();
    let metrics_addr = server.metrics_addr().expect("metrics listener bound");
    let handle = std::thread::spawn(move || server.serve());
    let mut client = Client::connect(addr);
    for (id, name) in ["figure1", "figure1", "halfword", "figure1", "figure1"]
        .into_iter()
        .enumerate()
    {
        let run = format!(
            r#"{{"v":1,"id":{id},"cmd":"run","source":"{}","seed":5}}"#,
            inline(&sample(name))
        );
        let reply = client.roundtrip(&run);
        assert!(reply.contains("\"verified\":true"), "{reply}");
    }

    let stats = client.roundtrip(r#"{"v":1,"id":9,"cmd":"stats"}"#);
    let metrics = scrape(metrics_addr, "/metrics");
    let doc = json::parse(&stats).unwrap();
    let scraped = |family: &str| -> f64 {
        let prefix = format!("simdize_server_{family} ");
        let line = metrics.lines().find(|l| l.starts_with(&prefix));
        line.unwrap_or_else(|| panic!("no {prefix}in {metrics}"))[prefix.len()..]
            .parse()
            .unwrap()
    };
    // The memo keys on the source, the kernel cache on the program and
    // the image; with one seed per source both see the same traffic.
    for (object, prefix) in [("cache", "cache"), ("templates", "template")] {
        let counters = doc.get("result").unwrap().get(object).unwrap();
        for (field, family, expected) in [
            ("hits", "hits_total", 2.0),
            ("misses", "misses_total", 3.0),
            ("evictions", "evictions_total", 2.0),
            ("occupied", "occupied", 1.0),
        ] {
            let family = format!("{prefix}_{family}");
            let reported = counters.get(field).and_then(Json::as_f64);
            assert_eq!(reported, Some(expected), "stats {object}.{field}: {stats}");
            assert_eq!(scraped(&family), expected, "/metrics {family}: {metrics}");
        }
    }
    let templates = doc.get("result").unwrap().get("templates").unwrap();
    assert_eq!(
        templates.get("capacity").and_then(Json::as_f64),
        Some(1.0),
        "{stats}"
    );
    assert_eq!(scraped("template_capacity"), 1.0, "{metrics}");
    let bytes = templates.get("bytes").and_then(Json::as_f64).unwrap();
    assert!(bytes >= sample("figure1").len() as f64, "{stats}");
    assert_eq!(scraped("template_bytes"), bytes, "{metrics}");

    let resp = client.roundtrip(r#"{"v":1,"id":10,"cmd":"shutdown"}"#);
    assert!(resp.contains("\"stopping\":true"), "{resp}");
    handle.join().unwrap().unwrap();
}

/// The template memo's key is the source bytes *and* the forced policy:
/// a repeated source with `"policy":"zero"` and with no policy (Figure
/// 1's default is `dominant`) each reply byte-identically to a cold
/// server answering that request alone, the two never serve each
/// other's program, a failing source answers its error every time, and
/// the flight entries of a repeated `run` carry the same `policy`.
#[test]
fn the_template_memo_keys_on_source_and_policy() {
    let fig1 = inline(&sample("figure1"));
    let zero =
        format!(r#"{{"v":1,"id":1,"cmd":"run","source":"{fig1}","seed":5,"policy":"zero"}}"#);
    let auto = format!(r#"{{"v":1,"id":1,"cmd":"run","source":"{fig1}","seed":5}}"#);
    let broken = r#"{"v":1,"id":1,"cmd":"run","source":"arrays { broken"}"#;
    let cold = |request: &str| {
        let harness = Harness::start(ServerConfig::default());
        let reply = normalize(&harness.client().roundtrip(request));
        harness.shutdown();
        reply
    };
    let expected = [cold(&zero), cold(&auto), cold(broken)];
    assert_ne!(
        expected[0], expected[1],
        "zero and dominant must differ on Figure 1"
    );
    assert!(expected[2].contains("\"ok\":false"), "{}", expected[2]);

    let harness = Harness::start(ServerConfig::default());
    let mut client = harness.client();
    for (request, want) in [(&zero, 0), (&zero, 0), (&auto, 1), (&auto, 1)] {
        assert_eq!(normalize(&client.roundtrip(request)), expected[want]);
    }
    for _ in 0..3 {
        assert_eq!(normalize(&client.roundtrip(broken)), expected[2]);
    }
    let stats = json::parse(&client.roundtrip(r#"{"v":1,"id":2,"cmd":"stats"}"#)).unwrap();
    let templates = stats.get("result").unwrap().get("templates").unwrap();
    let count = |field: &str| templates.get(field).and_then(Json::as_f64).unwrap();
    // Two sources stored; the failing one is looked up and compiled
    // three times and never kept.
    assert_eq!(
        (count("hits"), count("misses"), count("occupied")),
        (2.0, 5.0, 2.0)
    );

    let dump = json::parse(&client.roundtrip(r#"{"v":1,"id":3,"cmd":"dump"}"#)).unwrap();
    let entries = dump
        .get("result")
        .unwrap()
        .get("entries")
        .unwrap()
        .as_arr()
        .unwrap();
    let policies: Vec<Option<&str>> = entries
        .iter()
        .filter(|e| e.get("verb").and_then(Json::as_str) == Some("run"))
        .filter(|e| e.get("ok") == Some(&Json::Bool(true)))
        .map(|e| e.get("attrs").unwrap().get("policy").and_then(Json::as_str))
        .collect();
    assert_eq!(
        policies,
        [
            Some("zero"),
            Some("zero"),
            Some("dominant"),
            Some("dominant")
        ]
    );
    harness.shutdown();
}

/// Hostile input is bounded: distinct valid sources, each padded with a
/// long `//` comment, whose total passes the template memo's byte
/// budget. Every reply is still correct, the memo never holds more than
/// its budget, and the server keeps serving.
#[test]
fn large_distinct_sources_stay_inside_the_template_budget() {
    let budget = simdize_server::MAX_TEMPLATE_BYTES;
    let harness = Harness::start(ServerConfig::default());
    let mut client = harness.client();
    let pad = "x".repeat(simdize_server::MAX_LINE / 2);
    let count = budget / pad.len() + 2;
    for k in 0..count {
        let source = format!(
            "arrays {{ a: i32[64] @ 0; b: i32[64] @ 0; }} for i in 0..40 {{ a[i] = b[i+{}]; }}\n// {k} {pad}\n",
            k % 4
        );
        let request = format!(
            r#"{{"v":1,"id":{k},"cmd":"run","source":"{}","seed":1}}"#,
            inline(&source)
        );
        let reply = client.roundtrip(&request);
        assert!(reply.contains("\"verified\":true"), "{k}: {reply}");
        let stats = json::parse(&client.roundtrip(r#"{"v":1,"id":0,"cmd":"stats"}"#)).unwrap();
        let templates = stats.get("result").unwrap().get("templates").unwrap();
        let bytes = templates.get("bytes").and_then(Json::as_f64).unwrap();
        assert!(bytes <= budget as f64, "{k}: the memo holds {bytes} bytes");
    }
    let stats = json::parse(&client.roundtrip(r#"{"v":1,"id":0,"cmd":"stats"}"#)).unwrap();
    let templates = stats.get("result").unwrap().get("templates").unwrap();
    assert!(templates.get("evictions").and_then(Json::as_f64).unwrap() > 0.0);
    let pong = client.roundtrip(r#"{"v":1,"id":1,"cmd":"ping"}"#);
    assert!(pong.contains("\"pong\":true"), "{pong}");
    harness.shutdown();
}

/// ROADMAP robustness: a request line is capped. A client that sends
/// 2 MiB without a newline gets one error envelope naming the limit
/// and then end of stream; the fault is counted and recorded, and a
/// healthy connection opened before it is not disturbed.
#[test]
fn oversized_request_line_is_refused_and_the_connection_closed() {
    use std::io::Read as _;
    let harness = Harness::start(ServerConfig::default());
    let mut healthy = harness.client();
    let run = format!(
        r#"{{"v":1,"id":1,"cmd":"run","source":"{}","seed":5}}"#,
        inline(&sample("figure1"))
    );
    let before = normalize(&healthy.roundtrip(&run));

    let mut hostile = harness.client();
    // The server stops reading one byte past the cap and closes, so
    // the tail of this write may be refused; that is the point.
    let _ = hostile.conn.write_all(&vec![b'x'; 2 << 20]);
    let mut reply = String::new();
    hostile.reader.read_line(&mut reply).unwrap();
    let doc = json::parse(&reply).unwrap_or_else(|e| panic!("{reply}: {e}"));
    assert_eq!(doc.get("ok"), Some(&Json::Bool(false)), "{reply}");
    let error = doc.get("error").and_then(Json::as_str).unwrap();
    assert!(error.contains("exceeds 1048576 bytes"), "{reply}");
    let failed_id = trace_id_of(&reply);
    let mut rest = Vec::new();
    let _ = hostile.reader.read_to_end(&mut rest);
    assert!(
        rest.is_empty(),
        "connection must close after the error envelope"
    );

    assert_eq!(normalize(&healthy.roundtrip(&run)), before);
    let dump = healthy.roundtrip(r#"{"v":1,"id":2,"cmd":"dump"}"#);
    assert!(
        dump.contains(&format!("\"trace_id\":\"{failed_id}\"")),
        "{dump}"
    );
    let stats = healthy.roundtrip(r#"{"v":1,"id":3,"cmd":"stats"}"#);
    let doc = json::parse(&stats).unwrap();
    let errors = doc
        .get("result")
        .unwrap()
        .get("errors")
        .and_then(Json::as_f64);
    assert_eq!(errors, Some(1.0), "{stats}");
    let summary = harness.shutdown();
    assert_eq!(summary.errors, 1);
}

/// Shutdown under load: a request the server admitted is answered in
/// full, whether it was executing or still waiting at the gate when the
/// `shutdown` arrived — the thread `serve()` joins is the thread doing
/// the work, so there is no reply to orphan.
#[test]
fn shutdown_under_load_answers_every_admitted_request() {
    let harness = Harness::start(ServerConfig {
        workers: 1,
        queue_depth: 8,
        ..ServerConfig::default()
    });
    let source = inline(&sample("runtime"));
    let mut clients: Vec<Client> = (0..6).map(|_| harness.client()).collect();
    for (k, client) in clients.iter_mut().enumerate() {
        // Seeds far apart: no sweep rides on another's cached kernels.
        // 512 seeds each: a sweep has to outlast the control
        // connection's first polls below on a release build too
        // (about 30 ms; at 64 seeds all six were done in 47 ms).
        let seed = k * 4096;
        writeln!(
            client.conn,
            r#"{{"v":1,"id":{k},"cmd":"sweep","source":"{source}","seed":{seed},"ub":4000,"count":512}}"#
        )
        .unwrap();
    }
    // Wait until all six are in with some still parked: whatever has
    // not finished is executing (one, whenever anything waits) or
    // waiting at the gate.
    let mut control = harness.client();
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(30);
    let mut polls = 0;
    loop {
        let stats = control.roundtrip(r#"{"v":1,"id":100,"cmd":"stats"}"#);
        polls += 1;
        let doc = json::parse(&stats).unwrap();
        let result = doc.get("result").unwrap();
        let waiting = result
            .get("queue")
            .unwrap()
            .get("depth")
            .and_then(Json::as_f64)
            .unwrap();
        let finished = match result.get("commands").unwrap() {
            Json::Arr(commands) => commands
                .iter()
                .find(|c| c.get("cmd").and_then(Json::as_str) == Some("sweep"))
                .map_or(0.0, |c| c.get("count").and_then(Json::as_f64).unwrap()),
            other => panic!("commands not an array: {other:?}"),
        };
        if waiting >= 1.0 && finished + 1.0 + waiting == 6.0 {
            break;
        }
        assert!(
            finished < 5.0 && std::time::Instant::now() < deadline,
            "never saw all six sweeps in with one still parked: {stats}"
        );
        std::thread::sleep(std::time::Duration::from_millis(1));
    }
    // `shutdown()` returns once `serve()` has: every reply is already
    // on its socket by then.
    let summary = harness.shutdown();
    for (k, client) in clients.iter_mut().enumerate() {
        let mut reply = String::new();
        client.reader.read_line(&mut reply).unwrap();
        assert!(
            reply.ends_with('\n'),
            "client {k}: truncated reply {reply:?}"
        );
        assert!(
            reply.contains(&format!("\"id\":{k},")),
            "client {k}: {reply}"
        );
        assert!(reply.contains("\"ok\":true"), "client {k}: {reply}");
        assert!(reply.contains("\"verified\":512"), "client {k}: {reply}");
    }
    assert_eq!(summary.busy, 0);
    assert_eq!(summary.errors, 0);
    assert_eq!(
        summary.requests,
        6 + polls + 1,
        "six sweeps, the polls, the shutdown"
    );
}

/// ROADMAP robustness: a client that sends requests and never reads
/// the replies fills the socket buffers until the server's reply write
/// blocks. That write gives up after `WRITE_TIMEOUT` and the connection
/// closes, so a `shutdown` from a second client still stops the server:
/// `serve()` returns within the timeout plus a margin. (Without the
/// timeout the flooder's thread blocks in `write_all` for good and
/// `serve()` joins it forever; `recv_timeout` turns that into a
/// failure instead of a hang.)
#[test]
fn a_client_that_stops_reading_cannot_hang_shutdown() {
    let server = Server::bind("127.0.0.1:0", ServerConfig::default()).unwrap();
    let addr = server.local_addr();
    let (done, served) = std::sync::mpsc::channel();
    let serving = std::thread::spawn(move || done.send(server.serve().is_ok()));

    // Flood until the server stops taking bytes (its reply write is
    // blocked) or drops the connection.
    let mut flooder = TcpStream::connect(addr).unwrap();
    flooder
        .set_write_timeout(Some(Duration::from_millis(500)))
        .unwrap();
    let burst = r#"{"v":1,"id":1,"cmd":"stats"}"#.to_string() + "\n";
    let burst = burst.repeat(1024);
    let mut sent = 0;
    while flooder.write_all(burst.as_bytes()).is_ok() {
        sent += burst.len();
        assert!(sent < 1 << 30, "the server never stopped reading");
    }

    let mut control = Client::connect(addr);
    let reply = control.roundtrip(r#"{"v":1,"id":2,"cmd":"shutdown"}"#);
    assert!(reply.contains("\"stopping\":true"), "{reply}");
    let margin = Duration::from_secs(5);
    let stopped = served.recv_timeout(simdize_server::WRITE_TIMEOUT + margin);
    assert_eq!(
        stopped,
        Ok(true),
        "serve() did not return after {sent} bytes of unread requests"
    );
    serving.join().unwrap().unwrap();
}

/// Connects and proves the connection live with a ping round trip,
/// retrying with backoff. A burst of hundreds of simultaneous SYNs can
/// overflow the listen backlog; the kernel then drops the final ACK,
/// leaving the client with a socket that looks connected but was never
/// accepted (it dies with a reset at first use).
fn establish(addr: std::net::SocketAddr) -> Client {
    let mut delay = Duration::from_millis(1);
    for _ in 0..30 {
        if let Ok(conn) = TcpStream::connect(addr) {
            if let Ok(clone) = conn.try_clone() {
                let mut client = Client {
                    conn,
                    reader: BufReader::new(clone),
                };
                let mut line = String::new();
                let alive = writeln!(client.conn, r#"{{"v":1,"id":0,"cmd":"ping"}}"#).is_ok()
                    && matches!(client.reader.read_line(&mut line), Ok(n) if n > 0)
                    && line.contains("\"ok\":true");
                if alive {
                    return client;
                }
            }
        }
        std::thread::sleep(delay);
        delay = (delay * 2).min(Duration::from_millis(100));
    }
    panic!("could not establish a validated connection to {addr}");
}

/// `n` connections, all established before a barrier releases them,
/// each issuing four picks from a fixed eight-request mix and holding
/// its connection open throughout. The gate is deep enough that nobody
/// should see `busy`; one that does retries with backoff. This is about
/// the connection count, not latency: every request is answered
/// `"ok":true`, the server reports no error and saw every connection,
/// and no trace id repeats across connections.
fn connection_count_stress(n: usize) {
    const FIG1: &str = "arrays { a: i32[216] @ 0; b: i32[216] @ 4; c: i32[216] @ 8; } \
                        for i in 0..200 { a[i+3] = b[i+1] + c[i+2]; }";
    const RUNTIME: &str = "arrays { a: i32[216] @ ?; b: i32[216] @ ?; } \
                           for i in 0..ub { a[i] = b[i+1]; }";
    const FIR: &str = "arrays { a: i32[216] @ 0; b: i32[216] @ 0; } \
                       for i in 0..200 { a[i] = b[i] + b[i+1] + b[i+2] + b[i+3]; }";
    let mix = Arc::new([
        format!(r#"{{"v":1,"id":1,"cmd":"run","source":"{FIG1}","seed":1}}"#),
        format!(r#"{{"v":1,"id":2,"cmd":"run","source":"{RUNTIME}","seed":2,"ub":200}}"#),
        format!(r#"{{"v":1,"id":3,"cmd":"run","source":"{FIR}","policy":"zero","seed":3}}"#),
        format!(r#"{{"v":1,"id":4,"cmd":"compile","source":"{FIG1}","policy":"eager"}}"#),
        format!(
            r#"{{"v":1,"id":5,"cmd":"sweep","source":"{RUNTIME}","seed":0,"ub":150,"count":4}}"#
        ),
        format!(r#"{{"v":1,"id":6,"cmd":"run","source":"{FIG1}","seed":4}}"#),
        r#"{"v":1,"id":7,"cmd":"ping"}"#.to_string(),
        format!(r#"{{"v":1,"id":8,"cmd":"run","source":"{RUNTIME}","seed":5,"ub":200}}"#),
    ]);
    let harness = Harness::start(ServerConfig {
        queue_depth: n + 16,
        sweep_threads: 1,
        ..ServerConfig::default()
    });
    let addr = harness.addr;
    let barrier = Arc::new(Barrier::new(n));
    let clients: Vec<_> = (0..n)
        .map(|k| {
            let mix = Arc::clone(&mix);
            let barrier = Arc::clone(&barrier);
            std::thread::Builder::new()
                .stack_size(128 * 1024)
                .spawn(move || {
                    let mut client = establish(addr);
                    barrier.wait();
                    let mut trace_ids = Vec::new();
                    for i in 0..4 {
                        let request = &mix[(k * 7 + i) % mix.len()];
                        let mut backoff = Duration::from_micros(500);
                        loop {
                            let reply = client.roundtrip(request);
                            trace_ids.push(trace_id_of(&reply));
                            if !reply.contains("\"busy\":true") {
                                assert!(reply.contains("\"ok\":true"), "{request} -> {reply}");
                                break;
                            }
                            std::thread::sleep(backoff);
                            backoff = (backoff * 2).min(Duration::from_millis(20));
                        }
                    }
                    trace_ids
                })
                .unwrap()
        })
        .collect();
    let mut seen = std::collections::HashSet::new();
    for handle in clients {
        for id in handle.join().unwrap() {
            if let Some(id) = seen.replace(id) {
                panic!("duplicate trace id across connections: {id}");
            }
        }
    }
    let summary = harness.shutdown();
    assert_eq!(summary.errors, 0);
    assert!(
        summary.connections >= n as u64,
        "{} < {n}",
        summary.connections
    );
}

#[test]
fn sixty_four_connections_are_all_answered() {
    connection_count_stress(64);
}

/// The 1200-connection run (≈4800 descriptors in this process); run in
/// release by `scripts/ci.sh`.
#[test]
#[ignore]
fn twelve_hundred_connections_are_all_answered() {
    connection_count_stress(1200);
}
