//! A wire `verify` must not grow the server: the prover's worker
//! threads run under no request context, so while the request's scope
//! has collection switched on their spans have to be inert rather than
//! pile up in a buffer nobody drains (≈ 12 k records, ≈ 1 MB, per
//! request when there was one). Its own test binary: resident-set
//! growth is a process-wide reading, and the connection stress tests
//! in `tests/server.rs` would move it.
#![cfg(target_os = "linux")]

use simdize_server::{Server, ServerConfig};
use simdize_suite::sample;
use simdize_telemetry::json;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;

/// The process's resident set, in kB, from `/proc/self/status`.
fn vm_rss_kb() -> u64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap();
    let line = status.lines().find(|l| l.starts_with("VmRSS:")).unwrap();
    line.split_whitespace().nth(1).unwrap().parse().unwrap()
}

#[test]
fn verify_requests_leave_the_resident_set_flat() {
    const WARMUP: usize = 10;
    const MEASURED: usize = 30;
    // ≈ +29 MB over the measured requests with a process-wide span
    // collector, ≈ 0 without: 8 MB is over 3× away from both.
    const BOUND_KB: u64 = 8 * 1024;

    let server = Server::bind("127.0.0.1:0", ServerConfig::default()).unwrap();
    let addr = server.local_addr();
    let serving = std::thread::spawn(move || server.serve());
    let mut conn = TcpStream::connect(addr).unwrap();
    let mut reader = BufReader::new(conn.try_clone().unwrap());
    let mut roundtrip = |request: String| {
        writeln!(conn, "{request}").unwrap();
        let mut line = String::new();
        reader.read_line(&mut line).unwrap();
        line
    };

    let source = json::escape(&sample("figure1"));
    let mut before = 0;
    for n in 0..WARMUP + MEASURED {
        if n == WARMUP {
            before = vm_rss_kb();
        }
        let reply = roundtrip(format!(
            r#"{{"v":1,"id":{n},"cmd":"verify","source":"{source}"}}"#
        ));
        assert!(reply.contains("\"proved\":true"), "{reply}");
    }
    let after = vm_rss_kb();
    let reply = roundtrip(r#"{"v":1,"id":9999,"cmd":"shutdown"}"#.to_string());
    assert!(reply.contains("\"stopping\":true"), "{reply}");
    serving.join().unwrap().unwrap();

    let grown = after.saturating_sub(before);
    assert!(
        grown < BOUND_KB,
        "VmRSS grew {grown} kB over {MEASURED} verify requests ({before} -> {after} kB)"
    );
}
