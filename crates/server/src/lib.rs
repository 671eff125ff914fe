//! Simdization-as-a-service: a long-running TCP server around the
//! simdize pipeline.
//!
//! The paper front-loads all alignment reasoning into compile time, so
//! a compiled kernel is pure function of *(program, runtime input,
//! memory layout)* — the perfect unit to cache and serve. This crate
//! provides:
//!
//! * [`Server`] — `bind` an address, then [`Server::serve`] answers
//!   the versioned JSONL-over-TCP protocol in [`protocol`]
//!   (`simdize-wire/v1`), each connection's thread executing the
//!   requests it reads. All `run`/`sweep` requests bake through one
//!   process-wide sharded [`simdize::KernelCache`], so repeated
//!   requests skip compilation entirely.
//! * explicit backpressure — one admission gate lets
//!   [`ServerConfig::workers`] pipeline requests execute and
//!   [`ServerConfig::queue_depth`] more wait in arrival order; the
//!   next answers `{"ok":false,"busy":true,...}` instead of buffering
//!   without bound — and graceful shutdown on a `shutdown` request or
//!   (when [`ServerConfig::handle_sigint`] is set) Ctrl-C.
//! * latency observability — per-request latency lands in
//!   [`simdize_telemetry::Histogram`]s and the `stats` verb reports
//!   p50/p95, requests/sec and the cache's hit/miss/evict counters.
//!
//! Everything is `std`: no async runtime, no HTTP stack, no serde —
//! the wire format is parsed with `simdize-telemetry`'s hand-rolled
//! JSON reader. The only `unsafe` in the workspace is the tiny
//! `signal(2)` FFI declaration in [`signal`], gated to the CLI's opt-in
//! Ctrl-C handling.
//!
//! # Example
//!
//! ```
//! use simdize_server::{Server, ServerConfig};
//! use std::io::{BufRead, BufReader, Write};
//! use std::net::TcpStream;
//!
//! let server = Server::bind("127.0.0.1:0", ServerConfig::default())?;
//! let addr = server.local_addr();
//! let handle = std::thread::spawn(move || server.serve());
//!
//! let mut conn = TcpStream::connect(addr)?;
//! writeln!(conn, r#"{{"v":1,"id":1,"cmd":"ping"}}"#)?;
//! let mut line = String::new();
//! BufReader::new(conn.try_clone()?).read_line(&mut line)?;
//! assert!(line.contains("\"pong\":true"));
//! writeln!(conn, r#"{{"v":1,"id":2,"cmd":"shutdown"}}"#)?;
//! let summary = handle.join().unwrap()?;
//! assert!(summary.requests >= 2);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![deny(unsafe_code)]
#![warn(missing_docs)]

mod gate;
mod handlers;
pub mod protocol;
mod server;
#[allow(unsafe_code)]
pub mod signal;

pub use server::{ServeSummary, Server, ServerConfig, MAX_SOURCE_BYTES, WRITE_TIMEOUT};
