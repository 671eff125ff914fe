//! The `simdize-wire/v1` protocol: newline-delimited JSON over TCP.
//!
//! Every request is one JSON object on one line:
//!
//! ```json
//! {"v":1,"id":7,"cmd":"run","source":"arrays { ... } for i in 0..ub { ... }","seed":3,"ub":500}
//! ```
//!
//! and every request gets exactly one response line, either
//!
//! ```json
//! {"v":1,"id":7,"trace":"c3-41","ok":true,"result":{...}}
//! ```
//!
//! or an error envelope:
//!
//! ```json
//! {"v":1,"id":7,"trace":"c3-41","ok":false,"error":"..."}
//! ```
//!
//! Every response carries `trace`: the server-assigned request trace
//! id (`c<connection>-<sequence>`, deterministic — no clock, no
//! randomness), the same id the flight recorder and the `trace` verb's
//! exported documents use, so one slow response correlates directly
//! with its span timeline and its postmortem entry.
//!
//! A server with `workers` requests executing and `queue_depth` more
//! waiting rejects the next one with the 503-flavoured
//! `{"v":1,"id":7,"trace":"...","ok":false,"busy":true,"error":"..."}`
//! instead of blocking the connection — clients are expected to back
//! off and retry.
//!
//! Commands: `ping`, `stats`, `dump` (the flight-recorder dump) and
//! `shutdown` are control-plane and are answered at once; `compile`,
//! `analyze`, `run`, `sweep`, `explain`, `verify` and `trace` carry an
//! inline loop `source` and pass the admission gate first. Either way
//! the connection thread that read the line executes it. A line is at
//! most 1 MiB; a longer one is answered with an error and the
//! connection closed. Optional fields: `policy`
//! (`zero|eager|lazy|dominant`), `seed`, `ub`, `params`
//! (array of integers), `engine` (`native|simd` — accepted and
//! validated for clients written when there were two executors, but it
//! selects nothing: `run`/`sweep` always execute the one baked plan at
//! the host's dispatched ISA, and kernel-cache keys carry that ISA
//! level) and, for `sweep`, `count`.
//! `verify` runs the
//! bounded-equivalence prover over its quick domain and returns the
//! `simdize-verify/v1` report. `trace` runs the request-scoped tracing
//! pipeline and returns the `simdize-trace/v1` document. Responses
//! report real wall time everywhere; the golden transcript test keeps
//! determinism by normalizing timing fields, not by zeroing them at
//! the source.

use simdize::Policy;
use simdize_telemetry::json::{self, Json, Text, Writer};
use std::fmt;

/// Schema tag reported by `ping` and `stats` responses.
pub const WIRE_SCHEMA: &str = "simdize-wire/v1";

/// The protocol version every request must carry in `"v"`.
pub const WIRE_VERSION: u64 = 1;

/// Default memory-image seed when a request omits `"seed"`.
pub const DEFAULT_SEED: u64 = 2004;

/// Default trip count for runtime-`ub` loops when a request omits
/// `"ub"`.
pub const DEFAULT_UB: u64 = 1000;

/// Default seed count for `sweep` when a request omits `"count"`.
pub const DEFAULT_COUNT: usize = 8;

/// One parsed request line.
#[derive(Debug, Clone, PartialEq)]
pub struct Request {
    /// Client-chosen correlation id, echoed in the response.
    pub id: u64,
    /// What to do.
    pub cmd: Command,
}

/// The request verb plus its payload.
#[derive(Debug, Clone, PartialEq)]
pub enum Command {
    /// Liveness probe; answered inline.
    Ping,
    /// Server metrics snapshot; answered inline.
    Stats,
    /// Flight-recorder dump (the last N request summaries); answered
    /// inline.
    Dump,
    /// Graceful shutdown; answered inline, then the server drains.
    Shutdown,
    /// Generate vector code for the loop.
    Compile(ExecRequest),
    /// Generate then statically lint the vector code.
    Analyze(ExecRequest),
    /// Compile, bake (through the shared kernel cache), execute and
    /// verify against the scalar oracle.
    Run(ExecRequest),
    /// [`Command::Run`] over `count` memory seeds on the sweep runner.
    Sweep(ExecRequest),
    /// Full decision-trace report for the loop.
    Explain(ExecRequest),
    /// Quick bounded-equivalence proof of the loop (the
    /// `simdize-verify/v1` prover over its smoke-sized domain).
    Verify(ExecRequest),
    /// Request-scoped end-to-end trace of the loop, returning the
    /// `simdize-trace/v1` document under the request's own trace id.
    Trace(ExecRequest),
}

impl Command {
    /// The wire name of the verb.
    pub fn name(&self) -> &'static str {
        match self {
            Command::Ping => "ping",
            Command::Stats => "stats",
            Command::Dump => "dump",
            Command::Shutdown => "shutdown",
            Command::Compile(_) => "compile",
            Command::Analyze(_) => "analyze",
            Command::Run(_) => "run",
            Command::Sweep(_) => "sweep",
            Command::Explain(_) => "explain",
            Command::Verify(_) => "verify",
            Command::Trace(_) => "trace",
        }
    }
}

/// Payload of the pipeline-executing commands.
#[derive(Debug, Clone, PartialEq)]
pub struct ExecRequest {
    /// The loop in the textual syntax, inline.
    pub source: String,
    /// Shift-placement policy override (default: chosen per loop).
    pub policy: Option<Policy>,
    /// Memory-image seed.
    pub seed: u64,
    /// Trip count for runtime-`ub` loops.
    pub ub: u64,
    /// Loop parameter values, in declaration order.
    pub params: Vec<i64>,
    /// Seeds to cover (`sweep` only).
    pub count: usize,
}

/// A request that could not be parsed. Carries the id when one could
/// be recovered from the malformed line so the client can still
/// correlate the error response.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WireError {
    /// The request id, if the line got far enough to contain one.
    pub id: Option<u64>,
    /// What was wrong with the line.
    pub message: String,
}

impl WireError {
    pub(crate) fn new(id: Option<u64>, message: impl Into<String>) -> WireError {
        WireError {
            id,
            message: message.into(),
        }
    }
}

/// The largest magnitude a JSON number (a double) holds exactly.
const MAX_EXACT: f64 = 9_007_199_254_740_992.0;

/// `value` as an integer: a whole number within `min..=2^53`.
fn whole(value: &Json, min: f64) -> Option<i64> {
    let x = value.as_f64()?;
    (x.fract() == 0.0 && (min..=MAX_EXACT).contains(&x)).then_some(x as i64)
}

/// The unsigned integer field `key`, if present; an error naming it when
/// it is fractional, negative, out of range or not a number.
fn get_u64(obj: &Json, key: &str, id: Option<u64>) -> Result<Option<u64>, WireError> {
    obj.get(key)
        .map(|v| {
            whole(v, 0.0).map(|x| x as u64).ok_or_else(|| {
                WireError::new(id, format!("`{key}` must be an integer in 0..=2^53"))
            })
        })
        .transpose()
}

/// The string member `key`, if present; any other value is a
/// malformed request naming the member.
fn get_str<'a>(obj: &'a Json, key: &str, id: u64) -> Result<Option<&'a str>, WireError> {
    obj.get(key)
        .map(|v| {
            v.as_str()
                .ok_or_else(|| WireError::new(Some(id), format!("`{key}` must be a string")))
        })
        .transpose()
}

/// Parses one request line.
///
/// # Errors
///
/// Returns a [`WireError`] (with the id when recoverable) on malformed
/// JSON, a missing/unsupported version, an unknown command, or a
/// malformed payload.
pub fn parse_request(line: &str) -> Result<Request, WireError> {
    let mut doc = json::parse(line).map_err(|e| WireError::new(None, format!("bad JSON: {e}")))?;
    let id = get_u64(&doc, "id", None)?;
    let v = get_u64(&doc, "v", id)?
        .ok_or_else(|| WireError::new(id, "missing protocol version `v`"))?;
    if v != WIRE_VERSION {
        return Err(WireError::new(
            id,
            format!("unsupported protocol version {v} (this server speaks {WIRE_VERSION})"),
        ));
    }
    let id = id.ok_or_else(|| WireError::new(None, "missing request `id`"))?;
    let cmd = doc
        .get("cmd")
        .and_then(Json::as_str)
        .ok_or_else(|| WireError::new(Some(id), "missing `cmd`"))?;
    let cmd = match cmd {
        "ping" => Command::Ping,
        "stats" => Command::Stats,
        "dump" => Command::Dump,
        "shutdown" => Command::Shutdown,
        "compile" => Command::Compile(parse_exec(&mut doc, id)?),
        "analyze" => Command::Analyze(parse_exec(&mut doc, id)?),
        "run" => Command::Run(parse_exec(&mut doc, id)?),
        "sweep" => Command::Sweep(parse_exec(&mut doc, id)?),
        "explain" => Command::Explain(parse_exec(&mut doc, id)?),
        "verify" => Command::Verify(parse_exec(&mut doc, id)?),
        "trace" => Command::Trace(parse_exec(&mut doc, id)?),
        other => {
            return Err(WireError::new(
                Some(id),
                format!(
                    "unknown cmd `{other}` (expected ping|stats|dump|shutdown|compile|analyze|run|sweep|explain|verify|trace)"
                ),
            ))
        }
    };
    Ok(Request { id, cmd })
}

/// Moves the string member `key` out of `obj` (leaving it empty), so a
/// large one is not copied.
fn take_str(obj: &mut Json, key: &str) -> Option<String> {
    let Json::Obj(members) = obj else {
        return None;
    };
    match &mut members.iter_mut().find(|(k, _)| k == key)?.1 {
        Json::Str(s) => Some(std::mem::take(s)),
        _ => None,
    }
}

fn parse_exec(doc: &mut Json, id: u64) -> Result<ExecRequest, WireError> {
    let source = take_str(doc, "source")
        .ok_or_else(|| WireError::new(Some(id), "missing `source` (inline loop text)"))?;
    let policy = get_str(doc, "policy", id)?
        .map(|name| {
            Policy::from_name(name).ok_or_else(|| {
                WireError::new(
                    Some(id),
                    format!("unknown policy `{name}` (expected zero|eager|lazy|dominant|optimal)"),
                )
            })
        })
        .transpose()?;
    let mut params = Vec::new();
    if let Some(arr) = doc.get("params") {
        let arr = arr
            .as_arr()
            .ok_or_else(|| WireError::new(Some(id), "`params` must be an array of integers"))?;
        for p in arr {
            let v = whole(p, -MAX_EXACT).ok_or_else(|| {
                WireError::new(Some(id), "`params` must be an array of integers in ±2^53")
            })?;
            params.push(v);
        }
    }
    // `engine` no longer selects anything, but a value outside the
    // protocol's vocabulary is still a malformed request.
    if let Some(other) = get_str(doc, "engine", id)? {
        if !matches!(other, "native" | "simd") {
            return Err(WireError::new(
                Some(id),
                format!("unknown engine `{other}` (expected native|simd)"),
            ));
        }
    }
    // A zero-trip run has no data to measure (and nothing to verify).
    let ub = get_u64(doc, "ub", Some(id))?.unwrap_or(DEFAULT_UB);
    if ub == 0 {
        return Err(WireError::new(Some(id), "`ub` must be at least 1"));
    }
    Ok(ExecRequest {
        source,
        policy,
        seed: get_u64(doc, "seed", Some(id))?.unwrap_or(DEFAULT_SEED),
        ub,
        params,
        count: get_u64(doc, "count", Some(id))?.map_or(DEFAULT_COUNT, |c| c as usize),
    })
}

/// One response line under construction, in one buffer: the envelope
/// opens with `v`, `id` and the server-assigned `trace`, and closes as
/// a success carrying the result written through
/// [`result`](Reply::result), or as an error or `busy` envelope.
pub struct Reply {
    w: Writer,
    head: usize,
}

impl Reply {
    /// Opens the envelope of the reply to request `id`.
    pub fn new(id: u64, trace: impl fmt::Display) -> Reply {
        // Room for a `run` reply, so it is allocated once.
        let mut w = Writer::with_capacity(256);
        w.obj()
            .field("v", WIRE_VERSION)
            .field("id", id)
            .field("trace", Text(trace));
        Reply { head: w.mark(), w }
    }

    /// Marks the reply a success; the next value written to the
    /// returned writer is its `result`.
    pub fn result(&mut self) -> &mut Writer {
        self.w.field("ok", true).key("result")
    }

    /// The success line.
    pub fn ok(mut self) -> String {
        self.w.end_obj();
        self.w.finish()
    }

    /// The failure line with a readable message, discarding any result
    /// written.
    pub fn error(self, message: &str) -> String {
        self.fail(false, message)
    }

    /// The backpressure line: every execution slot and every waiting
    /// place is taken, try again later. Distinguished from other
    /// failures by `"busy":true`.
    pub fn busy(self) -> String {
        self.fail(true, "busy: job queue full, retry later")
    }

    fn fail(mut self, busy: bool, message: &str) -> String {
        self.w.rewind(self.head);
        self.w.field("ok", false);
        if busy {
            self.w.field("busy", true);
        }
        self.w.field("error", message).end_obj();
        self.w.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_control_and_exec_requests() {
        let r = parse_request(r#"{"v":1,"id":3,"cmd":"ping"}"#).unwrap();
        assert_eq!(r.id, 3);
        assert_eq!(r.cmd, Command::Ping);

        let r = parse_request(
            r#"{"v":1,"id":9,"cmd":"sweep","source":"x","policy":"lazy","seed":5,"ub":64,"count":12,"params":[3,-1]}"#,
        )
        .unwrap();
        let Command::Sweep(exec) = r.cmd else {
            panic!("expected sweep");
        };
        assert_eq!(exec.source, "x");
        assert_eq!(exec.policy, Some(Policy::Lazy));
        assert_eq!((exec.seed, exec.ub, exec.count), (5, 64, 12));
        assert_eq!(exec.params, vec![3, -1]);

        // Both engine names stay accepted and parse to the same request.
        let parse = |engine: &str| {
            let line = format!(r#"{{"v":1,"id":2,"cmd":"run","source":"x","engine":"{engine}"}}"#);
            parse_request(&line).map(|r| r.cmd)
        };
        assert_eq!(parse("simd"), parse("native"));
        assert!(matches!(parse("simd"), Ok(Command::Run(_))));
    }

    #[test]
    fn exec_defaults_apply() {
        let r = parse_request(r#"{"v":1,"id":1,"cmd":"run","source":"s"}"#).unwrap();
        let Command::Run(exec) = r.cmd else {
            panic!("expected run");
        };
        assert_eq!(exec.seed, DEFAULT_SEED);
        assert_eq!(exec.ub, DEFAULT_UB);
        assert_eq!(exec.count, DEFAULT_COUNT);
        assert_eq!(exec.policy, None);
        assert!(exec.params.is_empty());
    }

    #[test]
    fn malformed_requests_report_ids_when_possible() {
        let e = parse_request("not json").unwrap_err();
        assert_eq!(e.id, None);
        assert!(e.message.contains("bad JSON"));

        let e = parse_request(r#"{"id":4,"cmd":"ping"}"#).unwrap_err();
        assert_eq!(e.id, Some(4));
        assert!(e.message.contains("version"));

        let e = parse_request(r#"{"v":2,"id":4,"cmd":"ping"}"#).unwrap_err();
        assert!(e.message.contains("unsupported protocol version 2"));

        let e = parse_request(r#"{"v":1,"cmd":"ping"}"#).unwrap_err();
        assert!(e.message.contains("missing request `id`"));

        let e = parse_request(r#"{"v":1,"id":7,"cmd":"frobnicate"}"#).unwrap_err();
        assert_eq!(e.id, Some(7));
        assert!(e.message.contains("unknown cmd"));

        let e = parse_request(r#"{"v":1,"id":7,"cmd":"run"}"#).unwrap_err();
        assert!(e.message.contains("missing `source`"));

        let e =
            parse_request(r#"{"v":1,"id":7,"cmd":"run","source":"s","policy":"x"}"#).unwrap_err();
        assert!(e.message.contains("unknown policy"));

        let e =
            parse_request(r#"{"v":1,"id":7,"cmd":"run","source":"s","params":"no"}"#).unwrap_err();
        assert!(e.message.contains("`params` must be an array"));

        let e =
            parse_request(r#"{"v":1,"id":7,"cmd":"run","source":"s","engine":"jit"}"#).unwrap_err();
        assert!(e.message.contains("unknown engine"));
    }

    #[test]
    fn a_policy_or_engine_that_is_not_a_string_is_refused() {
        // Present with a value of another type: refused, not read as
        // absent (which would run under the default policy).
        for (member, value) in [
            ("policy", "5"),
            ("engine", "7"),
            ("policy", "null"),
            ("engine", r#"["simd"]"#),
        ] {
            let line = format!(r#"{{"v":1,"id":7,"cmd":"run","source":"s","{member}":{value}}}"#);
            let e = parse_request(&line).unwrap_err();
            let want = format!("`{member}` must be a string");
            assert_eq!((e.id, e.message), (Some(7), want), "{line}");
        }
    }

    #[test]
    fn envelopes_are_single_line_json_and_echo_the_trace_id() {
        let ok = |result: &str| {
            let mut reply = Reply::new(5, "c1-7");
            reply.result().raw(result);
            reply
        };
        for line in [
            ok(r#"{"pong":true}"#).ok(),
            Reply::new(5, "c1-7").error("oh \"no\"\nbad"),
            Reply::new(5, "c1-7").busy(),
            // A failure after a result was written discards the result.
            ok(r#"{"half":"#).error("late"),
        ] {
            assert!(!line.contains('\n'));
            let doc = json::parse(&line).unwrap();
            assert_eq!(doc.get("v").and_then(Json::as_f64), Some(1.0));
            assert_eq!(doc.get("id").and_then(Json::as_f64), Some(5.0));
            assert_eq!(doc.get("trace").and_then(Json::as_str), Some("c1-7"));
            assert_eq!(
                doc.get("result").is_some(),
                doc.get("ok") == Some(&Json::Bool(true))
            );
        }
        let busy = json::parse(&Reply::new(1, "c2-9").busy()).unwrap();
        assert_eq!(busy.get("busy"), Some(&Json::Bool(true)));
        assert_eq!(busy.get("ok"), Some(&Json::Bool(false)));
    }

    #[test]
    fn trace_and_dump_verbs_parse() {
        let r = parse_request(r#"{"v":1,"id":11,"cmd":"trace","source":"x"}"#).unwrap();
        let Command::Trace(exec) = r.cmd else {
            panic!("expected trace");
        };
        assert_eq!(exec.source, "x");
        assert_eq!(r.id, 11);

        let r = parse_request(r#"{"v":1,"id":12,"cmd":"dump"}"#).unwrap();
        assert_eq!(r.cmd, Command::Dump);
        assert_eq!(r.cmd.name(), "dump");
    }
}
