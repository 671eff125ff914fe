//! Randomized property tests over the whole pipeline.
//!
//! These were proptest properties; they are now driven by seeded
//! [`SplitMix64`] sweeps so the suite builds and runs with no registry
//! access. Every case is derived deterministically from its index, so a
//! failure message's `case` number is a complete reproduction recipe.
//! Build with `--features fuzz` to multiply the case counts.

use simdize::{
    parse_program, reassociate, synthesize, BinOp, DiffConfig, Lane, Policy, ReorgGraph, ReuseMode,
    ScalarType, Scheme, Simdizer, TripSpec, UnOp, Value, VectorShape, WorkloadSpec,
};
use simdize_analysis::{AnalysisReport, Finding, Level, Lint, Section};
use simdize_explain::{render_json, ExplainReport, InapplicableReport, LoopInfo};
use simdize_prng::SplitMix64;
use simdize_server::protocol::{parse_request, Reply};
use simdize_telemetry::json::{self, Json};
use simdize_telemetry::{FlightEntry, FlightRecorder, RequestTrace, SpanRecord};
use std::collections::BTreeMap;

/// Case-count multiplier: 1 normally, 8 under `--features fuzz`.
const SCALE: usize = if cfg!(feature = "fuzz") { 8 } else { 1 };

const ELEMS: [ScalarType; 7] = [
    ScalarType::I8,
    ScalarType::U8,
    ScalarType::I16,
    ScalarType::U16,
    ScalarType::I32,
    ScalarType::U32,
    ScalarType::I64,
];

/// Draws a workload spec the way the old proptest strategy did:
/// 1–4 statements, 1–8 loads, free bias/reuse, any element type,
/// short trip counts, half the cases with runtime alignments.
fn draw_spec(rng: &mut SplitMix64) -> (WorkloadSpec, u64) {
    let spec = WorkloadSpec::new(
        rng.range_inclusive(1, 4) as usize,
        rng.range_inclusive(1, 8) as usize,
    )
    .bias(rng.range_f64(0.0, 1.0))
    .reuse(rng.range_f64(0.0, 1.0))
    .elem(ELEMS[rng.index(ELEMS.len())])
    .trip(TripSpec::KnownInRange(117, 130))
    .runtime_align(rng.chance(0.5));
    let seed = rng.next_u64();
    (spec, seed)
}

/// The crown jewel: any loop the generator can produce, simdized under
/// any applicable scheme, computes exactly what the scalar loop
/// computes.
#[test]
fn any_workload_verifies() {
    for case in 0..32 * SCALE {
        let mut rng = SplitMix64::seed_from_u64(0xA11_0000 + case as u64);
        let (spec, seed) = draw_spec(&mut rng);
        let program = synthesize(&spec, &mut SplitMix64::seed_from_u64(seed));
        let schemes = if spec.runtime_align {
            Scheme::runtime_contenders()
        } else {
            Scheme::contenders()
        };
        let scheme = schemes[rng.index(schemes.len())];
        let report = Simdizer::new()
            .scheme(scheme)
            .evaluate_with(&program, &DiffConfig::with_seed(seed ^ 0x5A5A))
            .unwrap_or_else(|e| panic!("case {case} ({scheme}): {e}"));
        assert!(report.verified, "case {case} ({scheme}) diverged");
    }
}

/// Every policy yields a graph satisfying (C.2)/(C.3), and the
/// placement quality ordering lazy ≤ eager holds.
#[test]
fn policies_valid_and_ordered() {
    for case in 0..64 * SCALE {
        let mut rng = SplitMix64::seed_from_u64(0xB01 + case as u64);
        let (spec, seed) = draw_spec(&mut rng);
        let spec = spec.runtime_align(false);
        let program = synthesize(&spec, &mut SplitMix64::seed_from_u64(seed));
        let graph = ReorgGraph::build(&program, VectorShape::V16).unwrap();
        let mut counts = std::collections::HashMap::new();
        for policy in Policy::ALL {
            let placed = graph.with_policy(policy).unwrap();
            placed.validate().unwrap();
            counts.insert(policy, placed.shift_count());
        }
        assert!(
            counts[&Policy::Lazy] <= counts[&Policy::Eager],
            "case {case}"
        );
        // Zero shifts exactly the misaligned streams: one per misaligned
        // load occurrence plus one per misaligned store.
        let mut expected_zero = 0usize;
        for stmt in program.stmts() {
            stmt.rhs.visit_loads(&mut |r| {
                if simdize::Offset::of_ref(r, &program, VectorShape::V16)
                    != simdize::Offset::Byte(0)
                {
                    expected_zero += 1;
                }
            });
            if simdize::Offset::of_ref(stmt.target, &program, VectorShape::V16)
                != simdize::Offset::Byte(0)
            {
                expected_zero += 1;
            }
        }
        assert_eq!(counts[&Policy::Zero], expected_zero, "case {case}");
    }
}

/// After common-offset reassociation, lazy placement reaches the
/// paper's analytic minimum of n−1 shifts per statement.
#[test]
fn reassoc_lazy_reaches_minimum() {
    for case in 0..64 * SCALE {
        let mut rng = SplitMix64::seed_from_u64(0x2EA550C + case as u64);
        let (spec, seed) = draw_spec(&mut rng);
        let spec = spec.runtime_align(false);
        let program = synthesize(&spec, &mut SplitMix64::seed_from_u64(seed));
        let re = reassociate(&program, VectorShape::V16);
        let placed = ReorgGraph::build(&re, VectorShape::V16)
            .unwrap()
            .with_policy(Policy::Lazy)
            .unwrap();
        placed.validate().unwrap();
        let unshifted = ReorgGraph::build(&re, VectorShape::V16).unwrap();
        let stats = placed.stats();
        for s in 0..program.stmts().len() {
            let n = simdize::distinct_alignments(&unshifted, s);
            assert_eq!(
                stats.per_stmt_shifts[s],
                n.saturating_sub(1),
                "case {case}, statement {s} of {re}"
            );
        }
    }
}

/// Reassociation never *increases* lazy's shift count, and preserves
/// the multiset of loads.
#[test]
fn reassoc_monotone() {
    for case in 0..64 * SCALE {
        let mut rng = SplitMix64::seed_from_u64(0x3030 + case as u64);
        let (spec, seed) = draw_spec(&mut rng);
        let spec = spec.runtime_align(false);
        let program = synthesize(&spec, &mut SplitMix64::seed_from_u64(seed));
        let re = reassociate(&program, VectorShape::V16);
        let shifts = |p: &simdize::LoopProgram| {
            ReorgGraph::build(p, VectorShape::V16)
                .unwrap()
                .with_policy(Policy::Lazy)
                .unwrap()
                .shift_count()
        };
        assert!(shifts(&re) <= shifts(&program), "case {case}");
        for (a, b) in program.stmts().iter().zip(re.stmts()) {
            let mut la = a.rhs.loads();
            let mut lb = b.rhs.loads();
            la.sort_by_key(|r| (r.array.index(), r.offset));
            lb.sort_by_key(|r| (r.array.index(), r.offset));
            assert_eq!(la, lb, "case {case}");
        }
    }
}

/// Textual round trip: printing a program and re-parsing it yields the
/// same program.
#[test]
fn source_roundtrip() {
    for case in 0..64 * SCALE {
        let mut rng = SplitMix64::seed_from_u64(0x5011D + case as u64);
        let (spec, seed) = draw_spec(&mut rng);
        let program = synthesize(&spec, &mut SplitMix64::seed_from_u64(seed));
        let reparsed = parse_program(&program.to_source()).unwrap();
        assert_eq!(program, reparsed, "case {case}");
    }
}

/// Software pipelining never loads more than the naive generator on
/// long loops without cross-statement array sharing. (With heavy reuse
/// the comparison genuinely goes both ways: LVN dedupes the naive
/// code's identical shifts *across* statements, while each SP carried
/// chain is private — the paper's harmonic means average over this.)
#[test]
fn sp_never_loads_more() {
    for case in 0..16 * SCALE {
        let mut rng = SplitMix64::seed_from_u64(0x5B00 + case as u64);
        let (spec, seed) = draw_spec(&mut rng);
        let spec = spec.reuse(0.0).trip(TripSpec::Known(1000));
        let program = synthesize(&spec, &mut SplitMix64::seed_from_u64(seed));
        let policy = if spec.runtime_align {
            Policy::Zero
        } else {
            Policy::Lazy
        };
        let naive = Simdizer::new()
            .policy(policy)
            .reuse(ReuseMode::None)
            .evaluate_with(&program, &DiffConfig::with_seed(seed))
            .unwrap();
        let sp = Simdizer::new()
            .policy(policy)
            .reuse(ReuseMode::SoftwarePipeline)
            .evaluate_with(&program, &DiffConfig::with_seed(seed))
            .unwrap();
        assert!(sp.stats.loads <= naive.stats.loads, "case {case}");
        assert!(sp.stats.total() <= naive.stats.total() + 16, "case {case}");
    }
}

/// Lane value algebra: wrapping ops are closed and obey the expected
/// identities for every element type.
#[test]
fn value_algebra() {
    let mut rng = SplitMix64::seed_from_u64(0xA16EB2A);
    for case in 0..256 * SCALE {
        let elem = ELEMS[rng.index(ELEMS.len())];
        let a = Value::new(elem, rng.next_u64());
        let b = Value::new(elem, rng.next_u64());
        assert_eq!(a.wrapping_add(b), b.wrapping_add(a), "case {case}");
        assert_eq!(a.wrapping_mul(b), b.wrapping_mul(a), "case {case}");
        assert_eq!(a.min_lane(b), b.min_lane(a), "case {case}");
        assert_eq!(a.max_lane(b).max_lane(b), a.max_lane(b), "case {case}");
        assert_eq!(a.wrapping_sub(b).wrapping_add(b), a, "case {case}");
        assert_eq!(a.not().not(), a, "case {case}");
        assert_eq!(a.wrapping_neg().wrapping_neg(), a, "case {case}");
        assert_eq!(
            Value::from_le_bytes(elem, &a.to_le_bytes()),
            a,
            "case {case}"
        );
        // min/max bracket both operands.
        let lo = a.min_lane(b).as_i64();
        let hi = a.max_lane(b).as_i64();
        assert!(lo <= hi, "case {case}");
    }
}

/// Every operator on one operand pair: the native-integer lane
/// ([`Lane`], what the scalar oracle's typed loop computes with) must
/// produce the bits the width-dynamic [`Value`] produces.
fn assert_lane_matches_value<T: Lane>(a: i64, b: i64) {
    let (ta, tb) = (T::from_i64(a), T::from_i64(b));
    let (va, vb) = (Value::from_i64(T::TYPE, a), Value::from_i64(T::TYPE, b));
    assert_eq!(
        (ta.to_value(), tb.to_value()),
        (va, vb),
        "{} {a} {b}",
        T::TYPE
    );
    for op in [
        BinOp::Add,
        BinOp::Sub,
        BinOp::Mul,
        BinOp::Min,
        BinOp::Max,
        BinOp::And,
        BinOp::Or,
        BinOp::Xor,
    ] {
        let lane = ta.binary(op, tb).to_value();
        assert_eq!(lane, op.apply(va, vb), "{va} {op} {vb}");
    }
    for op in [UnOp::Neg, UnOp::Not, UnOp::Abs] {
        assert_eq!(ta.unary(op).to_value(), op.apply(va), "{op} {va}");
    }
    let mut buf = [0u8; 8];
    ta.write_le(&mut buf);
    assert_eq!(buf[..T::TYPE.size()], *va.to_le_bytes(), "{va}");
    assert_eq!(T::read_le(&buf), ta, "{va}");
}

/// Typed lane ops ≡ `Value` for all 8 element types × 8 binary × 3
/// unary operators: exhaustive over operand pairs for the 8-bit types,
/// and for the wider ones an edge grid — 0, ±1, MIN, MAX, MAX−1 of both
/// signednesses, alternating bits, 64 random draws — which includes
/// `abs(MIN)`, `neg` on unsigned and `min`/`max` across the sign
/// boundary (`MAX` vs `MIN`, `-1` vs `0`).
#[test]
fn typed_lanes_match_value_semantics() {
    for a in 0..=255 {
        for b in 0..=255 {
            assert_lane_matches_value::<i8>(a, b);
            assert_lane_matches_value::<u8>(a, b);
        }
    }
    fn grid<T: Lane>() {
        let bits = T::TYPE.bits();
        let signed_max = ((1u64 << (bits - 1)) - 1) as i64;
        let signed_min = -signed_max - 1;
        let unsigned_max = if bits == 64 { -1 } else { (1i64 << bits) - 1 };
        let mut points = vec![
            0,
            1,
            -1,
            signed_min,
            signed_min + 1,
            signed_max,
            signed_max - 1,
            unsigned_max,
            unsigned_max - 1,
            0x5555_5555_5555_5555,
            0xAAAA_AAAA_AAAA_AAAAu64 as i64,
        ];
        let mut rng = SplitMix64::seed_from_u64(0x1A9E5 + u64::from(bits));
        points.extend((0..64).map(|_| rng.next_u64() as i64));
        for &a in &points {
            for &b in &points {
                assert_lane_matches_value::<T>(a, b);
            }
        }
    }
    grid::<i16>();
    grid::<u16>();
    grid::<i32>();
    grid::<u32>();
    grid::<i64>();
    grid::<u64>();
}

/// The strided extension: any mixed-stride workload (strides 1, 2, 4;
/// compile-time alignments and trip counts) verifies against the
/// scalar oracle.
#[test]
fn strided_workloads_verify() {
    for case in 0..24 * SCALE {
        let mut rng = SplitMix64::seed_from_u64(0x57B1DE + case as u64);
        let spec = WorkloadSpec::new(
            rng.range_inclusive(1, 3) as usize,
            rng.range_inclusive(1, 5) as usize,
        )
        .bias(rng.range_f64(0.0, 1.0))
        .reuse(rng.range_f64(0.0, 1.0))
        .trip(TripSpec::KnownInRange(117, 130))
        .strides(vec![1, 2, 4]);
        let seed = rng.next_u64();
        let program = synthesize(&spec, &mut SplitMix64::seed_from_u64(seed));
        let report = Simdizer::new()
            .evaluate_with(&program, &DiffConfig::with_seed(seed ^ 0xFEED))
            .unwrap_or_else(|e| panic!("case {case}: {e}"));
        assert!(report.verified, "case {case}");
    }
}

/// Reductions: random expressions folded with every reassociable
/// operation match the scalar fold exactly (wrapping arithmetic is
/// order-insensitive for these ops).
#[test]
fn reductions_verify() {
    use simdize::{BinOp, LoopBuilder};
    let ops = [
        BinOp::Add,
        BinOp::Mul,
        BinOp::Min,
        BinOp::Max,
        BinOp::And,
        BinOp::Or,
        BinOp::Xor,
    ];
    for case in 0..24 * SCALE {
        let mut rng = SplitMix64::seed_from_u64(0x2ED0CE + case as u64);
        let op = ops[rng.index(ops.len())];
        let elem = ELEMS[rng.index(ELEMS.len())];
        let loads = rng.range_inclusive(1, 4) as usize;
        let misalign = rng.range_u64(0, 16) as u32;
        let ub = rng.range_u64(100, 400);
        let seed = rng.next_u64();
        let d = elem.size() as u32;
        let mut b = LoopBuilder::new(elem);
        let acc = b.array("acc", 32, misalign - misalign % d);
        let len = ub + 32;
        let rhs = (0..loads)
            .map(|l| {
                let arr = b.array(format!("x{l}"), len, (l as u32 * d) % 16);
                arr.load(l as i64)
            })
            .reduce(|a, e| simdize::Expr::binary(op, a, e))
            .unwrap();
        b.reduce(acc.at(1), op, rhs);
        let program = b.finish(ub).unwrap();
        let report = Simdizer::new()
            .evaluate_with(&program, &DiffConfig::with_seed(seed))
            .unwrap_or_else(|e| panic!("case {case}: {e}"));
        assert!(report.verified, "case {case}");
    }
}

/// The parser never panics: arbitrary input is either a valid program
/// or a clean error.
#[test]
fn parser_never_panics() {
    let mut rng = SplitMix64::seed_from_u64(0xFA22);
    for _ in 0..256 * SCALE {
        let len = rng.index(200);
        let input: String = (0..len)
            .map(|_| char::from_u32(rng.range_u64(1, 0x500) as u32).unwrap_or('?'))
            .collect();
        let _ = parse_program(&input);
    }
}

/// Structured fuzzing: near-miss programs built from valid fragments
/// with random mutations still never panic the parser.
#[test]
fn parser_survives_mutations() {
    const TOKENS: &[u8] = b"[]{}();:=+*@?0123456789abcdefghij ";
    let base = "arrays { a: i32[128] @ 0; b: i32[128] @ 4; }
                params { k; }
                for i in 0..ub { a[i+3] += b[2*i+1] * k; }";
    let mut rng = SplitMix64::seed_from_u64(0x3417A7E);
    for _ in 0..256 * SCALE {
        let insert: String = (0..rng.index(9))
            .map(|_| TOKENS[rng.index(TOKENS.len())] as char)
            .collect();
        let mut at = rng.index(base.len() + 1);
        while !base.is_char_boundary(at) {
            at -= 1;
        }
        let mutated = format!("{}{}{}", &base[..at], insert, &base[at..]);
        let _ = parse_program(&mutated);
    }
}

/// The wire parser's counterpart: every request line of the server's
/// wire golden, with bytes inserted, deleted and bit-flipped, never
/// panics `parse_request`, and one input always gets one answer — the
/// same error, id and message, both times it is parsed.
#[test]
fn wire_parser_survives_mutations() {
    let golden = include_str!("golden/server-wire.txt");
    let requests: Vec<&[u8]> = golden
        .lines()
        .filter(|l| l.contains("\"cmd\""))
        .map(str::as_bytes)
        .collect();
    assert!(requests.len() >= 8, "{} request lines", requests.len());
    const BYTES: &[u8] = b"{}[]\":,\\0123456789aeflnrstuv \x7f\xc3";
    let parse = |line: &str| parse_request(line).map(drop).map_err(|e| (e.id, e.message));
    let mut rng = SplitMix64::seed_from_u64(0x51DE_3A7E);
    for case in 0..512 * SCALE {
        let mut line = requests[rng.index(requests.len())].to_vec();
        for _ in 0..1 + rng.index(4) {
            let at = rng.index(line.len() + 1);
            match rng.index(3) {
                0 => line.insert(at, BYTES[rng.index(BYTES.len())]),
                1 if at < line.len() => drop(line.remove(at)),
                _ if at < line.len() => line[at] ^= 1 << rng.index(8),
                _ => {}
            }
        }
        let line = String::from_utf8_lossy(&line);
        assert_eq!(parse(&line), parse(&line), "case {case}: {line}");
    }
}

/// Every program the pipeline generates passes the static VIR verifier
/// (SSA discipline, permute/shift/splice ranges).
#[test]
fn generated_programs_pass_the_verifier() {
    for case in 0..32 * SCALE {
        let mut rng = SplitMix64::seed_from_u64(0x7E21F1E2 + case as u64);
        let (spec, seed) = draw_spec(&mut rng);
        let program = synthesize(&spec, &mut SplitMix64::seed_from_u64(seed));
        let schemes = if spec.runtime_align {
            Scheme::runtime_contenders()
        } else {
            Scheme::contenders()
        };
        let scheme = schemes[rng.index(schemes.len())];
        let compiled = Simdizer::new().scheme(scheme).compile(&program).unwrap();
        simdize::verify_program(&compiled)
            .unwrap_or_else(|e| panic!("case {case} ({scheme}): {e}"));
    }
}

/// Up to 24 characters a JSON writer must escape or carry through
/// untouched: quotes, backslashes, every C0 control, U+2028 and
/// multi-byte UTF-8.
fn hostile(rng: &mut SplitMix64) -> String {
    let pool: Vec<char> = (0..0x20u8)
        .map(char::from)
        .chain([
            '"', '\\', '/', '\u{2028}', '\u{7f}', 'é', '€', '𝄞', 'a', ' ',
        ])
        .collect();
    (0..rng.index(25))
        .map(|_| pool[rng.index(pool.len())])
        .collect()
}

/// The string members of an object, in document order.
fn members(doc: Option<&Json>) -> Vec<(String, String)> {
    let Some(Json::Obj(members)) = doc else {
        panic!("expected an object, got {doc:?}");
    };
    members
        .iter()
        .map(|(k, v)| (k.clone(), v.as_str().expect("a string member").to_string()))
        .collect()
}

fn text<'a>(doc: &'a Json, key: &str) -> &'a str {
    doc.get(key)
        .and_then(Json::as_str)
        .unwrap_or_else(|| panic!("no string `{key}` in {doc:?}"))
}

/// Every kind of document the system writes parses, and gives back the
/// exact strings that went into its string-bearing fields.
#[test]
fn hostile_strings_round_trip_through_every_document() {
    let figure1 = parse_program(&simdize_suite::sample("figure1")).unwrap();
    let mut vopts = simdize::VerifyOptions::quick();
    (vopts.budget, vopts.threads, vopts.policies) = (1, 1, vec![Policy::Lazy]);
    for case in 0..16 * SCALE {
        let mut rng = SplitMix64::seed_from_u64(0x150_0000 + case as u64);
        let mut h = || hostile(&mut rng);
        let attrs: BTreeMap<String, String> = (0..3).map(|_| (h(), h())).collect();
        let attr_list: Vec<(String, String)> = attrs.clone().into_iter().collect();

        // Flight entries: ids, verb, attributes and the error.
        let rec = FlightRecorder::new(1, 1);
        let entry = FlightEntry {
            seq: 0,
            trace_id: h(),
            verb: h(),
            latency_us: 1,
            ok: false,
            attrs: attrs.clone(),
            error: Some(h()),
        };
        rec.record(entry.clone());
        let doc = json::parse(&rec.render_json()).unwrap();
        let got = &doc.get("entries").and_then(Json::as_arr).unwrap()[0];
        assert_eq!(text(got, "trace_id"), entry.trace_id, "case {case}");
        assert_eq!(text(got, "verb"), entry.verb, "case {case}");
        assert_eq!(
            Some(text(got, "error")),
            entry.error.as_deref(),
            "case {case}"
        );
        assert_eq!(members(got.get("attrs")), attr_list, "case {case}");

        // Request traces: ids, attributes, span names and paths, error.
        let events = vec![SpanRecord {
            path: format!("{}/{}", h(), h()),
            ns: 5,
            start_ns: 1,
            tid: 0,
        }];
        let trace = RequestTrace {
            trace_id: h(),
            verb: h(),
            wall_us: 7,
            attrs: attrs.clone(),
            spans: simdize_telemetry::build_tree(&events),
            events,
            error: Some(h()),
        };
        let doc = json::parse(&trace.render_json()).unwrap();
        assert_eq!(text(&doc, "trace_id"), trace.trace_id, "case {case}");
        assert_eq!(text(&doc, "verb"), trace.verb, "case {case}");
        assert_eq!(
            Some(text(&doc, "error")),
            trace.error.as_deref(),
            "case {case}"
        );
        assert_eq!(members(doc.get("attrs")), attr_list, "case {case}");
        let span = &doc.get("spans").and_then(Json::as_arr).unwrap()[0];
        assert_eq!(text(span, "name"), trace.spans[0].name, "case {case}");
        let event = &doc.get("events").and_then(Json::as_arr).unwrap()[0];
        assert_eq!(text(event, "path"), trace.events[0].path, "case {case}");

        // The Chrome export of the same trace.
        let doc = json::parse(&trace.render_chrome()).unwrap();
        let events = doc.get("traceEvents").and_then(Json::as_arr).unwrap();
        assert_eq!(
            text(&events[1], "name"),
            format!("request:{}", trace.verb),
            "case {case}"
        );
        let mut args = vec![("trace_id".to_string(), trace.trace_id.clone())];
        args.extend(attr_list.iter().cloned());
        assert_eq!(members(events[1].get("args")), args, "case {case}");
        let path = &trace.events[0].path;
        assert_eq!(text(&events[2], "cat"), path, "case {case}");
        assert_eq!(
            Some(text(&events[2], "name")),
            path.rsplit('/').next(),
            "case {case}"
        );

        // The prover's report names its loop.
        let name = h();
        let report = simdize::prove_loop(&name, &figure1, &vopts);
        let doc = json::parse(&report.render_json()).unwrap();
        assert_eq!(text(&doc, "loop"), name, "case {case}");

        // Lint messages.
        let message = h();
        let finding = Finding {
            lint: Lint::ALL[case % Lint::ALL.len()],
            level: Level::Warn,
            section: Section::Body,
            index: 0,
            register: None,
            message: message.clone(),
        };
        let doc = json::parse(&AnalysisReport::new(vec![finding], 1, 1).render_json()).unwrap();
        let got = &doc.get("findings").and_then(Json::as_arr).unwrap()[0];
        assert_eq!(text(got, "message"), message, "case {case}");

        // Explain reports: the loop's source and array names, the
        // error and its explanation.
        let info = LoopInfo {
            source: h(),
            array_names: vec![h(), h()],
            policy: Policy::Eager,
            policy_forced: true,
            shape: VectorShape::V16,
            block: 4,
            seed: 1,
            ub: 1,
        };
        let (report_error, explanation) = (h(), h());
        let report = InapplicableReport {
            info: info.clone(),
            error: report_error.clone(),
            explanation: explanation.clone(),
        };
        let doc = json::parse(&render_json(&ExplainReport::Inapplicable(report))).unwrap();
        let got = doc.get("loop").unwrap();
        assert_eq!(text(got, "source"), info.source, "case {case}");
        let arrays = got.get("arrays").and_then(Json::as_arr).unwrap();
        let arrays: Vec<&str> = arrays.iter().filter_map(Json::as_str).collect();
        assert_eq!(arrays, info.array_names, "case {case}");
        assert_eq!(text(&doc, "error"), report_error, "case {case}");
        assert_eq!(text(&doc, "explanation"), explanation, "case {case}");

        // Wire error envelopes.
        let (trace_id, message) = (h(), h());
        let doc = json::parse(&Reply::new(3, &trace_id).error(&message)).unwrap();
        assert_eq!(text(&doc, "trace"), trace_id, "case {case}");
        assert_eq!(text(&doc, "error"), message, "case {case}");
    }
}
