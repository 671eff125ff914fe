//! Umbrella crate: re-exports the whole `simdize` workspace for
//! tests/examples, and holds the helpers the integration tests share.
pub use simdize as core;

/// Absolute path of `path` inside the checkout.
pub fn repo(path: &str) -> String {
    format!("{}/{path}", env!("CARGO_MANIFEST_DIR"))
}

/// Source text of the bundled sample loop `loops/<name>.loop`.
pub fn sample(name: &str) -> String {
    let path = repo(&format!("loops/{name}.loop"));
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("missing {path}: {e}"))
}

/// Every bundled sample loop, `loops/*.loop`, as `(name, source text)`
/// in name order.
pub fn sample_loops() -> Vec<(String, String)> {
    let dir = repo("loops");
    let mut paths: Vec<_> = std::fs::read_dir(&dir)
        .unwrap_or_else(|e| panic!("read {dir}: {e}"))
        .map(|e| e.unwrap().path())
        .filter(|p| p.extension().is_some_and(|x| x == "loop"))
        .collect();
    paths.sort();
    paths
        .into_iter()
        .map(|path| {
            let name = path.file_stem().unwrap().to_string_lossy().into_owned();
            (name, std::fs::read_to_string(&path).unwrap())
        })
        .collect()
}

/// The non-unit-stride loops `tests/strided.rs` checks, as `(name,
/// source text)`: de-interleaving loads, interleaving stores, stride 4
/// at every residue of the trip count, mixed strides across statements,
/// byte-odd alignments, `u8` lanes and a dot product of pairs at four
/// widths.
pub fn strided_loops() -> Vec<(String, String)> {
    let mut out = vec![
        (
            "deinterleave_stride_two",
            "arrays { out: i32[512] @ 0; inter: i32[1040] @ 8; }
             for i in 0..500 { out[i] = inter[2*i] * inter[2*i] + inter[2*i+1] * inter[2*i+1]; }",
        ),
        (
            "interleave_stride_two_store",
            "arrays { inter: i16[2100] @ 2; x: i16[1040] @ 0; y: i16[1040] @ 6; }
             for i in 0..1000 { inter[2*i+1] = x[i] + y[i+3]; }",
        ),
        (
            "mixed_strides_and_statements",
            "arrays { gains: i16[600] @ 4; packed: i16[1200] @ 0; left: i16[600] @ 2;
                      stereo: i16[1220] @ 6; }
             for i in 0..512 { left[i] = packed[2*i] * gains[i+1];
                               stereo[2*i+1] = packed[2*i+1] + gains[i]; }",
        ),
        (
            "strided_with_non_natural_alignment",
            "arrays { out: i32[300] @ 3; src: i32[700] @ 5; }
             for i in 0..256 { out[i] = src[2*i+1] + 7; }",
        ),
        (
            "u8_stride_two_pixels",
            "arrays { gray: u8[1024] @ 0; ga: u8[2080] @ 1; }
             for i in 0..1000 { gray[i] = ga[2*i]; }",
        ),
    ]
    .into_iter()
    .map(|(name, text)| (name.to_string(), text.to_string()))
    .collect::<Vec<_>>();
    for ub in 96..=100 {
        out.push((
            format!("stride_four_ub{ub}"),
            format!(
                "arrays {{ out: i32[128] @ 4; src: i32[512] @ 12; }}
                 for i in 0..{ub} {{ out[i+1] = src[4*i+2] * 3; }}"
            ),
        ));
    }
    for (ty, size) in [("i8", 1), ("i16", 2), ("i32", 4), ("i64", 8)] {
        out.push((
            format!("pair_dot_{ty}"),
            format!(
                "arrays {{ acc: {ty}[16] @ {}; x: {ty}[1100] @ {}; }}
                 for i in 0..500 {{ acc[i] += x[2*i] * x[2*i+1]; }}",
                4 * size % 16,
                2 * size % 16
            ),
        ));
    }
    out
}

/// The source text of the loop [`strided_loops`] names `name`.
pub fn strided_loop(name: &str) -> String {
    strided_loops()
        .into_iter()
        .find(|(n, _)| n == name)
        .unwrap_or_else(|| panic!("no strided loop named `{name}`"))
        .1
}

/// Compares `actual` with the golden file at `rel_path` (which ends in
/// one newline whether or not `actual` does), or rewrites the file when
/// `UPDATE_GOLDEN` is set. `what` names the drift in the failure.
pub fn assert_golden(rel_path: &str, actual: &str, what: &str) {
    let path = repo(rel_path);
    let actual = format!("{}\n", actual.trim_end_matches('\n'));
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::write(&path, &actual).unwrap();
        return;
    }
    let expected = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("missing golden {path}: {e} (run with UPDATE_GOLDEN=1)"));
    assert_eq!(
        expected, actual,
        "{what}; if intended, UPDATE_GOLDEN=1 and re-review"
    );
}

/// Replaces every `"<key>":<integer>` value with 0 (hand-rolled — the
/// workspace carries no regex dependency).
fn zero_int_field(line: &mut String, key: &str) {
    let needle = format!("\"{key}\":");
    let mut from = 0;
    while let Some(pos) = line[from..].find(&needle) {
        let start = from + pos + needle.len();
        let end = line[start..]
            .find(|c: char| !c.is_ascii_digit())
            .map_or(line.len(), |n| start + n);
        if end > start {
            line.replace_range(start..end, "0");
        }
        from = start + 1;
    }
}

/// Replaces every `"<key>":"<value>"` value with `fixed`.
fn fix_str_field(line: &mut String, key: &str, fixed: &str) {
    let needle = format!("\"{key}\":\"");
    let mut from = 0;
    while let Some(pos) = line[from..].find(&needle) {
        let start = from + pos + needle.len();
        let Some(len) = line[start..].find('"') else {
            break;
        };
        line.replace_range(start..start + len, fixed);
        from = start + fixed.len() + 1;
    }
}

/// Normalizes the run-order- and clock-dependent fields of a rendered
/// JSON document (a wire response, a `simdize-trace/v1` trace, a flight
/// dump): trace ids (a process-scoped counter), thread tracks, flight
/// sequence numbers, the dispatched ISA name, and every wall-clock
/// field. Verbs, attributes, counts and payload shape stay exact — this
/// is the form the goldens pin.
pub fn normalize(line: &str) -> String {
    let mut out = line.to_string();
    for key in [
        "wall_ms", "wall_us", "latency_us", "seq", "tid", "start_ns", "dur_ns", "total_ns",
        "p50_ns", "p95_ns", "max_ns",
    ] {
        zero_int_field(&mut out, key);
    }
    for (key, fixed) in [("trace", "c0-0"), ("trace_id", "c0-0"), ("isa", "host")] {
        fix_str_field(&mut out, key, fixed);
    }
    out
}
