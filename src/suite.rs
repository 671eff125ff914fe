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
