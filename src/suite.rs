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
