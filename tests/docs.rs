//! The documents' references to the code, checked.
//!
//! DESIGN.md, docs/ARCHITECTURE.md, README.md and the verify skill name
//! source files and items in backticks: `tests/engine.rs`, or
//! `native/lower.rs::whole` for an item of a file. Every such path must
//! resolve — tried at the repository root, then under `examples/`,
//! `benchmark/`, `crates/` and `crates/*/src/` (where it must match one
//! crate only) — and every `::name` after it must be a `fn`, `struct`,
//! `enum`, `const`, `static`, `type`, `trait`, `mod` or `macro_rules!`
//! item spelled `name` in that file. A reference that says `DESIGN §N`
//! or `DESIGN §N.M` anywhere in the crates, the tests, the examples or
//! the maintained documents must name a heading of DESIGN.md, and so
//! must every `§` inside DESIGN.md that is not written `paper §…`.
//!
//! DESIGN.md itself is held to its shape: sections numbered 1, 2, … and
//! subsections N.1, N.2, … without gaps, no pull-request numbers, and
//! every section with an invariant list whose every item names the test
//! that pins it.
//!
//! ROADMAP.md's and CHANGES.md's file and test names are not resolved:
//! the roadmap names tests still to be written, and the change log
//! records names as they were. Nothing under `benchmark/` is scanned
//! for section references, since only a benchmark change may edit it.
//!
//! Plain string scanning, no dependency.

use std::collections::BTreeSet;
use std::fs;
use std::path::{Path, PathBuf};

/// The documents whose backticked `.rs` paths and items are resolved.
const RESOLVED_DOCS: [&str; 4] = [
    "DESIGN.md",
    "docs/ARCHITECTURE.md",
    "README.md",
    ".claude/skills/verify/SKILL.md",
];

/// Documents (beside DESIGN.md and every `.rs` file under
/// [`SOURCE_DIRS`]) whose `DESIGN §` references must name a heading.
const SECTION_DOCS: [&str; 6] = [
    "README.md",
    "ROADMAP.md",
    "EXPERIMENTS.md",
    "docs/ARCHITECTURE.md",
    "docs/POLICIES.md",
    ".claude/skills/verify/SKILL.md",
];

const SOURCE_DIRS: [&str; 4] = ["crates", "tests", "examples", "src"];

/// The item keywords a `path.rs::name` reference may resolve to.
const ITEM_KEYWORDS: [&str; 9] = [
    "fn",
    "struct",
    "enum",
    "const",
    "static",
    "type",
    "trait",
    "mod",
    "macro_rules!",
];

fn root() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

fn read(rel: &str) -> String {
    fs::read_to_string(root().join(rel)).unwrap_or_else(|e| panic!("reading {rel}: {e}"))
}

fn is_ident(c: char) -> bool {
    c.is_ascii_alphanumeric() || c == '_'
}

fn is_path_char(c: char) -> bool {
    is_ident(c) || matches!(c, '/' | '.' | '-')
}

/// 1-based line number of byte offset `at` in `text`.
fn line_of(text: &str, at: usize) -> usize {
    text[..at].matches('\n').count() + 1
}

/// Every inline code span of a Markdown text outside fenced blocks, with
/// the byte offset of its first character. A span may run across lines.
fn code_spans(text: &str) -> Vec<(usize, &str)> {
    // Blank out fenced blocks, keeping offsets.
    let mut prose = String::with_capacity(text.len());
    let mut fenced = false;
    for line in text.split_inclusive('\n') {
        let fence = line.trim_start().starts_with("```");
        if fence || fenced {
            for c in line.chars() {
                match c {
                    '\n' => prose.push('\n'),
                    _ => prose.extend(std::iter::repeat_n(' ', c.len_utf8())),
                }
            }
        } else {
            prose.push_str(line);
        }
        if fence {
            fenced = !fenced;
        }
    }
    let bytes = prose.as_bytes();
    let run_at = |i: usize| bytes[i..].iter().take_while(|&&b| b == b'`').count();
    let mut spans = Vec::new();
    let mut i = 0;
    while i < bytes.len() {
        if bytes[i] != b'`' {
            i += 1;
            continue;
        }
        let n = run_at(i);
        let start = i + n;
        let mut j = start;
        let mut close = None;
        while j < bytes.len() {
            if bytes[j] == b'`' {
                let m = run_at(j);
                if m == n {
                    close = Some(j);
                    break;
                }
                j += m;
            } else {
                j += 1;
            }
        }
        match close {
            Some(end) => {
                spans.push((start, &text[start..end]));
                i = end + n;
            }
            None => i = start,
        }
    }
    spans
}

/// A `.rs` path named in a code span, with the `::` items after it.
struct RsRef {
    path: String,
    items: Vec<String>,
}

/// Every `.rs` path in `span`. A path behind a placeholder character
/// (`<file>.rs`, `crates/*/src/x.rs`) is a pattern, not a reference.
fn rs_refs(span: &str) -> Vec<RsRef> {
    let mut refs = Vec::new();
    let mut from = 0;
    while let Some(k) = span[from..].find(".rs") {
        let dot = from + k;
        let end = dot + 3;
        from = end;
        if span[end..].chars().next().is_some_and(is_ident) {
            continue;
        }
        let start = span[..dot]
            .char_indices()
            .rev()
            .take_while(|&(_, c)| is_path_char(c))
            .last()
            .map_or(dot, |(i, _)| i);
        let before = span[..start].chars().next_back();
        if start == dot || before.is_some_and(|c| "*<>{}$".contains(c)) {
            continue;
        }
        let mut items = Vec::new();
        let mut rest = &span[end..];
        while let Some(tail) = rest.strip_prefix("::") {
            let len = tail.find(|c: char| !is_ident(c)).unwrap_or(tail.len());
            if len == 0 {
                break;
            }
            items.push(tail[..len].to_string());
            rest = &tail[len..];
        }
        refs.push(RsRef {
            path: span[start..end].to_string(),
            items,
        });
    }
    refs
}

/// Where a referenced `.rs` path lives, or why it does not resolve.
fn resolve(path: &str) -> Result<PathBuf, String> {
    for base in ["", "examples", "benchmark", "crates"] {
        let p = root().join(base).join(path);
        if p.is_file() {
            return Ok(p);
        }
    }
    let mut hits = Vec::new();
    let mut crates: Vec<PathBuf> = fs::read_dir(root().join("crates"))
        .expect("crates/ is readable")
        .map(|e| e.expect("a crates/ entry").path())
        .collect();
    crates.sort();
    for dir in crates {
        let p = dir.join("src").join(path);
        if p.is_file() {
            hits.push(p);
        }
    }
    match hits.len() {
        1 => Ok(hits.pop().expect("one hit")),
        0 => Err("no such file".to_string()),
        _ => Err(format!(
            "ambiguous: {}",
            hits.iter()
                .map(|p| p.strip_prefix(root()).unwrap_or(p).display().to_string())
                .collect::<Vec<_>>()
                .join(", ")
        )),
    }
}

/// Whether `source` declares an item spelled `name`.
fn declares(source: &str, name: &str) -> bool {
    ITEM_KEYWORDS.iter().any(|kw| {
        let needle = format!("{kw} {name}");
        source.match_indices(&needle).any(|(at, _)| {
            let before = source[..at].chars().next_back();
            let after = source[at + needle.len()..].chars().next();
            !before.is_some_and(is_ident) && !after.is_some_and(is_ident)
        })
    })
}

/// Every way `text`'s backticked `.rs` references fail to resolve,
/// each prefixed with `doc:line`.
fn unresolved(doc: &str, text: &str) -> Vec<String> {
    let mut errors = Vec::new();
    for (at, span) in code_spans(text) {
        for r in rs_refs(span) {
            let line = line_of(text, at);
            match resolve(&r.path) {
                Err(why) => errors.push(format!("{doc}:{line}: `{}`: {why}", r.path)),
                Ok(file) => {
                    let source = fs::read_to_string(&file).expect("a resolved file reads");
                    for item in r.items.iter().filter(|i| !declares(&source, i)) {
                        errors.push(format!(
                            "{doc}:{line}: `{}::{item}`: no item `{item}` in {}",
                            r.path,
                            file.strip_prefix(root()).unwrap_or(&file).display()
                        ));
                    }
                }
            }
        }
    }
    errors
}

/// The section numbers of DESIGN.md's `## N.` and `### N.M` headings,
/// in order.
fn design_headings(design: &str) -> Vec<String> {
    design
        .lines()
        .filter_map(|l| l.strip_prefix("### ").or_else(|| l.strip_prefix("## ")))
        .filter_map(|h| {
            let num = h.split_whitespace().next()?.trim_end_matches('.');
            let numeric = !num.is_empty() && num.split('.').all(|p| p.parse::<u32>().is_ok());
            numeric.then(|| num.to_string())
        })
        .collect()
}

/// The section numbers `§N`, `§N.M` starting at byte `at` of `text`
/// (just past a `§`), with the lists and ranges that continue them
/// (`§15, §19`, `§12–§14`), and the byte offset where they end.
fn section_numbers(text: &str, mut at: usize) -> (Vec<String>, usize) {
    let mut found = Vec::new();
    loop {
        let tail = &text[at..];
        let len = tail
            .char_indices()
            .take_while(|&(i, c)| {
                c.is_ascii_digit()
                    || (c == '.' && tail[i + 1..].starts_with(|d: char| d.is_ascii_digit()))
            })
            .count();
        if len == 0 {
            return (found, at);
        }
        found.push(tail[..len].to_string());
        let rest = &tail[len..];
        let next = [", §", " and §", "–§", "-§"]
            .iter()
            .find_map(|sep| rest.strip_prefix(sep).map(|_| sep.len()));
        match next {
            Some(skip) => at += len + skip,
            None => return (found, at + len),
        }
    }
}

/// Every `DESIGN §…` reference in `text`: the section numbers with the
/// byte offset of the `DESIGN` that introduces them. Between `DESIGN`
/// and `§` may stand `.md`, a Markdown link's brackets, whitespace and
/// a line comment's slashes, so a reference may wrap a line.
fn design_refs(text: &str) -> Vec<(usize, Vec<String>)> {
    let mut refs = Vec::new();
    for (at, _) in text.match_indices("DESIGN") {
        let rest = &text[at + "DESIGN".len()..];
        let rest = rest.strip_prefix(".md").unwrap_or(rest);
        let skipped = rest
            .find(|c: char| !(c.is_whitespace() || "()[]/!".contains(c)))
            .unwrap_or(rest.len());
        if rest[skipped..].starts_with('§') {
            let from = text.len() - rest.len() + skipped + '§'.len_utf8();
            refs.push((at, section_numbers(text, from).0));
        }
    }
    refs
}

/// Every `§` reference inside DESIGN.md that is not written as the
/// paper's (`paper §4.4`, `the paper's §5.3`, the word and the `§`
/// possibly a line apart).
fn internal_refs(design: &str) -> Vec<(usize, Vec<String>)> {
    let mut refs = Vec::new();
    let mut end = 0;
    for (at, _) in design.match_indices('§') {
        if at < end {
            continue; // inside the list the previous reference opened
        }
        let (nums, past) = section_numbers(design, at + '§'.len_utf8());
        end = past;
        let before = design[..at].trim_end();
        if !(before.ends_with("paper") || before.ends_with("paper's")) {
            refs.push((at, nums));
        }
    }
    refs
}

fn files_under(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = fs::read_dir(dir) else {
        return;
    };
    for entry in entries {
        let path = entry.expect("a directory entry").path();
        if path.is_dir() {
            if path.file_name().is_some_and(|n| n != "target") {
                files_under(&path, out);
            }
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}

fn report(what: &str, errors: Vec<String>) {
    assert!(errors.is_empty(), "{what}:\n  {}", errors.join("\n  "));
}

#[test]
fn every_rust_path_and_item_the_docs_name_exists() {
    let errors: Vec<String> = RESOLVED_DOCS
        .iter()
        .flat_map(|doc| unresolved(doc, &read(doc)))
        .collect();
    report("backticked `.rs` references that do not resolve", errors);
}

#[test]
fn every_design_section_reference_names_a_heading() {
    let design = read("DESIGN.md");
    let headings: BTreeSet<String> = design_headings(&design).into_iter().collect();
    let mut sources: Vec<(String, String)> = SECTION_DOCS
        .iter()
        .map(|doc| (doc.to_string(), read(doc)))
        .collect();
    let mut files = Vec::new();
    for dir in SOURCE_DIRS {
        files_under(&root().join(dir), &mut files);
    }
    files.sort();
    // This file's own examples of references are not references.
    files.retain(|f| !f.ends_with("tests/docs.rs"));
    for file in files {
        let text = fs::read_to_string(&file).expect("a source file reads");
        let name = file
            .strip_prefix(root())
            .unwrap_or(&file)
            .display()
            .to_string();
        sources.push((name, text));
    }
    let mut errors = Vec::new();
    for (name, text) in &sources {
        for (at, nums) in design_refs(text) {
            for n in nums.iter().filter(|n| !headings.contains(*n)) {
                errors.push(format!("{name}:{}: DESIGN §{n}", line_of(text, at)));
            }
        }
    }
    for (at, nums) in internal_refs(&design) {
        for n in nums.iter().filter(|n| !headings.contains(*n)) {
            errors.push(format!("DESIGN.md:{}: §{n}", line_of(&design, at)));
        }
    }
    report("section references to no DESIGN.md heading", errors);
}

#[test]
fn design_sections_are_numbered_without_gaps() {
    let design = read("DESIGN.md");
    let mut errors = Vec::new();
    let (mut section, mut sub) = (0u32, 0u32);
    for num in design_headings(&design) {
        let parts: Vec<u32> = num
            .split('.')
            .map(|p| p.parse().expect("numeric"))
            .collect();
        match parts[..] {
            [n] if n == section + 1 => (section, sub) = (n, 0),
            [n, m] if n == section && m == sub + 1 => sub = m,
            _ => errors.push(format!("heading {num} after {section}.{sub}")),
        }
    }
    if section == 0 {
        errors.push("no numbered `## N.` heading".to_string());
    }
    for (i, line) in design.lines().enumerate() {
        let pr = line.match_indices("PR ").any(|(at, _)| {
            line[at + 3..].starts_with(|c: char| c.is_ascii_digit())
                && !line[..at].ends_with(|c: char| c.is_ascii_alphanumeric())
        });
        if pr {
            errors.push(format!("line {}: a pull-request number: {line}", i + 1));
        }
    }
    report("DESIGN.md's numbering", errors);
}

/// The line that opens a section's invariant list.
const INVARIANTS: &str = "**Invariants.**";

#[test]
fn every_design_section_lists_invariants_that_name_their_tests() {
    let design = read("DESIGN.md");
    let lines: Vec<&str> = design.lines().collect();
    let mut errors = Vec::new();
    let mut sections_with_lists = BTreeSet::new();
    let mut section = String::new();
    let mut i = 0;
    while i < lines.len() {
        if let Some(h) = lines[i].strip_prefix("## ") {
            section = h.split('.').next().unwrap_or_default().to_string();
        }
        if lines[i].trim() != INVARIANTS {
            i += 1;
            continue;
        }
        sections_with_lists.insert(section.clone());
        i += 1;
        let mut items: Vec<(usize, String)> = Vec::new();
        while i < lines.len() && !lines[i].trim().is_empty() {
            if let Some(item) = lines[i].strip_prefix("- ") {
                items.push((i + 1, item.to_string()));
            } else if let Some(last) = items.last_mut() {
                last.1.push(' ');
                last.1.push_str(lines[i].trim());
            } else {
                errors.push(format!("line {}: the list must start with `- `", i + 1));
            }
            i += 1;
        }
        if items.is_empty() {
            errors.push(format!("§{section}: an empty invariant list"));
        }
        for (line, item) in items {
            let names_test = code_spans(&item)
                .iter()
                .any(|(_, s)| rs_refs(s).iter().any(|r| !r.items.is_empty()));
            if !names_test {
                errors.push(format!("line {line}: names no `file.rs::test`: {item}"));
            }
        }
    }
    for n in design_headings(&design).iter().filter(|n| !n.contains('.')) {
        if !sections_with_lists.contains(n) {
            errors.push(format!("§{n} has no `{INVARIANTS}` list"));
        }
    }
    report("DESIGN.md's invariant lists", errors);
}

#[test]
fn the_scanners_read_what_they_claim() {
    let spans = code_spans("a `x.rs` b\n```\n`not.rs`\n```\n``y `z` w`` `tests/a.rs::f::g`");
    let texts: Vec<&str> = spans.iter().map(|&(_, s)| s).collect();
    assert_eq!(texts, ["x.rs", "y `z` w", "tests/a.rs::f::g"]);

    let refs = rs_refs("see tests/a.rs::f::g, <file>.rs::<fn>, crates/*/src/x.rs and b.rsx");
    let got: Vec<(&str, Vec<&str>)> = refs
        .iter()
        .map(|r| {
            (
                r.path.as_str(),
                r.items.iter().map(String::as_str).collect(),
            )
        })
        .collect();
    assert_eq!(got, [("tests/a.rs", vec!["f", "g"])]);

    assert!(declares("pub(crate) fn whole(x: u8)", "whole"));
    assert!(!declares("fn wholesale()", "whole"));
    assert!(!declares("let whole = 1;", "whole"));

    let refs = design_refs("(DESIGN\n/// §9.4) and [DESIGN.md](../DESIGN.md) §4, §11 and §2.1");
    let nums: Vec<Vec<String>> = refs.into_iter().map(|(_, n)| n).collect();
    assert_eq!(nums, [vec!["9.4"], vec!["4", "11", "2.1"]]);

    let refs = internal_refs("paper §5.3, §4.4 and §2, then §7. The paper\n  §4.1. End");
    let nums: Vec<Vec<String>> = refs.into_iter().map(|(_, n)| n).collect();
    assert_eq!(nums, [vec!["7"]]);
}
