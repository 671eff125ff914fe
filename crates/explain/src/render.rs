//! Human-readable report rendering: plain text for the terminal and
//! Markdown for the generated worked-example docs.

use crate::decision::DecisionId;
use crate::report::{ExplainReport, InapplicableReport, LoopInfo, StreamReport};
use std::fmt::Write as _;

fn links_str(links: &[DecisionId]) -> String {
    links
        .iter()
        .map(|l| l.to_string())
        .collect::<Vec<_>>()
        .join(", ")
}

fn loop_header(out: &mut String, info: &LoopInfo) {
    for line in info.source.lines() {
        let _ = writeln!(out, "    {line}");
    }
    let names: Vec<String> = info
        .array_names
        .iter()
        .enumerate()
        .map(|(i, n)| format!("arr{i} = {n}"))
        .collect();
    let _ = writeln!(out, "arrays: {}", names.join(", "));
    let _ = writeln!(
        out,
        "policy: {} ({}); {} lanes on {}; seed {}; trip count {}",
        info.policy.name(),
        if info.policy_forced {
            "forced"
        } else {
            "chosen automatically"
        },
        info.block,
        info.shape,
        info.seed,
        info.ub
    );
}

/// Renders a report as plain text for the terminal.
pub fn render_text(report: &ExplainReport) -> String {
    match report {
        ExplainReport::Stream(r) => stream_text(r),
        ExplainReport::Inapplicable(r) => inapplicable_text(r),
    }
}

fn stream_text(r: &StreamReport) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "simdize explain — stream simdization");
    loop_header(&mut out, &r.info);

    let _ = writeln!(out, "\n== decisions ==");
    for (id, text) in r.decisions.entries() {
        let _ = writeln!(out, "{id:>4}  {text}");
    }

    let _ = writeln!(out, "\n== data reorganization graph (after placement) ==");
    out.push_str(&r.graph);
    let _ = writeln!(out, "{} stream shift(s)", r.shift_count);

    let _ = writeln!(
        out,
        "\n== generated program (instruction \u{2190} decisions) =="
    );
    let width = r
        .sections
        .iter()
        .flat_map(|s| s.insts.iter())
        .map(|i| i.text.chars().count() + 4 * i.depth)
        .max()
        .unwrap_or(0);
    for section in &r.sections {
        let _ = writeln!(out, "{}", section.header);
        for inst in &section.insts {
            let indent = "    ".repeat(inst.depth);
            let pad = width - (inst.text.chars().count() + 4 * inst.depth);
            let _ = writeln!(
                out,
                "  {indent}{}{}  \u{2190} {}",
                inst.text,
                " ".repeat(pad),
                links_str(&inst.links)
            );
        }
    }

    let _ = writeln!(
        out,
        "\n== operations-per-datum accounting (every op attributed) =="
    );
    let _ = writeln!(
        out,
        "{:<20} {:>9} {:>7} {:>9} {:>9} {:>9}  decisions",
        "class", "count", "weight", "ops", "bound", "excess"
    );
    for row in &r.accounting.rows {
        if row.count == 0 {
            continue;
        }
        let _ = writeln!(
            out,
            "{:<20} {:>9} {:>7} {:>9} {:>9.2} {:>+9.2}  {}",
            row.class,
            row.count,
            row.weight,
            row.contribution,
            row.bound,
            row.contribution as f64 - row.bound,
            links_str(&row.links)
        );
    }
    let _ = writeln!(
        out,
        "{:<20} {:>9} {:>7} {:>9}",
        "total", "", "", r.accounting.total
    );
    let _ = writeln!(
        out,
        "opd: {:.3} measured ({} ops / {} data) vs {:.3} analytic lower bound (\u{a7}5.3)",
        r.accounting.opd, r.accounting.total, r.accounting.data, r.accounting.bound_opd
    );
    let _ = writeln!(
        out,
        "verified: {} (byte-identical to the scalar oracle); native engine stats match: {}{}",
        r.verified,
        r.engine_matches,
        if r.engine_fallback {
            " (engine used the scalar fallback)"
        } else {
            ""
        }
    );
    let _ = writeln!(out, "speedup: {:.2}x vs idealistic scalar", r.speedup);
    out
}

fn inapplicable_text(r: &InapplicableReport) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "simdize explain — not applicable");
    loop_header(&mut out, &r.info);
    let _ = writeln!(out, "\nerror: {}", r.error);
    let _ = writeln!(out, "\nwhy:");
    for line in wrap(&r.explanation, 72) {
        let _ = writeln!(out, "  {line}");
    }
    out
}

/// Renders a report as Markdown (the format of `docs/worked-examples/`).
pub fn render_markdown(report: &ExplainReport) -> String {
    match report {
        ExplainReport::Stream(r) => stream_markdown(r),
        ExplainReport::Inapplicable(r) => inapplicable_markdown(r),
    }
}

fn md_loop_header(out: &mut String, info: &LoopInfo, title: &str) {
    let _ = writeln!(out, "# {title}");
    let _ = writeln!(out, "\n```text");
    let _ = write!(out, "{}", info.source);
    let _ = writeln!(out, "```");
    let names: Vec<String> = info
        .array_names
        .iter()
        .enumerate()
        .map(|(i, n)| format!("`arr{i}` = `{n}`"))
        .collect();
    let _ = writeln!(
        out,
        "\n- policy: **{}** ({})",
        info.policy.name(),
        if info.policy_forced {
            "forced"
        } else {
            "chosen automatically"
        }
    );
    let _ = writeln!(out, "- vector shape: {} ({} lanes)", info.shape, info.block);
    let _ = writeln!(out, "- array ids: {}", names.join(", "));
    let _ = writeln!(
        out,
        "- measured with memory seed {}, trip count {}",
        info.seed, info.ub
    );
}

fn stream_markdown(r: &StreamReport) -> String {
    let mut out = String::new();
    md_loop_header(
        &mut out,
        &r.info,
        &format!("Worked example: {}-shift placement", r.info.policy.name()),
    );

    let _ = writeln!(out, "\n## Decisions\n");
    let _ = writeln!(out, "| id | decision |");
    let _ = writeln!(out, "|----|----------|");
    for (id, text) in r.decisions.entries() {
        let _ = writeln!(out, "| {id} | {} |", text.replace('|', "\\|"));
    }

    let _ = writeln!(out, "\n## Data reorganization graph (after placement)\n");
    let _ = writeln!(out, "```text");
    out.push_str(&r.graph);
    let _ = writeln!(out, "{} stream shift(s)", r.shift_count);
    let _ = writeln!(out, "```");

    let _ = writeln!(out, "\n## Generated program\n");
    let _ = writeln!(
        out,
        "Every instruction is back-linked (`\u{2190}`) to the decision(s) that \
         produced it; ids refer to the table above.\n"
    );
    let _ = writeln!(out, "```text");
    let width = r
        .sections
        .iter()
        .flat_map(|s| s.insts.iter())
        .map(|i| i.text.chars().count() + 4 * i.depth)
        .max()
        .unwrap_or(0);
    for section in &r.sections {
        let _ = writeln!(out, "{}", section.header);
        for inst in &section.insts {
            let indent = "    ".repeat(inst.depth);
            let pad = width - (inst.text.chars().count() + 4 * inst.depth);
            let _ = writeln!(
                out,
                "  {indent}{}{}  \u{2190} {}",
                inst.text,
                " ".repeat(pad),
                links_str(&inst.links)
            );
        }
    }
    let _ = writeln!(out, "```");

    let _ = writeln!(out, "\n## Operations-per-datum accounting\n");
    let _ = writeln!(
        out,
        "| class | count | weight | ops | bound | excess | decisions |"
    );
    let _ = writeln!(
        out,
        "|-------|------:|-------:|----:|------:|-------:|-----------|"
    );
    for row in &r.accounting.rows {
        if row.count == 0 {
            continue;
        }
        let _ = writeln!(
            out,
            "| {} | {} | {} | {} | {:.2} | {:+.2} | {} |",
            row.class,
            row.count,
            row.weight,
            row.contribution,
            row.bound,
            row.contribution as f64 - row.bound,
            links_str(&row.links)
        );
    }
    let _ = writeln!(out, "| **total** | | | **{}** | | | |", r.accounting.total);
    let _ = writeln!(
        out,
        "\nMeasured OPD **{:.3}** ({} ops over {} data) against the \u{a7}5.3 \
         analytic lower bound **{:.3}**. The weighted counts above sum exactly \
         to the engine's measured total — every excess op is attributed to a \
         named decision.",
        r.accounting.opd, r.accounting.total, r.accounting.data, r.accounting.bound_opd
    );
    let _ = writeln!(
        out,
        "\n- verified: **{}** (byte-identical to the scalar oracle)",
        r.verified
    );
    let _ = writeln!(
        out,
        "- native engine stats match the interpreter: **{}**{}",
        r.engine_matches,
        if r.engine_fallback {
            " (scalar fallback)"
        } else {
            ""
        }
    );
    let _ = writeln!(out, "- speedup: **{:.2}x** vs idealistic scalar", r.speedup);
    out
}

fn inapplicable_markdown(r: &InapplicableReport) -> String {
    let mut out = String::new();
    md_loop_header(
        &mut out,
        &r.info,
        &format!(
            "Worked example: why {}-shift does not apply",
            r.info.policy.name()
        ),
    );
    let _ = writeln!(out, "\n## The policy is inapplicable\n");
    let _ = writeln!(out, "```text\n{}\n```", r.error);
    let _ = writeln!(out, "\n{}", r.explanation);
    out
}

fn wrap(text: &str, width: usize) -> Vec<String> {
    let mut lines = Vec::new();
    let mut line = String::new();
    for word in text.split_whitespace() {
        if !line.is_empty() && line.chars().count() + 1 + word.chars().count() > width {
            lines.push(std::mem::take(&mut line));
        }
        if !line.is_empty() {
            line.push(' ');
        }
        line.push_str(word);
    }
    if !line.is_empty() {
        lines.push(line);
    }
    lines
}
