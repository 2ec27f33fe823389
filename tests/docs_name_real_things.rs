//! The documentation may only name things that exist (ROADMAP item 8's
//! gate, first slice): every target and flag on a `figures` command
//! line in the docs is a row of `hacc_bench::TARGETS` / `FLAGS`, and no
//! doc mentions a harness that was deleted.
//!
//! A command line is recognised as `figures -- …` or `figures --flag …`.
//! Inside a fenced block it runs to the end of the line; in prose it
//! must sit in inline code and runs to the closing backtick (it may
//! wrap). `<placeholders>` are skipped.

use crk_hacc::bench::{FLAGS, TARGETS};
use std::path::Path;

/// Markdown files (and the binary's own header) held to the tables.
const DOCS: [&str; 5] = [
    "README.md",
    "DESIGN.md",
    "EXPERIMENTS.md",
    ".claude/skills/verify/SKILL.md",
    "crates/bench/src/bin/figures.rs",
];

/// Retired harnesses and a dependency that never existed: host time is
/// measured in `benchmark/` only.
const RETIRED: [&str; 4] = ["cargo bench", "criterion", "BENCH_scaling", "crossbeam"];

fn read(rel: &str) -> String {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join(rel);
    let text = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{rel}: {e}"));
    if rel.ends_with(".rs") {
        // Only the `//!` header is documentation.
        text.lines()
            .map_while(|l| l.strip_prefix("//!"))
            .collect::<Vec<_>>()
            .join("\n")
    } else {
        text
    }
}

/// Every `figures` command line in `text`, as its argument tokens.
fn figures_command_lines(text: &str) -> Vec<Vec<String>> {
    // Fenced lines stand alone; everything between fences is one prose
    // buffer, so inline code may wrap across lines.
    let mut chunks: Vec<(bool, String)> = vec![(false, String::new())];
    let mut in_fence = false;
    for line in text.lines() {
        if line.trim_start().starts_with("```") {
            in_fence = !in_fence;
            chunks.push((false, String::new()));
        } else if in_fence {
            chunks.push((true, line.to_string()));
        } else {
            let prose = &mut chunks.last_mut().expect("seeded with one chunk").1;
            prose.push_str(line);
            prose.push('\n');
        }
    }
    let mut out = Vec::new();
    for (fenced, chunk) in &chunks {
        let mut rest = chunk.as_str();
        while let Some(at) = rest.find("figures") {
            rest = &rest[at + "figures".len()..];
            let args = rest.trim_start();
            if args.len() == rest.len() || !args.starts_with("--") {
                continue; // "figures.rs", "the figures binary", …
            }
            let end = if *fenced { None } else { args.find('`') };
            let args = &args[..end.unwrap_or(args.len())];
            out.push(
                args.split_whitespace()
                    .take_while(|t| !["#", "|", ">", "&&", ";"].contains(t))
                    .map(str::to_string)
                    .collect(),
            );
        }
    }
    out
}

#[test]
fn every_figures_target_and_flag_in_the_docs_exists() {
    let mut unknown = Vec::new();
    let mut checked = 0;
    for doc in DOCS {
        for args in figures_command_lines(&read(doc)) {
            let mut it = args.iter().skip_while(|t| *t == "--");
            while let Some(tok) = it.next() {
                checked += 1;
                if tok.starts_with('<') {
                    continue;
                }
                if tok.starts_with("--") {
                    match FLAGS.iter().find(|(name, _)| name == tok) {
                        Some((_, Some(_value))) => drop(it.next()),
                        Some((_, None)) => {}
                        None => unknown.push(format!("{doc}: flag `{tok}` in {args:?}")),
                    }
                } else if !TARGETS.iter().any(|t| t.name == tok) {
                    unknown.push(format!("{doc}: target `{tok}` in {args:?}"));
                }
            }
        }
    }
    assert!(
        unknown.is_empty(),
        "the docs name `figures` targets/flags that do not exist:\n{}",
        unknown.join("\n")
    );
    // The scan itself must keep finding the command lines it polices.
    assert!(
        checked >= 60,
        "only {checked} tokens found — scanner broken?"
    );
}

#[test]
fn the_scanner_sees_fenced_inline_and_wrapped_command_lines() {
    let text = "prose `figures -- ranks --async\n  --json B.json` and the `figures` binary.\n\
                ```bash\ncargo run --bin figures -- --size 6 fig9  # comment\n```\n\
                `HACC_EXEC=serial figures\n--threads 2 <targets>`, see figures.rs";
    let lines = figures_command_lines(text);
    let expect: [&[&str]; 3] = [
        &["--", "ranks", "--async", "--json", "B.json"],
        &["--", "--size", "6", "fig9"],
        &["--threads", "2", "<targets>"],
    ];
    assert_eq!(lines, expect);
}

#[test]
fn no_doc_mentions_a_retired_harness() {
    let mut hits = Vec::new();
    for doc in DOCS.into_iter().chain(["shims/README.md"]) {
        let text = read(doc);
        for word in RETIRED {
            for (n, line) in text.lines().enumerate().filter(|(_, l)| l.contains(word)) {
                hits.push(format!("{doc}:{}: `{word}` in {:?}", n + 1, line.trim()));
            }
        }
    }
    assert!(
        hits.is_empty(),
        "host wall-clock is measured in benchmark/ only; these passages \
         describe harnesses that no longer exist:\n{}",
        hits.join("\n")
    );
}
