//! The documentation may only name things that exist (ROADMAP item 8's
//! gate, first slice): every target and flag on a `figures` command
//! line in the docs is a row of `hacc_bench::TARGETS` / `FLAGS`, every
//! flag on a `quickstart` command line is an arm of the example's
//! argument `match`, no doc mentions a harness or environment switch
//! that was deleted, no crate reads its configuration from the
//! process environment, and no code outside the offload builds the
//! offload's geometry by hand.
//!
//! A command line is recognised as `figures -- …` or `figures --flag …`
//! (likewise `quickstart`). Inside a fenced block it runs to the end of
//! the line, once its `\` continuations are joined; in prose it must
//! sit in inline code and runs to the closing backtick (it may wrap).
//! `<placeholders>` are skipped. Every command line of a CI workflow
//! stands alone, as in a fenced block.

use crk_hacc::bench::{FLAGS, TARGETS};
use std::path::Path;

/// Markdown files, the two programs' own headers and the CI workflows
/// held to the tables.
const DOCS: [&str; 8] = [
    "README.md",
    "DESIGN.md",
    "EXPERIMENTS.md",
    ".claude/skills/verify/SKILL.md",
    "crates/bench/src/bin/figures.rs",
    "examples/quickstart.rs",
    ".github/workflows/ci.yml",
    ".github/workflows/nightly.yml",
];

/// Retired harnesses and a dependency that never existed (host time is
/// measured in `benchmark/` only), metrics modules and a source-marker
/// scheme that never existed (the mini-CBI measures anchored regions of
/// compiled code), retired environment switches
/// (configuration is an argument: a setter or a command-line flag),
/// retired fault-handling knobs (the budgets are constants), the
/// retired second multi-rank schedule (the task graph is the step), and
/// the retired second gate (each `figures` sweep judges itself against
/// its committed report), the retired runtime tuner and its
/// exploration (tuning is offline; a plan is a row of the table, and
/// `Simulation` takes none), the retired kernel-replay checkpoint
/// format (the §7.2 replay reads an `HCK2` capture), the retired
/// offload prologue (`hacc_kernels::Offload` is the one), the retired
/// serial-launch alias, the retired transport reordering knob (a
/// descending flush reorders arrivals), and the retired second PP rule
/// (§7.3 scores the CPU under Figure 12's rule).
const RETIRED: [&str; 38] = [
    "cargo bench",
    "criterion",
    "BENCH_scaling",
    "crossbeam",
    "sloc_breakdown",
    "hacc_metrics::navigation",
    "guard markers",
    "HACC_EXEC",
    "HACC_METER",
    "HACC_ASYNC",
    "LaunchPolicy",
    "RetryPolicy",
    "RecoveryPolicy",
    "set_retry_policy",
    "run_gravity_with_policy",
    "deadline_s",
    "max_recoveries",
    "step_barriered",
    "sweep_with",
    "wait_share_pairs",
    "perf_gate.py",
    "write-observe-baseline",
    "write-tune-baseline",
    "set_tuning",
    "take_tuning",
    "save_tuning",
    "tuning_enabled",
    "from_cache_file",
    "observe_step",
    "tune-cache.json",
    "explore_picks",
    "set_plan",
    "HCK1",
    "Simulation::geometry",
    ".deterministic()",
    "set_reorder_injection",
    "cpu_backend",
    "pp_with_cpu",
];

fn read(rel: &str) -> String {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join(rel);
    let text = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{rel}: {e}"));
    if rel.ends_with(".rs") {
        // Only the `//!` header is documentation.
        text.lines()
            .map_while(|l| l.strip_prefix("//!"))
            .collect::<Vec<_>>()
            .join("\n")
    } else if rel.ends_with(".yml") {
        workflow_commands(&text)
    } else {
        text
    }
}

/// A workflow's command lines, as one fenced block. Step names and comments are not commands, and
/// a negated one (`! … figures -- scaling`) names a retired target on
/// purpose.
fn workflow_commands(text: &str) -> String {
    let commands = text.lines().filter(|l| {
        let l = l.trim_start();
        !(l.starts_with('#') || l.starts_with("- name:") || l.contains("\"! "))
    });
    format!("```\n{}\n```", commands.collect::<Vec<_>>().join("\n"))
}

/// Every `program` command line in `text`, as its argument tokens.
fn command_lines(text: &str, program: &str) -> Vec<Vec<String>> {
    // Fenced lines stand alone once continuations are joined; everything
    // between fences is one prose buffer, so inline code may wrap.
    let mut chunks: Vec<(bool, String)> = vec![(false, String::new())];
    let mut in_fence = false;
    for line in text.replace("\\\n", " ").lines() {
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
        while let Some(at) = rest.find(program) {
            rest = &rest[at + program.len()..];
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
        for args in command_lines(&read(doc), "figures") {
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
                `RAYON_NUM_THREADS=2 figures\n--size 6 <targets>`, see figures.rs";
    let lines = command_lines(text, "figures");
    let expect: [&[&str]; 3] = [
        &["--", "ranks", "--async", "--json", "B.json"],
        &["--", "--size", "6", "fig9"],
        &["--size", "6", "<targets>"],
    ];
    assert_eq!(lines, expect);

    let workflow = "      # `figures -- scaling` is retired\n\
                    \x20     - name: Retired `figures -- scaling` target is rejected\n\
                    \x20       run: \"! cargo run --bin figures -- scaling\"\n\
                    \x20       run: |\n\
                    \x20         cargo run --bin figures -- autotune --full \\\n\
                    \x20           --json B.json > out.txt 2>&1\n";
    let lines = command_lines(&workflow_commands(workflow), "figures");
    assert_eq!(lines, [["--", "autotune", "--full", "--json", "B.json"]]);

    let fenced = "```bash\ncargo run --example quickstart -- \\\n    --ranks 4 --meter off\n```\n\
                  the quickstart's `quickstart --serial` run, see quickstart.rs";
    let lines = command_lines(fenced, "quickstart");
    let expect: [&[&str]; 2] = [&["--", "--ranks", "4", "--meter", "off"], &["--serial"]];
    assert_eq!(lines, expect);
}

/// The flags `examples/quickstart.rs` accepts: the `"--flag" =>` arms of
/// its argument `match`.
fn quickstart_flags() -> Vec<String> {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("examples/quickstart.rs");
    let text = std::fs::read_to_string(path).expect("examples/quickstart.rs");
    let arms = text.lines().filter_map(|l| {
        let (flag, _) = l.trim_start().strip_prefix("\"--")?.split_once("\" =>")?;
        Some(format!("--{flag}"))
    });
    arms.collect()
}

#[test]
fn every_quickstart_flag_in_the_docs_is_an_arm_of_its_match() {
    let arms = quickstart_flags();
    assert!(
        arms.len() >= 10,
        "only {arms:?} found — arm scanner broken?"
    );
    let mut unknown = Vec::new();
    let mut checked = 0;
    for doc in DOCS {
        for args in command_lines(&read(doc), "quickstart") {
            for tok in args.iter().filter(|t| t.starts_with("--") && *t != "--") {
                checked += 1;
                if !arms.contains(tok) {
                    unknown.push(format!("{doc}: flag `{tok}` in {args:?}"));
                }
            }
        }
    }
    assert!(
        unknown.is_empty(),
        "the docs name quickstart flags that examples/quickstart.rs does not \
         match on (accepted: {}):\n{}",
        arms.join(" | "),
        unknown.join("\n")
    );
    // The scan itself must keep finding the command lines it polices.
    assert!(
        checked >= 20,
        "only {checked} flags found — scanner broken?"
    );
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
        "these passages describe harnesses, environment switches or knobs that \
         no longer exist:\n{}",
        hits.join("\n")
    );
}

/// Every `.rs` file under `dir`, recursively.
fn rust_files(dir: &Path, out: &mut Vec<std::path::PathBuf>) {
    for entry in std::fs::read_dir(dir).unwrap_or_else(|e| panic!("{}: {e}", dir.display())) {
        let path = entry.expect("directory entry").path();
        if path.is_dir() {
            rust_files(&path, out);
        } else if path.extension().is_some_and(|x| x == "rs") {
            out.push(path);
        }
    }
}

#[test]
fn no_crate_reads_the_process_environment() {
    // `shims/` is exempt: it mimics upstream crates, and the rayon
    // shim's `RAYON_NUM_THREADS` is that crate's own convention.
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut files = Vec::new();
    rust_files(&root.join("examples"), &mut files);
    for krate in std::fs::read_dir(root.join("crates")).expect("crates/") {
        rust_files(&krate.expect("crate entry").path().join("src"), &mut files);
    }
    let mut hits = Vec::new();
    for file in &files {
        let text = std::fs::read_to_string(file).expect("read source");
        for (n, line) in text.lines().enumerate() {
            if ["env::var", "set_var", "remove_var"]
                .iter()
                .any(|w| line.contains(w))
            {
                let rel = file.strip_prefix(root).unwrap_or(file);
                hits.push(format!("{}:{}: {}", rel.display(), n + 1, line.trim()));
            }
        }
    }
    assert!(files.len() > 50, "only {} sources scanned", files.len());
    assert!(
        hits.is_empty(),
        "configuration is an argument (a setter or a flag), not the \
         process environment:\n{}",
        hits.join("\n")
    );
}

/// Outside `hacc-tree` and the work-list builders' oracle tests, only
/// `hacc_kernels::Offload::new` builds an RCB tree: a harness that
/// needs device work builds an offload, so the geometry has one home.
#[test]
fn only_the_offload_builds_an_rcb_tree() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let needle = concat!("RcbTree", "::build(");
    let mut files = Vec::new();
    rust_files(&root.join("tests"), &mut files);
    rust_files(&root.join("examples"), &mut files);
    for krate in std::fs::read_dir(root.join("crates")).expect("crates/") {
        let krate = krate.expect("crate entry").path();
        rust_files(&krate.join("src"), &mut files);
        if krate.join("tests").is_dir() {
            rust_files(&krate.join("tests"), &mut files);
        }
    }
    let mut builds = Vec::new();
    for file in &files {
        let rel = file.strip_prefix(root).unwrap_or(file);
        let rel = rel.to_string_lossy().replace('\\', "/");
        if rel.starts_with("crates/hacc-tree/") {
            continue;
        }
        let text = std::fs::read_to_string(file).expect("read source");
        let end = match rel.as_str() {
            "crates/hacc-kernels/src/worklist.rs" => text.find("#[cfg(test)]").expect("tests"),
            _ => text.len(),
        };
        for (at, _) in text[..end].match_indices(needle) {
            builds.push(format!("{rel}:{}", text[..at].matches('\n').count() + 1));
        }
    }
    assert!(files.len() > 50, "only {} sources scanned", files.len());
    assert!(
        builds.len() == 1 && builds[0].starts_with("crates/hacc-kernels/src/offload.rs:"),
        "build an `Offload` instead of a tree by hand; tree builds found at:\n{}",
        builds.join("\n")
    );
}
