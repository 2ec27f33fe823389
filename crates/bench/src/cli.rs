//! The `figures` command line as data: the closed sets of targets and
//! flags, and the one parser that checks an invocation against them.
//! `tests/docs_name_real_things.rs` holds the documentation to the same
//! two tables, so a name is added or retired here and nowhere else.

/// One `figures` target.
#[derive(Debug)]
pub struct Target {
    /// Name as typed after `figures --`.
    pub name: &'static str,
    /// Printed by `figures -- all` (and a bare `figures`). The other
    /// targets are standalone sweeps: one runs alone, gates itself and
    /// writes its own `BENCH_*.json`.
    pub in_all: bool,
    /// Needs the `--size N` kernel workload built before it can print.
    pub needs_workload: bool,
}

const fn target(name: &'static str, in_all: bool, needs_workload: bool) -> Target {
    Target {
        name,
        in_all,
        needs_workload,
    }
}

/// Every target `figures` accepts, in the order `all` prints them.
pub const TARGETS: &[Target] = &[
    target("table1", true, false),
    target("table2", true, false),
    target("fom", true, false),
    target("fig2", true, true),
    target("fig9", true, true),
    target("fig10", true, true),
    target("fig11", true, true),
    target("fig12", true, true),
    target("fig13", true, true),
    target("ablations", true, true),
    target("cpu", true, true),
    target("profile", true, true),
    target("validate", false, false),
    target("ranks", false, false),
    target("resilience", false, false),
    target("health", false, false),
    target("autotune", false, false),
    target("faults", false, false),
    target("all", false, true),
];

/// Every flag `figures` accepts: its name as typed, and what the next
/// argument is (`None` for a switch).
pub const FLAGS: &[(&str, Option<&str>)] = &[
    ("--size", Some("N")),
    ("--threads", Some("N")),
    ("--serial", None),
    ("--async", None),
    ("--full", None),
    ("--seeds", Some("N")),
    ("--slow", Some("KERNEL:FACTOR")),
    ("--json", Some("PATH")),
    ("--trace", Some("PATH")),
    ("--telemetry", Some("PATH")),
];

/// A command line that named only rows of [`TARGETS`] and [`FLAGS`].
#[derive(Debug)]
pub struct Invocation {
    /// The targets asked for, in order (`all` when none was).
    pub targets: Vec<&'static Target>,
    flags: Vec<(&'static str, String)>,
}

/// The rejection of `arg`: what it is not, then both accepted sets.
fn unknown(kind: &str, arg: &str) -> String {
    let targets: Vec<&str> = TARGETS.iter().map(|t| t.name).collect();
    let flags: Vec<String> = FLAGS
        .iter()
        .map(|(name, value)| value.map_or(name.to_string(), |v| format!("{name} {v}")))
        .collect();
    format!(
        "figures: unknown {kind} `{arg}` (accepted: {}; flags: {})",
        targets.join(" | "),
        flags.join(" | ")
    )
}

impl Invocation {
    /// Checks `args` (without the program name) against the two tables.
    /// The error is the message to print before exiting non-zero.
    pub fn parse(args: impl IntoIterator<Item = String>) -> Result<Self, String> {
        let (mut targets, mut flags) = (Vec::new(), Vec::new());
        let mut it = args.into_iter();
        while let Some(arg) = it.next() {
            if arg.starts_with("--") {
                let &(name, value) = FLAGS
                    .iter()
                    .find(|(name, _)| *name == arg)
                    .ok_or_else(|| unknown("flag", &arg))?;
                let value = match value {
                    Some(what) => it
                        .next()
                        .ok_or_else(|| format!("figures: {name} needs a value ({what})"))?,
                    None => String::new(),
                };
                flags.push((name, value));
            } else {
                let row = TARGETS.iter().find(|t| t.name == arg);
                targets.push(row.ok_or_else(|| unknown("target", &arg))?);
            }
        }
        if targets.is_empty() {
            targets.extend(TARGETS.iter().filter(|t| t.name == "all"));
        }
        Ok(Invocation { targets, flags })
    }

    /// Whether `name` was asked for, by name or — for an `in_all` row —
    /// through `all`. Panics on a name that is not in [`TARGETS`], so
    /// the binary cannot dispatch on a target the table does not list.
    pub fn wants(&self, name: &str) -> bool {
        let row = TARGETS.iter().find(|t| t.name == name);
        let in_all = row.expect("dispatch on a name not in TARGETS").in_all;
        self.targets
            .iter()
            .any(|t| t.name == name || (in_all && t.name == "all"))
    }

    /// Every value given for flag `name`, in order (`""` per occurrence
    /// of a switch). Panics on a name that is not in [`FLAGS`].
    pub fn values(&self, name: &str) -> impl Iterator<Item = &str> {
        let row = FLAGS.iter().find(|(flag, _)| *flag == name);
        let name = row.expect("read of a flag not in FLAGS").0;
        self.flags
            .iter()
            .filter(move |(flag, _)| *flag == name)
            .map(|(_, value)| value.as_str())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Invocation, String> {
        Invocation::parse(args.iter().map(|a| a.to_string()))
    }

    #[test]
    fn unknown_targets_and_flags_are_rejected_with_the_accepted_sets() {
        for bad in ["scaling", "scalng", "--big", "--big-size"] {
            let err = parse(&["fig9", bad, "64"]).expect_err(bad);
            let kind = if bad.starts_with("--") {
                "flag"
            } else {
                "target"
            };
            let head = format!("figures: unknown {kind} `{bad}` (accepted: table1 | table2 | ");
            assert!(err.starts_with(&head), "{err}");
            assert!(
                err.ends_with("| --json PATH | --trace PATH | --telemetry PATH)"),
                "{err}"
            );
            for t in TARGETS {
                assert!(err.contains(t.name), "{err} does not name {}", t.name);
            }
            for (flag, _) in FLAGS {
                assert!(err.contains(flag), "{err} does not name {flag}");
            }
        }
        let err = parse(&["fig9", "--json"]).expect_err("dangling flag");
        assert_eq!(err, "figures: --json needs a value (PATH)");
    }

    #[test]
    fn all_is_the_default_and_expands_to_the_in_all_rows_only() {
        for inv in [parse(&[]).unwrap(), parse(&["all"]).unwrap()] {
            for t in TARGETS {
                assert_eq!(inv.wants(t.name), t.in_all || t.name == "all", "{}", t.name);
            }
            assert!(inv.targets.iter().any(|t| t.needs_workload));
        }
        let inv = parse(&["table1", "--slow", "a:2", "--slow", "b:3", "--size", "6"]).unwrap();
        assert!(inv.wants("table1") && !inv.wants("table2"));
        assert!(!inv.targets.iter().any(|t| t.needs_workload));
        assert_eq!(inv.values("--slow").collect::<Vec<_>>(), ["a:2", "b:3"]);
        assert_eq!(inv.values("--size").last(), Some("6"));
        assert_eq!(inv.values("--serial").count(), 0);
        assert_eq!(parse(&["--serial"]).unwrap().values("--serial").count(), 1);
    }
}
