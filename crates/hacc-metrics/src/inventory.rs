//! The repository inventory: maps this reproduction's *actual source
//! files and regions* to the paper's configuration sets, so Table 2 and
//! Figure 13 are computed from the lines of code a build compiles
//! ([`crate::cbi::strip_tests`]). One rule, by crate, places each file:
//!
//! * the kernel body is every `hacc-kernels` source. It is shared Rust
//!   here, but a CUDA and a SYCL build of CRK-HACC maintain *separate
//!   copies* of the kernel sources (the SYCLomatic migration produces a
//!   parallel body, §4) — so when a configuration uses different
//!   languages on different platforms, the kernel-body unit is tagged per
//!   language, reproducing the divergence the paper measures for Unified;
//! * specialized communication regions (Select / Memory / Broadcast /
//!   vISA) and toolchain glue are regions at named anchors ([`crate::cbi`]);
//!   the Broadcast regions leave the kernel body;
//! * host code shared by every build (the paper's "All" row) is every
//!   source of the crates the application links (`host_crates`);
//! * four files compiled but never run by the timed adiabatic problem
//!   (`UNUSED`, the paper's row) are excluded from divergence;
//! * the tools (`hacc-bench`, `hacc-metrics`, `syclomatic-mini`) are not
//!   counted.

use crate::cbi::{count_sloc, extract_region, strip_tests};
use crate::divergence::SourceSet;
use std::path::{Path, PathBuf};

/// The three platforms of the study.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Platform {
    /// Aurora (Intel Data Center GPU Max 1550).
    Aurora,
    /// Polaris (NVIDIA A100).
    Polaris,
    /// Frontier (AMD MI250X).
    Frontier,
}

/// All platforms in paper order.
pub const ALL_PLATFORMS: [Platform; 3] = [Platform::Aurora, Platform::Polaris, Platform::Frontier];

/// Source languages, for kernel-body tagging.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum BodyLang {
    /// CUDA kernel sources.
    Cuda,
    /// HIP build (shares the CUDA kernel body through macro wrappers).
    CudaHip,
    /// SYCL kernel sources (the migrated copy).
    Sycl,
}

/// Communication mechanisms a configuration can select per platform.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Mechanism {
    /// `select_from_group` shuffles.
    Select,
    /// Local-memory exchange (either granularity).
    Memory,
    /// Restructured broadcast kernels.
    Broadcast,
    /// Inline vISA butterfly.
    Visa,
}

/// The configurations plotted in Figures 12–13.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum ConfigKind {
    /// CUDA on NVIDIA + HIP wrapper on AMD (no Aurora support).
    CudaHip,
    /// Single-source SYCL with one mechanism everywhere.
    SyclUniform(Mechanism),
    /// SYCL: Select on Polaris/Frontier, local memory on Aurora.
    SyclSelectPlusMemory,
    /// SYCL: Select on Polaris/Frontier, inline vISA on Aurora.
    SyclSelectPlusVisa,
    /// Inline vISA only (no NVIDIA/AMD support).
    VisaOnly,
    /// CUDA/HIP on Polaris/Frontier + SYCL on Aurora.
    Unified,
}

impl ConfigKind {
    /// Display name matching the paper's figure labels.
    pub fn label(&self) -> String {
        match self {
            ConfigKind::CudaHip => "CUDA/HIP".into(),
            ConfigKind::SyclUniform(m) => format!("SYCL ({})", mechanism_label(*m)),
            ConfigKind::SyclSelectPlusMemory => "SYCL (Select + Memory)".into(),
            ConfigKind::SyclSelectPlusVisa => "SYCL (Select + vISA)".into(),
            ConfigKind::VisaOnly => "vISA".into(),
            ConfigKind::Unified => "Unified".into(),
        }
    }

    /// The (language, mechanism) used on a platform, or `None` when the
    /// configuration does not support it.
    pub fn build_for(&self, p: Platform) -> Option<(BodyLang, Mechanism)> {
        match self {
            ConfigKind::CudaHip => match p {
                Platform::Aurora => None,
                Platform::Polaris => Some((BodyLang::Cuda, Mechanism::Select)),
                Platform::Frontier => Some((BodyLang::CudaHip, Mechanism::Select)),
            },
            ConfigKind::SyclUniform(m) => Some((BodyLang::Sycl, *m)),
            ConfigKind::SyclSelectPlusMemory => Some((
                BodyLang::Sycl,
                if p == Platform::Aurora {
                    Mechanism::Memory
                } else {
                    Mechanism::Select
                },
            )),
            ConfigKind::SyclSelectPlusVisa => Some((
                BodyLang::Sycl,
                if p == Platform::Aurora {
                    Mechanism::Visa
                } else {
                    Mechanism::Select
                },
            )),
            ConfigKind::VisaOnly => {
                if p == Platform::Aurora {
                    Some((BodyLang::Sycl, Mechanism::Visa))
                } else {
                    None
                }
            }
            ConfigKind::Unified => match p {
                Platform::Aurora => Some((BodyLang::Sycl, Mechanism::Select)),
                Platform::Polaris => Some((BodyLang::Cuda, Mechanism::Select)),
                Platform::Frontier => Some((BodyLang::CudaHip, Mechanism::Select)),
            },
        }
    }
}

fn mechanism_label(m: Mechanism) -> &'static str {
    match m {
        Mechanism::Select => "Select",
        Mechanism::Memory => "Memory",
        Mechanism::Broadcast => "Broadcast",
        Mechanism::Visa => "vISA",
    }
}

/// Measured line counts for every inventory unit.
#[derive(Clone, Debug)]
pub struct RepoInventory {
    /// SLOC per category.
    pub visa: u32,
    /// Local-memory exchange regions.
    pub memory: u32,
    /// Select/shuffle regions.
    pub select: u32,
    /// Broadcast restructure (kernel path + chunk work lists).
    pub broadcast: u32,
    /// The kernel body (per-language copies share this count).
    pub kernel_body: u32,
    /// CUDA-only glue.
    pub cuda_glue: u32,
    /// HIP-only glue.
    pub hip_glue: u32,
    /// SYCL-only glue.
    pub sycl_glue: u32,
    /// Host code shared by every build.
    pub host_common: u32,
    /// Compiled-but-unused files (FOF/DBSCAN, sub-grid physics, the f64
    /// reference, in-situ analysis: none runs in the timed adiabatic problem).
    pub unused: u32,
}

/// Files compiled but never run by the timed adiabatic problem: the
/// paper's "Unused" row.
const UNUSED: [&str; 4] = [
    "crates/hacc-tree/src/fof.rs", // FOF/DBSCAN halo finder (AGN feedback)
    "crates/hacc-kernels/src/subgrid.rs", // non-adiabatic physics (§3.4.3)
    "crates/hacc-kernels/src/reference.rs", // the f64 reference: only tests run it
    "crates/core/src/analysis.rs", // in-situ analysis, off while timing (§3.4.4)
];

fn read(path: &Path) -> Result<String, String> {
    std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))
}

/// SLOC of the named regions of a compiled text: the one way a region is
/// measured.
fn region_sloc_of(text: &str, anchors: &[&str]) -> Result<u32, String> {
    anchors.iter().try_fold(0, |n, a| {
        let region = extract_region(text, a).ok_or_else(|| format!("anchor {a:?} missing"))?;
        Ok(n + count_sloc(&region))
    })
}

/// The package names a manifest's `[dependencies]` table lists.
fn dependency_names(manifest: &str) -> impl Iterator<Item = &str> {
    let deps = manifest.split("[dependencies]").nth(1).unwrap_or_default();
    let lines = deps.lines().take_while(|l| !l.starts_with('['));
    lines.filter_map(|l| l.strip_suffix(".workspace = true"))
}

/// The workspace crates (each in `crates/<name>`) that a crate's
/// `[dependencies]` name.
fn workspace_deps(root: &Path, krate: &Path) -> Result<Vec<PathBuf>, String> {
    let manifest = read(&krate.join("Cargo.toml"))?;
    Ok(dependency_names(&manifest)
        .map(|name| root.join("crates").join(name))
        .filter(|dir| dir.is_dir())
        .collect())
}

/// The host-common crates: `hacc-core` and every workspace crate it
/// links, directly or through another, except the kernel crate and
/// `sycl-sim`, the stand-in for the vendor runtime.
fn host_crates(root: &Path) -> Result<Vec<PathBuf>, String> {
    let mut linked = vec![root.join("crates/core")];
    let mut next = 0;
    while let Some(krate) = linked.get(next).cloned() {
        for dep in workspace_deps(root, &krate)? {
            if !linked.contains(&dep) {
                linked.push(dep);
            }
        }
        next += 1;
    }
    let device = ["hacc-kernels", "sycl-sim"].map(|c| root.join("crates").join(c));
    linked.retain(|dir| !device.contains(dir));
    Ok(linked)
}

/// The files each whole-file category counts: kernel body, host-common
/// and unused.
fn counted_files(root: &Path) -> Result<[Vec<PathBuf>; 3], String> {
    let unused: Vec<PathBuf> = UNUSED.iter().map(|f| root.join(f)).collect();
    let sources = |crates: Vec<PathBuf>| -> Result<Vec<PathBuf>, String> {
        let mut files = Vec::new();
        for src in crates.iter().map(|c| c.join("src")) {
            for entry in std::fs::read_dir(&src).map_err(|e| format!("{}: {e}", src.display()))? {
                let path = entry.map_err(|e| e.to_string())?.path();
                if path.extension().is_some_and(|x| x == "rs") && !unused.contains(&path) {
                    files.push(path);
                }
            }
        }
        Ok(files)
    };
    let kernel = sources(vec![root.join("crates/hacc-kernels")])?;
    Ok([kernel, sources(host_crates(root)?)?, unused.clone()])
}

impl RepoInventory {
    /// Measures the repository rooted at `root` (the workspace root).
    pub fn measure(root: &Path) -> Result<Self, String> {
        let compiled = |path: &Path| read(path).map(|text| strip_tests(&text));
        let sloc = |files: &[PathBuf]| -> Result<u32, String> {
            files
                .iter()
                .try_fold(0, |n, f| Ok(n + count_sloc(&compiled(f)?)))
        };
        let regions = |rel: &str, anchors: &[&str]| {
            region_sloc_of(&compiled(&root.join("crates").join(rel))?, anchors)
        };

        let (subgroup, toolchain) = ("sycl-sim/src/subgroup.rs", "sycl-sim/src/toolchain.rs");
        let visa = regions(subgroup, &["pub fn visa_butterfly"])?;
        let memory = regions(
            subgroup,
            &["pub fn local_exchange<", "pub fn local_exchange_object"],
        )?;
        let select = regions(
            subgroup,
            &["pub fn select_from_group", "pub fn shuffle_xor"],
        )?;
        let broadcast = regions(
            "hacc-kernels/src/pairkernel.rs",
            &[
                "fn run_broadcast",
                "fn broadcast_partners",
                "fn broadcast_group",
                "Partners::Broadcast(staged) =>",
            ],
        )? + regions("hacc-kernels/src/worklist.rs", &["pub fn build_chunks"])?
            + regions("hacc-kernels/src/halfwarp.rs", &["fn chunk_slots"])?;
        let cuda_glue = regions(toolchain, &["pub fn cuda()", "pub fn cuda_fast_math()"])?;
        let hip_glue = regions(toolchain, &["pub fn hip()", "pub fn hip_fast_math()"])?;
        let sycl_glue = regions(toolchain, &["pub fn sycl()", "pub fn sycl_visa()"])?;

        let [kernel, host, unused] = counted_files(root)?;
        Ok(Self {
            visa,
            memory,
            select,
            broadcast,
            kernel_body: sloc(&kernel)? - broadcast,
            cuda_glue,
            hip_glue,
            sycl_glue,
            host_common: sloc(&host)?,
            unused: sloc(&unused)?,
        })
    }

    /// Total SLOC across all categories (the Table 2 "Total" row; the
    /// kernel body is counted once).
    pub fn total(&self) -> u32 {
        self.visa
            + self.memory
            + self.select
            + self.broadcast
            + self.kernel_body
            + self.cuda_glue
            + self.hip_glue
            + self.sycl_glue
            + self.host_common
            + self.unused
    }

    /// Table 2 rows: (label, SLOC, % of total).
    pub fn table2(&self) -> Vec<(String, u32, f64)> {
        let total = self.total() as f64;
        let rows = [
            ("vISA", self.visa),
            ("Broadcast", self.broadcast),
            (
                "SYCL (-Broadcast)",
                self.memory + self.select + self.sycl_glue,
            ),
            ("SYCL", self.kernel_body),
            ("HIP", self.hip_glue),
            ("CUDA", self.cuda_glue),
            ("All", self.host_common),
            ("Unused", self.unused),
        ];
        let mut out: Vec<(String, u32, f64)> = rows
            .iter()
            .map(|(l, v)| (l.to_string(), *v, *v as f64 / total * 100.0))
            .collect();
        out.push(("Total".to_string(), self.total(), 100.0));
        out
    }

    /// Builds the source set for one configuration on one platform
    /// (`None` when unsupported). Unused lines are excluded, matching
    /// the paper's convention.
    fn source_set(&self, config: ConfigKind, platform: Platform) -> Option<SourceSet> {
        let (lang, mech) = config.build_for(platform)?;
        let mut set = SourceSet::new();
        let mut add = |unit: u32, lines: u32| {
            for l in 0..lines {
                set.insert((unit, l));
            }
        };
        // Unit ids: 0 host, 1 CUDA kernel body (shared by the HIP build
        // through the macro wrapper — the paper's "HIP and CUDA" set),
        // 3 SYCL kernel body (the SYCLomatic-migrated copy), 4 select,
        // 5 memory, 6 broadcast, 7 visa, 8 cuda glue, 9 hip glue,
        // 10 sycl glue.
        add(0, self.host_common);
        let body_unit = match lang {
            BodyLang::Cuda | BodyLang::CudaHip => 1,
            BodyLang::Sycl => 3,
        };
        add(body_unit, self.kernel_body);
        if lang == BodyLang::CudaHip {
            add(9, self.hip_glue);
            add(8, self.cuda_glue);
        }
        if lang == BodyLang::Cuda {
            add(8, self.cuda_glue);
        }
        if lang == BodyLang::Sycl {
            add(10, self.sycl_glue);
        }
        match mech {
            Mechanism::Select => add(4, self.select),
            Mechanism::Memory => add(5, self.memory),
            Mechanism::Broadcast => add(6, self.broadcast),
            Mechanism::Visa => add(7, self.visa),
        }
        Some(set)
    }

    /// Code convergence (1 − divergence) of a configuration over the
    /// supported platforms.
    pub fn convergence(&self, config: ConfigKind) -> f64 {
        let sets: Vec<SourceSet> = ALL_PLATFORMS
            .iter()
            .filter_map(|&p| self.source_set(config, p))
            .collect();
        if sets.is_empty() {
            return 0.0;
        }
        crate::divergence::code_convergence(&sets)
    }
}

/// Locates the workspace root from a crate's manifest dir (walks up
/// until `Cargo.toml` with `[workspace]` is found).
pub fn find_workspace_root(start: &Path) -> Option<PathBuf> {
    let is_root = |dir: &&Path| {
        std::fs::read_to_string(dir.join("Cargo.toml")).is_ok_and(|t| t.contains("[workspace]"))
    };
    start.ancestors().find(is_root).map(Path::to_path_buf)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn root() -> PathBuf {
        find_workspace_root(Path::new(env!("CARGO_MANIFEST_DIR"))).unwrap()
    }

    fn inventory() -> RepoInventory {
        RepoInventory::measure(&root()).unwrap()
    }

    #[test]
    fn every_crate_is_in_exactly_one_category() {
        let root = root();
        let host = host_crates(&root).unwrap();
        let [kernel, device] = ["hacc-kernels", "sycl-sim"].map(|c| root.join("crates").join(c));
        let tools = [
            "crates/bench",
            "crates/hacc-metrics",
            "crates/syclomatic-mini",
        ]
        .map(|t| root.join(t));
        let crates: Vec<PathBuf> = std::fs::read_dir(root.join("crates"))
            .unwrap()
            .map(|e| e.unwrap().path())
            .collect();
        for dir in &crates {
            let homes = host.iter().chain(&tools).chain([&kernel, &device]);
            assert_eq!(
                homes.filter(|d| *d == dir).count(),
                1,
                "{} must be in exactly one of the kernel, host, device or tool sets",
                dir.display()
            );
        }

        // Host ∪ {kernel, device} is `hacc-core` plus every workspace
        // crate it links, followed by package name through each crate's
        // own manifest: a new dependency, direct or not, is classified too.
        let package = |dir: &PathBuf| {
            let manifest = read(&dir.join("Cargo.toml")).unwrap();
            let name = manifest.lines().find_map(|l| l.strip_prefix("name = \""));
            name.unwrap().trim_end_matches('"').to_string()
        };
        let deps_of = |dir: &PathBuf| -> Vec<String> {
            let manifest = read(&dir.join("Cargo.toml")).unwrap();
            dependency_names(&manifest).map(str::to_string).collect()
        };
        let by_name: std::collections::BTreeMap<String, &PathBuf> =
            crates.iter().map(|dir| (package(dir), dir)).collect();
        let mut named = vec!["hacc-core".to_string()];
        let mut next = 0;
        while next < named.len() {
            for dep in deps_of(by_name[&named[next]]) {
                if by_name.contains_key(&dep) && !named.contains(&dep) {
                    named.push(dep);
                }
            }
            next += 1;
        }
        let mut linked: Vec<String> = host.iter().chain([&kernel, &device]).map(package).collect();
        named.sort();
        linked.sort();
        assert_eq!(linked, named);
        assert_eq!(
            host.len(),
            8,
            "core, comm, cosmo, fft, mesh, telemetry, tree, tune"
        );
    }

    /// The compiled text of every `.rs` file under `dir`, recursively.
    fn compiled_sources(dir: &Path, out: &mut String) {
        for entry in std::fs::read_dir(dir).unwrap() {
            let path = entry.unwrap().path();
            if path.is_dir() {
                compiled_sources(&path, out);
            } else if path.extension().is_some_and(|x| x == "rs") {
                out.push_str(&strip_tests(&read(&path).unwrap()));
            }
        }
    }

    /// Table 2's host closure is read from the manifests, so a dependency
    /// edge that no compiled code uses would pull a crate into the All row.
    #[test]
    fn every_dependency_edge_is_used() {
        let mut unused = Vec::new();
        for entry in std::fs::read_dir(root().join("crates")).unwrap() {
            let dir = entry.unwrap().path();
            let manifest = read(&dir.join("Cargo.toml")).unwrap();
            let mut code = String::new();
            compiled_sources(&dir.join("src"), &mut code);
            let words: std::collections::BTreeSet<&str> = code
                .split(|c: char| !(c.is_alphanumeric() || c == '_'))
                .collect();
            for dep in dependency_names(&manifest) {
                if !words.contains(dep.replace('-', "_").as_str()) {
                    unused.push(format!("{} -> {dep}", dir.display()));
                }
            }
        }
        assert!(unused.is_empty(), "edges no compiled code uses: {unused:?}");
    }

    #[test]
    fn test_code_never_changes_a_compiled_count() {
        let tail = "\n#[cfg(test)]\nmod t {\n    use super::*;\n\n    #[test]\n    fn f() {\n        \
                    let (s, c) = (\"} {\", '{');\n        assert!(s.len() > 1 && c != '\\'');\n    }\n}\n";
        let root = root();
        let [kernel, host, unused] = counted_files(&root).unwrap();
        let anchored =
            ["subgroup.rs", "toolchain.rs"].map(|f| root.join("crates/sycl-sim/src").join(f));
        let files: Vec<&PathBuf> = kernel
            .iter()
            .chain(&host)
            .chain(&unused)
            .chain(&anchored)
            .collect();
        assert!(files.len() > 60, "only {} files counted", files.len());
        for file in files {
            let text = read(file).unwrap();
            let compiled = strip_tests(&text);
            let attr = compiled
                .lines()
                .find(|l| l.trim_start().starts_with("#[cfg(test)]"));
            assert_eq!(attr, None, "{}: a test item survived", file.display());
            assert!(count_sloc(&compiled) <= count_sloc(&text));
            assert_eq!(
                count_sloc(&strip_tests(&(text.clone() + tail))),
                count_sloc(&compiled),
                "{}: appended test code changed the compiled count",
                file.display()
            );
        }
    }

    #[test]
    fn measures_nonzero_categories() {
        let inv = inventory();
        assert!(inv.visa > 5, "visa region measured: {}", inv.visa);
        assert!(inv.memory > 10);
        assert!(inv.select > 10);
        assert!(inv.broadcast > 30);
        assert!(inv.kernel_body > 500);
        assert!(inv.host_common > 1000);
        assert!(inv.unused > 100);
        assert!(inv.cuda_glue > 2 && inv.hip_glue > 2 && inv.sycl_glue > 2);
    }

    #[test]
    fn visa_region_is_small_like_the_paper() {
        // Paper Table 2: 226 SLOC of vISA out of 85k — a fraction of a
        // percent. Ours must likewise be a tiny fraction of the total.
        let inv = inventory();
        let frac = inv.visa as f64 / inv.total() as f64;
        assert!(frac < 0.01, "vISA fraction {frac}");
    }

    #[test]
    fn specialized_sycl_configs_have_high_convergence() {
        // Figure 13: the specialized SYCL variants sit at convergence ≈ 1.
        let inv = inventory();
        for config in [
            ConfigKind::SyclSelectPlusMemory,
            ConfigKind::SyclSelectPlusVisa,
        ] {
            let c = inv.convergence(config);
            assert!(c > 0.97, "{config:?} convergence {c}");
        }
        // Uniform single-source SYCL is exactly 1.
        let c = inv.convergence(ConfigKind::SyclUniform(Mechanism::Select));
        assert!((c - 1.0).abs() < 1e-12);
    }

    #[test]
    fn unified_config_diverges_most() {
        // Figure 13: Unified (CUDA/HIP + SYCL) has visibly lower
        // convergence because the kernel body exists per language.
        let inv = inventory();
        let unified = inv.convergence(ConfigKind::Unified);
        let specialized = inv.convergence(ConfigKind::SyclSelectPlusVisa);
        assert!(
            unified < specialized - 0.05,
            "unified {unified} vs {specialized}"
        );
        assert!(unified > 0.5, "still mostly shared host code: {unified}");
    }

    #[test]
    fn source_sets_respect_platform_support() {
        let inv = inventory();
        assert!(inv
            .source_set(ConfigKind::CudaHip, Platform::Aurora)
            .is_none());
        assert!(inv
            .source_set(ConfigKind::VisaOnly, Platform::Polaris)
            .is_none());
        assert!(inv
            .source_set(ConfigKind::Unified, Platform::Aurora)
            .is_some());
    }

    #[test]
    fn table2_rows_sum_to_total() {
        let inv = inventory();
        let rows = inv.table2();
        let total = rows.last().unwrap().1;
        let sum: u32 = rows[..rows.len() - 1].iter().map(|r| r.1).sum();
        assert_eq!(sum, total);
    }
}
