#![warn(missing_docs)]
//! # hacc-tune
//!
//! Runtime autotuner for the launch-parameter space the cost model
//! exposes (DESIGN.md §4j): **(variant, sub-group size, work-group
//! size, GRF mode, launch bounds)** per **(kernel, architecture,
//! problem-size band)**.
//!
//! The paper hand-picks these knobs per kernel per architecture
//! (Appendix A); "Cross-Platform Performance Portability Using Highly
//! Parametrized SYCL Kernels" shows the production answer is an
//! automated search. This crate owns:
//!
//! * the **persistent cache** ([`TuneCache`]) — a versioned
//!   `tune-cache.json` keyed by [`TuneKey`], hardened against hostile
//!   input exactly like the checkpoint codecs (checked schema/digests,
//!   entry caps, range-validated knobs; truncation and bit-flips parse
//!   to errors, never panics);
//! * the **online selector** ([`Tuner`]) — cache lookup with
//!   deterministic epsilon-greedy exploration (a seeded counter hash,
//!   never wall-clock randomness, so tuned runs stay reproducible);
//! * `tune.*` telemetry counters (trials, cache hits, exploration
//!   picks) through the existing [`Recorder`] plane.
//!
//! The variant axis is carried as a string id (`Variant::id`) so this
//! crate stays below `hacc-kernels` in the dependency order; the kernel
//! layer converts ids back to its `Variant` enum and re-validates every
//! choice against the live architecture before trusting it.

use hacc_telemetry::Recorder;
use std::collections::BTreeMap;
use std::fmt;
use sycl_sim::{GrfMode, LaunchBounds, TunablePoint};

/// Cache schema version; bump on any format change.
pub const SCHEMA_VERSION: u64 = 1;

/// Default on-disk cache file name.
pub const CACHE_FILE: &str = "tune-cache.json";

/// Hard cap on cache entries — an alloc guard against hostile files.
pub const MAX_ENTRIES: usize = 4096;

/// FNV-1a over a byte string (the workspace's standard digest for
/// deterministic, dependency-free hashing).
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

/// FNV-1a over a sequence of strings with separators, for arch/kernel
/// digests.
pub fn digest_strs<'a, I: IntoIterator<Item = &'a str>>(parts: I) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for s in parts {
        for &b in s.as_bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x100_0000_01b3);
        }
        h ^= 0x1f;
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

/// Problem-size band: winners are cached per band, not per exact
/// particle count, so one tuning run generalizes across nearby sizes
/// while big regime changes (occupancy, tree depth) re-tune.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum SizeBand {
    /// Fewer than 4096 particles (CI-scale problems).
    Small,
    /// 4096 to 262143 particles.
    Medium,
    /// 262144 particles and up (production scale).
    Large,
}

impl SizeBand {
    /// The band a particle count falls into.
    pub fn of(n_particles: usize) -> Self {
        if n_particles < 4_096 {
            SizeBand::Small
        } else if n_particles < 262_144 {
            SizeBand::Medium
        } else {
            SizeBand::Large
        }
    }

    /// Stable text form used in cache keys.
    pub fn label(&self) -> &'static str {
        match self {
            SizeBand::Small => "small",
            SizeBand::Medium => "medium",
            SizeBand::Large => "large",
        }
    }

    /// Parses [`SizeBand::label`] output.
    pub fn from_label(s: &str) -> Option<Self> {
        match s {
            "small" => Some(SizeBand::Small),
            "medium" => Some(SizeBand::Medium),
            "large" => Some(SizeBand::Large),
            _ => None,
        }
    }
}

/// One candidate launch configuration in the cache's wire form: the
/// kernel-layer variant as its string *id* plus the device-level knobs.
/// This crate sits below `hacc-kernels`, so it cannot name the typed
/// `Variant`; the kernel layer parses the id back and re-validates it.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct TuneChoice {
    /// Communication-variant id as `Variant::id` spells it (e.g.
    /// `"select"`, `"broadcast"`) — the lowercase cache-charset form,
    /// not the figure label (`"Select"`, `"Memory, 32-bit"`).
    pub variant: String,
    /// Sub-group size.
    pub sg_size: usize,
    /// Work-group size.
    pub wg_size: usize,
    /// Register-file mode.
    pub grf: GrfMode,
    /// Launch-bounds register cap.
    pub bounds: LaunchBounds,
}

impl TuneChoice {
    /// Pairs a variant id with a device-level point.
    pub fn new(variant_id: &str, knobs: TunablePoint) -> Self {
        Self {
            variant: variant_id.to_string(),
            sg_size: knobs.sg_size,
            wg_size: knobs.wg_size,
            grf: knobs.grf,
            bounds: knobs.bounds,
        }
    }

    /// The device-level knobs as a [`TunablePoint`] — validity on an
    /// architecture ([`TunablePoint::is_valid`], re-checked before a
    /// persisted winner is trusted; the variant axis is validated by
    /// the kernel layer, which owns the enum) and the conversion to a
    /// launch configuration ([`TunablePoint::apply_to`]) live there.
    pub fn knobs(&self) -> TunablePoint {
        TunablePoint {
            sg_size: self.sg_size,
            wg_size: self.wg_size,
            grf: self.grf,
            bounds: self.bounds,
        }
    }

    /// Compact display label, e.g. `broadcast/sg16/wg128/large/default`.
    pub fn label(&self) -> String {
        format!("{}/{}", self.variant, self.knobs().label())
    }
}

/// Cache key: (kernel timer, architecture id, problem-size band).
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TuneKey {
    /// Kernel timer name (e.g. `"upGeo"`, `"upGrav"`).
    pub kernel: String,
    /// Architecture id (e.g. `"pvc"`).
    pub arch: String,
    /// Problem-size band.
    pub band: SizeBand,
}

impl TuneKey {
    /// Builds a key.
    pub fn new(kernel: &str, arch: &str, band: SizeBand) -> Self {
        Self {
            kernel: kernel.to_string(),
            arch: arch.to_string(),
            band,
        }
    }

    /// Stable text form (`kernel@arch@band`) used in the cache file.
    pub fn encode(&self) -> String {
        format!("{}@{}@{}", self.kernel, self.arch, self.band.label())
    }

    /// Parses [`TuneKey::encode`] output; rejects malformed or hostile
    /// keys (wrong arity, empty or over-long segments, bad charset).
    pub fn decode(s: &str) -> Option<Self> {
        if s.len() > 96 {
            return None;
        }
        let mut it = s.split('@');
        let (kernel, arch, band) = (it.next()?, it.next()?, it.next()?);
        if it.next().is_some() {
            return None;
        }
        let seg_ok = |seg: &str| {
            !seg.is_empty()
                && seg.len() <= 48
                && seg
                    .chars()
                    .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
        };
        if !seg_ok(kernel) || !seg_ok(arch) {
            return None;
        }
        Some(Self {
            kernel: kernel.to_string(),
            arch: arch.to_string(),
            band: SizeBand::from_label(band)?,
        })
    }
}

/// A cached winner for one [`TuneKey`].
#[derive(Clone, Debug, PartialEq)]
pub struct TuneEntry {
    /// The winning configuration.
    pub choice: TuneChoice,
    /// Its modeled seconds when it won.
    pub modeled_seconds: f64,
    /// Measurements recorded against this key (all candidates).
    pub trials: u64,
}

/// Errors from loading or validating a tuning cache.
#[derive(Clone, Debug, PartialEq)]
pub enum TuneError {
    /// File-system failure (message only; the path is the caller's).
    Io(String),
    /// The text is not valid JSON or not the expected shape.
    Parse(String),
    /// Unsupported schema version.
    Schema {
        /// The version the file declares, when readable.
        found: Option<u64>,
    },
    /// Digest mismatch: the cache was built for different code.
    Digest {
        /// Which digest disagreed (`"arch"` or `"kernel"`).
        which: &'static str,
        /// Expected value.
        want: u64,
        /// Value in the file.
        found: u64,
    },
}

impl fmt::Display for TuneError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TuneError::Io(m) => write!(f, "tune cache I/O: {m}"),
            TuneError::Parse(m) => write!(f, "tune cache rejected: {m}"),
            TuneError::Schema { found } => match found {
                Some(v) => write!(f, "tune cache schema {v} != supported {SCHEMA_VERSION}"),
                None => write!(f, "tune cache missing schema_version"),
            },
            TuneError::Digest { which, want, found } => write!(
                f,
                "tune cache {which} digest {found:016x} != expected {want:016x} (stale cache)"
            ),
        }
    }
}

impl std::error::Error for TuneError {}

/// The persistent tuning cache: schema version + arch/kernel digests +
/// per-key winners. Serialized as `tune-cache.json`.
#[derive(Clone, Debug, PartialEq, Default)]
pub struct TuneCache {
    /// Digest of the architecture set the cache was tuned for.
    pub arch_digest: u64,
    /// Digest of the kernel/variant set the cache was tuned for.
    pub kernel_digest: u64,
    /// Winners, keyed by [`TuneKey::encode`] (sorted for stable output).
    pub entries: BTreeMap<String, TuneEntry>,
}

impl TuneCache {
    /// An empty cache stamped with the given digests.
    pub fn new(arch_digest: u64, kernel_digest: u64) -> Self {
        Self {
            arch_digest,
            kernel_digest,
            entries: BTreeMap::new(),
        }
    }

    /// The cached winner for a key, if any.
    pub fn lookup(&self, key: &TuneKey) -> Option<&TuneEntry> {
        self.entries.get(&key.encode())
    }

    /// Records a measurement: bumps the key's trial count and installs
    /// `choice` as the winner when it beats (or first sets) the cached
    /// modeled seconds. Returns `true` when the winner changed.
    pub fn record(&mut self, key: &TuneKey, choice: &TuneChoice, modeled_seconds: f64) -> bool {
        if !modeled_seconds.is_finite() || modeled_seconds < 0.0 {
            return false;
        }
        let slot = self.entries.entry(key.encode());
        match slot {
            std::collections::btree_map::Entry::Vacant(v) => {
                v.insert(TuneEntry {
                    choice: choice.clone(),
                    modeled_seconds,
                    trials: 1,
                });
                true
            }
            std::collections::btree_map::Entry::Occupied(mut o) => {
                let e = o.get_mut();
                e.trials = e.trials.saturating_add(1);
                if modeled_seconds < e.modeled_seconds {
                    let changed = e.choice != *choice;
                    e.choice = choice.clone();
                    e.modeled_seconds = modeled_seconds;
                    changed
                } else {
                    false
                }
            }
        }
    }

    /// Serializes to the canonical pretty JSON form (sorted keys, hex
    /// digests) — byte-stable for a given cache state, so committed
    /// caches diff cleanly.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        out.push_str("{\n");
        out.push_str(&format!("  \"schema_version\": {SCHEMA_VERSION},\n"));
        out.push_str(&format!(
            "  \"arch_digest\": \"{:016x}\",\n",
            self.arch_digest
        ));
        out.push_str(&format!(
            "  \"kernel_digest\": \"{:016x}\",\n",
            self.kernel_digest
        ));
        out.push_str("  \"entries\": {");
        let mut first = true;
        for (k, e) in &self.entries {
            if !first {
                out.push(',');
            }
            first = false;
            let grf = match e.choice.grf {
                GrfMode::Default => "default",
                GrfMode::Large => "large",
            };
            out.push_str(&format!(
                "\n    \"{}\": {{ \"variant\": \"{}\", \"sg_size\": {}, \"wg_size\": {}, \
                 \"grf\": \"{}\", \"bounds\": \"{}\", \"modeled_seconds\": {:e}, \"trials\": {} }}",
                k,
                e.choice.variant,
                e.choice.sg_size,
                e.choice.wg_size,
                grf,
                e.choice.bounds.label(),
                e.modeled_seconds,
                e.trials
            ));
        }
        if !self.entries.is_empty() {
            out.push_str("\n  ");
        }
        out.push_str("}\n}\n");
        out
    }

    /// Parses and validates cache text. Hostile input — truncation,
    /// bit-flips, adversarial headers, oversized entry sets, out-of-range
    /// knobs — returns an error; this function never panics.
    pub fn from_json(text: &str) -> Result<Self, TuneError> {
        if text.len() > 8 * 1024 * 1024 {
            return Err(TuneError::Parse("cache file over 8 MiB".to_string()));
        }
        let root = serde_json::parse_value(text).map_err(|e| TuneError::Parse(format!("{e:?}")))?;
        let obj = root
            .as_object()
            .ok_or_else(|| TuneError::Parse("root is not an object".to_string()))?;
        let _ = obj;
        let version = root.get("schema_version").and_then(|v| v.as_u64());
        if version != Some(SCHEMA_VERSION) {
            return Err(TuneError::Schema { found: version });
        }
        let digest = |key: &str| -> Result<u64, TuneError> {
            let s = root
                .get(key)
                .and_then(|v| v.as_str())
                .ok_or_else(|| TuneError::Parse(format!("missing {key}")))?;
            if s.len() != 16 {
                return Err(TuneError::Parse(format!("{key} is not 16 hex digits")));
            }
            u64::from_str_radix(s, 16).map_err(|_| TuneError::Parse(format!("{key} is not hex")))
        };
        let arch_digest = digest("arch_digest")?;
        let kernel_digest = digest("kernel_digest")?;
        let entries_v = root
            .get("entries")
            .and_then(|v| v.as_object())
            .ok_or_else(|| TuneError::Parse("missing entries object".to_string()))?;
        if entries_v.len() > MAX_ENTRIES {
            return Err(TuneError::Parse(format!(
                "{} entries exceeds the {MAX_ENTRIES} cap",
                entries_v.len()
            )));
        }
        let mut entries = BTreeMap::new();
        for (k, v) in entries_v {
            let key = TuneKey::decode(k)
                .ok_or_else(|| TuneError::Parse(format!("malformed key {k:?}")))?;
            let entry = parse_entry(v).map_err(|m| TuneError::Parse(format!("key {k:?}: {m}")))?;
            entries.insert(key.encode(), entry);
        }
        Ok(Self {
            arch_digest,
            kernel_digest,
            entries,
        })
    }

    /// Checks the digests against the running build, rejecting caches
    /// tuned for a different architecture or kernel set.
    pub fn check_digests(&self, arch_digest: u64, kernel_digest: u64) -> Result<(), TuneError> {
        if self.arch_digest != arch_digest {
            return Err(TuneError::Digest {
                which: "arch",
                want: arch_digest,
                found: self.arch_digest,
            });
        }
        if self.kernel_digest != kernel_digest {
            return Err(TuneError::Digest {
                which: "kernel",
                want: kernel_digest,
                found: self.kernel_digest,
            });
        }
        Ok(())
    }

    /// Loads and validates a cache file.
    pub fn load(path: &std::path::Path) -> Result<Self, TuneError> {
        let text = std::fs::read_to_string(path).map_err(|e| TuneError::Io(e.to_string()))?;
        Self::from_json(&text)
    }

    /// Writes the canonical JSON form to `path`.
    pub fn save(&self, path: &std::path::Path) -> Result<(), TuneError> {
        std::fs::write(path, self.to_json()).map_err(|e| TuneError::Io(e.to_string()))
    }
}

/// Parses and range-validates one cache entry object.
fn parse_entry(v: &serde::Value) -> Result<TuneEntry, String> {
    let variant = v
        .get("variant")
        .and_then(|x| x.as_str())
        .ok_or("missing variant")?;
    if variant.is_empty()
        || variant.len() > 32
        || !variant.chars().all(|c| c.is_ascii_alphanumeric())
    {
        return Err(format!("bad variant label {variant:?}"));
    }
    let int_in = |key: &str, lo: u64, hi: u64| -> Result<u64, String> {
        let n = v
            .get(key)
            .and_then(|x| x.as_u64())
            .ok_or_else(|| format!("missing {key}"))?;
        if !(lo..=hi).contains(&n) {
            return Err(format!("{key} = {n} outside [{lo}, {hi}]"));
        }
        Ok(n)
    };
    let sg_size = int_in("sg_size", 1, 1024)? as usize;
    let wg_size = int_in("wg_size", 1, 1024)? as usize;
    if !wg_size.is_multiple_of(sg_size) {
        return Err(format!(
            "wg_size {wg_size} not a multiple of sg_size {sg_size}"
        ));
    }
    let grf = match v.get("grf").and_then(|x| x.as_str()) {
        Some("default") => GrfMode::Default,
        Some("large") => GrfMode::Large,
        other => return Err(format!("bad grf {other:?}")),
    };
    let bounds = v
        .get("bounds")
        .and_then(|x| x.as_str())
        .and_then(LaunchBounds::from_label)
        .ok_or("bad bounds label")?;
    let modeled_seconds = v
        .get("modeled_seconds")
        .and_then(|x| x.as_f64())
        .ok_or("missing modeled_seconds")?;
    if !modeled_seconds.is_finite() || !(0.0..1e18).contains(&modeled_seconds) {
        return Err(format!("modeled_seconds {modeled_seconds} out of range"));
    }
    let trials = int_in("trials", 1, 1_000_000_000_000_000)?;
    Ok(TuneEntry {
        choice: TuneChoice {
            variant: variant.to_string(),
            sg_size,
            wg_size,
            grf,
            bounds,
        },
        modeled_seconds,
        trials,
    })
}

/// What [`Tuner::select`] decided for a launch.
#[derive(Clone, Debug, PartialEq)]
pub enum Selection {
    /// Use the cached winner.
    Cached(TuneChoice),
    /// Exploration pick: try this candidate instead of the winner.
    Explore(TuneChoice),
    /// No cached winner and no exploration — the caller falls back to
    /// the hand-picked table.
    Cold,
}

/// The online selector: cache-backed choice with deterministic
/// epsilon-greedy exploration.
///
/// Exploration is seeded by an internal call counter hashed with the
/// key (FNV-1a), not by wall clock or OS randomness, so a tuned run is
/// exactly reproducible: the same call sequence makes the same picks.
#[derive(Clone, Debug)]
pub struct Tuner {
    cache: TuneCache,
    /// Exploration rate in thousandths (0 = pure exploitation).
    epsilon_milli: u32,
    step: u64,
}

impl Tuner {
    /// Wraps a cache with an exploration rate in `[0, 1]` (values are
    /// clamped; 0 disables exploration entirely).
    pub fn new(cache: TuneCache, epsilon: f64) -> Self {
        let epsilon_milli = (epsilon.clamp(0.0, 1.0) * 1000.0).round() as u32;
        Self {
            cache,
            epsilon_milli,
            step: 0,
        }
    }

    /// The wrapped cache.
    pub fn cache(&self) -> &TuneCache {
        &self.cache
    }

    /// Picks a configuration for `key` from `space`:
    ///
    /// * with probability epsilon (deterministic counter hash), an
    ///   exploration candidate from `space` (`tune.explore_picks`);
    /// * otherwise the cached winner when one exists
    ///   (`tune.cache_hits`);
    /// * otherwise [`Selection::Cold`] — caller falls back to the
    ///   hand-picked table.
    pub fn select(
        &mut self,
        key: &TuneKey,
        space: &[TuneChoice],
        telemetry: Option<&Recorder>,
    ) -> Selection {
        self.step = self.step.wrapping_add(1);
        if self.epsilon_milli > 0 && !space.is_empty() {
            let mut seed = key.encode().into_bytes();
            seed.extend_from_slice(&self.step.to_le_bytes());
            let h = fnv1a(&seed);
            if (h % 1000) < self.epsilon_milli as u64 {
                let idx = ((h >> 16) % space.len() as u64) as usize;
                if let Some(t) = telemetry {
                    t.counter("tune.explore_picks", 1.0);
                }
                return Selection::Explore(space[idx].clone());
            }
        }
        match self.cache.lookup(key) {
            Some(e) => {
                if let Some(t) = telemetry {
                    t.counter("tune.cache_hits", 1.0);
                }
                Selection::Cached(e.choice.clone())
            }
            None => Selection::Cold,
        }
    }

    /// Feeds a measured (modeled) launch time back into the cache and
    /// emits `tune.trials`. Returns `true` when the winner changed.
    pub fn observe(
        &mut self,
        key: &TuneKey,
        choice: &TuneChoice,
        modeled_seconds: f64,
        telemetry: Option<&Recorder>,
    ) -> bool {
        if let Some(t) = telemetry {
            t.counter("tune.trials", 1.0);
        }
        self.cache.record(key, choice, modeled_seconds)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn choice(variant: &str, sg: usize) -> TuneChoice {
        TuneChoice {
            variant: variant.to_string(),
            sg_size: sg,
            wg_size: 128,
            grf: GrfMode::Default,
            bounds: LaunchBounds::Default,
        }
    }

    fn key() -> TuneKey {
        TuneKey::new("upGeo", "pvc", SizeBand::Small)
    }

    #[test]
    fn cache_round_trips_canonically() {
        let mut cache = TuneCache::new(0xdead_beef, 0x1234_5678_9abc_def0);
        cache.record(&key(), &choice("Broadcast", 16), 1.5e-4);
        cache.record(
            &TuneKey::new("upGrav", "mi250x", SizeBand::Medium),
            &TuneChoice {
                bounds: LaunchBounds::Capped(96),
                grf: GrfMode::Large,
                ..choice("Select", 64)
            },
            2.75e-3,
        );
        let text = cache.to_json();
        let back = TuneCache::from_json(&text).unwrap();
        assert_eq!(back, cache);
        // Canonical form is byte-stable.
        assert_eq!(back.to_json(), text);
    }

    #[test]
    fn record_keeps_the_best_and_counts_trials() {
        let mut cache = TuneCache::new(0, 0);
        assert!(cache.record(&key(), &choice("Select", 32), 2.0));
        assert!(!cache.record(&key(), &choice("Memory32", 32), 3.0));
        assert!(cache.record(&key(), &choice("Broadcast", 16), 1.0));
        let e = cache.lookup(&key()).unwrap();
        assert_eq!(e.choice.variant, "Broadcast");
        assert_eq!(e.modeled_seconds, 1.0);
        assert_eq!(e.trials, 3);
        // NaN and negative measurements are ignored.
        assert!(!cache.record(&key(), &choice("Select", 32), f64::NAN));
        assert!(!cache.record(&key(), &choice("Select", 32), -1.0));
    }

    #[test]
    fn digest_checks_reject_stale_caches() {
        let cache = TuneCache::new(1, 2);
        assert!(cache.check_digests(1, 2).is_ok());
        assert!(matches!(
            cache.check_digests(9, 2),
            Err(TuneError::Digest { which: "arch", .. })
        ));
        assert!(matches!(
            cache.check_digests(1, 9),
            Err(TuneError::Digest {
                which: "kernel",
                ..
            })
        ));
    }

    #[test]
    fn hostile_shapes_are_rejected_not_panicked() {
        for text in [
            "",
            "{",
            "[]",
            "null",
            "{\"schema_version\": 99}",
            "{\"schema_version\": 1}",
            "{\"schema_version\": 1, \"arch_digest\": \"xyz\"}",
            "{\"schema_version\": 1, \"arch_digest\": \"0000000000000000\", \
             \"kernel_digest\": \"0000000000000000\", \"entries\": 7}",
            "{\"schema_version\": 1, \"arch_digest\": \"0000000000000000\", \
             \"kernel_digest\": \"0000000000000000\", \
             \"entries\": {\"bad key\": {}}}",
            "{\"schema_version\": 1, \"arch_digest\": \"0000000000000000\", \
             \"kernel_digest\": \"0000000000000000\", \
             \"entries\": {\"a@b@small\": {\"variant\": \"Select\", \"sg_size\": 0, \
             \"wg_size\": 128, \"grf\": \"default\", \"bounds\": \"default\", \
             \"modeled_seconds\": 1.0, \"trials\": 1}}}",
        ] {
            assert!(TuneCache::from_json(text).is_err(), "accepted: {text}");
        }
    }

    #[test]
    fn epsilon_zero_never_explores_and_is_deterministic() {
        let mut cache = TuneCache::new(0, 0);
        cache.record(&key(), &choice("Broadcast", 16), 1.0);
        let space = vec![choice("Select", 32), choice("Broadcast", 16)];
        let mut a = Tuner::new(cache.clone(), 0.0);
        let mut b = Tuner::new(cache, 0.0);
        for _ in 0..256 {
            let sa = a.select(&key(), &space, None);
            assert_eq!(sa, b.select(&key(), &space, None));
            assert!(matches!(sa, Selection::Cached(_)));
        }
    }

    #[test]
    fn exploration_fires_at_roughly_epsilon_and_replays_exactly() {
        let mut cache = TuneCache::new(0, 0);
        cache.record(&key(), &choice("Broadcast", 16), 1.0);
        let space = vec![choice("Select", 32), choice("Broadcast", 16)];
        let run = || {
            let mut t = Tuner::new(
                {
                    let mut c = TuneCache::new(0, 0);
                    c.record(&key(), &choice("Broadcast", 16), 1.0);
                    c
                },
                0.1,
            );
            (0..2000)
                .map(|_| t.select(&key(), &space, None))
                .collect::<Vec<_>>()
        };
        let a = run();
        let b = run();
        // Bit-reproducible: the same call sequence makes the same picks.
        assert_eq!(a, b);
        let explored = a
            .iter()
            .filter(|s| matches!(s, Selection::Explore(_)))
            .count();
        // ~10% of 2000, with generous slack for the hash distribution.
        assert!(
            (100..400).contains(&explored),
            "explored {explored}/2000 at epsilon 0.1"
        );
    }

    #[test]
    fn telemetry_counters_track_tuner_activity() {
        let mut cache = TuneCache::new(0, 0);
        cache.record(&key(), &choice("Broadcast", 16), 1.0);
        let mut t = Tuner::new(cache, 0.0);
        let rec = Recorder::new();
        let space = vec![choice("Select", 32)];
        for _ in 0..5 {
            let _ = t.select(&key(), &space, Some(&rec));
        }
        t.observe(&key(), &choice("Select", 32), 2.0, Some(&rec));
        assert_eq!(
            hacc_telemetry::counter_total(&rec.events(), "tune.cache_hits"),
            5.0
        );
        assert_eq!(
            hacc_telemetry::counter_total(&rec.events(), "tune.trials"),
            1.0
        );
    }
}
