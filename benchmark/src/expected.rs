//! Pinned expectations for the default seed (`expected.json`): digests,
//! checksums, counts and modeled-clock values a host-speed change must
//! leave alone. Other seeds — and the smoke sizes — rely on the
//! self-consistency checks only.

use crate::workloads::{check, DEFAULT_SEED};
use serde_json::Value;

/// One workload's pins, or nothing when this run is not the pinned one.
pub struct Expected(Option<Value>);

impl Expected {
    /// Loads the pins of `workload` when `seed` is the default and the
    /// sizes are the full ones.
    pub fn load(workload: &str, seed: u64, smoke: bool) -> Self {
        if seed != DEFAULT_SEED || smoke {
            return Self(None);
        }
        let doc = serde_json::parse_value(include_str!("../expected.json"))
            .expect("expected.json is valid JSON");
        Self(Some(doc.get(workload).cloned().unwrap_or_else(|| {
            panic!("expected.json has no section for `{workload}`")
        })))
    }

    fn pin(&self, fails: &mut Vec<String>, key: &str) -> Option<&Value> {
        let section = self.0.as_ref()?;
        let pin = section.get(key);
        check(fails, pin.is_some(), || {
            format!("expected.json pins no `{key}`")
        });
        pin
    }

    /// A digest, checksum or count must equal its pin exactly (pins are
    /// `0x…` strings so they survive any JSON reader).
    pub fn exact(&self, fails: &mut Vec<String>, key: &str, actual: u64) {
        if let Some(pin) = self.pin(fails, key) {
            let want = match pin {
                Value::String(s) => u64::from_str_radix(s.trim_start_matches("0x"), 16).ok(),
                _ => None,
            };
            check(fails, want == Some(actual), || {
                format!("{key} = {actual:#x}, pinned {pin:?}")
            });
        }
    }

    /// A modeled-clock value must equal its pin to 1e-12 relative.
    pub fn modeled(&self, fails: &mut Vec<String>, key: &str, actual: f64) {
        if let Some(pin) = self.pin(fails, key) {
            let want = match pin {
                Value::F64(v) => *v,
                Value::U64(v) => *v as f64,
                Value::I64(v) => *v as f64,
                _ => f64::NAN,
            };
            let ok = (actual - want).abs() <= 1e-12 * want.abs();
            check(fails, ok, || format!("{key} = {actual:e}, pinned {want:e}"));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn only_the_default_seed_at_full_size_is_pinned() {
        let mut fails = Vec::new();
        Expected::load("sim_fast", 1, false).exact(&mut fails, "digest_check", 0);
        Expected::load("sim_fast", DEFAULT_SEED, true).exact(&mut fails, "digest_check", 0);
        assert!(fails.is_empty());
    }

    #[test]
    fn a_moved_bit_or_a_missing_pin_fails() {
        let e = Expected(Some(
            serde_json::parse_value(r#"{"d": "0x10", "m": 2.5}"#).unwrap(),
        ));
        let mut fails = Vec::new();
        e.exact(&mut fails, "d", 16);
        e.modeled(&mut fails, "m", 2.5 * (1.0 + 1e-13));
        assert!(fails.is_empty(), "{fails:?}");
        e.exact(&mut fails, "d", 17);
        e.modeled(&mut fails, "m", 2.5 * (1.0 + 1e-9));
        e.exact(&mut fails, "absent", 0);
        assert_eq!(fails.len(), 3, "{fails:?}");
    }

    #[test]
    fn every_workload_has_a_section() {
        for w in crate::workloads::NAMES {
            Expected::load(w, DEFAULT_SEED, false);
        }
    }
}
