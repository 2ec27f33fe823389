//! Golden snapshots: two end-to-end runs are pinned bit-for-bit against
//! committed reference files, so *any* unintended change to the physics,
//! the kernel code, the scheduler, or the FP32 evaluation order fails
//! loudly.
//!
//! Pinned quantities are stored as the hex image of their f64 bits
//! (`_bits` keys; compared exactly) alongside a human-readable rendering
//! (`_human` keys; informational only). Because the execution engine
//! commits atomics in a fixed order, the goldens hold at every thread
//! count — these tests run under the default (parallel, auto-width)
//! policy.
//!
//! Regenerating after an *intended* physics change:
//!
//! ```text
//! GOLDEN_REGEN=1 cargo test --release --test golden_snapshot
//! git diff tests/golden/   # review every changed bit on purpose
//! ```

use crk_hacc::core::{DeviceConfig, FullCheckpoint, SimConfig, Simulation};
use crk_hacc::kernels::{run_hydro_step, DeviceParticles, HostParticles, Variant, WorkLists};
use crk_hacc::sycl::{Device, GpuArch, GrfMode, Lang, LaunchConfig, MeterPolicy, Toolchain};
use crk_hacc::telemetry::Recorder;
use crk_hacc::tree::{InteractionList, RcbTree};
use serde_json::Value;
use std::fmt::Write as _;
use std::path::PathBuf;

fn golden_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden")
}

/// FNV-1a over a byte stream.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn eat(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x1000_0000_01b3);
        }
    }

    fn hex(&self) -> String {
        format!("{:016x}", self.0)
    }
}

/// One pinned record: ordered (key, exact-string) pairs plus the
/// human-readable companions.
struct Golden {
    entries: Vec<(String, String)>,
    /// Keys of the committed file this run has no value for.
    skipped: usize,
}

impl Golden {
    fn new() -> Self {
        Golden {
            entries: Vec::new(),
            skipped: 0,
        }
    }

    fn pin_str(&mut self, key: &str, value: impl Into<String>) {
        self.entries.push((key.to_string(), value.into()));
    }

    fn pin_f64(&mut self, key: &str, value: f64) {
        self.pin_str(&format!("{key}_bits"), format!("{:016x}", value.to_bits()));
        self.pin_str(&format!("{key}_human"), format!("{value:.6e}"));
    }

    /// `pin_f64` for a quantity read off the device meters (modeled
    /// time): an unmetered run — CI's `HACC_METER=off` leg — has none,
    /// so it leaves the key unchecked and compares every other pin.
    fn pin_metered_f64(&mut self, key: &str, value: f64, meter: MeterPolicy) {
        match meter {
            MeterPolicy::Full => self.pin_f64(key, value),
            MeterPolicy::Off => self.skipped += 2,
        }
    }

    fn to_json(&self) -> String {
        let mut out = String::from("{\n");
        for (i, (k, v)) in self.entries.iter().enumerate() {
            let comma = if i + 1 < self.entries.len() { "," } else { "" };
            writeln!(out, "  \"{k}\": \"{v}\"{comma}").unwrap();
        }
        out.push_str("}\n");
        out
    }

    /// Writes the golden file (regen mode) or compares every key of the
    /// committed file against this run. `_human` keys are informational:
    /// mismatches there are reported but only `_bits`/hash keys fail.
    fn check(&self, name: &str) {
        let path = golden_dir().join(name);
        if std::env::var_os("GOLDEN_REGEN").is_some() {
            assert_eq!(self.skipped, 0, "regenerate goldens from a metered run");
            std::fs::create_dir_all(golden_dir()).unwrap();
            std::fs::write(&path, self.to_json()).unwrap();
            eprintln!("[golden] regenerated {}", path.display());
            return;
        }
        let text = std::fs::read_to_string(&path).unwrap_or_else(|e| {
            panic!(
                "missing golden file {} ({e}); run GOLDEN_REGEN=1 cargo test \
                 --release --test golden_snapshot to create it",
                path.display()
            )
        });
        let golden: Value = serde_json::from_str(&text).expect("parse golden file");
        let golden = golden.as_object().expect("golden file is an object");
        assert_eq!(
            golden.len(),
            self.entries.len() + self.skipped,
            "{name}: pinned-key set changed — regenerate the golden file"
        );
        for (key, got) in &self.entries {
            let want = golden
                .iter()
                .find(|(k, _)| k == key)
                .unwrap_or_else(|| panic!("{name}: key {key} missing from golden file"))
                .1
                .as_str()
                .expect("golden values are strings");
            assert_eq!(
                got, want,
                "{name}: {key} drifted from the committed golden value \
                 (if this change is intended, regenerate with GOLDEN_REGEN=1)"
            );
        }
    }
}

/// The quickstart configuration (examples/quickstart.rs): 2×8³ particles
/// on simulated Frontier, two long steps. Pins the run summary, global
/// conserved sums, and the FNV-1a hash of the full final checkpoint.
#[test]
fn quickstart_run_matches_golden() {
    let config = SimConfig::smoke();
    let device = DeviceConfig {
        lang: Lang::Sycl,
        fast_math: None,
        variant: Variant::Select,
        sg_size: Some(64),
        grf: GrfMode::Default,
    };
    let mut sim = Simulation::new(config, device, GpuArch::frontier());
    let summary = sim.run();

    let mut g = Golden::new();
    g.pin_str("steps", summary.steps.to_string());
    g.pin_f64("a_final", summary.a_final);
    g.pin_metered_f64("gpu_seconds", summary.gpu_seconds, sim.meter_policy());
    g.pin_f64("total_mass", sim.mass.iter().sum::<f64>());
    g.pin_f64(
        "total_internal_energy",
        sim.u_int
            .iter()
            .zip(&sim.mass)
            .map(|(u, m)| u * m)
            .sum::<f64>(),
    );
    let p = sim.total_momentum();
    g.pin_f64("momentum_x", p[0]);
    g.pin_f64("momentum_y", p[1]);
    g.pin_f64("momentum_z", p[2]);
    let mut fnv = Fnv::new();
    fnv.eat(&FullCheckpoint::capture(&sim).to_bytes());
    g.pin_str("checkpoint_fnv", fnv.hex());
    g.check("quickstart.json");
}

/// A reduced Sedov–Taylor blast (examples/sedov_blast.rs at 8³, 8
/// steps): point energy injection in a cold uniform gas, host leapfrog
/// around the device CRK-SPH kernels. Pins the conserved sums, the
/// elapsed time, and the FNV-1a hash of the final particle state.
#[test]
fn sedov_blast_matches_golden() {
    let n_side = 8usize;
    let box_size = n_side as f64;
    let h0 = 1.3;
    let mut hp = HostParticles::default();
    for i in 0..n_side {
        for j in 0..n_side {
            for k in 0..n_side {
                hp.pos
                    .push([i as f64 + 0.5, j as f64 + 0.5, k as f64 + 0.5]);
                hp.vel.push([0.0; 3]);
                hp.mass.push(1.0);
                hp.h.push(h0);
                hp.u.push(1e-4);
            }
        }
    }
    let center = [box_size / 2.0; 3];
    let blast = hp
        .pos
        .iter()
        .enumerate()
        .min_by(|(_, a), (_, b)| {
            let da: f64 = a.iter().zip(&center).map(|(x, c)| (x - c) * (x - c)).sum();
            let db: f64 = b.iter().zip(&center).map(|(x, c)| (x - c) * (x - c)).sum();
            da.partial_cmp(&db).unwrap()
        })
        .unwrap()
        .0;
    hp.u[blast] = 100.0;

    let device = Device::new(GpuArch::frontier(), Toolchain::sycl()).unwrap();
    let launch = LaunchConfig::defaults_for(&device.arch).with_sg_size(64);
    let variant = Variant::Select;
    let mut t = 0.0f64;
    let mut final_digest = String::new();
    for step in 0..8 {
        let tree = RcbTree::build(&hp.pos, variant.preferred_leaf_capacity(launch.sg_size));
        let cutoff = 2.0 * hp.h.iter().cloned().fold(0.0, f64::max) + 1e-9;
        let list = InteractionList::build(&tree, box_size, cutoff);
        let work = WorkLists::build(&tree, &list, launch.sg_size);
        let ordered = hp.permuted(&tree.order);
        let data = DeviceParticles::upload(&ordered);
        run_hydro_step(
            &device,
            &data,
            &work,
            variant,
            box_size as f32,
            launch,
            &Recorder::new(),
        )
        .expect("fault-free hydro step must succeed");
        let acc = data.download_vec3(&data.acc);
        let du = data.du_dt.to_f32_vec();
        let dt = (data.dt_min.read_f32(0) as f64).min(0.05);
        for (slot, &pi) in tree.order.iter().enumerate() {
            let pi = pi as usize;
            for c in 0..3 {
                hp.vel[pi][c] += acc[slot][c] as f64 * dt;
                hp.pos[pi][c] = (hp.pos[pi][c] + hp.vel[pi][c] * dt).rem_euclid(box_size);
            }
            hp.u[pi] = (hp.u[pi] + du[slot] as f64 * dt).max(1e-6);
        }
        t += dt;
        if step == 7 {
            final_digest = format!("{:016x}", data.state_digest());
        }
    }

    let mut g = Golden::new();
    g.pin_f64("elapsed_time", t);
    g.pin_f64("total_mass", hp.mass.iter().sum::<f64>());
    g.pin_f64(
        "total_internal_energy",
        hp.u.iter().zip(&hp.mass).map(|(u, m)| u * m).sum::<f64>(),
    );
    g.pin_f64(
        "total_kinetic_energy",
        hp.vel
            .iter()
            .zip(&hp.mass)
            .map(|(v, m)| 0.5 * m * (v[0] * v[0] + v[1] * v[1] + v[2] * v[2]))
            .sum::<f64>(),
    );
    g.pin_str("device_state_fnv", final_digest);
    let mut fnv = Fnv::new();
    for i in 0..hp.len() {
        for c in 0..3 {
            fnv.eat(&hp.pos[i][c].to_bits().to_le_bytes());
            fnv.eat(&hp.vel[i][c].to_bits().to_le_bytes());
        }
        fnv.eat(&hp.u[i].to_bits().to_le_bytes());
    }
    g.pin_str("host_state_fnv", fnv.hex());
    g.check("sedov.json");
}
