//! Checkpointing of particle state.
//!
//! The paper's retrospective (§7.2) highlights how extracting the hot
//! kernels into standalone applications *driven by checkpoint files*
//! accelerated optimization work. This module provides the same
//! workflow: a compact binary snapshot of the hydro-relevant particle
//! state that the bench harness can replay into any single kernel
//! without running the full simulation.
//!
//! Two formats live here:
//!
//! * `HCK1` ([`Checkpoint`]) — the baryon-only kernel-replay snapshot
//!   described above.
//! * `HCK2` ([`FullCheckpoint`]) — a bit-exact snapshot of the *entire*
//!   driver state (both species, momenta, scale factor, sub-cycle
//!   state), sufficient to restart a run mid-stream and reproduce it
//!   bit-for-bit. This is the rollback target of the recovery policy
//!   (see [`crate::recovery`]).
//!
//! Both parsers treat their input as hostile and read it only through
//! the bounded `crate::wire` reader: no read can panic, and particle
//! counts pass its cap, checked multiply and presence test before any
//! memory is reserved.

use crate::sim::{Simulation, Species};
use crate::wire::{Reader, Writer};
use hacc_kernels::HostParticles;
use std::fmt;

/// Magic tag of the checkpoint format.
const MAGIC: u32 = 0x4843_4B31; // "HCK1"

/// Magic tag of the full-state checkpoint format.
const MAGIC_FULL: u32 = 0x4843_4B32; // "HCK2"

/// Typed failure of a checkpoint parse, load, or restore. Shared by
/// every checkpoint format in the workspace (`HCK1`, `HCK2`, and the
/// multi-rank `HCK3` of [`crate::distckpt`]), so callers can match on
/// the failure class instead of grepping strings.
#[derive(Clone, Debug, PartialEq)]
pub enum CheckpointError {
    /// The blob ended before the named region was complete.
    Truncated {
        /// Which region was cut short (`"header"`, `"payload"`, …).
        what: &'static str,
    },
    /// The leading magic word did not match the expected format tag.
    BadMagic {
        /// Magic found in the blob.
        found: u32,
        /// Magic the parser expected.
        expected: u32,
    },
    /// The header claims more particles than the allocation cap allows.
    TooLarge {
        /// Header-claimed particle count.
        claimed: usize,
        /// The cap (`MAX_PARTICLES`, 2^27).
        cap: usize,
    },
    /// The payload size computation overflowed `usize`.
    SizeOverflow,
    /// A species tag byte outside the encodable set.
    BadSpecies {
        /// The offending tag byte.
        tag: u8,
    },
    /// Header fields are internally inconsistent (e.g. a rank count of
    /// zero in a multi-rank checkpoint).
    Malformed {
        /// What was inconsistent.
        detail: String,
    },
    /// The decoded particle fields failed semantic validation.
    Invalid {
        /// The validator's description.
        detail: String,
    },
    /// A restore targeted a simulation whose particle count differs
    /// from the snapshot (a snapshot cannot resize a simulation).
    SizeMismatch {
        /// Particles in the checkpoint.
        checkpoint: usize,
        /// Particles in the restore target.
        simulation: usize,
    },
    /// Reading or writing the checkpoint file failed.
    Io {
        /// The OS error, stringified (keeps the enum `Clone`).
        detail: String,
    },
}

impl fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CheckpointError::Truncated { what } => {
                write!(f, "checkpoint truncated ({what})")
            }
            CheckpointError::BadMagic { found, expected } => {
                write!(
                    f,
                    "bad checkpoint magic {found:#x} (expected {expected:#x})"
                )
            }
            CheckpointError::TooLarge { claimed, cap } => {
                write!(f, "checkpoint claims {claimed} particles (cap {cap})")
            }
            CheckpointError::SizeOverflow => write!(f, "checkpoint payload size overflows"),
            CheckpointError::BadSpecies { tag } => write!(f, "bad species tag {tag}"),
            CheckpointError::Malformed { detail } => {
                write!(f, "malformed checkpoint: {detail}")
            }
            CheckpointError::Invalid { detail } => {
                write!(f, "checkpoint failed validation: {detail}")
            }
            CheckpointError::SizeMismatch {
                checkpoint,
                simulation,
            } => write!(
                f,
                "checkpoint has {checkpoint} particles but the simulation has {simulation}"
            ),
            CheckpointError::Io { detail } => write!(f, "checkpoint io error: {detail}"),
        }
    }
}

impl std::error::Error for CheckpointError {}

impl From<std::io::Error> for CheckpointError {
    fn from(e: std::io::Error) -> Self {
        CheckpointError::Io {
            detail: e.to_string(),
        }
    }
}

/// Fixed header bytes of the HCK1 format: magic + count + a + box.
const HCK1_HEADER_BYTES: usize = 4 + 4 + 8 + 8;

/// Per-particle payload bytes of the HCK1 format (9 f64 fields).
const HCK1_STRIDE: usize = 9 * 8;

/// Fixed header bytes of the HCK2 format: HCK1's, + step + sub-cycles.
const HCK2_HEADER_BYTES: usize = 4 + 4 + 8 + 8 + 8;

/// Per-particle payload bytes of the HCK2 format (10 f64 fields plus a
/// species byte).
const HCK2_STRIDE: usize = 10 * 8 + 1;

/// Largest `adaptive_sub_cycles` a restore accepts: far above anything
/// a run produces (the step loop clamps at `32.max(config.sub_cycles)`,
/// the guarded run's retry boost at 64), far below
/// the `u64::MAX` that would make the next step loop forever.
const MAX_RESTORED_SUB_CYCLES: usize = 1 << 16;

/// A particle-state snapshot sufficient to drive the standalone kernels.
#[derive(Clone, Debug, PartialEq)]
pub struct Checkpoint {
    /// Scale factor at capture time.
    pub a: f64,
    /// Periodic box side in grid units.
    pub box_size: f64,
    /// Baryon particle fields.
    pub particles: HostParticles,
}

impl Checkpoint {
    /// Captures the baryon state of a running simulation — exactly the
    /// host particles its in-situ hydro offload uploads.
    pub fn capture(sim: &Simulation) -> Self {
        Self {
            a: sim.a,
            box_size: sim.box_size(),
            particles: sim.host_particles(&sim.baryon_indices()),
        }
    }

    /// Serializes to a compact binary blob.
    pub fn to_bytes(&self) -> Vec<u8> {
        let hp = &self.particles;
        let n = hp.len();
        let mut w = Writer::new(MAGIC, HCK1_HEADER_BYTES + n * HCK1_STRIDE);
        w.u32(n as u32);
        w.f64(self.a);
        w.f64(self.box_size);
        for i in 0..n {
            w.vec3(hp.pos[i]);
            w.vec3(hp.vel[i]);
            w.f64(hp.mass[i]);
            w.f64(hp.h[i]);
            w.f64(hp.u[i]);
        }
        w.finish()
    }

    /// Deserializes a blob produced by [`Checkpoint::to_bytes`],
    /// treating the input as untrusted.
    pub fn from_bytes(data: impl AsRef<[u8]>) -> Result<Self, CheckpointError> {
        let mut r = Reader::open(data.as_ref(), MAGIC, HCK1_HEADER_BYTES)?;
        let n = r.u32()? as usize;
        let a = r.f64()?;
        let box_size = r.f64()?;
        let n = r.records(n, HCK1_STRIDE, "payload")?;
        let mut hp = HostParticles::default();
        hp.pos.reserve(n);
        hp.vel.reserve(n);
        hp.mass.reserve(n);
        hp.h.reserve(n);
        hp.u.reserve(n);
        for _ in 0..n {
            hp.pos.push(r.vec3()?);
            hp.vel.push(r.vec3()?);
            hp.mass.push(r.f64()?);
            hp.h.push(r.f64()?);
            hp.u.push(r.f64()?);
        }
        hp.validate()
            .map_err(|detail| CheckpointError::Invalid { detail })?;
        Ok(Self {
            a,
            box_size,
            particles: hp,
        })
    }

    /// Writes to a file.
    pub fn save(&self, path: &std::path::Path) -> std::io::Result<()> {
        std::fs::write(path, self.to_bytes())
    }

    /// Reads from a file.
    pub fn load(path: &std::path::Path) -> Result<Self, CheckpointError> {
        Self::from_bytes(std::fs::read(path)?)
    }
}

/// A bit-exact snapshot of the full driver state (`HCK2`).
///
/// Unlike [`Checkpoint`], which keeps only the baryon fields a
/// standalone kernel needs (and converts momenta to velocities with a
/// lossy divide), this captures every f64 the time stepper owns for
/// *both* species, verbatim. Restoring it and re-running produces a
/// bit-identical trajectory, which makes it the rollback target for
/// checkpoint-based recovery.
#[derive(Clone, Debug, PartialEq)]
pub struct FullCheckpoint {
    /// Scale factor at capture time.
    pub a: f64,
    /// Completed long steps at capture time.
    pub step_count: usize,
    /// Sub-cycle count the next long step will use.
    pub adaptive_sub_cycles: usize,
    /// Comoving positions, both species.
    pub pos: Vec<[f64; 3]>,
    /// Momentum variable `u = a² dx/dt`, both species.
    pub mom: Vec<[f64; 3]>,
    /// Masses.
    pub mass: Vec<f64>,
    /// Specific internal energies.
    pub u_int: Vec<f64>,
    /// SPH smoothing lengths.
    pub h: Vec<f64>,
    /// Stellar mass formed per particle.
    pub star_mass: Vec<f64>,
    /// Species tags.
    pub species: Vec<Species>,
}

impl FullCheckpoint {
    /// Captures the complete mutable state of a running simulation.
    pub fn capture(sim: &Simulation) -> Self {
        Self {
            a: sim.a,
            step_count: sim.step_count,
            adaptive_sub_cycles: sim.adaptive_sub_cycles,
            pos: sim.pos.clone(),
            mom: sim.mom.clone(),
            mass: sim.mass.clone(),
            u_int: sim.u_int.clone(),
            h: sim.h.clone(),
            star_mass: sim.star_mass.clone(),
            species: sim.species.clone(),
        }
    }

    /// Number of particles in the snapshot.
    pub fn len(&self) -> usize {
        self.pos.len()
    }

    /// Whether the snapshot is empty.
    pub fn is_empty(&self) -> bool {
        self.pos.is_empty()
    }

    /// Restores the snapshot into a simulation built from the *same*
    /// configuration. Errors — leaving the simulation untouched — if the
    /// particle count differs (a snapshot cannot resize a simulation) or
    /// a header field that steers the step loop is one no run of this
    /// configuration could have written.
    pub fn restore_into(&self, sim: &mut Simulation) -> Result<(), CheckpointError> {
        if self.len() != sim.n_particles() {
            return Err(CheckpointError::SizeMismatch {
                checkpoint: self.len(),
                simulation: sim.n_particles(),
            });
        }
        let invalid = |detail| Err(CheckpointError::Invalid { detail });
        if !(self.a.is_finite() && self.a > 0.0) {
            return invalid(format!(
                "scale factor a = {} is not a positive finite number",
                self.a
            ));
        }
        if self.step_count > sim.config.n_steps {
            return invalid(format!(
                "step_count {} exceeds the configuration's n_steps = {}",
                self.step_count, sim.config.n_steps
            ));
        }
        if self.adaptive_sub_cycles > MAX_RESTORED_SUB_CYCLES {
            return invalid(format!(
                "adaptive_sub_cycles {} exceeds the cap of {MAX_RESTORED_SUB_CYCLES}",
                self.adaptive_sub_cycles
            ));
        }
        sim.a = self.a;
        sim.step_count = self.step_count;
        sim.adaptive_sub_cycles = self.adaptive_sub_cycles;
        sim.pos.copy_from_slice(&self.pos);
        sim.mom.copy_from_slice(&self.mom);
        sim.mass.copy_from_slice(&self.mass);
        sim.u_int.copy_from_slice(&self.u_int);
        sim.h.copy_from_slice(&self.h);
        sim.star_mass.copy_from_slice(&self.star_mass);
        sim.species.copy_from_slice(&self.species);
        Ok(())
    }

    /// Serializes to a compact binary blob. All floats are stored as
    /// their exact IEEE-754 bits — the round trip is lossless.
    pub fn to_bytes(&self) -> Vec<u8> {
        let n = self.len();
        let mut w = Writer::new(MAGIC_FULL, HCK2_HEADER_BYTES + n * HCK2_STRIDE);
        w.u32(n as u32);
        w.f64(self.a);
        w.u64(self.step_count as u64);
        w.u64(self.adaptive_sub_cycles as u64);
        for i in 0..n {
            w.vec3(self.pos[i]);
            w.vec3(self.mom[i]);
            w.f64(self.mass[i]);
            w.f64(self.u_int[i]);
            w.f64(self.h[i]);
            w.f64(self.star_mass[i]);
            w.u8(match self.species[i] {
                Species::DarkMatter => 0,
                Species::Baryon => 1,
            });
        }
        w.finish()
    }

    /// Deserializes a blob produced by [`FullCheckpoint::to_bytes`],
    /// treating the input as untrusted. Header fields are carried
    /// verbatim; [`FullCheckpoint::restore_into`] judges them.
    pub fn from_bytes(data: impl AsRef<[u8]>) -> Result<Self, CheckpointError> {
        let mut r = Reader::open(data.as_ref(), MAGIC_FULL, HCK2_HEADER_BYTES)?;
        let n = r.u32()? as usize;
        let a = r.f64()?;
        let step_count = r.u64()? as usize;
        let adaptive_sub_cycles = r.u64()? as usize;
        let n = r.records(n, HCK2_STRIDE, "payload")?;
        let mut cp = Self {
            a,
            step_count,
            adaptive_sub_cycles,
            pos: Vec::with_capacity(n),
            mom: Vec::with_capacity(n),
            mass: Vec::with_capacity(n),
            u_int: Vec::with_capacity(n),
            h: Vec::with_capacity(n),
            star_mass: Vec::with_capacity(n),
            species: Vec::with_capacity(n),
        };
        for _ in 0..n {
            cp.pos.push(r.vec3()?);
            cp.mom.push(r.vec3()?);
            cp.mass.push(r.f64()?);
            cp.u_int.push(r.f64()?);
            cp.h.push(r.f64()?);
            cp.star_mass.push(r.f64()?);
            cp.species.push(match r.u8()? {
                0 => Species::DarkMatter,
                1 => Species::Baryon,
                tag => return Err(CheckpointError::BadSpecies { tag }),
            });
        }
        Ok(cp)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Checkpoint {
        let mut hp = HostParticles::default();
        for i in 0..10 {
            hp.pos.push([i as f64, 2.0 * i as f64, 0.5]);
            hp.vel.push([0.1, -0.2, 0.3 * i as f64]);
            hp.mass.push(1.5);
            hp.h.push(1.0);
            hp.u.push(0.01 * i as f64 + 1e-12);
        }
        Checkpoint {
            a: 0.01,
            box_size: 16.0,
            particles: hp,
        }
    }

    #[test]
    fn round_trip() {
        let cp = sample();
        let blob = cp.to_bytes();
        let back = Checkpoint::from_bytes(blob).unwrap();
        assert_eq!(cp, back);
    }

    #[test]
    fn rejects_bad_magic() {
        let mut blob = sample().to_bytes();
        blob[0] = 0;
        assert!(Checkpoint::from_bytes(blob).is_err());
    }

    #[test]
    fn rejects_truncation() {
        let blob = sample().to_bytes();
        assert!(Checkpoint::from_bytes(&blob[..blob.len() - 8]).is_err());
    }

    #[test]
    fn file_round_trip() {
        let cp = sample();
        let dir = std::env::temp_dir().join("hacc_ckpt_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("test.ckpt");
        cp.save(&path).unwrap();
        let back = Checkpoint::load(&path).unwrap();
        assert_eq!(cp, back);
        std::fs::remove_file(&path).ok();
    }

    fn sample_full() -> FullCheckpoint {
        let n = 12;
        FullCheckpoint {
            a: 0.015,
            step_count: 3,
            adaptive_sub_cycles: 5,
            pos: (0..n).map(|i| [i as f64, 0.25 * i as f64, 7.5]).collect(),
            mom: (0..n).map(|i| [-0.1, 0.2, 1e-3 * i as f64]).collect(),
            mass: (0..n).map(|i| 1.0 + 0.1 * (i % 2) as f64).collect(),
            u_int: (0..n).map(|i| 1e-4 * i as f64).collect(),
            h: vec![0.9; n],
            star_mass: vec![0.0; n],
            species: (0..n)
                .map(|i| {
                    if i < n / 2 {
                        Species::DarkMatter
                    } else {
                        Species::Baryon
                    }
                })
                .collect(),
        }
    }

    #[test]
    fn full_checkpoint_round_trips_bit_exactly() {
        // Include values a lossy encoding would mangle: subnormals,
        // negative zero, and a full-precision irrational.
        let mut cp = sample_full();
        cp.mom[0] = [f64::MIN_POSITIVE / 4.0, -0.0, std::f64::consts::PI];
        cp.u_int[1] = f64::from_bits(0x0000_0000_0000_0001);
        let back = FullCheckpoint::from_bytes(cp.to_bytes()).unwrap();
        assert_eq!(cp.len(), back.len());
        for i in 0..cp.len() {
            for c in 0..3 {
                assert_eq!(cp.pos[i][c].to_bits(), back.pos[i][c].to_bits());
                assert_eq!(cp.mom[i][c].to_bits(), back.mom[i][c].to_bits());
            }
            assert_eq!(cp.u_int[i].to_bits(), back.u_int[i].to_bits());
        }
        assert_eq!(cp, back);
    }

    #[test]
    fn full_checkpoint_rejects_bad_magic_and_species() {
        let mut blob = sample_full().to_bytes();
        blob[0] = 0x55;
        assert!(FullCheckpoint::from_bytes(blob).is_err());
        let mut blob = sample_full().to_bytes();
        let last = blob.len() - 1; // species byte of the final particle
        blob[last] = 7;
        assert!(FullCheckpoint::from_bytes(blob).is_err());
    }

    /// The wire bytes themselves, not just the round trip: a codec
    /// change that moves either hash has changed the format.
    #[test]
    fn sample_blobs_are_byte_pinned() {
        let hck1 = sample().to_bytes();
        assert_eq!(hck1.len(), HCK1_HEADER_BYTES + 10 * HCK1_STRIDE);
        assert_eq!(crate::wire::fnv1a(&hck1), 0x5c62_7457_7f3a_7ad1);
        let hck2 = sample_full().to_bytes();
        assert_eq!(hck2.len(), HCK2_HEADER_BYTES + 12 * HCK2_STRIDE);
        assert_eq!(crate::wire::fnv1a(&hck2), 0xd5f2_8e8d_b5cc_5853);
    }

    #[test]
    fn hostile_particle_counts_are_rejected_before_allocating() {
        // A header claiming u32::MAX particles must fail cleanly (no
        // overflow, no multi-gigabyte reserve) in both formats.
        for magic in [MAGIC, MAGIC_FULL] {
            let mut w = Writer::new(magic, HCK2_HEADER_BYTES);
            w.u32(u32::MAX);
            w.f64(0.01);
            w.u64(0);
            w.u64(0);
            let err = if magic == MAGIC {
                Checkpoint::from_bytes(w.finish()).unwrap_err()
            } else {
                FullCheckpoint::from_bytes(w.finish()).unwrap_err()
            };
            assert!(
                matches!(
                    err,
                    CheckpointError::TooLarge { claimed, cap }
                        if claimed == u32::MAX as usize && cap == crate::wire::MAX_PARTICLES
                ),
                "unexpected error: {err}"
            );
        }
    }

    /// A header no run could have written must not steer the step loop:
    /// `adaptive_sub_cycles = u64::MAX` used to restore `Ok` and make
    /// the next `try_step` loop 2⁶⁴ − 1 times.
    #[test]
    fn restore_refuses_hostile_header_fields_and_changes_nothing() {
        use crate::config::{DeviceConfig, SimConfig};
        let arch = sycl_sim::GpuArch::frontier();
        let mut sim = Simulation::new(
            SimConfig::smoke(),
            DeviceConfig::sycl_optimized(&arch),
            arch,
        );
        let before = (sim.state_digest(), sim.step_count, sim.adaptive_sub_cycles);
        let mut good = FullCheckpoint::capture(&sim);
        good.pos[0][0] += 0.5; // a partial restore would show in the digest
        let n_steps = sim.config.n_steps;
        let hostile: [(&str, fn(&mut FullCheckpoint, usize)); 5] = [
            ("adaptive_sub_cycles", |cp, _| {
                cp.adaptive_sub_cycles = u64::MAX as usize
            }),
            ("adaptive_sub_cycles", |cp, _| {
                cp.adaptive_sub_cycles = MAX_RESTORED_SUB_CYCLES + 1
            }),
            ("step_count", |cp, n_steps| cp.step_count = n_steps + 1),
            ("scale factor", |cp, _| cp.a = f64::NAN),
            ("scale factor", |cp, _| cp.a = 0.0),
        ];
        for (field, corrupt) in hostile {
            let mut cp = good.clone();
            corrupt(&mut cp, n_steps);
            // Through the wire, as a hostile blob would arrive.
            let cp = FullCheckpoint::from_bytes(cp.to_bytes()).unwrap();
            let err = cp.restore_into(&mut sim).unwrap_err();
            assert!(
                matches!(&err, CheckpointError::Invalid { detail } if detail.contains(field)),
                "{field}: {err}"
            );
            assert_eq!(
                (sim.state_digest(), sim.step_count, sim.adaptive_sub_cycles),
                before,
                "a refused restore ({field}) must leave the simulation untouched"
            );
        }
        // The boundary values are fine: a finished run's snapshot, and
        // the largest sub-cycle count the cap admits.
        good.step_count = n_steps;
        good.adaptive_sub_cycles = MAX_RESTORED_SUB_CYCLES;
        good.restore_into(&mut sim).unwrap();
        assert_ne!(sim.state_digest(), before.0);
    }
}
