//! Checkpointing of the full simulation state (`HCK2`).
//!
//! [`FullCheckpoint`] is a bit-exact snapshot of everything the time
//! stepper owns — both species, momenta, scale factor, sub-cycle state —
//! sufficient to restart a run mid-stream and reproduce it bit for bit.
//! It is the rollback target of the recovery policy (see
//! [`crate::recovery`]) and, through [`FullCheckpoint::baryons`], the
//! input of the paper's §7.2 workflow: hot kernels extracted into
//! standalone applications *driven by checkpoint files*, replayed
//! without running the simulation.
//!
//! The parser treats its input as hostile and reads it only through the
//! bounded `crate::wire` reader: no read can panic, and particle counts
//! pass its cap, checked multiply and presence test before any memory
//! is reserved. [`FullCheckpoint::restore_into`] then refuses any field
//! the next step could not run on.

use crate::guard::StepGuard;
use crate::sim::{ParticleState, Simulation, Species};
use crate::wire::{Reader, Writer};
use hacc_kernels::HostParticles;
use std::fmt;

/// Magic tag of the full-state checkpoint format.
const MAGIC_FULL: u32 = 0x4843_4B32; // "HCK2"

/// Typed failure of a checkpoint parse or restore. Shared by both
/// checkpoint formats in the workspace (`HCK2`, and the multi-rank
/// `HCK3` of [`crate::distckpt`]), so callers can match on the failure
/// class instead of grepping strings.
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
        }
    }
}

impl std::error::Error for CheckpointError {}

/// Fixed header bytes of the HCK2 format: magic + count + a + step +
/// sub-cycles.
const HCK2_HEADER_BYTES: usize = 4 + 4 + 8 + 8 + 8;

/// Per-particle payload bytes of the HCK2 format (10 f64 fields plus a
/// species byte).
const HCK2_STRIDE: usize = 10 * 8 + 1;

/// Largest `adaptive_sub_cycles` a restore accepts: far above anything
/// a run produces (the step loop clamps at `32.max(config.sub_cycles)`,
/// the guarded run's retry boost at 64), far below
/// the `u64::MAX` that would make the next step loop forever.
const MAX_RESTORED_SUB_CYCLES: usize = 1 << 16;

/// A bit-exact snapshot of the full simulation state (`HCK2`): every f64
/// the time stepper owns for *both* species, verbatim. Restoring it and
/// re-running produces a bit-identical trajectory, which makes it the
/// rollback target for checkpoint-based recovery.
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

    /// Borrows the per-particle state, as [`Simulation`] lends its own.
    fn state(&self) -> ParticleState<'_> {
        ParticleState {
            a: self.a,
            pos: &self.pos,
            mom: &self.mom,
            mass: &self.mass,
            u_int: &self.u_int,
            h: &self.h,
            star_mass: &self.star_mass,
            species: &self.species,
        }
    }

    /// The baryons exactly as the simulation's hydro offload would
    /// upload them from this state — the input of a §7.2 standalone
    /// kernel replay. Errors, naming the particle's snapshot index, if
    /// any particle of either species fails [`HostParticles::validate`].
    pub fn baryons(&self) -> Result<HostParticles, CheckpointError> {
        let state = self.state();
        let all: Vec<usize> = (0..self.len()).collect();
        state
            .host_particles(&all)
            .validate()
            .map_err(|detail| CheckpointError::Invalid { detail })?;
        Ok(state.host_particles(&state.baryon_indices()))
    }

    /// Restores the snapshot into a simulation built from the *same*
    /// configuration. Errors — leaving the simulation untouched — if the
    /// particle count differs (a snapshot cannot resize a simulation), a
    /// header field that steers the step loop is one no run of this
    /// configuration could have written, or a particle field breaks a
    /// [`StepGuard`] rule (the next step could not run on it).
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
        if let Err(v) = StepGuard::new(sim).check_particles(&self.state()) {
            return invalid(v.detail);
        }
        self.rewind(sim);
        Ok(())
    }

    /// Copies the snapshot over `sim` without judging it: the rollback
    /// of a guarded run to its own capture of the same simulation, which
    /// must land even on a start state the guard refuses.
    pub(crate) fn rewind(&self, sim: &mut Simulation) {
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
    /// change that moves the hash has changed the format.
    #[test]
    fn sample_blobs_are_byte_pinned() {
        let hck2 = sample_full().to_bytes();
        assert_eq!(hck2.len(), HCK2_HEADER_BYTES + 12 * HCK2_STRIDE);
        assert_eq!(crate::wire::fnv1a(&hck2), 0xd5f2_8e8d_b5cc_5853);
    }

    #[test]
    fn hostile_particle_counts_are_rejected_before_allocating() {
        // A header claiming u32::MAX particles must fail cleanly (no
        // overflow, no multi-gigabyte reserve).
        let mut w = Writer::new(MAGIC_FULL, HCK2_HEADER_BYTES);
        w.u32(u32::MAX);
        w.f64(0.01);
        w.u64(0);
        w.u64(0);
        let err = FullCheckpoint::from_bytes(w.finish()).unwrap_err();
        assert!(
            matches!(
                err,
                CheckpointError::TooLarge { claimed, cap }
                    if claimed == u32::MAX as usize && cap == crate::wire::MAX_PARTICLES
            ),
            "unexpected error: {err}"
        );
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
