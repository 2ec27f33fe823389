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
//! Both parsers treat their input as hostile: particle counts go
//! through checked arithmetic and an allocation cap before any memory
//! is reserved, so a corrupted or truncated header can never trigger an
//! overflow or an absurd allocation.

use crate::sim::{Simulation, Species};
use bytes::{Buf, BufMut, Bytes, BytesMut};
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

/// Allocation cap: headers claiming more particles than this are
/// rejected before any buffer is reserved (2²⁷ ≈ 134M particles is far
/// beyond anything the simulated driver runs, yet only ~10 GiB — a
/// hostile 32-bit count can claim 4 billion).
pub(crate) const MAX_PARTICLES: usize = 1 << 27;

/// Per-particle payload bytes of the HCK1 format (9 f64 fields).
const HCK1_STRIDE: usize = 9 * 8;

/// Per-particle payload bytes of the HCK2 format (10 f64 fields plus a
/// species byte).
const HCK2_STRIDE: usize = 10 * 8 + 1;

/// Checked `n × stride` for a header-claimed particle count: errors on
/// multiplication overflow or a count beyond [`MAX_PARTICLES`].
pub(crate) fn payload_bytes(n: usize, stride: usize) -> Result<usize, CheckpointError> {
    if n > MAX_PARTICLES {
        return Err(CheckpointError::TooLarge {
            claimed: n,
            cap: MAX_PARTICLES,
        });
    }
    n.checked_mul(stride).ok_or(CheckpointError::SizeOverflow)
}

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
    pub fn to_bytes(&self) -> Bytes {
        let n = self.particles.len();
        let mut buf = BytesMut::with_capacity(32 + n * 9 * 8);
        buf.put_u32(MAGIC);
        buf.put_u32(n as u32);
        buf.put_f64(self.a);
        buf.put_f64(self.box_size);
        for i in 0..n {
            for c in 0..3 {
                buf.put_f64(self.particles.pos[i][c]);
            }
            for c in 0..3 {
                buf.put_f64(self.particles.vel[i][c]);
            }
            buf.put_f64(self.particles.mass[i]);
            buf.put_f64(self.particles.h[i]);
            buf.put_f64(self.particles.u[i]);
        }
        buf.freeze()
    }

    /// Deserializes a blob produced by [`Checkpoint::to_bytes`].
    pub fn from_bytes(mut data: Bytes) -> Result<Self, CheckpointError> {
        if data.remaining() < 24 {
            return Err(CheckpointError::Truncated { what: "header" });
        }
        let magic = data.get_u32();
        if magic != MAGIC {
            return Err(CheckpointError::BadMagic {
                found: magic,
                expected: MAGIC,
            });
        }
        let n = data.get_u32() as usize;
        let a = data.get_f64();
        let box_size = data.get_f64();
        if data.remaining() < payload_bytes(n, HCK1_STRIDE)? {
            return Err(CheckpointError::Truncated { what: "payload" });
        }
        let mut hp = HostParticles::default();
        hp.pos.reserve(n);
        hp.vel.reserve(n);
        hp.mass.reserve(n);
        hp.h.reserve(n);
        hp.u.reserve(n);
        for _ in 0..n {
            hp.pos
                .push([data.get_f64(), data.get_f64(), data.get_f64()]);
            hp.vel
                .push([data.get_f64(), data.get_f64(), data.get_f64()]);
            hp.mass.push(data.get_f64());
            hp.h.push(data.get_f64());
            hp.u.push(data.get_f64());
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
        let data = std::fs::read(path)?;
        Self::from_bytes(Bytes::from(data))
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
    /// configuration. Errors if the particle count differs (a snapshot
    /// cannot resize a simulation).
    pub fn restore_into(&self, sim: &mut Simulation) -> Result<(), CheckpointError> {
        if self.len() != sim.n_particles() {
            return Err(CheckpointError::SizeMismatch {
                checkpoint: self.len(),
                simulation: sim.n_particles(),
            });
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
    pub fn to_bytes(&self) -> Bytes {
        let n = self.len();
        let mut buf = BytesMut::with_capacity(40 + n * HCK2_STRIDE);
        buf.put_u32(MAGIC_FULL);
        buf.put_u32(n as u32);
        buf.put_f64(self.a);
        buf.put_u64(self.step_count as u64);
        buf.put_u64(self.adaptive_sub_cycles as u64);
        for i in 0..n {
            for c in 0..3 {
                buf.put_f64(self.pos[i][c]);
            }
            for c in 0..3 {
                buf.put_f64(self.mom[i][c]);
            }
            buf.put_f64(self.mass[i]);
            buf.put_f64(self.u_int[i]);
            buf.put_f64(self.h[i]);
            buf.put_f64(self.star_mass[i]);
            buf.put_u8(match self.species[i] {
                Species::DarkMatter => 0,
                Species::Baryon => 1,
            });
        }
        buf.freeze()
    }

    /// Deserializes a blob produced by [`FullCheckpoint::to_bytes`],
    /// treating the input as untrusted.
    pub fn from_bytes(mut data: Bytes) -> Result<Self, CheckpointError> {
        if data.remaining() < 32 {
            return Err(CheckpointError::Truncated { what: "header" });
        }
        let magic = data.get_u32();
        if magic != MAGIC_FULL {
            return Err(CheckpointError::BadMagic {
                found: magic,
                expected: MAGIC_FULL,
            });
        }
        let n = data.get_u32() as usize;
        let a = data.get_f64();
        let step_count = data.get_u64() as usize;
        let adaptive_sub_cycles = data.get_u64() as usize;
        if data.remaining() < payload_bytes(n, HCK2_STRIDE)? {
            return Err(CheckpointError::Truncated { what: "payload" });
        }
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
            cp.pos
                .push([data.get_f64(), data.get_f64(), data.get_f64()]);
            cp.mom
                .push([data.get_f64(), data.get_f64(), data.get_f64()]);
            cp.mass.push(data.get_f64());
            cp.u_int.push(data.get_f64());
            cp.h.push(data.get_f64());
            cp.star_mass.push(data.get_f64());
            cp.species.push(match data.get_u8() {
                0 => Species::DarkMatter,
                1 => Species::Baryon,
                tag => return Err(CheckpointError::BadSpecies { tag }),
            });
        }
        Ok(cp)
    }

    /// Writes to a file.
    pub fn save(&self, path: &std::path::Path) -> std::io::Result<()> {
        std::fs::write(path, self.to_bytes())
    }

    /// Reads from a file.
    pub fn load(path: &std::path::Path) -> Result<Self, CheckpointError> {
        let data = std::fs::read(path)?;
        Self::from_bytes(Bytes::from(data))
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
        let mut blob = BytesMut::from(&sample().to_bytes()[..]);
        blob[0] = 0;
        assert!(Checkpoint::from_bytes(blob.freeze()).is_err());
    }

    #[test]
    fn rejects_truncation() {
        let blob = sample().to_bytes();
        let cut = blob.slice(0..blob.len() - 8);
        assert!(Checkpoint::from_bytes(cut).is_err());
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
        let mut blob = BytesMut::from(&sample_full().to_bytes()[..]);
        blob[0] = 0x55;
        assert!(FullCheckpoint::from_bytes(blob.freeze()).is_err());
        let mut blob = BytesMut::from(&sample_full().to_bytes()[..]);
        let last = blob.len() - 1; // species byte of the final particle
        blob[last] = 7;
        assert!(FullCheckpoint::from_bytes(blob.freeze()).is_err());
    }

    #[test]
    fn hostile_particle_counts_are_rejected_before_allocating() {
        // A header claiming u32::MAX particles must fail cleanly (no
        // overflow, no multi-gigabyte reserve) in both formats.
        for magic in [MAGIC, MAGIC_FULL] {
            let mut buf = BytesMut::new();
            buf.put_u32(magic);
            buf.put_u32(u32::MAX);
            buf.put_f64(0.01);
            buf.put_u64(0);
            buf.put_u64(0);
            let err = if magic == MAGIC {
                Checkpoint::from_bytes(buf.freeze()).unwrap_err()
            } else {
                FullCheckpoint::from_bytes(buf.freeze()).unwrap_err()
            };
            assert!(
                matches!(
                    err,
                    CheckpointError::TooLarge { claimed, cap }
                        if claimed == u32::MAX as usize && cap == MAX_PARTICLES
                ),
                "unexpected error: {err}"
            );
        }
    }

    mod hostile_blobs {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(128))]

            /// Random truncations of a valid HCK1 blob never panic.
            #[test]
            fn truncated_hck1_never_panics(frac in 0.0f64..1.0) {
                let blob = sample().to_bytes();
                let cut = (blob.len() as f64 * frac) as usize;
                let _ = Checkpoint::from_bytes(blob.slice(0..cut));
            }

            /// Random truncations of a valid HCK2 blob never panic.
            #[test]
            fn truncated_hck2_never_panics(frac in 0.0f64..1.0) {
                let blob = sample_full().to_bytes();
                let cut = (blob.len() as f64 * frac) as usize;
                let _ = FullCheckpoint::from_bytes(blob.slice(0..cut));
            }

            /// Single-bit flips anywhere in a valid HCK1 blob either
            /// parse (the flip hit a benign payload bit) or error —
            /// never panic, never allocate absurdly.
            #[test]
            fn bit_flipped_hck1_never_panics(byte_frac in 0.0f64..1.0, bit in 0usize..8) {
                let blob = sample().to_bytes();
                let mut raw = BytesMut::from(&blob[..]);
                let idx = ((raw.len() as f64 * byte_frac) as usize).min(raw.len() - 1);
                raw[idx] ^= 1 << bit;
                let _ = Checkpoint::from_bytes(raw.freeze());
            }

            /// Same for HCK2.
            #[test]
            fn bit_flipped_hck2_never_panics(byte_frac in 0.0f64..1.0, bit in 0usize..8) {
                let blob = sample_full().to_bytes();
                let mut raw = BytesMut::from(&blob[..]);
                let idx = ((raw.len() as f64 * byte_frac) as usize).min(raw.len() - 1);
                raw[idx] ^= 1 << bit;
                let _ = FullCheckpoint::from_bytes(raw.freeze());
            }
        }
    }
}
