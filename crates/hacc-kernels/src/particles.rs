//! Device-side particle state (structure of arrays).
//!
//! Mirrors the GPU-resident buffers of CRK-HACC's hydro solver: positions,
//! velocities, SPH smoothing lengths and thermodynamic state, CRK
//! correction coefficients, and the accumulator fields written by the hot
//! kernels. All device fields are FP32, like the production kernels; the
//! host-side reference implementations in [`crate::reference`] use f64.

use sycl_sim::Buffer;

/// Adiabatic index of the ideal-gas equation of state used by the
/// adiabatic ("non-radiative") CRK-HACC configuration.
pub(crate) const GAMMA: f32 = 5.0 / 3.0;

/// Host-side particle sample (one species) used to populate the device.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct HostParticles {
    /// Comoving positions (same length units as the interaction cutoff).
    pub pos: Vec<[f64; 3]>,
    /// Peculiar velocities.
    pub vel: Vec<[f64; 3]>,
    /// Particle masses.
    pub mass: Vec<f64>,
    /// SPH smoothing lengths.
    pub h: Vec<f64>,
    /// Specific internal energies.
    pub u: Vec<f64>,
}

impl HostParticles {
    /// Number of particles.
    pub fn len(&self) -> usize {
        self.pos.len()
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.pos.is_empty()
    }

    /// Checks that all fields have matching lengths, positions are
    /// finite, `h > 0` and `mass ≥ 0` (a NaN `h` or mass passes, for the
    /// step guard to catch); the error names the particle and the field.
    pub fn validate(&self) -> Result<(), String> {
        let n = self.pos.len();
        if self.vel.len() != n || self.mass.len() != n || self.h.len() != n || self.u.len() != n {
            return Err("particle field lengths differ".into());
        }
        for i in 0..n {
            let (pos, h, mass) = (self.pos[i], self.h[i], self.mass[i]);
            if pos.iter().any(|c| !c.is_finite()) {
                return Err(format!("particle {i} has a non-finite pos = {pos:?}"));
            }
            if h <= 0.0 {
                return Err(format!(
                    "particle {i} has a non-positive smoothing length h = {h}"
                ));
            }
            if mass < 0.0 {
                return Err(format!("particle {i} has a negative mass = {mass}"));
            }
        }
        Ok(())
    }

    /// Reorders all fields by `order` (the RCB permutation), so leaf slots
    /// are contiguous in the device buffers.
    pub fn permuted(&self, order: &[u32]) -> HostParticles {
        assert_eq!(order.len(), self.len());
        let g = |i: &u32| *i as usize;
        HostParticles {
            pos: order.iter().map(|i| self.pos[g(i)]).collect(),
            vel: order.iter().map(|i| self.vel[g(i)]).collect(),
            mass: order.iter().map(|i| self.mass[g(i)]).collect(),
            h: order.iter().map(|i| self.h[g(i)]).collect(),
            u: order.iter().map(|i| self.u[g(i)]).collect(),
        }
    }
}

/// The device-resident SoA state for one species' hydro step.
#[derive(Clone, Debug)]
pub struct DeviceParticles {
    /// Particle count.
    pub n: usize,
    /// Positions, one buffer per component.
    pub pos: [Buffer; 3],
    /// Velocities.
    pub vel: [Buffer; 3],
    /// Masses.
    pub mass: Buffer,
    /// Smoothing lengths.
    pub h: Buffer,
    /// Specific internal energies.
    pub u: Buffer,
    /// Volumes (output of *Geometry*).
    pub volume: Buffer,
    /// CRK zeroth moment accumulator m₀ (scratch of *Corrections*).
    pub crk_m0: Buffer,
    /// CRK first moment accumulator m₁ (scratch of *Corrections*).
    pub crk_m1: [Buffer; 3],
    /// CRK second moment accumulator m₂ (symmetric: xx, yy, zz, xy, xz,
    /// yz; scratch of *Corrections*).
    pub crk_m2: [Buffer; 6],
    /// CRK zeroth-order coefficient A (output of *Corrections*).
    pub crk_a: Buffer,
    /// CRK first-order coefficients B (output of *Corrections*).
    pub crk_b: [Buffer; 3],
    /// Densities (output of *Extras*).
    pub rho: Buffer,
    /// Density gradients (output of *Extras*).
    pub grad_rho: [Buffer; 3],
    /// Pressures (finalized from ρ and u).
    pub pressure: Buffer,
    /// Sound speeds `c = √(γP/ρ)` (finalized with pressure).
    pub cs: Buffer,
    /// Precomputed force terms `P/ρ²` (finalized with pressure).
    pub pterm: Buffer,
    /// Hydrodynamic accelerations (output of *Acceleration*).
    pub acc: [Buffer; 3],
    /// Short-range gravitational accelerations (output of *Gravity*;
    /// separate from the hydro field because the two kernels carry
    /// different physical couplings and the broadcast variant writes with
    /// plain stores).
    pub acc_grav: [Buffer; 3],
    /// Internal-energy derivatives (output of *Energy*).
    pub du_dt: Buffer,
    /// Per-rank minimum CFL time step (atomic-min target of the
    /// *Acceleration* kernel — the float min/max atomic of §5.1).
    pub dt_min: Buffer,
}

impl DeviceParticles {
    /// Uploads host particles (typically already leaf-ordered).
    pub fn upload(hp: &HostParticles) -> Self {
        hp.validate().expect("invalid host particles");
        let n = hp.len();
        let comp = |sel: fn(&[f64; 3]) -> f64, src: &[[f64; 3]]| -> Buffer {
            Buffer::from_f32(&src.iter().map(|v| sel(v) as f32).collect::<Vec<_>>())
        };
        let scal = |src: &[f64]| -> Buffer {
            Buffer::from_f32(&src.iter().map(|&v| v as f32).collect::<Vec<_>>())
        };
        Self {
            n,
            pos: [
                comp(|v| v[0], &hp.pos),
                comp(|v| v[1], &hp.pos),
                comp(|v| v[2], &hp.pos),
            ],
            vel: [
                comp(|v| v[0], &hp.vel),
                comp(|v| v[1], &hp.vel),
                comp(|v| v[2], &hp.vel),
            ],
            mass: scal(&hp.mass),
            h: scal(&hp.h),
            u: scal(&hp.u),
            volume: Buffer::zeros(n),
            crk_m0: Buffer::zeros(n),
            crk_m1: [Buffer::zeros(n), Buffer::zeros(n), Buffer::zeros(n)],
            crk_m2: [
                Buffer::zeros(n),
                Buffer::zeros(n),
                Buffer::zeros(n),
                Buffer::zeros(n),
                Buffer::zeros(n),
                Buffer::zeros(n),
            ],
            crk_a: Buffer::zeros(n),
            crk_b: [Buffer::zeros(n), Buffer::zeros(n), Buffer::zeros(n)],
            rho: Buffer::zeros(n),
            grad_rho: [Buffer::zeros(n), Buffer::zeros(n), Buffer::zeros(n)],
            pressure: Buffer::zeros(n),
            cs: Buffer::zeros(n),
            pterm: Buffer::zeros(n),
            acc: [Buffer::zeros(n), Buffer::zeros(n), Buffer::zeros(n)],
            acc_grav: [Buffer::zeros(n), Buffer::zeros(n), Buffer::zeros(n)],
            du_dt: Buffer::zeros(n),
            dt_min: Buffer::from_f32(&[f32::MAX]),
        }
    }

    /// Clears the per-step accumulator fields.
    pub(crate) fn clear_accumulators(&self) {
        for c in 0..3 {
            self.acc[c].fill_f32(0.0);
            self.acc_grav[c].fill_f32(0.0);
            self.grad_rho[c].fill_f32(0.0);
            self.crk_b[c].fill_f32(0.0);
            self.crk_m1[c].fill_f32(0.0);
        }
        for m in &self.crk_m2 {
            m.fill_f32(0.0);
        }
        self.volume.fill_f32(0.0);
        self.crk_m0.fill_f32(0.0);
        self.crk_a.fill_f32(0.0);
        self.rho.fill_f32(0.0);
        self.du_dt.fill_f32(0.0);
        self.dt_min.fill_f32(f32::MAX);
    }

    /// Every device buffer with a stable label, in declaration order.
    ///
    /// This is the canonical enumeration used by bitwise-equivalence
    /// checks (parallel-vs-serial, golden snapshots): hashing or
    /// comparing the `to_u32_vec` images of these buffers covers the
    /// complete device-resident state of a step.
    pub fn all_buffers(&self) -> Vec<(&'static str, &Buffer)> {
        let mut out: Vec<(&'static str, &Buffer)> = vec![
            ("pos.x", &self.pos[0]),
            ("pos.y", &self.pos[1]),
            ("pos.z", &self.pos[2]),
            ("vel.x", &self.vel[0]),
            ("vel.y", &self.vel[1]),
            ("vel.z", &self.vel[2]),
            ("mass", &self.mass),
            ("h", &self.h),
            ("u", &self.u),
            ("volume", &self.volume),
            ("crk_m0", &self.crk_m0),
        ];
        for (c, b) in self.crk_m1.iter().enumerate() {
            out.push((["crk_m1.x", "crk_m1.y", "crk_m1.z"][c], b));
        }
        for (c, b) in self.crk_m2.iter().enumerate() {
            out.push((
                [
                    "crk_m2.xx",
                    "crk_m2.yy",
                    "crk_m2.zz",
                    "crk_m2.xy",
                    "crk_m2.xz",
                    "crk_m2.yz",
                ][c],
                b,
            ));
        }
        out.push(("crk_a", &self.crk_a));
        for (c, b) in self.crk_b.iter().enumerate() {
            out.push((["crk_b.x", "crk_b.y", "crk_b.z"][c], b));
        }
        out.push(("rho", &self.rho));
        for (c, b) in self.grad_rho.iter().enumerate() {
            out.push((["grad_rho.x", "grad_rho.y", "grad_rho.z"][c], b));
        }
        out.push(("pressure", &self.pressure));
        out.push(("cs", &self.cs));
        out.push(("pterm", &self.pterm));
        for (c, b) in self.acc.iter().enumerate() {
            out.push((["acc.x", "acc.y", "acc.z"][c], b));
        }
        for (c, b) in self.acc_grav.iter().enumerate() {
            out.push((["acc_grav.x", "acc_grav.y", "acc_grav.z"][c], b));
        }
        out.push(("du_dt", &self.du_dt));
        out.push(("dt_min", &self.dt_min));
        out
    }

    /// Hash over the raw bit patterns of every device buffer (in
    /// [`Self::all_buffers`] order). Two states hash equal iff every
    /// field is bit-identical. FNV-1a in shape, but its multiplier is
    /// `0x1000_0000_01b3`, not the FNV-64 prime `0x100_0000_01b3`.
    pub fn state_digest(&self) -> u64 {
        let mut hash = 0xcbf2_9ce4_8422_2325u64;
        let mut eat = |word: u64| {
            for byte in word.to_le_bytes() {
                hash ^= byte as u64;
                hash = hash.wrapping_mul(0x1000_0000_01b3);
            }
        };
        for (_, buf) in self.all_buffers() {
            for w in buf.to_u32_vec() {
                eat(w as u64);
            }
        }
        hash
    }

    /// Downloads a 3-component field.
    pub fn download_vec3(&self, field: &[Buffer; 3]) -> Vec<[f32; 3]> {
        (0..self.n)
            .map(|i| {
                [
                    field[0].read_f32(i),
                    field[1].read_f32(i),
                    field[2].read_f32(i),
                ]
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(n: usize) -> HostParticles {
        HostParticles {
            pos: (0..n).map(|i| [i as f64, 2.0 * i as f64, 0.5]).collect(),
            vel: vec![[0.0; 3]; n],
            mass: vec![1.0; n],
            h: vec![1.0; n],
            u: vec![0.1; n],
        }
    }

    #[test]
    fn upload_round_trips() {
        let hp = sample(5);
        let dp = DeviceParticles::upload(&hp);
        assert_eq!(dp.n, 5);
        assert_eq!(dp.pos[1].read_f32(3), 6.0);
        assert_eq!(dp.mass.read_f32(4), 1.0);
        assert_eq!(dp.dt_min.read_f32(0), f32::MAX);
    }

    #[test]
    fn permutation_reorders_all_fields() {
        let mut hp = sample(4);
        hp.u = vec![0.0, 1.0, 2.0, 3.0];
        let p = hp.permuted(&[2, 0, 3, 1]);
        assert_eq!(p.u, vec![2.0, 0.0, 3.0, 1.0]);
        assert_eq!(p.pos[0][0], 2.0);
    }

    #[test]
    fn validation_catches_bad_fields() {
        let edited = |edit: fn(&mut HostParticles)| {
            let mut hp = sample(3);
            edit(&mut hp);
            hp.validate()
        };
        let err = edited(|hp| hp.h[1] = 0.0).unwrap_err();
        assert!(err.contains("particle 1 has a non-positive smoothing length h = 0"));
        let err = edited(|hp| hp.pos[2][1] = f64::NAN).unwrap_err();
        assert!(err.contains("particle 2 has a non-finite pos"));
        assert!(edited(|hp| hp.mass.truncate(2)).is_err());
        // NaN smoothing lengths and masses are the step guard's to catch.
        assert!(edited(|hp| (hp.h[0], hp.mass[1]) = (f64::NAN, f64::NAN)).is_ok());
    }

    #[test]
    fn all_buffers_enumerates_every_field() {
        let dp = DeviceParticles::upload(&sample(2));
        let bufs = dp.all_buffers();
        assert_eq!(bufs.len(), 39, "every SoA field appears exactly once");
        let mut names: Vec<&str> = bufs.iter().map(|(n, _)| *n).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), 39, "labels are unique");
    }

    #[test]
    fn state_digest_tracks_any_bit_flip() {
        let dp = DeviceParticles::upload(&sample(3));
        let before = dp.state_digest();
        assert_eq!(before, dp.state_digest(), "digest is deterministic");
        dp.du_dt
            .write_f32(2, f32::from_bits(dp.du_dt.read_f32(2).to_bits() ^ 1));
        assert_ne!(before, dp.state_digest(), "one flipped bit changes it");
    }

    #[test]
    fn clear_accumulators_resets_outputs() {
        let dp = DeviceParticles::upload(&sample(3));
        dp.acc[0].write_f32(1, 9.0);
        dp.dt_min.write_f32(0, 0.5);
        dp.clear_accumulators();
        assert_eq!(dp.acc[0].read_f32(1), 0.0);
        assert_eq!(dp.dt_min.read_f32(0), f32::MAX);
    }
}
