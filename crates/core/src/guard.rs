//! Post-step state validation.
//!
//! After every long step the driver can cheaply audit the invariants
//! the physics guarantees: every field finite, positions inside the
//! periodic box, internal energies and masses non-negative, smoothing
//! lengths inside the adaptive clamp range, and total particle mass
//! conserved *exactly* (the mass vector is never mutated by the stepper,
//! so the deterministic left-to-right sum must reproduce bit-for-bit). A
//! violation is the signature of silent data corruption — an injected
//! bit flip or NaN that slipped past the launch layer — and triggers
//! the checkpoint rollback in [`crate::recovery`]. The per-particle
//! rules also gate [`crate::FullCheckpoint::restore_into`].

use crate::sim::{ParticleState, Simulation};

/// A failed invariant: which field broke and how.
#[derive(Clone, Debug, PartialEq)]
pub struct GuardViolation {
    /// The state field that failed (`pos`, `mom`, `u_int`, `h`,
    /// `star_mass`, `mass`).
    pub field: String,
    /// Human-readable description of the violation.
    pub detail: String,
}

impl std::fmt::Display for GuardViolation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "step guard violation in `{}`: {}",
            self.field, self.detail
        )
    }
}

impl std::error::Error for GuardViolation {}

/// Invariant checker capturing the conserved quantities and bounds at
/// construction time.
#[derive(Clone, Debug)]
pub struct StepGuard {
    /// Total particle mass at capture (deterministic sum; conserved
    /// exactly because the stepper never writes the mass vector).
    mass0: f64,
    /// Periodic box side in grid units.
    ng: f64,
    /// Lower bound of the adaptive smoothing-length clamp.
    h_min: f64,
    /// Upper bound of the adaptive smoothing-length clamp.
    h_max: f64,
}

impl StepGuard {
    /// Captures the invariants of a (healthy) simulation.
    pub fn new(sim: &Simulation) -> Self {
        let spacing = sim.config.box_spec.ng as f64 / sim.config.box_spec.np as f64;
        let h0 = sim.config.eta_smoothing * spacing;
        Self {
            mass0: sim.mass.iter().sum(),
            ng: sim.config.box_spec.ng as f64,
            // Mirror of the clamp in the hydro update: initial h0 is
            // also legal because the clamp only applies once a particle
            // has been through a hydro step.
            h_min: (0.5 * h0).min(h0),
            h_max: (sim.config.r_cut_cells / 2.0).max(h0),
        }
    }

    /// Checks every invariant, returning the first violation found.
    pub fn check(&self, sim: &Simulation) -> Result<(), GuardViolation> {
        self.check_particles(&sim.state())?;
        let mass: f64 = sim.mass.iter().sum();
        if mass.to_bits() == self.mass0.to_bits() {
            return Ok(());
        }
        let mass0 = self.mass0;
        violation(
            "mass",
            format!("total mass {mass:e} != captured {mass0:e} (must match exactly)"),
        )
    }

    /// The per-particle rules alone: what every state of a healthy run
    /// satisfies, whether the stepper or a restored snapshot produced
    /// it. Each violation names its field and index.
    pub(crate) fn check_particles(&self, state: &ParticleState) -> Result<(), GuardViolation> {
        for (i, p) in state.pos.iter().enumerate() {
            for c in 0..3 {
                if !p[c].is_finite() {
                    return violation("pos", format!("pos[{i}][{c}] = {}", p[c]));
                }
                if !(0.0..self.ng).contains(&p[c]) {
                    return violation(
                        "pos",
                        format!("pos[{i}][{c}] = {} outside [0, {})", p[c], self.ng),
                    );
                }
            }
        }
        for (i, m) in state.mom.iter().enumerate() {
            for c in 0..3 {
                if !m[c].is_finite() {
                    return violation("mom", format!("mom[{i}][{c}] = {}", m[c]));
                }
            }
        }
        for (i, &u) in state.u_int.iter().enumerate() {
            if !u.is_finite() || u < 0.0 {
                return violation("u_int", format!("u_int[{i}] = {u}"));
            }
        }
        for (i, &h) in state.h.iter().enumerate() {
            if !h.is_finite() || !(self.h_min..=self.h_max).contains(&h) {
                return violation(
                    "h",
                    format!("h[{i}] = {h} outside [{}, {}]", self.h_min, self.h_max),
                );
            }
        }
        for (field, values) in [("star_mass", state.star_mass), ("mass", state.mass)] {
            for (i, &v) in values.iter().enumerate() {
                if !v.is_finite() || v < 0.0 {
                    return violation(field, format!("{field}[{i}] = {v}"));
                }
            }
        }
        Ok(())
    }
}

/// A failed check of `field`.
fn violation(field: &str, detail: String) -> Result<(), GuardViolation> {
    Err(GuardViolation {
        field: field.to_string(),
        detail,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{DeviceConfig, SimConfig};
    use hacc_kernels::Variant;
    use sycl_sim::{GpuArch, GrfMode, Lang};

    fn sim() -> Simulation {
        let dc = DeviceConfig {
            lang: Lang::Sycl,
            fast_math: None,
            variant: Variant::Select,
            sg_size: Some(32),
            grf: GrfMode::Default,
        };
        Simulation::new(SimConfig::smoke(), dc, GpuArch::frontier())
    }

    #[test]
    fn fresh_simulation_passes() {
        let s = sim();
        let guard = StepGuard::new(&s);
        guard.check(&s).unwrap();
    }

    #[test]
    fn nan_position_is_caught() {
        let mut s = sim();
        let guard = StepGuard::new(&s);
        s.pos[3][1] = f64::NAN;
        let v = guard.check(&s).unwrap_err();
        assert_eq!(v.field, "pos");
    }

    #[test]
    fn out_of_box_position_is_caught() {
        let mut s = sim();
        let guard = StepGuard::new(&s);
        s.pos[0][0] = s.config.box_spec.ng as f64 + 0.5;
        assert_eq!(guard.check(&s).unwrap_err().field, "pos");
    }

    #[test]
    fn tiny_mass_change_is_caught() {
        // One part in 10⁹ of a single particle — far below any
        // tolerance-based check, but the bit-exact sum comparison
        // sees it.
        let mut s = sim();
        let guard = StepGuard::new(&s);
        s.mass[0] *= 1.0 + 1e-9;
        assert_eq!(guard.check(&s).unwrap_err().field, "mass");
    }

    #[test]
    fn negative_energy_and_bad_h_are_caught() {
        let mut s = sim();
        let guard = StepGuard::new(&s);
        let i = s
            .species
            .iter()
            .position(|&sp| sp == crate::sim::Species::Baryon)
            .unwrap();
        s.u_int[i] = -1e-9;
        assert_eq!(guard.check(&s).unwrap_err().field, "u_int");
        let mut s = sim();
        s.h[i] = f64::INFINITY;
        assert_eq!(guard.check(&s).unwrap_err().field, "h");
    }
}
