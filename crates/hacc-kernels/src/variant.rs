//! Kernel communication variants (paper §5.3–5.4).

use serde::{Deserialize, Serialize};
use sycl_sim::{Lanes, Sg, Toolchain};

/// The five communication variants evaluated in Figures 9–11.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Variant {
    /// `sycl::select_from_group` XOR shuffle (the out-of-box migration).
    Select,
    /// Work-group local memory, one 32-bit component per exchange.
    Memory32,
    /// Work-group local memory, whole composite object per exchange.
    MemoryObject,
    /// Restructured chunk-parallel kernels using compile-time broadcasts.
    Broadcast,
    /// Inline-vISA butterfly shuffle (Intel only).
    Visa,
}

/// All variants in the paper's presentation order.
pub const ALL_VARIANTS: [Variant; 5] = [
    Variant::Select,
    Variant::Memory32,
    Variant::MemoryObject,
    Variant::Broadcast,
    Variant::Visa,
];

impl Variant {
    /// Label used in the figures.
    pub fn label(&self) -> &'static str {
        match self {
            Variant::Select => "Select",
            Variant::Memory32 => "Memory, 32-bit",
            Variant::MemoryObject => "Memory, Object",
            Variant::Broadcast => "Broadcast",
            Variant::Visa => "vISA",
        }
    }

    /// Compact identifier (lowercase alphanumeric), used as the variant
    /// axis in the tuning table where the figure labels' punctuation
    /// would fight the hostile-input charset guard.
    pub fn id(&self) -> &'static str {
        match self {
            Variant::Select => "select",
            Variant::Memory32 => "memory32",
            Variant::MemoryObject => "memoryobject",
            Variant::Broadcast => "broadcast",
            Variant::Visa => "visa",
        }
    }

    /// Parses [`Variant::id`] output.
    pub fn from_id(s: &str) -> Option<Variant> {
        ALL_VARIANTS.into_iter().find(|v| v.id() == s)
    }

    /// Whether the variant uses the pair-parallel half-warp structure
    /// (`true`) or the chunk-parallel broadcast structure (`false`).
    pub fn is_half_warp(&self) -> bool {
        !matches!(self, Variant::Broadcast)
    }

    /// Whether the variant requires inline vISA support.
    pub fn needs_visa(&self) -> bool {
        matches!(self, Variant::Visa)
    }

    /// The SYCL build that can launch this variant: inline vISA needs the
    /// SYCL(vISA) toolchain, everything else the plain one.
    pub fn toolchain(&self) -> Toolchain {
        if self.needs_visa() {
            Toolchain::sycl_visa()
        } else {
            Toolchain::sycl()
        }
    }

    /// The next variant to try when this one persistently faults on an
    /// architecture — the paper's portability argument in executable
    /// form: the specialised fast paths (vISA, restructured broadcast)
    /// degrade to the single-source portable shuffle, which degrades
    /// through the local-memory variants down to `MemoryObject`, the
    /// always-works floor (plain SLM round trips, no cross-lane
    /// hardware assumptions). `None` means there is nothing left to
    /// fall back to.
    pub fn fallback(&self) -> Option<Variant> {
        match self {
            Variant::Visa => Some(Variant::Select),
            Variant::Broadcast => Some(Variant::Select),
            Variant::Select => Some(Variant::Memory32),
            Variant::Memory32 => Some(Variant::MemoryObject),
            Variant::MemoryObject => None,
        }
    }

    /// This variant followed by its transitive fallbacks, in the order
    /// they would be attempted.
    pub fn fallback_chain(&self) -> Vec<Variant> {
        let mut chain = vec![*self];
        let mut cur = *self;
        while let Some(next) = cur.fallback() {
            chain.push(next);
            cur = next;
        }
        chain
    }

    /// The RCB leaf capacity that fills the variant's lanes: half-warp
    /// variants pack two leaves of `S/2` into a sub-group; the
    /// chunk-parallel broadcast variant owns a full sub-group of `S`.
    pub fn preferred_leaf_capacity(&self, sg_size: usize) -> usize {
        if self.is_half_warp() {
            sg_size / 2
        } else {
            sg_size
        }
    }

    /// The lane whose fields lane `lane` receives at exchange step `step`
    /// of a sub-group of `sg_size`: `lane ^ (h | step)` for the XOR
    /// variants (Figure 4), the cyclic butterfly of
    /// [`Sg::visa_butterfly`] for vISA (Figure 7). This is the map
    /// [`Variant::exchange`] moves data by; the fused executor reads
    /// partners through it.
    ///
    /// Panics if called on [`Variant::Broadcast`].
    #[inline]
    pub fn partner(&self, lane: usize, step: usize, sg_size: usize) -> usize {
        let h = sg_size / 2;
        match self {
            Variant::Select | Variant::Memory32 | Variant::MemoryObject => lane ^ (h | step),
            Variant::Visa if lane < h => h + (lane + step) % h,
            Variant::Visa => (lane - step) % h,
            Variant::Broadcast => {
                panic!("the Broadcast variant is chunk-parallel and does not exchange")
            }
        }
    }

    /// Performs one half-warp exchange step: every lane receives the
    /// listed fields from its partner lane for step `step` (of `h =
    /// S/2` total steps). The partner pattern is XOR-based for the
    /// portable variants (Figure 4) and the butterfly for vISA (Figure 7);
    /// both enumerate each cross-half pair exactly once with pairwise
    /// symmetry.
    ///
    /// Panics if called on [`Variant::Broadcast`], which does not use
    /// half-warp exchanges.
    pub fn exchange<'sg>(
        &self,
        sg: &'sg Sg,
        fields: &[&Lanes<'sg, f32>],
        step: usize,
    ) -> Vec<Lanes<'sg, f32>> {
        let h = sg.size / 2;
        debug_assert!(step < h);
        match self {
            Variant::Select => {
                let idx = sg.lane_id().xor_scalar((h | step) as u32);
                fields
                    .iter()
                    .map(|f| sg.select_from_group(f, &idx))
                    .collect()
            }
            Variant::Memory32 => {
                // One store/barrier/load round trip per 32-bit component.
                let idx = sg.lane_id().xor_scalar((h | step) as u32);
                fields.iter().map(|f| sg.local_exchange(f, &idx)).collect()
            }
            Variant::MemoryObject => {
                // The whole object moves through a larger SLM region with
                // a single barrier.
                let idx = sg.lane_id().xor_scalar((h | step) as u32);
                sg.local_exchange_object(fields, &idx)
            }
            Variant::Visa => fields.iter().map(|f| sg.visa_butterfly(f, step)).collect(),
            Variant::Broadcast => {
                panic!("the Broadcast variant is chunk-parallel and does not exchange")
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sycl_sim::{GpuArch, SgConfig};

    fn sg(arch: &GpuArch) -> Sg {
        Sg::new(0, 32, SgConfig::for_arch(arch, true, arch.supports_visa))
    }

    #[test]
    fn half_warp_exchange_agrees_across_mechanisms() {
        // Select, Memory32 and MemoryObject share the XOR pattern and must
        // move identical values.
        let s = sg(&GpuArch::frontier());
        let x = s.from_fn_f32(|l| (l * 3) as f32);
        let y = s.from_fn_f32(|l| 1000.0 - l as f32);
        for step in 0..16 {
            let a = Variant::Select.exchange(&s, &[&x, &y], step);
            let b = Variant::Memory32.exchange(&s, &[&x, &y], step);
            let c = Variant::MemoryObject.exchange(&s, &[&x, &y], step);
            for f in 0..2 {
                assert_eq!(a[f].as_slice(), b[f].as_slice());
                assert_eq!(a[f].as_slice(), c[f].as_slice());
            }
        }
    }

    #[test]
    fn every_variant_pairing_is_symmetric_and_complete() {
        // Each lower lane must meet every upper lane exactly once over the
        // h steps, with its partner simultaneously meeting it.
        let intel = sg(&GpuArch::aurora());
        for variant in [
            Variant::Select,
            Variant::Memory32,
            Variant::MemoryObject,
            Variant::Visa,
        ] {
            let h = 16usize;
            let mut met = vec![std::collections::HashSet::new(); h];
            for step in 0..h {
                let x = intel.from_fn_f32(|l| l as f32);
                let got = variant.exchange(&intel, &[&x], step);
                for l in 0..h {
                    let partner = got[0].get(l) as usize;
                    assert!(partner >= h, "{variant:?}: lower lane must pair with upper");
                    assert_eq!(
                        got[0].get(partner) as usize,
                        l,
                        "{variant:?}: pairwise symmetry at step {step}"
                    );
                    met[l].insert(partner);
                }
            }
            for m in &met {
                assert_eq!(m.len(), h, "{variant:?}: must cover all partners");
            }
        }
    }

    /// Lane `l` of every exchange holds input lane `partner(l)`, for every
    /// half-warp variant, sub-group size and step.
    #[test]
    fn partner_is_the_lane_every_exchange_reads() {
        for size in [2, 4, 8, 16, 32, 64] {
            let s = Sg::new(0, size, SgConfig::for_arch(&GpuArch::aurora(), true, true));
            let x = s.from_fn_f32(|l| l as f32);
            for variant in ALL_VARIANTS.into_iter().filter(Variant::is_half_warp) {
                for step in 0..size / 2 {
                    let got = variant.exchange(&s, &[&x], step);
                    for l in 0..size {
                        assert_eq!(
                            got[0].get(l) as usize,
                            variant.partner(l, step, size),
                            "{variant:?}, size {size}, step {step}, lane {l}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn labels_match_figures() {
        assert_eq!(Variant::Memory32.label(), "Memory, 32-bit");
        assert_eq!(Variant::MemoryObject.label(), "Memory, Object");
        assert_eq!(Variant::Visa.label(), "vISA");
    }

    #[test]
    fn fallback_chains_terminate_at_the_portable_floor() {
        for v in ALL_VARIANTS {
            let chain = v.fallback_chain();
            assert_eq!(chain[0], v);
            assert_eq!(*chain.last().unwrap(), Variant::MemoryObject);
            // No cycles: every link appears once.
            let mut seen = std::collections::HashSet::new();
            for link in &chain {
                assert!(seen.insert(*link), "{v:?} chain revisits {link:?}");
            }
            // Nothing past the first link needs vISA.
            for link in &chain[1..] {
                assert!(!link.needs_visa(), "fallbacks must be portable");
            }
        }
        assert_eq!(
            Variant::Visa.fallback_chain(),
            vec![
                Variant::Visa,
                Variant::Select,
                Variant::Memory32,
                Variant::MemoryObject
            ]
        );
    }

    #[test]
    #[should_panic(expected = "chunk-parallel")]
    fn broadcast_has_no_exchange() {
        let s = sg(&GpuArch::aurora());
        let x = s.from_fn_f32(|l| l as f32);
        let _ = Variant::Broadcast.exchange(&s, &[&x], 0);
    }
}
