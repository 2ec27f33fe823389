//! Programming-model ("toolchain") semantics.
//!
//! The paper compares CUDA, HIP, and SYCL builds of the same kernels.
//! Besides platform support, the toolchains differ in one way that matters
//! for Figure 2: the oneAPI DPC++ compiler defaults to fast math, whereas
//! `nvcc` and `hipcc` do not (§4.4).

use crate::arch::GpuArch;
use serde::{Deserialize, Serialize};

/// Source programming model.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Lang {
    /// NVIDIA CUDA (runs on NVIDIA GPUs only).
    Cuda,
    /// AMD HIP via CRK-HACC's macro wrapper (runs on AMD GPUs only —
    /// the paper's configuration does not build HIP for NVIDIA).
    Hip,
    /// SYCL 2020 (runs everywhere via DPC++ backends).
    Sycl,
}

impl Lang {
    /// Whether this toolchain can target the given architecture, as
    /// configured in the paper (Figure 12's zero-PP entries come from
    /// CUDA/HIP lacking Aurora support, and vISA lacking everything else).
    pub fn supports(&self, arch: &GpuArch) -> bool {
        match self {
            Lang::Cuda => arch.id == "a100",
            Lang::Hip => arch.id == "mi250x",
            Lang::Sycl => true,
        }
    }

    /// Compiler default for fast math (§4.4): DPC++ defaults on, nvcc and
    /// hipcc default off.
    fn default_fast_math(&self) -> bool {
        matches!(self, Lang::Sycl)
    }

    /// Display name.
    pub fn name(&self) -> &'static str {
        match self {
            Lang::Cuda => "CUDA",
            Lang::Hip => "HIP",
            Lang::Sycl => "SYCL",
        }
    }
}

/// A concrete build configuration: language plus the flags that affect
/// code generation in this study.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct Toolchain {
    /// Source language.
    pub lang: Lang,
    /// `-ffast-math` / `-use_fast_math` (approximate transcendentals).
    pub fast_math: bool,
    /// Allow inline vISA assembly paths (Intel only; the `SYCL (vISA)`
    /// variant of the paper).
    pub enable_visa: bool,
}

impl Toolchain {
    /// A toolchain with the language's default flags.
    pub fn new(lang: Lang) -> Self {
        Self {
            lang,
            fast_math: lang.default_fast_math(),
            enable_visa: false,
        }
    }

    /// CUDA as initially benchmarked in Figure 2 (no fast math).
    pub fn cuda() -> Self {
        Self::new(Lang::Cuda)
    }

    /// CUDA recompiled with `-use_fast_math` (closes the Figure 2 gap).
    pub fn cuda_fast_math() -> Self {
        Self {
            fast_math: true,
            ..Self::new(Lang::Cuda)
        }
    }

    /// HIP with its default flags.
    pub fn hip() -> Self {
        Self::new(Lang::Hip)
    }

    /// HIP with `-ffast-math` (the Appendix A.3 production flags).
    pub fn hip_fast_math() -> Self {
        Self {
            fast_math: true,
            ..Self::new(Lang::Hip)
        }
    }

    /// SYCL with DPC++ defaults (fast math on).
    pub fn sycl() -> Self {
        Self::new(Lang::Sycl)
    }

    /// SYCL with the inline-vISA specialization enabled.
    pub fn sycl_visa() -> Self {
        Self {
            enable_visa: true,
            ..Self::new(Lang::Sycl)
        }
    }

    /// Whether the build runs on `arch` (vISA further restricts to Intel).
    pub fn supports(&self, arch: &GpuArch) -> bool {
        self.lang.supports(arch) && (!self.enable_visa || arch.supports_visa)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn platform_support_matrix() {
        let (a, p, f) = (GpuArch::aurora(), GpuArch::polaris(), GpuArch::frontier());
        assert!(!Lang::Cuda.supports(&a) && Lang::Cuda.supports(&p) && !Lang::Cuda.supports(&f));
        assert!(!Lang::Hip.supports(&a) && !Lang::Hip.supports(&p) && Lang::Hip.supports(&f));
        assert!(Lang::Sycl.supports(&a) && Lang::Sycl.supports(&p) && Lang::Sycl.supports(&f));
    }

    #[test]
    fn fast_math_defaults_match_section_4_4() {
        assert!(Toolchain::sycl().fast_math);
        assert!(!Toolchain::cuda().fast_math);
        assert!(!Toolchain::hip().fast_math);
        assert!(Toolchain::cuda_fast_math().fast_math);
    }

    #[test]
    fn visa_only_runs_on_intel() {
        let t = Toolchain::sycl_visa();
        assert!(t.supports(&GpuArch::aurora()));
        assert!(!t.supports(&GpuArch::polaris()));
        assert!(!t.supports(&GpuArch::frontier()));
    }
}
