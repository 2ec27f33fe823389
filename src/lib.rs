#![warn(missing_docs)]
//! # crk-hacc
//!
//! A Rust reproduction of the SC'23 paper *"A Performance-Portable SYCL
//! Implementation of CRK-HACC for Exascale"* (Rangel, Frontiere, Pennycook,
//! Ma, Pope, Madananth).
//!
//! This umbrella crate re-exports the workspace members so examples and
//! integration tests can use a single import root:
//!
//! - [`cosmo`] — background cosmology (Friedmann expansion, growth, power spectra)
//! - [`fft`] — self-contained 1D/3D FFTs for the Poisson solver
//! - [`mesh`] — particle-mesh long-range gravity and Zel'dovich initial conditions
//! - [`tree`] — RCB tree, chaining mesh, leaf interaction lists, FOF halo finder
//! - [`sycl`] — the simulated SIMT device, toolchains, and architecture cost models
//! - [`kernels`] — the offloaded CRK-SPH + gravity kernels in all communication variants
//! - [`core`] — the full application driver (time stepper, particle store, timers)
//! - [`comm`] — the simulated MPI layer: typed point-to-point messages over
//!   each system's modeled interconnect, with deterministic delivery order
//! - [`telemetry`] — per-launch kernel telemetry: spans, counters, instruction-class
//!   profiles, and Chrome-trace / JSON-Lines exporters
//! - [`metrics`] — performance portability and code-divergence analysis
//! - [`tune`] — the offline-tuned launch table: per-(kernel, arch, size
//!   band) winners with a hostile-input-hardened text form
//! - [`bench`](mod@bench) — experiment machinery: workloads, sweeps, and
//!   the cross-rank performance health report
//! - [`syclomatic`] — the miniature CUDA→SYCL migration pipeline (§4)
//!
//! See `DESIGN.md` for the system inventory and `EXPERIMENTS.md` for the
//! paper-versus-measured record of every reproduced table and figure.

pub use hacc_bench as bench;
pub use hacc_comm as comm;
pub use hacc_cosmo as cosmo;
pub use hacc_fft as fft;
pub use hacc_kernels as kernels;
pub use hacc_mesh as mesh;
pub use hacc_metrics as metrics;
pub use hacc_telemetry as telemetry;
pub use hacc_tree as tree;
pub use hacc_tune as tune;
pub use sycl_sim as sycl;
pub use syclomatic_mini as syclomatic;

pub use hacc_core as core;
