#![warn(missing_docs)]
//! # hacc-bench
//!
//! Experiment machinery shared by the `figures` binary (which regenerates
//! every table and figure of the paper's evaluation) and the criterion
//! benches. See EXPERIMENTS.md for the paper-versus-measured record.

pub mod autotune;
pub mod cpu_backend;
pub mod experiments;
pub mod faults;
pub mod figures;
pub mod health;
pub mod ranks;
pub mod resilience;
pub mod scaling;
