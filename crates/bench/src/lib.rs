#![warn(missing_docs)]
//! # hacc-bench
//!
//! Experiment machinery behind the `figures` binary, which regenerates
//! every table and figure of the paper's evaluation. See EXPERIMENTS.md
//! for the paper-versus-measured record. Everything here reports the
//! *modeled* clock; host wall-clock is measured in `benchmark/` only.

pub mod autotune;
pub mod cli;
pub mod cpu_backend;
pub mod experiments;
pub mod faults;
pub mod figures;
pub mod gate;
pub mod health;
pub mod ranks;
pub mod resilience;

pub use cli::{Invocation, Target, FLAGS, TARGETS};
