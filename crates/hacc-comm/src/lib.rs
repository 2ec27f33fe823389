//! In-process message passing for the multi-rank execution layer.
//!
//! CRK-HACC is an MPI application — 8 ranks per node, particle
//! overload (ghost) zones refreshed every step, migration as particles
//! drift across domain faces, and global reductions for diagnostics.
//! This crate is the workspace's MPI substitute: [`Transport`] carries
//! typed [`ParticleBatch`] messages between ranks running concurrently
//! on the rayon pool, costs every transfer on an [`Interconnect`] model
//! built from each system's published link numbers (the way
//! `sycl-sim`'s cost model mirrors its GPUs), injects link faults
//! through the same seeded machinery as kernel launches, and delivers
//! with a determinism discipline — `(src, seq)`-sorted inboxes,
//! per-source fault ordinals and accounting slots — that keeps
//! distributed runs, statistics included, bit-identical at any thread
//! count and under either step schedule.

#![warn(missing_docs)]

mod fabric;
mod transport;

pub use fabric::{Interconnect, Link};
pub use transport::{
    CommError, ExchangeReport, LinkTraffic, Message, ParticleBatch, RetryPolicy, Tag, Transport,
    TransportStats, MESSAGE_HEADER_BYTES, PARTICLE_WIRE_BYTES,
};
