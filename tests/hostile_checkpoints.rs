//! One hostile-input battery over the three checkpoint formats.
//!
//! `HCK1`, `HCK2` and `HCK3` are three record layouts over one bounded
//! reader (`hacc_core`'s private `wire` module, DESIGN.md §4b), whose
//! contract is that no read can panic and no count is believed before
//! the bytes behind it are seen. This file holds that contract to every
//! format at once: each test walks [`formats`] and feeds the public
//! `from_bytes` truncations, bit flips and garbage. Exact error variants
//! for hand-built hostile headers are asserted next to each codec
//! (`checkpoint.rs`, `distckpt.rs`, `wire.rs` unit tests) and in
//! `tests/resilience.rs::hostile_hck3_headers_never_panic`.

use hacc_comm::ParticleBatch;
use hacc_core::{Checkpoint, CheckpointError, FullCheckpoint, MultiRankCheckpoint, Species};
use hacc_kernels::HostParticles;
use proptest::prelude::*;

/// One format under test: a valid blob, where its fixed header ends,
/// and its parser with the payload type erased.
struct Format {
    name: &'static str,
    header_bytes: usize,
    blob: Vec<u8>,
    parse: fn(&[u8]) -> Result<(), CheckpointError>,
}

fn formats() -> [Format; 3] {
    let mut particles = HostParticles::default();
    for i in 0..10 {
        particles.pos.push([i as f64, 2.0 * i as f64, 0.5]);
        particles.vel.push([0.1, -0.2, 0.3 * i as f64]);
        particles.mass.push(1.5);
        particles.h.push(1.0);
        particles.u.push(0.01 * i as f64 + 1e-12);
    }
    let hck1 = Checkpoint {
        a: 0.01,
        box_size: 16.0,
        particles,
    };
    let n = 12;
    let hck2 = FullCheckpoint {
        a: 0.015,
        step_count: 3,
        adaptive_sub_cycles: 5,
        pos: (0..n).map(|i| [i as f64, 0.25 * i as f64, 7.5]).collect(),
        mom: (0..n).map(|i| [-0.1, 0.2, 1e-3 * i as f64]).collect(),
        mass: vec![1.0; n],
        u_int: (0..n).map(|i| 1e-4 * i as f64).collect(),
        h: vec![0.9; n],
        star_mass: vec![0.0; n],
        species: (0..n)
            .map(|i| [Species::DarkMatter, Species::Baryon][i % 2])
            .collect(),
    };
    let hck3 = MultiRankCheckpoint {
        step: 7,
        ng: 16,
        dims: [2, 2, 2],
        // Ranks 0 and 7 are empty: sections that are all header.
        per_rank: (0..8u64)
            .map(|rank| {
                let mut batch = ParticleBatch::new();
                for k in 0..(rank * 3) % 7 {
                    let id = rank * 1000 + k;
                    let x = id as f64;
                    batch.push(id, [x, 0.5, 0.25], [-0.1, 0.2, 1e-3], 1.0, 1.0, 1e-4);
                }
                batch
            })
            .collect(),
    };
    [
        Format {
            name: "HCK1",
            header_bytes: 24,
            blob: hck1.to_bytes(),
            parse: |b| Checkpoint::from_bytes(b).map(drop),
        },
        Format {
            name: "HCK2",
            header_bytes: 32,
            blob: hck2.to_bytes(),
            parse: |b| FullCheckpoint::from_bytes(b).map(drop),
        },
        Format {
            name: "HCK3",
            header_bytes: 52,
            blob: hck3.to_bytes(),
            parse: |b| MultiRankCheckpoint::from_bytes(b).map(drop),
        },
    ]
}

/// Exhaustive, not sampled: the blobs are 1–2 KB. Every strict prefix
/// is `Truncated` — in `"header"` exactly while the cut is inside the
/// fixed header — and the whole blob parses.
#[test]
fn every_prefix_of_a_valid_blob_is_truncated_never_a_panic() {
    for f in formats() {
        assert_eq!((f.parse)(&f.blob), Ok(()), "{}: own bytes", f.name);
        for cut in 0..f.blob.len() {
            match (f.parse)(&f.blob[..cut]) {
                Err(CheckpointError::Truncated { what }) => assert_eq!(
                    what == "header",
                    cut < f.header_bytes,
                    "{} cut at {cut}: truncated in {what:?}",
                    f.name
                ),
                other => panic!("{} cut at {cut}: {other:?}", f.name),
            }
        }
    }
}

/// Every single-bit flip of every header byte, and of every seventh
/// payload byte, parses or errors — never panics, never reserves for a
/// count the blob cannot back. A flipped magic is always `BadMagic`.
#[test]
fn bit_flips_never_panic() {
    for f in formats() {
        let header = 0..f.header_bytes;
        let payload = (f.header_bytes..f.blob.len()).step_by(7);
        for byte in header.chain(payload) {
            for bit in 0..8 {
                let mut blob = f.blob.clone();
                blob[byte] ^= 1 << bit;
                let outcome = (f.parse)(&blob);
                if byte < 4 {
                    assert!(
                        matches!(outcome, Err(CheckpointError::BadMagic { .. })),
                        "{} magic byte {byte} bit {bit}: {outcome:?}",
                        f.name
                    );
                }
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Garbage behind a valid magic — and garbage behind a whole valid,
    /// self-consistent header, so the parser believes the counts and
    /// walks into the arbitrary records — never panics.
    #[test]
    fn arbitrary_bytes_behind_a_valid_magic_never_panic(
        tail in prop::collection::vec(0u8..=255, 0..1500),
        keep_header in 0usize..2,
    ) {
        for f in formats() {
            let keep = if keep_header == 1 { f.header_bytes } else { 4 };
            let mut blob = f.blob[..keep].to_vec();
            blob.extend_from_slice(&tail);
            let _ = (f.parse)(&blob);
        }
    }
}
