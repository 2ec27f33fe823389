//! One hostile-input battery over the two checkpoint formats.
//!
//! `HCK2` and `HCK3` are two record layouts over one bounded reader
//! (`hacc_core`'s private `wire` module, DESIGN.md §4b), whose contract
//! is that no read can panic and no count is believed before the bytes
//! behind it are seen. This file holds that contract to both formats at
//! once: each test walks [`formats`] and feeds the public `from_bytes`
//! truncations, bit flips and garbage. Well-formed bytes can still carry
//! field values no step can run on; the last test holds `HCK2`'s restore
//! and baryon view to refusing them. Exact error variants for hand-built
//! hostile headers are asserted next to each codec (`checkpoint.rs`,
//! `distckpt.rs`, `wire.rs` unit tests) and in
//! `tests/resilience.rs::hostile_hck3_headers_never_panic`.

use hacc_comm::ParticleBatch;
use hacc_core::{
    CheckpointError, DeviceConfig, FullCheckpoint, MultiRankCheckpoint, SimConfig, Simulation,
    Species,
};
use proptest::prelude::*;

/// One format under test: a valid blob, where its fixed header ends,
/// and its parser with the payload type erased.
struct Format {
    name: &'static str,
    header_bytes: usize,
    blob: Vec<u8>,
    parse: fn(&[u8]) -> Result<(), CheckpointError>,
}

fn formats() -> [Format; 2] {
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

/// Well-formed bytes carrying a field no step can run on — `h = 0` on a
/// baryon, `mass = −1` on a dark-matter particle, either of which the
/// next step's particle upload would panic on — parse, but are refused
/// by the restore with a typed `Invalid` naming the field and the
/// index, leaving the simulation untouched, and by the baryon view of
/// the §7.2 replay.
#[test]
fn hostile_field_values_are_refused_not_stepped_on() {
    let arch = sycl_sim::GpuArch::frontier();
    let device = DeviceConfig::sycl_optimized(&arch);
    let mut sim = Simulation::new(SimConfig::smoke(), device, arch);
    let before = sim.state_digest();
    let good = FullCheckpoint::capture(&sim);
    let first = |species| good.species.iter().position(|&s| s == species).unwrap();
    let cases: [(&str, usize, fn(&mut FullCheckpoint, usize)); 2] = [
        ("h", first(Species::Baryon), |cp, i| cp.h[i] = 0.0),
        ("mass", first(Species::DarkMatter), |cp, i| {
            cp.mass[i] = -1.0
        }),
    ];
    for (field, i, corrupt) in cases {
        let mut cp = good.clone();
        corrupt(&mut cp, i);
        let cp = FullCheckpoint::from_bytes(cp.to_bytes()).expect("well-formed bytes parse");
        let err = cp.restore_into(&mut sim).unwrap_err();
        let named = format!("{field}[{i}]");
        assert!(
            matches!(&err, CheckpointError::Invalid { detail } if detail.contains(&named)),
            "{named}: {err}"
        );
        assert_eq!(sim.state_digest(), before, "{named}: a refused restore");
        let err = cp.baryons().unwrap_err();
        assert!(
            matches!(&err, CheckpointError::Invalid { detail } if detail.contains(&format!("particle {i} "))),
            "{named}: baryon view: {err}"
        );
    }
    good.restore_into(&mut sim).unwrap();
    good.baryons().unwrap();
}
