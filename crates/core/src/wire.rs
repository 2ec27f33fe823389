//! The one bounded wire cursor behind `HCK2` and `HCK3`.
//!
//! Every checkpoint format is big-endian words behind a 4-byte magic: a
//! fixed header, then runs of fixed-stride records whose count a header
//! claims. [`Writer`] appends those words to a `Vec<u8>`; [`Reader`]
//! takes them back off a `&[u8]` under one contract: **no read can
//! panic, and a claimed count is validated before the caller may
//! allocate for it.** Every read is bounds-checked and fails with
//! [`CheckpointError::Truncated`] naming the region the reader was in;
//! [`Reader::records`] is the single place a count meets the cap, the
//! checked `n × stride`, and the test that those bytes are present.

use crate::checkpoint::CheckpointError;

type Result<T> = std::result::Result<T, CheckpointError>;

/// Allocation cap: headers claiming more records than this are rejected
/// before any buffer is reserved (2²⁷ ≈ 134M particles is far beyond
/// anything the simulated driver runs, yet only ~10 GiB — a hostile
/// 32-bit count can claim 4 billion).
pub(crate) const MAX_PARTICLES: usize = 1 << 27;

/// Big-endian appender over a byte vector.
pub(crate) struct Writer(Vec<u8>);

impl Writer {
    /// A blob that starts with `magic` and will be `capacity` bytes.
    pub(crate) fn new(magic: u32, capacity: usize) -> Self {
        let mut w = Self(Vec::with_capacity(capacity));
        w.u32(magic);
        w
    }

    pub(crate) fn u8(&mut self, v: u8) {
        self.0.push(v);
    }

    pub(crate) fn u32(&mut self, v: u32) {
        self.0.extend_from_slice(&v.to_be_bytes());
    }

    pub(crate) fn u64(&mut self, v: u64) {
        self.0.extend_from_slice(&v.to_be_bytes());
    }

    /// The exact IEEE-754 bits: the round trip is lossless.
    pub(crate) fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    pub(crate) fn vec3(&mut self, v: [f64; 3]) {
        for c in v {
            self.f64(c);
        }
    }

    pub(crate) fn finish(self) -> Vec<u8> {
        self.0
    }
}

/// Bounded big-endian cursor over untrusted bytes.
pub(crate) struct Reader<'a> {
    rest: &'a [u8],
    /// Named by [`CheckpointError::Truncated`] when a read runs out.
    region: &'static str,
}

impl<'a> Reader<'a> {
    /// Opens a blob whose fixed header (magic included) is
    /// `header_bytes` long: too short is `Truncated { "header" }`, a
    /// wrong leading word `BadMagic`. The reader is left just past the
    /// magic, in the `"header"` region.
    pub(crate) fn open(buf: &'a [u8], expected: u32, header_bytes: usize) -> Result<Self> {
        let region = "header";
        let mut r = Self { rest: buf, region };
        if buf.len() < header_bytes {
            return Err(r.truncated());
        }
        match r.u32()? {
            found if found == expected => Ok(r),
            found => Err(CheckpointError::BadMagic { found, expected }),
        }
    }

    fn truncated(&self) -> CheckpointError {
        CheckpointError::Truncated { what: self.region }
    }

    fn take<const N: usize>(&mut self) -> Result<[u8; N]> {
        let (head, rest) = self.rest.split_first_chunk().ok_or(self.truncated())?;
        self.rest = rest;
        Ok(*head)
    }

    pub(crate) fn u8(&mut self) -> Result<u8> {
        self.take().map(u8::from_be_bytes)
    }

    pub(crate) fn u32(&mut self) -> Result<u32> {
        self.take().map(u32::from_be_bytes)
    }

    pub(crate) fn u64(&mut self) -> Result<u64> {
        self.take().map(u64::from_be_bytes)
    }

    pub(crate) fn f64(&mut self) -> Result<f64> {
        self.u64().map(f64::from_bits)
    }

    pub(crate) fn vec3(&mut self) -> Result<[f64; 3]> {
        Ok([self.f64()?, self.f64()?, self.f64()?])
    }

    /// Admits a claimed run of `n` records of at least `stride` bytes
    /// each, entering `region`: `TooLarge` past [`MAX_PARTICLES`],
    /// `SizeOverflow` if `n × stride` wraps, `Truncated { region }`
    /// unless that many bytes are really there. Only then is `n` handed
    /// back, so a caller sizes its buffers from the return value alone.
    pub(crate) fn records(
        &mut self,
        n: usize,
        stride: usize,
        region: &'static str,
    ) -> Result<usize> {
        self.region = region;
        if n > MAX_PARTICLES {
            let cap = MAX_PARTICLES;
            return Err(CheckpointError::TooLarge { claimed: n, cap });
        }
        let bytes = n.checked_mul(stride).ok_or(CheckpointError::SizeOverflow)?;
        if self.rest.len() < bytes {
            return Err(self.truncated());
        }
        Ok(n)
    }
}

/// FNV-1a of a blob: what the codecs' tests pin their sample bytes with.
#[cfg(test)]
pub(crate) fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    const MAGIC: u32 = 0x4843_4B30;

    fn blob() -> Vec<u8> {
        let mut w = Writer::new(MAGIC, 4 + 1 + 4 + 8 + 8 + 24);
        w.u8(7);
        w.u32(0xDEAD_BEEF);
        w.u64(u64::MAX - 1);
        w.f64(-0.0);
        w.vec3([1.5, f64::MIN_POSITIVE / 4.0, std::f64::consts::PI]);
        w.finish()
    }

    #[test]
    fn words_round_trip_big_endian_and_bit_exact() {
        let blob = blob();
        assert_eq!(blob.len(), blob.capacity(), "capacity was counted right");
        assert_eq!(
            blob[..4],
            [0x48, 0x43, 0x4B, 0x30],
            "magic leads, big-endian"
        );
        let mut r = Reader::open(&blob, MAGIC, blob.len()).unwrap();
        assert_eq!(r.u8().unwrap(), 7);
        assert_eq!(r.u32().unwrap(), 0xDEAD_BEEF);
        assert_eq!(r.u64().unwrap(), u64::MAX - 1);
        assert_eq!(r.f64().unwrap().to_bits(), (-0.0f64).to_bits());
        let v = r.vec3().unwrap();
        assert_eq!(v[1].to_bits(), (f64::MIN_POSITIVE / 4.0).to_bits());
        assert_eq!(v[2], std::f64::consts::PI);
        assert_eq!(r.u8(), Err(CheckpointError::Truncated { what: "header" }));
    }

    #[test]
    fn open_checks_length_then_magic() {
        let blob = blob();
        assert_eq!(
            Reader::open(&blob[..3], MAGIC, 4).err(),
            Some(CheckpointError::Truncated { what: "header" })
        );
        // Long enough for a magic, too short for the declared header.
        assert_eq!(
            Reader::open(&blob[..8], MAGIC + 1, 9).err(),
            Some(CheckpointError::Truncated { what: "header" })
        );
        assert_eq!(
            Reader::open(&blob, MAGIC + 1, 4).err(),
            Some(CheckpointError::BadMagic {
                found: MAGIC,
                expected: MAGIC + 1
            })
        );
    }

    /// Each typed read, one byte short of its width, errors with the
    /// region the reader is in — and consumes nothing.
    #[test]
    fn every_read_past_the_end_is_truncated_in_the_current_region() {
        let bytes = [0u8; 24];
        let truncated = |what| Some(CheckpointError::Truncated { what });
        let reader = |len: usize, region| Reader {
            rest: &bytes[..len],
            region,
        };
        assert_eq!(reader(0, "a").u8().err(), truncated("a"));
        assert_eq!(reader(3, "b").u32().err(), truncated("b"));
        assert_eq!(reader(7, "c").u64().err(), truncated("c"));
        assert_eq!(reader(7, "d").f64().err(), truncated("d"));
        assert_eq!(reader(23, "e").vec3().err(), truncated("e"));
        let mut r = reader(7, "f");
        assert!(r.u64().is_err());
        assert_eq!(r.u32().unwrap(), 0, "a failed read consumed nothing");
        // `records` names its own region, and reads after it inherit it.
        let mut r = reader(8, "g");
        assert_eq!(r.records(2, 8, "payload").err(), truncated("payload"));
        assert_eq!(r.records(1, 8, "payload"), Ok(1));
        assert!(r.u64().is_ok());
        assert_eq!(r.u8().err(), truncated("payload"));
    }

    #[test]
    fn records_caps_before_it_measures() {
        let mut r = Reader {
            rest: &[],
            region: "header",
        };
        // Nothing is present, yet the cap is what fails: `TooLarge`
        // outranks `Truncated`.
        assert_eq!(
            r.records(MAX_PARTICLES + 1, 8, "payload"),
            Err(CheckpointError::TooLarge {
                claimed: MAX_PARTICLES + 1,
                cap: MAX_PARTICLES
            })
        );
        assert_eq!(
            r.records(MAX_PARTICLES, usize::MAX, "payload"),
            Err(CheckpointError::SizeOverflow)
        );
        assert_eq!(
            r.records(MAX_PARTICLES, 8, "payload"),
            Err(CheckpointError::Truncated { what: "payload" })
        );
        assert_eq!(r.records(0, 8, "payload"), Ok(0));
    }
}
