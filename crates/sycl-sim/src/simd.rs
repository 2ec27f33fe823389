//! Block-vectorized slice loops behind every `Lanes` operation.
//!
//! A sub-group's lanes run as fixed-width chunks instead of being
//! interpreted one lane at a time: every loop here walks its slices
//! in [`LANE_BLOCK`]-element arrays (`chunks_exact` + `try_into`, the
//! stable-Rust idiom for `std::simd`-style batches). The known trip
//! count lets the compiler drop bounds checks and auto-vectorize the
//! body to f32x8/u32x8 machine SIMD; the remainder loop only runs for
//! sub-group sizes below the block width (2 and 4).
//!
//! On x86-64 each helper dispatches once per call to an
//! AVX2-compiled clone of the same loop (`#[target_feature]` +
//! cached `is_x86_feature_detected!`): the baseline x86-64 target only
//! guarantees SSE2, which caps auto-vectorization at four lanes and
//! forces `f32::round` through a libm call per lane, while the AVX2
//! clone runs full eight-lane batches with inline rounding. The clone
//! executes the *same* IEEE operations, so results are unchanged.
//!
//! Correctness contract: each helper applies `f` to the elements in
//! ascending lane order, exactly like a scalar `iter().map(f)` loop —
//! the tests below compare against that loop, and the dispatched clone
//! against the portable body.

/// Elements per SIMD batch: eight 32-bit lanes (one AVX2 register).
pub(crate) const LANE_BLOCK: usize = 8;

/// Host AVX2 capability (std caches the CPUID probe behind an atomic).
#[cfg(target_arch = "x86_64")]
#[inline]
fn have_avx2() -> bool {
    std::arch::is_x86_feature_detected!("avx2")
}

/// Wraps a portable loop body in a runtime-dispatched AVX2 clone: the
/// generic body is instantiated twice, once at baseline features and
/// once inside a `#[target_feature(enable = "avx2")]` shell the closure
/// inlines into, so the same Rust code vectorizes eight lanes wide.
macro_rules! avx2_dispatch {
    ($entry:ident, $avx2:ident, $body:ident,
     <$($gen:ident),*>, ($($arg:ident: $ty:ty),*), $f:ident: $fty:path) => {
        #[inline]
        pub(crate) fn $entry<$($gen: Copy,)* F: $fty>($($arg: $ty,)* $f: F) {
            #[cfg(target_arch = "x86_64")]
            if have_avx2() {
                // SAFETY: guarded by the runtime AVX2 check above.
                unsafe { $avx2($($arg,)* $f) };
                return;
            }
            $body($($arg,)* $f);
        }

        #[cfg(target_arch = "x86_64")]
        #[target_feature(enable = "avx2")]
        fn $avx2<$($gen: Copy,)* F: $fty>($($arg: $ty,)* $f: F) {
            $body($($arg,)* $f);
        }
    };
}

avx2_dispatch!(map, map_avx2, map_body, <T, U>,
    (src: &[T], dst: &mut [U]), f: Fn(T) -> U);
avx2_dispatch!(zip, zip_avx2, zip_body, <T, U, V>,
    (a: &[T], b: &[U], dst: &mut [V]), f: Fn(T, U) -> V);
avx2_dispatch!(zip3, zip3_avx2, zip3_body, <T, U, V, W>,
    (a: &[T], b: &[U], c: &[V], dst: &mut [W]), f: Fn(T, U, V) -> W);
avx2_dispatch!(fill, fill_avx2, fill_body, <T>,
    (dst: &mut [T]), f: Fn(usize) -> T);

/// `dst[i] = f(src[i])` in blocked lane order.
#[inline(always)]
fn map_body<T: Copy, U: Copy>(src: &[T], dst: &mut [U], f: impl Fn(T) -> U) {
    debug_assert_eq!(src.len(), dst.len());
    let mut s = src.chunks_exact(LANE_BLOCK);
    let mut d = dst.chunks_exact_mut(LANE_BLOCK);
    for (sc, dc) in (&mut s).zip(&mut d) {
        let sc: &[T; LANE_BLOCK] = sc.try_into().expect("exact chunk");
        let dc: &mut [U; LANE_BLOCK] = dc.try_into().expect("exact chunk");
        for i in 0..LANE_BLOCK {
            dc[i] = f(sc[i]);
        }
    }
    for (sv, dv) in s.remainder().iter().zip(d.into_remainder()) {
        *dv = f(*sv);
    }
}

/// `dst[i] = f(a[i], b[i])` in blocked lane order.
#[inline(always)]
fn zip_body<T: Copy, U: Copy, V: Copy>(a: &[T], b: &[U], dst: &mut [V], f: impl Fn(T, U) -> V) {
    debug_assert_eq!(a.len(), b.len());
    debug_assert_eq!(a.len(), dst.len());
    let mut ac = a.chunks_exact(LANE_BLOCK);
    let mut bc = b.chunks_exact(LANE_BLOCK);
    let mut dc = dst.chunks_exact_mut(LANE_BLOCK);
    for ((av, bv), dv) in (&mut ac).zip(&mut bc).zip(&mut dc) {
        let av: &[T; LANE_BLOCK] = av.try_into().expect("exact chunk");
        let bv: &[U; LANE_BLOCK] = bv.try_into().expect("exact chunk");
        let dv: &mut [V; LANE_BLOCK] = dv.try_into().expect("exact chunk");
        for i in 0..LANE_BLOCK {
            dv[i] = f(av[i], bv[i]);
        }
    }
    for ((av, bv), dv) in ac
        .remainder()
        .iter()
        .zip(bc.remainder())
        .zip(dc.into_remainder())
    {
        *dv = f(*av, *bv);
    }
}

/// `dst[i] = f(a[i], b[i], c[i])` in blocked lane order.
#[inline(always)]
fn zip3_body<T: Copy, U: Copy, V: Copy, W: Copy>(
    a: &[T],
    b: &[U],
    c: &[V],
    dst: &mut [W],
    f: impl Fn(T, U, V) -> W,
) {
    debug_assert_eq!(a.len(), b.len());
    debug_assert_eq!(a.len(), c.len());
    debug_assert_eq!(a.len(), dst.len());
    let mut ac = a.chunks_exact(LANE_BLOCK);
    let mut bc = b.chunks_exact(LANE_BLOCK);
    let mut cc = c.chunks_exact(LANE_BLOCK);
    let mut dc = dst.chunks_exact_mut(LANE_BLOCK);
    for (((av, bv), cv), dv) in (&mut ac).zip(&mut bc).zip(&mut cc).zip(&mut dc) {
        let av: &[T; LANE_BLOCK] = av.try_into().expect("exact chunk");
        let bv: &[U; LANE_BLOCK] = bv.try_into().expect("exact chunk");
        let cv: &[V; LANE_BLOCK] = cv.try_into().expect("exact chunk");
        let dv: &mut [W; LANE_BLOCK] = dv.try_into().expect("exact chunk");
        for i in 0..LANE_BLOCK {
            dv[i] = f(av[i], bv[i], cv[i]);
        }
    }
    for (((av, bv), cv), dv) in ac
        .remainder()
        .iter()
        .zip(bc.remainder())
        .zip(cc.remainder())
        .zip(dc.into_remainder())
    {
        *dv = f(*av, *bv, *cv);
    }
}

/// `dst[l] = f(l)` in blocked lane order — splats, lane ids, gathers and
/// global loads all reduce to an index-driven fill.
#[inline(always)]
fn fill_body<T: Copy>(dst: &mut [T], f: impl Fn(usize) -> T) {
    let mut base = 0usize;
    let mut dc = dst.chunks_exact_mut(LANE_BLOCK);
    for dv in &mut dc {
        let dv: &mut [T; LANE_BLOCK] = dv.try_into().expect("exact chunk");
        for i in 0..LANE_BLOCK {
            dv[i] = f(base + i);
        }
        base += LANE_BLOCK;
    }
    for (i, dv) in dc.into_remainder().iter_mut().enumerate() {
        *dv = f(base + i);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // Sub-group sizes are powers of two, but the helpers are checked at
    // odd lengths too so remainder handling is covered independently.
    const LENS: [usize; 6] = [2, 4, 8, 16, 64, 19];

    #[test]
    fn map_matches_scalar_reference() {
        for n in LENS {
            let src: Vec<f32> = (0..n).map(|i| i as f32 * 1.25 - 3.0).collect();
            let mut dst = vec![0.0f32; n];
            map(&src, &mut dst, |v| v * v + 1.0);
            let want: Vec<f32> = src.iter().map(|&v| v * v + 1.0).collect();
            assert_eq!(dst, want, "len {n}");
        }
    }

    #[test]
    fn zip_and_zip3_match_scalar_reference() {
        for n in LENS {
            let a: Vec<f32> = (0..n).map(|i| i as f32).collect();
            let b: Vec<f32> = (0..n).map(|i| (i * i) as f32 * 0.5).collect();
            let c: Vec<f32> = (0..n).map(|i| 1.0 - i as f32).collect();
            let mut d2 = vec![0.0f32; n];
            zip(&a, &b, &mut d2, |x, y| x - y);
            assert!(
                d2.iter().enumerate().all(|(i, &v)| v == a[i] - b[i]),
                "len {n}"
            );
            let mut d3 = vec![0.0f32; n];
            zip3(&a, &b, &c, &mut d3, |x, y, z| x * y + z);
            assert!(
                d3.iter().enumerate().all(|(i, &v)| v == a[i] * b[i] + c[i]),
                "len {n}"
            );
        }
    }

    #[test]
    fn fill_visits_every_index_once() {
        for n in LENS {
            let mut dst = vec![0u32; n];
            fill(&mut dst, |l| (l * 3 + 1) as u32);
            assert!(
                dst.iter()
                    .enumerate()
                    .all(|(i, &v)| v == (i * 3 + 1) as u32),
                "len {n}"
            );
        }
    }

    #[test]
    fn mixed_types_work() {
        let src: Vec<u32> = (0..16).collect();
        let mut dst = vec![false; 16];
        map(&src, &mut dst, |v| v % 2 == 0);
        assert!(dst.iter().enumerate().all(|(i, &b)| b == (i % 2 == 0)));
    }

    /// The AVX2 clone must agree with the portable loop bit-for-bit on
    /// the operations whose scalar lowering differs most (libm round vs
    /// inline rounding), including halfway and near-halfway cases.
    #[test]
    fn dispatch_matches_portable_body_exactly() {
        let tricky: Vec<f32> = vec![
            0.5,
            -0.5,
            1.5,
            2.5,
            -2.5,
            0.499_999_97,
            -0.499_999_97,
            8_388_607.5,
            f32::MIN_POSITIVE,
            0.0,
            -0.0,
            1.0e30,
            -1.0e30,
            std::f32::consts::PI,
            -1.25,
            7.75,
        ];
        let mut dispatched = vec![0.0f32; tricky.len()];
        map(&tricky, &mut dispatched, f32::round);
        let mut portable = vec![0.0f32; tricky.len()];
        map_body(&tricky, &mut portable, f32::round);
        for (i, (&d, &p)) in dispatched.iter().zip(&portable).enumerate() {
            assert_eq!(d.to_bits(), p.to_bits(), "round diverged at {}", tricky[i]);
            assert_eq!(d.to_bits(), tricky[i].round().to_bits());
        }
    }
}
