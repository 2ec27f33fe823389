//! Block-vectorized loops over fixed-width registers, behind every
//! `Lanes` operation.
//!
//! A register ([`Reg`]) is [`MAX_SG_SIZE`] lanes stored as
//! [`LANE_BLOCK`]-wide arrays, whatever the sub-group's size `n`. Every
//! loop here runs the first `ceil(n / LANE_BLOCK)` blocks of its
//! operands: the trip count of the inner loop is a constant and the
//! operands are fixed-size arrays, so the body compiles to f32x8/u32x8
//! machine SIMD with no bounds, remainder or alias checks.
//!
//! **Padding lanes.** Lanes `n..` of a register hold whatever the
//! previous user of the pooled storage left there. The pure
//! [`map`]/[`zip`]/[`zip3`] loops compute on them when `n` is not a
//! multiple of the block width (sub-groups of 2 and 4, which only tests
//! use): the closures are pure and cannot panic on any input, and no
//! reader sees lanes past `n`. [`fill`] runs closures that load, gather
//! or index with side effects, so it touches exactly lanes `0..n`.
//!
//! On x86-64 each helper dispatches once per call to an
//! AVX2-compiled clone of the same loop (`#[target_feature]` +
//! cached `is_x86_feature_detected!`): the baseline x86-64 target only
//! guarantees SSE2, which caps auto-vectorization at four lanes and
//! forces `f32::round` through a libm call per lane, while the AVX2
//! clone runs full eight-lane batches with inline rounding. The clone
//! executes the *same* IEEE operations, so results are unchanged.
//!
//! Correctness contract: lane `l < n` of the output is `f` applied to
//! lane `l` of the inputs, exactly like a scalar `iter().map(f)` loop —
//! the tests below compare against that loop, and the dispatched clone
//! against the portable body.

use crate::lanes::MAX_SG_SIZE;

/// Elements per SIMD batch: eight 32-bit lanes (one AVX2 register).
pub(crate) const LANE_BLOCK: usize = 8;

/// Blocks per register.
const BLOCKS: usize = MAX_SG_SIZE / LANE_BLOCK;

/// One register's storage: [`MAX_SG_SIZE`] lanes in eight-lane blocks.
pub(crate) type Reg<T> = [[T; LANE_BLOCK]; BLOCKS];

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
    (n: usize, src: &Reg<T>, dst: &mut Reg<U>), f: Fn(T) -> U);
avx2_dispatch!(zip, zip_avx2, zip_body, <T, U, V>,
    (n: usize, a: &Reg<T>, b: &Reg<U>, dst: &mut Reg<V>), f: Fn(T, U) -> V);
avx2_dispatch!(zip3, zip3_avx2, zip3_body, <T, U, V, W>,
    (n: usize, a: &Reg<T>, b: &Reg<U>, c: &Reg<V>, dst: &mut Reg<W>), f: Fn(T, U, V) -> W);
avx2_dispatch!(fill, fill_avx2, fill_body, <T>,
    (n: usize, dst: &mut Reg<T>), f: Fn(usize) -> T);

/// `dst[i] = f(src[i])` over the blocks that hold lanes `0..n`.
#[inline(always)]
fn map_body<T: Copy, U: Copy>(n: usize, src: &Reg<T>, dst: &mut Reg<U>, f: impl Fn(T) -> U) {
    for (s, d) in src.iter().zip(dst.iter_mut()).take(n.div_ceil(LANE_BLOCK)) {
        for i in 0..LANE_BLOCK {
            d[i] = f(s[i]);
        }
    }
}

/// `dst[i] = f(a[i], b[i])` over the blocks that hold lanes `0..n`.
#[inline(always)]
fn zip_body<T: Copy, U: Copy, V: Copy>(
    n: usize,
    a: &Reg<T>,
    b: &Reg<U>,
    dst: &mut Reg<V>,
    f: impl Fn(T, U) -> V,
) {
    let blocks = a.iter().zip(b).zip(dst.iter_mut());
    for ((a, b), d) in blocks.take(n.div_ceil(LANE_BLOCK)) {
        for i in 0..LANE_BLOCK {
            d[i] = f(a[i], b[i]);
        }
    }
}

/// `dst[i] = f(a[i], b[i], c[i])` over the blocks that hold lanes `0..n`.
#[inline(always)]
fn zip3_body<T: Copy, U: Copy, V: Copy, W: Copy>(
    n: usize,
    a: &Reg<T>,
    b: &Reg<U>,
    c: &Reg<V>,
    dst: &mut Reg<W>,
    f: impl Fn(T, U, V) -> W,
) {
    let blocks = a.iter().zip(b).zip(c).zip(dst.iter_mut());
    for (((a, b), c), d) in blocks.take(n.div_ceil(LANE_BLOCK)) {
        for i in 0..LANE_BLOCK {
            d[i] = f(a[i], b[i], c[i]);
        }
    }
}

/// `dst[l] = f(l)` for exactly `l < n`, in ascending lane order —
/// splats, lane ids, gathers and global loads all reduce to an
/// index-driven fill.
#[inline(always)]
fn fill_body<T: Copy>(n: usize, dst: &mut Reg<T>, f: impl Fn(usize) -> T) {
    let full = n / LANE_BLOCK;
    for (b, d) in dst.iter_mut().enumerate().take(full) {
        for i in 0..LANE_BLOCK {
            d[i] = f(b * LANE_BLOCK + i);
        }
    }
    if let Some(d) = dst.get_mut(full) {
        for (i, d) in d.iter_mut().enumerate().take(n % LANE_BLOCK) {
            *d = f(full * LANE_BLOCK + i);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every sub-group size the device accepts.
    const LENS: [usize; 6] = [2, 4, 8, 16, 32, 64];

    fn reg<T: Copy>(f: impl Fn(usize) -> T) -> Reg<T> {
        std::array::from_fn(|b| std::array::from_fn(|i| f(b * LANE_BLOCK + i)))
    }

    fn lanes<T: Copy>(r: &Reg<T>, n: usize) -> &[T] {
        &r.as_flattened()[..n]
    }

    #[test]
    fn map_matches_scalar_reference() {
        for n in LENS {
            let src = reg(|i| i as f32 * 1.25 - 3.0);
            let mut dst = reg(|_| f32::NAN);
            map(n, &src, &mut dst, |v| v * v + 1.0);
            let want: Vec<f32> = lanes(&src, n).iter().map(|&v| v * v + 1.0).collect();
            assert_eq!(lanes(&dst, n), want, "len {n}");
        }
    }

    #[test]
    fn zip_and_zip3_match_scalar_reference() {
        for n in LENS {
            let a = reg(|i| i as f32);
            let b = reg(|i| (i * i) as f32 * 0.5);
            let c = reg(|i| 1.0 - i as f32);
            let mut d2 = reg(|_| f32::NAN);
            zip(n, &a, &b, &mut d2, |x, y| x - y);
            let mut d3 = reg(|_| f32::NAN);
            zip3(n, &a, &b, &c, &mut d3, |x, y, z| x * y + z);
            let (a, b, c) = (a.as_flattened(), b.as_flattened(), c.as_flattened());
            for i in 0..n {
                assert_eq!(lanes(&d2, n)[i], a[i] - b[i], "len {n}");
                assert_eq!(lanes(&d3, n)[i], a[i] * b[i] + c[i], "len {n}");
            }
        }
    }

    /// A fill calls its closure for exactly the lanes `0..n`, once each,
    /// in ascending order, and leaves every padding lane as it was.
    #[test]
    fn fill_visits_exactly_the_live_lanes_in_order() {
        for n in LENS {
            let mut dst = reg(|_| u32::MAX);
            let visited = std::cell::RefCell::new(Vec::new());
            fill(n, &mut dst, |l| {
                visited.borrow_mut().push(l);
                (l * 3 + 1) as u32
            });
            assert_eq!(*visited.borrow(), (0..n).collect::<Vec<_>>(), "len {n}");
            let flat = dst.as_flattened();
            assert!(
                flat[..n]
                    .iter()
                    .enumerate()
                    .all(|(i, &v)| v == (i * 3 + 1) as u32),
                "len {n}"
            );
            assert!(flat[n..].iter().all(|&v| v == u32::MAX), "len {n}");
        }
    }

    #[test]
    fn mixed_types_work() {
        let src = reg(|i| i as u32);
        let mut dst = reg(|_| true);
        map(16, &src, &mut dst, |v| v % 2 == 0);
        assert!(lanes(&dst, 16)
            .iter()
            .enumerate()
            .all(|(i, &b)| b == (i % 2 == 0)));
    }

    /// The AVX2 clone must agree with the portable loop bit-for-bit on
    /// the operations whose scalar lowering differs most (libm round vs
    /// inline rounding), including halfway and near-halfway cases.
    #[test]
    fn dispatch_matches_portable_body_exactly() {
        let tricky: [f32; 16] = [
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
        let src = reg(|i| tricky[i % tricky.len()]);
        let mut dispatched = reg(|_| 0.0f32);
        map(MAX_SG_SIZE, &src, &mut dispatched, f32::round);
        let mut portable = reg(|_| 0.0f32);
        map_body(MAX_SG_SIZE, &src, &mut portable, f32::round);
        let src = src.as_flattened();
        for (i, (&d, &p)) in dispatched
            .as_flattened()
            .iter()
            .zip(portable.as_flattened())
            .enumerate()
        {
            assert_eq!(d.to_bits(), p.to_bits(), "round diverged at {}", src[i]);
            assert_eq!(d.to_bits(), src[i].round().to_bits());
        }
    }
}
