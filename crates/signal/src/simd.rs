//! Runtime-dispatched SIMD row kernels for the panel hot paths.
//!
//! The batched deconvolution engine spends almost all of its time in a
//! handful of unit-stride row sweeps: the FWHT row-pair butterfly
//! ([`crate::fwht::fwht_panel`]), the radix-2 FFT butterfly and the
//! Bluestein chirp/spectrum multiplies ([`crate::fft::FftPlan`]), and the
//! circulant spectral-weight multiply (`ims_prs::CirculantSolver`). Each of
//! those sweeps is written twice: once as a portable scalar loop, the
//! reference, and once as a generic body over a private lane trait with one
//! implementation per instruction set — SSE2, AVX2 and AVX-512F
//! (`std::arch`, zero external dependencies). One backend is selected per
//! process.
//!
//! # Dispatch rules
//!
//! The backend is chosen once, on first use, by [`active`]:
//!
//! 1. If the `HTIMS_SIMD` environment variable is set to `scalar`, `sse2`,
//!    `avx2` or `avx512`, that backend is used (falling back to detection
//!    with a one-time warning if the requested features are missing).
//! 2. Otherwise the widest available instruction set wins, probed via
//!    `is_x86_feature_detected!` (AVX-512F, then AVX2, then SSE2, then
//!    scalar).
//!
//! Every kernel also has an explicit-backend form (the `be: Backend` first
//! argument) so tests can pin each implementation against the scalar
//! reference without touching process environment. The backend passed must
//! be one the running CPU has ([`available_backends`]).
//!
//! # One body per kernel
//!
//! `Lanes` is one instruction set's vector of `N` f64 (or i64) lanes. Each
//! of its operations is one intrinsic, or two or three where the instruction
//! set lacks the instruction: f64 `load`, `store`, `splat`, `add`, `sub` and
//! `mul`; the complex helpers `addsub` and `swap`; the `widen`/`narrow`
//! shuffles; and i64 `load_i`, `store_i`, `add_i` and `sub_i`. Intrinsics
//! appear nowhere else.
//!
//! A kernel's generic body cuts its rows to their common length (what the
//! scalar loop's `zip` walks), steps through them in `chunks_exact` chunks of
//! one vector, loading and storing the chunk slices, and hands the remainder
//! to the kernel's scalar loop. `kernel!` declares the public function:
//! `Backend::Scalar` runs the scalar loop, and each vector backend runs the
//! generic body through an entry point compiled with `#[target_feature]` for
//! its instruction set. Every lane op and body is `#[inline(always)]`, so
//! each intrinsic inlines into that entry point; a lost inline shows as a
//! `call` into `core::core_arch` in the release binary, which CI rejects.
//!
//! * To add a kernel: write its scalar loop and its generic body, declare it
//!   with one `kernel!` line, and add one line to each per-backend identity
//!   test (the unit test below and `tests/properties.rs`).
//! * To add a backend: write one `Lanes` implementation, add a [`Backend`]
//!   variant (name, detection) and its entry point in `kernel!`.
//!
//! # Bit-exactness contract
//!
//! Each backend produces **bit-identical** results to the scalar reference
//! loops. The lane ops preserve IEEE-754 semantics operation for operation:
//!
//! * `add`/`sub`/`mul` map 1:1 onto vector lanes — no FMA contraction
//!   anywhere (FMA changes rounding);
//! * the complex product is `cmul(v, c) = addsub(v·c.re, swap(v)·c.im)`,
//!   which computes `re = v.re·c.re − v.im·c.im` exactly as the scalar `Mul`
//!   impl does, and `im` as the *same two products* added in swapped order —
//!   IEEE addition is commutative, so the bits agree;
//! * SSE2 (no `addsub` before SSE3) and AVX-512F (no `addsub` at all) negate
//!   the real lanes of the subtrahend with a sign-bit XOR and add:
//!   `x + (−y)` is defined by IEEE-754 to equal `x − y` for every non-NaN
//!   input (the XOR can flip a NaN's sign bit, as the hand kernels did);
//! * `widen`/`narrow` and the loads and stores only move bits.
// Off x86-64 there is no `Lanes` implementation, so the generic bodies go
// unused and every kernel runs its scalar loop.
#![cfg_attr(not(target_arch = "x86_64"), allow(dead_code))]

use crate::fft::Complex;
use std::sync::OnceLock;

/// One SIMD instruction-set level the kernels can run at.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Backend {
    /// Portable scalar reference loops.
    Scalar,
    /// 128-bit SSE2 (baseline x86-64).
    Sse2,
    /// 256-bit AVX2.
    Avx2,
    /// 512-bit AVX-512F.
    Avx512,
}

impl Backend {
    /// Stable lower-case name (`scalar`/`sse2`/`avx2`/`avx512`) as used by
    /// the `HTIMS_SIMD` override and recorded in provenance.
    pub fn name(self) -> &'static str {
        match self {
            Backend::Scalar => "scalar",
            Backend::Sse2 => "sse2",
            Backend::Avx2 => "avx2",
            Backend::Avx512 => "avx512",
        }
    }

    /// Parses a backend name as accepted by `HTIMS_SIMD`.
    pub fn parse(s: &str) -> Option<Backend> {
        match s.trim().to_ascii_lowercase().as_str() {
            "scalar" => Some(Backend::Scalar),
            "sse2" => Some(Backend::Sse2),
            "avx2" => Some(Backend::Avx2),
            "avx512" | "avx512f" => Some(Backend::Avx512),
            _ => None,
        }
    }

    /// Whether this backend's instruction set exists on the running CPU.
    pub fn is_available(self) -> bool {
        match self {
            Backend::Scalar => true,
            #[cfg(target_arch = "x86_64")]
            Backend::Sse2 => is_x86_feature_detected!("sse2"),
            #[cfg(target_arch = "x86_64")]
            Backend::Avx2 => is_x86_feature_detected!("avx2"),
            #[cfg(target_arch = "x86_64")]
            Backend::Avx512 => is_x86_feature_detected!("avx512f"),
            #[cfg(not(target_arch = "x86_64"))]
            _ => false,
        }
    }
}

/// The widest backend available on this CPU (ignores `HTIMS_SIMD`).
pub fn detect() -> Backend {
    if Backend::Avx512.is_available() {
        Backend::Avx512
    } else if Backend::Avx2.is_available() {
        Backend::Avx2
    } else if Backend::Sse2.is_available() {
        Backend::Sse2
    } else {
        Backend::Scalar
    }
}

/// Every backend the running CPU supports, scalar first. Test harnesses
/// iterate this to pin each implementation against the scalar reference.
pub fn available_backends() -> Vec<Backend> {
    [
        Backend::Scalar,
        Backend::Sse2,
        Backend::Avx2,
        Backend::Avx512,
    ]
    .into_iter()
    .filter(|b| b.is_available())
    .collect()
}

/// The process-wide backend: `HTIMS_SIMD` override if set and available,
/// otherwise [`detect`]. Resolved once and cached.
pub fn active() -> Backend {
    static ACTIVE: OnceLock<Backend> = OnceLock::new();
    *ACTIVE.get_or_init(|| match std::env::var("HTIMS_SIMD") {
        Ok(v) => match Backend::parse(&v) {
            Some(b) if b.is_available() => b,
            Some(b) => {
                eprintln!(
                    "htims: HTIMS_SIMD={} not available on this CPU, using {}",
                    b.name(),
                    detect().name()
                );
                detect()
            }
            None => {
                eprintln!(
                    "htims: unrecognised HTIMS_SIMD value {v:?} (want scalar|sse2|avx2|avx512), using {}",
                    detect().name()
                );
                detect()
            }
        },
        Err(_) => detect(),
    })
}

/// Name of the process-wide backend (for provenance records).
pub fn active_name() -> &'static str {
    active().name()
}

// ---------------------------------------------------------------------
// The lane trait
// ---------------------------------------------------------------------

/// One instruction set's vector of `N` lanes: f64 values for the float
/// kernels (`N / 2` interleaved complex values), i64 words for the
/// fixed-point butterfly.
///
/// # Safety
///
/// Every op needs the implementing instruction set on the running CPU,
/// and a load or store needs at least `N` elements in its slice. The
/// generic bodies call the ops only from a `#[target_feature]` entry
/// point, on `chunks_exact(N)` chunks.
trait Lanes {
    /// f64 (or i64) lanes per vector.
    const N: usize;
    /// Complex values per vector.
    const C: usize = Self::N / 2;
    /// A vector of f64 lanes.
    type F: Copy;
    /// A vector of i64 lanes.
    type I: Copy;

    unsafe fn load(src: &[f64]) -> Self::F;
    unsafe fn store(dst: &mut [f64], v: Self::F);
    unsafe fn splat(x: f64) -> Self::F;
    unsafe fn add(a: Self::F, b: Self::F) -> Self::F;
    unsafe fn sub(a: Self::F, b: Self::F) -> Self::F;
    unsafe fn mul(a: Self::F, b: Self::F) -> Self::F;
    /// `a − b` in the even (real) lanes, `a + b` in the odd (imaginary) ones.
    unsafe fn addsub(a: Self::F, b: Self::F) -> Self::F;
    /// Swaps each (re, im) pair: `[re0, im0, re1, im1 …]` → `[im0, re0 …]`.
    unsafe fn swap(v: Self::F) -> Self::F;
    /// Interleaves `v` with zeros: `([v0, 0, v1, 0 …], [v(N/2), 0 …])`.
    unsafe fn widen(v: Self::F) -> (Self::F, Self::F);
    /// The even lanes of `a`, then those of `b`: `[a0, a2 …, b0, b2 …]`.
    unsafe fn narrow(a: Self::F, b: Self::F) -> Self::F;
    unsafe fn load_i(src: &[i64]) -> Self::I;
    unsafe fn store_i(dst: &mut [i64], v: Self::I);
    /// Wrapping i64 add.
    unsafe fn add_i(a: Self::I, b: Self::I) -> Self::I;
    /// Wrapping i64 subtract.
    unsafe fn sub_i(a: Self::I, b: Self::I) -> Self::I;

    /// A complex constant splatted as the `(re, im)` pair [`Lanes::cmul`]
    /// takes.
    #[inline(always)]
    unsafe fn splat_c(c: Complex) -> (Self::F, Self::F) {
        (Self::splat(c.re), Self::splat(c.im))
    }

    /// `v·c` on each interleaved complex value:
    /// `addsub(v·c.re, swap(v)·c.im)` = `[v.re·c.re − v.im·c.im,
    /// v.im·c.re + v.re·c.im]`.
    #[inline(always)]
    unsafe fn cmul(v: Self::F, (re, im): (Self::F, Self::F)) -> Self::F {
        Self::addsub(Self::mul(v, re), Self::mul(Self::swap(v), im))
    }
}

/// Declares the public kernel `$name(be, args…)`. `Backend::Scalar` runs
/// the scalar loop `$scalar`; each vector backend runs the generic body
/// `$lanes` through an entry point compiled for its instruction set.
/// `be` must be a backend the running CPU has ([`Backend::is_available`];
/// [`active`] and [`available_backends`] return only such backends).
macro_rules! kernel {
    ($(#[$doc:meta])* $name:ident($($arg:ident: $ty:ty),*) = $scalar:ident | $lanes:ident) => {
        $(#[$doc])*
        #[inline]
        pub fn $name(be: Backend, $($arg: $ty),*) {
            debug_assert!(be.is_available(), "{be:?} is not available on this CPU");
            #[cfg(target_arch = "x86_64")]
            {
                // SAFETY (each entry point): it runs only where the CPU has
                // the instruction set it is compiled for, which `$lanes`
                // requires. SSE2 is baseline on x86-64, so its entry point
                // may inline into the caller; without the hint the weighted
                // panel rows of `bench deconv` ran ~20% slower under
                // `HTIMS_SIMD=sse2` (2-vCPU AVX-512 host).
                #[inline]
                #[target_feature(enable = "sse2")]
                fn sse2($($arg: $ty),*) { unsafe { $lanes::<x86::Sse2>($($arg),*) } }
                #[target_feature(enable = "avx2")]
                fn avx2($($arg: $ty),*) { unsafe { $lanes::<x86::Avx2>($($arg),*) } }
                #[target_feature(enable = "avx512f")]
                fn avx512($($arg: $ty),*) { unsafe { $lanes::<x86::Avx512>($($arg),*) } }
                // SAFETY: callers pass a backend the CPU has (checked above
                // in debug builds), so its entry point runs on a CPU with
                // its instruction set.
                unsafe {
                    match be {
                        Backend::Sse2 => return sse2($($arg),*),
                        Backend::Avx2 => return avx2($($arg),*),
                        Backend::Avx512 => return avx512($($arg),*),
                        Backend::Scalar => {}
                    }
                }
            }
            $scalar($($arg),*)
        }
    };
}

/// Views a complex slice as its interleaved `re, im, re, im …` storage.
#[inline(always)]
fn flat(data: &[Complex]) -> &[f64] {
    // SAFETY: Complex is repr(C) { re: f64, im: f64 }, so a slice of n
    // Complex is exactly 2n contiguous, aligned f64 values.
    unsafe { std::slice::from_raw_parts(data.as_ptr().cast(), data.len() * 2) }
}

/// Mutable form of [`flat`].
#[inline(always)]
fn flat_mut(data: &mut [Complex]) -> &mut [f64] {
    // SAFETY: as in `flat`.
    unsafe { std::slice::from_raw_parts_mut(data.as_mut_ptr().cast(), data.len() * 2) }
}

// ---------------------------------------------------------------------
// Kernels: the public declaration, the scalar loop, the generic body
// ---------------------------------------------------------------------

kernel! {
    /// FWHT butterfly over a row pair: `top[i], bottom[i] ← top[i]+bottom[i],
    /// top[i]−bottom[i]`.
    butterfly_f64(top: &mut [f64], bottom: &mut [f64]) = butterfly_f64_scalar | butterfly_f64_lanes
}

fn butterfly_f64_scalar(top: &mut [f64], bottom: &mut [f64]) {
    for (a, b) in top.iter_mut().zip(bottom.iter_mut()) {
        let (x, y) = (*a, *b);
        *a = x + y;
        *b = x - y;
    }
}

/// # Safety
///
/// The running CPU supports `L`'s instruction set.
#[inline(always)]
unsafe fn butterfly_f64_lanes<L: Lanes>(top: &mut [f64], bottom: &mut [f64]) {
    debug_assert_eq!(top.len(), bottom.len());
    let n = top.len().min(bottom.len());
    let (top, bottom) = (&mut top[..n], &mut bottom[..n]);
    let done = n / L::N * L::N;
    for (t, b) in top
        .chunks_exact_mut(L::N)
        .zip(bottom.chunks_exact_mut(L::N))
    {
        let (x, y) = (L::load(t), L::load(b));
        L::store(t, L::add(x, y));
        L::store(b, L::sub(x, y));
    }
    butterfly_f64_scalar(&mut top[done..], &mut bottom[done..]);
}

kernel! {
    /// Integer FWHT butterfly over a row pair (the fixed-point FPGA datapath).
    butterfly_i64(top: &mut [i64], bottom: &mut [i64]) = butterfly_i64_scalar | butterfly_i64_lanes
}

fn butterfly_i64_scalar(top: &mut [i64], bottom: &mut [i64]) {
    for (a, b) in top.iter_mut().zip(bottom.iter_mut()) {
        let (x, y) = (*a, *b);
        *a = x.wrapping_add(y);
        *b = x.wrapping_sub(y);
    }
}

/// # Safety
///
/// The running CPU supports `L`'s instruction set.
#[inline(always)]
unsafe fn butterfly_i64_lanes<L: Lanes>(top: &mut [i64], bottom: &mut [i64]) {
    debug_assert_eq!(top.len(), bottom.len());
    let n = top.len().min(bottom.len());
    let (top, bottom) = (&mut top[..n], &mut bottom[..n]);
    let done = n / L::N * L::N;
    for (t, b) in top
        .chunks_exact_mut(L::N)
        .zip(bottom.chunks_exact_mut(L::N))
    {
        let (x, y) = (L::load_i(t), L::load_i(b));
        L::store_i(t, L::add_i(x, y));
        L::store_i(b, L::sub_i(x, y));
    }
    butterfly_i64_scalar(&mut top[done..], &mut bottom[done..]);
}

kernel! {
    /// Radix-2 FFT butterfly over a row pair with one broadcast twiddle:
    /// `u = top[i]; v = bottom[i]·w; top[i] = u+v; bottom[i] = u−v`.
    butterfly_complex(top: &mut [Complex], bottom: &mut [Complex], w: Complex)
        = butterfly_complex_scalar | butterfly_complex_lanes
}

fn butterfly_complex_scalar(top: &mut [Complex], bottom: &mut [Complex], w: Complex) {
    for (a, b) in top.iter_mut().zip(bottom.iter_mut()) {
        let u = *a;
        let v = *b * w;
        *a = u + v;
        *b = u - v;
    }
}

/// # Safety
///
/// The running CPU supports `L`'s instruction set.
#[inline(always)]
unsafe fn butterfly_complex_lanes<L: Lanes>(
    top: &mut [Complex],
    bottom: &mut [Complex],
    w: Complex,
) {
    debug_assert_eq!(top.len(), bottom.len());
    let n = top.len().min(bottom.len());
    let (top, bottom) = (&mut top[..n], &mut bottom[..n]);
    let wv = L::splat_c(w);
    let done = n / L::C * L::C;
    for (t, b) in top
        .chunks_exact_mut(L::C)
        .zip(bottom.chunks_exact_mut(L::C))
    {
        let (t, b) = (flat_mut(t), flat_mut(b));
        let u = L::load(t);
        let v = L::cmul(L::load(b), wv);
        L::store(t, L::add(u, v));
        L::store(b, L::sub(u, v));
    }
    butterfly_complex_scalar(&mut top[done..], &mut bottom[done..], w);
}

kernel! {
    /// Radix-2 FFT butterfly with a fused real scale: `u = top[i];
    /// v = bottom[i]·w; top[i] = (u+v)·s; bottom[i] = (u−v)·s`. Per element this
    /// is the butterfly followed by the scale in the same order as running
    /// [`butterfly_complex`] and then [`scale_complex`], so fusing the inverse
    /// FFT's `1/M` normalisation into its final level is bit-exact.
    butterfly_complex_scale(top: &mut [Complex], bottom: &mut [Complex], w: Complex, s: f64)
        = butterfly_complex_scale_scalar | butterfly_complex_scale_lanes
}

fn butterfly_complex_scale_scalar(top: &mut [Complex], bottom: &mut [Complex], w: Complex, s: f64) {
    for (a, b) in top.iter_mut().zip(bottom.iter_mut()) {
        let u = *a;
        let v = *b * w;
        *a = (u + v).scale(s);
        *b = (u - v).scale(s);
    }
}

/// # Safety
///
/// The running CPU supports `L`'s instruction set.
#[inline(always)]
unsafe fn butterfly_complex_scale_lanes<L: Lanes>(
    top: &mut [Complex],
    bottom: &mut [Complex],
    w: Complex,
    s: f64,
) {
    debug_assert_eq!(top.len(), bottom.len());
    let n = top.len().min(bottom.len());
    let (top, bottom) = (&mut top[..n], &mut bottom[..n]);
    let (wv, sv) = (L::splat_c(w), L::splat(s));
    let done = n / L::C * L::C;
    for (t, b) in top
        .chunks_exact_mut(L::C)
        .zip(bottom.chunks_exact_mut(L::C))
    {
        let (t, b) = (flat_mut(t), flat_mut(b));
        let u = L::load(t);
        let v = L::cmul(L::load(b), wv);
        L::store(t, L::mul(L::add(u, v), sv));
        L::store(b, L::mul(L::sub(u, v), sv));
    }
    butterfly_complex_scale_scalar(&mut top[done..], &mut bottom[done..], w, s);
}

kernel! {
    /// Radix-2 FFT butterfly with fused per-row complex post-multipliers:
    /// `u = top[i]; v = bottom[i]·w; top[i] = (u+v)·ct; bottom[i] = (u−v)·cb`.
    /// Per element this is the butterfly followed by the same multiply a
    /// separate [`cmul_inplace`] sweep would perform, so fusing a row-diagonal
    /// spectrum multiply (the Bluestein kernel spectrum) into the final
    /// butterfly level is bit-exact.
    butterfly_complex_postmul(
        top: &mut [Complex],
        bottom: &mut [Complex],
        w: Complex,
        ct: Complex,
        cb: Complex
    ) = butterfly_complex_postmul_scalar | butterfly_complex_postmul_lanes
}

fn butterfly_complex_postmul_scalar(
    top: &mut [Complex],
    bottom: &mut [Complex],
    w: Complex,
    ct: Complex,
    cb: Complex,
) {
    for (a, b) in top.iter_mut().zip(bottom.iter_mut()) {
        let u = *a;
        let v = *b * w;
        *a = (u + v) * ct;
        *b = (u - v) * cb;
    }
}

/// # Safety
///
/// The running CPU supports `L`'s instruction set.
#[inline(always)]
unsafe fn butterfly_complex_postmul_lanes<L: Lanes>(
    top: &mut [Complex],
    bottom: &mut [Complex],
    w: Complex,
    ct: Complex,
    cb: Complex,
) {
    debug_assert_eq!(top.len(), bottom.len());
    let n = top.len().min(bottom.len());
    let (top, bottom) = (&mut top[..n], &mut bottom[..n]);
    let (wv, ctv, cbv) = (L::splat_c(w), L::splat_c(ct), L::splat_c(cb));
    let done = n / L::C * L::C;
    for (t, b) in top
        .chunks_exact_mut(L::C)
        .zip(bottom.chunks_exact_mut(L::C))
    {
        let (t, b) = (flat_mut(t), flat_mut(b));
        let u = L::load(t);
        let v = L::cmul(L::load(b), wv);
        L::store(t, L::cmul(L::add(u, v), ctv));
        L::store(b, L::cmul(L::sub(u, v), cbv));
    }
    butterfly_complex_postmul_scalar(&mut top[done..], &mut bottom[done..], w, ct, cb);
}

kernel! {
    /// Out-of-place row multiply by a broadcast complex constant:
    /// `dst[i] = src[i]·c` (the Bluestein chirp passes).
    cmul_rows(dst: &mut [Complex], src: &[Complex], c: Complex) = cmul_rows_scalar | cmul_rows_lanes
}

fn cmul_rows_scalar(dst: &mut [Complex], src: &[Complex], c: Complex) {
    for (d, &s) in dst.iter_mut().zip(src.iter()) {
        *d = s * c;
    }
}

/// # Safety
///
/// The running CPU supports `L`'s instruction set.
#[inline(always)]
unsafe fn cmul_rows_lanes<L: Lanes>(dst: &mut [Complex], src: &[Complex], c: Complex) {
    debug_assert_eq!(dst.len(), src.len());
    let n = dst.len().min(src.len());
    let (dst, src) = (&mut dst[..n], &src[..n]);
    let cv = L::splat_c(c);
    let done = n / L::C * L::C;
    for (d, s) in dst.chunks_exact_mut(L::C).zip(src.chunks_exact(L::C)) {
        L::store(flat_mut(d), L::cmul(L::load(flat(s)), cv));
    }
    cmul_rows_scalar(&mut dst[done..], &src[done..], c);
}

kernel! {
    /// Out-of-place row multiply-and-scale by broadcast constants:
    /// `dst[i] = (src[i]·c)·s` (the Bluestein output chirp with the inverse
    /// `1/N` normalisation fused into the same sweep).
    cmul_scale_rows(dst: &mut [Complex], src: &[Complex], c: Complex, s: f64)
        = cmul_scale_rows_scalar | cmul_scale_rows_lanes
}

fn cmul_scale_rows_scalar(dst: &mut [Complex], src: &[Complex], c: Complex, s: f64) {
    for (d, &x) in dst.iter_mut().zip(src.iter()) {
        *d = (x * c).scale(s);
    }
}

/// # Safety
///
/// The running CPU supports `L`'s instruction set.
#[inline(always)]
unsafe fn cmul_scale_rows_lanes<L: Lanes>(
    dst: &mut [Complex],
    src: &[Complex],
    c: Complex,
    s: f64,
) {
    debug_assert_eq!(dst.len(), src.len());
    let n = dst.len().min(src.len());
    let (dst, src) = (&mut dst[..n], &src[..n]);
    let (cv, sv) = (L::splat_c(c), L::splat(s));
    let done = n / L::C * L::C;
    for (d, x) in dst.chunks_exact_mut(L::C).zip(src.chunks_exact(L::C)) {
        L::store(flat_mut(d), L::mul(L::cmul(L::load(flat(x)), cv), sv));
    }
    cmul_scale_rows_scalar(&mut dst[done..], &src[done..], c, s);
}

kernel! {
    /// In-place row multiply by a broadcast complex constant: `v ← v·c`
    /// (the Bluestein kernel-spectrum pass).
    cmul_inplace(row: &mut [Complex], c: Complex) = cmul_inplace_scalar | cmul_inplace_lanes
}

fn cmul_inplace_scalar(row: &mut [Complex], c: Complex) {
    for v in row.iter_mut() {
        *v = *v * c;
    }
}

/// # Safety
///
/// The running CPU supports `L`'s instruction set.
#[inline(always)]
unsafe fn cmul_inplace_lanes<L: Lanes>(row: &mut [Complex], c: Complex) {
    let cv = L::splat_c(c);
    let done = row.len() / L::C * L::C;
    for v in row.chunks_exact_mut(L::C) {
        let v = flat_mut(v);
        L::store(v, L::cmul(L::load(v), cv));
    }
    cmul_inplace_scalar(&mut row[done..], c);
}

kernel! {
    /// In-place circulant weight sweep: `v ← (c·v)·s` with a broadcast complex
    /// weight and real scale (the `CirculantSolver` per-bin multiply).
    cmul_scale_inplace(row: &mut [Complex], c: Complex, s: f64)
        = cmul_scale_inplace_scalar | cmul_scale_inplace_lanes
}

fn cmul_scale_inplace_scalar(row: &mut [Complex], c: Complex, s: f64) {
    for v in row.iter_mut() {
        *v = (c * *v).scale(s);
    }
}

/// # Safety
///
/// The running CPU supports `L`'s instruction set.
#[inline(always)]
unsafe fn cmul_scale_inplace_lanes<L: Lanes>(row: &mut [Complex], c: Complex, s: f64) {
    let (cv, sv) = (L::splat_c(c), L::splat(s));
    let done = row.len() / L::C * L::C;
    for v in row.chunks_exact_mut(L::C) {
        let v = flat_mut(v);
        L::store(v, L::mul(L::cmul(L::load(v), cv), sv));
    }
    cmul_scale_inplace_scalar(&mut row[done..], c, s);
}

kernel! {
    /// In-place real scale of a complex buffer: `v ← v·s` on both components
    /// (the inverse-FFT `1/M` normalisation).
    scale_complex(data: &mut [Complex], s: f64) = scale_complex_scalar | scale_complex_lanes
}

fn scale_complex_scalar(data: &mut [Complex], s: f64) {
    // A complex scale is an elementwise f64 scale of the interleaved pairs.
    for v in flat_mut(data) {
        *v *= s;
    }
}

/// # Safety
///
/// The running CPU supports `L`'s instruction set.
#[inline(always)]
unsafe fn scale_complex_lanes<L: Lanes>(data: &mut [Complex], s: f64) {
    let sv = L::splat(s);
    let done = data.len() / L::C * L::C;
    for v in data.chunks_exact_mut(L::C) {
        let v = flat_mut(v);
        L::store(v, L::mul(L::load(v), sv));
    }
    scale_complex_scalar(&mut data[done..], s);
}

kernel! {
    /// Out-of-place row scale: `dst[i] = s·src[i]` (the FWHT gather sweep).
    mul_rows_f64(dst: &mut [f64], src: &[f64], s: f64) = mul_rows_f64_scalar | mul_rows_f64_lanes
}

fn mul_rows_f64_scalar(dst: &mut [f64], src: &[f64], s: f64) {
    for (d, &x) in dst.iter_mut().zip(src.iter()) {
        *d = s * x;
    }
}

/// # Safety
///
/// The running CPU supports `L`'s instruction set.
#[inline(always)]
unsafe fn mul_rows_f64_lanes<L: Lanes>(dst: &mut [f64], src: &[f64], s: f64) {
    debug_assert_eq!(dst.len(), src.len());
    let n = dst.len().min(src.len());
    let (dst, src) = (&mut dst[..n], &src[..n]);
    let sv = L::splat(s);
    let done = n / L::N * L::N;
    for (d, x) in dst.chunks_exact_mut(L::N).zip(src.chunks_exact(L::N)) {
        L::store(d, L::mul(sv, L::load(x)));
    }
    mul_rows_f64_scalar(&mut dst[done..], &src[done..], s);
}

kernel! {
    /// Widens a real row into a complex row: `dst[i] = src[i] + 0i` (the
    /// panel-solve copy-in). Pure data movement — trivially bit-exact.
    widen_re(dst: &mut [Complex], src: &[f64]) = widen_re_scalar | widen_re_lanes
}

fn widen_re_scalar(dst: &mut [Complex], src: &[f64]) {
    for (d, &x) in dst.iter_mut().zip(src.iter()) {
        *d = Complex::from_re(x);
    }
}

/// # Safety
///
/// The running CPU supports `L`'s instruction set.
#[inline(always)]
unsafe fn widen_re_lanes<L: Lanes>(dst: &mut [Complex], src: &[f64]) {
    debug_assert_eq!(dst.len(), src.len());
    let n = dst.len().min(src.len());
    let (dst, src) = (&mut dst[..n], &src[..n]);
    let done = n / L::N * L::N;
    for (d, x) in dst.chunks_exact_mut(L::N).zip(src.chunks_exact(L::N)) {
        let (lo, hi) = L::widen(L::load(x));
        let (dlo, dhi) = flat_mut(d).split_at_mut(L::N);
        L::store(dlo, lo);
        L::store(dhi, hi);
    }
    widen_re_scalar(&mut dst[done..], &src[done..]);
}

kernel! {
    /// Narrows a complex row to its real parts: `dst[i] = src[i].re` (the
    /// panel-solve copy-out). Pure data movement — trivially bit-exact.
    narrow_re(dst: &mut [f64], src: &[Complex]) = narrow_re_scalar | narrow_re_lanes
}

fn narrow_re_scalar(dst: &mut [f64], src: &[Complex]) {
    for (d, s) in dst.iter_mut().zip(src.iter()) {
        *d = s.re;
    }
}

/// # Safety
///
/// The running CPU supports `L`'s instruction set.
#[inline(always)]
unsafe fn narrow_re_lanes<L: Lanes>(dst: &mut [f64], src: &[Complex]) {
    debug_assert_eq!(dst.len(), src.len());
    let n = dst.len().min(src.len());
    let (dst, src) = (&mut dst[..n], &src[..n]);
    let done = n / L::N * L::N;
    for (d, x) in dst.chunks_exact_mut(L::N).zip(src.chunks_exact(L::N)) {
        let (lo, hi) = flat(x).split_at(L::N);
        L::store(d, L::narrow(L::load(lo), L::load(hi)));
    }
    narrow_re_scalar(&mut dst[done..], &src[done..]);
}

// ---------------------------------------------------------------------
// x86-64 lanes: the only place intrinsics appear
// ---------------------------------------------------------------------

#[cfg(target_arch = "x86_64")]
mod x86 {
    use super::Lanes;
    use std::arch::x86_64::*;

    /// Declares lane ops, each `#[inline(always)]` so its intrinsic inlines
    /// into the `#[target_feature]` entry point that calls it.
    macro_rules! ops {
        ($(fn $name:ident($($a:ident: $t:ty),*) $(-> $r:ty)? $body:block)*) => {
            $(#[inline(always)] unsafe fn $name($($a: $t),*) $(-> $r)? $body)*
        };
    }

    /// 128-bit SSE2: one complex value per vector.
    pub struct Sse2;
    /// 256-bit AVX2.
    pub struct Avx2;
    /// 512-bit AVX-512F.
    pub struct Avx512;

    impl Lanes for Sse2 {
        const N: usize = 2;
        type F = __m128d;
        type I = __m128i;
        ops! {
            fn load(src: &[f64]) -> __m128d { _mm_loadu_pd(src.as_ptr()) }
            fn store(dst: &mut [f64], v: __m128d) { _mm_storeu_pd(dst.as_mut_ptr(), v) }
            fn splat(x: f64) -> __m128d { _mm_set1_pd(x) }
            fn add(a: __m128d, b: __m128d) -> __m128d { _mm_add_pd(a, b) }
            fn sub(a: __m128d, b: __m128d) -> __m128d { _mm_sub_pd(a, b) }
            fn mul(a: __m128d, b: __m128d) -> __m128d { _mm_mul_pd(a, b) }
            // No `addsub` before SSE3: flip the sign of the low (real) lane.
            fn addsub(a: __m128d, b: __m128d) -> __m128d {
                _mm_add_pd(a, _mm_xor_pd(b, _mm_set_pd(0.0, -0.0)))
            }
            fn swap(v: __m128d) -> __m128d { _mm_shuffle_pd(v, v, 0b01) }
            fn widen(v: __m128d) -> (__m128d, __m128d) {
                let zero = _mm_setzero_pd();
                (_mm_unpacklo_pd(v, zero), _mm_unpackhi_pd(v, zero))
            }
            fn narrow(a: __m128d, b: __m128d) -> __m128d { _mm_unpacklo_pd(a, b) }
            fn load_i(src: &[i64]) -> __m128i { _mm_loadu_si128(src.as_ptr().cast()) }
            fn store_i(dst: &mut [i64], v: __m128i) { _mm_storeu_si128(dst.as_mut_ptr().cast(), v) }
            fn add_i(a: __m128i, b: __m128i) -> __m128i { _mm_add_epi64(a, b) }
            fn sub_i(a: __m128i, b: __m128i) -> __m128i { _mm_sub_epi64(a, b) }
        }
    }

    impl Lanes for Avx2 {
        const N: usize = 4;
        type F = __m256d;
        type I = __m256i;
        ops! {
            fn load(src: &[f64]) -> __m256d { _mm256_loadu_pd(src.as_ptr()) }
            fn store(dst: &mut [f64], v: __m256d) { _mm256_storeu_pd(dst.as_mut_ptr(), v) }
            fn splat(x: f64) -> __m256d { _mm256_set1_pd(x) }
            fn add(a: __m256d, b: __m256d) -> __m256d { _mm256_add_pd(a, b) }
            fn sub(a: __m256d, b: __m256d) -> __m256d { _mm256_sub_pd(a, b) }
            fn mul(a: __m256d, b: __m256d) -> __m256d { _mm256_mul_pd(a, b) }
            fn addsub(a: __m256d, b: __m256d) -> __m256d { _mm256_addsub_pd(a, b) }
            fn swap(v: __m256d) -> __m256d { _mm256_permute_pd(v, 0b0101) }
            // [v0, v2, v1, v3], so the in-lane unpacks yield interleaved pairs.
            fn widen(v: __m256d) -> (__m256d, __m256d) {
                let (v, zero) = (_mm256_permute4x64_pd(v, 0xD8), _mm256_setzero_pd());
                (_mm256_unpacklo_pd(v, zero), _mm256_unpackhi_pd(v, zero))
            }
            fn narrow(a: __m256d, b: __m256d) -> __m256d {
                _mm256_permute4x64_pd(_mm256_unpacklo_pd(a, b), 0xD8)
            }
            fn load_i(src: &[i64]) -> __m256i { _mm256_loadu_si256(src.as_ptr().cast()) }
            fn store_i(dst: &mut [i64], v: __m256i) {
                _mm256_storeu_si256(dst.as_mut_ptr().cast(), v)
            }
            fn add_i(a: __m256i, b: __m256i) -> __m256i { _mm256_add_epi64(a, b) }
            fn sub_i(a: __m256i, b: __m256i) -> __m256i { _mm256_sub_epi64(a, b) }
        }
    }

    impl Lanes for Avx512 {
        const N: usize = 8;
        type F = __m512d;
        type I = __m512i;
        ops! {
            fn load(src: &[f64]) -> __m512d { _mm512_loadu_pd(src.as_ptr()) }
            fn store(dst: &mut [f64], v: __m512d) { _mm512_storeu_pd(dst.as_mut_ptr(), v) }
            fn splat(x: f64) -> __m512d { _mm512_set1_pd(x) }
            fn add(a: __m512d, b: __m512d) -> __m512d { _mm512_add_pd(a, b) }
            fn sub(a: __m512d, b: __m512d) -> __m512d { _mm512_sub_pd(a, b) }
            fn mul(a: __m512d, b: __m512d) -> __m512d { _mm512_mul_pd(a, b) }
            // No `addsub`: flip the sign of the even (real) lanes. The XOR runs
            // on integer lanes because `_mm512_xor_pd` needs AVX-512DQ.
            fn addsub(a: __m512d, b: __m512d) -> __m512d {
                let neg = _mm512_set_epi64(0, i64::MIN, 0, i64::MIN, 0, i64::MIN, 0, i64::MIN);
                _mm512_add_pd(a, _mm512_castsi512_pd(_mm512_xor_si512(_mm512_castpd_si512(b), neg)))
            }
            fn swap(v: __m512d) -> __m512d { _mm512_permute_pd(v, 0x55) }
            // Index 8 picks lane 0 of the zero vector.
            fn widen(v: __m512d) -> (__m512d, __m512d) {
                let zero = _mm512_setzero_pd();
                let lo = _mm512_permutex2var_pd(v, _mm512_set_epi64(8, 3, 8, 2, 8, 1, 8, 0), zero);
                let hi = _mm512_permutex2var_pd(v, _mm512_set_epi64(8, 7, 8, 6, 8, 5, 8, 4), zero);
                (lo, hi)
            }
            fn narrow(a: __m512d, b: __m512d) -> __m512d {
                _mm512_permutex2var_pd(a, _mm512_set_epi64(14, 12, 10, 8, 6, 4, 2, 0), b)
            }
            fn load_i(src: &[i64]) -> __m512i { _mm512_loadu_si512(src.as_ptr().cast()) }
            fn store_i(dst: &mut [i64], v: __m512i) {
                _mm512_storeu_si512(dst.as_mut_ptr().cast(), v)
            }
            fn add_i(a: __m512i, b: __m512i) -> __m512i { _mm512_add_epi64(a, b) }
            fn sub_i(a: __m512i, b: __m512i) -> __m512i { _mm512_sub_epi64(a, b) }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cx(k: usize) -> Complex {
        // Deterministic awkward values: mixed signs, magnitudes, exact and
        // inexact fractions.
        let re = ((k * 37 + 11) % 101) as f64 - 50.25;
        let im = ((k * 53 + 7) % 97) as f64 / 7.0 - 6.5;
        Complex::new(re, im)
    }

    #[test]
    fn backend_parse_round_trips() {
        for b in [
            Backend::Scalar,
            Backend::Sse2,
            Backend::Avx2,
            Backend::Avx512,
        ] {
            assert_eq!(Backend::parse(b.name()), Some(b));
        }
        assert_eq!(Backend::parse(" AVX2 "), Some(Backend::Avx2));
        assert_eq!(Backend::parse("avx512f"), Some(Backend::Avx512));
        assert_eq!(Backend::parse("neon"), None);
    }

    #[test]
    fn scalar_always_available_and_first() {
        let all = available_backends();
        assert_eq!(all[0], Backend::Scalar);
        assert!(active().is_available());
    }

    #[test]
    fn kernels_bit_identical_across_backends() {
        // Odd lengths exercise every remainder lane path.
        for len in [1usize, 2, 3, 4, 7, 8, 31, 32, 33] {
            let top0: Vec<Complex> = (0..len).map(cx).collect();
            let bot0: Vec<Complex> = (0..len).map(|k| cx(k + 1000)).collect();
            let w = cx(271828);
            let c = cx(314159);
            let s = 1.0 / 511.0;

            let mut ref_top = top0.clone();
            let mut ref_bot = bot0.clone();
            butterfly_complex(Backend::Scalar, &mut ref_top, &mut ref_bot, w);

            for be in available_backends() {
                let mut t = top0.clone();
                let mut b = bot0.clone();
                butterfly_complex(be, &mut t, &mut b, w);
                for i in 0..len {
                    assert_eq!(
                        t[i].re.to_bits(),
                        ref_top[i].re.to_bits(),
                        "{be:?} len {len}"
                    );
                    assert_eq!(
                        t[i].im.to_bits(),
                        ref_top[i].im.to_bits(),
                        "{be:?} len {len}"
                    );
                    assert_eq!(
                        b[i].re.to_bits(),
                        ref_bot[i].re.to_bits(),
                        "{be:?} len {len}"
                    );
                    assert_eq!(
                        b[i].im.to_bits(),
                        ref_bot[i].im.to_bits(),
                        "{be:?} len {len}"
                    );
                }

                let mut t = top0.clone();
                let mut b = bot0.clone();
                let mut t_ref = top0.clone();
                let mut b_ref = bot0.clone();
                butterfly_complex_scale(Backend::Scalar, &mut t_ref, &mut b_ref, w, s);
                butterfly_complex_scale(be, &mut t, &mut b, w, s);
                assert_bits(&t, &t_ref, be);
                assert_bits(&b, &b_ref, be);

                let mut t = top0.clone();
                let mut b = bot0.clone();
                let mut t_ref = top0.clone();
                let mut b_ref = bot0.clone();
                let (ct, cb) = (cx(161803), cx(141421));
                butterfly_complex_postmul(Backend::Scalar, &mut t_ref, &mut b_ref, w, ct, cb);
                butterfly_complex_postmul(be, &mut t, &mut b, w, ct, cb);
                assert_bits(&t, &t_ref, be);
                assert_bits(&b, &b_ref, be);

                let mut d = vec![Complex::ZERO; len];
                let mut d_ref = vec![Complex::ZERO; len];
                cmul_rows(Backend::Scalar, &mut d_ref, &top0, c);
                cmul_rows(be, &mut d, &top0, c);
                assert_bits(&d, &d_ref, be);

                cmul_scale_rows(Backend::Scalar, &mut d_ref, &top0, c, s);
                cmul_scale_rows(be, &mut d, &top0, c, s);
                assert_bits(&d, &d_ref, be);

                let mut v = top0.clone();
                let mut v_ref = top0.clone();
                cmul_inplace(Backend::Scalar, &mut v_ref, c);
                cmul_inplace(be, &mut v, c);
                assert_bits(&v, &v_ref, be);

                let mut v = top0.clone();
                let mut v_ref = top0.clone();
                cmul_scale_inplace(Backend::Scalar, &mut v_ref, c, s);
                cmul_scale_inplace(be, &mut v, c, s);
                assert_bits(&v, &v_ref, be);

                let mut v = top0.clone();
                let mut v_ref = top0.clone();
                scale_complex(Backend::Scalar, &mut v_ref, s);
                scale_complex(be, &mut v, s);
                assert_bits(&v, &v_ref, be);

                let f_top: Vec<f64> = top0.iter().map(|z| z.re).collect();
                let f_bot: Vec<f64> = bot0.iter().map(|z| z.im).collect();
                let mut a = f_top.clone();
                let mut b = f_bot.clone();
                let mut a_ref = f_top.clone();
                let mut b_ref = f_bot.clone();
                butterfly_f64(Backend::Scalar, &mut a_ref, &mut b_ref);
                butterfly_f64(be, &mut a, &mut b);
                assert_eq!(
                    a.iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
                    a_ref.iter().map(|x| x.to_bits()).collect::<Vec<_>>()
                );
                assert_eq!(
                    b.iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
                    b_ref.iter().map(|x| x.to_bits()).collect::<Vec<_>>()
                );

                let mut m = f_top.clone();
                let mut m_ref = f_top.clone();
                mul_rows_f64(Backend::Scalar, &mut m_ref, &f_bot, -2.0 / 512.0);
                mul_rows_f64(be, &mut m, &f_bot, -2.0 / 512.0);
                assert_eq!(
                    m.iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
                    m_ref.iter().map(|x| x.to_bits()).collect::<Vec<_>>()
                );

                let mut wide = vec![Complex::ZERO; len];
                let mut wide_ref = vec![Complex::ZERO; len];
                widen_re(Backend::Scalar, &mut wide_ref, &f_top);
                widen_re(be, &mut wide, &f_top);
                assert_bits(&wide, &wide_ref, be);
                let mut narrow = vec![0.0f64; len];
                let mut narrow_ref = vec![0.0f64; len];
                narrow_re(Backend::Scalar, &mut narrow_ref, &top0);
                narrow_re(be, &mut narrow, &top0);
                assert_eq!(
                    narrow.iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
                    narrow_ref.iter().map(|x| x.to_bits()).collect::<Vec<_>>()
                );

                let i_top: Vec<i64> = (0..len).map(|k| (k as i64 * 977 - 40_000) * 3).collect();
                let i_bot: Vec<i64> = (0..len).map(|k| (k as i64 * 1013 + 17) * -7).collect();
                let mut x = i_top.clone();
                let mut y = i_bot.clone();
                let mut x_ref = i_top.clone();
                let mut y_ref = i_bot.clone();
                butterfly_i64(Backend::Scalar, &mut x_ref, &mut y_ref);
                butterfly_i64(be, &mut x, &mut y);
                assert_eq!(x, x_ref, "{be:?}");
                assert_eq!(y, y_ref, "{be:?}");
            }
        }
    }

    fn assert_bits(got: &[Complex], want: &[Complex], be: Backend) {
        for (g, w) in got.iter().zip(want.iter()) {
            assert_eq!(g.re.to_bits(), w.re.to_bits(), "{be:?}");
            assert_eq!(g.im.to_bits(), w.im.to_bits(), "{be:?}");
        }
    }

    #[test]
    fn negative_zero_semantics_preserved() {
        // −0.0 inputs are where x+(−y) vs x−y and mul sign rules would
        // diverge if the lanes were wired wrong.
        let vals = [
            Complex::new(-0.0, 0.0),
            Complex::new(0.0, -0.0),
            Complex::new(-0.0, -0.0),
            Complex::new(1.5, -0.0),
        ];
        let w = Complex::new(-1.0, 0.0);
        for be in available_backends() {
            let mut t = vals.to_vec();
            let mut b = vals.to_vec();
            let mut t_ref = vals.to_vec();
            let mut b_ref = vals.to_vec();
            butterfly_complex(Backend::Scalar, &mut t_ref, &mut b_ref, w);
            butterfly_complex(be, &mut t, &mut b, w);
            assert_bits(&t, &t_ref, be);
            assert_bits(&b, &b_ref, be);
        }
    }
}
