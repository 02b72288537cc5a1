//! Runtime-dispatched SIMD row kernels for the panel hot paths.
//!
//! The batched deconvolution engine spends almost all of its time in a
//! handful of unit-stride row sweeps: the FWHT row-pair butterfly
//! ([`crate::fwht::fwht_panel`]), the radix-2 FFT butterfly and the
//! Bluestein chirp/spectrum multiplies ([`crate::fft::FftPlan`]), and the
//! circulant spectral-weight multiply (`ims_prs::CirculantSolver`). This
//! module implements those sweeps four times — portable scalar, SSE2, AVX2
//! and AVX-512F (`std::arch`, zero external dependencies) — and selects one
//! backend per process.
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
//! reference without touching process environment.
//!
//! # Bit-exactness contract
//!
//! Each backend produces **bit-identical** results to the scalar reference
//! loops it replaces. The vector code is written to preserve IEEE-754
//! semantics operation for operation:
//!
//! * additions/subtractions/multiplications map 1:1 onto vector lanes —
//!   no FMA contraction anywhere (FMA changes rounding);
//! * the complex multiply uses `mul`/`mul`/`addsub`, which computes
//!   `re = a.re·c.re − a.im·c.im` exactly as the scalar `Mul` impl does,
//!   and `im` as the *same two products* added in swapped order — IEEE
//!   addition is commutative, so the bits agree;
//! * the SSE2 fallback (no `addsub` before SSE3) negates the subtrahend
//!   lane with a sign-bit XOR: `x + (−y)` is defined by IEEE-754 to equal
//!   `x − y` for every input. AVX-512 has no `addsub` either, so it uses
//!   the same sign-bit XOR on the even (real) lanes.

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
// Kernels
// ---------------------------------------------------------------------

/// FWHT butterfly over a row pair: `top[i], bottom[i] ← top[i]+bottom[i],
/// top[i]−bottom[i]`.
#[inline]
pub fn butterfly_f64(be: Backend, top: &mut [f64], bottom: &mut [f64]) {
    debug_assert_eq!(top.len(), bottom.len());
    match be {
        #[cfg(target_arch = "x86_64")]
        Backend::Avx512 => unsafe { x86::butterfly_f64_avx512(top, bottom) },
        #[cfg(target_arch = "x86_64")]
        Backend::Avx2 => unsafe { x86::butterfly_f64_avx2(top, bottom) },
        #[cfg(target_arch = "x86_64")]
        Backend::Sse2 => unsafe { x86::butterfly_f64_sse2(top, bottom) },
        _ => butterfly_f64_scalar(top, bottom),
    }
}

fn butterfly_f64_scalar(top: &mut [f64], bottom: &mut [f64]) {
    for (a, b) in top.iter_mut().zip(bottom.iter_mut()) {
        let (x, y) = (*a, *b);
        *a = x + y;
        *b = x - y;
    }
}

/// Integer FWHT butterfly over a row pair (the fixed-point FPGA datapath).
#[inline]
pub fn butterfly_i64(be: Backend, top: &mut [i64], bottom: &mut [i64]) {
    debug_assert_eq!(top.len(), bottom.len());
    match be {
        #[cfg(target_arch = "x86_64")]
        Backend::Avx512 => unsafe { x86::butterfly_i64_avx512(top, bottom) },
        #[cfg(target_arch = "x86_64")]
        Backend::Avx2 => unsafe { x86::butterfly_i64_avx2(top, bottom) },
        #[cfg(target_arch = "x86_64")]
        Backend::Sse2 => unsafe { x86::butterfly_i64_sse2(top, bottom) },
        _ => butterfly_i64_scalar(top, bottom),
    }
}

fn butterfly_i64_scalar(top: &mut [i64], bottom: &mut [i64]) {
    for (a, b) in top.iter_mut().zip(bottom.iter_mut()) {
        let (x, y) = (*a, *b);
        *a = x.wrapping_add(y);
        *b = x.wrapping_sub(y);
    }
}

/// Radix-2 FFT butterfly over a row pair with one broadcast twiddle:
/// `u = top[i]; v = bottom[i]·w; top[i] = u+v; bottom[i] = u−v`.
#[inline]
pub fn butterfly_complex(be: Backend, top: &mut [Complex], bottom: &mut [Complex], w: Complex) {
    debug_assert_eq!(top.len(), bottom.len());
    match be {
        #[cfg(target_arch = "x86_64")]
        Backend::Avx512 => unsafe { x86::butterfly_complex_avx512(top, bottom, w) },
        #[cfg(target_arch = "x86_64")]
        Backend::Avx2 => unsafe { x86::butterfly_complex_avx2(top, bottom, w) },
        #[cfg(target_arch = "x86_64")]
        Backend::Sse2 => unsafe { x86::butterfly_complex_sse2(top, bottom, w) },
        _ => butterfly_complex_scalar(top, bottom, w),
    }
}

fn butterfly_complex_scalar(top: &mut [Complex], bottom: &mut [Complex], w: Complex) {
    for (a, b) in top.iter_mut().zip(bottom.iter_mut()) {
        let u = *a;
        let v = *b * w;
        *a = u + v;
        *b = u - v;
    }
}

/// Radix-2 FFT butterfly with a fused real scale: `u = top[i];
/// v = bottom[i]·w; top[i] = (u+v)·s; bottom[i] = (u−v)·s`. Per element this
/// is the butterfly followed by the scale in the same order as running
/// [`butterfly_complex`] and then [`scale_complex`], so fusing the inverse
/// FFT's `1/M` normalisation into its final level is bit-exact.
#[inline]
pub fn butterfly_complex_scale(
    be: Backend,
    top: &mut [Complex],
    bottom: &mut [Complex],
    w: Complex,
    s: f64,
) {
    debug_assert_eq!(top.len(), bottom.len());
    match be {
        #[cfg(target_arch = "x86_64")]
        Backend::Avx512 => unsafe { x86::butterfly_complex_scale_avx512(top, bottom, w, s) },
        #[cfg(target_arch = "x86_64")]
        Backend::Avx2 => unsafe { x86::butterfly_complex_scale_avx2(top, bottom, w, s) },
        #[cfg(target_arch = "x86_64")]
        Backend::Sse2 => unsafe { x86::butterfly_complex_scale_sse2(top, bottom, w, s) },
        _ => butterfly_complex_scale_scalar(top, bottom, w, s),
    }
}

fn butterfly_complex_scale_scalar(top: &mut [Complex], bottom: &mut [Complex], w: Complex, s: f64) {
    for (a, b) in top.iter_mut().zip(bottom.iter_mut()) {
        let u = *a;
        let v = *b * w;
        *a = (u + v).scale(s);
        *b = (u - v).scale(s);
    }
}

/// Radix-2 FFT butterfly with fused per-row complex post-multipliers:
/// `u = top[i]; v = bottom[i]·w; top[i] = (u+v)·ct; bottom[i] = (u−v)·cb`.
/// Per element this is the butterfly followed by the same multiply a
/// separate [`cmul_inplace`] sweep would perform, so fusing a row-diagonal
/// spectrum multiply (the Bluestein kernel spectrum) into the final
/// butterfly level is bit-exact.
#[inline]
pub fn butterfly_complex_postmul(
    be: Backend,
    top: &mut [Complex],
    bottom: &mut [Complex],
    w: Complex,
    ct: Complex,
    cb: Complex,
) {
    debug_assert_eq!(top.len(), bottom.len());
    match be {
        #[cfg(target_arch = "x86_64")]
        Backend::Avx512 => unsafe { x86::butterfly_complex_postmul_avx512(top, bottom, w, ct, cb) },
        #[cfg(target_arch = "x86_64")]
        Backend::Avx2 => unsafe { x86::butterfly_complex_postmul_avx2(top, bottom, w, ct, cb) },
        #[cfg(target_arch = "x86_64")]
        Backend::Sse2 => unsafe { x86::butterfly_complex_postmul_sse2(top, bottom, w, ct, cb) },
        _ => butterfly_complex_postmul_scalar(top, bottom, w, ct, cb),
    }
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

/// Out-of-place row multiply by a broadcast complex constant:
/// `dst[i] = src[i]·c` (the Bluestein chirp passes).
#[inline]
pub fn cmul_rows(be: Backend, dst: &mut [Complex], src: &[Complex], c: Complex) {
    debug_assert_eq!(dst.len(), src.len());
    match be {
        #[cfg(target_arch = "x86_64")]
        Backend::Avx512 => unsafe { x86::cmul_rows_avx512(dst, src, c) },
        #[cfg(target_arch = "x86_64")]
        Backend::Avx2 => unsafe { x86::cmul_rows_avx2(dst, src, c) },
        #[cfg(target_arch = "x86_64")]
        Backend::Sse2 => unsafe { x86::cmul_rows_sse2(dst, src, c) },
        _ => cmul_rows_scalar(dst, src, c),
    }
}

fn cmul_rows_scalar(dst: &mut [Complex], src: &[Complex], c: Complex) {
    for (d, &s) in dst.iter_mut().zip(src.iter()) {
        *d = s * c;
    }
}

/// Out-of-place row multiply-and-scale by broadcast constants:
/// `dst[i] = (src[i]·c)·s` (the Bluestein output chirp with the inverse
/// `1/N` normalisation fused into the same sweep).
#[inline]
pub fn cmul_scale_rows(be: Backend, dst: &mut [Complex], src: &[Complex], c: Complex, s: f64) {
    debug_assert_eq!(dst.len(), src.len());
    match be {
        #[cfg(target_arch = "x86_64")]
        Backend::Avx512 => unsafe { x86::cmul_scale_rows_avx512(dst, src, c, s) },
        #[cfg(target_arch = "x86_64")]
        Backend::Avx2 => unsafe { x86::cmul_scale_rows_avx2(dst, src, c, s) },
        #[cfg(target_arch = "x86_64")]
        Backend::Sse2 => unsafe { x86::cmul_scale_rows_sse2(dst, src, c, s) },
        _ => cmul_scale_rows_scalar(dst, src, c, s),
    }
}

fn cmul_scale_rows_scalar(dst: &mut [Complex], src: &[Complex], c: Complex, s: f64) {
    for (d, &x) in dst.iter_mut().zip(src.iter()) {
        *d = (x * c).scale(s);
    }
}

/// In-place row multiply by a broadcast complex constant: `v ← v·c`
/// (the Bluestein kernel-spectrum pass).
#[inline]
pub fn cmul_inplace(be: Backend, row: &mut [Complex], c: Complex) {
    match be {
        #[cfg(target_arch = "x86_64")]
        Backend::Avx512 => unsafe { x86::cmul_inplace_avx512(row, c) },
        #[cfg(target_arch = "x86_64")]
        Backend::Avx2 => unsafe { x86::cmul_inplace_avx2(row, c) },
        #[cfg(target_arch = "x86_64")]
        Backend::Sse2 => unsafe { x86::cmul_inplace_sse2(row, c) },
        _ => cmul_inplace_scalar(row, c),
    }
}

fn cmul_inplace_scalar(row: &mut [Complex], c: Complex) {
    for v in row.iter_mut() {
        *v = *v * c;
    }
}

/// In-place circulant weight sweep: `v ← (c·v)·s` with a broadcast complex
/// weight and real scale (the `CirculantSolver` per-bin multiply).
#[inline]
pub fn cmul_scale_inplace(be: Backend, row: &mut [Complex], c: Complex, s: f64) {
    match be {
        #[cfg(target_arch = "x86_64")]
        Backend::Avx512 => unsafe { x86::cmul_scale_inplace_avx512(row, c, s) },
        #[cfg(target_arch = "x86_64")]
        Backend::Avx2 => unsafe { x86::cmul_scale_inplace_avx2(row, c, s) },
        #[cfg(target_arch = "x86_64")]
        Backend::Sse2 => unsafe { x86::cmul_scale_inplace_sse2(row, c, s) },
        _ => cmul_scale_inplace_scalar(row, c, s),
    }
}

fn cmul_scale_inplace_scalar(row: &mut [Complex], c: Complex, s: f64) {
    for v in row.iter_mut() {
        *v = (c * *v).scale(s);
    }
}

/// In-place real scale of a complex buffer: `v ← v·s` on both components
/// (the inverse-FFT `1/M` normalisation).
#[inline]
pub fn scale_complex(be: Backend, data: &mut [Complex], s: f64) {
    // A complex scale is an elementwise f64 scale of the interleaved pairs.
    let flat = complex_as_flat_mut(data);
    match be {
        #[cfg(target_arch = "x86_64")]
        Backend::Avx512 => unsafe { x86::scale_f64_avx512(flat, s) },
        #[cfg(target_arch = "x86_64")]
        Backend::Avx2 => unsafe { x86::scale_f64_avx2(flat, s) },
        #[cfg(target_arch = "x86_64")]
        Backend::Sse2 => unsafe { x86::scale_f64_sse2(flat, s) },
        _ => scale_f64_scalar(flat, s),
    }
}

fn scale_f64_scalar(data: &mut [f64], s: f64) {
    for v in data.iter_mut() {
        *v *= s;
    }
}

/// Out-of-place row scale: `dst[i] = s·src[i]` (the FWHT gather sweep).
#[inline]
pub fn mul_rows_f64(be: Backend, dst: &mut [f64], src: &[f64], s: f64) {
    debug_assert_eq!(dst.len(), src.len());
    match be {
        #[cfg(target_arch = "x86_64")]
        Backend::Avx512 => unsafe { x86::mul_rows_f64_avx512(dst, src, s) },
        #[cfg(target_arch = "x86_64")]
        Backend::Avx2 => unsafe { x86::mul_rows_f64_avx2(dst, src, s) },
        #[cfg(target_arch = "x86_64")]
        Backend::Sse2 => unsafe { x86::mul_rows_f64_sse2(dst, src, s) },
        _ => mul_rows_f64_scalar(dst, src, s),
    }
}

fn mul_rows_f64_scalar(dst: &mut [f64], src: &[f64], s: f64) {
    for (d, &x) in dst.iter_mut().zip(src.iter()) {
        *d = s * x;
    }
}

/// Widens a real row into a complex row: `dst[i] = src[i] + 0i` (the
/// panel-solve copy-in). Pure data movement — trivially bit-exact.
#[inline]
pub fn widen_re(be: Backend, dst: &mut [Complex], src: &[f64]) {
    debug_assert_eq!(dst.len(), src.len());
    match be {
        #[cfg(target_arch = "x86_64")]
        Backend::Avx2 | Backend::Avx512 => unsafe { x86::widen_re_avx2(dst, src) },
        #[cfg(target_arch = "x86_64")]
        Backend::Sse2 => unsafe { x86::widen_re_sse2(dst, src) },
        _ => widen_re_scalar(dst, src),
    }
}

fn widen_re_scalar(dst: &mut [Complex], src: &[f64]) {
    for (d, &x) in dst.iter_mut().zip(src.iter()) {
        *d = Complex::from_re(x);
    }
}

/// Narrows a complex row to its real parts: `dst[i] = src[i].re` (the
/// panel-solve copy-out). Pure data movement — trivially bit-exact.
#[inline]
pub fn narrow_re(be: Backend, dst: &mut [f64], src: &[Complex]) {
    debug_assert_eq!(dst.len(), src.len());
    match be {
        #[cfg(target_arch = "x86_64")]
        Backend::Avx2 | Backend::Avx512 => unsafe { x86::narrow_re_avx2(dst, src) },
        #[cfg(target_arch = "x86_64")]
        Backend::Sse2 => unsafe { x86::narrow_re_sse2(dst, src) },
        _ => narrow_re_scalar(dst, src),
    }
}

fn narrow_re_scalar(dst: &mut [f64], src: &[Complex]) {
    for (d, s) in dst.iter_mut().zip(src.iter()) {
        *d = s.re;
    }
}

/// Views a complex slice as its interleaved `re, im, re, im …` storage.
/// Sound because [`Complex`] is `#[repr(C)]` with two `f64` fields.
fn complex_as_flat_mut(data: &mut [Complex]) -> &mut [f64] {
    // SAFETY: Complex is repr(C) { re: f64, im: f64 }, so a slice of n
    // Complex is exactly 2n contiguous, aligned f64 values.
    unsafe { std::slice::from_raw_parts_mut(data.as_mut_ptr() as *mut f64, data.len() * 2) }
}

// ---------------------------------------------------------------------
// x86-64 implementations
// ---------------------------------------------------------------------

#[cfg(target_arch = "x86_64")]
mod x86 {
    use super::*;
    use std::arch::x86_64::*;

    // Complex lanes are interleaved [re0, im0, re1, im1]; `permute(v, 0b0101)`
    // swaps each pair to [im0, re0, im1, re1]. With broadcast cr = c.re,
    // ci = c.im:
    //     addsub(v·cr, swap(v)·ci)
    //       = [v.re·c.re − v.im·c.im, v.im·c.re + v.re·c.im]
    // which matches the scalar product's real part exactly and its imaginary
    // part up to addition order (IEEE addition commutes, so bitwise equal).

    // AVX-512F has no `addsub`, so the complex multiply negates the even
    // (real) lanes of the second product with a sign-bit XOR before a plain
    // add: x + (−y) ≡ x − y under IEEE-754. The XOR goes through the
    // integer domain (`xor_si512`) because `_mm512_xor_pd` needs AVX-512DQ.

    /// Sign mask with −0.0 in the even (real) lanes.
    #[inline]
    #[target_feature(enable = "avx512f")]
    unsafe fn neg_even_512() -> __m512d {
        _mm512_set_pd(0.0, -0.0, 0.0, -0.0, 0.0, -0.0, 0.0, -0.0)
    }

    /// `x ^ y` on f64 lanes using AVX-512F-only integer XOR.
    #[inline]
    #[target_feature(enable = "avx512f")]
    unsafe fn xor_pd_512(x: __m512d, y: __m512d) -> __m512d {
        _mm512_castsi512_pd(_mm512_xor_si512(
            _mm512_castpd_si512(x),
            _mm512_castpd_si512(y),
        ))
    }

    #[target_feature(enable = "avx512f")]
    pub unsafe fn butterfly_f64_avx512(top: &mut [f64], bottom: &mut [f64]) {
        let n = top.len();
        let tp = top.as_mut_ptr();
        let bp = bottom.as_mut_ptr();
        let mut i = 0;
        while i + 8 <= n {
            let x = _mm512_loadu_pd(tp.add(i));
            let y = _mm512_loadu_pd(bp.add(i));
            _mm512_storeu_pd(tp.add(i), _mm512_add_pd(x, y));
            _mm512_storeu_pd(bp.add(i), _mm512_sub_pd(x, y));
            i += 8;
        }
        super::butterfly_f64_scalar(&mut top[i..], &mut bottom[i..]);
    }

    #[target_feature(enable = "avx512f")]
    pub unsafe fn butterfly_i64_avx512(top: &mut [i64], bottom: &mut [i64]) {
        let n = top.len();
        let tp = top.as_mut_ptr();
        let bp = bottom.as_mut_ptr();
        let mut i = 0;
        while i + 8 <= n {
            let x = _mm512_loadu_si512(tp.add(i) as *const __m512i);
            let y = _mm512_loadu_si512(bp.add(i) as *const __m512i);
            _mm512_storeu_si512(tp.add(i) as *mut __m512i, _mm512_add_epi64(x, y));
            _mm512_storeu_si512(bp.add(i) as *mut __m512i, _mm512_sub_epi64(x, y));
            i += 8;
        }
        super::butterfly_i64_scalar(&mut top[i..], &mut bottom[i..]);
    }

    #[target_feature(enable = "avx512f")]
    pub unsafe fn butterfly_complex_avx512(
        top: &mut [Complex],
        bottom: &mut [Complex],
        w: Complex,
    ) {
        let n = top.len();
        let tp = top.as_mut_ptr() as *mut f64;
        let bp = bottom.as_mut_ptr() as *mut f64;
        let wre = _mm512_set1_pd(w.re);
        let wim = _mm512_set1_pd(w.im);
        let neg = neg_even_512();
        let mut i = 0;
        while i + 4 <= n {
            let u = _mm512_loadu_pd(tp.add(2 * i));
            let b = _mm512_loadu_pd(bp.add(2 * i));
            let bs = _mm512_permute_pd(b, 0x55);
            let t2 = xor_pd_512(_mm512_mul_pd(bs, wim), neg);
            let v = _mm512_add_pd(_mm512_mul_pd(b, wre), t2);
            _mm512_storeu_pd(tp.add(2 * i), _mm512_add_pd(u, v));
            _mm512_storeu_pd(bp.add(2 * i), _mm512_sub_pd(u, v));
            i += 4;
        }
        butterfly_complex_avx2(&mut top[i..], &mut bottom[i..], w);
    }

    #[target_feature(enable = "avx512f")]
    pub unsafe fn butterfly_complex_scale_avx512(
        top: &mut [Complex],
        bottom: &mut [Complex],
        w: Complex,
        s: f64,
    ) {
        let n = top.len();
        let tp = top.as_mut_ptr() as *mut f64;
        let bp = bottom.as_mut_ptr() as *mut f64;
        let wre = _mm512_set1_pd(w.re);
        let wim = _mm512_set1_pd(w.im);
        let sv = _mm512_set1_pd(s);
        let neg = neg_even_512();
        let mut i = 0;
        while i + 4 <= n {
            let u = _mm512_loadu_pd(tp.add(2 * i));
            let b = _mm512_loadu_pd(bp.add(2 * i));
            let bs = _mm512_permute_pd(b, 0x55);
            let t2 = xor_pd_512(_mm512_mul_pd(bs, wim), neg);
            let v = _mm512_add_pd(_mm512_mul_pd(b, wre), t2);
            _mm512_storeu_pd(tp.add(2 * i), _mm512_mul_pd(_mm512_add_pd(u, v), sv));
            _mm512_storeu_pd(bp.add(2 * i), _mm512_mul_pd(_mm512_sub_pd(u, v), sv));
            i += 4;
        }
        butterfly_complex_scale_avx2(&mut top[i..], &mut bottom[i..], w, s);
    }

    #[target_feature(enable = "avx2")]
    pub unsafe fn butterfly_complex_scale_avx2(
        top: &mut [Complex],
        bottom: &mut [Complex],
        w: Complex,
        s: f64,
    ) {
        let n = top.len();
        let tp = top.as_mut_ptr() as *mut f64;
        let bp = bottom.as_mut_ptr() as *mut f64;
        let wre = _mm256_set1_pd(w.re);
        let wim = _mm256_set1_pd(w.im);
        let sv = _mm256_set1_pd(s);
        let mut i = 0;
        while i + 2 <= n {
            let u = _mm256_loadu_pd(tp.add(2 * i));
            let b = _mm256_loadu_pd(bp.add(2 * i));
            let bs = _mm256_permute_pd(b, 0b0101);
            let v = _mm256_addsub_pd(_mm256_mul_pd(b, wre), _mm256_mul_pd(bs, wim));
            _mm256_storeu_pd(tp.add(2 * i), _mm256_mul_pd(_mm256_add_pd(u, v), sv));
            _mm256_storeu_pd(bp.add(2 * i), _mm256_mul_pd(_mm256_sub_pd(u, v), sv));
            i += 2;
        }
        super::butterfly_complex_scale_scalar(&mut top[i..], &mut bottom[i..], w, s);
    }

    #[target_feature(enable = "sse2")]
    pub unsafe fn butterfly_complex_scale_sse2(
        top: &mut [Complex],
        bottom: &mut [Complex],
        w: Complex,
        s: f64,
    ) {
        let n = top.len();
        let tp = top.as_mut_ptr() as *mut f64;
        let bp = bottom.as_mut_ptr() as *mut f64;
        let wre = _mm_set1_pd(w.re);
        let wim = _mm_set1_pd(w.im);
        let sv = _mm_set1_pd(s);
        let neg_lo = _mm_set_pd(0.0, -0.0);
        let mut i = 0;
        while i < n {
            let u = _mm_loadu_pd(tp.add(2 * i));
            let b = _mm_loadu_pd(bp.add(2 * i));
            let bs = _mm_shuffle_pd(b, b, 0b01);
            let t2 = _mm_xor_pd(_mm_mul_pd(bs, wim), neg_lo);
            let v = _mm_add_pd(_mm_mul_pd(b, wre), t2);
            _mm_storeu_pd(tp.add(2 * i), _mm_mul_pd(_mm_add_pd(u, v), sv));
            _mm_storeu_pd(bp.add(2 * i), _mm_mul_pd(_mm_sub_pd(u, v), sv));
            i += 1;
        }
    }

    #[target_feature(enable = "avx512f")]
    pub unsafe fn butterfly_complex_postmul_avx512(
        top: &mut [Complex],
        bottom: &mut [Complex],
        w: Complex,
        ct: Complex,
        cb: Complex,
    ) {
        let n = top.len();
        let tp = top.as_mut_ptr() as *mut f64;
        let bp = bottom.as_mut_ptr() as *mut f64;
        let wre = _mm512_set1_pd(w.re);
        let wim = _mm512_set1_pd(w.im);
        let ctre = _mm512_set1_pd(ct.re);
        let ctim = _mm512_set1_pd(ct.im);
        let cbre = _mm512_set1_pd(cb.re);
        let cbim = _mm512_set1_pd(cb.im);
        let neg = neg_even_512();
        let mut i = 0;
        while i + 4 <= n {
            let u = _mm512_loadu_pd(tp.add(2 * i));
            let b = _mm512_loadu_pd(bp.add(2 * i));
            let bs = _mm512_permute_pd(b, 0x55);
            let t2 = xor_pd_512(_mm512_mul_pd(bs, wim), neg);
            let v = _mm512_add_pd(_mm512_mul_pd(b, wre), t2);
            let a = _mm512_add_pd(u, v);
            let d = _mm512_sub_pd(u, v);
            let at = xor_pd_512(_mm512_mul_pd(_mm512_permute_pd(a, 0x55), ctim), neg);
            _mm512_storeu_pd(tp.add(2 * i), _mm512_add_pd(_mm512_mul_pd(a, ctre), at));
            let dt = xor_pd_512(_mm512_mul_pd(_mm512_permute_pd(d, 0x55), cbim), neg);
            _mm512_storeu_pd(bp.add(2 * i), _mm512_add_pd(_mm512_mul_pd(d, cbre), dt));
            i += 4;
        }
        butterfly_complex_postmul_avx2(&mut top[i..], &mut bottom[i..], w, ct, cb);
    }

    #[target_feature(enable = "avx2")]
    pub unsafe fn butterfly_complex_postmul_avx2(
        top: &mut [Complex],
        bottom: &mut [Complex],
        w: Complex,
        ct: Complex,
        cb: Complex,
    ) {
        let n = top.len();
        let tp = top.as_mut_ptr() as *mut f64;
        let bp = bottom.as_mut_ptr() as *mut f64;
        let wre = _mm256_set1_pd(w.re);
        let wim = _mm256_set1_pd(w.im);
        let ctre = _mm256_set1_pd(ct.re);
        let ctim = _mm256_set1_pd(ct.im);
        let cbre = _mm256_set1_pd(cb.re);
        let cbim = _mm256_set1_pd(cb.im);
        let mut i = 0;
        while i + 2 <= n {
            let u = _mm256_loadu_pd(tp.add(2 * i));
            let b = _mm256_loadu_pd(bp.add(2 * i));
            let bs = _mm256_permute_pd(b, 0b0101);
            let v = _mm256_addsub_pd(_mm256_mul_pd(b, wre), _mm256_mul_pd(bs, wim));
            let a = _mm256_add_pd(u, v);
            let d = _mm256_sub_pd(u, v);
            let ra = _mm256_addsub_pd(
                _mm256_mul_pd(a, ctre),
                _mm256_mul_pd(_mm256_permute_pd(a, 0b0101), ctim),
            );
            _mm256_storeu_pd(tp.add(2 * i), ra);
            let rd = _mm256_addsub_pd(
                _mm256_mul_pd(d, cbre),
                _mm256_mul_pd(_mm256_permute_pd(d, 0b0101), cbim),
            );
            _mm256_storeu_pd(bp.add(2 * i), rd);
            i += 2;
        }
        super::butterfly_complex_postmul_scalar(&mut top[i..], &mut bottom[i..], w, ct, cb);
    }

    #[target_feature(enable = "sse2")]
    pub unsafe fn butterfly_complex_postmul_sse2(
        top: &mut [Complex],
        bottom: &mut [Complex],
        w: Complex,
        ct: Complex,
        cb: Complex,
    ) {
        let n = top.len();
        let tp = top.as_mut_ptr() as *mut f64;
        let bp = bottom.as_mut_ptr() as *mut f64;
        let wre = _mm_set1_pd(w.re);
        let wim = _mm_set1_pd(w.im);
        let ctre = _mm_set1_pd(ct.re);
        let ctim = _mm_set1_pd(ct.im);
        let cbre = _mm_set1_pd(cb.re);
        let cbim = _mm_set1_pd(cb.im);
        let neg_lo = _mm_set_pd(0.0, -0.0);
        let mut i = 0;
        while i < n {
            let u = _mm_loadu_pd(tp.add(2 * i));
            let b = _mm_loadu_pd(bp.add(2 * i));
            let bs = _mm_shuffle_pd(b, b, 0b01);
            let t2 = _mm_xor_pd(_mm_mul_pd(bs, wim), neg_lo);
            let v = _mm_add_pd(_mm_mul_pd(b, wre), t2);
            let a = _mm_add_pd(u, v);
            let d = _mm_sub_pd(u, v);
            let at = _mm_xor_pd(_mm_mul_pd(_mm_shuffle_pd(a, a, 0b01), ctim), neg_lo);
            _mm_storeu_pd(tp.add(2 * i), _mm_add_pd(_mm_mul_pd(a, ctre), at));
            let dt = _mm_xor_pd(_mm_mul_pd(_mm_shuffle_pd(d, d, 0b01), cbim), neg_lo);
            _mm_storeu_pd(bp.add(2 * i), _mm_add_pd(_mm_mul_pd(d, cbre), dt));
            i += 1;
        }
    }

    #[target_feature(enable = "avx512f")]
    pub unsafe fn cmul_rows_avx512(dst: &mut [Complex], src: &[Complex], c: Complex) {
        let n = dst.len();
        let dp = dst.as_mut_ptr() as *mut f64;
        let sp = src.as_ptr() as *const f64;
        let cre = _mm512_set1_pd(c.re);
        let cim = _mm512_set1_pd(c.im);
        let neg = neg_even_512();
        let mut i = 0;
        while i + 4 <= n {
            let s = _mm512_loadu_pd(sp.add(2 * i));
            let ss = _mm512_permute_pd(s, 0x55);
            let t2 = xor_pd_512(_mm512_mul_pd(ss, cim), neg);
            let r = _mm512_add_pd(_mm512_mul_pd(s, cre), t2);
            _mm512_storeu_pd(dp.add(2 * i), r);
            i += 4;
        }
        cmul_rows_avx2(&mut dst[i..], &src[i..], c);
    }

    #[target_feature(enable = "avx512f")]
    pub unsafe fn cmul_scale_rows_avx512(dst: &mut [Complex], src: &[Complex], c: Complex, s: f64) {
        let n = dst.len();
        let dp = dst.as_mut_ptr() as *mut f64;
        let sp = src.as_ptr() as *const f64;
        let cre = _mm512_set1_pd(c.re);
        let cim = _mm512_set1_pd(c.im);
        let sv = _mm512_set1_pd(s);
        let neg = neg_even_512();
        let mut i = 0;
        while i + 4 <= n {
            let x = _mm512_loadu_pd(sp.add(2 * i));
            let xs = _mm512_permute_pd(x, 0x55);
            let t2 = xor_pd_512(_mm512_mul_pd(xs, cim), neg);
            let r = _mm512_add_pd(_mm512_mul_pd(x, cre), t2);
            _mm512_storeu_pd(dp.add(2 * i), _mm512_mul_pd(r, sv));
            i += 4;
        }
        cmul_scale_rows_avx2(&mut dst[i..], &src[i..], c, s);
    }

    #[target_feature(enable = "avx512f")]
    pub unsafe fn cmul_inplace_avx512(row: &mut [Complex], c: Complex) {
        let n = row.len();
        let p = row.as_mut_ptr() as *mut f64;
        let cre = _mm512_set1_pd(c.re);
        let cim = _mm512_set1_pd(c.im);
        let neg = neg_even_512();
        let mut i = 0;
        while i + 4 <= n {
            let v = _mm512_loadu_pd(p.add(2 * i));
            let vs = _mm512_permute_pd(v, 0x55);
            let t2 = xor_pd_512(_mm512_mul_pd(vs, cim), neg);
            let r = _mm512_add_pd(_mm512_mul_pd(v, cre), t2);
            _mm512_storeu_pd(p.add(2 * i), r);
            i += 4;
        }
        cmul_inplace_avx2(&mut row[i..], c);
    }

    #[target_feature(enable = "avx512f")]
    pub unsafe fn cmul_scale_inplace_avx512(row: &mut [Complex], c: Complex, s: f64) {
        let n = row.len();
        let p = row.as_mut_ptr() as *mut f64;
        let cre = _mm512_set1_pd(c.re);
        let cim = _mm512_set1_pd(c.im);
        let sv = _mm512_set1_pd(s);
        let neg = neg_even_512();
        let mut i = 0;
        while i + 4 <= n {
            let v = _mm512_loadu_pd(p.add(2 * i));
            let vs = _mm512_permute_pd(v, 0x55);
            let t2 = xor_pd_512(_mm512_mul_pd(vs, cim), neg);
            let r = _mm512_add_pd(_mm512_mul_pd(v, cre), t2);
            _mm512_storeu_pd(p.add(2 * i), _mm512_mul_pd(r, sv));
            i += 4;
        }
        cmul_scale_inplace_avx2(&mut row[i..], c, s);
    }

    #[target_feature(enable = "avx512f")]
    pub unsafe fn scale_f64_avx512(data: &mut [f64], s: f64) {
        let n = data.len();
        let p = data.as_mut_ptr();
        let sv = _mm512_set1_pd(s);
        let mut i = 0;
        while i + 8 <= n {
            _mm512_storeu_pd(p.add(i), _mm512_mul_pd(_mm512_loadu_pd(p.add(i)), sv));
            i += 8;
        }
        super::scale_f64_scalar(&mut data[i..], s);
    }

    #[target_feature(enable = "avx512f")]
    pub unsafe fn mul_rows_f64_avx512(dst: &mut [f64], src: &[f64], s: f64) {
        let n = dst.len();
        let dp = dst.as_mut_ptr();
        let sp = src.as_ptr();
        let sv = _mm512_set1_pd(s);
        let mut i = 0;
        while i + 8 <= n {
            _mm512_storeu_pd(dp.add(i), _mm512_mul_pd(sv, _mm512_loadu_pd(sp.add(i))));
            i += 8;
        }
        super::mul_rows_f64_scalar(&mut dst[i..], &src[i..], s);
    }

    #[target_feature(enable = "avx2")]
    pub unsafe fn butterfly_f64_avx2(top: &mut [f64], bottom: &mut [f64]) {
        let n = top.len();
        let tp = top.as_mut_ptr();
        let bp = bottom.as_mut_ptr();
        let mut i = 0;
        while i + 4 <= n {
            let x = _mm256_loadu_pd(tp.add(i));
            let y = _mm256_loadu_pd(bp.add(i));
            _mm256_storeu_pd(tp.add(i), _mm256_add_pd(x, y));
            _mm256_storeu_pd(bp.add(i), _mm256_sub_pd(x, y));
            i += 4;
        }
        super::butterfly_f64_scalar(&mut top[i..], &mut bottom[i..]);
    }

    #[target_feature(enable = "sse2")]
    pub unsafe fn butterfly_f64_sse2(top: &mut [f64], bottom: &mut [f64]) {
        let n = top.len();
        let tp = top.as_mut_ptr();
        let bp = bottom.as_mut_ptr();
        let mut i = 0;
        while i + 2 <= n {
            let x = _mm_loadu_pd(tp.add(i));
            let y = _mm_loadu_pd(bp.add(i));
            _mm_storeu_pd(tp.add(i), _mm_add_pd(x, y));
            _mm_storeu_pd(bp.add(i), _mm_sub_pd(x, y));
            i += 2;
        }
        super::butterfly_f64_scalar(&mut top[i..], &mut bottom[i..]);
    }

    #[target_feature(enable = "avx2")]
    pub unsafe fn butterfly_i64_avx2(top: &mut [i64], bottom: &mut [i64]) {
        let n = top.len();
        let tp = top.as_mut_ptr();
        let bp = bottom.as_mut_ptr();
        let mut i = 0;
        while i + 4 <= n {
            let x = _mm256_loadu_si256(tp.add(i) as *const __m256i);
            let y = _mm256_loadu_si256(bp.add(i) as *const __m256i);
            _mm256_storeu_si256(tp.add(i) as *mut __m256i, _mm256_add_epi64(x, y));
            _mm256_storeu_si256(bp.add(i) as *mut __m256i, _mm256_sub_epi64(x, y));
            i += 4;
        }
        super::butterfly_i64_scalar(&mut top[i..], &mut bottom[i..]);
    }

    #[target_feature(enable = "sse2")]
    pub unsafe fn butterfly_i64_sse2(top: &mut [i64], bottom: &mut [i64]) {
        let n = top.len();
        let tp = top.as_mut_ptr();
        let bp = bottom.as_mut_ptr();
        let mut i = 0;
        while i + 2 <= n {
            let x = _mm_loadu_si128(tp.add(i) as *const __m128i);
            let y = _mm_loadu_si128(bp.add(i) as *const __m128i);
            _mm_storeu_si128(tp.add(i) as *mut __m128i, _mm_add_epi64(x, y));
            _mm_storeu_si128(bp.add(i) as *mut __m128i, _mm_sub_epi64(x, y));
            i += 2;
        }
        super::butterfly_i64_scalar(&mut top[i..], &mut bottom[i..]);
    }

    #[target_feature(enable = "avx2")]
    pub unsafe fn butterfly_complex_avx2(top: &mut [Complex], bottom: &mut [Complex], w: Complex) {
        let n = top.len();
        let tp = top.as_mut_ptr() as *mut f64;
        let bp = bottom.as_mut_ptr() as *mut f64;
        let wre = _mm256_set1_pd(w.re);
        let wim = _mm256_set1_pd(w.im);
        let mut i = 0;
        while i + 2 <= n {
            let u = _mm256_loadu_pd(tp.add(2 * i));
            let b = _mm256_loadu_pd(bp.add(2 * i));
            let bs = _mm256_permute_pd(b, 0b0101);
            let v = _mm256_addsub_pd(_mm256_mul_pd(b, wre), _mm256_mul_pd(bs, wim));
            _mm256_storeu_pd(tp.add(2 * i), _mm256_add_pd(u, v));
            _mm256_storeu_pd(bp.add(2 * i), _mm256_sub_pd(u, v));
            i += 2;
        }
        super::butterfly_complex_scalar(&mut top[i..], &mut bottom[i..], w);
    }

    #[target_feature(enable = "sse2")]
    pub unsafe fn butterfly_complex_sse2(top: &mut [Complex], bottom: &mut [Complex], w: Complex) {
        let n = top.len();
        let tp = top.as_mut_ptr() as *mut f64;
        let bp = bottom.as_mut_ptr() as *mut f64;
        let wre = _mm_set1_pd(w.re);
        let wim = _mm_set1_pd(w.im);
        // Sign-flip mask for the low (real) lane: x + (−y) ≡ x − y.
        let neg_lo = _mm_set_pd(0.0, -0.0);
        let mut i = 0;
        while i < n {
            let u = _mm_loadu_pd(tp.add(2 * i));
            let b = _mm_loadu_pd(bp.add(2 * i));
            let bs = _mm_shuffle_pd(b, b, 0b01);
            let t2 = _mm_xor_pd(_mm_mul_pd(bs, wim), neg_lo);
            let v = _mm_add_pd(_mm_mul_pd(b, wre), t2);
            _mm_storeu_pd(tp.add(2 * i), _mm_add_pd(u, v));
            _mm_storeu_pd(bp.add(2 * i), _mm_sub_pd(u, v));
            i += 1;
        }
    }

    #[target_feature(enable = "avx2")]
    pub unsafe fn cmul_rows_avx2(dst: &mut [Complex], src: &[Complex], c: Complex) {
        let n = dst.len();
        let dp = dst.as_mut_ptr() as *mut f64;
        let sp = src.as_ptr() as *const f64;
        let cre = _mm256_set1_pd(c.re);
        let cim = _mm256_set1_pd(c.im);
        let mut i = 0;
        while i + 2 <= n {
            let s = _mm256_loadu_pd(sp.add(2 * i));
            let ss = _mm256_permute_pd(s, 0b0101);
            let r = _mm256_addsub_pd(_mm256_mul_pd(s, cre), _mm256_mul_pd(ss, cim));
            _mm256_storeu_pd(dp.add(2 * i), r);
            i += 2;
        }
        super::cmul_rows_scalar(&mut dst[i..], &src[i..], c);
    }

    #[target_feature(enable = "sse2")]
    pub unsafe fn cmul_rows_sse2(dst: &mut [Complex], src: &[Complex], c: Complex) {
        let n = dst.len();
        let dp = dst.as_mut_ptr() as *mut f64;
        let sp = src.as_ptr() as *const f64;
        let cre = _mm_set1_pd(c.re);
        let cim = _mm_set1_pd(c.im);
        let neg_lo = _mm_set_pd(0.0, -0.0);
        let mut i = 0;
        while i < n {
            let s = _mm_loadu_pd(sp.add(2 * i));
            let ss = _mm_shuffle_pd(s, s, 0b01);
            let t2 = _mm_xor_pd(_mm_mul_pd(ss, cim), neg_lo);
            let r = _mm_add_pd(_mm_mul_pd(s, cre), t2);
            _mm_storeu_pd(dp.add(2 * i), r);
            i += 1;
        }
    }

    #[target_feature(enable = "avx2")]
    pub unsafe fn cmul_scale_rows_avx2(dst: &mut [Complex], src: &[Complex], c: Complex, s: f64) {
        let n = dst.len();
        let dp = dst.as_mut_ptr() as *mut f64;
        let sp = src.as_ptr() as *const f64;
        let cre = _mm256_set1_pd(c.re);
        let cim = _mm256_set1_pd(c.im);
        let sv = _mm256_set1_pd(s);
        let mut i = 0;
        while i + 2 <= n {
            let x = _mm256_loadu_pd(sp.add(2 * i));
            let xs = _mm256_permute_pd(x, 0b0101);
            let r = _mm256_addsub_pd(_mm256_mul_pd(x, cre), _mm256_mul_pd(xs, cim));
            _mm256_storeu_pd(dp.add(2 * i), _mm256_mul_pd(r, sv));
            i += 2;
        }
        super::cmul_scale_rows_scalar(&mut dst[i..], &src[i..], c, s);
    }

    #[target_feature(enable = "sse2")]
    pub unsafe fn cmul_scale_rows_sse2(dst: &mut [Complex], src: &[Complex], c: Complex, s: f64) {
        let n = dst.len();
        let dp = dst.as_mut_ptr() as *mut f64;
        let sp = src.as_ptr() as *const f64;
        let cre = _mm_set1_pd(c.re);
        let cim = _mm_set1_pd(c.im);
        let sv = _mm_set1_pd(s);
        let neg_lo = _mm_set_pd(0.0, -0.0);
        let mut i = 0;
        while i < n {
            let x = _mm_loadu_pd(sp.add(2 * i));
            let xs = _mm_shuffle_pd(x, x, 0b01);
            let t2 = _mm_xor_pd(_mm_mul_pd(xs, cim), neg_lo);
            let r = _mm_add_pd(_mm_mul_pd(x, cre), t2);
            _mm_storeu_pd(dp.add(2 * i), _mm_mul_pd(r, sv));
            i += 1;
        }
    }

    #[target_feature(enable = "avx2")]
    pub unsafe fn cmul_inplace_avx2(row: &mut [Complex], c: Complex) {
        let n = row.len();
        let p = row.as_mut_ptr() as *mut f64;
        let cre = _mm256_set1_pd(c.re);
        let cim = _mm256_set1_pd(c.im);
        let mut i = 0;
        while i + 2 <= n {
            let v = _mm256_loadu_pd(p.add(2 * i));
            let vs = _mm256_permute_pd(v, 0b0101);
            let r = _mm256_addsub_pd(_mm256_mul_pd(v, cre), _mm256_mul_pd(vs, cim));
            _mm256_storeu_pd(p.add(2 * i), r);
            i += 2;
        }
        super::cmul_inplace_scalar(&mut row[i..], c);
    }

    #[target_feature(enable = "sse2")]
    pub unsafe fn cmul_inplace_sse2(row: &mut [Complex], c: Complex) {
        let n = row.len();
        let p = row.as_mut_ptr() as *mut f64;
        let cre = _mm_set1_pd(c.re);
        let cim = _mm_set1_pd(c.im);
        let neg_lo = _mm_set_pd(0.0, -0.0);
        let mut i = 0;
        while i < n {
            let v = _mm_loadu_pd(p.add(2 * i));
            let vs = _mm_shuffle_pd(v, v, 0b01);
            let t2 = _mm_xor_pd(_mm_mul_pd(vs, cim), neg_lo);
            let r = _mm_add_pd(_mm_mul_pd(v, cre), t2);
            _mm_storeu_pd(p.add(2 * i), r);
            i += 1;
        }
    }

    #[target_feature(enable = "avx2")]
    pub unsafe fn cmul_scale_inplace_avx2(row: &mut [Complex], c: Complex, s: f64) {
        let n = row.len();
        let p = row.as_mut_ptr() as *mut f64;
        let cre = _mm256_set1_pd(c.re);
        let cim = _mm256_set1_pd(c.im);
        let sv = _mm256_set1_pd(s);
        let mut i = 0;
        while i + 2 <= n {
            let v = _mm256_loadu_pd(p.add(2 * i));
            let vs = _mm256_permute_pd(v, 0b0101);
            let r = _mm256_addsub_pd(_mm256_mul_pd(v, cre), _mm256_mul_pd(vs, cim));
            _mm256_storeu_pd(p.add(2 * i), _mm256_mul_pd(r, sv));
            i += 2;
        }
        super::cmul_scale_inplace_scalar(&mut row[i..], c, s);
    }

    #[target_feature(enable = "sse2")]
    pub unsafe fn cmul_scale_inplace_sse2(row: &mut [Complex], c: Complex, s: f64) {
        let n = row.len();
        let p = row.as_mut_ptr() as *mut f64;
        let cre = _mm_set1_pd(c.re);
        let cim = _mm_set1_pd(c.im);
        let sv = _mm_set1_pd(s);
        let neg_lo = _mm_set_pd(0.0, -0.0);
        let mut i = 0;
        while i < n {
            let v = _mm_loadu_pd(p.add(2 * i));
            let vs = _mm_shuffle_pd(v, v, 0b01);
            let t2 = _mm_xor_pd(_mm_mul_pd(vs, cim), neg_lo);
            let r = _mm_add_pd(_mm_mul_pd(v, cre), t2);
            _mm_storeu_pd(p.add(2 * i), _mm_mul_pd(r, sv));
            i += 1;
        }
    }

    #[target_feature(enable = "avx2")]
    pub unsafe fn widen_re_avx2(dst: &mut [Complex], src: &[f64]) {
        let n = dst.len();
        let dp = dst.as_mut_ptr() as *mut f64;
        let sp = src.as_ptr();
        let zero = _mm256_setzero_pd();
        let mut i = 0;
        while i + 4 <= n {
            let x = _mm256_loadu_pd(sp.add(i));
            // [x0,x2,x1,x3] so in-lane unpacks yield interleaved pairs.
            let xp = _mm256_permute4x64_pd(x, 0xD8);
            _mm256_storeu_pd(dp.add(2 * i), _mm256_unpacklo_pd(xp, zero));
            _mm256_storeu_pd(dp.add(2 * i + 4), _mm256_unpackhi_pd(xp, zero));
            i += 4;
        }
        super::widen_re_scalar(&mut dst[i..], &src[i..]);
    }

    #[target_feature(enable = "sse2")]
    pub unsafe fn widen_re_sse2(dst: &mut [Complex], src: &[f64]) {
        let n = dst.len();
        let dp = dst.as_mut_ptr() as *mut f64;
        let sp = src.as_ptr();
        let zero = _mm_setzero_pd();
        let mut i = 0;
        while i + 2 <= n {
            let x = _mm_loadu_pd(sp.add(i));
            _mm_storeu_pd(dp.add(2 * i), _mm_unpacklo_pd(x, zero));
            _mm_storeu_pd(dp.add(2 * i + 2), _mm_unpackhi_pd(x, zero));
            i += 2;
        }
        super::widen_re_scalar(&mut dst[i..], &src[i..]);
    }

    #[target_feature(enable = "avx2")]
    pub unsafe fn narrow_re_avx2(dst: &mut [f64], src: &[Complex]) {
        let n = dst.len();
        let dp = dst.as_mut_ptr();
        let sp = src.as_ptr() as *const f64;
        let mut i = 0;
        while i + 4 <= n {
            let a = _mm256_loadu_pd(sp.add(2 * i));
            let b = _mm256_loadu_pd(sp.add(2 * i + 4));
            let packed = _mm256_unpacklo_pd(a, b);
            _mm256_storeu_pd(dp.add(i), _mm256_permute4x64_pd(packed, 0xD8));
            i += 4;
        }
        super::narrow_re_scalar(&mut dst[i..], &src[i..]);
    }

    #[target_feature(enable = "sse2")]
    pub unsafe fn narrow_re_sse2(dst: &mut [f64], src: &[Complex]) {
        let n = dst.len();
        let dp = dst.as_mut_ptr();
        let sp = src.as_ptr() as *const f64;
        let mut i = 0;
        while i + 2 <= n {
            let a = _mm_loadu_pd(sp.add(2 * i));
            let b = _mm_loadu_pd(sp.add(2 * i + 2));
            _mm_storeu_pd(dp.add(i), _mm_unpacklo_pd(a, b));
            i += 2;
        }
        super::narrow_re_scalar(&mut dst[i..], &src[i..]);
    }

    #[target_feature(enable = "avx2")]
    pub unsafe fn scale_f64_avx2(data: &mut [f64], s: f64) {
        let n = data.len();
        let p = data.as_mut_ptr();
        let sv = _mm256_set1_pd(s);
        let mut i = 0;
        while i + 4 <= n {
            _mm256_storeu_pd(p.add(i), _mm256_mul_pd(_mm256_loadu_pd(p.add(i)), sv));
            i += 4;
        }
        super::scale_f64_scalar(&mut data[i..], s);
    }

    #[target_feature(enable = "sse2")]
    pub unsafe fn scale_f64_sse2(data: &mut [f64], s: f64) {
        let n = data.len();
        let p = data.as_mut_ptr();
        let sv = _mm_set1_pd(s);
        let mut i = 0;
        while i + 2 <= n {
            _mm_storeu_pd(p.add(i), _mm_mul_pd(_mm_loadu_pd(p.add(i)), sv));
            i += 2;
        }
        super::scale_f64_scalar(&mut data[i..], s);
    }

    #[target_feature(enable = "avx2")]
    pub unsafe fn mul_rows_f64_avx2(dst: &mut [f64], src: &[f64], s: f64) {
        let n = dst.len();
        let dp = dst.as_mut_ptr();
        let sp = src.as_ptr();
        let sv = _mm256_set1_pd(s);
        let mut i = 0;
        while i + 4 <= n {
            _mm256_storeu_pd(dp.add(i), _mm256_mul_pd(sv, _mm256_loadu_pd(sp.add(i))));
            i += 4;
        }
        super::mul_rows_f64_scalar(&mut dst[i..], &src[i..], s);
    }

    #[target_feature(enable = "sse2")]
    pub unsafe fn mul_rows_f64_sse2(dst: &mut [f64], src: &[f64], s: f64) {
        let n = dst.len();
        let dp = dst.as_mut_ptr();
        let sp = src.as_ptr();
        let sv = _mm_set1_pd(s);
        let mut i = 0;
        while i + 2 <= n {
            _mm_storeu_pd(dp.add(i), _mm_mul_pd(sv, _mm_loadu_pd(sp.add(i))));
            i += 2;
        }
        super::mul_rows_f64_scalar(&mut dst[i..], &src[i..], s);
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
