// lane.hpp — portable SIMD lane abstraction for double-precision batch
// kernels.
//
// The paper's axis of data-level parallelism is the PE array: 16K MasPar
// processors march the same instruction over different pixels.  On a
// modern host the analogous axis is the vector register: this header
// provides a tag-dispatched `LaneTraits<Tag>` family — scalar, SSE2,
// AVX2, AVX-512 and NEON — whose operations are all *per-lane IEEE-754
// exact*
// (packed add/sub/mul/div/sqrt round identically to their scalar
// counterparts), so a kernel written against the traits produces
// bit-identical per-lane results on every implementation.  That is the
// foundation of the `vector` TrackerBackend's equivalence contract: a
// lane is one pixel, and each lane's accumulation order is the same as
// the scalar reference's.
//
// Rules a traits implementation must obey:
//  * No fused multiply-add: callers spell mul-then-add so the compiled
//    code matches the scalar path built with -ffp-contract=off.
//  * Masks are full-width per-lane bit patterns; select() is bitwise
//    (NaN/±0 payloads survive exactly).
//  * Comparisons are ordered and non-signaling (NaN compares false).
//
// Which specializations exist in a given translation unit depends on
// the architecture macros in effect when it is compiled: the per-ISA
// kernel TUs (core/match_vector_<isa>.cpp) are built with the matching
// -m flags, the rest of the tree never sees the wide types.  Runtime
// selection lives in simd/dispatch.hpp.
#pragma once

#include <cmath>
#include <cstdint>

#if defined(__SSE2__) || defined(__AVX2__) || defined(__AVX512F__)
#include <immintrin.h>
#endif
#if defined(__ARM_NEON)
#include <arm_neon.h>
#endif

namespace sma::simd {

// ---------------------------------------------------------------------------
// Tags.  ScalarTag always exists; the wide tags exist only where the
// architecture macros say their intrinsics are available.
// ---------------------------------------------------------------------------

struct ScalarTag {};
#if defined(__SSE2__)
struct Sse2Tag {};
#endif
#if defined(__AVX2__)
struct Avx2Tag {};
#endif
#if defined(__AVX512F__)
struct Avx512Tag {};
#endif
#if defined(__ARM_NEON)
struct NeonTag {};
#endif

template <class Tag>
struct LaneTraits;

// ---------------------------------------------------------------------------
// Scalar reference implementation: a two-wide "vector" of plain doubles.
// Every operation is a per-lane loop of ordinary scalar arithmetic, so
// this is both the portable fallback (-DSMA_SIMD=OFF builds route every
// batch through it) and the executable specification the wide
// implementations are property-tested against.
// ---------------------------------------------------------------------------

template <>
struct LaneTraits<ScalarTag> {
  static constexpr int kLanes = 2;

  struct Vec {
    double v[kLanes];
  };
  struct Mask {
    bool m[kLanes];
  };

  static Vec zero() { return Vec{{0.0, 0.0}}; }
  static Vec broadcast(double s) { return Vec{{s, s}}; }
  static Vec load(const double* p) { return Vec{{p[0], p[1]}}; }
  static void store(double* p, Vec a) {
    p[0] = a.v[0];
    p[1] = a.v[1];
  }
  /// Loads kLanes consecutive floats and widens them (lossless).
  static Vec load_f32(const float* p) {
    return Vec{{static_cast<double>(p[0]), static_cast<double>(p[1])}};
  }

  static Vec add(Vec a, Vec b) {
    for (int l = 0; l < kLanes; ++l) a.v[l] += b.v[l];
    return a;
  }
  static Vec sub(Vec a, Vec b) {
    for (int l = 0; l < kLanes; ++l) a.v[l] -= b.v[l];
    return a;
  }
  static Vec mul(Vec a, Vec b) {
    for (int l = 0; l < kLanes; ++l) a.v[l] *= b.v[l];
    return a;
  }
  static Vec div(Vec a, Vec b) {
    for (int l = 0; l < kLanes; ++l) a.v[l] /= b.v[l];
    return a;
  }
  static Vec abs(Vec a) {
    for (int l = 0; l < kLanes; ++l) a.v[l] = std::fabs(a.v[l]);
    return a;
  }

  static Mask cmp_gt(Vec a, Vec b) {
    Mask m;
    for (int l = 0; l < kLanes; ++l) m.m[l] = a.v[l] > b.v[l];
    return m;
  }
  static Mask cmp_lt(Vec a, Vec b) {
    Mask m;
    for (int l = 0; l < kLanes; ++l) m.m[l] = a.v[l] < b.v[l];
    return m;
  }
  static Mask cmp_eq(Vec a, Vec b) {
    Mask m;
    for (int l = 0; l < kLanes; ++l) m.m[l] = a.v[l] == b.v[l];
    return m;
  }
  static Mask mask_or(Mask a, Mask b) {
    for (int l = 0; l < kLanes; ++l) a.m[l] = a.m[l] || b.m[l];
    return a;
  }
  /// mask ? a : b, per lane (bitwise on the wide implementations).
  static Vec select(Mask m, Vec a, Vec b) {
    for (int l = 0; l < kLanes; ++l)
      if (!m.m[l]) a.v[l] = b.v[l];
    return a;
  }
  /// Lane-l-is-set bits of the mask, LSB = lane 0.
  static unsigned mask_bits(Mask m) {
    unsigned bits = 0;
    for (int l = 0; l < kLanes; ++l)
      if (m.m[l]) bits |= 1u << l;
    return bits;
  }
  static bool mask_any(Mask m) { return mask_bits(m) != 0; }
};

// ---------------------------------------------------------------------------
// SSE2: two doubles per register.  Baseline on x86-64.
// ---------------------------------------------------------------------------

#if defined(__SSE2__)
template <>
struct LaneTraits<Sse2Tag> {
  static constexpr int kLanes = 2;
  using Vec = __m128d;
  using Mask = __m128d;  // all-ones / all-zeros lanes from cmp*

  static Vec zero() { return _mm_setzero_pd(); }
  static Vec broadcast(double s) { return _mm_set1_pd(s); }
  static Vec load(const double* p) { return _mm_loadu_pd(p); }
  static void store(double* p, Vec a) { _mm_storeu_pd(p, a); }
  static Vec load_f32(const float* p) {
    return _mm_cvtps_pd(
        _mm_castsi128_ps(_mm_loadl_epi64(reinterpret_cast<const __m128i*>(p))));
  }

  static Vec add(Vec a, Vec b) { return _mm_add_pd(a, b); }
  static Vec sub(Vec a, Vec b) { return _mm_sub_pd(a, b); }
  static Vec mul(Vec a, Vec b) { return _mm_mul_pd(a, b); }
  static Vec div(Vec a, Vec b) { return _mm_div_pd(a, b); }
  static Vec abs(Vec a) {
    return _mm_andnot_pd(_mm_set1_pd(-0.0), a);
  }

  static Mask cmp_gt(Vec a, Vec b) { return _mm_cmpgt_pd(a, b); }
  static Mask cmp_lt(Vec a, Vec b) { return _mm_cmplt_pd(a, b); }
  static Mask cmp_eq(Vec a, Vec b) { return _mm_cmpeq_pd(a, b); }
  static Mask mask_or(Mask a, Mask b) { return _mm_or_pd(a, b); }
  static Vec select(Mask m, Vec a, Vec b) {
    return _mm_or_pd(_mm_and_pd(m, a), _mm_andnot_pd(m, b));
  }
  static unsigned mask_bits(Mask m) {
    return static_cast<unsigned>(_mm_movemask_pd(m));
  }
  static bool mask_any(Mask m) { return mask_bits(m) != 0; }
};
#endif  // __SSE2__

// ---------------------------------------------------------------------------
// AVX2: four doubles per register.
// ---------------------------------------------------------------------------

#if defined(__AVX2__)
template <>
struct LaneTraits<Avx2Tag> {
  static constexpr int kLanes = 4;
  using Vec = __m256d;
  using Mask = __m256d;

  static Vec zero() { return _mm256_setzero_pd(); }
  static Vec broadcast(double s) { return _mm256_set1_pd(s); }
  static Vec load(const double* p) { return _mm256_loadu_pd(p); }
  static void store(double* p, Vec a) { _mm256_storeu_pd(p, a); }
  static Vec load_f32(const float* p) {
    return _mm256_cvtps_pd(_mm_loadu_ps(p));
  }

  static Vec add(Vec a, Vec b) { return _mm256_add_pd(a, b); }
  static Vec sub(Vec a, Vec b) { return _mm256_sub_pd(a, b); }
  static Vec mul(Vec a, Vec b) { return _mm256_mul_pd(a, b); }
  static Vec div(Vec a, Vec b) { return _mm256_div_pd(a, b); }
  static Vec abs(Vec a) {
    return _mm256_andnot_pd(_mm256_set1_pd(-0.0), a);
  }

  static Mask cmp_gt(Vec a, Vec b) {
    return _mm256_cmp_pd(a, b, _CMP_GT_OQ);
  }
  static Mask cmp_lt(Vec a, Vec b) {
    return _mm256_cmp_pd(a, b, _CMP_LT_OQ);
  }
  static Mask cmp_eq(Vec a, Vec b) {
    return _mm256_cmp_pd(a, b, _CMP_EQ_OQ);
  }
  static Mask mask_or(Mask a, Mask b) { return _mm256_or_pd(a, b); }
  static Vec select(Mask m, Vec a, Vec b) {
    return _mm256_blendv_pd(b, a, m);
  }
  static unsigned mask_bits(Mask m) {
    return static_cast<unsigned>(_mm256_movemask_pd(m));
  }
  static bool mask_any(Mask m) { return mask_bits(m) != 0; }
};
#endif  // __AVX2__

// ---------------------------------------------------------------------------
// AVX-512: eight doubles per register.  Unlike the older x86 families,
// comparisons produce opmask registers (__mmask8) rather than all-ones
// lanes, so Mask is the k-register and select() is a masked blend; the
// lane arithmetic itself rounds identically to scalar, which is all the
// bit-identity contract needs.
// ---------------------------------------------------------------------------

#if defined(__AVX512F__)
template <>
struct LaneTraits<Avx512Tag> {
  static constexpr int kLanes = 8;
  using Vec = __m512d;
  using Mask = __mmask8;

  static Vec zero() { return _mm512_setzero_pd(); }
  static Vec broadcast(double s) { return _mm512_set1_pd(s); }
  static Vec load(const double* p) { return _mm512_loadu_pd(p); }
  static void store(double* p, Vec a) { _mm512_storeu_pd(p, a); }
  static Vec load_f32(const float* p) {
    return _mm512_cvtps_pd(_mm256_loadu_ps(p));
  }

  static Vec add(Vec a, Vec b) { return _mm512_add_pd(a, b); }
  static Vec sub(Vec a, Vec b) { return _mm512_sub_pd(a, b); }
  static Vec mul(Vec a, Vec b) { return _mm512_mul_pd(a, b); }
  static Vec div(Vec a, Vec b) { return _mm512_div_pd(a, b); }
  static Vec abs(Vec a) { return _mm512_abs_pd(a); }

  static Mask cmp_gt(Vec a, Vec b) {
    return _mm512_cmp_pd_mask(a, b, _CMP_GT_OQ);
  }
  static Mask cmp_lt(Vec a, Vec b) {
    return _mm512_cmp_pd_mask(a, b, _CMP_LT_OQ);
  }
  static Mask cmp_eq(Vec a, Vec b) {
    return _mm512_cmp_pd_mask(a, b, _CMP_EQ_OQ);
  }
  static Mask mask_or(Mask a, Mask b) {
    return static_cast<Mask>(a | b);
  }
  static Vec select(Mask m, Vec a, Vec b) {
    return _mm512_mask_blend_pd(m, b, a);
  }
  static unsigned mask_bits(Mask m) { return static_cast<unsigned>(m); }
  static bool mask_any(Mask m) { return m != 0; }
};
#endif  // __AVX512F__

// ---------------------------------------------------------------------------
// NEON (AArch64): two doubles per register.
// ---------------------------------------------------------------------------

#if defined(__ARM_NEON)
template <>
struct LaneTraits<NeonTag> {
  static constexpr int kLanes = 2;
  using Vec = float64x2_t;
  using Mask = uint64x2_t;

  static Vec zero() { return vdupq_n_f64(0.0); }
  static Vec broadcast(double s) { return vdupq_n_f64(s); }
  static Vec load(const double* p) { return vld1q_f64(p); }
  static void store(double* p, Vec a) { vst1q_f64(p, a); }
  static Vec load_f32(const float* p) {
    return vcvt_f64_f32(vld1_f32(p));
  }

  static Vec add(Vec a, Vec b) { return vaddq_f64(a, b); }
  static Vec sub(Vec a, Vec b) { return vsubq_f64(a, b); }
  static Vec mul(Vec a, Vec b) { return vmulq_f64(a, b); }
  static Vec div(Vec a, Vec b) { return vdivq_f64(a, b); }
  static Vec abs(Vec a) { return vabsq_f64(a); }

  static Mask cmp_gt(Vec a, Vec b) { return vcgtq_f64(a, b); }
  static Mask cmp_lt(Vec a, Vec b) { return vcltq_f64(a, b); }
  static Mask cmp_eq(Vec a, Vec b) { return vceqq_f64(a, b); }
  static Mask mask_or(Mask a, Mask b) { return vorrq_u64(a, b); }
  static Vec select(Mask m, Vec a, Vec b) { return vbslq_f64(m, a, b); }
  static unsigned mask_bits(Mask m) {
    return static_cast<unsigned>((vgetq_lane_u64(m, 0) & 1) |
                                 ((vgetq_lane_u64(m, 1) & 1) << 1));
  }
  static bool mask_any(Mask m) { return mask_bits(m) != 0; }
};
#endif  // __ARM_NEON

}  // namespace sma::simd
