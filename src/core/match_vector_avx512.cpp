// AVX-512 instantiation of the lane-batched kernels: eight lanes per
// batch.  This is the ONLY translation unit built with
// -mavx512f -mavx512dq (see src/core/CMakeLists.txt); its exported
// symbols are the uniquely-named entry points below, reached solely
// through runtime dispatch after __builtin_cpu_supports("avx512f") &&
// __builtin_cpu_supports("avx512dq") — the standard per-file-ISA
// pattern.  DESIGN.md §13 discusses the residual comdat caveat and the
// -DSMA_SIMD=OFF escape hatch.
#include "core/match_vector_impl.hpp"

#if !defined(__AVX512F__) || !defined(__AVX512DQ__)
#error "match_vector_avx512.cpp must be compiled with -mavx512f -mavx512dq"
#endif

namespace sma::core {

void scan_tile_avx512(const VectorTileArgs& g, PixelBest* best,
                      VectorLaneTally& tally) {
  detail::scan_tile_t<simd::Avx512Tag>(g, best, tally);
}

void batch_solve6_avx512(const double* a, const double* b, double* x,
                         unsigned char* singular, double eps) {
  detail::batch_solve_soa<simd::Avx512Tag>(a, b, x, singular, eps);
}

}  // namespace sma::core
