// AVX2 instantiation of the lane-batched kernels: four lanes per
// batch.  This is the ONLY translation unit built with -mavx2 (see
// src/core/CMakeLists.txt); its exported symbols are the uniquely-named
// entry points below, reached solely through runtime dispatch after
// __builtin_cpu_supports("avx2") — the standard per-file-ISA pattern.
// DESIGN.md §13 discusses the residual comdat caveat and the
// -DSMA_SIMD=OFF escape hatch.
#include "core/match_vector_impl.hpp"

#if !defined(__AVX2__)
#error "match_vector_avx2.cpp must be compiled with -mavx2"
#endif

namespace sma::core {

void scan_tile_avx2(const VectorTileArgs& g, PixelBest* best,
                    VectorLaneTally& tally) {
  detail::scan_tile_t<simd::Avx2Tag>(g, best, tally);
}

void batch_factor_apply6_avx2(const double* a, const double* b, int nrhs,
                              double* x, unsigned char* singular, double eps) {
  detail::batch_factor_apply_soa<simd::Avx2Tag>(a, b, nrhs, x, singular, eps);
}

}  // namespace sma::core
