// NEON (AArch64) instantiation of the lane-batched kernels.
// Advanced SIMD is architectural on AArch64, so no extra target flags.
#include "core/match_vector_impl.hpp"

#if !defined(__ARM_NEON)
#error "match_vector_neon.cpp requires Advanced SIMD (AArch64 baseline)"
#endif

namespace sma::core {

void scan_tile_neon(const VectorTileArgs& g, PixelBest* best,
                    VectorLaneTally& tally) {
  detail::scan_tile_t<simd::NeonTag>(g, best, tally);
}

void scan_pixel_neon(const VectorKernelArgs& g, PixelBest& best,
                     VectorLaneTally& tally) {
  detail::scan_pixel_t<simd::NeonTag>(g, best, tally);
}

void batch_solve6_neon(const double* a, const double* b, double* x,
                       unsigned char* singular, double eps) {
  detail::batch_solve_soa<simd::NeonTag>(a, b, x, singular, eps);
}

}  // namespace sma::core
