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

void batch_factor_apply6_neon(const double* a, const double* b, int nrhs,
                              double* x, unsigned char* singular, double eps) {
  detail::batch_factor_apply_soa<simd::NeonTag>(a, b, nrhs, x, singular, eps);
}

}  // namespace sma::core
