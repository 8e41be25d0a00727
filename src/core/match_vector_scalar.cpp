// Scalar-lane instantiation of the lane-batched kernels: the
// portable fallback (and the -DSMA_SIMD=OFF build's only kernel).
// Compiled with the default target flags.
#include "core/match_vector_impl.hpp"

namespace sma::core {

void scan_tile_scalar(const VectorTileArgs& g, PixelBest* best,
                      VectorLaneTally& tally) {
  detail::scan_tile_t<simd::ScalarTag>(g, best, tally);
}

void scan_pixel_scalar(const VectorKernelArgs& g, PixelBest& best,
                       VectorLaneTally& tally) {
  detail::scan_pixel_t<simd::ScalarTag>(g, best, tally);
}

void batch_solve6_scalar(const double* a, const double* b, double* x,
                         unsigned char* singular, double eps) {
  detail::batch_solve_soa<simd::ScalarTag>(a, b, x, singular, eps);
}

}  // namespace sma::core
