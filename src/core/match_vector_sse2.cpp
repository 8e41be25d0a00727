// SSE2 instantiation of the lane-batched kernels.  SSE2 is the
// x86-64 architectural baseline, so this TU needs no extra target
// flags; it exists as the two-lane fallback for pre-AVX2 hosts.
#include "core/match_vector_impl.hpp"

#if !defined(__SSE2__)
#error "match_vector_sse2.cpp requires SSE2 (x86-64 baseline)"
#endif

namespace sma::core {

void scan_tile_sse2(const VectorTileArgs& g, PixelBest* best,
                    VectorLaneTally& tally) {
  detail::scan_tile_t<simd::Sse2Tag>(g, best, tally);
}

void batch_factor_apply6_sse2(const double* a, const double* b, int nrhs,
                              double* x, unsigned char* singular, double eps) {
  detail::batch_factor_apply_soa<simd::Sse2Tag>(a, b, nrhs, x, singular, eps);
}

}  // namespace sma::core
