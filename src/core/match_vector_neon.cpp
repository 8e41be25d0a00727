// NEON (AArch64) instantiation of the lane-batched kernels.
// Advanced SIMD is architectural on AArch64, so no extra target flags.
#include "core/match_vector_impl.hpp"

#if !defined(__ARM_NEON)
#error "match_vector_neon.cpp requires Advanced SIMD (AArch64 baseline)"
#endif

namespace sma::core {

LaneKernels lane_kernels_neon() {
  return detail::lane_kernels_of<simd::NeonTag>();
}

}  // namespace sma::core
