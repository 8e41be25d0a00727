// Scalar-lane instantiation of the lane-batched kernels: the
// portable fallback (and the -DSMA_SIMD=OFF build's only kernel).
// Compiled with the default target flags.
#include "core/match_vector_impl.hpp"

namespace sma::core {

LaneKernels lane_kernels_scalar() {
  return detail::lane_kernels_of<simd::ScalarTag>();
}

}  // namespace sma::core
