// SSE2 instantiation of the lane-batched kernels.  SSE2 is the
// x86-64 architectural baseline, so this TU needs no extra target
// flags; it exists as the two-lane fallback for pre-AVX2 hosts.
#include "core/match_vector_impl.hpp"

#if !defined(__SSE2__)
#error "match_vector_sse2.cpp requires SSE2 (x86-64 baseline)"
#endif

namespace sma::core {

LaneKernels lane_kernels_sse2() {
  return detail::lane_kernels_of<simd::Sse2Tag>();
}

}  // namespace sma::core
