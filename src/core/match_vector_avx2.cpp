// AVX2 instantiation of the lane-batched kernels: four lanes per
// batch.  This is the ONLY translation unit built with -mavx2 (see
// src/core/CMakeLists.txt); its one exported function hands out
// its kernels, reached solely through runtime dispatch after
// __builtin_cpu_supports("avx2") — the standard per-file-ISA pattern.
// DESIGN.md §13 discusses the residual comdat caveat and the
// -DSMA_SIMD=OFF escape hatch.
#include "core/match_vector_impl.hpp"

#if !defined(__AVX2__)
#error "match_vector_avx2.cpp must be compiled with -mavx2"
#endif

namespace sma::core {

LaneKernels lane_kernels_avx2() {
  return detail::lane_kernels_of<simd::Avx2Tag>();
}

}  // namespace sma::core
