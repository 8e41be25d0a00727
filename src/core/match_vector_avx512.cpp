// AVX-512 instantiation of the lane-batched kernels: eight lanes per
// batch.  This is the ONLY translation unit built with
// -mavx512f -mavx512dq (see src/core/CMakeLists.txt); its one
// exported function hands out its kernels, reached solely through
// runtime dispatch after __builtin_cpu_supports("avx512f") &&
// __builtin_cpu_supports("avx512dq") — the standard per-file-ISA
// pattern.  DESIGN.md §13 discusses the residual comdat caveat and the
// -DSMA_SIMD=OFF escape hatch.
#include "core/match_vector_impl.hpp"

#if !defined(__AVX512F__) || !defined(__AVX512DQ__)
#error "match_vector_avx512.cpp must be compiled with -mavx512f -mavx512dq"
#endif

namespace sma::core {

LaneKernels lane_kernels_avx512() {
  return detail::lane_kernels_of<simd::Avx512Tag>();
}

}  // namespace sma::core
