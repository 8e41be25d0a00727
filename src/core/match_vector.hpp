// match_vector.hpp — the hypothesis-batched SIMD matching kernel and the
// `vector` TrackerBackend built on it.
//
// The paper amortizes the per-hypothesis cost across 16K PEs; the
// `vector` backend amortizes it across SIMD lanes: for one pixel, a
// batch of kLanes CONSECUTIVE hx hypotheses (same hy) marches through
// the precomputed SoA planes together — each lane accumulating its own
// A^T b / b^T b in the exact template order of the scalar
// evaluate_hypothesis_precomputed — then a lane-batched 6x6 elimination
// (simd/batch_solve.hpp) and a batched Eq. (3) residual score all lanes
// at once.  A horizontal reduce-min prefilters hopeless batches before
// the winner is refined lane by lane through the shared
// hypothesis_improves tie-break, so the selected winner is identical to
// the scalar scan's.  Hypotheses left over when the search width is not
// a lane multiple go through the scalar evaluator (the tie-break is
// visit-order independent, so mixing paths is safe).
//
// Because each lane's floating-point instruction sequence equals the
// scalar path's, the backend is BIT-IDENTICAL to `sequential` on every
// lane implementation — AVX-512, AVX2, SSE2, NEON and the forced-scalar
// fallback — extending the Sec. 5.1 contract to the vector substrate.
// F_semi runs the lane kernel too: its remap moves only the after-frame
// correspondents, so lanes broadcast the shared A^T A as for F_cont and
// gather their normals through the per-segment correspondence table.
// Configs the precompute cannot serve (masks, stride, precompute off, or
// the non-bit-exact sliding tier) fall back to the shared staged path,
// again bit-identical by construction.
//
// The per-ISA kernels live in match_vector_<isa>.cpp translation units
// compiled with the matching target flags (only the AVX2 and AVX-512
// TUs need non-baseline flags on x86-64); runtime dispatch picks among
// whatever was compiled in (simd/dispatch.hpp).
#pragma once

#include <cstdint>
#include <memory>
#include <string>

#include "core/backend.hpp"
#include "core/match_prune.hpp"
#include "core/tracker.hpp"
#include "obs/metrics.hpp"
#include "simd/dispatch.hpp"

namespace sma::core {

class MatchPrecompute;
struct WindowInvariants;

/// Per-pixel inputs to one kernel invocation: the precompute planes,
/// the after-frame geometry, the pixel's shared A^T A window sum and
/// the search/template extents.  Full mode sets hx/hy bounds to the
/// whole [-N_zs, N_zs] box; the pruned mode passes each pixel's
/// shrunken window (match_prune.hpp).
struct VectorKernelArgs {
  const MatchPrecompute* pre = nullptr;
  const surface::GeometricField* after = nullptr;
  const WindowInvariants* win = nullptr;
  int x = 0, y = 0;
  int rx = 0, ry = 0;        ///< template half-widths
  int hx_min = 0, hx_max = 0;
  int hy_min = 0, hy_max = 0;
  /// Branch-and-bound prefix system (accumulate_window_span over the
  /// template rows v < 0), or null to disable the half-template
  /// checkpoint.  Null keeps the kernel's floating-point sequence
  /// EXACTLY as before — full mode stays bit-identical.
  const WindowInvariants* win_prefix = nullptr;
  /// F_semi: the segment's correspondence table (semifluid.hpp).  Set,
  /// the kernel gathers every lane's after-frame normals through it and
  /// batches the segment's hypotheses across rows; the hy bounds must
  /// lie inside the table's segment.  Never combined with win_prefix.
  const SemiFluidTable* table = nullptr;
};

/// Lane-occupancy accounting, summed across pixels into the
/// VectorRunReport (and from there into the obs MetricsRegistry and
/// BENCH_matching.json).  The bound_* fields only move when
/// VectorKernelArgs::win_prefix is set (pruned mode); they count in
/// hypothesis units, kLanes per batch checkpoint.
struct VectorLaneTally {
  std::uint64_t batched_hypotheses = 0;  ///< evaluated inside full batches
  std::uint64_t tail_hypotheses = 0;     ///< scalar remainder evaluations
  std::uint64_t batches = 0;             ///< batch-solve invocations
  std::uint64_t bound_checks = 0;        ///< checkpointed hypotheses
  std::uint64_t bound_skipped = 0;       ///< abandoned at the checkpoint
  double bound_tightness_sum = 0.0;      ///< sum of min(1, bound/error)
};

using PixelKernelFn = void (*)(const VectorKernelArgs&, PixelBest&,
                               VectorLaneTally&);

/// Batched-solve entry exposed for the property tests: `a` is the SoA
/// batch (element k of system l at a[k * lanes + l], row-major 6x6),
/// `b`/`x` likewise 6 x lanes; `singular[l]` reports per-lane solve6
/// kSingular (those lanes get x = 0).
struct BatchSolveHook {
  int lanes = 0;
  void (*solve)(const double* a, const double* b, double* x,
                unsigned char* singular, double eps) = nullptr;
};

/// Downgrades `request` to the most capable lane implementation that was
/// actually compiled into this binary (AVX-512 degrades to AVX2 degrades
/// to SSE2 degrades to scalar; NEON to scalar).
simd::SimdLevel resolve_kernel_level(simd::SimdLevel request);

/// The per-pixel scan kernel / batched-solve hook for a compiled level
/// (callers should resolve_kernel_level first; unresolved levels return
/// the scalar kernel).  `fast_math` selects the FMA variant of the scan
/// kernel (SmaConfig::fast_math — tolerance-equal, not bit-exact).
PixelKernelFn pixel_kernel_hook(simd::SimdLevel level, bool fast_math = false);
BatchSolveHook batch_solve_hook(simd::SimdLevel level);

/// Lane count of the (resolved) level's kernel.
int kernel_lanes(simd::SimdLevel level);

/// What the vector backend did for one tracked pair.
struct VectorRunReport {
  std::string level;          ///< resolved lane implementation name
  int level_id = 0;           ///< numeric SimdLevel (metrics-friendly)
  int lanes = 1;              ///< lanes per batch at that level
  bool vector_path = false;   ///< batched kernel ran (vs. staged fallback)
  std::string fallback;       ///< why not, when it didn't ("" otherwise)
  std::uint64_t batched_hypotheses = 0;
  std::uint64_t tail_hypotheses = 0;
  std::uint64_t batches = 0;
  /// batched / (batched + tail): fraction of hypothesis evaluations that
  /// ran inside full lanes-wide batches.
  double lane_utilization = 0.0;
};

/// TrackResult::extras attachment for the vector backend.  `prune` is
/// meaningful for SearchMode::kPruned runs (active or fallback-reason
/// only otherwise).
struct VectorBackendExtras : BackendExtras {
  VectorRunReport report;
  PruneReport prune;
};

/// Publishes the report into `reg` under the `vector.` prefix.
void publish_metrics(const VectorRunReport& report, obs::MetricsRegistry& reg);

/// The `vector` backend instance (registered by BackendRegistry's
/// constructor alongside the host backends).
std::unique_ptr<TrackerBackend> make_vector_backend();

// Per-ISA kernel entry points, each defined in its own translation unit
// so only that object file carries wide instructions.  Which exist is a
// build-time fact (SMA_KERNEL_* from src/core/CMakeLists.txt); use the
// hooks above instead of calling these directly.
void scan_pixel_scalar(const VectorKernelArgs&, PixelBest&, VectorLaneTally&);
void scan_pixel_scalar_fma(const VectorKernelArgs&, PixelBest&,
                           VectorLaneTally&);
void batch_solve6_scalar(const double*, const double*, double*,
                         unsigned char*, double);
#if defined(SMA_KERNEL_SSE2)
void scan_pixel_sse2(const VectorKernelArgs&, PixelBest&, VectorLaneTally&);
void scan_pixel_sse2_fma(const VectorKernelArgs&, PixelBest&,
                         VectorLaneTally&);
void batch_solve6_sse2(const double*, const double*, double*, unsigned char*,
                       double);
#endif
#if defined(SMA_KERNEL_AVX2)
void scan_pixel_avx2(const VectorKernelArgs&, PixelBest&, VectorLaneTally&);
void scan_pixel_avx2_fma(const VectorKernelArgs&, PixelBest&,
                         VectorLaneTally&);
void batch_solve6_avx2(const double*, const double*, double*, unsigned char*,
                       double);
#endif
#if defined(SMA_KERNEL_AVX512)
void scan_pixel_avx512(const VectorKernelArgs&, PixelBest&, VectorLaneTally&);
void scan_pixel_avx512_fma(const VectorKernelArgs&, PixelBest&,
                           VectorLaneTally&);
void batch_solve6_avx512(const double*, const double*, double*, unsigned char*,
                         double);
#endif
#if defined(SMA_KERNEL_NEON)
void scan_pixel_neon(const VectorKernelArgs&, PixelBest&, VectorLaneTally&);
void scan_pixel_neon_fma(const VectorKernelArgs&, PixelBest&,
                         VectorLaneTally&);
void batch_solve6_neon(const double*, const double*, double*, unsigned char*,
                       double);
#endif

}  // namespace sma::core
