// match_vector.hpp — the SIMD matching kernels and the `vector`
// TrackerBackend built on them.
//
// The paper steps its 16K PEs through one hypothesis at a time, one
// pixel per PE; the `vector` backend does the same on SIMD lanes: a
// lane is one CENTER pixel of a sched tile (scan_tile_*).
// For each hypothesis h the tile kernel first builds, row by row over
// the tile plus its template halo, the seven per-template-pixel terms
// that Eq. (3) adds into A^T b and b^T b:
//
//   t_r(p, h) = (wri·bi + wrj·bj) + wrk·bk   (r = 0..5)
//   t_b(p, h) = (wi·(bi·bi) + wj·(bj·bj)) + bk·bk,   b = n'(q) - n(p),
//
// with q = clamp(p + h) for F_cont and q = clamp(p + h + M_h(p)) through
// the per-segment SemiFluidTable for F_semi.  Neither depends on the
// center, so each term is computed once per (p, h) instead of once per
// template covering p — the Sec. 4.1 "share the overlap" argument carried
// from the semi-fluid mapping to the matching sums.  The same goes one
// level up: a template row's subtotal depends on the row and the center
// column only, so the kernel sums each tile row's terms once per
// hypothesis, and each lane adds its center's 2N_zT+1 row subtotals.
// The A^T A window sums are built the same way once per tile, and each
// batch of centers is factored once per tile (simd::batch_factor6);
// per hypothesis the lanes only replay the row operations on A^T b
// (simd::batch_apply6) and score the Eq. (3) residual, and each lane
// folds into its own pixel's incumbent through hypothesis_improves.
//
// Bit-exactness: every t is the exact expression the scalar
// evaluate_hypothesis_precomputed adds, and each lane adds its
// template's t values in the scalar two-level order (each row from 0.0
// in u order, then the row subtotals in v order from 0.0), so it reaches
// the same A^T b / b^T b bits; the window sums, the 0.0 + v
// normalization, the elimination and the residual replay the scalar
// sequence too.  The backend is therefore BIT-IDENTICAL to
// `sequential` on every lane implementation — AVX-512, AVX2, SSE2, NEON
// and the forced-scalar fallback — for any tile shape.
//
// The backend is one segment visit of the shared matching stage
// (run_matching_stage, core/tracker.hpp), which owns the segment loop,
// the correspondence tables, sub-pixel refinement and products.  Pruned
// search (each pixel with its own shrunken window and its own
// half-template bound checkpoint) is the stage's own branch
// (run_pruned_search, match_prune.hpp), and configs the precompute
// cannot serve (masks, stride, precompute off) visit through the staged
// tiles (scan_segment) on the same pool — again bit-identical by
// construction.
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

/// One sched tile's full search (scan_tile_*): the precompute planes,
/// the after-frame geometry, the tile [x0, x1) x [y0, y1), the template
/// half-widths and the hypothesis box.  F_semi passes the segment's
/// correspondence table, and the hy bounds must lie inside its segment.
struct VectorTileArgs {
  const MatchPrecompute* pre = nullptr;
  const surface::GeometricField* after = nullptr;
  const SemiFluidTable* table = nullptr;  ///< F_semi; null for F_cont
  int x0 = 0, y0 = 0, x1 = 0, y1 = 0;
  int rx = 0, ry = 0;  ///< template half-widths
  int hx_min = 0, hx_max = 0;
  int hy_min = 0, hy_max = 0;
};

/// Lane-occupancy accounting, summed across tiles into the
/// VectorRunReport (and from there into the obs MetricsRegistry and
/// BENCH_matching.json).  Every (pixel, hypothesis) evaluation lands in
/// exactly one of batched_hypotheses and tail_hypotheses.
struct VectorLaneTally {
  std::uint64_t batched_hypotheses = 0;  ///< evaluated inside full batches
  /// Evaluated outside full batches: the centers of a tile row's last,
  /// partly idle batch.
  std::uint64_t tail_hypotheses = 0;
  std::uint64_t batches = 0;             ///< scored batches (one apply each)
};

/// `best` is the frame's row-major PixelBest array; the kernel updates
/// the tile's pixels only.
using TileKernelFn = void (*)(const VectorTileArgs&, PixelBest* best,
                              VectorLaneTally&);

/// Downgrades `request` to the most capable lane implementation that was
/// actually compiled into this binary (AVX-512 degrades to AVX2 degrades
/// to SSE2 degrades to scalar; NEON to scalar).
simd::SimdLevel resolve_kernel_level(simd::SimdLevel request);

/// The lane kernels compiled for one level: its lane count, the tile
/// kernel, and the batched solve the property tests call.
/// `factor_apply` factors the SoA batch `a` once (batch_factor6) — element
/// k of system l at a[k * lanes + l], row-major 6x6 — and applies it
/// (batch_apply6) to `nrhs` right-hand sides stored one after another in
/// `b`, each 6 x lanes, writing as many solutions to `x`; `singular[l]`
/// reports per-lane solve6 kSingular, and those lanes get x = 0.
/// Unresolved levels get the scalar kernels.
struct LaneKernels {
  int lanes = 0;
  TileKernelFn tile = nullptr;
  void (*factor_apply)(const double* a, const double* b, int nrhs, double* x,
                       unsigned char* singular, double eps) = nullptr;
};
LaneKernels lane_kernels(simd::SimdLevel level);

/// What the vector backend did for one tracked pair.
struct VectorRunReport {
  std::string level;          ///< resolved lane implementation name
  int level_id = 0;           ///< numeric SimdLevel (metrics-friendly)
  int lanes = 1;              ///< lanes per batch at that level
  bool vector_path = false;   ///< tile kernel ran (vs. staged fallback)
  /// Why not, when it didn't ("" otherwise): "pruned" (an engaged pruned
  /// search), "precompute-off", "masked", "stride" or "no-precompute".
  std::string fallback;
  std::uint64_t batched_hypotheses = 0;
  std::uint64_t tail_hypotheses = 0;
  std::uint64_t batches = 0;
  /// batched / (batched + tail): fraction of hypothesis evaluations that
  /// ran inside full lanes-wide batches.  batched + tail is the whole
  /// search, pixels x hypotheses, on the tile kernel; 0 on fallbacks.
  double lane_utilization = 0.0;
};

/// TrackResult::extras attachment for the vector backend.  `prune` is
/// the pruned pass's accounting when it engaged (fallback "pruned"), and
/// carries only the pruned-mode fallback reason otherwise.
struct VectorBackendExtras : BackendExtras {
  VectorRunReport report;
  PruneReport prune;
};

/// Publishes the report into `reg` under the `vector.` prefix.
void publish_metrics(const VectorRunReport& report, obs::MetricsRegistry& reg);

/// The `vector` backend instance (registered by BackendRegistry's
/// constructor alongside "sequential").
std::unique_ptr<TrackerBackend> make_vector_backend();

// Per-ISA kernel entry points, each defined in its own translation unit
// so only that object file carries wide instructions.  Which exist is a
// build-time fact (SMA_KERNEL_* from src/core/CMakeLists.txt); use
// lane_kernels() instead of calling these directly.
void scan_tile_scalar(const VectorTileArgs&, PixelBest*, VectorLaneTally&);
void batch_factor_apply6_scalar(const double*, const double*, int, double*,
                                unsigned char*, double);
#if defined(SMA_KERNEL_SSE2)
void scan_tile_sse2(const VectorTileArgs&, PixelBest*, VectorLaneTally&);
void batch_factor_apply6_sse2(const double*, const double*, int, double*,
                              unsigned char*, double);
#endif
#if defined(SMA_KERNEL_AVX2)
void scan_tile_avx2(const VectorTileArgs&, PixelBest*, VectorLaneTally&);
void batch_factor_apply6_avx2(const double*, const double*, int, double*,
                              unsigned char*, double);
#endif
#if defined(SMA_KERNEL_AVX512)
void scan_tile_avx512(const VectorTileArgs&, PixelBest*, VectorLaneTally&);
void batch_factor_apply6_avx512(const double*, const double*, int, double*,
                                unsigned char*, double);
#endif
#if defined(SMA_KERNEL_NEON)
void scan_tile_neon(const VectorTileArgs&, PixelBest*, VectorLaneTally&);
void batch_factor_apply6_neon(const double*, const double*, int, double*,
                              unsigned char*, double);
#endif

}  // namespace sma::core
