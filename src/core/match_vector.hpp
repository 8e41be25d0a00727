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
// (simd::batch_apply6_k, several batches per pass so their dependency
// chains overlap) and score the Eq. (3) residual, and a lane that one
// vector compare against its pixel's incumbent error does not reject
// folds into that incumbent through hypothesis_improves.
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
// the correspondence tables, sub-pixel refinement and products.  Under
// pruned search the stage hands each pixel's admission window
// (match_prune.hpp) with the segment: a tile sweeps the union of its
// pixels' windows and each lane folds only the hypotheses inside its
// own pixel's window — the hypotheses the scalar visit evaluates, with
// the same bits.  A pair without precompute planes — a masked one, which
// the pipeline never gives planes, or a caller's planes-less input —
// visits through the staged tiles (scan_segment) on the same pool, again
// bit-identical by construction.
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

/// One sched tile's search (scan_tile_*): the precompute planes, the
/// after-frame geometry, the tile [x0, x1) x [y0, y1), the template
/// half-widths and the hypothesis box the tile sweeps.  F_semi passes
/// the segment's correspondence table, and the hy bounds must lie inside
/// its segment.  Under pruned search `windows` holds the frame's
/// row-major admission windows, the box is the union of the tile's, and
/// a center folds only the hypotheses inside its own window.
struct VectorTileArgs {
  const MatchPrecompute* pre = nullptr;
  const surface::GeometricField* after = nullptr;
  const SemiFluidTable* table = nullptr;  ///< F_semi; null for F_cont
  const PruneWindow* windows = nullptr;   ///< pruned search; else null
  /// The frame's row-major sub-pixel probe store (MatchSegment::probes);
  /// the kernel fills its tile's slots.  Null without sub-pixel.
  SubpixelProbes* probes = nullptr;
  int x0 = 0, y0 = 0, x1 = 0, y1 = 0;
  int rx = 0, ry = 0;  ///< template half-widths
  int hx_min = 0, hx_max = 0;
  int hy_min = 0, hy_max = 0;
};

/// Lane-occupancy accounting, summed across tiles into the
/// VectorRunReport (and from there into the obs MetricsRegistry and
/// BENCH_matching.json).  Every (pixel, hypothesis) evaluation a center
/// folds lands in exactly one of batched_hypotheses and tail_hypotheses.
struct VectorLaneTally {
  std::uint64_t batched_hypotheses = 0;  ///< folded by full batches
  /// Folded by partly idle batches: the centers of a tile row's last
  /// batch, and under pruned search the lanes whose window admits the
  /// hypothesis when some other lane's does not.
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

/// The lane kernels compiled for one level: its lane count, how many
/// batches the tile kernel scores per pass, the tile kernel, and the
/// batched solves the property tests call.
/// `factor_apply` factors the SoA batch `a` once (batch_factor6) — element
/// k of system l at a[k * lanes + l], row-major 6x6 — and applies it
/// (batch_apply6) to `nrhs` right-hand sides stored one after another in
/// `b`, each 6 x lanes, writing as many solutions to `x`; `singular[l]`
/// reports per-lane solve6 kSingular, and those lanes get x = 0.
/// `score` scores `nbatch` SoA batches the way the tile kernel does
/// (detail::batch_score_soa): in its passes of `batches_per_pass`
/// batches when `passes`, else one batch_apply6 and batch_residual6
/// call per batch.
/// Unresolved levels get the scalar kernels.
struct LaneKernels {
  int lanes = 0;
  int batches_per_pass = 0;
  TileKernelFn tile = nullptr;
  void (*factor_apply)(const double* a, const double* b, int nrhs, double* x,
                       unsigned char* singular, double eps) = nullptr;
  void (*score)(const double* ata, const double* m, int nbatch, bool passes,
                double* theta, double* err, unsigned char* singular) = nullptr;
};
LaneKernels lane_kernels(simd::SimdLevel level);

/// What the vector backend did for one tracked pair.
struct VectorRunReport {
  std::string level;          ///< resolved lane implementation name
  int level_id = 0;           ///< numeric SimdLevel (metrics-friendly)
  int lanes = 1;              ///< lanes per batch at that level
  bool vector_path = false;   ///< tile kernel ran (vs. staged fallback)
  /// Why not, when it didn't ("" otherwise): "masked" when a validity
  /// mask is attached, else "no-precompute" when the planes are null.
  std::string fallback;
  std::uint64_t batched_hypotheses = 0;
  std::uint64_t tail_hypotheses = 0;
  std::uint64_t batches = 0;
  /// batched / (batched + tail): fraction of hypothesis evaluations that
  /// ran inside full lanes-wide batches.  batched + tail is the whole
  /// search, pixels x hypotheses (admitted ones under pruned search), on
  /// the tile kernel; 0 on fallbacks.
  double lane_utilization = 0.0;
};

/// TrackResult::extras attachment for the vector backend (the pruned
/// search's accounting is the inherited `prune`).
struct VectorBackendExtras : BackendExtras {
  VectorRunReport report;
};

/// Publishes the report into `reg` under the `vector.` prefix.
void publish_metrics(const VectorRunReport& report, obs::MetricsRegistry& reg);

/// The `vector` backend instance (registered by BackendRegistry's
/// constructor alongside "sequential").
std::unique_ptr<TrackerBackend> make_vector_backend();

// Per-ISA kernel tables, each defined in its own translation unit so
// only that object file carries wide instructions.  Which exist is a
// build-time fact (SMA_KERNEL_* from src/core/CMakeLists.txt); use
// lane_kernels() instead of calling these directly.
LaneKernels lane_kernels_scalar();
#if defined(SMA_KERNEL_SSE2)
LaneKernels lane_kernels_sse2();
#endif
#if defined(SMA_KERNEL_AVX2)
LaneKernels lane_kernels_avx2();
#endif
#if defined(SMA_KERNEL_AVX512)
LaneKernels lane_kernels_avx512();
#endif
#if defined(SMA_KERNEL_NEON)
LaneKernels lane_kernels_neon();
#endif

}  // namespace sma::core
