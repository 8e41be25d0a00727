// workload.hpp — analytic operation counts and memory requirements.
//
// Section 3 of the paper walks through the computational burden of one
// 512x512 semi-fluid image pair with the Table 1 neighborhoods:
//
//  * "13 x 13 = 169 Gaussian-eliminations are performed to solve for the
//    motion parameters ... then 169 error terms are evaluated";
//  * "To compute each error term, 121 x 121 = 14641 error terms of (4)
//    and (5) are computed";
//  * "Estimating the semi-fluid template mapping for each pixel requires
//    evaluating 3 x 3 = 9 error terms";
//  * "5 x 5 = 25 parameters of (11) need to be computed for each pixel
//    within the semi-fluid surface-patch neighborhood";
//  * "over one million (4 x 512 x 512 = 1048576) separate
//    Gaussian-eliminations are needed to estimate all of the local
//    surface patch parameters".
//
// Section 4.3 sizes the precomputed template-mapping store: "even storing
// just two floating point numbers for each precomputed template mapping
// for a relatively small search area of 23 x 23 and with 16 pixel
// elements stored per PE would still require 67.7 KB per PE which exceeds
// the available ... memory".
//
// Workload reproduces this arithmetic from an SmaConfig so the
// bench_table1_workload / bench_table3_workload harnesses can print the
// same numbers, and so the cost model can extrapolate run times.
#pragma once

#include <cstdint>

#include "core/config.hpp"

namespace sma::core {

struct Workload {
  int width = 0;
  int height = 0;
  SmaConfig config;

  std::uint64_t pixels() const {
    return static_cast<std::uint64_t>(width) * height;
  }

  /// Hypotheses per tracked pixel: (2N_zs+1)^2  (169 for Table 1).
  std::uint64_t hypotheses_per_pixel() const;

  /// Motion-parameter Gaussian eliminations per tracked pixel — one per
  /// hypothesis (169 for Table 1).
  std::uint64_t eliminations_per_pixel() const { return hypotheses_per_pixel(); }

  /// Template pixels contributing error terms per hypothesis:
  /// (2N_zT+1)^2  (14641 for Table 1).
  std::uint64_t error_terms_per_hypothesis() const;

  /// Semi-fluid candidates evaluated per template-mapping pixel:
  /// (2N_ss+1)^2  (9 for Table 1); 0 under the continuous model.
  std::uint64_t semifluid_candidates_per_mapping() const;

  /// Discriminant terms per semi-fluid candidate: (2N_sT+1)^2 (25).
  std::uint64_t discriminant_terms_per_candidate() const;

  /// Patch-fit eliminations for the whole pair: 4 * M * N in stereo mode
  /// (intensity + surface at both steps), 2 * M * N monocular.
  std::uint64_t patch_fit_eliminations(bool stereo_mode) const;

  /// Total motion-parameter eliminations for a dense field.
  std::uint64_t total_motion_eliminations() const {
    return pixels() * eliminations_per_pixel();
  }

  /// Total Eq. (4)-(5) error-term evaluations for a dense field.
  std::uint64_t total_error_terms() const {
    return pixels() * hypotheses_per_pixel() * error_terms_per_hypothesis();
  }

  /// Naive (unshared) semi-fluid discriminant evaluations for a dense
  /// field — the work the Sec. 4.1 precompute optimization avoids.
  std::uint64_t naive_semifluid_terms() const;

  /// Precomputed-cost-field discriminant evaluations: one extended-window
  /// cost layer per offset per pixel (Sec. 4.1 optimization).
  std::uint64_t precomputed_semifluid_terms() const;
};

/// PE-memory accounting for the MasPar implementation (Sec. 4.3).
struct PeMemoryModel {
  int xvr = 4;  ///< pixels per PE in x (Eq. 12): ceil(N / nxproc)
  int yvr = 4;  ///< pixels per PE in y: ceil(M / nyproc)

  /// Bytes/PE to store precomputed template mappings with `floats_per_map`
  /// floats per mapping, `search_edge`^2 mappings per pixel — the paper's
  /// 23x23 example: 2 floats -> 67.7 KB with 16 pixels per PE.
  static std::uint64_t mapping_store_bytes(int search_edge, int floats_per_map,
                                           int pixels_per_pe);

  /// Bytes/PE for the segmented implementation with Z hypothesis rows per
  /// segment (reconstruction of the Sec. 4.3 formula; see DESIGN.md):
  ///   image planes:   intensity+surface at 2 steps            -> 4 floats/px
  ///   geometry:       zx, zy, n_i, n_j, n_k, E, G, D at 2 steps -> 16 floats/px
  ///   cost layers:    (2(N_zs+N_ss)+1) * (Z + 2 N_ss) offsets  -> per px
  ///   running best:   error + params + (hx, hy)               -> 9 floats/px
  ///   scratch:        6x6 system + snake/raster buffers (fixed)
  std::uint64_t segmented_bytes(const SmaConfig& config, int z_rows) const;

  /// Largest Z (1 <= Z <= 2N_zs+1) whose footprint fits `budget` bytes
  /// (larger segments mean fewer rebuilt cost layers), or 0 if even Z = 1
  /// does not fit.
  int max_segment_rows(const SmaConfig& config, std::uint64_t budget) const;
};

}  // namespace sma::core
