#include "core/workload.hpp"

namespace sma::core {

namespace {

std::uint64_t square(std::uint64_t e) { return e * e; }

}  // namespace

std::uint64_t Workload::hypotheses_per_pixel() const {
  return static_cast<std::uint64_t>(config.z_search_size()) *
         static_cast<std::uint64_t>(config.z_search_size_y());
}

std::uint64_t Workload::error_terms_per_hypothesis() const {
  return static_cast<std::uint64_t>(config.z_template_size()) *
         static_cast<std::uint64_t>(config.z_template_size_y());
}

std::uint64_t Workload::semifluid_candidates_per_mapping() const {
  if (config.model != MotionModel::kSemiFluid) return 0;
  return square(static_cast<std::uint64_t>(config.semifluid_search_size()));
}

std::uint64_t Workload::discriminant_terms_per_candidate() const {
  return square(static_cast<std::uint64_t>(config.semifluid_template_size()));
}

std::uint64_t Workload::patch_fit_eliminations(bool stereo_mode) const {
  return (stereo_mode ? 4ull : 2ull) * pixels();
}

std::uint64_t Workload::naive_semifluid_terms() const {
  if (config.model != MotionModel::kSemiFluid) return 0;
  // Per pixel x hypothesis x template pixel: a full (2N_ss+1)^2 search,
  // each candidate summing (2N_sT+1)^2 discriminant terms.
  return pixels() * hypotheses_per_pixel() * error_terms_per_hypothesis() *
         semifluid_candidates_per_mapping() *
         discriminant_terms_per_candidate();
}

std::uint64_t Workload::precomputed_semifluid_terms() const {
  if (config.model != MotionModel::kSemiFluid) return 0;
  // One cost value per pixel per offset in the extended window
  // (2(N_zs+N_ss)+1)^2; each costs (2N_sT+1)^2 terms when built naively,
  // but the separable box-filter build amortizes that to ~2(2N_sT+1).
  const std::uint64_t ext = square(static_cast<std::uint64_t>(
      2 * (config.z_search_radius + config.semifluid_search_radius) + 1));
  return pixels() * ext * discriminant_terms_per_candidate();
}

std::uint64_t PeMemoryModel::mapping_store_bytes(int search_edge,
                                                 int floats_per_map,
                                                 int pixels_per_pe) {
  return static_cast<std::uint64_t>(search_edge) * search_edge *
         floats_per_map * sizeof(float) * pixels_per_pe;
}

std::uint64_t PeMemoryModel::segmented_bytes(const SmaConfig& config,
                                             int z_rows) const {
  const std::uint64_t px = static_cast<std::uint64_t>(xvr) * yvr;
  const int nss = config.effective_nss();
  const int ext_w = 2 * (config.z_search_radius + nss) + 1;

  std::uint64_t floats_per_px = 0;
  floats_per_px += 4;   // intensity + surface planes at both steps
  floats_per_px += 16;  // zx, zy, n_i, n_j, n_k, E, G, D at both steps
  floats_per_px += 9;   // running best: error, 6 params, hx, hy
  if (config.model == MotionModel::kSemiFluid)
    floats_per_px += static_cast<std::uint64_t>(ext_w) *
                     static_cast<std::uint64_t>(z_rows + 2 * nss);

  // Fixed scratch per PE: the 6x6 normal-equation accumulator (21 upper-
  // triangle + 6 rhs + 6 solution doubles) and one snake/raster transfer
  // buffer of an extended-window row of floats.
  const std::uint64_t scratch =
      (21 + 6 + 6) * sizeof(double) +
      static_cast<std::uint64_t>(ext_w) * sizeof(float);

  return px * floats_per_px * sizeof(float) + scratch;
}

int PeMemoryModel::max_segment_rows(const SmaConfig& config,
                                    std::uint64_t budget) const {
  for (int z = config.z_search_size_y(); z >= 1; --z)
    if (segmented_bytes(config, z) <= budget) return z;
  return 0;
}

}  // namespace sma::core
