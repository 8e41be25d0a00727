#include "maspar/cost_model.hpp"

namespace sma::maspar {

namespace {

double square(double e) { return e * e; }

}  // namespace

void publish_metrics(const PhaseTimes& times, const std::string& prefix,
                     obs::MetricsRegistry& reg) {
  reg.gauge(prefix + ".surface_fit_seconds").set(times.surface_fit);
  reg.gauge(prefix + ".geometric_vars_seconds").set(times.geometric_vars);
  reg.gauge(prefix + ".semifluid_mapping_seconds")
      .set(times.semifluid_mapping);
  reg.gauge(prefix + ".hypothesis_matching_seconds")
      .set(times.hypothesis_matching);
  reg.gauge(prefix + ".total_seconds").set(times.total());
}

PhaseTimes CostModel::mp2_times(const core::Workload& w,
                                int image_count) const {
  PhaseTimes t;
  const double px = static_cast<double>(w.pixels());
  const double rate = mp2_rate();
  const double win = square(w.config.surface_fit_size());

  t.surface_fit =
      image_count * px * (win * kPatchFitFlopsPerWinPx + kSolve6Flops) / rate;
  t.geometric_vars = image_count * px * kGeomFlops / rate;

  if (w.config.model == core::MotionModel::kSemiFluid) {
    // Sec. 4.1 precompute: Eq. (10) error terms for the whole extended
    // window, each summing (2N_sT+1)^2 Eq. (11) parameters, plus the
    // per-hypothesis windowed minimization.
    const double ext = square(
        2.0 * (w.config.z_search_radius + w.config.semifluid_search_radius) +
        1.0);
    const double st = square(w.config.semifluid_template_size());
    const double ss = square(w.config.semifluid_search_size());
    const double hyp = static_cast<double>(w.hypotheses_per_pixel());
    t.semifluid_mapping =
        px * (ext * st * kDiscParamFlops + hyp * ss) / rate;
  }

  const double hyp = static_cast<double>(w.hypotheses_per_pixel());
  const double terms = static_cast<double>(w.error_terms_per_hypothesis());
  t.hypothesis_matching =
      px * hyp * (terms * kErrTermFlopsPar + kSolve6Flops) / rate;
  return t;
}

PhaseTimes CostModel::sgi_times(const core::Workload& w,
                                int image_count) const {
  PhaseTimes t;
  const double px = static_cast<double>(w.pixels());
  const double rate = sgi_rate();
  const double win = square(w.config.surface_fit_size());

  t.surface_fit =
      image_count * px * (win * kPatchFitFlopsPerWinPx + kSolve6Flops) / rate;
  t.geometric_vars = image_count * px * kGeomFlops / rate;

  // Un-optimized baseline: the semi-fluid search runs naively inside the
  // hypothesis loop (discriminants cached per pixel, searches not), so
  // there is no separate mapping phase — it is all hypothesis matching.
  const double hyp = static_cast<double>(w.hypotheses_per_pixel());
  const double terms = static_cast<double>(w.error_terms_per_hypothesis());
  double per_term = kErrTermFlopsSeq;
  if (w.config.model == core::MotionModel::kSemiFluid) {
    const double ss = square(w.config.semifluid_search_size());
    const double st = square(w.config.semifluid_template_size());
    per_term += ss * st * kDiscTermFlops;
  }
  t.hypothesis_matching =
      px * hyp * (terms * per_term + kSolve6Flops) / rate;
  return t;
}

double CostModel::sgi_seconds_per_correspondence(
    const core::SmaConfig& config) const {
  const double terms = static_cast<double>(config.z_template_size()) *
                       config.z_template_size_y();
  double per_term = kErrTermFlopsSeq;
  if (config.model == core::MotionModel::kSemiFluid) {
    const double ss = square(config.semifluid_search_size());
    const double st = square(config.semifluid_template_size());
    per_term += ss * st * kDiscTermFlops;
  }
  return (terms * per_term + kSolve6Flops) / sgi_rate();
}

double CostModel::speedup(const core::Workload& w, int image_count) const {
  return sgi_times(w, image_count).total() / mp2_times(w, image_count).total();
}

}  // namespace sma::maspar
