// bench_model_ablation — F_semi vs F_cont on genuinely semi-fluid motion.
//
// The paper's central modeling claim (Secs. 1-2): the continuous model
// imposes one smooth deformation on the whole template, while the
// semi-fluid mapping lets each template pixel re-match within N_ss —
// which is what multilayer clouds and fluid shear require ("tracers in
// each layer are modeled as separate small surface patches with
// independent first order deformations").
//
// Workload: two cloud decks with opposing winds and a meandering
// boundary.  Near the boundary a template straddles both motions; the
// continuous model must average them, the semi-fluid model can split.
// The harness reports dense RMS (whole field and boundary band) and the
// mean matching residual for both models, plus a smooth-flow control
// where the two should tie.
#include <cmath>
#include <cstdio>

#include "bench_util.hpp"
#include "core/sma.hpp"
#include "goes/synth.hpp"

using namespace sma;

namespace {

struct Eval {
  double rms_all = 0.0;
  double rms_boundary = 0.0;
  double mean_residual = 0.0;
};

Eval evaluate(const imaging::FlowField& flow, const imaging::FlowField& truth,
              const imaging::ImageF& boundary_mask, int margin) {
  Eval e;
  double sum_all = 0.0, sum_b = 0.0, res = 0.0;
  int n_all = 0, n_b = 0, n_res = 0;
  for (int y = margin; y < flow.height() - margin; ++y)
    for (int x = margin; x < flow.width() - margin; ++x) {
      const imaging::FlowVector f = flow.at(x, y);
      const imaging::FlowVector t = truth.at(x, y);
      const double d2 = (f.u - t.u) * (f.u - t.u) + (f.v - t.v) * (f.v - t.v);
      sum_all += d2;
      ++n_all;
      if (boundary_mask.at(x, y) > 0.5f) {
        sum_b += d2;
        ++n_b;
      }
      if (f.valid) {
        res += f.error;
        ++n_res;
      }
    }
  e.rms_all = std::sqrt(sum_all / n_all);
  e.rms_boundary = n_b > 0 ? std::sqrt(sum_b / n_b) : 0.0;
  e.mean_residual = n_res > 0 ? res / n_res : 0.0;
  return e;
}

}  // namespace

int main() {
  const int size = 72;
  const int margin = 10;

  // Two decks: upper moving (-2, 0), lower (+2, 0); the boundary
  // meanders so templates straddle it at many orientations.
  imaging::ImageF mask(size, size);
  for (int y = 0; y < size; ++y)
    for (int x = 0; x < size; ++x) {
      const double boundary =
          size / 2.0 + 6.0 * std::sin(2.0 * M_PI * x / size);
      mask.at(x, y) = y < boundary ? 1.0f : 0.0f;
    }
  const goes::WindModel wind = goes::two_layer(
      mask, 0.5f, goes::uniform_shear(-2.0, 0.0, 0.0),
      goes::uniform_shear(2.0, 0.0, 0.0));
  const imaging::ImageF f0 = goes::fractal_clouds(size, size, 21);
  const imaging::ImageF f1 = goes::advect_frame(f0, wind);
  const imaging::FlowField truth = goes::wind_to_flow(size, size, wind);

  // Boundary band: within the z-template radius of the shear line.
  imaging::ImageF band(size, size, 0.0f);
  for (int y = 0; y < size; ++y)
    for (int x = 0; x < size; ++x) {
      const double boundary =
          size / 2.0 + 6.0 * std::sin(2.0 * M_PI * x / size);
      if (std::abs(y - boundary) <= 5.0) band.at(x, y) = 1.0f;
    }

  core::SmaConfig semi = core::frederic_scaled_config();
  semi.z_search_radius = 3;
  core::SmaConfig cont = semi;
  cont.model = core::MotionModel::kContinuous;

  core::SmaPipeline semi_pipeline(semi, {.backend = "tiled"});
  core::SmaPipeline cont_pipeline(cont, {.backend = "tiled"});
  const core::TrackResult r_semi = semi_pipeline.track_pair(f0, f1);
  const core::TrackResult r_cont = cont_pipeline.track_pair(f0, f1);
  const Eval e_semi = evaluate(r_semi.flow, truth, band, margin);
  const Eval e_cont = evaluate(r_cont.flow, truth, band, margin);

  bench::header(
      "Model ablation — two-layer shear flow (" + std::to_string(size) +
      "x" + std::to_string(size) + ", decks at -2 and +2 px/frame)");
  bench::row_header("F_cont", "F_semi");
  bench::row("dense RMS, whole field (px)", bench::fmt(e_cont.rms_all),
             bench::fmt(e_semi.rms_all));
  bench::row("dense RMS, boundary band (px)",
             bench::fmt(e_cont.rms_boundary),
             bench::fmt(e_semi.rms_boundary));
  bench::row("mean matching residual", bench::fmt(e_cont.mean_residual, "", 4),
             bench::fmt(e_semi.mean_residual, "", 4));

  // Control: a smooth single-layer flow where both models should agree.
  const goes::WindModel smooth =
      goes::rankine_vortex(size / 2.0, size / 2.0, size / 5.0, 2.0);
  const imaging::ImageF s1 = goes::advect_frame(f0, smooth);
  const imaging::FlowField struth = goes::wind_to_flow(size, size, smooth);
  const Eval c_semi =
      evaluate(semi_pipeline.track_pair(f0, s1).flow, struth, band, margin);
  const Eval c_cont =
      evaluate(cont_pipeline.track_pair(f0, s1).flow, struth, band, margin);
  std::printf("\n  smooth-flow control: F_cont RMS %.3f vs F_semi RMS %.3f\n",
              c_cont.rms_all, c_semi.rms_all);
  std::printf(
      "\n  expectation: the semi-fluid mapping wins in the boundary band\n"
      "  (independent per-pixel re-matching across the shear line) and\n"
      "  ties on smooth flow — the Sec. 1-2 modeling claim.\n\n");

  const bool semi_wins = e_semi.rms_boundary < e_cont.rms_boundary;
  return semi_wins ? 0 : 1;
}
