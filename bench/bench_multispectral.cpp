// bench_multispectral — quantifies the Sec. 6 "multispectral
// information" extension: two channels textured in complementary regions
// tracked independently, then fused by per-pixel minimum residual.
#include <cstdio>

#include "bench_util.hpp"
#include "core/sma.hpp"
#include "goes/datasets.hpp"

using namespace sma;

namespace {

double good_fraction(const imaging::FlowField& flow,
                     const imaging::FlowField& truth, int margin) {
  int good = 0, total = 0;
  for (int y = margin; y < flow.height() - margin; ++y)
    for (int x = margin; x < flow.width() - margin; ++x) {
      ++total;
      const imaging::FlowVector f = flow.at(x, y);
      if (!f.valid) continue;
      const imaging::FlowVector t = truth.at(x, y);
      if (std::hypot(f.u - t.u, f.v - t.v) <= 1.0) ++good;
    }
  return total > 0 ? static_cast<double>(good) / total : 0.0;
}

}  // namespace

int main() {
  const int size = 72;
  const goes::MultispectralDataset d =
      goes::make_multispectral_analog(size, 2, 5, 2.5);
  core::MultispectralInput in;
  in.before = {&d.vis[0], &d.ir[0]};
  in.after = {&d.vis[1], &d.ir[1]};
  core::SmaConfig cfg = core::goes9_scaled_config();
  cfg.z_search_radius = 3;

  const core::MultispectralResult r =
      core::track_pair_multispectral(in, cfg, {}, "tiled");

  const int margin = size / 6;
  bench::header("Multispectral fusion (VIS west / IR east, " +
                std::to_string(size) + "x" + std::to_string(size) + ")");
  bench::row_header("", "good fraction");
  bench::row("VIS only", "", bench::fmt(good_fraction(r.per_channel[0],
                                                      d.truth, margin)));
  bench::row("IR only", "", bench::fmt(good_fraction(r.per_channel[1],
                                                     d.truth, margin)));
  bench::row("fused", "", bench::fmt(good_fraction(r.flow, d.truth, margin)));
  std::printf("\n  fused vectors drawn from VIS: %zu, from IR: %zu\n",
              r.winner_counts[0], r.winner_counts[1]);
  std::printf("  RMS vs 32 reference barbs (fused): %.3f px\n\n",
              imaging::rms_endpoint_error(r.flow, d.tracks));
  return 0;
}
