#include "imaging/repair.hpp"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <vector>

namespace sma::imaging {

namespace {

constexpr float kConstEps = 1e-6f;

double median_of(std::vector<double>& v) {
  if (v.empty()) return 0.0;
  const std::size_t mid = v.size() / 2;
  std::nth_element(v.begin(), v.begin() + mid, v.end());
  return v[mid];
}

// Per-line statistics along one axis.  `along` is the line length,
// `across` the number of lines; `sample(line, i)` reads sample i of the
// line; `skip(line)` excludes lines already known dead on the other axis
// contributing to cross-line statistics.
struct LineStats {
  double mean = 0.0;
  double stddev = 0.0;
  double const_fraction = 0.0;  // fraction of samples equal to the median
};

template <typename Sample>
LineStats line_stats(const Sample& sample, int len) {
  LineStats s;
  std::vector<double> vals(static_cast<std::size_t>(len));
  double sum = 0.0, sum2 = 0.0;
  for (int i = 0; i < len; ++i) {
    const double v = sample(i);
    vals[static_cast<std::size_t>(i)] = v;
    sum += v;
    sum2 += v * v;
  }
  s.mean = sum / len;
  const double var = sum2 / len - s.mean * s.mean;
  s.stddev = var > 0.0 ? std::sqrt(var) : 0.0;
  const double med = median_of(vals);
  int eq = 0;
  for (int i = 0; i < len; ++i)
    if (std::fabs(sample(i) - med) <= kConstEps) ++eq;
  s.const_fraction = static_cast<double>(eq) / len;
  return s;
}

// Dead-line detection shared by rows and columns.  `sample(line, i)`
// reads sample i of line `line`; lines where `exclude` is true still get
// flagged by their own statistics but are skipped when forming the
// cross-line robust center/scale.
template <typename Sample>
std::vector<int> detect_dead_lines(const Sample& sample, int lines, int len,
                                   const RepairOptions& opts,
                                   const std::vector<char>* exclude) {
  std::vector<LineStats> stats(static_cast<std::size_t>(lines));
  for (int l = 0; l < lines; ++l)
    stats[static_cast<std::size_t>(l)] =
        line_stats([&](int i) { return sample(l, i); }, len);

  // Robust center/scale of the line means over non-excluded lines.
  std::vector<double> means;
  for (int l = 0; l < lines; ++l) {
    if (exclude && (*exclude)[static_cast<std::size_t>(l)]) continue;
    means.push_back(stats[static_cast<std::size_t>(l)].mean);
  }
  std::vector<double> tmp = means;
  const double center = median_of(tmp);
  std::vector<double> dev;
  dev.reserve(means.size());
  for (const double m : means) dev.push_back(std::fabs(m - center));
  const double mad = median_of(dev);
  const double robust_sigma = 1.4826 * mad + 1e-9;
  // Typical within-line spread, for the low-variance secondary test.
  std::vector<double> spreads;
  for (int l = 0; l < lines; ++l) {
    if (exclude && (*exclude)[static_cast<std::size_t>(l)]) continue;
    spreads.push_back(stats[static_cast<std::size_t>(l)].stddev);
  }
  const double typical_spread = median_of(spreads);

  std::vector<int> dead;
  for (int l = 0; l < lines; ++l) {
    const LineStats& s = stats[static_cast<std::size_t>(l)];
    const bool constant = s.const_fraction >= opts.constant_fraction;
    const bool outlier =
        s.stddev < 0.25 * typical_spread &&
        std::fabs(s.mean - center) > opts.mean_outlier_sigma * robust_sigma;
    if (constant || outlier) dead.push_back(l);
  }
  return dead;
}

// Interpolates runs of dead lines in place.  `get`/`set` address sample
// i of line l; bridged runs are lerped and reported repaired, unbridged
// or too-wide runs are filled from the nearest live line and masked.
struct LineRepairOutcome {
  std::vector<int> repaired;
  std::vector<int> masked;
};

template <typename Get, typename Set, typename Mask>
LineRepairOutcome interpolate_dead_lines(const std::vector<int>& dead,
                                         int lines, int len, const Get& get,
                                         const Set& set, const Mask& mask,
                                         int max_gap) {
  LineRepairOutcome out;
  std::vector<char> is_dead(static_cast<std::size_t>(lines), 0);
  for (const int l : dead) is_dead[static_cast<std::size_t>(l)] = 1;

  int l = 0;
  while (l < lines) {
    if (!is_dead[static_cast<std::size_t>(l)]) {
      ++l;
      continue;
    }
    int run_end = l;
    while (run_end + 1 < lines && is_dead[static_cast<std::size_t>(run_end + 1)])
      ++run_end;
    const int prev = l - 1;             // live line below the run, or -1
    const int next = run_end + 1;       // live line above, or == lines
    const int width = run_end - l + 1;
    const bool bridged = prev >= 0 && next < lines && width <= max_gap;
    for (int r = l; r <= run_end; ++r) {
      if (bridged) {
        const double t = static_cast<double>(r - prev) / (next - prev);
        for (int i = 0; i < len; ++i)
          set(r, i, static_cast<float>((1.0 - t) * get(prev, i) +
                                       t * get(next, i)));
        out.repaired.push_back(r);
      } else {
        const int src = prev >= 0 && (next >= lines || r - prev <= next - r)
                            ? prev
                            : (next < lines ? next : -1);
        for (int i = 0; i < len; ++i) {
          set(r, i, src >= 0 ? get(src, i) : 0.0f);
          mask(r, i);
        }
        out.masked.push_back(r);
      }
    }
    l = run_end + 1;
  }
  return out;
}

float median9(float* v) {
  std::nth_element(v, v + 4, v + 9);
  return v[4];
}

}  // namespace

std::vector<int> detect_dead_rows(const ImageF& img,
                                  const RepairOptions& opts) {
  if (img.empty()) return {};
  return detect_dead_lines(
      [&](int l, int i) { return img.at(i, l); }, img.height(), img.width(),
      opts, nullptr);
}

std::vector<int> detect_dead_columns(const ImageF& img,
                                     const RepairOptions& opts) {
  if (img.empty()) return {};
  return detect_dead_lines(
      [&](int l, int i) { return img.at(l, i); }, img.width(), img.height(),
      opts, nullptr);
}

RepairReport repair_frame(const ImageF& img, const RepairOptions& opts) {
  RepairReport report;
  report.image = img;
  report.validity = ImageU8(img.width(), img.height(), 1);
  if (img.empty()) return report;

  const int w = img.width();
  const int h = img.height();

  const std::vector<int> dead_rows = detect_dead_rows(img, opts);
  if (static_cast<int>(dead_rows.size()) >= h) {
    // Nothing in the frame is trustworthy (missing frame).
    report.frame_missing = true;
    report.validity.fill(0);
    report.masked_rows = dead_rows;
    return report;
  }

  // Column statistics exclude dead rows, so a frame with many dropped
  // lines does not drag every column toward the dropout value.
  std::vector<char> row_dead(static_cast<std::size_t>(h), 0);
  for (const int r : dead_rows) row_dead[static_cast<std::size_t>(r)] = 1;
  std::vector<int> dead_cols = detect_dead_lines(
      [&](int l, int i) {
        // Substitute the column's own running sample with a live-row
        // sample: skip dead rows by sampling the nearest live row.
        int y = i;
        while (y < h && row_dead[static_cast<std::size_t>(y)]) ++y;
        if (y >= h) {
          y = i;
          while (y > 0 && row_dead[static_cast<std::size_t>(y)]) --y;
        }
        return img.at(l, y);
      },
      w, h, opts, nullptr);

  ImageF& out = report.image;
  ImageU8& valid = report.validity;

  // Rows first: a sync loss wipes whole lines and is the dominant defect.
  const LineRepairOutcome rows = interpolate_dead_lines(
      dead_rows, h, w, [&](int l, int i) { return out.at(i, l); },
      [&](int l, int i, float v) { out.at(i, l) = v; },
      [&](int l, int i) { valid.at(i, l) = 0; }, opts.max_interp_gap);
  report.repaired_rows = rows.repaired;
  report.masked_rows = rows.masked;

  // Columns on the row-repaired raster.
  const LineRepairOutcome cols = interpolate_dead_lines(
      dead_cols, w, h, [&](int l, int i) { return out.at(l, i); },
      [&](int l, int i, float v) {
        if (valid.at(l, i)) out.at(l, i) = v;
      },
      [&](int l, int i) { valid.at(l, i) = 0; }, opts.max_interp_gap);
  report.repaired_cols = cols.repaired;
  report.masked_cols = cols.masked;

  // Salt-and-pepper despike on live pixels: a sample pinned at an
  // expected-range extreme that jumps far from its 3x3 median is noise.
  if (opts.despike) {
    std::vector<char> col_dead(static_cast<std::size_t>(w), 0);
    for (const int c : dead_cols) col_dead[static_cast<std::size_t>(c)] = 1;
    const float jump =
        static_cast<float>(opts.spike_min_jump *
                           (opts.expected_hi - opts.expected_lo));
    const float lo = opts.expected_lo + kConstEps;
    const float hi = opts.expected_hi - kConstEps;
    const ImageF src = out;  // despike against the pre-despike raster
    float window[9];
    for (int y = 0; y < h; ++y) {
      if (row_dead[static_cast<std::size_t>(y)]) continue;
      for (int x = 0; x < w; ++x) {
        if (col_dead[static_cast<std::size_t>(x)]) continue;
        const float v = src.at(x, y);
        if (v > lo && v < hi) continue;
        int n = 0;
        for (int dy = -1; dy <= 1; ++dy)
          for (int dx = -1; dx <= 1; ++dx)
            window[n++] = src.at_clamped(x + dx, y + dy);
        const float med = median9(window);
        if (std::fabs(v - med) > jump) {
          out.at(x, y) = med;
          ++report.despiked_pixels;
        }
      }
    }
  }
  return report;
}

}  // namespace sma::imaging
