#include "linalg/gaussian_elimination.hpp"

#include <cmath>
#include <cstddef>
#include <utility>

namespace sma::linalg {

SolveCounters& solve_counters() {
  thread_local SolveCounters counters;
  return counters;
}

SolveStatus solve6(Mat6 a, Vec6 b, Vec6& x, double eps) {
  auto& counters = solve_counters();
  ++counters.solves6;

  constexpr std::size_t n = 6;
  for (std::size_t col = 0; col < n; ++col) {
    // Partial pivot: largest magnitude entry in this column.
    std::size_t pivot = col;
    double best = std::abs(a(col, col));
    for (std::size_t r = col + 1; r < n; ++r) {
      const double mag = std::abs(a(r, col));
      if (mag > best) {
        best = mag;
        pivot = r;
      }
    }
    if (best < eps) {
      ++counters.singular;
      return SolveStatus::kSingular;
    }
    if (pivot != col) {
      for (std::size_t c = col; c < n; ++c) std::swap(a(col, c), a(pivot, c));
      std::swap(b[col], b[pivot]);
    }
    const double inv = 1.0 / a(col, col);
    for (std::size_t r = col + 1; r < n; ++r) {
      const double f = a(r, col) * inv;
      if (f == 0.0) continue;
      for (std::size_t c = col; c < n; ++c) a(r, c) -= f * a(col, c);
      b[r] -= f * b[col];
    }
  }
  // Back substitution.
  for (std::size_t ri = n; ri-- > 0;) {
    double s = b[ri];
    for (std::size_t c = ri + 1; c < n; ++c) s -= a(ri, c) * x[c];
    x[ri] = s / a(ri, ri);
  }
  return SolveStatus::kOk;
}

SolveStatus solve_inplace(std::vector<double>& a, std::vector<double>& b,
                          std::size_t n, double eps) {
  auto& counters = solve_counters();
  ++counters.solves_dynamic;

  for (std::size_t col = 0; col < n; ++col) {
    std::size_t pivot = col;
    double best = std::abs(a[col * n + col]);
    for (std::size_t r = col + 1; r < n; ++r) {
      const double mag = std::abs(a[r * n + col]);
      if (mag > best) {
        best = mag;
        pivot = r;
      }
    }
    if (best < eps) {
      ++counters.singular;
      return SolveStatus::kSingular;
    }
    if (pivot != col) {
      for (std::size_t c = col; c < n; ++c)
        std::swap(a[col * n + c], a[pivot * n + c]);
      std::swap(b[col], b[pivot]);
    }
    const double inv = 1.0 / a[col * n + col];
    for (std::size_t r = col + 1; r < n; ++r) {
      const double f = a[r * n + col] * inv;
      if (f == 0.0) continue;
      for (std::size_t c = col; c < n; ++c) a[r * n + c] -= f * a[col * n + c];
      b[r] -= f * b[col];
    }
  }
  for (std::size_t ri = n; ri-- > 0;) {
    double s = b[ri];
    for (std::size_t c = ri + 1; c < n; ++c) s -= a[ri * n + c] * b[c];
    b[ri] = s / a[ri * n + ri];
  }
  return SolveStatus::kOk;
}

}  // namespace sma::linalg
