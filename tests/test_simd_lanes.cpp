// test_simd_lanes.cpp — the portable SIMD lane layer (src/simd/) and the
// `vector` backend built on it.
//
// Three contracts under test:
//  * linalg::solve6 property suite — random well-conditioned systems
//    against the dynamic solve_inplace oracle, plus singular detection
//    (the batched solver inherits both behaviours);
//  * batch_factor6 + batch_apply6 — every compiled lane implementation
//    must agree BIT FOR BIT with scalar solve6 on each lane, including
//    batches that swap pivots in every column, skip rows on exact-zero
//    multipliers, and mix singular and well-conditioned systems
//    (singular lanes report the flag and come back with x = 0, the
//    tracker's theta=0 convention), for every right-hand side one
//    factorization is applied to; and every backend must count the
//    same solves;
//  * the tile kernel's scoring passes — batch_apply6_k +
//    batch_residual6_k over several batches at once — must give every
//    lane the bits of one batch_apply6 + batch_residual6 call per batch
//    and of that lane's own NormalEquations6, with pivot orders that
//    differ between the batches of a pass, singular lanes, -0.0
//    moments and padded last passes;
//  * dispatch + backend — SMA_SIMD_LEVEL parsing/overrides, and the
//    `vector` backend staying bit-identical to `sequential` on every
//    flow plane, error included, at every dispatch level while
//    reporting its lane occupancy through VectorBackendExtras.
#include <bit>
#include <cstdint>
#include <cstdlib>
#include <random>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/match_vector.hpp"
#include "core/sma.hpp"
#include "goes/synth.hpp"
#include "helpers.hpp"
#include "imaging/flow.hpp"
#include "linalg/gaussian_elimination.hpp"
#include "linalg/least_squares.hpp"
#include "maspar/backend.hpp"
#include "obs/metrics.hpp"
#include "sched/scheduler.hpp"
#include "simd/batch_solve.hpp"
#include "simd/dispatch.hpp"
#include "simd/lane.hpp"

namespace sma {
namespace {

using core::BackendRegistry;
using core::SmaPipeline;
using core::SmaConfig;
using core::TrackerInput;
using core::TrackResult;
using linalg::Mat6;
using linalg::SolveStatus;
using linalg::Vec6;

// ---------------------------------------------------------------------------
// Fixtures: random 6x6 systems with a controllable conditioning knob.
// ---------------------------------------------------------------------------

/// Diagonally dominant random system: comfortably well-conditioned, so
/// two different pivoting strategies agree to tight tolerance.
Mat6 random_dominant(std::mt19937& rng) {
  std::uniform_real_distribution<double> coef(-1.0, 1.0);
  Mat6 a;
  for (int r = 0; r < 6; ++r) {
    double off = 0.0;
    for (int c = 0; c < 6; ++c) {
      a(r, c) = coef(rng);
      if (c != r) off += std::abs(a(r, c));
    }
    a(r, r) = (a(r, r) < 0 ? -1.0 : 1.0) * (off + 1.0 + std::abs(coef(rng)));
  }
  return a;
}

Vec6 random_vec(std::mt19937& rng) {
  std::uniform_real_distribution<double> coef(-10.0, 10.0);
  Vec6 b;
  for (int i = 0; i < 6; ++i) b[i] = coef(rng);
  return b;
}

/// Rank-deficient system: row 3 is an exact copy of row 1.
Mat6 singular_system(std::mt19937& rng) {
  Mat6 a = random_dominant(rng);
  for (int c = 0; c < 6; ++c) a(3, c) = a(1, c);
  return a;
}

// ---------------------------------------------------------------------------
// solve6 property suite (the scalar reference the batch solver mirrors).
// ---------------------------------------------------------------------------

TEST(Solve6Property, MatchesDynamicOracleOnWellConditionedSystems) {
  std::mt19937 rng(20260806);
  for (int trial = 0; trial < 200; ++trial) {
    const Mat6 a = random_dominant(rng);
    const Vec6 b = random_vec(rng);
    Vec6 x;
    ASSERT_EQ(linalg::solve6(a, b, x), SolveStatus::kOk) << "trial " << trial;

    std::vector<double> am(36), bm(6);
    for (int r = 0; r < 6; ++r) {
      for (int c = 0; c < 6; ++c) am[r * 6 + c] = a(r, c);
      bm[r] = b[r];
    }
    ASSERT_EQ(linalg::solve_inplace(am, bm, 6), SolveStatus::kOk);
    for (int i = 0; i < 6; ++i)
      EXPECT_NEAR(x[i], bm[i], 1e-9 * (1.0 + std::abs(bm[i])))
          << "trial " << trial << " component " << i;

    // The solution actually solves the system (residual check guards
    // against both solvers agreeing on a wrong answer).
    const Vec6 ax = a * x;
    for (int i = 0; i < 6; ++i) EXPECT_NEAR(ax[i], b[i], 1e-8);
  }
}

TEST(Solve6Property, DetectsSingularSystems) {
  std::mt19937 rng(7);
  for (int trial = 0; trial < 50; ++trial) {
    Vec6 x{1, 2, 3, 4, 5, 6};
    EXPECT_EQ(linalg::solve6(singular_system(rng), random_vec(rng), x),
              SolveStatus::kSingular);
  }
  // All-zero matrix is the degenerate extreme.
  Vec6 x;
  EXPECT_EQ(linalg::solve6(Mat6{}, Vec6{1, 0, 0, 0, 0, 0}, x),
            SolveStatus::kSingular);
}

// ---------------------------------------------------------------------------
// Batched solver vs scalar solve6, bit for bit, on every compiled level:
// one factorization applied to one right-hand side.
// ---------------------------------------------------------------------------

std::uint64_t bits_of(double v) { return std::bit_cast<std::uint64_t>(v); }

/// Factors one SoA batch once through the level's factor_apply hook and
/// applies it to every right-hand side rhs[i] (one Vec6 per lane); each
/// solution must equal, lane by lane, scalar solve6 bit for bit — not
/// merely close: the batched elimination must replay the scalar
/// instruction sequence exactly (singular lanes: flag set and x = 0).
void check_factor_apply(simd::SimdLevel level, const std::vector<Mat6>& mats,
                        const std::vector<std::vector<Vec6>>& rhs) {
  const core::LaneKernels hook = core::lane_kernels(level);
  ASSERT_NE(hook.factor_apply, nullptr);
  const int lanes = hook.lanes;
  const int nrhs = static_cast<int>(rhs.size());
  ASSERT_EQ(static_cast<int>(mats.size()), lanes);

  std::vector<double> a(36 * lanes), b(6 * lanes * nrhs),
      x(6 * lanes * nrhs, -1.0);
  std::vector<unsigned char> singular(lanes, 0xCC);
  for (int l = 0; l < lanes; ++l)
    for (int r = 0; r < 6; ++r)
      for (int c = 0; c < 6; ++c) a[(r * 6 + c) * lanes + l] = mats[l](r, c);
  for (int i = 0; i < nrhs; ++i)
    for (int l = 0; l < lanes; ++l)
      for (int r = 0; r < 6; ++r)
        b[(i * 6 + r) * lanes + l] = rhs[i][l][r];
  hook.factor_apply(a.data(), b.data(), nrhs, x.data(), singular.data(),
                    1e-12);

  for (int i = 0; i < nrhs; ++i) {
    for (int l = 0; l < lanes; ++l) {
      Vec6 ref;
      const SolveStatus st = linalg::solve6(mats[l], rhs[i][l], ref, 1e-12);
      const std::string at = std::string(simd::level_name(level)) +
                             " rhs " + std::to_string(i) + " lane " +
                             std::to_string(l);
      EXPECT_EQ(singular[l] != 0, st == SolveStatus::kSingular) << at;
      for (int k = 0; k < 6; ++k) {
        const double got = x[(i * 6 + k) * lanes + l];
        EXPECT_EQ(bits_of(got), bits_of(st == SolveStatus::kSingular
                                            ? 0.0
                                            : ref[k]))
            << at << " x[" << k << "]";
      }
    }
  }
}

/// The distinct levels this binary can actually run: resolve each
/// request to a compiled kernel and keep the ones the host supports.
std::vector<simd::SimdLevel> runnable_levels() {
  std::vector<simd::SimdLevel> out;
  for (simd::SimdLevel req :
       {simd::SimdLevel::kScalar, simd::SimdLevel::kSse2,
        simd::SimdLevel::kAvx2, simd::SimdLevel::kAvx512,
        simd::SimdLevel::kNeon}) {
    const simd::SimdLevel got = core::resolve_kernel_level(req);
    if (!simd::level_supported(got)) continue;
    bool seen = false;
    for (simd::SimdLevel s : out) seen = seen || s == got;
    if (!seen) out.push_back(got);
  }
  return out;
}

TEST(BatchSolve, BitIdenticalToScalarSolve6AcrossLevels) {
  std::mt19937 rng(42);
  for (const simd::SimdLevel level : runnable_levels()) {
    const int lanes = core::lane_kernels(level).lanes;
    SCOPED_TRACE(std::string("level=") + simd::level_name(level));
    for (int trial = 0; trial < 50; ++trial) {
      std::vector<Mat6> mats;
      std::vector<Vec6> rhs;
      for (int l = 0; l < lanes; ++l) {
        mats.push_back(random_dominant(rng));
        rhs.push_back(random_vec(rng));
      }
      check_factor_apply(level, mats, {rhs});
    }
  }
}

TEST(BatchSolve, MixedSingularAndSolvableLanes) {
  std::mt19937 rng(1996);
  for (const simd::SimdLevel level : runnable_levels()) {
    const int lanes = core::lane_kernels(level).lanes;
    SCOPED_TRACE(std::string("level=") + simd::level_name(level));
    // Every singular/non-singular lane pattern, including all-singular.
    for (unsigned pattern = 0; pattern < (1u << lanes); ++pattern) {
      std::vector<Mat6> mats;
      std::vector<Vec6> rhs;
      for (int l = 0; l < lanes; ++l) {
        mats.push_back(pattern & (1u << l) ? singular_system(rng)
                                           : random_dominant(rng));
        rhs.push_back(random_vec(rng));
      }
      check_factor_apply(level, mats, {rhs});
    }
  }
}

// ---------------------------------------------------------------------------
// Factor once, apply per right-hand side: batch_factor6 + batch_apply6
// against scalar solve6, bit for bit.
// ---------------------------------------------------------------------------

/// What solve6's elimination does to `a` besides arithmetic: the columns
/// whose pivot leaves the diagonal row (bit c), and how many multipliers
/// are exactly zero (rows its `f == 0.0` guard skips).
struct EliminationProfile {
  unsigned swapped_columns = 0;
  int zero_multipliers = 0;
};

EliminationProfile elimination_profile(Mat6 a) {
  EliminationProfile out;
  for (int col = 0; col < 6; ++col) {
    int pivot = col;
    for (int r = col + 1; r < 6; ++r)
      if (std::abs(a(r, col)) > std::abs(a(pivot, col))) pivot = r;
    if (pivot != col) {
      out.swapped_columns |= 1u << col;
      for (int c = col; c < 6; ++c) std::swap(a(col, c), a(pivot, c));
    }
    const double inv = 1.0 / a(col, col);
    for (int r = col + 1; r < 6; ++r) {
      const double f = a(r, col) * inv;
      if (f == 0.0) {
        ++out.zero_multipliers;
        continue;
      }
      for (int c = col; c < 6; ++c) a(r, c) -= f * a(col, c);
    }
  }
  return out;
}

/// A dominant system with its rows rotated by one: solve6 swaps rows in
/// every column that has rows below it.
Mat6 rotated_rows(std::mt19937& rng) {
  const Mat6 d = random_dominant(rng);
  Mat6 a;
  for (int r = 0; r < 6; ++r)
    for (int c = 0; c < 6; ++c) a(r, c) = d((r + 1) % 6, c);
  return a;
}

/// A dominant system with exact zeros (one of them -0.0) below the
/// diagonal, so some multipliers are exactly zero and their rows skip.
Mat6 zero_multipliers(std::mt19937& rng) {
  Mat6 a = random_dominant(rng);
  a(2, 0) = 0.0;
  a(4, 0) = -0.0;
  a(4, 1) = 0.0;
  a(5, 3) = -0.0;
  a(5, 4) = 0.0;
  a(5, 0) = 0.0;
  a(5, 1) = 0.0;
  a(5, 2) = 0.0;
  return a;
}

std::vector<std::vector<Vec6>> random_rhs(std::mt19937& rng, int nrhs,
                                          int lanes) {
  std::vector<std::vector<Vec6>> rhs(nrhs);
  for (auto& set : rhs)
    for (int l = 0; l < lanes; ++l) set.push_back(random_vec(rng));
  return rhs;
}

TEST(BatchFactorApply, FixturesExerciseSwapsAndSkips) {
  std::mt19937 rng(5);
  for (int trial = 0; trial < 20; ++trial) {
    EXPECT_EQ(elimination_profile(rotated_rows(rng)).swapped_columns, 0x1Fu);
    EXPECT_GE(elimination_profile(zero_multipliers(rng)).zero_multipliers, 5);
  }
}

TEST(BatchFactorApply, OneFactorizationServesEveryRightHandSide) {
  std::mt19937 rng(23);
  for (const simd::SimdLevel level : runnable_levels()) {
    const int lanes = core::lane_kernels(level).lanes;
    SCOPED_TRACE(std::string("level=") + simd::level_name(level));
    for (int trial = 0; trial < 20; ++trial) {
      // Every lane pivots off the diagonal in every column; then the
      // lanes alternate rotated and unrotated rows, so the swaps blend.
      std::vector<Mat6> all, mixed;
      for (int l = 0; l < lanes; ++l) {
        all.push_back(rotated_rows(rng));
        mixed.push_back(l % 2 == 0 ? rotated_rows(rng) : random_dominant(rng));
      }
      check_factor_apply(level, all, random_rhs(rng, 4, lanes));
      check_factor_apply(level, mixed, random_rhs(rng, 4, lanes));
    }
  }
}

TEST(BatchFactorApply, ZeroMultiplierLanesSkipTheirRows) {
  std::mt19937 rng(31);
  for (const simd::SimdLevel level : runnable_levels()) {
    const int lanes = core::lane_kernels(level).lanes;
    SCOPED_TRACE(std::string("level=") + simd::level_name(level));
    for (int trial = 0; trial < 20; ++trial) {
      std::vector<Mat6> mats;
      for (int l = 0; l < lanes; ++l)
        mats.push_back(l % 2 == trial % 2 ? zero_multipliers(rng)
                                          : rotated_rows(rng));
      std::vector<std::vector<Vec6>> rhs = random_rhs(rng, 3, lanes);
      // A right-hand side with signed zeros: a skipped row must keep
      // its -0.0, which x - 0 * y would not always do.
      for (int l = 0; l < lanes; ++l)
        rhs[2][l] = Vec6{-0.0, 1.0, -0.0, 2.0, -0.0, -0.0};
      check_factor_apply(level, mats, rhs);
    }
  }
}

TEST(BatchFactorApply, MixedSingularAndSolvableLanes) {
  std::mt19937 rng(1996);
  for (const simd::SimdLevel level : runnable_levels()) {
    const int lanes = core::lane_kernels(level).lanes;
    SCOPED_TRACE(std::string("level=") + simd::level_name(level));
    for (unsigned pattern = 0; pattern < (1u << lanes); ++pattern) {
      std::vector<Mat6> mats;
      for (int l = 0; l < lanes; ++l)
        mats.push_back(pattern & (1u << l) ? singular_system(rng)
                                           : rotated_rows(rng));
      check_factor_apply(level, mats, random_rhs(rng, 3, lanes));
    }
  }
}

// ---------------------------------------------------------------------------
// Scoring passes: K batches applied and scored at once, bit for bit.
// ---------------------------------------------------------------------------

/// A symmetric system whose rows pair up: rows i and pair(i) carry a
/// dominant entry in each other's column, so partial pivoting swaps
/// them.  `pairs` picks the pairing (0: none, 1..3: (0,1), (2,3), (4,5)
/// partly or fully; 4: (0,5), (1,4), (2,3)), so batches built from
/// different `pairs` pivot in different orders.
Mat6 paired_symmetric(std::mt19937& rng, int pairs) {
  std::uniform_real_distribution<double> coef(-1.0, 1.0);
  Mat6 a;
  for (int r = 0; r < 6; ++r)
    for (int c = r; c < 6; ++c) a(r, c) = a(c, r) = coef(rng);
  int pair[6] = {0, 1, 2, 3, 4, 5};
  if (pairs == 4) {
    for (int i = 0; i < 6; ++i) pair[i] = 5 - i;
  } else {
    for (int p = 0; p < pairs; ++p) std::swap(pair[2 * p], pair[2 * p + 1]);
  }
  for (int i = 0; i < 6; ++i)
    if (i <= pair[i]) a(i, pair[i]) = a(pair[i], i) = 8.0 + coef(rng);
  return a;
}

/// Batches for LaneKernels::score, one lane per system: the systems'
/// upper triangles, -0.0 in row and column `dead` of a lane marked
/// singular (an all-zero row: solve6 finds no pivot there), and random
/// moments with -0.0 sprinkled in.
struct ScoreBatches {
  int lanes = 0, nbatch = 0;
  std::vector<double> ata, m;  // SoA, as LaneKernels::score reads them
  std::vector<std::uint64_t> profiles;  // per batch: its lanes' swaps
};

ScoreBatches make_score_batches(std::mt19937& rng, int lanes, int nbatch) {
  ScoreBatches out;
  out.lanes = lanes;
  out.nbatch = nbatch;
  out.ata.resize(static_cast<std::size_t>(nbatch) * 21 * lanes);
  out.m.resize(static_cast<std::size_t>(nbatch) * 7 * lanes);
  std::uniform_real_distribution<double> coef(-10.0, 10.0);
  for (int i = 0; i < nbatch; ++i) {
    std::uint64_t profile = 0;
    for (int l = 0; l < lanes; ++l) {
      Mat6 a = paired_symmetric(rng, (i + l) % 5);
      // One lane in three is singular, in a different row each time.
      if ((i * lanes + l) % 3 == 1) {
        const int dead = (i + 2 * l) % 6;
        for (int k = 0; k < 6; ++k) a(dead, k) = a(k, dead) = -0.0;
      }
      profile = profile * 64 + elimination_profile(a).swapped_columns;
      int e = 0;
      for (int r = 0; r < 6; ++r)
        for (int c = r; c < 6; ++c)
          out.ata[(static_cast<std::size_t>(i) * 21 + e++) * lanes + l] =
              a(r, c);
      for (int k = 0; k < 7; ++k) {
        const double v = (i + l + k) % 4 == 0 ? -0.0 : coef(rng);
        out.m[(static_cast<std::size_t>(i) * 7 + k) * lanes + l] =
            k == 6 && v != 0.0 ? 50.0 + std::abs(v) : v;  // b^T b >= 0
      }
    }
    out.profiles.push_back(profile);
  }
  return out;
}

struct Scored {
  std::vector<double> theta, err;
  std::vector<unsigned char> singular;
};

Scored score(const core::LaneKernels& hook, const ScoreBatches& b,
             bool passes) {
  Scored s;
  s.theta.assign(static_cast<std::size_t>(b.nbatch) * 6 * b.lanes, -1.0);
  s.err.assign(static_cast<std::size_t>(b.nbatch) * b.lanes, -1.0);
  s.singular.assign(static_cast<std::size_t>(b.nbatch) * b.lanes, 0xCC);
  hook.score(b.ata.data(), b.m.data(), b.nbatch, passes, s.theta.data(),
             s.err.data(), s.singular.data());
  return s;
}

TEST(ScoringPasses, EveryLaneKeepsItsBitsInPassesOfSeveralBatches) {
  std::mt19937 rng(30);
  for (const simd::SimdLevel level : runnable_levels()) {
    const core::LaneKernels hook = core::lane_kernels(level);
    ASSERT_NE(hook.score, nullptr);
    const int lanes = hook.lanes;
    const int k = hook.batches_per_pass;
    ASSERT_GE(k, 1);
    SCOPED_TRACE(std::string("level=") + simd::level_name(level) +
                 " batches/pass=" + std::to_string(k));
    // Whole passes, and last passes with every count of padded slots.
    for (int nbatch = 1; nbatch <= 3 * k + 1; ++nbatch) {
      const ScoreBatches b = make_score_batches(rng, lanes, nbatch);
      if (nbatch >= 2) {  // the batches of a pass pivot differently
        bool differ = false;
        for (int i = 1; i < nbatch; ++i)
          differ = differ || b.profiles[i] != b.profiles[0];
        EXPECT_TRUE(differ);
      }
      const Scored one = score(hook, b, /*passes=*/false);
      const Scored pass = score(hook, b, /*passes=*/true);
      for (int i = 0; i < nbatch; ++i) {
        for (int l = 0; l < lanes; ++l) {
          const std::string at = "batch " + std::to_string(i) + " of " +
                                 std::to_string(nbatch) + " lane " +
                                 std::to_string(l);
          // The lane's own scalar evaluation: moments into a
          // zero-initialized NormalEquations6 (0.0 + v), solve6 on the
          // symmetric system, theta = 0 when singular, Eq. (3) residual.
          double upper[21];
          for (int e = 0; e < 21; ++e)
            upper[e] = b.ata[(static_cast<std::size_t>(i) * 21 + e) * lanes + l];
          Vec6 atb;
          for (int r = 0; r < 6; ++r)
            atb[r] = b.m[(static_cast<std::size_t>(i) * 7 + r) * lanes + l];
          linalg::NormalEquations6 ne;
          ne.add_precomputed(
              upper, atb, b.m[(static_cast<std::size_t>(i) * 7 + 6) * lanes + l],
              1);
          Vec6 x{};
          const bool singular = ne.solve(x) == SolveStatus::kSingular;
          const double err = ne.residual(x);

          const std::size_t li = static_cast<std::size_t>(i) * lanes + l;
          EXPECT_EQ(one.singular[li] != 0, singular) << at;
          EXPECT_EQ(pass.singular[li], one.singular[li]) << at;
          EXPECT_EQ(bits_of(one.err[li]), bits_of(err)) << at;
          EXPECT_EQ(bits_of(pass.err[li]), bits_of(err)) << at;
          for (int r = 0; r < 6; ++r) {
            const std::size_t ti =
                (static_cast<std::size_t>(i) * 6 + r) * lanes + l;
            EXPECT_EQ(bits_of(one.theta[ti]), bits_of(x[r])) << at;
            EXPECT_EQ(bits_of(pass.theta[ti]), bits_of(x[r])) << at;
          }
        }
      }
    }
  }
}

// The fixtures reach what the test claims: singular lanes, -0.0
// moments, and batches whose lanes pivot off the diagonal.
TEST(ScoringPasses, FixturesMixPivotsSingularLanesAndNegativeZeros) {
  std::mt19937 rng(31);
  const ScoreBatches b = make_score_batches(rng, 8, 6);
  int singular = 0, negative_zero = 0;
  for (int i = 0; i < b.nbatch; ++i)
    for (int l = 0; l < b.lanes; ++l) {
      Mat6 a;
      int e = 0;
      for (int r = 0; r < 6; ++r)
        for (int c = r; c < 6; ++c)
          a(r, c) = a(c, r) =
              b.ata[(static_cast<std::size_t>(i) * 21 + e++) * b.lanes + l];
      Vec6 x;
      singular += linalg::solve6(a, Vec6{}, x) == SolveStatus::kSingular;
      for (int k = 0; k < 7; ++k) {
        const double v = b.m[(static_cast<std::size_t>(i) * 7 + k) * b.lanes + l];
        negative_zero += v == 0.0 && std::signbit(v);
      }
    }
  EXPECT_GT(singular, 0);
  EXPECT_LT(singular, b.nbatch * b.lanes);
  EXPECT_GT(negative_zero, 0);
  std::uint64_t swapped = 0;
  for (const std::uint64_t p : b.profiles) swapped |= p;
  EXPECT_NE(swapped, 0u);
}

// ---------------------------------------------------------------------------
// Lane primitives: the scalar traits are the executable spec; spot-check
// the semantics the batched kernels lean on.
// ---------------------------------------------------------------------------

template <class Tag>
void lane_semantics() {
  using T = simd::LaneTraits<Tag>;
  constexpr int n = T::kLanes;
  double buf[n], out[n];
  float fbuf[n];
  for (int l = 0; l < n; ++l) {
    buf[l] = 1.5 * (l + 1);
    fbuf[l] = static_cast<float>(-2 - l);
  }

  // load/store round-trip and add/mul per lane.
  typename T::Vec v = T::load(buf);
  T::store(out, T::add(v, T::broadcast(0.5)));
  for (int l = 0; l < n; ++l) EXPECT_EQ(out[l], buf[l] + 0.5);
  T::store(out, T::mul(v, v));
  for (int l = 0; l < n; ++l) EXPECT_EQ(out[l], buf[l] * buf[l]);

  // float widening is lossless.
  T::store(out, T::load_f32(fbuf));
  for (int l = 0; l < n; ++l) EXPECT_EQ(out[l], static_cast<double>(fbuf[l]));

  // abs clears the sign of -0.0 (the ±0 normalization the accumulators
  // rely on goes through add(zero, v), but abs must agree on sign).
  T::store(out, T::abs(T::broadcast(-0.0)));
  for (int l = 0; l < n; ++l) EXPECT_FALSE(std::signbit(out[l]));

  // select is per-lane and mask_bits exposes the lane pattern.
  const auto gt = T::cmp_gt(v, T::broadcast(1.6));  // lane 0 false, rest true
  EXPECT_EQ(T::mask_bits(gt), (n == 1 ? 0u : (1u << n) - 2u));
  T::store(out, T::select(gt, T::broadcast(1.0), T::broadcast(-1.0)));
  for (int l = 0; l < n; ++l) EXPECT_EQ(out[l], l == 0 ? -1.0 : 1.0);

  // cmp_eq treats -0.0 == +0.0 (the f==0 elimination-skip contract).
  EXPECT_TRUE(T::mask_any(T::cmp_eq(T::broadcast(-0.0), T::zero())));
  // NaN compares false on every ordered comparison.
  const auto nanv = T::broadcast(std::nan(""));
  EXPECT_FALSE(T::mask_any(T::cmp_gt(nanv, T::zero())));
  EXPECT_FALSE(T::mask_any(T::cmp_lt(nanv, T::zero())));
  EXPECT_FALSE(T::mask_any(T::cmp_eq(nanv, nanv)));
}

TEST(LaneTraits, ScalarSemantics) { lane_semantics<simd::ScalarTag>(); }
#if defined(__SSE2__)
TEST(LaneTraits, Sse2Semantics) { lane_semantics<simd::Sse2Tag>(); }
#endif
#if defined(__ARM_NEON)
TEST(LaneTraits, NeonSemantics) { lane_semantics<simd::NeonTag>(); }
#endif

// ---------------------------------------------------------------------------
// Dispatch rules.
// ---------------------------------------------------------------------------

TEST(Dispatch, ParsesLevelNames) {
  EXPECT_EQ(simd::parse_level("scalar"), simd::SimdLevel::kScalar);
  EXPECT_EQ(simd::parse_level("sse2"), simd::SimdLevel::kSse2);
  EXPECT_EQ(simd::parse_level("avx2"), simd::SimdLevel::kAvx2);
  EXPECT_EQ(simd::parse_level("avx512"), simd::SimdLevel::kAvx512);
  EXPECT_EQ(simd::parse_level("neon"), simd::SimdLevel::kNeon);
  EXPECT_EQ(simd::parse_level("AVX512"), std::nullopt);
  EXPECT_EQ(simd::parse_level(""), std::nullopt);
  for (simd::SimdLevel level :
       {simd::SimdLevel::kScalar, simd::SimdLevel::kSse2,
        simd::SimdLevel::kAvx2, simd::SimdLevel::kAvx512,
        simd::SimdLevel::kNeon})
    EXPECT_EQ(simd::parse_level(simd::level_name(level)), level);
}

TEST(Dispatch, ScalarAlwaysSupportedAndOverridable) {
  EXPECT_TRUE(simd::level_supported(simd::SimdLevel::kScalar));
  setenv("SMA_SIMD_LEVEL", "scalar", 1);
  EXPECT_EQ(simd::active_level(), simd::SimdLevel::kScalar);
  setenv("SMA_SIMD_LEVEL", "not-a-level", 1);
  EXPECT_EQ(simd::active_level(), simd::detect_level());
  unsetenv("SMA_SIMD_LEVEL");
  EXPECT_EQ(simd::active_level(), simd::detect_level());
}

TEST(Dispatch, ResolveDegradesToCompiledKernels) {
  // Whatever was compiled, resolution is idempotent and lands on a level
  // with a real kernel + hook.
  for (simd::SimdLevel req :
       {simd::SimdLevel::kScalar, simd::SimdLevel::kSse2,
        simd::SimdLevel::kAvx2, simd::SimdLevel::kAvx512,
        simd::SimdLevel::kNeon}) {
    const simd::SimdLevel got = core::resolve_kernel_level(req);
    EXPECT_EQ(core::resolve_kernel_level(got), got);
    const core::LaneKernels k = core::lane_kernels(got);
    EXPECT_NE(k.tile, nullptr);
    EXPECT_NE(k.factor_apply, nullptr);
    EXPECT_GE(k.lanes, 2);
  }
  EXPECT_EQ(core::resolve_kernel_level(simd::SimdLevel::kScalar),
            simd::SimdLevel::kScalar);
}

// ---------------------------------------------------------------------------
// The vector backend end to end: bit-identity + occupancy reporting.
// ---------------------------------------------------------------------------

// The golden scene (test_golden_flowfield): a fractal cloud deck
// advected by a Rankine vortex.  No hypothesis matches exactly, so every
// winning residual carries the low bits of the summation order — an
// integer shift would match with error 0 in any order.
constexpr int kSide = 48;

const imaging::ImageF& frame0() {
  static const imaging::ImageF f = goes::fractal_clouds(kSide, kSide, 7);
  return f;
}

const imaging::ImageF& frame1() {
  static const imaging::ImageF f = goes::advect_frame(
      frame0(), goes::rankine_vortex(24.0, 24.0, 9.6, 2.0));
  return f;
}

TrackerInput vector_input() {
  TrackerInput in;
  in.intensity_before = in.surface_before = &frame0();
  in.intensity_after = in.surface_after = &frame1();
  return in;
}

SmaConfig vector_config() {
  SmaConfig cfg;
  cfg.model = core::MotionModel::kContinuous;
  cfg.surface_fit_radius = 2;
  // The 48-pixel-wide frame fills whole batches even at the widest level
  // (AVX-512's 8 lanes; autotuned tiles are rounded up to whole
  // batches), so the occupancy assertions below stay live.
  cfg.z_search_radius = 4;
  cfg.z_template_radius = 3;
  return cfg;
}

const core::VectorBackendExtras* vector_extras(const TrackResult& r) {
  return dynamic_cast<const core::VectorBackendExtras*>(r.extras.get());
}

// The sweep refines sub-pixel: the parabola reads each winner's double
// residual, so u and v carry its low bits — the float error plane alone
// would round most of them away.
TEST(VectorBackend, BitIdenticalToSequentialAtEveryDispatchLevel) {
  const TrackerInput in = vector_input();
  core::PipelineOptions seq_opts, vec_opts;
  seq_opts.track.subpixel = vec_opts.track.subpixel = true;
  vec_opts.backend = "vector";
  unsetenv("SMA_SIMD_LEVEL");
  for (const core::MotionModel model :
       {core::MotionModel::kContinuous, core::MotionModel::kSemiFluid}) {
    SmaConfig cfg = vector_config();
    cfg.model = model;
    const TrackResult ref = SmaPipeline(cfg, seq_opts).track_pair(in);
    for (const simd::SimdLevel level : runnable_levels()) {
      setenv("SMA_SIMD_LEVEL", simd::level_name(level), 1);
      const std::string at =
          std::string("vector@") + simd::level_name(level) +
          (model == core::MotionModel::kContinuous ? " F_cont" : " F_semi");
      const TrackResult r = SmaPipeline(cfg, vec_opts).track_pair(in);
      // Every plane, the error included, byte for byte.
      EXPECT_TRUE(imaging::bit_equal(r.flow, ref.flow))
          << at << " diverged from sequential";
      const auto* vx = vector_extras(r);
      ASSERT_NE(vx, nullptr) << at;
      EXPECT_TRUE(vx->report.vector_path) << at;
      EXPECT_EQ(vx->report.fallback, "") << at;
      EXPECT_EQ(vx->report.level, simd::level_name(level));
      EXPECT_EQ(vx->report.lanes, core::lane_kernels(level).lanes);
      EXPECT_GT(vx->report.batched_hypotheses, 0u) << at;
      EXPECT_GT(vx->report.lane_utilization, 0.0) << at;
      EXPECT_LE(vx->report.lane_utilization, 1.0) << at;
      // Occupancy accounting covers the whole search: batched + tail =
      // pixels * hypotheses.
      const std::uint64_t total_hyp =
          vx->report.batched_hypotheses + vx->report.tail_hypotheses;
      const std::uint64_t side = 2ull * cfg.z_search_radius + 1ull;
      EXPECT_EQ(total_hyp, kSide * kSide * side * side) << at;
    }
    unsetenv("SMA_SIMD_LEVEL");
  }
}

// The solve counters of one tracked pair, gathered on one thread: a
// run() submitted from inside a pool tile executes inline there, so
// every solve of the pair lands in this thread's counters.
linalg::SolveCounters solves_of(const SmaConfig& cfg,
                                const std::string& backend) {
  linalg::SolveCounters counted;
  sched::ThreadPool::shared().run(
      {sched::Tile{0, 0, 1, 1}}, [&](const sched::Tile&, std::size_t) {
        SmaPipeline pipeline(cfg, {.backend = backend});
        const linalg::SolveCounters before = linalg::solve_counters();
        pipeline.track_pair(vector_input());
        const linalg::SolveCounters& after = linalg::solve_counters();
        counted.solves6 = after.solves6 - before.solves6;
        counted.solves_dynamic = after.solves_dynamic - before.solves_dynamic;
        counted.singular = after.singular - before.singular;
      });
  return counted;
}

// Factoring once per centre still counts one solve per hypothesis: the
// lane kernel, the MP-2 simulation and the scalar oracle agree on
// solves6 and singular, for F_cont, F_semi and pruned F_cont — where
// every visit solves only the hypotheses a pixel's window admits, and
// the lane kernel counts only its admitting lanes.
TEST(VectorBackend, SolveCountersMatchEveryBackend) {
  maspar::register_maspar_backend();
  SmaConfig semi = vector_config();
  semi.model = core::MotionModel::kSemiFluid;
  SmaConfig pruned = vector_config();
  pruned.search_mode = core::SearchMode::kPruned;
  for (const auto& [name, cfg] : {std::pair{"F_cont", vector_config()},
                                  {"F_semi", semi},
                                  {"pruned F_cont", pruned}}) {
    SCOPED_TRACE(name);
    const linalg::SolveCounters seq = solves_of(cfg, "sequential");
    const std::uint64_t side = 2ull * cfg.z_search_radius + 1ull;
    if (cfg.search_mode == core::SearchMode::kFull)
      EXPECT_GE(seq.solves6, kSide * kSide * side * side);
    else  // the windows engaged
      EXPECT_LT(seq.solves6, kSide * kSide * side * side);
    for (const char* backend : {"vector", "maspar-sim"}) {
      const linalg::SolveCounters got = solves_of(cfg, backend);
      EXPECT_EQ(got.solves6, seq.solves6) << backend;
      EXPECT_EQ(got.singular, seq.singular) << backend;
    }
  }
}

// A pair without planes runs the staged path and names why: "masked"
// for a masked pair (the pipeline gives it no planes), "no-precompute"
// for a caller's planes-less input; both keep sequential's bytes.
TEST(VectorBackend, FallsBackWhenPrecomputeCannotServe) {
  const SmaConfig cfg = vector_config();
  TrackerInput masked = vector_input();
  imaging::ImageU8 mask(kSide, kSide, 1);
  for (int x = 0; x < kSide; ++x) mask.at(x, 11) = 0;
  masked.validity_before = &mask;
  const TrackResult r_mask =
      SmaPipeline(cfg, {.backend = "vector"}).track_pair(masked);
  const auto* vx_mask = vector_extras(r_mask);
  ASSERT_NE(vx_mask, nullptr);
  EXPECT_FALSE(vx_mask->report.vector_path);
  EXPECT_EQ(vx_mask->report.fallback, "masked");
  EXPECT_TRUE(imaging::bit_equal(r_mask.flow,
                                 SmaPipeline(cfg).track_pair(masked).flow));

  const testing::PlanelessPair planeless(vector_input(), cfg);
  const TrackResult r_np = planeless.match("vector", cfg);
  const auto* vx_np = vector_extras(r_np);
  ASSERT_NE(vx_np, nullptr);
  EXPECT_FALSE(vx_np->report.vector_path);
  EXPECT_EQ(vx_np->report.fallback, "no-precompute");
  EXPECT_TRUE(imaging::bit_equal(
      r_np.flow, SmaPipeline(cfg).track_pair(vector_input()).flow));
}

TEST(VectorBackend, PublishesLaneMetrics) {
  const TrackResult r =
      SmaPipeline(vector_config(), {.backend = "vector"})
          .track_pair(vector_input());
  const auto* vx = vector_extras(r);
  ASSERT_NE(vx, nullptr);
  obs::MetricsRegistry reg;
  core::publish_metrics(vx->report, reg);
  const std::vector<obs::MetricSnapshot> snap = reg.snapshot();
  const obs::MetricSnapshot* lanes = obs::find_metric(snap, "vector.lanes");
  ASSERT_NE(lanes, nullptr);
  EXPECT_EQ(lanes->value, vx->report.lanes);
  const obs::MetricSnapshot* util =
      obs::find_metric(snap, "vector.lane_utilization");
  ASSERT_NE(util, nullptr);
  EXPECT_EQ(util->value, vx->report.lane_utilization);
  const obs::MetricSnapshot* path =
      obs::find_metric(snap, "vector.vector_path");
  ASSERT_NE(path, nullptr);
  EXPECT_EQ(path->value, 1.0);
}

}  // namespace
}  // namespace sma
