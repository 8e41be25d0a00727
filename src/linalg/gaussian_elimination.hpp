// gaussian_elimination.hpp — dense linear solves by Gaussian elimination.
//
// The paper's inner loops are built around Gaussian elimination: "Least
// squares surface fitting ... leads to solving a 6x6 matrix using the
// Gaussian-elimination method" (Sec. 2.2, Step 2), and "169
// Gaussian-eliminations are performed to solve for the motion parameters"
// per tracked pixel (Sec. 3).  We provide:
//
//  * solve6        — fixed-size 6x6 partial-pivot solve (the hot path),
//  * solve_inplace — dynamic NxN solve for tests and the stereo substrate,
//  * SolveStats    — a global (thread-local aggregated) elimination counter
//                    used by the op-count model to reproduce the paper's
//                    computational-burden arithmetic (Table 1 discussion).
#pragma once

#include <cstdint>
#include <vector>

#include "linalg/matrix.hpp"

namespace sma::linalg {

/// Outcome of a linear solve.  Singular systems are reported, not thrown:
/// the tracker treats a singular hypothesis as "no information" and assigns
/// it infinite error rather than aborting a 262144-pixel sweep.
enum class SolveStatus : std::uint8_t { kOk, kSingular };

/// Process-wide counters for elimination calls.  The IPPS'96 paper reasons
/// explicitly about elimination counts ("over one million ... separate
/// Gaussian-eliminations"); tests and the workload benches check our
/// implementation against that arithmetic.
struct SolveCounters {
  std::uint64_t solves6 = 0;       ///< fixed 6x6 eliminations
  std::uint64_t solves_dynamic = 0;///< dynamic NxN eliminations
  std::uint64_t singular = 0;      ///< systems reported singular
};

/// Returns a mutable reference to this thread's counters.  Each worker
/// thread accumulates privately; a caller measures its own work as the
/// difference of two reads.
SolveCounters& solve_counters();

/// Solves A x = b for a 6x6 system with partial pivoting.
/// A and b are taken by value (the elimination destroys them); the solution
/// is written to `x`.  Returns kSingular if a pivot falls below `eps`.
SolveStatus solve6(Mat6 a, Vec6 b, Vec6& x, double eps = 1e-12);

/// Dynamic NxN in-place solve with partial pivoting.
/// `a` is row-major n*n, `b` has n entries; on success `b` holds x.
SolveStatus solve_inplace(std::vector<double>& a, std::vector<double>& b,
                          std::size_t n, double eps = 1e-12);

}  // namespace sma::linalg
