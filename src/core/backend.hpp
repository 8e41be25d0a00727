// backend.hpp — pluggable execution backends for the SMA tracker.
//
// The paper's central validation is that ONE algorithm runs on three
// substrates — the sequential SGI baseline, a host-parallel comparator
// and the MasPar MP-2 — with bit-identical flow fields (Secs. 4, 5.1).
// TrackerBackend makes that contract an interface: a backend is only
// the matching stage — match() over geometry, discriminants and
// precompute planes that SmaPipeline (core/pipeline.hpp), the one
// orchestrator, has already built.  Every backend's match() calls the
// one matching stage, run_matching_stage (core/tracker.hpp), which owns
// the pruned branch, the Sec. 4.3 segment loop, the correspondence
// tables, sub-pixel refinement and products; a backend supplies only
// how one segment's pixels are visited, plus any substrate-specific
// reporting attached via TrackResult::extras.  Every backend must
// produce the identical FlowField, pruned search included.
//
// Registered backends:
//   "sequential" — single-threaded reference: inline staged tiles
//   "vector"     — work-stealing threads over pixel tiles: SIMD lanes
//                  over each tile's pixels, runtime-dispatched AVX-512/
//                  AVX2/SSE2/NEON/scalar lane kernels (core/match_vector.hpp,
//                  simd/dispatch.hpp), and the staged tiles on the pool
//                  for the configs the lanes cannot serve
//   "maspar-sim" — MP-2 memory-layer visit order with modeled machine
//                  costs (registered by
//                  sma::maspar::register_maspar_backend(),
//                  maspar/backend.hpp — the core library cannot depend on
//                  the maspar layer, so that registration is explicit)
//
// The registry is the seam later scaling work (sharding, async batching,
// new substrates) plugs into: a backend is looked up by name, so a
// `--backend NAME` flag or a config string reaches every execution path.
#pragma once

#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "core/config.hpp"
#include "core/tracker.hpp"

namespace sma::core {

/// Static facts about a backend the pipeline and tools can query.
struct BackendCapabilities {
  bool host_parallel = false;  ///< runs on the host's sched pool
};

class TrackerBackend {
 public:
  virtual ~TrackerBackend() = default;

  virtual std::string name() const = 0;
  virtual BackendCapabilities capabilities() const = 0;

  /// Matching only (semi-fluid mapping, hypothesis search, optional
  /// sub-pixel, products — run_matching_stage) on precomputed per-frame
  /// geometry, the one stage SmaPipeline delegates, so cached geometry
  /// is never refitted.  Fills the matching-phase timings; the pipeline
  /// owns the geometry and precompute timings and the pair's
  /// timings.total.
  virtual TrackResult match(const MatchInput& in, const SmaConfig& config,
                            const TrackOptions& options) const = 0;
};

/// Process-wide, thread-safe backend registry.  The sequential and
/// vector backends are registered on first access; further backends may be
/// registered at startup.  Re-registering a name replaces and destroys
/// the previous entry, so a SmaPipeline (which keeps a pointer to its
/// backend) must be built after the registration it uses.
class BackendRegistry {
 public:
  static BackendRegistry& instance();

  void register_backend(std::unique_ptr<TrackerBackend> backend);

  /// Looks a backend up by name; null when unknown.
  const TrackerBackend* find(const std::string& name) const;

  /// Like find(), but throws std::invalid_argument listing the
  /// registered names — the error a mistyped --backend flag surfaces.
  const TrackerBackend& get(const std::string& name) const;

  /// Registered names, sorted.
  std::vector<std::string> names() const;

 private:
  BackendRegistry();

  mutable std::mutex mutex_;
  std::map<std::string, std::unique_ptr<TrackerBackend>> backends_;
};

}  // namespace sma::core
