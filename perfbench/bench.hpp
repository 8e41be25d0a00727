// bench.hpp — shared pieces of the end-to-end benchmark harness.
//
// The harness measures the repository's programs from the outside: every
// span it records wraps a call into a public function (read_pgm,
// SmaPipeline::track_pair, Client::seq_frame, shard_track_pair,
// write_flow_text), and every finer split comes from the program's own
// public timers and counters (PipelineStats, TrackTimings, ShardReport,
// SchedStats, the backend extras).  Nothing here adds tracing to src/.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "core/backend.hpp"
#include "imaging/flow.hpp"
#include "sched/scheduler.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}
inline double seconds_since(Clock::time_point t) {
  return seconds_between(t, Clock::now());
}

/// Command-line settings shared by every workload.
struct Options {
  std::string workload;
  std::string phase;     ///< "prepare" or "run"
  std::string dir;       ///< per-run scratch directory (inputs, outputs)
  std::string trace_path;  ///< Chrome trace output (trace runs only)
  std::uint32_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
};

/// Set-ups per run; setup_s is their median.
constexpr int kSetupRepeats = 3;

/// One reported metric.
struct Metric {
  double value = 0.0;
  std::string unit;
};

/// What a workload run hands back to main().
struct RunResult {
  bool correct = true;
  long attempted = 0;
  long failed = 0;
  std::map<std::string, Metric> end_to_end;
  std::map<std::string, Metric> per_layer;
  /// Human-readable lines printed before the JSON result (attribution
  /// table, sample counts).
  std::vector<std::string> notes;
};

/// In-memory span store.  A span names the layer it times; `parent` is
/// the index of the enclosing span (-1 for a root).  Self time is a
/// span's duration minus the durations of its children.  "e2e.*" spans
/// are per-request envelopes: their self time (gaps between the layer
/// calls inside them) is not attributed to any layer.  Spans derived
/// from a program timer (duration known, offset not) are laid out in
/// stage order inside their parent.
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled), origin_(Clock::now()) {}

  bool enabled() const { return enabled_; }

  /// Records a completed span; returns its index (-1 when disabled).
  int add(const std::string& layer, Clock::time_point start,
          Clock::time_point end, std::uint64_t pair_id, int parent,
          int tid = 0);
  /// Records a span of known duration starting at `start`.
  int add_duration(const std::string& layer, Clock::time_point start,
                   double seconds, std::uint64_t pair_id, int parent,
                   int tid = 0);

  /// Self seconds per layer over every span but the e2e envelopes.
  std::map<std::string, double> self_seconds() const;

  /// Writes the spans as Chrome trace_event JSON (Perfetto loads it).
  bool write_chrome_trace(const std::string& path,
                          const std::string& process_name) const;

  /// Seconds spent on tracing bookkeeping (the tracing overhead): span
  /// recording times itself; other bookkeeping uses OverheadScope.
  void add_overhead(double seconds) {
    std::lock_guard<std::mutex> lock(mutex_);
    overhead_seconds_ += seconds;
  }
  double overhead_seconds() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return overhead_seconds_;
  }

 private:
  struct Span {
    std::string layer;
    double start_us = 0.0;
    double dur_us = 0.0;
    std::uint64_t pair_id = 0;
    int parent = -1;
    int tid = 0;
  };

  bool enabled_;
  Clock::time_point origin_;
  mutable std::mutex mutex_;  // guards spans_ and overhead_seconds_
  std::vector<Span> spans_;
  double overhead_seconds_ = 0.0;
};

/// Accumulates the time a scope spends on tracing bookkeeping.
class OverheadScope {
 public:
  explicit OverheadScope(Tracer& tracer)
      : tracer_(tracer), start_(Clock::now()) {}
  ~OverheadScope() { tracer_.add_overhead(seconds_since(start_)); }
  OverheadScope(const OverheadScope&) = delete;
  OverheadScope& operator=(const OverheadScope&) = delete;

 private:
  Tracer& tracer_;
  Clock::time_point start_;
};

/// Counts one matching backend's calls from outside: a registered
/// TrackerBackend that forwards match() to "vector" and tallies the
/// result's public timings and extras.  Traced runs select it by name;
/// untraced runs call "vector" directly.
struct MatchTally {
  std::uint64_t calls = 0;
  std::uint64_t pixels = 0;
  /// Hypotheses evaluated by calls the pruned sweep did not serve (the
  /// pruned ones are coarse + fine_scheduled below).
  std::uint64_t hypotheses = 0;
  std::uint64_t vector_fallbacks = 0; ///< calls the lane kernel declined
  std::uint64_t batched = 0, tail = 0;
  double match_seconds = 0.0;         ///< wall time inside match()
  double semifluid_seconds = 0.0;     ///< TrackTimings::semifluid_mapping
  double hypothesis_seconds = 0.0;    ///< TrackTimings::hypothesis_matching
  double bookkeeping_seconds = 0.0;   ///< the probe's own tallying time
  // PruneReport sums.
  std::uint64_t prune_active = 0;
  std::uint64_t full_grid = 0, coarse = 0, fine_scheduled = 0;
  std::uint64_t bound_checks = 0, bound_skipped = 0;
  std::uint64_t window_pixels = 0, seed_interior = 0;
  /// Per-call match() wall seconds in call order (the shard runner calls
  /// tiles one after another, so call k of a pair is tile k).
  std::vector<double> call_seconds;
};

class ProbeBackend final : public sma::core::TrackerBackend {
 public:
  static constexpr const char* kName = "perfbench-vector";

  /// Registers the probe once per process and returns it.
  static ProbeBackend& install();

  std::string name() const override { return kName; }
  sma::core::BackendCapabilities capabilities() const override {
    return inner_->capabilities();
  }
  sma::core::TrackResult match(const sma::core::MatchInput& in,
                               const sma::core::SmaConfig& config,
                               const sma::core::TrackOptions& options)
      const override;

  MatchTally snapshot() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return tally_;
  }

 private:
  explicit ProbeBackend(const sma::core::TrackerBackend* inner)
      : inner_(inner) {}

  const sma::core::TrackerBackend* inner_;
  mutable std::mutex mutex_;  // guards tally_
  mutable MatchTally tally_;
};

/// Difference of two tallies (b - a) for the scalar fields.
MatchTally tally_delta(const MatchTally& a, const MatchTally& b);

/// Difference of two scheduler snapshots (b - a).
sma::sched::SchedStats sched_delta(const sma::sched::SchedStats& a,
                                   const sma::sched::SchedStats& b);

/// Linear-interpolated percentile (q in [0,1]) of unsorted samples.
double percentile(std::vector<double> samples, double q);
double median(std::vector<double> samples);

/// VmHWM of this process in MiB (peak resident set).
double peak_rss_mb();

/// Whole file as bytes ("" when unreadable).
std::string read_file(const std::string& path);
/// True when the two files have identical bytes (streamed, no full load).
bool files_identical(const std::string& a, const std::string& b);

/// Interior margin used by the RMS endpoint check: the stacked window
/// radii, inside which templates never touch the frame edge.
int interior_margin(const sma::core::SmaConfig& config);

/// The paper's sub-pixel criterion on interior pixels.
constexpr double kRmsLimitPx = 1.0;

/// Adds the per-layer metrics every workload reports (sched, match,
/// prune, trace quality) from measured deltas.
void add_common_layer_metrics(RunResult& out, const MatchTally& match,
                              const sma::sched::SchedStats& sched,
                              double window_seconds, long pairs,
                              const Tracer& tracer, double traced_wall);

/// Appends the attribution table (layer self time, share of wall, an
/// explicit unattributed row) to out.notes.
void add_attribution_table(RunResult& out, const std::string& workload,
                           const Tracer& tracer, double traced_wall,
                           long pairs);

// Workload entry points (one translation unit each).
void prepare_semi_pair(const Options& o);
RunResult run_semi_pair(const Options& o);
void prepare_rapidscan_session(const Options& o);
RunResult run_rapidscan_session(const Options& o);
void prepare_outofcore_shard(const Options& o);
RunResult run_outofcore_shard(const Options& o);

}  // namespace perfbench
