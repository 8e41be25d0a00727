// fault.hpp — deterministic fault injection for the GOES streaming path.
//
// The paper's flagship run streams 490 frames of GOES-9 Hurricane Luis
// data through the MPDA disk arrays (Sec. 3.1) under the implicit
// assumption that every frame is pristine.  Real GOES rasters are not:
// telemetry drops whole scan lines, bit noise salts individual samples,
// detector columns die, frames go missing, and the RAID-3 stripe reads
// themselves can fail.  FaultInjector models those defect classes with a
// *seedable, counter-based* RNG — every decision is a pure hash of
// (seed, frame, defect class, index), so corruption is reproducible,
// order-independent and free of wall-clock or global state.  FaultLog
// records every injected and recovered defect so benches and operators
// can audit exactly what the pipeline survived.
//
// Zero rates are the identity: an injector whose FaultSpec rates are all
// 0 never touches a pixel and never fails a read, so attaching it leaves
// the pipeline bit-identical to the fault-free build.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "imaging/image.hpp"

namespace sma::core {

/// Defect classes injected into frames / reads, plus the recovery events
/// the degradation machinery reports back into the same log.
enum class FaultKind {
  kScanlineDropout,  ///< one image row replaced by the dropout value
  kBitNoise,         ///< salt-and-pepper samples (detail = pixel count)
  kDeadColumn,       ///< one detector column stuck at the dropout value
  kMissingFrame,     ///< entire frame lost (filled with the dropout value)
  kStripeFault,      ///< modeled MPDA RAID-3 stripe-read failure
  kStripeRetry,      ///< one bounded re-read attempt (detail = backoff s)
  kStripeSkip,       ///< retries exhausted; skip-and-interpolate engaged
  kLineRepaired,     ///< repair layer interpolated a dropped line
  kLineMasked,       ///< repair layer gave up; line marked invalid
};

/// Number of FaultKind values.  obs_bridge.cpp static_asserts its
/// all-kinds export list against this, so adding a kind without
/// registering its "fault.*" gauge fails the build — the same
/// completeness contract the sizeof checks give the stats structs.
inline constexpr std::size_t kFaultKindCount = 9;

/// Human-readable name of a fault kind ("scanline-dropout", ...).
const char* fault_kind_name(FaultKind kind);

/// One injected or recovered defect.
struct FaultEvent {
  FaultKind kind{};
  int frame = -1;     ///< frame index, -1 when not frame-specific
  int index = -1;     ///< row / column / attempt number, -1 when n/a
  double detail = 0;  ///< kind-specific payload (count, seconds, ...)
};

/// Append-only record of everything injected and recovered.  Shared by
/// the injector, the FrameStream retry machinery and the repair layer.
class FaultLog {
 public:
  void record(FaultKind kind, int frame = -1, int index = -1,
              double detail = 0.0) {
    events_.push_back(FaultEvent{kind, frame, index, detail});
  }

  const std::vector<FaultEvent>& events() const { return events_; }
  bool empty() const { return events_.empty(); }
  std::size_t size() const { return events_.size(); }

  /// Number of events of one kind.
  std::size_t count(FaultKind kind) const;

  /// One line per kind with counts, e.g. "scanline-dropout x12".
  std::string summary() const;

  void clear() { events_.clear(); }

 private:
  std::vector<FaultEvent> events_;
};

/// Fault rates and shapes.  All rates are probabilities in [0, 1] applied
/// per row / pixel / column / frame / read as documented per field.
struct FaultSpec {
  std::uint64_t seed = 0x5eed0f00d;

  double scanline_dropout_rate = 0.0;  ///< per row: row := dropout_value
  double bit_noise_rate = 0.0;         ///< per pixel: salt or pepper
  double dead_column_rate = 0.0;       ///< per column: col := dropout_value
  double missing_frame_rate = 0.0;     ///< per frame: whole frame lost
  double stripe_fault_rate = 0.0;      ///< per read: MPDA stripe fails
  double stripe_fault_persist = 0.5;   ///< per retry: failure persists

  float dropout_value = 0.0f;  ///< telemetry fill value for lost data
  float noise_lo = 0.0f;       ///< "pepper" sample value
  float noise_hi = 255.0f;     ///< "salt" sample value
};

/// Deterministic, stateless fault source.  Every query hashes
/// (seed, frame, class, index) with a splitmix64-style mixer, so results
/// do not depend on call order and repeated queries agree.
class FaultInjector {
 public:
  explicit FaultInjector(FaultSpec spec = {}) : spec_(spec) {}

  const FaultSpec& spec() const { return spec_; }

  /// Corrupts one frame in place.  Defect order models the telemetry
  /// chain: dead columns (detector), then bit noise (transmission), then
  /// scan-line dropouts / missing frames (sync loss overwrites the rest).
  /// Events are appended to `log` when non-null.
  void corrupt_frame(imaging::ImageF& frame, int frame_index,
                     FaultLog* log = nullptr) const;

  /// True when the initial MPDA stripe read of `frame_index` fails.
  bool stripe_fault(int frame_index) const;

  /// True when the failure persists through re-read `attempt` (1-based).
  bool stripe_fault_persists(int frame_index, int attempt) const;

  /// True when `frame_index` is lost entirely (consistent with what
  /// corrupt_frame decides for the same index).
  bool frame_missing(int frame_index) const;

  /// Uniform deterministic draw in [0, 1) for (class, frame, index) —
  /// exposed for tests of the determinism contract.
  double uniform(FaultKind kind, int frame, int index) const;

 private:
  FaultSpec spec_;
};

}  // namespace sma::core
