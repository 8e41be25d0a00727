#include "core/fault.hpp"

#include <sstream>

namespace sma::core {

namespace {

// splitmix64 finalizer — the standard 64-bit avalanche mixer.
std::uint64_t mix64(std::uint64_t z) {
  z += 0x9e3779b97f4a7c15ull;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

// Hash of (seed, kind, frame, index) -> [0, 1).  Chained mixing keeps
// every coordinate influential; 2^-64 scaling gives a uniform double.
double hash_uniform(std::uint64_t seed, FaultKind kind, int frame,
                    int index) {
  std::uint64_t h = mix64(seed ^ (0x9e00ull + static_cast<std::uint64_t>(kind)));
  h = mix64(h ^ static_cast<std::uint64_t>(static_cast<std::int64_t>(frame)));
  h = mix64(h ^ static_cast<std::uint64_t>(static_cast<std::int64_t>(index)));
  return static_cast<double>(h >> 11) * 0x1.0p-53;
}

}  // namespace

const char* fault_kind_name(FaultKind kind) {
  switch (kind) {
    case FaultKind::kScanlineDropout: return "scanline-dropout";
    case FaultKind::kBitNoise: return "bit-noise";
    case FaultKind::kDeadColumn: return "dead-column";
    case FaultKind::kMissingFrame: return "missing-frame";
    case FaultKind::kLineRepaired: return "line-repaired";
    case FaultKind::kLineMasked: return "line-masked";
  }
  return "unknown";
}

std::size_t FaultLog::count(FaultKind kind) const {
  std::size_t n = 0;
  for (const FaultEvent& e : events_)
    if (e.kind == kind) ++n;
  return n;
}

std::string FaultLog::summary() const {
  static constexpr FaultKind kAll[] = {
      FaultKind::kScanlineDropout, FaultKind::kBitNoise,
      FaultKind::kDeadColumn,      FaultKind::kMissingFrame,
      FaultKind::kLineRepaired,    FaultKind::kLineMasked,
  };
  static_assert(sizeof(kAll) / sizeof(kAll[0]) == kFaultKindCount,
                "FaultKind changed: update FaultLog::summary and "
                "obs_bridge.cpp's kAllFaultKinds");
  std::ostringstream out;
  bool any = false;
  for (const FaultKind k : kAll) {
    const std::size_t n = count(k);
    if (n == 0) continue;
    if (any) out << ", ";
    out << fault_kind_name(k) << " x" << n;
    any = true;
  }
  if (!any) out << "no faults";
  return out.str();
}

double FaultInjector::uniform(FaultKind kind, int frame, int index) const {
  return hash_uniform(spec_.seed, kind, frame, index);
}

bool FaultInjector::frame_missing(int frame_index) const {
  return spec_.missing_frame_rate > 0.0 &&
         uniform(FaultKind::kMissingFrame, frame_index, 0) <
             spec_.missing_frame_rate;
}

void FaultInjector::corrupt_frame(imaging::ImageF& frame, int frame_index,
                                  FaultLog* log) const {
  const int w = frame.width();
  const int h = frame.height();
  if (w == 0 || h == 0) return;

  // A missing frame supersedes every other defect class.
  if (frame_missing(frame_index)) {
    frame.fill(spec_.dropout_value);
    if (log) log->record(FaultKind::kMissingFrame, frame_index);
    return;
  }

  if (spec_.dead_column_rate > 0.0) {
    for (int x = 0; x < w; ++x) {
      if (uniform(FaultKind::kDeadColumn, frame_index, x) >=
          spec_.dead_column_rate)
        continue;
      for (int y = 0; y < h; ++y) frame.at(x, y) = spec_.dropout_value;
      if (log) log->record(FaultKind::kDeadColumn, frame_index, x);
    }
  }

  if (spec_.bit_noise_rate > 0.0) {
    int hit = 0;
    for (int y = 0; y < h; ++y)
      for (int x = 0; x < w; ++x) {
        const int pix = y * w + x;
        if (uniform(FaultKind::kBitNoise, frame_index, pix) >=
            spec_.bit_noise_rate)
          continue;
        // Second independent draw chooses salt vs pepper.
        frame.at(x, y) =
            uniform(FaultKind::kBitNoise, frame_index, pix + w * h) < 0.5
                ? spec_.noise_lo
                : spec_.noise_hi;
        ++hit;
      }
    if (log && hit > 0)
      log->record(FaultKind::kBitNoise, frame_index, -1, hit);
  }

  // Scan-line dropouts last: a sync loss wipes whatever the row held.
  if (spec_.scanline_dropout_rate > 0.0) {
    for (int y = 0; y < h; ++y) {
      if (uniform(FaultKind::kScanlineDropout, frame_index, y) >=
          spec_.scanline_dropout_rate)
        continue;
      float* row = frame.row(y);
      for (int x = 0; x < w; ++x) row[x] = spec_.dropout_value;
      if (log) log->record(FaultKind::kScanlineDropout, frame_index, y);
    }
  }
}

}  // namespace sma::core
