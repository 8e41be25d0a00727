// pdisk.hpp — MasPar Parallel Disk Array (MPDA) model.
//
// Sec. 3.1: "The Goddard MP-2 has two RAID-3 8-way striped MasPar
// Parallel Disk Arrays that deliver a sustained performance of over
// 30 MB/s across a 200 MB/s MPIOC channel.  The high throughput of MPDA
// was exploited in running the SMA algorithm on a dense sequence of 490
// frames of GOES-9 data."
//
// FrameStream emulates streaming a long frame sequence (the Hurricane
// Luis run) through the disk array: frames are served from memory while
// the modeled I/O clock advances at the sustained MPDA rate, bounded by
// the MPIOC channel.
//
// Failure semantics: with a core::FaultInjector attached, a read may hit
// a modeled RAID-3 stripe fault.  The stream then performs bounded
// retries, each accounting a full re-read of the frame's stripe group
// plus an exponential settle delay on the modeled I/O clock; if the
// fault persists through every retry the stream degrades gracefully —
// the frame is replaced by the interpolation of its intact neighbors
// (skip-and-interpolate) and the event is recorded in the FaultLog.
// With no injector attached (or all-zero fault rates) the stream is
// bit-identical to the fault-free model.
#pragma once

#include <cstdint>
#include <stdexcept>
#include <vector>

#include "core/fault.hpp"
#include "imaging/image.hpp"

namespace sma::maspar {

struct MpdaSpec {
  int stripes = 8;                  ///< RAID-3 8-way striping
  double sustained_bw = 30.0e6;     ///< bytes/s, array sustained
  double channel_bw = 200.0e6;      ///< MPIOC channel ceiling
  int array_count = 2;              ///< two MPDAs at Goddard

  /// Effective streaming bandwidth: arrays in parallel, channel-capped.
  double effective_bw() const {
    const double arrays = sustained_bw * array_count;
    return arrays < channel_bw ? arrays : channel_bw;
  }
};

/// Bounded-retry policy for modeled stripe-read failures.
struct StreamFaultPolicy {
  int max_retries = 3;           ///< re-reads before skip-and-interpolate
  double backoff_base = 2.0e-3;  ///< settle seconds, doubling per retry
};

/// What one modeled stripe read took (see read_stripe).
struct StripeRead {
  bool fault = false;      ///< the first read hit a stripe fault
  int retries = 0;         ///< re-reads performed
  bool exhausted = false;  ///< the fault outlived every retry
};

/// One modeled stripe read of unit `index`: `bytes` taking
/// `read_seconds`, added to `io_seconds` / `bytes_read`.  On a stripe
/// fault (only with an `injector`) it re-reads up to policy.max_retries
/// times, each a full re-read plus a settle delay doubling from
/// policy.backoff_base, until the fault clears.  Records kStripeFault,
/// one kStripeRetry per attempt and, on exhaustion, kStripeSkip in `log`
/// (may be null).  What an exhausted read serves is the caller's call.
inline StripeRead read_stripe(int index, double bytes, double read_seconds,
                              const core::FaultInjector* injector,
                              core::FaultLog* log,
                              const StreamFaultPolicy& policy,
                              double& io_seconds, std::uint64_t& bytes_read) {
  StripeRead r;
  io_seconds += read_seconds;
  bytes_read += static_cast<std::uint64_t>(bytes);
  if (injector == nullptr || !injector->stripe_fault(index)) return r;
  r.fault = true;
  if (log != nullptr) log->record(core::FaultKind::kStripeFault, index);
  double backoff = policy.backoff_base;
  for (int attempt = 1; attempt <= policy.max_retries; ++attempt) {
    // RAID-3 re-read: the whole stripe group streams again, plus an
    // exponential settle delay — all on the modeled clock.
    io_seconds += read_seconds + backoff;
    bytes_read += static_cast<std::uint64_t>(bytes);
    ++r.retries;
    if (log != nullptr)
      log->record(core::FaultKind::kStripeRetry, index, attempt, backoff);
    if (!injector->stripe_fault_persists(index, attempt)) return r;
    backoff *= 2.0;
  }
  // Retry exhaustion is its own auditable event, exported as the
  // fault.stripe-skip gauge by core::publish_metrics(FaultLog) — distinct
  // from the per-attempt kStripeRetry records above.
  r.exhausted = true;
  if (log != nullptr)
    log->record(core::FaultKind::kStripeSkip, index, policy.max_retries);
  return r;
}

/// Serves frames in order while accounting modeled disk time.
class FrameStream {
 public:
  FrameStream(std::vector<imaging::ImageF> frames, MpdaSpec spec = {},
              int bytes_per_pixel = 1)
      : frames_(std::move(frames)), spec_(spec),
        bytes_per_pixel_(bytes_per_pixel) {}

  /// Attaches a fault source and (optionally) a log for retry / skip
  /// events.  Pointers must outlive the stream; pass nullptr to detach.
  void attach_faults(const core::FaultInjector* injector,
                     core::FaultLog* log = nullptr,
                     StreamFaultPolicy policy = {}) {
    injector_ = injector;
    log_ = log;
    policy_ = policy;
  }

  std::size_t size() const { return frames_.size(); }
  bool exhausted() const { return next_ >= frames_.size(); }

  /// Returns the next frame and advances the modeled I/O clock.
  /// Throws std::out_of_range when the sequence is exhausted — callers
  /// must check exhausted() rather than over-read.
  const imaging::ImageF& next() {
    if (exhausted())
      throw std::out_of_range(
          "FrameStream::next: read past the end of the frame sequence");
    const std::size_t idx = next_++;
    imaging::ImageF& f = frames_[idx];
    const double bytes = static_cast<double>(f.size()) * bytes_per_pixel_;
    const StripeRead r =
        read_stripe(static_cast<int>(idx), bytes, bytes / spec_.effective_bw(),
                    injector_, log_, policy_, io_seconds_, bytes_read_);
    if (r.exhausted) {
      // Skip-and-interpolate engaged.
      degrade_frame(idx);
      ++frames_skipped_;
    }
    return f;
  }

  double io_seconds() const { return io_seconds_; }
  std::uint64_t bytes_read() const { return bytes_read_; }
  std::size_t frames_skipped() const { return frames_skipped_; }

 private:
  /// Skip-and-interpolate: the unreadable frame is rebuilt from its
  /// neighbors — the average of both when bracketed, a copy of the one
  /// that exists at the sequence edges.
  void degrade_frame(std::size_t idx) {
    const bool has_prev = idx > 0;
    const bool has_next = idx + 1 < frames_.size();
    imaging::ImageF& f = frames_[idx];
    if (has_prev && has_next) {
      const imaging::ImageF& a = frames_[idx - 1];
      const imaging::ImageF& b = frames_[idx + 1];
      for (int y = 0; y < f.height(); ++y)
        for (int x = 0; x < f.width(); ++x)
          f.at(x, y) = 0.5f * (a.at(x, y) + b.at(x, y));
    } else if (has_prev) {
      f = frames_[idx - 1];
    } else if (has_next) {
      f = frames_[idx + 1];
    }
    // A single frame with no neighbors has nothing to interpolate from;
    // it is served as read.
  }

  std::vector<imaging::ImageF> frames_;
  MpdaSpec spec_;
  int bytes_per_pixel_;
  std::size_t next_ = 0;
  double io_seconds_ = 0.0;
  std::uint64_t bytes_read_ = 0;
  std::size_t frames_skipped_ = 0;
  const core::FaultInjector* injector_ = nullptr;
  core::FaultLog* log_ = nullptr;
  StreamFaultPolicy policy_{};
};

}  // namespace sma::maspar
