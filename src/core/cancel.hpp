// cancel.hpp — cooperative cancellation for long-running pipeline work.
//
// The serving layer (src/serve/) runs track requests with per-request
// deadlines on a worker pool that shares SmaPipeline instances.  A
// hypothesis search over a paper-scale window runs for seconds; killing
// a worker thread mid-stage would corrupt the shared geometry cache and
// leak the request.  Instead cancellation is COOPERATIVE: the request
// carries a CancelToken, polled at named checkpoints — the worker's
// "admission" and "chaos_stall", the pipeline's entry ("ingest") and
// stage boundaries (surface_fit → geometric_vars → match_precompute →
// matching → postprocess), and "sequence_pair" once per streamed frame
// — and the call unwinds with CancelledError at the next one.  A stage
// that already started runs to completion — the granularity is
// deliberate, matching the paper's phase boundaries, so a cancelled
// request can never leave a half-fitted frame in the cache.
//
// Tokens combine two triggers behind one predicate:
//   * an explicit cancel() from another thread (client gone, drain), and
//   * an absolute steady-clock deadline (set_deadline / expired()).
// Both are lock-free reads on the polling path; a default-constructed
// token never fires, so passing one unconditionally costs two relaxed
// atomic loads per stage.
#pragma once

#include <atomic>
#include <chrono>
#include <memory>
#include <stdexcept>
#include <string>

namespace sma::core {

/// Thrown by CancelToken::check at a pipeline checkpoint.  `stage` names
/// the checkpoint that observed the trigger; `deadline_expired`
/// distinguishes a deadline miss from an explicit cancel so the serving
/// layer can map the two onto different wire outcomes.
class CancelledError : public std::runtime_error {
 public:
  CancelledError(const std::string& stage, bool deadline_expired)
      : std::runtime_error((deadline_expired ? "deadline expired at stage "
                                             : "cancelled at stage ") +
                           stage),
        stage_(stage), deadline_expired_(deadline_expired) {}

  const std::string& stage() const { return stage_; }
  bool deadline_expired() const { return deadline_expired_; }

 private:
  std::string stage_;
  bool deadline_expired_;
};

class CancelToken {
 public:
  using Clock = std::chrono::steady_clock;

  CancelToken() = default;
  CancelToken(const CancelToken&) = delete;
  CancelToken& operator=(const CancelToken&) = delete;

  /// Requests cancellation; safe from any thread, idempotent.
  void cancel() noexcept { cancelled_.store(true, std::memory_order_relaxed); }

  bool cancelled() const noexcept {
    if (cancelled_.load(std::memory_order_relaxed)) return true;
    return parent_ != nullptr && parent_->cancelled();
  }

  /// Links a parent token: this token also fires when the parent does.
  /// The serving layer's sequence sessions use this — each frame job
  /// carries its own token (own deadline) chained to the session's
  /// control token, so aborting the session cancels the in-flight frame
  /// without disturbing per-frame deadlines.  Must be called BEFORE the
  /// token is shared across threads (the pointer itself is unguarded).
  void set_parent(std::shared_ptr<const CancelToken> parent) noexcept {
    parent_ = std::move(parent);
  }

  /// Arms (or re-arms) the absolute deadline.
  void set_deadline(Clock::time_point deadline) noexcept {
    deadline_ns_.store(deadline.time_since_epoch().count(),
                       std::memory_order_relaxed);
  }

  /// Convenience: now + budget.  A non-positive budget expires at once.
  void set_deadline_after(std::chrono::milliseconds budget) noexcept {
    set_deadline(Clock::now() + budget);
  }

  bool has_deadline() const noexcept {
    return deadline_ns_.load(std::memory_order_relaxed) != 0;
  }

  /// True once the deadline (if armed) has passed — here or on a parent.
  bool deadline_expired() const noexcept {
    const Clock::rep ns = deadline_ns_.load(std::memory_order_relaxed);
    if (ns != 0 && Clock::now().time_since_epoch().count() >= ns) return true;
    return parent_ != nullptr && parent_->deadline_expired();
  }

  /// Either trigger.
  bool expired() const noexcept { return cancelled() || deadline_expired(); }

  /// Checkpoint: throws CancelledError naming `stage` if either trigger
  /// fired.  The pipeline calls this between stages.
  void check(const char* stage) const {
    if (cancelled()) throw CancelledError(stage, false);
    if (deadline_expired()) throw CancelledError(stage, true);
  }

 private:
  std::atomic<bool> cancelled_{false};
  /// Deadline as steady-clock nanoseconds-since-epoch; 0 = unarmed.  The
  /// epoch itself (rep 0) is unreachable on any live system.
  std::atomic<Clock::rep> deadline_ns_{0};
  /// Optional chained token (see set_parent); null for standalone use.
  std::shared_ptr<const CancelToken> parent_;
};

}  // namespace sma::core
