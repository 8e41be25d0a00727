// admission.hpp — admission control for the serving layer: a bounded
// work queue with explicit rejection and per-tenant token buckets.
//
// The robustness posture is REJECT EARLY, NEVER QUEUE UNBOUNDED: a
// request the server cannot start promptly is bounced with a
// `retry_after_ms` hint while the connection stays healthy, instead of
// sitting in an invisible backlog until its deadline dies of old age.
// Both pieces are deliberately clock-agnostic — callers pass `now`
// explicitly — so tests drive them with synthetic time and the chaos
// harness stays deterministic.
#pragma once

#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <deque>
#include <mutex>
#include <optional>
#include <utility>
#include <vector>

namespace sma::serve {

/// Classic token bucket: `rate` tokens/second refill up to `burst`
/// capacity; each admitted request spends one token.  rate <= 0 means
/// unlimited (try_acquire always succeeds).  Not thread-safe — the
/// server consults it only from the IO thread.
class TokenBucket {
 public:
  using Clock = std::chrono::steady_clock;

  TokenBucket(double rate, double burst)
      : rate_(rate), burst_(burst), tokens_(burst) {}

  /// Spends one token if available; refills lazily from elapsed time.
  bool try_acquire(Clock::time_point now);

  /// Milliseconds until one token will be available (0 when one already
  /// is) — the retry_after hint for rate-limited rejections.
  int millis_until_available(Clock::time_point now) const;

 private:
  void refill(Clock::time_point now);

  double rate_;
  double burst_;
  double tokens_;
  bool primed_ = false;
  Clock::time_point last_{};
};

/// Bounded MPMC queue with explicit overflow: try_push never blocks and
/// reports failure when the queue is at capacity or stopped, pop blocks
/// until an item or stop() arrives.  The worker pool's inbox.
template <typename T>
class BoundedQueue {
 public:
  explicit BoundedQueue(std::size_t capacity) : capacity_(capacity) {}

  /// False when full or stopped — the caller must reject the item.
  bool try_push(T item) {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      if (stopped_ || items_.size() >= capacity_) return false;
      items_.push_back(std::move(item));
    }
    ready_.notify_one();
    return true;
  }

  /// Blocks until an item is available or the queue is stopped; nullopt
  /// means stopped-and-drained (the worker should exit).
  std::optional<T> pop() {
    std::unique_lock<std::mutex> lock(mutex_);
    ready_.wait(lock, [&] { return stopped_ || !items_.empty(); });
    if (items_.empty()) return std::nullopt;
    T item = std::move(items_.front());
    items_.pop_front();
    return item;
  }

  /// Non-blocking sweep for the batching layer: moves up to `max_n`
  /// queued items satisfying `pred` into `out`, front to back, under a
  /// single lock so the view is consistent.  Relative order of both the
  /// taken and the remaining items is preserved.  Returns the count
  /// taken (0 when the queue is empty, stopped or nothing matches).
  template <typename Pred>
  std::size_t try_pop_matching(Pred&& pred, std::size_t max_n,
                               std::vector<T>& out) {
    std::lock_guard<std::mutex> lock(mutex_);
    std::size_t taken = 0;
    for (auto it = items_.begin(); it != items_.end() && taken < max_n;) {
      if (pred(*it)) {
        out.push_back(std::move(*it));
        it = items_.erase(it);
        ++taken;
      } else {
        ++it;
      }
    }
    return taken;
  }

  /// Wakes every popper; queued items are still drained before poppers
  /// see nullopt (graceful-drain semantics).
  void stop() {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      stopped_ = true;
    }
    ready_.notify_all();
  }

  std::size_t size() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return items_.size();
  }

 private:
  const std::size_t capacity_;
  mutable std::mutex mutex_;
  std::condition_variable ready_;
  std::deque<T> items_;
  bool stopped_ = false;
};

/// Admission policy knobs, all per server.
struct AdmissionOptions {
  /// Requests the queue holds beyond the in-flight workers before
  /// overload rejections start.
  std::size_t queue_capacity = 32;
  /// Per-tenant sustained requests/second; 0 disables rate limiting.
  double tenant_rate = 0.0;
  /// Per-tenant burst allowance (bucket capacity).
  double tenant_burst = 8.0;
  /// retry_after_ms hint attached to overload rejections (rate-limit
  /// rejections compute their own from the bucket state).
  int retry_after_ms = 100;
  /// Concurrent sequence sessions the server holds open (each pins a
  /// pipeline slot and a per-connection frame queue); 0 = unlimited.
  /// SEQ-OPENs beyond the cap are rejected `overloaded`.
  std::size_t max_sessions = 8;
};

}  // namespace sma::serve
