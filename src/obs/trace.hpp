// trace.hpp — RAII tracing spans with a thread-safe per-thread
// ring-buffer recorder and Chrome trace_event JSON export.
//
// The paper's whole evaluation is a per-phase timing story (Tables 2/4
// break every run into surface fit / geometric variables / semi-fluid
// mapping / hypothesis matching); this module makes those phases
// first-class spans instead of ad-hoc stopwatch code.  A TraceSpan
// brackets one phase; when a TraceRecorder is installed the span is
// recorded into the current thread's ring buffer, and the recorder can
// export everything as Chrome trace_event JSON — load the file in
// chrome://tracing or https://ui.perfetto.dev to see the pipeline's
// stage structure on a timeline.
//
// Zero-overhead-when-disabled contract: no recorder is installed by
// default, and a TraceSpan constructed while `trace_recorder()` is null
// compiles to one relaxed atomic load and a branch (measured against the
// matching kernel in bench_matching_kernel; the guard asserts < 2%).
// Span names/categories must be string literals (or otherwise outlive
// the recorder): only the pointers are stored.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace sma::obs {

/// One completed span.  Times are microseconds since the recorder's
/// epoch (its construction time).
struct TraceEvent {
  const char* category = "";
  const char* name = "";
  double start_us = 0.0;
  double dur_us = 0.0;
  std::uint32_t tid = 0;  ///< recorder-local thread id (registration order)
};

/// Collects spans into fixed-capacity per-thread ring buffers: recording
/// never allocates after a thread's first span and never blocks on other
/// threads (each ring has its own mutex, contended only by snapshot /
/// clear).  When a ring is full the oldest events are overwritten and
/// `dropped()` counts them — a bounded-memory tracer.
class TraceRecorder {
 public:
  /// `capacity_per_thread` is the ring size in events (clamped to >= 1).
  explicit TraceRecorder(std::size_t capacity_per_thread = 1 << 14);
  ~TraceRecorder();

  TraceRecorder(const TraceRecorder&) = delete;
  TraceRecorder& operator=(const TraceRecorder&) = delete;

  /// Records one completed span on the calling thread's ring.
  void record(const char* category, const char* name, double start_us,
              double dur_us);

  /// Microseconds since this recorder's epoch.
  double now_us() const;

  /// Snapshot of every thread's ring, sorted by start time.
  std::vector<TraceEvent> events() const;

  /// Events overwritten because a ring was full.
  std::uint64_t dropped() const;

  void clear();

  /// Chrome trace_event JSON ("ph":"X" complete events).  The stream
  /// overload writes the object; the path overload returns false (and
  /// reports to stderr) when the file cannot be opened.
  void write_chrome_trace(std::ostream& os) const;
  bool write_chrome_trace(const std::string& path) const;

 private:
  struct ThreadRing;

  ThreadRing* local_ring();

  const std::size_t capacity_;
  const std::uint64_t generation_;  ///< invalidates stale thread caches
  const std::chrono::steady_clock::time_point epoch_;

  mutable std::mutex rings_mutex_;  ///< guards registration + iteration
  std::vector<std::unique_ptr<ThreadRing>> rings_;
};

/// Installs `recorder` as the process-global span sink (null disables
/// tracing — the default).  The recorder must outlive every span opened
/// while it is installed; un-install (set null) before destroying it.
void set_trace_recorder(TraceRecorder* recorder);

/// The currently installed recorder, or null when tracing is disabled.
TraceRecorder* trace_recorder();

/// RAII span: opens at construction, records at destruction (or at an
/// explicit finish()).  Captures the recorder once at open, so a span
/// closes against the recorder it opened with even if tracing is toggled
/// mid-span.
class TraceSpan {
 public:
  TraceSpan(const char* category, const char* name)
      : recorder_(trace_recorder()) {
    if (recorder_ != nullptr) {
      category_ = category;
      name_ = name;
      start_us_ = recorder_->now_us();
    }
  }

  ~TraceSpan() { finish(); }

  TraceSpan(const TraceSpan&) = delete;
  TraceSpan& operator=(const TraceSpan&) = delete;

  /// Closes the span early (idempotent).
  void finish() {
    if (recorder_ != nullptr) {
      recorder_->record(category_, name_, start_us_,
                        recorder_->now_us() - start_us_);
      recorder_ = nullptr;
    }
  }

 private:
  TraceRecorder* recorder_;
  const char* category_ = nullptr;
  const char* name_ = nullptr;
  double start_us_ = 0.0;
};

}  // namespace sma::obs
