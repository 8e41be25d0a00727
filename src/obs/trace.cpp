#include "obs/trace.hpp"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <fstream>
#include <ostream>

namespace sma::obs {

namespace {

std::atomic<TraceRecorder*> g_recorder{nullptr};
std::atomic<std::uint64_t> g_generation{0};

std::string json_escape(const char* s) {
  std::string out;
  for (; s != nullptr && *s != '\0'; ++s) {
    const char c = *s;
    if (c == '"' || c == '\\') out.push_back('\\');
    if (c == '\n') {
      out += "\\n";
      continue;
    }
    out.push_back(c);
  }
  return out;
}

}  // namespace

void set_trace_recorder(TraceRecorder* recorder) {
  g_recorder.store(recorder, std::memory_order_release);
}

TraceRecorder* trace_recorder() {
  return g_recorder.load(std::memory_order_relaxed);
}

// Fixed-capacity overwrite-oldest ring.  `head` is the next write slot;
// once `count == buf.size()` the ring is full and writes evict the
// oldest event.
struct TraceRecorder::ThreadRing {
  explicit ThreadRing(std::uint32_t id, std::size_t capacity) : tid(id) {
    buf.resize(capacity);
  }

  std::uint32_t tid;
  std::mutex mutex;
  std::vector<TraceEvent> buf;
  std::size_t head = 0;
  std::size_t count = 0;
  std::uint64_t dropped = 0;
};

TraceRecorder::TraceRecorder(std::size_t capacity_per_thread)
    : capacity_(std::max<std::size_t>(capacity_per_thread, 1)),
      generation_(g_generation.fetch_add(1, std::memory_order_relaxed) + 1),
      epoch_(std::chrono::steady_clock::now()) {}

TraceRecorder::~TraceRecorder() = default;

double TraceRecorder::now_us() const {
  return std::chrono::duration<double, std::micro>(
             std::chrono::steady_clock::now() - epoch_)
      .count();
}

TraceRecorder::ThreadRing* TraceRecorder::local_ring() {
  // Per-thread cache of (recorder generation -> ring): the common case
  // records without touching rings_mutex_.  The generation tag keeps a
  // cache entry from surviving into a *different* recorder that happens
  // to be allocated at the same address.
  struct Cache {
    std::uint64_t generation = 0;
    ThreadRing* ring = nullptr;
  };
  thread_local Cache cache;
  if (cache.generation == generation_) return cache.ring;

  std::lock_guard<std::mutex> lock(rings_mutex_);
  auto ring = std::make_unique<ThreadRing>(
      static_cast<std::uint32_t>(rings_.size() + 1), capacity_);
  rings_.push_back(std::move(ring));
  cache.generation = generation_;
  cache.ring = rings_.back().get();
  return cache.ring;
}

void TraceRecorder::record(const char* category, const char* name,
                           double start_us, double dur_us) {
  ThreadRing* ring = local_ring();
  std::lock_guard<std::mutex> lock(ring->mutex);
  if (ring->count == ring->buf.size()) ++ring->dropped;
  ring->buf[ring->head] =
      TraceEvent{category, name, start_us, dur_us, ring->tid};
  ring->head = (ring->head + 1) % ring->buf.size();
  ring->count = std::min(ring->count + 1, ring->buf.size());
}

std::vector<TraceEvent> TraceRecorder::events() const {
  std::vector<TraceEvent> out;
  std::lock_guard<std::mutex> lock(rings_mutex_);
  for (const auto& ring : rings_) {
    std::lock_guard<std::mutex> ring_lock(ring->mutex);
    // Oldest-first: the oldest event sits at `head` when full, at 0
    // otherwise.
    const std::size_t n = ring->count;
    const std::size_t cap = ring->buf.size();
    const std::size_t first = n == cap ? ring->head : 0;
    for (std::size_t i = 0; i < n; ++i)
      out.push_back(ring->buf[(first + i) % cap]);
  }
  std::sort(out.begin(), out.end(),
            [](const TraceEvent& a, const TraceEvent& b) {
              if (a.start_us != b.start_us) return a.start_us < b.start_us;
              return a.dur_us > b.dur_us;  // parents before children
            });
  return out;
}

std::uint64_t TraceRecorder::dropped() const {
  std::uint64_t total = 0;
  std::lock_guard<std::mutex> lock(rings_mutex_);
  for (const auto& ring : rings_) {
    std::lock_guard<std::mutex> ring_lock(ring->mutex);
    total += ring->dropped;
  }
  return total;
}

void TraceRecorder::clear() {
  std::lock_guard<std::mutex> lock(rings_mutex_);
  for (const auto& ring : rings_) {
    std::lock_guard<std::mutex> ring_lock(ring->mutex);
    ring->head = 0;
    ring->count = 0;
    ring->dropped = 0;
  }
}

void TraceRecorder::write_chrome_trace(std::ostream& os) const {
  // Chrome trace_event format, "JSON Object Format" with complete ("X")
  // events: https://docs.google.com/document/d/1CvAClvFfyA5R-PhYUmn5OOQtYMH4h6I0nSsKchNAySU
  const std::vector<TraceEvent> evs = events();
  os << "{\"traceEvents\":[\n";
  char buf[64];
  for (std::size_t i = 0; i < evs.size(); ++i) {
    const TraceEvent& e = evs[i];
    os << "{\"name\":\"" << json_escape(e.name) << "\",\"cat\":\""
       << json_escape(e.category) << "\",\"ph\":\"X\"";
    std::snprintf(buf, sizeof(buf), ",\"ts\":%.3f,\"dur\":%.3f", e.start_us,
                  e.dur_us);
    os << buf << ",\"pid\":1,\"tid\":" << e.tid << "}"
       << (i + 1 < evs.size() ? ",\n" : "\n");
  }
  os << "],\"displayTimeUnit\":\"ms\"}\n";
}

bool TraceRecorder::write_chrome_trace(const std::string& path) const {
  std::ofstream out(path);
  if (!out) {
    std::fprintf(stderr, "TraceRecorder: cannot open %s\n", path.c_str());
    return false;
  }
  write_chrome_trace(out);
  return out.good();
}

}  // namespace sma::obs
