#include "sched/scheduler.hpp"

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <exception>

namespace sma::sched {

namespace {
// Set while a pool worker (or inline run()) is executing tiles.  A run()
// submitted from inside a tile executes inline instead of blocking on
// the pool — otherwise a batch whose tiles submit sub-batches could park
// every worker in a caller-wait and deadlock.
thread_local bool tls_in_tile = false;
}  // namespace

// One run() call in flight.  Lives on the submitting thread's stack; the
// caller only returns (and destroys it) once `completed` is set AND
// `executors` has drained to zero, so no worker can touch a dead batch.
struct ThreadPool::Batch {
  // Pool worker w's share of the batch: the contiguous index range
  // [n*w/W, n*(w+1)/W) (owner-computes), claimed front to back by
  // bumping `next`.  One cache line each, so owners do not contend.
  struct alignas(64) Share {
    std::atomic<std::size_t> next{0};
    std::size_t end = 0;
  };

  explicit Batch(int width) : shares(static_cast<std::size_t>(width)) {}

  const std::vector<Tile>* tiles = nullptr;
  const TileFn* fn = nullptr;
  std::vector<Share> shares;  ///< one per pool worker
  std::atomic<std::int64_t> remaining{0};  ///< tiles not yet finished
  std::atomic<std::int64_t> unclaimed{0};  ///< tiles not yet claimed
  std::atomic<int> executors{0};           ///< workers attached right now
  int max_executors = 0;

  std::mutex m;
  std::condition_variable cv;
  bool completed = false;          // guarded by m
  std::exception_ptr error;        // guarded by m; first failure wins
};

ThreadPool::ThreadPool(int threads) { start(std::max(threads, 0)); }

ThreadPool::~ThreadPool() { stop_and_join(); }

void ThreadPool::start(int threads) {
  stop_ = false;
  if (threads <= 0) return;
  busy_ns_ = std::make_unique<std::atomic<std::uint64_t>[]>(
      static_cast<std::size_t>(threads));
  for (int i = 0; i < threads; ++i) {
    busy_ns_[i].store(0, std::memory_order_relaxed);
  }
  workers_.reserve(static_cast<std::size_t>(threads));
  for (int i = 0; i < threads; ++i) {
    workers_.emplace_back([this, i] { worker_main(i); });
  }
}

void ThreadPool::stop_and_join() {
  {
    std::lock_guard<std::mutex> lk(mutex_);
    stop_ = true;
  }
  work_cv_.notify_all();
  for (std::thread& t : workers_) t.join();
  workers_.clear();
}

void ThreadPool::resize(int threads) {
  stop_and_join();
  start(std::max(threads, 0));
}

int ThreadPool::default_threads() {
  if (const char* env = std::getenv("SMA_THREADS")) {
    char* end = nullptr;
    const long v = std::strtol(env, &end, 10);
    if (end != env && *end == '\0' && v >= 0 && v <= 4096) {
      return std::max(1, static_cast<int>(v));
    }
  }
  const unsigned hw = std::thread::hardware_concurrency();
  return hw > 0 ? static_cast<int>(hw) : 1;
}

ThreadPool& ThreadPool::shared() {
  static ThreadPool pool(default_threads());
  return pool;
}

void ThreadPool::run(const std::vector<Tile>& tiles, const TileFn& fn,
                     int max_executors) {
  if (tiles.empty()) return;
  if (workers_.empty() || tls_in_tile) {
    inline_batches_.fetch_add(1, std::memory_order_relaxed);
    const bool was_in_tile = tls_in_tile;
    tls_in_tile = true;
    for (std::size_t i = 0; i < tiles.size(); ++i) fn(tiles[i], i);
    tls_in_tile = was_in_tile;
    return;
  }

  const int width = threads();
  Batch batch(width);
  batch.tiles = &tiles;
  batch.fn = &fn;
  batch.max_executors =
      max_executors > 0 ? std::min(max_executors, width) : width;
  const std::size_t n = tiles.size();
  batch.remaining.store(static_cast<std::int64_t>(n),
                        std::memory_order_relaxed);
  batch.unclaimed.store(static_cast<std::int64_t>(n),
                        std::memory_order_relaxed);

  const std::size_t shares = batch.shares.size();
  for (std::size_t w = 0; w < shares; ++w) {
    batch.shares[w].next.store(n * w / shares, std::memory_order_relaxed);
    batch.shares[w].end = n * (w + 1) / shares;
  }

  {
    std::lock_guard<std::mutex> lk(mutex_);
    active_.push_back(&batch);
    ++generation_;
    batches_.fetch_add(1, std::memory_order_relaxed);
  }
  work_cv_.notify_all();

  // The caller BLOCKS rather than executing tiles: pool workers are the
  // entire concurrency budget (see scheduler.hpp).  Waiting for
  // executors to drain (not just completion) guarantees no worker still
  // holds a pointer to this stack frame when we return.
  std::unique_lock<std::mutex> lk(batch.m);
  batch.cv.wait(lk, [&] {
    return batch.completed &&
           batch.executors.load(std::memory_order_acquire) == 0;
  });
  if (batch.error) std::rethrow_exception(batch.error);
}

ThreadPool::Batch* ThreadPool::pick_batch_locked(int /*id*/) {
  for (Batch* b : active_) {
    if (b->unclaimed.load(std::memory_order_relaxed) > 0 &&
        b->executors.load(std::memory_order_relaxed) < b->max_executors) {
      return b;
    }
  }
  return nullptr;
}

void ThreadPool::worker_main(int id) {
  std::unique_lock<std::mutex> lk(mutex_);
  for (;;) {
    if (stop_) return;
    Batch* batch = pick_batch_locked(id);
    if (batch == nullptr) {
      // Wait for a new submission; workers returning to this loop after
      // a batch re-pick under the same lock, so no wakeup is lost.
      const std::uint64_t gen = generation_;
      work_cv_.wait(lk, [&] { return stop_ || generation_ != gen; });
      continue;
    }
    // Attach under the pool lock so the executor cap is never exceeded
    // (all increments happen here; decrements only make room).
    batch->executors.fetch_add(1, std::memory_order_relaxed);
    lk.unlock();

    const int now_busy = busy_.fetch_add(1, std::memory_order_relaxed) + 1;
    int prev = max_busy_.load(std::memory_order_relaxed);
    while (prev < now_busy &&
           !max_busy_.compare_exchange_weak(prev, now_busy,
                                            std::memory_order_relaxed)) {
    }
    execute(*batch, id);
    busy_.fetch_sub(1, std::memory_order_relaxed);

    lk.lock();
  }
}

void ThreadPool::execute(Batch& batch, int id) {
  tls_in_tile = true;
  bool finisher = false;
  const std::size_t shares = batch.shares.size();
  const std::size_t own = static_cast<std::size_t>(id);
  std::uint64_t ns = 0;

  for (;;) {
    // Claim from the own share first, then steal from the others in ring
    // order.  A claim fails only once its share is exhausted for good, so
    // when every share fails, every tile has been claimed and the worker
    // leaves; whoever finishes the last tile completes the batch.
    std::size_t index = 0;
    std::size_t k = 0;
    for (; k < shares; ++k) {
      Batch::Share& s = batch.shares[(own + k) % shares];
      index = s.next.fetch_add(1, std::memory_order_relaxed);
      if (index < s.end) break;
    }
    if (k == shares) break;
    if (k > 0) steals_.fetch_add(1, std::memory_order_relaxed);
    batch.unclaimed.fetch_sub(1, std::memory_order_relaxed);

    const auto t0 = std::chrono::steady_clock::now();
    try {
      (*batch.fn)((*batch.tiles)[index], index);
    } catch (...) {
      std::lock_guard<std::mutex> elk(batch.m);
      if (!batch.error) batch.error = std::current_exception();
    }
    ns += static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - t0)
            .count());
    tiles_.fetch_add(1, std::memory_order_relaxed);

    if (batch.remaining.fetch_sub(1, std::memory_order_acq_rel) == 1) {
      finisher = true;
      break;
    }
  }

  busy_ns_[static_cast<std::size_t>(id)].fetch_add(
      ns, std::memory_order_relaxed);
  tls_in_tile = false;

  if (finisher) {
    // De-list before completion can be observed, so no worker attaches
    // to (or scans) a batch whose caller may be about to destroy it.
    std::lock_guard<std::mutex> plk(mutex_);
    active_.erase(std::find(active_.begin(), active_.end(), &batch));
  }
  {
    std::lock_guard<std::mutex> blk(batch.m);
    if (finisher) batch.completed = true;
    batch.executors.fetch_sub(1, std::memory_order_acq_rel);
    batch.cv.notify_all();
  }
}

SchedStats ThreadPool::stats() const {
  SchedStats s;
  s.threads = threads();
  s.batches = batches_.load(std::memory_order_relaxed);
  s.tiles = tiles_.load(std::memory_order_relaxed);
  s.steals = steals_.load(std::memory_order_relaxed);
  s.inline_batches = inline_batches_.load(std::memory_order_relaxed);
  s.max_busy = max_busy_.load(std::memory_order_relaxed);
  s.thread_busy_seconds.resize(static_cast<std::size_t>(s.threads), 0.0);
  for (int i = 0; i < s.threads; ++i) {
    const double seconds =
        static_cast<double>(
            busy_ns_[static_cast<std::size_t>(i)].load(
                std::memory_order_relaxed)) *
        1e-9;
    s.thread_busy_seconds[static_cast<std::size_t>(i)] = seconds;
    s.busy_seconds += seconds;
  }
  return s;
}

void for_each_row(int rows, int cols, bool parallel,
                  const std::function<void(int y)>& row) {
  // About four bands per worker for stealing slack, but none smaller
  // than kMinBandPixels.  Frames under two bands, such as 64x64, run
  // inline; a few bands are rounded down to equal shares per worker.
  long long bands = 1LL * rows * cols / kMinBandPixels;
  if (!parallel || bands < 2) {
    for (int y = 0; y < rows; ++y) row(y);
    return;
  }
  ThreadPool& pool = ThreadPool::shared();
  const long long workers = std::max(pool.threads(), 1);
  bands = std::min(bands, 4 * workers);
  if (bands > workers) bands -= bands % workers;
  const int band = static_cast<int>((rows + bands - 1) / bands);
  pool.run(make_tiles(1, rows, TileShape{1, band}),
           [&](const Tile& tile, std::size_t) {
             for (int y = tile.y0; y < tile.y1; ++y) row(y);
           });
}

void ThreadPool::reset_stats() {
  batches_.store(0, std::memory_order_relaxed);
  tiles_.store(0, std::memory_order_relaxed);
  steals_.store(0, std::memory_order_relaxed);
  inline_batches_.store(0, std::memory_order_relaxed);
  max_busy_.store(0, std::memory_order_relaxed);
  for (int i = 0; i < threads(); ++i) {
    busy_ns_[static_cast<std::size_t>(i)].store(0, std::memory_order_relaxed);
  }
}

}  // namespace sma::sched
