// scheduler.hpp — the tiled work-stealing thread pool that makes thread
// parallelism COMPOSE with the SIMD lane layer instead of stacking as a
// no-op under it.
//
// The paper's axis of parallelism is the PE array: hypothesis rows are
// segmented across 16K processors with an owner-computes distribution
// (Sec. 4.3).  The host analogue built here is a fixed pool of worker
// threads fed cache-blocked pixel tiles (sched/tile.hpp): each batch's
// tiles are split into one contiguous share per worker (owner-computes),
// and load imbalance — border clamping, semi-fluid remaps, skewed
// texture — is absorbed by workers that run out of their own share
// stealing the next tiles of the others' (the PGAS extreme-scale
// particle tracker's owner-computes + dynamic-stealing pattern, arXiv
// 2005.13193).
//
// CONCURRENCY BUDGET: the pool is the process-wide execution budget.
// Tiles only ever run on the pool's worker threads; the submitting
// thread blocks (it does not compute), so N concurrent callers — e.g.
// sma_serve's request workers — share the SAME `threads` budget instead
// of multiplying it.  At most `threads()` threads are ever busy in
// tile work, which `SchedStats::max_busy` records and the serve tests
// assert.  A batch may additionally cap its own parallelism
// (`max_executors`, wired to SmaConfig::threads) so a single request
// can be throttled below the pool width.
//
// DETERMINISM: the scheduler guarantees nothing about which executor
// runs which tile or in what order — determinism is a property of the
// submitted work.  The tracker's tiles write disjoint FlowField regions
// and fold reductions per tile in tile-index order, so results are
// bit-identical at every thread count and under any steal schedule
// (DESIGN.md §15; tests/test_sched.cpp sweeps it).
//
// Sizing: the shared pool defaults to SMA_THREADS (env) when set, else
// std::thread::hardware_concurrency().  SMA_THREADS=1 still routes
// batches through one worker thread — same code path, serialized.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "sched/tile.hpp"

namespace sma::sched {

/// Cumulative pool counters (process lifetime; reset_stats() zeroes).
struct SchedStats {
  int threads = 0;             ///< configured worker-thread budget
  std::uint64_t batches = 0;   ///< run() calls that reached the pool
  std::uint64_t tiles = 0;     ///< tiles executed
  std::uint64_t steals = 0;    ///< tiles claimed from another worker's share
  std::uint64_t inline_batches = 0;  ///< run() calls executed inline
                               ///< (empty pool or nested submission)
  int max_busy = 0;            ///< high-water of concurrently busy workers
  double busy_seconds = 0.0;   ///< total tile-execution time, all workers
  /// Per-worker tile-execution time (size == threads); the spread is the
  /// load-imbalance signal the obs bridge exports as min/max gauges.
  std::vector<double> thread_busy_seconds;
};

/// The tile function: invoked once per tile with the tile and its index
/// in the submitted vector.  Must be safe to call concurrently for
/// DIFFERENT tiles; writes must stay within the tile's own output
/// region (or fold into a per-tile slot) to keep the determinism
/// contract.
using TileFn = std::function<void(const Tile&, std::size_t index)>;

class ThreadPool {
 public:
  /// Spawns `threads` workers (0 = every run() executes inline on the
  /// caller).
  explicit ThreadPool(int threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  int threads() const { return static_cast<int>(workers_.size()); }

  /// Executes fn over every tile and blocks until all are done.
  /// `max_executors` caps how many workers serve THIS batch (0 = the
  /// whole pool); the effective parallelism is min(cap, threads()).
  /// Runs inline on the caller when the pool is empty or when called
  /// from inside a tile (nested parallelism serializes rather than
  /// deadlocking).  The first exception a tile throws is rethrown here
  /// after the batch completes; remaining tiles still run.
  void run(const std::vector<Tile>& tiles, const TileFn& fn,
           int max_executors = 0);

  /// Tears the pool down and respawns it with `threads` workers.  Must
  /// not race in-flight run() calls (callers quiesce first — sma_serve
  /// resizes before accepting connections, tests between batches).
  void resize(int threads);

  SchedStats stats() const;
  void reset_stats();

  /// The process-wide shared pool (lazily constructed with
  /// default_threads() workers).  All backends submit here, which is
  /// what makes the budget global across serve workers and pipelines.
  static ThreadPool& shared();

  /// SMA_THREADS env override, else hardware_concurrency (min 1).
  static int default_threads();

 private:
  struct Batch;

  void worker_main(int id);
  void execute(Batch& batch, int id);
  Batch* pick_batch_locked(int id);
  void start(int threads);
  void stop_and_join();

  std::vector<std::thread> workers_;
  std::unique_ptr<std::atomic<std::uint64_t>[]> busy_ns_;  // per worker

  mutable std::mutex mutex_;
  std::condition_variable work_cv_;
  std::vector<Batch*> active_;
  std::uint64_t generation_ = 0;
  bool stop_ = false;

  std::atomic<std::uint64_t> batches_{0};
  std::atomic<std::uint64_t> tiles_{0};
  std::atomic<std::uint64_t> steals_{0};
  std::atomic<std::uint64_t> inline_batches_{0};
  std::atomic<int> busy_{0};
  std::atomic<int> max_busy_{0};
};

/// Smallest row band, in pixels, that for_each_row hands to the pool: a
/// band must outweigh the pool round trip (about 25 us for an empty
/// two-worker batch on a 4-core AVX-512 host, where the cheapest pass,
/// geometric variables, takes about 10 ns a pixel).
inline constexpr long long kMinBandPixels = 4096;

/// Calls row(y) once for every y in [0, rows) of a rows x cols frame.
/// With `parallel` and at least two kMinBandPixels bands of pixels, the
/// rows run as one batch of row bands on the shared pool (inline when
/// called from inside a tile), so row(y) must write only row y's
/// outputs; otherwise they run on the caller in order.  The per-frame
/// passes (surface fit, geometric variables, match precompute) use this
/// instead of OpenMP teams: they stay inside the pool's thread budget,
/// no team thread is left spin-waiting after a pass returns, and small
/// frames pay no cross-thread hand-off at all.
void for_each_row(int rows, int cols, bool parallel,
                  const std::function<void(int y)>& row);

}  // namespace sma::sched
