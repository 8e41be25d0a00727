// deque.hpp — the per-executor work-stealing deque (Chase-Lev style).
//
// Each executor owns one deque of task indices.  The owner pops from the
// bottom (LIFO, cache-warm); thieves steal from the top (FIFO, the
// oldest — and for contiguously distributed tiles the farthest — work).
// This is the classic Chase-Lev algorithm with two deliberate
// simplifications that fit the scheduler's usage:
//
//  * FIXED CAPACITY, BULK-FILLED: every task of a batch is pushed before
//    the batch is published to the executors, and nothing is pushed
//    afterwards.  The circular buffer therefore never grows and no slot
//    is ever overwritten while a thief might read it — the ABA hazard of
//    the growable variant cannot occur.
//  * SEQ_CST RMWs INSTEAD OF FENCES: the published algorithm orders
//    pop() against steal() with a standalone seq_cst fence.
//    ThreadSanitizer does not model standalone fences (it would report
//    false races on the buffer slots), so pop() reserves the bottom slot
//    with a seq_cst fetch_sub — an RMW carries the same total-order
//    guarantee and TSan models it exactly.  The stress test in
//    tests/test_sched.cpp runs this under concurrent thieves; the CI
//    thread-sanitize job keeps it honest.
//
// steal() may fail spuriously when it loses the top CAS; that always
// means another executor claimed an element concurrently, so system-wide
// progress is guaranteed and the scheduler's termination argument
// (scheduler.cpp) only needs "a failed full scan with no concurrent
// claim implies empty".
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>

namespace sma::sched {

class TileDeque {
 public:
  TileDeque() : TileDeque(1) {}

  explicit TileDeque(std::size_t capacity) {
    std::size_t cap = 8;
    while (cap < capacity) cap <<= 1;
    buffer_ = std::make_unique<std::atomic<std::uint32_t>[]>(cap);
    mask_ = cap - 1;
  }

  /// Owner only (or single-threaded bulk fill before the deque is
  /// shared).  Precondition: size() < capacity — the scheduler sizes
  /// each deque for the full batch, so this never wraps onto live data.
  void push(std::uint32_t value) {
    const std::int64_t b = bottom_.load(std::memory_order_relaxed);
    buffer_[static_cast<std::size_t>(b) & mask_].store(
        value, std::memory_order_relaxed);
    bottom_.store(b + 1, std::memory_order_release);
  }

  /// Owner only: LIFO pop from the bottom.  False when empty (or when a
  /// thief won the race for the final element).
  bool pop(std::uint32_t& value) {
    // The fetch_sub is the algorithm's linearization point: it reserves
    // the bottom slot and, being a seq_cst RMW, totally orders this pop
    // against every concurrent steal()'s top CAS.
    const std::int64_t b = bottom_.fetch_sub(1, std::memory_order_seq_cst) - 1;
    std::int64_t t = top_.load(std::memory_order_seq_cst);
    if (t > b) {
      // Empty: undo the reservation.
      bottom_.store(b + 1, std::memory_order_seq_cst);
      return false;
    }
    value = buffer_[static_cast<std::size_t>(b) & mask_].load(
        std::memory_order_relaxed);
    if (t == b) {
      // One element left: race the thieves for it at the top end.
      const bool won = top_.compare_exchange_strong(
          t, t + 1, std::memory_order_seq_cst, std::memory_order_seq_cst);
      bottom_.store(b + 1, std::memory_order_seq_cst);
      return won;
    }
    return true;
  }

  /// Any thread: FIFO steal from the top.  False when empty OR when the
  /// CAS is lost to a concurrent pop/steal (spurious failure; the caller
  /// moves on to another victim).
  bool steal(std::uint32_t& value) {
    std::int64_t t = top_.load(std::memory_order_seq_cst);
    const std::int64_t b = bottom_.load(std::memory_order_seq_cst);
    if (t >= b) return false;
    // Reading the slot before the CAS is safe here precisely because the
    // buffer is bulk-filled: the slot's value cannot change while it is
    // inside [top, bottom).
    value = buffer_[static_cast<std::size_t>(t) & mask_].load(
        std::memory_order_relaxed);
    return top_.compare_exchange_strong(t, t + 1, std::memory_order_seq_cst,
                                        std::memory_order_seq_cst);
  }

  std::size_t capacity() const { return mask_ + 1; }

 private:
  std::unique_ptr<std::atomic<std::uint32_t>[]> buffer_;
  std::size_t mask_ = 0;
  // Owner end (bottom) and thief end (top).  64-bit so they never wrap
  // in practice; indices are reduced mod capacity on access.
  std::atomic<std::int64_t> top_{0};
  std::atomic<std::int64_t> bottom_{0};
};

}  // namespace sma::sched
