// Lock-free ring buffers for the serving hot path.
//
// Three members, one family:
//   * SpscRing  — wait-free single-producer/single-consumer ring used for
//     the timer->executor job hand-off in the threaded backend. "Single
//     producer" may be a set of threads that are mutually serialized by an
//     external lock (the engine guard): the lock's release/acquire edges
//     give successive pushes the same happens-before chain a single thread
//     would.
//   * MpscRing  — bounded multi-producer ring (Vyukov-style sequence
//     cells) whose push blocks the producer while the ring is full, so
//     nothing is ever lost. Used for the threaded backend's timer inbox
//     and control queue, where producers are arbitrary threads.
//   * RingDeque — single-threaded growable power-of-two ring, a
//     std::deque replacement for the engine's per-worker query queues:
//     contiguous recycled storage, so steady-state enqueue/dequeue touches
//     no allocator (the "arena" behind allocation-free admission).
//
// All capacities round up to a power of two. Elements are moved in and
// out; T must be default-constructible and movable.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <thread>
#include <utility>
#include <vector>

#include "util/check.hpp"

namespace diffserve::util {

inline std::size_t ceil_pow2(std::size_t n) {
  std::size_t c = 1;
  while (c < n) c <<= 1;
  return c;
}

/// Wait-free SPSC ring. One thread (or an externally serialized set of
/// threads) pushes; one thread (or serialized set) pops. try_push fails
/// when full, try_pop when empty; neither ever blocks or allocates.
template <typename T>
class SpscRing {
 public:
  explicit SpscRing(std::size_t capacity)
      : mask_(ceil_pow2(capacity < 2 ? 2 : capacity) - 1),
        slots_(mask_ + 1) {}

  SpscRing(const SpscRing&) = delete;
  SpscRing& operator=(const SpscRing&) = delete;

  std::size_t capacity() const { return mask_ + 1; }

  bool try_push(T v) {
    const std::size_t tail = tail_.load(std::memory_order_relaxed);
    if (tail - head_cache_ > mask_) {
      head_cache_ = head_.load(std::memory_order_acquire);
      if (tail - head_cache_ > mask_) return false;  // full
    }
    slots_[tail & mask_] = std::move(v);
    tail_.store(tail + 1, std::memory_order_release);
    return true;
  }

  bool try_pop(T& out) {
    const std::size_t head = head_.load(std::memory_order_relaxed);
    if (head == tail_cache_) {
      tail_cache_ = tail_.load(std::memory_order_acquire);
      if (head == tail_cache_) return false;  // empty
    }
    out = std::move(slots_[head & mask_]);
    head_.store(head + 1, std::memory_order_release);
    return true;
  }

  /// Racy size estimate — exact once the counterpart thread is quiescent.
  std::size_t size_approx() const {
    return tail_.load(std::memory_order_acquire) -
           head_.load(std::memory_order_acquire);
  }
  bool empty() const { return size_approx() == 0; }

 private:
  const std::size_t mask_;
  std::vector<T> slots_;
  alignas(64) std::atomic<std::size_t> head_{0};  ///< consumer cursor
  alignas(64) std::size_t tail_cache_ = 0;        ///< consumer's tail view
  alignas(64) std::atomic<std::size_t> tail_{0};  ///< producer cursor
  alignas(64) std::size_t head_cache_ = 0;        ///< producer's head view
};

/// Bounded multi-producer ring over per-cell sequence counters. Producers
/// claim cells with a CAS on the enqueue cursor; the consumer releases
/// them a lap later. The data path is lock-free; only a push onto a full
/// ring waits (yielding, no mutex).
template <typename T>
class MpscRing {
 public:
  explicit MpscRing(std::size_t capacity)
      : mask_(ceil_pow2(capacity < 2 ? 2 : capacity) - 1),
        cells_(new Cell[mask_ + 1]) {
    for (std::size_t i = 0; i <= mask_; ++i)
      cells_[i].seq.store(i, std::memory_order_relaxed);
  }

  MpscRing(const MpscRing&) = delete;
  MpscRing& operator=(const MpscRing&) = delete;

  std::size_t capacity() const { return mask_ + 1; }
  /// Push, yielding while the ring is full until the consumer frees a
  /// slot.
  void push(T v) {
    while (!try_push_once(v)) std::this_thread::yield();
  }

  bool try_pop(T& out) {
    std::size_t pos = dequeue_pos_.load(std::memory_order_relaxed);
    for (;;) {
      Cell& cell = cells_[pos & mask_];
      const std::size_t seq = cell.seq.load(std::memory_order_acquire);
      const std::intptr_t dif = static_cast<std::intptr_t>(seq) -
                                static_cast<std::intptr_t>(pos + 1);
      if (dif == 0) {
        if (dequeue_pos_.compare_exchange_weak(pos, pos + 1)) {
          out = std::move(cell.value);
          cell.seq.store(pos + mask_ + 1, std::memory_order_release);
          return true;
        }
      } else if (dif < 0) {
        return false;  // empty
      } else {
        pos = dequeue_pos_.load(std::memory_order_relaxed);
      }
    }
  }

  /// Racy size estimate — exact once all producers are quiescent.
  std::size_t size_approx() const {
    const std::size_t enq = enqueue_pos_.load(std::memory_order_acquire);
    const std::size_t deq = dequeue_pos_.load(std::memory_order_acquire);
    return enq > deq ? enq - deq : 0;
  }
  bool empty() const { return size_approx() == 0; }

 private:
  struct Cell {
    std::atomic<std::size_t> seq;
    T value;
  };

  bool try_push_once(T& v) {
    std::size_t pos = enqueue_pos_.load(std::memory_order_relaxed);
    for (;;) {
      Cell& cell = cells_[pos & mask_];
      const std::size_t seq = cell.seq.load(std::memory_order_acquire);
      const std::intptr_t dif =
          static_cast<std::intptr_t>(seq) - static_cast<std::intptr_t>(pos);
      if (dif == 0) {
        if (enqueue_pos_.compare_exchange_weak(pos, pos + 1)) {
          cell.value = std::move(v);
          cell.seq.store(pos + 1, std::memory_order_release);
          return true;
        }
      } else if (dif < 0) {
        return false;  // full
      } else {
        pos = enqueue_pos_.load(std::memory_order_relaxed);
      }
    }
  }

  const std::size_t mask_;
  std::unique_ptr<Cell[]> cells_;
  alignas(64) std::atomic<std::size_t> enqueue_pos_{0};
  alignas(64) std::atomic<std::size_t> dequeue_pos_{0};
};

/// Single-threaded growable ring — a std::deque replacement whose storage
/// is recycled in place. push_back/pop_front are O(1); growth doubles the
/// backing vector (amortized, and only until the high-water mark), after
/// which the queue allocates nothing no matter how many entries stream
/// through. Indexing is front-relative: rd[0] is the oldest entry.
template <typename T>
class RingDeque {
 public:
  explicit RingDeque(std::size_t initial_capacity = 8)
      : slots_(ceil_pow2(initial_capacity < 2 ? 2 : initial_capacity)) {}

  std::size_t size() const { return count_; }
  bool empty() const { return count_ == 0; }
  std::size_t capacity() const { return slots_.size(); }

  void push_back(T v) {
    if (count_ == slots_.size()) grow();
    slots_[(head_ + count_) & (slots_.size() - 1)] = std::move(v);
    ++count_;
  }

  T& front() {
    DS_CHECK(count_ > 0, "front() on empty RingDeque");
    return slots_[head_];
  }
  const T& front() const {
    DS_CHECK(count_ > 0, "front() on empty RingDeque");
    return slots_[head_];
  }

  void pop_front() {
    DS_CHECK(count_ > 0, "pop_front() on empty RingDeque");
    slots_[head_] = T();  // release payload resources eagerly
    head_ = (head_ + 1) & (slots_.size() - 1);
    --count_;
  }

  /// i-th entry from the front (0 = oldest).
  T& operator[](std::size_t i) {
    DS_CHECK(i < count_, "RingDeque index out of range");
    return slots_[(head_ + i) & (slots_.size() - 1)];
  }
  const T& operator[](std::size_t i) const {
    DS_CHECK(i < count_, "RingDeque index out of range");
    return slots_[(head_ + i) & (slots_.size() - 1)];
  }

  void clear() {
    for (std::size_t i = 0; i < count_; ++i)
      slots_[(head_ + i) & (slots_.size() - 1)] = T();
    head_ = 0;
    count_ = 0;
  }

 private:
  void grow() {
    std::vector<T> bigger(slots_.size() * 2);
    for (std::size_t i = 0; i < count_; ++i)
      bigger[i] = std::move(slots_[(head_ + i) & (slots_.size() - 1)]);
    slots_ = std::move(bigger);
    head_ = 0;
  }

  std::vector<T> slots_;
  std::size_t head_ = 0;
  std::size_t count_ = 0;
};

}  // namespace diffserve::util
