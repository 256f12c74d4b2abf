// Tests for util/ring_buffer: FIFO equivalence of every ring against a
// std::deque reference model across randomized operation sequences (50
// seeds), plus multi-threaded stress tests written
// to be run under TSan (the CI thread-sanitizer job includes this suite)
// so the lock-free protocols are raced, not just exercised.
#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <deque>
#include <thread>
#include <vector>

#include "util/mutex.hpp"
#include "util/ring_buffer.hpp"
#include "util/rng.hpp"

namespace diffserve::util {
namespace {

TEST(CeilPow2, RoundsUp) {
  EXPECT_EQ(ceil_pow2(1), 1u);
  EXPECT_EQ(ceil_pow2(2), 2u);
  EXPECT_EQ(ceil_pow2(3), 4u);
  EXPECT_EQ(ceil_pow2(8), 8u);
  EXPECT_EQ(ceil_pow2(9), 16u);
  EXPECT_EQ(ceil_pow2(1000), 1024u);
}

// --- single-threaded FIFO equivalence vs a std::deque reference ------------

TEST(SpscRing, FifoEquivalenceAcrossSeeds) {
  for (std::uint64_t seed = 1; seed <= 50; ++seed) {
    Rng rng(seed);
    const std::size_t cap = 1u << rng.uniform_int(1, 5);
    SpscRing<int> ring(cap);
    std::deque<int> model;
    int next = 0;
    for (int op = 0; op < 2000; ++op) {
      if (rng.bernoulli(0.55)) {
        const bool pushed = ring.try_push(next);
        // The model admits exactly when the ring has room.
        if (model.size() < ring.capacity()) {
          ASSERT_TRUE(pushed) << "seed " << seed;
          model.push_back(next);
        } else {
          ASSERT_FALSE(pushed) << "seed " << seed;
        }
        ++next;
      } else {
        int got = -1;
        const bool popped = ring.try_pop(got);
        ASSERT_EQ(popped, !model.empty()) << "seed " << seed;
        if (popped) {
          ASSERT_EQ(got, model.front()) << "seed " << seed;
          model.pop_front();
        }
      }
      ASSERT_EQ(ring.size_approx(), model.size()) << "seed " << seed;
    }
  }
}

TEST(MpscRing, FifoEquivalenceAcrossSeeds) {
  for (std::uint64_t seed = 1; seed <= 50; ++seed) {
    Rng rng(seed);
    const std::size_t cap = 1u << rng.uniform_int(1, 5);
    MpscRing<int> ring(cap);
    std::deque<int> model;
    int next = 0;
    for (int op = 0; op < 2000; ++op) {
      if (rng.bernoulli(0.55)) {
        // A single-threaded push on a full ring would block forever; the
        // real producers always have a live consumer. Skip, as the
        // backend's usage does.
        if (model.size() >= ring.capacity()) continue;
        ring.push(next);
        model.push_back(next);
        ++next;
      } else {
        int got = -1;
        const bool popped = ring.try_pop(got);
        ASSERT_EQ(popped, !model.empty()) << "seed " << seed;
        if (popped) {
          ASSERT_EQ(got, model.front()) << "seed " << seed;
          model.pop_front();
        }
      }
      ASSERT_EQ(ring.size_approx(), model.size()) << "seed " << seed;
    }
  }
}

TEST(RingDeque, DequeEquivalenceAcrossSeeds) {
  for (std::uint64_t seed = 1; seed <= 50; ++seed) {
    Rng rng(seed);
    RingDeque<int> rd(2);  // tiny initial capacity forces growth
    std::deque<int> model;
    int next = 0;
    for (int op = 0; op < 3000; ++op) {
      const double r = rng.uniform();
      if (r < 0.5) {
        rd.push_back(next);
        model.push_back(next);
        ++next;
      } else if (r < 0.9) {
        ASSERT_EQ(rd.empty(), model.empty());
        if (!model.empty()) {
          ASSERT_EQ(rd.front(), model.front());
          rd.pop_front();
          model.pop_front();
        }
      } else if (r < 0.97 && !model.empty()) {
        const std::size_t i = static_cast<std::size_t>(rng.uniform_int(
            0, static_cast<std::int64_t>(model.size()) - 1));
        ASSERT_EQ(rd[i], model[i]);
      } else if (r >= 0.97 && rng.bernoulli(0.1)) {
        rd.clear();
        model.clear();
      }
      ASSERT_EQ(rd.size(), model.size());
    }
  }
}

// --- threaded stress (run under TSan in CI) --------------------------------

TEST(SpscRing, SingleProducerSingleConsumerStress) {
  constexpr int kItems = 200'000;
  SpscRing<int> ring(64);
  std::thread producer([&] {
    for (int i = 0; i < kItems; ++i)
      while (!ring.try_push(i)) std::this_thread::yield();
  });
  int expected = 0;
  while (expected < kItems) {
    int got = -1;
    if (ring.try_pop(got)) {
      // Wait-free FIFO: values arrive exactly in push order.
      ASSERT_EQ(got, expected);
      ++expected;
    } else {
      std::this_thread::yield();
    }
  }
  producer.join();
  EXPECT_TRUE(ring.empty());
}

TEST(MpscRing, MultiProducerStressKeepsPerProducerOrder) {
  constexpr int kProducers = 4;
  constexpr int kPerProducer = 50'000;
  MpscRing<std::uint64_t> ring(128);
  std::vector<std::thread> producers;
  producers.reserve(kProducers);
  for (int p = 0; p < kProducers; ++p)
    producers.emplace_back([&ring, p] {
      for (int i = 0; i < kPerProducer; ++i)
        ring.push((static_cast<std::uint64_t>(p) << 32) |
                  static_cast<std::uint64_t>(i));
    });

  std::vector<std::int64_t> last_seen(kProducers, -1);
  int received = 0;
  while (received < kProducers * kPerProducer) {
    std::uint64_t v = 0;
    if (!ring.try_pop(v)) {
      std::this_thread::yield();
      continue;
    }
    const auto p = static_cast<std::size_t>(v >> 32);
    const auto i = static_cast<std::int64_t>(v & 0xFFFFFFFFu);
    ASSERT_LT(p, static_cast<std::size_t>(kProducers));
    // Nothing lost, nothing reordered within one producer's stream.
    ASSERT_EQ(i, last_seen[p] + 1);
    last_seen[p] = i;
    ++received;
  }
  for (auto& t : producers) t.join();
  EXPECT_TRUE(ring.empty());
}

// --- annotated locking layer (util::Mutex / MutexLock / CondVar) -----------
// The DS_* annotations prove lock discipline at compile time under clang,
// but only for code paths the analysis can see; this stress case races
// the shim itself so TSan (the CI tsan job includes this suite) verifies
// the wrappers actually serialize — a shim that annotated correctly but
// forwarded to the wrong std::mutex member would pass the clang gate and
// fail here.

struct GuardedCounter {
  util::Mutex mu;
  // Deliberately NOT atomic: every access must hold mu, which the
  // annotation enforces under clang and TSan enforces at runtime.
  std::int64_t value DS_GUARDED_BY(mu) = 0;
  util::CondVar cv;
  bool done DS_GUARDED_BY(mu) = false;
};

TEST(AnnotatedMutex, SerializesCrossThreadIncrements) {
  constexpr int kThreads = 4;
  constexpr int kPerThread = 25'000;
  GuardedCounter c;
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t)
    workers.emplace_back([&c] {
      for (int i = 0; i < kPerThread; ++i) {
        util::MutexLock lock(c.mu);
        ++c.value;
      }
    });
  for (auto& t : workers) t.join();
  util::MutexLock lock(c.mu);
  EXPECT_EQ(c.value, static_cast<std::int64_t>(kThreads) * kPerThread);
}

TEST(AnnotatedMutex, CondVarHandsOffGuardedState) {
  // Producer/consumer over the CondVar wait_for protocol used by the
  // threaded backend's parking loops: the consumer must observe every
  // increment-then-notify without missed wakeups or torn reads.
  constexpr int kRounds = 2'000;
  GuardedCounter c;
  std::thread producer([&c] {
    for (int i = 0; i < kRounds; ++i) {
      util::MutexLock lock(c.mu);
      ++c.value;
      c.cv.notify_one();
    }
    util::MutexLock lock(c.mu);
    c.done = true;
    c.cv.notify_one();
  });
  std::int64_t last = 0;
  {
    util::MutexLock lock(c.mu);
    while (!c.done) {
      c.cv.wait_for(c.mu, std::chrono::milliseconds(50));
      EXPECT_GE(c.value, last);  // monotone under the lock
      last = c.value;
    }
    EXPECT_EQ(c.value, kRounds);
  }
  producer.join();
}

TEST(AnnotatedMutex, CopyableMutexCopiesStartUnlocked) {
  // The discriminator's RNG guard is a CopyableMutex: copying the owner
  // while the source is mid-critical-section must yield an unlocked,
  // independent lock in the copy.
  struct RngOwner {
    util::CopyableMutex mu;
    int draws DS_GUARDED_BY(mu) = 0;
  };
  RngOwner a;
  util::MutexLock lock_a(a.mu);
  RngOwner b(a);  // copy while a.mu is held
  ++a.draws;
  {
    util::MutexLock lock_b(b.mu);  // must not deadlock on the copy
    ++b.draws;
    EXPECT_EQ(b.draws, 1);
  }
}

}  // namespace
}  // namespace diffserve::util
