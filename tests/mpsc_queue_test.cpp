// Tests for the lock-free MPSC queue (util/mpsc_queue.h) in isolation:
// FIFO per producer under concurrent pushes, exactly-once delivery, the
// parking fast/slow paths of pop_wait, and drain-to-empty on shutdown.
// CI runs this suite under ThreadSanitizer (the `tsan` job), which is the
// actual memory-model check — the assertions here pin the semantics.
#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <memory>
#include <thread>
#include <vector>

#include "util/mpsc_queue.h"

namespace mecra::util {
namespace {

using namespace std::chrono_literals;

TEST(MpscQueue, SingleThreadedFifo) {
  MpscQueue<int> q;
  for (int i = 0; i < 1000; ++i) q.push(i);
  int v = -1;
  for (int i = 0; i < 1000; ++i) {
    ASSERT_TRUE(q.try_pop(v));
    EXPECT_EQ(v, i);
  }
  EXPECT_FALSE(q.try_pop(v));
}

TEST(MpscQueue, MoveOnlyElements) {
  MpscQueue<std::unique_ptr<int>> q;
  q.push(std::make_unique<int>(7));
  std::unique_ptr<int> out;
  ASSERT_TRUE(q.try_pop(out));
  ASSERT_NE(out, nullptr);
  EXPECT_EQ(*out, 7);
}

TEST(MpscQueue, PopWaitTimesOutOnEmptyQueue) {
  MpscQueue<int> q;
  int v = 0;
  EXPECT_FALSE(q.pop_wait(v, 5ms));
}

TEST(MpscQueue, PopWaitWakesOnPush) {
  MpscQueue<int> q;
  int got = -1;
  std::thread consumer([&] {
    int v = -1;
    // Generous bound: the push below must wake us well before it.
    while (!q.pop_wait(v, 10s)) {
    }
    got = v;
  });
  std::this_thread::sleep_for(20ms);
  q.push(42);
  consumer.join();
  EXPECT_EQ(got, 42);
}

// Each producer pushes (producer_id, seq) pairs; the consumer must see
// every element exactly once and each producer's sequence in order.
TEST(MpscQueue, FifoPerProducerUnderConcurrentPushes) {
  constexpr std::uint64_t kProducers = 4;
  constexpr std::uint64_t kPerProducer = 20000;
  struct Item {
    std::uint64_t producer = 0;
    std::uint64_t seq = 0;
  };
  MpscQueue<Item> q;
  std::vector<std::thread> producers;
  producers.reserve(kProducers);
  for (std::uint64_t p = 0; p < kProducers; ++p) {
    producers.emplace_back([&q, p] {
      for (std::uint64_t s = 0; s < kPerProducer; ++s) {
        q.push(Item{p, s});
      }
    });
  }
  std::vector<std::uint64_t> next_seq(kProducers, 0);
  std::uint64_t received = 0;
  Item item;
  while (received < kProducers * kPerProducer) {
    if (q.pop_wait(item, 1s)) {
      ASSERT_LT(item.producer, kProducers);
      // FIFO per producer: sequences arrive in push order, no gaps.
      EXPECT_EQ(item.seq, next_seq[item.producer]);
      ++next_seq[item.producer];
      ++received;
    }
  }
  for (auto& t : producers) t.join();
  EXPECT_FALSE(q.try_pop(item));
  for (std::uint64_t p = 0; p < kProducers; ++p) {
    EXPECT_EQ(next_seq[p], kPerProducer);
  }
}

// Shutdown discipline: after producers quiesce, a drain loop must recover
// every pushed element (the momentary-unlink window in push() can hide an
// element from ONE try_pop, but never permanently).
TEST(MpscQueue, DrainsToEmptyAfterProducersStop) {
  constexpr std::uint64_t kProducers = 3;
  constexpr std::uint64_t kPerProducer = 5000;
  MpscQueue<std::uint64_t> q;
  std::vector<std::thread> producers;
  producers.reserve(kProducers);
  for (std::uint64_t p = 0; p < kProducers; ++p) {
    producers.emplace_back([&q, p] {
      for (std::uint64_t s = 0; s < kPerProducer; ++s) {
        q.push(p * kPerProducer + s);
      }
    });
  }
  for (auto& t : producers) t.join();
  std::vector<bool> seen(kProducers * kPerProducer, false);
  std::uint64_t v = 0;
  std::uint64_t drained = 0;
  while (q.pop_wait(v, 10ms)) {
    ASSERT_LT(v, seen.size());
    EXPECT_FALSE(seen[v]);  // exactly-once
    seen[v] = true;
    ++drained;
  }
  EXPECT_EQ(drained, kProducers * kPerProducer);
}

}  // namespace
}  // namespace mecra::util
