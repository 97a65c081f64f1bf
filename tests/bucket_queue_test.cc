#include "routing/bucket_queue.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <deque>
#include <map>
#include <random>
#include <vector>

namespace sbgp::routing {
namespace {

using Item = BucketQueue::Item;

/// Reference semantics the bucket queue must reproduce exactly: one FIFO
/// per length, popping the oldest item of the smallest length present.
class ReferenceFifo {
 public:
  void push(std::uint32_t len, topology::AsId v) { fifos_[len].push_back(v); }
  [[nodiscard]] bool empty() const { return fifos_.empty(); }
  Item pop() {
    const auto it = fifos_.begin();
    const Item front{it->first, it->second.front()};
    it->second.pop_front();
    if (it->second.empty()) fifos_.erase(it);
    return front;
  }

 private:
  std::map<std::uint32_t, std::deque<topology::AsId>> fifos_;
};

TEST(BucketQueue, PopsInLengthThenInsertionOrder) {
  BucketQueue q;
  q.push(3, 7);
  q.push(1, 9);
  q.push(3, 2);
  q.push(1, 4);
  q.push(2, 0);
  EXPECT_EQ(q.size(), 5u);
  EXPECT_EQ(q.pop(), (Item{1, 9}));
  EXPECT_EQ(q.pop(), (Item{1, 4}));
  EXPECT_EQ(q.pop(), (Item{2, 0}));
  EXPECT_EQ(q.pop(), (Item{3, 7}));
  EXPECT_EQ(q.pop(), (Item{3, 2}));
  EXPECT_TRUE(q.empty());
}

TEST(BucketQueue, DuplicateEntriesAllComeOut) {
  BucketQueue q;
  q.push(5, 1);
  q.push(5, 1);
  q.push(5, 1);
  EXPECT_EQ(q.pop(), (Item{5, 1}));
  EXPECT_EQ(q.pop(), (Item{5, 1}));
  EXPECT_EQ(q.pop(), (Item{5, 1}));
  EXPECT_TRUE(q.empty());
}

TEST(BucketQueue, InfLengthKeysComeLast) {
  BucketQueue q;
  q.push(BucketQueue::kInfLength, 3);
  q.push(BucketQueue::kInfLength, 1);
  q.push(200, 9);
  EXPECT_EQ(q.pop(), (Item{200, 9}));
  EXPECT_EQ(q.pop(), (Item{BucketQueue::kInfLength, 3}));
  EXPECT_EQ(q.pop(), (Item{BucketQueue::kInfLength, 1}));
  EXPECT_TRUE(q.empty());
}

TEST(BucketQueue, PushIntoCurrentlyDrainingBucket) {
  // The seeded SWSF-FP fixpoint re-inserts at the key being drained: the
  // new items join the back of that length's FIFO.
  BucketQueue q;
  q.push(4, 10);
  q.push(4, 30);
  EXPECT_EQ(q.pop(), (Item{4, 10}));
  q.push(4, 20);  // mid-drain push into the bucket being drained
  q.push(4, 5);   // below the already-popped id: still after 30 and 20
  EXPECT_EQ(q.pop(), (Item{4, 30}));
  EXPECT_EQ(q.pop(), (Item{4, 20}));
  EXPECT_EQ(q.pop(), (Item{4, 5}));
  EXPECT_TRUE(q.empty());
}

TEST(BucketQueue, PushBelowCursorRewinds) {
  // The seeded restate pass can push keys strictly below the key it last
  // popped; the queue must return to the lower bucket.
  BucketQueue q;
  q.push(10, 1);
  q.push(12, 2);
  EXPECT_EQ(q.pop(), (Item{10, 1}));
  q.push(3, 7);
  q.push(10, 4);  // the drained length-10 bucket gains a new item too
  EXPECT_EQ(q.pop(), (Item{3, 7}));
  EXPECT_EQ(q.pop(), (Item{10, 4}));
  EXPECT_EQ(q.pop(), (Item{12, 2}));
  EXPECT_TRUE(q.empty());
}

TEST(BucketQueue, ClearResetsForReuse) {
  BucketQueue q;
  q.push(2, 1);
  q.push(BucketQueue::kInfLength, 2);
  EXPECT_EQ(q.pop(), (Item{2, 1}));
  q.clear();
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(q.size(), 0u);
  q.push(1, 8);
  q.push(0, 3);
  EXPECT_EQ(q.pop(), (Item{0, 3}));
  EXPECT_EQ(q.pop(), (Item{1, 8}));
  EXPECT_TRUE(q.empty());
}

/// Randomized equivalence: interleave pushes and pops adversarially and
/// require the bucket queue's pop sequence to match the reference FIFOs
/// item-for-item. Lengths are drawn from a narrow band around the last
/// popped key so duplicate lengths, same-bucket re-pushes and
/// decrease-by-repush (a lower key pushed for an id already queued at a
/// higher one) all occur constantly.
TEST(BucketQueue, MatchesReferenceFifoOnAdversarialInterleavings) {
  for (std::uint32_t seed = 0; seed < 16; ++seed) {
    std::mt19937 rng(20130812u + seed);
    BucketQueue q;
    ReferenceFifo ref;
    std::uint32_t last_key = 8;  // band center; tracks popped keys

    const auto push_both = [&](std::uint32_t len, topology::AsId v) {
      q.push(len, v);
      ref.push(len, v);
    };

    std::size_t pops = 0;
    for (int step = 0; step < 4000; ++step) {
      const bool do_pop = !ref.empty() && rng() % 3 == 0;
      if (do_pop) {
        const Item expect = ref.pop();
        ASSERT_FALSE(q.empty());
        const Item got = q.pop();
        ASSERT_EQ(got, expect) << "seed " << seed << " pop #" << pops;
        last_key = expect.first == BucketQueue::kInfLength
                       ? 8
                       : expect.first;
        ++pops;
        continue;
      }
      const topology::AsId v = rng() % 32;  // small id space: many dups
      switch (rng() % 8) {
        case 0:  // sentinel key (the provider delta's dropped-route push)
          push_both(BucketQueue::kInfLength, v);
          break;
        case 1:  // decrease-by-repush: strictly below the last popped key
          push_both(
              last_key - std::min(last_key,
                                  1u + static_cast<std::uint32_t>(rng() % 4)),
              v);
          break;
        case 2:  // same-key push into the bucket being drained
          push_both(last_key, v);
          break;
        default:  // monotone-ish push slightly above the last popped key
          push_both(last_key + rng() % 6, v);
          break;
      }
    }
    while (!ref.empty()) {
      const Item expect = ref.pop();
      ASSERT_FALSE(q.empty());
      ASSERT_EQ(q.pop(), expect) << "seed " << seed << " drain";
    }
    EXPECT_TRUE(q.empty());
  }
}

/// Same property across clear(): stale bucket state from a previous round
/// must never leak into the next.
TEST(BucketQueue, MatchesReferenceAcrossClears) {
  std::mt19937 rng(42);
  BucketQueue q;  // one queue reused across rounds, like a workspace's
  for (int round = 0; round < 50; ++round) {
    q.clear();
    ReferenceFifo ref;
    const int n = 1 + static_cast<int>(rng() % 64);
    for (int i = 0; i < n; ++i) {
      const std::uint32_t len =
          rng() % 5 == 0 ? BucketQueue::kInfLength : rng() % 20;
      const topology::AsId v = rng() % 16;
      q.push(len, v);
      ref.push(len, v);
    }
    // Pop part of the round, so the next clear() meets half-drained
    // buckets as well as untouched ones.
    const int drain = static_cast<int>(rng() % static_cast<unsigned>(n + 1));
    for (int i = 0; i < drain; ++i) {
      ASSERT_EQ(q.pop(), ref.pop()) << "round " << round;
    }
    if (round % 2 == 0) continue;
    while (!ref.empty()) {
      ASSERT_EQ(q.pop(), ref.pop()) << "round " << round;
    }
    EXPECT_TRUE(q.empty());
  }
}

}  // namespace
}  // namespace sbgp::routing
