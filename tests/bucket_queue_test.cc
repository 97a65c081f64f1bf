#include "routing/bucket_queue.h"

#include <gtest/gtest.h>

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

TEST(BucketQueue, PushIntoCurrentlyDrainingBucket) {
  // A push at the length being drained (the smallest a caller may push
  // after a pop) joins the back of that length's FIFO.
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

TEST(BucketQueue, ClearResetsForReuse) {
  BucketQueue q;
  q.push(2, 1);
  q.push(7, 2);
  EXPECT_EQ(q.pop(), (Item{2, 1}));
  q.clear();  // half-drained: the length-7 item must not survive
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(q.size(), 0u);
  // clear() also resets the drain cursor, so a new seed batch may start
  // below the length last popped.
  q.push(1, 8);
  q.push(0, 3);
  EXPECT_EQ(q.pop(), (Item{0, 3}));
  EXPECT_EQ(q.pop(), (Item{1, 8}));
  EXPECT_TRUE(q.empty());
}

/// Randomized equivalence under the monotone contract every caller keeps:
/// a seed batch, then pushes interleaved with pops, each at or above the
/// last popped length. The bucket queue's pop sequence must match the
/// reference FIFOs item-for-item. Lengths stay in a narrow band above the
/// last popped one, so duplicate lengths and pushes into the bucket being
/// drained occur constantly.
TEST(BucketQueue, MatchesReferenceFifoOnAdversarialInterleavings) {
  for (std::uint32_t seed = 0; seed < 16; ++seed) {
    std::mt19937 rng(20130812u + seed);
    BucketQueue q;
    ReferenceFifo ref;
    std::uint32_t last_key = 0;  // the last popped length

    const auto push_both = [&](std::uint32_t len, topology::AsId v) {
      q.push(len, v);
      ref.push(len, v);
    };
    for (int i = 0; i < 24; ++i) {
      push_both(rng() % 12, rng() % 32);
    }

    std::size_t pops = 0;
    for (int step = 0; step < 4000; ++step) {
      const bool do_pop = !ref.empty() && rng() % 3 == 0;
      if (do_pop) {
        const Item expect = ref.pop();
        ASSERT_FALSE(q.empty());
        const Item got = q.pop();
        ASSERT_EQ(got, expect) << "seed " << seed << " pop #" << pops;
        last_key = expect.first;
        ++pops;
        continue;
      }
      const topology::AsId v = rng() % 32;  // small id space: many dups
      if (rng() % 4 == 0) {
        push_both(last_key, v);  // into the bucket being drained
      } else {
        push_both(last_key + rng() % 6, v);
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
      const std::uint32_t len = rng() % 20;
      const topology::AsId v = rng() % 16;
      q.push(len, v);
      ref.push(len, v);
    }
    // Pop part of the round, pushing at or above each popped length now
    // and then, so the next clear() meets half-drained buckets as well as
    // untouched ones.
    const int drain = static_cast<int>(rng() % static_cast<unsigned>(n + 1));
    for (int i = 0; i < drain; ++i) {
      const Item expect = ref.pop();
      ASSERT_EQ(q.pop(), expect) << "round " << round;
      if (rng() % 2 == 0) {
        const std::uint32_t len = expect.first + rng() % 3;
        const topology::AsId v = rng() % 16;
        q.push(len, v);
        ref.push(len, v);
      }
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
