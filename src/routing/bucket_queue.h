// Monotone bucket (pigeonhole) queue for the engine's Dijkstra-style
// stages.
//
// Stage frontiers order items by length, where lengths are AS-path hop
// counts bounded by the graph diameter, so a comparison-based heap is
// overkill: an indexed array of per-length buckets gives O(1) pushes and
// amortized O(1) pops, dropping the staged BFS from O((V+E) log V) toward
// O(V+E). The queue owns its storage and is kept alive inside an
// EngineWorkspace so bucket capacity survives across stages and queries.
//
// Contract: pop() returns an item of the smallest length present, and
// items of one length come out in insertion (FIFO) order. A push below the
// drain cursor (the seeded engine's DynamicSWSF-FP fixpoint and restate
// pass can push below the key they last popped) rewinds the cursor. No
// caller depends on the order among equal lengths: every stage builds a
// route of length L only from neighbors of length L-1, and picks next hops
// in adjacency order, never in pop order.
#ifndef SBGP_ROUTING_BUCKET_QUEUE_H
#define SBGP_ROUTING_BUCKET_QUEUE_H

#include <cassert>
#include <cstdint>
#include <utility>
#include <vector>

#include "topology/types.h"

namespace sbgp::routing {

class BucketQueue {
 public:
  using Item = std::pair<std::uint32_t, topology::AsId>;

  /// Keys of exactly this value (kNoRouteLength: the "no route" sentinel
  /// the seeded provider delta pushes for dropped routes) live in a
  /// dedicated overflow bucket instead of materializing 2^16 - 1 empty
  /// finite buckets. They compare greater than every finite length.
  static constexpr std::uint32_t kInfLength = 0xFFFF;

  BucketQueue() = default;

  /// Empties the queue, keeping all bucket capacity. O(#buckets touched
  /// since the last clear), not O(#buckets ever used).
  void clear() {
    for (const std::uint32_t len : used_) reset_bucket(buckets_[len]);
    used_.clear();
    reset_bucket(inf_bucket_);
    cur_ = 0;
    size_ = 0;
  }

  [[nodiscard]] bool empty() const noexcept { return size_ == 0; }
  [[nodiscard]] std::size_t size() const noexcept { return size_; }

  void push(std::uint32_t len, topology::AsId v) {
    assert(len <= kInfLength);
    ++size_;
    if (len >= kInfLength) {
      inf_bucket_.items.push_back(v);
      return;
    }
    if (len >= buckets_.size()) buckets_.resize(len + 1);
    Bucket& b = buckets_[len];
    if (b.items.empty()) used_.push_back(len);
    b.items.push_back(v);
    if (len < cur_) cur_ = len;  // backward push: rewind the drain cursor
  }

  /// Removes and returns the oldest item of the smallest length present.
  Item pop() {
    assert(size_ > 0);
    --size_;
    while (cur_ < buckets_.size()) {
      Bucket& b = buckets_[cur_];
      if (b.head < b.items.size()) return {cur_, b.items[b.head++]};
      ++cur_;
    }
    assert(inf_bucket_.head < inf_bucket_.items.size());
    return {kInfLength, inf_bucket_.items[inf_bucket_.head++]};
  }

 private:
  struct Bucket {
    std::vector<topology::AsId> items;
    std::uint32_t head = 0;  // items[0, head) already popped
  };

  static void reset_bucket(Bucket& b) {
    b.items.clear();
    b.head = 0;
  }

  std::vector<Bucket> buckets_;      // finite lengths; grown on demand
  Bucket inf_bucket_;                // kInfLength items
  std::vector<std::uint32_t> used_;  // finite buckets touched since clear()
  std::uint32_t cur_ = 0;            // lowest possibly-non-empty bucket
  std::size_t size_ = 0;
};

}  // namespace sbgp::routing

#endif  // SBGP_ROUTING_BUCKET_QUEUE_H
