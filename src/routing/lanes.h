// Lane-parallel routing: the stable states of up to 32 attackers of one
// destination in a single level-synchronous sweep.
//
// A destination-grouped sweep evaluates many attackers against the same d,
// and every attacked stable state it needs under S = emptyset — and, where
// no secure stage runs, under S — follows the same three-stage skeleton
// FCR -> FPeeR -> FPrvR (routing/engine.h). Those stages are breadth-first
// searches by path length, so they can share one traversal among many
// sources the way multi-source BFS does (Then et al., "The More the Merrier:
// Efficient Multi-Source Graph Traversal", PVLDB 8(4), 2014): every AS keeps
// one 32-bit mask per attribute, bit k belonging to attacker k (lane k).
//
//  * Levels. Entries (AS, lanes) are kept per path length, split into
//    exporting entries (origins and customer routes, which Ex lets travel up
//    and sideways) and other entries (peer and provider routes).
//  * Stages. The customer stage runs upward level by level from the
//    exporting entries; the peer stage takes one hop sideways from the
//    exporting entries, shortest level first; the provider stage runs
//    downward from every entry, level by level.
//  * Per-level rule. A lane fixes at the first level that offers it a
//    candidate. Its reach flags are the OR over that level's candidates.
//    Under S, a validating AS with a secure candidate keeps only the secure
//    candidates; a secure candidate reaches d and never m.
//
// Security 3rd ranks routes by class and length exactly as S = emptyset
// does, and an unsigned origin disables the secure stages of the other two
// models, so one skeleton serves both flag sets: the pass applies exactly
// where routing_seed_applicable holds. It computes no next hops and no
// route types or lengths — only the per-AS flag bytes the per-pair analyses
// read (flags_into), which equal RoutingOutcome::flags_into of
// compute_routing_into for the same query, on every lane and AS.
#ifndef SBGP_ROUTING_LANES_H
#define SBGP_ROUTING_LANES_H

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "routing/model.h"
#include "topology/as_graph.h"

namespace sbgp::routing {

/// Attackers per lane pass: one bit of a 32-bit mask each.
inline constexpr std::size_t kLaneWidth = 32;

/// Reusable lane-parallel routing state for one destination. Not
/// thread-safe: one per worker (EngineWorkspace::lanes). Buffers grow to
/// the largest graph seen and are reused across passes.
class LanePass {
 public:
  /// Which flag set flags_into reads.
  enum class View : std::uint8_t {
    kDeployment,  // under the pass's model and deployment S
    kEmpty,       // under S = emptyset (insecure BGP)
  };

  /// Computes every lane's stable state for attacker `attackers[k]` on
  /// destination `d`, under (`model`, `deployment`) and under S = emptyset.
  /// Throws std::invalid_argument on a bad destination, on 0 or more than
  /// kLaneWidth attackers, on an attacker that is out of range or equal to
  /// d, and for security 1st/2nd with a signed origin (whose secure stages
  /// the skeleton does not reproduce; use compute_routing_into there).
  void run(const topology::AsGraph& g, AsId d,
           std::span<const AsId> attackers, SecurityModel model,
           const Deployment& deployment);

  /// Lanes of the last run().
  [[nodiscard]] std::size_t num_lanes() const noexcept { return lanes_; }

  /// Writes lane `lane`'s per-AS flag bytes (routing::kFlag*, engine.h)
  /// under `view` into `out`, resized to the graph's AS count. Throws
  /// std::out_of_range if `lane` >= num_lanes().
  void flags_into(std::size_t lane, View view,
                  std::vector<std::uint8_t>& out) const;

 private:
  using Mask = std::uint32_t;

  /// Per-AS lane masks. A lane is routed iff it reaches d or m, so no
  /// separate "routed" mask is kept.
  struct State {
    Mask reach_d = 0;    // S = emptyset: some best route reaches d
    Mask reach_m = 0;    // S = emptyset: some best route reaches m
    Mask reach_d_s = 0;  // under S
    Mask reach_m_s = 0;  // under S
    Mask secure = 0;     // under S: the route is secure
    Mask fresh = 0;      // lanes being fixed at the level in progress
  };
  struct Entry {
    AsId as;
    Mask lanes;
  };
  using Levels = std::vector<std::vector<Entry>>;

  /// Offers `src` (an entry's masks, restricted to its lanes) to `p` as a
  /// candidate one hop longer.
  void offer(AsId p, const State& src);
  /// Fixes every lane offered a candidate at this level, appending the new
  /// entries to lists[level].
  void settle(Levels& lists, std::size_t level);
  /// Makes `level` addressable in both lists.
  void add_level(std::size_t level);
  [[nodiscard]] State masked(const Entry& e) const;

  std::vector<State> st_;
  Levels exporting_;  // origins and customer routes, per path length
  Levels other_;      // peer and provider routes, per path length
  std::size_t levels_ = 0;  // levels in use this pass
  std::vector<AsId> touched_;  // ASes offered a candidate at this level
  const Deployment* validating_ = nullptr;  // non-null iff secure routes exist
  AsId d_ = kNoAs;
  std::size_t lanes_ = 0;
};

}  // namespace sbgp::routing

#endif  // SBGP_ROUTING_LANES_H
