// Lane-parallel routing: the stable states and partitions of up to 31
// attackers of one destination, and its normal state, in a handful of
// level-synchronous sweeps.
//
// A destination-grouped sweep evaluates many attackers against the same d.
// Every stable state it needs is built from breadth-first searches by path
// length — the stages of routing/engine.h — so the searches can share one
// traversal among many sources the way multi-source BFS does (Then et al.,
// "The More the Merrier: Efficient Multi-Source Graph Traversal", PVLDB
// 8(4), 2014): every AS keeps one 32-bit mask per attribute, bit k
// belonging to attacker k (lane k).
//
//  * Levels. Entries (AS, lanes) are kept per path length, split into
//    exporting entries (origins and customer routes, which Ex lets travel up
//    and sideways) and other entries (peer and provider routes).
//  * Stages. A customer stage runs upward level by level from the
//    exporting entries; a peer stage takes one hop sideways from the
//    exporting entries, shortest level first; a provider stage runs
//    downward from every entry, level by level. A secure stage (FSCR,
//    FSPeeR, FSPrvR) admits only validating receivers and the secure lanes
//    of its sources.
//  * Per-level rule. A lane fixes at the first level that offers it a
//    candidate. Its reach flags are the OR over that level's candidates.
//    Under S, a validating AS with a secure candidate keeps only the secure
//    candidates; a secure candidate reaches d and never m.
//  * The normal lane. The mask's top bit is reserved for the state with no
//    attack: d's origin is its only root, so the sweeps that compute the
//    attacked states under S also compute the normal outcome
//    {d, kNoAs, model} (normal_flags_into) at the cost of one more bit per
//    mask operation. Attackers take the other kMaxLaneAttackers lanes.
//
// Security 3rd ranks routes by class and length exactly as S = emptyset
// does, and an unsigned origin disables the secure stages of the other two
// models, so there one shared sweep FCR -> FPeeR -> FPrvR yields both flag
// sets. Security 1st/2nd with a signed origin run the secure stages in the
// engine's order, so the S state gets a sweep of its own before the shared
// sweep computes S = emptyset. The pass computes no next hops and no route
// lengths — only the per-AS flag bytes the per-pair analyses read
// (flags_into, normal_flags_into), which equal RoutingOutcome::flags_into
// of compute_routing_into for the same query, on every lane and AS.
//
// partition() then classifies every lane's sources as doomed, protectable
// or immune (security/partition.h) from the S = emptyset sweep: security
// 3rd reads its reach flags, security 2nd also the route class each lane
// fixed with, and security 1st runs two multi-source perceivable-
// reachability closures. partition_into equals PartitionContext::classify
// under the standard LP ladder, on every lane and AS.
#ifndef SBGP_ROUTING_LANES_H
#define SBGP_ROUTING_LANES_H

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "routing/model.h"
#include "topology/as_graph.h"

namespace sbgp::routing {

/// Lanes per pass: one bit of a 32-bit mask each.
inline constexpr std::size_t kLaneWidth = 32;
/// Attackers per pass: every lane but the one reserved for the normal state.
inline constexpr std::size_t kMaxLaneAttackers = kLaneWidth - 1;

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
  /// destination `d`, and the normal state with no attacker, under
  /// (`model`, `deployment`) and under S = emptyset. Throws
  /// std::invalid_argument on a bad destination, on 0 or more than
  /// kMaxLaneAttackers attackers, and on an attacker that is out of range
  /// or equal to d. `g` must outlive the pass's later partition() call.
  void run(const topology::AsGraph& g, AsId d,
           std::span<const AsId> attackers, SecurityModel model,
           const Deployment& deployment);

  /// Attacker lanes of the last run() (the normal lane not counted).
  [[nodiscard]] std::size_t num_lanes() const noexcept { return lanes_; }

  /// Writes lane `lane`'s per-AS flag bytes (routing::kFlag*, engine.h)
  /// under `view` into `out`, resized to the graph's AS count. Throws
  /// std::out_of_range if `lane` >= num_lanes().
  void flags_into(std::size_t lane, View view,
                  std::vector<std::uint8_t>& out) const;

  /// Writes the normal lane's per-AS flag bytes under the pass's model and
  /// deployment into `out`: those of compute_routing_into for
  /// {d, kNoAs, model}. Throws std::logic_error before the first run().
  void normal_flags_into(std::vector<std::uint8_t>& out) const;

  /// Classifies every AS of every lane of the last run() under `model`
  /// with the standard LP ladder (any ladder for security 1st, which reads
  /// none): lane k holds the classes of the pair (attackers[k], d). Throws
  /// std::invalid_argument for SecurityModel::kInsecure and std::logic_error
  /// before the first run().
  void partition(SecurityModel model);

  /// Writes lane `lane`'s PartitionClass bytes from the last partition()
  /// into `out`, resized to the graph's AS count. Throws std::out_of_range
  /// if `lane` >= num_lanes() and std::logic_error if partition() has not
  /// run since the last run().
  void partition_into(std::size_t lane, std::vector<std::uint8_t>& out) const;

 private:
  using Mask = std::uint32_t;

  /// Per-AS lane masks. A lane is routed iff it reaches d or m, so no
  /// separate "routed" mask is kept. In the S sweep of secure stages
  /// (secure_st_) the two flag sets are equal and both mean "under S".
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

  /// Resets st_ and the level lists and installs the roots of d_ (in every
  /// lane, the normal one included) and attackers_; `origin_secure` lets
  /// d's lanes seed secure routes.
  void start(bool origin_secure);
  /// One stage over every level: customer routes climb from the exporting
  /// entries, peer routes take one hop sideways off them, provider routes
  /// descend from every entry. A kSecure stage (FSCR, FSPeeR, FSPrvR)
  /// offers only a source's secure lanes, to validating receivers.
  enum class Stage : std::uint8_t { kCustomer, kPeer, kProvider };
  template <Stage kStage, bool kSecure>
  void stage(const topology::AsGraph& g);
  /// Offers `src` (an entry's masks, restricted to its lanes) to `p` as a
  /// candidate one hop longer.
  void offer(AsId p, const State& src);
  /// Fixes every lane offered a candidate at this level, appending the new
  /// entries to lists[level].
  void settle(Levels& lists, std::size_t level);
  /// Makes `level` addressable in both lists.
  void add_level(std::size_t level);
  [[nodiscard]] State masked(const Entry& e) const;
  /// The mask bit of the normal lane, reserved above the attacker lanes.
  static constexpr Mask kNormalLane = Mask{1} << kMaxLaneAttackers;
  /// The attacker lanes of the pass.
  [[nodiscard]] Mask attacker_lanes() const noexcept {
    return (Mask{1} << lanes_) - 1;
  }
  /// flags_into for any lane, the normal one (kMaxLaneAttackers) included.
  void write_flags(std::size_t lane, View view,
                   std::vector<std::uint8_t>& out) const;

  /// Lanes of every AS that perceivably reach `roots` (Definition B.1),
  /// written to `reach` (root lanes included): customer routes climb
  /// customer->provider edges, peer routes take one hop off a root or a
  /// customer route, provider routes descend from everything reached. No
  /// AS is entered in a lane in which origin_ holds it, which excludes the
  /// roots and the other closure's roots.
  void perceivable_into(const topology::AsGraph& g,
                        std::span<const Entry> roots, std::vector<Mask>& reach);
  /// Security 2nd: PartitionContext::classify's neighbour rule on the
  /// S = emptyset sweep, for every lane at once.
  void classify_second(const topology::AsGraph& g);

  std::vector<State> st_;         // the shared sweep: S = emptyset (and S)
  std::vector<State> secure_st_;  // the S sweep when secure stages ran
  bool staged_ = false;           // secure_st_ holds the S view
  Levels exporting_;  // origins and customer routes, per path length
  Levels other_;      // peer and provider routes, per path length
  std::size_t levels_ = 0;  // levels in use this pass
  // Per level: the shared sweep's first peer_end_[level] entries of
  // other_[level] are peer routes, the rest provider routes.
  std::vector<std::size_t> peer_end_;
  std::vector<AsId> touched_;  // ASes offered a candidate at this level
  const Deployment* validating_ = nullptr;  // non-null iff secure routes exist
  const topology::AsGraph* g_ = nullptr;    // graph of the last run()
  AsId d_ = kNoAs;
  std::vector<AsId> attackers_;  // attacker of each lane
  std::size_t lanes_ = 0;        // attacker lanes

  // Partition masks per AS (lanes immune / doomed; the rest protectable)
  // and their scratch. Only the attacker lanes' bits are meaningful.
  std::vector<Mask> immune_;
  std::vector<Mask> doomed_;
  std::vector<Mask> origin_;   // lanes in which the AS is d or m_k
  std::vector<Mask> pending_;  // closure: lanes not yet propagated
  std::vector<Mask> scratch_;  // closure peer hop; security 2nd classes
  std::vector<AsId> queue_;    // closure work list
  bool partitioned_ = false;   // partition() ran since the last run()
};

}  // namespace sbgp::routing

#endif  // SBGP_ROUTING_LANES_H
