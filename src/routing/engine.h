// Staged-BFS computation of S*BGP routing outcomes (Appendix B).
//
// For a query (destination d, optional attacker m announcing the bogus path
// "m, d" over legacy BGP) and a partial deployment S, the engine computes
// the unique stable routing state (Theorem 2.1) in near-O(V + E) time
// (bucket-queue frontiers; see routing/bucket_queue.h) by "fixing" AS
// routes in the order the paper's Fix-Routes algorithm prescribes:
//
//   baseline / security 3rd:  FCR -> FPeeR -> FPrvR
//   security 2nd:             FSCR -> FCR -> FPeeR -> FSPrvR -> FPrvR
//   security 1st:             FSCR -> FSPeeR -> FSPrvR -> FCR -> FPeeR -> FPrvR
//
// where the FS* stages propagate fully-secure routes among validating ASes
// only. Each AS ends with its route's relationship class, length, security,
// and the pair of flags {some most-preferred route reaches d, some reaches
// m} that drive the tie-break upper/lower bounds of Appendix C.
#ifndef SBGP_ROUTING_ENGINE_H
#define SBGP_ROUTING_ENGINE_H

#include <cstdint>
#include <vector>

#include "routing/model.h"
#include "topology/as_graph.h"

namespace sbgp::routing {

using topology::AsGraph;

/// Length value meaning "no route".
inline constexpr std::uint16_t kNoRouteLength = 0xFFFF;

/// Bits of a per-AS flag byte: everything the per-pair analyses read of a
/// stable state (RoutingOutcome::flags_into, LanePass::flags_into).
inline constexpr std::uint8_t kFlagRouted = 1u << 0;  // has a route
inline constexpr std::uint8_t kFlagReachD = 1u << 1;  // some best route to d
inline constexpr std::uint8_t kFlagReachM = 1u << 2;  // some best route to m
inline constexpr std::uint8_t kFlagSecure = 1u << 3;  // the route is secure

/// Stable routing state for one (d, m, S, model) instance.
///
/// All per-AS attributes below are invariant under intradomain tie-breaking
/// (every route in an AS's most-preferred set shares the same relationship
/// class, length and security — Appendix B.1); only *which endpoint* a route
/// reaches can depend on tie-breaking, which the reach flags expose.
///
/// Storage is one packed 32-bit word per AS
///
///   bits  0-2   route type        bits 3-5   reach/secure flags
///   bits  6-15  reserved (zero)   bits 16-31 AS-path length
///
/// so the engine's hot operations — fix() and reset() — are single stores
/// and one fill respectively, and a query streams one word per AS through
/// the cache instead of three parallel arrays. The two representative
/// next-hop arrays stay separate: only path reconstruction reads them.
class RoutingOutcome {
 public:
  /// Empty outcome; reset(n) before use (workspace reuse path).
  RoutingOutcome() = default;
  explicit RoutingOutcome(std::size_t n) { reset(n); }

  /// Re-initializes to the all-unfixed state for `n` ASes, reusing the
  /// existing buffer capacity. This is what makes outcomes cheap to keep in
  /// a long-lived EngineWorkspace.
  void reset(std::size_t n) {
    word_.assign(n, kUnfixedWord);
    next_toward_d_.assign(n, kNoAs);
    next_toward_m_.assign(n, kNoAs);
  }

  [[nodiscard]] std::size_t num_ases() const noexcept { return word_.size(); }

  [[nodiscard]] RouteType type(AsId v) const noexcept {
    return static_cast<RouteType>(word_[v] & kTypeMask);
  }
  [[nodiscard]] std::uint16_t length(AsId v) const noexcept {
    return static_cast<std::uint16_t>(word_[v] >> kLengthShift);
  }
  [[nodiscard]] bool has_route(AsId v) const noexcept {
    return (word_[v] & kTypeMask) != 0;
  }
  /// True if some most-preferred route of v leads to the legitimate d.
  [[nodiscard]] bool reaches_destination(AsId v) const noexcept {
    return (word_[v] & kReachD) != 0;
  }
  /// True if some most-preferred route of v leads to the attacker.
  [[nodiscard]] bool reaches_attacker(AsId v) const noexcept {
    return (word_[v] & kReachM) != 0;
  }
  /// True if v's route was learned entirely via S*BGP (a "secure route").
  [[nodiscard]] bool secure_route(AsId v) const noexcept {
    return (word_[v] & kSecure) != 0;
  }

  /// The raw packed (type | flags | length) word of v — everything a
  /// neighbor's candidate scan can observe about v's route, and nothing it
  /// cannot (next hops are excluded by construction). The golden digests
  /// fold these words.
  [[nodiscard]] std::uint32_t packed_word(AsId v) const noexcept {
    return word_[v];
  }

  /// Writes every AS's flag byte (kFlag*) into `out`, resized to
  /// num_ases().
  void flags_into(std::vector<std::uint8_t>& out) const {
    out.resize(word_.size());
    for (std::size_t v = 0; v < word_.size(); ++v) {
      const std::uint32_t w = word_[v];
      out[v] = static_cast<std::uint8_t>(
          ((w & kTypeMask) != 0 ? kFlagRouted : 0u) |
          ((w >> kFlagShift) & (kFlagReachD | kFlagReachM | kFlagSecure)));
    }
  }

  [[nodiscard]] HappyStatus happy(AsId v) const noexcept {
    if (!has_route(v)) return HappyStatus::kDisconnected;
    const bool d = reaches_destination(v);
    const bool m = reaches_attacker(v);
    if (d && m) return HappyStatus::kEither;
    return d ? HappyStatus::kHappy : HappyStatus::kUnhappy;
  }

  /// A representative most-preferred path from v to the root indicated by
  /// `toward_destination` (the full AS sequence, ending at d or m). Only
  /// valid if the corresponding reach flag is set.
  [[nodiscard]] std::vector<AsId> representative_path(
      AsId v, bool toward_destination) const;

  /// Next hop of a representative most-preferred route of v toward the
  /// requested root (kNoAs at origins / routeless ASes). Allocation-free
  /// building block behind representative_path.
  [[nodiscard]] AsId next_toward(AsId v, bool toward_destination) const noexcept {
    return toward_destination ? next_toward_d_[v] : next_toward_m_[v];
  }

  /// Exact per-AS equality over every attribute, including the
  /// representative next hops — what alternative engine paths are tested
  /// against (identical bytes, not just identical statistics).
  [[nodiscard]] bool operator==(const RoutingOutcome&) const = default;

  // --- engine-internal setters (public for the implementation file) -----
  void fix(AsId v, RouteType t, std::uint16_t len, bool reach_d, bool reach_m,
           bool secure, AsId nh_d, AsId nh_m) noexcept {
    word_[v] = static_cast<std::uint32_t>(t) | (reach_d ? kReachD : 0u) |
               (reach_m ? kReachM : 0u) | (secure ? kSecure : 0u) |
               (static_cast<std::uint32_t>(len) << kLengthShift);
    next_toward_d_[v] = nh_d;
    next_toward_m_[v] = nh_m;
  }

 private:
  // Packed-word layout; bits 6-15 are reserved and always zero.
  static constexpr std::uint32_t kTypeMask = 0x7u;      // bits 0-2
  static constexpr std::uint32_t kReachD = 1u << 3;
  static constexpr std::uint32_t kReachM = 1u << 4;
  static constexpr std::uint32_t kSecure = 1u << 5;
  static constexpr std::uint32_t kLengthShift = 16;     // bits 16-31
  // The three flag bits sit two places above their kFlag* counterparts.
  static constexpr std::uint32_t kFlagShift = 2;
  static_assert(kReachD >> kFlagShift == kFlagReachD &&
                kReachM >> kFlagShift == kFlagReachM &&
                kSecure >> kFlagShift == kFlagSecure);
  /// kNone route, no flags, kNoRouteLength — the all-unfixed state.
  static constexpr std::uint32_t kUnfixedWord =
      static_cast<std::uint32_t>(kNoRouteLength) << kLengthShift;

  std::vector<std::uint32_t> word_;
  std::vector<AsId> next_toward_d_;
  std::vector<AsId> next_toward_m_;
};

/// Computes the stable routing outcome. Preconditions: destination valid;
/// attacker != destination (or kNoAs); model kInsecure ignores `deployment`.
/// Only the standard LP policy is supported here (the LPk variant of
/// Appendix K is handled by the reference simulator and the partition
/// analysis). Throws std::invalid_argument on bad queries.
[[nodiscard]] RoutingOutcome compute_routing(const AsGraph& g, const Query& q,
                                             const Deployment& deployment);

/// Section 8 extension: S*BGP with *hysteresis*. An AS that holds a secure
/// route under normal conditions does not abandon it during an attack even
/// if a higher-ranked insecure route appears — eliminating protocol
/// downgrade attacks by construction (except when the attacker sits on the
/// secure route itself). Equivalent to compute_routing for the security
/// 1st model (Theorem 3.1); for the 2nd/3rd models it quantifies how much
/// of the 1st model's protection the paper's proposed fix could recover.
[[nodiscard]] RoutingOutcome compute_routing_with_hysteresis(
    const AsGraph& g, const Query& q, const Deployment& deployment);

// --- Workspace variants (allocation-free steady state) ---------------------
//
// The variants below compute into buffers owned by an EngineWorkspace (see
// routing/workspace.h) instead of allocating fresh vectors per query. They
// are what sim::BatchExecutor workers call in the hot loop; the allocating
// signatures above are thin wrappers over them.

class EngineWorkspace;

/// Computes the stable routing outcome into `result`, using ws.fixed and
/// ws.frontier as scratch. `result` is typically one of ws's outcome slots
/// and must not alias a slot the caller still needs.
void compute_routing_into(const AsGraph& g, const Query& q,
                          const Deployment& deployment, EngineWorkspace& ws,
                          RoutingOutcome& result);

/// Convenience: computes into ws.primary and returns it.
const RoutingOutcome& compute_routing(const AsGraph& g, const Query& q,
                                      const Deployment& deployment,
                                      EngineWorkspace& ws);

/// Hysteresis variant computing into `result`; clobbers ws.normal with the
/// pre-attack outcome (`result` must not alias ws.normal).
void compute_routing_with_hysteresis_into(const AsGraph& g, const Query& q,
                                          const Deployment& deployment,
                                          EngineWorkspace& ws,
                                          RoutingOutcome& result);

/// Hysteresis variant that takes the pre-attack outcome of
/// {q.destination, kNoAs, q.model} under `deployment` as a precomputed
/// input instead of recomputing it — the destination-grouped sweep
/// (sim/pair_analysis.h) computes `normal` once per destination and feeds
/// it to every attacker. `normal` must not alias `result`; ws.normal is
/// left untouched. Bit-for-bit identical to the recomputing overload.
void compute_routing_with_hysteresis_into(const AsGraph& g, const Query& q,
                                          const Deployment& deployment,
                                          EngineWorkspace& ws,
                                          const RoutingOutcome& normal,
                                          RoutingOutcome& result);

// --- Seeded entry point ----------------------------------------------------
//
// compute_routing_seeded_into exists only for the benchmark's
// `engine.seeded` rung, and goes when that rung does. It runs the full
// engine and reads `baseline` only for its size check.

/// True if compute_routing_seeded_into accepts this query: q.under_attack()
/// and no secure stage runs (kInsecure / kSecurityThird, or an unsigned
/// origin).
[[nodiscard]] bool routing_seed_applicable(const Query& q,
                                           const Deployment& deployment);

/// Computes the attacked stable outcome of `q` into `result`, exactly as
/// compute_routing_into does. Throws std::invalid_argument on a malformed
/// query, unless routing_seed_applicable(q, deployment), or when
/// `baseline` (the outcome of {q.destination, kNoAs, q.model}) does not
/// match the graph's size.
void compute_routing_seeded_into(const AsGraph& g, const Query& q,
                                 const Deployment& deployment,
                                 EngineWorkspace& ws,
                                 const RoutingOutcome& baseline,
                                 RoutingOutcome& result);

/// Convenience: hysteresis outcome into ws.primary.
const RoutingOutcome& compute_routing_with_hysteresis(
    const AsGraph& g, const Query& q, const Deployment& deployment,
    EngineWorkspace& ws);

}  // namespace sbgp::routing

#endif  // SBGP_ROUTING_ENGINE_H
