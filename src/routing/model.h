// Routing-policy models for S*BGP in partial deployment (Section 2.2).
//
// Every AS ranks candidate routes with the classic decision ladder
//   LP  local preference: customer > peer > provider
//   SP  shorter AS path
//   TB  intradomain tie break
// and secure ASes additionally apply
//   SecP  prefer a (fully) secure route over an insecure one
// at one of three positions, giving the paper's three models:
//   security 1st   SecP > LP > SP > TB
//   security 2nd   LP > SecP > SP > TB
//   security 3rd   LP > SP > SecP > TB
// plus the insecure baseline (origin authentication only, S = emptyset).
#ifndef SBGP_ROUTING_MODEL_H
#define SBGP_ROUTING_MODEL_H

#include <cstdint>
#include <string_view>
#include <vector>

#include "topology/types.h"
#include "util/as_set.h"

namespace sbgp::routing {

using topology::AsId;
using topology::kNoAs;

enum class SecurityModel : std::uint8_t {
  kInsecure = 0,       // baseline: SecP ignored everywhere
  kSecurityFirst = 1,  // SecP above LP
  kSecuritySecond = 2, // SecP between LP and SP
  kSecurityThird = 3,  // SecP between SP and TB
};

inline constexpr SecurityModel kAllSecurityModels[] = {
    SecurityModel::kSecurityFirst, SecurityModel::kSecuritySecond,
    SecurityModel::kSecurityThird};

[[nodiscard]] constexpr std::string_view to_string(SecurityModel m) noexcept {
  switch (m) {
    case SecurityModel::kInsecure: return "baseline";
    case SecurityModel::kSecurityFirst: return "security 1st";
    case SecurityModel::kSecuritySecond: return "security 2nd";
    case SecurityModel::kSecurityThird: return "security 3rd";
  }
  return "?";
}

/// Local-preference policy variant (Appendix K).
///
/// `kStandard` is the body-of-paper LP step. `kLpK` is the sensitivity
/// variant where short peer routes may beat longer customer routes: the
/// preference ladder interleaves customer/peer routes by length up to k,
/// then customer>k, peer>k, then providers.
struct LocalPrefPolicy {
  enum class Kind : std::uint8_t { kStandard, kLpK } kind = Kind::kStandard;
  std::uint16_t k = 2;  // only meaningful for kLpK

  [[nodiscard]] static LocalPrefPolicy standard() { return {}; }
  [[nodiscard]] static LocalPrefPolicy lp_k(std::uint16_t k) {
    return {Kind::kLpK, k};
  }
};

/// Position of a route's relationship class in the local-preference ladder
/// (lower is better). For the standard policy this is just customer(0) <
/// peer(1) < provider(2); for LPk it is Appendix K's interleaved ladder:
/// cust(1), peer(1), cust(2), peer(2), ..., cust(>k), peer(>k), provider.
[[nodiscard]] constexpr std::uint32_t lp_rung(const LocalPrefPolicy& lp,
                                              topology::Relation rel,
                                              std::size_t len) noexcept {
  if (lp.kind == LocalPrefPolicy::Kind::kStandard) {
    switch (rel) {
      case topology::Relation::kCustomer: return 0;
      case topology::Relation::kPeer: return 1;
      case topology::Relation::kProvider: return 2;
    }
    return 0xFFFF'FFFFu;
  }
  const std::uint32_t k = lp.k;
  const auto l32 = static_cast<std::uint32_t>(len);
  switch (rel) {
    case topology::Relation::kCustomer: return len <= k ? 2 * (l32 - 1) : 2 * k;
    case topology::Relation::kPeer: return len <= k ? 2 * (l32 - 1) + 1 : 2 * k + 1;
    case topology::Relation::kProvider: return 2 * k + 2;
  }
  return 0xFFFF'FFFFu;
}

/// Which ASes have deployed S*BGP, and how (Sections 2.2.2, 5.3.2).
///
/// `secure` ASes run full S*BGP: they sign, validate, and apply SecP.
/// `simplex` ASes run simplex S*BGP (intended for stubs): they sign their
/// own origin announcements so routes *to* them can be secure, but they do
/// not validate, so as sources they rank routes like insecure ASes.
struct Deployment {
  util::AsSet secure;
  util::AsSet simplex;

  Deployment() = default;
  explicit Deployment(std::size_t universe)
      : secure(universe), simplex(universe) {}

  /// Does `v` apply the SecP step / validate S*BGP announcements?
  [[nodiscard]] bool validates(AsId v) const noexcept {
    return secure.contains(v);
  }
  /// Can `v`'s *origin* announcement be the start of a secure route?
  [[nodiscard]] bool signs_origin(AsId v) const noexcept {
    return secure.contains(v) || simplex.contains(v);
  }
  /// Writes signs_origin(v) as one byte per AS v in [0, n) into `out`.
  void signers_into(std::size_t n, std::vector<std::uint8_t>& out) const {
    out.resize(n);
    for (AsId v = 0; v < n; ++v) out[v] = signs_origin(v) ? 1 : 0;
  }
};

/// One attack instance (Section 3.1): attacker m announces the bogus path
/// "m, d" via legacy BGP to all its neighbors. `attacker == kNoAs` models
/// normal conditions (no attack).
struct Query {
  AsId destination = kNoAs;
  AsId attacker = kNoAs;
  SecurityModel model = SecurityModel::kInsecure;

  [[nodiscard]] bool under_attack() const noexcept { return attacker != kNoAs; }
};

/// Relationship class of a chosen route (LP classes plus bookkeeping).
enum class RouteType : std::uint8_t {
  kNone = 0,      // no route (disconnected from both roots)
  kOrigin = 1,    // the node is d (or the attacker's bogus origin m)
  kCustomer = 2,  // learned from a customer
  kPeer = 3,      // learned from a peer
  kProvider = 4,  // learned from a provider
};

[[nodiscard]] constexpr std::string_view to_string(RouteType t) noexcept {
  switch (t) {
    case RouteType::kNone: return "none";
    case RouteType::kOrigin: return "origin";
    case RouteType::kCustomer: return "customer";
    case RouteType::kPeer: return "peer";
    case RouteType::kProvider: return "provider";
  }
  return "?";
}

/// Three-valued happiness of a source during an attack (Table 2), with the
/// tie-break ambiguity made explicit (Section 4.1): `kEither` sources sit
/// on the knife's edge where only intradomain tie-breaking decides.
enum class HappyStatus : std::uint8_t {
  kHappy = 0,         // every best route leads to the legitimate d
  kUnhappy = 1,       // every best route leads to the attacker m
  kEither = 2,        // depends on intradomain tie break
  kDisconnected = 3,  // no route at all
};

/// Deployment-invariant class of a source for one attack (Sections
/// 4.3-4.4, Appendix E; security/partition.h). Per-AS classes travel as
/// one byte each (LanePass::partition_into,
/// security::PartitionContext::classes_into).
enum class PartitionClass : std::uint8_t {
  kDoomed = 0,       // routes to m for every deployment S
  kProtectable = 1,  // the outcome depends on S
  kImmune = 2,       // routes to d for every deployment S
};

}  // namespace sbgp::routing

#endif  // SBGP_ROUTING_MODEL_H
