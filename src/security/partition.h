// Deployment-invariant partitions: doomed / protectable / immune
// (Sections 4.3-4.4, Appendix E).
//
// For a fixed (attacker m, destination d) every source AS falls into one of
// three classes *independently of which ASes deploy S*BGP*:
//   doomed       routes to m for every deployment S,
//   immune       routes to d for every deployment S,
//   protectable  the outcome depends on S.
// Averaging immune (resp. not-doomed) fractions over pairs yields the lower
// (resp. upper) bound on H_{M,D}(S) over *all* S — the paper's Figure 3.
//
// Classification needs only perceivable-route structure:
//   security 3rd  compare best (LP class, length) toward d vs m (Cor. E.1);
//   security 2nd  compare best LP class toward d vs m (Cor. E.2);
//   security 1st  exact cut tests: doomed iff every perceivable route to d
//                 passes through m; immune iff every perceivable route to m
//                 passes through d (Observations E.3/E.4 — the paper
//                 approximates "everyone protectable"; we compute both).
// The LPk local-preference variant (Appendix K) replaces the LP class with
// the interleaved customer/peer rung ladder.
#ifndef SBGP_SECURITY_PARTITION_H
#define SBGP_SECURITY_PARTITION_H

#include <cstdint>
#include <vector>

#include "routing/engine.h"
#include "routing/model.h"
#include "routing/reach.h"
#include "security/pair_outcomes.h"
#include "topology/as_graph.h"

namespace sbgp::security {

using routing::LocalPrefPolicy;
using routing::PartitionClass;
using routing::SecurityModel;
using topology::AsGraph;
using topology::AsId;

/// Fractions over sources; always sum to 1 (over |V| - 2 sources).
struct PartitionShares {
  double doomed = 0.0;
  double protectable = 0.0;
  double immune = 0.0;

  PartitionShares& operator+=(const PartitionShares& o) {
    doomed += o.doomed;
    protectable += o.protectable;
    immune += o.immune;
    return *this;
  }
  PartitionShares& operator/=(double k) {
    doomed /= k;
    protectable /= k;
    immune /= k;
    return *this;
  }
};

/// Per-source classes for the pair (m, d). Entries for d and m themselves
/// are kImmune / kDoomed placeholders and excluded from share counts.
/// Sources that cannot perceivably reach either root are classified doomed
/// (they can never be happy). For kSecurityFirst the exact tests are used.
/// The baseline model (kInsecure) is rejected: partitions are only defined
/// for the three S*BGP models.
[[nodiscard]] std::vector<PartitionClass> classify_sources(
    const AsGraph& g, AsId d, AsId m, SecurityModel model,
    LocalPrefPolicy lp = LocalPrefPolicy::standard());

/// Aggregates a per-source classification into fractions (excluding d, m).
[[nodiscard]] PartitionShares to_shares(const std::vector<PartitionClass>& cls,
                                        AsId d, AsId m);

/// Convenience: classify + aggregate.
[[nodiscard]] PartitionShares partition_shares(
    const AsGraph& g, AsId d, AsId m, SecurityModel model,
    LocalPrefPolicy lp = LocalPrefPolicy::standard());

/// Integer class counts over sources — the exact (associative) form of
/// PartitionShares that batch sweeps accumulate per worker so merged
/// results are bit-for-bit independent of the thread count.
struct PartitionCounts {
  std::size_t doomed = 0;
  std::size_t protectable = 0;
  std::size_t immune = 0;
  std::size_t sources = 0;

  PartitionCounts& operator+=(const PartitionCounts& o) {
    doomed += o.doomed;
    protectable += o.protectable;
    immune += o.immune;
    sources += o.sources;
    return *this;
  }
  /// Adds `w` copies of `o` — traffic-weighted accumulation (sim/traffic.h).
  PartitionCounts& add_scaled(const PartitionCounts& o, std::uint64_t w) {
    doomed += o.doomed * w;
    protectable += o.protectable * w;
    immune += o.immune * w;
    sources += o.sources * w;
    return *this;
  }
  [[nodiscard]] bool operator==(const PartitionCounts&) const = default;

  [[nodiscard]] PartitionShares shares() const {
    PartitionShares s;
    if (sources == 0) return s;
    const auto n = static_cast<double>(sources);
    s.doomed = static_cast<double>(doomed) / n;
    s.protectable = static_cast<double>(protectable) / n;
    s.immune = static_cast<double>(immune) / n;
    return s;
  }
};

/// Deployment-invariant classification state for one (m, d) pair, built
/// into a caller-provided EngineWorkspace (no allocation in steady state).
/// Construction runs the model's invariant computation once (baseline
/// stable state for security 2nd/3rd; two exclusion reachability passes for
/// security 1st); individual sources are then classified in O(deg(v)).
///
/// The fused pipeline takes its classes from the lane pass
/// (routing::LanePass::partition) and builds a PartitionContext per pair
/// only for an LP-k ladder under security 2nd/3rd; elsewhere this class is
/// the scalar reference the lane classes are tested against.
class PartitionContext {
 public:
  /// Throws std::invalid_argument on a bad (d, m) pair or the kInsecure
  /// model (partitions are only defined for the S*BGP models).
  PartitionContext(const AsGraph& g, AsId d, AsId m, SecurityModel model,
                   LocalPrefPolicy lp, routing::EngineWorkspace& ws);

  [[nodiscard]] PartitionClass classify(AsId v) const;

  /// Writes classify(v) of every AS v as one byte into `out`, resized to
  /// the graph's AS count — the PairOutcomes::partition view.
  void classes_into(std::vector<std::uint8_t>& out) const;

  /// Classifies every source and aggregates the integer counts.
  [[nodiscard]] PartitionCounts counts() const;

 private:
  const AsGraph& g_;
  AsId d_;
  AsId m_;
  SecurityModel model_;
  LocalPrefPolicy lp_;
  // Security 2nd/3rd: the S = emptyset stable state (ws.baseline).
  const routing::RoutingOutcome* base_ = nullptr;
  // Security 1st: exclusion reachability (ws.reach_d / ws.reach_m).
  const routing::PerceivableDistances* to_d_avoiding_m_ = nullptr;
  const routing::PerceivableDistances* to_m_avoiding_d_ = nullptr;
};

/// Fused-pipeline entry point: counts the class bytes of po.partition over
/// every source and adds them to `acc`.
void accumulate_into(const PairOutcomes& po, PartitionCounts& acc);

}  // namespace sbgp::security

#endif  // SBGP_SECURITY_PARTITION_H
