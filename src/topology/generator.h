// Synthetic Internet-like AS topology generator.
//
// Substitute for the paper's empirical UCLA AS graph (24 Sep 2012; 39,056
// ASes). The generator reproduces the structural properties the paper's
// results depend on:
//   * a clique of provider-free Tier 1 ISPs with the largest customer cones;
//   * Tier 2 / Tier 3 ISP layers buying transit from above and peering
//     laterally;
//   * a small set of content providers with low customer degree but very
//     high peering degree;
//   * a mid-tier of small/medium ISPs (SMDG) with power-law customer
//     degrees grown by preferential attachment;
//   * ~85% stub ASes (no customers), a fraction of which peer (Stubs-x) and
//     a fraction of which are single- or multi-homed exclusively to Tier 1s
//     ("Tier 1 stubs", needed by Section 5.2.3);
//   * an acyclic customer->provider hierarchy and a connected graph.
//
// Generation is deterministic given `seed`.
#ifndef SBGP_TOPOLOGY_GENERATOR_H
#define SBGP_TOPOLOGY_GENERATOR_H

#include <cstdint>
#include <vector>

#include "topology/as_graph.h"
#include "topology/tier.h"
#include "topology/types.h"

namespace sbgp::topology {

/// Knobs for `generate_internet`. Defaults produce a ~10k-AS graph whose
/// tier proportions mirror Table 1.
struct GeneratorParams {
  std::uint32_t num_ases = 10'000;
  std::uint32_t num_tier1 = 13;
  std::uint32_t num_tier2 = 100;
  std::uint32_t num_tier3 = 100;
  std::uint32_t num_content_providers = 17;

  /// Fraction of all ASes that are stubs (no customers).
  double stub_fraction = 0.85;
  /// Fraction of stubs that also hold peer links (Stubs-x). Real AS graphs
  /// are peering-rich (the UCLA snapshot has almost as many peer links as
  /// customer-provider links), and the paper's security-2nd partitions
  /// hinge on LP-class asymmetries created by peer links toward transit.
  double stub_x_fraction = 0.25;
  /// Fraction of stubs homed exclusively to Tier 1 providers.
  double tier1_stub_fraction = 0.03;

  /// Lateral peering probabilities.
  double t2_peer_prob = 0.55;
  double t3_peer_prob = 0.12;
  double t2_t3_peer_prob = 0.15;
  /// Expected number of peer links per mid-tier (SMDG) AS.
  double smdg_mean_peers = 2.5;

  /// Content-provider peering probabilities towards T2 / T3 / other CPs.
  double cp_t2_peer_prob = 0.35;
  double cp_t3_peer_prob = 0.20;
  double cp_cp_peer_prob = 0.50;

  std::uint64_t seed = 20130812;  // default: the SIGCOMM'13 presentation date
};

/// A generated topology plus the ground-truth designations the generator
/// used (the classifier in tier.h recovers tiers from the graph alone; the
/// CP list plays the role of the paper's curated 17-AS list).
struct GeneratedTopology {
  AsGraph graph;
  std::vector<AsId> tier1;
  std::vector<AsId> tier2;
  std::vector<AsId> tier3;
  std::vector<AsId> content_providers;
  /// Per-trial pair-sampling salt, 0 for generated graphs (each trial's
  /// fresh graph already decorrelates samples). File-backed registry
  /// entries (topology/registry.h) reuse one fixed graph across trials and
  /// set this to the trial seed, so ExperimentResolver draws a different
  /// deterministic pair sample per trial.
  std::uint64_t sample_salt = 0;

  /// Classifies with the ground-truth CP list.
  [[nodiscard]] TierInfo classify() const {
    return classify_tiers(graph, content_providers);
  }
};

/// Builds the synthetic Internet. Throws std::invalid_argument if the
/// parameters are inconsistent (e.g. more designated ASes than num_ases).
[[nodiscard]] GeneratedTopology generate_internet(const GeneratorParams& params = {});

/// Convenience: a small graph (default 1000 ASes) for tests and examples.
[[nodiscard]] GeneratedTopology generate_small_internet(std::uint32_t num_ases = 1000,
                                                        std::uint64_t seed = 7);

}  // namespace sbgp::topology

#endif  // SBGP_TOPOLOGY_GENERATOR_H
