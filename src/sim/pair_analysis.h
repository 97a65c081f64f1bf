// Fused per-pair analysis pipeline.
//
// The paper's evaluation derives many statistics — happiness bounds
// (Figures 4-12), partition shares (Figures 3, 6), protocol downgrades
// (Figure 13), collateral flips and root causes (Table 3, Figure 16) —
// from the *same* stable routing outcomes of each (attacker, destination,
// deployment, model) instance. Running each analysis standalone pays for
// the routing engine up to four times per pair; the fused pipeline computes
// every needed outcome exactly once per pair (into a worker's
// EngineWorkspace slots) and feeds all selected analyses from it via their
// security::accumulate_into entry points.
//
// Engine computations per pair, all five analyses:
//   standalone  happiness 1 + partitions 1 + downgrades 3 + collateral 2
//               + root causes 3 = 10 full engine runs
//   fused       a share of one lane pass (routing/lanes.h) per chunk of up
//               to 31 attackers, which yields every attacker's attacked
//               state under S (secure stages included) and under
//               S = emptyset, the normal outcome {d, kNoAs, model} in its
//               reserved lane, and every attacker's partition classes.
//               Only hysteresis runs the scalar engine: the normal outcome
//               once per chunk, and per pair the attacked state under S.
//               Only LP-k partitions under security 2nd/3rd build a
//               PartitionContext per pair.
//
// The analyses read outcomes as flag views (security/pair_outcomes.h): one
// byte per AS, filled from a scalar RoutingOutcome or from one lane of the
// lane pass. Each analysis is one branch-free loop over those bytes.
//
// Scheduling is destination-grouped: a SweepPlan organizes the pairs as
// DestinationGroup units, and analyze_sweep and run_campaign both split
// plans with append_sweep_units and hand workers the same SweepUnit — one
// destination with a chunk of at most routing::kMaxLaneAttackers of its
// attackers, split evenly — through accumulate_unit_into. Every chunk is
// self-contained: no state carries over from one unit to the next.
//
// Determinism contract: PairStats is all integers, so per-worker partials
// merge to bit-for-bit identical totals for any thread count (see
// BatchExecutor), and group-wise merging yields exactly the flat sweep's
// totals.
#ifndef SBGP_SIM_PAIR_ANALYSIS_H
#define SBGP_SIM_PAIR_ANALYSIS_H

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "routing/lanes.h"
#include "routing/model.h"
#include "security/collateral.h"
#include "security/downgrade.h"
#include "security/happiness.h"
#include "security/partition.h"
#include "security/rootcause.h"
#include "sim/traffic.h"
#include "topology/as_graph.h"

namespace sbgp::routing {
class EngineWorkspace;
}  // namespace sbgp::routing

namespace sbgp::sim {

using routing::AsId;
using routing::Deployment;
using routing::LocalPrefPolicy;
using routing::SecurityModel;
using topology::AsGraph;

class BatchExecutor;

/// One per-pair analysis of the paper's evaluation.
enum class Analysis : std::uint8_t {
  kHappiness = 1u << 0,   // happy-source bounds (Section 4.1)
  kPartitions = 1u << 1,  // doomed/protectable/immune (Sections 4.3-4.4)
  kDowngrades = 1u << 2,  // protocol downgrades (Section 5.3.1)
  kCollateral = 1u << 3,  // collateral benefits/damages (Section 6.1)
  kRootCause = 1u << 4,   // root-cause decomposition (Section 6.2)
};

/// Bitmask of analyses to fuse over one routing computation per pair.
class AnalysisSet {
 public:
  constexpr AnalysisSet() = default;
  constexpr AnalysisSet(Analysis a)  // NOLINT: implicit by design
      : bits_(static_cast<std::uint8_t>(a)) {}

  [[nodiscard]] static constexpr AnalysisSet all() {
    return AnalysisSet(Analysis::kHappiness) | Analysis::kPartitions |
           Analysis::kDowngrades | Analysis::kCollateral | Analysis::kRootCause;
  }

  [[nodiscard]] constexpr bool contains(Analysis a) const {
    return (bits_ & static_cast<std::uint8_t>(a)) != 0;
  }
  [[nodiscard]] constexpr bool intersects(AnalysisSet o) const {
    return (bits_ & o.bits_) != 0;
  }
  [[nodiscard]] constexpr bool empty() const { return bits_ == 0; }

  [[nodiscard]] constexpr AnalysisSet operator|(AnalysisSet o) const {
    AnalysisSet s;
    s.bits_ = bits_ | o.bits_;
    return s;
  }
  constexpr AnalysisSet& operator|=(AnalysisSet o) {
    bits_ |= o.bits_;
    return *this;
  }
  [[nodiscard]] constexpr bool operator==(const AnalysisSet&) const = default;

 private:
  std::uint8_t bits_ = 0;
};

[[nodiscard]] constexpr AnalysisSet operator|(Analysis a, Analysis b) {
  return AnalysisSet(a) | AnalysisSet(b);
}

/// False if `analyses` select partitions or downgrades under the insecure
/// model, where neither is defined (both compare S*BGP deployments).
[[nodiscard]] constexpr bool partitions_defined(SecurityModel model,
                                                AnalysisSet analyses) {
  return model != SecurityModel::kInsecure ||
         !analyses.intersects(Analysis::kPartitions | Analysis::kDowngrades);
}

/// What to compute for every pair. The deployment is passed separately so
/// one config can sweep many deployments.
struct PairAnalysisConfig {
  AnalysisSet analyses;
  SecurityModel model = SecurityModel::kSecurityThird;
  /// LP ladder for the *partition* analysis only (Appendix K); the routing
  /// engine and the downgrade immunity check always use the standard
  /// ladder, matching the standalone analyses.
  LocalPrefPolicy lp = LocalPrefPolicy::standard();
  /// Section 8 extension: compute the under-attack outcome with sticky
  /// secure routes (compute_routing_with_hysteresis).
  bool hysteresis = false;
};

/// Accumulated statistics of every analysis over a set of pairs. Only the
/// members of the selected analyses are populated; all counters are exact
/// integers, so merging per-worker partials is thread-count-independent.
///
/// Every analysis is accumulated twice: the classic pair-counted totals
/// and a traffic-weighted mirror (w_*) where each pair contributes its
/// sim/traffic.h weight-many copies. `weight` is the sum of pair weights —
/// the weighted analogue of `pairs`. Under a weight-1 model the mirrors
/// are bit-for-bit copies of the unweighted counters.
struct PairStats {
  std::size_t pairs = 0;
  security::HappyTotals happiness;
  security::PartitionCounts partitions;
  security::DowngradeStats downgrades;
  security::CollateralStats collateral;
  security::RootCauseStats root_causes;

  std::size_t weight = 0;  // sum of pair weights
  security::HappyTotals w_happiness;
  security::PartitionCounts w_partitions;
  security::DowngradeStats w_downgrades;
  security::CollateralStats w_collateral;
  security::RootCauseStats w_root_causes;

  PairStats& operator+=(const PairStats& o) {
    pairs += o.pairs;
    happiness += o.happiness;
    partitions += o.partitions;
    downgrades += o.downgrades;
    collateral += o.collateral;
    root_causes += o.root_causes;
    weight += o.weight;
    w_happiness += o.w_happiness;
    w_partitions += o.w_partitions;
    w_downgrades += o.w_downgrades;
    w_collateral += o.w_collateral;
    w_root_causes += o.w_root_causes;
    return *this;
  }
  [[nodiscard]] bool operator==(const PairStats&) const = default;
};

/// All attackers targeting one destination — the scheduling unit of
/// analyze_sweep. Attackers never contain the destination itself.
struct DestinationGroup {
  AsId destination = routing::kNoAs;
  std::size_t dest_index = 0;  // index in the sampled destination set
  std::vector<AsId> attackers;
  /// Per-pair traffic weights, parallel to `attackers`. Empty means every
  /// pair weighs 1 (the classic unweighted sweep); otherwise the size must
  /// match `attackers` (analyze_sweep throws on a mismatch).
  std::vector<std::uint64_t> weights;
};

/// A pair sweep, grouped by destination. Groups keep the destination
/// set's order (one group per destination, possibly with no attackers
/// left after the == skip) so per-destination results align with the
/// original sample.
struct SweepPlan {
  std::vector<DestinationGroup> groups;

  [[nodiscard]] std::size_t num_pairs() const {
    std::size_t n = 0;
    for (const auto& grp : groups) n += grp.attackers.size();
    return n;
  }
};

/// Groups attackers x destinations by destination, skipping
/// attacker == destination instances. Throws std::invalid_argument if
/// either set is empty or no valid pair remains.
[[nodiscard]] SweepPlan make_sweep_plan(const std::vector<AsId>& attackers,
                                        const std::vector<AsId>& destinations);

/// Traffic-weighted variant: additionally fills each group's `weights` with
/// pair_weight(traffic, attacker, destination). When the model is trivial
/// (uniform, scale 1) the weights stay empty, so the plan — and everything
/// downstream — is bit-for-bit the unweighted plan. Throws
/// std::invalid_argument on an invalid traffic model or an empty pair set.
[[nodiscard]] SweepPlan make_sweep_plan(const std::vector<AsId>& attackers,
                                        const std::vector<AsId>& destinations,
                                        const TrafficModel& traffic);

/// Mints a fresh sweep-context token (process-wide, never 0, never
/// reused). accumulate_pair_into's token-taking overload ignores it; both
/// remain only for the benchmark's traced replay (benchmark/sbgp_bench.cc)
/// and go with it.
[[nodiscard]] std::uint64_t next_sweep_context();

/// Runs every selected analysis for each pair (attackers[k] on d), computing
/// the group's outcomes into `ws` — every attacked state the lane pass
/// admits, and the normal outcome, in one pass — and adds the results to
/// `acc`.
/// Pair k contributes `weights[k]` copies of its counts to the w_* mirrors
/// (and to acc.weight); an empty `weights` means weight 1 for every pair,
/// where the mirrors equal the unweighted counters.
///
/// Requires a non-empty analysis set, at most routing::kMaxLaneAttackers
/// attackers, none equal to d, `weights` empty or parallel to `attackers`,
/// and no partition or downgrade analysis under SecurityModel::kInsecure
/// (throws std::invalid_argument otherwise). An empty attacker list adds
/// nothing. Results are bit-for-bit independent of how a destination's
/// attackers are chunked.
void accumulate_group_into(const AsGraph& g, AsId d,
                           std::span<const AsId> attackers,
                           std::span<const std::uint64_t> weights,
                           const PairAnalysisConfig& cfg,
                           const Deployment& dep, routing::EngineWorkspace& ws,
                           PairStats& acc);

/// The single pair (m on d) with traffic weight `weight`: a group of one
/// (accumulate_group_into). `sweep_context` is ignored (see
/// next_sweep_context). Throws std::invalid_argument if d == m or the
/// analysis set is empty.
void accumulate_pair_into(const AsGraph& g, AsId d, AsId m,
                          const PairAnalysisConfig& cfg, const Deployment& dep,
                          routing::EngineWorkspace& ws,
                          std::uint64_t sweep_context, std::uint64_t weight,
                          PairStats& acc);

/// Unit-weight overload.
inline void accumulate_pair_into(const AsGraph& g, AsId d, AsId m,
                                 const PairAnalysisConfig& cfg,
                                 const Deployment& dep,
                                 routing::EngineWorkspace& ws,
                                 PairStats& acc) {
  accumulate_pair_into(g, d, m, cfg, dep, ws, 0, 1, acc);
}

/// The scheduling unit of a destination-grouped sweep: attackers
/// [begin, end) of group `group` — one lane pass. `sweep` tags the plan
/// the unit belongs to when one submission runs several (a campaign wave
/// runs one plan per cell); analyze_sweep tags its plan 0.
struct SweepUnit {
  std::size_t sweep = 0;
  std::size_t group = 0;
  std::size_t begin = 0;
  std::size_t end = 0;
};

/// Appends `plan`'s units, tagged `sweep`, to `units`: each group split
/// into as few chunks of at most routing::kMaxLaneAttackers attackers as
/// it needs, evenly so the chunks of a group cost alike, in group order.
/// Attacker-less groups add no unit.
void append_sweep_units(const SweepPlan& plan, std::size_t sweep,
                        std::vector<SweepUnit>& units);

/// Runs one unit of `plan`: accumulate_group_into over the unit's
/// attackers and their weights (if the group has any).
void accumulate_unit_into(const AsGraph& g, const SweepPlan& plan,
                          const SweepUnit& unit, const PairAnalysisConfig& cfg,
                          const Deployment& dep, routing::EngineWorkspace& ws,
                          PairStats& acc);

/// Worker cap / executor choice for a batch call (shared by the fused
/// pipeline, the experiment suite and the campaign driver).
struct RunnerOptions {
  /// Worker cap for this call: 0 = every worker of the executor. (Results
  /// are bit-for-bit independent of this value — batch calls accumulate
  /// per-worker integer partials and merge them deterministically.)
  std::size_t threads = 0;
  /// Executor to run on; nullptr = the process-wide BatchExecutor::shared().
  /// Workers and their routing workspaces persist across calls.
  BatchExecutor* executor = nullptr;
};

/// Result of one destination-grouped sweep. `per_destination[i]` holds the
/// merged stats of plan.groups[i] (zero-valued for attacker-less groups);
/// `total` is their sum, bit-for-bit equal to the historical flat sweep.
struct SweepResult {
  PairStats total;
  std::vector<PairStats> per_destination;
};

/// Fused destination-grouped sweep on a BatchExecutor: runs the plan's
/// append_sweep_units units through accumulate_unit_into. Results are
/// bit-for-bit independent of thread count, chunking and group order.
/// Throws std::invalid_argument on an empty plan, a pair-less plan, or a
/// group whose attackers contain its own destination.
[[nodiscard]] SweepResult analyze_sweep(const AsGraph& g,
                                        const SweepPlan& plan,
                                        const PairAnalysisConfig& cfg,
                                        const Deployment& dep,
                                        const RunnerOptions& opts = {});

}  // namespace sbgp::sim

#endif  // SBGP_SIM_PAIR_ANALYSIS_H
