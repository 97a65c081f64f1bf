// Experiment runners: estimate the paper's aggregate quantities by
// averaging per-(attacker, destination) analyses over sampled pairs.
//
// The paper evaluates over all |V|^2 pairs on a supercomputer; we sample
// deterministically (seeded) from the chosen attacker set M and destination
// set D — the metric is a mean over pairs, so a few thousand samples
// estimate it tightly. Every runner is a thin wrapper over the fused
// destination-grouped sweep (sim/pair_analysis.h's analyze_sweep) with a
// single analysis selected: it executes on a sim::BatchExecutor (persistent
// workers, reusable per-worker routing workspaces with per-destination
// baseline caching) and merges per-worker integer partial sums, so results
// are bit-for-bit independent of the thread count. Studies that need
// several statistics per pair should call analyze_sweep or
// run_experiment_suite directly instead of several runners — the fused
// pass computes each routing outcome once however many analyses are on.
#ifndef SBGP_SIM_RUNNER_H
#define SBGP_SIM_RUNNER_H

#include <cstdint>
#include <vector>

#include "routing/engine.h"
#include "routing/model.h"
#include "security/downgrade.h"
#include "security/happiness.h"
#include "security/partition.h"
#include "security/rootcause.h"
#include "sim/pair_analysis.h"
#include "topology/as_graph.h"

namespace sbgp::sim {

using security::MetricBounds;
using security::PartitionShares;

/// Deterministically samples up to `max_count` ASes from `pool` (the whole
/// pool, shuffled, if it is smaller).
[[nodiscard]] std::vector<AsId> sample_ases(const std::vector<AsId>& pool,
                                            std::size_t max_count,
                                            std::uint64_t seed);

/// All ASes [0, n).
[[nodiscard]] std::vector<AsId> all_ases(const AsGraph& g);

/// Non-stub ASes — the attacker set M' of Section 5.2 (stubs are assumed
/// to be stopped by prefix filtering).
[[nodiscard]] std::vector<AsId> non_stub_ases(const AsGraph& g);

/// H_{M,D}(S): average fraction of happy sources over attackers x
/// destinations, with tie-break lower/upper bounds (Section 4.1).
[[nodiscard]] MetricBounds estimate_metric(const AsGraph& g,
                                           const std::vector<AsId>& attackers,
                                           const std::vector<AsId>& destinations,
                                           SecurityModel model,
                                           const Deployment& dep,
                                           const RunnerOptions& opts = {});

/// H_{M,d}(S) for each destination d (averaged over the attackers only).
[[nodiscard]] std::vector<MetricBounds> metric_per_destination(
    const AsGraph& g, const std::vector<AsId>& attackers,
    const std::vector<AsId>& destinations, SecurityModel model,
    const Deployment& dep, const RunnerOptions& opts = {});

/// Average doomed/protectable/immune shares over pairs (Figure 3 bars).
[[nodiscard]] PartitionShares average_partitions(
    const AsGraph& g, const std::vector<AsId>& attackers,
    const std::vector<AsId>& destinations, SecurityModel model,
    LocalPrefPolicy lp = LocalPrefPolicy::standard(),
    const RunnerOptions& opts = {});

/// Aggregate downgrade statistics over pairs (Figures 13, 16).
[[nodiscard]] security::DowngradeStats total_downgrades(
    const AsGraph& g, const std::vector<AsId>& attackers,
    const std::vector<AsId>& destinations, SecurityModel model,
    const Deployment& dep, const RunnerOptions& opts = {});

/// Aggregate root-cause decomposition over pairs (Figure 16).
[[nodiscard]] security::RootCauseStats total_root_causes(
    const AsGraph& g, const std::vector<AsId>& attackers,
    const std::vector<AsId>& destinations, SecurityModel model,
    const Deployment& dep, const RunnerOptions& opts = {});

}  // namespace sbgp::sim

#endif  // SBGP_SIM_RUNNER_H
