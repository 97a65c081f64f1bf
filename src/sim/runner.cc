#include "sim/runner.h"

#include <algorithm>

#include "util/rng.h"

namespace sbgp::sim {

std::vector<AsId> sample_ases(const std::vector<AsId>& pool,
                              std::size_t max_count, std::uint64_t seed) {
  util::Rng rng(seed);
  const auto n = static_cast<std::uint32_t>(pool.size());
  const auto k =
      static_cast<std::uint32_t>(std::min<std::size_t>(max_count, n));
  std::vector<AsId> out;
  out.reserve(k);
  for (const auto idx : rng.sample_without_replacement(n, k)) {
    out.push_back(pool[idx]);
  }
  return out;
}

std::vector<AsId> all_ases(const AsGraph& g) {
  std::vector<AsId> out(g.num_ases());
  for (AsId v = 0; v < g.num_ases(); ++v) out[v] = v;
  return out;
}

std::vector<AsId> non_stub_ases(const AsGraph& g) {
  std::vector<AsId> out;
  for (AsId v = 0; v < g.num_ases(); ++v) {
    if (!g.is_stub(v)) out.push_back(v);
  }
  return out;
}

MetricBounds estimate_metric(const AsGraph& g,
                             const std::vector<AsId>& attackers,
                             const std::vector<AsId>& destinations,
                             SecurityModel model, const Deployment& dep,
                             const RunnerOptions& opts) {
  // Every pair has the same source count (|V| - 2), so the mean of per-pair
  // happy fractions equals total happy counts over total sources — which
  // the fused pipeline accumulates exactly, in integers.
  PairAnalysisConfig cfg;
  cfg.analyses = Analysis::kHappiness;
  cfg.model = model;
  return analyze_sweep(g, make_sweep_plan(attackers, destinations), cfg, dep,
                       opts)
      .total.happiness.bounds();
}

std::vector<MetricBounds> metric_per_destination(
    const AsGraph& g, const std::vector<AsId>& attackers,
    const std::vector<AsId>& destinations, SecurityModel model,
    const Deployment& dep, const RunnerOptions& opts) {
  PairAnalysisConfig cfg;
  cfg.analyses = Analysis::kHappiness;
  cfg.model = model;
  const auto result =
      analyze_sweep(g, make_sweep_plan(attackers, destinations), cfg, dep,
                    opts);
  std::vector<MetricBounds> out(result.per_destination.size());
  for (std::size_t di = 0; di < result.per_destination.size(); ++di) {
    out[di] = result.per_destination[di].happiness.bounds();
  }
  return out;
}

PartitionShares average_partitions(const AsGraph& g,
                                   const std::vector<AsId>& attackers,
                                   const std::vector<AsId>& destinations,
                                   SecurityModel model, LocalPrefPolicy lp,
                                   const RunnerOptions& opts) {
  PairAnalysisConfig cfg;
  cfg.analyses = Analysis::kPartitions;
  cfg.model = model;
  cfg.lp = lp;
  // Partitions are deployment-invariant; the empty deployment is a
  // placeholder the analysis never reads.
  return analyze_sweep(g, make_sweep_plan(attackers, destinations), cfg,
                       Deployment(g.num_ases()), opts)
      .total.partitions.shares();
}

security::DowngradeStats total_downgrades(const AsGraph& g,
                                          const std::vector<AsId>& attackers,
                                          const std::vector<AsId>& destinations,
                                          SecurityModel model,
                                          const Deployment& dep,
                                          const RunnerOptions& opts) {
  PairAnalysisConfig cfg;
  cfg.analyses = Analysis::kDowngrades;
  cfg.model = model;
  return analyze_sweep(g, make_sweep_plan(attackers, destinations), cfg, dep,
                       opts)
      .total.downgrades;
}

security::RootCauseStats total_root_causes(const AsGraph& g,
                                           const std::vector<AsId>& attackers,
                                           const std::vector<AsId>& destinations,
                                           SecurityModel model,
                                           const Deployment& dep,
                                           const RunnerOptions& opts) {
  PairAnalysisConfig cfg;
  cfg.analyses = Analysis::kRootCause;
  cfg.model = model;
  return analyze_sweep(g, make_sweep_plan(attackers, destinations), cfg, dep,
                       opts)
      .total.root_causes;
}

}  // namespace sbgp::sim
