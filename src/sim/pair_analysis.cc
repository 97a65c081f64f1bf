#include "sim/pair_analysis.h"

#include <algorithm>
#include <atomic>
#include <span>
#include <stdexcept>
#include <utility>

#include "routing/workspace.h"
#include "security/pair_outcomes.h"
#include "sim/batch_executor.h"

namespace sbgp::sim {

namespace {

// Which outcome slots each analysis reads (see security/pair_outcomes.h).
constexpr AnalysisSet kNeedsAttacked =
    Analysis::kHappiness | Analysis::kDowngrades | Analysis::kCollateral |
    Analysis::kRootCause;
constexpr AnalysisSet kNeedsNormal =
    Analysis::kDowngrades | Analysis::kRootCause;
constexpr AnalysisSet kNeedsAttackedEmpty =
    Analysis::kCollateral | Analysis::kRootCause;

}  // namespace

SweepPlan make_sweep_plan(const std::vector<AsId>& attackers,
                          const std::vector<AsId>& destinations) {
  if (attackers.empty() || destinations.empty()) {
    throw std::invalid_argument(
        "make_sweep_plan: empty attacker/destination set");
  }
  SweepPlan plan;
  plan.groups.reserve(destinations.size());
  std::size_t pairs = 0;
  for (std::size_t di = 0; di < destinations.size(); ++di) {
    DestinationGroup grp;
    grp.destination = destinations[di];
    grp.dest_index = di;
    grp.attackers.reserve(attackers.size());
    for (const AsId m : attackers) {
      if (m != destinations[di]) grp.attackers.push_back(m);
    }
    pairs += grp.attackers.size();
    plan.groups.push_back(std::move(grp));
  }
  if (pairs == 0) {
    throw std::invalid_argument(
        "make_sweep_plan: every attacker equals every destination");
  }
  return plan;
}

SweepPlan make_sweep_plan(const std::vector<AsId>& attackers,
                          const std::vector<AsId>& destinations,
                          const TrafficModel& traffic) {
  validate_traffic_model(traffic);
  SweepPlan plan = make_sweep_plan(attackers, destinations);
  if (traffic.is_trivial()) return plan;
  for (auto& grp : plan.groups) {
    grp.weights.reserve(grp.attackers.size());
    for (const AsId m : grp.attackers) {
      grp.weights.push_back(pair_weight(traffic, m, grp.destination));
    }
  }
  return plan;
}

std::uint64_t next_sweep_context() {
  static std::atomic<std::uint64_t> counter{0};
  return counter.fetch_add(1, std::memory_order_relaxed) + 1;
}

void accumulate_group_into(const AsGraph& g, AsId d,
                           std::span<const AsId> attackers,
                           std::span<const std::uint64_t> weights,
                           const PairAnalysisConfig& cfg,
                           const Deployment& dep, routing::EngineWorkspace& ws,
                           PairStats& acc) {
  if (cfg.analyses.empty()) {
    throw std::invalid_argument("accumulate_group_into: empty analysis set");
  }
  if (attackers.size() > routing::kMaxLaneAttackers) {
    throw std::invalid_argument(
        "accumulate_group_into: more attackers than lanes");
  }
  if (!weights.empty() && weights.size() != attackers.size()) {
    throw std::invalid_argument(
        "accumulate_group_into: weights do not match the attackers");
  }
  for (const AsId m : attackers) {
    if (m == d) {
      throw std::invalid_argument(
          "accumulate_group_into: attacker == destination");
    }
  }
  if (!partitions_defined(cfg.model, cfg.analyses)) {
    throw std::invalid_argument(
        "accumulate_group_into: partitions and downgrades are defined for "
        "S*BGP models only");
  }
  if (attackers.empty()) return;

  const bool wants_attacked = cfg.analyses.intersects(kNeedsAttacked);
  const bool wants_normal = cfg.analyses.intersects(kNeedsNormal);
  const bool wants_empty = cfg.analyses.intersects(kNeedsAttackedEmpty);
  const bool wants_partitions = cfg.analyses.contains(Analysis::kPartitions);
  const bool wants_downgrades = cfg.analyses.contains(Analysis::kDowngrades);
  // Partition classes come from the lane pass under the standard ladder
  // (which security 1st never reads). Only an LP-k ladder under security
  // 2nd/3rd builds a PartitionContext per pair; downgrades always read the
  // standard classes (matching analyze_downgrades).
  const bool ladder_partitions =
      wants_partitions && cfg.lp.kind != LocalPrefPolicy::Kind::kStandard &&
      cfg.model != SecurityModel::kSecurityFirst;
  const bool lane_classes =
      wants_downgrades || (wants_partitions && !ladder_partitions);

  // Collateral and root cause, the analyses that read the S = emptyset
  // state, also read which ASes sign.
  if (wants_empty) dep.signers_into(g.num_ases(), ws.signer_flags);

  // One lane pass serves every attacked state but hysteresis — under S and
  // under S = emptyset — the normal outcome {d, kNoAs, model} in its
  // reserved lane, and the partition classes. A pass run only for the
  // S = emptyset state uses the insecure model.
  const bool attacked_in_lanes = wants_attacked && !cfg.hysteresis;
  if (attacked_in_lanes || wants_empty || lane_classes) {
    ws.lanes.run(g, d, attackers,
                 attacked_in_lanes ? cfg.model : SecurityModel::kInsecure, dep);
    if (lane_classes) ws.lanes.partition(cfg.model);
  }
  // Hysteresis pins routes of the pre-attack state, so it computes the
  // normal outcome with the scalar engine, once per group. Otherwise the
  // analyses that read the normal outcome (downgrades, root causes) also
  // read the attacked state, so the pass ran under cfg.model and its normal
  // lane holds it.
  if (wants_attacked && cfg.hysteresis) {
    routing::compute_routing_into(g, {d, routing::kNoAs, cfg.model}, dep, ws,
                                  ws.normal);
    if (wants_normal) ws.normal.flags_into(ws.normal_flags);
  } else if (wants_normal) {
    ws.lanes.normal_flags_into(ws.normal_flags);
  }

  for (std::size_t k = 0; k < attackers.size(); ++k) {
    const AsId m = attackers[k];
    const std::uint64_t weight = weights.empty() ? 1 : weights[k];
    ++acc.pairs;
    acc.weight += weight;

    security::PairOutcomes po;
    po.d = d;
    po.m = m;
    po.signers = ws.signer_flags;
    if (wants_attacked) {
      if (attacked_in_lanes) {
        ws.lanes.flags_into(k, routing::LanePass::View::kDeployment,
                            ws.attacked_flags);
      } else {
        routing::compute_routing_with_hysteresis_into(
            g, {d, m, cfg.model}, dep, ws, ws.normal, ws.primary);
        ws.primary.flags_into(ws.attacked_flags);
      }
      po.attacked = ws.attacked_flags;
    }
    if (wants_normal) po.normal = ws.normal_flags;
    if (wants_empty) {
      ws.lanes.flags_into(k, routing::LanePass::View::kEmpty, ws.empty_flags);
      po.attacked_empty = ws.empty_flags;
    }
    if (lane_classes) ws.lanes.partition_into(k, ws.partition_classes);

    if (wants_partitions) {
      if (ladder_partitions) {
        security::PartitionContext(g, d, m, cfg.model, cfg.lp, ws)
            .classes_into(ws.ladder_classes);
        po.partition = ws.ladder_classes;
      } else {
        po.partition = ws.partition_classes;
      }
      security::PartitionCounts local;
      security::accumulate_into(po, local);
      acc.partitions += local;
      acc.w_partitions.add_scaled(local, weight);
    }
    if (cfg.analyses.contains(Analysis::kHappiness)) {
      security::HappyTotals local;
      security::accumulate_into(po, local);
      acc.happiness += local;
      acc.w_happiness.add_scaled(local, weight);
    }
    if (wants_downgrades) {
      po.partition = ws.partition_classes;
      security::DowngradeStats local;
      security::accumulate_into(po, local);
      acc.downgrades += local;
      acc.w_downgrades.add_scaled(local, weight);
    }
    if (cfg.analyses.contains(Analysis::kCollateral)) {
      security::CollateralStats local;
      security::accumulate_into(po, local);
      acc.collateral += local;
      acc.w_collateral.add_scaled(local, weight);
    }
    if (cfg.analyses.contains(Analysis::kRootCause)) {
      security::RootCauseStats local;
      security::accumulate_into(po, local);
      acc.root_causes += local;
      acc.w_root_causes.add_scaled(local, weight);
    }
  }
}

void accumulate_pair_into(const AsGraph& g, AsId d, AsId m,
                          const PairAnalysisConfig& cfg, const Deployment& dep,
                          routing::EngineWorkspace& ws,
                          std::uint64_t /*sweep_context*/, std::uint64_t weight,
                          PairStats& acc) {
  accumulate_group_into(g, d, std::span<const AsId>(&m, 1),
                        std::span<const std::uint64_t>(&weight, 1), cfg, dep,
                        ws, acc);
}

void append_sweep_units(const SweepPlan& plan, std::size_t sweep,
                        std::vector<SweepUnit>& units) {
  for (std::size_t gi = 0; gi < plan.groups.size(); ++gi) {
    const std::size_t count = plan.groups[gi].attackers.size();
    const std::size_t chunks =
        (count + routing::kMaxLaneAttackers - 1) / routing::kMaxLaneAttackers;
    for (std::size_t j = 0; j < chunks; ++j) {
      units.push_back(
          {sweep, gi, count * j / chunks, count * (j + 1) / chunks});
    }
  }
}

void accumulate_unit_into(const AsGraph& g, const SweepPlan& plan,
                          const SweepUnit& unit, const PairAnalysisConfig& cfg,
                          const Deployment& dep, routing::EngineWorkspace& ws,
                          PairStats& acc) {
  const DestinationGroup& grp = plan.groups[unit.group];
  const std::size_t len = unit.end - unit.begin;
  const std::span<const std::uint64_t> weights(grp.weights);
  accumulate_group_into(
      g, grp.destination,
      std::span<const AsId>(grp.attackers).subspan(unit.begin, len),
      weights.empty() ? weights : weights.subspan(unit.begin, len), cfg, dep,
      ws, acc);
}

SweepResult analyze_sweep(const AsGraph& g, const SweepPlan& plan,
                          const PairAnalysisConfig& cfg, const Deployment& dep,
                          const RunnerOptions& opts) {
  if (plan.groups.empty()) {
    throw std::invalid_argument("analyze_sweep: empty plan");
  }
  std::size_t pairs = 0;
  for (const auto& grp : plan.groups) {
    for (const AsId m : grp.attackers) {
      if (m == grp.destination) {
        throw std::invalid_argument(
            "analyze_sweep: group attackers contain the destination");
      }
    }
    if (!grp.weights.empty() && grp.weights.size() != grp.attackers.size()) {
      throw std::invalid_argument(
          "analyze_sweep: group weights do not match its attackers");
    }
    pairs += grp.attackers.size();
  }
  if (pairs == 0) {
    throw std::invalid_argument("analyze_sweep: plan has no pairs");
  }

  std::vector<SweepUnit> units;
  append_sweep_units(plan, 0, units);

  BatchExecutor& exec =
      opts.executor != nullptr ? *opts.executor : BatchExecutor::shared();
  const std::size_t workers = exec.effective_workers(opts.threads);

  // Per-worker, per-group partials folded in worker order: all counters
  // are integers, so the result is independent of thread count, chunk
  // interleaving and group order.
  std::vector<std::vector<PairStats>> accs(
      workers, std::vector<PairStats>(plan.groups.size()));
  exec.run(
      units.size(),
      [&](std::size_t worker, std::size_t i) {
        const SweepUnit& u = units[i];
        accumulate_unit_into(g, plan, u, cfg, dep, exec.workspace(worker),
                             accs[worker][u.group]);
      },
      workers);

  SweepResult res;
  res.per_destination.assign(plan.groups.size(), PairStats{});
  for (const auto& worker_accs : accs) {
    for (std::size_t gi = 0; gi < worker_accs.size(); ++gi) {
      res.per_destination[gi] += worker_accs[gi];
    }
  }
  for (const PairStats& s : res.per_destination) res.total += s;
  return res;
}

}  // namespace sbgp::sim
