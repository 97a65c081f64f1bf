// Fused-pipeline equivalence: analyze_sweep must return bit-for-bit the
// statistics of the standalone per-pair analyses, for every combination of
// selected analyses, every security model, and both stub modes.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <span>
#include <stdexcept>
#include <utility>
#include <vector>

#include "deployment/scenario.h"
#include "routing/engine.h"
#include "routing/workspace.h"
#include "security/collateral.h"
#include "security/downgrade.h"
#include "security/happiness.h"
#include "security/partition.h"
#include "security/rootcause.h"
#include "sim/batch_executor.h"
#include "sim/campaign.h"
#include "sim/experiment.h"
#include "sim/pair_analysis.h"
#include "test_support.h"
#include "topology/generator.h"
#include "topology/registry.h"

namespace sbgp::sim {
namespace {

using routing::SecurityModel;

void expect_happiness_eq(const security::HappyTotals& a,
                         const security::HappyTotals& b) {
  EXPECT_EQ(a.happy_lower, b.happy_lower);
  EXPECT_EQ(a.happy_upper, b.happy_upper);
  EXPECT_EQ(a.sources, b.sources);
}

void expect_partitions_eq(const security::PartitionCounts& a,
                          const security::PartitionCounts& b) {
  EXPECT_EQ(a.doomed, b.doomed);
  EXPECT_EQ(a.protectable, b.protectable);
  EXPECT_EQ(a.immune, b.immune);
  EXPECT_EQ(a.sources, b.sources);
}

void expect_downgrades_eq(const security::DowngradeStats& a,
                          const security::DowngradeStats& b) {
  EXPECT_EQ(a.sources, b.sources);
  EXPECT_EQ(a.secure_normal, b.secure_normal);
  EXPECT_EQ(a.downgraded, b.downgraded);
  EXPECT_EQ(a.secure_kept, b.secure_kept);
  EXPECT_EQ(a.kept_and_immune, b.kept_and_immune);
}

void expect_collateral_eq(const security::CollateralStats& a,
                          const security::CollateralStats& b) {
  EXPECT_EQ(a.insecure_sources, b.insecure_sources);
  EXPECT_EQ(a.benefits, b.benefits);
  EXPECT_EQ(a.damages, b.damages);
  EXPECT_EQ(a.benefits_upper, b.benefits_upper);
  EXPECT_EQ(a.damages_upper, b.damages_upper);
}

void expect_root_causes_eq(const security::RootCauseStats& a,
                           const security::RootCauseStats& b) {
  EXPECT_EQ(a.sources, b.sources);
  EXPECT_EQ(a.secure_normal, b.secure_normal);
  EXPECT_EQ(a.downgraded, b.downgraded);
  EXPECT_EQ(a.secure_wasted, b.secure_wasted);
  EXPECT_EQ(a.secure_protecting, b.secure_protecting);
  EXPECT_EQ(a.collateral_benefits, b.collateral_benefits);
  EXPECT_EQ(a.collateral_damages, b.collateral_damages);
  EXPECT_EQ(a.happy_baseline, b.happy_baseline);
  EXPECT_EQ(a.happy_deployed, b.happy_deployed);
}

constexpr Analysis kAllAnalyses[] = {
    Analysis::kHappiness, Analysis::kPartitions, Analysis::kDowngrades,
    Analysis::kCollateral, Analysis::kRootCause};

class PairAnalysisTest : public ::testing::Test {
 protected:
  PairAnalysisTest() : topo_(topology::generate_small_internet(250, 17)) {
    tiers_ = topo_.classify();
    attackers_ = sample_ases(non_stub_ases(topo_.graph), 3, 5);
    destinations_ = sample_ases(all_ases(topo_.graph), 3, 6);
  }

  /// Legacy reference: every statistic computed with the standalone
  /// analyses over the same pair list.
  PairStats standalone(SecurityModel model, const Deployment& dep) const {
    PairStats s;
    for (const auto& [d, m] : pairs()) {
      ++s.pairs;
      const auto out = routing::compute_routing(topo_.graph, {d, m, model},
                                                dep);
      const auto c = security::count_happy(out, d, m);
      s.happiness.happy_lower += c.happy_lower;
      s.happiness.happy_upper += c.happy_upper;
      s.happiness.sources += c.sources;
      routing::EngineWorkspace ws;
      s.partitions += security::PartitionContext(
                          topo_.graph, d, m, model,
                          routing::LocalPrefPolicy::standard(), ws)
                          .counts();
      s.downgrades +=
          security::analyze_downgrades(topo_.graph, d, m, model, dep);
      s.collateral +=
          security::analyze_collateral(topo_.graph, d, m, model, dep);
      s.root_causes +=
          security::analyze_root_causes(topo_.graph, d, m, model, dep);
    }
    return s;
  }

  /// Every (destination, attacker) pair of the fixture's sweep plan.
  std::vector<std::pair<AsId, AsId>> pairs() const {
    const auto plan = make_sweep_plan(attackers_, destinations_);
    std::vector<std::pair<AsId, AsId>> out;
    for (const auto& grp : plan.groups) {
      for (const AsId m : grp.attackers) out.emplace_back(grp.destination, m);
    }
    return out;
  }

  topology::GeneratedTopology topo_;
  topology::TierInfo tiers_;
  std::vector<AsId> attackers_;
  std::vector<AsId> destinations_;
};

TEST_F(PairAnalysisTest, EveryCombinationMatchesStandaloneAnalyses) {
  for (const auto mode :
       {deployment::StubMode::kFullSbgp, deployment::StubMode::kSimplex}) {
    const auto rollout = deployment::t1_t2_rollout(topo_.graph, tiers_, mode);
    const Deployment& dep = rollout.back().deployment;
    for (const auto model : routing::kAllSecurityModels) {
      const PairStats expected = standalone(model, dep);
      // All 31 non-empty subsets of the five analyses.
      for (std::uint8_t combo = 1; combo < 32; ++combo) {
        PairAnalysisConfig cfg;
        cfg.model = model;
        for (std::size_t b = 0; b < 5; ++b) {
          if ((combo & (1u << b)) != 0) cfg.analyses |= kAllAnalyses[b];
        }
        SCOPED_TRACE(::testing::Message()
                     << "model=" << to_string(model) << " stub mode="
                     << static_cast<int>(mode) << " combo=" << int(combo));
        const PairStats fused =
            analyze_sweep(topo_.graph,
                          make_sweep_plan(attackers_, destinations_), cfg, dep)
                .total;
        EXPECT_EQ(fused.pairs, expected.pairs);
        if (cfg.analyses.contains(Analysis::kHappiness)) {
          expect_happiness_eq(fused.happiness, expected.happiness);
        }
        if (cfg.analyses.contains(Analysis::kPartitions)) {
          expect_partitions_eq(fused.partitions, expected.partitions);
        }
        if (cfg.analyses.contains(Analysis::kDowngrades)) {
          expect_downgrades_eq(fused.downgrades, expected.downgrades);
        }
        if (cfg.analyses.contains(Analysis::kCollateral)) {
          expect_collateral_eq(fused.collateral, expected.collateral);
        }
        if (cfg.analyses.contains(Analysis::kRootCause)) {
          expect_root_causes_eq(fused.root_causes, expected.root_causes);
        }
      }
    }
  }
}

TEST_F(PairAnalysisTest, LpkPartitionsFuseWithStandardLadderDowngrades) {
  // A non-standard partition ladder must not leak into the downgrade
  // immunity check (which is specified over the standard ladder) or into
  // the shared S = emptyset outcome of the collateral analysis.
  util::Rng rng(9);
  const auto dep = test::random_deployment(topo_.graph.num_ases(), 0.4, rng);
  const auto lp = routing::LocalPrefPolicy::lp_k(2);

  PairAnalysisConfig cfg;
  cfg.model = SecurityModel::kSecuritySecond;
  cfg.lp = lp;
  cfg.analyses = Analysis::kPartitions | Analysis::kDowngrades |
                 Analysis::kCollateral;
  const auto fused =
      analyze_sweep(topo_.graph, make_sweep_plan(attackers_, destinations_),
                    cfg, dep)
          .total;

  security::PartitionCounts parts;
  security::DowngradeStats downgrades;
  security::CollateralStats collateral;
  for (const auto& [d, m] : pairs()) {
    routing::EngineWorkspace ws;
    parts +=
        security::PartitionContext(topo_.graph, d, m, cfg.model, lp, ws)
            .counts();
    downgrades +=
        security::analyze_downgrades(topo_.graph, d, m, cfg.model, dep);
    collateral +=
        security::analyze_collateral(topo_.graph, d, m, cfg.model, dep);
  }
  expect_partitions_eq(fused.partitions, parts);
  expect_downgrades_eq(fused.downgrades, downgrades);
  expect_collateral_eq(fused.collateral, collateral);
}

TEST_F(PairAnalysisTest, HysteresisMatchesStandaloneEngine) {
  const auto rollout = deployment::t1_t2_rollout(
      topo_.graph, tiers_, deployment::StubMode::kFullSbgp);
  const Deployment& dep = rollout.back().deployment;
  PairAnalysisConfig cfg;
  cfg.model = SecurityModel::kSecurityThird;
  cfg.analyses = Analysis::kHappiness;
  cfg.hysteresis = true;
  const auto fused =
      analyze_sweep(topo_.graph, make_sweep_plan(attackers_, destinations_),
                    cfg, dep)
          .total;

  security::HappyTotals expected;
  for (const auto& [d, m] : pairs()) {
    const auto out = routing::compute_routing_with_hysteresis(
        topo_.graph, {d, m, cfg.model}, dep);
    const auto c = security::count_happy(out, d, m);
    expected.happy_lower += c.happy_lower;
    expected.happy_upper += c.happy_upper;
    expected.sources += c.sources;
  }
  expect_happiness_eq(fused.happiness, expected);
}

TEST_F(PairAnalysisTest, PerDestinationSumsToAggregate) {
  util::Rng rng(21);
  const auto dep = test::random_deployment(topo_.graph.num_ases(), 0.3, rng);
  PairAnalysisConfig cfg;
  cfg.model = SecurityModel::kSecurityThird;
  cfg.analyses = Analysis::kHappiness | Analysis::kRootCause;
  const auto result = analyze_sweep(
      topo_.graph, make_sweep_plan(attackers_, destinations_), cfg, dep);
  ASSERT_EQ(result.per_destination.size(), destinations_.size());
  PairStats merged;
  for (const auto& s : result.per_destination) merged += s;
  EXPECT_EQ(merged.pairs, result.total.pairs);
  expect_happiness_eq(merged.happiness, result.total.happiness);
  expect_root_causes_eq(merged.root_causes, result.total.root_causes);
}

// --- lane groups vs. standalone analyses ------------------------------------

/// One pair's statistics from the standalone analyses, each running the
/// scalar engine from scratch (weight 1). With hysteresis the attacked
/// state under S comes from compute_routing_with_hysteresis instead, and
/// the counting entry points read it.
PairStats standalone_pair(const topology::AsGraph& g, AsId d, AsId m,
                          const PairAnalysisConfig& cfg,
                          const Deployment& dep) {
  PairStats s;
  s.pairs = 1;
  const bool partitions_defined = cfg.model != SecurityModel::kInsecure;
  routing::EngineWorkspace ws;
  if (partitions_defined) {
    s.partitions = security::PartitionContext(g, d, m, cfg.model, cfg.lp, ws)
                       .counts();
  }
  if (!cfg.hysteresis) {
    const auto out = routing::compute_routing(g, {d, m, cfg.model}, dep);
    const auto c = security::count_happy(out, d, m);
    s.happiness = {c.happy_lower, c.happy_upper, c.sources};
    if (partitions_defined) {
      s.downgrades = security::analyze_downgrades(g, d, m, cfg.model, dep);
    }
    s.collateral = security::analyze_collateral(g, d, m, cfg.model, dep);
    s.root_causes = security::analyze_root_causes(g, d, m, cfg.model, dep);
  } else {
    const auto normal =
        routing::compute_routing(g, {d, routing::kNoAs, cfg.model}, dep);
    const auto attacked = routing::compute_routing_with_hysteresis(
        g, {d, m, cfg.model}, dep);
    const auto empty = routing::compute_routing(
        g, {d, m, SecurityModel::kInsecure}, Deployment{});
    const auto c = security::count_happy(attacked, d, m);
    s.happiness = {c.happy_lower, c.happy_upper, c.sources};
    s.collateral = security::count_collateral(empty, attacked, dep, d, m);
    std::vector<std::uint8_t> normal_flags, attacked_flags, empty_flags;
    std::vector<std::uint8_t> signers;
    normal.flags_into(normal_flags);
    attacked.flags_into(attacked_flags);
    empty.flags_into(empty_flags);
    dep.signers_into(g.num_ases(), signers);
    security::PairOutcomes po;
    po.d = d;
    po.m = m;
    po.signers = signers;
    po.normal = normal_flags;
    po.attacked = attacked_flags;
    po.attacked_empty = empty_flags;
    security::accumulate_into(po, s.root_causes);
    if (partitions_defined) {
      std::vector<std::uint8_t> classes;
      security::PartitionContext(g, d, m, cfg.model,
                                 routing::LocalPrefPolicy::standard(), ws)
          .classes_into(classes);
      po.partition = classes;
      security::accumulate_into(po, s.downgrades);
    }
  }
  return s;
}

/// Adds one pair's unit-weight stats `one` to `acc` at traffic weight `w`.
void add_weighted(PairStats& acc, const PairStats& one, std::uint64_t w) {
  acc.pairs += one.pairs;
  acc.happiness += one.happiness;
  acc.partitions += one.partitions;
  acc.downgrades += one.downgrades;
  acc.collateral += one.collateral;
  acc.root_causes += one.root_causes;
  acc.weight += w;
  acc.w_happiness.add_scaled(one.happiness, w);
  acc.w_partitions.add_scaled(one.partitions, w);
  acc.w_downgrades.add_scaled(one.downgrades, w);
  acc.w_collateral.add_scaled(one.collateral, w);
  acc.w_root_causes.add_scaled(one.root_causes, w);
}

TEST(LaneGroups, SweepAndCampaignMatchStandaloneAnalyses) {
  // Groups of 1, 31, 32, 33 and 40 attackers cover one lane, a full pass
  // (31 attackers and the normal lane), and groups split across two
  // passes, whose chunks may run on different workers: hysteresis
  // computes its normal outcome once per chunk.
  const TrafficModel gravity = parse_traffic_model("gravity,seed=7");
  const auto topo = topology::generate_trial("tiny-500", 5, 0);
  const auto tiers = topo.classify();
  BatchExecutor exec(4);
  for (const auto model :
       {SecurityModel::kInsecure, SecurityModel::kSecurityFirst,
        SecurityModel::kSecuritySecond, SecurityModel::kSecurityThird}) {
    for (const bool hysteresis : {false, true}) {
      for (const std::size_t group : {1u, 31u, 32u, 33u, 40u}) {
        ExperimentSpec spec;
        spec.scenario = "t1-t2";
        spec.model = model;
        spec.analyses = model == SecurityModel::kInsecure
                            ? Analysis::kHappiness | Analysis::kCollateral |
                                  Analysis::kRootCause
                            : AnalysisSet::all();
        spec.hysteresis = hysteresis;
        spec.num_attackers = group;
        spec.num_destinations = 2;
        ExperimentResolver resolver(topo.graph, tiers, topo.sample_salt);
        const ResolvedExperiment re = resolver.resolve(spec);
        ASSERT_EQ(re.attackers.size(), group);

        // Unit-weight standalone stats per (destination, attacker).
        std::vector<std::vector<PairStats>> one(re.destinations.size());
        for (std::size_t di = 0; di < re.destinations.size(); ++di) {
          for (const AsId m : re.attackers) {
            if (m == re.destinations[di]) continue;
            one[di].push_back(standalone_pair(topo.graph, re.destinations[di],
                                              m, re.cfg, *re.deployment));
          }
        }

        for (const TrafficModel& traffic : {TrafficModel{}, gravity}) {
          SCOPED_TRACE(::testing::Message()
                       << to_string(model) << " hysteresis=" << hysteresis
                       << " group=" << group
                       << " gravity=" << !traffic.is_trivial());
          const SweepPlan plan =
              make_sweep_plan(re.attackers, re.destinations, traffic);
          std::vector<PairStats> expected(plan.groups.size());
          PairStats total;
          for (std::size_t gi = 0; gi < plan.groups.size(); ++gi) {
            const auto& grp = plan.groups[gi];
            for (std::size_t k = 0; k < grp.attackers.size(); ++k) {
              add_weighted(expected[gi], one[gi][k],
                           grp.weights.empty() ? 1 : grp.weights[k]);
            }
            total += expected[gi];
          }

          CampaignSpec campaign;
          campaign.topology = "tiny-500";
          campaign.trials = 1;
          campaign.seed = 5;
          campaign.experiments.push_back(spec);
          campaign.experiments.back().traffic = traffic;
          for (const std::size_t threads : {1u, 4u}) {
            SCOPED_TRACE(::testing::Message() << "threads=" << threads);
            const SweepResult sweep = analyze_sweep(
                topo.graph, plan, re.cfg, *re.deployment, {threads, &exec});
            EXPECT_EQ(sweep.per_destination, expected);
            EXPECT_EQ(sweep.total, total);

            const CampaignResult cell =
                run_campaign(campaign, {threads, &exec});
            ASSERT_EQ(cell.trial_rows.size(), 1u);
            EXPECT_EQ(cell.trial_rows[0].row.stats, total);
          }
        }
      }
    }
  }
}

// --- sweep plans -------------------------------------------------------------

TEST(SweepPlanTest, UnitsHoldAtMostOnePassOfAttackers) {
  // A pass takes kMaxLaneAttackers = 31 attackers; a group splits into as
  // few contiguous chunks as that allows, with sizes differing by at most 1.
  ASSERT_EQ(routing::kMaxLaneAttackers, 31u);
  for (const std::size_t count : {1u, 31u, 32u, 62u, 63u}) {
    SCOPED_TRACE(::testing::Message() << count << " attackers");
    SweepPlan plan;
    DestinationGroup grp;
    grp.destination = 0;
    for (std::size_t k = 0; k < count; ++k) {
      grp.attackers.push_back(static_cast<AsId>(k + 1));
    }
    plan.groups.push_back(grp);
    std::vector<SweepUnit> units;
    append_sweep_units(plan, 3, units);
    ASSERT_EQ(units.size(), (count + 30) / 31);
    std::size_t next = 0;
    std::size_t smallest = count;
    std::size_t largest = 0;
    for (const SweepUnit& u : units) {
      EXPECT_EQ(u.sweep, 3u);
      EXPECT_EQ(u.group, 0u);
      EXPECT_EQ(u.begin, next);
      ASSERT_GT(u.end, u.begin);
      EXPECT_LE(u.end - u.begin, 31u);
      smallest = std::min(smallest, u.end - u.begin);
      largest = std::max(largest, u.end - u.begin);
      next = u.end;
    }
    EXPECT_EQ(next, count);
    EXPECT_LE(largest - smallest, 1u);
  }
}

TEST(SweepPlanTest, GroupsByDestinationAndSkipsSelfAttacks) {
  const std::vector<AsId> attackers = {1, 2, 3};
  const std::vector<AsId> destinations = {2, 3, 4};
  const auto plan = make_sweep_plan(attackers, destinations);
  ASSERT_EQ(plan.groups.size(), 3u);  // one group per destination, in order
  EXPECT_EQ(plan.num_pairs(), 7u);    // 9 minus (2,2) and (3,3)
  for (std::size_t i = 0; i < plan.groups.size(); ++i) {
    const auto& grp = plan.groups[i];
    EXPECT_EQ(grp.destination, destinations[i]);
    EXPECT_EQ(grp.dest_index, i);
    for (const auto m : grp.attackers) EXPECT_NE(m, grp.destination);
  }
  EXPECT_EQ(plan.groups[0].attackers, (std::vector<AsId>{1, 3}));
  EXPECT_EQ(plan.groups[1].attackers, (std::vector<AsId>{1, 2}));
  EXPECT_EQ(plan.groups[2].attackers, (std::vector<AsId>{1, 2, 3}));
}

TEST(SweepPlanTest, ThrowsWhenNoValidPairRemains) {
  const std::vector<AsId> only = {5};
  EXPECT_THROW((void)make_sweep_plan(only, only), std::invalid_argument);
  EXPECT_THROW((void)make_sweep_plan({}, {1}), std::invalid_argument);
  EXPECT_THROW((void)make_sweep_plan({1}, {}), std::invalid_argument);
}

TEST(SweepPlanTest, AnalyzeSweepRejectsBadPlans) {
  const auto topo = topology::generate_small_internet(100, 4);
  const Deployment dep(topo.graph.num_ases());
  PairAnalysisConfig cfg;
  cfg.analyses = Analysis::kHappiness;
  EXPECT_THROW((void)analyze_sweep(topo.graph, SweepPlan{}, cfg, dep),
               std::invalid_argument);
  SweepPlan pairless;
  pairless.groups.push_back({7, 0, {}, {}});
  EXPECT_THROW((void)analyze_sweep(topo.graph, pairless, cfg, dep),
               std::invalid_argument);
  SweepPlan self_attack;
  self_attack.groups.push_back({7, 0, {7, 8}, {}});
  EXPECT_THROW((void)analyze_sweep(topo.graph, self_attack, cfg, dep),
               std::invalid_argument);
}

TEST(SweepPlanTest, MergedStatsIndependentOfGroupOrder) {
  const auto topo = topology::generate_small_internet(220, 11);
  util::Rng rng(13);
  const auto dep = test::random_deployment(topo.graph.num_ases(), 0.4, rng);
  const auto attackers = sample_ases(non_stub_ases(topo.graph), 4, 5);
  const auto destinations = sample_ases(all_ases(topo.graph), 4, 6);
  PairAnalysisConfig cfg;
  cfg.model = SecurityModel::kSecurityThird;
  cfg.analyses = AnalysisSet::all();

  const auto plan = make_sweep_plan(attackers, destinations);
  SweepPlan reversed = plan;
  std::reverse(reversed.groups.begin(), reversed.groups.end());

  const auto forward = analyze_sweep(topo.graph, plan, cfg, dep);
  const auto backward = analyze_sweep(topo.graph, reversed, cfg, dep);
  EXPECT_EQ(forward.total, backward.total);
  ASSERT_EQ(backward.per_destination.size(), plan.groups.size());
  for (std::size_t i = 0; i < plan.groups.size(); ++i) {
    EXPECT_EQ(forward.per_destination[i],
              backward.per_destination[plan.groups.size() - 1 - i])
        << "group " << i;
  }
}

// --- pair sampling edge cases ----------------------------------------------

TEST(AttackPairs, OverlappingSetsMatchManuallyFilteredRunners) {
  // Regression: a sweep must skip attacker == destination pairs rather
  // than evaluating or crashing on them.
  const auto topo = topology::generate_small_internet(200, 3);
  util::Rng rng(7);
  const auto dep = test::random_deployment(topo.graph.num_ases(), 0.5, rng);
  const auto overlap = sample_ases(non_stub_ases(topo.graph), 5, 1);
  // Same set on both sides: 5x5 = 25 raw pairs, 20 valid.
  const auto plan = make_sweep_plan(overlap, overlap);
  EXPECT_EQ(plan.num_pairs(), 20u);
  PairAnalysisConfig cfg;
  cfg.analyses = Analysis::kHappiness;
  cfg.model = SecurityModel::kSecuritySecond;
  const auto metric =
      analyze_sweep(topo.graph, plan, cfg, dep).total.happiness.bounds();
  security::HappyTotals expected;
  for (const auto m : overlap) {
    for (const auto d : overlap) {
      if (m == d) continue;
      const auto out = routing::compute_routing(
          topo.graph, {d, m, SecurityModel::kSecuritySecond}, dep);
      const auto c = security::count_happy(out, d, m);
      expected.happy_lower += c.happy_lower;
      expected.happy_upper += c.happy_upper;
      expected.sources += c.sources;
    }
  }
  EXPECT_DOUBLE_EQ(metric.lower, expected.bounds().lower);
  EXPECT_DOUBLE_EQ(metric.upper, expected.bounds().upper);
}

TEST(AttackPairs, AccumulatePairRejectsBadInputs) {
  const auto topo = topology::generate_small_internet(100, 4);
  routing::EngineWorkspace ws;
  PairStats acc;
  PairAnalysisConfig cfg;
  cfg.analyses = Analysis::kHappiness;
  EXPECT_THROW(accumulate_pair_into(topo.graph, 7, 7, cfg,
                                    Deployment(topo.graph.num_ases()), ws,
                                    acc),
               std::invalid_argument);
  PairAnalysisConfig empty_cfg;
  EXPECT_THROW(accumulate_pair_into(topo.graph, 7, 8, empty_cfg,
                                    Deployment(topo.graph.num_ases()), ws,
                                    acc),
               std::invalid_argument);

  // Groups: more attackers than a pass has attacker lanes (32, one lane
  // being the normal state's), mismatched weights, a self-attack.
  const Deployment dep(topo.graph.num_ases());
  std::vector<AsId> attackers;
  for (AsId m = 10; m < 10 + routing::kMaxLaneAttackers + 1; ++m) {
    attackers.push_back(m);
  }
  ASSERT_EQ(attackers.size(), 32u);
  EXPECT_THROW(accumulate_group_into(topo.graph, 7, attackers, {}, cfg, dep,
                                     ws, acc),
               std::invalid_argument);
  const std::span<const AsId> two(attackers.data(), 2);
  const std::vector<std::uint64_t> one_weight = {3};
  EXPECT_THROW(accumulate_group_into(topo.graph, 7, two, one_weight, cfg,
                                     dep, ws, acc),
               std::invalid_argument);
  const std::vector<AsId> self = {8, 7};
  EXPECT_THROW(accumulate_group_into(topo.graph, 7, self, {}, cfg, dep, ws,
                                     acc),
               std::invalid_argument);
  // Partitions and downgrades under the insecure model, even with no
  // attackers to classify.
  for (const Analysis a : {Analysis::kPartitions, Analysis::kDowngrades}) {
    PairAnalysisConfig insecure;
    insecure.analyses = a;
    insecure.model = SecurityModel::kInsecure;
    const auto run = [&] {
      accumulate_group_into(topo.graph, 7, {}, {}, insecure, dep, ws, acc);
    };
    EXPECT_THROW(run(), std::invalid_argument);
  }
  EXPECT_EQ(acc, PairStats{});
}

}  // namespace
}  // namespace sbgp::sim
