// The fused sweep's aggregate statistics against a manual per-pair
// average, the partition bound and the S = emptyset baseline.
#include <gtest/gtest.h>

#include "routing/engine.h"
#include "security/happiness.h"
#include "sim/experiment.h"
#include "sim/pair_analysis.h"
#include "test_support.h"
#include "topology/generator.h"

namespace sbgp::sim {
namespace {

using routing::SecurityModel;
using test::random_deployment;

class RunnerTest : public ::testing::Test {
 protected:
  RunnerTest() : topo_(topology::generate_small_internet(300, 11)) {
    util::Rng rng(4);
    dep_ = random_deployment(topo_.graph.num_ases(), 0.4, rng);
    attackers_ = sample_ases(non_stub_ases(topo_.graph), 6, 1);
    destinations_ = sample_ases(all_ases(topo_.graph), 6, 2);
  }

  /// Totals of one fused sweep over the fixture's pairs.
  PairStats sweep(AnalysisSet analyses, SecurityModel model,
                  const routing::Deployment& dep,
                  const RunnerOptions& opts = {}) const {
    PairAnalysisConfig cfg;
    cfg.analyses = analyses;
    cfg.model = model;
    return analyze_sweep(topo_.graph,
                         make_sweep_plan(attackers_, destinations_), cfg, dep,
                         opts)
        .total;
  }

  /// H_{M,D}(S) with tie-break bounds.
  security::MetricBounds metric(SecurityModel model,
                                const routing::Deployment& dep,
                                const RunnerOptions& opts = {}) const {
    return sweep(Analysis::kHappiness, model, dep, opts).happiness.bounds();
  }

  topology::GeneratedTopology topo_;
  routing::Deployment dep_;
  std::vector<routing::AsId> attackers_;
  std::vector<routing::AsId> destinations_;
};

TEST_F(RunnerTest, MetricMatchesManualAverage) {
  const auto h = metric(SecurityModel::kSecurityThird, dep_);
  // Manual sequential computation.
  double lo = 0.0;
  double hi = 0.0;
  std::size_t pairs = 0;
  for (const auto m : attackers_) {
    for (const auto d : destinations_) {
      if (m == d) continue;
      const auto out = routing::compute_routing(
          topo_.graph, {d, m, SecurityModel::kSecurityThird}, dep_);
      const auto c = security::count_happy(out, d, m);
      lo += c.lower_fraction();
      hi += c.upper_fraction();
      ++pairs;
    }
  }
  EXPECT_NEAR(h.lower, lo / static_cast<double>(pairs), 1e-12);
  EXPECT_NEAR(h.upper, hi / static_cast<double>(pairs), 1e-12);
}

TEST_F(RunnerTest, ThreadCountDoesNotChangeResults) {
  RunnerOptions one;
  one.threads = 1;
  RunnerOptions many;
  many.threads = 8;
  const auto a = metric(SecurityModel::kSecuritySecond, dep_, one);
  const auto b = metric(SecurityModel::kSecuritySecond, dep_, many);
  EXPECT_DOUBLE_EQ(a.lower, b.lower);
  EXPECT_DOUBLE_EQ(a.upper, b.upper);
}

TEST_F(RunnerTest, PerDestinationAveragesToOverall) {
  PairAnalysisConfig cfg;
  cfg.analyses = Analysis::kHappiness;
  cfg.model = SecurityModel::kSecurityThird;
  const auto per_dest =
      analyze_sweep(topo_.graph, make_sweep_plan(attackers_, destinations_),
                    cfg, dep_)
          .per_destination;
  ASSERT_EQ(per_dest.size(), destinations_.size());
  // With disjoint attacker/destination samples every destination sees the
  // same number of attackers, so the mean of per-destination values equals
  // the overall metric.
  bool disjoint = true;
  for (const auto m : attackers_) {
    for (const auto d : destinations_) disjoint &= m != d;
  }
  if (disjoint) {
    security::MetricBounds mean;
    for (const auto& s : per_dest) mean += s.happiness.bounds();
    mean /= static_cast<double>(per_dest.size());
    const auto overall = metric(SecurityModel::kSecurityThird, dep_);
    EXPECT_NEAR(mean.lower, overall.lower, 1e-12);
    EXPECT_NEAR(mean.upper, overall.upper, 1e-12);
  }
}

TEST_F(RunnerTest, BoundsAreOrdered) {
  for (const auto model : routing::kAllSecurityModels) {
    const auto m = metric(model, dep_);
    EXPECT_LE(m.lower, m.upper);
    EXPECT_GE(m.lower, 0.0);
    EXPECT_LE(m.upper, 1.0);
  }
}

TEST_F(RunnerTest, PartitionsBoundTheMetricForAnyDeployment) {
  // immune <= H_lower and H_upper <= 1 - doomed (Section 4.3).
  // Partitions are deployment-invariant: computed on S = emptyset.
  const auto shares =
      sweep(Analysis::kPartitions, SecurityModel::kSecurityThird,
            routing::Deployment(topo_.graph.num_ases()))
          .partitions.shares();
  const auto h = metric(SecurityModel::kSecurityThird, dep_);
  EXPECT_LE(shares.immune, h.lower + 1e-9);
  EXPECT_LE(h.upper, 1.0 - shares.doomed + 1e-9);
}

TEST_F(RunnerTest, BaselineIndependentOfModelDeployment) {
  // S = empty: all models coincide (the SecP step never fires).
  routing::Deployment empty(topo_.graph.num_ases());
  const auto base = metric(SecurityModel::kInsecure, empty);
  for (const auto model : routing::kAllSecurityModels) {
    const auto m = metric(model, empty);
    EXPECT_DOUBLE_EQ(m.lower, base.lower) << to_string(model);
    EXPECT_DOUBLE_EQ(m.upper, base.upper);
  }
}

TEST_F(RunnerTest, DowngradeAndRootCauseTotalsAgree) {
  const auto dg =
      sweep(Analysis::kDowngrades, SecurityModel::kSecurityThird, dep_)
          .downgrades;
  const auto rc =
      sweep(Analysis::kRootCause, SecurityModel::kSecurityThird, dep_)
          .root_causes;
  EXPECT_EQ(dg.sources, rc.sources);
  EXPECT_EQ(dg.secure_normal, rc.secure_normal);
  EXPECT_EQ(dg.downgraded, rc.downgraded);
}

TEST_F(RunnerTest, EmptySetsRejected) {
  EXPECT_THROW((void)make_sweep_plan({}, destinations_),
               std::invalid_argument);
}

}  // namespace
}  // namespace sbgp::sim
