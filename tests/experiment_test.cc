// Experiment suite, pair-sampling helpers and named-scenario registry
// tests, including the thread-count determinism contract of
// run_experiment_suite.
#include <gtest/gtest.h>

#include <numeric>
#include <stdexcept>
#include <string>
#include <vector>

#include "deployment/scenario.h"
#include "sim/batch_executor.h"
#include "sim/experiment.h"
#include "topology/generator.h"

namespace sbgp::sim {
namespace {

using routing::SecurityModel;

TEST(Sampling, DeterministicAndBounded) {
  std::vector<routing::AsId> pool(100);
  std::iota(pool.begin(), pool.end(), 0u);
  const auto a = sample_ases(pool, 10, 7);
  const auto b = sample_ases(pool, 10, 7);
  EXPECT_EQ(a, b);
  EXPECT_EQ(a.size(), 10u);
  const auto all = sample_ases(pool, 1000, 7);
  EXPECT_EQ(all.size(), 100u);
}

TEST(Sampling, NonStubPool) {
  const auto topo = topology::generate_small_internet(400, 3);
  const auto pool = non_stub_ases(topo.graph);
  EXPECT_FALSE(pool.empty());
  for (const auto v : pool) EXPECT_FALSE(topo.graph.is_stub(v));
  EXPECT_LT(pool.size(), topo.graph.num_ases() / 2);
}

class ExperimentTest : public ::testing::Test {
 protected:
  ExperimentTest() : topo_(topology::generate_small_internet(250, 17)) {
    tiers_ = topo_.classify();
  }

  topology::GeneratedTopology topo_;
  topology::TierInfo tiers_;
};

TEST_F(ExperimentTest, RegistryCoversDocumentedScenariosAndBuildsSteps) {
  ASSERT_FALSE(deployment::scenario_registry().empty());
  for (const char* name : {"t1-t2", "t1-t2-cp", "t2-only", "nonstub",
                           "t1-stubs", "t1-stubs-cp", "top13-t2-stubs",
                           "empty"}) {
    const auto* def = deployment::find_scenario(name);
    ASSERT_NE(def, nullptr) << name;
    EXPECT_EQ(def->name, name);
    for (const auto mode : {deployment::StubMode::kFullSbgp,
                            deployment::StubMode::kSimplex}) {
      const auto steps =
          deployment::build_scenario(name, topo_.graph, tiers_, mode);
      ASSERT_FALSE(steps.empty()) << name;
      for (const auto& step : steps) {
        EXPECT_FALSE(step.label.empty());
        EXPECT_EQ(step.total_secure, step.deployment.secure.count() +
                                         step.deployment.simplex.count());
      }
    }
  }
  EXPECT_EQ(deployment::find_scenario("no-such-scenario"), nullptr);
  EXPECT_THROW((void)deployment::build_scenario(
                   "no-such-scenario", topo_.graph, tiers_,
                   deployment::StubMode::kFullSbgp),
               std::invalid_argument);
}

TEST_F(ExperimentTest, SuiteMatchesDirectPipelineCalls) {
  ExperimentSpec spec;
  spec.scenario = "t1-t2";
  spec.rollout_step = 0;
  spec.model = SecurityModel::kSecuritySecond;
  spec.analyses = Analysis::kHappiness | Analysis::kDowngrades;
  spec.num_attackers = 4;
  spec.num_destinations = 4;
  spec.sample_seed = 11;
  const auto rows = run_experiment_suite(topo_.graph, tiers_, {spec});
  ASSERT_EQ(rows.size(), 1u);

  const auto steps = deployment::t1_t2_rollout(
      topo_.graph, tiers_, deployment::StubMode::kFullSbgp);
  const auto attackers = sample_ases(non_stub_ases(topo_.graph), 4, 11);
  const auto destinations = sample_ases(all_ases(topo_.graph), 4, 12);
  PairAnalysisConfig cfg;
  cfg.model = spec.model;
  cfg.analyses = spec.analyses;
  const auto direct =
      analyze_sweep(topo_.graph, make_sweep_plan(attackers, destinations), cfg,
                    steps[0].deployment)
          .total;
  EXPECT_EQ(rows[0].stats.pairs, direct.pairs);
  EXPECT_EQ(rows[0].stats.happiness.happy_lower,
            direct.happiness.happy_lower);
  EXPECT_EQ(rows[0].stats.downgrades.downgraded,
            direct.downgrades.downgraded);
  EXPECT_EQ(rows[0].step_label, steps[0].label);
  EXPECT_EQ(rows[0].total_secure, steps[0].total_secure);
  EXPECT_EQ(rows[0].num_attackers, attackers.size());
}

TEST_F(ExperimentTest, RowsComeBackInSpecOrderWithComposedLabels) {
  std::vector<ExperimentSpec> specs;
  for (const auto model : routing::kAllSecurityModels) {
    ExperimentSpec spec;
    spec.scenario = "t1-stubs";
    spec.model = model;
    spec.analyses = Analysis::kPartitions;
    spec.num_attackers = 3;
    spec.num_destinations = 3;
    specs.push_back(spec);
  }
  specs.back().label = "custom";
  const auto rows = run_experiment_suite(topo_.graph, tiers_, specs);
  ASSERT_EQ(rows.size(), specs.size());
  for (std::size_t i = 0; i < rows.size(); ++i) {
    EXPECT_EQ(rows[i].model, specs[i].model);
    EXPECT_GT(rows[i].stats.pairs, 0u);
  }
  EXPECT_EQ(rows[0].label, "t1-stubs/T1+stubs security 1st");
  EXPECT_EQ(rows.back().label, "custom");
}

TEST_F(ExperimentTest, SuiteIsThreadCountIndependent) {
  std::vector<ExperimentSpec> specs;
  for (const auto model : routing::kAllSecurityModels) {
    ExperimentSpec spec;
    spec.scenario = "t1-t2";
    spec.model = model;
    spec.analyses = AnalysisSet::all();
    spec.num_attackers = 4;
    spec.num_destinations = 4;
    specs.push_back(spec);
  }
  BatchExecutor executor(8);
  RunnerOptions one;
  one.threads = 1;
  one.executor = &executor;
  RunnerOptions many;
  many.threads = 8;
  many.executor = &executor;
  const auto a = run_experiment_suite(topo_.graph, tiers_, specs, one);
  const auto b = run_experiment_suite(topo_.graph, tiers_, specs, many);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    const auto& sa = a[i].stats;
    const auto& sb = b[i].stats;
    EXPECT_EQ(sa.pairs, sb.pairs);
    EXPECT_EQ(sa.happiness.happy_lower, sb.happiness.happy_lower);
    EXPECT_EQ(sa.happiness.happy_upper, sb.happiness.happy_upper);
    EXPECT_EQ(sa.happiness.sources, sb.happiness.sources);
    EXPECT_EQ(sa.partitions.doomed, sb.partitions.doomed);
    EXPECT_EQ(sa.partitions.protectable, sb.partitions.protectable);
    EXPECT_EQ(sa.partitions.immune, sb.partitions.immune);
    EXPECT_EQ(sa.downgrades.downgraded, sb.downgrades.downgraded);
    EXPECT_EQ(sa.downgrades.secure_kept, sb.downgrades.secure_kept);
    EXPECT_EQ(sa.downgrades.kept_and_immune, sb.downgrades.kept_and_immune);
    EXPECT_EQ(sa.collateral.benefits, sb.collateral.benefits);
    EXPECT_EQ(sa.collateral.damages, sb.collateral.damages);
    EXPECT_EQ(sa.root_causes.secure_protecting,
              sb.root_causes.secure_protecting);
    EXPECT_EQ(sa.root_causes.happy_deployed, sb.root_causes.happy_deployed);
  }
}

TEST_F(ExperimentTest, UnknownScenarioErrorListsAvailableNames) {
  try {
    (void)deployment::build_scenario("no-such-scenario", topo_.graph, tiers_,
                                     deployment::StubMode::kFullSbgp);
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("no-such-scenario"), std::string::npos) << msg;
    for (const auto& def : deployment::scenario_registry()) {
      EXPECT_NE(msg.find(def.name), std::string::npos) << msg;
    }
  }
}

TEST_F(ExperimentTest, RejectsBadSpecs) {
  ExperimentSpec unknown;
  unknown.scenario = "no-such-scenario";
  unknown.analyses = Analysis::kHappiness;
  EXPECT_THROW((void)run_experiment_suite(topo_.graph, tiers_, {unknown}),
               std::invalid_argument);

  ExperimentSpec oob;
  oob.scenario = "t1-t2";
  oob.rollout_step = 99;
  oob.analyses = Analysis::kHappiness;
  EXPECT_THROW((void)run_experiment_suite(topo_.graph, tiers_, {oob}),
               std::invalid_argument);

  ExperimentSpec empty_analyses;
  empty_analyses.scenario = "t1-t2";
  empty_analyses.num_attackers = 2;
  empty_analyses.num_destinations = 2;
  EXPECT_THROW(
      (void)run_experiment_suite(topo_.graph, tiers_, {empty_analyses}),
      std::invalid_argument);
}

TEST_F(ExperimentTest, ResolverRejectsInsecurePartitionsAndDowngrades) {
  // Partitions and downgrades compare S*BGP deployments; under the
  // insecure model the resolver names the spec instead of letting every
  // pair unit fail later.
  ExperimentResolver resolver(topo_.graph, tiers_, topo_.sample_salt);
  for (const Analysis a : {Analysis::kPartitions, Analysis::kDowngrades}) {
    ExperimentSpec spec;
    spec.label = "insecure-bounds";
    spec.scenario = "t1-t2";
    spec.model = SecurityModel::kInsecure;
    spec.analyses = Analysis::kHappiness | a;
    spec.num_attackers = 2;
    spec.num_destinations = 2;
    try {
      (void)resolver.resolve(spec);
      FAIL() << "expected std::invalid_argument";
    } catch (const std::invalid_argument& e) {
      const std::string msg = e.what();
      EXPECT_NE(msg.find("insecure-bounds"), std::string::npos) << msg;
    }
    spec.model = SecurityModel::kSecurityFirst;
    EXPECT_NO_THROW((void)resolver.resolve(spec));
  }
}

}  // namespace
}  // namespace sbgp::sim
