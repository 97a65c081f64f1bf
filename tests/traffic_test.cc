// TrafficModel unit tests plus the weighted/unweighted equivalence
// property the whole weighted-metrics feature rests on: a uniform model
// of any scale yields weighted counters that are exact integer multiples
// of the unweighted ones, identical unweighted counters, and aggregated
// rows that serialize to the very same bytes (the scale cancels exactly
// in every metric ratio). The legacy per-trial header is pinned as a
// literal string so a schema drift in the uniform-weight layout — the one
// committed baselines and old cache entries depend on — cannot slip
// through silently.
#include <gtest/gtest.h>

#include <cstdint>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "deployment/scenario.h"
#include "sim/campaign.h"
#include "sim/campaign_io.h"
#include "sim/traffic.h"

namespace sbgp::sim {
namespace {

using deployment::StubMode;
using routing::SecurityModel;

TEST(TrafficModel, UniformMassesAndWeights) {
  TrafficModel m;  // defaults: uniform, scale 1
  EXPECT_TRUE(m.is_trivial());
  EXPECT_EQ(as_mass(m, 0), 1u);
  EXPECT_EQ(as_mass(m, 12345), 1u);
  EXPECT_EQ(pair_weight(m, 3, 7), 1u);
  m.scale = 9;
  EXPECT_FALSE(m.is_trivial());
  EXPECT_EQ(pair_weight(m, 3, 7), 9u);
}

TEST(TrafficModel, GravityMassesAreDeterministicBoundedAndSpread) {
  TrafficModel m;
  m.kind = TrafficModel::Kind::kGravity;
  m.seed = 42;
  m.max_mass = 256;
  EXPECT_FALSE(m.is_trivial());
  std::set<std::uint64_t> seen;
  for (routing::AsId v = 0; v < 200; ++v) {
    const std::uint64_t mass = as_mass(m, v);
    EXPECT_GE(mass, 1u);
    EXPECT_LE(mass, m.max_mass);
    EXPECT_EQ(mass, as_mass(m, v));  // pure function of (model, id)
    seen.insert(mass);
  }
  // Heavy-tailed, not constant: many distinct masses over 200 ASes.
  EXPECT_GT(seen.size(), 10u);
  EXPECT_EQ(pair_weight(m, 3, 7), as_mass(m, 3) * as_mass(m, 7));
  m.scale = 4;
  EXPECT_EQ(pair_weight(m, 3, 7), 4 * as_mass(m, 3) * as_mass(m, 7));

  // The seed picks the mass stream.
  TrafficModel other = m;
  other.seed = 43;
  bool any_differ = false;
  for (routing::AsId v = 0; v < 32 && !any_differ; ++v) {
    any_differ = as_mass(m, v) != as_mass(other, v);
  }
  EXPECT_TRUE(any_differ);
}

TEST(TrafficModel, ToStringParseRoundTrip) {
  const auto round_trips = [](const TrafficModel& m) {
    EXPECT_EQ(parse_traffic_model(to_string(m)), m) << to_string(m);
  };
  round_trips({});
  TrafficModel scaled;
  scaled.scale = 12;
  round_trips(scaled);
  TrafficModel gravity;
  gravity.kind = TrafficModel::Kind::kGravity;
  gravity.seed = 7;
  gravity.max_mass = 1024;
  gravity.scale = 3;
  round_trips(gravity);

  EXPECT_EQ(parse_traffic_model("uniform"), TrafficModel{});
  const TrafficModel g = parse_traffic_model("gravity,seed=7");
  EXPECT_EQ(g.kind, TrafficModel::Kind::kGravity);
  EXPECT_EQ(g.seed, 7u);

  EXPECT_THROW((void)parse_traffic_model(""), std::invalid_argument);
  EXPECT_THROW((void)parse_traffic_model("lognormal"), std::invalid_argument);
  EXPECT_THROW((void)parse_traffic_model("uniform,weight=2"),
               std::invalid_argument);
  EXPECT_THROW((void)parse_traffic_model("gravity,seed=x"),
               std::invalid_argument);
}

TEST(TrafficModel, ValidateRejectsZeroScaleAndMass) {
  TrafficModel m;
  m.scale = 0;
  EXPECT_THROW(validate_traffic_model(m), std::invalid_argument);
  m.scale = 1;
  m.max_mass = 0;
  EXPECT_THROW(validate_traffic_model(m), std::invalid_argument);
  m.max_mass = 1;
  EXPECT_NO_THROW(validate_traffic_model(m));
}

TEST(TrafficModel, LegacyTrialHeaderIsPinned) {
  // The exact uniform-weight (legacy) per-trial CSV header. Committed
  // baselines and pre-weighting cache entries carry this line; changing
  // it invalidates them all, so it is pinned as a literal.
  const std::string kLegacyHeader =
      "topology,trial,topology_seed,spec,label,step_label,model,hysteresis,"
      "num_non_stub_secure,total_secure,num_attackers,num_destinations,"
      "pairs,happy_lower,happy_upper,happy_sources,doomed,protectable,"
      "immune,partition_sources,dg_sources,dg_secure_normal,dg_downgraded,"
      "dg_secure_kept,dg_kept_and_immune,col_insecure_sources,col_benefits,"
      "col_damages,col_benefits_upper,col_damages_upper,rc_sources,"
      "rc_secure_normal,rc_downgraded,rc_secure_wasted,rc_secure_protecting,"
      "rc_collateral_benefits,rc_collateral_damages,rc_happy_baseline,"
      "rc_happy_deployed";
  const CampaignTrialRow blank;  // zero counters: uniform-weight by def.
  ASSERT_TRUE(is_uniform_weight(blank));
  std::ostringstream csv;
  write_trial_rows_csv(csv, {blank});
  std::istringstream lines(csv.str());
  std::string header;
  ASSERT_TRUE(std::getline(lines, header));
  EXPECT_EQ(header, kLegacyHeader);

  // The full weighted schema keeps the legacy columns as a strict prefix
  // and appends weight + one w_ mirror per analysis counter.
  const auto& full = trial_row_columns();
  ASSERT_EQ(full.size(), 39u + 27u);
  std::string prefix = full[0];
  for (std::size_t i = 1; i < 39; ++i) prefix += ',' + full[i];
  EXPECT_EQ(prefix, kLegacyHeader);
  EXPECT_EQ(full[39], "weight");
  EXPECT_EQ(full[40], "w_happy_lower");
  EXPECT_EQ(full.back(), "w_rc_happy_deployed");
}

/// Scenarios x stub modes on the tiniest topology, all analyses: the
/// workload for the scale-equivalence property below.
CampaignSpec equivalence_campaign(const TrafficModel& traffic) {
  CampaignSpec campaign;
  campaign.label = "traffic-equivalence";
  campaign.topology = "tiny-500";
  campaign.trials = 2;
  campaign.seed = 20130812;
  for (const char* scenario : {"t1-t2", "top13-t2-stubs", "empty"}) {
    for (const StubMode mode : {StubMode::kFullSbgp, StubMode::kSimplex}) {
      ExperimentSpec spec;
      spec.scenario = scenario;
      spec.stub_mode = mode;
      spec.model = SecurityModel::kSecuritySecond;
      spec.analyses = AnalysisSet::all();
      spec.num_attackers = 3;
      spec.num_destinations = 3;
      spec.traffic = traffic;
      campaign.experiments.push_back(spec);
    }
  }
  return campaign;
}

TEST(TrafficEquivalence, UniformScaleIsExactlyEquivalent) {
  constexpr std::uint64_t kScale = 5;
  TrafficModel scaled;
  scaled.scale = kScale;
  const CampaignResult base = run_campaign(equivalence_campaign({}));
  const CampaignResult weighted = run_campaign(equivalence_campaign(scaled));

  ASSERT_EQ(base.trial_rows.size(), weighted.trial_rows.size());
  for (std::size_t i = 0; i < base.trial_rows.size(); ++i) {
    const CampaignTrialRow& b = base.trial_rows[i];
    const CampaignTrialRow& w = weighted.trial_rows[i];
    // The unweighted half of the row is bit-for-bit unaffected: identical
    // pair samples, identical counters — the first 39 serialized fields.
    const auto bv = trial_row_values(b);
    const auto wv = trial_row_values(w);
    for (std::size_t c = 0; c < 39; ++c) {
      EXPECT_EQ(bv[c], wv[c]) << "row " << i << " col " << c;
    }
    // Every weighted counter is exactly scale x its unweighted twin.
    const PairStats& s = w.row.stats;
    EXPECT_EQ(s.weight, kScale * s.pairs);
    EXPECT_EQ(s.w_happiness.happy_lower, kScale * s.happiness.happy_lower);
    EXPECT_EQ(s.w_happiness.happy_upper, kScale * s.happiness.happy_upper);
    EXPECT_EQ(s.w_happiness.sources, kScale * s.happiness.sources);
    EXPECT_EQ(s.w_partitions.doomed, kScale * s.partitions.doomed);
    EXPECT_EQ(s.w_partitions.protectable, kScale * s.partitions.protectable);
    EXPECT_EQ(s.w_partitions.immune, kScale * s.partitions.immune);
    EXPECT_EQ(s.w_partitions.sources, kScale * s.partitions.sources);
    EXPECT_EQ(s.w_downgrades.sources, kScale * s.downgrades.sources);
    EXPECT_EQ(s.w_downgrades.downgraded, kScale * s.downgrades.downgraded);
    EXPECT_EQ(s.w_collateral.insecure_sources,
              kScale * s.collateral.insecure_sources);
    EXPECT_EQ(s.w_collateral.benefits, kScale * s.collateral.benefits);
    EXPECT_EQ(s.w_collateral.damages, kScale * s.collateral.damages);
    EXPECT_EQ(s.w_root_causes.sources, kScale * s.root_causes.sources);
    EXPECT_EQ(s.w_root_causes.happy_baseline,
              kScale * s.root_causes.happy_baseline);
    EXPECT_EQ(s.w_root_causes.happy_deployed,
              kScale * s.root_causes.happy_deployed);
    // The scale cancels exactly in every metric ratio (both operands of
    // each division are exact integers below 2^53).
    EXPECT_EQ(campaign_weighted_metrics(s), campaign_metrics(s));
    // Scale > 1 is non-uniform, so these rows serialize in the weighted
    // layout; the base run stays legacy.
    EXPECT_FALSE(is_uniform_weight(w));
    EXPECT_TRUE(is_uniform_weight(b));
  }

  // Aggregated rows serialize to the very same bytes: means, stderrs and
  // the weighted metric columns all coincide double-for-double.
  std::ostringstream base_csv, weighted_csv;
  write_campaign_rows_csv(base_csv, base.rows);
  write_campaign_rows_csv(weighted_csv, weighted.rows);
  EXPECT_EQ(base_csv.str(), weighted_csv.str());
}

TEST(TrafficEquivalence, GravityWeightsActuallyDiffer) {
  // Sanity check that the property above is not vacuous: a non-uniform
  // model produces weighted counters that differ from scaled copies.
  TrafficModel gravity;
  gravity.kind = TrafficModel::Kind::kGravity;
  gravity.seed = 7;
  CampaignSpec campaign = equivalence_campaign(gravity);
  campaign.experiments.resize(1);
  const CampaignResult result = run_campaign(campaign);
  bool any_nonuniform = false;
  for (const auto& tr : result.trial_rows) {
    any_nonuniform = any_nonuniform || !is_uniform_weight(tr);
  }
  EXPECT_TRUE(any_nonuniform);
}

}  // namespace
}  // namespace sbgp::sim
