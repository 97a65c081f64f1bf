// Campaign-layer tests: equivalence with independent suite runs on the
// same generated topologies, thread-count determinism down to serialized
// bytes, CSV round trips, aggregation math, and registry-naming
// error messages.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "sim/batch_executor.h"
#include "sim/campaign.h"
#include "sim/campaign_io.h"
#include "sim/experiment.h"
#include "sim/traffic.h"
#include "topology/registry.h"
#include "util/csv.h"

namespace sbgp::sim {
namespace {

using routing::SecurityModel;

/// A small mixed campaign on the tiniest registered topology: one heavy
/// all-analyses spec next to light single-analysis specs, two scenarios.
CampaignSpec small_campaign(std::size_t trials = 2) {
  CampaignSpec campaign;
  campaign.label = "test-campaign";
  campaign.topology = "tiny-500";
  campaign.trials = trials;
  campaign.seed = 99;

  ExperimentSpec heavy;
  heavy.scenario = "t1-t2";
  heavy.model = SecurityModel::kSecurityThird;
  heavy.analyses = AnalysisSet::all();
  heavy.num_attackers = 4;
  heavy.num_destinations = 4;
  campaign.experiments.push_back(heavy);

  ExperimentSpec light;
  light.scenario = "t1-stubs";
  light.model = SecurityModel::kSecuritySecond;
  light.analyses = Analysis::kHappiness;
  light.num_attackers = 2;
  light.num_destinations = 3;
  light.sample_seed = 7;
  campaign.experiments.push_back(light);

  ExperimentSpec baseline;
  baseline.scenario = "empty";
  baseline.model = SecurityModel::kInsecure;
  baseline.analyses = Analysis::kHappiness;
  baseline.num_attackers = 3;
  baseline.num_destinations = 2;
  campaign.experiments.push_back(baseline);
  return campaign;
}

TEST(Campaign, TrialRowsMatchIndependentSuiteRuns) {
  const CampaignSpec campaign = small_campaign(2);
  const CampaignResult result = run_campaign(campaign);
  ASSERT_EQ(result.trial_rows.size(),
            campaign.trials * campaign.experiments.size());
  ASSERT_EQ(result.rows.size(), campaign.experiments.size());

  for (std::size_t t = 0; t < campaign.trials; ++t) {
    const auto topo =
        topology::generate_trial(campaign.topology, campaign.seed, t);
    const auto tiers = topo.classify();
    const auto suite_rows =
        run_experiment_suite(topo.graph, tiers, campaign.experiments);
    ASSERT_EQ(suite_rows.size(), campaign.experiments.size());
    for (std::size_t s = 0; s < suite_rows.size(); ++s) {
      const auto& tr =
          result.trial_rows[t * campaign.experiments.size() + s];
      EXPECT_EQ(tr.trial, t);
      EXPECT_EQ(tr.spec_index, s);
      EXPECT_EQ(tr.topology, campaign.topology);
      EXPECT_EQ(tr.topology_seed,
                topology::trial_seed(campaign.seed, campaign.topology, t));
      EXPECT_EQ(tr.row, suite_rows[s]) << "trial " << t << " spec " << s;
    }
  }
}

TEST(Campaign, MultiChunkCellsMatchIndependentSuiteRuns) {
  // Cells whose destination groups split into several lane chunks: 40 x 40
  // weighted pairs, and 33 attackers (one more than a lane pass holds).
  // The sample seed makes a destination coincide with an attacker in every
  // trial, so some group loses that attacker.
  CampaignSpec campaign;
  campaign.topology = "tiny-500";
  campaign.trials = 2;
  campaign.seed = 99;
  ExperimentSpec wide;
  wide.scenario = "t1-t2";
  wide.model = SecurityModel::kSecurityThird;
  wide.analyses = AnalysisSet::all();
  wide.num_attackers = 40;
  wide.num_destinations = 40;
  wide.sample_seed = 7;
  wide.traffic = parse_traffic_model("gravity,seed=7");
  campaign.experiments.push_back(wide);
  ExperimentSpec odd;
  odd.scenario = "t1-stubs";
  odd.model = SecurityModel::kSecuritySecond;
  odd.analyses = Analysis::kHappiness | Analysis::kPartitions;
  odd.num_attackers = 33;
  odd.num_destinations = 5;
  campaign.experiments.push_back(odd);

  std::vector<ExperimentRow> expected;
  for (std::size_t t = 0; t < campaign.trials; ++t) {
    const auto topo =
        topology::generate_trial(campaign.topology, campaign.seed, t);
    const auto rows =
        run_experiment_suite(topo.graph, topo.classify(), campaign.experiments);
    EXPECT_EQ(rows[0].num_attackers, 40u);
    EXPECT_LT(rows[0].stats.pairs, 40u * 40u) << "trial " << t;
    EXPECT_EQ(rows[1].num_attackers, 33u);
    expected.insert(expected.end(), rows.begin(), rows.end());
  }

  BatchExecutor executor(4);
  for (const std::size_t threads : {1u, 4u}) {
    RunnerOptions opts;
    opts.threads = threads;
    opts.executor = &executor;
    const CampaignResult result = run_campaign(campaign, opts);
    ASSERT_EQ(result.trial_rows.size(), expected.size());
    for (std::size_t i = 0; i < expected.size(); ++i) {
      EXPECT_EQ(result.trial_rows[i].row, expected[i])
          << "row " << i << " at " << threads << " worker(s)";
    }
  }
}

TEST(Campaign, ThreadCountIndependentDownToSerializedBytes) {
  const CampaignSpec campaign = small_campaign(2);
  BatchExecutor executor(6);

  RunnerOptions one;
  one.threads = 1;
  one.executor = &executor;
  RunnerOptions many;
  many.threads = 6;
  many.executor = &executor;

  const CampaignResult a = run_campaign(campaign, one);
  const CampaignResult b = run_campaign(campaign, many);
  ASSERT_EQ(a.trial_rows.size(), b.trial_rows.size());
  for (std::size_t i = 0; i < a.trial_rows.size(); ++i) {
    EXPECT_EQ(a.trial_rows[i], b.trial_rows[i]) << "row " << i;
  }
  EXPECT_EQ(a.rows, b.rows);

  const auto serialize = [](const CampaignResult& r) {
    std::ostringstream csv;
    write_trial_rows_csv(csv, r.trial_rows);
    std::ostringstream agg_csv;
    write_campaign_rows_csv(agg_csv, r.rows);
    return csv.str() + agg_csv.str();
  };
  EXPECT_EQ(serialize(a), serialize(b));
}

TEST(Campaign, TrialRowsRoundTripThroughCsv) {
  const CampaignResult result = run_campaign(small_campaign(2));
  ASSERT_FALSE(result.trial_rows.empty());

  std::ostringstream csv;
  write_trial_rows_csv(csv, result.trial_rows);
  std::istringstream csv_in(csv.str());
  EXPECT_EQ(read_trial_rows_csv(csv_in), result.trial_rows);
}

// Two hand-built per-trial rows: uniform-weight ones fit the legacy
// layout, and `weighted` scales their mirrors so only the weighted layout
// can hold them.
std::vector<CampaignTrialRow> pin_rows(bool weighted) {
  std::vector<CampaignTrialRow> rows(2);
  for (std::size_t i = 0; i < rows.size(); ++i) {
    CampaignTrialRow& r = rows[i];
    r.topology = "tiny-500";
    r.trial = 1;
    r.topology_seed = 9007199254740993ull + i;
    r.spec_index = i;
    r.row.label = i == 0 ? "say \"hi\"" : "t1-t2 s3";
    r.row.step_label = i == 0 ? "" : "step\\1";
    r.row.model = i == 0 ? SecurityModel::kSecurityThird
                         : SecurityModel::kInsecure;
    r.row.hysteresis = i == 0;
    r.row.num_non_stub_secure = 17 + i;
    r.row.total_secure = 40 + i;
    r.row.num_attackers = 4;
    r.row.num_destinations = 3 + i;
    PairStats& s = r.row.stats;
    s.pairs = 11 + i;
    s.happiness = {5 + i, 7 + i, 30};
    s.partitions.doomed = 2;
    s.partitions.protectable = 3 + i;
    s.partitions.immune = 4;
    s.partitions.sources = 9 + i;
    s.downgrades.downgraded = 1;
    s.collateral.benefits = 6;
    s.root_causes.downgraded = 8 + i;
    s.weight = s.pairs;
    s.w_happiness = s.happiness;
    s.w_partitions = s.partitions;
    s.w_downgrades = s.downgrades;
    s.w_collateral = s.collateral;
    s.w_root_causes = s.root_causes;
    if (weighted) {
      s.weight = 3 * s.pairs;
      s.w_happiness.happy_lower = 3 * s.happiness.happy_lower + i;
      s.w_partitions.immune = 12;
    }
  }
  return rows;
}

// The per-trial CSV writer's exact bytes, legacy and weighted layouts,
// empty and two-row files: a quoted label, a backslash, seeds above 2^53.
TEST(Campaign, TrialRowCsvWriterBytesArePinned) {
  const auto write = [](const std::vector<CampaignTrialRow>& rows,
                        bool weighted) {
    std::ostringstream os;
    write_trial_rows_csv(os, rows, weighted);
    return os.str();
  };
  const std::string legacy_header =
      "topology,trial,topology_seed,spec,label,step_label,model,hysteresis,"
      "num_non_stub_secure,total_secure,num_attackers,num_destinations,pairs,"
      "happy_lower,happy_upper,happy_sources,doomed,protectable,immune,"
      "partition_sources,dg_sources,dg_secure_normal,dg_downgraded,"
      "dg_secure_kept,dg_kept_and_immune,col_insecure_sources,col_benefits,"
      "col_damages,col_benefits_upper,col_damages_upper,rc_sources,"
      "rc_secure_normal,rc_downgraded,rc_secure_wasted,rc_secure_protecting,"
      "rc_collateral_benefits,rc_collateral_damages,rc_happy_baseline,"
      "rc_happy_deployed";
  const std::string weighted_header =
      legacy_header +
      ",weight,w_happy_lower,w_happy_upper,w_happy_sources,w_doomed,"
      "w_protectable,w_immune,w_partition_sources,w_dg_sources,"
      "w_dg_secure_normal,w_dg_downgraded,w_dg_secure_kept,"
      "w_dg_kept_and_immune,w_col_insecure_sources,w_col_benefits,"
      "w_col_damages,w_col_benefits_upper,w_col_damages_upper,w_rc_sources,"
      "w_rc_secure_normal,w_rc_downgraded,w_rc_secure_wasted,"
      "w_rc_secure_protecting,w_rc_collateral_benefits,"
      "w_rc_collateral_damages,w_rc_happy_baseline,w_rc_happy_deployed";
  EXPECT_EQ(write({}, false), legacy_header + "\n");
  EXPECT_EQ(write({}, true), weighted_header + "\n");
  const std::string row0 =
      "tiny-500,1,9007199254740993,0,\"say \"\"hi\"\"\",,security 3rd,1,"
      "17,40,4,3,11,5,7,30,2,3,4,9,0,0,1,0,0,0,6,0,0,0,0,0,8,0,0,0,0,0,0";
  const std::string row1 =
      "tiny-500,1,9007199254740994,1,t1-t2 s3,step\\1,baseline,0,"
      "18,41,4,4,12,6,8,30,2,4,4,10,0,0,1,0,0,0,6,0,0,0,0,0,9,0,0,0,0,0,0";
  const std::string legacy = legacy_header + "\n" + row0 + "\n" + row1 + "\n";
  EXPECT_EQ(write(pin_rows(false), false), legacy);
  const std::string w_row0 =
      row0 + ",33,15,7,30,2,3,12,9,0,0,1,0,0,0,6,0,0,0,0,0,8,0,0,0,0,0,0";
  const std::string w_row1 =
      row1 + ",36,19,8,30,2,4,12,10,0,0,1,0,0,0,6,0,0,0,0,0,9,0,0,0,0,0,0";
  const std::string weighted =
      weighted_header + "\n" + w_row0 + "\n" + w_row1 + "\n";
  EXPECT_EQ(write(pin_rows(true), true), weighted);
  // The default overload picks the layout from the rows.
  std::ostringstream picked_legacy;
  write_trial_rows_csv(picked_legacy, pin_rows(false));
  EXPECT_EQ(picked_legacy.str(), legacy);
  std::ostringstream picked_weighted;
  write_trial_rows_csv(picked_weighted, pin_rows(true));
  EXPECT_EQ(picked_weighted.str(), weighted);
  // Non-uniform weights do not fit the legacy layout, through the writer
  // or the streaming appender.
  EXPECT_THROW((void)write(pin_rows(true), false), std::logic_error);
  std::ostringstream streamed;
  TrialRowCsvAppender appender(streamed, /*weighted=*/false);
  EXPECT_THROW(appender.append(pin_rows(true)[0]), std::logic_error);
}

TEST(Campaign, AggregatedRowsRoundTripThroughCsv) {
  const CampaignResult result = run_campaign(small_campaign(3));
  ASSERT_FALSE(result.rows.empty());
  EXPECT_EQ(result.rows.front().trials, 3u);

  std::ostringstream csv;
  write_campaign_rows_csv(csv, result.rows);
  std::istringstream csv_in(csv.str());
  EXPECT_EQ(read_campaign_rows_csv(csv_in), result.rows);
}

TEST(Campaign, ReadersRejectMalformedInput) {
  std::istringstream bad_header("not,the,header\n");
  EXPECT_THROW((void)read_trial_rows_csv(bad_header), std::invalid_argument);
  std::istringstream empty("");
  EXPECT_THROW((void)read_campaign_rows_csv(empty), std::invalid_argument);
}

TEST(Campaign, CsvReadersRejectALineCutBeforeItsNewline) {
  // A file cut inside its last field can still split into the right arity
  // with a well-formed but wrong last counter; every writer ends every line
  // with '\n', so a missing final newline marks the cut.
  CampaignTrialRow trial;
  trial.topology = "tiny-500";
  trial.row.label = "cut";
  trial.row.stats.root_causes.happy_deployed = 14743;
  trial.row.stats.w_root_causes.happy_deployed = 14743;
  std::ostringstream trial_csv;
  write_trial_rows_csv(trial_csv, {trial});

  CampaignRow row;
  row.label = "cut";
  row.topology = "tiny-500";
  row.metrics.back().max = 0.14743;
  row.weighted_metrics.back().max = 0.14743;
  std::ostringstream row_csv;
  write_campaign_rows_csv(row_csv, {row});

  const std::string trial_text = trial_csv.str();
  const std::string row_text = row_csv.str();
  {
    std::istringstream in(trial_text);
    EXPECT_EQ(read_trial_rows_csv(in), std::vector<CampaignTrialRow>{trial});
  }
  {
    std::istringstream in(row_text);
    EXPECT_EQ(read_campaign_rows_csv(in), std::vector<CampaignRow>{row});
  }
  for (const std::size_t cut : {1u, 2u}) {
    std::istringstream trial_in(trial_text.substr(0, trial_text.size() - cut));
    EXPECT_THROW((void)read_trial_rows_csv(trial_in), std::invalid_argument)
        << cut;
    std::istringstream row_in(row_text.substr(0, row_text.size() - cut));
    EXPECT_THROW((void)read_campaign_rows_csv(row_in), std::invalid_argument)
        << cut;
  }
  // A header cut before its newline is truncated too.
  const std::string header = trial_text.substr(0, trial_text.find('\n'));
  std::istringstream header_only(header);
  EXPECT_THROW((void)read_trial_rows_csv(header_only), std::invalid_argument);
}

TEST(Campaign, AggregatedCsvReaderRejectsPaddedNumbers) {
  // The metric cells are plain decimals: padding or a '+' sign is rejected,
  // as it is in the count cells.
  const CampaignResult result = run_campaign(small_campaign(2));
  std::ostringstream csv;
  write_campaign_rows_csv(csv, result.rows);
  const std::string text = csv.str();
  const std::size_t row_begin = text.find('\n') + 1;
  const std::size_t row_end = text.find('\n', row_begin);
  ASSERT_NE(row_end, std::string::npos);
  std::vector<std::string> fields =
      util::split_csv_line(text.substr(row_begin, row_end - row_begin));
  const std::size_t metric = 6;  // the first metric's mean
  ASSERT_GT(fields.size(), metric);
  const std::string value = fields[metric];
  for (const std::string& bad : {" " + value, value + " ", "+" + value}) {
    fields[metric] = bad;
    std::istringstream in(text.substr(0, row_begin) + util::csv_line(fields) +
                          text.substr(row_end));
    EXPECT_THROW((void)read_campaign_rows_csv(in), std::invalid_argument)
        << "'" << bad << "'";
  }
  fields[metric] = value;
  std::istringstream in(text.substr(0, row_begin) + util::csv_line(fields) +
                        text.substr(row_end));
  EXPECT_EQ(read_campaign_rows_csv(in), result.rows);
}

TEST(Campaign, AggregationComputesMeanStderrMinMax) {
  // Three synthetic trials of one spec with happy_lower fractions
  // 0.2, 0.4, 0.6: mean 0.4, sample stddev 0.2, stderr 0.2/sqrt(3).
  std::vector<CampaignTrialRow> rows;
  for (std::size_t t = 0; t < 3; ++t) {
    CampaignTrialRow r;
    r.topology = "tiny-500";
    r.trial = t;
    r.spec_index = 0;
    r.row.label = "synthetic";
    r.row.stats.happiness.happy_lower = 2 * (t + 1);
    r.row.stats.happiness.happy_upper = 2 * (t + 1);
    r.row.stats.happiness.sources = 10;
    rows.push_back(std::move(r));
  }
  const auto agg = aggregate_trial_rows(rows);
  ASSERT_EQ(agg.size(), 1u);
  EXPECT_EQ(agg[0].label, "synthetic");
  EXPECT_EQ(agg[0].trials, 3u);
  const auto& happy = agg[0].metrics[0];  // happy_lower
  EXPECT_NEAR(happy.mean, 0.4, 1e-12);
  EXPECT_NEAR(happy.std_error, 0.2 / std::sqrt(3.0), 1e-12);
  EXPECT_DOUBLE_EQ(happy.min, 0.2);
  EXPECT_DOUBLE_EQ(happy.max, 0.6);
  // Unselected analyses aggregate to all-zero summaries.
  EXPECT_EQ(agg[0].metrics[5], MetricSummary{});  // downgraded
}

TEST(Campaign, MetricNamesAndValuesAgree) {
  ASSERT_EQ(campaign_metric_names().size(), kNumCampaignMetrics);
  PairStats stats;
  stats.partitions.doomed = 1;
  stats.partitions.protectable = 2;
  stats.partitions.immune = 1;
  stats.partitions.sources = 4;
  const auto values = campaign_metrics(stats);
  EXPECT_DOUBLE_EQ(values[2], 0.25);  // doomed
  EXPECT_DOUBLE_EQ(values[3], 0.50);  // protectable
  EXPECT_DOUBLE_EQ(values[4], 0.25);  // immune
}

TEST(Campaign, RejectsBadCampaignsWithRegistryNamesInMessage) {
  CampaignSpec unknown_topology = small_campaign(1);
  unknown_topology.topology = "no-such-topology";
  try {
    (void)run_campaign(unknown_topology);
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("no-such-topology"), std::string::npos) << msg;
    EXPECT_NE(msg.find("default-10k"), std::string::npos) << msg;
    EXPECT_NE(msg.find("tiny-500"), std::string::npos) << msg;
  }

  CampaignSpec unknown_scenario = small_campaign(1);
  unknown_scenario.experiments[1].scenario = "no-such-scenario";
  try {
    (void)run_campaign(unknown_scenario);
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("no-such-scenario"), std::string::npos) << msg;
    EXPECT_NE(msg.find("t1-t2"), std::string::npos) << msg;
    EXPECT_NE(msg.find("top13-t2-stubs"), std::string::npos) << msg;
  }

  CampaignSpec pinned = small_campaign(1);
  pinned.experiments[0].attackers = {1, 2};
  EXPECT_THROW((void)run_campaign(pinned), std::invalid_argument);

  CampaignSpec no_trials = small_campaign(1);
  no_trials.trials = 0;
  EXPECT_THROW((void)run_campaign(no_trials), std::invalid_argument);

  CampaignSpec no_specs = small_campaign(1);
  no_specs.experiments.clear();
  EXPECT_THROW((void)run_campaign(no_specs), std::invalid_argument);

  CampaignSpec no_analyses = small_campaign(1);
  no_analyses.experiments[0].analyses = {};
  EXPECT_THROW((void)run_campaign(no_analyses), std::invalid_argument);
}

TEST(Campaign, RejectsInsecurePartitionsBeforeRunningAnyCell) {
  // A spec that cannot run anywhere is a configuration error, not a failed
  // cell: run_campaign names it before any cell runs.
  for (const Analysis a : {Analysis::kPartitions, Analysis::kDowngrades}) {
    CampaignSpec campaign = small_campaign(1);
    ExperimentSpec bad = campaign.experiments[2];  // the insecure baseline
    bad.label = "insecure-bounds";
    bad.analyses = a;
    campaign.experiments.push_back(bad);
    std::size_t rows = 0;
    try {
      (void)run_campaign(campaign, {},
                         [&](const CampaignTrialRow&) { ++rows; });
      FAIL() << "expected std::invalid_argument";
    } catch (const std::invalid_argument& e) {
      const std::string msg = e.what();
      EXPECT_NE(msg.find("insecure-bounds"), std::string::npos) << msg;
    }
    EXPECT_EQ(rows, 0u);
  }
}

TEST(Campaign, BadRolloutStepFailsEveryCellOfItsTrialWhenIsolated) {
  // Out-of-range steps are only detectable once the trial's rollout is
  // built, i.e. inside the batch. The prep failure of the only trial fails
  // all of its cells — none of them reaches the sweep phase — and comes back
  // structured instead of thrown.
  CampaignSpec campaign = small_campaign(1);
  campaign.experiments[0].rollout_step = 99;
  BatchExecutor executor(4);
  RunnerOptions opts;
  opts.executor = &executor;
  const CampaignResult partial = run_campaign(campaign, opts);
  EXPECT_TRUE(partial.trial_rows.empty());
  // Every trial failed, so no spec aggregates into a row at all.
  EXPECT_TRUE(partial.rows.empty());
  ASSERT_EQ(partial.failed_cells.size(), campaign.experiments.size());
  for (std::size_t s = 0; s < partial.failed_cells.size(); ++s) {
    EXPECT_EQ(partial.failed_cells[s].trial, 0u);
    EXPECT_EQ(partial.failed_cells[s].spec_index, s);
    EXPECT_NE(partial.failed_cells[s].error.find("trial preparation failed"),
              std::string::npos)
        << partial.failed_cells[s].error;
    EXPECT_NE(partial.failed_cells[s].error.find("rollout step"),
              std::string::npos)
        << partial.failed_cells[s].error;
  }
  // The executor must stay usable after the isolated batch.
  const CampaignResult ok = run_campaign(small_campaign(1), opts);
  EXPECT_EQ(ok.trial_rows.size(), small_campaign(1).experiments.size());
  EXPECT_TRUE(ok.failed_cells.empty());
}

TEST(Campaign, StoppingReasonStringsRoundTrip) {
  for (const StoppingReason reason :
       {StoppingReason::kFixed, StoppingReason::kConverged,
        StoppingReason::kBudget}) {
    EXPECT_EQ(parse_stopping_reason(to_string(reason)), reason);
  }
  EXPECT_THROW((void)parse_stopping_reason("nope"), std::invalid_argument);
  EXPECT_THROW((void)parse_stopping_reason(""), std::invalid_argument);
}

TEST(Campaign, AdaptiveStopsEarlyAndRowsMatchFixedRun) {
  // A loose target on the 8-trial budget: every spec converges before the
  // budget runs out, and every row the adaptive run did compute is
  // byte-identical to the fixed run's row for the same (trial, spec) —
  // adaptivity decides which cells run, never what they contain.
  CampaignSpec fixed = small_campaign(8);
  CampaignSpec adaptive = fixed;
  adaptive.target_stderr = 0.5;
  adaptive.wave_size = 2;

  const CampaignResult full = run_campaign(fixed);
  const CampaignResult adapt = run_campaign(adaptive);
  ASSERT_EQ(adapt.rows.size(), fixed.experiments.size());
  for (const auto& row : adapt.rows) {
    EXPECT_EQ(row.stopping, StoppingReason::kConverged) << row.label;
    EXPECT_LT(row.trials, fixed.trials) << row.label;
    EXPECT_GE(row.trials, 2u) << row.label;  // stderr needs n >= 2
  }
  for (const auto& row : full.rows) {
    EXPECT_EQ(row.stopping, StoppingReason::kFixed);
  }
  ASSERT_LT(adapt.trial_rows.size(), full.trial_rows.size());
  for (const auto& tr : adapt.trial_rows) {
    const auto& ref =
        full.trial_rows[tr.trial * fixed.experiments.size() + tr.spec_index];
    EXPECT_EQ(tr, ref) << "trial " << tr.trial << " spec " << tr.spec_index;
  }
}

TEST(Campaign, AdaptiveBudgetExhaustionReportsBudgetReason) {
  // An unattainable target: every spec runs to the max_trials budget
  // (which overrides `trials` as the schedule bound) and says so.
  CampaignSpec campaign = small_campaign(2);
  campaign.target_stderr = 1e-12;
  campaign.wave_size = 1;
  campaign.max_trials = 3;
  const CampaignResult result = run_campaign(campaign);
  ASSERT_EQ(result.rows.size(), campaign.experiments.size());
  for (const auto& row : result.rows) {
    EXPECT_EQ(row.stopping, StoppingReason::kBudget) << row.label;
    EXPECT_EQ(row.trials, 3u) << row.label;
  }
}

TEST(Campaign, FixedWavePartitioningKeepsBytesIdentical) {
  // wave_size on a fixed campaign only partitions the schedule; rows,
  // aggregates and both serializations must stay byte-identical to the
  // single-wave run.
  CampaignSpec campaign = small_campaign(3);
  CampaignSpec waved = campaign;
  waved.wave_size = 1;
  const CampaignResult a = run_campaign(campaign);
  const CampaignResult b = run_campaign(waved);
  EXPECT_EQ(a.trial_rows, b.trial_rows);
  EXPECT_EQ(a.rows, b.rows);
  const auto serialize = [](const CampaignResult& r) {
    std::ostringstream csv;
    write_trial_rows_csv(csv, r.trial_rows);
    std::ostringstream agg_csv;
    write_campaign_rows_csv(agg_csv, r.rows);
    return csv.str() + agg_csv.str();
  };
  EXPECT_EQ(serialize(a), serialize(b));
}

TEST(Campaign, StreamingSinkMatchesEndOfRunRowsAtAnyWorkerCount) {
  // The sink must see exactly the rows of result.trial_rows, in order,
  // regardless of worker timing — and feeding them through the CSV
  // appender must reproduce the end-of-run writer byte for byte.
  const CampaignSpec campaign = small_campaign(2);
  BatchExecutor executor(6);
  for (const std::size_t threads : {std::size_t{1}, std::size_t{6}}) {
    RunnerOptions opts;
    opts.threads = threads;
    opts.executor = &executor;
    std::vector<CampaignTrialRow> streamed;
    std::ostringstream streamed_csv;
    TrialRowCsvAppender appender(streamed_csv);
    const CampaignResult result =
        run_campaign(campaign, opts, [&](const CampaignTrialRow& row) {
          streamed.push_back(row);
          appender.append(row);
        });
    EXPECT_EQ(streamed, result.trial_rows) << threads << " threads";
    std::ostringstream whole;
    write_trial_rows_csv(whole, result.trial_rows);
    EXPECT_EQ(streamed_csv.str(), whole.str()) << threads << " threads";
  }
}

TEST(Campaign, AdaptiveConfigValidation) {
  CampaignSpec orphan_budget = small_campaign(2);
  orphan_budget.max_trials = 5;  // without target_stderr
  EXPECT_THROW((void)run_campaign(orphan_budget), std::invalid_argument);

  CampaignSpec nan_target = small_campaign(2);
  nan_target.target_stderr = std::nan("");
  EXPECT_THROW((void)run_campaign(nan_target), std::invalid_argument);

  CampaignSpec negative_target = small_campaign(2);
  negative_target.target_stderr = -0.25;
  EXPECT_THROW((void)run_campaign(negative_target), std::invalid_argument);

  // An infinite target would stop every spec after its first wave.
  CampaignSpec inf_target = small_campaign(2);
  inf_target.target_stderr = std::numeric_limits<double>::infinity();
  EXPECT_THROW((void)run_campaign(inf_target), std::invalid_argument);

  // Sharding cannot observe other shards' rows; merge-only makes no
  // stopping decisions. Both throw before any cache I/O happens.
  CampaignSpec sharded = small_campaign(2);
  sharded.target_stderr = 0.5;
  sharded.shard_count = 2;
  sharded.cache_dir = "never-created";
  EXPECT_THROW((void)run_campaign(sharded), std::invalid_argument);

  CampaignSpec merge = small_campaign(2);
  merge.target_stderr = 0.5;
  merge.merge_only = true;
  merge.cache_dir = "never-created";
  EXPECT_THROW((void)run_campaign(merge), std::invalid_argument);
}

TEST(Campaign, AggregatedReadersRejectLegacySchemas) {
  // The reader accepts only the current aggregated schema. Each older
  // generation — without the weighted metric columns, then also without
  // stopping_reason, then also without failed_trials — must be rejected
  // rather than read back with default values.
  const CampaignResult result = run_campaign(small_campaign(2));
  std::ostringstream csv;
  write_campaign_rows_csv(csv, result.rows);

  const auto strip_csv_columns = [](const std::string& text, std::size_t col,
                                    std::size_t count) {
    std::istringstream in(text);
    std::ostringstream out;
    std::string line;
    while (std::getline(in, line)) {
      std::vector<std::string> fields;
      std::string field;
      std::istringstream ls(line);
      while (std::getline(ls, field, ',')) fields.push_back(field);
      fields.erase(fields.begin() + static_cast<std::ptrdiff_t>(col),
                   fields.begin() + static_cast<std::ptrdiff_t>(col + count));
      for (std::size_t i = 0; i < fields.size(); ++i) {
        out << (i == 0 ? "" : ",") << fields[i];
      }
      out << '\n';
    }
    return out.str();
  };
  // -the 9x4 weighted metric columns (they trail the schema)
  const std::string gen3 =
      strip_csv_columns(csv.str(), 6 + kNumCampaignMetrics * 4,
                        kNumCampaignMetrics * 4);
  const std::string gen2 = strip_csv_columns(gen3, 5, 1);  // -stopping_reason
  const std::string gen1 = strip_csv_columns(gen2, 4, 1);  // -failed_trials
  for (const std::string* text : {&gen3, &gen2, &gen1}) {
    std::istringstream in(*text);
    EXPECT_THROW((void)read_campaign_rows_csv(in), std::invalid_argument);
  }
}

TEST(Campaign, AdaptiveRowsSurviveSerializationRoundTrip) {
  CampaignSpec campaign = small_campaign(8);
  campaign.target_stderr = 0.5;
  campaign.wave_size = 2;
  const CampaignResult result = run_campaign(campaign);
  ASSERT_FALSE(result.rows.empty());
  ASSERT_EQ(result.rows.front().stopping, StoppingReason::kConverged);

  std::ostringstream csv;
  write_campaign_rows_csv(csv, result.rows);
  EXPECT_NE(csv.str().find("stopping_reason"), std::string::npos);
  EXPECT_NE(csv.str().find("converged"), std::string::npos);
  std::istringstream csv_in(csv.str());
  EXPECT_EQ(read_campaign_rows_csv(csv_in), result.rows);
}

}  // namespace
}  // namespace sbgp::sim
