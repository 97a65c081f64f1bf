// Baseline-diff tests: exact per-column comparison of per-trial rows,
// tolerance/stderr-aware comparison of aggregated rows, and the report
// formatting the CI gate prints on divergence.
#include <gtest/gtest.h>

#include <limits>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "sim/campaign_diff.h"
#include "sim/campaign_io.h"

namespace sbgp::sim {
namespace {

using routing::SecurityModel;

std::vector<CampaignTrialRow> sample_trial_rows() {
  std::vector<CampaignTrialRow> rows;
  for (std::size_t t = 0; t < 2; ++t) {
    CampaignTrialRow r;
    r.topology = "tiny-500";
    r.trial = t;
    r.topology_seed = 1000 + t;
    r.spec_index = 0;
    r.row.label = "diff-test";
    r.row.step_label = "step";
    r.row.model = SecurityModel::kSecurityThird;
    r.row.num_attackers = 3;
    r.row.num_destinations = 3;
    r.row.stats.pairs = 9;
    r.row.stats.partitions.doomed = 2 + t;
    r.row.stats.partitions.protectable = 3;
    r.row.stats.partitions.immune = 4 - t;
    r.row.stats.partitions.sources = 9;
    rows.push_back(std::move(r));
  }
  return rows;
}

std::vector<CampaignRow> sample_campaign_rows() {
  CampaignRow r;
  r.label = "diff-test";
  r.topology = "tiny-500";
  r.spec_index = 0;
  r.trials = 2;
  for (auto& m : r.metrics) m = {0.5, 0.01, 0.4, 0.6};
  return {r};
}

TEST(CampaignDiff, TrialRowColumnsAlignWithValues) {
  const auto rows = sample_trial_rows();
  const auto& columns = trial_row_columns();
  const auto values = trial_row_values(rows[0]);
  ASSERT_EQ(columns.size(), values.size());
  // Spot-check the schema: identity columns lead, counters follow.
  EXPECT_EQ(columns.front(), "topology");
  EXPECT_EQ(values.front(), "tiny-500");
}

TEST(CampaignDiff, IdenticalTrialRowsAreClean) {
  const auto rows = sample_trial_rows();
  const DiffReport report = diff_trial_rows(rows, rows);
  EXPECT_TRUE(report.clean());
  EXPECT_EQ(report.rows_compared, rows.size());
  std::ostringstream os;
  print_diff_report(os, report);
  EXPECT_NE(os.str().find("identical"), std::string::npos);
}

TEST(CampaignDiff, CounterChangeNamesRowAndColumn) {
  const auto baseline = sample_trial_rows();
  auto candidate = baseline;
  candidate[1].row.stats.partitions.doomed += 5;
  const DiffReport report = diff_trial_rows(baseline, candidate);
  EXPECT_FALSE(report.clean());
  ASSERT_EQ(report.divergences.size(), 1u);
  EXPECT_EQ(report.divergences[0].column, "doomed");
  EXPECT_NE(report.divergences[0].row.find("trial 1"), std::string::npos);
  EXPECT_EQ(report.divergences[0].baseline, "3");
  EXPECT_EQ(report.divergences[0].candidate, "8");
  std::ostringstream os;
  print_diff_report(os, report);
  EXPECT_NE(os.str().find("doomed"), std::string::npos);
  EXPECT_NE(os.str().find("1 divergence"), std::string::npos);
}

TEST(CampaignDiff, RowCountMismatchIsNotClean) {
  const auto baseline = sample_trial_rows();
  auto candidate = baseline;
  candidate.pop_back();
  const DiffReport report = diff_trial_rows(baseline, candidate);
  EXPECT_FALSE(report.clean());
  EXPECT_TRUE(report.divergences.empty()) << "shared prefix matches";
  std::ostringstream os;
  print_diff_report(os, report);
  EXPECT_NE(os.str().find("row count mismatch"), std::string::npos);
}

TEST(CampaignDiff, AggregatedRowsExactByDefault) {
  const auto baseline = sample_campaign_rows();
  auto candidate = baseline;
  EXPECT_TRUE(diff_campaign_rows(baseline, candidate).clean());

  candidate[0].metrics[2].mean += 1e-9;
  const DiffReport report = diff_campaign_rows(baseline, candidate);
  EXPECT_FALSE(report.clean());
  ASSERT_EQ(report.divergences.size(), 1u);
  EXPECT_EQ(report.divergences[0].column, "doomed_mean");
}

TEST(CampaignDiff, AbsToleranceAndStderrScaleAdmitSmallDrift) {
  const auto baseline = sample_campaign_rows();
  auto candidate = baseline;
  candidate[0].metrics[2].mean += 1e-9;

  DiffOptions abs_tol;
  abs_tol.abs_tol = 1e-8;
  EXPECT_TRUE(diff_campaign_rows(baseline, candidate, abs_tol).clean());

  // Drift inside one combined stderr (0.02) passes at stderr_scale >= 1
  // but not at 0.5.
  candidate = baseline;
  candidate[0].metrics[2].mean += 0.015;
  DiffOptions by_stderr;
  by_stderr.stderr_scale = 1.0;
  EXPECT_TRUE(diff_campaign_rows(baseline, candidate, by_stderr).clean());
  by_stderr.stderr_scale = 0.5;
  EXPECT_FALSE(diff_campaign_rows(baseline, candidate, by_stderr).clean());
}

TEST(CampaignDiff, RejectsTolerancesThatDisableTheGate) {
  const auto baseline = sample_campaign_rows();
  auto candidate = baseline;
  candidate[0].metrics[0].mean = 0.25;
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  for (const double bad : {inf, nan, -1.0}) {
    DiffOptions abs_tol;
    abs_tol.abs_tol = bad;
    EXPECT_THROW((void)diff_campaign_rows(baseline, candidate, abs_tol),
                 std::invalid_argument)
        << "abs_tol " << bad;
    DiffOptions by_stderr;
    by_stderr.stderr_scale = bad;
    EXPECT_THROW((void)diff_campaign_rows(baseline, candidate, by_stderr),
                 std::invalid_argument)
        << "stderr_scale " << bad;
  }
  // The largest finite tolerances are still legal.
  DiffOptions huge;
  huge.abs_tol = std::numeric_limits<double>::max();
  huge.stderr_scale = std::numeric_limits<double>::max();
  EXPECT_TRUE(diff_campaign_rows(baseline, candidate, huge).clean());
}

TEST(CampaignDiff, IdentityColumnChangesAreDivergences) {
  const auto baseline = sample_campaign_rows();
  auto candidate = baseline;
  candidate[0].label = "renamed";
  candidate[0].trials = 3;
  const DiffReport report = diff_campaign_rows(baseline, candidate);
  ASSERT_EQ(report.divergences.size(), 2u);
  EXPECT_EQ(report.divergences[0].column, "label");
  EXPECT_EQ(report.divergences[1].column, "trials");
}

TEST(CampaignDiff, StoppingReasonIsExactByDefault) {
  const auto baseline = sample_campaign_rows();
  auto candidate = baseline;
  candidate[0].stopping = StoppingReason::kConverged;
  const DiffReport report = diff_campaign_rows(baseline, candidate);
  ASSERT_EQ(report.divergences.size(), 1u);
  EXPECT_EQ(report.divergences[0].column, "stopping_reason");
  EXPECT_EQ(report.divergences[0].baseline, "fixed");
  EXPECT_EQ(report.divergences[0].candidate, "converged");
}

TEST(CampaignDiff, AdaptiveModeGatesMeansAndNotesCounts) {
  // An adaptive candidate against a fixed baseline: fewer realized
  // trials, a different stopping reason, and a shifted stderr/min/max
  // envelope — all legitimate, so with --adaptive the report is clean and
  // the count differences surface as notes. The same pair under the
  // default exact options must diverge loudly.
  const auto baseline = sample_campaign_rows();
  auto candidate = baseline;
  candidate[0].trials = 1;  // stopped early
  candidate[0].stopping = StoppingReason::kConverged;
  candidate[0].metrics[2].mean += 0.015;      // within 1 combined stderr
  candidate[0].metrics[2].std_error = 0.01;
  candidate[0].metrics[2].min = 0.3;          // envelope moved with count
  candidate[0].metrics[2].max = 0.7;

  DiffOptions adaptive;
  adaptive.adaptive = true;
  adaptive.stderr_scale = 1.0;
  const DiffReport report = diff_campaign_rows(baseline, candidate, adaptive);
  EXPECT_TRUE(report.clean());
  ASSERT_EQ(report.notes.size(), 1u);
  EXPECT_NE(report.notes[0].find("trials baseline 2"), std::string::npos)
      << report.notes[0];
  EXPECT_NE(report.notes[0].find("candidate 1 (converged"), std::string::npos)
      << report.notes[0];

  // A mean outside tolerance still fails, even in adaptive mode.
  auto drifted = candidate;
  drifted[0].metrics[2].mean = baseline[0].metrics[2].mean + 0.5;
  EXPECT_FALSE(diff_campaign_rows(baseline, drifted, adaptive).clean());

  // Exactly the same pair without --adaptive: trials, stopping reason and
  // the moved summary parts all count.
  const DiffReport exact = diff_campaign_rows(baseline, candidate);
  EXPECT_FALSE(exact.clean());
  EXPECT_GE(exact.divergences.size(), 3u);
}

TEST(CampaignDiff, NotesPrintBeforeCleanVerdict) {
  const auto baseline = sample_campaign_rows();
  auto candidate = baseline;
  candidate[0].trials = 1;
  DiffOptions adaptive;
  adaptive.adaptive = true;
  const DiffReport report = diff_campaign_rows(baseline, candidate, adaptive);
  std::ostringstream os;
  print_diff_report(os, report);
  const std::string text = os.str();
  EXPECT_NE(text.find("note: "), std::string::npos) << text;
  EXPECT_LT(text.find("note: "), text.find("identical")) << text;
}

}  // namespace
}  // namespace sbgp::sim
