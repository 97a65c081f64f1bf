// Baseline diffing of serialized campaign result rows — the library
// behind tools/campaign_diff.cc and CI's regression gate.
//
// Per-trial rows are raw integer counters, deterministic down to the byte
// for a fixed (topology params, trial seed, spec) triple, so they are
// compared exactly, column by column. Aggregated rows carry derived
// double summaries; they are compared per metric with a caller-chosen
// tolerance — an absolute slack plus an optional multiple of the two
// rows' standard errors, for comparing campaigns that legitimately differ
// in sampling (different seeds, machines with different libstdc++
// distributions) but should agree statistically. Every divergence names
// the row and column that moved, so a gate failure reads as a per-metric
// report, not a bare exit code.
#ifndef SBGP_SIM_CAMPAIGN_DIFF_H
#define SBGP_SIM_CAMPAIGN_DIFF_H

#include <cstddef>
#include <iosfwd>
#include <string>
#include <vector>

#include "sim/campaign.h"

namespace sbgp::sim {

/// Tolerances for aggregated-row comparison. The defaults demand exact
/// equality — right for regression-gating one deterministic invocation
/// against its committed baseline.
struct DiffOptions {
  /// Absolute slack: values within abs_tol always match.
  double abs_tol = 0.0;
  /// Statistical slack: a metric's values additionally match within
  /// stderr_scale * (baseline std_error + candidate std_error).
  double stderr_scale = 0.0;
  /// Adaptive-vs-fixed comparison: the two row sets legitimately differ
  /// in realized trial counts (sequential stopping ended one of them
  /// early), so `trials`, `failed_trials` and the stopping reason are
  /// reported as informational notes instead of divergences, and only the
  /// metric means are compared (within abs_tol + stderr_scale * combined
  /// stderr — stderr/min/max shift with the trial count by construction).
  /// Off by default: the exact gate stays the regression default.
  bool adaptive = false;
};

/// One value that moved: which row, which column, and both renderings.
struct Divergence {
  std::string row;     // e.g. "trial 1 spec 2 (t1-t2/... security 3rd)"
  std::string column;  // e.g. "happy_lower" or "doomed_mean"
  std::string baseline;
  std::string candidate;
};

struct DiffReport {
  std::size_t baseline_rows = 0;
  std::size_t candidate_rows = 0;
  std::size_t rows_compared = 0;  // min of the two counts
  std::vector<Divergence> divergences;
  /// Informational lines (adaptive mode: realized trial counts and
  /// stopping reasons per row). Printed by print_diff_report; never make
  /// the report unclean.
  std::vector<std::string> notes;

  /// No divergences and equal row counts.
  [[nodiscard]] bool clean() const {
    return divergences.empty() && baseline_rows == candidate_rows;
  }
};

/// Exact per-column comparison of two per-trial row sets (rows matched by
/// position; extra rows on either side make the report unclean).
[[nodiscard]] DiffReport diff_trial_rows(
    const std::vector<CampaignTrialRow>& baseline,
    const std::vector<CampaignTrialRow>& candidate);

/// Tolerance-aware comparison of two aggregated row sets: identity columns
/// (label, topology, spec, trials) exactly, every metric summary value per
/// DiffOptions. Throws std::invalid_argument when a tolerance is negative,
/// infinite or NaN.
[[nodiscard]] DiffReport diff_campaign_rows(
    const std::vector<CampaignRow>& baseline,
    const std::vector<CampaignRow>& candidate, const DiffOptions& opts = {});

/// Human-readable per-metric report: one line per divergence plus a
/// row-count line, or a single "identical" line for a clean report.
void print_diff_report(std::ostream& os, const DiffReport& report);

}  // namespace sbgp::sim

#endif  // SBGP_SIM_CAMPAIGN_DIFF_H
