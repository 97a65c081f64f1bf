#include "sim/campaign_diff.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <ostream>
#include <stdexcept>
#include <string>
#include <string_view>

#include "sim/campaign_io.h"
#include "util/csv.h"

namespace sbgp::sim {

namespace {

std::string trial_row_id(const CampaignTrialRow& r) {
  return "trial " + std::to_string(r.trial) + " spec " +
         std::to_string(r.spec_index) + " (" + r.row.label + ")";
}

std::string campaign_row_id(const CampaignRow& r) {
  return "spec " + std::to_string(r.spec_index) + " (" + r.label + ")";
}

}  // namespace

DiffReport diff_trial_rows(const std::vector<CampaignTrialRow>& baseline,
                           const std::vector<CampaignTrialRow>& candidate) {
  DiffReport report;
  report.baseline_rows = baseline.size();
  report.candidate_rows = candidate.size();
  report.rows_compared = std::min(baseline.size(), candidate.size());
  const std::vector<std::string>& columns = trial_row_columns();
  for (std::size_t i = 0; i < report.rows_compared; ++i) {
    const auto a = trial_row_values(baseline[i]);
    const auto b = trial_row_values(candidate[i]);
    for (std::size_t c = 0; c < columns.size(); ++c) {
      if (a[c] != b[c]) {
        report.divergences.push_back(
            {trial_row_id(baseline[i]), columns[c], a[c], b[c]});
      }
    }
  }
  return report;
}

DiffReport diff_campaign_rows(const std::vector<CampaignRow>& baseline,
                              const std::vector<CampaignRow>& candidate,
                              const DiffOptions& opts) {
  // Written so NaN fails too; an infinite tolerance would pass everything.
  for (const double tol : {opts.abs_tol, opts.stderr_scale}) {
    if (!(std::isfinite(tol) && tol >= 0.0)) {
      throw std::invalid_argument(
          "diff_campaign_rows: tolerances must be finite and >= 0");
    }
  }
  DiffReport report;
  report.baseline_rows = baseline.size();
  report.candidate_rows = candidate.size();
  report.rows_compared = std::min(baseline.size(), candidate.size());
  const auto& names = campaign_metric_names();
  for (std::size_t i = 0; i < report.rows_compared; ++i) {
    const CampaignRow& a = baseline[i];
    const CampaignRow& b = candidate[i];
    const std::string id = campaign_row_id(a);
    if (a.label != b.label) {
      report.divergences.push_back({id, "label", a.label, b.label});
    }
    if (a.topology != b.topology) {
      report.divergences.push_back({id, "topology", a.topology, b.topology});
    }
    if (a.spec_index != b.spec_index) {
      report.divergences.push_back({id, "spec", std::to_string(a.spec_index),
                                    std::to_string(b.spec_index)});
    }
    if (opts.adaptive) {
      // The two runs legitimately realized different trial counts
      // (sequential stopping ended one early), so the count columns are
      // reported, not gated.
      report.notes.push_back(
          id + ": trials baseline " + std::to_string(a.trials) + " (" +
          std::string(to_string(a.stopping)) + ", " +
          std::to_string(a.failed_trials) + " failed), candidate " +
          std::to_string(b.trials) + " (" +
          std::string(to_string(b.stopping)) + ", " +
          std::to_string(b.failed_trials) + " failed)");
    } else {
      if (a.trials != b.trials) {
        report.divergences.push_back(
            {id, "trials", std::to_string(a.trials),
             std::to_string(b.trials)});
      }
      // Exact, like trials: a candidate that silently dropped cells must
      // not pass the gate just because the surviving means stayed in
      // tolerance.
      if (a.failed_trials != b.failed_trials) {
        report.divergences.push_back({id, "failed_trials",
                                      std::to_string(a.failed_trials),
                                      std::to_string(b.failed_trials)});
      }
      if (a.stopping != b.stopping) {
        report.divergences.push_back({id, "stopping_reason",
                                      std::string(to_string(a.stopping)),
                                      std::string(to_string(b.stopping))});
      }
    }
    // Both metric sets are gated the same way; the weighted columns carry
    // a "w_" prefix in the report. Uniform-weight runs keep the weighted
    // set exactly equal to the unweighted one (division exactness), so
    // comparing both never flags a legacy baseline twice spuriously.
    const auto gate_metrics =
        [&](const std::array<MetricSummary, kNumCampaignMetrics>& ma,
            const std::array<MetricSummary, kNumCampaignMetrics>& mb,
            std::string_view prefix) {
          for (std::size_t m = 0; m < kNumCampaignMetrics; ++m) {
            const auto va = summary_values(ma[m]);
            const auto vb = summary_values(mb[m]);
            // The stderr-aware slack uses both rows' standard errors, so
            // the gate is symmetric in baseline and candidate.
            const double combined_se = ma[m].std_error + mb[m].std_error;
            const double tol = opts.abs_tol + opts.stderr_scale * combined_se;
            // Adaptive mode compares only the means: stderr, min and max
            // move with the realized trial count by construction.
            const std::size_t parts = opts.adaptive ? 1 : kSummaryParts.size();
            for (std::size_t p = 0; p < parts; ++p) {
              // Written so a NaN on either side fails the comparison.
              if (!(std::fabs(va[p] - vb[p]) <= tol)) {
                report.divergences.push_back(
                    {id,
                     std::string(prefix) + std::string(names[m]) + '_' +
                         std::string(kSummaryParts[p]),
                     util::format_double(va[p]), util::format_double(vb[p])});
              }
            }
          }
        };
    gate_metrics(a.metrics, b.metrics, "");
    gate_metrics(a.weighted_metrics, b.weighted_metrics, "w_");
  }
  return report;
}

void print_diff_report(std::ostream& os, const DiffReport& report) {
  for (const auto& note : report.notes) {
    os << "note: " << note << '\n';
  }
  if (report.clean()) {
    os << "identical: " << report.rows_compared
       << " rows, no metric divergence\n";
    return;
  }
  if (report.baseline_rows != report.candidate_rows) {
    os << "row count mismatch: baseline " << report.baseline_rows
       << " rows, candidate " << report.candidate_rows << " rows\n";
  }
  for (const auto& d : report.divergences) {
    os << d.row << ": " << d.column << ": baseline " << d.baseline
       << ", candidate " << d.candidate << '\n';
  }
  os << report.divergences.size() << " divergence(s) across "
     << report.rows_compared << " compared row(s)\n";
}

}  // namespace sbgp::sim
