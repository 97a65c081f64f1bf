// Campaign result serialization: CSV writers and their round-trip readers.
//
// Per-trial rows carry the raw integer counters of every analysis (exact
// decimal serialization), so written results can be diffed byte-for-byte
// across machines and thread counts, re-aggregated offline, or compared in
// CI against a checked-in baseline. Aggregated rows carry the derived
// metric summaries (mean/stderr/min/max) formatted with max_digits10, so
// parsing returns the identical doubles. Both row kinds are flat and
// self-describing: each file starts with a header line the readers verify.
#ifndef SBGP_SIM_CAMPAIGN_IO_H
#define SBGP_SIM_CAMPAIGN_IO_H

#include <array>
#include <iosfwd>
#include <string>
#include <string_view>
#include <vector>

#include "sim/campaign.h"

namespace sbgp::sim {

// --- per-trial rows --------------------------------------------------------

// The per-trial schema has two generations. The legacy one carries the 8
// identity columns plus the 31 unweighted counters; the weighted one
// appends `weight` (sum of pair weights — the weighted `pairs`) and a
// `w_`-prefixed mirror of every analysis counter. Writers emit the legacy
// layout whenever every row is uniform-weight (so existing baselines and
// cache entries stay byte-identical) and the weighted layout otherwise;
// readers accept both, reconstructing the mirrors (weight = pairs,
// w_X = X) from legacy files — which is exactly what those files mean.

/// Column names of the FULL per-trial row schema (weighted generation) in
/// serialization order — the CSV header fields. Shared by the writers, the
/// header-checking readers, and the baseline differ (campaign_diff.h). The
/// legacy generation is a strict prefix.
[[nodiscard]] const std::vector<std::string>& trial_row_columns();

/// One row's values as strings aligned with trial_row_columns(): exactly
/// the fields write_trial_rows_csv emits in weighted form (integer
/// counters in exact decimal), so two rows are byte-identical in
/// serialized form iff their value vectors are equal.
[[nodiscard]] std::vector<std::string> trial_row_values(
    const CampaignTrialRow& row);

/// True iff the row's weighted mirrors say exactly what a weight-1 model
/// produces: weight == pairs and every w_ counter equals its unweighted
/// counterpart. Such rows serialize in the legacy layout.
[[nodiscard]] bool is_uniform_weight(const CampaignTrialRow& row);

/// Auto-detecting writer: legacy layout iff every row is_uniform_weight.
void write_trial_rows_csv(std::ostream& os,
                          const std::vector<CampaignTrialRow>& rows);
/// Explicit-generation writer (matches TrialRowCsvAppender(os, weighted)),
/// for callers that must fix the layout before seeing the rows — e.g. a
/// streaming sink whose file must stay byte-identical to the end-of-run
/// writer's. Throws std::logic_error if a non-uniform row meets
/// weighted == false.
void write_trial_rows_csv(std::ostream& os,
                          const std::vector<CampaignTrialRow>& rows,
                          bool weighted);
/// Parses either generation write_trial_rows_csv produces. Throws
/// std::invalid_argument on a header mismatch or malformed row.
[[nodiscard]] std::vector<CampaignTrialRow> read_trial_rows_csv(
    std::istream& is);

/// Streaming per-trial CSV sink: the header is written at construction,
/// one row per append(). Wiring `append` as a sim::RowSink streams rows to
/// disk as cells complete, and the resulting file is byte-identical to
/// write_trial_rows_csv over the same row sequence (that writer is built
/// on this class). The stream must outlive the appender.
class TrialRowCsvAppender {
 public:
  /// `weighted` picks the schema generation up front (the header precedes
  /// every row): false = legacy columns, true = the full weighted layout.
  /// Appending a non-uniform-weight row to a legacy appender throws
  /// std::logic_error — silently dropping the mirrors would lose data.
  explicit TrialRowCsvAppender(std::ostream& os, bool weighted = false);
  void append(const CampaignTrialRow& row);

 private:
  std::ostream* os_;
  bool weighted_;
};

// --- aggregated rows -------------------------------------------------------

// One aggregated schema: identity columns including `failed_trials` and
// `stopping_reason` ("fixed" / "converged" / "budget", sim::StoppingReason),
// then one `<metric>_<part>` column per campaign metric and summary part,
// and their traffic-weighted `w_<metric>_<part>` twins. The reader accepts
// exactly what the writer emits: an older header throws
// std::invalid_argument.

/// The summary parts of every aggregated metric, in column order: the
/// `<part>` of each `<metric>_<part>` column. The baseline differ
/// (campaign_diff.h) names its divergences with them.
inline constexpr std::array<std::string_view, 4> kSummaryParts = {
    "mean", "stderr", "min", "max"};
/// A summary's values aligned with kSummaryParts.
[[nodiscard]] std::array<double, 4> summary_values(const MetricSummary& m);

void write_campaign_rows_csv(std::ostream& os,
                             const std::vector<CampaignRow>& rows);
[[nodiscard]] std::vector<CampaignRow> read_campaign_rows_csv(
    std::istream& is);

}  // namespace sbgp::sim

#endif  // SBGP_SIM_CAMPAIGN_IO_H
