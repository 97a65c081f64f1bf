#include "sim/campaign_io.h"

#include <array>
#include <cstdint>
#include <istream>
#include <ostream>
#include <stdexcept>
#include <string>
#include <string_view>
#include <tuple>
#include <utility>

#include "util/csv.h"

namespace sbgp::sim {

namespace {

using util::csv_line;
using util::format_double;
using util::parse_double;
using util::parse_u64;
using util::split_csv_line;

// --- shared column schema --------------------------------------------------

/// Leading identity columns of a per-trial row; the integer counter
/// columns of kCounterNames follow.
constexpr std::array<std::string_view, 8> kIdNames = {
    "topology", "trial",      "topology_seed", "spec",
    "label",    "step_label", "model",         "hysteresis"};

constexpr std::array<std::string_view, 31> kCounterNames = {
    "num_non_stub_secure",
    "total_secure",
    "num_attackers",
    "num_destinations",
    "pairs",
    "happy_lower",
    "happy_upper",
    "happy_sources",
    "doomed",
    "protectable",
    "immune",
    "partition_sources",
    "dg_sources",
    "dg_secure_normal",
    "dg_downgraded",
    "dg_secure_kept",
    "dg_kept_and_immune",
    "col_insecure_sources",
    "col_benefits",
    "col_damages",
    "col_benefits_upper",
    "col_damages_upper",
    "rc_sources",
    "rc_secure_normal",
    "rc_downgraded",
    "rc_secure_wasted",
    "rc_secure_protecting",
    "rc_collateral_benefits",
    "rc_collateral_damages",
    "rc_happy_baseline",
    "rc_happy_deployed",
};

/// Counters of kCounterNames that have a traffic-weighted mirror: the
/// analysis counters (everything past the four population columns). The
/// weighted schema appends "weight" (the weighted `pairs`) plus one
/// "w_"-prefixed column per mirrored counter.
constexpr std::size_t kFirstMirroredCounter = 5;
constexpr std::size_t kNumWeightedCounters =
    1 + (kCounterNames.size() - kFirstMirroredCounter);

/// Pointers to the row's counters in kCounterNames order; `Row` is
/// CampaignTrialRow or const CampaignTrialRow, so writers and readers
/// share one schema definition.
template <typename Row>
auto counter_slots(Row& r) {
  auto& e = r.row;
  auto& s = e.stats;
  return std::array{
      &e.num_non_stub_secure,
      &e.total_secure,
      &e.num_attackers,
      &e.num_destinations,
      &s.pairs,
      &s.happiness.happy_lower,
      &s.happiness.happy_upper,
      &s.happiness.sources,
      &s.partitions.doomed,
      &s.partitions.protectable,
      &s.partitions.immune,
      &s.partitions.sources,
      &s.downgrades.sources,
      &s.downgrades.secure_normal,
      &s.downgrades.downgraded,
      &s.downgrades.secure_kept,
      &s.downgrades.kept_and_immune,
      &s.collateral.insecure_sources,
      &s.collateral.benefits,
      &s.collateral.damages,
      &s.collateral.benefits_upper,
      &s.collateral.damages_upper,
      &s.root_causes.sources,
      &s.root_causes.secure_normal,
      &s.root_causes.downgraded,
      &s.root_causes.secure_wasted,
      &s.root_causes.secure_protecting,
      &s.root_causes.collateral_benefits,
      &s.root_causes.collateral_damages,
      &s.root_causes.happy_baseline,
      &s.root_causes.happy_deployed,
  };
}

/// Pointers to the weighted mirrors, aligned with the weighted column
/// block: "weight" first, then the w_ mirror of kCounterNames[i] for
/// every i >= kFirstMirroredCounter.
template <typename Row>
auto weighted_counter_slots(Row& r) {
  auto& s = r.row.stats;
  return std::array{
      &s.weight,
      &s.w_happiness.happy_lower,
      &s.w_happiness.happy_upper,
      &s.w_happiness.sources,
      &s.w_partitions.doomed,
      &s.w_partitions.protectable,
      &s.w_partitions.immune,
      &s.w_partitions.sources,
      &s.w_downgrades.sources,
      &s.w_downgrades.secure_normal,
      &s.w_downgrades.downgraded,
      &s.w_downgrades.secure_kept,
      &s.w_downgrades.kept_and_immune,
      &s.w_collateral.insecure_sources,
      &s.w_collateral.benefits,
      &s.w_collateral.damages,
      &s.w_collateral.benefits_upper,
      &s.w_collateral.damages_upper,
      &s.w_root_causes.sources,
      &s.w_root_causes.secure_normal,
      &s.w_root_causes.downgraded,
      &s.w_root_causes.secure_wasted,
      &s.w_root_causes.secure_protecting,
      &s.w_root_causes.collateral_benefits,
      &s.w_root_causes.collateral_damages,
      &s.w_root_causes.happy_baseline,
      &s.w_root_causes.happy_deployed,
  };
}
static_assert(std::tuple_size_v<decltype(weighted_counter_slots(
                  std::declval<CampaignTrialRow&>()))> == kNumWeightedCounters);

/// Names of the weighted column block, aligned with weighted_counter_slots.
std::vector<std::string> weighted_column_names() {
  std::vector<std::string> names;
  names.reserve(kNumWeightedCounters);
  names.emplace_back("weight");
  for (std::size_t i = kFirstMirroredCounter; i < kCounterNames.size(); ++i) {
    names.push_back("w_" + std::string(kCounterNames[i]));
  }
  return names;
}

/// Legacy (pre-weighted) column list: identities + unweighted counters.
const std::vector<std::string>& legacy_trial_row_columns() {
  static const std::vector<std::string> columns = [] {
    std::vector<std::string> names;
    names.reserve(kIdNames.size() + kCounterNames.size());
    for (const auto name : kIdNames) names.emplace_back(name);
    for (const auto name : kCounterNames) names.emplace_back(name);
    return names;
  }();
  return columns;
}

/// A legacy row (no weighted columns on disk) means a uniform-weight run:
/// make the in-memory mirrors say so explicitly.
void reconstruct_uniform_weights(CampaignTrialRow& r) {
  auto& s = r.row.stats;
  s.weight = s.pairs;
  s.w_happiness = s.happiness;
  s.w_partitions = s.partitions;
  s.w_downgrades = s.downgrades;
  s.w_collateral = s.collateral;
  s.w_root_causes = s.root_causes;
}

bool all_uniform_weight(const std::vector<CampaignTrialRow>& rows) {
  for (const auto& r : rows) {
    if (!is_uniform_weight(r)) return false;
  }
  return true;
}

routing::SecurityModel parse_model(std::string_view s) {
  for (const auto m : {routing::SecurityModel::kInsecure,
                       routing::SecurityModel::kSecurityFirst,
                       routing::SecurityModel::kSecuritySecond,
                       routing::SecurityModel::kSecurityThird}) {
    if (to_string(m) == s) return m;
  }
  throw std::invalid_argument("campaign_io: unknown security model '" +
                              std::string(s) + "'");
}

bool parse_bool(std::string_view s) {
  if (s == "1" || s == "true") return true;
  if (s == "0" || s == "false") return false;
  throw std::invalid_argument("campaign_io: bad bool field '" +
                              std::string(s) + "'");
}

MetricSummary summary_from(const std::array<double, 4>& v) {
  return {v[0], v[1], v[2], v[3]};
}

/// Aggregated CSV header: identity columns, then the unweighted and the
/// w_-prefixed weighted metric summaries.
const std::vector<std::string>& campaign_row_columns() {
  static const std::vector<std::string> columns = [] {
    std::vector<std::string> names = {
        "label", "topology", "spec", "trials", "failed_trials",
        "stopping_reason"};
    for (const std::string_view prefix : {"", "w_"}) {
      for (const auto metric : campaign_metric_names()) {
        for (const auto part : kSummaryParts) {
          names.push_back(std::string(prefix) + std::string(metric) + '_' +
                          std::string(part));
        }
      }
    }
    return names;
  }();
  return columns;
}

/// Reads one line; `ok` is false at the end of input. Every writer ends
/// every line with '\n', so a line cut off by the end of input is a
/// truncated file (a torn cache copy) and throws, naming `reader`.
std::string read_line(std::istream& is, bool& ok, const char* reader) {
  std::string line;
  ok = static_cast<bool>(std::getline(is, line));
  if (ok && is.eof()) {
    throw std::invalid_argument(std::string(reader) +
                                ": truncated line (no final newline)");
  }
  if (ok && !line.empty() && line.back() == '\r') line.pop_back();
  return line;
}

}  // namespace

// --- per-trial rows --------------------------------------------------------

const std::vector<std::string>& trial_row_columns() {
  static const std::vector<std::string> columns = [] {
    std::vector<std::string> names = legacy_trial_row_columns();
    for (auto& name : weighted_column_names()) names.push_back(name);
    return names;
  }();
  return columns;
}

std::vector<std::string> trial_row_values(const CampaignTrialRow& r) {
  std::vector<std::string> fields;
  fields.reserve(trial_row_columns().size());
  fields.push_back(r.topology);
  fields.push_back(std::to_string(r.trial));
  fields.push_back(std::to_string(r.topology_seed));
  fields.push_back(std::to_string(r.spec_index));
  fields.push_back(r.row.label);
  fields.push_back(r.row.step_label);
  fields.emplace_back(to_string(r.row.model));
  fields.push_back(r.row.hysteresis ? "1" : "0");
  for (const auto* slot : counter_slots(r)) {
    fields.push_back(std::to_string(*slot));
  }
  for (const auto* slot : weighted_counter_slots(r)) {
    fields.push_back(std::to_string(*slot));
  }
  return fields;
}

bool is_uniform_weight(const CampaignTrialRow& r) {
  const auto& s = r.row.stats;
  return s.weight == s.pairs && s.w_happiness == s.happiness &&
         s.w_partitions == s.partitions && s.w_downgrades == s.downgrades &&
         s.w_collateral == s.collateral && s.w_root_causes == s.root_causes;
}

TrialRowCsvAppender::TrialRowCsvAppender(std::ostream& os, bool weighted)
    : os_(&os), weighted_(weighted) {
  *os_ << csv_line(weighted ? trial_row_columns() : legacy_trial_row_columns())
       << '\n';
}

void TrialRowCsvAppender::append(const CampaignTrialRow& row) {
  std::vector<std::string> fields = trial_row_values(row);
  if (!weighted_) {
    if (!is_uniform_weight(row)) {
      throw std::logic_error(
          "TrialRowCsvAppender: non-uniform-weight row appended to a "
          "legacy-layout file; construct the appender with weighted = true");
    }
    fields.resize(legacy_trial_row_columns().size());
  }
  *os_ << csv_line(fields) << '\n';
}

void write_trial_rows_csv(std::ostream& os,
                          const std::vector<CampaignTrialRow>& rows,
                          bool weighted) {
  TrialRowCsvAppender appender(os, weighted);
  for (const auto& r : rows) appender.append(r);
}

void write_trial_rows_csv(std::ostream& os,
                          const std::vector<CampaignTrialRow>& rows) {
  write_trial_rows_csv(os, rows, !all_uniform_weight(rows));
}

std::vector<CampaignTrialRow> read_trial_rows_csv(std::istream& is) {
  bool ok = false;
  const std::string header = read_line(is, ok, "read_trial_rows_csv");
  if (!ok) {
    throw std::invalid_argument("read_trial_rows_csv: empty input");
  }
  const auto header_fields = split_csv_line(header);
  bool weighted = true;
  if (header_fields == legacy_trial_row_columns()) {
    weighted = false;
  } else if (header_fields != trial_row_columns()) {
    throw std::invalid_argument("read_trial_rows_csv: header mismatch");
  }
  std::vector<CampaignTrialRow> rows;
  for (;;) {
    const std::string line = read_line(is, ok, "read_trial_rows_csv");
    if (!ok) break;
    if (line.empty()) continue;
    const auto fields = split_csv_line(line);
    if (fields.size() != header_fields.size()) {
      throw std::invalid_argument("read_trial_rows_csv: bad row arity");
    }
    CampaignTrialRow r;
    r.topology = fields[0];
    r.trial = static_cast<std::size_t>(parse_u64(fields[1]));
    r.topology_seed = parse_u64(fields[2]);
    r.spec_index = static_cast<std::size_t>(parse_u64(fields[3]));
    r.row.label = fields[4];
    r.row.step_label = fields[5];
    r.row.model = parse_model(fields[6]);
    r.row.hysteresis = parse_bool(fields[7]);
    const auto slots = counter_slots(r);
    for (std::size_t i = 0; i < slots.size(); ++i) {
      *slots[i] =
          static_cast<std::size_t>(parse_u64(fields[kIdNames.size() + i]));
    }
    if (weighted) {
      const auto w_slots = weighted_counter_slots(r);
      const std::size_t base = kIdNames.size() + slots.size();
      for (std::size_t i = 0; i < w_slots.size(); ++i) {
        *w_slots[i] = static_cast<std::size_t>(parse_u64(fields[base + i]));
      }
    } else {
      reconstruct_uniform_weights(r);
    }
    rows.push_back(std::move(r));
  }
  return rows;
}

// --- aggregated rows -------------------------------------------------------

std::array<double, 4> summary_values(const MetricSummary& m) {
  return {m.mean, m.std_error, m.min, m.max};
}

void write_campaign_rows_csv(std::ostream& os,
                             const std::vector<CampaignRow>& rows) {
  os << csv_line(campaign_row_columns()) << '\n';
  std::vector<std::string> fields;
  for (const auto& r : rows) {
    fields.clear();
    fields.push_back(r.label);
    fields.push_back(r.topology);
    fields.push_back(std::to_string(r.spec_index));
    fields.push_back(std::to_string(r.trials));
    fields.push_back(std::to_string(r.failed_trials));
    fields.emplace_back(to_string(r.stopping));
    for (const auto* metrics : {&r.metrics, &r.weighted_metrics}) {
      for (const auto& m : *metrics) {
        for (const double v : summary_values(m)) {
          fields.push_back(format_double(v));
        }
      }
    }
    os << csv_line(fields) << '\n';
  }
}

std::vector<CampaignRow> read_campaign_rows_csv(std::istream& is) {
  bool ok = false;
  const std::string header = read_line(is, ok, "read_campaign_rows_csv");
  if (!ok) {
    throw std::invalid_argument("read_campaign_rows_csv: empty input");
  }
  if (split_csv_line(header) != campaign_row_columns()) {
    throw std::invalid_argument("read_campaign_rows_csv: header mismatch");
  }
  const std::size_t arity = campaign_row_columns().size();
  std::vector<CampaignRow> rows;
  for (;;) {
    const std::string line = read_line(is, ok, "read_campaign_rows_csv");
    if (!ok) break;
    if (line.empty()) continue;
    const auto fields = split_csv_line(line);
    if (fields.size() != arity) {
      throw std::invalid_argument("read_campaign_rows_csv: bad row arity");
    }
    CampaignRow r;
    r.label = fields[0];
    r.topology = fields[1];
    r.spec_index = static_cast<std::size_t>(parse_u64(fields[2]));
    r.trials = static_cast<std::size_t>(parse_u64(fields[3]));
    r.failed_trials = static_cast<std::size_t>(parse_u64(fields[4]));
    r.stopping = parse_stopping_reason(fields[5]);
    std::size_t f = 6;
    for (auto* metrics : {&r.metrics, &r.weighted_metrics}) {
      for (auto& m : *metrics) {
        std::array<double, 4> v;
        for (double& x : v) x = parse_double(fields[f++]);
        m = summary_from(v);
      }
    }
    rows.push_back(std::move(r));
  }
  return rows;
}

}  // namespace sbgp::sim
