#include "sim/campaign_io.h"

#include <array>
#include <cstdint>
#include <cstdio>
#include <tuple>
#include <istream>
#include <ostream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <string_view>
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
/// columns of kCounterNames follow. CSV and JSON use the same names.
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

constexpr std::array<std::string_view, 4> kSummaryParts = {"mean", "stderr",
                                                           "min", "max"};

std::array<double, 4> summary_values(const MetricSummary& m) {
  return {m.mean, m.std_error, m.min, m.max};
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

// --- minimal JSON ----------------------------------------------------------

// The serializers emit only flat-ish arrays of objects with string /
// number / bool values (aggregated rows nest one object level for the
// metric summaries), so this is a deliberately small parser for exactly
// that subset. Numbers keep their raw text so integer counters round-trip
// exactly even beyond 2^53.

struct JsonValue {
  enum class Kind { kBool, kNumber, kString, kArray, kObject };
  Kind kind = Kind::kBool;
  bool boolean = false;
  std::string text;  // string contents or raw number text
  std::vector<JsonValue> array;
  std::vector<std::pair<std::string, JsonValue>> object;

  [[nodiscard]] const JsonValue* find(std::string_view key) const {
    for (const auto& [k, v] : object) {
      if (k == key) return &v;
    }
    return nullptr;
  }
  /// The member `key`, which must be present and of kind `kind`; throws
  /// std::invalid_argument otherwise, so `"hysteresis": 1` or a quoted
  /// counter is rejected rather than read as a default.
  [[nodiscard]] const JsonValue& at(std::string_view key, Kind kind) const {
    const JsonValue* v = find(key);
    if (v == nullptr) {
      throw std::invalid_argument("campaign_io: missing JSON key '" +
                                  std::string(key) + "'");
    }
    if (v->kind != kind) {
      throw std::invalid_argument("campaign_io: JSON key '" +
                                  std::string(key) + "' has the wrong kind");
    }
    return *v;
  }
  [[nodiscard]] const std::string& as_string(std::string_view key) const {
    return at(key, Kind::kString).text;
  }
  [[nodiscard]] std::uint64_t as_u64(std::string_view key) const {
    return parse_u64(at(key, Kind::kNumber).text);
  }
  [[nodiscard]] double as_double(std::string_view key) const {
    return parse_double(at(key, Kind::kNumber).text);
  }
  [[nodiscard]] bool as_bool(std::string_view key) const {
    return at(key, Kind::kBool).boolean;
  }
};

class JsonParser {
 public:
  explicit JsonParser(std::string_view text) : text_(text) {}

  JsonValue parse() {
    JsonValue v = value();
    skip_ws();
    if (pos_ != text_.size()) fail("trailing characters");
    return v;
  }

 private:
  [[noreturn]] void fail(const std::string& what) const {
    throw std::invalid_argument("campaign_io: JSON parse error at offset " +
                                std::to_string(pos_) + ": " + what);
  }
  void skip_ws() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' || text_[pos_] == '\n' ||
            text_[pos_] == '\r')) {
      ++pos_;
    }
  }
  char peek() {
    if (pos_ >= text_.size()) fail("unexpected end");
    return text_[pos_];
  }
  void expect(char c) {
    if (peek() != c) fail(std::string("expected '") + c + "'");
    ++pos_;
  }
  bool consume(char c) {
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  JsonValue value() {
    skip_ws();
    const char c = peek();
    if (c == '{') return object();
    if (c == '[') return array();
    if (c == '"') return string();
    if (c == 't' || c == 'f') return boolean();
    return number();
  }

  JsonValue object() {
    JsonValue v;
    v.kind = JsonValue::Kind::kObject;
    expect('{');
    skip_ws();
    if (consume('}')) return v;
    for (;;) {
      skip_ws();
      JsonValue key = string();
      skip_ws();
      expect(':');
      v.object.emplace_back(std::move(key.text), value());
      skip_ws();
      if (consume('}')) return v;
      expect(',');
    }
  }

  JsonValue array() {
    JsonValue v;
    v.kind = JsonValue::Kind::kArray;
    expect('[');
    skip_ws();
    if (consume(']')) return v;
    for (;;) {
      v.array.push_back(value());
      skip_ws();
      if (consume(']')) return v;
      expect(',');
    }
  }

  JsonValue string() {
    JsonValue v;
    v.kind = JsonValue::Kind::kString;
    expect('"');
    for (;;) {
      if (pos_ >= text_.size()) fail("unterminated string");
      const char c = text_[pos_++];
      if (c == '"') return v;
      if (c != '\\') {
        v.text += c;
        continue;
      }
      if (pos_ >= text_.size()) fail("unterminated escape");
      const char e = text_[pos_++];
      switch (e) {
        case '"': v.text += '"'; break;
        case '\\': v.text += '\\'; break;
        case '/': v.text += '/'; break;
        case 'b': v.text += '\b'; break;
        case 'f': v.text += '\f'; break;
        case 'n': v.text += '\n'; break;
        case 'r': v.text += '\r'; break;
        case 't': v.text += '\t'; break;
        case 'u': {
          if (pos_ + 4 > text_.size()) fail("bad \\u escape");
          unsigned code = 0;
          for (int i = 0; i < 4; ++i) {
            const char h = text_[pos_++];
            code <<= 4;
            if (h >= '0' && h <= '9') {
              code |= static_cast<unsigned>(h - '0');
            } else if (h >= 'a' && h <= 'f') {
              code |= static_cast<unsigned>(h - 'a' + 10);
            } else if (h >= 'A' && h <= 'F') {
              code |= static_cast<unsigned>(h - 'A' + 10);
            } else {
              fail("bad \\u escape");
            }
          }
          if (code >= 0x80) fail("non-ASCII \\u escape unsupported");
          v.text += static_cast<char>(code);
          break;
        }
        default: fail("bad escape");
      }
    }
  }

  JsonValue boolean() {
    JsonValue v;
    v.kind = JsonValue::Kind::kBool;
    if (text_.substr(pos_, 4) == "true") {
      v.boolean = true;
      pos_ += 4;
    } else if (text_.substr(pos_, 5) == "false") {
      v.boolean = false;
      pos_ += 5;
    } else {
      fail("bad literal");
    }
    return v;
  }

  JsonValue number() {
    JsonValue v;
    v.kind = JsonValue::Kind::kNumber;
    const std::size_t start = pos_;
    while (pos_ < text_.size() &&
           (std::string_view("+-.eE0123456789").find(text_[pos_]) !=
            std::string_view::npos)) {
      ++pos_;
    }
    if (pos_ == start) fail("expected number");
    v.text = std::string(text_.substr(start, pos_ - start));
    return v;
  }

  std::string_view text_;
  std::size_t pos_ = 0;
};

std::string json_escape(std::string_view s) {
  std::string out;
  out.reserve(s.size() + 2);
  out += '"';
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  out += '"';
  return out;
}

JsonValue parse_stream(std::istream& is) {
  std::ostringstream buffer;
  buffer << is.rdbuf();
  const std::string text = buffer.str();
  JsonParser parser(text);
  JsonValue v = parser.parse();
  if (v.kind != JsonValue::Kind::kArray) {
    throw std::invalid_argument("campaign_io: expected a JSON array of rows");
  }
  return v;
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

void write_trial_rows_json(std::ostream& os,
                           const std::vector<CampaignTrialRow>& rows,
                           bool weighted) {
  os << "[\n";
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const CampaignTrialRow& r = rows[i];
    if (!weighted && !is_uniform_weight(r)) {
      throw std::logic_error(
          "write_trial_rows_json: non-uniform-weight row in a legacy-layout "
          "file; write with weighted = true");
    }
    os << "  {\"topology\": " << json_escape(r.topology)
       << ", \"trial\": " << r.trial
       << ", \"topology_seed\": " << r.topology_seed
       << ", \"spec\": " << r.spec_index
       << ", \"label\": " << json_escape(r.row.label)
       << ", \"step_label\": " << json_escape(r.row.step_label)
       << ", \"model\": " << json_escape(to_string(r.row.model))
       << ", \"hysteresis\": " << (r.row.hysteresis ? "true" : "false");
    const auto slots = counter_slots(r);
    for (std::size_t c = 0; c < slots.size(); ++c) {
      os << ", \"" << kCounterNames[c] << "\": " << *slots[c];
    }
    if (weighted) {
      const auto w_slots = weighted_counter_slots(r);
      const auto w_names = weighted_column_names();
      for (std::size_t c = 0; c < w_slots.size(); ++c) {
        os << ", \"" << w_names[c] << "\": " << *w_slots[c];
      }
    }
    os << (i + 1 < rows.size() ? "},\n" : "}\n");
  }
  os << "]\n";
}

void write_trial_rows_json(std::ostream& os,
                           const std::vector<CampaignTrialRow>& rows) {
  write_trial_rows_json(os, rows, !all_uniform_weight(rows));
}

std::vector<CampaignTrialRow> read_trial_rows_json(std::istream& is) {
  const JsonValue root = parse_stream(is);
  std::vector<CampaignTrialRow> rows;
  rows.reserve(root.array.size());
  for (const auto& obj : root.array) {
    CampaignTrialRow r;
    r.topology = obj.as_string("topology");
    r.trial = static_cast<std::size_t>(obj.as_u64("trial"));
    r.topology_seed = obj.as_u64("topology_seed");
    r.spec_index = static_cast<std::size_t>(obj.as_u64("spec"));
    r.row.label = obj.as_string("label");
    r.row.step_label = obj.as_string("step_label");
    r.row.model = parse_model(obj.as_string("model"));
    r.row.hysteresis = obj.as_bool("hysteresis");
    const auto slots = counter_slots(r);
    for (std::size_t c = 0; c < slots.size(); ++c) {
      *slots[c] = static_cast<std::size_t>(obj.as_u64(kCounterNames[c]));
    }
    // The weighted keys are present iff the file was written in weighted
    // mode; their absence means a uniform-weight run.
    if (obj.find("weight") != nullptr) {
      const auto w_slots = weighted_counter_slots(r);
      const auto w_names = weighted_column_names();
      for (std::size_t c = 0; c < w_slots.size(); ++c) {
        *w_slots[c] = static_cast<std::size_t>(obj.as_u64(w_names[c]));
      }
    } else {
      reconstruct_uniform_weights(r);
    }
    rows.push_back(std::move(r));
  }
  return rows;
}

// --- aggregated rows -------------------------------------------------------

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

void write_campaign_rows_json(std::ostream& os,
                              const std::vector<CampaignRow>& rows) {
  os << "[\n";
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const auto& r = rows[i];
    os << "  {\"label\": " << json_escape(r.label)
       << ", \"topology\": " << json_escape(r.topology)
       << ", \"spec\": " << r.spec_index << ", \"trials\": " << r.trials
       << ", \"failed_trials\": " << r.failed_trials
       << ", \"stopping_reason\": " << json_escape(to_string(r.stopping))
       << ", \"metrics\": {";
    const auto& names = campaign_metric_names();
    const auto emit_metrics =
        [&](const std::array<MetricSummary, kNumCampaignMetrics>& metrics) {
          for (std::size_t m = 0; m < kNumCampaignMetrics; ++m) {
            if (m != 0) os << ", ";
            const auto values = summary_values(metrics[m]);
            os << '"' << names[m] << "\": {";
            for (std::size_t p = 0; p < kSummaryParts.size(); ++p) {
              if (p != 0) os << ", ";
              os << '"' << kSummaryParts[p]
                 << "\": " << format_double(values[p]);
            }
            os << '}';
          }
        };
    emit_metrics(r.metrics);
    os << "}, \"weighted_metrics\": {";
    emit_metrics(r.weighted_metrics);
    os << "}}" << (i + 1 < rows.size() ? "," : "") << '\n';
  }
  os << "]\n";
}

std::vector<CampaignRow> read_campaign_rows_json(std::istream& is) {
  const JsonValue root = parse_stream(is);
  std::vector<CampaignRow> rows;
  rows.reserve(root.array.size());
  for (const auto& obj : root.array) {
    CampaignRow r;
    r.label = obj.as_string("label");
    r.topology = obj.as_string("topology");
    r.spec_index = static_cast<std::size_t>(obj.as_u64("spec"));
    r.trials = static_cast<std::size_t>(obj.as_u64("trials"));
    r.failed_trials = static_cast<std::size_t>(obj.as_u64("failed_trials"));
    r.stopping = parse_stopping_reason(obj.as_string("stopping_reason"));
    const auto& names = campaign_metric_names();
    const auto read_metrics =
        [&](const JsonValue& metrics,
            std::array<MetricSummary, kNumCampaignMetrics>& out) {
          for (std::size_t m = 0; m < kNumCampaignMetrics; ++m) {
            const JsonValue& summary =
                metrics.at(names[m], JsonValue::Kind::kObject);
            std::array<double, 4> v;
            for (std::size_t p = 0; p < kSummaryParts.size(); ++p) {
              v[p] = summary.as_double(kSummaryParts[p]);
            }
            out[m] = summary_from(v);
          }
        };
    read_metrics(obj.at("metrics", JsonValue::Kind::kObject), r.metrics);
    read_metrics(obj.at("weighted_metrics", JsonValue::Kind::kObject),
                 r.weighted_metrics);
    rows.push_back(std::move(r));
  }
  return rows;
}

}  // namespace sbgp::sim
