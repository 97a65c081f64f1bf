#include "util/csv.h"

#include <charconv>
#include <cstdint>
#include <limits>
#include <sstream>
#include <stdexcept>

namespace sbgp::util {

std::string csv_field(std::string_view field) {
  if (field.find_first_of("\r\n") != std::string_view::npos) {
    throw std::invalid_argument(
        "csv_field: embedded newline cannot round-trip through the "
        "line-based readers");
  }
  if (field.find_first_of(",\"") == std::string_view::npos) {
    return std::string(field);
  }
  std::string out;
  out.reserve(field.size() + 2);
  out += '"';
  for (const char c : field) {
    if (c == '"') out += '"';
    out += c;
  }
  out += '"';
  return out;
}

std::string csv_line(const std::vector<std::string>& fields) {
  std::string out;
  for (std::size_t i = 0; i < fields.size(); ++i) {
    if (i != 0) out += ',';
    out += csv_field(fields[i]);
  }
  return out;
}

std::vector<std::string> split_csv_line(std::string_view line) {
  std::vector<std::string> fields;
  std::string cur;
  bool quoted = false;
  std::size_t i = 0;
  while (i < line.size()) {
    const char c = line[i];
    if (quoted) {
      if (c == '"') {
        if (i + 1 < line.size() && line[i + 1] == '"') {
          cur += '"';
          ++i;
        } else {
          quoted = false;
          // A quoted field ends at its closing quote: only a separator or
          // the end of the line may follow.
          if (i + 1 < line.size() && line[i + 1] != ',') {
            throw std::invalid_argument(
                "split_csv_line: text after closing quote");
          }
        }
      } else {
        cur += c;
      }
    } else if (c == '"') {
      if (!cur.empty()) {
        throw std::invalid_argument("split_csv_line: quote inside bare field");
      }
      quoted = true;
    } else if (c == ',') {
      fields.push_back(std::move(cur));
      cur.clear();
    } else {
      cur += c;
    }
    ++i;
  }
  if (quoted) {
    throw std::invalid_argument("split_csv_line: unterminated quoted field");
  }
  fields.push_back(std::move(cur));
  return fields;
}

std::string format_double(double v) {
  std::ostringstream os;
  os.precision(std::numeric_limits<double>::max_digits10);
  os << v;
  return os.str();
}

double parse_double(std::string_view field) {
  // Unlike strtod, from_chars takes no leading whitespace, no '+' and no
  // hexadecimal form.
  double v = 0;
  const char* end = field.data() + field.size();
  const auto [ptr, ec] =
      std::from_chars(field.data(), end, v, std::chars_format::general);
  if (ec != std::errc() || ptr != end) {
    throw std::invalid_argument("parse_double: bad field '" +
                                std::string(field) + "'");
  }
  return v;
}

std::uint64_t parse_u64(std::string_view field) {
  // Unlike strtoull, from_chars takes no sign and no leading whitespace.
  std::uint64_t v = 0;
  const char* end = field.data() + field.size();
  const auto [ptr, ec] = std::from_chars(field.data(), end, v);
  if (ec != std::errc() || ptr != end) {
    throw std::invalid_argument("parse_u64: bad field '" + std::string(field) +
                                "'");
  }
  return v;
}

}  // namespace sbgp::util
