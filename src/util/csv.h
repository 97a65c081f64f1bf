// Minimal RFC-4180-style CSV helpers for the campaign result serializers.
//
// Result rows are flat (strings, integers, doubles), so this is not a
// general CSV library: one record per line, comma separators, quoting only
// when a field contains a comma, quote, or newline. Doubles are formatted
// with max_digits10 significant digits so that write -> parse round-trips
// to the identical bit pattern.
#ifndef SBGP_UTIL_CSV_H
#define SBGP_UTIL_CSV_H

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace sbgp::util {

/// Quotes `field` per RFC 4180 if it contains a comma or quote; returns it
/// unchanged otherwise. Throws std::invalid_argument on embedded CR/LF:
/// the readers are line-based (one record per physical line), so a
/// newline-bearing field could not round-trip — better to fail the write
/// loudly than emit a file the reader rejects.
[[nodiscard]] std::string csv_field(std::string_view field);

/// Joins fields into one CSV record (no trailing newline).
[[nodiscard]] std::string csv_line(const std::vector<std::string>& fields);

/// Splits one CSV record into fields, honoring quotes and doubled-quote
/// escapes. A quoted field must end at a comma or at the end of the line.
/// Throws std::invalid_argument on unbalanced quoting, a quote inside a bare
/// field, or text after a closing quote.
[[nodiscard]] std::vector<std::string> split_csv_line(std::string_view line);

/// Exact decimal form of `v` (max_digits10 precision): parse_double of the
/// result yields the identical double.
[[nodiscard]] std::string format_double(double v);

/// Parses a decimal double field (std::from_chars, general format): the
/// whole field consumed, no leading whitespace, no '+' sign, no hexadecimal
/// form. Throws std::invalid_argument otherwise, including on an empty
/// field or a value outside double's range.
[[nodiscard]] double parse_double(std::string_view field);
/// Parses an unsigned decimal field: ASCII digits only, the whole field
/// consumed, no sign or whitespace. Throws std::invalid_argument otherwise,
/// including on an empty field or a value above 2^64 - 1.
[[nodiscard]] std::uint64_t parse_u64(std::string_view field);

}  // namespace sbgp::util

#endif  // SBGP_UTIL_CSV_H
