#include <gtest/gtest.h>

#include <cmath>
#include <sstream>

#include "util/as_set.h"
#include "util/chart.h"
#include "util/csv.h"
#include "util/rng.h"
#include "util/stats.h"
#include "util/table.h"

namespace sbgp::util {
namespace {

TEST(Rng, DeterministicAcrossInstances) {
  Rng a(42);
  Rng b(42);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.next_below(1000), b.next_below(1000));
  }
}

TEST(Rng, NextBelowStaysInRange) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.next_below(17), 17u);
  }
}

TEST(Rng, NextInIsInclusive) {
  Rng rng(7);
  bool saw_lo = false;
  bool saw_hi = false;
  for (int i = 0; i < 2000; ++i) {
    const auto v = rng.next_in(-2, 2);
    EXPECT_GE(v, -2);
    EXPECT_LE(v, 2);
    saw_lo |= v == -2;
    saw_hi |= v == 2;
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(Rng, ChanceExtremes) {
  Rng rng(3);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(rng.chance(0.0));
    EXPECT_TRUE(rng.chance(1.0));
  }
}

TEST(Rng, ForkProducesIndependentStream) {
  Rng a(42);
  Rng child = a.fork();
  // The fork must be deterministic given the parent seed.
  Rng b(42);
  Rng child2 = b.fork();
  for (int i = 0; i < 50; ++i) {
    EXPECT_EQ(child.next_below(1000), child2.next_below(1000));
  }
}

TEST(Rng, SampleWithoutReplacementDistinct) {
  Rng rng(5);
  const auto s = rng.sample_without_replacement(50, 20);
  ASSERT_EQ(s.size(), 20u);
  std::set<std::uint32_t> uniq(s.begin(), s.end());
  EXPECT_EQ(uniq.size(), 20u);
  for (const auto v : s) EXPECT_LT(v, 50u);
}

TEST(Rng, SampleWithoutReplacementFull) {
  Rng rng(5);
  const auto s = rng.sample_without_replacement(10, 10);
  std::set<std::uint32_t> uniq(s.begin(), s.end());
  EXPECT_EQ(uniq.size(), 10u);
}

TEST(Rng, SampleRejectsOversizedRequest) {
  Rng rng(5);
  EXPECT_THROW(rng.sample_without_replacement(3, 4), std::invalid_argument);
}

TEST(Rng, ParetoRespectsMinimum) {
  Rng rng(11);
  for (int i = 0; i < 500; ++i) {
    EXPECT_GE(rng.pareto_int(3, 1.5), 3u);
  }
}

TEST(Rng, ParetoRejectsBadParams) {
  Rng rng(11);
  EXPECT_THROW(rng.pareto_int(0, 1.0), std::invalid_argument);
  EXPECT_THROW(rng.pareto_int(1, 0.0), std::invalid_argument);
}

TEST(Rng, Splitmix64MatchesReferenceVector) {
  // First outputs of the reference splitmix64 stream seeded with 0.
  EXPECT_EQ(splitmix64(0), 0xE220A8397B1DCDAFull);
  EXPECT_EQ(splitmix64(1), 0x910A2DEC89025CC1ull);
  // Bijective finalizer: nearby inputs land far apart.
  EXPECT_NE(splitmix64(42), splitmix64(43));
}

TEST(AsSet, InsertEraseContains) {
  AsSet s(10);
  EXPECT_FALSE(s.contains(3));
  s.insert(3);
  EXPECT_TRUE(s.contains(3));
  EXPECT_EQ(s.count(), 1u);
  s.erase(3);
  EXPECT_FALSE(s.contains(3));
  EXPECT_TRUE(s.empty());
}

TEST(AsSet, OutOfRangeQueriesAreFalse) {
  AsSet s(4);
  EXPECT_FALSE(s.contains(100));
  EXPECT_THROW(s.insert(4), std::out_of_range);
}

TEST(AsSet, MembersSortedAndComplete) {
  AsSet s = make_as_set(20, {5, 1, 17});
  const auto m = s.members();
  ASSERT_EQ(m.size(), 3u);
  EXPECT_EQ(m[0], 1u);
  EXPECT_EQ(m[1], 5u);
  EXPECT_EQ(m[2], 17u);
}

TEST(AsSet, SubsetAndUnion) {
  AsSet small = make_as_set(10, {1, 2});
  AsSet big = make_as_set(10, {1, 2, 3});
  EXPECT_TRUE(small.subset_of(big));
  EXPECT_FALSE(big.subset_of(small));
  small.insert_all(big);
  EXPECT_TRUE(big.subset_of(small));
  EXPECT_TRUE(small.subset_of(big));
}

TEST(AsSet, WordBoundaryIds) {
  // The packed-word storage keeps 64 ids per word; exercise both sides of
  // each boundary in a universe that is not a multiple of 64.
  AsSet s(130);
  for (const std::uint32_t id : {0u, 63u, 64u, 65u, 127u, 128u, 129u}) {
    EXPECT_FALSE(s.contains(id));
    s.insert(id);
    EXPECT_TRUE(s.contains(id)) << id;
  }
  EXPECT_EQ(s.count(), 7u);
  const auto m = s.members();
  EXPECT_EQ(m, (std::vector<std::uint32_t>{0, 63, 64, 65, 127, 128, 129}));
  s.erase(64);
  EXPECT_FALSE(s.contains(64));
  EXPECT_TRUE(s.contains(63));
  EXPECT_TRUE(s.contains(65));
  EXPECT_EQ(s.count(), 6u);
  EXPECT_THROW(s.insert(130), std::out_of_range);
  EXPECT_FALSE(s.contains(130));  // last-word tail bits stay clear
}

TEST(AsSet, SubsetAcrossDifferentUniverses) {
  // A member past the smaller set's universe must break subset_of even
  // when both sets occupy the same number of storage words.
  AsSet wide = make_as_set(70, {68});
  const AsSet narrow = make_as_set(65, {});
  EXPECT_FALSE(wide.subset_of(narrow));
  EXPECT_TRUE(narrow.subset_of(wide));
  wide.erase(68);
  EXPECT_TRUE(wide.subset_of(narrow));
  // Universe participates in equality: same members, different capacity.
  EXPECT_FALSE(make_as_set(65, {1}) == make_as_set(70, {1}));
  EXPECT_TRUE(make_as_set(65, {1}) == make_as_set(65, {1}));
}

TEST(Stats, SummaryBasics) {
  const auto s = summarize({1.0, 2.0, 3.0, 4.0});
  EXPECT_EQ(s.n, 4u);
  EXPECT_DOUBLE_EQ(s.mean, 2.5);
  EXPECT_DOUBLE_EQ(s.min, 1.0);
  EXPECT_DOUBLE_EQ(s.max, 4.0);
  EXPECT_NEAR(s.stddev, 1.29099, 1e-4);
}

TEST(Stats, SummaryEmpty) {
  const auto s = summarize({});
  EXPECT_EQ(s.n, 0u);
  EXPECT_DOUBLE_EQ(s.mean, 0.0);
}

TEST(Stats, QuantileInterpolates) {
  EXPECT_DOUBLE_EQ(quantile({0.0, 10.0}, 0.5), 5.0);
  EXPECT_DOUBLE_EQ(quantile({3.0, 1.0, 2.0}, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(quantile({3.0, 1.0, 2.0}, 1.0), 3.0);
  EXPECT_THROW(quantile({}, 0.5), std::invalid_argument);
  EXPECT_THROW(quantile({1.0}, 1.5), std::invalid_argument);
}

TEST(Stats, Fractions) {
  const std::vector<double> v{0.0, 0.5, 1.0, 1.5};
  EXPECT_DOUBLE_EQ(fraction_below(v, 1.0), 0.5);
  EXPECT_DOUBLE_EQ(fraction_at_least(v, 1.0), 0.5);
  EXPECT_DOUBLE_EQ(fraction_below({}, 1.0), 0.0);
}

TEST(Stats, AccumulatorMatchesSummarize) {
  const std::vector<double> v{1.0, 2.0, 3.0, 4.0};
  Accumulator acc;
  for (const double x : v) acc.add(x);
  const auto s = summarize(v);
  EXPECT_EQ(acc.count(), s.n);
  EXPECT_DOUBLE_EQ(acc.mean(), s.mean);
  EXPECT_DOUBLE_EQ(acc.min(), s.min);
  EXPECT_DOUBLE_EQ(acc.max(), s.max);
  EXPECT_NEAR(acc.stddev(), s.stddev, 1e-12);
  EXPECT_NEAR(acc.std_error(), s.stddev / std::sqrt(4.0), 1e-12);
}

TEST(Stats, AccumulatorDegenerateSamples) {
  Accumulator empty;
  EXPECT_EQ(empty.count(), 0u);
  EXPECT_DOUBLE_EQ(empty.mean(), 0.0);
  EXPECT_DOUBLE_EQ(empty.min(), 0.0);
  EXPECT_DOUBLE_EQ(empty.max(), 0.0);
  EXPECT_DOUBLE_EQ(empty.std_error(), 0.0);

  Accumulator one;
  one.add(-3.5);
  EXPECT_EQ(one.count(), 1u);
  EXPECT_DOUBLE_EQ(one.mean(), -3.5);
  EXPECT_DOUBLE_EQ(one.min(), -3.5);
  EXPECT_DOUBLE_EQ(one.max(), -3.5);
  EXPECT_DOUBLE_EQ(one.variance(), 0.0);
  EXPECT_DOUBLE_EQ(one.std_error(), 0.0);
}

TEST(Stats, AccumulatorMergeEmptyAndSingleton) {
  // empty.merge(empty) stays empty.
  Accumulator a;
  a.merge(Accumulator{});
  EXPECT_EQ(a.count(), 0u);
  EXPECT_DOUBLE_EQ(a.mean(), 0.0);

  // Merging into empty copies the other side exactly.
  Accumulator b;
  b.add(2.0);
  b.add(4.0);
  a.merge(b);
  EXPECT_EQ(a.count(), 2u);
  EXPECT_EQ(format_double(a.mean()), format_double(b.mean()));
  EXPECT_EQ(format_double(a.variance()), format_double(b.variance()));

  // Merging an empty accumulator is a no-op, bit for bit.
  const Accumulator before = a;
  a.merge(Accumulator{});
  EXPECT_EQ(a.count(), before.count());
  EXPECT_EQ(format_double(a.mean()), format_double(before.mean()));
  EXPECT_EQ(format_double(a.variance()), format_double(before.variance()));
}

TEST(Stats, AccumulatorMergeSingletonsMatchSequentialExactly) {
  // A chain of singleton merges must be bit-for-bit identical to add()s:
  // this is the property the campaign layer relies on for thread-count
  // independence of its aggregated rows.
  const std::vector<double> v{0.25, 1.0 / 3.0, -7.5, 12345.678901234567, 0.25};
  Accumulator sequential;
  Accumulator merged;
  for (const double x : v) {
    sequential.add(x);
    Accumulator single;
    single.add(x);
    merged.merge(single);
  }
  EXPECT_EQ(merged.count(), sequential.count());
  EXPECT_EQ(format_double(merged.mean()), format_double(sequential.mean()));
  EXPECT_EQ(format_double(merged.variance()),
            format_double(sequential.variance()));
  EXPECT_EQ(format_double(merged.std_error()),
            format_double(sequential.std_error()));
  EXPECT_EQ(format_double(merged.min()), format_double(sequential.min()));
  EXPECT_EQ(format_double(merged.max()), format_double(sequential.max()));
}

TEST(Stats, AccumulatorMergeZeroVarianceSeries) {
  Accumulator a;
  Accumulator b;
  for (int i = 0; i < 3; ++i) a.add(1.5);
  for (int i = 0; i < 5; ++i) b.add(1.5);
  a.merge(b);
  EXPECT_EQ(a.count(), 8u);
  EXPECT_DOUBLE_EQ(a.mean(), 1.5);
  EXPECT_DOUBLE_EQ(a.variance(), 0.0);
  EXPECT_DOUBLE_EQ(a.std_error(), 0.0);
  EXPECT_DOUBLE_EQ(a.min(), 1.5);
  EXPECT_DOUBLE_EQ(a.max(), 1.5);
}

TEST(Stats, AccumulatorMergeBlocksMatchesWholeSeries) {
  // Chan's combine over contiguous blocks agrees with one sequential pass
  // to far tighter than the stderr tolerances campaign_diff uses.
  std::vector<double> v;
  for (int i = 0; i < 64; ++i) v.push_back(std::sin(0.37 * i) * 1e3 + 5.0);
  Accumulator whole;
  for (const double x : v) whole.add(x);
  for (const std::size_t block : {1u, 3u, 16u, 64u}) {
    Accumulator combined;
    for (std::size_t start = 0; start < v.size(); start += block) {
      Accumulator part;
      for (std::size_t i = start; i < std::min(v.size(), start + block); ++i) {
        part.add(v[i]);
      }
      combined.merge(part);
    }
    EXPECT_EQ(combined.count(), whole.count());
    EXPECT_NEAR(combined.mean(), whole.mean(), 1e-9);
    EXPECT_NEAR(combined.variance(), whole.variance(), 1e-6);
    EXPECT_EQ(format_double(combined.min()), format_double(whole.min()));
    EXPECT_EQ(format_double(combined.max()), format_double(whole.max()));
  }
}

TEST(Csv, FieldQuotingRoundTrips) {
  EXPECT_EQ(csv_field("plain"), "plain");
  EXPECT_EQ(csv_field("a,b"), "\"a,b\"");
  EXPECT_EQ(csv_field("say \"hi\""), "\"say \"\"hi\"\"\"");
  const std::vector<std::string> fields{"plain", "a,b", "say \"hi\"", ""};
  EXPECT_EQ(split_csv_line(csv_line(fields)), fields);
  EXPECT_THROW((void)split_csv_line("\"unterminated"), std::invalid_argument);
  // Line-based readers cannot round-trip embedded newlines; the writer
  // must reject them rather than emit an unreadable file.
  EXPECT_THROW((void)csv_field("a\nb"), std::invalid_argument);
}

TEST(Csv, SplitRejectsTextAfterClosingQuote) {
  // A quoted field ends at its closing quote. Text glued on after it would
  // otherwise be read into the field: `a,"b"c,d` as [a] [bc] [d].
  for (const char* bad : {"a,\"b\"c,d", "\"q\" ,1", "\"q\"\"\"x", "x,\"\"y"}) {
    EXPECT_THROW((void)split_csv_line(bad), std::invalid_argument) << bad;
  }
  const std::vector<std::string> ok{"a", "b,c", "", "d\"e"};
  EXPECT_EQ(split_csv_line("a,\"b,c\",\"\",\"d\"\"e\""), ok);
  EXPECT_EQ(split_csv_line("\"q\""), std::vector<std::string>{"q"});
}

TEST(Csv, DoubleFormattingRoundTripsExactly) {
  for (const double v : {0.1, 1.0 / 3.0, -2.5e-17, 12345.678901234567}) {
    EXPECT_EQ(parse_double(format_double(v)), v);
  }
  EXPECT_THROW((void)parse_double(""), std::invalid_argument);
}

TEST(Csv, ParseDoubleRejectsPaddingAndSigns) {
  EXPECT_EQ(parse_double("1.5"), 1.5);
  EXPECT_EQ(parse_double("-1.5"), -1.5);
  EXPECT_EQ(parse_double("1e-3"), 1e-3);
  // Whitespace, a '+' sign, a hexadecimal form and values outside double's
  // range are rejected: strtod would read " 1.5" and "+1.5" as 1.5, and
  // "0x10" as 16.
  for (const char* bad : {" 1.5", "+1.5", "1.5 ", "0x10", "1e999", "1e-400"}) {
    EXPECT_THROW((void)parse_double(bad), std::invalid_argument) << bad;
  }
}

TEST(Csv, ParseU64AcceptsPlainDigitsOnly) {
  EXPECT_EQ(parse_u64("0"), 0u);
  EXPECT_EQ(parse_u64("007"), 7u);
  EXPECT_EQ(parse_u64("18446744073709551615"), 18446744073709551615ull);
  // Signs, whitespace, trailing junk, empty fields and 2^64 are rejected,
  // not wrapped: strtoull would read " -1" as 2^64 - 1 and "+1" as 1.
  EXPECT_THROW((void)parse_u64(" 1"), std::invalid_argument);
  EXPECT_THROW((void)parse_u64("+1"), std::invalid_argument);
  EXPECT_THROW((void)parse_u64("-1"), std::invalid_argument);
  EXPECT_THROW((void)parse_u64(" -1"), std::invalid_argument);
  EXPECT_THROW((void)parse_u64("1 "), std::invalid_argument);
  EXPECT_THROW((void)parse_u64(""), std::invalid_argument);
  EXPECT_THROW((void)parse_u64("12x"), std::invalid_argument);
  EXPECT_THROW((void)parse_u64("18446744073709551616"), std::invalid_argument);
}

TEST(Table, AlignsColumns) {
  Table t({"name", "value"});
  t.add_row({"x", "1"});
  t.add_row({"longer-name", "22"});
  std::ostringstream os;
  t.print(os);
  const auto text = os.str();
  EXPECT_NE(text.find("name"), std::string::npos);
  EXPECT_NE(text.find("longer-name"), std::string::npos);
  EXPECT_NE(text.find("---"), std::string::npos);
}

TEST(Table, RejectsArityMismatch) {
  Table t({"a", "b"});
  EXPECT_THROW(t.add_row({"only-one"}), std::invalid_argument);
}

TEST(Table, Formatting) {
  EXPECT_EQ(pct(0.613), "61.3%");
  EXPECT_EQ(fixed(1.23456, 2), "1.23");
}

TEST(Table, RightAlignsNumericColumns) {
  Table t({"name", "count", "share"});
  t.add_row({"x", "7", "61.3%"});
  t.add_row({"longer", "12345", "-0.5%"});
  std::ostringstream os;
  t.print(os);
  const auto text = os.str();
  // Numeric columns pad on the left: the short count sits flush against
  // the column end, directly above the long value's last digit.
  EXPECT_NE(text.find("x           7"), std::string::npos) << text;
  EXPECT_NE(text.find("12345"), std::string::npos);
  // The string column stays left-aligned.
  EXPECT_EQ(text.find("name"), 0u);
}

TEST(Table, MeanStderrCellsCountAsNumeric) {
  Table t({"metric"});
  t.add_row({"0.613 ±0.004"});
  t.add_row({"21.9% ±0.4%"});
  std::ostringstream os;
  t.print(os);
  // Right-aligned: the shorter cell is padded on the left.
  EXPECT_NE(os.str().find(" 21.9% ±0.4%"), std::string::npos) << os.str();
}

TEST(Table, MixedColumnStaysLeftAligned) {
  Table t({"col"});
  t.add_row({"12"});
  t.add_row({"not-a-number"});
  std::ostringstream os;
  t.print(os);
  // "12" would be right-aligned if the column were numeric; with a
  // non-numeric cell present it must stay left-aligned.
  EXPECT_NE(os.str().find("12          "), std::string::npos) << os.str();
}

TEST(Chart, StackedBarsRenderProportionally) {
  std::ostringstream os;
  print_stacked_bars(os, {{"x", {0.5, 0.5}}}, {'#', '.'}, 10);
  EXPECT_NE(os.str().find("#####....."), std::string::npos);
}

TEST(Chart, RejectsMissingGlyphs) {
  std::ostringstream os;
  EXPECT_THROW(print_stacked_bars(os, {{"x", {0.5, 0.5}}}, {'#'}, 10),
               std::invalid_argument);
}

}  // namespace
}  // namespace sbgp::util
