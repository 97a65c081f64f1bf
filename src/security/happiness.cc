#include "security/happiness.h"

#include <vector>

namespace sbgp::security {

MetricBounds HappyTotals::bounds() const {
  if (sources == 0) return {};
  return {static_cast<double>(happy_lower) / static_cast<double>(sources),
          static_cast<double>(happy_upper) / static_cast<double>(sources)};
}

void accumulate_into(const PairOutcomes& po, HappyTotals& acc) {
  const auto c = count_happy(po.attacked, po.d, po.m);
  acc.happy_lower += c.happy_lower;
  acc.happy_upper += c.happy_upper;
  acc.sources += c.sources;
}

HappyCount count_happy(std::span<const std::uint8_t> flags, AsId d, AsId m) {
  // Local sums, not the returned object: the compiler must assume stores
  // into that could alias the flag bytes, which would stop vectorization.
  std::size_t sources = 0;
  std::size_t lower = 0;
  std::size_t upper = 0;
  for_each_source(flags.size(), d, m, [&](std::size_t v) {
    ++sources;
    lower += happy_flag(flags[v]);
    upper += reach_d_flag(flags[v]);
  });
  return {lower, upper, sources};
}

HappyCount count_happy(const RoutingOutcome& out, AsId d, AsId m) {
  std::vector<std::uint8_t> flags;
  out.flags_into(flags);
  return count_happy(flags, d, m);
}

}  // namespace sbgp::security
