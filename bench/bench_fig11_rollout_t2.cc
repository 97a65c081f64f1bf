// Figure 11: the Tier 2-only rollout.
//
// Securing Y in {13, 26, 50, 100} Tier 2s (plus their stubs) but *no* Tier
// 1s. Paper: the metric grows more slowly than in the T1+T2 rollout and
// sec 1st gains shrink (its biggest wins were T1 destinations), so the gap
// between security 1st and 2nd narrows.
#include <iostream>

#include "support.h"
#include "util/table.h"

int main(int argc, char** argv) {
  using namespace sbgp;
  const auto ctx = bench::make_context(argc, argv);
  bench::print_banner(
      ctx, "Figure 11: Tier 2-only rollout (non-stub attackers M')",
      "smaller sec 1st gains than the T1+T2 rollout; narrower 1st-vs-2nd gap");

  // The S = emptyset baseline, then every (rollout step, model) cell.
  std::vector<sim::ExperimentSpec> specs = {bench::baseline_spec(ctx)};
  const auto rollout = bench::rollout_specs(ctx, "t2-only");
  specs.insert(specs.end(), rollout.begin(), rollout.end());
  const auto rows = sim::run_experiment_suite(ctx.graph(), ctx.tiers, specs);

  const auto baseline = rows.front().stats.happiness.bounds();
  std::cout << "baseline H_{M',V}(empty) = [" << util::pct(baseline.lower)
            << ", " << util::pct(baseline.upper) << "]\n\n";
  bench::print_rollout_table(std::span(rows).subspan(1), baseline);

  double first_gain = 0.0;
  double second_gain = 0.0;
  const auto last_step =
      std::span(rows).last(std::size(routing::kAllSecurityModels));
  for (const auto& row : last_step) {
    const double gain = row.stats.happiness.bounds().lower - baseline.lower;
    if (row.model == routing::SecurityModel::kSecurityFirst) first_gain = gain;
    if (row.model == routing::SecurityModel::kSecuritySecond) {
      second_gain = gain;
    }
  }
  std::cout << "\nsec1st-vs-sec2nd gap at the last step: "
            << util::pct(first_gain - second_gain)
            << "  (paper: smaller than in the T1+T2 rollout)\n";
  return 0;
}
