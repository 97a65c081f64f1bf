// Figure 8: the Tier 1 + Tier 2 + content-provider rollout, measured on
// content-provider destinations only.
//
// Much of the Internet's traffic originates at the CPs, so the paper
// examines H_{M',CP}(S) with all CPs secure at every rollout step.
// Paper: improvements of at least ~26% / 9.4% / 4% for security 1st / 2nd
// / 3rd at the last step; CP destinations start from a higher baseline of
// happy sources than average destinations.
#include <iostream>

#include "support.h"
#include "util/table.h"

int main(int argc, char** argv) {
  using namespace sbgp;
  const auto ctx = bench::make_context(argc, argv);
  bench::print_banner(
      ctx, "Figure 8: Tier 1 + Tier 2 + CP rollout, CP destinations",
      "last step: >= ~26% (sec 1st), ~9.4% (2nd), ~4% (3rd); CPs enjoy an "
      "above-average baseline");

  // The S = emptyset baseline, then every (rollout step, model) cell, all
  // over the CP destinations.
  std::vector<sim::ExperimentSpec> specs = {bench::baseline_spec(ctx)};
  const auto rollout = bench::rollout_specs(ctx, "t1-t2-cp");
  specs.insert(specs.end(), rollout.begin(), rollout.end());
  for (auto& spec : specs) {
    spec.destinations = ctx.tiers.bucket(topology::Tier::kContentProvider);
  }
  const auto rows = sim::run_experiment_suite(ctx.graph(), ctx.tiers, specs);

  const auto baseline = rows.front().stats.happiness.bounds();
  std::cout << "baseline H_{M',CP}(empty) = [" << util::pct(baseline.lower)
            << ", " << util::pct(baseline.upper) << "]\n\n";
  bench::print_rollout_table(std::span(rows).subspan(1), baseline);
  std::cout << "\nexpected ordering at every step: sec 1st > sec 2nd > sec "
               "3rd, with sec 3rd close to zero.\n";
  return 0;
}
