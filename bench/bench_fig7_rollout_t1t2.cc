// Figure 7: the Tier 1 + Tier 2 rollout.
//
// (a) Change in H_{M',V}(S) versus the baseline as 13 T1s and 13/37/100
//     T2s (plus all their stubs) deploy — for each model, with tie-break
//     lower/upper bounds.
// (b) The same change evaluated at secure destinations only (d in S).
// The paper's "error bars" — stubs running simplex S*BGP instead of the
// full protocol (Section 5.3.2) — are printed as separate rows; they
// should barely move the metric.
//
// Paper: with 50% of ASes secure, sec 1st improves ~24%; sec 2nd and 3rd
// remain meagre; > 10% gap between tie-break bounds persists even at 50%.
#include <iostream>

#include "support.h"
#include "util/table.h"

namespace {

using namespace sbgp;
using deployment::StubMode;

void run_secure_destinations(const bench::BenchContext& ctx) {
  std::cout << "\n--- Figure 7(b): averaged over secure destinations d in S "
               "---\n";
  // Per step: the baseline over that step's secure destinations, then the
  // step under every model over the same destinations.
  const auto steps = deployment::build_scenario(
      "t1-t2", ctx.graph(), ctx.tiers, StubMode::kFullSbgp);
  std::vector<sim::ExperimentSpec> specs;
  for (std::size_t i = 0; i < steps.size(); ++i) {
    auto spec = bench::baseline_spec(ctx);
    spec.destinations =
        sim::sample_ases(steps[i].deployment.secure.members(), ctx.sample,
                         bench::kSampleSeed + 21);
    specs.push_back(spec);
    spec.scenario = "t1-t2";
    spec.rollout_step = i;
    for (const auto model : routing::kAllSecurityModels) {
      spec.model = model;
      specs.push_back(spec);
    }
  }
  const auto rows = sim::run_experiment_suite(ctx.graph(), ctx.tiers, specs);

  util::Table table({"step", "model", "dH lower", "dH upper"});
  const std::size_t stride = 1 + std::size(routing::kAllSecurityModels);
  for (std::size_t i = 0; i < rows.size(); i += stride) {
    const auto before = rows[i].stats.happiness.bounds();
    for (std::size_t m = 1; m < stride; ++m) {
      const auto after = rows[i + m].stats.happiness.bounds();
      table.add_row({rows[i + m].step_label,
                     bench::short_model(rows[i + m].model),
                     util::pct(after.lower - before.lower),
                     util::pct(after.upper - before.upper)});
    }
  }
  table.print(std::cout);
}

}  // namespace

int main(int argc, char** argv) {
  const auto ctx = bench::make_context(argc, argv);
  bench::print_banner(
      ctx, "Figure 7: Tier 1 + Tier 2 rollout (non-stub attackers M')",
      "sec 1st climbs to ~+24% at the last step; sec 2nd/3rd stay meagre; "
      "simplex stubs barely change anything");

  // Figure 7(a): the S = emptyset baseline, then every (step, model) cell
  // with full and with simplex stubs.
  std::vector<sim::ExperimentSpec> specs = {bench::baseline_spec(ctx)};
  for (const auto mode : {StubMode::kFullSbgp, StubMode::kSimplex}) {
    const auto rollout = bench::rollout_specs(ctx, "t1-t2", mode);
    specs.insert(specs.end(), rollout.begin(), rollout.end());
  }
  const auto rows = sim::run_experiment_suite(ctx.graph(), ctx.tiers, specs);
  const auto variant = std::span(rows).subspan(1);

  const auto baseline = rows.front().stats.happiness.bounds();
  std::cout << "baseline H_{M',V}(empty) = [" << util::pct(baseline.lower)
            << ", " << util::pct(baseline.upper) << "]\n\n";
  std::cout << "--- Figure 7(a): all destinations ---\n";
  bench::print_rollout_table(variant.first(variant.size() / 2), baseline);
  std::cout << "\n--- simplex-stub variant (the paper's error bars) ---\n";
  bench::print_rollout_table(variant.last(variant.size() / 2), baseline,
                             " (simplex)");
  run_secure_destinations(ctx);
  return 0;
}
