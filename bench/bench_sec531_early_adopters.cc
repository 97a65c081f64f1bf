// Section 5.3.1: on the choice of early adopters.
//
// Prior work suggested Tier 1s as the natural early adopters. The paper
// shows that securing all 13 T1s + their stubs (~20% of the graph, and +17
// CPs following [19,44]) improves the metric over secure destinations by
// < 0.2% under security 2nd/3rd, while the 13 *largest Tier 2s* + stubs
// manage ~1%: Tier 2 ISPs make better early adopters.
#include <iostream>

#include "support.h"
#include "util/table.h"

namespace {

using namespace sbgp;

void evaluate(const bench::BenchContext& ctx, const std::string& name,
              const std::string& scenario) {
  const auto steps = deployment::build_scenario(
      scenario, ctx.graph(), ctx.tiers, deployment::StubMode::kFullSbgp);
  const auto& dep = steps.back().deployment;
  // The S = emptyset baseline over the scenario's secure destinations,
  // then the scenario under every model over the same destinations.
  std::vector<sim::ExperimentSpec> specs = {bench::baseline_spec(ctx)};
  for (const auto model : routing::kAllSecurityModels) {
    specs.push_back(bench::base_spec(ctx, scenario, model));
  }
  const auto dests = sim::sample_ases(dep.secure.members(),
                                      std::max<std::size_t>(ctx.sample * 3, 64),
                                      bench::kSampleSeed + 41);
  for (auto& spec : specs) spec.destinations = dests;
  const auto rows = sim::run_experiment_suite(ctx.graph(), ctx.tiers, specs);

  std::cout << "\n--- " << name << " (" << dep.secure.count()
            << " secure = "
            << util::pct(static_cast<double>(dep.secure.count()) /
                         static_cast<double>(ctx.graph().num_ases()))
            << " of the graph) ---\n";
  util::Table table({"model", "avg dH over secure destinations (lower)"});
  const auto before = rows.front().stats.happiness.bounds();
  for (std::size_t r = 1; r < rows.size(); ++r) {
    const auto after = rows[r].stats.happiness.bounds();
    table.add_row({bench::short_model(rows[r].model),
                   util::pct(after.lower - before.lower)});
  }
  table.print(std::cout);
}

}  // namespace

int main(int argc, char** argv) {
  const auto ctx = bench::make_context(argc, argv);
  bench::print_banner(
      ctx, "Section 5.3.1: early adopters - Tier 1s vs Tier 2s",
      "T1s+stubs: <0.2% gain (sec 2nd/3rd); 13 largest T2s+stubs: ~1%");

  evaluate(ctx, "all Tier 1s + their stubs", "t1-stubs");
  evaluate(ctx, "all Tier 1s + their stubs + CPs", "t1-stubs-cp");
  evaluate(ctx, "13 largest Tier 2s + their stubs", "top13-t2-stubs");
  std::cout << "\nexpected shape: the Tier 2 scenario beats both Tier 1 "
               "scenarios under security 2nd and 3rd.\n";
  return 0;
}
