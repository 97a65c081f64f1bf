// Section 8 extensions: evaluating the paper's proposed fixes.
//
// The conclusion sketches two ideas for rescuing partial deployments whose
// operators will not rank security 1st:
//  1. *hysteresis* — do not drop a working secure route when a "better"
//     insecure route appears (kills protocol downgrades by construction);
//  2. *islands* — groups of secure ASes that agree to rank security 1st
//     for routes between island members. Because secure routes exist only
//     toward secure destinations, and SecP placement is vacuous when no
//     secure route exists, island-wide security-1st is exactly the
//     security 1st model evaluated at secure destinations — no separate
//     machinery needed.
// This bench quantifies both against the plain models on the T1+T2
// deployment, answering: how much of the security-1st juice can each fix
// recover without asking operators to re-rank their economics?
#include <iostream>

#include "support.h"
#include "util/table.h"

int main(int argc, char** argv) {
  using namespace sbgp;
  using routing::SecurityModel;
  const auto ctx = bench::make_context(argc, argv);
  bench::print_banner(
      ctx, "Section 8 extensions: hysteresis and security islands",
      "downgrades cause most negative results; a fix that prevents them "
      "should recover much of the security-1st protection");

  // S = the last "t1-t2" rollout step. Islands are evaluated over a sample
  // of its secure destinations.
  const auto steps = deployment::build_scenario(
      "t1-t2", ctx.graph(), ctx.tiers, deployment::StubMode::kFullSbgp);
  const auto island_dests =
      sim::sample_ases(steps.back().deployment.secure.members(), ctx.sample,
                       bench::kSampleSeed + 77);
  const auto spec = [&](SecurityModel model, bool hysteresis,
                        const std::vector<routing::AsId>& dests) {
    auto s = bench::base_spec(ctx, "t1-t2", model);
    s.hysteresis = hysteresis;
    s.destinations = dests;
    return s;
  };
  auto base_island = bench::baseline_spec(ctx);
  base_island.destinations = island_dests;
  const std::vector<sim::ExperimentSpec> specs = {
      // 0-5: all destinations.
      bench::baseline_spec(ctx),
      spec(SecurityModel::kSecurityFirst, false, ctx.destinations),
      spec(SecurityModel::kSecuritySecond, false, ctx.destinations),
      spec(SecurityModel::kSecuritySecond, true, ctx.destinations),
      spec(SecurityModel::kSecurityThird, false, ctx.destinations),
      spec(SecurityModel::kSecurityThird, true, ctx.destinations),
      // 6-10: secure destinations only.
      base_island,
      spec(SecurityModel::kSecurityFirst, false, island_dests),
      spec(SecurityModel::kSecuritySecond, false, island_dests),
      spec(SecurityModel::kSecurityThird, false, island_dests),
      spec(SecurityModel::kSecurityThird, true, island_dests),
  };
  const auto rows = sim::run_experiment_suite(ctx.graph(), ctx.tiers, specs);
  const auto h = [&](std::size_t i) {
    return rows[i].stats.happiness.bounds();
  };

  const auto baseline = h(0);
  std::cout << "S = T1s + T2s + stubs; baseline H(empty) = ["
            << util::pct(baseline.lower) << ", " << util::pct(baseline.upper)
            << "]\n\n--- hysteresis vs plain, all destinations ---\n";

  util::Table table({"model", "plain dH", "with hysteresis dH",
                     "gap to sec 1st closed"});
  const auto first = h(1);
  for (const std::size_t i : {2, 4}) {
    const auto plain = h(i);
    const auto sticky = h(i + 1);
    const double gap = first.lower - plain.lower;
    const double closed = sticky.lower - plain.lower;
    table.add_row({bench::short_model(rows[i].model),
                   util::pct(plain.lower - baseline.lower),
                   util::pct(sticky.lower - baseline.lower),
                   gap > 0 ? util::pct(closed / gap) : "-"});
  }
  table.add_row({"sec 1st (reference)",
                 util::pct(first.lower - baseline.lower), "-", "-"});
  table.print(std::cout);

  std::cout << "\n--- security islands (secure destinations only) ---\n"
            << "For d in S the island agreement IS the security 1st model "
               "(SecP placement is vacuous when no secure route exists):\n";
  util::Table island({"policy for island routes", "H over d in S (lower)"});
  island.add_row({"origin auth only", util::pct(h(6).lower)});
  for (std::size_t i = 7; i < 10; ++i) {
    island.add_row({bench::short_model(rows[i].model), util::pct(h(i).lower)});
  }
  island.add_row({"sec 3rd + hysteresis", util::pct(h(10).lower)});
  island.print(std::cout);
  std::cout << "\nreading: the island policy (= sec 1st row) and hysteresis "
               "both rescue most of what sec 2nd/3rd leave on the table.\n";
  return 0;
}
