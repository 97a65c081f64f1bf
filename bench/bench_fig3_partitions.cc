// Figure 3 + Section 4.2: deployment-invariant security bounds.
//
// For each S*BGP routing model, the average fractions of doomed /
// protectable / immune sources over random (attacker, destination) pairs
// bound the metric H_{V,V}(S) for *every* deployment S. The heavy line of
// the paper's figure — the S = emptyset baseline with origin authentication
// only — is printed alongside.
//
// Paper: baseline H_{V,V}(emptyset) >= 60% (62% IXP-augmented); upper
// bounds ~100% (sec 1st), 89% (2nd), 75% (3rd); IXP: ~100/90/77.
#include <iostream>

#include "support.h"
#include "util/chart.h"
#include "util/table.h"

namespace {

using namespace sbgp;

void run_on_graph(const topology::AsGraph& g, const topology::TierInfo& tiers,
                  const bench::BenchContext& ctx, const std::string& label) {
  // Figure 3 averages over all attackers (not only non-stubs).
  auto spec =
      bench::partition_spec(ctx, routing::SecurityModel::kSecurityFirst);
  spec.attackers =
      sim::sample_ases(sim::all_ases(g), ctx.sample, bench::kSampleSeed + 7);
  spec.destinations =
      sim::sample_ases(sim::all_ases(g), ctx.sample, bench::kSampleSeed + 8);
  std::vector<sim::ExperimentSpec> specs;
  for (const auto model : routing::kAllSecurityModels) {
    specs.push_back(spec);
    specs.back().model = model;
  }
  const auto rows = sim::run_experiment_suite(g, tiers, specs);
  // Every row's happiness is the S = emptyset baseline.
  const auto baseline = rows.front().stats.happiness.bounds();

  std::cout << "\n--- " << label << " ---\n";
  std::cout << "baseline H(empty) lower bound = " << util::pct(baseline.lower)
            << "   (paper: >= 60% base graph, 62% IXP-augmented)\n\n";

  util::Table table({"model", "doomed", "protectable", "immune",
                     "upper bound on H(S)", "max gain vs baseline"});
  std::vector<util::StackedBar> bars;
  for (const auto& row : rows) {
    const auto s = row.stats.partitions.shares();
    table.add_row({bench::short_model(row.model), util::pct(s.doomed),
                   util::pct(s.protectable), util::pct(s.immune),
                   util::pct(1.0 - s.doomed),
                   util::pct(std::max(0.0, 1.0 - s.doomed - baseline.lower))});
    bars.push_back({bench::short_model(row.model),
                    {s.immune, s.protectable, s.doomed}});
  }
  table.print(std::cout);
  std::cout << "\nstacked bars (#=immune, +=protectable, .=doomed):\n";
  util::print_stacked_bars(std::cout, bars, {'#', '+', '.'});
  std::cout << "paper upper bounds: sec1st ~100%, sec2nd 89%, sec3rd 75%; "
               "max sec3rd gain <= 15%\n";
}

}  // namespace

int main(int argc, char** argv) {
  const auto ctx = bench::make_context(argc, argv);
  bench::print_banner(ctx,
                      "Figure 3 + Section 4.2: doomed/protectable/immune "
                      "partitions and the origin-authentication baseline",
                      "sec 3rd gains at most 15% over origin authentication "
                      "for ANY deployment; sec 2nd at most ~29%");
  run_on_graph(ctx.graph(), ctx.tiers, ctx, "base graph");
  const auto ixp = bench::make_ixp_graph(ctx);
  run_on_graph(ixp, topology::classify_tiers(ixp, ctx.topo.content_providers),
               ctx, "IXP-augmented graph (Appendix J, Figure 19a)");
  return 0;
}
