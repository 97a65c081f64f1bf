// Figure 13: the fate of secure routes to each content provider during
// attacks.
//
// S = the Tier 1s, the CPs, and all their stubs; security 3rd; averaged
// over non-stub attackers. Per CP destination: the fraction of sources
// holding secure routes in normal conditions, split into (1) routes lost
// to protocol downgrades, (2) secure routes kept by immune sources, (3)
// the remainder. Paper: most secure routes are lost to downgrades, and
// almost all surviving ones belong to sources that were immune anyway —
// i.e. the deployment buys almost nothing.
//
// Expressed as a declarative suite: one downgrade spec per CP destination
// (the "t1-stubs-cp" scenario), plus a single aggregate spec on the
// IXP-augmented graph (Appendix J, Figure 21).
#include <algorithm>
#include <iostream>

#include "security/downgrade.h"
#include "support.h"
#include "util/table.h"

namespace {

using namespace sbgp;

sim::ExperimentSpec cp_spec(const bench::BenchContext& ctx,
                            std::vector<routing::AsId> dests) {
  auto spec = bench::base_spec(ctx, "t1-stubs-cp",
                               routing::SecurityModel::kSecurityThird,
                               sim::Analysis::kDowngrades);
  spec.destinations = std::move(dests);
  return spec;
}

void print_aggregate(const security::DowngradeStats& grand) {
  const double n = static_cast<double>(std::max<std::size_t>(1, grand.sources));
  std::cout << "aggregate: secure(normal)="
            << util::pct(static_cast<double>(grand.secure_normal) / n)
            << "  downgraded="
            << util::pct(static_cast<double>(grand.downgraded) / n)
            << "  kept+immune="
            << util::pct(static_cast<double>(grand.kept_and_immune) / n)
            << "  kept+other="
            << util::pct(static_cast<double>(grand.secure_kept -
                                             grand.kept_and_immune) /
                         n)
            << '\n';
}

}  // namespace

int main(int argc, char** argv) {
  const auto ctx = bench::make_context(argc, argv);
  bench::print_banner(
      ctx,
      "Figure 13: secure routes to CP destinations under attack (sec 3rd)",
      "most secure routes are lost to protocol downgrades; nearly all "
      "survivors belong to immune sources");

  const auto& cps = ctx.tiers.bucket(topology::Tier::kContentProvider);

  std::cout << "\n--- base graph (Figure 13) ---\n";
  std::vector<sim::ExperimentSpec> specs;
  for (const auto cp : cps) specs.push_back(cp_spec(ctx, {cp}));
  const auto rows = sim::run_experiment_suite(ctx.graph(), ctx.tiers, specs);

  util::Table table({"CP dest", "secure routes (normal)", "downgraded",
                     "kept+immune", "kept+other"});
  security::DowngradeStats grand;
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const auto& total = rows[i].stats.downgrades;
    grand += total;
    if (total.sources > 0) {
      const double n = static_cast<double>(total.sources);
      table.add_row({"AS " + std::to_string(cps[i]),
                     util::pct(static_cast<double>(total.secure_normal) / n),
                     util::pct(static_cast<double>(total.downgraded) / n),
                     util::pct(static_cast<double>(total.kept_and_immune) / n),
                     util::pct(static_cast<double>(total.secure_kept -
                                                   total.kept_and_immune) /
                               n)});
    }
  }
  table.print(std::cout);
  print_aggregate(grand);

  // Appendix J / Figure 21: same computation on the IXP-augmented graph,
  // aggregate only (one spec over all CP destinations at once).
  std::cout << "\n--- IXP-augmented graph (Appendix J, Figure 21) - "
               "aggregate only ---\n";
  const auto ixp = bench::make_ixp_graph(ctx);
  const auto tiers_ixp =
      topology::classify_tiers(ixp, ctx.topo.content_providers);
  const auto ixp_rows = sim::run_experiment_suite(
      ixp, tiers_ixp, {cp_spec(ctx, {cps.begin(), cps.end()})});
  print_aggregate(ixp_rows.front().stats.downgrades);
  return 0;
}
