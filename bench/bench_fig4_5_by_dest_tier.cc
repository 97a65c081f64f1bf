// Figures 4 & 5: partitions broken down by destination tier.
//
// The striking result: when a Tier 1 destination is attacked under
// security 2nd or 3rd, the vast majority (~80%) of sources are doomed —
// the best-connected ASes are the hardest to protect, because almost
// everyone reaches them via (least-preferred) provider routes while the
// attacker's bogus route arrives as a customer or peer route (Section 4.6).
#include <iostream>

#include "support.h"
#include "util/table.h"

namespace {

using namespace sbgp;

void per_tier(const bench::BenchContext& ctx, routing::SecurityModel model) {
  std::cout << "\n--- partitions by destination tier, "
            << bench::short_model(model) << " ---\n";
  util::Table table({"dest tier", "doomed", "protectable", "immune",
                     "baseline H(empty)"});
  // Tier order follows the paper's x-axis: STUB ... T1.
  const topology::Tier order[] = {
      topology::Tier::kStub,  topology::Tier::kStubX,
      topology::Tier::kSmdg,  topology::Tier::kSmallContentProvider,
      topology::Tier::kContentProvider, topology::Tier::kTier3,
      topology::Tier::kTier2, topology::Tier::kTier1};
  std::vector<sim::ExperimentSpec> specs;
  for (const auto tier : order) {
    auto spec = bench::partition_spec(ctx, model);
    spec.label = topology::to_string(tier);
    spec.destinations =
        bench::tier_sample(ctx, tier, 16, bench::kSampleSeed + 9);
    if (!spec.destinations.empty()) specs.push_back(std::move(spec));
  }
  for (const auto& row :
       sim::run_experiment_suite(ctx.graph(), ctx.tiers, specs)) {
    const auto shares = row.stats.partitions.shares();
    table.add_row({row.label, util::pct(shares.doomed),
                   util::pct(shares.protectable), util::pct(shares.immune),
                   util::pct(row.stats.happiness.bounds().lower)});
  }
  table.print(std::cout);
}

}  // namespace

int main(int argc, char** argv) {
  const auto ctx = bench::make_context(argc, argv);
  bench::print_banner(
      ctx, "Figures 4 & 5: partitions by destination tier (sec 3rd / 2nd)",
      "Tier 1 destinations: ~80% of sources doomed, almost none protectable; "
      "other tiers gain 8-15% at most");
  per_tier(ctx, routing::SecurityModel::kSecurityThird);
  per_tier(ctx, routing::SecurityModel::kSecuritySecond);
  std::cout << "\nexpected shape: the T1 row's doomed share dominates all "
               "other tiers in both models.\n";
  return 0;
}
