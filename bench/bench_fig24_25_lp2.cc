// Figures 24 & 25 (Appendix K): sensitivity to the LP2 local-preference
// variant, where peer routes of length <= 2 beat longer customer routes.
//
// Paper: under LP2 the maximum improvements shrink slightly (sec 3rd:
// ~11-13%, sec 2nd: ~21-22%), high-tier destinations become mostly immune
// (short peer routes to them abound, so bogus customer routes lose), and
// on the IXP-augmented graph — with 4x the peer edges — immunity rises
// further. Tier 1 destinations stop being the worst case.
#include <iostream>

#include "support.h"
#include "util/table.h"

namespace {

using namespace sbgp;

void run(const topology::AsGraph& g, const bench::BenchContext& ctx,
         const topology::TierInfo& tiers, const std::string& label) {
  auto lp2 = bench::partition_spec(ctx, routing::SecurityModel::kSecurityThird);
  lp2.lp = routing::LocalPrefPolicy::lp_k(2);
  lp2.attackers =
      sim::sample_ases(sim::all_ases(g), ctx.sample, bench::kSampleSeed + 51);
  lp2.destinations =
      sim::sample_ases(sim::all_ases(g), ctx.sample, bench::kSampleSeed + 52);

  std::cout << "\n--- " << label << ": overall partitions under LP2 (Figure "
               "24) ---\n";
  util::Table overall({"model", "doomed", "protectable", "immune",
                       "upper bound on H(S)"});
  std::vector<sim::ExperimentSpec> specs = {lp2, lp2};
  specs[0].model = routing::SecurityModel::kSecuritySecond;
  for (const auto& row : sim::run_experiment_suite(g, tiers, specs)) {
    const auto s = row.stats.partitions.shares();
    overall.add_row({bench::short_model(row.model), util::pct(s.doomed),
                     util::pct(s.protectable), util::pct(s.immune),
                     util::pct(1.0 - s.doomed)});
  }
  overall.print(std::cout);

  std::cout << "\n--- " << label
            << ": partitions by destination tier under LP2, sec 3rd (Figure "
               "25) ---\n";
  util::Table per_tier({"dest tier", "doomed", "protectable", "immune"});
  const topology::Tier order[] = {
      topology::Tier::kStub,  topology::Tier::kSmdg,
      topology::Tier::kContentProvider, topology::Tier::kTier3,
      topology::Tier::kTier2, topology::Tier::kTier1};
  specs.clear();
  for (const auto tier : order) {
    auto spec = lp2;
    spec.label = topology::to_string(tier);
    spec.destinations =
        sim::sample_ases(tiers.bucket(tier), 12, bench::kSampleSeed + 53);
    if (!spec.destinations.empty()) specs.push_back(std::move(spec));
  }
  for (const auto& row : sim::run_experiment_suite(g, tiers, specs)) {
    const auto s = row.stats.partitions.shares();
    per_tier.add_row({row.label, util::pct(s.doomed), util::pct(s.protectable),
                      util::pct(s.immune)});
  }
  per_tier.print(std::cout);
}

}  // namespace

int main(int argc, char** argv) {
  const auto ctx = bench::make_context(argc, argv);
  bench::print_banner(
      ctx, "Figures 24/25 (Appendix K): the LP2 policy variant",
      "T1/T2/CP destinations become mostly immune under LP2; IXP "
      "augmentation amplifies the effect");
  run(ctx.graph(), ctx, ctx.tiers, "base graph");
  const auto ixp = bench::make_ixp_graph(ctx);
  const auto tiers_ixp =
      topology::classify_tiers(ixp, ctx.topo.content_providers);
  run(ixp, ctx, tiers_ixp, "IXP-augmented graph");
  std::cout << "\nexpected shape: T1 doomed share under LP2 far below the "
               "~80% of the standard policy (compare bench_fig4_5).\n";
  return 0;
}
