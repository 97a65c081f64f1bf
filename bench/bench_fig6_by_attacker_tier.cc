// Figure 6 + Section 4.7: partitions broken down by attacker tier, and the
// by-source-tier aside.
//
// Attack effectiveness grows with the attacker's tier — except for Tier 1
// attackers, whose bogus routes look like (depreferenced) provider routes
// to almost everyone, making them the *weakest* attackers. Bucketing by
// source tier instead shows roughly uniform doomed/immune/protectable
// shares (~25/60/15), so Tier 1 sources can still be protected.
#include <array>
#include <iostream>

#include "security/partition.h"
#include "sim/batch_executor.h"
#include "support.h"
#include "util/table.h"

namespace {

using namespace sbgp;

void by_attacker_tier(const bench::BenchContext& ctx,
                      routing::SecurityModel model) {
  std::cout << "\n--- partitions by attacker tier, "
            << bench::short_model(model) << " ---\n";
  const topology::Tier order[] = {
      topology::Tier::kStub,  topology::Tier::kStubX,
      topology::Tier::kSmdg,  topology::Tier::kSmallContentProvider,
      topology::Tier::kContentProvider, topology::Tier::kTier3,
      topology::Tier::kTier2, topology::Tier::kTier1};
  std::vector<sim::ExperimentSpec> specs;
  for (const auto tier : order) {
    auto spec = bench::partition_spec(ctx, model);
    spec.label = topology::to_string(tier);
    spec.attackers = bench::tier_sample(ctx, tier, 16, bench::kSampleSeed + 11);
    if (!spec.attackers.empty()) specs.push_back(std::move(spec));
  }
  util::Table table({"attacker tier", "doomed", "protectable", "immune"});
  for (const auto& row :
       sim::run_experiment_suite(ctx.graph(), ctx.tiers, specs)) {
    const auto shares = row.stats.partitions.shares();
    table.add_row({row.label,
                   util::pct(shares.doomed), util::pct(shares.protectable),
                   util::pct(shares.immune)});
  }
  table.print(std::cout);
}

void by_source_tier(const bench::BenchContext& ctx,
                    routing::SecurityModel model) {
  std::cout << "\n--- partitions bucketed by SOURCE tier, "
            << bench::short_model(model)
            << " (Section 4.7, figure omitted in the paper) ---\n";
  // counts[tier][class], accumulated per executor worker (integer sums, so
  // the merged totals are thread-count-independent).
  using TierCounts =
      std::array<std::array<std::size_t, 3>, topology::kNumTiers>;
  const auto plan = sim::make_sweep_plan(ctx.attackers, ctx.destinations);
  auto& exec = sim::BatchExecutor::shared();
  const std::size_t workers = exec.effective_workers(0);
  std::vector<TierCounts> per_worker(workers, TierCounts{});
  exec.run(
      plan.groups.size(),
      [&](std::size_t worker, std::size_t gi) {
        const auto d = plan.groups[gi].destination;
        auto& counts = per_worker[worker];
        for (const auto m : plan.groups[gi].attackers) {
          const security::PartitionContext pctx(
              ctx.graph(), d, m, model, routing::LocalPrefPolicy::standard(),
              exec.workspace(worker));
          for (routing::AsId v = 0; v < ctx.graph().num_ases(); ++v) {
            if (v == d || v == m) continue;
            const auto t = static_cast<std::size_t>(ctx.tiers.tier(v));
            ++counts[t][static_cast<std::size_t>(pctx.classify(v))];
          }
        }
      },
      workers);
  TierCounts total{};
  for (const auto& counts : per_worker) {
    for (std::size_t t = 0; t < topology::kNumTiers; ++t) {
      for (std::size_t c = 0; c < 3; ++c) total[t][c] += counts[t][c];
    }
  }
  util::Table table({"source tier", "doomed", "protectable", "immune"});
  for (std::size_t t = 0; t < topology::kNumTiers; ++t) {
    const double sum = static_cast<double>(total[t][0] + total[t][1] +
                                           total[t][2]);
    if (sum == 0) continue;
    table.add_row(
        {std::string(topology::to_string(static_cast<topology::Tier>(t))),
         util::pct(static_cast<double>(total[t][0]) / sum),
         util::pct(static_cast<double>(total[t][1]) / sum),
         util::pct(static_cast<double>(total[t][2]) / sum)});
  }
  table.print(std::cout);
  std::cout << "paper: every source tier shows roughly 25% doomed / 60% "
               "immune / 15% protectable.\n";
}

}  // namespace

int main(int argc, char** argv) {
  const auto ctx = bench::make_context(argc, argv);
  bench::print_banner(
      ctx, "Figure 6 + Section 4.7: partitions by attacker tier (sec 3rd)",
      "attack strength rises from stub to Tier 2 attackers; Tier 1 "
      "attackers are strikingly WEAK (their bogus routes look like "
      "provider routes)");
  by_attacker_tier(ctx, routing::SecurityModel::kSecurityThird);
  by_source_tier(ctx, routing::SecurityModel::kSecurityThird);
  return 0;
}
